//! Every engine family decodes through one loop (`specee_core::engine::
//! decode`); this file pins what that loop must keep.
//!
//! * **Golden replay.** `tests/golden/engines.txt` holds `{:?}` of every
//!   [`GenOutput`] — tokens, exit layers, `ce_sum`, the whole `Meter`,
//!   every counter — from a fixed script over all eight engine families on
//!   the `tests/baselines.rs` substrate, together with digests of what the
//!   offline collectors produced. It was recorded at the commit *before*
//!   the engines were folded into one loop and is replayed byte for byte.
//!   To regenerate after an *intentional* change of decoding behaviour:
//!   `UPDATE_GOLDEN=1 cargo test --test decode_equivalence`.
//! * **Properties** over random prompts and lengths that need no golden:
//!   `exit_layers` against the layers a wrapping model saw run and the
//!   rows every layer's cache holds after `generate`, for every family; a
//!   SpecEE engine with nothing to speculate on against `DenseEngine`; and
//!   `dense_probe` against a hand-rolled dense decode.
//!
//! The loop's own seams (`LayerRule`, `generate_rounds`, `greedy_walk`)
//! are crate-private; their tests sit beside them in
//! `crates/core/src/engine/decode.rs`.

use std::fmt::Write as _;

use specee::core::baselines::{collect_adainfer_data, AdaInferEngine, RaeeEngine};
use specee::core::collect::{collect_training_data, train_bank, CollectedSample, CollectionReport};
use specee::core::engine::{
    dense_probe, DenseEngine, ProbedToken, SpecEeEngine, SpeculativeEngine,
};
use specee::core::predictor::{PredictorBank, PredictorConfig};
use specee::core::skip_layer::{
    calibrate_calm_threshold, collect_router_data, CalmEngine, DLlmEngine, MoDEngine,
};
use specee::core::{GenOutput, SpecEeConfig};
use specee::draft::{DraftModel, NoDraft, SelfDraft, SelfDraftSpec, SpeculativeSource, TreeShape};
use specee::metrics::Meter;
use specee::model::{prefill, LayeredLm, ModelConfig, SkipKvPolicy, TokenId, Transformer, TreeKv};
use specee::nn::TrainConfig;
use specee::synth::{DatasetProfile, OracleDraft, SyntheticLm, SyntheticLmBuilder};
use specee::tensor::rng::Pcg;

const SEED: u64 = 2121;
const N_LAYERS: usize = 12;

fn cfg() -> ModelConfig {
    ModelConfig {
        n_layers: N_LAYERS,
        vocab_size: 512,
        ..ModelConfig::tiny()
    }
}

fn build_lm() -> SyntheticLm {
    SyntheticLmBuilder::new(cfg(), DatasetProfile::qa())
        .seed(SEED)
        .build()
}

fn train_prompts() -> Vec<(Vec<TokenId>, usize)> {
    (0..10u32)
        .map(|i| (vec![2 + i, 7 + (i % 5), 1 + i], 12usize))
        .collect()
}

fn oracle() -> OracleDraft {
    OracleDraft::new(*build_lm().language(), 0.9, &cfg(), SEED ^ 1)
}

/// The three requests every engine of the script serves in a row: two
/// different ones, then a `gen_len` of 1 (the first token alone).
fn requests() -> [(Vec<TokenId>, usize); 3] {
    [
        (vec![4, 2, 9], 14),
        (vec![7, 1, 3, 8, 5], 9),
        (vec![6, 6], 1),
    ]
}

fn pcfg() -> PredictorConfig {
    PredictorConfig {
        hidden_dim: 32,
        ..PredictorConfig::default()
    }
}

/// The SpecEE offline pipeline of `tests/baselines.rs`: collection report
/// and the bank trained on it.
fn trained() -> (CollectionReport, PredictorBank) {
    let mut lm = build_lm();
    let mut draft = oracle();
    let data = collect_training_data(&mut lm, &mut draft, &train_prompts(), 4);
    let mut bank = PredictorBank::new(N_LAYERS, &pcfg(), &mut Pcg::seed(SEED));
    train_bank(
        &mut bank,
        &data.samples,
        1.0,
        &TrainConfig {
            epochs: 24,
            lr: 3e-3,
            ..TrainConfig::default()
        },
        SEED,
    );
    (data, bank)
}

/// Sample count, positive labels and the in-order `f64` sum of every
/// feature: any change to which (token, layer) sites a collector visits,
/// or to the states it reads there, moves it.
fn digest(samples: &[CollectedSample]) -> String {
    let (mut n, mut positive, mut layers, mut sum) = (0u64, 0u64, 0u64, 0.0f64);
    for s in samples {
        n += 1;
        positive += u64::from(s.label);
        layers += s.layer as u64;
        sum += s.features.iter().map(|&x| f64::from(x)).sum::<f64>();
    }
    format!("n {n} positive {positive} layer_sum {layers} feature_sum {sum:?}")
}

/// What the script and the properties need of an engine, whatever its
/// type.
trait Engine<M> {
    fn generate(&mut self, prompt: &[TokenId], gen_len: usize) -> GenOutput;
    fn model(&self) -> &M;
}

macro_rules! engine {
    ($($ty:ident<M $(, $d:ident)?>),*) => {$(
        impl<M: LayeredLm $(, $d: SpeculativeSource)?> Engine<M> for $ty<M $(, $d)?> {
            fn generate(&mut self, prompt: &[TokenId], gen_len: usize) -> GenOutput {
                $ty::generate(self, prompt, gen_len)
            }
            fn model(&self) -> &M {
                $ty::model(self)
            }
        }
    )*};
}
engine!(
    DenseEngine<M>,
    SpecEeEngine<M, D>,
    AdaInferEngine<M>,
    RaeeEngine<M>,
    CalmEngine<M>,
    MoDEngine<M>,
    DLlmEngine<M>,
    SpeculativeEngine<M, D>
);

/// Every engine family on the `tests/baselines.rs` substrate, each model
/// passed through `wrap`, and one digest line per offline collector.
struct Families<M> {
    engines: Vec<(&'static str, Box<dyn Engine<M>>)>,
    collectors: String,
}

fn families<M: LayeredLm + 'static>(wrap: impl Fn(SyntheticLm) -> M) -> Families<M> {
    let lm = || wrap(build_lm());
    let mut engines: Vec<(&'static str, Box<dyn Engine<M>>)> = Vec::new();
    engines.push(("dense", Box::new(DenseEngine::new(lm()))));

    let (data, bank) = trained();
    let config = SpecEeConfig {
        predictor: pcfg(),
        ..SpecEeConfig::default()
    };
    let schedule = config.build_schedule(N_LAYERS, Some(&data.exit_frequencies));
    let specee = SpecEeEngine::new(
        lm(),
        oracle(),
        bank.clone(),
        schedule.clone(),
        config.clone(),
    );
    engines.push(("specee", Box::new(specee)));

    let ada_samples = collect_adainfer_data(&mut build_lm(), &train_prompts());
    let ada = AdaInferEngine::train(lm(), &ada_samples, SEED);
    engines.push(("adainfer", Box::new(ada)));

    // RAEE: as in `tests/baselines.rs`, the database is seeded from the
    // bigrams a dense run produces, each claimed settled by a layer that
    // varies with the position so that several exit depths are taken.
    let mut observations: Vec<(Vec<TokenId>, usize)> = Vec::new();
    for (prompt, gen_len) in requests() {
        let reference = DenseEngine::new(build_lm()).generate(&prompt, gen_len);
        let mut ctx = prompt;
        for (i, &t) in reference.tokens.iter().enumerate() {
            ctx.push(t);
            observations.push((ctx.clone(), 8 + i % 4));
        }
    }
    let raee = RaeeEngine::build(lm(), &observations);
    engines.push(("raee", Box::new(raee)));

    let threshold = calibrate_calm_threshold(&mut build_lm(), &train_prompts());
    engines.push(("calm", Box::new(CalmEngine::new(lm(), threshold))));

    let router_samples = collect_router_data(&mut build_lm(), &train_prompts());
    let mod_engine = MoDEngine::train(lm(), &router_samples, 0.6, SEED);
    engines.push(("mod", Box::new(mod_engine)));
    let dllm = DLlmEngine::train(lm(), &router_samples, SEED);
    engines.push(("dllm", Box::new(dllm)));

    // The full tree; `t3+budget@draftmodel` covers pruning.
    let tree_config = SpecEeConfig {
        tree_shape: TreeShape::new(vec![2, 2]),
        tree_budget: None,
        ..config.clone()
    };
    let eagle = SpeculativeEngine::baseline(lm(), oracle(), tree_config.clone());
    engines.push(("eagle", Box::new(eagle)));

    let t3 = SpeculativeEngine::with_early_exit(
        lm(),
        oracle(),
        bank.clone(),
        schedule.clone(),
        tree_config.clone(),
    );
    engines.push(("t3", Box::new(t3)));

    let budget_config = SpecEeConfig {
        tree_budget: Some(3),
        ..tree_config
    };
    let draft_model = DraftModel::new(&cfg(), &mut Pcg::seed(SEED ^ 9));
    let t3_budget =
        SpeculativeEngine::with_early_exit(lm(), draft_model, bank, schedule, budget_config);
    engines.push(("t3+budget@draftmodel", Box::new(t3_budget)));

    let self_draft = SelfDraft::new(SelfDraftSpec::new(4, TreeShape::new(vec![2, 2])));
    let selfdraft = SpeculativeEngine::baseline(lm(), self_draft, config);
    engines.push(("selfdraft 2x2", Box::new(selfdraft)));

    let collectors = format!(
        "collect_training_data: {} tokens {} theoretical_layers {:?} exit_frequencies {:?}\n\
         collect_adainfer_data: {}\n\
         collect_router_data: {}\n\
         calibrate_calm_threshold: {threshold:?}\n",
        digest(&data.samples),
        data.tokens,
        data.theoretical_layers,
        data.exit_frequencies,
        digest(&ada_samples),
        digest(&router_samples),
    );
    Families {
        engines,
        collectors,
    }
}

/// The synthetic model's shallow layers predict little, so its self-draft
/// rounds accept almost nothing; a random transformer drafting from layer
/// 5 of 6 accepts whole paths.
fn deep_self_draft() -> SpeculativeEngine<Transformer, SelfDraft> {
    let small = ModelConfig {
        n_layers: 6,
        vocab_size: 96,
        ..ModelConfig::tiny()
    };
    let transformer = Transformer::random(small, &mut Pcg::seed(SEED));
    let deep_draft = SelfDraft::new(SelfDraftSpec::new(5, TreeShape::new(vec![2, 2])));
    SpeculativeEngine::baseline(transformer, deep_draft, SpecEeConfig::default())
}

/// Serves the script's requests on one engine, one line per generation.
fn serve<M>(text: &mut String, name: &str, engine: &mut dyn Engine<M>) {
    for (i, (prompt, gen_len)) in requests().iter().enumerate() {
        let out = engine.generate(prompt, *gen_len);
        writeln!(text, "{name} request {i}: {out:?}").expect("write to a String");
    }
}

/// Runs the whole script and renders one line per generation and per
/// collector digest.
fn script() -> String {
    let mut families = families(|lm| lm);
    let mut text = String::new();
    for (name, engine) in &mut families.engines {
        serve(&mut text, name, engine.as_mut());
    }
    serve(
        &mut text,
        "selfdraft 2x2 @transformer",
        &mut deep_self_draft(),
    );
    text + &families.collectors
}

#[test]
fn every_engine_family_replays_the_golden_file() {
    let text = script();
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/engines.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &text).expect("write golden");
        return;
    }
    let golden = include_str!("golden/engines.txt");
    for (ours, theirs) in text.lines().zip(golden.lines()) {
        let name = ours.split(':').next().expect("a line has a name");
        assert_eq!(ours, theirs, "`{name}` drifted from the golden file");
    }
    assert_eq!(
        text, golden,
        "the script and the golden file differ in length"
    );
}

/// Forwards every call to `inner` and writes down, per decoded token or
/// tree round, how many layer calls the engine made for it and how many
/// positions were committed when it began. `prefill` is forwarded whole,
/// so prompt tokens leave no entry.
struct Counted<M> {
    inner: M,
    /// `(kv_len at the start, layer calls)` per token / round.
    log: Vec<(usize, usize)>,
}

impl<M: LayeredLm> Counted<M> {
    fn new(inner: M) -> Self {
        Counted {
            inner,
            log: Vec::new(),
        }
    }

    fn begin(&mut self) {
        self.log.push((self.inner.kv_len(), 0));
    }

    fn ran_a_layer(&mut self) {
        self.log.last_mut().expect("a token was begun").1 += 1;
    }
}

impl<M: LayeredLm> LayeredLm for Counted<M> {
    fn config(&self) -> &ModelConfig {
        self.inner.config()
    }
    fn reset(&mut self) {
        self.log.clear();
        self.inner.reset();
    }
    fn prefill(&mut self, prompt: &[TokenId], meter: &mut Meter) -> Vec<f32> {
        self.inner.prefill(prompt, meter)
    }
    fn begin_token(&mut self, token: TokenId, meter: &mut Meter) -> Vec<f32> {
        self.begin();
        self.inner.begin_token(token, meter)
    }
    fn forward_layer(
        &mut self,
        layer: usize,
        h: &[f32],
        pos: usize,
        meter: &mut Meter,
    ) -> Vec<f32> {
        self.ran_a_layer();
        self.inner.forward_layer(layer, h, pos, meter)
    }
    fn begin_tree(
        &mut self,
        tokens: &[TokenId],
        parents: &[Option<usize>],
        meter: &mut Meter,
    ) -> Vec<Vec<f32>> {
        self.begin();
        self.inner.begin_tree(tokens, parents, meter)
    }
    fn forward_layer_tree(
        &mut self,
        layer: usize,
        hs: &[Vec<f32>],
        parents: &[Option<usize>],
        meter: &mut Meter,
    ) -> (Vec<Vec<f32>>, TreeKv) {
        self.ran_a_layer();
        self.inner.forward_layer_tree(layer, hs, parents, meter)
    }
    fn extend_tree(
        &mut self,
        tokens: &[TokenId],
        parents: &[Option<usize>],
        first_new: usize,
        meter: &mut Meter,
    ) -> Vec<Vec<f32>> {
        self.inner.extend_tree(tokens, parents, first_new, meter)
    }
    fn forward_layer_tree_partial(
        &mut self,
        layer: usize,
        new_hs: &[Vec<f32>],
        parents: &[Option<usize>],
        first_new: usize,
        scratch: &mut TreeKv,
        meter: &mut Meter,
    ) -> Vec<Vec<f32>> {
        // The bonus node's pass (`first_new == 0`) stands for the round's
        // shallow layers; the levels grown after it re-run none of them.
        if first_new == 0 {
            self.ran_a_layer();
        }
        self.inner
            .forward_layer_tree_partial(layer, new_hs, parents, first_new, scratch, meter)
    }
    fn commit_tree_kv(&mut self, layer: usize, kv: &TreeKv, accepted: &[usize]) {
        self.inner.commit_tree_kv(layer, kv, accepted);
    }
    fn accept_tokens(&mut self, tokens: &[TokenId]) {
        self.inner.accept_tokens(tokens);
    }
    fn fill_layer_kv(
        &mut self,
        layer: usize,
        h: &[f32],
        pos: usize,
        policy: SkipKvPolicy,
        meter: &mut Meter,
    ) {
        self.inner.fill_layer_kv(layer, h, pos, policy, meter);
    }
    fn fill_skipped_kv(
        &mut self,
        first_skipped: usize,
        h: &[f32],
        pos: usize,
        policy: SkipKvPolicy,
        meter: &mut Meter,
    ) {
        self.inner
            .fill_skipped_kv(first_skipped, h, pos, policy, meter);
    }
    fn final_logits(&mut self, h: &[f32], meter: &mut Meter) -> Vec<f32> {
        self.inner.final_logits(h, meter)
    }
    fn final_logits_batch(&mut self, hs: &[Vec<f32>], meter: &mut Meter) -> Vec<Vec<f32>> {
        self.inner.final_logits_batch(hs, meter)
    }
    fn slice_logits(&mut self, h: &[f32], tokens: &[TokenId], meter: &mut Meter) -> Vec<f32> {
        self.inner.slice_logits(h, tokens, meter)
    }
    fn grouped_slice_logits(
        &mut self,
        hs: &[&[f32]],
        candidate_sets: &[&[TokenId]],
        meter: &mut Meter,
    ) -> Vec<Vec<f32>> {
        self.inner.grouped_slice_logits(hs, candidate_sets, meter)
    }
    fn kv_len(&self) -> usize {
        self.inner.kv_len()
    }
    fn truncate_kv(&mut self, len: usize) {
        self.inner.truncate_kv(len);
    }
    fn allocated_kv_tokens(&self) -> usize {
        self.inner.allocated_kv_tokens()
    }
    fn modelled_weight_bytes(&self) -> f64 {
        self.inner.modelled_weight_bytes()
    }
}

/// A random prompt and length: 1–6 prompt tokens, 1–12 tokens out.
fn random_request(rng: &mut Pcg) -> (Vec<TokenId>, usize) {
    let prompt = (0..1 + rng.below(6))
        .map(|_| rng.below(512) as TokenId)
        .collect();
    (prompt, 1 + rng.below(12))
}

/// For every family, under exit rules, skip rules and tree rounds alike:
/// `exit_layers[i]` is the number of layer calls the model really served
/// for token `i`, and after `generate` every layer's cache holds one row
/// per token fed — the prompt and all but the last token emitted.
#[test]
fn exit_layers_and_cache_rows_are_what_the_model_saw() {
    let mut families = families(Counted::new);
    let mut rng = Pcg::seed(SEED ^ 0x5eed);
    let mut ran_short = std::collections::BTreeSet::new();
    for case in 0..6 {
        let (prompt, gen_len) = random_request(&mut rng);
        for (name, engine) in &mut families.engines {
            let what = format!("{name}, case {case}: {prompt:?} x {gen_len}");
            let out = engine.generate(&prompt, gen_len);
            assert_eq!(out.tokens.len(), gen_len, "{what}");
            let model = engine.model();

            // One log entry per token after the first, or per tree round;
            // an entry covers the positions committed until the next one.
            let fed = model.kv_len();
            let starts = model.log.iter().map(|e| e.0);
            let ends = starts.clone().skip(1).chain([fed]);
            let mut expected = vec![N_LAYERS];
            for ((start, end), (_, layers)) in starts.zip(ends).zip(&model.log) {
                expected.extend(std::iter::repeat_n(*layers, end - start));
            }
            // A tree round may emit past `gen_len`; the surplus is cut
            // from the output but was fed. One-token rounds emit exactly.
            let emitted = expected.len();
            assert!(emitted >= gen_len, "{what}");
            if out.rounds == 0 {
                assert_eq!(emitted, gen_len, "{what}: one token per round");
            }
            expected.truncate(gen_len);
            assert_eq!(out.exit_layers, expected, "{what}");
            if expected.iter().any(|&l| l < N_LAYERS) {
                ran_short.insert(*name);
            }

            assert_eq!(fed, prompt.len() + emitted - 1, "{what}");
            for layer in 0..N_LAYERS {
                let rows = model.inner.inner().cache(layer).len();
                assert_eq!(rows, fed, "{what}: layer {layer}");
            }
        }
    }
    // The property is about exits and skips: they must have happened.
    let ran_short: Vec<&str> = ran_short.into_iter().collect();
    let all = [
        "adainfer",
        "calm",
        "dllm",
        "mod",
        "raee",
        "specee",
        "t3",
        "t3+budget@draftmodel",
    ];
    assert_eq!(ran_short, all);
}

/// With nothing to speculate on, the SpecEE rule never reaches a predictor:
/// it must decode `DenseEngine`'s tokens, `ce_sum` and `Meter` — less the
/// host step the dense engine alone charges for the first token.
#[test]
fn a_draftless_specee_engine_is_the_dense_engine_less_one_host_step() {
    let (_, bank) = trained();
    let config = SpecEeConfig {
        predictor: pcfg(),
        ..SpecEeConfig::default()
    };
    let mut rng = Pcg::seed(SEED ^ 0xd5e);
    for case in 0..8 {
        let (prompt, gen_len) = random_request(&mut rng);
        let schedule = config.build_schedule(N_LAYERS, None);
        let mut specee =
            SpecEeEngine::new(build_lm(), NoDraft, bank.clone(), schedule, config.clone());
        let out = specee.generate(&prompt, gen_len);
        let dense = DenseEngine::new(build_lm()).generate(&prompt, gen_len);
        let mut meter = out.meter.clone();
        meter.mark_host_step();
        assert_eq!(
            GenOutput { meter, ..out },
            dense,
            "case {case}: {prompt:?} x {gen_len}"
        );
    }
}

/// An owned copy of a [`ProbedToken`].
#[derive(Debug, PartialEq)]
struct Probed {
    ctx: Vec<TokenId>,
    starts_prompt: bool,
    states: Vec<Vec<f32>>,
    fulls: Vec<Vec<f32>>,
    picks: Vec<TokenId>,
}

/// `dense_probe` against a dense decode written out by hand: the context,
/// every hidden state, every layer's logits and picks of every token, and
/// which token starts a prompt.
#[test]
fn dense_probe_hands_out_the_rows_of_a_hand_rolled_dense_decode() {
    let prompts = vec![(vec![4u32, 2, 9], 5usize), (vec![7, 1], 3), (vec![3], 1)];
    let mut probed = Vec::new();
    dense_probe(&mut build_lm(), &prompts, |_, token: ProbedToken<'_>| {
        probed.push(Probed {
            ctx: token.ctx.to_vec(),
            starts_prompt: token.starts_prompt,
            states: token.states.to_vec(),
            fulls: token.fulls.to_vec(),
            picks: token.picks.to_vec(),
        });
    });

    let argmax = |row: &[f32]| specee::tensor::ops::argmax(row).expect("logits") as TokenId;
    let mut meter = Meter::new();
    let mut expected = Vec::new();
    // One model, reset per prompt, as the collectors did by hand (`reset`
    // does not rewind the synthetic model's noise streams, so a fresh
    // model per prompt would be a different decode).
    let mut lm = build_lm();
    for (prompt, gen_len) in &prompts {
        lm.reset();
        let h = prefill(&mut lm, prompt, &mut meter);
        let mut ctx = prompt.clone();
        ctx.push(argmax(&lm.final_logits(&h, &mut meter)));
        for i in 1..*gen_len {
            let pos = lm.kv_len();
            let mut h = lm.begin_token(*ctx.last().expect("pending"), &mut meter);
            let mut states = vec![h.clone()];
            let mut fulls = Vec::new();
            for layer in 0..N_LAYERS {
                h = lm.forward_layer(layer, &h, pos, &mut meter);
                states.push(h.clone());
                fulls.push(lm.final_logits(&h, &mut meter));
            }
            let picks: Vec<TokenId> = fulls.iter().map(|f| argmax(f)).collect();
            let next = picks[N_LAYERS - 1];
            expected.push(Probed {
                ctx: ctx.clone(),
                starts_prompt: i == 1,
                states,
                fulls,
                picks,
            });
            ctx.push(next);
        }
    }
    assert_eq!(probed.len(), 4 + 2);
    assert_eq!(probed, expected);
}
