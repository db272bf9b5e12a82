//! The batched tree / LM-head paths against the sequential decode they
//! must reproduce, bit for bit.
//!
//! `forward_layer_tree` and `forward_layer_tree_partial` project all nodes
//! of a draft tree in one pass over the weights
//! (`Backend::matmul_into`). The house contract is that verification can
//! never change a token, so every node must come out exactly as if its
//! root path had been decoded one token at a time through
//! `forward_layer` — hidden state and K/V rows — on every backend and
//! weight format, ragged dimensions included (`cols % 4 != 0` exercises
//! the kernels' column tail).

use proptest::prelude::*;
use specee::core::engine::SpeculativeEngine;
use specee::core::{GenOutput, PredictorBank, PredictorConfig, ScheduleEngine, SpecEeConfig};
use specee::draft::{DraftModel, SelfDraft, SelfDraftSpec, SpeculativeSource, TreeShape};
use specee::metrics::{Meter, OpKind};
use specee::model::{LayeredLm, ModelConfig, SkipKvPolicy, TokenId, Transformer, TreeKv};
use specee::synth::{DatasetProfile, OracleDraft, SyntheticLm, SyntheticLmBuilder};
use specee::tensor::{BackendKind, Pcg, QuantBits};

/// A random forest of 1..=24 draft nodes in topological order: mostly one
/// root, parents drawn from the earlier nodes.
fn random_tree(rng: &mut Pcg, vocab: usize) -> (Vec<TokenId>, Vec<Option<usize>>) {
    let n = 1 + rng.below(24);
    let tokens = (0..n).map(|_| rng.below(vocab) as TokenId).collect();
    let parents = (0..n)
        .map(|i| (i > 0 && rng.below(8) > 0).then(|| rng.below(i)))
        .collect();
    (tokens, parents)
}

/// Increasing cut points `0 < c < n` splitting the nodes into the pieces
/// a level-by-level draft pass would feed `forward_layer_tree_partial`.
fn random_cuts(rng: &mut Pcg, n: usize) -> Vec<usize> {
    (1..n).filter(|_| rng.below(3) == 0).collect()
}

/// The tiny model, or a ragged one whose every matrix has `cols % 4 != 0`.
fn config(ragged: bool) -> ModelConfig {
    if ragged {
        ModelConfig {
            hidden_dim: 30,
            n_heads: 3,
            ffn_dim: 30,
            ..ModelConfig::tiny()
        }
    } else {
        ModelConfig::tiny()
    }
}

/// One set of weights in every format × backend the decoder supports.
fn variants(cfg: &ModelConfig, seed: u64) -> Vec<(String, Transformer)> {
    let dense = Transformer::random(cfg.clone(), &mut Pcg::seed(seed));
    let mut int8 = dense.clone();
    int8.quantize(QuantBits::Int8);
    let mut sparse = dense.clone();
    sparse.enable_sparse_ffn(0.5, 4, &mut Pcg::seed(seed ^ 0x5a));
    let mut out = Vec::new();
    for (weights, model) in [("dense", dense), ("int8", int8), ("sparse-ffn", sparse)] {
        for backend in BackendKind::ALL {
            let mut model = model.clone();
            model.set_backend(backend);
            out.push((format!("{weights}/{backend}"), model));
        }
    }
    out
}

/// One-shot sweep: every layer over the whole tree.
fn sweep<M: LayeredLm>(
    model: &mut M,
    tokens: &[TokenId],
    parents: &[Option<usize>],
    meter: &mut Meter,
) -> (Vec<Vec<f32>>, Vec<TreeKv>) {
    let mut hs = model.begin_tree(tokens, parents, meter);
    let mut kvs = Vec::new();
    for layer in 0..model.config().n_layers {
        let (out, kv) = model.forward_layer_tree(layer, &hs, parents, meter);
        hs = out;
        kvs.push(kv);
    }
    (hs, kvs)
}

/// The same tree grown piece by piece (pieces end at `cuts` and at the
/// last node), each piece through every layer before the next is embedded.
fn sweep_in_pieces<M: LayeredLm>(
    model: &mut M,
    tokens: &[TokenId],
    parents: &[Option<usize>],
    cuts: &[usize],
    meter: &mut Meter,
) -> (Vec<Vec<f32>>, Vec<TreeKv>) {
    let n_layers = model.config().n_layers;
    let mut kvs = vec![TreeKv::default(); n_layers];
    let mut hs = Vec::new();
    let mut first_new = 0;
    for &end in cuts.iter().chain([&tokens.len()]) {
        let known = &parents[..end];
        let mut piece = if first_new == 0 {
            model.begin_tree(&tokens[..end], known, meter)
        } else {
            model.extend_tree(&tokens[first_new..end], known, first_new, meter)
        };
        for (layer, scratch) in kvs.iter_mut().enumerate() {
            piece =
                model.forward_layer_tree_partial(layer, &piece, known, first_new, scratch, meter);
        }
        hs.extend(piece);
        first_new = end;
    }
    (hs, kvs)
}

fn flops_by_kind(meter: &Meter) -> Vec<f64> {
    OpKind::ALL.iter().map(|&k| meter.kind(k).flops).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn every_tree_node_equals_the_sequential_decode_of_its_root_path(
        seed in 0u64..10_000,
        context in 0usize..40,
    ) {
        let cfg = config(seed % 2 == 1);
        let mut rng = Pcg::seed(seed ^ 0x7e);
        let prompt: Vec<TokenId> = (0..context).map(|_| rng.below(cfg.vocab_size) as TokenId).collect();
        let (tokens, parents) = random_tree(&mut rng, cfg.vocab_size);
        let cuts = random_cuts(&mut rng, tokens.len());
        let mut exact_dense: Vec<Vec<Vec<f32>>> = Vec::new();

        for (name, mut model) in variants(&cfg, seed) {
            let mut meter = Meter::new();
            if !prompt.is_empty() {
                model.prefill(&prompt, &mut meter);
            }
            let base = model.clone();

            // The one-shot sweep, against the sequential decode of every
            // node's root path (each node continues a clone of its
            // parent's decoded state).
            let mut sweep_meter = Meter::new();
            let (hs, kvs) = sweep(&mut model, &tokens, &parents, &mut sweep_meter);
            let mut decoded: Vec<Transformer> = Vec::new();
            for (i, &token) in tokens.iter().enumerate() {
                let mut seq = parents[i].map_or(&base, |p| &decoded[p]).clone();
                let pos = seq.kv_len();
                let mut h = seq.begin_token(token, &mut meter);
                for layer in 0..cfg.n_layers {
                    h = seq.forward_layer(layer, &h, pos, &mut meter);
                }
                prop_assert_eq!(&hs[i], &h, "{}: hidden of node {}", &name, i);
                for (layer, kv) in kvs.iter().enumerate() {
                    let cache = seq.cache(layer);
                    prop_assert_eq!(kv.key(i), cache.key(pos), "{}: key {} layer {}", &name, i, layer);
                    prop_assert_eq!(kv.value(i), cache.value(pos), "{}: value {} layer {}", &name, i, layer);
                }
                decoded.push(seq);
            }
            prop_assert_eq!(model.kv_len(), context, "{}: a sweep commits nothing", &name);

            // One partial call over the whole tree is the one-shot sweep,
            // `Meter` included; a chain of partial calls gives the same
            // hiddens and scratch rows and does the same arithmetic (its
            // byte and kernel counts differ by design: each call is
            // priced as one more read of the layer's weights).
            let mut whole_meter = Meter::new();
            let whole = sweep_in_pieces(&mut base.clone(), &tokens, &parents, &[], &mut whole_meter);
            prop_assert_eq!(&whole, &(hs.clone(), kvs.clone()), "{}: one partial call", &name);
            prop_assert_eq!(&whole_meter, &sweep_meter, "{}: one partial call, meter", &name);
            let mut pieces_meter = Meter::new();
            let pieces = sweep_in_pieces(&mut base.clone(), &tokens, &parents, &cuts, &mut pieces_meter);
            prop_assert_eq!(&pieces, &(hs.clone(), kvs), "{}: pieces cut at {:?}", &name, &cuts);
            prop_assert_eq!(flops_by_kind(&pieces_meter), flops_by_kind(&sweep_meter), "{}: pieces, flops", &name);

            // The batched LM head against the per-row one.
            let batch = model.final_logits_batch(&hs, &mut meter);
            for (i, h) in hs.iter().enumerate() {
                prop_assert_eq!(&batch[i], &model.final_logits(h, &mut meter), "{}: logits of node {}", &name, i);
            }
            prop_assert!(model.final_logits_batch(&[], &mut meter).is_empty());

            // Across backends: blocked is the oracle bit for bit on dense
            // weights (variants come reference-first).
            if name.ends_with("/reference") {
                exact_dense.push(hs);
            } else if name.ends_with("/blocked") && !name.starts_with("int8") {
                prop_assert_eq!(&hs, exact_dense.last().unwrap(), "{} vs reference", &name);
            }
        }
    }

    #[test]
    fn synthetic_tree_paths_ride_the_batched_transformer_unchanged(
        seed in 0u64..10_000,
        context in 1usize..40,
    ) {
        // The synthetic model steers each tree output with a draw from its
        // noise stream, so its hiddens have no sequential twin; what must
        // hold is that the K/V rows it hands back are the wrapped
        // transformer's for the same inputs, that a sweep is reproducible
        // from a clone, and that its LM head batches exactly.
        let cfg = ModelConfig { n_layers: 6, ..ModelConfig::tiny() };
        let mut model: SyntheticLm = SyntheticLmBuilder::new(cfg.clone(), DatasetProfile::qa())
            .seed(seed)
            .build();
        let mut rng = Pcg::seed(seed ^ 0x7e);
        let prompt: Vec<TokenId> = (0..context).map(|_| rng.below(cfg.vocab_size) as TokenId).collect();
        let (tokens, parents) = random_tree(&mut rng, cfg.vocab_size);
        let mut meter = Meter::new();
        model.prefill(&prompt, &mut meter);
        let mut twin = model.clone();
        let mut inner = model.inner().clone();

        let mut hs = model.begin_tree(&tokens, &parents, &mut meter);
        for layer in 0..cfg.n_layers {
            let (_, inner_kv) = inner.forward_layer_tree(layer, &hs, &parents, &mut meter);
            let (out, kv) = model.forward_layer_tree(layer, &hs, &parents, &mut meter);
            prop_assert_eq!(kv, inner_kv, "layer {}", layer);
            hs = out;
        }
        let (twin_hs, _) = sweep(&mut twin, &tokens, &parents, &mut meter);
        prop_assert_eq!(&hs, &twin_hs);

        let batch = model.final_logits_batch(&hs, &mut meter);
        for (i, h) in hs.iter().enumerate() {
            prop_assert_eq!(&batch[i], &model.final_logits(h, &mut meter), "logits of node {}", i);
        }
    }
}

/// Forwards every call to `M`, except that a one-row `final_logits_batch`
/// on a node state of the last `forward_layer_tree` is answered from ONE
/// batched head over that whole layer: verification as it ran before the
/// walk read rows on demand, every node's row out of one
/// `final_logits_batch` over the tree. An engine on it is the all-rows run
/// of the same engine on `M`.
#[derive(Clone)]
struct AllRows<M> {
    inner: M,
    /// The states the last `forward_layer_tree` returned and, once a walk
    /// read one of them, the head rows of them all.
    tree: Vec<Vec<f32>>,
    rows: Vec<Vec<f32>>,
    /// Rows the walks read, and rows the all-rows heads computed.
    read: usize,
    computed: usize,
}

impl<M: LayeredLm> LayeredLm for AllRows<M> {
    fn config(&self) -> &ModelConfig {
        self.inner.config()
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
    fn prefill(&mut self, prompt: &[TokenId], meter: &mut Meter) -> Vec<f32> {
        self.inner.prefill(prompt, meter)
    }
    fn begin_token(&mut self, token: TokenId, meter: &mut Meter) -> Vec<f32> {
        self.inner.begin_token(token, meter)
    }
    fn forward_layer(
        &mut self,
        layer: usize,
        h: &[f32],
        pos: usize,
        meter: &mut Meter,
    ) -> Vec<f32> {
        self.inner.forward_layer(layer, h, pos, meter)
    }
    fn begin_tree(
        &mut self,
        tokens: &[TokenId],
        parents: &[Option<usize>],
        meter: &mut Meter,
    ) -> Vec<Vec<f32>> {
        self.inner.begin_tree(tokens, parents, meter)
    }
    fn forward_layer_tree(
        &mut self,
        layer: usize,
        hs: &[Vec<f32>],
        parents: &[Option<usize>],
        meter: &mut Meter,
    ) -> (Vec<Vec<f32>>, TreeKv) {
        let (outs, kv) = self.inner.forward_layer_tree(layer, hs, parents, meter);
        self.tree = outs.clone();
        self.rows.clear();
        (outs, kv)
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
        first: usize,
        h: &[f32],
        pos: usize,
        policy: SkipKvPolicy,
        meter: &mut Meter,
    ) {
        self.inner.fill_skipped_kv(first, h, pos, policy, meter);
    }
    fn final_logits(&mut self, h: &[f32], meter: &mut Meter) -> Vec<f32> {
        self.inner.final_logits(h, meter)
    }
    fn final_logits_batch(&mut self, hs: &[Vec<f32>], meter: &mut Meter) -> Vec<Vec<f32>> {
        let node = match hs {
            [h] => self.tree.iter().position(|state| state == h),
            _ => None,
        };
        let Some(node) = node else {
            return self.inner.final_logits_batch(hs, meter);
        };
        if self.rows.is_empty() {
            self.rows = self.inner.final_logits_batch(&self.tree, &mut Meter::new());
            self.computed += self.rows.len();
        }
        self.read += 1;
        vec![self.rows[node].clone()]
    }
    fn slice_logits(&mut self, h: &[f32], tokens: &[TokenId], meter: &mut Meter) -> Vec<f32> {
        self.inner.slice_logits(h, tokens, meter)
    }
    fn grouped_slice_logits(
        &mut self,
        hs: &[&[f32]],
        sets: &[&[TokenId]],
        meter: &mut Meter,
    ) -> Vec<Vec<f32>> {
        self.inner.grouped_slice_logits(hs, sets, meter)
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

/// Runs `engine` ("eagle", "t3" or "selfdraft") on `model` and hands the
/// model back with the output.
fn tree_engine<M: LayeredLm + Clone, D: SpeculativeSource + Clone>(
    engine: &str,
    model: M,
    draft: &D,
    bank: &PredictorBank,
    prompt: &[TokenId],
    gen_len: usize,
) -> (GenOutput, M) {
    fn serve<M: LayeredLm + Clone, D: SpeculativeSource>(
        mut engine: SpeculativeEngine<M, D>,
        prompt: &[TokenId],
        gen_len: usize,
    ) -> (GenOutput, M) {
        let out = engine.generate(prompt, gen_len);
        (out, engine.model().clone())
    }
    let n_layers = model.config().n_layers;
    let config = SpecEeConfig {
        tree_shape: TreeShape::new(vec![3, 2]),
        ..SpecEeConfig::default()
    };
    match engine {
        "eagle" => serve(
            SpeculativeEngine::baseline(model, draft.clone(), config),
            prompt,
            gen_len,
        ),
        "t3" => {
            let schedule = ScheduleEngine::all_layers(n_layers);
            let t3 = SpeculativeEngine::with_early_exit(
                model,
                draft.clone(),
                bank.clone(),
                schedule,
                config,
            );
            serve(t3, prompt, gen_len)
        }
        _ => {
            let spec = SelfDraftSpec::new(n_layers - 1, TreeShape::new(vec![2, 2]));
            serve(
                SpeculativeEngine::baseline(model, SelfDraft::new(spec), SpecEeConfig::default()),
                prompt,
                gen_len,
            )
        }
    }
}

/// `engine` on a clone of `model` and on an [`AllRows`] twin of another:
/// both outputs, the rows the twin's walks read and the rows its all-rows
/// heads computed.
fn on_demand_and_all_rows<M: LayeredLm + Clone, D: SpeculativeSource + Clone>(
    engine: &str,
    model: &M,
    draft: &D,
    bank: &PredictorBank,
    prompt: &[TokenId],
    gen_len: usize,
) -> (GenOutput, GenOutput, usize, usize) {
    let (on_demand, _) = tree_engine(engine, model.clone(), draft, bank, prompt, gen_len);
    let twin = AllRows {
        inner: model.clone(),
        tree: Vec::new(),
        rows: Vec::new(),
        read: 0,
        computed: 0,
    };
    let (all_rows, twin) = tree_engine(engine, twin, draft, bank, prompt, gen_len);
    (on_demand, all_rows, twin.read, twin.computed)
}

/// T3, EAGLE and self-draft read the LM head only where the greedy walk
/// goes; on `Transformer` in every weight format × backend, and on the
/// synthetic model, their tokens, exit layers, `ce_sum`,
/// `verify_calls` and whole `Meter` are the all-rows run's, while the
/// walks read fewer rows than the tree has. Both runs price verification
/// through the same `verify_head`, so the `Meter` equality here cannot see
/// a pricing change; the pricing itself is pinned against a real
/// `final_logits_batch` by `specee-core`'s
/// `a_verification_is_priced_once_over_the_tree_whatever_rows_it_reads`.
#[test]
fn tree_engines_reading_rows_on_demand_equal_their_all_rows_runs() {
    let cfg = ModelConfig {
        n_layers: 6,
        ..ModelConfig::tiny()
    };
    let (mut read, mut computed, mut t3_exits) = (0, 0, 0);
    for seed in 0..6u64 {
        let mut rng = Pcg::seed(seed ^ 0x27);
        let prompt: Vec<TokenId> = (0..1 + rng.below(8))
            .map(|_| rng.below(cfg.vocab_size) as TokenId)
            .collect();
        let gen_len = 1 + rng.below(16);
        let mut bank = PredictorBank::new(
            cfg.n_layers,
            &PredictorConfig::default(),
            &mut Pcg::seed(seed),
        );
        // Low thresholds fire most nodes early, so the exit walk runs on
        // trees where some nodes have fired and some have not.
        bank.set_threshold([0.0, 0.3, 0.5][seed as usize % 3]);

        let models = variants(&cfg, seed);
        let draft = DraftModel::new(&cfg, &mut Pcg::seed(seed ^ 9));
        let synth = SyntheticLmBuilder::new(cfg.clone(), DatasetProfile::qa())
            .seed(seed)
            .build();
        let oracle = OracleDraft::new(*synth.language(), 0.9, &cfg, seed ^ 1);

        for engine in ["eagle", "t3", "selfdraft"] {
            let mut runs: Vec<(&str, _)> = models
                .iter()
                .map(|(name, model)| {
                    let runs =
                        on_demand_and_all_rows(engine, model, &draft, &bank, &prompt, gen_len);
                    (name.as_str(), runs)
                })
                .collect();
            let runs_synth =
                on_demand_and_all_rows(engine, &synth, &oracle, &bank, &prompt, gen_len);
            runs.push(("synthetic", runs_synth));
            for (name, (on_demand, all_rows, twin_read, twin_computed)) in runs {
                assert_eq!(on_demand, all_rows, "{engine} on {name}, seed {seed}");
                read += twin_read;
                computed += twin_computed;
                if engine == "t3" {
                    let exits = on_demand.exit_layers.iter().filter(|&&l| l < cfg.n_layers);
                    t3_exits += exits.count();
                }
            }
        }
    }
    // The twins answered the walks, which read well under every row, and
    // T3 exited on some of them.
    assert!(read > 0 && 2 * read < computed, "read {read} of {computed}");
    assert!(t3_exits > 0);
}
