//! The cross-sequence layer group against the per-member loop it must
//! reproduce, bit for bit.
//!
//! `LayeredLm::forward_layer_group` is what `BatchedEngine::step` calls
//! with the seats still in its layer sweep. On `Transformer` (and
//! `SyntheticLm`, which wraps one) members that read the same weights take
//! one pass over them:
//! q/k/v, `wo` and the dense FFN are one `matmul` each for the whole
//! group. The house contract is that batching can never change a token or
//! a priced second, so every hidden state, every K/V row of every layer
//! and the whole `Meter` must equal running the members one after the
//! other through `forward_layer` — on every backend and weight format,
//! ragged dimensions included, with members at different (and equal)
//! positions, leaving the group at different depths.
//!
//! The same holds for what an early exit costs once it is paid per weight
//! pass: `final_logits_group` (one LM-head pass for the seats whose
//! predictors fired at a layer) and `fill_skipped_kv_group` (one `wk` /
//! `wv` pass per skipped layer for the seats that left) against their
//! member-by-member defaults, and — at the engine tier — whole
//! `BatchedEngine` runs on `SyntheticLm` seats against the same runs on
//! seats that implement only `LayeredLm`'s required methods, so every
//! group default runs.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::sync::OnceLock;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use specee::batch::{Admission, BatchStep, BatchedEngine, BatchedOutput};
use specee::control::ControllerPolicy;
use specee::core::collect::{collect_training_data, train_bank};
use specee::core::predictor::{PredictorBank, PredictorConfig};
use specee::core::traffic::{Lane, TrafficClass};
use specee::core::{ScheduleEngine, SpecEeConfig};
use specee::metrics::Meter;
use specee::model::{LayeredLm, ModelConfig, SkipKvPolicy, TokenId, Transformer, TreeKv};
use specee::nn::TrainConfig;
use specee::obs::{Event, EventKind, Recorder};
use specee::synth::{DatasetProfile, OracleDraft, SyntheticLm, SyntheticLmBuilder};
use specee::tensor::{BackendKind, Pcg, QuantBits};

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

/// Context lengths for `n` members: random, but the second member repeats
/// the first one's position and the third starts from an empty cache.
fn context_lens(rng: &mut Pcg, n: usize) -> Vec<usize> {
    let mut lens: Vec<usize> = (0..n).map(|_| rng.below(12)).collect();
    if n > 1 {
        lens[1] = lens[0];
    }
    if n > 2 {
        lens[2] = 0;
    }
    lens
}

fn random_tokens(rng: &mut Pcg, n: usize, vocab: usize) -> Vec<TokenId> {
    (0..n).map(|_| rng.below(vocab) as TokenId).collect()
}

/// `template` cloned once per entry of `lens`, each clone prefilled with
/// its own random prompt of that length.
fn members_at<M: LayeredLm + Clone>(template: &M, lens: &[usize], rng: &mut Pcg) -> Vec<M> {
    let vocab = template.config().vocab_size;
    lens.iter()
        .map(|&len| {
            let mut m = template.clone();
            if len > 0 {
                m.prefill(&random_tokens(rng, len, vocab), &mut Meter::new());
            }
            m
        })
        .collect()
}

/// How one decoded token walks the layers: the way `BatchedEngine::step`
/// drives its seats, with early exits scripted by `depths`.
#[derive(Clone, Copy)]
enum Sweep {
    /// One `forward_layer_group` call per layer over the members still
    /// running; after the last layer one `fill_skipped_kv_group` call for
    /// the members that left and one `final_logits_group` call for all.
    Grouped,
    /// `forward_layer`, `fill_skipped_kv` (the moment a member leaves) and
    /// `final_logits`, member by member — the reference.
    PerMember,
}

/// `members[i]` for every `i` in `which` (ascending), mutably.
fn pick<'a, M>(members: &'a mut [M], which: &[usize]) -> Vec<&'a mut M> {
    let picked = members.iter_mut().enumerate();
    picked
        .filter(|(i, _)| which.contains(i))
        .map(|(_, m)| m)
        .collect()
}

/// The hidden states and positions of the members `which` lists.
fn rows<'a>(
    which: &[usize],
    hidden: &'a [Vec<f32>],
    positions: &[usize],
) -> (Vec<&'a [f32]>, Vec<usize>) {
    let hs = which.iter().map(|&i| hidden[i].as_slice()).collect();
    (hs, which.iter().map(|&i| positions[i]).collect())
}

/// Decodes `tokens[i]` on member `i`: every layer runs the members whose
/// `depths[i]` it has not reached, a member leaving early fills its
/// skipped layers' K/V under `policy`, and every member's last hidden
/// state goes through the full head. Returns those states and logits.
fn decode_token<M: LayeredLm>(
    members: &mut [M],
    tokens: &[TokenId],
    depths: &[usize],
    policy: SkipKvPolicy,
    sweep: Sweep,
    meter: &mut Meter,
) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
    let n_layers = members[0].config().n_layers;
    let positions: Vec<usize> = members.iter().map(|m| m.kv_len()).collect();
    let mut hidden: Vec<Vec<f32>> = members
        .iter_mut()
        .zip(tokens)
        .map(|(m, &t)| m.begin_token(t, meter))
        .collect();
    for layer in 0..n_layers {
        let running: Vec<usize> = (0..members.len()).filter(|&i| depths[i] > layer).collect();
        let outs = match sweep {
            Sweep::Grouped => {
                let (hs, at) = rows(&running, &hidden, &positions);
                M::forward_layer_group(&mut pick(members, &running), layer, &hs, &at, meter)
            }
            Sweep::PerMember => running
                .iter()
                .map(|&i| members[i].forward_layer(layer, &hidden[i], positions[i], meter))
                .collect(),
        };
        for (&i, out) in running.iter().zip(outs) {
            hidden[i] = out;
            if matches!(sweep, Sweep::PerMember) && depths[i] == layer + 1 {
                members[i].fill_skipped_kv(layer + 1, &hidden[i], positions[i], policy, meter);
            }
        }
    }
    let logits = match sweep {
        Sweep::Grouped => {
            let left: Vec<usize> = (0..members.len())
                .filter(|&i| depths[i] < n_layers)
                .collect();
            let from: Vec<usize> = left.iter().map(|&i| depths[i]).collect();
            let (hs, at) = rows(&left, &hidden, &positions);
            M::fill_skipped_kv_group(&mut pick(members, &left), &from, &hs, &at, policy, meter);
            let hs: Vec<&[f32]> = hidden.iter().map(Vec::as_slice).collect();
            let mut all: Vec<&mut M> = members.iter_mut().collect();
            M::final_logits_group(&mut all, &hs, meter)
        }
        Sweep::PerMember => members
            .iter_mut()
            .zip(&hidden)
            .map(|(m, h)| m.final_logits(h, meter))
            .collect(),
    };
    (hidden, logits)
}

/// What the wrapped seats of one run were asked for, between them.
#[derive(Debug, Default)]
struct Calls {
    /// `final_logits` calls.
    heads: Cell<usize>,
    /// `fill_layer_kv` calls.
    fills: Cell<usize>,
    /// `final_logits_group` calls with somebody in them, and the most
    /// members one had.
    head_groups: Cell<usize>,
    widest_head_group: Cell<usize>,
    /// The same for `fill_skipped_kv_group`.
    fill_groups: Cell<usize>,
    widest_fill_group: Cell<usize>,
}

impl Calls {
    fn bump(counter: &Cell<usize>) {
        counter.set(counter.get() + 1);
    }

    fn group(groups: &Cell<usize>, widest: &Cell<usize>, members: usize) {
        if members > 0 {
            Self::bump(groups);
            widest.set(widest.get().max(members));
        }
    }
}

/// A seat type forwarding `LayeredLm`'s required methods to `inner`,
/// counting heads and fills into `calls`, plus the defaulted methods given.
macro_rules! seat_wrapper {
    ($(#[$doc:meta])* $name:ident { $($defaulted:item)* }) => {
        $(#[$doc])*
        #[derive(Clone)]
        struct $name<M> {
            inner: M,
            calls: Rc<Calls>,
        }

        impl<M> $name<M> {
            fn counted(inner: M, calls: &Rc<Calls>) -> Self {
                $name { inner, calls: Rc::clone(calls) }
            }
        }

        impl<M: LayeredLm> LayeredLm for $name<M> {
            fn config(&self) -> &ModelConfig {
                self.inner.config()
            }
            fn reset(&mut self) {
                self.inner.reset();
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
                Calls::bump(&self.calls.fills);
                self.inner.fill_layer_kv(layer, h, pos, policy, meter);
            }
            fn final_logits(&mut self, h: &[f32], meter: &mut Meter) -> Vec<f32> {
                Calls::bump(&self.calls.heads);
                self.inner.final_logits(h, meter)
            }
            fn slice_logits(
                &mut self,
                h: &[f32],
                tokens: &[TokenId],
                meter: &mut Meter,
            ) -> Vec<f32> {
                self.inner.slice_logits(h, tokens, meter)
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
            $($defaulted)*
        }
    };
}

seat_wrapper! {
    /// Implements only what `LayeredLm` requires, so every defaulted method
    /// — the three group calls, `prefill`, `adopt_prefix` — is the trait's
    /// own member-by-member body: the reference the overrides must equal.
    MemberWise {}
}

seat_wrapper! {
    /// Passes every group call on to `M`'s own, and counts them.
    GroupWise {
        fn forward_layer_group(
            group: &mut [&mut Self],
            layer: usize,
            hs: &[&[f32]],
            positions: &[usize],
            meter: &mut Meter,
        ) -> Vec<Vec<f32>> {
            let mut inners: Vec<&mut M> = group.iter_mut().map(|m| &mut m.inner).collect();
            M::forward_layer_group(&mut inners, layer, hs, positions, meter)
        }
        fn prefill(&mut self, prompt: &[TokenId], meter: &mut Meter) -> Vec<f32> {
            self.inner.prefill(prompt, meter)
        }
        fn adopt_prefix(&mut self, donor: &Self, tokens: &[TokenId]) -> bool {
            self.inner.adopt_prefix(&donor.inner, tokens)
        }
        fn fill_skipped_kv_group(
            group: &mut [&mut Self],
            first_skipped: &[usize],
            hs: &[&[f32]],
            positions: &[usize],
            policy: SkipKvPolicy,
            meter: &mut Meter,
        ) {
            if let Some(lead) = group.first() {
                let calls = &lead.calls;
                Calls::group(&calls.fill_groups, &calls.widest_fill_group, group.len());
            }
            let mut inners: Vec<&mut M> = group.iter_mut().map(|m| &mut m.inner).collect();
            M::fill_skipped_kv_group(&mut inners, first_skipped, hs, positions, policy, meter);
        }
        fn final_logits_group(
            group: &mut [&mut Self],
            hs: &[&[f32]],
            meter: &mut Meter,
        ) -> Vec<Vec<f32>> {
            if let Some(lead) = group.first() {
                let calls = &lead.calls;
                Calls::group(&calls.head_groups, &calls.widest_head_group, group.len());
            }
            let mut inners: Vec<&mut M> = group.iter_mut().map(|m| &mut m.inner).collect();
            M::final_logits_group(&mut inners, hs, meter)
        }
    }
}

const POLICIES: [SkipKvPolicy; 3] = [
    SkipKvPolicy::ProjectExitHidden,
    SkipKvPolicy::ReuseLast,
    SkipKvPolicy::ZeroFill,
];

/// Asserts two sets of transformers hold the same K/V, row for row.
fn assert_same_kv(
    group: &[Transformer],
    twins: &[Transformer],
    name: &str,
) -> Result<(), TestCaseError> {
    for (i, (g, t)) in group.iter().zip(twins).enumerate() {
        for layer in 0..g.config().n_layers {
            prop_assert_eq!(
                g.cache(layer),
                t.cache(layer),
                "{}: member {} layer {}",
                name,
                i,
                layer
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn a_group_equals_its_members_run_one_after_the_other(
        seed in 0u64..10_000,
        n in 1usize..9,
    ) {
        let cfg = config(seed % 2 == 1);
        let mut rng = Pcg::seed(seed ^ 0x6e);
        let lens = context_lens(&mut rng, n);
        let steps = 3;
        let tokens: Vec<Vec<TokenId>> =
            (0..steps).map(|_| random_tokens(&mut rng, n, cfg.vocab_size)).collect();
        // Every member leaves each token at its own depth, one of them at
        // the last layer.
        let depths: Vec<Vec<usize>> = (0..steps)
            .map(|_| {
                let mut d: Vec<usize> = (0..n).map(|_| 1 + rng.below(cfg.n_layers)).collect();
                d[rng.below(n)] = cfg.n_layers;
                d
            })
            .collect();

        for (v, (name, template)) in variants(&cfg, seed).into_iter().enumerate() {
            // Every policy on every variant, three seeds between them.
            let policy = POLICIES[(v + seed as usize) % POLICIES.len()];
            let name = format!("{name}/{policy:?}");
            let mut group = members_at(&template, &lens, &mut Pcg::seed(seed ^ 0x11));
            let mut twins = group.clone();
            // The trait's own defaults, on seats that override nothing.
            let mut defaults: Vec<MemberWise<Transformer>> =
                group
                .iter()
                .map(|m| MemberWise::counted(m.clone(), &Rc::default()))
                .collect();
            let (mut group_meter, mut twin_meter, mut default_meter) =
                (Meter::new(), Meter::new(), Meter::new());
            for (toks, depths) in tokens.iter().zip(&depths) {
                let got = decode_token(&mut group, toks, depths, policy, Sweep::Grouped, &mut group_meter);
                let want = decode_token(&mut twins, toks, depths, policy, Sweep::PerMember, &mut twin_meter);
                prop_assert_eq!(&got, &want, "{}: hidden states and logits", &name);
                let by_default =
                    decode_token(&mut defaults, toks, depths, policy, Sweep::Grouped, &mut default_meter);
                prop_assert_eq!(&by_default, &want, "{}: the defaults", &name);
            }
            assert_same_kv(&group, &twins, &name)?;
            let defaults: Vec<Transformer> = defaults.into_iter().map(|m| m.inner).collect();
            assert_same_kv(&defaults, &twins, &name)?;
            prop_assert_eq!(&group_meter, &twin_meter, "{}: meter", &name);
            prop_assert_eq!(&default_meter, &twin_meter, "{}: meter of the defaults", &name);
        }
    }

    #[test]
    fn groups_that_cannot_share_a_weight_pass_take_the_per_member_loop(
        seed in 0u64..10_000,
    ) {
        let cfg = config(seed % 2 == 1);
        let mut rng = Pcg::seed(seed ^ 0x6f);
        let lens = context_lens(&mut rng, 4);
        let template = Transformer::random(cfg.clone(), &mut Pcg::seed(seed));
        let toks = random_tokens(&mut rng, 4, cfg.vocab_size);
        let fresh = || members_at(&template, &lens, &mut Pcg::seed(seed ^ 0x11));

        // A member quantized after cloning no longer shares the weights.
        let mut detached = fresh();
        detached[2].quantize(QuantBits::Int8);
        prop_assert!(!detached[2].shares_weights_with(&detached[0]));
        // Members on different backends.
        let mut mixed = fresh();
        for (m, backend) in mixed.iter_mut().zip(BackendKind::ALL) {
            m.set_backend(backend);
        }
        // A member with the calibration tap armed: the group's first, or
        // a later one.
        let (mut lead_tapped, mut tapped) = (fresh(), fresh());
        lead_tapped[0].start_calibration_tap();
        tapped[1].start_calibration_tap();
        // Seats built one by one from the same seed: equal weights, four
        // allocations.
        let apart: Vec<Transformer> = lens
            .iter()
            .map(|&len| {
                let built = Transformer::random(cfg.clone(), &mut Pcg::seed(seed));
                members_at(&built, &[len], &mut Pcg::seed(seed ^ 0x12)).remove(0)
            })
            .collect();
        prop_assert!(!apart[1].shares_weights_with(&apart[0]));

        let cases = [
            ("detached", detached, None),
            ("backends", mixed, None),
            ("lead tap", lead_tapped, Some(0)),
            ("tap", tapped, Some(1)),
            ("built apart", apart, None),
        ];
        // Leaving at every depth there is, so the fill has work to do.
        let depths: Vec<usize> = (0..4).map(|i| cfg.n_layers - i % cfg.n_layers).collect();
        let policy = SkipKvPolicy::ProjectExitHidden;
        for (name, mut group, armed) in cases {
            let mut twins = group.clone();
            let (mut group_meter, mut twin_meter) = (Meter::new(), Meter::new());
            let got = decode_token(&mut group, &toks, &depths, policy, Sweep::Grouped, &mut group_meter);
            let want = decode_token(&mut twins, &toks, &depths, policy, Sweep::PerMember, &mut twin_meter);
            prop_assert_eq!(&got, &want, "{}: hidden states and logits", name);
            assert_same_kv(&group, &twins, name)?;
            prop_assert_eq!(&group_meter, &twin_meter, "{}: meter", name);
            for (i, (g, t)) in group.iter_mut().zip(&mut twins).enumerate() {
                let tap = g.take_calibration_tap();
                prop_assert_eq!(tap.is_some(), armed == Some(i), "{}: member {}", name, i);
                if let Some(tap) = &tap {
                    // One row per layer it ran, one for the head: the
                    // armed member's alone.
                    let ran = |layer: usize| usize::from(layer < depths[i]);
                    prop_assert!((0..cfg.n_layers)
                        .all(|l| tap.attn_in[l].len() == ran(l) && tap.ffn_in[l].len() == ran(l)));
                    prop_assert_eq!(tap.head_in.len(), 1);
                }
                prop_assert_eq!(tap, t.take_calibration_tap(), "{}: tap of member {}", name, i);
            }
        }

        // Nobody running is not an error (a sweep past every exit, a
        // layer nobody fired at, a step nobody left).
        let mut meter = Meter::new();
        prop_assert!(Transformer::forward_layer_group(&mut [], 0, &[], &[], &mut meter).is_empty());
        prop_assert!(Transformer::final_logits_group(&mut [], &[], &mut meter).is_empty());
        Transformer::fill_skipped_kv_group(&mut [], &[], &[], &[], policy, &mut meter);
        prop_assert_eq!(meter, Meter::new());
    }

    #[test]
    fn synthetic_members_steer_from_their_own_streams(
        seed in 0u64..10_000,
        n in 1usize..9,
    ) {
        let cfg = ModelConfig { n_layers: 6, ..ModelConfig::tiny() };
        let template: SyntheticLm = SyntheticLmBuilder::new(cfg.clone(), DatasetProfile::qa())
            .seed(seed)
            .build();
        let mut rng = Pcg::seed(seed ^ 0x70);
        let mut lens = context_lens(&mut rng, n);
        // A script needs a context: the synthetic model decodes after a
        // prompt, never from nothing.
        lens.iter_mut().for_each(|len| *len += 1);
        let mut group = members_at(&template, &lens, &mut Pcg::seed(seed ^ 0x11));
        let mut twins = group.clone();
        let (mut group_meter, mut twin_meter) = (Meter::new(), Meter::new());
        // Three tokens through the group, then eight more member by
        // member on both sides: whatever the group left behind (K/V,
        // scripts, noise and saturation streams) decodes on identically.
        for step in 0..11 {
            let toks = random_tokens(&mut rng, n, cfg.vocab_size);
            let mut depths: Vec<usize> = (0..n).map(|_| 1 + rng.below(cfg.n_layers)).collect();
            depths[rng.below(n)] = cfg.n_layers;
            let sweep = if step < 3 { Sweep::Grouped } else { Sweep::PerMember };
            let policy = POLICIES[step % POLICIES.len()];
            let got = decode_token(&mut group, &toks, &depths, policy, sweep, &mut group_meter);
            let want = decode_token(&mut twins, &toks, &depths, policy, Sweep::PerMember, &mut twin_meter);
            prop_assert_eq!(&got, &want, "hidden states and logits at step {}", step);
        }
        for (i, (g, t)) in group.iter().zip(&twins).enumerate() {
            prop_assert_eq!(g.scripts(), t.scripts(), "scripts of member {}", i);
            prop_assert_eq!(g.context(), t.context(), "context of member {}", i);
            for layer in 0..cfg.n_layers {
                prop_assert_eq!(g.inner().cache(layer), t.inner().cache(layer), "member {} layer {}", i, layer);
            }
        }
        prop_assert_eq!(&group_meter, &twin_meter);
    }
}

/// A 12-layer model with a bank trained on it: what the engine-tier runs
/// share (training is the slow part; clones of `template` share weights).
struct Bed {
    cfg: ModelConfig,
    template: SyntheticLm,
    bank: PredictorBank,
    schedule: ScheduleEngine,
    config: SpecEeConfig,
}

fn bed() -> &'static Bed {
    static BED: OnceLock<Bed> = OnceLock::new();
    BED.get_or_init(|| {
        let cfg = ModelConfig {
            n_layers: 12,
            vocab_size: 512,
            ..ModelConfig::tiny()
        };
        let template = SyntheticLmBuilder::new(cfg.clone(), DatasetProfile::qa())
            .seed(61)
            .build();
        let mut lm = template.clone();
        let mut draft = OracleDraft::new(*lm.language(), 0.9, &cfg, 61);
        let prompts: Vec<(Vec<TokenId>, usize)> = (0..12)
            .map(|i| (vec![2 + i, 7 + (i % 5), 1 + i], 12usize))
            .collect();
        let data = collect_training_data(&mut lm, &mut draft, &prompts, 4);
        let pcfg = PredictorConfig {
            hidden_dim: 32,
            ..PredictorConfig::default()
        };
        let mut bank = PredictorBank::new(12, &pcfg, &mut Pcg::seed(2));
        let train = TrainConfig {
            epochs: 20,
            lr: 3e-3,
            ..Default::default()
        };
        train_bank(&mut bank, &data.samples, 1.0, &train, 3);
        let config = SpecEeConfig {
            predictor: pcfg,
            ..SpecEeConfig::default()
        };
        let schedule = config.build_schedule(12, Some(&data.exit_frequencies));
        Bed {
            cfg,
            template,
            bank,
            schedule,
            config,
        }
    })
}

const PAGE: usize = 16;

/// How one engine-tier run is set up.
#[derive(Clone, Copy)]
struct Scenario {
    /// Seats.
    cap: usize,
    /// Page cap, with preemption on; `None` leaves the pool unbounded.
    pages: Option<usize>,
    backend: BackendKind,
}

struct Request {
    id: u64,
    class: TrafficClass,
    lane: Lane,
    prompt: Vec<TokenId>,
    gen_len: usize,
}

/// Fourteen requests in two traffic classes and two lanes; each prompt is
/// one of two page-long prefixes and a tail of its own.
fn requests(seed: u64) -> VecDeque<Request> {
    let mut rng = Pcg::seed(seed);
    let prefixes: Vec<Vec<TokenId>> = (0..2).map(|_| random_tokens(&mut rng, PAGE, 512)).collect();
    (0..14u64)
        .map(|id| {
            let mut prompt = prefixes[(id / 2 % 2) as usize].clone();
            let tail = 1 + rng.below(4);
            prompt.extend(random_tokens(&mut rng, tail, 512));
            Request {
                id,
                class: TrafficClass::new((id % 2) as u16),
                lane: Lane::new((id % 3 % 2) as u8),
                prompt,
                gen_len: 5 + rng.below(8),
            }
        })
        .collect()
}

/// Everything a run leaves behind that a caller can see.
#[derive(Debug, PartialEq)]
struct Outcome {
    outputs: Vec<BatchedOutput>,
    steps: Vec<BatchStep>,
    meter: Meter,
    events: Vec<Event>,
    preemptions: u64,
}

/// Serves `requests(seed)` on seats made by `seat` from clones of the
/// bed's template: admit whatever fits (lower lanes may evict), step,
/// repeat. Also returns the slot each id was first seated in and how many
/// prompt tokens admission copied instead of prefilling.
fn serve<M: LayeredLm>(
    scenario: Scenario,
    seed: u64,
    seat: impl Fn(SyntheticLm) -> M,
) -> (Outcome, HashMap<u64, usize>, u64) {
    let bed = bed();
    let mut engine: BatchedEngine<M, OracleDraft> = BatchedEngine::new(
        scenario.cap,
        PAGE,
        bed.cfg.n_layers,
        bed.bank.clone(),
        bed.schedule.clone(),
        bed.config.clone(),
    );
    engine.set_controller(ControllerPolicy::pid().build_classed(bed.bank.len(), 0.5));
    engine.enable_prefix_share(true);
    engine.set_page_capacity(scenario.pages);
    engine.set_preemption_enabled(scenario.pages.is_some());
    engine.set_recorder(Some(Recorder::for_worker(0)));
    let mut template = bed.template.clone();
    template.set_backend(scenario.backend);

    let mut queue = requests(seed);
    let (mut steps, mut outputs, mut seated_in) = (Vec::new(), Vec::new(), HashMap::new());
    while !queue.is_empty() || engine.occupancy() > 0 || engine.parked() > 0 {
        while let Some(req) = queue.front() {
            if !(engine.has_free_slot() && engine.make_room(&req.prompt, req.lane)) {
                break;
            }
            let req = queue.pop_front().expect("peeked");
            let draft = OracleDraft::new(*template.language(), 0.9, &bed.cfg, req.id);
            let model = seat(template.clone());
            match engine.admit_laned(
                req.id,
                req.class,
                req.lane,
                model,
                draft,
                &req.prompt,
                req.gen_len,
            ) {
                Admission::Seated { slot } => seated_in.insert(req.id, slot),
                Admission::Done(_) => panic!("every request decodes"),
            };
        }
        assert!(steps.len() < 1_000, "the run makes progress");
        let clock = steps.len() as f64;
        engine.recorder_mut().expect("attached").set_clock(clock);
        let step = engine.step();
        outputs.extend(step.finished.iter().cloned());
        steps.push(step);
    }
    outputs.sort_by_key(|o| o.id);
    let outcome = Outcome {
        outputs,
        steps,
        meter: engine.meter().clone(),
        events: engine.take_recorder().expect("attached").into_events(),
        preemptions: engine.preemptions(),
    };
    (outcome, seated_in, engine.prefix_tokens_reused())
}

/// The engine-tier differential: `BatchedEngine::step` scores, heads,
/// settles and fills through the group calls, so the same traffic on
/// `SyntheticLm` seats (every override), on seats that pass the group
/// calls through and count them, and on seats with nothing but the
/// trait's member-by-member defaults must be one run — tokens, exit
/// layers, `ce_sum`, every `BatchStep`, the `Meter`, the event stream.
#[test]
fn an_engine_on_grouped_seats_equals_one_on_member_wise_seats() {
    let scenarios = [
        (1, None, BackendKind::Reference),
        (4, None, BackendKind::Blocked),
        (4, Some(5), BackendKind::Blocked),
        (8, None, BackendKind::Reference),
        (8, Some(8), BackendKind::Blocked),
    ];
    for (i, (cap, pages, backend)) in scenarios.into_iter().enumerate() {
        let scenario = Scenario {
            cap,
            pages,
            backend,
        };
        let seed = 0xb22 + i as u64;
        let name = format!("cap {cap}, pages {pages:?}, {backend}");
        let (plain, seated_in, reused) = serve(scenario, seed, |lm| lm);
        let grouped_calls = Rc::new(Calls::default());
        let (grouped, _, grouped_reused) =
            serve(scenario, seed, |lm| GroupWise::counted(lm, &grouped_calls));
        let member_calls = Rc::new(Calls::default());
        let (member_wise, _, member_reused) =
            serve(scenario, seed, |lm| MemberWise::counted(lm, &member_calls));

        assert_eq!(plain.outputs, member_wise.outputs, "{name}: outputs");
        for (a, b) in plain.outputs.iter().zip(&member_wise.outputs) {
            assert_eq!(
                a.ce_sum.to_bits(),
                b.ce_sum.to_bits(),
                "{name}: ce_sum of {}",
                a.id
            );
        }
        for (n, (a, b)) in plain.steps.iter().zip(&member_wise.steps).enumerate() {
            assert_eq!(a, b, "{name}: step {n}");
        }
        assert_eq!(plain, member_wise, "{name}");
        assert_eq!(plain, grouped, "{name}: counted seats");

        // The run is worth comparing: exits, both classes, and (where
        // asked for) page pressure and prefix reuse really happened.
        let n_layers = bed().cfg.n_layers;
        let admitted = plain.outputs.len();
        assert_eq!(admitted, 14, "{name}");
        let heads: u64 = plain.steps.iter().map(|s| s.lm_head_evals).sum();
        let skipped: usize = (plain.outputs.iter().flat_map(|o| &o.exit_layers))
            .map(|&executed| n_layers - executed)
            .sum();
        assert!(skipped > 0, "{name}: nobody left early");
        assert!(
            plain
                .steps
                .iter()
                .any(|s| s.feedback.iter().any(|f| !f.accepted)),
            "{name}"
        );
        assert_eq!(
            plain.preemptions > 0,
            pages.is_some(),
            "{name}: preemptions"
        );
        // (A donor must be resident: one seat has nobody to copy from.)
        assert_eq!(reused > 0, cap > 1, "{name}: prefix reuse");
        assert_eq!(grouped_reused, reused, "{name}: counted seats' reuse");
        assert_eq!(member_reused, 0, "{name}: the default never adopts");

        // Who did the work. Seats that pass group calls on saw nothing
        // else after admission's one head each; seats without them saw
        // every head and every skipped layer one by one.
        let calls = |c: &Calls| (c.heads.get(), c.fills.get());
        assert_eq!(calls(&grouped_calls), (admitted, 0), "{name}");
        assert_eq!(
            calls(&member_calls),
            (admitted + heads as usize, skipped),
            "{name}"
        );
        assert!(grouped_calls.head_groups.get() > 0 && grouped_calls.fill_groups.get() > 0);
        assert_eq!(
            member_calls.head_groups.get() + member_calls.fill_groups.get(),
            0
        );
        let widest = (
            grouped_calls.widest_head_group.get(),
            grouped_calls.widest_fill_group.get(),
        );
        if cap == 1 {
            assert_eq!(widest, (1, 1), "{name}");
        } else {
            assert!(
                widest.0 > 1 && widest.1 > 1,
                "{name}: groups of one only, {widest:?}"
            );
        }

        // Exit decisions of one step come layer by layer and, within a
        // layer, in slot order — the order seats settle in. (A resumed
        // seat may have moved, so only runs that never preempt tell.)
        if pages.is_none() {
            let mut last: Option<(f64, u32, usize)> = None;
            for event in &plain.events {
                let EventKind::ExitDecision { layer, .. } = event.kind else {
                    continue;
                };
                let slot = seated_in[&event.seq.expect("an exit decision has a sequence")];
                let at = (event.t, layer, slot);
                assert!(
                    last.is_none_or(|before| before < at),
                    "{name}: {last:?} then {at:?}"
                );
                last = Some(at);
            }
            assert!(last.is_some(), "{name}: no exit decision traced");
        }
    }
}
