//! The cross-sequence layer group against the per-member loop it must
//! reproduce, bit for bit.
//!
//! `LayeredLm::forward_layer_group` is what `BatchedStack::sweep_layer`
//! calls with its active seats. On `Transformer` (and `SyntheticLm`, which
//! wraps one) members that read the same weights take one pass over them:
//! q/k/v, `wo` and the dense FFN are one `matmul` each for the whole
//! group. The house contract is that batching can never change a token or
//! a priced second, so every hidden state, every K/V row of every layer
//! and the whole `Meter` must equal running the members one after the
//! other through `forward_layer` — on every backend and weight format,
//! ragged dimensions included, with members at different (and equal)
//! positions, leaving the group at different depths.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use specee::metrics::Meter;
use specee::model::{LayeredLm, ModelConfig, SkipKvPolicy, TokenId, Transformer};
use specee::synth::{DatasetProfile, SyntheticLm, SyntheticLmBuilder};
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
/// drives `sweep_layer`, with early exits scripted by `depths`.
#[derive(Clone, Copy)]
enum Sweep {
    /// One `forward_layer_group` call per layer over the members still
    /// running.
    Grouped,
    /// `forward_layer` member by member — the reference.
    PerMember,
}

/// Decodes `tokens[i]` on member `i`: every layer runs the members whose
/// `depths[i]` it has not reached, and a member leaving early fills its
/// skipped layers' K/V. Returns each member's last hidden state.
fn decode_token<M: LayeredLm>(
    members: &mut [M],
    tokens: &[TokenId],
    depths: &[usize],
    sweep: Sweep,
    meter: &mut Meter,
) -> Vec<Vec<f32>> {
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
                let mut group: Vec<&mut M> = members
                    .iter_mut()
                    .enumerate()
                    .filter(|(i, _)| running.contains(i))
                    .map(|(_, m)| m)
                    .collect();
                let hs: Vec<&[f32]> = running.iter().map(|&i| hidden[i].as_slice()).collect();
                let at: Vec<usize> = running.iter().map(|&i| positions[i]).collect();
                M::forward_layer_group(&mut group, layer, &hs, &at, meter)
            }
            Sweep::PerMember => running
                .iter()
                .map(|&i| members[i].forward_layer(layer, &hidden[i], positions[i], meter))
                .collect(),
        };
        for (&i, out) in running.iter().zip(outs) {
            hidden[i] = out;
            if depths[i] == layer + 1 {
                let policy = SkipKvPolicy::ProjectExitHidden;
                members[i].fill_skipped_kv(layer + 1, &hidden[i], positions[i], policy, meter);
            }
        }
    }
    hidden
}

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

        for (name, template) in variants(&cfg, seed) {
            let mut group = members_at(&template, &lens, &mut Pcg::seed(seed ^ 0x11));
            let mut twins = group.clone();
            let (mut group_meter, mut twin_meter) = (Meter::new(), Meter::new());
            for (toks, depths) in tokens.iter().zip(&depths) {
                let hs = decode_token(&mut group, toks, depths, Sweep::Grouped, &mut group_meter);
                let want = decode_token(&mut twins, toks, depths, Sweep::PerMember, &mut twin_meter);
                prop_assert_eq!(&hs, &want, "{}: hidden states", &name);
            }
            assert_same_kv(&group, &twins, &name)?;
            prop_assert_eq!(&group_meter, &twin_meter, "{}: meter", &name);
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
        let full = vec![cfg.n_layers; 4];
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

        let cases = [
            ("detached", detached, None),
            ("backends", mixed, None),
            ("lead tap", lead_tapped, Some(0)),
            ("tap", tapped, Some(1)),
        ];
        for (name, mut group, armed) in cases {
            let mut twins = group.clone();
            let (mut group_meter, mut twin_meter) = (Meter::new(), Meter::new());
            let hs = decode_token(&mut group, &toks, &full, Sweep::Grouped, &mut group_meter);
            let want = decode_token(&mut twins, &toks, &full, Sweep::PerMember, &mut twin_meter);
            prop_assert_eq!(&hs, &want, "{}: hidden states", name);
            assert_same_kv(&group, &twins, name)?;
            prop_assert_eq!(&group_meter, &twin_meter, "{}: meter", name);
            for (i, (g, t)) in group.iter_mut().zip(&mut twins).enumerate() {
                let tap = g.take_calibration_tap();
                prop_assert_eq!(tap.is_some(), armed == Some(i), "{}: member {}", name, i);
                if let Some(tap) = &tap {
                    // One row per layer: the armed member's alone.
                    prop_assert!(tap.attn_in.iter().chain(&tap.ffn_in).all(|site| site.len() == 1));
                }
                prop_assert_eq!(tap, t.take_calibration_tap(), "{}: tap of member {}", name, i);
            }
        }

        // Nobody running is not an error (a sweep past every exit).
        let mut meter = Meter::new();
        prop_assert!(Transformer::forward_layer_group(&mut [], 0, &[], &[], &mut meter).is_empty());
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
            let hs = decode_token(&mut group, &toks, &depths, sweep, &mut group_meter);
            let want = decode_token(&mut twins, &toks, &depths, Sweep::PerMember, &mut twin_meter);
            prop_assert_eq!(&hs, &want, "hidden states at step {}", step);
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
