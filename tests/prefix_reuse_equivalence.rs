//! `LayeredLm::adopt_prefix` followed by `prefill` of the rest against
//! `prefill` of the whole prompt, bit for bit.
//!
//! With prefix sharing on, `BatchedEngine::admit_laned` copies the prompt
//! K/V a resident sequence already holds and prefills only what is left.
//! The house contract is that a memory-plane decision can never change a
//! token, so at every split point the adopter must end up exactly where
//! the prefill would have left it: the returned hidden state, every K/V
//! row of every layer and, on `SyntheticLm`, the context, the scripts and
//! both per-sequence random streams — which the decode steps that follow
//! expose layer by layer. Whenever the models cannot show that the copy
//! equals the computation, `adopt_prefix` must refuse and change nothing.

use std::fmt::Debug;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use specee::metrics::Meter;
use specee::model::{KvLayout, LayeredLm, ModelConfig, SkipKvPolicy, TokenId, Transformer};
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

/// One set of weights in every format × backend × KV layout.
fn variants(cfg: &ModelConfig, seed: u64) -> Vec<(String, Transformer)> {
    let dense = Transformer::random(cfg.clone(), &mut Pcg::seed(seed));
    let mut int8 = dense.clone();
    int8.quantize(QuantBits::Int8);
    let mut out = Vec::new();
    for (weights, model) in [("dense", dense), ("int8", int8)] {
        for backend in BackendKind::ALL {
            for layout in [KvLayout::Contiguous, KvLayout::Paged { page_size: 4 }] {
                let mut model = model.clone();
                model.set_backend(backend);
                model.set_kv_layout(layout);
                out.push((format!("{weights}/{backend}/{layout:?}"), model));
            }
        }
    }
    out
}

fn synthetic(cfg: &ModelConfig, seed: u64) -> SyntheticLm {
    let mut lm = SyntheticLmBuilder::new(cfg.clone(), DatasetProfile::qa())
        .seed(seed)
        .build();
    lm.set_backend(BackendKind::ALL[seed as usize % 3]);
    lm
}

fn random_tokens(rng: &mut Pcg, n: usize, vocab: usize) -> Vec<TokenId> {
    (0..n).map(|_| rng.below(vocab) as TokenId).collect()
}

/// Decodes `token`, leaving after `depth` layers the way an early exit
/// does (the skipped layers' K/V filled from the exit state); returns the
/// hidden state after every layer that ran.
fn decode_token<M: LayeredLm>(model: &mut M, token: TokenId, depth: usize) -> Vec<Vec<f32>> {
    let meter = &mut Meter::new();
    let pos = model.kv_len();
    let mut h = model.begin_token(token, meter);
    let mut per_layer = Vec::new();
    for layer in 0..depth {
        h = model.forward_layer(layer, &h, pos, meter);
        per_layer.push(h.clone());
    }
    model.fill_skipped_kv(depth, &h, pos, SkipKvPolicy::ProjectExitHidden, meter);
    per_layer
}

/// `(token, depth)` for `n` decode steps, one of them at full depth.
fn decode_plan(rng: &mut Pcg, n: usize, cfg: &ModelConfig) -> Vec<(TokenId, usize)> {
    let mut plan: Vec<(TokenId, usize)> = (0..n)
        .map(|_| {
            let token = rng.below(cfg.vocab_size) as TokenId;
            (token, 1 + rng.below(cfg.n_layers))
        })
        .collect();
    plan[0].1 = cfg.n_layers;
    plan
}

/// A resident sequence: a clone of `template` that prefilled `prompt` and
/// has since decoded, leaving tokens early — rows past its prompt that no
/// adopter may ever see.
fn donor_of<M: LayeredLm + Clone>(template: &M, prompt: &[TokenId], rng: &mut Pcg) -> M {
    let mut donor = template.clone();
    donor.prefill(prompt, &mut Meter::new());
    for (token, depth) in decode_plan(rng, 3, template.config()) {
        decode_token(&mut donor, token, depth);
    }
    donor
}

/// A prompt of `len` tokens, and a donor's: the same up to the last token,
/// where it differs, then a few tokens of its own.
fn prompt_pair(rng: &mut Pcg, len: usize, vocab: usize) -> (Vec<TokenId>, Vec<TokenId>) {
    let prompt = random_tokens(rng, len, vocab);
    let mut donor_prompt = prompt.clone();
    donor_prompt[len - 1] = (prompt[len - 1] + 1) % vocab as TokenId;
    let own = rng.below(4);
    donor_prompt.extend(random_tokens(rng, own, vocab));
    (prompt, donor_prompt)
}

fn assert_same_kv(got: &Transformer, want: &Transformer, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.kv_len(), want.kv_len(), "{}: kv_len", what);
    for layer in 0..want.config().n_layers {
        prop_assert_eq!(
            got.cache(layer),
            want.cache(layer),
            "{}: layer {}",
            what,
            layer
        );
    }
    Ok(())
}

/// Every field of a model, weights and streams included: `{:?}` of an
/// `f32` is the shortest decimal that reads back to the same bits.
fn state<M: Debug>(model: &M) -> String {
    format!("{model:?}")
}

/// `adopter` must refuse to adopt `tokens` from `donor` and stay, field
/// for field, the model it was.
fn assert_refuses<M: LayeredLm + Debug>(
    case: &str,
    mut adopter: M,
    donor: &M,
    tokens: &[TokenId],
) -> Result<(), TestCaseError> {
    let before = state(&adopter);
    prop_assert!(!adopter.adopt_prefix(donor, tokens), "{}: adopted", case);
    prop_assert!(state(&adopter) == before, "{}: refused, but changed", case);
    Ok(())
}

proptest! {
    // Each case walks twelve variants through every split point.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn transformer_adopt_then_prefill_the_rest_equals_prefill_of_the_whole(
        seed in 0u64..10_000,
        len in 2usize..24,
    ) {
        let cfg = config(seed % 2 == 1);
        let (prompt, donor_prompt) = prompt_pair(&mut Pcg::seed(seed ^ 0x71), len, cfg.vocab_size);
        for (name, template) in variants(&cfg, seed) {
            let donor = donor_of(&template, &donor_prompt, &mut Pcg::seed(seed ^ 0x12));
            let mut whole = template.clone();
            let want = whole.prefill(&prompt, &mut Meter::new());
            // Every split: inside a page, on a page boundary, 1, len - 1.
            for split in 1..len {
                let what = format!("{name} split {split}/{len}");
                let mut adopter = template.clone();
                prop_assert!(adopter.adopt_prefix(&donor, &prompt[..split]), "{}", &what);
                prop_assert_eq!(adopter.kv_len(), split, "{}", &what);
                let got = adopter.prefill(&prompt[split..], &mut Meter::new());
                prop_assert_eq!(&got, &want, "{}: last hidden state", &what);
                assert_same_kv(&adopter, &whole, &what)?;
                prop_assert_eq!(adopter.cache(0).layout(), template.cache(0).layout());

                if split > 1 {
                    continue;
                }
                // Whoever adopted is a donor in turn.
                let mut next = template.clone();
                prop_assert!(next.adopt_prefix(&adopter, &prompt[..len - 1]), "{}: in turn", &what);
                let got = next.prefill(&prompt[len - 1..], &mut Meter::new());
                prop_assert_eq!(&got, &want, "{}: in turn", &what);
                assert_same_kv(&next, &whole, &what)?;
            }
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn synthetic_adopt_then_prefill_the_rest_equals_prefill_of_the_whole(
        seed in 0u64..10_000,
        len in 2usize..24,
    ) {
        let cfg = ModelConfig { n_layers: 6, ..ModelConfig::tiny() };
        let template = synthetic(&cfg, seed);
        let mut rng = Pcg::seed(seed ^ 0x72);
        let (prompt, donor_prompt) = prompt_pair(&mut rng, len, cfg.vocab_size);
        let donor = donor_of(&template, &donor_prompt, &mut rng);
        let plan = decode_plan(&mut rng, 8, &cfg);

        let mut whole = template.clone();
        let want = whole.prefill(&prompt, &mut Meter::new());
        let prefilled = whole.clone();
        let want_steps: Vec<Vec<Vec<f32>>> =
            plan.iter().map(|&(token, depth)| decode_token(&mut whole, token, depth)).collect();

        for split in 1..len {
            let mut adopter = template.clone();
            prop_assert!(adopter.adopt_prefix(&donor, &prompt[..split]), "split {}", split);
            prop_assert_eq!(adopter.kv_len(), split);
            prop_assert_eq!(adopter.context(), &prompt[..split]);
            prop_assert_eq!(adopter.scripts(), &prefilled.scripts()[..split], "split {}", split);
            let got = adopter.prefill(&prompt[split..], &mut Meter::new());
            prop_assert_eq!(&got, &want, "split {}: last hidden state", split);
            prop_assert_eq!(adopter.context(), prefilled.context());
            prop_assert_eq!(adopter.scripts(), prefilled.scripts(), "split {}", split);
            assert_same_kv(adopter.inner(), prefilled.inner(), &format!("split {split}"))?;
            // Eight more tokens, layer by layer: equal only if the noise
            // and saturation streams stand where the prefill leaves them.
            for (step, &(token, depth)) in plan.iter().enumerate() {
                let got = decode_token(&mut adopter, token, depth);
                prop_assert_eq!(&got, &want_steps[step], "split {} decode step {}", split, step);
            }
            assert_same_kv(adopter.inner(), whole.inner(), &format!("split {split}, decoded"))?;
            if split == len / 2 || split == len - 1 {
                prop_assert!(state(&adopter) == state(&whole), "split {}: some field differs", split);
            }
        }
    }

    #[test]
    fn transformer_refusals_leave_the_adopter_untouched(seed in 0u64..10_000) {
        let cfg = config(seed % 2 == 1);
        let template = Transformer::random(cfg.clone(), &mut Pcg::seed(seed));
        let mut rng = Pcg::seed(seed ^ 0x73);
        let prompt = random_tokens(&mut rng, 9, cfg.vocab_size);
        let donor = donor_of(&template, &prompt, &mut rng);
        let shared = &prompt[..6];

        let mut quantized_donor = donor.clone();
        quantized_donor.quantize(QuantBits::Int8);
        assert_refuses("donor quantized after cloning", template.clone(), &quantized_donor, shared)?;
        let mut blocked = template.clone();
        blocked.set_backend(BackendKind::Blocked);
        assert_refuses("different backend", blocked, &donor, shared)?;
        let mut tapped = template.clone();
        tapped.start_calibration_tap();
        assert_refuses("armed tap", tapped, &donor, shared)?;
        let mut seated = template.clone();
        seated.prefill(&prompt[..1], &mut Meter::new());
        assert_refuses("non-empty adopter", seated, &donor, shared)?;
        let longer = random_tokens(&mut rng, donor.kv_len() + 1, cfg.vocab_size);
        assert_refuses("donor shorter than the tokens", template.clone(), &donor, &longer)?;
        let rebuilt = Transformer::random(cfg.clone(), &mut Pcg::seed(seed));
        prop_assert_eq!(rebuilt.weights(), template.weights());
        assert_refuses("built separately from the same seed", rebuilt, &donor, shared)?;

        // The same donor and tokens, nothing in the way.
        prop_assert!(template.clone().adopt_prefix(&donor, shared));
    }

    #[test]
    fn synthetic_refusals_leave_the_adopter_untouched(seed in 0u64..10_000) {
        let cfg = ModelConfig { n_layers: 6, ..ModelConfig::tiny() };
        let template = synthetic(&cfg, seed);
        let mut rng = Pcg::seed(seed ^ 0x74);
        let prompt = random_tokens(&mut rng, 9, cfg.vocab_size);
        let donor = donor_of(&template, &prompt, &mut rng);
        let shared = &prompt[..6];

        let mut quantized_donor = donor.clone();
        quantized_donor.inner_mut().quantize(QuantBits::Int8);
        assert_refuses("donor quantized after cloning", template.clone(), &quantized_donor, shared)?;
        let mut other_backend = template.clone();
        other_backend.set_backend(BackendKind::ALL[(seed as usize + 1) % 3]);
        assert_refuses("different backend", other_backend, &donor, shared)?;
        let mut tapped = template.clone();
        tapped.inner_mut().start_calibration_tap();
        assert_refuses("armed tap", tapped, &donor, shared)?;
        let mut seated = template.clone();
        seated.prefill(&prompt[..1], &mut Meter::new());
        assert_refuses("non-empty adopter", seated, &donor, shared)?;
        let mut longer = donor.context().to_vec();
        longer.push(1);
        assert_refuses("donor shorter than the tokens", template.clone(), &donor, &longer)?;
        for at in [0, 3, 5] {
            let mut other = shared.to_vec();
            other[at] = (other[at] + 1) % cfg.vocab_size as TokenId;
            assert_refuses("donor context differs at one token", template.clone(), &donor, &other)?;
        }
        // `reset` does not rewind the streams: what this model would now
        // compute for the prompt is no longer what the donor holds.
        let mut moved_on = template.clone();
        moved_on.prefill(&prompt[..2], &mut Meter::new());
        decode_token(&mut moved_on, 3, cfg.n_layers);
        moved_on.reset();
        assert_refuses("stepped, then reset", moved_on.clone(), &donor, shared)?;
        let rebuilt = synthetic(&cfg, seed);
        assert_refuses("built separately from the same seed", rebuilt, &donor, shared)?;

        prop_assert!(template.clone().adopt_prefix(&donor, shared));

        // A lineage that starts from the moved-on streams is consistent
        // with itself — and an adopter in it records where *it* started,
        // so the template's lineage cannot adopt from it by mistake.
        let mut first = moved_on.clone();
        let want = first.prefill(&prompt, &mut Meter::new());
        let mut second = moved_on.clone();
        prop_assert!(second.adopt_prefix(&first, shared));
        prop_assert_eq!(second.prefill(&prompt[6..], &mut Meter::new()), want.clone());
        assert_refuses("donor of another lineage", template.clone(), &second, shared)?;
        let mut third = moved_on.clone();
        prop_assert!(third.adopt_prefix(&second, &prompt[..8]));
        prop_assert_eq!(third.prefill(&prompt[8..], &mut Meter::new()), want);
        prop_assert!(state(&third) == state(&first));
    }
}
