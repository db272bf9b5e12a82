//! Batch-1 self-draft parity: the lock-step batched runtime driving
//! per-slot shallow draft passes plus the masked deep tree sweep must
//! reproduce the single-sequence `SpeculativeEngine` self-draft run
//! token-for-token — both tiers drive the same
//! `specee_core::engine::selfdraft` round helpers, so any divergence is
//! a bug in the batching, not a tuning difference.

use specee_batch::{Admission, BatchedEngine};
use specee_core::engine::SpeculativeEngine;
use specee_core::predictor::{PredictorBank, PredictorConfig};
use specee_core::{ScheduleEngine, SpecEeConfig};
use specee_draft::{SelfDraft, SelfDraftSpec, TreeShape};
use specee_model::{ModelConfig, TokenId, Transformer};
use specee_obs::{EventKind, Recorder};
use specee_tensor::rng::Pcg;

const N_LAYERS: usize = 6;
const GEN: usize = 14;

fn cfg() -> ModelConfig {
    ModelConfig {
        n_layers: N_LAYERS,
        vocab_size: 96,
        ..ModelConfig::tiny()
    }
}

fn tf(seed: u64) -> Transformer {
    Transformer::random(cfg(), &mut Pcg::seed(seed))
}

fn engine(max_batch: usize) -> BatchedEngine<Transformer, SelfDraft> {
    // The predictor plane is inert under self-draft (the shallow pass
    // fills its role), but the engine still wants a well-formed bank.
    let pcfg = PredictorConfig {
        hidden_dim: 8,
        ..PredictorConfig::default()
    };
    let bank = PredictorBank::new(N_LAYERS, &pcfg, &mut Pcg::seed(5));
    let config = SpecEeConfig {
        predictor: pcfg,
        ..SpecEeConfig::default()
    };
    BatchedEngine::new(
        max_batch,
        16,
        N_LAYERS,
        bank,
        ScheduleEngine::all_layers(N_LAYERS),
        config,
    )
}

fn spec() -> SelfDraftSpec {
    spec_at(2)
}

fn spec_at(exit_layer: usize) -> SelfDraftSpec {
    SelfDraftSpec::new(exit_layer, TreeShape::new(vec![2, 2]))
}

fn prompts() -> Vec<Vec<TokenId>> {
    vec![vec![3, 8, 2, 5], vec![1, 5, 3], vec![7, 7, 1, 2, 4]]
}

/// Single-sequence reference self-draft run for one prompt.
fn solo(seed: u64, prompt: &[TokenId]) -> specee_core::GenOutput {
    solo_at(spec(), seed, prompt)
}

fn solo_at(spec: SelfDraftSpec, seed: u64, prompt: &[TokenId]) -> specee_core::GenOutput {
    let mut engine =
        SpeculativeEngine::baseline(tf(seed), SelfDraft::new(spec), SpecEeConfig::default());
    engine.generate(prompt, GEN)
}

#[test]
fn batch_one_self_draft_is_bit_identical_to_single_engine() {
    let seed = 211;
    for (i, prompt) in prompts().iter().enumerate() {
        let reference = solo(seed, prompt);

        let mut eng = engine(1);
        let admission = eng.admit(i as u64, tf(seed), SelfDraft::new(spec()), prompt, GEN);
        assert!(matches!(admission, Admission::Seated { slot: 0 }));
        let out = eng.drain().remove(0);

        assert_eq!(out.tokens, reference.tokens, "prompt {i}: tokens diverged");
        assert_eq!(out.exit_layers, reference.exit_layers, "prompt {i}: exits");
        assert_eq!(out.ce_sum, reference.ce_sum, "prompt {i}: cross-entropy");
        assert_eq!(eng.meter(), &reference.meter, "prompt {i}: meter diverged");
        assert_eq!(out.verify_calls, reference.rounds, "prompt {i}: rounds");
        assert_eq!(
            out.self_draft_calls, reference.self_draft_calls,
            "prompt {i}: shallow-call accounting diverged"
        );
        assert_eq!(out.draft_calls, 0, "no separate draft network ran");
        assert_eq!(out.predictor_calls, 0, "predictors are inert");
    }
}

#[test]
fn co_batched_self_draft_sequences_each_match_their_solo_run() {
    // The stronger form: at batch 3, every co-resident sequence still
    // matches its own single-sequence run — the lock-step deep tree sweep
    // changes step timing, never values. The middle seat drafts one layer
    // deeper, so it joins the verify sweep a layer after the others: a
    // seat's tree must not run (nor gather scratch K/V) below its own exit
    // layer.
    let seed = 223;
    let exits = [2, 3, 2];
    let mut eng = engine(3);
    for (i, prompt) in prompts().iter().enumerate() {
        let admission = eng.admit(
            i as u64,
            tf(seed + i as u64),
            SelfDraft::new(spec_at(exits[i])),
            prompt,
            GEN,
        );
        assert!(matches!(admission, Admission::Seated { .. }));
    }
    let first = eng.step();
    assert_eq!(first.layer_runners, vec![3; N_LAYERS], "one run per seat");
    let mut outputs = first.finished;
    outputs.extend(eng.drain());
    outputs.sort_by_key(|o| o.id);
    assert_eq!(outputs.len(), 3);
    for (i, (out, prompt)) in outputs.iter().zip(prompts()).enumerate() {
        let reference = solo_at(spec_at(exits[i]), seed + i as u64, &prompt);
        assert_eq!(out.tokens, reference.tokens, "slot {i}: tokens diverged");
        assert_eq!(out.tokens.len(), GEN, "slot {i}: overshoot not truncated");
        assert_eq!(
            out.self_draft_calls, reference.self_draft_calls,
            "slot {i}: shallow-call accounting diverged"
        );
    }
}

#[test]
fn self_draft_steps_report_tree_accounting_and_trace_events() {
    let seed = 227;
    let mut eng = engine(2);
    eng.set_recorder(Some(Recorder::for_worker(0)));
    for (i, prompt) in prompts().iter().take(2).enumerate() {
        let _ = eng.admit(i as u64, tf(seed), SelfDraft::new(spec()), prompt, GEN);
    }
    let step = eng.step();
    // Accounting: self-draft slots replace separate-draft slots, every
    // shallow layer counts both residents, and a tree round can emit
    // more than one token per sequence.
    assert_eq!(step.self_draft_slots, 2);
    assert_eq!(step.draft_slots, 0);
    assert_eq!(step.predictor_calls, 0);
    assert_eq!(step.lm_head_evals, 2, "one tree verification per slot");
    assert_eq!(step.rearmost_layer(), N_LAYERS);
    assert!(step.layer_runners.iter().all(|&r| r == 2));
    assert!(step.emitted >= 2);
    let _ = eng.drain();
    let rec = eng.take_recorder().expect("recorder attached");
    let passes = rec
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::DraftPass { .. }))
        .count();
    let verified: Vec<u32> = rec
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::TreeVerified { accepted, .. } => Some(accepted),
            _ => None,
        })
        .collect();
    assert!(passes > 0, "draft passes must be traced");
    assert_eq!(passes, verified.len(), "one verification per draft pass");
    assert!(verified.iter().all(|&a| a >= 1), "the bonus always commits");
}

#[test]
#[should_panic(expected = "below the model depth")]
fn admission_rejects_an_exit_layer_at_model_depth() {
    let mut eng = engine(1);
    let bad = SelfDraftSpec::new(N_LAYERS, TreeShape::chain(2));
    let _ = eng.admit(0, tf(3), SelfDraft::new(bad), &[1, 2, 3], GEN);
}
