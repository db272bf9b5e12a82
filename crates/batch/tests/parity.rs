//! Batch-1 parity: the lock-step batched runtime must reproduce the
//! single-stream `SpecEeEngine` token-for-token and
//! exit-layer-for-exit-layer on the same seed — both engines run core's
//! one exit-scan sweep (`specee_core::engine::scan::sweep`; the single
//! stream is a seat count of one at the bank's own thresholds), so any
//! divergence is a bug in what the batch adds around it — admission, the
//! controller's thresholds, the step's bookkeeping — not a tuning
//! difference.

use specee_batch::{Admission, BatchedEngine};
use specee_core::collect::{collect_training_data, train_bank};
use specee_core::engine::SpecEeEngine;
use specee_core::predictor::{PredictorBank, PredictorConfig};
use specee_core::{GenOutput, ScheduleEngine, SpecEeConfig};
use specee_model::{ModelConfig, TokenId};
use specee_nn::TrainConfig;
use specee_synth::{DatasetProfile, OracleDraft, SyntheticLm, SyntheticLmBuilder};
use specee_tensor::rng::Pcg;

const N_LAYERS: usize = 12;
const GEN: usize = 18;

fn cfg() -> ModelConfig {
    ModelConfig {
        n_layers: N_LAYERS,
        vocab_size: 512,
        ..ModelConfig::tiny()
    }
}

fn build_lm(seed: u64) -> SyntheticLm {
    SyntheticLmBuilder::new(cfg(), DatasetProfile::qa())
        .seed(seed)
        .build()
}

fn build_draft(lm: &SyntheticLm, seed: u64) -> OracleDraft {
    OracleDraft::new(*lm.language(), 0.9, &cfg(), seed)
}

/// Trains one predictor bank + schedule + config shared by both engines.
fn trained(seed: u64) -> (PredictorBank, ScheduleEngine, SpecEeConfig) {
    let mut lm = build_lm(seed);
    let mut draft = build_draft(&lm, seed);
    let prompts: Vec<(Vec<TokenId>, usize)> = (0..14)
        .map(|i| (vec![2 + i, 7 + (i % 5), 1 + i], 12usize))
        .collect();
    let report = collect_training_data(&mut lm, &mut draft, &prompts, 4);
    let pcfg = PredictorConfig {
        hidden_dim: 32,
        ..PredictorConfig::default()
    };
    let mut bank = PredictorBank::new(N_LAYERS, &pcfg, &mut Pcg::seed(seed));
    train_bank(
        &mut bank,
        &report.samples,
        1.0,
        &TrainConfig {
            epochs: 20,
            lr: 3e-3,
            ..Default::default()
        },
        seed,
    );
    let config = SpecEeConfig {
        predictor: pcfg,
        ..SpecEeConfig::default()
    };
    let schedule = config.build_schedule(N_LAYERS, Some(&report.exit_frequencies));
    (bank, schedule, config)
}

fn prompts() -> Vec<Vec<TokenId>> {
    vec![
        vec![4, 2, 9],
        vec![1, 5, 3, 7],
        vec![8, 8, 2],
        vec![3, 1, 4, 1, 5],
    ]
}

/// Single-stream reference run for one prompt (fresh engine per prompt so
/// schedule/noise state never leaks across requests).
fn reference(
    seed: u64,
    draft_seed: u64,
    parts: &(PredictorBank, ScheduleEngine, SpecEeConfig),
    prompt: &[TokenId],
) -> GenOutput {
    let lm = build_lm(seed);
    let draft = build_draft(&lm, draft_seed);
    let mut engine =
        SpecEeEngine::new(lm, draft, parts.0.clone(), parts.1.clone(), parts.2.clone());
    engine.generate(prompt, GEN)
}

/// The [`reference`] run's tokens, exit layers, predictor and verify calls.
fn single_stream(
    seed: u64,
    draft_seed: u64,
    parts: &(PredictorBank, ScheduleEngine, SpecEeConfig),
    prompt: &[TokenId],
) -> (Vec<TokenId>, Vec<usize>, u64, u64) {
    let out = reference(seed, draft_seed, parts, prompt);
    (
        out.tokens,
        out.exit_layers,
        out.predictor_calls,
        out.verify_calls,
    )
}

#[test]
fn batch_one_is_token_and_exit_identical_to_single_stream() {
    let seed = 101;
    let parts = trained(seed);
    for (i, prompt) in prompts().iter().enumerate() {
        let draft_seed = seed ^ (i as u64);
        let GenOutput {
            tokens,
            exit_layers: exits,
            predictor_calls: pcalls,
            verify_calls: vcalls,
            ce_sum,
            meter,
            ..
        } = reference(seed, draft_seed, &parts, prompt);

        let mut engine: BatchedEngine<SyntheticLm, OracleDraft> = BatchedEngine::new(
            1,
            16,
            N_LAYERS,
            parts.0.clone(),
            parts.1.clone(),
            parts.2.clone(),
        );
        let lm = build_lm(seed);
        let draft = build_draft(&lm, draft_seed);
        assert!(matches!(
            engine.admit(i as u64, lm, draft, prompt, GEN),
            Admission::Seated { slot: 0 }
        ));
        let out = engine.drain().remove(0);

        assert_eq!(out.tokens, tokens, "prompt {i}: token stream diverged");
        assert_eq!(out.exit_layers, exits, "prompt {i}: exit layers diverged");
        assert_eq!(out.predictor_calls, pcalls, "prompt {i}: predictor calls");
        assert_eq!(out.verify_calls, vcalls, "prompt {i}: verify calls");
        // The same work in the same order: every op total, token and host
        // step, and the cross-entropy summed token by token.
        assert_eq!(engine.meter(), &meter, "prompt {i}: meter diverged");
        assert_eq!(out.ce_sum, ce_sum, "prompt {i}: cross-entropy diverged");
        // Sanity: the run genuinely exercised early exits, not just
        // full-depth agreement.
        assert!(
            out.exit_layers.iter().any(|&l| l < N_LAYERS),
            "prompt {i}: no early exit fired, parity is vacuous"
        );
    }
}

#[test]
fn co_batched_sequences_each_match_their_single_stream_run() {
    // The stronger form: at batch 4, every co-resident sequence still
    // matches its own single-stream run — lock-step batching changes step
    // timing (the Cannikin effect), never values.
    let seed = 103;
    let parts = trained(seed);
    let mut engine: BatchedEngine<SyntheticLm, OracleDraft> = BatchedEngine::new(
        4,
        16,
        N_LAYERS,
        parts.0.clone(),
        parts.1.clone(),
        parts.2.clone(),
    );
    for (i, prompt) in prompts().iter().enumerate() {
        let lm = build_lm(seed);
        let draft = build_draft(&lm, seed ^ (i as u64));
        let _ = engine.admit(i as u64, lm, draft, prompt, GEN);
    }
    let outputs = engine.drain();
    assert_eq!(outputs.len(), 4);
    for (i, (out, prompt)) in outputs.iter().zip(prompts()).enumerate() {
        let (tokens, exits, _, _) = single_stream(seed, seed ^ (i as u64), &parts, &prompt);
        assert_eq!(out.tokens, tokens, "slot {i}");
        assert_eq!(out.exit_layers, exits, "slot {i}");
    }
}

#[test]
fn static_controller_batch_one_matches_single_stream() {
    // `specee generate --controller static` routes through a batch-1
    // BatchedEngine with a static controller attached; its output must
    // be bit-identical to today's uncontrolled single-stream run.
    let seed = 107;
    let parts = trained(seed);
    for (i, prompt) in prompts().iter().enumerate() {
        let draft_seed = seed ^ (i as u64);
        let (tokens, exits, pcalls, vcalls) = single_stream(seed, draft_seed, &parts, prompt);

        let mut engine: BatchedEngine<SyntheticLm, OracleDraft> = BatchedEngine::new(
            1,
            16,
            N_LAYERS,
            parts.0.clone(),
            parts.1.clone(),
            parts.2.clone(),
        );
        engine.set_controller(
            specee_control::ControllerPolicy::Static
                .build_classed(parts.0.len(), parts.2.predictor.threshold),
        );
        let lm = build_lm(seed);
        let draft = build_draft(&lm, draft_seed);
        let _ = engine.admit(i as u64, lm, draft, prompt, GEN);
        let out = engine.drain().remove(0);

        assert_eq!(out.tokens, tokens, "prompt {i}: token stream diverged");
        assert_eq!(out.exit_layers, exits, "prompt {i}: exit layers diverged");
        assert_eq!(out.predictor_calls, pcalls, "prompt {i}: predictor calls");
        assert_eq!(out.verify_calls, vcalls, "prompt {i}: verify calls");
        let summary = engine.controller_summary().expect("controller attached");
        assert_eq!(summary.policy, "static");
        assert_eq!(summary.accepts + summary.rejects, vcalls, "event per fire");
    }
}
