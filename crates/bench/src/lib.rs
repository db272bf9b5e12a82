//! Shared experiment harness for the per-figure/per-table benchmarks.
//!
//! Every bench target follows the same pipeline:
//!
//! 1. build a calibrated synthetic model + draft oracle for a dataset
//!    profile ([`build_lm`], [`build_draft`]),
//! 2. collect features offline and train the predictor bank
//!    ([`train_pipeline`], §7.4.4),
//! 3. run a workload through an engine configuration ([`run_engine`]),
//! 4. price the recorded op trace for the paper's hardware/framework
//!    combination ([`price`]) and print the paper's rows.

#![deny(missing_docs)]

use std::time::Instant;

use specee_batch::BatchedEngine;
use specee_core::baselines::{collect_adainfer_data, AdaInferEngine, RaeeEngine};
use specee_core::collect::{collect_training_data, train_bank, CollectionReport};
use specee_core::engine::{dense_probe, DenseEngine, SpecEeEngine, SpeculativeEngine};
use specee_core::output::{agreement, GenOutput, RunStats};
use specee_core::predictor::{PredictorBank, PredictorConfig};
use specee_core::skip_layer::{
    calibrate_calm_threshold, collect_router_data, CalmEngine, DLlmEngine, MoDEngine,
};
use specee_core::{SchedulingMode, SpecEeConfig};
use specee_draft::SpeculativeSource;
use specee_metrics::{CostReport, FrameworkProfile, HardwareProfile, Meter, Roofline};
use specee_model::{LayeredLm, ModelConfig, TokenId};
use specee_nn::TrainConfig;
use specee_serve::{PoissonArrivals, ServeRequest};
use specee_synth::{
    generate_workload, DatasetProfile, OracleDraft, Request, SyntheticLm, SyntheticLmBuilder,
};
use specee_tensor::rng::Pcg;
use specee_tensor::QuantBits;

/// Model variant used by an engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelVariant {
    /// Dense f16 weights, contiguous KV cache (HuggingFace-style).
    Dense,
    /// AWQ int4-quantized weights.
    Quantized,
    /// PowerInfer-style sparse-activation FFN.
    Sparse,
}

/// Builds a synthetic LM for a dataset profile in the requested variant.
pub fn build_lm(
    cfg: &ModelConfig,
    profile: &DatasetProfile,
    seed: u64,
    variant: ModelVariant,
) -> SyntheticLm {
    let mut cfg = cfg.clone();
    if variant == ModelVariant::Quantized {
        if let Some(cost) = cfg.cost {
            cfg.cost = Some(cost.with_weight_bits(4));
        }
    }
    let mut lm = SyntheticLmBuilder::new(cfg, profile.clone())
        .seed(seed)
        .build();
    match variant {
        ModelVariant::Dense => {}
        ModelVariant::Quantized => lm.inner_mut().quantize(QuantBits::Int8),
        ModelVariant::Sparse => {
            let mut rng = Pcg::seed(seed ^ 0x5fa);
            lm.inner_mut().enable_sparse_ffn(0.25, 16, &mut rng);
        }
    }
    lm
}

/// Builds the draft oracle aligned with a model's language.
pub fn build_draft(lm: &SyntheticLm, cfg: &ModelConfig, seed: u64) -> OracleDraft {
    OracleDraft::new(*lm.language(), lm.profile().hit_rate, cfg, seed ^ 0xd4af7)
}

/// Trained predictor bank plus the offline statistics the scheduler needs.
#[derive(Debug, Clone)]
pub struct Trained {
    /// Per-layer trained predictors.
    pub bank: PredictorBank,
    /// Collection report (exit frequencies, theoretical layers).
    pub collection: CollectionReport,
    /// Predictor architecture used.
    pub predictor: PredictorConfig,
    /// Wall seconds the collection pass took.
    pub collect_s: f64,
    /// Wall seconds training the bank took.
    pub train_s: f64,
}

/// Number of training prompts used by [`train_pipeline`].
pub const TRAIN_PROMPTS: usize = 6;
/// Decode length of each training prompt.
pub const TRAIN_GEN: usize = 16;

/// Runs the offline pipeline of §7.4.4 for one (model, dataset) pair.
pub fn train_pipeline(
    cfg: &ModelConfig,
    profile: &DatasetProfile,
    seed: u64,
    predictor: PredictorConfig,
) -> Trained {
    let mut lm = build_lm(cfg, profile, seed, ModelVariant::Dense);
    let mut draft = build_draft(&lm, cfg, seed);
    let prompts = train_prompt_set(cfg, &lm, seed);
    let start = Instant::now();
    let collection = collect_training_data(&mut lm, &mut draft, &prompts, predictor.spec_k);
    let collect_s = start.elapsed().as_secs_f64();
    let mut bank = PredictorBank::new(cfg.n_layers, &predictor, &mut Pcg::seed(seed ^ 0xb4));
    let start = Instant::now();
    train_bank(
        &mut bank,
        &collection.samples,
        1.0,
        &TrainConfig {
            epochs: 16,
            lr: 3e-3,
            ..TrainConfig::default()
        },
        seed ^ 0x7e,
    );
    Trained {
        bank,
        collection,
        predictor,
        collect_s,
        train_s: start.elapsed().as_secs_f64(),
    }
}

/// An engine configuration to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Dense autoregressive baseline.
    Dense,
    /// SpecEE autoregressive (T1 or T1+T2 depending on the mode).
    SpecEeAr(SchedulingMode),
    /// Tree speculative decoding without early exit (EAGLE).
    Speculative,
    /// Tree speculative decoding with hyper-token early exit (full SpecEE).
    SpecEeSpeculative,
    /// AdaInfer baseline (SVM on full-vocab features).
    AdaInfer,
    /// RAEE baseline (retrieval-scheduled exit layers).
    Raee,
    /// CALM-style confidence-threshold early exit (training-free).
    Calm,
    /// Mixture-of-Depths-style capacity-routed layer skipping.
    MoD,
    /// D-LLM-style per-layer decision gates.
    DLlm,
}

/// Result of running a workload through one engine configuration.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// Aggregated statistics.
    pub stats: RunStats,
    /// Per-request outputs (token streams for agreement checks).
    pub outputs: Vec<GenOutput>,
    /// Mean active predictors per token (T2 statistic), when applicable.
    pub avg_active_predictors: Option<f64>,
}

/// Serves every request of `workload`, in order, on one engine.
fn serve(
    workload: &[Request],
    mut generate: impl FnMut(&[TokenId], usize) -> GenOutput,
) -> Vec<GenOutput> {
    workload
        .iter()
        .map(|r| generate(&r.prompt, r.gen_len))
        .collect()
}

/// Runs `workload` through the chosen engine built from the given parts.
///
/// # Panics
///
/// Panics if the workload is empty.
pub fn run_engine(
    kind: EngineKind,
    cfg: &ModelConfig,
    profile: &DatasetProfile,
    seed: u64,
    variant: ModelVariant,
    trained: &Trained,
    workload: &[Request],
) -> EngineRun {
    assert!(!workload.is_empty(), "empty workload");
    let lm = build_lm(cfg, profile, seed, variant);
    let draft = build_draft(&lm, cfg, seed);
    let mut avg_active = None;
    // The comparators' offline passes run on a dense model of their own
    // over the shared training prompts.
    let offline = || {
        let collect_lm = build_lm(cfg, profile, seed, ModelVariant::Dense);
        let prompts = train_prompt_set(cfg, &collect_lm, seed);
        (collect_lm, prompts)
    };
    // The paper's figures verify the paper's full [3, 2, 2] tree.
    let config = SpecEeConfig {
        predictor: trained.predictor,
        tree_budget: None,
        ..SpecEeConfig::default()
    };
    let outputs: Vec<GenOutput> = match kind {
        EngineKind::Dense => {
            let mut engine = DenseEngine::new(lm);
            serve(workload, |p, n| engine.generate(p, n))
        }
        EngineKind::SpecEeAr(mode) => {
            let config = SpecEeConfig {
                scheduling: mode,
                ..config
            };
            let schedule =
                config.build_schedule(cfg.n_layers, Some(&trained.collection.exit_frequencies));
            let mut engine = SpecEeEngine::new(lm, draft, trained.bank.clone(), schedule, config);
            let outs = serve(workload, |p, n| engine.generate(p, n));
            avg_active = Some(engine.schedule().avg_active());
            outs
        }
        EngineKind::Speculative => {
            let mut engine = SpeculativeEngine::baseline(lm, draft, config);
            serve(workload, |p, n| engine.generate(p, n))
        }
        EngineKind::SpecEeSpeculative => {
            let schedule =
                config.build_schedule(cfg.n_layers, Some(&trained.collection.exit_frequencies));
            let mut engine = SpeculativeEngine::with_early_exit(
                lm,
                draft,
                trained.bank.clone(),
                schedule,
                config,
            );
            serve(workload, |p, n| engine.generate(p, n))
        }
        EngineKind::AdaInfer => {
            let (mut collect_lm, prompts) = offline();
            let samples = collect_adainfer_data(&mut collect_lm, &prompts);
            let mut engine = AdaInferEngine::train(lm, &samples, seed);
            serve(workload, |p, n| engine.generate(p, n))
        }
        EngineKind::Raee => {
            let (mut collect_lm, prompts) = offline();
            let observations = collect_raee_observations(&mut collect_lm, &prompts);
            let mut engine = RaeeEngine::build(lm, &observations);
            serve(workload, |p, n| engine.generate(p, n))
        }
        EngineKind::Calm => {
            let (mut calib_lm, prompts) = offline();
            let threshold = calibrate_calm_threshold(&mut calib_lm, &prompts);
            let mut engine = CalmEngine::new(lm, threshold);
            serve(workload, |p, n| engine.generate(p, n))
        }
        EngineKind::MoD => {
            let (mut collect_lm, prompts) = offline();
            let samples = collect_router_data(&mut collect_lm, &prompts);
            let mut engine = MoDEngine::train(lm, &samples, 0.85, seed);
            serve(workload, |p, n| engine.generate(p, n))
        }
        EngineKind::DLlm => {
            let (mut collect_lm, prompts) = offline();
            let samples = collect_router_data(&mut collect_lm, &prompts);
            let mut engine = DLlmEngine::train(lm, &samples, seed);
            serve(workload, |p, n| engine.generate(p, n))
        }
    };
    EngineRun {
        stats: RunStats::aggregate(&outputs),
        outputs,
        avg_active_predictors: avg_active,
    }
}

/// The training prompt set shared by every offline collection pass.
pub fn train_prompt_set(
    cfg: &ModelConfig,
    lm: &SyntheticLm,
    seed: u64,
) -> Vec<(Vec<TokenId>, usize)> {
    let lang = *lm.language();
    (0..TRAIN_PROMPTS)
        .map(|i| {
            let start = (seed as u32 + i as u32 * 7) % cfg.vocab_size as u32;
            (
                lang.sample_sequence(start, 12, seed ^ (i as u64)),
                TRAIN_GEN,
            )
        })
        .collect()
}

/// Collects RAEE observations — (context, earliest settled layer) pairs —
/// from dense runs over the training prompts.
pub fn collect_raee_observations<M: LayeredLm>(
    model: &mut M,
    prompts: &[(Vec<TokenId>, usize)],
) -> Vec<(Vec<TokenId>, usize)> {
    let mut observations = Vec::new();
    dense_probe(model, prompts, |_, token| {
        let final_tok = token.picks.last().expect("layers");
        let earliest = token.picks.iter().position(|tok| tok == final_tok);
        observations.push((token.ctx.to_vec(), earliest.expect("the last matches") + 1));
    });
    observations
}

/// An empty live engine of `max_batch` slots over the trained bank, every
/// sequence starting from the two-level schedule the training pass's exit
/// frequencies give. `D` is the draft its sequences carry:
/// [`specee_draft::NoDraft`] makes it the dense reference.
pub fn live_engine<D: SpeculativeSource>(
    cfg: &ModelConfig,
    trained: &Trained,
    max_batch: usize,
) -> BatchedEngine<SyntheticLm, D> {
    let config = SpecEeConfig {
        predictor: trained.predictor,
        ..SpecEeConfig::default()
    };
    let schedule = config.build_schedule(cfg.n_layers, Some(&trained.collection.exit_frequencies));
    let bank = trained.bank.clone();
    BatchedEngine::new(max_batch, 16, cfg.n_layers, bank, schedule, config)
}

/// Stamps Poisson arrivals onto a workload for the serving simulator.
pub fn serve_requests(workload: &[Request], rate_per_s: f64, seed: u64) -> Vec<ServeRequest> {
    let specs: Vec<(Vec<TokenId>, usize)> = workload
        .iter()
        .map(|r| (r.prompt.clone(), r.gen_len))
        .collect();
    PoissonArrivals::new(rate_per_s, seed).requests(&specs)
}

/// Generates the standard workload for a dataset profile.
pub fn workload(cfg: &ModelConfig, profile: &DatasetProfile, n: usize, seed: u64) -> Vec<Request> {
    let lm = build_lm(cfg, profile, seed, ModelVariant::Dense);
    generate_workload(lm.language(), profile, n, seed ^ 0x3777)
}

/// Prices a run for a hardware + framework combination.
pub fn price(meter: &Meter, hw: HardwareProfile, fw: FrameworkProfile) -> CostReport {
    Roofline::with_framework(hw, fw).cost(meter)
}

/// Token-level agreement of a run against a dense reference run.
pub fn agreement_vs(reference: &EngineRun, run: &EngineRun) -> f64 {
    let mut num = 0.0;
    let mut den = 0.0;
    for (a, b) in reference.outputs.iter().zip(run.outputs.iter()) {
        let n = a.tokens.len().min(b.tokens.len());
        num += agreement(&a.tokens, &b.tokens) * n as f64;
        den += n as f64;
    }
    if den == 0.0 {
        1.0
    } else {
        num / den
    }
}

/// Reported task accuracy: the dense model's Table-4 accuracy scaled by
/// token agreement with the dense reference (the substitution for running
/// the real benchmark harness — documented in EXPERIMENTS.md).
pub fn reported_accuracy(profile: &DatasetProfile, agreement: f64) -> Option<f64> {
    profile.base_acc.map(|acc| acc * agreement)
}

/// Workload size knob: honours `SPECEE_BENCH_REQUESTS` (default 3).
pub fn request_count() -> usize {
    std::env::var("SPECEE_BENCH_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
}

/// Prints the standard bench header.
pub fn banner(name: &str, what: &str) {
    println!("\n=== {name} — {what} ===");
}

/// The Llama2-7B simulation configuration.
pub fn model_7b() -> ModelConfig {
    ModelConfig::sim_llama2_7b()
}

/// The Llama2-13B simulation configuration.
pub fn model_13b() -> ModelConfig {
    ModelConfig::sim_llama2_13b()
}

/// The Llama2-70B simulation configuration.
pub fn model_70b() -> ModelConfig {
    ModelConfig::sim_llama2_70b()
}

/// The Vicuna-7B simulation configuration (Fig. 10(c)).
pub fn model_vicuna() -> ModelConfig {
    ModelConfig::sim_vicuna_7b()
}

/// The paper's predictor design point (2-layer MLP, hidden 512, K = 4).
pub fn paper_predictor() -> PredictorConfig {
    PredictorConfig::default()
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.max(1e-12).ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_runs_end_to_end_small() {
        let cfg = ModelConfig {
            n_layers: 8,
            vocab_size: 512,
            ..ModelConfig::tiny()
        };
        let profile = DatasetProfile::qa().scaled(0.25);
        let predictor = PredictorConfig {
            hidden_dim: 32,
            ..PredictorConfig::default()
        };
        let trained = train_pipeline(&cfg, &profile, 5, predictor);
        assert!(trained.collection.tokens > 0);
        let wl = workload(&cfg, &profile, 2, 5);
        let dense = run_engine(
            EngineKind::Dense,
            &cfg,
            &profile,
            5,
            ModelVariant::Dense,
            &trained,
            &wl,
        );
        let spec = run_engine(
            EngineKind::SpecEeAr(SchedulingMode::TwoLevel),
            &cfg,
            &profile,
            5,
            ModelVariant::Dense,
            &trained,
            &wl,
        );
        assert!(spec.stats.avg_layers <= dense.stats.avg_layers);
        let agr = agreement_vs(&dense, &spec);
        assert!(agr > 0.6, "agreement {agr}");
        let cost = price(
            &dense.stats.meter,
            HardwareProfile::a100_80g(),
            FrameworkProfile::hugging_face(),
        );
        assert!(cost.tokens_per_s() > 0.0);
    }
}
