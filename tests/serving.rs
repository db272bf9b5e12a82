//! Integration tests for the serving extension: the live loop's
//! dense-vs-SpecEE contract on a small real workload, plus loop-level
//! properties. Both sides of every comparison are served by
//! `ContinuousBatcher::run_live`; the dense side seats `NoDraft`.

use proptest::prelude::*;
use specee::batch::BatchedEngine;
use specee::core::collect::{collect_training_data, train_bank};
use specee::core::predictor::{PredictorBank, PredictorConfig};
use specee::core::{ScheduleEngine, SpecEeConfig};
use specee::draft::NoDraft;
use specee::metrics::{FrameworkProfile, HardwareProfile};
use specee::model::{CostDims, ModelConfig, TokenId};
use specee::nn::TrainConfig;
use specee::serve::{BatcherConfig, ContinuousBatcher, PoissonArrivals, ServeReport, ServeRequest};
use specee::synth::{DatasetProfile, OracleDraft, SyntheticLm, SyntheticLmBuilder};
use specee::tensor::rng::Pcg;

/// A batcher pricing the llama2-7b dims at the depth that is executed.
fn batcher(max_batch: usize, n_layers: usize) -> ContinuousBatcher {
    ContinuousBatcher::new(BatcherConfig {
        max_batch,
        hardware: HardwareProfile::a100_80g(),
        framework: FrameworkProfile::vllm(),
        cost: CostDims {
            n_layers,
            ..CostDims::llama2_7b()
        },
    })
}

/// A small real workload: an 8-layer model, its trained bank and schedule,
/// and `n` requests of `gen` tokens.
struct Workload {
    cfg: ModelConfig,
    template: SyntheticLm,
    bank: PredictorBank,
    schedule: ScheduleEngine,
    config: SpecEeConfig,
    seed: u64,
    specs: Vec<(Vec<TokenId>, usize)>,
}

fn workload(seed: u64, n: usize, gen: usize) -> Workload {
    let cfg = ModelConfig {
        n_layers: 8,
        vocab_size: 256,
        ..ModelConfig::tiny()
    };
    let template = SyntheticLmBuilder::new(cfg.clone(), DatasetProfile::qa())
        .seed(seed)
        .build();
    let mut lm = template.clone();
    let mut draft = OracleDraft::new(*lm.language(), 0.9, &cfg, seed);
    let prompts: Vec<(Vec<TokenId>, usize)> =
        (0..6u32).map(|i| (vec![1 + i, 2 + i], 8usize)).collect();
    let data = collect_training_data(&mut lm, &mut draft, &prompts, 4);
    let pcfg = PredictorConfig {
        hidden_dim: 16,
        ..PredictorConfig::default()
    };
    let mut bank = PredictorBank::new(8, &pcfg, &mut Pcg::seed(seed));
    train_bank(&mut bank, &data.samples, 1.0, &TrainConfig::default(), seed);
    let config = SpecEeConfig {
        predictor: pcfg,
        ..SpecEeConfig::default()
    };
    let schedule = config.build_schedule(8, Some(&data.exit_frequencies));
    let specs = (0..n as u32)
        .map(|i| (vec![2 + i, 5 + i, 1 + i], gen))
        .collect();
    Workload {
        cfg,
        template,
        bank,
        schedule,
        config,
        seed,
        specs,
    }
}

impl Workload {
    fn engine<D: specee::draft::SpeculativeSource>(
        &self,
        max_batch: usize,
    ) -> BatchedEngine<SyntheticLm, D> {
        BatchedEngine::new(
            max_batch,
            16,
            8,
            self.bank.clone(),
            self.schedule.clone(),
            self.config.clone(),
        )
    }

    /// Serves `requests` live with the oracle draft.
    fn serve_specee(&self, max_batch: usize, requests: &[ServeRequest]) -> ServeReport {
        batcher(max_batch, 8)
            .run_live(requests, &mut self.engine(max_batch), |_| {
                let draft = OracleDraft::new(*self.template.language(), 0.9, &self.cfg, self.seed);
                (self.template.clone(), draft)
            })
            .report
    }

    /// Serves `requests` live on the same bank and schedule with nothing
    /// to speculate on.
    fn serve_dense(&self, max_batch: usize, requests: &[ServeRequest]) -> ServeReport {
        batcher(max_batch, 8)
            .run_live(requests, &mut self.engine(max_batch), |_| {
                (self.template.clone(), NoDraft)
            })
            .report
    }
}

#[test]
fn real_traces_replay_end_to_end() {
    let w = workload(31, 6, 10);
    let requests = PoissonArrivals::new(20.0, 7).requests(&w.specs);
    let d = w.serve_dense(3, &requests);
    let s = w.serve_specee(3, &requests);
    assert_eq!(d.completions.len(), 6);
    assert_eq!(s.completions.len(), 6);
    // Token conservation: every request decodes its gen_len tokens.
    assert_eq!(d.stats().tokens, 6 * 10);
    assert_eq!(s.stats().tokens, 6 * 10);
    // SpecEE exits below full depth on this substrate, so the served run
    // must be no slower than dense at batch 3.
    assert!(
        s.makespan_s <= d.makespan_s * 1.02,
        "{} vs {}",
        s.makespan_s,
        d.makespan_s
    );
    assert_eq!(d.avg_layers, 8.0);
    assert!(s.avg_layers < d.avg_layers);
}

#[test]
fn serving_replay_is_deterministic() {
    let w = workload(33, 5, 8);
    let requests = PoissonArrivals::new(10.0, 5).requests(&w.specs);
    assert_eq!(w.serve_specee(2, &requests), w.serve_specee(2, &requests));
}

/// Serves `requests` densely on the stock tiny model (the bank is never
/// scored, so it needs no training), returning the batcher with the report.
fn serve_tiny_dense(
    max_batch: usize,
    requests: &[ServeRequest],
) -> (ContinuousBatcher, ServeReport) {
    let cfg = ModelConfig::tiny();
    let n_layers = cfg.n_layers;
    let template = SyntheticLmBuilder::new(cfg, DatasetProfile::qa())
        .seed(9)
        .build();
    let bank = PredictorBank::new(n_layers, &PredictorConfig::default(), &mut Pcg::seed(1));
    let schedule = ScheduleEngine::all_layers(n_layers);
    let mut engine = BatchedEngine::new(
        max_batch,
        16,
        n_layers,
        bank,
        schedule,
        SpecEeConfig::default(),
    );
    let b = batcher(max_batch, n_layers);
    let outcome = b.run_live(requests, &mut engine, |_| (template.clone(), NoDraft));
    (b, outcome.report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Raising the batch cap never slows the served run (same requests, same
    /// arrivals; more parallelism can only help under amortized pricing).
    #[test]
    fn larger_cap_never_slower(seed in 0u64..100, gen in 2usize..12) {
        let n = 8;
        let specs: Vec<(Vec<TokenId>, usize)> =
            (0..n).map(|i| (vec![i as u32 + 1, 2], gen)).collect();
        let requests = PoissonArrivals::new(50.0, seed).requests(&specs);
        let (_, small) = serve_tiny_dense(2, &requests);
        let (_, large) = serve_tiny_dense(8, &requests);
        prop_assert!(large.makespan_s <= small.makespan_s * 1.0001);
    }

    /// Timing milestones are ordered for every completion, and completions
    /// arrive in id order.
    #[test]
    fn completion_milestones_ordered(seed in 0u64..100, rate in 1.0f64..40.0) {
        let specs: Vec<(Vec<TokenId>, usize)> =
            (0..6).map(|i| (vec![i as u32 + 1], 5)).collect();
        let requests = PoissonArrivals::new(rate, seed).requests(&specs);
        let (_, report) = serve_tiny_dense(3, &requests);
        for (c, r) in report.completions.iter().zip(&requests) {
            prop_assert_eq!(c.id, r.id);
            prop_assert!(c.arrival_s <= c.first_token_s);
            prop_assert!(c.first_token_s <= c.finish_s);
            prop_assert!(c.finish_s <= report.makespan_s + 1e-9);
        }
    }

    /// A request arriving when the server is idle has TTFT equal to one
    /// batched prefill, independent of the arrival gap.
    #[test]
    fn idle_server_ttft_is_prefill_only(gap in 0.5f64..10.0) {
        let specs = [(vec![1u32, 2, 3], 4usize), (vec![4u32, 5, 6], 4)];
        // Second request arrives long after the first finishes.
        let requests = vec![
            ServeRequest { id: 0, prompt: specs[0].0.clone(), gen_len: 4, arrival_s: 0.0 },
            ServeRequest { id: 1, prompt: specs[1].0.clone(), gen_len: 4, arrival_s: gap },
        ];
        let (b, report) = serve_tiny_dense(4, &requests);
        let prefill = b.cost_model().prefill_latency(&[3]);
        prop_assert!((report.completions[0].ttft_s() - prefill).abs() < 1e-9);
        prop_assert!((report.completions[1].ttft_s() - prefill).abs() < 1e-9);
    }
}
