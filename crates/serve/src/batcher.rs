//! The continuous batcher's configuration, admission policy and report.
//! The loop that serves with them is [`crate::ServeLoop`], reached through
//! [`ContinuousBatcher::run_live`].

use serde::{Deserialize, Serialize};
use specee_metrics::{FrameworkProfile, HardwareProfile};
use specee_model::CostDims;
use specee_obs::SloSpec;

use crate::cost::StepCostModel;
use crate::request::Completion;
use crate::stats::ServeStats;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct BatcherConfig {
    /// Maximum concurrent sequences.
    pub max_batch: usize,
    /// Device being modelled.
    pub hardware: HardwareProfile,
    /// Host framework overhead profile.
    pub framework: FrameworkProfile,
    /// Full-scale dimensions to price.
    pub cost: CostDims,
}

/// How arrived requests are chosen when a slot frees: within the best
/// lane present, first come, first served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum AdmissionPolicy {
    /// First come, first served (no starvation).
    #[default]
    Fcfs,
}

/// Outcome of a served run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Per-request completions, in request-id order.
    pub completions: Vec<Completion>,
    /// Simulated wall-clock at the last completion, seconds.
    pub makespan_s: f64,
    /// Decode steps executed.
    pub steps: u64,
    /// Mean batch occupancy over decode steps.
    pub avg_occupancy: f64,
    /// Mean executed layers per (slot, token) pair.
    pub avg_layers: f64,
}

impl ServeReport {
    /// Aggregate latency/throughput statistics.
    pub fn stats(&self) -> ServeStats {
        ServeStats::from_report(self)
    }
}

/// A continuous batcher: the batch cap, the step cost model and an
/// optional SLO specification of one served deployment.
///
/// [`run_live`](Self::run_live) serves a request list with them on a
/// `specee_batch::BatchedEngine`: requests are admitted first come, first
/// served as soon as a slot frees, prefill is priced as one batched forward per admission
/// boundary, decode as synchronized steps in which every seated sequence
/// emits one token.
#[derive(Debug, Clone)]
pub struct ContinuousBatcher {
    pub(crate) config: BatcherConfig,
    pub(crate) model: StepCostModel,
    pub(crate) slo: Option<SloSpec>,
}

impl ContinuousBatcher {
    /// Creates an FCFS batcher for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    pub fn new(config: BatcherConfig) -> Self {
        assert!(config.max_batch > 0, "max_batch must be positive");
        let model = StepCostModel::new(
            config.cost,
            config.hardware.clone(),
            config.framework.clone(),
        );
        ContinuousBatcher {
            config,
            model,
            slo: None,
        }
    }

    /// Attaches an online SLO specification to the serving loop.
    ///
    /// [`run_live`](Self::run_live) then drives a
    /// [`specee_obs::SloTracker`] on the simulated clock: admission TTFTs
    /// and verifier accept/reject outcomes feed its rolling windows, the
    /// multi-window burn-rate alerts are evaluated at every clock
    /// advance, `SloFired`/`SloCleared` transitions land in the engine's
    /// trace stream (when a recorder is attached), and the tracker's
    /// pressure signal is pushed into the engine's controller via
    /// `set_slo_pressure` — so an `slo+*` controller policy bends its
    /// operating point while an objective burns. The tracker runs whether
    /// or not a recorder is attached, so traced and untraced runs stay
    /// bit-identical.
    pub fn with_slo(mut self, slo: SloSpec) -> Self {
        self.slo = Some(slo);
        self
    }

    /// The attached SLO specification, if any.
    pub fn slo(&self) -> Option<&SloSpec> {
        self.slo.as_ref()
    }

    /// The step cost model in use.
    pub fn cost_model(&self) -> &StepCostModel {
        &self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::StepSpec;
    use crate::request::{PoissonArrivals, ServeRequest};
    use specee_batch::BatchedEngine;
    use specee_core::predictor::{PredictorBank, PredictorConfig};
    use specee_core::{ScheduleEngine, SpecEeConfig};
    use specee_draft::NoDraft;
    use specee_model::ModelConfig;
    use specee_synth::{DatasetProfile, SyntheticLmBuilder};
    use specee_tensor::rng::Pcg;

    fn config(max_batch: usize) -> BatcherConfig {
        BatcherConfig {
            max_batch,
            hardware: HardwareProfile::a100_80g(),
            framework: FrameworkProfile::vllm(),
            cost: CostDims::llama2_7b(),
        }
    }

    /// Serves `requests` densely: a tiny model as deep as the priced dims,
    /// decoded live with nothing to speculate on (the bank is never
    /// scored, so it needs no training).
    fn serve_dense(b: &ContinuousBatcher, requests: &[ServeRequest]) -> ServeReport {
        let n_layers = b.config.cost.n_layers;
        let cfg = ModelConfig {
            n_layers,
            ..ModelConfig::tiny()
        };
        let template = SyntheticLmBuilder::new(cfg, DatasetProfile::qa())
            .seed(5)
            .build();
        let config = SpecEeConfig::default();
        let bank = PredictorBank::new(n_layers, &PredictorConfig::default(), &mut Pcg::seed(1));
        let schedule = ScheduleEngine::all_layers(n_layers);
        let mut engine =
            BatchedEngine::new(b.config.max_batch, 16, n_layers, bank, schedule, config);
        b.run_live(requests, &mut engine, |_| (template.clone(), NoDraft))
            .report
    }

    fn requests(n: usize, gen: usize) -> Vec<ServeRequest> {
        PoissonArrivals::new(50.0, 5).requests(
            &(0..n)
                .map(|_| (vec![1u32, 2, 3, 4], gen))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn all_requests_complete_with_sane_timings() {
        let reqs = requests(6, 12);
        let report = serve_dense(&ContinuousBatcher::new(config(3)), &reqs);
        assert_eq!(report.completions.len(), 6);
        for (c, r) in report.completions.iter().zip(&reqs) {
            assert_eq!(c.id, r.id);
            assert!(c.first_token_s >= r.arrival_s);
            assert!(c.finish_s >= c.first_token_s);
            assert_eq!(c.tokens, 12);
        }
        assert!(report.avg_occupancy > 1.0);
        assert!(report.avg_occupancy <= 3.0);
        assert_eq!(report.avg_layers, 32.0);
    }

    #[test]
    fn larger_batches_raise_throughput() {
        let reqs = requests(16, 16);
        let b1 = serve_dense(&ContinuousBatcher::new(config(1)), &reqs);
        let b8 = serve_dense(&ContinuousBatcher::new(config(8)), &reqs);
        assert!(
            b8.stats().throughput_tok_s > 1.5 * b1.stats().throughput_tok_s,
            "b8 {} vs b1 {}",
            b8.stats().throughput_tok_s,
            b1.stats().throughput_tok_s
        );
    }

    /// One priced step at context 64 in which slot `i` leaves after
    /// `exits[i]` of the 32 layers; a slot that leaves early drafted and
    /// scored three predictors on the way.
    fn step_latency(exits: &[usize]) -> f64 {
        let early = exits.iter().filter(|&&e| e < 32).count();
        ContinuousBatcher::new(config(exits.len()))
            .cost_model()
            .decode_step_latency(&StepSpec {
                layer_runners: (0..32)
                    .map(|l| exits.iter().filter(|&&e| e > l).count())
                    .collect(),
                ctx_lens: vec![64; exits.len()],
                lm_head_evals: exits.len() as f64,
                draft_slots: early,
                self_draft_slots: 0,
                predictor_calls: 3.0 * early as f64,
            })
    }

    #[test]
    fn early_exit_advantage_shrinks_with_batch() {
        // The same mean exit depth, 20 of 32 layers: alone the sequence
        // saves twelve layers of weight reads, co-batched the step still
        // streams every layer down to the rearmost exit.
        let at1 = step_latency(&[32]) / step_latency(&[20]);
        let at8 = step_latency(&[32; 8]) / step_latency(&[13, 15, 17, 19, 21, 23, 25, 27]);
        assert!(at1 > 1.05, "batch-1 speedup {at1}");
        assert!(at8 < at1, "batch-8 {at8} vs batch-1 {at1}");
    }

    #[test]
    fn unanimous_exits_still_win_at_large_batch() {
        // When every sequence exits at the same layer the weight savings
        // survive batching.
        assert!(step_latency(&[16; 8]) < step_latency(&[32; 8]));
    }

    #[test]
    fn batch_cap_respected() {
        let reqs = requests(10, 8);
        let report = serve_dense(&ContinuousBatcher::new(config(2)), &reqs);
        assert!(report.avg_occupancy <= 2.0);
    }

    #[test]
    fn gen_len_one_finishes_at_prefill() {
        let reqs = PoissonArrivals::new(10.0, 3).requests(&[(vec![1, 2, 3], 1)]);
        let report = serve_dense(&ContinuousBatcher::new(config(2)), &reqs);
        assert_eq!(report.completions.len(), 1);
        assert_eq!(
            report.completions[0].finish_s,
            report.completions[0].first_token_s
        );
        assert_eq!(report.steps, 0);
    }

    #[test]
    fn fcfs_admits_in_arrival_order() {
        let reqs = requests(6, 8);
        let report = serve_dense(&ContinuousBatcher::new(config(1)), &reqs);
        // At cap 1, FCFS finishes strictly in arrival (= id) order.
        let mut finishes: Vec<(u64, f64)> = report
            .completions
            .iter()
            .map(|c| (c.id, c.finish_s))
            .collect();
        finishes.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
        let order: Vec<u64> = finishes.iter().map(|(id, _)| *id).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
    }
}
