//! Continuous-batching serving simulation for SpecEE.
//!
//! The paper evaluates SpecEE at batch size 1 (one stream per GPU). This
//! crate extends the reproduction to the *serving* regime the cloud
//! scenario motivates: many requests, Poisson arrivals, a continuous
//! batcher that admits a request as soon as a slot frees, and a cost model
//! in which each decode step reads every executed layer's weights **once
//! for the whole batch** (how real batched GEMV kernels behave).
//!
//! That amortization is exactly what erodes early exiting at scale: a
//! layer's weight read is saved only when *every* sequence in the batch
//! exits below it, so SpecEE's advantage decays from the full single-stream
//! speedup at batch 1 toward the compute-only savings at large batches.
//! The `ablation_batch_serving` bench quantifies the decay curve.
//!
//! # Two execution modes: live and cluster
//!
//! Both run the same [`ServeLoop`]; every number either mode reports comes
//! from a decode step that loop executed on a `specee_batch::BatchedEngine`
//! and priced from what the step measured.
//!
//! **Live** ([`live`], [`ContinuousBatcher::run_live`]): requests are
//! admitted into the engine's slots and decoded for real — N sequences in
//! lock-step through the layer stack, scheduled predictors evaluated per
//! sequence, the step ending at the rearmost layer any sequence still
//! needs. The step cost is priced from *measured* per-layer runner counts
//! and call totals, so the Cannikin batch-size decay is observed rather
//! than assumed. The dense reference is the same run with
//! `specee_draft::NoDraft` seated in every slot: no candidates, so no
//! predictor call, no verification and no draft term in the price — the
//! two [`ServeReport`]s differ only by what speculation did
//! (`ablation_batch_serving` and `ablation_live_batch` print both).
//!
//! **Cluster** (the `specee-cluster` crate, `specee serve --mode
//! cluster`): N live workers — one OS thread and one batched engine each
//! — behind a shared admission queue and a routing policy. Each worker
//! drives the very [`ServeLoop`] live mode runs, fed one arrival frontier
//! at a time instead of all at once, so it prices its measured steps with
//! the same [`StepCostModel`] and reports the same [`ServeReport`] shape,
//! merged across workers into one aggregate. Cluster numbers are
//! trustworthy exactly where live numbers are, *plus* they are the
//! only mode in which routing-policy effects — queue-wait tails, the
//! many-small-batches counter to the Cannikin decay — are real rather
//! than extrapolated. A one-worker round-robin cluster reproduces
//! [`ContinuousBatcher::run_live`] token-for-token and
//! completion-for-completion (asserted in `specee-cluster`'s parity
//! tests), so cluster sweeps can be anchored against single-engine runs.
//! Simulated worker clocks all start at zero; aggregate throughput is
//! total tokens over the rearmost worker's makespan.
//!
//! # Examples
//!
//! Two requests served live and densely on a tiny model:
//!
//! ```
//! use specee_batch::BatchedEngine;
//! use specee_core::predictor::{PredictorBank, PredictorConfig};
//! use specee_core::{ScheduleEngine, SpecEeConfig};
//! use specee_draft::NoDraft;
//! use specee_metrics::{FrameworkProfile, HardwareProfile};
//! use specee_model::{CostDims, ModelConfig};
//! use specee_serve::{BatcherConfig, ContinuousBatcher, PoissonArrivals, ServeRequest};
//! use specee_synth::{DatasetProfile, SyntheticLmBuilder};
//! use specee_tensor::rng::Pcg;
//!
//! let cfg = ModelConfig::tiny();
//! let n_layers = cfg.n_layers;
//! let requests: Vec<ServeRequest> = PoissonArrivals::new(4.0, 11)
//!     .requests(&[(vec![1, 2, 3], 4), (vec![4, 5], 3)]);
//!
//! let batcher = ContinuousBatcher::new(BatcherConfig {
//!     max_batch: 2,
//!     hardware: HardwareProfile::a100_80g(),
//!     framework: FrameworkProfile::vllm(),
//!     // Price the depth that is executed.
//!     cost: CostDims { n_layers, ..CostDims::llama2_7b() },
//! });
//! // `NoDraft` proposes nothing, so the bank is never scored.
//! let bank = PredictorBank::new(n_layers, &PredictorConfig::default(), &mut Pcg::seed(1));
//! let schedule = ScheduleEngine::all_layers(n_layers);
//! let mut engine = BatchedEngine::new(2, 16, n_layers, bank, schedule, SpecEeConfig::default());
//! let template = SyntheticLmBuilder::new(cfg, DatasetProfile::qa()).seed(3).build();
//!
//! let outcome = batcher.run_live(&requests, &mut engine, |_| (template.clone(), NoDraft));
//! assert_eq!(outcome.report.completions.len(), 2);
//! assert_eq!(outcome.outputs[0].tokens.len(), 4);
//! assert_eq!(outcome.report.avg_layers, n_layers as f64);
//! assert!(outcome.report.stats().throughput_tok_s > 0.0);
//! ```

#![deny(missing_docs)]

pub mod batcher;
pub mod cost;
pub mod live;
pub mod request;
pub mod stats;

pub use batcher::{AdmissionPolicy, BatcherConfig, ContinuousBatcher, ServeReport};
pub use cost::StepCostModel;
pub use live::{LiveOutcome, ServeLoop};
pub use request::{Completion, PoissonArrivals, ServeRequest};
pub use stats::{ClassStats, ServeStats};
