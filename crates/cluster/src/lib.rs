//! Multi-worker data-parallel serving with exit-aware routing.
//!
//! The live batched runtime (`specee-batch` + `specee-serve`'s live mode)
//! measures the **Cannikin effect**: one big batch pays for layers down
//! to the rearmost still-needed one, so SpecEE's per-batch speedup decays
//! toward 1.0× as the batch grows. This crate counters it at the
//! *deployment* layer: N workers — one OS thread and one
//! [`specee_batch::BatchedEngine`] each — serve many small batches in
//! parallel behind a shared admission queue, and a pluggable [`Router`]
//! decides which worker each request joins. Because the exit predictor's
//! depth estimate is also a *load* signal, the [`router::ExitAware`]
//! policy packs shallow-exiting traffic together so one deep request
//! cannot straggle a whole shallow batch.
//!
//! # The arrival-frontier protocol
//!
//! Workers are real threads (`std::sync::mpsc` channels, no external
//! dependencies) but every run is deterministic. Before routing a
//! request the coordinator synchronizes each worker to the request's
//! arrival time — the **frontier** — and collects a
//! [`router::WorkerSnapshot`]. A worker advances its simulated clock by
//! genuinely executing decode steps (priced with the shared
//! [`specee_serve::StepCostModel`]) until it reaches the frontier, and a
//! routed request only becomes admissible once the frontier passes its
//! arrival. Routing decisions, admission boundaries and priced steps are
//! therefore pure functions of the workload: OS scheduling affects
//! wall-clock speed, never results. Each worker serves through the same
//! [`specee_serve::ServeLoop`] that `ContinuousBatcher::run_live` runs
//! dry in one call, so a one-worker round-robin cluster is
//! completion-for-completion identical to it (asserted in
//! `tests/parity.rs`).
//!
//! Adaptation rides the same protocol: when [`ClusterConfig`] selects an
//! adaptive [`specee_control::ControllerPolicy`], every worker's engine
//! carries its own exit-threshold controller, fed from that worker's
//! verifier accept/reject stream strictly inside the deterministic
//! serving loop. Worker snapshots expose the controller's current mean
//! threshold and the final [`WorkerReport::controller`] summary records
//! where each worker's operating point converged.
//!
//! Requests carry optional absolute deadlines (expired ones are dropped
//! while queued and reported as timed out), can be cancelled mid-decode
//! ([`Cluster::cancel`] retires the sequence with its partial output),
//! and a panic on one worker — a poisoned request, a factory bug — is
//! contained: the worker fails, its outstanding requests are reported in
//! [`WorkerReport::failed`], and the rest of the cluster drains normally.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//!
//! use specee_cluster::{Cluster, ClusterConfig, ClusterRequest, RouterPolicy};
//! use specee_control::ControllerPolicy;
//! use specee_core::predictor::{PredictorBank, PredictorConfig};
//! use specee_core::{ScheduleEngine, SpecEeConfig};
//! use specee_metrics::{FrameworkProfile, HardwareProfile};
//! use specee_model::{CostDims, ModelConfig};
//! use specee_serve::{AdmissionPolicy, BatcherConfig, PoissonArrivals};
//! use specee_synth::{DatasetProfile, OracleDraft, SyntheticLm, SyntheticLmBuilder};
//! use specee_tensor::rng::Pcg;
//!
//! let n_layers = 8;
//! let cfg = ModelConfig { n_layers, vocab_size: 256, ..ModelConfig::tiny() };
//! let pcfg = PredictorConfig { hidden_dim: 16, ..PredictorConfig::default() };
//! let bank = PredictorBank::new(n_layers, &pcfg, &mut Pcg::seed(1));
//! let spec = SpecEeConfig { predictor: pcfg, ..SpecEeConfig::default() };
//! let config = ClusterConfig {
//!     workers: 2,
//!     page_size: 16,
//!     page_capacity: None,
//!     prefix_share: false,
//!     preemption: false,
//!     admission: AdmissionPolicy::Fcfs,
//!     batcher: BatcherConfig {
//!         max_batch: 2,
//!         hardware: HardwareProfile::a100_80g(),
//!         framework: FrameworkProfile::vllm(),
//!         cost: CostDims { n_layers, ..CostDims::llama2_7b() },
//!     },
//!     controller: ControllerPolicy::Static,
//!     gossip: true,
//!     trace: false,
//!     trace_sample: 1,
//!     slo: None,
//! };
//! let model_cfg = cfg.clone();
//! let mut cluster: Cluster<SyntheticLm, OracleDraft> = Cluster::spawn(
//!     &config,
//!     RouterPolicy::RoundRobin.build(),
//!     &bank,
//!     &ScheduleEngine::all_layers(n_layers),
//!     &spec,
//!     Arc::new(move |req| {
//!         let lm = SyntheticLmBuilder::new(model_cfg.clone(), DatasetProfile::qa())
//!             .seed(7)
//!             .build();
//!         let draft = OracleDraft::new(*lm.language(), 0.9, &model_cfg, req.request.id);
//!         (lm, draft)
//!     }),
//! );
//! for req in PoissonArrivals::new(10.0, 3).requests(&[(vec![1, 2], 4), (vec![3, 1], 4)]) {
//!     cluster.submit(ClusterRequest::new(req));
//! }
//! let report = cluster.drain();
//! assert_eq!(report.completed(), 2);
//! assert!(report.stats().throughput_tok_s > 0.0);
//! ```

#![deny(missing_docs)]

mod cluster;
pub mod report;
pub mod request;
pub mod router;
mod worker;

pub use cluster::{Cluster, ClusterConfig};
pub use report::ClusterReport;
pub use request::ClusterRequest;
pub use router::{Router, RouterPolicy, WorkerSnapshot};
pub use worker::{SeqFactory, WorkerReport};
