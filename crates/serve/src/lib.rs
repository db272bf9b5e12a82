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
//! # Three execution modes: replay, live and cluster
//!
//! **Replay** ([`batcher`], [`ContinuousBatcher::run`]): under greedy
//! decoding a sequence's tokens and exit layers do not depend on what else
//! shares the batch — batching changes *timing*, not values. The simulator
//! records each request's trace (tokens, per-token exit layers,
//! predictor/verify call counts) by running the real engines once per
//! request ([`trace`]), then replays the traces through the
//! admission/batching/pricing loop. Every token in a served run is a
//! genuinely computed token; only the clock is modelled. Replay is cheap
//! (one engine pass per request, then arbitrarily many batch-cap sweeps)
//! and exact *as long as* the replayed per-token overhead averages stand
//! in faithfully for what a real batch would execute per step.
//!
//! **Live** ([`live`], [`ContinuousBatcher::run_live`]): requests are
//! admitted into the slots of a `specee_batch::BatchedEngine` and decoded
//! for real — N sequences in lock-step through the layer stack, scheduled
//! predictors evaluated per sequence, the step ending at the rearmost
//! layer any sequence still needs. The step cost is priced from *measured*
//! per-layer runner counts and call totals, not per-request averages.
//! Live is the trustworthy mode whenever batch composition matters: it
//! measures the Cannikin batch-size decay instead of assuming trace
//! independence, at the price of re-decoding the workload for every
//! configuration swept. Use replay for broad sweeps, live to validate the
//! points that matter; both share [`ServeReport`]/[`ServeStats`], so the
//! curves overlay directly (`ablation_live_batch` does exactly that).
//!
//! **Cluster** (the `specee-cluster` crate, `specee serve --mode
//! cluster`): N live workers — one OS thread and one batched engine each
//! — behind a shared admission queue and a routing policy. Each worker
//! drives the very [`ServeLoop`] live mode runs, fed one arrival frontier
//! at a time instead of all at once, so it prices its measured steps with
//! the same [`StepCostModel`] and reports the same [`ServeReport`] shape,
//! merged across workers into one aggregate. Cluster numbers are trustworthy exactly where live numbers
//! are (every step is genuinely executed and priced), *plus* they are the
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
//! ```
//! use specee_metrics::{FrameworkProfile, HardwareProfile};
//! use specee_model::CostDims;
//! use specee_serve::{BatcherConfig, ContinuousBatcher, PoissonArrivals, RequestTrace, ServeRequest};
//!
//! // Two synthetic traces standing in for recorded engine runs.
//! let traces = vec![
//!     RequestTrace::dense(vec![5, 6, 7, 8], 32),
//!     RequestTrace::dense(vec![9, 10, 11], 32),
//! ];
//! let requests: Vec<ServeRequest> = PoissonArrivals::new(4.0, 11)
//!     .requests(&[(vec![1, 2, 3], 4), (vec![4, 5], 3)]);
//!
//! let config = BatcherConfig {
//!     max_batch: 2,
//!     hardware: HardwareProfile::a100_80g(),
//!     framework: FrameworkProfile::vllm(),
//!     cost: CostDims::llama2_7b(),
//! };
//! let report = ContinuousBatcher::new(config).run(&requests, &traces);
//! assert_eq!(report.completions.len(), 2);
//! assert!(report.stats().throughput_tok_s > 0.0);
//! ```

#![deny(missing_docs)]

pub mod batcher;
pub mod cost;
pub mod live;
pub mod request;
pub mod stats;
pub mod trace;

pub use batcher::{AdmissionPolicy, BatcherConfig, ContinuousBatcher, ServeReport};
pub use cost::StepCostModel;
pub use live::{LiveOutcome, ServeLoop};
pub use request::{Completion, PoissonArrivals, ServeRequest};
pub use stats::{ClassStats, ServeStats};
pub use trace::RequestTrace;
