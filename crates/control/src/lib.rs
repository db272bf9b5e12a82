//! Online adaptive exit-threshold control for SpecEE runtimes.
//!
//! SpecEE's speedup sits on predictor thresholds tuned offline, but
//! serving traffic drifts — prompt domain, sequence length, batch mix —
//! so a static operating point either leaks accuracy (thresholds too
//! loose for the new traffic) or leaves exit opportunities on the table
//! (too strict). This crate closes the loop at serve time: a
//! [`Controller`] consumes the deterministic feedback streams the decode
//! loop already produces — the verifier's per-fire accept/reject
//! outcomes ([`specee_core::ExitFeedback`], emitted by
//! [`specee_core::ExitScan`]) and per-token executed depths — and steers
//! the per-layer thresholds of a [`specee_core::PredictorBank`] while
//! decoding runs.
//!
//! Three policies ship behind [`ControllerPolicy`]:
//!
//! * **`static`** — thresholds never move; its `apply` is a no-op, so a
//!   batch-1 run with a static controller is bit-identical to an
//!   uncontrolled run (asserted in `specee-batch`'s parity tests).
//! * **`pid`** — per-layer PI loops tracking a target *false-exit rate*
//!   (fraction of predictor fires the full-LM-head verifier rejects),
//!   with a small downward drift on idle full-depth tokens so a
//!   too-strict threshold cannot starve the loop of feedback forever.
//! * **`bandit`** — Thompson sampling over a small threshold grid
//!   (including a `1.0` safety arm that disables exits), one decision
//!   epoch every few tokens; reward is work saved per token centered at
//!   the no-exit baseline (rejected fires priced in, so bleeding arms
//!   score *below* "exits off"), zeroed whenever the verifier accept
//!   rate undercuts an accuracy floor — the EESD-style control
//!   mechanism.
//!
//! Any of the three can additionally be wrapped in [`SloAdaptive`]
//! (`slo+static`, `slo+pid`, `slo+bandit`; what the CLI's `--slo`
//! builds): the serving tier's burn-rate tracker
//! (`specee_obs::slo::SloTracker`) pushes a pressure signal in
//! `[-1, 1]` down through [`Controller::set_slo_pressure`], and the
//! wrapper bends the wrapped policy's operating point toward an
//! aggressive floor while a latency SLO burns (drain the queue) or
//! toward exits-off while a false-exit SLO burns — and is exact
//! pass-through at zero pressure.
//!
//! Controller state is keyed by **traffic class**: runtimes attach a
//! [`ClassedController`] ([`ControllerPolicy::build_classed`]) holding
//! one full policy instance per observed [`specee_core::TrafficClass`]
//! — untagged traffic lands in the lazily
//! created default class and behaves exactly like a single instance,
//! while mixed traffic gets per-class PID loops / bandit posteriors
//! instead of one blurred operating point. Per-class evidence deltas
//! ([`ClassEvidence`]) drain out of the same structure for cross-worker
//! gossip, and remote deltas merge back in via [`Controller::absorb`].
//!
//! Runtimes consume controllers per engine: `specee-batch`'s
//! `BatchedEngine` drains each seated sequence's feedback after every
//! lock-step decode step (per class, in slot order) and re-applies each
//! class's thresholds at the step boundary; `specee-cluster` builds one
//! classed controller per worker
//! ([`ControllerPolicy::build_classed_for_worker`], with
//! `(worker, class)`-decorrelated bandit seeds) whose state advances
//! inside the worker's deterministic serving loop, so adaptation — and
//! the coordinator's evidence gossip — rides the arrival-frontier
//! protocol unchanged. The CLI exposes everything as
//! `specee generate/serve --controller <policy>`.
//!
//! # Examples
//!
//! ```
//! use specee_control::{Controller, ControllerPolicy};
//! use specee_core::predictor::{PredictorBank, PredictorConfig};
//! use specee_core::{ExitFeedback, TrafficClass};
//! use specee_tensor::rng::Pcg;
//!
//! let pcfg = PredictorConfig::default();
//! let mut bank = PredictorBank::new(8, &pcfg, &mut Pcg::seed(1));
//! let mut ctl = ControllerPolicy::pid().build(bank.len(), pcfg.threshold);
//!
//! // The serving loop feeds verify outcomes; a rejection-heavy stream
//! // at layer 2 tightens that layer's threshold.
//! for _ in 0..12 {
//!     ctl.observe(&ExitFeedback {
//!         class: TrafficClass::DEFAULT,
//!         layer: 2,
//!         score: 0.6,
//!         threshold: 0.5,
//!         accepted: false,
//!     });
//!     ctl.note_token(3, 8);
//! }
//! ctl.apply(&mut bank);
//! assert!(bank.layer(2).threshold() > pcfg.threshold);
//! assert_eq!(ctl.summary().rejects, 12);
//! ```

#![deny(missing_docs)]

mod bandit;
mod classed;
mod controller;
mod pid;
mod policy;
mod slo_adaptive;

pub use bandit::{BanditConfig, BanditController};
pub use classed::{ClassEvidence, ClassedController};
pub use controller::{Controller, ControllerSummary, StaticController};
pub use pid::{PidConfig, PidController};
pub use policy::ControllerPolicy;
pub use slo_adaptive::{SloAdaptive, SloAdaptiveConfig};
