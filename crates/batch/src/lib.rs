//! Live lock-step batched decoding with per-sequence speculative early
//! exit.
//!
//! The serving loop in `specee-serve` owns the clock, the queues and the
//! prices; this crate *executes* the batched regime it serves with. A
//! [`BatchedEngine`] seats up to `max_batch` sequences — each slot one
//! record of model and generation state, its KV pages accounted beside it
//! in a [`specee_model::PageLedger`] — and decodes them in lock-step: one shared sweep over the decoder layers per step, each
//! sequence participating only while it still needs the layer. Per layer,
//! every pending sequence runs its own scheduled predictor
//! ([`specee_core::ExitScan`] — the exact decision dataflow of the
//! single-stream `SpecEeEngine`, so batch-1 output is token-identical).
//! Sequences *fire* independently; the step as a whole executes down to
//! the rearmost layer any sequence still needs — the Cannikin effect of
//! the paper's cloud scenario, measured from live exits instead of
//! assumed from traces.
//!
//! Each decode step yields a [`BatchStep`] carrying the measured per-layer
//! runner counts, context lengths, and draft/predictor/LM-head call
//! counts; `specee-serve` prices those with its batched cost model. A
//! sequence seated with `specee_draft::NoDraft` proposes nothing, so it
//! decodes — and is priced — densely: the reference every served speedup
//! is measured against runs through this same engine.
//!
//! The engine also closes the control loop: every step's verifier
//! accept/reject events ride in [`BatchStep::feedback`], and an attached
//! [`specee_control::Controller`] ([`BatchedEngine::set_controller`])
//! consumes them — per sequence, in slot order — to adapt the shared
//! predictor bank's exit thresholds online. The `static` policy is a
//! bit-identical no-op (asserted in `tests/parity.rs`).
//!
//! # Examples
//!
//! ```
//! use specee_batch::{Admission, BatchedEngine};
//! use specee_core::predictor::{PredictorBank, PredictorConfig};
//! use specee_core::{ScheduleEngine, SpecEeConfig};
//! use specee_model::ModelConfig;
//! use specee_synth::{DatasetProfile, OracleDraft, SyntheticLmBuilder};
//! use specee_tensor::rng::Pcg;
//!
//! let cfg = ModelConfig { n_layers: 8, ..ModelConfig::tiny() };
//! let pcfg = PredictorConfig { hidden_dim: 16, ..PredictorConfig::default() };
//! let bank = PredictorBank::new(8, &pcfg, &mut Pcg::seed(1));
//! let config = SpecEeConfig { predictor: pcfg, ..SpecEeConfig::default() };
//! let mut engine = BatchedEngine::new(
//!     2, 16, 8, bank, ScheduleEngine::all_layers(8), config,
//! );
//! let lm = SyntheticLmBuilder::new(cfg.clone(), DatasetProfile::qa()).seed(3).build();
//! let draft = OracleDraft::new(*lm.language(), 0.9, &cfg, 3);
//! assert!(matches!(
//!     engine.admit(0, lm, draft, &[1, 2, 3], 6),
//!     Admission::Seated { slot: 0 }
//! ));
//! let outputs = engine.drain();
//! assert_eq!(outputs[0].tokens.len(), 6);
//! ```

#![deny(missing_docs)]

pub mod engine;

pub use engine::{Admission, BatchStep, BatchedEngine, BatchedOutput};
