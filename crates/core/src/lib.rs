//! SpecEE: speculative early exiting for fast LLM inference.
//!
//! This crate implements the paper's contribution on top of the substrate
//! crates:
//!
//! * **T1, algorithm** — [`features`] + [`predictor`] + [`verify`]: a draft
//!   model reduces the predictor's search space from the full vocabulary to
//!   K candidate tokens; a 2-layer MLP scores 12 features per layer and a
//!   full-LM-head verification guards every exit.
//! * **T2, system** — [`scheduler`]: offline (skewed exit distribution) and
//!   online (±2-layer context similarity over the last 5 tokens) predictor
//!   scheduling.
//! * **T3, mapping** — [`mapping`] + the speculative engine: token-tree
//!   paths merge into hyper-tokens whose exit is the rearmost node exit,
//!   turning exponential mapping complexity into linear.
//!
//! [`engine`] hosts the runnable decoders, all on the one greedy loop of
//! [`engine::decode`]; [`baselines`] (AdaInfer, RAEE) and [`skip_layer`]
//! (MoD, D-LLM, CALM) the comparators, each a rule on that loop;
//! [`collect`] the offline feature-collection and training pipeline of
//! §7.4.4, like every collector a visitor of [`engine::dense_probe`].
//!
//! # Examples
//!
//! ```
//! use specee_core::collect::{collect_training_data, train_bank};
//! use specee_core::engine::SpecEeEngine;
//! use specee_core::predictor::{PredictorBank, PredictorConfig};
//! use specee_core::SpecEeConfig;
//! use specee_model::ModelConfig;
//! use specee_nn::TrainConfig;
//! use specee_synth::{DatasetProfile, OracleDraft, SyntheticLmBuilder};
//! use specee_tensor::rng::Pcg;
//!
//! let cfg = ModelConfig { n_layers: 8, ..ModelConfig::tiny() };
//! let mut lm = SyntheticLmBuilder::new(cfg.clone(), DatasetProfile::qa()).seed(1).build();
//! let mut draft = OracleDraft::new(*lm.language(), 0.9, &cfg, 2);
//!
//! // Offline: collect features, train predictors (§7.4.4).
//! let data = collect_training_data(&mut lm, &mut draft, &[(vec![1, 2, 3], 8)], 4);
//! let pcfg = PredictorConfig { hidden_dim: 32, ..PredictorConfig::default() };
//! let mut bank = PredictorBank::new(8, &pcfg, &mut Pcg::seed(3));
//! train_bank(&mut bank, &data.samples, 1.0, &TrainConfig::default(), 4);
//!
//! // Online: decode with speculative early exiting.
//! let config = SpecEeConfig { predictor: pcfg, ..SpecEeConfig::default() };
//! let schedule = config.build_schedule(8, Some(&data.exit_frequencies));
//! let mut engine = SpecEeEngine::new(lm, draft, bank, schedule, config);
//! let out = engine.generate(&[1, 2, 3], 8);
//! assert_eq!(out.tokens.len(), 8);
//! ```

#![deny(missing_docs)]

pub mod baselines;
pub mod collect;
pub mod config;
pub mod engine;
pub mod features;
pub mod mapping;
pub mod output;
pub mod predictor;
pub mod scheduler;
pub mod skip_layer;
pub mod traffic;
pub mod verify;

pub use config::{SchedulingMode, SpecEeConfig};
pub use engine::{DenseEngine, ExitFeedback, ExitScan, SpecEeEngine, SpeculativeEngine};
pub use features::{ExitFeatures, FeatureTracker};
pub use mapping::{hyper_tokens, HyperToken, TreeExitState};
pub use output::{agreement, GenOutput, RunStats};
pub use predictor::{ExitPredictor, PredictorBank, PredictorConfig};
pub use scheduler::{OfflineScheduler, OnlineScheduler, ScheduleEngine};
pub use skip_layer::{CalmEngine, DLlmEngine, MoDEngine};
pub use traffic::{Lane, TrafficClass};
pub use verify::verify_exit;
