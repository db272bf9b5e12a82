//! Calibrated synthetic substrate: languages, dataset profiles and the
//! steered language model.
//!
//! The reproduction cannot run Llama2-7B; what SpecEE's techniques consume
//! is the *trajectory of per-layer logits* and the statistics of when
//! tokens saturate. This crate builds a substrate with exactly those
//! properties, documented and pinned by tests:
//!
//! * [`SyntheticLanguage`] — a deterministic procedural order-2 Markov
//!   language shared by the model, the draft oracle and the workload
//!   generator.
//! * [`DatasetProfile`] — nine workload profiles standing in for the
//!   paper's evaluation datasets (§7.1.3).
//! * [`SaturationDriver`] — per-token saturation depths with the skewed
//!   marginal (Fig. 10) and AR(1) context similarity (Fig. 11).
//! * [`SyntheticLm`] — a real transformer whose hidden states are steered
//!   toward ground truth on the scripted schedule (the probability shift
//!   of §4.2), implementing `LayeredLm`.
//! * [`OracleDraft`] — a draft source with calibrated top-K hit rate.

#![deny(missing_docs)]

pub mod language;
pub mod lm;
pub mod noise;
pub mod oracle;
pub mod profile;
pub mod schedule;
pub mod vocab;
pub mod workload;

pub use language::SyntheticLanguage;
pub use lm::{SyntheticLm, SyntheticLmBuilder, TokenScript};
pub use noise::NoiseStream;
pub use oracle::OracleDraft;
pub use profile::DatasetProfile;
pub use schedule::{gamma, SaturationDriver};
pub use vocab::Vocabulary;
pub use workload::{generate_workload, Request};

#[cfg(test)]
mod calib;
