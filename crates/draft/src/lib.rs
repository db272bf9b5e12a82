//! Draft-model substrate: token trees and speculative-token sources.
//!
//! Speculative decoding (and SpecEE's T1) needs a *draft language model*
//! that proposes candidate tokens for the target model. This crate provides
//! the [`TokenTree`] structure (EAGLE-style level-wise trees), the
//! [`SpeculativeSource`] abstraction the engines consume (with [`NoDraft`],
//! the source that proposes nothing, for the dense reference), and a real
//! single-layer transformer [`DraftModel`] whose ops are metered at the
//! scale of the EAGLE draft head (≈ one target decoder layer, §7.4.2). The
//! oracle draft with a calibrated hit rate lives in `specee-synth`.

#![deny(missing_docs)]

pub mod model;
pub mod self_draft;
pub mod source;
pub mod tree;

pub use model::DraftModel;
pub use self_draft::{SelfDraft, SelfDraftSpec};
pub use source::{NoDraft, SpeculativeSource};
pub use tree::{TokenTree, TreeNode, TreeShape};
