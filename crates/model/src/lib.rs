//! From-scratch decoder-only transformer inference engine.
//!
//! This crate is the substrate standing in for the paper's Llama2 models:
//! a real Llama-style decoder (RMSNorm → RoPE attention → gated FFN,
//! pre-norm residuals, tied LM head) executed at laptop-scale dimensions
//! and metered at full scale through the cost-twin mechanism in
//! [`metering`]. It exposes per-layer stepping through [`traits::LayeredLm`]
//! so the SpecEE engine can interleave predictors with decoder layers, and
//! it implements the orthogonal substrates the paper composes with:
//! contiguous vs paged KV caches ([`kv`], the HF/vllm distinction),
//! group-quantized weights ([`linear`], AWQ) and sparse-activation FFNs
//! ([`ffn`], PowerInfer).
//!
//! # Examples
//!
//! ```
//! use specee_model::{ModelConfig, Transformer, transformer::prefill};
//! use specee_model::traits::LayeredLm;
//! use specee_metrics::Meter;
//! use specee_tensor::rng::Pcg;
//!
//! let mut model = Transformer::random(ModelConfig::tiny(), &mut Pcg::seed(0));
//! let mut meter = Meter::new();
//! let hidden = prefill(&mut model, &[1, 2, 3], &mut meter);
//! let logits = model.final_logits(&hidden, &mut meter);
//! assert_eq!(logits.len(), model.config().vocab_size);
//! ```

#![deny(missing_docs)]

pub mod attention;
pub mod batch;
pub mod calibration;
pub mod config;
pub mod ffn;
pub mod kv;
pub mod linear;
pub mod metering;
pub mod rope;
pub mod traits;
pub mod transformer;
pub mod weights;

pub use attention::TreeKv;
pub use batch::{KvStats, PageLedger, PrefixIndex, SlotPool};
pub use calibration::{collect_awq_tap, quantize_awq, ActivationTap};
pub use config::{CostDims, ModelConfig, TokenId};
pub use ffn::{FfnMode, FfnRouter};
pub use kv::{KvCache, KvLayout, SkipKvPolicy};
pub use linear::LinearOp;
pub use metering::OpScale;
pub use traits::LayeredLm;
pub use transformer::{prefill, Transformer};
pub use weights::{LayerWeights, ModelWeights};
