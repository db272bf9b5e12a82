//! Model configuration: executed dimensions plus an optional full-scale
//! "cost twin".
//!
//! The reproduction executes real transformer math at laptop-scale
//! dimensions, but meters every operation at the dimensions of the model it
//! stands in for (Table 3 of the paper). `ModelConfig` therefore carries
//! the *executed* dims and an optional [`CostDims`] twin; every op site
//! derives FLOPs/bytes from the twin when present.

use serde::{Deserialize, Serialize};

/// Token identifier within the model vocabulary.
pub type TokenId = u32;

/// Full-scale dimensions used for cost metering (the paper's Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostDims {
    /// Hidden dimension.
    pub hidden_dim: usize,
    /// Number of attention heads.
    pub n_heads: usize,
    /// Number of key/value heads (GQA; equals `n_heads` for MHA).
    pub n_kv_heads: usize,
    /// Decoder layer count.
    pub n_layers: usize,
    /// FFN intermediate dimension.
    pub ffn_dim: usize,
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Bits per weight element (16 for f16, 4 for AWQ int4, ...).
    pub weight_bits: usize,
}

impl CostDims {
    /// Llama2-7B (Table 3: 4096 hidden, 32 heads, 32 layers).
    pub fn llama2_7b() -> Self {
        CostDims {
            hidden_dim: 4096,
            n_heads: 32,
            n_kv_heads: 32,
            n_layers: 32,
            ffn_dim: 11008,
            vocab_size: 32000,
            weight_bits: 16,
        }
    }

    /// Llama2-13B (5120 hidden, 40 heads, 40 layers).
    pub fn llama2_13b() -> Self {
        CostDims {
            hidden_dim: 5120,
            n_heads: 40,
            n_kv_heads: 40,
            n_layers: 40,
            ffn_dim: 13824,
            vocab_size: 32000,
            weight_bits: 16,
        }
    }

    /// Llama2-70B (8192 hidden, 64 heads, 8 KV heads, 80 layers).
    pub fn llama2_70b() -> Self {
        CostDims {
            hidden_dim: 8192,
            n_heads: 64,
            n_kv_heads: 8,
            n_layers: 80,
            ffn_dim: 28672,
            vocab_size: 32000,
            weight_bits: 16,
        }
    }

    /// The same dims with a different weight precision (AWQ int4 twin).
    pub fn with_weight_bits(mut self, bits: usize) -> Self {
        self.weight_bits = bits;
        self
    }

    /// Bytes of one weight element at this precision (may be fractional for
    /// sub-byte precisions, hence `f64`).
    pub fn weight_bytes_per_elem(&self) -> f64 {
        self.weight_bits as f64 / 8.0
    }

    /// Key/value hidden dimension (`n_kv_heads × head_dim`).
    pub fn kv_dim(&self) -> usize {
        self.hidden_dim / self.n_heads * self.n_kv_heads
    }

    /// Total weight payload in bytes: embeddings, decoder layers, LM head.
    pub fn weight_bytes_total(&self) -> f64 {
        let h = self.hidden_dim as f64;
        let kv = self.kv_dim() as f64;
        let attn = h * h * 2.0 + h * kv * 2.0;
        let ffn = 3.0 * h * self.ffn_dim as f64;
        let per_layer = attn + ffn + 2.0 * h; // + two norm gains
        let embed = self.vocab_size as f64 * h;
        let lm_head = self.vocab_size as f64 * h;
        (per_layer * self.n_layers as f64 + embed + lm_head) * self.weight_bytes_per_elem()
    }

    /// KV-cache bytes for one token position across all layers (f16 cache).
    pub fn kv_bytes_per_token(&self) -> f64 {
        2.0 * self.kv_dim() as f64 * self.n_layers as f64 * 2.0
    }
}

/// Configuration of an executable model.
///
/// # Examples
///
/// ```
/// use specee_model::ModelConfig;
///
/// let cfg = ModelConfig::sim_llama2_7b();
/// assert_eq!(cfg.n_layers, 32);
/// assert_eq!(cfg.head_dim(), cfg.hidden_dim / cfg.n_heads);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Model name for reports.
    pub name: String,
    /// Executed hidden dimension.
    pub hidden_dim: usize,
    /// Executed attention head count.
    pub n_heads: usize,
    /// Executed decoder layer count.
    pub n_layers: usize,
    /// Executed FFN intermediate dimension.
    pub ffn_dim: usize,
    /// Executed vocabulary size.
    pub vocab_size: usize,
    /// Maximum context length.
    pub context_len: usize,
    /// RoPE base frequency.
    pub rope_theta: f32,
    /// Full-scale metering twin; `None` meters at executed dims.
    pub cost: Option<CostDims>,
}

impl ModelConfig {
    /// A tiny configuration for unit tests.
    pub fn tiny() -> Self {
        ModelConfig {
            name: "tiny".to_string(),
            hidden_dim: 32,
            n_heads: 4,
            n_layers: 4,
            ffn_dim: 64,
            vocab_size: 128,
            context_len: 128,
            rope_theta: 10000.0,
            cost: None,
        }
    }

    /// Simulation stand-in for Llama2-7B: executed at reduced width, layer
    /// count preserved (exit-layer behaviour depends on depth), metered at
    /// the 7B twin.
    pub fn sim_llama2_7b() -> Self {
        ModelConfig {
            name: "Llama2-7B(sim)".to_string(),
            hidden_dim: 128,
            n_heads: 4,
            n_layers: 32,
            ffn_dim: 256,
            vocab_size: 2048,
            context_len: 1024,
            rope_theta: 10000.0,
            cost: Some(CostDims::llama2_7b()),
        }
    }

    /// Simulation stand-in for Llama2-13B (40 layers).
    pub fn sim_llama2_13b() -> Self {
        ModelConfig {
            name: "Llama2-13B(sim)".to_string(),
            hidden_dim: 128,
            n_heads: 4,
            n_layers: 40,
            ffn_dim: 256,
            vocab_size: 2048,
            context_len: 1024,
            rope_theta: 10000.0,
            cost: Some(CostDims::llama2_13b()),
        }
    }

    /// Simulation stand-in for Llama2-70B (80 layers).
    pub fn sim_llama2_70b() -> Self {
        ModelConfig {
            name: "Llama2-70B(sim)".to_string(),
            hidden_dim: 128,
            n_heads: 4,
            n_layers: 80,
            ffn_dim: 256,
            vocab_size: 2048,
            context_len: 1024,
            rope_theta: 10000.0,
            cost: Some(CostDims::llama2_70b()),
        }
    }

    /// Simulation stand-in for Vicuna-7B (same architecture as Llama2-7B;
    /// used by Fig. 10(c) for the second exit-distribution).
    pub fn sim_vicuna_7b() -> Self {
        let mut cfg = Self::sim_llama2_7b();
        cfg.name = "Vicuna-7B(sim)".to_string();
        cfg
    }

    /// Dimension of one attention head.
    ///
    /// # Panics
    ///
    /// Panics if `hidden_dim` is not divisible by `n_heads`.
    pub fn head_dim(&self) -> usize {
        assert!(
            self.hidden_dim.is_multiple_of(self.n_heads),
            "hidden_dim {} not divisible by n_heads {}",
            self.hidden_dim,
            self.n_heads
        );
        self.hidden_dim / self.n_heads
    }

    /// Replaces the cost twin.
    pub fn with_cost(mut self, cost: CostDims) -> Self {
        self.cost = Some(cost);
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.hidden_dim == 0 || self.n_layers == 0 || self.vocab_size == 0 {
            return Err("dimensions must be positive".to_string());
        }
        if !self.hidden_dim.is_multiple_of(self.n_heads) {
            return Err(format!(
                "hidden_dim {} not divisible by n_heads {}",
                self.hidden_dim, self.n_heads
            ));
        }
        if self.context_len == 0 {
            return Err("context_len must be positive".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        for cfg in [
            ModelConfig::tiny(),
            ModelConfig::sim_llama2_7b(),
            ModelConfig::sim_llama2_13b(),
            ModelConfig::sim_llama2_70b(),
        ] {
            cfg.validate().unwrap();
        }
    }

    #[test]
    fn cost_twins_match_paper_table3() {
        let c7 = CostDims::llama2_7b();
        assert_eq!((c7.hidden_dim, c7.n_heads, c7.n_layers), (4096, 32, 32));
        let c13 = CostDims::llama2_13b();
        assert_eq!((c13.hidden_dim, c13.n_heads, c13.n_layers), (5120, 40, 40));
        let c70 = CostDims::llama2_70b();
        assert_eq!((c70.hidden_dim, c70.n_heads, c70.n_layers), (8192, 64, 80));
    }

    #[test]
    fn weight_totals_are_plausible() {
        // Llama2-7B at f16 is ~13.5 GB.
        let gb = CostDims::llama2_7b().weight_bytes_total() / 1e9;
        assert!((12.0..15.5).contains(&gb), "7B weights {gb} GB");
        // int4 shrinks ~4x.
        let gb4 = CostDims::llama2_7b()
            .with_weight_bits(4)
            .weight_bytes_total()
            / 1e9;
        assert!(gb4 < gb / 3.5, "int4 {gb4} GB");
    }

    #[test]
    fn gqa_shrinks_kv() {
        let mha = CostDims::llama2_7b();
        let gqa = CostDims::llama2_70b();
        assert!(gqa.kv_dim() < gqa.hidden_dim);
        assert_eq!(mha.kv_dim(), mha.hidden_dim);
    }

    #[test]
    fn validate_rejects_bad_heads() {
        let mut cfg = ModelConfig::tiny();
        cfg.n_heads = 5;
        assert!(cfg.validate().is_err());
    }
}
