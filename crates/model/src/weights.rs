//! Weight containers and initializers for the decoder stack.

use serde::{Deserialize, Serialize};
use specee_tensor::{ops, rng::Pcg, Matrix, QuantBits};

use crate::config::ModelConfig;
use crate::linear::LinearOp;

/// Weights of one decoder layer (pre-norm Llama block).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerWeights {
    /// RMSNorm gain before attention.
    pub attn_norm: Vec<f32>,
    /// Query projection.
    pub wq: LinearOp,
    /// Key projection.
    pub wk: LinearOp,
    /// Value projection.
    pub wv: LinearOp,
    /// Output projection.
    pub wo: LinearOp,
    /// RMSNorm gain before the FFN.
    pub ffn_norm: Vec<f32>,
    /// FFN gate projection.
    pub w_gate: LinearOp,
    /// FFN up projection.
    pub w_up: LinearOp,
    /// FFN down projection.
    pub w_down: LinearOp,
}

impl LayerWeights {
    /// Random-initialized layer (scaled for residual stability).
    pub fn random(cfg: &ModelConfig, rng: &mut Pcg) -> Self {
        let h = cfg.hidden_dim;
        let f = cfg.ffn_dim;
        let scale = 1.0 / (h as f32).sqrt();
        LayerWeights {
            attn_norm: vec![1.0; h],
            wq: Matrix::random(h, h, scale, rng).into(),
            wk: Matrix::random(h, h, scale, rng).into(),
            wv: Matrix::random(h, h, scale, rng).into(),
            wo: Matrix::random(h, h, scale, rng).into(),
            ffn_norm: vec![1.0; h],
            w_gate: Matrix::random(f, h, scale, rng).into(),
            w_up: Matrix::random(f, h, scale, rng).into(),
            w_down: Matrix::random(h, f, 1.0 / (f as f32).sqrt(), rng).into(),
        }
    }

    /// Total parameter payload bytes at executed precision.
    pub fn bytes(&self) -> usize {
        self.wq.bytes()
            + self.wk.bytes()
            + self.wv.bytes()
            + self.wo.bytes()
            + self.w_gate.bytes()
            + self.w_up.bytes()
            + self.w_down.bytes()
            + (self.attn_norm.len() + self.ffn_norm.len()) * 4
    }

    fn quantize_in_place(&mut self, bits: QuantBits) {
        for op in [
            &mut self.wq,
            &mut self.wk,
            &mut self.wv,
            &mut self.wo,
            &mut self.w_gate,
            &mut self.w_up,
            &mut self.w_down,
        ] {
            if let LinearOp::Dense(m) = op {
                *op = LinearOp::quantized(m, bits);
            }
        }
    }
}

/// Full model weights: embeddings, decoder layers, final norm, LM head.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelWeights {
    /// Token embedding table (`vocab × hidden`), rows unit-normalized.
    pub embed: Matrix,
    /// Decoder layers.
    pub layers: Vec<LayerWeights>,
    /// Final RMSNorm gain.
    pub final_norm: Vec<f32>,
    /// LM head (`vocab × hidden`).
    pub lm_head: LinearOp,
}

impl ModelWeights {
    /// Random weights with the LM head *tied* to the embedding table, as in
    /// many open LLMs. Tying matters for the synthetic convergence driver:
    /// a hidden state steered toward a token's embedding produces that
    /// token's logit.
    pub fn random(cfg: &ModelConfig, rng: &mut Pcg) -> Self {
        let mut embed = Matrix::random(cfg.vocab_size, cfg.hidden_dim, 1.0, rng);
        for r in 0..embed.rows() {
            ops::l2_normalize(embed.row_mut(r));
        }
        let layers = (0..cfg.n_layers)
            .map(|_| LayerWeights::random(cfg, rng))
            .collect();
        ModelWeights {
            lm_head: embed.clone().into(),
            embed,
            layers,
            final_norm: vec![1.0; cfg.hidden_dim],
        }
    }

    /// Quantizes every projection (not norms/embeddings) to the given
    /// precision — the executable side of the AWQ substitution.
    pub fn quantize(&mut self, bits: QuantBits) {
        for layer in &mut self.layers {
            layer.quantize_in_place(bits);
        }
        if let LinearOp::Dense(m) = &self.lm_head {
            self.lm_head = LinearOp::quantized(m, bits);
        }
    }

    /// Total payload bytes at executed precision.
    pub fn bytes(&self) -> usize {
        self.embed.bytes()
            + self.layers.iter().map(LayerWeights::bytes).sum::<usize>()
            + self.final_norm.len() * 4
            + self.lm_head.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_weights_have_expected_shapes() {
        let cfg = ModelConfig::tiny();
        let mut rng = Pcg::seed(1);
        let w = ModelWeights::random(&cfg, &mut rng);
        assert_eq!(w.embed.rows(), cfg.vocab_size);
        assert_eq!(w.embed.cols(), cfg.hidden_dim);
        assert_eq!(w.layers.len(), cfg.n_layers);
        assert_eq!(w.layers[0].wq.rows(), cfg.hidden_dim);
        assert_eq!(w.layers[0].w_gate.rows(), cfg.ffn_dim);
        assert_eq!(w.lm_head.rows(), cfg.vocab_size);
    }

    #[test]
    fn embedding_rows_unit_norm() {
        let cfg = ModelConfig::tiny();
        let mut rng = Pcg::seed(2);
        let w = ModelWeights::random(&cfg, &mut rng);
        for r in 0..8 {
            let n = ops::l2_norm(w.embed.row(r));
            assert!((n - 1.0).abs() < 1e-5, "row {r} norm {n}");
        }
    }

    #[test]
    fn lm_head_tied_to_embedding() {
        let cfg = ModelConfig::tiny();
        let mut rng = Pcg::seed(3);
        let w = ModelWeights::random(&cfg, &mut rng);
        let e0 = w.embed.row(0).to_vec();
        match &w.lm_head {
            LinearOp::Dense(m) => assert_eq!(m.row(0), e0.as_slice()),
            other => panic!("expected dense head, got {other:?}"),
        }
    }

    #[test]
    fn quantize_shrinks_payload() {
        let cfg = ModelConfig::tiny();
        let mut rng = Pcg::seed(4);
        let mut w = ModelWeights::random(&cfg, &mut rng);
        let dense_bytes = w.bytes();
        w.quantize(QuantBits::Int4);
        assert!(w.bytes() < dense_bytes / 2);
        assert!(matches!(w.layers[0].wq, LinearOp::Quant(_)));
    }
}
