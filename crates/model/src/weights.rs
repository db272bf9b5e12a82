//! Weight containers and initializers for the decoder stack.

use serde::{Deserialize, Serialize};
use specee_tensor::{ops, rng::Pcg, Matrix, QuantBits};

use crate::config::ModelConfig;
use crate::linear::LinearOp;

/// Weights of one decoder layer (pre-norm Llama block).
///
/// The projections that read one input are stacked into one matrix, so a
/// layer is four weight passes: `wqkv`, `wo`, `w_gate_up`, `w_down`. Each
/// output row of a stacked matrix keeps its own sums, so its products are
/// the separate projections' bit for bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerWeights {
    /// RMSNorm gain before attention.
    pub attn_norm: Vec<f32>,
    /// Query, key and value projections stacked (`3·hidden × hidden`):
    /// rows `0..hidden` are Q, `hidden..2·hidden` K, `2·hidden..3·hidden` V.
    pub wqkv: LinearOp,
    /// Output projection.
    pub wo: LinearOp,
    /// RMSNorm gain before the FFN.
    pub ffn_norm: Vec<f32>,
    /// FFN gate and up projections stacked (`2·ffn × hidden`): rows
    /// `0..ffn` are the gate, `ffn..2·ffn` up.
    pub w_gate_up: LinearOp,
    /// FFN down projection.
    pub w_down: LinearOp,
}

impl LayerWeights {
    /// Random-initialized layer (scaled for residual stability). A
    /// matrix is drawn row-major, so one draw of a stacked shape is its
    /// parts drawn one after the other: the projections are q, k, v, o,
    /// gate, up, down in that order.
    pub fn random(cfg: &ModelConfig, rng: &mut Pcg) -> Self {
        let h = cfg.hidden_dim;
        let f = cfg.ffn_dim;
        let scale = 1.0 / (h as f32).sqrt();
        LayerWeights {
            attn_norm: vec![1.0; h],
            wqkv: Matrix::random(3 * h, h, scale, rng).into(),
            wo: Matrix::random(h, h, scale, rng).into(),
            ffn_norm: vec![1.0; h],
            w_gate_up: Matrix::random(2 * f, h, scale, rng).into(),
            w_down: Matrix::random(h, f, 1.0 / (f as f32).sqrt(), rng).into(),
        }
    }

    /// Total parameter payload bytes at executed precision.
    pub fn bytes(&self) -> usize {
        self.wqkv.bytes()
            + self.wo.bytes()
            + self.w_gate_up.bytes()
            + self.w_down.bytes()
            + (self.attn_norm.len() + self.ffn_norm.len()) * 4
    }

    fn quantize_in_place(&mut self, bits: QuantBits) {
        for op in [
            &mut self.wqkv,
            &mut self.wo,
            &mut self.w_gate_up,
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
    use proptest::prelude::*;
    use specee_tensor::BackendKind;

    /// `parts` stacked top to bottom into one matrix, rows in order.
    fn stack(parts: &[Matrix]) -> Matrix {
        let rows: Vec<&[f32]> = parts
            .iter()
            .flat_map(|m| (0..m.rows()).map(move |r| m.row(r)))
            .collect();
        Matrix::from_rows(&rows)
    }

    /// The seven projections `LayerWeights::random` draws, in its order,
    /// each as its own matrix.
    fn separate_draws(cfg: &ModelConfig, seed: u64) -> Vec<Matrix> {
        let (h, f) = (cfg.hidden_dim, cfg.ffn_dim);
        let rng = &mut Pcg::seed(seed);
        let scale = 1.0 / (h as f32).sqrt();
        let mut out: Vec<Matrix> = (0..4).map(|_| Matrix::random(h, h, scale, rng)).collect();
        out.extend((0..2).map(|_| Matrix::random(f, h, scale, rng)));
        out.push(Matrix::random(h, f, 1.0 / (f as f32).sqrt(), rng));
        out
    }

    #[test]
    fn the_stacked_projections_are_the_separate_draws() {
        let cfg = ModelConfig::tiny();
        let [q, k, v, o, gate, up, down] =
            <[Matrix; 7]>::try_from(separate_draws(&cfg, 5)).unwrap();
        let w = LayerWeights::random(&cfg, &mut Pcg::seed(5));
        assert_eq!(w.wqkv, LinearOp::Dense(stack(&[q, k, v])));
        assert_eq!(w.wo, LinearOp::Dense(o));
        assert_eq!(w.w_gate_up, LinearOp::Dense(stack(&[gate, up])));
        assert_eq!(w.w_down, LinearOp::Dense(down));
    }

    #[test]
    fn a_stacked_quant_holds_each_projections_codes_and_scales() {
        let cfg = ModelConfig::tiny();
        let draws = separate_draws(&cfg, 6);
        let mut w = LayerWeights::random(&cfg, &mut Pcg::seed(6));
        let dense_bytes = w.bytes();
        for bits in [QuantBits::Int8, QuantBits::Int4] {
            let mut quant = w.clone();
            quant.quantize_in_place(bits);
            for (stacked, parts) in [
                (&quant.wqkv, &draws[0..3]),
                (&quant.w_gate_up, &draws[4..6]),
            ] {
                let LinearOp::Quant(stacked) = stacked else {
                    panic!("{bits}: a stacked operator stayed dense");
                };
                let (mut codes, mut scales) = (Vec::new(), Vec::new());
                for part in parts {
                    let LinearOp::Quant(q) = LinearOp::quantized(part, bits) else {
                        unreachable!()
                    };
                    codes.extend_from_slice(q.codes());
                    scales.extend_from_slice(q.scales());
                }
                assert_eq!(stacked.codes(), codes.as_slice(), "{bits}");
                assert_eq!(stacked.scales(), scales.as_slice(), "{bits}");
            }
            let separate: usize = draws
                .iter()
                .map(|m| LinearOp::quantized(m, bits).bytes())
                .sum();
            assert_eq!(quant.bytes(), separate + 2 * cfg.hidden_dim * 4, "{bits}");
        }
        w.quantize_in_place(QuantBits::Int8);
        assert!(w.bytes() < dense_bytes / 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn a_stacked_pass_is_the_separate_passes_bit_for_bit(seed in 0u64..10_000) {
            // Two or three parts (gate|up, q|k|v) of random heights over
            // one random width — ragged, and past the helper thread's split
            // size — on 1..=22 inputs, dense and per-row quantized.
            let rng = &mut Pcg::seed(seed);
            let cols = [1, 3, 8, 30, 32, 64, 96, 128][rng.below(8)];
            let parts: Vec<Matrix> = (0..2 + rng.below(2))
                .map(|_| Matrix::random(1 + rng.below(64), cols, 0.5, rng))
                .collect();
            let stacked = stack(&parts);
            let n = 1 + rng.below(22);
            let mut xs = vec![0.0f32; n * cols];
            rng.fill_uniform(&mut xs, 1.0);
            for quantized in [false, true] {
                let op = |m: &Matrix| match quantized {
                    false => LinearOp::from(m.clone()),
                    true => LinearOp::quantized(m, QuantBits::Int8),
                };
                let whole = op(&stacked);
                for backend in BackendKind::ALL {
                    let ys = whole.matmul_with(backend, &xs, n);
                    let mut row0 = 0;
                    for (p, part) in parts.iter().enumerate() {
                        let want = op(part).matmul_with(backend, &xs, n);
                        let rows = part.rows();
                        for i in 0..n {
                            let got = &ys[i * stacked.rows() + row0..][..rows];
                            let bits = |r: &[f32]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                            prop_assert_eq!(
                                bits(got),
                                bits(&want[i * rows..(i + 1) * rows]),
                                "part {} input {} of {}, {}x{}, quantized {}, {}",
                                p, i, n, rows, cols, quantized, backend
                            );
                        }
                        row0 += rows;
                    }
                }
            }
        }
    }

    #[test]
    fn random_weights_have_expected_shapes() {
        let cfg = ModelConfig::tiny();
        let mut rng = Pcg::seed(1);
        let w = ModelWeights::random(&cfg, &mut rng);
        assert_eq!(w.embed.rows(), cfg.vocab_size);
        assert_eq!(w.embed.cols(), cfg.hidden_dim);
        assert_eq!(w.layers.len(), cfg.n_layers);
        assert_eq!(w.layers[0].wqkv.rows(), 3 * cfg.hidden_dim);
        assert_eq!(w.layers[0].w_gate_up.rows(), 2 * cfg.ffn_dim);
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
        assert!(matches!(w.layers[0].wqkv, LinearOp::Quant(_)));
    }
}
