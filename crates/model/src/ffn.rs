//! Gated feed-forward network, dense and sparse-activation variants.

use serde::{Deserialize, Serialize};
use specee_metrics::Meter;
use specee_tensor::{ops, rng::Pcg, BackendKind, Matrix};

use crate::linear::LinearOp;
use crate::metering::OpScale;
use crate::weights::LayerWeights;

/// FFN execution mode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FfnMode {
    /// Full dense gated FFN.
    Dense,
    /// Sparse activation: a low-rank router predicts the hot neurons and
    /// only `active_frac` of FFN rows are computed (the PowerInfer
    /// substitution).
    Sparse {
        /// Fraction of FFN neurons computed, in `(0, 1]`.
        active_frac: f32,
        /// Rank of the router factorization.
        router_rank: usize,
    },
}

/// Low-rank neuron-activity router for one layer (PowerInfer-style).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FfnRouter {
    a: Matrix,
    b: Matrix,
}

impl FfnRouter {
    /// Random router of the given rank for a layer of shape
    /// `hidden → ffn`.
    pub fn random(hidden: usize, ffn: usize, rank: usize, rng: &mut Pcg) -> Self {
        FfnRouter {
            a: Matrix::random(rank, hidden, 1.0 / (hidden as f32).sqrt(), rng),
            b: Matrix::random(ffn, rank, 1.0 / (rank as f32).sqrt(), rng),
        }
    }

    /// Predicted activity score per FFN neuron.
    pub fn scores(&self, x: &[f32]) -> Vec<f32> {
        self.b.matvec(&self.a.matvec(x))
    }

    /// Router rank.
    pub fn rank(&self) -> usize {
        self.a.rows()
    }
}

/// Dense gated FFN without metering over `n` inputs packed row-major in
/// `xs`, outputs packed likewise (shared by the single-token, prompt-span
/// and tree-batched paths, which meter differently). Each of the three
/// projections is one weight pass for the whole batch on `backend`;
/// [`BackendKind::Reference`] reproduces the historical scalar path
/// bit-for-bit.
pub fn ffn_apply(w: &LayerWeights, backend: BackendKind, xs: &[f32], n: usize) -> Vec<f32> {
    let mut act = w.w_gate.matmul_with(backend, xs, n);
    let up = w.w_up.matmul_with(backend, xs, n);
    for (a, &u) in act.iter_mut().zip(up.iter()) {
        *a = ops::silu(*a) * u;
    }
    w.w_down.matmul_with(backend, &act, n)
}

/// Dense gated FFN: `w_down( silu(w_gate x) ⊙ w_up x )`.
pub fn ffn_forward(
    w: &LayerWeights,
    scale: &OpScale,
    backend: BackendKind,
    x: &[f32],
    meter: &mut Meter,
) -> Vec<f32> {
    scale.record_ffn(meter);
    ffn_apply(w, backend, x, 1)
}

/// Sparse gated FFN without metering (see [`ffn_apply`]; the caller
/// records [`OpScale::record_ffn_sparse`] or its tree twin): only the
/// router-selected neurons are computed.
///
/// # Panics
///
/// Panics if the layer weights are quantized (the PC sparse path runs on
/// dense weights, matching PowerInfer's fp16 hot-neuron path) or if
/// `active_frac` is not in `(0, 1]`.
pub fn ffn_apply_sparse(
    w: &LayerWeights,
    router: &FfnRouter,
    active_frac: f32,
    x: &[f32],
) -> Vec<f32> {
    assert!(
        active_frac > 0.0 && active_frac <= 1.0,
        "active_frac must be in (0,1]"
    );
    let (gate_m, up_m, down_m) = match (&w.w_gate, &w.w_up, &w.w_down) {
        (LinearOp::Dense(g), LinearOp::Dense(u), LinearOp::Dense(d)) => (g, u, d),
        _ => panic!("sparse FFN requires dense weights"),
    };
    let ffn_dim = gate_m.rows();
    let n_active = ((ffn_dim as f32 * active_frac).ceil() as usize).clamp(1, ffn_dim);
    let scores = router.scores(x);
    let active = ops::top_k(&scores, n_active);

    let mut out = vec![0.0f32; down_m.rows()];
    for &j in &active {
        let g = specee_tensor::matrix::dot(gate_m.row(j), x);
        let u = specee_tensor::matrix::dot(up_m.row(j), x);
        let a = ops::silu(g) * u;
        // w_down column j, strided over rows.
        for (i, o) in out.iter_mut().enumerate() {
            *o += a * down_m.get(i, j);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;

    fn setup() -> (ModelConfig, LayerWeights, OpScale) {
        let cfg = ModelConfig::tiny();
        let mut rng = Pcg::seed(21);
        let w = LayerWeights::random(&cfg, &mut rng);
        (cfg.clone(), w, OpScale::of(&cfg))
    }

    #[test]
    fn dense_output_shape() {
        let (cfg, w, scale) = setup();
        let mut meter = Meter::new();
        let y = ffn_forward(
            &w,
            &scale,
            BackendKind::Reference,
            &vec![0.2; cfg.hidden_dim],
            &mut meter,
        );
        assert_eq!(y.len(), cfg.hidden_dim);
        assert!(meter.total_flops() > 0.0);
    }

    #[test]
    fn full_fraction_sparse_equals_dense() {
        let (cfg, w, scale) = setup();
        let mut rng = Pcg::seed(22);
        let router = FfnRouter::random(cfg.hidden_dim, cfg.ffn_dim, 8, &mut rng);
        let x = vec![0.15; cfg.hidden_dim];
        let mut meter = Meter::new();
        let dense = ffn_forward(&w, &scale, BackendKind::Reference, &x, &mut meter);
        let sparse = ffn_apply_sparse(&w, &router, 1.0, &x);
        for (a, b) in dense.iter().zip(sparse.iter()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn partial_fraction_approximates_dense() {
        let (cfg, w, scale) = setup();
        let mut rng = Pcg::seed(23);
        let router = FfnRouter::random(cfg.hidden_dim, cfg.ffn_dim, 16, &mut rng);
        let x = vec![0.15; cfg.hidden_dim];
        let mut meter = Meter::new();
        let dense = ffn_forward(&w, &scale, BackendKind::Reference, &x, &mut meter);
        let sparse = ffn_apply_sparse(&w, &router, 0.5, &x);
        // Not exact, but same magnitude: sparse keeps half the mass.
        let dn = ops::l2_norm(&dense);
        let sn = ops::l2_norm(&sparse);
        assert!(sn > 0.0 && sn < dn * 2.0);
    }

    #[test]
    #[should_panic(expected = "active_frac")]
    fn rejects_zero_fraction() {
        let (cfg, w, _) = setup();
        let mut rng = Pcg::seed(24);
        let router = FfnRouter::random(cfg.hidden_dim, cfg.ffn_dim, 4, &mut rng);
        ffn_apply_sparse(&w, &router, 0.0, &vec![0.0; cfg.hidden_dim]);
    }
}
