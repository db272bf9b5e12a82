//! A fully-connected layer with manual gradients.

use serde::{Deserialize, Serialize};
use specee_tensor::{rng::Pcg, BackendKind, Matrix};

/// A dense affine layer `y = W x + b`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dense {
    w: Matrix,
    b: Vec<f32>,
}

/// Gradients of a [`Dense`] layer for one mini-batch.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseGrad {
    /// Gradient of the weight matrix.
    pub dw: Matrix,
    /// Gradient of the bias.
    pub db: Vec<f32>,
}

impl Dense {
    /// Creates a layer with Kaiming-uniform initialized weights and zero
    /// bias.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut Pcg) -> Self {
        let scale = (6.0 / in_dim.max(1) as f32).sqrt();
        Dense {
            w: Matrix::random(out_dim, in_dim, scale, rng),
            b: vec![0.0; out_dim],
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.cols()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.rows()
    }

    /// Borrows the weight matrix.
    pub fn weights(&self) -> &Matrix {
        &self.w
    }

    /// Borrows the bias.
    pub(crate) fn bias(&self) -> &[f32] {
        &self.b
    }

    /// Mutably borrows the weights (row-major, `out × in`) and the bias,
    /// for an optimizer that updates them in place.
    pub(crate) fn params_mut(&mut self) -> (&mut [f32], &mut [f32]) {
        (self.w.as_mut_slice(), &mut self.b)
    }

    /// Forward pass for one sample.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim()`.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        let mut y = self.w.matvec(x);
        for (v, b) in y.iter_mut().zip(self.b.iter()) {
            *v += b;
        }
        y
    }

    /// Forward pass through a compute backend. With
    /// [`BackendKind::Reference`] this is bit-identical to
    /// [`Dense::forward`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim()`.
    pub fn forward_with(&self, backend: BackendKind, x: &[f32]) -> Vec<f32> {
        let mut y = backend.get().matvec(&self.w, x);
        for (v, b) in y.iter_mut().zip(self.b.iter()) {
            *v += b;
        }
        y
    }

    /// Backward pass for one sample: given the upstream gradient `dy` and
    /// the input `x` that produced it, accumulates parameter gradients into
    /// `grad` and returns the gradient with respect to `x`. Part of the
    /// per-sample reference [`crate::BinaryTrainer::train`] is pinned to.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn backward(&self, x: &[f32], dy: &[f32], grad: &mut DenseGrad) -> Vec<f32> {
        assert_eq!(x.len(), self.in_dim(), "backward input dim");
        assert_eq!(dy.len(), self.out_dim(), "backward output dim");
        for (r, &g) in dy.iter().enumerate() {
            grad.db[r] += g;
            let row = grad.dw.row_mut(r);
            for (c, &xv) in x.iter().enumerate() {
                row[c] += g * xv;
            }
        }
        self.w.matvec_t(dy)
    }

    /// Creates a zeroed gradient buffer matching this layer.
    pub fn zero_grad(&self) -> DenseGrad {
        DenseGrad {
            dw: Matrix::zeros(self.out_dim(), self.in_dim()),
            db: vec![0.0; self.out_dim()],
        }
    }

    /// Applies a parameter update `w -= step_w`, `b -= step_b` where the
    /// steps are produced by an optimizer (the reference [`Adam::step`]'s
    /// last move).
    ///
    /// [`Adam::step`]: crate::Adam::step
    pub fn apply_step(&mut self, step_w: &Matrix, step_b: &[f32]) {
        self.w.add_scaled(step_w, -1.0);
        for (b, s) in self.b.iter_mut().zip(step_b.iter()) {
            *b -= s;
        }
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// FLOPs of one forward pass.
    pub fn flops(&self) -> f64 {
        2.0 * self.w.len() as f64 + self.b.len() as f64
    }

    /// Parameter payload in bytes (f32).
    pub fn bytes(&self) -> usize {
        self.w.bytes() + self.b.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_affine() {
        let mut rng = Pcg::seed(1);
        let mut d = Dense::new(2, 2, &mut rng);
        // overwrite with known weights
        d.w = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]);
        d.b = vec![0.5, -0.5];
        assert_eq!(d.forward(&[3.0, 4.0]), vec![3.5, 7.5]);
    }

    #[test]
    fn backward_matches_numeric_gradient() {
        let mut rng = Pcg::seed(2);
        let d = Dense::new(3, 2, &mut rng);
        let x = [0.4, -0.2, 0.9];
        // loss = sum(y); dy = ones
        let dy = [1.0, 1.0];
        let mut grad = d.zero_grad();
        let dx = d.backward(&x, &dy, &mut grad);

        let eps = 1e-3;
        for i in 0..3 {
            let mut xp = x;
            xp[i] += eps;
            let mut xm = x;
            xm[i] -= eps;
            let fp: f32 = d.forward(&xp).iter().sum();
            let fm: f32 = d.forward(&xm).iter().sum();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (dx[i] - numeric).abs() < 1e-2,
                "dx[{i}] {} vs {numeric}",
                dx[i]
            );
        }
        // weight gradient of sum(y) wrt w[r][c] is x[c]
        for r in 0..2 {
            for (c, &xc) in x.iter().enumerate() {
                assert!((grad.dw.get(r, c) - xc).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn apply_step_moves_parameters() {
        let mut rng = Pcg::seed(3);
        let mut d = Dense::new(2, 1, &mut rng);
        let before = d.forward(&[1.0, 1.0])[0];
        let step_w = Matrix::from_rows(&[&[0.1, 0.1]]);
        d.apply_step(&step_w, &[0.05]);
        let after = d.forward(&[1.0, 1.0])[0];
        assert!((before - after - 0.25).abs() < 1e-5);
    }

    #[test]
    fn param_count_and_flops() {
        let mut rng = Pcg::seed(4);
        let d = Dense::new(12, 512, &mut rng);
        assert_eq!(d.param_count(), 12 * 512 + 512);
        assert!(d.flops() > 12_000.0);
    }
}
