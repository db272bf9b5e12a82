//! Linear operators: dense f32, group-quantized, or AWQ-calibrated weights.

use serde::{Deserialize, Serialize};
use specee_tensor::awq::{AwqCalibration, AwqMatrix};
use specee_tensor::matrix::dot;
use specee_tensor::{BackendKind, Matrix, QuantBits, QuantizedMatrix};

/// A weight matrix that is dense f32, plain group-quantized
/// (round-to-nearest), or AWQ-quantized with activation-aware per-channel
/// scales. All variants expose the same mat-vec interface so the decoder
/// is agnostic to precision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LinearOp {
    /// Dense f32 weights.
    Dense(Matrix),
    /// Group-quantized weights with dequantize-on-the-fly mat-vec.
    Quant(QuantizedMatrix),
    /// AWQ-quantized weights (activation-calibrated channel scales).
    Awq(AwqMatrix),
}

impl LinearOp {
    /// Quantizes a dense operator in place (group size 32, clamped to the
    /// column count when smaller).
    ///
    /// # Panics
    ///
    /// Panics if the column count is not divisible by the chosen group size
    /// (all model dims in this workspace are powers of two ≥ 32).
    pub fn quantized(m: &Matrix, bits: QuantBits) -> Self {
        let group = 32.min(m.cols());
        LinearOp::Quant(QuantizedMatrix::quantize(m, bits, group).expect("pow2 dims"))
    }

    /// AWQ-quantizes a dense operator with a grid search over the channel
    /// scale exponent, calibrated on the recorded `activations` of this
    /// operator's input site.
    ///
    /// # Panics
    ///
    /// Panics if `activations` is empty, disagrees with the column count,
    /// or the group size does not divide the columns.
    pub fn awq_quantized(m: &Matrix, bits: QuantBits, activations: &[Vec<f32>]) -> Self {
        let group = 32.min(m.cols());
        let calib = AwqCalibration::from_activations(activations);
        LinearOp::Awq(AwqMatrix::quantize(m, &calib, bits, group, activations).expect("pow2 dims"))
    }

    /// Output rows.
    pub fn rows(&self) -> usize {
        match self {
            LinearOp::Dense(m) => m.rows(),
            LinearOp::Quant(q) => q.rows(),
            LinearOp::Awq(a) => a.rows(),
        }
    }

    /// Input columns.
    pub fn cols(&self) -> usize {
        match self {
            LinearOp::Dense(m) => m.cols(),
            LinearOp::Quant(q) => q.cols(),
            LinearOp::Awq(a) => a.cols(),
        }
    }

    /// Mat-vec product through a compute backend.
    pub fn matvec_with(&self, backend: BackendKind, x: &[f32]) -> Vec<f32> {
        match self {
            LinearOp::Dense(m) => backend.get().matvec(m, x),
            LinearOp::Quant(q) => backend.get().matvec_q(q, x),
            LinearOp::Awq(a) => a.matvec_with(backend.get(), x),
        }
    }

    /// Products of `n_in` inputs packed row-major in `xs`
    /// (`n_in × cols`), returned packed row-major (`n_in × rows`). Dense
    /// weights take the backend's one-weight-pass
    /// [`specee_tensor::Backend::matmul_into`]; the quantized variants run
    /// their mat-vec per input. Either way every output is bit-identical
    /// to [`LinearOp::matvec_with`] on that input.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != n_in * cols`.
    pub fn matmul_with(&self, backend: BackendKind, xs: &[f32], n_in: usize) -> Vec<f32> {
        let (rows, cols) = (self.rows(), self.cols());
        assert_eq!(xs.len(), n_in * cols, "matmul input length");
        let mut ys = vec![0.0f32; n_in * rows];
        match self {
            LinearOp::Dense(m) => backend.get().matmul_into(m, xs, n_in, &mut ys),
            _ => {
                for n in 0..n_in {
                    let y = self.matvec_with(backend, &xs[n * cols..(n + 1) * cols]);
                    ys[n * rows..(n + 1) * rows].copy_from_slice(&y);
                }
            }
        }
        ys
    }

    /// Product against a subset of rows (speculative LM-head slice).
    ///
    /// # Panics
    ///
    /// Panics if a row index is out of bounds.
    pub fn matvec_rows(&self, rows: &[usize], x: &[f32]) -> Vec<f32> {
        match self {
            LinearOp::Dense(m) => m.matvec_rows(rows, x),
            LinearOp::Quant(q) => {
                // Dequantized gather of the handful of candidate rows only.
                assert_eq!(x.len(), q.cols(), "matvec_rows input length");
                let mut row = vec![0.0f32; q.cols()];
                rows.iter()
                    .map(|&r| {
                        q.dequantize_row_into(r, &mut row);
                        dot(&row, x)
                    })
                    .collect()
            }
            LinearOp::Awq(a) => a.matvec_rows(rows, x),
        }
    }

    /// Payload bytes at the executed precision.
    pub fn bytes(&self) -> usize {
        match self {
            LinearOp::Dense(m) => m.bytes(),
            LinearOp::Quant(q) => q.bytes(),
            LinearOp::Awq(a) => a.bytes(),
        }
    }
}

impl From<Matrix> for LinearOp {
    fn from(m: Matrix) -> Self {
        LinearOp::Dense(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specee_tensor::rng::Pcg;

    #[test]
    fn dense_and_quant_agree_roughly() {
        let mut rng = Pcg::seed(1);
        let m = Matrix::random(8, 64, 0.3, &mut rng);
        let d = LinearOp::from(m.clone());
        let q = LinearOp::quantized(&m, QuantBits::Int8);
        let x: Vec<f32> = (0..64).map(|i| (i as f32).sin() * 0.1).collect();
        let dense = d.matvec_with(BackendKind::Reference, &x);
        let quant = q.matvec_with(BackendKind::Reference, &x);
        for (a, b) in dense.iter().zip(&quant) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
    }

    #[test]
    fn quant_is_smaller() {
        let mut rng = Pcg::seed(2);
        let m = Matrix::random(16, 64, 1.0, &mut rng);
        let d = LinearOp::from(m.clone());
        let q = LinearOp::quantized(&m, QuantBits::Int4);
        assert!(q.bytes() < d.bytes() / 3);
        assert!(matches!(q, LinearOp::Quant(_)));
        assert!(matches!(d, LinearOp::Dense(_)));
    }

    #[test]
    fn quant_matvec_rows_equals_the_whole_matrix_dequantize() {
        // An LM-head-sized operator: the row-at-a-time gather must give
        // exactly what dequantizing all 2048 rows first gave.
        let mut rng = Pcg::seed(4);
        let m = Matrix::random(2048, 128, 0.5, &mut rng);
        let mut x = vec![0.0f32; 128];
        rng.fill_uniform(&mut x, 1.0);
        let rows = [0usize, 2047, 17, 17, 1024];
        for bits in [QuantBits::Int8, QuantBits::Int4] {
            let op = LinearOp::quantized(&m, bits);
            let LinearOp::Quant(q) = &op else {
                unreachable!()
            };
            // The whole-matrix dequantize, spelled out as it was.
            let groups_per_row = q.cols() / q.group_size();
            let dense = Matrix::from_fn(q.rows(), q.cols(), |r, c| {
                f32::from(q.codes()[r * q.cols() + c])
                    * q.scales()[r * groups_per_row + c / q.group_size()]
            });
            assert_eq!(q.dequantize(), dense);
            let want = dense.matvec_rows(&rows, &x);
            assert_eq!(op.matvec_rows(&rows, &x), want, "{bits}");
        }
    }

    #[test]
    fn matmul_with_equals_per_input_matvec_with() {
        let mut rng = Pcg::seed(5);
        let m = Matrix::random(12, 64, 0.5, &mut rng);
        let samples: Vec<Vec<f32>> = (0..4)
            .map(|_| {
                let mut x = vec![0.0f32; 64];
                rng.fill_uniform(&mut x, 1.0);
                x
            })
            .collect();
        let ops = [
            LinearOp::from(m.clone()),
            LinearOp::quantized(&m, QuantBits::Int8),
            LinearOp::awq_quantized(&m, QuantBits::Int8, &samples),
        ];
        let xs = samples.concat();
        for op in &ops {
            for backend in BackendKind::ALL {
                let want: Vec<f32> = samples
                    .iter()
                    .flat_map(|x| op.matvec_with(backend, x))
                    .collect();
                assert_eq!(op.matmul_with(backend, &xs, samples.len()), want);
            }
            assert!(op.matmul_with(BackendKind::Blocked, &[], 0).is_empty());
        }
    }

    #[test]
    fn matvec_rows_matches_full() {
        let mut rng = Pcg::seed(3);
        let m = Matrix::random(10, 32, 0.5, &mut rng);
        let q = LinearOp::quantized(&m, QuantBits::Int8);
        let x = vec![0.05; 32];
        let full = q.matvec_with(BackendKind::Reference, &x);
        let sel = q.matvec_rows(&[2, 9], &x);
        assert!((sel[0] - full[2]).abs() < 1e-6);
        assert!((sel[1] - full[9]).abs() < 1e-6);
    }
}
