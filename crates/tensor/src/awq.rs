//! Activation-aware weight quantization (the actual AWQ mechanism).
//!
//! Plain round-to-nearest group quantization ([`crate::QuantizedMatrix`])
//! treats every weight column equally. AWQ's observation is that the
//! *salient* weight channels — the ones multiplied by large activations —
//! dominate output error, and that scaling them up before quantization
//! (and the activations down by the same factor at runtime) protects them
//! at zero extra memory cost because the inverse scales fold into the
//! preceding normalization in a real deployment.
//!
//! The per-channel scale is `s_c = stat_c^α`, where `stat_c` is the mean
//! absolute activation of channel `c` over a calibration set and `α` is
//! grid-searched to minimize the quantized layer's output MSE on those
//! same activations — exactly the search the AWQ paper describes. `α = 0`
//! degenerates to plain RTN, so the search can never lose to the baseline.

use serde::{Deserialize, Serialize};

use crate::backend::Backend;
use crate::matrix::Matrix;
use crate::quant::{QuantBits, QuantError, QuantizedMatrix};

/// Per-channel activation statistics collected on calibration inputs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AwqCalibration {
    mean_abs: Vec<f32>,
}

impl AwqCalibration {
    /// Computes mean absolute activation per channel.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or rows disagree in length.
    pub fn from_activations(samples: &[Vec<f32>]) -> Self {
        assert!(!samples.is_empty(), "need calibration activations");
        let dim = samples[0].len();
        let mut mean_abs = vec![0.0f32; dim];
        for s in samples {
            assert_eq!(s.len(), dim, "ragged calibration activations");
            for (acc, v) in mean_abs.iter_mut().zip(s) {
                *acc += v.abs();
            }
        }
        let n = samples.len() as f32;
        for v in &mut mean_abs {
            *v /= n;
        }
        AwqCalibration { mean_abs }
    }

    /// Number of channels.
    pub fn dim(&self) -> usize {
        self.mean_abs.len()
    }

    /// Scales `s_c = stat_c^α`, normalized to geometric mean 1 so the
    /// overall weight magnitude (and the group absmax dynamic range) stays
    /// centred.
    pub fn scales(&self, alpha: f32) -> Vec<f32> {
        let powed: Vec<f32> = self
            .mean_abs
            .iter()
            .map(|&m| m.max(1e-6).powf(alpha))
            .collect();
        let log_mean = powed.iter().map(|&s| f64::from(s.ln())).sum::<f64>() / powed.len() as f64;
        let norm = (log_mean.exp()) as f32;
        powed.iter().map(|&s| (s / norm).clamp(1e-4, 1e4)).collect()
    }
}

/// An AWQ-quantized matrix: per-channel scales folded into the weights,
/// inverse scales applied to activations at runtime.
///
/// # Examples
///
/// ```
/// use specee_tensor::awq::{AwqCalibration, AwqMatrix};
/// use specee_tensor::{Matrix, QuantBits, rng::Pcg};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = Pcg::seed(5);
/// let w = Matrix::random(8, 64, 1.0, &mut rng);
/// // Channel 3 carries 20x-larger activations: AWQ should protect it.
/// let acts: Vec<Vec<f32>> = (0..32)
///     .map(|i| (0..64).map(|c| {
///         let base = ((i * 7 + c) % 13) as f32 * 0.05 - 0.3;
///         if c == 3 { base * 20.0 } else { base }
///     }).collect())
///     .collect();
/// let calib = AwqCalibration::from_activations(&acts);
/// let q = AwqMatrix::quantize(&w, &calib, QuantBits::Int4, 32, &acts)?;
/// assert!(q.alpha() >= 0.0);
/// let y = q.matvec(&acts[0]);
/// assert_eq!(y.len(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AwqMatrix {
    q: QuantizedMatrix,
    inv_scales: Vec<f32>,
    alpha: f32,
}

/// Mean squared error between a quantized candidate and the dense layer
/// output over calibration activations.
fn output_mse(w: &Matrix, q: &AwqMatrix, samples: &[Vec<f32>]) -> f64 {
    let mut err = 0.0f64;
    let mut n = 0usize;
    for x in samples {
        let dense = w.matvec(x);
        let quant = q.matvec(x);
        for (a, b) in dense.iter().zip(&quant) {
            let d = f64::from(a - b);
            err += d * d;
        }
        n += dense.len();
    }
    err / n.max(1) as f64
}

impl AwqMatrix {
    /// Quantizes with a fixed `alpha` (no search).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError`] if the group size is invalid.
    ///
    /// # Panics
    ///
    /// Panics if the calibration dimension does not match the columns.
    pub fn quantize_with_alpha(
        w: &Matrix,
        calib: &AwqCalibration,
        bits: QuantBits,
        group_size: usize,
        alpha: f32,
    ) -> Result<Self, QuantError> {
        assert_eq!(calib.dim(), w.cols(), "calibration dim");
        let scales = calib.scales(alpha);
        let scaled = Matrix::from_fn(w.rows(), w.cols(), |r, c| w.get(r, c) * scales[c]);
        let q = QuantizedMatrix::quantize(&scaled, bits, group_size)?;
        Ok(AwqMatrix {
            q,
            inv_scales: scales.iter().map(|&s| 1.0 / s).collect(),
            alpha,
        })
    }

    /// Quantizes with the AWQ grid search over `α ∈ {0, 1/8, …, 1}`,
    /// keeping the candidate with the lowest output MSE on `samples`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError`] if the group size is invalid.
    ///
    /// # Panics
    ///
    /// Panics if the calibration dimension does not match the columns.
    pub fn quantize(
        w: &Matrix,
        calib: &AwqCalibration,
        bits: QuantBits,
        group_size: usize,
        samples: &[Vec<f32>],
    ) -> Result<Self, QuantError> {
        let mut best: Option<(f64, AwqMatrix)> = None;
        for step in 0..=8 {
            let alpha = step as f32 / 8.0;
            let cand = Self::quantize_with_alpha(w, calib, bits, group_size, alpha)?;
            let mse = output_mse(w, &cand, samples);
            if best.as_ref().is_none_or(|(m, _)| mse < *m) {
                best = Some((mse, cand));
            }
        }
        Ok(best.expect("grid is non-empty").1)
    }

    /// The α the search selected (0 means plain RTN won).
    pub fn alpha(&self) -> f32 {
        self.alpha
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.q.rows()
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.q.cols()
    }

    /// `y = W̃ (x ∘ s⁻¹)` — the runtime kernel. The activation scaling is
    /// free in a real deployment (folded into the preceding RMSNorm gain);
    /// here it is one multiply per input element.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols(), "awq matvec input length");
        let scaled: Vec<f32> = x.iter().zip(&self.inv_scales).map(|(v, s)| v * s).collect();
        self.q.matvec(&scaled)
    }

    /// [`Self::matvec`] with the inner quantized product routed through a
    /// compute backend's [`Backend::matvec_q`] kernel. The activation
    /// pre-scaling is identical to [`Self::matvec`], so with the reference
    /// backend this is bit-identical to it.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec_with(&self, backend: &dyn Backend, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols(), "awq matvec input length");
        let scaled: Vec<f32> = x.iter().zip(&self.inv_scales).map(|(v, s)| v * s).collect();
        backend.matvec_q(&self.q, &scaled)
    }

    /// Borrows the underlying group-quantized matrix (scaled weights).
    pub fn quantized(&self) -> &QuantizedMatrix {
        &self.q
    }

    /// Product against a subset of rows (the speculative LM-head slice).
    ///
    /// # Panics
    ///
    /// Panics if a row index is out of bounds or `x.len() != cols`.
    pub fn matvec_rows(&self, rows: &[usize], x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols(), "awq matvec input length");
        let scaled: Vec<f32> = x.iter().zip(&self.inv_scales).map(|(v, s)| v * s).collect();
        let mut row = vec![0.0f32; self.cols()];
        rows.iter()
            .map(|&r| {
                self.q.dequantize_row_into(r, &mut row);
                row.iter().zip(&scaled).map(|(w, v)| w * v).sum()
            })
            .collect()
    }

    /// Packed payload bytes (codes + group scales; the per-channel scales
    /// fold into the previous op and cost nothing at rest).
    pub fn bytes(&self) -> usize {
        self.q.bytes()
    }

    /// Output MSE of this candidate on a sample set (error analysis).
    pub fn mse_on(&self, w: &Matrix, samples: &[Vec<f32>]) -> f64 {
        output_mse(w, self, samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Pcg;

    /// Calibration activations where a handful of channels dominate —
    /// the regime AWQ is built for.
    fn skewed_activations(dim: usize, n: usize, hot: &[usize], factor: f32) -> Vec<Vec<f32>> {
        let mut rng = Pcg::seed(11);
        (0..n)
            .map(|_| {
                (0..dim)
                    .map(|c| {
                        let v = (rng.next_f32() - 0.5) * 0.4;
                        if hot.contains(&c) {
                            v * factor
                        } else {
                            v
                        }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn calibration_reflects_channel_magnitudes() {
        let acts = skewed_activations(16, 64, &[2, 5], 10.0);
        let calib = AwqCalibration::from_activations(&acts);
        let stats = calib.scales(1.0);
        assert!(stats[2] > stats[0] * 3.0, "{} vs {}", stats[2], stats[0]);
        assert!(stats[5] > stats[1] * 3.0);
    }

    #[test]
    fn scales_normalized_to_geometric_mean_one() {
        let acts = skewed_activations(32, 64, &[7], 20.0);
        let calib = AwqCalibration::from_activations(&acts);
        for alpha in [0.0f32, 0.5, 1.0] {
            let s = calib.scales(alpha);
            let log_mean: f64 = s.iter().map(|&v| f64::from(v.ln())).sum::<f64>() / s.len() as f64;
            assert!(log_mean.abs() < 1e-3, "alpha {alpha} log-mean {log_mean}");
        }
    }

    #[test]
    fn alpha_zero_is_plain_rtn() {
        let mut rng = Pcg::seed(21);
        let w = Matrix::random(8, 64, 1.0, &mut rng);
        let acts = skewed_activations(64, 32, &[3], 15.0);
        let calib = AwqCalibration::from_activations(&acts);
        let awq0 = AwqMatrix::quantize_with_alpha(&w, &calib, QuantBits::Int4, 32, 0.0).unwrap();
        let rtn = QuantizedMatrix::quantize(&w, QuantBits::Int4, 32).unwrap();
        let x = &acts[0];
        let ya = awq0.matvec(x);
        let yr = rtn.matvec(x);
        for (a, b) in ya.iter().zip(&yr) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn search_beats_plain_rtn_on_skewed_activations() {
        let mut rng = Pcg::seed(23);
        let w = Matrix::random(16, 128, 1.0, &mut rng);
        let acts = skewed_activations(128, 48, &[3, 17, 64], 25.0);
        let calib = AwqCalibration::from_activations(&acts);
        let searched = AwqMatrix::quantize(&w, &calib, QuantBits::Int4, 32, &acts).unwrap();
        let rtn = AwqMatrix::quantize_with_alpha(&w, &calib, QuantBits::Int4, 32, 0.0).unwrap();
        let mse_awq = searched.mse_on(&w, &acts);
        let mse_rtn = rtn.mse_on(&w, &acts);
        assert!(searched.alpha() > 0.0, "search picked α = 0");
        assert!(
            mse_awq < mse_rtn * 0.8,
            "awq {mse_awq} not clearly better than rtn {mse_rtn}"
        );
    }

    #[test]
    fn search_never_loses_to_rtn() {
        // Uniform activations: no saliency to exploit; search may pick any
        // α but must not do worse than α = 0.
        let mut rng = Pcg::seed(25);
        let w = Matrix::random(8, 64, 1.0, &mut rng);
        let acts = skewed_activations(64, 32, &[], 1.0);
        let calib = AwqCalibration::from_activations(&acts);
        let searched = AwqMatrix::quantize(&w, &calib, QuantBits::Int8, 32, &acts).unwrap();
        let rtn = AwqMatrix::quantize_with_alpha(&w, &calib, QuantBits::Int8, 32, 0.0).unwrap();
        assert!(searched.mse_on(&w, &acts) <= rtn.mse_on(&w, &acts) + 1e-12);
    }

    #[test]
    fn payload_identical_to_plain_quantization() {
        let mut rng = Pcg::seed(27);
        let w = Matrix::random(8, 64, 1.0, &mut rng);
        let acts = skewed_activations(64, 16, &[1], 10.0);
        let calib = AwqCalibration::from_activations(&acts);
        let awq = AwqMatrix::quantize(&w, &calib, QuantBits::Int4, 32, &acts).unwrap();
        let rtn = QuantizedMatrix::quantize(&w, QuantBits::Int4, 32).unwrap();
        assert_eq!(awq.bytes(), rtn.bytes());
    }

    #[test]
    #[should_panic(expected = "calibration dim")]
    fn dim_mismatch_rejected() {
        let w = Matrix::zeros(4, 32);
        let calib = AwqCalibration::from_activations(&[vec![1.0; 16]]);
        let _ = AwqMatrix::quantize_with_alpha(&w, &calib, QuantBits::Int8, 16, 0.5);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_activations_rejected() {
        let _ = AwqCalibration::from_activations(&[vec![1.0; 4], vec![1.0; 5]]);
    }
}
