//! Group-quantized weight matrices (AWQ-style int8/int4 substitution).
//!
//! The paper composes SpecEE with AWQ weight quantization. This module
//! provides the mechanism that name stands for in the simulator: per-group
//! absmax quantization of each weight row, with dequantize-on-the-fly
//! mat-vec. Memory accounting reflects the packed payload so the roofline
//! model sees the bandwidth reduction that makes AWQ fast at decode time.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::matrix::Matrix;

/// Quantization precision for [`QuantizedMatrix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QuantBits {
    /// 8-bit signed integers, one scale per group.
    Int8,
    /// 4-bit signed integers packed two per byte, one scale per group.
    Int4,
}

impl QuantBits {
    /// Bits per weight element.
    pub fn bits(self) -> usize {
        match self {
            QuantBits::Int8 => 8,
            QuantBits::Int4 => 4,
        }
    }

    /// The maximum representable magnitude of the integer code.
    fn qmax(self) -> f32 {
        match self {
            QuantBits::Int8 => 127.0,
            QuantBits::Int4 => 7.0,
        }
    }
}

impl fmt::Display for QuantBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantBits::Int8 => write!(f, "int8"),
            QuantBits::Int4 => write!(f, "int4"),
        }
    }
}

/// Error produced when constructing a quantized matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuantError {
    /// The group size must be positive and divide the column count.
    BadGroupSize {
        /// Requested group size.
        group_size: usize,
        /// Number of matrix columns.
        cols: usize,
    },
}

impl fmt::Display for QuantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantError::BadGroupSize { group_size, cols } => write!(
                f,
                "group size {group_size} must be positive and divide column count {cols}"
            ),
        }
    }
}

impl std::error::Error for QuantError {}

/// A row-major weight matrix quantized with per-group absmax scales.
///
/// # Examples
///
/// ```
/// use specee_tensor::{Matrix, QuantBits, QuantizedMatrix, rng::Pcg};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = Pcg::seed(1);
/// let w = Matrix::random(8, 32, 1.0, &mut rng);
/// let q = QuantizedMatrix::quantize(&w, QuantBits::Int8, 16)?;
/// let x = vec![0.1; 32];
/// let dense = w.matvec(&x);
/// let quant = q.matvec(&x);
/// assert!((dense[0] - quant[0]).abs() < 0.05);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    group_size: usize,
    bits: QuantBits,
    /// Integer codes, one i8 per element even for int4 (packing is modelled
    /// in `bytes()`, not in storage, to keep the kernel simple).
    codes: Vec<i8>,
    /// One scale per (row, group).
    scales: Vec<f32>,
}

impl QuantizedMatrix {
    /// Quantizes a dense matrix with the given precision and group size.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::BadGroupSize`] if `group_size` is zero or does
    /// not divide the column count.
    pub fn quantize(m: &Matrix, bits: QuantBits, group_size: usize) -> Result<Self, QuantError> {
        if group_size == 0 || !m.cols().is_multiple_of(group_size) {
            return Err(QuantError::BadGroupSize {
                group_size,
                cols: m.cols(),
            });
        }
        let groups_per_row = m.cols() / group_size;
        let mut codes = Vec::with_capacity(m.len());
        let mut scales = Vec::with_capacity(m.rows() * groups_per_row);
        let qmax = bits.qmax();
        for r in 0..m.rows() {
            let row = m.row(r);
            for g in 0..groups_per_row {
                let chunk = &row[g * group_size..(g + 1) * group_size];
                let absmax = chunk.iter().fold(0.0f32, |acc, v| acc.max(v.abs()));
                let scale = if absmax > 0.0 { absmax / qmax } else { 1.0 };
                scales.push(scale);
                for &v in chunk {
                    let q = (v / scale).round().clamp(-qmax, qmax);
                    codes.push(q as i8);
                }
            }
        }
        Ok(QuantizedMatrix {
            rows: m.rows(),
            cols: m.cols(),
            group_size,
            bits,
            codes,
            scales,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Quantization precision.
    pub fn bits(&self) -> QuantBits {
        self.bits
    }

    /// Group size used at quantization time.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// The raw integer codes, row-major, one i8 per element (backends read
    /// these directly for integer inner loops).
    pub fn codes(&self) -> &[i8] {
        &self.codes
    }

    /// The per-(row, group) scales, row-major.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Dequantize-on-the-fly mat-vec `y = Q x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// `matvec` into a caller-provided buffer.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree.
    pub fn matvec_into(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "quantized matvec input length");
        assert_eq!(y.len(), self.rows, "quantized matvec output length");
        let groups_per_row = self.cols / self.group_size;
        for (r, out) in y.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for g in 0..groups_per_row {
                let scale = self.scales[r * groups_per_row + g];
                let base = r * self.cols + g * self.group_size;
                let mut gsum = 0.0f32;
                for i in 0..self.group_size {
                    gsum += f32::from(self.codes[base + i]) * x[g * self.group_size + i];
                }
                acc += gsum * scale;
            }
            *out = acc;
        }
    }

    /// Reconstructs the dense approximation (testing / error analysis).
    pub fn dequantize(&self) -> Matrix {
        let mut dense = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            self.dequantize_row_into(r, dense.row_mut(r));
        }
        dense
    }

    /// Reconstructs row `r` of the dense approximation into `out` — what a
    /// row-subset product needs instead of the whole [`Self::dequantize`].
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `out.len() != cols`.
    pub fn dequantize_row_into(&self, r: usize, out: &mut [f32]) {
        assert!(r < self.rows, "row {r} out of bounds ({})", self.rows);
        assert_eq!(out.len(), self.cols, "dequantize_row output length");
        let groups_per_row = self.cols / self.group_size;
        let codes = &self.codes[r * self.cols..(r + 1) * self.cols];
        for (c, (o, &code)) in out.iter_mut().zip(codes).enumerate() {
            *o = f32::from(code) * self.scales[r * groups_per_row + c / self.group_size];
        }
    }

    /// Packed payload size in bytes: codes at `bits()` bits each plus one
    /// f16-equivalent scale (2 bytes) per group.
    pub fn bytes(&self) -> usize {
        let code_bits = self.codes.len() * self.bits.bits();
        code_bits.div_ceil(8) + self.scales.len() * 2
    }

    /// Worst-case elementwise reconstruction error bound: half a quantization
    /// step for the largest group scale.
    pub fn max_step(&self) -> f32 {
        self.scales.iter().fold(0.0f32, |a, &s| a.max(s)) * 0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Pcg;

    #[test]
    fn roundtrip_error_within_step() {
        let mut rng = Pcg::seed(1);
        let m = Matrix::random(6, 64, 2.0, &mut rng);
        let q = QuantizedMatrix::quantize(&m, QuantBits::Int8, 32).unwrap();
        let d = q.dequantize();
        let step = q.max_step();
        for (a, b) in m.as_slice().iter().zip(d.as_slice().iter()) {
            assert!((a - b).abs() <= step + 1e-6, "{a} vs {b} step {step}");
        }
    }

    #[test]
    fn int4_coarser_than_int8() {
        let mut rng = Pcg::seed(2);
        let m = Matrix::random(4, 32, 1.0, &mut rng);
        let q8 = QuantizedMatrix::quantize(&m, QuantBits::Int8, 16).unwrap();
        let q4 = QuantizedMatrix::quantize(&m, QuantBits::Int4, 16).unwrap();
        let err = |q: &QuantizedMatrix| {
            let d = q.dequantize();
            m.as_slice()
                .iter()
                .zip(d.as_slice().iter())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max)
        };
        assert!(err(&q4) >= err(&q8));
    }

    #[test]
    fn matvec_close_to_dense() {
        let mut rng = Pcg::seed(3);
        let m = Matrix::random(16, 128, 0.5, &mut rng);
        let q = QuantizedMatrix::quantize(&m, QuantBits::Int8, 64).unwrap();
        let x: Vec<f32> = (0..128).map(|i| ((i % 7) as f32 - 3.0) * 0.1).collect();
        let yd = m.matvec(&x);
        let yq = q.matvec(&x);
        for (a, b) in yd.iter().zip(yq.iter()) {
            assert!((a - b).abs() < 0.1, "{a} vs {b}");
        }
    }

    #[test]
    fn rejects_bad_group_size() {
        let m = Matrix::zeros(2, 10);
        assert!(QuantizedMatrix::quantize(&m, QuantBits::Int8, 3).is_err());
        assert!(QuantizedMatrix::quantize(&m, QuantBits::Int8, 0).is_err());
    }

    #[test]
    fn bytes_reflect_precision() {
        let m = Matrix::zeros(4, 64);
        let q8 = QuantizedMatrix::quantize(&m, QuantBits::Int8, 32).unwrap();
        let q4 = QuantizedMatrix::quantize(&m, QuantBits::Int4, 32).unwrap();
        assert!(q4.bytes() < q8.bytes());
        assert!(q8.bytes() < m.bytes());
    }

    #[test]
    fn zero_matrix_quantizes_to_zero() {
        let m = Matrix::zeros(3, 16);
        let q = QuantizedMatrix::quantize(&m, QuantBits::Int4, 16).unwrap();
        assert!(q.matvec(&[1.0; 16]).iter().all(|&v| v == 0.0));
    }
}
