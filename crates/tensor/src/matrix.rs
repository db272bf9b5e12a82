//! Row-major dense matrices.

use serde::{Deserialize, Serialize};

use crate::rng::Pcg;

/// A row-major dense `f32` matrix.
///
/// The decoder weights, LM head, embeddings, and MLP predictor weights of
/// the simulator are all `Matrix` values. The layout is row-major so that
/// `matvec` (the dominant decode-phase operation) walks memory linearly.
///
/// # Examples
///
/// ```
/// use specee_tensor::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(m.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Creates a matrix by evaluating `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix with uniform noise in `[-scale, scale)`.
    pub fn random(rows: usize, cols: usize, scale: f32, rng: &mut Pcg) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        rng.fill_uniform(&mut m.data, scale);
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The flat row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrows row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element accessor.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element setter.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Computes `y = M x` where `x.len() == cols`, producing `rows` outputs.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// `matvec` into a caller-provided buffer (avoids allocation in the
    /// decode hot loop).
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree.
    pub fn matvec_into(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "matvec input length");
        assert_eq!(y.len(), self.rows, "matvec output length");
        for (r, out) in y.iter_mut().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            *out = dot(row, x);
        }
    }

    /// Computes `y = Mᵀ x` where `x.len() == rows`, producing `cols` outputs.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    pub fn matvec_t(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.rows, "matvec_t input length");
        let mut y = vec![0.0; self.cols];
        for (r, &xv) in x.iter().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (c, &w) in row.iter().enumerate() {
                y[c] += w * xv;
            }
        }
        y
    }

    /// Computes the logits of a *subset* of rows: `y_i = M[rows[i]] · x`.
    ///
    /// This is the speculative LM-head slice of SpecEE T1: instead of a full
    /// `vocab × hidden` product, only the candidate token rows are touched.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds or `x.len() != cols`.
    pub fn matvec_rows(&self, row_ids: &[usize], x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "matvec_rows input length");
        row_ids
            .iter()
            .map(|&r| {
                assert!(r < self.rows, "row {r} out of bounds ({})", self.rows);
                dot(self.row(r), x)
            })
            .collect()
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Scales every element in place.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// In-place `self += other * s`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_scaled(&mut self, other: &Matrix, s: f32) {
        assert_eq!(self.rows, other.rows, "add_scaled rows");
        assert_eq!(self.cols, other.cols, "add_scaled cols");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b * s;
        }
    }

    /// Memory footprint of the payload in bytes (f32 storage).
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics in debug builds if lengths differ.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    // 4-lane unrolling: the optimizer vectorizes this reliably.
    let chunks = a.len() / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    for i in 0..chunks {
        let j = i * 4;
        s0 += a[j] * b[j];
        s1 += a[j + 1] * b[j + 1];
        s2 += a[j + 2] * b[j + 2];
        s3 += a[j + 3] * b[j + 3];
    }
    let mut sum = s0 + s1 + s2 + s3;
    for j in chunks * 4..a.len() {
        sum += a[j] * b[j];
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_matches_manual() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
    }

    #[test]
    fn matvec_t_matches_transpose() {
        let mut rng = Pcg::seed(1);
        let m = Matrix::random(5, 7, 1.0, &mut rng);
        let x: Vec<f32> = (0..5).map(|i| i as f32 - 2.0).collect();
        let direct = m.matvec_t(&x);
        let via_t = m.transpose().matvec(&x);
        for (a, b) in direct.iter().zip(via_t.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn matvec_rows_is_slice_of_full() {
        let mut rng = Pcg::seed(2);
        let m = Matrix::random(10, 6, 1.0, &mut rng);
        let x: Vec<f32> = (0..6).map(|i| 0.3 * i as f32).collect();
        let full = m.matvec(&x);
        let sel = m.matvec_rows(&[7, 0, 3], &x);
        assert_eq!(sel, vec![full[7], full[0], full[3]]);
    }

    #[test]
    fn transpose_twice_is_identity() {
        let mut rng = Pcg::seed(5);
        let m = Matrix::random(6, 3, 1.0, &mut rng);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    #[should_panic(expected = "matvec input length")]
    fn matvec_validates_shape() {
        Matrix::zeros(2, 3).matvec(&[1.0, 2.0]);
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = Matrix::zeros(2, 2);
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        a.add_scaled(&b, 2.5);
        assert_eq!(a.get(0, 0), 2.5);
        assert_eq!(a.get(0, 1), 0.0);
    }

    #[test]
    fn bytes_counts_f32_payload() {
        assert_eq!(Matrix::zeros(3, 4).bytes(), 48);
    }
}
