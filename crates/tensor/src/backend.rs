//! Pluggable compute backends for the dense and quantized kernels.
//!
//! Every mat-vec this workspace executes — decoder projections, LM-head
//! reads, predictor MLPs, the grouped hyper-token GEMM — funnels through
//! the [`Backend`] trait, so a single switch retargets the whole engine
//! stack (the candle `Device` idea, specialised to this repo's CPU-only
//! op set). Three backends ship:
//!
//! * [`Reference`] — the original scalar loops of [`Matrix`] and
//!   [`QuantizedMatrix`], kept verbatim. This is the *oracle*: the
//!   conformance suite (`tests/conformance.rs`) pins every other backend
//!   to it, bit-exactly where the f32 summation order is preserved and
//!   within explicit error bounds where it is not.
//! * [`Blocked`] — cache-blocked and unrolled with `chunks_exact` so the
//!   autovectorizer can keep several independent accumulator chains in
//!   flight. `matvec`/`matvec_into`/`matmul_into`/`gemm` reduce each
//!   (row, input) dot in *exactly* the reference order (four lanes,
//!   `s0+s1+s2+s3`, sequential tail), so they are bit-identical to
//!   [`Reference`]; `matvec_t` and the quantized kernel re-associate
//!   across rows/lanes and are only tolerance-equal.
//! * [`QuantizedI8`] — i8 weights with per-group scales and an integer
//!   (`i32`-accumulating) inner loop. On pre-quantized weights
//!   ([`Backend::matvec_q_into`]) only the *activations* are quantized on
//!   the fly; on f32 operands the weights are group-quantized per call as
//!   well, making every f32 op approximate. The error is strictly bounded
//!   by the round-to-nearest step of each group — the conformance suite
//!   computes that bound per instance and asserts it, so quantized
//!   numbers are trustworthy exactly as far as the reported bound.
//!
//! # Examples
//!
//! ```
//! use specee_tensor::{BackendKind, Matrix, rng::Pcg};
//!
//! let mut rng = Pcg::seed(3);
//! let m = Matrix::random(16, 64, 1.0, &mut rng);
//! let x: Vec<f32> = (0..64).map(|i| (i as f32 * 0.1).sin()).collect();
//! let reference = BackendKind::Reference.get().matvec(&m, &x);
//! let blocked = BackendKind::Blocked.get().matvec(&m, &x);
//! assert_eq!(reference, blocked); // bit-identical, not merely close
//! ```

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::matrix::{dot, Matrix};
use crate::quant::QuantizedMatrix;

/// Group width used when [`QuantizedI8`] quantizes f32 operands on the
/// fly (pre-quantized [`QuantizedMatrix`] weights keep their own group
/// size). Ragged tails shorter than this are quantized as their own
/// (smaller) group, so arbitrary shapes are accepted.
pub const I8_GROUP: usize = 32;

/// A CPU compute backend: the complete kernel set the decoder stack needs.
///
/// Implementations must honour the same shape contracts (and panic
/// messages) as the [`Matrix`] methods they retarget; the conformance
/// suite instantiates one shared test body per backend to enforce this.
pub trait Backend: fmt::Debug + Send + Sync {
    /// Short stable name (`"reference"`, `"blocked"`, `"quant"`).
    fn name(&self) -> &'static str;

    /// Computes `y = M x` into a caller-provided buffer.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != m.cols()` or `y.len() != m.rows()`, with the
    /// same messages as [`Matrix::matvec_into`].
    fn matvec_into(&self, m: &Matrix, x: &[f32], y: &mut [f32]);

    /// Computes `y = M x`, allocating the output.
    fn matvec(&self, m: &Matrix, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0; m.rows()];
        self.matvec_into(m, x, &mut y);
        y
    }

    /// Computes `ys[n] = M xs[n]` for `n_in` inputs packed row-major in
    /// `xs` (`n_in × m.cols()`), writing the outputs packed row-major into
    /// `ys` (`n_in × m.rows()`) — one pass over the weights for the whole
    /// batch. Every output equals [`Backend::matvec_into`] of the same
    /// backend on that input bit for bit; the default body *is* that loop.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != n_in * m.cols()` or
    /// `ys.len() != n_in * m.rows()`.
    fn matmul_into(&self, m: &Matrix, xs: &[f32], n_in: usize, ys: &mut [f32]) {
        let (rows, cols) = (m.rows(), m.cols());
        assert_eq!(xs.len(), n_in * cols, "matmul input length");
        assert_eq!(ys.len(), n_in * rows, "matmul output length");
        for n in 0..n_in {
            self.matvec_into(
                m,
                &xs[n * cols..(n + 1) * cols],
                &mut ys[n * rows..(n + 1) * rows],
            );
        }
    }

    /// Computes `y = Mᵀ x` where `x.len() == m.rows()`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != m.rows()`, with the same message as
    /// [`Matrix::matvec_t`].
    fn matvec_t(&self, m: &Matrix, x: &[f32]) -> Vec<f32>;

    /// Batched grouped mat-vec (the hyper-token / tree-verification
    /// kernel): `out[g][i] = weight[groups[g][i]] · inputs[g]`.
    ///
    /// # Panics
    ///
    /// Panics if `groups.len() != inputs.len()`, an input's length differs
    /// from `weight.cols()`, or a row index is out of bounds.
    fn gemm(&self, weight: &Matrix, groups: &[Vec<usize>], inputs: &[Vec<f32>]) -> Vec<Vec<f32>>;

    /// Quantized mat-vec `y = Q x` over pre-quantized i8 weights.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch with the same messages as
    /// [`QuantizedMatrix::matvec_into`].
    fn matvec_q_into(&self, q: &QuantizedMatrix, x: &[f32], y: &mut [f32]);

    /// Quantized mat-vec, allocating the output.
    fn matvec_q(&self, q: &QuantizedMatrix, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0; q.rows()];
        self.matvec_q_into(q, x, &mut y);
        y
    }
}

/// Copyable backend selector: what engine configs, CLIs and model structs
/// store instead of a trait object.
///
/// The default is [`BackendKind::Reference`], so every existing
/// construction path keeps its seed-era bit-exact numerics unless a
/// caller opts into a faster backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum BackendKind {
    /// The scalar oracle ([`Reference`]).
    #[default]
    Reference,
    /// Cache-blocked, unroll-friendly kernels ([`Blocked`]).
    Blocked,
    /// i8-quantizing integer kernels ([`QuantizedI8`]).
    QuantizedI8,
}

impl BackendKind {
    /// Every backend, in oracle-first order (what the conformance suite
    /// and the microbenchmarks iterate over).
    pub const ALL: [BackendKind; 3] = [
        BackendKind::Reference,
        BackendKind::Blocked,
        BackendKind::QuantizedI8,
    ];

    /// The backend implementation this kind selects.
    pub fn get(self) -> &'static dyn Backend {
        match self {
            BackendKind::Reference => &Reference,
            BackendKind::Blocked => &Blocked,
            BackendKind::QuantizedI8 => &QuantizedI8,
        }
    }

    /// Whether f32 ops through this backend are exact (`false` means
    /// outputs carry a bounded quantization error).
    pub fn is_exact(self) -> bool {
        !matches!(self, BackendKind::QuantizedI8)
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.get().name())
    }
}

impl FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "reference" => Ok(BackendKind::Reference),
            "blocked" => Ok(BackendKind::Blocked),
            "quant" | "quantized" | "i8" => Ok(BackendKind::QuantizedI8),
            other => Err(format!(
                "unknown backend `{other}` (reference, blocked, quant)"
            )),
        }
    }
}

// ---------------------------------------------------------------------------
// Reference
// ---------------------------------------------------------------------------

/// The oracle backend: delegates to the original scalar loops of
/// [`Matrix`] and [`QuantizedMatrix`], unchanged from the seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Reference;

impl Backend for Reference {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn matvec_into(&self, m: &Matrix, x: &[f32], y: &mut [f32]) {
        m.matvec_into(x, y);
    }

    fn matvec_t(&self, m: &Matrix, x: &[f32]) -> Vec<f32> {
        m.matvec_t(x)
    }

    fn gemm(&self, weight: &Matrix, groups: &[Vec<usize>], inputs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        assert_eq!(groups.len(), inputs.len(), "group count mismatch");
        groups
            .iter()
            .zip(inputs.iter())
            .map(|(rows, x)| {
                assert_eq!(x.len(), weight.cols(), "input dimension mismatch");
                rows.iter()
                    .map(|&r| {
                        assert!(
                            r < weight.rows(),
                            "row {r} out of bounds ({})",
                            weight.rows()
                        );
                        dot(weight.row(r), x)
                    })
                    .collect()
            })
            .collect()
    }

    fn matvec_q_into(&self, q: &QuantizedMatrix, x: &[f32], y: &mut [f32]) {
        q.matvec_into(x, y);
    }
}

// ---------------------------------------------------------------------------
// Blocked
// ---------------------------------------------------------------------------

/// Cache-blocked, `chunks_exact`-unrolled kernels.
///
/// `matvec`/`matmul_into` walk four rows at a time, each (row, input)
/// pair carrying the same four-lane accumulator pattern (and reduction
/// order) as [`crate::matrix::dot`] — bounds checks vanish, each weight
/// chunk is loaded once for the row block's whole batch of inputs, and the
/// independent accumulator chains keep the multiply pipes busy, while
/// every result stays bit-identical to [`Reference`]. The mat-vec *is* the
/// mat-mul of one input. On x86-64 both dispatch (at runtime, via
/// `is_x86_feature_detected!`) to an AVX kernel that packs the four rows'
/// four-lane accumulators into two 256-bit registers per input, four
/// inputs to a register tile — the per-lane addition chains are untouched,
/// so that path is *also* bit-identical to the scalar oracle, just ~2x
/// faster per mat-vec and ~2x again per input of a batch. `gemm` (row
/// subsets) stays a per-row dot in the same order. `matvec_t`
/// re-associates across the row block (four saxpys fused per pass over
/// `y`) and is only tolerance-equal.
#[derive(Debug, Clone, Copy, Default)]
pub struct Blocked;

/// Wide-register x86-64 mat-mul kernel used by [`Blocked`].
///
/// The kernel replicates the reference reduction exactly: each
/// (weight row, input) pair keeps four f32 accumulator lanes updated in
/// column order, lanes are combined `s0+s1+s2+s3`, and the ragged column
/// tail is added sequentially — only the *packing* of independent lanes
/// into 256-bit registers differs, which IEEE-754 addition cannot observe.
/// (An AVX-512 variant measured no faster — the kernel is memory-bound —
/// and its intrinsics would raise the workspace MSRV, so AVX is the
/// widest path shipped. FMA and 8-lane accumulators are faster but round
/// differently from the oracle, so they are out.)
#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    use crate::matrix::{dot, Matrix};

    /// Inputs per register tile: 4 rows × 4 inputs is eight independent
    /// 256-bit accumulator chains, enough to cover the add latency.
    const TILE_INPUTS: usize = 4;

    /// One register tile: four weight rows (`w`) against the `N`
    /// consecutive inputs at `xs`, each weight chunk loaded once and
    /// reused across the inputs. Writes `ys[n * rows + 0..4]`.
    ///
    /// # Safety
    ///
    /// AVX must be available; every `w[k]` and `xs + n * cols` must be
    /// readable for `cols` floats and `ys + n * rows` writable for four.
    #[target_feature(enable = "avx")]
    unsafe fn tile_avx<const N: usize>(
        w: [*const f32; 4],
        cols: usize,
        xs: *const f32,
        ys: *mut f32,
        rows: usize,
    ) {
        let chunks = cols / 4;
        let mut acc01 = [_mm256_setzero_ps(); N];
        let mut acc23 = [_mm256_setzero_ps(); N];
        for c in 0..chunks {
            let j = c * 4;
            let w01 = _mm256_set_m128(_mm_loadu_ps(w[1].add(j)), _mm_loadu_ps(w[0].add(j)));
            let w23 = _mm256_set_m128(_mm_loadu_ps(w[3].add(j)), _mm_loadu_ps(w[2].add(j)));
            for n in 0..N {
                let xv = _mm_loadu_ps(xs.add(n * cols + j));
                let xx = _mm256_set_m128(xv, xv);
                acc01[n] = _mm256_add_ps(acc01[n], _mm256_mul_ps(w01, xx));
                acc23[n] = _mm256_add_ps(acc23[n], _mm256_mul_ps(w23, xx));
            }
        }
        for n in 0..N {
            let x = xs.add(n * cols);
            // The four rows' ordered lane sums `v0 + v1 + v2 + v3` (the
            // reference reduction; deliberately not a tree) at once:
            // transposed, vector `i` holds lane `i` of every row.
            let mut t0 = _mm256_castps256_ps128(acc01[n]);
            let mut t1 = _mm256_extractf128_ps(acc01[n], 1);
            let mut t2 = _mm256_castps256_ps128(acc23[n]);
            let mut t3 = _mm256_extractf128_ps(acc23[n], 1);
            _MM_TRANSPOSE4_PS(&mut t0, &mut t1, &mut t2, &mut t3);
            let mut out = [0.0f32; 4];
            let sums = _mm_add_ps(_mm_add_ps(_mm_add_ps(t0, t1), t2), t3);
            _mm_storeu_ps(out.as_mut_ptr(), sums);
            for j in chunks * 4..cols {
                let xv = *x.add(j);
                out[0] += *w[0].add(j) * xv;
                out[1] += *w[1].add(j) * xv;
                out[2] += *w[2].add(j) * xv;
                out[3] += *w[3].add(j) * xv;
            }
            core::ptr::copy_nonoverlapping(out.as_ptr(), ys.add(n * rows), 4);
        }
    }

    /// AVX mat-mul: blocks of four rows, each walked over the inputs in
    /// register tiles (a single input is the degenerate tile — the
    /// mat-vec).
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX is available and shapes already validated
    /// (`xs.len() == n_in * m.cols()`, `ys.len() == n_in * m.rows()`).
    #[target_feature(enable = "avx")]
    pub unsafe fn matmul_avx(m: &Matrix, xs: &[f32], n_in: usize, ys: &mut [f32]) {
        let (rows, cols) = (m.rows(), m.cols());
        let data = m.as_slice();
        let blocks = rows / 4;
        for b in 0..blocks {
            let r = b * 4;
            let p = data.as_ptr().add(r * cols);
            let w = [p, p.add(cols), p.add(2 * cols), p.add(3 * cols)];
            for n in (0..n_in).step_by(TILE_INPUTS) {
                // `n < n_in` and `r + 4 <= rows`: both pointers are in
                // bounds, and the tile chosen below covers exactly the
                // `min(TILE_INPUTS, n_in - n)` inputs that remain.
                let (x, y) = (xs.as_ptr().add(n * cols), ys.as_mut_ptr().add(n * rows + r));
                match n_in - n {
                    1 => tile_avx::<1>(w, cols, x, y, rows),
                    2 => tile_avx::<2>(w, cols, x, y, rows),
                    3 => tile_avx::<3>(w, cols, x, y, rows),
                    _ => tile_avx::<TILE_INPUTS>(w, cols, x, y, rows),
                }
            }
        }
        for r in blocks * 4..rows {
            let row = &data[r * cols..(r + 1) * cols];
            for n in 0..n_in {
                ys[n * rows + r] = dot(row, &xs[n * cols..(n + 1) * cols]);
            }
        }
    }
}

/// Rows processed per block by the blocked mat-vec.
const ROW_BLOCK: usize = 4;

/// `chunks_exact` dot with the exact reduction tree of
/// [`crate::matrix::dot`]: four lanes, `s0+s1+s2+s3`, sequential tail.
#[inline]
fn dot_blocked(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let (ra, rb) = (ca.remainder(), cb.remainder());
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    for (pa, pb) in ca.zip(cb) {
        s0 += pa[0] * pb[0];
        s1 += pa[1] * pb[1];
        s2 += pa[2] * pb[2];
        s3 += pa[3] * pb[3];
    }
    let mut sum = s0 + s1 + s2 + s3;
    for (x, y) in ra.iter().zip(rb) {
        sum += x * y;
    }
    sum
}

/// Four simultaneous row dots sharing each `x` chunk load. Each row's
/// accumulation order is identical to [`dot_blocked`] (hence to the
/// reference `dot`).
#[inline]
fn dot4_rows(r0: &[f32], r1: &[f32], r2: &[f32], r3: &[f32], x: &[f32]) -> [f32; 4] {
    let mut acc = [[0.0f32; 4]; ROW_BLOCK];
    let cx = x.chunks_exact(4);
    let tail_start = x.len() - cx.remainder().len();
    let it = cx
        .zip(r0.chunks_exact(4))
        .zip(r1.chunks_exact(4))
        .zip(r2.chunks_exact(4))
        .zip(r3.chunks_exact(4));
    for ((((xc, c0), c1), c2), c3) in it {
        for lane in 0..4 {
            acc[0][lane] += c0[lane] * xc[lane];
            acc[1][lane] += c1[lane] * xc[lane];
            acc[2][lane] += c2[lane] * xc[lane];
            acc[3][lane] += c3[lane] * xc[lane];
        }
    }
    let mut out = [0.0f32; ROW_BLOCK];
    for (o, lanes) in out.iter_mut().zip(acc.iter()) {
        *o = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    }
    for j in tail_start..x.len() {
        out[0] += r0[j] * x[j];
        out[1] += r1[j] * x[j];
        out[2] += r2[j] * x[j];
        out[3] += r3[j] * x[j];
    }
    out
}

/// Portable blocked mat-mul (the non-x86 / pre-AVX path): four rows per
/// block through [`dot4_rows`] against each input in turn (so a row block
/// is fetched once for the whole batch), remainder rows through
/// [`dot_blocked`]. Bit-identical to [`Reference`] by the same
/// reduction-order argument as the wide kernels.
fn matmul_blocked_portable(m: &Matrix, xs: &[f32], n_in: usize, ys: &mut [f32]) {
    let (rows, cols) = (m.rows(), m.cols());
    let data = m.as_slice();
    let blocks = rows / ROW_BLOCK;
    for b in 0..blocks {
        let r = b * ROW_BLOCK;
        let row = |k: usize| &data[(r + k) * cols..(r + k + 1) * cols];
        let (r0, r1, r2, r3) = (row(0), row(1), row(2), row(3));
        for n in 0..n_in {
            let out = dot4_rows(r0, r1, r2, r3, &xs[n * cols..(n + 1) * cols]);
            ys[n * rows + r..n * rows + r + ROW_BLOCK].copy_from_slice(&out);
        }
    }
    for r in blocks * ROW_BLOCK..rows {
        let row = &data[r * cols..(r + 1) * cols];
        for n in 0..n_in {
            ys[n * rows + r] = dot_blocked(row, &xs[n * cols..(n + 1) * cols]);
        }
    }
}

/// Dispatches a shape-checked mat-mul to the widest kernel available.
fn matmul_blocked(m: &Matrix, xs: &[f32], n_in: usize, ys: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx") {
            // SAFETY: feature presence checked above; callers validated
            // `xs.len() == n_in * cols` and `ys.len() == n_in * rows`.
            unsafe { x86::matmul_avx(m, xs, n_in, ys) };
            return;
        }
    }
    matmul_blocked_portable(m, xs, n_in, ys);
}

impl Backend for Blocked {
    fn name(&self) -> &'static str {
        "blocked"
    }

    fn matvec_into(&self, m: &Matrix, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), m.cols(), "matvec input length");
        assert_eq!(y.len(), m.rows(), "matvec output length");
        matmul_blocked(m, x, 1, y);
    }

    fn matmul_into(&self, m: &Matrix, xs: &[f32], n_in: usize, ys: &mut [f32]) {
        assert_eq!(xs.len(), n_in * m.cols(), "matmul input length");
        assert_eq!(ys.len(), n_in * m.rows(), "matmul output length");
        matmul_blocked(m, xs, n_in, ys);
    }

    fn matvec_t(&self, m: &Matrix, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), m.rows(), "matvec_t input length");
        let cols = m.cols();
        let data = m.as_slice();
        let mut y = vec![0.0f32; cols];
        let blocks = m.rows() / ROW_BLOCK;
        for b in 0..blocks {
            let r = b * ROW_BLOCK;
            let (x0, x1, x2, x3) = (x[r], x[r + 1], x[r + 2], x[r + 3]);
            let r0 = &data[r * cols..(r + 1) * cols];
            let r1 = &data[(r + 1) * cols..(r + 2) * cols];
            let r2 = &data[(r + 2) * cols..(r + 3) * cols];
            let r3 = &data[(r + 3) * cols..(r + 4) * cols];
            let it = y
                .iter_mut()
                .zip(r0.iter())
                .zip(r1.iter())
                .zip(r2.iter())
                .zip(r3.iter());
            for ((((v, &w0), &w1), &w2), &w3) in it {
                *v += w0 * x0 + w1 * x1 + w2 * x2 + w3 * x3;
            }
        }
        for r in blocks * ROW_BLOCK..m.rows() {
            let xv = x[r];
            let row = &data[r * cols..(r + 1) * cols];
            for (v, &w) in y.iter_mut().zip(row.iter()) {
                *v += w * xv;
            }
        }
        y
    }

    fn gemm(&self, weight: &Matrix, groups: &[Vec<usize>], inputs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        assert_eq!(groups.len(), inputs.len(), "group count mismatch");
        groups
            .iter()
            .zip(inputs.iter())
            .map(|(rows, x)| {
                assert_eq!(x.len(), weight.cols(), "input dimension mismatch");
                rows.iter()
                    .map(|&r| {
                        assert!(
                            r < weight.rows(),
                            "row {r} out of bounds ({})",
                            weight.rows()
                        );
                        dot_blocked(weight.row(r), x)
                    })
                    .collect()
            })
            .collect()
    }

    fn matvec_q_into(&self, q: &QuantizedMatrix, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), q.cols(), "quantized matvec input length");
        assert_eq!(y.len(), q.rows(), "quantized matvec output length");
        let gs = q.group_size();
        let cols = q.cols();
        let codes = q.codes();
        let scales = q.scales();
        let groups_per_row = cols / gs;
        for (r, out) in y.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for g in 0..groups_per_row {
                let base = r * cols + g * gs;
                let wchunk = &codes[base..base + gs];
                let xchunk = &x[g * gs..(g + 1) * gs];
                // 4-lane unrolled dequantizing dot; the within-group
                // reduction order differs from Reference, so conformance
                // holds this kernel to a tolerance, not bit-equality.
                let cw = wchunk.chunks_exact(4);
                let cx = xchunk.chunks_exact(4);
                let (rw, rx) = (cw.remainder(), cx.remainder());
                let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
                for (pw, px) in cw.zip(cx) {
                    s0 += f32::from(pw[0]) * px[0];
                    s1 += f32::from(pw[1]) * px[1];
                    s2 += f32::from(pw[2]) * px[2];
                    s3 += f32::from(pw[3]) * px[3];
                }
                let mut gsum = s0 + s1 + s2 + s3;
                for (&w, &xv) in rw.iter().zip(rx) {
                    gsum += f32::from(w) * xv;
                }
                acc += gsum * scales[r * groups_per_row + g];
            }
            *out = acc;
        }
    }
}

// ---------------------------------------------------------------------------
// QuantizedI8
// ---------------------------------------------------------------------------

/// i8 integer backend: per-group symmetric round-to-nearest quantization
/// with an `i32`-accumulating inner loop.
///
/// On [`Backend::matvec_q_into`] (pre-quantized weights) only the
/// activations are quantized — one absmax scale per weight group — and
/// the inner loop is pure integer MACs. On f32 operands the weights are
/// additionally group-quantized per call ([`I8_GROUP`]-wide groups), so
/// every f32 op is approximate with a per-instance computable bound (see
/// [`quantize_i8`]). `matvec_t` quantizes weights only (activations stay
/// f32), since its accumulation runs across rows, not within groups.
#[derive(Debug, Clone, Copy, Default)]
pub struct QuantizedI8;

/// Symmetric round-to-nearest i8 quantization of one group, exactly as
/// the [`QuantizedI8`] kernels perform it: `scale = absmax / 127`
/// (`1.0` for an all-zero group) and `code = round(v / scale)` clamped
/// to `[-127, 127]`.
///
/// Public so the conformance suite can rebuild the kernel's exact codes
/// and derive tight error bounds from them.
pub fn quantize_i8(values: &[f32]) -> (f32, Vec<i8>) {
    let mut codes = vec![0i8; values.len()];
    let scale = quantize_i8_into(values, &mut codes);
    (scale, codes)
}

#[inline]
fn quantize_i8_into(src: &[f32], codes: &mut [i8]) -> f32 {
    debug_assert_eq!(src.len(), codes.len());
    let absmax = src.iter().fold(0.0f32, |a, v| a.max(v.abs()));
    let scale = if absmax > 0.0 { absmax / 127.0 } else { 1.0 };
    for (c, &v) in codes.iter_mut().zip(src) {
        *c = (v / scale).round().clamp(-127.0, 127.0) as i8;
    }
    scale
}

/// Quantizes `x` in groups of `group` (ragged tail allowed), returning
/// per-group scales and the code vector.
fn quantize_groups(x: &[f32], group: usize) -> (Vec<f32>, Vec<i8>) {
    let mut codes = vec![0i8; x.len()];
    let mut scales = Vec::with_capacity(x.len().div_ceil(group.max(1)));
    for (vals, chunk) in x.chunks(group).zip(codes.chunks_mut(group)) {
        scales.push(quantize_i8_into(vals, chunk));
    }
    (scales, codes)
}

/// Integer dot of two i8 code slices, accumulated in `i32` (exact for
/// any group this crate produces: `|code| ≤ 127`, group lengths far
/// below the `i32` overflow threshold of ~133k elements).
#[inline]
fn idot(a: &[i8], b: &[i8]) -> i32 {
    let mut s: i32 = 0;
    for (&w, &x) in a.iter().zip(b) {
        s += i32::from(w) * i32::from(x);
    }
    s
}

impl QuantizedI8 {
    /// One quantized row dot over on-the-fly-quantized weights, given the
    /// activations' pre-computed group codes/scales.
    #[inline]
    fn row_dot(row: &[f32], xq: &[i8], xs: &[f32], wq_scratch: &mut [i8]) -> f32 {
        let mut acc = 0.0f32;
        for (g, (wvals, xchunk)) in row.chunks(I8_GROUP).zip(xq.chunks(I8_GROUP)).enumerate() {
            let codes = &mut wq_scratch[..wvals.len()];
            let sw = quantize_i8_into(wvals, codes);
            acc += idot(codes, xchunk) as f32 * (sw * xs[g]);
        }
        acc
    }
}

impl Backend for QuantizedI8 {
    fn name(&self) -> &'static str {
        "quant"
    }

    fn matvec_into(&self, m: &Matrix, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), m.cols(), "matvec input length");
        assert_eq!(y.len(), m.rows(), "matvec output length");
        let cols = m.cols();
        let data = m.as_slice();
        let (xs, xq) = quantize_groups(x, I8_GROUP);
        let mut scratch = vec![0i8; I8_GROUP.min(cols.max(1))];
        for (r, out) in y.iter_mut().enumerate() {
            *out = Self::row_dot(&data[r * cols..(r + 1) * cols], &xq, &xs, &mut scratch);
        }
    }

    fn matvec_t(&self, m: &Matrix, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), m.rows(), "matvec_t input length");
        let cols = m.cols();
        let data = m.as_slice();
        let mut y = vec![0.0f32; cols];
        let mut scratch = vec![0i8; I8_GROUP.min(cols.max(1))];
        for (r, &xv) in x.iter().enumerate() {
            let row = &data[r * cols..(r + 1) * cols];
            for (g, wvals) in row.chunks(I8_GROUP).enumerate() {
                let codes = &mut scratch[..wvals.len()];
                let sw = quantize_i8_into(wvals, codes);
                let ys = &mut y[g * I8_GROUP..g * I8_GROUP + wvals.len()];
                for (v, &c) in ys.iter_mut().zip(codes.iter()) {
                    *v += f32::from(c) * sw * xv;
                }
            }
        }
        y
    }

    fn gemm(&self, weight: &Matrix, groups: &[Vec<usize>], inputs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        assert_eq!(groups.len(), inputs.len(), "group count mismatch");
        let cols = weight.cols();
        let data = weight.as_slice();
        let mut scratch = vec![0i8; I8_GROUP.min(cols.max(1))];
        groups
            .iter()
            .zip(inputs.iter())
            .map(|(rows, x)| {
                assert_eq!(x.len(), cols, "input dimension mismatch");
                let (xs, xq) = quantize_groups(x, I8_GROUP);
                rows.iter()
                    .map(|&r| {
                        assert!(
                            r < weight.rows(),
                            "row {r} out of bounds ({})",
                            weight.rows()
                        );
                        Self::row_dot(&data[r * cols..(r + 1) * cols], &xq, &xs, &mut scratch)
                    })
                    .collect()
            })
            .collect()
    }

    fn matvec_q_into(&self, q: &QuantizedMatrix, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), q.cols(), "quantized matvec input length");
        assert_eq!(y.len(), q.rows(), "quantized matvec output length");
        let gs = q.group_size();
        let cols = q.cols();
        let codes = q.codes();
        let scales = q.scales();
        let groups_per_row = cols / gs;
        let (xs, xq) = quantize_groups(x, gs);
        for (r, out) in y.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for g in 0..groups_per_row {
                let base = r * cols + g * gs;
                let isum = idot(&codes[base..base + gs], &xq[g * gs..(g + 1) * gs]);
                acc += isum as f32 * (scales[r * groups_per_row + g] * xs[g]);
            }
            *out = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Pcg;

    #[test]
    fn kind_roundtrips_through_display_and_fromstr() {
        for kind in BackendKind::ALL {
            let name = kind.to_string();
            assert_eq!(name.parse::<BackendKind>().unwrap(), kind);
            assert_eq!(kind.get().name(), name);
        }
        assert!("metal".parse::<BackendKind>().is_err());
    }

    #[test]
    fn default_kind_is_the_oracle() {
        assert_eq!(BackendKind::default(), BackendKind::Reference);
        assert!(BackendKind::Reference.is_exact());
        assert!(BackendKind::Blocked.is_exact());
        assert!(!BackendKind::QuantizedI8.is_exact());
    }

    #[test]
    fn blocked_matvec_bit_identical_to_reference() {
        let mut rng = Pcg::seed(7);
        for (rows, cols) in [(1, 1), (3, 5), (4, 16), (17, 33), (64, 128)] {
            let m = Matrix::random(rows, cols, 1.0, &mut rng);
            let mut x = vec![0.0f32; cols];
            rng.fill_uniform(&mut x, 1.0);
            assert_eq!(
                BackendKind::Reference.get().matvec(&m, &x),
                BackendKind::Blocked.get().matvec(&m, &x),
                "{rows}x{cols}"
            );
        }
    }

    /// Runs `kernel` (one of the `Blocked` mat-mul paths) on `n_in` packed
    /// inputs and checks every output against the oracle's mat-vec.
    fn assert_path_matches_reference(
        what: &str,
        kernel: impl Fn(&Matrix, &[f32], usize, &mut [f32]),
        rng: &mut Pcg,
        (rows, cols, n_in): (usize, usize, usize),
    ) {
        let m = Matrix::random(rows, cols, 1.0, rng);
        let mut xs = vec![0.0f32; n_in * cols];
        rng.fill_uniform(&mut xs, 1.0);
        let mut ys = vec![f32::NAN; n_in * rows];
        kernel(&m, &xs, n_in, &mut ys);
        for n in 0..n_in {
            let reference = BackendKind::Reference
                .get()
                .matvec(&m, &xs[n * cols..(n + 1) * cols]);
            let got: Vec<u32> = ys[n * rows..(n + 1) * rows]
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let want: Vec<u32> = reference.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{what} {rows}x{cols}, input {n} of {n_in}");
        }
    }

    /// The public `Blocked` entry points dispatch to the widest available
    /// kernel; this pins *each* path (portable, AVX where present) to the
    /// oracle independently, over `shapes` of (rows, cols, inputs).
    fn pin_every_blocked_path(seed: u64, shapes: &[(usize, usize, usize)]) {
        let mut rng = Pcg::seed(seed);
        for &shape in shapes {
            assert_path_matches_reference("portable", matmul_blocked_portable, &mut rng, shape);
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx") {
                    assert_path_matches_reference(
                        "avx",
                        // SAFETY: feature presence checked; the helper
                        // sizes `xs`/`ys` to the shape.
                        |m, xs, n_in, ys| unsafe { x86::matmul_avx(m, xs, n_in, ys) },
                        &mut rng,
                        shape,
                    );
                }
            }
        }
    }

    #[test]
    fn every_blocked_matvec_path_bit_identical_to_reference() {
        pin_every_blocked_path(
            11,
            &[(1, 7, 1), (4, 4, 1), (5, 19, 1), (32, 64, 1), (33, 65, 1)],
        );
    }

    #[test]
    fn every_blocked_matmul_path_bit_identical_to_reference() {
        // Odd rows, `cols % 4 != 0`, and every input-tile remainder.
        let mut shapes = Vec::new();
        for n_in in [0, 1, 2, 3, 4, 5, 7, 8, 22] {
            for (rows, cols) in [(1, 7), (4, 4), (5, 19), (32, 64), (33, 65), (6, 0)] {
                shapes.push((rows, cols, n_in));
            }
        }
        pin_every_blocked_path(12, &shapes);
    }

    #[test]
    fn quantize_i8_matches_quantized_matrix_rule() {
        // Same rule as QuantizedMatrix::quantize for an int8 group.
        let vals = [0.5f32, -1.0, 0.25, 0.75];
        let (scale, codes) = quantize_i8(&vals);
        assert!((scale - 1.0 / 127.0).abs() < 1e-9);
        assert_eq!(codes[1], -127);
        let (zscale, zcodes) = quantize_i8(&[0.0, 0.0]);
        assert_eq!(zscale, 1.0);
        assert_eq!(zcodes, vec![0, 0]);
    }

    #[test]
    fn integer_dot_is_exact() {
        let a: Vec<i8> = (-64..64).collect();
        let b: Vec<i8> = (0..128).map(|i| (i % 127) as i8 - 63).collect();
        let expect: i32 = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| i32::from(x) * i32::from(y))
            .sum();
        assert_eq!(idot(&a, &b), expect);
    }
}
