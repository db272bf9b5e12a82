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
/// mat-mul of one input. Three paths, picked at runtime by
/// `is_x86_feature_detected!`: portable; AVX, two rows' lanes to a 256-bit
/// register (two accumulators an input, four inputs a register tile);
/// AVX-512, all four rows' lanes in one 512-bit accumulator an input, eight
/// inputs a tile, so the weight register is built once per eight inputs
/// and the arithmetic per input halves. Each keeps every (row, input, lane)
/// addition chain, the `s0+s1+s2+s3` reduction and the sequential column
/// tail as the oracle has them — only the register a lane sits in differs,
/// and multiply and add stay two instructions (FMA and 8-lane sums round
/// differently) — so each is bit-identical to it. The x86 tiles prefetch
/// the row block two ahead (a decoder walks more weights per token than L2
/// holds, and a tile's four row streams defeat the hardware prefetcher):
/// that moves a cache line, never a sum. `gemm` (row subsets) stays a
/// per-row dot in the same order. `matvec_t` re-associates across the row
/// block (four saxpys fused per pass over `y`) and is only tolerance-equal.
#[derive(Debug, Clone, Copy, Default)]
pub struct Blocked;

/// The x86-64 register tiles and the block walk behind [`Blocked`], whose
/// docs say why every path keeps the oracle's sums.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    use crate::matrix::{dot, Matrix};

    /// Row blocks between the one a tile reduces and the one it prefetches
    /// (1, 2 and 4 measured alike, 8 worse: one constant, no tuning).
    const LOOK_AHEAD: usize = 2;

    /// What a register tile of `N` inputs works on, `(w, cols, xs, ys, rows,
    /// ahead)`: four weight rows `w + k * cols` and inputs `xs + n * cols`,
    /// each readable for `cols` floats; outputs `ys + n * rows`, writable
    /// for four; `ahead`, null or the first of `4 * cols` readable floats (a
    /// later row block) to prefetch, one cache line per four-column chunk.
    type Operands = (*const f32, usize, *const f32, *mut f32, usize, *const f32);

    /// Finishes input `n` of a tile, `lanes[k]` holding row `k`'s four lane
    /// sums: the one place the reduction order is written down.
    ///
    /// # Safety
    ///
    /// `t` must be what [`Operands`] says for a tile of more than `n` inputs.
    #[inline(always)]
    unsafe fn store_block_sums(lanes: [__m128; 4], t: Operands, n: usize) {
        let (w, cols, xs, ys, rows, _) = t;
        // The four rows' ordered lane sums `v0 + v1 + v2 + v3` (the
        // reference reduction; deliberately not a tree) at once:
        // transposed, vector `i` holds lane `i` of every row.
        let [mut t0, mut t1, mut t2, mut t3] = lanes;
        _MM_TRANSPOSE4_PS(&mut t0, &mut t1, &mut t2, &mut t3);
        let mut out = [0.0f32; 4];
        let sums = _mm_add_ps(_mm_add_ps(_mm_add_ps(t0, t1), t2), t3);
        _mm_storeu_ps(out.as_mut_ptr(), sums);
        for j in cols / 4 * 4..cols {
            let xv = *xs.add(n * cols + j);
            for (k, o) in out.iter_mut().enumerate() {
                *o += *w.add(k * cols + j) * xv;
            }
        }
        core::ptr::copy_nonoverlapping(out.as_ptr(), ys.add(n * rows), 4);
    }

    /// The AVX tile, `N <= 4`: 2 N independent 256-bit chains. Out of line
    /// like its sibling: inlined, all tiles share the walk's registers and
    /// the one-input loop spills its row pointers.
    ///
    /// # Safety
    ///
    /// AVX must be available and `t` be what [`Operands`] says.
    #[inline(never)]
    #[target_feature(enable = "avx")]
    unsafe fn tile_avx<const N: usize>(t: Operands) {
        let (w, cols, xs, _, _, ahead) = t;
        let mut acc01 = [_mm256_setzero_ps(); N];
        let mut acc23 = [_mm256_setzero_ps(); N];
        for j in (0..cols / 4 * 4).step_by(4) {
            if !ahead.is_null() {
                _mm_prefetch::<_MM_HINT_T0>(ahead.add(j * 4).cast());
            }
            let [w0, w1, w2, w3] = [0, 1, 2, 3].map(|k| _mm_loadu_ps(w.add(k * cols + j)));
            let (w01, w23) = (_mm256_set_m128(w1, w0), _mm256_set_m128(w3, w2));
            for n in 0..N {
                let xv = _mm_loadu_ps(xs.add(n * cols + j));
                let xx = _mm256_set_m128(xv, xv);
                acc01[n] = _mm256_add_ps(acc01[n], _mm256_mul_ps(w01, xx));
                acc23[n] = _mm256_add_ps(acc23[n], _mm256_mul_ps(w23, xx));
            }
        }
        for n in 0..N {
            let lanes = [
                _mm256_castps256_ps128(acc01[n]),
                _mm256_extractf128_ps(acc01[n], 1),
                _mm256_castps256_ps128(acc23[n]),
                _mm256_extractf128_ps(acc23[n], 1),
            ];
            store_block_sums(lanes, t, n);
        }
    }

    /// The AVX-512 tile, `N <= 8`: one 512-bit accumulator an input, row
    /// `k`'s four lanes in its 128-bit group `k`.
    ///
    /// # Safety
    ///
    /// AVX-512F must be available and `t` be what [`Operands`] says.
    #[inline(never)]
    #[target_feature(enable = "avx512f")]
    unsafe fn tile_avx512<const N: usize>(t: Operands) {
        let (w, cols, xs, _, _, ahead) = t;
        let mut acc = [_mm512_setzero_ps(); N];
        for j in (0..cols / 4 * 4).step_by(4) {
            if !ahead.is_null() {
                _mm_prefetch::<_MM_HINT_T0>(ahead.add(j * 4).cast());
            }
            let [w0, w1, w2, w3] = [0, 1, 2, 3].map(|k| _mm_loadu_ps(w.add(k * cols + j)));
            let mut wv = _mm512_castps128_ps512(w0);
            wv = _mm512_insertf32x4::<1>(wv, w1);
            wv = _mm512_insertf32x4::<2>(wv, w2);
            wv = _mm512_insertf32x4::<3>(wv, w3);
            for (n, a) in acc.iter_mut().enumerate() {
                let xv = _mm512_broadcast_f32x4(_mm_loadu_ps(xs.add(n * cols + j)));
                *a = _mm512_add_ps(*a, _mm512_mul_ps(wv, xv));
            }
        }
        for (n, &a) in acc.iter().enumerate() {
            let lanes = [
                _mm512_castps512_ps128(a),
                _mm512_extractf32x4_ps::<1>(a),
                _mm512_extractf32x4_ps::<2>(a),
                _mm512_extractf32x4_ps::<3>(a),
            ];
            store_block_sums(lanes, t, n);
        }
    }

    /// The block walk: blocks of four rows, each walked over the inputs in
    /// register tiles of up to `WIDTH` (a single input is the degenerate
    /// tile — the mat-vec); remainder rows through the oracle's `dot`.
    ///
    /// # Safety
    ///
    /// `xs.len() == n_in * m.cols()`, `ys.len() == n_in * m.rows()`; `tile(n,
    /// t)` sound whenever `t` is what [`Operands`] says for `n <= WIDTH` inputs.
    #[inline(always)]
    unsafe fn matmul_tiled<const WIDTH: usize>(
        m: &Matrix,
        xs: &[f32],
        n_in: usize,
        ys: &mut [f32],
        tile: impl Fn(usize, Operands),
    ) {
        let (rows, cols) = (m.rows(), m.cols());
        let data = m.as_slice();
        let block = |b: usize| data.get(b * 4 * cols..(b + 1) * 4 * cols);
        for b in 0..rows / 4 {
            let w = block(b).expect("b < rows / 4").as_ptr();
            // Only a block that lies inside the matrix is prefetched, and
            // only by the first tile: later ones would find it in L1.
            let mut ahead = block(b + LOOK_AHEAD).map_or(core::ptr::null(), <[f32]>::as_ptr);
            for n in (0..n_in).step_by(WIDTH) {
                // `n < n_in` and `b * 4 + 4 <= rows`: both pointers are in
                // bounds; the tile covers the `min(WIDTH, n_in - n)` inputs left.
                let x = xs.as_ptr().add(n * cols);
                let y = ys.as_mut_ptr().add(n * rows + b * 4);
                tile((n_in - n).min(WIDTH), (w, cols, x, y, rows, ahead));
                ahead = core::ptr::null();
            }
        }
        for r in rows / 4 * 4..rows {
            let row = &data[r * cols..(r + 1) * cols];
            for n in 0..n_in {
                ys[n * rows + r] = dot(row, &xs[n * cols..(n + 1) * cols]);
            }
        }
    }

    /// AVX mat-mul.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX is available and shapes already validated
    /// (`xs.len() == n_in * m.cols()`, `ys.len() == n_in * m.rows()`).
    #[target_feature(enable = "avx")]
    pub unsafe fn matmul_avx(m: &Matrix, xs: &[f32], n_in: usize, ys: &mut [f32]) {
        matmul_tiled::<4>(m, xs, n_in, ys, |n, t| match n {
            1 => tile_avx::<1>(t),
            2 => tile_avx::<2>(t),
            3 => tile_avx::<3>(t),
            _ => tile_avx::<4>(t),
        })
    }

    /// AVX-512 mat-mul. One input is one addition chain a row either way,
    /// and the 256-bit adds of [`tile_avx`] have the shorter latency.
    ///
    /// # Safety
    ///
    /// As [`matmul_avx`], with AVX-512F available.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn matmul_avx512(m: &Matrix, xs: &[f32], n_in: usize, ys: &mut [f32]) {
        matmul_tiled::<8>(m, xs, n_in, ys, |n, t| match n {
            1 => tile_avx::<1>(t),
            2 => tile_avx512::<2>(t),
            3 => tile_avx512::<3>(t),
            4 => tile_avx512::<4>(t),
            5 => tile_avx512::<5>(t),
            6 => tile_avx512::<6>(t),
            7 => tile_avx512::<7>(t),
            _ => tile_avx512::<8>(t),
        })
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
        // SAFETY (both calls): the feature is checked on the line above;
        // callers validated `xs.len()` and `ys.len()` against `n_in`.
        if std::arch::is_x86_feature_detected!("avx512f") {
            return unsafe { x86::matmul_avx512(m, xs, n_in, ys) };
        }
        if std::arch::is_x86_feature_detected!("avx") {
            return unsafe { x86::matmul_avx(m, xs, n_in, ys) };
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

    /// A `Blocked` mat-mul path, as the tests call it.
    type Path = fn(&Matrix, &[f32], usize, &mut [f32]);

    /// Every kernel path this CPU can run, by name. The public `Blocked`
    /// entry points only ever reach the widest; the tests below pin *each*
    /// to the oracle on its own.
    fn blocked_paths() -> Vec<(&'static str, Path)> {
        let mut paths: Vec<(&'static str, Path)> = vec![("portable", matmul_blocked_portable)];
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY (both): pushed only when the feature is present; the
            // callers size `xs` / `ys` to the shape.
            if std::arch::is_x86_feature_detected!("avx") {
                paths.push(("avx", |m, xs, n_in, ys| unsafe {
                    x86::matmul_avx(m, xs, n_in, ys)
                }));
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                paths.push(("avx512", |m, xs, n_in, ys| unsafe {
                    x86::matmul_avx512(m, xs, n_in, ys)
                }));
            }
        }
        paths
    }

    /// Pins every path to the oracle over `shapes` of (rows, cols, inputs)
    /// and prints which paths those were: a runner without AVX-512 passes
    /// on two, and `--nocapture` shows that it did.
    fn pin_every_blocked_path(seed: u64, shapes: &[(usize, usize, usize)]) {
        let mut rng = Pcg::seed(seed);
        let paths = blocked_paths();
        for &shape in shapes {
            for &(what, kernel) in &paths {
                assert_path_matches_reference(what, kernel, &mut rng, shape);
            }
        }
        let names: Vec<&str> = paths.iter().map(|p| p.0).collect();
        println!(
            "pinned to Reference over {} shapes: {}",
            shapes.len(),
            names.join(", ")
        );
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
        // Every tile remainder of both widths and two full 8-tiles; blocks
        // with and without a look-ahead, ragged row tail; `cols % 4 != 0`.
        let mut shapes = Vec::new();
        for n_in in (0..=9).chain([15, 16, 17, 22]) {
            for rows in [1, 4, 5, 11, 12, 13, 32, 33, 47] {
                for cols in [0, 4, 7, 19, 64, 65, 128, 256] {
                    shapes.push((rows, cols, n_in));
                }
            }
        }
        pin_every_blocked_path(12, &shapes);
    }

    /// The look-ahead never leaves the matrix. `Matrix::random` sizes its
    /// `Vec` exactly, so every matrix here ends where its allocation ends;
    /// thirteen rows put the last whole block two behind the first, with a
    /// ragged row after it, and the inputs run over every tile width.
    #[test]
    fn every_blocked_path_stays_inside_a_matrix_at_the_end_of_its_allocation() {
        let shapes: Vec<_> = (0..=17).map(|n_in| (13, 35, n_in)).collect();
        pin_every_blocked_path(13, &shapes);
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
