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
//!   conformance suite (`tests/conformance.rs`) and every parity suite pin
//!   the other backends to it. No runtime path selects it.
//! * [`Blocked`] — the runtime kernel and the [`BackendKind`] default.
//!   Cache-blocked and unrolled with `chunks_exact` so the autovectorizer
//!   can keep several independent accumulator chains in flight.
//!   `matvec`/`matvec_into`/`matmul_into`/`gemm` reduce each (row, input)
//!   dot in *exactly* the reference order (four lanes, `s0+s1+s2+s3`,
//!   sequential tail), and `matvec_q` is the oracle's own loop, so every
//!   op is bit-identical to [`Reference`]. From [`SPLIT_MIN_WEIGHTS`] a
//!   mat-mul's row blocks are split with one helper thread
//!   ([`crate::par`]); each output is still written by one thread with
//!   the same sums, so the split is bit-identical too.
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

use serde::{Deserialize, Serialize};

use crate::matrix::Matrix;
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

    /// Batched grouped mat-vec (the hyper-token / tree-verification
    /// kernel): `out[g][i] = weight[groups[g][i]] · inputs[g]`.
    ///
    /// # Panics
    ///
    /// Panics if `groups.len() != inputs.len()`, an input's length differs
    /// from `weight.cols()`, or a row index is out of bounds.
    ///
    /// The default body is one dot a row in the oracle's order (the
    /// reference [`crate::matrix::dot`]'s reduction, without its bounds
    /// checks).
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

    /// Quantized mat-vec `y = Q x` over pre-quantized i8 weights. The
    /// default body is the oracle's dequantizing loop,
    /// [`QuantizedMatrix::matvec_into`].
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch with the same messages as
    /// [`QuantizedMatrix::matvec_into`].
    fn matvec_q_into(&self, q: &QuantizedMatrix, x: &[f32], y: &mut [f32]) {
        q.matvec_into(x, y);
    }

    /// Quantized mat-vec, allocating the output.
    fn matvec_q(&self, q: &QuantizedMatrix, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0; q.rows()];
        self.matvec_q_into(q, x, &mut y);
        y
    }
}

/// Copyable backend selector: what engine configs and model structs store
/// instead of a trait object.
///
/// The default is [`BackendKind::Blocked`], the runtime kernel: it is
/// bit-identical to the [`BackendKind::Reference`] oracle on every op, so
/// a model built at the default computes the oracle's numbers at the
/// kernel's speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum BackendKind {
    /// The scalar oracle ([`Reference`]).
    Reference,
    /// Cache-blocked, unroll-friendly kernels ([`Blocked`]).
    #[default]
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
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.get().name())
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
/// that moves a cache line, never a sum. From [`SPLIT_MIN_WEIGHTS`] the
/// caller computes the first half of the row blocks and the helper thread
/// of [`crate::par`] the second with the ragged rows, at once: that moves
/// which core writes an output, never how. `gemm` (row subsets) and
/// `matvec_q` are the trait's default bodies: a per-row dot in the
/// oracle's order, and the oracle's dequantizing loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct Blocked;

/// The x86-64 register tiles and the block walk behind [`Blocked`], whose
/// docs say why every path keeps the oracle's sums.
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use core::arch::x86_64::*;

    use super::Part;
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

    /// The four rows' ordered lane sums `v0 + v1 + v2 + v3`, `lanes[k]`
    /// holding row `k`'s four lanes: the one place the reduction order of
    /// the x86 tiles (these and the attention kernel's) is written down.
    #[inline(always)]
    pub(crate) fn lane_sums(lanes: [__m128; 4]) -> [f32; 4] {
        // The reference reduction, deliberately not a tree, for all four
        // rows at once: transposed, vector `i` holds lane `i` of every row.
        let [mut t0, mut t1, mut t2, mut t3] = lanes;
        let mut out = [0.0f32; 4];
        // SAFETY: SSE is part of the x86-64 baseline, and `out` holds the
        // four floats the store writes.
        unsafe {
            _MM_TRANSPOSE4_PS(&mut t0, &mut t1, &mut t2, &mut t3);
            let sums = _mm_add_ps(_mm_add_ps(_mm_add_ps(t0, t1), t2), t3);
            _mm_storeu_ps(out.as_mut_ptr(), sums);
        }
        out
    }

    /// Finishes input `n` of a tile, `lanes[k]` holding row `k`'s four lane
    /// sums.
    ///
    /// # Safety
    ///
    /// `t` must be what [`Operands`] says for a tile of more than `n` inputs.
    #[inline(always)]
    unsafe fn store_block_sums(lanes: [__m128; 4], t: Operands, n: usize) {
        let (w, cols, xs, ys, rows, _) = t;
        let mut out = lane_sums(lanes);
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

    /// The block walk: row blocks `part.blocks` of four rows, each walked
    /// over the inputs in register tiles of up to `WIDTH` (a single input is
    /// the degenerate tile — the mat-vec); if `part.tail`, the remainder rows
    /// through the oracle's `dot`.
    ///
    /// # Safety
    ///
    /// `xs.len() == n_in * m.cols()`; `ys` writable for `n_in * m.rows()`
    /// floats, of which no other thread touches the rows of `part`;
    /// `part.blocks.end <= m.rows() / 4`; `tile(n, t)` sound whenever `t` is
    /// what [`Operands`] says for `n <= WIDTH` inputs.
    #[inline(always)]
    unsafe fn matmul_tiled<const WIDTH: usize>(
        m: &Matrix,
        xs: &[f32],
        n_in: usize,
        ys: *mut f32,
        part: Part,
        tile: impl Fn(usize, Operands),
    ) {
        let (rows, cols) = (m.rows(), m.cols());
        let data = m.as_slice();
        let block = |b: usize| data.get(b * 4 * cols..(b + 1) * 4 * cols);
        let end = part.blocks.end;
        for b in part.blocks {
            let w = block(b).expect("b < rows / 4").as_ptr();
            // Only a block of this part is prefetched (so, one inside the
            // matrix), and only by the first tile: later ones would find it
            // in L1.
            let mut ahead = if b + LOOK_AHEAD < end {
                block(b + LOOK_AHEAD).map_or(core::ptr::null(), <[f32]>::as_ptr)
            } else {
                core::ptr::null()
            };
            for n in (0..n_in).step_by(WIDTH) {
                // `n < n_in` and `b * 4 + 4 <= rows`: both pointers are in
                // bounds; the tile covers the `min(WIDTH, n_in - n)` inputs left.
                let x = xs.as_ptr().add(n * cols);
                let y = ys.add(n * rows + b * 4);
                tile((n_in - n).min(WIDTH), (w, cols, x, y, rows, ahead));
                ahead = core::ptr::null();
            }
        }
        if part.tail {
            for r in rows / 4 * 4..rows {
                let row = &data[r * cols..(r + 1) * cols];
                for n in 0..n_in {
                    *ys.add(n * rows + r) = dot(row, &xs[n * cols..(n + 1) * cols]);
                }
            }
        }
    }

    /// AVX mat-mul.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX is available and what [`matmul_tiled`] asks
    /// of the operands.
    #[target_feature(enable = "avx")]
    pub unsafe fn matmul_avx(m: &Matrix, xs: &[f32], n_in: usize, ys: *mut f32, part: Part) {
        matmul_tiled::<4>(m, xs, n_in, ys, part, |n, t| match n {
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
    pub unsafe fn matmul_avx512(m: &Matrix, xs: &[f32], n_in: usize, ys: *mut f32, part: Part) {
        matmul_tiled::<8>(m, xs, n_in, ys, part, |n, t| match n {
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

/// The smallest matrix, in weights (`rows × cols`), whose mat-mul
/// [`Blocked`] splits between the caller and the helper thread
/// ([`crate::par`]), at any input count: a pass streams its weights from
/// L3 or DRAM, so its size, not its inputs, says what the second core's
/// bandwidth saves against what the hand-off costs. `micro_matvec`'s
/// `helper` rows re-derive it (`cargo bench -p specee-bench --bench
/// micro_matvec`).
pub const SPLIT_MIN_WEIGHTS: usize = 16 * 1024;

/// The rows of one mat-mul a thread computes: row blocks `blocks` (of
/// [`ROW_BLOCK`] rows each) and, if `tail`, the rows past the last whole
/// block.
pub(crate) struct Part {
    blocks: std::ops::Range<usize>,
    tail: bool,
}

impl Part {
    /// Every row of `m`.
    fn whole(m: &Matrix) -> Self {
        Part {
            blocks: 0..m.rows() / ROW_BLOCK,
            tail: true,
        }
    }
}

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
pub(crate) fn dot4_rows(r0: &[f32], r1: &[f32], r2: &[f32], r3: &[f32], x: &[f32]) -> [f32; 4] {
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
///
/// # Safety
///
/// As `x86::matmul_tiled`: `xs.len() == n_in * m.cols()`; `ys` writable for
/// `n_in * m.rows()` floats, of which no other thread touches the rows of
/// `part`; `part.blocks.end <= m.rows() / 4`.
unsafe fn matmul_blocked_portable(m: &Matrix, xs: &[f32], n_in: usize, ys: *mut f32, part: Part) {
    let (rows, cols) = (m.rows(), m.cols());
    let data = m.as_slice();
    for b in part.blocks {
        let r = b * ROW_BLOCK;
        let row = |k: usize| &data[(r + k) * cols..(r + k + 1) * cols];
        let (r0, r1, r2, r3) = (row(0), row(1), row(2), row(3));
        for n in 0..n_in {
            let out = dot4_rows(r0, r1, r2, r3, &xs[n * cols..(n + 1) * cols]);
            std::ptr::copy_nonoverlapping(out.as_ptr(), ys.add(n * rows + r), ROW_BLOCK);
        }
    }
    if part.tail {
        for r in rows / ROW_BLOCK * ROW_BLOCK..rows {
            let row = &data[r * cols..(r + 1) * cols];
            for n in 0..n_in {
                *ys.add(n * rows + r) = dot_blocked(row, &xs[n * cols..(n + 1) * cols]);
            }
        }
    }
}

/// A `Blocked` mat-mul path over one [`Part`] of the rows, with the
/// contract of [`matmul_blocked_portable`].
type Kernel = unsafe fn(&Matrix, &[f32], usize, *mut f32, Part);

/// The widest kernel this CPU runs.
fn widest_kernel() -> Kernel {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY (both): each path is returned only when its feature is
        // present; the operands are the caller's to get right.
        if std::arch::is_x86_feature_detected!("avx512f") {
            return |m, xs, n_in, ys, part| unsafe { x86::matmul_avx512(m, xs, n_in, ys, part) };
        }
        if std::arch::is_x86_feature_detected!("avx") {
            return |m, xs, n_in, ys, part| unsafe { x86::matmul_avx(m, xs, n_in, ys, part) };
        }
    }
    matmul_blocked_portable
}

/// The output of a mat-mul whose two halves two threads write.
#[derive(Clone, Copy)]
struct Out(*mut f32);

// SAFETY: the halves of a split write disjoint rows of the output (see
// `matmul_parts`), and the caller does not return before both are done.
unsafe impl Sync for Out {}

impl Out {
    fn ptr(self) -> *mut f32 {
        self.0
    }
}

/// Dispatches a shape-checked mat-mul to the widest kernel available,
/// split between the caller and the helper thread from [`SPLIT_MIN_WEIGHTS`]
/// on.
fn matmul_blocked(m: &Matrix, xs: &[f32], n_in: usize, ys: &mut [f32]) {
    let split = m.rows() * m.cols() >= SPLIT_MIN_WEIGHTS;
    matmul_parts(m, xs, n_in, ys, split);
}

/// The mat-mul whole on the caller, or, if `split` (and there are two row
/// blocks to split), the first half of its row blocks on the caller and
/// the second half with the ragged rows on the helper, through
/// [`crate::par::halves`]. Each (row, input) output is written by one
/// thread with the unsplit kernel's sums, so both ways are bit-identical.
fn matmul_parts(m: &Matrix, xs: &[f32], n_in: usize, ys: &mut [f32], split: bool) {
    debug_assert_eq!(xs.len(), n_in * m.cols());
    debug_assert_eq!(ys.len(), n_in * m.rows());
    let kernel = widest_kernel();
    let out = Out(ys.as_mut_ptr());
    // SAFETY: callers validated `xs.len()` and `ys.len()` against `n_in`,
    // `ys` is borrowed for the whole call, and the parts below never
    // overlap: rows `[0, 4 * mid)` against `[4 * mid, rows)`.
    let run = |part: Part| unsafe { kernel(m, xs, n_in, out.ptr(), part) };
    let blocks = m.rows() / ROW_BLOCK;
    if !split || blocks < 2 {
        return run(Part::whole(m));
    }
    let mid = blocks / 2;
    crate::par::halves(
        || {
            run(Part {
                blocks: 0..mid,
                tail: false,
            })
        },
        &|| {
            run(Part {
                blocks: mid..blocks,
                tail: true,
            })
        },
    );
}

impl Blocked {
    /// [`Backend::matmul_into`] with the row-block split forced on or off,
    /// whatever the size: what `micro_matvec`'s `helper` group times to
    /// derive [`SPLIT_MIN_WEIGHTS`]. Bit-identical either way.
    ///
    /// # Panics
    ///
    /// As [`Backend::matmul_into`].
    pub fn matmul_split_into(
        &self,
        m: &Matrix,
        xs: &[f32],
        n_in: usize,
        ys: &mut [f32],
        split: bool,
    ) {
        assert_eq!(xs.len(), n_in * m.cols(), "matmul input length");
        assert_eq!(ys.len(), n_in * m.rows(), "matmul output length");
        matmul_parts(m, xs, n_in, ys, split);
    }
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
/// [`quantize_i8`]).
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
    fn default_kind_is_blocked() {
        assert_eq!(BackendKind::default(), BackendKind::Blocked);
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
        // SAFETY (all): the shape asserts run first; each x86 path is
        // pushed only when its feature is present.
        let mut paths: Vec<(&'static str, Path)> = vec![("portable", |m, xs, n_in, ys| {
            assert_eq!((xs.len(), ys.len()), (n_in * m.cols(), n_in * m.rows()));
            unsafe { matmul_blocked_portable(m, xs, n_in, ys.as_mut_ptr(), Part::whole(m)) }
        })];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx") {
                paths.push(("avx", |m, xs, n_in, ys| {
                    assert_eq!((xs.len(), ys.len()), (n_in * m.cols(), n_in * m.rows()));
                    unsafe { x86::matmul_avx(m, xs, n_in, ys.as_mut_ptr(), Part::whole(m)) }
                }));
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                paths.push(("avx512", |m, xs, n_in, ys| {
                    assert_eq!((xs.len(), ys.len()), (n_in * m.cols(), n_in * m.rows()));
                    unsafe { x86::matmul_avx512(m, xs, n_in, ys.as_mut_ptr(), Part::whole(m)) }
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

    /// The one `gemm` body (both exact backends run it) is the oracle's
    /// per-row `dot`, bit for bit: rows in any order, repeated, ragged
    /// widths.
    #[test]
    fn the_default_gemm_is_the_oracles_row_dot() {
        let mut rng = Pcg::seed(19);
        for cols in [0, 1, 3, 4, 7, 64, 131] {
            let m = Matrix::random(9, cols, 1.0, &mut rng);
            let groups = vec![vec![8, 0, 3], vec![], vec![5, 5, 1, 2, 4, 6, 7]];
            let inputs: Vec<Vec<f32>> = (0..groups.len())
                .map(|_| {
                    let mut x = vec![0.0f32; cols];
                    rng.fill_uniform(&mut x, 1.0);
                    x
                })
                .collect();
            let want: Vec<Vec<u32>> = groups
                .iter()
                .zip(&inputs)
                .map(|(rows, x)| {
                    m.matvec_rows(rows, x)
                        .into_iter()
                        .map(f32::to_bits)
                        .collect()
                })
                .collect();
            for backend in [&Reference as &dyn Backend, &Blocked] {
                let got: Vec<Vec<u32>> = backend
                    .gemm(&m, &groups, &inputs)
                    .into_iter()
                    .map(|row| row.into_iter().map(f32::to_bits).collect())
                    .collect();
                assert_eq!(got, want, "{} gemm, {cols} columns", backend.name());
            }
        }
    }

    /// `m` times the `n_in` inputs packed in `xs` by the oracle, one
    /// mat-vec an input, as bits.
    fn oracle_bits(m: &Matrix, xs: &[f32], n_in: usize) -> Vec<u32> {
        let cols = m.cols();
        (0..n_in)
            .flat_map(|n| Reference.matvec(m, &xs[n * cols..(n + 1) * cols]))
            .map(f32::to_bits)
            .collect()
    }

    /// `Blocked`'s mat-mul into a NaN-filled output, split or not, as bits.
    fn blocked_bits(m: &Matrix, xs: &[f32], n_in: usize, split: bool) -> Vec<u32> {
        let mut ys = vec![f32::NAN; n_in * m.rows()];
        Blocked.matmul_split_into(m, xs, n_in, &mut ys, split);
        ys.into_iter().map(f32::to_bits).collect()
    }

    /// A random `rows × cols` matrix and `n_in` packed inputs.
    fn operands(seed: u64, rows: usize, cols: usize, n_in: usize) -> (Matrix, Vec<f32>) {
        let mut rng = Pcg::seed(seed);
        let m = Matrix::random(rows, cols, 1.0, &mut rng);
        let mut xs = vec![0.0f32; n_in * cols];
        rng.fill_uniform(&mut xs, 1.0);
        (m, xs)
    }

    /// The helper's state a split call meets.
    #[derive(Debug, Clone, Copy)]
    enum HelperState {
        Free,
        HeldByAnotherCaller,
        Parked,
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

        /// Split == unsplit == the oracle, bit for bit, whatever the rows
        /// (ragged against 4 and 8 too), the inputs (1–22) and the helper's
        /// state.
        #[test]
        fn the_split_matmul_is_the_unsplit_matmul_and_the_oracle_bit_for_bit(
            seed in 0u64..10_000,
            rows in 0usize..90,
            cols in 0usize..70,
            n_in in 1usize..23,
            state in 0usize..3,
        ) {
            let _one = crate::par::probe::exclusive();
            let (m, xs) = operands(seed, rows, cols, n_in);
            let oracle = oracle_bits(&m, &xs, n_in);
            let state = [HelperState::Free, HelperState::HeldByAnotherCaller, HelperState::Parked][state];
            let held = match state {
                HelperState::HeldByAnotherCaller => crate::par::probe::hold(),
                HelperState::Parked => {
                    crate::par::probe::wait_until_parked();
                    None
                }
                HelperState::Free => None,
            };
            let split = blocked_bits(&m, &xs, n_in, true);
            drop(held);
            proptest::prop_assert_eq!(&split, &oracle, "split, {:?}, {}x{}x{}", state, rows, cols, n_in);
            proptest::prop_assert_eq!(&blocked_bits(&m, &xs, n_in, false), &oracle);
        }
    }

    /// The shapes the public entry points split: the threshold, one row
    /// either side of a block, a decoder's projections and its LM head.
    const SPLIT_SHAPES: &[(usize, usize)] =
        &[(128, 128), (129, 128), (131, 256), (256, 128), (2048, 128)];

    #[test]
    fn the_split_public_entry_points_are_the_oracle_bit_for_bit() {
        let _one = crate::par::probe::exclusive();
        for (i, &(rows, cols)) in SPLIT_SHAPES.iter().enumerate() {
            assert!(rows * cols >= SPLIT_MIN_WEIGHTS, "{rows}x{cols} is split");
            for n_in in [1, 3, 5, 8, 22] {
                let (m, xs) = operands(i as u64, rows, cols, n_in);
                let mut ys = vec![f32::NAN; n_in * rows];
                Blocked.matmul_into(&m, &xs, n_in, &mut ys);
                let got: Vec<u32> = ys.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, oracle_bits(&m, &xs, n_in), "{rows}x{cols}x{n_in}");
            }
            let (m, x) = operands(i as u64, rows, cols, 1);
            let got: Vec<u32> = Blocked
                .matvec(&m, &x)
                .into_iter()
                .map(f32::to_bits)
                .collect();
            assert_eq!(got, oracle_bits(&m, &x, 1), "matvec {rows}x{cols}");
        }
    }

    /// Four threads call the split kernel at once for about a second: one
    /// owns the helper at a time, the others run both halves, and every
    /// result is the oracle's.
    #[test]
    fn the_split_matmul_survives_four_callers_at_once() {
        let cases: Vec<(Matrix, Vec<f32>, usize, Vec<u32>)> =
            [(129, 128, 1), (131, 64, 5), (256, 128, 8), (67, 256, 3)]
                .iter()
                .enumerate()
                .map(|(i, &(rows, cols, n_in))| {
                    let (m, xs) = operands(100 + i as u64, rows, cols, n_in);
                    let oracle = oracle_bits(&m, &xs, n_in);
                    (m, xs, n_in, oracle)
                })
                .collect();
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let start = std::time::Instant::now();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (cases, calls) = (&cases, &calls);
                scope.spawn(move || {
                    let mut i = t;
                    while start.elapsed() < std::time::Duration::from_secs(1) {
                        let (m, xs, n_in, oracle) = &cases[i % cases.len()];
                        let mut ys = vec![f32::NAN; n_in * m.rows()];
                        Blocked.matmul_into(m, xs, *n_in, &mut ys);
                        let got: Vec<u32> = ys.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(&got, oracle, "thread {t}, case {}", i % cases.len());
                        calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        i += 1;
                    }
                });
            }
        });
        println!("{} split calls on four threads", calls.into_inner());
    }

    /// Runs split calls (each checked against the oracle) until the helper
    /// has taken a half or `limit` passes; true if it took one.
    fn helper_takes_a_half_within(limit: std::time::Duration) -> bool {
        let before = crate::par::probe::taken();
        let (m, xs) = operands(7, 256, 128, 8);
        let oracle = oracle_bits(&m, &xs, 8);
        let start = std::time::Instant::now();
        while start.elapsed() < limit {
            assert_eq!(blocked_bits(&m, &xs, 8, true), oracle);
            if crate::par::probe::taken() > before {
                return true;
            }
        }
        false
    }

    /// The parallel path cannot go dead unnoticed: on a host with two
    /// cores, the helper takes halves.
    #[test]
    fn the_helper_takes_halves() {
        let _one = crate::par::probe::exclusive();
        let cores = crate::par::probe::cores();
        if cores < 2 {
            println!("one core: the helper is never spawned");
            return;
        }
        assert!(
            helper_takes_a_half_within(std::time::Duration::from_secs(5)),
            "no split call reached the helper in 5 s on {cores} cores"
        );
    }

    /// While every core is busy (one `Busy` guard a core), no half reaches
    /// the helper; when the guards drop, halves reach it again.
    #[test]
    fn no_half_reaches_the_helper_while_every_core_is_busy() {
        let _one = crate::par::probe::exclusive();
        let cores = crate::par::probe::cores();
        let guards: Vec<crate::par::Busy> = (0..cores).map(|_| crate::par::Busy::new()).collect();
        // A half posted before the guards were counted is settled by the
        // time its owner frees the slot: take the slot once.
        while crate::par::probe::hold().is_none() {
            std::thread::yield_now();
        }
        let before = crate::par::probe::taken();
        assert!(!helper_takes_a_half_within(
            std::time::Duration::from_millis(300)
        ));
        assert_eq!(crate::par::probe::taken(), before, "{cores} busy threads");
        drop(guards);
        if cores >= 2 {
            assert!(helper_takes_a_half_within(std::time::Duration::from_secs(
                5
            )));
        }
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
