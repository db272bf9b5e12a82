//! Softmax attention of one query over cached key/value rows: the kernel
//! behind every attention call of the decoder — decode rows, prompt spans
//! and draft-tree nodes alike.
//!
//! [`attend`] is bit-identical to the scalar loop it replaced (kept as the
//! oracle of this module's tests). For every head it scores each visible
//! row `matrix::dot(q_head, k_head) * (1 / √head_dim)`, runs
//! [`ops::softmax_inplace`] over that head's scores — whose vector `exp`,
//! [`ops::exp_in_place`], returns `f32::exp`'s bits lane for lane — and
//! adds `weight * v` into the output row by row, in row order. Three
//! paths, picked at runtime as
//! [`crate::Blocked`]'s mat-mul is. The portable one scores a quad of rows
//! through the mat-mul's `dot4_rows`; AVX puts the quad two rows to a
//! 256-bit register, the mat-mul's AVX tile layout with a cached row in
//! the place of a weight row and the query head in the place of the input,
//! and finishes it with the same `s0+s1+s2+s3` reduction. AVX-512 scores
//! as AVX does (a quad's four rows in one 512-bit register timed no
//! faster) and holds the output row in registers across the value pass.
//! Rows that do not fill a quad go through `dot` itself. The value pass
//! reads each row once, the head's weight broadcast over that head's
//! lanes, and multiply and add stay two instructions (an FMA rounds once
//! where the oracle rounds twice). No sum ever mixes two lanes of the
//! output or two rows' scores, so the register a lane sits in cannot
//! change a bit.

use crate::backend::dot4_rows;
use crate::matrix::dot;
use crate::ops;

/// Softmax attention of the query `q` (`[heads × head_dim]`) over the rows
/// of `blocks`, added into `out` (as wide as `q`; the caller zeroes it for a
/// plain attention output). A block is `(keys, values)`, each holding the
/// same number of rows packed row-major and as wide as `q`. Rows are
/// attended in block order, then row order: a decode row's whole cache is
/// one block, a tree node's ancestor rows follow its committed cache.
/// `scores` is working space the caller reuses across calls.
///
/// # Panics
///
/// Panics if `q` is empty or not whole heads, `out` is not as wide as `q`,
/// or a block's keys and values are not the same whole number of rows.
pub fn attend(
    q: &[f32],
    head_dim: usize,
    blocks: &[(&[f32], &[f32])],
    scores: &mut Vec<f32>,
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY (both calls): the feature is checked on the line above.
        if std::arch::is_x86_feature_detected!("avx512f") {
            return unsafe { x86::attend_avx512(q, head_dim, blocks, scores, out) };
        }
        if std::arch::is_x86_feature_detected!("avx") {
            return unsafe { x86::attend_avx(q, head_dim, blocks, scores, out) };
        }
    }
    attend_portable(q, head_dim, blocks, scores, out);
}

/// The number of `head_dim`-wide heads in a `dim`-wide row.
///
/// # Panics
///
/// Panics unless the row is a positive whole number of heads: every path's
/// indexing, raw pointers included, rests on this check.
fn heads(dim: usize, head_dim: usize) -> usize {
    assert!(
        head_dim > 0 && dim > 0 && dim.is_multiple_of(head_dim),
        "a row of {dim} is not whole heads of {head_dim}"
    );
    dim / head_dim
}

/// The steps every path shares, around the two a path supplies:
/// `dots(q_head, keys)`, the four `dot(q_head, keys[k])` of one head of a
/// quad of key rows, and `accumulate(blocks, head_dim, weights, n, out)`,
/// which adds `weights[h * n + r] * v` to head `h`'s lanes of `out` for
/// each value row `r` of `blocks`, in row order. Key rows are scored four
/// at a time in attention order (a quad may span two blocks); the one to
/// three left over go through `dot` itself. Scores are head-major,
/// `[heads × n]`, so each head's softmax runs over one slice.
#[inline(always)]
fn attend_with(
    q: &[f32],
    head_dim: usize,
    blocks: &[(&[f32], &[f32])],
    scores: &mut Vec<f32>,
    out: &mut [f32],
    dots: impl Fn(&[f32], [&[f32]; 4]) -> [f32; 4],
    accumulate: impl Fn(&[(&[f32], &[f32])], usize, &[f32], usize, &mut [f32]),
) {
    let dim = q.len();
    let heads = heads(dim, head_dim);
    assert_eq!(out.len(), dim, "attention output width");
    for (keys, values) in blocks {
        assert!(
            keys.len() == values.len() && keys.len().is_multiple_of(dim),
            "a block must hold whole key and value rows"
        );
    }
    let n: usize = blocks.iter().map(|(keys, _)| keys.len() / dim).sum();
    if n == 0 {
        return;
    }
    let scale = 1.0 / (head_dim as f32).sqrt();
    scores.clear();
    scores.resize(heads * n, 0.0);
    let mut keys = blocks.iter().flat_map(|(keys, _)| keys.chunks_exact(dim));
    let mut r = 0;
    loop {
        match [keys.next(), keys.next(), keys.next(), keys.next()] {
            [Some(k0), Some(k1), Some(k2), Some(k3)] => {
                for (h, q_head) in q.chunks_exact(head_dim).enumerate() {
                    let span = h * head_dim..(h + 1) * head_dim;
                    let quad = [
                        &k0[span.clone()],
                        &k1[span.clone()],
                        &k2[span.clone()],
                        &k3[span],
                    ];
                    for (s, dot) in scores[h * n + r..][..4].iter_mut().zip(dots(q_head, quad)) {
                        *s = dot * scale;
                    }
                }
                r += 4;
            }
            ragged => {
                for key in ragged.into_iter().flatten() {
                    for (h, q_head) in q.chunks_exact(head_dim).enumerate() {
                        scores[h * n + r] = dot(q_head, &key[h * head_dim..][..head_dim]) * scale;
                    }
                    r += 1;
                }
                break;
            }
        }
    }
    for head in scores.chunks_exact_mut(n) {
        ops::softmax_inplace(head);
    }
    accumulate(blocks, head_dim, scores, n, out);
}

/// The value rows of `blocks`, `dim` wide, in attention order.
fn value_rows<'a>(blocks: &'a [(&[f32], &[f32])], dim: usize) -> impl Iterator<Item = &'a [f32]> {
    blocks
        .iter()
        .flat_map(move |(_, values)| values.chunks_exact(dim))
}

/// The value pass of the portable and AVX paths, head by head through a
/// loop the compiler vectorises at the width the caller was built for (it
/// never mixes two lanes, so any width gives the same bits).
#[inline(always)]
fn accumulate_rows(
    blocks: &[(&[f32], &[f32])],
    hd: usize,
    weights: &[f32],
    n: usize,
    out: &mut [f32],
) {
    for (r, row) in value_rows(blocks, out.len()).enumerate() {
        let heads = out.chunks_exact_mut(hd).zip(row.chunks_exact(hd));
        for (h, (o, v)) in heads.enumerate() {
            let w = weights[h * n + r];
            for (o, &v) in o.iter_mut().zip(v) {
                *o += w * v;
            }
        }
    }
}

/// The portable path: a quad's dots through the mat-mul's [`dot4_rows`].
fn attend_portable(
    q: &[f32],
    head_dim: usize,
    blocks: &[(&[f32], &[f32])],
    scores: &mut Vec<f32>,
    out: &mut [f32],
) {
    let dots = |q_head: &[f32], [k0, k1, k2, k3]: [&[f32]; 4]| dot4_rows(k0, k1, k2, k3, q_head);
    attend_with(q, head_dim, blocks, scores, out, dots, accumulate_rows);
}

/// The x86-64 paths; the module docs say why each keeps the oracle's sums.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    use super::{accumulate_rows, attend_with, heads, value_rows};
    use crate::backend::x86::lane_sums;

    /// AVX dots of one head of a quad (`keys`, each as wide as `q_head`):
    /// rows 0 and 1 in one 256-bit chain, rows 2 and 3 in another, as in
    /// the mat-mul's AVX tile; then each row's ordered lane sum and its
    /// ragged columns in order.
    ///
    /// # Safety
    ///
    /// AVX must be available.
    #[inline]
    #[target_feature(enable = "avx")]
    unsafe fn dots_avx(q_head: &[f32], keys: [&[f32]; 4]) -> [f32; 4] {
        let hd = q_head.len();
        assert!(keys.iter().all(|key| key.len() == hd), "whole heads");
        let tail = hd / 4 * 4;
        let (mut acc01, mut acc23) = (_mm256_setzero_ps(), _mm256_setzero_ps());
        for j in (0..tail).step_by(4) {
            // In bounds: columns `j..j + 4` of `hd`-wide slices.
            let load = |row: &[f32]| _mm_loadu_ps(row.as_ptr().add(j));
            let (q, k0, k1) = (load(q_head), load(keys[0]), load(keys[1]));
            let (k2, k3) = (load(keys[2]), load(keys[3]));
            let qq = _mm256_set_m128(q, q);
            acc01 = _mm256_add_ps(acc01, _mm256_mul_ps(_mm256_set_m128(k1, k0), qq));
            acc23 = _mm256_add_ps(acc23, _mm256_mul_ps(_mm256_set_m128(k3, k2), qq));
        }
        let mut sums = lane_sums([
            _mm256_castps256_ps128(acc01),
            _mm256_extractf128_ps(acc01, 1),
            _mm256_castps256_ps128(acc23),
            _mm256_extractf128_ps(acc23, 1),
        ]);
        for (s, key) in sums.iter_mut().zip(keys) {
            for (&k, &q) in key[tail..].iter().zip(&q_head[tail..]) {
                *s += k * q;
            }
        }
        sums
    }

    /// AVX-512 values, in tiles of up to eight registers of output lanes
    /// held across every row. [`accumulate_rows`] built for AVX-512 loads
    /// and stores the output once a row; this took 12–25 % less time a
    /// call on a Sapphire Rapids core (one query, heads of 8 and 32, 43 to
    /// 512 rows).
    ///
    /// # Safety
    ///
    /// AVX-512F must be available.
    #[target_feature(enable = "avx512f")]
    unsafe fn accumulate_avx512(
        blocks: &[(&[f32], &[f32])],
        hd: usize,
        weights: &[f32],
        n: usize,
        out: &mut [f32],
    ) {
        let dim = out.len();
        let heads = heads(dim, hd);
        let rows: usize = blocks.iter().map(|(_, values)| values.len() / dim).sum();
        assert!(rows <= n && weights.len() == heads * n, "weights shape");
        for c0 in (0..dim).step_by(128) {
            let out = &mut *out;
            match (dim - c0).div_ceil(16) {
                1 => values_tile::<1>(blocks, hd, weights, n, out, c0),
                2 => values_tile::<2>(blocks, hd, weights, n, out, c0),
                3 => values_tile::<3>(blocks, hd, weights, n, out, c0),
                4 => values_tile::<4>(blocks, hd, weights, n, out, c0),
                5 => values_tile::<5>(blocks, hd, weights, n, out, c0),
                6 => values_tile::<6>(blocks, hd, weights, n, out, c0),
                7 => values_tile::<7>(blocks, hd, weights, n, out, c0),
                _ => values_tile::<8>(blocks, hd, weights, n, out, c0),
            }
        }
    }

    /// Output lanes `c0..` in `N` registers held across every row (the last
    /// one holding what is left of the row). A register takes its first
    /// lane's head weight by one broadcast; each head that starts inside it
    /// is blended over the lanes from its start on.
    ///
    /// # Safety
    ///
    /// AVX-512F must be available, `out` whole heads of `hd`,
    /// `16 (N - 1) < dim - c0`, and `weights` `[heads × n]` with `n` at
    /// least the value rows of `blocks`.
    #[inline(never)]
    #[target_feature(enable = "avx512f")]
    unsafe fn values_tile<const N: usize>(
        blocks: &[(&[f32], &[f32])],
        hd: usize,
        weights: &[f32],
        n: usize,
        out: &mut [f32],
        c0: usize,
    ) {
        let dim = out.len();
        let width = (dim - c0).min(16 * N);
        let last: __mmask16 = !0 >> (16 * N - width);
        let load = |p: *const f32, i: usize| {
            if i + 1 < N {
                _mm512_loadu_ps(p.add(16 * i))
            } else {
                _mm512_maskz_loadu_ps(last, p.add(16 * i))
            }
        };
        // Register `i`: the weights of its first lane's head, then those of
        // each head starting inside it with the mask of the lanes from that
        // start on (a later head overrides an earlier one).
        let w = weights.as_ptr();
        let mut first = [w; N];
        let mut starts = [[(w, 0u16); 16]; N];
        let mut count = [0; N];
        let mut h = c0 / hd;
        for i in 0..N {
            let lo = c0 + 16 * i;
            while (h + 1) * hd <= lo {
                h += 1;
            }
            // In bounds: every head `g` here has `g hd < dim`, so `g < heads`.
            first[i] = w.add(h * n);
            let mut g = h + 1;
            while g * hd < (lo + 16).min(dim) {
                starts[i][count[i]] = (w.add(g * n), !0 << (g * hd - lo));
                count[i] += 1;
                g += 1;
            }
        }
        let o = out.as_mut_ptr().add(c0);
        let mut acc: [__m512; N] = core::array::from_fn(|i| load(o, i));
        for (r, row) in value_rows(blocks, dim).enumerate() {
            // In bounds: `r < n` rows of weights, lanes `c0..c0 + width` of
            // `row` (the last register masked to them).
            let v = row.as_ptr().add(c0);
            for (i, a) in acc.iter_mut().enumerate() {
                let mut wv = _mm512_set1_ps(*first[i].add(r));
                for &(head, lanes) in &starts[i][..count[i]] {
                    wv = _mm512_mask_mov_ps(wv, lanes, _mm512_set1_ps(*head.add(r)));
                }
                *a = _mm512_add_ps(*a, _mm512_mul_ps(wv, load(v, i)));
            }
        }
        for (i, a) in acc.into_iter().enumerate() {
            if i + 1 < N {
                _mm512_storeu_ps(o.add(16 * i), a);
            } else {
                _mm512_mask_storeu_ps(o.add(16 * i), last, a);
            }
        }
    }

    /// AVX attention: the AVX dots, the portable value pass compiled for
    /// AVX.
    ///
    /// # Safety
    ///
    /// AVX must be available.
    #[target_feature(enable = "avx")]
    pub unsafe fn attend_avx(
        q: &[f32],
        head_dim: usize,
        blocks: &[(&[f32], &[f32])],
        scores: &mut Vec<f32>,
        out: &mut [f32],
    ) {
        let dots = |q_head: &[f32], keys: [&[f32]; 4]| dots_avx(q_head, keys);
        attend_with(q, head_dim, blocks, scores, out, dots, accumulate_rows)
    }

    /// AVX-512 attention: the AVX dots, the AVX-512 value tiles.
    ///
    /// # Safety
    ///
    /// AVX-512F must be available (it implies AVX).
    #[target_feature(enable = "avx512f")]
    pub unsafe fn attend_avx512(
        q: &[f32],
        head_dim: usize,
        blocks: &[(&[f32], &[f32])],
        scores: &mut Vec<f32>,
        out: &mut [f32],
    ) {
        let dots = |q_head: &[f32], keys: [&[f32]; 4]| dots_avx(q_head, keys);
        attend_with(q, head_dim, blocks, scores, out, dots, |b, hd, w, n, o| {
            accumulate_avx512(b, hd, w, n, o)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Pcg;

    /// The scalar kernel [`attend`] replaced, as the decoder ran it: softmax
    /// attention of one query over `rows`, head by head, accumulated into
    /// `merged`. The oracle every path is pinned to.
    fn oracle<'a>(
        q: &[f32],
        rows: impl Iterator<Item = (&'a [f32], &'a [f32])> + Clone,
        head_dim: usize,
        scores: &mut Vec<f32>,
        merged: &mut [f32],
    ) {
        let hd_scale = 1.0 / (head_dim as f32).sqrt();
        let heads = q
            .chunks_exact(head_dim)
            .zip(merged.chunks_exact_mut(head_dim));
        for (h, (q_head, out)) in heads.enumerate() {
            let span = h * head_dim..(h + 1) * head_dim;
            scores.clear();
            scores.extend(
                rows.clone()
                    .map(|(k, _)| dot(q_head, &k[span.clone()]) * hd_scale),
            );
            ops::softmax_inplace(scores);
            for (s, (_, v)) in scores.iter().zip(rows.clone()) {
                for (o, &vv) in out.iter_mut().zip(&v[span.clone()]) {
                    *o += s * vv;
                }
            }
        }
    }

    /// An attention path, as the tests call it.
    type Path = fn(&[f32], usize, &[(&[f32], &[f32])], &mut Vec<f32>, &mut [f32]);

    /// Every path this CPU can run, by name. [`attend`] only ever reaches
    /// the widest; the tests below pin *each* to the oracle on its own.
    fn attend_paths() -> Vec<(&'static str, Path)> {
        let mut paths: Vec<(&'static str, Path)> = vec![("portable", attend_portable)];
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY (both): pushed only when the feature is present.
            if std::arch::is_x86_feature_detected!("avx") {
                paths.push(("avx", |q, hd, blocks, scores, out| unsafe {
                    x86::attend_avx(q, hd, blocks, scores, out)
                }));
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                paths.push(("avx512", |q, hd, blocks, scores, out| unsafe {
                    x86::attend_avx512(q, hd, blocks, scores, out)
                }));
            }
        }
        paths
    }

    /// Pins every path to the oracle over `cases` of (head width, heads,
    /// committed rows, chain rows) — one query over a committed block, then
    /// `chain` one-row blocks as a tree node's ancestors arrive — on random
    /// rows, query and starting output, and prints which paths those were.
    fn pin_every_attend_path(seed: u64, cases: &[(usize, usize, usize, usize)]) {
        let mut rng = Pcg::seed(seed);
        let paths = attend_paths();
        let mut random = |len: usize| {
            let mut x = vec![0.0f32; len];
            rng.fill_uniform(&mut x, 2.0);
            x
        };
        for &(head_dim, heads, committed, chain) in cases {
            let dim = head_dim * heads;
            let (q, start) = (random(dim), random(dim));
            let (keys, values) = (random(committed * dim), random(committed * dim));
            let links: Vec<(Vec<f32>, Vec<f32>)> =
                (0..chain).map(|_| (random(dim), random(dim))).collect();
            let mut blocks: Vec<(&[f32], &[f32])> = vec![(&keys, &values)];
            blocks.extend(links.iter().map(|(k, v)| (k.as_slice(), v.as_slice())));

            let rows = blocks
                .iter()
                .flat_map(|(k, v)| k.chunks_exact(dim).zip(v.chunks_exact(dim)));
            let mut want = start.clone();
            oracle(&q, rows, head_dim, &mut Vec::new(), &mut want);
            let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            for &(what, path) in &paths {
                let mut got = start.clone();
                path(&q, head_dim, &blocks, &mut vec![f32::NAN; 3], &mut got);
                let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                assert_eq!(
                    got, want,
                    "{what}: {heads} heads of {head_dim}, {committed} rows + a chain of {chain}"
                );
            }
        }
        let names: Vec<&str> = paths.iter().map(|p| p.0).collect();
        println!(
            "pinned to the scalar oracle over {} cases: {}",
            cases.len(),
            names.join(", ")
        );
    }

    /// Head widths of the decoder configs (8, 32), a 16 that fills one
    /// AVX-512 register, and two ragged even ones.
    const HEAD_DIMS: [usize; 5] = [6, 8, 10, 16, 32];

    #[test]
    fn every_attend_path_bit_identical_to_the_oracle_on_decode_rows() {
        // Every quad remainder up to four quads and a half, the benchmark's
        // two context lengths (one past 512), one block as a decode row or
        // prompt span sees its cache.
        let mut cases = Vec::new();
        for head_dim in HEAD_DIMS {
            for heads in [1, 3, 4] {
                for rows in (0..=17).chain([64, 513]) {
                    cases.push((head_dim, heads, rows, 0));
                }
            }
        }
        pin_every_attend_path(21, &cases);
    }

    #[test]
    fn every_attend_path_bit_identical_to_the_oracle_on_tree_chains() {
        // A node at depth 0..=3 sees its committed cache, then the chain
        // root → node, one block per ancestor.
        let mut cases = Vec::new();
        for head_dim in HEAD_DIMS {
            for heads in [1, 4] {
                for committed in [0, 1, 3, 4, 5, 8, 13, 64] {
                    for chain in 1..=4 {
                        cases.push((head_dim, heads, committed, chain));
                    }
                }
            }
        }
        pin_every_attend_path(22, &cases);
    }
}
