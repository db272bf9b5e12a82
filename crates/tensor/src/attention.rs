//! Softmax attention of queries over cached key/value rows: the kernels
//! behind every attention call of the decoder — decode rows, prompt spans
//! and draft-tree nodes alike.
//!
//! [`attend_many`] is the entry the decoder calls: a batch of queries, the
//! rows they all see (a sequence's committed cache) and the batch's own
//! rows under a parent map — a tree's nodes, or a prompt span as the chain
//! `parents[i] = i - 1` — each query seeing the shared rows, then its own
//! chain root → itself. On x86-64, from four queries on, the queries are
//! the lanes of one pass; fewer, and every query on other targets, make
//! one [`attend`] call a query.
//!
//! Both are bit-identical to the scalar loop they replaced (kept as the
//! oracle of this module's tests). For every head it scores each visible
//! row `matrix::dot(q_head, k_head) * (1 / √head_dim)`, runs
//! [`ops::softmax_inplace`] over that head's scores — whose vector `exp`,
//! [`ops::exp_in_place`], returns `f32::exp`'s bits lane for lane — and
//! adds `weight * v` into the output row by row, in row order.
//!
//! [`attend`], one query: three paths, picked at runtime as
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
//!
//! [`attend_many`]'s lanes: one query a lane — sixteen to a 512-bit
//! register, eight to a 256-bit one (also an AVX-512 host's last group of
//! eight or fewer, which then pays half the `exp`s) — so each shared row is
//! read once per lane group, not once per query. A lane runs its query's
//! own chain: the four `dot` accumulators in column order, `s0+s1+s2+s3`,
//! the ragged columns, the scale; a maximum, shift, `exp`, row-order sum
//! and division per lane; `o += w * v` in row order. A lane that does not
//! see a row — a sibling's, a padding lane's — is masked out of the
//! maximum, the sum and the value pass and zeroed before the `exp`, so it
//! can change nothing and cannot send its register down `exp`'s scalar
//! special path. The own rows a group sees are walked in index order,
//! which is chain order for every query since a parent precedes its child.

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

/// Softmax attention of many queries that share their first rows: query
/// `j` (row `j` of `qs`, `[m × dim]`) is own row `first + j`, where `first
/// = parents.len() - m`, and sees every row of `shared`, then its ancestor
/// chain through `parents`, root → itself, among the `own` rows. `shared`
/// and `own` are `(keys, values)` packed row-major as wide as a query, with
/// one `own` row per entry of `parents`, and a parent precedes its child.
/// Query `j`'s output is added into row `j` of `out` (as wide as `qs`).
/// A draft tree passes its parent map; a prompt span the chain
/// `parents[i] = i - 1`. `scratch` is working space the caller reuses.
///
/// Every output equals [`attend`] of the query over the blocks `[shared,
/// chain…]`, bit for bit. On x86-64, from four queries on, they run as
/// lanes of one pass (the module docs say why nothing moves); fewer, and
/// every query elsewhere, run one [`attend`] call each.
///
/// # Panics
///
/// Panics if the widths are not whole heads and rows as above, `qs` holds
/// more queries than `parents` rows, or a parent does not precede its child.
pub fn attend_many(
    qs: &[f32],
    head_dim: usize,
    shared: (&[f32], &[f32]),
    own: (&[f32], &[f32]),
    parents: &[Option<usize>],
    scratch: &mut Vec<f32>,
    out: &mut [f32],
) {
    assert_eq!(out.len(), qs.len(), "one output row per query");
    if qs.is_empty() {
        return;
    }
    let dim = own.0.len() / parents.len().max(1);
    heads(dim, head_dim);
    let m = qs.len() / dim;
    assert!(
        qs.len() == m * dim && m <= parents.len(),
        "queries must be whole rows, one per own row at most"
    );
    for (keys, values) in [shared, own] {
        assert!(
            keys.len() == values.len() && keys.len().is_multiple_of(dim),
            "a block must hold whole key and value rows"
        );
    }
    assert_eq!(own.0.len(), parents.len() * dim, "one own row per parent");
    for (i, p) in parents.iter().enumerate() {
        assert!(p.is_none_or(|p| p < i), "parents must precede children");
    }
    #[cfg(target_arch = "x86_64")]
    if m >= x86::LANE_CROSSOVER {
        // SAFETY (both calls): the feature is checked on the line above, and
        // the shapes were checked above.
        if std::arch::is_x86_feature_detected!("avx512f") {
            return unsafe { x86::many_avx512(qs, head_dim, shared, own, parents, scratch, out) };
        }
        if std::arch::is_x86_feature_detected!("avx") {
            return unsafe { x86::many_avx(qs, head_dim, shared, own, parents, scratch, out) };
        }
    }
    attend_each(qs, head_dim, shared, own, parents, scratch, out)
}

/// [`attend_many`] one query at a time: one [`attend`] call over
/// `shared`, then the query's chain, a run of consecutive rows per block.
/// The blocks sit on the stack (a span's query has one run, a tree node at
/// most one per level); a chain of more runs than that holds spills to a
/// `Vec`.
fn attend_each(
    qs: &[f32],
    head_dim: usize,
    shared: (&[f32], &[f32]),
    own: (&[f32], &[f32]),
    parents: &[Option<usize>],
    scores: &mut Vec<f32>,
    out: &mut [f32],
) {
    let dim = own.0.len() / parents.len();
    let first = parents.len() - qs.len() / dim;
    let (mut stack, mut heap) = ([shared; 8], Vec::new());
    let queries = qs.chunks_exact(dim).zip(out.chunks_exact_mut(dim));
    for (j, (q, out)) in queries.enumerate() {
        // The chain leaf → root in runs `start..end`, then reversed.
        heap.clear();
        let (mut blocks, mut start, mut end) = (1, first + j, first + j + 1);
        loop {
            match parents[start] {
                Some(i) if i + 1 == start => start = i,
                parent => {
                    let run = start * dim..end * dim;
                    let run = (&own.0[run.clone()], &own.1[run]);
                    if blocks < stack.len() {
                        stack[blocks] = run;
                    } else {
                        if blocks == stack.len() {
                            heap.extend_from_slice(&stack);
                        }
                        heap.push(run);
                    }
                    blocks += 1;
                    let Some(i) = parent else { break };
                    (start, end) = (i, i + 1);
                }
            }
        }
        let visible = if heap.is_empty() {
            &mut stack[..blocks]
        } else {
            &mut heap[..]
        };
        visible[1..].reverse();
        attend(q, head_dim, visible, scores, out);
    }
}

/// The x86-64 paths; the module docs say why each keeps the oracle's sums.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    use super::{accumulate_rows, attend_with, heads, ops, value_rows};
    use crate::backend::x86::lane_sums;

    /// Fewest queries [`super::attend_many`] runs as lanes; fewer run one
    /// [`super::attend`] call each. Timed on a Xeon with AVX-512 (family 6,
    /// model 207), heads of 32, 40 and 512 shared rows, star and chain
    /// masks, each lane path against one `attend` call a query on the same
    /// instruction set: at four queries the AVX-512 lanes took 0.88–0.91 of
    /// the time at 40 rows and 1.00–1.03 at 512, the AVX lanes 0.86–0.89;
    /// at three, every case took longer (1.05–1.33).
    pub const LANE_CROSSOVER: usize = 4;

    /// One register of query lanes, as a path supplies it to [`attend_lanes`]:
    /// lane `l` of every value belongs to query `l` of a lane group. Each
    /// operation is the scalar one lane for lane, so a lane computes what one
    /// query's own loop computes.
    trait Lanes {
        /// Queries a lane group holds.
        const L: usize;
        /// `L` lanes of `f32`.
        type V: Copy;
        /// A lane mask, from [`Lanes::mask`].
        type M: Copy;
        unsafe fn splat(x: f32) -> Self::V;
        /// `L` lanes from `p..p + L`.
        unsafe fn load(p: *const f32) -> Self::V;
        unsafe fn store(p: *mut f32, v: Self::V);
        /// `p[l * stride]` on each lane `l < lanes`, zero on the others.
        unsafe fn gather(p: *const f32, stride: usize, lanes: usize) -> Self::V;
        unsafe fn add(a: Self::V, b: Self::V) -> Self::V;
        unsafe fn sub(a: Self::V, b: Self::V) -> Self::V;
        unsafe fn mul(a: Self::V, b: Self::V) -> Self::V;
        unsafe fn div(a: Self::V, b: Self::V) -> Self::V;
        /// `f32::max(acc, x)`, NaN in `x` ignored as it ignores it.
        unsafe fn max(acc: Self::V, x: Self::V) -> Self::V;
        /// `v` where it is `> 0`, else 1 (which divides into a no-op).
        unsafe fn positive_or_one(v: Self::V) -> Self::V;
        /// The lanes whose bit is set in `bits`.
        unsafe fn mask(bits: u32) -> Self::M;
        /// `a` on the lanes of `m`, `b` elsewhere.
        unsafe fn select(m: Self::M, a: Self::V, b: Self::V) -> Self::V;
    }

    /// A call of [`super::attend_many`] as its lane groups read it, with the scratch
    /// they reuse.
    struct Batch<'a> {
        qs: &'a [f32],
        hd: usize,
        dim: usize,
        shared: (&'a [f32], &'a [f32]),
        own: (&'a [f32], &'a [f32]),
        parents: &'a [Option<usize>],
        /// The own row of query 0.
        first: usize,
        /// Per own row, the lanes of the group at hand that see it.
        bits: Vec<u32>,
        /// The own rows the group at hand sees, in index order.
        seen: Vec<usize>,
    }

    impl<'a> Batch<'a> {
        fn new(
            qs: &'a [f32],
            hd: usize,
            shared: (&'a [f32], &'a [f32]),
            own: (&'a [f32], &'a [f32]),
            parents: &'a [Option<usize>],
        ) -> Self {
            let dim = own.0.len() / parents.len();
            let first = parents.len() - qs.len() / dim;
            let (bits, seen) = (Vec::new(), Vec::new());
            Batch {
                qs,
                hd,
                dim,
                shared,
                own,
                parents,
                first,
                bits,
                seen,
            }
        }

        /// Queries in the batch.
        fn queries(&self) -> usize {
            self.qs.len() / self.dim
        }
    }

    /// [`super::attend_many`] in lane groups of `P::L` queries, the last one padded.
    ///
    /// # Safety
    ///
    /// As [`attend_group`].
    #[inline(always)]
    unsafe fn attend_lanes<P: Lanes>(
        qs: &[f32],
        hd: usize,
        shared: (&[f32], &[f32]),
        own: (&[f32], &[f32]),
        parents: &[Option<usize>],
        work: &mut Vec<f32>,
        out: &mut [f32],
    ) {
        let mut batch = Batch::new(qs, hd, shared, own, parents);
        for j0 in (0..batch.queries()).step_by(P::L) {
            attend_group::<P>(&mut batch, j0, work, out);
        }
    }

    /// The body every lane path shares: queries `j0..` of `batch`, up to
    /// `P::L` of them, as the lanes of one group. Their queries and output
    /// rows are transposed into lanes (column `c` of every query in one
    /// register), and each row the group sees — every shared row, then each
    /// own row some query of the group has on its chain, in index order, which
    /// is chain order for every query — is read once for the whole group:
    ///
    /// - scores: per head, four lane accumulators filled in `matrix::dot`'s
    ///   column order, `s0 + s1 + s2 + s3`, the ragged columns, `× 1/√hd`;
    /// - softmax: per head, the maximum over the lanes that see a row, minus
    ///   it, the lanes that do not see it zeroed, one `exp_in_place`, a sum in
    ///   row order over the lanes that see each row, a division where the sum
    ///   is `> 0` ([`ops::softmax_inplace`]'s order);
    /// - values: `out += w * v` in row order, a lane left alone on a row its
    ///   query does not see, column blocks of eight held in registers.
    ///
    /// # Safety
    ///
    /// The shapes [`super::attend_many`] asserts must hold, `j0` must be a query of
    /// the batch, and `P`'s instructions must be available.
    #[inline(always)]
    unsafe fn attend_group<P: Lanes>(
        batch: &mut Batch<'_>,
        j0: usize,
        work: &mut Vec<f32>,
        out: &mut [f32],
    ) {
        let (l, hd, dim, first) = (P::L, batch.hd, batch.dim, batch.first);
        let (shared, own) = (batch.shared, batch.own);
        let heads = dim / hd;
        let lanes = (batch.queries() - j0).min(l);
        let n_shared = shared.0.len() / dim;
        let scale = 1.0 / (hd as f32).sqrt();

        // The own rows each lane sees: its chain, root → itself.
        let (bits, seen) = (&mut batch.bits, &mut batch.seen);
        bits.clear();
        bits.resize(first + j0 + lanes, 0);
        for lane in 0..lanes {
            let mut node = Some(first + j0 + lane);
            while let Some(i) = node {
                bits[i] |= 1 << lane;
                node = batch.parents[i];
            }
        }
        seen.clear();
        seen.extend((0..bits.len()).filter(|&i| bits[i] != 0));
        let (bits, seen) = (bits.as_slice(), seen.as_slice());
        let rows = n_shared + seen.len();

        // Working space: queries and outputs `[dim × L]`, scores
        // `[heads × rows × L]`; a padding lane's query and output are zero.
        if work.len() < (2 * dim + heads * rows) * l {
            work.resize((2 * dim + heads * rows) * l, 0.0);
        }
        let qt = work.as_mut_ptr();
        let (ot, sc) = (qt.add(dim * l), qt.add(2 * dim * l));
        let (q0, o0) = (
            batch.qs.as_ptr().add(j0 * dim),
            out.as_mut_ptr().add(j0 * dim),
        );
        for c in 0..dim {
            P::store(qt.add(c * l), P::gather(q0.add(c), dim, lanes));
            P::store(ot.add(c * l), P::gather(o0.add(c), dim, lanes));
        }
        let key = |r: usize| match r.checked_sub(n_shared) {
            None => shared.0.as_ptr().add(r * dim),
            Some(o) => own.0.as_ptr().add(seen[o] * dim),
        };
        let mask = |o: usize| P::mask(bits[seen[o]]);

        // Scores, two rows at a time (eight independent sums, one load of the
        // queries). In bounds: `rows` rows of `heads` heads of `hd` lanes.
        for r in (0..rows).step_by(2) {
            let pair = [key(r), key((r + 1).min(rows - 1))];
            for h in 0..heads {
                let q = qt.add(h * hd * l);
                let k = pair.map(|k| k.add(h * hd));
                let mut acc = [[P::splat(0.0); 4]; 2];
                let tail = hd / 4 * 4;
                for c in (0..tail).step_by(4) {
                    for t in 0..4 {
                        let q = P::load(q.add((c + t) * l));
                        for (acc, k) in acc.iter_mut().zip(k) {
                            acc[t] = P::add(acc[t], P::mul(q, P::splat(*k.add(c + t))));
                        }
                    }
                }
                for (i, (acc, k)) in acc.into_iter().zip(k).enumerate().take(rows - r) {
                    let mut s = P::add(P::add(P::add(acc[0], acc[1]), acc[2]), acc[3]);
                    for c in tail..hd {
                        s = P::add(s, P::mul(P::load(q.add(c * l)), P::splat(*k.add(c))));
                    }
                    P::store(sc.add((h * rows + r + i) * l), P::mul(s, P::splat(scale)));
                }
            }
        }

        // Softmax: the maximum and the shift, one `exp` over every head, the
        // sum and the division.
        for h in 0..heads {
            let s = sc.add(h * rows * l);
            let mut max = P::splat(f32::NEG_INFINITY);
            for r in 0..n_shared {
                max = P::max(max, P::load(s.add(r * l)));
            }
            for o in 0..seen.len() {
                let x = P::load(s.add((n_shared + o) * l));
                max = P::select(mask(o), P::max(max, x), max);
            }
            for r in 0..n_shared {
                let p = s.add(r * l);
                P::store(p, P::sub(P::load(p), max));
            }
            for o in 0..seen.len() {
                let p = s.add((n_shared + o) * l);
                P::store(
                    p,
                    P::select(mask(o), P::sub(P::load(p), max), P::splat(0.0)),
                );
            }
        }
        ops::exp_in_place(core::slice::from_raw_parts_mut(sc, heads * rows * l));
        for h in 0..heads {
            let s = sc.add(h * rows * l);
            let mut sum = P::splat(0.0);
            for r in 0..n_shared {
                sum = P::add(sum, P::load(s.add(r * l)));
            }
            for o in 0..seen.len() {
                sum = P::select(
                    mask(o),
                    P::add(sum, P::load(s.add((n_shared + o) * l))),
                    sum,
                );
            }
            let sum = P::positive_or_one(sum);
            for r in 0..rows {
                let p = s.add(r * l);
                P::store(p, P::div(P::load(p), sum));
            }
        }

        // Values, a head at a time in column blocks of eight.
        let values = (shared.1, own.1, seen, bits);
        for h in 0..heads {
            let (w, mut c) = (sc.add(h * rows * l).cast_const(), h * hd);
            while c + 8 <= (h + 1) * hd {
                values_block::<P, 8>(values, dim, w, ot.add(c * l), c);
                c += 8;
            }
            while c < (h + 1) * hd {
                values_block::<P, 1>(values, dim, w, ot.add(c * l), c);
                c += 1;
            }
        }
        for lane in 0..lanes {
            let row = o0.add(lane * dim);
            for c in 0..dim {
                *row.add(c) = *ot.add(c * l + lane);
            }
        }
    }

    /// Output columns `c..c + B` of a lane group, held in `B` registers across
    /// every row the group sees: `w` the head's weights `[rows × L]`, `o` the
    /// transposed output at column `c`, `values` the shared value rows, the
    /// own value rows, the own rows seen and every own row's lane bits.
    ///
    /// # Safety
    ///
    /// As [`attend_group`], with `c + B` inside a head.
    #[inline(always)]
    unsafe fn values_block<P: Lanes, const B: usize>(
        (shared, own, seen, bits): (&[f32], &[f32], &[usize], &[u32]),
        dim: usize,
        w: *const f32,
        o: *mut f32,
        c: usize,
    ) {
        let l = P::L;
        let n_shared = shared.len() / dim;
        let mut acc: [P::V; B] = core::array::from_fn(|b| P::load(o.add(b * l)));
        for r in 0..n_shared {
            let (w, v) = (P::load(w.add(r * l)), shared.as_ptr().add(r * dim + c));
            for (b, a) in acc.iter_mut().enumerate() {
                *a = P::add(*a, P::mul(w, P::splat(*v.add(b))));
            }
        }
        for (s, &i) in seen.iter().enumerate() {
            let (w, mask) = (P::load(w.add((n_shared + s) * l)), P::mask(bits[i]));
            let v = own.as_ptr().add(i * dim + c);
            for (b, a) in acc.iter_mut().enumerate() {
                *a = P::select(mask, P::add(*a, P::mul(w, P::splat(*v.add(b)))), *a);
            }
        }
        for (b, a) in acc.into_iter().enumerate() {
            P::store(o.add(b * l), a);
        }
    }

    /// Eight queries to a 256-bit register.
    struct Avx;

    /// Every mask of eight lanes, by its bits (AVX has no integer compare
    /// to build one from them).
    static LANE_MASKS: [[i32; 8]; 256] = {
        let mut masks = [[0; 8]; 256];
        let mut bits = 0;
        while bits < 256 {
            let mut lane = 0;
            while lane < 8 {
                masks[bits][lane] = -((bits >> lane & 1) as i32);
                lane += 1;
            }
            bits += 1;
        }
        masks
    };

    impl Lanes for Avx {
        const L: usize = 8;
        type V = __m256;
        type M = __m256;
        #[inline(always)]
        unsafe fn splat(x: f32) -> __m256 {
            _mm256_set1_ps(x)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> __m256 {
            _mm256_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn store(p: *mut f32, v: __m256) {
            _mm256_storeu_ps(p, v)
        }
        #[inline(always)]
        unsafe fn gather(p: *const f32, stride: usize, lanes: usize) -> __m256 {
            let lane = |l: usize| if l < lanes { *p.add(l * stride) } else { 0.0 };
            _mm256_setr_ps(
                lane(0),
                lane(1),
                lane(2),
                lane(3),
                lane(4),
                lane(5),
                lane(6),
                lane(7),
            )
        }
        #[inline(always)]
        unsafe fn add(a: __m256, b: __m256) -> __m256 {
            _mm256_add_ps(a, b)
        }
        #[inline(always)]
        unsafe fn sub(a: __m256, b: __m256) -> __m256 {
            _mm256_sub_ps(a, b)
        }
        #[inline(always)]
        unsafe fn mul(a: __m256, b: __m256) -> __m256 {
            _mm256_mul_ps(a, b)
        }
        #[inline(always)]
        unsafe fn div(a: __m256, b: __m256) -> __m256 {
            _mm256_div_ps(a, b)
        }
        #[inline(always)]
        unsafe fn max(acc: __m256, x: __m256) -> __m256 {
            // `maxps` returns its second operand when either is NaN.
            _mm256_max_ps(x, acc)
        }
        #[inline(always)]
        unsafe fn positive_or_one(v: __m256) -> __m256 {
            let positive = _mm256_cmp_ps::<_CMP_GT_OQ>(v, _mm256_setzero_ps());
            _mm256_blendv_ps(_mm256_set1_ps(1.0), v, positive)
        }
        #[inline(always)]
        unsafe fn mask(bits: u32) -> __m256 {
            _mm256_loadu_ps(LANE_MASKS[bits as usize & 0xff].as_ptr().cast())
        }
        #[inline(always)]
        unsafe fn select(m: __m256, a: __m256, b: __m256) -> __m256 {
            _mm256_blendv_ps(b, a, m)
        }
    }

    /// Sixteen queries to a 512-bit register.
    struct Avx512;

    impl Lanes for Avx512 {
        const L: usize = 16;
        type V = __m512;
        type M = __mmask16;
        #[inline(always)]
        unsafe fn splat(x: f32) -> __m512 {
            _mm512_set1_ps(x)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> __m512 {
            _mm512_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn store(p: *mut f32, v: __m512) {
            _mm512_storeu_ps(p, v)
        }
        #[inline(always)]
        unsafe fn gather(p: *const f32, stride: usize, lanes: usize) -> __m512 {
            let index = _mm512_mullo_epi32(
                _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
                _mm512_set1_epi32(stride as i32),
            );
            let lanes = (!0u32 >> (32 - lanes)) as __mmask16;
            _mm512_mask_i32gather_ps::<4>(_mm512_setzero_ps(), lanes, index, p.cast())
        }
        #[inline(always)]
        unsafe fn add(a: __m512, b: __m512) -> __m512 {
            _mm512_add_ps(a, b)
        }
        #[inline(always)]
        unsafe fn sub(a: __m512, b: __m512) -> __m512 {
            _mm512_sub_ps(a, b)
        }
        #[inline(always)]
        unsafe fn mul(a: __m512, b: __m512) -> __m512 {
            _mm512_mul_ps(a, b)
        }
        #[inline(always)]
        unsafe fn div(a: __m512, b: __m512) -> __m512 {
            _mm512_div_ps(a, b)
        }
        #[inline(always)]
        unsafe fn max(acc: __m512, x: __m512) -> __m512 {
            // `vmaxps` returns its second operand when either is NaN.
            _mm512_max_ps(x, acc)
        }
        #[inline(always)]
        unsafe fn positive_or_one(v: __m512) -> __m512 {
            let positive = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(v, _mm512_setzero_ps());
            _mm512_mask_blend_ps(positive, _mm512_set1_ps(1.0), v)
        }
        #[inline(always)]
        unsafe fn mask(bits: u32) -> __mmask16 {
            bits as __mmask16
        }
        #[inline(always)]
        unsafe fn select(m: __mmask16, a: __m512, b: __m512) -> __m512 {
            _mm512_mask_blend_ps(m, b, a)
        }
    }

    /// [`super::attend_many`]'s lanes on AVX.
    ///
    /// # Safety
    ///
    /// AVX must be available and the shapes as `attend_many` asserts them.
    #[target_feature(enable = "avx")]
    pub unsafe fn many_avx(
        qs: &[f32],
        hd: usize,
        shared: (&[f32], &[f32]),
        own: (&[f32], &[f32]),
        parents: &[Option<usize>],
        work: &mut Vec<f32>,
        out: &mut [f32],
    ) {
        attend_lanes::<Avx>(qs, hd, shared, own, parents, work, out)
    }

    /// [`super::attend_many`]'s lanes on AVX-512.
    ///
    /// # Safety
    ///
    /// AVX-512F must be available and the shapes as `attend_many` asserts
    /// them.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn many_avx512(
        qs: &[f32],
        hd: usize,
        shared: (&[f32], &[f32]),
        own: (&[f32], &[f32]),
        parents: &[Option<usize>],
        work: &mut Vec<f32>,
        out: &mut [f32],
    ) {
        // A last group of eight queries or fewer takes eight lanes: half
        // the `exp`s of sixteen, the same number of other instructions. On
        // a [3, 2, 2] tree (16 + 6 queries, heads of 32) this took 0.90–0.96
        // of the time of two sixteen-lane groups at 24–64 shared rows and
        // 0.84–0.86 at 512, ahead in 30 to 39 of 40 alternating batches.
        let mut batch = Batch::new(qs, hd, shared, own, parents);
        let (m, mut j0) = (batch.queries(), 0);
        while j0 + 8 < m {
            attend_group::<Avx512>(&mut batch, j0, work, out);
            j0 += 16;
        }
        if j0 < m {
            attend_group::<Avx>(&mut batch, j0, work, out);
        }
    }

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

    /// A multi-query path, as the tests call it.
    type ManyPath = fn(
        &[f32],
        usize,
        (&[f32], &[f32]),
        (&[f32], &[f32]),
        &[Option<usize>],
        &mut Vec<f32>,
        &mut [f32],
    );

    /// Every multi-query path this CPU can run, by name: one [`attend`] a
    /// query, each lane path whatever the query count, and the dispatch.
    fn many_paths() -> Vec<(&'static str, ManyPath)> {
        let mut paths: Vec<(&'static str, ManyPath)> = vec![("one attend a query", attend_each)];
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY (both lane paths): `pin_every_many_path` passes shapes
            // `attend_many` accepts, and each is pushed only when its
            // feature is present.
            if std::arch::is_x86_feature_detected!("avx") {
                paths.push(("avx lanes", |q, hd, s, o, p, w, out| unsafe {
                    x86::many_avx(q, hd, s, o, p, w, out)
                }));
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                paths.push(("avx512 lanes", |q, hd, s, o, p, w, out| unsafe {
                    x86::many_avx512(q, hd, s, o, p, w, out)
                }));
            }
        }
        paths.push(("attend_many", attend_many));
        paths
    }

    /// A mask: the parent map of the own rows and how many of them, the
    /// last ones, are queries.
    struct Mask {
        name: String,
        parents: Vec<Option<usize>>,
        queries: usize,
    }

    /// A tree grown level by level, `widths[d]` children per node of
    /// depth `d`, in breadth-first order (the draft trees' order).
    fn tree(widths: &[usize]) -> Vec<Option<usize>> {
        let (mut parents, mut level) = (vec![None], vec![0]);
        for &w in widths {
            let mut next = Vec::new();
            for &p in &level {
                for _ in 0..w {
                    next.push(parents.len());
                    parents.push(Some(p));
                }
            }
            level = next;
        }
        parents
    }

    fn star(n: usize) -> Vec<Option<usize>> {
        (0..n).map(|i| (i > 0).then_some(0)).collect()
    }

    fn chain(n: usize) -> Vec<Option<usize>> {
        (0..n).map(|i| i.checked_sub(1)).collect()
    }

    /// Two interleaved chains, `parents[i] = i - 2`: a query's chain is
    /// one run of rows per ancestor, more runs than `attend_each` holds on
    /// the stack from row 14 on.
    fn comb(n: usize) -> Vec<Option<usize>> {
        (0..n).map(|i| i.checked_sub(2)).collect()
    }

    fn mask(name: &str, parents: Vec<Option<usize>>, first: usize) -> Mask {
        let queries = parents.len() - first;
        Mask {
            name: format!("{name} of {}, first {first}", parents.len()),
            parents,
            queries,
        }
    }

    /// Pins every multi-query path to the oracle, one query at a time, over
    /// `cases` of (head width, heads, shared rows, mask) on random rows,
    /// queries and starting outputs, and prints which paths those were.
    fn pin_every_many_path(seed: u64, cases: &[(usize, usize, usize, &Mask)]) {
        let mut rng = Pcg::seed(seed);
        let paths = many_paths();
        let mut random = |len: usize| {
            let mut x = vec![0.0f32; len];
            rng.fill_uniform(&mut x, 2.0);
            x
        };
        for &(head_dim, heads, n_shared, mask) in cases {
            let dim = head_dim * heads;
            let own_rows = mask.parents.len();
            let first = own_rows - mask.queries;
            let (qs, start) = (random(mask.queries * dim), random(mask.queries * dim));
            let shared = (random(n_shared * dim), random(n_shared * dim));
            let own = (random(own_rows * dim), random(own_rows * dim));
            let row = |block: &[f32], i: usize| -> Vec<f32> { block[i * dim..][..dim].to_vec() };

            let mut want = start.clone();
            for (j, (q, out)) in qs
                .chunks_exact(dim)
                .zip(want.chunks_exact_mut(dim))
                .enumerate()
            {
                let mut rows: Vec<(Vec<f32>, Vec<f32>)> = (0..n_shared)
                    .map(|r| (row(&shared.0, r), row(&shared.1, r)))
                    .collect();
                let mut chain = Vec::new();
                let mut node = Some(first + j);
                while let Some(i) = node {
                    chain.push((row(&own.0, i), row(&own.1, i)));
                    node = mask.parents[i];
                }
                rows.extend(chain.into_iter().rev());
                let rows = rows.iter().map(|(k, v)| (k.as_slice(), v.as_slice()));
                oracle(q, rows, head_dim, &mut Vec::new(), out);
            }
            let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            for &(what, path) in &paths {
                let mut got = start.clone();
                let (s, o) = ((&shared.0[..], &shared.1[..]), (&own.0[..], &own.1[..]));
                path(
                    &qs,
                    head_dim,
                    s,
                    o,
                    &mask.parents,
                    &mut vec![f32::NAN; 3],
                    &mut got,
                );
                let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                assert_eq!(
                    got, want,
                    "{what}: {heads} heads of {head_dim}, {n_shared} shared rows, {}",
                    mask.name
                );
            }
        }
        let names: Vec<&str> = paths.iter().map(|p| p.0).collect();
        println!(
            "pinned to the scalar oracle over {} query batches: {}",
            cases.len(),
            names.join(", ")
        );
    }

    #[test]
    fn every_attend_path_bit_identical_to_the_oracle_on_query_batches() {
        // The draft trees ([3, 2, 2], whole and from a level on), stars,
        // chains that start past their root, combs, and causal spans of
        // every length to 40, across the 8- and 16-lane groups.
        let mut masks = vec![
            mask("[3,2,2] tree", tree(&[3, 2, 2]), 0),
            mask("[3,2,2] tree", tree(&[3, 2, 2]), 4),
            mask("[3,2,2] tree", tree(&[3, 2, 2]), 10),
            mask("star", star(9), 0),
            mask("star", star(17), 1),
            mask("chain", chain(12), 7),
            mask("chain", chain(33), 2),
            mask("comb", comb(20), 0),
            mask("comb", comb(20), 17),
        ];
        let long = masks.len();
        masks.extend((1..=40).map(|n| mask("causal span", chain(n), 0)));
        let mut cases = Vec::new();
        for head_dim in HEAD_DIMS {
            for heads in [1, 3] {
                for n_shared in (0..=17).chain([64, 513]) {
                    let some: &[usize] = match n_shared {
                        // Every span length once, at one shared count.
                        5 => &[0, 1, 2, 3, 4, 5, 6, 7, 8],
                        64 | 513 => &[0, 6, 7, long + 39],
                        _ => &[0, 3, 5, 7, 8, long, long + 2, long + 15, long + 23],
                    };
                    for &i in some {
                        cases.push((head_dim, heads, n_shared, &masks[i]));
                    }
                    if n_shared == 5 {
                        cases.extend(masks[long..].iter().map(|m| (head_dim, heads, 5, m)));
                    }
                }
            }
        }
        pin_every_many_path(23, &cases);
    }
}
