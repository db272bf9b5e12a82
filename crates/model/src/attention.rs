//! Multi-head self-attention with KV cache, including tree-masked
//! attention for speculative-decoding verification.

use specee_metrics::Meter;
use specee_tensor::attention::attend_many;
use specee_tensor::BackendKind;

use crate::config::ModelConfig;
use crate::kv::KvCache;
use crate::metering::OpScale;
use crate::rope::{self, RopeFreqs};
use crate::weights::LayerWeights;

/// Per-node key/value rows produced by tree-attention passes, kept aside
/// until verification decides which path to commit: one `kv_dim`-wide key
/// (rotated at the node's position) and value row per node, packed in node
/// order like a [`KvCache`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TreeKv {
    k: Vec<f32>,
    v: Vec<f32>,
    len: usize,
}

impl TreeKv {
    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the scratch is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Node `i`'s key row.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn key(&self, i: usize) -> &[f32] {
        self.row(&self.k, i)
    }

    /// Node `i`'s value row.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn value(&self, i: usize) -> &[f32] {
        self.row(&self.v, i)
    }

    fn row<'a>(&self, packed: &'a [f32], i: usize) -> &'a [f32] {
        assert!(i < self.len, "node {i} >= {}", self.len);
        let dim = packed.len() / self.len;
        &packed[i * dim..(i + 1) * dim]
    }
}

/// Number of `dim`-wide rows packed in `xs`.
fn packed_rows(xs: &[f32], dim: usize) -> usize {
    assert_eq!(xs.len() % dim, 0, "inputs must be whole hidden rows");
    xs.len() / dim
}

/// One pass over the stacked Q|K|V matrix `w.wqkv` for the rows packed in
/// `xs`: the first `n` rows' Q, K and V, then the other rows' K and V
/// (`wqkv` rows `dim..3·dim`, their Q dropped), packed and unrotated.
pub(crate) fn project_qkv(
    w: &LayerWeights,
    backend: BackendKind,
    xs: &[f32],
    n: usize,
) -> ([Vec<f32>; 3], [Vec<f32>; 2]) {
    let dim = w.wqkv.rows() / 3;
    let all = packed_rows(xs, w.wqkv.cols());
    let qkv = w.wqkv.matmul_with(backend, xs, all);
    let mut rows = [(); 3].map(|_| Vec::with_capacity(n * dim));
    let mut owed = [(); 2].map(|_| Vec::with_capacity((all - n) * dim));
    for (i, row) in qkv.chunks_exact(3 * dim).enumerate() {
        let (parts, row) = if i < n {
            (&mut rows[..], row)
        } else {
            (&mut owed[..], &row[dim..])
        };
        for (part, third) in parts.iter_mut().zip(row.chunks_exact(dim)) {
            part.extend_from_slice(third);
        }
    }
    (rows, owed)
}

/// Appends owed K/V rows (packed, keys unrotated) to `cache`: each key is
/// rotated at the position it takes, the cache's length as it is pushed,
/// which is the position whose exit hidden state it was projected from.
pub(crate) fn push_owed(
    cache: &mut KvCache,
    rope: &RopeFreqs,
    n_heads: usize,
    ks: &mut [f32],
    vs: &[f32],
) {
    let dim = cache.kv_dim();
    for (k, v) in ks.chunks_exact_mut(dim).zip(vs.chunks_exact(dim)) {
        rope.rotate(k, cache.len(), n_heads);
        cache.push(k, v);
    }
}

/// `rows` consecutive rows of a packed batch: positions `base..` of the
/// sequence that owns `cache`. A prompt span is one seat of many rows; a
/// decode group is one single-row seat per member. Before them the seat's
/// cache is owed the `owed` positions `cache.len()..base`, whose inputs
/// ride the same Q|K|V pass (see [`attention_forward_rows`]).
pub(crate) struct Seat<'a> {
    pub(crate) cache: &'a mut KvCache,
    pub(crate) base: usize,
    pub(crate) rows: usize,
    pub(crate) owed: usize,
}

/// Single-token attention forward: projects q/k/v from the normalized
/// hidden state, applies RoPE at `pos`, appends to the cache, attends over
/// the whole cache and projects the output — the kernel of
/// [`crate::Transformer::forward_layer_span`] over one seat of one row.
///
/// # Panics
///
/// Panics if `pos` does not equal the cache length (tokens must be
/// committed strictly in order).
#[allow(clippy::too_many_arguments)]
pub fn attention_forward(
    w: &LayerWeights,
    cfg: &ModelConfig,
    scale: &OpScale,
    backend: BackendKind,
    x: &[f32],
    pos: usize,
    cache: &mut KvCache,
    meter: &mut Meter,
) -> Vec<f32> {
    let rope = RopeFreqs::new(cfg.head_dim(), cfg.rope_theta);
    let mut seat = [Seat {
        cache,
        base: pos,
        rows: packed_rows(x, cfg.hidden_dim),
        owed: 0,
    }];
    attention_forward_rows(w, cfg, scale, backend, &rope, x, &mut seat, meter)
}

/// Causal attention over the rows of `xs` (normalized hidden states packed
/// row-major), dealt to `seats` in order: one weight pass each for the
/// stacked Q|K|V and the output projections of the whole batch, while each
/// row is rotated to its own position and appends its K/V to its own seat's
/// cache, and each row attends over that cache up to itself, in one
/// [`attend_many`] call per seat — no sum mixes two rows, so every output,
/// cache row and [`Meter`] record equals feeding the rows through
/// [`attention_forward`] one at a time. Returns the outputs packed like
/// the seats' rows.
///
/// The seats' owed rows follow their rows in `xs`, seat by seat: exit
/// hidden states, normalized for this layer, of positions whose K/V an
/// early exit left owed. They ride the Q|K|V pass as extra inputs: their Q
/// is discarded, and their K/V rows are pushed, each key rotated at its
/// own position, before the seat's own rows. They are not metered here —
/// owing was.
///
/// # Panics
///
/// Panics if a seat's `base` is not its cache length plus its owed rows, or
/// the seats do not cover exactly the `hidden_dim`-wide rows of `xs`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn attention_forward_rows(
    w: &LayerWeights,
    cfg: &ModelConfig,
    scale: &OpScale,
    backend: BackendKind,
    rope: &RopeFreqs,
    xs: &[f32],
    seats: &mut [Seat<'_>],
    meter: &mut Meter,
) -> Vec<f32> {
    let dim = cfg.hidden_dim;
    let all = packed_rows(xs, dim);
    let n: usize = seats.iter().map(|s| s.rows).sum();
    let owed: usize = seats.iter().map(|s| s.owed).sum();
    assert_eq!(n + owed, all, "seats must cover every row");
    let ([mut qs, mut ks, vs], [mut owed_ks, owed_vs]) = project_qkv(w, backend, xs, n);
    let mut merged = vec![0.0f32; n * dim];
    let (head_dim, mut scores) = (cfg.head_dim(), Vec::new());
    // A seat's rows are a causal span: each sees its cache, then the rows
    // before it (`chain[i] = i - 1`, one prefix for every seat).
    let (mut chain, mut r0, mut o0) = (Vec::new(), 0, 0);
    for seat in seats {
        let cache = &mut *seat.cache;
        assert_eq!(
            seat.base,
            cache.len() + seat.owed,
            "positions must be sequential"
        );
        let span = o0 * dim..(o0 + seat.owed) * dim;
        push_owed(
            cache,
            rope,
            cfg.n_heads,
            &mut owed_ks[span.clone()],
            &owed_vs[span],
        );
        o0 += seat.owed;
        let span = r0 * dim..(r0 + seat.rows) * dim;
        let rows = qs[span.clone()]
            .chunks_exact_mut(dim)
            .zip(ks[span.clone()].chunks_exact_mut(dim))
            .zip(vs[span.clone()].chunks_exact(dim));
        for ((q, k), v) in rows {
            rope.rotate_qk(q, k, cache.len(), cfg.n_heads);
            cache.push(k, v);
        }
        while chain.len() < seat.rows {
            chain.push(chain.len().checked_sub(1));
        }
        let (keys, values, split) = (cache.keys(), cache.values(), seat.base * dim);
        let shared = (&keys[..split], &values[..split]);
        let own = (&keys[split..], &values[split..]);
        let (q, out) = (&qs[span.clone()], &mut merged[span]);
        attend_many(
            q,
            head_dim,
            shared,
            own,
            &chain[..seat.rows],
            &mut scores,
            out,
        );
        for len in seat.base + 1..=cache.len() {
            scale.record_attention(meter, len);
        }
        r0 += seat.rows;
    }
    w.wo.matmul_with(backend, &merged, n)
}

/// Tree-masked attention over the nodes `first_new..` of a growing draft
/// tree (normalized hidden states packed row-major at the front of `xs`),
/// reading ancestor K/V rows from `scratch` (which must already hold rows
/// for nodes `0..first_new`) and appending the new nodes' rows to it; the
/// engine commits the accepted path's rows via [`KvCache::push`]
/// afterwards.
///
/// Each node sees the committed cache, then its ancestor chain root→node
/// (never its siblings) — the tree attention mask of speculative decoding
/// — at RoPE position `cache.len() + depth`, which depends on the node
/// alone, so running a tree through repeated calls (the self-speculative
/// draft pass grows it level by level, each level paying only for its
/// frontier) is bit-identical to one call with every node new. The
/// stacked Q|K|V and the output projections take one weight pass each for
/// all new nodes, and so does attention: one [`attend_many`] call.
///
/// The last `owed` rows of `xs` are owed rows of `cache` (see
/// [`attention_forward_rows`]): they ride the same Q|K|V pass, their Q
/// discarded, and their K/V rows are pushed into `cache` before the tree's
/// base position is read. They are not metered here — owing was.
///
/// # Panics
///
/// Panics if `scratch` does not hold exactly `first_new` rows, if
/// `parents` and `xs` do not cover the same new nodes, or if a parent
/// index does not precede its child.
#[allow(clippy::too_many_arguments)]
pub(crate) fn attention_forward_tree_partial(
    w: &LayerWeights,
    cfg: &ModelConfig,
    scale: &OpScale,
    backend: BackendKind,
    rope: &RopeFreqs,
    xs: &[f32],
    owed: usize,
    parents: &[Option<usize>],
    first_new: usize,
    cache: &mut KvCache,
    scratch: &mut TreeKv,
    meter: &mut Meter,
) -> Vec<f32> {
    assert_eq!(
        scratch.len(),
        first_new,
        "scratch must hold exactly the rows of the already-drafted nodes"
    );
    let dim = cfg.hidden_dim;
    let n = packed_rows(xs, dim) - owed;
    assert_eq!(
        parents.len(),
        first_new + n,
        "parents must cover old and new nodes"
    );
    let ([mut qs, mut ks, vs], [mut owed_ks, owed_vs]) = project_qkv(w, backend, xs, n);
    push_owed(cache, rope, cfg.n_heads, &mut owed_ks, &owed_vs);
    let base = cache.len();
    let depths = depths_from_parents(parents);

    // A node's position is `base + depth`: one `(sin, cos)` table per depth.
    let new_depths = &depths[first_new..];
    let shallowest = new_depths.iter().copied().min().unwrap_or(0);
    let deepest = new_depths.iter().copied().max().unwrap_or(0);
    let tables: Vec<_> = (shallowest..=deepest)
        .map(|depth| rope.sin_cos_table(base + depth))
        .collect();
    let rows = qs.chunks_exact_mut(dim).zip(ks.chunks_exact_mut(dim));
    for ((q, k), depth) in rows.zip(new_depths) {
        let table = &tables[depth - shallowest];
        rope::rotate(q, table, cfg.n_heads);
        rope::rotate(k, table, cfg.n_heads);
    }
    scratch.k.extend_from_slice(&ks);
    scratch.v.extend_from_slice(&vs);
    scratch.len += n;

    // Every node sees the committed cache, then its ancestor chain root →
    // node (`depths_from_parents` checked the topological order); the own
    // rows are the scratch's, the new nodes' as rotated after the drafted.
    let mut merged = vec![0.0f32; n * dim];
    let (head_dim, mut scores) = (cfg.head_dim(), Vec::new());
    attend_many(
        &qs,
        head_dim,
        (cache.keys(), cache.values()),
        (&scratch.k, &scratch.v),
        parents,
        &mut scores,
        &mut merged,
    );
    let kv_lens: Vec<usize> = new_depths.iter().map(|depth| base + depth + 1).collect();
    scale.record_attention_tree(meter, &kv_lens);
    w.wo.matmul_with(backend, &merged, n)
}

/// Computes node depths from parent links (roots have depth 0).
///
/// # Panics
///
/// Panics if a parent index is out of range or not smaller than the child.
pub fn depths_from_parents(parents: &[Option<usize>]) -> Vec<usize> {
    let mut depths = vec![0usize; parents.len()];
    for (i, p) in parents.iter().enumerate() {
        if let Some(p) = *p {
            assert!(p < i, "parents must precede children (node {i} parent {p})");
            depths[i] = depths[p] + 1;
        }
    }
    depths
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::KvLayout;
    use specee_tensor::rng::Pcg;

    /// Every node of a tree new in one call on a cache that owes nothing:
    /// the full sweep the partial calls are compared against.
    #[allow(clippy::too_many_arguments)]
    fn attention_forward_tree(
        w: &LayerWeights,
        cfg: &ModelConfig,
        scale: &OpScale,
        backend: BackendKind,
        xs: &[f32],
        parents: &[Option<usize>],
        cache: &KvCache,
        meter: &mut Meter,
    ) -> (Vec<f32>, TreeKv) {
        let rope = RopeFreqs::new(cfg.head_dim(), cfg.rope_theta);
        let (mut cache, mut tree_kv) = (cache.clone(), TreeKv::default());
        let outs = attention_forward_tree_partial(
            w,
            cfg,
            scale,
            backend,
            &rope,
            xs,
            0,
            parents,
            0,
            &mut cache,
            &mut tree_kv,
            meter,
        );
        (outs, tree_kv)
    }

    fn setup() -> (ModelConfig, LayerWeights, OpScale) {
        let cfg = ModelConfig::tiny();
        let mut rng = Pcg::seed(11);
        let w = LayerWeights::random(&cfg, &mut rng);
        let scale = OpScale::of(&cfg);
        (cfg, w, scale)
    }

    #[test]
    fn forward_appends_to_cache() {
        let (cfg, w, scale) = setup();
        let mut cache = KvCache::new(cfg.hidden_dim, KvLayout::Contiguous);
        let mut meter = Meter::new();
        let x = vec![0.1; cfg.hidden_dim];
        let out = attention_forward(
            &w,
            &cfg,
            &scale,
            BackendKind::Reference,
            &x,
            0,
            &mut cache,
            &mut meter,
        );
        assert_eq!(out.len(), cfg.hidden_dim);
        assert_eq!(cache.len(), 1);
        let _ = attention_forward(
            &w,
            &cfg,
            &scale,
            BackendKind::Reference,
            &x,
            1,
            &mut cache,
            &mut meter,
        );
        assert_eq!(cache.len(), 2);
    }

    #[test]
    #[should_panic(expected = "sequential")]
    fn forward_rejects_position_gaps() {
        let (cfg, w, scale) = setup();
        let mut cache = KvCache::new(cfg.hidden_dim, KvLayout::Contiguous);
        let mut meter = Meter::new();
        let x = vec![0.1; cfg.hidden_dim];
        attention_forward(
            &w,
            &cfg,
            &scale,
            BackendKind::Reference,
            &x,
            3,
            &mut cache,
            &mut meter,
        );
    }

    #[test]
    fn depths_follow_chains() {
        let parents = vec![None, Some(0), Some(0), Some(1)];
        assert_eq!(depths_from_parents(&parents), vec![0, 1, 1, 2]);
    }

    #[test]
    fn tree_root_matches_sequential_attention() {
        // A single-node "tree" must produce the same output as the ordinary
        // sequential forward at the same position.
        let (cfg, w, scale) = setup();
        let mut rng = Pcg::seed(12);
        let mut cache = KvCache::new(cfg.hidden_dim, KvLayout::Contiguous);
        let mut meter = Meter::new();
        // Commit two context positions.
        for pos in 0..2 {
            let mut x = vec![0.0; cfg.hidden_dim];
            rng.fill_uniform(&mut x, 0.5);
            attention_forward(
                &w,
                &cfg,
                &scale,
                BackendKind::Reference,
                &x,
                pos,
                &mut cache,
                &mut meter,
            );
        }
        let mut x = vec![0.0; cfg.hidden_dim];
        rng.fill_uniform(&mut x, 0.5);

        let (tree_out, tree_kv) = attention_forward_tree(
            &w,
            &cfg,
            &scale,
            BackendKind::Reference,
            &x,
            &[None],
            &cache,
            &mut meter,
        );
        let seq_out = attention_forward(
            &w,
            &cfg,
            &scale,
            BackendKind::Reference,
            &x,
            2,
            &mut cache,
            &mut meter,
        );
        assert_eq!(tree_out, seq_out, "bit for bit");
        // The scratch K/V equals what the sequential pass committed.
        assert_eq!(tree_kv.key(0), cache.key(2));
        assert_eq!(tree_kv.value(0), cache.value(2));
    }

    #[test]
    fn siblings_do_not_see_each_other() {
        let (cfg, w, scale) = setup();
        let mut rng = Pcg::seed(13);
        let mut cache = KvCache::new(cfg.hidden_dim, KvLayout::Contiguous);
        let mut meter = Meter::new();
        let mut ctx = vec![0.0; cfg.hidden_dim];
        rng.fill_uniform(&mut ctx, 0.5);
        attention_forward(
            &w,
            &cfg,
            &scale,
            BackendKind::Reference,
            &ctx,
            0,
            &mut cache,
            &mut meter,
        );

        let mut a = vec![0.0; cfg.hidden_dim];
        let mut b = vec![0.0; cfg.hidden_dim];
        rng.fill_uniform(&mut a, 0.5);
        rng.fill_uniform(&mut b, 0.5);

        // Node a alone vs node a next to sibling b: identical outputs.
        let (alone, _) = attention_forward_tree(
            &w,
            &cfg,
            &scale,
            BackendKind::Reference,
            &a,
            &[None],
            &cache,
            &mut meter,
        );
        let (paired, _) = attention_forward_tree(
            &w,
            &cfg,
            &scale,
            BackendKind::Reference,
            &[a.clone(), b].concat(),
            &[None, None],
            &cache,
            &mut meter,
        );
        assert_eq!(alone, paired[..cfg.hidden_dim], "bit for bit");
    }

    #[test]
    fn partial_sweeps_are_bit_identical_to_one_full_sweep() {
        // Growing a tree level by level through the partial kernel must
        // reproduce the one-shot sweep bit for bit — the property the
        // self-draft pass leans on for KV-split correctness.
        let (cfg, w, scale) = setup();
        let mut rng = Pcg::seed(15);
        let mut cache = KvCache::new(cfg.hidden_dim, KvLayout::Contiguous);
        let mut meter = Meter::new();
        for pos in 0..3 {
            let mut x = vec![0.0; cfg.hidden_dim];
            rng.fill_uniform(&mut x, 0.5);
            attention_forward(
                &w,
                &cfg,
                &scale,
                BackendKind::Reference,
                &x,
                pos,
                &mut cache,
                &mut meter,
            );
        }
        // Tree: root 0; children 1, 2; grandchildren 3 (of 1), 4 (of 2).
        let parents = vec![None, Some(0), Some(0), Some(1), Some(2)];
        let mut xs = Vec::new();
        for _ in 0..parents.len() {
            let mut x = vec![0.0; cfg.hidden_dim];
            rng.fill_uniform(&mut x, 0.5);
            xs.push(x);
        }
        let (full_out, full_kv) = attention_forward_tree(
            &w,
            &cfg,
            &scale,
            BackendKind::Reference,
            &xs.concat(),
            &parents,
            &cache,
            &mut meter,
        );
        let mut scratch = TreeKv::default();
        let mut partial_out = Vec::new();
        for (first_new, count) in [(0usize, 1usize), (1, 2), (3, 2)] {
            let outs = attention_forward_tree_partial(
                &w,
                &cfg,
                &scale,
                BackendKind::Reference,
                &RopeFreqs::new(cfg.head_dim(), cfg.rope_theta),
                &xs[first_new..first_new + count].concat(),
                0,
                &parents[..first_new + count],
                first_new,
                &mut cache,
                &mut scratch,
                &mut meter,
            );
            partial_out.extend(outs);
        }
        assert_eq!(partial_out, full_out, "outputs must match bit for bit");
        assert_eq!(scratch, full_kv, "scratch K/V rows must match bit for bit");
    }

    #[test]
    fn child_sees_its_parent() {
        let (cfg, w, scale) = setup();
        let mut rng = Pcg::seed(14);
        let cache = KvCache::new(cfg.hidden_dim, KvLayout::Contiguous);
        let mut meter = Meter::new();
        let mut root = vec![0.0; cfg.hidden_dim];
        let mut child = vec![0.0; cfg.hidden_dim];
        rng.fill_uniform(&mut root, 0.5);
        rng.fill_uniform(&mut child, 0.5);

        // Child attending to parent differs from child attending to nothing
        // but itself (swap parentage to an unrelated root).
        let mut other_root = vec![0.0; cfg.hidden_dim];
        rng.fill_uniform(&mut other_root, 0.9);
        let (with_parent, _) = attention_forward_tree(
            &w,
            &cfg,
            &scale,
            BackendKind::Reference,
            &[root.clone(), child.clone()].concat(),
            &[None, Some(0)],
            &cache,
            &mut meter,
        );
        let (with_other, _) = attention_forward_tree(
            &w,
            &cfg,
            &scale,
            BackendKind::Reference,
            &[other_root, child.clone()].concat(),
            &[None, Some(0)],
            &cache,
            &mut meter,
        );
        let differs = with_parent[cfg.hidden_dim..]
            .iter()
            .zip(with_other[cfg.hidden_dim..].iter())
            .any(|(x, y)| (x - y).abs() > 1e-6);
        assert!(differs, "child output must depend on its ancestor");
    }
}
