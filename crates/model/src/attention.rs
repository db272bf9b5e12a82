//! Multi-head self-attention with KV cache, including tree-masked
//! attention for speculative-decoding verification.

use specee_metrics::Meter;
use specee_tensor::matrix::dot;
use specee_tensor::{ops, BackendKind};

use crate::config::ModelConfig;
use crate::kv::KvCache;
use crate::metering::OpScale;
use crate::rope::RopeFreqs;
use crate::weights::LayerWeights;

/// Per-node key/value rows produced by one tree-attention pass, kept aside
/// until verification decides which path to commit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TreeKv {
    /// One key row per tree node.
    pub k: Vec<Vec<f32>>,
    /// One value row per tree node.
    pub v: Vec<Vec<f32>>,
}

impl TreeKv {
    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.k.len()
    }

    /// Whether the scratch is empty.
    pub fn is_empty(&self) -> bool {
        self.k.is_empty()
    }
}

/// Number of `dim`-wide rows packed in `xs`.
fn packed_rows(xs: &[f32], dim: usize) -> usize {
    assert_eq!(xs.len() % dim, 0, "inputs must be whole hidden rows");
    xs.len() / dim
}

/// The `(key, value)` rows one query sees, in attention order: the
/// committed cache, then the `chain` (root → node) out of the tree scratch.
fn visible_rows<'a>(
    cache: &'a KvCache,
    tree: &'a TreeKv,
    chain: &'a [usize],
) -> impl Iterator<Item = (&'a [f32], &'a [f32])> + Clone {
    let committed = (0..cache.len()).map(move |p| (cache.key(p), cache.value(p)));
    let drafted = chain
        .iter()
        .map(move |&n| (tree.k[n].as_slice(), tree.v[n].as_slice()));
    committed.chain(drafted)
}

/// Softmax attention of one query over `rows`, head by head, accumulated
/// into `merged` (zeroed by the caller); `scores` is reused scratch.
fn attend<'a>(
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

/// `rows` consecutive rows of a packed batch: positions `base..` of the
/// sequence that owns `cache`. A prompt span is one seat of many rows; a
/// decode group is one single-row seat per member.
pub(crate) struct Seat<'a> {
    pub(crate) cache: &'a mut KvCache,
    pub(crate) base: usize,
    pub(crate) rows: usize,
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
    }];
    attention_forward_rows(w, cfg, scale, backend, &rope, x, &mut seat, meter)
}

/// Causal attention over the rows of `xs` (normalized hidden states packed
/// row-major), dealt to `seats` in order: one weight pass each for the
/// q/k/v and output projections of the whole batch, while each row is
/// rotated to its own position, appends its K/V to its own seat's cache and
/// attends over that cache up to itself — no sum mixes two rows, so every
/// output, cache row and [`Meter`] record equals feeding the rows through
/// [`attention_forward`] one at a time. Returns the outputs packed like
/// `xs`.
///
/// # Panics
///
/// Panics if a seat's `base` is not its cache length, or the seats do not
/// cover exactly the `hidden_dim`-wide rows of `xs`.
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
    let n = packed_rows(xs, dim);
    let seated: usize = seats.iter().map(|s| s.rows).sum();
    assert_eq!(seated, n, "seats must cover every row");
    let mut qs = w.wq.matmul_with(backend, xs, n);
    let mut ks = w.wk.matmul_with(backend, xs, n);
    let vs = w.wv.matmul_with(backend, xs, n);
    let mut merged = vec![0.0f32; n * dim];
    let (no_tree, mut scores) = (TreeKv::default(), Vec::new());
    let mut rows = qs
        .chunks_exact_mut(dim)
        .zip(ks.chunks_exact_mut(dim))
        .zip(vs.chunks_exact(dim))
        .zip(merged.chunks_exact_mut(dim));
    for seat in seats {
        let cache = &mut *seat.cache;
        assert_eq!(seat.base, cache.len(), "positions must be sequential");
        for (((q, k), v), out) in rows.by_ref().take(seat.rows) {
            rope.rotate_qk(q, k, cache.len(), cfg.n_heads);
            cache.push(k, v);
            let visible = visible_rows(cache, &no_tree, &[]);
            attend(q, visible, cfg.head_dim(), &mut scores, out);
            scale.record_attention(meter, cache.len());
        }
    }
    w.wo.matmul_with(backend, &merged, n)
}

/// Tree-masked attention over a batch of draft nodes (normalized hidden
/// states packed row-major in `xs`).
///
/// Each node attends to the committed cache plus its own ancestor chain
/// within the batch (never to siblings) — the tree attention mask of
/// speculative decoding. Node positions are `cache.len() + depth`.
///
/// Returns the packed per-node outputs and the scratch K/V rows; the
/// engine commits the accepted path's rows via [`KvCache::push`]
/// afterwards. This is [`attention_forward_tree_partial`] with every node
/// new.
///
/// # Panics
///
/// Panics if a parent index is not smaller than its child's index
/// (nodes must be supplied in topological order).
#[allow(clippy::too_many_arguments)]
pub fn attention_forward_tree(
    w: &LayerWeights,
    cfg: &ModelConfig,
    scale: &OpScale,
    backend: BackendKind,
    xs: &[f32],
    parents: &[Option<usize>],
    cache: &KvCache,
    meter: &mut Meter,
) -> (Vec<f32>, TreeKv) {
    let mut tree_kv = TreeKv::default();
    let outs = attention_forward_tree_partial(
        w,
        cfg,
        scale,
        backend,
        &RopeFreqs::new(cfg.head_dim(), cfg.rope_theta),
        xs,
        parents,
        0,
        cache,
        &mut tree_kv,
        meter,
    );
    (outs, tree_kv)
}

/// Incremental tree-masked attention: runs only the nodes at indices
/// `first_new..` of a growing draft tree (normalized hidden states packed
/// row-major in `new_xs`), reading ancestor K/V rows from `scratch` (which
/// must already hold rows for nodes `0..first_new`) and appending the new
/// nodes' rows to it.
///
/// This is the kernel behind self-speculative drafting: the shallow draft
/// pass grows the token tree level by level, and each level only pays for
/// its frontier. The q/k/v and output projections take one weight pass
/// each for all new nodes; attention itself runs per node, keys gathered
/// committed cache first, then the ancestor chain root→node, at RoPE
/// position `cache.len() + depth` — which depends on the node alone, so
/// running a tree through repeated partial calls is bit-identical to one
/// full sweep.
///
/// # Panics
///
/// Panics if `scratch` does not hold exactly `first_new` rows, if
/// `parents` and `new_xs` do not cover the same new nodes, or if a parent
/// index does not precede its child.
#[allow(clippy::too_many_arguments)]
pub fn attention_forward_tree_partial(
    w: &LayerWeights,
    cfg: &ModelConfig,
    scale: &OpScale,
    backend: BackendKind,
    rope: &RopeFreqs,
    new_xs: &[f32],
    parents: &[Option<usize>],
    first_new: usize,
    cache: &KvCache,
    scratch: &mut TreeKv,
    meter: &mut Meter,
) -> Vec<f32> {
    assert_eq!(
        scratch.len(),
        first_new,
        "scratch must hold exactly the rows of the already-drafted nodes"
    );
    let dim = cfg.hidden_dim;
    let n = packed_rows(new_xs, dim);
    assert_eq!(
        parents.len(),
        first_new + n,
        "parents must cover old and new nodes"
    );
    let base = cache.len();
    let depths = depths_from_parents(parents);

    let mut qs = w.wq.matmul_with(backend, new_xs, n);
    let mut ks = w.wk.matmul_with(backend, new_xs, n);
    let vs = w.wv.matmul_with(backend, new_xs, n);
    let rows = qs
        .chunks_exact_mut(dim)
        .zip(ks.chunks_exact_mut(dim))
        .zip(vs.chunks_exact(dim));
    for (((q, k), v), depth) in rows.zip(&depths[first_new..]) {
        rope.rotate_qk(q, k, base + depth, cfg.n_heads);
        scratch.k.push(k.to_vec());
        scratch.v.push(v.to_vec());
    }

    let mut merged = vec![0.0f32; n * dim];
    let (mut chain, mut scores) = (Vec::new(), Vec::new());
    let mut kv_lens = Vec::with_capacity(n);
    let nodes = qs.chunks_exact(dim).zip(merged.chunks_exact_mut(dim));
    for (j, (q, out)) in nodes.enumerate() {
        // Ancestor chain root → node (`depths_from_parents` checked the
        // topological order).
        chain.clear();
        let mut cur = Some(first_new + j);
        while let Some(node) = cur {
            chain.push(node);
            cur = parents[node];
        }
        chain.reverse();
        let visible = visible_rows(cache, scratch, &chain);
        attend(q, visible, cfg.head_dim(), &mut scores, out);
        kv_lens.push(base + chain.len());
    }
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
        assert_eq!(tree_kv.k[0], cache.key(2));
        assert_eq!(tree_kv.v[0], cache.value(2));
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
                &parents[..first_new + count],
                first_new,
                &cache,
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
