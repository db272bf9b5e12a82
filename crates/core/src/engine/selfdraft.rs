//! Self-speculative draft/verify round helpers (Kangaroo-style split).
//!
//! The self-draft mode runs the *target's own* shallow layers
//! `0..exit_layer` as the draft model: each round grows a token tree level
//! by level through the shallow stack (expanding every frontier node with
//! the tied LM head on its exit-layer hidden state), then resumes the deep
//! layers `exit_layer..n_layers` over the whole tree in one masked sweep
//! for verification. The KV cache is split at the exit layer — shallow K/V
//! written during drafting is *committed, not recomputed* when nodes are
//! accepted, so each accepted token pays for each shallow layer exactly
//! once.
//!
//! Both [`crate::SpeculativeEngine`] (single sequence) and the batched
//! engine in `specee-batch` drive their rounds through these helpers, so
//! the two tiers stay in parity by construction: the batched engine runs
//! [`self_draft_pass`] per slot, sweeps the deep layers in lock-step, and
//! finishes each slot with [`verify_commit`]; the single engine's
//! [`deep_sweep`] is the batch-of-one special case.

use specee_draft::SelfDraftSpec;
use specee_metrics::Meter;
use specee_model::{LayeredLm, TokenId, TreeKv};
use specee_tensor::ops;

use crate::engine::decode::greedy_walk;

/// Output of one shallow draft pass: the speculated node batch (index 0 is
/// the pending bonus token; tree nodes follow, roots hanging off it), the
/// per-shallow-layer scratch K/V covering every node, and the exit-layer
/// hidden state per node that the verify pass resumes from.
#[derive(Debug, Clone)]
pub struct DraftPass {
    /// Token per node (index 0 = bonus).
    pub node_tokens: Vec<TokenId>,
    /// In-batch parent per node (`None` only for the bonus root).
    pub node_parents: Vec<Option<usize>>,
    /// Scratch K/V per shallow layer (`shallow_kvs[l]` covers all nodes at
    /// layer `l`), written incrementally while drafting.
    pub shallow_kvs: Vec<TreeKv>,
    /// Exit-layer hidden state per node.
    pub exit_hs: Vec<Vec<f32>>,
    /// Shallow (node × layer) runs this pass executed.
    pub shallow_calls: u64,
}

/// Runs the shallow draft pass for one round: seeds the tree with the
/// pending `bonus` token, then per level expands every frontier node with
/// the top-`b` tokens of the tied LM head read at the exit layer, feeding
/// only the *new* nodes through layers `0..exit_layer`
/// (`forward_layer_tree_partial` — already-drafted nodes are never
/// re-run; their K/V stays in the per-layer scratch).
pub fn self_draft_pass<M: LayeredLm + ?Sized>(
    model: &mut M,
    bonus: TokenId,
    spec: &SelfDraftSpec,
    meter: &mut Meter,
) -> DraftPass {
    let exit = spec.exit_layer;
    let mut node_tokens = vec![bonus];
    let mut node_parents: Vec<Option<usize>> = vec![None];
    let mut shallow_kvs: Vec<TreeKv> = vec![TreeKv::default(); exit];
    let mut shallow_calls = 0u64;

    // Node 0: the bonus token through the shallow stack.
    let mut new_hs = model.begin_tree(&node_tokens, &node_parents, meter);
    for (layer, scratch) in shallow_kvs.iter_mut().enumerate() {
        new_hs = model.forward_layer_tree_partial(layer, &new_hs, &node_parents, 0, scratch, meter);
    }
    shallow_calls += exit as u64;
    let mut exit_hs = new_hs;
    let mut frontier = vec![0usize];

    for &b in spec.shape.branching() {
        // Tied-head draft expansion: one batched LM-head read over the
        // frontier's exit-layer hiddens.
        let frontier_hs: Vec<Vec<f32>> = frontier.iter().map(|&i| exit_hs[i].clone()).collect();
        let logits = model.final_logits_batch(&frontier_hs, meter);
        let first_new = node_tokens.len();
        let mut new_tokens = Vec::with_capacity(frontier.len() * b);
        for (&parent, l) in frontier.iter().zip(&logits) {
            for &t in ops::top_k(l, b).iter() {
                new_tokens.push(t as TokenId);
                node_parents.push(Some(parent));
            }
        }
        node_tokens.extend_from_slice(&new_tokens);

        let mut hs = model.extend_tree(&new_tokens, &node_parents, first_new, meter);
        for (layer, scratch) in shallow_kvs.iter_mut().enumerate() {
            hs = model.forward_layer_tree_partial(
                layer,
                &hs,
                &node_parents,
                first_new,
                scratch,
                meter,
            );
        }
        shallow_calls += (new_tokens.len() * exit) as u64;
        exit_hs.extend(hs);
        frontier = (first_new..first_new + new_tokens.len()).collect();
    }

    DraftPass {
        node_tokens,
        node_parents,
        shallow_kvs,
        exit_hs,
        shallow_calls,
    }
}

/// Resumes the deep layers `exit_layer..n_layers` over the whole drafted
/// tree in full masked sweeps (the batch-of-one verify pass); returns the
/// final hidden states and the deep scratch K/V per layer.
pub fn deep_sweep<M: LayeredLm + ?Sized>(
    model: &mut M,
    pass: &DraftPass,
    exit_layer: usize,
    meter: &mut Meter,
) -> (Vec<Vec<f32>>, Vec<TreeKv>) {
    let n_layers = model.config().n_layers;
    let mut hs = pass.exit_hs.clone();
    let mut deep_kvs = Vec::with_capacity(n_layers - exit_layer);
    for layer in exit_layer..n_layers {
        let (out, kv) = model.forward_layer_tree(layer, &hs, &pass.node_parents, meter);
        hs = out;
        deep_kvs.push(kv);
    }
    (hs, deep_kvs)
}

/// Outcome of one verified self-draft round.
#[derive(Debug, Clone)]
pub struct RoundOutcome {
    /// Emitted `(token, cross-entropy)` pairs, in order.
    pub emitted: Vec<(TokenId, f64)>,
    /// The next round's bonus token (first rejected position's greedy fix,
    /// or the continuation past a fully accepted path).
    pub next_bonus: TokenId,
    /// Nodes accepted into the context (≥ 1: the bonus always commits).
    pub accepted_len: usize,
    /// Total nodes verified this round.
    pub n_nodes: usize,
}

/// Verifies the drafted tree against the deep final hidden states and
/// commits the accepted path's K/V: ONE batched LM-head GEMM over all
/// nodes, a greedy walk from the bonus node accepting the longest matching
/// path, then the split commit — shallow layers from the draft-pass
/// scratch (never recomputed), deep layers from the verify sweep. Rejected
/// branches' scratch rows are simply dropped; nothing of them reaches the
/// model's cache or pool.
pub fn verify_commit<M: LayeredLm + ?Sized>(
    model: &mut M,
    pass: &DraftPass,
    final_hs: &[Vec<f32>],
    deep_kvs: &[TreeKv],
    meter: &mut Meter,
) -> RoundOutcome {
    let node_logits = model.final_logits_batch(final_hs, meter);
    let walk = greedy_walk(&node_logits, &pass.node_tokens, &pass.node_parents, |_| {
        true
    });
    let accepted = &walk.accepted;

    // Split commit: layer 0 first (the synthetic model's tree scripts are
    // keyed there), shallow from draft scratch, deep from the verify kvs.
    for (layer, kv) in pass.shallow_kvs.iter().enumerate() {
        model.commit_tree_kv(layer, kv, accepted);
    }
    for (off, kv) in deep_kvs.iter().enumerate() {
        model.commit_tree_kv(pass.shallow_kvs.len() + off, kv, accepted);
    }
    let accepted_tokens: Vec<TokenId> = accepted.iter().map(|&i| pass.node_tokens[i]).collect();
    model.accept_tokens(&accepted_tokens);

    RoundOutcome {
        accepted_len: accepted.len(),
        emitted: walk.emitted,
        next_bonus: walk.next_bonus,
        n_nodes: pass.node_tokens.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specee_draft::TreeShape;
    use specee_model::{prefill, ModelConfig, Transformer};
    use specee_tensor::rng::Pcg;

    fn model() -> Transformer {
        Transformer::random(
            ModelConfig {
                n_layers: 4,
                vocab_size: 64,
                ..ModelConfig::tiny()
            },
            &mut Pcg::seed(11),
        )
    }

    #[test]
    fn draft_pass_builds_shape_plus_bonus() {
        let mut m = model();
        let mut meter = Meter::new();
        let _ = prefill(&mut m, &[1, 2, 3], &mut meter);
        let spec = SelfDraftSpec::new(2, TreeShape::new(vec![2, 2]));
        let pass = self_draft_pass(&mut m, 5, &spec, &mut meter);
        // bonus + 2 roots + 4 children
        assert_eq!(pass.node_tokens.len(), 7);
        assert_eq!(pass.node_parents[0], None);
        assert_eq!(pass.exit_hs.len(), 7);
        assert_eq!(pass.shallow_kvs.len(), 2);
        for kv in &pass.shallow_kvs {
            assert_eq!(kv.len(), 7, "scratch covers every node per layer");
        }
        assert_eq!(pass.shallow_calls, 7 * 2);
        // Parents are well-formed: roots hang off the bonus.
        for (j, p) in pass.node_parents.iter().enumerate().skip(1) {
            assert!(p.expect("non-root") < j);
        }
    }

    #[test]
    fn accepted_tokens_commit_without_a_second_shallow_pass() {
        // KV-split invariant at the round level: after verify_commit, the
        // model's committed cache grew by accepted_len at EVERY layer, and
        // the shallow rows are bit-identical to the draft-pass scratch —
        // proof they were committed, not recomputed (a recompute would have
        // attended over a longer cache and produced different rows).
        let mut m = model();
        let mut meter = Meter::new();
        let _ = prefill(&mut m, &[1, 2, 3], &mut meter);
        let base = m.kv_len();
        let spec = SelfDraftSpec::new(2, TreeShape::chain(3));
        let pass = self_draft_pass(&mut m, 5, &spec, &mut meter);
        let (final_hs, deep_kvs) = deep_sweep(&mut m, &pass, 2, &mut meter);
        let out = verify_commit(&mut m, &pass, &final_hs, &deep_kvs, &mut meter);
        assert!(out.accepted_len >= 1);
        assert_eq!(out.n_nodes, 4);
        assert_eq!(m.kv_len(), base + out.accepted_len);
        // Every layer's cache holds exactly the committed positions:
        // rejected nodes left no residue anywhere.
        for layer in 0..4 {
            assert_eq!(m.cache(layer).len(), base + out.accepted_len);
        }
        // Shallow rows in the cache are the draft-pass scratch rows, bit
        // for bit — committed, not recomputed (a recompute would attend
        // over a longer cache and produce different rows).
        for layer in 0..2 {
            assert_eq!(
                m.cache(layer).key(base),
                pass.shallow_kvs[layer].k[0].as_slice()
            );
            assert_eq!(
                m.cache(layer).value(base),
                pass.shallow_kvs[layer].v[0].as_slice()
            );
        }
    }

    #[test]
    fn emitted_stream_is_greedy_continuation() {
        // Chain-shaped self-draft emits exactly the greedy stream: run one
        // round, then check each emitted token against a fresh greedy
        // reference.
        let prompt = [1u32, 2, 3];
        let mut m = model();
        let mut meter = Meter::new();
        let h = prefill(&mut m, &prompt, &mut meter);
        let logits = m.final_logits(&h, &mut meter);
        let bonus = ops::argmax(&logits).expect("logits") as TokenId;
        let spec = SelfDraftSpec::new(2, TreeShape::chain(3));
        let pass = self_draft_pass(&mut m, bonus, &spec, &mut meter);
        let (final_hs, deep_kvs) = deep_sweep(&mut m, &pass, 2, &mut meter);
        let out = verify_commit(&mut m, &pass, &final_hs, &deep_kvs, &mut meter);

        // Greedy reference: token-by-token decode on a fresh model.
        let mut r = model();
        let mut ctx: Vec<TokenId> = prompt.to_vec();
        ctx.push(bonus);
        let mut scratch = Meter::new();
        let mut hh = prefill(&mut r, &ctx, &mut scratch);
        for &(tok, _) in &out.emitted {
            let l = r.final_logits(&hh, &mut scratch);
            let want = ops::argmax(&l).expect("logits") as TokenId;
            assert_eq!(tok, want, "self-draft must emit the greedy stream");
            let pos = r.kv_len();
            let mut h2 = r.begin_token(want, &mut scratch);
            for layer in 0..4 {
                h2 = r.forward_layer(layer, &h2, pos, &mut scratch);
            }
            hh = h2;
        }
    }
}
