//! Tree rounds: one draft/verify round for every tree decoder.
//!
//! A round's tree is a [`DraftPass`] (node 0 the pending bonus token, the
//! drafted nodes after it) holding the layers run so far; the draft source
//! only decides how deep it starts. [`DraftPass::from_tree`] takes a
//! separate draft's [`TokenTree`] (EAGLE, T3) with no layer run;
//! [`self_draft_pass`] drafts *self-speculatively* (Kangaroo-style split):
//! the target's own shallow layers `0..exit_layer` are the draft model, the
//! tree growing level by level through them (every frontier node expanded
//! by the tied LM head on its exit-layer hidden state).
//!
//! Then [`sweep_trees`] runs every seat's pass through the layers it has
//! not run, in lock-step, with T3's hyper-token exit check after each layer
//! when given a predictor bank, and `verify_commit` finishes each tree: the
//! greedy verify walk unless an exit's walk stood, the split commit — rows
//! run while drafting are *committed, not recomputed*, so an accepted token
//! pays for each layer once —, the K/V an exit skipped, and the
//! [`crate::engine::Round`]. [`crate::SpeculativeEngine`] sweeps one seat,
//! `specee-batch` every seated sequence: parity by construction.

use specee_draft::{SelfDraftSpec, TokenTree};
use specee_metrics::Meter;
use specee_model::{LayeredLm, SkipKvPolicy, TokenId, TreeKv};
use specee_tensor::ops;

use crate::engine::decode::{greedy_walk, verify_head, Round, Walk};
use crate::features::FeatureTracker;
use crate::mapping::TreeExitState;
use crate::predictor::PredictorBank;
use crate::scheduler::ScheduleEngine;
use crate::verify::verify_exit;

/// One round's draft tree (index 0 is the pending bonus token; tree nodes
/// follow, roots hanging off it), as deep as it has run: the shallow draft
/// pass, if any, then the layers of the sweep.
#[derive(Debug, Default)]
pub struct DraftPass {
    /// Token per node (index 0 = bonus).
    pub node_tokens: Vec<TokenId>,
    /// In-batch parent per node (`None` only for the bonus root).
    pub node_parents: Vec<Option<usize>>,
    /// Scratch K/V per layer run (`kvs[l]` covers all nodes at layer
    /// `l`): the shallow layers, written incrementally while drafting,
    /// then the layers of the sweep.
    pub kvs: Vec<TreeKv>,
    /// Hidden state per node after the last layer run.
    pub hs: Vec<Vec<f32>>,
    /// Shallow (node × layer) runs the self-draft pass executed.
    pub shallow_calls: u64,
    /// The separate draft's top-K continuations of each node's path: the
    /// candidate set T3 scores and verifies the node against.
    cands: Vec<Vec<TokenId>>,
    /// Predictor forwards T3's exit checks ran.
    pub(crate) predictor_calls: u64,
    /// LM-head verifications: T3's trial walks and the full-depth one.
    pub(crate) verify_calls: u64,
    /// T3's sticky fires and per-node feature history, from its first
    /// exit check on.
    hyper: Option<(TreeExitState, Vec<FeatureTracker>)>,
    /// The walk of a T3 exit that stood: the round's verification, paid.
    exit_walk: Option<Walk>,
}

impl DraftPass {
    /// The pass of a separately drafted `tree` behind the pending `bonus`
    /// token: node 0 is the bonus, the tree's nodes follow shifted by one,
    /// its roots hanging off the bonus. `cands(path, meter)` is a node's
    /// candidate set, asked in node order with the node's path from the
    /// bonus. No layer has run; the nodes are embedded.
    pub fn from_tree<M: LayeredLm + ?Sized>(
        model: &mut M,
        bonus: TokenId,
        tree: &TokenTree,
        mut cands: impl FnMut(&[TokenId], &mut Meter) -> Vec<TokenId>,
        meter: &mut Meter,
    ) -> DraftPass {
        let mut node_tokens = vec![bonus];
        let mut node_parents: Vec<Option<usize>> = vec![None];
        for n in tree.nodes() {
            node_tokens.push(n.token);
            node_parents.push(Some(n.parent.map_or(0, |p| p + 1)));
        }
        // Parents precede children, so a node's path extends its parent's.
        let mut paths: Vec<Vec<TokenId>> = Vec::with_capacity(node_tokens.len());
        for (&token, parent) in node_tokens.iter().zip(&node_parents) {
            let mut path = parent.map_or_else(Vec::new, |p| paths[p].clone());
            path.push(token);
            paths.push(path);
        }
        let cands = paths.iter().map(|path| cands(path, meter)).collect();
        let hs = model.begin_tree(&node_tokens, &node_parents, meter);
        DraftPass {
            node_tokens,
            node_parents,
            hs,
            cands,
            ..DraftPass::default()
        }
    }

    /// T3's exit check after `layer`: ONE grouped GEMM over every
    /// pending node's candidate slice (Fig. 13), ONE batched predictor
    /// kernel, sticky fires; then, once some hyper-token is
    /// predictor-ready, the verification of §4.3.3 over the whole batch.
    /// Its walk trusts only nodes whose predictor fired and whose logits
    /// verify — an unfired node's logits may not have stabilized, and its
    /// head row is never computed. The exit stands only when the chain
    /// that WOULD be accepted consists entirely of such nodes and ends
    /// naturally (a draft miss, not a cut): the Cannikin position of the
    /// real accepted hyper-token, not of an arbitrary ready path.
    fn check_exit<M: LayeredLm + ?Sized>(
        &mut self,
        model: &mut M,
        bank: &PredictorBank,
        layer: usize,
        meter: &mut Meter,
    ) -> Option<Walk> {
        let (state, trackers) = self.hyper.get_or_insert_with(|| {
            let trackers = vec![FeatureTracker::new(); self.node_tokens.len()];
            (TreeExitState::new(&self.node_parents), trackers)
        });
        let pending = state.pending();
        if pending.is_empty() {
            return None;
        }
        let hs: Vec<&[f32]> = pending.iter().map(|&i| self.hs[i].as_slice()).collect();
        let cands: Vec<&[TokenId]> = pending.iter().map(|&i| self.cands[i].as_slice()).collect();
        let logits_per_node = model.grouped_slice_logits(&hs, &cands, meter);
        let feats: Vec<_> = pending
            .iter()
            .zip(logits_per_node)
            .map(|(&i, logits)| trackers[i].update(logits))
            .collect();
        self.predictor_calls += pending.len() as u64;
        let scores = bank.layer(layer).score_batch(&feats, meter);
        let threshold = bank.layer(layer).threshold();
        for (&i, score) in pending.iter().zip(scores) {
            if score > threshold {
                state.note_fired(i, layer);
            }
        }
        if !state.any_path_ready() {
            return None;
        }
        self.verify_calls += 1;
        let mut head = verify_head(model, &self.hs, |j| state.fired(j), meter);
        let walk = greedy_walk(&self.node_tokens, &self.node_parents, |j| {
            head(j).filter(|full| verify_exit(full, &self.cands[j]).is_some())
        });
        walk.filter(|walk| !walk.cut)
    }
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
        kvs: shallow_kvs,
        hs: exit_hs,
        shallow_calls,
        ..DraftPass::default()
    }
}

/// Runs every seat's tree, in lock-step, through the layers its pass has
/// not run, then finishes each one (`verify_commit`) and returns their
/// rounds in seat order.
///
/// Per layer: every pass still in the sweep that has run all the layers
/// below this one runs it, under its own tree attention mask — a
/// self-draft pass joins at its exit layer. With `exit`, T3's predictor
/// bank (one predictor per non-final layer) and schedule, each of those
/// passes then makes its exit check ([`DraftPass`]'s `check_exit`) at a
/// scheduled layer, and leaves the sweep when its exit stands. `policy`
/// fills the K/V of the layers an exit skipped.
pub fn sweep_trees<M: LayeredLm>(
    mut seats: Vec<(&mut M, &mut DraftPass)>,
    exit: Option<(&PredictorBank, &ScheduleEngine)>,
    policy: SkipKvPolicy,
    meter: &mut Meter,
) -> Vec<Round> {
    let n_layers = seats.first().map_or(0, |s| s.0.config().n_layers);
    let at = |pass: &DraftPass, depth| pass.exit_walk.is_none() && pass.kvs.len() == depth;
    for layer in 0..n_layers {
        for (model, pass) in seats.iter_mut().filter(|(_, pass)| at(pass, layer)) {
            let (out, kv) = model.forward_layer_tree(layer, &pass.hs, &pass.node_parents, meter);
            pass.hs = out;
            pass.kvs.push(kv);
        }
        let Some((bank, schedule)) = exit else {
            continue;
        };
        if layer + 1 >= n_layers || !schedule.is_active(layer) {
            continue;
        }
        for (model, pass) in seats.iter_mut().filter(|(_, pass)| at(pass, layer + 1)) {
            pass.exit_walk = pass.check_exit(&mut **model, bank, layer, meter);
        }
    }
    seats
        .into_iter()
        .map(|(model, pass)| verify_commit(model, pass, policy, meter))
        .collect()
}

/// Finishes a swept round: verifies the tree, commits the accepted path's
/// K/V and feeds its tokens to the model. An exit's walk is the round's
/// verification, already paid for; a full-depth tree is verified here by
/// a greedy walk from the bonus node that accepts the longest matching
/// path, computing the LM head only on the rows it reads — priced as ONE
/// batched head over all nodes (how EAGLE verifies a tree). Then the split
/// commit, layer 0 first (the synthetic model's tree scripts are keyed
/// there): each layer's rows from the pass's scratch, the drafting pass's
/// shallow rows included (never recomputed). Rejected branches' scratch
/// rows are simply dropped; nothing of them reaches the model's cache or
/// pool. After an exit, each accepted node's skipped layers are filled
/// from its exit-layer state under `policy`.
fn verify_commit<M: LayeredLm + ?Sized>(
    model: &mut M,
    pass: &mut DraftPass,
    policy: SkipKvPolicy,
    meter: &mut Meter,
) -> Round {
    let n_layers = model.config().n_layers;
    let executed = pass.kvs.len();
    let walk = pass.exit_walk.take().unwrap_or_else(|| {
        assert_eq!(executed, n_layers, "a tree is verified at full depth");
        pass.verify_calls += 1;
        let head = verify_head(model, &pass.hs, |_| true, meter);
        greedy_walk(&pass.node_tokens, &pass.node_parents, head)
            .expect("a walk that trusts every node stands on its root")
    });
    let base_kv = model.kv_len();
    for (layer, kv) in pass.kvs.iter().enumerate() {
        model.commit_tree_kv(layer, kv, &walk.accepted);
    }
    if executed < n_layers {
        for (ord, &idx) in walk.accepted.iter().enumerate() {
            model.fill_skipped_kv(executed, &pass.hs[idx], base_kv + ord, policy, meter);
        }
    }
    let accepted: Vec<TokenId> = walk.accepted.iter().map(|&i| pass.node_tokens[i]).collect();
    model.accept_tokens(&accepted);
    Round {
        emitted: walk.emitted,
        executed,
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

    /// One seat's round through [`sweep_trees`], with no exit check.
    fn sweep_one(m: &mut Transformer, pass: &mut DraftPass, meter: &mut Meter) -> Round {
        let policy = SkipKvPolicy::ProjectExitHidden;
        let mut rounds = sweep_trees(vec![(m, pass)], None, policy, meter);
        rounds.pop().expect("one round")
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
        assert_eq!(pass.hs.len(), 7);
        assert_eq!(pass.kvs.len(), 2);
        for kv in &pass.kvs {
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
        // KV-split invariant at the round level: after the round, the
        // model's committed cache grew by the accepted length at EVERY
        // layer, and
        // the shallow rows are bit-identical to the draft-pass scratch —
        // proof they were committed, not recomputed (a recompute would have
        // attended over a longer cache and produced different rows).
        let mut m = model();
        let mut meter = Meter::new();
        let _ = prefill(&mut m, &[1, 2, 3], &mut meter);
        let base = m.kv_len();
        let spec = SelfDraftSpec::new(2, TreeShape::chain(3));
        let mut pass = self_draft_pass(&mut m, 5, &spec, &mut meter);
        let out = sweep_one(&mut m, &mut pass, &mut meter);
        let accepted = out.emitted.len();
        assert!(accepted >= 1);
        assert_eq!((pass.node_tokens.len(), pass.kvs.len()), (4, 4));
        assert_eq!(m.kv_len(), base + accepted);
        // Every layer's cache holds exactly the committed positions:
        // rejected nodes left no residue anywhere.
        for layer in 0..4 {
            assert_eq!(m.cache(layer).len(), base + accepted);
        }
        // Shallow rows in the cache are the draft-pass scratch rows, bit
        // for bit — committed, not recomputed (a recompute would attend
        // over a longer cache and produce different rows).
        for layer in 0..2 {
            assert_eq!(m.cache(layer).key(base), pass.kvs[layer].key(0));
            assert_eq!(m.cache(layer).value(base), pass.kvs[layer].value(0));
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
        let mut pass = self_draft_pass(&mut m, bonus, &spec, &mut meter);
        let out = sweep_one(&mut m, &mut pass, &mut meter);

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
