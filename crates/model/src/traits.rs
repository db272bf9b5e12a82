//! The [`LayeredLm`] abstraction: per-layer stepping for early exit.
//!
//! SpecEE interleaves decoder layers with predictor calls (Fig. 3), so the
//! engine cannot treat the model as a black-box `forward()`. `LayeredLm`
//! exposes exactly the control points the engine needs: embed a token, run
//! one layer — for one sequence, a group of sequences at their own
//! positions, or a draft-token tree — read full or sliced logits, and fill
//! the KV cache of skipped layers after an exit (the full head and the
//! fill for one sequence or for a group). A prompt goes through
//! [`LayeredLm::prefill`]; the part of it a resident sequence has already
//! prefilled can be taken over with [`LayeredLm::adopt_prefix`] instead,
//! which copies only where the copy provably equals the computation.
//!
//! Both the real [`crate::Transformer`] and the calibrated synthetic model
//! in `specee-synth` implement this trait, so every engine runs unchanged
//! on either substrate.

use specee_metrics::Meter;
use specee_tensor::BackendKind;

use crate::attention::TreeKv;
use crate::config::{ModelConfig, TokenId};
use crate::kv::SkipKvPolicy;

/// A decoder-only LM that can be stepped one layer at a time.
pub trait LayeredLm {
    /// Model configuration (executed dims + cost twin).
    fn config(&self) -> &ModelConfig;

    /// Selects the compute backend for subsequent forwards. Models whose
    /// arithmetic is not expressed through `specee-tensor` mat-vecs (e.g.
    /// the calibrated synthetic model) may ignore the request; callers can
    /// check [`LayeredLm::backend`] to see what is in effect.
    fn set_backend(&mut self, _backend: BackendKind) {}

    /// The compute backend in effect (the [`BackendKind`] default unless
    /// the implementation routes mat-vecs through a backend).
    fn backend(&self) -> BackendKind {
        BackendKind::default()
    }

    /// Clears all sequence state (KV caches, context bookkeeping).
    fn reset(&mut self);

    /// Notes `token` as the next committed context token and returns its
    /// embedding. Position bookkeeping is internal: tokens must be fed
    /// strictly in order.
    fn begin_token(&mut self, token: TokenId, meter: &mut Meter) -> Vec<f32>;

    /// Runs decoder layer `layer` on hidden state `h` at position `pos`,
    /// appending this layer's K/V for the position.
    fn forward_layer(&mut self, layer: usize, h: &[f32], pos: usize, meter: &mut Meter)
        -> Vec<f32>;

    /// Runs decoder layer `layer` for a group of sequences in one call
    /// (what `specee-batch`'s `BatchedEngine::step` makes with the seats
    /// still in its layer sweep): member `i` takes `hs[i]` at its own `positions[i]` and
    /// appends to its own K/V; outputs come back in member order.
    ///
    /// This default — [`LayeredLm::forward_layer`] member by member, one
    /// weight stream each — is the reference: implementations whose
    /// members share weights override it to stream them once per group,
    /// and must stay bit-identical to it (hidden states, K/V rows, every
    /// [`Meter`] total), which holds while no sum mixes two members and
    /// each [`specee_metrics::OpKind`] is recorded in member order.
    fn forward_layer_group(
        group: &mut [&mut Self],
        layer: usize,
        hs: &[&[f32]],
        positions: &[usize],
        meter: &mut Meter,
    ) -> Vec<Vec<f32>>
    where
        Self: Sized,
    {
        (0..group.len())
            .map(|i| group[i].forward_layer(layer, hs[i], positions[i], meter))
            .collect()
    }

    /// Runs `prompt` through every layer, committing K/V for each prompt
    /// position after the [`LayeredLm::kv_len`] positions already cached,
    /// and returns the final hidden state of the last prompt token.
    ///
    /// This default walks token-major — one position through all layers,
    /// then the next — and so streams every layer's weights once per
    /// prompt token. It is the reference: implementations override it to
    /// walk layer-major (every position through layer *l* before layer
    /// *l*+1, one weight stream per prompt) and must stay bit-identical
    /// to it, which causal attention allows — a position reads only
    /// earlier positions of the same layer.
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty.
    fn prefill(&mut self, prompt: &[TokenId], meter: &mut Meter) -> Vec<f32> {
        assert!(!prompt.is_empty(), "prompt must be non-empty");
        let n_layers = self.config().n_layers;
        let base = self.kv_len();
        let mut last_hidden = Vec::new();
        for (i, &tok) in prompt.iter().enumerate() {
            let mut h = self.begin_token(tok, meter);
            for layer in 0..n_layers {
                h = self.forward_layer(layer, &h, base + i, meter);
            }
            last_hidden = h;
        }
        last_hidden
    }

    /// Leaves `self` exactly as [`LayeredLm::prefill`] of `tokens` would —
    /// K/V rows, position and any per-sequence stream — by copying from
    /// `donor`, which committed the same tokens at the same positions at
    /// full depth (prompt positions always are). Returns `false`, having
    /// touched nothing, whenever the copy could differ from the
    /// computation; the caller then prefills as if it had not asked.
    /// Nothing is metered: admission prices a prompt from its length.
    ///
    /// This default never adopts. An implementation overrides it only with
    /// conditions it can observe on the two instances — one weight
    /// allocation, one backend, no recording tap, an empty `self`, streams
    /// standing where the donor's stood when it began.
    fn adopt_prefix(&mut self, _donor: &Self, _tokens: &[TokenId]) -> bool
    where
        Self: Sized,
    {
        false
    }

    /// Embeds a batch of draft-tree tokens (`parents[i]` is the in-batch
    /// parent index, `None` for tree roots hanging off the committed
    /// context).
    fn begin_tree(
        &mut self,
        tokens: &[TokenId],
        parents: &[Option<usize>],
        meter: &mut Meter,
    ) -> Vec<Vec<f32>>;

    /// Runs decoder layer `layer` over the whole draft tree with a tree
    /// attention mask; returns per-node outputs and the scratch K/V that
    /// [`LayeredLm::commit_tree_kv`] can later commit.
    fn forward_layer_tree(
        &mut self,
        layer: usize,
        hs: &[Vec<f32>],
        parents: &[Option<usize>],
        meter: &mut Meter,
    ) -> (Vec<Vec<f32>>, TreeKv);

    /// Embeds the nodes appended at indices `first_new..` of a growing
    /// draft tree (`parents` covers old and new nodes) and returns their
    /// embeddings. Together with
    /// [`LayeredLm::forward_layer_tree_partial`] this is the incremental
    /// half of the tree API: the self-draft pass grows the tree level by
    /// level without re-running already-drafted nodes.
    ///
    /// Calling `begin_tree` starts a fresh tree; `extend_tree` continues
    /// the most recently begun one.
    fn extend_tree(
        &mut self,
        tokens: &[TokenId],
        parents: &[Option<usize>],
        first_new: usize,
        meter: &mut Meter,
    ) -> Vec<Vec<f32>>;

    /// Runs decoder layer `layer` over only the nodes `first_new..` of a
    /// growing draft tree, reading ancestor K/V from `scratch` (which
    /// must hold rows for nodes `0..first_new`) and appending the new
    /// nodes' rows to it. Key order and RoPE positions match
    /// [`LayeredLm::forward_layer_tree`], so repeated partial calls over
    /// a growing tree are bit-identical to one full sweep.
    fn forward_layer_tree_partial(
        &mut self,
        layer: usize,
        new_hs: &[Vec<f32>],
        parents: &[Option<usize>],
        first_new: usize,
        scratch: &mut TreeKv,
        meter: &mut Meter,
    ) -> Vec<Vec<f32>>;

    /// Commits the K/V rows of the accepted node indices (in path order)
    /// into layer `layer`'s cache.
    fn commit_tree_kv(&mut self, layer: usize, kv: &TreeKv, accepted: &[usize]);

    /// Notes that `tokens` (in order) were accepted into the context after
    /// a speculative verification round.
    fn accept_tokens(&mut self, tokens: &[TokenId]);

    /// Fills a *single* layer's K/V for position `pos` according to
    /// `policy`, for a layer whose block computation was bypassed. Used by
    /// early exit (suffix skips, via [`LayeredLm::fill_skipped_kv`]) and by
    /// skip-layer baselines (mid-stack skips, MoD / D-LLM style) alike.
    fn fill_layer_kv(
        &mut self,
        layer: usize,
        h: &[f32],
        pos: usize,
        policy: SkipKvPolicy,
        meter: &mut Meter,
    );

    /// After an early exit at layer `first_skipped - 1`, fills layers
    /// `first_skipped..n_layers` K/V for position `pos` according to
    /// `policy`.
    fn fill_skipped_kv(
        &mut self,
        first_skipped: usize,
        h: &[f32],
        pos: usize,
        policy: SkipKvPolicy,
        meter: &mut Meter,
    ) {
        for layer in first_skipped..self.config().n_layers {
            self.fill_layer_kv(layer, h, pos, policy, meter);
        }
    }

    /// [`LayeredLm::fill_skipped_kv`] for a group of sequences that left
    /// the same decode step early (what `BatchedEngine::step` makes with
    /// the seats that exited): member `i` fills layers `first_skipped[i]..` for its own
    /// `positions[i]` from its exit hidden state `hs[i]`.
    ///
    /// This default — member by member — is the reference: an
    /// implementation that overrides it (to share a weight stream between
    /// the members, say) must stay bit-identical to it (every K/V row,
    /// every [`Meter`] total). `Transformer` keeps it: its
    /// `fill_skipped_kv` owes the rows and reads no weights.
    fn fill_skipped_kv_group(
        group: &mut [&mut Self],
        first_skipped: &[usize],
        hs: &[&[f32]],
        positions: &[usize],
        policy: SkipKvPolicy,
        meter: &mut Meter,
    ) where
        Self: Sized,
    {
        for (i, member) in group.iter_mut().enumerate() {
            member.fill_skipped_kv(first_skipped[i], hs[i], positions[i], policy, meter);
        }
    }

    /// Final norm + full LM head over the whole vocabulary.
    fn final_logits(&mut self, h: &[f32], meter: &mut Meter) -> Vec<f32>;

    /// [`LayeredLm::final_logits`] for a group of sequences, one hidden
    /// state each (what `BatchedEngine::step` makes with the seats whose
    /// predictors fired at a layer, or that ran the whole stack); logits come back in member order, metered per member.
    ///
    /// This default — member by member, one LM-head stream each — is the
    /// reference: implementations whose members share weights override it
    /// to stream the head once per group, and must stay bit-identical to
    /// it (every logit, every [`Meter`] total).
    fn final_logits_group(
        group: &mut [&mut Self],
        hs: &[&[f32]],
        meter: &mut Meter,
    ) -> Vec<Vec<f32>>
    where
        Self: Sized,
    {
        (0..group.len())
            .map(|i| group[i].final_logits(hs[i], meter))
            .collect()
    }

    /// Batched full LM head over several hidden states (what a self-draft
    /// level's frontier expansion calls). The default computes per-state
    /// logits and meters each separately; `Transformer` overrides with one
    /// batched record. Tree verification calls it one state at a time,
    /// only on the rows its greedy walk reads, on a scratch meter, and
    /// prices the tree itself with the record `Transformer`'s override
    /// makes over every node — whatever the model, so a model keeping
    /// this default is priced by verification as `Transformer` is.
    fn final_logits_batch(&mut self, hs: &[Vec<f32>], meter: &mut Meter) -> Vec<Vec<f32>> {
        hs.iter().map(|h| self.final_logits(h, meter)).collect()
    }

    /// Final norm + LM-head slice over the candidate `tokens` only
    /// (SpecEE's speculative LM head).
    fn slice_logits(&mut self, h: &[f32], tokens: &[TokenId], meter: &mut Meter) -> Vec<f32>;

    /// Grouped candidate-slice logits for several (hidden, candidates)
    /// pairs, metered as ONE block-wise grouped GEMM (T3's custom
    /// kernel, Fig. 13). The default meters per group; `Transformer`
    /// overrides with batched metering.
    fn grouped_slice_logits(
        &mut self,
        hs: &[&[f32]],
        candidate_sets: &[&[TokenId]],
        meter: &mut Meter,
    ) -> Vec<Vec<f32>> {
        hs.iter()
            .zip(candidate_sets.iter())
            .map(|(h, c)| self.slice_logits(h, c, meter))
            .collect()
    }

    /// Number of committed positions.
    fn kv_len(&self) -> usize;

    /// Rolls every layer's cache back to `len` positions.
    fn truncate_kv(&mut self, len: usize);

    /// Token slots currently allocated across layers (layout-dependent).
    fn allocated_kv_tokens(&self) -> usize;

    /// Modelled full-scale weight payload in bytes (for memory reports).
    fn modelled_weight_bytes(&self) -> f64;
}
