//! The speculative-token source abstraction consumed by the engines.

use specee_metrics::Meter;
use specee_model::TokenId;

use crate::self_draft::SelfDraftSpec;
use crate::tree::{TokenTree, TreeShape};

/// A source of speculative tokens.
///
/// Implemented by the real [`crate::DraftModel`] and by the calibrated
/// oracle in `specee-synth`. The engine calls [`propose`] once per
/// generated token in autoregressive mode (SpecEE T1: the K candidates
/// that form the reduced vocabulary) and [`propose_tree`] once per
/// verification round in speculative mode.
///
/// [`propose`]: SpeculativeSource::propose
/// [`propose_tree`]: SpeculativeSource::propose_tree
pub trait SpeculativeSource {
    /// Proposes the top-`k` candidate next tokens for the given context,
    /// most likely first.
    fn propose(&mut self, context: &[TokenId], k: usize, meter: &mut Meter) -> Vec<TokenId>;

    /// Proposes a draft token tree for the given context.
    fn propose_tree(
        &mut self,
        context: &[TokenId],
        shape: &TreeShape,
        meter: &mut Meter,
    ) -> TokenTree;

    /// Returns the top-`k` candidates for a context that the draft already
    /// explored during tree construction, without metering a new forward
    /// (tree drafting computed these logits; re-reading them is free). The
    /// default falls back to a metered [`SpeculativeSource::propose`].
    fn cached_candidates(
        &mut self,
        context: &[TokenId],
        k: usize,
        meter: &mut Meter,
    ) -> Vec<TokenId> {
        self.propose(context, k, meter)
    }

    /// Clears any internal sequence state.
    fn reset(&mut self);

    /// Modelled memory footprint of the draft model in bytes (the paper
    /// reports ~0.9 GB for the Llama2-7B EAGLE head, Fig. 17).
    fn modelled_bytes(&self) -> f64;

    /// When `Some`, this source is a *self-speculative* marker: the engine
    /// drafts with the target's own shallow layers per the returned spec
    /// instead of calling [`SpeculativeSource::propose_tree`]. Separate
    /// draft models return `None` (the default).
    fn self_spec(&self) -> Option<&SelfDraftSpec> {
        None
    }

    /// Cumulative node-forwards this source has executed through its own
    /// draft network (0 for oracle and self-draft sources, which run no
    /// separate network). Engines use the per-round delta to meter
    /// separate-draft work apart from shallow-target work.
    fn forward_calls(&self) -> u64 {
        0
    }
}

/// The source with nothing to speculate on: it proposes no candidates and
/// no tree, runs no network and meters nothing. An engine decoding with it
/// has no exit to verify, so every token runs the full stack — the dense
/// reference, through the same engine and serving loop as SpecEE.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoDraft;

impl SpeculativeSource for NoDraft {
    fn propose(&mut self, _context: &[TokenId], _k: usize, _meter: &mut Meter) -> Vec<TokenId> {
        Vec::new()
    }

    fn propose_tree(
        &mut self,
        _context: &[TokenId],
        _shape: &TreeShape,
        _meter: &mut Meter,
    ) -> TokenTree {
        TokenTree::new()
    }

    fn reset(&mut self) {}

    fn modelled_bytes(&self) -> f64 {
        0.0
    }
}
