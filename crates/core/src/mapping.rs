//! Context-aware merged mapping for predictors in speculative decoding
//! (T3, §6).
//!
//! Treating each token-tree node as an independent search space multiplies
//! predictor decision spaces (exponential mapping complexity). SpecEE
//! merges every root-to-leaf path into one *hyper-token* whose exit layer
//! is the rearmost exit of its tokens (the Cannikin law) — linear in the
//! number of paths — and relies on the context similarity of path tokens
//! to keep that rearmost exit early.

use serde::{Deserialize, Serialize};

/// One hyper-token: a root-to-leaf path of node indices.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HyperToken {
    /// Node indices from root to leaf.
    pub path: Vec<usize>,
}

/// Enumerates the hyper-tokens (leaf paths) of a parent-linked node batch.
///
/// # Panics
///
/// Panics if a parent index does not precede its child.
pub fn hyper_tokens(parents: &[Option<usize>]) -> Vec<HyperToken> {
    let mut has_child = vec![false; parents.len()];
    for (i, p) in parents.iter().enumerate() {
        if let Some(p) = *p {
            assert!(p < i, "parents must precede children");
            has_child[p] = true;
        }
    }
    let mut out = Vec::new();
    for (i, &interior) in has_child.iter().enumerate() {
        if interior {
            continue;
        }
        let mut path = Vec::new();
        let mut cur = Some(i);
        while let Some(n) = cur {
            path.push(n);
            cur = parents[n];
        }
        path.reverse();
        out.push(HyperToken { path });
    }
    out
}

/// Per-round early-exit state over a token tree.
///
/// Nodes *fire* (their predictor votes exit and sticks); a hyper-token is
/// ready when all its nodes fired; the whole tree exits at the layer where
/// every hyper-token is ready — the batch-wide rearmost position.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeExitState {
    fired_at: Vec<Option<usize>>,
    hypers: Vec<HyperToken>,
}

impl TreeExitState {
    /// Creates the state for a node batch.
    pub fn new(parents: &[Option<usize>]) -> Self {
        TreeExitState {
            fired_at: vec![None; parents.len()],
            hypers: hyper_tokens(parents),
        }
    }

    /// The hyper-tokens of this batch.
    pub fn hyper_tokens(&self) -> &[HyperToken] {
        &self.hypers
    }

    /// Whether node `node` has fired.
    pub fn fired(&self, node: usize) -> bool {
        self.fired_at[node].is_some()
    }

    /// Marks `node` as fired at `layer` (first firing wins).
    pub fn note_fired(&mut self, node: usize, layer: usize) {
        if self.fired_at[node].is_none() {
            self.fired_at[node] = Some(layer);
        }
    }

    /// Nodes that have not fired yet.
    pub fn pending(&self) -> Vec<usize> {
        self.fired_at
            .iter()
            .enumerate()
            .filter(|(_, f)| f.is_none())
            .map(|(i, _)| i)
            .collect()
    }

    /// Exit layer of one hyper-token: the rearmost (maximum) firing layer
    /// of its nodes, `None` while any node is pending (Cannikin law).
    pub fn hyper_exit_layer(&self, hyper: usize) -> Option<usize> {
        self.hypers[hyper]
            .path
            .iter()
            .map(|&n| self.fired_at[n])
            .try_fold(0usize, |acc, f| f.map(|l| acc.max(l)))
    }

    /// Whether every hyper-token is ready (equivalently, every node fired).
    pub fn all_ready(&self) -> bool {
        self.fired_at.iter().all(Option::is_some)
    }

    /// Whether at least one complete hyper-token is ready. Because path
    /// tokens saturate at correlated depths (context similarity, §5.2),
    /// the first complete path is usually the true continuation; draft
    /// misses on other paths must not stall the whole batch at full depth.
    pub fn any_path_ready(&self) -> bool {
        (0..self.hypers.len()).any(|h| self.hyper_exit_layer(h).is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parents() -> Vec<Option<usize>> {
        // bonus(0) -> a(1), b(2); a -> c(3); b -> d(4)
        vec![None, Some(0), Some(0), Some(1), Some(2)]
    }

    #[test]
    fn hyper_tokens_are_leaf_paths() {
        let h = hyper_tokens(&parents());
        assert_eq!(h.len(), 2);
        assert_eq!(h[0].path, vec![0, 1, 3]);
        assert_eq!(h[1].path, vec![0, 2, 4]);
    }

    #[test]
    fn cannikin_law_takes_rearmost() {
        let mut st = TreeExitState::new(&parents());
        st.note_fired(0, 10);
        st.note_fired(1, 22);
        st.note_fired(3, 30);
        assert_eq!(st.hyper_exit_layer(0), Some(30));
        assert_eq!(st.hyper_exit_layer(1), None, "path 0-2-4 still pending");
        assert!(!st.all_ready());
        st.note_fired(2, 12);
        st.note_fired(4, 25);
        assert_eq!(st.hyper_exit_layer(1), Some(25));
        assert!(st.all_ready());
    }

    #[test]
    fn first_firing_sticks() {
        let mut st = TreeExitState::new(&parents());
        st.note_fired(1, 5);
        st.note_fired(1, 9);
        st.note_fired(0, 5);
        st.note_fired(3, 5);
        assert_eq!(st.hyper_exit_layer(0), Some(5));
    }

    #[test]
    fn pending_lists_unfired() {
        let mut st = TreeExitState::new(&parents());
        st.note_fired(0, 1);
        st.note_fired(3, 2);
        assert_eq!(st.pending(), vec![1, 2, 4]);
    }

    #[test]
    fn single_chain_has_one_hyper_token() {
        let st = TreeExitState::new(&[None, Some(0), Some(1)]);
        assert_eq!(st.hyper_tokens().len(), 1);
        assert_eq!(st.hyper_tokens()[0].path, vec![0, 1, 2]);
    }
}
