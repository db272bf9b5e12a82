//! EAGLE-style draft token trees.

use serde::{Deserialize, Serialize};
use specee_model::TokenId;

/// Branching factor per tree level, e.g. `[3, 2, 2]`: three root drafts,
/// each expanded by two children, each of those by two more.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreeShape {
    branching: Vec<usize>,
}

impl TreeShape {
    /// Creates a shape from per-level branching factors.
    ///
    /// # Panics
    ///
    /// Panics if any level has zero branching or the shape is empty.
    pub fn new(branching: Vec<usize>) -> Self {
        assert!(!branching.is_empty(), "tree must have at least one level");
        assert!(
            branching.iter().all(|&b| b > 0),
            "branching must be positive"
        );
        TreeShape { branching }
    }

    /// The default tree used by the speculative engine (21 nodes, depth 3),
    /// mirroring EAGLE's small verification trees.
    pub fn eagle_default() -> Self {
        TreeShape::new(vec![3, 2, 2])
    }

    /// A linear chain of the given length (classic draft-then-verify).
    pub fn chain(len: usize) -> Self {
        assert!(len > 0, "chain length must be positive");
        TreeShape::new(vec![1; len])
    }

    /// Branching factors per level.
    pub fn branching(&self) -> &[usize] {
        &self.branching
    }

    /// Tree depth (number of levels).
    pub fn depth(&self) -> usize {
        self.branching.len()
    }

    /// Total node count implied by the shape.
    pub fn node_count(&self) -> usize {
        let mut level = 1usize;
        let mut total = 0usize;
        for &b in &self.branching {
            level *= b;
            total += level;
        }
        total
    }
}

/// One node of a draft token tree.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeNode {
    /// Proposed token.
    pub token: TokenId,
    /// Parent node index (`None` for level-0 roots).
    pub parent: Option<usize>,
    /// Draft-model probability of this token given its path.
    pub prob: f32,
    /// Level in the tree (roots are 0).
    pub depth: usize,
}

/// A draft token tree in topological order (parents precede children).
///
/// # Examples
///
/// ```
/// use specee_draft::TokenTree;
///
/// let mut tree = TokenTree::new();
/// let root = tree.push(10, None, 0.9);
/// let child = tree.push(11, Some(root), 0.8);
/// assert_eq!(tree.paths(), vec![vec![root, child]]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TokenTree {
    nodes: Vec<TreeNode>,
}

impl TokenTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        TokenTree::default()
    }

    /// Appends a node and returns its index.
    ///
    /// # Panics
    ///
    /// Panics if the parent index is not an existing earlier node.
    pub fn push(&mut self, token: TokenId, parent: Option<usize>, prob: f32) -> usize {
        let depth = match parent {
            None => 0,
            Some(p) => {
                assert!(p < self.nodes.len(), "parent {p} does not exist");
                self.nodes[p].depth + 1
            }
        };
        self.nodes.push(TreeNode {
            token,
            parent,
            prob,
            depth,
        });
        self.nodes.len() - 1
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrows a node.
    pub fn node(&self, i: usize) -> &TreeNode {
        &self.nodes[i]
    }

    /// All nodes in topological order.
    pub fn nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// Tokens in node order.
    pub fn tokens(&self) -> Vec<TokenId> {
        self.nodes.iter().map(|n| n.token).collect()
    }

    /// Parent links in node order.
    pub fn parents(&self) -> Vec<Option<usize>> {
        self.nodes.iter().map(|n| n.parent).collect()
    }

    /// Root-to-leaf node-index paths, one per leaf, in discovery order.
    /// Each path is the paper's *hyper-token* (T3).
    pub fn paths(&self) -> Vec<Vec<usize>> {
        let mut has_child = vec![false; self.nodes.len()];
        for n in &self.nodes {
            if let Some(p) = n.parent {
                has_child[p] = true;
            }
        }
        let mut paths = Vec::new();
        for (i, _) in self.nodes.iter().enumerate() {
            if has_child[i] {
                continue;
            }
            let mut path = Vec::new();
            let mut cur = Some(i);
            while let Some(n) = cur {
                path.push(n);
                cur = self.nodes[n].parent;
            }
            path.reverse();
            paths.push(path);
        }
        paths
    }

    /// Children of node `i` (or roots when `i` is `None`).
    pub fn children(&self, i: Option<usize>) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.parent == i)
            .map(|(j, _)| j)
            .collect()
    }

    /// Joint draft probability of the path from the root down to node `i`
    /// (the product of per-node probabilities).
    pub fn path_prob(&self, i: usize) -> f32 {
        let mut p = 1.0f32;
        let mut cur = Some(i);
        while let Some(n) = cur {
            p *= self.nodes[n].prob;
            cur = self.nodes[n].parent;
        }
        p
    }

    /// EAGLE-2-style dynamic pruning: keeps the `budget` nodes with the
    /// highest joint path probability (ties break toward earlier nodes)
    /// and re-indexes the survivors. Keeping a node keeps its ancestors —
    /// a node's joint probability never exceeds its parent's (per-node
    /// probabilities are ≤ 1) — so the result is a valid tree.
    ///
    /// Verifying a fixed-budget, probability-ranked tree instead of a
    /// fixed-shape one raises expected accepted length per round; it is
    /// the "dynamic draft tree" extension the EAGLE line of work ships.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is zero or any node probability lies outside
    /// `[0, 1]`.
    pub fn prune_to_budget(&self, budget: usize) -> TokenTree {
        assert!(budget > 0, "budget must be positive");
        assert!(
            self.nodes.iter().all(|n| (0.0..=1.0).contains(&n.prob)),
            "node probabilities must be in [0, 1]"
        );
        if self.nodes.len() <= budget {
            return self.clone();
        }
        let mut ranked: Vec<usize> = (0..self.nodes.len()).collect();
        // Joint probability descending; index ascending on ties so
        // ancestors (pushed earlier) win against equal-probability children.
        ranked.sort_by(|&a, &b| {
            self.path_prob(b)
                .partial_cmp(&self.path_prob(a))
                .expect("finite probabilities")
                .then(a.cmp(&b))
        });
        let mut keep = vec![false; self.nodes.len()];
        for &i in ranked.iter().take(budget) {
            keep[i] = true;
        }
        // Close over ancestors: monotonicity makes this a no-op except for
        // exact ties at the budget boundary.
        for i in (0..self.nodes.len()).rev() {
            if keep[i] {
                if let Some(p) = self.nodes[i].parent {
                    keep[p] = true;
                }
            }
        }
        let mut remap = vec![usize::MAX; self.nodes.len()];
        let mut pruned = TokenTree::new();
        for (i, n) in self.nodes.iter().enumerate() {
            if !keep[i] {
                continue;
            }
            let parent = n.parent.map(|p| remap[p]);
            remap[i] = pruned.push(n.token, parent, n.prob);
        }
        pruned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree() -> TokenTree {
        // roots: a, b; a -> c, d; b -> e
        let mut t = TokenTree::new();
        let a = t.push(1, None, 0.5);
        let b = t.push(2, None, 0.3);
        t.push(3, Some(a), 0.4);
        t.push(4, Some(a), 0.2);
        t.push(5, Some(b), 0.9);
        t
    }

    #[test]
    fn shape_node_count() {
        assert_eq!(TreeShape::eagle_default().node_count(), 3 + 6 + 12);
        assert_eq!(TreeShape::chain(4).node_count(), 4);
        assert_eq!(TreeShape::new(vec![4]).node_count(), 4);
    }

    #[test]
    fn depths_assigned_from_parents() {
        let t = sample_tree();
        assert_eq!(t.node(0).depth, 0);
        assert_eq!(t.node(2).depth, 1);
    }

    #[test]
    fn paths_enumerate_leaves() {
        let t = sample_tree();
        let paths = t.paths();
        assert_eq!(paths.len(), 3);
        assert!(paths.contains(&vec![0, 2]));
        assert!(paths.contains(&vec![0, 3]));
        assert!(paths.contains(&vec![1, 4]));
    }

    #[test]
    fn children_lookup() {
        let t = sample_tree();
        assert_eq!(t.children(None), vec![0, 1]);
        assert_eq!(t.children(Some(0)), vec![2, 3]);
        assert!(t.children(Some(4)).is_empty());
    }

    #[test]
    #[should_panic(expected = "parent 7 does not exist")]
    fn push_validates_parent() {
        TokenTree::new().push(1, Some(7), 0.1);
    }

    #[test]
    fn path_prob_multiplies_along_path() {
        let t = sample_tree();
        assert!((t.path_prob(4) - 0.3 * 0.9).abs() < 1e-7);
        assert!((t.path_prob(0) - 0.5).abs() < 1e-7);
    }

    #[test]
    fn prune_keeps_highest_probability_paths() {
        let t = sample_tree();
        // Joint probs: a=0.5, b=0.3, c=0.2, d=0.1, e=0.27. Budget 3 keeps
        // a, b, e — the b->e path survives intact.
        let pruned = t.prune_to_budget(3);
        assert_eq!(pruned.len(), 3);
        assert_eq!(pruned.tokens(), vec![1, 2, 5]);
        assert_eq!(pruned.node(2).parent, Some(1));
        assert_eq!(pruned.node(2).depth, 1);
    }

    #[test]
    fn prune_larger_budget_is_identity() {
        let t = sample_tree();
        assert_eq!(t.prune_to_budget(100), t);
        assert_eq!(t.prune_to_budget(t.len()), t);
    }

    #[test]
    fn pruned_tree_stays_topological() {
        let t = sample_tree();
        for budget in 1..=t.len() {
            let p = t.prune_to_budget(budget);
            assert!(p.len() >= budget.min(t.len()) || p.len() <= t.len());
            for (i, n) in p.nodes().iter().enumerate() {
                if let Some(parent) = n.parent {
                    assert!(parent < i, "budget {budget}: parent after child");
                    assert_eq!(p.node(parent).depth + 1, n.depth);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "budget must be positive")]
    fn prune_validates_budget() {
        let _ = sample_tree().prune_to_budget(0);
    }
}
