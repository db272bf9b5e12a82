//! Block-wise grouped GEMM for hyper-token feature extraction (SpecEE T3).
//!
//! In tree-based speculative decoding every node of the token tree needs the
//! logits of *its own* small candidate set against the LM head. Computing
//! those one node at a time re-reads the shared weight rows once per node.
//! The paper's custom GPU operator (cutlass group GEMM / MegaBlocks
//! block-wise matmul, Fig. 13) batches the whole tree into one kernel. This
//! module is the CPU equivalent: a [`GroupedGemm`] plan gathers the union of
//! candidate rows once and then evaluates every (node, candidate) product in
//! a single pass.

use serde::{Deserialize, Serialize};

use crate::backend::Backend;
use crate::matrix::{dot, Matrix};

/// Candidate weight-row ids for one group (one token-tree node).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupedGemmSpec {
    /// Row indices of the weight matrix this group multiplies against.
    pub row_ids: Vec<usize>,
}

impl GroupedGemmSpec {
    /// Creates a spec from candidate row ids.
    pub fn new(row_ids: Vec<usize>) -> Self {
        GroupedGemmSpec { row_ids }
    }
}

/// A planned block-wise grouped mat-vec against a shared weight matrix.
///
/// # Examples
///
/// ```
/// use specee_tensor::{GroupedGemm, GroupedGemmSpec, Matrix, rng::Pcg};
///
/// let mut rng = Pcg::seed(4);
/// let head = Matrix::random(100, 8, 1.0, &mut rng);
/// let specs = vec![
///     GroupedGemmSpec::new(vec![3, 17]),
///     GroupedGemmSpec::new(vec![17, 42, 5]),
/// ];
/// let plan = GroupedGemm::plan(&head, &specs);
/// let inputs = vec![vec![0.5; 8], vec![-0.25; 8]];
/// let out = plan.run(&inputs);
/// assert_eq!(out[1].len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct GroupedGemm {
    /// Gathered copies of the sorted union of all requested rows (read
    /// once at plan time).
    compact: Matrix,
    /// For each group, indices into `compact`'s rows.
    group_indices: Vec<Vec<usize>>,
}

impl GroupedGemm {
    /// Builds a plan by gathering the union of candidate rows once.
    ///
    /// # Panics
    ///
    /// Panics if any row id is out of bounds for `weight`.
    pub fn plan(weight: &Matrix, specs: &[GroupedGemmSpec]) -> Self {
        let mut unique_rows: Vec<usize> = specs
            .iter()
            .flat_map(|s| s.row_ids.iter().copied())
            .collect();
        unique_rows.sort_unstable();
        unique_rows.dedup();
        for &r in &unique_rows {
            assert!(
                r < weight.rows(),
                "row {r} out of bounds ({})",
                weight.rows()
            );
        }
        let mut compact = Matrix::zeros(unique_rows.len(), weight.cols());
        for (i, &r) in unique_rows.iter().enumerate() {
            compact.row_mut(i).copy_from_slice(weight.row(r));
        }
        let group_indices = specs
            .iter()
            .map(|s| {
                s.row_ids
                    .iter()
                    .map(|r| unique_rows.binary_search(r).expect("row gathered above"))
                    .collect()
            })
            .collect();
        GroupedGemm {
            compact,
            group_indices,
        }
    }

    /// Runs the plan: `out[g][i] = weight[specs[g].row_ids[i]] · inputs[g]`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the group count or any input
    /// has the wrong dimension.
    pub fn run(&self, inputs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        assert_eq!(
            inputs.len(),
            self.group_indices.len(),
            "group count mismatch"
        );
        inputs
            .iter()
            .zip(self.group_indices.iter())
            .map(|(x, idx)| {
                assert_eq!(x.len(), self.compact.cols(), "input dimension mismatch");
                idx.iter().map(|&i| dot(self.compact.row(i), x)).collect()
            })
            .collect()
    }

    /// Runs the plan through a compute backend's batched
    /// [`Backend::gemm`] kernel instead of the built-in scalar loop.
    /// With the reference backend this is bit-identical to [`Self::run`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the group count or any input
    /// has the wrong dimension.
    pub fn run_with(&self, backend: &dyn Backend, inputs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        backend.gemm(&self.compact, &self.group_indices, inputs)
    }
}

/// The unbatched reference implementation: every group gathers its own rows
/// (re-reading duplicates). Used by the microbenchmarks and tests as the
/// baseline the grouped plan is compared against.
///
/// # Panics
///
/// Panics if shapes disagree or row ids are out of bounds.
pub fn grouped_matvec(
    weight: &Matrix,
    specs: &[GroupedGemmSpec],
    inputs: &[Vec<f32>],
) -> Vec<Vec<f32>> {
    assert_eq!(specs.len(), inputs.len(), "group count mismatch");
    specs
        .iter()
        .zip(inputs.iter())
        .map(|(s, x)| weight.matvec_rows(&s.row_ids, x))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Pcg;

    fn setup() -> (Matrix, Vec<GroupedGemmSpec>, Vec<Vec<f32>>) {
        let mut rng = Pcg::seed(8);
        let weight = Matrix::random(64, 16, 1.0, &mut rng);
        let specs = vec![
            GroupedGemmSpec::new(vec![1, 5, 9]),
            GroupedGemmSpec::new(vec![5, 9, 33]),
            GroupedGemmSpec::new(vec![0]),
        ];
        let inputs = (0..3)
            .map(|g| (0..16).map(|i| (g * 16 + i) as f32 * 0.01).collect())
            .collect();
        (weight, specs, inputs)
    }

    #[test]
    fn plan_matches_naive() {
        let (w, specs, inputs) = setup();
        let plan = GroupedGemm::plan(&w, &specs);
        let fast = plan.run(&inputs);
        let slow = grouped_matvec(&w, &specs, &inputs);
        assert_eq!(fast.len(), slow.len());
        for (a, b) in fast.iter().zip(slow.iter()) {
            for (x, y) in a.iter().zip(b.iter()) {
                assert!((x - y).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn dedup_reduces_gathered_rows() {
        let (w, specs, _) = setup();
        let plan = GroupedGemm::plan(&w, &specs);
        let requested: usize = specs.iter().map(|s| s.row_ids.len()).sum();
        assert_eq!(plan.compact.rows(), 5);
        assert!(plan.compact.rows() < requested);
        assert_eq!(plan.group_indices.len(), 3);
    }

    #[test]
    fn preserves_requested_order_within_group() {
        let mut rng = Pcg::seed(9);
        let w = Matrix::random(10, 4, 1.0, &mut rng);
        let specs = vec![GroupedGemmSpec::new(vec![7, 2])];
        let x = vec![vec![1.0, 0.0, 0.0, 0.0]];
        let out = GroupedGemm::plan(&w, &specs).run(&x);
        assert!((out[0][0] - w.get(7, 0)).abs() < 1e-6);
        assert!((out[0][1] - w.get(2, 0)).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn plan_validates_rows() {
        let w = Matrix::zeros(4, 4);
        GroupedGemm::plan(&w, &[GroupedGemmSpec::new(vec![4])]);
    }

    #[test]
    fn empty_specs_produce_empty_output() {
        let w = Matrix::zeros(4, 4);
        let plan = GroupedGemm::plan(&w, &[]);
        assert!(plan.run(&[]).is_empty());
    }
}
