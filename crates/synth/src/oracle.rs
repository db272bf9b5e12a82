//! Oracle draft source with a calibrated hit rate.
//!
//! The EAGLE draft head the paper uses took ~24 GPU-hours to train; the
//! only property of it that SpecEE consumes is *how often the true token
//! appears among the K candidates*. This oracle proposes the language's
//! own confusion set and includes the truth with probability `hit_rate`,
//! while metering each round as a real draft forward at target scale.

use specee_draft::{SpeculativeSource, TokenTree, TreeShape};
use specee_metrics::Meter;
use specee_model::{ModelConfig, OpScale, TokenId};
use specee_tensor::Pcg;

use crate::language::SyntheticLanguage;

fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn context_hash(context: &[TokenId], seed: u64) -> u64 {
    let mut acc = seed ^ 0x243f_6a88_85a3_08d3;
    for &t in context {
        acc = mix(acc ^ u64::from(t));
    }
    acc
}

/// A deterministic draft oracle aligned with a [`SyntheticLanguage`].
///
/// Proposals are a pure function of `(seed, context)`, so repeated calls —
/// e.g. from the per-layer feature extractor and the verification step —
/// agree with each other.
#[derive(Debug, Clone)]
pub struct OracleDraft {
    language: SyntheticLanguage,
    hit_rate: f64,
    seed: u64,
    scale: OpScale,
    modelled_bytes: f64,
}

impl OracleDraft {
    /// Creates an oracle for the given language, hit rate, and target model
    /// (used only for metering scale and modelled memory).
    ///
    /// # Panics
    ///
    /// Panics if `hit_rate` is outside `[0, 1]`.
    pub fn new(
        language: SyntheticLanguage,
        hit_rate: f64,
        target: &ModelConfig,
        seed: u64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&hit_rate), "hit_rate in [0,1]");
        let modelled_bytes = match &target.cost {
            Some(c) => {
                let h = c.hidden_dim as f64;
                (4.0 * h * h + 3.0 * h * c.ffn_dim as f64 + 2.0 * c.vocab_size as f64 * h)
                    * c.weight_bytes_per_elem()
            }
            None => 0.0,
        };
        OracleDraft {
            language,
            hit_rate,
            seed,
            scale: OpScale::of(target),
            modelled_bytes,
        }
    }

    /// The configured hit rate.
    pub fn hit_rate(&self) -> f64 {
        self.hit_rate
    }

    /// The top `k` of one ranking per context, whatever `k` is: a chain
    /// (`k = 1`) sees the same top-1 a tree level does.
    fn propose_inner(&self, context: &[TokenId], k: usize) -> Vec<TokenId> {
        let mut rng = Pcg::seed(context_hash(context, self.seed));
        let mut cands = self.language.candidates(context, k.max(1) + 1);
        if rng.chance(self.hit_rate) {
            // Truth lands at rank 0 most of the time, rank 1 otherwise —
            // real drafts are confident but not perfectly ordered.
            if rng.chance(0.25) {
                cands.swap(0, 1);
            }
            cands.truncate(k);
            cands
        } else {
            cands[1..=k].to_vec()
        }
    }
}

impl SpeculativeSource for OracleDraft {
    fn propose(&mut self, context: &[TokenId], k: usize, meter: &mut Meter) -> Vec<TokenId> {
        assert!(!context.is_empty(), "draft needs context");
        self.scale.record_draft_forward(meter, context.len());
        self.propose_inner(context, k)
    }

    fn propose_tree(
        &mut self,
        context: &[TokenId],
        shape: &TreeShape,
        meter: &mut Meter,
    ) -> TokenTree {
        assert!(!context.is_empty(), "draft needs context");
        let mut tree = TokenTree::new();
        let weights = self.language.candidate_weights(4);
        let mut frontier: Vec<(Option<usize>, Vec<TokenId>)> = vec![(None, context.to_vec())];
        for (level, &b) in shape.branching().iter().enumerate() {
            self.scale
                .record_draft_forward(meter, context.len() + level);
            let mut next = Vec::new();
            for (parent, ctx) in frontier {
                let props = self.propose_inner(&ctx, b);
                for (rank, &t) in props.iter().enumerate() {
                    let prob = weights.get(rank).copied().unwrap_or(0.05);
                    let idx = tree.push(t, parent, prob);
                    let mut child_ctx = ctx.clone();
                    child_ctx.push(t);
                    next.push((Some(idx), child_ctx));
                }
            }
            frontier = next;
        }
        tree
    }

    fn cached_candidates(
        &mut self,
        context: &[TokenId],
        k: usize,
        _meter: &mut Meter,
    ) -> Vec<TokenId> {
        self.propose_inner(context, k)
    }

    fn reset(&mut self) {}

    fn modelled_bytes(&self) -> f64 {
        self.modelled_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle(hit: f64) -> OracleDraft {
        let lang = SyntheticLanguage::new(512, 7);
        OracleDraft::new(lang, hit, &ModelConfig::tiny(), 9)
    }

    #[test]
    fn hit_rate_is_respected() {
        let mut o = oracle(0.8);
        let lang = SyntheticLanguage::new(512, 7);
        let mut meter = Meter::new();
        let mut hits = 0;
        let n = 1000;
        for i in 0..n {
            let ctx = vec![(i % 97) as TokenId, (i % 89) as TokenId, i as TokenId % 512];
            let truth = lang.next_token(&ctx);
            if o.propose(&ctx, 4, &mut meter).contains(&truth) {
                hits += 1;
            }
        }
        let rate = hits as f64 / n as f64;
        assert!((0.74..0.87).contains(&rate), "rate {rate}");
    }

    #[test]
    fn proposals_deterministic_per_context() {
        let mut o = oracle(0.5);
        let mut meter = Meter::new();
        let a = o.propose(&[1, 2, 3], 4, &mut meter);
        let b = o.propose(&[1, 2, 3], 4, &mut meter);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_hit_rate_never_contains_truth() {
        let mut o = oracle(0.0);
        let lang = SyntheticLanguage::new(512, 7);
        let mut meter = Meter::new();
        for i in 0..200u32 {
            let ctx = vec![i % 512, (i * 7) % 512];
            let truth = lang.next_token(&ctx);
            assert!(!o.propose(&ctx, 4, &mut meter).contains(&truth));
        }
    }

    #[test]
    fn full_hit_rate_always_contains_truth() {
        let mut o = oracle(1.0);
        let lang = SyntheticLanguage::new(512, 7);
        let mut meter = Meter::new();
        for i in 0..200u32 {
            let ctx = vec![i % 512, (i * 13) % 512];
            let truth = lang.next_token(&ctx);
            assert!(o.propose(&ctx, 4, &mut meter).contains(&truth));
        }
    }

    #[test]
    fn tree_shape_respected_and_paths_plausible() {
        let mut o = oracle(0.9);
        let mut meter = Meter::new();
        let tree = o.propose_tree(&[1, 2, 3], &TreeShape::new(vec![2, 2]), &mut meter);
        assert_eq!(tree.len(), 2 + 4);
        assert_eq!(tree.paths().len(), 4);
    }

    /// A proposal's ranking does not depend on how many candidates are
    /// asked for: the top `k` are the first `k` of the top `k + 1`.
    #[test]
    fn a_smaller_proposal_is_a_prefix_of_a_larger_one() {
        for hit in [0.0, 0.66, 0.9, 1.0] {
            let o = oracle(hit);
            for i in 0..300u32 {
                let ctx = vec![i % 512, (i * 31) % 512, (i * 7 + 3) % 512];
                for k in 0..6 {
                    let small = o.propose_inner(&ctx, k);
                    let large = o.propose_inner(&ctx, k + 1);
                    assert_eq!(small.len(), k);
                    assert_eq!(small[..], large[..k], "hit {hit} ctx {ctx:?} k {k}");
                }
            }
        }
    }

    #[test]
    fn draft_cost_recorded() {
        let mut o = oracle(0.9);
        let mut meter = Meter::new();
        o.propose(&[1], 4, &mut meter);
        assert!(meter.kind(specee_metrics::OpKind::Draft).flops > 0.0);
    }
}
