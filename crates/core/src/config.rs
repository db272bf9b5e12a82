//! Engine configuration.

use serde::{Deserialize, Serialize};
use specee_draft::TreeShape;
use specee_model::SkipKvPolicy;

use crate::predictor::PredictorConfig;
use crate::scheduler::{OfflineScheduler, OnlineScheduler, ScheduleEngine};

/// Which predictor-scheduling technique is active (T2 ablation knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulingMode {
    /// A predictor after every layer (T1 only).
    AllLayers,
    /// Offline ∪ online (the full T2).
    TwoLevel,
}

/// SpecEE engine configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpecEeConfig {
    /// Predictor architecture (T1).
    pub predictor: PredictorConfig,
    /// Scheduling technique (T2).
    pub scheduling: SchedulingMode,
    /// How skipped layers' KV is filled after an exit.
    pub skip_kv_policy: SkipKvPolicy,
    /// Draft tree shape for speculative decoding.
    pub tree_shape: TreeShape,
    /// Optional EAGLE-2-style node budget on a *separate* draft's
    /// proposal: after drafting, the tree is pruned to its `budget`
    /// highest joint-probability nodes
    /// ([`specee_draft::TokenTree::prune_to_budget`]). `None` verifies the
    /// full fixed-shape tree. A self-draft ignores it: its
    /// [`specee_draft::SelfDraftSpec`] shape is its own budget.
    pub tree_budget: Option<usize>,
}

/// The default node budget a separate draft's tree is pruned to before
/// verification (`tree_budget: Some(TREE_BUDGET)`).
///
/// The paper verifies EAGLE's full [3, 2, 2] tree because on a GPU a
/// layer's 22 inputs cost about what one does; an f32 CPU tile pays for
/// every input. Rule: among the budgets whose A100-priced tok/s stays
/// within 20 % of the full tree's, take the one with the highest measured
/// wall tok/s. Accepted tokens per round amortise every per-round cost
/// (a real draft forward is not free) and are what the A100 price
/// rewards; wall time is what this host pays.
///
/// The sweep (`cargo bench -p specee-bench --bench ablation_tree_budget`:
/// T3 on the benchmark's `solo_tree` model and request shape, 24 requests
/// of 32 tokens, fastest of 5 passes, one Xeon core with AVX-512):
///
/// | budget | tokens/round | wall tok/s | priced tok/s |
/// |---|---|---|---|
/// | 1 | 1.68 | 918 | 61.7 |
/// | 2 | 2.15 | 884 | 75.2 |
/// | 3 | 2.36 | 889 | 82.0 |
/// | **4** | **2.64** | **873** | **90.1** |
/// | 5 | 2.74 | 730 | 93.3 |
/// | 6 | 2.89 | 740 | 97.3 |
/// | 8 | 2.99 | 529 | 99.3 |
/// | 12 | 3.17 | 492 | 103.4 |
/// | full (21) | 3.32 | 316 | 106.7 |
///
/// Budgets 1–3 fall below the priced floor (85.4); 4 is the fastest of
/// the rest. Larger budgets buy tokens per round at wall cost.
pub const TREE_BUDGET: usize = 4;

/// Layers the offline scheduler keeps: the most frequent exit layers.
const OFFLINE_KEEP: usize = 12;

/// The online scheduler's circular-queue length N (paper: 5).
const ONLINE_WINDOW: usize = 5;

/// The online scheduler's ±neighbourhood around a recent exit (paper: 2).
const NEIGHBORHOOD: usize = 2;

impl Default for SpecEeConfig {
    fn default() -> Self {
        SpecEeConfig {
            predictor: PredictorConfig::default(),
            scheduling: SchedulingMode::TwoLevel,
            skip_kv_policy: SkipKvPolicy::ProjectExitHidden,
            tree_shape: TreeShape::eagle_default(),
            tree_budget: Some(TREE_BUDGET),
        }
    }
}

impl SpecEeConfig {
    /// Builds the schedule engine for `n_layers`, using collected exit
    /// frequencies for offline allocation when available (uniform keep-all
    /// otherwise): 12 layers offline, a 5-token queue with a ±2 band online.
    pub fn build_schedule(&self, n_layers: usize, frequencies: Option<&[f64]>) -> ScheduleEngine {
        match self.scheduling {
            SchedulingMode::AllLayers => ScheduleEngine::all_layers(n_layers),
            SchedulingMode::TwoLevel => ScheduleEngine::two_level(
                match frequencies {
                    Some(f) => OfflineScheduler::from_frequencies(f, OFFLINE_KEEP),
                    None => OfflineScheduler::keep_all(n_layers),
                },
                OnlineScheduler::new(n_layers, ONLINE_WINDOW, NEIGHBORHOOD),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let cfg = SpecEeConfig::default();
        assert_eq!(cfg.predictor.spec_k, 4);
        assert_eq!(cfg.predictor.hidden_dim, 512);
        assert_eq!(cfg.scheduling, SchedulingMode::TwoLevel);
    }

    #[test]
    fn build_schedule_respects_mode() {
        let mut cfg = SpecEeConfig::default();
        let freq: Vec<f64> = (0..32).map(|i| i as f64).collect();

        cfg.scheduling = SchedulingMode::AllLayers;
        let s = cfg.build_schedule(32, Some(&freq));
        assert_eq!(s.current_active_count(), 32);

        cfg.scheduling = SchedulingMode::TwoLevel;
        let s = cfg.build_schedule(32, Some(&freq));
        // cold start: online activates everything
        assert_eq!(s.current_active_count(), 32);
    }

    /// The default schedule is the paper's T2: the 12 most frequent exit
    /// layers offline, a 5-token window with a ±2 band online — the same
    /// engine as one built from those numbers, before and after a feed.
    #[test]
    fn the_default_schedule_is_the_papers_constants() {
        let freq: Vec<f64> = (0..32).map(|i| ((i * 7) % 32) as f64).collect();
        let mut built = SpecEeConfig::default().build_schedule(32, Some(&freq));
        let mut want = ScheduleEngine::two_level(
            OfflineScheduler::from_frequencies(&freq, 12),
            OnlineScheduler::new(32, 5, 2),
        );
        assert_eq!(built, want);
        for exit in [3, 30, 17, 17, 9, 24, 1] {
            built.note_exit(exit);
            want.note_exit(exit);
            assert_eq!(built, want);
        }
        assert!(
            built.current_active_count() < 32,
            "the feed narrowed the set"
        );
    }
}
