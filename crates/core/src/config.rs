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
    /// Offline scheduling only.
    OfflineOnly,
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
    /// Number of layers the offline scheduler keeps.
    pub offline_keep: usize,
    /// Online circular-queue length N (paper: 5).
    pub online_window: usize,
    /// Online ±neighborhood (paper: 2).
    pub neighborhood: usize,
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

impl Default for SpecEeConfig {
    fn default() -> Self {
        SpecEeConfig {
            predictor: PredictorConfig::default(),
            scheduling: SchedulingMode::TwoLevel,
            offline_keep: 12,
            online_window: 5,
            neighborhood: 2,
            skip_kv_policy: SkipKvPolicy::ProjectExitHidden,
            tree_shape: TreeShape::eagle_default(),
            tree_budget: Some(TREE_BUDGET),
        }
    }
}

impl SpecEeConfig {
    /// Builds the schedule engine for `n_layers`, using collected exit
    /// frequencies for offline allocation when available (uniform keep-all
    /// otherwise).
    pub fn build_schedule(&self, n_layers: usize, frequencies: Option<&[f64]>) -> ScheduleEngine {
        let offline = || match frequencies {
            Some(f) => OfflineScheduler::from_frequencies(f, self.offline_keep),
            None => OfflineScheduler::keep_all(n_layers),
        };
        match self.scheduling {
            SchedulingMode::AllLayers => ScheduleEngine::all_layers(n_layers),
            SchedulingMode::OfflineOnly => ScheduleEngine::offline_only(offline()),
            SchedulingMode::TwoLevel => ScheduleEngine::two_level(
                offline(),
                OnlineScheduler::new(n_layers, self.online_window, self.neighborhood),
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
        assert_eq!(cfg.online_window, 5);
        assert_eq!(cfg.neighborhood, 2);
        assert_eq!(cfg.scheduling, SchedulingMode::TwoLevel);
    }

    #[test]
    fn build_schedule_respects_mode() {
        let mut cfg = SpecEeConfig::default();
        let freq: Vec<f64> = (0..32).map(|i| i as f64).collect();

        cfg.scheduling = SchedulingMode::AllLayers;
        let s = cfg.build_schedule(32, Some(&freq));
        assert_eq!(s.current_active_count(), 32);

        cfg.scheduling = SchedulingMode::OfflineOnly;
        let s = cfg.build_schedule(32, Some(&freq));
        assert_eq!(s.current_active_count(), 12);

        cfg.scheduling = SchedulingMode::TwoLevel;
        let s = cfg.build_schedule(32, Some(&freq));
        // cold start: online activates everything
        assert_eq!(s.current_active_count(), 32);
    }
}
