//! Two-level heuristic predictor scheduling (T2, §5).
//!
//! Not every layer needs a predictor. **Offline scheduling** keeps the
//! layers that historically exit most often (the skewed distribution of
//! Fig. 10). **Online scheduling** maintains a circular queue of the last
//! `N` tokens' exit layers and activates predictors within ±`n` layers of
//! any of them (the context similarity of Fig. 11). The active set is the
//! union of both.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

/// Offline predictor allocation from collected exit-frequency statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OfflineScheduler {
    keep: Vec<bool>,
}

impl OfflineScheduler {
    /// Keeps the `keep_top` most frequently exiting layers.
    ///
    /// # Panics
    ///
    /// Panics if `frequencies` is empty or `keep_top` is zero.
    pub fn from_frequencies(frequencies: &[f64], keep_top: usize) -> Self {
        assert!(!frequencies.is_empty(), "need frequencies");
        assert!(keep_top > 0, "must keep at least one layer");
        let mut idx: Vec<usize> = (0..frequencies.len()).collect();
        idx.sort_by(|&a, &b| {
            frequencies[b]
                .partial_cmp(&frequencies[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut keep = vec![false; frequencies.len()];
        for &i in idx.iter().take(keep_top.min(frequencies.len())) {
            keep[i] = true;
        }
        OfflineScheduler { keep }
    }

    /// Keeps every layer (the no-offline-scheduling configuration).
    pub fn keep_all(n_layers: usize) -> Self {
        OfflineScheduler {
            keep: vec![true; n_layers],
        }
    }

    /// Whether layer `layer` has an offline-allocated predictor.
    pub fn is_kept(&self, layer: usize) -> bool {
        self.keep.get(layer).copied().unwrap_or(false)
    }
}

/// Online predictor activation from recent exit positions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineScheduler {
    window: VecDeque<usize>,
    counts: Vec<u32>,
    capacity: usize,
    neighborhood: usize,
}

impl OnlineScheduler {
    /// Creates a scheduler over `n_layers` layers tracking the last
    /// `window` tokens with a ±`neighborhood` activation band.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or `n_layers` is zero.
    pub fn new(n_layers: usize, window: usize, neighborhood: usize) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(n_layers > 0, "n_layers must be positive");
        OnlineScheduler {
            window: VecDeque::with_capacity(window),
            counts: vec![0; n_layers],
            capacity: window,
            neighborhood,
        }
    }

    fn bump(&mut self, exit_layer: usize, delta: i32) {
        let lo = exit_layer.saturating_sub(self.neighborhood);
        let hi = (exit_layer + self.neighborhood).min(self.counts.len() - 1);
        for l in lo..=hi {
            let c = &mut self.counts[l];
            *c = (*c as i64 + delta as i64).max(0) as u32;
        }
    }

    /// Records the exit layer of the newest token, evicting the oldest.
    pub fn note_exit(&mut self, exit_layer: usize) {
        let exit_layer = exit_layer.min(self.counts.len() - 1);
        if self.window.len() == self.capacity {
            let old = self.window.pop_front().expect("non-empty window");
            self.bump(old, -1);
        }
        self.window.push_back(exit_layer);
        self.bump(exit_layer, 1);
    }

    /// Whether the online set activates layer `layer`. Before any exit is
    /// recorded, every layer is active (cold start).
    pub fn is_active(&self, layer: usize) -> bool {
        if self.window.is_empty() {
            return true;
        }
        self.counts.get(layer).copied().unwrap_or(0) > 0
    }

    /// Number of currently active layers.
    pub fn active_count(&self) -> usize {
        if self.window.is_empty() {
            return self.counts.len();
        }
        self.counts.iter().filter(|&&c| c > 0).count()
    }
}

/// The union scheduler the engine consults per layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleEngine {
    offline: Option<OfflineScheduler>,
    online: Option<OnlineScheduler>,
    n_layers: usize,
    active_samples: u64,
    active_sum: u64,
}

impl ScheduleEngine {
    /// A scheduler that activates every layer (T1-only configuration).
    pub fn all_layers(n_layers: usize) -> Self {
        ScheduleEngine {
            offline: None,
            online: None,
            n_layers,
            active_samples: 0,
            active_sum: 0,
        }
    }

    /// The full two-level scheduler (offline ∪ online).
    pub fn two_level(offline: OfflineScheduler, online: OnlineScheduler) -> Self {
        let n_layers = offline.keep.len();
        ScheduleEngine {
            offline: Some(offline),
            online: Some(online),
            n_layers,
            active_samples: 0,
            active_sum: 0,
        }
    }

    /// Offline-only scheduling (ablation).
    pub fn offline_only(offline: OfflineScheduler) -> Self {
        let n_layers = offline.keep.len();
        ScheduleEngine {
            offline: Some(offline),
            online: None,
            n_layers,
            active_samples: 0,
            active_sum: 0,
        }
    }

    /// Whether a predictor should run after `layer`.
    pub fn is_active(&self, layer: usize) -> bool {
        match (&self.offline, &self.online) {
            (None, None) => true,
            (Some(off), None) => off.is_kept(layer),
            (None, Some(on)) => on.is_active(layer),
            (Some(off), Some(on)) => off.is_kept(layer) || on.is_active(layer),
        }
    }

    /// Records a token's exit layer (feeds the online window and the
    /// active-count statistics).
    pub fn note_exit(&mut self, exit_layer: usize) {
        let active = self.current_active_count();
        self.active_sum += active as u64;
        self.active_samples += 1;
        if let Some(on) = &mut self.online {
            on.note_exit(exit_layer.min(self.n_layers - 1));
        }
    }

    /// Number of layers currently active.
    pub fn current_active_count(&self) -> usize {
        (0..self.n_layers).filter(|&l| self.is_active(l)).count()
    }

    /// Mean number of active predictors per token so far (the paper's
    /// dynamic ~10.2 layers, Fig. 10(d)).
    pub fn avg_active(&self) -> f64 {
        if self.active_samples == 0 {
            self.current_active_count() as f64
        } else {
            self.active_sum as f64 / self.active_samples as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offline_keeps_top_layers() {
        let freq = vec![0.05, 0.30, 0.10, 0.40, 0.15];
        let off = OfflineScheduler::from_frequencies(&freq, 2);
        assert!(off.is_kept(3));
        assert!(off.is_kept(1));
        assert!(!off.is_kept(0));
        assert_eq!(off.keep.iter().filter(|&&k| k).count(), 2);
    }

    #[test]
    fn online_cold_start_activates_all() {
        let on = OnlineScheduler::new(8, 5, 2);
        assert!(on.is_active(0));
        assert_eq!(on.active_count(), 8);
    }

    #[test]
    fn online_tracks_neighborhood() {
        let mut on = OnlineScheduler::new(32, 5, 2);
        on.note_exit(20);
        for l in 18..=22 {
            assert!(on.is_active(l), "layer {l}");
        }
        assert!(!on.is_active(17));
        assert!(!on.is_active(23));
        assert_eq!(on.active_count(), 5);
    }

    #[test]
    fn online_evicts_oldest() {
        let mut on = OnlineScheduler::new(32, 2, 1);
        on.note_exit(5);
        on.note_exit(10);
        on.note_exit(25); // evicts 5
        assert!(!on.is_active(5));
        assert!(on.is_active(10));
        assert!(on.is_active(25));
    }

    #[test]
    fn union_covers_both_sets() {
        let freq = vec![0.0; 32];
        let mut freq2 = freq.clone();
        freq2[3] = 1.0;
        let off = OfflineScheduler::from_frequencies(&freq2, 1);
        let mut engine = ScheduleEngine::two_level(off, OnlineScheduler::new(32, 5, 2));
        engine.note_exit(20);
        assert!(engine.is_active(3), "offline layer");
        assert!(engine.is_active(20), "online layer");
        assert!(!engine.is_active(10));
    }

    #[test]
    fn avg_active_shrinks_after_warmup() {
        let off = OfflineScheduler::from_frequencies(&vec![1.0; 32], 6);
        let mut engine = ScheduleEngine::two_level(off, OnlineScheduler::new(32, 5, 2));
        for _ in 0..20 {
            engine.note_exit(20);
        }
        // 6 offline + ≤5 online (overlapping window at one layer)
        assert!(engine.current_active_count() <= 11);
        assert!(engine.avg_active() < 32.0);
    }

    #[test]
    fn all_layers_engine_always_active() {
        let mut engine = ScheduleEngine::all_layers(8);
        for l in 0..8 {
            assert!(engine.is_active(l));
        }
        engine.note_exit(3);
        assert_eq!(engine.current_active_count(), 8);
    }

    #[test]
    fn exit_layer_clamped_to_range() {
        let mut on = OnlineScheduler::new(8, 3, 2);
        on.note_exit(100); // overflow clamps to last layer
        assert!(on.is_active(7));
    }
}
