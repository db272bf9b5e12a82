//! SLO objectives with multi-window burn-rate alerting.
//!
//! An [`SloSpec`] declares objectives (`p99_ttft ≤ X` seconds,
//! `false_exit_rate ≤ Y`) plus the window geometry; an [`SloTracker`]
//! consumes observations stamped with the simulated clock and answers,
//! at step boundaries, whether each objective is burning its error
//! budget too fast.
//!
//! The alerting rule is the SRE multi-window one: the *burn rate* is
//! the bad-event fraction divided by the error budget (`1 - q` for a
//! quantile objective, the declared limit for a rate objective), and an
//! objective fires only when **both** a fast and a slow window exceed
//! the fire threshold — the fast window gives low detection latency,
//! the slow window vetoes one-bucket blips. It clears when the fast
//! window alone drops below the clear threshold, so recovery is prompt.
//!
//! Everything is keyed to the simulated clock through the
//! exact-retirement windows in [`crate::window`], so a tracker is a
//! pure function of the observation stream: the serving tiers run it
//! whether or not a trace recorder is attached, and traced and untraced
//! runs stay bit-identical. Transitions are returned as typed
//! [`EventKind::SloFired`] / [`EventKind::SloCleared`] values for the
//! caller to stamp into its trace stream.

use crate::event::EventKind;
use crate::window::RollingCounter;

/// What an objective bounds.
#[derive(Debug, Clone, PartialEq)]
pub enum SloKind {
    /// `pNN_ttft = limit`: the `q`-quantile of time-to-first-token must
    /// stay at or under `limit_s` simulated seconds. The error budget
    /// is `1 - q`.
    LatencyQuantile {
        /// The quantile, in `(0, 1)` (0.99 for `p99_ttft`).
        q: f64,
        /// The bound, simulated seconds.
        limit_s: f64,
    },
    /// `false_exit_rate = limit`: the fraction of predictor fires the
    /// verifier rejects must stay at or under `limit`, which is also
    /// the error budget.
    FalseExitRate {
        /// The bound, a fraction in `(0, 1)`.
        limit: f64,
    },
}

/// One declared objective.
#[derive(Debug, Clone, PartialEq)]
pub struct SloObjective {
    /// The objective's name as declared (`p99_ttft`, `false_exit_rate`)
    /// — the label stamped on events and Prometheus series.
    pub name: String,
    /// What it bounds.
    pub kind: SloKind,
}

impl SloObjective {
    /// Parses one `name=value` objective.
    ///
    /// Accepted names: `pNN_ttft` (NN in 1..=99, value in simulated
    /// seconds) and `false_exit_rate` (value a fraction in `(0, 1)`).
    pub fn parse(spec: &str) -> Result<SloObjective, String> {
        let (name, value) = spec
            .split_once('=')
            .ok_or_else(|| format!("objective `{spec}` must look like p99_ttft=0.25"))?;
        let (name, value) = (name.trim(), value.trim());
        let limit: f64 = value
            .parse()
            .map_err(|_| format!("objective `{name}`: `{value}` is not a number"))?;
        if !limit.is_finite() || limit <= 0.0 {
            return Err(format!(
                "objective `{name}`: bound must be finite and positive, got `{value}`"
            ));
        }
        if name == "false_exit_rate" {
            if limit >= 1.0 {
                return Err(format!(
                    "objective `false_exit_rate`: bound is a fraction below 1, got `{value}`"
                ));
            }
            return Ok(SloObjective {
                name: name.to_string(),
                kind: SloKind::FalseExitRate { limit },
            });
        }
        if let Some(nn) = name
            .strip_prefix('p')
            .and_then(|rest| rest.strip_suffix("_ttft"))
        {
            let nn: u32 = nn
                .parse()
                .map_err(|_| format!("objective `{name}`: quantile must be an integer 1..=99"))?;
            if !(1..=99).contains(&nn) {
                return Err(format!(
                    "objective `{name}`: quantile must be in 1..=99, got {nn}"
                ));
            }
            return Ok(SloObjective {
                name: name.to_string(),
                kind: SloKind::LatencyQuantile {
                    q: f64::from(nn) / 100.0,
                    limit_s: limit,
                },
            });
        }
        Err(format!(
            "unknown objective `{name}` (expected pNN_ttft or false_exit_rate)"
        ))
    }

    /// The error budget the burn rate is measured against.
    fn budget(&self) -> f64 {
        match self.kind {
            SloKind::LatencyQuantile { q, .. } => 1.0 - q,
            SloKind::FalseExitRate { limit } => limit,
        }
    }
}

/// A set of objectives plus the shared window geometry, all in
/// simulated seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// The declared objectives.
    pub objectives: Vec<SloObjective>,
    /// Width of one window bucket.
    pub bucket_s: f64,
    /// Span of the fast (detection) window.
    pub fast_window_s: f64,
    /// Span of the slow (veto) window.
    pub slow_window_s: f64,
    /// Burn rate at or above which an objective fires (both windows).
    pub fire_burn: f64,
    /// Fast-window burn rate below which a firing objective clears.
    pub clear_burn: f64,
    /// Fast-window observations required before an objective may fire
    /// (a single early bad event is not a trend).
    pub min_events: u64,
}

impl Default for SloSpec {
    /// Geometry scaled to this repo's simulated serving runs (seconds
    /// of simulated time, not the hours of production SRE practice):
    /// 0.25 s buckets, a 1 s fast window, a 4 s slow window, fire at
    /// burn ≥ 1 in both, clear when the fast window halves that.
    fn default() -> Self {
        SloSpec {
            objectives: Vec::new(),
            bucket_s: 0.25,
            fast_window_s: 1.0,
            slow_window_s: 4.0,
            fire_burn: 1.0,
            clear_burn: 0.5,
            min_events: 4,
        }
    }
}

impl SloSpec {
    /// Parses a comma-separated objective list
    /// (`p99_ttft=0.25,false_exit_rate=0.2`) with default geometry.
    pub fn parse(spec: &str) -> Result<SloSpec, String> {
        let objectives = spec
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(SloObjective::parse)
            .collect::<Result<Vec<_>, _>>()?;
        if objectives.is_empty() {
            return Err(
                "no objectives given (expected p99_ttft=... or false_exit_rate=...)".into(),
            );
        }
        Ok(SloSpec {
            objectives,
            ..SloSpec::default()
        })
    }
}

/// Per-objective window pair plus alert state.
#[derive(Debug, Clone)]
struct ObjectiveState {
    objective: SloObjective,
    fast_bad: RollingCounter,
    fast_total: RollingCounter,
    slow_bad: RollingCounter,
    slow_total: RollingCounter,
    firing: bool,
    /// Fast-window burn as of the last [`SloTracker::evaluate`].
    last_burn: f64,
}

impl ObjectiveState {
    fn advance_to(&mut self, t: f64) {
        self.fast_bad.advance_to(t);
        self.fast_total.advance_to(t);
        self.slow_bad.advance_to(t);
        self.slow_total.advance_to(t);
    }

    fn observe(&mut self, bad: bool) {
        self.fast_total.add(1);
        self.slow_total.add(1);
        if bad {
            self.fast_bad.add(1);
            self.slow_bad.add(1);
        }
    }

    fn burn(bad: u64, total: u64, budget: f64) -> f64 {
        if total == 0 {
            return 0.0;
        }
        (bad as f64 / total as f64) / budget
    }

    fn fast_burn(&self) -> f64 {
        Self::burn(
            self.fast_bad.total(),
            self.fast_total.total(),
            self.objective.budget(),
        )
    }

    fn slow_burn(&self) -> f64 {
        Self::burn(
            self.slow_bad.total(),
            self.slow_total.total(),
            self.objective.budget(),
        )
    }
}

/// The online evaluator for one [`SloSpec`].
#[derive(Debug, Clone)]
pub struct SloTracker {
    spec: SloSpec,
    states: Vec<ObjectiveState>,
}

impl SloTracker {
    /// A tracker over the spec's objectives.
    ///
    /// # Panics
    ///
    /// If the window geometry is degenerate (non-positive bucket width,
    /// windows narrower than one bucket).
    pub fn new(spec: SloSpec) -> SloTracker {
        let buckets = |span_s: f64| {
            let n = (span_s / spec.bucket_s).round() as usize;
            assert!(n >= 1, "window must span at least one bucket");
            n
        };
        let (fast, slow) = (buckets(spec.fast_window_s), buckets(spec.slow_window_s));
        let states = spec
            .objectives
            .iter()
            .map(|objective| ObjectiveState {
                objective: objective.clone(),
                fast_bad: RollingCounter::new(spec.bucket_s, fast),
                fast_total: RollingCounter::new(spec.bucket_s, fast),
                slow_bad: RollingCounter::new(spec.bucket_s, slow),
                slow_total: RollingCounter::new(spec.bucket_s, slow),
                firing: false,
                last_burn: 0.0,
            })
            .collect();
        SloTracker { spec, states }
    }

    /// The spec the tracker was built from.
    pub fn spec(&self) -> &SloSpec {
        &self.spec
    }

    /// Records one request's time-to-first-token at simulated time `t`.
    pub fn observe_ttft(&mut self, t: f64, ttft_s: f64) {
        for state in &mut self.states {
            if let SloKind::LatencyQuantile { limit_s, .. } = state.objective.kind {
                state.advance_to(t);
                state.observe(ttft_s > limit_s);
            }
        }
    }

    /// Records one predictor fire (accepted or rejected by the
    /// verifier) at simulated time `t`.
    pub fn observe_exit(&mut self, t: f64, accepted: bool) {
        for state in &mut self.states {
            if matches!(state.objective.kind, SloKind::FalseExitRate { .. }) {
                state.advance_to(t);
                state.observe(!accepted);
            }
        }
    }

    /// Evaluates every objective at the step boundary `t`, returning
    /// the transitions (fired / cleared) that happened, in objective
    /// declaration order. Call this exactly where the simulated clock
    /// advances; it is what keeps alert state deterministic.
    pub fn evaluate(&mut self, t: f64) -> Vec<EventKind> {
        let mut transitions = Vec::new();
        for state in &mut self.states {
            state.advance_to(t);
            let fast = state.fast_burn();
            state.last_burn = fast;
            if !state.firing {
                let enough = state.fast_total.total() >= self.spec.min_events;
                if enough && fast >= self.spec.fire_burn && state.slow_burn() >= self.spec.fire_burn
                {
                    state.firing = true;
                    transitions.push(EventKind::SloFired {
                        objective: state.objective.name.clone(),
                        burn_rate: fast,
                    });
                }
            } else if fast < self.spec.clear_burn {
                state.firing = false;
                transitions.push(EventKind::SloCleared {
                    objective: state.objective.name.clone(),
                });
            }
        }
        transitions
    }

    /// The controller feedback signal, as of the last [`evaluate`]:
    /// positive while a latency objective burns (push the operating
    /// point toward aggressive exits to drain the queue), negative
    /// while a false-exit objective burns (raise thresholds toward
    /// exits-off), `0.0` when nothing fires. Magnitude saturates at 1
    /// when the fast-window burn reaches twice the fire threshold.
    ///
    /// [`evaluate`]: SloTracker::evaluate
    pub fn pressure(&self) -> f64 {
        let mut p = 0.0;
        for state in &self.states {
            if !state.firing {
                continue;
            }
            let magnitude = (state.last_burn / (2.0 * self.spec.fire_burn)).clamp(0.0, 1.0);
            match state.objective.kind {
                SloKind::LatencyQuantile { .. } => p += magnitude,
                SloKind::FalseExitRate { .. } => p -= magnitude,
            }
        }
        p.clamp(-1.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn any_firing(tracker: &SloTracker) -> bool {
        tracker.states.iter().any(|s| s.firing)
    }

    fn p99(limit_s: f64) -> SloSpec {
        SloSpec::parse(&format!("p99_ttft={limit_s}")).expect("parses")
    }

    #[test]
    fn parse_accepts_the_documented_forms() {
        let spec = SloSpec::parse("p99_ttft=0.25,false_exit_rate=0.2").expect("parses");
        assert_eq!(spec.objectives.len(), 2);
        assert_eq!(
            spec.objectives[0].kind,
            SloKind::LatencyQuantile {
                q: 0.99,
                limit_s: 0.25
            }
        );
        assert_eq!(
            spec.objectives[1].kind,
            SloKind::FalseExitRate { limit: 0.2 }
        );
        assert_eq!(spec.objectives[0].name, "p99_ttft");
    }

    #[test]
    fn parse_rejects_malformed_objectives() {
        for (spec, needle) in [
            ("p99_ttft", "must look like"),
            ("p99_ttft=abc", "is not a number"),
            ("p99_ttft=-1", "finite and positive"),
            ("p0_ttft=0.5", "quantile must be in 1..=99"),
            ("p100_ttft=0.5", "quantile must be in 1..=99"),
            ("false_exit_rate=1.5", "fraction below 1"),
            ("queue_depth=3", "unknown objective"),
            ("", "no objectives"),
        ] {
            let err = SloSpec::parse(spec).expect_err(spec);
            assert!(err.contains(needle), "`{spec}` -> `{err}`");
        }
    }

    #[test]
    fn fires_only_when_both_windows_burn_and_clears_on_fast_recovery() {
        let mut tracker = SloTracker::new(p99(0.1));
        // Healthy traffic fills both windows.
        for i in 0..8 {
            tracker.observe_ttft(f64::from(i) * 0.25, 0.05);
        }
        assert!(tracker.evaluate(2.0).is_empty());
        assert!(!any_firing(&tracker));
        // A sustained burst of misses: fast window saturates, slow
        // window follows, the objective fires exactly once.
        let mut fired = 0;
        for i in 0..8 {
            let t = 2.0 + f64::from(i) * 0.25;
            tracker.observe_ttft(t, 0.5);
            fired += tracker
                .evaluate(t)
                .iter()
                .filter(|e| matches!(e, EventKind::SloFired { .. }))
                .count();
        }
        assert_eq!(fired, 1);
        assert!(any_firing(&tracker));
        assert!(tracker.pressure() > 0.0, "latency pressure is positive");
        // Recovery: once the fast window is all-good, it clears even
        // though the slow window still remembers the burst.
        for i in 0..8 {
            let t = 4.0 + f64::from(i) * 0.25;
            tracker.observe_ttft(t, 0.01);
        }
        let transitions = tracker.evaluate(6.0);
        assert!(transitions
            .iter()
            .any(|e| matches!(e, EventKind::SloCleared { .. })));
        assert!(!any_firing(&tracker));
        assert_eq!(tracker.pressure(), 0.0);
    }

    #[test]
    fn one_early_bad_event_does_not_fire() {
        let mut tracker = SloTracker::new(p99(0.1));
        tracker.observe_ttft(0.0, 99.0);
        assert!(tracker.evaluate(0.0).is_empty(), "min_events guards blips");
    }

    #[test]
    fn false_exit_objective_pulls_pressure_negative() {
        let spec = SloSpec::parse("false_exit_rate=0.2").expect("parses");
        let mut tracker = SloTracker::new(spec);
        for i in 0..12 {
            tracker.observe_exit(f64::from(i) * 0.1, i % 2 == 0);
        }
        let transitions = tracker.evaluate(1.2);
        assert!(transitions
            .iter()
            .any(|e| matches!(e, EventKind::SloFired { .. })));
        assert!(tracker.pressure() < 0.0, "false-exit pressure is negative");
    }

    #[test]
    fn latency_observations_do_not_feed_rate_objectives() {
        let spec = SloSpec::parse("false_exit_rate=0.2").expect("parses");
        let mut tracker = SloTracker::new(spec);
        for i in 0..20 {
            tracker.observe_ttft(f64::from(i) * 0.1, 99.0);
        }
        assert!(tracker.evaluate(2.0).is_empty());
        assert_eq!(tracker.pressure(), 0.0);
    }
}
