//! Counters, gauges and fixed-bucket histograms with exact cross-worker
//! merge.
//!
//! Names follow Prometheus conventions, with labels inline in the key
//! (`specee_op_flops_total{kind="ffn"}`). Keys live in `BTreeMap`s so
//! every snapshot, merge and export walks them in one deterministic
//! order. Histogram bucket bounds are **fixed presets** — the same on
//! every worker — which is what makes [`MetricsRegistry::merge`] exact:
//! merging is element-wise addition, never re-bucketing.

use std::collections::BTreeMap;

use specee_metrics::{CostReport, Meter};

use crate::event::{Event, EventKind};
use crate::quantile::nearest_rank;

/// Fixed bucket upper bounds for exit-layer histograms (layers).
///
/// Model-independent so per-worker histograms always merge exactly, even
/// across heterogeneous stacks.
pub const EXIT_LAYER_BOUNDS: [f64; 12] = [
    1.0, 2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 20.0, 24.0, 28.0, 32.0, 64.0,
];

/// Fixed bucket upper bounds for TTFT histograms (seconds).
pub const TTFT_BOUNDS: [f64; 12] = [
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 10.0,
];

/// Fixed bucket upper bounds for queue-depth histograms (requests).
pub const QUEUE_DEPTH_BOUNDS: [f64; 9] = [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];

/// Fixed bucket upper bounds for per-round accepted-prefix-length
/// histograms (tokens committed per self-draft verify round).
pub const DRAFT_ACCEPTED_LEN_BOUNDS: [f64; 9] = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 12.0, 16.0];

/// A fixed-bucket histogram (Prometheus semantics: buckets are
/// cumulative-`le` at export; stored counts here are per-bucket).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// Per-bucket counts; `counts[bounds.len()]` is the `+Inf` overflow.
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Histogram {
    /// A histogram over `bounds` (finite, strictly increasing upper
    /// bounds; an implicit `+Inf` bucket is appended).
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty, non-finite or not strictly
    /// increasing.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite and strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    /// Records one observation (`le` semantics: the first bucket whose
    /// bound is `>= v`, else the `+Inf` overflow bucket).
    pub fn observe(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += v;
        self.count += 1;
    }

    /// Bucket upper bounds (without the implicit `+Inf`).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Cumulative count at each bound, then the total (`+Inf`).
    pub fn cumulative(&self) -> Vec<u64> {
        let mut cum = Vec::with_capacity(self.counts.len());
        let mut acc = 0;
        for &c in &self.counts {
            acc += c;
            cum.push(acc);
        }
        cum
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Nearest-rank quantile, resolved to the upper bound of the bucket
    /// holding that rank (the same rank rule as
    /// [`percentile_sorted`](crate::percentile_sorted), applied to
    /// bucketed data). Returns `0.0` when empty and `f64::INFINITY` when
    /// the rank lands in the overflow bucket.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = nearest_rank(self.count as usize, q) as u64;
        if rank == 0 {
            return 0.0;
        }
        let mut acc = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= rank {
                return self.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            }
        }
        unreachable!("rank is clamped to the total count");
    }

    /// Adds `other`'s counts into `self` — exact, because the bounds
    /// must match.
    ///
    /// # Panics
    ///
    /// Panics if the bucket bounds differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "histograms merge exactly only over identical bounds"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.sum += other.sum;
        self.count += other.count;
    }
}

/// A named collection of counters, gauges and histograms.
///
/// Counters are monotone totals (stored as `f64` so FLOP totals fit);
/// gauges are point-in-time values. [`MetricsRegistry::merge`] is exact:
/// counters, histogram buckets and gauges all add, so a cluster-wide
/// registry is the element-wise sum of its workers' registries
/// (per-worker modelled latency gauges sum to cluster device-seconds).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, f64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `v` to counter `name` (created at zero).
    pub fn counter_add(&mut self, name: &str, v: f64) {
        *self.counters.entry(name.to_string()).or_insert(0.0) += v;
    }

    /// Sets gauge `name` to `v`.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Records `v` into histogram `name`, creating it over `bounds` on
    /// first use.
    pub fn observe(&mut self, name: &str, bounds: &[f64], v: f64) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .observe(v);
    }

    /// Counter value (zero when absent).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Histogram by name, when present.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, f64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Element-wise exact merge of another registry (counters add,
    /// gauges add, histogram buckets add).
    ///
    /// # Panics
    ///
    /// Panics if a shared histogram name carries different bounds.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, &v) in &other.counters {
            self.counter_add(k, v);
        }
        for (k, &v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_insert(0.0) += v;
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
            }
        }
    }
}

/// Folds a [`Meter`]'s op totals into `reg` as counters
/// (`specee_op_{flops,bytes,kernels}_total{kind="..."}` plus token and
/// host-step totals), so the measured-ops half of a run lands in the
/// same export as its event-derived histograms.
pub fn fold_meter(reg: &mut MetricsRegistry, meter: &Meter) {
    for (kind, t) in meter.iter() {
        reg.counter_add(
            &format!("specee_op_flops_total{{kind=\"{kind}\"}}"),
            t.flops,
        );
        reg.counter_add(
            &format!("specee_op_bytes_total{{kind=\"{kind}\"}}"),
            t.bytes,
        );
        reg.counter_add(
            &format!("specee_op_kernels_total{{kind=\"{kind}\"}}"),
            t.kernels as f64,
        );
    }
    reg.counter_add("specee_tokens_total", meter.tokens() as f64);
    reg.counter_add("specee_host_steps_total", meter.host_steps() as f64);
}

/// Folds a roofline [`CostReport`] into `reg` as gauges: per-`OpKind`
/// modelled latency/energy (and whether the kind was memory-bound) plus
/// end-to-end totals — one export carries both measured ops and modelled
/// latency.
pub fn fold_roofline(reg: &mut MetricsRegistry, cost: &CostReport) {
    for (kind, c) in &cost.by_kind {
        reg.gauge_set(
            &format!("specee_op_modeled_latency_seconds{{kind=\"{kind}\"}}"),
            c.latency_s,
        );
        reg.gauge_set(
            &format!("specee_op_modeled_energy_joules{{kind=\"{kind}\"}}"),
            c.energy_j,
        );
        reg.gauge_set(
            &format!("specee_op_memory_bound{{kind=\"{kind}\"}}"),
            if c.memory_bound { 1.0 } else { 0.0 },
        );
    }
    reg.gauge_set("specee_modeled_latency_seconds", cost.latency_s);
    reg.gauge_set("specee_modeled_energy_joules", cost.energy_j);
    reg.gauge_set("specee_modeled_framework_seconds", cost.framework_s);
}

/// Folds an event stream into `reg`: exit-layer, TTFT and queue-depth
/// histograms (over the fixed preset bounds) plus per-type counters.
///
/// Deriving metrics from the *event stream* — rather than instrumenting
/// the engines twice — keeps one source of truth: the same recorded run
/// always folds to the same registry.
pub fn fold_events(reg: &mut MetricsRegistry, events: &[Event]) {
    for e in events {
        match &e.kind {
            EventKind::ExitDecision {
                class,
                layer,
                accepted,
                ..
            } => {
                let which = if *accepted {
                    "specee_exits_accepted_total"
                } else {
                    "specee_exits_rejected_total"
                };
                reg.counter_add(&format!("{which}{{class=\"{class}\"}}"), 1.0);
                if *accepted {
                    reg.observe("specee_exit_layer", &EXIT_LAYER_BOUNDS, f64::from(*layer));
                }
            }
            EventKind::Step { .. } => reg.counter_add("specee_steps_total", 1.0),
            EventKind::Admission { queue_depth, .. } => {
                reg.counter_add("specee_admissions_total", 1.0);
                reg.observe(
                    "specee_queue_depth",
                    &QUEUE_DEPTH_BOUNDS,
                    f64::from(*queue_depth),
                );
            }
            EventKind::Request {
                arrival_s,
                first_token_s,
                tokens,
                ..
            } => {
                reg.counter_add("specee_requests_total", 1.0);
                reg.counter_add("specee_decode_tokens_total", f64::from(*tokens));
                reg.observe(
                    "specee_ttft_seconds",
                    &TTFT_BOUNDS,
                    first_token_s - arrival_s,
                );
            }
            EventKind::Routing { policy, .. } => {
                reg.counter_add(&format!("specee_routed_total{{policy=\"{policy}\"}}"), 1.0);
            }
            EventKind::ControllerApply { class, .. } => {
                reg.counter_add(
                    &format!("specee_controller_applies_total{{class=\"{class}\"}}"),
                    1.0,
                );
            }
            EventKind::Gossip { classes, .. } => {
                reg.counter_add("specee_gossip_deltas_total", 1.0);
                reg.counter_add("specee_gossip_classes_total", f64::from(*classes));
            }
            EventKind::Preempted { .. } => {
                reg.counter_add("specee_kv_preemptions_total", 1.0);
            }
            EventKind::Resumed { .. } => {
                reg.counter_add("specee_kv_resumes_total", 1.0);
            }
            EventKind::KvPressure {
                pages,
                shared,
                parked,
            } => {
                reg.gauge_set("specee_kv_occupancy", f64::from(*pages));
                reg.gauge_set("specee_kv_shared_pages", f64::from(*shared));
                reg.gauge_set("specee_kv_parked", f64::from(*parked));
            }
            EventKind::DraftPass { nodes, .. } => {
                reg.counter_add("specee_draft_passes_total", 1.0);
                reg.counter_add("specee_draft_nodes_total", f64::from(*nodes));
            }
            EventKind::TreeVerified { accepted, .. } => {
                reg.counter_add("specee_trees_verified_total", 1.0);
                reg.observe(
                    "specee_draft_accepted_len",
                    &DRAFT_ACCEPTED_LEN_BOUNDS,
                    f64::from(*accepted),
                );
            }
            EventKind::SloFired { objective, .. } => {
                reg.counter_add(
                    &format!("specee_slo_fired_total{{objective=\"{objective}\"}}"),
                    1.0,
                );
                reg.gauge_set(
                    &format!("specee_slo_burning{{objective=\"{objective}\"}}"),
                    1.0,
                );
            }
            EventKind::SloCleared { objective } => {
                reg.counter_add(
                    &format!("specee_slo_cleared_total{{objective=\"{objective}\"}}"),
                    1.0,
                );
                reg.gauge_set(
                    &format!("specee_slo_burning{{objective=\"{objective}\"}}"),
                    0.0,
                );
            }
        }
    }
}

/// Folds a recorder's dropped-event count into `reg` as the
/// `specee_trace_dropped_events_total` counter, so a truncated or
/// sampled trace is visible in the same export it truncated.
pub fn fold_dropped_events(reg: &mut MetricsRegistry, dropped: u64) {
    reg.counter_add("specee_trace_dropped_events_total", dropped as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use specee_metrics::{HardwareProfile, OpKind, Roofline};

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new(&[1.0, 2.0, 4.0]);
        for v in [0.5, 1.0, 1.5, 3.0, 100.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.cumulative(), vec![2, 3, 4, 5]);
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(0.5), 2.0); // rank 3 → second bucket
        assert_eq!(h.quantile(0.8), 4.0);
        assert_eq!(h.quantile(1.0), f64::INFINITY); // overflow bucket
        assert_eq!(Histogram::new(&[1.0]).quantile(0.5), 0.0);
    }

    #[test]
    fn histogram_quantile_shares_the_nearest_rank_rule() {
        // Bucketed quantiles must land in the bucket holding the same
        // rank percentile_sorted would pick on the raw sample.
        let sample = [0.5, 1.0, 1.5, 3.0, 3.5, 3.9];
        let mut h = Histogram::new(&[1.0, 2.0, 4.0]);
        for v in sample {
            h.observe(v);
        }
        for q in [0.0, 0.25, 0.5, 0.95, 1.0] {
            let exact = crate::percentile(&sample, q);
            let bucket = h.quantile(q);
            assert!(
                exact <= bucket,
                "bucket upper bound bounds the exact value (q = {q})"
            );
        }
    }

    #[test]
    fn histogram_merge_is_exact() {
        let mut a = Histogram::new(&[1.0, 2.0]);
        a.observe(0.5);
        a.observe(5.0);
        let mut b = Histogram::new(&[1.0, 2.0]);
        b.observe(1.5);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.cumulative(), vec![1, 2, 3]);
        assert!((a.sum() - 7.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "identical bounds")]
    fn histogram_merge_rejects_mismatched_bounds() {
        let mut a = Histogram::new(&[1.0]);
        a.merge(&Histogram::new(&[2.0]));
    }

    #[test]
    fn registry_merge_sums_everything() {
        let mut a = MetricsRegistry::new();
        a.counter_add("c", 1.0);
        a.gauge_set("g", 2.0);
        a.observe("h", &[1.0, 2.0], 0.5);
        let mut b = MetricsRegistry::new();
        b.counter_add("c", 2.0);
        b.gauge_set("g", 3.0);
        b.observe("h", &[1.0, 2.0], 1.5);
        b.observe("h2", &[1.0], 0.5);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3.0);
        assert_eq!(a.gauges.get("g").copied(), Some(5.0));
        assert_eq!(a.histogram("h").unwrap().count(), 2);
        assert_eq!(a.histogram("h2").unwrap().count(), 1);
    }

    #[test]
    fn registry_merge_with_disjoint_keys_is_a_union() {
        let mut a = MetricsRegistry::new();
        a.counter_add("only_a", 1.0);
        a.gauge_set("gauge_a", 4.0);
        a.observe("hist_a", &[1.0], 0.5);
        let mut b = MetricsRegistry::new();
        b.counter_add("only_b", 2.0);
        b.gauge_set("gauge_b", 5.0);
        b.observe("hist_b", &[2.0], 1.5);
        a.merge(&b);
        assert_eq!(a.counter("only_a"), 1.0);
        assert_eq!(a.counter("only_b"), 2.0);
        assert_eq!(a.gauges.get("gauge_a").copied(), Some(4.0));
        assert_eq!(a.gauges.get("gauge_b").copied(), Some(5.0));
        assert_eq!(a.histogram("hist_a").unwrap().count(), 1);
        assert_eq!(a.histogram("hist_b").unwrap().count(), 1);
        assert_eq!(a.counters().count(), 2);
        // `b` is untouched by the merge.
        assert_eq!(b.counter("only_a"), 0.0);
    }

    #[test]
    #[should_panic(expected = "identical bounds")]
    fn registry_merge_rejects_mismatched_histogram_presets() {
        // Same metric name recorded under different bucket presets on
        // two workers must fail loudly, not blend silently.
        let mut a = MetricsRegistry::new();
        a.observe("specee_ttft_seconds", &TTFT_BOUNDS, 0.1);
        let mut b = MetricsRegistry::new();
        b.observe("specee_ttft_seconds", &QUEUE_DEPTH_BOUNDS, 0.1);
        a.merge(&b);
    }

    #[test]
    fn registry_merge_is_associative_across_three_workers() {
        let worker = |seed: u64| {
            let mut reg = MetricsRegistry::new();
            reg.counter_add("specee_steps_total", seed as f64);
            reg.counter_add(&format!("specee_only_{seed}"), 1.0);
            reg.gauge_set("specee_depth", seed as f64);
            for i in 0..seed {
                reg.observe("specee_ttft_seconds", &TTFT_BOUNDS, 0.01 * i as f64);
            }
            reg
        };
        let (w0, w1, w2) = (worker(1), worker(2), worker(3));
        // (w0 ∪ w1) ∪ w2
        let mut left = MetricsRegistry::new();
        left.merge(&w0);
        left.merge(&w1);
        left.merge(&w2);
        // w0 ∪ (w1 ∪ w2)
        let mut right_tail = MetricsRegistry::new();
        right_tail.merge(&w1);
        right_tail.merge(&w2);
        let mut right = MetricsRegistry::new();
        right.merge(&w0);
        right.merge(&right_tail);
        assert_eq!(
            crate::prometheus_text(&left),
            crate::prometheus_text(&right),
            "merge must be associative: the coordinator may fold worker \
             registries in any grouping"
        );
        assert_eq!(left.counter("specee_steps_total"), 6.0);
        assert_eq!(left.histogram("specee_ttft_seconds").unwrap().count(), 6);
    }

    #[test]
    fn slo_events_fold_to_counters_and_burning_gauge() {
        use crate::event::Event;
        let ev = |kind| Event {
            t: 0.0,
            worker: 0,
            seq: None,
            kind,
        };
        let mut reg = MetricsRegistry::new();
        fold_events(
            &mut reg,
            &[ev(EventKind::SloFired {
                objective: "p99_ttft".to_string(),
                burn_rate: 2.5,
            })],
        );
        assert_eq!(
            reg.counter("specee_slo_fired_total{objective=\"p99_ttft\"}"),
            1.0
        );
        assert_eq!(
            reg.gauges
                .get("specee_slo_burning{objective=\"p99_ttft\"}")
                .copied(),
            Some(1.0)
        );
        fold_events(
            &mut reg,
            &[ev(EventKind::SloCleared {
                objective: "p99_ttft".to_string(),
            })],
        );
        assert_eq!(
            reg.counter("specee_slo_cleared_total{objective=\"p99_ttft\"}"),
            1.0
        );
        assert_eq!(
            reg.gauges
                .get("specee_slo_burning{objective=\"p99_ttft\"}")
                .copied(),
            Some(0.0)
        );
        fold_dropped_events(&mut reg, 17);
        assert_eq!(reg.counter("specee_trace_dropped_events_total"), 17.0);
    }

    #[test]
    fn draft_events_fold_to_counters_and_accepted_len_histogram() {
        use crate::event::Event;
        let ev = |kind| Event {
            t: 0.0,
            worker: 0,
            seq: Some(1),
            kind,
        };
        let mut reg = MetricsRegistry::new();
        fold_events(
            &mut reg,
            &[
                ev(EventKind::DraftPass {
                    nodes: 7,
                    exit_layer: 3,
                }),
                ev(EventKind::TreeVerified {
                    nodes: 7,
                    accepted: 2,
                }),
                ev(EventKind::TreeVerified {
                    nodes: 7,
                    accepted: 4,
                }),
            ],
        );
        assert_eq!(reg.counter("specee_draft_passes_total"), 1.0);
        assert_eq!(reg.counter("specee_draft_nodes_total"), 7.0);
        assert_eq!(reg.counter("specee_trees_verified_total"), 2.0);
        let h = reg.histogram("specee_draft_accepted_len").unwrap();
        assert_eq!(h.count(), 2);
        assert!((h.sum() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn meter_and_roofline_fold_into_one_registry() {
        let mut m = Meter::new();
        m.record(OpKind::Ffn, 100.0, 200.0, 3);
        m.record(OpKind::Predictor, 1.0, 1e9, 1);
        m.mark_token();
        let mut reg = MetricsRegistry::new();
        fold_meter(&mut reg, &m);
        assert_eq!(reg.counter("specee_op_flops_total{kind=\"ffn\"}"), 100.0);
        assert_eq!(reg.counter("specee_op_kernels_total{kind=\"ffn\"}"), 3.0);
        assert_eq!(reg.counter("specee_tokens_total"), 1.0);

        let cost = Roofline::new(HardwareProfile::a100_80g()).cost(&m);
        fold_roofline(&mut reg, &cost);
        let lat = reg
            .gauges
            .get("specee_op_modeled_latency_seconds{kind=\"predictor\"}")
            .copied()
            .unwrap();
        assert!(lat > 0.0);
        assert_eq!(
            reg.gauges
                .get("specee_op_memory_bound{kind=\"predictor\"}")
                .copied(),
            Some(1.0),
            "the predictor is the paper's memory-bound op"
        );
        assert_eq!(
            reg.gauges.get("specee_modeled_latency_seconds").copied(),
            Some(cost.latency_s)
        );
    }

    #[test]
    fn events_fold_to_histograms_and_counters() {
        use crate::event::Event;
        let ev = |kind| Event {
            t: 0.0,
            worker: 0,
            seq: None,
            kind,
        };
        let events = vec![
            ev(EventKind::ExitDecision {
                class: 0,
                layer: 3,
                score: 0.9,
                threshold: 0.5,
                accepted: true,
            }),
            ev(EventKind::ExitDecision {
                class: 1,
                layer: 9,
                score: 0.1,
                threshold: 0.5,
                accepted: false,
            }),
            ev(EventKind::Admission {
                request: 0,
                queue_depth: 3,
            }),
            ev(EventKind::Request {
                request: 0,
                arrival_s: 0.0,
                first_token_s: 0.02,
                finish_s: 0.5,
                tokens: 8,
            }),
            ev(EventKind::Step {
                step: 0,
                occupancy: 1,
                layers: 12,
                dur_s: 0.01,
            }),
        ];
        let mut reg = MetricsRegistry::new();
        fold_events(&mut reg, &events);
        assert_eq!(reg.counter("specee_exits_accepted_total{class=\"0\"}"), 1.0);
        assert_eq!(reg.counter("specee_exits_rejected_total{class=\"1\"}"), 1.0);
        assert_eq!(reg.counter("specee_steps_total"), 1.0);
        assert_eq!(reg.counter("specee_decode_tokens_total"), 8.0);
        assert_eq!(reg.histogram("specee_exit_layer").unwrap().count(), 1);
        assert_eq!(reg.histogram("specee_queue_depth").unwrap().count(), 1);
        let ttft = reg.histogram("specee_ttft_seconds").unwrap();
        assert_eq!(ttft.count(), 1);
        assert!((ttft.sum() - 0.02).abs() < 1e-12);
    }
}
