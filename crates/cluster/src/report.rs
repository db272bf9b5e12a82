//! Per-worker and aggregate cluster reporting.

use std::collections::BTreeMap;

use specee_batch::BatchedOutput;
use specee_core::traffic::TrafficClass;
use specee_metrics::{HardwareProfile, Roofline};
use specee_obs::{
    fold_dropped_events, fold_events, fold_meter, fold_roofline, merge_events, Event,
    MetricsRegistry,
};
use specee_serve::batcher::ServeReport;
use specee_serve::{ClassStats, ServeStats};

use crate::worker::WorkerReport;

/// Everything a served cluster run produced: one [`WorkerReport`] per
/// worker plus the merged aggregate view.
///
/// The aggregate [`ServeReport`] merges every worker's completions and
/// takes the rearmost worker's makespan (all simulated clocks start at
/// zero), so [`ClusterReport::stats`] yields the same [`ServeStats`]
/// shape as single-engine live runs — cluster curves overlay
/// directly on theirs.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Routing policy that produced the run.
    pub router: String,
    /// Per-worker reports, in worker-index order.
    pub workers: Vec<WorkerReport>,
    /// Ids that could not be routed at all (every worker had failed).
    pub unroutable: Vec<u64>,
    /// The cluster-wide trace timeline: every worker's event stream plus
    /// the coordinator's routing decisions, stably merged by `(t, lane)`
    /// — empty unless the cluster ran with
    /// [`ClusterConfig::trace`](crate::ClusterConfig::trace) on. Feed it
    /// to [`specee_obs::chrome_trace_json`] for a Perfetto-viewable trace
    /// (one lane per worker) or to [`ClusterReport::metrics`] for the
    /// aggregated registry.
    pub events: Vec<Event>,
}

impl ClusterReport {
    pub(crate) fn new(
        router: String,
        workers: Vec<WorkerReport>,
        unroutable: Vec<u64>,
        coordinator_events: Vec<Event>,
    ) -> Self {
        let mut streams: Vec<Vec<Event>> = workers.iter().map(|w| w.events.clone()).collect();
        streams.push(coordinator_events);
        let events = merge_events(streams);
        ClusterReport {
            router,
            workers,
            unroutable,
            events,
        }
    }

    /// The merged aggregate report: all completions in id order, the
    /// rearmost worker's makespan, summed steps, and exactly-weighted
    /// occupancy / executed-layer means.
    pub fn aggregate(&self) -> ServeReport {
        let mut completions: Vec<_> = self
            .workers
            .iter()
            .flat_map(|w| w.report.completions.iter().cloned())
            .collect();
        completions.sort_by_key(|c| c.id);
        let makespan_s = self
            .workers
            .iter()
            .map(|w| w.report.makespan_s)
            .fold(0.0f64, f64::max);
        let steps: u64 = self.workers.iter().map(|w| w.report.steps).sum();
        let occupancy_sum: f64 = self.workers.iter().map(|w| w.occupancy_sum).sum();
        let layer_sum: f64 = self.workers.iter().map(|w| w.layer_sum).sum();
        let decode_tokens: u64 = self.workers.iter().map(|w| w.decode_tokens).sum();
        ServeReport {
            completions,
            makespan_s,
            steps,
            avg_occupancy: if steps > 0 {
                occupancy_sum / steps as f64
            } else {
                0.0
            },
            avg_layers: if decode_tokens > 0 {
                layer_sum / decode_tokens as f64
            } else {
                0.0
            },
        }
    }

    /// Aggregate latency/throughput statistics (the existing
    /// [`ServeStats`] shape).
    pub fn stats(&self) -> ServeStats {
        self.aggregate().stats()
    }

    /// Every decoded output across workers, in id order (completed
    /// requests plus cancelled partials).
    pub fn outputs(&self) -> Vec<&BatchedOutput> {
        let mut outs: Vec<&BatchedOutput> =
            self.workers.iter().flat_map(|w| w.outputs.iter()).collect();
        outs.sort_by_key(|o| o.id);
        outs
    }

    /// Completed requests across all workers.
    pub fn completed(&self) -> usize {
        self.workers
            .iter()
            .map(|w| w.report.completions.len())
            .sum()
    }

    /// Ids that timed out, were cancelled, or failed, plus the
    /// unroutable, across all workers — everything that did *not*
    /// complete, each id exactly once.
    pub fn not_completed(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.unroutable.clone();
        for w in &self.workers {
            ids.extend(&w.timed_out);
            ids.extend(&w.cancelled);
            ids.extend(&w.failed);
        }
        ids.sort_unstable();
        ids
    }

    /// Cluster-wide per-traffic-class breakdown (ascending class order):
    /// each worker's [`ClassStats`] rows merged exactly — counts and
    /// layer sums add, controller operating points merge token-weighted.
    /// Empty when no request carried a class and no controller ran.
    pub fn class_breakdown(&self) -> Vec<ClassStats> {
        let mut merged: BTreeMap<TrafficClass, ClassStats> = BTreeMap::new();
        for worker in &self.workers {
            for row in &worker.classes {
                merged
                    .entry(row.class)
                    .or_insert_with(|| ClassStats::empty(row.class))
                    .merge(row);
            }
        }
        merged.into_values().collect()
    }

    /// Mean observed exit depth (executed layers per decode token)
    /// across everything the cluster decoded.
    pub fn observed_depth(&self) -> Option<f64> {
        let layer_sum: f64 = self.workers.iter().map(|w| w.layer_sum).sum();
        let tokens: u64 = self.workers.iter().map(|w| w.decode_tokens).sum();
        (tokens > 0).then(|| layer_sum / tokens as f64)
    }

    /// Snapshots the run into a [`MetricsRegistry`]: the merged event
    /// stream folds to exit-layer/TTFT/queue-depth histograms and
    /// per-type counters, and every worker's measured op totals fold in
    /// as `specee_op_*` counters. With a `hardware` profile, each
    /// worker's roofline-modelled per-[`specee_metrics::OpKind`] costs
    /// are folded too (gauges add across workers, so modelled latency
    /// reads as cluster device-seconds). The merge is exact — counters
    /// and histogram buckets sum element-wise — so the cluster-wide
    /// registry equals the sum of its workers'.
    pub fn metrics(&self, hardware: Option<&HardwareProfile>) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        fold_events(&mut reg, &self.events);
        fold_dropped_events(
            &mut reg,
            self.workers.iter().map(|w| w.dropped_events).sum(),
        );
        for w in &self.workers {
            fold_meter(&mut reg, &w.meter);
            if let Some(hw) = hardware {
                let mut own = MetricsRegistry::new();
                fold_roofline(&mut own, &Roofline::new(hw.clone()).cost(&w.meter));
                reg.merge(&own);
            }
        }
        reg
    }

    /// Total page-pressure preemptions across workers (`0` unless the
    /// cluster ran with a page capacity and preemption enabled).
    pub fn preemptions(&self) -> u64 {
        self.workers.iter().map(|w| w.preemptions).sum()
    }

    /// Total parked-sequence resumes across workers.
    pub fn resumes(&self) -> u64 {
        self.workers.iter().map(|w| w.resumes).sum()
    }

    /// Total prompt tokens admissions copied from a resident sharing the
    /// prefix instead of prefilling, across workers.
    pub fn prefix_tokens_reused(&self) -> u64 {
        self.workers.iter().map(|w| w.prefix_tokens_reused).sum()
    }

    /// Summed peak physical KV-page residency across worker pools — the
    /// cluster's memory high-water mark in pages.
    pub fn kv_pages_peak(&self) -> usize {
        self.workers.iter().map(|w| w.kv.pages_peak).sum()
    }

    /// Workers that failed, with their panic messages.
    pub fn failures(&self) -> Vec<(usize, &str)> {
        self.workers
            .iter()
            .filter_map(|w| w.panic.as_deref().map(|msg| (w.worker, msg)))
            .collect()
    }
}
