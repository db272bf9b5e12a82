//! One cluster worker: an OS thread that owns a batched engine and feeds
//! the shared serving loop from a message channel.
//!
//! Serving itself — admission, priced prefill, priced lock-step decode,
//! completions, SLO ticks, the simulated clock — is
//! [`specee_serve::ServeLoop`], the same loop `ContinuousBatcher::run_live`
//! runs dry in one call. A worker hands it requests as the coordinator
//! routes them and advances it only to the coordinator's current **arrival
//! frontier** (see [`crate::Cluster`]); because every request arriving
//! before a frontier is routed before the worker is synchronized to it,
//! that incremental feeding is boundary-for-boundary identical to
//! `run_live` over the worker's share of the traffic.
//!
//! What lives here is what only a cluster needs: the message protocol,
//! gossip hand-off, the routing snapshot, per-class report rows, and
//! panic containment. A panic anywhere in the worker's serving (a
//! poisoned request's model, a factory bug) is caught at the message
//! boundary: the worker marks itself failed, reports the requests it can
//! no longer serve, and keeps answering the coordinator so the rest of
//! the cluster drains normally.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

use specee_batch::{BatchedEngine, BatchedOutput};
use specee_control::{ClassEvidence, ControllerSummary};
use specee_core::traffic::TrafficClass;
use specee_draft::SpeculativeSource;
use specee_metrics::Meter;
use specee_model::LayeredLm;
use specee_obs::{Event, SloTracker};
use specee_serve::batcher::ServeReport;
use specee_serve::cost::StepCostModel;
use specee_serve::{AdmissionPolicy, ClassStats, ServeLoop};

use crate::request::ClusterRequest;
use crate::router::WorkerSnapshot;

/// Builds the per-sequence model and draft for a request at admission
/// time (each engine slot owns its sequence's KV state). Shared by every
/// worker thread, hence `Send + Sync`.
pub type SeqFactory<M, D> = Arc<dyn Fn(&ClusterRequest) -> (M, D) + Send + Sync>;

/// Coordinator → worker messages.
pub(crate) enum WorkerMsg {
    /// A routed request (arrival times nondecreasing per worker).
    Submit(ClusterRequest),
    /// Advance the simulated clock to the arrival frontier and snapshot.
    SyncTo(f64),
    /// The *other* workers' per-class evidence deltas (cross-worker
    /// controller gossip; one delta per reporter and class, in
    /// worker-index order), to absorb at the current loop boundary.
    Gossip(Vec<ClassEvidence>),
    /// Best-effort cancellation of a routed request by id.
    Cancel(u64),
    /// No more requests: run to completion and report.
    Drain,
}

/// Worker → coordinator replies.
pub(crate) enum WorkerReply {
    /// Response to [`WorkerMsg::SyncTo`]: the routing snapshot plus the
    /// per-class evidence deltas this worker's controller accumulated
    /// since the previous sync (raw material of the coordinator's
    /// gossip merge).
    /// Boxed: the snapshot (pages, classes, queue state) dwarfs the
    /// channel's other traffic.
    Synced(Box<WorkerSnapshot>, Vec<ClassEvidence>),
    /// Response to [`WorkerMsg::Drain`]; the worker thread exits after.
    /// Boxed: the report (event stream, meter, completions) dwarfs the
    /// sync variant.
    Done(Box<WorkerReport>),
}

/// Everything one worker did over a served run.
#[derive(Debug, Clone)]
pub struct WorkerReport {
    /// Worker index.
    pub worker: usize,
    /// The worker's serving report: completions in id order, its local
    /// makespan, steps and occupancy — same shape as a single-engine run.
    pub report: ServeReport,
    /// Decoded outputs (finished and cancelled-partial), in id order.
    pub outputs: Vec<BatchedOutput>,
    /// Requests routed to this worker.
    pub assigned: usize,
    /// Sum of executed layers over decode steps (for exact cross-worker
    /// averaging).
    pub layer_sum: f64,
    /// Decode tokens emitted in steps (excludes prefill tokens).
    pub decode_tokens: u64,
    /// Sum of batch occupancy over decode steps.
    pub occupancy_sum: f64,
    /// Mean observed exit depth over every emitted token, layers.
    pub observed_depth: Option<f64>,
    /// Ids dropped because their deadline passed while queued.
    pub timed_out: Vec<u64>,
    /// Ids cancelled by the coordinator (queued or mid-decode).
    pub cancelled: Vec<u64>,
    /// Ids this worker could not serve because it failed.
    pub failed: Vec<u64>,
    /// The panic message that failed the worker, if any.
    pub panic: Option<String>,
    /// Final state of the worker's exit-threshold controller (operating
    /// point plus its observed accept/reject stream), merged across
    /// classes.
    pub controller: Option<ControllerSummary>,
    /// Per-traffic-class breakdown (ascending class order): requests,
    /// decode tokens, executed-layer sums and the class's controller
    /// operating point.
    pub classes: Vec<ClassStats>,
    /// The worker's trace-event stream, stamped with its simulated clock
    /// and worker lane (empty unless the cluster was spawned with
    /// tracing on). Already in clock order for this lane; the
    /// coordinator merges lanes into the cluster-wide timeline.
    pub events: Vec<Event>,
    /// Events the worker's recorder discarded (trace sampling plus any
    /// budget overflow); `0` when untraced. Folded into
    /// [`crate::ClusterReport::metrics`] as
    /// `specee_trace_dropped_events_total`.
    pub dropped_events: u64,
    /// The engine's measured op totals (FLOPs/bytes/kernels per
    /// [`specee_metrics::OpKind`]), for folding into a cluster-wide
    /// metrics registry.
    pub meter: Meter,
    /// Sequences this worker evicted under page pressure (each later
    /// resumed or cancelled); `0` unless the cluster runs with a page
    /// capacity and preemption enabled.
    pub preemptions: u64,
    /// Parked sequences re-seated after pages freed up.
    pub resumes: u64,
    /// Prompt tokens this worker's admissions copied from a resident
    /// sharing the prefix instead of prefilling
    /// (`BatchedEngine::prefix_tokens_reused`).
    pub prefix_tokens_reused: u64,
    /// Final snapshot of the worker's KV slot pool (peak residency,
    /// sharing, copy-on-write counts).
    pub kv: specee_model::KvStats,
}

pub(crate) struct Worker<M: LayeredLm, D: SpeculativeSource> {
    id: usize,
    engine: BatchedEngine<M, D>,
    /// The serving loop proper: clock, queues, in-flight milestones,
    /// completions and report sums.
    serving: ServeLoop<ClusterRequest>,
    make_seq: SeqFactory<M, D>,
    assigned: usize,
    /// Ids this worker could not serve because it failed.
    lost: Vec<u64>,
    panic: Option<String>,
}

impl<M: LayeredLm, D: SpeculativeSource> Worker<M, D> {
    pub(crate) fn new(
        id: usize,
        engine: BatchedEngine<M, D>,
        cost: StepCostModel,
        policy: AdmissionPolicy,
        slo: Option<SloTracker>,
        make_seq: SeqFactory<M, D>,
    ) -> Self {
        Worker {
            id,
            engine,
            serving: ServeLoop::new(cost, policy, slo),
            make_seq,
            assigned: 0,
            lost: Vec::new(),
            panic: None,
        }
    }

    /// The worker thread's message loop.
    pub(crate) fn run(mut self, rx: Receiver<WorkerMsg>, tx: Sender<WorkerReply>) {
        while let Ok(msg) = rx.recv() {
            match msg {
                WorkerMsg::Submit(req) => {
                    if self.panic.is_some() {
                        self.lost.push(req.request.id);
                    } else {
                        self.assigned += 1;
                        // The class is resolved once, here — explicit tag,
                        // else exit-hint depth band — and keys the engine's
                        // feedback plane for the sequence's whole lifetime.
                        let class = req.traffic_class(self.engine.n_layers());
                        let (lane, deadline_s, id) = (req.lane, req.deadline_s, req.request.id);
                        self.serving.submit(req, lane, class, deadline_s, id);
                    }
                }
                WorkerMsg::SyncTo(frontier) => {
                    self.contained(|w| w.advance(frontier));
                    // Drain the evidence window at the boundary the loop
                    // is paused on — a deterministic point — so the
                    // coordinator's merge is a pure function of the
                    // workload. A failed worker gossips nothing.
                    let evidence = if self.panic.is_none() {
                        self.engine.take_gossip_evidence()
                    } else {
                        Vec::new()
                    };
                    if tx
                        .send(WorkerReply::Synced(Box::new(self.snapshot()), evidence))
                        .is_err()
                    {
                        return;
                    }
                }
                WorkerMsg::Gossip(evidence) => {
                    // Gossip lands at the paused loop boundary: stamp the
                    // recorder there so the engine's gossip event carries
                    // this worker's current simulated clock.
                    let now = self.serving.now();
                    self.contained(|w| {
                        if let Some(rec) = w.engine.recorder_mut() {
                            rec.set_clock(now);
                        }
                        w.engine.absorb_gossip(&evidence);
                    });
                }
                WorkerMsg::Cancel(id) => {
                    if self.panic.is_none() {
                        self.serving.cancel(&mut self.engine, id);
                    }
                }
                WorkerMsg::Drain => {
                    self.contained(|w| w.advance(f64::INFINITY));
                    let _ = tx.send(WorkerReply::Done(Box::new(self.into_report())));
                    return;
                }
            }
        }
    }

    /// Runs `work` with panic containment: a panic fails this worker —
    /// every request it can no longer serve is reported in
    /// [`WorkerReport::failed`], exactly once — never the cluster. A
    /// failed worker runs nothing further.
    fn contained(&mut self, work: impl FnOnce(&mut Self)) {
        if self.panic.is_some() {
            return;
        }
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| work(self))) {
            self.panic = Some(panic_message(payload.as_ref()));
            self.lost.extend(self.serving.outstanding_ids());
        }
    }

    /// Advances the serving loop to the arrival frontier.
    fn advance(&mut self, frontier: f64) {
        let make_seq = &self.make_seq;
        self.serving
            .advance(&mut self.engine, frontier, |req| make_seq(req));
    }

    pub(crate) fn snapshot(&self) -> WorkerSnapshot {
        let n_layers = self.engine.n_layers();
        let depth_of = |req: &ClusterRequest| req.exit_hint.unwrap_or(n_layers as f64);
        let queued = self
            .serving
            .queued()
            .map(|req| (req.request.gen_len, depth_of(req)));
        let active = self.serving.in_flight().map(|(req, tokens_done)| {
            let remaining = req.request.gen_len.saturating_sub(tokens_done);
            (remaining, depth_of(req))
        });
        let mut backlog_tokens = 0usize;
        let mut backlog_work = 0.0f64;
        let mut depth_sum = 0.0f64;
        let mut max_depth = f64::NEG_INFINITY;
        let mut residents = 0usize;
        for (tokens, depth) in queued.chain(active) {
            backlog_tokens += tokens;
            backlog_work += tokens as f64 * depth;
            depth_sum += depth;
            max_depth = max_depth.max(depth);
            residents += 1;
        }
        WorkerSnapshot {
            worker: self.id,
            sim_now: self.serving.now(),
            n_layers,
            occupancy: self.engine.occupancy(),
            queued: self.serving.queued().count(),
            backlog_tokens,
            backlog_work,
            active_depth: (residents > 0).then(|| depth_sum / residents as f64),
            max_depth: (residents > 0).then_some(max_depth),
            observed_depth: self.serving.observed_depth(),
            mean_threshold: self.engine.controller_summary().map(|s| s.mean_threshold),
            base_threshold: self.engine.controller_base_threshold().map(f64::from),
            class_thresholds: self
                .engine
                .controller_class_summaries()
                .map(|summaries| {
                    summaries
                        .into_iter()
                        .map(|(class, s)| (class, s.mean_threshold))
                        .collect()
                })
                .unwrap_or_default(),
            pages_in_use: self.engine.pool().pages_in_use(),
            page_capacity: self.engine.pool().capacity(),
            parked: self.engine.parked(),
            completed: self.serving.completed(),
            failed: self.panic.is_some(),
        }
    }

    fn into_report(mut self) -> WorkerReport {
        let observed_depth = self.serving.observed_depth();
        let live = self.serving.into_report();
        let recorder = self.engine.take_recorder();
        WorkerReport {
            worker: self.id,
            report: live.report,
            classes: class_rows(&live.outputs, self.engine.controller_class_summaries()),
            outputs: live.outputs,
            assigned: self.assigned,
            layer_sum: live.layer_sum,
            decode_tokens: live.decode_tokens,
            occupancy_sum: live.occupancy_sum,
            observed_depth,
            timed_out: live.timed_out,
            cancelled: live.cancelled,
            failed: self.lost,
            panic: self.panic,
            controller: self.engine.controller_summary(),
            dropped_events: recorder.as_ref().map_or(0, |r| r.dropped_events()),
            events: recorder.map(|r| r.into_events()).unwrap_or_default(),
            meter: self.engine.meter().clone(),
            preemptions: self.engine.preemptions(),
            resumes: self.engine.resumes(),
            prefix_tokens_reused: self.engine.prefix_tokens_reused(),
            kv: self.engine.kv_stats(),
        }
    }
}

/// Per-class rows of everything a worker decoded: one row per class seen
/// in outputs or controller state, counts and layer sums exact, the
/// operating point from the class's controller.
fn class_rows(
    outputs: &[BatchedOutput],
    controllers: Option<Vec<(TrafficClass, ControllerSummary)>>,
) -> Vec<ClassStats> {
    let mut rows: BTreeMap<TrafficClass, ClassStats> = BTreeMap::new();
    for out in outputs {
        let row = rows
            .entry(out.class)
            .or_insert_with(|| ClassStats::empty(out.class));
        row.requests += 1;
        row.tokens += out.exit_layers.len().saturating_sub(1) as u64;
        // The prefill token always runs full depth and is excluded
        // from decode-token depth, matching `observed_depth`.
        row.layer_sum += out.exit_layers.iter().skip(1).sum::<usize>() as f64;
    }
    for (class, summary) in controllers.into_iter().flatten() {
        let row = rows
            .entry(class)
            .or_insert_with(|| ClassStats::empty(class));
        row.mean_threshold = Some(summary.mean_threshold);
    }
    rows.into_values().collect()
}

/// Extracts a printable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}
