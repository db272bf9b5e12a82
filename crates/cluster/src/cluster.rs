//! The cluster coordinator: spawn, route, cancel, drain.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

use specee_batch::BatchedEngine;
use specee_control::{ClassEvidence, ControllerPolicy};
use specee_core::predictor::PredictorBank;
use specee_core::{ScheduleEngine, SpecEeConfig};
use specee_draft::SpeculativeSource;
use specee_model::LayeredLm;
use specee_obs::{EventKind, Recorder, SloSpec, SloTracker, COORDINATOR_LANE};
use specee_serve::batcher::ServeReport;
use specee_serve::cost::StepCostModel;
use specee_serve::{AdmissionPolicy, BatcherConfig};

use crate::report::ClusterReport;
use crate::request::ClusterRequest;
use crate::router::{Router, WorkerSnapshot};
use crate::worker::{SeqFactory, Worker, WorkerMsg, WorkerReply, WorkerReport};

/// Cluster-wide configuration: how many workers, and the per-worker
/// engine/pricing setup (every worker is a full live-serving instance
/// with the [`BatcherConfig`] capacity, hardware and cost dims).
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of data-parallel workers (one OS thread + engine each).
    pub workers: usize,
    /// KV page size for each worker's slot pool.
    pub page_size: usize,
    /// Physical-page ceiling for each worker's slot pool (`None` =
    /// uncapped, today's behavior). With a cap, a worker that cannot
    /// fund the next decode step parks its lowest-priority resident
    /// (when [`preemption`](ClusterConfig::preemption) is on) instead of
    /// aborting, and resumes it bit-identically once pages free up.
    pub page_capacity: Option<usize>,
    /// Copy-on-write prompt-prefix sharing across each worker's
    /// residents: admissions whose prompt prefix matches a resident's
    /// lease pages read-only and copy only on the first divergent write.
    /// Decoded tokens are unchanged — only physical page residency drops.
    pub prefix_share: bool,
    /// Page-pressure preemption. When on, an exhausted pool evicts the
    /// lowest-priority resident (highest [`specee_core::Lane`], then
    /// highest id) — its pages recycle, its generation state parks, and
    /// it resumes bit-identically when pages free; a higher-priority
    /// arrival may also evict a strictly lower-priority resident at
    /// admission. When off (default), page exhaustion panics the worker
    /// as before.
    pub preemption: bool,
    /// Per-worker admission policy: `Fcfs`, the only one, orders each
    /// worker's own queue.
    pub admission: AdmissionPolicy,
    /// Per-worker capacity and pricing (`max_batch` is *per worker*).
    pub batcher: BatcherConfig,
    /// Exit-threshold control policy. Every worker builds its *own*
    /// traffic-class-keyed controller from this
    /// ([`ControllerPolicy::build_classed_for_worker`], with
    /// `(worker, class)`-decorrelated bandit seeds) and adapts it from
    /// its local engine's per-class verifier feedback inside the
    /// deterministic serving loop — controller state therefore rides the
    /// arrival-frontier protocol and runs stay reproducible.
    /// [`ControllerPolicy::Static`] is today's fixed-threshold behavior.
    pub controller: ControllerPolicy,
    /// Structured tracing. When `true`, every worker's engine carries a
    /// [`specee_obs::Recorder`] on its own lane (exit decisions, priced
    /// steps, admissions, completions, controller applies, gossip
    /// absorbs, all stamped with the worker's simulated clock) and the
    /// coordinator records routing decisions — with the router's
    /// per-worker scores — on [`specee_obs::COORDINATOR_LANE`]. The
    /// merged, time-ordered stream lands in the drained
    /// [`ClusterReport::events`]; recording never feeds back into the
    /// simulation, so a traced run is bit-identical to an untraced one.
    pub trace: bool,
    /// Trace sampling period: every recorder lane (workers and
    /// coordinator) keeps a deterministic 1-in-N of each event *kind*
    /// and counts the rest as dropped ([`WorkerReport::dropped_events`],
    /// folded into [`ClusterReport::metrics`] as
    /// `specee_trace_dropped_events_total`). `1` (or `0`) keeps
    /// everything; ignored unless [`trace`](ClusterConfig::trace) is on.
    /// Sampling only thins the recorded stream — it never feeds back into
    /// the simulation.
    pub trace_sample: u32,
    /// Online SLO objectives, evaluated per worker. When set, every
    /// worker drives a [`SloTracker`] on its own simulated clock —
    /// admission TTFTs and verifier accept/reject outcomes feed its
    /// rolling windows, burn-rate alerts are evaluated at every clock
    /// advance, fired/cleared transitions land in the worker's trace
    /// lane (when tracing is on), and the tracker's pressure signal is
    /// pushed into the worker's controller
    /// (`BatchedEngine::controller_mut`; actuation requires an
    /// `slo+*` [`ControllerPolicy`]). The tracker runs independently of
    /// tracing, so traced and untraced runs stay bit-identical even
    /// while an objective burns.
    pub slo: Option<SloSpec>,
    /// Cross-worker controller gossip. When `true`, every arrival
    /// frontier the coordinator collects each worker's matured per-class
    /// evidence deltas with its snapshot and broadcasts to each worker
    /// the *other* workers' deltas, per reporter in worker-index order
    /// (deltas are deliberately not averaged across reporters — see
    /// the broadcast path's docs) — so drift observed by worker 0 warms
    /// worker 3's controller before its first request of that class,
    /// instead of being re-learned from scratch. Gossip rides the
    /// arrival-frontier protocol (collection and broadcast happen only
    /// at sync points), so adaptive runs stay bit-identical across
    /// executions; the static policy ignores evidence entirely.
    pub gossip: bool,
}

struct WorkerHandle {
    tx: Sender<WorkerMsg>,
    rx: Receiver<WorkerReply>,
    join: JoinHandle<()>,
    /// Ids routed to this worker (for failure accounting if the thread
    /// dies without reporting).
    assigned: Vec<u64>,
    dead: bool,
}

/// A running multi-worker serving cluster.
///
/// `submit` requests in nondecreasing arrival order, optionally `cancel`
/// some, then `drain` for the merged [`ClusterReport`]. Workers decode
/// concurrently on their own OS threads; determinism comes from the
/// **arrival-frontier protocol**: before a request is routed, every
/// worker is synchronized to the request's arrival time and snapshotted,
/// so the router's view — and hence every routing decision, admission
/// boundary and priced step — is a pure function of the workload, never
/// of thread scheduling. See the crate docs for the full protocol.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
///
/// use specee_cluster::{Cluster, ClusterConfig, ClusterRequest, RouterPolicy};
/// use specee_control::ControllerPolicy;
/// use specee_core::predictor::{PredictorBank, PredictorConfig};
/// use specee_core::{ScheduleEngine, SpecEeConfig};
/// use specee_metrics::{FrameworkProfile, HardwareProfile};
/// use specee_model::{CostDims, ModelConfig};
/// use specee_serve::{AdmissionPolicy, BatcherConfig, ServeRequest};
/// use specee_synth::{DatasetProfile, OracleDraft, SyntheticLm, SyntheticLmBuilder};
/// use specee_tensor::rng::Pcg;
///
/// let n_layers = 8;
/// let cfg = ModelConfig { n_layers, vocab_size: 256, ..ModelConfig::tiny() };
/// let pcfg = PredictorConfig { hidden_dim: 16, ..PredictorConfig::default() };
/// let bank = PredictorBank::new(n_layers, &pcfg, &mut Pcg::seed(1));
/// let spec = SpecEeConfig { predictor: pcfg, ..SpecEeConfig::default() };
/// let config = ClusterConfig {
///     workers: 2,
///     page_size: 16,
///     page_capacity: None,                 // or Some(n) to cap each worker's pool
///     prefix_share: false,                 // flip on for COW prompt-prefix sharing
///     preemption: false,                   // flip on to park/resume under pressure
///     admission: AdmissionPolicy::Fcfs,
///     batcher: BatcherConfig {
///         max_batch: 2,
///         hardware: HardwareProfile::a100_80g(),
///         framework: FrameworkProfile::vllm(),
///         cost: CostDims { n_layers, ..CostDims::llama2_7b() },
///     },
///     controller: ControllerPolicy::pid(), // per-worker adaptive thresholds
///     gossip: true,                        // share per-class drift across workers
///     trace: false,                        // flip on for a typed event timeline
///     trace_sample: 1,                     // keep every event when tracing
///     slo: None,                           // or SloSpec::parse("p99_ttft=0.25")
/// };
/// let model_cfg = cfg.clone();
/// let mut cluster: Cluster<SyntheticLm, OracleDraft> = Cluster::spawn(
///     &config,
///     RouterPolicy::ExitAware.build(),
///     &bank,
///     &ScheduleEngine::all_layers(n_layers),
///     &spec,
///     Arc::new(move |req| {
///         let lm = SyntheticLmBuilder::new(model_cfg.clone(), DatasetProfile::qa())
///             .seed(5)
///             .build();
///         let draft = OracleDraft::new(*lm.language(), 0.9, &model_cfg, req.request.id);
///         (lm, draft)
///     }),
/// );
/// for id in 0..4u64 {
///     let request = ServeRequest {
///         id,
///         prompt: vec![1, 2 + id as u32],
///         gen_len: 4,
///         arrival_s: id as f64 * 0.01,
///     };
///     cluster.submit(ClusterRequest::new(request).with_exit_hint(5.0));
/// }
/// let report = cluster.drain();
/// assert_eq!(report.completed(), 4);
/// assert!(report.workers.iter().all(|w| w.controller.is_some()));
/// ```
pub struct Cluster<M: LayeredLm, D: SpeculativeSource> {
    workers: Vec<WorkerHandle>,
    router: Box<dyn Router>,
    snapshots: Vec<WorkerSnapshot>,
    gossip: bool,
    /// Coordinator-lane recorder for routing decisions (`None` unless the
    /// cluster was spawned with tracing on).
    trace: Option<Recorder>,
    last_arrival: f64,
    unroutable: Vec<u64>,
    _seq: std::marker::PhantomData<(M, D)>,
}

impl<M, D> Cluster<M, D>
where
    M: LayeredLm + Send + 'static,
    D: SpeculativeSource + Send + 'static,
{
    /// Spawns the worker threads.
    ///
    /// Every worker gets its own [`BatchedEngine`] built from clones of
    /// `bank`/`schedule`/`spec_config`, and prices its steps with a
    /// [`StepCostModel`] built from the shared [`BatcherConfig`].
    /// `make_seq` constructs each admitted request's per-sequence model
    /// and draft, on the worker's thread.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero (engine/capacity validation is the
    /// per-worker [`BatchedEngine::new`]'s).
    pub fn spawn(
        config: &ClusterConfig,
        router: Box<dyn Router>,
        bank: &PredictorBank,
        schedule: &ScheduleEngine,
        spec_config: &SpecEeConfig,
        make_seq: SeqFactory<M, D>,
    ) -> Self {
        assert!(config.workers > 0, "cluster needs at least one worker");
        let n_layers = config.batcher.cost.n_layers;
        let mut workers = Vec::with_capacity(config.workers);
        let mut snapshots = Vec::with_capacity(config.workers);
        for id in 0..config.workers {
            let mut engine: BatchedEngine<M, D> = BatchedEngine::new(
                config.batcher.max_batch,
                config.page_size,
                n_layers,
                bank.clone(),
                schedule.clone(),
                spec_config.clone(),
            );
            engine.set_page_capacity(config.page_capacity);
            engine.enable_prefix_share(config.prefix_share);
            engine.set_preemption_enabled(config.preemption);
            engine.set_controller(config.controller.build_classed_for_worker(
                bank.len(),
                spec_config.predictor.threshold,
                id,
            ));
            if config.trace {
                let rec = Recorder::for_worker(id as u32);
                engine.set_recorder(Some(rec.with_sample_every(config.trace_sample.max(1))));
            }
            let cost = StepCostModel::new(
                config.batcher.cost,
                config.batcher.hardware.clone(),
                config.batcher.framework.clone(),
            );
            let slo = config.slo.clone().map(SloTracker::new);
            let worker = Worker::new(id, engine, cost, slo, make_seq.clone());
            snapshots.push(worker.snapshot());
            let (tx, worker_rx) = channel();
            let (worker_tx, rx) = channel();
            let join = std::thread::Builder::new()
                .name(format!("specee-cluster-worker-{id}"))
                .spawn(move || worker.run(worker_rx, worker_tx))
                .expect("spawn worker thread");
            workers.push(WorkerHandle {
                tx,
                rx,
                join,
                assigned: Vec::new(),
                dead: false,
            });
        }
        Cluster {
            workers,
            router,
            snapshots,
            gossip: config.gossip,
            trace: config.trace.then(|| {
                Recorder::for_worker(COORDINATOR_LANE).with_sample_every(config.trace_sample.max(1))
            }),
            last_arrival: f64::NEG_INFINITY,
            unroutable: Vec::new(),
            _seq: std::marker::PhantomData,
        }
    }

    /// Number of workers (failed ones included).
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The last synchronized snapshots, one per worker.
    pub fn snapshots(&self) -> &[WorkerSnapshot] {
        &self.snapshots
    }

    /// Routes one request into the cluster and returns the worker index
    /// it was dispatched to (`None` if every worker has failed; the id is
    /// then recorded as unroutable in the final report).
    ///
    /// # Panics
    ///
    /// Panics if arrivals are submitted out of order.
    pub fn submit(&mut self, req: ClusterRequest) -> Option<usize> {
        assert!(
            req.request.arrival_s >= self.last_arrival,
            "requests must be submitted in arrival order"
        );
        self.last_arrival = req.request.arrival_s;
        self.sync_to(req.request.arrival_s);
        if self.snapshots.iter().all(|s| s.failed) {
            self.unroutable.push(req.request.id);
            return None;
        }
        let mut w = self.router.route(&req, &self.snapshots);
        if self.snapshots[w].failed {
            // Defensive: a router returning a failed worker falls back to
            // the first live one instead of losing the request.
            w = self
                .snapshots
                .iter()
                .position(|s| !s.failed)
                .expect("checked above");
        }
        let id = req.request.id;
        if let Some(rec) = self.trace.as_mut() {
            rec.record_at(
                req.request.arrival_s,
                Some(id),
                EventKind::Routing {
                    request: id,
                    policy: self.router.name(),
                    chosen: w as u32,
                    scores: self.router.scores(&req, &self.snapshots),
                },
            );
        }
        if self.workers[w].tx.send(WorkerMsg::Submit(req)).is_err() {
            self.mark_dead(w);
            self.unroutable.push(id);
            return None;
        }
        self.workers[w].assigned.push(id);
        Some(w)
    }

    /// Best-effort cancellation of a previously submitted request:
    /// queued requests are dropped, a mid-decode sequence is retired with
    /// its partial output. Returns whether the id was known (already
    /// finished requests are unaffected either way).
    pub fn cancel(&mut self, id: u64) -> bool {
        for w in &mut self.workers {
            if w.assigned.contains(&id) {
                if !w.dead {
                    let _ = w.tx.send(WorkerMsg::Cancel(id));
                }
                return true;
            }
        }
        false
    }

    /// Synchronizes every live worker to the arrival frontier `t`,
    /// refreshes the routing snapshots, and — when gossip is enabled —
    /// broadcasts each worker the other workers' per-class evidence
    /// deltas. All workers advance their simulated clocks concurrently
    /// (this is where the data-parallel decoding actually happens); the
    /// broadcast walks reporters in worker-index order (each reporter's
    /// deltas already ascend by class), so the payload is a pure
    /// function of the workload.
    fn sync_to(&mut self, t: f64) {
        for w in 0..self.workers.len() {
            if self.workers[w].dead {
                continue;
            }
            if self.workers[w].tx.send(WorkerMsg::SyncTo(t)).is_err() {
                self.mark_dead(w);
            }
        }
        let mut evidence: Vec<Vec<ClassEvidence>> = vec![Vec::new(); self.workers.len()];
        for (w, slot) in evidence.iter_mut().enumerate() {
            if self.workers[w].dead {
                continue;
            }
            match self.workers[w].rx.recv() {
                Ok(WorkerReply::Synced(snapshot, deltas)) => {
                    self.snapshots[w] = *snapshot;
                    *slot = deltas;
                }
                _ => {
                    self.workers[w].dead = true;
                    self.snapshots[w].failed = true;
                }
            }
        }
        if self.gossip && self.workers.len() > 1 {
            self.broadcast_gossip(&evidence);
        }
    }

    /// Sends each live worker the evidence of every *other* worker (its
    /// own observations are excluded — it has already consumed them
    /// locally), as per-reporter deltas in worker-index order. Deltas
    /// are deliberately **not** averaged across reporters: a delta's
    /// reward was earned under its reporter's operating point, and a
    /// bandit credits the arm nearest that point — averaging two
    /// reporters' thresholds (say one parked on the 1.0 off-arm and one
    /// exploring 0.5) would attribute both workers' outcomes to an arm
    /// neither played. Per-class aggregation happens where it is sound:
    /// inside each reporter's window ([`ClassEvidence`] counters) and in
    /// the receiving controller's posterior. Skips workers with nothing
    /// to learn.
    fn broadcast_gossip(&mut self, evidence: &[Vec<ClassEvidence>]) {
        for w in 0..evidence.len() {
            if self.workers[w].dead {
                continue;
            }
            let payload: Vec<ClassEvidence> = evidence
                .iter()
                .enumerate()
                .filter(|(v, _)| *v != w)
                .flat_map(|(_, deltas)| deltas.iter().cloned())
                .collect();
            if payload.is_empty() {
                continue;
            }
            if self.workers[w].tx.send(WorkerMsg::Gossip(payload)).is_err() {
                self.mark_dead(w);
            }
        }
    }

    fn mark_dead(&mut self, w: usize) {
        self.workers[w].dead = true;
        self.snapshots[w].failed = true;
    }

    /// Graceful shutdown: every worker finishes its outstanding requests
    /// (no new admissions are possible once called), reports, and its
    /// thread is joined. Returns the merged per-worker and aggregate
    /// report.
    ///
    /// Every live worker is told to drain before any report is awaited,
    /// so the workers run down their queues concurrently; nothing crosses
    /// between workers after the last sync (no gossip, no routing), so
    /// each report is what a one-at-a-time drain would produce, and they
    /// are collected in worker-index order.
    pub fn drain(mut self) -> ClusterReport {
        let router = self.router.name().to_string();
        let coordinator_events = self.trace.map(|r| r.into_events()).unwrap_or_default();
        for handle in &mut self.workers {
            if !handle.dead && handle.tx.send(WorkerMsg::Drain).is_err() {
                handle.dead = true;
            }
        }
        let mut reports: Vec<WorkerReport> = Vec::with_capacity(self.workers.len());
        for (w, handle) in self.workers.into_iter().enumerate() {
            let report = if handle.dead {
                None
            } else {
                loop {
                    match handle.rx.recv() {
                        Ok(WorkerReply::Done(report)) => break Some(*report),
                        Ok(WorkerReply::Synced(..)) => continue,
                        Err(_) => break None,
                    }
                }
            };
            let report = report.unwrap_or_else(|| dead_worker_report(w, &handle.assigned));
            let _ = handle.join.join();
            reports.push(report);
        }
        ClusterReport::new(router, reports, self.unroutable, coordinator_events)
    }
}

/// Synthesized report for a worker whose thread died without reporting
/// (catch-unwind containment normally prevents this).
fn dead_worker_report(worker: usize, assigned: &[u64]) -> WorkerReport {
    WorkerReport {
        worker,
        report: ServeReport {
            completions: Vec::new(),
            makespan_s: 0.0,
            steps: 0,
            avg_occupancy: 0.0,
            avg_layers: 0.0,
        },
        outputs: Vec::new(),
        assigned: assigned.len(),
        layer_sum: 0.0,
        decode_tokens: 0,
        occupancy_sum: 0.0,
        observed_depth: None,
        timed_out: Vec::new(),
        cancelled: Vec::new(),
        failed: assigned.to_vec(),
        panic: Some("worker thread died without reporting".to_string()),
        controller: None,
        classes: Vec::new(),
        events: Vec::new(),
        dropped_events: 0,
        meter: specee_metrics::Meter::new(),
        preemptions: 0,
        resumes: 0,
        prefix_tokens_reused: 0,
        kv: specee_model::KvStats::default(),
    }
}
