//! The serving loop: genuine lock-step batched decoding on a simulated
//! clock, advanced incrementally.
//!
//! [`ServeLoop`] is the only code in the workspace that admits into and
//! steps a [`BatchedEngine`], and the only caller of the
//! [`StepCostModel`]'s two pricing functions.
//! [`ContinuousBatcher::run_live`] submits a whole request list to it and
//! advances to infinity; a `specee-cluster` worker feeds the same loop
//! from its message channel, one arrival frontier at a time. Both produce
//! a [`ServeReport`], and the dense reference is the same loop over an
//! engine whose sequences draft with `specee_draft::NoDraft` — so every
//! speedup curve compares steps that were executed and priced the same
//! way.

use std::collections::VecDeque;

use specee_batch::{Admission, BatchedEngine, BatchedOutput};
use specee_core::{Lane, TrafficClass};
use specee_draft::SpeculativeSource;
use specee_model::LayeredLm;
use specee_obs::{EventKind, SloTracker};

use crate::batcher::{AdmissionPolicy, ContinuousBatcher, ServeReport};
use crate::cost::{StepCostModel, StepSpec};
use crate::request::{Completion, ServeRequest};

/// Result of a live served run: the shared timing report plus the
/// genuinely decoded per-request outputs (in request order).
#[derive(Debug, Clone)]
pub struct LiveOutcome {
    /// Timing/occupancy report.
    pub report: ServeReport,
    /// Decoded token streams, exit layers and call counts, one entry per
    /// admitted request in engine-id order (empty streams for
    /// `gen_len == 0` requests, which complete at admission without
    /// decoding; the partial stream of a sequence cancelled mid-decode).
    pub outputs: Vec<BatchedOutput>,
    /// Sum of executed layers over decode steps (the numerator of
    /// `report.avg_layers`, for exact averaging across runs).
    pub layer_sum: f64,
    /// Decode tokens emitted in steps (excludes prefill tokens).
    pub decode_tokens: u64,
    /// Sum of batch occupancy over decode steps.
    pub occupancy_sum: f64,
    /// Ids dropped because their deadline passed while queued.
    pub timed_out: Vec<u64>,
    /// Ids cancelled while queued or mid-decode.
    pub cancelled: Vec<u64>,
}

/// A submitted request that has not been admitted yet.
struct Queued<R> {
    request: R,
    lane: Lane,
    class: TrafficClass,
    deadline_s: Option<f64>,
    engine_id: u64,
}

/// A request the engine holds, seated or parked.
struct InFlight<R> {
    request: R,
    engine_id: u64,
    first_token_s: f64,
    /// The loop's step count at admission.
    admitted_step: u64,
}

/// The serving loop: lane-first admission under a page budget, one priced
/// batched prefill per admission boundary, genuinely executed decode
/// steps priced from their measured [`specee_batch::BatchStep`], and
/// completion — over one [`BatchedEngine`], advanced incrementally.
///
/// The loop owns every piece of serving state (simulated clock, queues,
/// in-flight milestones, report sums, SLO tracker) and is lent the engine
/// on each call: pass the same, initially empty, engine every time. `R` is
/// the request payload handed back to `make_seq` at admission; the loop
/// itself reads only its [`ServeRequest`].
///
/// When a [`specee_obs::Recorder`] is attached to the engine, the loop
/// keeps its simulated clock stamped on it and records admissions, priced
/// decode steps and request-completion spans next to the engine's own
/// exit-decision events. Recording never feeds back into the simulation,
/// so a traced run is bit-identical to an untraced one.
///
/// With an [`SloTracker`], admission TTFTs and verifier accept/reject
/// outcomes feed its rolling windows, burn-rate alerts are evaluated at
/// every clock advance, fired/cleared transitions are recorded as
/// [`EventKind::SloFired`]/[`EventKind::SloCleared`] instants, and the
/// tracker's pressure is pushed into the engine's controller. The tracker
/// runs *independently* of the recorder, so attaching or detaching
/// tracing never changes the pressure the controller sees.
pub struct ServeLoop<R> {
    cost: StepCostModel,
    policy: AdmissionPolicy,
    slo: Option<SloTracker>,
    now: f64,
    /// Submitted requests the clock has not reached yet, arrival order.
    inbox: VecDeque<Queued<R>>,
    /// Arrived requests waiting for a slot, arrival order.
    pending: Vec<Queued<R>>,
    /// Requests picked for the current admission boundary (loop state,
    /// not a local, so a panic mid-admission cannot drop them
    /// unaccounted).
    admitting: VecDeque<Queued<R>>,
    /// The request id being admitted right now, for panic accounting.
    current_admission: Option<u64>,
    in_flight: Vec<InFlight<R>>,
    completions: Vec<Completion>,
    outputs: Vec<BatchedOutput>,
    steps: u64,
    occupancy_sum: f64,
    layer_sum: f64,
    token_sum: u64,
    timed_out: Vec<u64>,
    cancelled: Vec<u64>,
}

impl<R: AsRef<ServeRequest>> ServeLoop<R> {
    /// An idle loop at clock zero.
    pub fn new(cost: StepCostModel, policy: AdmissionPolicy, slo: Option<SloTracker>) -> Self {
        ServeLoop {
            cost,
            policy,
            slo,
            now: 0.0,
            inbox: VecDeque::new(),
            pending: Vec::new(),
            admitting: VecDeque::new(),
            current_admission: None,
            in_flight: Vec::new(),
            completions: Vec::new(),
            outputs: Vec::new(),
            steps: 0,
            occupancy_sum: 0.0,
            layer_sum: 0.0,
            token_sum: 0,
            timed_out: Vec::new(),
            cancelled: Vec::new(),
        }
    }

    /// Hands the loop a request (in nondecreasing arrival order). It
    /// becomes admissible once the clock reaches its arrival; if it is
    /// still queued when the clock passes `deadline_s` it is dropped and
    /// reported timed out. `engine_id` is the id the engine decodes it
    /// under ([`BatchedOutput::id`]) and the shortest-job-first
    /// tie-break; completions and trace events carry the request's own
    /// id.
    pub fn submit(
        &mut self,
        request: R,
        lane: Lane,
        class: TrafficClass,
        deadline_s: Option<f64>,
        engine_id: u64,
    ) {
        self.inbox.push_back(Queued {
            request,
            lane,
            class,
            deadline_s,
            engine_id,
        });
    }

    /// Runs the loop until its clock reaches `frontier` or it runs out of
    /// work, building each admitted request's model and draft with
    /// `make_seq`.
    ///
    /// A loop boundary at clock `s` is processed only while
    /// `s < frontier`: a caller that has submitted every request arriving
    /// before `frontier` thereby guarantees the set of arrivals `≤ s` is
    /// final, so same-instant arrivals share one batched prefill and no
    /// later submission can land between two boundaries already passed —
    /// feeding the loop incrementally is boundary-for-boundary identical
    /// to submitting everything and advancing to infinity.
    ///
    /// Each boundary admits lane-first (the best lane present wins, the
    /// policy orders within it), every pick reserving its admission pages
    /// out of a per-boundary budget so one boundary cannot overcommit the
    /// pool; a pick that does not fit may evict strictly lower-priority
    /// residents ([`BatchedEngine::make_room`], a no-op with preemption
    /// off) before the boundary has reserved anything of its own.
    ///
    /// # Panics
    ///
    /// Panics if a request's prompt can never fit the engine's page
    /// capacity, and propagates panics from `make_seq` and the engine;
    /// [`outstanding_ids`](Self::outstanding_ids) still accounts for
    /// every unfinished request afterwards.
    pub fn advance<M: LayeredLm, D: SpeculativeSource>(
        &mut self,
        engine: &mut BatchedEngine<M, D>,
        frontier: f64,
        mut make_seq: impl FnMut(&R) -> (M, D),
    ) {
        while self.now < frontier {
            let now = self.now;
            let arrived = self
                .inbox
                .partition_point(|q| q.request.as_ref().arrival_s <= now);
            self.pending.extend(self.inbox.drain(..arrived));
            let timed_out = &mut self.timed_out;
            self.pending.retain(|q| {
                let expired = q.deadline_s.is_some_and(|d| d < now);
                if expired {
                    timed_out.push(q.request.as_ref().id);
                }
                !expired
            });

            let mut pages_left = engine.pool().available_pages();
            while !self.pending.is_empty() {
                let best = self.pending.iter().map(|q| q.lane).min();
                let mut lane_mates = self
                    .pending
                    .iter()
                    .enumerate()
                    .filter(|(_, q)| Some(q.lane) == best);
                let picked = match self.policy {
                    AdmissionPolicy::Fcfs => lane_mates.next(),
                    AdmissionPolicy::ShortestJobFirst => {
                        lane_mates.min_by_key(|(_, q)| (q.request.as_ref().gen_len, q.engine_id))
                    }
                };
                let pick = picked.expect("pending non-empty").0;
                let (req, lane) = (self.pending[pick].request.as_ref(), self.pending[pick].lane);
                let need = if req.gen_len == 0 {
                    0
                } else {
                    engine.pages_for_admit(&req.prompt)
                };
                let fits = engine.occupancy() + self.admitting.len() < engine.max_batch()
                    && need <= pages_left;
                if !fits {
                    if !(self.admitting.is_empty() && engine.make_room(&req.prompt, lane)) {
                        assert!(
                            engine.occupancy() > 0
                                || engine.parked() > 0
                                || !self.admitting.is_empty(),
                            "page capacity too small to admit request {}",
                            req.id
                        );
                        break;
                    }
                    pages_left = engine.pool().available_pages();
                }
                pages_left = pages_left.saturating_sub(need);
                self.admitting.push_back(self.pending.remove(pick));
            }
            if !self.admitting.is_empty() {
                if let Some(rec) = engine.recorder_mut() {
                    let depth = self.pending.len() as u32;
                    for q in &self.admitting {
                        let request = q.request.as_ref().id;
                        rec.record_at(
                            self.now,
                            Some(request),
                            EventKind::Admission {
                                request,
                                queue_depth: depth,
                            },
                        );
                    }
                }
                let lens: Vec<usize> = self
                    .admitting
                    .iter()
                    .map(|q| q.request.as_ref().prompt.len())
                    .collect();
                self.now += self.cost.prefill_latency(&lens);
                // Keep the engine's recorder on the simulated clock so the
                // exit decisions its admissions/steps emit are stamped in
                // simulated seconds.
                if let Some(rec) = engine.recorder_mut() {
                    rec.set_clock(self.now);
                }
                while let Some(q) = self.admitting.pop_front() {
                    self.admit(engine, q, &mut make_seq);
                }
                self.slo_tick(engine);
            } else if engine.occupancy() > 0 || engine.parked() > 0 {
                self.step(engine);
            } else if let Some(next) = self.inbox.front() {
                // Idle: jump to the next arrival (deferred by the loop
                // condition until the frontier releases it). Idle time
                // drains the rolling windows, so a burn can clear
                // between bursts.
                self.now = self.now.max(next.request.as_ref().arrival_s);
                self.slo_tick(engine);
            } else {
                return;
            }
        }
    }

    /// Seats one admitted request (its prefill is already priced).
    fn admit<M: LayeredLm, D: SpeculativeSource>(
        &mut self,
        engine: &mut BatchedEngine<M, D>,
        q: Queued<R>,
        make_seq: &mut impl FnMut(&R) -> (M, D),
    ) {
        let req = q.request.as_ref();
        self.current_admission = Some(req.id);
        if let Some(t) = self.slo.as_mut() {
            t.observe_ttft(self.now, self.now - req.arrival_s);
        }
        if req.gen_len == 0 {
            // Keep one output per request so callers can zip by id.
            let out = BatchedOutput {
                id: q.engine_id,
                class: q.class,
                tokens: Vec::new(),
                exit_layers: Vec::new(),
                ce_sum: 0.0,
                predictor_calls: 0,
                verify_calls: 0,
                draft_calls: 0,
                self_draft_calls: 0,
            };
            self.complete(engine, req, self.now, out);
        } else {
            let (model, draft) = make_seq(&q.request);
            match engine.admit_laned(
                q.engine_id,
                q.class,
                q.lane,
                model,
                draft,
                &req.prompt,
                req.gen_len,
            ) {
                Admission::Done(out) => self.complete(engine, req, self.now, out),
                Admission::Seated { .. } => self.in_flight.push(InFlight {
                    request: q.request,
                    engine_id: q.engine_id,
                    first_token_s: self.now,
                    admitted_step: self.steps,
                }),
            }
        }
        self.current_admission = None;
    }

    /// One genuinely executed, priced decode step.
    fn step<M: LayeredLm, D: SpeculativeSource>(&mut self, engine: &mut BatchedEngine<M, D>) {
        if let Some(rec) = engine.recorder_mut() {
            rec.set_clock(self.now);
        }
        let step = engine.step();
        let occupancy = step.ctx_lens.len();
        let rearmost = step.rearmost_layer();
        self.layer_sum += step.layer_runners.iter().sum::<usize>() as f64;
        let dur = self.cost.decode_step_latency(&StepSpec {
            layer_runners: step.layer_runners,
            ctx_lens: step.ctx_lens,
            lm_head_evals: step.lm_head_evals as f64,
            draft_slots: step.draft_slots,
            self_draft_slots: step.self_draft_slots,
            predictor_calls: step.predictor_calls as f64,
        });
        if let Some(rec) = engine.recorder_mut() {
            rec.record_at(
                self.now,
                None,
                EventKind::Step {
                    step: self.steps,
                    occupancy: occupancy as u32,
                    layers: rearmost as u32,
                    dur_s: dur,
                },
            );
        }
        self.now += dur;
        self.steps += 1;
        self.occupancy_sum += occupancy as f64;
        self.token_sum += step.emitted as u64;
        if let Some(t) = self.slo.as_mut() {
            for fb in &step.feedback {
                t.observe_exit(self.now, fb.accepted);
            }
        }
        for out in step.finished {
            let pos = self
                .in_flight
                .iter()
                .position(|s| s.engine_id == out.id)
                .expect("a finished sequence was admitted by this loop");
            let seq = self.in_flight.remove(pos);
            self.complete(engine, seq.request.as_ref(), seq.first_token_s, out);
        }
        self.slo_tick(engine);
    }

    /// Books a request that finished at the current clock: its completion
    /// row, its `Request` span on the trace, its decoded output.
    fn complete<M: LayeredLm, D: SpeculativeSource>(
        &mut self,
        engine: &mut BatchedEngine<M, D>,
        req: &ServeRequest,
        first_token_s: f64,
        out: BatchedOutput,
    ) {
        self.completions.push(Completion {
            id: req.id,
            arrival_s: req.arrival_s,
            first_token_s,
            finish_s: self.now,
            tokens: out.tokens.len(),
        });
        if let Some(rec) = engine.recorder_mut() {
            rec.record_at(
                self.now,
                Some(req.id),
                EventKind::Request {
                    request: req.id,
                    arrival_s: req.arrival_s,
                    first_token_s,
                    finish_s: self.now,
                    tokens: out.tokens.len() as u32,
                },
            );
        }
        self.outputs.push(out);
    }

    /// Evaluates the burn-rate alerts at the clock the loop just reached,
    /// records any fired/cleared transitions, and pushes the pressure
    /// signal into the engine's controller. Measurement is
    /// recorder-independent: only the transition *instants* touch the
    /// recorder.
    fn slo_tick<M: LayeredLm, D: SpeculativeSource>(&mut self, engine: &mut BatchedEngine<M, D>) {
        let Some(tracker) = self.slo.as_mut() else {
            return;
        };
        for kind in tracker.evaluate(self.now) {
            if let Some(rec) = engine.recorder_mut() {
                rec.record_at(self.now, None, kind);
            }
        }
        engine.set_slo_pressure(tracker.pressure());
    }

    /// Best-effort cancellation by request id: a queued request vanishes,
    /// a seated or parked sequence is retired with its partial output; an
    /// unknown or already finished id is ignored.
    pub fn cancel<M: LayeredLm, D: SpeculativeSource>(
        &mut self,
        engine: &mut BatchedEngine<M, D>,
        id: u64,
    ) {
        let is = |r: &R| r.as_ref().id == id;
        if let Some(pos) = self.inbox.iter().position(|q| is(&q.request)) {
            self.inbox.remove(pos);
        } else if let Some(pos) = self.pending.iter().position(|q| is(&q.request)) {
            self.pending.remove(pos);
        } else if let Some(pos) = self.in_flight.iter().position(|s| is(&s.request)) {
            let seq = self.in_flight.remove(pos);
            self.outputs.extend(engine.cancel(seq.engine_id));
        } else {
            return;
        }
        self.cancelled.push(id);
    }

    /// Request ids handed to the loop that have neither completed, timed
    /// out nor been cancelled — each exactly once, even after a panic
    /// unwound through [`advance`](Self::advance).
    pub fn outstanding_ids(&self) -> Vec<u64> {
        let queued = self
            .admitting
            .iter()
            .chain(&self.inbox)
            .chain(&self.pending);
        self.current_admission
            .into_iter()
            .chain(queued.map(|q| q.request.as_ref().id))
            .chain(self.in_flight.iter().map(|s| s.request.as_ref().id))
            .collect()
    }

    /// The simulated clock, seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Requests completed so far.
    pub fn completed(&self) -> usize {
        self.completions.len()
    }

    /// Mean executed layers per decode token so far.
    pub fn observed_depth(&self) -> Option<f64> {
        (self.token_sum > 0).then(|| self.layer_sum / self.token_sum as f64)
    }

    /// Requests not admitted yet: the arrived first, then those the clock
    /// has not reached, each in arrival order.
    pub fn queued(&self) -> impl Iterator<Item = &R> {
        self.pending.iter().chain(&self.inbox).map(|q| &q.request)
    }

    /// Requests the engine holds, in admission order, each with the
    /// tokens it has had the chance to emit (the prefill token plus one
    /// per step since).
    pub fn in_flight(&self) -> impl Iterator<Item = (&R, usize)> {
        self.in_flight
            .iter()
            .map(|s| (&s.request, 1 + (self.steps - s.admitted_step) as usize))
    }

    /// Ends the run: completions in request-id order, outputs in
    /// engine-id order, the makespan at the current clock.
    pub fn into_report(mut self) -> LiveOutcome {
        self.completions.sort_by_key(|c| c.id);
        self.outputs.sort_by_key(|o| o.id);
        let mean = |sum: f64, n: u64| if n > 0 { sum / n as f64 } else { 0.0 };
        LiveOutcome {
            report: ServeReport {
                completions: self.completions,
                makespan_s: self.now,
                steps: self.steps,
                avg_occupancy: mean(self.occupancy_sum, self.steps),
                avg_layers: mean(self.layer_sum, self.token_sum),
            },
            outputs: self.outputs,
            layer_sum: self.layer_sum,
            decode_tokens: self.token_sum,
            occupancy_sum: self.occupancy_sum,
            timed_out: self.timed_out,
            cancelled: self.cancelled,
        }
    }
}

impl ContinuousBatcher {
    /// Serves `requests` by live batched decoding on `engine`: submits
    /// them all to a [`ServeLoop`] and runs it dry.
    ///
    /// `make_seq` builds the per-sequence model and draft for a request at
    /// admission time (each engine slot owns its sequence's KV state).
    /// Admission follows the batcher's policy; prefill is priced as one
    /// batched forward at admission, decode steps are priced from the
    /// engine's measured [`specee_batch::BatchStep`]. Seating every
    /// sequence with `specee_draft::NoDraft` serves the dense reference.
    /// A recorder attached to the engine (`engine.set_recorder(..)`) and
    /// an SLO specification on the batcher
    /// ([`with_slo`](ContinuousBatcher::with_slo)) are driven as
    /// [`ServeLoop`] describes; retrieve the event stream afterwards with
    /// `engine.take_recorder()`.
    ///
    /// # Panics
    ///
    /// Panics if the engine's batch cap or layer depth disagrees with the
    /// batcher configuration, the engine is not empty, or arrivals are not
    /// sorted.
    pub fn run_live<M, D, F>(
        &self,
        requests: &[ServeRequest],
        engine: &mut BatchedEngine<M, D>,
        make_seq: F,
    ) -> LiveOutcome
    where
        M: LayeredLm,
        D: SpeculativeSource,
        F: FnMut(&ServeRequest) -> (M, D),
    {
        self.run_live_laned(requests, &[], engine, make_seq)
    }

    /// [`run_live`](Self::run_live) with per-request priority lanes.
    ///
    /// `lanes[i]` is request `i`'s priority lane (lower = higher
    /// priority); an empty slice means every request rides the default
    /// lane, which makes this method bit-identical to
    /// [`run_live`](Self::run_live). Whether a page-gated admission may
    /// evict lower-priority residents is the engine's own setting
    /// ([`BatchedEngine::set_preemption_enabled`]); the engine re-seats
    /// parked sequences, bit-identically, as pages free up. Sequences
    /// decode under their request *index* as engine id and the default
    /// traffic class.
    ///
    /// # Panics
    ///
    /// Panics like [`run_live`](Self::run_live), if `lanes` is non-empty
    /// but shorter than `requests`, or if a request's prompt can never
    /// fit the engine's page capacity.
    pub fn run_live_laned<M, D, F>(
        &self,
        requests: &[ServeRequest],
        lanes: &[Lane],
        engine: &mut BatchedEngine<M, D>,
        mut make_seq: F,
    ) -> LiveOutcome
    where
        M: LayeredLm,
        D: SpeculativeSource,
        F: FnMut(&ServeRequest) -> (M, D),
    {
        assert!(
            lanes.is_empty() || lanes.len() >= requests.len(),
            "one lane per request (or none at all)"
        );
        assert_eq!(
            engine.max_batch(),
            self.config.max_batch,
            "engine batch cap must match the batcher's"
        );
        assert_eq!(
            engine.n_layers(),
            self.config.cost.n_layers,
            "engine depth must match the priced dims"
        );
        assert_eq!(engine.occupancy(), 0, "engine must start empty");
        assert!(
            requests
                .windows(2)
                .all(|w| w[0].arrival_s <= w[1].arrival_s),
            "requests must be sorted by arrival"
        );
        let slo = self.slo.clone().map(SloTracker::new);
        let mut serving = ServeLoop::new(self.model.clone(), self.policy, slo);
        for (i, req) in requests.iter().enumerate() {
            let lane = lanes.get(i).copied().unwrap_or_default();
            serving.submit(req, lane, TrafficClass::DEFAULT, None, i as u64);
        }
        serving.advance(engine, f64::INFINITY, |req| make_seq(req));
        serving.into_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::BatcherConfig;
    use crate::request::PoissonArrivals;
    use specee_core::collect::{collect_training_data, train_bank};
    use specee_core::engine::SpecEeEngine;
    use specee_core::predictor::{PredictorBank, PredictorConfig};
    use specee_core::{ScheduleEngine, SpecEeConfig};
    use specee_metrics::{FrameworkProfile, HardwareProfile};
    use specee_model::{CostDims, ModelConfig, TokenId};
    use specee_nn::TrainConfig;
    use specee_synth::{DatasetProfile, OracleDraft, SyntheticLm, SyntheticLmBuilder};
    use specee_tensor::rng::Pcg;

    const N_LAYERS: usize = 8;

    fn cfg() -> ModelConfig {
        ModelConfig {
            n_layers: N_LAYERS,
            vocab_size: 256,
            ..ModelConfig::tiny()
        }
    }

    /// Cost dims matching the executed depth so live layer_runners line up.
    fn cost_dims() -> CostDims {
        CostDims {
            n_layers: N_LAYERS,
            ..CostDims::llama2_7b()
        }
    }

    fn batcher(max_batch: usize) -> ContinuousBatcher {
        ContinuousBatcher::new(BatcherConfig {
            max_batch,
            hardware: HardwareProfile::a100_80g(),
            framework: FrameworkProfile::vllm(),
            cost: cost_dims(),
        })
    }

    fn build_lm(seed: u64) -> SyntheticLm {
        SyntheticLmBuilder::new(cfg(), DatasetProfile::qa())
            .seed(seed)
            .build()
    }

    fn trained(seed: u64) -> (PredictorBank, ScheduleEngine, SpecEeConfig) {
        let mut lm = build_lm(seed);
        let mut draft = OracleDraft::new(*lm.language(), 0.9, &cfg(), seed);
        let prompts: Vec<(Vec<TokenId>, usize)> =
            (0..8u32).map(|i| (vec![1 + i, 2 + i], 8usize)).collect();
        let data = collect_training_data(&mut lm, &mut draft, &prompts, 4);
        let pcfg = PredictorConfig {
            hidden_dim: 16,
            ..PredictorConfig::default()
        };
        let mut bank = PredictorBank::new(N_LAYERS, &pcfg, &mut Pcg::seed(seed));
        train_bank(&mut bank, &data.samples, 1.0, &TrainConfig::default(), seed);
        let config = SpecEeConfig {
            predictor: pcfg,
            ..SpecEeConfig::default()
        };
        let schedule = config.build_schedule(N_LAYERS, Some(&data.exit_frequencies));
        (bank, schedule, config)
    }

    fn live_engine(
        max_batch: usize,
        parts: &(PredictorBank, ScheduleEngine, SpecEeConfig),
    ) -> BatchedEngine<SyntheticLm, OracleDraft> {
        BatchedEngine::new(
            max_batch,
            16,
            N_LAYERS,
            parts.0.clone(),
            parts.1.clone(),
            parts.2.clone(),
        )
    }

    fn specs(n: usize, gen: usize) -> Vec<(Vec<TokenId>, usize)> {
        (0..n as u32)
            .map(|i| (vec![2 + i, 5 + i, 1 + i], gen))
            .collect()
    }

    #[test]
    fn live_run_completes_every_request_with_ordered_milestones() {
        let seed = 41;
        let parts = trained(seed);
        let requests = PoissonArrivals::new(20.0, 7).requests(&specs(6, 8));
        let b = batcher(3);
        let mut engine = live_engine(3, &parts);
        let outcome = b.run_live(&requests, &mut engine, |r| {
            let lm = build_lm(seed);
            let draft = OracleDraft::new(*lm.language(), 0.9, &cfg(), seed ^ r.id);
            (lm, draft)
        });
        assert_eq!(outcome.report.completions.len(), 6);
        assert_eq!(outcome.outputs.len(), 6);
        for (c, r) in outcome.report.completions.iter().zip(&requests) {
            assert_eq!(c.id, r.id);
            assert!(c.first_token_s >= r.arrival_s);
            assert!(c.finish_s >= c.first_token_s);
            assert_eq!(c.tokens, 8);
        }
        for (o, r) in outcome.outputs.iter().zip(&requests) {
            assert_eq!(o.id, r.id);
            assert_eq!(o.tokens.len(), 8);
        }
        let stats = outcome.report.stats();
        assert!(stats.throughput_tok_s > 0.0);
        assert!(outcome.report.avg_layers <= N_LAYERS as f64);
        assert_eq!(engine.occupancy(), 0);
        assert_eq!(engine.pool().pages_in_use(), 0);
    }

    #[test]
    fn live_tokens_match_replayed_traces_and_timing_is_close() {
        // Run each request alone on a fresh single-stream engine, then
        // serve them all live with identically seeded sequences: greedy
        // decoding is batch-invariant, so token streams, exit layers and
        // the mean decode depth must be identical.
        let seed = 43;
        let parts = trained(seed);
        let specs = specs(5, 8);
        let mut solo = Vec::new();
        for (i, (p, g)) in specs.iter().enumerate() {
            let lm = build_lm(seed);
            let draft = OracleDraft::new(*lm.language(), 0.9, &cfg(), seed ^ i as u64);
            let mut engine =
                SpecEeEngine::new(lm, draft, parts.0.clone(), parts.1.clone(), parts.2.clone());
            solo.push(engine.generate(p, *g));
        }
        let requests = PoissonArrivals::new(30.0, 5).requests(&specs);
        let b = batcher(2);
        let mut engine = live_engine(2, &parts);
        let live = b.run_live(&requests, &mut engine, |r| {
            let lm = build_lm(seed);
            let draft = OracleDraft::new(*lm.language(), 0.9, &cfg(), seed ^ r.id);
            (lm, draft)
        });
        for (out, alone) in live.outputs.iter().zip(&solo) {
            assert_eq!(out.tokens, alone.tokens, "request {}", out.id);
            assert_eq!(out.exit_layers, alone.exit_layers, "request {}", out.id);
        }
        // The prefill token is not a decode step.
        let decode_layers = solo.iter().flat_map(|o| &o.exit_layers[1..]);
        let mean = decode_layers.clone().sum::<usize>() as f64 / decode_layers.count() as f64;
        assert!((live.report.avg_layers - mean).abs() < 1e-9);
    }

    #[test]
    fn traced_live_run_is_bit_identical_and_stamps_simulated_seconds() {
        let seed = 59;
        let parts = trained(seed);
        let requests = PoissonArrivals::new(20.0, 11).requests(&specs(6, 8));
        let b = batcher(3);
        let run = |engine: &mut BatchedEngine<SyntheticLm, OracleDraft>| {
            b.run_live(&requests, engine, |r| {
                let lm = build_lm(seed);
                let draft = OracleDraft::new(*lm.language(), 0.9, &cfg(), seed ^ r.id);
                (lm, draft)
            })
        };
        let mut plain_engine = live_engine(3, &parts);
        let plain = run(&mut plain_engine);
        let mut traced_engine = live_engine(3, &parts);
        traced_engine.set_recorder(Some(specee_obs::Recorder::for_worker(0)));
        let traced = run(&mut traced_engine);

        // Tracing must not perturb the simulation in any way.
        assert_eq!(plain.report, traced.report);
        for (a, t) in plain.outputs.iter().zip(&traced.outputs) {
            assert_eq!(a.tokens, t.tokens);
            assert_eq!(a.exit_layers, t.exit_layers);
        }

        let events = traced_engine
            .take_recorder()
            .expect("recorder survives the run")
            .into_events();
        let count =
            |f: fn(&specee_obs::EventKind) -> bool| events.iter().filter(|e| f(&e.kind)).count();
        assert_eq!(count(|k| matches!(k, EventKind::Admission { .. })), 6);
        assert_eq!(count(|k| matches!(k, EventKind::Request { .. })), 6);
        assert_eq!(
            count(|k| matches!(k, EventKind::Step { .. })) as u64,
            traced.report.steps
        );
        // Exit decisions ride the simulated clock the batcher stamps: every
        // accepted decision matches one decoded early exit (the prefill
        // token is emitted without a predictor scan).
        let early: usize = traced
            .outputs
            .iter()
            .map(|o| {
                o.exit_layers
                    .iter()
                    .skip(1)
                    .filter(|&&l| l < N_LAYERS)
                    .count()
            })
            .sum();
        assert_eq!(
            count(|k| matches!(k, EventKind::ExitDecision { accepted: true, .. })),
            early
        );
        assert!(early > 0, "workload must exercise early exits");
        for e in &events {
            assert!(e.t >= 0.0 && e.t <= traced.report.makespan_s + 1e-9);
            assert_eq!(e.worker, 0);
        }
    }

    #[test]
    fn slo_tracked_live_run_is_bit_identical_with_sampling_and_budget() {
        // An impossible TTFT target fires mid-run and pushes real
        // pressure into an slo+static controller — and even then a run
        // traced through a sampled, budget-bounded recorder must match an
        // untraced run bit for bit, because the tracker (and hence the
        // pressure the controller sees) never touches the recorder.
        use specee_control::ControllerPolicy;
        use specee_obs::{Recorder, SloSpec};
        let seed = 61;
        let parts = trained(seed);
        let requests = PoissonArrivals::new(60.0, 13).requests(&specs(8, 10));
        let slo = SloSpec::parse("p99_ttft=0.001").expect("valid spec");
        let b = batcher(2).with_slo(slo);
        let run = |rec: Option<Recorder>| {
            let mut engine = live_engine(2, &parts);
            engine.set_controller(
                ControllerPolicy::Static
                    .slo_adaptive()
                    .build_classed(N_LAYERS, parts.2.predictor.threshold),
            );
            engine.set_recorder(rec);
            let outcome = b.run_live(&requests, &mut engine, |r| {
                let lm = build_lm(seed);
                let draft = OracleDraft::new(*lm.language(), 0.9, &cfg(), seed ^ r.id);
                (lm, draft)
            });
            let summary = engine.controller_summary().expect("controller attached");
            (outcome, engine.take_recorder(), summary)
        };
        let (plain, _, plain_sum) = run(None);
        let (traced, rec, traced_sum) = run(Some(
            Recorder::for_worker(0).with_sample_every(3).with_budget(64),
        ));
        assert_eq!(plain.report, traced.report);
        for (a, t) in plain.outputs.iter().zip(&traced.outputs) {
            assert_eq!(a.tokens, t.tokens);
            assert_eq!(a.exit_layers, t.exit_layers);
        }
        assert_eq!(plain_sum, traced_sum);
        assert_eq!(plain_sum.policy, "slo+static");
        let rec = rec.expect("recorder survives the run");
        assert!(rec.dropped_events() > 0, "sampling+budget must drop");
        let events = rec.into_events();
        assert!(events.len() <= 64, "budget holds");
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, EventKind::SloFired { .. })),
            "the impossible target must fire in the trace"
        );
    }

    #[test]
    fn slo_fired_and_cleared_transitions_land_in_the_trace() {
        // One dense burst against an impossible target, then a long idle
        // gap before a final trickle request: the burn must fire during
        // the burst and clear once the windows drain over the gap.
        use specee_obs::{Recorder, SloSpec};
        let seed = 67;
        let parts = trained(seed);
        let mut requests = PoissonArrivals::new(80.0, 17).requests(&specs(8, 8));
        let mut straggler = requests[7].clone();
        straggler.id = 8;
        straggler.arrival_s = requests[7].arrival_s + 30.0;
        requests.push(straggler);
        let b = batcher(2).with_slo(SloSpec::parse("p99_ttft=0.001").expect("valid spec"));
        let mut engine = live_engine(2, &parts);
        engine.set_recorder(Some(Recorder::for_worker(0)));
        let outcome = b.run_live(&requests, &mut engine, |r| {
            let lm = build_lm(seed);
            let draft = OracleDraft::new(*lm.language(), 0.9, &cfg(), seed ^ r.id);
            (lm, draft)
        });
        assert_eq!(outcome.report.completions.len(), requests.len());
        let events = engine
            .take_recorder()
            .expect("recorder survives")
            .into_events();
        let fired: Vec<f64> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SloFired { .. }))
            .map(|e| e.t)
            .collect();
        let cleared: Vec<f64> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SloCleared { .. }))
            .map(|e| e.t)
            .collect();
        assert!(!fired.is_empty(), "burst must fire the alert");
        assert!(!cleared.is_empty(), "idle gap must clear the alert");
        assert!(fired[0] < cleared[0], "fire precedes clear");
        // Transitions alternate: no double-fire without a clear between.
        let mut transitions: Vec<(f64, bool)> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::SloFired { .. } => Some((e.t, true)),
                EventKind::SloCleared { .. } => Some((e.t, false)),
                _ => None,
            })
            .collect();
        transitions.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        for w in transitions.windows(2) {
            assert_ne!(w[0].1, w[1].1, "fired/cleared must alternate");
        }
    }

    #[test]
    fn live_gen_len_one_finishes_at_prefill() {
        let seed = 47;
        let parts = trained(seed);
        let requests = PoissonArrivals::new(10.0, 3).requests(&[(vec![1, 2, 3], 1)]);
        let b = batcher(2);
        let mut engine = live_engine(2, &parts);
        let outcome = b.run_live(&requests, &mut engine, |r| {
            let lm = build_lm(seed);
            let draft = OracleDraft::new(*lm.language(), 0.9, &cfg(), seed ^ r.id);
            (lm, draft)
        });
        assert_eq!(outcome.report.completions.len(), 1);
        assert_eq!(outcome.report.steps, 0);
        assert_eq!(
            outcome.report.completions[0].finish_s,
            outcome.report.completions[0].first_token_s
        );
        assert_eq!(outcome.outputs[0].tokens.len(), 1);
    }

    #[test]
    fn live_zero_gen_len_keeps_output_alignment() {
        // A zero-length request in the middle of the burst must still get
        // an (empty) outputs entry so positional zips stay aligned.
        let seed = 53;
        let parts = trained(seed);
        let mut requests = PoissonArrivals::new(10.0, 3).requests(&specs(3, 6));
        requests[1].gen_len = 0;
        let b = batcher(2);
        let mut engine = live_engine(2, &parts);
        let outcome = b.run_live(&requests, &mut engine, |r| {
            let lm = build_lm(seed);
            let draft = OracleDraft::new(*lm.language(), 0.9, &cfg(), seed ^ r.id);
            (lm, draft)
        });
        assert_eq!(outcome.report.completions.len(), 3);
        assert_eq!(outcome.outputs.len(), 3);
        for (k, out) in outcome.outputs.iter().enumerate() {
            assert_eq!(out.id, k as u64);
        }
        assert!(outcome.outputs[1].tokens.is_empty());
        assert_eq!(outcome.outputs[0].tokens.len(), 6);
        assert_eq!(outcome.report.completions[1].tokens, 0);
    }

    #[test]
    fn laned_run_with_default_lanes_is_bit_identical_to_run_live() {
        // The memory plane disengaged must be invisible: explicit
        // all-default lanes, no capacity, no preemption ≡ plain run_live.
        let seed = 71;
        let parts = trained(seed);
        let requests = PoissonArrivals::new(20.0, 19).requests(&specs(6, 8));
        let lanes = vec![specee_core::Lane::DEFAULT; requests.len()];
        let b = batcher(3);
        let make = |r: &ServeRequest| {
            let lm = build_lm(seed);
            let draft = OracleDraft::new(*lm.language(), 0.9, &cfg(), seed ^ r.id);
            (lm, draft)
        };
        let mut plain_engine = live_engine(3, &parts);
        let plain = b.run_live(&requests, &mut plain_engine, make);
        let mut laned_engine = live_engine(3, &parts);
        let laned = b.run_live_laned(&requests, &lanes, &mut laned_engine, make);
        assert_eq!(plain.report, laned.report);
        for (a, l) in plain.outputs.iter().zip(&laned.outputs) {
            assert_eq!(a.tokens, l.tokens);
            assert_eq!(a.exit_layers, l.exit_layers);
        }
        assert_eq!(laned_engine.preemptions(), 0);
    }

    #[test]
    fn preempting_capped_run_decodes_the_same_tokens() {
        // Page pressure reorders *when* sequences decode, never *what*
        // they decode: a capacity-capped, preempting run must produce
        // the exact token streams of an uncapped one.
        let seed = 73;
        let parts = trained(seed);
        let requests = PoissonArrivals::new(40.0, 23).requests(&specs(6, 20));
        let lanes: Vec<specee_core::Lane> = (0..requests.len())
            .map(|i| specee_core::Lane::new((i % 3) as u8))
            .collect();
        let b = batcher(3);
        let make = |r: &ServeRequest| {
            let lm = build_lm(seed);
            let draft = OracleDraft::new(*lm.language(), 0.9, &cfg(), seed ^ r.id);
            (lm, draft)
        };
        let mut free_engine = live_engine(3, &parts);
        let free = b.run_live_laned(&requests, &lanes, &mut free_engine, make);
        let mut capped_engine = live_engine(3, &parts);
        // Final KV per sequence: 3 + 19 = 22 tokens → 2 pages of 16; a
        // cap of 4 cannot hold three such sequences.
        capped_engine.set_page_capacity(Some(4));
        capped_engine.set_preemption_enabled(true);
        let capped = b.run_live_laned(&requests, &lanes, &mut capped_engine, make);
        assert!(
            capped_engine.preemptions() > 0,
            "the cap must force evictions"
        );
        assert_eq!(capped_engine.preemptions(), capped_engine.resumes());
        assert_eq!(free.outputs.len(), capped.outputs.len());
        for (a, c) in free.outputs.iter().zip(&capped.outputs) {
            assert_eq!(a.tokens, c.tokens, "request {}", a.id);
            assert_eq!(a.exit_layers, c.exit_layers, "request {}", a.id);
        }
        assert_eq!(capped.report.completions.len(), requests.len());
        assert!(capped_engine.pool().pages_peak() <= 4, "cap honoured");
    }

    #[test]
    fn lanes_with_preemption_hold_high_priority_ttft_under_page_starvation() {
        // Two low-priority hogs fill every slot and page; a high-priority
        // request arrives mid-decode. Without preemption it waits for a
        // hog to finish; with lanes + preemption a hog is evicted and the
        // request admits immediately.
        let seed = 79;
        let parts = trained(seed);
        let mut requests = vec![
            ServeRequest {
                id: 0,
                prompt: vec![2, 5, 1],
                gen_len: 12,
                arrival_s: 0.0,
            },
            ServeRequest {
                id: 1,
                prompt: vec![3, 6, 2],
                gen_len: 12,
                arrival_s: 0.0,
            },
        ];
        // Arrives once both hogs are seated and decoding.
        requests.push(ServeRequest {
            id: 2,
            prompt: vec![4, 7, 3],
            gen_len: 4,
            arrival_s: 0.002,
        });
        let lanes = vec![
            specee_core::Lane::new(2),
            specee_core::Lane::new(2),
            specee_core::Lane::new(0),
        ];
        let b = batcher(2);
        let make = |r: &ServeRequest| {
            let lm = build_lm(seed);
            let draft = OracleDraft::new(*lm.language(), 0.9, &cfg(), seed ^ r.id);
            (lm, draft)
        };
        let run = |preempt: bool| {
            let mut engine = live_engine(2, &parts);
            engine.set_page_capacity(Some(2));
            engine.set_preemption_enabled(preempt);
            let outcome = b.run_live_laned(&requests, &lanes, &mut engine, make);
            let ttft = outcome
                .report
                .completions
                .iter()
                .find(|c| c.id == 2)
                .expect("high-priority completion")
                .ttft_s();
            (outcome, ttft, engine.preemptions())
        };
        let (stalled_run, stalled_ttft, p0) = run(false);
        let (preempt_run, preempt_ttft, p1) = run(true);
        assert_eq!(p0, 0);
        assert!(p1 > 0, "the high-priority arrival must evict a hog");
        assert!(
            preempt_ttft < stalled_ttft * 0.5,
            "preemption must hold the high-priority TTFT: {preempt_ttft} vs {stalled_ttft}"
        );
        // Work conservation: every request still finishes in both runs.
        assert_eq!(stalled_run.report.completions.len(), 3);
        assert_eq!(preempt_run.report.completions.len(), 3);
        for (a, b) in stalled_run.outputs.iter().zip(&preempt_run.outputs) {
            assert_eq!(a.tokens, b.tokens, "request {}", a.id);
        }
    }

    #[test]
    fn prefix_reuse_changes_no_token_no_clock_and_no_page() {
        // Two 32-token system prompts under lanes and a tight page cap.
        // A factory that clones one template seats sequences that share
        // weights, so a newcomer copies the pages a resident holds; one
        // that builds a model per request shares nothing and prefills
        // them. Everything the run reports must agree, to the bit.
        use specee_obs::{EventKind, Recorder};
        let seed = 97;
        let parts = trained(seed);
        let prefix = |p: u32| (0..32u32).map(move |i| 1 + (7 * i + 90 * p) % 200);
        let req = |id: u64, p: u32, gen_len: usize, arrival_s: f64| ServeRequest {
            id,
            prompt: prefix(p)
                .chain([201 + id as u32, 210, 220 + id as u32])
                .collect(),
            gen_len,
            arrival_s,
        };
        // `req(id, prefix, gen, arrival)`: two holders of prefix 0 fill
        // both slots and the urgent arrivals park them one after the
        // other, so a later request with prefix 0 meets no holder of it.
        let requests = vec![
            req(0, 0, 40, 0.0),
            req(1, 0, 10, 0.0),
            req(2, 0, 4, 0.002),
            req(3, 1, 6, 0.004),
            req(4, 0, 6, 0.03),
            req(5, 1, 6, 0.03),
        ];
        let lanes: Vec<Lane> = [2, 1, 0, 1, 1, 0].map(Lane::new).to_vec();
        let template = build_lm(seed);
        let run = |cloned: bool, share: bool| {
            let mut engine = live_engine(2, &parts);
            engine.enable_prefix_share(share);
            engine.set_page_capacity(Some(6));
            engine.set_preemption_enabled(true);
            engine.set_recorder(Some(Recorder::for_worker(0)));
            let outcome = batcher(2).run_live_laned(&requests, &lanes, &mut engine, |r| {
                let lm = if cloned {
                    template.clone()
                } else {
                    build_lm(seed)
                };
                let draft = OracleDraft::new(*lm.language(), 0.9, &cfg(), seed ^ r.id);
                (lm, draft)
            });
            let events = engine.take_recorder().expect("attached").into_events();
            (outcome, events, engine)
        };
        let (fresh, fresh_events, fresh_engine) = run(false, true);
        let (cloned, cloned_events, cloned_engine) = run(true, true);
        assert_eq!(cloned.report, fresh.report);
        assert_eq!(cloned.outputs, fresh.outputs);
        assert_eq!(cloned_events, fresh_events, "the same priced timeline");
        assert_eq!(cloned_engine.kv_stats(), fresh_engine.kv_stats());
        assert_eq!(cloned_engine.meter(), fresh_engine.meter());
        assert_eq!(cloned_engine.preemptions(), fresh_engine.preemptions());
        assert_eq!(cloned_engine.resumes(), fresh_engine.resumes());
        assert_eq!(cloned.report.completions.len(), requests.len());
        let (unshared, _, _) = run(true, false);
        assert_eq!(cloned.outputs, unshared.outputs, "and of private leases");

        // Requests 0, 2 and 3 find a registered holder of their prefix.
        // Request 5 is the first of its prefix; request 4 is admitted
        // while both holders of its prefix are parked, so it prefills.
        assert_eq!(fresh_engine.prefix_tokens_reused(), 0);
        assert_eq!(cloned_engine.prefix_tokens_reused(), 3 * 32);
        let at = |is: &dyn Fn(&EventKind) -> bool| {
            let found = cloned_events.iter().position(|e| is(&e.kind));
            found.expect("traced")
        };
        let newcomer = at(&|k| matches!(k, EventKind::Admission { request: 4, .. }));
        for holder in [0, 1] {
            let parked =
                at(&|k| matches!(k, EventKind::Preempted { request, .. } if *request == holder));
            let back =
                at(&|k| matches!(k, EventKind::Resumed { request, .. } if *request == holder));
            assert!(parked < newcomer && newcomer < back, "holder {holder}");
        }
    }

    #[test]
    #[should_panic(expected = "engine batch cap")]
    fn live_validates_batch_cap() {
        let parts = trained(49);
        let requests = PoissonArrivals::new(10.0, 3).requests(&specs(1, 4));
        let mut engine = live_engine(3, &parts);
        let _ = batcher(2).run_live(&requests, &mut engine, |_| {
            let lm = build_lm(49);
            let draft = OracleDraft::new(*lm.language(), 0.9, &cfg(), 49);
            (lm, draft)
        });
    }

    #[test]
    fn a_draftless_run_is_priced_as_the_dense_step() {
        // The dense reference is this loop with nothing to speculate on.
        // Three requests arrive together and leave one by one, so the
        // schedule is known by hand: step `k` seats the requests that
        // want more than `k + 1` tokens, each one token further along,
        // every layer run by all of them, one LM head each, no draft and
        // no predictor term.
        use specee_core::engine::DenseEngine;
        use specee_draft::NoDraft;
        use specee_obs::Recorder;
        let seed = 101;
        let parts = trained(seed);
        let template = build_lm(seed);
        let requests: Vec<ServeRequest> = [(2usize, 7usize), (5, 3), (3, 5)]
            .iter()
            .enumerate()
            .map(|(i, &(prompt_len, gen_len))| ServeRequest {
                id: i as u64,
                prompt: (0..prompt_len as u32)
                    .map(|j| 2 + 3 * i as u32 + j)
                    .collect(),
                gen_len,
                arrival_s: 0.0,
            })
            .collect();
        let b = batcher(3);
        let mut engine: BatchedEngine<SyntheticLm, NoDraft> = BatchedEngine::new(
            3,
            16,
            N_LAYERS,
            parts.0.clone(),
            parts.1.clone(),
            parts.2.clone(),
        );
        engine.set_recorder(Some(Recorder::for_worker(0)));
        let live = b.run_live(&requests, &mut engine, |_| (template.clone(), NoDraft));

        let priced: Vec<f64> = engine
            .take_recorder()
            .expect("attached")
            .into_events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Step { dur_s, .. } => Some(dur_s),
                _ => None,
            })
            .collect();
        let by_hand: Vec<f64> = (0..6)
            .map(|k| {
                let ctx_lens: Vec<usize> = requests
                    .iter()
                    .filter(|r| r.gen_len > k + 1)
                    .map(|r| r.prompt.len() + 1 + k)
                    .collect();
                b.cost_model().decode_step_latency(&StepSpec {
                    layer_runners: vec![ctx_lens.len(); N_LAYERS],
                    lm_head_evals: ctx_lens.len() as f64,
                    ctx_lens,
                    draft_slots: 0,
                    self_draft_slots: 0,
                    predictor_calls: 0.0,
                })
            })
            .collect();
        assert_eq!(priced, by_hand);
        let prefill = b.cost_model().prefill_latency(&[2, 5, 3]);
        assert_eq!(
            live.report.makespan_s,
            by_hand.iter().fold(prefill, |t, d| t + d)
        );
        assert_eq!(live.report.avg_layers, N_LAYERS as f64);
        for (out, r) in live.outputs.iter().zip(&requests) {
            let dense = DenseEngine::new(template.clone()).generate(&r.prompt, r.gen_len);
            assert_eq!(out.tokens, dense.tokens, "request {}", r.id);
            assert_eq!(
                (out.predictor_calls, out.verify_calls, out.draft_calls),
                (0, 0, 0)
            );
        }
    }

    /// The per-sequence factory every loop-level test uses.
    fn seq_for(seed: u64, id: u64) -> (SyntheticLm, OracleDraft) {
        let lm = build_lm(seed);
        let draft = OracleDraft::new(*lm.language(), 0.9, &cfg(), seed ^ id);
        (lm, draft)
    }

    #[test]
    fn incremental_feeding_matches_the_one_shot_run() {
        // The cluster worker's protocol at the loop's own level: submit
        // what has arrived, advance to finite frontiers, submit the rest,
        // drain. Lanes, a page cap and preemption are all engaged, and
        // the traced event streams must agree to the byte as well.
        use specee_obs::Recorder;
        let seed = 83;
        let parts = trained(seed);
        let specs: Vec<(Vec<TokenId>, usize)> = (0..8u32)
            .map(|i| (vec![2 + i, 5 + i, 1 + i], 12 + 4 * (i as usize % 3)))
            .collect();
        let requests = PoissonArrivals::new(60.0, 31).requests(&specs);
        let lanes: Vec<Lane> = (0..requests.len())
            .map(|i| Lane::new((i % 3) as u8))
            .collect();
        let engine = || {
            let mut engine = live_engine(3, &parts);
            engine.set_page_capacity(Some(4));
            engine.set_preemption_enabled(true);
            engine.set_recorder(Some(Recorder::for_worker(0)));
            engine
        };
        for policy in [AdmissionPolicy::Fcfs, AdmissionPolicy::ShortestJobFirst] {
            let b = ContinuousBatcher::with_policy(
                BatcherConfig {
                    max_batch: 3,
                    hardware: HardwareProfile::a100_80g(),
                    framework: FrameworkProfile::vllm(),
                    cost: cost_dims(),
                },
                policy,
            );
            let mut one_engine = engine();
            let one = b.run_live_laned(&requests, &lanes, &mut one_engine, |r| seq_for(seed, r.id));
            assert!(one_engine.preemptions() > 0, "the cap must force evictions");

            let mut fed_engine = engine();
            let mut serving: ServeLoop<&ServeRequest> =
                ServeLoop::new(b.cost_model().clone(), policy, None);
            let split = requests.len() / 2;
            let frontier = requests[split].arrival_s;
            for (i, req) in requests.iter().enumerate() {
                if i == split {
                    serving.advance(&mut fed_engine, frontier / 2.0, |r| seq_for(seed, r.id));
                    assert!(serving.now() >= frontier / 2.0, "paused at the frontier");
                    serving.advance(&mut fed_engine, frontier, |r| seq_for(seed, r.id));
                }
                serving.submit(req, lanes[i], TrafficClass::DEFAULT, None, i as u64);
            }
            serving.advance(&mut fed_engine, f64::INFINITY, |r| seq_for(seed, r.id));
            assert!(serving.outstanding_ids().is_empty());
            let fed = serving.into_report();

            assert_eq!(one.report, fed.report, "{policy:?}");
            assert_eq!(one.outputs, fed.outputs, "{policy:?}");
            assert_eq!(one.report.completions.len(), requests.len());
            let events = |e: &mut BatchedEngine<SyntheticLm, OracleDraft>| {
                e.take_recorder().expect("recorder attached").into_events()
            };
            assert_eq!(
                events(&mut one_engine),
                events(&mut fed_engine),
                "{policy:?}"
            );
        }
    }

    #[test]
    fn deadlines_expire_in_the_queue_and_cancel_reaches_every_stage() {
        // Two low-priority hogs fill both slots and both pages; an urgent
        // arrival parks one of them. Behind it wait a request whose
        // deadline passes in the queue, one that stays pending, and one
        // the clock never reaches.
        let seed = 89;
        let parts = trained(seed);
        let req = |id: u64, gen_len: usize, arrival_s: f64| ServeRequest {
            id,
            prompt: vec![2 + id as u32, 5, 1],
            gen_len,
            arrival_s,
        };
        let low = Lane::new(2);
        let class = TrafficClass::DEFAULT;
        let mut engine = live_engine(2, &parts);
        engine.set_page_capacity(Some(2));
        engine.set_preemption_enabled(true);
        let mut serving = ServeLoop::new(batcher(2).cost_model().clone(), Default::default(), None);
        let make = |r: &ServeRequest| {
            assert!(r.id <= 2, "request {} must never be admitted", r.id);
            seq_for(seed, r.id)
        };

        serving.submit(req(0, 12, 0.0), low, class, None, 0);
        serving.submit(req(1, 12, 0.0), low, class, None, 1);
        serving.advance(&mut engine, 1e-9, make);
        assert_eq!(engine.occupancy(), 2, "both hogs seated");
        let t = serving.now();
        serving.submit(req(2, 4, t), Lane::new(0), class, None, 2);
        serving.submit(req(3, 4, t), low, class, Some(t + 1e-9), 3);
        serving.submit(req(4, 4, t), low, class, None, 4);
        serving.submit(req(5, 4, 1e6), low, class, None, 5);
        // One boundary: the urgent request evicts hog 1 and is admitted.
        serving.advance(&mut engine, t + 1e-9, make);
        assert_eq!((engine.occupancy(), engine.parked()), (2, 1));
        let queued = |s: &ServeLoop<ServeRequest>| s.queued().map(|r| r.id).collect::<Vec<_>>();
        assert_eq!(queued(&serving), [3, 4, 5]);
        // The next boundary is past request 3's deadline: dropped, unseated.
        let t = serving.now();
        serving.advance(&mut engine, t + 1e-9, make);
        assert_eq!(queued(&serving), [4, 5]);
        let mut in_flight: Vec<u64> = serving.in_flight().map(|(r, _)| r.id).collect();
        in_flight.sort_unstable();
        assert_eq!(in_flight, [0, 1, 2]);

        serving.cancel(&mut engine, 5); // inbox
        serving.cancel(&mut engine, 4); // pending
        serving.cancel(&mut engine, 1); // parked
        assert_eq!((engine.occupancy(), engine.parked()), (2, 0));
        serving.cancel(&mut engine, 0); // seated
        assert_eq!(engine.occupancy(), 1);
        serving.cancel(&mut engine, 77); // unknown: ignored
        assert_eq!(serving.outstanding_ids(), [2]);

        serving.advance(&mut engine, f64::INFINITY, make);
        assert!(serving.outstanding_ids().is_empty());
        let outcome = serving.into_report();
        assert_eq!(outcome.timed_out, [3]);
        assert_eq!(outcome.cancelled, [5, 4, 1, 0]);
        let done: Vec<u64> = outcome.report.completions.iter().map(|c| c.id).collect();
        assert_eq!(done, [2]);
        // Cancelled mid-decode sequences hand back their partial streams.
        let lens: Vec<(u64, usize)> = outcome
            .outputs
            .iter()
            .map(|o| (o.id, o.tokens.len()))
            .collect();
        assert_eq!(lens.len(), 3);
        assert!(lens[0].1 >= 1 && lens[0].1 < 12, "hog 0 partial: {lens:?}");
        assert!(lens[1].1 >= 1 && lens[1].1 < 12, "hog 1 partial: {lens:?}");
        assert_eq!(lens[2], (2, 4));
        assert_eq!(engine.pool().pages_in_use(), 0);
    }

    #[test]
    fn a_panicking_admission_leaves_every_request_accounted_for() {
        // Three same-boundary admissions, the factory panics on the
        // second: the first is seated, the second was mid-admission, the
        // third was picked but not reached, a fourth is still in the
        // inbox. None may be lost or counted twice.
        let seed = 97;
        let parts = trained(seed);
        let mut engine = live_engine(3, &parts);
        let mut serving = ServeLoop::new(batcher(3).cost_model().clone(), Default::default(), None);
        for id in 0..4u64 {
            let request = ServeRequest {
                id,
                prompt: vec![2 + id as u32, 5, 1],
                gen_len: if id == 0 { 1 } else { 6 },
                arrival_s: if id == 3 { 1.0 } else { 0.0 },
            };
            serving.submit(request, Lane::DEFAULT, TrafficClass::DEFAULT, None, id);
        }
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serving.advance(&mut engine, f64::INFINITY, |r| {
                assert!(r.id != 2, "poisoned request reached the factory");
                seq_for(seed, r.id)
            })
        }));
        assert!(unwound.is_err(), "the factory panic propagates");
        // Request 0 finished at its prefill; 1 is seated; 2 and 3 are not.
        assert_eq!(serving.completed(), 1);
        let mut outstanding = serving.outstanding_ids();
        outstanding.sort_unstable();
        assert_eq!(outstanding, [1, 2, 3]);
    }
}
