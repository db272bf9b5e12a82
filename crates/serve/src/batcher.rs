//! The continuous batcher: admission, step loop and clock.

use serde::{Deserialize, Serialize};
use specee_metrics::{FrameworkProfile, HardwareProfile};
use specee_model::CostDims;
use specee_obs::{EventKind, Recorder, SloSpec};

use crate::cost::{StepCostModel, StepSpec};
use crate::request::{Completion, ServeRequest};
use crate::stats::ServeStats;
use crate::trace::RequestTrace;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct BatcherConfig {
    /// Maximum concurrent sequences.
    pub max_batch: usize,
    /// Device being modelled.
    pub hardware: HardwareProfile,
    /// Host framework overhead profile.
    pub framework: FrameworkProfile,
    /// Full-scale dimensions to price.
    pub cost: CostDims,
}

/// How arrived requests are chosen when a slot frees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum AdmissionPolicy {
    /// First come, first served (the default; no starvation).
    #[default]
    Fcfs,
    /// Shortest job first by requested decode length: lowers mean latency
    /// on mixed workloads, can starve long requests under sustained load.
    ShortestJobFirst,
}

impl AdmissionPolicy {
    /// Picks the index of the next pending request to admit.
    ///
    /// `keys[i]` is `(gen_len, id)` for the `i`-th pending request, listed
    /// in arrival order; ties under shortest-job-first break toward the
    /// lower id. Shared by the replay simulator and the live
    /// [`crate::ServeLoop`], so every execution mode admits identically.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is empty.
    pub fn pick_by_key(self, keys: &[(usize, u64)]) -> usize {
        assert!(!keys.is_empty(), "pending non-empty");
        match self {
            AdmissionPolicy::Fcfs => 0,
            AdmissionPolicy::ShortestJobFirst => keys
                .iter()
                .enumerate()
                .min_by_key(|(_, &k)| k)
                .map(|(i, _)| i)
                .expect("pending non-empty"),
        }
    }
}

/// One in-flight sequence.
#[derive(Debug, Clone)]
struct Slot {
    req: usize,
    next_token: usize,
    ctx_len: usize,
}

/// Outcome of a served run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Per-request completions, in request-id order.
    pub completions: Vec<Completion>,
    /// Simulated wall-clock at the last completion, seconds.
    pub makespan_s: f64,
    /// Decode steps executed.
    pub steps: u64,
    /// Mean batch occupancy over decode steps.
    pub avg_occupancy: f64,
    /// Mean executed layers per (slot, token) pair.
    pub avg_layers: f64,
}

impl ServeReport {
    /// Aggregate latency/throughput statistics.
    pub fn stats(&self) -> ServeStats {
        ServeStats::from_report(self)
    }
}

/// A continuous batcher over recorded request traces.
///
/// Requests are admitted in arrival order as soon as a slot frees
/// (first-come-first-served; no preemption). Prefill is modelled as a
/// dedicated batched forward at admission time, decode as synchronized
/// steps in which every active slot emits one token.
#[derive(Debug, Clone)]
pub struct ContinuousBatcher {
    pub(crate) config: BatcherConfig,
    pub(crate) model: StepCostModel,
    pub(crate) policy: AdmissionPolicy,
    pub(crate) slo: Option<SloSpec>,
}

/// Picks the index *within `pending`* of the next request to admit under
/// `policy`.
fn pick_pending(policy: AdmissionPolicy, pending: &[usize], requests: &[ServeRequest]) -> usize {
    let keys: Vec<(usize, u64)> = pending
        .iter()
        .map(|&r| (requests[r].gen_len, r as u64))
        .collect();
    policy.pick_by_key(&keys)
}

impl ContinuousBatcher {
    /// Creates an FCFS batcher for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    pub fn new(config: BatcherConfig) -> Self {
        Self::with_policy(config, AdmissionPolicy::Fcfs)
    }

    /// Creates a batcher with an explicit admission policy.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    pub fn with_policy(config: BatcherConfig, policy: AdmissionPolicy) -> Self {
        assert!(config.max_batch > 0, "max_batch must be positive");
        let model = StepCostModel::new(
            config.cost,
            config.hardware.clone(),
            config.framework.clone(),
        );
        ContinuousBatcher {
            config,
            model,
            policy,
            slo: None,
        }
    }

    /// Attaches an online SLO specification to the *live* serving loop.
    ///
    /// [`run_live`](Self::run_live) then drives a
    /// [`specee_obs::SloTracker`] on the simulated clock: admission TTFTs
    /// and verifier accept/reject outcomes feed its rolling windows, the
    /// multi-window burn-rate alerts are evaluated at every clock
    /// advance, `SloFired`/`SloCleared` transitions land in the engine's
    /// trace stream (when a recorder is attached), and the tracker's
    /// pressure signal is pushed into the engine's controller via
    /// `set_slo_pressure` — so an `slo+*` controller policy bends its
    /// operating point while an objective burns. The tracker runs whether
    /// or not a recorder is attached, so traced and untraced runs stay
    /// bit-identical.
    ///
    /// Replay mode ([`run`](Self::run)) ignores the specification: its
    /// traces were recorded elsewhere and cannot react to pressure.
    pub fn with_slo(mut self, slo: SloSpec) -> Self {
        self.slo = Some(slo);
        self
    }

    /// The attached SLO specification, if any.
    pub fn slo(&self) -> Option<&SloSpec> {
        self.slo.as_ref()
    }

    /// The step cost model in use.
    pub fn cost_model(&self) -> &StepCostModel {
        &self.model
    }

    /// Replays `traces` under the arrival schedule in `requests`.
    ///
    /// `traces[i]` must be the recorded run of `requests[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the slices disagree in length, a trace is shorter than
    /// its request's `gen_len`, or arrivals are not sorted.
    pub fn run(&self, requests: &[ServeRequest], traces: &[RequestTrace]) -> ServeReport {
        self.run_recorded(requests, traces, None)
    }

    /// [`run`](Self::run) with an optional trace [`Recorder`]: when one is
    /// supplied, every admission, decode step and request completion is
    /// recorded as a typed event stamped with the simulated clock. The
    /// event stream never feeds back into the simulation, so a recorded
    /// run produces a bit-identical [`ServeReport`] to an unrecorded one.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`run`](Self::run).
    pub fn run_recorded(
        &self,
        requests: &[ServeRequest],
        traces: &[RequestTrace],
        mut rec: Option<&mut Recorder>,
    ) -> ServeReport {
        assert_eq!(requests.len(), traces.len(), "one trace per request");
        assert!(
            requests
                .windows(2)
                .all(|w| w[0].arrival_s <= w[1].arrival_s),
            "requests must be sorted by arrival"
        );
        for (r, t) in requests.iter().zip(traces) {
            assert!(
                t.len() >= r.gen_len,
                "trace for request {} shorter than gen_len",
                r.id
            );
        }

        let n_layers = self.config.cost.n_layers;
        let mut now = 0.0f64;
        let mut next_arrival = 0usize;
        let mut pending: Vec<usize> = Vec::new();
        let mut active: Vec<Slot> = Vec::new();
        let mut completions: Vec<Completion> = Vec::with_capacity(requests.len());
        let mut first_token_s = vec![0.0f64; requests.len()];
        let mut steps = 0u64;
        let mut occupancy_sum = 0.0f64;
        let mut layer_sum = 0.0f64;
        let mut token_sum = 0u64;

        while completions.len() < requests.len() {
            // Move arrivals into the pending pool, then admit by policy —
            // as one batched prefill.
            while next_arrival < requests.len() && requests[next_arrival].arrival_s <= now {
                pending.push(next_arrival);
                next_arrival += 1;
            }
            let mut admitted: Vec<usize> = Vec::new();
            while !pending.is_empty() && active.len() + admitted.len() < self.config.max_batch {
                let pick = pick_pending(self.policy, &pending, requests);
                admitted.push(pending.remove(pick));
            }
            if !admitted.is_empty() {
                if let Some(r) = rec.as_deref_mut() {
                    let depth = pending.len() as u32;
                    for &i in &admitted {
                        r.record_at(
                            now,
                            Some(requests[i].id),
                            EventKind::Admission {
                                request: requests[i].id,
                                queue_depth: depth,
                            },
                        );
                    }
                }
                let lens: Vec<usize> = admitted.iter().map(|&i| requests[i].prompt.len()).collect();
                now += self.model.prefill_latency(&lens);
                for &i in &admitted {
                    // The prefill produces the first token (the engines
                    // count it the same way).
                    first_token_s[i] = now;
                    if requests[i].gen_len <= 1 {
                        completions.push(Completion {
                            id: requests[i].id,
                            arrival_s: requests[i].arrival_s,
                            first_token_s: now,
                            finish_s: now,
                            tokens: requests[i].gen_len,
                        });
                        if let Some(r) = rec.as_deref_mut() {
                            r.record_at(
                                now,
                                Some(requests[i].id),
                                EventKind::Request {
                                    request: requests[i].id,
                                    arrival_s: requests[i].arrival_s,
                                    first_token_s: now,
                                    finish_s: now,
                                    tokens: requests[i].gen_len as u32,
                                },
                            );
                        }
                    } else {
                        active.push(Slot {
                            req: i,
                            next_token: 1,
                            ctx_len: requests[i].prompt.len() + 1,
                        });
                    }
                }
                continue;
            }

            if active.is_empty() {
                // Idle: jump to the next arrival.
                if next_arrival < requests.len() {
                    now = now.max(requests[next_arrival].arrival_s);
                    continue;
                }
                break;
            }

            // One synchronized decode step.
            let mut spec = StepSpec {
                layer_runners: vec![0; n_layers],
                ctx_lens: Vec::with_capacity(active.len()),
                lm_head_evals: 0.0,
                draft_slots: 0,
                self_draft_slots: 0,
                predictor_calls: 0.0,
            };
            for slot in &active {
                let trace = &traces[slot.req];
                let exit = trace.exit_layers[slot.next_token].min(n_layers);
                for runner in spec.layer_runners.iter_mut().take(exit) {
                    *runner += 1;
                }
                spec.ctx_lens.push(slot.ctx_len);
                // Final logits (dense) or exit verification (SpecEE); extra
                // failed verifications are charged via the per-token rate.
                spec.lm_head_evals += 1.0_f64.max(trace.verify_calls_per_token);
                if trace.speculative {
                    spec.draft_slots += 1;
                    spec.predictor_calls += trace.predictor_calls_per_token;
                }
                layer_sum += exit as f64;
                token_sum += 1;
            }
            let dur = self.model.decode_step_latency(&spec);
            if let Some(r) = rec.as_deref_mut() {
                let layers = spec.layer_runners.iter().rposition(|&c| c > 0);
                r.record_at(
                    now,
                    None,
                    EventKind::Step {
                        step: steps,
                        occupancy: active.len() as u32,
                        layers: layers.map_or(0, |l| l + 1) as u32,
                        dur_s: dur,
                    },
                );
            }
            now += dur;
            steps += 1;
            occupancy_sum += active.len() as f64;

            // Advance slots; retire the finished.
            let mut still_active = Vec::with_capacity(active.len());
            for mut slot in active {
                slot.next_token += 1;
                slot.ctx_len += 1;
                let req = &requests[slot.req];
                if slot.next_token >= req.gen_len {
                    completions.push(Completion {
                        id: req.id,
                        arrival_s: req.arrival_s,
                        first_token_s: first_token_s[slot.req],
                        finish_s: now,
                        tokens: req.gen_len,
                    });
                    if let Some(r) = rec.as_deref_mut() {
                        r.record_at(
                            now,
                            Some(req.id),
                            EventKind::Request {
                                request: req.id,
                                arrival_s: req.arrival_s,
                                first_token_s: first_token_s[slot.req],
                                finish_s: now,
                                tokens: req.gen_len as u32,
                            },
                        );
                    }
                } else {
                    still_active.push(slot);
                }
            }
            active = still_active;
        }

        completions.sort_by_key(|c| c.id);
        ServeReport {
            completions,
            makespan_s: now,
            steps,
            avg_occupancy: if steps > 0 {
                occupancy_sum / steps as f64
            } else {
                0.0
            },
            avg_layers: if token_sum > 0 {
                layer_sum / token_sum as f64
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::PoissonArrivals;

    fn config(max_batch: usize) -> BatcherConfig {
        BatcherConfig {
            max_batch,
            hardware: HardwareProfile::a100_80g(),
            framework: FrameworkProfile::vllm(),
            cost: CostDims::llama2_7b(),
        }
    }

    fn dense_traces(n: usize, gen: usize) -> Vec<RequestTrace> {
        (0..n)
            .map(|i| RequestTrace::dense(vec![i as u32; gen], 32))
            .collect()
    }

    fn specee_traces(n: usize, gen: usize, exit: usize) -> Vec<RequestTrace> {
        (0..n)
            .map(|i| RequestTrace {
                tokens: vec![i as u32; gen],
                exit_layers: vec![exit; gen],
                predictor_calls_per_token: 3.0,
                verify_calls_per_token: 1.0,
                speculative: true,
            })
            .collect()
    }

    fn requests(n: usize, gen: usize) -> Vec<ServeRequest> {
        PoissonArrivals::new(50.0, 5).requests(
            &(0..n)
                .map(|_| (vec![1u32, 2, 3, 4], gen))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn all_requests_complete_with_sane_timings() {
        let reqs = requests(6, 12);
        let report = ContinuousBatcher::new(config(3)).run(&reqs, &dense_traces(6, 12));
        assert_eq!(report.completions.len(), 6);
        for (c, r) in report.completions.iter().zip(&reqs) {
            assert_eq!(c.id, r.id);
            assert!(c.first_token_s >= r.arrival_s);
            assert!(c.finish_s >= c.first_token_s);
            assert_eq!(c.tokens, 12);
        }
        assert!(report.avg_occupancy > 1.0);
        assert!(report.avg_occupancy <= 3.0);
        assert_eq!(report.avg_layers, 32.0);
    }

    #[test]
    fn larger_batches_raise_throughput() {
        let reqs = requests(16, 16);
        let traces = dense_traces(16, 16);
        let b1 = ContinuousBatcher::new(config(1)).run(&reqs, &traces);
        let b8 = ContinuousBatcher::new(config(8)).run(&reqs, &traces);
        assert!(
            b8.stats().throughput_tok_s > 1.5 * b1.stats().throughput_tok_s,
            "b8 {} vs b1 {}",
            b8.stats().throughput_tok_s,
            b1.stats().throughput_tok_s
        );
    }

    #[test]
    fn early_exit_advantage_shrinks_with_batch() {
        let reqs = requests(16, 16);
        let dense = dense_traces(16, 16);
        let spec = specee_traces(16, 16, 20);
        let speedup = |mb: usize| {
            let d = ContinuousBatcher::new(config(mb)).run(&reqs, &dense);
            let s = ContinuousBatcher::new(config(mb)).run(&reqs, &spec);
            s.stats().throughput_tok_s / d.stats().throughput_tok_s
        };
        let at1 = speedup(1);
        let at8 = speedup(8);
        assert!(at1 > 1.05, "batch-1 speedup {at1}");
        assert!(at8 < at1, "batch-8 {at8} vs batch-1 {at1}");
    }

    #[test]
    fn unanimous_exits_still_win_at_large_batch() {
        // When every sequence exits at the same layer the weight savings
        // survive batching.
        let reqs = requests(8, 16);
        let d = ContinuousBatcher::new(config(8)).run(&reqs, &dense_traces(8, 16));
        let s = ContinuousBatcher::new(config(8)).run(&reqs, &specee_traces(8, 16, 16));
        assert!(s.makespan_s < d.makespan_s);
    }

    #[test]
    fn batch_cap_respected() {
        let reqs = requests(10, 8);
        let report = ContinuousBatcher::new(config(2)).run(&reqs, &dense_traces(10, 8));
        assert!(report.avg_occupancy <= 2.0);
    }

    #[test]
    fn gen_len_one_finishes_at_prefill() {
        let reqs = PoissonArrivals::new(10.0, 3).requests(&[(vec![1, 2, 3], 1)]);
        let report = ContinuousBatcher::new(config(2)).run(&reqs, &dense_traces(1, 1));
        assert_eq!(report.completions.len(), 1);
        assert_eq!(
            report.completions[0].finish_s,
            report.completions[0].first_token_s
        );
        assert_eq!(report.steps, 0);
    }

    #[test]
    fn sjf_lowers_mean_latency_on_mixed_lengths() {
        // One long job submitted ahead of many short ones, all arriving
        // together; at cap 1 FCFS makes every short job wait behind it
        // (no preemption — admission order is the only lever).
        let mut requests = vec![ServeRequest {
            id: 0,
            prompt: vec![1, 2, 3],
            gen_len: 64,
            arrival_s: 0.0,
        }];
        for i in 1..6u64 {
            requests.push(ServeRequest {
                id: i,
                prompt: vec![1, 2, 3],
                gen_len: 4,
                arrival_s: 0.0,
            });
        }
        let traces: Vec<RequestTrace> = requests
            .iter()
            .map(|r| RequestTrace::dense(vec![7; r.gen_len], 32))
            .collect();
        let fcfs = ContinuousBatcher::new(config(1)).run(&requests, &traces);
        let sjf = ContinuousBatcher::with_policy(config(1), AdmissionPolicy::ShortestJobFirst)
            .run(&requests, &traces);
        assert!(
            sjf.stats().mean_latency_s < fcfs.stats().mean_latency_s * 0.8,
            "sjf {} vs fcfs {}",
            sjf.stats().mean_latency_s,
            fcfs.stats().mean_latency_s
        );
        // Same total work: makespan unchanged (work-conserving policies).
        assert!((sjf.makespan_s - fcfs.makespan_s).abs() < 1e-9);
        assert_eq!(sjf.completions.len(), 6);
    }

    #[test]
    fn fcfs_admits_in_arrival_order() {
        let reqs = requests(6, 8);
        let traces = dense_traces(6, 8);
        let report = ContinuousBatcher::new(config(1)).run(&reqs, &traces);
        // At cap 1, FCFS finishes strictly in arrival (= id) order.
        let mut finishes: Vec<(u64, f64)> = report
            .completions
            .iter()
            .map(|c| (c.id, c.finish_s))
            .collect();
        finishes.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
        let order: Vec<u64> = finishes.iter().map(|(id, _)| *id).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn recorded_replay_is_bit_identical_and_captures_the_run() {
        let reqs = requests(6, 8);
        let traces = specee_traces(6, 8, 20);
        let b = ContinuousBatcher::new(config(2));
        let plain = b.run(&reqs, &traces);
        let mut rec = Recorder::new();
        let recorded = b.run_recorded(&reqs, &traces, Some(&mut rec));
        assert_eq!(plain, recorded, "recording must not perturb the run");
        let events = rec.into_events();
        let count = |f: fn(&EventKind) -> bool| events.iter().filter(|e| f(&e.kind)).count();
        assert_eq!(count(|k| matches!(k, EventKind::Admission { .. })), 6);
        assert_eq!(count(|k| matches!(k, EventKind::Request { .. })), 6);
        assert_eq!(
            count(|k| matches!(k, EventKind::Step { .. })) as u64,
            plain.steps
        );
        // The batcher records in clock order, so the stream is already a
        // valid timeline without merging.
        assert!(events.windows(2).all(|w| w[0].t <= w[1].t));
        for e in &events {
            if let EventKind::Step { layers, dur_s, .. } = e.kind {
                assert_eq!(layers, 20, "every replay trace exits at layer 20");
                assert!(dur_s > 0.0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "one trace per request")]
    fn trace_count_validated() {
        let reqs = requests(2, 4);
        let _ = ContinuousBatcher::new(config(2)).run(&reqs, &dense_traces(1, 4));
    }

    #[test]
    #[should_panic(expected = "shorter than gen_len")]
    fn trace_length_validated() {
        let reqs = requests(1, 8);
        let _ = ContinuousBatcher::new(config(2)).run(&reqs, &dense_traces(1, 4));
    }
}
