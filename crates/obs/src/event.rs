//! Typed trace events: the vocabulary of the observability plane.
//!
//! One [`Event`] is one thing the runtime did at one simulated instant on
//! one worker lane. The taxonomy deliberately mirrors the decision points
//! the SpecEE papers argue about: per-token exit decisions (the predictor
//! firing and being accepted or rejected by verification), per-step batch
//! state (the Cannikin rearmost layer), admission and routing (where
//! queue-wait tails come from), controller applies and gossip deltas (the
//! feedback plane acting).

/// Lane id used for events emitted by the cluster coordinator rather
/// than any worker (routing decisions happen before a worker is chosen).
pub const COORDINATOR_LANE: u32 = u32::MAX;

/// One recorded occurrence: a [`kind`](Event::kind) stamped with the
/// simulated clock and the lane (worker) it happened on.
///
/// `t` is *simulated* seconds — the same deterministic clock the serving
/// simulators advance — never wall time, so identical runs produce
/// byte-identical event streams. Single-stream engines, which have no
/// clock, stamp the decoded-token ordinal instead (documented at the
/// emit site).
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Simulated timestamp, seconds (token ordinal for single-stream).
    pub t: f64,
    /// Worker lane (0-based engine/worker index, or [`COORDINATOR_LANE`]).
    pub worker: u32,
    /// Sequence/request id the event belongs to, when one applies.
    pub seq: Option<u64>,
    /// What happened.
    pub kind: EventKind,
}

/// The typed payload of an [`Event`].
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// An exit predictor fired: the speculative LM-head slice scored the
    /// candidate at `layer` and verification accepted or rejected the
    /// early exit. Exactly one per predictor fire, so accepted events
    /// count taken early exits one-for-one.
    ExitDecision {
        /// Raw traffic-class id of the sequence (0 is the default class).
        class: u16,
        /// Decoder layer whose predictor fired (0-based, matching
        /// `ExitFeedback::layer`; the exit, if taken, executes
        /// `layer + 1` layers).
        layer: u32,
        /// Predictor confidence score in `[0, 1]`.
        score: f64,
        /// Exit threshold the score was compared against.
        threshold: f64,
        /// Whether verification accepted the exit.
        accepted: bool,
    },
    /// One lock-step batch decode step completed.
    Step {
        /// Engine step ordinal (0-based).
        step: u64,
        /// Sequences resident in the batch during the step.
        occupancy: u32,
        /// Rearmost decoder layer any sequence needed (the Cannikin
        /// depth the whole batch paid for).
        layers: u32,
        /// Priced duration of the step, simulated seconds.
        dur_s: f64,
    },
    /// A request was admitted into an engine's batch slots.
    Admission {
        /// Request id.
        request: u64,
        /// Requests still waiting in the queue after this admission.
        queue_depth: u32,
    },
    /// A request completed (span from arrival to finish).
    Request {
        /// Request id.
        request: u64,
        /// Arrival time, simulated seconds.
        arrival_s: f64,
        /// First-token time, simulated seconds.
        first_token_s: f64,
        /// Completion time, simulated seconds.
        finish_s: f64,
        /// Decode tokens produced.
        tokens: u32,
    },
    /// The coordinator routed a request to a worker.
    Routing {
        /// Request id.
        request: u64,
        /// Routing policy name (e.g. `"exit-aware"`).
        policy: &'static str,
        /// Chosen worker index.
        chosen: u32,
        /// Per-worker `(worker, score)` pairs when the policy scores
        /// candidates (lower is better); empty for score-free policies
        /// like round-robin.
        scores: Vec<(u32, f64)>,
    },
    /// The exit threshold a class's scans fire at after a controller's
    /// step-boundary update.
    ControllerApply {
        /// Raw traffic-class id.
        class: u16,
        /// Mean threshold now in force across predictor layers.
        threshold: f64,
    },
    /// A gossip delta from peer workers was absorbed.
    Gossip {
        /// Number of per-class evidence rows applied.
        classes: u32,
        /// Total feedback tokens carried by the delta.
        tokens: u64,
    },
    /// A resident sequence was evicted under KV page pressure: its
    /// pages were recycled into the pool and its generation state parked
    /// for later, bit-identical resumption.
    Preempted {
        /// Request id of the evicted sequence.
        request: u64,
        /// Priority lane of the evicted sequence (higher value = lower
        /// priority; the engine always evicts the lowest-priority
        /// resident).
        lane: u8,
        /// Physical pages the eviction returned to the pool.
        pages: u32,
    },
    /// A parked (preempted) sequence was re-seated after pages freed up;
    /// its decode continues exactly where it stopped.
    Resumed {
        /// Request id of the resumed sequence.
        request: u64,
        /// Priority lane of the resumed sequence.
        lane: u8,
    },
    /// KV page-pool pressure at a decode-step boundary.
    KvPressure {
        /// Physical pages resident in the pool.
        pages: u32,
        /// Resident pages co-leased by two or more sequences
        /// (copy-on-write prefix sharing).
        shared: u32,
        /// Sequences currently parked awaiting re-admission.
        parked: u32,
    },
    /// A self-speculative draft pass ran: the target's own shallow
    /// layers (`0..exit_layer`) drafted a token tree from the pending
    /// bonus token, writing shallow KV into per-layer scratch for later
    /// split commit.
    DraftPass {
        /// Tree nodes drafted (bonus root plus speculated nodes).
        nodes: u32,
        /// Exit layer of the shallow draft pass (layers `0..exit_layer`
        /// ran for every node).
        exit_layer: u32,
    },
    /// A drafted token tree was verified in one masked deep sweep and
    /// the accepted root-path committed (shallow KV from draft scratch,
    /// deep KV from the verify sweep — no recompute, no pool residue).
    TreeVerified {
        /// Tree nodes verified in the sweep.
        nodes: u32,
        /// Nodes on the accepted root path (tokens committed this
        /// round; the per-round accepted prefix length).
        accepted: u32,
    },
    /// An SLO objective started burning its error budget too fast:
    /// both the fast and slow burn-rate windows crossed the fire
    /// threshold at a step boundary (see `specee_obs::slo`).
    SloFired {
        /// Objective name as declared (e.g. `p99_ttft`).
        objective: String,
        /// Fast-window burn rate at the moment of firing.
        burn_rate: f64,
    },
    /// A firing SLO objective recovered: the fast-window burn rate
    /// dropped below the clear threshold.
    SloCleared {
        /// Objective name as declared (e.g. `p99_ttft`).
        objective: String,
    },
}

impl EventKind {
    /// Short stable name of the event type (used as the Chrome trace
    /// event name and in metric names).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::ExitDecision { accepted: true, .. } => "exit-accept",
            EventKind::ExitDecision {
                accepted: false, ..
            } => "exit-reject",
            EventKind::Step { .. } => "step",
            EventKind::Admission { .. } => "admit",
            EventKind::Request { .. } => "request",
            EventKind::Routing { .. } => "route",
            EventKind::ControllerApply { .. } => "controller",
            EventKind::Gossip { .. } => "gossip",
            EventKind::Preempted { .. } => "preempt",
            EventKind::Resumed { .. } => "resume",
            EventKind::KvPressure { .. } => "kv-pressure",
            EventKind::DraftPass { .. } => "draft-pass",
            EventKind::TreeVerified { .. } => "tree-verified",
            EventKind::SloFired { .. } => "slo-fired",
            EventKind::SloCleared { .. } => "slo-cleared",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_names_are_stable() {
        let exit = EventKind::ExitDecision {
            class: 0,
            layer: 3,
            score: 0.9,
            threshold: 0.5,
            accepted: true,
        };
        assert_eq!(exit.name(), "exit-accept");
        let reject = EventKind::ExitDecision {
            class: 0,
            layer: 3,
            score: 0.2,
            threshold: 0.5,
            accepted: false,
        };
        assert_eq!(reject.name(), "exit-reject");
        assert_eq!(
            EventKind::Gossip {
                classes: 1,
                tokens: 2
            }
            .name(),
            "gossip"
        );
        assert_eq!(
            EventKind::Preempted {
                request: 7,
                lane: 2,
                pages: 5
            }
            .name(),
            "preempt"
        );
        assert_eq!(
            EventKind::Resumed {
                request: 7,
                lane: 2
            }
            .name(),
            "resume"
        );
        assert_eq!(
            EventKind::KvPressure {
                pages: 8,
                shared: 3,
                parked: 1
            }
            .name(),
            "kv-pressure"
        );
        assert_eq!(
            EventKind::DraftPass {
                nodes: 7,
                exit_layer: 3
            }
            .name(),
            "draft-pass"
        );
        assert_eq!(
            EventKind::TreeVerified {
                nodes: 7,
                accepted: 2
            }
            .name(),
            "tree-verified"
        );
        assert_eq!(
            EventKind::SloFired {
                objective: "p99_ttft".to_string(),
                burn_rate: 2.0
            }
            .name(),
            "slo-fired"
        );
        assert_eq!(
            EventKind::SloCleared {
                objective: "p99_ttft".to_string()
            }
            .name(),
            "slo-cleared"
        );
    }
}
