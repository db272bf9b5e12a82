//! The sink: where engines hand events, and the recorder that keeps them.
//!
//! Engines hold an `Option<Recorder>` and thread `&mut Option<Recorder>`
//! into their hot loops. With `None` — the default everywhere; tracing is
//! strictly opt-in — a recording site is one discriminant test with
//! nothing behind it: call sites build the [`EventKind`] only inside
//! `if let Some(rec) = ...`, so the disabled path allocates nothing.
//! A [`Recorder`] buffers [`Event`]s in memory, stamping each with the
//! ambient simulated clock, worker lane and sequence id that the layer
//! *owning* the clock sets before delegating into clock-less layers
//! (`BatchedEngine` has no clock at all; the serve loop and the cluster
//! workers own `now`/`sim_now`).
//!
//! The enabled path never feeds back into the computation — the recorder
//! is write-only — so tracing cannot perturb tokens, exit layers or
//! timings; the bit-identity tests in `specee-serve`/`specee-cluster`
//! hold the runtime to that.
//!
//! # Bounded recording
//!
//! A [`Recorder`] never grows without bound: every recorder carries an
//! event budget ([`DEFAULT_EVENT_BUDGET`] unless overridden). Past the
//! budget it *drops newest* (the prefix of the run is kept) and counts
//! every discarded event in [`Recorder::dropped_events`], so a truncated
//! trace is always detectable. Per-kind sampling ([`Recorder::with_sample_every`])
//! keeps a deterministic 1-in-N of each event kind before the budget
//! applies. All of it is write-side only: sampling and dropping decide
//! what is *kept*, never what the engines compute, so the bit-identity
//! contract is untouched.

use std::collections::BTreeMap;

use crate::event::{Event, EventKind};

/// Default [`Recorder`] event budget (events kept before the recorder
/// starts dropping): 2^20 events, a few hundred MB at the very worst.
/// Soak-scale runs should prefer sampling (`--trace-sample`) so the
/// *interesting* events survive; the budget is the backstop
/// that keeps an unconfigured long run from growing without bound.
pub const DEFAULT_EVENT_BUDGET: usize = 1 << 20;

/// Deterministic in-memory event recorder.
///
/// Owns ambient context — the simulated clock, the worker lane, the
/// current sequence id — that the clock-owning layer updates as it
/// advances, so clock-less inner layers (the exit scan, the batched
/// engine) emit correctly stamped events without carrying timestamps
/// themselves.
///
/// Memory is bounded: see the module docs on [`DEFAULT_EVENT_BUDGET`]
/// and per-kind sampling.
#[derive(Debug, Clone, PartialEq)]
pub struct Recorder {
    worker: u32,
    clock: f64,
    seq: Option<u64>,
    events: Vec<Event>,
    /// Events kept before dropping kicks in.
    budget: usize,
    /// Keep 1 in N events of each kind (1 = keep everything).
    sample_every: u32,
    /// Per-kind occurrence counters driving the sampler.
    sample_seen: BTreeMap<&'static str, u64>,
    /// Events discarded by sampling or the budget cap.
    dropped: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            worker: 0,
            clock: 0.0,
            seq: None,
            events: Vec::new(),
            budget: DEFAULT_EVENT_BUDGET,
            sample_every: 1,
            sample_seen: BTreeMap::new(),
            dropped: 0,
        }
    }
}

impl Recorder {
    /// A recorder for worker lane 0 (single-engine runs).
    pub fn new() -> Self {
        Recorder::default()
    }

    /// A recorder stamping events onto worker lane `worker`.
    pub fn for_worker(worker: u32) -> Self {
        Recorder {
            worker,
            ..Recorder::default()
        }
    }

    /// Replaces the event budget (default [`DEFAULT_EVENT_BUDGET`]).
    /// Past it the recorder drops the newest events and counts the loss
    /// in [`dropped_events`].
    ///
    /// # Panics
    ///
    /// If `budget` is zero.
    ///
    /// [`dropped_events`]: Recorder::dropped_events
    pub fn with_budget(mut self, budget: usize) -> Self {
        assert!(budget > 0, "recorder budget must be positive");
        self.budget = budget;
        self
    }

    /// Keeps a deterministic 1-in-`n` of each event kind (by
    /// [`EventKind::name`]): the 1st, `n+1`th, `2n+1`th … occurrence of
    /// each kind survive, the rest count as dropped. `n = 1` keeps
    /// everything.
    ///
    /// # Panics
    ///
    /// If `n` is zero.
    pub fn with_sample_every(mut self, n: u32) -> Self {
        assert!(n > 0, "sampling period must be positive");
        self.sample_every = n;
        self
    }

    /// Events discarded so far (sampling + budget drops).
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    /// The event budget in force.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Applies sampling and the budget, keeping or discarding `ev`.
    fn push(&mut self, ev: Event) {
        if self.sample_every > 1 {
            let seen = self.sample_seen.entry(ev.kind.name()).or_insert(0);
            let keep = seen.is_multiple_of(u64::from(self.sample_every));
            *seen += 1;
            if !keep {
                self.dropped += 1;
                return;
            }
        }
        if self.events.len() < self.budget {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// Sets the ambient simulated clock for subsequent events.
    pub fn set_clock(&mut self, t: f64) {
        self.clock = t;
    }

    /// The current ambient clock.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// The worker lane events are stamped onto.
    pub fn worker(&self) -> u32 {
        self.worker
    }

    /// Sets the ambient sequence id (`None` for engine-level events).
    pub fn set_seq(&mut self, seq: Option<u64>) {
        self.seq = seq;
    }

    /// Records one event, stamped with the ambient clock, worker lane and
    /// sequence id.
    pub fn record(&mut self, kind: EventKind) {
        self.push(Event {
            t: self.clock,
            worker: self.worker,
            seq: self.seq,
            kind,
        });
    }

    /// Records an event at an explicit time instead of the ambient clock
    /// (e.g. a request span stamped at its arrival time). Sampling and
    /// the budget apply exactly as in [`Recorder::record`].
    pub fn record_at(&mut self, t: f64, seq: Option<u64>, kind: EventKind) {
        self.push(Event {
            t,
            worker: self.worker,
            seq,
            kind,
        });
    }

    /// Events kept so far, in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Consumes the recorder, returning its kept events in emission
    /// order.
    pub fn into_events(self) -> Vec<Event> {
        self.events
    }
}

/// Merges per-worker event streams into one deterministic timeline.
///
/// Stable sort by `(t, worker)`: simultaneous events order by worker
/// lane, and each worker's own emission order is preserved — the merged
/// trace is a pure function of the per-worker traces, so cluster traces
/// stay bit-reproducible.
///
/// # Panics
///
/// Panics if any event carries a non-finite timestamp.
pub fn merge_events(streams: Vec<Vec<Event>>) -> Vec<Event> {
    let mut all: Vec<Event> = streams.into_iter().flatten().collect();
    all.sort_by(|a, b| {
        (a.t, a.worker)
            .partial_cmp(&(b.t, b.worker))
            .expect("finite event timestamps")
    });
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(step: u64) -> EventKind {
        EventKind::Step {
            step,
            occupancy: 1,
            layers: 8,
            dur_s: 0.1,
        }
    }

    #[test]
    fn recorder_stamps_ambient_context() {
        let mut r = Recorder::for_worker(3);
        r.set_clock(1.5);
        r.set_seq(Some(42));
        r.record(step(0));
        r.set_clock(2.0);
        r.set_seq(None);
        r.record(step(1));
        let ev = r.into_events();
        assert_eq!(ev[0].t, 1.5);
        assert_eq!(ev[0].worker, 3);
        assert_eq!(ev[0].seq, Some(42));
        assert_eq!(ev[1].t, 2.0);
        assert_eq!(ev[1].seq, None);
    }

    #[test]
    fn merge_orders_by_time_then_worker_stably() {
        let mut a = Recorder::for_worker(1);
        a.set_clock(2.0);
        a.record(step(10));
        a.set_clock(2.0);
        a.record(step(11)); // same instant: emission order must hold
        let mut b = Recorder::for_worker(0);
        b.set_clock(2.0);
        b.record(step(20));
        b.set_clock(1.0);
        b.record(step(21));
        let merged = merge_events(vec![a.into_events(), b.into_events()]);
        let lanes: Vec<u32> = merged.iter().map(|e| e.worker).collect();
        assert_eq!(lanes, [0, 0, 1, 1], "time first, then worker lane");
        // Worker 1's two same-instant events keep emission order.
        let steps: Vec<u64> = merged
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Step { step, .. } => Some(step),
                _ => None,
            })
            .collect();
        assert_eq!(steps, [21, 20, 10, 11]);
    }

    #[test]
    fn default_budget_drops_newest_and_counts() {
        let mut r = Recorder::new().with_budget(3);
        for i in 0..5u32 {
            r.set_clock(f64::from(i));
            r.record(step(u64::from(i)));
        }
        assert_eq!(r.dropped_events(), 2);
        let kept: Vec<f64> = r.into_events().iter().map(|e| e.t).collect();
        assert_eq!(kept, [0.0, 1.0, 2.0], "prefix survives, newest dropped");
    }

    #[test]
    fn sampling_is_per_kind_and_deterministic() {
        let mut r = Recorder::new().with_sample_every(3);
        for i in 0..7 {
            r.record(step(i));
            r.record(EventKind::Admission {
                request: i,
                queue_depth: 0,
            });
        }
        // Each kind keeps its own 1st, 4th, 7th occurrence.
        let steps: Vec<u64> = r
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Step { step, .. } => Some(step),
                _ => None,
            })
            .collect();
        assert_eq!(steps, [0, 3, 6]);
        let admits = r
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Admission { .. }))
            .count();
        assert_eq!(admits, 3);
        assert_eq!(r.dropped_events(), 8);
        // Re-running the identical stream reproduces the identical keep
        // set: the sampler is a counter, not a coin.
        let mut r2 = Recorder::new().with_sample_every(3);
        for i in 0..7 {
            r2.record(step(i));
            r2.record(EventKind::Admission {
                request: i,
                queue_depth: 0,
            });
        }
        assert_eq!(r.events(), r2.events());
    }

    #[test]
    fn record_at_respects_sampling_and_budget() {
        let mut r = Recorder::new().with_budget(1);
        for i in 0..3u32 {
            r.record_at(f64::from(i), None, step(u64::from(i)));
        }
        assert_eq!(r.events().len(), 1);
        assert_eq!(r.dropped_events(), 2);
    }

    #[test]
    #[should_panic(expected = "sampling period must be positive")]
    fn zero_sampling_period_is_rejected() {
        let _ = Recorder::new().with_sample_every(0);
    }

    #[test]
    fn record_at_overrides_clock() {
        let mut r = Recorder::new();
        r.set_clock(9.0);
        r.record_at(
            1.25,
            Some(7),
            EventKind::Request {
                request: 7,
                arrival_s: 1.25,
                first_token_s: 1.5,
                finish_s: 2.0,
                tokens: 4,
            },
        );
        assert_eq!(r.events()[0].t, 1.25);
        assert_eq!(r.events()[0].seq, Some(7));
    }
}
