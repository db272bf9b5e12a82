//! Deterministic tracing and metrics plane for the SpecEE runtime.
//!
//! Every other crate in this workspace argues from end-of-run aggregates
//! (`ServeStats`, `ClusterReport`, `Meter`); this crate records *when*
//! things happened. It has three layers:
//!
//! 1. **Event plane** ([`event`], [`sink`]): a deterministic
//!    [`Recorder`] capturing typed [`Event`]s — exit
//!    fire/accept/reject with layer, score and threshold; batch steps;
//!    admissions; routing decisions with per-worker scores; controller
//!    applies; gossip deltas — stamped with the *simulated* clock the
//!    engines already advance. Because timestamps come from the
//!    deterministic simulation (never the wall clock), cluster traces are
//!    bit-reproducible run to run.
//! 2. **Metrics registry** ([`registry`]): counters, gauges and
//!    fixed-bucket histograms (exit layer, TTFT, queue depth) with exact
//!    merge across workers, plus folds that turn an event stream, a
//!    [`specee_metrics::Meter`] or a roofline [`specee_metrics::CostReport`]
//!    into registry entries so one export carries both measured ops and
//!    modelled latency.
//! 3. **Exporters** ([`chrome`], [`prom`]): Chrome trace-event JSON (one
//!    named lane per worker; spans for steps and requests, instants for
//!    exits and gossip; loadable in Perfetto / `chrome://tracing`) and
//!    Prometheus text exposition, both written via the vendored serde
//!    stand-ins.
//! 4. **Online layer** ([`window`], [`slo`]): rolling windows over the
//!    simulated clock with exact retire-on-advance, and SLO objectives
//!    with multi-window burn-rate alerting — the streaming half that answers
//!    questions *during* a run (and feeds `SloAdaptive` controllers in
//!    `specee-control`) instead of after it.
//!
//! The disabled path is one discriminant test: engines thread an
//! `Option<Recorder>` and build an event only when it is `Some` — no
//! allocation (`sec74_overhead` asserts this).
//!
//! # Examples
//!
//! ```
//! use specee_obs::{EventKind, Recorder};
//!
//! let mut rec = Recorder::for_worker(0);
//! rec.set_clock(0.5);
//! rec.record(EventKind::ExitDecision {
//!     class: 0,
//!     layer: 7,
//!     score: 0.93,
//!     threshold: 0.5,
//!     accepted: true,
//! });
//! let events = rec.into_events();
//! assert_eq!(events.len(), 1);
//! assert_eq!(events[0].t, 0.5);
//! let trace = specee_obs::chrome::chrome_trace_json(&events);
//! assert!(trace.contains("traceEvents"));
//! ```

#![deny(missing_docs)]

pub mod chrome;
pub mod event;
pub mod prom;
pub mod quantile;
pub mod registry;
pub mod sink;
pub mod slo;
pub mod window;

pub use chrome::{chrome_trace, chrome_trace_json, lanes_of};
pub use event::{Event, EventKind, COORDINATOR_LANE};
pub use prom::prometheus_text;
pub use quantile::{nearest_rank, percentile, percentile_sorted};
pub use registry::{
    fold_dropped_events, fold_events, fold_meter, fold_roofline, Histogram, MetricsRegistry,
    DRAFT_ACCEPTED_LEN_BOUNDS, EXIT_LAYER_BOUNDS, QUEUE_DEPTH_BOUNDS, TTFT_BOUNDS,
};
pub use sink::{merge_events, Recorder, DEFAULT_EVENT_BUDGET};
pub use slo::{SloKind, SloObjective, SloSpec, SloTracker};
pub use window::RollingCounter;
