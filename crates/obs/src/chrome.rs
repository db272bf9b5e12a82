//! Chrome trace-event JSON export (Perfetto / `chrome://tracing`).
//!
//! The exported object follows the Trace Event Format: a `traceEvents`
//! array in which every event carries a `(pid, tid)` lane. We map the
//! whole run to `pid` 0 and give **each worker its own `tid` lane**
//! (named via `thread_name` metadata), so a cluster trace opens in
//! Perfetto as one swim-lane per worker:
//!
//! - `"X"` *complete* spans for batch steps and request lifetimes
//!   (arrival to finish, with first-token time in `args`),
//! - `"i"` *instants* for exit decisions, admissions, routing choices,
//!   controller applies and gossip deltas.
//!
//! Timestamps are the simulated clock converted to microseconds (the
//! format's native unit), so span widths in the UI are simulated time —
//! the quantity every report in this workspace is priced in.

use serde::Value;

use crate::event::{Event, EventKind, COORDINATOR_LANE};

/// Microseconds per simulated second (trace-event native unit).
const US: f64 = 1e6;

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn s(v: &str) -> Value {
    Value::Str(v.to_string())
}

fn lane_name(worker: u32) -> String {
    if worker == COORDINATOR_LANE {
        "coordinator".to_string()
    } else {
        format!("worker-{worker}")
    }
}

/// The `process_name` every lane lives under (one process, pid 0).
const PROCESS_NAME: &str = "specee";

/// Common envelope of one trace event on a worker lane.
fn envelope(name: &str, ph: &str, cat: &str, worker: u32, ts_s: f64) -> Vec<(&'static str, Value)> {
    vec![
        ("name", Value::Str(name.to_string())),
        ("ph", Value::Str(ph.to_string())),
        ("cat", Value::Str(cat.to_string())),
        ("pid", Value::UInt(0)),
        ("tid", Value::UInt(u64::from(worker))),
        ("ts", Value::Float(ts_s * US)),
    ]
}

fn instant(e: &Event, args: Vec<(&str, Value)>) -> Value {
    let mut fields = envelope(e.kind.name(), "i", e.kind.name(), e.worker, e.t);
    fields.push(("s", s("t"))); // thread-scoped instant
    fields.push(("args", map(args)));
    map(fields)
}

fn span(name: &str, e: &Event, start_s: f64, dur_s: f64, args: Vec<(&str, Value)>) -> Value {
    let mut fields = envelope(name, "X", name, e.worker, start_s);
    fields.push(("dur", Value::Float(dur_s * US)));
    fields.push(("args", map(args)));
    map(fields)
}

fn seq_arg(e: &Event) -> Value {
    e.seq.map_or(Value::Null, Value::UInt)
}

/// Builds the Chrome trace-event document for a merged event stream.
///
/// One `process_name` metadata record for pid 0, then one
/// `thread_name` metadata record per distinct lane in ascending lane
/// order ("worker-0", …, "coordinator"), followed by the events in
/// stream order — the output is a pure function of the input stream.
pub fn chrome_trace(events: &[Event]) -> Value {
    let mut lanes: Vec<u32> = events.iter().map(|e| e.worker).collect();
    lanes.sort_unstable();
    lanes.dedup();

    let mut out: Vec<Value> = vec![map(vec![
        ("name", s("process_name")),
        ("ph", s("M")),
        ("pid", Value::UInt(0)),
        ("tid", Value::UInt(0)),
        ("args", map(vec![("name", s(PROCESS_NAME))])),
    ])];
    out.extend(lanes.iter().map(|&w| {
        map(vec![
            ("name", s("thread_name")),
            ("ph", s("M")),
            ("pid", Value::UInt(0)),
            ("tid", Value::UInt(u64::from(w))),
            ("args", map(vec![("name", Value::Str(lane_name(w)))])),
        ])
    }));

    for e in events {
        out.push(match &e.kind {
            EventKind::ExitDecision {
                class,
                layer,
                score,
                threshold,
                accepted,
            } => instant(
                e,
                vec![
                    ("seq", seq_arg(e)),
                    ("class", Value::UInt(u64::from(*class))),
                    ("layer", Value::UInt(u64::from(*layer))),
                    ("score", Value::Float(*score)),
                    ("threshold", Value::Float(*threshold)),
                    ("accepted", Value::Bool(*accepted)),
                ],
            ),
            EventKind::Step {
                step,
                occupancy,
                layers,
                dur_s,
            } => span(
                "step",
                e,
                e.t,
                *dur_s,
                vec![
                    ("step", Value::UInt(*step)),
                    ("occupancy", Value::UInt(u64::from(*occupancy))),
                    ("layers", Value::UInt(u64::from(*layers))),
                ],
            ),
            EventKind::Admission {
                request,
                queue_depth,
            } => instant(
                e,
                vec![
                    ("request", Value::UInt(*request)),
                    ("queue_depth", Value::UInt(u64::from(*queue_depth))),
                ],
            ),
            EventKind::Request {
                request,
                arrival_s,
                first_token_s,
                finish_s,
                tokens,
            } => span(
                "request",
                e,
                *arrival_s,
                finish_s - arrival_s,
                vec![
                    ("request", Value::UInt(*request)),
                    ("ttft_s", Value::Float(first_token_s - arrival_s)),
                    ("tokens", Value::UInt(u64::from(*tokens))),
                ],
            ),
            EventKind::Routing {
                request,
                policy,
                chosen,
                scores,
            } => instant(
                e,
                vec![
                    ("request", Value::UInt(*request)),
                    ("policy", s(policy)),
                    ("chosen", Value::UInt(u64::from(*chosen))),
                    (
                        "scores",
                        Value::Map(
                            scores
                                .iter()
                                .map(|&(w, sc)| (lane_name(w), Value::Float(sc)))
                                .collect(),
                        ),
                    ),
                ],
            ),
            EventKind::ControllerApply { class, threshold } => instant(
                e,
                vec![
                    ("class", Value::UInt(u64::from(*class))),
                    ("threshold", Value::Float(*threshold)),
                ],
            ),
            EventKind::Gossip { classes, tokens } => instant(
                e,
                vec![
                    ("classes", Value::UInt(u64::from(*classes))),
                    ("tokens", Value::UInt(*tokens)),
                ],
            ),
            EventKind::Preempted {
                request,
                lane,
                pages,
            } => instant(
                e,
                vec![
                    ("request", Value::UInt(*request)),
                    ("lane", Value::UInt(u64::from(*lane))),
                    ("pages", Value::UInt(u64::from(*pages))),
                ],
            ),
            EventKind::Resumed { request, lane } => instant(
                e,
                vec![
                    ("request", Value::UInt(*request)),
                    ("lane", Value::UInt(u64::from(*lane))),
                ],
            ),
            EventKind::KvPressure {
                pages,
                shared,
                parked,
            } => instant(
                e,
                vec![
                    ("pages", Value::UInt(u64::from(*pages))),
                    ("shared", Value::UInt(u64::from(*shared))),
                    ("parked", Value::UInt(u64::from(*parked))),
                ],
            ),
            EventKind::DraftPass { nodes, exit_layer } => instant(
                e,
                vec![
                    ("nodes", Value::UInt(u64::from(*nodes))),
                    ("exit_layer", Value::UInt(u64::from(*exit_layer))),
                ],
            ),
            EventKind::TreeVerified { nodes, accepted } => instant(
                e,
                vec![
                    ("nodes", Value::UInt(u64::from(*nodes))),
                    ("accepted", Value::UInt(u64::from(*accepted))),
                ],
            ),
            EventKind::SloFired {
                objective,
                burn_rate,
            } => instant(
                e,
                vec![
                    ("objective", s(objective)),
                    ("burn_rate", Value::Float(*burn_rate)),
                ],
            ),
            EventKind::SloCleared { objective } => instant(e, vec![("objective", s(objective))]),
        });
    }

    map(vec![
        ("traceEvents", Value::Seq(out)),
        ("displayTimeUnit", s("ms")),
    ])
}

/// Serializes [`chrome_trace`] to a JSON string via the vendored
/// `serde_json`.
pub fn chrome_trace_json(events: &[Event]) -> String {
    serde_json::to_string(&chrome_trace(events)).expect("trace document serializes")
}

/// Distinct `(pid, tid)` lanes referenced by a parsed trace document
/// (metadata and payload events alike), ascending.
///
/// Returns `None` when the document has no `traceEvents` array — the
/// shape check the round-trip tests rely on.
pub fn lanes_of(doc: &Value) -> Option<Vec<(u64, u64)>> {
    let Some(Value::Seq(events)) = doc.get("traceEvents") else {
        return None;
    };
    let mut lanes: Vec<(u64, u64)> = events
        .iter()
        .filter_map(|e| {
            let pid = match e.get("pid") {
                Some(Value::UInt(p)) => *p,
                _ => return None,
            };
            let tid = match e.get("tid") {
                Some(Value::UInt(t)) => *t,
                _ => return None,
            };
            Some((pid, tid))
        })
        .collect();
    lanes.sort_unstable();
    lanes.dedup();
    Some(lanes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::Recorder;

    fn sample_events() -> Vec<Event> {
        let mut r0 = Recorder::for_worker(0);
        r0.set_clock(0.0);
        r0.set_seq(Some(1));
        r0.record(EventKind::ExitDecision {
            class: 0,
            layer: 5,
            score: 0.8,
            threshold: 0.5,
            accepted: true,
        });
        r0.set_seq(None);
        r0.record(EventKind::Step {
            step: 0,
            occupancy: 2,
            layers: 12,
            dur_s: 0.01,
        });
        let mut r1 = Recorder::for_worker(1);
        r1.set_clock(0.5);
        r1.record(EventKind::Gossip {
            classes: 2,
            tokens: 64,
        });
        crate::merge_events(vec![r0.into_events(), r1.into_events()])
    }

    #[test]
    fn trace_has_one_lane_per_worker_and_round_trips() {
        let json = chrome_trace_json(&sample_events());
        let doc: serde::Value = serde_json::from_str(&json).expect("trace re-parses");
        let lanes = lanes_of(&doc).expect("traceEvents present");
        assert_eq!(lanes, vec![(0, 0), (0, 1)], "exactly one lane per worker");
    }

    #[test]
    fn spans_and_instants_use_microseconds() {
        let doc = chrome_trace(&sample_events());
        let Some(Value::Seq(events)) = doc.get("traceEvents") else {
            panic!("traceEvents missing");
        };
        let step = events
            .iter()
            .find(|e| e.get("name") == Some(&Value::Str("step".into())))
            .expect("step span present");
        assert_eq!(step.get("ph"), Some(&Value::Str("X".into())));
        assert_eq!(step.get("dur"), Some(&Value::Float(0.01 * 1e6)));
        let gossip = events
            .iter()
            .find(|e| e.get("name") == Some(&Value::Str("gossip".into())))
            .expect("gossip instant present");
        assert_eq!(gossip.get("ph"), Some(&Value::Str("i".into())));
        assert_eq!(gossip.get("ts"), Some(&Value::Float(0.5 * 1e6)));
    }

    #[test]
    fn metadata_names_process_and_threads() {
        let json = chrome_trace_json(&sample_events());
        assert!(json.contains("process_name"));
        assert!(json.contains("\"specee\""));
        assert!(json.contains("thread_name"));
        assert!(json.contains("worker-0"));
        assert!(json.contains("worker-1"));
    }

    #[test]
    fn slo_transitions_export_as_instants() {
        let mut r = Recorder::for_worker(0);
        r.set_clock(1.0);
        r.record(EventKind::SloFired {
            objective: "p99_ttft".to_string(),
            burn_rate: 3.5,
        });
        r.set_clock(2.0);
        r.record(EventKind::SloCleared {
            objective: "p99_ttft".to_string(),
        });
        let doc = chrome_trace(&r.into_events());
        let Some(Value::Seq(events)) = doc.get("traceEvents") else {
            panic!("traceEvents missing");
        };
        let fired = events
            .iter()
            .find(|e| e.get("name") == Some(&Value::Str("slo-fired".into())))
            .expect("slo-fired instant present");
        assert_eq!(fired.get("ph"), Some(&Value::Str("i".into())));
        assert!(events
            .iter()
            .any(|e| e.get("name") == Some(&Value::Str("slo-cleared".into()))));
    }

    #[test]
    fn coordinator_lane_is_named() {
        let e = Event {
            t: 0.0,
            worker: COORDINATOR_LANE,
            seq: None,
            kind: EventKind::Routing {
                request: 9,
                policy: "exit-aware",
                chosen: 1,
                scores: vec![(0, 3.5), (1, 1.5)],
            },
        };
        let json = chrome_trace_json(&[e]);
        assert!(json.contains("coordinator"));
        assert!(json.contains("exit-aware"));
    }
}
