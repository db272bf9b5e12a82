//! In-memory span recorder for the traced run.
//!
//! A span carries a name, start, end, the span that caused it (request →
//! step → call) and a sequence id. Spans stay in memory and are written
//! out once, at exit, as Chrome-trace JSON. A span's *self time* is its
//! duration minus the part of that interval its child spans cover.
//!
//! The recorder knows nothing about the product crates: the wrappers that
//! open spans around calls into them live in `adapter.rs`.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `crate.what`, e.g. `model.layer`; the part before the dot is the
    /// layer (crate) the time is attributed to.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch (0 while still open).
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread, if any.
    pub parent: Option<u32>,
    /// Sequence (request) id the work belongs to, when known.
    pub seq: Option<u64>,
    /// Thread lane, numbered in order of first appearance.
    pub lane: u32,
    /// Work units the call covered (tree nodes, logit rows); 1 otherwise.
    pub units: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer (crate) prefix of the name.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    /// Per-thread stack of open span indices.
    stacks: Vec<(ThreadId, Vec<u32>)>,
}

/// Shared span sink; cheap to clone into every wrapper and thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    inner: Mutex<Inner>,
}

/// Closes its span when dropped.
#[derive(Debug)]
pub struct SpanGuard {
    tracer: Arc<Tracer>,
    index: u32,
}

impl Tracer {
    /// A fresh recorder whose clock starts now.
    pub fn new() -> Arc<Self> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panicking request is caught by the harness; the span list is
        // append-only, so it is valid at every step.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Opens a span on the calling thread; its parent is the innermost
    /// span still open on this thread.
    pub fn span(self: &Arc<Self>, name: &'static str, seq: Option<u64>, units: u32) -> SpanGuard {
        let tid = std::thread::current().id();
        let mut inner = self.lock();
        let lane = match inner.stacks.iter().position(|(t, _)| *t == tid) {
            Some(l) => l,
            None => {
                inner.stacks.push((tid, Vec::new()));
                inner.stacks.len() - 1
            }
        };
        let index = inner.spans.len() as u32;
        let parent = inner.stacks[lane].1.last().copied();
        inner.stacks[lane].1.push(index);
        let start_ns = self.now_ns();
        inner.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            seq,
            lane: lane as u32,
            units,
        });
        SpanGuard {
            tracer: Arc::clone(self),
            index,
        }
    }

    /// Spans recorded so far (open ones included).
    pub fn len(&self) -> usize {
        self.lock().spans.len()
    }

    /// A copy of every span recorded so far. Spans still open (or left
    /// open by a panic) are closed at the current time.
    pub fn spans(&self) -> Vec<Span> {
        let now = self.now_ns();
        let mut spans = self.lock().spans.clone();
        for s in &mut spans {
            if s.end_ns == 0 {
                s.end_ns = now;
            }
        }
        spans
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end = self.tracer.now_ns();
        let mut inner = self.tracer.lock();
        let span = &mut inner.spans[self.index as usize];
        span.end_ns = end.max(span.start_ns + 1);
        let lane = span.lane as usize;
        let stack = &mut inner.stacks[lane].1;
        // A panic may unwind guards out of order; drop everything above.
        if let Some(at) = stack.iter().rposition(|&i| i == self.index) {
            stack.truncate(at);
        }
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to the span).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if b > a {
                children[p as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub calls: u64,
    /// Sum of their work units.
    pub units: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// Totals for every span whose name satisfies `pick`.
pub fn totals(spans: &[Span], self_ns: &[u64], pick: impl Fn(&Span) -> bool) -> NameTotals {
    let mut t = NameTotals::default();
    for (s, &own) in spans.iter().zip(self_ns) {
        if pick(s) {
            t.calls += 1;
            t.units += u64::from(s.units);
            t.total_ns += s.dur_ns();
            t.self_ns += own;
        }
    }
    t
}

/// Renders spans as Chrome-trace JSON (`chrome://tracing`, Perfetto):
/// complete events, one `tid` per thread lane, with the span index,
/// parent index, sequence id and self time in `args`.
pub fn chrome_json(spans: &[Span]) -> String {
    let own = self_times_ns(spans);
    let mut out = String::with_capacity(spans.len() * 160 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"seq\":{},\
             \"units\":{},\"self_us\":{:.3}}}}}",
            s.name,
            s.layer(),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.lane,
            i,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.seq.map_or("null".to_string(), |q| q.to_string()),
            s.units,
            own[i] as f64 / 1e3,
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            seq: None,
            lane: 0,
            units: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span("bench.round", 0, 100, None),
            // Two adjacent children and a gap before the third.
            span("core.request", 10, 40, Some(0)),
            span("core.request", 40, 60, Some(0)),
            span("core.request", 70, 90, Some(0)),
            // Nested under the first child.
            span("model.layer", 12, 20, Some(1)),
            span("model.layer", 20, 30, Some(1)),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own[0], 100 - 30 - 20 - 20);
        assert_eq!(own[1], 30 - 8 - 10);
        assert_eq!(own[2], 20);
        assert_eq!(own[4], 8);
    }

    #[test]
    fn overlapping_children_are_not_subtracted_twice() {
        let spans = vec![
            span("bench.round", 0, 100, None),
            span("cluster.submit", 10, 50, Some(0)),
            span("cluster.submit", 30, 70, Some(0)),
            // Clipped to the parent's interval.
            span("cluster.drain", 90, 130, Some(0)),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own[0], 100 - 60 - 10);
    }

    #[test]
    fn guards_nest_per_thread_and_record_parents() {
        let tracer = Tracer::new();
        {
            let _round = tracer.span("bench.round", None, 1);
            {
                let _req = tracer.span("core.request", Some(7), 1);
                let _call = tracer.span("model.layer", Some(7), 1);
            }
            let _second = tracer.span("core.request", Some(8), 1);
            let t = Arc::clone(&tracer);
            std::thread::spawn(move || {
                let _w = t.span("model.layer", Some(9), 3);
            })
            .join()
            .expect("worker thread");
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        // Another thread has its own lane and no parent on it.
        assert_eq!(spans[4].parent, None);
        assert_eq!(spans[4].lane, 1);
        assert_eq!(spans[4].units, 3);
        assert!(spans.iter().all(|s| s.end_ns > s.start_ns));
        let own = self_times_ns(&spans);
        assert!(own[0] <= spans[0].dur_ns());
    }

    #[test]
    fn totals_and_chrome_json_cover_every_span() {
        let spans = vec![
            span("bench.round", 0, 1000, None),
            span("model.layer", 100, 300, Some(0)),
            span("model.layer", 300, 600, Some(0)),
        ];
        let own = self_times_ns(&spans);
        let t = totals(&spans, &own, |s| s.name == "model.layer");
        assert_eq!((t.calls, t.total_ns, t.self_ns), (2, 500, 500));
        let json = chrome_json(&spans);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        assert!(json.contains("\"cat\":\"model\""));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"parent\":null"));
    }
}
