//! Golden-file pin of the Prometheus text exposition.
//!
//! The exposition is byte-stable by construction (BTreeMap family order,
//! shortest-round-trip float formatting); this test freezes the exact
//! bytes for a representative registry so any formatting drift — header
//! placement, bucket naming, number rendering — fails loudly instead of
//! silently breaking downstream scrapers.
//!
//! To regenerate after an *intentional* format change:
//! `UPDATE_GOLDEN=1 cargo test -p specee-obs --test prom_golden`.

use specee_obs::{
    fold_events, merge_events, prometheus_text, Event, EventKind, MetricsRegistry, Recorder,
    COORDINATOR_LANE, TTFT_BOUNDS,
};

/// A small two-worker run, written out event by event: worker 0 decodes
/// one request with a mix of accepted/rejected exits, worker 1 decodes
/// one full-depth request, and the coordinator routes both.
fn fixture_events() -> Vec<Event> {
    let mut coord = Recorder::for_worker(COORDINATOR_LANE);
    coord.record_at(
        0.0,
        Some(0),
        EventKind::Routing {
            request: 0,
            policy: "exit-aware",
            chosen: 0,
            scores: vec![(0, 1.5), (1, 2.25)],
        },
    );
    coord.record_at(
        0.125,
        Some(1),
        EventKind::Routing {
            request: 1,
            policy: "exit-aware",
            chosen: 1,
            scores: vec![(0, 3.5), (1, 2.0)],
        },
    );

    let mut w0 = Recorder::for_worker(0);
    w0.record_at(
        0.0,
        Some(0),
        EventKind::Admission {
            request: 0,
            queue_depth: 1,
        },
    );
    w0.set_clock(0.25);
    w0.set_seq(Some(0));
    for (layer, score, accepted) in [(3u32, 0.875, true), (5, 0.25, false), (3, 0.75, true)] {
        w0.record(EventKind::ExitDecision {
            class: 0,
            layer,
            score,
            threshold: 0.5,
            accepted,
        });
    }
    // The self-draft plane acting: one shallow draft pass speculated a
    // 7-node tree, verified in one sweep with a 3-token accepted prefix.
    w0.record(EventKind::DraftPass {
        nodes: 7,
        exit_layer: 3,
    });
    w0.record(EventKind::TreeVerified {
        nodes: 7,
        accepted: 3,
    });
    w0.set_seq(None);
    w0.record(EventKind::Step {
        step: 0,
        occupancy: 1,
        layers: 8,
        dur_s: 0.0625,
    });
    w0.record(EventKind::ControllerApply {
        class: 0,
        threshold: 0.5625,
    });
    w0.record(EventKind::Gossip {
        classes: 1,
        tokens: 12,
    });
    // The paged-KV memory plane acting: a low-priority resident is
    // preempted under page pressure, pressure is sampled at the step
    // boundary, and the victim is later resumed.
    w0.record(EventKind::Preempted {
        request: 0,
        lane: 2,
        pages: 3,
    });
    w0.record(EventKind::KvPressure {
        pages: 6,
        shared: 2,
        parked: 1,
    });
    w0.record_at(
        0.4375,
        Some(0),
        EventKind::Resumed {
            request: 0,
            lane: 2,
        },
    );
    w0.record_at(
        0.5,
        Some(0),
        EventKind::Request {
            request: 0,
            arrival_s: 0.0,
            first_token_s: 0.25,
            finish_s: 0.5,
            tokens: 3,
        },
    );

    let mut w1 = Recorder::for_worker(1);
    w1.record_at(
        0.125,
        Some(1),
        EventKind::Admission {
            request: 1,
            queue_depth: 0,
        },
    );
    w1.record_at(
        0.375,
        None,
        EventKind::Step {
            step: 0,
            occupancy: 1,
            layers: 8,
            dur_s: 0.125,
        },
    );
    w1.record_at(
        0.75,
        Some(1),
        EventKind::Request {
            request: 1,
            arrival_s: 0.125,
            first_token_s: 0.5,
            finish_s: 0.75,
            tokens: 2,
        },
    );

    merge_events(vec![
        w0.into_events(),
        w1.into_events(),
        coord.into_events(),
    ])
}

fn fixture_registry() -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    fold_events(&mut reg, &fixture_events());
    // One gauge so the gauge family ordering is pinned too (fold_events
    // alone produces only counters and histograms).
    reg.gauge_set("specee_mean_threshold", 0.5625);
    reg
}

#[test]
fn prometheus_exposition_matches_the_golden_file() {
    let text = prometheus_text(&fixture_registry());
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/prometheus.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &text).expect("write golden");
        return;
    }
    let golden = include_str!("golden/prometheus.txt");
    assert_eq!(
        text, golden,
        "Prometheus exposition drifted from the golden file; if the change \
         is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// Re-rendering the same registry — and re-folding the same events —
/// must be byte-identical: scrape stability is the whole point of the
/// BTreeMap-backed registry.
#[test]
fn exposition_is_deterministic_across_renders() {
    let a = prometheus_text(&fixture_registry());
    let b = prometheus_text(&fixture_registry());
    assert_eq!(a, b);
    assert!(!a.is_empty());
}

/// The fixture exercises every family kind the exposition can emit.
#[test]
fn fixture_covers_counters_gauges_and_histograms() {
    let text = prometheus_text(&fixture_registry());
    assert!(text.contains("# TYPE specee_exits_accepted_total counter"));
    assert!(text.contains("# TYPE specee_mean_threshold gauge"));
    assert!(text.contains("# TYPE specee_ttft_seconds histogram"));
    // The paged-KV memory-plane series.
    assert!(text.contains("# TYPE specee_kv_preemptions_total counter"));
    assert!(text.contains("specee_kv_preemptions_total 1"));
    assert!(text.contains("specee_kv_resumes_total 1"));
    assert!(text.contains("# TYPE specee_kv_occupancy gauge"));
    assert!(text.contains("specee_kv_occupancy 6"));
    assert!(text.contains("specee_kv_shared_pages 2"));
    // The self-draft plane's series.
    assert!(text.contains("# TYPE specee_draft_accepted_len histogram"));
    assert!(text.contains("specee_draft_passes_total 1"));
    assert!(text.contains("specee_trees_verified_total 1"));
    assert!(text.contains("specee_draft_nodes_total 7"));
    // Cumulative buckets end with the +Inf catch-all equal to _count.
    let inf = text
        .lines()
        .find(|l| l.starts_with("specee_ttft_seconds_bucket{le=\"+Inf\"}"))
        .expect("+Inf bucket present");
    assert!(inf.ends_with(" 2"), "both requests observed: {inf}");
    let _ = TTFT_BOUNDS;
}
