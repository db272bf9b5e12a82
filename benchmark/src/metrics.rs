//! The benchmark's metric tables: names, units, directions and bounds.
//!
//! `BENCHMARK.json` at the repository root lists the same tables (a test
//! checks they agree); `README.md` defines every metric.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Name, unique across both tables.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: measured with tracing off, every workload reports
/// every one of them, none is ever 0.
pub const END_TO_END: &[Spec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("tok_s", "tok/s", Higher, 0.25),
    e2e("noexit_tok_s", "tok/s", Higher, 0.25),
    e2e("req_ms_p50", "ms", Lower, 0.25),
    e2e("req_ms_p90", "ms", Lower, 0.25),
    e2e("priced_tok_s", "tok/s", Higher, 0.20),
    e2e("token_match", "share", Higher, 0.02),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

/// Per-layer metrics (the layers are the crates): traced run only, no
/// bound. A value of 0 means the workload makes no such call.
pub const PER_LAYER: &[Spec] = &[
    // tensor
    layer("tensor.matvec_ns.reference", "ns", Lower),
    layer("tensor.matvec_ns.blocked", "ns", Lower),
    layer("tensor.matvec_ns.quant", "ns", Lower),
    layer("tensor.grouped_gemm_ns", "ns", Lower),
    // model
    layer("model.embed_ns", "ns", Lower),
    layer("model.layer_ns", "ns", Lower),
    layer("model.lm_head_ns", "ns", Lower),
    layer("model.slice_logits_ns", "ns", Lower),
    layer("model.fill_kv_ns", "ns", Lower),
    layer("model.layer_share", "share", Lower),
    layer("model.lm_head_share", "share", Lower),
    layer("model.slice_logits_share", "share", Lower),
    layer("model.fill_kv_share", "share", Lower),
    layer("model.layer_calls_per_tok", "count", Lower),
    layer("model.attention_ns.ctx64", "ns", Lower),
    layer("model.attention_ns.ctx512", "ns", Lower),
    layer("model.ffn_ns", "ns", Lower),
    layer("model.prefill_ns_per_tok", "ns", Lower),
    layer("model.tree_layer_ns_per_node", "ns", Lower),
    layer("model.lm_head_batch_ns_per_row", "ns", Lower),
    layer("model.kv_pages_peak", "count", Lower),
    layer("model.kv_shared_pages", "count", Higher),
    layer("model.kv_cow_copies", "count", Lower),
    layer("model.prefix_hit_share", "share", Higher),
    layer("model.kv_reserved_over_used", "ratio", Lower),
    // synth
    layer("synth.steer_overhead_share", "share", Lower),
    // draft
    layer("draft.propose_ns", "ns", Lower),
    layer("draft.propose_tree_ns", "ns", Lower),
    layer("draft.share", "share", Lower),
    layer("draft.accepted_len", "tok", Higher),
    layer("draft.selfdraft_tok_s", "tok/s", Higher),
    layer("draft.selfdraft_exact", "share", Higher),
    // core
    layer("core.scan_self_share", "share", Lower),
    layer("core.predictor_score_ns", "ns", Lower),
    layer("core.avg_layers", "count", Lower),
    layer("core.predictor_calls_per_tok", "count", Lower),
    layer("core.verify_calls_per_tok", "count", Lower),
    layer("core.verify_accept_rate", "share", Higher),
    layer("core.wall_speedup_vs_noexit", "ratio", Higher),
    layer("core.priced_speedup_vs_noexit", "ratio", Higher),
    // control
    layer("control.pid_step_overhead_share", "share", Lower),
    layer("control.false_exit_rate", "share", Lower),
    // batch
    layer("batch.step_ms_p50", "ms", Lower),
    layer("batch.step_ms_p90", "ms", Lower),
    layer("batch.admit_ms_p50", "ms", Lower),
    layer("batch.tok_s.b1", "tok/s", Higher),
    layer("batch.tok_s.b4", "tok/s", Higher),
    layer("batch.tok_s.b8", "tok/s", Higher),
    layer("batch.rearmost_layer_mean", "count", Lower),
    layer("batch.layer_runs_per_tok", "count", Lower),
    layer("batch.occupancy_mean", "count", Higher),
    layer("batch.preemptions", "count", Lower),
    layer("batch.resumes", "count", Lower),
    // serve
    layer("serve.loop_overhead_share", "share", Lower),
    layer("serve.price_step_ns", "ns", Lower),
    layer("serve.priced_occupancy_mean", "count", Higher),
    layer("serve.priced_ttft_ms_p99", "ms", Lower),
    // cluster
    layer("cluster.spawn_ms", "ms", Lower),
    layer("cluster.submit_ms_p50", "ms", Lower),
    layer("cluster.drain_ms", "ms", Lower),
    layer("cluster.scaling_2w_over_1w", "ratio", Higher),
    layer("cluster.worker_step_imbalance", "ratio", Lower),
    // obs
    layer("obs.recorder_overhead_share", "share", Lower),
    // metrics
    layer("metrics.wall_over_priced", "ratio", Lower),
    layer("metrics.price_ns", "ns", Lower),
    // the run itself
    layer("bench.trace_overhead_share", "share", Lower),
    layer("bench.root_self_share", "share", Lower),
    layer("bench.cpu_over_wall", "ratio", Higher),
    layer("bench.round_iqr_share", "share", Lower),
    layer("bench.machine_speed", "ratio", Higher),
    layer("bench.raw_tok_s", "tok/s", Higher),
    layer("bench.fail_share", "share", Lower),
];

/// Looks a metric up in both tables.
pub fn find(name: &str) -> Option<&'static Spec> {
    END_TO_END.iter().chain(PER_LAYER).find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use crate::workload::Workload;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|s| s.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        for s in END_TO_END.iter().chain(PER_LAYER) {
            assert!(s.name.len() <= 64 && s.unit.len() <= 16, "{}", s.name);
            assert!(s
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(s
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|s| s.bound > 0.0 && s.bound <= 0.25));
        let setup = find("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|s| s.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
    }

    /// `BENCHMARK.json` is what the driver reads; it must say what the
    /// code measures.
    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("valid json");
        let keys: Vec<&str> = doc
            .obj()
            .expect("object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let listed =
            |key: &str| -> Vec<Json> { doc.get(key).and_then(Json::arr).expect(key).to_vec() };
        let field = |v: &Json, k: &str| v.get(k).and_then(Json::str).expect(k).to_string();

        let workloads = listed("workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (w, v) in Workload::ALL.iter().zip(&workloads) {
            assert_eq!(field(v, "name"), w.name());
            let why = field(v, "why");
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let rows = listed(key);
            assert_eq!(rows.len(), table.len(), "{key}");
            for (spec, v) in table.iter().zip(&rows) {
                assert_eq!(field(v, "name"), spec.name);
                assert_eq!(field(v, "unit"), spec.unit, "{}", spec.name);
                assert_eq!(field(v, "better"), spec.better.word(), "{}", spec.name);
                let bound = v.get("bound").and_then(Json::num);
                if key == "end_to_end" {
                    assert_eq!(bound, Some(spec.bound), "{}", spec.name);
                } else {
                    assert_eq!(bound, None, "{}", spec.name);
                }
            }
        }
        let seconds = doc
            .get("run_seconds")
            .and_then(Json::num)
            .expect("run_seconds");
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
        assert_eq!(listed("paths"), [Json::Str("benchmark".to_string())]);
    }
}
