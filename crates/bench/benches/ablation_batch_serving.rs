//! Serving extension (ours): how SpecEE's single-stream win behaves under
//! continuous batching. The paper evaluates batch 1; in a served batch the
//! weight read of a layer is amortized across every sequence that executes
//! it, so an early exit saves weight bandwidth only when *all* co-batched
//! sequences exit below the layer. This harness sweeps the batch cap,
//! serves a Poisson stream live at each — once with the oracle draft, once
//! with nothing to speculate on — and reports the dense-vs-SpecEE
//! throughput ratio, TTFT and latency.

use specee_bench::*;
use specee_draft::NoDraft;
use specee_metrics::{report::fmt_x, FrameworkProfile, HardwareProfile, Table};
use specee_serve::{BatcherConfig, ContinuousBatcher};
use specee_synth::OracleDraft;

fn main() {
    banner(
        "ablation_batch_serving",
        "continuous batching: early-exit advantage vs batch size (extension)",
    );
    let cfg = model_7b();
    let seed = 23;
    let ds = specee_synth::DatasetProfile::mt_bench();
    let trained = train_pipeline(&cfg, &ds, seed, paper_predictor());
    // A serving workload: more, shorter requests than the single-stream
    // benches.
    let n_requests = (request_count() * 6).max(12);
    let wl = workload(&cfg, &ds, n_requests, seed);

    // One never-stepped template; every sequence is a clone of it.
    let template = build_lm(&cfg, &ds, seed, ModelVariant::Dense);
    let draft = build_draft(&template, &cfg, seed);
    let requests = serve_requests(&wl, 8.0, seed ^ 0x5e);
    let cost = cfg.cost.expect("sim models carry a cost twin");

    let mut table = Table::new(vec![
        "batch cap",
        "dense tok/s",
        "SpecEE tok/s",
        "speedup",
        "SpecEE TTFT",
        "SpecEE p95 lat",
        "occupancy",
    ]);
    let mut speedups = Vec::new();
    for &max_batch in &[1usize, 2, 4, 8, 16] {
        let batcher = ContinuousBatcher::new(BatcherConfig {
            max_batch,
            hardware: HardwareProfile::a100_80g(),
            framework: FrameworkProfile::vllm(),
            cost,
        });
        let mut dense_engine = live_engine::<NoDraft>(&cfg, &trained, max_batch);
        let d = batcher
            .run_live(&requests, &mut dense_engine, |_| {
                (template.clone(), NoDraft)
            })
            .report
            .stats();
        let mut engine = live_engine::<OracleDraft>(&cfg, &trained, max_batch);
        let s = batcher
            .run_live(&requests, &mut engine, |_| {
                (template.clone(), draft.clone())
            })
            .report
            .stats();
        let speedup = s.throughput_tok_s / d.throughput_tok_s;
        speedups.push(speedup);
        table.row(vec![
            max_batch.to_string(),
            format!("{:.2}", d.throughput_tok_s),
            format!("{:.2}", s.throughput_tok_s),
            fmt_x(speedup),
            format!("{:.0}ms", s.mean_ttft_s * 1e3),
            format!("{:.0}ms", s.p95_latency_s * 1e3),
            format!("{:.2}", s.avg_occupancy),
        ]);
    }
    println!(
        "Llama2-7B(sim) @ A100 / vllm host profile, {} requests, Poisson 8 req/s",
        requests.len()
    );
    println!("{table}");
    println!(
        "Expected shape: the batch-1 speedup matches the single-stream Fig. 14 margin\n\
         and decays toward 1x as the batch grows (weight reads amortize; savings need\n\
         unanimous exits), while per-token compute savings keep a residual margin.\n\
         first/last speedup: {} -> {}",
        fmt_x(speedups[0]),
        fmt_x(*speedups.last().expect("sweep")),
    );
}
