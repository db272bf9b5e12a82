//! Paged-KV memory plane ablation (ours): copy-on-write prefix sharing
//! and priority-lane preemption, measured end to end.
//!
//! Two scenarios on the live lock-step engine:
//!
//! 1. **Shared system prompt.** N requests carry the same page-aligned
//!    64-token system prompt plus a short unique suffix. With prefix
//!    sharing on, admission leases the matching prompt pages read-only
//!    from the resident prefix index and copies only on the first
//!    divergent write, so peak *physical* page occupancy collapses while
//!    every decoded token stays bit-identical to the private-pages run.
//!    The headline assertion: ≥ 30% peak-occupancy cut. The seats are
//!    clones of one template, so a newcomer also copies the K/V of the
//!    pages it co-leases instead of prefilling them; the wall time per
//!    admission and the share of prompt tokens copied are reported, never
//!    asserted.
//!
//! 2. **Page starvation with priority lanes.** Two low-priority hogs
//!    fill a 2-page pool; high-priority short jobs then arrive. With
//!    lanes + preemption the engine parks a hog (pages recycled,
//!    generation state intact), seats the high-priority work, and
//!    resumes the hog bit-identically later — holding the high-priority
//!    worst-case TTFT that a no-preemption baseline stalls on.

use specee_batch::{Admission, BatchedEngine};
use specee_bench::banner;
use specee_core::collect::{collect_training_data, train_bank};
use specee_core::predictor::{PredictorBank, PredictorConfig};
use specee_core::{Lane, ScheduleEngine, SpecEeConfig};
use specee_metrics::{FrameworkProfile, HardwareProfile, Table};
use specee_model::{CostDims, ModelConfig, TokenId};
use specee_nn::TrainConfig;
use specee_serve::{BatcherConfig, ContinuousBatcher, ServeRequest};
use specee_synth::{DatasetProfile, OracleDraft, SyntheticLm, SyntheticLmBuilder};
use specee_tensor::rng::Pcg;
use std::time::Instant;

const N_LAYERS: usize = 8;
const PAGE: usize = 16;

fn cfg() -> ModelConfig {
    ModelConfig {
        n_layers: N_LAYERS,
        vocab_size: 256,
        ..ModelConfig::tiny()
    }
}

fn build_lm(seed: u64) -> SyntheticLm {
    SyntheticLmBuilder::new(cfg(), DatasetProfile::qa())
        .seed(seed)
        .build()
}

/// One sequence: a clone of the never-stepped `template` and its draft.
/// A `build_lm` per request would decode the same tokens but share no
/// weights, and only seats that share weights can copy a resident's
/// prompt K/V.
fn seq_parts(template: &SyntheticLm, seed: u64, id: u64) -> (SyntheticLm, OracleDraft) {
    let lm = template.clone();
    let draft = OracleDraft::new(*lm.language(), 0.9, &cfg(), seed ^ id);
    (lm, draft)
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

fn main() {
    banner(
        "ablation_kv",
        "paged-KV memory plane: COW prefix sharing + priority-lane preemption (extension)",
    );
    let seed = 113;
    let parts = trained(seed);
    let template = build_lm(seed);

    // ---------------- Scenario 1: shared system prompt ----------------
    let n_seq = 8usize;
    let gen = 8usize;
    // Request 0 is the long form: four full pages of system prompt plus a
    // full page of boilerplate instructions — five registered prefix
    // pages. Requests 1-4 append a unique suffix (divergent tail page,
    // allocated private). Requests 5-7 are truncations of request 0 that
    // end mid-page, so they co-lease the boilerplate page read-only and
    // copy it on their first decode write.
    let system: Vec<TokenId> = (0..4 * PAGE as u32).map(|i| 1 + (i % 200)).collect();
    let long_form: Vec<TokenId> = {
        let mut p = system.clone();
        p.extend((0..PAGE as u32).map(|i| 100 + i));
        p
    };
    let prompts: Vec<Vec<TokenId>> = (0..n_seq as u32)
        .map(|i| match i {
            0 => long_form.clone(),
            1..=4 => {
                let mut p = system.clone();
                p.extend([10 + i, 30 + i, 50 + i, 70 + i]);
                p
            }
            _ => long_form[..4 * PAGE + 4].to_vec(),
        })
        .collect();
    let run_shared = |share: bool| {
        let mut engine: BatchedEngine<SyntheticLm, OracleDraft> = BatchedEngine::new(
            n_seq,
            PAGE,
            N_LAYERS,
            parts.0.clone(),
            parts.1.clone(),
            parts.2.clone(),
        );
        engine.enable_prefix_share(share);
        let mut admit_s = 0.0;
        for (i, prompt) in prompts.iter().enumerate() {
            let (lm, draft) = seq_parts(&template, seed, i as u64);
            let started = Instant::now();
            match engine.admit(i as u64, lm, draft, prompt, gen) {
                Admission::Seated { .. } => {}
                Admission::Done(_) => unreachable!("gen > 0 stays seated"),
            }
            admit_s += started.elapsed().as_secs_f64();
        }
        let resident = engine.kv_stats();
        let reused = engine.prefix_tokens_reused();
        let outputs = engine.drain();
        let admit_ms = admit_s * 1e3 / n_seq as f64;
        (outputs, resident, engine.kv_stats(), admit_ms, reused)
    };
    let (private_outs, _, private_kv, private_admit_ms, private_reused) = run_shared(false);
    let (shared_outs, shared_resident, shared_kv, shared_admit_ms, reused) = run_shared(true);
    let admitted: usize = prompts.iter().map(Vec::len).sum();
    for (a, b) in private_outs.iter().zip(&shared_outs) {
        assert_eq!(
            a.tokens, b.tokens,
            "prefix sharing must not change decoded values (request {})",
            a.id
        );
        assert_eq!(a.exit_layers, b.exit_layers, "request {}", a.id);
    }
    let cut = 1.0 - shared_kv.pages_peak as f64 / private_kv.pages_peak as f64;
    let mut table = Table::new(vec![
        "prefix pages",
        "peak pages",
        "pages created",
        "shared at admit",
        "cow copies",
        "admit ms (wall)",
        "prompt tokens copied",
    ]);
    table.row(vec![
        "private".into(),
        private_kv.pages_peak.to_string(),
        private_kv.pages_created.to_string(),
        "0".into(),
        private_kv.cow_copies.to_string(),
        format!("{private_admit_ms:.2}"),
        format!("{private_reused} / {admitted}"),
    ]);
    table.row(vec![
        "cow-shared".into(),
        shared_kv.pages_peak.to_string(),
        shared_kv.pages_created.to_string(),
        shared_resident.shared_pages.to_string(),
        shared_kv.cow_copies.to_string(),
        format!("{shared_admit_ms:.2}"),
        format!("{reused} / {admitted}"),
    ]);
    println!(
        "{n_seq} requests sharing a 64-token system prompt (long form, unique suffixes, \
         mid-page truncations), gen {gen}, page size {PAGE}"
    );
    println!("{table}");
    println!(
        "peak occupancy cut: {:.0}% ({} -> {} pages), outputs bit-identical",
        cut * 100.0,
        private_kv.pages_peak,
        shared_kv.pages_peak
    );
    assert!(
        shared_resident.shared_pages > 0,
        "admissions must co-lease the resident system prompt"
    );
    assert!(
        shared_kv.cow_copies > 0,
        "divergent suffix writes must trigger copy-on-write"
    );
    assert!(
        (shared_kv.pages_peak as f64) <= 0.7 * private_kv.pages_peak as f64,
        "shared-system-prompt workload must cut peak page occupancy by >= 30%: \
         {} vs {} pages",
        shared_kv.pages_peak,
        private_kv.pages_peak
    );

    // ------------- Scenario 2: preemption under starvation -------------
    // Two low-priority hogs (2 pages each by end of decode, held for the
    // whole run) exhaust a 4-page pool; six high-priority short jobs
    // arrive just after.
    let mut requests: Vec<ServeRequest> = (0..2u64)
        .map(|id| ServeRequest {
            id,
            prompt: vec![1 + id as u32, 2 + id as u32, 3 + id as u32],
            gen_len: 28,
            arrival_s: 0.0,
        })
        .collect();
    for i in 0..6u64 {
        requests.push(ServeRequest {
            id: 2 + i,
            prompt: vec![4 + i as u32, 5 + i as u32, 6 + i as u32],
            gen_len: 4,
            arrival_s: 0.002 + i as f64 * 1e-4,
        });
    }
    let lanes: Vec<Lane> = requests
        .iter()
        .map(|r| if r.id < 2 { Lane::new(2) } else { Lane::new(0) })
        .collect();
    let cost = CostDims {
        n_layers: N_LAYERS,
        ..CostDims::llama2_7b()
    };
    let run_starved = |preempt: bool| {
        let batcher = ContinuousBatcher::new(BatcherConfig {
            max_batch: 2,
            hardware: HardwareProfile::a100_80g(),
            framework: FrameworkProfile::vllm(),
            cost,
        });
        let mut engine: BatchedEngine<SyntheticLm, OracleDraft> = BatchedEngine::new(
            2,
            PAGE,
            N_LAYERS,
            parts.0.clone(),
            parts.1.clone(),
            parts.2.clone(),
        );
        engine.set_page_capacity(Some(4));
        engine.set_preemption_enabled(preempt);
        let outcome = batcher.run_live_laned(&requests, &lanes, &mut engine, |r| {
            seq_parts(&template, seed, r.id)
        });
        (outcome, engine.preemptions(), engine.resumes())
    };
    let (stalled, p0, _) = run_starved(false);
    let (preempting, p1, r1) = run_starved(true);
    assert_eq!(p0, 0, "the baseline never preempts");
    assert!(p1 > 0, "the starved run must preempt a hog");
    assert_eq!(p1, r1, "every parked sequence resumes");
    assert_eq!(stalled.report.completions.len(), requests.len());
    assert_eq!(preempting.report.completions.len(), requests.len());
    for (a, b) in stalled.outputs.iter().zip(&preempting.outputs) {
        assert_eq!(
            a.tokens, b.tokens,
            "preempt/resume must be value-transparent (request {})",
            a.id
        );
    }
    // Worst-case (p99-equivalent at this sample count) TTFT over the
    // high-priority lane.
    let worst_high_ttft = |report: &specee_serve::batcher::ServeReport| {
        report
            .completions
            .iter()
            .filter(|c| c.id >= 2)
            .map(|c| c.first_token_s - c.arrival_s)
            .fold(0.0f64, f64::max)
    };
    let stall_ttft = worst_high_ttft(&stalled.report);
    let preempt_ttft = worst_high_ttft(&preempting.report);
    println!("page starvation (pool cap 4, 2 low-priority hogs + 6 high-priority jobs):");
    println!(
        "  no preemption : high-priority worst TTFT {:>6.1} ms (stalled behind hogs)",
        stall_ttft * 1e3
    );
    println!(
        "  lanes+preempt : high-priority worst TTFT {:>6.1} ms ({} preemptions, {} resumes)",
        preempt_ttft * 1e3,
        p1,
        r1
    );
    println!(
        "  {:.1}x TTFT reduction, identical token streams in both runs",
        stall_ttft / preempt_ttft
    );
    assert!(
        preempt_ttft < 0.5 * stall_ttft,
        "lanes+preemption must hold high-priority TTFT under starvation: \
         {preempt_ttft}s vs stalled {stall_ttft}s"
    );
}
