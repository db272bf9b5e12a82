//! The paged-KV memory plane: copy-on-write prefix sharing, preemption,
//! and priority lanes.
//!
//! Part one admits a fleet of requests that share a 64-token system
//! prompt into one engine twice — once with private pages, once with the
//! resident prefix index on. Sharing co-leases the matching prompt pages
//! read-only and copies only on the first divergent write, so peak
//! physical occupancy collapses while every decoded token stays
//! bit-identical (the pool is pure accounting; each sequence's model
//! still owns its real KV values). The sequences are clones of one
//! template, so they share its weights and a newcomer copies the K/V of
//! the pages it co-leases from a resident instead of prefilling them.
//!
//! Part two starves a capacity-capped pool: a low-priority hog holds
//! pages until a high-priority arrival evicts it mid-decode (pages
//! recycled, generation state parked), then resumes it bit-identically
//! once pages free up. The attached trace recorder captures the
//! preempt/resume timeline, printed below, and an uncapped control run
//! proves the interrupted decode matches the uninterrupted one.
//!
//! Run with: `cargo run --release --example prefix_share`

use specee::batch::{Admission, BatchedEngine};
use specee::core::collect::{collect_training_data, train_bank};
use specee::core::predictor::{PredictorBank, PredictorConfig};
use specee::core::{Lane, ScheduleEngine, SpecEeConfig, TrafficClass};
use specee::model::{KvStats, ModelConfig, TokenId};
use specee::nn::TrainConfig;
use specee::obs::{EventKind, Recorder};
use specee::synth::{DatasetProfile, OracleDraft, SyntheticLm, SyntheticLmBuilder};
use specee::tensor::rng::Pcg;

const N_LAYERS: usize = 8;
const PAGE: usize = 16;
const SEED: u64 = 2031;

fn model_cfg() -> ModelConfig {
    ModelConfig {
        n_layers: N_LAYERS,
        vocab_size: 256,
        ..ModelConfig::tiny()
    }
}

fn build_lm() -> SyntheticLm {
    SyntheticLmBuilder::new(model_cfg(), DatasetProfile::qa())
        .seed(SEED)
        .build()
}

/// One sequence: a clone of the never-stepped `template` — the model a
/// fresh build is, sharing the template's weights — and its draft.
fn seq_parts(template: &SyntheticLm, id: u64) -> (SyntheticLm, OracleDraft) {
    let lm = template.clone();
    let draft = OracleDraft::new(*lm.language(), 0.9, &model_cfg(), SEED ^ id);
    (lm, draft)
}

fn engine(
    max_batch: usize,
    bank: &PredictorBank,
    schedule: &ScheduleEngine,
    config: &SpecEeConfig,
) -> BatchedEngine<SyntheticLm, OracleDraft> {
    BatchedEngine::new(
        max_batch,
        PAGE,
        N_LAYERS,
        bank.clone(),
        schedule.clone(),
        config.clone(),
    )
}

fn main() {
    // Offline: train a small predictor bank once, share across runs.
    let mut lm = build_lm();
    let mut draft = OracleDraft::new(*lm.language(), 0.9, &model_cfg(), SEED);
    let train_prompts: Vec<(Vec<TokenId>, usize)> =
        (0..8u32).map(|i| (vec![1 + i, 2 + i], 8usize)).collect();
    let data = collect_training_data(&mut lm, &mut draft, &train_prompts, 4);
    let pcfg = PredictorConfig {
        hidden_dim: 16,
        ..PredictorConfig::default()
    };
    let mut bank = PredictorBank::new(N_LAYERS, &pcfg, &mut Pcg::seed(SEED));
    train_bank(&mut bank, &data.samples, 1.0, &TrainConfig::default(), SEED);
    let config = SpecEeConfig {
        predictor: pcfg,
        ..SpecEeConfig::default()
    };
    let schedule = ScheduleEngine::all_layers(N_LAYERS);

    // ---- Part 1: copy-on-write prefix sharing ----
    // Request 0 registers five full prefix pages (system prompt +
    // boilerplate). Requests 1-3 append unique suffixes; requests 4-5
    // truncate request 0 mid-page, exercising the copy-on-write tail.
    let system: Vec<TokenId> = (0..4 * PAGE as u32).map(|i| 1 + (i % 200)).collect();
    let long_form: Vec<TokenId> = {
        let mut p = system.clone();
        p.extend((0..PAGE as u32).map(|i| 100 + i));
        p
    };
    let prompts: Vec<Vec<TokenId>> = (0..6u32)
        .map(|i| match i {
            0 => long_form.clone(),
            1..=3 => {
                let mut p = system.clone();
                p.extend([10 + i, 30 + i, 50 + i]);
                p
            }
            _ => long_form[..4 * PAGE + 6].to_vec(),
        })
        .collect();
    let gen = 8usize;
    // Not `lm` above: collecting training data stepped it.
    let template = build_lm();
    let run = |share: bool| -> (Vec<specee::batch::BatchedOutput>, KvStats, KvStats, u64) {
        let mut eng = engine(prompts.len(), &bank, &schedule, &config);
        eng.enable_prefix_share(share);
        for (i, prompt) in prompts.iter().enumerate() {
            let (lm, draft) = seq_parts(&template, i as u64);
            match eng.admit(i as u64, lm, draft, prompt, gen) {
                Admission::Seated { .. } => {}
                Admission::Done(_) => unreachable!("gen > 0 stays seated"),
            }
        }
        let resident = eng.kv_stats();
        let reused = eng.prefix_tokens_reused();
        let outputs = eng.drain();
        (outputs, resident, eng.kv_stats(), reused)
    };
    let (private_outs, _, private_kv, _) = run(false);
    let (shared_outs, at_admit, shared_kv, reused) = run(true);
    for (a, b) in private_outs.iter().zip(&shared_outs) {
        assert_eq!(a.tokens, b.tokens, "sharing must not change values");
        assert_eq!(a.exit_layers, b.exit_layers);
    }
    println!(
        "{} requests sharing a {}-token system prompt, gen {gen}, page size {PAGE}:",
        prompts.len(),
        system.len()
    );
    println!(
        "  private pages : peak {:>2} pages, {} created",
        private_kv.pages_peak, private_kv.pages_created
    );
    println!(
        "  cow-shared    : peak {:>2} pages, {} created, {} co-leased at admit, {} cow copies",
        shared_kv.pages_peak, shared_kv.pages_created, at_admit.shared_pages, shared_kv.cow_copies
    );
    println!(
        "                  {reused} of {} prompt tokens copied from a resident, not prefilled",
        prompts.iter().map(Vec::len).sum::<usize>()
    );
    println!(
        "  -> {:.0}% peak-occupancy cut, outputs bit-identical\n",
        100.0 * (1.0 - shared_kv.pages_peak as f64 / private_kv.pages_peak as f64)
    );
    assert!(at_admit.shared_pages > 0, "prefix pages co-leased");
    assert!(reused > 0, "co-leased pages are copied, not recomputed");
    assert!(shared_kv.cow_copies > 0, "divergent writes copied");
    assert!(shared_kv.pages_peak < private_kv.pages_peak);

    // ---- Part 2: preemption under page pressure, traced ----
    // A 3-page pool seats two growing 40-token decodes whose joint page
    // demand soon overflows the cap. The engine repeatedly parks the
    // lane-1 sequence (pages recycled, generation state whole) to let
    // lane 0 make progress, re-seating it whenever pages free up — and
    // the interrupted decode still matches an uncapped control run
    // token for token.
    let admit_laned = |eng: &mut BatchedEngine<SyntheticLm, OracleDraft>| {
        for i in 0..2u64 {
            let (lm, draft) = seq_parts(&template, 100 + i);
            let _ = eng.admit_laned(
                i,
                TrafficClass::DEFAULT,
                Lane::new(i as u8),
                lm,
                draft,
                &[4 + i as TokenId, 2, 9],
                40,
            );
        }
    };
    let mut capped = engine(2, &bank, &schedule, &config);
    capped.set_page_capacity(Some(3));
    capped.set_preemption_enabled(true);
    capped.set_recorder(Some(Recorder::for_worker(0)));
    admit_laned(&mut capped);
    let interrupted = capped.drain();
    let mut uncapped = engine(2, &bank, &schedule, &config);
    admit_laned(&mut uncapped);
    let control = uncapped.drain();
    assert!(capped.preemptions() > 0, "the cap must force an eviction");
    assert_eq!(capped.preemptions(), capped.resumes());
    for (a, b) in interrupted.iter().zip(&control) {
        assert_eq!(
            a.tokens, b.tokens,
            "preempted-then-resumed must equal uninterrupted (request {})",
            a.id
        );
    }
    println!("page-pressure timeline (pool cap 3, two growing decodes, lane 1 yields to lane 0):");
    let events = capped
        .take_recorder()
        .map(Recorder::into_events)
        .expect("recorder attached");
    // The raw stream carries one pressure sample per step boundary and
    // one preempt/resume pair per park cycle; condense it to its phases.
    let first_preempt = events
        .iter()
        .find_map(|e| match e.kind {
            EventKind::Preempted {
                request,
                lane,
                pages,
            } => Some((request, lane, pages)),
            _ => None,
        })
        .expect("traced preemption");
    let last_resume = events
        .iter()
        .rev()
        .find_map(|e| match e.kind {
            EventKind::Resumed { request, lane } => Some((request, lane)),
            _ => None,
        })
        .expect("traced resume");
    let peak_pressure = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::KvPressure { pages, parked, .. } if parked > 0 => Some(pages),
            _ => None,
        })
        .max()
        .expect("pressure sampled while parked");
    println!(
        "  preempt  request {} (lane {}): {} pages recycled, generation state parked",
        first_preempt.0, first_preempt.1, first_preempt.2
    );
    println!(
        "  ...      {} park/resume cycles while the pool stays saturated \
         (up to {peak_pressure}/3 pages resident, 1 parked)",
        capped.preemptions() - 1
    );
    println!(
        "  resume   request {} (lane {}): pages freed, decode continues in place",
        last_resume.0, last_resume.1
    );
    println!(
        "\ninterrupted decode == uninterrupted decode ({} + {} tokens, bit-identical)",
        interrupted[0].tokens.len(),
        interrupted[1].tokens.len()
    );
}
