//! Live batched decoding: N sequences in lock-step with per-sequence
//! early exit.
//!
//! Where `examples/serving.rs` sweeps batch caps through the serving
//! loop, this example drives the `specee-batch` runtime directly: four
//! sequences decode together, each making its own predictor decisions,
//! and every step prints the measured per-layer runner counts — the
//! Cannikin effect (the batch pays for layers down to the rearmost
//! still-needed one) observed live rather than assumed. It then serves
//! the same burst through `ContinuousBatcher::run_live`, with the oracle
//! draft and with nothing to speculate on, on the same priced clock.
//!
//! Run with: `cargo run --release --example live_batch`

use specee::batch::{Admission, BatchedEngine};
use specee::core::collect::{collect_training_data, train_bank};
use specee::core::predictor::{PredictorBank, PredictorConfig};
use specee::core::SpecEeConfig;
use specee::draft::NoDraft;
use specee::metrics::{FrameworkProfile, HardwareProfile};
use specee::model::{CostDims, ModelConfig, TokenId};
use specee::nn::TrainConfig;
use specee::serve::{BatcherConfig, ContinuousBatcher, PoissonArrivals};
use specee::synth::{DatasetProfile, OracleDraft, SyntheticLm, SyntheticLmBuilder};
use specee::tensor::rng::Pcg;

const N_LAYERS: usize = 16;
const GEN: usize = 12;

fn model_cfg() -> ModelConfig {
    ModelConfig {
        n_layers: N_LAYERS,
        vocab_size: 512,
        ..ModelConfig::tiny()
    }
    .with_cost(CostDims {
        n_layers: N_LAYERS,
        ..CostDims::llama2_7b()
    })
}

fn build_lm(seed: u64) -> SyntheticLm {
    SyntheticLmBuilder::new(model_cfg(), DatasetProfile::qa())
        .seed(seed)
        .build()
}

fn build_draft(lm: &SyntheticLm, seed: u64) -> OracleDraft {
    OracleDraft::new(*lm.language(), 0.9, &model_cfg(), seed)
}

fn main() {
    let seed = 2025;
    let cfg = model_cfg();

    // Offline phase: collect features, train the per-layer predictors.
    let mut lm = build_lm(seed);
    let mut draft = build_draft(&lm, seed);
    let train_prompts: Vec<(Vec<TokenId>, usize)> = (0..10u32)
        .map(|i| (vec![2 + i, 7 + (i % 5), 1 + i], GEN))
        .collect();
    let data = collect_training_data(&mut lm, &mut draft, &train_prompts, 4);
    let pcfg = PredictorConfig {
        hidden_dim: 32,
        ..PredictorConfig::default()
    };
    let mut bank = PredictorBank::new(N_LAYERS, &pcfg, &mut Pcg::seed(seed));
    train_bank(&mut bank, &data.samples, 1.0, &TrainConfig::default(), seed);
    let config = SpecEeConfig {
        predictor: pcfg,
        ..SpecEeConfig::default()
    };
    let schedule = config.build_schedule(N_LAYERS, Some(&data.exit_frequencies));

    // Live lock-step decode of four co-batched sequences.
    let prompts: [&[TokenId]; 4] = [&[4, 2, 9], &[1, 5, 3], &[8, 8, 2], &[6, 1, 7]];
    let mut engine: BatchedEngine<SyntheticLm, OracleDraft> = BatchedEngine::new(
        4,
        16,
        N_LAYERS,
        bank.clone(),
        schedule.clone(),
        config.clone(),
    );
    for (i, p) in prompts.iter().enumerate() {
        let lm = build_lm(seed);
        let d = build_draft(&lm, seed ^ i as u64);
        match engine.admit(i as u64, lm, d, p, GEN) {
            Admission::Seated { slot } => assert_eq!(slot, i),
            Admission::Done(_) => unreachable!("GEN > 1"),
        }
    }
    println!("live lock-step decode, batch 4, {N_LAYERS} layers:");
    println!("step | occupancy | rearmost layer | per-sequence exits");
    let mut finished = Vec::new();
    let mut step_no = 0;
    while engine.occupancy() > 0 {
        let step = engine.step();
        step_no += 1;
        // Per-slot exit = number of layers that slot ran (count of layers
        // whose runner set includes it — recoverable from runner deltas).
        let exits: Vec<String> = step
            .layer_runners
            .windows(2)
            .enumerate()
            .filter(|(_, w)| w[0] > w[1])
            .flat_map(|(l, w)| std::iter::repeat_n(format!("L{}", l + 1), w[0] - w[1]))
            .collect();
        println!(
            "{step_no:>4} | {:>9} | {:>14} | {}",
            step.ctx_lens.len(),
            step.rearmost_layer(),
            if exits.is_empty() {
                "all full depth".to_string()
            } else {
                exits.join(" ")
            }
        );
        finished.extend(step.finished);
    }
    finished.sort_by_key(|o| o.id);
    println!(
        "\npage pool: {} pages created, {} peak in use, {} now (recycled on retire)",
        engine.pool().pages_created(),
        engine.pool().pages_peak(),
        engine.pool().pages_in_use()
    );
    for out in &finished {
        println!(
            "seq {}: {} tokens, mean exit {:.1}/{N_LAYERS}, {} verifies",
            out.id,
            out.tokens.len(),
            out.avg_layers(),
            out.verify_calls
        );
    }

    // Served comparison: the same burst through the serving loop, with the
    // oracle draft and with nothing to speculate on. Every sequence is a
    // clone of one never-stepped template, so the batch shares its weights.
    let specs: Vec<(Vec<TokenId>, usize)> = prompts.iter().map(|p| (p.to_vec(), GEN)).collect();
    let requests = PoissonArrivals::new(30.0, seed).requests(&specs);
    let batcher = ContinuousBatcher::new(BatcherConfig {
        max_batch: 4,
        hardware: HardwareProfile::a100_80g(),
        framework: FrameworkProfile::vllm(),
        cost: cfg.cost.expect("cost twin"),
    });
    let template = build_lm(seed);
    let mut dense_engine: BatchedEngine<SyntheticLm, NoDraft> = BatchedEngine::new(
        4,
        16,
        N_LAYERS,
        bank.clone(),
        schedule.clone(),
        config.clone(),
    );
    let dense = batcher.run_live(&requests, &mut dense_engine, |_| {
        (template.clone(), NoDraft)
    });
    let mut live_engine: BatchedEngine<SyntheticLm, OracleDraft> =
        BatchedEngine::new(4, 16, N_LAYERS, bank, schedule, config);
    let live = batcher.run_live(&requests, &mut live_engine, |req| {
        (template.clone(), build_draft(&template, seed ^ req.id))
    });
    for (out, alone) in live.outputs.iter().zip(&finished) {
        assert_eq!(out.tokens, alone.tokens, "served/stepped token mismatch");
    }
    let (d, s) = (dense.report.stats(), live.report.stats());
    println!(
        "\nserved burst of {}: dense {:.2} tok/s at {:.1} layers, SpecEE {:.2} tok/s at {:.1} \
         ({:.2}x, measured steps)",
        specs.len(),
        d.throughput_tok_s,
        dense.report.avg_layers,
        s.throughput_tok_s,
        live.report.avg_layers,
        s.throughput_tok_s / d.throughput_tok_s
    );
}
