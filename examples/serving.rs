//! Serving: SpecEE under continuous batching (the multi-request extension).
//!
//! The paper evaluates single-stream decoding; this example serves a
//! Poisson stream of requests live through the continuous batcher at
//! several batch caps — once with the oracle draft, once with nothing to
//! speculate on (the dense reference) — showing how the early-exit
//! advantage decays as weight reads amortize across the batch.
//!
//! Run with: `cargo run --release --example serving`

use specee::batch::BatchedEngine;
use specee::core::collect::{collect_training_data, train_bank};
use specee::core::predictor::PredictorBank;
use specee::core::{ScheduleEngine, SpecEeConfig};
use specee::draft::{NoDraft, SpeculativeSource};
use specee::metrics::{FrameworkProfile, HardwareProfile};
use specee::model::{ModelConfig, TokenId};
use specee::nn::TrainConfig;
use specee::serve::{BatcherConfig, ContinuousBatcher, PoissonArrivals};
use specee::synth::{DatasetProfile, OracleDraft, SyntheticLm, SyntheticLmBuilder};
use specee::tensor::rng::Pcg;

/// An empty engine of `max_batch` slots over the trained parts; `D` is the
/// draft its sequences carry.
fn engine<D: SpeculativeSource>(
    max_batch: usize,
    (bank, schedule, config): &(PredictorBank, ScheduleEngine, SpecEeConfig),
) -> BatchedEngine<SyntheticLm, D> {
    let n_layers = bank.len() + 1;
    BatchedEngine::new(
        max_batch,
        16,
        n_layers,
        bank.clone(),
        schedule.clone(),
        config.clone(),
    )
}

fn main() {
    let cfg = ModelConfig::sim_llama2_7b();
    let profile = DatasetProfile::mt_bench();
    let seed = 77;
    let gen = 16usize;
    let n_requests = 12;

    // Offline phase: train the predictor bank once.
    let mut lm = SyntheticLmBuilder::new(cfg.clone(), profile.clone())
        .seed(seed)
        .build();
    let mut draft = OracleDraft::new(*lm.language(), profile.hit_rate, &cfg, seed);
    let prompts: Vec<(Vec<TokenId>, usize)> = (0..6)
        .map(|i| {
            (
                lm.language()
                    .sample_sequence(3 + i, 12, seed ^ u64::from(i)),
                gen,
            )
        })
        .collect();
    let data = collect_training_data(&mut lm, &mut draft, &prompts, 4);
    let config = SpecEeConfig::default();
    let mut bank = PredictorBank::new(cfg.n_layers, &config.predictor, &mut Pcg::seed(seed));
    train_bank(&mut bank, &data.samples, 1.0, &TrainConfig::default(), seed);

    // One never-stepped template: every served sequence is a clone of it
    // (fresh KV and noise streams, the one weight set shared).
    let schedule = config.build_schedule(cfg.n_layers, Some(&data.exit_frequencies));
    let parts = (bank, schedule, config);
    let template = SyntheticLmBuilder::new(cfg.clone(), profile.clone())
        .seed(seed)
        .build();
    let lang = *template.language();
    let draft = OracleDraft::new(lang, profile.hit_rate, &cfg, seed);
    let specs: Vec<(Vec<TokenId>, usize)> = (0..n_requests)
        .map(|i| {
            (
                lang.sample_sequence(5 + i, 10, seed ^ (0x40 + u64::from(i))),
                gen,
            )
        })
        .collect();

    // Serve under several batch caps.
    let requests = PoissonArrivals::new(8.0, seed).requests(&specs);
    println!("batch | dense tok/s | SpecEE tok/s | speedup | SpecEE mean TTFT | SpecEE avg layers");
    for max_batch in [1usize, 2, 4, 8] {
        let batcher = ContinuousBatcher::new(BatcherConfig {
            max_batch,
            hardware: HardwareProfile::a100_80g(),
            framework: FrameworkProfile::vllm(),
            cost: cfg.cost.expect("sim preset has a cost twin"),
        });
        let d = batcher
            .run_live(&requests, &mut engine(max_batch, &parts), |_| {
                (template.clone(), NoDraft)
            })
            .report;
        let s = batcher
            .run_live(&requests, &mut engine(max_batch, &parts), |_| {
                (template.clone(), draft.clone())
            })
            .report;
        let (d, s, layers) = (d.stats(), s.stats(), s.avg_layers);
        println!(
            "{max_batch:>5} | {:>11.2} | {:>12.2} | {:>6.2}x | {:>13.0} ms | {layers:>10.1} / {}",
            d.throughput_tok_s,
            s.throughput_tok_s,
            s.throughput_tok_s / d.throughput_tok_s,
            s.mean_ttft_s * 1e3,
            cfg.n_layers
        );
    }
    println!("\nthe speedup decays toward 1x: a layer's weights are saved only when");
    println!("every co-batched sequence exits below it.");
}
