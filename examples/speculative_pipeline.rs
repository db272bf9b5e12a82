//! Speculative-decoding pipeline (the cloud scenario): EAGLE-style tree
//! decoding, then the same with SpecEE's hyper-token early exiting (T3),
//! priced on the A100 roofline.
//!
//! Run with: `cargo run --release --example speculative_pipeline`

use specee::core::collect::{collect_training_data, train_bank};
use specee::core::engine::SpeculativeEngine;
use specee::core::predictor::PredictorBank;
use specee::core::SpecEeConfig;
use specee::draft::TreeShape;
use specee::metrics::{FrameworkProfile, HardwareProfile, Roofline};
use specee::model::ModelConfig;
use specee::nn::TrainConfig;
use specee::synth::{DatasetProfile, OracleDraft, SyntheticLmBuilder};
use specee::tensor::rng::Pcg;

fn main() {
    let cfg = ModelConfig::sim_llama2_7b();
    let profile = DatasetProfile::qa();
    let seed = 7;

    // Offline training of the exit predictors.
    let mut lm = SyntheticLmBuilder::new(cfg.clone(), profile.clone())
        .seed(seed)
        .build();
    let mut draft = OracleDraft::new(*lm.language(), profile.hit_rate, &cfg, seed);
    let prompts = vec![
        (lm.language().sample_sequence(4, 14, 1), 18),
        (lm.language().sample_sequence(8, 14, 2), 18),
    ];
    let data = collect_training_data(&mut lm, &mut draft, &prompts, 4);
    let config = SpecEeConfig {
        tree_shape: TreeShape::eagle_default(),
        // The paper's T3 verifies the full fixed-shape tree.
        tree_budget: None,
        ..SpecEeConfig::default()
    };
    let mut bank = PredictorBank::new(cfg.n_layers, &config.predictor, &mut Pcg::seed(seed));
    train_bank(&mut bank, &data.samples, 1.0, &TrainConfig::default(), seed);

    let prompt = lm.language().sample_sequence(11, 20, 9);
    let build = || {
        SyntheticLmBuilder::new(cfg.clone(), profile.clone())
            .seed(seed)
            .build()
    };
    let roofline = Roofline::with_framework(HardwareProfile::a100_80g(), FrameworkProfile::eagle());

    // EAGLE baseline: draft tree + verify, full depth.
    let mut eagle = SpeculativeEngine::baseline(build(), draft.clone(), config.clone());
    let base = eagle.generate(&prompt, 48);
    let base_cost = roofline.cost(&base.meter);
    println!("EAGLE baseline:");
    println!(
        "  tokens/round      : {:.2}",
        base.tokens.len() as f64 / base.rounds as f64
    );
    println!("  avg layers        : {:.2}", base.avg_layers());
    println!(
        "  modelled tokens/s : {:.1} (A100)",
        base_cost.tokens_per_s()
    );

    // SpecEE + EAGLE: hyper-token merged mapping (T3).
    let schedule = config.build_schedule(cfg.n_layers, Some(&data.exit_frequencies));
    let mut specee = SpeculativeEngine::with_early_exit(build(), draft, bank, schedule, config);
    let out = specee.generate(&prompt, 48);
    let cost = roofline.cost(&out.meter);
    println!("\nSpecEE+EAGLE:");
    println!(
        "  tokens/round      : {:.2}",
        out.tokens.len() as f64 / out.rounds as f64
    );
    println!("  avg layers        : {:.2}", out.avg_layers());
    println!("  modelled tokens/s : {:.1} (A100)", cost.tokens_per_s());
    println!(
        "  speedup           : {:.2}x (paper: ~1.05x over EAGLE)",
        cost.tokens_per_s() / base_cost.tokens_per_s()
    );
    let same = out
        .tokens
        .iter()
        .zip(base.tokens.iter())
        .filter(|(a, b)| a == b)
        .count();
    println!(
        "  output agreement  : {:.1}%",
        same as f64 / out.tokens.len().min(base.tokens.len()) as f64 * 100.0
    );
}
