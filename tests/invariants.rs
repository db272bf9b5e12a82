//! Cross-crate invariants added with the second wave of substrates:
//! skip-layer KV alignment, AWQ-vs-RTN dominance, and engine determinism
//! under randomized configurations.

use proptest::prelude::*;
use specee::core::collect::{collect_training_data, train_bank};
use specee::core::engine::SpecEeEngine;
use specee::core::predictor::{PredictorBank, PredictorConfig};
use specee::core::skip_layer::{collect_router_data, MoDEngine};
use specee::core::SpecEeConfig;
use specee::model::{ModelConfig, TokenId};
use specee::nn::TrainConfig;
use specee::synth::{DatasetProfile, OracleDraft, SyntheticLm, SyntheticLmBuilder};
use specee::tensor::awq::{AwqCalibration, AwqMatrix};
use specee::tensor::rng::Pcg;
use specee::tensor::{Matrix, QuantBits};

fn cfg() -> ModelConfig {
    ModelConfig {
        n_layers: 8,
        vocab_size: 256,
        ..ModelConfig::tiny()
    }
}

fn build_lm(seed: u64) -> SyntheticLm {
    SyntheticLmBuilder::new(cfg(), DatasetProfile::qa())
        .seed(seed)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// MoD keeps the KV cache aligned for any capacity: every decoded
    /// position is committed in every layer regardless of which blocks
    /// were skipped.
    #[test]
    fn mod_engine_kv_alignment(seed in 0u64..60, capacity in 0.4f64..1.0) {
        use specee::model::LayeredLm;
        let mut collect_lm = build_lm(seed);
        let prompts: Vec<(Vec<TokenId>, usize)> =
            (0..6u32).map(|i| (vec![1 + i, 3 + i, 5 + i], 8usize)).collect();
        let samples = collect_router_data(&mut collect_lm, &prompts);
        let mut engine = MoDEngine::train(build_lm(seed), &samples, capacity, seed);
        let out = engine.generate(&[3, 1, 4], 9);
        prop_assert_eq!(out.tokens.len(), 9);
        prop_assert_eq!(engine.model().kv_len(), 3 + 8);
        for &l in &out.exit_layers {
            prop_assert!(l <= 8);
        }
    }

    /// The AWQ grid search never does worse than plain round-to-nearest
    /// (α = 0 is in the grid), for any weight seed and activation skew.
    #[test]
    fn awq_dominates_rtn(seed in 0u64..100, hot in 0usize..32, factor in 1.0f32..30.0) {
        let mut rng = Pcg::seed(seed);
        let w = Matrix::random(8, 32, 1.0, &mut rng);
        let acts: Vec<Vec<f32>> = (0..24)
            .map(|_| {
                (0..32)
                    .map(|c| {
                        let v = (rng.next_f32() - 0.5) * 0.5;
                        if c == hot { v * factor } else { v }
                    })
                    .collect()
            })
            .collect();
        let calib = AwqCalibration::from_activations(&acts);
        let searched = AwqMatrix::quantize(&w, &calib, QuantBits::Int4, 16, &acts).unwrap();
        let rtn = AwqMatrix::quantize_with_alpha(&w, &calib, QuantBits::Int4, 16, 0.0).unwrap();
        prop_assert!(searched.mse_on(&w, &acts) <= rtn.mse_on(&w, &acts) + 1e-12);
    }

    /// The SpecEE engine is deterministic and structurally sound for any
    /// seed: fixed output length, exit layers in range, reproducible runs.
    #[test]
    fn specee_engine_structural_invariants(seed in 0u64..40) {
        let run = || {
            let mut lm = build_lm(seed);
            let mut draft = OracleDraft::new(*lm.language(), 0.9, &cfg(), seed ^ 3);
            let prompts: Vec<(Vec<TokenId>, usize)> =
                (0..6u32).map(|i| (vec![1 + i, 2 + i], 8usize)).collect();
            let data = collect_training_data(&mut lm, &mut draft, &prompts, 4);
            let pcfg = PredictorConfig { hidden_dim: 16, ..PredictorConfig::default() };
            let mut bank = PredictorBank::new(8, &pcfg, &mut Pcg::seed(seed));
            train_bank(&mut bank, &data.samples, 1.0, &TrainConfig::default(), seed);
            let config = SpecEeConfig { predictor: pcfg, ..SpecEeConfig::default() };
            let schedule = config.build_schedule(8, Some(&data.exit_frequencies));
            let mut engine = SpecEeEngine::new(build_lm(seed), draft, bank, schedule, config);
            engine.generate(&[1, 2, 3], 10)
        };
        let a = run();
        let b = run();
        prop_assert_eq!(&a.tokens, &b.tokens);
        prop_assert_eq!(&a.exit_layers, &b.exit_layers);
        prop_assert_eq!(a.tokens.len(), 10);
        prop_assert!(a.exit_layers.iter().all(|&l| (1..=8).contains(&l)));
    }
}
