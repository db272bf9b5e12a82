//! The lightweight MLP exit predictor and its training pipeline (T1).

use serde::{Deserialize, Serialize};
use specee_metrics::{Meter, OpKind};
use specee_nn::{Activation, BinaryTrainer, Mlp, TrainConfig, TrainReport};
use specee_tensor::{ops, rng::Pcg, BackendKind};

use crate::features::ExitFeatures;

/// Architecture of an exit predictor.
///
/// The paper's design-space exploration (Fig. 8) lands on a 2-layer MLP
/// with hidden dimension 512; both knobs stay configurable so the sweep
/// can be reproduced.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PredictorConfig {
    /// Number of speculative tokens K (feature dim is 3 × K).
    pub spec_k: usize,
    /// Hidden width of the MLP.
    pub hidden_dim: usize,
    /// Number of dense layers (2 = one hidden layer).
    pub layers: usize,
    /// Exit threshold on the sigmoid output.
    pub threshold: f32,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        PredictorConfig {
            spec_k: 4,
            hidden_dim: 512,
            layers: 2,
            threshold: 0.5,
        }
    }
}

impl PredictorConfig {
    /// Input feature dimension.
    pub fn feature_dim(&self) -> usize {
        3 * self.spec_k
    }

    fn dims(&self) -> Vec<usize> {
        let mut dims = vec![self.feature_dim()];
        for _ in 0..self.layers.saturating_sub(1) {
            dims.push(self.hidden_dim);
        }
        dims.push(1);
        dims
    }
}

/// A trained (or trainable) early-exit predictor for one decoder layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExitPredictor {
    mlp: Mlp,
    threshold: f32,
}

impl ExitPredictor {
    /// Creates an untrained predictor.
    pub fn new(config: &PredictorConfig, rng: &mut Pcg) -> Self {
        ExitPredictor {
            mlp: Mlp::new(&config.dims(), Activation::Relu, rng),
            threshold: config.threshold,
        }
    }

    /// The exit threshold.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Adjusts the exit threshold (the accuracy/speedup knob of §4.3.2;
    /// weights are untouched).
    pub fn set_threshold(&mut self, threshold: f32) {
        self.threshold = threshold.clamp(0.0, 1.0);
    }

    /// Scores features: sigmoid probability that exiting now reproduces the
    /// full-depth token. Records one predictor forward in the meter (the
    /// predictor's parameters are the same at paper scale — this op is the
    /// ~0.07 M-parameter workload of Fig. 2(c)).
    pub fn score(&self, features: &ExitFeatures, meter: &mut Meter) -> f32 {
        let x = features.to_vec();
        // two matmuls + activation + sigmoid, each its own small kernel
        meter.record(
            OpKind::Predictor,
            self.mlp.flops(),
            self.mlp.bytes() as f64 + x.len() as f64 * 2.0,
            4,
        );
        self.sigmoid_of(&x)
    }

    /// The forward every score takes. `Blocked` is bit-identical to the
    /// `Reference` [`Mlp::forward`] (tensor conformance suite) and several
    /// times faster on the first layer's `hidden × 3K` short dots.
    fn sigmoid_of(&self, x: &[f32]) -> f32 {
        ops::sigmoid(self.mlp.forward_with(BackendKind::Blocked, x)[0])
    }

    /// Whether a score fires at the configured threshold — the single
    /// definition of the fire decision.
    pub fn fires(&self, score: f32) -> bool {
        score > self.threshold
    }

    /// Scores a batch of feature vectors, metered as one batched kernel
    /// (how the tree-mode predictor runs on GPU: weights read once, 4
    /// launches); each row takes the forward [`ExitPredictor::score`] takes.
    pub fn score_batch(&self, features: &[ExitFeatures], meter: &mut Meter) -> Vec<f32> {
        if features.is_empty() {
            return Vec::new();
        }
        let rows: Vec<Vec<f32>> = features.iter().map(ExitFeatures::to_vec).collect();
        let inputs: usize = rows.iter().map(Vec::len).sum();
        meter.record(
            OpKind::Predictor,
            self.mlp.flops() * features.len() as f64,
            self.mlp.bytes() as f64 + inputs as f64 * 2.0,
            4,
        );
        rows.iter().map(|x| self.sigmoid_of(x)).collect()
    }

    /// Trains on collected `(features, label)` samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn train(&mut self, samples: &[(Vec<f32>, bool)], train: &TrainConfig) -> TrainReport {
        let inputs: Vec<Vec<f32>> = samples.iter().map(|(f, _)| f.clone()).collect();
        let labels: Vec<bool> = samples.iter().map(|(_, l)| *l).collect();
        BinaryTrainer::new(train.clone()).train(&mut self.mlp, &inputs, &labels)
    }

    /// Classification accuracy on held-out samples at the exit threshold.
    pub fn accuracy(&self, samples: &[(Vec<f32>, bool)]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let correct = samples
            .iter()
            .filter(|(f, l)| self.fires(self.sigmoid_of(f)) == *l)
            .count();
        correct as f64 / samples.len() as f64
    }

    /// Trainable parameter count (~0.07 M for the default config).
    pub fn param_count(&self) -> usize {
        self.mlp.param_count()
    }

    /// FLOPs of one forward pass.
    pub fn flops(&self) -> f64 {
        self.mlp.flops()
    }

    /// Parameter payload in bytes.
    pub fn bytes(&self) -> usize {
        self.mlp.bytes()
    }
}

/// One predictor per decoder layer (the last layer never needs one).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictorBank {
    predictors: Vec<ExitPredictor>,
}

impl PredictorBank {
    /// Creates untrained predictors for layers `0..n_layers - 1`.
    ///
    /// # Panics
    ///
    /// Panics if `n_layers < 2`.
    pub fn new(n_layers: usize, config: &PredictorConfig, rng: &mut Pcg) -> Self {
        assert!(n_layers >= 2, "need at least two layers");
        PredictorBank {
            predictors: (0..n_layers - 1)
                .map(|_| ExitPredictor::new(config, rng))
                .collect(),
        }
    }

    /// Number of layer predictors.
    pub fn len(&self) -> usize {
        self.predictors.len()
    }

    /// Whether the bank is empty.
    pub fn is_empty(&self) -> bool {
        self.predictors.is_empty()
    }

    /// Borrows the predictor of a layer.
    ///
    /// # Panics
    ///
    /// Panics if the layer has no predictor (the last layer).
    pub fn layer(&self, layer: usize) -> &ExitPredictor {
        &self.predictors[layer]
    }

    /// Mutably borrows the predictor of a layer.
    ///
    /// # Panics
    ///
    /// Panics if the layer has no predictor.
    pub fn layer_mut(&mut self, layer: usize) -> &mut ExitPredictor {
        &mut self.predictors[layer]
    }

    /// Total memory of all predictors in bytes (the paper reports ~416 KB
    /// for Llama2-7B, §7.4.2).
    pub fn total_bytes(&self) -> usize {
        self.predictors.iter().map(ExitPredictor::bytes).sum()
    }

    /// Adjusts every layer predictor's exit threshold.
    pub fn set_threshold(&mut self, threshold: f32) {
        for p in &mut self.predictors {
            p.set_threshold(threshold);
        }
    }

    /// Serializes the trained bank to a JSON string (predictors are
    /// shipped as a model configuration artefact, §5.3).
    ///
    /// # Errors
    ///
    /// Returns the underlying serializer error on failure.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Restores a bank from [`PredictorBank::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns the underlying deserializer error on malformed input.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_samples(n: usize, seed: u64) -> Vec<(Vec<f32>, bool)> {
        // Learnable rule mimicking the probability shift: exit iff the top
        // local probability is high AND rose since last layer.
        let mut rng = Pcg::seed(seed);
        (0..n)
            .map(|_| {
                let p0 = rng.next_f32();
                let d0 = rng.next_f32() - 0.5;
                let label = p0 > 0.6 && d0 > 0.05;
                let logits = vec![p0 * 10.0, 2.0, 1.0, 0.5];
                let rest = 1.0 - p0;
                let probs = vec![p0, rest * 0.5, rest * 0.3, rest * 0.2];
                let delta = vec![d0, -d0 * 0.5, -d0 * 0.3, -d0 * 0.2];
                let f = ExitFeatures {
                    logits,
                    probs,
                    delta,
                };
                (f.to_vec(), label)
            })
            .collect()
    }

    #[test]
    fn default_matches_paper_design_point() {
        let cfg = PredictorConfig::default();
        assert_eq!(cfg.feature_dim(), 12);
        let p = ExitPredictor::new(&cfg, &mut Pcg::seed(1));
        // 12*512 + 512 + 512 + 1 ≈ 0.007 M params... the paper's ~0.07M
        // counts all 32 per-layer predictors; a single one is ~7 K.
        assert_eq!(p.param_count(), 12 * 512 + 512 + 512 + 1);
    }

    #[test]
    fn bank_memory_matches_paper_estimate() {
        // §7.4.2: (12×512 + 512×1) × 32 × 4 bytes ≈ 416 KB for Llama2-7B.
        let cfg = PredictorConfig::default();
        let bank = PredictorBank::new(32, &cfg, &mut Pcg::seed(2));
        let kb = bank.total_bytes() as f64 / 1024.0;
        assert!(
            (700.0..900.0).contains(&kb) || (350.0..500.0).contains(&kb),
            "{kb} KB"
        );
    }

    #[test]
    fn learns_probability_shift_rule() {
        let cfg = PredictorConfig {
            hidden_dim: 64,
            ..PredictorConfig::default()
        };
        let mut p = ExitPredictor::new(&cfg, &mut Pcg::seed(3));
        let train = synthetic_samples(800, 4);
        let test = synthetic_samples(200, 5);
        p.train(
            &train,
            &TrainConfig {
                epochs: 30,
                lr: 3e-3,
                ..Default::default()
            },
        );
        let acc = p.accuracy(&test);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn score_records_predictor_op() {
        let cfg = PredictorConfig::default();
        let p = ExitPredictor::new(&cfg, &mut Pcg::seed(6));
        let mut meter = Meter::new();
        let f = ExitFeatures {
            logits: vec![0.0; 4],
            probs: vec![0.25; 4],
            delta: vec![0.0; 4],
        };
        let s = p.score(&f, &mut meter);
        assert!((0.0..=1.0).contains(&s));
        assert_eq!(meter.kind(OpKind::Predictor).kernels, 4);
        assert!(meter.kind(OpKind::Predictor).flops > 10_000.0);
    }

    #[test]
    fn score_batch_meters_the_rows_it_was_given() {
        // One record for the batch: the weights once, every row's actual
        // features (3 × spec_k each) as f16 activations — and each row's
        // score is the score `score` gives it.
        for spec_k in [4usize, 8] {
            let cfg = PredictorConfig {
                spec_k,
                ..PredictorConfig::default()
            };
            let p = ExitPredictor::new(&cfg, &mut Pcg::seed(10));
            let rows: Vec<ExitFeatures> = (0..3)
                .map(|r| ExitFeatures {
                    logits: (0..spec_k).map(|i| (r + i) as f32 * 0.5).collect(),
                    probs: vec![1.0 / spec_k as f32; spec_k],
                    delta: vec![0.01 * r as f32; spec_k],
                })
                .collect();
            let mut meter = Meter::new();
            let scores = p.score_batch(&rows, &mut meter);
            let got = meter.kind(OpKind::Predictor);
            let features = (rows.len() * 3 * spec_k) as f64;
            assert_eq!(got.bytes, p.bytes() as f64 + features * 2.0, "K={spec_k}");
            assert_eq!(got.flops, p.flops() * rows.len() as f64);
            assert_eq!(got.kernels, 4);
            if spec_k == 4 {
                // The width the old formula hard-coded: the record it made.
                assert_eq!(got.bytes, p.bytes() as f64 + rows.len() as f64 * 12.0 * 2.0);
            }
            for (row, &score) in rows.iter().zip(&scores) {
                assert_eq!(p.score(row, &mut Meter::new()), score);
                assert_eq!(score, ops::sigmoid(p.mlp.forward(&row.to_vec())[0]));
            }
        }
    }

    #[test]
    fn bank_has_no_predictor_for_last_layer() {
        let bank = PredictorBank::new(32, &PredictorConfig::default(), &mut Pcg::seed(7));
        assert_eq!(bank.len(), 31);
    }

    #[test]
    fn bank_json_roundtrip_preserves_scores() {
        let cfg = PredictorConfig {
            hidden_dim: 16,
            ..PredictorConfig::default()
        };
        let mut bank = PredictorBank::new(4, &cfg, &mut Pcg::seed(8));
        bank.layer_mut(0).train(
            &synthetic_samples(64, 9),
            &TrainConfig {
                epochs: 4,
                ..Default::default()
            },
        );
        let json = bank.to_json().unwrap();
        let restored = PredictorBank::from_json(&json).unwrap();
        let f = ExitFeatures {
            logits: vec![5.0, 1.0, 0.5, 0.2],
            probs: vec![0.8, 0.1, 0.06, 0.04],
            delta: vec![0.3, -0.1, -0.1, -0.1],
        };
        let mut meter = Meter::new();
        let a = bank.layer(0).score(&f, &mut meter);
        let b = restored.layer(0).score(&f, &mut meter);
        assert_eq!(a, b);
    }
}
