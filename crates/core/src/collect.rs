//! Offline training-data collection and predictor training (§7.4.4).
//!
//! The engine runs *densely* (all layers) over a prompt set; at every
//! intermediate layer it extracts the T1 features and labels them by
//! whether exiting there would already produce the full-depth token. The
//! same pass yields the per-layer earliest-correct frequencies that feed
//! offline scheduling (T2) and the theoretical-lower-bound layer counts of
//! Fig. 7.

use serde::{Deserialize, Serialize};
use specee_draft::SpeculativeSource;
use specee_metrics::Meter;
use specee_model::{LayeredLm, TokenId};
use specee_nn::TrainConfig;
use specee_tensor::rng::Pcg;

use crate::engine::dense_probe;
use crate::features::FeatureTracker;
use crate::predictor::PredictorBank;

/// One labelled feature vector from one (token, layer) site, whatever the
/// collector: flattened T1 features here, [`crate::baselines::AdaSample`]
/// and [`crate::skip_layer::RouterSample`] for the comparators.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollectedSample {
    /// Decoder layer the features were taken after.
    pub layer: usize,
    /// The collector's feature vector.
    pub features: Vec<f32>,
    /// Whether exiting here reproduces the full-depth token.
    pub label: bool,
}

/// Result of a collection pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollectionReport {
    /// All collected samples.
    pub samples: Vec<CollectedSample>,
    /// Per-layer earliest-correct frequencies (sums to ~1), the offline
    /// scheduling statistic of Fig. 10(a).
    pub exit_frequencies: Vec<f64>,
    /// Mean earliest-correct layer count + 1 — the theoretical average
    /// forward layers of Fig. 7.
    pub theoretical_layers: f64,
    /// Number of decode tokens observed.
    pub tokens: u64,
}

/// Runs dense decoding over the prompts and collects per-layer features,
/// labels and exit statistics.
///
/// # Panics
///
/// Panics if `prompts` is empty or any prompt is empty.
pub fn collect_training_data<M, D>(
    model: &mut M,
    draft: &mut D,
    prompts: &[(Vec<TokenId>, usize)],
    spec_k: usize,
) -> CollectionReport
where
    M: LayeredLm,
    D: SpeculativeSource,
{
    assert!(!prompts.is_empty(), "need at least one prompt");
    let n_layers = model.config().n_layers;
    let mut samples = Vec::new();
    let mut exit_counts = vec![0u64; n_layers];
    let mut earliest_sum = 0u64;
    let mut tokens = 0u64;
    // Offline pass: metering is irrelevant, use a scratch meter.
    let mut meter = Meter::new();

    dense_probe(model, prompts, |model, token| {
        if token.starts_prompt {
            draft.reset();
        }
        let spec = draft.propose(token.ctx, spec_k, &mut meter);
        let mut tracker = FeatureTracker::new();
        let mut earliest = n_layers - 1;
        for layer in 0..n_layers - 1 {
            let feats = tracker.extract(model, &token.states[layer + 1], &spec, &mut meter);
            let label = token.picks[layer] == token.picks[n_layers - 1];
            if label && earliest == n_layers - 1 {
                earliest = layer;
            }
            samples.push(CollectedSample {
                layer,
                features: feats.to_vec(),
                label,
            });
        }
        exit_counts[earliest] += 1;
        earliest_sum += earliest as u64 + 1;
        tokens += 1;
    });

    let total: u64 = exit_counts.iter().sum();
    let exit_frequencies = exit_counts
        .iter()
        .map(|&c| {
            if total == 0 {
                0.0
            } else {
                c as f64 / total as f64
            }
        })
        .collect();
    CollectionReport {
        samples,
        exit_frequencies,
        theoretical_layers: if tokens == 0 {
            n_layers as f64
        } else {
            earliest_sum as f64 / tokens as f64
        },
        tokens,
    }
}

/// Buckets `(features, label)` by the layer a sample was taken after, in
/// sample order; samples of layers at or past `n_layers` are dropped.
pub(crate) fn by_layer(samples: &[CollectedSample], n_layers: usize) -> Vec<Vec<(Vec<f32>, bool)>> {
    let mut by_layer = vec![Vec::new(); n_layers];
    for s in samples.iter().filter(|s| s.layer < n_layers) {
        by_layer[s.layer].push((s.features.clone(), s.label));
    }
    by_layer
}

/// Per-layer training outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BankTrainingReport {
    /// Held-out predictor accuracy per layer (1.0 for layers with no data).
    pub layer_accuracy: Vec<f64>,
    /// Mean held-out accuracy over layers that had data.
    pub mean_accuracy: f64,
    /// Samples used after subsetting.
    pub samples_used: usize,
}

/// Trains every layer predictor of a bank on a fraction of the collected
/// samples (Fig. 18 sweeps this fraction), evaluating on the held-out
/// remainder.
///
/// # Panics
///
/// Panics if `fraction` is not in `(0, 1]`.
pub fn train_bank(
    bank: &mut PredictorBank,
    samples: &[CollectedSample],
    fraction: f64,
    train: &TrainConfig,
    seed: u64,
) -> BankTrainingReport {
    assert!(fraction > 0.0 && fraction <= 1.0, "fraction in (0,1]");
    let n_layers = bank.len();
    let mut by_layer = by_layer(samples, n_layers);
    let mut layer_accuracy = vec![1.0f64; n_layers];
    let mut used = 0usize;
    let mut acc_sum = 0.0;
    let mut acc_n = 0usize;
    let mut rng = Pcg::seed(seed);
    for (layer, data) in by_layer.iter_mut().enumerate() {
        if data.is_empty() {
            continue;
        }
        rng.shuffle(data);
        let test_cut = (data.len() as f64 * 0.2).ceil() as usize;
        let (test, pool) = data.split_at(
            test_cut
                .min(data.len().saturating_sub(1))
                .max(1)
                .min(data.len()),
        );
        let take = ((pool.len() as f64) * fraction).ceil() as usize;
        let train_set = &pool[..take.clamp(1.min(pool.len()), pool.len())];
        if train_set.is_empty() {
            continue;
        }
        used += train_set.len();
        bank.layer_mut(layer).train(train_set, train);
        if !test.is_empty() {
            let acc = bank.layer(layer).accuracy(test);
            layer_accuracy[layer] = acc;
            acc_sum += acc;
            acc_n += 1;
        }
    }
    BankTrainingReport {
        layer_accuracy,
        mean_accuracy: if acc_n == 0 {
            0.0
        } else {
            acc_sum / acc_n as f64
        },
        samples_used: used,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::PredictorConfig;
    use specee_model::ModelConfig;
    use specee_synth::{DatasetProfile, OracleDraft, SyntheticLmBuilder};

    fn setup() -> (specee_synth::SyntheticLm, OracleDraft) {
        let cfg = ModelConfig {
            n_layers: 8,
            ..ModelConfig::tiny()
        };
        let lm = SyntheticLmBuilder::new(cfg.clone(), DatasetProfile::qa())
            .seed(11)
            .build();
        let draft = OracleDraft::new(*lm.language(), 0.9, &cfg, 13);
        (lm, draft)
    }

    #[test]
    fn collection_produces_layered_samples() {
        let (mut lm, mut draft) = setup();
        let prompts = vec![(vec![1u32, 2, 3], 8usize), (vec![4, 5, 6], 8)];
        let report = collect_training_data(&mut lm, &mut draft, &prompts, 4);
        assert!(report.tokens >= 14);
        // every decode token contributes one sample per intermediate layer
        assert_eq!(report.samples.len() as u64, report.tokens * 7);
        let freq_sum: f64 = report.exit_frequencies.iter().sum();
        assert!((freq_sum - 1.0).abs() < 1e-9);
        assert!(report.theoretical_layers >= 1.0);
        assert!(report.theoretical_layers <= 8.0);
    }

    #[test]
    fn labels_contain_both_classes() {
        let (mut lm, mut draft) = setup();
        let prompts = vec![(vec![1u32, 2, 3], 12usize)];
        let report = collect_training_data(&mut lm, &mut draft, &prompts, 4);
        let pos = report.samples.iter().filter(|s| s.label).count();
        let neg = report.samples.len() - pos;
        assert!(pos > 0, "need positive labels");
        assert!(neg > 0, "need negative labels");
    }

    #[test]
    fn trained_bank_beats_chance() {
        let (mut lm, mut draft) = setup();
        let prompts: Vec<(Vec<TokenId>, usize)> = (0..6)
            .map(|i| (vec![1 + i, 2 + i, 3 + i], 10usize))
            .collect();
        let report = collect_training_data(&mut lm, &mut draft, &prompts, 4);
        let pcfg = PredictorConfig {
            hidden_dim: 32,
            ..PredictorConfig::default()
        };
        let mut bank = PredictorBank::new(8, &pcfg, &mut Pcg::seed(3));
        let tr = train_bank(
            &mut bank,
            &report.samples,
            1.0,
            &TrainConfig {
                epochs: 20,
                lr: 3e-3,
                ..Default::default()
            },
            5,
        );
        assert!(tr.mean_accuracy > 0.7, "mean accuracy {}", tr.mean_accuracy);
        assert!(tr.samples_used > 0);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn train_bank_validates_fraction() {
        let mut bank = PredictorBank::new(4, &PredictorConfig::default(), &mut Pcg::seed(1));
        train_bank(&mut bank, &[], 0.0, &TrainConfig::default(), 1);
    }
}
