//! Skip-layer and confidence-threshold comparators (Table 1's rows).
//!
//! The paper positions SpecEE against two families beyond AdaInfer/RAEE:
//!
//! * **Skip layer** — MoD \[35\] routes tokens *around* individual blocks
//!   with a learned router under a capacity budget; D-LLM \[45\] places a
//!   dynamic decision gate before every layer. Both are "light prediction,
//!   low latency" but "high training" in Table 1: the real methods
//!   fine-tune the LLM jointly with the routers. Our routers are trained
//!   standalone on the frozen model (the strongest version that does not
//!   touch model parameters) and the bench reports the paper's modelled
//!   fine-tuning cost alongside.
//! * **Confidence early exit** (CALM-style) — exit when the full-vocabulary
//!   top softmax probability crosses a threshold. Training-free, but the
//!   prediction step pays a full LM-head traversal per layer, the exact
//!   cost SpecEE's vocabulary reduction removes.
//!
//! Skipped middle layers keep the KV cache aligned through
//! [`LayeredLm::fill_layer_kv`], the same mechanism early exits use for
//! skipped suffixes. All three engines are rules on the one loop of
//! [`crate::engine::decode`] (MoD and D-LLM its `skips` hook, CALM its
//! `exits` hook); the collectors visit [`crate::engine::dense_probe`].

use specee_metrics::{Meter, OpKind};
use specee_model::{LayeredLm, SkipKvPolicy, TokenId};
use specee_nn::LogisticRegression;
use specee_tensor::ops;

use crate::baselines::FullHeadRule;
use crate::collect::by_layer;
use crate::engine::decode::{decode, dense_probe, LayerRule};
use crate::output::GenOutput;

/// Dimension of the router feature vector ([`hidden_summary`]).
pub const ROUTER_FEATURES: usize = 6;

/// Low-dimensional summary of a hidden state for router/gate input: mean,
/// RMS, max, min, positive fraction, and the RMS of the change from the
/// previous layer (stability signal — the skip-layer analogue of SpecEE's
/// probability variation).
pub fn hidden_summary(h: &[f32], prev: Option<&[f32]>) -> Vec<f32> {
    let n = h.len().max(1) as f32;
    let mean = h.iter().sum::<f32>() / n;
    let rms = (h.iter().map(|x| x * x).sum::<f32>() / n).sqrt();
    let max = h.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let min = h.iter().copied().fold(f32::INFINITY, f32::min);
    let pos_frac = h.iter().filter(|&&x| x > 0.0).count() as f32 / n;
    let delta_rms = match prev {
        Some(p) if p.len() == h.len() => {
            (h.iter().zip(p).map(|(a, b)| (a - b) * (a - b)).sum::<f32>() / n).sqrt()
        }
        _ => rms,
    };
    vec![mean, rms, max, min, pos_frac, delta_rms]
}

/// One collected router training sample: `features` is the
/// [`hidden_summary`] taken after `layer`, `label` whether the token was
/// already settled there, i.e. deeper blocks are redundant.
pub type RouterSample = crate::collect::CollectedSample;

/// Collects router training data from dense runs (one full LM-head read
/// per layer is paid at *collection* time only, not at inference).
///
/// # Panics
///
/// Panics if `prompts` is empty.
pub fn collect_router_data<M: LayeredLm>(
    model: &mut M,
    prompts: &[(Vec<TokenId>, usize)],
) -> Vec<RouterSample> {
    assert!(!prompts.is_empty(), "need prompts");
    let mut samples = Vec::new();
    dense_probe(model, prompts, |_, token| {
        let (final_tok, earlier) = token.picks.split_last().expect("layers");
        for (layer, tok) in earlier.iter().enumerate() {
            // The layer's output against the state two layers back (its
            // own input's input; the embedding for layers 0 and 1).
            let prev = &token.states[layer.saturating_sub(1)];
            samples.push(RouterSample {
                layer,
                features: hidden_summary(&token.states[layer + 1], Some(prev)),
                label: tok == final_tok,
            });
        }
    });
    samples
}

fn meter_router(meter: &mut Meter) {
    // One logistic evaluation: 2·dim FLOPs over f32 weights.
    meter.record(
        OpKind::Predictor,
        2.0 * ROUTER_FEATURES as f64,
        4.0 * (ROUTER_FEATURES + 1) as f64,
        1,
    );
}

/// The rule of the layer-skipping engines: before every layer,
/// `decide(layer, feats, meter)` sees the [`hidden_summary`] of the layer's
/// input against the input of the last layer that ran, and returns `true`
/// when the layer should be *skipped* (residual pass-through + KV fill).
struct SkipRule<F> {
    decide: F,
    prev: Vec<f32>,
    predictor_calls: u64,
}

impl<M: LayeredLm, F: FnMut(usize, &[f32], &mut Meter) -> bool> LayerRule<M> for SkipRule<F> {
    fn skips(&mut self, layer: usize, h: &[f32], meter: &mut Meter) -> bool {
        if layer == 0 {
            self.prev = h.to_vec();
        }
        let feats = hidden_summary(h, Some(&self.prev));
        self.predictor_calls += 1;
        let skip = (self.decide)(layer, &feats, meter);
        if !skip {
            self.prev = h.to_vec();
        }
        skip
    }
}

/// Decodes under a [`SkipRule`] built from `decide`.
fn generate_with_skips<M: LayeredLm>(
    model: &mut M,
    prompt: &[TokenId],
    gen_len: usize,
    decide: impl FnMut(usize, &[f32], &mut Meter) -> bool,
) -> GenOutput {
    let mut rule = SkipRule {
        decide,
        prev: Vec::new(),
        predictor_calls: 0,
    };
    let policy = SkipKvPolicy::ProjectExitHidden;
    let out = decode(model, &mut rule, prompt, gen_len, policy);
    GenOutput {
        predictor_calls: rule.predictor_calls,
        ..out
    }
}

/// Mixture-of-Depths-style engine: per-layer routers under a capacity
/// budget. A layer processes the token only when its router score lands in
/// the layer's top-`capacity` quantile of training scores — the batch-1
/// analogue of MoD's top-k routing.
#[derive(Debug, Clone)]
pub struct MoDEngine<M> {
    model: M,
    routers: Vec<LogisticRegression>,
    thresholds: Vec<f32>,
    warmup_layers: usize,
}

impl<M: LayeredLm> MoDEngine<M> {
    /// Trains per-layer routers and calibrates capacity thresholds.
    ///
    /// `capacity` is the fraction of tokens each (non-warmup) layer should
    /// process (MoD's 87.5 % ≙ every-other-block 12.5 % routing is a
    /// common setting; pass 1.0 to disable skipping).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is outside `(0, 1]`.
    pub fn train(model: M, samples: &[RouterSample], capacity: f64, seed: u64) -> Self {
        assert!(
            capacity > 0.0 && capacity <= 1.0,
            "capacity must be in (0, 1]"
        );
        let n_layers = model.config().n_layers;
        let mut routers = Vec::with_capacity(n_layers);
        let mut thresholds = Vec::with_capacity(n_layers);
        for (layer, data) in by_layer(samples, n_layers).into_iter().enumerate() {
            let mut router = LogisticRegression::new(ROUTER_FEATURES);
            let mut threshold = 2.0f32; // unreachable: never skip
            if !data.is_empty() {
                let (xs, ys): (Vec<Vec<f32>>, Vec<bool>) = data.into_iter().unzip();
                router.fit(&xs, &ys, 30, 0.1, seed ^ layer as u64);
                // Skip when p(redundant) exceeds the capacity quantile.
                let mut scores: Vec<f32> = xs.iter().map(|x| router.predict_proba(x)).collect();
                scores.sort_by(|a, b| a.partial_cmp(b).expect("finite scores"));
                let rank = ((capacity * scores.len() as f64).floor() as usize)
                    .min(scores.len().saturating_sub(1));
                threshold = scores[rank].max(0.5);
            }
            routers.push(router);
            thresholds.push(threshold);
        }
        MoDEngine {
            model,
            routers,
            thresholds,
            warmup_layers: 2,
        }
    }

    /// Borrows the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Generates with capacity-routed layer skipping.
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty or `gen_len` is zero.
    pub fn generate(&mut self, prompt: &[TokenId], gen_len: usize) -> GenOutput {
        let routers = &self.routers;
        let thresholds = &self.thresholds;
        let warmup = self.warmup_layers;
        generate_with_skips(&mut self.model, prompt, gen_len, |layer, feats, meter| {
            if layer < warmup {
                return false;
            }
            meter_router(meter);
            routers[layer].predict_proba(feats) > thresholds[layer]
        })
    }
}

/// D-LLM-style engine: a trained decision gate before every layer, no
/// capacity budget — each token dynamically chooses its own subnetwork.
#[derive(Debug, Clone)]
pub struct DLlmEngine<M> {
    model: M,
    gates: Vec<LogisticRegression>,
    warmup_layers: usize,
}

impl<M: LayeredLm> DLlmEngine<M> {
    /// Trains the per-layer gates from collected samples.
    pub fn train(model: M, samples: &[RouterSample], seed: u64) -> Self {
        let n_layers = model.config().n_layers;
        let gates = by_layer(samples, n_layers)
            .into_iter()
            .enumerate()
            .map(|(layer, data)| {
                let mut gate = LogisticRegression::new(ROUTER_FEATURES);
                if !data.is_empty() {
                    let (xs, ys): (Vec<Vec<f32>>, Vec<bool>) = data.into_iter().unzip();
                    gate.fit(&xs, &ys, 30, 0.1, seed ^ (layer as u64) << 1);
                }
                gate
            })
            .collect();
        DLlmEngine {
            model,
            gates,
            warmup_layers: 4,
        }
    }

    /// Borrows the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Generates with gate-decided layer skipping.
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty or `gen_len` is zero.
    pub fn generate(&mut self, prompt: &[TokenId], gen_len: usize) -> GenOutput {
        let gates = &self.gates;
        let warmup = self.warmup_layers;
        generate_with_skips(&mut self.model, prompt, gen_len, |layer, feats, meter| {
            if layer < warmup {
                return false;
            }
            meter_router(meter);
            gates[layer].predict(feats)
        })
    }
}

/// Calibrates a CALM confidence threshold on dense runs: the midpoint
/// between the mean top probability of *settled* layer states (exiting
/// reproduces the final token) and *unsettled* ones. On a real LLM this
/// lands near the conventional 0.9; on the reduced-vocabulary substrate
/// the plateau sits lower, so thresholds must be data-derived rather than
/// copied from the literature.
///
/// # Panics
///
/// Panics if `prompts` is empty.
pub fn calibrate_calm_threshold<M: LayeredLm>(
    model: &mut M,
    prompts: &[(Vec<TokenId>, usize)],
) -> f32 {
    assert!(!prompts.is_empty(), "need prompts");
    let (mut settled_sum, mut settled_n) = (0.0f64, 0u64);
    let (mut unsettled_sum, mut unsettled_n) = (0.0f64, 0u64);
    dense_probe(model, prompts, |_, token| {
        let (final_tok, earlier) = token.picks.split_last().expect("layers");
        for (tok, full) in earlier.iter().zip(token.fulls) {
            let top = f64::from(top_probability(full));
            if tok == final_tok {
                settled_sum += top;
                settled_n += 1;
            } else {
                unsettled_sum += top;
                unsettled_n += 1;
            }
        }
    });
    let settled = if settled_n > 0 {
        settled_sum / settled_n as f64
    } else {
        0.9
    };
    let unsettled = if unsettled_n > 0 {
        unsettled_sum / unsettled_n as f64
    } else {
        0.0
    };
    (((settled + unsettled) / 2.0) as f32).clamp(1e-3, 1.0 - 1e-3)
}

/// CALM-style confidence engine: exit when the full-vocabulary top softmax
/// probability crosses `threshold`. Training-free; pays a full LM-head
/// traversal at every evaluated layer.
#[derive(Debug, Clone)]
pub struct CalmEngine<M> {
    model: M,
    threshold: f32,
    skip_policy: SkipKvPolicy,
}

impl<M: LayeredLm> CalmEngine<M> {
    /// Creates the engine with an exit-confidence threshold.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is outside `(0, 1)`.
    pub fn new(model: M, threshold: f32) -> Self {
        assert!(
            threshold > 0.0 && threshold < 1.0,
            "threshold must be in (0, 1)"
        );
        CalmEngine {
            model,
            threshold,
            skip_policy: SkipKvPolicy::ProjectExitHidden,
        }
    }

    /// Borrows the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Generates with confidence-threshold early exiting.
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty or `gen_len` is zero.
    pub fn generate(&mut self, prompt: &[TokenId], gen_len: usize) -> GenOutput {
        let threshold = self.threshold;
        let mut rule = FullHeadRule {
            fires: |_: usize, full: &[f32]| top_probability(full) >= threshold,
            predictor_calls: 0,
        };
        let out = decode(
            &mut self.model,
            &mut rule,
            prompt,
            gen_len,
            self.skip_policy,
        );
        GenOutput {
            predictor_calls: rule.predictor_calls,
            ..out
        }
    }
}

/// The top softmax probability of a full-vocabulary logits row: CALM's
/// confidence.
fn top_probability(full: &[f32]) -> f32 {
    ops::softmax(full).iter().copied().fold(0.0f32, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DenseEngine;
    use crate::output::agreement;
    use specee_model::ModelConfig;
    use specee_synth::{DatasetProfile, SyntheticLm, SyntheticLmBuilder};

    fn cfg() -> ModelConfig {
        ModelConfig {
            n_layers: 12,
            vocab_size: 512,
            ..ModelConfig::tiny()
        }
    }

    fn build_lm(seed: u64) -> SyntheticLm {
        SyntheticLmBuilder::new(cfg(), DatasetProfile::qa())
            .seed(seed)
            .build()
    }

    fn train_prompts() -> Vec<(Vec<TokenId>, usize)> {
        (0..12u32)
            .map(|i| (vec![2 + i, 7 + (i % 5), 1 + i], 12usize))
            .collect()
    }

    #[test]
    fn hidden_summary_has_expected_shape_and_values() {
        let h = vec![1.0f32, -1.0, 3.0, 0.0];
        let f = hidden_summary(&h, None);
        assert_eq!(f.len(), ROUTER_FEATURES);
        assert!((f[0] - 0.75).abs() < 1e-6, "mean {}", f[0]);
        assert_eq!(f[2], 3.0);
        assert_eq!(f[3], -1.0);
        assert!((f[4] - 0.5).abs() < 1e-6, "pos frac {}", f[4]);
        // with prev == h the delta is zero
        let f2 = hidden_summary(&h, Some(&h));
        assert_eq!(f2[5], 0.0);
    }

    #[test]
    fn collect_router_data_covers_all_intermediate_layers() {
        let mut lm = build_lm(71);
        let samples = collect_router_data(&mut lm, &train_prompts());
        assert!(!samples.is_empty());
        for layer in 0..11 {
            assert!(samples.iter().any(|s| s.layer == layer), "layer {layer}");
        }
        assert!(samples.iter().all(|s| s.features.len() == ROUTER_FEATURES));
        assert!(samples.iter().any(|s| s.label));
    }

    #[test]
    fn mod_engine_skips_layers_and_stays_aligned() {
        let mut lm = build_lm(73);
        let samples = collect_router_data(&mut lm, &train_prompts());
        let mut engine = MoDEngine::train(build_lm(73), &samples, 0.7, 9);
        let out = engine.generate(&[1, 2, 3], 14);
        assert_eq!(out.tokens.len(), 14);
        assert!(out.avg_layers() < 12.0, "avg {}", out.avg_layers());
        // warmup layers always run
        assert!(out.exit_layers.iter().all(|&l| l >= 2));
        // KV stays aligned: every position committed
        assert_eq!(engine.model().kv_len(), 3 + 13);

        let reference = DenseEngine::new(build_lm(73)).generate(&[1, 2, 3], 14);
        let agr = agreement(&out.tokens, &reference.tokens);
        assert!(agr >= 0.5, "agreement {agr}");
    }

    #[test]
    fn mod_full_capacity_never_skips() {
        let mut lm = build_lm(75);
        let samples = collect_router_data(&mut lm, &train_prompts());
        let mut engine = MoDEngine::train(build_lm(75), &samples, 1.0, 9);
        let out = engine.generate(&[1, 2, 3], 8);
        assert!(
            out.exit_layers.iter().skip(1).all(|&l| l == 12),
            "layers {:?}",
            out.exit_layers
        );
    }

    #[test]
    fn dllm_engine_runs_and_respects_warmup() {
        let mut lm = build_lm(77);
        let samples = collect_router_data(&mut lm, &train_prompts());
        let mut engine = DLlmEngine::train(build_lm(77), &samples, 5);
        let out = engine.generate(&[4, 2, 9], 12);
        assert_eq!(out.tokens.len(), 12);
        assert!(out.exit_layers.iter().all(|&l| l >= 4));
        assert!(out.predictor_calls > 0);
    }

    #[test]
    fn calm_threshold_calibrates_between_plateaus() {
        let mut lm = build_lm(79);
        let thr = calibrate_calm_threshold(&mut lm, &train_prompts());
        // On this substrate the unsettled plateau is ~0.02 and the settled
        // one ~0.25; the midpoint must separate them.
        assert!(thr > 0.03 && thr < 0.25, "threshold {thr}");
    }

    #[test]
    fn calm_exits_early_without_training() {
        let mut lm = build_lm(79);
        let thr = calibrate_calm_threshold(&mut lm, &train_prompts());
        let mut engine = CalmEngine::new(build_lm(79), thr);
        let out = engine.generate(&[1, 2, 3], 14);
        assert_eq!(out.tokens.len(), 14);
        assert!(out.avg_layers() < 12.0, "avg {}", out.avg_layers());
        // CALM reads the full head at every evaluated layer
        let heads = out.meter.kind(OpKind::LmHeadFull).kernels;
        assert!(heads as usize > out.tokens.len(), "{heads}");

        let reference = DenseEngine::new(build_lm(79)).generate(&[1, 2, 3], 14);
        let agr = agreement(&out.tokens, &reference.tokens);
        assert!(agr >= 0.7, "agreement {agr}");
    }

    #[test]
    fn calm_stricter_threshold_exits_later() {
        let mut lm = build_lm(81);
        let thr = calibrate_calm_threshold(&mut lm, &train_prompts());
        let lax = CalmEngine::new(build_lm(81), thr).generate(&[1, 2, 3], 10);
        let strict = CalmEngine::new(build_lm(81), 0.995).generate(&[1, 2, 3], 10);
        assert!(strict.avg_layers() >= lax.avg_layers());
        // 0.995 is unreachable on this substrate: no exits at all.
        assert!(strict.exit_layers.iter().skip(1).all(|&l| l == 12));
    }

    #[test]
    #[should_panic(expected = "capacity must be in (0, 1]")]
    fn mod_capacity_validated() {
        let lm = build_lm(1);
        let _ = MoDEngine::train(lm, &[], 0.0, 1);
    }

    #[test]
    #[should_panic(expected = "threshold must be in (0, 1)")]
    fn calm_threshold_validated() {
        let _ = CalmEngine::new(build_lm(1), 1.0);
    }
}
