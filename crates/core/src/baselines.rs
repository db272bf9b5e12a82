//! Early-exiting baselines: AdaInfer (SVM over full-vocabulary features)
//! and RAEE (retrieval-based exit layers).
//!
//! These exist to reproduce the comparisons of Table 1, Fig. 7 and
//! Table 4. AdaInfer pays a *full LM-head traversal per layer* to build
//! its features — the cost SpecEE's vocabulary-space reduction removes.
//! Neither has a loop of its own: each is a rule on [`crate::engine::decode`]
//! and the collector a visitor of [`crate::engine::dense_probe`].

use std::collections::HashMap;

use specee_metrics::{Meter, OpKind};
use specee_model::{LayeredLm, SkipKvPolicy, TokenId};
use specee_nn::LinearSvm;
use specee_tensor::ops;

use crate::collect::by_layer;
use crate::engine::decode::{decode, dense_probe, pick, Exit, LayerRule};
use crate::output::GenOutput;

/// AdaInfer's per-layer features from the full-vocabulary distribution:
/// top probability and top-2 gap.
pub fn adainfer_features(full_logits: &[f32]) -> Vec<f32> {
    let probs = ops::softmax(full_logits);
    let top = ops::top_k(&probs, 2);
    let p1 = top.first().map_or(0.0, |&i| probs[i]);
    let p2 = top.get(1).map_or(0.0, |&i| probs[i]);
    vec![p1, p1 - p2]
}

/// One collected AdaInfer sample: `features` is `[top_prob, gap]`.
pub type AdaSample = crate::collect::CollectedSample;

/// Collects AdaInfer training data with dense runs.
///
/// # Panics
///
/// Panics if `prompts` is empty.
pub fn collect_adainfer_data<M: LayeredLm>(
    model: &mut M,
    prompts: &[(Vec<TokenId>, usize)],
) -> Vec<AdaSample> {
    assert!(!prompts.is_empty(), "need prompts");
    let mut samples = Vec::new();
    dense_probe(model, prompts, |_, token| {
        let (final_tok, earlier) = token.picks.split_last().expect("layers");
        for (layer, tok) in earlier.iter().enumerate() {
            samples.push(AdaSample {
                layer,
                features: adainfer_features(&token.fulls[layer]),
                label: tok == final_tok,
            });
        }
    });
    samples
}

/// The AdaInfer engine: a linear SVM after *every* layer, fed by a full
/// LM-head traversal, no draft model and no verification step.
#[derive(Debug, Clone)]
pub struct AdaInferEngine<M> {
    model: M,
    svms: Vec<LinearSvm>,
    skip_policy: SkipKvPolicy,
}

impl<M: LayeredLm> AdaInferEngine<M> {
    /// Builds and trains the per-layer SVMs from collected samples.
    pub fn train(model: M, samples: &[AdaSample], seed: u64) -> Self {
        let svms = by_layer(samples, model.config().n_layers - 1)
            .into_iter()
            .map(|data| {
                let mut svm = LinearSvm::new(2, 1e-3);
                if !data.is_empty() {
                    let (xs, ys): (Vec<Vec<f32>>, Vec<bool>) = data.into_iter().unzip();
                    svm.fit(&xs, &ys, 12, seed);
                }
                svm
            })
            .collect();
        AdaInferEngine {
            model,
            svms,
            skip_policy: SkipKvPolicy::ProjectExitHidden,
        }
    }

    /// Borrows the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Generates with AdaInfer-style early exiting.
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty or `gen_len` is zero.
    pub fn generate(&mut self, prompt: &[TokenId], gen_len: usize) -> GenOutput {
        let svms = &self.svms;
        let mut rule = FullHeadRule {
            fires: |layer: usize, full: &[f32]| svms[layer].predict(&adainfer_features(full)),
            predictor_calls: 0,
        };
        let policy = self.skip_policy;
        let out = decode(&mut self.model, &mut rule, prompt, gen_len, policy);
        GenOutput {
            predictor_calls: rule.predictor_calls,
            ..out
        }
    }
}

/// The rule AdaInfer and CALM share: read the FULL vocabulary distribution
/// after every layer — the cost SpecEE's vocabulary reduction removes —
/// and exit, unverified, when `fires(layer, full_logits)`.
pub(crate) struct FullHeadRule<F> {
    pub(crate) fires: F,
    pub(crate) predictor_calls: u64,
}

impl<M: LayeredLm, F: FnMut(usize, &[f32]) -> bool> LayerRule<M> for FullHeadRule<F> {
    fn exits(&mut self, model: &mut M, layer: usize, h: &[f32], meter: &mut Meter) -> Exit {
        let full = model.final_logits(h, meter);
        self.predictor_calls += 1;
        (self.fires)(layer, &full).then(|| (pick(&full), full))
    }
}

/// RAEE-style retrieval engine: a database maps a context bucket to the
/// expected exit layer; no per-layer predictor runs, but each token pays a
/// retrieval cost and exits *unverified* at the retrieved layer.
#[derive(Debug, Clone)]
pub struct RaeeEngine<M> {
    model: M,
    db: HashMap<u64, (f64, u64)>,
    default_layer: usize,
    /// Modelled bytes touched per retrieval (the paper notes the database
    /// exceeds several GB; lookups walk an index shard).
    retrieval_bytes: f64,
}

fn bigram_key(ctx: &[TokenId]) -> u64 {
    let a = ctx.len().checked_sub(2).map_or(0, |i| ctx[i]) as u64;
    let b = ctx.last().copied().unwrap_or(0) as u64;
    (a << 32) | b
}

/// The retrieved exit depth: the bucket's mean layer, `default_layer` on a miss.
fn lookup(db: &HashMap<u64, (f64, u64)>, ctx: &[TokenId], default_layer: usize) -> usize {
    match db.get(&bigram_key(ctx)) {
        Some((sum, n)) if *n > 0 => ((sum / *n as f64).round() as usize).clamp(1, default_layer),
        _ => default_layer,
    }
}

impl<M: LayeredLm> RaeeEngine<M> {
    /// Builds the retrieval database from (context, earliest-correct-layer)
    /// observations.
    pub fn build(model: M, observations: &[(Vec<TokenId>, usize)]) -> Self {
        let n_layers = model.config().n_layers;
        let mut db: HashMap<u64, (f64, u64)> = HashMap::new();
        for (ctx, layer) in observations {
            let e = db.entry(bigram_key(ctx)).or_insert((0.0, 0));
            e.0 += *layer as f64;
            e.1 += 1;
        }
        RaeeEngine {
            model,
            db,
            default_layer: n_layers,
            retrieval_bytes: 256.0 * 1024.0,
        }
    }

    /// Borrows the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Generates with retrieval-scheduled exits.
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty or `gen_len` is zero.
    pub fn generate(&mut self, prompt: &[TokenId], gen_len: usize) -> GenOutput {
        let mut rule = RaeeRule {
            db: &self.db,
            default_layer: self.default_layer,
            retrieval_bytes: self.retrieval_bytes,
            exit_at: self.default_layer,
        };
        let policy = SkipKvPolicy::ProjectExitHidden;
        decode(&mut self.model, &mut rule, prompt, gen_len, policy)
    }
}

/// RAEE's rule: one retrieval per token names the layer it exits at,
/// unverified.
struct RaeeRule<'a> {
    db: &'a HashMap<u64, (f64, u64)>,
    default_layer: usize,
    retrieval_bytes: f64,
    exit_at: usize,
}

impl<M: LayeredLm> LayerRule<M> for RaeeRule<'_> {
    fn begin_token(&mut self, _model: &mut M, ctx: &[TokenId], meter: &mut Meter) {
        // Retrieval: one index probe per token.
        meter.record(OpKind::Other, 0.0, self.retrieval_bytes, 1);
        self.exit_at = lookup(self.db, ctx, self.default_layer);
    }

    fn exits(&mut self, model: &mut M, layer: usize, h: &[f32], meter: &mut Meter) -> Exit {
        (layer + 1 == self.exit_at).then(|| {
            let full = model.final_logits(h, meter);
            (pick(&full), full)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specee_model::ModelConfig;
    use specee_synth::{DatasetProfile, SyntheticLm, SyntheticLmBuilder};

    fn cfg() -> ModelConfig {
        ModelConfig {
            n_layers: 8,
            ..ModelConfig::tiny()
        }
    }

    fn build_lm(seed: u64) -> SyntheticLm {
        SyntheticLmBuilder::new(cfg(), DatasetProfile::qa())
            .seed(seed)
            .build()
    }

    #[test]
    fn adainfer_features_are_top_and_gap() {
        let f = adainfer_features(&[0.0, 3.0, 1.0]);
        assert_eq!(f.len(), 2);
        assert!(f[0] > 0.5, "top prob {}", f[0]);
        assert!(f[1] > 0.0 && f[1] < f[0]);
    }

    #[test]
    fn adainfer_engine_exits_and_pays_full_head_per_layer() {
        let mut lm = build_lm(61);
        let prompts = vec![(vec![1u32, 2, 3], 10usize), (vec![4, 5, 6], 10)];
        let samples = collect_adainfer_data(&mut lm, &prompts);
        assert!(!samples.is_empty());
        let mut engine = AdaInferEngine::train(build_lm(61), &samples, 7);
        let out = engine.generate(&[1, 2, 3], 12);
        assert_eq!(out.tokens.len(), 12);
        // full LM head per evaluated layer: far more full-head kernels than
        // generated tokens
        let full_heads = out.meter.kind(OpKind::LmHeadFull).kernels;
        assert!(full_heads as usize > out.tokens.len() * 2, "{full_heads}");
    }

    #[test]
    fn raee_uses_database_layers() {
        let observations: Vec<(Vec<TokenId>, usize)> = (0..50u32)
            .map(|i| (vec![i % 8, (i + 1) % 8], 5usize))
            .collect();
        let mut engine = RaeeEngine::build(build_lm(63), &observations);
        assert!(!engine.db.is_empty());
        let out = engine.generate(&[1, 2, 3], 10);
        assert_eq!(out.tokens.len(), 10);
        // most tokens exit at the retrieved depth (5) or full depth default
        assert!(out.exit_layers.iter().all(|&l| l == 5 || l == 8));
        assert!(
            out.meter.kind(OpKind::Other).kernels > 0,
            "retrieval metered"
        );
    }

    #[test]
    fn raee_unknown_context_runs_full_depth() {
        let engine_model = build_lm(65);
        let mut engine = RaeeEngine::build(engine_model, &[]);
        let out = engine.generate(&[1, 2], 4);
        assert!(out.exit_layers.iter().skip(1).all(|&l| l == 8));
    }
}
