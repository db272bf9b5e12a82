//! Early-exiting baselines: AdaInfer (SVM over full-vocabulary features)
//! and RAEE (retrieval-based exit layers).
//!
//! These exist to reproduce the comparisons of Table 1, Fig. 7 and
//! Table 4. AdaInfer pays a *full LM-head traversal per layer* to build
//! its features — the cost SpecEE's vocabulary-space reduction removes.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use specee_metrics::{Meter, OpKind};
use specee_model::{prefill, LayeredLm, SkipKvPolicy, TokenId};
use specee_nn::LinearSvm;
use specee_tensor::ops;

use crate::engine::first_token;
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

/// One collected AdaInfer sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaSample {
    /// Layer index.
    pub layer: usize,
    /// `[top_prob, gap]`.
    pub features: Vec<f32>,
    /// Whether exiting here reproduces the full-depth token.
    pub label: bool,
}

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
    let n_layers = model.config().n_layers;
    let mut meter = Meter::new();
    let mut samples = Vec::new();
    for (prompt, gen_len) in prompts {
        model.reset();
        let mut h = prefill(model, prompt, &mut meter);
        let logits = model.final_logits(&h, &mut meter);
        let mut t = ops::argmax(&logits).expect("logits") as TokenId;
        for _ in 1..*gen_len {
            let pos = model.kv_len();
            h = model.begin_token(t, &mut meter);
            let mut per_layer = Vec::new();
            for layer in 0..n_layers {
                h = model.forward_layer(layer, &h, pos, &mut meter);
                if layer + 1 < n_layers {
                    let full = model.final_logits(&h, &mut meter);
                    let tok = ops::argmax(&full).expect("logits") as TokenId;
                    per_layer.push((adainfer_features(&full), tok));
                }
            }
            let full = model.final_logits(&h, &mut meter);
            let final_tok = ops::argmax(&full).expect("logits") as TokenId;
            for (layer, (features, tok)) in per_layer.into_iter().enumerate() {
                samples.push(AdaSample {
                    layer,
                    features,
                    label: tok == final_tok,
                });
            }
            t = final_tok;
        }
    }
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
        let n_layers = model.config().n_layers;
        let mut by_layer: Vec<Vec<(Vec<f32>, bool)>> = vec![Vec::new(); n_layers - 1];
        for s in samples {
            if s.layer < n_layers - 1 {
                by_layer[s.layer].push((s.features.clone(), s.label));
            }
        }
        let svms = by_layer
            .iter()
            .map(|data| {
                let mut svm = LinearSvm::new(2, 1e-3);
                if !data.is_empty() {
                    let xs: Vec<Vec<f32>> = data.iter().map(|(f, _)| f.clone()).collect();
                    let ys: Vec<bool> = data.iter().map(|(_, l)| *l).collect();
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
        assert!(!prompt.is_empty(), "prompt must be non-empty");
        assert!(gen_len > 0, "gen_len must be positive");
        let n_layers = self.model.config().n_layers;
        let mut meter = Meter::new();
        self.model.reset();

        let mut tokens = Vec::new();
        let mut exit_layers = Vec::new();
        let mut ce_sum = 0.0;
        let mut predictor_calls = 0u64;

        let (mut t, ce) = first_token(&mut self.model, prompt, &mut meter);
        ce_sum += ce;
        tokens.push(t);
        exit_layers.push(n_layers);

        while tokens.len() < gen_len {
            let pos = self.model.kv_len();
            let mut h = self.model.begin_token(t, &mut meter);
            let mut exit: Option<(TokenId, Vec<f32>)> = None;
            let mut executed = n_layers;
            for layer in 0..n_layers {
                h = self.model.forward_layer(layer, &h, pos, &mut meter);
                if layer + 1 >= n_layers {
                    break;
                }
                // AdaInfer reads the FULL vocabulary distribution per layer.
                let full = self.model.final_logits(&h, &mut meter);
                let feats = adainfer_features(&full);
                predictor_calls += 1;
                if self.svms[layer].predict(&feats) {
                    let tok = ops::argmax(&full).expect("logits") as TokenId;
                    self.model
                        .fill_skipped_kv(layer + 1, &h, pos, self.skip_policy, &mut meter);
                    executed = layer + 1;
                    exit = Some((tok, full));
                    break;
                }
            }
            let (next, full) = match exit {
                Some(x) => x,
                None => {
                    let full = self.model.final_logits(&h, &mut meter);
                    (ops::argmax(&full).expect("logits") as TokenId, full)
                }
            };
            ce_sum += f64::from(ops::nll(&full, next as usize));
            tokens.push(next);
            exit_layers.push(executed);
            meter.mark_token();
            meter.mark_host_step();
            t = next;
        }

        GenOutput {
            tokens,
            exit_layers,
            ce_sum,
            meter,
            predictor_calls,
            verify_calls: 0,
            rounds: 0,
            draft_calls: 0,
            self_draft_calls: 0,
        }
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

    /// Number of database buckets.
    pub fn db_len(&self) -> usize {
        self.db.len()
    }

    fn lookup(&self, ctx: &[TokenId]) -> usize {
        match self.db.get(&bigram_key(ctx)) {
            Some((sum, n)) if *n > 0 => {
                ((sum / *n as f64).round() as usize).clamp(1, self.default_layer)
            }
            _ => self.default_layer,
        }
    }

    /// Generates with retrieval-scheduled exits.
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty or `gen_len` is zero.
    pub fn generate(&mut self, prompt: &[TokenId], gen_len: usize) -> GenOutput {
        assert!(!prompt.is_empty(), "prompt must be non-empty");
        assert!(gen_len > 0, "gen_len must be positive");
        let n_layers = self.model.config().n_layers;
        let mut meter = Meter::new();
        self.model.reset();

        let mut tokens = Vec::new();
        let mut exit_layers = Vec::new();
        let mut ce_sum = 0.0;

        let (mut t, ce) = first_token(&mut self.model, prompt, &mut meter);
        ce_sum += ce;
        tokens.push(t);
        exit_layers.push(n_layers);

        let mut ctx = prompt.to_vec();
        while tokens.len() < gen_len {
            ctx.push(t);
            // Retrieval: one index probe per token.
            meter.record(OpKind::Other, 0.0, self.retrieval_bytes, 1);
            let exit_at = self.lookup(&ctx).min(n_layers);
            let pos = self.model.kv_len();
            let mut h = self.model.begin_token(t, &mut meter);
            for layer in 0..exit_at {
                h = self.model.forward_layer(layer, &h, pos, &mut meter);
            }
            if exit_at < n_layers {
                self.model.fill_skipped_kv(
                    exit_at,
                    &h,
                    pos,
                    SkipKvPolicy::ProjectExitHidden,
                    &mut meter,
                );
            }
            let full = self.model.final_logits(&h, &mut meter);
            let next = ops::argmax(&full).expect("logits") as TokenId;
            ce_sum += f64::from(ops::nll(&full, next as usize));
            tokens.push(next);
            exit_layers.push(exit_at);
            meter.mark_token();
            meter.mark_host_step();
            t = next;
        }

        GenOutput {
            tokens,
            exit_layers,
            ce_sum,
            meter,
            predictor_calls: 0,
            verify_calls: 0,
            rounds: 0,
            draft_calls: 0,
            self_draft_calls: 0,
        }
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
        assert!(engine.db_len() > 0);
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
