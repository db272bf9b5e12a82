//! Tree-based speculative decoding (EAGLE stand-in) with optional
//! hyper-token early exiting (T3), or self-speculative rounds.
//!
//! Each round: the draft proposes a token tree, pruned to the config's
//! `tree_budget` most probable nodes (by default
//! [`crate::config::TREE_BUDGET`]); the target model runs the previous
//! bonus token plus the tree through its layers with a tree attention
//! mask; greedy verification walks the tree accepting the
//! longest matching path and produces the next bonus token. With a
//! predictor bank (T3), scheduled predictors score every pending node per
//! layer against its own candidate set, nodes *fire* sticky, and the whole
//! batch exits at the rearmost-ready layer (the Cannikin position of the
//! merged hyper-tokens).
//!
//! Handing the engine a [`specee_draft::SelfDraft`] source instead of a
//! separate draft network switches it to *self-speculative* rounds: the
//! draft pass runs the target's own shallow layers and the verify pass
//! resumes from the exit-layer hidden states. Either way a round is one
//! [`DraftPass`] through [`crate::engine::selfdraft`]'s lock-step tree
//! sweep at one seat, as `specee-batch` runs it with one seat per slot.

use specee_draft::SpeculativeSource;
use specee_model::{LayeredLm, TokenId};

use crate::config::SpecEeConfig;
use crate::engine::decode::generate_rounds;
use crate::engine::selfdraft::{self_draft_pass, sweep_trees, DraftPass};
use crate::output::GenOutput;
use crate::predictor::PredictorBank;
use crate::scheduler::ScheduleEngine;

/// Speculative decoding engine; `bank = None` is the EAGLE baseline,
/// `Some(bank)` is SpecEE+EAGLE (T3).
#[derive(Debug, Clone)]
pub struct SpeculativeEngine<M, D> {
    model: M,
    draft: D,
    bank: Option<PredictorBank>,
    schedule: ScheduleEngine,
    config: SpecEeConfig,
}

impl<M: LayeredLm, D: SpeculativeSource> SpeculativeEngine<M, D> {
    /// EAGLE-style baseline without early exiting.
    pub fn baseline(model: M, draft: D, config: SpecEeConfig) -> Self {
        let n_layers = model.config().n_layers;
        SpeculativeEngine {
            model,
            draft,
            bank: None,
            schedule: ScheduleEngine::all_layers(n_layers),
            config,
        }
    }

    /// SpecEE+EAGLE with trained predictors.
    ///
    /// # Panics
    ///
    /// Panics if the bank size does not match the model depth.
    pub fn with_early_exit(
        model: M,
        draft: D,
        bank: PredictorBank,
        schedule: ScheduleEngine,
        config: SpecEeConfig,
    ) -> Self {
        assert_eq!(
            bank.len(),
            model.config().n_layers - 1,
            "one predictor per non-final layer"
        );
        SpeculativeEngine {
            model,
            draft,
            bank: Some(bank),
            schedule,
            config,
        }
    }

    /// Borrows the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Generates at least `gen_len` tokens (truncated to exactly
    /// `gen_len`).
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty or `gen_len` is zero; with a self-draft
    /// source, also if its exit layer is not below the model depth, or with
    /// T3 early exit: the shallow pass already plays the exit predictors'
    /// role. A self-draft ignores `tree_budget`: there is no separate
    /// proposal to prune, and its spec's shape is its own budget.
    pub fn generate(&mut self, prompt: &[TokenId], gen_len: usize) -> GenOutput {
        let self_spec = self.draft.self_spec().cloned();
        if let Some(spec) = &self_spec {
            if let Err(e) = spec.validate_for_depth(self.model.config().n_layers) {
                panic!("{e}");
            }
            assert!(
                self.bank.is_none(),
                "self-draft does not compose with T3 tree early exit \
                 (the shallow pass already fills the predictors' role)"
            );
        }
        let spec_k = self.config.predictor.spec_k;
        let draft_calls_base = self.draft.forward_calls();
        self.draft.reset();
        let (mut rounds, mut predictor_calls, mut verify_calls, mut self_draft_calls) =
            (0, 0, 0, 0);

        let out = generate_rounds(&mut self.model, prompt, gen_len, |model, ctx, meter| {
            rounds += 1;
            let bonus = *ctx.last().expect("pending token");
            let mut pass = match &self_spec {
                Some(spec) => self_draft_pass(model, bonus, spec, meter),
                None => {
                    let mut tree = self.draft.propose_tree(ctx, &self.config.tree_shape, meter);
                    if let Some(budget) = self.config.tree_budget {
                        // EAGLE-2-style dynamic tree: verify only the
                        // highest joint-probability nodes.
                        tree = tree.prune_to_budget(budget);
                    }
                    // Candidate set per node: the draft's top-K
                    // continuations of its path, cached while drafting.
                    let committed = &ctx[..ctx.len() - 1];
                    let draft = &mut self.draft;
                    let cands = |path: &[TokenId], meter: &mut _| {
                        draft.cached_candidates(&[committed, path].concat(), spec_k, meter)
                    };
                    DraftPass::from_tree(model, bonus, &tree, cands, meter)
                }
            };
            let exit = self.bank.as_ref().map(|bank| (bank, &self.schedule));
            let seat = vec![(&mut *model, &mut pass)];
            let policy = self.config.skip_kv_policy;
            let round = sweep_trees(seat, exit, policy, meter)
                .pop()
                .expect("one round");
            if self_spec.is_none() {
                self.schedule.note_exit(round.executed.saturating_sub(1));
            }
            predictor_calls += pass.predictor_calls;
            verify_calls += pass.verify_calls;
            self_draft_calls += pass.shallow_calls;
            round
        });

        GenOutput {
            predictor_calls,
            verify_calls,
            rounds,
            draft_calls: self.draft.forward_calls() - draft_calls_base,
            self_draft_calls,
            ..out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{collect_training_data, train_bank};
    use crate::engine::DenseEngine;
    use crate::output::agreement;
    use crate::predictor::PredictorConfig;
    use specee_draft::TreeShape;
    use specee_metrics::Meter;
    use specee_model::ModelConfig;
    use specee_nn::TrainConfig;
    use specee_synth::{DatasetProfile, OracleDraft, SyntheticLm, SyntheticLmBuilder};
    use specee_tensor::rng::Pcg;

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

    fn spec_config() -> SpecEeConfig {
        SpecEeConfig {
            tree_shape: TreeShape::new(vec![2, 2]),
            ..SpecEeConfig::default()
        }
    }

    #[test]
    fn baseline_emits_multiple_tokens_per_round() {
        let lm = build_lm(41);
        let draft = OracleDraft::new(*lm.language(), 0.9, &cfg(), 5);
        let mut engine = SpeculativeEngine::baseline(lm, draft, spec_config());
        let out = engine.generate(&[1, 2, 3], 24);
        assert_eq!(out.tokens.len(), 24);
        assert!(out.rounds > 0);
        let tpr = out.tokens.len() as f64 / out.rounds as f64;
        assert!(tpr > 1.5, "tokens per round {tpr}");
    }

    #[test]
    fn baseline_matches_dense_output() {
        let prompt = vec![3u32, 8, 2];
        let lm = build_lm(43);
        let draft = OracleDraft::new(*lm.language(), 0.9, &cfg(), 5);
        let mut engine = SpeculativeEngine::baseline(lm, draft, spec_config());
        let spec_out = engine.generate(&prompt, 16);

        let mut dense = DenseEngine::new(build_lm(43));
        let dense_out = dense.generate(&prompt, 16);
        let agr = agreement(&spec_out.tokens, &dense_out.tokens);
        assert!(agr >= 0.8, "agreement {agr}");
    }

    #[test]
    fn early_exit_reduces_layers_and_keeps_output() {
        let prompt = vec![5u32, 1, 7];
        // train a bank on collected data
        let mut lm = build_lm(47);
        let mut draft = OracleDraft::new(*lm.language(), 0.9, &cfg(), 5);
        let prompts: Vec<(Vec<TokenId>, usize)> = (0..16)
            .map(|i| (vec![2 + i, 7 + (i % 5), 1 + i], 14usize))
            .collect();
        let report = collect_training_data(&mut lm, &mut draft, &prompts, 4);
        let pcfg = PredictorConfig {
            hidden_dim: 32,
            ..PredictorConfig::default()
        };
        let mut bank = PredictorBank::new(12, &pcfg, &mut Pcg::seed(2));
        train_bank(
            &mut bank,
            &report.samples,
            1.0,
            &TrainConfig {
                epochs: 24,
                lr: 3e-3,
                ..Default::default()
            },
            3,
        );
        let config = SpecEeConfig {
            predictor: pcfg,
            ..spec_config()
        };
        let schedule = config.build_schedule(12, Some(&report.exit_frequencies));
        let mut engine = SpeculativeEngine::with_early_exit(
            build_lm(47),
            OracleDraft::new(*build_lm(47).language(), 0.9, &cfg(), 5),
            bank,
            schedule,
            config,
        );
        let out = engine.generate(&prompt, 20);
        assert_eq!(out.tokens.len(), 20);
        assert!(out.avg_layers() < 12.0, "avg layers {}", out.avg_layers());

        let mut dense = DenseEngine::new(build_lm(47));
        let reference = dense.generate(&prompt, 20);
        let agr = agreement(&out.tokens, &reference.tokens);
        assert!(agr >= 0.7, "agreement {agr}");
    }

    #[test]
    fn kv_commits_match_context() {
        let lm = build_lm(51);
        let draft = OracleDraft::new(*lm.language(), 0.85, &cfg(), 5);
        let mut engine = SpeculativeEngine::baseline(lm, draft, spec_config());
        let out = engine.generate(&[1, 2, 3, 4], 15);
        // committed KV = prompt + all accepted tokens; the engine's context
        // and model's cache must agree.
        let kv = engine.model().kv_len();
        assert!(kv >= 4, "kv {kv}");
        assert!(out.rounds >= 1);
    }

    #[test]
    fn tree_budget_prunes_verification_without_breaking_output() {
        let prompt = vec![2u32, 6, 1];
        let run = |budget: Option<usize>| {
            let lm = build_lm(53);
            let draft = OracleDraft::new(*lm.language(), 0.9, &cfg(), 5);
            let config = SpecEeConfig {
                tree_budget: budget,
                ..spec_config()
            };
            SpeculativeEngine::baseline(lm, draft, config).generate(&prompt, 18)
        };
        let full = run(None);
        let pruned = run(Some(2));
        assert_eq!(pruned.tokens.len(), 18);
        // A 2-node budget verifies fewer tokens per round than the 6-node
        // full tree, so it needs more rounds for the same output length.
        assert!(
            pruned.rounds >= full.rounds,
            "pruned {} vs full {}",
            pruned.rounds,
            full.rounds
        );
        // Greedy verification keeps outputs dense-faithful either way.
        let reference = DenseEngine::new(build_lm(53)).generate(&prompt, 18);
        assert!(agreement(&pruned.tokens, &reference.tokens) >= 0.8);
    }

    fn tf(seed: u64) -> specee_model::Transformer {
        specee_model::Transformer::random(
            ModelConfig {
                n_layers: 6,
                vocab_size: 96,
                ..ModelConfig::tiny()
            },
            &mut Pcg::seed(seed),
        )
    }

    #[test]
    fn self_draft_chain_is_bit_identical_to_dense() {
        use specee_draft::{SelfDraft, SelfDraftSpec};
        let prompt = vec![3u32, 8, 2, 5];
        let draft = SelfDraft::new(SelfDraftSpec::new(2, TreeShape::chain(3)));
        let mut engine = SpeculativeEngine::baseline(tf(77), draft, SpecEeConfig::default());
        let out = engine.generate(&prompt, 20);

        let mut dense = DenseEngine::new(tf(77));
        let reference = dense.generate(&prompt, 20);
        // Self-draft never changes the output: every emitted token is the
        // target's own greedy argmax. Bit-identical, not just agreeing.
        assert_eq!(out.tokens, reference.tokens);
        assert!(out.rounds > 0);
        assert!(out.self_draft_calls > 0, "shallow passes must be metered");
        assert_eq!(out.draft_calls, 0, "no separate draft network ran");
    }

    #[test]
    fn self_draft_commits_split_kv_without_residue() {
        use specee_draft::{SelfDraft, SelfDraftSpec};
        let prompt = vec![1u32, 2, 3];
        let draft = SelfDraft::new(SelfDraftSpec::new(3, TreeShape::new(vec![2, 2])));
        let mut engine = SpeculativeEngine::baseline(tf(81), draft, SpecEeConfig::default());
        let out = engine.generate(&prompt, 16);
        assert_eq!(out.tokens.len(), 16);
        // KV-split invariant at the engine tier: every layer's cache —
        // shallow (committed from draft scratch) and deep (committed from
        // the verify sweep) — holds exactly the committed positions;
        // rejected tree branches left no residue at any layer.
        let kv = engine.model().kv_len();
        assert!(kv > prompt.len());
        for layer in 0..6 {
            assert_eq!(engine.model().cache(layer).len(), kv, "layer {layer}");
        }
        // Shallow work is metered per (node × shallow layer); every round
        // ran at least the bonus node through 3 shallow layers.
        assert!(out.self_draft_calls >= out.rounds * 3);
    }

    #[test]
    fn separate_draft_meters_draft_calls_not_self_draft() {
        use specee_draft::DraftModel;
        let model = tf(83);
        let draft = DraftModel::new(model.config(), &mut Pcg::seed(9));
        let mut engine = SpeculativeEngine::baseline(model, draft, spec_config());
        let out = engine.generate(&[4u32, 1, 6], 12);
        assert!(
            out.draft_calls > 0,
            "separate draft forwards must be metered"
        );
        assert_eq!(out.self_draft_calls, 0);
    }

    #[test]
    #[should_panic(expected = "below the model depth")]
    fn self_draft_exit_beyond_depth_is_rejected() {
        use specee_draft::{SelfDraft, SelfDraftSpec};
        let draft = SelfDraft::new(SelfDraftSpec::new(6, TreeShape::chain(2)));
        let mut engine = SpeculativeEngine::baseline(tf(85), draft, SpecEeConfig::default());
        let _ = engine.generate(&[1, 2], 4);
    }

    /// `tree_budget` bounds a separate draft's proposal; a self-draft's
    /// spec shape is its own budget, so the default config decodes it
    /// exactly as `tree_budget: None` does.
    #[test]
    fn self_draft_ignores_the_tree_budget() {
        use specee_draft::{SelfDraft, SelfDraftSpec};
        let prompt = vec![1u32, 2, 5];
        let run = |config: SpecEeConfig| {
            let draft = SelfDraft::new(SelfDraftSpec::new(5, TreeShape::eagle_default()));
            SpeculativeEngine::baseline(tf(87), draft, config).generate(&prompt, 16)
        };
        let default = SpecEeConfig::default();
        assert!(default.tree_budget.is_some());
        let full = run(SpecEeConfig {
            tree_budget: None,
            ..SpecEeConfig::default()
        });
        assert_eq!(format!("{:?}", run(default)), format!("{full:?}"));
    }

    /// Forwards to `inner` and counts, per drafted tree, the candidate
    /// sets the engine asks for: one per node it verifies, the pending
    /// token included.
    struct CountingDraft<D> {
        inner: D,
        asked: Vec<usize>,
    }

    impl<D: SpeculativeSource> SpeculativeSource for CountingDraft<D> {
        fn propose(&mut self, context: &[TokenId], k: usize, meter: &mut Meter) -> Vec<TokenId> {
            self.inner.propose(context, k, meter)
        }
        fn propose_tree(
            &mut self,
            context: &[TokenId],
            shape: &TreeShape,
            meter: &mut Meter,
        ) -> specee_draft::TokenTree {
            self.asked.push(0);
            self.inner.propose_tree(context, shape, meter)
        }
        fn cached_candidates(
            &mut self,
            context: &[TokenId],
            k: usize,
            meter: &mut Meter,
        ) -> Vec<TokenId> {
            *self.asked.last_mut().expect("a tree was drafted") += 1;
            self.inner.cached_candidates(context, k, meter)
        }
        fn reset(&mut self) {
            self.inner.reset();
        }
        fn modelled_bytes(&self) -> f64 {
            self.inner.modelled_bytes()
        }
    }

    /// The default config verifies `TREE_BUDGET` draft nodes a round,
    /// not the 21 of the EAGLE shape it drafts; `None` verifies them all.
    #[test]
    fn a_default_round_verifies_at_most_the_tree_budget() {
        let nodes_per_round = |tree_budget: Option<usize>| {
            let lm = build_lm(59);
            let inner = OracleDraft::new(*lm.language(), 0.9, &cfg(), 5);
            let draft = CountingDraft {
                inner,
                asked: Vec::new(),
            };
            let config = SpecEeConfig {
                tree_budget,
                ..SpecEeConfig::default()
            };
            let mut engine = SpeculativeEngine::baseline(lm, draft, config);
            let out = engine.generate(&[3, 1, 4], 16);
            assert_eq!(out.rounds, engine.draft.asked.len() as u64);
            // Less the pending token each round verifies behind the tree.
            engine.draft.asked.iter().map(|n| n - 1).collect::<Vec<_>>()
        };
        let default = nodes_per_round(SpecEeConfig::default().tree_budget);
        assert!(!default.is_empty());
        assert!(
            default.iter().all(|&n| n == crate::config::TREE_BUDGET),
            "{default:?}"
        );
        let full = nodes_per_round(None);
        let eagle = TreeShape::eagle_default().node_count();
        assert!(full.iter().all(|&n| n == eagle), "{full:?}");
    }

    /// A draft that proposes nothing leaves a one-node tree, the pending
    /// token alone: one full-depth round per decode token, the dense
    /// greedy stream bit for bit, on both substrates.
    #[test]
    fn an_empty_draft_tree_is_the_dense_stream() {
        use specee_draft::NoDraft;
        fn same<M: LayeredLm>(tree_lm: M, dense_lm: M, prompt: &[TokenId], gen_len: usize) {
            let config = SpecEeConfig::default();
            let tree =
                SpeculativeEngine::baseline(tree_lm, NoDraft, config).generate(prompt, gen_len);
            let dense = DenseEngine::new(dense_lm).generate(prompt, gen_len);
            assert_eq!(tree.tokens, dense.tokens);
            assert_eq!(tree.exit_layers, dense.exit_layers);
            assert_eq!(tree.ce_sum.to_bits(), dense.ce_sum.to_bits(), "ce_sum");
            assert_eq!(
                tree.rounds,
                gen_len as u64 - 1,
                "one round per decode token"
            );
        }
        let mut rng = Pcg::seed(61);
        for case in 0..8u64 {
            let prompt: Vec<TokenId> = (0..1 + rng.below(6))
                .map(|_| rng.below(96) as TokenId)
                .collect();
            let gen_len = 1 + rng.below(12);
            same(tf(case), tf(case), &prompt, gen_len);
            same(build_lm(case), build_lm(case), &prompt, gen_len);
        }
    }

    #[test]
    fn generous_tree_budget_is_identity() {
        let prompt = vec![4u32, 9, 3];
        let run = |budget: Option<usize>| {
            let lm = build_lm(57);
            let draft = OracleDraft::new(*lm.language(), 0.9, &cfg(), 5);
            let config = SpecEeConfig {
                tree_budget: budget,
                ..spec_config()
            };
            SpeculativeEngine::baseline(lm, draft, config).generate(&prompt, 12)
        };
        let full = run(None);
        let capped = run(Some(100));
        assert_eq!(full.tokens, capped.tokens);
        assert_eq!(full.rounds, capped.rounds);
    }
}
