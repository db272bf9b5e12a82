//! Tree-based speculative decoding (EAGLE stand-in) with optional
//! hyper-token early exiting (T3).
//!
//! Each round: the draft proposes a token tree; the target model runs the
//! previous bonus token plus the whole tree through its layers with a tree
//! attention mask; greedy verification walks the tree accepting the
//! longest matching path and produces the next bonus token. With T3
//! enabled, scheduled predictors score every pending node per layer
//! against its own candidate set, nodes *fire* sticky, and the whole batch
//! exits at the rearmost-ready layer (the Cannikin position of the merged
//! hyper-tokens).
//!
//! Handing the engine a [`specee_draft::SelfDraft`] source instead of a
//! separate draft network switches it to *self-speculative* rounds: the
//! draft pass runs the target's own shallow layers and the verify pass
//! resumes from the exit-layer hidden states (see
//! [`crate::engine::selfdraft`]).

use specee_draft::{SelfDraftSpec, SpeculativeSource};
use specee_model::{LayeredLm, TokenId};

use crate::config::SpecEeConfig;
use crate::engine::decode::{generate_rounds, greedy_walk, Round, Walk};
use crate::engine::selfdraft::{deep_sweep, self_draft_pass, verify_commit};
use crate::features::FeatureTracker;
use crate::mapping::TreeExitState;
use crate::output::GenOutput;
use crate::predictor::PredictorBank;
use crate::scheduler::ScheduleEngine;
use crate::verify::verify_exit;

/// Speculative decoding engine; `bank = None` is the EAGLE baseline,
/// `Some(bank)` with `config.tree_early_exit` is SpecEE+EAGLE.
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
            config: SpecEeConfig {
                tree_early_exit: false,
                ..config
            },
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
            config: SpecEeConfig {
                tree_early_exit: true,
                ..config
            },
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
    /// Panics if `prompt` is empty or `gen_len` is zero.
    pub fn generate(&mut self, prompt: &[TokenId], gen_len: usize) -> GenOutput {
        if let Some(spec) = self.draft.self_spec().cloned() {
            return self.generate_self_draft(prompt, gen_len, &spec);
        }
        let n_layers = self.model.config().n_layers;
        let spec_k = self.config.predictor.spec_k;
        let early_exit = self.config.tree_early_exit && self.bank.is_some();
        let draft_calls_base = self.draft.forward_calls();
        self.draft.reset();
        let (mut predictor_calls, mut verify_calls, mut rounds) = (0u64, 0u64, 0u64);

        let out = generate_rounds(&mut self.model, prompt, gen_len, |model, ctx, meter| {
            rounds += 1;
            let mut tree = self.draft.propose_tree(ctx, &self.config.tree_shape, meter);
            if let Some(budget) = self.config.tree_budget {
                // EAGLE-2-style dynamic tree: verify only the highest
                // joint-probability nodes.
                tree = tree.prune_to_budget(budget);
            }

            // Node batch: index 0 is the pending bonus token; tree nodes
            // follow shifted by one, roots hanging off the bonus.
            let (committed, bonus) = ctx.split_at(ctx.len() - 1);
            let mut node_tokens = bonus.to_vec();
            let mut node_parents: Vec<Option<usize>> = vec![None];
            for n in tree.nodes() {
                node_tokens.push(n.token);
                node_parents.push(Some(n.parent.map_or(0, |p| p + 1)));
            }
            let n_nodes = node_tokens.len();
            // Candidate set per node: the draft's top-K continuations of
            // the node's path (already computed during tree drafting, so
            // the cached lookup is free). The set always has K entries so
            // the predictor's feature dimension is fixed.
            let mut node_cands: Vec<Vec<TokenId>> = Vec::with_capacity(n_nodes);
            for i in 0..n_nodes {
                let mut path_ctx = committed.to_vec();
                let mut chain = Vec::new();
                let mut cur = Some(i);
                while let Some(n) = cur {
                    chain.push(node_tokens[n]);
                    cur = node_parents[n];
                }
                chain.reverse();
                path_ctx.extend_from_slice(&chain);
                node_cands.push(self.draft.cached_candidates(&path_ctx, spec_k, meter));
            }

            let mut hs = model.begin_tree(&node_tokens, &node_parents, meter);
            let mut kvs = Vec::with_capacity(n_layers);
            let mut exit_state = TreeExitState::new(&node_parents);
            let mut trackers: Vec<FeatureTracker> = vec![FeatureTracker::new(); n_nodes];
            let mut executed = n_layers;
            let mut exit_walk: Option<Walk> = None;
            for layer in 0..n_layers {
                let (out, kv) = model.forward_layer_tree(layer, &hs, &node_parents, meter);
                hs = out;
                kvs.push(kv);
                if !early_exit || layer + 1 >= n_layers || !self.schedule.is_active(layer) {
                    continue;
                }
                let bank = self.bank.as_ref().expect("early exit requires bank");
                // Hyper-token feature extraction: ONE grouped GEMM over all
                // pending nodes' candidate slices (Fig. 13), then ONE
                // batched predictor kernel.
                let pending = exit_state.pending();
                if pending.is_empty() {
                    continue;
                }
                let h_refs: Vec<&[f32]> = pending.iter().map(|&i| hs[i].as_slice()).collect();
                let cand_refs: Vec<&[TokenId]> =
                    pending.iter().map(|&i| node_cands[i].as_slice()).collect();
                let logits_per_node = model.grouped_slice_logits(&h_refs, &cand_refs, meter);
                let feats: Vec<_> = pending
                    .iter()
                    .zip(logits_per_node)
                    .map(|(&i, logits)| trackers[i].update(logits))
                    .collect();
                predictor_calls += pending.len() as u64;
                let scores = bank.layer(layer).score_batch(&feats, meter);
                let threshold = bank.layer(layer).threshold();
                for (&i, score) in pending.iter().zip(scores) {
                    if score > threshold {
                        exit_state.note_fired(i, layer);
                    }
                }
                // Exit check: once some hyper-token is predictor-ready,
                // run the verification of §4.3.3 over the whole batch and
                // walk the acceptance chain, trusting only nodes whose
                // predictor fired and whose logits verify — an unfired
                // node's logits may not have stabilized. The batch exits
                // only when the chain that WOULD be accepted consists
                // entirely of such nodes and ends naturally (a draft miss,
                // not a cut) — the Cannikin position of the real accepted
                // hyper-token, not of an arbitrary ready path.
                if exit_state.any_path_ready() {
                    let fulls = model.final_logits_batch(&hs, meter);
                    verify_calls += 1;
                    let trusted = |j: usize| {
                        exit_state.fired(j) && verify_exit(&fulls[j], &node_cands[j]).is_some()
                    };
                    if trusted(0) {
                        let walk = greedy_walk(&fulls, &node_tokens, &node_parents, trusted);
                        if !walk.cut {
                            executed = layer + 1;
                            exit_walk = Some(walk);
                            break;
                        }
                    }
                }
            }

            // An exit's walk is the round's verification: its batched head
            // is already computed and paid for. A full-depth round verifies
            // now — all node logits from ONE batched LM-head GEMM (how
            // EAGLE verifies a tree), then a greedy walk from the bonus
            // node accepts the longest matching path.
            let Walk {
                accepted, emitted, ..
            } = exit_walk.unwrap_or_else(|| {
                verify_calls += 1;
                let node_logits = model.final_logits_batch(&hs, meter);
                greedy_walk(&node_logits, &node_tokens, &node_parents, |_| true)
            });
            let base_kv = model.kv_len();

            for (layer, kv) in kvs.iter().enumerate() {
                model.commit_tree_kv(layer, kv, &accepted);
            }
            if executed < n_layers {
                for (ord, &idx) in accepted.iter().enumerate() {
                    model.fill_skipped_kv(
                        executed,
                        &hs[idx],
                        base_kv + ord,
                        self.config.skip_kv_policy,
                        meter,
                    );
                }
            }
            let accepted_tokens: Vec<TokenId> = accepted.iter().map(|&i| node_tokens[i]).collect();
            model.accept_tokens(&accepted_tokens);
            self.schedule.note_exit(executed.saturating_sub(1));
            Round { emitted, executed }
        });

        GenOutput {
            predictor_calls,
            verify_calls,
            rounds,
            draft_calls: self.draft.forward_calls() - draft_calls_base,
            ..out
        }
    }

    /// Self-speculative rounds: shallow draft pass → deep verify sweep →
    /// split KV commit, all through [`crate::engine::selfdraft`].
    ///
    /// # Panics
    ///
    /// Panics if the spec's exit layer is not below the model depth, or if
    /// the engine was built with T3 early exit or a tree budget — neither
    /// composes with self-draft (the draft tree is grown inside the target,
    /// so there is no separate proposal to prune, and the shallow pass
    /// already plays the role the exit predictors would).
    fn generate_self_draft(
        &mut self,
        prompt: &[TokenId],
        gen_len: usize,
        spec: &SelfDraftSpec,
    ) -> GenOutput {
        let n_layers = self.model.config().n_layers;
        if let Err(e) = spec.validate_for_depth(n_layers) {
            panic!("{e}");
        }
        assert!(
            self.bank.is_none() && !self.config.tree_early_exit,
            "self-draft does not compose with T3 tree early exit \
             (the shallow pass already fills the predictors' role)"
        );
        assert!(
            self.config.tree_budget.is_none(),
            "self-draft does not compose with a tree budget: the tree is \
             grown inside the target, not pruned from a separate proposal"
        );
        let (mut rounds, mut self_draft_calls) = (0u64, 0u64);
        let out = generate_rounds(&mut self.model, prompt, gen_len, |model, ctx, meter| {
            rounds += 1;
            let bonus = *ctx.last().expect("pending token");
            let pass = self_draft_pass(model, bonus, spec, meter);
            self_draft_calls += pass.shallow_calls;
            let (final_hs, deep_kvs) = deep_sweep(model, &pass, spec.exit_layer, meter);
            let outcome = verify_commit(model, &pass, &final_hs, &deep_kvs, meter);
            Round {
                emitted: outcome.emitted,
                executed: n_layers,
            }
        });
        GenOutput {
            verify_calls: rounds,
            rounds,
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

    #[test]
    #[should_panic(expected = "tree budget")]
    fn self_draft_rejects_tree_budget() {
        use specee_draft::{SelfDraft, SelfDraftSpec};
        let draft = SelfDraft::new(SelfDraftSpec::new(2, TreeShape::chain(2)));
        let config = SpecEeConfig {
            tree_budget: Some(4),
            ..SpecEeConfig::default()
        };
        let mut engine = SpeculativeEngine::baseline(tf(87), draft, config);
        let _ = engine.generate(&[1, 2], 4);
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
