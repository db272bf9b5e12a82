//! The SpecEE autoregressive engine: T1 (speculation-based predictor) and
//! T2 (two-level scheduling) on top of ordinary greedy decoding.

use specee_draft::SpeculativeSource;
use specee_model::{LayeredLm, TokenId};
use specee_obs::Recorder;

use crate::config::SpecEeConfig;
use crate::engine::decode::generate_rounds;
use crate::engine::scan::{sweep, ExitScan, Running};
use crate::output::GenOutput;
use crate::predictor::{ExitPredictor, PredictorBank};
use crate::scheduler::ScheduleEngine;

/// Autoregressive decoding with speculative early exiting (Fig. 3's
/// dataflow):
///
/// 1. the speculator proposes K candidate tokens,
/// 2. between consecutive decoder layers, scheduled predictors score the
///    candidate-slice features,
/// 3. a positive prediction is verified against the full LM head before
///    the exit is taken,
/// 4. the skipped layers' KV cache is filled so later tokens can attend.
///
/// It is the lock-step [`sweep`] of `specee-batch`'s `BatchedEngine` at a
/// seat count of one, scoring at the bank's own thresholds.
#[derive(Debug, Clone)]
pub struct SpecEeEngine<M, D> {
    model: M,
    draft: D,
    bank: PredictorBank,
    schedule: ScheduleEngine,
    config: SpecEeConfig,
    trace: Option<Recorder>,
}

impl<M: LayeredLm, D: SpeculativeSource> SpecEeEngine<M, D> {
    /// Assembles an engine from its parts. The bank must cover
    /// `n_layers - 1` layers.
    ///
    /// # Panics
    ///
    /// Panics if the bank size does not match the model depth.
    pub fn new(
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
        SpecEeEngine {
            model,
            draft,
            bank,
            schedule,
            config,
            trace: None,
        }
    }

    /// Attaches (or detaches) a trace recorder. Single-stream decoding
    /// has no simulated clock, so exit-decision events are stamped with
    /// the decoded-token ordinal instead, under request id `0` (the id a
    /// batch-1 `BatchedEngine` run admits under). The recorder is
    /// write-only: traced and untraced runs produce bit-identical tokens
    /// and exit layers.
    pub fn set_recorder(&mut self, recorder: Option<Recorder>) {
        self.trace = recorder;
    }

    /// Takes the recorder (and its events) back out of the engine.
    pub fn take_recorder(&mut self) -> Option<Recorder> {
        self.trace.take()
    }

    /// Borrows the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The schedule engine (average-active statistics).
    pub fn schedule(&self) -> &ScheduleEngine {
        &self.schedule
    }

    /// Generates `gen_len` tokens with speculative early exiting.
    ///
    /// The first token comes out of the full-depth prefill; every later
    /// token runs the per-layer exit scan (draft → schedule gate →
    /// predictor → full-LM-head verification) and records the layer it
    /// actually executed to in [`GenOutput::exit_layers`].
    ///
    /// # Examples
    ///
    /// ```
    /// use specee_core::engine::SpecEeEngine;
    /// use specee_core::predictor::{PredictorBank, PredictorConfig};
    /// use specee_core::{ScheduleEngine, SpecEeConfig};
    /// use specee_model::ModelConfig;
    /// use specee_synth::{DatasetProfile, OracleDraft, SyntheticLmBuilder};
    /// use specee_tensor::rng::Pcg;
    ///
    /// let cfg = ModelConfig { n_layers: 8, ..ModelConfig::tiny() };
    /// let lm = SyntheticLmBuilder::new(cfg.clone(), DatasetProfile::qa()).seed(1).build();
    /// let draft = OracleDraft::new(*lm.language(), 0.9, &cfg, 2);
    /// let pcfg = PredictorConfig { hidden_dim: 16, ..PredictorConfig::default() };
    /// let bank = PredictorBank::new(8, &pcfg, &mut Pcg::seed(3));
    /// let config = SpecEeConfig { predictor: pcfg, ..SpecEeConfig::default() };
    /// let mut engine =
    ///     SpecEeEngine::new(lm, draft, bank, ScheduleEngine::all_layers(8), config);
    ///
    /// let out = engine.generate(&[1, 2, 3], 6);
    /// assert_eq!(out.tokens.len(), 6);
    /// assert_eq!(out.exit_layers.len(), 6);
    /// assert!(out.exit_layers.iter().all(|&l| (1..=8).contains(&l)));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty or `gen_len` is zero.
    pub fn generate(&mut self, prompt: &[TokenId], gen_len: usize) -> GenOutput {
        // `reset` does not zero a draft's running forward count.
        let draft_calls_base = self.draft.forward_calls();
        self.draft.reset();
        let mut scan = ExitScan::new();
        let (draft, schedule, trace) = (&mut self.draft, &mut self.schedule, &mut self.trace);
        let (bank, config) = (&self.bank, &self.config);
        let out = generate_rounds(&mut self.model, prompt, gen_len, |model, ctx, meter| {
            let cands = draft.propose(ctx, config.predictor.spec_k, meter);
            if let Some(rec) = trace.as_mut() {
                // No simulated clock at batch 1: stamp the token ordinal.
                rec.set_clock((ctx.len() - prompt.len()) as f64);
            }
            let pending = *ctx.last().expect("pending token");
            let seat = Running::new(0, model, &mut scan, schedule, cands, pending, meter);
            let own = |_, _, predictor: &ExitPredictor| predictor.threshold();
            let policy = config.skip_kv_policy;
            let mut rounds = sweep(vec![seat], bank, own, policy, meter, trace);
            rounds.pop().expect("one seat, one round")
        });
        GenOutput {
            predictor_calls: scan.predictor_calls(),
            verify_calls: scan.verify_calls(),
            draft_calls: self.draft.forward_calls() - draft_calls_base,
            ..out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{collect_training_data, train_bank};
    use crate::config::SchedulingMode;
    use crate::engine::DenseEngine;
    use crate::output::agreement;
    use crate::predictor::PredictorConfig;
    use crate::scheduler::{OfflineScheduler, OnlineScheduler};
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

    fn trained_engine(seed: u64, mode: SchedulingMode) -> SpecEeEngine<SyntheticLm, OracleDraft> {
        let mut lm = build_lm(seed);
        let mut draft = OracleDraft::new(*lm.language(), 0.9, &cfg(), 21);
        let prompts: Vec<(Vec<TokenId>, usize)> = (0..16)
            .map(|i| (vec![2 + i, 7 + (i % 5), 1 + i], 14usize))
            .collect();
        let report = collect_training_data(&mut lm, &mut draft, &prompts, 4);
        let pcfg = PredictorConfig {
            hidden_dim: 32,
            ..PredictorConfig::default()
        };
        let mut bank = PredictorBank::new(12, &pcfg, &mut Pcg::seed(seed));
        train_bank(
            &mut bank,
            &report.samples,
            1.0,
            &TrainConfig {
                epochs: 24,
                lr: 3e-3,
                ..Default::default()
            },
            seed,
        );
        let config = SpecEeConfig {
            predictor: pcfg,
            scheduling: mode,
            ..SpecEeConfig::default()
        };
        // Half the 12 layers offline, so the two-level case prunes some.
        let schedule = match mode {
            SchedulingMode::AllLayers => ScheduleEngine::all_layers(12),
            SchedulingMode::TwoLevel => ScheduleEngine::two_level(
                OfflineScheduler::from_frequencies(&report.exit_frequencies, 6),
                OnlineScheduler::new(12, 5, 2),
            ),
        };
        SpecEeEngine::new(build_lm(seed), draft, bank, schedule, config)
    }

    #[test]
    fn exits_early_and_matches_dense() {
        let mut engine = trained_engine(31, SchedulingMode::AllLayers);
        let prompt = vec![4u32, 2, 9];
        let out = engine.generate(&prompt, 16);
        assert_eq!(out.tokens.len(), 16);
        assert!(out.avg_layers() < 12.0, "avg layers {}", out.avg_layers());
        assert!(out.predictor_calls > 0);

        let mut dense = DenseEngine::new(build_lm(31));
        let reference = dense.generate(&prompt, 16);
        let agr = agreement(&out.tokens, &reference.tokens);
        assert!(agr >= 0.8, "agreement {agr}");
    }

    #[test]
    fn two_level_scheduling_reduces_predictor_calls() {
        let prompt = vec![4u32, 2, 9];
        let out_all = trained_engine(33, SchedulingMode::AllLayers).generate(&prompt, 20);
        let out_two = trained_engine(33, SchedulingMode::TwoLevel).generate(&prompt, 20);
        assert!(
            out_two.predictor_calls < out_all.predictor_calls,
            "two-level {} vs all {}",
            out_two.predictor_calls,
            out_all.predictor_calls
        );
        // exits should not regress catastrophically
        assert!(out_two.avg_layers() <= out_all.avg_layers() + 2.0);
    }

    #[test]
    fn traced_generate_is_bit_identical_and_emits_exit_instants() {
        use specee_obs::{EventKind, Recorder};
        let prompt = vec![4u32, 2, 9];
        let base = trained_engine(31, SchedulingMode::AllLayers).generate(&prompt, 16);
        let mut traced_engine_ = trained_engine(31, SchedulingMode::AllLayers);
        traced_engine_.set_recorder(Some(Recorder::new()));
        let traced = traced_engine_.generate(&prompt, 16);
        // Tracing must not perturb anything observable: tokens, exit
        // layers, even the metered op totals are bit-identical.
        assert_eq!(base.tokens, traced.tokens);
        assert_eq!(base.exit_layers, traced.exit_layers);
        assert_eq!(base.meter, traced.meter);

        let events = traced_engine_.take_recorder().unwrap().into_events();
        let accepts = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::ExitDecision { accepted: true, .. }))
            .count();
        let early = traced.exit_layers.iter().filter(|&&l| l < 12).count();
        assert!(early > 0, "run must actually exit early to test anything");
        assert_eq!(
            accepts, early,
            "one accepted exit-decision instant per early-exited token"
        );
    }

    #[test]
    fn sampled_and_capped_recorder_is_still_a_pure_observer() {
        use specee_obs::Recorder;
        let prompt = vec![4u32, 2, 9];
        let base = trained_engine(31, SchedulingMode::AllLayers).generate(&prompt, 16);
        let mut engine = trained_engine(31, SchedulingMode::AllLayers);
        engine.set_recorder(Some(Recorder::new().with_sample_every(3).with_budget(8)));
        let traced = engine.generate(&prompt, 16);
        // Dropping events (whether to the sampling rate or the budget
        // cap) is invisible to the decode itself.
        assert_eq!(base.tokens, traced.tokens);
        assert_eq!(base.exit_layers, traced.exit_layers);
        assert_eq!(base.meter, traced.meter);

        let rec = engine.take_recorder().unwrap();
        assert!(rec.dropped_events() > 0, "cap must actually bite");
        assert!(rec.into_events().len() <= 8);
    }

    #[test]
    fn kv_stays_consistent_after_exits() {
        let mut engine = trained_engine(35, SchedulingMode::AllLayers);
        let out = engine.generate(&[1, 2, 3], 10);
        // every committed position must have KV in layer 0 (3 prompt + 9 fed)
        assert_eq!(engine.model().kv_len(), 3 + 9);
        assert_eq!(out.exit_layers.len(), 10);
    }

    #[test]
    fn draft_calls_are_per_request_not_a_running_total() {
        use specee_draft::DraftModel;
        // `DraftModel::reset` keeps its forward count running, so a second
        // request on the same engine must report its own share of it.
        let cfg = ModelConfig {
            n_layers: 8,
            ..ModelConfig::tiny()
        };
        let lm = specee_model::Transformer::random(cfg.clone(), &mut Pcg::seed(1));
        let draft = DraftModel::new(&cfg, &mut Pcg::seed(2));
        let bank = PredictorBank::new(8, &PredictorConfig::default(), &mut Pcg::seed(3));
        let config = SpecEeConfig::default();
        let mut engine = SpecEeEngine::new(lm, draft, bank, ScheduleEngine::all_layers(8), config);
        let first = engine.generate(&[1, 2, 3], 6);
        let second = engine.generate(&[1, 2, 3], 6);
        assert_eq!(first.tokens, second.tokens);
        assert!(first.draft_calls > 0, "the draft network must have run");
        assert_eq!(first.draft_calls, second.draft_calls);
        assert_eq!(
            first.draft_calls + second.draft_calls,
            engine.draft.forward_calls()
        );
    }

    #[test]
    #[should_panic(expected = "one predictor per non-final layer")]
    fn bank_size_validated() {
        let lm = build_lm(1);
        let draft = OracleDraft::new(*lm.language(), 0.9, &cfg(), 1);
        let bank = PredictorBank::new(4, &PredictorConfig::default(), &mut Pcg::seed(1));
        let config = SpecEeConfig::default();
        let schedule = config.build_schedule(12, None);
        let _ = SpecEeEngine::new(lm, draft, bank, schedule, config);
    }
}
