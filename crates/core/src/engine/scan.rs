//! The per-token exit scan shared by the single-stream and batched
//! autoregressive engines.
//!
//! [`ExitScan`] bundles the layer-by-layer decision dataflow of Fig. 3 —
//! consult the predictor schedule, extract candidate-slice features, score
//! them, and verify a positive prediction against the full LM head —
//! behind one `check_with_sink` call per layer: `score`, the model's full
//! head on a fire, `settle`. `SpecEeEngine` drives one scan per token; the
//! lock-step runtime in `specee-batch` drives one scan per (slot, token)
//! and calls the two halves itself, one full head per layer between them
//! for every slot that fired — so a batched sequence takes exactly the
//! exits its single-stream run would (parity by construction, not by test
//! alone).
//!
//! The scan is the *early-exit* half of the draft/verify seam. Its
//! sibling, [`crate::engine::selfdraft`], covers the *self-speculative*
//! half: there the shallow layers themselves play the draft role and no
//! per-layer predictor scan runs at all — sequences in self-draft mode
//! bypass `ExitScan` entirely (exit layers are always the full depth).

use specee_metrics::Meter;
use specee_model::{LayeredLm, TokenId};
use specee_obs::{EventKind, Recorder};

use crate::features::FeatureTracker;
use crate::predictor::PredictorBank;
use crate::scheduler::ScheduleEngine;
use crate::traffic::TrafficClass;
use crate::verify::verify_exit;

/// One verifier outcome for one predictor *fire*: the raw accept/reject
/// stream closed-loop threshold controllers feed on.
///
/// A feedback event is emitted exactly when a scheduled predictor's score
/// crosses its layer threshold — i.e. once per [`ExitScan::verify_calls`]
/// increment — so over any window `accepts + rejects` equals the number
/// of predictor fires. Negative predictions (score at or below the
/// threshold) emit nothing: the verifier never ran, so there is no
/// outcome to learn from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExitFeedback {
    /// Traffic class of the sequence whose scan fired (the key of the
    /// per-class feedback plane; [`TrafficClass::DEFAULT`] for untagged
    /// traffic).
    pub class: TrafficClass,
    /// Decoder layer whose predictor fired (0-based; the exit, if taken,
    /// executes `layer + 1` layers).
    pub layer: usize,
    /// The predictor's sigmoid score for this fire.
    pub score: f32,
    /// The threshold the score was compared against when it fired.
    pub threshold: f32,
    /// Whether the full-LM-head verification of §4.3.3 accepted the exit
    /// (`false` = a *false exit*: the fire wasted one LM-head forward).
    pub accepted: bool,
}

/// Layer-by-layer early-exit decisions for one token's forward pass.
///
/// Call [`ExitScan::begin_token`] at each token boundary, then
/// [`ExitScan::check_with_sink`] (or its halves, [`ExitScan::score`] then
/// [`ExitScan::settle`]) after every executed layer until it returns a
/// verified exit (or the stack runs out of layers). Every predictor fire
/// additionally records an [`ExitFeedback`] event; runtimes that adapt
/// thresholds online drain them with [`ExitScan::take_feedback`].
#[derive(Debug, Clone, Default)]
pub struct ExitScan {
    tracker: FeatureTracker,
    class: TrafficClass,
    predictor_calls: u64,
    verify_calls: u64,
    feedback: Vec<ExitFeedback>,
}

impl ExitScan {
    /// Creates a scan with fresh feature history and zeroed counters,
    /// tagged with the default traffic class.
    pub fn new() -> Self {
        ExitScan::default()
    }

    /// Tags the scan with the sequence's traffic class: every subsequent
    /// [`ExitFeedback`] event carries it, so per-class consumers can key
    /// controller state without re-deriving the class downstream.
    pub fn set_class(&mut self, class: TrafficClass) {
        self.class = class;
    }

    /// The traffic class this scan stamps on its feedback events.
    pub fn class(&self) -> TrafficClass {
        self.class
    }

    /// Starts a new token: clears the probability-variation history the
    /// feature tracker carries between layers, and discards any feedback
    /// events the previous token's consumer left undrained — so a run
    /// with no controller attached never accumulates more than one
    /// token's worth of events.
    pub fn begin_token(&mut self) {
        self.tracker.reset();
        self.feedback.clear();
    }

    /// Runs the scheduled exit decision after `layer` on hidden state `h`.
    ///
    /// Returns `Some((token, full_logits))` when the predictor fired *and*
    /// the full-LM-head verification of §4.3.3 accepted the exit; `None`
    /// when decoding must continue to the next layer (inactive schedule
    /// slot, empty candidate set, negative prediction, or failed
    /// verification — the failed verification's LM-head cost is recorded
    /// in `meter` and counted in [`ExitScan::verify_calls`]).
    ///
    /// This is [`ExitScan::score`], the model's full head on a fire, then
    /// [`ExitScan::settle`]; a runtime that batches the head across
    /// sequences calls the two halves itself.
    #[allow(clippy::too_many_arguments)]
    pub fn check_with_sink<M: LayeredLm + ?Sized>(
        &mut self,
        model: &mut M,
        bank: &PredictorBank,
        schedule: &ScheduleEngine,
        h: &[f32],
        candidates: &[TokenId],
        layer: usize,
        meter: &mut Meter,
        sink: &mut Option<Recorder>,
    ) -> Option<(TokenId, Vec<f32>)> {
        let fire = self.score(model, bank, schedule, h, candidates, layer, meter)?;
        let full = model.final_logits(h, meter);
        self.settle(fire, full, candidates, layer, sink)
    }

    /// The first half of the decision: schedule gate → candidate-slice
    /// features → predictor. Returns the `(score, threshold)` of a fire —
    /// which the caller owes one full-LM-head row and a
    /// [`ExitScan::settle`] — and `None` when the layer decides nothing.
    #[allow(clippy::too_many_arguments)]
    pub fn score<M: LayeredLm + ?Sized>(
        &mut self,
        model: &mut M,
        bank: &PredictorBank,
        schedule: &ScheduleEngine,
        h: &[f32],
        candidates: &[TokenId],
        layer: usize,
        meter: &mut Meter,
    ) -> Option<(f32, f32)> {
        // With no candidates `verify_exit` can accept nothing, so scoring
        // the layer would only burn a predictor call.
        if layer + 1 >= model.config().n_layers
            || !schedule.is_active(layer)
            || candidates.is_empty()
        {
            return None;
        }
        let feats = self.tracker.extract(model, h, candidates, meter);
        self.predictor_calls += 1;
        let predictor = bank.layer(layer);
        let score = predictor.score(&feats, meter);
        if !predictor.fires(score) {
            return None;
        }
        self.verify_calls += 1;
        Some((score, predictor.threshold()))
    }

    /// The second half: verifies the fire [`ExitScan::score`] returned
    /// against `full`, the full-LM-head logits of the same hidden state,
    /// and returns them with the token when the exit stands.
    ///
    /// Every fire records an [`ExitFeedback`] and emits an
    /// [`EventKind::ExitDecision`] to `sink` when a recorder is attached
    /// (same layer/score/threshold/accepted payload, stamped with the
    /// recorder's ambient clock and sequence id). The recorder is
    /// write-only, so a traced scan decides exactly what the untraced scan
    /// decides.
    pub fn settle(
        &mut self,
        (score, threshold): (f32, f32),
        full: Vec<f32>,
        candidates: &[TokenId],
        layer: usize,
        sink: &mut Option<Recorder>,
    ) -> Option<(TokenId, Vec<f32>)> {
        let exit = verify_exit(&full, candidates).map(|tok| (tok, full));
        if let Some(rec) = sink {
            rec.record(EventKind::ExitDecision {
                class: self.class.id(),
                layer: layer as u32,
                score: f64::from(score),
                threshold: f64::from(threshold),
                accepted: exit.is_some(),
            });
        }
        self.feedback.push(ExitFeedback {
            class: self.class,
            layer,
            score,
            threshold,
            accepted: exit.is_some(),
        });
        exit
    }

    /// Predictor forwards executed so far.
    pub fn predictor_calls(&self) -> u64 {
        self.predictor_calls
    }

    /// Full-LM-head verification calls triggered so far (successful or
    /// not).
    pub fn verify_calls(&self) -> u64 {
        self.verify_calls
    }

    /// Feedback events recorded since the last [`ExitScan::take_feedback`]
    /// (one per predictor fire, in fire order).
    pub fn feedback(&self) -> &[ExitFeedback] {
        &self.feedback
    }

    /// Drains the recorded feedback events, leaving the buffer empty.
    /// Controllers consume the stream through this call so no event is
    /// observed twice.
    pub fn take_feedback(&mut self) -> Vec<ExitFeedback> {
        std::mem::take(&mut self.feedback)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::PredictorConfig;
    use specee_model::{prefill, ModelConfig, Transformer};
    use specee_tensor::rng::Pcg;

    fn parts() -> (Transformer, PredictorBank, Meter) {
        let cfg = ModelConfig::tiny();
        let model = Transformer::random(cfg.clone(), &mut Pcg::seed(11));
        let bank = PredictorBank::new(
            cfg.n_layers,
            &PredictorConfig {
                hidden_dim: 16,
                ..PredictorConfig::default()
            },
            &mut Pcg::seed(4),
        );
        (model, bank, Meter::new())
    }

    #[test]
    fn last_layer_never_checks() {
        let (mut model, bank, mut meter) = parts();
        let schedule = ScheduleEngine::all_layers(4);
        let h = prefill(&mut model, &[1, 2], &mut meter);
        let mut scan = ExitScan::new();
        scan.begin_token();
        let out = scan.check_with_sink(
            &mut model,
            &bank,
            &schedule,
            &h,
            &[1, 2, 3, 4],
            3,
            &mut meter,
            &mut None,
        );
        assert!(out.is_none());
        assert_eq!(scan.predictor_calls(), 0);
    }

    #[test]
    fn inactive_schedule_skips_predictor() {
        let (mut model, bank, mut meter) = parts();
        // Offline scheduler keeping only layer 2: layer 0 is inactive.
        let off = crate::scheduler::OfflineScheduler::from_frequencies(&[0.0, 0.0, 1.0, 0.0], 1);
        let schedule = ScheduleEngine::offline_only(off);
        let h = prefill(&mut model, &[1], &mut meter);
        let mut scan = ExitScan::new();
        scan.begin_token();
        assert!(scan
            .check_with_sink(
                &mut model,
                &bank,
                &schedule,
                &h,
                &[1, 2, 3, 4],
                0,
                &mut meter,
                &mut None
            )
            .is_none());
        assert_eq!(scan.predictor_calls(), 0);
        let _ = scan.check_with_sink(
            &mut model,
            &bank,
            &schedule,
            &h,
            &[1, 2, 3, 4],
            2,
            &mut meter,
            &mut None,
        );
        assert_eq!(scan.predictor_calls(), 1);
    }

    #[test]
    fn empty_candidates_skip_the_predictor() {
        // A scheduled layer whose predictor would always fire: with no
        // candidates the scan must not even score it.
        let (mut model, mut bank, mut meter) = parts();
        bank.layer_mut(0).set_threshold(0.0);
        let schedule = ScheduleEngine::all_layers(4);
        let h = prefill(&mut model, &[3], &mut meter);
        let before = meter.clone();
        let mut scan = ExitScan::new();
        scan.begin_token();
        let out = scan.check_with_sink(
            &mut model,
            &bank,
            &schedule,
            &h,
            &[],
            0,
            &mut meter,
            &mut None,
        );
        assert!(out.is_none());
        assert_eq!((scan.predictor_calls(), scan.verify_calls()), (0, 0));
        assert!(scan.feedback().is_empty());
        assert_eq!(meter, before, "nothing metered");
    }

    #[test]
    fn verified_exit_returns_global_argmax() {
        let (mut model, mut bank, mut meter) = parts();
        // Force the layer-0 predictor to always fire.
        bank.layer_mut(0).set_threshold(0.0);
        let schedule = ScheduleEngine::all_layers(4);
        let h = prefill(&mut model, &[3], &mut meter);
        let full = model.final_logits(&h, &mut meter);
        let global = specee_tensor::ops::argmax(&full).unwrap() as TokenId;
        let mut scan = ExitScan::new();
        scan.begin_token();
        // Candidate set containing the global argmax: exit verifies.
        let cands = [global, global ^ 1, global ^ 2, global ^ 3];
        let out = scan.check_with_sink(
            &mut model, &bank, &schedule, &h, &cands, 0, &mut meter, &mut None,
        );
        assert_eq!(out.map(|(t, _)| t), Some(global));
        assert_eq!(scan.verify_calls(), 1);
    }

    #[test]
    fn feedback_accounts_for_every_fire() {
        // accepts + rejects == predictor fires (== verify calls), with one
        // event per fire carrying the score/threshold pair that fired.
        let (mut model, mut bank, mut meter) = parts();
        bank.layer_mut(0).set_threshold(0.0);
        bank.layer_mut(1).set_threshold(0.0);
        let schedule = ScheduleEngine::all_layers(4);
        let h = prefill(&mut model, &[3], &mut meter);
        let full = model.final_logits(&h, &mut meter);
        let global = specee_tensor::ops::argmax(&full).unwrap() as TokenId;
        let wrong: Vec<TokenId> = (0..8).filter(|&t| t != global).take(4).collect();
        let good = [global, global ^ 1, global ^ 2, global ^ 3];

        let mut scan = ExitScan::new();
        scan.begin_token();
        // Layer 0 fires and rejects (candidates miss the argmax), layer 1
        // fires and accepts.
        assert!(scan
            .check_with_sink(&mut model, &bank, &schedule, &h, &wrong, 0, &mut meter, &mut None)
            .is_none());
        assert!(scan
            .check_with_sink(&mut model, &bank, &schedule, &h, &good, 1, &mut meter, &mut None)
            .is_some());

        let fb = scan.feedback().to_vec();
        let accepts = fb.iter().filter(|f| f.accepted).count() as u64;
        let rejects = fb.iter().filter(|f| !f.accepted).count() as u64;
        assert_eq!(accepts + rejects, scan.verify_calls());
        assert_eq!((accepts, rejects), (1, 1));
        assert_eq!(fb[0].layer, 0);
        assert!(!fb[0].accepted);
        assert_eq!(fb[1].layer, 1);
        assert!(fb[1].accepted);
        for f in &fb {
            assert!(f.score > f.threshold, "events only exist for fires");
        }
        // Draining consumes the stream exactly once.
        assert_eq!(scan.take_feedback().len(), 2);
        assert!(scan.feedback().is_empty());
        assert!(scan.take_feedback().is_empty());
    }

    #[test]
    fn begin_token_discards_undrained_feedback() {
        // No consumer attached: the buffer must stay bounded by one
        // token's fires, not grow for the whole generation.
        let (mut model, mut bank, mut meter) = parts();
        bank.layer_mut(0).set_threshold(0.0);
        let schedule = ScheduleEngine::all_layers(4);
        let h = prefill(&mut model, &[3], &mut meter);
        let mut scan = ExitScan::new();
        for _ in 0..3 {
            scan.begin_token();
            let _ = scan.check_with_sink(
                &mut model,
                &bank,
                &schedule,
                &h,
                &[1, 2, 3, 4],
                0,
                &mut meter,
                &mut None,
            );
            assert!(scan.feedback().len() <= 1, "buffer bounded per token");
        }
        assert_eq!(scan.verify_calls(), 3, "counters still accumulate");
    }

    #[test]
    fn feedback_carries_the_scans_traffic_class() {
        let (mut model, mut bank, mut meter) = parts();
        bank.layer_mut(0).set_threshold(0.0);
        let schedule = ScheduleEngine::all_layers(4);
        let h = prefill(&mut model, &[3], &mut meter);
        let mut scan = ExitScan::new();
        assert!(scan.class().is_default());
        scan.set_class(TrafficClass::new(3));
        scan.begin_token();
        let _ = scan.check_with_sink(
            &mut model,
            &bank,
            &schedule,
            &h,
            &[1, 2, 3, 4],
            0,
            &mut meter,
            &mut None,
        );
        assert_eq!(scan.feedback().len(), 1);
        assert_eq!(scan.feedback()[0].class, TrafficClass::new(3));
    }

    #[test]
    fn sink_mirrors_feedback_exactly() {
        use specee_obs::Recorder;
        // One ExitDecision trace event per predictor fire, carrying the
        // same payload as the ExitFeedback stream — and the traced scan
        // returns exactly what the untraced scan returns.
        let (mut model, mut bank, mut meter) = parts();
        bank.layer_mut(0).set_threshold(0.0);
        let schedule = ScheduleEngine::all_layers(4);
        let h = prefill(&mut model, &[3], &mut meter);
        let mut scan = ExitScan::new();
        scan.set_class(TrafficClass::new(2));
        scan.begin_token();
        let mut rec = Some(Recorder::for_worker(0));
        let traced = scan.check_with_sink(
            &mut model,
            &bank,
            &schedule,
            &h,
            &[1, 2, 3, 4],
            0,
            &mut meter,
            &mut rec,
        );
        let events = rec.unwrap().into_events();
        assert_eq!(events.len(), 1);
        let fb = scan.feedback()[0];
        match events[0].kind {
            specee_obs::EventKind::ExitDecision {
                class,
                layer,
                score,
                threshold,
                accepted,
            } => {
                assert_eq!(class, 2);
                assert_eq!(layer as usize, fb.layer);
                assert_eq!(score, f64::from(fb.score));
                assert_eq!(threshold, f64::from(fb.threshold));
                assert_eq!(accepted, fb.accepted);
                assert_eq!(accepted, traced.is_some());
            }
            ref other => panic!("expected an exit decision, got {other:?}"),
        }

        // Same inputs through the untraced path: identical outcome.
        let mut model2 = parts().0;
        let mut scan2 = ExitScan::new();
        scan2.set_class(TrafficClass::new(2));
        scan2.begin_token();
        let h2 = prefill(&mut model2, &[3], &mut Meter::new());
        let untraced = scan2.check_with_sink(
            &mut model2,
            &bank,
            &schedule,
            &h2,
            &[1, 2, 3, 4],
            0,
            &mut Meter::new(),
            &mut None,
        );
        assert_eq!(traced.map(|(t, _)| t), untraced.map(|(t, _)| t));
    }

    #[test]
    fn negative_prediction_emits_no_feedback() {
        let (mut model, mut bank, mut meter) = parts();
        bank.layer_mut(0).set_threshold(1.0); // sigmoid never exceeds 1
        let schedule = ScheduleEngine::all_layers(4);
        let h = prefill(&mut model, &[2], &mut meter);
        let mut scan = ExitScan::new();
        scan.begin_token();
        assert!(scan
            .check_with_sink(
                &mut model,
                &bank,
                &schedule,
                &h,
                &[1, 2, 3, 4],
                0,
                &mut meter,
                &mut None
            )
            .is_none());
        assert_eq!(scan.predictor_calls(), 1);
        assert_eq!(scan.verify_calls(), 0);
        assert!(scan.feedback().is_empty());
    }

    #[test]
    fn failed_verification_counts_and_continues() {
        let (mut model, mut bank, mut meter) = parts();
        bank.layer_mut(0).set_threshold(0.0);
        let schedule = ScheduleEngine::all_layers(4);
        let h = prefill(&mut model, &[3], &mut meter);
        let full = model.final_logits(&h, &mut meter);
        let global = specee_tensor::ops::argmax(&full).unwrap() as TokenId;
        // Candidate set avoiding the global argmax: verification rejects.
        let wrong: Vec<TokenId> = (0..8).filter(|&t| t != global).take(4).collect();
        let mut scan = ExitScan::new();
        scan.begin_token();
        let out = scan.check_with_sink(
            &mut model, &bank, &schedule, &h, &wrong, 0, &mut meter, &mut None,
        );
        assert!(out.is_none());
        assert_eq!(scan.verify_calls(), 1);
        assert_eq!(scan.predictor_calls(), 1);
    }
}
