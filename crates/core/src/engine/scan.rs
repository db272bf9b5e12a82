//! The per-token exit scan and the one lock-step sweep that drives it.
//!
//! [`ExitScan`] bundles the layer-by-layer decision dataflow of Fig. 3 —
//! consult the predictor schedule, extract candidate-slice features, score
//! them, and verify a positive prediction against the full LM head — in
//! two halves per layer: `ExitScan::score` at the caller's threshold, then
//! `ExitScan::settle` against the full head's row. [`sweep`] is their only
//! caller: it runs one token per seat through the layers in lock-step —
//! one [`LayeredLm::forward_layer_group`] per layer, every seat's score,
//! one [`LayeredLm::final_logits_group`] for the seats that fired, each
//! seat's settle — then fills what the exits skipped and reads the last
//! head. `SpecEeEngine` sweeps a seat count of one at the bank's own
//! thresholds; `specee-batch` sweeps every seated sequence at its
//! controller's. So a batched sequence takes exactly the exits its
//! single-stream run would (parity by construction, not by test alone).
//!
//! A round here is one token, [`crate::engine::Round`] with the layers it
//! ran; a tree's round, EAGLE / T3 / self-draft, is the sibling sweep of
//! [`crate::engine::selfdraft`]. Both commit to a
//! [`crate::engine::Transcript`] alike, in `generate_rounds` and the
//! batched step.

use specee_metrics::Meter;
use specee_model::{LayeredLm, SkipKvPolicy, TokenId};
use specee_obs::{EventKind, Recorder};
use specee_tensor::ops;

use crate::engine::decode::{pick, Round};
use crate::features::FeatureTracker;
use crate::predictor::{ExitPredictor, PredictorBank};
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
/// A sequence keeps one for its whole request; [`sweep`] drives it —
/// starts it at each token, scores after every executed layer and settles
/// each fire, until one stands (or the stack runs out of layers). Every
/// predictor fire additionally records an [`ExitFeedback`] event; runtimes
/// that adapt thresholds online drain them with [`ExitScan::take_feedback`].
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

    /// Starts a new token: clears the probability-variation history the
    /// feature tracker carries between layers, and discards any feedback
    /// events the previous token's consumer left undrained — so a run
    /// with no controller attached never accumulates more than one
    /// token's worth of events.
    fn begin_token(&mut self) {
        self.tracker.reset();
        self.feedback.clear();
    }

    /// The first half of the decision after `layer`, on its output `h`:
    /// schedule gate → candidate-slice features → predictor, whose score
    /// fires above `threshold(predictor)` (the caller's operating point;
    /// [`ExitPredictor::threshold`] is the bank's own). Returns the `(score,
    /// threshold)` of a fire — which the caller owes one full-LM-head row
    /// and a [`ExitScan::settle`] — and `None` when the layer decides
    /// nothing (last layer, inactive schedule slot, no candidates, or a
    /// negative prediction).
    #[allow(clippy::too_many_arguments)]
    fn score<M: LayeredLm + ?Sized>(
        &mut self,
        model: &mut M,
        bank: &PredictorBank,
        schedule: &ScheduleEngine,
        h: &[f32],
        candidates: &[TokenId],
        layer: usize,
        threshold: impl FnOnce(&ExitPredictor) -> f32,
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
        let threshold = threshold(predictor);
        if !ExitPredictor::fires(score, threshold) {
            return None;
        }
        self.verify_calls += 1;
        Some((score, threshold))
    }

    /// The second half: verifies the fire [`ExitScan::score`] returned
    /// against `full`, the full-LM-head logits of the same hidden state,
    /// and returns them with the token when the exit stands (§4.3.3); a
    /// rejected fire has still cost its head and counts in
    /// [`ExitScan::verify_calls`].
    ///
    /// Every fire records an [`ExitFeedback`] and emits an
    /// [`EventKind::ExitDecision`] to `sink` when a recorder is attached
    /// (same layer/score/threshold/accepted payload, stamped with the
    /// recorder's ambient clock and sequence id). The recorder is
    /// write-only, so a traced scan decides exactly what the untraced scan
    /// decides.
    fn settle(
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

/// One seat of a [`sweep`]: a sequence's model, scan and schedule, and the
/// state its pending token carries from layer to layer.
pub struct Running<'a, M> {
    /// The request id its exit decisions are traced under.
    id: u64,
    model: &'a mut M,
    scan: &'a mut ExitScan,
    schedule: &'a mut ScheduleEngine,
    /// The draft's candidates for the pending token.
    cands: Vec<TokenId>,
    /// The K/V position the pending token occupies.
    pos: usize,
    hidden: Vec<f32>,
    /// The `(score, threshold)` of a predictor fire awaiting its head row.
    fire: Option<(f32, f32)>,
    /// Layers executed, token and full logits of a verified exit; a seat
    /// is in the sweep while this is `None`.
    exit: Option<(usize, TokenId, Vec<f32>)>,
}

impl<'a, M: LayeredLm> Running<'a, M> {
    /// Seats request `id`'s `pending` token, scored against the draft's
    /// `cands`: starts the scan's token and embeds the token at the
    /// model's next K/V position.
    pub fn new(
        id: u64,
        model: &'a mut M,
        scan: &'a mut ExitScan,
        schedule: &'a mut ScheduleEngine,
        cands: Vec<TokenId>,
        pending: TokenId,
        meter: &mut Meter,
    ) -> Self {
        scan.begin_token();
        let pos = model.kv_len();
        let hidden = model.begin_token(pending, meter);
        Running {
            id,
            model,
            scan,
            schedule,
            cands,
            pos,
            hidden,
            fire: None,
            exit: None,
        }
    }
}

/// The member lists of a [`LayeredLm`] group call: the models of the seats
/// `pick` selects, in seat order, with each one's hidden state and K/V
/// position.
fn members<'a, M>(
    running: &'a mut [Running<'_, M>],
    pick: impl Fn(&Running<'_, M>) -> bool,
) -> (Vec<&'a mut M>, Vec<&'a [f32]>, Vec<usize>) {
    let (mut group, mut hs, mut at) = (Vec::new(), Vec::new(), Vec::new());
    for run in running.iter_mut().filter(|run| pick(run)) {
        group.push(&mut *run.model);
        hs.push(run.hidden.as_slice());
        at.push(run.pos);
    }
    (group, hs, at)
}

/// Runs every seat's pending token through the layers in lock-step, each
/// seat making its own scheduled exit decisions, and returns each seat's
/// round in seat order. A round's layers are a prefix of the stack.
///
/// Per layer: one [`LayeredLm::forward_layer_group`] over the seats still
/// in the sweep; every one of them scores its predictor at `threshold(class,
/// layer, predictor)`; the seats that fired share one
/// [`LayeredLm::final_logits_group`], and each settles its own row — a
/// verified exit leaves the sweep, which ends at the rearmost layer anyone
/// still needs. An exit is paid for once per weight pass, not once per
/// seat. Then the seats that left fill the K/V of the layers they skipped
/// from their exit state (one [`LayeredLm::fill_skipped_kv_group`], under
/// `policy`), the rest share one last head, and every seat's schedule
/// notes the layers its token ran. Exit decisions are traced to `trace`
/// under each seat's id.
///
/// The bank covers every non-final layer: the depth is `bank.len() + 1`.
pub fn sweep<M: LayeredLm>(
    mut running: Vec<Running<'_, M>>,
    bank: &PredictorBank,
    threshold: impl Fn(TrafficClass, usize, &ExitPredictor) -> f32,
    policy: SkipKvPolicy,
    meter: &mut Meter,
    trace: &mut Option<Recorder>,
) -> Vec<Round> {
    let n_layers = bank.len() + 1;
    for layer in 0..n_layers {
        let (mut group, hs, at) = members(&mut running, |run| run.exit.is_none());
        if group.is_empty() {
            break;
        }
        let outs = M::forward_layer_group(&mut group, layer, &hs, &at, meter);
        let in_sweep = running.iter_mut().filter(|run| run.exit.is_none());
        for (run, out) in in_sweep.zip(outs) {
            run.hidden = out;
            let class = run.scan.class;
            run.fire = run.scan.score(
                &mut *run.model,
                bank,
                run.schedule,
                &run.hidden,
                &run.cands,
                layer,
                |own| threshold(class, layer, own),
                meter,
            );
        }
        let (mut group, hs, _) = members(&mut running, |run| run.fire.is_some());
        if group.is_empty() {
            continue;
        }
        let rows = M::final_logits_group(&mut group, &hs, meter);
        let fired = running.iter_mut().filter(|run| run.fire.is_some());
        for (run, full) in fired.zip(rows) {
            if let Some(rec) = trace.as_mut() {
                rec.set_seq(Some(run.id));
            }
            let fire = run.fire.take().expect("a fire per row");
            let settled = run.scan.settle(fire, full, &run.cands, layer, trace);
            run.exit = settled.map(|(tok, full)| (layer + 1, tok, full));
        }
    }
    // What the exits owe: every seat that left fills the layers it skipped
    // from its exit state (still its `hidden`), a layer's K/V projections
    // streamed once for all who skipped it; the seats that ran the whole
    // stack share one last head.
    let first_skipped: Vec<usize> = running
        .iter()
        .filter_map(|run| run.exit.as_ref().map(|&(executed, ..)| executed))
        .collect();
    let (mut group, hs, at) = members(&mut running, |run| run.exit.is_some());
    M::fill_skipped_kv_group(&mut group, &first_skipped, &hs, &at, policy, meter);
    let (mut group, hs, _) = members(&mut running, |run| run.exit.is_none());
    let mut last_heads = M::final_logits_group(&mut group, &hs, meter).into_iter();

    running
        .into_iter()
        .map(|run| {
            let (executed, token, full) = run.exit.unwrap_or_else(|| {
                let full = last_heads.next().expect("a head row per full-depth seat");
                (n_layers, pick(&full), full)
            });
            run.schedule.note_exit(executed.saturating_sub(1));
            let emitted = vec![(token, f64::from(ops::nll(&full, token as usize)))];
            Round { emitted, executed }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::PredictorConfig;
    use specee_model::{prefill, ModelConfig, Transformer};
    use specee_tensor::rng::Pcg;

    /// One layer's decision the way [`sweep`] makes it for a seat: score at
    /// the bank's own threshold, the full head on a fire, settle.
    #[allow(clippy::too_many_arguments)]
    fn check(
        scan: &mut ExitScan,
        model: &mut Transformer,
        bank: &PredictorBank,
        schedule: &ScheduleEngine,
        h: &[f32],
        candidates: &[TokenId],
        layer: usize,
        meter: &mut Meter,
        sink: &mut Option<Recorder>,
    ) -> Option<(TokenId, Vec<f32>)> {
        let own = ExitPredictor::threshold;
        let fire = scan.score(model, bank, schedule, h, candidates, layer, own, meter)?;
        let full = model.final_logits(h, meter);
        scan.settle(fire, full, candidates, layer, sink)
    }

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
        let out = check(
            &mut scan,
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
        assert!(check(
            &mut scan,
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
        let _ = check(
            &mut scan,
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
        let out = check(
            &mut scan,
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
        let out = check(
            &mut scan, &mut model, &bank, &schedule, &h, &cands, 0, &mut meter, &mut None,
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
        assert!(check(
            &mut scan, &mut model, &bank, &schedule, &h, &wrong, 0, &mut meter, &mut None
        )
        .is_none());
        assert!(check(
            &mut scan, &mut model, &bank, &schedule, &h, &good, 1, &mut meter, &mut None
        )
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
            let _ = check(
                &mut scan,
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
        assert!(scan.class.is_default());
        scan.set_class(TrafficClass::new(3));
        scan.begin_token();
        let _ = check(
            &mut scan,
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
        let traced = check(
            &mut scan,
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
        let untraced = check(
            &mut scan2,
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
        assert!(check(
            &mut scan,
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
        let out = check(
            &mut scan, &mut model, &bank, &schedule, &h, &wrong, 0, &mut meter, &mut None,
        );
        assert!(out.is_none());
        assert_eq!(scan.verify_calls(), 1);
        assert_eq!(scan.predictor_calls(), 1);
    }
}
