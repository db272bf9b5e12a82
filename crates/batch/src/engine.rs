//! The lock-step batched decoding engine.

use std::collections::BTreeSet;

use specee_control::{ClassEvidence, ClassedController, ControllerSummary};
use specee_core::engine::scan::{sweep, ExitFeedback, ExitScan, Running};
use specee_core::engine::selfdraft::{self_draft_pass, sweep_trees};
use specee_core::engine::{Round, Transcript};
use specee_core::predictor::{ExitPredictor, PredictorBank};
use specee_core::scheduler::ScheduleEngine;
use specee_core::traffic::{Lane, TrafficClass};
use specee_core::SpecEeConfig;
use specee_draft::{SelfDraftSpec, SpeculativeSource};
use specee_metrics::Meter;
use specee_model::{LayeredLm, PageLedger, SlotPool, TokenId};
use specee_obs::{EventKind, Recorder};

/// The finished record of one batched sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchedOutput {
    /// Caller-chosen sequence id (e.g. the serving request index).
    pub id: u64,
    /// Traffic class the sequence was admitted under
    /// ([`TrafficClass::DEFAULT`] for untagged traffic).
    pub class: TrafficClass,
    /// Emitted tokens (the prefill token first).
    pub tokens: Vec<TokenId>,
    /// Decoder layers executed per emitted token.
    pub exit_layers: Vec<usize>,
    /// Sum of `-log p(token)` under the model's final distribution.
    pub ce_sum: f64,
    /// Predictor forwards this sequence executed.
    pub predictor_calls: u64,
    /// Full-LM-head verification calls this sequence triggered.
    pub verify_calls: u64,
    /// Separate-draft-model forwards this sequence executed (token syncs
    /// plus tree expansions); zero under self-draft.
    pub draft_calls: u64,
    /// Shallow (node × layer) runs of the target's own layers this
    /// sequence executed while self-drafting; zero with a separate
    /// draft model.
    pub self_draft_calls: u64,
}

impl BatchedOutput {
    /// Mean executed layers per token.
    pub fn avg_layers(&self) -> f64 {
        if self.exit_layers.is_empty() {
            0.0
        } else {
            self.exit_layers.iter().sum::<usize>() as f64 / self.exit_layers.len() as f64
        }
    }
}

/// Outcome of admitting a request into the engine.
#[derive(Debug)]
pub enum Admission {
    /// The sequence occupies a slot and will decode on subsequent steps.
    Seated {
        /// The slot index it was seated in.
        slot: usize,
    },
    /// The request wanted only the prefill token; it finished without
    /// occupying a slot.
    Done(BatchedOutput),
}

/// What one lock-step decode step executed, measured — not assumed — from
/// the live batch. Field meanings mirror `specee-serve`'s `StepSpec`, which
/// the serving loop fills from this report to price the step.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchStep {
    /// `layer_runners[l]` = slots that executed layer `l` this step.
    pub layer_runners: Vec<usize>,
    /// KV positions attended per active slot this step.
    pub ctx_lens: Vec<usize>,
    /// Full-LM-head evaluations this step (final logits + verifications,
    /// successful or not).
    pub lm_head_evals: u64,
    /// Slots whose draft source proposed candidates this step (every
    /// active slot, unless the source is `specee_draft::NoDraft`).
    pub draft_slots: usize,
    /// Slots that drafted through their own shallow layers this step
    /// (self-draft mode; zero on separate-draft steps).
    pub self_draft_slots: usize,
    /// Predictor forwards this step.
    pub predictor_calls: u64,
    /// Tokens emitted this step.
    pub emitted: usize,
    /// Sequences that finished this step (retired from their slots).
    pub finished: Vec<BatchedOutput>,
    /// The verifier accept/reject stream this step produced, in slot
    /// order (one event per predictor fire — the raw material of
    /// closed-loop threshold control).
    pub feedback: Vec<ExitFeedback>,
}

impl BatchStep {
    /// A step that has executed nothing yet on an `n_layers`-deep stack.
    fn empty(n_layers: usize) -> Self {
        BatchStep {
            layer_runners: vec![0; n_layers],
            ctx_lens: Vec::new(),
            lm_head_evals: 0,
            draft_slots: 0,
            self_draft_slots: 0,
            predictor_calls: 0,
            emitted: 0,
            finished: Vec::new(),
            feedback: Vec::new(),
        }
    }

    /// The rearmost layer any slot executed (the Cannikin position of the
    /// step): `0` when the step ran nothing.
    pub fn rearmost_layer(&self) -> usize {
        self.layer_runners
            .iter()
            .rposition(|&r| r > 0)
            .map_or(0, |l| l + 1)
    }
}

/// Records one engine event under `seq` when a recorder is attached;
/// `kind` builds the payload only then.
fn trace_event(trace: &mut Option<Recorder>, seq: Option<u64>, kind: impl FnOnce() -> EventKind) {
    if let Some(rec) = trace.as_mut() {
        rec.set_seq(seq);
        rec.record(kind());
    }
}

/// The threshold `class`'s score fires at after `layer`, whose predictor
/// is `own`: the controller's operating point, or the bank's own where it
/// answers `None` (or none is attached).
fn fire_threshold(
    ctl: Option<&ClassedController>,
    own: &ExitPredictor,
    class: TrafficClass,
    layer: usize,
) -> f32 {
    ctl.and_then(|ctl| ctl.fires_at(class, layer))
        .unwrap_or(own.threshold())
}

struct SeqState<D> {
    id: u64,
    class: TrafficClass,
    lane: Lane,
    draft: D,
    schedule: ScheduleEngine,
    scan: ExitScan,
    log: Transcript,
    /// The draft source's forward-call counter at admission, so the
    /// output reports only this sequence's own draft work.
    draft_calls_base: u64,
    /// Shallow (node × layer) target runs accumulated while
    /// self-drafting.
    self_draft_calls: u64,
    /// Verified self-draft rounds (one full-LM-head tree verification
    /// each).
    self_draft_rounds: u64,
}

impl<D: SpeculativeSource> SeqState<D> {
    fn into_output(self) -> BatchedOutput {
        let (tokens, exit_layers, ce_sum) = self.log.finish();
        BatchedOutput {
            id: self.id,
            class: self.class,
            tokens,
            exit_layers,
            ce_sum,
            predictor_calls: self.scan.predictor_calls(),
            verify_calls: self.scan.verify_calls() + self.self_draft_rounds,
            draft_calls: self
                .draft
                .forward_calls()
                .saturating_sub(self.draft_calls_base),
            self_draft_calls: self.self_draft_calls,
        }
    }

    /// The most tokens one decode step can commit for this sequence: one
    /// for a plain step, `1 + tree depth` for a self-draft step.
    fn step_growth(&self) -> usize {
        let depth = |spec: &SelfDraftSpec| spec.shape.branching().len();
        1 + self.draft.self_spec().map_or(0, depth)
    }
}

/// One slot's record: the sequence's model (its committed K/V; the
/// weights stay shared with every other sequence) and its generation
/// state. A sequence evicted under KV page pressure is the same record,
/// off the slot vector: parked whole, so re-seating leases fresh pages
/// and continues bit-identically.
struct Seat<M, D> {
    model: M,
    seq: SeqState<D>,
}

/// A live batched decoding runtime: up to `max_batch` sequences decode in
/// lock-step through the real layer stack, each making its own scheduled
/// predictor decisions (core's [`sweep`], which the single-stream
/// `SpecEeEngine` runs at a seat count of one), firing independently,
/// while the batch as a whole executes every layer down to the rearmost
/// one still needed.
///
/// The per-step [`BatchStep`] report carries the measured layer-runner
/// counts, so batched pricing reflects exits that actually happened.
///
/// # Examples
///
/// ```
/// use specee_batch::{Admission, BatchedEngine};
/// use specee_control::ControllerPolicy;
/// use specee_core::predictor::{PredictorBank, PredictorConfig};
/// use specee_core::{ScheduleEngine, SpecEeConfig};
/// use specee_model::ModelConfig;
/// use specee_synth::{DatasetProfile, OracleDraft, SyntheticLmBuilder};
/// use specee_tensor::rng::Pcg;
///
/// let cfg = ModelConfig { n_layers: 8, ..ModelConfig::tiny() };
/// let pcfg = PredictorConfig { hidden_dim: 16, ..PredictorConfig::default() };
/// let bank = PredictorBank::new(8, &pcfg, &mut Pcg::seed(1));
/// let config = SpecEeConfig { predictor: pcfg, ..SpecEeConfig::default() };
/// let mut engine =
///     BatchedEngine::new(2, 16, 8, bank, ScheduleEngine::all_layers(8), config);
/// // Optional: close the threshold loop with an online controller
/// // (state keyed by traffic class; untagged traffic uses the default
/// // class).
/// engine.set_controller(ControllerPolicy::pid().build_classed(7, 0.5));
///
/// for id in 0..2u64 {
///     let lm = SyntheticLmBuilder::new(cfg.clone(), DatasetProfile::qa())
///         .seed(3)
///         .build();
///     let draft = OracleDraft::new(*lm.language(), 0.9, &cfg, id);
///     assert!(matches!(
///         engine.admit(id, lm, draft, &[1, 2, 3], 5),
///         Admission::Seated { .. }
///     ));
/// }
/// let outputs = engine.drain(); // lock-step decode to completion
/// assert_eq!(outputs.len(), 2);
/// assert!(outputs.iter().all(|o| o.tokens.len() == 5));
/// let summary = engine.controller_summary().expect("controller attached");
/// assert_eq!(summary.tokens, 8, "4 decode-step tokens per sequence");
/// ```
pub struct BatchedEngine<M, D> {
    /// `seats[slot]`: the sequence decoding in that slot, if any.
    seats: Vec<Option<Seat<M, D>>>,
    /// The seated sequences' KV page accounting, slot by slot: a lease
    /// exactly where `seats` holds a sequence.
    ledger: PageLedger,
    /// The predictors every class scores with: weights and the trained
    /// thresholds a class fires at where the controller names none.
    bank: PredictorBank,
    /// The default class and every class admitted so far: the classes
    /// whose operating point the trace reports at each step boundary.
    classes: BTreeSet<TrafficClass>,
    schedule_template: ScheduleEngine,
    config: SpecEeConfig,
    n_layers: usize,
    meter: Meter,
    controller: Option<ClassedController>,
    /// Compute backend stamped onto every model at admission; `None`
    /// keeps each model's own.
    backend: Option<specee_tensor::BackendKind>,
    /// Optional trace recorder (None = tracing disabled, zero cost).
    /// The engine has no clock of its own — whoever owns the simulated
    /// clock (the live batcher, a cluster worker) sets it via
    /// [`BatchedEngine::recorder_mut`] before each step.
    trace: Option<Recorder>,
    /// Sequences evicted under page pressure, awaiting re-admission.
    parked: Vec<Seat<M, D>>,
    /// Whether page pressure may evict residents (off = the pre-paged
    /// behaviour: exhaustion panics in the pool).
    preempt_enabled: bool,
    /// Evictions performed so far.
    preemptions: u64,
    /// Parked sequences re-seated so far.
    resumes: u64,
    /// Prompt tokens admission adopted from a resident instead of
    /// prefilling.
    prefix_tokens_reused: u64,
}

impl<M: LayeredLm, D: SpeculativeSource> BatchedEngine<M, D> {
    /// Creates an empty engine.
    ///
    /// `schedule` is the per-sequence scheduling template: every admitted
    /// sequence starts from a fresh clone of it, since the online window
    /// (T2) tracks one sequence's recent exits, not the batch's.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` or `page_size` is zero, or the bank does not
    /// cover `n_layers - 1` layers.
    pub fn new(
        max_batch: usize,
        page_size: usize,
        n_layers: usize,
        bank: PredictorBank,
        schedule: ScheduleEngine,
        config: SpecEeConfig,
    ) -> Self {
        assert_eq!(
            bank.len(),
            n_layers - 1,
            "one predictor per non-final layer"
        );
        BatchedEngine {
            seats: (0..max_batch).map(|_| None).collect(),
            ledger: PageLedger::new(max_batch, page_size),
            bank,
            classes: BTreeSet::from([TrafficClass::DEFAULT]),
            schedule_template: schedule,
            config,
            n_layers,
            meter: Meter::new(),
            controller: None,
            backend: None,
            trace: None,
            parked: Vec::new(),
            preempt_enabled: false,
            preemptions: 0,
            resumes: 0,
            prefix_tokens_reused: 0,
        }
    }

    /// Caps the KV page pool at `capacity` physical pages (`None` lifts
    /// the cap). With preemption enabled, page pressure against this cap
    /// evicts the lowest-priority resident; without it, exhaustion
    /// panics.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is `Some(0)`.
    pub fn set_page_capacity(&mut self, capacity: Option<usize>) {
        self.ledger.set_capacity(capacity);
    }

    /// Turns copy-on-write prefix sharing on or off: subsequent
    /// admissions match the prompt against resident prefixes and
    /// co-lease matching pages instead of allocating.
    ///
    /// # Panics
    ///
    /// Panics if any slot is occupied.
    pub fn enable_prefix_share(&mut self, on: bool) {
        self.ledger.enable_prefix_share(on);
    }

    /// Enables (or disables) preemption under page pressure: when the
    /// next step's page demand exceeds the pool's free capacity, the
    /// engine evicts the lowest-priority resident — pages recycled,
    /// generation state parked — and re-seats it once pages free up,
    /// resuming bit-identically.
    pub fn set_preemption_enabled(&mut self, on: bool) {
        self.preempt_enabled = on;
    }

    /// Attaches (or detaches) a trace recorder. Subsequent steps emit
    /// exit-decision events (per predictor fire, stamped with the
    /// sequence id), controller-apply events (per class, at each step
    /// boundary a controller is attached) and gossip events. The
    /// recorder is write-only — traced and untraced runs decode
    /// bit-identically — and with `None` (the default) the whole plane
    /// costs one discriminant test per step.
    pub fn set_recorder(&mut self, recorder: Option<Recorder>) {
        self.trace = recorder;
    }

    /// The attached recorder, for clock/context stamping by the layer
    /// that owns the simulated clock.
    pub fn recorder_mut(&mut self) -> Option<&mut Recorder> {
        self.trace.as_mut()
    }

    /// Takes the recorder (and its events) back out of the engine.
    pub fn take_recorder(&mut self) -> Option<Recorder> {
        self.trace.take()
    }

    /// Selects the compute backend stamped onto every model at admission
    /// (already-seated sequences keep the backend they were admitted
    /// with). Until this is called, admission leaves each model's own
    /// backend in place. The blocked backend is bit-identical to the
    /// reference scalar one on dense weights.
    pub fn set_backend(&mut self, backend: specee_tensor::BackendKind) {
        self.backend = Some(backend);
    }

    /// Attaches a traffic-class-keyed closed-loop threshold controller.
    /// Every score a seat's scan compares fires at the threshold the
    /// controller names for the seat's `(class, layer)`
    /// ([`ClassedController::fires_at`]; the bank's own where it names
    /// none). After every decode step the engine drains each seated
    /// sequence's verifier accept/reject events and emitted-token depths
    /// **per class in slot order** (classes ascend, slots ascend within a
    /// class — a deterministic trajectory). The controller changes only
    /// between steps — from that feed, gossip, or SLO pressure pushed
    /// through [`BatchedEngine::controller_mut`] — so a change takes
    /// effect at the next step, never mid-scan. Attaching the `static`
    /// policy is bit-identical to attaching none.
    pub fn set_controller(&mut self, controller: ClassedController) {
        self.controller = Some(controller);
    }

    /// The attached controller, if any.
    pub fn controller(&self) -> Option<&ClassedController> {
        self.controller.as_ref()
    }

    /// The attached controller, mutably — the serving tier pushes SLO
    /// pressure into it and a cluster worker drains its gossip evidence
    /// between steps. There is no copy to refresh: the next step reads it.
    pub fn controller_mut(&mut self) -> Option<&mut ClassedController> {
        self.controller.as_mut()
    }

    /// The attached controller's merged state, if one is attached.
    pub fn controller_summary(&self) -> Option<ControllerSummary> {
        self.controller().map(ClassedController::summary)
    }

    /// Absorbs merged remote evidence (cross-worker gossip) into the
    /// controller, which the next step reads, and traces the delivery. A
    /// no-op without a controller; the static policy ignores evidence, so
    /// parity runs are untouched.
    pub fn absorb_gossip(&mut self, evidence: &[ClassEvidence]) {
        let Some(ctl) = self.controller.as_mut() else {
            return;
        };
        for delta in evidence {
            ctl.absorb(delta);
        }
        if !evidence.is_empty() {
            trace_event(&mut self.trace, None, || EventKind::Gossip {
                classes: evidence.len() as u32,
                tokens: evidence.iter().map(|e| e.tokens).sum(),
            });
        }
    }

    /// The batch cap.
    pub fn max_batch(&self) -> usize {
        self.seats.len()
    }

    /// Decoder depth the engine drives.
    pub fn n_layers(&self) -> usize {
        self.n_layers
    }

    /// Occupied slots.
    pub fn occupancy(&self) -> usize {
        self.seats.iter().flatten().count()
    }

    /// Whether a new sequence can be admitted.
    pub fn has_free_slot(&self) -> bool {
        self.seats.iter().any(Option::is_none)
    }

    /// The engine-wide op trace (prefills excluded, like the single-stream
    /// engines).
    pub fn meter(&self) -> &Meter {
        &self.meter
    }

    /// The shared KV page pool.
    pub fn pool(&self) -> &SlotPool {
        self.ledger.pool()
    }

    /// Admits an untagged sequence on the default lane — see
    /// [`BatchedEngine::admit_laned`].
    pub fn admit(
        &mut self,
        id: u64,
        model: M,
        draft: D,
        prompt: &[TokenId],
        gen_len: usize,
    ) -> Admission {
        let (class, lane) = (TrafficClass::DEFAULT, Lane::DEFAULT);
        self.admit_laned(id, class, lane, model, draft, prompt, gen_len)
    }

    /// Admits a sequence tagged with a traffic class and a priority lane:
    /// resets the model and draft, prefills the prompt (producing the
    /// first token at full depth, as the single-stream engines do), and
    /// seats it in the lowest free slot. A `gen_len` of one finishes
    /// immediately without occupying a slot.
    ///
    /// The class keys the feedback plane: the sequence's exit scans fire
    /// at the class's thresholds, its feedback events carry the class,
    /// and an attached controller steers the class's thresholds
    /// independently of every other class's (a class's first admission
    /// opens its controller state).
    ///
    /// The lane orders the memory plane: under page pressure the engine
    /// evicts the highest-lane (lowest-priority) resident first, and
    /// parked sequences re-seat in ascending lane order. With prefix
    /// sharing enabled the prompt is matched against resident prefixes
    /// and matching pages are co-leased copy-on-write instead of
    /// allocated; their K/V is copied from a resident that holds it when
    /// the model can show the copy equals its own prefill
    /// ([`LayeredLm::adopt_prefix`]), and only the rest is prefilled.
    ///
    /// # Panics
    ///
    /// Panics if no slot is free (check [`BatchedEngine::has_free_slot`]),
    /// `prompt` is empty, `gen_len` is zero, the model's depth does not
    /// match the engine's, or the page pool cannot cover the prompt (gate
    /// with [`BatchedEngine::make_room`] first).
    #[allow(clippy::too_many_arguments)]
    pub fn admit_laned(
        &mut self,
        id: u64,
        class: TrafficClass,
        lane: Lane,
        mut model: M,
        mut draft: D,
        prompt: &[TokenId],
        gen_len: usize,
    ) -> Admission {
        assert!(self.has_free_slot(), "no free slot");
        assert_eq!(model.config().n_layers, self.n_layers, "model depth");
        // The default class is in `classes` from the start, so it is never
        // opened here: it fires at the bank's own until its first feedback.
        if self.classes.insert(class) {
            if let Some(ctl) = self.controller.as_mut() {
                ctl.open(class);
            }
        }
        model.reset();
        if let Some(backend) = self.backend {
            model.set_backend(backend);
        }
        draft.reset();
        if let Some(spec) = draft.self_spec() {
            if let Err(e) = spec.validate_for_depth(self.n_layers) {
                panic!("{e}");
            }
        }
        let draft_calls_base = draft.forward_calls();
        // What a resident has already prefilled is copied, not recomputed —
        // all but the last prompt token, whose hidden state feeds the head.
        let mut reused = 0;
        if let Some((slot, tokens)) = self.ledger.donor(prompt) {
            let donor = self.seats[slot].as_ref().expect("a lease per seat");
            let shared = &prompt[..tokens.min(prompt.len() - 1)];
            if model.adopt_prefix(&donor.model, shared) {
                reused = shared.len();
            }
        }
        self.prefix_tokens_reused += reused as u64;
        let log = Transcript::start(&mut model, prompt, reused, gen_len, &mut self.meter);

        let mut scan = ExitScan::new();
        scan.set_class(class);
        let seq = SeqState {
            id,
            class,
            lane,
            draft,
            schedule: self.schedule_template.clone(),
            scan,
            log,
            draft_calls_base,
            self_draft_calls: 0,
            self_draft_rounds: 0,
        };
        if seq.log.done() {
            return Admission::Done(seq.into_output());
        }
        let slot = self.seat(Seat { model, seq }, Some(prompt));
        Admission::Seated { slot }
    }

    /// Puts `seat` in the lowest free slot and leases pages for the K/V
    /// its model has committed — matched against and registered with the
    /// prefix index under `prompt` (an admission), all private without one
    /// (a parked sequence coming back).
    fn seat(&mut self, seat: Seat<M, D>, prompt: Option<&[TokenId]>) -> usize {
        let free = self.seats.iter().position(Option::is_none);
        let slot = free.expect("no free slot");
        self.ledger.lease(slot, seat.model.kv_len(), prompt);
        self.seats[slot] = Some(seat);
        slot
    }

    /// The occupied slots and their seats, in slot order.
    fn seated(&self) -> impl Iterator<Item = (usize, &Seat<M, D>)> {
        let slots = self.seats.iter().enumerate();
        slots.filter_map(|(slot, seat)| Some((slot, seat.as_ref()?)))
    }

    /// Empties `slot`: its pages (and prefix registration) go back to the
    /// ledger, its sequence to the caller — finished, cancelled or parked.
    fn unseat(&mut self, slot: usize) -> Seat<M, D> {
        let seat = self.seats[slot].take().expect("seated sequence");
        self.ledger.vacate(slot);
        seat
    }

    /// Fresh physical pages admitting a sequence with this prompt would
    /// allocate (prefix-index matches subtract from the demand). Compare
    /// with the pool's available pages to budget a round of admissions
    /// under a capacity.
    pub fn pages_for_admit(&self, prompt: &[TokenId]) -> usize {
        self.ledger.pages_for_admit(prompt)
    }

    /// Whether a sequence with this prompt can be seated right now: a
    /// slot is free and the pool can cover the fresh pages the prompt
    /// needs (prefix-index matches subtract from the demand).
    fn can_seat(&self, prompt: &[TokenId]) -> bool {
        self.has_free_slot() && self.pages_for_admit(prompt) <= self.pool().available_pages()
    }

    /// Tries to make room for a `lane`-priority admission with this
    /// prompt by evicting strictly lower-priority (higher-lane)
    /// residents, lowest priority first, until a slot is free and the pool
    /// covers the prompt's fresh pages, or no eligible victim remains.
    /// Returns whether the admission now fits. A no-op (returning whether
    /// it fits as things stand) when preemption is disabled.
    pub fn make_room(&mut self, prompt: &[TokenId], lane: Lane) -> bool {
        if !self.preempt_enabled {
            return self.can_seat(prompt);
        }
        while !self.can_seat(prompt) {
            let Some(slot) = self.eviction_victim(Some(lane)) else {
                return false;
            };
            self.preempt_slot(slot);
        }
        true
    }

    /// The slot to evict next: the lowest-priority resident — the max
    /// `(lane, id)` — among those of strictly lower priority than
    /// `above` (among all residents when `None`).
    fn eviction_victim(&self, above: Option<Lane>) -> Option<usize> {
        self.seated()
            .map(|(slot, s)| (s.seq.lane, s.seq.id, slot))
            .filter(|&(lane, _, _)| above.is_none_or(|a| lane > a))
            .max()
            .map(|(_, _, slot)| slot)
    }

    /// Fresh pages the next step could allocate: every seat's lease grown
    /// by the most tokens the step can commit for it (boundary crossings
    /// plus pending copy-on-write copies).
    fn step_page_demand(&self) -> usize {
        let grown = |s: &Seat<M, D>| s.model.kv_len() + s.seq.step_growth();
        self.seated()
            .map(|(slot, s)| self.ledger.demand(slot, grown(s)))
            .sum()
    }

    /// The step boundary of the memory plane: re-seats parked sequences
    /// that fit, then preempts the lowest-priority residents until the
    /// step's worst-case page demand fits the pool's free capacity. Never
    /// preempts the last resident: a single sequence exceeding the cap is
    /// a configuration error and panics in the pool.
    fn open_step(&mut self) {
        self.resume_parked();
        if !(self.preempt_enabled && self.pool().capacity().is_some()) {
            return;
        }
        while self.step_page_demand() > self.pool().available_pages() && self.occupancy() > 1 {
            let slot = self.eviction_victim(None).expect("occupancy > 1");
            self.preempt_slot(slot);
        }
    }

    /// Evicts the seated sequence in `slot`: its pages return to the
    /// pool, its model and generation state park whole, and a
    /// [`EventKind::Preempted`] instant is traced.
    fn preempt_slot(&mut self, slot: usize) {
        let before = self.pool().pages_in_use();
        let seat = self.unseat(slot);
        let freed = before - self.pool().pages_in_use();
        self.preemptions += 1;
        let (request, lane) = (seat.seq.id, seat.seq.lane.id());
        trace_event(&mut self.trace, Some(request), || EventKind::Preempted {
            request,
            lane,
            pages: freed as u32,
        });
        self.parked.push(seat);
    }

    /// Re-seats parked sequences in priority order — ascending (lane,
    /// id) — while a slot is free and the pool covers each one's
    /// committed KV. Called at every step boundary before the sweep.
    fn resume_parked(&mut self) {
        if self.parked.is_empty() {
            return;
        }
        self.parked.sort_by_key(|p| (p.seq.lane, p.seq.id));
        let ps = self.pool().page_size();
        let mut i = 0;
        while i < self.parked.len() {
            let needed = self.parked[i].model.kv_len().div_ceil(ps);
            if self.has_free_slot() && needed <= self.pool().available_pages() {
                let seat = self.parked.remove(i);
                let (request, lane) = (seat.seq.id, seat.seq.lane.id());
                self.seat(seat, None);
                self.resumes += 1;
                trace_event(&mut self.trace, Some(request), || EventKind::Resumed {
                    request,
                    lane,
                });
            } else {
                i += 1;
            }
        }
    }

    /// Evictions performed so far under page pressure.
    pub fn preemptions(&self) -> u64 {
        self.preemptions
    }

    /// Parked sequences re-seated so far.
    pub fn resumes(&self) -> u64 {
        self.resumes
    }

    /// Prompt tokens whose K/V admission copied from a resident sequence
    /// sharing the prefix ([`LayeredLm::adopt_prefix`]) instead of
    /// prefilling — `0` without prefix sharing, or when the models handed
    /// in share no weights (build one template and clone it).
    pub fn prefix_tokens_reused(&self) -> u64 {
        self.prefix_tokens_reused
    }

    /// Sequences currently parked awaiting re-admission.
    pub fn parked(&self) -> usize {
        self.parked.len()
    }

    /// The page pool's occupancy/sharing/peak statistics.
    pub fn kv_stats(&self) -> specee_model::KvStats {
        self.pool().stats()
    }

    /// Whether this batch decodes by self-draft tree verification. The
    /// whole batch — parked sequences included — must agree, because a
    /// step produces every seat's round one way: a token through the exit
    /// scan, or a tree through the verify sweep.
    fn self_drafting(&self) -> bool {
        let everyone = || self.seats.iter().flatten().chain(&self.parked);
        let is_self = |s: &Seat<M, D>| s.seq.draft.self_spec().is_some();
        let any = everyone().any(is_self);
        assert!(
            !any || everyone().all(is_self),
            "self-draft sequences cannot share a batch with \
             separate-draft sequences"
        );
        any
    }

    /// Runs one synchronized decode step: opens it at the memory plane's
    /// boundary, lets every seated sequence produce its [`Round`] in
    /// lock-step, commits each round to the sequence's [`Transcript`],
    /// retires the finished and closes the step.
    ///
    /// A round is one token through the exit scan: every sequence proposes
    /// its candidates, and core's lock-step [`sweep`] runs every pending
    /// token through the layers — one weight pass per layer over the seats
    /// still running, each seat scoring at its class's controller threshold,
    /// one shared head for the seats that fired, each settling its own row —
    /// to the rearmost layer anyone still needs, then fills what the exits
    /// skipped and reads the last head. In a self-draft batch a round is a
    /// tree: per seat a shallow draft pass, then core's lock-step
    /// [`sweep_trees`] of the deep layers and a split commit — up to
    /// `1 + tree depth` tokens.
    ///
    /// Returns the measured step — an empty report (no runners, nothing
    /// emitted) when no sequence is seated.
    pub fn step(&mut self) -> BatchStep {
        let trees = self.self_drafting();
        self.open_step();
        let mut report = BatchStep::empty(self.n_layers);
        if self.occupancy() == 0 {
            return report;
        }
        let rounds = if trees {
            self.tree_rounds(&mut report)
        } else {
            self.token_rounds(&mut report)
        };
        for (slot, round) in rounds {
            report.emitted += round.emitted.len();
            let log = &mut self.seats[slot].as_mut().expect("a round per seat").seq.log;
            log.commit(round, &mut self.meter);
            if log.done() {
                report.finished.push(self.unseat(slot).seq.into_output());
            }
        }
        self.close_step();
        report
    }

    /// Every seat's round of a plain step, in slot order: one token
    /// through core's [`sweep`], at the thresholds the controller names.
    /// What is batch-specific stays here: the proposals, the step report's
    /// counters, and the scans' feedback into the report and, with a
    /// controller attached, into the controller per class.
    fn token_rounds(&mut self, report: &mut BatchStep) -> Vec<(usize, Round)> {
        let spec_k = self.config.predictor.spec_k;

        // Token setup per seated sequence, in slot order: draft proposal,
        // then its seat in the sweep.
        let (mut slots, mut running) = (Vec::new(), Vec::new());
        let meter = &mut self.meter;
        for (slot, seat) in self.seats.iter_mut().enumerate() {
            let Some(Seat { model, seq }) = seat else {
                continue;
            };
            let cands = seq.draft.propose(seq.log.ctx(), spec_k, meter);
            report.ctx_lens.push(model.kv_len() + 1);
            report.draft_slots += usize::from(!cands.is_empty());
            slots.push((slot, seq.scan.predictor_calls(), seq.scan.verify_calls()));
            let (id, pending) = (seq.id, seq.log.pending());
            let (scan, schedule) = (&mut seq.scan, &mut seq.schedule);
            let seat = Running::new(id, model, scan, schedule, cands, pending, meter);
            running.push(seat);
        }
        let ctl = self.controller.as_ref();
        let threshold = |class, layer, own: &ExitPredictor| fire_threshold(ctl, own, class, layer);
        let policy = self.config.skip_kv_policy;
        let (bank, trace) = (&self.bank, &mut self.trace);
        let rounds = sweep(running, bank, threshold, policy, meter, trace);

        // One token per sequence. Feedback is collected here in slot order
        // and handed to the controller afterwards, grouped by class.
        let mut drained: Vec<(TrafficClass, Vec<ExitFeedback>, usize)> = Vec::new();
        let mut slot_rounds = Vec::new();
        for ((slot, p0, v0), round) in slots.into_iter().zip(rounds) {
            let seq = &mut self.seats[slot].as_mut().expect("a seat per round").seq;
            for runner in report.layer_runners.iter_mut().take(round.executed) {
                *runner += 1;
            }
            // A full-depth token read the last head; an exit read its own
            // on the fire that stood, counted with the scan's verify calls.
            report.lm_head_evals += u64::from(round.executed == self.n_layers);
            report.predictor_calls += seq.scan.predictor_calls() - p0;
            report.lm_head_evals += seq.scan.verify_calls() - v0;
            // Drain this sequence's verifier outcomes. The step report
            // carries them in slot order; with a controller attached the
            // events are additionally retained for the per-class feed
            // below (without one, they move straight into the report).
            let feedback = seq.scan.take_feedback();
            if self.controller.is_some() {
                report.feedback.extend(feedback.iter().copied());
                drained.push((seq.class, feedback, round.executed));
            } else {
                report.feedback.extend(feedback);
            }
            slot_rounds.push((slot, round));
        }
        // Close the loop: feed the controller per class in slot order
        // (classes ascend; the stable sort keeps slot order within each
        // class). The next step's scans read what it moved to.
        if let Some(ctl) = self.controller.as_mut() {
            drained.sort_by_key(|(class, _, _)| *class);
            for (class, feedback, executed) in &drained {
                for event in feedback {
                    ctl.observe(event);
                }
                ctl.note_token(*class, *executed, self.n_layers);
            }
            // Trace the operating point now in force: one controller-apply
            // event per class per step boundary, so a trace shows the
            // threshold trajectory the run decoded under.
            let (ctl, bank) = (Some(&*ctl), &self.bank);
            for &class in &self.classes {
                trace_event(&mut self.trace, None, || EventKind::ControllerApply {
                    class: class.id(),
                    threshold: (0..bank.len())
                        .map(|l| f64::from(fire_threshold(ctl, bank.layer(l), class, l)))
                        .sum::<f64>()
                        / bank.len().max(1) as f64,
                });
            }
        }
        slot_rounds
    }

    /// Every seat's round of a self-draft step, in slot order: its tree
    /// drafted through its own model's shallow layers (sequence-local —
    /// each tree grows inside its own K/V scratch), then core's lock-step
    /// [`sweep_trees`] over every tree, a tree joining at its own exit
    /// layer, each one verified and split-committed: shallow layers from the
    /// draft-pass scratch (committed, never recomputed), deep layers from
    /// the sweep. Rejected branches leave no pool residue.
    fn tree_rounds(&mut self, report: &mut BatchStep) -> Vec<(usize, Round)> {
        let mut trees = Vec::new();
        for (slot, seat) in self.seats.iter_mut().enumerate() {
            let Some(seat) = seat else { continue };
            let Seat { model, seq } = &mut *seat;
            let spec = seq.draft.self_spec().expect("a self-draft batch");
            report.ctx_lens.push(model.kv_len() + 1);
            let pass = self_draft_pass(model, seq.log.pending(), spec, &mut self.meter);
            seq.self_draft_calls += pass.shallow_calls;
            trace_event(&mut self.trace, Some(seq.id), || EventKind::DraftPass {
                nodes: pass.node_tokens.len() as u32,
                exit_layer: spec.exit_layer as u32,
            });
            report.self_draft_slots += 1;
            trees.push((slot, seat, pass));
        }
        let seats = trees
            .iter_mut()
            .map(|(_, s, p)| (&mut s.model, p))
            .collect();
        let policy = self.config.skip_kv_policy;
        let rounds = sweep_trees(seats, None, policy, &mut self.meter);

        // Every seat ran the whole stack, shallow and deep layers alike: the
        // Cannikin price of the step is measured, not assumed.
        let mut slot_rounds = Vec::new();
        for ((slot, Seat { seq, .. }, pass), round) in trees.into_iter().zip(rounds) {
            report.layer_runners.iter_mut().for_each(|r| *r += 1);
            report.lm_head_evals += 1;
            seq.self_draft_rounds += 1;
            trace_event(&mut self.trace, Some(seq.id), || EventKind::TreeVerified {
                nodes: pass.node_tokens.len() as u32,
                accepted: round.emitted.len() as u32,
            });
            slot_rounds.push((slot, round));
        }
        slot_rounds
    }

    /// Closes a decode step at its boundary: settles the page leases,
    /// samples page pressure into the trace and counts the step.
    fn close_step(&mut self) {
        // Every lease catches up with its model's committed K/V, in slot
        // order: new pages as sequences grew, a copy-on-write copy of any
        // shared page the growth wrote into.
        for (slot, seat) in self.seats.iter().enumerate() {
            if let Some(seat) = seat {
                self.ledger.grow(slot, seat.model.kv_len());
            }
        }
        // Sample page pressure at the boundary, but only when the memory
        // plane is actually configured (a capacity, prefix sharing, or a
        // parked backlog) — plain runs keep their exact event streams.
        if self.pool().capacity().is_some()
            || self.ledger.prefix_sharing()
            || !self.parked.is_empty()
        {
            let (pool, parked) = (self.ledger.pool(), self.parked.len() as u32);
            trace_event(&mut self.trace, None, || {
                let stats = pool.stats();
                EventKind::KvPressure {
                    pages: stats.pages_in_use as u32,
                    shared: stats.shared_pages as u32,
                    parked,
                }
            });
        }
        self.meter.mark_host_step();
    }

    /// Cancels the sequence with the given id — seated or parked —
    /// retiring its slot immediately and returning the partial output
    /// decoded so far (the prefill token plus every step it participated
    /// in). Returns `None` when no such sequence carries the id — already
    /// finished, never admitted, or finished at admission — leaving the
    /// engine untouched. The freed slot and its KV pages are recycled
    /// exactly as on normal retirement.
    pub fn cancel(&mut self, id: u64) -> Option<BatchedOutput> {
        if let Some(pos) = self.parked.iter().position(|p| p.seq.id == id) {
            return Some(self.parked.remove(pos).seq.into_output());
        }
        let (slot, _) = self.seated().find(|(_, s)| s.seq.id == id)?;
        Some(self.unseat(slot).seq.into_output())
    }

    /// Runs steps until every seated sequence finishes, returning the
    /// outputs in admission (`id`) order. Convenience for non-serving
    /// callers (tests, examples); servers drive [`BatchedEngine::step`]
    /// themselves to interleave admissions.
    ///
    /// # Panics
    ///
    /// Panics if a parked sequence can never be re-seated (the page
    /// capacity is smaller than its committed KV).
    pub fn drain(&mut self) -> Vec<BatchedOutput> {
        let mut outputs = Vec::new();
        while self.occupancy() > 0 || !self.parked.is_empty() {
            let step = self.step();
            let stuck = step.emitted == 0 && !self.parked.is_empty();
            outputs.extend(step.finished);
            assert!(
                !stuck,
                "page capacity too small to resume a parked sequence"
            );
        }
        outputs.sort_by_key(|o| o.id);
        outputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specee_core::collect::{collect_training_data, train_bank};
    use specee_core::predictor::PredictorConfig;
    use specee_model::ModelConfig;
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

    fn build_draft(lm: &SyntheticLm, seed: u64) -> OracleDraft {
        OracleDraft::new(*lm.language(), 0.9, &cfg(), seed)
    }

    fn trained_parts(seed: u64) -> (PredictorBank, ScheduleEngine, SpecEeConfig) {
        let mut lm = build_lm(seed);
        let mut draft = build_draft(&lm, seed);
        let prompts: Vec<(Vec<TokenId>, usize)> = (0..12)
            .map(|i| (vec![2 + i, 7 + (i % 5), 1 + i], 12usize))
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
            &specee_nn::TrainConfig {
                epochs: 20,
                lr: 3e-3,
                ..Default::default()
            },
            3,
        );
        let config = SpecEeConfig {
            predictor: pcfg,
            ..SpecEeConfig::default()
        };
        let schedule = config.build_schedule(12, Some(&report.exit_frequencies));
        (bank, schedule, config)
    }

    fn engine(max_batch: usize, seed: u64) -> BatchedEngine<SyntheticLm, OracleDraft> {
        let (bank, schedule, config) = trained_parts(seed);
        BatchedEngine::new(max_batch, 16, 12, bank, schedule, config)
    }

    #[test]
    fn single_sequence_decodes_and_exits_early() {
        let mut eng = engine(1, 61);
        let lm = build_lm(61);
        let draft = build_draft(&lm, 61);
        match eng.admit(0, lm, draft, &[4, 2, 9], 16) {
            Admission::Seated { slot } => assert_eq!(slot, 0),
            Admission::Done(_) => panic!("should seat"),
        }
        let outs = eng.drain();
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].tokens.len(), 16);
        assert_eq!(outs[0].exit_layers.len(), 16);
        assert!(outs[0].avg_layers() < 12.0, "avg {}", outs[0].avg_layers());
        assert_eq!(eng.occupancy(), 0);
        assert_eq!(eng.pool().pages_in_use(), 0, "pages recycled on retire");
    }

    #[test]
    fn gen_len_one_finishes_at_prefill() {
        let mut eng = engine(2, 63);
        let lm = build_lm(63);
        let draft = build_draft(&lm, 63);
        match eng.admit(7, lm, draft, &[1, 2], 1) {
            Admission::Done(out) => {
                assert_eq!(out.id, 7);
                assert_eq!(out.tokens.len(), 1);
                assert_eq!(out.exit_layers, vec![12]);
            }
            Admission::Seated { .. } => panic!("gen_len 1 should finish at prefill"),
        }
        assert_eq!(eng.occupancy(), 0);
    }

    #[test]
    fn step_measures_rearmost_layer_and_runners() {
        let mut eng = engine(3, 65);
        for i in 0..3u64 {
            let lm = build_lm(65);
            let draft = build_draft(&lm, 65 ^ i);
            let _ = eng.admit(i, lm, draft, &[3 + i as TokenId, 8, 1 + i as TokenId], 8);
        }
        let step = eng.step();
        assert_eq!(step.emitted, 3);
        assert_eq!(step.draft_slots, 3);
        assert_eq!(step.ctx_lens.len(), 3);
        // Layer runner counts are monotone non-increasing (exits are
        // suffix skips) and the rearmost layer bounds every exit.
        for w in step.layer_runners.windows(2) {
            assert!(w[0] >= w[1], "runners {:?}", step.layer_runners);
        }
        assert_eq!(step.layer_runners[0], 3, "all slots run layer 0");
        assert!(step.rearmost_layer() >= 1);
    }

    #[test]
    fn a_draftless_engine_is_dense() {
        // On the trained schedule, whose predictors do fire for a real
        // draft, a sequence that proposes nothing has no exit to take.
        use specee_core::engine::DenseEngine;
        use specee_draft::NoDraft;
        let (bank, schedule, config) = trained_parts(67);
        let mut eng: BatchedEngine<SyntheticLm, NoDraft> =
            BatchedEngine::new(3, 16, 12, bank, schedule, config);
        let prompts: [&[TokenId]; 3] = [&[4, 2, 9], &[1, 5, 3, 7], &[8, 8]];
        let gens = [10, 6, 8];
        for (i, p) in prompts.iter().enumerate() {
            let _ = eng.admit(i as u64, build_lm(67), NoDraft, p, gens[i]);
        }
        let mut outputs = Vec::new();
        while eng.occupancy() > 0 {
            let occupancy = eng.occupancy();
            let step = eng.step();
            assert_eq!(step.draft_slots, 0);
            assert_eq!(step.predictor_calls, 0);
            assert_eq!(step.lm_head_evals, occupancy as u64);
            assert_eq!(step.layer_runners, vec![occupancy; 12]);
            assert_eq!(step.emitted, occupancy);
            assert!(step.feedback.is_empty());
            outputs.extend(step.finished);
        }
        outputs.sort_by_key(|o| o.id);
        assert_eq!(outputs.len(), 3);
        for (out, (p, g)) in outputs.iter().zip(prompts.iter().zip(gens)) {
            let dense = DenseEngine::new(build_lm(67)).generate(p, g);
            assert_eq!(out.tokens, dense.tokens, "id {}", out.id);
            assert_eq!(out.ce_sum, dense.ce_sum, "id {}", out.id);
            assert_eq!(out.exit_layers, vec![12; g], "id {}", out.id);
            assert_eq!(
                (out.predictor_calls, out.verify_calls, out.draft_calls),
                (0, 0, 0)
            );
        }
    }

    #[test]
    fn batch_decode_equals_solo_decode_per_sequence() {
        // Lock-step batching changes timing, never values: each co-batched
        // sequence must emit exactly what it emits alone.
        let prompts: [&[TokenId]; 3] = [&[4, 2, 9], &[1, 5, 3], &[8, 8, 2]];
        let mut solo_outputs = Vec::new();
        for (i, p) in prompts.iter().enumerate() {
            let mut eng = engine(1, 71);
            let lm = build_lm(71);
            let draft = build_draft(&lm, 71 ^ i as u64);
            let _ = eng.admit(i as u64, lm, draft, p, 12);
            solo_outputs.push(eng.drain().remove(0));
        }
        let mut eng = engine(3, 71);
        for (i, p) in prompts.iter().enumerate() {
            let lm = build_lm(71);
            let draft = build_draft(&lm, 71 ^ i as u64);
            let _ = eng.admit(i as u64, lm, draft, p, 12);
        }
        let batched = eng.drain();
        assert_eq!(batched.len(), 3);
        for (solo, b) in solo_outputs.iter().zip(&batched) {
            assert_eq!(solo.tokens, b.tokens, "id {}", b.id);
            assert_eq!(solo.exit_layers, b.exit_layers, "id {}", b.id);
        }
    }

    #[test]
    fn freed_slots_readmit_and_reuse_pages() {
        let mut eng = engine(2, 77);
        let lm = build_lm(77);
        let d = build_draft(&lm, 77);
        let _ = eng.admit(0, lm, d, &[1, 2, 3], 4);
        let outs = eng.drain();
        assert_eq!(outs.len(), 1);
        let created = eng.pool().pages_created();
        // Re-admit: the new sequence's pages come from the free list.
        let lm = build_lm(77);
        let d = build_draft(&lm, 78);
        let _ = eng.admit(1, lm, d, &[5, 1], 4);
        assert!(eng.pool().pages_created() <= created + 1);
        let outs = eng.drain();
        assert_eq!(outs[0].id, 1);
    }

    #[test]
    fn cancel_retires_slot_and_returns_partial_output() {
        let mut eng = engine(2, 83);
        let lm = build_lm(83);
        let d = build_draft(&lm, 83);
        let _ = eng.admit(4, lm, d, &[1, 2, 3], 16);
        let _ = eng.step();
        let _ = eng.step();
        assert!(eng.cancel(9).is_none(), "unknown id leaves engine alone");
        assert_eq!(eng.occupancy(), 1);
        let out = eng.cancel(4).expect("seated sequence");
        assert_eq!(out.id, 4);
        assert_eq!(out.tokens.len(), 3, "prefill token + two steps");
        assert_eq!(out.exit_layers.len(), 3);
        assert_eq!(eng.occupancy(), 0);
        assert_eq!(eng.pool().pages_in_use(), 0, "pages recycled on cancel");
        assert!(eng.cancel(4).is_none(), "cancel is idempotent");
    }

    #[test]
    fn static_controller_is_bit_identical_to_none() {
        // The acceptance bar for `--controller static`: same tokens, same
        // exit layers, same call counts as an uncontrolled run.
        let run = |controlled: bool| {
            let mut eng = engine(2, 91);
            if controlled {
                let base = eng.bank.layer(0).threshold();
                let n = eng.bank.len();
                eng.set_controller(specee_control::ControllerPolicy::Static.build_classed(n, base));
            }
            for i in 0..2u64 {
                let lm = build_lm(91);
                let draft = build_draft(&lm, 91 ^ i);
                let _ = eng.admit(i, lm, draft, &[4 + i as TokenId, 2, 9], 12);
            }
            eng.drain()
        };
        let (plain, controlled) = (run(false), run(true));
        assert_eq!(plain.len(), controlled.len());
        for (a, b) in plain.iter().zip(&controlled) {
            assert_eq!(a.tokens, b.tokens, "id {}", a.id);
            assert_eq!(a.exit_layers, b.exit_layers, "id {}", a.id);
            assert_eq!(a.predictor_calls, b.predictor_calls, "id {}", a.id);
            assert_eq!(a.verify_calls, b.verify_calls, "id {}", a.id);
        }
    }

    #[test]
    fn traced_batch_run_is_bit_identical_and_records_decisions() {
        // Tracing on vs off: same tokens, same exit layers, same meter —
        // and the trace carries one accepted exit instant per early exit
        // plus controller-apply events at every step boundary.
        let run = |traced: bool| {
            let mut eng = engine(2, 91);
            let base = eng.bank.layer(0).threshold();
            let n = eng.bank.len();
            eng.set_controller(specee_control::ControllerPolicy::pid().build_classed(n, base));
            if traced {
                eng.set_recorder(Some(Recorder::for_worker(0)));
            }
            for i in 0..2u64 {
                let lm = build_lm(91);
                let draft = build_draft(&lm, 91 ^ i);
                let _ = eng.admit(i, lm, draft, &[4 + i as TokenId, 2, 9], 12);
            }
            let outs = eng.drain();
            let events = eng
                .take_recorder()
                .map(Recorder::into_events)
                .unwrap_or_default();
            let meter = eng.meter().clone();
            (outs, events, meter)
        };
        let (plain, no_events, plain_meter) = run(false);
        let (traced, events, traced_meter) = run(true);
        assert!(no_events.is_empty());
        assert_eq!(plain_meter, traced_meter, "identical op totals");
        let mut early = 0usize;
        for (a, b) in plain.iter().zip(&traced) {
            assert_eq!(a.tokens, b.tokens, "id {}", a.id);
            assert_eq!(a.exit_layers, b.exit_layers, "id {}", a.id);
            early += a.exit_layers.iter().skip(1).filter(|&&l| l < 12).count();
        }
        let accepts = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::ExitDecision { accepted: true, .. }))
            .count();
        assert_eq!(accepts, early, "one accepted instant per taken exit");
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, EventKind::ControllerApply { .. })),
            "controller applies are traced"
        );
        // Exit decisions carry the sequence id they belong to.
        assert!(events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::ExitDecision { .. }))
            .all(|e| e.seq.is_some()));
    }

    #[test]
    fn step_feedback_accounts_for_fires() {
        // Engine-level accounting: over a drained run, the feedback
        // stream carries exactly one event per verify call, and accepted
        // events equal the early exits actually taken.
        let mut eng = engine(2, 93);
        let base = eng.bank.layer(0).threshold();
        let n = eng.bank.len();
        eng.set_controller(specee_control::ControllerPolicy::Static.build_classed(n, base));
        for i in 0..2u64 {
            let lm = build_lm(93);
            let draft = build_draft(&lm, 93 ^ i);
            let _ = eng.admit(i, lm, draft, &[3 + i as TokenId, 7, 1], 10);
        }
        let mut accepts = 0u64;
        let mut rejects = 0u64;
        let mut early_exits = 0u64;
        let mut outputs = Vec::new();
        while eng.occupancy() > 0 {
            let step = eng.step();
            accepts += step.feedback.iter().filter(|f| f.accepted).count() as u64;
            rejects += step.feedback.iter().filter(|f| !f.accepted).count() as u64;
            outputs.extend(step.finished);
        }
        let verify_calls: u64 = outputs.iter().map(|o| o.verify_calls).sum();
        for out in &outputs {
            early_exits += out
                .exit_layers
                .iter()
                .skip(1) // the prefill token never scans
                .filter(|&&l| l < eng.n_layers())
                .count() as u64;
        }
        assert!(verify_calls > 0, "workload must exercise the verifier");
        assert_eq!(accepts + rejects, verify_calls, "one event per fire");
        assert_eq!(accepts, early_exits, "accepted fires are taken exits");
        let summary = eng.controller_summary().expect("controller attached");
        assert_eq!(summary.accepts + summary.rejects, verify_calls);
    }

    /// The threshold every layer of `class` fires at right now.
    fn fire_thresholds<D: SpeculativeSource>(
        eng: &BatchedEngine<SyntheticLm, D>,
        class: TrafficClass,
    ) -> Vec<f32> {
        let bank = &eng.bank;
        let at = |l| fire_threshold(eng.controller(), bank.layer(l), class, l);
        (0..bank.len()).map(at).collect()
    }

    #[test]
    fn pid_controller_moves_thresholds_between_steps() {
        let mut eng = engine(1, 95);
        let n = eng.bank.len();
        // Start absurdly strict: the PID loop's idle decay plus feedback
        // must walk thresholds down between steps.
        eng.set_controller(specee_control::ControllerPolicy::pid().build_classed(n, 0.95));
        let lm = build_lm(95);
        let draft = build_draft(&lm, 95);
        let _ = eng.admit(0, lm, draft, &[4, 2, 9], 24);
        let (mut outs, mut seen) = (Vec::new(), Vec::new());
        while eng.occupancy() > 0 {
            let want = fire_thresholds(&eng, TrafficClass::DEFAULT);
            let step = eng.step();
            for f in &step.feedback {
                assert_eq!(
                    f.threshold, want[f.layer],
                    "a fire reads the step's thresholds"
                );
            }
            outs.extend(step.finished);
            seen.push(want);
        }
        assert_eq!(outs[0].tokens.len(), 24);
        // The first step fires at the bank's trained 0.5 (the default
        // class has no state before its first feedback); after it, the
        // controller's operating point governs, and feedback walked some
        // layers off the start.
        assert!(seen[0].iter().all(|&t| t == 0.5), "{:?}", seen[0]);
        let ctl = eng.controller().expect("controller");
        let after: Vec<Option<f32>> = (0..n)
            .map(|l| ctl.fires_at(TrafficClass::DEFAULT, l))
            .collect();
        assert!(
            after.iter().all(|a| a.is_some_and(|a| a > 0.5)),
            "{after:?}"
        );
        assert!(
            after.iter().any(|a| a.is_some_and(|a| a < 0.95)),
            "thresholds should move off the 0.95 start: {after:?}"
        );
        assert!(seen.windows(2).any(|w| w[0] != w[1]), "moved between steps");
        let summary = eng.controller_summary().expect("controller");
        assert_eq!(summary.policy, "pid");
        assert_eq!(summary.tokens, 23, "every decode-step token observed");
    }

    #[test]
    fn static_fires_at_the_banks_own_threshold() {
        // A static controller's base is a nominal number, not a threshold:
        // with the bank at 1.0 (no sigmoid score exceeds it) and the base
        // at 0.5, nothing exits — what the dense arms of
        // `ablation_cluster` and `ablation_classes` rely on.
        let mut eng = engine(2, 93);
        eng.bank.set_threshold(1.0);
        let n = eng.bank.len();
        eng.set_controller(specee_control::ControllerPolicy::Static.build_classed(n, 0.5));
        for (i, class) in [(0u64, TrafficClass::DEFAULT), (1, TrafficClass::new(2))] {
            let lm = build_lm(93);
            let draft = build_draft(&lm, 93 ^ i);
            let prompt = [3 + i as TokenId, 7, 1];
            let _ = eng.admit_laned(i, class, Lane::DEFAULT, lm, draft, &prompt, 10);
        }
        let outs = eng.drain();
        assert_eq!(outs.len(), 2);
        for out in &outs {
            assert!(out.predictor_calls > 0, "id {}: the scan ran", out.id);
            assert_eq!(out.verify_calls, 0, "id {}: nothing fired", out.id);
            assert_eq!(out.exit_layers, vec![12; 10], "id {}", out.id);
        }
    }

    /// An engine under `slo+static` based at 0.6 — its SLO floor bends
    /// that to 0.2 under full pressure — on a bank trained at 0.5, with
    /// two sequences seated.
    fn slo_static_engine() -> BatchedEngine<SyntheticLm, OracleDraft> {
        let mut eng = engine(2, 91);
        assert!((0..eng.bank.len()).all(|l| eng.bank.layer(l).threshold() == 0.5));
        let policy = specee_control::ControllerPolicy::Static.slo_adaptive();
        eng.set_controller(policy.build_classed(eng.bank.len(), 0.6));
        for i in 0..2u64 {
            let lm = build_lm(91);
            let draft = build_draft(&lm, 91 ^ i);
            let _ = eng.admit(i, lm, draft, &[4 + i as TokenId, 2, 9], 24);
        }
        eng
    }

    fn set_pressure(eng: &mut BatchedEngine<SyntheticLm, OracleDraft>, pressure: f64) {
        let ctl = eng.controller_mut().expect("controller attached");
        ctl.set_slo_pressure(pressure);
    }

    #[test]
    fn a_cleared_burn_releases_slo_static_to_the_banks_own_thresholds() {
        let mut eng = slo_static_engine();
        set_pressure(&mut eng, 1.0);
        for _ in 0..3 {
            let _ = eng.step();
        }
        set_pressure(&mut eng, 0.0);
        let mut fires = Vec::new();
        while eng.occupancy() > 0 {
            fires.extend(eng.step().feedback);
        }
        assert!(!fires.is_empty(), "the run must fire after the clear");
        for f in &fires {
            assert_eq!(
                f.threshold, 0.5,
                "layer {}: the bank's own, not the bent 0.2",
                f.layer
            );
        }
    }

    #[test]
    fn slo_pressure_set_between_steps_reaches_the_next_steps_fires() {
        let mut eng = slo_static_engine();
        // The first step opens the default class's controller state (it
        // fires at the bank's own until then, pressure or not).
        let _ = eng.step();
        let (mut bent, mut own) = (0, 0);
        for step in 1.. {
            if eng.occupancy() == 0 {
                break;
            }
            let burning = step % 2 == 1;
            set_pressure(&mut eng, if burning { 1.0 } else { 0.0 });
            for f in eng.step().feedback {
                if burning {
                    assert!((f.threshold - 0.2).abs() < 1e-6, "step {step}: {f:?}");
                    bent += 1;
                } else {
                    assert_eq!(f.threshold, 0.5, "step {step}: {f:?}");
                    own += 1;
                }
            }
        }
        assert!(
            bent > 0 && own > 0,
            "fires under both: {bent} bent, {own} own"
        );
    }

    #[test]
    fn classed_admission_without_controller_matches_untagged() {
        // A class tag alone changes keys, never values: with no
        // controller attached, every class fires at the bank's own
        // thresholds, so a tagged run decodes exactly like an untagged
        // one.
        let run = |class: Option<TrafficClass>| {
            let mut eng = engine(2, 97);
            for i in 0..2u64 {
                let lm = build_lm(97);
                let draft = build_draft(&lm, 97 ^ i);
                match class {
                    Some(c) => {
                        let prompt = [4 + i as TokenId, 2, 9];
                        let _ = eng.admit_laned(i, c, Lane::DEFAULT, lm, draft, &prompt, 12);
                    }
                    None => {
                        let _ = eng.admit(i, lm, draft, &[4 + i as TokenId, 2, 9], 12);
                    }
                }
            }
            eng.drain()
        };
        let (untagged, tagged) = (run(None), run(Some(TrafficClass::new(3))));
        for (a, b) in untagged.iter().zip(&tagged) {
            assert_eq!(a.tokens, b.tokens, "id {}", a.id);
            assert_eq!(a.exit_layers, b.exit_layers, "id {}", a.id);
            assert_eq!(a.predictor_calls, b.predictor_calls, "id {}", a.id);
        }
        assert!(untagged.iter().all(|o| o.class.is_default()));
        assert!(tagged.iter().all(|o| o.class == TrafficClass::new(3)));
    }

    /// Absorbs `rounds` remote windows for `class` in which every
    /// predictor layer fired 12 times, all `accepted` or all rejected.
    fn absorb_verdicts(
        eng: &mut BatchedEngine<SyntheticLm, OracleDraft>,
        class: TrafficClass,
        layers: std::ops::Range<usize>,
        accepted: bool,
        rounds: usize,
    ) {
        let n = eng.bank.len();
        let mut evidence = specee_control::ClassEvidence::empty(class, n, 12);
        let verdicts = if accepted {
            &mut evidence.layer_accepts
        } else {
            &mut evidence.layer_rejects
        };
        verdicts[layers].fill(12);
        evidence.tokens = 12;
        evidence.executed_layers = 12 * 5;
        evidence.mean_threshold = 0.5;
        for _ in 0..rounds {
            eng.absorb_gossip(&[evidence.clone()]);
        }
    }

    #[test]
    fn per_class_banks_isolate_operating_points() {
        // Drive two classes' PID loops apart with gossip before either is
        // served — one rejection-heavy (tightened above the trained 0.5),
        // one acceptance-heavy (loosened below it): co-batched sequences
        // of the two classes must fire at their own class's thresholds in
        // the same engine, over one shared bank, and feedback events must
        // carry their class.
        let mut eng = engine(2, 99);
        let n = eng.bank.len();
        let (tight, loose) = (TrafficClass::new(1), TrafficClass::new(2));
        eng.set_controller(specee_control::ControllerPolicy::pid().build_classed(n, 0.5));
        absorb_verdicts(&mut eng, tight, 0..n, false, 8);
        absorb_verdicts(&mut eng, loose, 0..n, true, 8);
        for (i, class) in [(0u64, tight), (1u64, loose)] {
            let lm = build_lm(99);
            let draft = build_draft(&lm, 99 ^ i);
            let prompt = [4 + i as TokenId, 2, 9];
            let _ = eng.admit_laned(i, class, Lane::DEFAULT, lm, draft, &prompt, 12);
        }
        let mut steps = Vec::new();
        while eng.occupancy() > 0 {
            let want = [tight, loose].map(|class| fire_thresholds(&eng, class));
            let step = eng.step();
            for f in &step.feedback {
                assert!(f.class == tight || f.class == loose, "{f:?}");
                let class_want = &want[usize::from(f.class == loose)];
                assert_eq!(f.threshold, class_want[f.layer], "{f:?}");
            }
            steps.push(step.feedback);
        }
        // Local feedback moves both loops from there; the first step
        // fires where gossip left them.
        let of = |class| {
            steps[0]
                .iter()
                .filter(move |f: &&ExitFeedback| f.class == class)
        };
        assert!(of(loose).count() > 0, "the loosened class fires");
        assert!(
            of(loose).all(|f| f.threshold < 0.5),
            "loose fires below the bank's 0.5"
        );
        assert!(of(tight).all(|f| f.threshold > 0.5), "tight fires above it");
        let ctl = eng.controller().expect("controller");
        assert_eq!(ctl.classes(), vec![tight, loose], "no default-class state");
        assert_eq!(ctl.fires_at(TrafficClass::DEFAULT, 0), None);
    }

    #[test]
    fn absorbed_gossip_moves_class_thresholds_at_the_boundary() {
        // Remote rejection-heavy evidence for a class this engine never
        // served must warm the class: its first step fires at the
        // gossip-tightened operating point.
        let mut eng = engine(2, 95);
        let n = eng.bank.len();
        eng.set_controller(specee_control::ControllerPolicy::pid().build_classed(n, 0.5));
        let c = TrafficClass::new(2);
        absorb_verdicts(&mut eng, c, 3..4, false, 6);
        let warmed = fire_thresholds(&eng, c);
        assert!(
            warmed[3] > 0.5,
            "gossip-warmed class starts tightened: {warmed:?}"
        );
        assert!(warmed.iter().enumerate().all(|(l, &t)| l == 3 || t == 0.5));
        // The default class's layer-3 loop was not touched by class-2
        // evidence: it still fires at the bank's own.
        assert_eq!(fire_thresholds(&eng, TrafficClass::DEFAULT), vec![0.5; n]);
        let lm = build_lm(95);
        let draft = build_draft(&lm, 95);
        let _ = eng.admit_laned(0, c, Lane::DEFAULT, lm, draft, &[4, 2, 9], 4);
        let step = eng.step();
        assert!(!step.feedback.is_empty(), "the first step fires");
        for f in &step.feedback {
            assert_eq!(f.threshold, warmed[f.layer], "{f:?}");
        }
    }

    #[test]
    fn preempted_then_resumed_is_bit_identical() {
        // The headline memory-plane invariant: a sequence evicted under
        // page pressure and later re-seated emits exactly what it emits
        // uninterrupted — the pool is accounting, the KV stays with the
        // model.
        let prompts: [&[TokenId]; 2] = [&[4, 2, 9], &[1, 5, 3]];
        let run = |capacity: Option<usize>| {
            let mut eng = engine(2, 103);
            eng.set_page_capacity(capacity);
            eng.set_preemption_enabled(capacity.is_some());
            for (i, p) in prompts.iter().enumerate() {
                let lm = build_lm(103);
                let draft = build_draft(&lm, 103 ^ i as u64);
                let _ = eng.admit_laned(
                    i as u64,
                    TrafficClass::DEFAULT,
                    Lane::new(i as u8),
                    lm,
                    draft,
                    p,
                    40,
                );
            }
            let outs = eng.drain();
            (outs, eng.preemptions(), eng.resumes())
        };
        // Final KV per sequence: 3 + 39 = 42 tokens → 3 pages of 16.
        // A cap of 3 seats both (1 page each) but cannot cover both
        // crossing into their second page, so the lane-1 sequence must
        // be evicted and finish after the lane-0 one.
        let (unlimited, p0, r0) = run(None);
        let (capped, p1, r1) = run(Some(3));
        assert_eq!(p0, 0);
        assert_eq!(r0, 0);
        assert!(p1 > 0, "cap of 3 pages must force an eviction");
        assert_eq!(p1, r1, "every eviction resumed");
        assert_eq!(unlimited.len(), capped.len());
        for (a, b) in unlimited.iter().zip(&capped) {
            assert_eq!(a.tokens, b.tokens, "id {}", a.id);
            assert_eq!(a.exit_layers, b.exit_layers, "id {}", a.id);
            assert_eq!(a.predictor_calls, b.predictor_calls, "id {}", a.id);
            assert_eq!(a.verify_calls, b.verify_calls, "id {}", a.id);
        }
    }

    #[test]
    fn prefix_shared_admission_is_bit_identical_and_cuts_pages() {
        // Two sequences sharing a one-page system prompt: sharing must
        // co-lease the prompt page (lower peak occupancy) while decoding
        // the exact same tokens as private leases. Clones of one template
        // share its weights, so the second admission also copies the
        // page's K/V from the first; separately built models share
        // nothing and prefill it — the same tokens either way.
        let mut prompt: Vec<TokenId> = (0..20).map(|i| 3 + (i % 7) as TokenId).collect();
        prompt[18] = 11; // a non-degenerate tail
        let run = |shared: bool, cloned: bool| {
            let mut eng = engine(2, 107);
            eng.enable_prefix_share(shared);
            let template = build_lm(107);
            for i in 0..2u64 {
                let lm = if cloned {
                    template.clone()
                } else {
                    build_lm(107)
                };
                let draft = build_draft(&lm, 107 ^ i);
                let _ = eng.admit(i, lm, draft, &prompt, 8);
            }
            let shared_now = eng.pool().shared_pages();
            let reused = eng.prefix_tokens_reused();
            let outs = eng.drain();
            (outs, eng.pool().pages_peak(), shared_now, reused)
        };
        let (private, peak_private, s0, r0) = run(false, true);
        assert_eq!(s0, 0);
        assert_eq!(r0, 0, "nothing is reused without sharing");
        for cloned in [true, false] {
            let (shared, peak_shared, s1, reused) = run(true, cloned);
            assert!(s1 > 0, "the 16-token prompt page must be co-leased");
            assert!(
                peak_shared < peak_private,
                "sharing must cut peak pages: {peak_shared} vs {peak_private}"
            );
            assert_eq!(
                reused,
                if cloned { 16 } else { 0 },
                "the page is copied exactly when the seats share weights"
            );
            assert_eq!(private.len(), shared.len());
            for (a, b) in private.iter().zip(&shared) {
                assert_eq!(a.tokens, b.tokens, "id {} cloned {cloned}", a.id);
                assert_eq!(a.exit_layers, b.exit_layers, "id {} cloned {cloned}", a.id);
            }
        }
    }

    #[test]
    fn a_fully_matched_prompt_still_runs_its_last_token() {
        // A prompt that is whole pages, all of them resident: everything
        // but the last token is adopted, because the first LM head needs
        // that token's hidden state. A sequence that has decoded since it
        // was cloned refuses to adopt and prefills.
        let prompt: Vec<TokenId> = (0..32).map(|i| 2 + (i * 5 % 11) as TokenId).collect();
        let parts = trained_parts(109);
        let template = build_lm(109);
        let mut stepped = template.clone();
        let _ = specee_model::prefill(&mut stepped, &[1, 2, 3], &mut Meter::new());
        let run = |shared: bool, second: &SyntheticLm| {
            let (bank, schedule, config) = parts.clone();
            let mut eng = BatchedEngine::new(2, 16, 12, bank, schedule, config);
            eng.enable_prefix_share(shared);
            for (i, lm) in [template.clone(), second.clone()].into_iter().enumerate() {
                let draft = build_draft(&lm, 109 ^ i as u64);
                let _ = eng.admit(i as u64, lm, draft, &prompt, 6);
            }
            let reused = eng.prefix_tokens_reused();
            (eng.drain(), reused)
        };
        let (private, r0) = run(false, &template);
        let (shared, reused) = run(true, &template);
        assert_eq!((r0, reused), (0, 31), "all but the last prompt token");
        assert_eq!(private, shared);
        let (private, _) = run(false, &stepped);
        let (shared, reused) = run(true, &stepped);
        assert_eq!(reused, 0, "streams that moved on since the clone refuse");
        assert_eq!(private, shared);
    }

    #[test]
    fn make_room_evicts_strictly_lower_priority_only() {
        let mut eng = engine(2, 109);
        eng.set_page_capacity(Some(2));
        eng.set_preemption_enabled(true);
        let admit = |eng: &mut BatchedEngine<SyntheticLm, OracleDraft>, id: u64, lane: u8| {
            let lm = build_lm(109);
            let draft = build_draft(&lm, 109 ^ id);
            let _ = eng.admit_laned(
                id,
                TrafficClass::DEFAULT,
                Lane::new(lane),
                lm,
                draft,
                &[4, 2, 9],
                6,
            );
        };
        admit(&mut eng, 0, 0);
        admit(&mut eng, 1, 2);
        assert!(!eng.can_seat(&[1, 2, 3]), "slots and pages are full");
        // A lane-1 arrival outranks only the lane-2 resident.
        assert!(eng.make_room(&[1, 2, 3], Lane::new(1)));
        assert_eq!(eng.preemptions(), 1);
        assert_eq!(eng.parked(), 1);
        admit(&mut eng, 2, 1);
        // Residents are now lanes 0 and 1: a lane-1 arrival has no
        // strictly lower-priority victim, and lane 0 never yields.
        assert!(!eng.make_room(&[1, 2, 3], Lane::new(1)));
        assert_eq!(eng.preemptions(), 1, "no further eviction");
        // Draining re-seats the parked lane-2 sequence and finishes it.
        let outs = eng.drain();
        assert_eq!(outs.len(), 3);
        assert_eq!(eng.resumes(), 1);
        assert_eq!(eng.parked(), 0);
        assert!(outs.iter().all(|o| o.tokens.len() == 6));
    }

    #[test]
    fn traced_preemption_emits_preempt_resume_and_pressure_events() {
        let mut eng = engine(2, 113);
        eng.set_page_capacity(Some(3));
        eng.set_preemption_enabled(true);
        eng.set_recorder(Some(Recorder::for_worker(0)));
        for i in 0..2u64 {
            let lm = build_lm(113);
            let draft = build_draft(&lm, 113 ^ i);
            let _ = eng.admit_laned(
                i,
                TrafficClass::DEFAULT,
                Lane::new(i as u8),
                lm,
                draft,
                &[4 + i as TokenId, 2, 9],
                40,
            );
        }
        let _ = eng.drain();
        assert!(eng.preemptions() > 0);
        let events = eng.take_recorder().map(Recorder::into_events).unwrap();
        let count = |name: &str| events.iter().filter(|e| e.kind.name() == name).count();
        assert_eq!(count("preempt"), eng.preemptions() as usize);
        assert_eq!(count("resume"), eng.resumes() as usize);
        assert!(count("kv-pressure") > 0, "pressure sampled at boundaries");
        // Preempt/resume instants carry the victim's sequence id.
        assert!(events
            .iter()
            .filter(|e| matches!(
                e.kind,
                EventKind::Preempted { .. } | EventKind::Resumed { .. }
            ))
            .all(|e| e.seq.is_some()));
    }

    #[test]
    fn cancel_reaches_parked_sequences() {
        let mut eng = engine(2, 127);
        eng.set_page_capacity(Some(2));
        eng.set_preemption_enabled(true);
        for i in 0..2u64 {
            let lm = build_lm(127);
            let draft = build_draft(&lm, 127 ^ i);
            let _ = eng.admit_laned(
                i,
                TrafficClass::DEFAULT,
                Lane::new(i as u8),
                lm,
                draft,
                &[4, 2, 9],
                25,
            );
        }
        // Step until pressure parks the lane-1 sequence.
        while eng.parked() == 0 {
            let _ = eng.step();
        }
        let out = eng.cancel(1).expect("parked sequence cancellable");
        assert_eq!(out.id, 1);
        assert!(!out.tokens.is_empty());
        assert_eq!(eng.parked(), 0);
        let outs = eng.drain();
        assert_eq!(outs.len(), 1, "only the survivor finishes");
        assert_eq!(outs[0].id, 0);
    }

    /// An engine over an untrained bank that scans every layer: enough
    /// for tests about what admission does to the model it is handed.
    fn untrained_engine<D: SpeculativeSource>(
        max_batch: usize,
        page_size: usize,
    ) -> BatchedEngine<SyntheticLm, D> {
        let pcfg = PredictorConfig {
            hidden_dim: 32,
            ..PredictorConfig::default()
        };
        let bank = PredictorBank::new(12, &pcfg, &mut Pcg::seed(2));
        let config = SpecEeConfig {
            predictor: pcfg,
            ..SpecEeConfig::default()
        };
        let schedule = ScheduleEngine::all_layers(12);
        BatchedEngine::new(max_batch, page_size, 12, bank, schedule, config)
    }

    fn seat(eng: &mut BatchedEngine<SyntheticLm, OracleDraft>, id: u64, lm: &SyntheticLm) -> usize {
        match eng.admit(id, lm.clone(), build_draft(lm, id), &[4, 2, 9], 6) {
            Admission::Seated { slot } => slot,
            Admission::Done(_) => panic!("should seat"),
        }
    }

    fn model_in(eng: &BatchedEngine<SyntheticLm, OracleDraft>, slot: usize) -> &SyntheticLm {
        &eng.seats[slot].as_ref().expect("seated sequence").model
    }

    #[test]
    fn admission_keeps_the_models_backend_unless_the_engine_sets_one() {
        use specee_tensor::BackendKind;
        let mut lm = build_lm(83);
        lm.set_backend(BackendKind::Blocked);
        let mut eng = untrained_engine(2, 16);
        let slot = seat(&mut eng, 0, &lm);
        assert_eq!(model_in(&eng, slot).backend(), BackendKind::Blocked);
        eng.set_backend(BackendKind::Reference);
        let slot = seat(&mut eng, 1, &lm);
        assert_eq!(model_in(&eng, slot).backend(), BackendKind::Reference);
    }

    #[test]
    fn eight_seated_clones_hold_one_weight_allocation() {
        let lm = build_lm(84);
        let mut eng = untrained_engine(8, 16);
        for id in 0..8 {
            seat(&mut eng, id, &lm);
        }
        let step = eng.step();
        assert_eq!(step.emitted, 8);
        for slot in 0..8 {
            let seated = model_in(&eng, slot).inner();
            assert!(seated.shares_weights_with(lm.inner()), "slot {slot}");
        }
    }

    #[test]
    fn empty_step_reports_nothing() {
        let mut eng = engine(2, 80);
        let step = eng.step();
        assert_eq!(step.emitted, 0);
        assert_eq!(step.rearmost_layer(), 0);
        assert!(step.finished.is_empty());
    }

    /// A source that drafts through its target's shallow layers or, built
    /// without a spec, proposes nothing.
    struct EitherDraft(Option<SelfDraftSpec>);

    impl SpeculativeSource for EitherDraft {
        fn propose(&mut self, _: &[TokenId], _: usize, _: &mut Meter) -> Vec<TokenId> {
            Vec::new()
        }
        fn propose_tree(
            &mut self,
            _: &[TokenId],
            _: &specee_draft::TreeShape,
            _: &mut Meter,
        ) -> specee_draft::TokenTree {
            specee_draft::TokenTree::new()
        }
        fn reset(&mut self) {}
        fn modelled_bytes(&self) -> f64 {
            0.0
        }
        fn self_spec(&self) -> Option<&SelfDraftSpec> {
            self.0.as_ref()
        }
    }

    #[test]
    #[should_panic(expected = "self-draft sequences cannot share a batch")]
    fn a_batch_mixing_self_draft_and_separate_draft_sequences_is_refused() {
        let mut eng = untrained_engine(2, 16);
        let spec = SelfDraftSpec::new(2, specee_draft::TreeShape::chain(2));
        for (id, draft) in [(0, EitherDraft(None)), (1, EitherDraft(Some(spec)))] {
            let _ = eng.admit(id, build_lm(85), draft, &[4, 2, 9], 6);
        }
        let _ = eng.step();
    }

    #[test]
    #[should_panic(expected = "no free slot")]
    fn admit_requires_free_slot() {
        let mut eng = engine(1, 81);
        let lm = build_lm(81);
        let d = build_draft(&lm, 81);
        let _ = eng.admit(0, lm, d, &[1, 2], 8);
        let lm = build_lm(81);
        let d = build_draft(&lm, 82);
        let _ = eng.admit(1, lm, d, &[1, 2], 8);
    }

    /// The fixed request kinds of the script test: `(prompt, gen_len)`.
    /// A prompt is up to two whole pages of one of two system prompts and
    /// a suffix that opens with a token no other kind uses, so what two
    /// registered sequences share is exactly the whole prompt pages on
    /// which their prompts agree (never a tail page).
    fn script_kinds() -> Vec<(Vec<TokenId>, usize)> {
        (0..10u32)
            .map(|kind| {
                let system =
                    (0..(kind % 3) * SCRIPT_PAGE as u32).map(|i| 7 + (kind % 2) * 5 + i % 3);
                let suffix = (0..1 + kind % 6).map(|i| if i == 0 { 100 + kind } else { 3 + i });
                (system.chain(suffix).collect(), 4 + (kind as usize * 5) % 13)
            })
            .collect()
    }

    const SCRIPT_PAGE: usize = 4;

    /// What each kind decodes alone, uninterrupted, in an engine with no
    /// page cap and no sharing.
    fn script_solos(template: &SyntheticLm) -> Vec<BatchedOutput> {
        let solo = |(kind, (prompt, gen)): (usize, &(Vec<TokenId>, usize))| {
            let mut eng = untrained_engine(1, SCRIPT_PAGE);
            let draft = build_draft(template, kind as u64);
            let _ = eng.admit(0, template.clone(), draft, prompt, *gen);
            eng.drain().remove(0)
        };
        script_kinds().iter().enumerate().map(solo).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(24))]

        /// Random admit / step / cancel scripts under a page cap (so
        /// steps and admissions preempt, and later steps resume) with
        /// prefix sharing on. After every call the ledger holds a lease
        /// exactly where a sequence is seated, covering exactly its
        /// committed K/V; the pool's lease and page counts are what those
        /// lengths and the shared prompt pages imply; and at the end every
        /// sequence decoded what it decodes alone and no page is left.
        #[test]
        fn the_ledger_follows_the_seats_through_any_script(
            ops in proptest::collection::vec((0u8..8, 0u8..255), 1..48),
            max_batch in 1usize..5,
            cap in 0usize..4,
            share in 0u8..4,
        ) {
            use proptest::{prop_assert, prop_assert_eq};
            use std::collections::{BTreeMap, BTreeSet};
            let template = build_lm(131);
            let (kinds, solos) = (script_kinds(), script_solos(&template));
            let sharing = share > 0;
            let mut eng = untrained_engine(max_batch, SCRIPT_PAGE);
            // Every kind fits alone in 8 pages (14 prompt + 16 generated
            // tokens, 4 a page), so the caps preempt but never wedge.
            let capacity = [None, Some(8), Some(8), Some(11)][cap];
            eng.set_page_capacity(capacity);
            eng.set_preemption_enabled(capacity.is_some());
            eng.enable_prefix_share(sharing);
            // id → kind of every sequence still in the engine, and the ids
            // that have been parked since they were admitted (a sequence
            // comes back on private pages, out of the prefix index).
            let mut live: BTreeMap<u64, usize> = BTreeMap::new();
            let mut was_parked: BTreeSet<u64> = BTreeSet::new();
            let mut next_id = 0u64;
            let check = |eng: &BatchedEngine<SyntheticLm, OracleDraft>,
                         live: &BTreeMap<u64, usize>,
                         was_parked: &mut BTreeSet<u64>| {
                was_parked.extend(eng.parked.iter().map(|p| p.seq.id));
                let pool = eng.pool();
                let (mut leased, mut private) = (0, 0);
                let mut shared: BTreeSet<&[TokenId]> = BTreeSet::new();
                let mut seated = 0;
                for (slot, seat) in eng.seats.iter().enumerate() {
                    let Some(seat) = seat else { continue };
                    seated += 1;
                    let kv = seat.model.kv_len();
                    // The slot's lease covers the committed K/V, and ends
                    // with it: one more position opens a page iff it is full.
                    prop_assert_eq!(eng.ledger.demand(slot, kv), 0, "slot {}", slot);
                    let next = usize::from(kv % SCRIPT_PAGE == 0);
                    prop_assert_eq!(eng.ledger.demand(slot, kv + 1), next, "slot {}", slot);
                    let pages = kv.div_ceil(SCRIPT_PAGE);
                    leased += pages;
                    let prompt = &kinds[live[&seat.seq.id]].0;
                    let registered = sharing && !was_parked.contains(&seat.seq.id);
                    let whole = if registered { prompt.len() / SCRIPT_PAGE } else { 0 };
                    shared.extend((1..=whole).map(|p| &prompt[..p * SCRIPT_PAGE]));
                    private += pages - whole;
                }
                prop_assert_eq!(seated + eng.parked.len(), live.len());
                // One lease per page a seat covers, one more per indexed
                // prompt page; a page many hold is one physical page.
                prop_assert_eq!(pool.logical_pages_in_use(), leased + shared.len());
                prop_assert_eq!(pool.pages_in_use(), private + shared.len());
                prop_assert!(pool.capacity().is_none_or(|c| pool.pages_in_use() <= c));
                Ok(())
            };
            let finish = |out: BatchedOutput, live: &mut BTreeMap<u64, usize>, whole: bool| {
                let solo = &solos[live.remove(&out.id).expect("a live id")];
                let n = out.tokens.len();
                prop_assert!(n == solo.tokens.len() || !whole);
                prop_assert_eq!(&out.tokens[..], &solo.tokens[..n]);
                prop_assert_eq!(&out.exit_layers[..], &solo.exit_layers[..n]);
                prop_assert!(out.ce_sum == solo.ce_sum || !whole);
                Ok(())
            };
            for (op, sel) in ops {
                match op {
                    0..=2 => {
                        let kind = sel as usize % kinds.len();
                        let lane = Lane::new(sel / 16 % 3);
                        let (prompt, gen) = &kinds[kind];
                        if eng.make_room(prompt, lane) {
                            let draft = build_draft(&template, kind as u64);
                            let class = TrafficClass::DEFAULT;
                            let lm = template.clone();
                            let _ = eng.admit_laned(next_id, class, lane, lm, draft, prompt, *gen);
                            live.insert(next_id, kind);
                            next_id += 1;
                        }
                    }
                    3..=6 => {
                        for out in eng.step().finished {
                            finish(out, &mut live, true)?;
                        }
                    }
                    _ => {
                        let id = live.keys().nth(sel as usize % live.len().max(1)).copied();
                        if let Some(out) = id.and_then(|id| eng.cancel(id)) {
                            finish(out, &mut live, false)?;
                        }
                    }
                }
                check(&eng, &live, &mut was_parked)?;
            }
            for out in eng.drain() {
                finish(out, &mut live, true)?;
            }
            prop_assert!(live.is_empty());
            check(&eng, &live, &mut was_parked)?;
            prop_assert_eq!(eng.pool().logical_pages_in_use(), 0, "a drained engine holds no page");
        }
    }
}
