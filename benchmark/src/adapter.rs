//! Every call into a product crate lives in this file.
//!
//! The rest of the benchmark sees plain data: [`PlainRequest`]s go in,
//! [`RoundOut`]s (token ids, wall times, counts) come out. The signatures
//! used here are listed in `README.md` as load-bearing: a change that
//! claims a gain may not edit `benchmark/`, so it must keep them.
//!
//! Three things live here:
//!
//! * the **test bed** ([`Bed`]): the Llama2-7B(sim) model, oracle draft,
//!   trained predictor bank and schedules every workload shares — the
//!   ~60 lines of set-up the repo's own `specee-bench` also has, owned
//!   here so a change to that crate cannot silently change the workloads;
//! * the **round runners**, one per user entry point, generic over a
//!   [`Seam`] so the same code runs bare (end-to-end timing) or with the
//!   span wrappers [`Traced`] around the model and the draft source;
//! * the **micro probes**: direct timed calls into each crate's public
//!   functions at the shapes the workloads execute.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use specee_batch::{Admission, BatchedEngine, BatchedOutput};
use specee_cluster::{Cluster, ClusterConfig, ClusterRequest, RouterPolicy};
use specee_control::ControllerPolicy;
use specee_core::collect::{collect_training_data, train_bank};
use specee_core::engine::{DenseEngine, SpecEeEngine, SpeculativeEngine};
use specee_core::features::ExitFeatures;
use specee_core::output::GenOutput;
use specee_core::predictor::{PredictorBank, PredictorConfig};
use specee_core::scheduler::{OfflineScheduler, ScheduleEngine};
use specee_core::{Lane, SpecEeConfig};
use specee_draft::{SelfDraft, SelfDraftSpec, SpeculativeSource, TokenTree, TreeShape};
use specee_metrics::{FrameworkProfile, HardwareProfile, Meter, Roofline};
use specee_model::attention::attention_forward;
use specee_model::ffn::ffn_forward;
use specee_model::{
    prefill, KvCache, KvLayout, LayeredLm, ModelConfig, SkipKvPolicy, TokenId, TreeKv,
};
use specee_nn::TrainConfig;
use specee_obs::Recorder;
use specee_serve::cost::StepSpec;
use specee_serve::{
    AdmissionPolicy, BatcherConfig, ContinuousBatcher, ServeRequest, ServeStats, StepCostModel,
};
use specee_synth::{DatasetProfile, OracleDraft, SyntheticLm, SyntheticLmBuilder};
use specee_tensor::rng::Pcg;
use specee_tensor::{BackendKind, GroupedGemm, GroupedGemmSpec, Matrix};

use crate::trace::{SpanGuard, Tracer};
use crate::workload::{PlainRequest, VOCAB};
use crate::yardstick::Pacer;

/// Seed of the model, draft and predictor training. Fixed: the model is
/// part of the program, only the requests come from `--seed`.
const MODEL_SEED: u64 = 2025;
/// KV page size of every batched engine (the CLI's value).
pub const PAGE_SIZE: usize = 16;
/// Compute backend of the solo and live workloads. `Cluster::spawn` has
/// no backend parameter and admission stamps the engine's backend onto
/// every model, so `cluster_prefix` runs the reference kernels — what a
/// user of `Cluster` gets today.
pub const BACKEND: BackendKind = BackendKind::Blocked;

// ---------------------------------------------------------------------------
// Test bed
// ---------------------------------------------------------------------------

/// The shared parts every engine is assembled from.
#[derive(Debug, Clone)]
pub struct Bed {
    cfg: ModelConfig,
    lm: SyntheticLm,
    draft: OracleDraft,
    bank: PredictorBank,
    config: SpecEeConfig,
    /// T1+T2 `TwoLevel` schedule built from the collected exit frequencies.
    schedule: ScheduleEngine,
    /// A schedule whose only kept layer is the last one, which has no
    /// predictor: every token runs all layers (the no-exit twin).
    no_exit: ScheduleEngine,
    /// Expected exit depth under the trained schedule, the routing hint.
    expected_depth: f64,
}

impl Bed {
    /// Builds the model and draft, collects features and trains the bank
    /// (the offline pipeline of the paper's §7.4.4).
    pub fn build() -> Bed {
        let cfg = ModelConfig::sim_llama2_7b();
        assert_eq!(cfg.vocab_size, VOCAB as usize, "workload vocabulary");
        let profile = DatasetProfile::mt_bench();
        let mut lm = SyntheticLmBuilder::new(cfg.clone(), profile.clone())
            .seed(MODEL_SEED)
            .build();
        lm.set_backend(BACKEND);
        let draft = OracleDraft::new(*lm.language(), profile.hit_rate, &cfg, MODEL_SEED ^ 0xd4af7);
        let lang = *lm.language();
        let prompts: Vec<(Vec<TokenId>, usize)> = (0..6u32)
            .map(|i| {
                let start = (MODEL_SEED as u32 + i * 7) % VOCAB;
                (
                    lang.sample_sequence(start, 12, MODEL_SEED ^ u64::from(i)),
                    16,
                )
            })
            .collect();
        let predictor = PredictorConfig::default();
        let collection = collect_training_data(
            &mut lm.clone(),
            &mut draft.clone(),
            &prompts,
            predictor.spec_k,
        );
        let mut bank =
            PredictorBank::new(cfg.n_layers, &predictor, &mut Pcg::seed(MODEL_SEED ^ 0xb4));
        train_bank(
            &mut bank,
            &collection.samples,
            1.0,
            &TrainConfig {
                epochs: 16,
                lr: 3e-3,
                ..TrainConfig::default()
            },
            MODEL_SEED ^ 0x7e,
        );
        let config = SpecEeConfig {
            predictor,
            ..SpecEeConfig::default()
        };
        let freqs = &collection.exit_frequencies;
        let schedule = config.build_schedule(cfg.n_layers, Some(freqs));
        let mut last_only = vec![0.0; cfg.n_layers];
        last_only[cfg.n_layers - 1] = 1.0;
        let no_exit =
            ScheduleEngine::offline_only(OfflineScheduler::from_frequencies(&last_only, 1));
        let mass: f64 = freqs.iter().sum();
        let expected_depth = if mass > 0.0 {
            freqs
                .iter()
                .enumerate()
                .map(|(l, f)| (l + 1) as f64 * f)
                .sum::<f64>()
                / mass
        } else {
            cfg.n_layers as f64
        };
        Bed {
            cfg,
            lm,
            draft,
            bank,
            config,
            schedule,
            no_exit,
            expected_depth,
        }
    }

    /// Decoder layers of the model.
    pub fn n_layers(&self) -> usize {
        self.cfg.n_layers
    }

    fn schedule_for(&self, path: Path) -> ScheduleEngine {
        match path {
            Path::SpecEe => self.schedule.clone(),
            Path::NoExit => self.no_exit.clone(),
        }
    }

    fn batcher_config(&self, cap: usize) -> BatcherConfig {
        BatcherConfig {
            max_batch: cap,
            hardware: HardwareProfile::a100_80g(),
            framework: FrameworkProfile::vllm(),
            cost: self.cfg.cost.expect("7B(sim) carries a cost twin"),
        }
    }
}

/// Which twin of a workload a round runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// Early exit on (the workload's SpecEE path).
    SpecEe,
    /// The same requests through the same runtime, every token at full
    /// depth.
    NoExit,
}

// ---------------------------------------------------------------------------
// Seams: bare, or wrapped in spans
// ---------------------------------------------------------------------------

/// How a round dresses the two type parameters every engine takes.
pub trait Seam: Clone + Send + Sync + 'static {
    /// The model type handed to the engines.
    type M: LayeredLm + Send + 'static;
    /// The draft-source type handed to the engines.
    type D: SpeculativeSource + Send + 'static;
    /// Dresses a model for sequence `seq`.
    fn model(&self, lm: SyntheticLm, seq: Option<u64>) -> Self::M;
    /// Dresses a draft source for sequence `seq`.
    fn draft(&self, draft: OracleDraft, seq: Option<u64>) -> Self::D;
    /// Opens a harness-side span (no-op when bare).
    fn span(&self, name: &'static str, seq: Option<u64>) -> Option<SpanGuard>;
    /// The machine's speed right now, called before and after every timed
    /// call; 1 unless the seam paces (see `yardstick.rs`).
    fn probe(&self) -> f64 {
        1.0
    }
}

/// Tracing off: the engines get the product types themselves.
#[derive(Debug, Clone, Copy)]
pub struct Bare;

impl Seam for Bare {
    type M = SyntheticLm;
    type D = OracleDraft;
    fn model(&self, lm: SyntheticLm, _seq: Option<u64>) -> SyntheticLm {
        lm
    }
    fn draft(&self, draft: OracleDraft, _seq: Option<u64>) -> OracleDraft {
        draft
    }
    fn span(&self, _name: &'static str, _seq: Option<u64>) -> Option<SpanGuard> {
        None
    }
}

/// Tracing off, and every timed call bracketed by yardstick passes: the
/// seam of the timed end-to-end rounds.
#[derive(Debug, Clone)]
pub struct Paced {
    /// The shared yardstick and its readings.
    pub pacer: Arc<Mutex<Pacer>>,
    /// Timed yardstick runs per probe: one between the short `generate`
    /// calls, more around the second-long serving calls.
    pub passes: usize,
}

impl Seam for Paced {
    type M = SyntheticLm;
    type D = OracleDraft;
    fn model(&self, lm: SyntheticLm, _seq: Option<u64>) -> SyntheticLm {
        lm
    }
    fn draft(&self, draft: OracleDraft, _seq: Option<u64>) -> OracleDraft {
        draft
    }
    fn span(&self, _name: &'static str, _seq: Option<u64>) -> Option<SpanGuard> {
        None
    }
    fn probe(&self) -> f64 {
        // Readings are append-only, so a poisoned lock still holds valid data.
        self.pacer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .probe(self.passes)
    }
}

/// Tracing on: model and draft are wrapped in [`Traced`].
#[derive(Debug, Clone)]
pub struct Spans(pub Arc<Tracer>);

impl Seam for Spans {
    type M = Traced<SyntheticLm>;
    type D = Traced<OracleDraft>;
    fn model(&self, lm: SyntheticLm, seq: Option<u64>) -> Self::M {
        Traced::new(lm, Arc::clone(&self.0), seq)
    }
    fn draft(&self, draft: OracleDraft, seq: Option<u64>) -> Self::D {
        Traced::new(draft, Arc::clone(&self.0), seq)
    }
    fn span(&self, name: &'static str, seq: Option<u64>) -> Option<SpanGuard> {
        Some(self.0.span(name, seq, 1))
    }
}

/// Wraps a model or a draft source and records a span around each call;
/// every call returns exactly what the wrapped value returns.
#[derive(Debug, Clone)]
pub struct Traced<T> {
    inner: T,
    tracer: Arc<Tracer>,
    seq: Option<u64>,
}

impl<T> Traced<T> {
    /// Wraps `inner`; spans carry `seq`.
    pub fn new(inner: T, tracer: Arc<Tracer>, seq: Option<u64>) -> Self {
        Traced { inner, tracer, seq }
    }

    fn span(&self, name: &'static str, units: usize) -> SpanGuard {
        self.tracer.span(name, self.seq, units as u32)
    }
}

impl<M: LayeredLm> LayeredLm for Traced<M> {
    fn config(&self) -> &ModelConfig {
        self.inner.config()
    }
    fn set_backend(&mut self, backend: BackendKind) {
        self.inner.set_backend(backend);
    }
    fn backend(&self) -> BackendKind {
        self.inner.backend()
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
    fn begin_token(&mut self, token: TokenId, meter: &mut Meter) -> Vec<f32> {
        let _s = self.span("model.embed", 1);
        self.inner.begin_token(token, meter)
    }
    fn forward_layer(
        &mut self,
        layer: usize,
        h: &[f32],
        pos: usize,
        meter: &mut Meter,
    ) -> Vec<f32> {
        let _s = self.span("model.layer", 1);
        self.inner.forward_layer(layer, h, pos, meter)
    }
    fn begin_tree(
        &mut self,
        tokens: &[TokenId],
        parents: &[Option<usize>],
        meter: &mut Meter,
    ) -> Vec<Vec<f32>> {
        let _s = self.span("model.embed_tree", tokens.len());
        self.inner.begin_tree(tokens, parents, meter)
    }
    fn forward_layer_tree(
        &mut self,
        layer: usize,
        hs: &[Vec<f32>],
        parents: &[Option<usize>],
        meter: &mut Meter,
    ) -> (Vec<Vec<f32>>, TreeKv) {
        let _s = self.span("model.tree_layer", hs.len());
        self.inner.forward_layer_tree(layer, hs, parents, meter)
    }
    fn extend_tree(
        &mut self,
        tokens: &[TokenId],
        parents: &[Option<usize>],
        first_new: usize,
        meter: &mut Meter,
    ) -> Vec<Vec<f32>> {
        let _s = self.span("model.embed_tree", tokens.len() - first_new);
        self.inner.extend_tree(tokens, parents, first_new, meter)
    }
    fn forward_layer_tree_partial(
        &mut self,
        layer: usize,
        new_hs: &[Vec<f32>],
        parents: &[Option<usize>],
        first_new: usize,
        scratch: &mut TreeKv,
        meter: &mut Meter,
    ) -> Vec<Vec<f32>> {
        let _s = self.span("model.tree_layer", new_hs.len());
        self.inner
            .forward_layer_tree_partial(layer, new_hs, parents, first_new, scratch, meter)
    }
    fn commit_tree_kv(&mut self, layer: usize, kv: &TreeKv, accepted: &[usize]) {
        let _s = self.span("model.commit_kv", accepted.len());
        self.inner.commit_tree_kv(layer, kv, accepted);
    }
    fn accept_tokens(&mut self, tokens: &[TokenId]) {
        self.inner.accept_tokens(tokens);
    }
    fn fill_layer_kv(
        &mut self,
        layer: usize,
        h: &[f32],
        pos: usize,
        policy: SkipKvPolicy,
        meter: &mut Meter,
    ) {
        let _s = self.span("model.fill_kv", 1);
        self.inner.fill_layer_kv(layer, h, pos, policy, meter);
    }
    fn fill_skipped_kv(
        &mut self,
        first_skipped: usize,
        h: &[f32],
        pos: usize,
        policy: SkipKvPolicy,
        meter: &mut Meter,
    ) {
        let layers = self.inner.config().n_layers.saturating_sub(first_skipped);
        let _s = self.span("model.fill_kv", layers);
        self.inner
            .fill_skipped_kv(first_skipped, h, pos, policy, meter);
    }
    fn final_logits(&mut self, h: &[f32], meter: &mut Meter) -> Vec<f32> {
        let _s = self.span("model.lm_head", 1);
        self.inner.final_logits(h, meter)
    }
    fn final_logits_batch(&mut self, hs: &[Vec<f32>], meter: &mut Meter) -> Vec<Vec<f32>> {
        let _s = self.span("model.lm_head_batch", hs.len());
        self.inner.final_logits_batch(hs, meter)
    }
    fn slice_logits(&mut self, h: &[f32], tokens: &[TokenId], meter: &mut Meter) -> Vec<f32> {
        let _s = self.span("model.slice_logits", 1);
        self.inner.slice_logits(h, tokens, meter)
    }
    fn grouped_slice_logits(
        &mut self,
        hs: &[&[f32]],
        candidate_sets: &[&[TokenId]],
        meter: &mut Meter,
    ) -> Vec<Vec<f32>> {
        let _s = self.span("model.slice_logits", hs.len());
        self.inner.grouped_slice_logits(hs, candidate_sets, meter)
    }
    fn kv_len(&self) -> usize {
        self.inner.kv_len()
    }
    fn truncate_kv(&mut self, len: usize) {
        self.inner.truncate_kv(len);
    }
    fn allocated_kv_tokens(&self) -> usize {
        self.inner.allocated_kv_tokens()
    }
    fn modelled_weight_bytes(&self) -> f64 {
        self.inner.modelled_weight_bytes()
    }
}

impl<D: SpeculativeSource> SpeculativeSource for Traced<D> {
    fn propose(&mut self, context: &[TokenId], k: usize, meter: &mut Meter) -> Vec<TokenId> {
        let _s = self.span("draft.propose", 1);
        self.inner.propose(context, k, meter)
    }
    fn propose_tree(
        &mut self,
        context: &[TokenId],
        shape: &TreeShape,
        meter: &mut Meter,
    ) -> TokenTree {
        let _s = self.span("draft.propose_tree", 1);
        self.inner.propose_tree(context, shape, meter)
    }
    fn cached_candidates(
        &mut self,
        context: &[TokenId],
        k: usize,
        meter: &mut Meter,
    ) -> Vec<TokenId> {
        let _s = self.span("draft.cached_candidates", 1);
        self.inner.cached_candidates(context, k, meter)
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
    fn modelled_bytes(&self) -> f64 {
        self.inner.modelled_bytes()
    }
    fn self_spec(&self) -> Option<&SelfDraftSpec> {
        self.inner.self_spec()
    }
    fn forward_calls(&self) -> u64 {
        self.inner.forward_calls()
    }
}

// ---------------------------------------------------------------------------
// Round results
// ---------------------------------------------------------------------------

/// Counts the program itself reports for a round (exact, repeatable).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Output tokens.
    pub tokens: u64,
    /// Sum of executed layers over output tokens.
    pub layer_sum: u64,
    /// Predictor forwards.
    pub predictor_calls: u64,
    /// Full-LM-head verifications the predictors triggered.
    pub verify_calls: u64,
    /// Speculative rounds (tree decoding only).
    pub spec_rounds: u64,
    /// Prompt tokens of the requests that ran.
    pub prompt_tokens: u64,
    /// Output tokens that ran fewer layers than the model has.
    pub early_exits: u64,
}

/// What the serving tiers report beside tokens.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeSide {
    /// `ServeStats::p99_ttft_s` on the simulated clock, in ms.
    pub priced_ttft_ms_p99: f64,
    /// `ServeStats::avg_occupancy`.
    pub priced_occupancy: f64,
    /// Peak physical KV pages (summed over workers).
    pub kv_pages_peak: u64,
    /// Sequences evicted under page pressure.
    pub preemptions: u64,
    /// Parked sequences re-seated.
    pub resumes: u64,
    /// Verifier rejects ÷ fires, from the attached controller.
    pub false_exit_rate: f64,
    /// Decode steps per worker (one entry for a single engine).
    pub worker_steps: Vec<u64>,
    /// Wall ms of `Cluster::spawn`.
    pub spawn_ms: f64,
    /// Wall ms of each `Cluster::submit`.
    pub submit_ms: Vec<f64>,
    /// Wall ms of `Cluster::drain`.
    pub drain_ms: f64,
}

/// One round of one path of one workload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundOut {
    /// Output token ids per request, in request order (empty = the
    /// request did not complete).
    pub tokens: Vec<Vec<u32>>,
    /// Wall seconds of the path: the `generate` calls summed, or the one
    /// serving call (`run_live`; `spawn` + `submit`s + `drain`).
    pub wall_s: f64,
    /// The same, each call's wall time normalised by the machine speed
    /// probed before and after it (equal to `wall_s` when the seam does
    /// not pace).
    pub norm_s: f64,
    /// Normalised ms a caller waits on the entry point: one value per
    /// `generate` call, or one for the round's serving call (`run_live`;
    /// first `submit` to the return of `drain`), which takes every
    /// request at once and hands all tokens back together.
    pub req_ms: Vec<f64>,
    /// Seconds the same run takes priced at A100 (see `priced_tok_s` in
    /// the README): the roofline latency of the merged op trace, or the
    /// serving tier's makespan on its simulated clock.
    pub priced_s: f64,
    /// The program's own counts.
    pub counts: Counts,
    /// KV slots allocated ÷ slots holding a committed position.
    pub kv_reserved_over_used: f64,
    /// Serving-tier extras.
    pub serve: ServeSide,
    /// Requests that panicked or were reported not completed.
    pub failed: u64,
}

impl RoundOut {
    /// Output tokens ÷ normalised seconds.
    pub fn tok_s(&self) -> f64 {
        ratio(self.counts.tokens as f64, self.norm_s)
    }
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

// ---------------------------------------------------------------------------
// Solo entry points: SpecEeEngine / SpeculativeEngine / DenseEngine ::generate
// ---------------------------------------------------------------------------

/// Which single-sequence engine a solo round runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoloKind {
    /// `DenseEngine` (greedy, every layer): the reference and `solo_ar`'s
    /// no-exit twin.
    Dense,
    /// `SpecEeEngine` (T1+T2).
    SpecEeAr,
    /// `SpeculativeEngine::baseline` (EAGLE-shaped tree, no exit).
    TreeBaseline,
    /// `SpeculativeEngine::with_early_exit` (T3).
    TreeExit,
    /// `SpeculativeEngine::baseline` with the `SelfDraft` marker source:
    /// the target's own layers `0..8` draft a 3-chain (PR 10's path).
    SelfDraft,
}

enum Solo<M, D> {
    Dense(DenseEngine<M>),
    Ar(SpecEeEngine<M, D>),
    Tree(SpeculativeEngine<M, D>),
    SelfTree(SpeculativeEngine<M, SelfDraft>),
}

impl<M: LayeredLm, D: SpeculativeSource> Solo<M, D> {
    fn generate(&mut self, prompt: &[TokenId], gen_len: usize) -> GenOutput {
        match self {
            Solo::Dense(e) => e.generate(prompt, gen_len),
            Solo::Ar(e) => e.generate(prompt, gen_len),
            Solo::Tree(e) => e.generate(prompt, gen_len),
            Solo::SelfTree(e) => e.generate(prompt, gen_len),
        }
    }

    fn model(&self) -> &M {
        match self {
            Solo::Dense(e) => e.model(),
            Solo::Ar(e) => e.model(),
            Solo::Tree(e) => e.model(),
            Solo::SelfTree(e) => e.model(),
        }
    }
}

fn solo_engine<S: Seam>(bed: &Bed, seam: &S, kind: SoloKind) -> Solo<S::M, S::D> {
    let lm = seam.model(bed.lm.clone(), None);
    let draft = seam.draft(bed.draft.clone(), None);
    match kind {
        SoloKind::Dense => Solo::Dense(DenseEngine::new(lm)),
        SoloKind::SpecEeAr => Solo::Ar(SpecEeEngine::new(
            lm,
            draft,
            bed.bank.clone(),
            bed.schedule.clone(),
            bed.config.clone(),
        )),
        SoloKind::TreeBaseline => {
            Solo::Tree(SpeculativeEngine::baseline(lm, draft, bed.config.clone()))
        }
        SoloKind::TreeExit => Solo::Tree(SpeculativeEngine::with_early_exit(
            lm,
            draft,
            bed.bank.clone(),
            bed.schedule.clone(),
            bed.config.clone(),
        )),
        SoloKind::SelfDraft => Solo::SelfTree(SpeculativeEngine::baseline(
            lm,
            SelfDraft::new(SelfDraftSpec::new(8, TreeShape::chain(3))),
            bed.config.clone(),
        )),
    }
}

/// Prices a merged op trace the way `specee generate` does; seconds.
fn price_solo(meter: &Meter) -> f64 {
    Roofline::with_framework(
        HardwareProfile::a100_80g(),
        FrameworkProfile::hugging_face(),
    )
    .cost(meter)
    .latency_s
}

fn add_layers(counts: &mut Counts, exit_layers: &[usize], n_layers: usize) {
    counts.tokens += exit_layers.len() as u64;
    counts.layer_sum += exit_layers.iter().sum::<usize>() as u64;
    counts.early_exits += exit_layers.iter().filter(|&&l| l < n_layers).count() as u64;
}

fn add_output(counts: &mut Counts, meter: &mut Meter, out: &GenOutput, n_layers: usize) {
    add_layers(counts, &out.exit_layers, n_layers);
    counts.predictor_calls += out.predictor_calls;
    counts.verify_calls += out.verify_calls;
    counts.spec_rounds += out.rounds;
    meter.merge(&out.meter);
}

/// One round through a fresh single-sequence engine: every request is one
/// `generate` call, timed on its own; a panicking call fails that request
/// and the rest of the round runs on a new engine.
pub fn solo_round<S: Seam>(bed: &Bed, seam: &S, kind: SoloKind, reqs: &[PlainRequest]) -> RoundOut {
    let mut out = RoundOut::default();
    let mut meter = Meter::new();
    let mut engine = solo_engine(bed, seam, kind);
    let (mut reserved, mut used) = (0usize, 0usize);
    let mut speed_before = seam.probe();
    for req in reqs {
        let span = seam.span("core.request", Some(req.id));
        let t = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            engine.generate(&req.prompt, req.gen_len)
        }));
        let wall = t.elapsed().as_secs_f64();
        drop(span);
        let speed_after = seam.probe();
        let norm = wall * (speed_before + speed_after) / 2.0;
        speed_before = speed_after;
        match result {
            Ok(gen) => {
                out.wall_s += wall;
                out.norm_s += norm;
                out.req_ms.push(norm * 1e3);
                out.counts.prompt_tokens += req.prompt.len() as u64;
                add_output(&mut out.counts, &mut meter, &gen, bed.n_layers());
                out.tokens.push(gen.tokens);
                reserved += engine.model().allocated_kv_tokens();
                used += engine.model().kv_len() * bed.n_layers();
            }
            Err(_) => {
                out.failed += 1;
                out.tokens.push(Vec::new());
                engine = solo_engine(bed, seam, kind);
            }
        }
    }
    out.priced_s = price_solo(&meter);
    out.kv_reserved_over_used = ratio(reserved as f64, used as f64);
    out
}

// ---------------------------------------------------------------------------
// Live entry point: ContinuousBatcher::run_live on a BatchedEngine
// ---------------------------------------------------------------------------

/// Exit-threshold controller attached to a batched engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Controller {
    /// Fixed thresholds (`ControllerPolicy::Static`).
    Static,
    /// Per-layer PI control with default gains (`ControllerPolicy::pid()`).
    Pid,
}

/// Knobs of a batched engine beyond its schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineOpts {
    /// Batch cap.
    pub cap: usize,
    /// Exit-threshold controller.
    pub controller: Controller,
    /// Attach a `specee-obs` `Recorder`.
    pub recorder: bool,
    /// Co-lease matching prompt pages copy-on-write.
    pub prefix_share: bool,
}

impl EngineOpts {
    /// Static controller, no recorder, no prefix sharing.
    pub fn plain(cap: usize) -> Self {
        EngineOpts {
            cap,
            controller: Controller::Static,
            recorder: false,
            prefix_share: false,
        }
    }
}

fn batched_engine<S: Seam>(bed: &Bed, path: Path, opts: &EngineOpts) -> BatchedEngine<S::M, S::D> {
    let mut engine = BatchedEngine::new(
        opts.cap,
        PAGE_SIZE,
        bed.n_layers(),
        bed.bank.clone(),
        bed.schedule_for(path),
        bed.config.clone(),
    );
    engine.set_backend(BACKEND);
    engine.enable_prefix_share(opts.prefix_share);
    let policy = match opts.controller {
        Controller::Static => ControllerPolicy::Static,
        Controller::Pid => ControllerPolicy::pid(),
    };
    engine.set_controller(policy.build_classed(bed.bank.len(), bed.config.predictor.threshold));
    if opts.recorder {
        engine.set_recorder(Some(Recorder::for_worker(0)));
    }
    engine
}

fn serve_request(req: &PlainRequest) -> ServeRequest {
    ServeRequest {
        id: req.id,
        prompt: req.prompt.clone(),
        gen_len: req.gen_len,
        arrival_s: req.arrival_s,
    }
}

fn add_batched(counts: &mut Counts, out: &BatchedOutput, n_layers: usize) {
    add_layers(counts, &out.exit_layers, n_layers);
    counts.predictor_calls += out.predictor_calls;
    counts.verify_calls += out.verify_calls;
}

fn serve_side_from(stats: &ServeStats) -> ServeSide {
    ServeSide {
        priced_ttft_ms_p99: stats.p99_ttft_s * 1e3,
        priced_occupancy: stats.avg_occupancy,
        ..ServeSide::default()
    }
}

/// One round through `ContinuousBatcher::run_live`: a fresh engine, all
/// requests handed over in one call, every sequence built by cloning the
/// bed's model and draft. A panic fails the whole round.
pub fn live_round<S: Seam>(
    bed: &Bed,
    seam: &S,
    path: Path,
    opts: &EngineOpts,
    reqs: &[PlainRequest],
) -> RoundOut {
    let mut out = RoundOut::default();
    let requests: Vec<ServeRequest> = reqs.iter().map(serve_request).collect();
    let batcher = ContinuousBatcher::new(bed.batcher_config(opts.cap));
    let mut engine = batched_engine::<S>(bed, path, opts);
    let speed_before = seam.probe();
    let span = seam.span("serve.run_live", None);
    let t = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        batcher.run_live(&requests, &mut engine, |req| {
            (
                seam.model(bed.lm.clone(), Some(req.id)),
                seam.draft(bed.draft.clone(), Some(req.id)),
            )
        })
    }));
    out.wall_s = t.elapsed().as_secs_f64();
    drop(span);
    out.norm_s = out.wall_s * (speed_before + seam.probe()) / 2.0;
    let Ok(outcome) = result else {
        out.failed = reqs.len() as u64;
        out.tokens = vec![Vec::new(); reqs.len()];
        return out;
    };
    out.req_ms = vec![out.norm_s * 1e3];
    for (req, seq) in reqs.iter().zip(&outcome.outputs) {
        if seq.tokens.len() != req.gen_len {
            out.failed += 1;
        }
        out.counts.prompt_tokens += req.prompt.len() as u64;
        add_batched(&mut out.counts, seq, bed.n_layers());
        out.tokens.push(seq.tokens.clone());
    }
    let stats = outcome.report.stats();
    out.priced_s = outcome.report.makespan_s;
    let kv = engine.kv_stats();
    out.serve = ServeSide {
        kv_pages_peak: kv.pages_peak as u64,
        preemptions: engine.preemptions(),
        resumes: engine.resumes(),
        false_exit_rate: engine
            .controller_summary()
            .and_then(|s| s.false_exit_rate())
            .unwrap_or(0.0),
        worker_steps: vec![outcome.report.steps],
        ..serve_side_from(&stats)
    };
    out
}

// ---------------------------------------------------------------------------
// BatchedEngine::admit / step, driven directly
// ---------------------------------------------------------------------------

/// What driving `BatchedEngine::admit` / `step` by hand measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DirectOut {
    /// Output token ids per request, in request order.
    pub tokens: Vec<Vec<u32>>,
    /// Wall seconds of all `admit` and `step` calls.
    pub wall_s: f64,
    /// Wall ms of each `admit` call (prompt processing).
    pub admit_ms: Vec<f64>,
    /// Wall ms of each `step` call.
    pub step_ms: Vec<f64>,
    /// Output tokens.
    pub out_tokens: u64,
    /// Sum over steps of the rearmost layer any slot executed.
    pub rearmost_sum: u64,
    /// Sum over steps of (layer, slot) runs.
    pub layer_runs: u64,
    /// Sum over steps of seated sequences.
    pub occupancy_sum: u64,
    /// Tokens emitted by steps (excludes each request's prefill token).
    pub step_tokens: u64,
    /// Sum over steps of KV slots the pool holds ÷ positions attended.
    pub reserved_over_used_sum: f64,
    /// Most pages with two or more lessees seen after any step.
    pub shared_pages_peak: u64,
    /// Copy-on-write page copies over the drive.
    pub cow_copies: u64,
    /// Prompt pages admission found already resident.
    pub prefix_pages_hit: u64,
    /// Prompt pages admission needed in all.
    pub prefix_pages_total: u64,
}

/// Admits requests in order whenever a slot is free and steps until all
/// are done — the admission order `run_live` follows when every request
/// has arrived — timing each `admit` and `step` call.
pub fn drive_direct<S: Seam>(
    bed: &Bed,
    seam: &S,
    path: Path,
    opts: &EngineOpts,
    reqs: &[PlainRequest],
) -> DirectOut {
    let mut out = DirectOut {
        tokens: vec![Vec::new(); reqs.len()],
        ..DirectOut::default()
    };
    let mut engine = batched_engine::<S>(bed, path, opts);
    let mut next = 0usize;
    let mut finished = 0usize;
    let done = |out: &mut DirectOut, seq: BatchedOutput| {
        out.out_tokens += seq.tokens.len() as u64;
        out.tokens[seq.id as usize] = seq.tokens;
    };
    while finished < reqs.len() {
        while next < reqs.len() && engine.has_free_slot() {
            let req = &reqs[next];
            let total = req.prompt.len().div_ceil(PAGE_SIZE);
            out.prefix_pages_total += total as u64;
            out.prefix_pages_hit +=
                total.saturating_sub(engine.pages_for_admit(&req.prompt)) as u64;
            let model = seam.model(bed.lm.clone(), Some(req.id));
            let draft = seam.draft(bed.draft.clone(), Some(req.id));
            let span = seam.span("batch.admit", Some(req.id));
            let t = Instant::now();
            let admission = engine.admit(req.id, model, draft, &req.prompt, req.gen_len);
            out.admit_ms.push(ms(t));
            drop(span);
            if let Admission::Done(seq) = admission {
                done(&mut out, seq);
                finished += 1;
            }
            next += 1;
        }
        if engine.occupancy() == 0 {
            continue;
        }
        let span = seam.span("batch.step", None);
        let t = Instant::now();
        let step = engine.step();
        out.step_ms.push(ms(t));
        drop(span);
        out.rearmost_sum += step.rearmost_layer() as u64;
        out.layer_runs += step.layer_runners.iter().sum::<usize>() as u64;
        out.occupancy_sum += step.ctx_lens.len() as u64;
        out.step_tokens += step.emitted as u64;
        let attended: usize = step.ctx_lens.iter().sum();
        out.reserved_over_used_sum += ratio(
            (engine.pool().pages_in_use() * PAGE_SIZE) as f64,
            attended as f64,
        );
        out.shared_pages_peak = out
            .shared_pages_peak
            .max(engine.kv_stats().shared_pages as u64);
        for seq in step.finished {
            done(&mut out, seq);
            finished += 1;
        }
    }
    out.cow_copies = engine.kv_stats().cow_copies;
    out.wall_s = (out.admit_ms.iter().sum::<f64>() + out.step_ms.iter().sum::<f64>()) / 1e3;
    out
}

// ---------------------------------------------------------------------------
// Cluster entry point: Cluster::spawn / submit / drain
// ---------------------------------------------------------------------------

/// Shape of a cluster round.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterOpts {
    /// Worker threads.
    pub workers: usize,
    /// Batch cap per worker.
    pub cap: usize,
    /// Physical KV pages per worker (`None` = uncapped).
    pub page_capacity: Option<usize>,
    /// Co-lease matching prompt pages copy-on-write.
    pub prefix_share: bool,
    /// Evict lower-priority residents under page pressure, and honour
    /// the requests' lanes.
    pub lanes_and_preemption: bool,
}

/// One round through a fresh `Cluster`: `spawn`, one `submit` per request
/// in arrival order, `drain`. The exit-aware router gets the trained
/// schedule's expected depth as every request's hint, as the CLI does.
pub fn cluster_round<S: Seam>(
    bed: &Bed,
    seam: &S,
    path: Path,
    opts: &ClusterOpts,
    reqs: &[PlainRequest],
) -> RoundOut {
    let mut out = RoundOut::default();
    let config = ClusterConfig {
        workers: opts.workers,
        page_size: PAGE_SIZE,
        page_capacity: opts.page_capacity,
        prefix_share: opts.prefix_share,
        preemption: opts.lanes_and_preemption,
        admission: AdmissionPolicy::Fcfs,
        batcher: bed.batcher_config(opts.cap),
        controller: ControllerPolicy::Static,
        gossip: true,
        trace: false,
        trace_sample: 1,
        slo: None,
    };
    let (lm, draft, factory_seam) = (bed.lm.clone(), bed.draft.clone(), seam.clone());
    let speed_before = seam.probe();
    let round = seam.span("cluster.round", None);
    let t_round = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut side = ServeSide::default();
        let span = seam.span("cluster.spawn", None);
        let t = Instant::now();
        let mut cluster: Cluster<S::M, S::D> = Cluster::spawn(
            &config,
            RouterPolicy::ExitAware.build(),
            &bed.bank,
            &bed.schedule_for(path),
            &bed.config,
            Arc::new(move |req: &ClusterRequest| {
                let id = Some(req.request.id);
                (
                    factory_seam.model(lm.clone(), id),
                    factory_seam.draft(draft.clone(), id),
                )
            }),
        );
        side.spawn_ms = ms(t);
        drop(span);
        let first_submit = Instant::now();
        for req in reqs {
            let lane = if opts.lanes_and_preemption {
                req.lane
            } else {
                0
            };
            let request = ClusterRequest::new(serve_request(req))
                .with_exit_hint(bed.expected_depth)
                .with_lane(Lane::new(lane));
            let span = seam.span("cluster.submit", Some(req.id));
            let t = Instant::now();
            cluster.submit(request);
            side.submit_ms.push(ms(t));
            drop(span);
        }
        let span = seam.span("cluster.drain", None);
        let t = Instant::now();
        let report = cluster.drain();
        side.drain_ms = ms(t);
        drop(span);
        (report, side, ms(first_submit))
    }));
    out.wall_s = t_round.elapsed().as_secs_f64();
    drop(round);
    let speed = (speed_before + seam.probe()) / 2.0;
    out.norm_s = out.wall_s * speed;
    let Ok((report, side, req_ms)) = result else {
        out.failed = reqs.len() as u64;
        out.tokens = vec![Vec::new(); reqs.len()];
        return out;
    };
    out.req_ms = vec![req_ms * speed];
    out.tokens = vec![Vec::new(); reqs.len()];
    for seq in report.outputs() {
        add_batched(&mut out.counts, seq, bed.n_layers());
        out.tokens[seq.id as usize] = seq.tokens.clone();
    }
    let missing = report.not_completed();
    for (req, tokens) in reqs.iter().zip(&out.tokens) {
        out.counts.prompt_tokens += req.prompt.len() as u64;
        if tokens.len() != req.gen_len || missing.contains(&req.id) {
            out.failed += 1;
        }
    }
    let stats = report.stats();
    out.priced_s = report.aggregate().makespan_s;
    out.serve = ServeSide {
        kv_pages_peak: report.kv_pages_peak() as u64,
        preemptions: report.preemptions(),
        resumes: report.resumes(),
        worker_steps: report.workers.iter().map(|w| w.report.steps).collect(),
        ..ServeSide {
            spawn_ms: side.spawn_ms,
            submit_ms: side.submit_ms,
            drain_ms: side.drain_ms,
            ..serve_side_from(&stats)
        }
    };
    out
}

// ---------------------------------------------------------------------------
// Micro probes: direct timed calls at the executed 7B(sim) shapes
// ---------------------------------------------------------------------------

/// Mean ns per call of each micro probe.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Micro {
    /// `Backend::matvec_into`, 2048×128, reference kernels.
    pub matvec_reference_ns: f64,
    /// The same on the blocked kernels.
    pub matvec_blocked_ns: f64,
    /// The same on the i8 kernels.
    pub matvec_quant_ns: f64,
    /// `GroupedGemm::run_with`, 16 groups × 4 rows of a 2048×128 weight.
    pub grouped_gemm_ns: f64,
    /// `attention_forward` over 64 cached positions.
    pub attention_ctx64_ns: f64,
    /// `attention_forward` over 512 cached positions.
    pub attention_ctx512_ns: f64,
    /// `ffn_forward`.
    pub ffn_ns: f64,
    /// `prefill` of a 64-token prompt, per prompt token.
    pub prefill_ns_per_tok: f64,
    /// 1 − (`Transformer::forward_layer` ÷ `SyntheticLm::forward_layer`).
    pub steer_overhead_share: f64,
    /// `ExitPredictor::score`, K = 4.
    pub predictor_score_ns: f64,
    /// `StepCostModel::decode_step_latency` at batch 8.
    pub price_step_ns: f64,
    /// `Roofline::cost` of one request's op trace.
    pub price_ns: f64,
}

/// Median over `BATCHES` batches of the mean ns per call.
fn time_ns(calls: usize, mut f: impl FnMut()) -> f64 {
    const BATCHES: usize = 5;
    f();
    let means: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    crate::stats::median(&means)
}

/// Runs every micro probe (about a second in all).
pub fn micro(bed: &Bed) -> Micro {
    let cfg = &bed.cfg;
    let mut rng = Pcg::seed(MODEL_SEED ^ 0x3c);
    let x: Vec<f32> = (0..cfg.hidden_dim).map(|_| rng.normal() as f32).collect();
    let mut meter = Meter::new();

    let weight = Matrix::random(cfg.vocab_size, cfg.hidden_dim, 0.1, &mut rng);
    let mut y = vec![0.0f32; cfg.vocab_size];
    let mut matvec = |kind: BackendKind| {
        time_ns(200, || {
            kind.get()
                .matvec_into(black_box(&weight), black_box(&x), &mut y);
            black_box(&y);
        })
    };
    let matvec_reference_ns = matvec(BackendKind::Reference);
    let matvec_blocked_ns = matvec(BackendKind::Blocked);
    let matvec_quant_ns = matvec(BackendKind::QuantizedI8);

    let specs: Vec<GroupedGemmSpec> = (0..16)
        .map(|g| GroupedGemmSpec::new((0..4).map(|i| (g * 97 + i * 13) % cfg.vocab_size).collect()))
        .collect();
    let plan = GroupedGemm::plan(&weight, &specs);
    let inputs: Vec<Vec<f32>> = (0..16).map(|_| x.clone()).collect();
    let grouped_gemm_ns = time_ns(200, || {
        black_box(plan.run_with(BACKEND.get(), black_box(&inputs)));
    });

    let inner = bed.lm.inner();
    let layer = &inner.weights().layers[0];
    let scale = inner.scale();
    let mut attention = |ctx: usize| {
        let mut cache = KvCache::new(cfg.hidden_dim, KvLayout::Contiguous);
        for _ in 0..ctx {
            cache.push(&x, &x);
        }
        time_ns(100, || {
            cache.truncate(ctx);
            black_box(attention_forward(
                layer, cfg, scale, BACKEND, &x, ctx, &mut cache, &mut meter,
            ));
        })
    };
    let attention_ctx64_ns = attention(64);
    let attention_ctx512_ns = attention(512);
    let ffn_ns = time_ns(200, || {
        black_box(ffn_forward(
            layer,
            scale,
            BACKEND,
            black_box(&x),
            &mut meter,
        ));
    });

    let prompt: Vec<TokenId> = (0..64).map(|i| 1 + (i * 31) % (VOCAB - 1)).collect();
    let mut lm = bed.lm.clone();
    let prefill_ns_per_tok = time_ns(1, || {
        lm.reset();
        black_box(prefill(&mut lm, &prompt, &mut meter));
    }) / prompt.len() as f64;

    // One decoded position through all layers: the synthetic twin against
    // the transformer it wraps (same weights, same KV length).
    let mut synth = bed.lm.clone();
    let synth_ns = time_ns(3, || {
        synth.reset();
        prefill(&mut synth, &prompt[..8], &mut meter);
    });
    let mut plain = bed.lm.inner().clone();
    let plain_ns = time_ns(3, || {
        plain.reset();
        prefill(&mut plain, &prompt[..8], &mut meter);
    });
    let steer_overhead_share = 1.0 - ratio(plain_ns, synth_ns);

    let k = bed.config.predictor.spec_k;
    let features = ExitFeatures {
        logits: vec![0.5; k],
        probs: vec![1.0 / k as f32; k],
        delta: vec![0.01; k],
    };
    let predictor = bed.bank.layer(bed.n_layers() / 2);
    let predictor_score_ns = time_ns(2000, || {
        black_box(predictor.score(black_box(&features), &mut meter));
    });

    let cost = bed.batcher_config(8);
    let step_model = StepCostModel::new(cost.cost, cost.hardware, cost.framework);
    let spec = StepSpec {
        layer_runners: (0..bed.n_layers()).map(|l| 8 - l / 5).collect(),
        ctx_lens: vec![48; 8],
        lm_head_evals: 10.0,
        draft_slots: 8,
        self_draft_slots: 0,
        predictor_calls: 80.0,
    };
    let price_step_ns = time_ns(2000, || {
        black_box(step_model.decode_step_latency(black_box(&spec)));
    });

    let gen = DenseEngine::new(bed.lm.clone()).generate(&prompt[..8], 8);
    let roofline = Roofline::with_framework(
        HardwareProfile::a100_80g(),
        FrameworkProfile::hugging_face(),
    );
    let price_ns = time_ns(2000, || {
        black_box(roofline.cost(black_box(&gen.meter)));
    });

    Micro {
        matvec_reference_ns,
        matvec_blocked_ns,
        matvec_quant_ns,
        grouped_gemm_ns,
        attention_ctx64_ns,
        attention_ctx512_ns,
        ffn_ns,
        prefill_ns_per_tok,
        steer_overhead_share,
        predictor_score_ns,
        price_step_ns,
        price_ns,
    }
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn bed() -> &'static Bed {
        static BED: std::sync::OnceLock<Bed> = std::sync::OnceLock::new();
        BED.get_or_init(Bed::build)
    }

    #[test]
    fn traced_model_and_draft_return_what_the_wrapped_values_return() {
        let bed = bed();
        let tracer = Tracer::new();
        let mut plain = bed.lm.clone();
        let mut traced = Traced::new(bed.lm.clone(), Arc::clone(&tracer), Some(3));
        let (mut m1, mut m2) = (Meter::new(), Meter::new());
        assert_eq!(traced.config(), plain.config());
        assert_eq!(LayeredLm::backend(&traced), LayeredLm::backend(&plain));
        for (pos, token) in [5u32, 9, 2].into_iter().enumerate() {
            let mut h1 = plain.begin_token(token, &mut m1);
            let mut h2 = traced.begin_token(token, &mut m2);
            assert_eq!(h1, h2);
            for layer in 0..4 {
                h1 = plain.forward_layer(layer, &h1, pos, &mut m1);
                h2 = traced.forward_layer(layer, &h2, pos, &mut m2);
                assert_eq!(h1, h2, "layer {layer}");
            }
            assert_eq!(
                plain.slice_logits(&h1, &[1, 2, 3, 4], &mut m1),
                traced.slice_logits(&h2, &[1, 2, 3, 4], &mut m2)
            );
            assert_eq!(
                plain.final_logits(&h1, &mut m1),
                traced.final_logits(&h2, &mut m2)
            );
            plain.fill_skipped_kv(4, &h1, pos, SkipKvPolicy::ProjectExitHidden, &mut m1);
            traced.fill_skipped_kv(4, &h2, pos, SkipKvPolicy::ProjectExitHidden, &mut m2);
            assert_eq!(plain.kv_len(), traced.kv_len());
            assert_eq!(plain.allocated_kv_tokens(), traced.allocated_kv_tokens());
        }
        assert_eq!(m1, m2, "the wrapper meters nothing of its own");

        let mut draft = bed.draft.clone();
        let mut traced_draft = Traced::new(bed.draft.clone(), Arc::clone(&tracer), Some(3));
        assert_eq!(
            draft.propose(&[4, 8, 15], 4, &mut m1),
            traced_draft.propose(&[4, 8, 15], 4, &mut m2)
        );
        let shape = TreeShape::new(vec![2, 2]);
        assert_eq!(
            draft.propose_tree(&[4, 8], &shape, &mut m1).len(),
            traced_draft.propose_tree(&[4, 8], &shape, &mut m2).len()
        );
        assert_eq!(traced_draft.self_spec(), None);

        let spans = tracer.spans();
        let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
        assert_eq!(count("model.embed"), 3);
        assert_eq!(count("model.layer"), 12);
        assert_eq!(count("model.fill_kv"), 3);
        assert_eq!(count("draft.propose"), 1);
        assert!(spans.iter().all(|s| s.seq == Some(3)));
    }

    #[test]
    fn traced_solo_ar_round_emits_the_same_tokens_as_an_untraced_one() {
        let bed = bed();
        let reqs = Workload::SoloAr.requests(5, 0);
        let bare = solo_round(bed, &Bare, SoloKind::SpecEeAr, &reqs);
        let tracer = Tracer::new();
        let traced = solo_round(bed, &Spans(Arc::clone(&tracer)), SoloKind::SpecEeAr, &reqs);
        assert_eq!(bare.tokens, traced.tokens);
        assert_eq!(bare.counts, traced.counts);
        assert_eq!(bare.priced_s, traced.priced_s);
        assert_eq!(bare.failed, 0);
        assert!(bare
            .tokens
            .iter()
            .zip(&reqs)
            .all(|(t, r)| t.len() == r.gen_len));
        assert_eq!(bare.req_ms.len(), reqs.len());

        // Layer spans outside prompt processing, per output token, are
        // the engine's own average executed depth.
        let spans = tracer.spans();
        let layer_calls = spans.iter().filter(|s| s.name == "model.layer").count() as u64;
        let counts = &traced.counts;
        let prompt_only = (counts.prompt_tokens - reqs.len() as u64) * bed.n_layers() as u64;
        assert_eq!(layer_calls - prompt_only, counts.layer_sum);
        // Every call span hangs off its request span.
        let requests = spans.iter().filter(|s| s.name == "core.request").count();
        assert_eq!(requests, reqs.len());
        assert!(spans.iter().filter(|s| s.layer() != "core").all(|s| s
            .parent
            .is_some_and(|p| spans[p as usize].name == "core.request")));
    }

    #[test]
    fn a_panicking_request_fails_alone() {
        let bed = bed();
        let mut reqs = Workload::SoloAr.requests(5, 0);
        reqs.truncate(3);
        // `generate` asserts a non-empty prompt.
        reqs[1].prompt.clear();
        let out = solo_round(bed, &Bare, SoloKind::Dense, &reqs);
        assert_eq!(out.failed, 1);
        assert_eq!(out.tokens[0].len(), reqs[0].gen_len);
        assert!(out.tokens[1].is_empty());
        assert_eq!(out.tokens[2].len(), reqs[2].gen_len);
    }

    #[test]
    fn live_tokens_equal_solo_tokens_and_no_exit_equals_dense() {
        let bed = bed();
        let mut reqs = Workload::LiveBatch.requests(9, 0);
        reqs.truncate(5);
        let solo = |kind| -> Vec<Vec<u32>> {
            reqs.iter()
                .flat_map(|r| solo_round(bed, &Bare, kind, std::slice::from_ref(r)).tokens)
                .collect()
        };
        let opts = EngineOpts::plain(3);
        let live = live_round(bed, &Bare, Path::SpecEe, &opts, &reqs);
        assert_eq!(live.failed, 0);
        assert_eq!(live.tokens, solo(SoloKind::SpecEeAr));
        let tracer = Tracer::new();
        let traced = live_round(bed, &Spans(tracer), Path::SpecEe, &opts, &reqs);
        assert_eq!(traced.tokens, live.tokens);
        assert_eq!(traced.priced_s, live.priced_s);

        let no_exit = live_round(bed, &Bare, Path::NoExit, &opts, &reqs);
        assert_eq!(no_exit.tokens, solo(SoloKind::Dense));
        assert_eq!(no_exit.counts.early_exits, 0);
        assert_eq!(no_exit.counts.predictor_calls, 0);
        assert_eq!(
            no_exit.counts.layer_sum,
            no_exit.counts.tokens * bed.n_layers() as u64
        );

        let direct = drive_direct(bed, &Bare, Path::SpecEe, &opts, &reqs);
        assert_eq!(direct.tokens, live.tokens);
        assert_eq!(direct.out_tokens, live.counts.tokens);
        assert_eq!(direct.admit_ms.len(), reqs.len());
    }

    #[test]
    fn cluster_tokens_survive_sharing_capping_and_tracing() {
        let bed = bed();
        let mut reqs = Workload::ClusterPrefix.requests(4, 0);
        reqs.truncate(5);
        let plain = ClusterOpts {
            workers: 1,
            cap: 2,
            page_capacity: None,
            prefix_share: false,
            lanes_and_preemption: false,
        };
        let tight = ClusterOpts {
            workers: 2,
            page_capacity: Some(6),
            prefix_share: true,
            lanes_and_preemption: true,
            ..plain.clone()
        };
        let reference = cluster_round(bed, &Bare, Path::SpecEe, &plain, &reqs);
        let capped = cluster_round(bed, &Bare, Path::SpecEe, &tight, &reqs);
        let traced = cluster_round(bed, &Spans(Tracer::new()), Path::SpecEe, &tight, &reqs);
        assert_eq!(reference.failed + capped.failed + traced.failed, 0);
        assert_eq!(reference.tokens, capped.tokens);
        assert_eq!(reference.tokens, traced.tokens);
        assert_eq!(capped.serve.worker_steps.len(), 2);
        assert_eq!(capped.serve.submit_ms.len(), reqs.len());
    }

    #[test]
    fn micro_probes_all_measure_something() {
        let m = micro(bed());
        for v in [
            m.matvec_reference_ns,
            m.matvec_blocked_ns,
            m.matvec_quant_ns,
            m.grouped_gemm_ns,
            m.attention_ctx64_ns,
            m.attention_ctx512_ns,
            m.ffn_ns,
            m.prefill_ns_per_tok,
            m.predictor_score_ns,
            m.price_step_ns,
            m.price_ns,
        ] {
            assert!(v > 0.0);
        }
        assert!(m.attention_ctx512_ns > m.attention_ctx64_ns);
        assert!(m.steer_overhead_share < 1.0);
    }
}
