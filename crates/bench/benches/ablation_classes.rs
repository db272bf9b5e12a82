//! Serving extension (ours): the traffic-class-keyed feedback plane on
//! a *mixed* stream (`specee-control` classed controllers +
//! `specee-cluster` gossip).
//!
//! `ablation_controller` showed closed-loop control recovering from
//! traffic *drift* — phases arrive one after another, so one global
//! operating point can chase them. This harness breaks the single
//! controller a different way: two traffic classes **interleave**
//! request-by-request with short generations, so there is no quiet
//! phase to converge in. Class S is shallow chat-style traffic (exits
//! save a third of all decode work at a permissive threshold); class D
//! is draft-hostile traffic that *looks identical to S* — same exit
//! layers, same predictor scores — but whose candidate sets miss, so
//! its fires are rejected verifications and its honest operating point
//! is "exits off". No threshold, layer schedule, or score band
//! separates the classes; only the class tag does.
//!
//! Legs:
//!
//! 1. **parity** — a static classed controller on the tagged stream is
//!    bit-identical to no controller;
//! 2. **per-class oracle** — hindsight grid sweep per class subset (the
//!    bound no online policy beats without clairvoyance), plus the best
//!    *class-blind* static as the strongest single-threshold baseline;
//! 3. **batch-1 contenders** — global pid/bandit (untagged) vs
//!    per-class pid/bandit (tagged) on the identical stream;
//! 4. **cluster + gossip** — a 5-worker round-robin cluster (batch 1
//!    per worker, so pricing matches the batch-1 legs; worker count
//!    coprime to the stream period, so every worker serves a mixed
//!    diet) with per-class controllers and coordinator gossip, against
//!    the same cluster serving dense (no-exit) and the cluster with one
//!    global controller.
//!
//! Asserted: per-class controllers recover ≥ 95% of the per-class
//! hindsight-oracle speedup, the per-class *bandit* strictly beats the
//! global bandit (a single Thompson posterior over the blend is
//! structurally poisoned — mixed windows earn mixed rewards and trip
//! the accuracy floor — which is exactly the conditioning-on-traffic
//! argument of the EESD control mechanism), per-class PID stays within
//! noise of the global PID (whose per-layer loops already absorb
//! layer-separable class structure — an honest negative finding this
//! harness documents), the cluster with per-class controllers + gossip
//! clears the same ≥ 95% bar and strictly beats the global-controller
//! cluster, and token agreement vs the dense references is held
//! everywhere.

use std::sync::Arc;

use specee_batch::{Admission, BatchedEngine, BatchedOutput};
use specee_bench::*;
use specee_cluster::{Cluster, ClusterConfig, ClusterRequest, RouterPolicy};
use specee_control::ControllerPolicy;
use specee_core::collect::{collect_training_data, train_bank};
use specee_core::engine::DenseEngine;
use specee_core::output::agreement;
use specee_core::predictor::PredictorBank;
use specee_core::{Lane, ScheduleEngine, SpecEeConfig, TrafficClass};
use specee_metrics::{report::fmt_x, FrameworkProfile, HardwareProfile, Table};
use specee_model::{ModelConfig, TokenId};
use specee_nn::TrainConfig;
use specee_serve::{AdmissionPolicy, BatcherConfig, ServeRequest};
use specee_synth::{DatasetProfile, OracleDraft, SyntheticLm};
use specee_tensor::rng::Pcg;

const GEN: usize = 6;
/// Requests per class; the stream interleaves them D, S, S, D, …
const PER_CLASS: usize = 32;

/// Class S: shallow chat traffic — tokens settle within the first few
/// layers, harvesting exits saves roughly a third of all decode work.
fn shallow_profile() -> DatasetProfile {
    DatasetProfile {
        exit_mu: 0.0625,
        exit_sigma: 0.01,
        early_frac: 0.0,
        early_mu: 0.06,
        ..DatasetProfile::mt_bench()
    }
}

/// Class D: *draft-hostile* traffic. Tokens saturate exactly as early
/// as class S's — to the shallow-trained predictor the two classes are
/// indistinguishable, firing at the same layers and scores — but the
/// draft barely knows the domain (`hit_rate` 0.1), so the candidate set
/// almost never contains the true token and nearly every fire is a
/// rejected full-LM-head verification. No threshold separates the
/// classes (same layers, same scores); only the class tag does. The
/// honest class-D operating point is the 1.0 off-arm.
fn deep_profile() -> DatasetProfile {
    DatasetProfile {
        exit_mu: 0.0625,
        exit_sigma: 0.01,
        early_frac: 0.0,
        early_mu: 0.06,
        hit_rate: 0.1,
        ..DatasetProfile::mt_bench()
    }
}

const CLASS_S: TrafficClass = TrafficClass::new(1);
const CLASS_D: TrafficClass = TrafficClass::new(4);

/// The static grid shared by the oracle sweep and the bandit; 1.0 is
/// the exits-off arm. Mirrors `ablation_controller`'s grid.
const GRID: [f32; 6] = [0.2, 0.35, 0.5, 0.65, 0.8, 1.0];

/// One request of the mixed stream.
#[derive(Clone)]
struct StreamReq {
    id: u64,
    class: TrafficClass,
}

impl StreamReq {
    fn profile(&self) -> DatasetProfile {
        if self.class == CLASS_S {
            shallow_profile()
        } else {
            deep_profile()
        }
    }
}

/// The interleaved stream: D, S, S, D repeating (`PER_CLASS` of each).
/// The period-4 pattern keeps the blend fine-grained, and the cluster
/// leg's worker count is chosen coprime to it so round-robin gives
/// every worker a mixed diet — a pattern whose period divides the
/// worker count would let parity routing segregate the classes, park
/// all deep traffic on one worker, and hide the per-class-control
/// question behind that worker's makespan.
fn mixed_stream() -> Vec<StreamReq> {
    (0..2 * PER_CLASS as u64)
        .map(|id| StreamReq {
            id,
            class: if matches!(id % 4, 0 | 3) {
                CLASS_D
            } else {
                CLASS_S
            },
        })
        .collect()
}

struct Harness {
    cfg: ModelConfig,
    seed: u64,
    bank: PredictorBank,
    schedule: ScheduleEngine,
    config: SpecEeConfig,
    dense_refs: std::cell::RefCell<std::collections::HashMap<u64, Vec<TokenId>>>,
}

impl Harness {
    /// Trains the bank on the shallow class only with modest capacity,
    /// exactly as `ablation_controller` does: the threshold really is
    /// the operating point, and because class D shares class S's exit
    /// geometry the predictor scores the two classes alike — the
    /// separation has to come from the class tag, not the score.
    fn build(cfg: &ModelConfig, seed: u64) -> Self {
        let predictor = specee_core::predictor::PredictorConfig {
            hidden_dim: 16,
            ..paper_predictor()
        };
        let profile = shallow_profile();
        let mut lm = build_lm(cfg, &profile, seed, ModelVariant::Dense);
        let mut draft = build_draft(&lm, cfg, seed);
        let lang = *lm.language();
        let prompts: Vec<(Vec<TokenId>, usize)> = (0..TRAIN_PROMPTS)
            .map(|i| {
                let start = (seed as u32 + i as u32 * 7) % cfg.vocab_size as u32;
                (
                    lang.sample_sequence(start, 12, seed ^ (i as u64)),
                    TRAIN_GEN,
                )
            })
            .collect();
        let collection = collect_training_data(&mut lm, &mut draft, &prompts, predictor.spec_k);
        let mut bank = PredictorBank::new(cfg.n_layers, &predictor, &mut Pcg::seed(seed ^ 0xb4));
        train_bank(
            &mut bank,
            &collection.samples,
            1.0,
            &TrainConfig {
                epochs: 6,
                lr: 3e-3,
                ..TrainConfig::default()
            },
            seed ^ 0x7e,
        );
        Harness {
            cfg: cfg.clone(),
            seed,
            bank,
            schedule: ScheduleEngine::all_layers(cfg.n_layers),
            config: SpecEeConfig {
                predictor,
                ..SpecEeConfig::default()
            },
            dense_refs: std::cell::RefCell::new(std::collections::HashMap::new()),
        }
    }

    /// Fresh model + draft + prompt for one stream request.
    fn request(&self, req: &StreamReq) -> (SyntheticLm, OracleDraft, Vec<TokenId>) {
        let profile = req.profile();
        let lm = build_lm(&self.cfg, &profile, self.seed, ModelVariant::Dense);
        let draft = OracleDraft::new(
            *lm.language(),
            profile.hit_rate,
            &self.cfg,
            self.seed ^ req.id,
        );
        let start = (self.seed as u32 + req.id as u32 * 11) % self.cfg.vocab_size as u32;
        let prompt = lm
            .language()
            .sample_sequence(start, 12, self.seed ^ (req.id << 3));
        (lm, draft, prompt)
    }

    /// The dense (no-exit) token stream of a request, computed once.
    fn dense_reference(&self, req: &StreamReq) -> Vec<TokenId> {
        if let Some(tokens) = self.dense_refs.borrow().get(&req.id) {
            return tokens.clone();
        }
        let (lm, _, prompt) = self.request(req);
        let tokens = DenseEngine::new(lm).generate(&prompt, GEN).tokens;
        self.dense_refs.borrow_mut().insert(req.id, tokens.clone());
        tokens
    }

    /// Mean token agreement of decoded outputs against their dense
    /// references, token-weighted.
    fn agreement(&self, stream: &[StreamReq], outputs: &[BatchedOutput]) -> f64 {
        let (mut num, mut den) = (0.0f64, 0.0f64);
        for out in outputs {
            let req = stream.iter().find(|r| r.id == out.id).expect("stream id");
            let dense = self.dense_reference(req);
            num += agreement(&out.tokens, &dense) * out.tokens.len() as f64;
            den += out.tokens.len() as f64;
        }
        if den > 0.0 {
            num / den
        } else {
            1.0
        }
    }
}

/// One batch-1 run over (part of) the mixed stream.
struct RunResult {
    secs: f64,
    agreement: f64,
    outputs: Vec<BatchedOutput>,
}

/// Streams `reqs` sequentially through one batch-1 engine. `threshold`
/// overrides the bank's static operating point; `policy` attaches a
/// classed controller; `tagged` admits each request under its traffic
/// class (untagged = everything lands in the default class — the
/// single-global-controller baseline).
fn run_stream(
    h: &Harness,
    reqs: &[StreamReq],
    threshold: Option<f32>,
    policy: Option<&ControllerPolicy>,
    tagged: bool,
) -> RunResult {
    let mut bank = h.bank.clone();
    if let Some(t) = threshold {
        bank.set_threshold(t);
    }
    let base = threshold.unwrap_or(h.config.predictor.threshold);
    let n_predictors = bank.len();
    let mut engine: BatchedEngine<SyntheticLm, OracleDraft> = BatchedEngine::new(
        1,
        16,
        h.cfg.n_layers,
        bank,
        h.schedule.clone(),
        h.config.clone(),
    );
    if let Some(p) = policy {
        engine.set_controller(p.build_classed(n_predictors, base));
    }
    let debug = std::env::var("SPECEE_CLASSES_DEBUG").is_ok();
    let mut outputs = Vec::new();
    let mut fires: Vec<(TrafficClass, usize, f32, bool)> = Vec::new();
    for req in reqs {
        let (lm, draft, prompt) = h.request(req);
        let class = if tagged {
            req.class
        } else {
            TrafficClass::DEFAULT
        };
        let out = match engine.admit_laned(req.id, class, Lane::DEFAULT, lm, draft, &prompt, GEN) {
            Admission::Done(out) => out,
            Admission::Seated { .. } => loop {
                let step = engine.step();
                if debug {
                    fires.extend(
                        step.feedback
                            .iter()
                            .map(|f| (req.class, f.layer, f.score, f.accepted)),
                    );
                }
                if let Some(out) = step.finished.into_iter().next() {
                    break out;
                }
            },
        };
        outputs.push(out);
    }
    if debug && !fires.is_empty() {
        for class in [CLASS_S, CLASS_D] {
            let mut scores: Vec<f32> = fires
                .iter()
                .filter(|(c, _, _, _)| *c == class)
                .map(|(_, _, s, _)| *s)
                .collect();
            if scores.is_empty() {
                continue;
            }
            scores.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let pct = |q: f64| scores[((scores.len() - 1) as f64 * q) as usize];
            let accepts = fires
                .iter()
                .filter(|(c, _, _, a)| *c == class && *a)
                .count();
            let layers: Vec<usize> = fires
                .iter()
                .filter(|(c, _, _, _)| *c == class)
                .map(|(_, l, _, _)| *l)
                .collect();
            eprintln!(
                "[debug] {class}: {} fires ({} accepted), score p10/p50/p90 = \
                 {:.2}/{:.2}/{:.2}, fire layers min/max = {}/{}",
                scores.len(),
                accepts,
                pct(0.1),
                pct(0.5),
                pct(0.9),
                layers.iter().min().expect("non-empty"),
                layers.iter().max().expect("non-empty"),
            );
        }
    }
    let cost = price(
        engine.meter(),
        HardwareProfile::a100_80g(),
        FrameworkProfile::vllm(),
    );
    RunResult {
        secs: cost.latency_s,
        agreement: h.agreement(reqs, &outputs),
        outputs,
    }
}

/// One 2-worker cluster run (batch 1 per worker, round-robin) over the
/// mixed stream. Returns (makespan seconds, agreement, per-class rows).
fn run_cluster(
    h: &Harness,
    stream: &[StreamReq],
    dense: bool,
    policy: ControllerPolicy,
    tagged: bool,
    gossip: bool,
) -> (f64, f64, specee_cluster::ClusterReport) {
    let mut bank = h.bank.clone();
    if dense {
        bank.set_threshold(2.0); // sigmoid never reaches 2: no exits
    }
    let config = ClusterConfig {
        workers: 5,
        page_size: 16,
        page_capacity: None,
        prefix_share: false,
        preemption: false,
        admission: AdmissionPolicy::Fcfs,
        batcher: BatcherConfig {
            max_batch: 1,
            hardware: HardwareProfile::a100_80g(),
            framework: FrameworkProfile::vllm(),
            cost: h.cfg.cost.expect("sim preset carries cost twin"),
        },
        controller: policy,
        gossip,
        trace: false,
        trace_sample: 1,
        slo: None,
    };
    // Pre-build each request's parts on the coordinator side so the
    // factory is a pure lookup (deterministic per id).
    let parts: Vec<(StreamReq, Vec<TokenId>)> = stream
        .iter()
        .map(|req| {
            let (_, _, prompt) = h.request(req);
            (req.clone(), prompt)
        })
        .collect();
    let factory_cfg = h.cfg.clone();
    let factory_seed = h.seed;
    let factory_stream: Vec<StreamReq> = stream.to_vec();
    let mut cluster: Cluster<SyntheticLm, OracleDraft> = Cluster::spawn(
        &config,
        RouterPolicy::RoundRobin.build(),
        &bank,
        &h.schedule,
        &h.config,
        Arc::new(move |req: &ClusterRequest| {
            let sreq = factory_stream
                .iter()
                .find(|r| r.id == req.request.id)
                .expect("stream id");
            let profile = sreq.profile();
            let lm = build_lm(&factory_cfg, &profile, factory_seed, ModelVariant::Dense);
            let draft = OracleDraft::new(
                *lm.language(),
                profile.hit_rate,
                &factory_cfg,
                factory_seed ^ sreq.id,
            );
            (lm, draft)
        }),
    );
    // Arrivals paced at roughly a third of a request's decode time: the
    // cluster stays saturated (speedup is service-time-bound, so the
    // makespan ratio measures exit savings), while the arrival window
    // spans most of the run — every submission syncs the frontier, and
    // the frontier is where gossip merges and broadcasts happen, so
    // evidence genuinely flows while controllers are still converging.
    for (i, (req, prompt)) in parts.iter().enumerate() {
        let mut creq = ClusterRequest::new(ServeRequest {
            id: req.id,
            prompt: prompt.clone(),
            gen_len: GEN,
            arrival_s: i as f64 * 0.012,
        });
        if tagged {
            creq = creq.with_class(req.class);
        }
        cluster.submit(creq);
    }
    let report = cluster.drain();
    let makespan = report.aggregate().makespan_s;
    let outputs: Vec<BatchedOutput> = report.outputs().into_iter().cloned().collect();
    let agr = h.agreement(stream, &outputs);
    (makespan, agr, report)
}

fn main() {
    banner(
        "ablation_classes",
        "per-class controllers + cluster gossip on a mixed-class stream (extension)",
    );
    let cfg = model_7b();
    let seed = 41;
    let h = Harness::build(&cfg, seed);
    let stream = mixed_stream();
    let class_s: Vec<StreamReq> = stream
        .iter()
        .filter(|r| r.class == CLASS_S)
        .cloned()
        .collect();
    let class_d: Vec<StreamReq> = stream
        .iter()
        .filter(|r| r.class == CLASS_D)
        .cloned()
        .collect();

    // ---- 0. Parity: static classed controller == no controller ----
    let uncontrolled = run_stream(&h, &stream, None, None, true);
    let static_ctl = run_stream(&h, &stream, None, Some(&ControllerPolicy::Static), true);
    for (a, b) in uncontrolled.outputs.iter().zip(&static_ctl.outputs) {
        assert_eq!(
            a.tokens, b.tokens,
            "static classed controller changed tokens"
        );
        assert_eq!(a.exit_layers, b.exit_layers, "static changed exits");
    }
    println!(
        "parity: tagged static controller is bit-identical to no controller \
         ({} requests)",
        stream.len()
    );

    // ---- 1. Dense reference + per-class hindsight oracle ----
    let dense = run_stream(&h, &stream, Some(2.0), None, false);
    let mut sweep = Table::new(vec![
        "threshold",
        "class S (shallow) s",
        "class D (deep) s",
        "blind whole-stream speedup",
    ]);
    let (mut s_secs, mut d_secs) = (Vec::new(), Vec::new());
    for &t in &GRID {
        let rs = run_stream(&h, &class_s, Some(t), None, false);
        let rd = run_stream(&h, &class_d, Some(t), None, false);
        sweep.row(vec![
            format!("{t:.2}"),
            format!("{:.3}", rs.secs),
            format!("{:.3}", rd.secs),
            fmt_x(dense.secs / (rs.secs + rd.secs)),
        ]);
        s_secs.push(rs.secs);
        d_secs.push(rd.secs);
    }
    let argmin = |v: &[f64]| {
        v.iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .expect("non-empty")
    };
    let (best_s, best_d) = (argmin(&s_secs), argmin(&d_secs));
    let oracle_secs = s_secs[best_s] + d_secs[best_d];
    let blind_secs = (0..GRID.len())
        .map(|i| s_secs[i] + d_secs[i])
        .fold(f64::INFINITY, f64::min);
    println!(
        "per-class grid sweep (modelled seconds @ A100/vllm; dense reference {:.3}s):",
        dense.secs
    );
    println!("{sweep}");
    println!(
        "per-class oracle: threshold {:.2} for class S, {:.2} for class D -> {:.3}s \
         (best class-blind static: {:.3}s)",
        GRID[best_s], GRID[best_d], oracle_secs, blind_secs
    );

    // ---- 2. Batch-1 contenders on the identical mixed stream ----
    // The bandit sweeps the oracle's grid; the per-class streams are
    // stationary, so posterior forgetting is disabled (the drift
    // scenario that wants it is `ablation_controller`'s).
    let bandit_policy = ControllerPolicy::Bandit(specee_control::BanditConfig {
        grid: GRID.to_vec(),
        discount: 1.0,
        // One decision epoch per request (GEN tokens): arm switches line
        // up with request boundaries, so every epoch's reward is earned
        // under a single class even in the untagged (global) runs.
        epoch_tokens: GEN as u64,
        ..specee_control::BanditConfig::default()
    });
    let global_pid = run_stream(&h, &stream, None, Some(&ControllerPolicy::pid()), false);
    let global_bandit = run_stream(&h, &stream, None, Some(&bandit_policy), false);
    let perclass_pid = run_stream(&h, &stream, None, Some(&ControllerPolicy::pid()), true);
    let perclass_bandit = run_stream(&h, &stream, None, Some(&bandit_policy), true);

    let speedup = |secs: f64| dense.secs / secs;
    let oracle_speedup = speedup(oracle_secs);
    let recovery = |r: &RunResult| speedup(r.secs) / oracle_speedup;
    let mut results = Table::new(vec![
        "policy",
        "stream s",
        "speedup",
        "% of per-class oracle",
        "agreement",
    ]);
    let rows: [(&str, &RunResult); 4] = [
        ("global pid", &global_pid),
        ("global bandit", &global_bandit),
        ("per-class pid", &perclass_pid),
        ("per-class bandit", &perclass_bandit),
    ];
    for (name, r) in rows {
        results.row(vec![
            name.to_string(),
            format!("{:.3}", r.secs),
            fmt_x(speedup(r.secs)),
            format!("{:.0}%", 100.0 * recovery(r)),
            format!("{:.1}%", r.agreement * 100.0),
        ]);
    }
    results.row(vec![
        "per-class oracle".to_string(),
        format!("{oracle_secs:.3}"),
        fmt_x(oracle_speedup),
        "100%".to_string(),
        "-".to_string(),
    ]);
    println!(
        "mixed stream ({} interleaved requests: D, S, S, D, …), batch 1:",
        stream.len()
    );
    println!("{results}");

    // ---- 3. Cluster leg: 2 workers x batch 1, per-class + gossip ----
    let (dense_mk, _, _) = run_cluster(&h, &stream, true, ControllerPolicy::Static, true, true);
    let (global_mk, global_agr, _) =
        run_cluster(&h, &stream, false, bandit_policy.clone(), false, true);
    let (gossip_mk, gossip_agr, gossip_report) =
        run_cluster(&h, &stream, false, bandit_policy.clone(), true, true);
    let (nogossip_mk, _, _) = run_cluster(&h, &stream, false, bandit_policy.clone(), true, false);
    let cluster_speedup = |mk: f64| dense_mk / mk;
    let mut cluster_table = Table::new(vec![
        "cluster configuration",
        "makespan s",
        "speedup vs dense cluster",
        "% of per-class oracle",
    ]);
    for (name, mk) in [
        ("global bandit (untagged)", global_mk),
        ("per-class bandit, gossip off", nogossip_mk),
        ("per-class bandit + gossip", gossip_mk),
    ] {
        cluster_table.row(vec![
            name.to_string(),
            format!("{mk:.3}"),
            fmt_x(cluster_speedup(mk)),
            format!("{:.0}%", 100.0 * cluster_speedup(mk) / oracle_speedup),
        ]);
    }
    println!("5-worker round-robin cluster on the same stream (batch 1 per worker):");
    println!("{cluster_table}");
    println!("per-class breakdown of the gossiping cluster:");
    for row in gossip_report.class_breakdown() {
        println!(
            "  {:<7} {:>3} requests | avg layers {:>4.1}/{} | thr {}",
            row.class.to_string(),
            row.requests,
            row.mean_layers().unwrap_or(0.0),
            cfg.n_layers,
            row.mean_threshold
                .map(|t| format!("{t:.2}"))
                .unwrap_or_else(|| "-".into())
        );
    }

    // ---- 4. Assertions: the acceptance bar ----
    // The Thompson-sampling controller carries the strict headline: a
    // single posterior over the blend is poisoned structurally (mixed
    // windows earn mixed rewards and trip the accuracy floor), and no
    // amount of adaptation speed fixes that — only class keying does.
    assert!(
        recovery(&perclass_bandit) >= 0.95,
        "per-class bandit must recover >= 95% of the per-class oracle: {:.1}%",
        recovery(&perclass_bandit) * 100.0
    );
    assert!(
        perclass_bandit.secs < global_bandit.secs,
        "per-class bandit must strictly beat the global bandit on the mixed \
         stream: {:.3}s vs {:.3}s",
        perclass_bandit.secs,
        global_bandit.secs
    );
    // The PID loops are *per layer*, and on this workload the layer
    // index partially encodes the class (S harvests at layers 1–3, D's
    // late-layer fires tighten only late loops, and idle decay re-opens
    // forfeits) — so the global PID is far more blur-resistant than the
    // global bandit. Per-class PID must still clear the oracle-recovery
    // bar and stay within noise of the global loops; the structural
    // per-class win is the bandit's.
    assert!(
        recovery(&perclass_pid) >= 0.95,
        "per-class pid must recover >= 95% of the per-class oracle: {:.1}%",
        recovery(&perclass_pid) * 100.0
    );
    assert!(
        perclass_pid.secs <= global_pid.secs * 1.01,
        "per-class pid must stay within 1% of the (already near-oracle) \
         global pid: {:.3}s vs {:.3}s",
        perclass_pid.secs,
        global_pid.secs
    );
    assert!(
        perclass_pid.agreement >= global_pid.agreement - 1e-9,
        "accuracy must hold: per-class {:.3} vs global {:.3}",
        perclass_pid.agreement,
        global_pid.agreement
    );
    assert!(
        perclass_bandit.agreement >= global_bandit.agreement - 1e-9,
        "accuracy must hold: per-class {:.3} vs global {:.3}",
        perclass_bandit.agreement,
        global_bandit.agreement
    );
    let gossip_recovery = cluster_speedup(gossip_mk) / oracle_speedup;
    assert!(
        gossip_recovery >= 0.95,
        "per-class + gossip cluster must recover >= 95% of the per-class \
         oracle: {:.1}%",
        gossip_recovery * 100.0
    );
    assert!(
        gossip_mk < global_mk,
        "per-class + gossip must strictly beat the global-controller cluster: \
         {gossip_mk:.3}s vs {global_mk:.3}s"
    );
    // Gossip's structural payoff — a worker's controller warmed for a
    // class before its first local request — is asserted in
    // `specee-cluster`'s tests. On a saturated stationary stream where
    // local evidence suffices, its throughput effect is neutral; it must
    // never cost more than noise.
    assert!(
        gossip_mk <= nogossip_mk * 1.03,
        "gossip must not cost meaningful throughput vs the same cluster \
         without it: {gossip_mk:.3}s vs {nogossip_mk:.3}s"
    );
    assert!(
        gossip_agr >= global_agr - 1e-9,
        "cluster accuracy must hold: {gossip_agr:.3} vs {global_agr:.3}"
    );
    println!(
        "per-class controllers recover {:.0}% (pid) / {:.0}% (bandit) of the \
         per-class oracle vs {:.0}% / {:.0}% global; cluster per-class + gossip \
         recovers {:.0}%",
        recovery(&perclass_pid) * 100.0,
        recovery(&perclass_bandit) * 100.0,
        recovery(&global_pid) * 100.0,
        recovery(&global_bandit) * 100.0,
        gossip_recovery * 100.0
    );
}
