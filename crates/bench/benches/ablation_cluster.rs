//! Serving extension (ours): the workers × router ablation for the
//! `specee-cluster` data-parallel runtime.
//!
//! PR 2's `ablation_live_batch` measured the Cannikin decay: one big
//! batch pays for layers down to the rearmost still-needed one, so the
//! per-batch SpecEE speedup shrinks toward 1.0× as the batch grows. This
//! harness measures the deployment-layer counter: the same slot budget
//! split across parallel workers (many small batches) recovers the
//! speedup, and exit-aware routing keeps it on skewed traffic by packing
//! shallow-exiting requests together. Three experiments:
//!
//! 1. **Scaling** — workers × {round-robin, shortest-queue, exit-aware}
//!    on a uniform burst: aggregate throughput must grow with worker
//!    count, and a one-worker round-robin cluster must match live mode
//!    exactly (the parity anchor).
//! 2. **Skew** — two real traffic classes (a shallow-settling and a
//!    deep-settling synthetic language profile) interleaved SSDD — the
//!    adversarial pattern for round-robin at two workers, which mixes
//!    every batch. Exit-aware routing must be no worse in throughput and
//!    strictly better in mean latency.
//! 3. **Cannikin recovery** — 1×16 vs 4×4 slots, each against its own
//!    no-exit reference: the split deployment must recover speedup the
//!    monolithic batch lost.

use std::sync::Arc;

use specee_batch::BatchedEngine;
use specee_bench::*;
use specee_cluster::{Cluster, ClusterConfig, ClusterReport, ClusterRequest, RouterPolicy};
use specee_core::collect::{collect_training_data, train_bank};
use specee_core::engine::SpecEeEngine;
use specee_core::predictor::PredictorBank;
use specee_core::{ScheduleEngine, SpecEeConfig};
use specee_metrics::{report::fmt_x, FrameworkProfile, HardwareProfile, Table};
use specee_model::{ModelConfig, TokenId};
use specee_nn::TrainConfig;
use specee_serve::{AdmissionPolicy, BatcherConfig, ContinuousBatcher, ServeRequest, ServeStats};
use specee_synth::{DatasetProfile, OracleDraft, SyntheticLm};
use specee_tensor::rng::Pcg;

/// The shallow-settling traffic class: tokens saturate around a quarter
/// of the stack (chat-style instruction traffic).
fn shallow_profile() -> DatasetProfile {
    DatasetProfile {
        exit_mu: 0.25,
        early_frac: 0.3,
        early_mu: 0.15,
        ..DatasetProfile::mt_bench()
    }
}

/// The deep-settling class: tokens need nearly the whole stack.
fn deep_profile() -> DatasetProfile {
    DatasetProfile {
        exit_mu: 0.95,
        early_frac: 0.02,
        ..DatasetProfile::mt_bench()
    }
}

/// SSDD: ids 0,1 shallow; 2,3 deep; repeating. Round-robin at two
/// workers alternates, so every one of its batches mixes the classes.
fn is_shallow(id: u64) -> bool {
    (id / 2).is_multiple_of(2)
}

struct Harness {
    cfg: ModelConfig,
    seed: u64,
    bank: PredictorBank,
    schedule: ScheduleEngine,
    config: SpecEeConfig,
}

impl Harness {
    /// Trains one predictor bank on samples from all three traffic
    /// profiles, so every class's exits are in-distribution.
    fn build(cfg: &ModelConfig, seed: u64) -> Self {
        let predictor = paper_predictor();
        let mut samples = Vec::new();
        for profile in [
            DatasetProfile::mt_bench(),
            shallow_profile(),
            deep_profile(),
        ] {
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
            samples.extend(collection.samples);
        }
        let mut bank = PredictorBank::new(cfg.n_layers, &predictor, &mut Pcg::seed(seed ^ 0xb4));
        train_bank(
            &mut bank,
            &samples,
            1.0,
            &TrainConfig {
                epochs: 16,
                lr: 3e-3,
                ..TrainConfig::default()
            },
            seed ^ 0x7e,
        );
        let config = SpecEeConfig {
            predictor,
            ..SpecEeConfig::default()
        };
        // Predictors at every layer: both classes exit at their natural
        // depth instead of the offline schedule's.
        let schedule = ScheduleEngine::all_layers(cfg.n_layers);
        Harness {
            cfg: cfg.clone(),
            seed,
            bank,
            schedule,
            config,
        }
    }

    fn batcher_config(&self, max_batch: usize) -> BatcherConfig {
        BatcherConfig {
            max_batch,
            hardware: HardwareProfile::a100_80g(),
            framework: FrameworkProfile::vllm(),
            cost: self.cfg.cost.expect("sim models carry a cost twin"),
        }
    }

    fn seq(&self, id: u64, profile: &DatasetProfile) -> (SyntheticLm, OracleDraft) {
        let lm = build_lm(&self.cfg, profile, self.seed, ModelVariant::Dense);
        let draft = OracleDraft::new(*lm.language(), profile.hit_rate, &self.cfg, self.seed ^ id);
        (lm, draft)
    }

    /// Serves `requests` on a live cluster; `profile_of(id)` picks each
    /// request's traffic class, `hint_of(id)` its routing hint. `dense`
    /// swaps in a never-firing predictor bank (the no-exit reference).
    #[allow(clippy::too_many_arguments)]
    fn run_cluster(
        &self,
        workers: usize,
        max_batch: usize,
        policy: RouterPolicy,
        requests: &[ServeRequest],
        profile_of: impl Fn(u64) -> DatasetProfile + Send + Sync + 'static,
        hint_of: impl Fn(u64) -> Option<f64>,
        dense: bool,
    ) -> ClusterReport {
        let mut bank = self.bank.clone();
        if dense {
            bank.set_threshold(2.0); // sigmoid never reaches 2: no exits
        }
        let cfg = self.cfg.clone();
        let seed = self.seed;
        let mut cluster: Cluster<SyntheticLm, OracleDraft> = Cluster::spawn(
            &ClusterConfig {
                workers,
                page_size: 16,
                page_capacity: None,
                prefix_share: false,
                preemption: false,
                admission: AdmissionPolicy::Fcfs,
                batcher: self.batcher_config(max_batch),
                controller: specee_control::ControllerPolicy::Static,
                gossip: true,
                trace: false,
                trace_sample: 1,
                slo: None,
            },
            policy.build(),
            &bank,
            &self.schedule,
            &self.config,
            Arc::new(move |req: &ClusterRequest| {
                let profile = profile_of(req.request.id);
                let lm = build_lm(&cfg, &profile, seed, ModelVariant::Dense);
                let draft = OracleDraft::new(
                    *lm.language(),
                    profile.hit_rate,
                    &cfg,
                    seed ^ req.request.id,
                );
                (lm, draft)
            }),
        );
        let mut assignments = Vec::new();
        for req in requests {
            let mut creq = ClusterRequest::new(req.clone());
            if let Some(hint) = hint_of(req.id) {
                creq = creq.with_exit_hint(hint);
            }
            assignments.push(cluster.submit(creq).expect("routable"));
        }
        if std::env::var("SPECEE_CLUSTER_DEBUG").is_ok() {
            eprintln!("[{:?} w={workers}] assignments: {assignments:?}", policy);
        }
        cluster.drain()
    }

    /// Measures one class's mean exit depth with a solo engine run — the
    /// honest source of routing hints.
    fn calibrate_hint(&self, profile: &DatasetProfile) -> f64 {
        let (lm, draft) = self.seq(0x55, profile);
        let mut engine = SpecEeEngine::new(
            lm,
            draft,
            self.bank.clone(),
            self.schedule.clone(),
            self.config.clone(),
        );
        let out = engine.generate(&[3, 8, 1], 16);
        out.avg_layers()
    }
}

fn main() {
    banner(
        "ablation_cluster",
        "workers x router sweep for the data-parallel cluster runtime (extension)",
    );
    let cfg = model_7b();
    let seed = 31;
    let h = Harness::build(&cfg, seed);

    // A saturating burst of 16 requests (every worker count divides it),
    // decode length 16. Prompts come from the shared synthetic language.
    let n_requests = 16;
    let ds = DatasetProfile::mt_bench();
    let wl: Vec<specee_synth::Request> = workload(&cfg, &ds, n_requests, seed)
        .into_iter()
        .map(|mut r| {
            r.gen_len = 16;
            r
        })
        .collect();
    let requests = serve_requests(&wl, 1000.0, seed ^ 0x5e);
    let uniform = DatasetProfile::mt_bench();

    // ---- 1. Scaling: workers × router on the uniform burst ----
    // Parity anchor: live mode at per-worker capacity 4.
    let mut live_engine: BatchedEngine<SyntheticLm, OracleDraft> = BatchedEngine::new(
        4,
        16,
        cfg.n_layers,
        h.bank.clone(),
        h.schedule.clone(),
        h.config.clone(),
    );
    let batcher = ContinuousBatcher::new(h.batcher_config(4));
    let live = batcher.run_live(&requests, &mut live_engine, |r| h.seq(r.id, &uniform));
    let live_stats = live.report.stats();

    let mut table = Table::new(vec![
        "workers x cap",
        "router",
        "tok/s",
        "x vs 1 worker",
        "mean lat (ms)",
        "p99 lat (ms)",
        "avg occupancy",
    ]);
    let mut scaling: Vec<(usize, &'static str, ServeStats)> = Vec::new();
    for &workers in &[1usize, 2, 4] {
        for policy in RouterPolicy::all() {
            let report = h.run_cluster(
                workers,
                4,
                policy,
                &requests,
                |_| DatasetProfile::mt_bench(),
                |_| None,
                false,
            );
            assert_eq!(report.completed(), requests.len(), "all requests served");
            scaling.push((workers, policy.name(), report.stats()));
        }
    }
    let base = scaling
        .iter()
        .find(|(w, p, _)| *w == 1 && *p == "round-robin")
        .expect("base run")
        .2;
    for (workers, policy, stats) in &scaling {
        table.row(vec![
            format!("{workers} x 4"),
            policy.to_string(),
            format!("{:.2}", stats.throughput_tok_s),
            fmt_x(stats.throughput_tok_s / base.throughput_tok_s),
            format!("{:.0}", stats.mean_latency_s * 1e3),
            format!("{:.0}", stats.p99_latency_s * 1e3),
            format!("{:.1}", stats.avg_occupancy),
        ]);
    }
    println!(
        "Llama2-7B(sim) @ A100 / vllm host profile, {} uniform requests, saturating burst",
        requests.len()
    );
    println!("{table}");
    println!(
        "parity anchor: live mode (1 engine, cap 4) {:.2} tok/s vs 1-worker cluster {:.2} tok/s",
        live_stats.throughput_tok_s, base.throughput_tok_s
    );
    assert!(
        (live_stats.throughput_tok_s - base.throughput_tok_s).abs() / live_stats.throughput_tok_s
            < 1e-9,
        "one round-robin worker must reproduce live mode exactly"
    );
    for policy in RouterPolicy::all() {
        let tput = |w: usize| {
            scaling
                .iter()
                .find(|(sw, sp, _)| *sw == w && *sp == policy.name())
                .expect("swept")
                .2
                .throughput_tok_s
        };
        assert!(
            tput(2) > tput(1) && tput(4) > tput(2),
            "{}: cluster throughput must scale with workers: {} -> {} -> {}",
            policy.name(),
            tput(1),
            tput(2),
            tput(4)
        );
        assert!(
            tput(1) >= live_stats.throughput_tok_s * (1.0 - 1e-9),
            "cluster at any worker count must be >= single-worker live mode"
        );
    }

    // ---- 2. Skew: SSDD shallow/deep traffic, exit-aware vs round-robin ----
    let shallow_hint = h.calibrate_hint(&shallow_profile());
    let deep_hint = h.calibrate_hint(&deep_profile());
    println!(
        "\ncalibrated exit depths: shallow class {:.1} layers, deep class {:.1} (of {})",
        shallow_hint, deep_hint, cfg.n_layers
    );
    assert!(
        shallow_hint + 4.0 < deep_hint,
        "traffic classes must be separable for the skew experiment"
    );
    let profile_of = |id: u64| {
        if is_shallow(id) {
            shallow_profile()
        } else {
            deep_profile()
        }
    };
    let hint_of = move |id: u64| {
        Some(if is_shallow(id) {
            shallow_hint
        } else {
            deep_hint
        })
    };
    // Steady traffic rather than a cold all-at-once burst: queues stay
    // around a wave deep, which is the regime routing exists for.
    let skew_rate: f64 = std::env::var("SPECEE_SKEW_RATE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20.0);
    let skew_requests = serve_requests(&wl, skew_rate, seed ^ 0x5e);

    let mut skew_table = Table::new(vec![
        "router",
        "tok/s",
        "mean lat (ms)",
        "p50 lat (ms)",
        "p99 lat (ms)",
        "observed depth",
    ]);
    let mut skew: Vec<(&'static str, ClusterReport)> = Vec::new();
    for policy in RouterPolicy::all() {
        let report = h.run_cluster(2, 4, policy, &skew_requests, profile_of, hint_of, false);
        assert_eq!(report.completed(), skew_requests.len());
        skew.push((policy.name(), report));
    }
    for (name, report) in &skew {
        let stats = report.stats();
        skew_table.row(vec![
            name.to_string(),
            format!("{:.2}", stats.throughput_tok_s),
            format!("{:.0}", stats.mean_latency_s * 1e3),
            format!("{:.0}", stats.p50_latency_s * 1e3),
            format!("{:.0}", stats.p99_latency_s * 1e3),
            format!("{:.1}", report.observed_depth().unwrap_or(f64::NAN)),
        ]);
    }
    println!("\nskewed SSDD workload, 2 workers x cap 4:");
    println!("{skew_table}");
    let stats_of = |name: &str| {
        skew.iter()
            .find(|(n, _)| *n == name)
            .expect("swept")
            .1
            .stats()
    };
    let (rr, ea) = (stats_of("round-robin"), stats_of("exit-aware"));
    println!(
        "exit-aware vs round-robin: throughput {:.2} vs {:.2} tok/s, mean latency {:.0} vs {:.0} ms",
        ea.throughput_tok_s,
        rr.throughput_tok_s,
        ea.mean_latency_s * 1e3,
        rr.mean_latency_s * 1e3
    );
    assert!(
        ea.throughput_tok_s >= rr.throughput_tok_s * (1.0 - 1e-6),
        "exit-aware must be no worse than round-robin on skewed traffic: {} vs {}",
        ea.throughput_tok_s,
        rr.throughput_tok_s
    );
    assert!(
        ea.mean_latency_s < rr.mean_latency_s,
        "packing shallow traffic together must lower mean latency: {} vs {}",
        ea.mean_latency_s,
        rr.mean_latency_s
    );

    // ---- 3. Cannikin recovery: 1 x 16 vs 4 x 4 slots ----
    let shapes: [(usize, usize); 2] = [(1, 16), (4, 4)];
    let mut recovery = Vec::new();
    let mut shape_table = Table::new(vec![
        "deployment",
        "SpecEE tok/s",
        "no-exit tok/s",
        "speedup",
    ]);
    for (workers, cap) in shapes {
        let spec = h.run_cluster(
            workers,
            cap,
            RouterPolicy::RoundRobin,
            &requests,
            |_| DatasetProfile::mt_bench(),
            |_| None,
            false,
        );
        let dense = h.run_cluster(
            workers,
            cap,
            RouterPolicy::RoundRobin,
            &requests,
            |_| DatasetProfile::mt_bench(),
            |_| None,
            true,
        );
        let speedup = spec.stats().throughput_tok_s / dense.stats().throughput_tok_s;
        shape_table.row(vec![
            format!("{workers} worker(s) x {cap} slots"),
            format!("{:.2}", spec.stats().throughput_tok_s),
            format!("{:.2}", dense.stats().throughput_tok_s),
            fmt_x(speedup),
        ]);
        recovery.push(speedup);
    }
    println!("\nCannikin recovery at a fixed 16-slot budget:");
    println!("{shape_table}");
    println!(
        "splitting one 16-slot batch into 4 x 4 recovers {} -> {} of the per-batch speedup",
        fmt_x(recovery[0]),
        fmt_x(recovery[1])
    );
    assert!(
        recovery[1] >= recovery[0] - 1e-9,
        "many small batches must recover speedup lost to the Cannikin effect: {recovery:?}"
    );
}
