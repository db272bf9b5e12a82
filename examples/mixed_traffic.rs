//! The traffic-class-keyed feedback plane on a mixed stream.
//!
//! Two traffic classes interleave request-by-request through one
//! engine:
//!
//! * **class S — shallow chat**: tokens settle within the first few
//!   layers and the draft knows the domain; harvesting exits saves most
//!   of the decode work at a permissive threshold.
//! * **class H — draft-hostile**: tokens *look* identical to class S
//!   (same exit layers, same predictor scores) but the draft barely
//!   knows the domain, so nearly every predictor fire is a rejected
//!   full-LM-head verification. The honest operating point is "exits
//!   off".
//!
//! A single global bandit sees the blend: its epochs mix clean class-S
//! rewards with class-H bleeding, the accuracy floor zeroes them, and
//! the posterior drifts toward the off-arm — forfeiting class S. The
//! classed controller keys one posterior per class and serves both at
//! their own operating points, live in the same engine via per-class
//! predictor banks. The table below shows both runs side by side, and a
//! small 3-worker cluster repeats the tagged run with coordinator
//! gossip, printing the per-class breakdown every worker converged to.
//!
//! Run with: `cargo run --release --example mixed_traffic`

use std::sync::Arc;

use specee::batch::{Admission, BatchedEngine};
use specee::cluster::{Cluster, ClusterConfig, ClusterRequest, RouterPolicy};
use specee::control::{BanditConfig, ControllerPolicy};
use specee::core::collect::{collect_training_data, train_bank};
use specee::core::predictor::{PredictorBank, PredictorConfig};
use specee::core::{Lane, ScheduleEngine, SpecEeConfig, TrafficClass};
use specee::metrics::{FrameworkProfile, HardwareProfile};
use specee::model::{CostDims, ModelConfig, TokenId};
use specee::nn::TrainConfig;
use specee::serve::{AdmissionPolicy, BatcherConfig, ServeRequest};
use specee::synth::{DatasetProfile, OracleDraft, SyntheticLm, SyntheticLmBuilder};
use specee::tensor::rng::Pcg;

const N_LAYERS: usize = 16;
const GEN: usize = 6;
const SEED: u64 = 2027;
const PER_CLASS: usize = 16;

const CLASS_S: TrafficClass = TrafficClass::new(1);
const CLASS_H: TrafficClass = TrafficClass::new(4);

fn model_cfg() -> ModelConfig {
    ModelConfig {
        n_layers: N_LAYERS,
        vocab_size: 512,
        ..ModelConfig::tiny()
    }
    .with_cost(CostDims {
        n_layers: N_LAYERS,
        ..CostDims::llama2_7b()
    })
}

/// Shallow chat traffic the predictor was calibrated on.
fn shallow_profile() -> DatasetProfile {
    DatasetProfile {
        exit_mu: 0.10,
        exit_sigma: 0.02,
        early_frac: 0.0,
        ..DatasetProfile::mt_bench()
    }
}

/// Same exit geometry, hostile draft: fires become wasted verifications.
fn hostile_profile() -> DatasetProfile {
    DatasetProfile {
        hit_rate: 0.1,
        ..shallow_profile()
    }
}

fn class_of(id: u64) -> TrafficClass {
    // Period-4 blend (H, S, S, H) — fine-grained, and coprime to the
    // cluster's worker count so round-robin mixes both classes onto
    // every worker.
    if matches!(id % 4, 0 | 3) {
        CLASS_H
    } else {
        CLASS_S
    }
}

fn profile_of(class: TrafficClass) -> DatasetProfile {
    if class == CLASS_S {
        shallow_profile()
    } else {
        hostile_profile()
    }
}

fn request(id: u64) -> (SyntheticLm, OracleDraft, Vec<TokenId>) {
    let profile = profile_of(class_of(id));
    let lm = SyntheticLmBuilder::new(model_cfg(), profile.clone())
        .seed(SEED)
        .build();
    let draft = OracleDraft::new(*lm.language(), profile.hit_rate, &model_cfg(), SEED ^ id);
    let start = (SEED as u32 + id as u32 * 11) % model_cfg().vocab_size as u32;
    let prompt = lm.language().sample_sequence(start, 10, SEED ^ (id << 3));
    (lm, draft, prompt)
}

/// The bandit policy both runs use: the default grid's 1.0 arm is the
/// off switch the hostile class needs; forgetting is disabled because
/// the per-class streams are stationary.
fn bandit() -> ControllerPolicy {
    ControllerPolicy::Bandit(BanditConfig {
        discount: 1.0,
        ..BanditConfig::default()
    })
}

struct ClassOutcome {
    tokens: f64,
    layer_sum: f64,
    fires: u64,
    accepts: u64,
}

impl ClassOutcome {
    fn avg_layers(&self) -> f64 {
        self.layer_sum / self.tokens.max(1.0)
    }
}

/// Streams the blend through one batch-1 engine; `tagged` keys the
/// controller by class, untagged blends everything into one posterior.
fn run(bank: &PredictorBank, config: &SpecEeConfig, tagged: bool) -> [ClassOutcome; 2] {
    let mut engine: BatchedEngine<SyntheticLm, OracleDraft> = BatchedEngine::new(
        1,
        16,
        N_LAYERS,
        bank.clone(),
        ScheduleEngine::all_layers(N_LAYERS),
        config.clone(),
    );
    engine.set_controller(bandit().build_classed(bank.len(), config.predictor.threshold));
    let mut outcomes = [
        ClassOutcome {
            tokens: 0.0,
            layer_sum: 0.0,
            fires: 0,
            accepts: 0,
        },
        ClassOutcome {
            tokens: 0.0,
            layer_sum: 0.0,
            fires: 0,
            accepts: 0,
        },
    ];
    for id in 0..2 * PER_CLASS as u64 {
        let class = class_of(id);
        let (lm, draft, prompt) = request(id);
        let admit_class = if tagged { class } else { TrafficClass::DEFAULT };
        let out = match engine.admit_laned(id, admit_class, Lane::DEFAULT, lm, draft, &prompt, GEN)
        {
            Admission::Done(out) => out,
            Admission::Seated { .. } => loop {
                let step = engine.step();
                let slot = usize::from(class == CLASS_H);
                outcomes[slot].fires += step.feedback.len() as u64;
                outcomes[slot].accepts +=
                    step.feedback.iter().filter(|f| f.accepted).count() as u64;
                if let Some(out) = step.finished.into_iter().next() {
                    break out;
                }
            },
        };
        let slot = usize::from(class == CLASS_H);
        outcomes[slot].tokens += out.exit_layers.len() as f64;
        outcomes[slot].layer_sum += out.exit_layers.iter().sum::<usize>() as f64;
    }
    outcomes
}

fn main() {
    let cfg = model_cfg();

    // Offline: calibrate predictors on the shallow class (the hostile
    // class is indistinguishable to them — that is the point).
    let profile = shallow_profile();
    let mut lm = SyntheticLmBuilder::new(cfg.clone(), profile.clone())
        .seed(SEED)
        .build();
    let mut draft = OracleDraft::new(*lm.language(), 0.9, &cfg, SEED ^ 7);
    let train_prompts: Vec<(Vec<TokenId>, usize)> = (0..8u32)
        .map(|i| (vec![2 + i, 7 + (i % 5), 1 + i], 12))
        .collect();
    let pcfg = PredictorConfig {
        hidden_dim: 16,
        ..PredictorConfig::default()
    };
    let data = collect_training_data(&mut lm, &mut draft, &train_prompts, pcfg.spec_k);
    let mut bank = PredictorBank::new(N_LAYERS, &pcfg, &mut Pcg::seed(SEED));
    train_bank(
        &mut bank,
        &data.samples,
        1.0,
        &TrainConfig {
            epochs: 6,
            lr: 3e-3,
            ..TrainConfig::default()
        },
        SEED,
    );
    let config = SpecEeConfig {
        predictor: pcfg,
        ..SpecEeConfig::default()
    };

    println!(
        "mixed stream: {} shallow (S) + {} draft-hostile (H) requests, \
         interleaved H S S H …, {N_LAYERS}-layer model, batch 1\n",
        PER_CLASS, PER_CLASS
    );

    let global = run(&bank, &config, false);
    let classed = run(&bank, &config, true);
    println!(
        "{:<22} {:>14} {:>14} {:>16} {:>16}",
        "controller", "S avg layers", "H avg layers", "S accept rate", "H accept rate"
    );
    let rate = |o: &ClassOutcome| {
        if o.fires == 0 {
            "-".to_string()
        } else {
            format!("{:.0}%", 100.0 * o.accepts as f64 / o.fires as f64)
        }
    };
    for (name, [s, h]) in [("global bandit", &global), ("per-class bandit", &classed)] {
        println!(
            "{name:<22} {:>14.1} {:>14.1} {:>16} {:>16}",
            s.avg_layers(),
            h.avg_layers(),
            rate(s),
            rate(h),
        );
    }

    // The classed controller must harvest class S markedly better than
    // the blend-poisoned global posterior, while keeping class H
    // essentially off (full depth).
    assert!(
        classed[0].avg_layers() < global[0].avg_layers() - 1.0,
        "per-class control should harvest class S better: {:.1} vs {:.1} layers",
        classed[0].avg_layers(),
        global[0].avg_layers()
    );
    assert!(
        classed[1].avg_layers() > N_LAYERS as f64 - 2.0,
        "class H should run (almost) full depth: {:.1}",
        classed[1].avg_layers()
    );

    // The same tagged stream through a 3-worker cluster with gossip:
    // every worker ends up with both classes' operating points (the
    // coordinator broadcasts each worker's evidence to the others), and
    // the per-class breakdown mirrors the single-engine run.
    let mut cluster: Cluster<SyntheticLm, OracleDraft> = Cluster::spawn(
        &ClusterConfig {
            workers: 3,
            page_size: 16,
            page_capacity: None,
            prefix_share: false,
            preemption: false,
            admission: AdmissionPolicy::Fcfs,
            batcher: BatcherConfig {
                max_batch: 1,
                hardware: HardwareProfile::a100_80g(),
                framework: FrameworkProfile::vllm(),
                cost: cfg.cost.expect("cost twin"),
            },
            controller: bandit(),
            gossip: true,
            trace: false,
            trace_sample: 1,
            slo: None,
        },
        RouterPolicy::RoundRobin.build(),
        &bank,
        &ScheduleEngine::all_layers(N_LAYERS),
        &config,
        Arc::new(|req: &ClusterRequest| {
            let (lm, draft, _) = request(req.request.id);
            (lm, draft)
        }),
    );
    for id in 0..2 * PER_CLASS as u64 {
        let (_, _, prompt) = request(id);
        cluster.submit(
            ClusterRequest::new(ServeRequest {
                id,
                prompt,
                gen_len: GEN,
                arrival_s: id as f64 * 0.003,
            })
            .with_class(class_of(id)),
        );
    }
    let report = cluster.drain();
    println!("\n3-worker cluster, per-class bandit + gossip:");
    for row in report.class_breakdown() {
        println!(
            "  {:<7} {:>3} requests | avg layers {:>4.1}/{N_LAYERS} | thr {}",
            row.class.to_string(),
            row.requests,
            row.mean_layers().unwrap_or(0.0),
            row.mean_threshold
                .map(|t| format!("{t:.2}"))
                .unwrap_or_else(|| "-".into()),
        );
    }
    assert_eq!(report.completed(), 2 * PER_CLASS);
    let breakdown = report.class_breakdown();
    assert_eq!(breakdown.len(), 2, "both classes reported");
    // Gossip warmed every worker's controller for both classes.
    for worker in &report.workers {
        assert_eq!(
            worker.classes.len(),
            2,
            "worker {} should carry both classes' controller state",
            worker.worker
        );
    }
    println!(
        "\nper-class control harvests S at {:.1} layers (global blend: {:.1}) while \
         holding H at {:.1}/{N_LAYERS}",
        classed[0].avg_layers(),
        global[0].avg_layers(),
        classed[1].avg_layers(),
    );
}
