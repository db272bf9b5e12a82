//! Prefix reuse across worker threads: a cluster whose factory clones one
//! template (so a newcomer copies the prompt pages a resident holds)
//! against one whose factory builds a model per request (so it prefills
//! them), and both against an unshared single worker.

use std::sync::Arc;

use specee_cluster::{
    Cluster, ClusterConfig, ClusterReport, ClusterRequest, RouterPolicy, SeqFactory,
};
use specee_core::collect::{collect_training_data, train_bank};
use specee_core::predictor::{PredictorBank, PredictorConfig};
use specee_core::{Lane, SpecEeConfig};
use specee_metrics::{FrameworkProfile, HardwareProfile};
use specee_model::{CostDims, ModelConfig, TokenId};
use specee_nn::TrainConfig;
use specee_serve::{AdmissionPolicy, BatcherConfig, ServeRequest};
use specee_synth::{DatasetProfile, OracleDraft, SyntheticLm, SyntheticLmBuilder};
use specee_tensor::rng::Pcg;

const N_LAYERS: usize = 8;
const SEED: u64 = 131;

fn cfg() -> ModelConfig {
    ModelConfig {
        n_layers: N_LAYERS,
        vocab_size: 256,
        ..ModelConfig::tiny()
    }
}

fn build_lm() -> SyntheticLm {
    SyntheticLmBuilder::new(cfg(), DatasetProfile::qa())
        .seed(SEED)
        .build()
}

fn draft_for(lm: &SyntheticLm, id: u64) -> OracleDraft {
    OracleDraft::new(*lm.language(), 0.9, &cfg(), SEED ^ id)
}

fn config(workers: usize, page_capacity: Option<usize>, prefix_share: bool) -> ClusterConfig {
    ClusterConfig {
        workers,
        page_size: 16,
        page_capacity,
        prefix_share,
        preemption: page_capacity.is_some(),
        admission: AdmissionPolicy::Fcfs,
        batcher: BatcherConfig {
            max_batch: 3,
            hardware: HardwareProfile::a100_80g(),
            framework: FrameworkProfile::vllm(),
            cost: CostDims {
                n_layers: N_LAYERS,
                ..CostDims::llama2_7b()
            },
        },
        controller: specee_control::ControllerPolicy::Static,
        gossip: true,
        trace: false,
        trace_sample: 1,
        slo: None,
    }
}

#[test]
fn prefix_reuse_matches_unshared_single_worker() {
    let mut lm = build_lm();
    let mut draft = draft_for(&lm, 0);
    let prompts: Vec<(Vec<TokenId>, usize)> =
        (0..8u32).map(|i| (vec![1 + i, 2 + i], 8usize)).collect();
    let data = collect_training_data(&mut lm, &mut draft, &prompts, 4);
    let pcfg = PredictorConfig {
        hidden_dim: 16,
        ..PredictorConfig::default()
    };
    let mut bank = PredictorBank::new(N_LAYERS, &pcfg, &mut Pcg::seed(SEED));
    train_bank(&mut bank, &data.samples, 1.0, &TrainConfig::default(), SEED);
    let spec = SpecEeConfig {
        predictor: pcfg,
        ..SpecEeConfig::default()
    };
    let schedule = spec.build_schedule(N_LAYERS, Some(&data.exit_frequencies));

    // Two 32-token system prompts (two whole pages) over ten requests with
    // tails of their own; every third one is urgent.
    let requests: Vec<(ServeRequest, Lane)> = (0..10u32)
        .map(|i| {
            let prefix = (0..32u32).map(|t| 1 + (5 * t + 70 * (i / 2 % 2)) % 200);
            let request = ServeRequest {
                id: u64::from(i),
                prompt: prefix.chain([201 + i, 215, 230 + i]).collect(),
                gen_len: 8 + 3 * (i as usize % 3),
                arrival_s: 0.004 * f64::from(i),
            };
            (request, Lane::new(u8::from(i % 3 != 0)))
        })
        .collect();

    let run = |config: &ClusterConfig, factory: SeqFactory<SyntheticLm, OracleDraft>| {
        let router = RouterPolicy::RoundRobin.build();
        let mut cluster = Cluster::spawn(config, router, &bank, &schedule, &spec, factory);
        for (request, lane) in &requests {
            cluster.submit(ClusterRequest::new(request.clone()).with_lane(*lane));
        }
        let report: ClusterReport = cluster.drain();
        assert!(report.failures().is_empty(), "{:?}", report.failures());
        assert_eq!(report.completed(), requests.len());
        report
    };
    // The template has never been stepped: a clone of it is the model a
    // fresh build from the same seed is, sharing its weights besides.
    let template = build_lm();
    let cloning: SeqFactory<SyntheticLm, OracleDraft> = Arc::new(move |req: &ClusterRequest| {
        let lm = template.clone();
        let draft = draft_for(&lm, req.request.id);
        (lm, draft)
    });
    let building: SeqFactory<SyntheticLm, OracleDraft> = Arc::new(|req: &ClusterRequest| {
        let lm = build_lm();
        let draft = draft_for(&lm, req.request.id);
        (lm, draft)
    });

    // Seven pages a worker: three residents of 35 + gen tokens need nine
    // without sharing, so sharing and preemption both have work to do.
    let tight = config(2, Some(7), true);
    let cloned = run(&tight, cloning.clone());
    let built = run(&tight, building.clone());
    assert_eq!(cloned.outputs(), built.outputs());
    assert_eq!(cloned.stats(), built.stats());
    assert_eq!(cloned.aggregate(), built.aggregate());
    for (c, b) in cloned.workers.iter().zip(&built.workers) {
        assert_eq!(c.kv, b.kv, "worker {}", c.worker);
        assert_eq!(c.meter, b.meter, "worker {}", c.worker);
    }
    assert!(cloned.preemptions() > 0, "the cap must bite");
    assert_eq!(cloned.preemptions(), built.preemptions());
    assert_eq!(cloned.resumes(), built.resumes());
    assert_eq!(
        built.prefix_tokens_reused(),
        0,
        "separate builds share no weights"
    );
    assert!(
        cloned.prefix_tokens_reused() > 0,
        "clones copy the resident prefix"
    );
    assert_eq!(cloned.prefix_tokens_reused() % 32, 0, "whole prompt pages");

    // One worker, private pages, no cap: the tokens every run must decode.
    let reference = run(&config(1, None, false), cloning);
    assert_eq!(reference.prefix_tokens_reused(), 0, "nothing is shared");
    for (got, want) in cloned.outputs().iter().zip(reference.outputs()) {
        assert_eq!(got.tokens, want.tokens, "request {}", want.id);
        assert_eq!(got.exit_layers, want.exit_layers, "request {}", want.id);
    }
}
