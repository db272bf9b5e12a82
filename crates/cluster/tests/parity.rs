//! Cluster correctness: single-worker parity with the live batcher,
//! multi-worker scaling, deadline/cancellation semantics, and
//! worker-panic containment.

use std::sync::Arc;

use specee_batch::BatchedEngine;
use specee_cluster::{Cluster, ClusterConfig, ClusterRequest, RouterPolicy};
use specee_core::collect::{collect_training_data, train_bank};
use specee_core::predictor::{PredictorBank, PredictorConfig};
use specee_core::{ScheduleEngine, SpecEeConfig};
use specee_metrics::{FrameworkProfile, HardwareProfile};
use specee_model::{CostDims, ModelConfig, TokenId};
use specee_nn::TrainConfig;
use specee_serve::{
    AdmissionPolicy, BatcherConfig, ContinuousBatcher, PoissonArrivals, ServeRequest,
};
use specee_synth::{DatasetProfile, OracleDraft, SyntheticLm, SyntheticLmBuilder};
use specee_tensor::rng::Pcg;

const N_LAYERS: usize = 8;

fn cfg() -> ModelConfig {
    ModelConfig {
        n_layers: N_LAYERS,
        vocab_size: 256,
        ..ModelConfig::tiny()
    }
}

fn cost_dims() -> CostDims {
    CostDims {
        n_layers: N_LAYERS,
        ..CostDims::llama2_7b()
    }
}

fn batcher_config(max_batch: usize) -> BatcherConfig {
    BatcherConfig {
        max_batch,
        hardware: HardwareProfile::a100_80g(),
        framework: FrameworkProfile::vllm(),
        cost: cost_dims(),
    }
}

fn cluster_config(workers: usize, max_batch: usize) -> ClusterConfig {
    ClusterConfig {
        workers,
        page_size: 16,
        page_capacity: None,
        prefix_share: false,
        preemption: false,
        admission: AdmissionPolicy::Fcfs,
        batcher: batcher_config(max_batch),
        controller: specee_control::ControllerPolicy::Static,
        gossip: true,
        trace: false,
        trace_sample: 1,
        slo: None,
    }
}

fn build_lm(seed: u64) -> SyntheticLm {
    SyntheticLmBuilder::new(cfg(), DatasetProfile::qa())
        .seed(seed)
        .build()
}

fn trained(seed: u64) -> (PredictorBank, ScheduleEngine, SpecEeConfig) {
    let mut lm = build_lm(seed);
    let mut draft = OracleDraft::new(*lm.language(), 0.9, &cfg(), seed);
    let prompts: Vec<(Vec<TokenId>, usize)> =
        (0..8u32).map(|i| (vec![1 + i, 2 + i], 8usize)).collect();
    let data = collect_training_data(&mut lm, &mut draft, &prompts, 4);
    let pcfg = PredictorConfig {
        hidden_dim: 16,
        ..PredictorConfig::default()
    };
    let mut bank = PredictorBank::new(N_LAYERS, &pcfg, &mut Pcg::seed(seed));
    train_bank(&mut bank, &data.samples, 1.0, &TrainConfig::default(), seed);
    let config = SpecEeConfig {
        predictor: pcfg,
        ..SpecEeConfig::default()
    };
    let schedule = config.build_schedule(N_LAYERS, Some(&data.exit_frequencies));
    (bank, schedule, config)
}

/// The per-sequence factory used by both the live batcher closure and the
/// cluster (same seeds → same sequences).
fn seq_parts(seed: u64, id: u64) -> (SyntheticLm, OracleDraft) {
    let lm = build_lm(seed);
    let draft = OracleDraft::new(*lm.language(), 0.9, &cfg(), seed ^ id);
    (lm, draft)
}

fn factory(seed: u64) -> specee_cluster::SeqFactory<SyntheticLm, OracleDraft> {
    Arc::new(move |req: &ClusterRequest| seq_parts(seed, req.request.id))
}

fn specs(n: usize, gen: usize) -> Vec<(Vec<TokenId>, usize)> {
    (0..n as u32)
        .map(|i| (vec![2 + i, 5 + i, 1 + i], gen))
        .collect()
}

fn run_cluster(
    workers: usize,
    max_batch: usize,
    policy: RouterPolicy,
    parts: &(PredictorBank, ScheduleEngine, SpecEeConfig),
    seed: u64,
    requests: &[ServeRequest],
) -> specee_cluster::ClusterReport {
    let mut cluster: Cluster<SyntheticLm, OracleDraft> = Cluster::spawn(
        &cluster_config(workers, max_batch),
        policy.build(),
        &parts.0,
        &parts.1,
        &parts.2,
        factory(seed),
    );
    for req in requests {
        cluster.submit(ClusterRequest::new(req.clone()));
    }
    cluster.drain()
}

/// The acceptance-criterion parity: one round-robin worker reproduces
/// `ContinuousBatcher::run_live` exactly — token streams, exit layers,
/// call counts, and every completion milestone down to the clock.
#[test]
fn one_worker_round_robin_matches_live_mode_exactly() {
    let seed = 41;
    let parts = trained(seed);
    // A rate that interleaves queueing, batched admissions and idle gaps.
    let requests = PoissonArrivals::new(18.0, 7).requests(&specs(7, 8));
    let batcher = ContinuousBatcher::new(batcher_config(3));
    let mut engine: BatchedEngine<SyntheticLm, OracleDraft> = BatchedEngine::new(
        3,
        16,
        N_LAYERS,
        parts.0.clone(),
        parts.1.clone(),
        parts.2.clone(),
    );
    let live = batcher.run_live(&requests, &mut engine, |r| seq_parts(seed, r.id));

    let report = run_cluster(1, 3, RouterPolicy::RoundRobin, &parts, seed, &requests);
    assert!(report.failures().is_empty());
    assert_eq!(report.workers.len(), 1);

    // Token-identical output and identical exit-layer counts...
    let outputs = report.outputs();
    assert_eq!(outputs.len(), live.outputs.len());
    for (cluster_out, live_out) in outputs.iter().zip(&live.outputs) {
        assert_eq!(cluster_out.id, live_out.id);
        assert_eq!(
            cluster_out.tokens, live_out.tokens,
            "request {}",
            live_out.id
        );
        assert_eq!(
            cluster_out.exit_layers, live_out.exit_layers,
            "request {}",
            live_out.id
        );
        assert_eq!(cluster_out.predictor_calls, live_out.predictor_calls);
        assert_eq!(cluster_out.verify_calls, live_out.verify_calls);
    }
    // ...and a bit-identical timing report: same admission boundaries,
    // same priced steps, same clock.
    assert_eq!(report.aggregate(), live.report);
}

/// Same-instant arrivals must be admitted in one batched prefill by the
/// worker exactly as the full-list live loop admits them.
#[test]
fn one_worker_parity_with_simultaneous_arrivals() {
    let seed = 47;
    let parts = trained(seed);
    let mut requests = PoissonArrivals::new(25.0, 5).requests(&specs(6, 6));
    // Force arrival collisions across admission boundaries.
    let t0 = requests[0].arrival_s;
    requests[1].arrival_s = t0;
    requests[2].arrival_s = t0;
    let t4 = requests[4].arrival_s.max(t0);
    requests[4].arrival_s = t4;
    requests[5].arrival_s = t4;
    for w in requests.windows(2) {
        assert!(w[0].arrival_s <= w[1].arrival_s);
    }
    let batcher = ContinuousBatcher::new(batcher_config(2));
    let mut engine: BatchedEngine<SyntheticLm, OracleDraft> = BatchedEngine::new(
        2,
        16,
        N_LAYERS,
        parts.0.clone(),
        parts.1.clone(),
        parts.2.clone(),
    );
    let live = batcher.run_live(&requests, &mut engine, |r| seq_parts(seed, r.id));
    let report = run_cluster(1, 2, RouterPolicy::RoundRobin, &parts, seed, &requests);
    assert_eq!(report.aggregate(), live.report);
}

/// Parity must also hold under the shortest-job-first admission policy
/// (the worker reuses the exact pick the replay/live loops use).
#[test]
fn one_worker_parity_under_sjf_admission() {
    let seed = 53;
    let parts = trained(seed);
    let mut spec_list = specs(6, 6);
    for (i, s) in spec_list.iter_mut().enumerate() {
        s.1 = if i % 2 == 0 { 10 } else { 4 };
    }
    let requests = PoissonArrivals::new(40.0, 9).requests(&spec_list);
    let batcher =
        ContinuousBatcher::with_policy(batcher_config(2), AdmissionPolicy::ShortestJobFirst);
    let mut engine: BatchedEngine<SyntheticLm, OracleDraft> = BatchedEngine::new(
        2,
        16,
        N_LAYERS,
        parts.0.clone(),
        parts.1.clone(),
        parts.2.clone(),
    );
    let live = batcher.run_live(&requests, &mut engine, |r| seq_parts(seed, r.id));

    let config = ClusterConfig {
        admission: AdmissionPolicy::ShortestJobFirst,
        ..cluster_config(1, 2)
    };
    let mut cluster: Cluster<SyntheticLm, OracleDraft> = Cluster::spawn(
        &config,
        RouterPolicy::RoundRobin.build(),
        &parts.0,
        &parts.1,
        &parts.2,
        factory(seed),
    );
    for req in &requests {
        cluster.submit(ClusterRequest::new(req.clone()));
    }
    let report = cluster.drain();
    assert_eq!(report.aggregate(), live.report);
}

/// More workers, same workload: everything completes, every sequence's
/// tokens are what it decodes anywhere (batching and routing change
/// timing, never values), and the parallel makespan shrinks.
#[test]
fn multi_worker_cluster_completes_and_scales() {
    let seed = 61;
    let parts = trained(seed);
    let requests = PoissonArrivals::new(80.0, 11).requests(&specs(10, 8));
    let one = run_cluster(1, 2, RouterPolicy::RoundRobin, &parts, seed, &requests);
    let two = run_cluster(2, 2, RouterPolicy::RoundRobin, &parts, seed, &requests);
    let four = run_cluster(4, 2, RouterPolicy::ShortestQueue, &parts, seed, &requests);
    for report in [&one, &two, &four] {
        assert_eq!(report.completed(), requests.len());
        assert!(report.not_completed().is_empty());
    }
    // Values are identical across deployments.
    for (a, b) in one.outputs().iter().zip(two.outputs()) {
        assert_eq!(a.tokens, b.tokens);
        assert_eq!(a.exit_layers, b.exit_layers);
    }
    for (a, b) in one.outputs().iter().zip(four.outputs()) {
        assert_eq!(a.tokens, b.tokens);
    }
    // Parallel workers shorten the saturated burst.
    let t1 = one.stats().throughput_tok_s;
    let t2 = two.stats().throughput_tok_s;
    let t4 = four.stats().throughput_tok_s;
    assert!(t2 > t1, "2 workers {t2} vs 1 worker {t1}");
    assert!(t4 > t2, "4 workers {t4} vs 2 workers {t2}");
    // Two runs of the same configuration agree bit-for-bit (the frontier
    // protocol removes thread-scheduling nondeterminism).
    let again = run_cluster(2, 2, RouterPolicy::RoundRobin, &parts, seed, &requests);
    assert_eq!(again.aggregate(), two.aggregate());
}

/// A deliberately poisoned request fails only its own worker; the other
/// worker's requests complete and the report records the damage instead
/// of the run hanging.
#[test]
fn poisoned_request_is_contained_to_its_worker() {
    let seed = 67;
    let parts = trained(seed);
    let requests = PoissonArrivals::new(50.0, 13).requests(&specs(6, 6));
    let poisoned: u64 = 2;
    let make_seq: specee_cluster::SeqFactory<SyntheticLm, OracleDraft> =
        Arc::new(move |req: &ClusterRequest| {
            assert!(
                req.request.id != poisoned,
                "poisoned request {poisoned} reached the factory"
            );
            seq_parts(seed, req.request.id)
        });
    let mut cluster: Cluster<SyntheticLm, OracleDraft> = Cluster::spawn(
        &cluster_config(2, 2),
        RouterPolicy::RoundRobin.build(),
        &parts.0,
        &parts.1,
        &parts.2,
        make_seq,
    );
    for req in &requests {
        cluster.submit(ClusterRequest::new(req.clone()));
    }
    let report = cluster.drain();

    // Round-robin sends even ids to worker 0 until it fails on the
    // poison; worker 1 then absorbs the rest of the traffic untouched.
    let failures = report.failures();
    assert_eq!(failures.len(), 1, "exactly one worker failed");
    assert_eq!(failures[0].0, 0);
    assert!(failures[0].1.contains("poisoned"), "msg: {}", failures[0].1);
    assert!(report.workers[0].failed.contains(&poisoned));
    assert!(report.workers[1].panic.is_none());
    assert!(report.workers[1].failed.is_empty());
    assert!(
        report.workers[1].report.completions.len() >= 3,
        "worker 1 serves its own traffic plus the failed-over remainder"
    );
    for c in &report.workers[1].report.completions {
        assert_eq!(c.tokens, 6);
    }
    // Every request is accounted for exactly once.
    let mut accounted: Vec<u64> = report
        .aggregate()
        .completions
        .iter()
        .map(|c| c.id)
        .collect();
    accounted.extend(report.not_completed());
    accounted.sort_unstable();
    assert_eq!(accounted, (0..requests.len() as u64).collect::<Vec<_>>());
}

/// A queued request whose absolute deadline passes before a slot frees is
/// dropped and reported, not decoded.
#[test]
fn expired_deadline_cancels_queued_request() {
    let seed = 71;
    let parts = trained(seed);
    // One long job hogs the single slot; the second request's deadline
    // expires while it waits.
    let requests = [
        ServeRequest {
            id: 0,
            prompt: vec![1, 2, 3],
            gen_len: 24,
            arrival_s: 0.0,
        },
        ServeRequest {
            id: 1,
            prompt: vec![2, 3, 4],
            gen_len: 4,
            arrival_s: 1e-4,
        },
    ];
    let mut cluster: Cluster<SyntheticLm, OracleDraft> = Cluster::spawn(
        &cluster_config(1, 1),
        RouterPolicy::RoundRobin.build(),
        &parts.0,
        &parts.1,
        &parts.2,
        factory(seed),
    );
    cluster.submit(ClusterRequest::new(requests[0].clone()));
    cluster.submit(ClusterRequest::new(requests[1].clone()).with_deadline(2e-4));
    let report = cluster.drain();
    assert_eq!(report.completed(), 1);
    assert_eq!(report.aggregate().completions[0].id, 0);
    assert_eq!(report.workers[0].timed_out, vec![1]);

    // The same workload with a generous deadline completes both.
    let mut cluster: Cluster<SyntheticLm, OracleDraft> = Cluster::spawn(
        &cluster_config(1, 1),
        RouterPolicy::RoundRobin.build(),
        &parts.0,
        &parts.1,
        &parts.2,
        factory(seed),
    );
    cluster.submit(ClusterRequest::new(requests[0].clone()));
    cluster.submit(ClusterRequest::new(requests[1].clone()).with_deadline(1e9));
    let report = cluster.drain();
    assert_eq!(report.completed(), 2);
    assert!(report.workers[0].timed_out.is_empty());
}

/// Cancellation drops a queued request outright and retires a mid-decode
/// sequence with its partial output.
#[test]
fn cancellation_queued_and_mid_decode() {
    let seed = 73;
    let parts = trained(seed);
    let long = ServeRequest {
        id: 0,
        prompt: vec![1, 2, 3],
        gen_len: 24,
        arrival_s: 0.0,
    };
    let queued = ServeRequest {
        id: 1,
        prompt: vec![2, 3, 4],
        gen_len: 6,
        arrival_s: 1e-4,
    };
    let later = ServeRequest {
        id: 2,
        prompt: vec![3, 4, 5],
        gen_len: 6,
        arrival_s: 0.05,
    };
    let mut cluster: Cluster<SyntheticLm, OracleDraft> = Cluster::spawn(
        &cluster_config(1, 1),
        RouterPolicy::RoundRobin.build(),
        &parts.0,
        &parts.1,
        &parts.2,
        factory(seed),
    );
    cluster.submit(ClusterRequest::new(long.clone()));
    cluster.submit(ClusterRequest::new(queued.clone()));
    assert!(cluster.cancel(1), "queued request is known");
    // The `later` arrival advances the worker mid-decode of request 0;
    // cancelling 0 afterwards retires it with a partial output.
    cluster.submit(ClusterRequest::new(later.clone()));
    assert!(cluster.cancel(0));
    assert!(!cluster.cancel(99), "unknown id");
    let report = cluster.drain();
    assert_eq!(report.completed(), 1);
    assert_eq!(report.aggregate().completions[0].id, 2);
    let mut cancelled = report.workers[0].cancelled.clone();
    cancelled.sort_unstable();
    assert_eq!(cancelled, vec![0, 1]);
    let outputs = report.outputs();
    // Request 0's partial output: decoding started but was cut short.
    let partial = outputs.iter().find(|o| o.id == 0).expect("partial output");
    assert!(!partial.tokens.is_empty());
    assert!(partial.tokens.len() < 24, "cancelled before finishing");
    // Request 1 never decoded: no output at all.
    assert!(!outputs.iter().any(|o| o.id == 1));
}

/// Zero-length requests complete at admission with an empty output, as in
/// live mode.
#[test]
fn zero_gen_len_completes_at_admission() {
    let seed = 79;
    let parts = trained(seed);
    let mut requests = PoissonArrivals::new(10.0, 3).requests(&specs(3, 6));
    requests[1].gen_len = 0;
    let report = run_cluster(2, 2, RouterPolicy::ShortestQueue, &parts, seed, &requests);
    assert_eq!(report.completed(), 3);
    let outputs = report.outputs();
    assert_eq!(outputs.len(), 3);
    assert!(outputs[1].tokens.is_empty());
    let completion = &report.aggregate().completions[1];
    assert_eq!(completion.tokens, 0);
    assert_eq!(completion.first_token_s, completion.finish_s);
}

/// Exit-aware routing with per-class hints packs a skewed workload by
/// depth far better than round-robin does: on an SSDD arrival pattern
/// (the adversarial case for round-robin at two workers) round-robin
/// mixes every batch, while exit-aware keeps each worker's residents
/// predominantly one class.
#[test]
fn exit_aware_routing_segregates_skewed_traffic() {
    let seed = 83;
    let parts = trained(seed);
    let requests = PoissonArrivals::new(100.0, 17).requests(&specs(8, 6));
    // SSDD pattern: shallow, shallow, deep, deep, repeating.
    let hint_of = |i: usize| if (i / 2).is_multiple_of(2) { 2.0 } else { 8.0 };

    let route_all = |policy: RouterPolicy| {
        let mut cluster: Cluster<SyntheticLm, OracleDraft> = Cluster::spawn(
            &cluster_config(2, 2),
            policy.build(),
            &parts.0,
            &parts.1,
            &parts.2,
            factory(seed),
        );
        let mut assignments = Vec::new();
        for (i, req) in requests.iter().enumerate() {
            let w = cluster
                .submit(ClusterRequest::new(req.clone()).with_exit_hint(hint_of(i)))
                .expect("routable");
            assignments.push((hint_of(i), w));
        }
        (cluster.drain(), assignments)
    };
    // Minority-class residents per worker: 0 = perfect segregation.
    let mixing = |assignments: &[(f64, usize)]| -> usize {
        (0..2)
            .map(|w| {
                let shallow = assignments
                    .iter()
                    .filter(|(h, aw)| *aw == w && *h < 5.0)
                    .count();
                let deep = assignments
                    .iter()
                    .filter(|(h, aw)| *aw == w && *h > 5.0)
                    .count();
                shallow.min(deep)
            })
            .sum()
    };

    let (ea_report, ea_assignments) = route_all(RouterPolicy::ExitAware);
    let (rr_report, rr_assignments) = route_all(RouterPolicy::RoundRobin);
    assert_eq!(ea_report.completed(), requests.len());
    assert_eq!(rr_report.completed(), requests.len());
    let (ea_mix, rr_mix) = (mixing(&ea_assignments), mixing(&rr_assignments));
    assert_eq!(rr_mix, 4, "SSDD round-robin mixes every pair");
    assert!(
        ea_mix < rr_mix,
        "exit-aware mixing {ea_mix} should beat round-robin {rr_mix}: {ea_assignments:?}"
    );
    // Determinism: re-routing the same workload reproduces the decisions.
    let (_, again) = route_all(RouterPolicy::ExitAware);
    assert_eq!(again, ea_assignments);
}

/// Cross-worker gossip actually transfers per-class controller state:
/// with round-robin splitting two tagged classes across two workers,
/// each worker ends the run with state for the class it never decoded —
/// warmed purely by the coordinator's evidence broadcasts — while a
/// gossip-off run leaves each worker knowing only its own class.
#[test]
fn gossip_warms_classes_a_worker_never_served() {
    use specee_core::TrafficClass;
    let seed = 89;
    let parts = trained(seed);
    // Slow arrivals so workers decode (and accumulate evidence) between
    // sync points.
    let requests = PoissonArrivals::new(12.0, 9).requests(&specs(8, 8));
    let (class_a, class_b) = (TrafficClass::new(1), TrafficClass::new(2));
    let run = |gossip: bool| {
        let config = ClusterConfig {
            controller: specee_control::ControllerPolicy::pid(),
            gossip,
            ..cluster_config(2, 2)
        };
        let mut cluster: Cluster<SyntheticLm, OracleDraft> = Cluster::spawn(
            &config,
            RouterPolicy::RoundRobin.build(),
            &parts.0,
            &parts.1,
            &parts.2,
            factory(seed),
        );
        for (i, req) in requests.iter().enumerate() {
            // Round-robin: even indices land on worker 0 (class A), odd
            // on worker 1 (class B).
            let class = if i % 2 == 0 { class_a } else { class_b };
            cluster.submit(ClusterRequest::new(req.clone()).with_class(class));
        }
        cluster.drain()
    };
    let with = run(true);
    let without = run(false);
    for report in [&with, &without] {
        assert_eq!(report.completed(), requests.len());
    }
    let classes_of = |report: &specee_cluster::ClusterReport, w: usize| -> Vec<TrafficClass> {
        report.workers[w].classes.iter().map(|c| c.class).collect()
    };
    // Without gossip each worker knows only the class it decoded...
    assert_eq!(classes_of(&without, 0), vec![class_a]);
    assert_eq!(classes_of(&without, 1), vec![class_b]);
    // ...with gossip both workers carry both classes' controller state.
    assert_eq!(classes_of(&with, 0), vec![class_a, class_b]);
    assert_eq!(classes_of(&with, 1), vec![class_a, class_b]);
    // The warmed class has an operating point but no locally decoded
    // requests on the worker that never served it.
    let warmed = with.workers[0]
        .classes
        .iter()
        .find(|c| c.class == class_b)
        .expect("warmed class");
    assert_eq!(warmed.requests, 0);
    assert!(warmed.mean_threshold.is_some());
    // Cluster-wide breakdown merges both workers' rows exactly.
    let breakdown = with.class_breakdown();
    assert_eq!(
        breakdown.iter().map(|c| c.class).collect::<Vec<_>>(),
        vec![class_a, class_b]
    );
    assert_eq!(breakdown.iter().map(|c| c.requests).sum::<usize>(), 8);
    // Token values never move with gossip (thresholds steer *future*
    // scans; greedy decode per sequence is threshold-independent).
    for (a, b) in with.outputs().iter().zip(without.outputs()) {
        assert_eq!(a.tokens, b.tokens);
    }
}

/// Gossip with the static policy is inert: evidence flows but absorb is
/// a no-op, so a gossip-on static run is bit-identical to gossip-off.
#[test]
fn static_gossip_is_bit_identical_to_no_gossip() {
    let seed = 97;
    let parts = trained(seed);
    let requests = PoissonArrivals::new(40.0, 11).requests(&specs(8, 6));
    let run = |gossip: bool| {
        let config = ClusterConfig {
            gossip,
            ..cluster_config(2, 2)
        };
        let mut cluster: Cluster<SyntheticLm, OracleDraft> = Cluster::spawn(
            &config,
            RouterPolicy::RoundRobin.build(),
            &parts.0,
            &parts.1,
            &parts.2,
            factory(seed),
        );
        for req in &requests {
            cluster.submit(ClusterRequest::new(req.clone()).with_exit_hint(4.0));
        }
        cluster.drain()
    };
    let (on, off) = (run(true), run(false));
    assert_eq!(on.aggregate(), off.aggregate());
    for (a, b) in on.workers.iter().zip(&off.workers) {
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.classes, b.classes);
    }
}

/// The gossip determinism bar: merged posteriors (and everything else a
/// gossiping adaptive cluster produces) are bit-identical across two
/// executions — per-class controller summaries included.
#[test]
fn gossiped_posteriors_are_bit_identical_across_executions() {
    use specee_core::TrafficClass;
    let seed = 59;
    let parts = trained(seed);
    let requests = PoissonArrivals::new(15.0, 13).requests(&specs(8, 8));
    let run = |policy: specee_control::ControllerPolicy| {
        let config = ClusterConfig {
            controller: policy,
            gossip: true,
            ..cluster_config(2, 2)
        };
        let mut cluster: Cluster<SyntheticLm, OracleDraft> = Cluster::spawn(
            &config,
            RouterPolicy::RoundRobin.build(),
            &parts.0,
            &parts.1,
            &parts.2,
            factory(seed),
        );
        for (i, req) in requests.iter().enumerate() {
            let class = TrafficClass::new(1 + (i % 2) as u16);
            cluster.submit(ClusterRequest::new(req.clone()).with_class(class));
        }
        cluster.drain()
    };
    for policy in [
        specee_control::ControllerPolicy::pid(),
        specee_control::ControllerPolicy::bandit(),
    ] {
        let a = run(policy.clone());
        let b = run(policy.clone());
        for (wa, wb) in a.workers.iter().zip(&b.workers) {
            assert_eq!(wa.outputs, wb.outputs, "{}", policy.name());
            assert_eq!(wa.report.completions, wb.report.completions);
            assert_eq!(
                wa.classes,
                wb.classes,
                "{}: per-class state (gossip-merged posteriors included) \
                 must be bit-identical across executions",
                policy.name()
            );
            // Gossip genuinely ran: every worker carries both classes.
            assert_eq!(wa.classes.len(), 2, "{}", policy.name());
        }
    }
}

/// Adaptive controller state rides the arrival-frontier protocol: a
/// cluster run with per-worker PID (or bandit) controllers is a pure
/// function of the workload — two identical runs produce identical
/// completions, outputs, and controller operating points, despite real
/// worker threads adapting thresholds mid-flight.
#[test]
fn adaptive_controllers_stay_deterministic_across_runs() {
    let seed = 53;
    let parts = trained(seed);
    let requests = PoissonArrivals::new(18.0, 9).requests(&specs(8, 8));
    let run = |policy: specee_control::ControllerPolicy| {
        let config = ClusterConfig {
            controller: policy,
            ..cluster_config(2, 2)
        };
        let mut cluster: Cluster<SyntheticLm, OracleDraft> = Cluster::spawn(
            &config,
            RouterPolicy::RoundRobin.build(),
            &parts.0,
            &parts.1,
            &parts.2,
            factory(seed),
        );
        for req in &requests {
            cluster.submit(ClusterRequest::new(req.clone()));
        }
        cluster.drain()
    };
    for policy in [
        specee_control::ControllerPolicy::pid(),
        specee_control::ControllerPolicy::bandit(),
    ] {
        let a = run(policy.clone());
        let b = run(policy.clone());
        assert_eq!(a.completed(), requests.len(), "{}", policy.name());
        for (wa, wb) in a.workers.iter().zip(&b.workers) {
            assert_eq!(
                wa.report.completions,
                wb.report.completions,
                "{}: completions must be identical across runs",
                policy.name()
            );
            assert_eq!(
                wa.outputs,
                wb.outputs,
                "{}: decoded outputs must be identical across runs",
                policy.name()
            );
            let (ca, cb) = (
                wa.controller.as_ref().expect("controller attached"),
                wb.controller.as_ref().expect("controller attached"),
            );
            assert_eq!(ca, cb, "{}: controller trajectories", policy.name());
            assert_eq!(ca.policy, policy.name());
            assert!(
                ca.accepts + ca.rejects > 0,
                "{}: the run should exercise the verifier",
                policy.name()
            );
        }
    }
}

/// Tracing must be a pure observer: a traced 3-worker run is bit-identical
/// to the untraced run (tokens, exit layers, per-worker reports), and the
/// captured stream exports to a Chrome trace that re-parses with one lane
/// per worker plus the coordinator's routing lane.
#[test]
fn traced_cluster_run_is_bit_identical_and_exports() {
    use specee_obs::{EventKind, COORDINATOR_LANE};

    let seed = 61;
    let parts = trained(seed);
    let requests = PoissonArrivals::new(25.0, 17).requests(&specs(9, 8));
    let run = |trace: bool| {
        let config = ClusterConfig {
            trace,
            controller: specee_control::ControllerPolicy::pid(),
            ..cluster_config(3, 2)
        };
        let mut cluster: Cluster<SyntheticLm, OracleDraft> = Cluster::spawn(
            &config,
            RouterPolicy::ExitAware.build(),
            &parts.0,
            &parts.1,
            &parts.2,
            factory(seed),
        );
        for req in &requests {
            cluster.submit(ClusterRequest::new(req.clone()).with_exit_hint(4.0));
        }
        cluster.drain()
    };

    let plain = run(false);
    let traced = run(true);
    assert!(plain.failures().is_empty() && traced.failures().is_empty());

    // Bit-identity: recording must never feed back into the simulation.
    assert!(plain.events.is_empty(), "untraced runs carry no events");
    assert_eq!(plain.aggregate(), traced.aggregate());
    for (p, t) in plain.workers.iter().zip(&traced.workers) {
        assert_eq!(p.report, t.report, "worker {} timing report", p.worker);
        for (po, to) in p.outputs.iter().zip(&t.outputs) {
            assert_eq!(po.tokens, to.tokens, "request {}", po.id);
            assert_eq!(po.exit_layers, to.exit_layers, "request {}", po.id);
        }
    }

    // The merged stream is clock-ordered and the coordinator logged one
    // routing decision per request, scored over every live worker.
    assert!(traced.events.windows(2).all(|w| w[0].t <= w[1].t));
    let routes: Vec<_> = traced
        .events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Routing {
                policy,
                chosen,
                scores,
                ..
            } => {
                assert_eq!(e.worker, COORDINATOR_LANE);
                assert_eq!(*policy, "exit-aware");
                Some((*chosen, scores.clone()))
            }
            _ => None,
        })
        .collect();
    assert_eq!(routes.len(), requests.len());
    for (chosen, scores) in &routes {
        assert_eq!(scores.len(), 3, "one score per live worker");
        assert!(scores.iter().any(|(w, _)| w == chosen));
    }

    // Every decode token that exited early shows up as an accepted
    // exit-decision instant (prompt slot 0 never exits; layer == N_LAYERS
    // means the token rode the full depth).
    let early_exits: usize = traced
        .outputs()
        .iter()
        .map(|o| {
            o.exit_layers
                .iter()
                .skip(1)
                .filter(|&&l| l < N_LAYERS)
                .count()
        })
        .sum();
    let accepted = traced
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::ExitDecision { accepted, .. } if accepted))
        .count();
    assert!(early_exits > 0, "the run should exercise early exit");
    assert_eq!(accepted, early_exits);

    // The Chrome export re-parses with the vendored serde_json and lays
    // out one lane per worker plus the coordinator lane.
    let json = specee_obs::chrome_trace_json(&traced.events);
    let doc: serde::Value = serde_json::from_str(&json).expect("chrome trace re-parses");
    let lanes = specee_obs::lanes_of(&doc).expect("traceEvents present");
    assert_eq!(lanes.len(), 4, "3 worker lanes + coordinator");

    // The metadata records name every lane for Perfetto: pid 0 is the
    // "specee" process, and each tid carries its human-readable name.
    let serde::Value::Seq(records) = doc.get("traceEvents").expect("traceEvents present") else {
        panic!("traceEvents must be an array");
    };
    let metas: Vec<(String, String)> = records
        .iter()
        .filter(|r| matches!(r.get("ph"), Some(serde::Value::Str(ph)) if ph == "M"))
        .filter_map(|r| {
            let (Some(serde::Value::Str(name)), Some(serde::Value::Str(value))) =
                (r.get("name"), r.get("args").and_then(|a| a.get("name")))
            else {
                return None;
            };
            Some((name.clone(), value.clone()))
        })
        .collect();
    assert!(
        metas.contains(&("process_name".to_string(), "specee".to_string())),
        "process_name metadata: {metas:?}"
    );
    for lane in ["worker-0", "worker-1", "worker-2", "coordinator"] {
        assert!(
            metas.contains(&("thread_name".to_string(), lane.to_string())),
            "lane {lane} must be named: {metas:?}"
        );
    }

    // And the metrics snapshot agrees with the report's own counts.
    let reg = traced.metrics(None);
    assert_eq!(
        reg.counter("specee_requests_total") as usize,
        traced.completed()
    );
    assert_eq!(
        reg.counter("specee_steps_total") as u64,
        traced.aggregate().steps
    );
}

/// The memory-plane parity bar: a one-worker cluster running with a page
/// capacity, preemption and priority lanes reproduces
/// `ContinuousBatcher::run_live_laned` on an identically configured
/// engine exactly — same preempt/resume sequence, same token streams,
/// same priced clock — and the run genuinely preempts.
#[test]
fn one_worker_parity_with_lanes_and_preemption() {
    use specee_core::Lane;
    let seed = 103;
    let parts = trained(seed);
    let requests = PoissonArrivals::new(30.0, 21).requests(&specs(6, 20));
    let lanes: Vec<Lane> = (0..requests.len())
        .map(|i| Lane::new((i % 3) as u8))
        .collect();

    let batcher = ContinuousBatcher::new(batcher_config(3));
    let mut engine: BatchedEngine<SyntheticLm, OracleDraft> = BatchedEngine::new(
        3,
        16,
        N_LAYERS,
        parts.0.clone(),
        parts.1.clone(),
        parts.2.clone(),
    );
    engine.set_page_capacity(Some(4));
    engine.set_preemption_enabled(true);
    let live = batcher.run_live_laned(&requests, &lanes, &mut engine, |r| seq_parts(seed, r.id));
    assert!(engine.preemptions() > 0, "the capped run must preempt");

    let config = ClusterConfig {
        page_capacity: Some(4),
        preemption: true,
        ..cluster_config(1, 3)
    };
    let mut cluster: Cluster<SyntheticLm, OracleDraft> = Cluster::spawn(
        &config,
        RouterPolicy::RoundRobin.build(),
        &parts.0,
        &parts.1,
        &parts.2,
        factory(seed),
    );
    for (req, lane) in requests.iter().zip(&lanes) {
        cluster.submit(ClusterRequest::new(req.clone()).with_lane(*lane));
    }
    let report = cluster.drain();
    assert!(report.failures().is_empty());
    assert_eq!(report.preemptions(), engine.preemptions());
    assert_eq!(report.resumes(), engine.resumes());
    let outputs = report.outputs();
    assert_eq!(outputs.len(), live.outputs.len());
    for (cluster_out, live_out) in outputs.iter().zip(&live.outputs) {
        assert_eq!(cluster_out.id, live_out.id);
        assert_eq!(
            cluster_out.tokens, live_out.tokens,
            "request {}",
            live_out.id
        );
        assert_eq!(
            cluster_out.exit_layers, live_out.exit_layers,
            "request {}",
            live_out.id
        );
    }
    assert_eq!(report.aggregate(), live.report);
    // Page-pressure accounting surfaces in the worker report.
    assert!(report.kv_pages_peak() <= 4, "cap respected");
    assert_eq!(report.workers[0].kv.capacity, Some(4));
}

/// Online SLO tracking and trace sampling are pure observers at the
/// cluster tier too: a run with an (impossibly tight, hence firing) SLO
/// is bit-identical whether its workers record through sampled recorders
/// or not at all, the fired transitions land on the worker lanes, and
/// the sampling drops are counted into the metrics export.
#[test]
fn slo_tracked_sampled_cluster_run_is_bit_identical() {
    use specee_obs::{EventKind, SloSpec};
    let seed = 101;
    let parts = trained(seed);
    let requests = PoissonArrivals::new(60.0, 19).requests(&specs(10, 8));
    let run = |trace: bool| {
        let config = ClusterConfig {
            trace,
            trace_sample: if trace { 2 } else { 1 },
            slo: Some(SloSpec::parse("p99_ttft=0.001").expect("valid spec")),
            controller: specee_control::ControllerPolicy::Static.slo_adaptive(),
            ..cluster_config(2, 2)
        };
        let mut cluster: Cluster<SyntheticLm, OracleDraft> = Cluster::spawn(
            &config,
            RouterPolicy::RoundRobin.build(),
            &parts.0,
            &parts.1,
            &parts.2,
            factory(seed),
        );
        for req in &requests {
            cluster.submit(ClusterRequest::new(req.clone()));
        }
        cluster.drain()
    };
    let plain = run(false);
    let traced = run(true);
    assert!(plain.failures().is_empty() && traced.failures().is_empty());
    assert_eq!(plain.aggregate(), traced.aggregate());
    for (p, t) in plain.workers.iter().zip(&traced.workers) {
        assert_eq!(p.report, t.report, "worker {} timing report", p.worker);
        assert_eq!(p.outputs, t.outputs, "worker {} outputs", p.worker);
        assert_eq!(p.controller, t.controller, "worker {} controller", p.worker);
        assert_eq!(
            p.controller.as_ref().map(|c| c.policy),
            Some("slo+static"),
            "the SLO wrapper must ride the cluster controller"
        );
    }
    // The impossible target fires on the worker lanes, and the burn bent
    // real behavior: pressure pushed the wrapped static controller off
    // its base operating point at some step boundary.
    assert!(
        traced
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::SloFired { .. })),
        "the impossible target must fire in the trace"
    );
    // Sampling genuinely dropped events, only on the traced run, and the
    // drop count surfaces in the Prometheus-facing registry.
    let dropped: u64 = traced.workers.iter().map(|w| w.dropped_events).sum();
    assert!(dropped > 0, "1-in-2 sampling must drop events");
    assert_eq!(
        plain.workers.iter().map(|w| w.dropped_events).sum::<u64>(),
        0,
        "untraced workers drop nothing"
    );
    let reg = traced.metrics(None);
    assert_eq!(
        reg.counter("specee_trace_dropped_events_total") as u64,
        dropped
    );
}
