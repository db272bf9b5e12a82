//! One benchmark run: set-up, references, interleaved timed rounds with
//! the exact contracts checked every round, and — in a traced run — one
//! span-wrapped round per path plus the per-crate probes.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::adapter::{
    self, ratio, Bare, Bed, ClusterOpts, Controller, DirectOut, EngineOpts, Paced, Path, RoundOut,
    Seam, SoloKind, Spans,
};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{iqr_share, median, percentile, tail_percentile};
use crate::trace::{self, Span, Tracer};
use crate::workload::{PlainRequest, Workload};
use crate::yardstick::Pacer;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Round pairs a run times at least, however short `--seconds` is.
const MIN_PAIRS: usize = 3;
/// Share of `--seconds` a traced run spends on untraced rounds before the
/// traced ones (they calibrate the tracing overhead and the wall ratios).
const TRACED_RUN_UNTRACED_SHARE: f64 = 0.3;
/// Timed yardstick runs before and after a set-up or a serving round (a
/// `generate` call is short, so one run sits between two of them).
const LONG_PROBE_PASSES: usize = 3;
/// Batch cap of `live_batch`.
const LIVE_CAP: usize = 8;
/// Physical KV pages per `cluster_prefix` worker: a sequence grows to four
/// pages (40 prompt + up to 16 output positions) and three share a worker,
/// so sharing and preemption both have to work; one alone always fits.
const CLUSTER_PAGES: usize = 7;

/// Arguments of one run (the driver's four, plus where traces go).
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload to run.
    pub workload: Workload,
    /// Seed of the request generator.
    pub seed: u64,
    /// Seconds of timed rounds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Directory the Chrome trace is written to.
    pub out_dir: PathBuf,
    /// One set-up and one round pair at least: a fast end-to-end check.
    pub smoke: bool,
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every exact contract held and no request failed.
    pub correct: bool,
    /// Requests attempted over all rounds and paths.
    pub attempted: u64,
    /// Requests that panicked, did not complete or broke a contract.
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable account of the run.
    pub report: String,
}

fn cluster_opts() -> ClusterOpts {
    ClusterOpts {
        workers: 2,
        cap: 4,
        page_capacity: Some(CLUSTER_PAGES),
        prefix_share: true,
        lanes_and_preemption: true,
    }
}

/// The workload's two paths, through the user entry point.
fn run_path<S: Seam>(
    workload: Workload,
    bed: &Bed,
    seam: &S,
    path: Path,
    reqs: &[PlainRequest],
) -> RoundOut {
    match (workload, path) {
        (Workload::SoloAr, Path::SpecEe) => {
            adapter::solo_round(bed, seam, SoloKind::SpecEeAr, reqs)
        }
        (Workload::SoloAr, Path::NoExit) => adapter::solo_round(bed, seam, SoloKind::Dense, reqs),
        (Workload::SoloTree, Path::SpecEe) => {
            adapter::solo_round(bed, seam, SoloKind::TreeExit, reqs)
        }
        (Workload::SoloTree, Path::NoExit) => {
            adapter::solo_round(bed, seam, SoloKind::TreeBaseline, reqs)
        }
        (Workload::LiveBatch, _) => {
            adapter::live_round(bed, seam, path, &EngineOpts::plain(LIVE_CAP), reqs)
        }
        (Workload::ClusterPrefix, _) => {
            adapter::cluster_round(bed, seam, path, &cluster_opts(), reqs)
        }
    }
}

/// Stored outputs the rounds are checked against.
struct Reference {
    /// `DenseEngine` greedy on the same prompts.
    dense: Vec<Vec<u32>>,
    /// The exact contract: which path must equal which tokens.
    exact_path: Path,
    exact: Vec<Vec<u32>>,
    exact_what: &'static str,
}

impl Reference {
    /// The tokens `path` must reproduce exactly, if the contract is on it.
    fn exact_for(&self, path: Path) -> Option<&[Vec<u32>]> {
        (path == self.exact_path).then_some(self.exact.as_slice())
    }
}

/// One fresh engine per request, as the serving tiers give each request.
fn solo_each(bed: &Bed, kind: SoloKind, reqs: &[PlainRequest]) -> Vec<Vec<u32>> {
    reqs.iter()
        .flat_map(|r| adapter::solo_round(bed, &Bare, kind, std::slice::from_ref(r)).tokens)
        .collect()
}

fn references(workload: Workload, bed: &Bed, reqs: &[PlainRequest]) -> Reference {
    match workload {
        Workload::SoloAr | Workload::SoloTree => {
            let dense = adapter::solo_round(bed, &Bare, SoloKind::Dense, reqs).tokens;
            Reference {
                exact: dense.clone(),
                dense,
                exact_path: Path::NoExit,
                exact_what: if workload == Workload::SoloAr {
                    "dense twin == stored dense reference"
                } else {
                    "tree baseline == dense greedy"
                },
            }
        }
        Workload::LiveBatch => Reference {
            dense: solo_each(bed, SoloKind::Dense, reqs),
            exact_path: Path::SpecEe,
            exact: solo_each(bed, SoloKind::SpecEeAr, reqs),
            exact_what: "live tokens == solo SpecEeEngine tokens",
        },
        Workload::ClusterPrefix => {
            let plain = ClusterOpts {
                workers: 1,
                page_capacity: None,
                prefix_share: false,
                lanes_and_preemption: false,
                ..cluster_opts()
            };
            Reference {
                dense: solo_each(bed, SoloKind::Dense, reqs),
                exact_path: Path::SpecEe,
                exact: adapter::cluster_round(bed, &Bare, Path::SpecEe, &plain, reqs).tokens,
                exact_what: "cluster tokens == uncapped unshared single-worker tokens",
            }
        }
    }
}

/// Rounds of one path, with failure accounting.
#[derive(Default)]
struct Tally {
    /// `(request set, result)` in the order run.
    rounds: Vec<(usize, RoundOut)>,
    attempted: u64,
    failed: u64,
    contract_breaks: u64,
}

impl Tally {
    fn push(&mut self, set: usize, out: RoundOut, exact: Option<&[Vec<u32>]>) {
        // Every round function returns one token list per request.
        self.attempted += out.tokens.len() as u64;
        let broken = exact.map_or(0, |want| {
            out.tokens
                .iter()
                .zip(want)
                .filter(|(got, want)| got != want)
                .count() as u64
        });
        self.contract_breaks += broken;
        // A request that failed outright also differs from its reference;
        // count it once.
        self.failed += out.failed.max(broken);
        self.rounds.push((set, out));
    }

    /// Rounds that served `set`.
    fn of_set(&self, set: usize) -> impl Iterator<Item = &RoundOut> {
        self.rounds
            .iter()
            .filter(move |(s, _)| *s == set)
            .map(|(_, r)| r)
    }

    /// The first round of every set that ran, in set order.
    fn one_per_set(&self) -> Vec<(usize, &RoundOut)> {
        let sets = self.rounds.iter().map(|(s, _)| s + 1).max().unwrap_or(0);
        (0..sets)
            .filter_map(|s| self.of_set(s).next().map(|r| (s, r)))
            .collect()
    }

    /// Output tokens per second over the whole run: every set counts
    /// once, at the median time of the rounds that served it.
    fn tok_s(&self, seconds: fn(&RoundOut) -> f64) -> f64 {
        let (mut tokens, mut time) = (0.0, 0.0);
        for (set, first) in self.one_per_set() {
            tokens += first.counts.tokens as f64;
            time += median(&self.of_set(set).map(seconds).collect::<Vec<f64>>());
        }
        ratio(tokens, time)
    }

    /// Every round's time over its set's median time.
    fn round_times_over_set_median(&self) -> Vec<f64> {
        self.one_per_set()
            .into_iter()
            .flat_map(|(set, _)| {
                let times: Vec<f64> = self.of_set(set).map(|r| r.norm_s).collect();
                let mid = median(&times);
                times.into_iter().map(move |t| ratio(t, mid))
            })
            .collect()
    }

    /// The run priced: tokens and priced seconds summed over one round of
    /// every set.
    fn priced(&self) -> (f64, f64) {
        let rounds = self.one_per_set();
        let tokens: f64 = rounds.iter().map(|(_, r)| r.counts.tokens as f64).sum();
        let seconds: f64 = rounds.iter().map(|(_, r)| r.priced_s).sum();
        (ratio(tokens, seconds), seconds)
    }
}

fn token_match(got: &[Vec<u32>], dense: &[Vec<u32>]) -> f64 {
    let (mut same, mut all) = (0usize, 0usize);
    for (g, d) in got.iter().zip(dense) {
        all += d.len();
        same += g.iter().zip(d).filter(|(a, b)| a == b).count();
    }
    ratio(same as f64, all as f64)
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds this process (all threads, joined ones too) has used.
fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat are utime and stime in clock
    // ticks; the comm field may hold spaces, so count from the last ')'.
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let rest = s.rsplit_once(')')?.1.to_string();
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some((f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?) / 100.0)
        })
        .unwrap_or(0.0)
}

/// Runs the interleaved timed rounds for `seconds` (and at least
/// `min_pairs` pairs), flipping the order each pair and moving to the
/// next request set each pair.
#[allow(clippy::too_many_arguments)]
fn timed_rounds(
    workload: Workload,
    paced: &Paced,
    bed: &Bed,
    sets: &[Vec<PlainRequest>],
    references: &[Reference],
    seconds: f64,
    min_pairs: usize,
    tallies: &mut [Tally; 2],
) {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut pair = 0usize;
    while pair < min_pairs || started.elapsed() < budget {
        let set = pair % sets.len();
        // Flip per pair, and again per cycle through the sets, so that a
        // set does not always see the same path first.
        let order = if (pair + pair / sets.len()) & 1 == 0 {
            [Path::SpecEe, Path::NoExit]
        } else {
            [Path::NoExit, Path::SpecEe]
        };
        for path in order {
            let out = run_path(workload, bed, paced, path, &sets[set]);
            tallies[path as usize].push(set, out, references[set].exact_for(path));
        }
        pair += 1;
    }
}

/// Runs one benchmark process' worth of work.
pub fn run(args: &RunArgs) -> RunResult {
    let workload = args.workload;
    let mut report = String::new();

    let pacer = Arc::new(Mutex::new(Pacer::new()));
    let long_probe = Paced {
        pacer: Arc::clone(&pacer),
        passes: LONG_PROBE_PASSES,
    };

    // Set-up, several times over; the last one is kept. --smoke, whose
    // timings nobody reads, sets up once, skips the warm-up round and
    // serves the first request set only.
    let reps = if args.smoke { 1 } else { SETUP_REPS };
    let n_sets = if args.smoke { 1 } else { workload.sets() };
    let mut setup_s = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps {
        let speed_before = long_probe.probe();
        let t = Instant::now();
        let bed = Bed::build();
        let sets: Vec<Vec<PlainRequest>> = (0..n_sets)
            .map(|set| workload.requests(args.seed, set))
            .collect();
        if !args.smoke {
            let warm = &sets[0][..sets[0].len().div_ceil(3)];
            for path in [Path::SpecEe, Path::NoExit] {
                run_path(workload, &bed, &Bare, path, warm);
            }
        }
        let wall = t.elapsed().as_secs_f64();
        setup_s.push(wall * (speed_before + long_probe.probe()) / 2.0);
        kept = Some((bed, sets));
    }
    let (bed, sets) = kept.expect("at least one set-up");
    let t = Instant::now();
    let references: Vec<Reference> = sets
        .iter()
        .map(|reqs| references(workload, &bed, reqs))
        .collect();
    let reference_s = t.elapsed().as_secs_f64();

    let min_pairs = if args.smoke { 1 } else { MIN_PAIRS.max(n_sets) };
    let untraced_s = if args.trace {
        args.seconds * TRACED_RUN_UNTRACED_SHARE
    } else {
        args.seconds
    };
    let mut tallies = [Tally::default(), Tally::default()];
    let paced = Paced {
        pacer: Arc::clone(&pacer),
        passes: if workload.is_serving() {
            LONG_PROBE_PASSES
        } else {
            1
        },
    };
    let (cpu0, wall0) = (cpu_seconds(), Instant::now());
    timed_rounds(
        workload,
        &paced,
        &bed,
        &sets,
        &references,
        untraced_s,
        min_pairs,
        &mut tallies,
    );
    let cpu_over_wall = ratio(cpu_seconds() - cpu0, wall0.elapsed().as_secs_f64());
    let machine_speed = median(pacer.lock().unwrap_or_else(|e| e.into_inner()).speeds());
    let raw_tok_s = tallies[0].tok_s(|r| r.wall_s);

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let table = if args.trace {
        traced_pass(
            args,
            &bed,
            &sets[0],
            &references[0],
            &mut tallies,
            &mut values,
            &mut report,
        );
        values.insert("bench.cpu_over_wall", cpu_over_wall);
        values.insert("bench.machine_speed", machine_speed);
        values.insert("bench.raw_tok_s", raw_tok_s);
        PER_LAYER
    } else {
        let [specee, noexit] = &tallies;
        let req_ms: Vec<f64> = specee
            .rounds
            .iter()
            .flat_map(|(_, r)| r.req_ms.clone())
            .collect();
        values.insert("setup_s", median(&setup_s));
        values.insert("tok_s", specee.tok_s(|r| r.norm_s));
        values.insert("noexit_tok_s", noexit.tok_s(|r| r.norm_s));
        values.insert("req_ms_p50", percentile(&req_ms, 50.0));
        let (p, tail) = tail_percentile(&req_ms);
        values.insert("req_ms_p90", tail);
        values.insert("priced_tok_s", specee.priced().0);
        let (got, dense): (Vec<_>, Vec<_>) = specee
            .one_per_set()
            .into_iter()
            .map(|(set, r)| (r.tokens.clone(), references[set].dense.clone()))
            .unzip();
        values.insert("token_match", token_match(&got.concat(), &dense.concat()));
        let _ = writeln!(
            report,
            "req_ms: {} samples; req_ms_p90 reports p{p} (p90 needs ten samples beyond it, else the median)",
            req_ms.len()
        );
        END_TO_END
    };

    let attempted: u64 = tallies.iter().map(|t| t.attempted).sum();
    let failed: u64 = tallies.iter().map(|t| t.failed).sum();
    let breaks: u64 = tallies.iter().map(|t| t.contract_breaks).sum();
    if args.trace {
        values.insert("bench.fail_share", ratio(failed as f64, attempted as f64));
    } else {
        // Read last, so the peak covers the whole run.
        values.insert("peak_rss_mb", peak_rss_mb());
    }

    let _ = writeln!(
        report,
        "{}: seed {}, {} set-up(s) (median {:.3} s), references {:.3} s, {} round pairs over {} \
         request set(s) of {} requests",
        workload.name(),
        args.seed,
        reps,
        median(&setup_s),
        reference_s,
        tallies[0].rounds.len(),
        n_sets,
        sets[0].len(),
    );
    let _ = writeln!(
        report,
        "  machine speed {machine_speed:.3} of nominal; stopwatch tok_s {raw_tok_s:.1} \
         (wall times below are normalised to nominal speed, see yardstick.rs)",
    );
    for (path, tally) in ["specee", "noexit"].iter().zip(&tallies) {
        let _ = writeln!(
            report,
            "  {path:<7} attempted {:>5}  succeeded {:>5}  failed {:>3}  contract breaks {:>3}",
            tally.attempted,
            tally.attempted - tally.failed,
            tally.failed,
            tally.contract_breaks,
        );
    }
    let _ = writeln!(
        report,
        "  exact contract ({}): {}",
        references[0].exact_what,
        if breaks == 0 {
            "held every round"
        } else {
            "BROKEN"
        }
    );

    let metrics: Vec<(&'static str, f64, &'static str)> = table
        .iter()
        .map(|spec| {
            let v = values.get(spec.name).copied().unwrap_or(0.0);
            (spec.name, v, spec.unit)
        })
        .collect();
    for (name, value, unit) in &metrics {
        let _ = writeln!(report, "  {name:<34} {value:>14.4} {unit}");
    }
    RunResult {
        correct: failed == 0 && breaks == 0,
        attempted,
        failed,
        metrics,
        report,
    }
}

// ---------------------------------------------------------------------------
// The traced pass
// ---------------------------------------------------------------------------

/// Spans that lie inside `[root.start, root.end]` (the root included),
/// re-indexed so parents still point at the right span.
fn window(spans: &[Span], root: usize) -> Vec<Span> {
    let (a, b) = (spans[root].start_ns, spans[root].end_ns);
    let keep: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].start_ns >= a && spans[i].end_ns <= b)
        .collect();
    keep.iter()
        .map(|&i| {
            let mut s = spans[i].clone();
            s.parent = s
                .parent
                .and_then(|p| keep.binary_search(&(p as usize)).ok())
                .map(|p| p as u32);
            s
        })
        .collect()
}

fn mean_ns(t: trace::NameTotals) -> f64 {
    ratio(t.total_ns as f64, t.calls as f64)
}

#[allow(clippy::too_many_lines)]
fn traced_pass(
    args: &RunArgs,
    bed: &Bed,
    reqs: &[PlainRequest],
    reference: &Reference,
    tallies: &mut [Tally; 2],
    values: &mut BTreeMap<&'static str, f64>,
    report: &mut String,
) {
    let workload = args.workload;
    let mut set = |name: &'static str, v: f64| {
        debug_assert!(PER_LAYER.iter().any(|s| s.name == name), "{name}");
        values.insert(name, v);
    };
    // The traced round and the probes below serve request set 0 and are
    // not paced (the yardstick leaves the caches cold for the round that
    // follows it), so they are held against unpaced, untraced rounds run
    // right here; the tok/s are the normalised ones of the timed rounds.
    let n_plain = if args.smoke { 1 } else { 3 };
    let plain_wall = median(
        &(0..n_plain)
            .map(|_| run_path(workload, bed, &Bare, Path::SpecEe, reqs).wall_s)
            .collect::<Vec<f64>>(),
    );
    let untraced_tok_s = [
        tallies[0].tok_s(|r| r.norm_s),
        tallies[1].tok_s(|r| r.norm_s),
    ];
    set(
        "bench.round_iqr_share",
        iqr_share(&tallies[0].round_times_over_set_median()),
    );
    set(
        "core.wall_speedup_vs_noexit",
        ratio(untraced_tok_s[0], untraced_tok_s[1]),
    );
    set(
        "core.priced_speedup_vs_noexit",
        ratio(tallies[0].priced().0, tallies[1].priced().0),
    );
    let tokens: f64 = tallies[0]
        .one_per_set()
        .iter()
        .map(|(_, r)| r.counts.tokens as f64)
        .sum();
    set(
        "metrics.wall_over_priced",
        ratio(ratio(tokens, untraced_tok_s[0]), tallies[0].priced().1),
    );

    // One traced round per path; the SpecEE path's spans feed the metrics.
    let tracer = Tracer::new();
    let seam = Spans(Arc::clone(&tracer));
    let mut roots = [0usize; 2];
    for path in [Path::SpecEe, Path::NoExit] {
        roots[path as usize] = tracer.len();
        let root = tracer.span("bench.round", None, 1);
        let out = run_path(workload, bed, &seam, path, reqs);
        drop(root);
        // A traced round must emit what an untraced one emits.
        let untraced = tallies[path as usize].of_set(0).next().expect("set 0 ran");
        let same = out.tokens == untraced.tokens;
        tallies[path as usize].push(0, out, reference.exact_for(path));
        if !same {
            tallies[path as usize].contract_breaks += 1;
            tallies[path as usize].failed += 1;
            let _ = writeln!(
                report,
                "  traced round emitted different tokens than the untraced one"
            );
        }
    }
    let all = tracer.spans();
    let spans = window(&all, roots[0]);
    let own = trace::self_times_ns(&spans);
    let wall_ns = spans[0].dur_ns() as f64;
    let traced = tallies[0].rounds.last().expect("just pushed").1.clone();
    let named = |name: &'static str| trace::totals(&spans, &own, |s| s.name == name);
    let share = |ns: u64| ratio(ns as f64, wall_ns);

    let (embed, layer, head, slice, fill) = (
        named("model.embed"),
        named("model.layer"),
        named("model.lm_head"),
        named("model.slice_logits"),
        named("model.fill_kv"),
    );
    let (tree_layer, head_batch) = (named("model.tree_layer"), named("model.lm_head_batch"));
    set("model.embed_ns", mean_ns(embed));
    set("model.layer_ns", mean_ns(layer));
    set("model.lm_head_ns", mean_ns(head));
    set("model.slice_logits_ns", mean_ns(slice));
    set("model.fill_kv_ns", mean_ns(fill));
    set(
        "model.layer_share",
        share(layer.total_ns + tree_layer.total_ns),
    );
    set(
        "model.lm_head_share",
        share(head.total_ns + head_batch.total_ns),
    );
    set("model.slice_logits_share", share(slice.total_ns));
    set("model.fill_kv_share", share(fill.total_ns));
    set(
        "model.tree_layer_ns_per_node",
        ratio(tree_layer.total_ns as f64, tree_layer.units as f64),
    );
    set(
        "model.lm_head_batch_ns_per_row",
        ratio(head_batch.total_ns as f64, head_batch.units as f64),
    );
    // Prompt processing runs every layer for every prompt token; the last
    // prompt token's sweep yields the first output token, the rest none.
    let counts = &traced.counts;
    let prompt_only_calls =
        (counts.prompt_tokens - reqs.len() as u64 + traced.failed) * bed.n_layers() as u64;
    set(
        "model.layer_calls_per_tok",
        ratio(
            layer.calls.saturating_sub(prompt_only_calls) as f64,
            counts.tokens as f64,
        ),
    );

    let (propose, propose_tree) = (named("draft.propose"), named("draft.propose_tree"));
    let draft_all = trace::totals(&spans, &own, |s| s.layer() == "draft");
    set("draft.propose_ns", mean_ns(propose));
    set("draft.propose_tree_ns", mean_ns(propose_tree));
    set("draft.share", share(draft_all.total_ns));
    set(
        "draft.accepted_len",
        ratio(counts.tokens as f64, counts.spec_rounds as f64),
    );

    set(
        "core.avg_layers",
        ratio(counts.layer_sum as f64, counts.tokens as f64),
    );
    set(
        "core.predictor_calls_per_tok",
        ratio(counts.predictor_calls as f64, counts.tokens as f64),
    );
    set(
        "core.verify_calls_per_tok",
        ratio(counts.verify_calls as f64, counts.tokens as f64),
    );
    if workload != Workload::SoloTree {
        set(
            "core.verify_accept_rate",
            ratio(counts.early_exits as f64, counts.verify_calls as f64),
        );
    }
    if !workload.is_serving() {
        let request = named("core.request");
        set("core.scan_self_share", share(request.self_ns));
        set("model.kv_reserved_over_used", traced.kv_reserved_over_used);
    }

    set("bench.root_self_share", share(own[0]));
    set(
        "bench.trace_overhead_share",
        ratio(traced.wall_s, plain_wall) - 1.0,
    );

    // Serving tiers: the engine driven by hand, and the run's own report.
    if workload.is_serving() {
        let side = &traced.serve;
        set("model.kv_pages_peak", side.kv_pages_peak as f64);
        set("batch.preemptions", side.preemptions as f64);
        set("batch.resumes", side.resumes as f64);
        set("serve.priced_occupancy_mean", side.priced_occupancy);
        set("serve.priced_ttft_ms_p99", side.priced_ttft_ms_p99);
        serving_probes(args, bed, reqs, &seam, &mut set);
    }
    if workload == Workload::ClusterPrefix {
        // Every round but the traced one just pushed.
        let rounds: Vec<&RoundOut> = tallies[0].of_set(0).collect();
        let rounds = &rounds[..rounds.len() - 1];
        let spawn: Vec<f64> = rounds.iter().map(|r| r.serve.spawn_ms).collect();
        let drain: Vec<f64> = rounds.iter().map(|r| r.serve.drain_ms).collect();
        let submit: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.serve.submit_ms.clone())
            .collect();
        set("cluster.spawn_ms", median(&spawn));
        set("cluster.drain_ms", median(&drain));
        set("cluster.submit_ms_p50", percentile(&submit, 50.0));
        let steps = &rounds[0].serve.worker_steps;
        let most = steps.iter().copied().max().unwrap_or(0) as f64;
        let mean = steps.iter().sum::<u64>() as f64 / steps.len().max(1) as f64;
        set("cluster.worker_step_imbalance", ratio(most, mean));
        let one = ClusterOpts {
            workers: 1,
            ..cluster_opts()
        };
        let n = if args.smoke { 1 } else { 3 };
        let one_worker: Vec<f64> = (0..n)
            .map(|_| adapter::cluster_round(bed, &Bare, Path::SpecEe, &one, reqs).tok_s())
            .collect();
        set(
            "cluster.scaling_2w_over_1w",
            ratio(untraced_tok_s[0], median(&one_worker)),
        );
    }
    if workload == Workload::SoloTree {
        let sd = adapter::solo_round(bed, &Bare, SoloKind::SelfDraft, reqs);
        set("draft.selfdraft_tok_s", sd.tok_s());
        set(
            "draft.selfdraft_exact",
            token_match(&sd.tokens, &reference.dense),
        );
    }

    let micro = adapter::micro(bed);
    set("tensor.matvec_ns.reference", micro.matvec_reference_ns);
    set("tensor.matvec_ns.blocked", micro.matvec_blocked_ns);
    set("tensor.matvec_ns.quant", micro.matvec_quant_ns);
    set("tensor.grouped_gemm_ns", micro.grouped_gemm_ns);
    set("model.attention_ns.ctx64", micro.attention_ctx64_ns);
    set("model.attention_ns.ctx512", micro.attention_ctx512_ns);
    set("model.ffn_ns", micro.ffn_ns);
    set("model.prefill_ns_per_tok", micro.prefill_ns_per_tok);
    set("synth.steer_overhead_share", micro.steer_overhead_share);
    set("core.predictor_score_ns", micro.predictor_score_ns);
    set("serve.price_step_ns", micro.price_step_ns);
    set("metrics.price_ns", micro.price_ns);

    // Spans stayed in memory until now; write them out once.
    let path = args.out_dir.join(format!("trace.{}.json", workload.name()));
    let written = std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&path, trace::chrome_json(&all)));
    let _ = match written {
        Ok(()) => writeln!(
            report,
            "  {} spans written to {}",
            all.len(),
            path.display()
        ),
        Err(e) => writeln!(report, "  could not write {}: {e}", path.display()),
    };
}

/// Probes of the serving tiers: `BatchedEngine::admit`/`step` driven by
/// hand over the workload's requests, and the controller / recorder
/// variants of `run_live`.
fn serving_probes(
    args: &RunArgs,
    bed: &Bed,
    reqs: &[PlainRequest],
    seam: &Spans,
    set: &mut impl FnMut(&'static str, f64),
) {
    let live = args.workload == Workload::LiveBatch;
    let main_cap = if live { LIVE_CAP } else { cluster_opts().cap };
    let opts = |cap: usize| EngineOpts {
        prefix_share: !live,
        ..EngineOpts::plain(cap)
    };
    let drive = |cap: usize| adapter::drive_direct(bed, &Bare, Path::SpecEe, &opts(cap), reqs);

    // The batch-size curve. The main cap's pass is repeated (up to four
    // times) when that can gather the hundred steps `step_ms_p90` needs.
    let mut main: Vec<DirectOut> = vec![drive(main_cap)];
    if !args.smoke && main[0].step_ms.len() * 4 >= 100 {
        main.extend((0..3).map(|_| drive(main_cap)));
    }
    let tok_s = |d: &DirectOut| ratio(d.out_tokens as f64, d.wall_s);
    for (cap, name) in [
        (1, "batch.tok_s.b1"),
        (4, "batch.tok_s.b4"),
        (8, "batch.tok_s.b8"),
    ] {
        let v = if cap == main_cap {
            median(&main.iter().map(tok_s).collect::<Vec<f64>>())
        } else {
            tok_s(&drive(cap))
        };
        set(name, v);
    }
    let steps: Vec<f64> = main.iter().flat_map(|d| d.step_ms.clone()).collect();
    let admits: Vec<f64> = main.iter().flat_map(|d| d.admit_ms.clone()).collect();
    set("batch.step_ms_p50", percentile(&steps, 50.0));
    set("batch.step_ms_p90", tail_percentile(&steps).1);
    set("batch.admit_ms_p50", percentile(&admits, 50.0));
    let d = &main[0];
    let n_steps = d.step_ms.len() as f64;
    set(
        "batch.rearmost_layer_mean",
        ratio(d.rearmost_sum as f64, n_steps),
    );
    set(
        "batch.layer_runs_per_tok",
        ratio(d.layer_runs as f64, d.step_tokens as f64),
    );
    set(
        "batch.occupancy_mean",
        ratio(d.occupancy_sum as f64, n_steps),
    );
    set(
        "model.kv_reserved_over_used",
        ratio(d.reserved_over_used_sum, n_steps),
    );
    set("model.kv_shared_pages", d.shared_pages_peak as f64);
    set("model.kv_cow_copies", d.cow_copies as f64);
    set(
        "model.prefix_hit_share",
        ratio(d.prefix_pages_hit as f64, d.prefix_pages_total as f64),
    );

    // The same drive with spans: what a step spends outside model and
    // draft calls (exit scan, predictor, batch bookkeeping).
    let first = seam.0.len();
    let traced = adapter::drive_direct(bed, seam, Path::SpecEe, &opts(main_cap), reqs);
    let spans: Vec<Span> = seam.0.spans();
    let own = trace::self_times_ns(&spans);
    let engine_self: u64 = (first..spans.len())
        .filter(|&i| matches!(spans[i].name, "batch.step" | "batch.admit"))
        .map(|i| own[i])
        .sum();
    set(
        "core.scan_self_share",
        ratio(engine_self as f64 / 1e9, traced.wall_s),
    );

    if live {
        // `run_live` plain, with a PID controller and with a recorder,
        // taking turns so that drift hits all three alike.
        let plain = EngineOpts::plain(LIVE_CAP);
        let pid = EngineOpts {
            controller: Controller::Pid,
            ..plain.clone()
        };
        let recorded = EngineOpts {
            recorder: true,
            ..plain.clone()
        };
        let mut walls = [Vec::new(), Vec::new(), Vec::new()];
        let mut false_exit_rate = 0.0;
        for _ in 0..if args.smoke { 1 } else { 3 } {
            for (walls, opts) in walls.iter_mut().zip([&plain, &pid, &recorded]) {
                let round = adapter::live_round(bed, &Bare, Path::SpecEe, opts, reqs);
                walls.push(round.wall_s);
                if opts.controller == Controller::Pid {
                    false_exit_rate = round.serve.false_exit_rate;
                }
            }
        }
        let [plain_wall, pid_wall, rec_wall] = walls.map(|w| median(&w));
        let direct_wall = median(&main.iter().map(|d| d.wall_s).collect::<Vec<f64>>());
        set(
            "serve.loop_overhead_share",
            1.0 - ratio(direct_wall, plain_wall),
        );
        set(
            "control.pid_step_overhead_share",
            ratio(pid_wall, plain_wall) - 1.0,
        );
        set("control.false_exit_rate", false_exit_rate);
        set(
            "obs.recorder_overhead_share",
            ratio(rec_wall, plain_wall) - 1.0,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            seq: None,
            lane: 0,
            units: 1,
        }
    }

    #[test]
    fn window_keeps_one_round_and_its_parent_links() {
        let spans = vec![
            span("bench.round", 0, 100, None),
            span("model.layer", 10, 20, Some(0)),
            span("bench.round", 200, 300, None),
            span("core.request", 210, 290, Some(2)),
            span("model.layer", 220, 230, Some(3)),
            // A worker-thread span inside the second round, no parent.
            span("model.layer", 240, 250, None),
        ];
        let second = window(&spans, 2);
        assert_eq!(second.len(), 4);
        assert_eq!(second[0].name, "bench.round");
        assert_eq!(second[1].parent, Some(0));
        assert_eq!(second[2].parent, Some(1));
        assert_eq!(second[3].parent, None);
        assert_eq!(window(&spans, 0).len(), 2);
    }

    #[test]
    fn token_match_counts_equal_positions() {
        let dense = vec![vec![1, 2, 3, 4], vec![5, 6]];
        assert_eq!(token_match(&dense, &dense), 1.0);
        let got = vec![vec![1, 2, 9, 4], vec![]];
        assert_eq!(token_match(&got, &dense), 0.5);
    }

    #[test]
    fn tally_counts_failures_and_contract_breaks_once() {
        let want = vec![vec![1, 2], vec![3, 4], vec![5, 6]];
        let mut tally = Tally::default();
        tally.push(
            0,
            RoundOut {
                tokens: want.clone(),
                ..RoundOut::default()
            },
            Some(&want),
        );
        assert_eq!(
            (tally.attempted, tally.failed, tally.contract_breaks),
            (3, 0, 0)
        );
        // One request panicked (empty output), another decoded a wrong token.
        tally.push(
            0,
            RoundOut {
                tokens: vec![vec![1, 2], vec![], vec![5, 7]],
                failed: 1,
                ..RoundOut::default()
            },
            Some(&want),
        );
        assert_eq!(
            (tally.attempted, tally.failed, tally.contract_breaks),
            (6, 2, 2)
        );
        // Without a contract on this path only outright failures count.
        tally.push(
            0,
            RoundOut {
                tokens: vec![vec![9, 9], vec![], vec![9, 9]],
                failed: 1,
                ..RoundOut::default()
            },
            None,
        );
        assert_eq!(
            (tally.attempted, tally.failed, tally.contract_breaks),
            (9, 3, 2)
        );
    }

    #[test]
    fn tokens_per_second_counts_every_set_once_at_its_median_time() {
        let round = |tokens: u64, seconds: f64| RoundOut {
            counts: adapter::Counts {
                tokens,
                ..adapter::Counts::default()
            },
            norm_s: seconds,
            wall_s: seconds * 2.0,
            priced_s: seconds / 8.0,
            ..RoundOut::default()
        };
        let mut tally = Tally::default();
        // Set 0 ran three times (median 2 s), set 1 once.
        for (set, tokens, seconds) in [(0, 100, 2.0), (1, 50, 1.0), (0, 100, 9.0), (0, 100, 1.0)] {
            tally.push(set, round(tokens, seconds), None);
        }
        assert_eq!(tally.tok_s(|r| r.norm_s), 150.0 / 3.0);
        assert_eq!(tally.tok_s(|r| r.wall_s), 150.0 / 6.0);
        assert_eq!(tally.priced(), (150.0 / 0.375, 0.375));
        let mut spread = tally.round_times_over_set_median();
        spread.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        assert_eq!(spread, [0.5, 1.0, 1.0, 4.5]);
    }

    /// The whole run, as `run.sh --smoke` drives it: every end-to-end
    /// metric is reported and none is 0.
    #[test]
    fn smoke_run_reports_every_end_to_end_metric() {
        let result = run(&RunArgs {
            workload: Workload::SoloAr,
            seed: 3,
            seconds: 0.0,
            trace: false,
            out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out/test")),
            smoke: true,
        });
        assert!(result.correct, "{}", result.report);
        assert_eq!(result.failed, 0);
        assert_eq!(result.attempted, 2 * crate::workload::SOLO_AR_REQUESTS);
        let names: Vec<&str> = result.metrics.iter().map(|(n, _, _)| *n).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|s| s.name).collect();
        assert_eq!(names, expected);
        assert!(
            result.metrics.iter().all(|(_, v, _)| *v > 0.0),
            "{}",
            result.report
        );
    }

    /// A traced run reports every per-layer metric, writes the trace, and
    /// on `solo_ar` the layer spans per token equal the engine's own
    /// average depth with little time left unattributed.
    #[test]
    fn traced_smoke_run_reports_every_per_layer_metric() {
        let out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out/test"));
        let result = run(&RunArgs {
            workload: Workload::SoloAr,
            seed: 3,
            seconds: 0.0,
            trace: true,
            out_dir: out_dir.clone(),
            smoke: true,
        });
        assert!(result.correct, "{}", result.report);
        let names: Vec<&str> = result.metrics.iter().map(|(n, _, _)| *n).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|s| s.name).collect();
        assert_eq!(names, expected);
        let value = |name: &str| {
            result
                .metrics
                .iter()
                .find(|(n, _, _)| *n == name)
                .map(|(_, v, _)| *v)
                .expect(name)
        };
        assert_eq!(value("model.layer_calls_per_tok"), value("core.avg_layers"));
        assert!(value("bench.root_self_share") <= 0.10);
        assert!(value("model.layer_share") > 0.5);
        let trace =
            std::fs::read_to_string(out_dir.join("trace.solo_ar.json")).expect("trace file");
        assert!(crate::json::parse(&trace).is_ok());
    }
}
