//! Wall-clock benchmark of the SpecEE entry points.
//!
//! ```text
//! specee-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out DIR] [--smoke]
//! specee-benchmark compare <set A> <set B>
//! specee-benchmark spec          # prints BENCHMARK.json from the metric tables
//! ```
//!
//! The first form is what the driver runs: it prints a human-readable
//! account and, as the last line of standard output, one JSON object with
//! the keys `correct`, `attempted`, `failed` and `metrics`. The exit code
//! is 0 when every exact contract held, 2 when one broke, 1 on bad usage.

mod adapter;
mod compare;
mod json;
mod metrics;
mod run;
mod stats;
mod trace;
mod workload;
mod yardstick;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{Spec, END_TO_END, PER_LAYER};
use workload::Workload;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
const RUN_SECONDS: u32 = 18;

const USAGE: &str =
    "usage: specee-benchmark --workload <solo_ar|live_batch|cluster_prefix|solo_tree> \
--seed <n> --seconds <s> --trace <0|1> [--out DIR] [--smoke]\n       \
specee-benchmark compare <set A> <set B>\n       specee-benchmark spec";

fn parse_run(args: &[String]) -> Result<run::RunArgs, String> {
    let mut parsed = run::RunArgs {
        workload: Workload::SoloAr,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
        smoke: false,
    };
    let mut seen_workload = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Workload::parse(value).ok_or_else(|| bad("a workload name"))?;
                seen_workload = true;
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| (0.0..=120.0).contains(s))
                    .ok_or_else(|| bad("seconds between 0 and 120"))?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => parsed.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if seen_workload {
        Ok(parsed)
    } else {
        Err("--workload is required".to_string())
    }
}

/// `BENCHMARK.json`, generated from the tables so the two cannot drift.
fn spec_json() -> String {
    let why = |w: Workload| match w {
        Workload::SoloAr => {
            "SpecEeEngine::generate, one stream (paper Fig. 14): model, core, draft and tensor do \
             all the work, batch/serve/cluster none"
        }
        Workload::LiveBatch => {
            "ContinuousBatcher::run_live at cap 8, mixed output lengths: lock-step decode, \
             per-slot scans, Cannikin effect; KV mostly read"
        }
        Workload::ClusterPrefix => {
            "Cluster of 2 workers, shared 64-token prefixes, tight page cap, 2 lanes: prompt \
             processing, KV writes, sharing, preemption, worker threads"
        }
        Workload::SoloTree => {
            "SpeculativeEngine tree decoding with hyper-token exit: tree layers, batched LM head, \
             grouped slice GEMM; the AR scan does nothing"
        }
    };
    let row = |s: &Spec, bounded: bool| {
        let bound = if bounded {
            format!(", \"bound\": {}", s.bound)
        } else {
            String::new()
        };
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            s.name,
            s.unit,
            s.better.word()
        )
    };
    let rows = |table: &[Spec], bounded| {
        table
            .iter()
            .map(|s| row(s, bounded))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|&w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                why(w)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        rows(END_TO_END, true),
        rows(PER_LAYER, false),
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => match args.as_slice() {
            [_, a, b] => match compare::compare(a.as_ref(), b.as_ref()) {
                Ok(text) => {
                    print!("{text}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(1)
                }
            },
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(1)
            }
        },
        Some("spec") => {
            print!("{}", spec_json());
            ExitCode::SUCCESS
        }
        _ => match parse_run(&args) {
            Ok(run_args) => {
                let result = run::run(&run_args);
                print!("{}", result.report);
                println!(
                    "{}",
                    json::result_line(
                        result.correct,
                        result.attempted,
                        result.failed,
                        &result.metrics
                    )
                );
                if result.correct {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::from(2)
                }
            }
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                ExitCode::from(1)
            }
        },
    }
}
