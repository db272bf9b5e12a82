//! CLI golden: a fixed list of `specee` command lines replayed against
//! `tests/golden/cli.txt`. Each run records its exit code, its stdout and
//! its stderr verbatim, and every file it wrote (a `--trace-out` Chrome
//! trace, a `--metrics-out` Prometheus text, a `train --out` bank) as its
//! length and 64-bit FNV-1a digest. Every run is deterministic for its
//! seed, so any byte that moves is a behaviour change of the front end or
//! of what it runs.
//!
//! Each run works in a fresh directory and names its files relative to
//! it, so stdout never carries a machine's path. A 7b run takes about a
//! second optimized and over twenty unoptimized, so the test is ignored
//! in debug builds: `cargo test --release --test cli_golden`. Re-record
//! after a deliberate change with
//! `UPDATE_GOLDEN=1 cargo test --release --test cli_golden`.

use std::path::Path;
use std::process::Command;

/// The command lines, one run each.
const RUNS: &[&[&str]] = &[
    &["generate"],
    &["generate", "--engine", "dense"],
    &["generate", "--engine", "calm"],
    &["generate", "--controller", "pid:target=0.1,kp=0.3"],
    &["generate", "--controller", "static"],
    &["generate", "--draft", "self:exit=8,tree=2x2"],
    &[
        "generate",
        "--trace-sample",
        "3",
        "--trace-out",
        "trace.json",
        "--metrics-out",
        "metrics.prom",
    ],
    &[
        "generate",
        "--model",
        "13b",
        "--controller",
        "pid",
        "--trace-out",
        "trace.json",
        "--metrics-out",
        "metrics.prom",
    ],
    &[
        "generate",
        "--model",
        "tiny",
        "--draft",
        "self:exit=2,tree=2x2",
        "--trace-out",
        "trace.json",
    ],
    &["generate", "--tokens", "0"],
    &["train"],
    &["train", "--model", "tiny", "--out", "bank.json"],
    &["serve"],
    &[
        "serve",
        "--pages",
        "4",
        "--prefix-share",
        "on",
        "--lanes",
        "2",
        "--controller",
        "slo+bandit",
        "--slo",
        "p99_ttft=0.25",
        "--trace-out",
        "trace.json",
        "--metrics-out",
        "metrics.prom",
    ],
    &[
        "serve",
        "--mode",
        "cluster",
        "--workers",
        "3",
        "--router",
        "exit-aware",
        "--trace-out",
        "trace.json",
        "--metrics-out",
        "metrics.prom",
    ],
    &["serve", "--requests", "0"],
];

/// 64-bit FNV-1a.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs `specee args` in an empty directory `dir` and records it.
fn record(args: &[&str], dir: &Path) -> String {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("clear the run directory");
    }
    std::fs::create_dir_all(dir).expect("create the run directory");
    let out = Command::new(env!("CARGO_BIN_EXE_specee"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn specee binary");
    let mut text = format!(
        "=== specee {}\nstatus: {}\n--- stdout\n{}--- stderr\n{}",
        args.join(" "),
        out.status
            .code()
            .map_or("killed".to_string(), |c| c.to_string()),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("list the run directory")
        .map(|entry| entry.expect("a directory entry").path())
        .collect();
    files.sort();
    for path in files {
        let bytes = std::fs::read(&path).expect("read a written file");
        let name = path.file_name().expect("a file name").to_string_lossy();
        text += &format!(
            "--- file {name}: {} bytes, fnv1a64 {:016x}\n",
            bytes.len(),
            fnv1a64(&bytes)
        );
    }
    text
}

#[test]
fn fnv1a64_matches_the_reference_vectors() {
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "about 25 s a run unoptimized: cargo test --release --test cli_golden"
)]
fn every_cli_run_replays_the_golden_file() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_golden");
    let runs: Vec<String> = RUNS
        .iter()
        .enumerate()
        .map(|(i, args)| record(args, &root.join(i.to_string())))
        .collect();
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/cli.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, runs.concat()).expect("write golden");
    }
    let golden = std::fs::read_to_string(golden_path).expect("read golden");
    let recorded: Vec<String> = golden
        .split_inclusive('\n')
        .fold(Vec::new(), |mut runs, line| {
            if line.starts_with("=== ") || runs.is_empty() {
                runs.push(String::new());
            }
            runs.last_mut().expect("a run").push_str(line);
            runs
        });
    // Every run is compared before any assertion, so one failure names
    // every run that drifted.
    let mut drifted = Vec::new();
    for (ours, theirs) in runs.iter().zip(&recorded) {
        if ours != theirs {
            eprintln!("ours:\n{ours}golden:\n{theirs}");
            drifted.push(ours.lines().next().expect("a header"));
        }
    }
    assert!(
        drifted.is_empty(),
        "drifted from the golden file: {drifted:#?}"
    );
    assert_eq!(
        runs.len(),
        recorded.len(),
        "the run list and the golden file differ in length"
    );
}
