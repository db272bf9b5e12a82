//! CLI contract tests: the `specee` binary's error surfaces that other
//! tooling (scripts, CI, launch wrappers) may depend on. These run the
//! real binary so the exact message *and* the exit code are pinned —
//! an explanatory error that silently became a warning (or moved to
//! stdout, or changed its exit status) would break callers without any
//! unit test noticing.

use std::process::Command;

fn specee(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_specee"))
        .args(args)
        .output()
        .expect("spawn specee binary")
}

/// There are two serving modes. `replay` was a third once; it must fail
/// like any unknown mode — this exact error on stderr, a failing exit
/// code, nothing on stdout — never fall back to a mode that runs.
#[test]
fn replay_mode_is_an_unknown_mode_with_exact_error() {
    for mode in ["replay", "bogus"] {
        let out = specee(&["serve", "--mode", mode, "--requests", "0"]);
        assert_eq!(out.status.code(), Some(1), "--mode {mode} must fail");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr).trim_end(),
            format!("error: unknown mode `{mode}` (live, cluster)"),
        );
        assert!(
            out.stdout.is_empty(),
            "--mode {mode}: rejection must precede any output, got: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

/// `serve` without `--mode` is `serve --mode live`, byte for byte (the
/// header names the mode that ran; an empty request list keeps the debug
/// binary from training a bank twice).
#[test]
fn serve_defaults_to_live_mode() {
    let args = ["serve", "--requests", "0", "--batch", "2"];
    let bare = specee(&args);
    let live = specee(&[&args[..], &["--mode", "live"]].concat());
    assert_eq!(bare.status.code(), Some(0));
    assert_eq!(live.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&bare.stdout).contains("(live mode)"));
    assert_eq!(bare.stdout, live.stdout);
    assert_eq!(bare.stderr, live.stderr);
}

/// Malformed inline controller specs fail fast with a pointed error.
#[test]
fn malformed_controller_specs_fail_with_exit_code_one() {
    for (spec, needle) in [
        ("warp", "unknown controller `warp`"),
        ("pid:target", "not key=value"),
        ("bandit:altitude=9", "unknown bandit knob"),
    ] {
        let out = specee(&["serve", "--requests", "0", "--controller", spec]);
        assert_eq!(out.status.code(), Some(1), "spec `{spec}`");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(needle),
            "spec `{spec}`: stderr `{stderr}` missing `{needle}`"
        );
    }
}

/// Flag values the serving loop cannot run on — a rate that is not a
/// positive number, an empty batch, a page pool smaller than one request —
/// are usage errors: exit 1 and one `error:` line before any output, never
/// an assertion deep in the runtime (in cluster mode that killed every
/// worker thread).
#[test]
fn unserveable_flag_values_are_usage_errors_not_panics() {
    for flags in [
        &["--rate", "0"][..],
        &["--rate", "nan"],
        &["--rate", "-2"],
        &["--rate", "inf"],
        &["--batch", "0"],
        &["--pages", "1"],
        &["--mode", "cluster", "--pages", "1"],
    ] {
        let out = specee(&[&["serve", "--requests", "3"], flags].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flags:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: {}", flags[flags.len() - 2])),
            "{flags:?}: {stderr}"
        );
        assert_eq!(stderr.lines().count(), 1, "{flags:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flags:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{flags:?} printed before failing");
    }
}

/// The BPE tokenizer left the workspace: `tokenize` fails like any
/// unknown command, and neither `specee help` nor the binary's own module
/// documentation still offers it.
#[test]
fn tokenize_is_an_unknown_command() {
    let out = specee(&["tokenize", "--vocab", "400", "some text"]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr).trim_end(),
        "error: unknown command `tokenize` (try `specee help`)",
    );
    assert!(out.stdout.is_empty());

    let help = specee(&["help"]);
    assert_eq!(help.status.code(), Some(0));
    let module_doc = include_str!("../src/bin/specee.rs")
        .lines()
        .take_while(|l| l.starts_with("//!"))
        .collect::<String>();
    for text in [String::from_utf8_lossy(&help.stdout).as_ref(), &module_doc] {
        assert!(text.contains("specee"), "read the wrong text");
        assert!(!text.contains("tokenize"), "still offered: {text}");
    }
}

/// `specee help` documents every flag a subcommand takes in that
/// subcommand's own section: each one its usage error lists
/// (`specee <cmd> --bogus x`) appears as a whole `--flag` between the
/// `specee <cmd> [OPTIONS]` heading and the next unindented line.
#[test]
fn help_names_every_flag_each_subcommand_takes() {
    let help = String::from_utf8(specee(&["help"]).stdout).expect("utf-8 help");
    let is_word = |c: char| c.is_ascii_alphanumeric() || c == '-';
    for command in ["generate", "train", "serve"] {
        let heading = format!("specee {command} [OPTIONS]");
        let section: String = help
            .lines()
            .skip_while(|line| !line.starts_with(&heading))
            .skip(1)
            .take_while(|line| line.starts_with(' '))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(
            !section.is_empty(),
            "`specee help` has no {command} section"
        );
        let named = |flag: &str| {
            section.match_indices(flag).any(|(at, _)| {
                let before = section[..at].chars().next_back();
                let after = section[at + flag.len()..].chars().next();
                !before.is_some_and(is_word) && !after.is_some_and(is_word)
            })
        };
        let out = specee(&[command, "--bogus", "x"]);
        assert_eq!(out.status.code(), Some(1), "{command}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let takes = stderr
            .trim_end()
            .split(" takes ")
            .nth(1)
            .expect("a flag list");
        let flags: Vec<&str> = takes.split(", ").collect();
        assert!(flags.len() >= 4, "{command}: {stderr}");
        for flag in flags {
            assert!(flag.starts_with("--"), "{command}: {flag}");
            assert!(
                named(flag),
                "`specee help` never mentions {command}'s {flag} in its section"
            );
        }
    }
}

/// A `train --out` path that cannot be written is a usage error naming
/// the flag and the path, as `--trace-out` and `--metrics-out` are: exit
/// code 1 and one `error: --out …` line.
#[test]
fn an_unwritable_train_out_names_the_flag() {
    let path = "/nonexistent-dir/bank.json";
    let out = specee(&["train", "--model", "tiny", "--out", path]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with(&format!("error: --out {path}: ")),
        "{stderr}"
    );
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
}

/// A command line the subcommand cannot take in full is refused, not
/// half-read: a misspelt flag (which used to serve at the default cap), a
/// word that is no flag's value, another subcommand's flags. One `error:`
/// line naming the offender and the flags the subcommand does take, exit
/// code 1, nothing on stdout.
#[test]
fn unknown_flags_and_stray_words_are_usage_errors() {
    for (args, offender, takes) in [
        (
            &["serve", "--batchs", "3"][..],
            "unknown flag `--batchs`",
            "--batch,",
        ),
        (
            &["serve", "stray", "words"],
            "unexpected argument `stray`",
            "--requests,",
        ),
        (
            &["generate", "--workers", "9", "--router", "nope"],
            "unknown flag `--workers`",
            "--tokens,",
        ),
    ] {
        let out = specee(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        let command = args[0];
        assert!(
            stderr.starts_with(&format!(
                "error: {offender}: `specee {command}` takes --model,"
            )),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains(takes), "{args:?}: {stderr}");
        assert!(
            !stderr.contains("--workers,") || command == "serve",
            "{stderr}"
        );
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed before failing");
    }
}

/// The instant events of a Chrome trace `specee` wrote, by text: `(name,
/// ts, args)` per event, each event one `{"name":…}` object whose args
/// hold no nested object.
fn instants(path: &std::path::Path) -> Vec<(String, f64, String)> {
    let trace = std::fs::read_to_string(path).expect("the trace was written");
    let after = |event: &str, key: &str| event.split(key).nth(1).map(str::to_string);
    trace
        .split(r#"{"name":""#)
        .filter(|event| event.contains(r#""ph":"i""#))
        .map(|event| {
            let name = event.split('"').next().expect("a name").to_string();
            let ts = after(event, r#""ts":"#).expect("a timestamp");
            let ts = ts.split(',').next().expect("a number").parse().expect("ts");
            let args = after(event, r#""args":{"#).expect("args");
            (name, ts, args.split('}').next().expect("args").to_string())
        })
        .collect()
}

/// `generate`'s batch-1 arms (`--controller`, `--draft self:`) stamp each
/// event with the tokens emitted before it, as the single-stream engine
/// does, instead of stamping every event at time 0: a static controller's
/// exit instants are the uncontrolled run's, timestamp and whole payload —
/// the request id `0` both runs decode under, class, layer, score,
/// threshold and verdict — and self-draft passes advance the clock.
#[test]
fn batch_one_generate_traces_are_stamped_by_token() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let traced = |name: &str, flags: &[&str]| {
        let path = dir.join(format!("batch_one_{name}.json"));
        let base = [
            "generate",
            "--model",
            "tiny",
            "--tokens",
            "6",
            "--trace-out",
        ];
        let out = specee(&[&base[..], &[path.to_str().expect("utf-8")], flags].concat());
        assert_eq!(out.status.code(), Some(0), "{name}: {out:?}");
        instants(&path)
    };
    let exits = |events: Vec<(String, f64, String)>| -> Vec<(f64, String)> {
        let exits = events
            .into_iter()
            .filter(|(name, ..)| name.starts_with("exit-"));
        exits.map(|(_, ts, args)| (ts, args)).collect()
    };
    let plain = exits(traced("plain", &[]));
    assert!(plain.len() > 1, "the run must exit to test anything");
    for key in ["seq", "class", "layer", "score", "threshold", "accepted"] {
        let key = format!(r#""{key}":"#);
        assert!(plain.iter().all(|(_, args)| args.contains(&key)), "{key}");
    }
    assert!(
        plain.iter().all(|(_, args)| args.contains(r#""seq":0,"#)),
        "{plain:?}"
    );
    assert_eq!(exits(traced("static", &["--controller", "static"])), plain);

    let passes: Vec<f64> = traced("self_draft", &["--draft", "self:exit=2,tree=2x2"])
        .into_iter()
        .filter(|(name, ..)| name == "draft-pass")
        .map(|(_, ts, _)| ts)
        .collect();
    assert!(passes.len() > 1, "{passes:?}");
    assert!(passes.windows(2).all(|w| w[0] < w[1]), "{passes:?}");
}
