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
