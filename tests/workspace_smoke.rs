//! Workspace smoke test: the README quickstart path, end to end.
//!
//! Builds a tiny `SyntheticLm`, trains a `PredictorBank`, decodes with
//! `SpecEeEngine::generate`, and checks the structural contract of
//! `GenOutput`: the requested token count is produced and no token ever
//! reports executing more than `n_layers` decoder layers.

use specee::core::collect::{collect_training_data, train_bank};
use specee::core::engine::SpecEeEngine;
use specee::core::predictor::{PredictorBank, PredictorConfig};
use specee::core::SpecEeConfig;
use specee::model::{ModelConfig, TokenId};
use specee::nn::TrainConfig;
use specee::synth::{DatasetProfile, OracleDraft, SyntheticLmBuilder};
use specee::tensor::rng::Pcg;

#[test]
fn quickstart_path_generates_with_bounded_exits() {
    let cfg = ModelConfig {
        n_layers: 12,
        vocab_size: 512,
        ..ModelConfig::tiny()
    };
    let profile = DatasetProfile::qa();
    let seed = 7;

    // Target model + aligned draft model.
    let mut lm = SyntheticLmBuilder::new(cfg.clone(), profile.clone())
        .seed(seed)
        .build();
    let mut draft = OracleDraft::new(*lm.language(), profile.hit_rate, &cfg, seed);

    // Offline phase: collect features, train one predictor per layer.
    let prompts: Vec<(Vec<TokenId>, usize)> = (0..6)
        .map(|i| (lm.language().sample_sequence(2 + i, 8, u64::from(i)), 10))
        .collect();
    let data = collect_training_data(&mut lm, &mut draft, &prompts, 4);
    assert!(!data.samples.is_empty(), "no training samples collected");

    let pcfg = PredictorConfig {
        hidden_dim: 32,
        ..PredictorConfig::default()
    };
    let mut bank = PredictorBank::new(cfg.n_layers, &pcfg, &mut Pcg::seed(seed));
    let report = train_bank(
        &mut bank,
        &data.samples,
        1.0,
        &TrainConfig {
            epochs: 10,
            ..TrainConfig::default()
        },
        seed,
    );
    assert!(
        report.mean_accuracy > 0.5,
        "predictors should beat chance, got {}",
        report.mean_accuracy
    );

    // Online phase: speculative early-exit decoding.
    let config = SpecEeConfig {
        predictor: pcfg,
        ..SpecEeConfig::default()
    };
    let schedule = config.build_schedule(cfg.n_layers, Some(&data.exit_frequencies));
    let fresh = SyntheticLmBuilder::new(cfg.clone(), profile.clone())
        .seed(seed)
        .build();
    let prompt = fresh.language().sample_sequence(3, 6, 11);
    let mut engine = SpecEeEngine::new(fresh, draft, bank, schedule, config);

    let max_tokens = 16;
    let out = engine.generate(&prompt, max_tokens);

    assert_eq!(out.tokens.len(), max_tokens, "token count");
    assert_eq!(
        out.exit_layers.len(),
        out.tokens.len(),
        "one exit record per token"
    );
    for (i, &layers) in out.exit_layers.iter().enumerate() {
        assert!(
            layers >= 1 && layers <= cfg.n_layers,
            "token {i} reports {layers} executed layers (n_layers = {})",
            cfg.n_layers
        );
    }
    assert!(out.avg_layers() <= cfg.n_layers as f64);
}

/// The bench-binary and example counts README.md and ARCHITECTURE.md quote
/// ("N benchmark binaries", "N bench targets", "N examples") are checked
/// against `crates/bench/Cargo.toml` and `examples/`, and README's crate
/// map against `crates/*/Cargo.toml`, not hand-maintained.
#[test]
fn documented_bench_and_example_counts_match_the_tree() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |rel: &str| std::fs::read_to_string(root.join(rel)).expect(rel);
    let benches = read("crates/bench/Cargo.toml")
        .lines()
        .filter(|l| l.trim() == "[[bench]]")
        .count();
    let examples = std::fs::read_dir(root.join("examples"))
        .expect("examples/")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "rs"))
        .count();

    for doc in ["README.md", "ARCHITECTURE.md"] {
        let text = read(doc);
        let words: Vec<&str> = text.split_whitespace().collect();
        let mut quoted = 0;
        for w in words.windows(3) {
            let Ok(n) = w[0].parse::<usize>() else {
                continue;
            };
            let actual = match (w[1], w[2]) {
                ("benchmark", noun) if noun.starts_with("binaries") => benches,
                ("bench", noun) if noun.starts_with("targets") => benches,
                (noun, _) if noun.starts_with("examples") => examples,
                _ => continue,
            };
            assert_eq!(n, actual, "{doc} says `{} {} {}`", w[0], w[1], w[2]);
            quoted += 1;
        }
        assert!(quoted > 0, "{doc} no longer quotes a count; drop it here");
    }

    // README's crate map has one row per workspace package outside
    // `vendor/`: the umbrella crate and every `crates/*/Cargo.toml`.
    let readme = read("README.md");
    let listed: std::collections::BTreeSet<String> = readme
        .split("## Crate map")
        .nth(1)
        .expect("README has a crate map")
        .lines()
        .skip(1)
        .take_while(|l| !l.starts_with("## "))
        .filter(|l| l.starts_with("| `"))
        .map(|l| l.split('`').nth(3).expect("a path cell").to_string())
        .collect();
    let mut packages = std::collections::BTreeSet::from([".".to_string()]);
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let dir = entry.expect("crates/ entry").path();
        if dir.join("Cargo.toml").is_file() {
            let name = dir.file_name().expect("a crate directory");
            packages.insert(format!("crates/{}", name.to_string_lossy()));
        }
    }
    assert_eq!(listed, packages, "README crate map vs the workspace");
}

/// There is one serving loop (`specee_serve::ServeLoop`): across the
/// non-test source of the serve and cluster crates, exactly one call
/// admits into a `BatchedEngine` and exactly one makes room in it. A
/// second call site means the admission round was copied again.
#[test]
fn the_admission_round_has_one_call_site() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut code = String::new();
    for dir in ["crates/serve/src", "crates/cluster/src"] {
        for entry in std::fs::read_dir(root.join(dir)).expect(dir) {
            let text = std::fs::read_to_string(entry.expect(dir).path()).expect(dir);
            let non_test = text.split("#[cfg(test)]").next().expect("first piece");
            code.extend(
                non_test
                    .lines()
                    .filter(|l| !l.trim_start().starts_with("//"))
                    .flat_map(|l| [l, "\n"]),
            );
        }
    }
    for call in ["admit_laned(", "make_room("] {
        assert_eq!(code.matches(call).count(), 1, "call sites of `{call}`");
    }
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The serving loop is also the only place a step or a prefill is priced:
/// across the non-test source of the serve and cluster crates each pricing
/// function is *called* (`.name(` — the definitions in `cost.rs` do not
/// match) exactly once. And the trace-replay simulator that used to price
/// beside it stays gone: no source file names its types again.
#[test]
fn steps_are_priced_at_one_call_site_and_replay_stays_gone() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut serving = Vec::new();
    rust_files(&root.join("crates/serve/src"), &mut serving);
    rust_files(&root.join("crates/cluster/src"), &mut serving);
    let mut code = String::new();
    for path in &serving {
        let text = std::fs::read_to_string(path).expect("readable source");
        let non_test = text.split("#[cfg(test)]").next().expect("first piece");
        code.extend(
            non_test
                .lines()
                .filter(|l| !l.trim_start().starts_with("//"))
                .flat_map(|l| [l, "\n"]),
        );
    }
    for call in [".decode_step_latency(", ".prefill_latency("] {
        assert_eq!(code.matches(call).count(), 1, "call sites of `{call}`");
    }

    let mut all = Vec::new();
    for dir in ["crates", "src", "examples", "tests"] {
        rust_files(&root.join(dir), &mut all);
    }
    assert!(all.len() > 100, "the walk found the workspace");
    let this_file = root.join(file!());
    for path in all.iter().filter(|p| **p != this_file) {
        let text = std::fs::read_to_string(path).expect("readable source");
        for gone in ["RequestTrace", "run_recorded"] {
            assert!(!text.contains(gone), "`{gone}` in {}", path.display());
        }
    }
}

/// There is one greedy loop (`specee_core::engine::decode`): before the
/// first `#[cfg(test)]` of the core crate and of the bench harness, a
/// decoder layer is *called* from exactly two places (the token body
/// `decode` and the offline `dense_probe`), a token is marked in two
/// (`first_token` and the outer loop `generate_rounds`) and so is a host
/// step (the outer loop and the one extra `DenseEngine` charges for its
/// first token). A third site means an engine or a collector has grown a
/// loop of its own again.
#[test]
fn the_greedy_loop_has_one_body() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = vec![root.join("crates/bench/src/lib.rs")];
    rust_files(&root.join("crates/core/src"), &mut files);
    assert!(files.len() > 15, "the walk found the core crate");
    let mut code = String::new();
    for path in &files {
        let text = std::fs::read_to_string(path).expect("readable source");
        let non_test = text.split("#[cfg(test)]").next().expect("first piece");
        code.extend(
            non_test
                .lines()
                .filter(|l| !l.trim_start().starts_with("//"))
                .flat_map(|l| [l, "\n"]),
        );
    }
    for call in [".forward_layer(", ".mark_token(", ".mark_host_step("] {
        assert_eq!(code.matches(call).count(), 2, "call sites of `{call}`");
    }
}

/// `src` with every comment, string literal and char literal cut out
/// (their newlines kept), so a name in prose or in a message is not a
/// reference. Block comments are not handled: the workspace has none.
fn code_only(src: &str) -> String {
    // Bytes of the literal that opens `s` with the quote `q`.
    fn quoted_len(s: &str, q: char) -> usize {
        let mut chars = s.char_indices().skip(1);
        while let Some((at, c)) = chars.next() {
            if c == '\\' {
                chars.next();
            } else if c == q {
                return at + 1;
            }
        }
        s.len()
    }
    let mut out = String::with_capacity(src.len());
    let mut rest = src;
    while let Some(at) = rest.find(['/', '"', '\'']) {
        let (head, tail) = rest.split_at(at);
        let unhashed = head.trim_end_matches('#');
        let mut after = tail.chars().skip(1);
        let cut = if tail.starts_with("//") {
            tail.find('\n').unwrap_or(tail.len())
        } else if tail.starts_with('"') && unhashed.ends_with('r') {
            let close = format!("\"{}", &head[unhashed.len()..]);
            tail[1..]
                .find(&close)
                .map_or(tail.len(), |n| 1 + n + close.len())
        } else if tail.starts_with('"') {
            quoted_len(tail, '"')
        } else if tail.starts_with("'\\") {
            quoted_len(tail, '\'')
        } else if let (true, Some(c), Some('\'')) =
            (tail.starts_with('\''), after.next(), after.next())
        {
            2 + c.len_utf8()
        } else {
            // A division, or the tick of a lifetime.
            0
        };
        out.push_str(head);
        out.push(' ');
        out.extend(tail[..cut].matches('\n'));
        rest = &tail[cut.max(1)..];
    }
    out + rest
}

/// What the dead-`pub` guard reads of one source file: the names its
/// plain-`pub` items define, every name it mentions other than to define
/// it, and the subset of those mentions outside `impl` headers (an
/// `impl Foo {` is part of `Foo`'s definition to its own file). `use`
/// statements count as neither: a re-export is not a caller, and an
/// import that is used is mentioned again below it.
#[derive(Default)]
struct Names {
    defined: Vec<String>,
    mentioned: std::collections::HashSet<String>,
    mentioned_outside_impl_headers: std::collections::HashSet<String>,
}

fn names(code: &str) -> Names {
    const KINDS: [&str; 6] = ["fn", "struct", "enum", "trait", "type", "const"];
    const MODIFIERS: [&str; 3] = ["const", "unsafe", "async"];
    let mut found = Names::default();
    let mut in_use = false;
    // The identifiers before the current one, nearest last.
    let mut before: Vec<&str> = Vec::new();
    for line in code.lines() {
        let trimmed = line.trim_start();
        let after_vis = trimmed
            .strip_prefix("pub")
            .map_or(trimmed, |l| {
                l.trim_start_matches("(crate)")
                    .trim_start_matches("(super)")
            })
            .trim_start();
        in_use |= after_vis.starts_with("use ");
        if in_use {
            in_use = !line.contains(';');
            continue;
        }
        let impl_header = trimmed.starts_with("impl ") || trimmed.starts_with("impl<");
        let idents = line
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .filter(|t| !t.is_empty());
        for t in idents {
            let defines =
                before.last().is_some_and(|p| KINDS.contains(p)) && t != "fn" && t != "unsafe";
            if defines {
                let vis = before.iter().rev().skip(1).find(|p| !MODIFIERS.contains(p));
                if vis == Some(&"pub") {
                    found.defined.push(t.to_string());
                }
            } else {
                found.mentioned.insert(t.to_string());
                if !impl_header {
                    found.mentioned_outside_impl_headers.insert(t.to_string());
                }
            }
            before.push(t);
        }
    }
    found
}

/// Plain-`pub` items that nothing outside a `#[cfg(test)]` module names,
/// each with the reason it stays. The list may only shrink: an entry whose
/// item is gone, or has gained a caller, fails the guard too.
const UNREFERENCED_PUB_ALLOWED: &[(&str, &str)] = &[
    (
        "crates/model/src/attention.rs: attention_forward_tree",
        "the one-call full sweep `partial_sweeps_are_bit_identical_to_one_full_sweep` compares partial calls against",
    ),
    (
        "crates/obs/src/sink.rs: with_budget",
        "the only way a test reaches the drop-newest cap below the 2^20 default (obs and serve unit tests)",
    ),
    (
        "crates/tensor/src/matrix.rs: from_rows",
        "literal-matrix fixtures: the `Matrix` doc example and unit tests in tensor and nn",
    ),
    (
        "crates/tensor/src/matrix.rs: transpose",
        "the reference `matvec_t_matches_transpose` compares `matvec_t` against",
    ),
    (
        "crates/tensor/src/ops.rs: log_softmax",
        "the reference `ops::nll` is compared against, bit for bit",
    ),
];

/// Every public item has a caller. For each `pub fn / struct / enum /
/// trait / type / const` before the first `#[cfg(test)]` of a product
/// source file (`crates/*/src`, `src`), some other source file — product
/// code before its own first `#[cfg(test)]`, or a test, bench, example or
/// the benchmark adapter, which are outside the crate and need `pub` —
/// must name it, or its own file must outside the definition. What
/// only an in-crate unit test calls is not product surface: delete it with
/// the test, or list it above with the reason (a reference implementation
/// a test compares against is one). The scan is by name, so a dead `new`
/// hides behind every other `new`; what it does report is dead.
#[test]
fn every_pub_item_has_a_referrer() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "benchmark/src"] {
        rust_files(&root.join(dir), &mut files);
    }
    let scanned: Vec<(String, bool, Names)> = files
        .iter()
        .map(|path| {
            let rel = path.strip_prefix(root).expect("under the root");
            let rel = rel.to_string_lossy().replace('\\', "/");
            let product = rel.starts_with("src/") || rel.split('/').nth(2) == Some("src");
            let text = std::fs::read_to_string(path).expect("readable source");
            let code = code_only(&text);
            let read = if product {
                code.split("#[cfg(test)]").next().expect("first piece")
            } else {
                &code
            };
            (rel, product, names(read))
        })
        .collect();
    assert!(scanned.len() > 150, "the walk found the workspace");

    let mut unreferenced = std::collections::BTreeSet::new();
    for (at, (rel, product, own)) in scanned.iter().enumerate() {
        if !product {
            continue;
        }
        for name in &own.defined {
            let elsewhere = scanned
                .iter()
                .enumerate()
                .any(|(other, (_, _, names))| other != at && names.mentioned.contains(name));
            if !elsewhere && !own.mentioned_outside_impl_headers.contains(name) {
                unreferenced.insert(format!("{rel}: {name}"));
            }
        }
    }

    let allowed: std::collections::BTreeSet<String> = UNREFERENCED_PUB_ALLOWED
        .iter()
        .map(|(item, reason)| {
            assert!(
                !reason.trim().is_empty(),
                "`{item}` is allowed without a reason"
            );
            item.to_string()
        })
        .collect();
    let unlisted: Vec<&String> = unreferenced.difference(&allowed).collect();
    let stale: Vec<&String> = allowed.difference(&unreferenced).collect();
    assert!(
        unlisted.is_empty(),
        "{} `pub` items no non-test code names — delete each (with the unit tests \
         whose only subject it was), make it private, or allow it with a reason:\n{unlisted:#?}",
        unlisted.len()
    );
    assert!(
        stale.is_empty(),
        "allow-list entries whose item is gone or has a caller now — drop them:\n{stale:#?}"
    );
}
