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
    let mut serving = Vec::new();
    rust_files(&root.join("crates/serve/src"), &mut serving);
    rust_files(&root.join("crates/cluster/src"), &mut serving);
    let code = non_test_code(&serving);
    for call in ["admit_laned(", "make_room("] {
        assert_eq!(code.matches(call).count(), 1, "call sites of `{call}`");
    }
}

/// `BatchedEngine::step` is one body whatever its seats draft: across the
/// non-test source of the batch crate a step is opened, closed and given
/// its report in exactly one place. A second site means a step body of its
/// own has grown back beside it.
#[test]
fn the_batched_step_has_one_body() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("crates/batch/src"), &mut files);
    let code = non_test_code(&files);
    for call in ["self.open_step()", "self.close_step()", "BatchStep::empty("] {
        assert_eq!(code.matches(call).count(), 1, "call sites of `{call}`");
    }
}

/// The exit scan runs in one place, core's lock-step `sweep`, whatever the
/// seat count: across the non-test source of the core and batch crates a
/// fire is settled, a layer is run for a group and a group's skipped K/V
/// is filled in exactly one place, and the single-stream copy of the scan
/// stays gone.
#[test]
fn the_exit_scan_has_one_sweep() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("crates/core/src"), &mut files);
    rust_files(&root.join("crates/batch/src"), &mut files);
    let code = non_test_code(&files);
    for call in [
        ".settle(",
        "::forward_layer_group(",
        "::fill_skipped_kv_group(",
    ] {
        assert_eq!(code.matches(call).count(), 1, "call sites of `{call}`");
    }
    for gone in ["check_with_sink", "SpecEeRule"] {
        assert!(!code.contains(gone), "`{gone}` is back");
    }
}

/// A tree's round runs in one place too, core's lock-step `sweep_trees`
/// finished by `verify_commit`, whatever drafted the tree and however many
/// seats sweep: across the non-test source of the core and batch crates a
/// tree layer is run, a tree's K/V committed and accepted tokens fed to the
/// model in exactly one place; the batch crate runs no tree layer itself;
/// and the single-stream self-draft body and the T3 knob stay gone.
#[test]
fn the_tree_round_has_one_sweep() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("crates/core/src"), &mut files);
    rust_files(&root.join("crates/batch/src"), &mut files);
    let code = non_test_code(&files);
    for call in [
        ".forward_layer_tree(",
        ".commit_tree_kv(",
        ".accept_tokens(",
    ] {
        assert_eq!(code.matches(call).count(), 1, "call sites of `{call}`");
    }
    let mut batch = Vec::new();
    rust_files(&root.join("crates/batch/src"), &mut batch);
    let batch = non_test_code(&batch);
    for call in ["sweep_layer(", "forward_layer_tree("] {
        assert!(!batch.contains(call), "the batch crate calls `{call}`");
    }
    for gone in ["generate_self_draft", "tree_early_exit"] {
        assert!(!code.contains(gone), "`{gone}` is back");
    }
}

/// Owed K/V rows have one consumer, the layer's next Q|K|V pass, beside
/// the eager `fill_layer_kv` reference: across the non-test source of the
/// model crate, only the two passes (`attention_forward_rows` for decode,
/// group and prompt rows, `attention_forward_tree_partial` for tree nodes)
/// and `fill_layer_kv` push owed rows into a cache — `Transformer::cache`,
/// which borrows the model, pushes them onto a copy — and nothing else runs
/// the stacked `wqkv` projection for them. A new caller is a second pass
/// for owed rows grown back, as `settle` was.
#[test]
fn owed_rows_are_projected_only_by_a_qkv_pass_or_the_eager_fill() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("crates/model/src"), &mut files);
    let code = non_test_code(&files);
    let passes = ["attention_forward_rows", "attention_forward_tree_partial"];
    for (call, want) in [
        (
            "push_owed(",
            [&passes[..], &["cache", "fill_layer_kv"]].concat(),
        ),
        ("owed_kv(", vec!["cache", "fill_layer_kv"]),
        ("project_qkv(", [&passes[..], &["owed_kv"]].concat()),
    ] {
        let want = want.into_iter().map(String::from).collect();
        assert_eq!(callers(&code, call), want, "callers of `{call}`");
    }
    assert!(code.contains("pub fn cache(&self, layer: usize)"));
    assert!(!code.contains("fn settle("), "`settle` is back");
}

/// The functions of `code` that call `call`: for each call site, the
/// nearest `fn` defined before it. A definition is not a call.
fn callers(code: &str, call: &str) -> std::collections::BTreeSet<String> {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut found = std::collections::BTreeSet::new();
    for (at, _) in code.match_indices(call) {
        let before = &code[..at];
        if before.ends_with("fn ") || before.ends_with(ident) {
            continue;
        }
        let (def, _) = before
            .match_indices("fn ")
            .filter(|(i, _)| !before[..*i].ends_with(ident))
            .last()
            .expect("a call inside a function");
        found.insert(
            before[def + 3..]
                .chars()
                .take_while(|&c| ident(c))
                .collect(),
        );
    }
    found
}

/// `Blocked` is the only kernel the runtime picks; the `Reference` oracle
/// is what the conformance and parity suites compare against. So outside
/// `tensor/src/backend.rs`, which defines both, no product line (`src` and
/// every `crates/*/src`, before each file's first `#[cfg(test)]`, comments
/// and strings cut) names `BackendKind::Reference`.
#[test]
fn the_oracle_is_not_a_runtime_default() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let src = entry.expect("crates/ entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let kernels = root.join("crates/tensor/src/backend.rs");
    assert!(files.contains(&kernels), "the walk found the kernel crate");
    for path in files.iter().filter(|p| **p != kernels) {
        let code = non_test_code(std::slice::from_ref(path));
        assert!(
            !code.contains("BackendKind::Reference"),
            "{} picks the oracle",
            path.display()
        );
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

/// The call-site guards' reading of `files`: each one's [`code_only`]
/// text before its first `#[cfg(test)]`, concatenated.
fn non_test_code(files: &[std::path::PathBuf]) -> String {
    let non_test = |path: &std::path::PathBuf| {
        let code = code_only(&std::fs::read_to_string(path).expect("readable source"));
        code.split("#[cfg(test)]")
            .next()
            .expect("first piece")
            .to_string()
    };
    files.iter().map(non_test).collect()
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
    let code = non_test_code(&serving);
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
/// (`Transcript::start` and `Transcript::commit`) and so is a host step
/// (the outer loop `generate_rounds` and the one extra `DenseEngine`
/// charges for its first token). A third site means an engine or a collector has grown a
/// loop of its own again.
#[test]
fn the_greedy_loop_has_one_body() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = vec![root.join("crates/bench/src/lib.rs")];
    rust_files(&root.join("crates/core/src"), &mut files);
    assert!(files.len() > 15, "the walk found the core crate");
    let code = non_test_code(&files);
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
        "crates/nn/src/mlp.rs: forward_trace",
        "reference the trainer-equivalence test compares against (the per-sample trainer's forward)",
    ),
    (
        "crates/nn/src/mlp.rs: zero_grads",
        "reference the trainer-equivalence test compares against (the per-sample trainer's gradient buffers)",
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

/// The variants of every plain-`pub enum` in `code`, as `Enum::Variant`.
fn pub_enum_variants(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (at, _) in code.match_indices("pub enum ") {
        let tail = &code[at + "pub enum ".len()..];
        let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
        let name: String = tail.chars().take_while(|&c| ident(c)).collect();
        let body = &tail[tail.find('{').expect("an enum body") + 1..];
        // Each variant's text outside brackets: `#[default] Fcfs` reads
        // `# Fcfs`, `Paged { page_size: usize }` reads `Paged  `.
        let (mut depth, mut entry) = (0usize, String::new());
        for c in body.chars() {
            match c {
                '{' | '(' | '[' => depth += 1,
                '}' if depth == 0 => break,
                '}' | ')' | ']' => depth -= 1,
                ',' if depth == 0 => entry.push('\n'),
                c if depth == 0 => entry.push(c),
                _ => {}
            }
        }
        for variant in entry.lines() {
            if let Some(v) = variant.split(|c: char| !ident(c)).find(|t| !t.is_empty()) {
                out.push(format!("{name}::{v}"));
            }
        }
    }
    out
}

/// Whether `code` names `path` (`Enum::Variant`) as a whole path segment.
fn names_path(code: &str, path: &str) -> bool {
    let ident = |c: Option<char>| c.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
    code.match_indices(path).any(|(at, _)| {
        !ident(code[..at].chars().next_back()) && !ident(code[at + path.len()..].chars().next())
    })
}

/// The braced block that opens at the first `{` of `code`, braces included.
fn block(code: &str) -> &str {
    let open = code.find('{').expect("a braced block");
    let mut depth = 0usize;
    for (i, c) in code[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' if depth == 1 => return &code[open..=open + i],
            '}' => depth -= 1,
            _ => {}
        }
    }
    &code[open..]
}

/// The body of `Type::function` in `code`: `fn function` inside an
/// inherent `impl Type` block; empty if there is none.
fn builder_body<'a>(code: &'a str, builder: &str) -> &'a str {
    let (ty, function) = builder.split_once("::").expect("`Type::function`");
    let inherent = |header: &str| {
        let words: Vec<&str> = header
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .collect();
        !words.contains(&"for") && words.contains(&ty)
    };
    let starts = code.match_indices("impl").map(|(at, _)| &code[at..]);
    for imp in starts.filter(|imp| inherent(&imp[..imp.find('{').unwrap_or(0)])) {
        let body = block(imp);
        let head = format!("fn {function}");
        let found = body
            .match_indices(&head)
            .map(|(at, _)| &body[at..])
            .find(|f| f[head.len()..].starts_with(['(', '<']));
        if let Some(f) = found {
            return block(f);
        }
    }
    ""
}

/// Variants no other file's non-test code names, each with the function of
/// its own file that constructs it and the reason it stays. The list may
/// only shrink: an entry whose variant is gone, has gained a referrer, or
/// whose function no longer names it fails the guard too.
const UNNAMED_VARIANT_ALLOWED: &[(&str, &str, &str)] = &[
    (
        "crates/cluster/src/router.rs: RouterPolicy::ShortestQueue",
        "RouterPolicy::parse",
        "`--router shortest-queue` (or `jsq`) selects it",
    ),
    (
        "crates/control/src/policy.rs: ControllerPolicy::Pid",
        "ControllerPolicy::pid",
        "every PID caller (CLI `pid` specs, the benchmark's `pid` runs) builds it through `pid()`",
    ),
    (
        "crates/model/src/linear.rs: LinearOp::Awq",
        "LinearOp::awq_quantized",
        "AWQ-calibrated weights (`quantize_awq`, the `ablation_awq_calibration` bench)",
    ),
    (
        "crates/model/src/linear.rs: LinearOp::Quant",
        "LinearOp::quantized",
        "round-to-nearest weights (`Transformer::quantize`, the benches' `ModelVariant::Quantized`)",
    ),
    (
        "crates/obs/src/slo.rs: SloKind::FalseExitRate",
        "SloObjective::parse",
        "`--slo false_exit_rate=…` selects it",
    ),
    (
        "crates/obs/src/slo.rs: SloKind::LatencyQuantile",
        "SloObjective::parse",
        "`--slo p99_ttft=…` selects it",
    ),
    (
        "crates/tensor/src/quant.rs: QuantError::BadGroupSize",
        "QuantizedMatrix::quantize",
        "the error a group size that does not divide the columns returns",
    ),
];

/// Every enum variant has a referrer. For each variant of a plain-`pub
/// enum` before the first `#[cfg(test)]` of a product source file
/// (`crates/*/src`, `src`), some other file's non-test code — product code
/// before its own first `#[cfg(test)]`, a bench, an example or the
/// benchmark adapter — must name it `Enum::Variant`, or it is listed above
/// with the function of its own file that builds it. A variant only a test
/// selects is an option nothing selects: delete it with the code that
/// exists to serve it.
#[test]
fn every_enum_variant_has_a_referrer() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "src", "examples", "benchmark/src"] {
        rust_files(&root.join(dir), &mut files);
    }
    let scanned: Vec<(String, bool, String)> = files
        .iter()
        .filter_map(|path| {
            let rel = path.strip_prefix(root).expect("under the root");
            let rel = rel.to_string_lossy().replace('\\', "/");
            let product = rel.starts_with("src/") || rel.split('/').nth(2) == Some("src");
            let tests = rel.split('/').nth(2) == Some("tests");
            (!tests).then(|| (rel, product, non_test_code(std::slice::from_ref(path))))
        })
        .collect();
    assert!(scanned.len() > 100, "the walk found the workspace");

    let mut unnamed = std::collections::BTreeMap::new();
    for (at, (rel, product, code)) in scanned.iter().enumerate() {
        if !product {
            continue;
        }
        for variant in pub_enum_variants(code) {
            let elsewhere = scanned
                .iter()
                .enumerate()
                .any(|(other, (_, _, code))| other != at && names_path(code, &variant));
            if !elsewhere {
                unnamed.insert(format!("{rel}: {variant}"), code);
            }
        }
    }

    let mut allowed = std::collections::BTreeSet::new();
    for &(item, builder, reason) in UNNAMED_VARIANT_ALLOWED {
        assert!(
            !reason.trim().is_empty(),
            "`{item}` is allowed without a reason"
        );
        allowed.insert(item.to_string());
        let Some(code) = unnamed.get(item) else {
            continue; // stale, reported below
        };
        let variant = item.rsplit(' ').next().expect("Enum::Variant");
        let short = format!("Self::{}", variant.rsplit("::").next().expect("a variant"));
        let body = builder_body(code, builder);
        assert!(
            names_path(body, variant) || names_path(body, &short),
            "`{item}` is allowed as built by `{builder}`, which does not name it"
        );
    }
    let listed: std::collections::BTreeSet<String> = unnamed.keys().cloned().collect();
    let unlisted: Vec<&String> = listed.difference(&allowed).collect();
    let stale: Vec<&String> = allowed.difference(&listed).collect();
    assert!(
        unlisted.is_empty(),
        "{} enum variants no other file's non-test code names — delete each (with \
         the code and unit tests that only serve it), or allow it with the function \
         that builds it and a reason:\n{unlisted:#?}",
        unlisted.len()
    );
    assert!(
        stale.is_empty(),
        "allow-list entries whose variant is gone or has a referrer now — drop them:\n{stale:#?}"
    );
}
