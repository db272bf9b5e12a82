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
/// against `crates/bench/Cargo.toml` and `examples/`, not hand-maintained.
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
