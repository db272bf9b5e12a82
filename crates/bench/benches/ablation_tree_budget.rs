//! Ablation (ours): EAGLE-2-style dynamic tree budgets. The paper's T3
//! verifies a fixed-shape draft tree; the EAGLE line's follow-up prunes
//! the drafted tree to its highest joint-probability nodes before
//! verification. This harness sweeps the node budget on the SpecEE
//! speculative engine (T3) and reports accepted tokens per round, the
//! A100-priced throughput and the wall throughput measured on this host:
//! the trade between verification batch size and acceptance.
//!
//! It mirrors the benchmark's `solo_tree` workload (the 7B(sim) model,
//! MT-Bench, seed 2025, the `Blocked` kernels, 24 requests of 24 random
//! tokens decoding 32) and applies `TREE_BUDGET`'s rule to the sweep, so
//! the default can be re-derived with one command:
//!
//! `cargo bench -p specee-bench --bench ablation_tree_budget`

use std::time::{Duration, Instant};

use specee_bench::*;
use specee_core::config::TREE_BUDGET;
use specee_core::engine::SpeculativeEngine;
use specee_core::{RunStats, SpecEeConfig};
use specee_draft::TreeShape;
use specee_metrics::report::{fmt_pct, fmt_x};
use specee_metrics::{FrameworkProfile, HardwareProfile, Table};
use specee_model::TokenId;
use specee_synth::DatasetProfile;
use specee_tensor::rng::Pcg;

/// Timed passes per budget, interleaved across budgets; the fastest
/// counts (the decode is deterministic, only the host's noise differs).
const REPEATS: usize = 5;
/// Tokens each request decodes (`solo_tree`'s length).
const GEN: usize = 32;

fn main() {
    banner(
        "ablation_tree_budget",
        "dynamic draft-tree budgets (EAGLE-2-style pruning, ours)",
    );
    let cfg = model_7b();
    let seed = 2025;
    let ds = DatasetProfile::mt_bench();
    let trained = train_pipeline(&cfg, &ds, seed, paper_predictor());
    let lm = build_lm(&cfg, &ds, seed, ModelVariant::Dense);
    let draft = build_draft(&lm, &cfg, seed);
    let mut rng = Pcg::seed(seed ^ 0x7ee);
    let requests: Vec<Vec<TokenId>> = (0..24)
        .map(|_| {
            (0..24)
                .map(|_| 1 + rng.below(cfg.vocab_size - 1) as TokenId)
                .collect()
        })
        .collect();
    let shape = TreeShape::eagle_default(); // 21 nodes
    let budgets: Vec<Option<usize>> = (1..=8).chain([12]).map(Some).chain([None]).collect();

    struct Row {
        budget: Option<usize>,
        stats: RunStats,
        wall: Duration,
    }
    let mut rows: Vec<Row> = Vec::new();
    for _ in 0..REPEATS {
        for (i, &budget) in budgets.iter().enumerate() {
            let config = SpecEeConfig {
                predictor: trained.predictor,
                tree_shape: shape.clone(),
                tree_budget: budget,
                ..SpecEeConfig::default()
            };
            let schedule =
                config.build_schedule(cfg.n_layers, Some(&trained.collection.exit_frequencies));
            let mut engine = SpeculativeEngine::with_early_exit(
                lm.clone(),
                draft.clone(),
                trained.bank.clone(),
                schedule,
                config,
            );
            let start = Instant::now();
            let outputs: Vec<_> = requests
                .iter()
                .map(|prompt| engine.generate(prompt, GEN))
                .collect();
            let wall = start.elapsed();
            match rows.get_mut(i) {
                Some(row) => row.wall = row.wall.min(wall),
                None => rows.push(Row {
                    budget,
                    stats: RunStats::aggregate(&outputs),
                    wall,
                }),
            }
        }
    }
    let wall_tps = |r: &Row| r.stats.tokens as f64 / r.wall.as_secs_f64();
    let priced_tps = |r: &Row| {
        price(
            &r.stats.meter,
            HardwareProfile::a100_80g(),
            FrameworkProfile::hugging_face(),
        )
        .tokens_per_s()
    };
    let full = rows.last().expect("full row");
    let (full_wall, full_priced, full_accepted) = (
        wall_tps(full),
        priced_tps(full),
        full.stats.tokens_per_round(),
    );

    // TREE_BUDGET's rule: among the budgets whose priced tok/s stays
    // within 20 % of the full tree's, the fastest on the wall clock.
    let pick = rows
        .iter()
        .filter(|r| priced_tps(r) >= 0.8 * full_priced)
        .max_by(|a, b| wall_tps(a).total_cmp(&wall_tps(b)))
        .expect("the full tree keeps all of its own price");

    let mut table = Table::new(vec![
        "budget",
        "tokens/round",
        "vs full",
        "wall tok/s",
        "wall vs full",
        "priced tok/s",
        "priced vs full",
        "avg layers",
    ]);
    for r in &rows {
        let mut label = r.budget.map_or_else(
            || format!("full ({})", shape.node_count()),
            |b| b.to_string(),
        );
        if r.budget == Some(TREE_BUDGET) {
            label += " (default)";
        }
        table.row(vec![
            label,
            format!("{:.2}", r.stats.tokens_per_round()),
            fmt_pct(r.stats.tokens_per_round() / full_accepted),
            format!("{:.0}", wall_tps(r)),
            fmt_x(wall_tps(r) / full_wall),
            format!("{:.1}", priced_tps(r)),
            fmt_x(priced_tps(r) / full_priced),
            format!("{:.2}", r.stats.avg_layers),
        ]);
    }
    println!(
        "Llama2-7B(sim), MT-Bench, {} requests x {GEN} tokens, SpecEE tree mode; priced on \
         the A100 / HuggingFace profile (the benchmark's `priced_tok_s`), wall = fastest of \
         {REPEATS} passes of the generate calls on this host",
        requests.len()
    );
    println!("{table}");
    println!(
        "Rule (priced tok/s >= 80 % of the full tree's {full_priced:.1}, then the highest wall \
         tok/s) picks {} on this run; TREE_BUDGET = {TREE_BUDGET}.",
        pick.budget
            .map_or_else(|| "the full tree".to_string(), |b| format!("budget {b}"))
    );
    println!(
        "Expected shape: small budgets cut verification compute but accept fewer\n\
         tokens per round; generous budgets converge to the full fixed tree. The\n\
         sweet spot depends on where the device sits between the two costs."
    );
}
