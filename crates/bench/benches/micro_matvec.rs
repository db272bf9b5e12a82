//! Criterion microbenchmark: the pluggable compute backends
//! (reference scalar oracle, cache-blocked/SIMD, integer i8) swept over
//! square mat-vec sizes, plus the multi-input mat-mul (`matmul/…x{4,8,22}`:
//! one weight pass for a token tree's worth of inputs — divide by the
//! input count to compare against the `matvec/…` row beside it).
//!
//! The 1024x1024 point is the headline: the blocked backend must beat the
//! scalar oracle by >= 2x while staying bit-identical (the conformance
//! suite proves the identity; this harness proves the speed). The
//! quantized backend additionally prints its measured error bound against
//! the dense product so the speed/accuracy trade is visible next to the
//! timings.
//!
//! Two more groups time the decoder's real weight passes (7B(sim): hidden
//! 128, FFN 256; a layer makes four, each over one stacked matrix: q|k|v
//! 384x128, `wo` 128x128, gate|up 512x128, down 128x256) and answer
//! different questions. `model_shapes` (1/2/4/8 inputs, each pass and a
//! layer's four together) multiplies *one* matrix over and over: at
//! 64–256 KB of f32 it stays hot in L2 and the row says what the register
//! tile costs when memory is not in the way. `streamed` walks what the
//! engines walk — 32 layers of four passes, 21 MB against a 4 MB L2, in
//! layer order, so every weight comes from L3 or DRAM — at
//! 1/2/4/5/6/7/8/22 inputs, and adds GMAC/s: that row is the one a decode
//! step pays, and the one the row-block look-ahead prefetch exists for.
//! On either, a tile loads each weight chunk once for all its inputs
//! (four on the AVX path, eight on the AVX-512 one) — the reason
//! the lock-step sweeps batch their seats — so the per-`N` column of `streamed`
//! should not decrease from 4 to 8 inputs and ns/input should fall.
//!
//! `helper` times `Blocked`'s mat-mul with its row blocks split between
//! the caller and the helper thread against the same mat-mul on the caller
//! alone: a layer's four passes (`wo` 128x128, q|k|v 384x128, gate|up
//! 512x128, down 128x256) and the 2048x128 LM head, at 1 / 5 / 8 / 22
//! inputs, each shape streamed over a 7B(sim) decoder's worth of bytes
//! (21 MB, 32 matrices at least) as a decode walks its layers, so the
//! weights come from L3 or DRAM. It prints the smallest
//! matrix, in weights, from which the split wins at every input count of
//! it and of every larger shape: the value `backend::SPLIT_MIN_WEIGHTS`
//! commits.
//!
//! `exp` times `ops::exp_in_place` against the scalar `f32::exp` loop it
//! replaced, in ns an element, at the widths the decoder calls it with.
//!
//! `tree_attention` times a tree layer's attention both ways, in ns a call
//! of 7B(sim)'s heads (4 of 32): one `attention::attend` call per node over
//! the committed rows and its chain, as the decoder ran it, against one
//! `attention::attend_many` call for every node, on a [3, 2, 2] tree (22
//! nodes) at 24 / 40 / 64 / 512 committed rows, then on a 40-row prompt
//! span (40 calls against one).

use criterion::{criterion_group, criterion_main, Criterion};
use specee_tensor::attention::{attend, attend_many};
use specee_tensor::backend::SPLIT_MIN_WEIGHTS;
use specee_tensor::{ops, BackendKind, Blocked, Matrix, Pcg};
use std::hint::black_box;
use std::time::{Duration, Instant};

const SIZES: &[usize] = &[128, 256, 512, 1024];
/// Inputs per mat-mul: one register tile, two, and a full draft tree.
const BATCHES: &[usize] = &[4, 8, 22];

fn bench(c: &mut Criterion) {
    let mut rng = Pcg::seed(17);
    for &n in SIZES {
        let m = Matrix::random(n, n, 0.5, &mut rng);
        let mut x = vec![0.0f32; n];
        rng.fill_uniform(&mut x, 1.0);
        let mut y = vec![0.0f32; n];

        // Measured (not just analytic) error of the integer path at this
        // size, reported alongside the timings.
        let dense = BackendKind::Reference.get().matvec(&m, &x);
        let quant = BackendKind::QuantizedI8.get().matvec(&m, &x);
        let max_abs = dense
            .iter()
            .zip(&quant)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        let rms = (dense
            .iter()
            .zip(&quant)
            .map(|(a, b)| f64::from(a - b) * f64::from(a - b))
            .sum::<f64>()
            / n.max(1) as f64)
            .sqrt();
        println!("micro_matvec {n}x{n}: quant error max |dy| = {max_abs:.3e}, rms = {rms:.3e}");

        for kind in BackendKind::ALL {
            let backend = kind.get();
            c.bench_function(&format!("matvec/{kind}/{n}x{n}"), |b| {
                b.iter(|| backend.matvec_into(black_box(&m), black_box(&x), black_box(&mut y)))
            });
        }
        for &n_in in BATCHES {
            let mut xs = vec![0.0f32; n_in * n];
            rng.fill_uniform(&mut xs, 1.0);
            let mut ys = vec![0.0f32; n_in * n];
            for kind in BackendKind::ALL {
                let backend = kind.get();
                c.bench_function(&format!("matmul/{kind}/{n}x{n}x{n_in}"), |b| {
                    b.iter(|| {
                        backend.matmul_into(black_box(&m), black_box(&xs), n_in, black_box(&mut ys))
                    })
                });
            }
        }
    }
}

/// `(rows, cols)` of a decoder layer's four weight passes, in the order it
/// makes them: q|k|v, `wo`, gate|up, down.
const MODEL_SHAPES: &[(usize, usize)] = &[(384, 128), (128, 128), (512, 128), (128, 256)];
const MODEL_INPUTS: &[usize] = &[1, 2, 4, 8];

/// Fastest observed call of `f`, in ns, over batches of `batch` calls:
/// ~150 ms of them, five at least.
fn min_ns(batch: u32, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    let start = Instant::now();
    let mut batches = 0;
    while start.elapsed() < Duration::from_millis(150) || batches < 5 {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        best = best.min(t.elapsed().as_nanos() as f64 / f64::from(batch));
        batches += 1;
    }
    best
}

/// Mean ns of one call of `f` over one batch of `batch` calls.
fn batch_ns(batch: u32, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..batch {
        f();
    }
    t.elapsed().as_nanos() as f64 / f64::from(batch)
}

fn model_shapes(_c: &mut Criterion) {
    let mut rng = Pcg::seed(23);
    for kind in [BackendKind::Reference, BackendKind::Blocked] {
        let backend = kind.get();
        for &n_in in MODEL_INPUTS {
            let mut layer_ns = 0.0;
            for &(rows, cols) in MODEL_SHAPES {
                let m = Matrix::random(rows, cols, 0.5, &mut rng);
                let mut xs = vec![0.0f32; n_in * cols];
                rng.fill_uniform(&mut xs, 1.0);
                let mut ys = vec![0.0f32; n_in * rows];
                let ns = min_ns(64, || {
                    backend.matmul_into(black_box(&m), black_box(&xs), n_in, black_box(&mut ys))
                });
                layer_ns += ns;
                report(
                    &format!("model_shape/{kind}/{rows}x{cols}x{n_in}"),
                    ns,
                    n_in,
                );
            }
            report(
                &format!("model_shape/{kind}/layer(4 passes)x{n_in}"),
                layer_ns,
                n_in,
            );
        }
    }
}

/// Layers the `streamed` walk covers: a whole 7B(sim) decoder.
const STREAMED_LAYERS: usize = 32;
/// Every tile remainder from four to eight inputs, and a full draft tree.
const STREAMED_INPUTS: &[usize] = &[1, 2, 4, 5, 6, 7, 8, 22];

fn streamed(_c: &mut Criterion) {
    let mut rng = Pcg::seed(29);
    let weights: Vec<Matrix> = (0..STREAMED_LAYERS)
        .flat_map(|_| MODEL_SHAPES)
        .map(|&(rows, cols)| Matrix::random(rows, cols, 0.5, &mut rng))
        .collect();
    let layer_macs: usize = MODEL_SHAPES.iter().map(|&(rows, cols)| rows * cols).sum();
    let dim = MODEL_SHAPES
        .iter()
        .map(|&(rows, cols)| rows.max(cols))
        .max();
    let mut xs = vec![0.0f32; dim.unwrap() * STREAMED_INPUTS.iter().max().unwrap()];
    rng.fill_uniform(&mut xs, 1.0);
    let mut ys = vec![0.0f32; xs.len()];
    for kind in [BackendKind::Reference, BackendKind::Blocked] {
        let backend = kind.get();
        for &n_in in STREAMED_INPUTS {
            let walk_ns = min_ns(1, || {
                for m in &weights {
                    let (x, y) = (&xs[..n_in * m.cols()], &mut ys[..n_in * m.rows()]);
                    backend.matmul_into(black_box(m), black_box(x), n_in, black_box(y));
                }
            });
            let ns = walk_ns / STREAMED_LAYERS as f64;
            let name = format!("streamed/{kind}/layer(4 passes)x{n_in}");
            let gmacs = (layer_macs * n_in) as f64 / ns;
            println!("{} {gmacs:>6.2} GMAC/s", row(&name, ns, n_in));
        }
    }
}

/// `(rows, cols)` the `helper` group times: a layer's four passes (`wo`,
/// q|k|v, gate|up, down) and the LM head.
const HELPER_SHAPES: &[(usize, usize)] =
    &[(128, 128), (384, 128), (512, 128), (128, 256), (2048, 128)];
/// A decode step, a default tree round, a full register tile, a full tree.
const HELPER_INPUTS: &[usize] = &[1, 5, 8, 22];

/// Bytes of a 7B(sim) decoder's layer weights (32 layers of
/// [`MODEL_SHAPES`], f32): the `helper` group streams each shape over this
/// much (and 32 matrices at least), so its weights come from L3 or DRAM as
/// in a decode, never from a 2 MB L2 that 32 small matrices would fit.
const DECODER_BYTES: usize = STREAMED_LAYERS * (384 + 128 + 512 + 256) * 128 * 4;

/// One walk over `weights` with the split forced on or off, in ns a call.
fn helper_walk(weights: &[Matrix], xs: &[f32], n_in: usize, ys: &mut [f32], split: bool) -> f64 {
    let ns = batch_ns(1, || {
        for m in weights {
            Blocked.matmul_split_into(
                black_box(m),
                black_box(xs),
                n_in,
                black_box(&mut ys[..]),
                split,
            );
        }
    });
    ns / weights.len() as f64
}

fn helper(_c: &mut Criterion) {
    let mut rng = Pcg::seed(41);
    // (weights, shape, whether the split won at every input count)
    let mut shapes: Vec<(usize, String, bool)> = Vec::new();
    for &(rows, cols) in HELPER_SHAPES {
        let count = STREAMED_LAYERS.max(DECODER_BYTES / (rows * cols * 4));
        let weights: Vec<Matrix> = (0..count)
            .map(|_| Matrix::random(rows, cols, 0.5, &mut rng))
            .collect();
        let mut wins = true;
        for &n_in in HELPER_INPUTS {
            let mut xs = vec![0.0f32; n_in * cols];
            rng.fill_uniform(&mut xs, 1.0);
            let mut ys = vec![0.0f32; n_in * rows];
            // The two sides alternate walk by walk, so a slow spell of the
            // host lands on both; the fastest walk of each counts.
            let (mut unsplit, mut split) = (f64::INFINITY, f64::INFINITY);
            let start = Instant::now();
            while start.elapsed() < Duration::from_millis(150) {
                unsplit = unsplit.min(helper_walk(&weights, &xs, n_in, &mut ys, false));
                split = split.min(helper_walk(&weights, &xs, n_in, &mut ys, true));
            }
            wins &= split < unsplit;
            let name = format!("helper/{rows}x{cols}x{n_in}");
            println!(
                "{name:<40} {unsplit:>9.0} ns/call unsplit {split:>9.0} ns/call split  x{:.2}",
                unsplit / split
            );
        }
        shapes.push((rows * cols, format!("{rows}x{cols}"), wins));
    }
    // The smallest shape from which the split wins on every larger one.
    shapes.sort_by_key(|s| s.0);
    let from = shapes.iter().rposition(|s| !s.2).map_or(0, |loss| loss + 1);
    match shapes.get(from) {
        Some((weights, shape, _)) => println!(
            "helper: the split wins from {shape} ({weights} weights) on; \
             SPLIT_MIN_WEIGHTS = {SPLIT_MIN_WEIGHTS}"
        ),
        None => {
            println!("helper: the split wins nowhere here; SPLIT_MIN_WEIGHTS = {SPLIT_MIN_WEIGHTS}")
        }
    }
}

/// Widths the decoder runs `exp` over: one attention head's scores at 64
/// cached rows, one SiLU gate row (FFN 256), one vocabulary-wide `nll`.
const EXP_WIDTHS: &[usize] = &[64, 256, 2048];

/// Both sides refill the row from the same inputs in `[-8, 8)` (no lane
/// takes the special path) before every call; printed, never asserted.
fn exp_rows(_c: &mut Criterion) {
    let mut rng = Pcg::seed(31);
    for &n in EXP_WIDTHS {
        let mut x = vec![0.0f32; n];
        rng.fill_uniform(&mut x, 8.0);
        let mut y = x.clone();
        let scalar = min_ns(64, || {
            y.copy_from_slice(&x);
            for v in black_box(&mut y[..]).iter_mut() {
                *v = v.exp();
            }
        });
        let vector = min_ns(64, || {
            y.copy_from_slice(&x);
            ops::exp_in_place(black_box(&mut y[..]));
        });
        for (path, ns) in [("scalar", scalar), ("vector", vector)] {
            let name = format!("exp/{path}/{n}");
            println!("{name:<40} {:>9.2} ns/element", ns / n as f64);
        }
    }
}

/// Committed rows a tree node sees: `solo_tree`'s range, and a long
/// context.
const TREE_SHARED: &[usize] = &[24, 40, 64, 512];

/// One row of `tree_attention`: the nodes of `parents` (all of them
/// queries) over `shared` committed rows, per-node calls against one call;
/// printed, never asserted.
fn attention_row(name: &str, parents: &[Option<usize>], shared: usize, rng: &mut Pcg) {
    let (dim, head_dim) = (128, 32);
    let n = parents.len();
    let mut random = |rows: usize| {
        let mut x = vec![0.0f32; rows * dim];
        rng.fill_uniform(&mut x, 1.0);
        x
    };
    let (qs, sk, sv, ok, ov) = (
        random(n),
        random(shared),
        random(shared),
        random(n),
        random(n),
    );
    // Each node's blocks as the decoder handed them to `attend`: the
    // committed rows, then its chain root → node, one block a row.
    let visible: Vec<Vec<(&[f32], &[f32])>> = (0..n)
        .map(|j| {
            let mut chain = Vec::new();
            let mut node = Some(j);
            while let Some(i) = node {
                chain.push((&ok[i * dim..][..dim], &ov[i * dim..][..dim]));
                node = parents[i];
            }
            chain.push((&sk[..], &sv[..]));
            chain.reverse();
            chain
        })
        .collect();
    let (mut scores, mut out) = (Vec::new(), vec![0.0f32; n * dim]);
    // The two sides alternate batch by batch, so a slow spell of the host
    // lands on both.
    let (mut per_node, mut one) = (f64::INFINITY, f64::INFINITY);
    let start = Instant::now();
    while start.elapsed() < Duration::from_millis(300) {
        per_node = per_node.min(batch_ns(16, || {
            out.fill(0.0);
            let queries = qs.chunks_exact(dim).zip(&visible);
            for ((q, blocks), o) in queries.zip(out.chunks_exact_mut(dim)) {
                attend(q, head_dim, blocks, &mut scores, o);
            }
            black_box(&mut out);
        }));
        one = one.min(batch_ns(16, || {
            out.fill(0.0);
            let (s, o) = ((&sk[..], &sv[..]), (&ok[..], &ov[..]));
            attend_many(&qs, head_dim, s, o, parents, &mut scores, &mut out);
            black_box(&mut out);
        }));
    }
    println!(
        "{name:<40} {per_node:>9.0} ns/{n} calls {one:>9.0} ns/1 call  x{:.2}",
        per_node / one
    );
}

fn tree_attention(_c: &mut Criterion) {
    let mut rng = Pcg::seed(37);
    // [3, 2, 2] in breadth-first order: the root, 3, 6, 12.
    let mut parents = vec![None];
    let (mut level, mut start) = (1, 0);
    for width in [3, 2, 2] {
        for p in start..start + level {
            parents.extend(std::iter::repeat_n(Some(p), width));
        }
        (start, level) = (start + level, level * width);
    }
    for &shared in TREE_SHARED {
        attention_row(
            &format!("tree_attention/[3,2,2]/{shared}"),
            &parents,
            shared,
            &mut rng,
        );
    }
    let span: Vec<Option<usize>> = (0..40).map(|i: usize| i.checked_sub(1)).collect();
    attention_row("tree_attention/span40/0", &span, 0, &mut rng);
}

fn row(name: &str, ns: f64, n_in: usize) -> String {
    let per_input = ns / n_in as f64;
    format!("{name:<40} {ns:>9.0} ns/call {per_input:>9.0} ns/input")
}

fn report(name: &str, ns: f64, n_in: usize) {
    println!("{}", row(name, ns, n_in));
}

criterion_group!(
    benches,
    bench,
    model_shapes,
    streamed,
    helper,
    exp_rows,
    tree_attention
);
criterion_main!(benches);
