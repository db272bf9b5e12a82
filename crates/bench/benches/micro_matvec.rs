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
//! Two more groups time the decoder's real projection shapes (7B(sim):
//! hidden 128, FFN 256) and answer different questions. `model_shapes`
//! (1/2/4/8 inputs, each shape and a layer's seven together) multiplies
//! *one* matrix over and over: a 128x128 f32 matrix is 64 KB against a
//! 48 KB L1D, so it stays hot in L2 and the row says what the register
//! tile costs when memory is not in the way. `streamed` walks what the
//! engines walk — 32 layers of seven projections, 21 MB against a 4 MB
//! L2, in layer order, so every weight comes from L3 or DRAM — at
//! 1/2/4/5/6/7/8/22 inputs, and adds GMAC/s: that row is the one a decode
//! step pays, and the one the row-block look-ahead prefetch exists for.
//! On either, a tile loads each weight chunk once for all its inputs
//! (four on the AVX path, eight on the AVX-512 one) — the reason
//! `sweep_layer` batches its seats — so the per-`N` column of `streamed`
//! should not decrease from 4 to 8 inputs and ns/input should fall.

use criterion::{criterion_group, criterion_main, Criterion};
use specee_tensor::{BackendKind, Matrix, Pcg};
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
        // The transpose kernel only differs on the blocked backend (fused
        // row-saxpy); sweep it at the same sizes for the two f32 backends.
        for kind in [BackendKind::Reference, BackendKind::Blocked] {
            let backend = kind.get();
            c.bench_function(&format!("matvec_t/{kind}/{n}x{n}"), |b| {
                b.iter(|| black_box(backend.matvec_t(black_box(&m), black_box(&x))))
            });
        }
    }
}

/// `(rows, cols)` of the decoder's projections: q/k/v/`wo`, gate/up, down.
const MODEL_SHAPES: &[(usize, usize)] = &[(128, 128), (256, 128), (128, 256)];
/// How many of each a layer holds.
const PER_LAYER: &[usize] = &[4, 2, 1];
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

fn model_shapes(_c: &mut Criterion) {
    let mut rng = Pcg::seed(23);
    for kind in [BackendKind::Reference, BackendKind::Blocked] {
        let backend = kind.get();
        for &n_in in MODEL_INPUTS {
            let mut layer_ns = 0.0;
            for (&(rows, cols), &count) in MODEL_SHAPES.iter().zip(PER_LAYER) {
                let m = Matrix::random(rows, cols, 0.5, &mut rng);
                let mut xs = vec![0.0f32; n_in * cols];
                rng.fill_uniform(&mut xs, 1.0);
                let mut ys = vec![0.0f32; n_in * rows];
                let ns = min_ns(64, || {
                    backend.matmul_into(black_box(&m), black_box(&xs), n_in, black_box(&mut ys))
                });
                layer_ns += ns * count as f64;
                report(
                    &format!("model_shape/{kind}/{rows}x{cols}x{n_in}"),
                    ns,
                    n_in,
                );
            }
            report(
                &format!("model_shape/{kind}/layer(4+2+1)x{n_in}"),
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
    let per_layer = MODEL_SHAPES.iter().zip(PER_LAYER);
    let layer: Vec<(usize, usize)> = per_layer
        .flat_map(|(&shape, &count)| std::iter::repeat_n(shape, count))
        .collect();
    let weights: Vec<Matrix> = (0..STREAMED_LAYERS)
        .flat_map(|_| layer.iter())
        .map(|&(rows, cols)| Matrix::random(rows, cols, 0.5, &mut rng))
        .collect();
    let layer_macs: usize = layer.iter().map(|&(rows, cols)| rows * cols).sum();
    let dim = layer.iter().map(|&(rows, cols)| rows.max(cols)).max();
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
            let name = format!("streamed/{kind}/layer(4+2+1)x{n_in}");
            let gmacs = (layer_macs * n_in) as f64 / ns;
            println!("{} {gmacs:>6.2} GMAC/s", row(&name, ns, n_in));
        }
    }
}

fn row(name: &str, ns: f64, n_in: usize) -> String {
    let per_input = ns / n_in as f64;
    format!("{name:<40} {ns:>9.0} ns/call {per_input:>9.0} ns/input")
}

fn report(name: &str, ns: f64, n_in: usize) {
    println!("{}", row(name, ns, n_in));
}

criterion_group!(benches, bench, model_shapes, streamed);
criterion_main!(benches);
