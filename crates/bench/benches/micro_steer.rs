//! Microbenchmark: what `SyntheticLm`'s steering adds to a decoder layer,
//! by the state of the shared steering-noise tape.
//!
//! Every (row, layer) blends `hidden_dim` normals into the layer output.
//! They come from `NoiseStream`, a tape shared by every clone of a model:
//! *cold* is the first read of a stretch (drawn — 128 × `ln`/`sqrt`/`cos`
//! on 7B(sim) — and kept), *warm* is any later read of it by any clone (a
//! copy), *past the cap* is a read beyond what the tape keeps (drawn every
//! time). Rows: a batch-1 `forward_layer` and one seat of an 8-member
//! `forward_layer_group` — of whose eight reads per layer only the first
//! can be cold — against the wrapped `Transformer`'s own, then the bare
//! 128-normal read. Plain `Instant`, fastest of a few repeats; reported,
//! never asserted.

use specee_metrics::Meter;
use specee_model::{LayeredLm, ModelConfig, TokenId};
use specee_synth::noise::{CHUNK, CHUNKS};
use specee_synth::{DatasetProfile, NoiseStream, SyntheticLm, SyntheticLmBuilder};
use specee_tensor::{BackendKind, Pcg};
use std::hint::black_box;
use std::time::Instant;

/// Tokens in context when the timed decode starts.
const CONTEXT: usize = 16;
/// Tokens decoded at full depth per measurement; with the context, still
/// under the tape's cap at 32 layers × 128 normals a token.
const TOKENS: usize = 96;
const REPEATS: usize = 5;

fn template() -> SyntheticLm {
    let mut lm = SyntheticLmBuilder::new(ModelConfig::sim_llama2_7b(), DatasetProfile::mt_bench())
        .seed(19)
        .build();
    lm.set_backend(BackendKind::Blocked);
    lm
}

fn tokens(n: usize) -> Vec<TokenId> {
    (0..n).map(|i| 1 + (i as TokenId * 37) % 2000).collect()
}

/// Seats `n` clones of `model`, prefills the context and decodes
/// [`TOKENS`] tokens at full depth in lock-step: ns per (seat, layer) of
/// `forward_layer` for one seat, of `forward_layer_group` for more.
fn layer_ns<M: LayeredLm + Clone>(model: &M, n: usize) -> f64 {
    let meter = &mut Meter::new();
    let mut seats: Vec<M> = (0..n).map(|_| model.clone()).collect();
    for seat in &mut seats {
        seat.prefill(&tokens(CONTEXT), meter);
    }
    let n_layers = model.config().n_layers;
    let mut ns = 0u128;
    for token in tokens(TOKENS) {
        let positions: Vec<usize> = seats.iter().map(|s| s.kv_len()).collect();
        let mut hs: Vec<Vec<f32>> = seats
            .iter_mut()
            .map(|s| s.begin_token(token, meter))
            .collect();
        let t = Instant::now();
        for layer in 0..n_layers {
            hs = if let [seat] = &mut seats[..] {
                vec![seat.forward_layer(layer, &hs[0], positions[0], meter)]
            } else {
                let mut group: Vec<&mut M> = seats.iter_mut().collect();
                let hs: Vec<&[f32]> = hs.iter().map(Vec::as_slice).collect();
                M::forward_layer_group(&mut group, layer, &hs, &positions, meter)
            };
        }
        ns += t.elapsed().as_nanos();
        black_box(&hs);
    }
    ns as f64 / (TOKENS * n_layers * n) as f64
}

/// ns per `dim`-normal read over a whole tape's worth of them.
fn read_ns(stream: &NoiseStream, dim: usize) -> f64 {
    let mut stream = stream.clone();
    let mut out = vec![0.0f32; dim];
    let reads = CHUNK * CHUNKS / dim;
    let t = Instant::now();
    for _ in 0..reads {
        stream.zip_at(0, black_box(&mut out), |o, n| *o = n);
        stream.skip(dim);
    }
    t.elapsed().as_nanos() as f64 / reads as f64
}

/// Keeps the fastest of each column: the box is shared, and the fastest
/// repeat is the one nobody interrupted.
fn keep_fastest<const N: usize>(best: &mut [f64; N], runs: [f64; N]) {
    for (best, ns) in best.iter_mut().zip(runs) {
        *best = best.min(ns);
    }
}

fn main() {
    let cfg = ModelConfig::sim_llama2_7b();
    let per_token = cfg.n_layers * cfg.hidden_dim;
    assert!((CONTEXT + TOKENS) * per_token <= CHUNK * CHUNKS);
    println!(
        "micro_steer: {} on {}, {CONTEXT}-token context, {TOKENS} tokens x {} layers, ns (fastest of {REPEATS})",
        cfg.name,
        BackendKind::Blocked,
        cfg.n_layers
    );
    println!(
        "{:<38} {:>9} {:>9} {:>9} {:>9}",
        "", "inner", "cold", "warm", "past cap"
    );
    for (name, n) in [
        ("forward_layer, batch 1", 1),
        ("forward_layer_group of 8, per seat", 8),
    ] {
        let mut best = [f64::INFINITY; 4];
        for _ in 0..REPEATS {
            // Cold needs a tape nobody has read: a model built afresh,
            // measured before anything else touches it.
            let lm = template();
            // The wrapped decoder before and after, the faster kept: the
            // first run of a repeat also pays for its page faults.
            let before = layer_ns(lm.inner(), n);
            let (cold, warm) = (layer_ns(&lm, n), layer_ns(&lm, n));
            let inner = before.min(layer_ns(lm.inner(), n));
            // Moved beyond the cap once; every clone continues from there.
            let mut past = lm.clone();
            past.prefill(&tokens(CHUNK * CHUNKS / per_token + 1), &mut Meter::new());
            past.reset();
            keep_fastest(&mut best, [inner, cold, warm, layer_ns(&past, n)]);
        }
        let [inner, cold, warm, past] = best;
        println!("{name:<38} {inner:>9.0} {cold:>9.0} {warm:>9.0} {past:>9.0}");
    }

    let mut best = [f64::INFINITY; 3];
    for seed in 0..REPEATS as u64 {
        let stream = NoiseStream::new(Pcg::seed(seed));
        let mut past = stream.clone();
        past.skip(CHUNK * CHUNKS);
        let dim = cfg.hidden_dim;
        let runs = [
            read_ns(&stream, dim),
            read_ns(&stream, dim),
            read_ns(&past, dim),
        ];
        keep_fastest(&mut best, runs);
    }
    let [cold, warm, past] = best;
    println!(
        "{:<38} {:>9} {cold:>9.0} {warm:>9.0} {past:>9.0}",
        format!("{}-normal read", cfg.hidden_dim),
        "-"
    );
}
