//! The steering-noise stream: one tape of normals per model lineage.
//!
//! Normal `i` of a stream is a pure function of (origin, `i`), so every
//! clone of a model — every seat of a batch, both workers of a cluster —
//! reads the same values. [`NoiseStream`] keeps them behind one `Arc`:
//! a clone copies the `Arc` and its own cursor, whoever touches a chunk
//! first fills it, and everyone after copies instead of redrawing. There
//! is one generator: a chunk is its output kept, a read past the cap its
//! output used on the spot.

use std::sync::{Arc, OnceLock};

use specee_tensor::rng::Pcg;

/// Normals per chunk: 16 KiB, allocated when first touched.
pub const CHUNK: usize = 4096;
/// Chunks kept: 2 Mi normals, 8 MiB if every one is touched — a 7B(sim)
/// sequence's first 512 full-depth tokens, or some 23 rounds of a 22-node
/// token tree (90 k normals a round, whatever it commits), which covers a
/// tree request: 24-token prompt and about nine rounds, 0.9 M. Reads
/// beyond are drawn every time.
pub const CHUNKS: usize = 512;

struct NoiseTape {
    origin: Pcg,
    chunks: [OnceLock<Box<[f32]>>; CHUNKS],
}

impl NoiseTape {
    /// `f(o, normal)` over `out` with normals `at..` of the stream, drawn.
    fn draw(&self, at: usize, out: &mut [f32], f: impl Fn(&mut f32, f32)) {
        let mut rng = self.origin.clone();
        rng.advance(4 * at as u64); // `Pcg::normal` is four draws
        out.iter_mut().for_each(|o| f(o, rng.normal() as f32));
    }

    /// [`NoiseTape::draw`], each chunk under the cap drawn once and kept.
    fn zip(&self, mut at: usize, mut out: &mut [f32], f: impl Fn(&mut f32, f32)) {
        while !out.is_empty() {
            let (k, off) = (at / CHUNK, at % CHUNK);
            let Some(cell) = self.chunks.get(k) else {
                return self.draw(at, out, f);
            };
            let chunk = cell.get_or_init(|| {
                let mut chunk = vec![0.0; CHUNK].into_boxed_slice();
                self.draw(k * CHUNK, &mut chunk, |o, n| *o = n);
                chunk
            });
            let n = out.len().min(CHUNK - off);
            let (head, rest) = std::mem::take(&mut out).split_at_mut(n);
            head.iter_mut()
                .zip(&chunk[off..])
                .for_each(|(o, &n)| f(o, n));
            at += n;
            out = rest;
        }
    }
}

/// A cursor into a shared tape of `Pcg::normal() as f32` draws.
///
/// Equality and `Debug` are by value — (origin, cursor) — as a private
/// generator's would be: whether a tape is shared or warm is not state.
#[derive(Clone)]
pub struct NoiseStream {
    tape: Arc<NoiseTape>,
    cursor: usize,
}

impl NoiseStream {
    /// The stream `origin` would draw, at its start; nothing drawn yet.
    pub fn new(origin: Pcg) -> Self {
        let chunks = [const { OnceLock::new() }; CHUNKS];
        NoiseStream {
            tape: Arc::new(NoiseTape { origin, chunks }),
            cursor: 0,
        }
    }

    /// `f(o, normal)` over `out` with the normals `offset` past the
    /// cursor, which stays.
    pub fn zip_at(&self, offset: usize, out: &mut [f32], f: impl Fn(&mut f32, f32)) {
        self.tape.zip(self.cursor + offset, out, f);
    }

    /// Moves the cursor past `normals` draws, read or not.
    pub fn skip(&mut self, normals: usize) {
        self.cursor += normals;
    }
}

impl PartialEq for NoiseStream {
    fn eq(&self, other: &Self) -> bool {
        (&self.tape.origin, self.cursor) == (&other.tape.origin, other.cursor)
    }
}

impl std::fmt::Debug for NoiseStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NoiseStream")
            .field("origin", &self.tape.origin)
            .field("cursor", &self.cursor)
            .finish()
    }
}
