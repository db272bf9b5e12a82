//! The shared steering-noise tape against the private generator it
//! replaced, bit for bit.
//!
//! `SyntheticLm` used to own a `Pcg` and draw `hidden_dim` normals per
//! (row, layer). The values are a pure function of (origin, draw index),
//! so `NoiseStream` keeps them on a tape behind an `Arc` that every clone
//! of a model reads: chunks filled once by whoever touches them first,
//! reads past the cap drawn on the spot. The house contract is that no
//! token and no priced second may move, so whatever the read size, the
//! position, the order clones take their turns in or the thread they run
//! on, a stream must yield exactly the `Pcg::normal() as f32` sequence a
//! private generator would — and a model reading a warm, shared tape must
//! compute the hidden states of one reading a cold tape of its own.

use std::sync::Barrier;

use proptest::prelude::*;
use specee::metrics::Meter;
use specee::model::{LayeredLm, ModelConfig, SkipKvPolicy, TokenId};
use specee::synth::noise::{CHUNK, CHUNKS};
use specee::synth::{DatasetProfile, NoiseStream, SyntheticLm, SyntheticLmBuilder};
use specee::tensor::{BackendKind, Pcg};

/// Normals the tape keeps; reads at or past this index are drawn afresh.
const CAP: usize = CHUNK * CHUNKS;
/// Where the cap stood while the tape kept 128 chunks: an ordinary chunk
/// boundary now, half a tree request in.
const OLD_CAP: usize = CHUNK * 128;

/// The next `n` normals of `stream`, taken the way `SyntheticLm::steer`
/// takes them: read at the cursor, then move it.
fn read(stream: &mut NoiseStream, n: usize) -> Vec<u32> {
    let mut out = vec![f32::NAN; n];
    stream.zip_at(0, &mut out, |o, normal| *o = normal);
    stream.skip(n);
    out.into_iter().map(f32::to_bits).collect()
}

/// The reference: a private generator that discards `gap` normals by
/// drawing them, then yields the next `n`.
fn draw(rng: &mut Pcg, gap: usize, n: usize) -> Vec<u32> {
    for _ in 0..gap {
        rng.normal();
    }
    (0..n).map(|_| (rng.normal() as f32).to_bits()).collect()
}

/// `(start, len)` reads that walk a stream from its origin to beyond the
/// cap, in stream order, through every kind there is.
fn walk(rng: &mut Pcg, dim: usize) -> Vec<(usize, usize)> {
    let short = |rng: &mut Pcg| 1 + rng.below(dim);
    let (ends_on, across_one, across_many, across_cap) =
        (short(rng), short(rng), short(rng), short(rng));
    let mut reads = vec![
        (0, 0),
        (0, 1),
        (1, dim),
        (1 + dim, 0),
        // Ends on a chunk boundary; starts on one; straddles one; several.
        (CHUNK - ends_on, ends_on),
        (CHUNK, dim),
        (2 * CHUNK - across_one, dim + 1),
        (3 * CHUNK - across_many, 2 * CHUNK + rng.below(CHUNK)),
        // Over chunks nobody touched.
        (9 * CHUNK - rng.below(CHUNK), dim),
        // Across where the cap used to stand, then on from there.
        (OLD_CAP - short(rng), dim + 1),
        (OLD_CAP + dim + 1, CHUNK + short(rng)),
        // Starts under the cap and ends past it; then wholly past it.
        (CAP - across_cap, across_cap + short(rng)),
    ];
    for _ in 0..3 {
        let (start, len) = reads[reads.len() - 1];
        reads.push((
            start + len + rng.below(2 * CHUNK),
            short(rng) + rng.below(CHUNK),
        ));
    }
    reads
}

fn config() -> ModelConfig {
    // 4096 % 30 != 0: rows straddle chunk boundaries.
    ModelConfig {
        hidden_dim: 30,
        n_heads: 3,
        ffn_dim: 30,
        n_layers: 6,
        ..ModelConfig::tiny()
    }
}

fn synthetic(seed: u64) -> SyntheticLm {
    let mut lm = SyntheticLmBuilder::new(config(), DatasetProfile::qa())
        .seed(seed)
        .build();
    lm.set_backend(BackendKind::ALL[seed as usize % 3]);
    lm
}

/// A prompt and the `(token, depth)` decode steps that follow it.
type Plan = (Vec<TokenId>, Vec<(TokenId, usize)>);
/// Hidden states of one sequence: `[step][layer that ran][component]`.
type Trace = Vec<Vec<Vec<f32>>>;

/// A prompt long enough to cross the first chunk boundary, then twelve
/// decode steps at mixed depths, the first at full depth.
fn plan(rng: &mut Pcg) -> Plan {
    let cfg = config();
    let token = |rng: &mut Pcg| rng.below(cfg.vocab_size) as TokenId;
    let prompt: Vec<TokenId> = (0..24 + rng.below(8)).map(|_| token(rng)).collect();
    assert!(prompt.len() * cfg.n_layers * cfg.hidden_dim > CHUNK);
    let mut steps: Vec<(TokenId, usize)> = (0..12)
        .map(|_| (token(rng), 1 + rng.below(cfg.n_layers)))
        .collect();
    steps[0].1 = cfg.n_layers;
    (prompt, steps)
}

/// Step `step` of a sequence (0 prefills `prompt`, `i > 0` decodes
/// `steps[i - 1]` and leaves at its depth the way an early exit does);
/// returns the hidden state after every layer that ran.
fn advance(model: &mut SyntheticLm, (prompt, steps): &Plan, step: usize) -> Vec<Vec<f32>> {
    let meter = &mut Meter::new();
    if step == 0 {
        return vec![model.prefill(prompt, meter)];
    }
    let (token, depth) = steps[step - 1];
    let pos = model.kv_len();
    let mut h = model.begin_token(token, meter);
    let mut per_layer = Vec::new();
    for layer in 0..depth {
        h = model.forward_layer(layer, &h, pos, meter);
        per_layer.push(h.clone());
    }
    model.fill_skipped_kv(depth, &h, pos, SkipKvPolicy::ProjectExitHidden, meter);
    per_layer
}

/// The whole sequence, one step after the other.
fn run(model: &mut SyntheticLm, plan: &Plan) -> Trace {
    (0..=plan.1.len())
        .map(|step| advance(model, plan, step))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn a_stream_yields_what_a_private_generator_draws(seed in 0u64..1_000_000, dim in 1usize..200) {
        let origin = Pcg::seed(seed);
        let mut stream = NoiseStream::new(origin.clone());
        let mut private = origin.clone();
        let mut at = 0;
        let mut replay = Vec::new();
        for (start, len) in walk(&mut Pcg::seed(seed ^ 0x91), dim) {
            // Moving the cursor is discarding, whether or not anybody
            // ever reads what lies between.
            let gap = start - at;
            stream.skip(gap);
            at = start;
            let behind = stream.clone();
            let got = read(&mut stream, len);
            prop_assert!(got == draw(&mut private, gap, len), "{} normals at {}", len, at);
            // An offset read is the read a moved cursor makes — here on
            // a stream built apart, whose tape nobody has touched.
            let back = at.min(1 + dim);
            let mut apart = NoiseStream::new(origin.clone());
            apart.skip(at - back);
            let mut offset = vec![f32::NAN; len];
            apart.zip_at(back, &mut offset, |o, normal| *o = normal);
            let offset: Vec<u32> = offset.into_iter().map(f32::to_bits).collect();
            prop_assert!(offset == got, "{} normals {} past {}", len, back, at - back);
            replay.push((behind, got));
            at += len;
        }
        // Every read again, latest first, now that the chunks are filled
        // (and, past the cap, drawn a second time).
        for (mut behind, got) in replay.into_iter().rev() {
            prop_assert!(read(&mut behind, got.len()) == got, "second read of {}", got.len());
        }
    }

    #[test]
    fn clones_keep_their_own_cursor(seed in 0u64..1_000_000, dim in 1usize..200) {
        let origin = Pcg::seed(seed);
        let mut rng = Pcg::seed(seed ^ 0x92);
        // Clones taken as the base moves on, the last one a chunk short
        // of the cap; beside each, a private generator moved as far.
        let mut base = NoiseStream::new(origin.clone());
        let mut private = origin.clone();
        let mut at = 0;
        let mut clones = Vec::new();
        for i in 0..6 {
            let gap = if i == 5 { CAP - CHUNK - at } else { rng.below(CHUNK) };
            base.skip(gap);
            draw(&mut private, gap, 0);
            at += gap;
            clones.push((base.clone(), private.clone()));
        }
        // Forty reads, whoever's turn it is: each sees its own suffix.
        for _ in 0..40 {
            let turn = rng.below(clones.len());
            let len = [0, 1, dim, rng.below(2 * CHUNK)][rng.below(4)];
            let (stream, private) = &mut clones[turn];
            prop_assert!(read(stream, len) == draw(private, 0, len), "clone {} reads {}", turn, len);
        }
        // A read moved its reader only: the base stands where it stood.
        // And streams are equal by value, as two `Pcg`s are: the same
        // origin moved as far, whichever tape is behind it and whatever
        // that tape holds.
        let mut apart = NoiseStream::new(origin.clone());
        prop_assert!(apart != base);
        apart.skip(at);
        prop_assert!(apart == base && format!("{apart:?}") == format!("{base:?}"));
        prop_assert!(NoiseStream::new(Pcg::seed(seed + 1)) != NoiseStream::new(origin));
    }
}

#[test]
fn threads_racing_on_a_cold_chunk_read_what_one_thread_reads() {
    for seed in 0..4u64 {
        let origin = Pcg::seed(seed);
        let shared = NoiseStream::new(origin.clone());
        let alone = NoiseStream::new(origin.clone());
        // Chunk after chunk, each cold until both threads ask for it at
        // once; the last reads run across the cap.
        let chunks = [0, 1, 2, 3, 7, CHUNKS - 1, CHUNKS];
        let start = |k: usize| (k * CHUNK).saturating_sub(5);
        let barrier = Barrier::new(2);
        let racers: Vec<Vec<Vec<u32>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        chunks
                            .iter()
                            .map(|&k| {
                                let mut mine = shared.clone();
                                mine.skip(start(k));
                                barrier.wait();
                                read(&mut mine, CHUNK)
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reader thread"))
                .collect()
        });
        for (i, &k) in chunks.iter().enumerate() {
            let mut one_thread = alone.clone();
            one_thread.skip(start(k));
            let one_thread = read(&mut one_thread, CHUNK);
            assert!(
                one_thread == draw(&mut origin.clone(), start(k), CHUNK),
                "chunk {k}"
            );
            for racer in &racers {
                assert!(racer[i] == one_thread, "seed {seed}, chunk {k}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn clones_of_a_template_compute_what_a_cold_model_computes(seed in 0u64..10_000) {
        let plan = plan(&mut Pcg::seed(seed ^ 0x93));
        let mut rng = Pcg::seed(seed ^ 0x94);
        // Built apart from the same seed: a tape of its own, never read.
        let want = run(&mut synthetic(seed), &plan);

        // One after the other: the first fills the tape, seven re-read it.
        let template = synthetic(seed);
        for i in 0..8 {
            prop_assert!(run(&mut template.clone(), &plan) == want, "sequential clone {}", i);
        }

        // Interleaved on a cold tape, one step of a random clone at a
        // time: some run ahead and fill, the rest trail at cursors of
        // their own.
        let template = synthetic(seed);
        let mut clones: Vec<(SyntheticLm, usize)> = (0..8).map(|_| (template.clone(), 0)).collect();
        let mut turns: Vec<usize> = (0..clones.len() * want.len()).map(|t| t % clones.len()).collect();
        rng.shuffle(&mut turns);
        for i in turns {
            let (clone, step) = &mut clones[i];
            prop_assert!(advance(clone, &plan, *step) == want[*step], "clone {} step {}", i, step);
            *step += 1;
        }

        // Four clones a thread, both threads starting on a cold tape.
        let template = synthetic(seed);
        let barrier = Barrier::new(2);
        let got: Vec<Vec<Trace>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let mut mine: Vec<SyntheticLm> = (0..4).map(|_| template.clone()).collect();
                    let (plan, barrier) = (&plan, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        mine.iter_mut().map(|m| run(m, plan)).collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("decoding thread")).collect()
        });
        for (thread, runs) in got.iter().enumerate() {
            for (i, run) in runs.iter().enumerate() {
                prop_assert!(run == &want, "thread {} clone {}", thread, i);
            }
        }

        // The template itself was never stepped: a clone of a stepped
        // model continues where that model stands, like any other state.
        let mut stepped = template.clone();
        advance(&mut stepped, &plan, 0);
        let mut continued = stepped.clone();
        prop_assert!(advance(&mut continued, &plan, 1) == want[1]);
        prop_assert!(advance(&mut stepped, &plan, 1) == want[1]);
    }
}
