//! The four workloads and their seeded request generators.
//!
//! Requests are plain data — prompt token ids, an output length, an
//! arrival time on the serving tiers' simulated clock and a priority lane
//! — made here from `--seed` alone and handed to the program through
//! `adapter.rs`. The same seed gives the same requests; nothing in here
//! touches a product crate.

/// Vocabulary of the Llama2-7B(sim) model every workload runs; prompt
/// token ids are drawn from `1..VOCAB`. `adapter.rs` asserts the model
/// agrees.
pub const VOCAB: u32 = 2048;

/// One request, as the program receives it.
#[derive(Debug, Clone, PartialEq)]
pub struct PlainRequest {
    /// Position in submission order.
    pub id: u64,
    /// Prompt token ids.
    pub prompt: Vec<u32>,
    /// Output tokens wanted.
    pub gen_len: usize,
    /// Arrival on the simulated clock, seconds (serving tiers only).
    pub arrival_s: f64,
    /// Priority lane, lower is more urgent (cluster only).
    pub lane: u8,
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `SpecEeEngine::generate`, one request at a time.
    SoloAr,
    /// `ContinuousBatcher::run_live` on a cap-8 `BatchedEngine`.
    LiveBatch,
    /// `Cluster` with two workers, shared prefixes and a tight page cap.
    ClusterPrefix,
    /// `SpeculativeEngine` tree decoding with hyper-token exit.
    SoloTree,
}

/// SplitMix64: the generator's only source of randomness.
#[derive(Debug, Clone)]
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    fn unit(&mut self) -> f64 {
        ((self.next() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    fn tokens(&mut self, n: usize) -> Vec<u32> {
        (0..n)
            .map(|_| 1 + (self.next() % u64::from(VOCAB - 1)) as u32)
            .collect()
    }
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::SoloAr,
        Workload::LiveBatch,
        Workload::ClusterPrefix,
        Workload::SoloTree,
    ];

    /// The name `--workload` takes and `BENCHMARK.json` lists.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SoloAr => "solo_ar",
            Workload::LiveBatch => "live_batch",
            Workload::ClusterPrefix => "cluster_prefix",
            Workload::SoloTree => "solo_tree",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs a serving tier (simulated clock, batch).
    pub fn is_serving(self) -> bool {
        matches!(self, Workload::LiveBatch | Workload::ClusterPrefix)
    }

    /// Distinct request sets a run cycles through, round by round. Token
    /// trees accept a different number of tokens per round for every
    /// prompt, so `solo_tree` needs many sets before its tokens per second
    /// stop depending on the seed; the serving tiers' sets are regular by
    /// construction (below) and their references cost seconds each.
    pub fn sets(self) -> usize {
        match self {
            Workload::SoloAr => 4,
            Workload::SoloTree => 12,
            Workload::LiveBatch | Workload::ClusterPrefix => 1,
        }
    }

    /// The requests of set `set` (`0..self.sets()`) for `seed`. A round
    /// serves one set; every round on the same set does equal work, so
    /// their spread is noise. Only what cannot change the amount of work,
    /// nor who queues behind whom on the serving tiers, is random: the
    /// token ids and the jitter of the arrivals.
    pub fn requests(self, seed: u64, set: usize) -> Vec<PlainRequest> {
        // One stream per workload and set, so adding either never shifts
        // another's requests.
        let stream = (self as u64 + 1) * 0x100 + set as u64;
        let mut rng = SplitMix(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        match self {
            // The paper's Fig. 14 setting: MT-Bench-shaped single stream.
            Workload::SoloAr => (0..SOLO_AR_REQUESTS)
                .map(|id| plain(id, rng.tokens(12), 20))
                .collect(),
            // Short prompts, long mixed outputs: slots retire at
            // different steps and are refilled while the rest decode.
            Workload::LiveBatch => (0..LIVE_GEN.len())
                .map(|i| PlainRequest {
                    arrival_s: (i as f64 + rng.unit() / 2.0) / LIVE_RATE_PER_S,
                    ..plain(i as u64, rng.tokens(8), LIVE_GEN[i])
                })
                .collect(),
            // Long shared prefixes, short outputs: prompt processing and
            // KV writes dominate; two lanes so preemption has victims.
            Workload::ClusterPrefix => {
                let prefixes: Vec<Vec<u32>> =
                    (0..=CLUSTER_PREFIX_OF.iter().max().copied().unwrap_or(0))
                        .map(|_| rng.tokens(CLUSTER_PREFIX_LEN))
                        .collect();
                (0..CLUSTER_GEN.len())
                    .map(|i| {
                        let mut prompt = prefixes[CLUSTER_PREFIX_OF[i]].clone();
                        prompt.extend(rng.tokens(CLUSTER_UNIQUE_LEN));
                        PlainRequest {
                            arrival_s: (i as f64 + rng.unit() / 2.0) / CLUSTER_RATE_PER_S,
                            // Every third arrival is urgent and finds the
                            // pages held by lane-1 residents.
                            lane: u8::from(i % 3 != 2),
                            ..plain(i as u64, prompt, CLUSTER_GEN[i])
                        }
                    })
                    .collect()
            }
            Workload::SoloTree => (0..SOLO_TREE_REQUESTS)
                .map(|id| plain(id, rng.tokens(24), 32))
                .collect(),
        }
    }
}

fn plain(id: u64, prompt: Vec<u32>, gen_len: usize) -> PlainRequest {
    PlainRequest {
        id,
        prompt,
        gen_len,
        arrival_s: 0.0,
        lane: 0,
    }
}

/// Requests per `solo_ar` round.
pub const SOLO_AR_REQUESTS: u64 = 5;
/// Requests per `solo_tree` round.
pub const SOLO_TREE_REQUESTS: u64 = 2;
/// Output lengths of the twelve `live_batch` requests in arrival order
/// (cap 8: one full cohort plus refills), mixed so that slots retire at
/// different steps.
pub const LIVE_GEN: [usize; 12] = [15, 21, 10, 19, 12, 17, 20, 11, 18, 13, 16, 14];
/// Arrival rate on the simulated clock; a priced decode step takes
/// ~20 ms, so the queue never empties before the last admission.
pub const LIVE_RATE_PER_S: f64 = 400.0;
/// Output lengths of the six `cluster_prefix` requests in arrival order
/// (2 workers × cap 4; the page cap keeps some queued).
pub const CLUSTER_GEN: [usize; 6] = [11, 16, 8, 14, 9, 13];
/// Which shared prefix each request carries: two prefixes, three requests
/// each.
pub const CLUSTER_PREFIX_OF: [usize; 6] = [0, 1, 0, 1, 1, 0];
/// Tokens in a shared prefix (two whole 16-token pages).
pub const CLUSTER_PREFIX_LEN: usize = 32;
/// Unique tokens after the prefix.
pub const CLUSTER_UNIQUE_LEN: usize = 8;
/// Arrival rate on the simulated clock: arrivals span most of a round's
/// priced makespan (~0.3 s), so urgent requests find residents seated.
pub const CLUSTER_RATE_PER_S: f64 = 40.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_requests() {
        for w in Workload::ALL {
            for set in 0..w.sets() {
                assert_eq!(w.requests(7, set), w.requests(7, set), "{}", w.name());
            }
        }
    }

    #[test]
    fn different_seeds_give_different_requests() {
        for w in Workload::ALL {
            let (a, b) = (w.requests(7, 0), w.requests(8, 0));
            assert_eq!(a.len(), b.len());
            assert!(
                a.iter().zip(&b).all(|(x, y)| x.prompt != y.prompt),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn workloads_and_sets_draw_from_separate_streams() {
        let ar = Workload::SoloAr.requests(3, 0);
        let tree = Workload::SoloTree.requests(3, 0);
        assert_ne!(ar[0].prompt[..8], tree[0].prompt[..8]);
        assert_ne!(ar[0].prompt, Workload::SoloAr.requests(3, 1)[0].prompt);
    }

    #[test]
    fn the_amount_of_work_does_not_depend_on_the_seed() {
        for w in Workload::ALL {
            let shape = |seed| {
                let reqs = w.requests(seed, 0);
                let mut gens: Vec<usize> = reqs.iter().map(|r| r.gen_len).collect();
                gens.sort_unstable();
                let prompt: usize = reqs.iter().map(|r| r.prompt.len()).sum();
                (gens, prompt, reqs.iter().filter(|r| r.lane == 0).count())
            };
            assert_eq!(shape(1), shape(2), "{}", w.name());
        }
    }

    #[test]
    fn requests_are_well_formed() {
        for w in Workload::ALL {
            let reqs = w.requests(11, w.sets() - 1);
            assert!(!reqs.is_empty());
            for (i, r) in reqs.iter().enumerate() {
                assert_eq!(r.id, i as u64);
                assert!(r.gen_len > 0 && !r.prompt.is_empty());
                assert!(r.prompt.iter().all(|&t| (1..VOCAB).contains(&t)));
            }
            assert!(reqs.windows(2).all(|p| p[0].arrival_s <= p[1].arrival_s));
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn cluster_requests_share_whole_page_prefixes() {
        let reqs = Workload::ClusterPrefix.requests(5, 0);
        let mut prefixes: Vec<&[u32]> = reqs
            .iter()
            .map(|r| &r.prompt[..CLUSTER_PREFIX_LEN])
            .collect();
        prefixes.sort_unstable();
        prefixes.dedup();
        assert_eq!(prefixes.len(), 2);
        assert!(reqs
            .iter()
            .all(|r| r.prompt.len() == CLUSTER_PREFIX_LEN + CLUSTER_UNIQUE_LEN));
        assert!(reqs.iter().any(|r| r.lane == 0) && reqs.iter().any(|r| r.lane == 1));
    }
}
