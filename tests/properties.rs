//! Property-based tests (proptest) over the core data structures and
//! numerical invariants of the workspace.

use proptest::prelude::*;
use specee::core::scheduler::OnlineScheduler;
use specee::core::{hyper_tokens, verify_exit, TreeExitState};
use specee::metrics::{Meter, OpKind};
use specee::model::kv::{KvCache, KvLayout};
use specee::tensor::ops;
use specee::tensor::{Matrix, Pcg, QuantBits, QuantizedMatrix};

fn finite_vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-50.0f32..50.0, len)
}

proptest! {
    // ---------- tensor ----------

    #[test]
    fn softmax_is_a_distribution(xs in finite_vec(16)) {
        let p = ops::softmax(&xs);
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn softmax_preserves_argmax(xs in finite_vec(12)) {
        let p = ops::softmax(&xs);
        prop_assert_eq!(ops::argmax(&xs), ops::argmax(&p));
    }

    #[test]
    fn top_k_is_sorted_and_unique(xs in finite_vec(24), k in 1usize..24) {
        let idx = ops::top_k(&xs, k);
        prop_assert_eq!(idx.len(), k);
        for w in idx.windows(2) {
            prop_assert!(xs[w[0]] >= xs[w[1]]);
        }
        let mut dedup = idx.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), k);
    }

    #[test]
    fn matvec_is_linear(seed in 0u64..1000, a in -3.0f32..3.0) {
        let mut rng = Pcg::seed(seed);
        let m = Matrix::random(6, 8, 1.0, &mut rng);
        let mut x = vec![0.0f32; 8];
        rng.fill_uniform(&mut x, 1.0);
        let scaled: Vec<f32> = x.iter().map(|v| v * a).collect();
        let y1 = m.matvec(&scaled);
        let y2: Vec<f32> = m.matvec(&x).iter().map(|v| v * a).collect();
        for (p, q) in y1.iter().zip(y2.iter()) {
            prop_assert!((p - q).abs() < 1e-2, "{p} vs {q}");
        }
    }

    #[test]
    fn quantization_error_bounded(seed in 0u64..500) {
        let mut rng = Pcg::seed(seed);
        let m = Matrix::random(4, 32, 2.0, &mut rng);
        let q = QuantizedMatrix::quantize(&m, QuantBits::Int8, 16).unwrap();
        let d = q.dequantize();
        let step = q.max_step();
        for (a, b) in m.as_slice().iter().zip(d.as_slice().iter()) {
            prop_assert!((a - b).abs() <= step + 1e-6);
        }
    }

    #[test]
    fn rmsnorm_output_has_unit_rms(xs in prop::collection::vec(0.01f32..10.0, 8)) {
        let gain = vec![1.0f32; 8];
        let y = ops::rmsnorm(&xs, &gain, 0.0);
        let rms = (y.iter().map(|v| v * v).sum::<f32>() / 8.0).sqrt();
        prop_assert!((rms - 1.0).abs() < 1e-3);
    }

    // ---------- kv cache ----------

    #[test]
    fn kv_cache_roundtrips_positions(
        rows in prop::collection::vec(finite_vec(4), 1..20),
    ) {
        let mut c = KvCache::new(4, KvLayout::Contiguous);
        for r in &rows {
            c.push(r, r);
        }
        prop_assert_eq!(c.len(), rows.len());
        prop_assert!(c.allocated_tokens() >= c.len());
        for (i, r) in rows.iter().enumerate() {
            prop_assert_eq!(c.key(i), r.as_slice());
        }
        let keep = rows.len() / 2;
        c.truncate(keep);
        prop_assert_eq!(c.len(), keep);
    }

    // ---------- meter ----------

    #[test]
    fn meter_merge_is_additive(
        a in prop::collection::vec((0.0f64..1e9, 0.0f64..1e9), 1..10),
        b in prop::collection::vec((0.0f64..1e9, 0.0f64..1e9), 1..10),
    ) {
        let fill = |events: &[(f64, f64)]| {
            let mut m = Meter::new();
            for (f, by) in events {
                m.record(OpKind::Ffn, *f, *by, 1);
            }
            m
        };
        let ma = fill(&a);
        let mb = fill(&b);
        let mut merged = ma.clone();
        merged.merge(&mb);
        prop_assert!((merged.total_flops() - (ma.total_flops() + mb.total_flops())).abs() < 1e-3);
        prop_assert!((merged.total_bytes() - (ma.total_bytes() + mb.total_bytes())).abs() < 1e-3);
        prop_assert_eq!(merged.total_kernels(), ma.total_kernels() + mb.total_kernels());
    }

    // ---------- verification ----------

    #[test]
    fn verified_token_is_always_global_argmax(
        logits in finite_vec(32),
        cands in prop::collection::vec(0u32..32, 1..6),
    ) {
        if let Some(tok) = verify_exit(&logits, &cands) {
            prop_assert_eq!(Some(tok as usize), ops::argmax(&logits));
            prop_assert!(cands.contains(&tok));
        } else {
            let best = ops::argmax(&logits).unwrap() as u32;
            prop_assert!(!cands.contains(&best));
        }
    }

    // ---------- tree mapping ----------

    #[test]
    fn hyper_tokens_partition_leaves(n in 2usize..24, seed in 0u64..500) {
        // random topological parent links
        let mut rng = Pcg::seed(seed);
        let mut parents: Vec<Option<usize>> = vec![None];
        for i in 1..n {
            parents.push(if rng.chance(0.8) { Some(rng.below(i)) } else { None });
        }
        let hypers = hyper_tokens(&parents);
        // every path ends at a distinct leaf, starts at a root, and is
        // parent-linked
        let mut leaves = std::collections::HashSet::new();
        for h in &hypers {
            prop_assert!(parents[h.path[0]].is_none());
            for w in h.path.windows(2) {
                prop_assert_eq!(parents[w[1]], Some(w[0]));
            }
            prop_assert!(leaves.insert(*h.path.last().unwrap()));
        }
        // node count sanity: every node appears on at least one path
        let covered: std::collections::HashSet<usize> =
            hypers.iter().flat_map(|h| h.path.iter().copied()).collect();
        prop_assert_eq!(covered.len(), n);
    }

    #[test]
    fn cannikin_exit_is_max_of_path(firings in prop::collection::vec(0usize..32, 5)) {
        let parents = vec![None, Some(0), Some(0), Some(1), Some(2)];
        let mut st = TreeExitState::new(&parents);
        for (node, &layer) in firings.iter().enumerate() {
            st.note_fired(node, layer);
        }
        prop_assert!(st.all_ready());
        let exit0 = st.hyper_exit_layer(0).unwrap();
        prop_assert_eq!(exit0, firings[0].max(firings[1]).max(firings[3]));
    }

    // ---------- scheduler ----------

    #[test]
    fn online_scheduler_window_invariants(
        exits in prop::collection::vec(0usize..32, 1..64),
        window in 1usize..8,
        neighborhood in 0usize..4,
    ) {
        let mut s = OnlineScheduler::new(32, window, neighborhood);
        for &e in &exits {
            s.note_exit(e);
        }
        // active set is bounded by window * (2*neighborhood + 1)
        prop_assert!(s.active_count() <= window * (2 * neighborhood + 1));
        // the most recent exit's neighborhood is always active
        let last = *exits.last().unwrap();
        prop_assert!(s.is_active(last.min(31)));
    }

    // ---------- rng determinism ----------

    #[test]
    fn pcg_streams_reproduce(seed in 0u64..10_000) {
        let mut a = Pcg::seed(seed);
        let mut b = Pcg::seed(seed);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
