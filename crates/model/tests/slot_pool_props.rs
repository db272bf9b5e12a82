//! Property tests for the vllm-style KV page allocator: arbitrary
//! allocate/share/write/free churn never leaks or double-leases a page,
//! refcount-zero frees exactly once, and the occupancy/peak/sharing
//! statistics stay consistent with a reference model at every step.

use std::collections::HashMap;

use proptest::prelude::*;
use specee_model::{PrefixIndex, SlotPool};

proptest! {
    /// Drive the pool with a random op sequence against a reference set
    /// of live pages. Invariants checked after every op:
    ///
    /// * an allocated page is never handed out twice while leased,
    /// * `pages_in_use`/`tokens_in_use` track the live set exactly,
    /// * `pages_peak` is the true high-water mark,
    /// * `pages_created` never exceeds the peak (recycling before growth)
    ///   and always covers the live set.
    #[test]
    fn churn_never_leaks_or_double_frees(
        ops in prop::collection::vec((0u8..4, 0u8..255), 1..240),
        page_size in 1usize..32,
    ) {
        let mut pool = SlotPool::new(page_size);
        let mut live: Vec<usize> = Vec::new();
        let mut peak = 0usize;
        for (op, sel) in ops {
            // op 0..3 → allocate (alloc-biased so pools grow), 3 → free.
            if op < 3 || live.is_empty() {
                let page = pool.alloc_page();
                prop_assert!(
                    !live.contains(&page),
                    "page {} double-leased (live: {:?})", page, live
                );
                prop_assert!(
                    page < pool.pages_created(),
                    "page id {} out of range {}", page, pool.pages_created()
                );
                live.push(page);
            } else {
                let idx = sel as usize % live.len();
                let page = live.swap_remove(idx);
                pool.free_page(page);
            }
            peak = peak.max(live.len());
            prop_assert_eq!(pool.pages_in_use(), live.len());
            prop_assert_eq!(pool.tokens_in_use(), live.len() * page_size);
            prop_assert_eq!(pool.pages_peak(), peak);
            prop_assert!(pool.pages_created() >= live.len());
            prop_assert!(
                pool.pages_created() <= peak,
                "pool grew to {} pages but only {} were ever simultaneously live",
                pool.pages_created(), peak
            );
        }

        // Full teardown: every live page frees exactly once, and the pool
        // ends empty with its statistics intact.
        for page in live.drain(..) {
            pool.free_page(page);
        }
        prop_assert_eq!(pool.pages_in_use(), 0);
        prop_assert_eq!(pool.tokens_in_use(), 0);
        prop_assert_eq!(pool.pages_peak(), peak);

        // Draining left every created page on the free list: re-leasing
        // the whole backing store recycles ids without growing the pool.
        let created = pool.pages_created();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..created {
            prop_assert!(seen.insert(pool.alloc_page()), "recycled id repeated");
        }
        prop_assert_eq!(pool.pages_created(), created, "no growth while recycling");
        prop_assert_eq!(pool.pages_in_use(), created);
    }

    /// Copy-on-write churn: random admit (alloc), fork (share), write
    /// (cow) and free ops against a reference refcount map. Invariants
    /// checked after every op:
    ///
    /// * every per-page reference count matches the reference exactly,
    /// * `shared_pages ≤ pages_in_use` (a shared page is one physical
    ///   page, never more),
    /// * `logical_pages_in_use` is the exact lease count (sum of refs),
    /// * a page returns to the free list exactly when its count reaches
    ///   zero — never before (no premature recycling), never twice,
    /// * the peak tracks *physical* residency only: forking never moves
    ///   it, and a freed-then-regrown block counts once.
    #[test]
    fn cow_churn_upholds_refcount_invariants(
        ops in prop::collection::vec((0u8..8, 0u8..255), 1..300),
        page_size in 1usize..32,
    ) {
        let mut pool = SlotPool::new(page_size);
        let mut refs: HashMap<usize, u32> = HashMap::new();
        let mut peak = 0usize;
        let mut cows = 0u64;
        for (op, sel) in ops {
            let pick = |refs: &HashMap<usize, u32>, sel: u8| {
                let mut pages: Vec<usize> = refs.keys().copied().collect();
                pages.sort_unstable();
                pages[sel as usize % pages.len()]
            };
            match op {
                // admit: lease a fresh page.
                0..=2 => {
                    let page = pool.alloc_page();
                    prop_assert!(
                        !refs.contains_key(&page),
                        "page {} handed out while still leased", page
                    );
                    refs.insert(page, 1);
                }
                // fork: a new sequence co-leases a live page read-only.
                3..=4 if !refs.is_empty() => {
                    let page = pick(&refs, sel);
                    pool.share_page(page);
                    *refs.get_mut(&page).expect("picked live") += 1;
                }
                // write: copy-on-write a live page (first divergent
                // write by one of its lessees).
                5 if !refs.is_empty() => {
                    let page = pick(&refs, sel);
                    // Reference: drop our lease first (the pool may
                    // recycle the very page we diverged from).
                    let count = refs.get_mut(&page).expect("picked live");
                    *count -= 1;
                    if *count == 0 {
                        refs.remove(&page);
                    }
                    let fresh = pool.cow_page(page);
                    cows += 1;
                    prop_assert!(
                        !refs.contains_key(&fresh),
                        "cow copy {} collides with a live page", fresh
                    );
                    refs.insert(fresh, 1);
                }
                // free: drop one lease; refcount zero frees exactly once.
                _ if !refs.is_empty() => {
                    let page = pick(&refs, sel);
                    pool.free_page(page);
                    let count = refs.get_mut(&page).expect("picked live");
                    *count -= 1;
                    if *count == 0 {
                        refs.remove(&page);
                    }
                }
                // empty pool: fall back to an admit so churn continues.
                _ => {
                    let page = pool.alloc_page();
                    refs.insert(page, 1);
                }
            }
            peak = peak.max(refs.len());
            for (&page, &count) in &refs {
                prop_assert_eq!(pool.ref_count(page), count);
            }
            prop_assert_eq!(pool.pages_in_use(), refs.len());
            prop_assert_eq!(
                pool.logical_pages_in_use(),
                refs.values().map(|&c| c as usize).sum::<usize>()
            );
            let shared = refs.values().filter(|&&c| c >= 2).count();
            prop_assert_eq!(pool.shared_pages(), shared);
            prop_assert!(
                pool.shared_pages() <= pool.pages_in_use(),
                "shared pages {} exceed physical pages {}",
                pool.shared_pages(), pool.pages_in_use()
            );
            prop_assert_eq!(pool.pages_peak(), peak, "peak must track physical residency");
            prop_assert_eq!(pool.cow_copies(), cows);
        }

        // Teardown: dropping every remaining lease frees each page
        // exactly once (refcount zero) and empties the pool.
        let remaining: Vec<(usize, u32)> = refs.drain().collect();
        for (page, count) in remaining {
            for _ in 0..count {
                pool.free_page(page);
            }
            prop_assert_eq!(pool.ref_count(page), 0);
        }
        prop_assert_eq!(pool.pages_in_use(), 0);
        prop_assert_eq!(pool.logical_pages_in_use(), 0);
        prop_assert_eq!(pool.shared_pages(), 0);
        prop_assert_eq!(pool.pages_peak(), peak);
    }

    /// Prefix-index lifecycle: register a random set of prompts (each
    /// backed by its own freshly leased pages), then unregister in a
    /// shuffled order while releasing the backing leases. The index must
    /// answer every registered prompt with all of its full pages while
    /// registered, pin pages only while at least one registrant remains,
    /// and leave the pool completely drained at the end.
    #[test]
    fn prefix_index_register_unregister_never_leaks(
        prompts in prop::collection::vec(
            prop::collection::vec(0u32..4, 1..20), 1..12),
        order_seed in 0u64..1000,
        page_size in 1usize..5,
    ) {
        let mut pool = SlotPool::new(page_size);
        let mut index = PrefixIndex::new(page_size);
        // Admit: lease pages for each prompt privately, then register
        // its full chunks (exactly what `PageLedger::lease`
        // does for the non-matching part of a prompt).
        let mut leases: Vec<(Vec<u32>, Vec<usize>)> = Vec::new();
        for prompt in &prompts {
            let n_pages = prompt.len().div_ceil(page_size);
            let pages: Vec<usize> = (0..n_pages).map(|_| pool.alloc_page()).collect();
            let n_full = prompt.len() / page_size;
            index.register(prompt, &pages[..n_full], &mut pool);
            leases.push((prompt.clone(), pages));
        }
        for (prompt, _) in &leases {
            let (full, _) = index.matched(prompt);
            prop_assert_eq!(
                full.len(), prompt.len() / page_size,
                "registered prompt must match all of its full chunks"
            );
        }
        prop_assert!(pool.shared_pages() <= pool.pages_in_use());

        // Evict in a deterministic shuffled order.
        let mut order: Vec<usize> = (0..leases.len()).collect();
        order.sort_by_key(|&i| (i as u64).wrapping_mul(2654435761).rotate_left((order_seed % 63) as u32));
        for &i in &order {
            let (prompt, pages) = &leases[i];
            index.unregister(prompt, &mut pool);
            for &page in pages {
                pool.free_page(page);
            }
        }
        prop_assert_eq!(index.nodes(), 0, "all registrations pruned");
        prop_assert_eq!(pool.pages_in_use(), 0, "pool drained");
        prop_assert_eq!(pool.logical_pages_in_use(), 0);
    }
}
