//! The batched forward path: per-slot sequences swept through a shared
//! layer loop, backed by a paged-KV memory plane.
//!
//! A served batch runs N independent sequences in lock-step: one shared
//! sweep over the decoder layers in which each sequence participates only
//! while it still needs the layer (its *active mask*). Every slot keeps
//! its own KV state — the per-layer [`crate::KvCache`]s of its
//! [`LayeredLm`] instance — while page occupancy across slots is tracked
//! by a vllm-style [`SlotPool`] whose freed blocks are recycled when a
//! sequence retires.
//!
//! The pool is a *refcounted* page allocator: a page may be leased by
//! several sequences at once (copy-on-write prefix sharing), and an
//! optional capacity turns exhaustion into a checkable condition instead
//! of unbounded growth, which is what makes preemption in the batched
//! engine possible. Prefix sharing is driven by a [`PrefixIndex`] — a
//! radix-style tree over whole-page prompt chunks — consulted at
//! admission: a new sequence's prompt is matched against resident
//! prefixes and the matching pages are leased read-only, with a private
//! copy made only on the first divergent write
//! (see [`BatchedStack::admit_shared`]). The leases are a ledger — every
//! sequence keeps private K/V — but the compute is saved:
//! [`BatchedStack::prefix_donor`] names a resident that already holds the
//! matched pages' rows, for the engine to copy instead of prefilling.
//!
//! [`BatchedStack`] is the substrate the `specee-batch` engine drives: it
//! owns the slot models, leases KV pages on their behalf, and exposes the
//! masked layer sweep ([`BatchedStack::sweep_layer`]) whose per-layer
//! runner counts are exactly the quantity batched pricing needs (a layer's
//! weights stream once for the whole batch if *any* slot runs it — the
//! Cannikin effect measured live by the batched engine).

use specee_metrics::Meter;

use crate::attention::TreeKv;
use crate::kv::SkipKvPolicy;
use crate::traits::LayeredLm;

/// A pool of fixed-size KV pages shared by every slot of a batch.
///
/// Pages are identified by index; freed pages go to a free list and are
/// handed out again before the pool grows (the block-allocator recycling
/// of vllm's PagedAttention). One page holds `page_size` token positions
/// of per-layer K/V for the whole decoder stack.
///
/// Every live page carries a reference count: [`SlotPool::alloc_page`]
/// hands out a page with one reference, [`SlotPool::share_page`] adds a
/// reader (copy-on-write prefix sharing), and [`SlotPool::free_page`]
/// drops one reference — the page returns to the free list exactly when
/// its count reaches zero. Physical statistics ([`SlotPool::pages_in_use`],
/// [`SlotPool::pages_peak`]) count each resident page once no matter how
/// many sequences lease it; [`SlotPool::logical_pages_in_use`] counts
/// leases, so `logical − physical` is the occupancy saved by sharing.
///
/// # Examples
///
/// ```
/// use specee_model::batch::SlotPool;
///
/// let mut pool = SlotPool::new(16);
/// let a = pool.alloc_page();
/// let b = pool.alloc_page();
/// pool.free_page(a);
/// assert_eq!(pool.alloc_page(), a); // recycled, not grown
/// assert_eq!(pool.pages_created(), 2);
///
/// // Copy-on-write sharing: two leases, one physical page.
/// pool.share_page(b);
/// assert_eq!(pool.shared_pages(), 1);
/// assert_eq!(pool.logical_pages_in_use(), 3);
/// assert_eq!(pool.pages_in_use(), 2);
/// pool.free_page(b); // drop one reader; the page stays resident
/// assert_eq!(pool.pages_in_use(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotPool {
    page_size: usize,
    free: Vec<usize>,
    /// Reference count per created page (`0` = on the free list).
    refs: Vec<u32>,
    /// Physical pages with at least one reference.
    in_use: usize,
    /// Total references across pages (lease count).
    logical: usize,
    /// Physical pages with two or more references.
    shared: usize,
    peak: usize,
    /// Physical-page ceiling; `None` grows without bound.
    capacity: Option<usize>,
    cow_copies: u64,
}

impl SlotPool {
    /// Creates an empty pool of `page_size`-token pages.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is zero.
    pub fn new(page_size: usize) -> Self {
        assert!(page_size > 0, "page_size must be positive");
        SlotPool {
            page_size,
            free: Vec::new(),
            refs: Vec::new(),
            in_use: 0,
            logical: 0,
            shared: 0,
            peak: 0,
            capacity: None,
            cow_copies: 0,
        }
    }

    /// Tokens per page.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Caps the pool at `capacity` physical pages (`None` removes the
    /// cap). With a cap in place, [`SlotPool::try_alloc_page`] returns
    /// `None` at the ceiling and [`SlotPool::alloc_page`] panics — the
    /// condition the batched engine turns into preemption.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is `Some(0)`.
    pub fn set_capacity(&mut self, capacity: Option<usize>) {
        assert!(capacity != Some(0), "page capacity must be positive");
        self.capacity = capacity;
    }

    /// The physical-page ceiling, if one is set.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Physical pages still allocatable before the ceiling
    /// (`usize::MAX` when uncapped).
    pub fn available_pages(&self) -> usize {
        self.capacity
            .map_or(usize::MAX, |c| c.saturating_sub(self.in_use))
    }

    /// Hands out a page id, preferring recycled pages over growth.
    ///
    /// # Panics
    ///
    /// Panics if a capacity is set and every physical page is resident.
    pub fn alloc_page(&mut self) -> usize {
        self.try_alloc_page().unwrap_or_else(|| {
            panic!(
                "page pool exhausted ({} pages resident at capacity {:?})",
                self.in_use, self.capacity
            )
        })
    }

    /// Hands out a page id, or `None` if the pool is at capacity.
    pub fn try_alloc_page(&mut self) -> Option<usize> {
        if self.available_pages() == 0 {
            return None;
        }
        let page = self.free.pop().unwrap_or_else(|| {
            self.refs.push(0);
            self.refs.len() - 1
        });
        debug_assert_eq!(self.refs[page], 0, "free page has live references");
        self.refs[page] = 1;
        self.in_use += 1;
        self.logical += 1;
        // Peak tracks *physical* residency and moves only when a page
        // transitions free→resident, so a block freed and regrown within
        // the same step counts once (regression: the old stat path could
        // double-count it), and share/release cycles never move it.
        self.peak = self.peak.max(self.in_use);
        Some(page)
    }

    /// Adds a reference to a resident page: the caller becomes a
    /// read-only co-lessee (copy-on-write sharing). Balance with one
    /// [`SlotPool::free_page`] per share.
    ///
    /// # Panics
    ///
    /// Panics if the page was never allocated or is currently free.
    pub fn share_page(&mut self, page: usize) {
        assert!(page < self.refs.len(), "page {page} was never allocated");
        assert!(self.refs[page] > 0, "page {page} is free, cannot share");
        self.refs[page] += 1;
        self.logical += 1;
        if self.refs[page] == 2 {
            self.shared += 1;
        }
    }

    /// Drops one reference; the page returns to the free list exactly
    /// when the last reference is dropped.
    ///
    /// # Panics
    ///
    /// Panics if the page was never allocated or has no live references
    /// (a double free).
    pub fn free_page(&mut self, page: usize) {
        assert!(page < self.refs.len(), "page {page} was never allocated");
        assert!(self.refs[page] > 0, "page {page} double-freed");
        if self.refs[page] == 2 {
            self.shared -= 1;
        }
        self.refs[page] -= 1;
        self.logical -= 1;
        if self.refs[page] == 0 {
            self.free.push(page);
            self.in_use -= 1;
        }
    }

    /// Copy-on-write: drops the caller's reference on shared `page` and
    /// hands back a fresh private page for the diverging copy. Counted
    /// in [`SlotPool::cow_copies`].
    ///
    /// # Panics
    ///
    /// Panics like [`SlotPool::free_page`] / [`SlotPool::alloc_page`].
    pub fn cow_page(&mut self, page: usize) -> usize {
        self.free_page(page);
        let fresh = self.alloc_page();
        self.cow_copies += 1;
        fresh
    }

    /// Live references on `page` (`0` = free).
    ///
    /// # Panics
    ///
    /// Panics if the page was never allocated.
    pub fn ref_count(&self, page: usize) -> u32 {
        assert!(page < self.refs.len(), "page {page} was never allocated");
        self.refs[page]
    }

    /// Physical pages currently resident (each counted once, however
    /// many sequences lease it).
    pub fn pages_in_use(&self) -> usize {
        self.in_use
    }

    /// Total leases across resident pages; `logical − physical` is the
    /// occupancy saved by copy-on-write sharing.
    pub fn logical_pages_in_use(&self) -> usize {
        self.logical
    }

    /// Resident pages with two or more lessees. Always
    /// `≤ pages_in_use()`.
    pub fn shared_pages(&self) -> usize {
        self.shared
    }

    /// Private copies made on first divergent write
    /// ([`SlotPool::cow_page`]).
    pub fn cow_copies(&self) -> u64 {
        self.cow_copies
    }

    /// Distinct pages ever created (the pool's backing-store size).
    pub fn pages_created(&self) -> usize {
        self.refs.len()
    }

    /// Peak simultaneous *physical* residency (the memory high-water
    /// mark). Sharing the same page many times does not move it.
    pub fn pages_peak(&self) -> usize {
        self.peak
    }

    /// Token capacity currently resident (`pages_in_use × page_size`).
    pub fn tokens_in_use(&self) -> usize {
        self.in_use * self.page_size
    }

    /// A point-in-time snapshot of the pool's statistics.
    pub fn stats(&self) -> KvStats {
        KvStats {
            pages_in_use: self.in_use,
            logical_pages: self.logical,
            shared_pages: self.shared,
            pages_peak: self.peak,
            pages_created: self.refs.len(),
            cow_copies: self.cow_copies,
            capacity: self.capacity,
        }
    }
}

/// A point-in-time snapshot of a [`SlotPool`]'s occupancy statistics,
/// carried by worker snapshots, reports and the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KvStats {
    /// Physical pages resident.
    pub pages_in_use: usize,
    /// Leases across resident pages (≥ `pages_in_use`).
    pub logical_pages: usize,
    /// Resident pages with two or more lessees.
    pub shared_pages: usize,
    /// Peak physical residency over the pool's lifetime.
    pub pages_peak: usize,
    /// Distinct pages ever created.
    pub pages_created: usize,
    /// Copy-on-write copies performed.
    pub cow_copies: u64,
    /// Physical-page ceiling, if one is set.
    pub capacity: Option<usize>,
}

/// One page of a slot's lease: the page id plus whether the slot is a
/// read-only co-lessee (shared via the prefix index) or the sole owner.
#[derive(Debug, Clone, Copy)]
struct PageRef {
    page: usize,
    shared: bool,
}

/// The pages one slot currently leases from the pool, in position order:
/// `pages[p]` covers token positions `[p·page_size, (p+1)·page_size)`.
#[derive(Debug, Clone, Default)]
struct SlotLease {
    pages: Vec<PageRef>,
    /// Committed token positions the lease covers.
    tokens: usize,
}

impl SlotLease {
    /// Grows the lease until it covers `tokens` positions, performing
    /// copy-on-write on any shared page the new writes touch (the first
    /// divergent write to a shared prefix page copies it).
    fn grow(&mut self, pool: &mut SlotPool, tokens: usize) {
        if tokens <= self.tokens {
            return;
        }
        let ps = pool.page_size();
        let first_write = self.tokens / ps;
        let last_write = (tokens - 1) / ps;
        for p in first_write..=last_write {
            if p < self.pages.len() {
                if self.pages[p].shared {
                    let fresh = pool.cow_page(self.pages[p].page);
                    self.pages[p] = PageRef {
                        page: fresh,
                        shared: false,
                    };
                }
            } else {
                self.pages.push(PageRef {
                    page: pool.alloc_page(),
                    shared: false,
                });
            }
        }
        self.tokens = tokens;
    }

    /// Fresh physical allocations growing to `tokens` would trigger
    /// (new pages plus copy-on-write copies), without performing them.
    fn pages_needed_for(&self, page_size: usize, tokens: usize) -> usize {
        if tokens <= self.tokens {
            return 0;
        }
        let first_write = self.tokens / page_size;
        let last_write = (tokens - 1) / page_size;
        (first_write..=last_write)
            .filter(|&p| p >= self.pages.len() || self.pages[p].shared)
            .count()
    }

    /// Returns every leased page to the pool (shared pages drop one
    /// reference; sole-owned pages are freed).
    fn release(&mut self, pool: &mut SlotPool) {
        for page_ref in self.pages.drain(..) {
            pool.free_page(page_ref.page);
        }
        self.tokens = 0;
    }
}

/// A radix-style index over resident prompt prefixes, in whole-page
/// chunks.
///
/// Each node pins one *immutable* page: a page a resident sequence's
/// prompt filled completely (decode never rewrites committed prefix KV,
/// so full prompt pages are safe to share; partial tail pages, which
/// decode appends into, are never registered). The index holds its own
/// reference on every node's page, so a registered prefix stays
/// matchable while any registrant is resident even if the sequence that
/// first brought the page in has since retired.
///
/// At admission, [`PrefixIndex::matched`] returns the longest chain of
/// whole-page chunk matches plus, when the remainder of the prompt is a
/// prefix of some resident chunk at the next level, that page as a
/// *tail* match — the new sequence leases it read-only and copies it on
/// its first divergent write (when decode commits into the page).
///
/// # Examples
///
/// ```
/// use specee_model::batch::{PrefixIndex, SlotPool};
///
/// let mut pool = SlotPool::new(4);
/// let mut index = PrefixIndex::new(4);
/// // A resident sequence with prompt [1,2,3,4, 5,6,7,8] registers its
/// // two full pages.
/// let pages = [pool.alloc_page(), pool.alloc_page()];
/// index.register(&[1, 2, 3, 4, 5, 6, 7, 8], &pages, &mut pool);
/// // A newcomer sharing the first page and diverging inside the second
/// // matches one full chunk and the second page as a tail.
/// let (full, tail) = index.matched(&[1, 2, 3, 4, 5, 6]);
/// assert_eq!(full, vec![pages[0]]);
/// assert_eq!(tail, Some(pages[1]));
/// ```
#[derive(Debug, Clone, Default)]
pub struct PrefixIndex {
    page_size: usize,
    roots: Vec<PrefixNode>,
}

#[derive(Debug, Clone)]
struct PrefixNode {
    /// Exactly `page_size` tokens: the page's committed content.
    chunk: Vec<u32>,
    page: usize,
    /// Resident sequences registered through this node.
    leases: usize,
    children: Vec<PrefixNode>,
}

impl PrefixIndex {
    /// An empty index over `page_size`-token chunks.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is zero.
    pub fn new(page_size: usize) -> Self {
        assert!(page_size > 0, "page_size must be positive");
        PrefixIndex {
            page_size,
            roots: Vec::new(),
        }
    }

    /// The pages of `prompt`'s longest resident prefix: full whole-page
    /// chunk matches in position order, plus at most one *tail* page
    /// whose registered chunk begins with the prompt's remainder.
    pub fn matched(&self, prompt: &[u32]) -> (Vec<usize>, Option<usize>) {
        let ps = self.page_size;
        let mut full = Vec::new();
        let mut children = &self.roots;
        let mut complete = true;
        for chunk in prompt.chunks_exact(ps) {
            match children.iter().find(|c| c.chunk == chunk) {
                Some(node) => {
                    full.push(node.page);
                    children = &node.children;
                }
                None => {
                    complete = false;
                    break;
                }
            }
        }
        let rem = &prompt[(full.len() * ps).min(prompt.len())..];
        let tail = (complete && !rem.is_empty())
            .then(|| {
                children
                    .iter()
                    .find(|c| c.chunk.starts_with(rem))
                    .map(|c| c.page)
            })
            .flatten();
        (full, tail)
    }

    /// Registers a resident sequence's full prompt pages: one page per
    /// whole-page chunk of `prompt` (the partial tail, if any, is never
    /// registered). Chunks already indexed gain a lease; new chunks pin
    /// `pages[i]` with an index-owned reference taken from `pool`.
    ///
    /// # Panics
    ///
    /// Panics if `pages` has fewer entries than `prompt` has whole-page
    /// chunks.
    pub fn register(&mut self, prompt: &[u32], pages: &[usize], pool: &mut SlotPool) {
        let ps = self.page_size;
        let n_full = prompt.len() / ps;
        assert!(pages.len() >= n_full, "one page per whole-page chunk");
        let mut children = &mut self.roots;
        for (i, chunk) in prompt.chunks_exact(ps).enumerate() {
            let idx = match children.iter().position(|c| c.chunk == chunk) {
                Some(j) => {
                    children[j].leases += 1;
                    j
                }
                None => {
                    pool.share_page(pages[i]);
                    children.push(PrefixNode {
                        chunk: chunk.to_vec(),
                        page: pages[i],
                        leases: 1,
                        children: Vec::new(),
                    });
                    children.len() - 1
                }
            };
            children = &mut children[idx].children;
        }
    }

    /// Releases one registration of `prompt` (the reverse of
    /// [`PrefixIndex::register`]); nodes whose last registrant leaves
    /// are pruned and their index-owned page references returned to the
    /// pool.
    ///
    /// # Panics
    ///
    /// Panics if `prompt` was not registered.
    pub fn unregister(&mut self, prompt: &[u32], pool: &mut SlotPool) {
        fn walk(children: &mut Vec<PrefixNode>, chunks: &[&[u32]], pool: &mut SlotPool) {
            let Some((chunk, rest)) = chunks.split_first() else {
                return;
            };
            let j = children
                .iter()
                .position(|c| c.chunk == *chunk)
                .expect("unregister of a prefix that was never registered");
            children[j].leases -= 1;
            walk(&mut children[j].children, rest, pool);
            if children[j].leases == 0 {
                let node = children.swap_remove(j);
                release_subtree(node, pool);
            }
        }
        fn release_subtree(node: PrefixNode, pool: &mut SlotPool) {
            pool.free_page(node.page);
            for child in node.children {
                release_subtree(child, pool);
            }
        }
        let chunks: Vec<&[u32]> = prompt.chunks_exact(self.page_size).collect();
        walk(&mut self.roots, &chunks, pool);
    }

    /// Registered chunks currently indexed (tree node count).
    pub fn nodes(&self) -> usize {
        fn count(children: &[PrefixNode]) -> usize {
            children.iter().map(|c| 1 + count(&c.children)).sum()
        }
        count(&self.roots)
    }
}

struct Slot<M> {
    model: M,
    lease: SlotLease,
    /// The prompt registered with the prefix index (for unregistration
    /// at retirement); `None` when admitted without sharing.
    registered: Option<Vec<u32>>,
}

/// A fixed number of sequence slots stepped through a shared layer sweep.
///
/// Each occupied slot holds one [`LayeredLm`] instance — its own KV cache,
/// its own committed context — admitted by [`BatchedStack::admit`] and
/// recycled by [`BatchedStack::retire`]. The slot's KV footprint is leased
/// from the shared [`SlotPool`] and returned on retirement, so a
/// long-running server reuses freed blocks instead of growing without
/// bound. With prefix sharing enabled
/// ([`BatchedStack::enable_prefix_share`]), admission matches the prompt
/// against resident prefixes and co-leases matching pages copy-on-write.
///
/// # Examples
///
/// ```
/// use specee_metrics::Meter;
/// use specee_model::batch::BatchedStack;
/// use specee_model::{prefill, LayeredLm, ModelConfig, Transformer};
/// use specee_tensor::rng::Pcg;
///
/// let cfg = ModelConfig::tiny();
/// let mut stack: BatchedStack<Transformer> = BatchedStack::new(2, 16);
/// let mut meter = Meter::new();
/// let mut m = Transformer::random(cfg.clone(), &mut Pcg::seed(1));
/// prefill(&mut m, &[1, 2, 3], &mut meter);
/// let slot = stack.admit(m);
/// assert_eq!(stack.occupancy(), 1);
/// assert!(stack.pool().pages_in_use() > 0);
/// let _ = stack.retire(slot);
/// assert_eq!(stack.pool().pages_in_use(), 0);
/// ```
pub struct BatchedStack<M> {
    slots: Vec<Option<Slot<M>>>,
    pool: SlotPool,
    index: Option<PrefixIndex>,
}

/// `values[slot]` of every slot `active` marks, in slot order.
fn packed<'a, T: Copy>(active: &'a [bool], values: &'a [T]) -> impl Iterator<Item = T> + 'a {
    let marked = active.iter().zip(values).filter(|(&on, _)| on);
    marked.map(|(_, &value)| value)
}

impl<M: LayeredLm> BatchedStack<M> {
    /// Creates `max_batch` empty slots over a fresh page pool.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero (page-size validation is
    /// [`SlotPool::new`]'s).
    pub fn new(max_batch: usize, page_size: usize) -> Self {
        assert!(max_batch > 0, "max_batch must be positive");
        BatchedStack {
            slots: (0..max_batch).map(|_| None).collect(),
            pool: SlotPool::new(page_size),
            index: None,
        }
    }

    /// Number of slots (the batch cap).
    pub fn max_batch(&self) -> usize {
        self.slots.len()
    }

    /// Number of occupied slots.
    pub fn occupancy(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// The lowest free slot index, if any.
    pub fn free_slot(&self) -> Option<usize> {
        self.slots.iter().position(|s| s.is_none())
    }

    /// Caps the page pool at `capacity` physical pages (`None` uncaps).
    /// See [`SlotPool::set_capacity`].
    pub fn set_page_capacity(&mut self, capacity: Option<usize>) {
        self.pool.set_capacity(capacity);
    }

    /// Turns copy-on-write prefix sharing on or off. Subsequent
    /// [`BatchedStack::admit_shared`] calls match and register prompts;
    /// plain [`BatchedStack::admit`] is unaffected.
    ///
    /// # Panics
    ///
    /// Panics if any slot is occupied (toggling mid-flight would orphan
    /// index-held page references).
    pub fn enable_prefix_share(&mut self, on: bool) {
        assert_eq!(
            self.occupancy(),
            0,
            "prefix sharing can only be toggled on an empty stack"
        );
        self.index = on.then(|| PrefixIndex::new(self.pool.page_size()));
    }

    /// Whether prefix sharing is enabled.
    pub fn prefix_sharing(&self) -> bool {
        self.index.is_some()
    }

    /// Seats `model` in the lowest free slot, leasing pages for its
    /// already-committed KV (the prefilled prompt), and returns the slot
    /// index.
    ///
    /// # Panics
    ///
    /// Panics if every slot is occupied — check [`BatchedStack::free_slot`]
    /// first — or the page pool is at capacity.
    pub fn admit(&mut self, model: M) -> usize {
        let slot = self.free_slot().expect("no free slot");
        let mut lease = SlotLease::default();
        lease.grow(&mut self.pool, model.kv_len());
        self.slots[slot] = Some(Slot {
            model,
            lease,
            registered: None,
        });
        slot
    }

    /// Seats `model` like [`BatchedStack::admit`], additionally matching
    /// `prompt` (the tokens whose KV the model has committed) against the
    /// prefix index: matching whole pages are co-leased read-only instead
    /// of allocated, a matching tail page is co-leased copy-on-write, and
    /// the prompt's own full pages are registered for later arrivals.
    /// Falls back to a private lease when sharing is disabled.
    ///
    /// # Panics
    ///
    /// Panics like [`BatchedStack::admit`], or if `prompt.len()` differs
    /// from the model's committed KV length.
    pub fn admit_shared(&mut self, model: M, prompt: &[u32]) -> usize {
        let Some(mut index) = self.index.take() else {
            return self.admit(model);
        };
        let slot = self.free_slot().expect("no free slot");
        let kv = model.kv_len();
        assert_eq!(
            prompt.len(),
            kv,
            "admit_shared: model KV must cover exactly the prompt"
        );
        let ps = self.pool.page_size();
        let (full, tail) = index.matched(prompt);
        let mut lease = SlotLease::default();
        for &page in &full {
            self.pool.share_page(page);
            lease.pages.push(PageRef { page, shared: true });
        }
        lease.tokens = full.len() * ps;
        if let Some(page) = tail {
            self.pool.share_page(page);
            lease.pages.push(PageRef { page, shared: true });
            lease.tokens = kv;
        }
        // Private pages for whatever the index did not cover.
        lease.grow(&mut self.pool, kv);
        let full_pages: Vec<usize> = lease.pages[..kv / ps].iter().map(|r| r.page).collect();
        index.register(prompt, &full_pages, &mut self.pool);
        self.index = Some(index);
        self.slots[slot] = Some(Slot {
            model,
            lease,
            registered: Some(prompt.to_vec()),
        });
        slot
    }

    /// A resident sequence whose prompt K/V a newcomer with this `prompt`
    /// could adopt ([`LayeredLm::adopt_prefix`]) instead of recomputing:
    /// `(slot, tokens)` — the longest chain of whole prompt pages the
    /// index matches, and a slot registered under a prompt that begins
    /// with those `tokens` (one exists while the chain does: a node lives
    /// as long as a registrant). `None` without sharing or without a match.
    pub fn prefix_donor(&self, prompt: &[u32]) -> Option<(usize, usize)> {
        let pages = self.index.as_ref()?.matched(prompt).0.len();
        let shared = &prompt[..pages * self.pool.page_size()];
        if shared.is_empty() {
            return None;
        }
        let slot = self.slots.iter().position(|s| {
            let registered = s.as_ref().and_then(|s| s.registered.as_deref());
            registered.is_some_and(|p| p.starts_with(shared))
        })?;
        Some((slot, shared.len()))
    }

    /// Fresh physical pages admitting a sequence with this `prompt`
    /// would allocate, accounting for prefix-index matches. Compare with
    /// [`SlotPool::available_pages`] to gate admission under a capacity.
    pub fn pages_for_admit(&self, prompt: &[u32]) -> usize {
        let ps = self.pool.page_size();
        let total = prompt.len().div_ceil(ps);
        let matched = self.index.as_ref().map_or(0, |index| {
            let (full, tail) = index.matched(prompt);
            full.len() + usize::from(tail.is_some())
        });
        total - matched
    }

    /// Fresh physical pages the next decode step could allocate
    /// (boundary crossings plus pending copy-on-write copies) when
    /// resident `slot` grows by at most `extra[slot]` committed tokens:
    /// one for a plain step, up to `1 + tree depth` for a self-draft
    /// step. The batched engine preempts until this fits
    /// [`SlotPool::available_pages`].
    ///
    /// # Panics
    ///
    /// Panics if `extra` doesn't cover every slot.
    pub fn next_step_page_demand_for(&self, extra: &[usize]) -> usize {
        assert_eq!(extra.len(), self.slots.len(), "one growth bound per slot");
        let ps = self.pool.page_size();
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(slot, seat)| {
                seat.as_ref()
                    .map(|s| s.lease.pages_needed_for(ps, s.model.kv_len() + extra[slot]))
            })
            .sum()
    }

    /// Empties `slot`, returning its pages to the pool (and its prefix
    /// registration to the index) and its model to the caller.
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant.
    pub fn retire(&mut self, slot: usize) -> M {
        let mut s = self.slots[slot].take().expect("slot is vacant");
        if let (Some(index), Some(prompt)) = (self.index.as_mut(), s.registered.take()) {
            index.unregister(&prompt, &mut self.pool);
        }
        s.lease.release(&mut self.pool);
        s.model
    }

    /// Borrows the model seated in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant.
    pub fn model(&self, slot: usize) -> &M {
        &self.slots[slot].as_ref().expect("slot is vacant").model
    }

    /// Mutably borrows the model seated in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant.
    pub fn model_mut(&mut self, slot: usize) -> &mut M {
        &mut self.slots[slot].as_mut().expect("slot is vacant").model
    }

    /// The models seated in the slots `active` marks, mutably and in slot
    /// order, each with its hidden state — the member lists of the
    /// [`LayeredLm`] group calls.
    ///
    /// # Panics
    ///
    /// Panics if the mask or the states don't cover every slot, or an
    /// active slot is vacant or missing its hidden state.
    fn group<'a>(
        &'a mut self,
        hidden: &'a [Option<Vec<f32>>],
        active: &[bool],
    ) -> (Vec<&'a mut M>, Vec<&'a [f32]>) {
        assert_eq!(hidden.len(), self.slots.len(), "one hidden state per slot");
        assert_eq!(active.len(), self.slots.len(), "one mask bit per slot");
        let n = active.iter().filter(|&&a| a).count();
        let (mut group, mut hs) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for (slot, seat) in self.slots.iter_mut().enumerate() {
            if active[slot] {
                group.push(&mut seat.as_mut().expect("active slot is vacant").model);
                hs.push(hidden[slot].as_deref().expect("active slot has no state"));
            }
        }
        (group, hs)
    }

    /// The shared layer sweep: runs decoder layer `layer` on every slot
    /// whose `active` bit is set — as one
    /// [`LayeredLm::forward_layer_group`] call, so seats sharing weights
    /// take one pass over them — replacing `hidden[slot]` in place, and
    /// returns the number of runners. `positions[slot]` is the KV position
    /// the slot's pending token occupies.
    ///
    /// # Panics
    ///
    /// Panics if the mask or state slices don't cover every slot, or an
    /// active slot is vacant or missing its hidden state.
    pub fn sweep_layer(
        &mut self,
        layer: usize,
        hidden: &mut [Option<Vec<f32>>],
        active: &[bool],
        positions: &[usize],
        meter: &mut Meter,
    ) -> usize {
        assert_eq!(positions.len(), self.slots.len(), "one position per slot");
        let at: Vec<usize> = packed(active, positions).collect();
        let (mut group, hs) = self.group(hidden, active);
        let outs = M::forward_layer_group(&mut group, layer, &hs, &at, meter);
        let runners = outs.len();
        for (slot, out) in (0..active.len()).filter(|&s| active[s]).zip(outs) {
            hidden[slot] = Some(out);
        }
        runners
    }

    /// The full LM head over `hidden[slot]` of every slot whose `active`
    /// bit is set — as one [`LayeredLm::final_logits_group`] call, so
    /// seats sharing weights take one pass over the head. Logits come
    /// back in slot order, one row per active slot.
    ///
    /// # Panics
    ///
    /// Panics like [`BatchedStack::sweep_layer`].
    pub fn final_logits(
        &mut self,
        hidden: &[Option<Vec<f32>>],
        active: &[bool],
        meter: &mut Meter,
    ) -> Vec<Vec<f32>> {
        let (mut group, hs) = self.group(hidden, active);
        M::final_logits_group(&mut group, &hs, meter)
    }

    /// Fills the K/V of the layers this step's early exits skipped: a
    /// slot with `first_skipped[slot] = Some(l)` left after layer `l - 1`
    /// with `hidden[slot]` and owes layers `l..` a row at
    /// `positions[slot]` — as one [`LayeredLm::fill_skipped_kv_group`]
    /// call, so seats sharing weights stream each layer's K/V projections
    /// once.
    ///
    /// # Panics
    ///
    /// Panics like [`BatchedStack::sweep_layer`].
    pub fn fill_skipped_kv(
        &mut self,
        first_skipped: &[Option<usize>],
        hidden: &[Option<Vec<f32>>],
        positions: &[usize],
        policy: SkipKvPolicy,
        meter: &mut Meter,
    ) {
        assert_eq!(positions.len(), self.slots.len(), "one position per slot");
        let left: Vec<bool> = first_skipped.iter().map(Option::is_some).collect();
        let from: Vec<usize> = first_skipped.iter().flatten().copied().collect();
        let at: Vec<usize> = packed(&left, positions).collect();
        let (mut group, hs) = self.group(hidden, &left);
        M::fill_skipped_kv_group(&mut group, &from, &hs, &at, policy, meter);
    }

    /// The shared *tree* sweep for batched token-tree verification: runs
    /// decoder layer `layer` over every active slot's whole draft tree
    /// under that slot's tree attention mask, replacing `hidden[slot]`
    /// (per-node hidden states) in place and appending the layer's
    /// scratch K/V to `kvs[slot]`. Returns the number of runners.
    ///
    /// The per-slot scratch K/V accumulates in tree-node order, so after
    /// sweeping layers `exit..n_layers` the engine can commit the
    /// accepted root path per slot via `commit_tree_kv` with no pool
    /// residue from rejected branches.
    ///
    /// # Panics
    ///
    /// Panics if the mask or state slices don't cover every slot, or an
    /// active slot is vacant or missing its tree state.
    pub fn sweep_layer_tree(
        &mut self,
        layer: usize,
        hidden: &mut [Option<Vec<Vec<f32>>>],
        parents: &[Vec<Option<usize>>],
        active: &[bool],
        kvs: &mut [Vec<TreeKv>],
        meter: &mut Meter,
    ) -> usize {
        assert_eq!(hidden.len(), self.slots.len(), "one tree state per slot");
        assert_eq!(parents.len(), self.slots.len(), "one tree shape per slot");
        assert_eq!(active.len(), self.slots.len(), "one mask bit per slot");
        assert_eq!(kvs.len(), self.slots.len(), "one scratch stack per slot");
        let mut runners = 0;
        for (slot, seat) in self.slots.iter_mut().enumerate() {
            if !active[slot] {
                continue;
            }
            let seat = seat.as_mut().expect("active slot is vacant");
            let hs = hidden[slot].as_ref().expect("active slot has no tree");
            let (out, kv) = seat
                .model
                .forward_layer_tree(layer, hs, &parents[slot], meter);
            hidden[slot] = Some(out);
            kvs[slot].push(kv);
            runners += 1;
        }
        runners
    }

    /// Re-syncs every lease with its model's committed KV length, leasing
    /// new pages as sequences grow (and copy-on-write copying any shared
    /// page the growth writes into). Call once per decode step after KV
    /// commits.
    pub fn sync_leases(&mut self) {
        for seat in self.slots.iter_mut().flatten() {
            let needed = seat.model.kv_len();
            seat.lease.grow(&mut self.pool, needed);
        }
    }

    /// The shared page pool (occupancy, recycling and peak statistics).
    pub fn pool(&self) -> &SlotPool {
        &self.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::transformer::{prefill, Transformer};
    use specee_tensor::rng::Pcg;

    fn model(seed: u64) -> Transformer {
        Transformer::random(ModelConfig::tiny(), &mut Pcg::seed(seed))
    }

    #[test]
    fn pool_recycles_freed_pages() {
        let mut pool = SlotPool::new(4);
        let a = pool.alloc_page();
        let b = pool.alloc_page();
        assert_eq!((a, b), (0, 1));
        pool.free_page(a);
        assert_eq!(pool.pages_in_use(), 1);
        assert_eq!(pool.alloc_page(), 0, "freed page is reused");
        assert_eq!(pool.pages_created(), 2);
        assert_eq!(pool.pages_peak(), 2);
    }

    #[test]
    #[should_panic(expected = "double-freed")]
    fn pool_rejects_double_free() {
        let mut pool = SlotPool::new(4);
        let a = pool.alloc_page();
        pool.free_page(a);
        pool.free_page(a);
    }

    /// Regression (ISSUE 9 satellite): the peak stat must track physical
    /// residency, so a block freed and regrown in the same step counts
    /// once — it must not read as two simultaneous pages.
    #[test]
    fn peak_counts_a_freed_then_regrown_block_once() {
        let mut pool = SlotPool::new(4);
        let a = pool.alloc_page();
        let _b = pool.alloc_page();
        let _c = pool.alloc_page();
        assert_eq!(pool.pages_peak(), 3);
        // Free one block and regrow it within the same step: residency
        // never exceeds 3, so neither may the peak.
        pool.free_page(a);
        let _a2 = pool.alloc_page();
        assert_eq!(pool.pages_peak(), 3, "free-then-regrow double-counted");
        // Sharing cycles add leases, not physical pages: peak is pinned.
        pool.share_page(_b);
        pool.share_page(_b);
        pool.free_page(_b);
        pool.free_page(_b);
        assert_eq!(pool.pages_peak(), 3, "share/release cycle moved peak");
        assert_eq!(pool.logical_pages_in_use(), 3);
    }

    #[test]
    fn refcounted_share_frees_exactly_once() {
        let mut pool = SlotPool::new(4);
        let a = pool.alloc_page();
        pool.share_page(a);
        pool.share_page(a);
        assert_eq!(pool.ref_count(a), 3);
        assert_eq!(pool.shared_pages(), 1);
        pool.free_page(a);
        pool.free_page(a);
        assert_eq!(pool.pages_in_use(), 1, "page resident until last ref");
        assert_eq!(pool.shared_pages(), 0);
        pool.free_page(a);
        assert_eq!(pool.pages_in_use(), 0);
        // The page is genuinely free now: reallocation recycles it.
        assert_eq!(pool.alloc_page(), a);
    }

    #[test]
    #[should_panic(expected = "cannot share")]
    fn sharing_a_free_page_panics() {
        let mut pool = SlotPool::new(4);
        let a = pool.alloc_page();
        pool.free_page(a);
        pool.share_page(a);
    }

    #[test]
    fn capacity_gates_allocation() {
        let mut pool = SlotPool::new(4);
        pool.set_capacity(Some(2));
        let a = pool.alloc_page();
        let _b = pool.alloc_page();
        assert_eq!(pool.available_pages(), 0);
        assert_eq!(pool.try_alloc_page(), None);
        // Sharing needs no new physical page, so it works at capacity.
        pool.share_page(a);
        pool.free_page(a);
        pool.free_page(a);
        assert_eq!(pool.available_pages(), 1);
        assert!(pool.try_alloc_page().is_some());
    }

    #[test]
    fn cow_copies_are_counted_and_keep_the_original_for_peers() {
        let mut pool = SlotPool::new(4);
        let a = pool.alloc_page();
        pool.share_page(a); // a second lessee
        let fresh = pool.cow_page(a);
        assert_ne!(fresh, a);
        assert_eq!(pool.cow_copies(), 1);
        assert_eq!(pool.ref_count(a), 1, "peer still holds the original");
        assert_eq!(pool.pages_in_use(), 2);
    }

    #[test]
    fn prefix_index_matches_register_and_prune() {
        let mut pool = SlotPool::new(2);
        let mut index = PrefixIndex::new(2);
        let p0 = pool.alloc_page();
        let p1 = pool.alloc_page();
        index.register(&[1, 2, 3, 4], &[p0, p1], &mut pool);
        assert_eq!(index.nodes(), 2);
        assert_eq!(pool.ref_count(p0), 2, "index pins registered pages");

        // Full + tail match.
        let (full, tail) = index.matched(&[1, 2, 3]);
        assert_eq!(full, vec![p0]);
        assert_eq!(tail, Some(p1));
        // Divergent second chunk: only the first page matches.
        let (full, tail) = index.matched(&[1, 2, 9, 9]);
        assert_eq!(full, vec![p0]);
        assert_eq!(tail, None);
        // Divergent first chunk: nothing matches, no tail either.
        let (full, tail) = index.matched(&[9, 9, 3, 4]);
        assert!(full.is_empty());
        assert_eq!(tail, None);

        // A second registrant of the same prefix, then both leave.
        index.register(&[1, 2, 3, 4], &[p0, p1], &mut pool);
        index.unregister(&[1, 2, 3, 4], &mut pool);
        assert_eq!(index.nodes(), 2, "still pinned by the second lease");
        index.unregister(&[1, 2, 3, 4], &mut pool);
        assert_eq!(index.nodes(), 0);
        assert_eq!(pool.ref_count(p0), 1, "index refs released on prune");
    }

    #[test]
    fn admit_leases_pages_for_prefilled_kv() {
        let mut stack: BatchedStack<Transformer> = BatchedStack::new(2, 2);
        let mut meter = Meter::new();
        let mut m = model(1);
        prefill(&mut m, &[1, 2, 3], &mut meter);
        stack.admit(m);
        // 3 committed positions at page size 2 → 2 pages.
        assert_eq!(stack.pool().pages_in_use(), 2);
        assert_eq!(stack.pool().tokens_in_use(), 4);
    }

    #[test]
    fn retire_returns_pages_and_next_admit_reuses_them() {
        let mut stack: BatchedStack<Transformer> = BatchedStack::new(2, 2);
        let mut meter = Meter::new();
        let mut m = model(2);
        prefill(&mut m, &[1, 2, 3, 4], &mut meter);
        let slot = stack.admit(m);
        let created = stack.pool().pages_created();
        let _ = stack.retire(slot);
        assert_eq!(stack.pool().pages_in_use(), 0);
        let mut m2 = model(3);
        prefill(&mut m2, &[5, 6], &mut meter);
        stack.admit(m2);
        // The second admission fits entirely in recycled pages.
        assert_eq!(stack.pool().pages_created(), created);
    }

    #[test]
    fn shared_admission_coleases_prefix_pages() {
        let mut stack: BatchedStack<Transformer> = BatchedStack::new(3, 2);
        stack.enable_prefix_share(true);
        let mut meter = Meter::new();
        let prompt = [1u32, 2, 3, 4];
        let mut a = model(1);
        prefill(&mut a, &prompt, &mut meter);
        stack.admit_shared(a, &prompt);
        assert_eq!(stack.pool().pages_in_use(), 2);

        // Identical prompt: zero fresh pages, both full pages co-leased.
        assert_eq!(stack.pages_for_admit(&prompt), 0);
        let mut b = model(2);
        prefill(&mut b, &prompt, &mut meter);
        let sb = stack.admit_shared(b, &prompt);
        assert_eq!(stack.pool().pages_in_use(), 2, "no new physical pages");
        assert_eq!(stack.pool().shared_pages(), 2);
        assert!(stack.pool().logical_pages_in_use() > stack.pool().pages_in_use());

        // Divergence in the second page: one fresh page only.
        let diverged = [1u32, 2, 7, 8];
        assert_eq!(stack.pages_for_admit(&diverged), 1);
        let mut c = model(3);
        prefill(&mut c, &diverged, &mut meter);
        stack.admit_shared(c, &diverged);
        assert_eq!(stack.pool().pages_in_use(), 3);

        // Retiring the sharer drops its co-leases but the pages stay
        // resident for the original owner.
        let _ = stack.retire(sb);
        assert_eq!(stack.pool().pages_in_use(), 3);
    }

    #[test]
    fn prefix_donor_is_a_registered_holder_of_the_matched_whole_pages() {
        let mut stack: BatchedStack<Transformer> = BatchedStack::new(4, 2);
        let mut meter = Meter::new();
        let seat = |prompt: &[u32], meter: &mut Meter| {
            let mut m = model(1);
            prefill(&mut m, prompt, meter);
            m
        };
        let long = [1u32, 2, 3, 4, 5];
        assert_eq!(stack.prefix_donor(&long), None, "sharing is off");
        stack.enable_prefix_share(true);
        assert_eq!(stack.prefix_donor(&long), None, "nobody is resident");
        // A plain admission registers nothing, so it holds nothing; nor
        // does the holder of some other prompt.
        let plain = stack.admit(seat(&long, &mut meter));
        let other = stack.admit_shared(seat(&[9, 2, 3, 4], &mut meter), &[9, 2, 3, 4]);
        assert_eq!(stack.prefix_donor(&long), None);
        let a = stack.admit_shared(seat(&long, &mut meter), &long);
        assert!(plain < a && other < a, "the donor is not the first seat");
        // Whole pages only: the odd fifth token and a tail match inside
        // the second page are not on offer.
        assert_eq!(stack.prefix_donor(&long), Some((a, 4)));
        assert_eq!(stack.prefix_donor(&[1, 2, 3, 9]), Some((a, 2)));
        assert_eq!(stack.prefix_donor(&[1, 2, 3]), Some((a, 2)));
        assert_eq!(stack.prefix_donor(&[1]), None);
        assert_eq!(stack.prefix_donor(&[9, 2, 3, 4]), Some((other, 4)));
        assert_eq!(stack.prefix_donor(&[8, 2, 3, 4]), None);
        // A second holder of the first page keeps it on offer once the
        // first is gone — for as far as its own prompt goes.
        let b = stack.admit_shared(seat(&[1, 2, 7, 8], &mut meter), &[1, 2, 7, 8]);
        let _ = stack.retire(a);
        assert_eq!(stack.prefix_donor(&long), Some((b, 2)));
        let _ = stack.retire(b);
        assert_eq!(stack.prefix_donor(&long), None);
    }

    #[test]
    fn tail_share_copies_on_first_divergent_write() {
        let mut stack: BatchedStack<Transformer> = BatchedStack::new(2, 2);
        stack.enable_prefix_share(true);
        let mut meter = Meter::new();
        let long = [1u32, 2, 3, 4];
        let mut a = model(1);
        prefill(&mut a, &long, &mut meter);
        stack.admit_shared(a, &long);

        // A strict prefix of the resident prompt shares the tail page
        // read-only: no fresh pages at admission.
        let short = [1u32, 2, 3];
        assert_eq!(stack.pages_for_admit(&short), 0);
        let mut b = model(2);
        prefill(&mut b, &short, &mut meter);
        let sb = stack.admit_shared(b, &short);
        assert_eq!(stack.pool().pages_in_use(), 2);
        assert_eq!(stack.pool().cow_copies(), 0);
        // Next-step demand counts every resident growing one token: the
        // owner crossing into a fresh page plus the sharer's pending
        // copy-on-write copy.
        assert_eq!(stack.next_step_page_demand_for(&[1, 1]), 2);
        let pos = stack.model(sb).kv_len();
        let mut h = stack.model_mut(sb).begin_token(9, &mut meter);
        for layer in 0..4 {
            h = stack
                .model_mut(sb)
                .forward_layer(layer, &h, pos, &mut meter);
        }
        stack.sync_leases();
        assert_eq!(stack.pool().cow_copies(), 1);
        assert_eq!(stack.pool().pages_in_use(), 3);
    }

    #[test]
    fn masked_sweep_matches_single_stream() {
        let mut stack: BatchedStack<Transformer> = BatchedStack::new(2, 16);
        let mut meter = Meter::new();
        let mut a = model(7);
        let mut b = model(7);
        prefill(&mut a, &[1, 2], &mut meter);
        prefill(&mut b, &[3], &mut meter);
        let sa = stack.admit(a);
        let sb = stack.admit(b);

        // Reference: the same models stepped individually.
        let mut ra = model(7);
        let mut rb = model(7);
        prefill(&mut ra, &[1, 2], &mut meter);
        prefill(&mut rb, &[3], &mut meter);
        let mut ha = ra.begin_token(5, &mut meter);
        let mut hb = rb.begin_token(6, &mut meter);

        let mut hidden = vec![None, None];
        hidden[sa] = Some(stack.model_mut(sa).begin_token(5, &mut meter));
        hidden[sb] = Some(stack.model_mut(sb).begin_token(6, &mut meter));
        let positions = [2, 1];
        let active = [true, true];
        for layer in 0..4 {
            let runners = stack.sweep_layer(layer, &mut hidden, &active, &positions, &mut meter);
            assert_eq!(runners, 2);
            ha = ra.forward_layer(layer, &ha, 2, &mut meter);
            hb = rb.forward_layer(layer, &hb, 1, &mut meter);
        }
        assert_eq!(hidden[sa].as_deref(), Some(ha.as_slice()));
        assert_eq!(hidden[sb].as_deref(), Some(hb.as_slice()));
    }

    #[test]
    fn mixed_mask_over_mixed_seats_matches_single_streams() {
        // Seats 0 and 2 share one weight set; seat 1 was quantized after
        // cloning. Each seat leaves the token at its own layer, the way
        // early exit shrinks a live batch: layer 0 runs all three (the
        // per-seat fallback), layers 1–2 the sharing pair (one weight
        // pass), layer 3 seat 0 alone.
        let template = model(21);
        let prompts: [&[u32]; 3] = [&[1, 2, 3], &[4], &[5, 6]];
        let tokens = [7u32, 8, 9];
        let last_layer = [4usize, 1, 3];
        let seat = |i: usize, meter: &mut Meter| {
            let mut m = template.clone();
            if i == 1 {
                m.quantize(specee_tensor::QuantBits::Int8);
            }
            prefill(&mut m, prompts[i], meter);
            m
        };
        let (mut meter, mut ref_meter) = (Meter::new(), Meter::new());
        let mut stack: BatchedStack<Transformer> = BatchedStack::new(3, 16);
        let mut refs: Vec<Transformer> = Vec::new();
        for i in 0..3 {
            assert_eq!(stack.admit(seat(i, &mut meter)), i);
            refs.push(seat(i, &mut ref_meter));
        }
        assert!(stack.model(0).shares_weights_with(stack.model(2)));
        assert!(!stack.model(0).shares_weights_with(stack.model(1)));

        let positions: Vec<usize> = prompts.iter().map(|p| p.len()).collect();
        let mut hidden: Vec<Option<Vec<f32>>> = Vec::new();
        let mut want: Vec<Vec<f32>> = Vec::new();
        for i in 0..3 {
            hidden.push(Some(stack.model_mut(i).begin_token(tokens[i], &mut meter)));
            want.push(refs[i].begin_token(tokens[i], &mut ref_meter));
        }
        for layer in 0..4 {
            let active: Vec<bool> = last_layer.iter().map(|&l| layer < l).collect();
            let runners = stack.sweep_layer(layer, &mut hidden, &active, &positions, &mut meter);
            assert_eq!(runners, active.iter().filter(|&&a| a).count());
            for i in (0..3).filter(|&i| active[i]) {
                want[i] = refs[i].forward_layer(layer, &want[i], positions[i], &mut ref_meter);
            }
            for i in 0..3 {
                assert_eq!(hidden[i].as_ref(), Some(&want[i]), "layer {layer} seat {i}");
                assert_eq!(stack.model(i).cache(layer), refs[i].cache(layer));
            }
        }
        assert_eq!(meter, ref_meter, "same records, in the same per-kind order");
    }

    #[test]
    fn masked_tree_sweep_matches_single_stream_tree() {
        let mut stack: BatchedStack<Transformer> = BatchedStack::new(2, 16);
        let mut meter = Meter::new();
        let mut a = model(11);
        let mut b = model(11);
        prefill(&mut a, &[1, 2], &mut meter);
        prefill(&mut b, &[3], &mut meter);
        let sa = stack.admit(a);
        let sb = stack.admit(b);

        // Reference: the same models sweeping their trees individually.
        let mut ra = model(11);
        let mut rb = model(11);
        prefill(&mut ra, &[1, 2], &mut meter);
        prefill(&mut rb, &[3], &mut meter);
        let pa: Vec<Option<usize>> = vec![None, Some(0), Some(0)];
        let pb: Vec<Option<usize>> = vec![None, Some(0)];
        let mut ha = ra.begin_tree(&[5, 6, 7], &pa, &mut meter);
        let mut hb = rb.begin_tree(&[8, 9], &pb, &mut meter);

        let mut hidden = vec![None, None];
        hidden[sa] = Some(stack.model_mut(sa).begin_tree(&[5, 6, 7], &pa, &mut meter));
        hidden[sb] = Some(stack.model_mut(sb).begin_tree(&[8, 9], &pb, &mut meter));
        let mut parents = vec![Vec::new(), Vec::new()];
        parents[sa] = pa.clone();
        parents[sb] = pb.clone();
        let mut kvs: Vec<Vec<TreeKv>> = vec![Vec::new(), Vec::new()];
        let mut ref_kvs: Vec<Vec<TreeKv>> = vec![Vec::new(), Vec::new()];
        for layer in 0..4 {
            let runners = stack.sweep_layer_tree(
                layer,
                &mut hidden,
                &parents,
                &[true, true],
                &mut kvs,
                &mut meter,
            );
            assert_eq!(runners, 2);
            let (oa, ka) = ra.forward_layer_tree(layer, &ha, &pa, &mut meter);
            let (ob, kb) = rb.forward_layer_tree(layer, &hb, &pb, &mut meter);
            ha = oa;
            hb = ob;
            ref_kvs[sa].push(ka);
            ref_kvs[sb].push(kb);
        }
        assert_eq!(hidden[sa].as_ref(), Some(&ha), "slot a tree states match");
        assert_eq!(hidden[sb].as_ref(), Some(&hb), "slot b tree states match");
        assert_eq!(kvs, ref_kvs, "per-layer scratch K/V matches per slot");
    }

    #[test]
    fn tree_sweep_skips_masked_slots() {
        let mut stack: BatchedStack<Transformer> = BatchedStack::new(2, 16);
        let mut meter = Meter::new();
        let mut a = model(13);
        let mut b = model(13);
        prefill(&mut a, &[1], &mut meter);
        prefill(&mut b, &[1], &mut meter);
        let sa = stack.admit(a);
        let sb = stack.admit(b);
        let parents: Vec<Option<usize>> = vec![None, Some(0)];
        let mut hidden = vec![None, None];
        hidden[sa] = Some(
            stack
                .model_mut(sa)
                .begin_tree(&[2, 3], &parents, &mut meter),
        );
        hidden[sb] = Some(
            stack
                .model_mut(sb)
                .begin_tree(&[2, 3], &parents, &mut meter),
        );
        let frozen = hidden[sb].clone();
        let all_parents = vec![parents.clone(), parents.clone()];
        let mut kvs: Vec<Vec<TreeKv>> = vec![Vec::new(), Vec::new()];
        let runners = stack.sweep_layer_tree(
            0,
            &mut hidden,
            &all_parents,
            &[true, false],
            &mut kvs,
            &mut meter,
        );
        assert_eq!(runners, 1);
        assert_eq!(hidden[sb], frozen, "masked-off slot keeps its tree");
        assert!(kvs[sb].is_empty(), "masked-off slot accrues no scratch");
        assert_eq!(kvs[sa].len(), 1);
    }

    #[test]
    fn per_slot_demand_bound_scales_with_tree_depth() {
        let mut stack: BatchedStack<Transformer> = BatchedStack::new(2, 4);
        let mut meter = Meter::new();
        let mut a = model(17);
        prefill(&mut a, &[1, 2, 3], &mut meter);
        let sa = stack.admit(a);
        // One token fits the current page; a 4-token tree commit crosses
        // into a second page.
        assert_eq!(stack.next_step_page_demand_for(&[1, 1]), 0);
        let mut extra = vec![0, 0];
        extra[sa] = 4;
        assert_eq!(stack.next_step_page_demand_for(&extra), 1);
    }

    #[test]
    fn inactive_slots_do_not_run() {
        let mut stack: BatchedStack<Transformer> = BatchedStack::new(2, 16);
        let mut meter = Meter::new();
        let mut a = model(9);
        let mut b = model(9);
        prefill(&mut a, &[1], &mut meter);
        prefill(&mut b, &[1], &mut meter);
        let sa = stack.admit(a);
        let sb = stack.admit(b);
        let mut hidden = vec![None, None];
        hidden[sa] = Some(stack.model_mut(sa).begin_token(2, &mut meter));
        hidden[sb] = Some(stack.model_mut(sb).begin_token(2, &mut meter));
        let frozen = hidden[sb].clone();
        let runners = stack.sweep_layer(0, &mut hidden, &[true, false], &[1, 1], &mut meter);
        assert_eq!(runners, 1);
        assert_eq!(hidden[sb], frozen, "masked-off slot keeps its state");
        assert_ne!(hidden[sa], frozen);
    }

    #[test]
    fn sync_leases_tracks_growth() {
        let mut stack: BatchedStack<Transformer> = BatchedStack::new(1, 2);
        let mut meter = Meter::new();
        let mut m = model(4);
        prefill(&mut m, &[1, 2], &mut meter);
        let slot = stack.admit(m);
        assert_eq!(stack.pool().pages_in_use(), 1);
        // Decode one token through all layers, then sync.
        let pos = stack.model(slot).kv_len();
        let mut h = stack.model_mut(slot).begin_token(3, &mut meter);
        for layer in 0..4 {
            h = stack
                .model_mut(slot)
                .forward_layer(layer, &h, pos, &mut meter);
        }
        stack.sync_leases();
        assert_eq!(stack.pool().pages_in_use(), 2, "third token needs page 2");
    }

    #[test]
    #[should_panic(expected = "no free slot")]
    fn admit_checks_capacity() {
        let mut stack: BatchedStack<Transformer> = BatchedStack::new(1, 16);
        stack.admit(model(1));
        stack.admit(model(2));
    }
}
