//! The paged-KV memory plane of a served batch: a refcounted page pool,
//! a prefix index over resident prompts, and the per-slot page ledger
//! that ties them to the sequences a batch is decoding.
//!
//! A served batch runs N independent sequences in lock-step, each with
//! its own KV state — the per-layer [`crate::KvCache`]s of its
//! [`crate::LayeredLm`] instance. The sequences themselves live in
//! `specee-batch`'s `BatchedEngine`; what lives here is the accounting of
//! their page occupancy: a vllm-style [`SlotPool`] whose freed blocks are
//! recycled when a sequence retires, and the [`PageLedger`] that leases
//! its pages slot by slot.
//!
//! The pool is a *refcounted* page allocator: a page may be leased by
//! several sequences at once (copy-on-write prefix sharing), and an
//! optional capacity turns exhaustion into a checkable condition instead
//! of unbounded growth, which is what makes preemption in the batched
//! engine possible. Prefix sharing is driven by a [`PrefixIndex`] — a
//! radix-style tree over whole-page prompt chunks — consulted when a
//! sequence takes a slot: its prompt is matched against resident
//! prefixes and the matching pages are leased read-only, with a private
//! copy made only on the first divergent write (see
//! [`PageLedger::lease`]). The leases are a ledger — every sequence keeps
//! private K/V — but the compute is saved: [`PageLedger::donor`] names a
//! slot whose sequence already holds the matched pages' rows, for the
//! engine to copy instead of prefilling.
//!
//! The ledger has no model type and never sees one: the engine feeds it
//! committed K/V lengths and prompts, and reads back page demand.

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
    /// The prompt registered with the prefix index (for unregistration
    /// when the slot is vacated); `None` when leased without sharing.
    registered: Option<Vec<u32>>,
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

/// The page ledger of a served batch: which pool pages each slot's
/// sequence leases, kept beside the K/V it accounts for.
///
/// The ledger never sees a model. Its caller — `specee-batch`'s
/// `BatchedEngine`, which owns the seated sequences — tells it how many
/// positions a slot's sequence has committed ([`PageLedger::lease`] when
/// a sequence takes the slot, [`PageLedger::grow`] after every decode
/// step, [`PageLedger::vacate`] when it leaves) and the ledger turns that
/// into page traffic on the shared [`SlotPool`]: allocation, recycling,
/// and — with prefix sharing on ([`PageLedger::enable_prefix_share`]) —
/// read-only co-leases of resident prompt pages found through the
/// [`PrefixIndex`], copied on the first divergent write.
///
/// # Examples
///
/// ```
/// use specee_model::batch::PageLedger;
///
/// let mut ledger = PageLedger::new(2, 16);
/// ledger.lease(0, 3, None); // a 3-token prompt was prefilled into slot 0
/// assert_eq!(ledger.pool().pages_in_use(), 1);
/// assert_eq!(ledger.demand(0, 17), 1, "position 16 opens a second page");
/// ledger.grow(0, 17);
/// assert_eq!(ledger.pool().pages_in_use(), 2);
/// ledger.vacate(0);
/// assert_eq!(ledger.pool().pages_in_use(), 0);
/// ```
#[derive(Debug)]
pub struct PageLedger {
    leases: Vec<Option<SlotLease>>,
    pool: SlotPool,
    index: Option<PrefixIndex>,
}

impl PageLedger {
    /// A ledger for `slots` sequence slots over a fresh pool of
    /// `page_size`-token pages.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero (page-size validation is
    /// [`SlotPool::new`]'s).
    pub fn new(slots: usize, page_size: usize) -> Self {
        assert!(slots > 0, "max_batch must be positive");
        PageLedger {
            leases: vec![None; slots],
            pool: SlotPool::new(page_size),
            index: None,
        }
    }

    /// Caps the page pool at `capacity` physical pages (`None` uncaps).
    /// See [`SlotPool::set_capacity`].
    pub fn set_capacity(&mut self, capacity: Option<usize>) {
        self.pool.set_capacity(capacity);
    }

    /// Turns copy-on-write prefix sharing on or off: subsequent
    /// [`PageLedger::lease`] calls that name a prompt match and register
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if any slot holds a lease (toggling mid-flight would orphan
    /// index-held page references).
    pub fn enable_prefix_share(&mut self, on: bool) {
        assert!(
            self.leases.iter().all(Option::is_none),
            "prefix sharing can only be toggled on an empty stack"
        );
        self.index = on.then(|| PrefixIndex::new(self.pool.page_size()));
    }

    /// Whether prefix sharing is enabled.
    pub fn prefix_sharing(&self) -> bool {
        self.index.is_some()
    }

    /// Leases pages for the `kv_len` positions the sequence taking `slot`
    /// has already committed. With `prompt` — the tokens those positions
    /// hold — and prefix sharing on, the prompt is matched against the
    /// prefix index first: matching whole pages are co-leased read-only
    /// instead of allocated, a matching tail page is co-leased
    /// copy-on-write, and the prompt's own full pages are registered for
    /// later arrivals. Without either, every page is private (how a
    /// parked sequence comes back).
    ///
    /// # Panics
    ///
    /// Panics if the slot already holds a lease, the page pool is at
    /// capacity, or `prompt` does not cover exactly `kv_len` positions.
    pub fn lease(&mut self, slot: usize, kv_len: usize, prompt: Option<&[u32]>) {
        assert!(self.leases[slot].is_none(), "slot {slot} is already leased");
        let mut lease = SlotLease::default();
        if let (Some(index), Some(prompt)) = (self.index.as_mut(), prompt) {
            assert_eq!(
                prompt.len(),
                kv_len,
                "lease: the committed KV must cover exactly the prompt"
            );
            let ps = self.pool.page_size();
            let (full, tail) = index.matched(prompt);
            for &page in full.iter().chain(&tail) {
                self.pool.share_page(page);
                lease.pages.push(PageRef { page, shared: true });
            }
            lease.tokens = if tail.is_some() {
                kv_len
            } else {
                full.len() * ps
            };
            // Private pages for whatever the index did not cover.
            lease.grow(&mut self.pool, kv_len);
            let full_pages: Vec<usize> =
                lease.pages[..kv_len / ps].iter().map(|r| r.page).collect();
            index.register(prompt, &full_pages, &mut self.pool);
            lease.registered = Some(prompt.to_vec());
        } else {
            lease.grow(&mut self.pool, kv_len);
        }
        self.leases[slot] = Some(lease);
    }

    /// A leased slot whose sequence holds prompt K/V a newcomer with this
    /// `prompt` could adopt ([`crate::LayeredLm::adopt_prefix`]) instead
    /// of recomputing: `(slot, tokens)` — the longest chain of whole
    /// prompt pages the index matches, and a slot registered under a
    /// prompt that begins with those `tokens` (one exists while the chain
    /// does: a node lives as long as a registrant). `None` without sharing
    /// or without a match.
    pub fn donor(&self, prompt: &[u32]) -> Option<(usize, usize)> {
        let pages = self.index.as_ref()?.matched(prompt).0.len();
        let shared = &prompt[..pages * self.pool.page_size()];
        if shared.is_empty() {
            return None;
        }
        let slot = self.leases.iter().position(|lease| {
            let registered = lease.as_ref().and_then(|l| l.registered.as_deref());
            registered.is_some_and(|p| p.starts_with(shared))
        })?;
        Some((slot, shared.len()))
    }

    /// Fresh physical pages leasing a sequence with this `prompt` would
    /// allocate, accounting for prefix-index matches. Compare with
    /// [`SlotPool::available_pages`] to gate admission under a capacity.
    pub fn pages_for_admit(&self, prompt: &[u32]) -> usize {
        let total = prompt.len().div_ceil(self.pool.page_size());
        let matched = self.index.as_ref().map_or(0, |index| {
            let (full, tail) = index.matched(prompt);
            full.len() + usize::from(tail.is_some())
        });
        total - matched
    }

    /// Fresh physical pages growing `slot`'s lease to `kv_len` positions
    /// would allocate (boundary crossings plus pending copy-on-write
    /// copies), without performing them. The batched engine sums this over
    /// its seats — each at its committed length plus the most the next
    /// step can commit — and preempts until the sum fits
    /// [`SlotPool::available_pages`].
    ///
    /// # Panics
    ///
    /// Panics if the slot holds no lease.
    pub fn demand(&self, slot: usize, kv_len: usize) -> usize {
        let lease = self.leases[slot].as_ref().expect("slot is vacant");
        lease.pages_needed_for(self.pool.page_size(), kv_len)
    }

    /// Grows `slot`'s lease to cover `kv_len` committed positions, leasing
    /// new pages as the sequence grew (and copy-on-write copying any
    /// shared page the growth writes into). Call once per seat per decode
    /// step, in slot order, after the K/V commits.
    ///
    /// # Panics
    ///
    /// Panics if the slot holds no lease or the pool is at capacity.
    pub fn grow(&mut self, slot: usize, kv_len: usize) {
        let lease = self.leases[slot].as_mut().expect("slot is vacant");
        lease.grow(&mut self.pool, kv_len);
    }

    /// Ends `slot`'s lease: its pages return to the pool and its prefix
    /// registration, if any, to the index.
    ///
    /// # Panics
    ///
    /// Panics if the slot holds no lease.
    pub fn vacate(&mut self, slot: usize) {
        let mut lease = self.leases[slot].take().expect("slot is vacant");
        if let (Some(index), Some(prompt)) = (self.index.as_mut(), lease.registered.take()) {
            index.unregister(&prompt, &mut self.pool);
        }
        lease.release(&mut self.pool);
    }

    /// The shared page pool (occupancy, recycling and peak statistics).
    pub fn pool(&self) -> &SlotPool {
        &self.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut ledger = PageLedger::new(2, 2);
        ledger.lease(0, 3, None);
        // 3 committed positions at page size 2 → 2 pages.
        assert_eq!(ledger.pool().pages_in_use(), 2);
        assert_eq!(ledger.pool().tokens_in_use(), 4);
    }

    #[test]
    fn retire_returns_pages_and_next_admit_reuses_them() {
        let mut ledger = PageLedger::new(2, 2);
        ledger.lease(0, 4, None);
        let created = ledger.pool().pages_created();
        ledger.vacate(0);
        assert_eq!(ledger.pool().pages_in_use(), 0);
        // The second lease fits entirely in recycled pages.
        ledger.lease(0, 2, None);
        assert_eq!(ledger.pool().pages_created(), created);
    }

    #[test]
    fn shared_admission_coleases_prefix_pages() {
        let mut ledger = PageLedger::new(3, 2);
        ledger.enable_prefix_share(true);
        let prompt = [1u32, 2, 3, 4];
        ledger.lease(0, 4, Some(&prompt));
        assert_eq!(ledger.pool().pages_in_use(), 2);

        // Identical prompt: zero fresh pages, both full pages co-leased.
        assert_eq!(ledger.pages_for_admit(&prompt), 0);
        ledger.lease(1, 4, Some(&prompt));
        assert_eq!(ledger.pool().pages_in_use(), 2, "no new physical pages");
        assert_eq!(ledger.pool().shared_pages(), 2);
        assert!(ledger.pool().logical_pages_in_use() > ledger.pool().pages_in_use());

        // Divergence in the second page: one fresh page only.
        let diverged = [1u32, 2, 7, 8];
        assert_eq!(ledger.pages_for_admit(&diverged), 1);
        ledger.lease(2, 4, Some(&diverged));
        assert_eq!(ledger.pool().pages_in_use(), 3);

        // Vacating the sharer drops its co-leases but the pages stay
        // resident for the original owner.
        ledger.vacate(1);
        assert_eq!(ledger.pool().pages_in_use(), 3);
    }

    #[test]
    fn prefix_donor_is_a_registered_holder_of_the_matched_whole_pages() {
        let mut ledger = PageLedger::new(4, 2);
        let long = [1u32, 2, 3, 4, 5];
        assert_eq!(ledger.donor(&long), None, "sharing is off");
        ledger.enable_prefix_share(true);
        assert_eq!(ledger.donor(&long), None, "nobody is resident");
        // A lease that names no prompt registers nothing, so it holds
        // nothing; nor does the holder of some other prompt.
        ledger.lease(0, long.len(), None);
        ledger.lease(1, 4, Some(&[9, 2, 3, 4]));
        assert_eq!(ledger.donor(&long), None);
        // The donor is not the first leased slot.
        ledger.lease(2, long.len(), Some(&long));
        // Whole pages only: the odd fifth token and a tail match inside
        // the second page are not on offer.
        assert_eq!(ledger.donor(&long), Some((2, 4)));
        assert_eq!(ledger.donor(&[1, 2, 3, 9]), Some((2, 2)));
        assert_eq!(ledger.donor(&[1, 2, 3]), Some((2, 2)));
        assert_eq!(ledger.donor(&[1]), None);
        assert_eq!(ledger.donor(&[9, 2, 3, 4]), Some((1, 4)));
        assert_eq!(ledger.donor(&[8, 2, 3, 4]), None);
        // A second holder of the first page keeps it on offer once the
        // first is gone — for as far as its own prompt goes.
        ledger.lease(3, 4, Some(&[1, 2, 7, 8]));
        ledger.vacate(2);
        assert_eq!(ledger.donor(&long), Some((3, 2)));
        ledger.vacate(3);
        assert_eq!(ledger.donor(&long), None);
    }

    #[test]
    fn tail_share_copies_on_first_divergent_write() {
        let mut ledger = PageLedger::new(2, 2);
        ledger.enable_prefix_share(true);
        ledger.lease(0, 4, Some(&[1, 2, 3, 4]));

        // A strict prefix of the resident prompt shares the tail page
        // read-only: no fresh pages when it takes its slot.
        let short = [1u32, 2, 3];
        assert_eq!(ledger.pages_for_admit(&short), 0);
        ledger.lease(1, 3, Some(&short));
        assert_eq!(ledger.pool().pages_in_use(), 2);
        assert_eq!(ledger.pool().cow_copies(), 0);
        // Next-step demand counts every resident growing one token: the
        // owner crossing into a fresh page plus the sharer's pending
        // copy-on-write copy.
        assert_eq!(ledger.demand(0, 5) + ledger.demand(1, 4), 2);
        // The sharer commits one token into the shared tail page.
        ledger.grow(1, 4);
        assert_eq!(ledger.pool().cow_copies(), 1);
        assert_eq!(ledger.pool().pages_in_use(), 3);
    }

    #[test]
    fn per_slot_demand_bound_scales_with_tree_depth() {
        let mut ledger = PageLedger::new(2, 4);
        ledger.lease(0, 3, None);
        // One token fits the current page; a 4-token tree commit crosses
        // into a second page.
        assert_eq!(ledger.demand(0, 3 + 1), 0);
        assert_eq!(ledger.demand(0, 3 + 4), 1);
    }

    #[test]
    fn sync_leases_tracks_growth() {
        let mut ledger = PageLedger::new(1, 2);
        ledger.lease(0, 2, None);
        assert_eq!(ledger.pool().pages_in_use(), 1);
        ledger.grow(0, 3);
        assert_eq!(ledger.pool().pages_in_use(), 2, "third token needs page 2");
        ledger.grow(0, 3);
        assert_eq!(ledger.pool().pages_in_use(), 2, "nothing new to cover");
    }

    #[test]
    #[should_panic(expected = "already leased")]
    fn admit_checks_capacity() {
        let mut ledger = PageLedger::new(1, 16);
        ledger.lease(0, 1, None);
        ledger.lease(0, 1, None);
    }
}
