//! Per-layer key/value caches: contiguous (HuggingFace-style) and paged
//! (vllm-style block allocator).

use serde::{Deserialize, Serialize};

/// Allocation strategy for a [`KvCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KvLayout {
    /// One growing buffer per layer; capacity doubles on growth (the
    /// HuggingFace dynamic-cache behaviour).
    Contiguous,
    /// Fixed-size pages of `page_size` token slots allocated on demand
    /// (the vllm PagedAttention behaviour).
    Paged {
        /// Tokens per page.
        page_size: usize,
    },
}

/// How to fill the KV cache of layers that were skipped by an early exit.
///
/// The paper does not specify this mechanism; all three policies preserve
/// the engine dataflow and are ablated in `ablation_kv_policy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SkipKvPolicy {
    /// Run only the K/V projections of each skipped layer on the exit
    /// hidden state (cheap; keeps keys/values on-distribution). Default.
    #[default]
    ProjectExitHidden,
    /// Copy the previous position's K/V entries.
    ReuseLast,
    /// Write zero vectors (attention will effectively ignore the slot).
    ZeroFill,
}

/// Key/value cache for a single decoder layer.
///
/// Stores one `kv_dim`-wide key and value row per committed position.
///
/// # Examples
///
/// ```
/// use specee_model::kv::{KvCache, KvLayout};
///
/// let mut cache = KvCache::new(8, KvLayout::Paged { page_size: 4 });
/// cache.push(&[0.0; 8], &[1.0; 8]);
/// assert_eq!(cache.len(), 1);
/// assert_eq!(cache.allocated_tokens(), 4); // one page
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KvCache {
    kv_dim: usize,
    layout: KvLayout,
    k: Vec<f32>,
    v: Vec<f32>,
    len: usize,
}

impl KvCache {
    /// Creates an empty cache for rows of width `kv_dim`.
    ///
    /// # Panics
    ///
    /// Panics if `kv_dim` is zero, or a paged layout has zero page size.
    pub fn new(kv_dim: usize, layout: KvLayout) -> Self {
        assert!(kv_dim > 0, "kv_dim must be positive");
        if let KvLayout::Paged { page_size } = layout {
            assert!(page_size > 0, "page_size must be positive");
        }
        KvCache {
            kv_dim,
            layout,
            k: Vec::new(),
            v: Vec::new(),
            len: 0,
        }
    }

    /// Row width.
    pub fn kv_dim(&self) -> usize {
        self.kv_dim
    }

    /// Allocation layout.
    pub fn layout(&self) -> KvLayout {
        self.layout
    }

    /// Number of committed positions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no positions are committed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one position.
    ///
    /// # Panics
    ///
    /// Panics if the slices are not `kv_dim` wide.
    pub fn push(&mut self, key: &[f32], value: &[f32]) {
        assert_eq!(key.len(), self.kv_dim, "key width");
        assert_eq!(value.len(), self.kv_dim, "value width");
        self.k.extend_from_slice(key);
        self.v.extend_from_slice(value);
        self.len += 1;
    }

    /// Copies the last position's K/V as a new position.
    ///
    /// # Panics
    ///
    /// Panics if the cache is empty.
    pub fn push_repeat_last(&mut self) {
        assert!(self.len > 0, "cannot repeat into empty cache");
        let start = (self.len - 1) * self.kv_dim;
        let key: Vec<f32> = self.k[start..start + self.kv_dim].to_vec();
        let value: Vec<f32> = self.v[start..start + self.kv_dim].to_vec();
        self.push(&key, &value);
    }

    /// Appends a zero position.
    pub fn push_zero(&mut self) {
        self.k.extend(std::iter::repeat_n(0.0, self.kv_dim));
        self.v.extend(std::iter::repeat_n(0.0, self.kv_dim));
        self.len += 1;
    }

    /// Appends the first `len` positions of `donor`, row for row.
    ///
    /// # Panics
    ///
    /// Panics if the row widths differ or `donor` holds fewer than `len`
    /// positions.
    pub fn extend_from_prefix(&mut self, donor: &KvCache, len: usize) {
        assert_eq!(donor.kv_dim, self.kv_dim, "row width");
        assert!(len <= donor.len, "prefix {len} > donor's {}", donor.len);
        self.k.extend_from_slice(&donor.k[..len * self.kv_dim]);
        self.v.extend_from_slice(&donor.v[..len * self.kv_dim]);
        self.len += len;
    }

    /// Key row at `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= len()`.
    pub fn key(&self, pos: usize) -> &[f32] {
        assert!(pos < self.len, "key pos {pos} >= {}", self.len);
        &self.k[pos * self.kv_dim..(pos + 1) * self.kv_dim]
    }

    /// Value row at `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= len()`.
    pub fn value(&self, pos: usize) -> &[f32] {
        assert!(pos < self.len, "value pos {pos} >= {}", self.len);
        &self.v[pos * self.kv_dim..(pos + 1) * self.kv_dim]
    }

    /// Discards positions beyond `new_len` (speculative rollback).
    pub fn truncate(&mut self, new_len: usize) {
        if new_len < self.len {
            self.len = new_len;
            self.k.truncate(new_len * self.kv_dim);
            self.v.truncate(new_len * self.kv_dim);
        }
    }

    /// Clears all positions.
    pub fn clear(&mut self) {
        self.truncate(0);
    }

    /// Token slots *allocated* under the layout (≥ `len()`): contiguous
    /// rounds to the geometric growth capacity, paged rounds up to whole
    /// pages. This drives the memory-usage experiment (Fig. 17).
    pub fn allocated_tokens(&self) -> usize {
        match self.layout {
            // `0usize.next_power_of_two()` is 1; an empty cache holds nothing.
            KvLayout::Contiguous if self.len == 0 => 0,
            KvLayout::Contiguous => self.len.next_power_of_two().max(self.len),
            KvLayout::Paged { page_size } => self.len.div_ceil(page_size) * page_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back() {
        let mut c = KvCache::new(4, KvLayout::Contiguous);
        c.push(&[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0, 8.0]);
        c.push(&[9.0; 4], &[0.5; 4]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.key(0), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.value(1), &[0.5; 4]);
    }

    #[test]
    fn truncate_rolls_back() {
        let mut c = KvCache::new(2, KvLayout::Contiguous);
        for i in 0..5 {
            c.push(&[i as f32; 2], &[i as f32; 2]);
        }
        c.truncate(2);
        assert_eq!(c.len(), 2);
        assert_eq!(c.key(1), &[1.0, 1.0]);
    }

    #[test]
    fn repeat_last_copies() {
        let mut c = KvCache::new(2, KvLayout::Contiguous);
        c.push(&[3.0, 4.0], &[5.0, 6.0]);
        c.push_repeat_last();
        assert_eq!(c.key(1), c.key(0));
        assert_eq!(c.value(1), c.value(0));
    }

    #[test]
    fn zero_fill() {
        let mut c = KvCache::new(3, KvLayout::Contiguous);
        c.push_zero();
        assert_eq!(c.key(0), &[0.0; 3]);
    }

    #[test]
    fn paged_allocation_rounds_up() {
        let mut c = KvCache::new(2, KvLayout::Paged { page_size: 16 });
        assert_eq!(c.allocated_tokens(), 0);
        c.push(&[0.0; 2], &[0.0; 2]);
        assert_eq!(c.allocated_tokens(), 16);
        for _ in 0..16 {
            c.push(&[0.0; 2], &[0.0; 2]);
        }
        assert_eq!(c.allocated_tokens(), 32);
    }

    #[test]
    fn contiguous_allocation_grows_geometrically() {
        let mut c = KvCache::new(1, KvLayout::Contiguous);
        assert_eq!(c.allocated_tokens(), 0, "an empty cache holds no slot");
        for _ in 0..5 {
            c.push(&[0.0], &[0.0]);
        }
        assert_eq!(c.allocated_tokens(), 8);
    }

    #[test]
    fn extend_from_prefix_copies_the_leading_rows_only() {
        let mut donor = KvCache::new(2, KvLayout::Paged { page_size: 2 });
        for i in 0..5 {
            donor.push(&[i as f32, 0.5], &[-(i as f32), 1.5]);
        }
        let mut c = KvCache::new(2, KvLayout::Contiguous);
        c.extend_from_prefix(&donor, 3);
        assert_eq!(c.len(), 3);
        assert_eq!(c.layout(), KvLayout::Contiguous, "the layout stays its own");
        for pos in 0..3 {
            assert_eq!(c.key(pos), donor.key(pos));
            assert_eq!(c.value(pos), donor.value(pos));
        }
        let mut pushed = KvCache::new(2, KvLayout::Contiguous);
        for pos in 0..3 {
            pushed.push(donor.key(pos), donor.value(pos));
        }
        assert_eq!(c, pushed, "the same cache as pushing those rows");
    }

    #[test]
    #[should_panic(expected = "prefix 3 > donor's 2")]
    fn extend_from_prefix_checks_the_donor_length() {
        let mut donor = KvCache::new(1, KvLayout::Contiguous);
        donor.push(&[0.0], &[0.0]);
        donor.push(&[0.0], &[0.0]);
        KvCache::new(1, KvLayout::Contiguous).extend_from_prefix(&donor, 3);
    }

    #[test]
    #[should_panic(expected = "key width")]
    fn validates_row_width() {
        KvCache::new(4, KvLayout::Contiguous).push(&[0.0; 3], &[0.0; 3]);
    }
}
