//! Cost-twin metering: ops record FLOPs/bytes at full-model scale.
//!
//! Each executed operation calls one of these helpers with the number of
//! context positions etc. it actually touched; the helper prices the op at
//! the [`CostDims`](crate::config::CostDims) twin (or the executed dims
//! when no twin is set) and
//! records it in the [`Meter`]. Activations and KV-cache entries are priced
//! at f16 (2 bytes) as on the paper's GPUs.

use specee_metrics::{Meter, OpKind};

use crate::config::ModelConfig;

/// Scale at which operations are priced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpScale {
    /// Hidden dimension.
    pub hidden: f64,
    /// Key/value width (`n_kv_heads × head_dim`).
    pub kv_dim: f64,
    /// FFN intermediate dimension.
    pub ffn: f64,
    /// Vocabulary size.
    pub vocab: f64,
    /// Decoder layer count.
    pub n_layers: f64,
    /// Bytes per weight element.
    pub wbytes: f64,
}

/// Bytes per activation / cache element on the modelled device (f16).
pub const ACT_BYTES: f64 = 2.0;

impl OpScale {
    /// Derives the pricing scale from a model configuration.
    pub fn of(cfg: &ModelConfig) -> Self {
        match &cfg.cost {
            Some(c) => OpScale {
                hidden: c.hidden_dim as f64,
                kv_dim: c.kv_dim() as f64,
                ffn: c.ffn_dim as f64,
                vocab: c.vocab_size as f64,
                n_layers: c.n_layers as f64,
                wbytes: c.weight_bytes_per_elem(),
            },
            None => OpScale {
                hidden: cfg.hidden_dim as f64,
                kv_dim: cfg.hidden_dim as f64,
                ffn: cfg.ffn_dim as f64,
                vocab: cfg.vocab_size as f64,
                n_layers: cfg.n_layers as f64,
                wbytes: 2.0,
            },
        }
    }

    /// Records one decode-step attention block over `kv_len` cached
    /// positions (projections, RoPE, scores, weighted sum, output): the
    /// tree-batched block at one node.
    pub fn record_attention(&self, meter: &mut Meter, kv_len: usize) {
        self.record_attention_tree(meter, &[kv_len]);
    }

    /// Records one tree-batched attention block: weights are read once for
    /// the whole node batch, while per-node score/projection FLOPs and KV
    /// traffic scale with the batch (how a batched GPU kernel behaves).
    pub fn record_attention_tree(&self, meter: &mut Meter, kv_lens: &[usize]) {
        let h = self.hidden;
        let kv = self.kv_dim;
        let n_nodes = kv_lens.len() as f64;
        let total_kv: f64 = kv_lens.iter().map(|&n| n as f64).sum();
        let proj_flops = (4.0 * h * h + 4.0 * h * kv) * n_nodes;
        let score_flops = 4.0 * total_kv * h;
        let weight_bytes = 2.0 * h * h + 2.0 * h * kv; // read once
        let act = 6.0 * h * ACT_BYTES * n_nodes;
        meter.record(
            OpKind::Attention,
            proj_flops + score_flops,
            weight_bytes * self.wbytes + act,
            6,
        );
        meter.record(
            OpKind::KvCache,
            0.0,
            2.0 * total_kv * kv * ACT_BYTES + 2.0 * kv * ACT_BYTES * n_nodes,
            1,
        );
    }

    /// Records a tree-batched dense FFN (weights read once).
    pub fn record_ffn_tree(&self, meter: &mut Meter, n_nodes: usize) {
        let n = n_nodes as f64;
        let flops = (6.0 * self.hidden * self.ffn + self.ffn) * n;
        let bytes = 3.0 * self.hidden * self.ffn * self.wbytes + 4.0 * self.hidden * ACT_BYTES * n;
        meter.record(OpKind::Ffn, flops, bytes, 3);
    }

    /// Records a tree-batched sparse FFN (union of active rows read once,
    /// approximated by the per-node fraction).
    pub fn record_ffn_sparse_tree(
        &self,
        meter: &mut Meter,
        n_nodes: usize,
        active_frac: f64,
        router_rank: usize,
    ) {
        let n = n_nodes as f64;
        let frac = active_frac.clamp(0.0, 1.0);
        let r = router_rank as f64;
        let router_flops = (2.0 * self.hidden * r + 2.0 * r * self.ffn) * n;
        let router_bytes = (self.hidden * r + r * self.ffn) * self.wbytes;
        let flops = (6.0 * self.hidden * self.ffn + self.ffn) * frac * n + router_flops;
        let bytes = 3.0 * self.hidden * self.ffn * self.wbytes * frac.min(1.0)
            + router_bytes
            + 4.0 * self.hidden * ACT_BYTES * n;
        meter.record(OpKind::Ffn, flops, bytes, 4);
    }

    /// Records a batched full LM head over `n` hidden states (weights read
    /// once — how EAGLE verifies a whole token tree in one GEMM).
    pub fn record_lm_head_full_batch(&self, meter: &mut Meter, n: usize) {
        let nn = n as f64;
        let flops = 2.0 * self.hidden * self.vocab * nn;
        let bytes = self.hidden * self.vocab * self.wbytes + self.vocab * ACT_BYTES * nn;
        meter.record(OpKind::LmHeadFull, flops, bytes, 1);
    }

    /// Records the batched norms of a tree layer.
    pub fn record_norms_tree(&self, meter: &mut Meter, n_nodes: usize) {
        let n = n_nodes as f64;
        meter.record(
            OpKind::Norm,
            8.0 * self.hidden * n,
            4.0 * self.hidden * ACT_BYTES * n,
            2,
        );
    }

    /// Records a dense gated-FFN block.
    pub fn record_ffn(&self, meter: &mut Meter) {
        self.record_ffn_tree(meter, 1);
    }

    /// Records a sparse-activation FFN where only `active_frac` of neurons
    /// were computed, plus the low-rank router that predicted them
    /// (PowerInfer substitution).
    pub fn record_ffn_sparse(&self, meter: &mut Meter, active_frac: f64, router_rank: usize) {
        self.record_ffn_sparse_tree(meter, 1, active_frac, router_rank);
    }

    /// Records the RMSNorm pair of a decoder layer.
    pub fn record_norms(&self, meter: &mut Meter) {
        self.record_norms_tree(meter, 1);
    }

    /// Records a full-vocabulary LM-head product.
    pub fn record_lm_head_full(&self, meter: &mut Meter) {
        self.record_lm_head_full_batch(meter, 1);
    }

    /// Records a speculative LM-head slice over `k` candidate rows
    /// (SpecEE T1's ~10⁴× search-space reduction).
    pub fn record_lm_head_slice(&self, meter: &mut Meter, k: usize) {
        let flops = 2.0 * self.hidden * k as f64;
        let bytes = self.hidden * k as f64 * self.wbytes + (self.hidden + k as f64) * ACT_BYTES;
        // slice gather + small GEMM + softmax
        meter.record(OpKind::LmHeadSlice, flops, bytes, 2);
    }

    /// Records an embedding-row gather.
    pub fn record_embed(&self, meter: &mut Meter) {
        meter.record(OpKind::Embed, 0.0, self.hidden * self.wbytes, 1);
    }

    /// Records the K/V projections used to fill one skipped layer's cache.
    pub fn record_skip_kv_fill(&self, meter: &mut Meter) {
        let flops = 4.0 * self.hidden * self.kv_dim;
        let bytes = 2.0 * self.hidden * self.kv_dim * self.wbytes + 2.0 * self.kv_dim * ACT_BYTES;
        meter.record(OpKind::SkipKvFill, flops, bytes, 2);
    }

    /// Records one draft-model forward: one decoder layer plus its LM head
    /// (the EAGLE draft head is ≈ one target-model layer, §3.2/§7.4.2).
    pub fn record_draft_forward(&self, meter: &mut Meter, kv_len: usize) {
        let h = self.hidden;
        let kv = self.kv_dim;
        let n = kv_len as f64;
        let layer_flops = 4.0 * h * h + 4.0 * h * kv + 4.0 * n * h + 6.0 * h * self.ffn;
        let layer_bytes = (2.0 * h * h + 2.0 * h * kv + 3.0 * h * self.ffn) * self.wbytes
            + 2.0 * n * kv * ACT_BYTES;
        let head_flops = 2.0 * h * self.vocab;
        let head_bytes = h * self.vocab * self.wbytes;
        meter.record(
            OpKind::Draft,
            layer_flops + head_flops,
            layer_bytes + head_bytes,
            10,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CostDims, ModelConfig};

    #[test]
    fn cost_twin_dominates_exec_dims() {
        let tiny = ModelConfig::tiny();
        let sim = ModelConfig::sim_llama2_7b();
        let s_tiny = OpScale::of(&tiny);
        let s_sim = OpScale::of(&sim);
        assert_eq!(s_sim.hidden, 4096.0);
        assert_eq!(s_tiny.hidden, 32.0);
    }

    #[test]
    fn ffn_dominates_attention_at_short_context() {
        let s = OpScale::of(&ModelConfig::sim_llama2_7b());
        let mut m_attn = Meter::new();
        s.record_attention(&mut m_attn, 64);
        let mut m_ffn = Meter::new();
        s.record_ffn(&mut m_ffn);
        assert!(m_ffn.total_flops() > m_attn.total_flops());
    }

    #[test]
    fn slice_is_tiny_vs_full_head() {
        let s = OpScale::of(&ModelConfig::sim_llama2_7b());
        let mut full = Meter::new();
        s.record_lm_head_full(&mut full);
        let mut slice = Meter::new();
        s.record_lm_head_slice(&mut slice, 4);
        // ~32000/4 = 8000x flops reduction (paper: ~10^4 x)
        assert!(full.total_flops() / slice.total_flops() > 5000.0);
    }

    #[test]
    fn quantized_twin_reduces_bytes_not_flops() {
        let cfg16 = ModelConfig::sim_llama2_7b();
        let cfg4 =
            ModelConfig::sim_llama2_7b().with_cost(CostDims::llama2_7b().with_weight_bits(4));
        let (s16, s4) = (OpScale::of(&cfg16), OpScale::of(&cfg4));
        let mut m16 = Meter::new();
        s16.record_ffn(&mut m16);
        let mut m4 = Meter::new();
        s4.record_ffn(&mut m4);
        assert_eq!(m16.total_flops(), m4.total_flops());
        assert!(m4.total_bytes() < m16.total_bytes() / 2.0);
    }

    #[test]
    fn sparse_ffn_cheaper_than_dense() {
        let s = OpScale::of(&ModelConfig::sim_llama2_7b());
        let mut dense = Meter::new();
        s.record_ffn(&mut dense);
        let mut sparse = Meter::new();
        s.record_ffn_sparse(&mut sparse, 0.2, 64);
        assert!(sparse.total_bytes() < dense.total_bytes() * 0.5);
    }

    /// Each one-row price is its batched sibling at one row, to the bit:
    /// the batched formulas scale per-row terms by a count, and a count
    /// of one multiplies by `1.0`. The expected meters are the one-row
    /// formulas written out.
    #[test]
    fn one_row_prices_are_their_batched_siblings_at_one_row() {
        for cfg in [ModelConfig::sim_llama2_7b(), ModelConfig::tiny()] {
            let s = OpScale::of(&cfg);
            let (h, kv, ffn, vocab, wb) = (s.hidden, s.kv_dim, s.ffn, s.vocab, s.wbytes);
            let metered = |f: &dyn Fn(&mut Meter)| {
                let mut meter = Meter::new();
                f(&mut meter);
                meter
            };
            let same = |name: &str, want: Meter, one: Meter, batched: Meter| {
                assert_eq!(one, want, "{name}");
                assert_eq!(batched, want, "{name} (batched at one row)");
            };

            let n = 37.0;
            let want = metered(&|m| {
                let flops = 4.0 * h * h + 4.0 * h * kv + 4.0 * n * h;
                let bytes = (2.0 * h * h + 2.0 * h * kv) * wb + 6.0 * h * ACT_BYTES;
                m.record(OpKind::Attention, flops, bytes, 6);
                let kv_bytes = 2.0 * n * kv * ACT_BYTES + 2.0 * kv * ACT_BYTES;
                m.record(OpKind::KvCache, 0.0, kv_bytes, 1);
            });
            let one = metered(&|m| s.record_attention(m, 37));
            same(
                "attention",
                want,
                one,
                metered(&|m| s.record_attention_tree(m, &[37])),
            );

            let want = metered(&|m| {
                let bytes = 3.0 * h * ffn * wb + 4.0 * h * ACT_BYTES;
                m.record(OpKind::Ffn, 6.0 * h * ffn + ffn, bytes, 3);
            });
            let one = metered(&|m| s.record_ffn(m));
            same("ffn", want, one, metered(&|m| s.record_ffn_tree(m, 1)));

            let (frac, r) = (0.3, 16.0);
            let want = metered(&|m| {
                let flops = (6.0 * h * ffn + ffn) * frac + 2.0 * h * r + 2.0 * r * ffn;
                let bytes =
                    3.0 * h * ffn * wb * frac + (h * r + r * ffn) * wb + 4.0 * h * ACT_BYTES;
                m.record(OpKind::Ffn, flops, bytes, 4);
            });
            let one = metered(&|m| s.record_ffn_sparse(m, 0.3, 16));
            let batched = metered(&|m| s.record_ffn_sparse_tree(m, 1, 0.3, 16));
            same("sparse ffn", want, one, batched);

            let want = metered(&|m| m.record(OpKind::Norm, 8.0 * h, 4.0 * h * ACT_BYTES, 2));
            let one = metered(&|m| s.record_norms(m));
            same("norms", want, one, metered(&|m| s.record_norms_tree(m, 1)));

            let want = metered(&|m| {
                let bytes = h * vocab * wb + vocab * ACT_BYTES;
                m.record(OpKind::LmHeadFull, 2.0 * h * vocab, bytes, 1);
            });
            let one = metered(&|m| s.record_lm_head_full(m));
            same(
                "lm head",
                want,
                one,
                metered(&|m| s.record_lm_head_full_batch(m, 1)),
            );
        }
    }
}
