//! The op-event meter: engines record what they execute, benches price it.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Category of a recorded operation.
///
/// The categories mirror the decomposition the paper uses: Fig. 1(b) splits
/// end-to-end time into *decoder layer* ([`OpKind::is_decoder_layer`]) and
/// *others*; the overhead analysis of §7.4.4 needs [`OpKind::Predictor`]
/// isolated; the energy argument of §7.3.1 relies on predictor ops being
/// memory-bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum OpKind {
    /// Token embedding lookup.
    Embed,
    /// Attention projections, score computation and output projection.
    Attention,
    /// KV-cache reads/writes attributable to attention.
    KvCache,
    /// Gated feed-forward network.
    Ffn,
    /// RMSNorm and other elementwise layer work.
    Norm,
    /// Full LM-head product over the whole vocabulary.
    LmHeadFull,
    /// Speculative LM-head slice (candidate columns only, SpecEE T1).
    LmHeadSlice,
    /// Early-exit MLP predictor forward.
    Predictor,
    /// Draft (speculative) model forward.
    Draft,
    /// K/V projections used to fill the cache of skipped layers after exit.
    SkipKvFill,
    /// Anything else.
    Other,
}

impl OpKind {
    /// All kinds, in display order.
    pub const ALL: [OpKind; 11] = [
        OpKind::Embed,
        OpKind::Attention,
        OpKind::KvCache,
        OpKind::Ffn,
        OpKind::Norm,
        OpKind::LmHeadFull,
        OpKind::LmHeadSlice,
        OpKind::Predictor,
        OpKind::Draft,
        OpKind::SkipKvFill,
        OpKind::Other,
    ];

    /// Whether this op executes inside a decoder layer (the numerator of
    /// Fig. 1(b)'s "decoder layer" share).
    pub fn is_decoder_layer(self) -> bool {
        matches!(
            self,
            OpKind::Attention | OpKind::KvCache | OpKind::Ffn | OpKind::Norm
        )
    }

    /// Whether this op is SpecEE overhead (predictor path additions).
    pub fn is_specee_overhead(self) -> bool {
        matches!(
            self,
            OpKind::Predictor | OpKind::LmHeadSlice | OpKind::SkipKvFill
        )
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpKind::Embed => "embed",
            OpKind::Attention => "attention",
            OpKind::KvCache => "kv-cache",
            OpKind::Ffn => "ffn",
            OpKind::Norm => "norm",
            OpKind::LmHeadFull => "lm-head(full)",
            OpKind::LmHeadSlice => "lm-head(slice)",
            OpKind::Predictor => "predictor",
            OpKind::Draft => "draft",
            OpKind::SkipKvFill => "skip-kv-fill",
            OpKind::Other => "other",
        };
        f.write_str(s)
    }
}

/// Aggregated totals for one op kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct KindTotals {
    /// Floating-point operations.
    pub flops: f64,
    /// Bytes moved (reads + writes).
    pub bytes: f64,
    /// Number of kernel launches.
    pub kernels: u64,
}

impl KindTotals {
    fn add(&mut self, flops: f64, bytes: f64, kernels: u64) {
        self.flops += flops;
        self.bytes += bytes;
        self.kernels += kernels;
    }

    fn merge(&mut self, other: &KindTotals) {
        self.add(other.flops, other.bytes, other.kernels);
    }
}

/// Aggregating recorder of executed operations.
///
/// Engines thread a `&mut Meter` through every forward call; each primitive
/// records its FLOPs, bytes moved and kernel count under an [`OpKind`].
/// Token boundaries are marked so per-token costs can be derived.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Meter {
    totals: [KindTotals; OpKind::ALL.len()],
    tokens: u64,
    host_steps: u64,
}

impl Meter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Meter::default()
    }

    /// Records an operation.
    pub fn record(&mut self, kind: OpKind, flops: f64, bytes: f64, kernels: u64) {
        self.totals[kind as usize].add(flops, bytes, kernels);
    }

    /// Marks the completion of one generated token.
    pub fn mark_token(&mut self) {
        self.tokens += 1;
    }

    /// Marks one host-loop iteration (one Python/engine step): a decode
    /// step in autoregressive mode, a verification round in speculative
    /// mode. Framework overhead is charged per step, which is why tree
    /// decoding amortizes host cost over several tokens.
    pub fn mark_host_step(&mut self) {
        self.host_steps += 1;
    }

    /// Number of host steps marked.
    pub fn host_steps(&self) -> u64 {
        self.host_steps
    }

    /// Number of tokens marked.
    pub fn tokens(&self) -> u64 {
        self.tokens
    }

    /// Totals for one kind.
    pub fn kind(&self, kind: OpKind) -> KindTotals {
        self.totals[kind as usize]
    }

    /// Iterates over non-empty kinds.
    pub fn iter(&self) -> impl Iterator<Item = (OpKind, KindTotals)> + '_ {
        OpKind::ALL
            .iter()
            .map(|&k| (k, self.totals[k as usize]))
            .filter(|(_, t)| t.kernels > 0 || t.flops > 0.0 || t.bytes > 0.0)
    }

    /// Sum of FLOPs across all kinds.
    pub fn total_flops(&self) -> f64 {
        self.totals.iter().map(|t| t.flops).sum()
    }

    /// Sum of bytes across all kinds.
    pub fn total_bytes(&self) -> f64 {
        self.totals.iter().map(|t| t.bytes).sum()
    }

    /// Total kernel launches.
    pub fn total_kernels(&self) -> u64 {
        self.totals.iter().map(|t| t.kernels).sum()
    }

    /// Accumulates another meter into this one.
    pub fn merge(&mut self, other: &Meter) {
        for (mine, theirs) in self.totals.iter_mut().zip(other.totals.iter()) {
            mine.merge(theirs);
        }
        self.tokens += other.tokens;
        self.host_steps += other.host_steps;
    }

    /// Resets all counters.
    pub fn reset(&mut self) {
        *self = Meter::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut m = Meter::new();
        m.record(OpKind::Ffn, 10.0, 20.0, 1);
        m.record(OpKind::Ffn, 5.0, 5.0, 2);
        let t = m.kind(OpKind::Ffn);
        assert_eq!(t.flops, 15.0);
        assert_eq!(t.bytes, 25.0);
        assert_eq!(t.kernels, 3);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = Meter::new();
        a.record(OpKind::Draft, 1.0, 1.0, 1);
        a.mark_token();
        let mut b = Meter::new();
        b.record(OpKind::Draft, 2.0, 3.0, 1);
        b.mark_token();
        b.mark_token();
        a.merge(&b);
        assert_eq!(a.kind(OpKind::Draft).flops, 3.0);
        assert_eq!(a.tokens(), 3);
    }

    #[test]
    fn iter_skips_empty_kinds() {
        let mut m = Meter::new();
        m.record(OpKind::Predictor, 1.0, 1.0, 1);
        let kinds: Vec<OpKind> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(kinds, vec![OpKind::Predictor]);
    }

    #[test]
    fn decoder_layer_classification() {
        assert!(OpKind::Ffn.is_decoder_layer());
        assert!(OpKind::Attention.is_decoder_layer());
        assert!(!OpKind::LmHeadFull.is_decoder_layer());
        assert!(!OpKind::Draft.is_decoder_layer());
    }

    #[test]
    fn overhead_classification() {
        assert!(OpKind::Predictor.is_specee_overhead());
        assert!(OpKind::LmHeadSlice.is_specee_overhead());
        assert!(!OpKind::Ffn.is_specee_overhead());
    }

    #[test]
    fn reset_clears() {
        let mut m = Meter::new();
        m.record(OpKind::Other, 1.0, 1.0, 1);
        m.mark_token();
        m.reset();
        assert_eq!(m.total_flops(), 0.0);
        assert_eq!(m.tokens(), 0);
    }
}
