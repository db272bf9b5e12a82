//! Fig. 2(b) / §3.1, quantified: the vocabulary *is* the predictor's search
//! space. Sweeps the vocabulary size and prices the per-layer exit
//! prediction of a full-vocabulary method (AdaInfer/CALM-style: one
//! `hidden × vocab` GEMV per evaluated layer) against SpecEE's K-column
//! slice, on the A100 roofline at Llama2-7B dimensions.
//!
//! Two claims are asserted:
//! * the share of per-token latency a full-vocabulary method spends on
//!   prediction rises strictly with the vocabulary size — 2.1 % at 512
//!   entries, 36.4 % at the Llama2 vocabulary (3.2 × 10⁴) on this cost
//!   model; the paper measures ~20 % end to end there;
//! * SpecEE's slice is vocabulary-size-independent — the ~10⁴× search-space
//!   reduction of Fig. 2(b): its prediction seconds are the same at every
//!   sweep point. Its 31 per-layer slices are priced as ONE grouped kernel
//!   (T3's block-wise GEMM, Fig. 13).
//!
//! Every priced column reads the vocabulary *size* alone, so the sweep is
//! over literal sizes up to the 32 000 the claim is about.

use specee_bench::*;
use specee_metrics::{HardwareProfile, Roofline, Table};
use specee_model::CostDims;

struct TokenCost {
    base_s: f64,
    roofline: Roofline,
    hidden: f64,
    weight_bytes: f64,
}

impl TokenCost {
    fn at_7b_dims() -> Self {
        let dims = CostDims::llama2_7b();
        let roofline = Roofline::new(HardwareProfile::a100_80g());
        let h = dims.hidden_dim as f64;
        let wb = dims.weight_bytes_per_elem();
        let layer_bytes = (h * h * 2.0
            + h * dims.kv_dim() as f64 * 2.0
            + 3.0 * h * dims.ffn_dim as f64
            + 2.0 * h)
            * wb;
        let layer_s = roofline.op_latency(2.0 * layer_bytes / wb, layer_bytes, 7);
        TokenCost {
            base_s: dims.n_layers as f64 * layer_s,
            roofline,
            hidden: h,
            weight_bytes: wb,
        }
    }

    /// One GEMV of `cols` LM-head columns.
    fn head_s(&self, cols: f64, kernels: u64) -> f64 {
        let bytes = cols * self.hidden * self.weight_bytes;
        self.roofline
            .op_latency(2.0 * bytes / self.weight_bytes, bytes, kernels)
    }

    /// (total, prediction) seconds per token: the final full head plus
    /// `layers` prediction reads of `cols` columns in `kernels` launches.
    fn token(&self, vocab: f64, layers: f64, cols: f64, kernels: u64) -> (f64, f64) {
        let final_head = self.head_s(vocab, 1);
        let prediction = self.head_s(layers * cols, kernels);
        (self.base_s + final_head + prediction, prediction)
    }
}

fn main() {
    banner(
        "ablation_vocab_size",
        "search-space reduction: prediction overhead vs vocabulary size (Fig. 2(b))",
    );

    let cost = TokenCost::at_7b_dims();
    let layers = 31.0; // predictors at every intermediate layer

    let mut table = Table::new(vec![
        "vocab",
        "full-vocab pred share",
        "SpecEE pred share",
        "search-space reduction",
    ]);
    let mut shares = Vec::new();
    let mut spec_seconds = Vec::new();
    // The last point is the paper's operating point: Llama2's vocabulary.
    for vocab in [512usize, 1024, 2048, 4096, 8192, 16384, 32000] {
        let v = vocab as f64;
        let (full_total, full_pred) = cost.token(v, layers, v, layers as u64);
        let (spec_total, spec_pred) = cost.token(v, layers, 4.0, 1);
        table.row(vec![
            vocab.to_string(),
            format!("{:.1}%", full_pred / full_total * 100.0),
            format!("{:.2}%", spec_pred / spec_total * 100.0),
            format!("{}x", vocab / 4),
        ]);
        shares.push(full_pred / full_total);
        spec_seconds.push(spec_pred);
    }
    println!("Llama2-7B dims @ A100 (bare roofline); prediction at all 31 intermediate layers");
    println!("{table}");
    println!(
        "Paper: full-vocabulary prediction costs ~20% of end-to-end latency at the\n\
         ~3x10^4 Llama2 vocabulary and scales with it; SpecEE's candidate slice\n\
         (one grouped kernel, Fig. 13) is vocabulary-independent — the ~10^4x\n\
         search-space reduction of Fig. 2(b)."
    );
    assert!(
        shares.windows(2).all(|w| w[0] < w[1]),
        "full-vocabulary prediction share must rise with the vocabulary: {shares:?}"
    );
    assert!(
        spec_seconds.windows(2).all(|w| w[0] == w[1]),
        "SpecEE's prediction cost must not depend on the vocabulary: {spec_seconds:?}"
    );
}
