//! Activation recording for AWQ calibration.
//!
//! Real AWQ calibrates on the activations that actually flow into each
//! weight matrix. [`ActivationTap`] is the forward-hook equivalent: while
//! armed, the transformer records the RMS-normed inputs of the attention
//! projections (`wqkv`), the FFN projections (`w_gate_up`) and the LM
//! head. The output-side projections (`wo`, `w_down`) keep plain
//! round-to-nearest: their inputs live inside the fused attention/FFN
//! kernels, and in the AWQ deployment their scales cannot be folded into a
//! preceding norm anyway.

use specee_metrics::Meter;
use specee_tensor::QuantBits;

use crate::config::TokenId;
use crate::traits::LayeredLm;
use crate::transformer::Transformer;

/// Cap on recorded samples per site — enough for stable channel
/// statistics, bounded memory for long calibration runs.
pub const TAP_SAMPLE_CAP: usize = 256;

/// Recorded per-site activations (`[layer][sample][channel]`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ActivationTap {
    /// Inputs to `wqkv` (post attention-norm), per layer.
    pub attn_in: Vec<Vec<Vec<f32>>>,
    /// Inputs to `w_gate_up` (post FFN-norm), per layer.
    pub ffn_in: Vec<Vec<Vec<f32>>>,
    /// Inputs to the LM head (post final-norm).
    pub head_in: Vec<Vec<f32>>,
}

impl ActivationTap {
    /// An empty tap for a model of `n_layers` layers.
    pub fn new(n_layers: usize) -> Self {
        ActivationTap {
            attn_in: vec![Vec::new(); n_layers],
            ffn_in: vec![Vec::new(); n_layers],
            head_in: Vec::new(),
        }
    }

    /// Records an attention-projection input for `layer` (capped).
    pub fn record_attn(&mut self, layer: usize, normed: &[f32]) {
        let site = &mut self.attn_in[layer];
        if site.len() < TAP_SAMPLE_CAP {
            site.push(normed.to_vec());
        }
    }

    /// Records an FFN-projection input for `layer` (capped).
    pub fn record_ffn(&mut self, layer: usize, normed: &[f32]) {
        let site = &mut self.ffn_in[layer];
        if site.len() < TAP_SAMPLE_CAP {
            site.push(normed.to_vec());
        }
    }

    /// Records an LM-head input (capped).
    pub fn record_head(&mut self, normed: &[f32]) {
        if self.head_in.len() < TAP_SAMPLE_CAP {
            self.head_in.push(normed.to_vec());
        }
    }

    /// Samples recorded at the least-covered per-layer site.
    pub fn min_samples(&self) -> usize {
        self.attn_in
            .iter()
            .chain(self.ffn_in.iter())
            .map(Vec::len)
            .min()
            .unwrap_or(0)
            .min(self.head_in.len())
    }
}

/// Runs calibration `prompts` through the model with the tap armed and
/// returns the recorded activations. The model's KV state is reset before
/// and after.
///
/// # Panics
///
/// Panics if `prompts` is empty or any prompt is empty.
pub fn collect_awq_tap(model: &mut Transformer, prompts: &[Vec<TokenId>]) -> ActivationTap {
    assert!(!prompts.is_empty(), "need calibration prompts");
    let mut meter = Meter::new();
    model.start_calibration_tap();
    for prompt in prompts {
        assert!(!prompt.is_empty(), "empty calibration prompt");
        model.reset();
        let h = crate::prefill(model, prompt, &mut meter);
        // Touch the head site once per prompt.
        let _ = model.final_logits(&h, &mut meter);
    }
    model.reset();
    model.take_calibration_tap().expect("tap was armed")
}

/// AWQ-quantizes a transformer in place: calibrated channel scales for the
/// norm-fed projections, plain round-to-nearest for the rest.
///
/// # Panics
///
/// Panics if the tap covers a different layer count or recorded no
/// samples.
pub fn quantize_awq(model: &mut Transformer, bits: QuantBits, tap: &ActivationTap) {
    let n_layers = model.config().n_layers;
    assert_eq!(tap.attn_in.len(), n_layers, "tap layer count");
    assert_eq!(tap.ffn_in.len(), n_layers, "tap layer count");
    assert!(tap.min_samples() > 0, "tap recorded no samples");
    model.apply_awq(bits, tap);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::linear::LinearOp;
    use specee_tensor::rng::Pcg;

    fn model() -> Transformer {
        Transformer::random(
            ModelConfig {
                n_layers: 4,
                ..ModelConfig::tiny()
            },
            &mut Pcg::seed(3),
        )
    }

    fn prompts() -> Vec<Vec<TokenId>> {
        (0..4u32)
            .map(|i| vec![1 + i, 5 + i, 9 + i, 2 + i])
            .collect()
    }

    #[test]
    fn tap_records_every_site() {
        let mut m = model();
        let tap = collect_awq_tap(&mut m, &prompts());
        assert_eq!(tap.attn_in.len(), 4);
        assert_eq!(tap.ffn_in.len(), 4);
        // 4 prompts x 4 tokens = 16 per layer site, 4 head samples.
        assert!(tap.min_samples() >= 4, "min {}", tap.min_samples());
        assert_eq!(tap.attn_in[0][0].len(), m.config().hidden_dim);
    }

    #[test]
    fn tap_respects_sample_cap() {
        let mut tap = ActivationTap::new(1);
        for _ in 0..(TAP_SAMPLE_CAP + 50) {
            tap.record_attn(0, &[1.0, 2.0]);
        }
        assert_eq!(tap.attn_in[0].len(), TAP_SAMPLE_CAP);
    }

    #[test]
    fn tap_disarmed_outside_collection() {
        let mut m = model();
        let _ = collect_awq_tap(&mut m, &prompts());
        // A fresh forward after collection must not record anywhere.
        let mut meter = Meter::new();
        let h = m.begin_token(1, &mut meter);
        let _ = m.forward_layer(0, &h, 0, &mut meter);
        assert!(m.take_calibration_tap().is_none());
    }

    #[test]
    fn quantize_awq_keeps_decoding_close_to_dense() {
        let mut dense = model();
        let mut awq = model();
        let tap = collect_awq_tap(&mut awq, &prompts());
        quantize_awq(&mut awq, QuantBits::Int8, &tap);

        let mut meter = Meter::new();
        let hd = crate::prefill(&mut dense, &[3, 1, 4], &mut meter);
        let ld = dense.final_logits(&hd, &mut meter);
        let ha = crate::prefill(&mut awq, &[3, 1, 4], &mut meter);
        let la = awq.final_logits(&ha, &mut meter);
        let mse: f32 = ld
            .iter()
            .zip(&la)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            / ld.len() as f32;
        assert!(mse < 1e-2, "int8 AWQ logits far from dense: mse {mse}");
        let quantized = awq.weights();
        for op in [
            &quantized.layers[0].wqkv,
            &quantized.layers[0].wo,
            &quantized.lm_head,
        ] {
            assert!(!matches!(op, LinearOp::Dense(_)));
        }
    }

    #[test]
    fn awq_payload_matches_rtn_payload() {
        let mut rtn = model();
        rtn.quantize(QuantBits::Int4);
        let mut awq = model();
        let tap = collect_awq_tap(&mut awq, &prompts());
        quantize_awq(&mut awq, QuantBits::Int4, &tap);
        assert_eq!(rtn.weights().bytes(), awq.weights().bytes());
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_tap_rejected() {
        let mut m = model();
        let tap = ActivationTap::new(4);
        quantize_awq(&mut m, QuantBits::Int8, &tap);
    }
}
