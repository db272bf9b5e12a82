//! Batch-amortized step pricing.
//!
//! Single-stream runs price a recorded [`specee_metrics::Meter`] trace.
//! A served batch cannot reuse that path directly because the dominant
//! decode cost — streaming layer weights from HBM — is paid **once per
//! step for the whole batch**, not once per sequence. This module prices
//! one decode step analytically from [`CostDims`]: each layer that at
//! least one slot executes charges its weight bytes once, while FLOPs,
//! KV traffic and activations scale with the number of slots running it.

use specee_metrics::{FrameworkProfile, HardwareProfile, Roofline};
use specee_model::CostDims;

/// Bytes per cached element (f16 KV cache and activations).
const F16: f64 = 2.0;

/// Exit-predictor parameter count (paper: 2-layer MLP, 12 → 512 → 1).
const PREDICTOR_PARAMS: f64 = (12 * 512 + 512 + 512 + 1) as f64;

/// Draft candidates per proposal (K; columns of the LM-head slice).
const SPEC_K: f64 = 4.0;

/// What one decode step executed, aggregated over the batch.
#[derive(Debug, Clone, PartialEq)]
pub struct StepSpec {
    /// `layer_runners[l]` = number of slots that executed layer `l`.
    pub layer_runners: Vec<usize>,
    /// Context length (KV positions attended) per active slot.
    pub ctx_lens: Vec<usize>,
    /// Full-LM-head evaluations this step (final logits + verifications).
    pub lm_head_evals: f64,
    /// Slots that ran the speculative draft model this step.
    pub draft_slots: usize,
    /// Slots that self-drafted through the target's own shallow layers
    /// this step. Their shallow runs are already in `layer_runners`
    /// (they share the target's weights — the point of the mode), so a
    /// self-draft slot only adds the tied LM-head expansion reads, never
    /// a second weight stream.
    pub self_draft_slots: usize,
    /// Exit-predictor invocations this step (includes the candidate-slice
    /// GEMV each invocation needs).
    pub predictor_calls: f64,
}

/// Analytic per-step cost model over full-scale dimensions.
///
/// # Examples
///
/// ```
/// use specee_metrics::{FrameworkProfile, HardwareProfile};
/// use specee_model::CostDims;
/// use specee_serve::cost::{StepCostModel, StepSpec};
///
/// let model = StepCostModel::new(
///     CostDims::llama2_7b(),
///     HardwareProfile::a100_80g(),
///     FrameworkProfile::vllm(),
/// );
/// let solo = model.decode_step_latency(&StepSpec {
///     layer_runners: vec![1; 32],
///     ctx_lens: vec![256],
///     lm_head_evals: 1.0,
///     draft_slots: 0,
///     self_draft_slots: 0,
///     predictor_calls: 0.0,
/// });
/// assert!(solo > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct StepCostModel {
    cost: CostDims,
    roofline: Roofline,
    per_step_overhead_s: f64,
}

impl StepCostModel {
    /// Builds the model for one (dims, device, framework) combination.
    pub fn new(cost: CostDims, hw: HardwareProfile, fw: FrameworkProfile) -> Self {
        let per_step_overhead_s = fw.per_step_overhead_s;
        StepCostModel {
            cost,
            roofline: Roofline::with_framework(hw, fw),
            per_step_overhead_s,
        }
    }

    /// The cost dimensions being priced.
    pub fn dims(&self) -> &CostDims {
        &self.cost
    }

    /// Weight elements of one decoder layer.
    fn layer_weight_elems(&self) -> f64 {
        let h = self.cost.hidden_dim as f64;
        let kv = self.cost.kv_dim() as f64;
        h * h * 2.0 + h * kv * 2.0 + 3.0 * h * self.cost.ffn_dim as f64 + 2.0 * h
    }

    /// Weight bytes of one decoder layer at the configured precision.
    pub fn layer_weight_bytes(&self) -> f64 {
        self.layer_weight_elems() * self.cost.weight_bytes_per_elem()
    }

    /// LM-head weight bytes (vocab × hidden).
    pub fn lm_head_bytes(&self) -> f64 {
        self.cost.vocab_size as f64
            * self.cost.hidden_dim as f64
            * self.cost.weight_bytes_per_elem()
    }

    /// KV-cache bytes of one token position in one layer.
    fn kv_bytes_per_layer_token(&self) -> f64 {
        2.0 * self.cost.kv_dim() as f64 * F16
    }

    /// Prices one decode step of the batch.
    ///
    /// # Panics
    ///
    /// Panics if `layer_runners` does not cover the model's layers.
    pub fn decode_step_latency(&self, spec: &StepSpec) -> f64 {
        assert_eq!(
            spec.layer_runners.len(),
            self.cost.n_layers,
            "one runner count per layer"
        );
        let h = self.cost.hidden_dim as f64;
        let layer_elems = self.layer_weight_elems();
        let total_ctx: f64 = spec.ctx_lens.iter().map(|&c| c as f64).sum();

        let mut flops = 0.0;
        let mut bytes = 0.0;
        let mut kernels = 0u64;

        for &runners in &spec.layer_runners {
            if runners == 0 {
                continue;
            }
            let b = runners as f64;
            // Weights stream once for the whole batch.
            bytes += self.layer_weight_bytes();
            // GEMV FLOPs and KV traffic scale per slot. Context is averaged
            // over the batch: slots executing this layer attend their own
            // KV, approximated by the batch-mean context.
            let mean_ctx = total_ctx / spec.ctx_lens.len().max(1) as f64;
            flops += b * (2.0 * layer_elems + 4.0 * self.cost.kv_dim() as f64 * mean_ctx);
            bytes += b
                * (mean_ctx * self.kv_bytes_per_layer_token()   // KV read
                    + self.kv_bytes_per_layer_token()           // KV write
                    + 2.0 * h * F16); // hidden-state traffic
            kernels += 7;
        }

        if spec.lm_head_evals > 0.0 {
            bytes += self.lm_head_bytes();
            flops +=
                spec.lm_head_evals * 2.0 * self.lm_head_bytes() / self.cost.weight_bytes_per_elem();
            kernels += 1;
        }

        if spec.draft_slots > 0 {
            // The paper sizes the DLM at roughly one decoder layer (§5.1).
            bytes += self.layer_weight_bytes();
            flops += spec.draft_slots as f64 * 2.0 * layer_elems;
            kernels += 7;
        }

        if spec.self_draft_slots > 0 {
            // Self-draft shares the target's weights: the shallow draft
            // runs are already counted in `layer_runners`, and the
            // LM-head weights stream with the verification reads — so
            // the only marginal cost is the tied-head expansion FLOPs.
            flops += spec.self_draft_slots as f64 * 2.0 * self.lm_head_bytes()
                / self.cost.weight_bytes_per_elem();
            kernels += 1;
        }

        if spec.predictor_calls > 0.0 {
            // MLP weights are shared; candidate-slice GEMV per call.
            bytes += PREDICTOR_PARAMS * F16
                + spec.predictor_calls * SPEC_K * h * self.cost.weight_bytes_per_elem();
            flops += spec.predictor_calls * (2.0 * PREDICTOR_PARAMS + 2.0 * SPEC_K * h);
            kernels += 2;
        }

        self.roofline.op_latency(flops, bytes, kernels) + self.per_step_overhead_s
    }

    /// Prices a batched prefill over the admitted prompts.
    ///
    /// Weights stream once; FLOPs and KV writes scale with total prompt
    /// tokens; attention is quadratic per prompt.
    pub fn prefill_latency(&self, prompt_lens: &[usize]) -> f64 {
        if prompt_lens.is_empty() {
            return 0.0;
        }
        let layer_elems = self.layer_weight_elems();
        let total: f64 = prompt_lens.iter().map(|&p| p as f64).sum();
        let quad: f64 = prompt_lens.iter().map(|&p| (p * p) as f64).sum();
        let n_layers = self.cost.n_layers as f64;

        let mut bytes = n_layers * self.layer_weight_bytes() + self.lm_head_bytes();
        bytes += total * self.cost.kv_bytes_per_token();
        let mut flops = n_layers * total * 2.0 * layer_elems;
        flops += n_layers * 2.0 * quad * self.cost.kv_dim() as f64;
        flops += prompt_lens.len() as f64 * 2.0 * self.lm_head_bytes()
            / self.cost.weight_bytes_per_elem();

        let kernels = self.cost.n_layers as u64 * 7 + 1;
        self.roofline.op_latency(flops, bytes, kernels) + self.per_step_overhead_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> StepCostModel {
        StepCostModel::new(
            CostDims::llama2_7b(),
            HardwareProfile::a100_80g(),
            FrameworkProfile::vllm(),
        )
    }

    fn dense_step(batch: usize, ctx: usize) -> StepSpec {
        StepSpec {
            layer_runners: vec![batch; 32],
            ctx_lens: vec![ctx; batch],
            lm_head_evals: batch as f64,
            draft_slots: 0,
            self_draft_slots: 0,
            predictor_calls: 0.0,
        }
    }

    #[test]
    fn batching_amortizes_weight_reads() {
        let m = model();
        let one = m.decode_step_latency(&dense_step(1, 128));
        let eight = m.decode_step_latency(&dense_step(8, 128));
        // 8 sequences in one step cost far less than 8 separate steps...
        assert!(eight < 8.0 * one * 0.5, "eight {eight} vs one {one}");
        // ...but more than a single-sequence step.
        assert!(eight > one);
    }

    #[test]
    fn skipped_layers_save_weight_bytes_only_when_unanimous() {
        let m = model();
        let full = m.decode_step_latency(&dense_step(2, 64));
        // Both slots exit at layer 16: the last 16 layers stream nothing.
        let mut spec = dense_step(2, 64);
        for l in 16..32 {
            spec.layer_runners[l] = 0;
        }
        let both_exit = m.decode_step_latency(&spec);
        // Only one slot exits: weights still stream for all 32 layers.
        let mut spec = dense_step(2, 64);
        for l in 16..32 {
            spec.layer_runners[l] = 1;
        }
        let one_exits = m.decode_step_latency(&spec);
        assert!(both_exit < one_exits);
        assert!(one_exits < full);
        // The unanimous exit saves much more than the solo exit: decode is
        // memory-bound, so halving weight traffic nearly halves the step.
        assert!((full - both_exit) > 3.0 * (full - one_exits));
    }

    #[test]
    fn longer_context_costs_more() {
        let m = model();
        let short = m.decode_step_latency(&dense_step(1, 64));
        let long = m.decode_step_latency(&dense_step(1, 2048));
        assert!(long > short);
    }

    #[test]
    fn specee_overheads_are_priced() {
        let m = model();
        let mut spec = dense_step(1, 64);
        let base = m.decode_step_latency(&spec);
        spec.draft_slots = 1;
        spec.predictor_calls = 10.0;
        spec.lm_head_evals = 2.0; // one failed verification
        let with = m.decode_step_latency(&spec);
        assert!(with > base);
        // Overheads stay a modest fraction of a full step (§7.4.4).
        assert!(with < base * 1.25, "with {with} base {base}");
    }

    #[test]
    fn self_draft_prices_strictly_cheaper_than_a_separate_draft() {
        // The perf claim of the mode, priced: at equal layer work, a
        // self-draft slot (tied-head expansion FLOPs only) must cost
        // strictly less than a separate-draft slot (which streams its
        // own draft-network weights every step).
        let m = model();
        let mut separate = dense_step(4, 256);
        separate.draft_slots = 4;
        let mut selfd = dense_step(4, 256);
        selfd.self_draft_slots = 4;
        let sep = m.decode_step_latency(&separate);
        let slf = m.decode_step_latency(&selfd);
        assert!(slf < sep, "self {slf} vs separate {sep}");
        // And it is not free: the expansion reads are priced.
        let base = m.decode_step_latency(&dense_step(4, 256));
        assert!(slf > base);
    }

    #[test]
    fn prefill_scales_with_prompt_tokens() {
        let m = model();
        let small = m.prefill_latency(&[32]);
        let large = m.prefill_latency(&[512]);
        assert!(large > small);
        assert_eq!(m.prefill_latency(&[]), 0.0);
        // Batched prefill beats sequential prefills.
        let batched = m.prefill_latency(&[128, 128]);
        assert!(batched < 2.0 * m.prefill_latency(&[128]));
    }

    #[test]
    #[should_panic(expected = "one runner count per layer")]
    fn runner_vector_must_match_depth() {
        let m = model();
        let _ = m.decode_step_latency(&StepSpec {
            layer_runners: vec![1; 8],
            ctx_lens: vec![10],
            lm_head_evals: 1.0,
            draft_slots: 0,
            self_draft_slots: 0,
            predictor_calls: 0.0,
        });
    }
}
