//! The executable decoder-only transformer.

use std::sync::Arc;

use specee_metrics::Meter;
use specee_tensor::{ops, rng::Pcg, BackendKind, QuantBits};

use crate::attention::{attention_forward_rows, attention_forward_tree_partial, Seat, TreeKv};
use crate::calibration::ActivationTap;
use crate::config::{ModelConfig, TokenId};
use crate::ffn::{ffn_apply, ffn_apply_sparse, FfnMode, FfnRouter};
use crate::kv::{KvCache, KvLayout, SkipKvPolicy};
use crate::linear::LinearOp;
use crate::metering::OpScale;
use crate::rope::RopeFreqs;
use crate::traits::LayeredLm;
use crate::weights::ModelWeights;

/// A from-scratch Llama-style decoder with per-layer stepping.
///
/// Everything immutable after construction (the weights and the sparse-FFN
/// routers) sits behind one [`Arc`], so `clone()` copies only per-sequence
/// state — KV caches, backend, calibration tap — and every clone streams
/// the same weight bytes. The mutators ([`Transformer::quantize`],
/// [`Transformer::enable_sparse_ffn`], AWQ) are copy-on-write: they detach
/// the instance they are called on and leave its siblings alone.
///
/// # Examples
///
/// ```
/// use specee_model::{ModelConfig, Transformer};
/// use specee_model::traits::LayeredLm;
/// use specee_metrics::Meter;
/// use specee_tensor::rng::Pcg;
///
/// let cfg = ModelConfig::tiny();
/// let mut model = Transformer::random(cfg.clone(), &mut Pcg::seed(1));
/// let mut meter = Meter::new();
/// let mut h = model.begin_token(5, &mut meter);
/// for layer in 0..cfg.n_layers {
///     h = model.forward_layer(layer, &h, 0, &mut meter);
/// }
/// let logits = model.final_logits(&h, &mut meter);
/// assert_eq!(logits.len(), cfg.vocab_size);
/// ```
#[derive(Debug, Clone)]
pub struct Transformer {
    config: ModelConfig,
    shared: Arc<Shared>,
    caches: Vec<KvCache>,
    ffn_mode: FfnMode,
    scale: OpScale,
    /// Compute backend every projection mat-vec dispatches through.
    backend: BackendKind,
    /// Armed during AWQ calibration runs; `None` on the hot path.
    tap: Option<ActivationTap>,
}

/// What every clone of a [`Transformer`] shares.
#[derive(Debug, Clone)]
struct Shared {
    weights: ModelWeights,
    routers: Vec<FfnRouter>,
    rope: RopeFreqs,
}

impl Transformer {
    /// Builds a transformer from explicit weights with a contiguous cache.
    pub fn new(config: ModelConfig, weights: ModelWeights) -> Self {
        Self::with_layout(config, weights, KvLayout::Contiguous)
    }

    /// Builds a transformer with the given KV layout.
    pub fn with_layout(config: ModelConfig, weights: ModelWeights, layout: KvLayout) -> Self {
        config.validate().expect("valid config");
        let caches = (0..config.n_layers)
            .map(|_| KvCache::new(config.hidden_dim, layout))
            .collect();
        let scale = OpScale::of(&config);
        let rope = RopeFreqs::new(config.head_dim(), config.rope_theta);
        Transformer {
            config,
            shared: Arc::new(Shared {
                weights,
                routers: Vec::new(),
                rope,
            }),
            caches,
            ffn_mode: FfnMode::Dense,
            scale,
            backend: BackendKind::default(),
            tap: None,
        }
    }

    /// Builds a randomly-initialized transformer.
    pub fn random(config: ModelConfig, rng: &mut Pcg) -> Self {
        let weights = ModelWeights::random(&config, rng);
        Self::new(config, weights)
    }

    /// Switches to sparse-activation FFNs (PowerInfer substitution),
    /// creating one router per layer.
    pub fn enable_sparse_ffn(&mut self, active_frac: f32, router_rank: usize, rng: &mut Pcg) {
        Arc::make_mut(&mut self.shared).routers = (0..self.config.n_layers)
            .map(|_| {
                FfnRouter::random(
                    self.config.hidden_dim,
                    self.config.ffn_dim,
                    router_rank,
                    rng,
                )
            })
            .collect();
        self.ffn_mode = FfnMode::Sparse {
            active_frac,
            router_rank,
        };
    }

    /// Quantizes all projection weights with plain round-to-nearest.
    /// Callers should pair this with a cost twin carrying the matching
    /// `weight_bits`. For activation-calibrated quantization see
    /// [`crate::calibration::quantize_awq`].
    pub fn quantize(&mut self, bits: QuantBits) {
        Arc::make_mut(&mut self.shared).weights.quantize(bits);
    }

    /// Arms the AWQ calibration tap: subsequent forwards record linear-op
    /// inputs until [`Transformer::take_calibration_tap`].
    pub fn start_calibration_tap(&mut self) {
        self.tap = Some(ActivationTap::new(self.config.n_layers));
    }

    /// Disarms the tap and returns the recorded activations (`None` if the
    /// tap was never armed).
    pub fn take_calibration_tap(&mut self) -> Option<ActivationTap> {
        self.tap.take()
    }

    /// Applies AWQ quantization from recorded activations: calibrated
    /// channel scales for the norm-fed projections (`wq`/`wk`/`wv`,
    /// `w_gate`/`w_up`, LM head), round-to-nearest for `wo`/`w_down`.
    pub(crate) fn apply_awq(&mut self, bits: QuantBits, tap: &ActivationTap) {
        let weights = &mut Arc::make_mut(&mut self.shared).weights;
        for (layer, w) in weights.layers.iter_mut().enumerate() {
            for op in [&mut w.wq, &mut w.wk, &mut w.wv] {
                if let LinearOp::Dense(m) = op {
                    *op = LinearOp::awq_quantized(m, bits, &tap.attn_in[layer]);
                }
            }
            for op in [&mut w.w_gate, &mut w.w_up] {
                if let LinearOp::Dense(m) = op {
                    *op = LinearOp::awq_quantized(m, bits, &tap.ffn_in[layer]);
                }
            }
            for op in [&mut w.wo, &mut w.w_down] {
                if let LinearOp::Dense(m) = op {
                    *op = LinearOp::quantized(m, bits);
                }
            }
        }
        if let LinearOp::Dense(m) = &weights.lm_head {
            weights.lm_head = LinearOp::awq_quantized(m, bits, &tap.head_in);
        }
    }

    /// Switches the KV layout (clears cached positions).
    pub fn set_kv_layout(&mut self, layout: KvLayout) {
        self.caches = (0..self.config.n_layers)
            .map(|_| KvCache::new(self.config.hidden_dim, layout))
            .collect();
    }

    /// Borrows layer `layer`'s KV cache (read-only; engine-tier tests use
    /// this to check split-commit invariants row by row).
    pub fn cache(&self, layer: usize) -> &KvCache {
        &self.caches[layer]
    }

    /// Borrows the weights.
    pub fn weights(&self) -> &ModelWeights {
        &self.shared.weights
    }

    /// Whether `self` and `other` read the same weight allocation (true
    /// for clones until one of them is quantized or given sparse FFNs).
    pub fn shares_weights_with(&self, other: &Transformer) -> bool {
        Arc::ptr_eq(&self.shared, &other.shared)
    }

    /// The pricing scale in use.
    pub fn scale(&self) -> &OpScale {
        &self.scale
    }

    /// Selects the compute backend for every subsequent forward.
    /// [`BackendKind::Reference`] (the default) is the scalar oracle;
    /// [`BackendKind::Blocked`] is bit-identical on dense weights.
    pub fn set_backend(&mut self, backend: BackendKind) {
        self.backend = backend;
    }

    /// The compute backend in use.
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// Runs decoder layer `layer` over the consecutive positions `base..`
    /// (one hidden state each in `hs`), appending their K/V rows. The
    /// projections and the dense FFN take one weight pass for the whole
    /// span while attention stays causal, so outputs, cache rows and
    /// [`Meter`] records are bit-identical to calling
    /// [`LayeredLm::forward_layer`] position by position — which is this
    /// with a span of one.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range or `base` is not the number of
    /// positions this layer has cached.
    pub fn forward_layer_span<H: AsRef<[f32]>>(
        &mut self,
        layer: usize,
        hs: &[H],
        base: usize,
        meter: &mut Meter,
    ) -> Vec<Vec<f32>> {
        Self::layer_rows(&mut [self], layer, hs, [(base, hs.len())], meter)
    }

    /// The decoder layer — norm → q/k/v → RoPE → append → attend → `wo` →
    /// residual → FFN — over the rows `hs`, dealt to `members` in order:
    /// member `i` takes `spans[i] = (base, rows)`, that many rows at
    /// positions `base..` of its own cache. All members must read the
    /// first one's weights on its backend; only a lone member may be tapped.
    fn layer_rows<H: AsRef<[f32]>>(
        members: &mut [&mut Self],
        layer: usize,
        hs: &[H],
        spans: impl IntoIterator<Item = (usize, usize)>,
        meter: &mut Meter,
    ) -> Vec<Vec<f32>> {
        let (lead, rest) = members.split_first_mut().expect("at least one member");
        assert!(layer < lead.config.n_layers, "layer {layer} out of range");
        let w = &lead.shared.weights.layers[layer];
        let normed = pack_normed(hs, &w.attn_norm);
        let mut seats: Vec<Seat<'_>> = std::iter::once(&mut lead.caches[layer])
            .chain(rest.iter_mut().map(|m| &mut m.caches[layer]))
            .zip(spans)
            .map(|(cache, (base, rows))| Seat { cache, base, rows })
            .collect();
        let attn = attention_forward_rows(
            w,
            &lead.config,
            &lead.scale,
            lead.backend,
            &lead.shared.rope,
            &normed,
            &mut seats,
            meter,
        );
        let (outs, normed2) = lead.residual_ffn(layer, hs, &attn);
        for _ in hs {
            match lead.ffn_mode {
                FfnMode::Dense => lead.scale.record_ffn(meter),
                FfnMode::Sparse { active_frac, .. } => lead.scale.record_ffn_sparse(
                    meter,
                    active_frac as f64,
                    lead.shared.routers[layer].rank(),
                ),
            }
            lead.scale.record_norms(meter);
        }
        if let Some(tap) = &mut lead.tap {
            let dim = lead.config.hidden_dim;
            for (a, f) in normed.chunks_exact(dim).zip(normed2.chunks_exact(dim)) {
                tap.record_attn(layer, a);
                tap.record_ffn(layer, f);
            }
        }
        outs
    }

    /// Runs decoder layer `layer` over the nodes `first_new..` of a draft
    /// tree (all of them when `first_new` is 0 and `scratch` empty).
    fn tree_layer(
        &self,
        layer: usize,
        new_hs: &[Vec<f32>],
        parents: &[Option<usize>],
        first_new: usize,
        scratch: &mut TreeKv,
        meter: &mut Meter,
    ) -> Vec<Vec<f32>> {
        assert!(layer < self.config.n_layers, "layer {layer} out of range");
        let w = &self.shared.weights.layers[layer];
        let normed = pack_normed(new_hs, &w.attn_norm);
        let attn = attention_forward_tree_partial(
            w,
            &self.config,
            &self.scale,
            self.backend,
            &self.shared.rope,
            &normed,
            parents,
            first_new,
            &self.caches[layer],
            scratch,
            meter,
        );
        let (outs, _) = self.residual_ffn(layer, new_hs, &attn);
        // Batched metering: the FFN/norm weights are read once per layer
        // regardless of how many tree nodes flow through.
        match self.ffn_mode {
            FfnMode::Dense => self.scale.record_ffn_tree(meter, new_hs.len()),
            FfnMode::Sparse {
                active_frac,
                router_rank,
            } => self.scale.record_ffn_sparse_tree(
                meter,
                new_hs.len(),
                active_frac as f64,
                router_rank,
            ),
        }
        self.scale.record_norms_tree(meter, new_hs.len());
        outs
    }

    /// The back half of decoder layer `layer` for a batch of positions:
    /// residual add of the packed attention outputs `attn`, FFN norm, FFN
    /// (one weight pass for the batch when dense), residual add. Returns
    /// the layer outputs and the packed FFN inputs; metering is the
    /// caller's, since spans and trees price it differently.
    fn residual_ffn<H: AsRef<[f32]>>(
        &self,
        layer: usize,
        hs: &[H],
        attn: &[f32],
    ) -> (Vec<Vec<f32>>, Vec<f32>) {
        let w = &self.shared.weights.layers[layer];
        let dim = self.config.hidden_dim;
        let mut outs: Vec<Vec<f32>> = hs
            .iter()
            .zip(attn.chunks_exact(dim))
            .map(|(h, a)| h.as_ref().iter().zip(a).map(|(x, y)| x + y).collect())
            .collect();
        let normed = pack_normed(&outs, &w.ffn_norm);
        let ffn: Vec<f32> = match self.ffn_mode {
            FfnMode::Dense => ffn_apply(w, self.backend, &normed, outs.len()),
            FfnMode::Sparse { active_frac, .. } => normed
                .chunks_exact(dim)
                .flat_map(|x| ffn_apply_sparse(w, &self.shared.routers[layer], active_frac, x))
                .collect(),
        };
        for (out, f) in outs.iter_mut().zip(ffn.chunks_exact(dim)) {
            for (m, f) in out.iter_mut().zip(f) {
                *m += f;
            }
        }
        (outs, normed)
    }

    /// The full LM head over `hs`: one weight pass, logits per row.
    fn head_rows<H: AsRef<[f32]>>(&self, hs: &[H]) -> Vec<Vec<f32>> {
        let w = &self.shared.weights;
        let normed = pack_normed(hs, &w.final_norm);
        w.lm_head
            .matmul_with(self.backend, &normed, hs.len())
            .chunks_exact(w.lm_head.rows())
            .map(<[f32]>::to_vec)
            .collect()
    }

    /// Whether `group` can take one weight pass: one set of weights, one
    /// kernel to pass them through, and no calibration tap (a tap records
    /// per sequence).
    fn one_pass(group: &[&mut Self]) -> bool {
        group.iter().all(|m| {
            m.shares_weights_with(group[0]) && m.backend == group[0].backend && m.tap.is_none()
        })
    }
}

fn normed(h: &[f32], gain: &[f32]) -> Vec<f32> {
    ops::rmsnorm(h, gain, 1e-5)
}

/// [`normed`] copies of `hs`, packed row-major for the batched kernels.
fn pack_normed<H: AsRef<[f32]>>(hs: &[H], gain: &[f32]) -> Vec<f32> {
    hs.iter().flat_map(|h| normed(h.as_ref(), gain)).collect()
}

impl LayeredLm for Transformer {
    fn config(&self) -> &ModelConfig {
        &self.config
    }

    fn set_backend(&mut self, backend: BackendKind) {
        Transformer::set_backend(self, backend);
    }

    fn backend(&self) -> BackendKind {
        self.backend
    }

    fn reset(&mut self) {
        for c in &mut self.caches {
            c.clear();
        }
    }

    fn begin_token(&mut self, token: TokenId, meter: &mut Meter) -> Vec<f32> {
        assert!(
            (token as usize) < self.config.vocab_size,
            "token {token} out of vocabulary"
        );
        self.scale.record_embed(meter);
        self.shared.weights.embed.row(token as usize).to_vec()
    }

    fn forward_layer(
        &mut self,
        layer: usize,
        h: &[f32],
        pos: usize,
        meter: &mut Meter,
    ) -> Vec<f32> {
        self.forward_layer_span(layer, &[h], pos, meter)
            .pop()
            .expect("one position in, one out")
    }

    fn forward_layer_group(
        group: &mut [&mut Self],
        layer: usize,
        hs: &[&[f32]],
        positions: &[usize],
        meter: &mut Meter,
    ) -> Vec<Vec<f32>> {
        if Self::one_pass(group) && !group.is_empty() {
            let spans = positions.iter().map(|&pos| (pos, 1));
            return Self::layer_rows(group, layer, hs, spans, meter);
        }
        (0..group.len())
            .map(|i| group[i].forward_layer(layer, hs[i], positions[i], meter))
            .collect()
    }

    fn prefill(&mut self, prompt: &[TokenId], meter: &mut Meter) -> Vec<f32> {
        assert!(!prompt.is_empty(), "prompt must be non-empty");
        let base = self.kv_len();
        let mut hs: Vec<Vec<f32>> = prompt
            .iter()
            .map(|&tok| self.begin_token(tok, meter))
            .collect();
        for layer in 0..self.config.n_layers {
            hs = self.forward_layer_span(layer, &hs, base, meter);
        }
        hs.pop().expect("non-empty prompt")
    }

    fn adopt_prefix(&mut self, donor: &Self, tokens: &[TokenId]) -> bool {
        // A prompt row is a function of the weights, the kernel and the
        // tokens up to it — `matmul_into` is bit-identical per input
        // whatever the span — so under one weight set and one backend the
        // donor's rows are the rows a prefill here would write. An armed
        // tap would have recorded that prefill's activations.
        let same_rows = self.shares_weights_with(donor)
            && self.backend == donor.backend
            && self.tap.is_none()
            && self.caches.iter().all(KvCache::is_empty)
            && donor.caches.iter().all(|c| c.len() >= tokens.len());
        if same_rows {
            for (own, theirs) in self.caches.iter_mut().zip(&donor.caches) {
                own.extend_from_prefix(theirs, tokens.len());
            }
        }
        same_rows
    }

    fn begin_tree(
        &mut self,
        tokens: &[TokenId],
        parents: &[Option<usize>],
        meter: &mut Meter,
    ) -> Vec<Vec<f32>> {
        assert_eq!(tokens.len(), parents.len(), "tokens/parents length");
        tokens.iter().map(|&t| self.begin_token(t, meter)).collect()
    }

    fn forward_layer_tree(
        &mut self,
        layer: usize,
        hs: &[Vec<f32>],
        parents: &[Option<usize>],
        meter: &mut Meter,
    ) -> (Vec<Vec<f32>>, TreeKv) {
        let mut tree_kv = TreeKv::default();
        let outs = self.tree_layer(layer, hs, parents, 0, &mut tree_kv, meter);
        (outs, tree_kv)
    }

    fn extend_tree(
        &mut self,
        tokens: &[TokenId],
        parents: &[Option<usize>],
        first_new: usize,
        meter: &mut Meter,
    ) -> Vec<Vec<f32>> {
        assert_eq!(
            parents.len(),
            first_new + tokens.len(),
            "parents must cover old and new nodes"
        );
        tokens.iter().map(|&t| self.begin_token(t, meter)).collect()
    }

    fn forward_layer_tree_partial(
        &mut self,
        layer: usize,
        new_hs: &[Vec<f32>],
        parents: &[Option<usize>],
        first_new: usize,
        scratch: &mut TreeKv,
        meter: &mut Meter,
    ) -> Vec<Vec<f32>> {
        self.tree_layer(layer, new_hs, parents, first_new, scratch, meter)
    }

    fn commit_tree_kv(&mut self, layer: usize, kv: &TreeKv, accepted: &[usize]) {
        let cache = &mut self.caches[layer];
        for &i in accepted {
            cache.push(&kv.k[i], &kv.v[i]);
        }
    }

    fn accept_tokens(&mut self, _tokens: &[TokenId]) {
        // The plain transformer keeps no semantic context; KV commitment is
        // handled by `commit_tree_kv`.
    }

    fn fill_layer_kv(
        &mut self,
        layer: usize,
        h: &[f32],
        pos: usize,
        policy: SkipKvPolicy,
        meter: &mut Meter,
    ) {
        let w = &self.shared.weights.layers[layer];
        let cache = &mut self.caches[layer];
        debug_assert_eq!(cache.len(), pos, "skip-fill position");
        match policy {
            SkipKvPolicy::ProjectExitHidden => {
                let normed = ops::rmsnorm(h, &w.attn_norm, 1e-5);
                let mut k = w.wk.matvec_with(self.backend, &normed);
                self.shared.rope.rotate(&mut k, pos, self.config.n_heads);
                let v = w.wv.matvec_with(self.backend, &normed);
                cache.push(&k, &v);
                self.scale.record_skip_kv_fill(meter);
            }
            SkipKvPolicy::ReuseLast => {
                if cache.is_empty() {
                    cache.push_zero();
                } else {
                    cache.push_repeat_last();
                }
            }
            SkipKvPolicy::ZeroFill => cache.push_zero(),
        }
    }

    fn fill_skipped_kv_group(
        group: &mut [&mut Self],
        first_skipped: &[usize],
        hs: &[&[f32]],
        positions: &[usize],
        policy: SkipKvPolicy,
        meter: &mut Meter,
    ) {
        // Only the projecting policy reads weights; the other two copy or
        // zero a row per member whichever way they are called.
        if policy != SkipKvPolicy::ProjectExitHidden || !Self::one_pass(group) || group.is_empty() {
            for (i, m) in group.iter_mut().enumerate() {
                m.fill_skipped_kv(first_skipped[i], hs[i], positions[i], policy, meter);
            }
            return;
        }
        // Members in the order they left: a layer's skippers are a prefix.
        // (`fill_layer_kv` is deliberately not routed through here: it is
        // the reference this pass is tested against.)
        let mut order: Vec<usize> = (0..group.len()).collect();
        order.sort_by_key(|&i| first_skipped[i]);
        let (shared, backend) = (Arc::clone(&group[0].shared), group[0].backend);
        for layer in first_skipped[order[0]]..group[0].config.n_layers {
            let skippers = &order[..order.partition_point(|&i| first_skipped[i] <= layer)];
            let w = &shared.weights.layers[layer];
            let rows: Vec<&[f32]> = skippers.iter().map(|&i| hs[i]).collect();
            let normed = pack_normed(&rows, &w.attn_norm);
            let mut ks = w.wk.matmul_with(backend, &normed, rows.len());
            let vs = w.wv.matmul_with(backend, &normed, rows.len());
            let kv_dim = w.wk.rows();
            let kv = ks.chunks_exact_mut(kv_dim).zip(vs.chunks_exact(kv_dim));
            for (&i, (k, v)) in skippers.iter().zip(kv) {
                let m = &mut *group[i];
                debug_assert_eq!(m.caches[layer].len(), positions[i], "skip-fill position");
                shared.rope.rotate(k, positions[i], m.config.n_heads);
                m.caches[layer].push(k, v);
                m.scale.record_skip_kv_fill(meter);
            }
        }
    }

    fn final_logits(&mut self, h: &[f32], meter: &mut Meter) -> Vec<f32> {
        let normed = normed(h, &self.shared.weights.final_norm);
        if let Some(tap) = &mut self.tap {
            tap.record_head(&normed);
        }
        self.scale.record_lm_head_full(meter);
        self.shared
            .weights
            .lm_head
            .matvec_with(self.backend, &normed)
    }

    fn final_logits_group(
        group: &mut [&mut Self],
        hs: &[&[f32]],
        meter: &mut Meter,
    ) -> Vec<Vec<f32>> {
        if !Self::one_pass(group) || group.is_empty() {
            return (0..group.len())
                .map(|i| group[i].final_logits(hs[i], meter))
                .collect();
        }
        for m in group.iter() {
            m.scale.record_lm_head_full(meter);
        }
        group[0].head_rows(hs)
    }

    fn final_logits_batch(&mut self, hs: &[Vec<f32>], meter: &mut Meter) -> Vec<Vec<f32>> {
        self.scale.record_lm_head_full_batch(meter, hs.len());
        self.head_rows(hs)
    }

    fn slice_logits(&mut self, h: &[f32], tokens: &[TokenId], meter: &mut Meter) -> Vec<f32> {
        let normed = normed(h, &self.shared.weights.final_norm);
        self.scale.record_lm_head_slice(meter, tokens.len());
        let rows: Vec<usize> = tokens.iter().map(|&t| t as usize).collect();
        self.shared.weights.lm_head.matvec_rows(&rows, &normed)
    }

    fn grouped_slice_logits(
        &mut self,
        hs: &[&[f32]],
        candidate_sets: &[&[TokenId]],
        meter: &mut Meter,
    ) -> Vec<Vec<f32>> {
        assert_eq!(hs.len(), candidate_sets.len(), "groups mismatch");
        let total_k: usize = candidate_sets.iter().map(|c| c.len()).sum();
        self.scale.record_lm_head_slice(meter, total_k);
        hs.iter()
            .zip(candidate_sets.iter())
            .map(|(h, tokens)| {
                let normed = normed(h, &self.shared.weights.final_norm);
                let rows: Vec<usize> = tokens.iter().map(|&t| t as usize).collect();
                self.shared.weights.lm_head.matvec_rows(&rows, &normed)
            })
            .collect()
    }

    fn kv_len(&self) -> usize {
        self.caches.first().map_or(0, KvCache::len)
    }

    fn truncate_kv(&mut self, len: usize) {
        for c in &mut self.caches {
            c.truncate(len);
        }
    }

    fn allocated_kv_tokens(&self) -> usize {
        self.caches.iter().map(KvCache::allocated_tokens).sum()
    }

    fn modelled_weight_bytes(&self) -> f64 {
        match &self.config.cost {
            Some(c) => c.weight_bytes_total(),
            None => self.shared.weights.bytes() as f64,
        }
    }
}

/// Runs a full prompt prefill through all layers, committing KV for every
/// prompt position, and returns the final hidden state of the last prompt
/// token — [`LayeredLm::prefill`] as a free function.
///
/// # Panics
///
/// Panics if `prompt` is empty.
pub fn prefill<M: LayeredLm + ?Sized>(
    model: &mut M,
    prompt: &[TokenId],
    meter: &mut Meter,
) -> Vec<f32> {
    model.prefill(prompt, meter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use specee_tensor::ops::argmax;

    fn model() -> Transformer {
        Transformer::random(ModelConfig::tiny(), &mut Pcg::seed(42))
    }

    #[test]
    fn full_forward_produces_vocab_logits() {
        let mut m = model();
        let mut meter = Meter::new();
        let h = prefill(&mut m, &[1, 2, 3], &mut meter);
        let logits = m.final_logits(&h, &mut meter);
        assert_eq!(logits.len(), m.config().vocab_size);
        assert_eq!(m.kv_len(), 3);
        assert!(argmax(&logits).is_some());
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = model();
        let mut b = model();
        let mut meter = Meter::new();
        let ha = prefill(&mut a, &[5, 9], &mut meter);
        let hb = prefill(&mut b, &[5, 9], &mut meter);
        assert_eq!(ha, hb);
    }

    #[test]
    fn slice_logits_match_full_logits() {
        let mut m = model();
        let mut meter = Meter::new();
        let h = prefill(&mut m, &[7], &mut meter);
        let full = m.final_logits(&h, &mut meter);
        let slice = m.slice_logits(&h, &[3, 11, 64], &mut meter);
        assert!((slice[0] - full[3]).abs() < 1e-5);
        assert!((slice[1] - full[11]).abs() < 1e-5);
        assert!((slice[2] - full[64]).abs() < 1e-5);
    }

    #[test]
    fn reset_clears_kv() {
        let mut m = model();
        let mut meter = Meter::new();
        prefill(&mut m, &[1, 2], &mut meter);
        m.reset();
        assert_eq!(m.kv_len(), 0);
    }

    #[test]
    fn fill_skipped_kv_advances_all_layers() {
        let mut m = model();
        let mut meter = Meter::new();
        // run position 0 through only 2 of 4 layers
        let mut h = m.begin_token(1, &mut meter);
        for layer in 0..2 {
            h = m.forward_layer(layer, &h, 0, &mut meter);
        }
        m.fill_skipped_kv(2, &h, 0, SkipKvPolicy::ProjectExitHidden, &mut meter);
        for layer in 0..4 {
            assert_eq!(m.caches[layer].len(), 1, "layer {layer}");
        }
        // next token can now run all layers
        let mut h2 = m.begin_token(2, &mut meter);
        for layer in 0..4 {
            h2 = m.forward_layer(layer, &h2, 1, &mut meter);
        }
        assert_eq!(m.kv_len(), 2);
    }

    #[test]
    fn zero_fill_policy_pushes_zeros() {
        let mut m = model();
        let mut meter = Meter::new();
        let h = m.begin_token(1, &mut meter);
        let h = m.forward_layer(0, &h, 0, &mut meter);
        m.fill_skipped_kv(1, &h, 0, SkipKvPolicy::ZeroFill, &mut meter);
        assert_eq!(m.caches[3].key(0), vec![0.0; 32].as_slice());
    }

    #[test]
    fn tree_commit_matches_sequential_kv() {
        let mut m = model();
        let mut meter = Meter::new();
        prefill(&mut m, &[4, 6], &mut meter);
        let kv_before = m.kv_len();

        // One-node tree through all layers, then commit.
        let tokens = [9u32];
        let parents = [None];
        let mut hs = m.begin_tree(&tokens, &parents, &mut meter);
        let mut kvs = Vec::new();
        for layer in 0..m.config().n_layers {
            let (out, kv) = m.forward_layer_tree(layer, &hs, &parents, &mut meter);
            hs = out;
            kvs.push(kv);
        }
        for (layer, kv) in kvs.iter().enumerate() {
            m.commit_tree_kv(layer, kv, &[0]);
        }
        assert_eq!(m.kv_len(), kv_before + 1);

        // Sequential reference on a fresh, identical model.
        let mut reference = model();
        prefill(&mut reference, &[4, 6], &mut meter);
        let mut h = reference.begin_token(9, &mut meter);
        for layer in 0..reference.config().n_layers {
            h = reference.forward_layer(layer, &h, 2, &mut meter);
        }
        assert_eq!(hs[0], h, "bit for bit");
        for layer in 0..4 {
            assert_eq!(m.caches[layer], reference.caches[layer], "layer {layer}");
        }
    }

    #[test]
    fn split_kv_draft_then_resume_matches_full_sweep_bit_for_bit() {
        // The self-draft split: layers 0..exit run incrementally while the
        // tree grows (the draft pass), layers exit.. run once over the
        // finished tree (the verify pass). Both halves must match the
        // one-shot full sweep bit for bit, and committing the draft-pass
        // scratch must leave the caches exactly as if the shallow layers
        // had been re-run — without actually re-running them.
        let exit = 2usize;
        let tokens = [9u32, 5, 7];
        let parents = [None, Some(0), Some(1)];

        let mut m = model();
        let mut meter = Meter::new();
        prefill(&mut m, &[4, 6], &mut meter);

        // Draft pass: grow the chain one node at a time through the
        // shallow layers, keeping per-layer exit hiddens and scratch KV.
        let mut shallow_kvs: Vec<TreeKv> = vec![TreeKv::default(); exit];
        let mut exit_hs: Vec<Vec<f32>> = Vec::new();
        for first_new in 0..tokens.len() {
            let mut hs = m.extend_tree(
                &tokens[first_new..first_new + 1],
                &parents[..first_new + 1],
                first_new,
                &mut meter,
            );
            for (layer, scratch) in shallow_kvs.iter_mut().enumerate() {
                hs = m.forward_layer_tree_partial(
                    layer,
                    &hs,
                    &parents[..first_new + 1],
                    first_new,
                    scratch,
                    &mut meter,
                );
            }
            exit_hs.extend(hs);
        }

        // Verify pass: resume from the exit-layer hiddens over all nodes.
        let mut hs = exit_hs.clone();
        let mut deep_kvs = Vec::new();
        for layer in exit..m.config().n_layers {
            let (out, kv) = m.forward_layer_tree(layer, &hs, &parents, &mut meter);
            hs = out;
            deep_kvs.push(kv);
        }

        // One-shot full sweep on a fresh, identical model.
        let mut full = model();
        prefill(&mut full, &[4, 6], &mut meter);
        let mut fhs = full.begin_tree(&tokens, &parents, &mut meter);
        let mut full_kvs = Vec::new();
        for layer in 0..full.config().n_layers {
            let (out, kv) = full.forward_layer_tree(layer, &fhs, &parents, &mut meter);
            fhs = out;
            full_kvs.push(kv);
        }
        assert_eq!(hs, fhs, "split sweep must match the full sweep bit for bit");
        for layer in 0..exit {
            assert_eq!(shallow_kvs[layer], full_kvs[layer], "layer {layer}");
        }

        // Commit: shallow layers from the draft-pass scratch (no second
        // shallow forward), deep layers from the verify pass.
        let accepted = [0usize, 1];
        for (layer, kv) in shallow_kvs.iter().enumerate() {
            m.commit_tree_kv(layer, kv, &accepted);
        }
        for (i, kv) in deep_kvs.iter().enumerate() {
            m.commit_tree_kv(exit + i, kv, &accepted);
        }
        assert_eq!(m.kv_len(), 2 + accepted.len());

        // Sequential reference: the committed caches must match a model
        // that decoded the accepted tokens one at a time.
        let mut reference = model();
        prefill(&mut reference, &[4, 6], &mut meter);
        for (ord, &tok) in [9u32, 5].iter().enumerate() {
            let mut h = reference.begin_token(tok, &mut meter);
            for layer in 0..reference.config().n_layers {
                h = reference.forward_layer(layer, &h, 2 + ord, &mut meter);
            }
        }
        for layer in 0..4 {
            assert_eq!(m.caches[layer], reference.caches[layer], "layer {layer}");
        }
    }

    #[test]
    fn quantized_model_still_decodes() {
        let mut m = model();
        m.quantize(QuantBits::Int8);
        let mut meter = Meter::new();
        let h = prefill(&mut m, &[3, 2, 1], &mut meter);
        assert_eq!(m.final_logits(&h, &mut meter).len(), 128);
    }

    #[test]
    fn clone_shares_weights_and_quantize_detaches_only_the_clone() {
        let original = model();
        let dense = original.weights().clone();
        let mut clone = original.clone();
        assert!(clone.shares_weights_with(&original));

        clone.quantize(QuantBits::Int8);
        assert!(!clone.shares_weights_with(&original));
        assert!(matches!(clone.weights().layers[0].wq, LinearOp::Quant(_)));
        assert_eq!(original.weights(), &dense, "the original stays dense");

        let mut sparse = original.clone();
        sparse.enable_sparse_ffn(0.25, 4, &mut Pcg::seed(9));
        assert!(!sparse.shares_weights_with(&original));
        assert!(original.clone().shares_weights_with(&original));
    }

    #[test]
    fn sparse_ffn_model_still_decodes() {
        let mut m = model();
        m.enable_sparse_ffn(0.25, 4, &mut Pcg::seed(9));
        let mut meter = Meter::new();
        let h = prefill(&mut m, &[3, 2, 1], &mut meter);
        assert_eq!(m.final_logits(&h, &mut meter).len(), 128);
    }
}
