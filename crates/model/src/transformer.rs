//! The executable decoder-only transformer.

use std::borrow::Cow;
use std::sync::Arc;

use specee_metrics::Meter;
use specee_tensor::{ops, rng::Pcg, BackendKind, QuantBits};

use crate::attention::{
    attention_forward_rows, attention_forward_tree_partial, project_qkv, push_owed, Seat, TreeKv,
};
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
/// Under [`SkipKvPolicy::ProjectExitHidden`] an early exit does not
/// compute the skipped layers' K/V: it records the rows as owed — position,
/// first skipped layer, exit hidden state — and meters them as computed.
/// The next Q|K|V pass over such a layer — a decode or group step, a
/// prefill span, a tree pass — projects its owed rows as extra inputs, so
/// they cost no weight pass of their own, and a row no later token reads
/// is never projected. Only the eager [`LayeredLm::fill_layer_kv`], the
/// reference, projects them on its own, and [`Transformer::cache`] shows
/// them projected: nothing outside can tell an owed row from a computed
/// one.
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
    /// Positions whose skipped layers' K/V rows are owed, in position
    /// order; a layer's owed rows are those it does not hold yet.
    owed: Vec<Owed>,
    ffn_mode: FfnMode,
    scale: OpScale,
    /// Compute backend every projection mat-vec dispatches through.
    backend: BackendKind,
    /// Armed during AWQ calibration runs; `None` on the hot path.
    tap: Option<ActivationTap>,
}

/// A position whose K/V rows in layers `first..` an early exit skipped,
/// owed until a pass over each of those layers projects `h`, the exit
/// hidden state, normalized for that layer.
#[derive(Debug, Clone)]
struct Owed {
    pos: usize,
    first: usize,
    h: Vec<f32>,
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
        config.validate().expect("valid config");
        let caches = (0..config.n_layers)
            .map(|_| KvCache::new(config.hidden_dim, KvLayout::Contiguous))
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
            owed: Vec::new(),
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
    /// channel scales for the norm-fed projections (`wqkv`, `w_gate_up`,
    /// LM head), round-to-nearest for `wo`/`w_down`. The search picks one α
    /// per stacked operator: the projections inside one read the same
    /// input, `attn_in` or `ffn_in`.
    pub(crate) fn apply_awq(&mut self, bits: QuantBits, tap: &ActivationTap) {
        let weights = &mut Arc::make_mut(&mut self.shared).weights;
        for (layer, w) in weights.layers.iter_mut().enumerate() {
            for (op, inputs) in [
                (&mut w.wqkv, &tap.attn_in[layer]),
                (&mut w.w_gate_up, &tap.ffn_in[layer]),
            ] {
                if let LinearOp::Dense(m) = op {
                    *op = LinearOp::awq_quantized(m, bits, inputs);
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

    /// Layer `layer`'s KV cache as the decode reads it: the cache itself
    /// when the layer owes nothing, else a copy of it with its owed rows
    /// projected (the decode state stays as it is). Engine-tier tests use
    /// this to check split-commit invariants row by row.
    pub fn cache(&self, layer: usize) -> Cow<'_, KvCache> {
        let mut cache = Cow::Borrowed(&self.caches[layer]);
        if self.owed_at(layer).next().is_some() {
            let [mut ks, vs] = self.owed_kv(layer);
            push_owed(
                cache.to_mut(),
                &self.shared.rope,
                self.config.n_heads,
                &mut ks,
                &vs,
            );
        }
        cache
    }

    /// The entries that owe layer `layer` a row, in position order: of
    /// those past the rows its cache holds, the ones that skipped it.
    fn owed_at(&self, layer: usize) -> impl Iterator<Item = &Owed> {
        let held = self.caches[layer].len();
        let past = self.owed.partition_point(|o| o.pos < held);
        self.owed[past..].iter().filter(move |o| o.first <= layer)
    }

    /// The inputs of a Q|K|V pass over layer `layer`: the rows `hs`, then
    /// the owed rows of each of `members` in turn, normalized for the layer
    /// and packed; and how many rows each member owes.
    fn qkv_inputs<'a, H: AsRef<[f32]>>(
        members: impl IntoIterator<Item = &'a Self>,
        layer: usize,
        hs: &'a [H],
    ) -> (Vec<f32>, Vec<usize>) {
        let mut rows: Vec<&[f32]> = hs.iter().map(AsRef::as_ref).collect();
        let (mut owed, mut gain) = (Vec::new(), &[][..]);
        for m in members {
            let before = rows.len();
            rows.extend(m.owed_at(layer).map(|o| &o.h[..]));
            owed.push(rows.len() - before);
            gain = &m.shared.weights.layers[layer].attn_norm;
        }
        (pack_normed(&rows, gain), owed)
    }

    /// Layer `layer`'s owed K and V rows, packed, keys unrotated: one pass
    /// over the stacked Q|K|V matrix for all of them, Q dropped.
    fn owed_kv(&self, layer: usize) -> [Vec<f32>; 2] {
        let (normed, _) = Self::qkv_inputs([self], layer, &[] as &[&[f32]]);
        let w = &self.shared.weights.layers[layer];
        project_qkv(w, self.backend, &normed, 0).1
    }

    /// Forgets the entries every layer now holds.
    fn drop_settled(&mut self) {
        let held = self.caches.iter().map(KvCache::len).min().unwrap_or(0);
        let settled = self.owed.partition_point(|o| o.pos < held);
        self.owed.drain(..settled);
    }

    /// Records the rows of layers `first..` at `pos` as owed, metered as
    /// the eager fill meters them: one skip fill per layer.
    fn owe(&mut self, first: usize, h: &[f32], pos: usize, meter: &mut Meter) {
        let n_layers = self.config.n_layers;
        if first >= n_layers {
            return;
        }
        for layer in first..n_layers {
            debug_assert_eq!(
                self.caches[layer].len() + self.owed_at(layer).count(),
                pos,
                "skip-fill position"
            );
            self.scale.record_skip_kv_fill(meter);
        }
        self.owed.push(Owed {
            pos,
            first,
            h: h.to_vec(),
        });
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
    /// [`BackendKind::Blocked`] (the default) is bit-identical to the
    /// [`BackendKind::Reference`] oracle on dense and pre-quantized weights.
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
        assert!(
            layer < members[0].config.n_layers,
            "layer {layer} out of range"
        );
        // The members' owed rows ride the Q|K|V pass after the rows of `hs`.
        let (normed, owed) = Self::qkv_inputs(members.iter().map(|m| &**m), layer, hs);
        let (lead, rest) = members.split_first_mut().expect("at least one member");
        let w = &lead.shared.weights.layers[layer];
        let mut seats: Vec<Seat<'_>> = std::iter::once(&mut lead.caches[layer])
            .chain(rest.iter_mut().map(|m| &mut m.caches[layer]))
            .zip(spans)
            .zip(&owed)
            .map(|((cache, (base, rows)), &owed)| Seat {
                cache,
                base,
                rows,
                owed,
            })
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
            let attn_in = normed[..hs.len() * dim].chunks_exact(dim);
            for (a, f) in attn_in.zip(normed2.chunks_exact(dim)) {
                tap.record_attn(layer, a);
                tap.record_ffn(layer, f);
            }
        }
        for (m, &owed) in members.iter_mut().zip(&owed) {
            if owed > 0 {
                m.drop_settled();
            }
        }
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
/// The squares are summed eight rows at a time, one lane a row, each lane
/// adding its own row's squares in index order — `ops::rmsnorm`'s chain —
/// so no sum mixes two rows and every row is [`normed`] bit for bit.
fn pack_normed<H: AsRef<[f32]>>(hs: &[H], gain: &[f32]) -> Vec<f32> {
    const LANES: usize = 8;
    let dim = gain.len();
    let mut packed = vec![0.0; hs.len() * dim];
    for (block, out) in hs.chunks(LANES).zip(packed.chunks_mut(LANES * dim)) {
        let mut rows: [&[f32]; LANES] = [&[]; LANES];
        for (row, h) in rows.iter_mut().zip(block) {
            *row = h.as_ref();
            assert_eq!(row.len(), dim, "rmsnorm shape");
        }
        let rows = &rows[..block.len()];
        let mut sums = [0.0f32; LANES];
        for i in 0..dim {
            for (sum, row) in sums.iter_mut().zip(rows) {
                *sum += row[i] * row[i];
            }
        }
        for ((row, sum), out) in rows.iter().zip(sums).zip(out.chunks_exact_mut(dim)) {
            let inv = 1.0 / (sum / dim as f32 + 1e-5).sqrt();
            for ((o, v), g) in out.iter_mut().zip(*row).zip(gain) {
                *o = v * inv * g;
            }
        }
    }
    packed
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
        self.owed.clear();
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
        // A donor that still owes a row of the prefix holds fewer than
        // `tokens.len()` rows in that layer, and is refused.
        let same_rows = self.shares_weights_with(donor)
            && self.backend == donor.backend
            && self.tap.is_none()
            && self.kv_len() == 0
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
        let outs = self.forward_layer_tree_partial(layer, hs, parents, 0, &mut tree_kv, meter);
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
        assert!(layer < self.config.n_layers, "layer {layer} out of range");
        // The layer's owed rows ride its Q|K|V pass, pushed before the
        // tree's base position is read.
        let (normed, owed) = Self::qkv_inputs([&*self], layer, new_hs);
        let attn = attention_forward_tree_partial(
            &self.shared.weights.layers[layer],
            &self.config,
            &self.scale,
            self.backend,
            &self.shared.rope,
            &normed,
            owed[0],
            parents,
            first_new,
            &mut self.caches[layer],
            scratch,
            meter,
        );
        if owed[0] > 0 {
            self.drop_settled();
        }
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

    /// The round's tree pass over `layer` took its owed rows, and nothing
    /// owes a row between a tree pass and its commit.
    fn commit_tree_kv(&mut self, layer: usize, kv: &TreeKv, accepted: &[usize]) {
        assert!(
            self.owed_at(layer).next().is_none(),
            "layer {layer} owes rows its tree pass did not take"
        );
        let cache = &mut self.caches[layer];
        for &i in accepted {
            cache.push(kv.key(i), kv.value(i));
        }
    }

    fn accept_tokens(&mut self, _tokens: &[TokenId]) {
        // The plain transformer keeps no semantic context; KV commitment is
        // handled by `commit_tree_kv`.
    }

    /// Eager, whatever the policy: the layer's owed rows are projected
    /// first, with a `wqkv` pass of their own, then its row at `pos` is
    /// computed (the reference the owed rows are tested against) or copied.
    fn fill_layer_kv(
        &mut self,
        layer: usize,
        h: &[f32],
        pos: usize,
        policy: SkipKvPolicy,
        meter: &mut Meter,
    ) {
        if self.owed_at(layer).next().is_some() {
            let [mut ks, vs] = self.owed_kv(layer);
            let cache = &mut self.caches[layer];
            push_owed(cache, &self.shared.rope, self.config.n_heads, &mut ks, &vs);
            self.drop_settled();
        }
        let w = &self.shared.weights.layers[layer];
        let cache = &mut self.caches[layer];
        debug_assert_eq!(cache.len(), pos, "skip-fill position");
        match policy {
            SkipKvPolicy::ProjectExitHidden => {
                let normed = ops::rmsnorm(h, &w.attn_norm, 1e-5);
                let mut qkv = w.wqkv.matvec_with(self.backend, &normed);
                let dim = cache.kv_dim();
                let (k, v) = qkv[dim..].split_at_mut(dim);
                self.shared.rope.rotate(k, pos, self.config.n_heads);
                cache.push(k, v);
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

    /// Under [`SkipKvPolicy::ProjectExitHidden`] the rows are owed, not
    /// computed (see [`Transformer`]); the other policies copy or zero a
    /// row per layer through [`LayeredLm::fill_layer_kv`]. The trait's
    /// default [`LayeredLm::fill_skipped_kv_group`], member by member, is
    /// then all a group needs: owing reads no weights.
    fn fill_skipped_kv(
        &mut self,
        first_skipped: usize,
        h: &[f32],
        pos: usize,
        policy: SkipKvPolicy,
        meter: &mut Meter,
    ) {
        if policy == SkipKvPolicy::ProjectExitHidden {
            return self.owe(first_skipped, h, pos, meter);
        }
        for layer in first_skipped..self.config.n_layers {
            self.fill_layer_kv(layer, h, pos, policy, meter);
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
        let held = self.caches.first().map_or(0, KvCache::len);
        self.owed.last().map_or(held, |o| held.max(o.pos + 1))
    }

    fn truncate_kv(&mut self, len: usize) {
        for c in &mut self.caches {
            c.truncate(len);
        }
        self.owed.retain(|o| o.pos < len);
    }

    /// Counts owed rows as held: what the layers would allocate with them
    /// projected.
    fn allocated_kv_tokens(&self) -> usize {
        (0..self.config.n_layers)
            .map(|layer| {
                KvCache::allocated_for(self.caches[layer].len() + self.owed_at(layer).count())
            })
            .sum()
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
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
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
    fn a_packed_norm_is_the_row_norm_bit_for_bit() {
        let mut rng = Pcg::seed(27);
        let counts = (0..=17).chain([22, 40]);
        for (n, dim) in counts.flat_map(|n| [6, 8, 10, 128].map(|dim| (n, dim))) {
            let gain: Vec<f32> = (0..dim).map(|_| rng.normal() as f32).collect();
            // Draws scaled by 1e-30, 1 and 1e30 in turn (the squares
            // underflow at the bottom and overflow at the top), plus an
            // all-zero row and a subnormal one when there is room.
            let mut hs: Vec<Vec<f32>> = (0..n)
                .map(|i| {
                    let scale = 10f32.powi(30 * (i as i32 % 3 - 1));
                    (0..dim).map(|_| rng.normal() as f32 * scale).collect()
                })
                .collect();
            if n > 2 {
                hs[1] = vec![0.0; dim];
                hs[n - 1] = vec![f32::from_bits(1); dim];
            }
            let packed = pack_normed(&hs, &gain);
            assert_eq!(packed.len(), n * dim);
            for (i, (h, row)) in hs.iter().zip(packed.chunks_exact(dim)).enumerate() {
                let bits = |r: &[f32]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let want = ops::rmsnorm(h, &gain, 1e-5);
                assert_eq!(bits(row), bits(&want), "row {i} of {n}, width {dim}");
            }
        }
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
            assert_eq!(m.cache(layer).len(), 1, "layer {layer}");
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
        assert_eq!(m.cache(3).key(0), vec![0.0; 32].as_slice());
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
            assert_eq!(m.cache(layer), reference.cache(layer), "layer {layer}");
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
            assert_eq!(m.cache(layer), reference.cache(layer), "layer {layer}");
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
        assert!(matches!(clone.weights().layers[0].wqkv, LinearOp::Quant(_)));
        assert_eq!(original.weights(), &dense, "the original stays dense");

        let mut sparse = original.clone();
        sparse.enable_sparse_ffn(0.25, 4, &mut Pcg::seed(9));
        assert!(!sparse.shares_weights_with(&original));
        assert!(original.clone().shares_weights_with(&original));
    }

    #[test]
    fn the_working_set_is_four_shared_matrices_a_layer() {
        let cfg = ModelConfig::sim_llama2_7b();
        let original = Transformer::random(cfg.clone(), &mut Pcg::seed(7));
        let w = original.weights();
        // 7B(sim): embedding and tied head 2048x128 each, 32 layers of
        // q|k|v 384x128, o 128x128, gate|up 512x128, down 128x256 and two
        // norms, one final norm; f32 throughout.
        assert_eq!(w.bytes(), 23_101_952);
        let layer = &w.layers[0];
        let shapes = [&layer.wqkv, &layer.wo, &layer.w_gate_up, &layer.w_down]
            .map(|op| (op.rows(), op.cols()));
        assert_eq!(shapes, [(384, 128), (128, 128), (512, 128), (128, 256)]);
        let clone = original.clone();
        assert!(clone.shares_weights_with(&original));
        for (a, b) in clone.weights().layers.iter().zip(&w.layers) {
            assert!(std::ptr::eq(&a.wqkv, &b.wqkv) && std::ptr::eq(&a.w_gate_up, &b.w_gate_up));
        }
    }

    /// A decode script run on a model that owes its skipped layers' rows
    /// and on a clone that fills them eagerly through `fill_layer_kv`,
    /// compared after every step: hidden states, every layer's cache as
    /// `cache` shows it, lengths, allocation and the `Meter`.
    fn owed_rows_match_the_eager_fill(seed: u64) -> Result<(), TestCaseError> {
        const PEH: SkipKvPolicy = SkipKvPolicy::ProjectExitHidden;
        let rng = &mut Pcg::seed(seed);
        let cfg = match rng.below(2) {
            0 => ModelConfig {
                n_layers: 6,
                ..ModelConfig::tiny()
            },
            _ => ModelConfig {
                hidden_dim: 30,
                n_heads: 3,
                ffn_dim: 30,
                n_layers: 5,
                ..ModelConfig::tiny()
            },
        };
        let n_layers = cfg.n_layers;
        let mut template = Transformer::random(cfg.clone(), &mut Pcg::seed(seed));
        if rng.below(3) == 0 {
            template.quantize(QuantBits::Int8);
        }
        template.set_backend([BackendKind::Blocked, BackendKind::Reference][rng.below(2)]);
        let (mut owing, mut eager) = (template.clone(), template.clone());
        let (mut mo, mut me) = (Meter::new(), Meter::new());
        let token = |rng: &mut Pcg| rng.below(cfg.vocab_size) as TokenId;
        let bits = |hs: &[Vec<f32>]| -> Vec<Vec<u32>> {
            hs.iter()
                .map(|h| h.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        let prompt: Vec<TokenId> = (0..1 + rng.below(5)).map(|_| token(rng)).collect();
        owing.prefill(&prompt, &mut mo);
        eager.prefill(&prompt, &mut me);
        for step in 0..14 {
            let pos = owing.kv_len();
            let what = rng.below(10);
            match what {
                // One token, leaving after `depth` layers (or none), with
                // now and then one mid-stack layer skipped eagerly.
                0..=4 => {
                    let (t, depth) = (token(rng), 1 + rng.below(n_layers));
                    let skip = (rng.below(3) == 0).then(|| rng.below(depth));
                    let mut outs = Vec::new();
                    for (m, meter) in [(&mut owing, &mut mo), (&mut eager, &mut me)] {
                        let mut h = m.begin_token(t, meter);
                        for layer in 0..depth {
                            if skip == Some(layer) {
                                m.fill_layer_kv(layer, &h, pos, PEH, meter);
                            } else {
                                h = m.forward_layer(layer, &h, pos, meter);
                            }
                        }
                        outs.push(h);
                    }
                    owing.fill_skipped_kv(depth, &outs[0], pos, PEH, &mut mo);
                    for layer in depth..n_layers {
                        eager.fill_layer_kv(layer, &outs[1], pos, PEH, &mut me);
                    }
                    prop_assert_eq!(bits(&outs[..1]), bits(&outs[1..]), "step {}: token", step);
                    if depth == n_layers && skip.is_none() {
                        prop_assert!(
                            owing.owed.is_empty(),
                            "step {}: a full sweep settles all",
                            step
                        );
                    }
                }
                // A draft tree swept `depth` layers deep: whole (5), or (6)
                // grown level by level through its first `split` layers as
                // the self-draft pass grows one — `begin_tree` and partial
                // calls at `first_new` 0, then `extend_tree` and partial
                // calls past it — and swept whole through the rest. Then
                // one root-to-node path is committed and filled from there.
                5..=6 => {
                    let n = 1 + rng.below(4);
                    let tokens: Vec<TokenId> = (0..n).map(|_| token(rng)).collect();
                    let parents: Vec<Option<usize>> =
                        (0..n).map(|i| (i > 0).then(|| rng.below(i))).collect();
                    let depth = 1 + rng.below(n_layers);
                    let (mut cuts, split) = match what {
                        5 => (vec![0, n], 0),
                        _ => (vec![0, 1], 1 + rng.below(depth)),
                    };
                    while let Some(&end) = cuts.last().filter(|&&end| end < n) {
                        cuts.push(end + 1 + rng.below(n - end));
                    }
                    let mut path = vec![rng.below(n)];
                    while let Some(p) = parents[path[path.len() - 1]] {
                        path.push(p);
                    }
                    path.reverse();
                    let mut outs = Vec::new();
                    for (m, meter) in [(&mut owing, &mut mo), (&mut eager, &mut me)] {
                        let (mut hs, mut kvs) = (Vec::new(), vec![TreeKv::default(); split]);
                        for level in cuts.windows(2) {
                            let (first_new, end) = (level[0], level[1]);
                            let (new_tokens, tree) = (&tokens[first_new..end], &parents[..end]);
                            let mut new_hs = match first_new {
                                0 => m.begin_tree(new_tokens, tree, meter),
                                _ => m.extend_tree(new_tokens, tree, first_new, meter),
                            };
                            for (layer, kv) in kvs.iter_mut().enumerate() {
                                new_hs = m.forward_layer_tree_partial(
                                    layer, &new_hs, tree, first_new, kv, meter,
                                );
                            }
                            hs.extend(new_hs);
                        }
                        for layer in split..depth {
                            let (out, kv) = m.forward_layer_tree(layer, &hs, &parents, meter);
                            hs = out;
                            kvs.push(kv);
                        }
                        for (layer, kv) in kvs.iter().enumerate() {
                            m.commit_tree_kv(layer, kv, &path);
                        }
                        outs.push(hs);
                    }
                    for (ord, &i) in path.iter().enumerate() {
                        owing.fill_skipped_kv(depth, &outs[0][i], pos + ord, PEH, &mut mo);
                        for layer in depth..n_layers {
                            eager.fill_layer_kv(layer, &outs[1][i], pos + ord, PEH, &mut me);
                        }
                    }
                    prop_assert_eq!(bits(&outs[0]), bits(&outs[1]), "step {}: tree", step);
                }
                7 => {
                    let len = rng.below(pos + 1);
                    owing.truncate_kv(len);
                    eager.truncate_kv(len);
                }
                // A fresh clone adopts a prefix: refused exactly when the
                // donor still owes one of its rows.
                8 if pos > 0 => {
                    let len = 1 + rng.below(pos);
                    let shared: Vec<TokenId> = (0..len).map(|_| token(rng)).collect();
                    let (mut from_owing, mut from_eager) = (template.clone(), template.clone());
                    let adopted = from_owing.adopt_prefix(&owing, &shared);
                    prop_assert!(from_eager.adopt_prefix(&eager, &shared));
                    let owes = owing.owed.iter().any(|o| o.pos < len);
                    prop_assert_eq!(adopted, !owes, "step {}: adoption", step);
                    if adopted {
                        for layer in 0..n_layers {
                            let (a, b) = (from_owing.cache(layer), from_eager.cache(layer));
                            prop_assert_eq!(a, b, "step {}: adopted layer {}", step, layer);
                        }
                    }
                }
                8 => {}
                _ => {
                    owing.reset();
                    eager.reset();
                    owing.prefill(&prompt, &mut mo);
                    eager.prefill(&prompt, &mut me);
                }
            }
            prop_assert_eq!(owing.kv_len(), eager.kv_len(), "step {} ({})", step, what);
            prop_assert_eq!(owing.allocated_kv_tokens(), eager.allocated_kv_tokens());
            for layer in 0..n_layers {
                prop_assert_eq!(owing.cache(layer).len(), owing.kv_len());
                prop_assert_eq!(
                    owing.cache(layer),
                    eager.cache(layer),
                    "step {} ({}): layer {}",
                    step,
                    what,
                    layer
                );
            }
            prop_assert_eq!(&mo, &me, "step {} ({}): meter", step, what);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn owed_rows_are_the_eager_fill_bit_for_bit(seed in 0u64..10_000) {
            owed_rows_match_the_eager_fill(seed)?;
        }
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
