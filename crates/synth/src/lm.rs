//! The calibrated synthetic language model.
//!
//! [`SyntheticLm`] wraps a real [`Transformer`] (every matmul, KV update
//! and norm is executed and metered) and *steers* the hidden state after
//! each decoder layer toward the ground-truth token's embedding following
//! the token's scripted saturation schedule. Because the LM head is tied
//! to the embedding table, the steered hidden state reproduces the exact
//! logit trajectory the paper's predictor learns from: candidate
//! probabilities stay low and flat until the saturation layer, then the
//! correct token's probability shifts sharply upward (§4.2, Fig. 5).
//!
//! A clone copies per-sequence state only — KV, context, scripts, the
//! saturation driver and a cursor. The weights and the steering normals
//! are a lineage's constants, each behind one `Arc`: every (row, layer)
//! reads `hidden_dim` normals off the [`NoiseStream`] tape at the clone's
//! own cursor, and only the first clone to get there draws them.

use specee_metrics::Meter;
use specee_model::{LayeredLm, ModelConfig, SkipKvPolicy, TokenId, Transformer, TreeKv};
use specee_tensor::{ops, rng::Pcg};

use crate::language::SyntheticLanguage;
use crate::noise::NoiseStream;
use crate::profile::DatasetProfile;
use crate::schedule::{gamma, SaturationDriver};

/// Hidden-state magnitude; sets how confident the final softmax is.
const LOGIT_SCALE: f32 = 12.0;
/// Share of the pre-saturation state carried by the real layer output.
const BASE_WEIGHT: f32 = 0.92;
/// Share of the pre-saturation state spread over plausible distractors.
const DISTRACTOR_WEIGHT: f32 = 0.05;
/// Per-component steering noise.
const NOISE: f32 = 0.015;
/// Distractors scripted per token.
const DISTRACTORS: usize = 3;

/// The per-token script: ground truth, plausible distractors and the
/// saturation depth.
#[derive(Debug, Clone, PartialEq)]
pub struct TokenScript {
    /// The token fed at this position (its embedding echo is suppressed).
    pub input: TokenId,
    /// Ground-truth next token for the position's context.
    pub target: TokenId,
    /// Plausible-but-wrong candidates (the language's confusion set).
    pub distractors: Vec<TokenId>,
    /// Layer at which the target's probability shifts upward.
    pub sat: f64,
}

/// A calibrated synthetic LM implementing [`LayeredLm`].
///
/// # Examples
///
/// ```
/// use specee_synth::{DatasetProfile, SyntheticLmBuilder};
/// use specee_model::{ModelConfig, LayeredLm, prefill};
/// use specee_metrics::Meter;
///
/// let mut lm = SyntheticLmBuilder::new(ModelConfig::tiny(), DatasetProfile::qa())
///     .seed(7)
///     .build();
/// let mut meter = Meter::new();
/// let h = prefill(&mut lm, &[1, 2, 3], &mut meter);
/// let logits = lm.final_logits(&h, &mut meter);
/// assert_eq!(logits.len(), lm.config().vocab_size);
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticLm {
    inner: Transformer,
    language: SyntheticLanguage,
    profile: DatasetProfile,
    driver: SaturationDriver,
    context: Vec<TokenId>,
    scripts: Vec<TokenScript>,
    tree_scripts: Vec<TokenScript>,
    /// Tokens of the tree begun by the last `begin_tree`/`extend_tree`,
    /// kept so incremental extensions can derive node contexts.
    tree_tokens: Vec<TokenId>,
    /// `language.candidate_weights(DISTRACTORS)`.
    distractor_weights: [f32; DISTRACTORS],
    noise: NoiseStream,
    /// `noise` and `driver` as they stood when the committed context was
    /// last empty: where a clone's streams must stand for this sequence's
    /// prompt rows to be the rows it would compute itself.
    origin: (NoiseStream, SaturationDriver),
    seed: u64,
}

impl SyntheticLm {
    /// The procedural language this model speaks.
    pub fn language(&self) -> &SyntheticLanguage {
        &self.language
    }

    /// The dataset profile driving the schedules.
    pub fn profile(&self) -> &DatasetProfile {
        &self.profile
    }

    /// The committed token context.
    pub fn context(&self) -> &[TokenId] {
        &self.context
    }

    /// Scripts of the committed positions (ground truth + saturation).
    pub fn scripts(&self) -> &[TokenScript] {
        &self.scripts
    }

    /// The seed this model was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Mutable access to the wrapped transformer (quantization, sparse FFN,
    /// KV-layout configuration).
    pub fn inner_mut(&mut self) -> &mut Transformer {
        &mut self.inner
    }

    /// Shared access to the wrapped transformer.
    pub fn inner(&self) -> &Transformer {
        &self.inner
    }

    /// Takes the two fields it needs so callers can lend `&self.context`.
    fn make_script(
        language: &SyntheticLanguage,
        driver: &mut SaturationDriver,
        ctx_ends_with: &[TokenId],
        prev_sat: Option<f64>,
    ) -> TokenScript {
        let input = *ctx_ends_with.last().expect("non-empty context");
        let target = language.next_token(ctx_ends_with);
        let cands = language.candidates(ctx_ends_with, DISTRACTORS + 1);
        let sat = driver.sample(prev_sat);
        TokenScript {
            input,
            target,
            distractors: cands[1..].to_vec(),
            sat,
        }
    }

    /// Commits `token` to the context and scripts it from the driver,
    /// noting where both streams stood if it is the context's first.
    fn push_token(&mut self, token: TokenId) {
        if self.context.is_empty() {
            self.origin = (self.noise.clone(), self.driver.clone());
        }
        self.context.push(token);
        let prev = self.scripts.last().map(|s| s.sat);
        let script = Self::make_script(&self.language, &mut self.driver, &self.context, prev);
        self.scripts.push(script);
    }

    /// Steers layer output `h`; its `h.len()` normals start `noise_at`
    /// past the stream's cursor, which the caller moves.
    fn blend(&self, h: &[f32], script: &TokenScript, layer: usize, noise_at: usize) -> Vec<f32> {
        let g = gamma(layer, script.sat);
        let embed = &self.inner.weights().embed;
        let mut out = h.to_vec();
        ops::l2_normalize(&mut out);
        // Project out the controlled directions before re-adding their
        // scheduled amounts: the input token (real decoders stop echoing it
        // after the first layers) and the candidate set (otherwise their
        // components accumulate through the residual stream across layers
        // and distractors start winning the pre-saturation argmax, which a
        // real model's unsaturated logits do not do).
        for &d in [script.input, script.target]
            .iter()
            .chain(&script.distractors)
        {
            let e_d = embed.row(d as usize);
            let proj = specee_tensor::matrix::dot(&out, e_d);
            for (o, &e) in out.iter_mut().zip(e_d.iter()) {
                *o -= proj * e;
            }
        }
        ops::l2_normalize(&mut out);
        for v in &mut out {
            *v *= (1.0 - g) * BASE_WEIGHT;
        }
        for (&d, &w) in script.distractors.iter().zip(&self.distractor_weights) {
            let coeff = (1.0 - g) * DISTRACTOR_WEIGHT * w;
            for (o, &e) in out.iter_mut().zip(embed.row(d as usize).iter()) {
                *o += coeff * e;
            }
        }
        for (o, &e) in out.iter_mut().zip(embed.row(script.target as usize).iter()) {
            *o += g * e;
        }
        self.noise.zip_at(noise_at, &mut out, |o, n| {
            *o = (*o + n * NOISE) * LOGIT_SCALE
        });
        out
    }

    /// Steers a layer output at position `pos` from this model's stream.
    fn steer(&mut self, out: &[f32], pos: usize, layer: usize) -> Vec<f32> {
        let steered = self.blend(out, &self.scripts[pos], layer, 0);
        self.noise.skip(out.len());
        steered
    }

    /// Steers one tree layer's node outputs, node `first + j` for `outs[j]`.
    fn steer_tree(&mut self, outs: &[Vec<f32>], first: usize, layer: usize) -> Vec<Vec<f32>> {
        let dim = self.inner.config().hidden_dim;
        let steered = (outs.iter().enumerate())
            .map(|(j, o)| self.blend(o, &self.tree_scripts[first + j], layer, j * dim))
            .collect();
        self.noise.skip(outs.len() * dim);
        steered
    }

    fn node_context(
        &self,
        tokens: &[TokenId],
        parents: &[Option<usize>],
        node: usize,
    ) -> Vec<TokenId> {
        let mut path = Vec::new();
        let mut cur = Some(node);
        while let Some(n) = cur {
            path.push(tokens[n]);
            cur = parents[n];
        }
        path.reverse();
        let mut ctx = self.context.clone();
        ctx.extend_from_slice(&path);
        ctx
    }
}

impl LayeredLm for SyntheticLm {
    fn config(&self) -> &ModelConfig {
        self.inner.config()
    }

    fn set_backend(&mut self, backend: specee_tensor::BackendKind) {
        self.inner.set_backend(backend);
    }

    fn backend(&self) -> specee_tensor::BackendKind {
        LayeredLm::backend(&self.inner)
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.context.clear();
        self.scripts.clear();
        self.tree_scripts.clear();
        self.tree_tokens.clear();
    }

    fn begin_token(&mut self, token: TokenId, meter: &mut Meter) -> Vec<f32> {
        self.push_token(token);
        self.inner.begin_token(token, meter)
    }

    fn forward_layer(
        &mut self,
        layer: usize,
        h: &[f32],
        pos: usize,
        meter: &mut Meter,
    ) -> Vec<f32> {
        let out = self.inner.forward_layer(layer, h, pos, meter);
        self.steer(&out, pos, layer)
    }

    fn forward_layer_group(
        group: &mut [&mut Self],
        layer: usize,
        hs: &[&[f32]],
        positions: &[usize],
        meter: &mut Meter,
    ) -> Vec<Vec<f32>> {
        let mut inners: Vec<&mut Transformer> = group.iter_mut().map(|m| &mut m.inner).collect();
        let outs = Transformer::forward_layer_group(&mut inners, layer, hs, positions, meter);
        // Each member steers from its own stream, so drawing after the
        // whole group ran takes the normals the per-member loop would.
        (0..group.len())
            .map(|i| group[i].steer(&outs[i], positions[i], layer))
            .collect()
    }

    fn prefill(&mut self, prompt: &[TokenId], meter: &mut Meter) -> Vec<f32> {
        assert!(!prompt.is_empty(), "prompt must be non-empty");
        let base = self.kv_len();
        let n_layers = self.config().n_layers;
        let dim = self.config().hidden_dim;
        let mut hs: Vec<Vec<f32>> = prompt
            .iter()
            .map(|&tok| self.begin_token(tok, meter))
            .collect();
        // The steering noise is one sequential stream that the token-major
        // reference consumes position by position (`[position][layer][dim]`):
        // the layer-major walk below reads every (position, layer) where
        // the reference would have drawn it.
        for layer in 0..n_layers {
            let outs = self.inner.forward_layer_span(layer, &hs, base, meter);
            for (i, (h, out)) in hs.iter_mut().zip(&outs).enumerate() {
                let at = (i * n_layers + layer) * dim;
                *h = self.blend(out, &self.scripts[base + i], layer, at);
            }
        }
        self.noise.skip(prompt.len() * n_layers * dim);
        hs.pop().expect("non-empty prompt")
    }

    fn adopt_prefix(&mut self, donor: &Self, tokens: &[TokenId]) -> bool {
        // The steering noise and the saturation driver are sequential
        // per-sequence streams: the donor's rows are this model's only if
        // both stand where the donor's stood when it began these tokens.
        let same_streams = self.context.is_empty()
            && (&self.noise, &self.driver) == (&donor.origin.0, &donor.origin.1)
            && self.language == donor.language
            && donor.context.starts_with(tokens);
        if !(same_streams && self.inner.adopt_prefix(&donor.inner, tokens)) {
            return false;
        }
        // The driver draws a data-dependent number of values per token, so
        // it is run, not jumped; the scripts it writes are the donor's.
        for &token in tokens {
            self.push_token(token);
        }
        debug_assert_eq!(self.scripts, donor.scripts[..tokens.len()]);
        // `prefill` reads one normal per (position, layer, component),
        // token-major: a prefix is a prefix of the stream.
        let cfg = self.inner.config();
        let rows = tokens.len() * cfg.n_layers;
        self.noise.skip(rows * cfg.hidden_dim);
        true
    }

    fn begin_tree(
        &mut self,
        tokens: &[TokenId],
        parents: &[Option<usize>],
        meter: &mut Meter,
    ) -> Vec<Vec<f32>> {
        self.tree_scripts.clear();
        self.tree_tokens = tokens.to_vec();
        let last_sat = self.scripts.last().map(|s| s.sat);
        let mut node_sats: Vec<f64> = Vec::with_capacity(tokens.len());
        for i in 0..tokens.len() {
            let ctx = self.node_context(tokens, parents, i);
            let prev = match parents[i] {
                Some(p) => Some(node_sats[p]),
                None => last_sat,
            };
            let script = Self::make_script(&self.language, &mut self.driver, &ctx, prev);
            node_sats.push(script.sat);
            self.tree_scripts.push(script);
        }
        self.inner.begin_tree(tokens, parents, meter)
    }

    fn forward_layer_tree(
        &mut self,
        layer: usize,
        hs: &[Vec<f32>],
        parents: &[Option<usize>],
        meter: &mut Meter,
    ) -> (Vec<Vec<f32>>, TreeKv) {
        let (outs, kv) = self.inner.forward_layer_tree(layer, hs, parents, meter);
        (self.steer_tree(&outs, 0, layer), kv)
    }

    fn extend_tree(
        &mut self,
        tokens: &[TokenId],
        parents: &[Option<usize>],
        first_new: usize,
        meter: &mut Meter,
    ) -> Vec<Vec<f32>> {
        assert_eq!(
            self.tree_scripts.len(),
            first_new,
            "extend_tree continues the most recently begun tree"
        );
        let last_sat = self.scripts.last().map(|s| s.sat);
        for (j, &t) in tokens.iter().enumerate() {
            self.tree_tokens.push(t);
            let i = first_new + j;
            let ctx = self.node_context(&self.tree_tokens, parents, i);
            let prev = match parents[i] {
                Some(p) => Some(self.tree_scripts[p].sat),
                None => last_sat,
            };
            let script = Self::make_script(&self.language, &mut self.driver, &ctx, prev);
            self.tree_scripts.push(script);
        }
        self.inner.extend_tree(tokens, parents, first_new, meter)
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
        let outs = self
            .inner
            .forward_layer_tree_partial(layer, new_hs, parents, first_new, scratch, meter);
        self.steer_tree(&outs, first_new, layer)
    }

    fn commit_tree_kv(&mut self, layer: usize, kv: &TreeKv, accepted: &[usize]) {
        self.inner.commit_tree_kv(layer, kv, accepted);
        // Engines commit layer 0 first (documented contract); hook the
        // script bookkeeping there so committed positions stay aligned.
        if layer == 0 {
            for &i in accepted {
                self.scripts.push(self.tree_scripts[i].clone());
            }
        }
    }

    fn accept_tokens(&mut self, tokens: &[TokenId]) {
        self.context.extend_from_slice(tokens);
        self.inner.accept_tokens(tokens);
    }

    fn fill_layer_kv(
        &mut self,
        layer: usize,
        h: &[f32],
        pos: usize,
        policy: SkipKvPolicy,
        meter: &mut Meter,
    ) {
        self.inner.fill_layer_kv(layer, h, pos, policy, meter);
    }

    fn fill_skipped_kv(
        &mut self,
        first_skipped: usize,
        h: &[f32],
        pos: usize,
        policy: SkipKvPolicy,
        meter: &mut Meter,
    ) {
        self.inner
            .fill_skipped_kv(first_skipped, h, pos, policy, meter);
    }

    fn fill_skipped_kv_group(
        group: &mut [&mut Self],
        first_skipped: &[usize],
        hs: &[&[f32]],
        positions: &[usize],
        policy: SkipKvPolicy,
        meter: &mut Meter,
    ) {
        let mut inners: Vec<&mut Transformer> = group.iter_mut().map(|m| &mut m.inner).collect();
        Transformer::fill_skipped_kv_group(
            &mut inners,
            first_skipped,
            hs,
            positions,
            policy,
            meter,
        );
    }

    fn final_logits(&mut self, h: &[f32], meter: &mut Meter) -> Vec<f32> {
        self.inner.final_logits(h, meter)
    }

    fn final_logits_group(
        group: &mut [&mut Self],
        hs: &[&[f32]],
        meter: &mut Meter,
    ) -> Vec<Vec<f32>> {
        let mut inners: Vec<&mut Transformer> = group.iter_mut().map(|m| &mut m.inner).collect();
        Transformer::final_logits_group(&mut inners, hs, meter)
    }

    fn final_logits_batch(&mut self, hs: &[Vec<f32>], meter: &mut Meter) -> Vec<Vec<f32>> {
        self.inner.final_logits_batch(hs, meter)
    }

    fn slice_logits(&mut self, h: &[f32], tokens: &[TokenId], meter: &mut Meter) -> Vec<f32> {
        self.inner.slice_logits(h, tokens, meter)
    }

    fn grouped_slice_logits(
        &mut self,
        hs: &[&[f32]],
        candidate_sets: &[&[TokenId]],
        meter: &mut Meter,
    ) -> Vec<Vec<f32>> {
        self.inner.grouped_slice_logits(hs, candidate_sets, meter)
    }

    fn kv_len(&self) -> usize {
        self.inner.kv_len()
    }

    /// Like [`LayeredLm::reset`], does not rewind the noise and saturation
    /// streams: positions decoded after a truncation draw fresh values.
    fn truncate_kv(&mut self, len: usize) {
        self.inner.truncate_kv(len);
        self.context.truncate(len);
        self.scripts.truncate(len);
        self.tree_scripts.clear();
        self.tree_tokens.clear();
    }

    fn allocated_kv_tokens(&self) -> usize {
        self.inner.allocated_kv_tokens()
    }

    fn modelled_weight_bytes(&self) -> f64 {
        self.inner.modelled_weight_bytes()
    }
}

/// Builder for [`SyntheticLm`].
#[derive(Debug, Clone)]
pub struct SyntheticLmBuilder {
    config: ModelConfig,
    profile: DatasetProfile,
    seed: u64,
}

impl SyntheticLmBuilder {
    /// Starts a builder from a model configuration and dataset profile.
    pub fn new(config: ModelConfig, profile: DatasetProfile) -> Self {
        SyntheticLmBuilder {
            config,
            profile,
            seed: 0,
        }
    }

    /// Sets the experiment seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the model.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn build(self) -> SyntheticLm {
        self.config.validate().expect("valid config");
        let mut root = Pcg::seed(self.seed ^ self.profile.language_seed);
        let mut weights_rng = root.split(1);
        let driver_seed = root.next_u64();
        let noise = NoiseStream::new(root.split(2));
        let inner = Transformer::random(self.config.clone(), &mut weights_rng);
        let language = SyntheticLanguage::new(self.config.vocab_size, self.profile.language_seed);
        let driver = SaturationDriver::new(&self.profile, self.config.n_layers, driver_seed);
        SyntheticLm {
            inner,
            language,
            profile: self.profile,
            origin: (noise.clone(), driver.clone()),
            driver,
            context: Vec::new(),
            scripts: Vec::new(),
            tree_scripts: Vec::new(),
            tree_tokens: Vec::new(),
            distractor_weights: (language.candidate_weights(DISTRACTORS).try_into())
                .expect("one weight per distractor"),
            noise,
            seed: self.seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specee_model::prefill;
    use specee_tensor::ops::{argmax, softmax};

    fn lm() -> SyntheticLm {
        SyntheticLmBuilder::new(ModelConfig::tiny(), DatasetProfile::qa())
            .seed(3)
            .build()
    }

    #[test]
    fn dense_run_outputs_ground_truth() {
        let mut m = lm();
        let mut meter = Meter::new();
        let prompt = [1u32, 2, 3, 4];
        let mut correct = 0;
        let mut h = prefill(&mut m, &prompt, &mut meter);
        let mut ctx = prompt.to_vec();
        for _ in 0..20 {
            let logits = m.final_logits(&h, &mut meter);
            let out = argmax(&logits).unwrap() as TokenId;
            let truth = m.language().next_token(&ctx);
            if out == truth {
                correct += 1;
            }
            ctx.push(out);
            let pos = m.kv_len();
            h = m.begin_token(out, &mut meter);
            for layer in 0..m.config().n_layers {
                h = m.forward_layer(layer, &h, pos, &mut meter);
            }
        }
        assert!(correct >= 18, "dense accuracy {correct}/20");
    }

    #[test]
    fn probability_shift_visible_in_candidate_slice() {
        // tiny config has only 4 layers; use a deeper sim config so the
        // shift has room.
        let cfg = ModelConfig {
            n_layers: 16,
            ..ModelConfig::tiny()
        };
        let mut m = SyntheticLmBuilder::new(cfg, DatasetProfile::qa())
            .seed(5)
            .build();
        let mut meter = Meter::new();
        prefill(&mut m, &[3, 1, 4], &mut meter);
        let pos = m.kv_len();
        let token = 2u32;
        let mut h = m.begin_token(token, &mut meter);
        let script = m.scripts().last().unwrap().clone();
        let mut cands = vec![script.target];
        cands.extend_from_slice(&script.distractors);
        let mut target_probs = Vec::new();
        for layer in 0..16 {
            h = m.forward_layer(layer, &h, pos, &mut meter);
            let logits = m.slice_logits(&h, &cands, &mut meter);
            target_probs.push(softmax(&logits)[0]);
        }
        let sat = script.sat.round() as usize;
        let before = target_probs[..sat.saturating_sub(2)]
            .last()
            .copied()
            .unwrap_or(0.3);
        let after = target_probs[(sat + 1).min(15)];
        assert!(
            after > 0.8,
            "after {after} (sat {sat}, probs {target_probs:?})"
        );
        assert!(before < 0.7, "before {before} (sat {sat})");
    }

    #[test]
    fn early_exit_before_saturation_is_wrong() {
        let cfg = ModelConfig {
            n_layers: 16,
            ..ModelConfig::tiny()
        };
        let mut m = SyntheticLmBuilder::new(cfg, DatasetProfile::qa())
            .seed(9)
            .build();
        let mut meter = Meter::new();
        prefill(&mut m, &[5, 6, 7], &mut meter);
        let pos = m.kv_len();
        let mut h = m.begin_token(1, &mut meter);
        let script = m.scripts().last().unwrap().clone();
        let early_stop = (script.sat as usize).saturating_sub(3).max(1);
        for layer in 0..early_stop {
            h = m.forward_layer(layer, &h, pos, &mut meter);
        }
        let logits = m.final_logits(&h, &mut meter);
        let early_tok = argmax(&logits).unwrap() as TokenId;
        // pre-saturation argmax should generally not be the target
        // (the state is dominated by base + distractors)
        assert_ne!(early_tok, script.target, "sat {}", script.sat);
    }

    #[test]
    fn scripts_track_positions() {
        let mut m = lm();
        let mut meter = Meter::new();
        prefill(&mut m, &[1, 2, 3], &mut meter);
        assert_eq!(m.scripts().len(), 3);
        assert_eq!(m.context(), &[1, 2, 3]);
    }

    #[test]
    fn tree_scripts_chain_saturation() {
        let mut m = lm();
        let mut meter = Meter::new();
        prefill(&mut m, &[1, 2], &mut meter);
        let tokens = [5u32, 6, 7];
        let parents = [None, Some(0), Some(1)];
        let _ = m.begin_tree(&tokens, &parents, &mut meter);
        assert_eq!(m.tree_scripts.len(), 3);
        // targets follow the language along the path
        let ctx_child = vec![1, 2, 5, 6];
        assert_eq!(
            m.tree_scripts[1].target,
            m.language().next_token(&ctx_child)
        );
    }

    #[test]
    fn extend_tree_scripts_match_begin_tree() {
        // Growing the tree incrementally must produce exactly the scripts
        // the one-shot begin_tree would: the saturation driver is sampled
        // in the same node order either way.
        let mut meter = Meter::new();
        let tokens = [5u32, 6, 7, 3];
        let parents = [None, Some(0), Some(0), Some(1)];

        let mut full = lm();
        prefill(&mut full, &[1, 2], &mut meter);
        let _ = full.begin_tree(&tokens, &parents, &mut meter);

        let mut inc = lm();
        prefill(&mut inc, &[1, 2], &mut meter);
        let _ = inc.begin_tree(&tokens[..1], &parents[..1], &mut meter);
        let _ = inc.extend_tree(&tokens[1..3], &parents[..3], 1, &mut meter);
        let _ = inc.extend_tree(&tokens[3..], &parents, 3, &mut meter);

        assert_eq!(full.tree_scripts, inc.tree_scripts);
    }

    #[test]
    fn commit_tree_pushes_scripts_once() {
        let mut m = lm();
        let mut meter = Meter::new();
        prefill(&mut m, &[1, 2], &mut meter);
        let tokens = [5u32, 6];
        let parents = [None, Some(0)];
        let mut hs = m.begin_tree(&tokens, &parents, &mut meter);
        let mut kvs = Vec::new();
        for layer in 0..m.config().n_layers {
            let (out, kv) = m.forward_layer_tree(layer, &hs, &parents, &mut meter);
            hs = out;
            kvs.push(kv);
        }
        for (layer, kv) in kvs.iter().enumerate() {
            m.commit_tree_kv(layer, kv, &[0, 1]);
        }
        m.accept_tokens(&[5, 6]);
        assert_eq!(m.scripts().len(), 4);
        assert_eq!(m.context(), &[1, 2, 5, 6]);
        assert_eq!(m.kv_len(), 4);
    }

    #[test]
    fn clone_shares_weights_until_quantized() {
        let original = lm();
        let dense = original.inner().weights().clone();
        let mut clone = original.clone();
        assert!(clone.inner().shares_weights_with(original.inner()));

        clone.inner_mut().quantize(specee_tensor::QuantBits::Int8);
        assert!(!clone.inner().shares_weights_with(original.inner()));
        assert_eq!(original.inner().weights(), &dense);
    }

    #[test]
    fn truncate_kv_forgets_the_truncated_positions() {
        /// Decodes `tokens` at full depth; every layer's steered output.
        fn decode(m: &mut SyntheticLm, tokens: &[TokenId]) -> Vec<Vec<f32>> {
            let mut meter = Meter::new();
            let mut seen = Vec::new();
            for &token in tokens {
                let pos = m.kv_len();
                let mut h = m.begin_token(token, &mut meter);
                for layer in 0..m.config().n_layers {
                    h = m.forward_layer(layer, &h, pos, &mut meter);
                    seen.push(h.clone());
                }
            }
            seen
        }
        let template = lm();
        let mut cut = template.clone();
        let first = decode(&mut cut, &[1, 2, 3]);
        decode(&mut cut, &[4, 5, 6]);
        let _ = cut.begin_tree(&[7, 8], &[None, Some(0)], &mut Meter::new());
        cut.truncate_kv(3);
        assert_eq!(cut.kv_len(), 3);
        assert!(cut.tree_scripts.is_empty() && cut.tree_tokens.is_empty());

        let mut fresh = template.clone();
        assert_eq!(decode(&mut fresh, &[1, 2, 3]), first);
        assert_eq!(
            (cut.context(), cut.scripts()),
            (fresh.context(), fresh.scripts())
        );
        // A truncation does not rewind the streams: the reference draws
        // from where the truncated model's stand.
        fresh.noise = cut.noise.clone();
        fresh.driver = cut.driver.clone();
        assert_eq!(decode(&mut cut, &[9, 8, 7]), decode(&mut fresh, &[9, 8, 7]));
        assert_eq!(
            (cut.context(), cut.scripts()),
            (fresh.context(), fresh.scripts())
        );
        for layer in 0..cut.config().n_layers {
            assert_eq!(cut.inner().cache(layer), fresh.inner().cache(layer));
        }
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = lm();
        let mut meter = Meter::new();
        prefill(&mut m, &[1, 2, 3], &mut meter);
        m.reset();
        assert_eq!(m.kv_len(), 0);
        assert!(m.context().is_empty());
        assert!(m.scripts().is_empty());
    }
}
