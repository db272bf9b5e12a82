//! The layer-major `LayeredLm::prefill` overrides against the trait's
//! token-major default, bit for bit.
//!
//! A type that overrides the method cannot reach the default body, so
//! [`TokenMajor`] forwards the required methods and inherits every
//! default — which is also what a foreign wrapper gets.

use proptest::prelude::*;
use specee::metrics::Meter;
use specee::model::{KvLayout, LayeredLm, ModelConfig, SkipKvPolicy, TokenId, Transformer, TreeKv};
use specee::synth::{DatasetProfile, SyntheticLm, SyntheticLmBuilder};
use specee::tensor::{BackendKind, Pcg};

struct TokenMajor<M>(M);

impl<M: LayeredLm> LayeredLm for TokenMajor<M> {
    fn config(&self) -> &ModelConfig {
        self.0.config()
    }
    fn reset(&mut self) {
        self.0.reset();
    }
    fn begin_token(&mut self, token: TokenId, meter: &mut Meter) -> Vec<f32> {
        self.0.begin_token(token, meter)
    }
    fn forward_layer(
        &mut self,
        layer: usize,
        h: &[f32],
        pos: usize,
        meter: &mut Meter,
    ) -> Vec<f32> {
        self.0.forward_layer(layer, h, pos, meter)
    }
    fn begin_tree(
        &mut self,
        tokens: &[TokenId],
        parents: &[Option<usize>],
        meter: &mut Meter,
    ) -> Vec<Vec<f32>> {
        self.0.begin_tree(tokens, parents, meter)
    }
    fn forward_layer_tree(
        &mut self,
        layer: usize,
        hs: &[Vec<f32>],
        parents: &[Option<usize>],
        meter: &mut Meter,
    ) -> (Vec<Vec<f32>>, TreeKv) {
        self.0.forward_layer_tree(layer, hs, parents, meter)
    }
    fn extend_tree(
        &mut self,
        tokens: &[TokenId],
        parents: &[Option<usize>],
        first_new: usize,
        meter: &mut Meter,
    ) -> Vec<Vec<f32>> {
        self.0.extend_tree(tokens, parents, first_new, meter)
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
        self.0
            .forward_layer_tree_partial(layer, new_hs, parents, first_new, scratch, meter)
    }
    fn commit_tree_kv(&mut self, layer: usize, kv: &TreeKv, accepted: &[usize]) {
        self.0.commit_tree_kv(layer, kv, accepted);
    }
    fn accept_tokens(&mut self, tokens: &[TokenId]) {
        self.0.accept_tokens(tokens);
    }
    fn fill_layer_kv(
        &mut self,
        layer: usize,
        h: &[f32],
        pos: usize,
        policy: SkipKvPolicy,
        meter: &mut Meter,
    ) {
        self.0.fill_layer_kv(layer, h, pos, policy, meter);
    }
    fn final_logits(&mut self, h: &[f32], meter: &mut Meter) -> Vec<f32> {
        self.0.final_logits(h, meter)
    }
    fn slice_logits(&mut self, h: &[f32], tokens: &[TokenId], meter: &mut Meter) -> Vec<f32> {
        self.0.slice_logits(h, tokens, meter)
    }
    fn kv_len(&self) -> usize {
        self.0.kv_len()
    }
    fn truncate_kv(&mut self, len: usize) {
        self.0.truncate_kv(len);
    }
    fn allocated_kv_tokens(&self) -> usize {
        self.0.allocated_kv_tokens()
    }
    fn modelled_weight_bytes(&self) -> f64 {
        self.0.modelled_weight_bytes()
    }
}

fn prompt_of(seed: u64, len: usize, vocab: usize) -> Vec<TokenId> {
    let mut rng = Pcg::seed(seed);
    (0..len).map(|_| rng.below(vocab) as TokenId).collect()
}

/// Every committed K/V row of every layer.
fn kv_rows(model: &Transformer) -> Vec<Vec<f32>> {
    (0..model.config().n_layers)
        .flat_map(|layer| {
            let cache = model.cache(layer);
            (0..cache.len())
                .flat_map(move |pos| [cache.key(pos).to_vec(), cache.value(pos).to_vec()])
        })
        .collect()
}

/// One full-depth decode step; returns the next token's logits.
fn decode_step<M: LayeredLm>(model: &mut M, token: TokenId, meter: &mut Meter) -> Vec<f32> {
    let pos = model.kv_len();
    let mut h = model.begin_token(token, meter);
    for layer in 0..model.config().n_layers {
        h = model.forward_layer(layer, &h, pos, meter);
    }
    model.final_logits(&h, meter)
}

proptest! {
    #[test]
    fn transformer_prefill_equals_the_token_major_default(
        seed in 0u64..1000,
        len in 1usize..40,
        warm in 0usize..6,
    ) {
        let cfg = ModelConfig::tiny();
        let weights = Transformer::random(cfg.clone(), &mut Pcg::seed(seed));
        let prompt = prompt_of(seed ^ 0x51, len, cfg.vocab_size);
        let warm_prompt = prompt_of(seed ^ 0xa7, warm, cfg.vocab_size);
        for backend in [BackendKind::Reference, BackendKind::Blocked, BackendKind::QuantizedI8] {
            for layout in [KvLayout::Contiguous, KvLayout::Paged { page_size: 4 }] {
                let mut model = weights.clone();
                model.set_kv_layout(layout);
                model.set_backend(backend);
                let mut meter = Meter::new();
                if !warm_prompt.is_empty() {
                    model.prefill(&warm_prompt, &mut meter);
                }
                let mut layer_major = model.clone();
                let mut token_major = TokenMajor(model);
                let (mut meter_a, mut meter_b) = (meter.clone(), meter);

                let ha = layer_major.prefill(&prompt, &mut meter_a);
                let hb = token_major.prefill(&prompt, &mut meter_b);

                prop_assert_eq!(ha, hb, "last hidden, {:?} {:?}", backend, layout);
                prop_assert_eq!(layer_major.kv_len(), warm + len);
                prop_assert_eq!(kv_rows(&layer_major), kv_rows(&token_major.0));
                prop_assert_eq!(meter_a, meter_b);
            }
        }
    }

    #[test]
    fn synthetic_prefill_equals_the_token_major_default(
        seed in 0u64..1000,
        len in 1usize..40,
        warm in 0usize..6,
    ) {
        let cfg = ModelConfig { n_layers: 6, ..ModelConfig::tiny() };
        let mut model: SyntheticLm = SyntheticLmBuilder::new(cfg.clone(), DatasetProfile::qa())
            .seed(seed)
            .build();
        let prompt = prompt_of(seed ^ 0x51, len, cfg.vocab_size);
        let warm_prompt = prompt_of(seed ^ 0xa7, warm, cfg.vocab_size);
        let mut meter = Meter::new();
        if !warm_prompt.is_empty() {
            model.prefill(&warm_prompt, &mut meter);
        }
        let mut layer_major = model.clone();
        let mut token_major = TokenMajor(model);
        let (mut meter_a, mut meter_b) = (meter.clone(), meter);

        let ha = layer_major.prefill(&prompt, &mut meter_a);
        let hb = token_major.prefill(&prompt, &mut meter_b);

        prop_assert_eq!(ha, hb, "last hidden");
        prop_assert_eq!(kv_rows(layer_major.inner()), kv_rows(token_major.0.inner()));
        prop_assert_eq!(layer_major.scripts(), token_major.0.scripts());
        // Eight more steps: equal only if the noise and saturation streams
        // ended the prefill at the same position on both sides.
        for step in 0..8u32 {
            let token = (seed as u32 + step * 13) % cfg.vocab_size as u32;
            let la = decode_step(&mut layer_major, token, &mut meter_a);
            let lb = decode_step(&mut token_major, token, &mut meter_b);
            prop_assert_eq!(la, lb, "decode step {}", step);
        }
        prop_assert_eq!(meter_a, meter_b);
    }
}
