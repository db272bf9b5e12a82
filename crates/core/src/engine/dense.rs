//! Dense autoregressive baseline (the HuggingFace/vllm/AWQ stand-in).

use specee_model::{LayeredLm, SkipKvPolicy, TokenId};

use crate::engine::decode::{decode, LayerRule};
use crate::output::GenOutput;

/// The rule that decides nothing: every layer runs, no token exits.
struct Dense;

impl<M: LayeredLm> LayerRule<M> for Dense {}

/// Greedy autoregressive decoding through every layer.
///
/// # Examples
///
/// ```
/// use specee_core::engine::DenseEngine;
/// use specee_model::{ModelConfig, Transformer};
/// use specee_tensor::rng::Pcg;
///
/// let model = Transformer::random(ModelConfig::tiny(), &mut Pcg::seed(1));
/// let mut engine = DenseEngine::new(model);
/// let out = engine.generate(&[1, 2, 3], 8);
/// assert_eq!(out.tokens.len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct DenseEngine<M> {
    model: M,
}

impl<M: LayeredLm> DenseEngine<M> {
    /// Wraps a model.
    pub fn new(model: M) -> Self {
        DenseEngine { model }
    }

    /// Borrows the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Generates `gen_len` tokens greedily.
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty or `gen_len` is zero.
    pub fn generate(&mut self, prompt: &[TokenId], gen_len: usize) -> GenOutput {
        let unused = SkipKvPolicy::default();
        let mut out = decode(&mut self.model, &mut Dense, prompt, gen_len, unused);
        // The dense baseline alone charges a host step for the first token
        // as well (every early-exit engine starts counting at the second);
        // every priced dense number in the repo includes it.
        out.meter.mark_host_step();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specee_model::{ModelConfig, Transformer};
    use specee_synth::{DatasetProfile, SyntheticLmBuilder};
    use specee_tensor::rng::Pcg;

    #[test]
    fn emits_requested_tokens_at_full_depth() {
        let model = Transformer::random(ModelConfig::tiny(), &mut Pcg::seed(1));
        let mut e = DenseEngine::new(model);
        let out = e.generate(&[1, 2], 5);
        assert_eq!(out.tokens.len(), 5);
        assert!(out.exit_layers.iter().all(|&l| l == 4));
        assert_eq!(out.meter.tokens(), 5);
    }

    #[test]
    fn synthetic_model_tracks_ground_truth() {
        let lm = SyntheticLmBuilder::new(ModelConfig::tiny(), DatasetProfile::qa())
            .seed(4)
            .build();
        let lang = *lm.language();
        let mut e = DenseEngine::new(lm);
        let prompt = vec![3u32, 1, 4];
        let out = e.generate(&prompt, 12);
        let mut ctx = prompt.clone();
        let mut correct = 0;
        for &t in &out.tokens {
            if t == lang.next_token(&ctx) {
                correct += 1;
            }
            ctx.push(t);
        }
        assert!(correct >= 10, "dense accuracy {correct}/12");
    }

    #[test]
    fn deterministic() {
        let build = || {
            let lm = SyntheticLmBuilder::new(ModelConfig::tiny(), DatasetProfile::sum())
                .seed(8)
                .build();
            DenseEngine::new(lm)
        };
        let a = build().generate(&[5, 6], 6);
        let b = build().generate(&[5, 6], 6);
        assert_eq!(a.tokens, b.tokens);
    }
}
