//! `dense_probe` reads one token's head rows with one
//! `final_logits_batch` over its layer states; every row must be the
//! `final_logits` of that layer's state, bit for bit, on `Transformer`
//! (f32 and int8 weights) and `SyntheticLm`, under every backend. The
//! collectors of SpecEE, AdaInfer, the router, CALM and
//! RAEE all read these rows.

use specee::core::engine::{dense_probe, ProbedToken};
use specee::metrics::Meter;
use specee::model::{LayeredLm, ModelConfig, TokenId, Transformer};
use specee::synth::{DatasetProfile, SyntheticLmBuilder};
use specee::tensor::{BackendKind, Pcg, QuantBits};

fn prompts() -> Vec<(Vec<TokenId>, usize)> {
    vec![
        (vec![4, 2, 9], 5),
        (vec![7, 1], 3),
        (vec![3], 1),
        (vec![5; 6], 4),
    ]
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|x| x.to_bits()).collect()
}

/// Probes `model` and checks every token's `fulls` against one
/// `final_logits` call per layer state, and its picks against those rows;
/// returns how many tokens it saw.
fn check<M: LayeredLm>(name: &str, model: &mut M) -> usize {
    let n_layers = model.config().n_layers;
    let mut seen = 0;
    dense_probe(model, &prompts(), |model, token: ProbedToken<'_>| {
        assert_eq!(token.states.len(), n_layers + 1, "{name}");
        assert_eq!(token.fulls.len(), n_layers, "{name}");
        let meter = &mut Meter::new();
        for (layer, full) in token.fulls.iter().enumerate() {
            let row = model.final_logits(&token.states[layer + 1], meter);
            assert_eq!(
                bits(full),
                bits(&row),
                "{name}: token {seen}, layer {layer}"
            );
            let pick = specee::tensor::ops::argmax(&row).expect("logits") as TokenId;
            assert_eq!(
                token.picks[layer], pick,
                "{name}: token {seen}, layer {layer}"
            );
        }
        seen += 1;
    });
    seen
}

/// Decode tokens of `prompts()`: `gen_len - 1` each.
const TOKENS: usize = 4 + 2 + 3;

#[test]
fn every_probed_row_is_the_layers_final_logits_on_a_transformer() {
    for ragged in [false, true] {
        let cfg = if ragged {
            ModelConfig {
                hidden_dim: 30,
                n_heads: 3,
                ffn_dim: 30,
                ..ModelConfig::tiny()
            }
        } else {
            ModelConfig::tiny()
        };
        let dense = Transformer::random(cfg, &mut Pcg::seed(17));
        let mut int8 = dense.clone();
        int8.quantize(QuantBits::Int8);
        for (weights, model) in [("f32", dense), ("int8", int8)] {
            for backend in BackendKind::ALL {
                let mut model = model.clone();
                model.set_backend(backend);
                let name = format!("ragged {ragged} {weights}/{backend}");
                assert_eq!(check(&name, &mut model), TOKENS, "{name}");
            }
        }
    }
}

#[test]
fn every_probed_row_is_the_layers_final_logits_on_a_synthetic_lm() {
    for backend in BackendKind::ALL {
        let mut lm = SyntheticLmBuilder::new(ModelConfig::tiny(), DatasetProfile::qa())
            .seed(23)
            .build();
        lm.set_backend(backend);
        let name = format!("synthetic {backend}");
        assert_eq!(check(&name, &mut lm), TOKENS, "{name}");
    }
}
