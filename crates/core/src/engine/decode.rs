//! The one greedy loop every engine decodes through.
//!
//! SpecEE, AdaInfer, RAEE, CALM, MoD, D-LLM and the dense baseline are the
//! same token loop with a different decision around a layer; EAGLE and
//! self-draft are the same request loop with a round that emits several
//! tokens. So there is one of each here and the engines are what differs:
//!
//! * `generate_rounds` — the request: first token, rounds until
//!   `gen_len` tokens are out, every token and host step marked, the one
//!   full [`GenOutput`] literal of the crate.
//! * `decode` — the round that emits one token, under a `LayerRule`
//!   whose hooks all default to "run the layer, read the final head".
//! * [`dense_probe`] — the offline pass of the collectors: decode densely,
//!   read the full head after every layer, hand each token to a visitor.
//! * `greedy_walk` — tree verification: the longest path of the draft
//!   tree the model's own greedy picks follow.
//!
//! Each engine keeps the order of its [`Meter::record`] calls within an
//! [`specee_metrics::OpKind`]: the per-kind totals are `f64` sums, so that
//! order is part of bit-identity (`tests/decode_equivalence.rs`).

use specee_metrics::Meter;
use specee_model::{prefill, LayeredLm, SkipKvPolicy, TokenId};
use specee_tensor::ops;

use crate::engine::first_token;
use crate::output::GenOutput;

/// The greedy pick of a logits row.
pub(crate) fn pick(logits: &[f32]) -> TokenId {
    ops::argmax(logits).expect("non-empty logits") as TokenId
}

/// A taken exit: the token and the full-vocabulary logits it was read from.
pub(crate) type Exit = Option<(TokenId, Vec<f32>)>;

/// What one round of [`generate_rounds`] produced.
pub(crate) struct Round {
    /// Emitted `(token, cross-entropy)` pairs, in order (at least one).
    pub(crate) emitted: Vec<(TokenId, f64)>,
    /// Decoder layers run for each of them.
    pub(crate) executed: usize,
}

/// Decodes one request. The first token comes out of the full-depth
/// prefill; then `round(model, ctx, meter)` runs, with `ctx` the prompt and
/// every emitted token — the last one still pending: it has been emitted
/// but not yet fed to the model — until `gen_len` tokens are out. A round
/// may overshoot; tokens and exit layers are truncated, the meter and
/// `ce_sum` keep everything that ran. One host step is charged per round.
/// The counters come back zero: callers fill theirs with `..out`.
///
/// # Panics
///
/// Panics if `prompt` is empty or `gen_len` is zero.
pub(crate) fn generate_rounds<M: LayeredLm>(
    model: &mut M,
    prompt: &[TokenId],
    gen_len: usize,
    mut round: impl FnMut(&mut M, &[TokenId], &mut Meter) -> Round,
) -> GenOutput {
    assert!(!prompt.is_empty(), "prompt must be non-empty");
    assert!(gen_len > 0, "gen_len must be positive");
    let mut meter = Meter::new();
    model.reset();

    let (first, mut ce_sum) = first_token(model, prompt, &mut meter);
    let mut ctx = prompt.to_vec();
    ctx.push(first);
    let mut exit_layers = vec![model.config().n_layers];

    while exit_layers.len() < gen_len {
        let Round { emitted, executed } = round(model, &ctx, &mut meter);
        meter.mark_host_step();
        for (token, ce) in emitted {
            ctx.push(token);
            exit_layers.push(executed);
            ce_sum += ce;
            meter.mark_token();
        }
    }

    let mut tokens = ctx.split_off(prompt.len());
    tokens.truncate(gen_len);
    exit_layers.truncate(gen_len);
    GenOutput {
        tokens,
        exit_layers,
        ce_sum,
        meter,
        predictor_calls: 0,
        verify_calls: 0,
        rounds: 0,
        draft_calls: 0,
        self_draft_calls: 0,
    }
}

/// What an engine decides around a layer. Every hook defaults to dense
/// decoding, so a rule states only what its method adds.
pub(crate) trait LayerRule<M: LayeredLm> {
    /// Before the pending token (the last of `ctx`) is embedded: draft
    /// proposals, retrieval probes, per-token resets.
    fn begin_token(&mut self, _model: &mut M, _ctx: &[TokenId], _meter: &mut Meter) {}

    /// Whether `layer` is bypassed on its input `h` (MoD / D-LLM): the
    /// hidden state passes through and the layer's K/V is filled from it.
    fn skips(&mut self, _layer: usize, _h: &[f32], _meter: &mut Meter) -> bool {
        false
    }

    /// Whether decoding stops on the output `h` of the non-final `layer`.
    fn exits(&mut self, _model: &mut M, _layer: usize, _h: &[f32], _meter: &mut Meter) -> Exit {
        None
    }

    /// After the token's head was read, with the layers it ran.
    fn end_token(&mut self, _executed: usize) {}
}

/// Decodes one request one token per round under `rule`. A skipped layer
/// and the layers past an exit get their K/V by `skip_policy`; a token
/// that never exits reads the final head after the last layer. The exit
/// layer reported for a token is the number of layers it really ran.
///
/// # Panics
///
/// Panics if `prompt` is empty or `gen_len` is zero.
pub(crate) fn decode<M: LayeredLm, R: LayerRule<M>>(
    model: &mut M,
    rule: &mut R,
    prompt: &[TokenId],
    gen_len: usize,
    skip_policy: SkipKvPolicy,
) -> GenOutput {
    let n_layers = model.config().n_layers;
    generate_rounds(model, prompt, gen_len, |model, ctx, meter| {
        rule.begin_token(model, ctx, meter);
        let pos = model.kv_len();
        let mut h = model.begin_token(*ctx.last().expect("pending token"), meter);
        let mut executed = 0;
        let mut exit = None;
        for layer in 0..n_layers {
            if rule.skips(layer, &h, meter) {
                model.fill_layer_kv(layer, &h, pos, skip_policy, meter);
                continue;
            }
            h = model.forward_layer(layer, &h, pos, meter);
            executed += 1;
            if layer + 1 < n_layers {
                exit = rule.exits(model, layer, &h, meter);
                if exit.is_some() {
                    model.fill_skipped_kv(layer + 1, &h, pos, skip_policy, meter);
                    break;
                }
            }
        }
        let (token, full) = exit.unwrap_or_else(|| {
            let full = model.final_logits(&h, meter);
            (pick(&full), full)
        });
        rule.end_token(executed);
        Round {
            emitted: vec![(token, f64::from(ops::nll(&full, token as usize)))],
            executed,
        }
    })
}

/// One densely decoded token, as [`dense_probe`] hands it to its visitor.
#[derive(Debug, Clone, Copy)]
pub struct ProbedToken<'a> {
    /// The prompt and every token decoded so far; the last one is the
    /// token fed through the layers here.
    pub ctx: &'a [TokenId],
    /// Whether this is the first decode token of its prompt (the model was
    /// reset and the prompt prefilled just before it).
    pub starts_prompt: bool,
    /// `states[0]` is the token's embedding, `states[l + 1]` the hidden
    /// state after layer `l`.
    pub states: &'a [Vec<f32>],
    /// `fulls[l]` is the full-vocabulary logits read after layer `l`.
    pub fulls: &'a [Vec<f32>],
    /// `picks[l]` is the greedy pick of `fulls[l]`; the last one is the
    /// token the model emits.
    pub picks: &'a [TokenId],
}

/// The offline pass behind every collector: decodes each `(prompt,
/// gen_len)` densely — all layers, greedy — and reads the full LM head
/// after *every* layer, calling `visit` once per decode token (`gen_len -
/// 1` per prompt; the first token comes out of the prefill). Metering is
/// irrelevant offline and goes to a scratch meter. One token's states and
/// logits are alive at a time.
///
/// # Panics
///
/// Panics if any prompt is empty.
pub fn dense_probe<M: LayeredLm>(
    model: &mut M,
    prompts: &[(Vec<TokenId>, usize)],
    mut visit: impl FnMut(&mut M, ProbedToken<'_>),
) {
    let n_layers = model.config().n_layers;
    let mut meter = Meter::new();
    for (prompt, gen_len) in prompts {
        model.reset();
        let h = prefill(model, prompt, &mut meter);
        let mut ctx = prompt.clone();
        ctx.push(pick(&model.final_logits(&h, &mut meter)));
        for i in 1..*gen_len {
            let pos = model.kv_len();
            let token = *ctx.last().expect("pending token");
            let mut states = vec![model.begin_token(token, &mut meter)];
            let mut fulls = Vec::with_capacity(n_layers);
            for layer in 0..n_layers {
                let h = model.forward_layer(layer, &states[layer], pos, &mut meter);
                fulls.push(model.final_logits(&h, &mut meter));
                states.push(h);
            }
            let picks: Vec<TokenId> = fulls.iter().map(|full| pick(full)).collect();
            let probed = ProbedToken {
                ctx: &ctx,
                starts_prompt: i == 1,
                states: &states,
                fulls: &fulls,
                picks: &picks,
            };
            visit(model, probed);
            ctx.push(picks[n_layers - 1]);
        }
    }
}

/// The path a greedy tree verification accepts.
#[derive(Debug)]
pub(crate) struct Walk {
    /// Accepted node indices in path order; the root (node 0) always is.
    pub(crate) accepted: Vec<usize>,
    /// The model's pick and its cross-entropy at every accepted node: the
    /// tokens the round emits.
    pub(crate) emitted: Vec<(TokenId, f64)>,
    /// The last pick — the first one no accepted child carries.
    pub(crate) next_bonus: TokenId,
    /// Whether the walk stopped at a child that *matched* the pick but was
    /// not trusted, rather than at a draft miss.
    pub(crate) cut: bool,
}

/// Walks the draft tree from node 0 (the pending bonus token): at each
/// node the model's greedy pick is emitted, and the walk moves on to the
/// first child carrying that token while `trusted` vouches for it.
pub(crate) fn greedy_walk(
    node_logits: &[Vec<f32>],
    node_tokens: &[TokenId],
    parents: &[Option<usize>],
    trusted: impl Fn(usize) -> bool,
) -> Walk {
    let mut accepted = vec![0usize];
    let mut emitted = Vec::new();
    loop {
        let cur = *accepted.last().expect("the root is accepted");
        let full = &node_logits[cur];
        let pred = pick(full);
        emitted.push((pred, f64::from(ops::nll(full, pred as usize))));
        let hit = (0..parents.len()).find(|&j| parents[j] == Some(cur) && node_tokens[j] == pred);
        match hit {
            Some(j) if trusted(j) => accepted.push(j),
            _ => {
                return Walk {
                    accepted,
                    emitted,
                    next_bonus: pred,
                    cut: hit.is_some(),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DenseEngine;
    use specee_model::{ModelConfig, Transformer};
    use specee_tensor::rng::Pcg;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn model(seed: u64) -> Transformer {
        let cfg = ModelConfig {
            n_layers: 5,
            vocab_size: 80,
            ..ModelConfig::tiny()
        };
        Transformer::random(cfg, &mut Pcg::seed(seed))
    }

    /// A rule that overrides nothing.
    struct Plain;
    impl LayerRule<Transformer> for Plain {}

    #[test]
    fn a_rule_that_decides_nothing_is_the_dense_engine_less_its_first_host_step() {
        let mut rng = Pcg::seed(40);
        for case in 0..12u64 {
            let prompt: Vec<TokenId> = (0..1 + rng.below(6))
                .map(|_| rng.below(80) as TokenId)
                .collect();
            let gen_len = 1 + rng.below(9);
            let out = decode(
                &mut model(case),
                &mut Plain,
                &prompt,
                gen_len,
                SkipKvPolicy::ZeroFill,
            );
            let dense = DenseEngine::new(model(case)).generate(&prompt, gen_len);
            let mut meter = out.meter.clone();
            meter.mark_host_step();
            assert_eq!(meter, dense.meter, "case {case}");
            assert_eq!(GenOutput { meter, ..out }, dense, "case {case}");
        }
    }

    /// A model that computes nothing and writes down every call, on the
    /// same tape as the rule driving it.
    struct Taped {
        cfg: ModelConfig,
        rows: Vec<usize>,
        tape: Rc<RefCell<Vec<String>>>,
    }

    impl Taped {
        fn note(&self, call: String) {
            self.tape.borrow_mut().push(call);
        }
    }

    impl LayeredLm for Taped {
        fn config(&self) -> &ModelConfig {
            &self.cfg
        }
        fn reset(&mut self) {
            self.rows.iter_mut().for_each(|r| *r = 0);
        }
        fn begin_token(&mut self, token: TokenId, _: &mut Meter) -> Vec<f32> {
            self.note(format!("embed {token}"));
            vec![0.0]
        }
        fn forward_layer(
            &mut self,
            layer: usize,
            h: &[f32],
            pos: usize,
            _: &mut Meter,
        ) -> Vec<f32> {
            assert_eq!(
                pos, self.rows[layer],
                "layer {layer} appends at its own end"
            );
            self.rows[layer] += 1;
            self.note(format!("layer {layer}"));
            vec![h[0] + 1.0]
        }
        fn fill_layer_kv(
            &mut self,
            layer: usize,
            _: &[f32],
            pos: usize,
            _: SkipKvPolicy,
            _: &mut Meter,
        ) {
            assert_eq!(
                pos, self.rows[layer],
                "layer {layer} is filled at its own end"
            );
            self.rows[layer] += 1;
            self.note(format!("fill {layer}"));
        }
        fn final_logits(&mut self, h: &[f32], _: &mut Meter) -> Vec<f32> {
            self.note(format!("head after {} layers", h[0]));
            vec![0.0, 1.0]
        }
        fn kv_len(&self) -> usize {
            self.rows[0]
        }
        fn begin_tree(
            &mut self,
            _: &[TokenId],
            _: &[Option<usize>],
            _: &mut Meter,
        ) -> Vec<Vec<f32>> {
            unimplemented!("one token per round")
        }
        fn forward_layer_tree(
            &mut self,
            _: usize,
            _: &[Vec<f32>],
            _: &[Option<usize>],
            _: &mut Meter,
        ) -> (Vec<Vec<f32>>, specee_model::TreeKv) {
            unimplemented!("one token per round")
        }
        fn extend_tree(
            &mut self,
            _: &[TokenId],
            _: &[Option<usize>],
            _: usize,
            _: &mut Meter,
        ) -> Vec<Vec<f32>> {
            unimplemented!("one token per round")
        }
        fn forward_layer_tree_partial(
            &mut self,
            _: usize,
            _: &[Vec<f32>],
            _: &[Option<usize>],
            _: usize,
            _: &mut specee_model::TreeKv,
            _: &mut Meter,
        ) -> Vec<Vec<f32>> {
            unimplemented!("one token per round")
        }
        fn commit_tree_kv(&mut self, _: usize, _: &specee_model::TreeKv, _: &[usize]) {
            unimplemented!("one token per round")
        }
        fn accept_tokens(&mut self, _: &[TokenId]) {
            unimplemented!("one token per round")
        }
        fn slice_logits(&mut self, _: &[f32], _: &[TokenId], _: &mut Meter) -> Vec<f32> {
            unimplemented!("the rules here read the full head")
        }
        fn truncate_kv(&mut self, _: usize) {
            unimplemented!("nothing is rolled back")
        }
        fn allocated_kv_tokens(&self) -> usize {
            self.rows.iter().sum()
        }
        fn modelled_weight_bytes(&self) -> f64 {
            0.0
        }
    }

    /// Skips the layers in `skip`, exits after `exit_after` (when it is
    /// offered), and writes every hook call on the model's tape.
    struct Scripted {
        skip: Vec<usize>,
        exit_after: usize,
        tape: Rc<RefCell<Vec<String>>>,
    }

    impl LayerRule<Taped> for Scripted {
        fn begin_token(&mut self, _: &mut Taped, ctx: &[TokenId], _: &mut Meter) {
            self.tape.borrow_mut().push(format!("begin_token {ctx:?}"));
        }
        fn skips(&mut self, layer: usize, _: &[f32], _: &mut Meter) -> bool {
            self.skip.contains(&layer)
        }
        fn exits(&mut self, m: &mut Taped, layer: usize, h: &[f32], meter: &mut Meter) -> Exit {
            self.tape.borrow_mut().push(format!("exits? {layer}"));
            (layer == self.exit_after).then(|| (1, m.final_logits(h, meter)))
        }
        fn end_token(&mut self, executed: usize) {
            self.tape.borrow_mut().push(format!("end_token {executed}"));
        }
    }

    /// Decodes `[7]` + one more token on a five-layer [`Taped`] model and
    /// returns the second token's calls with the output.
    fn taped(skip: Vec<usize>, exit_after: usize) -> (Vec<String>, GenOutput, Taped) {
        let tape = Rc::new(RefCell::new(Vec::new()));
        let cfg = ModelConfig {
            n_layers: 5,
            ..ModelConfig::tiny()
        };
        let mut m = Taped {
            cfg,
            rows: vec![0; 5],
            tape: Rc::clone(&tape),
        };
        let mut rule = Scripted {
            skip,
            exit_after,
            tape: Rc::clone(&tape),
        };
        let out = decode(&mut m, &mut rule, &[7], 2, SkipKvPolicy::ProjectExitHidden);
        let calls = tape.borrow().clone();
        let second = calls
            .iter()
            .position(|c| c.starts_with("begin_token"))
            .expect("a second token");
        (calls[second..].to_vec(), out, m)
    }

    #[test]
    fn one_token_is_hooks_layers_fills_and_one_head_in_this_order() {
        let (calls, out, m) = taped(vec![1], 3);
        let expected = [
            "begin_token [7, 1]",
            "embed 1",
            "layer 0",
            "exits? 0",
            "fill 1",
            "layer 2",
            "exits? 2",
            "layer 3",
            "exits? 3",
            "head after 3 layers",
            "fill 4",
            "end_token 3",
        ];
        assert_eq!(calls, expected);
        // Layers 0, 2, 3 ran: 1 was skipped, 4 is past the exit.
        assert_eq!(out.exit_layers, vec![5, 3]);
        // A run layer, a skipped one and one past the exit all hold a row
        // per fed token: the prompt and all but the last emitted.
        assert_eq!(m.rows, vec![2; 5]);
        assert_eq!((out.meter.tokens(), out.meter.host_steps()), (2, 1));
    }

    #[test]
    fn the_final_layer_is_never_offered_as_an_exit() {
        let (calls, out, m) = taped(Vec::new(), 4);
        let expected = [
            "begin_token [7, 1]",
            "embed 1",
            "layer 0",
            "exits? 0",
            "layer 1",
            "exits? 1",
            "layer 2",
            "exits? 2",
            "layer 3",
            "exits? 3",
            "layer 4",
            "head after 5 layers",
            "end_token 5",
        ];
        assert_eq!(calls, expected);
        assert_eq!(out.exit_layers, vec![5, 5]);
        assert_eq!(m.rows, vec![2; 5]);
    }

    #[test]
    fn rounds_that_overshoot_are_truncated_but_fully_metered() {
        let mut seen = Vec::new();
        let out = generate_rounds(&mut model(9), &[4, 5], 4, |_, ctx, _| {
            seen.push(ctx.to_vec());
            Round {
                emitted: vec![(60, 0.5), (61, 0.25)],
                executed: 2,
            }
        });
        let first = out.tokens[0];
        // The pending token rides last in `ctx`, exactly once.
        assert_eq!(seen, vec![vec![4, 5, first], vec![4, 5, first, 60, 61]]);
        assert_eq!(out.tokens, vec![first, 60, 61, 60]);
        assert_eq!(out.exit_layers, vec![5, 2, 2, 2]);
        assert_eq!((out.meter.tokens(), out.meter.host_steps()), (5, 2));
        assert_eq!(
            (out.rounds, out.predictor_calls, out.verify_calls),
            (0, 0, 0)
        );
    }

    /// Logits whose greedy pick is `token`.
    fn picking(token: TokenId) -> Vec<f32> {
        let mut row = vec![0.0; 8];
        row[token as usize] = 4.0;
        row
    }

    #[test]
    fn the_walk_follows_a_chain_to_its_end() {
        // 0 → 1 → 2, every pick matching the next node; the last pick (7)
        // has no node to land on.
        let logits = [picking(3), picking(5), picking(7)];
        let walk = greedy_walk(&logits, &[9, 3, 5], &[None, Some(0), Some(1)], |_| true);
        assert_eq!(walk.accepted, vec![0, 1, 2]);
        let tokens: Vec<TokenId> = walk.emitted.iter().map(|e| e.0).collect();
        assert_eq!(tokens, vec![3, 5, 7]);
        assert_eq!((walk.next_bonus, walk.cut), (7, false));
        let ce = f64::from(ops::nll(&logits[0], 3));
        assert_eq!(walk.emitted[0].1, ce);
    }

    #[test]
    fn the_walk_is_cut_at_an_untrusted_matching_child() {
        // The root picks 3; of its children (tokens 2 and 3) the match is
        // node 2, which is not trusted: the pick is emitted, node 2 is not
        // accepted, and the stop is a cut.
        let logits = [picking(3), picking(1), picking(1)];
        let parents = [None, Some(0), Some(0)];
        let walk = greedy_walk(&logits, &[9, 2, 3], &parents, |j| j != 2);
        assert_eq!(walk.accepted, vec![0]);
        assert_eq!(
            (walk.emitted.len(), walk.next_bonus, walk.cut),
            (1, 3, true)
        );
        // Trusted, the same child is taken, and a miss below it is no cut.
        let walk = greedy_walk(&logits, &[9, 2, 3], &parents, |_| true);
        assert_eq!((walk.accepted, walk.cut), (vec![0, 2], false));
    }

    #[test]
    fn the_walk_stops_at_a_root_with_no_matching_child() {
        let logits = [picking(6), picking(1)];
        let walk = greedy_walk(&logits, &[9, 2], &[None, Some(0)], |_| true);
        assert_eq!(walk.accepted, vec![0]);
        assert_eq!(
            (walk.emitted.len(), walk.next_bonus, walk.cut),
            (1, 6, false)
        );
    }
}
