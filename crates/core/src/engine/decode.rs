//! The one greedy loop every engine decodes through.
//!
//! AdaInfer, RAEE, CALM, MoD, D-LLM and the dense baseline are the same
//! token loop with a different decision around a layer; SpecEE is the same
//! request loop with the exit scan's lock-step sweep as its round
//! ([`crate::engine::scan::sweep`] at one seat, as `specee-batch` runs it
//! with one seat per slot); EAGLE, T3 and self-draft are the same request
//! loop with a tree's round ([`crate::engine::selfdraft::sweep_trees`], the
//! same way), which emits several tokens. So there is one of each here and
//! the engines are what differs:
//!
//! * [`Transcript`] — a request's bookkeeping: first token, context ending
//!   in the pending token, each [`Round`] committed, cut at `gen_len`; one
//!   per request here, one per seat in `specee-batch`.
//! * `generate_rounds` — the request: rounds until its transcript is done,
//!   a host step each, the one full [`GenOutput`] literal of the crate.
//! * `decode` — the round that emits one token, under a `LayerRule`
//!   whose hooks all default to "run the layer, read the final head".
//! * [`dense_probe`] — the offline pass of the collectors: decode densely,
//!   read the full head after every layer, hand each token to a visitor.
//! * `greedy_walk` — tree verification: the longest path of the draft
//!   tree the model's own greedy picks follow, reading a node's head row
//!   only where the walk goes (`verify_head` computes and prices them).
//!
//! Each engine keeps the order of its [`Meter::record`] calls within an
//! [`specee_metrics::OpKind`]: the per-kind totals are `f64` sums, so that
//! order is part of bit-identity (`tests/decode_equivalence.rs`).

use specee_metrics::Meter;
use specee_model::{prefill, LayeredLm, OpScale, SkipKvPolicy, TokenId};
use specee_tensor::ops;

use crate::output::GenOutput;

/// The greedy pick of a logits row.
pub(crate) fn pick(logits: &[f32]) -> TokenId {
    ops::argmax(logits).expect("non-empty logits") as TokenId
}

/// A taken exit: the token and the full-vocabulary logits it was read from.
pub(crate) type Exit = Option<(TokenId, Vec<f32>)>;

/// What one round of a request produced: one token through the layers, or
/// a verified tree's accepted path.
#[derive(Debug)]
pub struct Round {
    /// Emitted `(token, cross-entropy)` pairs, in order (at least one).
    pub emitted: Vec<(TokenId, f64)>,
    /// Decoder layers run for each of them.
    pub executed: usize,
}

/// One request's decode so far: the context — the prompt and every emitted
/// token, the last one still pending: emitted but not yet fed to the model
/// — the layers each emitted token ran, and their summed cross-entropy. A
/// round may overshoot `gen_len`; [`Transcript::finish`] truncates tokens
/// and exit layers, while the meter and `ce_sum` keep everything that ran.
#[derive(Debug, Clone)]
pub struct Transcript {
    ctx: Vec<TokenId>,
    prompt_len: usize,
    gen_len: usize,
    exit_layers: Vec<usize>,
    ce_sum: f64,
}

impl Transcript {
    /// Opens a request with its first token, out of the full-depth prefill
    /// of `prompt` past its first `cached` tokens (whose K/V the model
    /// already holds). The prefill runs on a throw-away meter — reported
    /// numbers are decode tokens/s —, the LM head on `meter`, which marks
    /// the token.
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty, `cached` leaves none of it to prefill,
    /// or `gen_len` is zero.
    pub fn start<M: LayeredLm + ?Sized>(
        model: &mut M,
        prompt: &[TokenId],
        cached: usize,
        gen_len: usize,
        meter: &mut Meter,
    ) -> Self {
        assert!(!prompt.is_empty(), "prompt must be non-empty");
        assert!(gen_len > 0, "gen_len must be positive");
        let h = prefill(model, &prompt[cached..], &mut Meter::new());
        let logits = model.final_logits(&h, meter);
        let first = pick(&logits);
        meter.mark_token();
        Transcript {
            ctx: [prompt, &[first]].concat(),
            prompt_len: prompt.len(),
            gen_len,
            exit_layers: vec![model.config().n_layers],
            ce_sum: f64::from(ops::nll(&logits, first as usize)),
        }
    }

    /// The prompt and every emitted token, the pending one last.
    pub fn ctx(&self) -> &[TokenId] {
        &self.ctx
    }

    /// The token the next round feeds: the last one emitted.
    pub fn pending(&self) -> TokenId {
        self.ctx[self.ctx.len() - 1]
    }

    /// Whether `gen_len` tokens are out.
    pub fn done(&self) -> bool {
        self.exit_layers.len() >= self.gen_len
    }

    /// Appends a round's tokens, marking each on `meter`.
    pub fn commit(&mut self, round: Round, meter: &mut Meter) {
        for (token, ce) in round.emitted {
            self.ctx.push(token);
            self.exit_layers.push(round.executed);
            self.ce_sum += ce;
            meter.mark_token();
        }
    }

    /// The emitted tokens and their exit layers, both cut at `gen_len`,
    /// and the cross-entropy of every token emitted.
    pub fn finish(mut self) -> (Vec<TokenId>, Vec<usize>, f64) {
        let mut tokens = self.ctx.split_off(self.prompt_len);
        tokens.truncate(self.gen_len);
        self.exit_layers.truncate(self.gen_len);
        (tokens, self.exit_layers, self.ce_sum)
    }
}

/// Decodes one request: its [`Transcript`], then `round(model, ctx, meter)`
/// with the transcript's context until it is done, one host step charged
/// per round. The counters come back zero: callers fill theirs with
/// `..out`.
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
    let mut meter = Meter::new();
    model.reset();
    let mut log = Transcript::start(model, prompt, 0, gen_len, &mut meter);
    while !log.done() {
        let r = round(model, log.ctx(), &mut meter);
        meter.mark_host_step();
        log.commit(r, &mut meter);
    }
    let (tokens, exit_layers, ce_sum) = log.finish();
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
/// 1` per prompt; the first token comes out of the prefill). A token's
/// head rows come from one [`LayeredLm::final_logits_batch`] over its
/// layer states: one pass over the head, each row what
/// [`LayeredLm::final_logits`] reads. Metering is irrelevant offline and
/// goes to a scratch meter. One token's states and logits are alive at a
/// time.
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
            let mut states = Vec::with_capacity(n_layers + 1);
            states.push(model.begin_token(token, &mut meter));
            for layer in 0..n_layers {
                let h = model.forward_layer(layer, &states[layer], pos, &mut meter);
                states.push(h);
            }
            let fulls = model.final_logits_batch(&states[1..], &mut meter);
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
#[derive(Debug, PartialEq)]
pub(crate) struct Walk {
    /// Accepted node indices in path order; the root (node 0) always is.
    pub(crate) accepted: Vec<usize>,
    /// The model's pick and its cross-entropy at every accepted node: the
    /// tokens the round emits, the last of them the first pick no accepted
    /// child carries.
    pub(crate) emitted: Vec<(TokenId, f64)>,
    /// Whether the walk stopped at a child that *matched* the pick but was
    /// not trusted, rather than at a draft miss.
    pub(crate) cut: bool,
}

/// Walks the draft tree from node 0 (the pending bonus token): at each
/// node the model's greedy pick is emitted, and the walk moves on to the
/// first child carrying that token while that child is trusted.
/// `trusted_row(j)` is node `j`'s head row, or `None` when the node is not
/// trusted; the walk asks it once per node it reads: the root, and each
/// matching child, which is accepted or is the one child the walk stops
/// at. `None` when the root itself is not trusted.
pub(crate) fn greedy_walk(
    node_tokens: &[TokenId],
    parents: &[Option<usize>],
    mut trusted_row: impl FnMut(usize) -> Option<Vec<f32>>,
) -> Option<Walk> {
    let mut full = trusted_row(0)?;
    let mut accepted = vec![0usize];
    let mut emitted = Vec::new();
    loop {
        let cur = *accepted.last().expect("the root is accepted");
        let pred = pick(&full);
        emitted.push((pred, f64::from(ops::nll(&full, pred as usize))));
        let hit = (0..parents.len()).find(|&j| parents[j] == Some(cur) && node_tokens[j] == pred);
        match hit.map(|j| (j, trusted_row(j))) {
            Some((j, Some(next))) => {
                accepted.push(j);
                full = next;
            }
            _ => {
                return Some(Walk {
                    accepted,
                    emitted,
                    cut: hit.is_some(),
                })
            }
        }
    }
}

/// The head rows of a tree verification over the node states `hs`, for
/// [`greedy_walk`] to read: `head(j)` is node `j`'s row, or `None` when
/// `readable(j)` is false — asked first, so an unreadable node's row is
/// never computed. A readable row is computed when it is read, by
/// `final_logits_batch` over that one state. So is a chain's, although the
/// walk may read all of it: a self-draft walk mostly stops at the root,
/// and a call over rows the walk never reads costs more than the weight
/// passes it would save.
///
/// The verification is priced here, once, as the batched verify head of
/// the paper's A100 profile: one `LmHeadFull` record over every node —
/// what `Transformer::final_logits_batch(hs)` records, whatever the model
/// — however few rows are computed. The rows are metered on a scratch
/// meter; the backends give the same sums at any input count, so each
/// row is the whole batch's row bit for bit.
pub(crate) fn verify_head<'a, M: LayeredLm + ?Sized>(
    model: &'a mut M,
    hs: &'a [Vec<f32>],
    readable: impl Fn(usize) -> bool + 'a,
    meter: &mut Meter,
) -> impl FnMut(usize) -> Option<Vec<f32>> + 'a {
    OpScale::of(model.config()).record_lm_head_full_batch(meter, hs.len());
    let mut scratch = Meter::new();
    move |j| {
        readable(j).then(|| {
            model
                .final_logits_batch(std::slice::from_ref(&hs[j]), &mut scratch)
                .pop()
                .expect("one state in, one row out")
        })
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
        /// The head row of tree node `j`, whose state is `[j]`.
        heads: Vec<Vec<f32>>,
        /// The nodes of every `final_logits_batch` call, in order.
        batches: Vec<Vec<usize>>,
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
        fn final_logits_batch(&mut self, hs: &[Vec<f32>], _: &mut Meter) -> Vec<Vec<f32>> {
            let nodes: Vec<usize> = hs.iter().map(|h| h[0] as usize).collect();
            let rows = nodes.iter().map(|&j| self.heads[j].clone()).collect();
            self.batches.push(nodes);
            rows
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
            heads: Vec::new(),
            batches: Vec::new(),
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

    /// [`greedy_walk`] over precomputed rows, `fired` alone deciding trust.
    fn walk_over(
        logits: &[Vec<f32>],
        tokens: &[TokenId],
        parents: &[Option<usize>],
        fired: impl Fn(usize) -> bool,
    ) -> Walk {
        greedy_walk(tokens, parents, |j| fired(j).then(|| logits[j].clone()))
            .expect("a trusted root")
    }

    #[test]
    fn the_walk_follows_a_chain_to_its_end() {
        // 0 → 1 → 2, every pick matching the next node; the last pick (7)
        // has no node to land on.
        let logits = [picking(3), picking(5), picking(7)];
        let walk = walk_over(&logits, &[9, 3, 5], &[None, Some(0), Some(1)], |_| true);
        assert_eq!(walk.accepted, vec![0, 1, 2]);
        let tokens: Vec<TokenId> = walk.emitted.iter().map(|e| e.0).collect();
        assert_eq!(tokens, vec![3, 5, 7]);
        assert!(!walk.cut);
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
        let walk = walk_over(&logits, &[9, 2, 3], &parents, |j| j != 2);
        assert_eq!(walk.accepted, vec![0]);
        assert_eq!(
            (walk.emitted.len(), walk.emitted[0].0, walk.cut),
            (1, 3, true)
        );
        // Trusted, the same child is taken, and a miss below it is no cut.
        let walk = walk_over(&logits, &[9, 2, 3], &parents, |_| true);
        assert_eq!((walk.accepted, walk.cut), (vec![0, 2], false));
    }

    #[test]
    fn the_walk_stops_at_a_root_with_no_matching_child() {
        let logits = [picking(6), picking(1)];
        let walk = walk_over(&logits, &[9, 2], &[None, Some(0)], |_| true);
        assert_eq!(walk.accepted, vec![0]);
        assert_eq!(
            (walk.emitted.len(), walk.emitted[0].0, walk.cut),
            (1, 6, false)
        );
    }

    /// The walk as it was before rows were read on demand: every node's
    /// head row computed up front, `trusted` asked of a matching child with
    /// its row at hand. The oracle of the on-demand walk.
    fn all_rows_walk(
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
            let hit =
                (0..parents.len()).find(|&j| parents[j] == Some(cur) && node_tokens[j] == pred);
            match hit {
                Some(j) if trusted(j) => accepted.push(j),
                _ => {
                    return Walk {
                        accepted,
                        emitted,
                        cut: hit.is_some(),
                    }
                }
            }
        }
    }

    #[test]
    fn the_on_demand_walk_is_the_all_rows_walk_and_computes_only_where_it_goes() {
        let mut rng = Pcg::seed(27);
        // How often each kind of stop was met, so no branch goes untested.
        let (mut deep, mut read_cut, mut unfired_match, mut untrusted_root) = (0, 0, 0, 0);
        for case in 0..2000 {
            // A small vocabulary, so that picks often match children.
            let n = 1 + rng.below(16);
            let tokens: Vec<TokenId> = (0..n).map(|_| rng.below(4) as TokenId).collect();
            let parents: Vec<Option<usize>> =
                (0..n).map(|j| (j > 0).then(|| rng.below(j))).collect();
            let logits: Vec<Vec<f32>> = (0..n)
                .map(|_| (0..4).map(|_| rng.normal() as f32).collect())
                .collect();
            let fired: Vec<bool> = (0..n).map(|_| rng.chance(0.8)).collect();
            let verifies: Vec<bool> = (0..n).map(|_| rng.chance(0.8)).collect();

            let mut m = Taped {
                cfg: ModelConfig::tiny(),
                rows: Vec::new(),
                tape: Rc::default(),
                heads: logits.clone(),
                batches: Vec::new(),
            };
            let hs: Vec<Vec<f32>> = (0..n).map(|j| vec![j as f32]).collect();
            let mut meter = Meter::new();
            let walk = {
                let mut head = verify_head(&mut m, &hs, |j| fired[j], &mut meter);
                greedy_walk(&tokens, &parents, |j| {
                    head(j).filter(|row| {
                        assert_eq!(row, &logits[j], "case {case}: node {j} gets its own row");
                        verifies[j]
                    })
                })
            };
            let trusted = |j: usize| fired[j] && verifies[j];
            let oracle = trusted(0).then(|| all_rows_walk(&logits, &tokens, &parents, trusted));
            assert_eq!(walk, oracle, "case {case}");

            // One row a call, never an unfired node's.
            assert!(
                m.batches.iter().all(|call| call.len() == 1),
                "case {case}: {:?}",
                m.batches
            );
            let computed = m.batches.concat();
            assert!(
                computed.iter().all(|&j| fired[j]),
                "case {case}: an unfired node's row was computed: {computed:?}"
            );
            let Some(walk) = walk else {
                assert!(computed.len() <= 1, "case {case}: {computed:?}");
                untrusted_root += 1;
                continue;
            };
            let path = walk.accepted.len();
            assert_eq!(computed[..path], walk.accepted, "case {case}");
            assert!(computed.len() <= path + 1, "case {case}: {computed:?}");
            if computed.len() == path + 1 {
                assert!(
                    walk.cut,
                    "case {case}: a child computed past the path is the cut"
                );
                read_cut += 1;
            } else if walk.cut {
                unfired_match += 1;
            }
            deep += usize::from(path >= 3);
        }
        assert!(
            [deep, read_cut, unfired_match, untrusted_root]
                .iter()
                .all(|&seen| seen >= 20),
            "{deep} {read_cut} {unfired_match} {untrusted_root}"
        );
    }

    #[test]
    fn a_verification_is_priced_once_over_the_tree_whatever_rows_it_reads() {
        // `verify_head` prices as `Transformer::final_logits_batch` does;
        // the synthetic model forwards its head to its inner transformer,
        // so the two owners of that record cannot drift apart unseen.
        fn check<M: LayeredLm>(m: &mut M, name: &str) {
            let mut scratch = Meter::new();
            let hs: Vec<Vec<f32>> = (0..7).map(|t| m.begin_token(t, &mut scratch)).collect();
            let mut batch_meter = Meter::new();
            let batch = m.final_logits_batch(&hs, &mut batch_meter);
            for reads in [vec![], vec![0], vec![0, 4, 2], (0..7).collect()] {
                let mut meter = Meter::new();
                let rows: Vec<Vec<f32>> = {
                    let mut head = verify_head(m, &hs, |_| true, &mut meter);
                    reads.iter().map(|&j| head(j).expect("readable")).collect()
                };
                for (&j, row) in reads.iter().zip(&rows) {
                    assert_eq!(row, &batch[j], "{name}: row {j} of {reads:?}");
                }
                assert_eq!(meter, batch_meter, "{name}: reading {reads:?}");
            }
        }
        check(&mut model(3), "transformer");
        let synth = specee_synth::SyntheticLmBuilder::new(
            model(3).config().clone(),
            specee_synth::DatasetProfile::qa(),
        );
        check(&mut synth.seed(3).build(), "synthetic");
    }
}
