//! Decoding engines: dense baseline, SpecEE autoregressive, and
//! speculative (EAGLE ± SpecEE, separate-draft or self-draft).
//! All of them, and the comparators of [`crate::baselines`] and
//! [`crate::skip_layer`], decode through the one loop in [`decode`].

use specee_metrics::Meter;
use specee_model::{prefill, LayeredLm, TokenId};
use specee_tensor::ops;

mod autoregressive;
pub mod decode;
mod dense;
pub mod scan;
pub mod selfdraft;
mod speculative;

pub use autoregressive::SpecEeEngine;
pub use decode::{dense_probe, ProbedToken};
pub use dense::DenseEngine;
pub use scan::{ExitFeedback, ExitScan};
pub use selfdraft::{DraftPass, RoundOutcome};
pub use speculative::SpeculativeEngine;

/// The first token of a generation, shared by every engine: the prompt is
/// prefilled at full depth on a throw-away meter (reported numbers are
/// decode tokens/s), its last hidden state goes through the LM head on
/// `meter`, and the greedy pick is marked there as one token. Returns the
/// token and its negative log-likelihood.
///
/// # Panics
///
/// Panics if `prompt` is empty.
pub fn first_token<M: LayeredLm + ?Sized>(
    model: &mut M,
    prompt: &[TokenId],
    meter: &mut Meter,
) -> (TokenId, f64) {
    let h0 = prefill(model, prompt, &mut Meter::new());
    let logits = model.final_logits(&h0, meter);
    let t = decode::pick(&logits);
    meter.mark_token();
    (t, f64::from(ops::nll(&logits, t as usize)))
}
