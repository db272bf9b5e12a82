//! Decoding engines: dense baseline, SpecEE autoregressive, and
//! speculative (EAGLE ± SpecEE, separate-draft or self-draft).

use specee_metrics::Meter;
use specee_model::{prefill, LayeredLm, TokenId};
use specee_tensor::ops;

mod autoregressive;
mod dense;
pub mod scan;
pub mod selfdraft;
mod speculative;

pub use autoregressive::SpecEeEngine;
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
    let t = ops::argmax(&logits).expect("logits") as TokenId;
    meter.mark_token();
    (t, f64::from(ops::nll(&logits, t as usize)))
}
