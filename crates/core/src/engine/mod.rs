//! Decoding engines: dense baseline, SpecEE autoregressive, and
//! speculative (EAGLE ± SpecEE, separate-draft or self-draft).
//! All of them, and the comparators of [`crate::baselines`] and
//! [`crate::skip_layer`], decode through the one loop in [`decode`]; a
//! token round is [`scan`]'s sweep, a tree round [`selfdraft`]'s.

mod autoregressive;
pub mod decode;
mod dense;
pub mod scan;
pub mod selfdraft;
mod speculative;

pub use autoregressive::SpecEeEngine;
pub use decode::{dense_probe, ProbedToken, Round, Transcript};
pub use dense::DenseEngine;
pub use scan::{ExitFeedback, ExitScan};
pub use selfdraft::DraftPass;
pub use speculative::SpeculativeEngine;
