//! SpecEE reproduction — umbrella crate.
//!
//! Re-exports the whole workspace so examples and integration tests can use
//! one `specee::` namespace. The paper's contribution lives in
//! [`specee_core`]; the substrates it depends on are the other crates.
//!
//! # Quick start
//!
//! ```
//! use specee::tensor::Matrix;
//! let m = Matrix::zeros(2, 2); assert_eq!(m.rows(), 2);
//! ```

#![deny(missing_docs)]

pub use specee_batch as batch;
pub use specee_cluster as cluster;
pub use specee_control as control;
pub use specee_core as core;
pub use specee_draft as draft;
pub use specee_metrics as metrics;
pub use specee_model as model;
pub use specee_nn as nn;
pub use specee_obs as obs;
pub use specee_serve as serve;
pub use specee_synth as synth;
pub use specee_tensor as tensor;
