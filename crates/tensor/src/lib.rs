//! Dense and quantized linear-algebra kernels for the SpecEE simulator.
//!
//! This crate is the numerical substrate of the reproduction: row-major
//! [`Matrix`] with mat-vec/mat-mat products, the vector kernels used by a
//! transformer decoder ([`ops`]), group-quantized int8/int4 matrices
//! ([`quant`]) standing in for AWQ-style weight quantization, the block-wise
//! grouped GEMM used by SpecEE's hyper-token feature extraction
//! ([`grouped`]), a pluggable compute-backend seam ([`backend`]) with a
//! scalar oracle, a cache-blocked kernel set, and an i8 integer kernel set,
//! the decoder's SIMD softmax-attention kernel ([`attention`]), and a
//! deterministic PRNG ([`rng`]) so every experiment is bit-reproducible.
//!
//! # Examples
//!
//! ```
//! use specee_tensor::{Matrix, rng::Pcg};
//!
//! let mut rng = Pcg::seed(7);
//! let w = Matrix::random(4, 3, 0.5, &mut rng);
//! let y = w.matvec(&[1.0, 2.0, 3.0]);
//! assert_eq!(y.len(), 4);
//! ```

#![deny(missing_docs)]

pub mod attention;
pub mod awq;
pub mod backend;
pub mod grouped;
pub mod matrix;
pub mod ops;
pub mod par;
pub mod quant;
pub mod rng;

pub use awq::{AwqCalibration, AwqMatrix};
pub use backend::{Backend, BackendKind, Blocked, QuantizedI8, Reference};
pub use grouped::{grouped_matvec, GroupedGemm, GroupedGemmSpec};
pub use matrix::Matrix;
pub use quant::{QuantBits, QuantError, QuantizedMatrix};
pub use rng::Pcg;
