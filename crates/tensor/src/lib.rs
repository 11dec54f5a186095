//! Dense `f32` linear-algebra substrate for the memlstm reproduction.
//!
//! This crate provides exactly the operations the paper's LSTM execution
//! needs: row-major matrices and vectors, `Sgemv`/`Sgemm` kernels (plus the
//! row-masked variants used by Dynamic Row Skip), the activation functions
//! with their *sensitive area* boundaries (paper Fig. 7), weight
//! initializers that mimic trained-LSTM statistics, and the running
//! statistics used by the offline context-link distribution collection
//! (paper Eq. 6).
//!
//! # Example
//!
//! ```
//! use tensor::{Matrix, Vector};
//!
//! let a = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
//! let x = Vector::from(vec![1.0, 0.0, -1.0]);
//! let y = a.gemv(&x);
//! assert_eq!(y.as_slice(), &[-2.0, -2.0]);
//! ```

// `deny`, not `forbid`: the sanctioned exceptions are the
// runtime-dispatched SIMD panel micro-kernels in `packed`, `fused` and
// `quant`, each with a scoped `#[allow(unsafe_code)]` and a safety
// argument.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod error;
pub mod fused;
pub mod gemm;
pub mod init;
pub mod matrix;
pub mod packed;
pub mod quant;
pub mod stats;
pub mod vector;

pub use activation::{hard_sigmoid, sigmoid, tanh, Activation, SENSITIVE_HI, SENSITIVE_LO};
pub use error::{ShapeError, TensorResult};
pub use fused::FusedGates;
pub use matrix::Matrix;
pub use packed::{sgemv_masked_gather, PackedMatrix};
pub use quant::{f16_bits_to_f32, f32_to_f16_bits, quantize_row_i8, Precision, QuantizedGates};
pub use stats::{Histogram, RunningStats};
pub use vector::Vector;
