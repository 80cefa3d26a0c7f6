//! # ecad-tensor
//!
//! Dense linear-algebra substrate for the ECAD co-design flow.
//!
//! The paper's MLP workloads reduce to general matrix multiplication
//! (GEMM); production deployments call a vendor BLAS. This crate is the
//! BLAS stand-in: a row-major [`Matrix`] type over `f32`, a cache-blocked
//! GEMM kernel, libm-free transcendental kernels ([`math`]), and the small
//! vector routines (bias broadcast, softmax, reductions) needed by the
//! MLP trainer and the classical baselines.
//!
//! Everything is deterministic given a seeded RNG, which the evolutionary
//! engine relies on for reproducible searches.
//!
//! ## Example
//!
//! ```
//! use ecad_tensor::{Matrix, gemm};
//!
//! let a = Matrix::from_rows(&[[1.0, 2.0], [3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = gemm::matmul(&a, &b);
//! assert_eq!(c, a);
//! ```

#![warn(missing_docs)]

mod error;
mod matrix;

pub mod gemm;
pub mod init;
pub mod math;
pub mod ops;
pub mod stats;

pub use error::ShapeError;
pub use matrix::Matrix;
