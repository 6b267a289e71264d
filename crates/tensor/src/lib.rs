//! Dense `f32` tensor substrate for the AdaFL federated-learning reproduction.
//!
//! This crate provides the minimal-but-complete numeric core that the rest of
//! the workspace builds on: a contiguous row-major n-dimensional [`Tensor`],
//! shape/stride bookkeeping ([`Shape`]), elementwise and reduction kernels,
//! a cache-blocked matrix multiply, and the `im2col`/`col2im` transforms that
//! power convolution in `adafl-nn`.
//!
//! No external BLAS or ML dependency is used; everything is portable Rust so
//! the workspace runs on embedded-class devices and CI machines alike.
//!
//! # Examples
//!
//! ```
//! use adafl_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
//! # Ok::<(), adafl_tensor::TensorError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod im2col;
mod init;
mod matmul;
mod ops;
mod reduce;
mod shape;
mod tensor;
pub mod vecops;

pub use error::TensorError;
pub use im2col::{
    col2im, col2im_grouped_into, col2im_into, im2col, im2col_grouped_into, im2col_into,
    Conv2dGeometry,
};
pub use init::{he_normal, uniform_init, xavier_uniform};
pub use matmul::{
    matmul_into, matmul_into_with, matmul_nt, matmul_nt_samples_with, matmul_nt_with, matmul_tn,
    matmul_tn_with, PackBuf, NR,
};
pub use shape::Shape;
pub use tensor::Tensor;

/// Reference kernels for tests, never for production code: the naive and
/// order-replaying matrix products, and the per-element `im2col` /
/// `col2im` loops the grouped transforms must match bit for bit.
pub mod oracle {
    pub use crate::im2col::oracle::{col2im_into, im2col_into};
    pub use crate::matmul::oracle::*;
}

/// Convenient result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, TensorError>;
