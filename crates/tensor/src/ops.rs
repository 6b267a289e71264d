//! Elementwise arithmetic on [`Tensor`].
//!
//! Binary operations require identical shapes, except for the row-broadcast
//! helpers used by bias addition. Operator overloads (`+`, `-`, `*` by
//! scalar) are provided for the common same-shape cases and panic on shape
//! mismatch; the method forms return [`Result`] instead.

use crate::{Result, Tensor, TensorError};
use std::ops::{Add, Mul, Neg, Sub};

impl Tensor {
    fn check_same_shape(&self, rhs: &Tensor, op: &'static str) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape().dims().to_vec(),
                rhs: rhs.shape().dims().to_vec(),
                op,
            });
        }
        Ok(())
    }

    /// Elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add_checked(&self, rhs: &Tensor) -> Result<Tensor> {
        self.check_same_shape(rhs, "add")?;
        let data = self
            .as_slice()
            .iter()
            .zip(rhs.as_slice())
            .map(|(a, b)| a + b)
            .collect();
        Tensor::from_vec(data, self.shape().dims())
    }

    /// Elementwise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn sub_checked(&self, rhs: &Tensor) -> Result<Tensor> {
        self.check_same_shape(rhs, "sub")?;
        let data = self
            .as_slice()
            .iter()
            .zip(rhs.as_slice())
            .map(|(a, b)| a - b)
            .collect();
        Tensor::from_vec(data, self.shape().dims())
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn mul_checked(&self, rhs: &Tensor) -> Result<Tensor> {
        self.check_same_shape(rhs, "mul")?;
        let data = self
            .as_slice()
            .iter()
            .zip(rhs.as_slice())
            .map(|(a, b)| a * b)
            .collect();
        Tensor::from_vec(data, self.shape().dims())
    }

    /// Multiplies every element by `k`, returning a new tensor.
    pub fn scale(&self, k: f32) -> Tensor {
        let mut out = self.clone();
        out.map_inplace(|a| a * k);
        out
    }

    /// Adds `rhs * k` into `self` in place (axpy).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn axpy(&mut self, k: f32, rhs: &Tensor) -> Result<()> {
        self.check_same_shape(rhs, "axpy")?;
        for (a, b) in self.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *a += k * b;
        }
        Ok(())
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for a in self.as_mut_slice() {
            *a = f(*a);
        }
    }

    /// Adds a rank-1 `bias` to each row of a rank-2 tensor in place.
    ///
    /// Used by fully-connected bias addition: `self` is `[batch, features]`,
    /// `bias` is `[features]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] when `self` is not a matrix, or
    /// [`TensorError::ShapeMismatch`] when widths differ.
    pub fn add_row_broadcast(&mut self, bias: &Tensor) -> Result<()> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
                op: "add_row_broadcast",
            });
        }
        let cols = self.shape().dims()[1];
        if bias.len() != cols {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape().dims().to_vec(),
                rhs: bias.shape().dims().to_vec(),
                op: "add_row_broadcast",
            });
        }
        let b = bias.as_slice();
        for row in self.as_mut_slice().chunks_mut(cols) {
            for (x, bb) in row.iter_mut().zip(b) {
                *x += bb;
            }
        }
        Ok(())
    }
}

impl Add for &Tensor {
    type Output = Tensor;

    /// # Panics
    ///
    /// Panics when shapes differ; use [`Tensor::add_checked`] for a fallible
    /// variant.
    fn add(self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape(), rhs.shape(), "tensor addition shape mismatch");
        let mut out = self.clone();
        for (a, b) in out.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *a += b;
        }
        out
    }
}

impl Sub for &Tensor {
    type Output = Tensor;

    /// # Panics
    ///
    /// Panics when shapes differ; use [`Tensor::sub_checked`] for a fallible
    /// variant.
    fn sub(self, rhs: &Tensor) -> Tensor {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "tensor subtraction shape mismatch"
        );
        let mut out = self.clone();
        for (a, b) in out.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *a -= b;
        }
        out
    }
}

impl Mul<f32> for &Tensor {
    type Output = Tensor;

    fn mul(self, k: f32) -> Tensor {
        self.scale(k)
    }
}

impl Neg for &Tensor {
    type Output = Tensor;

    fn neg(self) -> Tensor {
        self.scale(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32]) -> Tensor {
        Tensor::from_slice(data)
    }

    #[test]
    fn add_sub_mul_elementwise() {
        let a = t(&[1.0, 2.0, 3.0]);
        let b = t(&[4.0, 5.0, 6.0]);
        assert_eq!((&a + &b).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!((&b - &a).as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul_checked(&b).unwrap().as_slice(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    fn shape_mismatch_is_error() {
        let a = t(&[1.0, 2.0]);
        let b = t(&[1.0, 2.0, 3.0]);
        assert!(a.add_checked(&b).is_err());
        assert!(a.sub_checked(&b).is_err());
        assert!(a.mul_checked(&b).is_err());
        assert!(a.clone().axpy(1.0, &b).is_err());
    }

    #[test]
    fn scale_and_neg() {
        let a = t(&[1.0, -2.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, -4.0]);
        assert_eq!((&a * 0.5).as_slice(), &[0.5, -1.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, 2.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = t(&[1.0, 1.0]);
        a.axpy(2.0, &t(&[3.0, 4.0])).unwrap();
        assert_eq!(a.as_slice(), &[7.0, 9.0]);
    }

    #[test]
    fn map_applies_function() {
        let a = t(&[-1.0, 2.0]);
        assert_eq!(a.map(|x| x.max(0.0)).as_slice(), &[0.0, 2.0]);
        let mut b = a.clone();
        b.map_inplace(|x| x * x);
        assert_eq!(b.as_slice(), &[1.0, 4.0]);
    }

    #[test]
    fn row_broadcast_adds_bias_to_each_row() {
        let mut m = Tensor::from_vec(vec![0.0; 6], &[2, 3]).unwrap();
        m.add_row_broadcast(&t(&[1.0, 2.0, 3.0])).unwrap();
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn row_broadcast_validates() {
        let mut v = t(&[0.0; 3]);
        assert!(v.add_row_broadcast(&t(&[1.0])).is_err());
        let mut m = Tensor::zeros(&[2, 3]);
        assert!(m.add_row_broadcast(&t(&[1.0, 2.0])).is_err());
    }
}
