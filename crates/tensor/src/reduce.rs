//! Reductions: sums, means, norms, extrema and softmax.

use crate::{Result, Tensor, TensorError};

impl Tensor {
    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Arithmetic mean of all elements; `0.0` for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Euclidean (L2) norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.as_slice().iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Maximum element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for an empty tensor.
    pub fn max(&self) -> Result<f32> {
        self.as_slice()
            .iter()
            .copied()
            .fold(None, |acc: Option<f32>, x| {
                Some(acc.map_or(x, |a| a.max(x)))
            })
            .ok_or(TensorError::Empty { op: "max" })
    }

    /// Index of the maximum element (first occurrence).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for an empty tensor.
    pub fn argmax(&self) -> Result<usize> {
        if self.is_empty() {
            return Err(TensorError::Empty { op: "argmax" });
        }
        let mut best = 0usize;
        let s = self.as_slice();
        for (i, &x) in s.iter().enumerate() {
            if x > s[best] {
                best = i;
            }
        }
        Ok(best)
    }

    /// Per-row argmax of a rank-2 tensor (one prediction per batch row).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices or
    /// [`TensorError::Empty`] when a row is empty.
    pub fn argmax_rows(&self) -> Result<Vec<usize>> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
                op: "argmax_rows",
            });
        }
        let cols = self.shape().dims()[1];
        if cols == 0 {
            return Err(TensorError::Empty { op: "argmax_rows" });
        }
        Ok(self
            .as_slice()
            .chunks(cols)
            .map(crate::vecops::argmax)
            .collect())
    }

    /// Sums each column of a rank-2 tensor, returning a rank-1 tensor.
    ///
    /// Used to reduce per-sample bias gradients across a batch.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn sum_rows(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
                op: "sum_rows",
            });
        }
        let cols = self.shape().dims()[1];
        let mut out = vec![0.0f32; cols];
        for row in self.as_slice().chunks(cols) {
            for (o, x) in out.iter_mut().zip(row) {
                *o += x;
            }
        }
        Ok(Tensor::from(out))
    }

    /// Numerically-stable row-wise softmax of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn softmax_rows(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
                op: "softmax_rows",
            });
        }
        let cols = self.shape().dims()[1];
        let mut out = Vec::with_capacity(self.len());
        for row in self.as_slice().chunks(cols) {
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let exps: Vec<f32> = row.iter().map(|x| (x - m).exp()).collect();
            let z: f32 = exps.iter().sum();
            out.extend(exps.iter().map(|e| e / z));
        }
        Tensor::from_vec(out, self.shape().dims())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_mean_norm() {
        let t = Tensor::from_slice(&[3.0, 4.0]);
        assert_eq!(t.sum(), 7.0);
        assert_eq!(t.mean(), 3.5);
        assert!((t.norm() - 5.0).abs() < 1e-6);
        let empty = Tensor::from_slice(&[]);
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.norm(), 0.0);
    }

    #[test]
    fn max_and_argmax() {
        let t = Tensor::from_slice(&[1.0, 9.0, 3.0, 9.0]);
        assert_eq!(t.max().unwrap(), 9.0);
        assert_eq!(t.argmax().unwrap(), 1); // first occurrence
        assert!(Tensor::from_slice(&[]).max().is_err());
        assert!(Tensor::from_slice(&[]).argmax().is_err());
    }

    #[test]
    fn argmax_rows_per_row() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.5, 0.2], &[2, 2]).unwrap();
        assert_eq!(t.argmax_rows().unwrap(), vec![1, 0]);
        assert!(Tensor::from_slice(&[1.0]).argmax_rows().is_err());
    }

    #[test]
    fn sum_rows_reduces_batch() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        assert_eq!(t.sum_rows().unwrap().as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_stable() {
        let t = Tensor::from_vec(vec![1000.0, 1001.0, -1000.0, -1001.0], &[2, 2]).unwrap();
        let s = t.softmax_rows().unwrap();
        for row in s.as_slice().chunks(2) {
            let total: f32 = row.iter().sum();
            assert!((total - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|x| x.is_finite()));
        }
        // Larger logit gets larger probability.
        assert!(s.as_slice()[1] > s.as_slice()[0]);
        assert!(s.as_slice()[2] > s.as_slice()[3]);
    }
}
