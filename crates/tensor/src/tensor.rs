use crate::{Result, Shape, TensorError};
use std::fmt;

/// Contiguous row-major n-dimensional array of `f32`.
///
/// `Tensor` is the workhorse value type of the workspace: model activations,
/// weights, gradients and dataset batches are all `Tensor`s. Data is always
/// contiguous, so flattening (needed at the federated-learning boundary,
/// where updates travel as plain vectors) is free.
///
/// # Examples
///
/// ```
/// use adafl_tensor::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape().dims(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, PartialEq, Default)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![0.0; shape.volume()],
            shape,
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![1.0; shape.volume()],
            shape,
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![value; shape.volume()],
            shape,
        }
    }

    /// Creates a square identity matrix of side `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor from a data vector and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `data.len()` differs from
    /// the shape's volume.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Tensor { data, shape })
    }

    /// [`Tensor::from_vec`] for data the caller built to the shape's volume
    /// by construction; debug builds check the length.
    pub(crate) fn from_vec_exact(data: Vec<f32>, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        debug_assert_eq!(data.len(), shape.volume(), "data length");
        Tensor { data, shape }
    }

    /// Creates a rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor {
            data: data.to_vec(),
            shape: Shape::new(&[data.len()]),
        }
    }

    /// Creates a scalar (rank-0) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            data: vec![value],
            shape: Shape::new(&[]),
        }
    }

    /// Returns the shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Returns the rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Returns the total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the flat data slice (row-major).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Returns the flat data slice mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reshapes in place to `dims`, reusing the existing allocation.
    ///
    /// Elements added when the volume grows are zero; existing elements are
    /// kept (callers that need a clean buffer overwrite it anyway). When the
    /// dims already match, this is a no-op — in particular no `Shape` is
    /// rebuilt, so steady-state reuse of a scratch tensor never allocates.
    pub fn resize_reuse(&mut self, dims: &[usize]) {
        if self.shape.dims() != dims {
            self.shape.set_dims(dims);
        }
        let volume = self.shape.volume();
        if self.data.len() != volume {
            self.data.resize(volume, 0.0);
        }
    }

    /// Copies `src`'s shape and contents into `self`, reusing the allocation.
    pub fn copy_from(&mut self, src: &Tensor) {
        self.resize_reuse(src.shape.dims());
        self.data.copy_from_slice(&src.data);
    }

    /// Consumes the tensor, returning its backing vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns the element at a multi-dimensional index.
    ///
    /// Returns `None` when the index rank or any coordinate is out of bounds.
    pub fn get(&self, index: &[usize]) -> Option<f32> {
        if index.len() != self.shape.rank() {
            return None;
        }
        let mut flat = 0usize;
        let strides = self.shape.strides();
        for (i, (&ix, &dim)) in index.iter().zip(self.shape.dims()).enumerate() {
            if ix >= dim {
                return None;
            }
            flat += ix * strides[i];
        }
        self.data.get(flat).copied()
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics when the index is out of bounds; use [`Tensor::get`] to probe
    /// bounds safely.
    pub fn set(&mut self, index: &[usize], value: f32) {
        assert_eq!(index.len(), self.shape.rank(), "index rank mismatch");
        let strides = self.shape.strides();
        let mut flat = 0usize;
        for (i, (&ix, &dim)) in index.iter().zip(self.shape.dims()).enumerate() {
            assert!(
                ix < dim,
                "index {ix} out of bounds for dim {i} (extent {dim})"
            );
            flat += ix * strides[i];
        }
        self.data[flat] = value;
    }

    /// Reinterprets the tensor with a new shape of equal volume.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when the volumes differ.
    pub fn reshape(mut self, dims: &[usize]) -> Result<Self> {
        let new_shape = Shape::new(dims);
        if new_shape.volume() != self.data.len() {
            return Err(TensorError::LengthMismatch {
                expected: new_shape.volume(),
                actual: self.data.len(),
            });
        }
        self.shape = new_shape;
        Ok(self)
    }

    /// Returns a flattened rank-1 copy of the tensor's view (free: moves data).
    pub fn into_flat(self) -> Tensor {
        let len = self.data.len();
        Tensor {
            data: self.data,
            shape: Shape::new(&[len]),
        }
    }

    /// Transposes a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn transpose(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
                op: "transpose",
            });
        }
        let (r, c) = (self.shape.dims()[0], self.shape.dims()[1]);
        let mut out = Tensor::zeros(&[c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        Ok(out)
    }

    /// Returns row `i` of a rank-2 tensor as a slice.
    ///
    /// # Panics
    ///
    /// Panics when the tensor is not rank-2 or `i` is out of bounds.
    pub fn row(&self, i: usize) -> &[f32] {
        assert_eq!(self.rank(), 2, "row() requires a matrix");
        let cols = self.shape.dims()[1];
        &self.data[i * cols..(i + 1) * cols]
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tensor{} {:?}",
            self.shape,
            &self.data[..self.data.len().min(8)]
        )?;
        if self.data.len() > 8 {
            write!(f, "…")?;
        }
        Ok(())
    }
}

impl From<Vec<f32>> for Tensor {
    fn from(data: Vec<f32>) -> Self {
        let len = data.len();
        Tensor {
            data,
            shape: Shape::new(&[len]),
        }
    }
}

impl FromIterator<f32> for Tensor {
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> Self {
        Tensor::from(iter.into_iter().collect::<Vec<f32>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones_have_right_volume() {
        assert_eq!(Tensor::zeros(&[3, 4]).len(), 12);
        assert!(Tensor::ones(&[2, 2]).as_slice().iter().all(|&x| x == 1.0));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
        let err = Tensor::from_vec(vec![1.0; 5], &[2, 3]).unwrap_err();
        assert_eq!(
            err,
            TensorError::LengthMismatch {
                expected: 6,
                actual: 5
            }
        );
    }

    #[test]
    fn eye_has_unit_diagonal() {
        let t = Tensor::eye(3);
        for i in 0..3 {
            for j in 0..3 {
                let expected = if i == j { 1.0 } else { 0.0 };
                assert_eq!(t.get(&[i, j]), Some(expected));
            }
        }
    }

    #[test]
    fn get_set_round_trip() {
        let mut t = Tensor::zeros(&[2, 3, 4]);
        t.set(&[1, 2, 3], 7.5);
        assert_eq!(t.get(&[1, 2, 3]), Some(7.5));
        assert_eq!(t.get(&[0, 0, 0]), Some(0.0));
        assert_eq!(t.get(&[2, 0, 0]), None);
        assert_eq!(t.get(&[0, 0]), None);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]).unwrap();
        let r = t.clone().reshape(&[3, 2]).unwrap();
        assert_eq!(r.as_slice(), t.as_slice());
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn transpose_matrix() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let tt = t.transpose().unwrap();
        assert_eq!(tt.shape().dims(), &[3, 2]);
        assert_eq!(tt.as_slice(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert!(Tensor::zeros(&[2]).transpose().is_err());
    }

    #[test]
    fn row_slices_matrix() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        assert_eq!(t.row(0), &[1.0, 2.0]);
        assert_eq!(t.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn scalar_is_rank_zero() {
        let s = Tensor::scalar(3.0);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(&[]), Some(3.0));
    }

    #[test]
    fn from_iterator_collects() {
        let t: Tensor = (0..4).map(|i| i as f32).collect();
        assert_eq!(t.shape().dims(), &[4]);
    }

    #[test]
    fn display_truncates_long_tensors() {
        let t = Tensor::zeros(&[100]);
        assert!(t.to_string().contains('…'));
    }

    #[test]
    fn tensor_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tensor>();
    }
}
