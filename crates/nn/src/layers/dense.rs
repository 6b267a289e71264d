//! Fully-connected (linear) layer.

use crate::{Layer, LayerWorkspace};
use adafl_tensor::{matmul_into_with, matmul_nt_with, matmul_tn_with, xavier_uniform, Tensor};
use rand::Rng;

/// Fully-connected layer computing `y = x·W + b`.
///
/// Weights are stored `[in_features, out_features]` so the forward pass is a
/// single row-major matmul. Gradients accumulate across backward calls until
/// [`Layer::zero_grads`].
///
/// # Examples
///
/// ```
/// use adafl_nn::{layers::Dense, Layer};
/// use adafl_tensor::Tensor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut layer = Dense::new(&mut StdRng::seed_from_u64(0), 3, 2);
/// let x = Tensor::from_vec(vec![1.0, 0.0, -1.0], &[1, 3])?;
/// let y = layer.forward(&x, true);
/// assert_eq!(y.shape().dims(), &[1, 2]);
/// # Ok::<(), adafl_tensor::TensorError>(())
/// ```
#[derive(Debug)]
pub struct Dense {
    in_features: usize,
    out_features: usize,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    /// Input of the last forward; rank 0 (the default) until then.
    cached_input: Tensor,
}

impl Dense {
    /// Creates a dense layer with Xavier-uniform weights and zero bias.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, in_features: usize, out_features: usize) -> Self {
        Dense {
            in_features,
            out_features,
            weight: xavier_uniform(rng, &[in_features, out_features], in_features, out_features),
            bias: Tensor::zeros(&[out_features]),
            grad_weight: Tensor::zeros(&[in_features, out_features]),
            grad_bias: Tensor::zeros(&[out_features]),
            cached_input: Tensor::default(),
        }
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output width.
    pub fn out_features_n(&self) -> usize {
        self.out_features
    }
}

impl Layer for Dense {
    fn forward_into(
        &mut self,
        input: &Tensor,
        out: &mut Tensor,
        _train: bool,
        ws: &mut LayerWorkspace,
    ) {
        assert_eq!(
            input.shape().dims().get(1).copied(),
            Some(self.in_features),
            "dense input width mismatch"
        );
        let batch = input.shape().dims()[0];
        out.resize_reuse(&[batch, self.out_features]);
        out.as_mut_slice().fill(0.0);
        matmul_into_with(
            input.as_slice(),
            self.weight.as_slice(),
            out.as_mut_slice(),
            batch,
            self.in_features,
            self.out_features,
            &mut ws.pack,
        );
        let bias = self.bias.as_slice();
        for row in out.as_mut_slice().chunks_mut(self.out_features) {
            for (v, &b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
        self.cached_input.copy_from(input);
    }

    fn backward_into(
        &mut self,
        grad_out: &Tensor,
        grad_in: Option<&mut Tensor>,
        ws: &mut LayerWorkspace,
    ) {
        let input = &self.cached_input;
        assert_eq!(input.rank(), 2, "backward called before forward");
        let batch = input.shape().dims()[0];
        assert_eq!(grad_out.shape().dims(), [batch, self.out_features]);

        // dW += Xᵀ · dY
        matmul_tn_with(
            input.as_slice(),
            grad_out.as_slice(),
            self.grad_weight.as_mut_slice(),
            batch,
            self.in_features,
            self.out_features,
            &mut ws.pack,
        );
        // db += column sums of dY, accumulated row by row (same summation
        // order as the former sum_rows + axpy, without the temporary).
        let gb = self.grad_bias.as_mut_slice();
        for row in grad_out.as_slice().chunks(self.out_features) {
            for (b, &g) in gb.iter_mut().zip(row) {
                *b += g;
            }
        }

        // dX = dY · Wᵀ
        let Some(grad_in) = grad_in else { return };
        grad_in.resize_reuse(&[batch, self.in_features]);
        grad_in.as_mut_slice().fill(0.0);
        matmul_nt_with(
            grad_out.as_slice(),
            self.weight.as_slice(),
            grad_in.as_mut_slice(),
            batch,
            self.out_features,
            self.in_features,
            &mut ws.pack,
        );
    }

    fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    fn visit_params(&self, f: &mut dyn FnMut(&[f32])) {
        f(self.weight.as_slice());
        f(self.bias.as_slice());
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        f(self.weight.as_mut_slice());
        f(self.bias.as_mut_slice());
    }

    fn visit_grads(&self, f: &mut dyn FnMut(&[f32])) {
        f(self.grad_weight.as_slice());
        f(self.grad_bias.as_slice());
    }

    fn param_block_layouts(&self) -> Vec<crate::BlockLayout> {
        // Output neurons are weight columns; the bias has one scalar per
        // output unit, so both blocks slice on the same unit count.
        vec![
            crate::BlockLayout::Cols {
                rows: self.in_features,
                cols: self.out_features,
            },
            crate::BlockLayout::Rows {
                units: self.out_features,
                row_len: 1,
            },
        ]
    }

    fn zero_grads(&mut self) {
        self.grad_weight.as_mut_slice().fill(0.0);
        self.grad_bias.as_mut_slice().fill(0.0);
    }

    fn name(&self) -> &'static str {
        "dense"
    }

    fn out_features(&self, _in_features: usize) -> usize {
        self.out_features
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer_with_known_weights() -> Dense {
        let mut d = Dense::new(&mut StdRng::seed_from_u64(0), 2, 2);
        d.weight = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        d.bias = Tensor::from_slice(&[0.5, -0.5]);
        d
    }

    #[test]
    fn forward_computes_affine_map() {
        let mut d = layer_with_known_weights();
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        let y = d.forward(&x, true);
        // [1,1]·[[1,2],[3,4]] + [0.5,-0.5] = [4.5, 5.5]
        assert_eq!(y.as_slice(), &[4.5, 5.5]);
    }

    #[test]
    fn backward_shapes_and_bias_grad() {
        let mut d = layer_with_known_weights();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        d.forward(&x, true);
        let dy = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
        let dx = d.backward(&dy);
        assert_eq!(dx.shape().dims(), &[2, 2]);
        // db = column sums of dy = [1, 1]
        let mut grads = Vec::new();
        d.visit_grads(&mut |g| grads.push(g.to_vec()));
        assert_eq!(grads[1], vec![1.0, 1.0]);
        // dW = Xᵀ·dY = [[1,3],[2,4]]·[[1,0],[0,1]] = [[1,3],[2,4]]
        assert_eq!(grads[0], vec![1.0, 3.0, 2.0, 4.0]);
        // dX = dY·Wᵀ; row0 = [1,0]·Wᵀ = first row of Wᵀ→ [1,2]? Wᵀ=[[1,3],[2,4]], dY row0=[1,0] → [1,3]
        assert_eq!(dx.as_slice()[..2], [1.0, 3.0]);
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut d = layer_with_known_weights();
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        let dy = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        d.forward(&x, true);
        d.backward(&dy);
        d.forward(&x, true);
        d.backward(&dy);
        let mut bias_grad = Vec::new();
        d.visit_grads(&mut |g| bias_grad.push(g.to_vec()));
        assert_eq!(bias_grad[1], vec![2.0, 2.0]);
        d.zero_grads();
        let mut zeroed = Vec::new();
        d.visit_grads(&mut |g| zeroed.push(g.to_vec()));
        assert!(zeroed[1].iter().all(|&g| g == 0.0));
    }

    #[test]
    fn param_count_matches_visit() {
        let d = Dense::new(&mut StdRng::seed_from_u64(1), 5, 3);
        let mut seen = 0usize;
        d.visit_params(&mut |p| seen += p.len());
        assert_eq!(seen, d.param_count());
        assert_eq!(d.param_count(), 5 * 3 + 3);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn forward_rejects_wrong_width() {
        let mut d = Dense::new(&mut StdRng::seed_from_u64(1), 5, 3);
        d.forward(&Tensor::zeros(&[1, 4]), true);
    }
}
