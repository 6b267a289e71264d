//! 2-D convolution via `im2col`.

use crate::{Layer, LayerWorkspace};
use adafl_tensor::{
    col2im_into, he_normal, im2col_into, matmul_into_with, matmul_nt_with, matmul_tn_with,
    Conv2dGeometry, Tensor,
};
use rand::Rng;

/// 2-D convolution layer.
///
/// Interprets each input row as a flattened `[in_channels, height, width]`
/// image (geometry fixed at construction) and produces rows of
/// `[out_channels, out_h, out_w]`. Implemented as `im2col` + matmul, with
/// `col2im` scattering gradients back in the backward pass.
///
/// The paper's MNIST CNN uses two of these: 5×5/20-channel and
/// 5×5/50-channel (see [`crate::models::mnist_cnn`]).
#[derive(Debug)]
pub struct Conv2d {
    geom: Conv2dGeometry,
    out_channels: usize,
    /// `[out_channels, patch_len]`
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    /// Cached patch matrices from the last forward, flat: one
    /// `[patch_len, n_patches]` block per sample. Reused across steps so the
    /// allocation is made once.
    cached_cols: Vec<f32>,
    /// Batch size of the last forward (`cached_cols` holds this many blocks).
    cached_batch: usize,
}

impl Conv2d {
    /// Creates a convolution with He-normal weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics when the geometry is degenerate (see
    /// [`Conv2dGeometry::new`]).
    pub fn new<R: Rng + ?Sized>(rng: &mut R, geom: Conv2dGeometry, out_channels: usize) -> Self {
        let patch_len = geom.patch_len();
        Conv2d {
            geom,
            out_channels,
            weight: he_normal(rng, &[out_channels, patch_len], patch_len),
            bias: Tensor::zeros(&[out_channels]),
            grad_weight: Tensor::zeros(&[out_channels, patch_len]),
            grad_bias: Tensor::zeros(&[out_channels]),
            cached_cols: Vec::new(),
            cached_batch: 0,
        }
    }

    /// The convolution geometry.
    pub fn geometry(&self) -> &Conv2dGeometry {
        &self.geom
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Output row width: `out_channels · out_h · out_w`.
    pub fn output_volume(&self) -> usize {
        self.out_channels * self.geom.n_patches()
    }
}

impl Layer for Conv2d {
    fn forward_into(
        &mut self,
        input: &Tensor,
        out: &mut Tensor,
        _train: bool,
        ws: &mut LayerWorkspace,
    ) {
        assert_eq!(input.rank(), 2, "conv input must be [batch, c*h*w]");
        let batch = input.shape().dims()[0];
        let in_volume = self.geom.input_volume();
        assert_eq!(
            input.shape().dims()[1],
            in_volume,
            "conv input volume mismatch"
        );
        let n_patches = self.geom.n_patches();
        let patch_len = self.geom.patch_len();
        let out_width = self.out_channels * n_patches;
        let cols_len = patch_len * n_patches;
        out.resize_reuse(&[batch, out_width]);
        out.as_mut_slice().fill(0.0);
        self.cached_cols.resize(batch * cols_len, 0.0);
        self.cached_batch = batch;
        for i in 0..batch {
            let row = &input.as_slice()[i * in_volume..(i + 1) * in_volume];
            let cols = &mut self.cached_cols[i * cols_len..(i + 1) * cols_len];
            im2col_into(row, &self.geom, cols);
            let sample_out = &mut out.as_mut_slice()[i * out_width..(i + 1) * out_width];
            matmul_into_with(
                self.weight.as_slice(),
                cols,
                sample_out,
                self.out_channels,
                patch_len,
                n_patches,
                &mut ws.pack,
            );
            for (ch, chunk) in sample_out.chunks_mut(n_patches).enumerate() {
                let b = self.bias.as_slice()[ch];
                for v in chunk {
                    *v += b;
                }
            }
        }
    }

    fn backward_into(&mut self, grad_out: &Tensor, grad_in: &mut Tensor, ws: &mut LayerWorkspace) {
        let batch = self.cached_batch;
        assert!(batch > 0, "backward called before forward");
        let n_patches = self.geom.n_patches();
        let patch_len = self.geom.patch_len();
        let out_width = self.out_channels * n_patches;
        let cols_len = patch_len * n_patches;
        assert_eq!(grad_out.shape().dims(), [batch, out_width]);

        let in_volume = self.geom.input_volume();
        grad_in.resize_reuse(&[batch, in_volume]);
        ws.scratch.resize(cols_len, 0.0);
        for (i, dy) in grad_out.as_slice().chunks(out_width).enumerate() {
            let cols = &self.cached_cols[i * cols_len..(i + 1) * cols_len];
            // dW += dY · colsᵀ  (dY: [out_ch, n_patches], cols: [patch_len, n_patches])
            matmul_nt_with(
                dy,
                cols,
                self.grad_weight.as_mut_slice(),
                self.out_channels,
                n_patches,
                patch_len,
                &mut ws.pack,
            );
            // db += per-channel sums of dY.
            for (ch, chunk) in dy.chunks(n_patches).enumerate() {
                self.grad_bias.as_mut_slice()[ch] += chunk.iter().sum::<f32>();
            }
            // dCols = Wᵀ · dY  (W: [out_ch, patch_len])
            ws.scratch.fill(0.0);
            matmul_tn_with(
                self.weight.as_slice(),
                dy,
                &mut ws.scratch,
                self.out_channels,
                patch_len,
                n_patches,
                &mut ws.pack,
            );
            let dimg = &mut grad_in.as_mut_slice()[i * in_volume..(i + 1) * in_volume];
            col2im_into(&ws.scratch, &self.geom, dimg);
        }
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
        // Output channels are contiguous weight rows; the bias has one
        // scalar per channel.
        vec![
            crate::BlockLayout::Rows {
                units: self.out_channels,
                row_len: self.geom.patch_len(),
            },
            crate::BlockLayout::Rows {
                units: self.out_channels,
                row_len: 1,
            },
        ]
    }

    fn zero_grads(&mut self) {
        self.grad_weight.as_mut_slice().fill(0.0);
        self.grad_bias.as_mut_slice().fill(0.0);
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn out_features(&self, _in_features: usize) -> usize {
        self.output_volume()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_output_shape() {
        let geom = Conv2dGeometry::new(1, 8, 8, 3, 1, 0);
        let mut conv = Conv2d::new(&mut StdRng::seed_from_u64(0), geom, 4);
        let x = Tensor::zeros(&[2, 64]);
        let y = conv.forward(&x, true);
        assert_eq!(y.shape().dims(), &[2, 4 * 6 * 6]);
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // 1x1 kernel with weight 1 and zero bias is the identity map.
        let geom = Conv2dGeometry::new(1, 4, 4, 1, 1, 0);
        let mut conv = Conv2d::new(&mut StdRng::seed_from_u64(0), geom, 1);
        conv.weight = Tensor::ones(&[1, 1]);
        conv.bias = Tensor::zeros(&[1]);
        let x = Tensor::from_vec((0..16).map(|i| i as f32).collect::<Vec<_>>(), &[1, 16]).unwrap();
        let y = conv.forward(&x, true);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn bias_added_per_channel() {
        let geom = Conv2dGeometry::new(1, 2, 2, 1, 1, 0);
        let mut conv = Conv2d::new(&mut StdRng::seed_from_u64(0), geom, 2);
        conv.weight = Tensor::zeros(&[2, 1]);
        conv.bias = Tensor::from_slice(&[1.0, -2.0]);
        let y = conv.forward(&Tensor::zeros(&[1, 4]), true);
        assert_eq!(&y.as_slice()[..4], &[1.0; 4]);
        assert_eq!(&y.as_slice()[4..], &[-2.0; 4]);
    }

    #[test]
    fn backward_returns_input_shaped_grad() {
        let geom = Conv2dGeometry::new(2, 5, 5, 3, 1, 1);
        let mut conv = Conv2d::new(&mut StdRng::seed_from_u64(1), geom, 3);
        let x = Tensor::ones(&[2, 50]);
        let y = conv.forward(&x, true);
        let dy = Tensor::ones(&[2, y.shape().dims()[1]]);
        let dx = conv.backward(&dy);
        assert_eq!(dx.shape().dims(), &[2, 50]);
    }

    #[test]
    fn grad_bias_sums_output_grad_per_channel() {
        let geom = Conv2dGeometry::new(1, 3, 3, 3, 1, 0);
        let mut conv = Conv2d::new(&mut StdRng::seed_from_u64(2), geom, 2);
        conv.forward(&Tensor::ones(&[1, 9]), true);
        let dy = Tensor::from_vec(vec![2.0, 3.0], &[1, 2]).unwrap();
        conv.backward(&dy);
        let mut grads = Vec::new();
        conv.visit_grads(&mut |g| grads.push(g.to_vec()));
        assert_eq!(grads[1], vec![2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "volume mismatch")]
    fn forward_rejects_wrong_volume() {
        let geom = Conv2dGeometry::new(1, 4, 4, 3, 1, 0);
        let mut conv = Conv2d::new(&mut StdRng::seed_from_u64(0), geom, 1);
        conv.forward(&Tensor::zeros(&[1, 15]), true);
    }
}
