//! 2-D convolution via `im2col`.

use crate::{Layer, LayerWorkspace};
use adafl_tensor::{
    col2im_grouped_into, he_normal, im2col_grouped_into, matmul_into_with, matmul_nt_samples_with,
    matmul_tn_with, Conv2dGeometry, Tensor, NR,
};
use rand::Rng;

/// 2-D convolution layer.
///
/// Interprets each input row as a flattened `[in_channels, height, width]`
/// image (geometry fixed at construction) and produces rows of
/// `[out_channels, out_h, out_w]`. Implemented as `im2col` + matmul, with
/// `col2im` scattering gradients back in the backward pass.
///
/// The output and input-gradient products run over groups of
/// `⌈NR / n_patches⌉` samples whose patches sit side by side, so each
/// product fills at least one register tile (`NR` columns) even when a
/// sample has only a few output positions. Patches are gathered once,
/// straight into that grouped operand, and kept there for the backward
/// pass. Grouping changes no bits: every output element keeps its
/// ascending-k reduction whichever group or column it lands in, and the
/// weight and bias gradients stay per sample, in sample order — the weight
/// gradient as one pass over the batch that holds each tile of
/// `grad_weight` in registers (`matmul_nt_samples_with`).
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
    /// Cached patch matrices from the last forward, flat, in the grouped
    /// layout: one `[patch_len, g·n_patches]` matrix per group of `g`
    /// samples (see [`Conv2d::group_size`]), the operand of the forward
    /// product and of the per-sample weight gradient. Reused across steps
    /// so the allocation is made once.
    cached_cols: Vec<f32>,
    /// Batch size of the last forward (`cached_cols` holds its patches).
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

    /// Samples per product: the fewest whose patches fill one register
    /// tile, `⌈NR / n_patches⌉` — one whenever a sample alone has `NR`
    /// patches.
    fn group_size(&self) -> usize {
        NR.div_ceil(self.geom.n_patches())
    }
}

/// Lays `g` consecutive sample-major `[rows, n_patches]` output-gradient
/// blocks side by side as one `[rows, g·n_patches]` matrix — sample `s` in
/// columns `s·n_patches..` — the operand of one grouped input-gradient
/// product. A group of one already has that layout and is borrowed as is.
fn side_by_side<'a>(
    blocks: &'a [f32],
    g: usize,
    n_patches: usize,
    buf: &'a mut [f32],
) -> &'a [f32] {
    if g == 1 {
        return blocks;
    }
    let width = g * n_patches;
    for (s, block) in blocks.chunks_exact(blocks.len() / g).enumerate() {
        for (r, src) in block.chunks_exact(n_patches).enumerate() {
            buf[r * width + s * n_patches..][..n_patches].copy_from_slice(src);
        }
    }
    &buf[..blocks.len()]
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
        self.cached_cols.resize(batch * cols_len, 0.0);
        self.cached_batch = batch;

        let group = self.group_size();
        ws.scratch
            .resize(self.out_channels * group * n_patches, 0.0);
        for i0 in (0..batch).step_by(group) {
            let g = group.min(batch - i0);
            let width = g * n_patches;
            let rows = &input.as_slice()[i0 * in_volume..(i0 + g) * in_volume];
            let cols = &mut self.cached_cols[i0 * cols_len..(i0 + g) * cols_len];
            im2col_grouped_into(rows, &self.geom, g, cols);
            // Y = W · [patch_len, g·n_patches]: every element is the same
            // ascending-k sum whichever group or column it lands in.
            let group_out = &mut ws.scratch[..self.out_channels * width];
            group_out.fill(0.0);
            matmul_into_with(
                self.weight.as_slice(),
                cols,
                group_out,
                self.out_channels,
                patch_len,
                width,
                &mut ws.pack,
            );
            let outs = &mut out.as_mut_slice()[i0 * out_width..(i0 + g) * out_width];
            for (s, sample_out) in outs.chunks_exact_mut(out_width).enumerate() {
                for ((dst, src), &b) in sample_out
                    .chunks_exact_mut(n_patches)
                    .zip(group_out.chunks_exact(width))
                    .zip(self.bias.as_slice())
                {
                    for (v, &y) in dst.iter_mut().zip(&src[s * n_patches..][..n_patches]) {
                        *v = y + b;
                    }
                }
            }
        }
    }

    fn backward_into(
        &mut self,
        grad_out: &Tensor,
        grad_in: Option<&mut Tensor>,
        ws: &mut LayerWorkspace,
    ) {
        let batch = self.cached_batch;
        assert!(batch > 0, "backward called before forward");
        let n_patches = self.geom.n_patches();
        let patch_len = self.geom.patch_len();
        let out_width = self.out_channels * n_patches;
        let cols_len = patch_len * n_patches;
        assert_eq!(grad_out.shape().dims(), [batch, out_width]);

        let group = self.group_size();
        // Parameter gradients stay per sample: each sample's partial sum is
        // added into `grad_weight` in sample order, and that order pins its
        // bits. dW += Σ_s dY_s · cols_sᵀ  (dY_s: [out_ch, n_patches],
        // cols_s: [patch_len, n_patches], read out of the grouped patches).
        matmul_nt_samples_with(
            grad_out.as_slice(),
            &self.cached_cols[..batch * cols_len],
            self.grad_weight.as_mut_slice(),
            batch,
            group,
            self.out_channels,
            n_patches,
            patch_len,
            &mut ws.pack,
        );
        for dy in grad_out.as_slice().chunks(out_width) {
            // db += per-channel sums of dY.
            for (ch, chunk) in dy.chunks(n_patches).enumerate() {
                self.grad_bias.as_mut_slice()[ch] += chunk.iter().sum::<f32>();
            }
        }

        let Some(grad_in) = grad_in else { return };
        let in_volume = self.geom.input_volume();
        grad_in.resize_reuse(&[batch, in_volume]);
        // Groups of one regroup nothing, so they stage no `dY` copy.
        let dy_cap = if group > 1 {
            self.out_channels * group * n_patches
        } else {
            0
        };
        ws.scratch
            .resize(dy_cap + patch_len * group * n_patches, 0.0);
        let (dy_buf, dcols_buf) = ws.scratch.split_at_mut(dy_cap);
        for i0 in (0..batch).step_by(group) {
            let g = group.min(batch - i0);
            let width = g * n_patches;
            // dCols = Wᵀ · dY  (W: [out_ch, patch_len], dY: [out_ch, g·n_patches])
            let dys = &grad_out.as_slice()[i0 * out_width..(i0 + g) * out_width];
            let dcols = &mut dcols_buf[..patch_len * width];
            dcols.fill(0.0);
            matmul_tn_with(
                self.weight.as_slice(),
                side_by_side(dys, g, n_patches, dy_buf),
                dcols,
                self.out_channels,
                patch_len,
                width,
                &mut ws.pack,
            );
            let dimgs = &mut grad_in.as_mut_slice()[i0 * in_volume..(i0 + g) * in_volume];
            col2im_grouped_into(dcols, &self.geom, g, dimgs);
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
    use adafl_tensor::{col2im_into, im2col_into, matmul_nt_with, PackBuf};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The per-sample loop convolution ran before grouping — one product
    /// per sample for the output and for the input gradient — kept as the
    /// oracle grouping must match bit for bit. Returns the output,
    /// `grad_weight`, `grad_bias` and `grad_in` of one forward/backward.
    fn per_sample_oracle(conv: &Conv2d, x: &Tensor, dy: &Tensor) -> [Vec<f32>; 4] {
        let (geom, oc) = (conv.geom, conv.out_channels);
        let (np, pl, iv) = (geom.n_patches(), geom.patch_len(), geom.input_volume());
        let batch = x.shape().dims()[0];
        let mut pack = PackBuf::new();
        let mut out = vec![0.0; batch * oc * np];
        let (mut gw, mut gb) = (vec![0.0; oc * pl], vec![0.0; oc]);
        let mut gx = vec![0.0; batch * iv];
        let (mut cols, mut dcols) = (vec![0.0; pl * np], vec![0.0; pl * np]);
        for i in 0..batch {
            im2col_into(&x.as_slice()[i * iv..][..iv], &geom, &mut cols);
            let y = &mut out[i * oc * np..][..oc * np];
            matmul_into_with(conv.weight.as_slice(), &cols, y, oc, pl, np, &mut pack);
            for (chunk, &b) in y.chunks_mut(np).zip(conv.bias.as_slice()) {
                for v in chunk {
                    *v += b;
                }
            }
            let d = &dy.as_slice()[i * oc * np..][..oc * np];
            matmul_nt_with(d, &cols, &mut gw, oc, np, pl, &mut pack);
            for (g, chunk) in gb.iter_mut().zip(d.chunks(np)) {
                *g += chunk.iter().sum::<f32>();
            }
            dcols.fill(0.0);
            matmul_tn_with(conv.weight.as_slice(), d, &mut dcols, oc, pl, np, &mut pack);
            col2im_into(&dcols, &geom, &mut gx[i * iv..][..iv]);
        }
        [out, gw, gb, gx]
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn grouped_samples_match_the_per_sample_loop_bit_for_bit() {
        // (channels, height, width, kernel, out_channels) → n_patches: the
        // cases straddle the 16-lane tile (groups of 16, 4, 2 and 1
        // samples), and the 4-patch one is the paper CNN's conv2, whose
        // 500-long patches also cross the kernel's k-block.
        let cases = [
            ((2, 3, 3, 3, 5), 1),
            ((20, 6, 6, 5, 50), 4),
            ((2, 5, 7, 3, 5), 15),
            ((2, 6, 6, 3, 5), 16),
            ((3, 3, 19, 3, 5), 17),
            ((1, 16, 16, 5, 20), 144),
        ];
        let mut rng = StdRng::seed_from_u64(26);
        for ((c, h, w, k, oc), n_patches) in cases {
            let geom = Conv2dGeometry::new(c, h, w, k, 1, 0);
            assert_eq!(geom.n_patches(), n_patches);
            let mut conv = Conv2d::new(&mut rng, geom, oc);
            conv.bias =
                Tensor::from_vec((0..oc).map(|_| rng.gen_range(-1.0..1.0)).collect(), &[oc])
                    .unwrap();
            // Ragged last groups included: 3, 5 and 33 samples fill no
            // whole number of 4-sample groups.
            for batch in [1, 3, 4, 5, 16, 33] {
                let mut noise = |len: usize| {
                    let v = (0..batch * len).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    Tensor::from_vec(v, &[batch, len]).unwrap()
                };
                let x = noise(geom.input_volume());
                let dy = noise(conv.output_volume());
                let [out, gw, gb, gx] = per_sample_oracle(&conv, &x, &dy);
                conv.zero_grads();
                let y = conv.forward(&x, true);
                let dx = conv.backward(&dy);
                let mut grads = Vec::new();
                conv.visit_grads(&mut |g| grads.push(bits(g)));
                let at = format!("{n_patches} patches, batch {batch}");
                assert_eq!(bits(y.as_slice()), bits(&out), "output, {at}");
                assert_eq!(grads[0], bits(&gw), "grad_weight, {at}");
                assert_eq!(grads[1], bits(&gb), "grad_bias, {at}");
                assert_eq!(bits(dx.as_slice()), bits(&gx), "grad_in, {at}");
            }
        }
    }

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
