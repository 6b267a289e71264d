//! 2-D max pooling.

use crate::{Layer, LayerWorkspace};
use adafl_tensor::Tensor;

/// Non-overlapping 2-D max pooling.
///
/// Interprets each input row as a flattened `[channels, height, width]`
/// image and pools each channel with a `window × window` kernel at stride
/// `window`, matching the paper's 2×2 max pooling after each convolution.
/// Input spatial dims must be divisible by the window.
#[derive(Debug)]
pub struct MaxPool2d {
    channels: usize,
    height: usize,
    width: usize,
    window: usize,
    /// Flat source index of each pooled maximum, `batch · output_volume`
    /// entries in batch-row order. Reused across steps.
    cached_argmax: Vec<usize>,
    batch: usize,
}

impl MaxPool2d {
    /// Creates a pooling layer for `[channels, height, width]` inputs.
    ///
    /// # Panics
    ///
    /// Panics when `window` is zero or does not divide both spatial dims.
    pub fn new(channels: usize, height: usize, width: usize, window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(
            height.is_multiple_of(window) && width.is_multiple_of(window),
            "window {window} must divide input {height}x{width}"
        );
        MaxPool2d {
            channels,
            height,
            width,
            window,
            cached_argmax: Vec::new(),
            batch: 0,
        }
    }

    /// Pooled height.
    pub fn out_h(&self) -> usize {
        self.height / self.window
    }

    /// Pooled width.
    pub fn out_w(&self) -> usize {
        self.width / self.window
    }

    /// Output row width: `channels · out_h · out_w`.
    pub fn output_volume(&self) -> usize {
        self.channels * self.out_h() * self.out_w()
    }

    fn input_volume(&self) -> usize {
        self.channels * self.height * self.width
    }
}

impl Layer for MaxPool2d {
    fn forward_into(
        &mut self,
        input: &Tensor,
        out: &mut Tensor,
        _train: bool,
        _ws: &mut LayerWorkspace,
    ) {
        assert_eq!(input.rank(), 2, "pool input must be [batch, c*h*w]");
        let in_vol = self.input_volume();
        assert_eq!(
            input.shape().dims()[1],
            in_vol,
            "pool input volume mismatch"
        );
        let batch = input.shape().dims()[0];
        let (oh, ow, win) = (self.out_h(), self.out_w(), self.window);
        let out_vol = self.output_volume();
        out.resize_reuse(&[batch, out_vol]);
        self.cached_argmax.clear();
        self.batch = batch;
        for (bi, row) in input.as_slice().chunks(in_vol).enumerate() {
            let out_row = &mut out.as_mut_slice()[bi * out_vol..(bi + 1) * out_vol];
            let mut o = 0usize;
            for c in 0..self.channels {
                let base = c * self.height * self.width;
                for py in 0..oh {
                    for px in 0..ow {
                        let mut best_idx = base + (py * win) * self.width + px * win;
                        let mut best = row[best_idx];
                        for wy in 0..win {
                            for wx in 0..win {
                                let idx = base + (py * win + wy) * self.width + (px * win + wx);
                                if row[idx] > best {
                                    best = row[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        out_row[o] = best;
                        self.cached_argmax.push(best_idx);
                        o += 1;
                    }
                }
            }
        }
    }

    fn backward_into(
        &mut self,
        grad_out: &Tensor,
        grad_in: Option<&mut Tensor>,
        _ws: &mut LayerWorkspace,
    ) {
        let Some(grad_in) = grad_in else { return };
        assert!(self.batch > 0, "backward called before forward");
        let out_vol = self.output_volume();
        assert_eq!(grad_out.shape().dims(), [self.batch, out_vol]);
        let in_vol = self.input_volume();
        grad_in.resize_reuse(&[self.batch, in_vol]);
        grad_in.as_mut_slice().fill(0.0);
        for (bi, dy) in grad_out.as_slice().chunks(out_vol).enumerate() {
            let argmax = &self.cached_argmax[bi * out_vol..(bi + 1) * out_vol];
            let gi = &mut grad_in.as_mut_slice()[bi * in_vol..(bi + 1) * in_vol];
            for (&src, &g) in argmax.iter().zip(dy) {
                gi[src] += g;
            }
        }
    }

    fn name(&self) -> &'static str {
        "maxpool2d"
    }

    fn out_features(&self, _in_features: usize) -> usize {
        self.output_volume()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_maximum_per_window() {
        let mut pool = MaxPool2d::new(1, 4, 4, 2);
        #[rustfmt::skip]
        let x = Tensor::from_vec(vec![
            1.0, 2.0,   5.0, 6.0,
            3.0, 4.0,   7.0, 8.0,
            9.0, 10.0,  13.0, 14.0,
            11.0, 12.0, 15.0, 16.0,
        ], &[1, 16]).unwrap();
        let y = pool.forward(&x, true);
        assert_eq!(y.as_slice(), &[4.0, 8.0, 12.0, 16.0]);
    }

    #[test]
    fn backward_routes_gradient_to_argmax() {
        let mut pool = MaxPool2d::new(1, 2, 2, 2);
        let x = Tensor::from_vec(vec![1.0, 9.0, 3.0, 4.0], &[1, 4]).unwrap();
        pool.forward(&x, true);
        let dx = pool.backward(&Tensor::from_vec(vec![5.0], &[1, 1]).unwrap());
        assert_eq!(dx.as_slice(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn multi_channel_pools_independently() {
        let mut pool = MaxPool2d::new(2, 2, 2, 2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 8.0, 7.0, 6.0, 5.0], &[1, 8]).unwrap();
        let y = pool.forward(&x, true);
        assert_eq!(y.as_slice(), &[4.0, 8.0]);
    }

    #[test]
    fn batched_pooling_is_independent_per_row() {
        let mut pool = MaxPool2d::new(1, 2, 2, 2);
        let x =
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 40.0, 30.0, 20.0, 10.0], &[2, 4]).unwrap();
        let y = pool.forward(&x, true);
        assert_eq!(y.as_slice(), &[4.0, 40.0]);
        let dx = pool.backward(&Tensor::from_vec(vec![1.0, 2.0], &[2, 1]).unwrap());
        assert_eq!(dx.as_slice(), &[0.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn window_must_divide_input() {
        MaxPool2d::new(1, 5, 4, 2);
    }

    #[test]
    fn has_no_params() {
        let pool = MaxPool2d::new(1, 2, 2, 2);
        assert_eq!(pool.param_count(), 0);
        assert_eq!(pool.out_features(4), 1);
    }
}
