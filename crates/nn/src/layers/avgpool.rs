//! 2-D average pooling.

use crate::{Layer, LayerWorkspace};
use adafl_tensor::Tensor;

/// Non-overlapping 2-D average pooling.
///
/// Same layout conventions as [`MaxPool2d`](crate::layers::MaxPool2d):
/// rows are flattened `[channels, height, width]` images, pooled with a
/// `window × window` kernel at stride `window`.
#[derive(Debug)]
pub struct AvgPool2d {
    channels: usize,
    height: usize,
    width: usize,
    window: usize,
    batch: usize,
}

impl AvgPool2d {
    /// Creates an average-pooling layer for `[channels, height, width]`
    /// inputs.
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
        AvgPool2d {
            channels,
            height,
            width,
            window,
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

    /// Output row width.
    pub fn output_volume(&self) -> usize {
        self.channels * self.out_h() * self.out_w()
    }

    fn input_volume(&self) -> usize {
        self.channels * self.height * self.width
    }
}

impl Layer for AvgPool2d {
    fn forward_into(
        &mut self,
        input: &Tensor,
        out: &mut Tensor,
        _train: bool,
        _ws: &mut LayerWorkspace,
    ) {
        let in_vol = self.input_volume();
        assert_eq!(
            input.shape().dims().get(1).copied(),
            Some(in_vol),
            "avgpool input volume"
        );
        let batch = input.shape().dims()[0];
        self.batch = batch;
        let (oh, ow, win) = (self.out_h(), self.out_w(), self.window);
        let norm = 1.0 / (win * win) as f32;
        let out_vol = self.output_volume();
        out.resize_reuse(&[batch, out_vol]);
        for (bi, row) in input.as_slice().chunks(in_vol).enumerate() {
            let out_row = &mut out.as_mut_slice()[bi * out_vol..(bi + 1) * out_vol];
            let mut o = 0usize;
            for c in 0..self.channels {
                let base = c * self.height * self.width;
                for py in 0..oh {
                    for px in 0..ow {
                        let mut acc = 0.0f32;
                        for wy in 0..win {
                            for wx in 0..win {
                                acc += row[base + (py * win + wy) * self.width + px * win + wx];
                            }
                        }
                        out_row[o] = acc * norm;
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
        let (oh, ow, win) = (self.out_h(), self.out_w(), self.window);
        let norm = 1.0 / (win * win) as f32;
        grad_in.resize_reuse(&[self.batch, in_vol]);
        grad_in.as_mut_slice().fill(0.0);
        for (bi, dy) in grad_out.as_slice().chunks(out_vol).enumerate() {
            let gi = &mut grad_in.as_mut_slice()[bi * in_vol..(bi + 1) * in_vol];
            let mut o = 0usize;
            for c in 0..self.channels {
                let base = c * self.height * self.width;
                for py in 0..oh {
                    for px in 0..ow {
                        let g = dy[o] * norm;
                        for wy in 0..win {
                            for wx in 0..win {
                                gi[base + (py * win + wy) * self.width + px * win + wx] += g;
                            }
                        }
                        o += 1;
                    }
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "avgpool2d"
    }

    fn out_features(&self, _in_features: usize) -> usize {
        self.output_volume()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_each_window() {
        let mut pool = AvgPool2d::new(1, 2, 2, 2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 6.0], &[1, 4]).unwrap();
        let y = pool.forward(&x, true);
        assert_eq!(y.as_slice(), &[3.0]);
    }

    #[test]
    fn backward_spreads_gradient_evenly() {
        let mut pool = AvgPool2d::new(1, 2, 2, 2);
        pool.forward(&Tensor::ones(&[1, 4]), true);
        let dx = pool.backward(&Tensor::from_vec(vec![4.0], &[1, 1]).unwrap());
        assert_eq!(dx.as_slice(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn forward_backward_is_adjoint() {
        // <pool(x), y> == <x, poolᵀ(y)>
        let mut pool = AvgPool2d::new(2, 4, 4, 2);
        let x: Vec<f32> = (0..32).map(|i| (i as f32 * 0.3).sin()).collect();
        let y: Vec<f32> = (0..8).map(|i| (i as f32 * 0.7).cos()).collect();
        let xt = Tensor::from_vec(x.clone(), &[1, 32]).unwrap();
        let px = pool.forward(&xt, true);
        let lhs: f32 = px.as_slice().iter().zip(&y).map(|(a, b)| a * b).sum();
        let dy = Tensor::from_vec(y, &[1, 8]).unwrap();
        let pty = pool.backward(&dy);
        let rhs: f32 = x.iter().zip(pty.as_slice()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-4);
    }

    #[test]
    fn output_dims() {
        let pool = AvgPool2d::new(3, 8, 8, 2);
        assert_eq!(pool.output_volume(), 3 * 16);
        assert_eq!(pool.out_features(0), 48);
        assert_eq!(pool.param_count(), 0);
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn window_must_divide() {
        AvgPool2d::new(1, 5, 4, 2);
    }
}
