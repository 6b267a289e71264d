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
    /// In-window offset `wy · window + wx` of each pooled maximum,
    /// `batch · output_volume` entries in batch-row order: a byte where a
    /// source index took eight. Reused across steps.
    cached_argmax: Vec<u8>,
    batch: usize,
}

impl MaxPool2d {
    /// Creates a pooling layer for `[channels, height, width]` inputs.
    ///
    /// # Panics
    ///
    /// Panics when `window` is zero, wider than 16 (its offsets would not
    /// fit a byte) or does not divide both spatial dims.
    pub fn new(channels: usize, height: usize, width: usize, window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(window <= 16, "window {window} is wider than 16");
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

/// Pooling of one batch row for any window: scans each window row-major
/// and keeps the first strict maximum, the order [`pool_pairs`] unrolls
/// for window 2.
fn pool_windows(
    row: &[f32],
    (channels, height, width, win): (usize, usize, usize, usize),
    out_row: &mut [f32],
    argmax: &mut [u8],
) {
    let (oh, ow) = (height / win, width / win);
    let mut o = 0usize;
    for c in 0..channels {
        let base = c * height * width;
        for py in 0..oh {
            for px in 0..ow {
                let corner = base + (py * win) * width + px * win;
                let (mut best, mut best_at) = (row[corner], 0);
                for wy in 0..win {
                    for wx in 0..win {
                        let x = row[corner + wy * width + wx];
                        if x > best {
                            (best, best_at) = (x, wy * win + wx);
                        }
                    }
                }
                out_row[o] = best;
                // `new` caps the window at 16, so the offset fits.
                argmax[o] = best_at as u8;
                o += 1;
            }
        }
    }
}

/// Window-2 pooling of one batch row, a pair of image rows at a time (the
/// channel planes stack into one column of `width`-wide rows, and every
/// plane has an even height). Compares (0,0), (0,1), (1,0), (1,1) with a
/// strict `>`, like [`pool_windows`], so ties and NaNs resolve
/// to the same argmax.
fn pool_pairs(row: &[f32], width: usize, out_row: &mut [f32], argmax: &mut [u8]) {
    let ow = width / 2;
    let pairs = row
        .chunks_exact(2 * width)
        .zip(out_row.chunks_exact_mut(ow))
        .zip(argmax.chunks_exact_mut(ow));
    for ((pair, out), arg) in pairs {
        let (upper, lower) = pair.split_at(width);
        let cells = upper.chunks_exact(2).zip(lower.chunks_exact(2));
        for ((o, a), (u, l)) in out.iter_mut().zip(arg.iter_mut()).zip(cells) {
            let (mut best, mut best_at) = (u[0], 0);
            if u[1] > best {
                (best, best_at) = (u[1], 1);
            }
            if l[0] > best {
                (best, best_at) = (l[0], 2);
            }
            if l[1] > best {
                (best, best_at) = (l[1], 3);
            }
            *o = best;
            *a = best_at;
        }
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
        let out_vol = self.output_volume();
        out.resize_reuse(&[batch, out_vol]);
        self.cached_argmax.resize(batch * out_vol, 0);
        self.batch = batch;
        let geometry = (self.channels, self.height, self.width, self.window);
        let rows = input
            .as_slice()
            .chunks_exact(in_vol)
            .zip(out.as_mut_slice().chunks_exact_mut(out_vol))
            .zip(self.cached_argmax.chunks_exact_mut(out_vol));
        for ((row, out_row), argmax) in rows {
            if self.window == 2 {
                pool_pairs(row, self.width, out_row, argmax);
            } else {
                pool_windows(row, geometry, out_row, argmax);
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
        let (win, width, ow) = (self.window, self.width, self.out_w());
        // Each in-window offset's distance from its window's corner.
        let mut jump = [0usize; 256];
        for (at, j) in jump.iter_mut().enumerate().take(win * win) {
            *j = at / win * width + at % win;
        }
        let rows = grad_out
            .as_slice()
            .chunks_exact(out_vol)
            .zip(self.cached_argmax.chunks_exact(out_vol))
            .zip(grad_in.as_mut_slice().chunks_exact_mut(in_vol));
        for ((dy, argmax), gi) in rows {
            // Pooled rows of every channel plane stack `win` image rows
            // apart.
            let pooled = dy.chunks_exact(ow).zip(argmax.chunks_exact(ow));
            for (r, (dy, argmax)) in pooled.enumerate() {
                let corner = r * win * width;
                for (px, (&g, &at)) in dy.iter().zip(argmax).enumerate() {
                    gi[corner + px * win + jump[usize::from(at)]] += g;
                }
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

    /// The forward loop before window 2 got its own body: every window
    /// scanned row-major with a strict `>`, its argmax pushed in order.
    /// Kept as the reference both bodies must match bitwise.
    fn reference_forward(
        (c, h, w, win): (usize, usize, usize, usize),
        input: &[f32],
    ) -> (Vec<f32>, Vec<usize>) {
        let (oh, ow) = (h / win, w / win);
        let (mut out, mut argmax) = (Vec::new(), Vec::new());
        for row in input.chunks(c * h * w) {
            for ch in 0..c {
                let base = ch * h * w;
                for py in 0..oh {
                    for px in 0..ow {
                        let mut best_idx = base + (py * win) * w + px * win;
                        let mut best = row[best_idx];
                        for wy in 0..win {
                            for wx in 0..win {
                                let idx = base + (py * win + wy) * w + (px * win + wx);
                                if row[idx] > best {
                                    best = row[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        out.push(best);
                        argmax.push(best_idx);
                    }
                }
            }
        }
        (out, argmax)
    }

    /// The source index each cached in-window offset stands for: the form
    /// the argmax was cached in before it shrank to a byte.
    fn decoded_argmax(pool: &MaxPool2d) -> Vec<usize> {
        let (c, h, w, win) = (pool.channels, pool.height, pool.width, pool.window);
        let (oh, ow) = (h / win, w / win);
        pool.cached_argmax
            .iter()
            .enumerate()
            .map(|(i, &at)| {
                let o = i % (c * oh * ow);
                let (ch, py, px) = (o / (oh * ow), o / ow % oh, o % ow);
                let at = usize::from(at);
                ch * h * w + (py * win + at / win) * w + px * win + at % win
            })
            .collect()
    }

    /// The backward pass over source indices, as it ran before the cache
    /// held offsets: every pooled gradient added at its maximum's index.
    fn reference_backward(
        (in_vol, out_vol): (usize, usize),
        argmax: &[usize],
        grad_out: &[f32],
    ) -> Vec<f32> {
        let mut grad_in = vec![0.0f32; grad_out.len() / out_vol * in_vol];
        for (bi, (dy, argmax)) in grad_out
            .chunks(out_vol)
            .zip(argmax.chunks(out_vol))
            .enumerate()
        {
            let gi = &mut grad_in[bi * in_vol..(bi + 1) * in_vol];
            for (&src, &g) in argmax.iter().zip(dy) {
                gi[src] += g;
            }
        }
        grad_in
    }

    /// Seeded xorshift draws from `palette`.
    fn draw(state: &mut u64, palette: &[f32], n: usize) -> Vec<f32> {
        (0..n)
            .map(|_| {
                *state ^= *state << 13;
                *state ^= *state >> 7;
                *state ^= *state << 17;
                palette[(*state % palette.len() as u64) as usize]
            })
            .collect()
    }

    /// Ties, signed zeros and NaNs, so that the order of comparisons
    /// decides most windows.
    const PALETTE: [f32; 9] = [
        0.0,
        -0.0,
        1.0,
        1.0,
        -1.0,
        f32::NAN,
        -f32::NAN,
        2.5,
        f32::NEG_INFINITY,
    ];

    /// Geometries `(channels, height, width, window)` covering window 2's
    /// unrolled body, the general loop and the degenerate window 1.
    const GEOMETRIES: [(usize, usize, usize, usize); 6] = [
        (3, 8, 6, 2),
        (20, 12, 12, 2),
        (1, 2, 2, 2),
        (2, 9, 6, 3),
        (1, 4, 4, 1),
        (2, 16, 32, 16),
    ];

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn backward_matches_the_source_index_form_bitwise() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for (c, h, w, win) in GEOMETRIES {
            let batch = 3;
            let in_vol = c * h * w;
            let input = draw(&mut state, &PALETTE, batch * in_vol);
            let (_, want_argmax) = reference_forward((c, h, w, win), &input);
            let mut pool = MaxPool2d::new(c, h, w, win);
            let x = Tensor::from_vec(input, &[batch, in_vol]).unwrap();
            let out_vol = pool.output_volume();
            pool.forward(&x, true);
            let grad_out = draw(&mut state, &PALETTE, batch * out_vol);
            let want = reference_backward((in_vol, out_vol), &want_argmax, &grad_out);
            let dy = Tensor::from_vec(grad_out, &[batch, out_vol]).unwrap();
            let got = pool.backward(&dy);
            assert_eq!(
                bits(got.as_slice()),
                bits(&want),
                "{c}x{h}x{w} window {win}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "wider than 16")]
    fn window_must_fit_a_byte_offset() {
        MaxPool2d::new(1, 17, 17, 17);
    }

    #[test]
    fn forward_matches_the_reference_loop_bitwise() {
        let mut state = 0x853c_49e6_748f_ea9bu64;
        for (c, h, w, win) in GEOMETRIES {
            let batch = 3;
            let input = draw(&mut state, &PALETTE, batch * c * h * w);
            let (want, want_argmax) = reference_forward((c, h, w, win), &input);
            let mut pool = MaxPool2d::new(c, h, w, win);
            let x = Tensor::from_vec(input, &[batch, c * h * w]).unwrap();
            // Twice, so a second step reuses the argmax cache.
            for _ in 0..2 {
                let y = pool.forward(&x, true);
                assert_eq!(bits(y.as_slice()), bits(&want), "{c}x{h}x{w} window {win}");
                assert_eq!(
                    decoded_argmax(&pool),
                    want_argmax,
                    "{c}x{h}x{w} window {win}"
                );
            }
        }
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
