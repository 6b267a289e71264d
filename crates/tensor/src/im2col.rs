//! `im2col` / `col2im` transforms that turn 2-D convolution into matrix
//! multiplication.
//!
//! For an input of shape `[channels, height, width]` and a kernel of
//! `kh × kw`, [`im2col`] produces a `[kh·kw·channels, out_h·out_w]` patch
//! matrix; convolution is then a single matmul with the `[out_channels,
//! kh·kw·channels]` weight matrix. [`col2im`] scatters patch-space gradients
//! back to image space for the backward pass.

use crate::{Result, Tensor, TensorError};

/// Geometry of a 2-D convolution: input/kernel sizes, stride and padding.
///
/// Captures everything needed to compute output dimensions and run
/// [`im2col`]/[`col2im`]; constructed once per layer.
///
/// # Examples
///
/// ```
/// use adafl_tensor::Conv2dGeometry;
///
/// let g = Conv2dGeometry::new(1, 28, 28, 5, 1, 0);
/// assert_eq!((g.out_h(), g.out_w()), (24, 24));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dGeometry {
    channels: usize,
    height: usize,
    width: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
}

impl Conv2dGeometry {
    /// Creates convolution geometry for a square `kernel × kernel` filter.
    ///
    /// # Panics
    ///
    /// Panics when `stride` is zero or the kernel (plus padding) does not fit
    /// within the input.
    pub fn new(
        channels: usize,
        height: usize,
        width: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        assert!(stride > 0, "stride must be positive");
        assert!(
            height + 2 * padding >= kernel && width + 2 * padding >= kernel,
            "kernel {kernel} larger than padded input {height}x{width} (+{padding})"
        );
        Conv2dGeometry {
            channels,
            height,
            width,
            kernel,
            stride,
            padding,
        }
    }

    /// Input channel count.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Input height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Input width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Kernel side length.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Zero padding on each border.
    pub fn padding(&self) -> usize {
        self.padding
    }

    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.height + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.width + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Rows of the patch matrix: `kernel² · channels`.
    pub fn patch_len(&self) -> usize {
        self.kernel * self.kernel * self.channels
    }

    /// Columns of the patch matrix: `out_h · out_w`.
    pub fn n_patches(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Flat input volume `channels · height · width`.
    pub fn input_volume(&self) -> usize {
        self.channels * self.height * self.width
    }
}

/// Unfolds a `[channels, height, width]` image into a
/// `[patch_len, n_patches]` matrix of convolution patches.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when `image.len()` differs from
/// the geometry's input volume.
pub fn im2col(image: &Tensor, geom: &Conv2dGeometry) -> Result<Tensor> {
    if image.len() != geom.input_volume() {
        return Err(TensorError::LengthMismatch {
            expected: geom.input_volume(),
            actual: image.len(),
        });
    }
    let mut out = vec![0.0f32; geom.patch_len() * geom.n_patches()];
    im2col_into(image.as_slice(), geom, &mut out);
    Tensor::from_vec(out, &[geom.patch_len(), geom.n_patches()])
}

/// Slice-based [`im2col`] that writes into a caller-provided buffer of
/// `patch_len() · n_patches()` elements, allocating nothing: the group of
/// one of [`im2col_grouped_into`].
///
/// Every position is written (padding positions as zero), so the buffer may
/// hold stale data from a previous call.
///
/// # Panics
///
/// Panics when `img` or `out` has the wrong length for the geometry.
pub fn im2col_into(img: &[f32], geom: &Conv2dGeometry, out: &mut [f32]) {
    im2col_grouped_into(img, geom, 1, out);
}

/// Grouped patch matrices at most this many columns wide are gathered
/// through a table of column offsets held on the stack; wider ones copy
/// output rows.
const GATHER_COLUMNS: usize = 64;

/// The gather schedule's table, when it applies: for an unpadded stride-1
/// geometry whose grouped matrix is 1 to [`GATHER_COLUMNS`] wide, entry
/// `s·n_patches + p` is the offset of patch `p` of image `s` from the first
/// pixel a patch-matrix row reads. Patch row `(ch, ky, kx)` then reads
/// `imgs[row_base + table[col]]` for every column.
fn gather_table(geom: &Conv2dGeometry, group: usize) -> Option<[usize; GATHER_COLUMNS]> {
    let (n_patches, ow) = (geom.n_patches(), geom.out_w());
    let columns = group * n_patches;
    if geom.padding != 0 || geom.stride != 1 || !(1..=GATHER_COLUMNS).contains(&columns) {
        return None;
    }
    let mut table = [0usize; GATHER_COLUMNS];
    for (col, t) in table[..columns].iter_mut().enumerate() {
        let (s, p) = (col / n_patches, col % n_patches);
        *t = s * geom.input_volume() + p / ow * geom.width + p % ow;
    }
    Some(table)
}

/// Unfolds `group` consecutive `[channels, height, width]` images into one
/// `[patch_len, group · n_patches]` matrix, image `s`'s patches in columns
/// `s · n_patches ..`: the grouped operand of one convolution product,
/// written once, in place. Allocates nothing.
///
/// Each value is a plain copy, so the schedule cannot change a bit.
/// Unpadded stride-1 geometries copy without a padding test: a grouped
/// matrix at most 64 columns wide (short outputs) is gathered row by row
/// through a precomputed column-offset table, a wider one copies whole
/// output rows. Padded or strided geometries run the per-element loop.
///
/// Every position is written (padding positions as zero), so the buffer may
/// hold stale data from a previous call.
///
/// # Panics
///
/// Panics when `imgs` or `out` has the wrong length for `group` images.
pub fn im2col_grouped_into(imgs: &[f32], geom: &Conv2dGeometry, group: usize, out: &mut [f32]) {
    let (volume, n_patches) = (geom.input_volume(), geom.n_patches());
    assert_eq!(imgs.len(), group * volume, "im2col: image length");
    assert_eq!(
        out.len(),
        geom.patch_len() * group * n_patches,
        "im2col: output length"
    );
    let (h, w) = (geom.height, geom.width);
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let width = group * n_patches;
    if let Some(table) = gather_table(geom, group) {
        each_kernel_row(geom, |row, ch, ky, kx| {
            let src = &imgs[ch * h * w + ky * w + kx..];
            for (d, &o) in out[row * width..][..width].iter_mut().zip(&table) {
                *d = src[o];
            }
        });
        return;
    }
    let unpadded = geom.padding == 0 && geom.stride == 1;
    for s in 0..group {
        let img = &imgs[s * volume..][..volume];
        each_kernel_row(geom, |row, ch, ky, kx| {
            let dst = &mut out[row * width + s * n_patches..][..n_patches];
            let plane = &img[ch * h * w..][..h * w];
            if unpadded {
                for (oy, d) in dst.chunks_exact_mut(ow).enumerate() {
                    d.copy_from_slice(&plane[(oy + ky) * w + kx..][..ow]);
                }
            } else {
                let mut patch = 0;
                for oy in 0..oh {
                    for ox in 0..ow {
                        dst[patch] = geom.pixel(oy, ox, ky, kx).map_or(0.0, |i| plane[i]);
                        patch += 1;
                    }
                }
            }
        });
    }
}

/// Calls `f(row, channel, ky, kx)` for each patch-matrix row in order, one
/// row per kernel tap.
#[inline(always)]
fn each_kernel_row(geom: &Conv2dGeometry, mut f: impl FnMut(usize, usize, usize, usize)) {
    let mut row = 0;
    for ch in 0..geom.channels {
        for ky in 0..geom.kernel {
            for kx in 0..geom.kernel {
                f(row, ch, ky, kx);
                row += 1;
            }
        }
    }
}

impl Conv2dGeometry {
    /// Index within one channel plane of the input pixel that kernel tap
    /// `(ky, kx)` of output position `(oy, ox)` reads, or `None` in the
    /// padding.
    fn pixel(&self, oy: usize, ox: usize, ky: usize, kx: usize) -> Option<usize> {
        let iy = (oy * self.stride + ky).checked_sub(self.padding)?;
        let ix = (ox * self.stride + kx).checked_sub(self.padding)?;
        (iy < self.height && ix < self.width).then_some(iy * self.width + ix)
    }
}

/// Folds a `[patch_len, n_patches]` gradient matrix back into
/// `[channels, height, width]` image space, summing overlapping patches.
///
/// This is the adjoint of [`im2col`] and is used to propagate convolution
/// gradients to the layer input.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when `cols.len()` differs from the
/// geometry's patch-matrix volume.
pub fn col2im(cols: &Tensor, geom: &Conv2dGeometry) -> Result<Tensor> {
    let expected = geom.patch_len() * geom.n_patches();
    if cols.len() != expected {
        return Err(TensorError::LengthMismatch {
            expected,
            actual: cols.len(),
        });
    }
    let mut img = vec![0.0f32; geom.input_volume()];
    col2im_into(cols.as_slice(), geom, &mut img);
    Tensor::from_vec(img, &[geom.channels, geom.height, geom.width])
}

/// Slice-based [`col2im`] that overwrites a caller-provided buffer of
/// `input_volume()` elements, allocating nothing: the group of one of
/// [`col2im_grouped_into`].
///
/// The buffer is zeroed first, then overlapping patches are summed into it.
///
/// # Panics
///
/// Panics when `cols` or `img` has the wrong length for the geometry.
pub fn col2im_into(cols: &[f32], geom: &Conv2dGeometry, img: &mut [f32]) {
    col2im_grouped_into(cols, geom, 1, img);
}

/// Folds a grouped `[patch_len, group · n_patches]` gradient matrix — the
/// layout [`im2col_grouped_into`] writes — back into `group` consecutive
/// `[channels, height, width]` images, overwriting them. Allocates nothing.
///
/// The images are zeroed, then the patch-matrix rows are added into them in
/// row order; within one row no two columns touch the same pixel, so every
/// pixel sums its contributions in the order of the per-element loop.
/// Unpadded stride-1 geometries add without a padding test — through
/// [`im2col_grouped_into`]'s column-offset table, or whole output rows at a
/// time when the matrix is wider; padded or strided ones run the
/// per-element loop.
///
/// # Panics
///
/// Panics when `cols` or `imgs` has the wrong length for `group` images.
pub fn col2im_grouped_into(cols: &[f32], geom: &Conv2dGeometry, group: usize, imgs: &mut [f32]) {
    let (volume, n_patches) = (geom.input_volume(), geom.n_patches());
    assert_eq!(
        cols.len(),
        geom.patch_len() * group * n_patches,
        "col2im: cols length"
    );
    assert_eq!(imgs.len(), group * volume, "col2im: image length");
    imgs.fill(0.0);
    let (h, w) = (geom.height, geom.width);
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let width = group * n_patches;
    if let Some(table) = gather_table(geom, group) {
        each_kernel_row(geom, |row, ch, ky, kx| {
            let dst = &mut imgs[ch * h * w + ky * w + kx..];
            for (&v, &o) in cols[row * width..][..width].iter().zip(&table) {
                dst[o] += v;
            }
        });
        return;
    }
    let unpadded = geom.padding == 0 && geom.stride == 1;
    for s in 0..group {
        let img = &mut imgs[s * volume..][..volume];
        each_kernel_row(geom, |row, ch, ky, kx| {
            let src = &cols[row * width + s * n_patches..][..n_patches];
            let plane = &mut img[ch * h * w..][..h * w];
            if unpadded {
                for (oy, g) in src.chunks_exact(ow).enumerate() {
                    let dst = &mut plane[(oy + ky) * w + kx..][..ow];
                    for (d, &v) in dst.iter_mut().zip(g) {
                        *d += v;
                    }
                }
            } else {
                let mut patch = 0;
                for oy in 0..oh {
                    for ox in 0..ow {
                        if let Some(i) = geom.pixel(oy, ox, ky, kx) {
                            plane[i] += src[patch];
                        }
                        patch += 1;
                    }
                }
            }
        });
    }
}

/// Per-element reference loops: every patch value computed from its
/// coordinates with a padding test. The grouped transforms above must match
/// them bit for bit; never call them from production code.
pub mod oracle {
    use super::Conv2dGeometry;

    /// [`super::im2col_into`] one element at a time.
    ///
    /// # Panics
    ///
    /// Panics when `img` or `out` has the wrong length for the geometry.
    pub fn im2col_into(img: &[f32], geom: &Conv2dGeometry, out: &mut [f32]) {
        assert_eq!(img.len(), geom.input_volume(), "im2col_into: image length");
        assert_eq!(
            out.len(),
            geom.patch_len() * geom.n_patches(),
            "im2col_into: output length"
        );
        let (c, h, w) = (geom.channels, geom.height, geom.width);
        let (kh, stride, pad) = (geom.kernel, geom.stride, geom.padding);
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let n_patches = oh * ow;
        let mut row = 0usize;
        for ch in 0..c {
            for ky in 0..kh {
                for kx in 0..kh {
                    let out_row = &mut out[row * n_patches..(row + 1) * n_patches];
                    let mut patch = 0usize;
                    for oy in 0..oh {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        for ox in 0..ow {
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            out_row[patch] =
                                if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                    img[ch * h * w + iy as usize * w + ix as usize]
                                } else {
                                    0.0
                                };
                            patch += 1;
                        }
                    }
                    row += 1;
                }
            }
        }
    }

    /// [`super::col2im_into`] one element at a time.
    ///
    /// # Panics
    ///
    /// Panics when `cols` or `img` has the wrong length for the geometry.
    pub fn col2im_into(cols: &[f32], geom: &Conv2dGeometry, img: &mut [f32]) {
        assert_eq!(
            cols.len(),
            geom.patch_len() * geom.n_patches(),
            "col2im_into: cols length"
        );
        assert_eq!(img.len(), geom.input_volume(), "col2im_into: image length");
        img.fill(0.0);
        let (c, h, w) = (geom.channels, geom.height, geom.width);
        let (kh, stride, pad) = (geom.kernel, geom.stride, geom.padding);
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let n_patches = oh * ow;
        let mut row = 0usize;
        for ch in 0..c {
            for ky in 0..kh {
                for kx in 0..kh {
                    let in_row = &cols[row * n_patches..(row + 1) * n_patches];
                    let mut patch = 0usize;
                    for oy in 0..oh {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        for ox in 0..ow {
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                img[ch * h * w + iy as usize * w + ix as usize] += in_row[patch];
                            }
                            patch += 1;
                        }
                    }
                    row += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_output_dims() {
        let g = Conv2dGeometry::new(3, 32, 32, 3, 1, 1);
        assert_eq!((g.out_h(), g.out_w()), (32, 32));
        let g2 = Conv2dGeometry::new(1, 28, 28, 5, 1, 0);
        assert_eq!((g2.out_h(), g2.out_w()), (24, 24));
        let g3 = Conv2dGeometry::new(1, 8, 8, 2, 2, 0);
        assert_eq!((g3.out_h(), g3.out_w()), (4, 4));
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn zero_stride_panics() {
        Conv2dGeometry::new(1, 4, 4, 2, 0, 0);
    }

    #[test]
    #[should_panic(expected = "kernel")]
    fn oversized_kernel_panics() {
        Conv2dGeometry::new(1, 2, 2, 5, 1, 0);
    }

    #[test]
    fn im2col_simple_2x2() {
        // 1 channel, 3x3 image, 2x2 kernel, stride 1, no padding → 4 patches.
        let img = Tensor::from_vec((1..=9).map(|i| i as f32).collect(), &[9]).unwrap();
        let g = Conv2dGeometry::new(1, 3, 3, 2, 1, 0);
        let cols = im2col(&img, &g).unwrap();
        assert_eq!(cols.shape().dims(), &[4, 4]);
        // Patch top-left corners: (0,0),(0,1),(1,0),(1,1).
        // Row 0 = kernel position (0,0) across patches: 1,2,4,5
        assert_eq!(cols.row(0), &[1.0, 2.0, 4.0, 5.0]);
        // Row 3 = kernel position (1,1): 5,6,8,9
        assert_eq!(cols.row(3), &[5.0, 6.0, 8.0, 9.0]);
    }

    #[test]
    fn im2col_respects_padding() {
        let img = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]).unwrap();
        let g = Conv2dGeometry::new(1, 2, 2, 3, 1, 1);
        let cols = im2col(&img, &g).unwrap();
        assert_eq!(cols.shape().dims(), &[9, 4]);
        // Kernel centre row (position (1,1)) sees the raw pixels.
        assert_eq!(cols.row(4), &[1.0, 2.0, 3.0, 4.0]);
        // Corner position (0,0) only overlaps the image for the last patch.
        assert_eq!(cols.row(0), &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn im2col_validates_length() {
        let g = Conv2dGeometry::new(1, 3, 3, 2, 1, 0);
        let img = Tensor::from_slice(&[1.0; 5]);
        assert!(im2col(&img, &g).is_err());
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property,
        // checked with pseudo-random vectors.
        let g = Conv2dGeometry::new(2, 5, 5, 3, 2, 1);
        let x: Vec<f32> = (0..g.input_volume())
            .map(|i| ((i * 31 % 17) as f32) - 8.0)
            .collect();
        let y: Vec<f32> = (0..g.patch_len() * g.n_patches())
            .map(|i| ((i * 29 % 19) as f32) - 9.0)
            .collect();
        let xt = Tensor::from_vec(x.clone(), &[g.input_volume()]).unwrap();
        let yt = Tensor::from_vec(y.clone(), &[g.patch_len() * g.n_patches()]).unwrap();
        let ax = im2col(&xt, &g).unwrap();
        let aty = col2im(&yt, &g).unwrap();
        let lhs: f32 = ax.as_slice().iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.iter().zip(aty.as_slice()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-2, "adjoint mismatch: {lhs} vs {rhs}");
    }

    #[test]
    fn col2im_validates_length() {
        let g = Conv2dGeometry::new(1, 3, 3, 2, 1, 0);
        assert!(col2im(&Tensor::from_slice(&[0.0; 3]), &g).is_err());
    }
}
