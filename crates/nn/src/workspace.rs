//! Reusable scratch buffers for allocation-free training steps.
//!
//! The hot path of a federated client is `forward → loss → backward →
//! optimizer step`, repeated for every local iteration of every round. The
//! seed implementation allocated fresh tensors throughout that loop; the
//! workspace types here let every buffer be carried across steps instead.
//! State that must survive from forward to backward (im2col patch matrices,
//! activation masks, argmax indices) lives *inside* the layer that produced
//! it; the workspace holds only transient scratch plus the activation
//! ping-pong buffers threaded between layers.

use adafl_tensor::Tensor;

/// Per-layer scratch passed to [`crate::Layer::forward_into`] and
/// [`crate::Layer::backward_into`].
///
/// Simple layers ignore it entirely. Convolution uses `scratch` for one
/// sample group's matrices; composite layers such as `Residual` chain their
/// body through `ping`/`pong` and recurse into `children`.
#[derive(Debug, Default)]
pub struct LayerWorkspace {
    /// Flat `f32` scratch. Convolution keeps one sample group's product
    /// operands and results here — the group's output going forward, its
    /// output gradient and patch gradient going back (the patches
    /// themselves stay in the layer for the backward pass) — so it is
    /// bounded by one group of `⌈NR / n_patches⌉` samples, never by the
    /// batch.
    pub scratch: Vec<f32>,
    /// Matmul panel-packing buffer reused across every kernel call the
    /// layer makes (see `adafl_tensor::PackBuf`).
    pub pack: adafl_tensor::PackBuf,
    /// First activation ping-pong buffer for composite layers.
    pub ping: Tensor,
    /// Second activation ping-pong buffer for composite layers.
    pub pong: Tensor,
    /// Child workspaces for composite layers, one per inner layer.
    pub children: Vec<LayerWorkspace>,
}

impl LayerWorkspace {
    /// Ensures `children` holds exactly `n` workspaces, reusing existing
    /// ones. Allocates only the first time a larger `n` is seen.
    pub fn ensure_children(&mut self, n: usize) {
        if self.children.len() < n {
            self.children.resize_with(n, LayerWorkspace::default);
        }
    }
}

/// Model-level scratch arena: one [`LayerWorkspace`] per layer plus the
/// buffers [`crate::Model`]'s in-place passes thread between layers.
///
/// Create one per model (e.g. per federated client) and pass it to every
/// [`crate::Model::forward_into`] / [`crate::Model::backward_into`] /
/// [`crate::Model::apply_gradient_step_ws`] call; after the first step all
/// buffers have reached steady-state capacity and no further heap
/// allocation occurs.
#[derive(Debug, Default)]
pub struct ModelWorkspace {
    /// One workspace per model layer.
    pub(crate) layers: Vec<LayerWorkspace>,
    /// First inter-layer activation/gradient ping-pong buffer.
    pub(crate) ping: Tensor,
    /// Second inter-layer activation/gradient ping-pong buffer.
    pub(crate) pong: Tensor,
    /// Flat parameter scratch for in-place optimizer steps.
    pub(crate) params: Vec<f32>,
    /// Flat gradient scratch for in-place optimizer steps.
    pub(crate) grads: Vec<f32>,
}

impl ModelWorkspace {
    /// Creates an empty workspace; buffers grow to steady-state size on
    /// first use.
    pub fn new() -> Self {
        ModelWorkspace::default()
    }
}
