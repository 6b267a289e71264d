use crate::subview::BlockLayout;
use crate::workspace::LayerWorkspace;
use adafl_tensor::Tensor;

/// A neural-network layer with explicit forward and backward passes.
///
/// All layers exchange rank-2 tensors shaped `[batch, features]`;
/// convolutional layers interpret each row as a flattened
/// `channels × height × width` image using geometry fixed at construction.
/// This keeps the container plumbing trivial while supporting the paper's
/// CNN/ResNet/VGG topologies.
///
/// A layer caches whatever it needs from the forward pass (inputs, masks,
/// argmax indices) so that the backward pass can run without re-receiving
/// the input. Parameter gradients accumulate across backward passes until
/// [`Layer::zero_grads`] is called, matching the local-iteration loop of
/// federated clients.
///
/// The trait is object-safe: models store `Box<dyn Layer>`.
pub trait Layer: Send + std::fmt::Debug {
    /// Runs the forward pass, caching state needed by
    /// [`Layer::backward_into`], and writes the output into `out`, resizing
    /// it in place (which reuses its allocation at steady state).
    ///
    /// `train` distinguishes training from inference for layers such as
    /// dropout that behave differently between the two.
    fn forward_into(
        &mut self,
        input: &Tensor,
        out: &mut Tensor,
        train: bool,
        ws: &mut LayerWorkspace,
    );

    /// Propagates `grad_out` (∂loss/∂output) to the input: accumulates
    /// parameter gradients internally and, given `Some(grad_in)`, writes
    /// ∂loss/∂input into it, resizing it in place.
    ///
    /// `None` asks for the parameter gradients only — the first layer of a
    /// model, whose input gradient nobody reads. Parameter-free layers then
    /// do nothing; parameter gradients are bit-identical either way.
    ///
    /// # Panics
    ///
    /// Implementations may panic when called before
    /// [`Layer::forward_into`] or with a gradient whose shape differs from
    /// the last forward output.
    fn backward_into(
        &mut self,
        grad_out: &Tensor,
        grad_in: Option<&mut Tensor>,
        ws: &mut LayerWorkspace,
    );

    /// [`Layer::forward_into`] into a fresh tensor over a throwaway
    /// workspace — the allocating form for examples and tests; training
    /// and evaluation call the `_into` pair.
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut out = Tensor::default();
        self.forward_into(input, &mut out, train, &mut LayerWorkspace::default());
        out
    }

    /// [`Layer::backward_into`] into a fresh input gradient, as
    /// [`Layer::forward`].
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut grad_in = Tensor::default();
        self.backward_into(grad_out, Some(&mut grad_in), &mut LayerWorkspace::default());
        grad_in
    }

    /// Total number of trainable scalars in this layer.
    fn param_count(&self) -> usize {
        0
    }

    /// Visits each parameter block (read-only), in a stable order.
    fn visit_params(&self, _f: &mut dyn FnMut(&[f32])) {}

    /// Visits each parameter block mutably, in the same order as
    /// [`Layer::visit_params`].
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut [f32])) {}

    /// Visits each gradient block (read-only), in the same order as
    /// [`Layer::visit_params`].
    fn visit_grads(&self, _f: &mut dyn FnMut(&[f32])) {}

    /// Describes each parameter block's unit structure, in the same order
    /// as [`Layer::visit_params`] — the registry parameter sub-views are
    /// cut from.
    ///
    /// The default derives an unsliceable [`BlockLayout::Whole`] per
    /// visited block, so external layers keep working (they are simply
    /// never width-sliced). Layers with output-unit structure (dense
    /// columns, conv channel rows) override this to opt into slicing.
    fn param_block_layouts(&self) -> Vec<BlockLayout> {
        let mut out = Vec::new();
        self.visit_params(&mut |p| out.push(BlockLayout::Whole { len: p.len() }));
        out
    }

    /// Resets accumulated gradients to zero.
    fn zero_grads(&mut self) {}

    /// Short human-readable layer name for diagnostics.
    fn name(&self) -> &'static str;

    /// Output feature count for a given input feature count, used to chain
    /// layers when building models.
    fn out_features(&self, in_features: usize) -> usize {
        in_features
    }
}
