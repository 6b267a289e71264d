//! Activation layers.

use crate::{Layer, LayerWorkspace};
use adafl_tensor::Tensor;

/// Rectified linear unit: `max(0, x)` elementwise.
///
/// Caches the activation mask during the forward pass so the backward pass
/// gates gradients without revisiting the input values.
#[derive(Debug, Default)]
pub struct Relu {
    mask: Vec<bool>,
    shape: Vec<usize>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn forward_into(
        &mut self,
        input: &Tensor,
        out: &mut Tensor,
        _train: bool,
        _ws: &mut LayerWorkspace,
    ) {
        self.mask.clear();
        self.mask.extend(input.as_slice().iter().map(|&x| x > 0.0));
        self.shape.clear();
        self.shape.extend_from_slice(input.shape().dims());
        out.resize_reuse(&self.shape);
        for (o, &x) in out.as_mut_slice().iter_mut().zip(input.as_slice()) {
            *o = x.max(0.0);
        }
    }

    fn backward_into(
        &mut self,
        grad_out: &Tensor,
        grad_in: Option<&mut Tensor>,
        _ws: &mut LayerWorkspace,
    ) {
        let Some(grad_in) = grad_in else { return };
        assert_eq!(
            grad_out.shape().dims(),
            self.shape.as_slice(),
            "relu gradient shape mismatch"
        );
        grad_in.resize_reuse(&self.shape);
        for ((o, &g), &m) in grad_in
            .as_mut_slice()
            .iter_mut()
            .zip(grad_out.as_slice())
            .zip(&self.mask)
        {
            *o = if m { g } else { 0.0 };
        }
    }

    fn name(&self) -> &'static str {
        "relu"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut relu = Relu::new();
        let x = Tensor::from_slice(&[-1.0, 0.0, 2.0]);
        assert_eq!(relu.forward(&x, true).as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn backward_gates_gradient() {
        let mut relu = Relu::new();
        relu.forward(&Tensor::from_slice(&[-1.0, 0.5, 0.0]), true);
        let dx = relu.backward(&Tensor::from_slice(&[10.0, 10.0, 10.0]));
        assert_eq!(dx.as_slice(), &[0.0, 10.0, 0.0]);
    }

    #[test]
    fn zero_input_passes_no_gradient() {
        // Subgradient at exactly zero is taken as 0 (x > 0 strict).
        let mut relu = Relu::new();
        relu.forward(&Tensor::from_slice(&[0.0]), true);
        assert_eq!(
            relu.backward(&Tensor::from_slice(&[1.0])).as_slice(),
            &[0.0]
        );
    }

    #[test]
    fn stateless_wrt_parameters() {
        let relu = Relu::new();
        assert_eq!(relu.param_count(), 0);
    }
}
