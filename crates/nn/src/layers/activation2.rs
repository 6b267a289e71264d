//! Additional pointwise activations: tanh and sigmoid.

use crate::{Layer, LayerWorkspace};
use adafl_tensor::Tensor;

/// Hyperbolic-tangent activation.
///
/// Caches the forward *output* so the backward pass uses the identity
/// `d tanh(x)/dx = 1 − tanh²(x)` without recomputing.
#[derive(Debug, Default)]
pub struct Tanh {
    output: Vec<f32>,
    shape: Vec<usize>,
}

impl Tanh {
    /// Creates a tanh layer.
    pub fn new() -> Self {
        Tanh::default()
    }
}

impl Layer for Tanh {
    fn forward_into(
        &mut self,
        input: &Tensor,
        out: &mut Tensor,
        _train: bool,
        _ws: &mut LayerWorkspace,
    ) {
        self.shape.clear();
        self.shape.extend_from_slice(input.shape().dims());
        out.resize_reuse(&self.shape);
        self.output.clear();
        for (o, &x) in out.as_mut_slice().iter_mut().zip(input.as_slice()) {
            *o = x.tanh();
            self.output.push(*o);
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
            "tanh gradient shape mismatch"
        );
        grad_in.resize_reuse(&self.shape);
        for ((o, &g), &y) in grad_in
            .as_mut_slice()
            .iter_mut()
            .zip(grad_out.as_slice())
            .zip(&self.output)
        {
            *o = g * (1.0 - y * y);
        }
    }

    fn name(&self) -> &'static str {
        "tanh"
    }
}

/// Logistic-sigmoid activation.
///
/// Caches the forward output for the backward identity
/// `dσ(x)/dx = σ(x)(1 − σ(x))`.
#[derive(Debug, Default)]
pub struct Sigmoid {
    output: Vec<f32>,
    shape: Vec<usize>,
}

impl Sigmoid {
    /// Creates a sigmoid layer.
    pub fn new() -> Self {
        Sigmoid::default()
    }
}

impl Layer for Sigmoid {
    fn forward_into(
        &mut self,
        input: &Tensor,
        out: &mut Tensor,
        _train: bool,
        _ws: &mut LayerWorkspace,
    ) {
        self.shape.clear();
        self.shape.extend_from_slice(input.shape().dims());
        out.resize_reuse(&self.shape);
        self.output.clear();
        for (o, &x) in out.as_mut_slice().iter_mut().zip(input.as_slice()) {
            *o = 1.0 / (1.0 + (-x).exp());
            self.output.push(*o);
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
            "sigmoid gradient shape mismatch"
        );
        grad_in.resize_reuse(&self.shape);
        for ((o, &g), &y) in grad_in
            .as_mut_slice()
            .iter_mut()
            .zip(grad_out.as_slice())
            .zip(&self.output)
        {
            *o = g * y * (1.0 - y);
        }
    }

    fn name(&self) -> &'static str {
        "sigmoid"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tanh_forward_range_and_odd_symmetry() {
        let mut t = Tanh::new();
        let y = t.forward(&Tensor::from_slice(&[-100.0, -1.0, 0.0, 1.0, 100.0]), true);
        let s = y.as_slice();
        assert!((s[0] + 1.0).abs() < 1e-6);
        assert_eq!(s[2], 0.0);
        assert!((s[4] - 1.0).abs() < 1e-6);
        assert!((s[1] + s[3]).abs() < 1e-6, "tanh must be odd");
    }

    #[test]
    fn tanh_gradient_matches_identity() {
        let mut t = Tanh::new();
        let x = 0.7f32;
        t.forward(&Tensor::from_slice(&[x]), true);
        let dx = t.backward(&Tensor::from_slice(&[1.0]));
        let expected = 1.0 - x.tanh().powi(2);
        assert!((dx.as_slice()[0] - expected).abs() < 1e-6);
    }

    #[test]
    fn sigmoid_forward_range_and_midpoint() {
        let mut s = Sigmoid::new();
        let y = s.forward(&Tensor::from_slice(&[-100.0, 0.0, 100.0]), true);
        assert!(y.as_slice()[0] < 1e-6);
        assert!((y.as_slice()[1] - 0.5).abs() < 1e-6);
        assert!((y.as_slice()[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn sigmoid_gradient_peaks_at_zero() {
        let mut s = Sigmoid::new();
        s.forward(&Tensor::from_slice(&[0.0, 4.0]), true);
        let dx = s.backward(&Tensor::from_slice(&[1.0, 1.0]));
        assert!((dx.as_slice()[0] - 0.25).abs() < 1e-6);
        assert!(dx.as_slice()[1] < 0.25);
    }

    #[test]
    fn numerical_gradient_check() {
        for (name, mut layer) in [
            ("tanh", Box::new(Tanh::new()) as Box<dyn Layer>),
            ("sigmoid", Box::new(Sigmoid::new())),
        ] {
            let x = 0.37f32;
            let eps = 1e-3;
            let f = |l: &mut Box<dyn Layer>, v: f32| {
                l.forward(&Tensor::from_slice(&[v]), false).as_slice()[0]
            };
            let numeric = (f(&mut layer, x + eps) - f(&mut layer, x - eps)) / (2.0 * eps);
            layer.forward(&Tensor::from_slice(&[x]), false);
            let analytic = layer.backward(&Tensor::from_slice(&[1.0])).as_slice()[0];
            assert!(
                (numeric - analytic).abs() < 1e-3,
                "{name}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }
}
