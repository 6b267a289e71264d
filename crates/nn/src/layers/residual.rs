//! Residual (skip-connection) blocks.

use crate::{Layer, LayerWorkspace};
use adafl_tensor::Tensor;

/// Residual block computing `y = body(x) + x`.
///
/// The body is an arbitrary stack of layers whose output width must equal
/// its input width (the identity-shortcut case of He et al.'s residual
/// learning, which `ResNetLite` uses to stand in for ResNet-50 — see
/// DESIGN.md for the substitution rationale).
#[derive(Debug)]
pub struct Residual {
    body: Vec<Box<dyn Layer>>,
}

impl Residual {
    /// Creates a residual block from a stack of body layers.
    ///
    /// # Panics
    ///
    /// Panics when `body` is empty.
    pub fn new(body: Vec<Box<dyn Layer>>) -> Self {
        assert!(
            !body.is_empty(),
            "residual body must contain at least one layer"
        );
        Residual { body }
    }

    /// Number of layers inside the block body.
    pub fn body_len(&self) -> usize {
        self.body.len()
    }
}

impl Layer for Residual {
    fn forward_into(
        &mut self,
        input: &Tensor,
        out: &mut Tensor,
        train: bool,
        ws: &mut LayerWorkspace,
    ) {
        ws.ensure_children(self.body.len());
        self.body[0].forward_into(input, &mut ws.ping, train, &mut ws.children[0]);
        let mut src: &mut Tensor = &mut ws.ping;
        let mut dst: &mut Tensor = &mut ws.pong;
        for i in 1..self.body.len() {
            self.body[i].forward_into(src, dst, train, &mut ws.children[i]);
            std::mem::swap(&mut src, &mut dst);
        }
        assert_eq!(
            src.shape().dims(),
            input.shape().dims(),
            "residual body must preserve shape for the identity shortcut"
        );
        out.resize_reuse(input.shape().dims());
        for ((o, &a), &b) in out
            .as_mut_slice()
            .iter_mut()
            .zip(src.as_slice())
            .zip(input.as_slice())
        {
            *o = a + b;
        }
    }

    fn backward_into(
        &mut self,
        grad_out: &Tensor,
        grad_in: Option<&mut Tensor>,
        ws: &mut LayerWorkspace,
    ) {
        // The body runs in full either way: its parameters need their
        // gradients even when the block's input gradient has no reader.
        ws.ensure_children(self.body.len());
        let n = self.body.len();
        self.body[n - 1].backward_into(grad_out, Some(&mut ws.ping), &mut ws.children[n - 1]);
        let mut src: &mut Tensor = &mut ws.ping;
        let mut dst: &mut Tensor = &mut ws.pong;
        for i in (0..n - 1).rev() {
            self.body[i].backward_into(src, Some(&mut *dst), &mut ws.children[i]);
            std::mem::swap(&mut src, &mut dst);
        }
        let Some(grad_in) = grad_in else { return };
        // Shortcut adds the output gradient directly to the input gradient.
        grad_in.resize_reuse(grad_out.shape().dims());
        for ((o, &a), &b) in grad_in
            .as_mut_slice()
            .iter_mut()
            .zip(src.as_slice())
            .zip(grad_out.as_slice())
        {
            *o = a + b;
        }
    }

    fn param_count(&self) -> usize {
        self.body.iter().map(|l| l.param_count()).sum()
    }

    fn visit_params(&self, f: &mut dyn FnMut(&[f32])) {
        for layer in &self.body {
            layer.visit_params(f);
        }
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        for layer in &mut self.body {
            layer.visit_params_mut(f);
        }
    }

    fn visit_grads(&self, f: &mut dyn FnMut(&[f32])) {
        for layer in &self.body {
            layer.visit_grads(f);
        }
    }

    fn param_block_layouts(&self) -> Vec<crate::BlockLayout> {
        self.body
            .iter()
            .flat_map(|l| l.param_block_layouts())
            .collect()
    }

    fn zero_grads(&mut self) {
        for layer in &mut self.body {
            layer.zero_grads();
        }
    }

    fn name(&self) -> &'static str {
        "residual"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn zero_body_block(width: usize) -> Residual {
        // Dense initialised then zeroed → body(x) = 0, so the block is identity.
        let mut dense = Dense::new(&mut StdRng::seed_from_u64(0), width, width);
        dense.visit_params_mut(&mut |p| p.fill(0.0));
        Residual::new(vec![Box::new(dense)])
    }

    #[test]
    fn zero_body_gives_identity() {
        let mut block = zero_body_block(3);
        let x = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[1, 3]).unwrap();
        let y = block.forward(&x, true);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn shortcut_passes_gradient_through() {
        let mut block = zero_body_block(2);
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        block.forward(&x, true);
        let dy = Tensor::from_vec(vec![3.0, 5.0], &[1, 2]).unwrap();
        let dx = block.backward(&dy);
        // Body weights are zero, so only the shortcut contributes: dx == dy.
        assert_eq!(dx.as_slice(), dy.as_slice());
    }

    #[test]
    fn params_aggregate_across_body() {
        let mut rng = StdRng::seed_from_u64(1);
        let block = Residual::new(vec![
            Box::new(Dense::new(&mut rng, 4, 4)),
            Box::new(Relu::new()),
            Box::new(Dense::new(&mut rng, 4, 4)),
        ]);
        assert_eq!(block.param_count(), 2 * (16 + 4));
        let mut blocks = 0;
        block.visit_params(&mut |_| blocks += 1);
        assert_eq!(blocks, 4); // two weights + two biases
        assert_eq!(block.body_len(), 3);
    }

    #[test]
    #[should_panic(expected = "preserve shape")]
    fn mismatched_body_width_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut block = Residual::new(vec![Box::new(Dense::new(&mut rng, 4, 3))]);
        block.forward(&Tensor::zeros(&[1, 4]), true);
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn empty_body_panics() {
        Residual::new(Vec::new());
    }
}
