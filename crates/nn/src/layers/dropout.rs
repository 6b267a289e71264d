//! Inverted dropout.

use crate::{Layer, LayerWorkspace};
use adafl_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Inverted dropout: during training, zeroes each activation with
/// probability `p` and scales survivors by `1/(1-p)`; identity at inference.
///
/// Owns a seeded RNG so training runs are reproducible.
#[derive(Debug)]
pub struct Dropout {
    p: f32,
    rng: StdRng,
    mask: Vec<f32>,
    shape: Vec<usize>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    ///
    /// # Panics
    ///
    /// Panics when `p` is outside `[0, 1)`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "drop probability must be in [0, 1)"
        );
        Dropout {
            p,
            rng: StdRng::seed_from_u64(seed),
            mask: Vec::new(),
            shape: Vec::new(),
        }
    }
}

impl Layer for Dropout {
    fn forward_into(
        &mut self,
        input: &Tensor,
        out: &mut Tensor,
        train: bool,
        _ws: &mut LayerWorkspace,
    ) {
        self.shape.clear();
        self.shape.extend_from_slice(input.shape().dims());
        if !train || self.p == 0.0 {
            self.mask.clear();
            self.mask.resize(input.len(), 1.0);
            out.copy_from(input);
            return;
        }
        let keep = 1.0 - self.p;
        self.mask.clear();
        for _ in 0..input.len() {
            self.mask.push(if self.rng.gen::<f32>() < keep {
                1.0 / keep
            } else {
                0.0
            });
        }
        out.resize_reuse(&self.shape);
        for ((o, &x), &m) in out
            .as_mut_slice()
            .iter_mut()
            .zip(input.as_slice())
            .zip(&self.mask)
        {
            *o = x * m;
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
            "dropout gradient shape mismatch"
        );
        grad_in.resize_reuse(&self.shape);
        for ((o, &g), &m) in grad_in
            .as_mut_slice()
            .iter_mut()
            .zip(grad_out.as_slice())
            .zip(&self.mask)
        {
            *o = g * m;
        }
    }

    fn name(&self) -> &'static str {
        "dropout"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inference_is_identity() {
        let mut d = Dropout::new(0.5, 1);
        let x = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(d.forward(&x, false).as_slice(), x.as_slice());
    }

    #[test]
    fn zero_probability_is_identity_in_training() {
        let mut d = Dropout::new(0.0, 1);
        let x = Tensor::from_slice(&[1.0, 2.0]);
        assert_eq!(d.forward(&x, true).as_slice(), x.as_slice());
    }

    #[test]
    fn training_preserves_expectation() {
        let mut d = Dropout::new(0.5, 42);
        let x = Tensor::ones(&[10_000]);
        let y = d.forward(&x, true);
        // Inverted dropout keeps E[y] = E[x].
        assert!((y.mean() - 1.0).abs() < 0.05, "mean {}", y.mean());
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 7);
        let x = Tensor::ones(&[64]);
        let y = d.forward(&x, true);
        let dx = d.backward(&Tensor::ones(&[64]));
        // Zeroed activations receive zero gradient; survivors get the scale.
        for (yo, go) in y.as_slice().iter().zip(dx.as_slice()) {
            assert_eq!(yo, go);
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_panics() {
        Dropout::new(1.0, 0);
    }
}
