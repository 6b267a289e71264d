//! Loss functions.
//!
//! Each loss exposes `loss_and_grad`, returning the mean loss over the batch
//! together with ∂loss/∂logits ready to feed to
//! [`Model::backward`](crate::Model::backward).

use adafl_tensor::Tensor;

/// Softmax cross-entropy loss over integer class labels.
///
/// Fuses softmax with negative log-likelihood so the gradient is the
/// numerically-stable `softmax(logits) − one_hot(label)` form.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrossEntropyLoss;

impl CrossEntropyLoss {
    /// Computes mean cross-entropy and its gradient w.r.t. the logits.
    ///
    /// `logits` is `[batch, classes]`; `labels` holds one class index per
    /// row.
    ///
    /// # Panics
    ///
    /// Panics when `labels.len()` differs from the batch size or a label is
    /// out of range.
    pub fn loss_and_grad(&self, logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
        let mut grad = Tensor::default();
        let loss = self.loss_and_grad_into(logits, labels, &mut grad);
        (loss, grad)
    }

    /// Allocation-free [`CrossEntropyLoss::loss_and_grad`]: writes the
    /// gradient into `grad` (resized in place, reusing its allocation) and
    /// returns the mean loss. Softmax is computed directly into the gradient
    /// buffer, so no probability tensor is materialised.
    ///
    /// # Panics
    ///
    /// Same conditions as [`CrossEntropyLoss::loss_and_grad`].
    pub fn loss_and_grad_into(&self, logits: &Tensor, labels: &[usize], grad: &mut Tensor) -> f32 {
        assert_eq!(logits.rank(), 2, "logits must be [batch, classes]");
        let batch = logits.shape().dims()[0];
        let classes = logits.shape().dims()[1];
        assert_eq!(labels.len(), batch, "one label per batch row required");

        grad.resize_reuse(&[batch, classes]);
        let g = grad.as_mut_slice();
        let mut total = 0.0f32;
        for (i, &label) in labels.iter().enumerate() {
            assert!(
                label < classes,
                "label {label} out of range for {classes} classes"
            );
            let row = &logits.as_slice()[i * classes..(i + 1) * classes];
            let g_row = &mut g[i * classes..(i + 1) * classes];
            // Numerically-stable softmax written straight into the gradient
            // row (same max-shift + divide as Tensor::softmax_rows).
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut z = 0.0f32;
            for (o, &x) in g_row.iter_mut().zip(row) {
                *o = (x - m).exp();
                z += *o;
            }
            for o in g_row.iter_mut() {
                *o /= z;
            }
            let p = g_row[label].max(1e-12);
            total -= p.ln();
            g_row[label] -= 1.0;
        }
        // Mean over the batch; scale the gradient accordingly.
        let scale = 1.0 / batch as f32;
        for v in g.iter_mut() {
            *v *= scale;
        }
        total * scale
    }
}

/// Mean-squared-error loss against a dense target tensor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MseLoss;

impl MseLoss {
    /// Computes mean squared error and its gradient w.r.t. the predictions.
    ///
    /// # Panics
    ///
    /// Panics when shapes differ.
    pub fn loss_and_grad(&self, predictions: &Tensor, targets: &Tensor) -> (f32, Tensor) {
        assert_eq!(
            predictions.shape(),
            targets.shape(),
            "prediction/target shape mismatch"
        );
        let n = predictions.len().max(1) as f32;
        let mut diff = predictions.clone();
        for (d, &t) in diff.as_mut_slice().iter_mut().zip(targets.as_slice()) {
            *d -= t;
        }
        let loss = diff.as_slice().iter().map(|d| d * d).sum::<f32>() / n;
        let grad = diff.scale(2.0 / n);
        (loss, grad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_classes() {
        let logits = Tensor::zeros(&[2, 4]);
        let (loss, grad) = CrossEntropyLoss.loss_and_grad(&logits, &[0, 3]);
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
        // Gradient rows sum to zero (softmax sums to 1, minus the one-hot).
        for row in grad.as_slice().chunks(4) {
            let s: f32 = row.iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn confident_correct_prediction_has_low_loss() {
        let logits = Tensor::from_vec(vec![10.0, -10.0], &[1, 2]).unwrap();
        let (loss, _) = CrossEntropyLoss.loss_and_grad(&logits, &[0]);
        assert!(loss < 1e-3);
        let (wrong, _) = CrossEntropyLoss.loss_and_grad(&logits, &[1]);
        assert!(wrong > 5.0);
    }

    #[test]
    fn gradient_points_from_probs_to_one_hot() {
        let logits = Tensor::from_vec(vec![0.0, 0.0], &[1, 2]).unwrap();
        let (_, grad) = CrossEntropyLoss.loss_and_grad(&logits, &[1]);
        // softmax = [.5,.5]; grad = [.5, -.5]
        assert!((grad.as_slice()[0] - 0.5).abs() < 1e-6);
        assert!((grad.as_slice()[1] + 0.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_label_panics() {
        CrossEntropyLoss.loss_and_grad(&Tensor::zeros(&[1, 2]), &[2]);
    }

    #[test]
    #[should_panic(expected = "one label per batch row")]
    fn label_count_must_match_batch() {
        CrossEntropyLoss.loss_and_grad(&Tensor::zeros(&[2, 2]), &[0]);
    }

    #[test]
    fn mse_matches_hand_computation() {
        let p = Tensor::from_slice(&[1.0, 2.0]);
        let t = Tensor::from_slice(&[0.0, 0.0]);
        let (loss, grad) = MseLoss.loss_and_grad(&p, &t);
        assert!((loss - 2.5).abs() < 1e-6);
        assert_eq!(grad.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn mse_is_zero_at_target() {
        let p = Tensor::from_slice(&[3.0, -1.0]);
        let (loss, grad) = MseLoss.loss_and_grad(&p, &p);
        assert_eq!(loss, 0.0);
        assert!(grad.as_slice().iter().all(|&g| g == 0.0));
    }
}
