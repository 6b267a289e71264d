//! Evaluation metrics.

use adafl_tensor::vecops::argmax;
use adafl_tensor::Tensor;

/// Fraction of rows whose argmax matches the label, in `[0, 1]`.
///
/// Returns `0.0` for an empty batch.
///
/// # Panics
///
/// Panics when `logits` is not `[batch, classes]` with one label per row.
///
/// # Examples
///
/// ```
/// use adafl_nn::metrics::accuracy;
/// use adafl_tensor::Tensor;
///
/// let logits = Tensor::from_vec(vec![0.9, 0.1, 0.2, 0.8], &[2, 2])?;
/// assert_eq!(accuracy(&logits, &[0, 1]), 1.0);
/// assert_eq!(accuracy(&logits, &[1, 1]), 0.5);
/// # Ok::<(), adafl_tensor::TensorError>(())
/// ```
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f32 {
    assert_eq!(logits.rank(), 2, "logits must be [batch, classes]");
    let batch = logits.shape().dims()[0];
    assert_eq!(labels.len(), batch, "one label per batch row required");
    if batch == 0 {
        return 0.0;
    }
    let mut meter = AccuracyMeter::new();
    meter.update(logits, labels);
    meter.value()
}

/// Streaming accuracy accumulator for evaluation over many batches.
///
/// # Examples
///
/// ```
/// use adafl_nn::metrics::AccuracyMeter;
///
/// let mut meter = AccuracyMeter::new();
/// meter.update_counts(8, 10);
/// meter.update_counts(9, 10);
/// assert!((meter.value() - 0.85).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccuracyMeter {
    correct: u64,
    total: u64,
}

impl AccuracyMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        AccuracyMeter::default()
    }

    /// Adds a batch of predictions.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches (see [`accuracy`]).
    pub fn update(&mut self, logits: &Tensor, labels: &[usize]) {
        let dims = logits.shape().dims();
        assert!(
            dims.len() == 2 && dims[1] > 0,
            "logits must be [batch, classes]"
        );
        assert_eq!(dims[0], labels.len(), "one label per batch row required");
        let rows = logits.as_slice().chunks_exact(dims[1]);
        self.correct += rows
            .zip(labels)
            .filter(|&(row, &label)| argmax(row) == label)
            .count() as u64;
        self.total += labels.len() as u64;
    }

    /// Adds raw correct/total counts.
    pub fn update_counts(&mut self, correct: u64, total: u64) {
        self.correct += correct;
        self.total += total;
    }

    /// Current accuracy in `[0, 1]`; `0.0` before any update.
    pub fn value(&self) -> f32 {
        if self.total == 0 {
            0.0
        } else {
            self.correct as f32 / self.total as f32
        }
    }

    /// Number of samples seen.
    pub fn total(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_matches() {
        let logits = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0], &[3, 2]).unwrap();
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn empty_batch_is_zero() {
        let logits = Tensor::zeros(&[0, 3]);
        assert_eq!(accuracy(&logits, &[]), 0.0);
    }

    #[test]
    fn meter_accumulates_across_batches() {
        let mut meter = AccuracyMeter::new();
        assert_eq!(meter.value(), 0.0);
        let l1 = Tensor::from_vec(vec![1.0, 0.0], &[1, 2]).unwrap();
        meter.update(&l1, &[0]);
        meter.update(&l1, &[1]);
        assert_eq!(meter.value(), 0.5);
        assert_eq!(meter.total(), 2);
    }

    #[test]
    #[should_panic(expected = "one label per batch row")]
    fn label_count_must_match() {
        accuracy(&Tensor::zeros(&[2, 2]), &[0]);
    }
}
