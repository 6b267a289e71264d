//! Mini-batch iteration over a [`Dataset`].

use crate::Dataset;
use adafl_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Shuffling mini-batch loader.
///
/// Reshuffles sample order at the start of every epoch using its own seeded
/// RNG, so client training is reproducible while batches still vary between
/// epochs.
///
/// # Examples
///
/// ```
/// use adafl_data::{loader::BatchLoader, Dataset};
///
/// let ds = Dataset::new(vec![0.0; 12], vec![0, 1, 0, 1, 0, 1], 2);
/// let mut loader = BatchLoader::new(4, 7);
/// let (x, labels) = loader.next_batch(&ds);
/// assert_eq!(x.shape().dims(), &[4, 2]);
/// assert_eq!(labels.len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BatchLoader {
    batch_size: usize,
    rng: StdRng,
    order: Vec<usize>,
    cursor: usize,
    epoch: u64,
}

impl BatchLoader {
    /// Creates a loader producing batches of `batch_size`.
    ///
    /// # Panics
    ///
    /// Panics when `batch_size` is zero.
    pub fn new(batch_size: usize, seed: u64) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        BatchLoader {
            batch_size,
            rng: StdRng::seed_from_u64(seed ^ 0x000B_A7C4),
            order: Vec::new(),
            cursor: 0,
            epoch: 0,
        }
    }

    /// Restarts the loader as `BatchLoader::new(self.batch_size(), seed)`
    /// would, over a dataset of `len` samples, but keeps the `order`
    /// buffer's allocation: the order is refilled with `0..len` and
    /// shuffled here, exactly as a fresh loader's first batch would, so the
    /// batches that follow are the same bits.
    ///
    /// # Panics
    ///
    /// Panics when `len` is zero.
    pub fn reseed(&mut self, seed: u64, len: usize) {
        assert!(len > 0, "cannot draw batches from an empty dataset");
        self.rng = StdRng::seed_from_u64(seed ^ 0x000B_A7C4);
        self.order.clear();
        self.order.extend(0..len);
        self.order.shuffle(&mut self.rng);
        self.cursor = 0;
        self.epoch = 0;
    }

    /// Batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Number of completed epochs.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Returns the next mini-batch, reshuffling when an epoch completes.
    ///
    /// The final batch of an epoch may be smaller than `batch_size`. For a
    /// dataset smaller than the batch size, the whole dataset is returned.
    ///
    /// # Panics
    ///
    /// Panics when `dataset` is empty.
    pub fn next_batch(&mut self, dataset: &Dataset) -> (Tensor, Vec<usize>) {
        let mut x = Tensor::default();
        let mut labels = Vec::new();
        self.next_batch_into(dataset, &mut x, &mut labels);
        (x, labels)
    }

    /// Allocation-free [`BatchLoader::next_batch`]: fills caller-provided
    /// buffers (resized in place) instead of returning fresh ones, so the
    /// training hot loop reuses one batch tensor across steps.
    ///
    /// # Panics
    ///
    /// Panics when `dataset` is empty.
    pub fn next_batch_into(&mut self, dataset: &Dataset, x: &mut Tensor, labels: &mut Vec<usize>) {
        assert!(
            !dataset.is_empty(),
            "cannot draw batches from an empty dataset"
        );
        if self.order.len() != dataset.len() {
            self.order = (0..dataset.len()).collect();
            self.order.shuffle(&mut self.rng);
            self.cursor = 0;
        }
        if self.cursor >= self.order.len() {
            self.order.shuffle(&mut self.rng);
            self.cursor = 0;
            self.epoch += 1;
        }
        let end = (self.cursor + self.batch_size).min(self.order.len());
        let indices = &self.order[self.cursor..end];
        dataset.batch_into(indices, x, labels);
        self.cursor = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(n: usize) -> Dataset {
        let features: Vec<f32> = (0..n * 2).map(|i| i as f32).collect();
        let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
        Dataset::new(features, labels, 2)
    }

    #[test]
    fn batches_cover_an_epoch_exactly_once() {
        let ds = dataset(10);
        let mut loader = BatchLoader::new(3, 0);
        let mut seen = Vec::new();
        // 4 batches: 3+3+3+1.
        for _ in 0..4 {
            let (x, _) = loader.next_batch(&ds);
            for row in x.as_slice().chunks(2) {
                seen.push(row[0] as usize / 2);
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert_eq!(loader.epoch(), 0);
        loader.next_batch(&ds);
        assert_eq!(loader.epoch(), 1);
    }

    #[test]
    fn shuffling_changes_between_epochs() {
        let ds = dataset(32);
        let mut loader = BatchLoader::new(32, 1);
        let (first, _) = loader.next_batch(&ds);
        let (second, _) = loader.next_batch(&ds);
        assert_ne!(first.as_slice(), second.as_slice());
    }

    #[test]
    fn reseed_is_a_fresh_loader() {
        let (small, large) = (dataset(7), dataset(10));
        let mut reused = BatchLoader::new(3, 1);
        for _ in 0..5 {
            reused.next_batch(&large);
        }
        // Same length and a different one: neither may leak the old order.
        for (seed, ds) in [(4, &large), (5, &small), (6, &small)] {
            reused.reseed(seed, ds.len());
            let mut fresh = BatchLoader::new(3, seed);
            for _ in 0..9 {
                assert_eq!(reused.next_batch(ds), fresh.next_batch(ds));
            }
            assert_eq!(reused, fresh);
        }
    }

    #[test]
    fn loader_is_deterministic_per_seed() {
        let ds = dataset(16);
        let mut a = BatchLoader::new(4, 9);
        let mut b = BatchLoader::new(4, 9);
        for _ in 0..6 {
            assert_eq!(a.next_batch(&ds).1, b.next_batch(&ds).1);
        }
    }

    #[test]
    fn small_dataset_yields_whole_set() {
        let ds = dataset(2);
        let mut loader = BatchLoader::new(10, 0);
        let (x, labels) = loader.next_batch(&ds);
        assert_eq!(x.shape().dims(), &[2, 2]);
        assert_eq!(labels.len(), 2);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        BatchLoader::new(2, 0).next_batch(&Dataset::empty(3));
    }
}
