//! Dataset corruptions for robustness experiments.
//!
//! Real embedded deployments contend with more than network faults: client
//! data itself can be mislabelled or unevenly sized. These helpers inject
//! those conditions deterministically so robustness sweeps are
//! reproducible.

use crate::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Returns a copy of `dataset` where each label is replaced by a uniformly
/// random *different* class with probability `noise_rate`.
///
/// The class count is taken from the dataset (`max label + 1`); datasets
/// with a single class are returned unchanged (there is no different label
/// to flip to).
///
/// # Panics
///
/// Panics when `noise_rate` is outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// use adafl_data::{corruption::with_label_noise, Dataset};
///
/// let ds = Dataset::new(vec![0.0; 8], vec![0, 1, 0, 1], 2);
/// let noisy = with_label_noise(&ds, 1.0, 7);
/// // Every label flipped to the other class.
/// assert_eq!(noisy.labels(), &[1, 0, 1, 0]);
/// ```
pub fn with_label_noise(dataset: &Dataset, noise_rate: f64, seed: u64) -> Dataset {
    assert!(
        (0.0..=1.0).contains(&noise_rate),
        "noise rate must be in [0, 1]"
    );
    let classes = dataset.classes();
    if classes < 2 {
        return dataset.clone();
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0001_ABE1);
    let labels = dataset
        .labels()
        .iter()
        .map(|&label| {
            if rng.gen::<f64>() < noise_rate {
                // Uniform over the other classes.
                let offset = rng.gen_range(1..classes);
                (label + offset) % classes
            } else {
                label
            }
        })
        .collect();
    dataset.relabelled(labels)
}

/// Splits `dataset` into shards whose sizes follow a power-law: shard `i`
/// receives a fraction proportional to `(i + 1)^(−skew)` — quantity skew,
/// the other heterogeneity axis next to label skew.
///
/// Every shard receives at least one sample as long as
/// `dataset.len() ≥ clients`.
///
/// # Panics
///
/// Panics when `clients` is zero, `skew` is negative, or the dataset has
/// fewer samples than clients.
pub fn quantity_skew_split(
    dataset: &Dataset,
    clients: usize,
    skew: f64,
    seed: u64,
) -> Vec<Dataset> {
    assert!(clients > 0, "client count must be positive");
    assert!(skew >= 0.0, "skew must be non-negative");
    assert!(
        dataset.len() >= clients,
        "need at least one sample per client"
    );
    use rand::seq::SliceRandom;
    let mut order: Vec<usize> = (0..dataset.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x0005_CE77));

    let weights: Vec<f64> = (0..clients).map(|i| ((i + 1) as f64).powf(-skew)).collect();
    let total: f64 = weights.iter().sum();
    // Give everyone 1 sample, distribute the rest by weight.
    let spare = dataset.len() - clients;
    let mut counts: Vec<usize> = weights
        .iter()
        .map(|w| 1 + (w / total * spare as f64) as usize)
        .collect();
    // Fix rounding drift onto the largest shard.
    let assigned: usize = counts.iter().sum();
    counts[0] += dataset.len() - assigned;

    let mut shards = Vec::with_capacity(clients);
    let mut cursor = 0usize;
    for count in counts {
        let ids = &order[cursor..cursor + count];
        shards.push(dataset.subset(ids));
        cursor += count;
    }
    shards
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticSpec;

    fn data() -> Dataset {
        SyntheticSpec::mnist_like(8, 300).generate(0)
    }

    #[test]
    fn zero_noise_is_identity() {
        let ds = data();
        assert_eq!(with_label_noise(&ds, 0.0, 1), ds);
    }

    #[test]
    fn full_noise_changes_every_label() {
        let ds = data();
        let noisy = with_label_noise(&ds, 1.0, 1);
        for i in 0..ds.len() {
            assert_ne!(noisy.label(i), ds.label(i), "sample {i} kept its label");
            assert!(noisy.label(i) < ds.classes());
        }
        // Features untouched.
        assert_eq!(noisy.features(0), ds.features(0));
    }

    #[test]
    fn partial_noise_rate_is_respected() {
        let ds = data();
        let noisy = with_label_noise(&ds, 0.3, 2);
        let flipped = (0..ds.len())
            .filter(|&i| noisy.label(i) != ds.label(i))
            .count();
        let rate = flipped as f64 / ds.len() as f64;
        assert!((rate - 0.3).abs() < 0.08, "observed flip rate {rate}");
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let ds = data();
        assert_eq!(with_label_noise(&ds, 0.5, 9), with_label_noise(&ds, 0.5, 9));
        assert_ne!(
            with_label_noise(&ds, 0.5, 9),
            with_label_noise(&ds, 0.5, 10)
        );
    }

    #[test]
    fn single_class_dataset_is_unchanged() {
        let ds = Dataset::new(vec![0.0; 4], vec![0, 0], 2);
        assert_eq!(with_label_noise(&ds, 1.0, 0), ds);
    }

    #[test]
    fn quantity_skew_preserves_every_sample() {
        let ds = data();
        let shards = quantity_skew_split(&ds, 6, 1.5, 3);
        assert_eq!(shards.len(), 6);
        assert_eq!(shards.iter().map(Dataset::len).sum::<usize>(), ds.len());
        assert!(shards.iter().all(|s| !s.is_empty()));
    }

    #[test]
    fn higher_skew_concentrates_samples() {
        let ds = data();
        let flat = quantity_skew_split(&ds, 5, 0.0, 1);
        let steep = quantity_skew_split(&ds, 5, 2.0, 1);
        let spread = |shards: &[Dataset]| {
            let max = shards.iter().map(Dataset::len).max().unwrap() as f64;
            let min = shards.iter().map(Dataset::len).min().unwrap() as f64;
            max / min
        };
        assert!(spread(&steep) > spread(&flat) * 2.0);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn too_few_samples_panic() {
        quantity_skew_split(&Dataset::new(vec![0.0; 2], vec![0], 2), 2, 1.0, 0);
    }
}
