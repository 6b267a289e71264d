use adafl_tensor::Tensor;
use std::sync::Arc;

/// An in-memory labelled dataset: `n` feature rows of width `dim` plus one
/// class label per row.
///
/// Features are stored flat and row-major so a batch can be materialised as
/// a `[batch, dim]` [`Tensor`] with a single copy. Features and labels are
/// shared, not owned: [`Clone`] is two reference-count increments, so a
/// shard handed to a device is the partition's own storage, and
/// [`Dataset::push`] copies a shared store before it writes
/// (copy-on-write). Serialized, a dataset is its `features`, `labels` and
/// `dim`, as if owned.
///
/// # Examples
///
/// ```
/// use adafl_data::Dataset;
///
/// let ds = Dataset::new(vec![0.0, 1.0, 2.0, 3.0], vec![0, 1], 2);
/// assert_eq!(ds.len(), 2);
/// assert_eq!(ds.features(1), &[2.0, 3.0]);
/// ```
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, PartialEq, Default)]
pub struct Dataset {
    features: Arc<Vec<f32>>,
    labels: Arc<Vec<usize>>,
    dim: usize,
}

impl Dataset {
    /// Creates a dataset from flat features, labels and the row width.
    ///
    /// # Panics
    ///
    /// Panics when `dim` is zero or `features.len() != labels.len() * dim`.
    pub fn new(features: Vec<f32>, labels: Vec<usize>, dim: usize) -> Self {
        assert!(dim > 0, "feature dimension must be positive");
        assert_eq!(
            features.len(),
            labels.len() * dim,
            "features length must equal labels × dim"
        );
        Dataset {
            features: Arc::new(features),
            labels: Arc::new(labels),
            dim,
        }
    }

    /// Creates an empty dataset with row width `dim`.
    ///
    /// # Panics
    ///
    /// Panics when `dim` is zero.
    pub fn empty(dim: usize) -> Self {
        Dataset::new(Vec::new(), Vec::new(), dim)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature row width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Feature row `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    pub fn features(&self, i: usize) -> &[f32] {
        &self.features[i * self.dim..(i + 1) * self.dim]
    }

    /// Label of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// Number of distinct classes, computed as `max(label) + 1`; zero for an
    /// empty dataset.
    pub fn classes(&self) -> usize {
        self.labels.iter().max().map_or(0, |m| m + 1)
    }

    /// Appends one sample, first copying the storage if a clone shares it.
    ///
    /// # Panics
    ///
    /// Panics when `row.len() != dim`.
    pub fn push(&mut self, row: &[f32], label: usize) {
        assert_eq!(row.len(), self.dim, "row width mismatch");
        Arc::make_mut(&mut self.features).extend_from_slice(row);
        Arc::make_mut(&mut self.labels).push(label);
    }

    /// Builds a new dataset from the given sample indices (copying rows).
    ///
    /// # Panics
    ///
    /// Panics when any index is out of bounds.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let mut features = Vec::with_capacity(indices.len() * self.dim);
        for &i in indices {
            features.extend_from_slice(self.features(i));
        }
        let labels = indices.iter().map(|&i| self.labels[i]).collect();
        Dataset::new(features, labels, self.dim)
    }

    /// The same feature rows under new labels, sharing the features.
    ///
    /// # Panics
    ///
    /// Panics when `labels.len()` differs from the sample count.
    pub(crate) fn relabelled(&self, labels: Vec<usize>) -> Dataset {
        assert_eq!(labels.len(), self.len(), "one label per sample");
        Dataset {
            features: Arc::clone(&self.features),
            labels: Arc::new(labels),
            dim: self.dim,
        }
    }

    /// Materialises the samples at `indices` as a `[batch, dim]` tensor plus
    /// labels.
    ///
    /// # Panics
    ///
    /// Panics when any index is out of bounds.
    pub fn batch(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let mut x = Tensor::default();
        let mut labels = Vec::with_capacity(indices.len());
        self.batch_into(indices, &mut x, &mut labels);
        (x, labels)
    }

    /// Allocation-free [`Dataset::batch`]: writes the `[batch, dim]` tensor
    /// and labels into caller-provided buffers, resized in place so their
    /// allocations are reused across calls.
    ///
    /// # Panics
    ///
    /// Panics when any index is out of bounds.
    pub fn batch_into(&self, indices: &[usize], x: &mut Tensor, labels: &mut Vec<usize>) {
        x.resize_reuse(&[indices.len(), self.dim]);
        labels.clear();
        let flat = x.as_mut_slice();
        for (ri, &i) in indices.iter().enumerate() {
            flat[ri * self.dim..(ri + 1) * self.dim].copy_from_slice(self.features(i));
            labels.push(self.labels[i]);
        }
    }

    /// Materialises the whole dataset as one `[len, dim]` tensor plus labels.
    pub fn full_batch(&self) -> (Tensor, Vec<usize>) {
        let indices: Vec<usize> = (0..self.len()).collect();
        self.batch(&indices)
    }

    /// Splits into `(first, second)` where `first` holds `n_first` samples.
    ///
    /// # Panics
    ///
    /// Panics when `n_first > len`.
    pub fn split_at(&self, n_first: usize) -> (Dataset, Dataset) {
        assert!(n_first <= self.len(), "split beyond dataset size");
        let (features, labels) = (
            self.features.split_at(n_first * self.dim),
            self.labels.split_at(n_first),
        );
        (
            Dataset::new(features.0.to_vec(), labels.0.to_vec(), self.dim),
            Dataset::new(features.1.to_vec(), labels.1.to_vec(), self.dim),
        )
    }

    /// Per-class sample counts, indexed by label.
    pub fn class_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.classes()];
        for &l in self.labels.iter() {
            hist[l] += 1;
        }
        hist
    }
}

impl Extend<(Vec<f32>, usize)> for Dataset {
    fn extend<T: IntoIterator<Item = (Vec<f32>, usize)>>(&mut self, iter: T) {
        for (row, label) in iter {
            self.push(&row, label);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        Dataset::new(vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0], vec![0, 1, 0], 2)
    }

    #[test]
    fn construction_validates_lengths() {
        let ds = tiny();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.dim(), 2);
        assert_eq!(ds.classes(), 2);
    }

    #[test]
    #[should_panic(expected = "labels × dim")]
    fn mismatched_features_panic() {
        Dataset::new(vec![0.0; 5], vec![0, 1], 2);
    }

    #[test]
    fn subset_clones_selected_rows() {
        let ds = tiny();
        let sub = ds.subset(&[2, 0]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.features(0), &[4.0, 5.0]);
        assert_eq!(sub.label(1), 0);
    }

    #[test]
    fn batch_materialises_tensor() {
        let ds = tiny();
        let (t, labels) = ds.batch(&[1, 2]);
        assert_eq!(t.shape().dims(), &[2, 2]);
        assert_eq!(t.as_slice(), &[2.0, 3.0, 4.0, 5.0]);
        assert_eq!(labels, vec![1, 0]);
    }

    #[test]
    fn split_at_partitions() {
        let (a, b) = tiny().split_at(1);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 2);
        assert_eq!(b.features(0), &[2.0, 3.0]);
    }

    #[test]
    fn histogram_counts_labels() {
        assert_eq!(tiny().class_histogram(), vec![2, 1]);
        assert!(Dataset::empty(4).class_histogram().is_empty());
    }

    #[test]
    fn push_and_extend() {
        let mut ds = Dataset::empty(2);
        ds.push(&[1.0, 2.0], 3);
        ds.extend(vec![(vec![4.0, 5.0], 1)]);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.classes(), 4);
    }

    #[test]
    fn a_clone_shares_storage() {
        let ds = tiny();
        let copy = ds.clone();
        assert_eq!(copy, ds);
        assert_eq!(copy.features(1).as_ptr(), ds.features(1).as_ptr());
        assert_eq!(copy.labels().as_ptr(), ds.labels().as_ptr());
    }

    #[test]
    fn writing_to_a_shared_clone_leaves_the_original_untouched() {
        let ds = tiny();
        let mut pushed = ds.clone();
        pushed.push(&[6.0, 7.0], 1);
        let mut extended = ds.clone();
        extended.extend(vec![(vec![8.0, 9.0], 0)]);
        assert_eq!(ds, tiny());
        assert_eq!((pushed.len(), pushed.features(3)), (4, &[6.0, 7.0][..]));
        assert_eq!((extended.len(), extended.label(3)), (4, 0));
        assert_ne!(pushed.features(0).as_ptr(), ds.features(0).as_ptr());
    }

    #[test]
    fn serializes_as_owned_vectors() {
        let json = serde_json::to_string(&tiny()).unwrap();
        assert_eq!(
            json,
            r#"{"features":[0.0,1.0,2.0,3.0,4.0,5.0],"labels":[0,1,0],"dim":2}"#
        );
        let back: Dataset = serde_json::from_str(&json).unwrap();
        assert_eq!(back, tiny());
    }

    #[test]
    fn full_batch_covers_everything() {
        let ds = tiny();
        let (t, labels) = ds.full_batch();
        assert_eq!(t.shape().dims(), &[3, 2]);
        assert_eq!(labels.len(), 3);
    }
}
