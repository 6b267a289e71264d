//! Seeded class-conditional synthetic image generators.
//!
//! Stand-ins for MNIST / CIFAR-10 / CIFAR-100 (offline substitution, see
//! DESIGN.md): each class owns a smooth template pattern (a mixture of 2-D
//! sinusoids drawn from a class-seeded RNG); a sample is its class template
//! under a random spatial shift plus per-pixel Gaussian noise. The
//! [`SyntheticSpec::difficulty`] knob scales shift range and noise so that
//! the MNIST-like variant converges quickly (as real MNIST does) while the
//! CIFAR-like variants converge slower — which is the property the paper's
//! experiments exercise.

use crate::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Difficulty of a synthetic task, scaling noise and spatial jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Difficulty {
    /// Std-dev of per-pixel Gaussian noise added to each sample.
    pub noise_std: f32,
    /// Maximum absolute random template shift, in pixels, per axis.
    pub max_shift: usize,
    /// Per-sample random contrast range around 1.0 (e.g. 0.2 → `[0.8, 1.2]`).
    pub contrast_jitter: f32,
}

impl Difficulty {
    /// Easy task: converges quickly (MNIST-like dynamics).
    pub fn easy() -> Self {
        Difficulty {
            noise_std: 0.35,
            max_shift: 1,
            contrast_jitter: 0.1,
        }
    }

    /// Hard task: noisy with larger jitter (CIFAR-like dynamics).
    pub fn hard() -> Self {
        Difficulty {
            noise_std: 0.8,
            max_shift: 2,
            contrast_jitter: 0.3,
        }
    }
}

/// Specification of a synthetic class-conditional image dataset.
///
/// # Examples
///
/// ```
/// use adafl_data::synthetic::SyntheticSpec;
///
/// let ds = SyntheticSpec::mnist_like(16, 100).generate(1);
/// assert_eq!(ds.len(), 100);
/// assert_eq!(ds.dim(), 256);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticSpec {
    /// Number of classes.
    pub classes: usize,
    /// Image channels (1 = grayscale, 3 = RGB-like).
    pub channels: usize,
    /// Image height.
    pub height: usize,
    /// Image width.
    pub width: usize,
    /// Total number of samples to generate.
    pub samples: usize,
    /// Task difficulty.
    pub difficulty: Difficulty,
    /// Base seed for the class templates (distinct from the per-generation
    /// sample seed so the same "task" can be sampled repeatedly).
    pub template_seed: u64,
}

impl SyntheticSpec {
    /// MNIST-like task: 10 grayscale classes at `side × side`, easy
    /// difficulty.
    pub fn mnist_like(side: usize, samples: usize) -> Self {
        SyntheticSpec {
            classes: 10,
            channels: 1,
            height: side,
            width: side,
            samples,
            difficulty: Difficulty::easy(),
            template_seed: 0x000A_DAF1,
        }
    }

    /// CIFAR-10-like task: 10 three-channel classes, hard difficulty.
    pub fn cifar10_like(side: usize, samples: usize) -> Self {
        SyntheticSpec {
            classes: 10,
            channels: 3,
            height: side,
            width: side,
            samples,
            difficulty: Difficulty::hard(),
            template_seed: 0x00C1_FA10,
        }
    }

    /// CIFAR-100-like task: 100 three-channel classes, hard difficulty.
    pub fn cifar100_like(side: usize, samples: usize) -> Self {
        SyntheticSpec {
            classes: 100,
            channels: 3,
            height: side,
            width: side,
            samples,
            difficulty: Difficulty::hard(),
            template_seed: 0x00C1_FA100,
        }
    }

    /// Feature row width: `channels · height · width`.
    pub fn dim(&self) -> usize {
        self.channels * self.height * self.width
    }

    /// Generates the dataset with sample randomness drawn from `seed`.
    ///
    /// Labels are balanced round-robin so every class appears
    /// `samples / classes` (±1) times.
    ///
    /// # Panics
    ///
    /// Panics when any structural field is zero.
    pub fn generate(&self, seed: u64) -> Dataset {
        assert!(
            self.classes > 0 && self.channels > 0 && self.height > 0 && self.width > 0,
            "spec dimensions must be positive"
        );
        let templates = self.templates();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_5A17);
        let dim = self.dim();
        let mut features = vec![0.0f32; self.samples * dim];
        let labels: Vec<usize> = (0..self.samples).map(|i| i % self.classes).collect();
        for (row, &label) in features.chunks_exact_mut(dim).zip(&labels) {
            self.render_sample(&templates[label], &mut rng, row);
        }
        Dataset::new(features, labels, dim)
    }

    /// Builds the per-class template images.
    fn templates(&self) -> Vec<Vec<f32>> {
        (0..self.classes)
            .map(|c| {
                let mut rng =
                    StdRng::seed_from_u64(self.template_seed.wrapping_add(c as u64 * 0x9E37));
                let mut t = vec![0.0f32; self.dim()];
                // Mixture of 3 oriented sinusoids per channel; frequencies and
                // phases are class-specific, giving distinct, smooth, linearly
                // non-trivial class manifolds.
                for ch in 0..self.channels {
                    let base = ch * self.height * self.width;
                    for _ in 0..3 {
                        // Low spatial frequencies keep samples correlated
                        // under the ±1-2 pixel jitter applied per sample.
                        let fx: f32 = rng.gen_range(0.15..0.7);
                        let fy: f32 = rng.gen_range(0.15..0.7);
                        let phase: f32 = rng.gen_range(0.0..std::f32::consts::TAU);
                        let amp: f32 = rng.gen_range(0.4..1.0);
                        for y in 0..self.height {
                            for x in 0..self.width {
                                let v = (fx * x as f32 + fy * y as f32 + phase).sin();
                                t[base + y * self.width + x] += amp * v;
                            }
                        }
                    }
                }
                // Normalise template energy so classes are comparable.
                let norm = (t.iter().map(|v| v * v).sum::<f32>() / t.len() as f32)
                    .sqrt()
                    .max(1e-6);
                for v in &mut t {
                    *v /= norm;
                }
                t
            })
            .collect()
    }

    fn render_sample(&self, template: &[f32], rng: &mut StdRng, out: &mut [f32]) {
        let d = &self.difficulty;
        let shift = d.max_shift as isize;
        let dy = if shift > 0 {
            rng.gen_range(-shift..=shift)
        } else {
            0
        };
        let dx = if shift > 0 {
            rng.gen_range(-shift..=shift)
        } else {
            0
        };
        let contrast = 1.0 + rng.gen_range(-d.contrast_jitter..=d.contrast_jitter);
        let (h, w) = (self.height as isize, self.width as isize);
        for ch in 0..self.channels {
            let base = ch * self.height * self.width;
            for y in 0..h {
                for x in 0..w {
                    // Toroidal shift keeps energy constant across samples.
                    let sy = (y + dy).rem_euclid(h) as usize;
                    let sx = (x + dx).rem_euclid(w) as usize;
                    let noise = gaussian(rng) * d.noise_std;
                    out[base + (y as usize) * self.width + x as usize] =
                        contrast * template[base + sy * self.width + sx] + noise;
                }
            }
        }
    }
}

/// One standard-normal sample via Box-Muller.
fn gaussian(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adafl_tensor::vecops::cosine_similarity;

    #[test]
    fn generation_is_deterministic() {
        let spec = SyntheticSpec::mnist_like(8, 50);
        assert_eq!(spec.generate(1), spec.generate(1));
        assert_ne!(spec.generate(1), spec.generate(2));
    }

    #[test]
    fn labels_are_balanced() {
        let ds = SyntheticSpec::mnist_like(8, 100).generate(0);
        let hist = ds.class_histogram();
        assert_eq!(hist.len(), 10);
        assert!(hist.iter().all(|&c| c == 10));
    }

    #[test]
    fn same_class_samples_are_more_similar_than_cross_class() {
        let ds = SyntheticSpec::mnist_like(12, 200).generate(3);
        // Average cosine similarity within class 0 vs class 0 against class 5.
        let class0: Vec<usize> = (0..ds.len())
            .filter(|&i| ds.label(i) == 0)
            .take(8)
            .collect();
        let class5: Vec<usize> = (0..ds.len())
            .filter(|&i| ds.label(i) == 5)
            .take(8)
            .collect();
        let mut within = 0.0f32;
        let mut cross = 0.0f32;
        let mut n = 0;
        for (&a, &b) in class0.iter().zip(class0.iter().skip(1)) {
            within += cosine_similarity(ds.features(a), ds.features(b));
            n += 1;
        }
        within /= n as f32;
        let mut m = 0;
        for (&a, &b) in class0.iter().zip(class5.iter()) {
            cross += cosine_similarity(ds.features(a), ds.features(b));
            m += 1;
        }
        cross /= m as f32;
        assert!(
            within > cross + 0.1,
            "classes not separable: within {within} vs cross {cross}"
        );
    }

    #[test]
    fn cifar_like_is_noisier_than_mnist_like() {
        // Same class index in each task; hard difficulty should give lower
        // within-class similarity.
        let easy = SyntheticSpec::mnist_like(8, 40).generate(1);
        let hard = SyntheticSpec::cifar10_like(8, 40).generate(1);
        // Average over every within-class pair: a single pair is too noisy
        // to compare difficulties reliably.
        let sim = |ds: &Dataset| {
            let idx: Vec<usize> = (0..ds.len()).filter(|&i| ds.label(i) == 0).collect();
            let mut total = 0.0f32;
            let mut pairs = 0;
            for (k, &a) in idx.iter().enumerate() {
                for &b in &idx[k + 1..] {
                    total += cosine_similarity(ds.features(a), ds.features(b));
                    pairs += 1;
                }
            }
            total / pairs as f32
        };
        assert!(sim(&easy) > sim(&hard));
    }

    #[test]
    fn dims_follow_spec() {
        let spec = SyntheticSpec::cifar100_like(8, 10);
        let ds = spec.generate(0);
        assert_eq!(ds.dim(), 3 * 64);
        assert_eq!(spec.dim(), 192);
        // Only 10 samples over 100 classes → labels 0..10.
        assert_eq!(ds.classes(), 10);
    }

    #[test]
    fn templates_differ_between_classes() {
        let spec = SyntheticSpec::mnist_like(8, 20);
        let t = spec.templates();
        let sim = cosine_similarity(&t[0], &t[1]);
        assert!(sim.abs() < 0.9, "templates too similar: {sim}");
    }
}
