//! Task definitions: dataset + model pairings mirroring the paper's
//! experimental setups.

use adafl_data::partition::Partitioner;
use adafl_data::synthetic::{Difficulty, SyntheticSpec};
use adafl_data::Dataset;
use adafl_nn::models::ModelSpec;

/// Difficulty calibrated by sweeping noise and shift so the paper's CNN
/// tops out near the paper's MNIST accuracy band instead of saturating.
fn bench_difficulty() -> Difficulty {
    Difficulty {
        noise_std: 1.2,
        max_shift: 2,
        contrast_jitter: 0.2,
    }
}

/// A complete learning task: train/test data plus the model to train.
#[derive(Debug, Clone)]
pub struct Task {
    /// Human-readable task name (used in CSV labels).
    pub name: &'static str,
    /// Training pool (partitioned across clients by the runner).
    pub train: Dataset,
    /// Held-out test set for global-model evaluation.
    pub test: Dataset,
    /// Model recipe.
    pub model: ModelSpec,
}

impl Task {
    /// The task an experiment file names: `mnist-cnn`, `mnist-logreg`,
    /// `cifar10-resnet` or `cifar100-vgg`.
    ///
    /// # Errors
    ///
    /// Names the unknown task.
    pub fn named(name: &str, train: usize, test: usize, seed: u64) -> Result<Task, String> {
        match name {
            "mnist-cnn" => Ok(Task::mnist_cnn(train, test, seed)),
            "mnist-logreg" => Ok(Task::mnist_logreg(train, test, seed)),
            "cifar10-resnet" => Ok(Task::cifar10_resnet(train, test, seed)),
            "cifar100-vgg" => Ok(Task::cifar100_vgg(train, test, seed)),
            other => Err(format!(
                "unknown task {other:?} (expected mnist-cnn, mnist-logreg, cifar10-resnet or cifar100-vgg)"
            )),
        }
    }

    /// MNIST-like task with the paper's exact CNN architecture (scaled to
    /// 16×16 inputs; see DESIGN.md): the workload of Figure 3 and the MNIST
    /// columns of Tables I/II.
    pub fn mnist_cnn(train_samples: usize, test_samples: usize, seed: u64) -> Task {
        let mut spec = SyntheticSpec::mnist_like(16, train_samples + test_samples);
        spec.difficulty = bench_difficulty();
        let data = spec.generate(seed);
        let (train, test) = data.split_at(train_samples);
        Task {
            name: "mnist-cnn",
            train,
            test,
            model: ModelSpec::MnistCnn {
                height: 16,
                width: 16,
                classes: 10,
            },
        }
    }

    /// MNIST-like task with a light softmax-regression model for fast
    /// sweeps (Figure 1's many-configuration grid).
    pub fn mnist_logreg(train_samples: usize, test_samples: usize, seed: u64) -> Task {
        let mut spec = SyntheticSpec::mnist_like(12, train_samples + test_samples);
        spec.difficulty = Difficulty {
            max_shift: 1,
            ..bench_difficulty()
        };
        let data = spec.generate(seed);
        let (train, test) = data.split_at(train_samples);
        Task {
            name: "mnist-logreg",
            train,
            test,
            model: ModelSpec::LogisticRegression {
                in_features: 144,
                classes: 10,
            },
        }
    }

    /// CIFAR-10-like task with the residual stand-in for ResNet-50 (the
    /// deeper model of Figure 1(e–h)).
    pub fn cifar10_resnet(train_samples: usize, test_samples: usize, seed: u64) -> Task {
        let mut spec = SyntheticSpec::cifar10_like(16, train_samples + test_samples);
        spec.difficulty = Difficulty {
            noise_std: 1.4,
            contrast_jitter: 0.3,
            ..bench_difficulty()
        };
        let data = spec.generate(seed);
        let (train, test) = data.split_at(train_samples);
        Task {
            name: "cifar10-resnet",
            train,
            test,
            model: ModelSpec::ResNetLite {
                channels: 3,
                height: 16,
                width: 16,
                base_channels: 8,
                blocks: 2,
                classes: 10,
            },
        }
    }

    /// CIFAR-100-like task with the VGG stand-in (the harder workload of
    /// Tables I/II).
    pub fn cifar100_vgg(train_samples: usize, test_samples: usize, seed: u64) -> Task {
        let mut spec = SyntheticSpec::cifar100_like(16, train_samples + test_samples);
        spec.difficulty = Difficulty {
            noise_std: 1.4,
            contrast_jitter: 0.3,
            ..bench_difficulty()
        };
        let data = spec.generate(seed);
        let (train, test) = data.split_at(train_samples);
        Task {
            name: "cifar100-vgg",
            train,
            test,
            model: ModelSpec::VggLite {
                channels: 3,
                height: 16,
                width: 16,
                base_channels: 8,
                classes: 100,
            },
        }
    }

    /// The paper's two data-distribution settings.
    pub fn partitioners() -> [(&'static str, Partitioner); 2] {
        [
            ("iid", Partitioner::Iid),
            (
                "noniid",
                Partitioner::LabelShards {
                    shards_per_client: 2,
                },
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tasks_have_consistent_dims() {
        let t = Task::mnist_cnn(100, 20, 0);
        assert_eq!(t.train.len(), 100);
        assert_eq!(t.test.len(), 20);
        assert_eq!(t.train.dim(), t.model.in_features());
        let c = Task::cifar100_vgg(50, 10, 0);
        assert_eq!(c.train.dim(), 3 * 256);
        assert_eq!(c.model.classes(), 100);
    }

    #[test]
    fn resnet_task_builds_model() {
        let t = Task::cifar10_resnet(10, 5, 1);
        let m = t.model.build(0);
        assert_eq!(m.in_features(), t.train.dim());
    }

    #[test]
    fn partitioners_cover_both_settings() {
        let p = Task::partitioners();
        assert_eq!(p[0].0, "iid");
        assert_eq!(p[1].0, "noniid");
    }
}
