//! Neural-network substrate for the AdaFL federated-learning reproduction.
//!
//! Provides the model zoo the paper trains — the exact 2×conv-5×5 CNN used
//! on MNIST, plus scaled-down residual ([`models::resnet_lite`]) and
//! VGG-style ([`models::vgg_lite`]) stand-ins for ResNet-50/VGG — together
//! with the training machinery they need:
//!
//! * [`Layer`] — layers with explicit `forward`/`backward` (no autograd tape)
//! * [`Model`] — a sequential container with flat parameter/gradient access,
//!   which is what federated learning exchanges over the network
//! * [`loss`] — cross-entropy and MSE losses
//! * [`optim`] — SGD (momentum + weight decay) and Adam
//! * [`metrics`] — classification accuracy
//!
//! # Examples
//!
//! ```
//! use adafl_nn::{models, loss::CrossEntropyLoss, optim::Sgd};
//! use adafl_tensor::Tensor;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut model = models::mlp(&mut rng, 4, &[8], 3);
//! let x = Tensor::from_vec(vec![0.1; 8], &[2, 4])?;
//! let labels = [0usize, 2];
//!
//! let logits = model.forward(&x, true);
//! let (loss_value, grad) = CrossEntropyLoss.loss_and_grad(&logits, &labels);
//! model.backward(&grad);
//! let mut sgd = Sgd::new(0.1, 0.0, 0.0);
//! model.apply_gradient_step(&mut sgd);
//! assert!(loss_value.is_finite());
//! # Ok::<(), adafl_tensor::TensorError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod layer;
pub mod layers;
pub mod loss;
pub mod metrics;
mod model;
pub mod models;
pub mod optim;
pub mod schedule;
mod subview;
mod workspace;

pub use layer::Layer;
pub use model::Model;
pub use subview::{BlockLayout, ParamSegmentMap, SubView};
pub use workspace::{LayerWorkspace, ModelWorkspace};
