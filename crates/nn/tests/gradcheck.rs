//! Numerical gradient checking: backprop gradients must match central finite
//! differences for every layer type, which validates the whole forward/
//! backward machinery end-to-end.
//!
//! Models here are deliberately tiny — the finite-difference loop costs two
//! forward passes per parameter.

use adafl_nn::layers::{Conv2d, Dense, MaxPool2d, Relu, Residual};
use adafl_nn::loss::CrossEntropyLoss;
use adafl_nn::models::ModelSpec;
use adafl_nn::{Layer, Model};
use adafl_tensor::{Conv2dGeometry, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Central-difference gradient of the loss w.r.t. every parameter.
fn numerical_grad(model: &mut Model, x: &Tensor, labels: &[usize], eps: f32) -> Vec<f32> {
    let params = model.params_flat();
    let mut grad = vec![0.0f32; params.len()];
    for i in 0..params.len() {
        let mut plus = params.clone();
        plus[i] += eps;
        model.set_params_flat(&plus);
        let (lp, _) = CrossEntropyLoss.loss_and_grad(&model.forward(x, false), labels);
        let mut minus = params.clone();
        minus[i] -= eps;
        model.set_params_flat(&minus);
        let (lm, _) = CrossEntropyLoss.loss_and_grad(&model.forward(x, false), labels);
        grad[i] = (lp - lm) / (2.0 * eps);
    }
    model.set_params_flat(&params);
    grad
}

fn analytic_grad(model: &mut Model, x: &Tensor, labels: &[usize]) -> Vec<f32> {
    model.zero_grads();
    let logits = model.forward(x, false);
    let (_, dlogits) = CrossEntropyLoss.loss_and_grad(&logits, labels);
    model.backward(&dlogits);
    model.grads_flat()
}

fn check_model(mut model: Model, x: Tensor, labels: &[usize], tolerance: f32) {
    let analytic = analytic_grad(&mut model, &x, labels);
    let numeric = numerical_grad(&mut model, &x, labels, 1e-2);
    let mut worst = 0.0f32;
    let mut worst_idx = 0usize;
    for (i, (a, n)) in analytic.iter().zip(&numeric).enumerate() {
        let denom = a.abs().max(n.abs()).max(1e-2);
        let rel = (a - n).abs() / denom;
        if rel > worst {
            worst = rel;
            worst_idx = i;
        }
    }
    assert!(
        worst < tolerance,
        "gradient mismatch at parameter {worst_idx}: analytic {} vs numeric {} (rel {worst})",
        analytic[worst_idx],
        numeric[worst_idx]
    );
}

fn wavy_input(n: usize, scale: f32) -> Vec<f32> {
    (0..n).map(|i| ((i as f32) * 0.173).sin() * scale).collect()
}

#[test]
fn logistic_regression_gradients_match() {
    let x = Tensor::from_vec(wavy_input(8, 1.0), &[2, 4]).unwrap();
    let model = ModelSpec::LogisticRegression {
        in_features: 4,
        classes: 3,
    }
    .build(99);
    check_model(model, x, &[0, 2], 0.05);
}

#[test]
fn mlp_gradients_match() {
    let x = Tensor::from_vec(wavy_input(12, 1.0), &[2, 6]).unwrap();
    let model = ModelSpec::Mlp {
        in_features: 6,
        hidden: vec![5],
        classes: 3,
    }
    .build(99);
    check_model(model, x, &[1, 2], 0.05);
}

#[test]
fn conv_pool_dense_gradients_match() {
    // Tiny CNN: 6×6 input, 3×3 conv → 2 ch → 2×2 pool → dense head.
    let mut rng = StdRng::seed_from_u64(7);
    let geom = Conv2dGeometry::new(1, 6, 6, 3, 1, 1);
    let model = Model::new(
        vec![
            Box::new(Conv2d::new(&mut rng, geom, 2)),
            Box::new(Relu::new()),
            Box::new(MaxPool2d::new(2, 6, 6, 2)),
            Box::new(Dense::new(&mut rng, 2 * 9, 3)),
        ],
        36,
    );
    let x = Tensor::from_vec(wavy_input(36, 0.5), &[1, 36]).unwrap();
    check_model(model, x, &[1], 0.08);
}

#[test]
fn stacked_conv_gradients_match() {
    // Two conv stages like the paper's CNN, shrunk: 8×8 → conv3 → pool →
    // conv3 → dense. Without padding the second conv has 4 patches, like
    // the paper CNN's conv2, so its 3 samples share one grouped product
    // (seed 10: earlier seeds' ±1e-2 steps cross a ReLU or max-pool kink,
    // where central differences miss for any correct backward pass).
    for (padding, labels, seed) in [(1, &[2][..], 8), (0, &[2, 0, 1][..], 10)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let g1 = Conv2dGeometry::new(1, 8, 8, 3, 1, 1);
        let g2 = Conv2dGeometry::new(2, 4, 4, 3, 1, padding);
        let side = g2.out_h();
        let model = Model::new(
            vec![
                Box::new(Conv2d::new(&mut rng, g1, 2)),
                Box::new(Relu::new()),
                Box::new(MaxPool2d::new(2, 8, 8, 2)),
                Box::new(Conv2d::new(&mut rng, g2, 2)),
                Box::new(Relu::new()),
                Box::new(MaxPool2d::new(2, side, side, 2)),
                Box::new(Dense::new(&mut rng, 2 * (side / 2).pow(2), 3)),
            ],
            64,
        );
        let batch = labels.len();
        let x = Tensor::from_vec(wavy_input(batch * 64, 0.5), &[batch, 64]).unwrap();
        check_model(model, x, labels, 0.08);
    }
}

#[test]
fn residual_block_gradients_match() {
    let mut rng = StdRng::seed_from_u64(9);
    let body_geom = Conv2dGeometry::new(2, 4, 4, 3, 1, 1);
    let body: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(&mut rng, body_geom, 2)),
        Box::new(Relu::new()),
    ];
    let model = Model::new(
        vec![
            Box::new(Residual::new(body)),
            Box::new(Dense::new(&mut rng, 32, 3)),
        ],
        32,
    );
    let x = Tensor::from_vec(wavy_input(32, 0.5), &[1, 32]).unwrap();
    check_model(model, x, &[0], 0.08);
}

#[test]
fn training_reduces_loss_on_tiny_problem() {
    use adafl_nn::optim::Sgd;

    let spec = ModelSpec::Mlp {
        in_features: 2,
        hidden: vec![8],
        classes: 2,
    };
    let mut model = spec.build(5);
    // XOR toy data: only solvable with the hidden layer working correctly.
    let x = Tensor::from_vec(vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0], &[4, 2]).unwrap();
    let labels = [0usize, 1, 1, 0];
    let mut sgd = Sgd::new(0.5, 0.9, 0.0);
    let (first_loss, _) = CrossEntropyLoss.loss_and_grad(&model.forward(&x, false), &labels);
    for _ in 0..200 {
        model.zero_grads();
        let logits = model.forward(&x, true);
        let (_, grad) = CrossEntropyLoss.loss_and_grad(&logits, &labels);
        model.backward(&grad);
        model.apply_gradient_step(&mut sgd);
    }
    let (final_loss, _) = CrossEntropyLoss.loss_and_grad(&model.forward(&x, false), &labels);
    assert!(
        final_loss < first_loss * 0.2,
        "training failed to reduce loss: {first_loss} → {final_loss}"
    );
}
