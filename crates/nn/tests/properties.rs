//! Property-based tests of model and optimizer invariants.

use adafl_nn::loss::{CrossEntropyLoss, MseLoss};
use adafl_nn::models::ModelSpec;
use adafl_nn::optim::{Adam, Optimizer, Sgd};
use adafl_tensor::Tensor;
use proptest::prelude::*;

fn vec_f32(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-5.0f32..5.0, len)
}

proptest! {
    #[test]
    fn params_flat_round_trips_through_any_vector(values in vec_f32(3 * 4 + 4)) {
        let spec = ModelSpec::LogisticRegression { in_features: 3, classes: 4 };
        let mut model = spec.build(0);
        model.set_params_flat(&values);
        prop_assert_eq!(model.params_flat(), values);
    }

    #[test]
    fn forward_is_pure_wrt_parameters(data in vec_f32(6), seed in 0u64..100) {
        let spec = ModelSpec::Mlp { in_features: 3, hidden: vec![4], classes: 2 };
        let mut model = spec.build(seed);
        let x = Tensor::from_vec(data, &[2, 3]).unwrap();
        let before = model.params_flat();
        let y1 = model.forward(&x, false);
        let y2 = model.forward(&x, false);
        prop_assert_eq!(y1, y2);
        prop_assert_eq!(model.params_flat(), before);
    }

    #[test]
    fn cross_entropy_is_non_negative(logits in vec_f32(8), label in 0usize..4) {
        let t = Tensor::from_vec(logits, &[2, 4]).unwrap();
        let (loss, grad) = CrossEntropyLoss.loss_and_grad(&t, &[label, 3 - label.min(3)]);
        prop_assert!(loss >= 0.0);
        prop_assert!(grad.as_slice().iter().all(|g| g.is_finite()));
    }

    #[test]
    fn cross_entropy_gradient_rows_sum_to_zero(logits in vec_f32(12)) {
        let t = Tensor::from_vec(logits, &[3, 4]).unwrap();
        let (_, grad) = CrossEntropyLoss.loss_and_grad(&t, &[0, 1, 2]);
        for row in grad.as_slice().chunks(4) {
            let s: f32 = row.iter().sum();
            prop_assert!(s.abs() < 1e-5, "row sum {s}");
        }
    }

    #[test]
    fn mse_is_zero_iff_equal(a in vec_f32(6)) {
        let t = Tensor::from_slice(&a);
        let (loss, _) = MseLoss.loss_and_grad(&t, &t);
        prop_assert_eq!(loss, 0.0);
        let shifted = t.map(|x| x + 1.0);
        let (loss2, _) = MseLoss.loss_and_grad(&t, &shifted);
        prop_assert!(loss2 > 0.5);
    }

    #[test]
    fn sgd_zero_gradient_is_identity_without_decay(params in vec_f32(8), lr in 0.001f32..1.0) {
        let mut sgd = Sgd::new(lr, 0.9, 0.0);
        let mut p = params.clone();
        sgd.step(&mut p, &[0.0; 8]);
        prop_assert_eq!(p, params);
    }

    #[test]
    fn sgd_step_is_linear_in_learning_rate(params in vec_f32(4), grads in vec_f32(4)) {
        let step = |lr: f32| {
            let mut sgd = Sgd::new(lr, 0.0, 0.0);
            let mut p = params.clone();
            sgd.step(&mut p, &grads);
            p
        };
        let small = step(0.1);
        let big = step(0.2);
        for ((s, b), orig) in small.iter().zip(&big).zip(&params) {
            let ds = s - orig;
            let db = b - orig;
            prop_assert!((db - 2.0 * ds).abs() < 1e-4);
        }
    }

    #[test]
    fn adam_moves_opposite_to_gradient_sign(grads in vec_f32(6)) {
        prop_assume!(grads.iter().all(|g| g.abs() > 0.01));
        let mut adam = Adam::new(0.1);
        let mut p = vec![0.0f32; 6];
        adam.step(&mut p, &grads);
        for (x, g) in p.iter().zip(&grads) {
            prop_assert!(x * g <= 0.0, "adam moved with the gradient: {x} vs {g}");
        }
    }

    #[test]
    fn model_spec_builds_are_seed_deterministic(seed in 0u64..1000) {
        let spec = ModelSpec::Mlp { in_features: 4, hidden: vec![3], classes: 2 };
        prop_assert_eq!(spec.build(seed).params_flat(), spec.build(seed).params_flat());
    }
}

/// `backward_into(.., None)` — the first layer's pass in training — skips
/// only the input gradient: every layer's parameter gradients are
/// bit-identical to the `Some` pass's.
#[test]
fn backward_without_input_gradient_keeps_every_parameter_gradient() {
    use adafl_nn::layers::{
        AvgPool2d, Conv2d, Dense, Dropout, MaxPool2d, Relu, Residual, Sigmoid, Tanh,
    };
    use adafl_nn::{Layer, LayerWorkspace};
    use adafl_tensor::Conv2dGeometry;
    use rand::{rngs::StdRng, SeedableRng};

    // Rows of a 2-channel 4×4 image; every layer below reads that width.
    const BATCH: usize = 3;
    const WIDTH: usize = 2 * 4 * 4;
    type Build = fn() -> Box<dyn Layer>;
    let layers: [(&str, Build); 9] = [
        ("conv2d", || {
            Box::new(Conv2d::new(
                &mut StdRng::seed_from_u64(1),
                Conv2dGeometry::new(2, 4, 4, 3, 1, 0),
                3,
            ))
        }),
        ("dense", || {
            Box::new(Dense::new(&mut StdRng::seed_from_u64(2), WIDTH, 5))
        }),
        ("relu", || Box::new(Relu::new())),
        ("maxpool2d", || Box::new(MaxPool2d::new(2, 4, 4, 2))),
        ("avgpool2d", || Box::new(AvgPool2d::new(2, 4, 4, 2))),
        ("dropout", || Box::new(Dropout::new(0.5, 3))),
        ("tanh", || Box::new(Tanh::new())),
        ("sigmoid", || Box::new(Sigmoid::new())),
        ("residual", || {
            let mut rng = StdRng::seed_from_u64(4);
            let geom = Conv2dGeometry::new(2, 4, 4, 3, 1, 1);
            Box::new(Residual::new(vec![
                Box::new(Conv2d::new(&mut rng, geom, 2)),
                Box::new(Relu::new()),
            ]))
        }),
    ];
    let wavy = |n: usize| -> Vec<f32> { (0..n).map(|i| (i as f32 * 0.37).sin()).collect() };
    let x = Tensor::from_vec(wavy(BATCH * WIDTH), &[BATCH, WIDTH]).unwrap();
    let grads_of = |layer: &mut dyn Layer, with_input_grad: bool| -> Vec<Vec<u32>> {
        let y = layer.forward(&x, true);
        let dy = Tensor::from_vec(wavy(y.len()), y.shape().dims()).unwrap();
        let mut dx = Tensor::default();
        let dx = with_input_grad.then_some(&mut dx);
        layer.backward_into(&dy, dx, &mut LayerWorkspace::default());
        let mut grads = Vec::new();
        layer.visit_grads(&mut |g| grads.push(g.iter().map(|v| v.to_bits()).collect()));
        grads
    };
    for (name, build) in layers {
        let with = grads_of(build().as_mut(), true);
        let without = grads_of(build().as_mut(), false);
        assert_eq!(with, without, "{name}: parameter gradients differ");
        let mut params = 0;
        build().visit_params(&mut |p| params += p.len());
        assert_eq!(
            with.iter().map(Vec::len).sum::<usize>(),
            params,
            "{name}: one gradient per parameter"
        );
    }
}

/// A model whose first layer has no parameters (so its backward pass does
/// nothing when training asks for no input gradient) still trains.
#[test]
fn a_model_with_a_parameter_free_first_layer_still_trains() {
    use adafl_nn::layers::{Dense, Relu};
    use adafl_nn::optim::Sgd;
    use adafl_nn::{Model, ModelWorkspace};
    use rand::{rngs::StdRng, SeedableRng};

    let mut model = Model::new(
        vec![
            Box::new(Relu::new()),
            Box::new(Dense::new(&mut StdRng::seed_from_u64(5), 2, 2)),
        ],
        2,
    );
    let x = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
    let labels = [1usize, 0];
    let (mut logits, mut dlogits) = (Tensor::default(), Tensor::default());
    let mut ws = ModelWorkspace::new();
    let mut sgd = Sgd::new(0.5, 0.0, 0.0);
    let mut losses = Vec::new();
    for _ in 0..50 {
        model.forward_into(&x, &mut logits, true, &mut ws);
        losses.push(CrossEntropyLoss.loss_and_grad_into(&logits, &labels, &mut dlogits));
        model.backward_into(&dlogits, None, &mut ws);
        model.apply_gradient_step_ws(&mut sgd, &mut ws);
    }
    assert!(
        losses[49] < losses[0] * 0.2,
        "loss did not fall: {} → {}",
        losses[0],
        losses[49]
    );
}

/// The property sharded evaluation stands on: an inference forward pass is
/// row-independent down to the bit, so the logits of a contiguous sub-batch
/// are the same rows of the full-batch forward — wherever the cut falls
/// relative to the matmul row tiles (1, 3, 4), the evaluation block (31,
/// 32, 63, 64) or the end of the batch (255 | 1). Run with and without `simd` by
/// the `feature-matrix` CI job.
#[test]
fn inference_forward_of_a_sub_batch_equals_those_rows_of_the_full_batch() {
    use adafl_nn::ModelWorkspace;

    const ROWS: usize = 256;
    let specs = [
        ModelSpec::LogisticRegression {
            in_features: 256,
            classes: 10,
        },
        ModelSpec::Mlp {
            in_features: 256,
            hidden: vec![32],
            classes: 10,
        },
        ModelSpec::MnistCnn {
            height: 16,
            width: 16,
            classes: 10,
        },
    ];
    for spec in specs {
        let mut model = spec.build(11);
        let dim = spec.in_features();
        let classes = spec.classes();
        let input: Vec<f32> = (0..ROWS * dim)
            .map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.02)
            .collect();
        let mut ws = ModelWorkspace::new();
        let mut out = Tensor::default();
        let mut bits_of = |rows: std::ops::Range<usize>| -> Vec<u32> {
            let x = Tensor::from_vec(
                input[rows.start * dim..rows.end * dim].to_vec(),
                &[rows.len(), dim],
            )
            .unwrap();
            model.forward_into(&x, &mut out, false, &mut ws);
            out.as_slice().iter().map(|v| v.to_bits()).collect()
        };
        let full = bits_of(0..ROWS);
        assert_eq!(full.len(), ROWS * classes);
        let mut cuts: Vec<std::ops::Range<usize>> = [1, 3, 4, 31, 32, 63, 64, 255]
            .into_iter()
            .flat_map(|cut| [0..cut, cut..ROWS])
            .collect();
        // An interior range that starts and ends off every tile boundary.
        cuts.push(65..130);
        for rows in cuts {
            assert_eq!(
                bits_of(rows.clone()),
                full[rows.start * classes..rows.end * classes],
                "{spec:?}: rows {rows:?} differ from the full-batch forward"
            );
        }
    }
}
