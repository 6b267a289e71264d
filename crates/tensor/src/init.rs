//! Seeded weight-initialisation schemes.
//!
//! Every initialiser takes an explicit RNG so model construction is fully
//! deterministic — a requirement for reproducible federated-learning
//! experiments where all clients must start from the same global model.

use crate::Tensor;
use rand::distributions::{Distribution, Uniform};
use rand::Rng;

/// Samples a tensor uniformly from `[-limit, limit]`.
///
/// # Panics
///
/// Panics when `limit` is negative or not finite.
pub fn uniform_init<R: Rng + ?Sized>(rng: &mut R, dims: &[usize], limit: f32) -> Tensor {
    assert!(
        limit.is_finite() && limit >= 0.0,
        "limit must be a non-negative finite value"
    );
    if limit == 0.0 {
        return Tensor::zeros(dims);
    }
    let dist = Uniform::new_inclusive(-limit, limit);
    let volume: usize = dims.iter().product();
    let data: Vec<f32> = (0..volume).map(|_| dist.sample(rng)).collect();
    Tensor::from_vec_exact(data, dims)
}

/// Xavier/Glorot uniform initialisation: `limit = sqrt(6 / (fan_in + fan_out))`.
///
/// Suitable for layers followed by symmetric activations (tanh, identity).
///
/// # Panics
///
/// Panics when `fan_in + fan_out` is zero.
pub fn xavier_uniform<R: Rng + ?Sized>(
    rng: &mut R,
    dims: &[usize],
    fan_in: usize,
    fan_out: usize,
) -> Tensor {
    assert!(fan_in + fan_out > 0, "fan_in + fan_out must be positive");
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform_init(rng, dims, limit)
}

/// He (Kaiming) normal initialisation: `σ = sqrt(2 / fan_in)`.
///
/// Suitable for layers followed by ReLU, as in the paper's CNN/ResNet/VGG
/// models.
///
/// # Panics
///
/// Panics when `fan_in` is zero.
pub fn he_normal<R: Rng + ?Sized>(rng: &mut R, dims: &[usize], fan_in: usize) -> Tensor {
    assert!(fan_in > 0, "fan_in must be positive");
    let sigma = (2.0 / fan_in as f32).sqrt();
    let volume: usize = dims.iter().product();
    // Box-Muller transform; rand's StandardNormal lives in rand_distr which we
    // avoid pulling in for one distribution.
    let mut data = Vec::with_capacity(volume);
    while data.len() < volume {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        data.push(r * theta.cos() * sigma);
        if data.len() < volume {
            data.push(r * theta.sin() * sigma);
        }
    }
    Tensor::from_vec_exact(data, dims)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = uniform_init(&mut rng, &[1000], 0.5);
        assert!(t.as_slice().iter().all(|&x| (-0.5..=0.5).contains(&x)));
    }

    #[test]
    fn zero_limit_gives_zeros() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = uniform_init(&mut rng, &[10], 0.0);
        assert!(t.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn init_is_deterministic_per_seed() {
        let a = uniform_init(&mut StdRng::seed_from_u64(42), &[64], 1.0);
        let b = uniform_init(&mut StdRng::seed_from_u64(42), &[64], 1.0);
        let c = uniform_init(&mut StdRng::seed_from_u64(43), &[64], 1.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn xavier_limit_shrinks_with_fan() {
        let mut rng = StdRng::seed_from_u64(7);
        let wide = xavier_uniform(&mut rng, &[4096], 2048, 2048);
        let limit = (6.0f32 / 4096.0).sqrt();
        assert!(wide.as_slice().iter().all(|&x| x.abs() <= limit + 1e-6));
    }

    #[test]
    fn he_normal_has_expected_scale() {
        let mut rng = StdRng::seed_from_u64(3);
        let fan_in = 128;
        let t = he_normal(&mut rng, &[20_000], fan_in);
        let var: f32 = t.as_slice().iter().map(|x| x * x).sum::<f32>() / t.len() as f32;
        let expected = 2.0 / fan_in as f32;
        assert!(
            (var - expected).abs() < expected * 0.1,
            "sample variance {var} too far from {expected}"
        );
        // Mean near zero.
        assert!(t.mean().abs() < 0.005);
    }

    #[test]
    fn he_normal_odd_volume() {
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(he_normal(&mut rng, &[7], 4).len(), 7);
    }
}
