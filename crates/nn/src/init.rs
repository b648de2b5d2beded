//! Weight-initialization schemes.
//!
//! The paper initializes weights from a normal distribution whose standard
//! deviation is tied to the layer width (§VII-A); [`InitScheme::PaperNormal`]
//! implements that (σ = 1/units, the scaling that keeps sigmoid
//! pre-activations in range). Xavier/Glorot and a fixed-σ normal are also
//! provided for the testbed role.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

/// How to draw initial weights. Biases always start at zero.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum InitScheme {
    /// Normal with σ = 1 / fan_out — the paper's width-scaled initializer.
    #[default]
    PaperNormal,
    /// Glorot/Xavier: σ = sqrt(2 / (fan_in + fan_out)).
    Xavier,
    /// Xavier with the logistic-sigmoid gain of 4 — the correction that
    /// keeps signal variance stable through deep σ stacks (σ'(0) = 1/4).
    /// Required for the paper's 4–8-hidden-layer sigmoid networks to
    /// escape the uniform-prediction plateau.
    XavierSigmoid,
    /// Normal with an explicit σ.
    Normal(f32),
    /// All weights equal to a constant (degenerate; for tests only).
    Constant(f32),
}

impl InitScheme {
    /// Standard deviation used for a layer of shape `(fan_in, fan_out)`.
    pub fn sigma(&self, fan_in: usize, fan_out: usize) -> f32 {
        match self {
            InitScheme::PaperNormal => 1.0 / fan_out.max(1) as f32,
            InitScheme::Xavier => (2.0 / (fan_in + fan_out).max(1) as f32).sqrt(),
            InitScheme::XavierSigmoid => 4.0 * (2.0 / (fan_in + fan_out).max(1) as f32).sqrt(),
            InitScheme::Normal(s) => *s,
            InitScheme::Constant(_) => 0.0,
        }
    }

    /// Fill a weight buffer for a layer of shape `(fan_in, fan_out)`.
    pub fn fill(&self, fan_in: usize, fan_out: usize, seed: u64, buf: &mut [f32]) {
        let mut draw = self.draws(fan_in, fan_out, seed);
        buf.iter_mut().for_each(|v| *v = draw());
    }

    /// The stream [`fill`](Self::fill) writes, one weight per call, for a
    /// caller that stores the draws in another order.
    pub(crate) fn draws(&self, fan_in: usize, fan_out: usize, seed: u64) -> impl FnMut() -> f32 {
        let sigma = self.sigma(fan_in, fan_out).max(f32::MIN_POSITIVE);
        let normal = Normal::new(0.0f32, sigma).expect("valid sigma");
        let mut rng = StdRng::seed_from_u64(seed);
        let constant = match self {
            InitScheme::Constant(c) => Some(*c),
            _ => None,
        };
        move || constant.unwrap_or_else(|| normal.sample(&mut rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sigma_scales_with_width() {
        assert!((InitScheme::PaperNormal.sigma(100, 512) - 1.0 / 512.0).abs() < 1e-9);
    }

    #[test]
    fn xavier_sigma() {
        let s = InitScheme::Xavier.sigma(100, 100);
        assert!((s - (2.0f32 / 200.0).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn fill_is_deterministic_per_seed() {
        let mut a = vec![0.0; 64];
        let mut b = vec![0.0; 64];
        InitScheme::PaperNormal.fill(8, 8, 42, &mut a);
        InitScheme::PaperNormal.fill(8, 8, 42, &mut b);
        assert_eq!(a, b);
        InitScheme::PaperNormal.fill(8, 8, 43, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn constant_fill() {
        let mut a = vec![0.0; 4];
        InitScheme::Constant(0.5).fill(2, 2, 0, &mut a);
        assert_eq!(a, vec![0.5; 4]);
    }

    #[test]
    fn sample_std_close_to_requested() {
        let mut buf = vec![0.0f32; 20_000];
        InitScheme::Normal(0.1).fill(10, 10, 7, &mut buf);
        let mean: f32 = buf.iter().sum::<f32>() / buf.len() as f32;
        let var: f32 = buf.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / buf.len() as f32;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var.sqrt() - 0.1).abs() < 0.01, "std {}", var.sqrt());
    }
}
