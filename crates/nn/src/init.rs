//! Weight-initialization schemes.
//!
//! The paper initializes weights from a normal distribution whose standard
//! deviation is tied to the layer width (§VII-A); [`InitScheme::PaperNormal`]
//! implements that (σ = 1/units, the scaling that keeps sigmoid
//! pre-activations in range). Xavier/Glorot and a fixed-σ normal are also
//! provided for the testbed role.
//!
//! Every normal scheme draws from one counter-based stream,
//! [`ops::normal_fill`]: layer `l`'s weight at index `i` of its storage is a
//! pure function of `(seed, l, i)`. A layer is drawn in storage order, and
//! any stripe of it — one input feature's row of layer 0 — can be drawn
//! alone, in any order, with the same bits.

use hetero_tensor::ops;
use serde::{Deserialize, Serialize};

/// How to draw initial weights. Biases always start at zero.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum InitScheme {
    /// Normal with σ = 1 / fan_out — the paper's width-scaled initializer.
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

    /// Rejects a normal σ that is negative or not finite, and a constant
    /// that is not finite: either would start a run from a model that is
    /// not a draw of this scheme.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            InitScheme::Normal(s) if !(s.is_finite() && s >= 0.0) => Err(format!(
                "init sigma must be finite and non-negative, got {s}"
            )),
            InitScheme::Constant(c) if !c.is_finite() => {
                Err(format!("init constant must be finite, got {c}"))
            }
            _ => Ok(()),
        }
    }

    /// Layer `l`'s weights, of shape `(fan_in, fan_out)`, for a model drawn
    /// from `seed`, from index `first` of the layer's storage on: `w[i]` is
    /// the weight at index `first + i`. Any range of a layer draws the same
    /// bits as the whole layer does there.
    pub(crate) fn fill_layer(
        &self,
        seed: u64,
        l: usize,
        (fan_in, fan_out): (usize, usize),
        first: usize,
        w: &mut [f32],
    ) {
        match *self {
            InitScheme::Constant(c) => w.fill(c),
            _ => {
                let sigma = self.sigma(fan_in, fan_out);
                ops::normal_fill(layer_key(seed, l), first as u64, sigma, w)
            }
        }
    }
}

/// The stream key of layer `l` of a model drawn from `seed`: SplitMix64's
/// finalizer over the seed stepped by `l + 1` golden-ratio increments.
fn layer_key(seed: u64, l: usize) -> u64 {
    let z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(l as u64 + 1));
    let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
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
    fn a_layer_is_a_function_of_seed_and_layer() {
        let draw = |seed, l| {
            let mut w = vec![0.0; 64];
            InitScheme::PaperNormal.fill_layer(seed, l, (8, 8), 0, &mut w);
            w
        };
        assert_eq!(draw(42, 0), draw(42, 0));
        assert_ne!(draw(42, 0), draw(43, 0));
        assert_ne!(draw(42, 0), draw(42, 1));
    }

    #[test]
    fn constant_fill() {
        let mut a = vec![0.0; 4];
        InitScheme::Constant(0.5).fill_layer(0, 0, (2, 2), 0, &mut a);
        assert_eq!(a, vec![0.5; 4]);
    }

    #[test]
    fn invalid_sigma_and_constant_are_rejected() {
        for bad in [-0.1, f32::NAN, f32::INFINITY] {
            assert!(InitScheme::Normal(bad).validate().is_err(), "{bad}");
        }
        for bad in [f32::NAN, f32::NEG_INFINITY] {
            assert!(InitScheme::Constant(bad).validate().is_err(), "{bad}");
        }
        for ok in [
            InitScheme::Normal(0.0),
            InitScheme::Constant(-2.0),
            InitScheme::Xavier,
        ] {
            assert!(ok.validate().is_ok(), "{ok:?}");
        }
    }

    /// Real-sim's layer 0: 20 958 inputs × 64 outputs, Xavier.
    const WIDTH: (usize, usize) = (20_958, 64);

    fn real_sim_layer0(seed: u64) -> (Vec<f32>, f32) {
        let (fan_in, fan_out) = WIDTH;
        let mut w = vec![0.0; fan_in * fan_out];
        InitScheme::Xavier.fill_layer(seed, 0, WIDTH, 0, &mut w);
        (w, InitScheme::Xavier.sigma(fan_in, fan_out))
    }

    /// `Φ(x)` through Abramowitz & Stegun 7.1.26 (|error| ≤ 1.5e-7).
    fn normal_cdf(x: f64) -> f64 {
        let t = 1.0 / (1.0 + 0.327_591_1 * x.abs() / std::f64::consts::SQRT_2);
        let poly = [
            1.061_405_429,
            -1.453_152_027,
            1.421_413_741,
            -0.284_496_736,
            0.254_829_592,
        ]
        .iter()
        .fold(0.0, |y, c| (y + c) * t);
        let erf = 1.0 - poly * (-x * x / 2.0).exp();
        0.5 * (1.0 + erf.copysign(x))
    }

    /// Moments, a Kolmogorov–Smirnov distance and the extreme value of
    /// 1.34 M draws against N(0, σ). Each bound is about five standard
    /// errors of its statistic at this `n` (the KS one is the α = 0.001
    /// critical value), and the seed is fixed, so the test is deterministic.
    #[test]
    fn the_stream_is_normal_at_real_sim_width() {
        let (w, sigma) = real_sim_layer0(42);
        let n = w.len() as f64;
        let z: Vec<f64> = w.iter().map(|&v| v as f64 / sigma as f64).collect();
        let mean = z.iter().sum::<f64>() / n;
        let m2 = z.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        let m4 = z.iter().map(|v| (v - mean).powi(4)).sum::<f64>() / n;
        assert!(mean.abs() < 5.0 / n.sqrt(), "mean {mean}");
        assert!(
            (m2.sqrt() - 1.0).abs() < 5.0 / (2.0 * n).sqrt(),
            "std/σ {}",
            m2.sqrt()
        );
        let kurtosis = m4 / (m2 * m2);
        assert!(
            (kurtosis - 3.0).abs() < 5.0 * (24.0 / n).sqrt(),
            "kurtosis {kurtosis}"
        );

        let mut sorted = z.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        let ks = sorted.iter().enumerate().fold(0.0f64, |d, (i, &x)| {
            let f = normal_cdf(x);
            d.max((i + 1) as f64 / n - f).max(f - i as f64 / n)
        });
        assert!(ks < 1.95 / n.sqrt(), "KS distance {ks}");

        // u ≥ 2⁻²⁴ bounds r = √(−2·ln u), and |cos|, |sin| ≤ 1.
        let bound = (2.0 * 24.0 * std::f64::consts::LN_2).sqrt();
        let max = sorted[0].abs().max(sorted[sorted.len() - 1].abs());
        assert!(
            max <= bound * (1.0 + 4.0 * f32::EPSILON as f64),
            "max |z|/σ {max}"
        );
    }

    /// The cos and sin halves of a pair share their radius but not their
    /// sign or angle: uncorrelated, |ρ| below five standard errors.
    #[test]
    fn the_halves_of_a_pair_are_uncorrelated() {
        let (w, _) = real_sim_layer0(7);
        let pairs = w.len() / 2;
        let (mut sxy, mut sxx, mut syy) = (0.0f64, 0.0f64, 0.0f64);
        for p in w.chunks_exact(2) {
            let (x, y) = (p[0] as f64, p[1] as f64);
            sxy += x * y;
            sxx += x * x;
            syy += y * y;
        }
        let rho = sxy / (sxx * syy).sqrt();
        assert!(rho.abs() < 5.0 / (pairs as f64).sqrt(), "ρ {rho}");
    }

    #[test]
    fn every_simd_level_draws_the_same_bits() {
        use hetero_tensor::simd::{host_levels, with_level, SimdLevel};
        let bits = |level| {
            let (w, _) = with_level(level, || real_sim_layer0(11));
            w.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        let scalar = bits(SimdLevel::Scalar);
        for level in host_levels() {
            assert!(bits(level) == scalar, "{level:?}");
        }
    }

    /// Layer 0's stripes — one input feature's 64 outputs each — drawn one
    /// by one, last first, equal the layer drawn in storage order.
    #[test]
    fn stripes_drawn_out_of_order_equal_the_layer() {
        let (w, sigma) = real_sim_layer0(3);
        let out = WIDTH.1;
        let mut stripes = vec![f32::NAN; w.len()];
        for (c, row) in stripes.chunks_exact_mut(out).enumerate().rev() {
            ops::normal_fill(layer_key(3, 0), (c * out) as u64, sigma, row);
        }
        assert!(stripes
            .iter()
            .zip(&w)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }
}
