//! Hidden-layer activation functions.
//!
//! The paper uses sigmoid in all hidden layers (§VII-A). ReLU and tanh are
//! provided as well so the framework can serve as the "generic testbed" the
//! paper advertises.

use hetero_tensor::{ops, Matrix};
use serde::{Deserialize, Serialize};

/// Element-wise activation applied to a layer's pre-activation output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Activation {
    /// Logistic sigmoid — the paper's hidden activation.
    #[default]
    Sigmoid,
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Identity (no non-linearity); useful for linear probes and tests.
    Identity,
}

impl Activation {
    /// Apply the activation in place (SIMD-dispatched via `hetero-tensor`).
    pub fn apply(&self, m: &mut Matrix) {
        match self {
            Activation::Sigmoid => ops::sigmoid_inplace(m),
            Activation::Relu => ops::relu_inplace(m),
            Activation::Tanh => ops::tanh_inplace(m),
            Activation::Identity => {}
        }
    }

    /// Multiply `delta` in place by `f'(z)` computed from the stored output
    /// (fused, SIMD-dispatched kernels — no temporary derivative matrix).
    /// All four activations admit a derivative in terms of `a = f(z)`
    /// (σ' = a(1-a), relu' = 1 if a>0 else 0, tanh' = 1-a², id' = 1),
    /// which is what lets the backward pass avoid storing pre-activations.
    pub fn mul_derivative(&self, output: &Matrix, delta: &mut Matrix) {
        assert_eq!(output.shape(), delta.shape(), "activation shape mismatch");
        match self {
            Activation::Sigmoid => ops::mul_sigmoid_derivative(output, delta),
            Activation::Relu => ops::mul_relu_derivative(output, delta),
            Activation::Tanh => ops::mul_tanh_derivative(output, delta),
            Activation::Identity => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let mut m = Matrix::from_rows(&[&[-3.0, 0.0, 2.0]]);
        Activation::Relu.apply(&mut m);
        assert_eq!(m, Matrix::from_rows(&[&[0.0, 0.0, 2.0]]));
    }

    #[test]
    fn sigmoid_outputs_in_unit_interval() {
        let mut m = Matrix::from_rows(&[&[-10.0, 0.0, 10.0]]);
        Activation::Sigmoid.apply(&mut m);
        assert!(m.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn mul_derivative_identity_is_noop() {
        let out = Matrix::full(2, 2, 0.3);
        let mut delta = Matrix::full(2, 2, 5.0);
        Activation::Identity.mul_derivative(&out, &mut delta);
        assert_eq!(delta, Matrix::full(2, 2, 5.0));
    }

    #[test]
    fn mul_derivative_sigmoid_scales() {
        let out = Matrix::full(1, 1, 0.5);
        let mut delta = Matrix::full(1, 1, 4.0);
        Activation::Sigmoid.mul_derivative(&out, &mut delta);
        assert!((delta.get(0, 0) - 1.0).abs() < 1e-6); // 4 * 0.25
    }
}
