//! Hidden-layer activation functions.
//!
//! The activation is one of the four NNA genes the evolutionary engine
//! mutates (§III-A: "number of layers, layer size, activation function,
//! and bias"). The output layer always applies softmax, handled by the
//! trainer, so `Activation` covers hidden layers only.
//!
//! `Sigmoid` and `Tanh` run on the libm-free kernels of
//! [`ecad_tensor::math`], so trained bits do not depend on the host's
//! libm or ISA.

use ecad_tensor::math;

/// A hidden-layer activation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// Rectified linear unit, `max(0, x)`.
    Relu,
    /// Logistic sigmoid, `1 / (1 + e^-x)`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Identity (linear layer).
    Identity,
}

impl Activation {
    /// All variants, for mutation sampling.
    pub const ALL: [Activation; 4] = [
        Activation::Relu,
        Activation::Sigmoid,
        Activation::Tanh,
        Activation::Identity,
    ];

    /// Applies the activation to a single value; the same bits as
    /// [`Activation::apply_slice`] on a one-element slice.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        let mut v = [x];
        self.apply_slice(&mut v);
        v[0]
    }

    /// Applies the activation to every element of `xs`, in place.
    ///
    /// `Tanh` and `Sigmoid` map NaN to NaN; `Relu` maps it to 0.
    pub fn apply_slice(self, xs: &mut [f32]) {
        match self {
            Activation::Relu => xs.iter_mut().for_each(|x| *x = x.max(0.0)),
            Activation::Sigmoid => math::sigmoid(xs),
            Activation::Tanh => math::tanh(xs),
            Activation::Identity => {}
        }
    }

    /// Derivative expressed in terms of the *activated* output `y`
    /// (`y = apply(x)`), which is what backpropagation has in hand.
    ///
    /// ReLU's derivative at 0 is taken as 0 (the subgradient convention
    /// sklearn and most frameworks use).
    #[inline]
    pub fn derivative_from_output(self, y: f32) -> f32 {
        match self {
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Tanh => 1.0 - y * y,
            Activation::Identity => 1.0,
        }
    }

    /// Short lowercase name (`"relu"`, `"sigmoid"`, ...), used in genome
    /// hashing and report output.
    pub fn name(self) -> &'static str {
        match self {
            Activation::Relu => "relu",
            Activation::Sigmoid => "sigmoid",
            Activation::Tanh => "tanh",
            Activation::Identity => "identity",
        }
    }

    /// Parses a name produced by [`Activation::name`].
    pub fn from_name(s: &str) -> Option<Activation> {
        Activation::ALL.iter().copied().find(|a| a.name() == s)
    }
}

impl std::fmt::Display for Activation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.5), 2.5);
    }

    #[test]
    fn sigmoid_range_and_midpoint() {
        let s = Activation::Sigmoid;
        assert!((s.apply(0.0) - 0.5).abs() < 1e-6);
        assert!(s.apply(100.0) <= 1.0);
        assert!(s.apply(-100.0) >= 0.0);
    }

    #[test]
    fn tanh_is_odd() {
        let t = Activation::Tanh;
        assert!((t.apply(1.3) + t.apply(-1.3)).abs() < 1e-6);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let eps = 1e-3f32;
        for act in Activation::ALL {
            for &x in &[-2.0f32, -0.5, 0.31, 1.7] {
                let y = act.apply(x);
                let numeric = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
                let analytic = act.derivative_from_output(y);
                assert!(
                    (numeric - analytic).abs() < 1e-2,
                    "{act} at {x}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn apply_slice_matches_scalar_apply_bitwise() {
        let xs: Vec<f32> = (0..301)
            .map(|i| (i as f32 - 150.0) * 0.173)
            .chain([0.0, -0.0, 1e-30, -1e-40, 88.9, -104.5, f32::INFINITY])
            .chain([f32::NEG_INFINITY, f32::NAN])
            .collect();
        for act in Activation::ALL {
            let mut ys = xs.clone();
            act.apply_slice(&mut ys);
            for (x, y) in xs.iter().zip(&ys) {
                assert_eq!(act.apply(*x).to_bits(), y.to_bits(), "{act} at {x}");
            }
        }
    }

    #[test]
    fn saturating_activations_propagate_nan() {
        for act in [Activation::Tanh, Activation::Sigmoid] {
            assert!(act.apply(f32::NAN).is_nan(), "{act}");
            let mut v = [1.0, f32::NAN, -1.0];
            act.apply_slice(&mut v);
            assert!(
                v[1].is_nan() && v[0].is_finite() && v[2].is_finite(),
                "{act}"
            );
        }
    }

    #[test]
    fn relu_derivative_at_zero_is_zero() {
        assert_eq!(Activation::Relu.derivative_from_output(0.0), 0.0);
    }

    #[test]
    fn names_round_trip() {
        for a in Activation::ALL {
            assert_eq!(Activation::from_name(a.name()), Some(a));
        }
        assert_eq!(Activation::from_name("swish"), None);
    }
}
