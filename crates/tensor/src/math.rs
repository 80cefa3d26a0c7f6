//! Transcendental slice kernels for the training path: [`exp`],
//! [`tanh`], [`sigmoid`] and [`ln`] over `f32`, in place.
//!
//! The MLP trainer spends more time in activations than anywhere
//! outside GEMM, and a search result must not depend on the host's
//! libm: a cluster worker linked against another libc would otherwise
//! train different bits. These kernels own that math.
//!
//! # Arithmetic
//!
//! Every kernel is built from IEEE add, subtract, multiply and divide,
//! comparisons, integer ops on the bit pattern, and exact `i32 → f32`
//! conversion. There is no libm call, no `mul_add` and no FMA, and
//! nothing that lowers to one under the baseline target (`floor` and
//! `round` do under SSE2): range reduction rounds with the
//! `1.5·2²³` magic constant instead. Rust never contracts `a * b + c`,
//! so every operation is separately rounded and the result of each
//! element is fixed by the source alone.
//!
//! Each element is branch-free: where a function has two regimes (the
//! small-|x| polynomial of `tanh`, the sign of `sigmoid`'s argument)
//! both are computed and one is selected, so the loop vectorizes.
//!
//! # Per-ISA builds
//!
//! As for GEMM, the element loop is written once, `#[inline(always)]`,
//! and compiled twice: for the baseline target and inside a
//! `#[target_feature(enable = "avx2")]` function. Both builds run the
//! same operation sequence on every lane and return the same bits. The
//! build is [`gemm::kernel`]'s decision, so GEMM and math always agree
//! and `gemm::_force_portable_kernel` pins both.
//!
//! # Accuracy
//!
//! Against the exact value rounded to `f32`, over every `f32` input:
//!
//! | kernel    | normal outputs | subnormal outputs (absolute) |
//! |-----------|----------------|------------------------------|
//! | `exp`     | ≤ 1 ULP        | ≤ 2⁻¹⁴⁹                      |
//! | `tanh`    | ≤ 1 ULP        | exact (`tanh x = x`)         |
//! | `sigmoid` | ≤ 2 ULP        | ≤ 2⁻¹⁴⁹                      |
//! | `ln`      | ≤ 1 ULP        | (none)                       |
//!
//! ULPs count representable values between the two results, with `+∞`
//! the value after `f32::MAX`. `crates/tensor/tests/math_oracle.rs`
//! checks these bounds on a strided subset of inputs by default and on
//! all 2³² inputs per function as an ignored test.
//!
//! # Special values
//!
//! NaN in gives NaN out in every kernel; no clamp maps it to a finite
//! value, so a diverged network stays visibly diverged. Otherwise:
//!
//! * `exp`: `-∞ → 0`, `+∞ → +∞`; overflow gives `+∞`, underflow
//!   gradual then `0`.
//! * `tanh`: odd, keeps the sign of zero, `±∞ → ±1`.
//! * `sigmoid`: `-∞ → 0`, `+∞ → 1`.
//! * `ln`: `±0 → -∞`, `+∞ → +∞`, negative → NaN; subnormals are exact
//!   inputs like any other.

use crate::gemm::{self, Kernel};
use std::f32::consts::LOG2_E;

/// `e^x` for every element of `xs`, in place.
///
/// # Example
///
/// ```
/// use ecad_tensor::math;
/// let mut v = [0.0f32, 1.0];
/// math::exp(&mut v);
/// assert_eq!(v[0], 1.0);
/// assert!((v[1] - std::f32::consts::E).abs() <= f32::EPSILON * 4.0);
/// ```
pub fn exp(xs: &mut [f32]) {
    run(xs, exp1)
}

/// `tanh(x)` for every element of `xs`, in place.
pub fn tanh(xs: &mut [f32]) {
    run(xs, tanh1)
}

/// The logistic function `1 / (1 + e^-x)` for every element of `xs`,
/// in place.
pub fn sigmoid(xs: &mut [f32]) {
    run(xs, sigmoid1)
}

/// The natural logarithm of every element of `xs`, in place.
pub fn ln(xs: &mut [f32]) {
    run(xs, ln1)
}

fn run(xs: &mut [f32], f: impl Fn(f32) -> f32) {
    match gemm::kernel() {
        Kernel::Portable => map(xs, f),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `gemm::kernel()` returns `Avx2` only after
        // `is_x86_feature_detected!("avx2")` reported AVX2.
        Kernel::Avx2 => unsafe { map_avx2(xs, f) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 => unreachable!("AVX2 build selected off x86-64"),
    }
}

/// The AVX2 build of [`map`]. Callers must first check that the CPU
/// supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn map_avx2(xs: &mut [f32], f: impl Fn(f32) -> f32) {
    map(xs, f)
}

/// The element loop, compiled into each build with `f` inlined.
#[inline(always)]
fn map(xs: &mut [f32], f: impl Fn(f32) -> f32) {
    xs.iter_mut().for_each(|x| *x = f(*x))
}

/// `if c { a } else { b }` on values, which LLVM lowers to a blend.
#[inline(always)]
fn select(c: bool, a: f32, b: f32) -> f32 {
    if c {
        a
    } else {
        b
    }
}

const SIGN: u32 = 0x8000_0000;
/// `1.5·2²³`: adding it to `|v| < 2²²` rounds `v` to an integer held in
/// the low mantissa bits.
const MAGIC: f32 = 12_582_912.0;
/// `ln 2` split so that `n * LN2_HI` is exact for `|n| < 2¹⁵`.
const LN2_HI: f32 = 355.0 / 512.0;
const LN2_LO: f32 = -2.121_944_4e-4;
/// Above this `e^x` overflows; the clamp keeps the scale exponent at
/// 128, which still overflows to `+∞`.
const EXP_HI: f32 = 88.8;
/// Below this `e^x` rounds to 0; the clamp keeps the scale exponent at
/// -150.
const EXP_LO: f32 = -104.0;

/// `e^x`: `x = n ln 2 + r` with `|r| ≤ ln 2 / 2`, a degree-7 polynomial
/// for `e^r`, then `2^n` applied as two exact power-of-two factors so
/// that overflow and gradual underflow round once.
#[inline(always)]
fn exp1(x: f32) -> f32 {
    // Comparisons are false for NaN, so the clamp lets it through.
    let x = select(x > EXP_HI, EXP_HI, x);
    let x = select(x < EXP_LO, EXP_LO, x);
    let t = x * LOG2_E + MAGIC;
    let n = (t.to_bits() as i32).wrapping_sub(MAGIC.to_bits() as i32);
    let nf = t - MAGIC;
    let r = x - nf * LN2_HI - nf * LN2_LO;
    let z = r * r;
    let p = ((((1.987_569_1e-4 * r + 1.398_199_9e-3) * r + 8.333_452e-3) * r + 4.166_579_6e-2) * r
        + 1.666_666_5e-1)
        * r
        + 0.5;
    let er = p * z + r + 1.0;
    // n ∈ [-150, 128] after the clamp: each half is a normal exponent.
    // Wrapping ops keep a NaN's garbage `n` from panicking in debug
    // builds; NaN times any scale is NaN.
    let n1 = n >> 1;
    let n2 = n.wrapping_sub(n1);
    er * pow2(n1) * pow2(n2)
}

/// `2^n` for a normal exponent `n`.
#[inline(always)]
fn pow2(n: i32) -> f32 {
    f32::from_bits((n.wrapping_add(127) as u32).wrapping_shl(23))
}

/// Below this `tanh` uses its odd polynomial; above it
/// `1 - 2 / (e^{2|x|} + 1)` has no cancellation to lose accuracy to.
const TANH_SWITCH: f32 = 0.625;

/// `tanh x`, computed on `|x|` with the sign bit restored, so the
/// function is exactly odd and `-0` stays `-0`.
#[inline(always)]
fn tanh1(x: f32) -> f32 {
    let sign = x.to_bits() & SIGN;
    let a = f32::from_bits(x.to_bits() & !SIGN);
    let z = a * a;
    let small =
        (((((-5.704_988_7e-3 * z + 2.063_909e-2) * z - 5.373_971_6e-2) * z + 1.333_144_2e-1) * z
            - 3.333_328e-1)
            * z)
            * a
            + a;
    // e^{2|x|} overflows to +∞ for |x| > 44.4, giving exactly 1.
    let large = 1.0 - 2.0 / (exp1(a + a) + 1.0);
    let t = select(a < TANH_SWITCH, small, large);
    f32::from_bits(t.to_bits() | sign)
}

/// `1 / (1 + e^-x)` for `x ≥ 0` and `e^x / (1 + e^x)` for `x < 0`, both
/// from `e^-|x| ≤ 1`, so neither overflows and tiny results keep their
/// precision.
#[inline(always)]
fn sigmoid1(x: f32) -> f32 {
    let a = f32::from_bits(x.to_bits() & !SIGN);
    let e = exp1(-a);
    select(x < 0.0, e, 1.0) / (1.0 + e)
}

const SQRT_HALF: f32 = std::f32::consts::FRAC_1_SQRT_2;
/// `2²³`, which lifts a subnormal into the normal range exactly.
const TWO_23: f32 = 8_388_608.0;

/// `ln x`: `x = 2^e m` with `m ∈ [√½, √2)`, `ln(1 + f)` on `f = m - 1`
/// as `f - f²/2 + f³ P(f)` with `P` of degree 8, then `e ln 2` added in
/// two parts.
#[inline(always)]
fn ln1(x: f32) -> f32 {
    let sub = x < f32::MIN_POSITIVE;
    let xs = select(sub, x * TWO_23, x);
    let bits = xs.to_bits();
    // frexp: xs = m 2^e with m ∈ [0.5, 1). Garbage for x ≤ 0, inf and
    // NaN, which are replaced below.
    let e = ((bits >> 23) as i32).wrapping_sub(if sub { 126 + 23 } else { 126 });
    let m = f32::from_bits((bits & 0x007F_FFFF) | 0x3F00_0000);
    let lo = m < SQRT_HALF;
    let e = e.wrapping_sub(lo as i32);
    let f = select(lo, m + m - 1.0, m - 1.0);
    let ef = e as f32;
    let z = f * f;
    let p = (((((((7.037_683_6e-2 * f - 1.151_461e-1) * f + 1.167_699_9e-1) * f
        - 1.242_014_1e-1)
        * f
        + 1.424_932_3e-1)
        * f
        - 1.666_805_8e-1)
        * f
        + 2.000_071_4e-1)
        * f
        - 2.499_999_4e-1)
        * f
        + 3.333_333e-1;
    let y = p * f * z + ef * LN2_LO - 0.5 * z;
    let r = f + y + ef * LN2_HI;
    let r = select(x == f32::INFINITY, x, r);
    let r = select(x == 0.0, f32::NEG_INFINITY, r);
    select(x >= 0.0, r, f32::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(f: fn(&mut [f32]), x: f32) -> f32 {
        let mut v = [x];
        f(&mut v);
        v[0]
    }

    #[test]
    fn known_values() {
        assert_eq!(one(exp, 0.0), 1.0);
        assert_eq!(one(tanh, 0.0), 0.0);
        assert_eq!(one(sigmoid, 0.0), 0.5);
        assert_eq!(one(ln, 1.0), 0.0);
        assert_eq!(one(ln, 2.0), std::f32::consts::LN_2);
    }

    #[test]
    fn slice_lengths_around_vector_width_match_elementwise() {
        for n in 0..40 {
            let xs: Vec<f32> = (0..n).map(|i| i as f32 * 0.37 - 6.0).collect();
            for f in [exp, tanh, sigmoid, ln] {
                let mut v = xs.clone();
                f(&mut v);
                for (x, y) in xs.iter().zip(&v) {
                    assert_eq!(one(f, *x).to_bits(), y.to_bits());
                }
            }
        }
    }
}
