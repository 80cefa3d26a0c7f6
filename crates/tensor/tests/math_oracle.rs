//! Oracle for the transcendental kernels in `ecad_tensor::math`.
//!
//! * Every kernel is checked against an f64 reference rounded to f32,
//!   within the ULP bounds the `math` module documents (an absolute
//!   bound where the exact result is subnormal or zero).
//! * The default run checks a strided subset of all 2³² bit patterns
//!   plus every edge case: ±0, ±∞, NaN, subnormals, the overflow and
//!   underflow thresholds of `exp` and the saturation points of `tanh`
//!   and `sigmoid`.
//! * The ignored `full_sweep_*` tests check all 2³² inputs per kernel
//!   (`cargo test --release -p ecad-tensor --test math_oracle --
//!   --include-ignored`).
//! * Every check runs under the kernel build this host selects and
//!   under the forced portable build, and the two builds must agree bit
//!   for bit on every input (on NaN-ness where the result is NaN, as for
//!   GEMM).
//! * A checked-in table pins the output bits of a few inputs per
//!   kernel, and an FMA-contracted copy of the polynomials, built here,
//!   must disagree with it: the table would catch a build that fused
//!   the multiply-adds.

use ecad_tensor::{gemm, math};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The build override is a process global; every test here serializes
/// on this lock. Acquiring it drops any override a panicked test left
/// behind.
fn kernel_globals() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    gemm::_force_portable_kernel(false);
    guard
}

struct Func {
    name: &'static str,
    kernel: fn(&mut [f32]),
    reference: fn(f64) -> f64,
    /// Largest distance in ULPs from the rounded reference where that
    /// reference is a normal number or infinite.
    ulps: u64,
    /// Largest absolute error where the reference is subnormal or zero.
    tiny_abs: f64,
}

/// 2⁻¹⁴⁹, the smallest positive subnormal.
const SUBNORMAL_ULP: f64 = 1.401_298_464_324_817e-45;

const FUNCS: [Func; 4] = [
    Func {
        name: "exp",
        kernel: math::exp,
        reference: f64::exp,
        ulps: 1,
        tiny_abs: SUBNORMAL_ULP,
    },
    Func {
        name: "tanh",
        kernel: math::tanh,
        reference: f64::tanh,
        ulps: 1,
        tiny_abs: 0.0,
    },
    Func {
        name: "sigmoid",
        kernel: math::sigmoid,
        reference: |x| 1.0 / (1.0 + (-x).exp()),
        ulps: 2,
        tiny_abs: SUBNORMAL_ULP,
    },
    Func {
        name: "ln",
        kernel: math::ln,
        reference: f64::ln,
        ulps: 1,
        tiny_abs: 0.0,
    },
];

/// Position of `x` on the number line of f32 values, so that adjacent
/// values differ by one and `+∞` follows `f32::MAX`. Both zeros map to
/// 0.
fn ordinal(x: f32) -> i64 {
    let b = x.to_bits();
    if b & 0x8000_0000 == 0 {
        i64::from(b)
    } else {
        -i64::from(b & 0x7FFF_FFFF)
    }
}

/// Why `got` is not within `func`'s bound of the reference at `x`, if
/// it is not.
fn violation(func: &Func, x: f32, got: f32) -> Option<String> {
    let want = (func.reference)(f64::from(x)) as f32;
    let ok = if want.is_nan() || got.is_nan() {
        want.is_nan() && got.is_nan()
    } else if want.abs() < f32::MIN_POSITIVE {
        (f64::from(got) - f64::from(want)).abs() <= func.tiny_abs
    } else {
        ordinal(got).abs_diff(ordinal(want)) <= func.ulps
    };
    (!ok).then(|| {
        format!(
            "{}({x:e} = {:#010x}) = {got:e} ({:#010x}), reference {want:e} ({:#010x})",
            func.name,
            x.to_bits(),
            got.to_bits(),
            want.to_bits()
        )
    })
}

/// Runs `func` over `xs` under the host's build and the portable
/// build, checks both builds agree, and returns the host build's output.
fn both_builds(func: &Func, xs: &[f32]) -> Vec<f32> {
    let mut host = xs.to_vec();
    (func.kernel)(&mut host);
    gemm::_force_portable_kernel(true);
    let mut portable = xs.to_vec();
    (func.kernel)(&mut portable);
    gemm::_force_portable_kernel(false);
    for ((x, h), p) in xs.iter().zip(&host).zip(&portable) {
        assert!(
            h.to_bits() == p.to_bits() || (h.is_nan() && p.is_nan()),
            "{}({x:e}): {:?} build gives {h:e}, portable build {p:e}",
            func.name,
            gemm::kernel()
        );
    }
    host
}

fn check_all(func: &Func, xs: &[f32]) {
    let out = both_builds(func, xs);
    let bad: Vec<String> = xs
        .iter()
        .zip(&out)
        .filter_map(|(&x, &y)| violation(func, x, y))
        .collect();
    assert!(
        bad.is_empty(),
        "{} of {} inputs out of bounds, first: {}",
        bad.len(),
        xs.len(),
        bad[0]
    );
}

/// Every 4099th bit pattern (4099 is prime, so the low mantissa bits
/// vary too): about a million inputs per kernel across every binade,
/// both signs and the NaN space.
#[test]
fn strided_inputs_are_within_bounds_under_both_builds() {
    let _g = kernel_globals();
    let xs: Vec<f32> = (0..=u32::MAX).step_by(4099).map(f32::from_bits).collect();
    for func in &FUNCS {
        check_all(func, &xs);
    }
}

/// Specials, subnormals, and a dense walk of bit patterns around each
/// threshold where a kernel changes regime.
#[test]
fn edge_cases_are_within_bounds_under_both_builds() {
    let _g = kernel_globals();
    let mut xs = vec![
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
        f32::EPSILON,
        1.0,
        -1.0,
    ];
    let around = |xs: &mut Vec<f32>, x: f32| {
        let b = x.to_bits();
        xs.extend((b.saturating_sub(512)..=b.saturating_add(512)).map(f32::from_bits));
    };
    // Subnormals: the smallest ones, the largest ones, and a sample.
    for s in [1u32, 0x007F_FFFF] {
        around(&mut xs, f32::from_bits(s));
        around(&mut xs, -f32::from_bits(s));
    }
    xs.extend((1..0x0080_0000u32).step_by(997).map(f32::from_bits));
    for x in [
        88.722_84,   // exp overflows to +inf just above
        -87.336_55,  // exp result leaves the normal range just below
        -103.972_08, // exp rounds to 0 just below
        88.8,        // exp's upper clamp
        -104.0,      // exp's lower clamp
        0.346_573_6, // exp's range reduction switches n
        0.625,       // tanh's polynomial / exp switch
        -0.625,
        9.010_913, // tanh rounds to 1 from here
        -9.010_913,
        44.4,       // e^{2x} overflows inside tanh
        16.635_532, // sigmoid rounds to 1 from here
        17.328_68,
        std::f32::consts::FRAC_1_SQRT_2, // ln's mantissa split
        std::f32::consts::SQRT_2,
    ] {
        around(&mut xs, x);
    }
    for func in &FUNCS {
        check_all(func, &xs);
    }
}

/// Exact values the bounds alone would not pin.
#[test]
fn special_values_are_exact() {
    let _g = kernel_globals();
    let one = |f: fn(&mut [f32]), x: f32| {
        let mut v = [x];
        f(&mut v);
        v[0]
    };
    for portable in [false, true] {
        gemm::_force_portable_kernel(portable);
        assert_eq!(one(math::exp, f32::NEG_INFINITY).to_bits(), 0);
        assert_eq!(one(math::exp, f32::INFINITY), f32::INFINITY);
        assert_eq!(one(math::exp, 88.8), f32::INFINITY);
        assert!(one(math::exp, 88.722_83).is_finite());
        assert_eq!(one(math::exp, -104.0).to_bits(), 0);
        assert_eq!(one(math::tanh, 0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(one(math::tanh, -0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(one(math::tanh, f32::INFINITY), 1.0);
        assert_eq!(one(math::tanh, f32::NEG_INFINITY), -1.0);
        assert_eq!(one(math::tanh, 10.0), 1.0);
        assert_eq!(one(math::tanh, -10.0), -1.0);
        let tiny = f32::from_bits(1);
        assert_eq!(one(math::tanh, tiny), tiny);
        assert_eq!(one(math::tanh, -tiny), -tiny);
        assert_eq!(one(math::sigmoid, 0.0), 0.5);
        assert_eq!(one(math::sigmoid, f32::INFINITY), 1.0);
        assert_eq!(one(math::sigmoid, 20.0), 1.0);
        assert_eq!(one(math::sigmoid, f32::NEG_INFINITY).to_bits(), 0);
        assert_eq!(one(math::ln, 1.0).to_bits(), 0);
        assert_eq!(one(math::ln, 0.0), f32::NEG_INFINITY);
        assert_eq!(one(math::ln, -0.0), f32::NEG_INFINITY);
        assert_eq!(one(math::ln, f32::INFINITY), f32::INFINITY);
        for x in [-1.0, -tiny, f32::NEG_INFINITY] {
            assert!(one(math::ln, x).is_nan(), "ln({x})");
        }
        for func in &FUNCS {
            for nan in [f32::NAN, -f32::NAN, f32::from_bits(0x7F80_0001)] {
                assert!(one(func.kernel, nan).is_nan(), "{}(NaN)", func.name);
            }
        }
    }
    gemm::_force_portable_kernel(false);
}

/// Input → output bit patterns, recorded from the kernels. Any change
/// to an operation, its order or a constant moves at least one of them.
const PINNED: [(&str, u32, u32); 24] = [
    ("exp", 0xc070_0000, 0x3cc0_a84a),     // -3.75 -> 2.3517746e-2
    ("exp", 0x3e99_999a, 0x3fac_c82c),     // 0.3 -> 1.3498588
    ("exp", 0x3fc0_0000, 0x408f_69ff),     // 1.5 -> 4.481689
    ("exp", 0x4188_0000, 0x4bb8_49a4),     // 17 -> 2.4154952e7
    ("exp", 0xc07e_c95c, 0x3c98_e9e4),     // -3.98104 -> 1.8666215e-2
    ("exp", 0xc07e_bee0, 0x3c99_02f4),     // -3.9804 -> 1.8678166e-2
    ("tanh", 0xc070_0000, 0xbf7f_b78c),    // -3.75 -> -0.99889445
    ("tanh", 0x3e99_999a, 0x3e95_26ee),    // 0.3 -> 0.29131263
    ("tanh", 0x3fc0_0000, 0x3f67_b7cc),    // 1.5 -> 0.90514827
    ("tanh", 0x4188_0000, 0x3f80_0000),    // 17 -> 1
    ("tanh", 0xbf1f_6a94, 0xbf0d_92a8),    // -0.62272 -> -0.55301905
    ("tanh", 0xbf1f_4b20, 0xbf0d_7cd0),    // -0.62224007 -> -0.55268574
    ("sigmoid", 0xc070_0000, 0x3cbc_3b0a), // -3.75 -> 2.297737e-2
    ("sigmoid", 0x3e99_999a, 0x3f13_0eaa), // 0.3 -> 0.5744425
    ("sigmoid", 0x3fc0_0000, 0x3f51_4c8f), // 1.5 -> 0.81757444
    ("sigmoid", 0x4188_0000, 0x3f80_0000), // 17 -> 1
    ("sigmoid", 0xc07e_c95c, 0x3c96_1c93), // -3.98104 -> 1.8324172e-2
    ("sigmoid", 0xc07e_bee0, 0x3c96_34ba), // -3.9804 -> 1.8335689e-2
    ("ln", 0x4070_0000, 0x3fa9_2f4c),      // 3.75 -> 1.3217559
    ("ln", 0x3e99_999a, 0xbf9a_1bc8),      // 0.3 -> -1.2039728
    ("ln", 0x3fc0_0000, 0x3ecf_991f),      // 1.5 -> 0.4054651
    ("ln", 0x4188_0000, 0x4035_535e),      // 17 -> 2.8332133
    ("ln", 0x413f_e47a, 0x401e_ff89),      // 11.99328 -> 2.4843466
    ("ln", 0x413f_4246, 0x401e_c959),      // 11.95368 -> 2.4810393
];

fn pinned_kernel(name: &str) -> fn(&mut [f32]) {
    FUNCS
        .iter()
        .find(|f| f.name == name)
        .map(|f| f.kernel)
        .expect("pinned kernel name")
}

#[test]
fn pinned_bits_reproduce_under_both_builds() {
    let _g = kernel_globals();
    for portable in [false, true] {
        gemm::_force_portable_kernel(portable);
        for &(name, x, want) in &PINNED {
            let mut v = [f32::from_bits(x)];
            pinned_kernel(name)(&mut v);
            assert_eq!(
                v[0].to_bits(),
                want,
                "{name}({:e}) under the {:?} build",
                f32::from_bits(x),
                gemm::kernel()
            );
        }
    }
    gemm::_force_portable_kernel(false);
}

/// Copies of the kernels' polynomial evaluations with every
/// multiply-add fused into one rounding, as a compiler allowed to
/// contract would emit them. Same constants, same range reduction.
mod fused {
    fn horner(coeffs: &[f32], x: f32) -> f32 {
        coeffs[1..]
            .iter()
            .fold(coeffs[0], |acc, &c| acc.mul_add(x, c))
    }

    pub fn exp(x: f32) -> f32 {
        let x = if x > 88.8 { 88.8 } else { x };
        let x = if x < -104.0 { -104.0 } else { x };
        let t = x.mul_add(std::f32::consts::LOG2_E, 12_582_912.0);
        let n = (t.to_bits() as i32).wrapping_sub(12_582_912.0f32.to_bits() as i32);
        let nf = t - 12_582_912.0;
        let r = (-nf).mul_add(-2.121_944_4e-4, (-nf).mul_add(355.0 / 512.0, x));
        let p = horner(
            &[
                1.987_569_1e-4,
                1.398_199_9e-3,
                8.333_452e-3,
                4.166_579_6e-2,
                1.666_666_5e-1,
                0.5,
            ],
            r,
        );
        let er = p.mul_add(r * r, r) + 1.0;
        let scale = |n: i32| f32::from_bits(((n + 127) as u32) << 23);
        er * scale(n >> 1) * scale(n - (n >> 1))
    }

    pub fn tanh(x: f32) -> f32 {
        let a = x.abs();
        let t = if a < 0.625 {
            let z = a * a;
            let p = horner(
                &[
                    -5.704_988_7e-3,
                    2.063_909e-2,
                    -5.373_971_6e-2,
                    1.333_144_2e-1,
                    -3.333_328e-1,
                ],
                z,
            );
            (p * z).mul_add(a, a)
        } else {
            1.0 - 2.0 / (exp(a + a) + 1.0)
        };
        t.copysign(x)
    }

    pub fn sigmoid(x: f32) -> f32 {
        let e = exp(-x.abs());
        (if x < 0.0 { e } else { 1.0 }) / (1.0 + e)
    }

    pub fn ln(x: f32) -> f32 {
        if x.is_nan() || x < 0.0 {
            return f32::NAN;
        }
        if x == 0.0 || x == f32::INFINITY {
            return if x == 0.0 { f32::NEG_INFINITY } else { x };
        }
        let (xs, adj) = if x < f32::MIN_POSITIVE {
            (x * 8_388_608.0, 23)
        } else {
            (x, 0)
        };
        let bits = xs.to_bits();
        let mut e = (bits >> 23) as i32 - 126 - adj;
        let m = f32::from_bits((bits & 0x007F_FFFF) | 0x3F00_0000);
        let f = if m < std::f32::consts::FRAC_1_SQRT_2 {
            e -= 1;
            m + m - 1.0
        } else {
            m - 1.0
        };
        let ef = e as f32;
        let z = f * f;
        let p = horner(
            &[
                7.037_683_6e-2,
                -1.151_461e-1,
                1.167_699_9e-1,
                -1.242_014_1e-1,
                1.424_932_3e-1,
                -1.666_805_8e-1,
                2.000_071_4e-1,
                -2.499_999_4e-1,
                3.333_333e-1,
            ],
            f,
        );
        let y = (-0.5f32).mul_add(z, (p * f).mul_add(z, ef * -2.121_944_4e-4));
        ef.mul_add(355.0 / 512.0, f + y)
    }
}

/// The FMA copy lands on the same bits for most inputs; the table must
/// hold an input of each kernel where it does not.
#[test]
fn pinned_table_catches_fused_multiply_add() {
    for name in ["exp", "tanh", "sigmoid", "ln"] {
        let mutant: fn(f32) -> f32 = match name {
            "exp" => fused::exp,
            "tanh" => fused::tanh,
            "sigmoid" => fused::sigmoid,
            _ => fused::ln,
        };
        let caught = PINNED
            .iter()
            .filter(|(n, ..)| *n == name)
            .any(|&(_, x, want)| mutant(f32::from_bits(x)).to_bits() != want);
        assert!(caught, "no pinned {name} input tells the fused copy apart");
    }
}

/// Checks `func` on every input `lo..=hi` in blocks, under both builds,
/// spreading each block over `available_parallelism()` scoped threads.
fn sweep(func: &Func) {
    let _g = kernel_globals();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    const BLOCK: usize = 1 << 22;
    let mut xs = vec![0.0f32; BLOCK];
    let mut host = vec![0.0f32; BLOCK];
    let mut portable = vec![0.0f32; BLOCK];
    let chunk = BLOCK.div_ceil(threads);
    let mut failures = 0usize;
    let mut first = Vec::new();
    for start in (0..1u64 << 32).step_by(BLOCK) {
        for (i, x) in xs.iter_mut().enumerate() {
            *x = f32::from_bits((start + i as u64) as u32);
        }
        for (force, out) in [(false, &mut host), (true, &mut portable)] {
            gemm::_force_portable_kernel(force);
            out.copy_from_slice(&xs);
            std::thread::scope(|s| {
                for part in out.chunks_mut(chunk) {
                    s.spawn(|| (func.kernel)(part));
                }
            });
        }
        gemm::_force_portable_kernel(false);
        std::thread::scope(|s| {
            let parts = xs
                .chunks(chunk)
                .zip(host.chunks(chunk))
                .zip(portable.chunks(chunk));
            let handles: Vec<_> = parts
                .map(|((xs, host), portable)| {
                    s.spawn(move || {
                        let mut bad = (0usize, Vec::new());
                        for ((&x, &h), &p) in xs.iter().zip(host).zip(portable) {
                            let builds_differ =
                                h.to_bits() != p.to_bits() && !(h.is_nan() && p.is_nan());
                            let why = if builds_differ {
                                Some(format!(
                                    "{}({x:e}): host build {h:e}, portable {p:e}",
                                    func.name
                                ))
                            } else {
                                violation(func, x, h)
                            };
                            if let Some(why) = why {
                                bad.0 += 1;
                                if bad.1.len() < 10 {
                                    bad.1.push(why);
                                }
                            }
                        }
                        bad
                    })
                })
                .collect();
            for h in handles {
                let (n, msgs) = h.join().expect("sweep thread");
                failures += n;
                first.extend(msgs);
            }
        });
        first.truncate(10);
    }
    assert!(
        failures == 0,
        "{}: {failures} failures, first: {first:#?}",
        func.name
    );
}

#[test]
#[ignore = "all 2^32 inputs; run in release"]
fn full_sweep_exp() {
    sweep(&FUNCS[0]);
}

#[test]
#[ignore = "all 2^32 inputs; run in release"]
fn full_sweep_tanh() {
    sweep(&FUNCS[1]);
}

#[test]
#[ignore = "all 2^32 inputs; run in release"]
fn full_sweep_sigmoid() {
    sweep(&FUNCS[2]);
}

#[test]
#[ignore = "all 2^32 inputs; run in release"]
fn full_sweep_ln() {
    sweep(&FUNCS[3]);
}
