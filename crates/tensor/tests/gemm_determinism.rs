//! Determinism pins for the packed GEMM kernel family.
//!
//! The contract under test (documented in `gemm`'s module docs): every
//! output element is one f32 accumulator updated over `p` ascending, so
//! results are bit-identical to the strict naive oracle and across
//! repeated in-process runs. A seeded broken-accumulation-order mutant
//! proves the bitwise oracle has teeth, and an `rt::prop!` fuzz sweeps
//! random shapes (including 0-dims) and special values (NaN/±inf must
//! propagate like the oracle, never panic). Every test runs under both
//! kernel builds: the one this host selects and the forced portable
//! build.

use ecad_tensor::{gemm, init, Matrix};
use rt::rand::rngs::StdRng;
use rt::rand::{Rng, SeedableRng};
use rt::prop_assert;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The mutant switch and the build override are process globals; every
/// test in this binary serializes on this lock so the harness' default
/// test parallelism cannot interleave settings.
/// Acquiring it drops any build override a panicked test left behind.
fn kernel_globals() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    gemm::_force_portable_kernel(false);
    guard
}

/// Runs `check` under the build this host selects, then under the
/// forced portable build (the same build twice on a host without
/// AVX2), passing the build's name for failure messages.
fn for_each_build(mut check: impl FnMut(&str)) {
    for portable in [false, true] {
        gemm::_force_portable_kernel(portable);
        check(&format!("{:?}", gemm::kernel()));
    }
    gemm::_force_portable_kernel(false);
}

/// Boundary shapes around the 64/128 sizes. The 15/16/17-row shapes
/// straddle the 8-row tile of the AVX2 build and split into two or
/// three panels.
const BOUNDARY: [(usize, usize, usize); 11] = [
    (63, 64, 65),
    (64, 65, 63),
    (65, 63, 64),
    (64, 64, 64),
    (127, 128, 129),
    (128, 129, 127),
    (129, 127, 128),
    (128, 128, 128),
    (15, 128, 129),
    (16, 129, 127),
    (17, 127, 128),
];

fn seeded(m: usize, k: usize, n: usize) -> (Matrix, Matrix, Vec<f32>, Matrix, Matrix) {
    let seed = (m as u64) << 32 | (k as u64) << 16 | n as u64;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD5);
    let a = init::uniform(&mut rng, m, k, 1.0);
    let b = init::uniform(&mut rng, k, n, 1.0);
    let bias: Vec<f32> = (0..n).map(|j| (j as f32) * 0.5 - 1.0).collect();
    let at = init::uniform(&mut rng, k, m, 1.0);
    let bt = init::uniform(&mut rng, n, k, 1.0);
    (a, b, bias, at, bt)
}

fn all_kernels(m: usize, k: usize, n: usize) -> Vec<(&'static str, Matrix)> {
    let (a, b, bias, at, bt) = seeded(m, k, n);
    vec![
        ("matmul", gemm::matmul(&a, &b)),
        ("matmul_bias", gemm::matmul_bias(&a, &b, &bias)),
        ("matmul_at_b", gemm::matmul_at_b(&at, &b)),
        ("matmul_a_bt", gemm::matmul_a_bt(&a, &bt)),
    ]
}

fn assert_bits(ctx: &str, got: &Matrix, want: &Matrix) {
    assert_eq!(got.shape(), want.shape(), "{ctx}: shape");
    for i in 0..got.rows() {
        for j in 0..got.cols() {
            let (x, y) = (got[(i, j)], want[(i, j)]);
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{ctx}: ({i},{j}) {x:?} vs {y:?}"
            );
        }
    }
}

/// Two runs in one process are bit-identical for every kernel.
#[test]
fn bit_identity_across_repeated_runs() {
    let _g = kernel_globals();
    for_each_build(|build| {
        for &(m, k, n) in &BOUNDARY {
            for (first, second) in all_kernels(m, k, n).iter().zip(all_kernels(m, k, n)) {
                assert_bits(
                    &format!("{build} {} m={m} k={k} n={n} run2", first.0),
                    &second.1,
                    &first.1,
                );
            }
        }
    });
}

/// The seeded broken-accumulation-order mutant (reversed `k` walk —
/// numerically plausible, bitwise wrong) must be caught by the
/// bit-identity-vs-naive check under each build, and switching it off
/// must restore exact agreement. This proves the oracle detects
/// accumulation-order drift rather than vacuously passing.
#[test]
fn broken_accumulation_order_mutant_is_caught() {
    let _g = kernel_globals();
    let mut rng = StdRng::seed_from_u64(99);
    let a = init::uniform(&mut rng, 64, 64, 1.0);
    let b = init::uniform(&mut rng, 64, 64, 1.0);
    let naive = gemm::matmul_naive(&a, &b);

    for_each_build(|build| {
        gemm::_set_broken_accumulation_order(true);
        let mutant = gemm::matmul(&a, &b);
        gemm::_set_broken_accumulation_order(false);

        let drifted = mutant
            .as_slice()
            .iter()
            .zip(naive.as_slice())
            .any(|(x, y)| x.to_bits() != y.to_bits());
        assert!(
            drifted,
            "{build}: reversed accumulation order produced bit-identical output; \
             the bitwise oracle would never catch an order regression"
        );
        // Tolerance-level agreement still holds: the mutant is
        // numerically plausible, which is exactly why the pin must be
        // bitwise.
        for (x, y) in mutant.as_slice().iter().zip(naive.as_slice()) {
            assert!((x - y).abs() <= 1e-4 * (1.0 + x.abs().max(y.abs())));
        }
        assert_bits(
            &format!("{build} mutant off"),
            &gemm::matmul(&a, &b),
            &naive,
        );
    });
}

rt::prop! {
    #![cases(96)]

    /// Fuzz: random shapes (including 0-dims) with sprinkled special
    /// values, under each build. Kernels must never panic, must stay
    /// bitwise equal to the strict naive oracle on every non-NaN
    /// element and produce NaN exactly where it does, and NaN rows must
    /// propagate like the oracle (no zero-skip may swallow them). The
    /// sign and payload of a NaN are not compared: Rust leaves them
    /// unspecified, and LLVM may commute an `fadd` in either function.
    fn fuzz_shapes_and_special_values(
        m in 0usize..10, k in 0usize..10, n in 0usize..10, seed in 0u64..100_000
    ) {
        let _g = kernel_globals();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = init::uniform(&mut rng, m, k, 1.0);
        let mut b = init::uniform(&mut rng, k, n, 1.0);
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0];
        for _ in 0..3 {
            if m * k > 0 {
                let idx = rng.gen_range(0..m * k);
                a.as_mut_slice()[idx] = specials[rng.gen_range(0..specials.len())];
            }
            if k * n > 0 {
                let idx = rng.gen_range(0..k * n);
                b.as_mut_slice()[idx] = specials[rng.gen_range(0..specials.len())];
            }
        }
        let naive = gemm::matmul_naive(&a, &b);
        for_each_build(|build| {
            let packed = gemm::matmul(&a, &b);
            prop_assert!(packed.shape() == (m, n));
            for i in 0..m {
                for j in 0..n {
                    let (x, y) = (packed[(i, j)], naive[(i, j)]);
                    let same = if y.is_nan() {
                        x.is_nan()
                    } else {
                        x.to_bits() == y.to_bits()
                    };
                    prop_assert!(
                        same,
                        "{build} m={m} k={k} n={n} i={i} j={j}: {x:?} ({:#010x}) vs {y:?} ({:#010x})",
                        x.to_bits(),
                        y.to_bits()
                    );
                }
            }
            // NaN propagation: a NaN anywhere in row i of A taints the
            // whole output row (every element's chain crosses every p).
            if n > 0 {
                for i in 0..m {
                    if a.row(i).iter().any(|v| v.is_nan()) {
                        prop_assert!(
                            packed.row(i).iter().all(|v| v.is_nan()),
                            "{build}: row {i} lost its NaN taint"
                        );
                    }
                }
            }
        });
    }
}
