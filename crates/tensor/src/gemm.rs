//! General matrix multiplication kernels.
//!
//! Two implementations are provided:
//!
//! * [`matmul_naive`] — the textbook triple loop, kept as the
//!   correctness *and accumulation-order* oracle for tests and property
//!   checks.
//! * [`matmul`] / [`matmul_bias`] / [`matmul_at_b`] / [`matmul_a_bt`] —
//!   one packed, register-tiled kernel family sharing a single
//!   [`gemm_driver`](self) behind the four public shapes
//!   backpropagation needs, so no call site materializes a transpose.
//!
//! # Kernel layout
//!
//! Each call packs the operands once: logical `A` (`m×k`) into row
//! panels of `MR` rows stored k-major (`apack[p*MR + i] = A[i0+i, p]`)
//! and logical `B` (`k×n`) into column panels of [`NR`] columns stored
//! k-major (`bpack[p*NR + j] = B[p, j0+j]`). A microkernel then walks
//! both panels contiguously, carrying the full `MR×NR` tile of `C` in a
//! register accumulator array. The fixed-shape inner loops are plain
//! mul/add chains over independent accumulators, which LLVM
//! auto-vectorizes without reordering any single chain (no fast-math is
//! enabled anywhere in the workspace). Edge tiles are zero-padded in
//! the packed buffers and only the valid `h×w` region is copied out, so
//! padding lanes never touch a real output element.
//!
//! # Per-ISA builds
//!
//! The packing, the panel loop and the microkernel are written once,
//! generic over the tile height `MR`, and compiled twice (see
//! [`Kernel`]):
//!
//! * **Portable, 4×8** — the workspace's baseline target (SSE2 on
//!   x86-64: sixteen 4-wide registers). Eight accumulator registers
//!   leave room for operands; an 8×8 tile would spill.
//! * **AVX2, 8×8** — the same code instantiated inside a
//!   `#[target_feature(enable = "avx2")]` function, so each tile row
//!   is one 8-wide register and the 8×8 tile fits in the sixteen YMM
//!   registers with room for the A broadcast and the B load.
//!
//! [`kernel`] picks the build once per process with
//! `is_x86_feature_detected!("avx2")`; non-x86-64 hosts always run the
//! portable build. AVX2 does not imply FMA and FMA is never enabled, so
//! both builds issue the same separately rounded multiply and add per
//! step and return the same bits. The choice is not configurable.
//!
//! # Determinism contract
//!
//! Every output element is produced by **one** f32 accumulator updated
//! as `acc = acc + A[i,p] * B[p,j]` for `p = 0, 1, …, k-1`, in that
//! order — exactly the operation sequence of [`matmul_naive`]. Every
//! call computes its panels on the caller's thread, and the tile shape
//! only decides *which* elements are in flight together, so results are
//! bit-identical:
//!
//! * to [`matmul_naive`] (and the transposed-naive references for the
//!   fused variants),
//! * across repeated runs in one process,
//! * across the portable and AVX2 builds.
//!
//! The one exception is the sign and payload of a NaN. Rust leaves them
//! unspecified and LLVM may commute an `fadd`, so where the oracle
//! produces a NaN the kernels produce *a* NaN, possibly of the other
//! sign. Every non-NaN element is pinned bit for bit.
//!
//! `crates/tensor/tests/gemm_oracle.rs` pins the first property over an
//! exhaustive shape grid and `tests/gemm_determinism.rs` pins the rest,
//! including a seeded broken-accumulation-order mutant that must be
//! caught; both run every check under each build.

use crate::Matrix;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Microkernel tile width: columns of `C` carried per register tile,
/// in every build. The tile height depends on the build; see
/// [`Kernel`].
pub const NR: usize = 8;

/// Tile height of the portable build.
const MR_PORTABLE: usize = 4;
/// Tile height of the AVX2 build.
const MR_AVX2: usize = 8;

/// A compiled build of the packed kernel. Both builds run the same
/// source and return the same bits; they differ in tile height and in
/// the instructions LLVM may use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// 4×8 tile for the baseline target; the build on hosts without
    /// AVX2.
    Portable,
    /// 8×8 tile compiled with AVX2 enabled; chosen only on x86-64
    /// hosts whose CPU reports AVX2.
    Avx2,
}

impl Kernel {
    /// Computes every row panel of `C` into `out` with this build.
    fn compute_panels(self, job: &Job<'_>, out: &mut [f32]) {
        match self {
            Kernel::Portable => compute_panels::<MR_PORTABLE>(job, out),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the only caller, `gemm_driver`, passes the value
            // of `kernel()`, which is `Avx2` only after
            // `is_x86_feature_detected!("avx2")` reported AVX2.
            Kernel::Avx2 => unsafe { compute_panels_avx2(job, out) },
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::Avx2 => unreachable!("AVX2 build selected off x86-64"),
        }
    }
}

/// Test-only sabotage switch; see [`_set_broken_accumulation_order`].
static BROKEN_ORDER: AtomicBool = AtomicBool::new(false);

/// Test-only build override; see [`_force_portable_kernel`].
static FORCE_PORTABLE: AtomicBool = AtomicBool::new(false);

/// Accepts and ignores a lane count: every call runs on the caller's
/// thread. Kept only because the `searchbench` harness calls it.
#[doc(hidden)]
pub fn set_threads(_n: usize) {}

/// Always 1: every call runs on the caller's thread. Kept only because
/// the `searchbench` harness reports it.
#[doc(hidden)]
pub fn threads() -> usize {
    1
}

/// Test hook: when enabled, the microkernel walks the `k` reduction in
/// *descending* order — numerically plausible, bitwise wrong. The
/// determinism suite flips this on to prove the bit-identity oracle
/// actually detects accumulation-order drift. Never enable outside
/// tests.
#[doc(hidden)]
pub fn _set_broken_accumulation_order(on: bool) {
    BROKEN_ORDER.store(on, Ordering::SeqCst);
}

/// Test hook: when enabled, every call runs the portable build even on
/// an AVX2 host, so the test suites can pin both builds on one machine.
/// Never enable outside tests.
#[doc(hidden)]
pub fn _force_portable_kernel(on: bool) {
    FORCE_PORTABLE.store(on, Ordering::SeqCst);
}

/// The build this process's calls run: [`Kernel::Avx2`] when the CPU
/// reports AVX2, else [`Kernel::Portable`]. Detected once per process.
pub fn kernel() -> Kernel {
    static DETECTED: OnceLock<Kernel> = OnceLock::new();
    if FORCE_PORTABLE.load(Ordering::Relaxed) {
        return Kernel::Portable;
    }
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Kernel::Avx2;
        }
        Kernel::Portable
    })
}

/// Multiplies `a * b` with the textbook triple loop.
///
/// This is the correctness oracle for the packed kernels, and its
/// accumulation order is normative: one accumulator per output element,
/// updated over `p` ascending. The packed kernels reproduce that order
/// exactly, so tests compare against it **bitwise**. (There is no
/// zero-skip here: skipping `0.0 * x` terms would change NaN/inf
/// propagation and break the shared-order contract.)
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul_naive: inner dimensions differ ({} vs {})",
        a.cols(),
        b.rows()
    );
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        for p in 0..k {
            let aip = a[(i, p)];
            let brow = b.row(p);
            let crow = c.row_mut(i);
            for j in 0..n {
                crow[j] += aip * brow[j];
            }
        }
    }
    c
}

/// Multiplies `a * b` with the packed, register-tiled production
/// kernel (see the module docs for layout and the determinism
/// contract).
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
///
/// # Example
///
/// ```
/// use ecad_tensor::{Matrix, gemm};
/// let a = Matrix::from_rows(&[[1.0, 2.0, 3.0]]);
/// let b = Matrix::from_rows(&[[1.0], [1.0], [1.0]]);
/// assert_eq!(gemm::matmul(&a, &b)[(0, 0)], 6.0);
/// ```
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let _prof = rt::prof_span!("gemm");
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul: inner dimensions differ ({} vs {})",
        a.cols(),
        b.rows()
    );
    gemm_driver(a, false, b, false, None)
}

/// Computes `a * b + bias` where `bias` is a length-`n` vector broadcast
/// across rows — the fused layer-forward kernel. The bias add happens
/// once per output element *after* the accumulation chain, matching
/// `matmul(a, b)` then adding `bias` elementwise.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()` or `bias.len() != b.cols()`.
pub fn matmul_bias(a: &Matrix, b: &Matrix, bias: &[f32]) -> Matrix {
    let _prof = rt::prof_span!("gemm_bias");
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul_bias: inner dimensions differ ({} vs {})",
        a.cols(),
        b.rows()
    );
    assert_eq!(bias.len(), b.cols(), "bias length must equal output width");
    gemm_driver(a, false, b, false, Some(bias))
}

/// Computes `a^T * b` without materializing `a^T`.
///
/// Backpropagation uses this shape for weight gradients
/// (`dW = X^T * dY`). Bitwise equal to
/// `matmul_naive(&a.transposed(), b)`.
///
/// # Panics
///
/// Panics if `a.rows() != b.rows()`.
pub fn matmul_at_b(a: &Matrix, b: &Matrix) -> Matrix {
    let _prof = rt::prof_span!("gemm_at_b");
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_at_b: row counts differ ({} vs {})",
        a.rows(),
        b.rows()
    );
    gemm_driver(a, true, b, false, None)
}

/// Computes `a * b^T` without materializing `b^T`.
///
/// Backpropagation uses this shape to push deltas through a layer
/// (`dX = dY * W^T`). Bitwise equal to
/// `matmul_naive(a, &b.transposed())`.
///
/// # Panics
///
/// Panics if `a.cols() != b.cols()`.
pub fn matmul_a_bt(a: &Matrix, b: &Matrix) -> Matrix {
    let _prof = rt::prof_span!("gemm_a_bt");
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_a_bt: column counts differ ({} vs {})",
        a.cols(),
        b.cols()
    );
    gemm_driver(a, false, b, true, None)
}

/// The one driver behind all four public kernels. `a_trans` /
/// `b_trans` select which operand layout gets packed; dimension
/// agreement is asserted by the callers.
fn gemm_driver(
    a: &Matrix,
    a_trans: bool,
    b: &Matrix,
    b_trans: bool,
    bias: Option<&[f32]>,
) -> Matrix {
    let (m, k) = if a_trans {
        let (k, m) = a.shape();
        (m, k)
    } else {
        a.shape()
    };
    let n = if b_trans { b.rows() } else { b.cols() };
    let mut c = Matrix::zeros(m, n);
    if m == 0 || n == 0 {
        return c;
    }
    if k == 0 {
        // Empty reduction: every element is the 0.0 the naive oracle
        // would produce, plus the bias when present.
        if let Some(bv) = bias {
            for i in 0..m {
                c.row_mut(i).copy_from_slice(bv);
            }
        }
        return c;
    }

    let np = n.div_ceil(NR);

    // Pack every column panel of B once per call; freshly zeroed, so a
    // ragged final panel keeps zero padding in lanes >= w.
    let mut bpack = vec![0.0f32; np * k * NR];
    for jp in 0..np {
        pack_b(b, b_trans, k, n, jp, &mut bpack[jp * k * NR..(jp + 1) * k * NR]);
    }

    let job = Job {
        a,
        a_trans,
        bpack: &bpack,
        bias,
        m,
        k,
        n,
        reverse: BROKEN_ORDER.load(Ordering::Relaxed),
    };
    kernel().compute_panels(&job, c.as_mut_slice());
    c
}

/// The operands and shape of one call, shared by every row panel.
struct Job<'a> {
    a: &'a Matrix,
    a_trans: bool,
    bpack: &'a [f32],
    bias: Option<&'a [f32]>,
    m: usize,
    k: usize,
    n: usize,
    reverse: bool,
}

/// The AVX2 build: [`compute_panels`] and everything it inlines,
/// compiled with AVX2 enabled and an 8-row tile. Callers must first
/// check that the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn compute_panels_avx2(job: &Job<'_>, out: &mut [f32]) {
    compute_panels::<MR_AVX2>(job, out)
}

/// Computes every `MR`-row panel against every column panel into the
/// row-major `m×n` output `out`. `inline(always)` down to the
/// microkernel, so each build's caller compiles the whole loop nest
/// with its own target features.
#[inline(always)]
fn compute_panels<const MR: usize>(job: &Job<'_>, out: &mut [f32]) {
    let &Job {
        a,
        a_trans,
        bpack,
        bias,
        m,
        k,
        n,
        reverse,
    } = job;
    let np = n.div_ceil(NR);
    let mut apack = vec![0.0f32; k * MR];
    let mut acc = [[0.0f32; NR]; MR];
    for i0 in (0..m).step_by(MR) {
        let h = MR.min(m - i0);
        pack_a::<MR>(a, a_trans, k, i0, h, &mut apack);
        for jp in 0..np {
            let j0 = jp * NR;
            let w = NR.min(n - j0);
            let bp = &bpack[jp * k * NR..(jp + 1) * k * NR];
            microkernel(&apack, bp, &mut acc, reverse);
            let rows = out[i0 * n..(i0 + h) * n].chunks_exact_mut(n);
            for (row, tile_row) in rows.zip(&acc) {
                let row = &mut row[j0..j0 + w];
                match bias {
                    Some(bv) => {
                        for j in 0..w {
                            row[j] = tile_row[j] + bv[j0 + j];
                        }
                    }
                    None => row.copy_from_slice(&tile_row[..w]),
                }
            }
        }
    }
}

/// Packs `MR` logical rows of `A` starting at `i0`, k-major:
/// `apack[p*MR + i] = A[i0+i, p]`. Rows past `h` are zero padding.
#[inline(always)]
fn pack_a<const MR: usize>(
    a: &Matrix,
    a_trans: bool,
    k: usize,
    i0: usize,
    h: usize,
    apack: &mut [f32],
) {
    if h < MR {
        apack.fill(0.0);
    }
    if a_trans {
        // a is k×m; logical row i of A^T is column i0+i of a.
        for p in 0..k {
            let src = &a.row(p)[i0..i0 + h];
            apack[p * MR..p * MR + h].copy_from_slice(src);
        }
    } else {
        for i in 0..h {
            let src = a.row(i0 + i);
            for (p, &v) in src.iter().enumerate() {
                apack[p * MR + i] = v;
            }
        }
    }
}

/// Packs `NR` logical columns of `B` starting at `jp*NR`, k-major:
/// `dst[p*NR + j] = B[p, j0+j]`. `dst` arrives zeroed, so a ragged
/// panel keeps zero padding in lanes past `w`.
fn pack_b(b: &Matrix, b_trans: bool, k: usize, n: usize, jp: usize, dst: &mut [f32]) {
    let j0 = jp * NR;
    let w = NR.min(n - j0);
    if b_trans {
        // b is n×k; logical column j of B^T is row j0+j of b.
        for j in 0..w {
            let src = b.row(j0 + j);
            for (p, &v) in src.iter().enumerate() {
                dst[p * NR + j] = v;
            }
        }
    } else {
        for p in 0..k {
            let src = &b.row(p)[j0..j0 + w];
            dst[p * NR..p * NR + w].copy_from_slice(src);
        }
    }
}

/// One `MR×NR` register tile: `acc[i][j] = Σ_p apack[p][i] * bpack[p][j]`
/// with `p` strictly ascending (descending only under the test-only
/// broken-order mutant). Each `acc[i][j]` is a single dependency chain;
/// the compiler vectorizes *across* the `MR×NR` independent chains, which
/// cannot reorder any one of them.
#[inline(always)]
fn microkernel<const MR: usize>(
    apack: &[f32],
    bpack: &[f32],
    acc: &mut [[f32; NR]; MR],
    reverse: bool,
) {
    *acc = [[0.0; NR]; MR];
    let steps = apack.chunks_exact(MR).zip(bpack.chunks_exact(NR));
    if reverse {
        for (av, bv) in steps.rev() {
            microkernel_step(av, bv, acc);
        }
    } else {
        for (av, bv) in steps {
            microkernel_step(av, bv, acc);
        }
    }
}

#[inline(always)]
fn microkernel_step<const MR: usize>(av: &[f32], bv: &[f32], acc: &mut [[f32; NR]; MR]) {
    let av: &[f32; MR] = av.try_into().expect("packed A stride");
    let bv: &[f32; NR] = bv.try_into().expect("packed B stride");
    for i in 0..MR {
        let ai = av[i];
        for j in 0..NR {
            acc[i][j] += ai * bv[j];
        }
    }
}

/// Dot product of two equal-length slices.
///
/// Written with a 4-way unrolled accumulator so LLVM vectorizes it.
/// (The GEMM kernels no longer route through this, but it remains the
/// building block for standalone vector math.)
///
/// # Panics
///
/// Panics if the lengths differ — in every build profile. This used to
/// be a `debug_assert`, which let release builds silently truncate to
/// the shorter operand.
#[inline]
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(
        x.len(),
        y.len(),
        "dot: length mismatch ({} vs {})",
        x.len(),
        y.len()
    );
    let mut acc = [0.0f32; 4];
    let chunks = x.len() / 4;
    for c in 0..chunks {
        let xb = &x[c * 4..c * 4 + 4];
        let yb = &y[c * 4..c * 4 + 4];
        acc[0] += xb[0] * yb[0];
        acc[1] += xb[1] * yb[1];
        acc[2] += xb[2] * yb[2];
        acc[3] += xb[3] * yb[3];
    }
    let mut s = acc[0] + acc[1] + acc[2] + acc[3];
    for i in chunks * 4..x.len() {
        s += x[i] * y[i];
    }
    s
}

/// Number of floating-point operations a GEMM of these dimensions performs
/// (the conventional `2 * m * k * n` count used throughout the paper's
/// roofline math).
pub fn gemm_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * m as u64 * k as u64 * n as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use rt::rand::rngs::StdRng;
    use rt::rand::SeedableRng;

    fn assert_close(a: &Matrix, b: &Matrix, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "{x} vs {y}"
            );
        }
    }

    fn assert_bits(a: &Matrix, b: &Matrix) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    #[test]
    fn naive_identity() {
        let a = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f32);
        let i = Matrix::identity(3);
        assert_eq!(matmul_naive(&a, &i), a);
        assert_eq!(matmul_naive(&i, &a), a);
    }

    #[test]
    fn packed_matches_naive_small() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = init::uniform(&mut rng, 5, 7, 1.0);
        let b = init::uniform(&mut rng, 7, 3, 1.0);
        assert_close(&matmul(&a, &b), &matmul_naive(&a, &b), 1e-5);
    }

    #[test]
    fn packed_matches_naive_bitwise_across_tile_boundary() {
        let mut rng = StdRng::seed_from_u64(11);
        // Shapes straddle the 8-wide register tiles and 64-ish panels.
        let a = init::uniform(&mut rng, 65, 130, 1.0);
        let b = init::uniform(&mut rng, 130, 67, 1.0);
        assert_bits(&matmul(&a, &b), &matmul_naive(&a, &b));
    }

    #[test]
    fn empty_dims_yield_zero_matrix() {
        let a = Matrix::zeros(0, 4);
        let b = Matrix::zeros(4, 3);
        assert_eq!(matmul(&a, &b).shape(), (0, 3));
        let a = Matrix::zeros(2, 0);
        let b = Matrix::zeros(0, 3);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), (2, 3));
        assert!(c.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn dim_mismatch_panics() {
        let _ = matmul(&Matrix::zeros(2, 3), &Matrix::zeros(4, 2));
    }

    #[test]
    fn bias_broadcasts_per_row() {
        let a = Matrix::identity(2);
        let b = Matrix::from_rows(&[[1.0, 2.0], [3.0, 4.0]]);
        let c = matmul_bias(&a, &b, &[10.0, 20.0]);
        assert_eq!(c.row(0), &[11.0, 22.0]);
        assert_eq!(c.row(1), &[13.0, 24.0]);
    }

    #[test]
    fn bias_with_empty_reduction_is_bias_rows() {
        let c = matmul_bias(&Matrix::zeros(3, 0), &Matrix::zeros(0, 2), &[1.5, -2.5]);
        for r in 0..3 {
            assert_eq!(c.row(r), &[1.5, -2.5]);
        }
    }

    #[test]
    fn at_b_matches_explicit_transpose_bitwise() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = init::uniform(&mut rng, 6, 4, 1.0);
        let b = init::uniform(&mut rng, 6, 5, 1.0);
        assert_bits(&matmul_at_b(&a, &b), &matmul_naive(&a.transposed(), &b));
    }

    #[test]
    fn a_bt_matches_explicit_transpose_bitwise() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = init::uniform(&mut rng, 6, 4, 1.0);
        let b = init::uniform(&mut rng, 5, 4, 1.0);
        assert_bits(&matmul_a_bt(&a, &b), &matmul_naive(&a, &b.transposed()));
    }

    #[test]
    fn dot_handles_remainder_lengths() {
        for n in 0..10 {
            let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
            let y = vec![2.0f32; n];
            let expect: f32 = x.iter().sum::<f32>() * 2.0;
            assert!((dot(&x, &y) - expect).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "dot: length mismatch")]
    fn dot_length_mismatch_panics_in_every_profile() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn flops_count() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
        assert_eq!(gemm_flops(0, 3, 4), 0);
    }
}
