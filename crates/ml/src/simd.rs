//! Explicit lane-chunked f32 kernels that autovectorize, and the one
//! run-time dispatch to wider instruction sets.
//!
//! The hot inference loops (conv windows, dense heads, token-table
//! accumulation) all reduce to a few element-wise primitive shapes.
//! Writing them once with `chunks_exact(LANES)` bodies over fixed-size
//! lane groups gives LLVM a trip count it can turn into packed
//! arithmetic, with a scalar tail for ragged lengths — no `std::simd`
//! (unstable). Under the default x86-64 target that is SSE2.
//!
//! A kernel worth compiling wider implements [`Kernel`] with an
//! `#[inline(always)]` body and runs through [`run_at`]: the body is
//! inlined into a plain instantiation and, on x86-64, into AVX2 and
//! AVX-512F `#[target_feature]` twins, and [`Level::best`], a CPU check
//! made once per process, names the widest one the CPU executes. The
//! guarded call into a twin, in [`run_at`], is the one `unsafe` every
//! such kernel shares.
//! There is no flag, environment variable or cargo feature: the build's
//! baseline target is the plain instantiation, and it stays the
//! reference the twins are tested against.
//!
//! Numerics contract: every lane kernel here is element-wise, so it is
//! **bit-identical** to the naive loop it replaces — chunking never
//! re-associates a sum that lands in one output element. A dispatched
//! kernel's instantiations run the same operations in the same order
//! (Rust never contracts `a * b + c` into a fused multiply-add), so they
//! are bit-identical to each other too.

#[cfg(target_arch = "x86_64")]
use std::sync::OnceLock;

/// Lane-group width the chunked loops are written for. Under the default
/// x86-64 target eight f32 lanes fill two SSE2 registers, which LLVM
/// packs.
pub const LANES: usize = 8;

/// An instruction-set level a [`Kernel`] is compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The build's baseline target (SSE2 on x86-64): the reference.
    Plain,
    /// x86-64 with AVX2.
    Avx2,
    /// x86-64 with AVX-512F.
    Avx512,
}

impl Level {
    /// Every level, narrowest first.
    pub const ALL: [Level; 3] = [Level::Plain, Level::Avx2, Level::Avx512];

    /// Short lowercase name, as test reports print it.
    pub fn name(self) -> &'static str {
        match self {
            Level::Plain => "plain",
            Level::Avx2 => "avx2",
            Level::Avx512 => "avx512",
        }
    }

    /// Whether this CPU executes the level.
    pub fn supported(self) -> bool {
        self <= Level::best()
    }

    /// The widest level this CPU executes, detected on the first call.
    pub fn best() -> Level {
        #[cfg(target_arch = "x86_64")]
        {
            static BEST: OnceLock<Level> = OnceLock::new();
            *BEST.get_or_init(|| {
                let avx2 = is_x86_feature_detected!("avx2");
                // Enabling `avx512f` also enables AVX2, FMA and F16C in the
                // twin, so the level needs all four.
                if avx2
                    && is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("fma")
                    && is_x86_feature_detected!("f16c")
                {
                    Level::Avx512
                } else if avx2 {
                    Level::Avx2
                } else {
                    Level::Plain
                }
            })
        }
        #[cfg(not(target_arch = "x86_64"))]
        Level::Plain
    }

    /// Every level this CPU executes, narrowest first.
    pub fn available() -> Vec<Level> {
        Level::ALL.into_iter().filter(|l| l.supported()).collect()
    }
}

/// A kernel compiled once per [`Level`]. `run` must be
/// `#[inline(always)]`, and so must everything on its hot path: only code
/// inlined into a `#[target_feature]` twin is compiled for that twin's
/// instruction set.
pub trait Kernel {
    /// What the kernel returns.
    type Output;

    /// The kernel's one source body.
    fn run(self) -> Self::Output;
}

/// Run `kernel` as compiled for `level`: [`Level::best`] in production,
/// any level of [`Level::available`] in the tests that compare them.
///
/// # Panics
///
/// Panics when this CPU does not execute `level`.
#[inline]
pub fn run_at<K: Kernel>(level: Level, kernel: K) -> K::Output {
    assert!(level.supported(), "this CPU does not execute {}", level.name());
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the assertion above detected the twin's features on this CPU.
    unsafe {
        match level {
            Level::Avx512 => return run_avx512(kernel),
            Level::Avx2 => return run_avx2(kernel),
            Level::Plain => {}
        }
    }
    kernel.run()
}

/// [`Kernel::run`] compiled with AVX2 enabled.
///
/// # Safety
///
/// The CPU must execute AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn run_avx2<K: Kernel>(kernel: K) -> K::Output {
    kernel.run()
}

/// [`Kernel::run`] compiled with AVX-512F (and the AVX2, FMA and F16C it
/// implies) enabled.
///
/// # Safety
///
/// The CPU must execute AVX-512F, AVX2, FMA and F16C.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn run_avx512<K: Kernel>(kernel: K) -> K::Output {
    kernel.run()
}

/// `y[i] += a * x[i]` — element-wise, bit-identical to the scalar loop.
///
/// This is the workhorse of the transposed conv/linear kernels: the
/// caller streams one input component `a` against a contiguous row of
/// per-output-channel weights `x`, accumulating into the output row `y`.
///
/// # Panics
///
/// Panics when `x` and `y` differ in length.
#[inline]
pub fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    let split = x.len() - x.len() % LANES;
    let (x_main, x_tail) = x.split_at(split);
    let (y_main, y_tail) = y.split_at_mut(split);
    for (yc, xc) in y_main.chunks_exact_mut(LANES).zip(x_main.chunks_exact(LANES)) {
        for i in 0..LANES {
            yc[i] += a * xc[i];
        }
    }
    for (yi, &xi) in y_tail.iter_mut().zip(x_tail) {
        *yi += a * xi;
    }
}

/// Four fused axpy passes over four consecutive rows of `x`:
/// `y[i] += a[0]·x₀[i]; y[i] += a[1]·x₁[i]; y[i] += a[2]·x₂[i];
/// y[i] += a[3]·x₃[i]` where `xⱼ = x[j·y.len()..(j+1)·y.len()]`.
///
/// Each output element receives the same four additions in the same
/// order as four sequential [`axpy`] calls — **bit-identical** — but the
/// output chunk is loaded and stored once instead of four times. In the
/// transposed conv/linear kernels the output-row traffic dominates the
/// weight traffic 2:1, so this fusion is where most of the window-kernel
/// time goes.
///
/// # Panics
///
/// Panics when `x.len() != 4 * y.len()`.
#[inline]
pub fn axpy4(a: [f32; 4], x: &[f32], y: &mut [f32]) {
    let n = y.len();
    assert_eq!(x.len(), 4 * n, "axpy4 expects four rows of y.len()");
    let (x0, rest) = x.split_at(n);
    let (x1, rest) = rest.split_at(n);
    let (x2, x3) = rest.split_at(n);
    let split = n - n % LANES;
    for c in 0..split / LANES {
        let base = c * LANES;
        let yc = &mut y[base..base + LANES];
        let c0 = &x0[base..base + LANES];
        let c1 = &x1[base..base + LANES];
        let c2 = &x2[base..base + LANES];
        let c3 = &x3[base..base + LANES];
        for i in 0..LANES {
            let mut v = yc[i];
            v += a[0] * c0[i];
            v += a[1] * c1[i];
            v += a[2] * c2[i];
            v += a[3] * c3[i];
            yc[i] = v;
        }
    }
    for i in split..n {
        let mut v = y[i];
        v += a[0] * x0[i];
        v += a[1] * x1[i];
        v += a[2] * x2[i];
        v += a[3] * x3[i];
        y[i] = v;
    }
}

/// `y[i] += x[i]` — element-wise, bit-identical to the scalar loop.
///
/// # Panics
///
/// Panics when `x` and `y` differ in length.
#[inline]
pub fn add_assign(y: &mut [f32], x: &[f32]) {
    assert_eq!(x.len(), y.len(), "add_assign length mismatch");
    let split = x.len() - x.len() % LANES;
    let (x_main, x_tail) = x.split_at(split);
    let (y_main, y_tail) = y.split_at_mut(split);
    for (yc, xc) in y_main.chunks_exact_mut(LANES).zip(x_main.chunks_exact(LANES)) {
        for i in 0..LANES {
            yc[i] += xc[i];
        }
    }
    for (yi, &xi) in y_tail.iter_mut().zip(x_tail) {
        *yi += xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn randvec(rng: &mut ChaCha8Rng, n: usize) -> Vec<f32> {
        (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect()
    }

    /// axpy must be bit-identical to the scalar loop for every length
    /// around the lane boundary.
    #[test]
    fn axpy_is_bit_identical_to_scalar() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for n in [0usize, 1, 7, 8, 9, 16, 17, 63, 64, 100] {
            let x = randvec(&mut rng, n);
            let base = randvec(&mut rng, n);
            let a = rng.gen_range(-1.5..1.5f32);
            let mut fast = base.clone();
            axpy(a, &x, &mut fast);
            let mut slow = base.clone();
            for (yi, &xi) in slow.iter_mut().zip(&x) {
                *yi += a * xi;
            }
            for (f, s) in fast.iter().zip(&slow) {
                assert_eq!(f.to_bits(), s.to_bits(), "n={n}");
            }
        }
    }

    /// axpy4 must be bit-identical to four sequential axpy calls across
    /// lane-boundary lengths.
    #[test]
    fn axpy4_is_bit_identical_to_four_axpys() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for n in [1usize, 7, 8, 9, 16, 17, 63, 64, 100] {
            let rows = randvec(&mut rng, 4 * n);
            let base = randvec(&mut rng, n);
            let a = [
                rng.gen_range(-1.5..1.5f32),
                rng.gen_range(-1.5..1.5f32),
                rng.gen_range(-1.5..1.5f32),
                rng.gen_range(-1.5..1.5f32),
            ];
            let mut fused = base.clone();
            axpy4(a, &rows, &mut fused);
            let mut seq = base.clone();
            for (j, &aj) in a.iter().enumerate() {
                axpy(aj, &rows[j * n..(j + 1) * n], &mut seq);
            }
            for (f, s) in fused.iter().zip(&seq) {
                assert_eq!(f.to_bits(), s.to_bits(), "n={n}");
            }
        }
    }

    /// A toy dispatched kernel with the shapes that could tempt a
    /// compiler to change the rounding under wider features: a blocked
    /// multiply-add chain per output, a subtraction and a division.
    struct Toy<'a> {
        x: &'a [f32],
        w: &'a [f32],
        out: &'a mut Vec<f32>,
    }

    impl Kernel for Toy<'_> {
        type Output = usize;

        #[inline(always)]
        fn run(self) -> usize {
            const BLOCK: usize = 64;
            self.out.clear();
            for (xb, wb) in self.x.chunks_exact(BLOCK).zip(self.w.chunks_exact(BLOCK)) {
                let mut acc = [0.0f32; BLOCK];
                for c in 0..4 {
                    for (a, (&x, &w)) in acc.iter_mut().zip(xb.iter().zip(wb)) {
                        *a += x * w * (c as f32 + 0.5) + x;
                    }
                }
                self.out.extend(acc.iter().zip(xb).map(|(&a, &x)| (a - 2.0 * x) / (1.5 + x * x)));
            }
            self.out.len()
        }
    }

    /// Every level this CPU executes runs the toy kernel bit-identically
    /// to the plain instantiation.
    #[test]
    fn every_supported_level_matches_plain_bit_for_bit() {
        let levels = Level::available();
        let names: Vec<_> = levels.iter().map(|l| l.name()).collect();
        println!("simd dispatch vs plain, levels compared: {names:?}");
        assert_eq!(levels.first(), Some(&Level::Plain));
        assert_eq!(levels.last(), Some(&Level::best()));
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for n in [0usize, 64, 640] {
            let x = randvec(&mut rng, n);
            let w = randvec(&mut rng, n);
            let mut want = Vec::new();
            assert_eq!(run_at(Level::Plain, Toy { x: &x, w: &w, out: &mut want }), n);
            let same = |got: &[f32]| got.iter().zip(&want).all(|(g, w)| g.to_bits() == w.to_bits());
            let mut got = Vec::new();
            for level in levels.iter().copied() {
                assert_eq!(run_at(level, Toy { x: &x, w: &w, out: &mut got }), n);
                assert!(same(&got), "{} differs from plain at n={n}", level.name());
            }
        }
    }

    /// A level this CPU lacks is refused, never run.
    #[test]
    fn unsupported_levels_are_refused() {
        for level in Level::ALL.into_iter().filter(|l| !l.supported()) {
            let toy = || run_at(level, Toy { x: &[], w: &[], out: &mut Vec::new() });
            assert!(std::panic::catch_unwind(toy).is_err(), "{} ran", level.name());
        }
    }

    #[test]
    fn add_assign_is_bit_identical_to_scalar() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for n in [0usize, 1, 8, 9, 31, 32, 65] {
            let x = randvec(&mut rng, n);
            let base = randvec(&mut rng, n);
            let mut fast = base.clone();
            add_assign(&mut fast, &x);
            let mut slow = base.clone();
            for (yi, &xi) in slow.iter_mut().zip(&x) {
                *yi += xi;
            }
            for (f, s) in fast.iter().zip(&slow) {
                assert_eq!(f.to_bits(), s.to_bits(), "n={n}");
            }
        }
    }
}
