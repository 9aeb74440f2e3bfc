//! Element-wise f32 lane kernels that autovectorize, and the one run-time
//! dispatch to wider instruction sets.
//!
//! The hot training loops (dense-layer input gradients, conv input and
//! weight gradients, token-table accumulation) reduce to a few
//! element-wise primitive shapes. [`axpy`] is a plain per-element loop
//! over zipped slices: LLVM sees unit-stride streams and emits packed
//! loads, arithmetic and stores, with a scalar tail for ragged lengths —
//! no `std::simd` (unstable). Under the default x86-64 target that is
//! SSE2. Do not cut several input rows into `chunks_exact(LANES)` bodies
//! with an inner lane loop: LLVM vectorizes that shape as a stride-8
//! interleave group, loading every element with `movss` and stitching the
//! vectors together, 4–6× slower from 100 elements up. [`add_assign`]
//! reads one input row, so its lane-chunked body compiles to packed loads
//! too, and its unrolled tail is the faster one at the 6-wide rows of
//! MalGCG's token table. The dense forward
//! ([`Linear::forward`](crate::Linear::forward)) is a dot product per
//! output over its own weight row, not a lane kernel.
//!
//! The conv window forward ([`ConvXposed`](crate::ConvXposed)) is not
//! element-wise: it keeps each [`LANES`]-wide group of output channels in
//! registers for the whole patch.
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
//! **bit-identical** to the naive loop it replaces — vectorizing never
//! re-associates a sum that lands in one output element. A dispatched
//! kernel's instantiations run the same operations in the same order
//! (Rust never contracts `a * b + c` into a fused multiply-add), so they
//! are bit-identical to each other too.

#[cfg(target_arch = "x86_64")]
use std::sync::OnceLock;

/// Lane-group width of [`add_assign`]'s chunks and of the conv window
/// forward's register groups. Under the default x86-64 target eight f32
/// lanes fill two SSE2 registers.
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

/// `y[i] += a * x[i]`, one element at a time.
///
/// This is the workhorse of the dense-layer input gradient, the conv
/// input gradient and the weight gradients: the caller streams one input
/// component `a` against a contiguous row `x`, accumulating into `y`.
///
/// # Panics
///
/// Panics when `x` and `y` differ in length.
#[inline]
pub fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
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

    /// Operands that take IEEE-754's special paths: signed zeros,
    /// subnormals, infinities, NaN and the largest finite value.
    const SPECIAL: [f32; 10] = [
        0.0,
        -0.0,
        1e-40,
        -1e-40,
        f32::MIN_POSITIVE,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::MAX,
        -1.0,
    ];

    /// `randvec` with about one element in four drawn from [`SPECIAL`].
    fn mixed_vec(rng: &mut ChaCha8Rng, n: usize) -> Vec<f32> {
        (0..n)
            .map(|_| {
                if rng.gen_range(0..4) == 0 {
                    SPECIAL[rng.gen_range(0..SPECIAL.len())]
                } else {
                    rng.gen_range(-2.0..2.0)
                }
            })
            .collect()
    }

    /// Bit equality, except that any NaN equals any NaN: Rust leaves the
    /// payload of a NaN result unspecified, so an operand swap the
    /// compiler may make can change it.
    fn same_bits(got: &[f32], want: &[f32]) -> bool {
        let same = |(g, w): (&f32, &f32)| g.to_bits() == w.to_bits() || g.is_nan() && w.is_nan();
        got.len() == want.len() && got.iter().zip(want).all(same)
    }

    /// The lengths the kernels run at: lane-boundary lengths, MalGCG's
    /// 6-channel rows, the conv and MLP widths (8, 24, 105, 128, 256) and
    /// a long 2048.
    const LENGTHS: [usize; 17] =
        [0, 1, 6, 7, 8, 9, 16, 17, 24, 63, 64, 100, 105, 128, 256, 1000, 2048];

    /// axpy must be bit-identical to the scalar loop at every length the
    /// kernels use, for special operands too.
    #[test]
    fn axpy_is_bit_identical_to_scalar() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for n in LENGTHS {
            let scalars = SPECIAL.into_iter().chain([rng.gen_range(-1.5..1.5f32)]);
            for a in scalars {
                let x = mixed_vec(&mut rng, n);
                let base = mixed_vec(&mut rng, n);
                let mut fast = base.clone();
                axpy(a, &x, &mut fast);
                let mut slow = base.clone();
                for i in 0..n {
                    slow[i] += a * x[i];
                }
                assert!(same_bits(&fast, &slow), "n={n} a={a}");
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
        for n in LENGTHS {
            let x = mixed_vec(&mut rng, n);
            let base = mixed_vec(&mut rng, n);
            let mut fast = base.clone();
            add_assign(&mut fast, &x);
            let mut slow = base.clone();
            for i in 0..n {
                slow[i] += x[i];
            }
            assert!(same_bits(&fast, &slow), "n={n}");
        }
    }
}
