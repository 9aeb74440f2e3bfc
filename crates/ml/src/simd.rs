//! Explicit lane-chunked f32 kernels that autovectorize.
//!
//! The hot inference loops (conv windows, dense heads, token-table
//! accumulation) all reduce to a few element-wise primitive shapes.
//! Writing them once with `chunks_exact(LANES)` bodies over fixed-size
//! lane groups gives LLVM a trip count it can turn into packed
//! arithmetic, with a scalar tail for ragged lengths — no `std::simd`
//! (unstable) and no unsafe. Under the default x86-64 target that is
//! SSE2: these kernels are not compiled for AVX or dispatched at run time.
//!
//! Numerics contract: every kernel is element-wise, so it is
//! **bit-identical** to the naive loop it replaces — chunking never
//! re-associates a sum that lands in one output element.

/// Lane-group width the chunked loops are written for. Under the default
/// x86-64 target eight f32 lanes fill two SSE2 registers, which LLVM
/// packs; they would fill one AVX register, but nothing here is built
/// for AVX.
pub const LANES: usize = 8;

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
