//! Fully-connected layer.

use crate::param::ParamBuf;
use crate::simd;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense layer `in_dim → out_dim` operating on single vectors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Linear {
    /// Weights, `[out_dim][in_dim]` flattened.
    pub weight: ParamBuf,
    /// Per-output bias.
    pub bias: ParamBuf,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// New layer with Xavier-style uniform init.
    pub fn new<R: Rng + ?Sized>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        let scale = (1.0 / in_dim as f32).sqrt();
        Linear {
            weight: ParamBuf::uniform(out_dim * in_dim, scale, rng),
            bias: ParamBuf::new(vec![0.0; out_dim]),
            in_dim,
            out_dim,
        }
    }

    /// Reconstruct a layer from serialized weights (e.g. a weight
    /// snapshot). Optimizer moments start fresh, which is exact for
    /// inference-only use.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent shapes.
    pub fn from_weights(in_dim: usize, out_dim: usize, weight: Vec<f32>, bias: Vec<f32>) -> Self {
        assert_eq!(weight.len(), out_dim * in_dim, "linear weight shape mismatch");
        assert_eq!(bias.len(), out_dim, "linear bias shape mismatch");
        Linear { weight: ParamBuf::new(weight), bias: ParamBuf::new(bias), in_dim, out_dim }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Component-major (transposed) copy of the weights, `wt[i][o]`
    /// flattened — the layout [`Linear::forward`] streams through
    /// [`simd::axpy`].
    fn weight_xposed(&self) -> Vec<f32> {
        let mut wt = vec![0.0f32; self.in_dim * self.out_dim];
        for o in 0..self.out_dim {
            let row = &self.weight.w[o * self.in_dim..(o + 1) * self.in_dim];
            for (i, &v) in row.iter().enumerate() {
                wt[i * self.out_dim + o] = v;
            }
        }
        wt
    }

    /// `y = W x + b` through a prebuilt transposed weight copy
    /// ([`Linear::weight_xposed`]). Per-output accumulation visits input
    /// components in the same ascending order as a row-major loop, so the
    /// result is bit-identical to it while the inner loop runs across
    /// outputs and autovectorizes.
    ///
    /// # Panics
    ///
    /// Panics when `x`, `y`, or `wt` shapes mismatch the layer.
    fn forward_xposed_into(&self, wt: &[f32], x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.in_dim, "linear input dimension mismatch");
        assert_eq!(y.len(), self.out_dim, "linear output dimension mismatch");
        assert_eq!(wt.len(), self.in_dim * self.out_dim, "transposed weight shape mismatch");
        y.copy_from_slice(&self.bias.w);
        // Four input components per pass (bit-identical fusion — see
        // `simd::axpy4`), plain axpy for the ragged tail.
        let quads = self.in_dim / 4 * 4;
        for i in (0..quads).step_by(4) {
            let a = [x[i], x[i + 1], x[i + 2], x[i + 3]];
            simd::axpy4(a, &wt[i * self.out_dim..(i + 4) * self.out_dim], y);
        }
        for i in quads..self.in_dim {
            simd::axpy(x[i], &wt[i * self.out_dim..(i + 1) * self.out_dim], y);
        }
    }

    /// `y = W x + b`.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != in_dim`.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        let wt = self.weight_xposed();
        let mut y = vec![0.0f32; self.out_dim];
        self.forward_xposed_into(&wt, x, &mut y);
        y
    }

    /// Accumulate weight/bias gradients and return the input gradient.
    pub fn backward(&mut self, x: &[f32], grad_out: &[f32]) -> Vec<f32> {
        debug_assert_eq!(grad_out.len(), self.out_dim);
        let mut grad_x = vec![0.0f32; self.in_dim];
        for (o, &g) in grad_out.iter().enumerate() {
            self.bias.g[o] += g;
            let row = &self.weight.w[o * self.in_dim..(o + 1) * self.in_dim];
            let grow = &mut self.weight.g[o * self.in_dim..(o + 1) * self.in_dim];
            simd::axpy(g, x, grow);
            simd::axpy(g, row, &mut grad_x);
        }
        grad_x
    }

    /// Input-gradient-only backward: accumulate `Wᵀ · grad_out` into
    /// `grad_x` without touching parameter gradients (the input gradient
    /// needs only the weights, so the layer stays immutable — no scratch
    /// clone for frozen-model differentiation).
    pub fn backward_input(&self, grad_out: &[f32], grad_x: &mut [f32]) {
        assert_eq!(grad_out.len(), self.out_dim, "output gradient dimension mismatch");
        assert_eq!(grad_x.len(), self.in_dim, "input gradient dimension mismatch");
        for (o, &g) in grad_out.iter().enumerate() {
            let row = &self.weight.w[o * self.in_dim..(o + 1) * self.in_dim];
            simd::axpy(g, row, grad_x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn forward_matches_manual() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut l = Linear::new(2, 2, &mut rng);
        l.weight.w = vec![1.0, 2.0, 3.0, 4.0];
        l.bias.w = vec![0.5, -0.5];
        let y = l.forward(&[1.0, 1.0]);
        assert_eq!(y, vec![3.5, 6.5]);
    }

    #[test]
    fn gradient_check() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut l = Linear::new(4, 3, &mut rng);
        let x: Vec<f32> = (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let y = l.forward(&x);
        let grad_out = vec![1.0f32; y.len()];
        l.weight.zero_grad();
        l.bias.zero_grad();
        let grad_x = l.backward(&x, &grad_out);
        let objective = |l: &Linear, x: &[f32]| -> f32 { l.forward(x).iter().sum() };
        let eps = 1e-3;
        for idx in 0..l.weight.len() {
            let mut lp = l.clone();
            lp.weight.w[idx] += eps;
            let mut lm = l.clone();
            lm.weight.w[idx] -= eps;
            let num = (objective(&lp, &x) - objective(&lm, &x)) / (2.0 * eps);
            assert!((num - l.weight.g[idx]).abs() < 1e-2);
        }
        for idx in 0..4 {
            let mut xp = x.clone();
            xp[idx] += eps;
            let mut xm = x.clone();
            xm[idx] -= eps;
            let num = (objective(&l, &xp) - objective(&l, &xm)) / (2.0 * eps);
            assert!((num - grad_x[idx]).abs() < 1e-2);
        }
    }

    #[test]
    fn backward_input_matches_full_backward() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut l = Linear::new(5, 3, &mut rng);
        let x: Vec<f32> = (0..5).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let grad_out = vec![0.3f32, -1.2, 0.0];
        l.weight.zero_grad();
        l.bias.zero_grad();
        let full = l.backward(&x, &grad_out);
        let mut fast = vec![0.0f32; 5];
        l.backward_input(&grad_out, &mut fast);
        assert_eq!(full, fast);
    }

    /// The transposed kernel must be bit-identical to the row-major
    /// reference across shapes that exercise lane tails.
    #[test]
    fn transposed_forward_is_bit_identical_to_row_major() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        for (in_dim, out_dim) in [(1usize, 1usize), (4, 3), (16, 16), (32, 7), (7, 33)] {
            let l = Linear::new(in_dim, out_dim, &mut rng);
            let x: Vec<f32> = (0..in_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let got = l.forward(&x);
            let mut reference = l.bias.w.clone();
            for (o, yo) in reference.iter_mut().enumerate() {
                let row = &l.weight.w[o * in_dim..(o + 1) * in_dim];
                for (w, xi) in row.iter().zip(&x) {
                    *yo += w * xi;
                }
            }
            for (g, r) in got.iter().zip(&reference) {
                assert_eq!(g.to_bits(), r.to_bits(), "{in_dim}x{out_dim}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_input_size_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let l = Linear::new(3, 1, &mut rng);
        let _ = l.forward(&[0.0; 5]);
    }
}
