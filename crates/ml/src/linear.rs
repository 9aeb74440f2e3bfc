//! Fully-connected layer.

use crate::grads::GradSink;
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

    /// `y = W x + b`: each output starts at its bias and adds
    /// `w[o][i]·x[i]` in ascending `i`, reading its own weight row.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != in_dim`.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.in_dim, "linear input dimension mismatch");
        let n = self.in_dim;
        let mut y = self.bias.w.clone();
        for (o, yo) in y.iter_mut().enumerate() {
            for (w, xi) in self.weight.w[o * n..(o + 1) * n].iter().zip(x) {
                *yo += w * xi;
            }
        }
        y
    }

    /// Backward pass: sends the parameter gradients of every output to
    /// `grads` and, unless `grad_x` is `None` (a first layer, whose input
    /// gradient nobody reads), adds `Wᵀ · grad_out` into it.
    ///
    /// # Panics
    ///
    /// Panics when `grad_out` or `grad_x` shapes mismatch the layer.
    pub fn backward<S: GradSink>(
        &self,
        x: &[f32],
        grad_out: &[f32],
        mut grad_x: Option<&mut [f32]>,
        grads: &mut S,
    ) {
        assert_eq!(grad_out.len(), self.out_dim, "output gradient dimension mismatch");
        if let Some(gx) = &grad_x {
            assert_eq!(gx.len(), self.in_dim, "input gradient dimension mismatch");
        }
        for (o, &g) in grad_out.iter().enumerate() {
            grads.add(o, g, || x);
            if let Some(gx) = grad_x.as_deref_mut() {
                simd::axpy(g, &self.weight.w[o * self.in_dim..(o + 1) * self.in_dim], gx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grads::{Grads, NoGrads};
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

    /// The backward with [`Grads`]: returns `∂L/∂x` and leaves the
    /// parameter gradients in `l`.
    fn backward(l: &mut Linear, x: &[f32], grad_out: &[f32]) -> Vec<f32> {
        let mut grads = Grads::take((&mut l.weight, &mut l.bias));
        let mut grad_x = vec![0.0; l.in_dim];
        l.backward(x, grad_out, Some(&mut grad_x), &mut grads);
        grads.restore((&mut l.weight, &mut l.bias));
        grad_x
    }

    #[test]
    fn gradient_check() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut l = Linear::new(4, 3, &mut rng);
        let x: Vec<f32> = (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let grad_out = vec![1.0f32; l.forward(&x).len()];
        let grad_x = backward(&mut l, &x, &grad_out);
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

    /// Dropping the parameter gradients leaves the input gradient's bits
    /// as they are with [`Grads`].
    #[test]
    fn no_grads_backward_matches_grads_backward() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut l = Linear::new(5, 3, &mut rng);
        let x: Vec<f32> = (0..5).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let grad_out = vec![0.3f32, -1.2, 0.0];
        let full = backward(&mut l, &x, &grad_out);
        let mut fast = vec![0.0f32; 5];
        l.backward(&[], &grad_out, Some(&mut fast), &mut NoGrads);
        assert_eq!(full, fast);
    }

    /// Skipping the input gradient leaves the parameter gradients' bits as
    /// they are when it is computed.
    #[test]
    fn skipping_the_input_gradient_keeps_the_parameter_gradients() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let l = Linear::new(5, 3, &mut rng);
        let x: Vec<f32> = (0..5).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let grad_out = vec![0.3f32, -1.2, 0.0];
        let param_grads = |grad_x: Option<&mut [f32]>| {
            let mut l = l.clone();
            let mut grads = Grads::take((&mut l.weight, &mut l.bias));
            l.backward(&x, &grad_out, grad_x, &mut grads);
            grads.restore((&mut l.weight, &mut l.bias));
            (l.weight.g, l.bias.g)
        };
        assert_eq!(param_grads(None), param_grads(Some(&mut [0.0; 5])));
    }

    /// A layer without inputs outputs its bias.
    #[test]
    fn zero_inputs_forward_the_bias() {
        let l = Linear::from_weights(0, 3, vec![], vec![0.5, -1.0, 2.0]);
        assert_eq!(l.forward(&[]), vec![0.5, -1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_input_size_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let l = Linear::new(3, 1, &mut rng);
        let _ = l.forward(&[0.0; 5]);
    }
}
