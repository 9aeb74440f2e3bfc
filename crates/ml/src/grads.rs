//! Where a backward pass sends parameter gradients: [`Grads`] keeps them
//! for training, [`NoGrads`] drops them, so a frozen model's input
//! gradients run the training backward with no parameter-gradient work.

use crate::param::ParamBuf;
use crate::simd;

/// Receiver of one layer's parameter gradients. Each call says output
/// unit `o` received upstream gradient `g` over the input `x` it read: the
/// bias gradient of `o` grows by `g`, its weight row by `g · x`. A sink
/// that drops the gradient never calls `x`.
pub trait GradSink {
    /// Accumulate the gradient of output unit `o`.
    fn add<'x>(&mut self, o: usize, g: f32, x: impl FnOnce() -> &'x [f32]);
}

/// Drops every parameter gradient.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoGrads;

impl GradSink for NoGrads {
    #[inline(always)]
    fn add<'x>(&mut self, _: usize, _: f32, _: impl FnOnce() -> &'x [f32]) {}
}

/// A layer's weight and bias gradient buffers, taken out of its
/// [`ParamBuf`]s for one backward pass (so the layer can stay borrowed
/// `&`) and restored before the optimizer step.
#[derive(Debug)]
pub struct Grads {
    weight: Vec<f32>,
    bias: Vec<f32>,
}

impl Grads {
    /// Take the gradient buffers of a `(weight, bias)` pair.
    pub fn take((weight, bias): (&mut ParamBuf, &mut ParamBuf)) -> Grads {
        Grads { weight: std::mem::take(&mut weight.g), bias: std::mem::take(&mut bias.g) }
    }

    /// Put the buffers back into the pair they were taken from.
    pub fn restore(self, (weight, bias): (&mut ParamBuf, &mut ParamBuf)) {
        weight.g = self.weight;
        bias.g = self.bias;
    }
}

impl GradSink for Grads {
    #[inline]
    fn add<'x>(&mut self, o: usize, g: f32, x: impl FnOnce() -> &'x [f32]) {
        let x = x();
        self.bias[o] += g;
        simd::axpy(g, x, &mut self.weight[o * x.len()..(o + 1) * x.len()]);
    }
}
