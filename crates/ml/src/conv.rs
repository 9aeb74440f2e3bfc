//! One-dimensional convolution over embedded byte sequences, with backprop
//! to weights *and inputs* (the input gradient is what the ensemble
//! transfer attack differentiates through).

use crate::grads::GradSink;
use crate::param::ParamBuf;
use crate::simd::{self, LANES};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// A 1-D convolution `in_ch → out_ch` with kernel width `kernel` and hop
/// `stride`, over an input laid out `[position][in_ch]` (row-major flat).
///
/// Output layout is `[window][out_ch]` where
/// `window = (len - kernel) / stride + 1`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Conv1d {
    /// Kernel weights, `[out_ch][kernel][in_ch]` flattened.
    pub weight: ParamBuf,
    /// Per-output-channel bias.
    pub bias: ParamBuf,
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    stride: usize,
}

impl Conv1d {
    /// New layer with He-style uniform init.
    pub fn new<R: Rng + ?Sized>(
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        rng: &mut R,
    ) -> Self {
        assert!(kernel > 0 && stride > 0, "kernel and stride must be positive");
        let scale = (2.0 / (in_ch * kernel) as f32).sqrt();
        Conv1d {
            weight: ParamBuf::uniform(out_ch * kernel * in_ch, scale, rng),
            bias: ParamBuf::new(vec![0.0; out_ch]),
            in_ch,
            out_ch,
            kernel,
            stride,
        }
    }

    /// Reconstruct a layer from serialized weights (e.g. a weight
    /// snapshot). Optimizer moments start fresh, which is exact for
    /// inference-only use.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent shapes or a zero kernel/stride.
    pub fn from_weights(
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        weight: Vec<f32>,
        bias: Vec<f32>,
    ) -> Self {
        assert!(kernel > 0 && stride > 0, "kernel and stride must be positive");
        assert_eq!(weight.len(), out_ch * kernel * in_ch, "conv weight shape mismatch");
        assert_eq!(bias.len(), out_ch, "conv bias shape mismatch");
        Conv1d {
            weight: ParamBuf::new(weight),
            bias: ParamBuf::new(bias),
            in_ch,
            out_ch,
            kernel,
            stride,
        }
    }

    /// Output channel count.
    pub fn out_ch(&self) -> usize {
        self.out_ch
    }

    /// Input channel count.
    pub fn in_ch(&self) -> usize {
        self.in_ch
    }

    /// Kernel width.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Window hop.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of output windows for an input of `positions` rows.
    pub fn windows(&self, positions: usize) -> usize {
        if positions < self.kernel {
            0
        } else {
            (positions - self.kernel) / self.stride + 1
        }
    }

    /// Output window `w` of input `x` into `out_row` (`out_ch` wide): the
    /// scalar reference of [`ConvXposed::forward_window_into`].
    ///
    /// # Panics
    ///
    /// Panics when the window or `out_row` shape is out of range.
    pub fn forward_window_into(&self, x: &[f32], w: usize, out_row: &mut [f32]) {
        assert_eq!(x.len() % self.in_ch, 0, "input not a whole number of positions");
        assert!(w < self.windows(x.len() / self.in_ch), "window {w} out of range");
        assert_eq!(out_row.len(), self.out_ch, "output row width mismatch");
        let k_in = self.kernel * self.in_ch;
        let start = w * self.stride * self.in_ch;
        let patch = &x[start..start + k_in];
        for (oc, o) in out_row.iter_mut().enumerate() {
            let kw = &self.weight.w[oc * k_in..(oc + 1) * k_in];
            let mut acc = self.bias.w[oc];
            for (a, b) in kw.iter().zip(patch) {
                acc += a * b;
            }
            *o = acc;
        }
    }

    /// The output windows whose receptive field overlaps input positions
    /// `[lo, hi)`, for an input of `positions` rows.
    pub fn dirty_windows(
        &self,
        positions: usize,
        lo: usize,
        hi: usize,
    ) -> Range<usize> {
        crate::table::dirty_window_span(self.kernel, self.stride, self.windows(positions), lo, hi)
    }

    /// The input rows, out of `positions`, that no output window reads, as
    /// ascending disjoint spans (some empty): the gaps between windows
    /// when the stride exceeds the kernel, then the tail past the last
    /// window.
    pub fn unread_rows(&self, positions: usize) -> impl Iterator<Item = Range<usize>> {
        let (kernel, stride, windows) = (self.kernel, self.stride, self.windows(positions));
        let gaps = if stride > kernel { windows.saturating_sub(1) } else { 0 };
        let read_end = if windows == 0 { 0 } else { (windows - 1) * stride + kernel };
        (0..gaps)
            .map(move |w| w * stride + kernel..(w + 1) * stride)
            .chain(std::iter::once(read_end..positions))
    }

    /// Component-major (transposed) copy of the kernel weights for the
    /// register-blocked window kernel — see [`ConvXposed`]. Building the
    /// copy costs `kernel·in_ch·out_ch` writes (plus the zero padding),
    /// amortized over however many windows (or batch items) the caller
    /// pushes through it.
    pub fn transposed(&self) -> ConvXposed<'_> {
        let k_in = self.kernel * self.in_ch;
        let mut wt = Vec::with_capacity(k_in * self.out_ch.next_multiple_of(LANES));
        for first in (0..self.out_ch).step_by(LANES) {
            let group = first..(first + LANES).min(self.out_ch);
            for i in 0..k_in {
                wt.extend(group.clone().map(|oc| self.weight.w[oc * k_in + i]));
                wt.resize(wt.len() + LANES - group.len(), 0.0);
            }
        }
        ConvXposed { conv: self, wt }
    }

    /// Backward pass over the ascending output `windows`: each nonzero
    /// `grad_out` entry of a visited window sends its parameter gradient to
    /// `grads` (which reads the forward input `x` only if it keeps it) and
    /// adds its input gradient into `grad_x` (`[positions × in_ch]`). The
    /// first visited window that reads a row of `grad_x` clears it; rows
    /// no visited window reads are left as they are. Rows accumulate in
    /// window, then channel order, as a pass over every window would, so
    /// a window left out must carry no nonzero gradient.
    ///
    /// # Panics
    ///
    /// Panics when `grad_x` is ragged, `grad_out` does not match the window
    /// count `grad_x` implies, or a window is out of range.
    pub fn backward<S: GradSink>(
        &self,
        x: &[f32],
        grad_out: &[f32],
        windows: impl IntoIterator<Item = usize>,
        grad_x: &mut [f32],
        grads: &mut S,
    ) {
        assert_eq!(grad_x.len() % self.in_ch, 0, "input not a whole number of positions");
        let n = self.windows(grad_x.len() / self.in_ch);
        assert_eq!(grad_out.len(), n * self.out_ch, "output gradient shape mismatch");
        let k_in = self.kernel * self.in_ch;
        let mut cleared = 0;
        for w in windows {
            let start = w * self.stride * self.in_ch;
            debug_assert!(start + k_in > cleared, "windows not strictly ascending");
            grad_x[cleared.max(start)..start + k_in].fill(0.0);
            cleared = start + k_in;
            let gx = &mut grad_x[start..start + k_in];
            for (oc, &g) in grad_out[w * self.out_ch..(w + 1) * self.out_ch].iter().enumerate() {
                if g == 0.0 {
                    continue;
                }
                grads.add(oc, g, || &x[start..start + k_in]);
                simd::axpy(g, &self.weight.w[oc * k_in..(oc + 1) * k_in], gx);
            }
        }
    }
}

/// Component-major view of a [`Conv1d`] for the register-blocked window
/// kernel. The output channels are cut into groups of [`LANES`], the last
/// one zero-padded to full width (MalGCG's 6-channel layer runs one full
/// group, not a scalar tail); group by group, the weights are copied into
/// `[kernel·in_ch][LANES]` order, so the kernel streams one contiguous
/// weight row per patch component.
///
/// Numerics: each group's accumulators live in registers for the whole
/// patch. Every output channel starts from its bias and adds its terms in
/// ascending patch order, as the scalar [`Conv1d::forward_window_into`]
/// loop does; only the operand order of each multiplication differs, and
/// IEEE-754 multiplication is commutative. The result is **bit-identical**
/// to the scalar kernel while the inner loop runs across output channels
/// and vectorizes. Padding lanes compute zeros nobody reads.
#[derive(Debug)]
pub struct ConvXposed<'a> {
    conv: &'a Conv1d,
    /// Transposed, padded weights: per group, `[kernel·in_ch][LANES]`.
    wt: Vec<f32>,
}

impl ConvXposed<'_> {
    /// Compute output window `w` into `out_row` (`out_ch` wide) —
    /// bit-identical to [`Conv1d::forward_window_into`].
    ///
    /// # Panics
    ///
    /// Panics when the window or `out_row` shape is out of range.
    pub fn forward_window_into(&self, x: &[f32], w: usize, out_row: &mut [f32]) {
        let c = self.conv;
        assert_eq!(x.len() % c.in_ch, 0, "input not a whole number of positions");
        assert!(w < c.windows(x.len() / c.in_ch), "window {w} out of range");
        assert_eq!(out_row.len(), c.out_ch, "output row width mismatch");
        let k_in = c.kernel * c.in_ch;
        let start = w * c.stride * c.in_ch;
        let patch = &x[start..start + k_in];
        let groups = out_row.chunks_mut(LANES).zip(c.bias.w.chunks(LANES));
        for ((out, bias), wt) in groups.zip(self.wt.chunks_exact(k_in * LANES)) {
            // `out[l] = bias[l] + Σᵢ patch[i]·wt[i][l]`, ascending in `i`.
            let mut acc = [0.0f32; LANES];
            acc[..bias.len()].copy_from_slice(bias);
            for (&xi, row) in patch.iter().zip(wt.chunks_exact(LANES)) {
                for (a, &wi) in acc.iter_mut().zip(row) {
                    *a += xi * wi;
                }
            }
            out.copy_from_slice(&acc[..out.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grads::{Grads, NoGrads};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn conv(in_ch: usize, out_ch: usize, kernel: usize, stride: usize) -> Conv1d {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        Conv1d::new(in_ch, out_ch, kernel, stride, &mut rng)
    }

    /// Every output window of `x`, `[windows × out_ch]` flat.
    fn forward(c: &Conv1d, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len() % c.in_ch, 0, "input not a whole number of positions");
        let mut out = vec![0.0; c.windows(x.len() / c.in_ch) * c.out_ch];
        for (w, row) in out.chunks_exact_mut(c.out_ch).enumerate() {
            c.forward_window_into(x, w, row);
        }
        out
    }

    /// The backward over every window with [`Grads`]: returns `∂L/∂x` and
    /// leaves the parameter gradients in `c`.
    fn backward_all(c: &mut Conv1d, x: &[f32], grad_out: &[f32]) -> Vec<f32> {
        let mut grads = Grads::take((&mut c.weight, &mut c.bias));
        let mut grad_x = vec![0.0; x.len()];
        c.backward(x, grad_out, 0..c.windows(x.len() / c.in_ch), &mut grad_x, &mut grads);
        grads.restore((&mut c.weight, &mut c.bias));
        grad_x
    }

    #[test]
    fn window_count() {
        let c = conv(2, 3, 4, 2);
        assert_eq!(c.windows(4), 1);
        assert_eq!(c.windows(5), 1);
        assert_eq!(c.windows(6), 2);
        assert_eq!(c.windows(3), 0);
    }

    #[test]
    fn identity_like_kernel_detects_position() {
        // One input channel, one output channel, kernel 1, stride 1, weight 1.
        let mut c = conv(1, 1, 1, 1);
        c.weight.w[0] = 1.0;
        c.bias.w[0] = 0.0;
        let x = vec![3.0, -1.0, 2.5];
        assert_eq!(forward(&c, &x), vec![3.0, -1.0, 2.5]);
    }

    /// Finite-difference gradient check against the analytic backward.
    #[test]
    fn gradient_check_weights_and_input() {
        let mut c = conv(3, 2, 2, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let x: Vec<f32> = (0..5 * 3).map(|_| rng.gen_range(-1.0..1.0)).collect();
        // Scalar objective: sum of outputs.
        let objective = |c: &Conv1d, x: &[f32]| -> f32 { forward(c, x).iter().sum() };
        let grad_out = vec![1.0f32; forward(&c, &x).len()];
        let grad_x = backward_all(&mut c, &x, &grad_out);

        let eps = 1e-3;
        // Check a handful of weight entries.
        for idx in [0usize, 3, 7, 11] {
            let mut cp = c.clone();
            cp.weight.w[idx] += eps;
            let mut cm = c.clone();
            cm.weight.w[idx] -= eps;
            let num = (objective(&cp, &x) - objective(&cm, &x)) / (2.0 * eps);
            assert!(
                (num - c.weight.g[idx]).abs() < 1e-2,
                "weight {idx}: numeric {num} vs analytic {}",
                c.weight.g[idx]
            );
        }
        // Check input entries.
        for idx in [0usize, 4, 9, 14] {
            let mut xp = x.clone();
            xp[idx] += eps;
            let mut xm = x.clone();
            xm[idx] -= eps;
            let num = (objective(&c, &xp) - objective(&c, &xm)) / (2.0 * eps);
            assert!(
                (num - grad_x[idx]).abs() < 1e-2,
                "input {idx}: numeric {num} vs analytic {}",
                grad_x[idx]
            );
        }
        // Bias gradient of a sum objective is the window count.
        let windows = c.windows(5) as f32;
        assert!(c.bias.g.iter().all(|&g| (g - windows).abs() < 1e-4));
    }

    #[test]
    #[should_panic(expected = "whole number of positions")]
    fn ragged_input_panics() {
        let c = conv(3, 1, 1, 1);
        let _ = forward(&c, &[0.0; 7]);
    }

    /// Regression: the backward used to silently truncate ragged inputs via
    /// integer division instead of rejecting them like the forward does.
    #[test]
    #[should_panic(expected = "whole number of positions")]
    fn ragged_backward_panics() {
        let c = conv(3, 1, 1, 1);
        c.backward(&[0.0; 7], &[1.0; 2], 0..2, &mut [0.0; 7], &mut NoGrads);
    }

    /// The register-blocked kernel must be bit-identical to the scalar
    /// reference: at the detectors' shapes (MalGCG's 6- and 8-channel
    /// layers, MalConv's 8 and 16 channels), at padded and multi-block
    /// widths, at ragged `kernel·in_ch`, and with one input in four an
    /// IEEE-754 special value (signed zero, subnormal, infinity, NaN).
    #[test]
    fn transposed_kernel_is_bit_identical_to_scalar() {
        const SPECIAL: [f32; 7] =
            [0.0, -0.0, 1e-40, -1e-40, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        let mut rng = ChaCha8Rng::seed_from_u64(29);
        for (in_ch, out_ch, kernel, stride, positions) in [
            (1, 1, 1, 1, 4),
            (2, 3, 4, 2, 11),
            (4, 7, 3, 1, 9),
            (8, 16, 5, 3, 20),
            (3, 9, 2, 2, 8),
            (4, 6, 32, 32, 256),
            (6, 8, 4, 2, 31),
            (4, 8, 64, 64, 640),
            (8, 16, 256, 256, 1024),
            (3, 6, 5, 2, 23),
            (5, 8, 7, 3, 40),
            (7, 16, 3, 1, 12),
            (4, 12, 9, 4, 50),
            (2, 24, 5, 5, 30),
            (1, 33, 6, 2, 21),
        ] {
            let mut c = conv(in_ch, out_ch, kernel, stride);
            for w in c.weight.w.iter_mut() {
                *w = rng.gen_range(-1.0..1.0);
            }
            for b in c.bias.w.iter_mut() {
                *b = rng.gen_range(-0.5..0.5);
            }
            for special in [false, true] {
                let x: Vec<f32> = (0..positions * in_ch)
                    .map(|_| match special && rng.gen_range(0..4) == 0 {
                        true => SPECIAL[rng.gen_range(0..SPECIAL.len())],
                        false => rng.gen_range(-1.0..1.0),
                    })
                    .collect();
                let xp = c.transposed();
                let mut scalar = vec![0.0f32; out_ch];
                let mut blocked = vec![0.0f32; out_ch];
                for w in 0..c.windows(positions) {
                    c.forward_window_into(&x, w, &mut scalar);
                    xp.forward_window_into(&x, w, &mut blocked);
                    // Rust leaves a NaN result's payload unspecified.
                    for (s, b) in scalar.iter().zip(&blocked) {
                        assert!(
                            s.to_bits() == b.to_bits() || s.is_nan() && b.is_nan(),
                            "shape {in_ch}x{out_ch}k{kernel}s{stride} window {w}: {s} vs {b}"
                        );
                    }
                }
            }
        }
    }

    /// `unread_rows` names exactly the rows no window reads, for
    /// overlapping, touching and gapped windows and inputs too short for
    /// any window.
    #[test]
    fn unread_rows_are_the_rows_no_window_reads() {
        for (kernel, stride) in [(4, 2), (4, 4), (3, 5), (1, 7), (6, 6)] {
            let c = conv(2, 3, kernel, stride);
            for positions in 0..40 {
                let windows = c.windows(positions);
                let read = |r| {
                    (0..windows).any(|w| (w * stride..w * stride + kernel).contains(&r))
                };
                let want: Vec<usize> = (0..positions).filter(|&r| !read(r)).collect();
                let got: Vec<usize> = c.unread_rows(positions).flatten().collect();
                assert_eq!(got, want, "kernel {kernel} stride {stride} positions {positions}");
            }
        }
    }

    /// The dense loops the backward replaced: every window, every nonzero
    /// channel, into fresh zeroed buffers. Returns `(∂x, ∂weight, ∂bias)`.
    fn dense_reference(c: &Conv1d, x: &[f32], grad_out: &[f32]) -> [Vec<f32>; 3] {
        let k_in = c.kernel * c.in_ch;
        let (mut gx, mut gw, mut gb) =
            (vec![0.0f32; x.len()], vec![0.0f32; c.weight.len()], vec![0.0f32; c.out_ch]);
        for w in 0..c.windows(x.len() / c.in_ch) {
            let start = w * c.stride * c.in_ch;
            for oc in 0..c.out_ch {
                let g = grad_out[w * c.out_ch + oc];
                if g == 0.0 {
                    continue;
                }
                gb[oc] += g;
                for i in 0..k_in {
                    gw[oc * k_in + i] += g * x[start + i];
                    gx[start + i] += g * c.weight.w[oc * k_in + i];
                }
            }
        }
        [gx, gw, gb]
    }

    /// Over a sparse, max-pool-shaped gradient, the backward visiting only
    /// the windows that carry it gives the dense loops' bits in every row
    /// those windows read, for parameter gradients too, and leaves every
    /// other row of `grad_x` as it found it, for overlapping and disjoint
    /// windows alike. Visiting every window gives the dense bits
    /// everywhere.
    #[test]
    fn sparse_backward_matches_the_dense_loops_bit_for_bit() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        for (in_ch, out_ch, kernel, stride, positions) in
            [(3, 2, 2, 2, 9), (4, 5, 3, 1, 12), (2, 9, 8, 3, 40), (4, 8, 64, 32, 512)]
        {
            let mut c = conv(in_ch, out_ch, kernel, stride);
            let x: Vec<f32> = (0..positions * in_ch).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let windows = c.windows(positions);
            // Every channel's gradient on one window; two channels share
            // window 1 and the last window, and one channel carries none.
            let mut grad_out = vec![0.0f32; windows * out_ch];
            let mut hit = Vec::new();
            for oc in 1..out_ch {
                let w = [1, windows - 1, rng.gen_range(0..windows)][oc % 3];
                grad_out[w * out_ch + oc] = rng.gen_range(-2.0..2.0);
                hit.push(w);
            }
            hit.sort_unstable();
            hit.dedup();
            let [gx, gw, gb] = dense_reference(&c, &x, &grad_out);
            assert_eq!(backward_all(&mut c, &x, &grad_out), gx);
            assert_eq!((&c.weight.g, &c.bias.g), (&gw, &gb));
            let mut sparse = vec![f32::NAN; x.len()];
            let mut grads = Grads::take((&mut c.weight, &mut c.bias));
            c.backward(&x, &grad_out, hit.iter().copied(), &mut sparse, &mut grads);
            grads.restore((&mut c.weight, &mut c.bias));
            let mut frozen = vec![f32::NAN; x.len()];
            c.backward(&[], &grad_out, hit.iter().copied(), &mut frozen, &mut NoGrads);
            for (i, ((s, f), d)) in sparse.iter().zip(&frozen).zip(&gx).enumerate() {
                let row = i / in_ch;
                let read = hit.iter().any(|&w| (w * stride..w * stride + kernel).contains(&row));
                let want = if read { d.to_bits() } else { f32::NAN.to_bits() };
                assert_eq!((s.to_bits(), f.to_bits()), (want, want), "{kernel}/{stride} row {row}");
            }
            // One term per parameter, now accumulated twice.
            let doubled = |v: &[f32]| v.iter().map(|g| g + g).collect::<Vec<_>>();
            assert_eq!(
                (&c.weight.g, &c.bias.g),
                (&doubled(&gw), &doubled(&gb)),
                "{kernel}/{stride}"
            );
        }
    }
}
