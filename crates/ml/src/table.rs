//! Token-indexed convolution tables.
//!
//! A MalConv-style conv runs over *embedded* bytes, and both the embedding
//! and the conv weights are fixed at inference time. The response of output
//! channel `oc` at kernel position `k` to byte `b` is therefore a constant:
//!
//! ```text
//! T[k][b][oc] = Σ_c  W[oc][k][c] · e(b)[c]
//! ```
//!
//! Precomputing `T` once per trained model turns the conv forward into a
//! lookup-accumulate over raw byte tokens — no per-call embedding
//! materialization, no inner channel loop — and makes single-window
//! recomputation (the incremental dirty-span path) O(kernel · out_ch).

use crate::conv::Conv1d;
use crate::embedding::Embedding;

/// A conv layer folded with an embedding into a per-(kernel-position,
/// token) response table.
///
/// Layout is `[kernel][vocab][out_ch]` flattened, so accumulating one
/// window walks `kernel` contiguous `out_ch`-sized rows.
#[derive(Debug, Clone)]
pub struct TokenConv {
    table: Vec<f32>,
    bias: Vec<f32>,
    vocab: usize,
    out_ch: usize,
    kernel: usize,
    stride: usize,
}

impl TokenConv {
    /// Fold `conv` (whose `in_ch` must equal `emb.dim()`) with `emb`.
    pub fn build(conv: &Conv1d, emb: &Embedding) -> Self {
        assert_eq!(conv.in_ch(), emb.dim(), "conv input width must match embedding dim");
        let (vocab, dim) = (emb.vocab(), emb.dim());
        let (out_ch, kernel) = (conv.out_ch(), conv.kernel());
        let k_in = kernel * dim;
        let mut table = vec![0.0f32; kernel * vocab * out_ch];
        for k in 0..kernel {
            for b in 0..vocab {
                let e = emb.vector(b);
                let row = &mut table[(k * vocab + b) * out_ch..(k * vocab + b + 1) * out_ch];
                for (oc, r) in row.iter_mut().enumerate() {
                    let w = &conv.weight.w[oc * k_in + k * dim..oc * k_in + (k + 1) * dim];
                    let mut acc = 0.0;
                    for (wi, ei) in w.iter().zip(e) {
                        acc += wi * ei;
                    }
                    *r = acc;
                }
            }
        }
        TokenConv {
            table,
            bias: conv.bias.w.clone(),
            vocab,
            out_ch,
            kernel,
            stride: conv.stride(),
        }
    }

    /// Output channel count.
    pub fn out_ch(&self) -> usize {
        self.out_ch
    }

    /// Kernel width.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Window hop.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of output windows for a token sequence of length `len`.
    pub fn windows(&self, len: usize) -> usize {
        if len < self.kernel {
            0
        } else {
            (len - self.kernel) / self.stride + 1
        }
    }

    /// Compute one output window `w` into `out_row` (`out_ch` long).
    ///
    /// # Panics
    ///
    /// Panics when the window is out of range, a token exceeds the vocab,
    /// or `out_row` has the wrong width.
    #[inline]
    pub fn window_into(&self, tokens: &[usize], w: usize, out_row: &mut [f32]) {
        assert!(w < self.windows(tokens.len()), "window {w} out of range");
        assert_eq!(out_row.len(), self.out_ch, "output row width mismatch");
        out_row.copy_from_slice(&self.bias);
        let start = w * self.stride;
        for (k, &t) in tokens[start..start + self.kernel].iter().enumerate() {
            assert!(t < self.vocab, "token {t} out of vocabulary {}", self.vocab);
            let row = &self.table[(k * self.vocab + t) * self.out_ch
                ..(k * self.vocab + t + 1) * self.out_ch];
            // Element-wise lane-chunked add: bit-identical to the naive
            // loop, vectorized across output channels.
            crate::simd::add_assign(out_row, row);
        }
    }

    /// The windows whose receptive field overlaps byte offsets `[lo, hi)`,
    /// clamped to the valid window range for a `len`-token input. Returns
    /// an empty range when there is no overlap.
    pub fn dirty_windows(&self, len: usize, lo: usize, hi: usize) -> std::ops::Range<usize> {
        dirty_window_span(self.kernel, self.stride, self.windows(len), lo, hi)
    }
}

/// The window indices (out of `windows` total, each covering
/// `[w·stride, w·stride + kernel)` input positions) whose receptive field
/// overlaps positions `[lo, hi)`. Shared by [`TokenConv`] and
/// [`Conv1d::dirty_windows`] so every layer of a stacked conv propagates
/// dirty spans with identical math.
pub fn dirty_window_span(
    kernel: usize,
    stride: usize,
    windows: usize,
    lo: usize,
    hi: usize,
) -> std::ops::Range<usize> {
    if windows == 0 || lo >= hi {
        return 0..0;
    }
    // Window w covers [w·stride, w·stride + kernel). It overlaps iff
    // w·stride < hi and w·stride + kernel > lo.
    let w_min = (lo + 1).saturating_sub(kernel).div_ceil(stride).min(windows);
    let w_max = ((hi - 1) / stride + 1).min(windows); // last w with w·stride < hi
    if w_min >= w_max {
        0..0
    } else {
        w_min..w_max
    }
}

/// A reusable set of dirty window indices: spans of windows are marked,
/// then drained as maximal runs in ascending order, so an incremental
/// session recomputes each window once per call however many dirty spans
/// overlap it. One bit per window; marking and draining allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct WindowMask {
    words: Vec<u64>,
}

impl WindowMask {
    /// An empty mask over windows `0..windows`.
    pub fn new(windows: usize) -> Self {
        WindowMask { words: vec![0; windows.div_ceil(64)] }
    }

    /// Mark every window of `span`.
    ///
    /// # Panics
    ///
    /// Panics when `span` reaches past the mask.
    pub fn mark(&mut self, span: std::ops::Range<usize>) {
        for w in span {
            self.words[w / 64] |= 1 << (w % 64);
        }
    }

    /// The maximal runs of marked windows, in ascending order; each run is
    /// cleared as it is yielded, so a fully drained mask is empty again.
    pub fn drain(&mut self) -> WindowRuns<'_> {
        WindowRuns { words: &mut self.words, word: 0 }
    }
}

/// Iterator of [`WindowMask::drain`].
#[derive(Debug)]
pub struct WindowRuns<'a> {
    words: &'a mut [u64],
    /// Every word before this one is clear.
    word: usize,
}

impl Iterator for WindowRuns<'_> {
    type Item = std::ops::Range<usize>;

    fn next(&mut self) -> Option<Self::Item> {
        while *self.words.get(self.word)? == 0 {
            self.word += 1;
        }
        let start = self.word * 64 + self.words[self.word].trailing_zeros() as usize;
        let mut end = start;
        // Extend through consecutive set bits, clearing them, until a clear
        // bit or the end of the mask.
        while let Some(word) = self.words.get_mut(end / 64) {
            let bit = end % 64;
            let ones = (*word >> bit).trailing_ones() as usize;
            if ones == 0 {
                break;
            }
            *word &= !((u64::MAX >> (64 - ones)) << bit);
            end += ones;
            if bit + ones < 64 {
                break;
            }
        }
        self.word = end / 64;
        Some(start..end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn fixture(kernel: usize, stride: usize) -> (Conv1d, Embedding) {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let emb = Embedding::new(257, 6, &mut rng);
        let conv = Conv1d::new(6, 5, kernel, stride, &mut rng);
        (conv, emb)
    }

    /// Every tabled window agrees with the same window of the naive conv
    /// over embedded tokens, within float-summation reassociation error.
    #[test]
    fn windows_match_naive_conv() {
        for (kernel, stride) in [(4usize, 4usize), (8, 4), (3, 1)] {
            let (conv, emb) = fixture(kernel, stride);
            let tc = TokenConv::build(&conv, &emb);
            let mut rng = ChaCha8Rng::seed_from_u64(99);
            let tokens: Vec<usize> = (0..64).map(|_| rng.gen_range(0..257)).collect();
            let x: Vec<f32> = tokens.iter().flat_map(|&t| emb.vector(t).to_vec()).collect();
            let windows = conv.windows(tokens.len());
            assert_eq!(windows, tc.windows(tokens.len()));
            let (mut expected, mut row) = (vec![0.0; tc.out_ch()], vec![0.0; tc.out_ch()]);
            for w in 0..windows {
                conv.forward_window_into(&x, w, &mut expected);
                tc.window_into(&tokens, w, &mut row);
                for (a, b) in expected.iter().zip(&row) {
                    assert!((a - b).abs() < 1e-5, "window {w}: naive {a} vs tabled {b}");
                }
            }
        }
    }

    #[test]
    fn dirty_windows_cover_receptive_fields() {
        let (conv, emb) = fixture(8, 4);
        let tc = TokenConv::build(&conv, &emb);
        let len = 64;
        // Brute-force reference: window w overlaps [lo,hi) iff intervals meet.
        for (lo, hi) in [(0usize, 1usize), (7, 8), (8, 9), (30, 41), (60, 64), (63, 64)] {
            let got = tc.dirty_windows(len, lo, hi);
            for w in 0..tc.windows(len) {
                let (ws, we) = (w * 4, w * 4 + 8);
                let overlaps = ws < hi && we > lo;
                assert_eq!(
                    got.contains(&w),
                    overlaps,
                    "span [{lo},{hi}) window {w}: got {got:?}"
                );
            }
        }
        assert_eq!(tc.dirty_windows(len, 5, 5), 0..0, "empty span");
        assert_eq!(tc.dirty_windows(4, 0, 4), 0..0, "input shorter than kernel");
    }

    /// A drained mask yields exactly the marked windows, once each, as
    /// maximal ascending runs, and is empty afterwards — across word
    /// boundaries, full words and the mask's last window.
    #[test]
    fn window_mask_drains_maximal_runs_once() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        for windows in [0usize, 1, 63, 64, 65, 128, 200, 256] {
            let mut mask = WindowMask::new(windows);
            for trial in 0..200 {
                // Nothing, everything, then the first and last window
                // before random spans.
                let mut spans = Vec::new();
                match trial {
                    0 => {}
                    1 => spans.push(0..windows),
                    _ => spans.extend([0..windows.min(1), windows.saturating_sub(1)..windows]),
                }
                for _ in 0..if trial < 3 { 0 } else { rng.gen_range(0..12) } {
                    let lo = rng.gen_range(0..=windows);
                    spans.push(lo..(lo + rng.gen_range(0..70)).min(windows));
                }
                let mut want = vec![false; windows];
                for span in spans {
                    want[span.clone()].fill(true);
                    mask.mark(span);
                }
                let runs: Vec<_> = mask.drain().collect();
                let mut got = vec![false; windows];
                for (i, run) in runs.iter().enumerate() {
                    assert!(!run.is_empty(), "{windows}/{trial}: empty run");
                    if i > 0 {
                        let prev = &runs[i - 1];
                        assert!(prev.end < run.start, "{windows}/{trial}: {runs:?} not maximal");
                    }
                    got[run.clone()].fill(true);
                }
                assert_eq!(got, want, "{windows}/{trial}: runs {runs:?}");
                assert_eq!(mask.drain().next(), None, "{windows}/{trial}: drained mask");
            }
        }
    }
}
