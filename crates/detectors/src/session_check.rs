//! Shared checks of the conv detectors: the dirty-span sessions against
//! the span lists the ensemble optimizer feeds them (many 1-byte spans,
//! repeats, unsorted and overlapping spans, spans past the model window
//! and empty spans), the digests that pin what training and the gradient
//! path compute, and the dense loops the one backward is checked against.

use crate::traits::{WhiteBoxModel, WhiteBoxSession};
use mpass_corpus::Dataset;
use mpass_ml::{Conv1d, Linear, ParamBuf};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::ops::Range;

/// Rewrite `bytes` (same length) through a seeded series of multi-span
/// dirty lists and require, after every call, that the live session's
/// `score_delta` or `loss_grad_delta` (loss and the whole gradient
/// buffer) equals a fresh session's bit for bit, and that `recomputed`
/// reports no window recomputed more than once by that call.
pub(crate) fn check_multi_span<S: WhiteBoxSession>(
    fresh: impl Fn() -> S,
    recomputed: impl Fn(&S) -> &[u32],
    mut bytes: Vec<u8>,
    window: usize,
    seed: u64,
) {
    let len = bytes.len();
    assert!(len > 64, "the check needs a buffer past a few windows");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut live = fresh();
    let (mut g_live, mut g_fresh) = (Vec::new(), Vec::new());
    live.loss_grad_delta(&bytes, &[], &mut g_live); // prime
    for trial in 0..24 {
        let mut dirty: Vec<Range<usize>> = Vec::new();
        let mut rewrite = |rng: &mut ChaCha8Rng, span: Range<usize>, dirty: &mut Vec<_>| {
            for b in &mut bytes[span.start.min(len)..span.end.min(len)] {
                *b = rng.gen();
            }
            dirty.push(span);
        };
        match trial % 4 {
            // The mapping step's shape: one 1-byte span per rewritten
            // byte, hundreds per call, in variable order with repeats.
            0 => {
                for _ in 0..rng.gen_range(200..500) {
                    let off = rng.gen_range(0..len.min(window));
                    rewrite(&mut rng, off..off + 1, &mut dirty);
                    if rng.gen_bool(0.1) {
                        dirty.push(off..off + 1);
                    }
                }
            }
            // Coupled cover/key pairs: two distant 1-byte spans each.
            1 => {
                for _ in 0..rng.gen_range(50..150) {
                    let cover = rng.gen_range(0..len.min(window));
                    let key = rng.gen_range(0..len);
                    rewrite(&mut rng, cover..cover + 1, &mut dirty);
                    rewrite(&mut rng, key..key + 1, &mut dirty);
                }
            }
            // Overlapping, unsorted multi-byte spans.
            2 => {
                for _ in 0..rng.gen_range(5..40) {
                    let lo = rng.gen_range(0..len.min(window + 100));
                    let hi = lo + rng.gen_range(1..200);
                    rewrite(&mut rng, lo..hi, &mut dirty);
                }
            }
            // Edge spans: straddling and past the model window, past the
            // end of the buffer, and empty.
            _ => {
                let edge = window.min(len);
                rewrite(&mut rng, edge.saturating_sub(10)..edge + 50, &mut dirty);
                rewrite(&mut rng, window + 100..window + 200, &mut dirty);
                rewrite(&mut rng, len - 5..len + 20, &mut dirty);
                dirty.push(7..7);
                dirty.push(window..window);
                rewrite(&mut rng, 0..1, &mut dirty);
            }
        }
        let what = format!("trial {trial} ({} spans)", dirty.len());
        if trial % 2 == 0 {
            let got = live.loss_grad_delta(&bytes, &dirty, &mut g_live);
            let want = fresh().loss_grad_delta(&bytes, &[], &mut g_fresh);
            assert_eq!(got.to_bits(), want.to_bits(), "{what}: loss");
            assert!(g_live == g_fresh, "{what}: gradient differs from a fresh session's");
        } else {
            let got = live.score_delta(&bytes, &dirty);
            let want = fresh().score_delta(&bytes, &[]);
            assert_eq!(got.to_bits(), want.to_bits(), "{what}: score");
        }
        let counts = recomputed(&live);
        assert!(counts.iter().any(|&n| n > 0), "{what}: nothing was recomputed");
        if let Some(w) = counts.iter().position(|&n| n > 1) {
            panic!("{what}: window {w} recomputed {} times in one call", counts[w]);
        }
    }
}

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Training pairs of the golden digests: every sample of `ds`, then two
/// truncated copies short enough to leave pad windows in any model window.
pub(crate) fn golden_pairs(ds: &Dataset) -> Vec<(&[u8], f32)> {
    let mut pairs = crate::train::training_pairs(&ds.samples.iter().collect::<Vec<_>>());
    pairs.push((&ds.malware()[0].bytes[..200], 1.0));
    pairs.push((&ds.benign()[0].bytes[..1000], 0.0));
    pairs
}

/// Digest of a trained model: its snapshot bytes, then for each probe
/// (two whole samples, a 100-byte prefix, an empty file) the raw score
/// bits and a fresh session's `loss_grad_delta` loss and gradient bits.
pub(crate) fn golden_digest(model: &dyn WhiteBoxModel, snapshot: &[u8], ds: &Dataset) -> u64 {
    let mal = &ds.malware()[1].bytes;
    let probes: [&[u8]; 4] = [mal, &ds.benign()[1].bytes, &mal[..100], &[]];
    let mut h = fnv1a(0xcbf2_9ce4_8422_2325, snapshot);
    let mut grad = Vec::new();
    for bytes in probes {
        h = fnv1a(h, &model.raw_score(bytes).to_bits().to_le_bytes());
        let loss = model.session().loss_grad_delta(bytes, &[], &mut grad);
        h = fnv1a(h, &loss.to_bits().to_le_bytes());
        for g in &grad {
            h = fnv1a(h, &g.to_bits().to_le_bytes());
        }
    }
    h
}

/// Every window of `conv` over `x`, `[windows × out_ch]` flat.
pub(crate) fn conv_forward(conv: &Conv1d, x: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0; conv.windows(x.len() / conv.in_ch()) * conv.out_ch()];
    for (w, row) in out.chunks_exact_mut(conv.out_ch()).enumerate() {
        conv.forward_window_into(x, w, row);
    }
    out
}

/// The dense conv backward the conv detectors trained with before the one
/// backward: every window, every nonzero channel, into a fresh zeroed
/// input gradient (returned); parameter gradients accumulate into `grads`.
pub(crate) fn dense_conv_backward(
    conv: &Conv1d,
    grads: &mut Conv1d,
    x: &[f32],
    grad_out: &[f32],
) -> Vec<f32> {
    let (in_ch, out_ch, k_in) = (conv.in_ch(), conv.out_ch(), conv.kernel() * conv.in_ch());
    let mut gx = vec![0.0f32; x.len()];
    for w in 0..conv.windows(x.len() / in_ch) {
        let start = w * conv.stride() * in_ch;
        for oc in 0..out_ch {
            let g = grad_out[w * out_ch + oc];
            if g == 0.0 {
                continue;
            }
            grads.bias.g[oc] += g;
            for i in 0..k_in {
                grads.weight.g[oc * k_in + i] += g * x[start + i];
                gx[start + i] += g * conv.weight.w[oc * k_in + i];
            }
        }
    }
    gx
}

/// The dense linear backward of the same era: the input gradient
/// (returned) and parameter gradients accumulated into `grads`.
pub(crate) fn dense_linear_backward(
    l: &Linear,
    grads: &mut Linear,
    x: &[f32],
    grad_out: &[f32],
) -> Vec<f32> {
    let n = l.in_dim();
    let mut gx = vec![0.0f32; n];
    for (o, &g) in grad_out.iter().enumerate() {
        grads.bias.g[o] += g;
        for i in 0..n {
            grads.weight.g[o * n + i] += g * x[i];
            gx[i] += g * l.weight.w[o * n + i];
        }
    }
    gx
}

/// The bits of every gradient buffer of `bufs`.
pub(crate) fn grad_bits<'a>(bufs: impl IntoIterator<Item = &'a ParamBuf>) -> Vec<u32> {
    bufs.into_iter().flat_map(|b| b.g.iter().map(|g| g.to_bits())).collect()
}
