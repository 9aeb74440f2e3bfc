//! Shared check of the dirty-span sessions against the span lists the
//! ensemble optimizer feeds them: many 1-byte spans, repeats, unsorted
//! and overlapping spans, spans past the model window and empty spans.

use crate::traits::WhiteBoxSession;
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
