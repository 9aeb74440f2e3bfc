//! Batch-vs-sequential equivalence over the real detector roster.
//!
//! The batch-first API redesign promises that batching is a throughput
//! optimization, never a semantics change. These tests pin that contract
//! at the integration level, on the same trained world the experiment
//! binaries use:
//!
//! * `Detector::score_batch` / `raw_score_batch` / `classify_batch` are
//!   bit-identical to N sequential calls for every roster detector,
//!   including the caching AV wrapper.
//!
//! Attacks query their target one candidate at a time
//! (`HardLabelTarget::query`); its budget and retry contract is pinned
//! by the unit tests next to it in `mpass-core`.

use mpass_detectors::{CachedAv, Detector, Verdict};
use mpass_experiments::world::{World, WorldConfig};
use std::sync::OnceLock;

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| World::build(WorldConfig::quick()))
}

/// Corpus bytes plus degenerate inputs (empty, truncated garbage).
fn probe_items(w: &World) -> Vec<&[u8]> {
    let mut items: Vec<&[u8]> = w.dataset.samples.iter().map(|s| s.bytes.as_slice()).collect();
    items.push(b"");
    items.push(b"MZ\x90");
    items
}

fn assert_batch_matches_sequential(name: &str, det: &dyn Detector, items: &[&[u8]]) {
    let mut scores = Vec::new();
    det.score_batch(items, &mut scores);
    let mut raw = Vec::new();
    det.raw_score_batch(items, &mut raw);
    let mut verdicts = Vec::new();
    det.classify_batch(items, &mut verdicts);
    assert_eq!(scores.len(), items.len(), "{name}: score_batch length");
    assert_eq!(raw.len(), items.len(), "{name}: raw_score_batch length");
    assert_eq!(verdicts.len(), items.len(), "{name}: classify_batch length");
    for (i, bytes) in items.iter().enumerate() {
        assert_eq!(
            scores[i].to_bits(),
            det.score(bytes).to_bits(),
            "{name}: score_batch[{i}] diverged"
        );
        assert_eq!(
            raw[i].to_bits(),
            det.raw_score(bytes).to_bits(),
            "{name}: raw_score_batch[{i}] diverged"
        );
        assert_eq!(verdicts[i], det.classify(bytes), "{name}: classify_batch[{i}] diverged");
    }
}

#[test]
fn score_batch_is_bit_identical_for_every_roster_detector() {
    let w = world();
    let items = probe_items(w);
    for (name, det) in w.offline_targets() {
        assert_batch_matches_sequential(name, det, &items);
    }
    for av in &w.avs {
        assert_batch_matches_sequential(Detector::name(av), av, &items);
    }
}

/// The caching wrapper answers batched queries with the same scores and
/// the same cache-counter totals as a sequential loop — compared across
/// two fresh wrappers of the same AV so cache state starts equal.
#[test]
fn cached_av_batches_match_a_fresh_sequential_wrapper() {
    let w = world();
    // Repeat a slice so the batch contains duplicates (the wrapper
    // resolves those against the batch itself, not just the cache).
    let mut items = probe_items(w);
    items.push(items[0]);
    items.push(items[0]);

    let batched = CachedAv::new(w.avs[0].clone());
    let mut scores = Vec::new();
    batched.score_batch(&items, &mut scores);
    let mut verdicts = Vec::new();
    batched.classify_batch(&items, &mut verdicts);

    let sequential = CachedAv::new(w.avs[0].clone());
    for (i, bytes) in items.iter().enumerate() {
        assert_eq!(
            scores[i].to_bits(),
            sequential.score(bytes).to_bits(),
            "CachedAv: score_batch[{i}] diverged from a sequential wrapper"
        );
    }
    // A second batched pass is all cache hits and still bit-identical.
    let mut again = Vec::new();
    batched.score_batch(&items, &mut again);
    for (i, (a, b)) in again.iter().zip(&scores).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "CachedAv: cached re-score[{i}] diverged");
    }
    let seq_verdicts: Vec<Verdict> = items.iter().map(|b| sequential.classify(b)).collect();
    assert_eq!(verdicts, seq_verdicts, "CachedAv: classify_batch diverged");
}
