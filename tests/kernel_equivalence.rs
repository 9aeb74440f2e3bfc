//! Equivalence gates for the optimized inference kernels.
//!
//! GBDT columns and weight snapshots promise exact reconstruction.
//! These tests pin both contracts at the integration level, on the same
//! trained world the experiment binaries use:
//!
//! * a forest rebuilt from its columns scores exactly like the trained
//!   one,
//! * every roster detector reloaded from its weight snapshot scores
//!   bit-identically to the model that wrote it.
//!
//! The conv detectors' one f32 kernel is pinned to their training
//! forward by the unit tests beside it, and to batching by
//! `batch_equivalence.rs`.

use mpass_detectors::features::extract;
use mpass_detectors::{detector_from_snapshot, Detector};
use mpass_experiments::world::{World, WorldConfig};
use mpass_ml::{Gbdt, GbdtParams, Snapshot};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
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

#[test]
fn gbdt_columns_round_trip_exactly() {
    let w = world();
    // A forest over the real EMBER-style features of the real corpus.
    let features: Vec<Vec<f32>> = w.dataset.samples.iter().map(|s| extract(&s.bytes)).collect();
    let labels: Vec<f32> = w.dataset.samples.iter().map(|s| s.label.target()).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(41);
    let gbdt = Gbdt::train(&features, &labels, GbdtParams::default(), &mut rng);

    let (roots, feature, value, left, right) = gbdt.columns();
    let rebuilt = Gbdt::from_columns(gbdt.base(), roots, feature, value, left, right)
        .expect("columns round-trip");
    for f in &features {
        assert_eq!(
            rebuilt.logit(f).to_bits(),
            gbdt.logit(f).to_bits(),
            "columns -> rebuild changed a prediction"
        );
    }
}

#[test]
fn snapshot_reload_is_bit_identical_for_every_roster_detector() {
    let w = world();
    let items = probe_items(w);
    let snapshots = [
        ("MalConv", w.malconv.to_snapshot()),
        ("NonNeg", w.nonneg.to_snapshot()),
        ("MalGCG", w.malgcg.to_snapshot()),
        ("LightGBM", w.lightgbm.to_snapshot()),
    ];
    let originals: [&dyn Detector; 4] = [&w.malconv, &w.nonneg, &w.malgcg, &w.lightgbm];
    for ((name, snap), original) in snapshots.iter().zip(originals) {
        // Through the full byte-level encode/decode, as a reload would.
        let decoded = Snapshot::from_bytes(&snap.to_bytes()).expect("snapshot decodes");
        let reloaded = detector_from_snapshot(&decoded).expect("registry rebuilds");
        assert_eq!(original.threshold().to_bits(), reloaded.threshold().to_bits());
        for (i, bytes) in items.iter().enumerate() {
            assert_eq!(
                original.score(bytes).to_bits(),
                reloaded.score(bytes).to_bits(),
                "{name}: reloaded score diverged at item {i}"
            );
        }
    }
}
