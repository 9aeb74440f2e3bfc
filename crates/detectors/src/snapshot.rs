//! Detector reconstruction from weight snapshots.
//!
//! Every offline detector can pack its trained weights into a
//! [`Snapshot`] (one checksummed payload; see `mpass-ml::snapshot`) and be
//! rebuilt from one with **bit-identical scores** — so a serving daemon's
//! hot reload costs one file read instead of a retrain, and N workers
//! sharing the reloaded model share one weight buffer through the
//! snapshot's `Arc` payload.
//!
//! [`detector_from_snapshot`] is the registry: it dispatches on the
//! snapshot's `detector` metadata and returns the model behind the
//! [`Detector`] object the [`crate::SwappableDetector`] slot expects.

use crate::lightgbm::LightGbm;
use crate::malconv::MalConv;
use crate::malgcg::MalGcg;
use crate::traits::Detector;
use mpass_ml::{Snapshot, SnapshotError};
use std::sync::Arc;

/// Rebuild the detector a snapshot captured, dispatching on its
/// `detector` metadata (`MalConv`, `NonNeg`, `MalGCG`, or `LightGBM`).
/// Unknown architectures and malformed payloads fail typed.
pub fn detector_from_snapshot(snap: &Snapshot) -> Result<Arc<dyn Detector>, SnapshotError> {
    match snap.meta("detector") {
        Some("MalConv" | "NonNeg") => Ok(Arc::new(MalConv::from_snapshot(snap)?)),
        Some("MalGCG") => Ok(Arc::new(MalGcg::from_snapshot(snap)?)),
        Some("LightGBM") => Ok(Arc::new(LightGbm::from_snapshot(snap)?)),
        Some(other) => Err(SnapshotError::UnknownDetector(other.to_owned())),
        None => Err(SnapshotError::MissingMeta("detector".to_owned())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::malconv::ByteConvConfig;
    use crate::malgcg::MalGcgConfig;
    use crate::train::{training_pairs, TrainingSet};
    use mpass_corpus::{CorpusConfig, Dataset};
    use mpass_ml::GbdtParams;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn dataset() -> Dataset {
        Dataset::generate(&CorpusConfig {
            n_malware: 12,
            n_benign: 12,
            seed: 21,
            no_slack_fraction: 0.0,
        })
    }

    fn assert_bit_identical(original: &dyn Detector, reloaded: &dyn Detector, ds: &Dataset) {
        assert_eq!(original.name(), reloaded.name());
        assert_eq!(original.threshold().to_bits(), reloaded.threshold().to_bits());
        for s in &ds.samples {
            assert_eq!(
                original.score(&s.bytes).to_bits(),
                reloaded.score(&s.bytes).to_bits(),
                "{}: score drifted through the snapshot",
                s.name
            );
            assert_eq!(
                original.raw_score(&s.bytes).to_bits(),
                reloaded.raw_score(&s.bytes).to_bits(),
                "{}: raw score drifted through the snapshot",
                s.name
            );
        }
    }

    #[test]
    fn malconv_snapshot_round_trips_bit_identically() {
        let ds = dataset();
        let pairs = training_pairs(&ds.samples.iter().collect::<Vec<_>>());
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let mut m = MalConv::new(ByteConvConfig::tiny(), &mut rng);
        m.train(&pairs, 2, 5e-3, &mut rng);
        // Through the registry AND through a byte-level encode/decode.
        let bytes = m.to_snapshot().to_bytes();
        let snap = Snapshot::from_bytes(&bytes).expect("snapshot decodes");
        let back = detector_from_snapshot(&snap).expect("registry rebuilds");
        assert_bit_identical(&m, back.as_ref(), &ds);
    }

    #[test]
    fn nonneg_snapshot_round_trips_bit_identically() {
        let ds = dataset();
        let pairs = training_pairs(&ds.samples.iter().collect::<Vec<_>>());
        let mut rng = ChaCha8Rng::seed_from_u64(32);
        let mut m = MalConv::nonneg(ByteConvConfig::tiny(), &mut rng);
        m.train(&pairs, 2, 5e-3, &mut rng);
        let snap = Snapshot::from_bytes(&m.to_snapshot().to_bytes()).expect("decodes");
        let back = detector_from_snapshot(&snap).expect("registry rebuilds");
        assert_bit_identical(&m, back.as_ref(), &ds);
        // The reloaded model keeps the NonNeg name and head constraint.
        let reloaded = MalConv::from_snapshot(&snap).expect("rebuilds");
        assert_eq!(reloaded.name(), "NonNeg");
        assert!(reloaded.weights_nonnegative());
    }

    #[test]
    fn malgcg_snapshot_round_trips_bit_identically() {
        let ds = dataset();
        let pairs = training_pairs(&ds.samples.iter().collect::<Vec<_>>());
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let mut m = MalGcg::new(MalGcgConfig::tiny(), &mut rng);
        m.train(&pairs, 2, 5e-3, &mut rng);
        let snap = Snapshot::from_bytes(&m.to_snapshot().to_bytes()).expect("decodes");
        let back = detector_from_snapshot(&snap).expect("registry rebuilds");
        assert_bit_identical(&m, back.as_ref(), &ds);
    }

    #[test]
    fn lightgbm_snapshot_round_trips_bit_identically() {
        let ds = dataset();
        let all: Vec<_> = ds.samples.iter().collect();
        let mut rng = ChaCha8Rng::seed_from_u64(34);
        let m = LightGbm::train(&TrainingSet::new(&all), GbdtParams::default(), &mut rng);
        let snap = Snapshot::from_bytes(&m.to_snapshot().to_bytes()).expect("decodes");
        let back = detector_from_snapshot(&snap).expect("registry rebuilds");
        assert_bit_identical(&m, back.as_ref(), &ds);
    }

    #[test]
    fn unknown_and_missing_architectures_fail_typed() {
        let mut b = mpass_ml::SnapshotBuilder::new();
        b.meta("detector", "Mystery");
        assert!(matches!(
            detector_from_snapshot(&b.finish()),
            Err(SnapshotError::UnknownDetector(name)) if name == "Mystery"
        ));
        let empty = mpass_ml::SnapshotBuilder::new().finish();
        assert!(matches!(
            detector_from_snapshot(&empty),
            Err(SnapshotError::MissingMeta(_))
        ));
    }

    /// A checksummed snapshot whose config no forward pass can run — a
    /// zero width, or a window shorter than one receptive field at either
    /// conv layer — fails typed at load instead of panicking at its first
    /// score.
    #[test]
    fn unrunnable_configs_fail_typed_at_load() {
        let mut rng = ChaCha8Rng::seed_from_u64(36);
        // Tiny MalConv has kernel 64; tiny MalGCG's layer 1 yields 128
        // windows, too few for a 129-wide layer 2.
        let snaps = [
            MalConv::new(ByteConvConfig { window: 16, ..ByteConvConfig::tiny() }, &mut rng)
                .to_snapshot(),
            MalGcg::new(MalGcgConfig { kernel2: 129, ..MalGcgConfig::tiny() }, &mut rng)
                .to_snapshot(),
            MalGcg::new(MalGcgConfig { window: 0, ..MalGcgConfig::tiny() }, &mut rng)
                .to_snapshot(),
        ];
        for (i, snap) in snaps.iter().enumerate() {
            let snap = Snapshot::from_bytes(&snap.to_bytes()).expect("snapshot decodes");
            assert!(
                matches!(detector_from_snapshot(&snap), Err(SnapshotError::BadMeta { .. })),
                "snapshot {i} loaded"
            );
        }
    }

    /// A [`crate::SwappableDetector`] reloaded from a weight snapshot must
    /// score bit-identically to the freshly trained model it replaces —
    /// the regression guarding the daemon's O(read) hot-reload path.
    #[test]
    fn swappable_reload_from_snapshot_is_bit_identical() {
        let ds = dataset();
        let pairs = training_pairs(&ds.samples.iter().collect::<Vec<_>>());
        let mut rng = ChaCha8Rng::seed_from_u64(35);
        let mut fresh = MalConv::new(ByteConvConfig::tiny(), &mut rng);
        fresh.train(&pairs, 2, 5e-3, &mut rng);
        let snap_bytes = fresh.to_snapshot().to_bytes();

        let slot = crate::SwappableDetector::new("malconv", Arc::new(fresh.clone()));
        let (before, v0) = slot.current();
        let reloaded = detector_from_snapshot(
            &Snapshot::from_bytes(&snap_bytes).expect("snapshot decodes"),
        )
        .expect("reload rebuilds");
        let v1 = slot.swap(reloaded);
        assert!(v1 > v0);
        let (after, _) = slot.current();
        for s in &ds.samples {
            assert_eq!(
                before.score(&s.bytes).to_bits(),
                after.score(&s.bytes).to_bits(),
                "{}: reload changed the score",
                s.name
            );
        }
    }
}
