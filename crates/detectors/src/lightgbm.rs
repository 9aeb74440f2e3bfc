//! The LightGBM/EMBER-style detector: gradient-boosted trees over static
//! PE features.
//!
//! This is the paper's third offline target. Deliberately *not* a
//! [`crate::WhiteBoxModel`]: "LightGBM is not used as a known model since
//! it cannot be backpropagated" (paper footnote 6), so MPass attacks it by
//! pure transfer from the differentiable ensemble.

use crate::features::extract;
use crate::train::TrainingSet;
use crate::traits::Detector;
use mpass_ml::{Gbdt, GbdtParams, Snapshot, SnapshotBuilder, SnapshotError};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// GBDT over EMBER-style features.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LightGbm {
    model: Gbdt,
    threshold: f32,
}

impl LightGbm {
    /// Train on a labelled set's extracted features.
    pub fn train<R: Rng + ?Sized>(
        set: &TrainingSet,
        params: GbdtParams,
        rng: &mut R,
    ) -> LightGbm {
        let model = Gbdt::train(set.features(), set.labels(), params, rng);
        LightGbm { model, threshold: 0.5 }
    }

    /// The underlying tree count (diagnostic).
    pub fn tree_count(&self) -> usize {
        self.model.tree_count()
    }

    /// Pack the trained forest into a versioned, checksummed [`Snapshot`]:
    /// the forest's node columns plus base and threshold scalars.
    pub fn to_snapshot(&self) -> Snapshot {
        let (roots, feature, value, left, right) = self.model.columns();
        let mut b = SnapshotBuilder::new();
        b.meta("detector", "LightGBM")
            .meta("feature_dim", crate::features::FEATURE_DIM)
            .tensor("gbdt.base", &[self.model.base()])
            .tensor_u32("gbdt.roots", &roots)
            .tensor_u32("gbdt.feature", &feature)
            .tensor("gbdt.value", &value)
            .tensor_u32("gbdt.left", &left)
            .tensor_u32("gbdt.right", &right)
            .tensor("threshold", &[self.threshold]);
        b.finish()
    }

    /// Rebuild the exact model a [`LightGbm::to_snapshot`] captured;
    /// scores are bit-identical to the source model's. The forest topology
    /// is re-validated, so hostile snapshots fail typed instead of looping
    /// or panicking.
    pub fn from_snapshot(snap: &Snapshot) -> Result<LightGbm, SnapshotError> {
        let dim: usize = snap.meta_parsed("feature_dim")?;
        if dim != crate::features::FEATURE_DIM {
            return Err(SnapshotError::BadMeta {
                key: "feature_dim".to_owned(),
                value: dim.to_string(),
            });
        }
        let model = Gbdt::from_columns(
            snap.tensor_scalar("gbdt.base")?,
            snap.tensor_u32("gbdt.roots")?,
            snap.tensor_u32("gbdt.feature")?,
            snap.tensor("gbdt.value")?.to_vec(),
            snap.tensor_u32("gbdt.left")?,
            snap.tensor_u32("gbdt.right")?,
        )
        .map_err(|e| SnapshotError::BadMeta { key: "gbdt".to_owned(), value: e })?;
        Ok(LightGbm { model, threshold: snap.tensor_scalar("threshold")? })
    }
}

impl Detector for LightGbm {
    fn name(&self) -> &str {
        "LightGBM"
    }

    fn score(&self, bytes: &[u8]) -> f32 {
        self.model.score(&extract(bytes))
    }

    fn raw_score(&self, bytes: &[u8]) -> f32 {
        self.model.logit(&extract(bytes))
    }

    fn threshold(&self) -> f32 {
        self.threshold
    }
}

// Footnote 6: trees cannot be back-propagated, so `as_white_box` stays at
// its default `None` — LightGBM is never a known model.
impl crate::traits::DetectorExt for LightGbm {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{score_pairs, TrainingSet};
    use mpass_corpus::{CorpusConfig, Dataset};
    use mpass_ml::metrics;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn learns_and_generalizes() {
        let ds = Dataset::generate(&CorpusConfig {
            n_malware: 30,
            n_benign: 30,
            seed: 9,
            no_slack_fraction: 0.1,
        });
        let (train, test) = ds.split(5);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let model = LightGbm::train(&TrainingSet::new(&train), GbdtParams::default(), &mut rng);
        let pairs = score_pairs(&model, &test);
        let acc = metrics::accuracy(&pairs, model.threshold());
        let auc = metrics::auc(&pairs);
        // 48 training samples of the shortcut-free corpus: sanity floor.
        assert!(acc >= 0.8, "test accuracy {acc}");
        assert!(auc >= 0.85, "test auc {auc}");
    }

    #[test]
    fn appending_overlay_barely_moves_score() {
        // Tree features are ratio-based; a modest overlay should not flip a
        // confident malware verdict (which is why append-only baselines
        // struggle against feature-space models).
        let ds = Dataset::generate(&CorpusConfig {
            n_malware: 20,
            n_benign: 20,
            seed: 2,
            no_slack_fraction: 0.0,
        });
        let all: Vec<_> = ds.samples.iter().collect();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let model = LightGbm::train(&TrainingSet::new(&all), GbdtParams::default(), &mut rng);
        let s = ds.malware()[0];
        let base = model.score(&s.bytes);
        let mut pe = s.pe().unwrap().clone();
        pe.append_overlay(&vec![0x41; 256]);
        let with = model.score(&pe.to_bytes());
        assert!(base > 0.5);
        assert!((base - with).abs() < 0.4);
    }

    /// A LightGBM snapshot holding the given forest columns.
    fn forest_snapshot(roots: &[u32], left: &[u32], right: &[u32]) -> Snapshot {
        const LEAF: u32 = u32::MAX;
        let feature: Vec<u32> =
            left.iter().zip(right).map(|(&l, &r)| if l == r { LEAF } else { 0 }).collect();
        let mut b = SnapshotBuilder::new();
        b.meta("detector", "LightGBM")
            .meta("feature_dim", crate::features::FEATURE_DIM)
            .tensor("gbdt.base", &[0.0])
            .tensor_u32("gbdt.roots", roots)
            .tensor_u32("gbdt.feature", &feature)
            .tensor("gbdt.value", &vec![0.5; left.len()])
            .tensor_u32("gbdt.left", left)
            .tensor_u32("gbdt.right", right)
            .tensor("threshold", &[0.5]);
        b.finish()
    }

    /// Columns whose every child lies after its parent can still break
    /// the per-tree layout: a child inside the next tree, or roots out of
    /// order. Both must fail to load. (Leaves have `left == right`.)
    #[test]
    fn hostile_forest_snapshots_are_rejected() {
        // Tree 0 is a split over two leaves, tree 1 one leaf.
        let valid = forest_snapshot(&[0, 3], &[1, 0, 0, 0], &[2, 0, 0, 0]);
        assert!(LightGbm::from_snapshot(&valid).is_ok());
        // Tree 0's root sends its right child to tree 1's root.
        let crossing = forest_snapshot(&[0, 3], &[1, 0, 0, 0], &[3, 0, 0, 0]);
        assert!(LightGbm::from_snapshot(&crossing).is_err());
        // Descending roots over two one-leaf trees.
        let descending = forest_snapshot(&[1, 0], &[0, 0], &[0, 0]);
        assert!(LightGbm::from_snapshot(&descending).is_err());
    }
}
