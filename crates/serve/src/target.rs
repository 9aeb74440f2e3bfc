//! What the daemon scores against: a batch-scoring, epoch-tagged,
//! possibly hot-reloadable target.
//!
//! [`ServeTarget`] is the one trait the server loop needs. The stock
//! implementation is [`ReloadableModel`]: a [`SwappableDetector`] slot plus
//! a producer closure (the weekly-learning retrain); `reload` produces the
//! next model and swaps it in atomically, in-flight batches keep scoring on
//! their snapshot.
//!
//! Tests compose their own (e.g. fault injection *around* a reloadable
//! slot) by implementing the trait directly.

use mpass_detectors::{detector_from_snapshot, Detector, SwappableDetector, Verdict};
use mpass_engine::OracleFault;
use mpass_ml::Snapshot;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One delivered verdict, with the probability when the target has one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredVerdict {
    pub verdict: Verdict,
    /// `None` for hard-label channels (oracle transports).
    pub score: Option<f32>,
}

/// The server's scoring backend.
pub trait ServeTarget: Send + Sync {
    /// Epoch of the currently live model (1 for static targets).
    fn epoch(&self) -> u64;

    /// Produce and atomically publish the next model, returning the new
    /// epoch. Targets without a producer return `Err`.
    fn reload(&self) -> Result<u64, String>;

    /// Score one batch under **one** model snapshot, returning the
    /// snapshot's epoch and one result per item in input order. The
    /// single-snapshot contract is what makes hot reload safe: a batch
    /// admitted at epoch N scores entirely at epoch N even if a swap
    /// lands mid-batch.
    fn score_batch(&self, items: &[&[u8]]) -> (u64, Vec<Result<ScoredVerdict, OracleFault>>);
}

/// A hot-reloadable in-process model: swappable slot + producer.
pub struct ReloadableModel {
    slot: SwappableDetector,
    #[allow(clippy::type_complexity)]
    producer: Box<dyn Fn(u64) -> Result<Arc<dyn Detector>, String> + Send + Sync>,
}

impl ReloadableModel {
    /// A slot serving `initial`, with `producer` invoked per reload.
    /// The producer receives the epoch the new model will serve as
    /// (useful for deriving a retrain seed).
    pub fn new<F>(initial: Arc<dyn Detector>, producer: F) -> Self
    where
        F: Fn(u64) -> Result<Arc<dyn Detector>, String> + Send + Sync + 'static,
    {
        ReloadableModel {
            slot: SwappableDetector::new("serve-live", initial),
            producer: Box::new(producer),
        }
    }

    /// The underlying slot (e.g. for wrapping in a fault channel).
    pub fn slot(&self) -> &SwappableDetector {
        &self.slot
    }

    /// A slot backed by a weight-snapshot file: the initial model is
    /// decoded from `path` now, and every `reload` re-reads the same file
    /// — so a retrain elsewhere only has to atomically replace the file
    /// and the daemon picks it up at O(read) cost, with bit-identical
    /// scores to the model that wrote it.
    pub fn from_snapshot_file(path: impl AsRef<Path>) -> Result<Self, String> {
        let path: PathBuf = path.as_ref().to_owned();
        let initial = load_snapshot_detector(&path)?;
        Ok(ReloadableModel::new(initial, move |_| load_snapshot_detector(&path)))
    }
}

/// Decode one snapshot file into a live detector, stringifying the typed
/// snapshot errors for the producer/CLI boundary.
fn load_snapshot_detector(path: &Path) -> Result<Arc<dyn Detector>, String> {
    let snap = Snapshot::load_file(path)
        .map_err(|e| format!("snapshot {}: {e}", path.display()))?;
    detector_from_snapshot(&snap).map_err(|e| format!("snapshot {}: {e}", path.display()))
}

impl ServeTarget for ReloadableModel {
    fn epoch(&self) -> u64 {
        self.slot.epoch()
    }

    fn reload(&self) -> Result<u64, String> {
        let next = (self.producer)(self.slot.epoch() + 1)?;
        Ok(self.slot.swap(next))
    }

    fn score_batch(&self, items: &[&[u8]]) -> (u64, Vec<Result<ScoredVerdict, OracleFault>>) {
        let (model, epoch) = self.slot.current();
        let mut scores = Vec::with_capacity(items.len());
        model.score_batch(items, &mut scores);
        let threshold = model.threshold();
        let results = scores
            .into_iter()
            .map(|s| {
                let verdict =
                    if s > threshold { Verdict::Malicious } else { Verdict::Benign };
                Ok(ScoredVerdict { verdict, score: Some(s) })
            })
            .collect();
        (epoch, results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed(f32);
    impl Detector for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }
        fn score(&self, _: &[u8]) -> f32 {
            self.0
        }
    }

    #[test]
    fn reloadable_model_swaps_through_its_producer() {
        let model = ReloadableModel::new(Arc::new(Fixed(0.9)), |epoch| {
            // Producer derives the new model from the target epoch.
            Ok(Arc::new(Fixed(if epoch % 2 == 0 { 0.1 } else { 0.9 })) as Arc<dyn Detector>)
        });
        assert_eq!(model.epoch(), 1);
        let (epoch, results) = model.score_batch(&[b"x".as_slice()]);
        assert_eq!(epoch, 1);
        assert_eq!(results[0].as_ref().unwrap().verdict, Verdict::Malicious);
        assert_eq!(results[0].as_ref().unwrap().score, Some(0.9));

        assert_eq!(model.reload().unwrap(), 2);
        let (epoch, results) = model.score_batch(&[b"x".as_slice()]);
        assert_eq!(epoch, 2);
        assert_eq!(results[0].as_ref().unwrap().verdict, Verdict::Benign);
    }

    #[test]
    fn reloadable_model_surfaces_producer_errors_without_swapping() {
        let model =
            ReloadableModel::new(Arc::new(Fixed(0.9)), |_| Err("retrain failed".to_owned()));
        assert!(model.reload().is_err());
        assert_eq!(model.epoch(), 1, "failed reload must not bump the epoch");
    }

    /// A syntactically valid all-zero MalConv snapshot (tiny shapes) whose
    /// head bias forces logit 2.0 → score σ(2) ≈ 0.88 on every input.
    fn tiny_malconv_snapshot() -> mpass_ml::Snapshot {
        let (dim, filters, kernel, hidden) = (2usize, 2usize, 2usize, 2usize);
        let mut b = mpass_ml::SnapshotBuilder::new();
        b.meta("detector", "MalConv")
            .meta("window", 4)
            .meta("embed_dim", dim)
            .meta("filters", filters)
            .meta("kernel", kernel)
            .meta("stride", 2)
            .meta("hidden", hidden)
            .meta("nonneg", 0)
            .tensor("embedding", &vec![0.0; 257 * dim])
            .tensor("conv_a.weight", &vec![0.0; filters * kernel * dim])
            .tensor("conv_a.bias", &vec![0.0; filters])
            .tensor("conv_b.weight", &vec![0.0; filters * kernel * dim])
            .tensor("conv_b.bias", &vec![0.0; filters])
            .tensor("head1.weight", &vec![0.0; hidden * filters])
            .tensor("head1.bias", &vec![0.0; hidden])
            .tensor("head2.weight", &vec![0.0; hidden])
            .tensor("head2.bias", &[2.0])
            .tensor("threshold", &[0.5]);
        b.finish()
    }

    #[test]
    fn snapshot_file_target_serves_and_reloads_from_the_file() {
        let path = std::env::temp_dir()
            .join(format!("mpass-serve-snap-{}.mpss", std::process::id()));
        tiny_malconv_snapshot().write_file(&path).expect("snapshot writes");

        let model = ReloadableModel::from_snapshot_file(&path).expect("loads");
        assert_eq!(model.epoch(), 1);
        let (_, before) = model.score_batch(&[b"x".as_slice()]);
        let sv = before[0].as_ref().unwrap();
        assert_eq!(sv.verdict, Verdict::Malicious);
        let score = sv.score.expect("in-process model exposes scores");

        // Reload re-reads the same file: epoch bumps, scores bit-identical.
        assert_eq!(model.reload().unwrap(), 2);
        let (epoch, after) = model.score_batch(&[b"x".as_slice()]);
        assert_eq!(epoch, 2);
        assert_eq!(after[0].as_ref().unwrap().score.unwrap().to_bits(), score.to_bits());

        // A vanished file fails the reload without unseating the live model.
        std::fs::remove_file(&path).unwrap();
        assert!(model.reload().is_err());
        assert_eq!(model.epoch(), 2, "failed reload must not bump the epoch");
        assert!(ReloadableModel::from_snapshot_file(&path).is_err());
    }
}
