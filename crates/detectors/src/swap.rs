//! Hot-swappable scoring target: an atomic epoch/`Arc` model slot.
//!
//! A long-lived scoring service (`mpass serve`) must survive the
//! commercial-AV weekly-learning dynamic: the model behind it is
//! retrained and replaced *while requests are in flight*. The
//! [`SwappableDetector`] makes that safe with the classic epoch/`Arc`
//! scheme:
//!
//! * the live model lives in a slot as `Arc<dyn Detector>` tagged with a
//!   monotonically increasing **epoch** number;
//! * every scoring call snapshots the slot **once** (cloning the `Arc`,
//!   not the model) and runs entirely against that snapshot — a batch
//!   never straddles a swap, and an in-flight request keeps its model
//!   alive through the `Arc` even after a swap retires it from the slot;
//! * [`SwappableDetector::swap`] publishes a new model atomically and
//!   bumps the epoch; readers that snapshotted before the swap finish on
//!   the old model, readers after get the new one. Nothing blocks, and
//!   no request is ever dropped or torn across models.
//!
//! The slot itself is a `RwLock` held only for the duration of an `Arc`
//! clone (a few instructions) — scoring work happens outside it, so
//! swap latency is bounded by the slowest *snapshot*, not the slowest
//! *request*.

use crate::traits::{Detector, Verdict};
use std::sync::{Arc, RwLock};

struct Slot {
    model: Arc<dyn Detector>,
    epoch: u64,
}

/// A [`Detector`] whose underlying model can be replaced atomically at
/// runtime. See the module docs for the epoch/`Arc` scheme.
///
/// The swappable carries its own stable `name` (the slot's models may
/// have different names across epochs, and `Detector::name` must return
/// a `&str` that outlives the slot snapshot).
pub struct SwappableDetector {
    name: String,
    slot: RwLock<Slot>,
}

impl SwappableDetector {
    /// A slot serving `initial` at epoch 1.
    pub fn new(name: impl Into<String>, initial: Arc<dyn Detector>) -> Self {
        SwappableDetector {
            name: name.into(),
            slot: RwLock::new(Slot { model: initial, epoch: 1 }),
        }
    }

    /// Snapshot the live model and its epoch. The returned `Arc` keeps
    /// that model alive regardless of later swaps; callers score against
    /// the snapshot so one logical operation never spans two models.
    pub fn current(&self) -> (Arc<dyn Detector>, u64) {
        let slot = self.slot.read().unwrap_or_else(|p| p.into_inner());
        (Arc::clone(&slot.model), slot.epoch)
    }

    /// The epoch of the live model.
    pub fn epoch(&self) -> u64 {
        self.slot.read().unwrap_or_else(|p| p.into_inner()).epoch
    }

    /// Atomically publish `next` as the live model and return the new
    /// epoch. In-flight snapshots of the previous model stay valid; new
    /// snapshots observe `next`.
    pub fn swap(&self, next: Arc<dyn Detector>) -> u64 {
        let mut slot = self.slot.write().unwrap_or_else(|p| p.into_inner());
        slot.model = next;
        slot.epoch += 1;
        slot.epoch
    }
}

impl Detector for SwappableDetector {
    fn name(&self) -> &str {
        &self.name
    }

    fn score(&self, bytes: &[u8]) -> f32 {
        let (model, _) = self.current();
        model.score(bytes)
    }

    fn raw_score(&self, bytes: &[u8]) -> f32 {
        let (model, _) = self.current();
        model.raw_score(bytes)
    }

    fn threshold(&self) -> f32 {
        let (model, _) = self.current();
        model.threshold()
    }

    fn classify(&self, bytes: &[u8]) -> Verdict {
        let (model, _) = self.current();
        model.classify(bytes)
    }

    // One snapshot per *batch*: a batched call is one logical operation
    // and must never straddle a swap mid-batch. (`raw_score_batch` keeps
    // the trait's per-item loop: nothing batches margins through a slot.)
    fn score_batch(&self, items: &[&[u8]], out: &mut Vec<f32>) {
        let (model, _) = self.current();
        model.score_batch(items, out);
    }

    fn classify_batch(&self, items: &[&[u8]], out: &mut Vec<Verdict>) {
        let (model, _) = self.current();
        model.classify_batch(items, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    struct Fixed {
        name: &'static str,
        score: f32,
    }
    impl Detector for Fixed {
        fn name(&self) -> &str {
            self.name
        }
        fn score(&self, _: &[u8]) -> f32 {
            self.score
        }
    }

    #[test]
    fn swap_bumps_epoch_and_changes_verdicts() {
        let swappable = SwappableDetector::new(
            "live",
            Arc::new(Fixed { name: "v1", score: 0.9 }),
        );
        assert_eq!(swappable.epoch(), 1);
        assert_eq!(swappable.name(), "live");
        assert_eq!(swappable.classify(b"x"), Verdict::Malicious);

        let epoch = swappable.swap(Arc::new(Fixed { name: "v2", score: 0.1 }));
        assert_eq!(epoch, 2);
        assert_eq!(swappable.epoch(), 2);
        assert_eq!(swappable.classify(b"x"), Verdict::Benign);
    }

    #[test]
    fn snapshot_survives_a_swap() {
        let swappable =
            SwappableDetector::new("live", Arc::new(Fixed { name: "v1", score: 0.9 }));
        let (old, epoch) = swappable.current();
        assert_eq!(epoch, 1);
        swappable.swap(Arc::new(Fixed { name: "v2", score: 0.1 }));
        // The pre-swap snapshot still scores with the old model.
        assert_eq!(old.score(b"x"), 0.9);
        // Fresh snapshots see the new one.
        let (new, epoch) = swappable.current();
        assert_eq!(epoch, 2);
        assert_eq!(new.score(b"x"), 0.1);
    }

    #[test]
    fn batch_snapshots_once_even_if_a_swap_lands_mid_batch() {
        // A malicious-scoring model that, on its first score call, swaps
        // the slot over to a benign-scoring model. If the swappable
        // re-snapshotted per item, items after the first would come back
        // benign; the single-snapshot contract keeps the whole batch on
        // the epoch that was live when the batch started.
        struct SwapsOutFromUnder {
            slot: Arc<SwappableDetector>,
            fired: AtomicBool,
        }
        impl Detector for SwapsOutFromUnder {
            fn name(&self) -> &str {
                "trap"
            }
            fn score(&self, _: &[u8]) -> f32 {
                if !self.fired.swap(true, Ordering::SeqCst) {
                    self.slot.swap(Arc::new(Fixed { name: "v2", score: 0.1 }));
                }
                0.9
            }
        }

        let swappable = Arc::new(SwappableDetector::new(
            "live",
            Arc::new(Fixed { name: "seed", score: 0.5 }),
        ));
        let trap = Arc::new(SwapsOutFromUnder {
            slot: Arc::clone(&swappable),
            fired: AtomicBool::new(false),
        });
        swappable.swap(trap); // epoch 2: the trap is live
        let mut out = Vec::new();
        swappable.classify_batch(&[b"a".as_slice(), b"b".as_slice(), b"c".as_slice()], &mut out);
        // All three items scored through the trap (0.9 -> malicious),
        // even though the trap replaced itself after item one.
        assert_eq!(out, vec![Verdict::Malicious; 3]);
        // The swap the trap performed is visible to *new* calls.
        assert_eq!(swappable.epoch(), 3);
        assert_eq!(swappable.classify(b"x"), Verdict::Benign);
    }

    #[test]
    fn concurrent_swaps_and_scores_are_safe() {
        let swappable =
            SwappableDetector::new("live", Arc::new(Fixed { name: "v1", score: 0.9 }));
        std::thread::scope(|scope| {
            let s = &swappable;
            let swapper = scope.spawn(move || {
                for i in 0..50u32 {
                    let score = if i % 2 == 0 { 0.1 } else { 0.9 };
                    s.swap(Arc::new(Fixed { name: "vN", score }));
                }
            });
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(move || {
                        for _ in 0..50 {
                            // Every read must be a coherent verdict from
                            // *some* epoch — never a torn state.
                            let v = s.classify(b"x");
                            assert!(v.is_malicious() || v.is_benign());
                        }
                    })
                })
                .collect();
            swapper.join().expect("swapper panicked");
            for r in readers {
                r.join().expect("reader panicked");
            }
        });
        assert_eq!(swappable.epoch(), 51);
    }
}
