//! Detector capability traits: the hard-label black-box interface and the
//! white-box interface of MPass's known-model ensemble.

use mpass_ml::{bce_with_logits, Embedding, Workspace};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;

/// A hard-label classification result — the only signal the black-box
/// attacks receive from a target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Verdict {
    /// The detector flags the file.
    Malicious,
    /// The detector passes the file.
    Benign,
}

impl Verdict {
    /// `true` when the detector flagged the file.
    pub fn is_malicious(self) -> bool {
        self == Verdict::Malicious
    }

    /// `true` when the detector passed the file.
    pub fn is_benign(self) -> bool {
        self == Verdict::Benign
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Malicious => "malicious",
            Verdict::Benign => "benign",
        })
    }
}

/// A static malware detector over raw file bytes.
///
/// [`Detector::score`] exists for training/evaluation; the attack code
/// paths only consume [`Detector::classify`], preserving the paper's
/// hard-label threat model.
pub trait Detector: Send + Sync {
    /// Short stable name (used in tables).
    fn name(&self) -> &str;

    /// Malicious probability in `[0, 1]`.
    fn score(&self, bytes: &[u8]) -> f32;

    /// An uncalibrated continuous decision value (e.g. the pre-sigmoid
    /// logit). Explainability methods (PEM) difference this instead of
    /// [`Detector::score`]: a well-trained model saturates its probability
    /// near 0/1, flattening the marginal contributions Shapley values
    /// measure, while the margin keeps them visible. Defaults to the
    /// probability for detectors without a natural margin.
    fn raw_score(&self, bytes: &[u8]) -> f32 {
        self.score(bytes)
    }

    /// Decision threshold on [`Detector::score`].
    fn threshold(&self) -> f32 {
        0.5
    }

    /// Hard-label classification.
    fn classify(&self, bytes: &[u8]) -> Verdict {
        if self.score(bytes) > self.threshold() {
            Verdict::Malicious
        } else {
            Verdict::Benign
        }
    }

    /// Score a batch of files, appending one probability per item to
    /// `out` in input order.
    ///
    /// Contract: the appended scores are **bit-identical** to `N`
    /// sequential [`Detector::score`] calls — batching is a throughput
    /// optimization, never a numerics change. The default loops over
    /// `score`, so third-party detectors keep working unchanged;
    /// implementations override it to amortize per-call overhead
    /// (dispatch, feature extraction, scratch allocation) across the
    /// batch. `out` is appended to (not cleared) so callers can
    /// accumulate several batches into one buffer.
    fn score_batch(&self, items: &[&[u8]], out: &mut Vec<f32>) {
        out.reserve(items.len());
        for bytes in items {
            out.push(self.score(bytes));
        }
    }

    /// Batched [`Detector::raw_score`]: append one margin per item to
    /// `out` in input order, bit-identical to `N` sequential calls. No
    /// detector overrides this loop and nothing outside tests calls it;
    /// like [`Detector::score_quantized`], it is kept only until the
    /// benchmark harness stops forwarding it.
    fn raw_score_batch(&self, items: &[&[u8]], out: &mut Vec<f32>) {
        out.reserve(items.len());
        for bytes in items {
            out.push(self.raw_score(bytes));
        }
    }

    /// Always `false`: no detector has a quantized path. Kept, like
    /// [`Detector::score_quantized`] and [`Detector::score_quantized_batch`],
    /// only until the benchmark harness stops forwarding it.
    fn has_quantized_path(&self) -> bool {
        false
    }

    /// f32 alias of [`Detector::score`], kept only until the benchmark
    /// harness stops forwarding it.
    fn score_quantized(&self, bytes: &[u8]) -> f32 {
        self.score(bytes)
    }

    /// f32 alias of [`Detector::score_batch`], kept only until the
    /// benchmark harness stops forwarding it.
    fn score_quantized_batch(&self, items: &[&[u8]], out: &mut Vec<f32>) {
        out.reserve(items.len());
        for bytes in items {
            out.push(self.score_quantized(bytes));
        }
    }

    /// Classify a batch of files, appending one verdict per item to
    /// `out` in input order. Equivalent to thresholding
    /// [`Detector::score_batch`] with the strict `>` of
    /// [`Detector::classify`].
    fn classify_batch(&self, items: &[&[u8]], out: &mut Vec<Verdict>) {
        let mut scores = Vec::new();
        self.score_batch(items, &mut scores);
        let threshold = self.threshold();
        out.reserve(scores.len());
        out.extend(scores.into_iter().map(|s| {
            if s > threshold {
                Verdict::Malicious
            } else {
                Verdict::Benign
            }
        }));
    }
}

/// Capability discovery over [`Detector`] trait objects.
///
/// Every concrete detector implements this; rosters can then be held as a
/// single `Vec<&dyn DetectorExt>` and the white-box subset (MPass's known
/// models) recovered with [`DetectorExt::as_white_box`] — no parallel
/// `&dyn Detector` / `&dyn WhiteBoxModel` lists.
pub trait DetectorExt: Detector {
    /// The white-box interface of this detector, if it exposes one.
    /// Defaults to `None`; gradient-capable models override it with
    /// `Some(self)`.
    fn as_white_box(&self) -> Option<&dyn WhiteBoxModel> {
        None
    }
}

/// A *known model* in MPass's ensemble transfer attack: a detector whose
/// byte-embedding table and input gradients are available (§III-D).
pub trait WhiteBoxModel: Detector {
    /// The byte-embedding table through which perturbations are lifted to
    /// continuous space and mapped back to bytes.
    fn embedding(&self) -> &Embedding;

    /// Number of leading file bytes the model consumes (its input window).
    fn window(&self) -> usize;

    /// Open a stateful inference session for repeated evaluation of
    /// *nearby* inputs (the optimizer mutates a handful of bytes per
    /// iteration), recomputing only what the dirty spans touch. The
    /// session is the model's one tabled white-box forward: it owns its
    /// scratch and takes the model as `&self`, so the gradient path is
    /// input-grad-only and never clones the model.
    fn session(&self) -> Box<dyn WhiteBoxSession + '_>;

    /// A fresh session's `loss_grad_delta(bytes, &[], grad)`; `ws` is
    /// unused. Kept, like [`Detector::score_quantized`], only until the
    /// benchmark harness stops forwarding it.
    fn benign_loss_grad_into(&self, bytes: &[u8], _ws: &mut Workspace, grad: &mut Vec<f32>) -> f32 {
        self.session().loss_grad_delta(bytes, &[], grad)
    }
}

/// A stateful white-box inference session over one evolving byte buffer.
///
/// Contract: across consecutive calls on one session, `dirty` must cover
/// every byte offset that changed since the previous call (supersets are
/// fine — they only cost extra recompute). The first call on a fresh
/// session recomputes everything regardless of `dirty`, as does any call
/// that changes `bytes.len()`. Incremental results are **exactly** equal
/// to a full recompute of the same session (bit-identical windows), never
/// an approximation.
pub trait WhiteBoxSession {
    /// The model's raw decision margin (pre-sigmoid logit) for `bytes`,
    /// recomputing only conv windows whose receptive field overlaps a
    /// dirty span.
    fn score_delta(&mut self, bytes: &[u8], dirty: &[Range<usize>]) -> f32;

    /// Benign-direction loss `ℒ(F(bytes), benign)` and its gradient with
    /// respect to the embedding vector of every input position, with the
    /// same incremental forward as [`WhiteBoxSession::score_delta`].
    /// `grad` is resized to `window() * embedding().dim()`; positions past
    /// the end of file hold the padding token and carry gradients too,
    /// though the attack never selects them.
    fn loss_grad_delta(
        &mut self,
        bytes: &[u8],
        dirty: &[Range<usize>],
        grad: &mut Vec<f32>,
    ) -> f32;
}

/// `bce_with_logits(logit, benign)` — the benign-direction loss every
/// white-box path derives from a raw logit. Exposed so sessions and
/// optimizers turn [`WhiteBoxSession::score_delta`] margins into losses
/// with the exact arithmetic of the gradient path.
pub fn benign_loss(logit: f32) -> f32 {
    bce_with_logits(logit, 0.0)
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
    impl DetectorExt for Fixed {}

    #[test]
    fn classify_uses_threshold() {
        assert_eq!(Fixed(0.9).classify(b"x"), Verdict::Malicious);
        assert_eq!(Fixed(0.1).classify(b"x"), Verdict::Benign);
        assert_eq!(Fixed(0.5).classify(b"x"), Verdict::Benign); // strict >
    }

    #[test]
    fn verdict_display() {
        assert_eq!(Verdict::Malicious.to_string(), "malicious");
        assert_eq!(Verdict::Benign.to_string(), "benign");
    }

    #[test]
    fn verdict_helpers() {
        assert!(Verdict::Malicious.is_malicious());
        assert!(!Verdict::Malicious.is_benign());
        assert!(Verdict::Benign.is_benign());
        assert!(!Verdict::Benign.is_malicious());
    }

    /// A detector whose score depends on the input, for batch-order tests.
    struct LenScore;
    impl Detector for LenScore {
        fn name(&self) -> &str {
            "len"
        }
        fn score(&self, bytes: &[u8]) -> f32 {
            bytes.len() as f32 / 10.0
        }
    }

    #[test]
    fn default_batch_methods_match_sequential_calls() {
        let det = LenScore;
        let items: Vec<&[u8]> = vec![b"abc", b"", b"0123456789", b"abcdef"];
        let mut scores = vec![f32::NAN]; // pre-existing entries survive
        det.score_batch(&items, &mut scores);
        assert!(scores[0].is_nan());
        for (batch, bytes) in scores[1..].iter().zip(&items) {
            assert_eq!(batch.to_bits(), det.score(bytes).to_bits());
        }
        let mut verdicts = Vec::new();
        det.classify_batch(&items, &mut verdicts);
        let seq: Vec<Verdict> = items.iter().map(|b| det.classify(b)).collect();
        assert_eq!(verdicts, seq);
    }

    #[test]
    fn batch_methods_are_object_safe() {
        let d: Box<dyn Detector> = Box::new(LenScore);
        let mut out = Vec::new();
        d.classify_batch(&[b"0123456789".as_slice(), b"x".as_slice()], &mut out);
        assert_eq!(out, vec![Verdict::Malicious, Verdict::Benign]);
    }

    #[test]
    fn detector_is_object_safe() {
        let d: Box<dyn Detector> = Box::new(Fixed(0.7));
        assert_eq!(d.classify(b"y"), Verdict::Malicious);
    }

    #[test]
    fn as_white_box_defaults_to_none() {
        let d: &dyn DetectorExt = &Fixed(0.7);
        assert!(d.as_white_box().is_none());
        // The black-box interface stays available through the same object.
        assert_eq!(d.classify(b"y"), Verdict::Malicious);
    }
}
