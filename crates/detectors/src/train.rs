//! Shared training helpers.

use crate::features::extract;
use mpass_corpus::Sample;

/// Labelled samples with their static features extracted once: every
/// feature-based detector trained on the same samples (LightGBM and each
/// simulated commercial AV) reads this one extraction instead of running
/// its own.
#[derive(Debug, Clone)]
pub struct TrainingSet<'a> {
    samples: Vec<&'a Sample>,
    features: Vec<Vec<f32>>,
    labels: Vec<f32>,
}

impl<'a> TrainingSet<'a> {
    /// Extract the features of `samples`, in sample order.
    pub fn new(samples: &[&'a Sample]) -> Self {
        TrainingSet {
            samples: samples.to_vec(),
            features: samples.iter().map(|s| extract(&s.bytes)).collect(),
            labels: samples.iter().map(|s| s.label.target()).collect(),
        }
    }

    /// The samples, in order.
    pub fn samples(&self) -> &[&'a Sample] {
        &self.samples
    }

    /// Each sample's [`crate::features::extract`] vector.
    pub fn features(&self) -> &[Vec<f32>] {
        &self.features
    }

    /// Each sample's training target (1 for malware, 0 for benign).
    pub fn labels(&self) -> &[f32] {
        &self.labels
    }
}

/// Borrowed `(bytes, target)` pairs from samples, in sample order.
pub fn training_pairs<'a>(samples: &[&'a Sample]) -> Vec<(&'a [u8], f32)> {
    samples.iter().map(|s| (s.bytes.as_slice(), s.label.target())).collect()
}

/// Score/label pairs for metric computation over a detector. Goes through
/// [`crate::Detector::score_batch`] (bit-identical to per-sample `score`
/// calls) so evaluation over a corpus pays batch rates.
pub fn score_pairs<D: crate::Detector + ?Sized>(
    detector: &D,
    samples: &[&Sample],
) -> Vec<(f32, f32)> {
    let items: Vec<&[u8]> = samples.iter().map(|s| s.bytes.as_slice()).collect();
    let mut scores = Vec::with_capacity(items.len());
    detector.score_batch(&items, &mut scores);
    scores.into_iter().zip(samples).map(|(score, s)| (score, s.label.target())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpass_corpus::{CorpusConfig, Dataset};

    #[test]
    fn pairs_align_with_labels() {
        let ds = Dataset::generate(&CorpusConfig {
            n_malware: 3,
            n_benign: 3,
            seed: 1,
            no_slack_fraction: 0.0,
        });
        let samples: Vec<_> = ds.samples.iter().collect();
        let pairs = training_pairs(&samples);
        assert_eq!(pairs.len(), 6);
        assert!(pairs[..3].iter().all(|(_, t)| *t == 1.0));
        assert!(pairs[3..].iter().all(|(_, t)| *t == 0.0));
    }
}
