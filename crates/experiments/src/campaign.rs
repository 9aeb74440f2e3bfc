//! Campaign-level robustness options shared by the experiment runners:
//! fault injection on the oracle channel, the retry policy applied to
//! it, the crash-safe resume journal, and the sample ingestion gate.

use crate::journal::CampaignJournal;
use mpass_core::{HardLabelTarget, QueryBudget, RetryPolicy};
use mpass_corpus::Sample;
use mpass_detectors::{Detector, FaultProfile, UnreliableOracle};
use mpass_engine::metrics as trace;
use std::path::PathBuf;

/// How a campaign run should treat the oracle transport and its own
/// durability. `Default` is the historical behaviour: reliable oracle,
/// no journal.
#[derive(Clone, Debug, Default)]
pub struct CampaignOptions {
    /// Inject faults into every oracle query using this profile
    /// (reseeded per shard so schedules are independent but replayable).
    pub faults: Option<FaultProfile>,
    /// Retry policy for failed submissions. Ignored (no submissions can
    /// fail) when `faults` is `None`.
    pub retry: RetryPolicy,
    /// Write-ahead journal path for crash-safe resume.
    pub journal: Option<PathBuf>,
    /// Resume from an existing journal instead of starting it over.
    pub resume: bool,
}

impl CampaignOptions {
    /// Open the configured journal. A fresh (non-`resume`) run deletes
    /// any stale journal first so recovered records can only come from
    /// *this* campaign.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from creating or recovering the
    /// journal file.
    pub fn open_journal(&self) -> std::io::Result<Option<CampaignJournal>> {
        let Some(path) = &self.journal else { return Ok(None) };
        if !self.resume {
            match std::fs::remove_file(path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        CampaignJournal::open(path).map(Some)
    }
}

/// The oracle channel one shard queries: the detector itself, or the
/// detector behind a per-shard [`UnreliableOracle`].
///
/// Owning the wrapper here (rather than in the per-sample loop) keeps
/// one fault schedule per shard: sample boundaries advance the schedule
/// exactly as queries do, which is what makes kill-and-resume replay
/// line up with the original run.
pub enum ShardOracle<'a> {
    /// Perfectly reliable in-process detector.
    Reliable(&'a dyn Detector),
    /// Fault-injected channel around the detector.
    Faulty(UnreliableOracle<'a>),
}

impl<'a> ShardOracle<'a> {
    /// Build the channel a shard should query. With faults enabled the
    /// profile is reseeded with `shard_seed` (the engine's label-keyed
    /// seed) so every shard draws an independent, replayable schedule.
    pub fn build(detector: &'a dyn Detector, opts: &CampaignOptions, shard_seed: u64) -> Self {
        match &opts.faults {
            None => ShardOracle::Reliable(detector),
            Some(profile) => ShardOracle::Faulty(UnreliableOracle::new(
                detector,
                profile.reseeded(profile.seed ^ shard_seed),
            )),
        }
    }

    /// A fresh budgeted [`HardLabelTarget`] over this channel for one
    /// sample. `retry_seed` keys the deterministic backoff jitter.
    ///
    /// Campaign targets always validate adversarial candidates before
    /// submission: bytes that do not re-parse and round-trip as a PE
    /// are rejected locally (no budget spent) and recorded in metrics,
    /// so a buggy or hostile mutation can never smuggle a malformed
    /// sample into the oracle channel.
    pub fn target(
        &self,
        max_queries: usize,
        retry: &RetryPolicy,
        retry_seed: u64,
    ) -> HardLabelTarget<'_> {
        match self {
            ShardOracle::Reliable(det) => {
                HardLabelTarget::new(*det, max_queries).with_ae_validation()
            }
            ShardOracle::Faulty(oracle) => {
                HardLabelTarget::unreliable(oracle, QueryBudget::new(max_queries), retry.clone())
                    .with_retry_seed(retry_seed)
                    .with_ae_validation()
            }
        }
    }
}

/// The ingestion gate every campaign loop applies before attacking a
/// sample. Bytes that do not re-parse and survive a serialize/re-parse
/// round trip — the predicate the oracle channel applies to outgoing
/// candidates ([`mpass_core::validate`]), applied here to incoming
/// samples — get the sample quarantined: counted in
/// `campaign/quarantined`, journalled once under `label` with the
/// diagnostic, and reported as `true` so the caller skips it instead of
/// handing it to the attack, where hostile structure could otherwise
/// surface deep inside the mutation machinery.
///
/// # Panics
///
/// On a journal write failure, like every other shard journal write.
pub fn quarantined(sample: &Sample, label: &str, journal: Option<&CampaignJournal>) -> bool {
    let Some(reason) = mpass_core::validate::candidate_reject_reason(&sample.bytes) else {
        return false;
    };
    trace::counter("campaign/quarantined", 1);
    if let Some(journal) = journal {
        if journal.quarantine_reason(label, &sample.name).is_none() {
            journal
                .record_quarantine(label, &sample.name, &reason)
                .unwrap_or_else(|e| panic!("shard {label}: journal write failed: {e}"));
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpass_detectors::Verdict;

    struct Benign;
    impl Detector for Benign {
        fn name(&self) -> &str {
            "Benign"
        }
        fn score(&self, _bytes: &[u8]) -> f32 {
            0.0
        }
    }

    #[test]
    fn reliable_channel_by_default() {
        let det = Benign;
        let oracle = ShardOracle::build(&det, &CampaignOptions::default(), 7);
        assert!(matches!(oracle, ShardOracle::Reliable(_)));
        let mut target = oracle.target(3, &RetryPolicy::default(), 7);
        assert!(target.validates_ae());
        // The campaign channel gates submissions: bytes that are not a
        // well-formed PE never reach the oracle and spend no budget.
        assert_eq!(target.query(b"MZ"), Err(mpass_core::QueryError::InvalidCandidate));
        assert_eq!(target.remaining(), 3);
        let ds = mpass_corpus::Dataset::generate(&mpass_corpus::CorpusConfig {
            n_malware: 0,
            n_benign: 1,
            seed: 7,
            no_slack_fraction: 0.0,
        });
        assert_eq!(target.query(&ds.samples[0].bytes), Ok(Verdict::Benign));
        assert_eq!(target.remaining(), 2);
    }

    #[test]
    fn ingestion_gate_admits_the_corpus_and_quarantines_garbage() {
        let ds = mpass_corpus::Dataset::generate(&mpass_corpus::CorpusConfig {
            n_malware: 1,
            n_benign: 1,
            seed: 3,
            no_slack_fraction: 0.0,
        });
        for s in &ds.samples {
            assert!(!quarantined(s, "shard", None), "{}", s.name);
        }
        let mut garbage = ds.samples[0].clone();
        garbage.bytes = b"MZ but not actually a PE".to_vec();
        assert!(quarantined(&garbage, "shard", None));
    }

    #[test]
    fn faulty_channel_reseeds_per_shard() {
        let det = Benign;
        let opts = CampaignOptions {
            faults: Some(FaultProfile::seeded(99)),
            ..CampaignOptions::default()
        };
        let a = ShardOracle::build(&det, &opts, 1);
        let b = ShardOracle::build(&det, &opts, 2);
        let (ShardOracle::Faulty(a), ShardOracle::Faulty(b)) = (&a, &b) else {
            panic!("faults configured; expected faulty channels");
        };
        assert_ne!(a.profile().seed, b.profile().seed);
        // Same shard seed reproduces the same schedule seed.
        let ShardOracle::Faulty(a2) = ShardOracle::build(&det, &opts, 1) else {
            panic!("expected a faulty channel");
        };
        assert_eq!(a.profile().seed, a2.profile().seed);
    }

    #[test]
    fn fresh_run_deletes_a_stale_journal() {
        let dir = std::env::temp_dir().join("mpass-campaign-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("stale-{}.jsonl", std::process::id()));
        std::fs::write(&path, "{\"kind\":\"shard\",\"shard\":\"s\",\"cell\":1}\n").unwrap();

        let resumed = CampaignOptions {
            journal: Some(path.clone()),
            resume: true,
            ..CampaignOptions::default()
        };
        let journal = resumed.open_journal().unwrap().unwrap();
        assert_eq!(journal.shard_cell::<u64>("s"), Some(1));
        drop(journal);

        let fresh =
            CampaignOptions { journal: Some(path.clone()), ..CampaignOptions::default() };
        let journal = fresh.open_journal().unwrap().unwrap();
        assert_eq!(journal.shard_cell::<u64>("s"), None);
        drop(journal);
        std::fs::remove_file(&path).unwrap();
    }
}
