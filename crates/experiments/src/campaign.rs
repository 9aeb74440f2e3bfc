//! The campaign runner's per-shard half: `run_shard`, the one
//! per-sample loop every campaign kind runs — offline and commercial,
//! in-process and in a worker process — over an optionally fault-injected
//! oracle channel and an optional crash-safe resume journal.

use crate::journal::CampaignJournal;
use crate::world::World;
use mpass_core::attack::metrics::{summarize, AttackStats};
use mpass_core::{Attack, AttackOutcome, HardLabelTarget, QueryBudget, RetryPolicy};
use mpass_corpus::Sample;
use mpass_detectors::{Detector, FaultProfile, UnreliableOracle};
use mpass_engine::metrics as trace;
use serde::{Deserialize, Serialize};

/// What a campaign kind does with each sample's outcome, and how it
/// folds a finished shard into the cell it journals and reports.
pub(crate) trait OutcomeHook {
    /// The shard's persisted result.
    type Cell: Serialize + Deserialize;
    /// Called once per attacked or replayed sample, after the outcome is
    /// journalled (so the hook may consume the AE bytes).
    fn on_outcome(&mut self, sample: &Sample, outcome: &mut AttackOutcome);
    /// Build the shard's cell from its summary statistics.
    fn into_cell(self, attack: &str, target: &str, stats: AttackStats) -> Self::Cell;
}

/// Run one (attack, target) shard over the world's attack set under
/// `label`, the engine shard label that also keys `shard_seed`. With
/// `faults`, every oracle query goes through a fault-injected channel
/// (reseeded per shard, so schedules are independent but replayable)
/// and failed submissions are retried under [`RetryPolicy::default`].
///
/// Per sample, in order: the ingestion gate ([`quarantined`]); then
/// either replay of the journalled outcome or attack-then-journal; then
/// `hook`. The shard's cell is journalled last.
///
/// Resume operates at two granularities. A shard whose final cell is
/// already journalled is returned wholesale (`campaign/shard_resumed`).
/// Otherwise, when the attack carries no state across samples
/// ([`Attack::stateful_across_samples`] is `false`), each journalled
/// sample outcome is replayed instead of re-attacked
/// (`campaign/sample_resumed`); a stateful attack (RLA's Q-table, MAB's
/// arms) must re-run skipped samples to rebuild its state, so it only
/// gets shard-level resume. Replayed outcomes carry their AE bytes, so
/// the hook sees exactly what it saw in the original run.
///
/// # Panics
///
/// On a journal write failure: a shard that cannot journal must not
/// pretend to be resumable.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_shard<H: OutcomeHook>(
    world: &World,
    attack: &mut dyn Attack,
    target: &dyn Detector,
    label: &str,
    faults: Option<FaultProfile>,
    journal: Option<&CampaignJournal>,
    shard_seed: u64,
    mut hook: H,
) -> H::Cell {
    if let Some(cell) = journal.and_then(|j| j.shard_cell::<H::Cell>(label)) {
        trace::counter("campaign/shard_resumed", 1);
        return cell;
    }
    let journal_write = |result: std::io::Result<()>| {
        result.unwrap_or_else(|e| panic!("shard {label}: journal write failed: {e}"));
    };
    let replay_samples = !attack.stateful_across_samples();
    let oracle = ShardOracle::build(target, faults, shard_seed);
    let samples = world.attack_set(target);
    let mut outcomes = Vec::with_capacity(samples.len());
    for sample in samples {
        if quarantined(sample, label, journal) {
            continue;
        }
        let resumed = replay_samples
            .then(|| journal.and_then(|j| j.sample(label, &sample.name)).cloned())
            .flatten();
        let outcome = match resumed {
            Some(mut outcome) => {
                trace::counter("campaign/sample_resumed", 1);
                hook.on_outcome(sample, &mut outcome);
                outcome
            }
            None => {
                trace::begin_sample(&sample.name);
                let mut channel = oracle.target(world.config.max_queries, shard_seed);
                let mut outcome = attack.attack(sample, &mut channel);
                if let Some(journal) = journal {
                    journal_write(journal.record_sample(label, &outcome));
                }
                hook.on_outcome(sample, &mut outcome);
                trace::end_sample();
                outcome
            }
        };
        outcomes.push(outcome);
    }
    let cell = hook.into_cell(attack.name(), target.name(), summarize(&outcomes));
    if let Some(journal) = journal {
        journal_write(journal.record_shard(label, &cell));
    }
    cell
}

/// The oracle channel one shard queries: the detector itself, or the
/// detector behind a per-shard [`UnreliableOracle`].
///
/// Owning the wrapper per shard (rather than per sample) keeps one
/// fault schedule per shard: sample boundaries advance the schedule
/// exactly as queries do, which is what makes kill-and-resume replay
/// line up with the original run.
enum ShardOracle<'a> {
    /// Perfectly reliable in-process detector.
    Reliable(&'a dyn Detector),
    /// Fault-injected channel around the detector.
    Faulty(UnreliableOracle<'a>),
}

impl<'a> ShardOracle<'a> {
    /// Build the channel a shard should query. With faults enabled the
    /// profile is reseeded with `shard_seed` (the engine's label-keyed
    /// seed) so every shard draws an independent, replayable schedule.
    fn build(detector: &'a dyn Detector, faults: Option<FaultProfile>, shard_seed: u64) -> Self {
        match faults {
            None => ShardOracle::Reliable(detector),
            Some(profile) => ShardOracle::Faulty(UnreliableOracle::new(
                detector,
                profile.reseeded(profile.seed ^ shard_seed),
            )),
        }
    }

    /// A fresh budgeted [`HardLabelTarget`] over this channel for one
    /// sample. `retry_seed` keys the deterministic backoff jitter of
    /// [`RetryPolicy::default`].
    ///
    /// Campaign targets always validate adversarial candidates before
    /// submission: bytes that do not re-parse and round-trip as a PE
    /// are rejected locally (no budget spent) and recorded in metrics,
    /// so a buggy or hostile mutation can never smuggle a malformed
    /// sample into the oracle channel.
    fn target(&self, max_queries: usize, retry_seed: u64) -> HardLabelTarget<'_> {
        match self {
            ShardOracle::Reliable(det) => {
                HardLabelTarget::new(*det, max_queries).with_ae_validation()
            }
            ShardOracle::Faulty(oracle) => HardLabelTarget::unreliable(
                oracle,
                QueryBudget::new(max_queries),
                RetryPolicy::default(),
            )
            .with_retry_seed(retry_seed)
            .with_ae_validation(),
        }
    }
}

/// The ingestion gate [`run_shard`] applies before attacking a sample.
/// Bytes that do not re-parse and survive a serialize/re-parse round
/// trip — the predicate the oracle channel applies to outgoing
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
fn quarantined(sample: &Sample, label: &str, journal: Option<&CampaignJournal>) -> bool {
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
        let oracle = ShardOracle::build(&det, None, 7);
        assert!(matches!(oracle, ShardOracle::Reliable(_)));
        let mut target = oracle.target(3, 7);
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
        let faults = Some(FaultProfile::seeded(99));
        let a = ShardOracle::build(&det, faults, 1);
        let b = ShardOracle::build(&det, faults, 2);
        let (ShardOracle::Faulty(a), ShardOracle::Faulty(b)) = (&a, &b) else {
            panic!("faults configured; expected faulty channels");
        };
        assert_ne!(a.profile().seed, b.profile().seed);
        // Same shard seed reproduces the same schedule seed.
        let ShardOracle::Faulty(a2) = ShardOracle::build(&det, faults, 1) else {
            panic!("expected a faulty channel");
        };
        assert_eq!(a.profile().seed, a2.profile().seed);
    }
}
