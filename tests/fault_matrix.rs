//! Fault-transparency contract: an end-to-end attack campaign over an
//! unreliable oracle must reach exactly the same verdicts (same ASR,
//! same per-sample outcomes) as over a reliable one, for every fault
//! schedule seed — the retry layer absorbs the faults, and only the
//! `oracle/*` counters betray that anything went wrong on the wire.
//!
//! This is the deterministic fault matrix CI runs: three schedule seeds,
//! identical results, non-zero retries.

use mpass::detectors::FaultProfile;
use mpass::engine::metrics::{self, Collector, ShardMetrics};
use mpass_experiments::offline::OfflineCell;
use mpass_experiments::orchestrator::{run_shard_work, CampaignKind, ShardSpec};
use mpass_experiments::{World, WorldConfig};

/// Fault schedule seeds of the matrix. Fixed, not sampled: the point is
/// a reproducible CI job, and determinism means passing once is passing
/// forever.
const SCHEDULE_SEEDS: [u64; 3] = [11, 47, 2023];

fn run_cell(world: &World, faults: Option<FaultProfile>) -> (OfflineCell, ShardMetrics) {
    let spec = ShardSpec::new(0, "MPass", "MalConv");
    let previous = metrics::install(Collector::default());
    let cell = run_shard_work(world, CampaignKind::Offline, &spec, faults, None, 0xFA17_5EED)
        .into_offline();
    let collected = metrics::take().unwrap_or_default().finish("MPass vs MalConv", 0.0);
    if let Some(previous) = previous {
        metrics::install(previous);
    }
    (cell, collected)
}

#[test]
fn faulted_campaigns_match_the_reliable_run_for_every_seed() {
    let mut cfg = WorldConfig::quick();
    cfg.attack_samples = 4;
    let world = World::build(cfg);

    let (reference, reference_metrics) = run_cell(&world, None);
    assert!(!reference_metrics.counters.contains_key("oracle/retry"));

    let mut total_faulted_submissions = 0u64;
    let mut total_retries = 0u64;
    for seed in SCHEDULE_SEEDS {
        // An aggressive mix — roughly one submission in three faults —
        // but bursts stay under the retry policy's max_attempts, so
        // every verdict is still delivered.
        let profile = FaultProfile {
            transient: 0.25,
            rate_limited: 0.10,
            ..FaultProfile::seeded(seed)
        };
        let (cell, cell_metrics) = run_cell(&world, Some(profile));

        assert_eq!(
            format!("{:?}", cell.stats),
            format!("{:?}", reference.stats),
            "schedule seed {seed} changed the attack statistics"
        );
        assert_eq!((cell.broken, cell.checked), (reference.broken, reference.checked));
        assert_eq!(
            cell_metrics.counters.get("queries"),
            reference_metrics.counters.get("queries"),
            "schedule seed {seed} changed the delivered-verdict count"
        );
        let faults: u64 = cell_metrics
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("oracle/fault_"))
            .map(|(_, v)| v)
            .sum();
        total_faulted_submissions += faults;
        total_retries += cell_metrics.counters.get("oracle/retry").copied().unwrap_or(0);
    }
    assert!(
        total_faulted_submissions > 0,
        "the fault matrix must actually inject faults to prove anything"
    );
    assert!(total_retries > 0, "absorbed faults must show up as retries");
}
