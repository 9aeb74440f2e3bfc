//! EXP-T1/T2/T3 — Tables I (ASR), II (AVQ) and III (APR): five attacks
//! against the four offline detectors, plus the §IV-A functionality
//! verification of every generated AE.

use crate::campaign::{quarantined, CampaignOptions, ShardOracle};
use crate::journal::CampaignJournal;
use crate::world::World;
use mpass_baselines::{Gamma, GammaConfig, Mab, MabConfig, MalRnn, MalRnnConfig, Rla, RlaConfig};
use mpass_core::attack::metrics::{summarize, AttackStats};
use mpass_core::{Attack, MPassAttack, MPassConfig};
use mpass_detectors::Detector;
use mpass_engine::{metrics as trace, Engine, MetricsFile, Shard};
use mpass_sandbox::Sandbox;
use serde::{Deserialize, Serialize};

/// The attack roster of the offline comparison, in paper column order.
pub const ATTACK_NAMES: [&str; 5] = ["MPass", "RLA", "MAB", "GAMMA", "MalRNN"];

/// One (attack, target) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OfflineCell {
    /// Attack name.
    pub attack: String,
    /// Target model name.
    pub target: String,
    /// ASR/AVQ/APR statistics.
    pub stats: AttackStats,
    /// Successful AEs whose sandbox behaviour diverged from the original
    /// (the paper's functionality check; 23 % for RLA, 0 elsewhere).
    pub broken: usize,
    /// Number of successful AEs checked.
    pub checked: usize,
}

/// Results for all cells of Tables I–III.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OfflineResults {
    /// All (attack, target) cells.
    pub cells: Vec<OfflineCell>,
}

/// Which metric of a cell to tabulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Attack success rate (Table I).
    Asr,
    /// Average queries (Table II).
    Avq,
    /// Average appending rate (Table III).
    Apr,
}

impl OfflineResults {
    fn cell(&self, attack: &str, target: &str) -> Option<&OfflineCell> {
        self.cells.iter().find(|c| c.attack == attack && c.target == target)
    }

    /// Format one of the three paper tables.
    pub fn table(&self, metric: Metric) -> String {
        let (title, decimals) = match metric {
            Metric::Asr => ("TABLE I: ASR (%) of attacking offline models.", 1),
            Metric::Avq => ("TABLE II: AVQ of attack methods on offline models.", 1),
            Metric::Apr => ("TABLE III: APR (%) of attack methods on offline models.", 1),
        };
        let targets = ["MalConv", "NonNeg", "LightGBM", "MalGCG"];
        let rows: Vec<(String, Vec<f64>)> = targets
            .iter()
            .map(|t| {
                let values = ATTACK_NAMES
                    .iter()
                    .map(|a| {
                        self.cell(a, t)
                            .map(|c| match metric {
                                Metric::Asr => c.stats.asr,
                                Metric::Avq => c.stats.avq,
                                Metric::Apr => c.stats.apr,
                            })
                            .unwrap_or(f64::NAN)
                    })
                    .collect();
                ((*t).to_owned(), values)
            })
            .collect();
        crate::table::format_table(
            title,
            "Models",
            &ATTACK_NAMES.iter().map(|s| (*s).to_string()).collect::<Vec<_>>(),
            &rows,
            decimals,
        )
    }

    /// Per-attack broken-AE percentage across all targets (§IV-A).
    pub fn broken_percent(&self, attack: &str) -> f64 {
        let (broken, checked) = self
            .cells
            .iter()
            .filter(|c| c.attack == attack)
            .fold((0usize, 0usize), |(b, n), c| (b + c.broken, n + c.checked));
        if checked == 0 {
            0.0
        } else {
            100.0 * broken as f64 / checked as f64
        }
    }
}

/// Run one attack against one target over the world's attack set,
/// verifying every successful AE in the sandbox.
pub fn attack_target(
    world: &World,
    attack: &mut dyn Attack,
    target: &dyn Detector,
) -> OfflineCell {
    let label = format!("{} vs {}", attack.name(), target.name());
    attack_target_with(world, attack, target, &label, &CampaignOptions::default(), None, 0)
}

/// [`attack_target`] with the full campaign machinery: an optionally
/// fault-injected oracle channel, and journal-backed resume.
///
/// Resume operates at two granularities. A shard whose final cell is
/// already journalled is returned wholesale (`campaign/shard_resumed`).
/// Otherwise, when the attack carries no state across samples
/// ([`Attack::stateful_across_samples`] is `false`), each journalled
/// sample outcome is replayed instead of re-attacked
/// (`campaign/sample_resumed`); a stateful attack (RLA's Q-table, MAB's
/// arms) must re-run skipped samples to rebuild its state, so it only
/// gets shard-level resume.
pub fn attack_target_with(
    world: &World,
    attack: &mut dyn Attack,
    target: &dyn Detector,
    label: &str,
    opts: &CampaignOptions,
    journal: Option<&CampaignJournal>,
    shard_seed: u64,
) -> OfflineCell {
    if let Some(cell) = journal.and_then(|j| j.shard_cell::<OfflineCell>(label)) {
        trace::counter("campaign/shard_resumed", 1);
        return cell;
    }
    let replay_samples = !attack.stateful_across_samples();
    let oracle = ShardOracle::build(target, opts, shard_seed);
    let sandbox = Sandbox::new();
    let samples = world.attack_set(target);
    let mut outcomes = Vec::with_capacity(samples.len());
    let mut broken = 0;
    let mut checked = 0;
    let mut verify = |original: &[u8], outcome: &mut mpass_core::AttackOutcome| {
        if let Some(ae) = outcome.adversarial.take() {
            checked += 1;
            let _span = trace::span("stage/verify");
            // Digest-based validation: baseline the original once, replay
            // the AE against it with an early-aborting comparing sink.
            let verdict = match sandbox.baseline_digest(original) {
                Ok(baseline) => sandbox.verify_candidate(&baseline, &ae),
                Err(_) => mpass_sandbox::FunctionalityVerdict::BrokenParse,
            };
            trace::counter("campaign/ae_validated", 1);
            if !verdict.is_preserved() {
                broken += 1;
                trace::counter("campaign/ae_digest_mismatch", 1);
            }
        }
    };
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
                verify(&sample.bytes, &mut outcome);
                outcome
            }
            None => {
                trace::begin_sample(&sample.name);
                let mut target = oracle.target(world.config.max_queries, &opts.retry, shard_seed);
                let mut outcome = attack.attack(sample, &mut target);
                // Journalled before the AE is consumed by the verify
                // step, so a resumed run can rebuild everything —
                // including the AE bytes — from the record.
                if let Some(journal) = journal {
                    journal
                        .record_sample(label, &outcome)
                        .unwrap_or_else(|e| panic!("shard {label}: journal write failed: {e}"));
                }
                verify(&sample.bytes, &mut outcome);
                trace::end_sample();
                outcome
            }
        };
        outcomes.push(outcome);
    }
    let cell = OfflineCell {
        attack: attack.name().to_owned(),
        target: target.name().to_owned(),
        stats: summarize(&outcomes),
        broken,
        checked,
    };
    if let Some(journal) = journal {
        journal
            .record_shard(label, &cell)
            .unwrap_or_else(|e| panic!("shard {label}: journal write failed: {e}"));
    }
    cell
}

/// Build one named attack of the roster for a campaign against
/// `target_name`. MPass's known ensemble excludes the target (it is
/// black-box); the baselines are target-agnostic.
pub fn make_attack<'a>(world: &'a World, target_name: &str, attack_name: &str) -> Box<dyn Attack + 'a> {
    let seed = world.config.seed;
    match attack_name {
        "MPass" => Box::new(MPassAttack::new(
            world.known_models_excluding(target_name),
            &world.pool,
            MPassConfig::builder().seed(seed).build().expect("default MPass config is valid"),
        )),
        "RLA" => Box::new(Rla::new(&world.pool, RlaConfig { seed, ..RlaConfig::default() })),
        "MAB" => Box::new(Mab::new(&world.pool, MabConfig { seed, ..MabConfig::default() })),
        "GAMMA" => {
            Box::new(Gamma::new(&world.pool, GammaConfig { seed, ..GammaConfig::default() }))
        }
        "MalRNN" => Box::new(MalRnn::new(
            &world.pool,
            MalRnnConfig { seed, ..MalRnnConfig::default() },
        )),
        other => panic!("unknown attack {other:?}"),
    }
}

/// Build the fresh attack roster for a campaign against `target_name`.
pub fn attack_roster<'a>(world: &'a World, target_name: &str) -> Vec<Box<dyn Attack + 'a>> {
    ATTACK_NAMES.iter().map(|a| make_attack(world, target_name, a)).collect()
}

/// Run the full offline comparison (Tables I–III) on `engine`, one shard
/// per (attack, target) campaign. Campaigns — not samples — are the shard
/// unit because RLA and MAB carry learned state across samples within one
/// campaign.
pub fn run_with_engine(world: &World, engine: &Engine) -> (OfflineResults, MetricsFile) {
    run_campaign(world, engine, &CampaignOptions::default())
        .expect("no journal configured, so no I/O can fail")
}

/// [`run_with_engine`] under explicit [`CampaignOptions`]: fault
/// injection on the oracle channel and/or a crash-safe resume journal.
///
/// # Errors
///
/// Fails only on journal filesystem errors (opening or recovering it);
/// the attack campaigns themselves cannot fail, only panic — and a
/// panicking shard is isolated into the metrics file's failure list.
pub fn run_campaign(
    world: &World,
    engine: &Engine,
    opts: &CampaignOptions,
) -> std::io::Result<(OfflineResults, MetricsFile)> {
    let journal = opts.open_journal()?;
    let journal = journal.as_ref();
    let shards: Vec<Shard<(&str, &str)>> = world
        .offline_targets()
        .iter()
        .flat_map(|(target, _)| {
            ATTACK_NAMES.iter().map(move |attack| {
                Shard::new(format!("{attack} vs {target}"), (*attack, *target))
            })
        })
        .collect();
    let run = engine.run(shards, |ctx, (attack_name, target_name)| {
        let (_, det) = world
            .offline_targets()
            .into_iter()
            .find(|(n, _)| *n == target_name)
            .expect("shard names a roster target");
        let mut attack = make_attack(world, target_name, attack_name);
        attack_target_with(
            world,
            attack.as_mut(),
            det,
            ctx.label(),
            opts,
            journal,
            engine.shard_seed(ctx.label()),
        )
    });
    let metrics = MetricsFile::from_run("offline", &run);
    Ok((OfflineResults { cells: run.results }, metrics))
}

/// Run the full offline comparison on a default engine, discarding the
/// metrics (test/API convenience).
pub fn run(world: &World) -> OfflineResults {
    run_with_engine(world, &Engine::new(Default::default())).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

    #[test]
    fn offline_quick_run_shapes() {
        let mut cfg = WorldConfig::quick();
        cfg.attack_samples = 3;
        let world = World::build(cfg);
        let results = run(&world);
        assert_eq!(results.cells.len(), 5 * 4);
        // Every cell attacked the same number of samples or fewer (if the
        // target misclassified some malware up front).
        for c in &results.cells {
            assert!(c.stats.samples <= 3, "{}/{}", c.attack, c.target);
        }
        // Tables render.
        let t1 = results.table(Metric::Asr);
        assert!(t1.contains("MalConv") && t1.contains("MPass"));
        let t2 = results.table(Metric::Avq);
        assert!(t2.contains("TABLE II"));
        let t3 = results.table(Metric::Apr);
        assert!(t3.contains("TABLE III"));
    }

    /// Same engine seed ⇒ identical attack outcomes, whatever the worker
    /// count: per-shard RNG streams are keyed by shard label, not by
    /// scheduling.
    #[test]
    fn outcomes_invariant_under_worker_count() {
        let mut cfg = WorldConfig::quick();
        cfg.attack_samples = 2;
        let world = World::build(cfg);
        let run_at = |workers: usize| {
            let engine =
                Engine::new(mpass_engine::EngineConfig { workers, seed: world.config.seed });
            let (results, metrics) = run_with_engine(&world, &engine);
            // Metrics labels come back in input order too.
            let labels: Vec<String> =
                metrics.shards.iter().map(|s| s.label.clone()).collect();
            (format!("{:?}", results.cells), labels)
        };
        let (cells_serial, labels_serial) = run_at(1);
        let (cells_parallel, labels_parallel) = run_at(4);
        assert_eq!(cells_serial, cells_parallel);
        assert_eq!(labels_serial, labels_parallel);
    }

    /// A corrupted sample is quarantined — journalled with a diagnostic,
    /// counted, and excluded from the attacked population — rather than
    /// fed into the attack machinery.
    #[test]
    fn malformed_sample_is_quarantined_not_attacked() {
        let mut cfg = WorldConfig::quick();
        cfg.attack_samples = 2;
        let mut world = World::build(cfg);
        // Destroy the PE signature of one malware sample; the raw bytes
        // barely change, so detectors still flag it, but ingestion fails.
        let victim = world
            .dataset
            .samples
            .iter_mut()
            .find(|s| s.label == mpass_corpus::Label::Malware)
            .expect("quick world has malware");
        victim.bytes[0] = 0;
        victim.bytes[1] = 0;
        let victim_name = victim.name.clone();
        let victim_bytes = victim.bytes.clone();
        let (target_name, det) = world.offline_targets().into_iter().next().unwrap();
        assert_eq!(
            det.classify(&victim_bytes),
            mpass_detectors::Verdict::Malicious,
            "corruption must not flip the verdict for this test to bite"
        );

        let path = std::env::temp_dir()
            .join(format!("mpass-offline-quarantine-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let journal = CampaignJournal::open(&path).unwrap();
        let mut attack = make_attack(&world, target_name, "MPass");
        let label = "quarantine shard";
        let cell = attack_target_with(
            &world,
            attack.as_mut(),
            det,
            label,
            &CampaignOptions::default(),
            Some(&journal),
            11,
        );
        assert!(cell.stats.samples < 2, "quarantined sample must not be attacked");
        drop(journal);
        // Recovery state is built at open time, so reopen to observe
        // the quarantine record the run just appended.
        let reopened = CampaignJournal::open(&path).unwrap();
        assert!(
            reopened.quarantine_reason(label, &victim_name).is_some(),
            "victim sample should be journalled as quarantined"
        );
        drop(reopened);
        std::fs::remove_file(&path).unwrap();
    }

    /// A resumed campaign over a complete journal replays every shard
    /// from the record and reproduces the results bit-identically.
    #[test]
    fn journalled_campaign_resumes_identically() {
        let mut cfg = WorldConfig::quick();
        cfg.attack_samples = 2;
        let world = World::build(cfg);
        let engine = Engine::new(mpass_engine::EngineConfig { workers: 2, seed: 5 });
        let path = std::env::temp_dir()
            .join(format!("mpass-offline-resume-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let opts =
            CampaignOptions { journal: Some(path.clone()), ..CampaignOptions::default() };
        let (first, _) = run_campaign(&world, &engine, &opts).unwrap();

        let resume = CampaignOptions { resume: true, ..opts };
        let (second, metrics) = run_campaign(&world, &engine, &resume).unwrap();
        assert_eq!(format!("{:?}", first.cells), format!("{:?}", second.cells));
        let resumed: u64 = metrics
            .shards
            .iter()
            .filter_map(|s| s.counters.get("campaign/shard_resumed"))
            .sum();
        assert_eq!(resumed as usize, second.cells.len(), "every shard replays from journal");
        // No shard re-queried the oracle.
        assert!(metrics.shards.iter().all(|s| !s.counters.contains_key("queries")));
        std::fs::remove_file(&path).unwrap();
    }
}
