//! EXP-T1/T2/T3 — Tables I (ASR), II (AVQ) and III (APR): five attacks
//! against the four offline detectors, plus the §IV-A functionality
//! verification of every generated AE.

use crate::campaign::OutcomeHook;
use crate::orchestrator::{run_grid, AnyCell, CampaignKind};
use crate::world::World;
use mpass_baselines::{
    other_sec, packer_profiles, Gamma, GammaConfig, Mab, MabConfig, MalRnn, MalRnnConfig, Packer,
    RandomData, Rla, RlaConfig,
};
use mpass_core::attack::metrics::AttackStats;
use mpass_core::{Attack, AttackOutcome, MPassAttack, MPassConfig};
use mpass_corpus::Sample;
use mpass_engine::{metrics as trace, Engine, MetricsFile};
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

impl From<Vec<AnyCell>> for OfflineResults {
    fn from(cells: Vec<AnyCell>) -> Self {
        OfflineResults { cells: cells.into_iter().map(AnyCell::into_offline).collect() }
    }
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
    /// The persisted report (`results/exp_offline.json`, a distributed
    /// campaign's `merged.json`): every cell as pretty JSON.
    pub fn report(&self) -> String {
        serde_json::to_string_pretty(self).expect("results serialize")
    }

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

/// The offline outcome hook: every successful AE is checked in the
/// sandbox against its original (the paper's §IV-A functionality
/// check), counting `broken` out of `checked`.
#[derive(Default)]
pub(crate) struct VerifyAes {
    sandbox: Sandbox,
    broken: usize,
    checked: usize,
}

impl OutcomeHook for VerifyAes {
    type Cell = OfflineCell;

    fn on_outcome(&mut self, sample: &Sample, outcome: &mut AttackOutcome) {
        if let Some(ae) = outcome.adversarial.take() {
            self.checked += 1;
            let _span = trace::span("stage/verify");
            let verdict = self.sandbox.verify_functionality(&sample.bytes, &ae);
            trace::counter("campaign/ae_validated", 1);
            if !verdict.is_preserved() {
                self.broken += 1;
                trace::counter("campaign/ae_digest_mismatch", 1);
            }
        }
    }

    fn into_cell(self, attack: &str, target: &str, stats: AttackStats) -> OfflineCell {
        OfflineCell {
            attack: attack.to_owned(),
            target: target.to_owned(),
            stats,
            broken: self.broken,
            checked: self.checked,
        }
    }
}

/// Build one named attack for a campaign against `target_name`: the
/// [`ATTACK_NAMES`] roster, the Table IV packers (by
/// [`packer_profiles`] name), and the Table V/VI ablations `Other-sec`
/// and `Random data`. MPass's known ensemble, and Other-sec's, excludes
/// the target (it is black-box); the others are target-agnostic.
///
/// # Panics
///
/// On a name outside that roster.
pub fn make_attack<'a>(world: &'a World, target_name: &str, attack_name: &str) -> Box<dyn Attack + 'a> {
    let seed = world.config.seed;
    let mpass_config =
        || MPassConfig::builder().seed(seed).build().expect("default MPass config is valid");
    match attack_name {
        "MPass" => Box::new(MPassAttack::new(
            world.known_models_excluding(target_name),
            &world.pool,
            mpass_config(),
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
        "Other-sec" => Box::new(other_sec(
            world.known_models_excluding(target_name),
            &world.pool,
            mpass_config(),
        )),
        "Random data" => {
            // One random fill per modification MPass could submit:
            // restarts × (1 + rounds per restart).
            let cfg = mpass_config();
            Box::new(RandomData::new(cfg.max_restarts() * (1 + cfg.rounds_per_restart()), seed))
        }
        other => match packer_profiles().into_iter().find(|p| p.name == other) {
            Some(profile) => Box::new(Packer::new(profile)),
            None => panic!("unknown attack {other:?}"),
        },
    }
}

/// Run the full offline comparison (Tables I–III) on `engine`, one shard
/// per (attack, target) campaign. Campaigns — not samples — are the shard
/// unit because RLA and MAB carry learned state across samples within one
/// campaign.
pub fn run(world: &World, engine: &Engine) -> (OfflineResults, MetricsFile) {
    let kind = CampaignKind::Offline;
    let (cells, metrics) = run_grid(world, kind, &kind.default_grid(), engine, None, None)
        .expect("no journal configured, so no I/O can fail");
    (cells.into(), metrics)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::campaign::run_shard;
    use crate::journal::CampaignJournal;
    use crate::world::WorldConfig;

    #[test]
    fn offline_quick_run_shapes() {
        let mut cfg = WorldConfig::quick();
        cfg.attack_samples = 3;
        let world = World::build(cfg);
        let (results, _) = run(&world, &Engine::new(Default::default()));
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

    #[test]
    fn make_attack_resolves_every_table_4_to_6_name_and_no_other() {
        let mut cfg = WorldConfig::quick();
        cfg.attack_samples = 1;
        let world = World::build(cfg);
        let names = crate::packers::ROSTER.into_iter().chain(crate::ablation::ROSTER);
        for name in names {
            assert_eq!(make_attack(&world, "AV1", name).name(), name);
        }
        let unknown = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            make_attack(&world, "AV1", "NoSuchAttack").name().to_owned()
        }));
        let payload = unknown.expect_err("an unknown name must panic");
        let message = payload.downcast_ref::<String>().expect("formatted panic message");
        assert_eq!(message, "unknown attack \"NoSuchAttack\"");
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
            let (results, metrics) = run(&world, &engine);
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
        let cell = run_shard(
            &world,
            attack.as_mut(),
            det,
            label,
            None,
            Some(&journal),
            11,
            VerifyAes::default(),
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

    #[test]
    fn journalled_campaign_resumes_identically() {
        assert_journalled_campaign_resumes_identically(CampaignKind::Offline);
    }

    /// A resumed campaign of `kind` over a complete journal replays every
    /// shard from the record and reproduces the cells bit-identically —
    /// for commercial cells, the collected AE bytes included.
    pub(crate) fn assert_journalled_campaign_resumes_identically(kind: CampaignKind) {
        let mut cfg = WorldConfig::quick();
        cfg.attack_samples = 2;
        let world = World::build(cfg);
        let engine = Engine::new(mpass_engine::EngineConfig { workers: 2, seed: 5 });
        let dir = std::env::temp_dir()
            .join(format!("mpass-{kind}-resume-{}.campaign", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let grid = kind.default_grid();
        let (first, _) = run_grid(&world, kind, &grid, &engine, None, Some(&dir)).unwrap();
        let (second, metrics) = run_grid(&world, kind, &grid, &engine, None, Some(&dir)).unwrap();
        assert_eq!(format!("{first:?}"), format!("{second:?}"));
        if kind == CampaignKind::Commercial {
            assert!(
                second.iter().any(
                    |c| matches!(c, AnyCell::Commercial(cell) if !cell.successful_aes.is_empty())
                ),
                "some shard must collect an AE for the comparison to cover AE bytes"
            );
        }
        let resumed: u64 = metrics
            .shards
            .iter()
            .filter_map(|s| s.counters.get("campaign/shard_resumed"))
            .sum();
        assert_eq!(resumed as usize, second.len(), "every shard replays from journal");
        // No shard re-queried the oracle.
        assert!(metrics.shards.iter().all(|s| !s.counters.contains_key("queries")));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
