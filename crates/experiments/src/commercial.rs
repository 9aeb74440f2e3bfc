//! EXP-F3 — Figure 3: ASR of the five attacks against the five simulated
//! commercial ML AVs, keeping successful AEs for the Figure 4 learning
//! experiment. The same commercial grid, over other rosters, produces
//! Tables IV–VI (`packers`, `ablation`).

use crate::campaign::OutcomeHook;
use crate::offline::ATTACK_NAMES;
use crate::orchestrator::manifest::grid;
use crate::orchestrator::{run_grid, AnyCell, CampaignKind};
use crate::world::World;
use mpass_core::attack::metrics::AttackStats;
use mpass_core::AttackOutcome;
use mpass_corpus::Sample;
use mpass_engine::{Engine, MetricsFile};
use serde::{Deserialize, Serialize};

/// One (attack, AV) cell with its surviving AEs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CommercialCell {
    /// Attack name.
    pub attack: String,
    /// AV name.
    pub av: String,
    /// ASR/AVQ/APR statistics.
    pub stats: AttackStats,
    /// The successful adversarial examples (consumed by Fig. 4).
    pub successful_aes: Vec<Vec<u8>>,
}

/// The cells of a commercial grid: Figure 3's, or a Table IV–VI roster's.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CommercialResults {
    /// All (attack, AV) cells.
    pub cells: Vec<CommercialCell>,
}

impl From<Vec<AnyCell>> for CommercialResults {
    fn from(cells: Vec<AnyCell>) -> Self {
        CommercialResults { cells: cells.into_iter().map(AnyCell::into_commercial).collect() }
    }
}

impl CommercialResults {
    /// The persisted report (`results/exp_commercial.json`, a
    /// distributed campaign's `merged.json`): one `(attack, av, stats)`
    /// row per cell. The AEs stay in memory; they are large.
    pub fn report(&self) -> String {
        let rows: Vec<(&str, &str, AttackStats)> =
            self.cells.iter().map(|c| (c.attack.as_str(), c.av.as_str(), c.stats)).collect();
        serde_json::to_string_pretty(&rows).expect("results serialize")
    }

    /// Look up one cell.
    pub fn cell(&self, attack: &str, av: &str) -> Option<&CommercialCell> {
        self.cells.iter().find(|c| c.attack == attack && c.av == av)
    }

    /// ASR (%) of `attack` against each AV, in AV order; `NaN` where
    /// the grid has no such cell. Figure 3 and Tables IV–VI are all made
    /// of these rows.
    pub fn asr_row(&self, attack: &str) -> Vec<f64> {
        CampaignKind::Commercial
            .default_targets()
            .iter()
            .map(|av| self.cell(attack, av).map_or(f64::NAN, |c| c.stats.asr))
            .collect()
    }

    /// Format the Figure 3 ASR grid.
    pub fn figure3(&self) -> String {
        let rows: Vec<(String, Vec<f64>)> =
            ATTACK_NAMES.iter().map(|a| ((*a).to_owned(), self.asr_row(a))).collect();
        crate::table::format_table(
            "Fig. 3: ASR (%) of attack methods on commercial ML AVs.",
            "Attack",
            &CampaignKind::Commercial.default_targets(),
            &rows,
            1,
        )
    }
}

/// The commercial outcome hook: keep every successful AE's bytes.
#[derive(Default)]
pub(crate) struct CollectAes {
    successful_aes: Vec<Vec<u8>>,
}

impl OutcomeHook for CollectAes {
    type Cell = CommercialCell;

    fn on_outcome(&mut self, _sample: &Sample, outcome: &mut AttackOutcome) {
        if let Some(ae) = outcome.adversarial.take() {
            self.successful_aes.push(ae);
        }
    }

    fn into_cell(self, attack: &str, av: &str, stats: AttackStats) -> CommercialCell {
        CommercialCell {
            attack: attack.to_owned(),
            av: av.to_owned(),
            stats,
            successful_aes: self.successful_aes,
        }
    }
}

/// Run `attacks` against every AV on `engine`, one shard per (attack,
/// AV) campaign of the commercial grid. `ATTACK_NAMES` is Figure 3;
/// Tables IV–VI run their own rosters, and `exp_all` the union of all
/// four. Against AVs the MPass ensemble is all three differentiable
/// offline models (the AVs themselves are black boxes). Each shard
/// queries a memoizing [`mpass_detectors::CachedAv`] copy of its AV so
/// the metrics file records per-shard score-cache hit rates.
pub fn run(world: &World, engine: &Engine, attacks: &[&str]) -> (CommercialResults, MetricsFile) {
    let kind = CampaignKind::Commercial;
    let shards = grid(attacks, &kind.default_targets());
    let (cells, metrics) = run_grid(world, kind, &shards, engine, None, None)
        .expect("no journal configured, so no I/O can fail");
    (cells.into(), metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_shard;
    use crate::journal::CampaignJournal;
    use crate::offline::make_attack;
    use crate::world::WorldConfig;

    #[test]
    fn commercial_quick_run_shapes() {
        let mut cfg = WorldConfig::quick();
        cfg.attack_samples = 2;
        let world = World::build(cfg);
        let (results, _) = run(&world, &Engine::new(Default::default()), &ATTACK_NAMES);
        assert_eq!(results.cells.len(), 5 * 5);
        let fig = results.figure3();
        assert!(fig.contains("AV3") && fig.contains("GAMMA"));
        // Successful AE count never exceeds evaded count implied by stats.
        for c in &results.cells {
            let max_evaded = (c.stats.asr / 100.0 * c.stats.samples as f64).round() as usize;
            assert!(c.successful_aes.len() <= max_evaded + 1, "{}/{}", c.attack, c.av);
        }
    }

    /// The commercial twin of the offline quarantine test: a corrupted
    /// sample in an AV's attack set is journalled with a diagnostic,
    /// counted, and never attacked.
    #[test]
    fn malformed_sample_is_quarantined_not_attacked() {
        let mut cfg = WorldConfig::quick();
        cfg.attack_samples = 2;
        let mut world = World::build(cfg);
        // Destroy the PE signature of one malware sample; the raw bytes
        // barely change, so the AV still flags it, but ingestion fails.
        let victim = world
            .dataset
            .samples
            .iter_mut()
            .find(|s| s.label == mpass_corpus::Label::Malware)
            .expect("quick world has malware");
        victim.bytes[0] = 0;
        victim.bytes[1] = 0;
        let victim_name = victim.name.clone();
        let av = &world.avs[0];
        let attack_set = world.attack_set(av);
        assert!(
            attack_set.iter().any(|s| s.name == victim_name),
            "corruption must not flip the verdict for this test to bite"
        );

        let path = std::env::temp_dir()
            .join(format!("mpass-commercial-quarantine-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let journal = CampaignJournal::open(&path).unwrap();
        let mut attack = make_attack(&world, "LightGBM", "MPass");
        let label = "quarantine shard";
        mpass_engine::metrics::install(mpass_engine::Collector::default());
        let cell = run_shard(
            &world,
            attack.as_mut(),
            av,
            label,
            None,
            Some(&journal),
            11,
            CollectAes::default(),
        );
        let shard = mpass_engine::metrics::take().unwrap().finish("t", 0.0);
        assert_eq!(shard.counters["campaign/quarantined"], 1);
        assert_eq!(
            cell.stats.samples,
            attack_set.len() - 1,
            "quarantined sample must not be attacked"
        );
        drop(journal);
        // Recovery state is built at open time, so reopen to observe
        // the records the run just appended.
        let reopened = CampaignJournal::open(&path).unwrap();
        assert!(
            reopened.quarantine_reason(label, &victim_name).is_some(),
            "victim sample should be journalled as quarantined"
        );
        assert!(reopened.sample(label, &victim_name).is_none(), "victim has no outcome");
        drop(reopened);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn journalled_campaign_resumes_identically() {
        crate::offline::tests::assert_journalled_campaign_resumes_identically(
            CampaignKind::Commercial,
        );
    }
}
