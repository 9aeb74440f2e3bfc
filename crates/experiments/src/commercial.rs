//! EXP-F3 — Figure 3: ASR of the five attacks against the five simulated
//! commercial ML AVs, keeping successful AEs for the Figure 4 learning
//! experiment.

use crate::campaign::{quarantined, CampaignOptions, ShardOracle};
use crate::journal::CampaignJournal;
use crate::offline::{make_attack, ATTACK_NAMES};
use crate::world::World;
use mpass_core::attack::metrics::{summarize, AttackStats};
use mpass_core::Attack;
use mpass_detectors::{CachedAv, Detector};
use mpass_engine::{metrics as trace, Engine, MetricsFile, Shard};
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

/// Figure 3 results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CommercialResults {
    /// All (attack, AV) cells.
    pub cells: Vec<CommercialCell>,
}

impl CommercialResults {
    /// Look up one cell.
    pub fn cell(&self, attack: &str, av: &str) -> Option<&CommercialCell> {
        self.cells.iter().find(|c| c.attack == attack && c.av == av)
    }

    /// Format the Figure 3 ASR grid.
    pub fn figure3(&self) -> String {
        let avs: Vec<String> = (1..=5).map(|i| format!("AV{i}")).collect();
        let rows: Vec<(String, Vec<f64>)> = crate::offline::ATTACK_NAMES
            .iter()
            .map(|a| {
                let vals = avs
                    .iter()
                    .map(|av| self.cell(a, av).map(|c| c.stats.asr).unwrap_or(f64::NAN))
                    .collect();
                ((*a).to_owned(), vals)
            })
            .collect();
        crate::table::format_table(
            "Fig. 3: ASR (%) of attack methods on commercial ML AVs.",
            "Attack",
            &avs,
            &rows,
            1,
        )
    }
}

/// Run one attack against one AV, collecting successful AE bytes.
pub fn attack_av(world: &World, attack: &mut dyn Attack, av: &dyn Detector) -> CommercialCell {
    let label = format!("{} vs {}", attack.name(), av.name());
    attack_av_with(world, attack, av, &label, &CampaignOptions::default(), None, 0)
}

/// [`attack_av`] with the full campaign machinery — see
/// [`crate::offline::attack_target_with`] for the ingestion gate and the
/// resume semantics; the
/// collected `successful_aes` rebuild identically from journalled
/// outcomes because the AE bytes ride along in each record.
pub fn attack_av_with(
    world: &World,
    attack: &mut dyn Attack,
    av: &dyn Detector,
    label: &str,
    opts: &CampaignOptions,
    journal: Option<&CampaignJournal>,
    shard_seed: u64,
) -> CommercialCell {
    if let Some(cell) = journal.and_then(|j| j.shard_cell::<CommercialCell>(label)) {
        trace::counter("campaign/shard_resumed", 1);
        return cell;
    }
    let replay_samples = !attack.stateful_across_samples();
    let oracle = ShardOracle::build(av, opts, shard_seed);
    let samples = world.attack_set(av);
    let mut outcomes = Vec::with_capacity(samples.len());
    let mut successful_aes = Vec::new();
    for sample in samples {
        if quarantined(sample, label, journal) {
            continue;
        }
        let resumed = replay_samples
            .then(|| journal.and_then(|j| j.sample(label, &sample.name)).cloned())
            .flatten();
        let mut outcome = match resumed {
            Some(outcome) => {
                trace::counter("campaign/sample_resumed", 1);
                outcome
            }
            None => {
                trace::begin_sample(&sample.name);
                let mut target = oracle.target(world.config.max_queries, &opts.retry, shard_seed);
                let outcome = attack.attack(sample, &mut target);
                if let Some(journal) = journal {
                    journal
                        .record_sample(label, &outcome)
                        .unwrap_or_else(|e| panic!("shard {label}: journal write failed: {e}"));
                }
                trace::end_sample();
                outcome
            }
        };
        if let Some(ae) = outcome.adversarial.take() {
            successful_aes.push(ae);
        }
        outcomes.push(outcome);
    }
    let cell = CommercialCell {
        attack: attack.name().to_owned(),
        av: av.name().to_owned(),
        stats: summarize(&outcomes),
        successful_aes,
    };
    if let Some(journal) = journal {
        journal
            .record_shard(label, &cell)
            .unwrap_or_else(|e| panic!("shard {label}: journal write failed: {e}"));
    }
    cell
}

/// Run the full Figure 3 experiment on `engine`, one shard per
/// (attack, AV) campaign. Against AVs the MPass ensemble is all three
/// differentiable offline models (the AVs themselves are black boxes),
/// which `make_attack` provides by excluding a non-AV name. Each shard
/// queries a memoizing [`CachedAv`] copy of its AV so the metrics file
/// records per-shard score-cache hit rates.
pub fn run_with_engine(world: &World, engine: &Engine) -> (CommercialResults, MetricsFile) {
    run_campaign(world, engine, &CampaignOptions::default())
        .expect("no journal configured, so no I/O can fail")
}

/// [`run_with_engine`] under explicit [`CampaignOptions`].
///
/// # Errors
///
/// Fails only on journal filesystem errors.
pub fn run_campaign(
    world: &World,
    engine: &Engine,
    opts: &CampaignOptions,
) -> std::io::Result<(CommercialResults, MetricsFile)> {
    let journal = opts.open_journal()?;
    let journal = journal.as_ref();
    let shards: Vec<Shard<(usize, &str)>> = world
        .avs
        .iter()
        .enumerate()
        .flat_map(|(i, av)| {
            ATTACK_NAMES
                .iter()
                .map(move |attack| Shard::new(format!("{attack} vs {}", av.name()), (i, *attack)))
        })
        .collect();
    let run = engine.run(shards, |ctx, (av_index, attack_name)| {
        let av = CachedAv::new(world.avs[av_index].clone());
        let mut attack = make_attack(world, "LightGBM", attack_name);
        attack_av_with(
            world,
            attack.as_mut(),
            &av,
            ctx.label(),
            opts,
            journal,
            engine.shard_seed(ctx.label()),
        )
    });
    let metrics = MetricsFile::from_run("commercial", &run);
    Ok((CommercialResults { cells: run.results }, metrics))
}

/// Run the full Figure 3 experiment on a default engine, discarding the
/// metrics (test/API convenience).
pub fn run(world: &World) -> CommercialResults {
    run_with_engine(world, &Engine::new(Default::default())).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

    #[test]
    fn commercial_quick_run_shapes() {
        let mut cfg = WorldConfig::quick();
        cfg.attack_samples = 2;
        let world = World::build(cfg);
        let results = run(&world);
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
        let cell = attack_av_with(
            &world,
            attack.as_mut(),
            av,
            label,
            &CampaignOptions::default(),
            Some(&journal),
            11,
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
}
