//! EXP-F4 — Figure 4: bypass rate of each attack's successful AEs over
//! five weekly commercial-AV learning updates.
//!
//! For each (attack, AV) pair, the AEs that bypassed the fresh AV are
//! re-submitted every simulated week; between weeks the AV runs its
//! continual-learning update over the submitted samples (n-gram signature
//! mining against its clean reference). Attacks whose perturbations share
//! fixed patterns are learned; MPass's shuffled, per-sample-randomized
//! perturbations leave nothing to mine.

use crate::commercial::CommercialResults;
use crate::world::World;
use mpass_detectors::Detector;
use mpass_engine::{metrics as trace, Engine, MetricsFile, Shard};
use serde::{Deserialize, Serialize};

/// Number of weekly update rounds after the first submission.
pub const WEEKS: usize = 4;

/// Weekly bypass-rate series for one (attack, AV) pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LearningSeries {
    /// Attack name.
    pub attack: String,
    /// AV name.
    pub av: String,
    /// Bypass rate (%) at week 0 (always 100) through week [`WEEKS`].
    pub bypass_rate: Vec<f64>,
    /// Signatures the AV accumulated by the final week.
    pub signatures_learned: usize,
}

/// Figure 4 results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LearningResults {
    /// One series per (attack, AV) pair that produced at least one AE.
    pub series: Vec<LearningSeries>,
}

impl LearningResults {
    /// The persisted report (`results/exp_learning.json`): the week count
    /// and one `(attack, av, bypass_rate, signatures_learned)` row per
    /// series.
    pub fn report(&self) -> String {
        let rows: Vec<(&str, &str, &[f64], usize)> = self
            .series
            .iter()
            .map(|s| {
                (s.attack.as_str(), s.av.as_str(), s.bypass_rate.as_slice(), s.signatures_learned)
            })
            .collect();
        serde_json::to_string_pretty(&(WEEKS, rows)).expect("results serialize")
    }

    /// Format the Figure 4 panel for one AV.
    pub fn figure4(&self, av: &str) -> String {
        let x: Vec<String> = (0..=WEEKS).map(|w| format!("wk{w}")).collect();
        let rows: Vec<(String, Vec<f64>)> = self
            .series
            .iter()
            .filter(|s| s.av == av)
            .map(|s| (s.attack.clone(), s.bypass_rate.clone()))
            .collect();
        crate::table::format_series(
            &format!("Fig. 4 ({av}): bypass rate (%) of first-time-successful AEs under weekly AV learning."),
            "Attack",
            &x,
            &rows,
        )
    }

    /// Mean final-week bypass rate of one attack across AVs.
    pub fn final_bypass(&self, attack: &str) -> f64 {
        let finals: Vec<f64> = self
            .series
            .iter()
            .filter(|s| s.attack == attack)
            .filter_map(|s| s.bypass_rate.last().copied())
            .collect();
        if finals.is_empty() {
            0.0
        } else {
            finals.iter().sum::<f64>() / finals.len() as f64
        }
    }
}

/// Run the learning experiment on `engine` over previously collected
/// Figure-3 AEs, one shard per (attack, AV) pair with surviving AEs.
/// Each shard records its weekly bypass rate to the `learning/bypass`
/// metrics series and its query volume to the standard counters.
pub fn run(
    world: &World,
    commercial: &CommercialResults,
    engine: &Engine,
) -> (LearningResults, MetricsFile) {
    let eligible: Vec<&crate::commercial::CommercialCell> = commercial
        .cells
        .iter()
        .filter(|cell| !cell.successful_aes.is_empty())
        .filter(|cell| world.avs.iter().any(|a| a.name() == cell.av))
        .collect();
    let shards: Vec<Shard<&crate::commercial::CommercialCell>> = eligible
        .into_iter()
        .map(|cell| Shard::new(format!("{} AEs vs {}", cell.attack, cell.av), cell))
        .collect();
    let run = engine.run(shards, |_ctx, cell| {
        // Fresh copy of the AV so each attack's learning dynamic is
        // observed in isolation.
        let mut av = world
            .avs
            .iter()
            .find(|a| a.name() == cell.av)
            .expect("eligibility filter checked the roster")
            .clone();
        let mut bypass_rate = vec![100.0];
        for _week in 0..WEEKS {
            let submissions: Vec<&[u8]> =
                cell.successful_aes.iter().map(|v| v.as_slice()).collect();
            av.weekly_update(&submissions);
            let still = cell
                .successful_aes
                .iter()
                .filter(|ae| {
                    trace::counter("queries", 1);
                    av.classify(ae).is_benign()
                })
                .count();
            let rate = 100.0 * still as f64 / cell.successful_aes.len() as f64;
            trace::series("learning/bypass", rate);
            bypass_rate.push(rate);
        }
        LearningSeries {
            attack: cell.attack.clone(),
            av: cell.av.clone(),
            bypass_rate,
            signatures_learned: av.signature_count(),
        }
    });
    let metrics = MetricsFile::from_run("learning", &run);
    (LearningResults { series: run.results }, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commercial::CommercialCell;
    use crate::world::WorldConfig;
    use mpass_core::attack::metrics::AttackStats;

    #[test]
    fn learning_series_start_at_hundred() {
        let world = World::build(WorldConfig::quick());
        // Craft a synthetic commercial result: one cell whose "AEs" are
        // malware with a fixed appended pattern (learnable) that the fresh
        // AV happens to pass — we don't need real evasion to test the
        // learning mechanics, only the bookkeeping.
        let aes: Vec<Vec<u8>> = world
            .dataset
            .malware()
            .iter()
            .take(6)
            .map(|s| {
                let mut pe = s.pe().unwrap().clone();
                pe.append_overlay(b"###FIXED-LEARNABLE-PATTERN-FOR-TEST###");
                pe.to_bytes()
            })
            .collect();
        let commercial = CommercialResults {
            cells: vec![CommercialCell {
                attack: "FixedPattern".into(),
                av: world.avs[0].name().to_owned(),
                stats: AttackStats { asr: 100.0, avq: 1.0, apr: 1.0, samples: 6 },
                successful_aes: aes,
            }],
        };
        let (results, _) = run(&world, &commercial, &Engine::new(Default::default()));
        assert_eq!(results.series.len(), 1);
        let s = &results.series[0];
        assert_eq!(s.bypass_rate.len(), 5);
        assert_eq!(s.bypass_rate[0], 100.0);
        // A fixed pattern must be learned: final bypass collapses.
        assert!(
            *s.bypass_rate.last().unwrap() < 50.0,
            "fixed pattern survived learning: {:?}",
            s.bypass_rate
        );
        assert!(s.signatures_learned > 0);
        let fig = results.figure4(&s.av);
        assert!(fig.contains("FixedPattern"));
    }
}
