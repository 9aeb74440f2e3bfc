//! EXP-MACHO — end-to-end demonstration of the multi-format binary layer.
//!
//! The paper evaluates MPass on Windows PE malware only; the question this
//! demo answers is whether the attack is really *format-agnostic* now that
//! modification runs against the [`BinaryFormat`] trait: an all-Mach-O
//! corpus is generated, byte-level detectors are trained on it, and the
//! unchanged MPass pipeline (encode critical sections, plant a recovery
//! stub in a fresh `__TEXT` section, retarget `LC_MAIN`, optimize the
//! free bytes against a transfer ensemble) attacks each detector under
//! the same 100-query hard-label budget. Every successful AE is executed
//! in the sandbox and its API trace compared with the original's.
//!
//! [`BinaryFormat`]: mpass_binary::BinaryFormat

use crate::table::format_table;
use crate::world::attack_set;
use mpass_binary::Format;
use mpass_core::attack::{
    metrics::{self, AttackStats},
    Attack, HardLabelTarget, MPassAttack, MPassConfig,
};
use mpass_corpus::{BenignPool, CorpusConfig, Dataset, Sample};
use mpass_detectors::train::training_pairs;
use mpass_detectors::{ByteConvConfig, Detector, MalConv, MalGcg, MalGcgConfig, WhiteBoxModel};
use mpass_sandbox::Sandbox;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Configuration of the Mach-O demo world.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachoDemoConfig {
    /// Corpus generation parameters (every sample is emitted as Mach-O).
    pub corpus: CorpusConfig,
    /// Benign programs harvested into the perturbation pool.
    pub benign_pool_programs: usize,
    /// Convolutional detector architecture.
    pub conv: ByteConvConfig,
    /// MalGCG architecture.
    pub malgcg: MalGcgConfig,
    /// Training epochs.
    pub conv_epochs: usize,
    /// Training learning rate.
    pub conv_lr: f32,
    /// Malware samples attacked per target.
    pub attack_samples: usize,
    /// Hard-label query budget per sample.
    pub max_queries: usize,
    /// Master seed.
    pub seed: u64,
}

impl MachoDemoConfig {
    /// The configuration behind the checked-in `results/exp_macho.json`.
    pub fn full() -> MachoDemoConfig {
        MachoDemoConfig {
            corpus: CorpusConfig {
                n_malware: 60,
                n_benign: 60,
                seed: 0xDAC2023,
                no_slack_fraction: 0.1,
            },
            benign_pool_programs: 20,
            conv: ByteConvConfig::default(),
            malgcg: MalGcgConfig::default(),
            conv_epochs: 5,
            conv_lr: 5e-3,
            attack_samples: 12,
            max_queries: 100,
            seed: 0x4D41_4348,
        }
    }

    /// A down-scaled configuration for tests and smoke runs.
    pub fn quick() -> MachoDemoConfig {
        MachoDemoConfig {
            corpus: CorpusConfig {
                n_malware: 16,
                n_benign: 16,
                seed: 0xDAC2023,
                no_slack_fraction: 0.1,
            },
            benign_pool_programs: 6,
            conv: ByteConvConfig::tiny(),
            malgcg: MalGcgConfig::tiny(),
            conv_epochs: 5,
            conv_lr: 5e-3,
            attack_samples: 5,
            max_queries: 100,
            seed: 0x4D41_4348,
        }
    }
}

/// One target's row of the demo.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MachoDemoCell {
    /// Target detector name.
    pub target: String,
    /// Detection accuracy on the Mach-O corpus before the attack.
    pub accuracy: f64,
    /// ASR / AVQ / APR of MPass against this target.
    pub stats: AttackStats,
    /// Successful AEs whose sandbox API trace diverged from the original.
    pub broken: usize,
    /// Successful AEs executed in the sandbox.
    pub checked: usize,
}

/// Results of the Mach-O demo experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MachoDemoResults {
    /// Corpus composition sanity counters.
    pub macho_samples: usize,
    /// Samples that were *not* Mach-O (must be 0).
    pub other_samples: usize,
    /// One row per attacked target.
    pub cells: Vec<MachoDemoCell>,
}

impl MachoDemoResults {
    /// Render the demo summary.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "Mach-O corpus: {} samples, {} non-Mach-O\n",
            self.macho_samples, self.other_samples
        );
        let columns: Vec<String> =
            ["Acc%", "ASR%", "AVQ", "APR%", "Broken"].iter().map(|s| (*s).to_owned()).collect();
        let rows: Vec<(String, Vec<f64>)> = self
            .cells
            .iter()
            .map(|c| {
                (
                    c.target.clone(),
                    vec![c.accuracy, c.stats.asr, c.stats.avq, c.stats.apr, c.broken as f64],
                )
            })
            .collect();
        out.push_str(&format_table(
            "MPass against detectors trained on an all-Mach-O corpus \
             (transfer ensemble = the other two models):",
            "Target",
            &columns,
            &rows,
            1,
        ));
        out
    }
}

/// Corpus accuracy of `det` over all samples.
fn accuracy(det: &dyn Detector, samples: &[&Sample]) -> f64 {
    let pairs = mpass_detectors::train::score_pairs(det, samples);
    mpass_ml::metrics::accuracy(&pairs, det.threshold()) as f64
}

/// Run the demo: build the Mach-O world, attack every detector, verify
/// every AE's functionality. Deterministic in the configuration.
pub fn run(config: &MachoDemoConfig) -> MachoDemoResults {
    let dataset = Dataset::generate_mixed(&config.corpus, 1.0);
    let macho_samples =
        dataset.samples.iter().filter(|s| s.format() == Format::MachO).count();
    let other_samples = dataset.samples.len() - macho_samples;

    let pool = BenignPool::generate(config.benign_pool_programs, config.seed ^ 0xB00);
    let (train, _test) = dataset.split(5);
    let pairs = training_pairs(&train);

    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x7281);
    let mut malconv = MalConv::new(config.conv, &mut rng);
    malconv.train(&pairs, config.conv_epochs, config.conv_lr, &mut rng);
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x7282);
    let mut nonneg = MalConv::nonneg(config.conv, &mut rng);
    nonneg.train(&pairs, config.conv_epochs * 2, config.conv_lr, &mut rng);
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x7283);
    let mut malgcg = MalGcg::new(config.malgcg, &mut rng);
    malgcg.train(&pairs, config.conv_epochs, config.conv_lr, &mut rng);

    let roster: Vec<(&str, &dyn Detector, &dyn WhiteBoxModel)> = vec![
        ("MalConv", &malconv, &malconv),
        ("NonNeg", &nonneg, &nonneg),
        ("MalGCG", &malgcg, &malgcg),
    ];
    let all_samples: Vec<&Sample> = dataset.samples.iter().collect();
    let sandbox = Sandbox::new();
    let attack_cfg = MPassConfig::builder()
        .seed(config.seed)
        .build()
        .unwrap_or_default();

    let mut cells = Vec::new();
    for (target_name, target, _) in &roster {
        // Transfer setting: the known ensemble is every model except the
        // target, exactly as in the PE evaluation (paper footnote 6).
        let known: Vec<&dyn WhiteBoxModel> = roster
            .iter()
            .filter(|(n, _, _)| n != target_name)
            .map(|(_, _, w)| *w)
            .collect();
        let mut attack = MPassAttack::new(known, &pool, attack_cfg.clone());
        let mut outcomes = Vec::new();
        let mut broken = 0;
        let mut checked = 0;
        for sample in attack_set(&dataset, *target, config.attack_samples) {
            let mut budget = HardLabelTarget::new(*target, config.max_queries);
            let outcome = attack.attack(sample, &mut budget);
            if let Some(ae) = &outcome.adversarial {
                checked += 1;
                if !sandbox.verify_functionality(&sample.bytes, ae).is_preserved() {
                    broken += 1;
                }
            }
            outcomes.push(outcome);
        }
        cells.push(MachoDemoCell {
            target: (*target_name).to_owned(),
            accuracy: accuracy(*target, &all_samples) * 100.0,
            stats: metrics::summarize(&outcomes),
            broken,
            checked,
        });
    }

    MachoDemoResults { macho_samples, other_samples, cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_demo_attacks_a_pure_macho_corpus() {
        let results = run(&MachoDemoConfig::quick());
        assert_eq!(results.other_samples, 0, "corpus must be pure Mach-O");
        assert!(results.macho_samples >= 32);
        assert_eq!(results.cells.len(), 3);
        for cell in &results.cells {
            assert!(cell.accuracy >= 70.0, "{} accuracy {}", cell.target, cell.accuracy);
            assert!(cell.stats.samples > 0, "{} attacked nothing", cell.target);
        }
        // The pipeline evades at least one target and never breaks
        // functionality: the recovery stub restores the encoded Mach-O
        // sections before the original entry runs.
        assert!(results.cells.iter().any(|c| c.stats.asr > 0.0), "no evasion anywhere");
        let broken: usize = results.cells.iter().map(|c| c.broken).sum();
        assert_eq!(broken, 0, "an AE lost functionality");
        assert!(results.summary().contains("MalConv"));
    }

    #[test]
    fn demo_is_deterministic() {
        let a = run(&MachoDemoConfig::quick());
        let b = run(&MachoDemoConfig::quick());
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }
}
