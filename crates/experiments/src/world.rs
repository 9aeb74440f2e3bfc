//! The shared experimental world: corpus, benign pool, trained detectors.

use mpass_corpus::{BenignPool, CorpusConfig, Dataset, Sample};
use mpass_detectors::train::{training_pairs, TrainingSet};
use mpass_detectors::{
    commercial::default_profiles, ByteConvConfig, CommercialAv, Detector, DetectorExt, LightGbm,
    MalConv, MalGcg, MalGcgConfig, WhiteBoxModel,
};
use mpass_ml::GbdtParams;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Configuration of a [`World`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorldConfig {
    /// Corpus generation parameters.
    pub corpus: CorpusConfig,
    /// Benign programs harvested into the perturbation pool (stands in for
    /// the paper's 50 000 programs).
    pub benign_pool_programs: usize,
    /// MalConv / NonNeg architecture.
    pub conv: ByteConvConfig,
    /// MalGCG architecture.
    pub malgcg: MalGcgConfig,
    /// Epochs for the convolutional detectors.
    pub conv_epochs: usize,
    /// Learning rate for the convolutional detectors.
    pub conv_lr: f32,
    /// GBDT parameters for the LightGBM detector.
    pub gbdt: GbdtParams,
    /// Malware samples attacked per experiment.
    pub attack_samples: usize,
    /// Hard-label query budget per sample (the paper uses 100).
    pub max_queries: usize,
    /// Master seed.
    pub seed: u64,
}

impl WorldConfig {
    /// The full configuration used by the experiment binaries (paper-shaped,
    /// laptop-scaled).
    pub fn full() -> WorldConfig {
        WorldConfig {
            corpus: CorpusConfig {
                n_malware: 120,
                n_benign: 120,
                seed: 0xDAC2023,
                no_slack_fraction: 0.1,
            },
            benign_pool_programs: 40,
            conv: ByteConvConfig::default(),
            malgcg: MalGcgConfig::default(),
            conv_epochs: 5,
            conv_lr: 5e-3,
            gbdt: GbdtParams::default(),
            attack_samples: 20,
            max_queries: 100,
            seed: 0x4D50_4153,
        }
    }

    /// A down-scaled configuration for tests and smoke runs.
    pub fn quick() -> WorldConfig {
        WorldConfig {
            corpus: CorpusConfig {
                n_malware: 20,
                n_benign: 20,
                seed: 0xDAC2023,
                no_slack_fraction: 0.1,
            },
            benign_pool_programs: 6,
            conv: ByteConvConfig::tiny(),
            malgcg: MalGcgConfig::tiny(),
            conv_epochs: 5,
            conv_lr: 5e-3,
            gbdt: GbdtParams { trees: 30, ..GbdtParams::default() },
            attack_samples: 6,
            max_queries: 100,
            seed: 0x4D50_4153,
        }
    }
}

/// The built world: corpus + pool + all nine trained targets.
pub struct World {
    /// The configuration the world was built from.
    pub config: WorldConfig,
    /// The full labelled corpus.
    pub dataset: Dataset,
    /// The attacker's benign-content pool.
    pub pool: BenignPool,
    /// MalConv.
    pub malconv: MalConv,
    /// NonNeg (MalConv with a non-negative head).
    pub nonneg: MalConv,
    /// LightGBM-style GBDT.
    pub lightgbm: LightGbm,
    /// MalGCG.
    pub malgcg: MalGcg,
    /// The five commercial AVs (fresh, before any weekly updates).
    pub avs: Vec<CommercialAv>,
}

impl World {
    /// Generate the corpus and train every detector. Deterministic in the
    /// configuration.
    pub fn build(config: WorldConfig) -> World {
        let mut dataset = Dataset::generate(&config.corpus);
        // Pack roughly one in seven benign samples with the benign
        // installer packer: packed goodware exists in real training sets
        // ("When malware is packin' heat", NDSS 2020), and without it every
        // detector would treat packing artifacts as conclusive.
        let benign_packer =
            mpass_baselines::Packer::new(mpass_baselines::benign_packer_profile());
        let mut i = 0;
        for s in dataset.samples.iter_mut() {
            if s.label != mpass_corpus::Label::Benign {
                continue;
            }
            i += 1;
            if i % 7 != 0 {
                continue;
            }
            if let Ok(bytes) = benign_packer.pack(s.pe().unwrap()) {
                if let Ok(pe) = mpass_pe::PeFile::parse(&bytes) {
                    *s = mpass_corpus::Sample::new(s.name.clone(), s.label, pe);
                }
            }
        }
        let pool = BenignPool::generate(config.benign_pool_programs, config.seed ^ 0xB00);
        let (train, _test) = dataset.split(5);
        let pairs = training_pairs(&train);

        // Each model gets its own derived stream so training is invariant
        // to the order models are built in.
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x7281);
        let mut malconv = MalConv::new(config.conv, &mut rng);
        malconv.train(&pairs, config.conv_epochs, config.conv_lr, &mut rng);
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x7282);
        let mut nonneg = MalConv::nonneg(config.conv, &mut rng);
        // The non-negativity constraint clamps away half of every update;
        // NonNeg needs roughly twice the epochs to converge.
        nonneg.train(&pairs, config.conv_epochs * 2, config.conv_lr, &mut rng);
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x7283);
        let mut malgcg = MalGcg::new(config.malgcg, &mut rng);
        malgcg.train(&pairs, config.conv_epochs, config.conv_lr, &mut rng);
        let train_features = TrainingSet::new(&train);
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x7284);
        let lightgbm = LightGbm::train(&train_features, config.gbdt, &mut rng);
        let avs = default_profiles()
            .into_iter()
            .map(|p| CommercialAv::train(p, &train_features))
            .collect();
        World { config, dataset, pool, malconv, nonneg, lightgbm, malgcg, avs }
    }

    /// The four offline targets in table order, as one capability-typed
    /// roster. [`World::offline_targets`] and
    /// [`World::known_models_excluding`] both derive from this single list
    /// via [`DetectorExt::as_white_box`].
    pub fn offline_roster(&self) -> Vec<(&'static str, &dyn DetectorExt)> {
        vec![
            ("MalConv", &self.malconv as &dyn DetectorExt),
            ("NonNeg", &self.nonneg as &dyn DetectorExt),
            ("LightGBM", &self.lightgbm as &dyn DetectorExt),
            ("MalGCG", &self.malgcg as &dyn DetectorExt),
        ]
    }

    /// The four offline targets in table order.
    pub fn offline_targets(&self) -> Vec<(&'static str, &dyn Detector)> {
        self.offline_roster().into_iter().map(|(n, d)| (n, d as &dyn Detector)).collect()
    }

    /// MPass's known-model ensemble when attacking `target`: the remaining
    /// differentiable models. LightGBM is never a known model (footnote 6)
    /// — its [`DetectorExt::as_white_box`] is `None`, so the roster filter
    /// drops it without a hand-maintained parallel list.
    pub fn known_models_excluding(&self, target: &str) -> Vec<&dyn WhiteBoxModel> {
        self.offline_roster()
            .into_iter()
            .filter(|(name, _)| *name != target)
            .filter_map(|(_, d)| d.as_white_box())
            .collect()
    }

    /// All three differentiable models (used against commercial AVs, which
    /// are never in the known set).
    pub fn all_known_models(&self) -> Vec<&dyn WhiteBoxModel> {
        self.offline_roster().into_iter().filter_map(|(_, d)| d.as_white_box()).collect()
    }

    /// [`attack_set`] over this world's corpus, capped at
    /// `config.attack_samples`.
    pub fn attack_set(&self, target: &dyn Detector) -> Vec<&Sample> {
        attack_set(&self.dataset, target, self.config.attack_samples)
    }

    /// Detection accuracy of every target on the full corpus (sanity
    /// diagnostics printed by the binaries).
    pub fn detector_health(&self) -> Vec<(String, f32)> {
        let mut out = Vec::new();
        let all: Vec<&Sample> = self.dataset.samples.iter().collect();
        for (name, det) in self.offline_targets() {
            let pairs = mpass_detectors::train::score_pairs(det, &all);
            out.push((name.to_owned(), mpass_ml::metrics::accuracy(&pairs, det.threshold())));
        }
        for av in &self.avs {
            let pairs = mpass_detectors::train::score_pairs(av, &all);
            out.push((av.name().to_owned(), mpass_ml::metrics::accuracy(&pairs, av.threshold())));
        }
        out
    }
}

/// Malware in `dataset` that `target` initially classifies correctly — the
/// paper's sample-quality requirement (1) — capped at `n`.
pub fn attack_set<'a>(dataset: &'a Dataset, target: &dyn Detector, n: usize) -> Vec<&'a Sample> {
    dataset
        .malware()
        .into_iter()
        .filter(|s| target.classify(&s.bytes).is_malicious())
        .take(n)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_world_builds_and_detects() {
        let world = World::build(WorldConfig::quick());
        for (name, acc) in world.detector_health() {
            assert!(acc >= 0.7, "{name} accuracy {acc}");
        }
        // Attack sets are non-empty for every target.
        for (name, det) in world.offline_targets() {
            assert!(!world.attack_set(det).is_empty(), "{name} attack set empty");
        }
    }

    #[test]
    fn known_models_exclude_target() {
        let world = World::build(WorldConfig::quick());
        assert_eq!(world.known_models_excluding("MalConv").len(), 2);
        assert_eq!(world.known_models_excluding("LightGBM").len(), 3);
        assert_eq!(world.all_known_models().len(), 3);
    }

    fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
        bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Digests of the quick world's trained weights and of the five AVs'
    /// score bits over its corpus, captured before the training kernels
    /// (Adam's decay lanes, the gathered split search) were optimised. Any
    /// drift in what training computes trips this.
    #[test]
    fn quick_world_training_golden_regression() {
        let world = World::build(WorldConfig::quick());
        let snapshots = [
            ("MalConv", world.malconv.to_snapshot().to_bytes()),
            ("NonNeg", world.nonneg.to_snapshot().to_bytes()),
            ("MalGCG", world.malgcg.to_snapshot().to_bytes()),
            ("LightGBM", world.lightgbm.to_snapshot().to_bytes()),
        ];
        let weights: Vec<(&str, u64)> = snapshots
            .iter()
            .map(|(name, bytes)| (*name, fnv1a64(bytes.iter().copied())))
            .collect();
        let scores: Vec<(&str, u64)> = world
            .avs
            .iter()
            .map(|av| {
                let bits = world
                    .dataset
                    .samples
                    .iter()
                    .flat_map(|s| av.score(&s.bytes).to_bits().to_le_bytes());
                (av.name(), fnv1a64(bits))
            })
            .collect();
        let golden_weights = [
            ("MalConv", 0x6311_9167_bd10_6b45),
            ("NonNeg", 0x7d2e_7010_e603_fd17),
            ("MalGCG", 0x8da3_8681_21f9_4605),
            ("LightGBM", 0x9990_1261_97b4_f7f2),
        ];
        let golden_scores = [
            ("AV1", 0xb2c5_cc33_8e0c_435e),
            ("AV2", 0x8e19_5d19_b156_39ac),
            ("AV3", 0x63ff_559f_f599_5451),
            ("AV4", 0x5c71_fbba_7d5c_5f35),
            ("AV5", 0xc3f0_cd3a_1a55_a69d),
        ];
        assert_eq!(weights, golden_weights);
        assert_eq!(scores, golden_scores);
    }

    /// Digest of MPass against the quick world's MalConv as the
    /// `mpass-transfer` benchmark runs it: the NonNeg + MalGCG ensemble,
    /// one attack instance seeded from the world seed, and a 100-query,
    /// AE-gated oracle per sample. Each outcome's `evaded` flag, query
    /// count and AE bytes are folded in attack-set order. Captured before
    /// the optimizer's mapping sweep, state layout and Adam kernel were
    /// optimised; any drift in what the optimizer selects trips this.
    #[test]
    fn quick_world_mpass_trajectory_golden_regression() {
        use mpass_core::{Attack, HardLabelTarget, MPassAttack, MPassConfig};
        let world = World::build(WorldConfig::quick());
        let cfg = MPassConfig::builder().seed(world.config.seed).build().expect("valid config");
        let models = world.known_models_excluding("MalConv");
        let mut attack = MPassAttack::new(models, &world.pool, cfg);
        let mut digest = Vec::new();
        for sample in world.attack_set(&world.malconv) {
            let mut oracle = HardLabelTarget::new(&world.malconv, 100).with_ae_validation();
            let outcome = attack.attack(sample, &mut oracle);
            digest.push(u8::from(outcome.evaded));
            digest.extend_from_slice(&(outcome.queries as u64).to_le_bytes());
            let ae = outcome.adversarial.as_deref().unwrap_or_default();
            digest.extend_from_slice(&(ae.len() as u64).to_le_bytes());
            digest.extend_from_slice(ae);
        }
        let digest = fnv1a64(digest);
        assert_eq!(digest, 0xa4f8_f7b0_cd01_1304, "MPass trajectory digest {digest:#018x}");
    }
}
