//! The paper's ablation attackers.
//!
//! * [`RandomData`] (Table VI): writes *random* bytes at exactly the
//!   modification positions MPass uses (via the same recovery machinery,
//!   so functionality is preserved). If the commercial AVs were hash-based,
//!   this would evade them as well as MPass does; its failure demonstrates
//!   they are not.
//! * [`other_sec`] (Table V): the full MPass pipeline — recovery,
//!   shuffling, ensemble optimization — pointed at *non-critical* sections
//!   (read-only data, resources, relocations) instead of code and data,
//!   isolating the contribution of the critical-section choice.

use mpass_core::{
    Attack, AttackOutcome, HardLabelTarget, MPassAttack, MPassConfig, ModificationConfig,
};
use mpass_corpus::{BenignPool, Sample};
use mpass_detectors::{Verdict, WhiteBoxModel};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The Table VI control: MPass's modification positions filled with
/// uniformly random bytes, no optimization.
pub struct RandomData {
    random_pool: BenignPool,
    modification: ModificationConfig,
    attempts: usize,
    seed: u64,
}

impl RandomData {
    /// Build the attacker. `attempts` fresh random fills are tried per
    /// sample (each costs one query).
    pub fn new(attempts: usize, seed: u64) -> RandomData {
        // A "benign pool" of pure noise: every chunk request returns
        // uniform random bytes.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let chunks: Vec<Vec<u8>> =
            (0..32).map(|_| (0..16 * 1024).map(|_| rng.gen()).collect()).collect();
        RandomData {
            random_pool: BenignPool::from_chunks(chunks),
            modification: ModificationConfig::default(),
            attempts,
            seed,
        }
    }
}

impl Attack for RandomData {
    fn name(&self) -> &str {
        "Random data"
    }

    /// All randomness derives from `(seed, sample name)`; no state
    /// carries across samples, so per-sample journal replay is sound.
    fn stateful_across_samples(&self) -> bool {
        false
    }

    fn attack(&mut self, sample: &Sample, target: &mut HardLabelTarget<'_>) -> AttackOutcome {
        let mut rng = crate::sample_rng(self.seed, sample);
        let original_size = sample.size();
        let mut last_size = original_size;
        for _ in 0..self.attempts {
            let Ok(ms) =
                mpass_core::modify::modify(sample, &self.random_pool, &self.modification, &mut rng)
            else {
                break;
            };
            last_size = ms.bytes.len();
            match target.query(&ms.bytes) {
                Ok(Verdict::Benign) => {
                    return AttackOutcome::evaded(sample, target.queries(), ms.bytes, original_size)
                }
                Ok(Verdict::Malicious) => {}
                Err(_) => break,
            }
        }
        AttackOutcome::failed(sample, target.queries(), original_size, last_size)
    }
}

/// The Table V ablation: MPass with modification redirected to
/// non-critical sections, all other settings identical.
pub struct OtherSec<'a>(MPassAttack<'a>);

/// Construct the Other-sec ablation from the same ingredients as MPass.
pub fn other_sec<'a>(
    models: Vec<&'a dyn WhiteBoxModel>,
    pool: &'a BenignPool,
    base: MPassConfig,
) -> OtherSec<'a> {
    let cfg = base
        .to_builder()
        .modification(ModificationConfig {
            other_sections_instead: true,
            ..base.modification().clone()
        })
        .build()
        .expect("redirecting sections keeps the base config valid");
    OtherSec(MPassAttack::new(models, pool, cfg))
}

impl Attack for OtherSec<'_> {
    fn name(&self) -> &str {
        "Other-sec"
    }

    fn stateful_across_samples(&self) -> bool {
        self.0.stateful_across_samples()
    }

    fn attack(&mut self, sample: &Sample, target: &mut HardLabelTarget<'_>) -> AttackOutcome {
        self.0.attack(sample, target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpass_corpus::{CorpusConfig, Dataset};
    use mpass_sandbox::Sandbox;

    fn dataset() -> Dataset {
        Dataset::generate(&CorpusConfig {
            n_malware: 5,
            n_benign: 2,
            seed: 111,
            no_slack_fraction: 0.0,
        })
    }

    #[test]
    fn random_data_preserves_functionality() {
        let ds = dataset();
        let sandbox = Sandbox::new();
        let mut attack = RandomData::new(3, 1);
        // Use a detector that always accepts so we obtain the AE bytes.
        struct Always;
        impl mpass_detectors::Detector for Always {
            fn name(&self) -> &str {
                "always-benign"
            }
            fn score(&self, _: &[u8]) -> f32 {
                0.0
            }
        }
        let det = Always;
        for s in ds.malware() {
            let mut target = HardLabelTarget::new(&det, 10);
            let o = attack.attack(s, &mut target);
            assert!(o.evaded);
            let ae = o.adversarial.unwrap();
            let v = sandbox.verify_functionality(&s.bytes, &ae);
            assert!(v.is_preserved(), "{}: {v}", s.name);
        }
    }

    #[test]
    fn random_data_produces_high_entropy_cover() {
        let ds = dataset();
        let mut attack = RandomData::new(1, 2);
        struct Always;
        impl mpass_detectors::Detector for Always {
            fn name(&self) -> &str {
                "always-benign"
            }
            fn score(&self, _: &[u8]) -> f32 {
                0.0
            }
        }
        let det = Always;
        let s = ds.malware().into_iter().find(|s| s.pe().unwrap().can_add_section()).unwrap();
        let mut target = HardLabelTarget::new(&det, 10);
        let o = attack.attack(s, &mut target);
        let pe = mpass_pe::PeFile::parse(&o.adversarial.unwrap()).unwrap();
        let code = pe
            .sections()
            .iter()
            .find(|x| x.kind() == mpass_pe::SectionKind::Code && !x.data().is_empty())
            .unwrap();
        assert!(code.entropy() > 7.5, "random cover entropy {}", code.entropy());
    }

    #[test]
    fn random_data_respects_attempt_budget() {
        struct Never;
        impl mpass_detectors::Detector for Never {
            fn name(&self) -> &str {
                "never"
            }
            fn score(&self, _: &[u8]) -> f32 {
                1.0
            }
        }
        let ds = dataset();
        let mut attack = RandomData::new(4, 3);
        let det = Never;
        let mut target = HardLabelTarget::new(&det, 100);
        let o = attack.attack(ds.malware()[0], &mut target);
        assert!(!o.evaded);
        assert_eq!(o.queries, 4);
    }
}
