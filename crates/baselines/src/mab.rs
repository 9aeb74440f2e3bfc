//! MAB-malware — Song et al., "MAB-Malware: a reinforcement learning
//! framework for blackbox generation of adversarial malware" (ASIA CCS
//! 2022).
//!
//! A Thompson-sampling multi-armed bandit: each manipulation action is an
//! arm with a Beta posterior over its evasion success probability. Arm
//! statistics are shared across the whole campaign, so the bandit rapidly
//! concentrates on whatever manipulations the current target is weak to —
//! the reason MAB is the strongest baseline in the paper's tables. Its
//! structural limit remains: no action touches code or data sections.

use crate::actions::{ActionLibrary, PeAction};
use mpass_core::{Attack, AttackOutcome, HardLabelTarget};
use mpass_corpus::{BenignPool, Sample};
use mpass_detectors::Verdict;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// MAB hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MabConfig {
    /// Consecutive actions stacked on one candidate before restarting
    /// from the pristine sample.
    pub max_stack: usize,
    /// Base seed.
    pub seed: u64,
}

impl Default for MabConfig {
    fn default() -> Self {
        MabConfig { max_stack: 8, seed: 0x004D_4142 }
    }
}

/// Beta-posterior arm state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Arm {
    alpha: f64,
    beta: f64,
}

impl Arm {
    fn sample(&self, rng: &mut ChaCha8Rng) -> f64 {
        // Beta(α, β) via the Jöhnk/gamma-free approximation: for the small
        // integer-ish parameters the bandit produces, averaging the max of
        // uniforms is adequate; use the standard two-gamma construction
        // with Marsaglia–Tsang for correctness.
        let x = gamma_sample(self.alpha, rng);
        let y = gamma_sample(self.beta, rng);
        if x + y == 0.0 {
            0.5
        } else {
            x / (x + y)
        }
    }
}

/// Marsaglia–Tsang gamma sampler (shape ≥ 0; rate 1).
fn gamma_sample(shape: f64, rng: &mut ChaCha8Rng) -> f64 {
    if shape < 1.0 {
        // Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
        let u: f64 = rng.gen_range(1e-12..1.0);
        return gamma_sample(shape + 1.0, rng) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        // Box–Muller normal.
        let u1: f64 = rng.gen_range(1e-12..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let n = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = (1.0 + c * n).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen_range(1e-12..1.0);
        if u.ln() < 0.5 * n * n + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// The MAB-malware attack.
pub struct Mab {
    library: ActionLibrary,
    actions: Vec<PeAction>,
    arms: Vec<Arm>,
    cfg: MabConfig,
}

impl Mab {
    /// Build the bandit with a payload library harvested from `pool`.
    /// MAB's action set excludes the unsafe packing action (the original
    /// verifies candidate integrity with a mini-sandbox).
    pub fn new(pool: &BenignPool, cfg: MabConfig) -> Mab {
        let library = ActionLibrary::harvest(pool, 6, 1024, cfg.seed, false);
        let actions = library.action_space();
        let arms = vec![Arm { alpha: 1.0, beta: 1.0 }; actions.len()];
        Mab { library, actions, arms, cfg }
    }

    fn pick_arm(&self, rng: &mut ChaCha8Rng) -> usize {
        let mut best = 0;
        let mut best_v = f64::NEG_INFINITY;
        for (i, arm) in self.arms.iter().enumerate() {
            let v = arm.sample(rng);
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        best
    }
}

impl Attack for Mab {
    fn name(&self) -> &str {
        "MAB"
    }

    fn attack(&mut self, sample: &Sample, target: &mut HardLabelTarget<'_>) -> AttackOutcome {
        let mut rng = crate::sample_rng(self.cfg.seed, sample);
        let original_size = sample.size();
        let mut last_size = original_size;
        // PE-only baseline: non-PE containers are out of this attack's
        // action space and count as a failed attempt.
        let Some(base) = sample.pe() else {
            return AttackOutcome::failed(sample, target.queries(), original_size, original_size);
        };
        loop {
            let mut pe = base.clone();
            for _ in 0..self.cfg.max_stack {
                let arm = self.pick_arm(&mut rng);
                self.library.apply(&mut pe, self.actions[arm], &mut rng);
                let bytes = pe.to_bytes();
                last_size = bytes.len();
                match target.query(&bytes) {
                    Ok(Verdict::Benign) => {
                        self.arms[arm].alpha += 1.0;
                        return AttackOutcome::evaded(
                            sample,
                            target.queries(),
                            bytes,
                            original_size,
                        );
                    }
                    Ok(Verdict::Malicious) => {
                        self.arms[arm].beta += 0.3;
                    }
                    Err(_) => {
                        return AttackOutcome::failed(
                            sample,
                            target.queries(),
                            original_size,
                            last_size,
                        );
                    }
                }
            }
            if target.remaining() == 0 {
                return AttackOutcome::failed(sample, target.queries(), original_size, last_size);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpass_corpus::{CorpusConfig, Dataset};
    use mpass_detectors::Detector;
    use mpass_sandbox::Sandbox;
    use rand::SeedableRng;

    struct OverlayWeakness;
    impl Detector for OverlayWeakness {
        fn name(&self) -> &str {
            "overlay-weak"
        }
        fn score(&self, bytes: &[u8]) -> f32 {
            let Ok(pe) = mpass_pe::PeFile::parse(bytes) else { return 1.0 };
            if pe.overlay().len() > 1800 {
                0.1
            } else {
                0.9
            }
        }
    }

    fn dataset() -> Dataset {
        Dataset::generate(&CorpusConfig {
            n_malware: 6,
            n_benign: 2,
            seed: 81,
            no_slack_fraction: 0.0,
        })
    }

    #[test]
    fn gamma_sampler_is_positive_and_finite() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for &shape in &[0.3f64, 1.0, 2.5, 10.0] {
            for _ in 0..100 {
                let g = gamma_sample(shape, &mut rng);
                assert!(g.is_finite() && g > 0.0, "shape {shape} gave {g}");
            }
        }
    }

    #[test]
    fn gamma_sampler_mean_approximates_shape() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let n = 4000;
        let mean: f64 = (0..n).map(|_| gamma_sample(3.0, &mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn mab_evades_and_preserves() {
        let ds = dataset();
        let pool = BenignPool::generate(3, 3);
        let mut mab = Mab::new(&pool, MabConfig::default());
        let det = OverlayWeakness;
        let sandbox = Sandbox::new();
        let mut wins = 0;
        for s in ds.malware() {
            let mut target = HardLabelTarget::new(&det, 100);
            let o = mab.attack(s, &mut target);
            if o.evaded {
                wins += 1;
                let ae = o.adversarial.unwrap();
                assert!(sandbox.verify_functionality(&s.bytes, &ae).is_preserved());
            }
        }
        assert!(wins >= 5, "MAB evaded only {wins}/6");
    }

    #[test]
    fn bandit_concentrates_on_winning_arms() {
        let ds = dataset();
        let pool = BenignPool::generate(3, 3);
        let mut mab = Mab::new(&pool, MabConfig::default());
        let det = OverlayWeakness;
        for s in ds.malware() {
            let mut target = HardLabelTarget::new(&det, 100);
            let _ = mab.attack(s, &mut target);
        }
        // Overlay/section-payload arms must have gathered more successes
        // than the header-only arms.
        let payload_alpha: f64 = mab
            .arms
            .iter()
            .zip(&mab.actions)
            .filter(|(_, a)| {
                matches!(a, PeAction::AppendOverlay(_) | PeAction::AddSection(_))
            })
            .map(|(arm, _)| arm.alpha)
            .sum();
        let header_alpha: f64 = mab
            .arms
            .iter()
            .zip(&mab.actions)
            .filter(|(_, a)| {
                matches!(
                    a,
                    PeAction::SetTimestamp | PeAction::SetImageVersion | PeAction::RenameSection
                )
            })
            .map(|(arm, _)| arm.alpha)
            .sum();
        assert!(
            payload_alpha > header_alpha,
            "payload arms α={payload_alpha} vs header α={header_alpha}"
        );
    }
}
