//! RL-Attack (RLA) — Anderson et al., "Evading machine learning malware
//! detection", Black Hat 2017 (gym-malware).
//!
//! Tabular Q-learning over the manipulation [`PeAction`] set. The agent's
//! state is the number of actions applied so far (the original uses
//! hand-crafted features; with a hard-label oracle and a short horizon the
//! step index is the signal that survives). Rewards: +1 when the target
//! flips to benign, small negative step cost otherwise. Q-values persist
//! across samples, so the agent improves over a campaign — and, like the
//! original tool, it includes an in-place section-packing action without
//! recovery, which is why the paper finds 23 % of RLA's AEs broken.

use crate::actions::{ActionLibrary, PeAction};
use mpass_core::{Attack, AttackOutcome, HardLabelTarget};
use mpass_corpus::{BenignPool, Sample};
use mpass_detectors::Verdict;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// RLA hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RlaConfig {
    /// Actions per episode before restarting from the original sample.
    pub horizon: usize,
    /// Q-learning rate.
    pub alpha: f64,
    /// Discount factor.
    pub gamma: f64,
    /// Exploration probability.
    pub epsilon: f64,
    /// Base seed.
    pub seed: u64,
}

impl Default for RlaConfig {
    fn default() -> Self {
        RlaConfig { horizon: 10, alpha: 0.3, gamma: 0.9, epsilon: 0.2, seed: 0x0052_4C41 }
    }
}

/// The RL-Attack agent.
pub struct Rla {
    library: ActionLibrary,
    actions: Vec<PeAction>,
    q: HashMap<(usize, usize), f64>,
    cfg: RlaConfig,
}

impl Rla {
    /// Build the agent with a payload library harvested from `pool`.
    pub fn new(pool: &BenignPool, cfg: RlaConfig) -> Rla {
        let library = ActionLibrary::harvest(pool, 4, 768, cfg.seed, true);
        let actions = library.action_space();
        Rla { library, actions, q: HashMap::new(), cfg }
    }

    fn choose(&self, state: usize, rng: &mut ChaCha8Rng) -> usize {
        if rng.gen_bool(self.cfg.epsilon) {
            return rng.gen_range(0..self.actions.len());
        }
        // Greedy with *random* tie-breaking: with a fresh all-zero Q table
        // a deterministic argmax would always pick the same action.
        let qs: Vec<f64> = (0..self.actions.len())
            .map(|a| self.q.get(&(state, a)).copied().unwrap_or(0.0))
            .collect();
        let best = qs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let candidates: Vec<usize> =
            (0..qs.len()).filter(|&a| qs[a] == best).collect();
        candidates[rng.gen_range(0..candidates.len())]
    }

    fn update(&mut self, state: usize, action: usize, reward: f64, next_state: usize) {
        let max_next = (0..self.actions.len())
            .map(|a| self.q.get(&(next_state, a)).copied().unwrap_or(0.0))
            .fold(f64::NEG_INFINITY, f64::max)
            .max(0.0);
        let entry = self.q.entry((state, action)).or_insert(0.0);
        *entry += self.cfg.alpha * (reward + self.cfg.gamma * max_next - *entry);
    }
}

impl Attack for Rla {
    fn name(&self) -> &str {
        "RLA"
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
            // One episode from the pristine sample.
            let mut pe = base.clone();
            for step in 0..self.cfg.horizon {
                let state = step;
                let a = self.choose(state, &mut rng);
                self.library.apply(&mut pe, self.actions[a], &mut rng);
                let bytes = pe.to_bytes();
                last_size = bytes.len();
                match target.query(&bytes) {
                    Ok(Verdict::Benign) => {
                        self.update(state, a, 1.0, state + 1);
                        return AttackOutcome::evaded(
                            sample,
                            target.queries(),
                            bytes,
                            original_size,
                        );
                    }
                    Ok(Verdict::Malicious) => {
                        self.update(state, a, -0.05, state + 1);
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

    /// A target that flips to benign once the overlay exceeds a threshold —
    /// learnable by the bandit/Q machinery.
    struct OverlayWeakness;
    impl Detector for OverlayWeakness {
        fn name(&self) -> &str {
            "overlay-weak"
        }
        fn score(&self, bytes: &[u8]) -> f32 {
            let Ok(pe) = mpass_pe::PeFile::parse(bytes) else { return 1.0 };
            if pe.overlay().len() > 1500 {
                0.1
            } else {
                0.9
            }
        }
    }

    fn dataset() -> Dataset {
        Dataset::generate(&CorpusConfig {
            n_malware: 5,
            n_benign: 2,
            seed: 71,
            no_slack_fraction: 0.0,
        })
    }

    #[test]
    fn rla_finds_overlay_weakness() {
        let ds = dataset();
        let pool = BenignPool::generate(2, 3);
        let mut rla = Rla::new(&pool, RlaConfig::default());
        let det = OverlayWeakness;
        let mut wins = 0;
        for s in ds.malware() {
            let mut target = HardLabelTarget::new(&det, 100);
            if rla.attack(s, &mut target).evaded {
                wins += 1;
            }
        }
        assert!(wins >= 4, "RLA evaded only {wins}/5");
    }

    #[test]
    fn rla_respects_budget() {
        struct Never;
        impl Detector for Never {
            fn name(&self) -> &str {
                "never"
            }
            fn score(&self, _: &[u8]) -> f32 {
                1.0
            }
        }
        let ds = dataset();
        let pool = BenignPool::generate(2, 3);
        let mut rla = Rla::new(&pool, RlaConfig::default());
        let det = Never;
        let mut target = HardLabelTarget::new(&det, 30);
        let outcome = rla.attack(ds.malware()[0], &mut target);
        assert!(!outcome.evaded);
        assert_eq!(outcome.queries, 30);
    }

    #[test]
    fn q_values_persist_across_samples() {
        let ds = dataset();
        let pool = BenignPool::generate(2, 3);
        let mut rla = Rla::new(&pool, RlaConfig::default());
        let det = OverlayWeakness;
        let mut first_queries = 0;
        let mut later_queries = Vec::new();
        for (i, s) in ds.malware().into_iter().enumerate() {
            let mut target = HardLabelTarget::new(&det, 100);
            let o = rla.attack(s, &mut target);
            if i == 0 {
                first_queries = o.queries;
            } else if o.evaded {
                later_queries.push(o.queries);
            }
        }
        assert!(!later_queries.is_empty());
        // Learning should keep later query counts in the same ballpark or
        // better than the first exploratory sample on average.
        let avg_later: f64 =
            later_queries.iter().map(|&q| q as f64).sum::<f64>() / later_queries.len() as f64;
        assert!(
            avg_later <= first_queries as f64 + 10.0,
            "no sign of learning: first {first_queries}, later avg {avg_later}"
        );
    }
}
