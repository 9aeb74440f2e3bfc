//! GAMMA — Demetrio et al., "Functionality-preserving black-box
//! optimization of adversarial windows malware" (IEEE TIFS 2021).
//!
//! GAMMA injects content harvested from benign programs ("benign section
//! injection") and optimizes *how much* of each donor section to inject
//! with a genetic algorithm. Under the hard-label oracle the fitness is
//! evasion first, injected-size second (the original's soft-score fitness
//! degraded to its hard-label variant). The defining trade-off survives:
//! GAMMA achieves competitive evasion at an enormous appending rate —
//! Table III reports 3600–4200 % APR.

use mpass_core::{Attack, AttackOutcome, HardLabelTarget};
use mpass_corpus::{BenignPool, Sample};
use mpass_detectors::Verdict;
use mpass_pe::SectionFlags;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// GAMMA hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GammaConfig {
    /// Number of donor sections in the fixed library.
    pub donors: usize,
    /// Bytes per donor section.
    pub donor_len: usize,
    /// GA population size (each individual costs one query to evaluate).
    pub population: usize,
    /// Mutation probability per gene.
    pub mutation: f64,
    /// Base seed.
    pub seed: u64,
}

impl Default for GammaConfig {
    fn default() -> Self {
        GammaConfig {
            donors: 10,
            donor_len: 16 * 1024,
            population: 8,
            mutation: 0.25,
            seed: 0x47_414D,
        }
    }
}

/// One chromosome: per-donor injection fraction in `[0, 1]`.
type Genome = Vec<f64>;

/// The GAMMA attack.
pub struct Gamma {
    donor_sections: Vec<Vec<u8>>,
    cfg: GammaConfig,
}

impl Gamma {
    /// Harvest the fixed donor-section library from `pool`.
    pub fn new(pool: &BenignPool, cfg: GammaConfig) -> Gamma {
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let donor_sections =
            (0..cfg.donors).map(|_| pool.random_chunk(cfg.donor_len, &mut rng)).collect();
        Gamma { donor_sections, cfg }
    }

    /// Materialize a candidate: the sample plus one injected section (or
    /// overlay blob) per donor with non-trivial usage.
    fn express(&self, sample: &Sample, genome: &Genome) -> Vec<u8> {
        // PE-only baseline: a non-PE sample is expressed unmodified (the
        // genome has no PE section table to inject into).
        let Some(base) = sample.pe() else {
            return sample.bytes.clone();
        };
        let mut pe = base.clone();
        for (i, (&usage, donor)) in genome.iter().zip(&self.donor_sections).enumerate() {
            let take = (usage.clamp(0.0, 1.0) * donor.len() as f64) as usize;
            if take < 64 {
                continue;
            }
            let payload = donor[..take].to_vec();
            let name = format!(".gam{i}");
            if pe.section(&name).is_some()
                || pe.add_section(&name, payload.clone(), SectionFlags::RDATA).is_err()
            {
                pe.append_overlay(&payload);
            }
        }
        pe.to_bytes()
    }
}

impl Attack for Gamma {
    fn name(&self) -> &str {
        "GAMMA"
    }

    /// All randomness derives from `(seed, sample name)`; no state
    /// carries across samples, so per-sample journal replay is sound.
    fn stateful_across_samples(&self) -> bool {
        false
    }

    fn attack(&mut self, sample: &Sample, target: &mut HardLabelTarget<'_>) -> AttackOutcome {
        let mut rng = crate::sample_rng(self.cfg.seed, sample);
        let original_size = sample.size();
        let mut last_size = original_size;
        // Initial population: random usage vectors biased high (GAMMA
        // starts from full injection and prunes).
        let mut population: Vec<Genome> = (0..self.cfg.population)
            .map(|_| (0..self.cfg.donors).map(|_| rng.gen_range(0.5..1.0)).collect())
            .collect();
        let mut best_evading: Option<(Genome, Vec<u8>)> = None;
        loop {
            // Evaluate the population (one query each).
            let mut scored: Vec<(usize, bool, usize)> = Vec::new(); // (idx, evaded, size)
            for (i, genome) in population.iter().enumerate() {
                let bytes = self.express(sample, genome);
                last_size = bytes.len();
                match target.query(&bytes) {
                    Ok(Verdict::Benign) => {
                        // Keep the smallest evading individual seen.
                        let better = best_evading
                            .as_ref()
                            .map(|(_, b)| bytes.len() < b.len())
                            .unwrap_or(true);
                        if better {
                            best_evading = Some((genome.clone(), bytes));
                        }
                        scored.push((i, true, last_size));
                    }
                    Ok(Verdict::Malicious) => scored.push((i, false, last_size)),
                    Err(_) => {
                        return finish(sample, target, best_evading, original_size, last_size)
                    }
                }
            }
            if best_evading.is_some() {
                return finish(sample, target, best_evading, original_size, last_size);
            }
            // Selection: evading (none here) > larger injections first
            // (under a hard-label oracle more benign content is the only
            // gradient), then crossover + mutation.
            scored.sort_by_key(|s| std::cmp::Reverse(s.2));
            let parents: Vec<Genome> = scored
                .iter()
                .take((self.cfg.population / 2).max(2))
                .map(|&(i, _, _)| population[i].clone())
                .collect();
            let mut next: Vec<Genome> = parents.clone();
            while next.len() < self.cfg.population {
                let a = &parents[rng.gen_range(0..parents.len())];
                let b = &parents[rng.gen_range(0..parents.len())];
                let mut child: Genome = a
                    .iter()
                    .zip(b)
                    .map(|(&x, &y)| if rng.gen_bool(0.5) { x } else { y })
                    .collect();
                for g in &mut child {
                    if rng.gen_bool(self.cfg.mutation) {
                        *g = (*g + rng.gen_range(-0.3..0.3)).clamp(0.0, 1.0);
                    }
                }
                next.push(child);
            }
            population = next;
            if target.remaining() == 0 {
                return finish(sample, target, best_evading, original_size, last_size);
            }
        }
    }
}

fn finish(
    sample: &Sample,
    target: &HardLabelTarget<'_>,
    best: Option<(Genome, Vec<u8>)>,
    original_size: usize,
    last_size: usize,
) -> AttackOutcome {
    match best {
        Some((_, bytes)) => AttackOutcome::evaded(sample, target.queries(), bytes, original_size),
        None => AttackOutcome::failed(sample, target.queries(), original_size, last_size),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpass_corpus::{CorpusConfig, Dataset};
    use mpass_detectors::Detector;
    use mpass_sandbox::Sandbox;

    /// Flips benign once enough total benign content is present.
    struct DilutionWeakness;
    impl Detector for DilutionWeakness {
        fn name(&self) -> &str {
            "dilution-weak"
        }
        fn score(&self, bytes: &[u8]) -> f32 {
            let original_ish = 16 * 1024;
            if bytes.len() > 3 * original_ish {
                0.2
            } else {
                0.8
            }
        }
    }

    fn dataset() -> Dataset {
        Dataset::generate(&CorpusConfig {
            n_malware: 5,
            n_benign: 2,
            seed: 91,
            no_slack_fraction: 0.0,
        })
    }

    #[test]
    fn gamma_evades_by_dilution_with_huge_apr() {
        let ds = dataset();
        let pool = BenignPool::generate(3, 3);
        let mut gamma = Gamma::new(&pool, GammaConfig::default());
        let det = DilutionWeakness;
        let sandbox = Sandbox::new();
        let mut outcomes = Vec::new();
        for s in ds.malware() {
            let mut target = HardLabelTarget::new(&det, 100);
            let o = gamma.attack(s, &mut target);
            if let Some(ae) = &o.adversarial {
                assert!(sandbox.verify_functionality(&s.bytes, ae).is_preserved());
            }
            outcomes.push(o);
        }
        let stats = mpass_core::attack::metrics::summarize(&outcomes);
        assert!(stats.asr >= 80.0, "ASR {}", stats.asr);
        assert!(stats.apr > 100.0, "GAMMA should append heavily, APR {}", stats.apr);
    }

    #[test]
    fn donor_library_is_fixed() {
        let pool = BenignPool::generate(3, 3);
        let a = Gamma::new(&pool, GammaConfig::default());
        let b = Gamma::new(&pool, GammaConfig::default());
        assert_eq!(a.donor_sections, b.donor_sections);
    }

    #[test]
    fn budget_exhaustion_returns_failure() {
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
        let pool = BenignPool::generate(3, 3);
        let mut gamma = Gamma::new(&pool, GammaConfig::default());
        let det = Never;
        let mut target = HardLabelTarget::new(&det, 20);
        let o = gamma.attack(ds.malware()[0], &mut target);
        assert!(!o.evaded);
        assert_eq!(o.queries, 20);
    }
}
