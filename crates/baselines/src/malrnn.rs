//! MalRNN — Ebrahimi et al., "Binary black-box evasion attacks against
//! deep learning-based static malware detectors with adversarial
//! byte-level language model".
//!
//! MalRNN trains a byte-level generative language model on benign
//! binaries and appends sampled content to the malware until the detector
//! flips. The recurrent network is substituted with an order-2 byte
//! Markov model ([`ByteLm`]) — documented in DESIGN.md — which plays the
//! same role: it emits content with benign byte statistics, and (like a
//! small LM decoding at low temperature) its output is repetitive enough
//! across AEs for AV n-gram learning to latch onto in the Fig. 4
//! experiment.

use mpass_core::{Attack, AttackOutcome, HardLabelTarget};
use mpass_corpus::{BenignPool, Sample};
use mpass_detectors::Verdict;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// MalRNN hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MalRnnConfig {
    /// Bytes of benign training data for the language model.
    pub train_bytes: usize,
    /// Bytes appended per query round.
    pub chunk: usize,
    /// Maximum appended bytes before the attack restarts its generation.
    pub max_append: usize,
    /// Sampling temperature scaling (1 = greedy-ish argmax mixing).
    pub temperature: f64,
    /// Base seed.
    pub seed: u64,
}

impl Default for MalRnnConfig {
    fn default() -> Self {
        MalRnnConfig {
            train_bytes: 64 * 1024,
            chunk: 3072,
            max_append: 96 * 1024,
            temperature: 0.8,
            seed: 0x4D_4C52,
        }
    }
}

/// An order-2 byte Markov language model.
#[derive(Debug, Clone, Default)]
pub struct ByteLm {
    /// `(b₋₂, b₋₁) → counts over next byte`.
    table: HashMap<(u8, u8), Vec<(u8, u32)>>,
    /// The most frequent context — used to (re)start generation.
    start: (u8, u8),
}

impl ByteLm {
    /// Fit the model on a corpus of benign bytes.
    pub fn fit(data: &[u8]) -> ByteLm {
        let mut counts: HashMap<(u8, u8), HashMap<u8, u32>> = HashMap::new();
        for w in data.windows(3) {
            *counts.entry((w[0], w[1])).or_default().entry(w[2]).or_insert(0) += 1;
        }
        let table: HashMap<(u8, u8), Vec<(u8, u32)>> = counts
            .into_iter()
            .map(|(ctx, m)| {
                let mut v: Vec<(u8, u32)> = m.into_iter().collect();
                v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                (ctx, v)
            })
            .collect();
        let start = table
            .iter()
            .max_by_key(|(ctx, v)| (v.iter().map(|(_, c)| *c).sum::<u32>(), (ctx.0, ctx.1)))
            .map(|(ctx, _)| *ctx)
            .unwrap_or((0, 0));
        ByteLm { table, start }
    }

    /// Number of distinct contexts learned.
    pub fn context_count(&self) -> usize {
        self.table.len()
    }

    /// Sample `len` bytes. Low `temperature` concentrates on each
    /// context's most frequent continuation (repetitive, LM-like output);
    /// high temperature flattens toward the empirical distribution.
    pub fn generate<R: Rng + ?Sized>(&self, len: usize, temperature: f64, rng: &mut R) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut ctx = self.start;
        for _ in 0..len {
            let next = match self.table.get(&ctx) {
                Some(cands) if !cands.is_empty() => {
                    if temperature <= 0.0 || rng.gen_bool(1.0 - temperature.clamp(0.0, 1.0)) {
                        cands[0].0
                    } else {
                        // Sample proportional to counts.
                        let total: u32 = cands.iter().map(|(_, c)| *c).sum();
                        let mut pick = rng.gen_range(0..total);
                        let mut chosen = cands[0].0;
                        for &(b, c) in cands {
                            if pick < c {
                                chosen = b;
                                break;
                            }
                            pick -= c;
                        }
                        chosen
                    }
                }
                _ => {
                    // Unknown context: restart from the model's most
                    // frequent context (LM "prompt reset").
                    ctx = self.start;
                    match self.table.get(&ctx) {
                        Some(cands) if !cands.is_empty() => cands[0].0,
                        _ => rng.gen(),
                    }
                }
            };
            out.push(next);
            ctx = (ctx.1, next);
        }
        out
    }
}

/// The MalRNN attack.
pub struct MalRnn {
    lm: ByteLm,
    cfg: MalRnnConfig,
}

impl MalRnn {
    /// Train the language model on benign content from `pool`.
    pub fn new(pool: &BenignPool, cfg: MalRnnConfig) -> MalRnn {
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let corpus = pool.random_chunk(cfg.train_bytes, &mut rng);
        MalRnn { lm: ByteLm::fit(&corpus), cfg }
    }
}

impl Attack for MalRnn {
    fn name(&self) -> &str {
        "MalRNN"
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
        // PE-only baseline: non-PE containers are out of this attack's
        // action space and count as a failed attempt.
        let Some(base) = sample.pe() else {
            return AttackOutcome::failed(sample, target.queries(), original_size, original_size);
        };
        loop {
            let mut pe = base.clone();
            let mut appended = 0usize;
            while appended < self.cfg.max_append {
                let chunk = self.lm.generate(self.cfg.chunk, self.cfg.temperature, &mut rng);
                pe.append_overlay(&chunk);
                appended += chunk.len();
                let bytes = pe.to_bytes();
                last_size = bytes.len();
                match target.query(&bytes) {
                    Ok(Verdict::Benign) => {
                        return AttackOutcome::evaded(
                            sample,
                            target.queries(),
                            bytes,
                            original_size,
                        )
                    }
                    Ok(Verdict::Malicious) => {}
                    Err(_) => {
                        return AttackOutcome::failed(
                            sample,
                            target.queries(),
                            original_size,
                            last_size,
                        )
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

    #[test]
    fn lm_learns_repetitive_structure() {
        let data = b"abcabcabcabcabcabcabcabc".repeat(20);
        let lm = ByteLm::fit(&data);
        assert!(lm.context_count() >= 3);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let generated = lm.generate(30, 0.0, &mut rng);
        // Greedy generation from a periodic corpus reproduces the period.
        let s = String::from_utf8_lossy(&generated);
        assert!(s.contains("abcabc"), "got {s:?}");
    }

    #[test]
    fn lm_output_statistics_match_training() {
        let ds = Dataset::generate(&CorpusConfig {
            n_malware: 0,
            n_benign: 4,
            seed: 3,
            no_slack_fraction: 0.0,
        });
        let corpus: Vec<u8> = ds.benign().iter().flat_map(|s| s.bytes.clone()).collect();
        let lm = ByteLm::fit(&corpus);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let generated = lm.generate(8192, 0.5, &mut rng);
        // Benign-corpus entropy is structured, far from uniform noise.
        let h = mpass_pe::entropy(&generated);
        assert!(h < 7.0, "generated entropy {h} too random");
    }

    #[test]
    fn low_temperature_is_repetitive_across_samples() {
        let pool = BenignPool::generate(2, 3);
        let attack = MalRnn::new(&pool, MalRnnConfig::default());
        let mut r1 = ChaCha8Rng::seed_from_u64(10);
        let mut r2 = ChaCha8Rng::seed_from_u64(20);
        let a = attack.lm.generate(4096, 0.3, &mut r1);
        let b = attack.lm.generate(4096, 0.3, &mut r2);
        // Count shared 12-grams — the learnability property Fig. 4 needs.
        let grams: std::collections::HashSet<&[u8]> = a.windows(12).collect();
        let shared = b.windows(12).filter(|w| grams.contains(w)).count();
        assert!(shared > 100, "only {shared} shared grams between two generations");
    }

    struct TailWeakness;
    impl Detector for TailWeakness {
        fn name(&self) -> &str {
            "tail-weak"
        }
        fn score(&self, bytes: &[u8]) -> f32 {
            let Ok(pe) = mpass_pe::PeFile::parse(bytes) else { return 1.0 };
            // Evaded once enough *low-entropy* content is appended.
            let ov = pe.overlay();
            if ov.len() > 4000 && mpass_pe::entropy(ov) < 7.0 {
                0.1
            } else {
                0.9
            }
        }
    }

    #[test]
    fn malrnn_appends_until_evasion_and_preserves() {
        let ds = Dataset::generate(&CorpusConfig {
            n_malware: 4,
            n_benign: 2,
            seed: 4,
            no_slack_fraction: 0.0,
        });
        let pool = BenignPool::generate(2, 3);
        let mut attack = MalRnn::new(&pool, MalRnnConfig::default());
        let det = TailWeakness;
        let sandbox = Sandbox::new();
        let mut wins = 0;
        for s in ds.malware() {
            let mut target = HardLabelTarget::new(&det, 100);
            let o = attack.attack(s, &mut target);
            if o.evaded {
                wins += 1;
                assert!(sandbox
                    .verify_functionality(&s.bytes, &o.adversarial.unwrap())
                    .is_preserved());
            }
        }
        assert!(wins >= 3, "MalRNN evaded only {wins}/4");
    }
}
