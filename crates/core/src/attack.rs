//! The hard-label black-box attack loop (Fig. 1) and the shared attack
//! abstractions every method in the evaluation implements.

use crate::modify::{modify, ModificationConfig};
use crate::optimize::{EnsembleOptimizer, OptimizerConfig};
use mpass_corpus::{BenignPool, Sample};
use mpass_detectors::{Detector, Oracle, Verdict, WhiteBoxModel};
use mpass_engine::metrics as trace;
use mpass_engine::{
    CircuitBreaker, OracleFault, QueryBudget, QueryBudgetExhausted, QueryError, RetryPolicy,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// The transport under a [`HardLabelTarget`]: an in-process detector
/// that never fails, or an [`Oracle`] channel that can fault.
///
/// (An enum rather than a single `&dyn Oracle` field so that plain
/// `&dyn Detector` construction keeps working — trait objects don't
/// unsize-coerce to other trait objects.)
enum Channel<'a> {
    Reliable(&'a dyn Detector),
    Unreliable(&'a dyn Oracle),
}

impl Channel<'_> {
    fn submit(&self, bytes: &[u8]) -> Result<Verdict, OracleFault> {
        match self {
            Channel::Reliable(det) => Ok(det.classify(bytes)),
            Channel::Unreliable(oracle) => oracle.submit(bytes),
        }
    }

    fn name(&self) -> &str {
        match self {
            Channel::Reliable(det) => det.name(),
            Channel::Unreliable(oracle) => oracle.name(),
        }
    }
}

/// A query-counted, budgeted hard-label oracle around a [`Detector`]
/// (or any fallible [`Oracle`] channel).
///
/// This is the *only* interface attacks get to the target: no scores, no
/// gradients — exactly the paper's threat model. The allowance is an
/// explicit [`QueryBudget`]; exhaustion is a typed error rather than a
/// `None` that reads like a missing verdict.
///
/// ## Budget policy
///
/// The budget meters **delivered verdicts**: each successful query
/// consumes exactly one unit, and a failed query — budget pre-check,
/// transient attempts, retries, breaker refusals — consumes nothing.
/// This keeps the threat model's "N oracle answers" semantics exact and
/// makes transient faults semantically transparent: a retried query
/// yields the same verdict at the same budget position as on a reliable
/// channel. Retry pressure is still observable through the
/// `oracle/retry`, `oracle/backoff_ms` and `oracle/breaker_open`
/// metrics counters.
pub struct HardLabelTarget<'a> {
    channel: Channel<'a>,
    budget: QueryBudget,
    policy: RetryPolicy,
    breaker: CircuitBreaker,
    retry_seed: u64,
    validate_ae: bool,
}

impl<'a> HardLabelTarget<'a> {
    /// Wrap `detector` with a budget of `max_queries`.
    pub fn new(detector: &'a dyn Detector, max_queries: usize) -> Self {
        Self::with_budget(detector, QueryBudget::new(max_queries))
    }

    /// Wrap `detector` with an explicit budget (e.g. a remaining
    /// allowance carried over from another phase).
    pub fn with_budget(detector: &'a dyn Detector, budget: QueryBudget) -> Self {
        HardLabelTarget {
            channel: Channel::Reliable(detector),
            budget,
            policy: RetryPolicy::none(),
            breaker: CircuitBreaker::default(),
            retry_seed: 0,
            validate_ae: false,
        }
    }

    /// Wrap a fallible [`Oracle`] channel, applying `policy` to failed
    /// submissions.
    pub fn unreliable(oracle: &'a dyn Oracle, budget: QueryBudget, policy: RetryPolicy) -> Self {
        HardLabelTarget {
            channel: Channel::Unreliable(oracle),
            budget,
            policy,
            breaker: CircuitBreaker::default(),
            retry_seed: 0,
            validate_ae: false,
        }
    }

    /// Key the deterministic backoff jitter (builder-style).
    pub fn with_retry_seed(mut self, seed: u64) -> Self {
        self.retry_seed = seed;
        self
    }

    /// Gate every submission behind adversarial-example validation
    /// (builder-style): candidate bytes must parse as a PE and round-trip
    /// (`parse(to_bytes(pe)) == pe`) before they reach the oracle.
    /// Invalid candidates fail with [`QueryError::InvalidCandidate`],
    /// consume no budget, and are counted in `oracle/ae_rejected`.
    pub fn with_ae_validation(mut self) -> Self {
        self.validate_ae = true;
        self
    }

    /// Whether the AE validation gate is active.
    pub fn validates_ae(&self) -> bool {
        self.validate_ae
    }

    /// Query the target. Fails with [`QueryError::BudgetExhausted`] once
    /// the budget is spent; on an unreliable channel, failed submissions
    /// are retried per the [`RetryPolicy`] and surface as the other
    /// [`QueryError`] variants when the policy gives up. Only delivered
    /// verdicts consume budget (see the type-level docs).
    ///
    /// The checks run in a fixed order: budget, then the AE gate, then the
    /// circuit breaker. A spent budget therefore answers every candidate,
    /// valid or not, with `BudgetExhausted`.
    pub fn query(&mut self, bytes: &[u8]) -> Result<Verdict, QueryError> {
        if self.budget.is_exhausted() {
            return Err(QueryBudgetExhausted { limit: self.budget.limit() }.into());
        }
        if self.validate_ae && !candidate_is_valid(bytes) {
            trace::counter("oracle/ae_rejected", 1);
            return Err(QueryError::InvalidCandidate);
        }
        if !self.breaker.allows() {
            trace::counter("oracle/breaker_open", 1);
            return Err(QueryError::Fatal);
        }
        let _span = trace::span("stage/query");
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match self.channel.submit(bytes) {
                Ok(verdict) => {
                    self.breaker.record_success();
                    self.budget
                        .try_consume()
                        .expect("budget pre-checked before submitting");
                    trace::counter("queries", 1);
                    return Ok(verdict);
                }
                Err(OracleFault::Fatal) => {
                    self.breaker.record_failure(&self.policy);
                    return Err(QueryError::Fatal);
                }
                Err(fault) => {
                    if attempt >= self.policy.max_attempts.max(1) {
                        self.breaker.record_failure(&self.policy);
                        return Err(match fault {
                            OracleFault::RateLimited { retry_after_ms } => {
                                QueryError::RateLimited { retry_after_ms }
                            }
                            _ => QueryError::Transient { attempts: attempt },
                        });
                    }
                    trace::counter("oracle/retry", 1);
                    let hint = match fault {
                        OracleFault::RateLimited { retry_after_ms } => retry_after_ms,
                        _ => 0,
                    };
                    let backoff = self.policy.backoff_ms(attempt, self.retry_seed).max(hint);
                    trace::counter("oracle/backoff_ms", backoff);
                }
            }
        }
    }

    /// Queries consumed so far.
    pub fn queries(&self) -> usize {
        self.budget.used()
    }

    /// Remaining budget.
    pub fn remaining(&self) -> usize {
        self.budget.remaining()
    }

    /// The budget state itself.
    pub fn budget(&self) -> &QueryBudget {
        &self.budget
    }

    /// The retry policy in force.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// The per-target circuit breaker state.
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// The target's display name.
    pub fn name(&self) -> &str {
        self.channel.name()
    }
}

// The AE validation predicate lives in [`crate::validate`] so the oracle
// gate here and campaign quarantine share one definition.
use crate::validate::candidate_is_valid;

/// Result of attacking one sample.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttackOutcome {
    /// The attacked sample's name.
    pub sample: String,
    /// Whether an adversarial example bypassed the target.
    pub evaded: bool,
    /// Queries consumed for this sample.
    pub queries: usize,
    /// The final adversarial bytes (present when `evaded`).
    pub adversarial: Option<Vec<u8>>,
    /// Original file size.
    pub original_size: usize,
    /// Final file size (of the AE when evaded, else of the last attempt).
    pub final_size: usize,
}

impl AttackOutcome {
    /// The outcome of an attack that evaded with `bytes` after `queries`
    /// queries. Campaigns keep every outcome, so the adversarial example is
    /// trimmed to its length: a buffer grown by in-place edits would
    /// otherwise carry its spare capacity along.
    pub fn evaded(
        sample: &Sample,
        queries: usize,
        mut bytes: Vec<u8>,
        original_size: usize,
    ) -> Self {
        bytes.shrink_to_fit();
        AttackOutcome {
            sample: sample.name.clone(),
            evaded: true,
            queries,
            final_size: bytes.len(),
            adversarial: Some(bytes),
            original_size,
        }
    }

    /// The outcome of an attack that gave up after `queries` queries, its
    /// last attempt `final_size` bytes long (`original_size` when it never
    /// produced a candidate).
    pub fn failed(
        sample: &Sample,
        queries: usize,
        original_size: usize,
        final_size: usize,
    ) -> Self {
        AttackOutcome {
            sample: sample.name.clone(),
            evaded: false,
            queries,
            adversarial: None,
            original_size,
            final_size,
        }
    }

    /// File-size increment ratio (the paper's per-sample APR term).
    pub fn appending_rate(&self) -> f64 {
        (self.final_size as f64 - self.original_size as f64) / self.original_size.max(1) as f64
    }
}

/// An evasion attack under the hard-label threat model.
pub trait Attack {
    /// Display name used in result tables.
    fn name(&self) -> &str;

    /// Attack `sample` against `target` within the target's query budget.
    fn attack(&mut self, sample: &Sample, target: &mut HardLabelTarget<'_>) -> AttackOutcome;

    /// Whether this attack carries learned state across samples within
    /// one campaign (RLA's Q-table, MAB's bandit arms). Campaign
    /// journals may replay *per-sample* outcomes only for stateless
    /// attacks — skipping a sample of a stateful attack would desync
    /// its learning trajectory — so the conservative default is `true`;
    /// stateless attacks override to opt in to sample-level resume.
    fn stateful_across_samples(&self) -> bool {
        true
    }
}

/// Aggregate metrics over attack outcomes (paper §IV-A).
pub mod metrics {
    use super::AttackOutcome;
    use serde::{Deserialize, Serialize};

    /// ASR / AVQ / APR summary of one attack-vs-target run.
    #[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
    pub struct AttackStats {
        /// Attack success rate in percent.
        pub asr: f64,
        /// Average queries per successfully generated AE.
        pub avq: f64,
        /// Average appending (size-increment) rate in percent, over
        /// successful AEs.
        pub apr: f64,
        /// Number of samples attacked.
        pub samples: usize,
    }

    /// Summarize outcomes. AVQ and APR follow the paper's usage: they are
    /// computed over the samples for which an AE was successfully
    /// generated (failed samples would otherwise pin AVQ at the budget).
    pub fn summarize(outcomes: &[AttackOutcome]) -> AttackStats {
        let n = outcomes.len();
        let evaded: Vec<&AttackOutcome> = outcomes.iter().filter(|o| o.evaded).collect();
        let asr = 100.0 * evaded.len() as f64 / n.max(1) as f64;
        let avq = if evaded.is_empty() {
            0.0
        } else {
            evaded.iter().map(|o| o.queries as f64).sum::<f64>() / evaded.len() as f64
        };
        let apr = if evaded.is_empty() {
            0.0
        } else {
            100.0 * evaded.iter().map(|o| o.appending_rate()).sum::<f64>()
                / evaded.len() as f64
        };
        AttackStats { asr, avq, apr, samples: n }
    }
}

/// Configuration of the full MPass attack.
///
/// Construct via [`MPassConfig::builder`] (or keep [`Default`]). Fields
/// are private as of the engine redesign — the old field-literal /
/// struct-update syntax (`MPassConfig { seed, ..Default::default() }`)
/// is gone, because it silently accepted degenerate values like zero
/// restarts; the builder validates on [`MPassConfigBuilder::build`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MPassConfig {
    /// Fresh modifications tried (each with new benign content and a new
    /// shuffle) before giving up, budget permitting.
    max_restarts: usize,
    /// Optimize-then-query rounds per modification.
    rounds_per_restart: usize,
    /// Modification engine settings.
    modification: ModificationConfig,
    /// Optimizer settings (η, iterations per round).
    optimizer: OptimizerConfig,
    /// Base seed; per-sample randomness derives from it and the sample
    /// name, so attacks are reproducible sample-by-sample.
    seed: u64,
}

impl Default for MPassConfig {
    fn default() -> Self {
        MPassConfig {
            max_restarts: 3,
            rounds_per_restart: 4,
            modification: ModificationConfig::default(),
            optimizer: OptimizerConfig::default(),
            seed: 0x4D50_4153,
        }
    }
}

impl MPassConfig {
    /// Start a builder pre-loaded with the validated defaults.
    pub fn builder() -> MPassConfigBuilder {
        MPassConfigBuilder::default()
    }

    /// Re-open this configuration as a builder, for deriving variants
    /// (ablations flip one knob and keep the rest).
    pub fn to_builder(&self) -> MPassConfigBuilder {
        MPassConfigBuilder { cfg: self.clone() }
    }

    pub fn max_restarts(&self) -> usize {
        self.max_restarts
    }

    pub fn rounds_per_restart(&self) -> usize {
        self.rounds_per_restart
    }

    pub fn modification(&self) -> &ModificationConfig {
        &self.modification
    }

    pub fn optimizer(&self) -> OptimizerConfig {
        self.optimizer
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// Why an [`MPassConfigBuilder`] refused to produce a config.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MPassConfigError {
    /// `max_restarts` must be at least 1.
    ZeroRestarts,
    /// `rounds_per_restart` must be at least 1.
    ZeroRounds,
    /// The optimizer learning rate must be finite and positive.
    BadLearningRate,
}

impl std::fmt::Display for MPassConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MPassConfigError::ZeroRestarts => write!(f, "max_restarts must be >= 1"),
            MPassConfigError::ZeroRounds => write!(f, "rounds_per_restart must be >= 1"),
            MPassConfigError::BadLearningRate => {
                write!(f, "optimizer.lr must be finite and > 0")
            }
        }
    }
}

impl std::error::Error for MPassConfigError {}

/// Typed builder for [`MPassConfig`]; every setter keeps the remaining
/// fields at their defaults, and [`MPassConfigBuilder::build`] validates
/// the combination.
#[derive(Debug, Clone, Default)]
pub struct MPassConfigBuilder {
    cfg: MPassConfig,
}

impl MPassConfigBuilder {
    pub fn max_restarts(mut self, n: usize) -> Self {
        self.cfg.max_restarts = n;
        self
    }

    pub fn rounds_per_restart(mut self, n: usize) -> Self {
        self.cfg.rounds_per_restart = n;
        self
    }

    pub fn modification(mut self, modification: ModificationConfig) -> Self {
        self.cfg.modification = modification;
        self
    }

    pub fn optimizer(mut self, optimizer: OptimizerConfig) -> Self {
        self.cfg.optimizer = optimizer;
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<MPassConfig, MPassConfigError> {
        if self.cfg.max_restarts == 0 {
            return Err(MPassConfigError::ZeroRestarts);
        }
        if self.cfg.rounds_per_restart == 0 {
            return Err(MPassConfigError::ZeroRounds);
        }
        // `optimizer.iterations == 0` is deliberately allowed: it disables
        // the optimization stage, which the design ablation sweeps over.
        if !(self.cfg.optimizer.lr.is_finite() && self.cfg.optimizer.lr > 0.0) {
            return Err(MPassConfigError::BadLearningRate);
        }
        Ok(self.cfg)
    }
}

/// The MPass attack: modification with runtime recovery, then ensemble
/// transfer optimization, under a hard-label query budget.
pub struct MPassAttack<'a> {
    models: Vec<&'a dyn WhiteBoxModel>,
    pool: &'a BenignPool,
    cfg: MPassConfig,
}

impl<'a> MPassAttack<'a> {
    /// Assemble the attack from known models and a benign-content pool.
    pub fn new(
        models: Vec<&'a dyn WhiteBoxModel>,
        pool: &'a BenignPool,
        cfg: MPassConfig,
    ) -> Self {
        MPassAttack { models, pool, cfg }
    }

    /// Not FNV-1a: the offset basis is FNV's, but the multiplier is
    /// `0x1000_0000_01b3`, not the FNV prime `0x100_0000_01b3` the
    /// baselines fold with. Every committed MPass result depends on this
    /// stream, so it stays as it is.
    fn sample_rng(&self, sample: &Sample) -> ChaCha8Rng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in sample.name.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        ChaCha8Rng::seed_from_u64(self.cfg.seed ^ h)
    }
}

impl Attack for MPassAttack<'_> {
    fn name(&self) -> &str {
        "MPass"
    }

    /// MPass derives all randomness from `(seed, sample name)` and
    /// mutates nothing across samples, so journaled outcomes can be
    /// replayed per sample.
    fn stateful_across_samples(&self) -> bool {
        false
    }

    fn attack(&mut self, sample: &Sample, target: &mut HardLabelTarget<'_>) -> AttackOutcome {
        let mut rng = self.sample_rng(sample);
        let original_size = sample.size();
        let mut last_size = original_size;
        for _restart in 0..self.cfg.max_restarts {
            let modified = {
                let _span = trace::span("stage/modify");
                modify(sample, self.pool, &self.cfg.modification, &mut rng)
            };
            let mut ms = match modified {
                Ok(ms) => ms,
                Err(_) => break,
            };
            last_size = ms.bytes.len();
            match target.query(&ms.bytes) {
                Ok(Verdict::Benign) => {
                    return AttackOutcome::evaded(sample, target.queries(), ms.bytes, original_size)
                }
                Ok(Verdict::Malicious) => {}
                // A candidate that failed AE validation consumed no budget;
                // a fresh restart can still produce a valid one.
                Err(QueryError::InvalidCandidate) => continue,
                // Budget spent or channel down: either way no more
                // verdicts are coming for this sample.
                Err(_) => break,
            }
            let mut opt =
                EnsembleOptimizer::new(self.models.clone(), &ms, self.cfg.optimizer);
            for _round in 0..self.cfg.rounds_per_restart {
                {
                    let _span = trace::span("stage/optimize");
                    opt.run(&mut ms);
                }
                last_size = ms.bytes.len();
                match target.query(&ms.bytes) {
                    Ok(Verdict::Benign) => {
                        return AttackOutcome::evaded(
                            sample,
                            target.queries(),
                            ms.bytes,
                            original_size,
                        )
                    }
                    Ok(Verdict::Malicious) => {}
                    // An optimizer round that corrupted the candidate is
                    // treated like a rejection: later rounds keep
                    // perturbing and may restore validity.
                    Err(QueryError::InvalidCandidate) => {}
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
        }
        AttackOutcome::failed(sample, target.queries(), original_size, last_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpass_corpus::{CorpusConfig, Dataset};
    use mpass_detectors::train::training_pairs;
    use mpass_detectors::{ByteConvConfig, MalConv, MalGcg, MalGcgConfig};
    use mpass_sandbox::Sandbox;

    struct World {
        ds: Dataset,
        pool: BenignPool,
        malconv: MalConv,
        malgcg: MalGcg,
    }

    fn world() -> World {
        let ds = Dataset::generate(&CorpusConfig {
            n_malware: 16,
            n_benign: 16,
            seed: 51,
            no_slack_fraction: 0.1,
        });
        let pool = BenignPool::generate(4, 17);
        let samples: Vec<_> = ds.samples.iter().collect();
        let pairs = training_pairs(&samples);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut malconv = MalConv::new(ByteConvConfig::tiny(), &mut rng);
        malconv.train(&pairs, 6, 5e-3, &mut rng);
        let mut malgcg = MalGcg::new(MalGcgConfig::tiny(), &mut rng);
        malgcg.train(&pairs, 6, 5e-3, &mut rng);
        World { ds, pool, malconv, malgcg }
    }

    #[test]
    fn target_budget_enforced() {
        let w = world();
        let mut t = HardLabelTarget::new(&w.malconv, 2);
        assert!(t.query(&w.ds.samples[0].bytes).is_ok());
        assert!(t.query(&w.ds.samples[0].bytes).is_ok());
        assert_eq!(
            t.query(&w.ds.samples[0].bytes),
            Err(QueryError::BudgetExhausted(QueryBudgetExhausted { limit: 2 }))
        );
        assert_eq!(t.queries(), 2);
        assert_eq!(t.remaining(), 0);
        assert!(t.budget().is_exhausted());
    }

    #[test]
    fn exhausted_queries_consume_nothing() {
        let w = world();
        let mut t = HardLabelTarget::new(&w.malconv, 1);
        assert!(t.query(&w.ds.samples[0].bytes).is_ok());
        for _ in 0..5 {
            assert!(t.query(&w.ds.samples[0].bytes).is_err());
        }
        assert_eq!(t.queries(), 1);
    }

    #[test]
    fn target_accepts_explicit_budget() {
        let w = world();
        let mut budget = QueryBudget::new(3);
        budget.try_consume().unwrap();
        let mut t = HardLabelTarget::with_budget(&w.malconv, budget);
        assert_eq!(t.remaining(), 2);
        assert!(t.query(&w.ds.samples[0].bytes).is_ok());
        assert_eq!(t.queries(), 2);
    }

    /// A budget partially spent in one phase must be honored — not
    /// reset — when the remainder is re-wrapped for a later phase (the
    /// verification pass carries over the attack's leftover allowance).
    #[test]
    fn with_budget_carry_over_across_rewraps() {
        let w = world();
        let probe = &w.ds.samples[0].bytes;
        let mut t = HardLabelTarget::new(&w.malconv, 5);
        for _ in 0..3 {
            assert!(t.query(probe).is_ok());
        }
        // Phase boundary: hand the same budget state to a new wrapper
        // (around a different detector, as the verification pass does).
        let carried = t.budget().clone();
        let mut v = HardLabelTarget::with_budget(&w.malgcg, carried);
        assert_eq!(v.queries(), 3, "spent queries must carry over");
        assert_eq!(v.remaining(), 2);
        assert!(v.query(probe).is_ok());
        assert!(v.query(probe).is_ok());
        assert!(matches!(
            v.query(probe),
            Err(QueryError::BudgetExhausted(QueryBudgetExhausted { limit: 5 }))
        ));
        assert_eq!(v.queries(), 5);
    }

    #[test]
    fn ae_validation_gate_rejects_malformed_candidates() {
        let w = world();
        mpass_engine::metrics::install(mpass_engine::Collector::default());
        let mut t = HardLabelTarget::new(&w.malconv, 3).with_ae_validation();
        assert!(t.validates_ae());
        // Raw garbage is not a PE: rejected before submission, no budget.
        assert_eq!(t.query(b"MZ garbage"), Err(QueryError::InvalidCandidate));
        assert_eq!(t.queries(), 0);
        // A well-formed sample passes the gate and reaches the detector.
        assert!(t.query(&w.ds.samples[0].bytes).is_ok());
        assert_eq!(t.queries(), 1);
        // Invalid candidates between valid ones stay free.
        assert_eq!(t.query(b""), Err(QueryError::InvalidCandidate));
        assert!(t.query(&w.ds.samples[1].bytes).is_ok());
        assert_eq!(t.queries(), 2);
        let shard = mpass_engine::metrics::take().unwrap().finish("t", 0.0);
        assert_eq!(shard.counters["oracle/ae_rejected"], 2);
    }

    /// `query` checks the budget first, then the AE gate, then the
    /// breaker. A spent budget answers an invalid candidate with
    /// `BudgetExhausted` and counts no AE rejection; an open breaker
    /// still lets the gate reject an invalid candidate locally.
    #[test]
    fn query_checks_budget_then_ae_gate_then_breaker() {
        struct Down;
        impl Oracle for Down {
            fn name(&self) -> &str {
                "down"
            }
            fn submit(&self, _: &[u8]) -> Result<Verdict, OracleFault> {
                Err(OracleFault::Fatal)
            }
        }
        let ds = Dataset::generate(&CorpusConfig {
            n_malware: 1,
            n_benign: 0,
            seed: 3,
            no_slack_fraction: 0.0,
        });
        let valid = &ds.samples[0].bytes;
        let policy = RetryPolicy { breaker_threshold: 1, ..RetryPolicy::default() };

        mpass_engine::metrics::install(mpass_engine::Collector::default());
        let mut spent = HardLabelTarget::unreliable(&Down, QueryBudget::new(0), policy.clone())
            .with_ae_validation();
        assert_eq!(
            spent.query(b"MZ garbage"),
            Err(QueryError::BudgetExhausted(QueryBudgetExhausted { limit: 0 }))
        );
        let shard = mpass_engine::metrics::take().unwrap().finish("t", 0.0);
        assert!(!shard.counters.contains_key("oracle/ae_rejected"));

        mpass_engine::metrics::install(mpass_engine::Collector::default());
        let mut t = HardLabelTarget::unreliable(&Down, QueryBudget::new(5), policy)
            .with_ae_validation();
        assert_eq!(t.query(valid), Err(QueryError::Fatal)); // trips the breaker
        assert!(t.breaker().is_open());
        assert_eq!(t.query(b"MZ garbage"), Err(QueryError::InvalidCandidate));
        assert_eq!(t.query(valid), Err(QueryError::Fatal)); // fail-fast
        let shard = mpass_engine::metrics::take().unwrap().finish("t", 0.0);
        assert_eq!(shard.counters["oracle/ae_rejected"], 1);
        assert_eq!(shard.counters["oracle/breaker_open"], 1);
        assert_eq!(t.queries(), 0);
    }

    #[test]
    fn ae_validation_gate_is_off_by_default() {
        let w = world();
        let mut t = HardLabelTarget::new(&w.malconv, 3);
        assert!(!t.validates_ae());
        // Non-PE probe bytes reach the detector unharmed.
        assert!(t.query(b"x").is_ok());
        assert_eq!(t.queries(), 1);
    }

    /// An oracle whose first submission of every query faults, so each
    /// delivered verdict costs exactly one retry.
    struct FlakyOnce<'a> {
        inner: &'a dyn Detector,
        fault: OracleFault,
        calls: std::sync::Mutex<u64>,
    }

    impl<'a> FlakyOnce<'a> {
        fn new(inner: &'a dyn Detector, fault: OracleFault) -> Self {
            FlakyOnce { inner, fault, calls: std::sync::Mutex::new(0) }
        }
    }

    impl Oracle for FlakyOnce<'_> {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn submit(&self, bytes: &[u8]) -> Result<Verdict, OracleFault> {
            let mut calls = self.calls.lock().unwrap();
            *calls += 1;
            if *calls % 2 == 1 {
                return Err(self.fault);
            }
            Ok(self.inner.classify(bytes))
        }
    }

    /// Documented budget policy: one unit per delivered verdict; failed
    /// and retried submissions consume nothing.
    #[test]
    fn retried_queries_consume_one_budget_unit_per_verdict() {
        let w = world();
        let probe = &w.ds.samples[0].bytes;
        let oracle = FlakyOnce::new(&w.malconv, OracleFault::Transient);
        mpass_engine::metrics::install(mpass_engine::Collector::default());
        let mut t =
            HardLabelTarget::unreliable(&oracle, QueryBudget::new(3), RetryPolicy::default());
        for _ in 0..3 {
            // Every query needs a retry, yet delivers the same verdict
            // as the bare detector and costs exactly one unit.
            assert_eq!(t.query(probe), Ok(w.malconv.classify(probe)));
        }
        assert_eq!(t.queries(), 3);
        assert!(matches!(t.query(probe), Err(QueryError::BudgetExhausted(_))));
        assert_eq!(t.queries(), 3, "failed query consumed nothing");
        let shard = mpass_engine::metrics::take().unwrap().finish("t", 0.0);
        assert_eq!(shard.counters["oracle/retry"], 3);
        assert_eq!(shard.counters["queries"], 3);
    }

    /// Rate-limit hints surface in the backoff and in the terminal
    /// error when retries run out.
    #[test]
    fn rate_limited_channel_exhausts_retries_with_hint() {
        struct AlwaysLimited;
        impl Oracle for AlwaysLimited {
            fn name(&self) -> &str {
                "limited"
            }
            fn submit(&self, _: &[u8]) -> Result<Verdict, OracleFault> {
                Err(OracleFault::RateLimited { retry_after_ms: 40 })
            }
        }
        let policy = RetryPolicy { max_attempts: 3, ..RetryPolicy::default() };
        let mut t = HardLabelTarget::unreliable(&AlwaysLimited, QueryBudget::new(5), policy);
        assert_eq!(t.query(b"x"), Err(QueryError::RateLimited { retry_after_ms: 40 }));
        assert_eq!(t.queries(), 0, "no verdict, no budget");
    }

    /// A query whose transient faults outlast the retry policy fails with
    /// its attempt count and consumes no budget.
    #[test]
    fn exhausted_retries_consume_no_budget() {
        struct Flaky;
        impl Oracle for Flaky {
            fn name(&self) -> &str {
                "flaky"
            }
            fn submit(&self, _: &[u8]) -> Result<Verdict, OracleFault> {
                Err(OracleFault::Transient)
            }
        }
        let policy = RetryPolicy { max_attempts: 2, ..RetryPolicy::default() };
        let mut t = HardLabelTarget::unreliable(&Flaky, QueryBudget::new(10), policy);
        for _ in 0..2 {
            assert_eq!(t.query(b"x"), Err(QueryError::Transient { attempts: 2 }));
        }
        assert_eq!(t.queries(), 0);
        assert_eq!(t.remaining(), 10);
    }

    /// After `breaker_threshold` consecutive failed queries the breaker
    /// opens and fails fast without touching the channel or the budget.
    #[test]
    fn breaker_opens_and_fails_fast() {
        struct Down;
        impl Oracle for Down {
            fn name(&self) -> &str {
                "down"
            }
            fn submit(&self, _: &[u8]) -> Result<Verdict, OracleFault> {
                Err(OracleFault::Fatal)
            }
        }
        let policy = RetryPolicy {
            breaker_threshold: 2,
            breaker_cooldown: 3,
            ..RetryPolicy::default()
        };
        mpass_engine::metrics::install(mpass_engine::Collector::default());
        let mut t = HardLabelTarget::unreliable(&Down, QueryBudget::new(10), policy);
        assert_eq!(t.query(b"x"), Err(QueryError::Fatal));
        assert_eq!(t.query(b"x"), Err(QueryError::Fatal)); // trips breaker
        assert!(t.breaker().is_open());
        for _ in 0..3 {
            assert_eq!(t.query(b"x"), Err(QueryError::Fatal)); // fail-fast
        }
        let shard = mpass_engine::metrics::take().unwrap().finish("t", 0.0);
        assert_eq!(shard.counters["oracle/breaker_open"], 3);
        assert_eq!(t.queries(), 0);
    }

    /// End to end: injected transient faults are semantically
    /// transparent — the attack reaches the same outcome against the
    /// faulted channel as against the bare detector, with non-zero
    /// retry counters as the only trace.
    #[test]
    fn injected_faults_are_transparent_to_the_attack() {
        let w = world();
        let s = w.ds.malware()[0];
        let reliable = {
            let mut attack =
                MPassAttack::new(vec![&w.malgcg], &w.pool, MPassConfig::default());
            let mut target = HardLabelTarget::new(&w.malconv, 100);
            attack.attack(s, &mut target)
        };
        // The attack may need only a couple of submissions, so sweep
        // schedule seeds: every seed must be transparent, and at least
        // one must actually inject faults. burst_cap 2 < max_attempts 4
        // keeps every query answerable within its retries.
        let mut total_faults = 0;
        let mut total_retries = 0;
        for seed in 0..8u64 {
            let profile = mpass_detectors::FaultProfile {
                transient: 0.5,
                rate_limited: 0.2,
                ..mpass_detectors::FaultProfile::seeded(seed)
            };
            let oracle = mpass_detectors::UnreliableOracle::new(&w.malconv, profile);
            mpass_engine::metrics::install(mpass_engine::Collector::default());
            let faulted = {
                let mut attack =
                    MPassAttack::new(vec![&w.malgcg], &w.pool, MPassConfig::default());
                let mut target = HardLabelTarget::unreliable(
                    &oracle,
                    QueryBudget::new(100),
                    RetryPolicy::default(),
                )
                .with_retry_seed(seed);
                attack.attack(s, &mut target)
            };
            let shard = mpass_engine::metrics::take().unwrap().finish("t", 0.0);
            assert_eq!(faulted.evaded, reliable.evaded, "seed {seed}");
            assert_eq!(faulted.queries, reliable.queries, "seed {seed}");
            assert_eq!(faulted.adversarial, reliable.adversarial, "seed {seed}");
            total_faults += oracle.faults_injected();
            total_retries += shard.counters.get("oracle/retry").copied().unwrap_or(0);
        }
        assert!(total_faults > 0, "no seed injected any fault");
        assert_eq!(total_retries, total_faults, "every injected fault costs one retry");
    }

    #[test]
    fn builder_validates_and_round_trips() {
        let cfg = MPassConfig::builder()
            .max_restarts(5)
            .rounds_per_restart(2)
            .seed(99)
            .build()
            .unwrap();
        assert_eq!(cfg.max_restarts(), 5);
        assert_eq!(cfg.rounds_per_restart(), 2);
        assert_eq!(cfg.seed(), 99);
        // Unset knobs keep the defaults.
        assert_eq!(cfg.modification(), &ModificationConfig::default());

        // Variants derive from an existing config.
        let variant = cfg.to_builder().seed(1).build().unwrap();
        assert_eq!(variant.max_restarts(), 5);
        assert_eq!(variant.seed(), 1);

        assert_eq!(
            MPassConfig::builder().max_restarts(0).build(),
            Err(MPassConfigError::ZeroRestarts)
        );
        assert_eq!(
            MPassConfig::builder().rounds_per_restart(0).build(),
            Err(MPassConfigError::ZeroRounds)
        );
        // Zero iterations disables optimization (a supported ablation).
        assert!(MPassConfig::builder()
            .optimizer(OptimizerConfig { lr: 0.05, iterations: 0 })
            .build()
            .is_ok());
        assert_eq!(
            MPassConfig::builder()
                .optimizer(OptimizerConfig { lr: -1.0, iterations: 3 })
                .build(),
            Err(MPassConfigError::BadLearningRate)
        );
    }

    #[test]
    fn evaded_outcomes_hold_no_spare_capacity() {
        let ds = Dataset::generate(&CorpusConfig {
            n_malware: 1,
            n_benign: 0,
            seed: 3,
            no_slack_fraction: 0.0,
        });
        let s = &ds.samples[0];
        // An AE grown in place: 13,312 bytes in a 16,384-byte buffer.
        let mut bytes = Vec::with_capacity(16_384);
        bytes.resize(13_312, 0x90);
        let outcome = AttackOutcome::evaded(s, 7, bytes, s.size());
        let ae = outcome.adversarial.as_ref().expect("an evading outcome holds its AE");
        assert_eq!(ae.capacity(), ae.len());
        assert_eq!(outcome.final_size, 13_312);
        assert!(outcome.evaded);
        assert_eq!((outcome.queries, outcome.original_size), (7, s.size()));
    }

    #[test]
    fn builder_defaults_match_default() {
        assert_eq!(MPassConfig::builder().build().unwrap(), MPassConfig::default());
    }

    #[test]
    fn mpass_evades_malconv_with_few_queries() {
        let w = world();
        // Attack MalConv using MalGcg as the known model (transfer).
        let mut attack = MPassAttack::new(
            vec![&w.malgcg],
            &w.pool,
            MPassConfig::default(),
        );
        let mut outcomes = Vec::new();
        for s in w.ds.malware().into_iter().take(6) {
            let mut target = HardLabelTarget::new(&w.malconv, 100);
            outcomes.push(attack.attack(s, &mut target));
        }
        let stats = metrics::summarize(&outcomes);
        // Toy scale: one tiny surrogate, six samples — a sanity floor that
        // transfer happens at all; full-scale numbers live in
        // mpass-experiments.
        assert!(stats.asr >= 30.0, "ASR {}", stats.asr);
        assert!(stats.avq <= 25.0, "AVQ {}", stats.avq);
    }

    #[test]
    fn successful_aes_preserve_functionality() {
        let w = world();
        let sandbox = Sandbox::new();
        let mut attack =
            MPassAttack::new(vec![&w.malgcg], &w.pool, MPassConfig::default());
        for s in w.ds.malware().into_iter().take(4) {
            let mut target = HardLabelTarget::new(&w.malconv, 100);
            let outcome = attack.attack(s, &mut target);
            if let Some(ae) = &outcome.adversarial {
                // Validate through the batched digest path the campaign
                // uses: baseline once per sample, candidates against it.
                let baseline = sandbox.baseline_digest(&s.bytes).unwrap();
                let verdicts = sandbox.validate_batch(&baseline, &[ae]);
                assert!(verdicts[0].is_preserved(), "{}: {}", s.name, verdicts[0]);
            }
        }
    }

    #[test]
    fn attack_is_reproducible() {
        let w = world();
        let s = w.ds.malware()[0];
        let run = || {
            let mut attack =
                MPassAttack::new(vec![&w.malgcg], &w.pool, MPassConfig::default());
            let mut target = HardLabelTarget::new(&w.malconv, 100);
            attack.attack(s, &mut target)
        };
        let a = run();
        let b = run();
        assert_eq!(a.evaded, b.evaded);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.adversarial, b.adversarial);
    }

    #[test]
    fn attack_records_metrics_when_collector_installed() {
        let w = world();
        let s = w.ds.malware()[0];
        mpass_engine::metrics::install(mpass_engine::Collector::default());
        mpass_engine::metrics::begin_sample(&s.name);
        let mut attack =
            MPassAttack::new(vec![&w.malgcg], &w.pool, MPassConfig::default());
        let mut target = HardLabelTarget::new(&w.malconv, 100);
        let outcome = attack.attack(s, &mut target);
        mpass_engine::metrics::end_sample();
        let shard = mpass_engine::metrics::take().unwrap().finish("test", 0.0);
        assert_eq!(shard.counters["queries"], outcome.queries as u64);
        assert_eq!(shard.samples.len(), 1);
        assert_eq!(
            shard.samples[0].counters["queries"],
            outcome.queries as u64
        );
        assert!(shard.timings.contains_key("stage/modify"));
        assert!(shard.timings.contains_key("stage/query"));
    }

    #[test]
    fn metrics_summarize_correctly() {
        let outcomes = vec![
            AttackOutcome {
                sample: "a".into(),
                evaded: true,
                queries: 2,
                adversarial: Some(vec![]),
                original_size: 100,
                final_size: 150,
            },
            AttackOutcome {
                sample: "b".into(),
                evaded: true,
                queries: 4,
                adversarial: Some(vec![]),
                original_size: 100,
                final_size: 250,
            },
            AttackOutcome {
                sample: "c".into(),
                evaded: false,
                queries: 100,
                adversarial: None,
                original_size: 100,
                final_size: 100,
            },
        ];
        let stats = metrics::summarize(&outcomes);
        assert!((stats.asr - 200.0 / 3.0).abs() < 1e-9);
        assert!((stats.avq - 3.0).abs() < 1e-9);
        assert!((stats.apr - 100.0).abs() < 1e-9); // (50% + 150%)/2
        assert_eq!(stats.samples, 3);
    }

    #[test]
    fn empty_outcomes_summarize_to_zero() {
        let stats = metrics::summarize(&[]);
        assert_eq!(stats.asr, 0.0);
        assert_eq!(stats.avq, 0.0);
        assert_eq!(stats.samples, 0);
    }
}
