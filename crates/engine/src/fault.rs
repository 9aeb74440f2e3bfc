//! Fault model for unreliable oracle channels.
//!
//! The paper's commercial experiments query real cloud AV services,
//! which time out, rate-limit, and occasionally go dark. This module is
//! the workspace's shared vocabulary for those failure modes:
//!
//! * [`OracleFault`] — what a single *submission attempt* can report.
//! * [`QueryError`] — what a budgeted, retried *query* surfaces to the
//!   attack loop after policy has been applied.
//! * [`RetryPolicy`] — attempt caps, exponential backoff with
//!   deterministic jitter, and circuit-breaker thresholds.
//! * [`CircuitBreaker`] — a per-target breaker whose open/cooldown state
//!   is counted in *queries*, never wall-clock time, so campaigns stay
//!   bit-reproducible under fault injection.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::budget::QueryBudgetExhausted;

/// One failed submission attempt on an oracle channel.
///
/// Faults are attempt-level: the retry loop in `HardLabelTarget::query`
/// decides whether a fault is survivable ([`OracleFault::Transient`],
/// [`OracleFault::RateLimited`]) or terminal ([`OracleFault::Fatal`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum OracleFault {
    /// A transient failure (timeout, dropped connection); retryable.
    Transient,
    /// The service shed load and asked the client to come back later.
    RateLimited {
        /// The service's suggested minimum wait before retrying.
        retry_after_ms: u64,
    },
    /// The service is down or rejected the client permanently; no number
    /// of retries will help.
    Fatal,
}

impl OracleFault {
    /// Whether the retry policy may attempt this submission again.
    pub fn is_retryable(&self) -> bool {
        !matches!(self, OracleFault::Fatal)
    }
}

impl fmt::Display for OracleFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleFault::Transient => write!(f, "transient oracle failure"),
            OracleFault::RateLimited { retry_after_ms } => {
                write!(f, "rate limited (retry after {retry_after_ms} ms)")
            }
            OracleFault::Fatal => write!(f, "fatal oracle outage"),
        }
    }
}

impl std::error::Error for OracleFault {}

/// Why a budgeted query returned no verdict.
///
/// This replaces the bare [`QueryBudgetExhausted`] of earlier revisions:
/// exhaustion is still the common case attack loops terminate on, but an
/// unreliable channel can also fail a query outright after retries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// The query budget is spent. Delivered verdicts — and only
    /// delivered verdicts — consume budget, so this is exactly the old
    /// `QueryBudgetExhausted` condition.
    BudgetExhausted(QueryBudgetExhausted),
    /// Every attempt allowed by the [`RetryPolicy`] failed transiently.
    Transient {
        /// Submission attempts made before giving up.
        attempts: u32,
    },
    /// The final allowed attempt was still rate-limited.
    RateLimited {
        /// The service's last retry-after hint.
        retry_after_ms: u64,
    },
    /// The channel reported a fatal outage, or the circuit breaker is
    /// open and refused to submit at all.
    Fatal,
    /// The candidate failed pre-submission validation (it does not
    /// re-parse or round-trip as a PE) and was never sent to the oracle;
    /// no budget was consumed.
    InvalidCandidate,
}

impl QueryError {
    /// Whether this error is budget exhaustion (the normal end of an
    /// attack loop) rather than a channel failure.
    pub fn is_budget_exhausted(&self) -> bool {
        matches!(self, QueryError::BudgetExhausted(_))
    }
}

impl From<QueryBudgetExhausted> for QueryError {
    fn from(e: QueryBudgetExhausted) -> Self {
        QueryError::BudgetExhausted(e)
    }
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::BudgetExhausted(e) => e.fmt(f),
            QueryError::Transient { attempts } => {
                write!(f, "query failed transiently after {attempts} attempts")
            }
            QueryError::RateLimited { retry_after_ms } => {
                write!(f, "query rate-limited (last retry-after {retry_after_ms} ms)")
            }
            QueryError::Fatal => write!(f, "oracle channel is down"),
            QueryError::InvalidCandidate => {
                write!(f, "candidate failed adversarial-example validation")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// Retry/backoff/breaker configuration for one oracle channel.
///
/// Backoff waits are scheduled, never slept: the retry loop records
/// each wait in the `oracle/backoff_ms` counter, so simulated campaigns
/// keep the schedule without its wall-clock cost.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Submission attempts per query, including the first (min 1).
    pub max_attempts: u32,
    /// Backoff before the second attempt, in milliseconds.
    pub base_backoff_ms: u64,
    /// Multiplier applied per further attempt.
    pub backoff_multiplier: u32,
    /// Backoff ceiling in milliseconds.
    pub max_backoff_ms: u64,
    /// Consecutive failed *queries* that trip the circuit breaker;
    /// `0` disables the breaker.
    pub breaker_threshold: u32,
    /// Queries refused (fail-fast) while the breaker is open, before a
    /// half-open probe is allowed through.
    pub breaker_cooldown: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_ms: 50,
            backoff_multiplier: 2,
            max_backoff_ms: 2_000,
            breaker_threshold: 3,
            breaker_cooldown: 8,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries and never trips the breaker — the
    /// behaviour of a perfectly reliable channel.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff_ms: 0,
            backoff_multiplier: 1,
            max_backoff_ms: 0,
            breaker_threshold: 0,
            breaker_cooldown: 0,
        }
    }

    /// The wait before retry number `attempt` (1 = after the first
    /// failure): exponential growth capped at `max_backoff_ms`, with a
    /// deterministic ±25 % jitter drawn from `(seed, attempt)` so two
    /// runs of the same campaign back off identically.
    pub fn backoff_ms(&self, attempt: u32, seed: u64) -> u64 {
        if self.base_backoff_ms == 0 {
            return 0;
        }
        let factor = u64::from(self.backoff_multiplier.max(1))
            .saturating_pow(attempt.saturating_sub(1).min(32));
        let exp = self.base_backoff_ms.saturating_mul(factor).min(self.max_backoff_ms);
        let quarter = exp / 4;
        if quarter == 0 {
            return exp;
        }
        let jitter = splitmix(seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            % (2 * quarter + 1);
        exp - quarter + jitter
    }
}

/// SplitMix64 finalizer: the workspace's standard bit mixer.
fn splitmix(v: u64) -> u64 {
    let mut z = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A per-target circuit breaker counted in queries, not wall-clock.
///
/// After `breaker_threshold` consecutive failed queries the breaker
/// opens: the next `breaker_cooldown` queries fail fast without touching
/// the channel, then one half-open probe is let through. A successful
/// probe closes the breaker; a failed probe re-opens it immediately.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CircuitBreaker {
    consecutive_failures: u32,
    cooldown_remaining: u32,
    times_opened: u64,
}

impl CircuitBreaker {
    /// Whether the next query may reach the channel. While open, each
    /// refused query counts down the cooldown; when it reaches zero the
    /// breaker half-opens and the following query probes the channel.
    pub fn allows(&mut self) -> bool {
        if self.cooldown_remaining > 0 {
            self.cooldown_remaining -= 1;
            return false;
        }
        true
    }

    /// Whether the breaker is currently refusing queries.
    pub fn is_open(&self) -> bool {
        self.cooldown_remaining > 0
    }

    /// How many times the breaker has tripped.
    pub fn times_opened(&self) -> u64 {
        self.times_opened
    }

    /// Record a query that delivered a verdict.
    pub fn record_success(&mut self) {
        self.consecutive_failures = 0;
    }

    /// Record a query that failed after exhausting its retries. The
    /// failure streak is *not* reset when the breaker opens, so a failed
    /// half-open probe re-opens it immediately.
    pub fn record_failure(&mut self, policy: &RetryPolicy) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        if policy.breaker_threshold > 0
            && self.consecutive_failures >= policy.breaker_threshold
        {
            self.cooldown_remaining = policy.breaker_cooldown;
            self.times_opened += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let policy = RetryPolicy { base_backoff_ms: 100, ..RetryPolicy::default() };
        // Jitter is ±25 %, so nominal 100/200/400 stay in disjoint bands.
        let b1 = policy.backoff_ms(1, 7);
        let b2 = policy.backoff_ms(2, 7);
        let b3 = policy.backoff_ms(3, 7);
        assert!((75..=125).contains(&b1), "{b1}");
        assert!((150..=250).contains(&b2), "{b2}");
        assert!((300..=500).contains(&b3), "{b3}");
        // Far attempts hit the cap (±25 % of 2000).
        let b20 = policy.backoff_ms(20, 7);
        assert!((1_500..=2_500).contains(&b20), "{b20}");
    }

    #[test]
    fn backoff_is_deterministic_in_seed_and_attempt() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.backoff_ms(3, 42), policy.backoff_ms(3, 42));
        // Different attempts draw different jitter (overwhelmingly).
        let draws: Vec<u64> = (1..=2).map(|a| policy.backoff_ms(a, 42)).collect();
        assert_ne!(draws[0], draws[1]);
    }

    #[test]
    fn none_policy_never_waits() {
        let policy = RetryPolicy::none();
        assert_eq!(policy.max_attempts, 1);
        assert_eq!(policy.backoff_ms(1, 9), 0);
        assert_eq!(policy.breaker_threshold, 0);
    }

    #[test]
    fn breaker_opens_after_threshold_and_half_opens() {
        let policy =
            RetryPolicy { breaker_threshold: 2, breaker_cooldown: 3, ..RetryPolicy::default() };
        let mut b = CircuitBreaker::default();
        assert!(b.allows());
        b.record_failure(&policy);
        assert!(b.allows());
        b.record_failure(&policy); // second consecutive failure: trips
        assert!(b.is_open());
        assert_eq!(b.times_opened(), 1);
        // Cooldown: three refused queries...
        assert!(!b.allows());
        assert!(!b.allows());
        assert!(!b.allows());
        // ...then the half-open probe is allowed through.
        assert!(b.allows());
        // A failed probe re-opens immediately (streak not reset).
        b.record_failure(&policy);
        assert!(b.is_open());
        assert_eq!(b.times_opened(), 2);
    }

    #[test]
    fn breaker_closes_on_successful_probe() {
        let policy =
            RetryPolicy { breaker_threshold: 1, breaker_cooldown: 1, ..RetryPolicy::default() };
        let mut b = CircuitBreaker::default();
        b.record_failure(&policy);
        assert!(!b.allows()); // cooldown query
        assert!(b.allows()); // half-open probe
        b.record_success();
        // Closed again: takes a full threshold of failures to re-open.
        assert!(b.allows());
        assert!(!b.is_open());
    }

    #[test]
    fn zero_threshold_disables_breaker() {
        let policy = RetryPolicy { breaker_threshold: 0, ..RetryPolicy::default() };
        let mut b = CircuitBreaker::default();
        for _ in 0..100 {
            b.record_failure(&policy);
            assert!(b.allows());
        }
        assert_eq!(b.times_opened(), 0);
    }

    #[test]
    fn query_error_displays_and_converts() {
        let e: QueryError = QueryBudgetExhausted { limit: 7 }.into();
        assert!(e.is_budget_exhausted());
        assert!(e.to_string().contains('7'));
        assert!(!QueryError::Fatal.is_budget_exhausted());
        assert!(QueryError::Transient { attempts: 3 }.to_string().contains('3'));
        assert!(QueryError::RateLimited { retry_after_ms: 20 }.to_string().contains("20"));
    }

    #[test]
    fn fault_retryability() {
        assert!(OracleFault::Transient.is_retryable());
        assert!(OracleFault::RateLimited { retry_after_ms: 5 }.is_retryable());
        assert!(!OracleFault::Fatal.is_retryable());
    }

    #[test]
    fn fault_serde_round_trip() {
        for fault in [
            OracleFault::Transient,
            OracleFault::RateLimited { retry_after_ms: 33 },
            OracleFault::Fatal,
        ] {
            let text = serde_json::to_string(&fault).unwrap();
            let back: OracleFault = serde_json::from_str(&text).unwrap();
            assert_eq!(back, fault);
        }
    }
}
