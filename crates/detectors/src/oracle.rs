//! The unreliable-oracle channel: a query-transport abstraction over
//! [`Detector`], plus a deterministic fault-injection wrapper.
//!
//! The paper's commercial targets (AV₁–AV₅) are *services*, not local
//! models: submissions time out, get rate-limited, or hit an outage.
//! [`Oracle`] models that transport — a submission either delivers a
//! [`Verdict`] or reports an [`OracleFault`] — while every in-process
//! [`Detector`] is trivially an `Oracle` that never fails.
//!
//! [`UnreliableOracle`] wraps any detector and injects faults from a
//! seeded, replayable schedule: the fault decision for submission *i*
//! under seed *s* is a pure function of *(s, i)*, so two runs of the
//! same campaign see byte-identical fault sequences regardless of
//! thread scheduling. Experiment runners derive the per-shard seed from
//! the engine's `shard_seed`, keeping whole fault-injected campaigns
//! reproducible across worker counts.

use std::sync::Mutex;

use mpass_engine::metrics as trace;
use mpass_engine::OracleFault;
use serde::{Deserialize, Serialize};

use crate::traits::{Detector, Verdict};

/// A hard-label query channel that can fail.
///
/// This is the transport layer *below* `HardLabelTarget`: no budget, no
/// retries — one submission, one verdict or one fault. Retry policy
/// lives above, in the target wrapper.
pub trait Oracle: Send + Sync {
    /// The target's display name.
    fn name(&self) -> &str;

    /// Submit one file for classification.
    fn submit(&self, bytes: &[u8]) -> Result<Verdict, OracleFault>;
}

/// Every in-process detector is a perfectly reliable oracle.
impl<D: Detector + ?Sized> Oracle for D {
    fn name(&self) -> &str {
        Detector::name(self)
    }

    fn submit(&self, bytes: &[u8]) -> Result<Verdict, OracleFault> {
        Ok(self.classify(bytes))
    }
}

/// Fault-injection schedule parameters for an [`UnreliableOracle`].
///
/// Probabilities are per submission attempt. `burst_cap` bounds the
/// consecutive faults injected in a row; keeping it below the retry
/// policy's `max_attempts` guarantees every query eventually delivers a
/// verdict, which is what makes injected transient faults semantically
/// transparent to an attack (same verdicts, extra retries).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultProfile {
    /// Seed of the deterministic fault schedule.
    pub seed: u64,
    /// Probability of a transient failure per submission.
    pub transient: f64,
    /// Probability of a rate-limit response per submission.
    pub rate_limited: f64,
    /// Retry-after hint attached to rate-limit responses.
    pub retry_after_ms: u64,
    /// Probability of a slow (but successful) response.
    pub slow: f64,
    /// Added latency of a slow response; `0` records the event without
    /// sleeping (the default — simulated campaigns want the schedule,
    /// not the wall-clock).
    pub slow_ms: u64,
    /// Maximum consecutive injected faults; `0` disables the cap.
    pub burst_cap: u32,
    /// After this many submissions the service goes down for good and
    /// every further submission is [`OracleFault::Fatal`].
    pub outage_after: Option<u64>,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile {
            seed: 0x0FA1_7000,
            transient: 0.15,
            rate_limited: 0.05,
            retry_after_ms: 20,
            slow: 0.05,
            slow_ms: 0,
            burst_cap: 2,
            outage_after: None,
        }
    }
}

impl FaultProfile {
    /// The default fault mix under a specific schedule seed.
    pub fn seeded(seed: u64) -> Self {
        FaultProfile { seed, ..FaultProfile::default() }
    }

    /// This profile re-keyed to another seed (e.g. mixed with a shard
    /// seed so every shard draws an independent schedule).
    pub fn reseeded(&self, seed: u64) -> Self {
        FaultProfile { seed, ..*self }
    }
}

#[derive(Debug, Default)]
struct FaultState {
    submissions: u64,
    consecutive_faults: u32,
    faults_injected: u64,
}

/// What the schedule decided for one submission.
enum Decision {
    Deliver { slow: bool },
    Inject(OracleFault),
}

/// A [`Detector`] wrapped in a deterministic fault injector.
///
/// Injected faults are recorded to the `oracle/fault_transient`,
/// `oracle/fault_rate_limited`, `oracle/fault_fatal` and
/// `oracle/fault_slow` metrics counters.
pub struct UnreliableOracle<'a> {
    inner: &'a dyn Detector,
    profile: FaultProfile,
    state: Mutex<FaultState>,
}

impl<'a> UnreliableOracle<'a> {
    /// Wrap `inner` with the fault schedule described by `profile`.
    pub fn new(inner: &'a dyn Detector, profile: FaultProfile) -> Self {
        UnreliableOracle { inner, profile, state: Mutex::new(FaultState::default()) }
    }

    /// The schedule parameters.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// The wrapped detector.
    pub fn inner(&self) -> &'a dyn Detector {
        self.inner
    }

    /// Submissions seen so far (delivered or faulted).
    pub fn submissions(&self) -> u64 {
        self.state().submissions
    }

    /// Faults injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.state().faults_injected
    }

    fn state(&self) -> std::sync::MutexGuard<'_, FaultState> {
        self.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Decide submission `index`'s fate and update the burst state.
    /// Called under the state lock; pure in `(profile.seed, index)`
    /// apart from the burst cap, which depends on submission order —
    /// itself deterministic for a single-threaded shard.
    fn decide(&self, state: &mut FaultState, index: u64) -> Decision {
        if let Some(outage) = self.profile.outage_after {
            if index >= outage {
                state.faults_injected += 1;
                return Decision::Inject(OracleFault::Fatal);
            }
        }
        let capped = self.profile.burst_cap > 0
            && state.consecutive_faults >= self.profile.burst_cap;
        let draw = unit(self.profile.seed, index, 1);
        if !capped && draw < self.profile.transient {
            state.consecutive_faults += 1;
            state.faults_injected += 1;
            return Decision::Inject(OracleFault::Transient);
        }
        if !capped && draw < self.profile.transient + self.profile.rate_limited {
            state.consecutive_faults += 1;
            state.faults_injected += 1;
            return Decision::Inject(OracleFault::RateLimited {
                retry_after_ms: self.profile.retry_after_ms,
            });
        }
        state.consecutive_faults = 0;
        Decision::Deliver { slow: unit(self.profile.seed, index, 2) < self.profile.slow }
    }
}

impl Oracle for UnreliableOracle<'_> {
    fn name(&self) -> &str {
        Detector::name(self.inner)
    }

    fn submit(&self, bytes: &[u8]) -> Result<Verdict, OracleFault> {
        let decision = {
            let mut state = self.state();
            let index = state.submissions;
            state.submissions += 1;
            self.decide(&mut state, index)
        };
        match decision {
            Decision::Inject(fault) => {
                match fault {
                    OracleFault::Transient => trace::counter("oracle/fault_transient", 1),
                    OracleFault::RateLimited { .. } => {
                        trace::counter("oracle/fault_rate_limited", 1)
                    }
                    OracleFault::Fatal => trace::counter("oracle/fault_fatal", 1),
                }
                Err(fault)
            }
            Decision::Deliver { slow } => {
                if slow {
                    trace::counter("oracle/fault_slow", 1);
                    if self.profile.slow_ms > 0 {
                        std::thread::sleep(std::time::Duration::from_millis(
                            self.profile.slow_ms,
                        ));
                    }
                }
                // Classification runs outside the state lock.
                Ok(self.inner.classify(bytes))
            }
        }
    }
}

/// A uniform draw in `[0, 1)` keyed on `(seed, submission index, salt)`
/// through a SplitMix64 finalizer.
fn unit(seed: u64, index: u64, salt: u64) -> f64 {
    let mut z = seed
        ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed(f32);
    impl Detector for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }
        fn score(&self, _: &[u8]) -> f32 {
            self.0
        }
    }

    fn kinds(oracle: &UnreliableOracle<'_>, n: usize) -> Vec<String> {
        (0..n)
            .map(|_| match oracle.submit(b"probe") {
                Ok(v) => v.to_string(),
                Err(f) => f.to_string(),
            })
            .collect()
    }

    #[test]
    fn reliable_detectors_are_oracles() {
        let det = Fixed(0.9);
        let oracle: &dyn Oracle = &det;
        assert_eq!(oracle.name(), "fixed");
        assert_eq!(oracle.submit(b"x"), Ok(Verdict::Malicious));
    }

    #[test]
    fn schedule_is_replayable() {
        let det = Fixed(0.9);
        let a = UnreliableOracle::new(&det, FaultProfile::seeded(7));
        let b = UnreliableOracle::new(&det, FaultProfile::seeded(7));
        assert_eq!(kinds(&a, 200), kinds(&b, 200));
        assert!(a.faults_injected() > 0, "default mix must inject something in 200 tries");
        assert_eq!(a.faults_injected(), b.faults_injected());
        assert_eq!(a.submissions(), 200);
    }

    #[test]
    fn different_seeds_draw_different_schedules() {
        let det = Fixed(0.9);
        let a = UnreliableOracle::new(&det, FaultProfile::seeded(7));
        let b = UnreliableOracle::new(&det, FaultProfile::seeded(8));
        assert_ne!(kinds(&a, 200), kinds(&b, 200));
    }

    #[test]
    fn burst_cap_bounds_consecutive_faults() {
        let det = Fixed(0.9);
        // Brutal fault rate, but bursts capped at 2.
        let profile = FaultProfile {
            transient: 0.9,
            rate_limited: 0.05,
            burst_cap: 2,
            ..FaultProfile::seeded(3)
        };
        let oracle = UnreliableOracle::new(&det, profile);
        let mut consecutive = 0u32;
        for _ in 0..500 {
            match oracle.submit(b"probe") {
                Err(_) => {
                    consecutive += 1;
                    assert!(consecutive <= 2, "burst cap violated");
                }
                Ok(_) => consecutive = 0,
            }
        }
    }

    #[test]
    fn delivered_verdicts_match_inner_detector() {
        let det = Fixed(0.9);
        let oracle = UnreliableOracle::new(&det, FaultProfile::seeded(11));
        for _ in 0..100 {
            if let Ok(v) = oracle.submit(b"probe") {
                assert_eq!(v, det.classify(b"probe"));
            }
        }
    }

    #[test]
    fn outage_is_permanent() {
        let det = Fixed(0.1);
        let profile = FaultProfile {
            transient: 0.0,
            rate_limited: 0.0,
            outage_after: Some(5),
            ..FaultProfile::seeded(1)
        };
        let oracle = UnreliableOracle::new(&det, profile);
        for _ in 0..5 {
            assert_eq!(oracle.submit(b"x"), Ok(Verdict::Benign));
        }
        for _ in 0..10 {
            assert_eq!(oracle.submit(b"x"), Err(OracleFault::Fatal));
        }
    }

    #[test]
    fn faults_are_counted_in_metrics() {
        let det = Fixed(0.9);
        let profile = FaultProfile {
            transient: 0.5,
            rate_limited: 0.3,
            burst_cap: 0,
            ..FaultProfile::seeded(5)
        };
        mpass_engine::metrics::install(mpass_engine::Collector::default());
        let oracle = UnreliableOracle::new(&det, profile);
        for _ in 0..100 {
            let _ = oracle.submit(b"probe");
        }
        let shard = mpass_engine::metrics::take().unwrap().finish("t", 0.0);
        let transient = shard.counters.get("oracle/fault_transient").copied().unwrap_or(0);
        let limited = shard.counters.get("oracle/fault_rate_limited").copied().unwrap_or(0);
        assert!(transient > 0 && limited > 0, "transient {transient}, limited {limited}");
        assert_eq!(transient + limited, oracle.faults_injected());
    }

    #[test]
    fn profile_reseeding_keeps_the_mix() {
        let p = FaultProfile { transient: 0.4, ..FaultProfile::seeded(1) };
        let q = p.reseeded(99);
        assert_eq!(q.seed, 99);
        assert_eq!(q.transient, 0.4);
        assert_eq!(q.burst_cap, p.burst_cap);
    }
}
