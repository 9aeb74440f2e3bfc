//! Cross-request batch coalescing for detector-level scoring.
//!
//! Clients of a scoring service send files one at a time, but the
//! detectors behind it score far cheaper per item when handed a whole
//! batch (`Detector::score_batch` amortizes embedding scratch, feature
//! buffers, and pad-window work). The [`BatchScheduler`] sits between
//! the two: request threads submit individual items and block for their
//! result, while a flush policy coalesces everything pending across
//! threads into one batched scorer call. Its one user is the
//! [`mpass serve`] daemon; campaign shards and `mpass score` call the
//! detectors directly.
//!
//! ## Flush policy
//!
//! A batch is flushed when either trigger fires:
//!
//! * **size** — the pending queue reaches [`BatchPolicy::max_batch`], or
//! * **deadline** — the oldest pending item has waited
//!   [`BatchPolicy::max_delay`].
//!
//! The submitting thread whose item trips a trigger becomes the *leader*:
//! it drains the queue, runs the scorer closure outside the lock, and
//! wakes every waiter whose result arrived. Items that arrive while a
//! flush is in flight queue up for the next one — nothing is lost and
//! nothing is scored twice. A lone submitter therefore pays at most
//! `max_delay` latency; a saturated pool pays none, because the size
//! trigger fires first.
//!
//! ## Overload behaviour
//!
//! A long-lived service needs the scheduler to *refuse* work rather than
//! queue it without bound, and to *shed* work that has already missed
//! its latency target rather than burn scorer time on an answer nobody
//! is waiting for. [`BatchScheduler::try_submit`] provides both:
//!
//! * the pending queue is bounded by [`BatchPolicy::queue_capacity`] —
//!   a submission against a full queue fails immediately with
//!   [`SubmitError::QueueFull`] and is never enqueued, keeping the
//!   latency of *admitted* items bounded instead of collapsing under
//!   overload, and
//! * each item may carry a deadline — an item whose deadline passes
//!   while it waits is shed **before scoring** (dropped from the batch
//!   the leader hands the scorer, or removed by its own waiter), failing
//!   with [`SubmitError::DeadlineExpired`] without costing scorer time.
//!
//! Flush sizes are recorded to the `engine/batch_flush` counter and
//! `engine/batch_size` series; refused and shed items to the
//! `engine/batch_rejected` and `engine/batch_shed` counters, so the
//! metrics file shows how well the traffic coalesced and how hard the
//! service had to push back.
//!
//! [`mpass serve`]: ../../mpass_serve/index.html

use crate::metrics as trace;
use std::collections::HashMap;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// When to flush pending items into a scorer call, and how much may wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Flush as soon as this many items are pending.
    pub max_batch: usize,
    /// Flush when the oldest pending item has waited this long.
    pub max_delay: Duration,
    /// Bound on the pending queue enforced by
    /// [`BatchScheduler::try_submit`]. Defaults to `usize::MAX` —
    /// unbounded.
    pub queue_capacity: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 32,
            max_delay: Duration::from_millis(2),
            queue_capacity: usize::MAX,
        }
    }
}

/// Why a bounded submission returned no result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The pending queue already holds [`BatchPolicy::queue_capacity`]
    /// items; this item was refused without being enqueued.
    QueueFull {
        /// The capacity that was hit.
        capacity: usize,
    },
    /// The item's deadline passed before a scorer call picked it up; it
    /// was shed without being scored.
    DeadlineExpired,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "batch queue full ({capacity} pending)")
            }
            SubmitError::DeadlineExpired => write!(f, "deadline expired before scoring"),
        }
    }
}

impl std::error::Error for SubmitError {}

struct Pending<T> {
    ticket: u64,
    item: T,
    /// `None` — the item can wait forever.
    deadline: Option<Instant>,
}

/// What a flush (or a waiter's own deadline check) decided for a ticket.
enum Slot<R> {
    Done(R),
    Shed,
}

struct SchedState<T, R> {
    /// Tickets waiting to be scored, in arrival order.
    pending: Vec<Pending<T>>,
    /// Results keyed by ticket, claimed by their submitter.
    results: HashMap<u64, Slot<R>>,
    next_ticket: u64,
    /// Whether a leader is currently running the scorer.
    flushing: bool,
}

/// Coalesces items submitted from many threads into batched scorer calls.
///
/// `score` receives the drained batch in arrival order and must return
/// one result per item, in the same order. [`BatchScheduler::try_submit`]
/// blocks the calling thread until its item is scored — exactly as if
/// the scorer ran on a single-item batch — refused by the queue bound,
/// or shed at its deadline (see the module docs).
pub struct BatchScheduler<'s, T, R> {
    #[allow(clippy::type_complexity)]
    score: Box<dyn Fn(&[T]) -> Vec<R> + Send + Sync + 's>,
    policy: BatchPolicy,
    state: Mutex<SchedState<T, R>>,
    cond: Condvar,
}

impl<'s, T: Send, R: Send> BatchScheduler<'s, T, R> {
    /// A scheduler flushing per `policy` into `score`.
    pub fn new<F>(policy: BatchPolicy, score: F) -> Self
    where
        F: Fn(&[T]) -> Vec<R> + Send + Sync + 's,
    {
        BatchScheduler {
            score: Box::new(score),
            policy,
            state: Mutex::new(SchedState {
                pending: Vec::new(),
                results: HashMap::new(),
                next_ticket: 0,
                flushing: false,
            }),
            cond: Condvar::new(),
        }
    }

    /// The flush policy in force.
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// Submit one item against the queue bound, optionally with a
    /// deadline, and block until it is scored, refused, or shed.
    ///
    /// * Returns [`SubmitError::QueueFull`] immediately — without
    ///   enqueueing — when [`BatchPolicy::queue_capacity`] items are
    ///   already pending.
    /// * Returns [`SubmitError::DeadlineExpired`] when `deadline` passes
    ///   before a scorer call picks the item up. Expired items are shed
    ///   *before scoring*: the leader drops them from the batch it hands
    ///   the scorer, and a waiter that notices its own expiry removes
    ///   itself from the queue. An item the scorer has already been
    ///   handed is always scored and returns `Ok` — shedding never
    ///   discards work the scorer spent time on.
    pub fn try_submit(&self, item: T, deadline: Option<Instant>) -> Result<R, SubmitError> {
        let flush_deadline = Instant::now() + self.policy.max_delay;
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if state.pending.len() >= self.policy.queue_capacity {
            trace::counter("engine/batch_rejected", 1);
            return Err(SubmitError::QueueFull { capacity: self.policy.queue_capacity });
        }
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.pending.push(Pending { ticket, item, deadline });
        loop {
            if let Some(slot) = state.results.remove(&ticket) {
                return match slot {
                    Slot::Done(result) => Ok(result),
                    Slot::Shed => Err(SubmitError::DeadlineExpired),
                };
            }
            let item_pending = state.pending.iter().any(|p| p.ticket == ticket);
            if item_pending {
                // Shed ourselves the moment our deadline passes while we
                // still sit in the queue — before any scorer sees us.
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    state.pending.retain(|p| p.ticket != ticket);
                    trace::counter("engine/batch_shed", 1);
                    return Err(SubmitError::DeadlineExpired);
                }
                if !state.flushing {
                    let size_trip = state.pending.len() >= self.policy.max_batch;
                    let deadline_trip = Instant::now() >= flush_deadline;
                    if size_trip || deadline_trip {
                        state = self.flush_locked(state);
                        continue;
                    }
                }
            }
            // Wait for a leader to deliver, or for our flush deadline to
            // make us the leader (or our item deadline to shed us). While
            // a flush is in flight the leader's notify_all will wake us;
            // cap the wait either way so no deadline is missed.
            let wake_at = match deadline {
                Some(d) => flush_deadline.min(d),
                None => flush_deadline,
            };
            let wait = wake_at
                .saturating_duration_since(Instant::now())
                .max(Duration::from_micros(100));
            let (next, _) =
                self.cond.wait_timeout(state, wait).unwrap_or_else(|p| p.into_inner());
            state = next;
        }
    }

    /// Flush everything currently pending, regardless of policy. Useful at
    /// shutdown so stragglers don't wait out their deadline.
    pub fn flush(&self) {
        let state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if state.pending.is_empty() || state.flushing {
            return;
        }
        drop(self.flush_locked(state));
    }

    /// Drain the queue, shed entries whose deadline already passed, and
    /// run the scorer on the survivors outside the lock; the caller
    /// becomes the leader. Returns the re-acquired guard.
    fn flush_locked<'g>(
        &'g self,
        mut state: std::sync::MutexGuard<'g, SchedState<T, R>>,
    ) -> std::sync::MutexGuard<'g, SchedState<T, R>> {
        state.flushing = true;
        let batch = std::mem::take(&mut state.pending);
        drop(state);
        let now = Instant::now();
        let mut shed: Vec<u64> = Vec::new();
        let mut tickets: Vec<u64> = Vec::with_capacity(batch.len());
        let mut items: Vec<T> = Vec::with_capacity(batch.len());
        for p in batch {
            if p.deadline.is_some_and(|d| now >= d) {
                shed.push(p.ticket);
            } else {
                tickets.push(p.ticket);
                items.push(p.item);
            }
        }
        let results = if items.is_empty() { Vec::new() } else { (self.score)(&items) };
        debug_assert_eq!(results.len(), tickets.len(), "scorer must be 1:1");
        if !shed.is_empty() {
            trace::counter("engine/batch_shed", shed.len() as u64);
        }
        if !tickets.is_empty() {
            trace::counter("engine/batch_flush", 1);
            trace::series("engine/batch_size", tickets.len() as f64);
        }
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        for (ticket, result) in tickets.into_iter().zip(results) {
            state.results.insert(ticket, Slot::Done(result));
        }
        for ticket in shed {
            state.results.insert(ticket, Slot::Shed);
        }
        state.flushing = false;
        self.cond.notify_all();
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_match_items_across_threads() {
        let calls = AtomicUsize::new(0);
        let sched = BatchScheduler::new(
            BatchPolicy {
                max_batch: 8,
                max_delay: Duration::from_millis(5),
                ..BatchPolicy::default()
            },
            |items: &[u32]| {
                calls.fetch_add(1, Ordering::SeqCst);
                items.iter().map(|&i| i * 10).collect()
            },
        );
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..32u32)
                .map(|i| {
                    let sched = &sched;
                    scope.spawn(move || (i, sched.try_submit(i, None)))
                })
                .collect();
            for h in handles {
                let (i, r) = h.join().expect("submitter panicked");
                assert_eq!(r, Ok(i * 10), "item {i} got someone else's result");
            }
        });
        let n = calls.load(Ordering::SeqCst);
        assert!(n >= 1, "scorer never ran");
        assert!(n <= 32, "more flushes than items");
    }

    #[test]
    fn size_trigger_coalesces_a_full_batch() {
        let max_seen = Mutex::new(0usize);
        let sched = BatchScheduler::new(
            // A deadline far beyond the test's runtime: only the size
            // trigger can flush, so all items must coalesce.
            BatchPolicy {
                max_batch: 4,
                max_delay: Duration::from_secs(30),
                ..BatchPolicy::default()
            },
            |items: &[usize]| {
                let mut max = max_seen.lock().unwrap();
                *max = (*max).max(items.len());
                items.to_vec()
            },
        );
        std::thread::scope(|scope| {
            for i in 0..4 {
                let sched = &sched;
                scope.spawn(move || assert_eq!(sched.try_submit(i, None), Ok(i)));
            }
        });
        assert_eq!(*max_seen.lock().unwrap(), 4, "size trigger never saw a full batch");
    }

    #[test]
    fn deadline_trigger_serves_a_lone_submitter() {
        let sched = BatchScheduler::new(
            BatchPolicy {
                max_batch: 1024,
                max_delay: Duration::from_millis(1),
                ..BatchPolicy::default()
            },
            |items: &[u8]| items.iter().map(|&b| b as u16 + 1).collect(),
        );
        // Nobody else is submitting: only the deadline can flush this.
        assert_eq!(sched.try_submit(41, None), Ok(42));
    }

    #[test]
    fn explicit_flush_drains_pending() {
        let sched = BatchScheduler::new(
            BatchPolicy {
                max_batch: 1024,
                max_delay: Duration::from_secs(30),
                ..BatchPolicy::default()
            },
            |items: &[u8]| items.to_vec(),
        );
        std::thread::scope(|scope| {
            let sched = &sched;
            let h = scope.spawn(move || sched.try_submit(7, None));
            // Wait until the submitter has enqueued, then force the flush
            // it would otherwise wait 30 s for.
            loop {
                {
                    let state = sched.state.lock().unwrap();
                    if !state.pending.is_empty() {
                        break;
                    }
                }
                std::thread::yield_now();
            }
            sched.flush();
            assert_eq!(h.join().expect("submitter panicked"), Ok(7));
        });
    }

    #[test]
    fn try_submit_refuses_beyond_capacity() {
        // Scorer blocked forever is unnecessary: a 30 s flush delay means
        // nothing drains while we fill the queue from this one thread...
        // except the filler would block too. Fill from helper threads that
        // stay parked in the queue, then overflow from the main thread.
        let sched = BatchScheduler::new(
            BatchPolicy {
                max_batch: 1024,
                max_delay: Duration::from_secs(30),
                queue_capacity: 2,
            },
            |items: &[u8]| items.to_vec(),
        );
        std::thread::scope(|scope| {
            let sched = &sched;
            let parked: Vec<_> = (0..2u8)
                .map(|i| scope.spawn(move || sched.try_submit(i, None)))
                .collect();
            // Wait until both fillers are enqueued.
            loop {
                {
                    let state = sched.state.lock().unwrap();
                    if state.pending.len() == 2 {
                        break;
                    }
                }
                std::thread::yield_now();
            }
            assert_eq!(
                sched.try_submit(9, None),
                Err(SubmitError::QueueFull { capacity: 2 }),
                "third item must be refused, not enqueued"
            );
            // The refusal must not have disturbed the queue.
            assert_eq!(sched.state.lock().unwrap().pending.len(), 2);
            sched.flush();
            for p in parked {
                assert!(p.join().unwrap().is_ok());
            }
        });
    }

    #[test]
    fn expired_items_are_shed_before_scoring() {
        let scored = Mutex::new(Vec::<u8>::new());
        let sched = BatchScheduler::new(
            BatchPolicy {
                max_batch: 1024,
                max_delay: Duration::from_millis(20),
                ..BatchPolicy::default()
            },
            |items: &[u8]| {
                scored.lock().unwrap().extend_from_slice(items);
                items.to_vec()
            },
        );
        // The deadline (now) is already behind the flush delay: the item
        // must come back shed, and the scorer must never see it.
        let result = sched.try_submit(42, Some(Instant::now()));
        assert_eq!(result, Err(SubmitError::DeadlineExpired));
        assert!(scored.lock().unwrap().is_empty(), "shed item reached the scorer");
        // A live deadline scores normally.
        let result = sched.try_submit(7, Some(Instant::now() + Duration::from_secs(5)));
        assert_eq!(result, Ok(7));
        assert_eq!(*scored.lock().unwrap(), vec![7]);
    }

    #[test]
    fn leader_flush_sheds_expired_items_from_a_mixed_batch() {
        let scored = Mutex::new(Vec::<u8>::new());
        let sched = BatchScheduler::new(
            BatchPolicy {
                max_batch: 2,
                max_delay: Duration::from_secs(30),
                ..BatchPolicy::default()
            },
            |items: &[u8]| {
                // Leader's flush runs once the second item arrives; give
                // the first item's deadline time to pass first.
                scored.lock().unwrap().extend_from_slice(items);
                items.to_vec()
            },
        );
        std::thread::scope(|scope| {
            let sched = &sched;
            // Item with a deadline that expires while it waits.
            let doomed = scope.spawn(move || {
                sched.try_submit(1, Some(Instant::now() + Duration::from_millis(10)))
            });
            // Give it time to enqueue and expire.
            std::thread::sleep(Duration::from_millis(30));
            // Second item trips the size trigger; the leader must shed
            // item 1 and score only item 2.
            let ok = scope.spawn(move || sched.try_submit(2u8, None));
            assert_eq!(doomed.join().unwrap(), Err(SubmitError::DeadlineExpired));
            assert_eq!(ok.join().unwrap(), Ok(2));
        });
        assert_eq!(*scored.lock().unwrap(), vec![2], "expired item must not be scored");
    }

    #[test]
    fn metrics_count_rejected_and_shed() {
        crate::metrics::install(crate::metrics::Collector::default());
        let sched = BatchScheduler::new(
            BatchPolicy {
                max_batch: 1024,
                max_delay: Duration::from_millis(5),
                queue_capacity: 0,
            },
            |items: &[u8]| items.to_vec(),
        );
        assert!(matches!(
            sched.try_submit(1, None),
            Err(SubmitError::QueueFull { capacity: 0 })
        ));
        drop(sched);
        let sched = BatchScheduler::new(
            BatchPolicy {
                max_batch: 1024,
                max_delay: Duration::from_millis(5),
                ..BatchPolicy::default()
            },
            |items: &[u8]| items.to_vec(),
        );
        assert_eq!(sched.try_submit(2, Some(Instant::now())), Err(SubmitError::DeadlineExpired));
        let shard = crate::metrics::take().unwrap().finish("t", 0.0);
        assert_eq!(shard.counters["engine/batch_rejected"], 1);
        assert_eq!(shard.counters["engine/batch_shed"], 1);
    }

    #[test]
    fn submit_error_displays() {
        assert!(SubmitError::QueueFull { capacity: 8 }.to_string().contains('8'));
        assert!(SubmitError::DeadlineExpired.to_string().contains("deadline"));
    }
}
