//! Event-listener tracing: the [`TraceSink`] interface the interpreter
//! drives, and the stock sinks built on it.
//!
//! [`Vm::run_with_sink`](crate::Vm::run_with_sink) pushes every API event
//! at a sink as it happens instead of materializing an owned
//! `Vec<ApiEvent>`. The sink decides what to retain and whether execution
//! should continue:
//!
//! * [`RecordingSink`] materializes the trace and enforces the trace-length
//!   ceiling — it reproduces the pre-sink `Execution::trace` bit for bit
//!   and is what [`Vm::run`](crate::Vm::run) drives internally,
//! * [`DigestSink`] folds every event into a streaming [`TraceDigest`]
//!   (FNV-1a over the `(api, arg)` pairs plus an event count) in O(1)
//!   memory — the cheap path for trace *equality* at campaign scale,
//! * [`ComparingSink`] locks onto a [`ReferenceTrace`] and aborts the run
//!   at the first divergent event, so a broken candidate fails in as many
//!   steps as it takes to reach the divergence instead of running to its
//!   natural end.
//!
//! The dispatch is monomorphized (`run_with_sink` is generic over the
//! sink), so a sink whose [`TraceSink::on_step`] is the default no-op pays
//! nothing for it. The stock sinks also override [`TraceSink::on_steps`]
//! with a no-op, so a bulk-executed loop costs them one call, not one per
//! step.

use crate::api::ApiEvent;
use crate::interp::{Resource, VmFault};
use serde::{Deserialize, Serialize};

/// Version tag of the trace digest format. Folded into the digest's
/// initial state, so digests computed under different versions never
/// compare equal by accident. Bump when the absorbed byte layout changes.
pub const TRACE_DIGEST_VERSION: u32 = 1;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming digest of an API trace: a 64-bit FNV-1a hash over each
/// event's `(api, arg)` bytes plus the event count, computed in O(1)
/// memory. Two digests are equal exactly when the traces they were fed
/// are equal (up to the negligible 64-bit collision probability — pinned
/// against full trace comparison by property test).
///
/// The hash state is seeded from [`TRACE_DIGEST_VERSION`], so persisted
/// digests from an incompatible format version cannot collide with
/// current ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TraceDigest {
    /// FNV-1a hash over the event stream.
    pub hash: u64,
    /// Number of events absorbed.
    pub events: u64,
}

impl TraceDigest {
    /// The digest of an empty trace.
    pub fn empty() -> TraceDigest {
        let mut hash = FNV_OFFSET;
        for b in TRACE_DIGEST_VERSION.to_le_bytes() {
            hash = (hash ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        TraceDigest { hash, events: 0 }
    }

    /// Fold one event into the digest.
    pub fn absorb(&mut self, event: ApiEvent) {
        let mut hash = self.hash;
        for b in event.api.0.to_le_bytes() {
            hash = (hash ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        for b in event.arg.to_le_bytes() {
            hash = (hash ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        self.hash = hash;
        self.events += 1;
    }

    /// Digest an already-materialized trace (the batch twin of feeding a
    /// [`DigestSink`] event by event).
    pub fn of_trace(events: &[ApiEvent]) -> TraceDigest {
        let mut digest = TraceDigest::empty();
        for e in events {
            digest.absorb(*e);
        }
        digest
    }
}

impl Default for TraceDigest {
    fn default() -> Self {
        TraceDigest::empty()
    }
}

/// What a sink tells the interpreter after receiving an API event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkControl {
    /// Keep executing.
    Continue,
    /// The sink's recording capacity is exhausted: terminate with
    /// `Outcome::ResourceExhausted(Resource::Trace)`. The event that
    /// tripped the ceiling is *not* recorded and the API's pseudo-result
    /// is not applied — exactly the pre-sink trace-limit behaviour.
    Exhausted,
    /// The sink has learned what it needs (e.g. a divergence): terminate
    /// with `Outcome::Aborted`. The aborting event is likewise not
    /// applied.
    Abort,
}

/// An event listener driven by [`Vm::run_with_sink`](crate::Vm::run_with_sink).
///
/// Callback contract, in interpreter order:
///
/// 1. [`on_step`](TraceSink::on_step) fires once per executed instruction,
///    after the step counter increments and before the instruction
///    executes (so a fault inside the instruction still follows its
///    `on_step`). A block of iterations of a byte-map loop that the
///    interpreter runs in bulk is reported instead by one
///    [`on_steps`](TraceSink::on_steps)`(first, last)` call before the
///    block executes; it covers exactly the counters `first..=last` that
///    stepping would have passed to `on_step`, and a block never contains
///    an API call, a fault or the end of the run. The default `on_steps`
///    calls `on_step` for each of them in order, so a sink that overrides
///    only `on_step` sees the same sequence either way.
/// 2. [`on_api_event`](TraceSink::on_api_event) fires for every `CallApi`
///    with the event that *would* be traced; its [`SinkControl`] decides
///    whether the call takes effect and the run continues.
/// 3. Exactly one of [`on_fault`](TraceSink::on_fault) /
///    [`on_exhausted`](TraceSink::on_exhausted) fires when the run ends
///    abnormally (nothing fires for a clean halt, a step-limit stop, or a
///    sink-requested abort — the caller sees those in the returned
///    outcome).
pub trait TraceSink {
    /// An API call is about to take effect. The returned [`SinkControl`]
    /// decides whether it does.
    fn on_api_event(&mut self, event: ApiEvent) -> SinkControl;

    /// One instruction is about to execute and was charged against the
    /// step budget.
    /// `steps` is the post-increment counter. Default: no-op.
    fn on_step(&mut self, steps: u64) {
        let _ = steps;
    }

    /// The instructions with post-increment counters `first..=last` are
    /// about to execute in one bulk block. Default: [`on_step`] for each,
    /// in order.
    ///
    /// [`on_step`]: TraceSink::on_step
    fn on_steps(&mut self, first: u64, last: u64) {
        for steps in first..=last {
            self.on_step(steps);
        }
    }

    /// The run is terminating with a fault. Default: no-op.
    fn on_fault(&mut self, fault: VmFault) {
        let _ = fault;
    }

    /// The run is terminating because a governed resource ceiling
    /// tripped. Default: no-op.
    fn on_exhausted(&mut self, resource: Resource) {
        let _ = resource;
    }
}

/// The materializing sink: records every event into a `Vec<ApiEvent>` and
/// enforces a trace-length ceiling, reproducing the pre-sink
/// `Execution::trace` (and its `ResourceExhausted(Trace)` termination)
/// bit for bit.
#[derive(Debug, Clone)]
pub struct RecordingSink {
    trace: Vec<ApiEvent>,
    limit: usize,
}

impl RecordingSink {
    /// Record up to `limit` events, then report exhaustion — the value to
    /// pass is `VmLimits::trace_limit`.
    pub fn with_limit(limit: usize) -> RecordingSink {
        RecordingSink { trace: Vec::new(), limit }
    }

    /// Record without a ceiling (callers that bound the run elsewhere).
    pub fn unbounded() -> RecordingSink {
        Self::with_limit(usize::MAX)
    }

    /// The events recorded so far.
    pub fn trace(&self) -> &[ApiEvent] {
        &self.trace
    }

    /// Consume the sink, yielding the recorded trace.
    pub fn into_trace(self) -> Vec<ApiEvent> {
        self.trace
    }
}

impl TraceSink for RecordingSink {
    fn on_api_event(&mut self, event: ApiEvent) -> SinkControl {
        if self.trace.len() >= self.limit {
            return SinkControl::Exhausted;
        }
        self.trace.push(event);
        SinkControl::Continue
    }

    fn on_steps(&mut self, _: u64, _: u64) {}
}

/// The streaming sink: folds every event into a [`TraceDigest`] in O(1)
/// memory. It enforces no trace ceiling — there is nothing to allocate,
/// so an API flood is bounded by the step budget alone.
#[derive(Debug, Clone, Default)]
pub struct DigestSink {
    digest: TraceDigest,
}

impl DigestSink {
    /// A fresh sink with the empty digest.
    pub fn new() -> DigestSink {
        DigestSink::default()
    }

    /// The digest of everything absorbed so far.
    pub fn digest(&self) -> TraceDigest {
        self.digest
    }
}

impl TraceSink for DigestSink {
    fn on_api_event(&mut self, event: ApiEvent) -> SinkControl {
        self.digest.absorb(event);
        SinkControl::Continue
    }

    fn on_steps(&mut self, _: u64, _: u64) {}
}

/// A baseline trace prepared for streaming comparison: the recorded event
/// stream plus its [`TraceDigest`]. Computed once per original sample and
/// locked against by any number of [`ComparingSink`] candidate runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReferenceTrace {
    digest: TraceDigest,
    events: Vec<ApiEvent>,
}

impl ReferenceTrace {
    /// Build a reference from a recorded trace.
    pub fn from_trace(events: Vec<ApiEvent>) -> ReferenceTrace {
        ReferenceTrace { digest: TraceDigest::of_trace(&events), events }
    }

    /// The digest of the full reference stream.
    pub fn digest(&self) -> TraceDigest {
        self.digest
    }

    /// The reference events.
    pub fn events(&self) -> &[ApiEvent] {
        &self.events
    }

    /// Number of reference events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the reference trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// The early-abort sink: checks each incoming event against a
/// [`ReferenceTrace`] and aborts the run at the first divergence —
/// whether a mismatched event or an event past the reference's end — so
/// broken candidates cost only the steps up to the divergence.
///
/// After the run, [`matches`](ComparingSink::matches) reports whether the
/// candidate's stream was exactly the reference (a completed run with
/// `matches() == true` implies digest equality by construction), and
/// [`first_divergence`](ComparingSink::first_divergence) recovers the
/// event index a full vector comparison would have reported.
#[derive(Debug, Clone)]
pub struct ComparingSink<'a> {
    reference: &'a ReferenceTrace,
    matched: usize,
    diverged: bool,
}

impl<'a> ComparingSink<'a> {
    /// Lock onto `reference`.
    pub fn new(reference: &'a ReferenceTrace) -> ComparingSink<'a> {
        ComparingSink { reference, matched: 0, diverged: false }
    }

    /// Events matched against the reference so far.
    pub fn matched(&self) -> usize {
        self.matched
    }

    /// True when the observed stream ended as exactly the reference
    /// stream (no divergence, every reference event consumed).
    pub fn matches(&self) -> bool {
        !self.diverged && self.matched == self.reference.len()
    }

    /// The index of the first divergent event, in the convention of the
    /// vector comparison this sink replaces: the position of the first
    /// mismatch, or the shorter stream's length when one stream is a
    /// proper prefix of the other. `None` when the streams agree.
    pub fn first_divergence(&self) -> Option<usize> {
        if self.diverged || self.matched < self.reference.len() {
            Some(self.matched)
        } else {
            None
        }
    }
}

impl TraceSink for ComparingSink<'_> {
    fn on_api_event(&mut self, event: ApiEvent) -> SinkControl {
        match self.reference.events().get(self.matched) {
            Some(expected) if *expected == event => {
                self.matched += 1;
                SinkControl::Continue
            }
            _ => {
                // Mismatch, or the candidate outran the reference: either
                // way the streams differ at index `matched`.
                self.diverged = true;
                SinkControl::Abort
            }
        }
    }

    fn on_steps(&mut self, _: u64, _: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{self, ApiId};

    fn ev(api: ApiId, arg: u32) -> ApiEvent {
        ApiEvent { api, arg }
    }

    #[test]
    fn digest_is_order_and_value_sensitive() {
        let a = ev(api::READ_FILE, 1);
        let b = ev(api::WRITE_FILE, 1);
        let c = ev(api::READ_FILE, 2);
        assert_eq!(TraceDigest::of_trace(&[a, b]), TraceDigest::of_trace(&[a, b]));
        assert_ne!(TraceDigest::of_trace(&[a, b]), TraceDigest::of_trace(&[b, a]));
        assert_ne!(TraceDigest::of_trace(&[a]), TraceDigest::of_trace(&[c]));
        assert_ne!(TraceDigest::of_trace(&[]), TraceDigest::of_trace(&[a]));
    }

    #[test]
    fn digest_counts_events_and_streams_like_batch() {
        let events = [ev(api::READ_FILE, 7), ev(api::HTTP_EXFILTRATE, 9), ev(api::READ_FILE, 7)];
        let mut sink = DigestSink::new();
        for e in events {
            assert_eq!(sink.on_api_event(e), SinkControl::Continue);
        }
        assert_eq!(sink.digest(), TraceDigest::of_trace(&events));
        assert_eq!(sink.digest().events, 3);
    }

    #[test]
    fn empty_digest_is_version_seeded() {
        // The empty digest must not be the bare FNV offset basis, or a
        // version bump could leave stale persisted digests comparable.
        assert_ne!(TraceDigest::empty().hash, FNV_OFFSET);
        assert_eq!(TraceDigest::empty(), TraceDigest::of_trace(&[]));
    }

    #[test]
    fn recording_sink_enforces_its_ceiling() {
        let mut sink = RecordingSink::with_limit(2);
        assert_eq!(sink.on_api_event(ev(api::READ_FILE, 0)), SinkControl::Continue);
        assert_eq!(sink.on_api_event(ev(api::READ_FILE, 1)), SinkControl::Continue);
        assert_eq!(sink.on_api_event(ev(api::READ_FILE, 2)), SinkControl::Exhausted);
        // The tripping event is not recorded.
        assert_eq!(sink.trace().len(), 2);
    }

    #[test]
    fn comparing_sink_aborts_at_first_divergence() {
        let reference =
            ReferenceTrace::from_trace(vec![ev(api::READ_FILE, 1), ev(api::HTTP_EXFILTRATE, 2)]);
        let mut sink = ComparingSink::new(&reference);
        assert_eq!(sink.on_api_event(ev(api::READ_FILE, 1)), SinkControl::Continue);
        assert_eq!(sink.on_api_event(ev(api::HTTP_EXFILTRATE, 99)), SinkControl::Abort);
        assert!(!sink.matches());
        assert_eq!(sink.first_divergence(), Some(1));
    }

    #[test]
    fn comparing_sink_flags_prefix_and_overrun() {
        let reference =
            ReferenceTrace::from_trace(vec![ev(api::READ_FILE, 1), ev(api::HTTP_EXFILTRATE, 2)]);
        // Candidate stops short: no abort, but no match either.
        let mut short = ComparingSink::new(&reference);
        assert_eq!(short.on_api_event(ev(api::READ_FILE, 1)), SinkControl::Continue);
        assert!(!short.matches());
        assert_eq!(short.first_divergence(), Some(1));
        // Candidate outruns the reference: abort at the extra event.
        let mut long = ComparingSink::new(&reference);
        assert_eq!(long.on_api_event(ev(api::READ_FILE, 1)), SinkControl::Continue);
        assert_eq!(long.on_api_event(ev(api::HTTP_EXFILTRATE, 2)), SinkControl::Continue);
        assert_eq!(long.on_api_event(ev(api::READ_FILE, 3)), SinkControl::Abort);
        assert_eq!(long.first_divergence(), Some(2));
        // Exact consumption matches.
        let mut exact = ComparingSink::new(&reference);
        exact.on_api_event(ev(api::READ_FILE, 1));
        exact.on_api_event(ev(api::HTTP_EXFILTRATE, 2));
        assert!(exact.matches());
        assert_eq!(exact.first_divergence(), None);
    }

    #[test]
    fn reference_trace_exposes_digest_and_events() {
        let events = vec![ev(api::READ_FILE, 1)];
        let r = ReferenceTrace::from_trace(events.clone());
        assert_eq!(r.digest(), TraceDigest::of_trace(&events));
        assert_eq!(r.events(), &events[..]);
        assert_eq!(r.len(), 1);
        assert!(!r.is_empty());
    }
}
