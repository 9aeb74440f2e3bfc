//! Outside-in layer timing for the traced run: wrappers that forward
//! every method of the program's public traits and time the calls, plus
//! a counting `TraceSink`. Nothing here adds spans inside the program.

use crate::clock::CpuTimer;
use mpass_detectors::{Detector, Verdict, WhiteBoxModel, WhiteBoxSession};
use mpass_ml::{Embedding, Workspace};
use mpass_serve::{ScoredVerdict, ServeTarget};
use mpass_vm::{ApiEvent, Resource, SinkControl, TraceSink, VmFault};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Call count and busy time (the calling thread's CPU time) of one layer
/// boundary. Relaxed atomics: the values are statistics and publish no
/// other data.
#[derive(Debug, Default)]
pub struct Meter {
    calls: AtomicU64,
    items: AtomicU64,
    nanos: AtomicU64,
}

impl Meter {
    /// Time one call covering `items` work items.
    pub fn time<T>(&self, items: u64, f: impl FnOnce() -> T) -> T {
        let start = CpuTimer::thread();
        let out = f();
        self.add(items, start.elapsed());
        out
    }

    pub fn add(&self, items: u64, elapsed: Duration) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.items.fetch_add(items, Ordering::Relaxed);
        self.nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn items(&self) -> u64 {
        self.items.load(Ordering::Relaxed)
    }

    pub fn busy_ms(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 / 1e6
    }
}

/// A hard-label target seen from outside: every scoring call, single or
/// batched, is timed, and `items` counts the files scored. Every
/// classified candidate is kept so the AE gate can be re-timed on the
/// same bytes.
pub struct TimedDetector<'a> {
    inner: &'a dyn Detector,
    pub score: Meter,
    captured: Mutex<Vec<Vec<u8>>>,
}

impl<'a> TimedDetector<'a> {
    pub fn new(inner: &'a dyn Detector) -> Self {
        TimedDetector {
            inner,
            score: Meter::default(),
            captured: Mutex::new(Vec::new()),
        }
    }

    /// Candidates classified since the last call.
    pub fn take_captured(&self) -> Vec<Vec<u8>> {
        std::mem::take(&mut *self.captured.lock().expect("capture lock poisoned"))
    }

    fn keep(&self, items: &[&[u8]]) {
        let mut c = self.captured.lock().expect("capture lock poisoned");
        c.extend(items.iter().map(|b| b.to_vec()));
    }
}

impl Detector for TimedDetector<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn score(&self, bytes: &[u8]) -> f32 {
        self.score.time(1, || self.inner.score(bytes))
    }

    fn raw_score(&self, bytes: &[u8]) -> f32 {
        self.score.time(1, || self.inner.raw_score(bytes))
    }

    fn threshold(&self) -> f32 {
        self.inner.threshold()
    }

    fn classify(&self, bytes: &[u8]) -> Verdict {
        let v = self.score.time(1, || self.inner.classify(bytes));
        self.keep(&[bytes]);
        v
    }

    fn score_batch(&self, items: &[&[u8]], out: &mut Vec<f32>) {
        self.score
            .time(items.len() as u64, || self.inner.score_batch(items, out))
    }

    fn raw_score_batch(&self, items: &[&[u8]], out: &mut Vec<f32>) {
        self.score.time(items.len() as u64, || {
            self.inner.raw_score_batch(items, out)
        })
    }

    fn has_quantized_path(&self) -> bool {
        self.inner.has_quantized_path()
    }

    fn score_quantized(&self, bytes: &[u8]) -> f32 {
        self.score.time(1, || self.inner.score_quantized(bytes))
    }

    fn score_quantized_batch(&self, items: &[&[u8]], out: &mut Vec<f32>) {
        self.score.time(items.len() as u64, || {
            self.inner.score_quantized_batch(items, out)
        })
    }

    fn classify_batch(&self, items: &[&[u8]], out: &mut Vec<Verdict>) {
        self.score
            .time(items.len() as u64, || self.inner.classify_batch(items, out));
        self.keep(items);
    }
}

/// A known model seen from outside: its gradient calls, one-shot and
/// through its own incremental session, are timed; every other method is
/// forwarded as is.
pub struct TimedModel<'a> {
    inner: &'a dyn WhiteBoxModel,
    pub grad: Meter,
}

impl<'a> TimedModel<'a> {
    pub fn new(inner: &'a dyn WhiteBoxModel) -> Self {
        TimedModel {
            inner,
            grad: Meter::default(),
        }
    }
}

impl Detector for TimedModel<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn score(&self, bytes: &[u8]) -> f32 {
        self.inner.score(bytes)
    }

    fn raw_score(&self, bytes: &[u8]) -> f32 {
        self.inner.raw_score(bytes)
    }

    fn threshold(&self) -> f32 {
        self.inner.threshold()
    }

    fn classify(&self, bytes: &[u8]) -> Verdict {
        self.inner.classify(bytes)
    }

    fn score_batch(&self, items: &[&[u8]], out: &mut Vec<f32>) {
        self.inner.score_batch(items, out)
    }

    fn raw_score_batch(&self, items: &[&[u8]], out: &mut Vec<f32>) {
        self.inner.raw_score_batch(items, out)
    }

    fn has_quantized_path(&self) -> bool {
        self.inner.has_quantized_path()
    }

    fn score_quantized(&self, bytes: &[u8]) -> f32 {
        self.inner.score_quantized(bytes)
    }

    fn score_quantized_batch(&self, items: &[&[u8]], out: &mut Vec<f32>) {
        self.inner.score_quantized_batch(items, out)
    }

    fn classify_batch(&self, items: &[&[u8]], out: &mut Vec<Verdict>) {
        self.inner.classify_batch(items, out)
    }
}

impl WhiteBoxModel for TimedModel<'_> {
    fn embedding(&self) -> &Embedding {
        self.inner.embedding()
    }

    fn window(&self) -> usize {
        self.inner.window()
    }

    fn benign_loss_grad_into(&self, bytes: &[u8], ws: &mut Workspace, grad: &mut Vec<f32>) -> f32 {
        self.grad
            .time(1, || self.inner.benign_loss_grad_into(bytes, ws, grad))
    }

    fn session(&self) -> Box<dyn WhiteBoxSession + '_> {
        Box::new(TimedSession {
            inner: self.inner.session(),
            grad: &self.grad,
        })
    }
}

/// The model's own incremental session, its gradient calls timed into
/// the owning model's meter.
struct TimedSession<'a> {
    inner: Box<dyn WhiteBoxSession + 'a>,
    grad: &'a Meter,
}

impl WhiteBoxSession for TimedSession<'_> {
    fn score_delta(&mut self, bytes: &[u8], dirty: &[Range<usize>]) -> f32 {
        self.inner.score_delta(bytes, dirty)
    }

    fn loss_grad_delta(
        &mut self,
        bytes: &[u8],
        dirty: &[Range<usize>],
        grad: &mut Vec<f32>,
    ) -> f32 {
        let inner = &mut self.inner;
        self.grad
            .time(1, || inner.loss_grad_delta(bytes, dirty, grad))
    }
}

/// A daemon scoring backend seen from outside: one call per batch flush.
pub struct TimedTarget<'a> {
    inner: &'a dyn ServeTarget,
    pub flushes: Meter,
}

impl<'a> TimedTarget<'a> {
    pub fn new(inner: &'a dyn ServeTarget) -> Self {
        TimedTarget {
            inner,
            flushes: Meter::default(),
        }
    }
}

impl ServeTarget for TimedTarget<'_> {
    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    fn reload(&self) -> Result<u64, String> {
        self.inner.reload()
    }

    fn score_batch(
        &self,
        items: &[&[u8]],
    ) -> (u64, Vec<Result<ScoredVerdict, mpass_engine::OracleFault>>) {
        self.flushes
            .time(items.len() as u64, || self.inner.score_batch(items))
    }
}

/// Counts interpreter steps while forwarding every callback to `inner`.
pub struct CountingSink<S> {
    pub inner: S,
    pub steps: u64,
}

impl<S: TraceSink> TraceSink for CountingSink<S> {
    fn on_api_event(&mut self, event: ApiEvent) -> SinkControl {
        self.inner.on_api_event(event)
    }

    fn on_step(&mut self, steps: u64) {
        self.steps = steps;
        self.inner.on_step(steps);
    }

    fn on_fault(&mut self, fault: VmFault) {
        self.inner.on_fault(fault);
    }

    fn on_exhausted(&mut self, resource: Resource) {
        self.inner.on_exhausted(resource);
    }
}
