//! The per-layer metrics of the traced run. Every workload reports the
//! whole list; a layer the workload does not exercise reads 0.
//!
//! Counts and busy times are per unit operation of the workload (per
//! attacked sample, per validation wave, per score request), so runs of
//! different lengths compare directly. Set-up layers are per set-up.

use crate::stats::Metrics;

/// `(name, unit)` of every per-layer metric, in print order.
pub const LAYERS: [(&str, &str); 37] = [
    ("corpus.generate_ms", "ms"),
    ("detectors.train_ms", "ms"),
    ("core.optimize.rounds", "count"),
    ("core.optimize.busy_ms", "ms"),
    ("core.optimize.self_ms", "ms"),
    ("detectors.grad.calls", "count"),
    ("detectors.grad.busy_ms", "ms"),
    ("core.modify.calls", "count"),
    ("core.modify.busy_ms", "ms"),
    ("core.query.calls", "count"),
    ("core.query.busy_ms", "ms"),
    ("core.query.useful_share", "share"),
    ("detectors.score.calls", "count"),
    ("detectors.score.busy_ms", "ms"),
    ("detectors.score.us_per_call", "us"),
    ("core.ae_gate.busy_ms", "ms"),
    ("core.ae_gate.reject_share", "share"),
    ("baselines.self_ms", "ms"),
    ("sandbox.baseline.calls", "count"),
    ("sandbox.baseline.busy_ms", "ms"),
    ("sandbox.verify.calls", "count"),
    ("sandbox.verify.busy_ms", "ms"),
    ("pe.parse.busy_ms", "ms"),
    ("vm.steps", "count"),
    ("vm.ns_per_step", "ns"),
    ("sandbox.early_abort_share", "share"),
    ("sandbox.preserved_share", "share"),
    ("serve.parse_ms", "ms"),
    ("serve.daemon_ms_p50", "ms"),
    ("serve.outside_daemon_ms", "ms"),
    ("serve.batch_wait_ms", "ms"),
    ("engine.batch.flushes", "count"),
    ("engine.batch.size_mean", "count"),
    ("detectors.score_batch.busy_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.rejected", "count"),
    ("trace.overhead_pct", "%"),
];

/// Per-layer values, keyed by [`LAYERS`] position.
pub struct Layers([f64; LAYERS.len()]);

impl Layers {
    pub fn zeroed() -> Layers {
        Layers([0.0; LAYERS.len()])
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = LAYERS
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown layer metric {name}"));
        self.0[i] = value + 0.0; // no negative zero
    }

    pub fn into_metrics(self) -> Metrics {
        let mut m = Metrics::default();
        for ((name, unit), value) in LAYERS.iter().zip(self.0) {
            m.put(name, value, unit);
        }
        m
    }
}
