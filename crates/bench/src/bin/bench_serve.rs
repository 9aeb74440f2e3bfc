//! Emit batched-vs-sequential scoring throughput and daemon load
//! measurements to `results/BENCH_serve.json`.
//!
//! The batch-first detector API (`Detector::classify_batch`) promises
//! throughput, not new numerics — scores are bit-identical to a
//! sequential loop by contract. This binary quantifies the throughput
//! side: for each roster detector it classifies the full bench corpus
//! once through a sequential `classify` loop and once through one
//! `classify_batch` call, and reports microseconds per item and the
//! resulting speedup. Detector configs are the *default* (paper-shaped)
//! sizes, not the tiny test configs: batched serving earns its keep on
//! the 16 KiB-window models where most conv windows of a typical sample
//! lie in the padding region and the batched path replicates them
//! instead of recomputing them.
//!
//! On top of the in-process numbers, two daemon scenarios drive the
//! `mpass-serve` Unix-socket daemon end to end (real sockets, real
//! client threads, the trained MalConv behind the batch scheduler):
//!
//! * `daemon-sustained` — concurrent clients inside capacity; reports
//!   throughput and p50/p99 of delivered verdicts,
//! * `daemon-overload` — more clients than a deliberately tiny queue
//!   can hold; reports how much was shed (typed refusals, no waiting)
//!   and that the p99 of *admitted* requests stays bounded.
//!
//! A third tier times the inference kernels — conv forward at the default
//! and at the quick world's narrow MalConv shape, and GBDT predict — each
//! against the reference path it replaced, in the same process. Detector
//! and kernel rows are [`PairRow`]s in tables `batched` and `kernel`; the
//! daemon scenarios are reported, not gated.
//!
//! Usage (see [`mpass_bench::Cli`]):
//!
//! * `bench_serve` — measure and write `results/BENCH_serve.json`,
//! * `--quick` — fewer repetitions (CI smoke; kernel reps stay high),
//! * `--out PATH` — alternative output path,
//! * `--gate PATH` — fail (exit 1) if any speedup ratio regressed >20%
//!   against the report at PATH ([`mpass_bench::check_gate`]).

use mpass_bench::{bench_corpus, Cli, PairRow};
use mpass_detectors::train::{training_pairs, TrainingSet};
use mpass_detectors::{ByteConvConfig, Detector, LightGbm, MalConv, MalGcg, MalGcgConfig};
use mpass_ml::{Conv1d, Gbdt, GbdtParams};
use mpass_serve::{ReloadableModel, Response, ServeClient, Server, ServerConfig, TenantPolicy};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::sync::Arc;
use std::time::Duration;

/// One end-to-end daemon load scenario.
#[derive(Serialize)]
struct DaemonMeasurement {
    /// Scenario tag (`daemon-sustained`, `daemon-overload`).
    scenario: String,
    /// Concurrent client connections.
    clients: usize,
    /// Requests sent across all clients.
    requests: u64,
    /// Requests past admission (all of them, under permissive tenants).
    admitted: u64,
    /// Admitted requests shed by the bounded queue or their deadline.
    shed: u64,
    /// Admitted requests that returned a verdict.
    completed: u64,
    /// Delivered verdicts per second over the daemon's lifetime.
    throughput_rps: f64,
    /// Latency percentiles of *completed* requests, milliseconds.
    p50_ms: f64,
    p99_ms: f64,
}

/// The on-disk report consumed by the README throughput table.
#[derive(Serialize)]
struct ServeReport {
    /// Fixture description (seeds are fixed inside the binary).
    fixture: String,
    /// Gated rows: per-detector batched speedups, then kernel ratios.
    rows: Vec<PairRow>,
    /// End-to-end daemon scenarios (`mpass-serve` over Unix sockets).
    daemon: Vec<DaemonMeasurement>,
}

const FIXTURE_DESC: &str = "corpus seed 0xBE7C4 (12+12), default detector configs, \
     train seed 1, classify over all 24 samples per pass";

fn measure_detector(name: &str, det: &dyn Detector, items: &[&[u8]], reps: usize) -> PairRow {
    let mut out = Vec::with_capacity(items.len());
    let row = PairRow::measure(
        "batched",
        name,
        "sequential Detector::classify loop",
        items.len(),
        reps,
        || {
            for bytes in items {
                std::hint::black_box(det.classify(std::hint::black_box(bytes)));
            }
        },
        || {
            out.clear();
            det.classify_batch(std::hint::black_box(items), &mut out);
            std::hint::black_box(&out);
        },
    );
    // The contract behind the speedup claim: identical verdicts.
    let seq_verdicts: Vec<_> = items.iter().map(|b| det.classify(b)).collect();
    assert_eq!(out, seq_verdicts, "{name}: classify_batch diverged from classify");
    row
}

fn measure(reps: usize) -> (Vec<PairRow>, MalConv, Vec<Vec<u8>>) {
    let ds = bench_corpus();
    let samples: Vec<_> = ds.samples.iter().collect();
    let pairs = training_pairs(&samples);
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let mut malconv = MalConv::new(ByteConvConfig::default(), &mut rng);
    malconv.train(&pairs, 2, 5e-3, &mut rng);
    let mut nonneg = MalConv::nonneg(ByteConvConfig::default(), &mut rng);
    nonneg.train(&pairs, 2, 5e-3, &mut rng);
    let mut malgcg = MalGcg::new(MalGcgConfig::default(), &mut rng);
    malgcg.train(&pairs, 2, 5e-3, &mut rng);
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let lightgbm = LightGbm::train(&TrainingSet::new(&samples), GbdtParams::default(), &mut rng);

    let items: Vec<&[u8]> = ds.samples.iter().map(|s| s.bytes.as_slice()).collect();
    let roster: [(&str, &dyn Detector); 4] = [
        ("MalConv", &malconv),
        ("NonNeg", &nonneg),
        ("MalGCG", &malgcg),
        ("LightGBM", &lightgbm),
    ];
    let rows: Vec<PairRow> =
        roster.iter().map(|(name, det)| measure_detector(name, *det, &items, reps)).collect();
    let payloads: Vec<Vec<u8>> = ds.samples.iter().map(|s| s.bytes.clone()).collect();
    (rows, malconv, payloads)
}

/// Deterministic pseudo-weights/activations: no rng, identical across
/// machines, dense enough that nothing folds to a constant.
fn ramp(n: usize, phase: f32) -> Vec<f32> {
    (0..n).map(|i| ((i as f32 + phase) * 0.137).sin() * 0.5).collect()
}

/// Micro-benchmark the inference kernels, each against the reference
/// path it replaced. Kernel passes are cheap, so repetitions stay high
/// even under `--quick` — the gate needs stable ratios more than the
/// detector tier does.
fn measure_kernels(reps: usize) -> Vec<PairRow> {
    let reps = reps.max(50);

    // MalConv-shaped convolutions, one pass = 64 windows: the default
    // 8 -> 16 channels at kernel 256 (a 16 KiB window's worth at stride
    // 256), and the quick world's 4 -> 8 channels at kernel 64, where the
    // output row is a single lane group.
    let conv_row = measure_conv(reps, "conv-forward", 8, 16, 256);
    let narrow_row = measure_conv(reps, "conv-forward-narrow", 4, 8, 64);

    // GBDT predict: the arena walk versus the pointer-chasing tree walk,
    // over 64 feature vectors per pass.
    let feats: Vec<Vec<f32>> = (0..64).map(|i| ramp(32, i as f32)).collect();
    let labels: Vec<f32> = (0..64).map(|i| (i % 2) as f32).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let gbdt = Gbdt::train(&feats, &labels, GbdtParams::default(), &mut rng);
    let walk = TreeWalk::new(&gbdt);
    for f in &feats {
        assert_eq!(
            gbdt.logit(f).to_bits(),
            walk.logit(f).to_bits(),
            "the GBDT arena diverged from the tree walk"
        );
    }
    let gbdt_row = PairRow::measure(
        "kernel",
        "gbdt-predict",
        "pointer-chasing tree walk over Gbdt::columns",
        feats.len(),
        reps,
        || {
            for f in &feats {
                std::hint::black_box(walk.logit(std::hint::black_box(f)));
            }
        },
        || {
            for f in &feats {
                std::hint::black_box(gbdt.logit(std::hint::black_box(f)));
            }
        },
    );

    vec![conv_row, narrow_row, gbdt_row]
}

/// One node of [`TreeWalk`]: the enum node form the arena replaced, with
/// tree-local child indices.
enum TreeNode {
    Split { feature: usize, threshold: f32, left: usize, right: usize },
    Leaf { value: f32 },
}

/// The pointer-form ensemble the `gbdt-predict` row times the arena
/// against: `base` plus one node `Vec` per tree, rebuilt from
/// [`Gbdt::columns`], summed in tree order like [`Gbdt::logit`].
struct TreeWalk {
    base: f32,
    trees: Vec<Vec<TreeNode>>,
}

impl TreeWalk {
    fn new(gbdt: &Gbdt) -> TreeWalk {
        let (roots, feature, value, left, right) = gbdt.columns();
        let n = feature.len();
        let trees = roots
            .iter()
            .enumerate()
            .map(|(t, &root)| {
                let end = roots.get(t + 1).map_or(n, |&r| r as usize);
                (root as usize..end)
                    .map(|at| match feature[at] {
                        // The columns' leaf sentinel.
                        u32::MAX => TreeNode::Leaf { value: value[at] },
                        f => TreeNode::Split {
                            feature: f as usize,
                            threshold: value[at],
                            left: (left[at] - root) as usize,
                            right: (right[at] - root) as usize,
                        },
                    })
                    .collect()
            })
            .collect();
        TreeWalk { base: gbdt.base(), trees }
    }

    fn logit(&self, x: &[f32]) -> f32 {
        self.base + self.trees.iter().map(|t| TreeWalk::predict(t, x)).sum::<f32>()
    }

    fn predict(nodes: &[TreeNode], x: &[f32]) -> f32 {
        let mut at = 0;
        loop {
            match nodes[at] {
                TreeNode::Leaf { value } => return value,
                TreeNode::Split { feature, threshold, left, right } => {
                    at = if x.get(feature).copied().unwrap_or(0.0) <= threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }
}

/// One conv-forward kernel row: the register-blocked transposed window
/// kernel against the scalar reference over 64 non-overlapping windows of
/// a `dim -> filters` convolution of width `kernel`.
fn measure_conv(reps: usize, name: &str, dim: usize, filters: usize, kernel: usize) -> PairRow {
    let windows = 64;
    let conv = Conv1d::from_weights(
        dim,
        filters,
        kernel,
        kernel,
        ramp(filters * kernel * dim, 0.3),
        ramp(filters, 0.7),
    );
    let x = ramp(windows * kernel * dim, 1.1);
    let mut opt_row = vec![0.0f32; filters];
    let mut ref_row = vec![0.0f32; filters];
    PairRow::measure(
        "kernel",
        name,
        "scalar Conv1d::forward_window_into",
        windows,
        reps,
        || {
            for w in 0..windows {
                conv.forward_window_into(&x, w, &mut ref_row);
                std::hint::black_box(&ref_row);
            }
        },
        || {
            // The batch paths hoist the transpose once per batch; one pass
            // here is one 64-window batch, so the copy pays its real share.
            let xp = conv.transposed();
            for w in 0..windows {
                xp.forward_window_into(&x, w, &mut opt_row);
                std::hint::black_box(&opt_row);
            }
        },
    )
}

/// Run one daemon scenario: boot `mpass-serve` over `model`, hammer it
/// from `clients` connections sending `per_client` requests each, drain
/// gracefully, and report the summary.
fn measure_daemon(
    scenario: &str,
    model: &ReloadableModel,
    payloads: &[Vec<u8>],
    clients: usize,
    per_client: u64,
    config: ServerConfig,
) -> DaemonMeasurement {
    let socket = config.socket.clone();
    let server = Server::new(model, config);
    let summary = std::thread::scope(|scope| {
        let server = &server;
        let daemon = scope.spawn(move || server.run());
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let socket = socket.clone();
                scope.spawn(move || {
                    let mut client = ServeClient::connect_retry(&socket, Duration::from_secs(60))
                        .expect("daemon boots");
                    for r in 0..per_client {
                        let payload =
                            &payloads[(c as u64 * per_client + r) as usize % payloads.len()];
                        match client.score(r, &format!("bench-{c}"), payload, None) {
                            // Verdicts and typed refusals both count as
                            // answered; anything else is a harness bug.
                            Ok(Response::Score(_) | Response::Error(_)) => {}
                            Ok(other) => panic!("unexpected response {other:?}"),
                            Err(e) => panic!("daemon stopped answering: {e}"),
                        }
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("client thread panicked");
        }
        let mut control =
            ServeClient::connect_retry(&socket, Duration::from_secs(60)).expect("control connects");
        control.shutdown(0).expect("shutdown acknowledged");
        daemon.join().expect("daemon thread panicked").expect("daemon ran")
    });
    DaemonMeasurement {
        scenario: scenario.to_owned(),
        clients,
        requests: clients as u64 * per_client,
        admitted: summary.admitted,
        shed: summary.shed,
        completed: summary.completed,
        throughput_rps: summary.throughput_rps,
        p50_ms: summary.p50_ms,
        p99_ms: summary.p99_ms,
    }
}

fn measure_daemons(quick: bool, malconv: MalConv, payloads: Vec<Vec<u8>>) -> Vec<DaemonMeasurement> {
    let model =
        ReloadableModel::new(Arc::new(malconv), |_| Err("bench model is static".to_owned()));
    // Admission limits out of the way: these scenarios probe the queue
    // and the scheduler, not the tenant policy.
    let tenant = TenantPolicy {
        rate_per_sec: 1_000_000.0,
        burst: 100_000,
        budget: None,
        breaker_threshold: 0,
        ..TenantPolicy::default()
    };
    let pid = std::process::id();
    let sustained = measure_daemon(
        "daemon-sustained",
        &model,
        &payloads,
        4,
        if quick { 15 } else { 100 },
        ServerConfig {
            socket: std::env::temp_dir().join(format!("mpass-bench-sustained-{pid}.sock")),
            max_batch: 8,
            linger: Duration::from_millis(1),
            queue_capacity: 1_024,
            default_deadline: Duration::from_secs(30),
            tenant: tenant.clone(),
            ..ServerConfig::default()
        },
    );
    let overload = measure_daemon(
        "daemon-overload",
        &model,
        &payloads,
        8,
        if quick { 10 } else { 40 },
        ServerConfig {
            socket: std::env::temp_dir().join(format!("mpass-bench-overload-{pid}.sock")),
            max_batch: 4,
            linger: Duration::from_millis(1),
            queue_capacity: 2,
            default_deadline: Duration::from_millis(50),
            tenant,
            ..ServerConfig::default()
        },
    );
    vec![sustained, overload]
}

fn main() {
    let cli = Cli::parse("results/BENCH_serve.json");
    let reps = if cli.quick { 3 } else { 15 };

    let (mut rows, malconv, payloads) = measure(reps);
    rows.extend(measure_kernels(reps));
    let daemon = measure_daemons(cli.quick, malconv, payloads);
    for d in &daemon {
        eprintln!(
            "{:<17} clients {:>2}  requests {:>4}  completed {:>4}  shed {:>4}  \
             {:>7.1} req/s  p50 {:>6.2} ms  p99 {:>6.2} ms",
            d.scenario, d.clients, d.requests, d.completed, d.shed, d.throughput_rps, d.p50_ms,
            d.p99_ms
        );
    }

    let report = ServeReport { fixture: FIXTURE_DESC.to_owned(), rows, daemon };
    cli.finish(&report, &report.rows);
}
