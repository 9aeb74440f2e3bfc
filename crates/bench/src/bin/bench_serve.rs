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
//! A third tier times the inference kernels themselves — conv forward,
//! linear forward, embedding lookup and GBDT predict — each as
//! optimized-vs-scalar-reference *within one process*, so the reported
//! speedup is a machine-independent ratio.
//! `--gate PATH` compares those ratios (and the detector speedups)
//! against a committed report and fails if any regresses more than 20%
//! relative: the per-kernel regression gate CI runs on every push.
//!
//! Usage:
//!
//! * `bench_serve` — measure and write `results/BENCH_serve.json`,
//! * `--quick` — fewer repetitions (CI smoke; kernel reps stay high),
//! * `--out PATH` — alternative output path,
//! * `--gate PATH` — fail (exit 1) if any speedup ratio regressed >20%
//!   against the report at PATH.

use mpass_bench::{bench_fixture, check_gate, time_pair_us, GateRow, GatedReport};
use mpass_detectors::train::training_pairs;
use mpass_detectors::{
    ByteConvConfig, Detector, LightGbm, MalConv, MalGcg, MalGcgConfig, NonNeg,
};
use mpass_ml::{Conv1d, Embedding, Gbdt, GbdtParams, Linear};
use mpass_serve::{ReloadableModel, Response, ServeClient, Server, ServerConfig, TenantPolicy};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;

/// Batched-vs-sequential classify cost for one detector.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ServeMeasurement {
    /// Detector name.
    name: String,
    /// Items per pass (the whole bench corpus).
    items: usize,
    /// Sequential `classify` loop, microseconds per item.
    sequential_us_per_item: f64,
    /// One `classify_batch` call, microseconds per item.
    batched_us_per_item: f64,
    /// `sequential / batched` (higher means batching pays).
    speedup: f64,
}

/// One end-to-end daemon load scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
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

/// One inference-kernel micro-benchmark: the optimized path against the
/// scalar reference it replaced, timed in the same process. The
/// regression gate compares `speedup` — a ratio of two same-machine
/// timings — rather than wall-clock, so it survives hardware variance.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct KernelMeasurement {
    /// Kernel tag (`conv-forward`, `linear-forward`, ...).
    kernel: String,
    /// What the optimized path is measured against.
    reference: String,
    /// Optimized path, microseconds per pass.
    optimized_us: f64,
    /// Scalar reference, microseconds per pass.
    reference_us: f64,
    /// `reference / optimized` (higher means the kernel pays).
    speedup: f64,
}

/// The on-disk report consumed by the README throughput table.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ServeReport {
    /// Fixture description (seeds are fixed inside the binary).
    fixture: String,
    measurements: Vec<ServeMeasurement>,
    /// Per-kernel optimized-vs-scalar ratios (the gated rows).
    kernels: Vec<KernelMeasurement>,
    /// End-to-end daemon scenarios (`mpass-serve` over Unix sockets).
    daemon: Vec<DaemonMeasurement>,
}

const FIXTURE_DESC: &str = "corpus seed 0xBE7C4 (12+12), default detector configs, \
     train seed 1, classify over all 24 samples per pass";

fn measure_detector(name: &str, det: &dyn Detector, items: &[&[u8]], reps: usize) -> ServeMeasurement {
    let mut out = Vec::with_capacity(items.len());
    let (sequential, batched) = time_pair_us(
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
    let n = items.len() as f64;
    ServeMeasurement {
        name: name.to_owned(),
        items: items.len(),
        sequential_us_per_item: sequential / n,
        batched_us_per_item: batched / n,
        speedup: sequential / batched,
    }
}

fn measure(reps: usize) -> (Vec<ServeMeasurement>, MalConv, Vec<Vec<u8>>) {
    let (ds, _pool) = bench_fixture();
    let samples: Vec<_> = ds.samples.iter().collect();
    let pairs = training_pairs(&samples);
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let mut malconv = MalConv::new(ByteConvConfig::default(), &mut rng);
    malconv.train(&pairs, 2, 5e-3, &mut rng);
    let mut nonneg = NonNeg::new(ByteConvConfig::default(), &mut rng);
    nonneg.train(&pairs, 2, 5e-3, &mut rng);
    let mut malgcg = MalGcg::new(MalGcgConfig::default(), &mut rng);
    malgcg.train(&pairs, 2, 5e-3, &mut rng);
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let lightgbm = LightGbm::train(&samples, GbdtParams::default(), &mut rng);

    let items: Vec<&[u8]> = ds.samples.iter().map(|s| s.bytes.as_slice()).collect();
    let roster: [(&str, &dyn Detector); 4] = [
        ("MalConv", &malconv),
        ("NonNeg", &nonneg),
        ("MalGCG", &malgcg),
        ("LightGBM", &lightgbm),
    ];
    let rows: Vec<ServeMeasurement> =
        roster.iter().map(|(name, det)| measure_detector(name, *det, &items, reps)).collect();
    let payloads: Vec<Vec<u8>> = ds.samples.iter().map(|s| s.bytes.clone()).collect();
    (rows, malconv, payloads)
}

/// One optimized-vs-reference kernel row, timed as interleaved
/// min-of-reps pairs ([`time_pair_us`]).
fn ratio_row(
    kernel: &str,
    reference: &str,
    reps: usize,
    optimized: impl FnMut(),
    reference_pass: impl FnMut(),
) -> KernelMeasurement {
    let (ref_us, opt_us) = time_pair_us(reps, reference_pass, optimized);
    KernelMeasurement {
        kernel: kernel.to_owned(),
        reference: reference.to_owned(),
        optimized_us: opt_us,
        reference_us: ref_us,
        speedup: ref_us / opt_us,
    }
}

/// Deterministic pseudo-weights/activations: no rng, identical across
/// machines, dense enough that nothing folds to a constant.
fn ramp(n: usize, phase: f32) -> Vec<f32> {
    (0..n).map(|i| ((i as f32 + phase) * 0.137).sin() * 0.5).collect()
}

/// Micro-benchmark the inference kernels, each against the scalar
/// reference it replaced. Kernel passes are cheap, so repetitions stay
/// high even under `--quick` — the gate needs stable ratios more than
/// the detector tier does.
fn measure_kernels(reps: usize) -> Vec<KernelMeasurement> {
    let reps = reps.max(50);
    let mut rows = Vec::new();

    // MalConv-shaped convolution: 8 -> 16 channels, kernel 256, one pass
    // = 64 windows (a 16 KiB window's worth at stride 256).
    let (dim, filters, kernel, windows) = (8usize, 16usize, 256usize, 64usize);
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
    rows.push(ratio_row(
        "conv-forward",
        "scalar Conv1d::forward_window_into",
        reps,
        || {
            // The batch paths hoist the transpose once per batch; one pass
            // here is one 64-window batch, so the copy pays its real share.
            let xp = conv.transposed();
            for w in 0..windows {
                xp.forward_window_into(&x, w, &mut opt_row);
                std::hint::black_box(&opt_row);
            }
        },
        || {
            for w in 0..windows {
                conv.forward_window_into(&x, w, &mut ref_row);
                std::hint::black_box(&ref_row);
            }
        },
    ));

    // A dense layer big enough to time: 256 -> 256, 16 calls per pass.
    let (in_dim, out_dim, calls) = (256usize, 256usize, 16usize);
    let lin = Linear::from_weights(
        in_dim,
        out_dim,
        ramp(out_dim * in_dim, 0.9),
        ramp(out_dim, 0.2),
    );
    let lx = ramp(in_dim, 2.3);
    let mut y = vec![0.0f32; out_dim];
    rows.push(ratio_row(
        "linear-forward",
        "scalar allocating Linear::forward",
        reps,
        || {
            let wt = lin.weight_xposed();
            for _ in 0..calls {
                lin.forward_xposed_into(&wt, std::hint::black_box(&lx), &mut y);
                std::hint::black_box(&y);
            }
        },
        || {
            for _ in 0..calls {
                std::hint::black_box(lin.forward(std::hint::black_box(&lx)));
            }
        },
    ));

    // Token embedding lookup over a 16 KiB stream: reused scratch buffer
    // versus the allocating `Embedding::forward`.
    let emb = Embedding::from_weights(257, dim, ramp(257 * dim, 3.1));
    let tokens: Vec<usize> = (0..16 * 1024).map(|i| (i * 31) % 256 + 1).collect();
    let mut ex = vec![0.0f32; tokens.len() * dim];
    rows.push(ratio_row(
        "embedding-lookup",
        "allocating Embedding::forward",
        reps,
        || {
            // Batch-path idiom: one buffer reused across every item.
            for (chunk, &t) in ex.chunks_exact_mut(dim).zip(&tokens) {
                chunk.copy_from_slice(emb.vector(t));
            }
            std::hint::black_box(&ex);
        },
        || {
            std::hint::black_box(emb.forward(std::hint::black_box(&tokens)));
        },
    ));

    // GBDT predict: flattened node-array traversal versus the
    // pointer-chasing tree walk, over 64 feature vectors per pass.
    let feats: Vec<Vec<f32>> = (0..64).map(|i| ramp(32, i as f32)).collect();
    let labels: Vec<f32> = (0..64).map(|i| (i % 2) as f32).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let gbdt = Gbdt::train(&feats, &labels, GbdtParams::default(), &mut rng);
    for f in &feats {
        // Warm the cached flat forest and hold the exact-equality contract.
        assert_eq!(
            gbdt.logit(f).to_bits(),
            gbdt.logit_treewalk(f).to_bits(),
            "flattened GBDT diverged from the tree walk"
        );
    }
    rows.push(ratio_row(
        "gbdt-predict",
        "pointer-chasing Gbdt::logit_treewalk",
        reps,
        || {
            for f in &feats {
                std::hint::black_box(gbdt.logit(std::hint::black_box(f)));
            }
        },
        || {
            for f in &feats {
                std::hint::black_box(gbdt.logit_treewalk(std::hint::black_box(f)));
            }
        },
    ));

    rows
}

/// Gated rows: every detector's batched speedup and every kernel's
/// optimized-vs-reference ratio, compared by [`mpass_bench::check_gate`].
impl GatedReport for ServeReport {
    fn gate_rows(&self) -> Vec<GateRow> {
        let detectors = self.measurements.iter().map(|m| GateRow {
            what: "batched",
            name: m.name.clone(),
            speedup: m.speedup,
        });
        let kernels = self.kernels.iter().map(|k| GateRow {
            what: "kernel",
            name: k.kernel.clone(),
            speedup: k.speedup,
        });
        detectors.chain(kernels).collect()
    }
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("results/BENCH_serve.json")
        .to_owned();
    let gate = args
        .iter()
        .position(|a| a == "--gate")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let reps = if quick { 3 } else { 15 };

    let (measurements, malconv, payloads) = measure(reps);
    for m in &measurements {
        eprintln!(
            "{:<13} sequential {:>8.1} us/item  batched {:>8.1} us/item  speedup {:.2}x",
            m.name, m.sequential_us_per_item, m.batched_us_per_item, m.speedup
        );
    }
    let kernels = measure_kernels(reps);
    for k in &kernels {
        eprintln!(
            "{:<20} optimized {:>8.1} us/pass  reference {:>8.1} us/pass  speedup {:.2}x",
            k.kernel, k.optimized_us, k.reference_us, k.speedup
        );
    }
    let daemon = measure_daemons(quick, malconv, payloads);
    for d in &daemon {
        eprintln!(
            "{:<17} clients {:>2}  requests {:>4}  completed {:>4}  shed {:>4}  \
             {:>7.1} req/s  p50 {:>6.2} ms  p99 {:>6.2} ms",
            d.scenario, d.clients, d.requests, d.completed, d.shed, d.throughput_rps, d.p50_ms,
            d.p99_ms
        );
    }

    let report = ServeReport { fixture: FIXTURE_DESC.to_owned(), measurements, kernels, daemon };
    if let Some(parent) = std::path::Path::new(&out).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, json + "\n").unwrap_or_else(|e| {
        eprintln!("could not write {out}: {e}");
        std::process::exit(1);
    });
    println!("wrote {out}");

    if let Some(baseline) = gate {
        match check_gate(&report, &baseline) {
            Ok(checked) => println!("gate vs {baseline}: {checked} rows within 20% of baseline"),
            Err(failures) => {
                for f in &failures {
                    eprintln!("GATE FAIL {f}");
                }
                std::process::exit(1);
            }
        }
    }
}
