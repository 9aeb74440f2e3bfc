//! `ae-validation`: digest validation of adversarial-example candidates.
//! One unit is one original's wave: a `Sandbox::baseline_digest` of the
//! original, then `Sandbox::validate_batch` over its candidates, on one
//! thread. No detector runs.

use crate::clock::CpuTimer;
use crate::layers::Layers;
use crate::meter::{CountingSink, Meter};
use crate::stats::{self, Tally, Timed};
use crate::world::{self, Base};
use crate::{Args, RunResult};
use mpass_core::modify::{modify, ModificationConfig};
use mpass_corpus::{BenignPool, Dataset, Sample};
use mpass_sandbox::{FunctionalityVerdict, Sandbox};
use mpass_vm::{ComparingSink, Execution, Outcome};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// `modify()` outputs per wave: their recovery stubs run in the VM.
const MODIFIED: usize = 9;
/// Variants per wave built to diverge at an early API event.
const DIVERGING: usize = 3;
/// Waves validated, untimed, before the clock starts.
const WARMUP_WAVES: usize = 16;

/// One original and its candidate wave, with the full-trace reference
/// verdict of every candidate.
struct Wave {
    original: Vec<u8>,
    candidates: Vec<Vec<u8>>,
    preserved: Vec<bool>,
}

impl Wave {
    fn refs(&self) -> Vec<&[u8]> {
        self.candidates.iter().map(Vec::as_slice).collect()
    }
}

/// A variant of `sample` whose API arguments change: the first bytes of
/// its data section are rewritten, so the trace diverges as soon as the
/// program reports data it read.
fn diverging(sample: &Sample, salt: u32) -> Option<Vec<u8>> {
    let mut pe = sample.pe()?.clone();
    let data = pe.section_mut(".data")?.data_mut();
    for (j, b) in data.iter_mut().take(96).enumerate() {
        *b = (*b ^ 0xA5)
            .wrapping_add((salt as u8).wrapping_mul(31))
            .rotate_left(j as u32 % 7 + 1);
    }
    Some(pe.to_bytes())
}

/// The reference the digest path is checked against: run both inputs
/// to completion with full traces and compare the trace vectors.
fn reference_preserved(sandbox: &Sandbox, original: &Execution, candidate: &[u8]) -> bool {
    match sandbox.execute(candidate) {
        Ok(exec) => exec.completed() && exec.trace == original.trace,
        Err(_) => false,
    }
}

fn build_waves(dataset: &Dataset, pool: &BenignPool, seed: u64) -> Vec<Wave> {
    let sandbox = Sandbox::new();
    let cfg = ModificationConfig::default();
    let mut rng = ChaCha8Rng::seed_from_u64(world::mix(seed, 5));
    dataset
        .samples
        .iter()
        .enumerate()
        .map(|(n, sample)| {
            let mut candidates = Vec::new();
            while candidates.len() < MODIFIED {
                if let Ok(ms) = modify(sample, pool, &cfg, &mut rng) {
                    candidates.push(ms.bytes);
                }
            }
            for d in 0..DIVERGING {
                let salt = (n * DIVERGING + d) as u32 ^ (seed as u32);
                candidates.push(diverging(sample, salt).unwrap_or_else(|| sample.bytes.clone()));
            }
            let original = sandbox.execute(&sample.bytes).expect("originals parse");
            let preserved = candidates
                .iter()
                .map(|c| reference_preserved(&sandbox, &original, c))
                .collect();
            Wave {
                original: sample.bytes.clone(),
                candidates,
                preserved,
            }
        })
        .collect()
}

/// The verdicts and process-CPU timings of one pass over the waves.
struct Pass {
    verdicts: Vec<Vec<FunctionalityVerdict>>,
    latencies_ms: Vec<f64>,
    cpu_s: f64,
}

/// One untimed-or-timed pass over every wave.
fn pass(sandbox: &Sandbox, waves: &[Wave]) -> Pass {
    let whole = CpuTimer::process();
    let mut verdicts = Vec::with_capacity(waves.len());
    let mut latencies_ms = Vec::with_capacity(waves.len());
    for wave in waves {
        let refs = wave.refs();
        let start = CpuTimer::process();
        let baseline = sandbox
            .baseline_digest(&wave.original)
            .expect("originals parse");
        let v = sandbox.validate_batch(&baseline, &refs);
        latencies_ms.push(start.ms());
        verdicts.push(v);
    }
    Pass {
        verdicts,
        latencies_ms,
        cpu_s: whole.elapsed().as_secs_f64(),
    }
}

/// The output check: every digest verdict agrees with the full-trace
/// reference on whether behaviour is preserved.
fn check(waves: &[Wave], verdicts: &[Vec<FunctionalityVerdict>], tally: &mut Tally) {
    for (wave, v) in waves.iter().zip(verdicts) {
        let ok = v.len() == wave.preserved.len()
            && v.iter()
                .zip(&wave.preserved)
                .all(|(v, &p)| v.is_preserved() == p);
        tally.record(ok);
    }
}

pub fn run(args: &Args) -> RunResult {
    let setup = world::set_up(
        Base::Corpus,
        || world::corpus(&world::config()),
        |(dataset, pool)| build_waves(&dataset, &pool, args.seed),
    );
    let waves = &setup.inputs;
    let candidates: usize = waves.iter().map(|w| w.candidates.len()).sum();
    eprintln!("{} waves, {candidates} candidates per pass", waves.len());
    let sandbox = Sandbox::new();
    drop(pass(&sandbox, &waves[..WARMUP_WAVES.min(waves.len())]));

    if args.trace {
        return traced(args, &sandbox, waves, setup.layers());
    }

    let mut tally = Tally::default();
    let mut latencies_ms = Vec::new();
    let mut cpu_s = 0.0;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        let p = pass(&sandbox, waves);
        check(waves, &p.verdicts, &mut tally);
        latencies_ms.extend(p.latencies_ms);
        cpu_s += p.cpu_s;
    }
    let timed = Timed {
        tally,
        seconds: cpu_s,
        latencies_ms: &latencies_ms,
        setups_s: &setup.seconds,
    };
    let (mut metrics, latency) = match stats::end_to_end(&timed, stats::peak_rss_mb()) {
        Ok(m) => m,
        Err(e) => return RunResult::failed(tally, e),
    };
    let preserved = waves
        .iter()
        .flat_map(|w| &w.preserved)
        .filter(|&&p| p)
        .count();
    // No detector runs here: the attack-quality pair reads as the share
    // of candidates that survive validation, and the sandbox runs (one
    // baseline plus one per candidate) each original costs.
    metrics.put(
        "evasion_rate",
        stats::smoothed_share(preserved as f64, candidates as f64),
        "share",
    );
    metrics.put(
        "queries_per_sample",
        (candidates + waves.len()) as f64 / waves.len() as f64,
        "count",
    );
    RunResult::ok(tally, metrics, Some(latency))
}

/// The traced run: an untraced pass, then a traced pass timing each
/// layer call from outside; verdicts must be identical.
fn traced(args: &Args, sandbox: &Sandbox, waves: &[Wave], mut m: Layers) -> RunResult {
    let baseline_m = Meter::default();
    let verify_m = Meter::default();
    let parse_m = Meter::default();
    let (mut steps, mut preserved_steps, mut preserved_ns) = (0u64, 0u64, 0.0f64);
    let (mut aborted, mut preserved, mut candidates) = (0u64, 0u64, 0u64);
    let (mut untraced_ms, mut traced_ms) = (0.0, 0.0);
    let mut tally = Tally::default();
    let mut mismatches = 0u64;
    let mut passes = 0;
    let start = Instant::now();
    while passes == 0 || start.elapsed().as_secs_f64() < args.seconds {
        passes += 1;
        let Pass {
            verdicts: reference,
            latencies_ms,
            ..
        } = pass(sandbox, waves);
        check(waves, &reference, &mut tally);
        untraced_ms += latencies_ms.iter().sum::<f64>();
        let mut verdicts = Vec::with_capacity(waves.len());
        for wave in waves {
            let t = CpuTimer::thread();
            let baseline = sandbox
                .baseline_digest(&wave.original)
                .expect("originals parse");
            let elapsed = t.elapsed();
            baseline_m.add(1, elapsed);
            traced_ms += elapsed.as_secs_f64() * 1e3;
            parse_m.time(1, || mpass_pe::PeFile::parse(&wave.original).is_ok());
            let mut v = Vec::with_capacity(wave.candidates.len());
            for c in &wave.candidates {
                let t = CpuTimer::thread();
                let verdict = sandbox.verify_candidate(&baseline, c);
                let verify = t.elapsed();
                verify_m.add(1, verify);
                traced_ms += verify.as_secs_f64() * 1e3;
                let t = CpuTimer::thread();
                std::hint::black_box(mpass_pe::PeFile::parse(c).is_ok());
                let parse = t.elapsed();
                parse_m.add(1, parse);
                let mut sink = CountingSink {
                    inner: ComparingSink::new(baseline.reference()),
                    steps: 0,
                };
                let run = sandbox.execute_with_sink(c, &mut sink);
                candidates += 1;
                steps += sink.steps;
                if matches!(run, Ok(ref r) if r.outcome == Outcome::Aborted) {
                    aborted += 1;
                }
                if verdict.is_preserved() {
                    preserved += 1;
                    preserved_steps += sink.steps;
                    preserved_ns += verify.saturating_sub(parse).as_nanos() as f64;
                }
                v.push(verdict);
            }
            verdicts.push(v);
        }
        mismatches += reference
            .iter()
            .zip(&verdicts)
            .filter(|(a, b)| a != b)
            .count() as u64;
        check(waves, &verdicts, &mut tally);
    }
    tally.failed += mismatches.min(tally.succeeded());
    let units = (passes * waves.len()) as f64;
    m.set("sandbox.baseline.calls", baseline_m.calls() as f64 / units);
    m.set("sandbox.baseline.busy_ms", baseline_m.busy_ms() / units);
    m.set("sandbox.verify.calls", verify_m.calls() as f64 / units);
    m.set("sandbox.verify.busy_ms", verify_m.busy_ms() / units);
    m.set("pe.parse.busy_ms", parse_m.busy_ms() / units);
    m.set("vm.steps", steps as f64 / units);
    m.set(
        "vm.ns_per_step",
        preserved_ns / preserved_steps.max(1) as f64,
    );
    m.set(
        "sandbox.early_abort_share",
        aborted as f64 / candidates.max(1) as f64,
    );
    m.set(
        "sandbox.preserved_share",
        preserved as f64 / candidates.max(1) as f64,
    );
    let overhead = traced_ms / untraced_ms - 1.0;
    m.set("trace.overhead_pct", overhead * 100.0);
    println!(
        "trace: {passes} untraced and {passes} traced passes of {} waves",
        waves.len()
    );
    println!("trace: wave verdicts differing from the untraced pass: {mismatches}");
    println!(
        "trace: tracing overhead {:.2}% of untraced validation time",
        overhead * 100.0
    );
    RunResult::traced(tally, m.into_metrics(), mismatches == 0)
}
