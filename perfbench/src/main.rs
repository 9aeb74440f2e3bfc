//! The MPass benchmark: one workload per process.
//!
//! ```text
//! mpass-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics of a traced run.
//! See `README.md` next to this crate for the workloads and metrics.

mod attack;
mod clock;
mod layers;
mod meter;
mod serve;
mod stats;
mod validation;
mod world;

use stats::{Latency, Metrics, Tally};
use std::process::ExitCode;

pub const WORKLOADS: [&str; 4] = [
    "mpass-transfer",
    "blackbox-query",
    "ae-validation",
    "serve-closedloop",
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What a workload hands back for printing.
pub struct RunResult {
    pub tally: Tally,
    pub metrics: Metrics,
    /// Set when the run checked its outputs and they were all right.
    pub correct: bool,
    pub latency: Option<Latency>,
    pub error: Option<String>,
}

impl RunResult {
    pub fn ok(tally: Tally, metrics: Metrics, latency: Option<Latency>) -> RunResult {
        RunResult {
            correct: tally.failed == 0,
            tally,
            metrics,
            latency,
            error: None,
        }
    }

    /// A traced run is correct when its outputs passed their checks and
    /// matched the untraced run's.
    pub fn traced(tally: Tally, metrics: Metrics, matches_untraced: bool) -> RunResult {
        let correct = tally.failed == 0 && tally.succeeded() > 0 && matches_untraced;
        RunResult {
            correct,
            tally,
            metrics,
            latency: None,
            error: None,
        }
    }

    pub fn failed(tally: Tally, error: String) -> RunResult {
        RunResult {
            correct: false,
            tally,
            metrics: Metrics::default(),
            latency: None,
            error: Some(error),
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: mpass-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "mpass-transfer" => attack::run(attack::Method::Transfer, &args),
        "blackbox-query" => attack::run(attack::Method::Blackbox, &args),
        "ae-validation" => validation::run(&args),
        _ => serve::run(&args),
    };
    if let Some(lat) = result.latency {
        println!(
            "latency: p50 {:.3} ms, tail p{} {:.3} ms over {} samples",
            lat.p50, lat.tail_pct, lat.tail, lat.samples
        );
    }
    println!(
        "operations: attempted {} succeeded {} failed {}",
        result.tally.attempted,
        result.tally.succeeded(),
        result.tally.failed
    );
    if let Some(e) = &result.error {
        eprintln!("error: {e}");
    }
    println!(
        "{}",
        stats::result_line(result.correct, result.tally, &result.metrics)
    );
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
