//! JSON result persistence for EXPERIMENTS.md bookkeeping.

use serde::Serialize;
use std::io;
use std::path::{Path, PathBuf};

/// Directory results are written to (workspace-relative).
pub const RESULTS_DIR: &str = "results";

/// Write a serialized report into `results/<name>.json`, creating the
/// directory if needed. Returns the written path.
fn save_report(name: &str, json: &str) -> io::Result<PathBuf> {
    let dir = Path::new(RESULTS_DIR);
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, json)?;
    Ok(path)
}

/// Write `json` to `results/<name>.json`, and `metrics` (if any) next to
/// it at `results/<name>.metrics.json`, reporting both paths on stdout. A
/// failed write is reported on stderr, not fatal: the tables are already
/// printed.
pub fn publish(name: &str, json: &str, metrics: Option<&mpass_engine::MetricsFile>) {
    let path = match save_report(name, json) {
        Ok(path) => path,
        Err(e) => {
            eprintln!("could not write results: {e}");
            return;
        }
    };
    println!("results written to {}", path.display());
    if let Some(metrics) = metrics {
        let path = mpass_engine::metrics_path(&path);
        match metrics.save(&path) {
            Ok(()) => println!("metrics  -> {}", path.display()),
            Err(e) => eprintln!("could not save metrics {}: {e}", path.display()),
        }
    }
}

/// Pretty JSON of a result struct, the form of every `results/*.json`.
pub fn to_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("results serialize")
}

/// The flags only the campaign binaries accept: they are parsed by
/// [`crate::orchestrator::campaign_main`] and refused by [`CliArgs::parse`].
pub const CAMPAIGN_FLAGS: [&str; 3] = ["--faults", "--resume", "--processes"];

/// The value following `flag` in `args`, if the flag is present.
///
/// # Errors
///
/// A flag without a value, or with one that does not parse as `T`; the
/// message names the flag.
pub fn flag_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else { return Ok(None) };
    let value = args.get(i + 1).ok_or_else(|| format!("{flag} needs a value"))?;
    value.parse().map(Some).map_err(|_| format!("{flag}: cannot parse {value:?}"))
}

/// Print `error: <message>` and exit with status 2, the usage-error code
/// of every experiment binary.
pub fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

/// The `--quick` / `--samples N` / `--workers N` flags shared by every
/// experiment binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CliArgs {
    /// Use the down-scaled world.
    pub quick: bool,
    /// Override for the number of attacked samples.
    pub samples: Option<usize>,
    /// Engine worker threads (`None`/0 = one per shard up to the core
    /// count).
    pub workers: Option<usize>,
}

impl CliArgs {
    /// Parse from `std::env::args`. A [`CAMPAIGN_FLAGS`] flag, one of the
    /// shared flags in `ignored` (those the binary does not honour), or a
    /// malformed value is a [`usage_error`], raised before any world is
    /// built.
    pub fn parse(ignored: &[&str]) -> CliArgs {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let refused = |a: &&String| CAMPAIGN_FLAGS.iter().chain(ignored).any(|f| f == a);
        if let Some(flag) = args.iter().find(refused) {
            let why = if CAMPAIGN_FLAGS.contains(&flag.as_str()) {
                "only exp_offline, exp_commercial, exp_packers and exp_ablation run \
                 resumable, fault-injectable or distributed campaigns"
            } else {
                "this experiment does not use it"
            };
            usage_error(&format!("{flag} is not supported here: {why}"));
        }
        Self::parse_from(&args).unwrap_or_else(|e| usage_error(&e))
    }

    /// Parse the shared flags out of `args` (program name excluded),
    /// ignoring any others.
    ///
    /// # Errors
    ///
    /// A malformed `--samples` or `--workers` value, naming the flag.
    pub fn parse_from(args: &[String]) -> Result<CliArgs, String> {
        Ok(CliArgs {
            quick: args.iter().any(|a| a == "--quick"),
            samples: flag_value(args, "--samples")?,
            workers: flag_value(args, "--workers")?,
        })
    }

    /// Materialize the world configuration this invocation asked for.
    pub fn world_config(&self) -> crate::WorldConfig {
        let mut cfg =
            if self.quick { crate::WorldConfig::quick() } else { crate::WorldConfig::full() };
        if let Some(n) = self.samples {
            cfg.attack_samples = n;
        }
        cfg
    }

    /// The shared engine this invocation runs its campaigns on. Seeded
    /// from the world seed so shard RNG streams are reproducible.
    pub fn engine(&self, seed: u64) -> mpass_engine::Engine {
        mpass_engine::Engine::new(mpass_engine::EngineConfig {
            workers: self.workers.unwrap_or(0),
            seed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_writes_pretty_json() {
        #[derive(Serialize)]
        struct Demo {
            x: u32,
        }
        publish("test_publish", &to_json(&Demo { x: 7 }), None);
        let path = Path::new(RESULTS_DIR).join("test_publish.json");
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("\"x\": 7"));
        std::fs::remove_file(path).unwrap();
    }
}
