//! JSON result persistence for EXPERIMENTS.md bookkeeping.

use serde::Serialize;
use std::io;
use std::path::{Path, PathBuf};

/// Directory results are written to (workspace-relative).
pub const RESULTS_DIR: &str = "results";

/// Serialize `value` as pretty JSON into `results/<name>.json`, creating
/// the directory if needed. Returns the written path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save_json<T: Serialize>(name: &str, value: &T) -> io::Result<PathBuf> {
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    save_report(name, &json)
}

/// Write an already serialized report into `results/<name>.json`,
/// creating the directory if needed. Returns the written path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save_report(name: &str, json: &str) -> io::Result<PathBuf> {
    let dir = Path::new(RESULTS_DIR);
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, json)?;
    Ok(path)
}

/// Write an engine metrics file next to a `results/<name>.json` produced
/// by [`save_json`] (i.e. at `results/<name>.metrics.json`) and report
/// where it went on stdout.
pub fn save_metrics(results_path: &Path, metrics: &mpass_engine::MetricsFile) {
    let path = mpass_engine::metrics_path(results_path);
    match metrics.save(&path) {
        Ok(()) => println!("metrics  -> {}", path.display()),
        Err(e) => eprintln!("could not save metrics {}: {e}", path.display()),
    }
}

/// Parse `--quick` / `--samples N` / `--workers N` style CLI flags shared
/// by the binaries, plus the robustness flags `--faults SEED` (inject a
/// deterministic oracle fault schedule) and `--resume` (continue a
/// killed run from its journal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CliArgs {
    /// Use the down-scaled world.
    pub quick: bool,
    /// Override for the number of attacked samples.
    pub samples: Option<usize>,
    /// Engine worker threads (`None`/0 = one per shard up to the core
    /// count).
    pub workers: Option<usize>,
    /// Seed for oracle fault injection (`None` = reliable oracle).
    pub faults: Option<u64>,
    /// Resume from the experiment's journal instead of restarting it.
    pub resume: bool,
    /// Distribute the campaign across this many worker *processes*
    /// (`--processes N`; `--workers` stays engine threads).
    pub processes: Option<usize>,
}

impl CliArgs {
    /// Parse from `std::env::args`.
    pub fn parse() -> CliArgs {
        let args: Vec<String> = std::env::args().collect();
        let quick = args.iter().any(|a| a == "--quick");
        let resume = args.iter().any(|a| a == "--resume");
        let grab = |flag: &str| {
            args.iter()
                .position(|a| a == flag)
                .and_then(|i| args.get(i + 1))
                .and_then(|v| v.parse().ok())
        };
        CliArgs {
            quick,
            samples: grab("--samples"),
            workers: grab("--workers"),
            faults: grab("--faults").map(|n: usize| n as u64),
            resume,
            processes: grab("--processes"),
        }
    }

    /// [`CliArgs::parse`] for a binary that runs no journalled,
    /// fault-injected or distributed campaign. It could not honour
    /// `--faults`, `--resume` or `--processes`, so instead of dropping
    /// them it prints an error naming the flag and exits with status 2,
    /// before any world is built.
    pub fn parse_without_campaign_flags(binary: &str) -> CliArgs {
        let campaign_flags = ["--faults", "--resume", "--processes"];
        let mut args = std::env::args().skip(1);
        if let Some(flag) = args.find(|a| campaign_flags.contains(&a.as_str())) {
            eprintln!(
                "error: {binary} does not support {flag}: it runs no resumable, \
                 fault-injectable or distributed campaign"
            );
            std::process::exit(2);
        }
        Self::parse()
    }

    /// The campaign options this invocation asked for. Journalling is
    /// always on for campaign-capable runners: the write-ahead log at
    /// `results/<experiment>.journal.jsonl` is what `--resume` picks up
    /// after a crash or kill.
    pub fn campaign_options(&self, experiment: &str) -> crate::campaign::CampaignOptions {
        crate::campaign::CampaignOptions {
            faults: self.faults.map(mpass_detectors::FaultProfile::seeded),
            journal: Some(
                Path::new(RESULTS_DIR).join(format!("{experiment}.journal.jsonl")),
            ),
            resume: self.resume,
        }
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
    fn save_json_round_trips() {
        #[derive(Serialize)]
        struct Demo {
            x: u32,
        }
        let path = save_json("test_save_json", &Demo { x: 7 }).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("\"x\": 7"));
        std::fs::remove_file(path).unwrap();
    }
}
