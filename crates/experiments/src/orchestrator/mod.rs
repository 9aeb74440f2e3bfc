//! Campaign orchestration: one campaign directory per experiment, run
//! in process on engine threads or across N worker processes (one
//! coordinator, lease-based shard ownership), with crash-safe journals
//! and a deterministic merge.
//!
//! Layout of a campaign directory (`results/<experiment>.campaign/` for
//! the campaign binaries):
//!
//! ```text
//! <dir>/
//!   manifest.json          # world config + seed + shard grid (hashed)
//!   shards/<slug>.jsonl    # per-shard crash-safe journals
//!   leases/<slug>.lease    # heartbeat files: who owns which shard
//!   events.jsonl           # coordinator event log (reassignments, respawns)
//!   merged.json            # final report, byte-identical to in-process
//!   merged.metrics.json    # merged per-worker shard metrics
//! ```
//!
//! An in-process run writes only the manifest and the shard journals;
//! the rest belongs to distributed runs. Either mode resumes a directory
//! the other left behind.
//!
//! The determinism story: shard seeds are keyed by shard *label* (not
//! by worker, thread, or schedule), resume replays journalled verdicts
//! instead of re-querying the oracle, and the merge serializes cells in
//! manifest order through the exact code path the in-process runners
//! use. Kill any worker at any point, restart anything, and the merged
//! report comes out byte-for-byte the same.

pub mod coordinator;
pub mod lease;
pub mod manifest;
pub mod worker;

pub use coordinator::{
    campaign_status, merge_campaign, read_events, render_status, run_coordinator,
    run_fault_matrix, CampaignStatus, CoordinatorOptions, CoordinatorSummary,
    FaultMatrixOptions, KillPoint, ShardStatus,
};
pub use lease::{Heartbeat, Lease, LeaseInfo};
pub use manifest::{CampaignKind, Manifest, ShardSpec};
pub use worker::{
    report_from_cells, run_baseline, run_grid, run_shard_work, run_worker, AnyCell,
    WorkerOptions, WorkerSummary,
};

use crate::report::{self, flag_value, CliArgs};
use crate::world::World;
use mpass_detectors::FaultProfile;
use mpass_engine::MetricsFile;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Parse the worker-process flags the coordinator passes when spawning
/// (`--dir`, `--worker-id`, `--ttl-ms`, `--heartbeat-ms`, `--poll-ms`,
/// `--hold-ms`, `--kill-after`). Shared by `mpass campaign work` and
/// the exp binaries' hidden `--orchestrate-work` entry
/// ([`campaign_main`]).
///
/// # Errors
///
/// A missing `--dir`, or a flag with a missing or unparsable value
/// (naming the flag).
pub fn worker_options_from_args(args: &[String]) -> Result<WorkerOptions, String> {
    let dir: String = flag_value(args, "--dir")?
        .ok_or_else(|| "worker needs --dir <campaign-dir>".to_owned())?;
    // "manual" keeps a hand-started worker out of the coordinator's
    // `w<N>` id space.
    let worker_id: String = flag_value(args, "--worker-id")?.unwrap_or_else(|| "manual".into());
    let mut opts = WorkerOptions::new(dir, worker_id);
    let ms = |flag: &str| Ok::<_, String>(flag_value(args, flag)?.map(Duration::from_millis));
    opts.ttl = ms("--ttl-ms")?.unwrap_or(opts.ttl);
    opts.heartbeat = ms("--heartbeat-ms")?.unwrap_or(opts.heartbeat);
    opts.poll = ms("--poll-ms")?.unwrap_or(opts.poll);
    opts.hold = ms("--hold-ms")?.unwrap_or(opts.hold);
    opts.kill_after = flag_value(args, "--kill-after")?;
    Ok(opts)
}

/// The main of the campaign binaries (`exp_offline`, `exp_commercial`,
/// `exp_packers`, `exp_ablation`) and the only parser of
/// [`report::CAMPAIGN_FLAGS`].
///
/// Runs the `kind` grid of `attacks` against every default target in the
/// campaign directory `results/<experiment>.campaign`, either in process
/// (`--workers` engine threads) or, with `--processes N`, across N worker
/// processes — the workers are this same binary, re-entered via the
/// hidden `--orchestrate-work` flag. `--faults SEED` runs every oracle
/// under a seeded fault schedule. A fresh run resets the directory; a
/// `--resume` run continues it in either mode, and exits 2 before
/// building anything if the directory holds a campaign other than the
/// one the flags describe ([`Manifest::open`]). Both modes report failed
/// shards on stderr and hand the cells, in grid order, back to the
/// caller, which prints and saves its view of them. `on_world` sees the
/// in-process world once it is built.
pub fn campaign_main<R: From<Vec<AnyCell>>>(
    experiment: &str,
    kind: CampaignKind,
    attacks: &[&str],
    on_world: fn(&World),
) -> (R, MetricsFile) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--orchestrate-work") {
        std::process::exit(run_worker_from_args(&args));
    }
    let (flags, cli) = CampaignFlags::parse(&args)
        .and_then(|flags| Ok((flags, CliArgs::parse_from(&args)?)))
        .unwrap_or_else(|e| report::usage_error(&e));
    let world = cli.world_config();
    let attacks: Vec<String> = attacks.iter().map(|a| (*a).to_owned()).collect();
    let targets = kind.default_targets();
    let manifest =
        Manifest::new(kind, world.clone(), world.seed, flags.faults, &attacks, &targets);
    let dir = Path::new(report::RESULTS_DIR).join(format!("{experiment}.campaign"));
    manifest.open(&dir, flags.resume).unwrap_or_else(|e| report::usage_error(&e));
    let outcome = match flags.processes.filter(|n| *n > 0) {
        Some(processes) => run_distributed(&manifest, dir, processes),
        None => {
            let world = World::build(world);
            on_world(&world);
            let engine = cli.engine(manifest.seed);
            let faults = manifest.faults.map(FaultProfile::seeded);
            run_grid(&world, kind, &manifest.shards, &engine, faults, Some(&dir))
                .map_err(|e| format!("could not open campaign journals: {e}"))
        }
    };
    let (cells, metrics) = outcome.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1)
    });
    for failure in &metrics.failures {
        eprintln!("shard {} failed: {}", failure.label, failure.panic);
    }
    (R::from(cells), metrics)
}

/// The [`report::CAMPAIGN_FLAGS`] of one invocation.
struct CampaignFlags {
    /// Seed for oracle fault injection (`None` = reliable oracle).
    faults: Option<u64>,
    /// Continue the experiment's campaign directory instead of
    /// restarting it.
    resume: bool,
    /// Distribute the campaign across this many worker *processes*
    /// (`--workers` stays engine threads).
    processes: Option<usize>,
}

impl CampaignFlags {
    /// Parse the campaign flags out of `args`, ignoring any others.
    fn parse(args: &[String]) -> Result<CampaignFlags, String> {
        Ok(CampaignFlags {
            faults: flag_value(args, "--faults")?,
            resume: args.iter().any(|a| a == "--resume"),
            processes: flag_value(args, "--processes")?,
        })
    }
}

/// The worker entry behind `--orchestrate-work`: run the worker loop and
/// return the process exit code.
fn run_worker_from_args(args: &[String]) -> i32 {
    match worker_options_from_args(args).and_then(|opts| run_worker(&opts)) {
        Ok(summary) => {
            println!(
                "worker {}: {} shard(s) run, {} failed",
                summary.worker_id, summary.shards_run, summary.shards_failed
            );
            0
        }
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

/// Coordinate `manifest`'s campaign, already opened in `dir`, across
/// `processes` worker processes and return the merged cells and metrics.
fn run_distributed(
    manifest: &Manifest,
    dir: PathBuf,
    processes: usize,
) -> Result<(Vec<AnyCell>, MetricsFile), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let worker_cmd = vec![exe.to_string_lossy().into_owned(), "--orchestrate-work".to_owned()];
    let mut opts = CoordinatorOptions::new(dir, worker_cmd);
    opts.processes = processes;
    let summary = run_coordinator(manifest, &opts)
        .map_err(|e| format!("distributed campaign failed: {e}"))?;
    println!(
        "campaign: {} shard(s) over {processes} process(es), {} reassigned, {} respawned",
        summary.shards, summary.reassigned, summary.respawned
    );
    Ok((summary.cells, summary.metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn worker_args_parse_full_set() {
        let opts = worker_options_from_args(&args(&[
            "exp_offline",
            "--orchestrate-work",
            "--dir",
            "/tmp/c",
            "--worker-id",
            "w3",
            "--ttl-ms",
            "2500",
            "--heartbeat-ms",
            "250",
            "--poll-ms",
            "50",
            "--hold-ms",
            "5",
            "--kill-after",
            "7",
        ]))
        .unwrap();
        assert_eq!(opts.dir, std::path::PathBuf::from("/tmp/c"));
        assert_eq!(opts.worker_id, "w3");
        assert_eq!(opts.ttl, Duration::from_millis(2500));
        assert_eq!(opts.heartbeat, Duration::from_millis(250));
        assert_eq!(opts.poll, Duration::from_millis(50));
        assert_eq!(opts.hold, Duration::from_millis(5));
        assert_eq!(opts.kill_after, Some(7));
    }

    #[test]
    fn worker_args_require_dir_and_default_the_rest() {
        let err = worker_options_from_args(&args(&["bin", "--orchestrate-work"])).unwrap_err();
        assert!(err.contains("--dir"), "{err}");
        let opts = worker_options_from_args(&args(&["bin", "--dir", "d"])).unwrap();
        assert_eq!(opts.worker_id, "manual");
        assert_eq!(opts.kill_after, None);
        let err =
            worker_options_from_args(&args(&["bin", "--dir", "d", "--ttl-ms", "soon"]))
                .unwrap_err();
        assert!(err.contains("--ttl-ms"), "{err}");
    }
}
