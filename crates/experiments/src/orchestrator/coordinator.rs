//! Campaign coordinator: spawns worker processes over an opened
//! campaign directory, supervises their leases, and merges the per-shard
//! journals into one deterministic final report.
//!
//! The coordinator never runs shard work itself. Its contract is
//! recovery-shaped:
//!
//! * A worker that dies (crash, SIGKILL, injected abort) leaves a lease
//!   whose pid is dead; the supervision loop breaks it and the shard
//!   goes back on the market with its journal intact, so the next
//!   claimant resumes at sample granularity instead of re-spending
//!   oracle budget.
//! * A coordinator that dies is itself restartable: a `--resume` run
//!   reopens the directory ([`Manifest::open`] checks the stored
//!   manifest against the flags), clears stale leases — mirroring how
//!   `mpass-serve` replaces a stale socket from a dead daemon — and
//!   re-merges. The merge is a pure function of the journals and writes
//!   through tmp+rename, so re-running it after any interruption
//!   produces the same bytes.
//!
//! Process-level fault injection is a first-class input: a seeded kill
//! schedule maps spawn indices to journal-append offsets, and the
//! fault-matrix harness sweeps such schedules asserting the merged
//! report stays byte-identical to an uninterrupted run.

use super::lease::{self, LeaseInfo};
use super::manifest::{write_atomic, CampaignKind, Manifest};
use super::worker::{report_from_cells, run_baseline, AnyCell};
use crate::journal::{scan_journal, CampaignJournal};
use crate::world::{World, WorldConfig};
use mpass_engine::{EngineInfo, MetricsFile, ShardFailure, ShardMetrics};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Value;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Kill the worker spawned `spawn_index`-th (0-based, respawns
/// included) after its `after_records`-th journal append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillPoint {
    /// Which spawn (not which worker id slot) to arm.
    pub spawn_index: usize,
    /// Abort at this cumulative append count.
    pub after_records: u64,
}

/// Dead workers the coordinator replaces before giving up on a campaign.
pub const MAX_RESPAWNS: usize = 8;

/// How the coordinator should run a campaign.
#[derive(Debug, Clone)]
pub struct CoordinatorOptions {
    /// Campaign directory, opened by [`Manifest::open`].
    pub dir: PathBuf,
    /// Worker processes to keep running.
    pub processes: usize,
    /// Command line prefix that starts one worker; the coordinator
    /// appends `--dir`, `--worker-id` and the timing/fault flags.
    pub worker_cmd: Vec<String>,
    /// Lease TTL handed to workers and used to break stale leases.
    pub ttl: Duration,
    /// Supervision poll interval.
    pub poll: Duration,
    /// Lease heartbeat interval handed to workers.
    pub heartbeat: Duration,
    /// Fault injection schedule.
    pub kill_schedule: Vec<KillPoint>,
    /// Abort the campaign (killing workers) after this much wall time.
    pub deadline: Option<Duration>,
}

impl CoordinatorOptions {
    /// Defaults for a campaign in `dir` run by `worker_cmd`: 2
    /// processes, 10 s TTL, 1 s heartbeat, 200 ms poll, no kills, no
    /// deadline.
    pub fn new(dir: impl Into<PathBuf>, worker_cmd: Vec<String>) -> CoordinatorOptions {
        CoordinatorOptions {
            dir: dir.into(),
            processes: 2,
            worker_cmd,
            ttl: Duration::from_secs(10),
            poll: Duration::from_millis(200),
            heartbeat: Duration::from_secs(1),
            kill_schedule: Vec::new(),
            deadline: None,
        }
    }
}

/// What a finished coordination run produced.
#[derive(Debug, Clone)]
pub struct CoordinatorSummary {
    /// The merged report path (`<dir>/merged.json`).
    pub report_path: PathBuf,
    /// The merged metrics path (`<dir>/merged.metrics.json`).
    pub metrics_path: PathBuf,
    /// The merged report bytes (what `report_path` holds).
    pub report: String,
    /// The merged cells, in manifest order.
    pub cells: Vec<AnyCell>,
    /// The merged metrics (what `metrics_path` holds).
    pub metrics: MetricsFile,
    /// Shards in the campaign.
    pub shards: usize,
    /// Expired/dead leases the supervision loop broke.
    pub reassigned: usize,
    /// Dead worker processes replaced.
    pub respawned: usize,
    /// Total worker processes spawned (initial + respawns).
    pub spawned: usize,
}

/// Remove stale state a dead coordinator or dead workers left behind:
/// leases whose holder pid is dead or whose TTL lapsed, and `*.tmp`
/// remnants of interrupted atomic writes. Returns the cleared lease
/// descriptions. This mirrors the serve daemon's stale-socket handling:
/// state files from dead processes must never block a restart.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn clear_stale_state(
    dir: &Path,
    manifest: &Manifest,
    ttl: Duration,
) -> Result<Vec<String>, String> {
    let mut cleared = Vec::new();
    for spec in &manifest.shards {
        if let Some(holder) = break_stale_lease(&spec.lease_path(dir), ttl)? {
            cleared.push(format!("{} (held by {holder})", spec.label));
        }
    }
    for sub in [dir.to_owned(), dir.join("shards"), dir.join("leases")] {
        let Ok(entries) = std::fs::read_dir(&sub) else { continue };
        for entry in entries.flatten() {
            if entry.path().extension().is_some_and(|e| e == "tmp") {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
    Ok(cleared)
}

/// Remove the lease at `path` if it is stale ([`lease::is_stale`]) and
/// return its holder's worker id (`"unknown"` if unreadable).
///
/// # Errors
///
/// Propagates filesystem errors from probing the lease.
fn break_stale_lease(path: &Path, ttl: Duration) -> Result<Option<String>, String> {
    if !lease::is_stale(path, ttl).map_err(|e| format!("{}: {e}", path.display()))? {
        return Ok(None);
    }
    let holder =
        lease::read_info(path).ok().flatten().map_or_else(|| "unknown".to_owned(), |i| i.worker);
    let _ = std::fs::remove_file(path);
    Ok(Some(holder))
}

/// Append one event to the coordinator's single-writer event log
/// (`<dir>/events.jsonl`). Best-effort observability: event-log I/O
/// errors are reported by the caller but never fail the campaign.
fn log_event(dir: &Path, event: &str, shard: &str, detail: &str) -> std::io::Result<()> {
    let line = serde_json::to_string(&Value::Map(vec![
        ("event".to_owned(), Value::Str(event.to_owned())),
        ("shard".to_owned(), Value::Str(shard.to_owned())),
        ("detail".to_owned(), Value::Str(detail.to_owned())),
    ]))
    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let mut file =
        std::fs::OpenOptions::new().create(true).append(true).open(dir.join("events.jsonl"))?;
    writeln!(file, "{line}")
}

/// Parse the event log back into `(event, shard, detail)` rows. A
/// missing log reads as empty.
pub fn read_events(dir: &Path) -> Vec<(String, String, String)> {
    let Ok(text) = std::fs::read_to_string(dir.join("events.jsonl")) else { return Vec::new() };
    text.lines()
        .filter_map(|line| {
            let value: Value = serde_json::from_str(line).ok()?;
            let field = |k: &str| match value.get(k) {
                Some(Value::Str(s)) => Some(s.clone()),
                _ => None,
            };
            Some((field("event")?, field("shard")?, field("detail")?))
        })
        .collect()
}

struct WorkerProc {
    child: Child,
    id: String,
}

fn spawn_worker(opts: &CoordinatorOptions, spawned: &mut usize) -> Result<WorkerProc, String> {
    let spawn_index = *spawned;
    *spawned += 1;
    let id = format!("w{spawn_index}");
    let (program, rest) = opts
        .worker_cmd
        .split_first()
        .ok_or_else(|| "empty worker command".to_owned())?;
    let mut cmd = Command::new(program);
    cmd.args(rest)
        .arg("--dir")
        .arg(&opts.dir)
        .arg("--worker-id")
        .arg(&id)
        .arg("--ttl-ms")
        .arg(opts.ttl.as_millis().to_string())
        .arg("--heartbeat-ms")
        .arg(opts.heartbeat.as_millis().to_string())
        .stdout(Stdio::null());
    if let Some(kill) = opts.kill_schedule.iter().find(|k| k.spawn_index == spawn_index) {
        cmd.arg("--kill-after").arg(kill.after_records.to_string());
    }
    let child = cmd.spawn().map_err(|e| format!("spawn worker {id} ({program}): {e}"))?;
    let _ = log_event(&opts.dir, "worker_spawned", "", &id);
    Ok(WorkerProc { child, id })
}

/// Run the whole campaign in `opts.dir`, which [`Manifest::open`] opened
/// with `manifest`: stale-state cleanup, workers, supervision, merge.
///
/// # Errors
///
/// Spawn/filesystem errors, the respawn budget ([`MAX_RESPAWNS`])
/// running out with shards unfinished, or the deadline lapsing.
pub fn run_coordinator(
    manifest: &Manifest,
    opts: &CoordinatorOptions,
) -> Result<CoordinatorSummary, String> {
    let started = Instant::now();
    for cleared in clear_stale_state(&opts.dir, manifest, opts.ttl)? {
        println!("cleared stale lease: {cleared}");
        let _ = log_event(&opts.dir, "stale_lease_cleared", &cleared, "");
    }

    let total = manifest.shards.len();
    let mut workers: Vec<WorkerProc> = Vec::new();
    let mut spawned = 0usize;
    let mut reassigned = 0usize;
    let mut respawned = 0usize;
    let mut finished_series: Vec<f64> = Vec::new();
    let mut last_line = String::new();
    let supervise = loop {
        // Live progress, streamed from read-only journal scans — the
        // coordinator never opens (and so never truncates) a journal a
        // worker is appending to.
        let mut finished = 0usize;
        let mut samples = 0usize;
        let mut unfinished = Vec::new();
        for spec in &manifest.shards {
            let scan = scan_journal(&spec.journal_path(&opts.dir))
                .map_err(|e| format!("scan {}: {e}", spec.slug))?;
            samples += scan.samples_done(&spec.label);
            if scan.is_finished(&spec.label) {
                finished += 1;
            } else {
                unfinished.push(spec);
            }
        }
        finished_series.push(finished as f64);
        let line = format!(
            "campaign: {finished}/{total} shards, {samples} samples journalled, \
             {reassigned} reassigned, {respawned} respawned"
        );
        if line != last_line {
            println!("{line}");
            last_line = line;
        }
        if finished == total {
            break Ok(());
        }

        // Workers are spawned lazily so a resume of an already-complete
        // campaign goes straight to the merge.
        if workers.is_empty() && spawned == 0 {
            for _ in 0..opts.processes.max(1) {
                workers.push(spawn_worker(opts, &mut spawned)?);
            }
        }

        // Break leases whose holder died or went silent past the TTL;
        // the shard goes back on the market with its journal intact.
        for spec in &unfinished {
            if let Some(holder) = break_stale_lease(&spec.lease_path(&opts.dir), opts.ttl)? {
                reassigned += 1;
                let _ = log_event(&opts.dir, "lease_reassigned", &spec.label, &holder);
                println!("reassigned {} (lease of {holder} expired)", spec.label);
            }
        }

        // Reap dead workers.
        let mut alive = Vec::new();
        for mut worker in workers {
            match worker.child.try_wait() {
                Ok(Some(status)) => {
                    let _ = log_event(&opts.dir, "worker_exited", "", &format!("{status}"));
                    println!("worker {} exited ({status}) with shards unfinished", worker.id);
                }
                Ok(None) => alive.push(worker),
                Err(e) => return Err(format!("wait worker {}: {e}", worker.id)),
            }
        }
        workers = alive;
        if workers.is_empty() {
            if respawned >= MAX_RESPAWNS {
                break Err(format!(
                    "all workers exited and the respawn budget ({MAX_RESPAWNS}) is spent; \
                     campaign stuck at {finished}/{total} shards"
                ));
            }
            respawned += 1;
            let worker = spawn_worker(opts, &mut spawned)?;
            let _ = log_event(&opts.dir, "worker_respawned", "", &worker.id);
            workers.push(worker);
        }

        if let Some(deadline) = opts.deadline {
            if started.elapsed() > deadline {
                for worker in &mut workers {
                    let _ = worker.child.kill();
                }
                break Err(format!(
                    "campaign deadline ({deadline:?}) lapsed at {finished}/{total} shards"
                ));
            }
        }
        std::thread::sleep(opts.poll);
    };
    // Always reap remaining children (they exit on their own once every
    // shard is finished; on error paths they were killed above or will
    // exit against the finished journals).
    for mut worker in workers {
        let _ = worker.child.wait();
    }
    supervise?;

    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let mut coordinator = ShardMetrics { label: "coordinator".into(), ..Default::default() };
    coordinator.wall_ms = wall_ms;
    coordinator.counters.insert("campaign/lease_reassigned".into(), reassigned as u64);
    coordinator.counters.insert("campaign/worker_respawned".into(), respawned as u64);
    coordinator.counters.insert("campaign/workers_spawned".into(), spawned as u64);
    coordinator.series.insert("campaign/shards_finished".into(), finished_series);

    let (cells, metrics) = merge_campaign(&opts.dir, manifest, opts.processes, coordinator)?;
    let report = report_from_cells(manifest.kind, &cells);
    let report_path = opts.dir.join("merged.json");
    let metrics_path = opts.dir.join("merged.metrics.json");
    write_atomic(&report_path, report.as_bytes())
        .map_err(|e| format!("write {}: {e}", report_path.display()))?;
    metrics
        .save(&metrics_path)
        .map_err(|e| format!("write {}: {e}", metrics_path.display()))?;
    Ok(CoordinatorSummary {
        report_path,
        metrics_path,
        report,
        cells,
        metrics,
        shards: total,
        reassigned,
        respawned,
        spawned,
    })
}

/// Merge the per-shard journals into the final cells and metrics — a
/// pure function of the journals (idempotent, so a coordinator killed
/// mid-merge just re-merges on restart). Cells come out in manifest
/// order, which is engine input order, which is why their
/// [`report_from_cells`] can be byte-identical to an uninterrupted
/// in-process run.
///
/// # Errors
///
/// Journal I-O errors.
pub fn merge_campaign(
    dir: &Path,
    manifest: &Manifest,
    processes: usize,
    coordinator: ShardMetrics,
) -> Result<(Vec<AnyCell>, MetricsFile), String> {
    let mut cells = Vec::new();
    let mut shard_metrics = Vec::new();
    let mut failures = Vec::new();
    for (index, spec) in manifest.shards.iter().enumerate() {
        let journal = CampaignJournal::open(spec.journal_path(dir))
            .map_err(|e| format!("open journal {}: {e}", spec.slug))?;
        let cell = match manifest.kind {
            CampaignKind::Offline => journal.shard_cell(&spec.label).map(AnyCell::Offline),
            CampaignKind::Commercial => journal.shard_cell(&spec.label).map(AnyCell::Commercial),
        };
        match cell {
            Some(cell) => cells.push(cell),
            None => failures.push(ShardFailure {
                index,
                label: spec.label.clone(),
                panic: "no journalled cell (shard never finished)".to_owned(),
            }),
        }
        shard_metrics.push(match journal.shard_metrics(&spec.label) {
            Some((_worker, metrics)) => metrics.clone(),
            None => ShardMetrics { label: spec.label.clone(), ..Default::default() },
        });
    }
    let wall_ms = coordinator.wall_ms;
    shard_metrics.push(coordinator);
    let metrics = MetricsFile {
        experiment: format!("campaign-{}", manifest.kind.experiment_name()),
        engine: EngineInfo {
            workers: processes,
            seed: manifest.seed,
            shards: manifest.shards.len(),
        },
        wall_ms,
        shards: shard_metrics,
        failures,
    };
    Ok((cells, metrics))
}

/// Per-shard view of a campaign directory.
#[derive(Debug, Clone)]
pub struct ShardStatus {
    /// Shard label.
    pub label: String,
    /// Journalled finished samples.
    pub samples_done: usize,
    /// Whether the final cell is journalled.
    pub finished: bool,
    /// The worker whose metrics record closed the shard.
    pub finished_by: Option<String>,
    /// Current lease holder, if any.
    pub lease: Option<LeaseInfo>,
    /// Times the coordinator broke this shard's lease.
    pub reassigned: usize,
}

/// Everything `mpass campaign status` / `mpass engine-report <dir>`
/// reports about a campaign directory.
#[derive(Debug, Clone)]
pub struct CampaignStatus {
    /// Campaign kind.
    pub kind: CampaignKind,
    /// Engine seed.
    pub seed: u64,
    /// Per-shard progress, in manifest order.
    pub shards: Vec<ShardStatus>,
    /// Total lease reassignments logged.
    pub reassigned: usize,
    /// Total worker respawns logged.
    pub respawned: usize,
    /// Total worker processes spawned.
    pub spawned: usize,
    /// Whether `merged.json` exists.
    pub merged: bool,
}

/// Inspect a campaign directory without touching it (journals are
/// scanned read-only; live workers are unaffected).
///
/// # Errors
///
/// Manifest/journal I-O errors.
pub fn campaign_status(dir: &Path) -> Result<CampaignStatus, String> {
    let manifest = Manifest::load(dir).map_err(|e| e.to_string())?;
    let events = read_events(dir);
    let mut shards = Vec::with_capacity(manifest.shards.len());
    for spec in &manifest.shards {
        let scan = scan_journal(&spec.journal_path(dir))
            .map_err(|e| format!("scan {}: {e}", spec.slug))?;
        let lease = lease::read_info(&spec.lease_path(dir)).ok().flatten();
        shards.push(ShardStatus {
            label: spec.label.clone(),
            samples_done: scan.samples_done(&spec.label),
            finished: scan.is_finished(&spec.label),
            finished_by: scan.finished_by.get(&spec.label).cloned(),
            lease,
            reassigned: events
                .iter()
                .filter(|(event, shard, _)| event == "lease_reassigned" && *shard == spec.label)
                .count(),
        });
    }
    let count = |name: &str| events.iter().filter(|(event, _, _)| event == name).count();
    Ok(CampaignStatus {
        kind: manifest.kind,
        seed: manifest.seed,
        shards,
        reassigned: count("lease_reassigned"),
        respawned: count("worker_respawned"),
        spawned: count("worker_spawned"),
        merged: dir.join("merged.json").exists(),
    })
}

/// Render a [`CampaignStatus`] as the human report behind
/// `mpass campaign status` and `mpass engine-report <dir>`.
pub fn render_status(status: &CampaignStatus) -> String {
    let finished = status.shards.iter().filter(|s| s.finished).count();
    let mut out = format!(
        "campaign `{}` (seed {:#x}): {finished}/{} shards finished, merged: {}\n",
        status.kind,
        status.seed,
        status.shards.len(),
        if status.merged { "yes" } else { "no" }
    );
    for shard in &status.shards {
        // In-process runs journal no worker metrics, so their shards
        // finish by nobody in particular.
        let state = if shard.finished {
            shard.finished_by.as_ref().map_or("finished".to_owned(), |w| format!("finished by {w}"))
        } else if let Some(lease) = &shard.lease {
            format!("running on {} (pid {}, beat {})", lease.worker, lease.pid, lease.beat)
        } else {
            "unclaimed".to_owned()
        };
        out.push_str(&format!(
            "  {:<24} {} samples, {state}{}\n",
            shard.label,
            shard.samples_done,
            if shard.reassigned > 0 {
                format!(", reassigned x{}", shard.reassigned)
            } else {
                String::new()
            }
        ));
    }
    out.push_str(&format!(
        "totals: {} workers spawned, {} lease reassignments, {} respawns\n",
        status.spawned, status.reassigned, status.respawned
    ));
    out
}

/// How to sweep the process-fault matrix.
#[derive(Debug, Clone)]
pub struct FaultMatrixOptions {
    /// Output directory for campaign dirs, diffs and the summary.
    pub out: PathBuf,
    /// Seed for the kill schedule.
    pub seed: u64,
    /// Number of seeded kill points to sweep.
    pub kills: usize,
    /// Worker processes per campaign.
    pub processes: usize,
    /// Worker command prefix (see [`CoordinatorOptions::worker_cmd`]).
    pub worker_cmd: Vec<String>,
    /// Attack samples per shard (small grid keeps the sweep quick).
    pub samples: usize,
}

/// Sweep the process-fault matrix: an uninterrupted in-process baseline,
/// then one distributed campaign per seeded kill point (a worker
/// SIGKILL-aborted at a deterministic journal offset), then a
/// coordinator-restart-mid-merge case — each asserting the merged
/// report is byte-identical to the baseline and that no shard journal
/// holds duplicate sample records (the double-spend signature).
///
/// Writes `summary.txt`, `baseline.json` and any `*.diff` artifacts
/// into `out`.
///
/// # Errors
///
/// Setup/coordination errors, or any case diverging from the baseline.
pub fn run_fault_matrix(opts: &FaultMatrixOptions) -> Result<String, String> {
    std::fs::create_dir_all(&opts.out).map_err(|e| format!("create {:?}: {e}", opts.out))?;
    // Small grid, stateless attacks only: sample-level resume is what
    // makes a mid-shard kill budget-neutral, and stateful attacks (RLA,
    // MAB) only get shard-level resume.
    let mut config = WorldConfig::quick();
    config.attack_samples = opts.samples;
    let manifest = Manifest::new(
        CampaignKind::Offline,
        config.clone(),
        config.seed,
        None,
        &["MPass".into(), "GAMMA".into()],
        &["MalConv".into()],
    );
    println!("fault matrix: building world + baseline ({} shards)", manifest.shards.len());
    let world = World::build(config);
    let (baseline, _) = run_baseline(&world, &manifest, 0);
    std::fs::write(opts.out.join("baseline.json"), &baseline)
        .map_err(|e| format!("write baseline: {e}"))?;

    let coordinator_opts = |dir: PathBuf| {
        let mut c = CoordinatorOptions::new(dir, opts.worker_cmd.clone());
        c.processes = opts.processes;
        c.ttl = Duration::from_secs(2);
        c.heartbeat = Duration::from_millis(200);
        c.poll = Duration::from_millis(100);
        c.deadline = Some(Duration::from_secs(600));
        c
    };

    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed);
    let mut lines = Vec::new();
    let mut mismatches = 0usize;
    for case in 0..opts.kills {
        let spawn_index = rng.gen_range(0..opts.processes.max(1));
        let after_records = rng.gen_range(1..=4u64);
        let dir = opts.out.join(format!("kill-{case:02}"));
        manifest.open(&dir, false)?;
        let mut copts = coordinator_opts(dir);
        copts.kill_schedule = vec![KillPoint { spawn_index, after_records }];
        let summary = run_coordinator(&manifest, &copts)?;
        let verdict = check_case(
            &format!("kill-{case:02}"),
            &summary,
            &baseline,
            &manifest,
            &copts.dir,
            &opts.out,
        )?;
        if !verdict.ok {
            mismatches += 1;
        }
        lines.push(format!(
            "kill-{case:02}: kill spawn {spawn_index} after {after_records} appends -> \
             {} ({} reassigned, {} respawned)",
            verdict.describe, summary.reassigned, summary.respawned
        ));
        println!("{}", lines.last().expect("just pushed"));
    }

    // Coordinator killed mid-merge: a finished campaign whose merged
    // report is gone and whose tmp file holds garbage must re-merge to
    // the same bytes on a resumed run.
    let dir = opts.out.join("restart-mid-merge");
    manifest.open(&dir, false)?;
    let first = run_coordinator(&manifest, &coordinator_opts(dir.clone()))?;
    std::fs::remove_file(&first.report_path).map_err(|e| format!("drop merged report: {e}"))?;
    std::fs::write(dir.join("merged.json.tmp"), b"{ garbage from a dead coordinator")
        .map_err(|e| format!("plant torn tmp: {e}"))?;
    manifest.open(&dir, true)?;
    let resumed = run_coordinator(&manifest, &coordinator_opts(dir.clone()))?;
    let verdict =
        check_case("restart-mid-merge", &resumed, &baseline, &manifest, &dir, &opts.out)?;
    if !verdict.ok {
        mismatches += 1;
    }
    lines.push(format!("restart-mid-merge: {}", verdict.describe));
    println!("{}", lines.last().expect("just pushed"));

    let summary = format!(
        "process fault matrix: {} kill cases + restart-mid-merge, {mismatches} mismatch(es)\n{}\n",
        opts.kills,
        lines.join("\n")
    );
    std::fs::write(opts.out.join("summary.txt"), &summary)
        .map_err(|e| format!("write summary: {e}"))?;
    if mismatches > 0 {
        return Err(format!("{mismatches} fault-matrix case(s) diverged from the baseline"));
    }
    Ok(summary)
}

struct CaseVerdict {
    ok: bool,
    describe: String,
}

/// Byte-compare a case's merged report against the baseline and check
/// its journals for duplicate sample records. A mismatching report is
/// archived as `<out>/<name>.diff`.
fn check_case(
    name: &str,
    summary: &CoordinatorSummary,
    baseline: &str,
    manifest: &Manifest,
    dir: &Path,
    out: &Path,
) -> Result<CaseVerdict, String> {
    if summary.report != baseline {
        let diff = format!(
            "=== baseline ({} bytes) ===\n{baseline}\n=== {name} ({} bytes) ===\n{}\n",
            baseline.len(),
            summary.report.len(),
            summary.report
        );
        std::fs::write(out.join(format!("{name}.diff")), diff)
            .map_err(|e| format!("write diff: {e}"))?;
        return Ok(CaseVerdict { ok: false, describe: "MISMATCH (diff archived)".to_owned() });
    }
    // Double-spend signature: a replayed sample is never re-recorded,
    // so a duplicate (shard, sample) record means a resumed worker
    // re-attacked — and re-spent budget on — a delivered verdict.
    for spec in &manifest.shards {
        let scan = scan_journal(&spec.journal_path(dir))
            .map_err(|e| format!("scan {}: {e}", spec.slug))?;
        if let Some(samples) = scan.sample_queries.get(&spec.label) {
            let mut names: Vec<&str> = samples.iter().map(|(n, _)| n.as_str()).collect();
            names.sort_unstable();
            let before = names.len();
            names.dedup();
            if names.len() != before {
                return Ok(CaseVerdict {
                    ok: false,
                    describe: format!(
                        "DOUBLE-SPEND: duplicate sample records in shard {}",
                        spec.label
                    ),
                });
            }
        }
    }
    Ok(CaseVerdict { ok: true, describe: "byte-identical, no double-spend".to_owned() })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("mpass-coordinator-tests")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_manifest() -> Manifest {
        let mut config = WorldConfig::quick();
        config.attack_samples = 2;
        Manifest::new(
            CampaignKind::Offline,
            config,
            11,
            None,
            &["GAMMA".into()],
            &["MalConv".into()],
        )
    }

    #[test]
    fn stale_state_cleanup_breaks_dead_leases_and_tmp_files() {
        let dir = temp_dir("stale");
        let manifest = tiny_manifest();
        manifest.save(&dir).unwrap();
        let spec = &manifest.shards[0];
        // A lease held by a pid that cannot exist, and a torn tmp file.
        let info = LeaseInfo { worker: "ghost".into(), pid: u64::MAX - 1, beat: 1 };
        std::fs::write(spec.lease_path(&dir), serde_json::to_string(&info).unwrap()).unwrap();
        std::fs::write(dir.join("merged.json.tmp"), b"{ torn").unwrap();

        let ttl = if cfg!(target_os = "linux") {
            Duration::from_secs(60)
        } else {
            // No pid probing off Linux; let the TTL condemn the lease.
            Duration::ZERO
        };
        let cleared = clear_stale_state(&dir, &manifest, ttl).unwrap();
        assert_eq!(cleared.len(), 1);
        assert!(cleared[0].contains("ghost"), "{:?}", cleared);
        assert!(!spec.lease_path(&dir).exists());
        assert!(!dir.join("merged.json.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn events_round_trip_and_feed_status_counters() {
        let dir = temp_dir("events");
        let manifest = tiny_manifest();
        manifest.save(&dir).unwrap();
        log_event(&dir, "worker_spawned", "", "w0").unwrap();
        log_event(&dir, "lease_reassigned", &manifest.shards[0].label, "w0").unwrap();
        log_event(&dir, "worker_respawned", "", "w1").unwrap();
        let events = read_events(&dir);
        assert_eq!(events.len(), 3);
        assert_eq!(events[1].0, "lease_reassigned");

        let status = campaign_status(&dir).unwrap();
        assert_eq!(status.reassigned, 1);
        assert_eq!(status.respawned, 1);
        assert_eq!(status.spawned, 1);
        assert_eq!(status.shards[0].reassigned, 1);
        assert!(!status.merged);
        let rendered = render_status(&status);
        assert!(rendered.contains("0/1 shards finished"), "{rendered}");
        assert!(rendered.contains("reassigned x1"), "{rendered}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_is_a_pure_function_of_the_journals() {
        let dir = temp_dir("merge");
        let manifest = tiny_manifest();
        manifest.save(&dir).unwrap();
        let spec = &manifest.shards[0];
        // Journal a synthetic finished cell.
        let cell = crate::offline::OfflineCell {
            attack: spec.attack.clone(),
            target: spec.target.clone(),
            stats: mpass_core::attack::metrics::AttackStats {
                asr: 0.0,
                avq: 0.0,
                apr: 0.0,
                samples: 0,
            },
            broken: 0,
            checked: 0,
        };
        let journal = CampaignJournal::open(spec.journal_path(&dir)).unwrap();
        journal.record_shard(&spec.label, &cell).unwrap();
        let metrics = ShardMetrics { label: spec.label.clone(), ..Default::default() };
        journal.record_metrics(&spec.label, "w0", &metrics).unwrap();
        drop(journal);

        let coord = ShardMetrics { label: "coordinator".into(), ..Default::default() };
        let (cells_a, metrics_a) = merge_campaign(&dir, &manifest, 2, coord.clone()).unwrap();
        let (cells_b, metrics_b) = merge_campaign(&dir, &manifest, 2, coord).unwrap();
        let report_a = report_from_cells(manifest.kind, &cells_a);
        let report_b = report_from_cells(manifest.kind, &cells_b);
        assert_eq!(report_a, report_b, "merge is idempotent");
        assert_eq!(metrics_a, metrics_b);
        assert!(metrics_a.failures.is_empty());
        assert_eq!(metrics_a.experiment, "campaign-offline");
        // Shard metrics + the coordinator's own entry.
        assert_eq!(metrics_a.shards.len(), 2);
        assert!(report_a.contains("\"attack\": \"GAMMA\""), "{report_a}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
