//! The campaign runner's grid half, and the worker process.
//!
//! Every campaign — offline or commercial, in-process or distributed —
//! runs its shards through one resolver ([`run_shard_work`]: shard →
//! detector and attack → `campaign::run_shard`) and persists
//! its cells through one writer per kind ([`report_from_cells`]). The
//! in-process runner is [`run_grid`]; a worker process runs the same
//! [`run_shard_work`] under a lease. Both journal each shard into the
//! same `shards/<slug>.jsonl` of one campaign directory. That is what
//! makes a merged distributed campaign byte-identical to an
//! uninterrupted in-process run, and lets a campaign started in one
//! mode resume in the other: same label-keyed shard seeds, same journals,
//! same JSON shape.
//!
//! Fault injection is process-level: with `kill_after` set, the worker
//! counts journal appends across all its shards and dies via
//! `std::process::abort` — no unwinding, no destructors — at exactly
//! the N-th append, emulating a SIGKILL at a deterministic journal
//! offset.

use super::lease::{Heartbeat, Lease};
use super::manifest::{CampaignKind, Manifest, ShardSpec};
use crate::campaign::run_shard;
use crate::commercial::{CollectAes, CommercialCell, CommercialResults};
use crate::journal::{scan_journal, CampaignJournal};
use crate::offline::{make_attack, OfflineCell, OfflineResults, VerifyAes};
use crate::world::World;
use mpass_detectors::{CachedAv, Detector, FaultProfile};
use mpass_engine::metrics::{self as trace, Collector};
use mpass_engine::{Engine, EngineConfig, MetricsFile, Shard};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One finished shard cell of either campaign kind.
#[derive(Debug, Clone)]
pub enum AnyCell {
    /// An offline (Tables I–III) cell.
    Offline(OfflineCell),
    /// A commercial (Figure 3) cell.
    Commercial(CommercialCell),
}

impl AnyCell {
    /// The offline cell. A grid holds cells of one kind only.
    ///
    /// # Panics
    ///
    /// On a commercial cell.
    pub fn into_offline(self) -> OfflineCell {
        match self {
            AnyCell::Offline(cell) => cell,
            AnyCell::Commercial(cell) => {
                panic!("commercial cell {} in an offline grid", cell.attack)
            }
        }
    }

    /// The commercial cell. A grid holds cells of one kind only.
    ///
    /// # Panics
    ///
    /// On an offline cell.
    pub fn into_commercial(self) -> CommercialCell {
        match self {
            AnyCell::Commercial(cell) => cell,
            AnyCell::Offline(cell) => panic!("offline cell {} in a commercial grid", cell.attack),
        }
    }
}

/// Run one shard of a campaign grid. This is *the* shard resolver: the
/// in-process runner, the worker and the tests all come through here,
/// so there is exactly one place where a shard's attack, target, seed,
/// and outcome hook are decided.
///
/// The attack is `make_attack`'s for the shard's attack and target
/// names. Offline shards attack the named detector and check every AE in
/// the sandbox. Commercial shards attack a fresh memoizing [`CachedAv`]
/// copy of the named AV (so the metrics record per-shard score-cache hit
/// rates) and keep every AE; no AV is a known model, so MPass's ensemble
/// is all three differentiable offline models.
///
/// # Panics
///
/// When the shard names an attack or a target the world does not have.
pub fn run_shard_work(
    world: &World,
    kind: CampaignKind,
    spec: &ShardSpec,
    faults: Option<FaultProfile>,
    journal: Option<&CampaignJournal>,
    shard_seed: u64,
) -> AnyCell {
    let unknown = || -> ! {
        panic!("shard {} names unknown {kind} target {}", spec.label, spec.target)
    };
    let mut attack = make_attack(world, &spec.target, &spec.attack);
    match kind {
        CampaignKind::Offline => {
            let (_, det) = world
                .offline_targets()
                .into_iter()
                .find(|(n, _)| *n == spec.target)
                .unwrap_or_else(|| unknown());
            AnyCell::Offline(run_shard(
                world,
                attack.as_mut(),
                det,
                &spec.label,
                faults,
                journal,
                shard_seed,
                VerifyAes::default(),
            ))
        }
        CampaignKind::Commercial => {
            let av = world.avs.iter().find(|av| av.name() == spec.target);
            let av = CachedAv::new(av.unwrap_or_else(|| unknown()).clone());
            AnyCell::Commercial(run_shard(
                world,
                attack.as_mut(),
                &av,
                &spec.label,
                faults,
                journal,
                shard_seed,
                CollectAes::default(),
            ))
        }
    }
}

/// Run `shards` of a `kind` campaign on `engine`, in process, under
/// `faults`. With a campaign directory `dir` (opened by
/// [`Manifest::open`]), each shard journals into its own
/// `shards/<slug>.jsonl` there and resumes from what that journal already
/// holds. Cells come back in shard order, which is the order a
/// distributed merge writes them in.
///
/// # Errors
///
/// Fails only on journal filesystem errors: every journal is opened (and
/// recovered) before any shard starts. The shards themselves cannot fail,
/// only panic — and a panicking shard is isolated into the metrics file's
/// failure list.
pub fn run_grid(
    world: &World,
    kind: CampaignKind,
    shards: &[ShardSpec],
    engine: &Engine,
    faults: Option<FaultProfile>,
    dir: Option<&Path>,
) -> std::io::Result<(Vec<AnyCell>, MetricsFile)> {
    let journals = shards
        .iter()
        .map(|s| dir.map(|dir| CampaignJournal::open(s.journal_path(dir))).transpose())
        .collect::<std::io::Result<Vec<_>>>()?;
    let shards: Vec<Shard<(&ShardSpec, Option<&CampaignJournal>)>> = shards
        .iter()
        .zip(&journals)
        .map(|(s, journal)| Shard::new(s.label.clone(), (s, journal.as_ref())))
        .collect();
    let run = engine.run(shards, |ctx, (spec, journal)| {
        run_shard_work(world, kind, spec, faults, journal, engine.shard_seed(ctx.label()))
    });
    let metrics = MetricsFile::from_run(kind.experiment_name(), &run);
    Ok((run.results, metrics))
}

/// Serialize finished cells into the report the campaign persists:
/// [`OfflineResults::report`] or [`CommercialResults::report`]. The exp
/// binaries in both modes, the coordinator merge and the in-process
/// baseline all call this, so their outputs compare byte-for-byte.
pub fn report_from_cells(kind: CampaignKind, cells: &[AnyCell]) -> String {
    match kind {
        CampaignKind::Offline => OfflineResults::from(cells.to_vec()).report(),
        CampaignKind::Commercial => CommercialResults::from(cells.to_vec()).report(),
    }
}

/// Uninterrupted single-process reference run over the manifest's exact
/// shard grid: [`run_grid`] without journals, then [`report_from_cells`].
/// Returns the serialized report — what a distributed merge must
/// reproduce byte-for-byte — and the metrics file.
pub fn run_baseline(world: &World, manifest: &Manifest, workers: usize) -> (String, MetricsFile) {
    let engine = Engine::new(EngineConfig { workers, seed: manifest.seed });
    let faults = manifest.faults.map(FaultProfile::seeded);
    let (cells, metrics) = run_grid(world, manifest.kind, &manifest.shards, &engine, faults, None)
        .expect("no journal configured, so no I/O can fail");
    (report_from_cells(manifest.kind, &cells), metrics)
}

/// How a worker process should behave.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// The campaign directory (holding `manifest.json`).
    pub dir: PathBuf,
    /// This worker's id, recorded in leases and metrics records.
    pub worker_id: String,
    /// Lease TTL: how long a silent lease stays unbreakable.
    pub ttl: Duration,
    /// Lease renewal interval (must be well under `ttl`).
    pub heartbeat: Duration,
    /// Idle poll interval while other live workers hold all remaining
    /// shards.
    pub poll: Duration,
    /// Fault injection: abort the process at the N-th journal append
    /// (counted across shards).
    pub kill_after: Option<u64>,
    /// Test pacing: sleep this long after every journal append, so an
    /// injected kill reliably lands mid-shard instead of racing shard
    /// completion.
    pub hold: Duration,
}

impl WorkerOptions {
    /// Defaults for a worker on `dir`: 10 s TTL, 1 s heartbeat, 200 ms
    /// poll, no fault injection.
    pub fn new(dir: impl Into<PathBuf>, worker_id: impl Into<String>) -> WorkerOptions {
        WorkerOptions {
            dir: dir.into(),
            worker_id: worker_id.into(),
            ttl: Duration::from_secs(10),
            heartbeat: Duration::from_secs(1),
            poll: Duration::from_millis(200),
            kill_after: None,
            hold: Duration::ZERO,
        }
    }
}

/// What a worker did before exiting cleanly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSummary {
    /// The worker's id.
    pub worker_id: String,
    /// Shards this worker finished (journalled cell + metrics).
    pub shards_run: usize,
    /// Shards that panicked in this process (left for other workers).
    pub shards_failed: usize,
}

/// Run the worker loop: repeatedly sweep the manifest's shards in grid
/// order, claim an unfinished one, run it, and journal the result.
/// Returns when every shard in the campaign has a journalled cell.
///
/// # Errors
///
/// Manifest/journal/lease I-O errors, or every remaining shard having
/// panicked in this process (another worker or a respawn must take
/// them — retrying a deterministic panic locally would spin).
pub fn run_worker(opts: &WorkerOptions) -> Result<WorkerSummary, String> {
    let manifest = Manifest::load(&opts.dir)
        .map_err(|e| format!("worker {}: load manifest: {e}", opts.worker_id))?;
    let world = World::build(manifest.world.clone());
    // The engine is only the seed oracle here: shard seeds are keyed by
    // label, so one worker thread per process still produces exactly
    // the seeds an in-process multi-threaded run would.
    let engine = Engine::new(EngineConfig { workers: 1, seed: manifest.seed });
    let faults = manifest.faults.map(FaultProfile::seeded);
    let appended = Arc::new(AtomicU64::new(0));
    let mut failed: HashSet<String> = HashSet::new();
    let mut summary = WorkerSummary {
        worker_id: opts.worker_id.clone(),
        shards_run: 0,
        shards_failed: 0,
    };
    loop {
        let mut unfinished = 0usize;
        let mut claimable = 0usize;
        let mut attempted = false;
        for spec in &manifest.shards {
            let scan = scan_journal(&spec.journal_path(&opts.dir))
                .map_err(|e| format!("worker {}: scan {}: {e}", opts.worker_id, spec.slug))?;
            if scan.is_finished(&spec.label) {
                continue;
            }
            unfinished += 1;
            if failed.contains(&spec.label) {
                continue;
            }
            claimable += 1;
            let lease_path = spec.lease_path(&opts.dir);
            let Some(lease) = Lease::try_claim(&lease_path, &opts.worker_id, opts.ttl)
                .map_err(|e| format!("worker {}: claim {}: {e}", opts.worker_id, spec.slug))?
            else {
                continue;
            };
            attempted = true;
            match run_leased_shard(
                &world, &manifest, spec, &engine, faults, opts, &appended, lease,
            ) {
                Ok(()) => summary.shards_run += 1,
                Err(message) => {
                    eprintln!("worker {}: shard {}: {message}", opts.worker_id, spec.label);
                    failed.insert(spec.label.clone());
                    summary.shards_failed += 1;
                }
            }
        }
        if unfinished == 0 {
            return Ok(summary);
        }
        if claimable == 0 {
            return Err(format!(
                "worker {}: every remaining shard panicked in this process",
                opts.worker_id
            ));
        }
        if !attempted {
            // Live peers hold every remaining lease; wait for them to
            // finish (or for their leases to go stale).
            std::thread::sleep(opts.poll);
        }
    }
}

/// Run one claimed shard under heartbeat, metrics collection and panic
/// isolation. The lease is always released on the way out — a panicked
/// shard goes straight back on the market instead of waiting out the
/// TTL.
#[allow(clippy::too_many_arguments)]
fn run_leased_shard(
    world: &World,
    manifest: &Manifest,
    spec: &ShardSpec,
    engine: &Engine,
    faults: Option<FaultProfile>,
    opts: &WorkerOptions,
    appended: &Arc<AtomicU64>,
    lease: Lease,
) -> Result<(), String> {
    let journal_path = spec.journal_path(&opts.dir);
    let mut journal = CampaignJournal::open(&journal_path)
        .map_err(|e| format!("open journal {}: {e}", journal_path.display()))?;
    {
        let appended = Arc::clone(appended);
        let kill_after = opts.kill_after;
        let hold = opts.hold;
        journal.set_append_hook(move || {
            let n = appended.fetch_add(1, Ordering::SeqCst) + 1;
            if hold > Duration::ZERO {
                std::thread::sleep(hold);
            }
            if kill_after.is_some_and(|k| n >= k) {
                // SIGKILL-grade death: no unwinding, no flushing — the
                // record that triggered this is already on disk, and
                // nothing after it ever will be.
                std::process::abort();
            }
        });
    }
    let heartbeat = Heartbeat::start(lease, opts.heartbeat);
    let shard_seed = engine.shard_seed(&spec.label);
    let previous = trace::install(Collector::default());
    let started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_shard_work(world, manifest.kind, spec, faults, Some(&journal), shard_seed)
    }));
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let collector = trace::take().unwrap_or_default();
    if let Some(previous) = previous {
        trace::install(previous);
    }
    let (lease, lost) = heartbeat.stop();
    if lost {
        // Someone broke our lease (e.g. this process was stopped past
        // the TTL). The work still journalled deterministically, so any
        // duplicate records are byte-identical; just surface it.
        eprintln!(
            "worker {}: lease for {} was taken over mid-shard (records may duplicate, \
             merge dedupes)",
            opts.worker_id, spec.label
        );
    }
    let result = match outcome {
        Ok(_cell) => {
            // The cell itself was journalled by the shard work; add the
            // worker-attributed metrics record.
            let shard_metrics = collector.finish(spec.label.clone(), wall_ms);
            journal
                .record_metrics(&spec.label, &opts.worker_id, &shard_metrics)
                .map_err(|e| format!("journal metrics: {e}"))
        }
        Err(payload) => Err(format!("panicked: {}", panic_message(payload.as_ref()))),
    };
    let _ = lease.release();
    result
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

    fn tiny_manifest(dir: &std::path::Path) -> Manifest {
        let mut cfg = WorldConfig::quick();
        cfg.attack_samples = 2;
        let manifest = Manifest::new(
            CampaignKind::Offline,
            cfg,
            11,
            None,
            &["GAMMA".into()],
            &["MalConv".into()],
        );
        manifest.save(dir).unwrap();
        manifest
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("mpass-worker-tests")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn worker_runs_manifest_and_matches_baseline() {
        let dir = temp_dir("runs");
        let manifest = tiny_manifest(&dir);
        let world = World::build(manifest.world.clone());
        let (baseline, _) = run_baseline(&world, &manifest, 1);

        let opts = WorkerOptions::new(&dir, "wtest");
        let summary = run_worker(&opts).unwrap();
        assert_eq!(summary.shards_run, 1);
        assert_eq!(summary.shards_failed, 0);

        // The journal now carries the cell and the worker's metrics.
        let spec = &manifest.shards[0];
        let journal = CampaignJournal::open(spec.journal_path(&dir)).unwrap();
        let cell: OfflineCell = journal.shard_cell(&spec.label).expect("cell journalled");
        let (worker, metrics) = journal.shard_metrics(&spec.label).expect("metrics journalled");
        assert_eq!(worker, "wtest");
        assert_eq!(metrics.label, spec.label);
        assert!(metrics.counters.contains_key("queries"), "shard work queried the oracle");

        // One cell serialized through the shared path equals the
        // baseline report.
        let report = report_from_cells(manifest.kind, &[AnyCell::Offline(cell)]);
        assert_eq!(report, baseline);

        // Leases are released, and a second worker sees nothing to do.
        assert!(std::fs::read_dir(dir.join("leases")).unwrap().next().is_none());
        let again = run_worker(&WorkerOptions::new(&dir, "wtest2")).unwrap();
        assert_eq!(again.shards_run, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_target_fails_the_shard_not_the_worker() {
        let dir = temp_dir("unknown-target");
        let mut cfg = WorldConfig::quick();
        cfg.attack_samples = 1;
        let manifest = Manifest::new(
            CampaignKind::Offline,
            cfg,
            11,
            None,
            &["GAMMA".into()],
            &["NoSuchModel".into()],
        );
        manifest.save(&dir).unwrap();
        let err = run_worker(&WorkerOptions::new(&dir, "wbad")).unwrap_err();
        assert!(err.contains("every remaining shard panicked"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
