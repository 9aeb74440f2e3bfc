//! Cross-process campaign orchestration: spawn a real worker
//! subprocess, SIGKILL it mid-shard, restart coordination, and verify
//! the merged report is byte-identical to an uninterrupted in-process
//! run with no oracle budget double-spent.

use mpass_experiments::journal::scan_journal;
use mpass_experiments::orchestrator::{
    campaign_status, read_events, render_status, run_baseline, run_coordinator, CampaignKind,
    CoordinatorOptions, Manifest,
};
use mpass_experiments::{World, WorldConfig};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn campaign_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mpass-dist-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Total intact records across all shard journals.
fn journalled_records(dir: &std::path::Path, manifest: &Manifest) -> usize {
    manifest
        .shards
        .iter()
        .map(|spec| {
            scan_journal(&spec.journal_path(dir)).map_or(0, |scan| scan.records)
        })
        .sum()
}

#[test]
fn sigkilled_worker_is_reassigned_and_merge_matches_baseline() {
    // Small stateless-attack grid: sample-level resume is what makes a
    // mid-shard kill budget-neutral (stateful attacks get shard-level
    // resume only).
    let mut config = WorldConfig::quick();
    config.attack_samples = 2;
    let manifest = Manifest::new(
        CampaignKind::Offline,
        config.clone(),
        config.seed,
        None,
        &["MPass".into(), "GAMMA".into()],
        &["MalConv".into()],
    );

    // Uninterrupted in-process baseline through the same code path the
    // merge uses.
    let world = World::build(config);
    let (baseline, _) = run_baseline(&world, &manifest, 0);

    let dir = campaign_dir("sigkill");
    manifest.open(&dir, false).expect("campaign dir initializes");

    // A real worker subprocess, paced with --hold-ms so the SIGKILL
    // lands mid-shard (after at least one journalled record, before the
    // shard's finishing records).
    let exe = env!("CARGO_BIN_EXE_mpass");
    let mut victim = Command::new(exe)
        .args(["campaign", "work", "--worker-id", "victim"])
        .arg("--dir")
        .arg(&dir)
        .args(["--ttl-ms", "1500", "--heartbeat-ms", "150", "--hold-ms", "400"])
        .stdout(Stdio::null())
        .spawn()
        .expect("worker spawns");

    // Wait for the first journal append (the worker trains its world
    // first, which dominates the wait), then SIGKILL.
    let deadline = Instant::now() + Duration::from_secs(240);
    while journalled_records(&dir, &manifest) == 0 {
        assert!(Instant::now() < deadline, "worker never journalled a record");
        assert!(
            victim.try_wait().expect("try_wait").is_none(),
            "worker exited before the kill could land"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    victim.kill().expect("SIGKILL the worker");
    let _ = victim.wait();

    // Pre-kill accounting: which samples each shard had already paid
    // oracle queries for.
    let mut pre_kill: Vec<(String, Vec<(String, usize)>)> = Vec::new();
    let mut any_unfinished_with_lease = false;
    for spec in &manifest.shards {
        let scan = scan_journal(&spec.journal_path(&dir)).expect("scan");
        if !scan.is_finished(&spec.label) && spec.lease_path(&dir).exists() {
            any_unfinished_with_lease = true;
        }
        pre_kill
            .push((spec.label.clone(), scan.sample_queries.get(&spec.label).cloned().unwrap_or_default()));
    }
    assert!(
        any_unfinished_with_lease,
        "the kill must land mid-shard (worker was holding a lease of an unfinished shard)"
    );

    // Restart coordination over the half-written directory: the dead
    // worker's lease is broken, fresh workers finish the remainder.
    manifest.open(&dir, true).expect("the same campaign resumes");
    let mut opts =
        CoordinatorOptions::new(&dir, vec![exe.to_owned(), "campaign".into(), "work".into()]);
    opts.processes = 2;
    opts.ttl = Duration::from_millis(1500);
    opts.heartbeat = Duration::from_millis(150);
    opts.poll = Duration::from_millis(100);
    opts.deadline = Some(Duration::from_secs(540));
    let summary = run_coordinator(&manifest, &opts).expect("coordination completes");

    // The acceptance bar: merged output byte-identical to the
    // uninterrupted run, both in memory and on disk.
    assert_eq!(summary.report, baseline, "merged report must be byte-identical to baseline");
    let on_disk = std::fs::read_to_string(&summary.report_path).expect("merged.json");
    assert_eq!(on_disk, baseline, "merged.json bytes must match the baseline");

    // No double-spent oracle budget: every (shard, sample) pair was paid
    // for exactly once, and the pre-kill spend was carried over — not
    // re-bought — by the finishing worker.
    for spec in &manifest.shards {
        let scan = scan_journal(&spec.journal_path(&dir)).expect("scan");
        let samples = scan.sample_queries.get(&spec.label).cloned().unwrap_or_default();
        let mut names: Vec<&str> = samples.iter().map(|(name, _)| name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate sample records in {} journal", spec.label);
        let pre = &pre_kill.iter().find(|(l, _)| l == &spec.label).expect("pre-kill entry").1;
        for (name, queries) in pre {
            assert_eq!(
                samples.iter().find(|(n, _)| n == name).map(|(_, q)| *q),
                Some(*queries),
                "pre-kill spend for {name} must be replayed verbatim, not re-queried"
            );
        }
        assert!(scan.is_finished(&spec.label), "{} must be finished", spec.label);
    }

    // The dead worker's lease was reclaimed: either cleared on
    // coordinator start (dead pid / expired TTL) or broken by the
    // supervision loop.
    let events = read_events(&dir);
    let reclaimed = summary.reassigned > 0
        || events.iter().any(|(event, _, _)| event == "stale_lease_cleared");
    assert!(reclaimed, "the victim's lease must be reclaimed; events: {events:?}");

    // No leases survive a finished campaign.
    let leases: Vec<_> = std::fs::read_dir(dir.join("leases"))
        .map(|entries| entries.flatten().collect())
        .unwrap_or_default();
    assert!(leases.is_empty(), "leases must be released: {leases:?}");

    // The status view reflects the finished campaign.
    let status = campaign_status(&dir).expect("status");
    let rendered = render_status(&status);
    assert!(rendered.contains("finished by"), "{rendered}");
    assert!(status.shards.iter().all(|s| s.finished), "{rendered}");

    let _ = std::fs::remove_dir_all(&dir);
}
