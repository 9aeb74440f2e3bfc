//! Crash-safe resume contract: a campaign killed mid-shard (here: a
//! shard that journals part of its work and then panics) must leave a
//! recoverable journal, and a resumed run must reproduce the reference
//! results bit-identically — replayed samples and shards included.

use mpass::engine::metrics::{self, Collector};
use mpass::engine::{Engine, EngineConfig, Shard};
use mpass_experiments::offline::{make_attack, OfflineCell};
use mpass_experiments::orchestrator::{run_shard_work, CampaignKind, ShardSpec};
use mpass_experiments::{CampaignJournal, World, WorldConfig};
use std::path::PathBuf;

const CRASH_SHARD: &str = "MPass vs MalConv";
const CLEAN_SHARD: &str = "GAMMA vs MalConv";

fn quick_world() -> World {
    let mut cfg = WorldConfig::quick();
    cfg.attack_samples = 3;
    World::build(cfg)
}

fn journal_path() -> PathBuf {
    std::env::temp_dir().join(format!("mpass-kill-resume-{}.jsonl", std::process::id()))
}

fn run_shard(
    world: &World,
    label: &str,
    journal: Option<&CampaignJournal>,
) -> (OfflineCell, std::collections::BTreeMap<String, u64>) {
    let attack_name = label.split(' ').next().expect("label is `<attack> vs <target>`");
    let spec = ShardSpec::new(0, attack_name, "MalConv");
    assert_eq!(spec.label, label);
    let previous = metrics::install(Collector::default());
    let cell = run_shard_work(world, CampaignKind::Offline, &spec, None, journal, 7).into_offline();
    let collected = metrics::take().unwrap_or_default().finish(label, 0.0);
    if let Some(previous) = previous {
        metrics::install(previous);
    }
    (cell, collected.counters)
}

#[test]
fn killed_campaign_resumes_bit_identically() {
    let world = quick_world();
    let path = journal_path();
    let _ = std::fs::remove_file(&path);

    // Reference: both shards, no journal, no crash.
    let (reference_crash, _) = run_shard(&world, CRASH_SHARD, None);
    let (reference_clean, _) = run_shard(&world, CLEAN_SHARD, None);

    // "Kill" run: the engine executes both shards against a journal;
    // the clean shard finishes, the other journals its first sample and
    // then dies. catch_unwind isolation means the run itself completes.
    let journal = CampaignJournal::open(&path).expect("journal opens");
    {
        let journal = &journal;
        let world = &world;
        let engine = Engine::new(EngineConfig { workers: 2, seed: 1 });
        let shards =
            vec![Shard::new(CLEAN_SHARD, CLEAN_SHARD), Shard::new(CRASH_SHARD, CRASH_SHARD)];
        let run = engine.run(shards, |_ctx, label| {
            if label == CRASH_SHARD {
                let mut attack = make_attack(world, "MalConv", "MPass");
                let sample = world.attack_set(&world.malconv)[0];
                let mut target = mpass::core::HardLabelTarget::new(
                    &world.malconv,
                    world.config.max_queries,
                );
                let outcome = attack.attack(sample, &mut target);
                journal.record_sample(CRASH_SHARD, &outcome).expect("journal append");
                panic!("simulated crash after one journalled sample");
            }
            let spec = ShardSpec::new(0, "GAMMA", "MalConv");
            run_shard_work(world, CampaignKind::Offline, &spec, None, Some(journal), 7)
        });
        assert_eq!(run.failures.len(), 1, "exactly the crash shard fails");
        assert_eq!(run.failures[0].label, CRASH_SHARD);
        assert_eq!(run.results.len(), 1, "the clean shard still completes");
    }
    drop(journal);

    // Resume: the journal recovered from the "killed" process replays
    // the clean shard wholesale and the crash shard's finished sample.
    let journal = CampaignJournal::open(&path).expect("journal opens");
    let clean_samples = world.attack_set(&world.malconv).len();
    assert_eq!(
        journal.recovered_samples(),
        1 + clean_samples,
        "crash shard's one sample plus every clean-shard sample"
    );

    let (resumed_crash, crash_counters) = run_shard(&world, CRASH_SHARD, Some(&journal));
    let (resumed_clean, clean_counters) = run_shard(&world, CLEAN_SHARD, Some(&journal));

    assert_eq!(
        format!("{reference_crash:?}"),
        format!("{resumed_crash:?}"),
        "resumed crash-shard cell must be bit-identical to the reference"
    );
    assert_eq!(format!("{reference_clean:?}"), format!("{resumed_clean:?}"));
    assert_eq!(
        crash_counters.get("campaign/sample_resumed"),
        Some(&1),
        "the journalled sample is replayed, not re-attacked"
    );
    assert_eq!(clean_counters.get("campaign/shard_resumed"), Some(&1));
    assert!(!clean_counters.contains_key("queries"), "a resumed shard never queries");

    std::fs::remove_file(&path).unwrap();
}

/// A kill can also land mid-write. The journal must shrug off a torn
/// trailing record and resume from the last intact line.
#[test]
fn torn_journal_tail_still_resumes() {
    let world = quick_world();
    let path =
        std::env::temp_dir().join(format!("mpass-torn-resume-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let (reference, _) = run_shard(&world, CRASH_SHARD, None);

    // Journal the full shard, then simulate a kill mid-append.
    let journal = CampaignJournal::open(&path).unwrap();
    let (first, _) = run_shard(&world, CRASH_SHARD, Some(&journal));
    assert_eq!(format!("{reference:?}"), format!("{first:?}"));
    drop(journal);
    {
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"{\"kind\":\"sample\",\"shard\":\"MPass vs Mal").unwrap();
    }

    let journal = CampaignJournal::open(&path).unwrap();
    let (resumed, counters) = run_shard(&world, CRASH_SHARD, Some(&journal));
    assert_eq!(format!("{reference:?}"), format!("{resumed:?}"));
    assert_eq!(counters.get("campaign/shard_resumed"), Some(&1));

    std::fs::remove_file(&path).unwrap();
}
