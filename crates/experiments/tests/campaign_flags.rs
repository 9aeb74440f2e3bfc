//! The campaign flags `--faults`, `--resume` and `--processes` are
//! parsed in one place, `orchestrator::campaign_main`: the four campaign
//! binaries honour them, every other experiment binary refuses them — and
//! any shared flag it does not use — with an error naming the flag, and
//! no binary drops a malformed flag value. A campaign keeps one directory,
//! `results/<experiment>.campaign/`, in both modes: either mode resumes
//! what the other left, and a resume under other flags is refused.

use mpass_engine::MetricsFile;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn run(exe: &str, args: &[&str], dir: &Path) -> Output {
    Command::new(exe).args(args).current_dir(dir).output().expect("the binary starts")
}

/// `exe args` must exit 2 with an error naming `flag`, before printing
/// anything to stdout. A binary that failed to refuse would write its
/// reports under the shared temporary directory, not the crate's.
fn exits_2_naming(exe: &str, args: &[&str], flag: &str) {
    let out = run(exe, args, Path::new(env!("CARGO_TARGET_TMPDIR")));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{exe} {args:?}: {stderr}");
    assert!(stderr.contains(flag), "{exe} {args:?}: the error must name {flag}: {stderr}");
    assert!(out.stdout.is_empty(), "{exe} {args:?} ran before refusing");
}

/// `exe` refuses the three campaign flags and each flag of `ignored`,
/// the shared flags it does not honour.
fn refuses_campaign_flags(exe: &str, ignored: &[&[&str]]) {
    let campaign: [&[&str]; 3] = [&["--faults", "3"], &["--resume"], &["--processes", "2"]];
    for flag in campaign.iter().chain(ignored) {
        let args: Vec<&str> = ["--quick"].iter().chain(*flag).copied().collect();
        exits_2_naming(exe, &args, flag[0]);
    }
}

#[test]
fn exp_learning_refuses_campaign_flags() {
    refuses_campaign_flags(env!("CARGO_BIN_EXE_exp_learning"), &[]);
}

#[test]
fn exp_all_refuses_campaign_flags() {
    refuses_campaign_flags(env!("CARGO_BIN_EXE_exp_all"), &[]);
}

#[test]
fn exp_pem_refuses_campaign_flags() {
    refuses_campaign_flags(env!("CARGO_BIN_EXE_exp_pem"), &[&["--workers", "1"]]);
}

#[test]
fn exp_design_refuses_campaign_flags() {
    refuses_campaign_flags(env!("CARGO_BIN_EXE_exp_design"), &[&["--workers", "1"]]);
}

#[test]
fn exp_advtrain_refuses_campaign_flags() {
    refuses_campaign_flags(env!("CARGO_BIN_EXE_exp_advtrain"), &[&["--workers", "1"]]);
}

#[test]
fn exp_macho_refuses_campaign_flags() {
    refuses_campaign_flags(
        env!("CARGO_BIN_EXE_exp_macho"),
        &[&["--samples", "1"], &["--workers", "1"]],
    );
}

/// A value that does not parse is an error naming its flag, on the
/// shared parser (`exp_pem`) and on the campaign parser (`exp_packers`),
/// never a silent fall-back to the default.
#[test]
fn malformed_flag_values_exit_2_naming_the_flag() {
    let malformed: [(&str, &[&str]); 6] = [
        (env!("CARGO_BIN_EXE_exp_pem"), &["--samples", "x"]),
        (env!("CARGO_BIN_EXE_exp_learning"), &["--workers", "four"]),
        (env!("CARGO_BIN_EXE_exp_packers"), &["--samples", "x"]),
        (env!("CARGO_BIN_EXE_exp_packers"), &["--workers", "four"]),
        (env!("CARGO_BIN_EXE_exp_packers"), &["--faults", "abc"]),
        (env!("CARGO_BIN_EXE_exp_packers"), &["--processes", "two"]),
    ];
    for (exe, flag) in malformed {
        let args: Vec<&str> = ["--quick"].iter().chain(flag).copied().collect();
        exits_2_naming(exe, &args, flag[0]);
    }
}

/// A fresh working directory of its own for a test whose runs write
/// `./results/`.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// Run `exe args` in `dir`, require success, and return the report
/// `results/<name>.json` it wrote and its metrics file.
fn run_ok(exe: &str, args: &[&str], dir: &Path, name: &str) -> (Vec<u8>, MetricsFile) {
    let out = run(exe, args, dir);
    assert!(out.status.success(), "{exe} {args:?}: {}", String::from_utf8_lossy(&out.stderr));
    let results = dir.join("results");
    let report = std::fs::read(results.join(format!("{name}.json"))).expect("report written");
    let metrics =
        MetricsFile::load(&results.join(format!("{name}.metrics.json"))).expect("metrics written");
    (report, metrics)
}

const QUICK_1: [&str; 3] = ["--quick", "--samples", "1"];

/// `exp_packers` runs through `campaign_main`, so `--faults` reaches its
/// oracles: the retry layer absorbs the faults, the report is unchanged
/// and the metrics record them.
#[test]
fn exp_packers_honours_faults() {
    let exe = env!("CARGO_BIN_EXE_exp_packers");
    let dir = scratch("packers-faults");
    let (reliable, _) = run_ok(exe, &QUICK_1, &dir, "exp_packers");
    let faulted = [&QUICK_1[..], &["--faults", "3"]].concat();
    let (faulted, metrics) = run_ok(exe, &faulted, &dir, "exp_packers");
    assert_eq!(faulted, reliable);
    let faults: u64 = metrics
        .shards
        .iter()
        .flat_map(|s| &s.counters)
        .filter(|(name, _)| name.starts_with("oracle/"))
        .map(|(_, n)| n)
        .sum();
    assert!(faults > 0, "no oracle/* counters recorded under --faults");
}

/// A resume refuses to mix a campaign with other flags into the stored
/// one, in process and distributed alike: it exits 2 before running
/// anything and leaves the finished report as it was.
#[test]
fn resume_under_other_flags_exits_2_in_both_modes() {
    let exe = env!("CARGO_BIN_EXE_exp_offline");
    let dir = scratch("offline-resume-guard");
    let (report, _) = run_ok(exe, &QUICK_1, &dir, "exp_offline");
    for mode in [&[][..], &["--processes", "2"]] {
        let args = [&["--quick", "--samples", "2", "--resume"][..], mode].concat();
        let out = run(exe, &args, &dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("--resume"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran before refusing");
        assert_eq!(std::fs::read(dir.join("results/exp_offline.json")).unwrap(), report);
    }
}

/// A finished in-process campaign resumed with `--processes 2` is merged
/// straight from its journals: same report bytes, no worker spawned.
#[test]
fn finished_in_process_run_resumes_distributed_without_workers() {
    let exe = env!("CARGO_BIN_EXE_exp_offline");
    let dir = scratch("offline-resume-distributed");
    let (report, _) = run_ok(exe, &QUICK_1, &dir, "exp_offline");
    let resume = [&QUICK_1[..], &["--processes", "2", "--resume"]].concat();
    let (resumed, metrics) = run_ok(exe, &resume, &dir, "exp_offline");
    assert_eq!(resumed, report);
    let coordinator =
        metrics.shards.iter().find(|s| s.label == "coordinator").expect("coordinator metrics");
    assert_eq!(coordinator.counters.get("campaign/workers_spawned"), Some(&0));
}

/// A finished distributed campaign resumed in process replays every
/// shard from the journals the workers wrote: same report bytes, and
/// every shard counts `campaign/shard_resumed`.
#[test]
fn finished_distributed_run_resumes_in_process() {
    let exe = env!("CARGO_BIN_EXE_exp_offline");
    let dir = scratch("offline-resume-in-process");
    let distributed = [&QUICK_1[..], &["--processes", "2"]].concat();
    let (report, _) = run_ok(exe, &distributed, &dir, "exp_offline");
    let resume = [&QUICK_1[..], &["--resume"]].concat();
    let (resumed, metrics) = run_ok(exe, &resume, &dir, "exp_offline");
    assert_eq!(resumed, report);
    assert_eq!(metrics.shards.len(), 20, "one metrics entry per offline shard");
    for shard in &metrics.shards {
        assert_eq!(shard.counters.get("campaign/shard_resumed"), Some(&1), "{}", shard.label);
        assert!(!shard.counters.contains_key("queries"), "{} queried again", shard.label);
    }
}
