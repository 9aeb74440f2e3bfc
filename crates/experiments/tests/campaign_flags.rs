//! The campaign flags `--faults`, `--resume` and `--processes` are
//! parsed in one place, `orchestrator::campaign_main`: the four campaign
//! binaries honour them, every other experiment binary refuses them with
//! an error naming the flag, and no binary drops a malformed flag value.

use std::path::Path;
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

fn refuses_campaign_flags(exe: &str) {
    for flag in [&["--faults", "3"][..], &["--resume"], &["--processes", "2"]] {
        let args: Vec<&str> = ["--quick"].iter().chain(flag).copied().collect();
        exits_2_naming(exe, &args, flag[0]);
    }
}

#[test]
fn exp_learning_refuses_campaign_flags() {
    refuses_campaign_flags(env!("CARGO_BIN_EXE_exp_learning"));
}

#[test]
fn exp_all_refuses_campaign_flags() {
    refuses_campaign_flags(env!("CARGO_BIN_EXE_exp_all"));
}

#[test]
fn exp_pem_refuses_campaign_flags() {
    refuses_campaign_flags(env!("CARGO_BIN_EXE_exp_pem"));
}

#[test]
fn exp_design_refuses_campaign_flags() {
    refuses_campaign_flags(env!("CARGO_BIN_EXE_exp_design"));
}

#[test]
fn exp_advtrain_refuses_campaign_flags() {
    refuses_campaign_flags(env!("CARGO_BIN_EXE_exp_advtrain"));
}

#[test]
fn exp_macho_refuses_campaign_flags() {
    refuses_campaign_flags(env!("CARGO_BIN_EXE_exp_macho"));
}

/// A value that does not parse is an error naming its flag, on the
/// shared parser (`exp_pem`) and on the campaign parser (`exp_packers`),
/// never a silent fall-back to the default.
#[test]
fn malformed_flag_values_exit_2_naming_the_flag() {
    let malformed: [(&str, &[&str]); 6] = [
        (env!("CARGO_BIN_EXE_exp_pem"), &["--samples", "x"]),
        (env!("CARGO_BIN_EXE_exp_pem"), &["--workers", "four"]),
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

/// `exp_packers` runs through `campaign_main`, so `--faults` reaches its
/// oracles: the retry layer absorbs the faults, the report is unchanged
/// and the metrics record them.
#[test]
fn exp_packers_honours_faults() {
    let exe = env!("CARGO_BIN_EXE_exp_packers");
    // A fresh directory of its own: the runs write `./results/`.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("packers-faults");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let report = dir.join("results/exp_packers.json");
    let quick = ["--quick", "--samples", "1"];

    let out = run(exe, &quick, &dir);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let reliable = std::fs::read(&report).expect("report written");

    let out = run(exe, &[&quick[..], &["--faults", "3"]].concat(), &dir);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(std::fs::read(&report).expect("report written"), reliable);
    let metrics =
        mpass_engine::MetricsFile::load(&dir.join("results/exp_packers.metrics.json")).unwrap();
    let faults: u64 = metrics
        .shards
        .iter()
        .flat_map(|s| &s.counters)
        .filter(|(name, _)| name.starts_with("oracle/"))
        .map(|(_, n)| n)
        .sum();
    assert!(faults > 0, "no oracle/* counters recorded under --faults");
}
