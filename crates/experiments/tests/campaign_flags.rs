//! Experiment binaries that run no journalled, fault-injected or
//! distributed campaign refuse `--faults`, `--resume` and `--processes`
//! with an error naming the flag, instead of silently dropping them.

use std::process::Command;

fn refuses_campaign_flags(exe: &str) {
    // Run from a scratch directory: a binary that failed to refuse would
    // otherwise write its reports under the crate's `results/`.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    for flag in [&["--faults", "3"][..], &["--resume"], &["--processes", "2"]] {
        let out = Command::new(exe)
            .arg("--quick")
            .args(flag)
            .current_dir(dir)
            .output()
            .expect("the binary starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{exe} {flag:?}: {stderr}");
        assert!(stderr.contains(flag[0]), "{exe} {flag:?}: the error must name the flag: {stderr}");
        assert!(out.stdout.is_empty(), "{exe} {flag:?} ran before refusing");
    }
}

#[test]
fn exp_packers_refuses_campaign_flags() {
    refuses_campaign_flags(env!("CARGO_BIN_EXE_exp_packers"));
}

#[test]
fn exp_ablation_refuses_campaign_flags() {
    refuses_campaign_flags(env!("CARGO_BIN_EXE_exp_ablation"));
}

#[test]
fn exp_learning_refuses_campaign_flags() {
    refuses_campaign_flags(env!("CARGO_BIN_EXE_exp_learning"));
}

#[test]
fn exp_functionality_refuses_campaign_flags() {
    refuses_campaign_flags(env!("CARGO_BIN_EXE_exp_functionality"));
}
