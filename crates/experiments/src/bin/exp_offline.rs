//! EXP-T1/T2/T3: regenerate Tables I (ASR), II (AVQ) and III (APR).
//!
//! `--processes N` distributes the campaign grid across N worker
//! processes (this same binary, re-entered via the hidden
//! `--orchestrate-work` flag); the report is byte-identical to the
//! single-process run's.

use mpass_experiments::offline::{Metric, OfflineResults};
use mpass_experiments::orchestrator::{campaign_main, CampaignKind};

fn main() {
    campaign_main(
        CampaignKind::Offline,
        |world| {
            println!("== detector health ==");
            for (name, acc) in world.detector_health() {
                println!("  {name:<10} accuracy {acc:.3}");
            }
        },
        |results: &OfflineResults| {
            println!("{}", results.table(Metric::Asr));
            println!("{}", results.table(Metric::Avq));
            println!("{}", results.table(Metric::Apr));
        },
    );
}
