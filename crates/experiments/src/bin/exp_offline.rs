//! EXP-T1/T2/T3 and EXP-FUNC: regenerate Tables I (ASR), II (AVQ) and
//! III (APR), and the §IV-A functionality check of their AEs.
//!
//! `--processes N` distributes the campaign grid across N worker
//! processes (this same binary, re-entered via the hidden
//! `--orchestrate-work` flag); the reports are byte-identical to the
//! single-process run's.

use mpass_experiments::offline::{Metric, OfflineResults, ATTACK_NAMES};
use mpass_experiments::orchestrator::{campaign_main, CampaignKind};
use mpass_experiments::{functionality, report};

fn main() {
    let (results, metrics): (OfflineResults, _) =
        campaign_main("exp_offline", CampaignKind::Offline, &ATTACK_NAMES, |world| {
            println!("== detector health ==");
            for (name, acc) in world.detector_health() {
                println!("  {name:<10} accuracy {acc:.3}");
            }
        });
    println!("{}", results.table(Metric::Asr));
    println!("{}", results.table(Metric::Avq));
    println!("{}", results.table(Metric::Apr));
    let func = functionality::run(&results);
    println!("{}", func.summary());
    report::publish("exp_offline", &results.report(), Some(&metrics));
    report::publish("exp_functionality", &report::to_json(&func), None);
}
