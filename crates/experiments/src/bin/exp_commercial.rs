//! EXP-F3: regenerate Figure 3 (ASR on the five commercial ML AVs).
//!
//! `--processes N` distributes the AV grid across N worker processes
//! (this same binary, re-entered via the hidden `--orchestrate-work`
//! flag); the report is byte-identical to the single-process run's.

use mpass_experiments::commercial::CommercialResults;
use mpass_experiments::offline::ATTACK_NAMES;
use mpass_experiments::orchestrator::{campaign_main, CampaignKind};
use mpass_experiments::report;

fn main() {
    let (results, metrics): (CommercialResults, _) =
        campaign_main("exp_commercial", CampaignKind::Commercial, &ATTACK_NAMES, |_| {});
    println!("{}", results.figure3());
    report::publish("exp_commercial", &results.report(), Some(&metrics));
}
