//! EXP-F3: regenerate Figure 3 (ASR on the five commercial ML AVs).
//!
//! `--processes N` distributes the AV grid across N worker processes
//! (this same binary, re-entered via the hidden `--orchestrate-work`
//! flag); the report is byte-identical to the single-process run's.

use mpass_experiments::commercial::CommercialResults;
use mpass_experiments::orchestrator::{campaign_main, CampaignKind};

fn main() {
    campaign_main(
        CampaignKind::Commercial,
        |_world| {},
        |results: &CommercialResults| println!("{}", results.figure3()),
    );
}
