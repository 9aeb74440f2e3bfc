//! EXP-T4: regenerate Table IV (obfuscators vs MPass on commercial AVs),
//! a view over the commercial grid of `packers::ROSTER`.

use mpass_experiments::commercial::CommercialResults;
use mpass_experiments::orchestrator::{campaign_main, CampaignKind};
use mpass_experiments::packers::{PackerResults, ROSTER};
use mpass_experiments::report;

fn main() {
    let (grid, metrics): (CommercialResults, _) =
        campaign_main("exp_packers", CampaignKind::Commercial, &ROSTER, |_| {});
    let results = PackerResults::from(&grid);
    println!("{}", results.table4());
    report::publish("exp_packers", &report::to_json(&results), Some(&metrics));
}
