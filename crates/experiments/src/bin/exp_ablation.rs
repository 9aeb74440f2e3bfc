//! EXP-T5/T6: regenerate Tables V (Other-sec) and VI (random data), a
//! view over the commercial grid of `ablation::ROSTER`.

use mpass_experiments::ablation::{AblationResults, ROSTER};
use mpass_experiments::commercial::CommercialResults;
use mpass_experiments::orchestrator::{campaign_main, CampaignKind};
use mpass_experiments::report;

fn main() {
    let (grid, metrics): (CommercialResults, _) =
        campaign_main("exp_ablation", CampaignKind::Commercial, &ROSTER, |_| {});
    let results = AblationResults::from(&grid);
    println!("{}", results.table5());
    println!("{}", results.table6());
    report::publish("exp_ablation", &report::to_json(&results), Some(&metrics));
}
