//! EXP-ADV: §VI adversarial-training evaluation.

use mpass_experiments::{advtrain, report, World};

fn main() {
    let args = report::CliArgs::parse(&["--workers"]);
    let world = World::build(args.world_config());
    let results = advtrain::run(&world);
    println!("{}", results.summary());
    report::publish("exp_advtrain", &report::to_json(&results), None);
}
