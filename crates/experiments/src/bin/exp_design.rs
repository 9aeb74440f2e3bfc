//! EXP-DESIGN: ablations of MPass's own design choices (shuffle,
//! ensemble size, init source, optimization budget).

use mpass_experiments::{design, report, World};

fn main() {
    let args = report::CliArgs::parse(&["--workers"]);
    let world = World::build(args.world_config());
    let results = design::run(&world);
    println!("{}", results.summary());
    report::publish("exp_design", &report::to_json(&results), None);
}
