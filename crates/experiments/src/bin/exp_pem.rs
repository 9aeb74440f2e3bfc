//! EXP-PEM: regenerate the §III-B critical-section finding.

use mpass_experiments::{pem, report, World};

fn main() {
    let args = report::CliArgs::parse(&["--workers"]);
    let world = World::build(args.world_config());
    println!("== detector health ==");
    for (name, acc) in world.detector_health() {
        println!("  {name:<10} accuracy {acc:.3}");
    }
    let n = world.config.attack_samples.min(20);
    let results = pem::run(&world, n);
    println!("{}", results.summary());
    report::publish("exp_pem", &report::to_json(&results), None);
}
