//! EXP-FUNC: §IV-A functionality verification of all offline-campaign AEs.

use mpass_experiments::{functionality, offline, report, World};

fn main() {
    let args = report::CliArgs::parse_without_campaign_flags("exp_functionality");
    let world = World::build(args.world_config());
    let (offline_results, _) = offline::run(&world, &args.engine(world.config.seed));
    let results = functionality::run(&offline_results);
    println!("{}", results.summary());
    match report::save_json("exp_functionality", &results) {
        Ok(p) => println!("results written to {}", p.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }
}
