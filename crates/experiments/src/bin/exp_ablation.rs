//! EXP-T5/T6: regenerate Tables V (Other-sec) and VI (random data).

use mpass_experiments::{ablation, report, World};

fn main() {
    let args = report::CliArgs::parse_without_campaign_flags("exp_ablation");
    let world = World::build(args.world_config());
    let engine = args.engine(world.config.seed);
    let (results, metrics) = ablation::run(&world, &engine);
    println!("{}", results.table5());
    println!("{}", results.table6());
    match report::save_json("exp_ablation", &results) {
        Ok(p) => {
            println!("results written to {}", p.display());
            report::save_metrics(&p, &metrics);
        }
        Err(e) => eprintln!("could not write results: {e}"),
    }
}
