//! EXP-T4: regenerate Table IV (obfuscators vs MPass on commercial AVs).

use mpass_experiments::{packers, report, World};

fn main() {
    let args = report::CliArgs::parse_without_campaign_flags("exp_packers");
    let world = World::build(args.world_config());
    let engine = args.engine(world.config.seed);
    let (results, metrics) = packers::run(&world, &engine);
    println!("{}", results.table4());
    match report::save_json("exp_packers", &results) {
        Ok(p) => {
            println!("results written to {}", p.display());
            report::save_metrics(&p, &metrics);
        }
        Err(e) => eprintln!("could not write results: {e}"),
    }
}
