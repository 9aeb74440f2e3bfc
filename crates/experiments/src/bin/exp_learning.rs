//! EXP-F4: regenerate Figure 4 (bypass rate under weekly AV learning).

use mpass_experiments::offline::ATTACK_NAMES;
use mpass_experiments::{commercial, learning, report, World};

fn main() {
    let args = report::CliArgs::parse(&[]);
    let world = World::build(args.world_config());
    let engine = args.engine(world.config.seed);
    let (fig3, _) = commercial::run(&world, &engine, &ATTACK_NAMES);
    let (results, metrics) = learning::run(&world, &fig3, &engine);
    for av in world.avs.iter() {
        use mpass_detectors::Detector;
        println!("{}", results.figure4(av.name()));
    }
    println!(
        "final-week mean bypass: MPass {:.1}%  RLA {:.1}%  MAB {:.1}%  GAMMA {:.1}%  MalRNN {:.1}%",
        results.final_bypass("MPass"),
        results.final_bypass("RLA"),
        results.final_bypass("MAB"),
        results.final_bypass("GAMMA"),
        results.final_bypass("MalRNN"),
    );
    report::publish("exp_learning", &results.report(), Some(&metrics));
}
