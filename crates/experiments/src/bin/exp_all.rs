//! Run the complete evaluation: every table and figure in sequence,
//! sharing one world, one engine and one commercial grid (Figure 3 and
//! Tables IV–VI are cuts of it; its Figure-3 AEs feed Figure 4).

use mpass_experiments::ablation::AblationResults;
use mpass_experiments::offline::{Metric, ATTACK_NAMES};
use mpass_experiments::packers::PackerResults;
use mpass_experiments::{
    ablation, advtrain, commercial, functionality, learning, offline, packers, pem, report,
    World,
};

fn main() {
    let args = report::CliArgs::parse(&[]);
    let t0 = std::time::Instant::now();
    let world = World::build(args.world_config());
    let engine = args.engine(world.config.seed);
    println!("== world built in {:.1}s ==", t0.elapsed().as_secs_f32());
    println!("== detector health ==");
    for (name, acc) in world.detector_health() {
        println!("  {name:<10} accuracy {acc:.3}");
    }

    let pem_results = pem::run(&world, world.config.attack_samples.min(20));
    println!("{}", pem_results.summary());
    report::publish("exp_pem", &report::to_json(&pem_results), None);

    let (offline_results, offline_metrics) = offline::run(&world, &engine);
    println!("{}", offline_results.table(Metric::Asr));
    println!("{}", offline_results.table(Metric::Avq));
    println!("{}", offline_results.table(Metric::Apr));
    report::publish("exp_offline", &offline_results.report(), Some(&offline_metrics));

    let func = functionality::run(&offline_results);
    println!("{}", func.summary());
    report::publish("exp_functionality", &report::to_json(&func), None);

    // Every (attack, AV) shard of Figure 3 and Tables IV–VI runs once,
    // MPass's included; its metrics go next to exp_commercial.json.
    let mut roster = ATTACK_NAMES.to_vec();
    for name in packers::ROSTER.into_iter().chain(ablation::ROSTER) {
        if !roster.contains(&name) {
            roster.push(name);
        }
    }
    let (grid, grid_metrics) = commercial::run(&world, &engine, &roster);
    let t4 = PackerResults::from(&grid);
    let ab = AblationResults::from(&grid);
    let mut fig3 = grid;
    fig3.cells.retain(|c| ATTACK_NAMES.contains(&c.attack.as_str()));
    println!("{}", fig3.figure3());

    let (fig4, fig4_metrics) = learning::run(&world, &fig3, &engine);
    for av in &world.avs {
        use mpass_detectors::Detector;
        println!("{}", fig4.figure4(av.name()));
    }
    report::publish("exp_commercial", &fig3.report(), Some(&grid_metrics));
    report::publish("exp_learning", &fig4.report(), Some(&fig4_metrics));

    println!("{}", t4.table4());
    report::publish("exp_packers", &report::to_json(&t4), None);

    println!("{}", ab.table5());
    println!("{}", ab.table6());
    report::publish("exp_ablation", &report::to_json(&ab), None);

    let adv = advtrain::run(&world);
    println!("{}", adv.summary());
    report::publish("exp_advtrain", &report::to_json(&adv), None);

    let des = mpass_experiments::design::run(&world);
    println!("{}", des.summary());
    report::publish("exp_design", &report::to_json(&des), None);

    println!("== total {:.1}s ==", t0.elapsed().as_secs_f32());
}
