//! Run the complete evaluation: every table and figure in sequence,
//! sharing one world, one engine (and one Figure-3 AE harvest).

use mpass_experiments::offline::Metric;
use mpass_experiments::{
    ablation, advtrain, commercial, functionality, learning, offline, packers, pem, report,
    World,
};

fn main() {
    let args = report::CliArgs::parse();
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
    let _ = report::save_json("exp_pem", &pem_results);

    let (offline_results, offline_metrics) = offline::run_with_engine(&world, &engine);
    println!("{}", offline_results.table(Metric::Asr));
    println!("{}", offline_results.table(Metric::Avq));
    println!("{}", offline_results.table(Metric::Apr));
    if let Ok(p) = report::save_report("exp_offline", &offline_results.report()) {
        report::save_metrics(&p, &offline_metrics);
    }

    let func = functionality::run(&offline_results);
    println!("{}", func.summary());
    let _ = report::save_json("exp_functionality", &func);

    let (fig3, fig3_metrics) = commercial::run_with_engine(&world, &engine);
    println!("{}", fig3.figure3());

    let (fig4, fig4_metrics) = learning::run_with_engine(&world, &fig3, 4, &engine);
    for av in &world.avs {
        use mpass_detectors::Detector;
        println!("{}", fig4.figure4(av.name()));
    }
    if let Ok(p) = report::save_report("exp_commercial", &fig3.report()) {
        report::save_metrics(&p, &fig3_metrics);
    }
    let slim4: Vec<_> = fig4
        .series
        .iter()
        .map(|s| (s.attack.clone(), s.av.clone(), s.bypass_rate.clone(), s.signatures_learned))
        .collect();
    if let Ok(p) = report::save_json("exp_learning", &(fig4.weeks, slim4)) {
        report::save_metrics(&p, &fig4_metrics);
    }

    let mpass_row: Vec<f64> = (1..=5).map(|i| format!("AV{i}")).map(|av| fig3.cell("MPass", &av).map(|c| c.stats.asr).unwrap_or(0.0)).collect();
    let (t4, t4_metrics) = packers::run_with_engine(&world, &engine, Some(mpass_row.clone()));
    println!("{}", t4.table4());
    if let Ok(p) = report::save_json("exp_packers", &t4) {
        report::save_metrics(&p, &t4_metrics);
    }

    let (ab, ab_metrics) = ablation::run_with_engine(&world, &engine, Some(mpass_row.clone()));
    println!("{}", ab.table5());
    println!("{}", ab.table6());
    if let Ok(p) = report::save_json("exp_ablation", &ab) {
        report::save_metrics(&p, &ab_metrics);
    }

    let adv = advtrain::run(&world);
    println!("{}", adv.summary());
    let _ = report::save_json("exp_advtrain", &adv);

    let des = mpass_experiments::design::run(&world);
    println!("{}", des.summary());
    let _ = report::save_json("exp_design", &des);

    println!("== total {:.1}s ==", t0.elapsed().as_secs_f32());
}
