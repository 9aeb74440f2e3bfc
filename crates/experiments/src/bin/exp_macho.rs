//! EXP-MACHO: the multi-format demo — MPass against detectors trained on
//! an all-Mach-O corpus, through the same `BinaryFormat`-generic pipeline
//! that produces the PE tables.

use mpass_experiments::{macho_demo, report};

fn main() {
    let config = if report::CliArgs::parse(&["--samples", "--workers"]).quick {
        macho_demo::MachoDemoConfig::quick()
    } else {
        macho_demo::MachoDemoConfig::full()
    };
    let results = macho_demo::run(&config);
    println!("{}", results.summary());
    report::publish("exp_macho", &report::to_json(&results), None);
}
