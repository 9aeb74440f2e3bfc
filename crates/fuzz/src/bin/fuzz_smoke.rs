//! Deterministic fuzz smoke run: mutate seed images and check every
//! ingestion contract, failing the process on the first violations.
//! Runs two campaigns of `--iterations` each — a PE campaign through
//! [`check_bytes`] and a Mach-O campaign through [`check_macho_bytes`]
//! — from independent deterministic streams. Every mutant of both also
//! goes through [`check_features`], the detectors' feature extraction.
//!
//! ```text
//! fuzz_smoke [--iterations N] [--seed S] [--save-dir DIR]
//! ```
//!
//! The default configuration (seed `0x4D50_6153_5346_555A`, 10 000
//! iterations per format) is what CI runs; a campaign is a pure
//! function of its arguments, so any reported iteration reproduces
//! exactly.

use mpass_fuzz::harness::{check_bytes, check_features, check_macho_bytes, silence_panics};
use mpass_fuzz::minimize::minimize;
use mpass_fuzz::mutate::{MachoMutator, Mutator};
use mpass_fuzz::seeds::{macho_seed_images, seed_images};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const DEFAULT_SEED: u64 = 0x4D50_6153_5346_555A; // "MPaSSFUZ"
const DEFAULT_ITERATIONS: u64 = 10_000;
const MAX_REPORTED: usize = 10;

fn parse_args() -> (u64, u64, Option<String>) {
    let mut iterations = DEFAULT_ITERATIONS;
    let mut seed = DEFAULT_SEED;
    let mut save_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("fuzz_smoke: {name} requires a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--iterations" => {
                iterations = value("--iterations").parse().unwrap_or_else(|e| {
                    eprintln!("fuzz_smoke: bad --iterations: {e}");
                    std::process::exit(2);
                })
            }
            "--seed" => {
                seed = value("--seed").parse().unwrap_or_else(|e| {
                    eprintln!("fuzz_smoke: bad --seed: {e}");
                    std::process::exit(2);
                })
            }
            "--save-dir" => save_dir = Some(value("--save-dir")),
            other => {
                eprintln!("fuzz_smoke: unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    (iterations, seed, save_dir)
}

/// Run one `iterations`-long campaign: mutate seeds, check the format's
/// contracts, minimize and optionally save violations. Returns the
/// violation count.
#[allow(clippy::too_many_arguments)]
fn campaign(
    label: &str,
    seeds: &[Vec<u8>],
    mut mutate: impl FnMut(&[u8], &[u8]) -> Vec<u8>,
    check: impl Fn(&[u8]) -> Result<(), String>,
    iterations: u64,
    seed: u64,
    picker_salt: u64,
    save_dir: Option<&str>,
) -> usize {
    let mut picker = ChaCha8Rng::seed_from_u64(seed ^ picker_salt);
    let mut failures = 0usize;
    for i in 0..iterations {
        let base = &seeds[picker.gen_range(0..seeds.len())];
        let donor = &seeds[picker.gen_range(0..seeds.len())];
        let mutant = mutate(base, donor);
        if let Err(why) = check(&mutant) {
            failures += 1;
            eprintln!("{label} iteration {i}: {why}");
            let shrunk = minimize(&mutant, |b| check(b).is_err());
            eprintln!("  minimized from {} to {} bytes", mutant.len(), shrunk.len());
            if let Some(dir) = save_dir {
                let _ = std::fs::create_dir_all(dir);
                let path = format!("{dir}/crash-{label}-{seed:016x}-{i}.bin");
                match std::fs::write(&path, &shrunk) {
                    Ok(()) => eprintln!("  saved {path}"),
                    Err(e) => eprintln!("  could not save {path}: {e}"),
                }
            }
            if failures >= MAX_REPORTED {
                eprintln!("{label}: stopping after {MAX_REPORTED} failures");
                break;
            }
        }
    }
    failures
}

fn main() {
    let (iterations, seed, save_dir) = parse_args();
    silence_panics();

    let pe_seeds = seed_images(seed);
    let mut pe_mutator = Mutator::new(seed);
    let pe_failures = campaign(
        "pe",
        &pe_seeds,
        |b, d| pe_mutator.mutate(b, d),
        |b| check_bytes(b).and_then(|()| check_features(b)),
        iterations,
        seed,
        0x9E37_79B9_7F4A_7C15,
        save_dir.as_deref(),
    );

    let macho_seeds = macho_seed_images(seed);
    let mut macho_mutator = MachoMutator::new(seed ^ 0x4D41_4348_4F21_0000); // "MACHO!"
    let macho_failures = campaign(
        "macho",
        &macho_seeds,
        |b, d| macho_mutator.mutate(b, d),
        |b| check_macho_bytes(b).and_then(|()| check_features(b)),
        iterations,
        seed,
        0xC2B2_AE3D_27D4_EB4F,
        save_dir.as_deref(),
    );

    let failures = pe_failures + macho_failures;
    println!(
        "fuzz_smoke: seed {seed:#x}, {iterations} iterations per format, {} PE + {} Mach-O seed images, {failures} contract violations ({pe_failures} pe, {macho_failures} macho)",
        pe_seeds.len(),
        macho_seeds.len()
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
