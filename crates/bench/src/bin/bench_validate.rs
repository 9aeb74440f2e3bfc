//! Emit validation-throughput measurements (full-trace vs digest vs
//! early-abort) to `results/BENCH_validate.json`.
//!
//! Functionality validation is the per-candidate cost floor of every
//! campaign: each adversarial candidate must be shown to preserve the
//! original's API trace before it counts. The pre-redesign path ran the
//! *original* again for every candidate, materialized both trace vectors
//! and compared them element-wise. The digest path
//! (`Sandbox::baseline_digest` + `Sandbox::validate_batch`) baselines the
//! original once per sample and replays each candidate under a
//! `ComparingSink` that aborts at the first divergent API event.
//!
//! Three candidate waves isolate where the win comes from:
//!
//! * `preserved-wave` — semantics-free edits (timestamp, overlay): every
//!   candidate runs to completion, so the speedup is pure baseline
//!   amortization (one original execution instead of N),
//! * `diverging-wave` — data-corrupted candidates whose traces diverge:
//!   the comparing sink aborts early instead of running each candidate to
//!   its halt, stacking early-abort on top of amortization,
//! * `mixed-wave` — half and half, the realistic campaign mix.
//!
//! Both paths are timed in the same process over the same bytes, one
//! [`PairRow`] per wave in table `digest`. Both sides load every input
//! the way the sandbox does, through the borrowed `PeView`.
//!
//! One more row, `load/pe-load`, times that load alone over the corpus
//! mixed wave: `PeView::parse` plus `map_image_bounded`, which maps each
//! section straight from the candidate's bytes, against
//! `BinaryImage::parse_auto` plus `map_image_bounded`, which copies every
//! section and the overlay before mapping.
//!
//! Usage (see [`mpass_bench::Cli`]):
//!
//! * `bench_validate` — measure and write `results/BENCH_validate.json`,
//! * `--quick` — fewer repetitions (CI smoke),
//! * `--out PATH` — alternative output path,
//! * `--gate PATH` — fail (exit 1) if a row's speedup regressed >20%
//!   against the report at PATH ([`mpass_bench::check_gate`]).

use mpass_bench::{bench_corpus, Cli, PairRow};
use mpass_pe::PeView;
use mpass_sandbox::{BinaryImage, FunctionalityVerdict, Sandbox};
use serde::Serialize;
use std::hint::black_box;

#[derive(Serialize)]
struct ValidateReport {
    /// Human description of the fixture the numbers were taken on.
    fixture: String,
    /// One digest-vs-full-trace row per wave, then the view-vs-owned load
    /// row, µs per candidate.
    rows: Vec<PairRow>,
}

const FIXTURE_DESC: &str = "two originals x 48-candidate waves: corpus- rows use bench sample \
     mal_0 (seed 0xBE7C4, parse-dominated); hot- rows use a synthetic 4096-event API loop \
     (execution-dominated, campaign-representative). Waves: preserved (timestamp/overlay \
     edits), diverging (first API event differs), mixed (24/24). load/pe-load parses and maps \
     the corpus mixed wave";

/// Synthetic execution-dominated original: a loop that emits
/// `HOT_EVENTS` API events before halting, so validation cost is the
/// *run*, not the parse — the regime a real campaign sample sits in.
/// `api` parameterizes the call so a candidate can diverge at event 1
/// while keeping byte length and instruction count identical.
const HOT_EVENTS: i32 = 4096;

fn hot_sample(api: mpass_vm::ApiId) -> Vec<u8> {
    use mpass_vm::{Asm, Instr, Reg};
    let mut asm = Asm::new();
    asm.push(Instr::Movi(Reg::R1, HOT_EVENTS));
    asm.push(Instr::CallApi(api)); // loop body: r0 chains through api_result
    asm.push(Instr::Addi(Reg::R1, -1));
    asm.push(Instr::Jnz(Reg::R1, -24));
    asm.push(Instr::Halt);
    let code = asm.assemble().expect("hot sample assembles");
    let mut pe = mpass_pe::PeBuilder::new();
    pe.add_section(".text", code, mpass_pe::SectionFlags::CODE).expect("section fits");
    pe.set_entry_section(".text", 0).expect("entry resolves");
    pe.build().expect("hot sample builds").to_bytes()
}

/// The pre-redesign validation algorithm, kept verbatim as the timing
/// reference: execute the original *and* the candidate, materialize both
/// trace vectors, compare element-wise.
fn verify_full_trace(sb: &Sandbox, original: &[u8], modified: &[u8]) -> FunctionalityVerdict {
    let Ok(orig_exec) = sb.execute(original) else {
        return FunctionalityVerdict::BrokenParse;
    };
    let Ok(mod_exec) = sb.execute(modified) else {
        return FunctionalityVerdict::BrokenParse;
    };
    if !mod_exec.completed() {
        return FunctionalityVerdict::BrokenExecution { outcome: mod_exec.outcome };
    }
    if orig_exec.trace == mod_exec.trace {
        FunctionalityVerdict::Preserved
    } else {
        let first_divergence = orig_exec
            .trace
            .iter()
            .zip(&mod_exec.trace)
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| orig_exec.trace.len().min(mod_exec.trace.len()));
        FunctionalityVerdict::BrokenBehavior { first_divergence }
    }
}

/// A candidate that preserves behaviour: semantics-free header/overlay
/// edits keyed on `i` so every candidate is distinct bytes.
fn preserved_candidate(original: &mpass_pe::PeFile, i: u32) -> Vec<u8> {
    let mut pe = original.clone();
    pe.set_timestamp(0x5EED_0000 ^ i);
    pe.append_overlay(&i.to_le_bytes());
    pe.to_bytes()
}

/// A candidate whose behaviour diverges: corrupt the data section the
/// sample loads API arguments from, keyed on `i`.
fn diverging_candidate(original: &mpass_pe::PeFile, i: u32) -> Vec<u8> {
    let mut pe = original.clone();
    if let Some(sec) = pe.section_mut(".data") {
        for (j, b) in sec.data_mut().iter_mut().take(128).enumerate() {
            *b = b.wrapping_add(0x5A).rotate_left((i + j as u32) % 8);
        }
    }
    pe.to_bytes()
}

fn measure_wave(
    sb: &Sandbox,
    name: &str,
    original: &[u8],
    candidates: &[Vec<u8>],
    reps: usize,
) -> PairRow {
    let refs: Vec<&[u8]> = candidates.iter().map(Vec::as_slice).collect();
    // Correctness first, outside the timed region: both paths must agree
    // on which candidates preserve functionality.
    let baseline = sb.baseline_digest(original).expect("bench original parses");
    let digest_verdicts = sb.validate_batch(&baseline, &refs);
    for (c, dv) in refs.iter().zip(&digest_verdicts) {
        let fv = verify_full_trace(sb, original, c);
        assert_eq!(
            fv.is_preserved(),
            dv.is_preserved(),
            "{name}: digest path disagrees with full-trace path"
        );
    }

    PairRow::measure(
        "digest",
        name,
        "full-trace re-run of original and candidate",
        refs.len(),
        reps,
        || {
            for c in &refs {
                black_box(verify_full_trace(sb, original, c));
            }
        },
        || {
            let baseline = sb.baseline_digest(original).expect("bench original parses");
            black_box(sb.validate_batch(&baseline, &refs));
        },
    )
}

/// Loading a candidate for execution: the borrowed view against the owned
/// parse, both mapping the image under the sandbox's memory ceiling.
fn measure_load(candidates: &[Vec<u8>], reps: usize) -> PairRow {
    let limit = mpass_vm::VmLimits::default().memory_limit;
    let owned = |c: &[u8]| {
        let image = BinaryImage::parse_auto(c).ok()?;
        image.as_dyn().map_image_bounded(limit).ok()
    };
    let view = |c: &[u8]| PeView::parse(c).ok()?.map_image_bounded(limit).ok();
    // Correctness first, outside the timed region: both loads map the
    // same bytes.
    for c in candidates {
        let mapped = view(c);
        assert!(mapped.is_some(), "pe-load: a candidate does not load");
        assert!(mapped == owned(c), "pe-load: the view maps a different image");
    }
    PairRow::measure(
        "load",
        "pe-load",
        "BinaryImage::parse_auto + map_image_bounded",
        candidates.len(),
        reps,
        || {
            for c in candidates {
                black_box(owned(c));
            }
        },
        || {
            for c in candidates {
                black_box(view(c));
            }
        },
    )
}

fn measure(reps: usize) -> Vec<PairRow> {
    let ds = bench_corpus();
    let sb = Sandbox::new();
    const WAVE: u32 = 48;

    let mut rows = Vec::new();

    // Corpus rows: parse-dominated toy samples — the speedup here is
    // baseline amortization alone.
    let sample = &ds.samples[0];
    let pe = sample.pe().expect("bench sample parses");
    let preserved: Vec<Vec<u8>> = (0..WAVE).map(|i| preserved_candidate(pe, i)).collect();
    let diverging: Vec<Vec<u8>> = (0..WAVE).map(|i| diverging_candidate(pe, i)).collect();
    let mixed: Vec<Vec<u8>> = (0..WAVE)
        .map(|i| {
            if i % 2 == 0 {
                preserved_candidate(pe, i)
            } else {
                diverging_candidate(pe, i)
            }
        })
        .collect();
    rows.push(measure_wave(&sb, "corpus-preserved-wave", &sample.bytes, &preserved, reps));
    rows.push(measure_wave(&sb, "corpus-diverging-wave", &sample.bytes, &diverging, reps));
    rows.push(measure_wave(&sb, "corpus-mixed-wave", &sample.bytes, &mixed, reps));

    // Hot rows: execution-dominated synthetic — early abort pays on top
    // of amortization, the regime the >=5x digest claim is made in.
    let hot_original = hot_sample(mpass_vm::api::READ_FILE);
    let hot_pe = mpass_pe::PeFile::parse(&hot_original).expect("hot sample parses");
    let hot_preserved: Vec<Vec<u8>> =
        (0..WAVE).map(|i| preserved_candidate(&hot_pe, i)).collect();
    let hot_diverging: Vec<Vec<u8>> = (0..WAVE)
        .map(|i| {
            // Same shape, different API id: every event diverges, so the
            // comparing sink aborts at event 1 of HOT_EVENTS.
            let mut pe = mpass_pe::PeFile::parse(&hot_sample(mpass_vm::api::GET_SYSTEM_TIME))
                .expect("hot variant parses");
            pe.set_timestamp(i);
            pe.to_bytes()
        })
        .collect();
    let hot_mixed: Vec<Vec<u8>> = (0..WAVE)
        .map(|i| {
            if i % 2 == 0 {
                hot_preserved[i as usize].clone()
            } else {
                hot_diverging[i as usize].clone()
            }
        })
        .collect();
    rows.push(measure_wave(&sb, "hot-preserved-wave", &hot_original, &hot_preserved, reps));
    rows.push(measure_wave(&sb, "hot-diverging-wave", &hot_original, &hot_diverging, reps));
    rows.push(measure_wave(&sb, "hot-mixed-wave", &hot_original, &hot_mixed, reps));

    // A load pass is ~100× shorter than a wave's validation pass, so it
    // takes 20× the repetitions to settle its minimum.
    rows.push(measure_load(&mixed, 20 * reps));
    rows
}

fn main() {
    let cli = Cli::parse("results/BENCH_validate.json");
    let rows = measure(if cli.quick { 5 } else { 25 });
    let report = ValidateReport { fixture: FIXTURE_DESC.to_owned(), rows };
    cli.finish(&report, &report.rows);
}
