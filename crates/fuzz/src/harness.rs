//! The fuzz oracle: one function per container format that checks every
//! ingestion contract against one byte string.

use mpass_binary::Loadable;
use mpass_macho::MachoFile;
use mpass_pe::{PeFile, PeView};
use mpass_vm::{disassemble, DigestSink, RunSummary, TraceDigest, Vm, VmLimits};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Resource ceilings fuzz executions run under: tight enough that ten
/// thousand iterations finish in seconds, generous enough that real
/// control flow (loops, unpacker stubs, API floods) still executes.
pub fn fuzz_limits() -> VmLimits {
    VmLimits {
        step_limit: 65_536,
        memory_limit: 32 << 20,
        trace_limit: 4_096,
        jump_chain_limit: 16_384,
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Install a no-op panic hook so harness-caught panics do not spray
/// backtraces over a ten-thousand-iteration run. Call once per process,
/// from binaries only.
pub fn silence_panics() {
    std::panic::set_hook(Box::new(|_| {}));
}

/// Check every ingestion contract against `bytes`.
///
/// A graceful parse *rejection* is a pass — hostile bytes are supposed
/// to be turned away. `Err` describes the violated contract:
///
/// * `PeFile::parse` or `PeView::parse` panicked;
/// * the view, copied to an owned image, differs from the owned parse
///   (or the two reject with different errors);
/// * the accepted image does not round-trip (`to_bytes` panicked,
///   its output no longer parses, or it parses to a different image);
/// * `disassemble` panicked on a section's bytes;
/// * `Vm::run` panicked (resource exhaustion and faults are graceful
///   terminations, not violations);
/// * the view maps a different image than the owned parse, or a VM
///   loaded from the view runs differently (outcome, steps, trace
///   digest) from one loaded from the owned parse.
pub fn check_bytes(bytes: &[u8]) -> Result<(), String> {
    let parsed = catch_unwind(AssertUnwindSafe(|| PeFile::parse(bytes)))
        .map_err(|p| format!("PeFile::parse panicked: {}", panic_message(&*p)))?;
    let viewed = catch_unwind(AssertUnwindSafe(|| PeView::parse(bytes)))
        .map_err(|p| format!("PeView::parse panicked: {}", panic_message(&*p)))?;
    if viewed.as_ref().map(PeView::to_owned).map_err(Clone::clone) != parsed {
        return Err("PeView::parse disagrees with PeFile::parse".to_owned());
    }
    let (Ok(pe), Ok(view)) = (parsed, viewed) else {
        return Ok(());
    };

    let round = catch_unwind(AssertUnwindSafe(|| PeFile::parse(&pe.to_bytes())))
        .map_err(|p| format!("round trip panicked: {}", panic_message(&*p)))?;
    match round {
        Ok(pe2) if pe2 == pe => {}
        Ok(_) => return Err("round trip parsed to a different image".to_owned()),
        Err(e) => return Err(format!("round trip failed to re-parse: {e}")),
    }

    for section in pe.sections() {
        let name = section.name();
        catch_unwind(AssertUnwindSafe(|| {
            let _ = disassemble(section.data());
        }))
        .map_err(|p| {
            format!("disassemble panicked on section {name:?}: {}", panic_message(&*p))
        })?;
    }

    let limit = fuzz_limits().memory_limit;
    if view.map_image_bounded(limit) != pe.map_image_bounded(limit) {
        return Err("the view maps a different image than the owned parse".to_owned());
    }
    if run_digest(&view)? != run_digest(&pe)? {
        return Err("a VM loaded from the view runs differently".to_owned());
    }
    Ok(())
}

/// Run `image` under [`fuzz_limits`] through a [`DigestSink`]. The
/// VM-terminates property holds under the streaming sink API too: a
/// digest sink materializes no trace, so exhaustion/fault handling is
/// exercised without the recording sink's capacity backstop.
fn run_digest(image: &dyn Loadable) -> Result<(RunSummary, TraceDigest), String> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut sink = DigestSink::new();
        let run = Vm::load_binary(image, fuzz_limits()).run_with_sink(&mut sink);
        (run, sink.digest())
    }))
    .map_err(|p| format!("Vm::run panicked: {}", panic_message(&*p)))
}

/// Check every ingestion contract against `bytes` through the Mach-O
/// backend — the exact mirror of [`check_bytes`]:
///
/// * `MachoFile::parse` (and `parse_strict`) never panic;
/// * an accepted image round-trips through `to_bytes` to an equal image;
/// * `disassemble` never panics on a section's bytes;
/// * `Vm::run` on the loaded image terminates gracefully.
pub fn check_macho_bytes(bytes: &[u8]) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| {
        let _ = MachoFile::parse_strict(bytes);
    }))
    .map_err(|p| format!("MachoFile::parse_strict panicked: {}", panic_message(&*p)))?;
    let parsed = catch_unwind(AssertUnwindSafe(|| MachoFile::parse(bytes)))
        .map_err(|p| format!("MachoFile::parse panicked: {}", panic_message(&*p)))?;
    let Ok(m) = parsed else {
        return Ok(());
    };

    let round = catch_unwind(AssertUnwindSafe(|| MachoFile::parse(&m.to_bytes())))
        .map_err(|p| format!("round trip panicked: {}", panic_message(&*p)))?;
    match round {
        Ok(m2) if m2 == m => {}
        Ok(_) => return Err("round trip parsed to a different image".to_owned()),
        Err(e) => return Err(format!("round trip failed to re-parse: {e}")),
    }

    for i in 0..m.section_count() {
        let Some((_, sec)) = m.section_at(i) else { continue };
        let name = sec.name();
        catch_unwind(AssertUnwindSafe(|| {
            let _ = disassemble(&sec.data);
        }))
        .map_err(|p| {
            format!("disassemble panicked on section {name:?}: {}", panic_message(&*p))
        })?;
    }

    run_digest(&m)?;
    Ok(())
}

/// Check the feature path every LightGBM and commercial-AV query runs on
/// attacker-shaped bytes: `features::extract` must not panic and must
/// yield `FEATURE_DIM` values, whatever the bytes parse to.
pub fn check_features(bytes: &[u8]) -> Result<(), String> {
    use mpass_detectors::features::{extract, FEATURE_DIM};
    let features = catch_unwind(AssertUnwindSafe(|| extract(bytes)))
        .map_err(|p| format!("features::extract panicked: {}", panic_message(&*p)))?;
    if features.len() != FEATURE_DIM {
        return Err(format!("features::extract gave {} values, not {FEATURE_DIM}", features.len()));
    }
    Ok(())
}

/// Check the format-dispatch layer itself: `BinaryImage::parse_auto`
/// must never panic, whatever backend it picks must satisfy that
/// backend's contracts, and [`check_features`] must hold.
pub fn check_auto_bytes(bytes: &[u8]) -> Result<(), String> {
    use mpass_binary::BinaryFormat as _;
    check_features(bytes)?;
    let detected = catch_unwind(AssertUnwindSafe(|| {
        mpass_binary::BinaryImage::parse_auto(bytes).map(|i| i.format())
    }))
    .map_err(|p| format!("BinaryImage::parse_auto panicked: {}", panic_message(&*p)))?;
    match detected {
        Ok(mpass_binary::Format::Pe) => check_bytes(bytes),
        Ok(mpass_binary::Format::MachO) => check_macho_bytes(bytes),
        Err(_) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpass_corpus::{CorpusConfig, Dataset};

    #[test]
    fn garbage_is_gracefully_rejected() {
        assert_eq!(check_bytes(&[]), Ok(()));
        assert_eq!(check_bytes(b"MZ"), Ok(()));
        assert_eq!(check_bytes(&[0xFF; 4096]), Ok(()));
    }

    #[test]
    fn corpus_samples_satisfy_every_contract() {
        let ds = Dataset::generate(&CorpusConfig {
            n_malware: 2,
            n_benign: 2,
            seed: 42,
            no_slack_fraction: 0.0,
        });
        for s in &ds.samples {
            assert_eq!(check_bytes(&s.bytes), Ok(()), "{}", s.name);
        }
    }
}
