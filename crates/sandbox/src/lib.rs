//! # mpass-sandbox — behavioural functionality verification
//!
//! The paper verifies functionality preservation by running original
//! malware and its adversarial examples in a Cuckoo sandbox and comparing
//! their runtime behaviours (API call sequences, §IV-A). This crate is
//! that check over the MVM substrate: [`Sandbox::execute`] auto-detects
//! the container format (PE or Mach-O), executes the image and returns its
//! API trace; [`Sandbox::verify_functionality`] compares an original
//! against a modified sample and explains any divergence.
//!
//! A PE is loaded straight from its bytes: it is parsed as an
//! `mpass_pe::PeView`, which borrows its sections, and mapped into VM
//! memory with no intermediate copy (Mach-O still parses to an owned
//! [`BinaryImage`]). The view accepts and rejects the same bytes, with the
//! same [`SandboxError`], as [`BinaryImage::parse_auto`] and maps the same
//! image, so [`Sandbox::execute`] on bytes and [`Sandbox::run_image`] on
//! their parsed image agree in outcome, steps and trace.
//!
//! At campaign scale the same original is compared against many candidate
//! modifications, so the validation surface is split in two:
//! [`Sandbox::baseline_digest`] runs the original *once* and captures a
//! [`Baseline`] (reference trace + [`TraceDigest`]), and
//! [`Sandbox::verify_candidate`] / [`Sandbox::validate_batch`] replay each
//! candidate against it with a [`ComparingSink`](mpass_vm::ComparingSink),
//! which aborts execution at the first divergent API event instead of
//! running broken candidates to the step limit.
//!
//! ```
//! use mpass_sandbox::{FunctionalityVerdict, Sandbox};
//! use mpass_corpus::{CorpusConfig, Dataset};
//!
//! let ds = Dataset::generate(&CorpusConfig {
//!     n_malware: 1, n_benign: 0, seed: 1, no_slack_fraction: 0.0,
//! });
//! let sandbox = Sandbox::new();
//! let sample = &ds.samples[0];
//! // Baseline once, validate many candidates against it.
//! let baseline = sandbox.baseline_digest(&sample.bytes).unwrap();
//! let verdicts = sandbox.validate_batch(&baseline, &[&sample.bytes, &sample.bytes]);
//! assert!(verdicts.iter().all(FunctionalityVerdict::is_preserved));
//! ```

pub use mpass_binary::{BinaryError, BinaryFormat, BinaryImage};
use mpass_binary::{detect_format, Format};
use mpass_pe::PeView;
use mpass_vm::{
    ComparingSink, Execution, Outcome, ReferenceTrace, RunSummary, TraceDigest, TraceSink, Vm,
    VmLimits,
};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why the sandbox could not execute a byte string.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SandboxError {
    /// The bytes parse in no supported container format; the underlying
    /// parse failure is preserved.
    Unparseable(BinaryError),
}

impl fmt::Display for SandboxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SandboxError::Unparseable(e) => write!(f, "sample does not parse: {e}"),
        }
    }
}

impl std::error::Error for SandboxError {}

/// Result of comparing a modified sample against its original.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FunctionalityVerdict {
    /// The modified sample runs to completion with an identical API trace.
    Preserved,
    /// The modified sample no longer parses in any supported container
    /// format.
    BrokenParse,
    /// The modified sample crashed, hung or was otherwise terminated
    /// abnormally.
    BrokenExecution {
        /// The abnormal outcome observed.
        outcome: mpass_vm::Outcome,
    },
    /// The modified sample ran but its API trace diverged.
    BrokenBehavior {
        /// Index of the first diverging API event (or the shorter trace's
        /// length when one is a prefix of the other).
        first_divergence: usize,
    },
}

impl FunctionalityVerdict {
    /// True when functionality is preserved.
    pub fn is_preserved(&self) -> bool {
        *self == FunctionalityVerdict::Preserved
    }
}

impl fmt::Display for FunctionalityVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FunctionalityVerdict::Preserved => write!(f, "preserved"),
            FunctionalityVerdict::BrokenParse => write!(f, "broken (unparseable)"),
            FunctionalityVerdict::BrokenExecution { outcome } => {
                write!(f, "broken (execution: {outcome:?})")
            }
            FunctionalityVerdict::BrokenBehavior { first_divergence } => {
                write!(f, "broken (trace diverges at event {first_divergence})")
            }
        }
    }
}

/// The original sample's behaviour, captured once and reused across every
/// candidate derived from it.
///
/// Produced by [`Sandbox::baseline_digest`]. Holds the reference API trace
/// (needed for [`ComparingSink`]'s event-level early abort) together with
/// its streaming [`TraceDigest`], plus the original's own outcome — the
/// sandbox deliberately does *not* require the original to complete, only
/// that candidates reproduce whatever behaviour it exhibited.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Baseline {
    reference: ReferenceTrace,
    outcome: Outcome,
    steps: u64,
}

impl Baseline {
    /// The streaming digest of the original's API trace.
    pub fn digest(&self) -> TraceDigest {
        self.reference.digest()
    }

    /// The materialized reference trace candidates are compared against.
    pub fn reference(&self) -> &ReferenceTrace {
        &self.reference
    }

    /// How the original itself terminated.
    pub fn outcome(&self) -> Outcome {
        self.outcome
    }

    /// Instructions the original executed.
    pub fn steps(&self) -> u64 {
        self.steps
    }
}

/// The behavioural sandbox.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sandbox {
    limits: VmLimits,
}

impl Sandbox {
    /// Sandbox with the default resource ceilings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sandbox with a custom instruction budget (other ceilings default).
    pub fn with_step_limit(step_limit: u64) -> Self {
        Sandbox { limits: VmLimits { step_limit, ..VmLimits::default() } }
    }

    /// Sandbox with a full custom set of resource ceilings.
    pub fn with_limits(limits: VmLimits) -> Self {
        Sandbox { limits }
    }

    /// The resource ceilings executions run under.
    pub fn limits(&self) -> VmLimits {
        self.limits
    }

    /// Execute a parsed PE, Mach-O or any other [`BinaryFormat`] image and
    /// return the full execution record.
    pub fn run_image(&self, image: &dyn BinaryFormat) -> Execution {
        Vm::load_binary(image, self.limits).run()
    }

    /// Parse and execute raw bytes, auto-detecting the container format.
    /// [`SandboxError::Unparseable`] preserves the parse failure reason
    /// when the bytes fit no supported format.
    pub fn execute(&self, bytes: &[u8]) -> Result<Execution, SandboxError> {
        Ok(self.load(bytes)?.run())
    }

    /// Parse and execute raw bytes, driving `sink` with every API event
    /// instead of materializing a trace vector.
    pub fn execute_with_sink<S: TraceSink>(
        &self,
        bytes: &[u8],
        sink: &mut S,
    ) -> Result<RunSummary, SandboxError> {
        Ok(self.load(bytes)?.run_with_sink(sink))
    }

    /// Parse `bytes` and map them into a fresh VM: a PE through a
    /// [`PeView`], so its sections are mapped straight from `bytes`, any
    /// other format through [`BinaryImage::parse_auto`].
    fn load(&self, bytes: &[u8]) -> Result<Vm, SandboxError> {
        Ok(match detect_format(bytes) {
            Ok(Format::Pe) => {
                let view = PeView::parse(bytes)
                    .map_err(|e| SandboxError::Unparseable(e.into()))?;
                Vm::load_binary(&view, self.limits)
            }
            _ => {
                let image = BinaryImage::parse_auto(bytes).map_err(SandboxError::Unparseable)?;
                Vm::load_binary(&image, self.limits)
            }
        })
    }

    /// Run the original sample once and capture its behaviour as a
    /// [`Baseline`] for reuse across all of the sample's candidates.
    pub fn baseline_digest(&self, sample: &[u8]) -> Result<Baseline, SandboxError> {
        let exec = self.execute(sample)?;
        Ok(Baseline {
            outcome: exec.outcome,
            steps: exec.steps,
            reference: ReferenceTrace::from_trace(exec.trace),
        })
    }

    /// Compare one candidate's behaviour against a captured [`Baseline`].
    ///
    /// The candidate runs under a [`ComparingSink`], so a divergent
    /// candidate is aborted at its first wrong API event rather than
    /// executed to the step limit — O(1) comparison memory and fail-fast
    /// wall clock for broken adversarial examples.
    pub fn verify_candidate(&self, baseline: &Baseline, candidate: &[u8]) -> FunctionalityVerdict {
        let mut sink = ComparingSink::new(&baseline.reference);
        let run = match self.execute_with_sink(candidate, &mut sink) {
            Ok(run) => run,
            Err(_) => return FunctionalityVerdict::BrokenParse,
        };
        match run.outcome {
            // The sink aborted: a concrete event mismatched the reference.
            Outcome::Aborted => FunctionalityVerdict::BrokenBehavior {
                first_divergence: sink.first_divergence().unwrap_or(sink.matched()),
            },
            Outcome::Halted => {
                if sink.matches() {
                    FunctionalityVerdict::Preserved
                } else {
                    // Completed but emitted only a proper prefix of the
                    // reference trace.
                    FunctionalityVerdict::BrokenBehavior { first_divergence: sink.matched() }
                }
            }
            outcome => FunctionalityVerdict::BrokenExecution { outcome },
        }
    }

    /// Validate a batch of candidates against one [`Baseline`] — the entry
    /// point the engine shard pool feeds. Verdicts are returned in input
    /// order.
    pub fn validate_batch(
        &self,
        baseline: &Baseline,
        candidates: &[&[u8]],
    ) -> Vec<FunctionalityVerdict> {
        candidates.iter().map(|c| self.verify_candidate(baseline, c)).collect()
    }

    /// Compare a modified sample's behaviour against the original's.
    ///
    /// Behaviour equality is full API-trace equality (API identifier *and*
    /// first argument per event): data corruption that changes what a
    /// sample exfiltrates or encrypts counts as broken even if control flow
    /// survives. Internally this is [`Sandbox::baseline_digest`] +
    /// [`Sandbox::verify_candidate`]; when checking many candidates of one
    /// original, capture the baseline once and use
    /// [`Sandbox::validate_batch`] instead.
    pub fn verify_functionality(
        &self,
        original: &[u8],
        modified: &[u8],
    ) -> FunctionalityVerdict {
        let Ok(baseline) = self.baseline_digest(original) else {
            return FunctionalityVerdict::BrokenParse;
        };
        self.verify_candidate(&baseline, modified)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpass_corpus::{CorpusConfig, Dataset};

    fn dataset() -> Dataset {
        Dataset::generate(&CorpusConfig {
            n_malware: 6,
            n_benign: 2,
            seed: 77,
            no_slack_fraction: 0.0,
        })
    }

    #[test]
    fn identity_preserves() {
        let ds = dataset();
        let sb = Sandbox::new();
        for s in &ds.samples {
            assert!(sb.verify_functionality(&s.bytes, &s.bytes).is_preserved(), "{}", s.name);
        }
    }

    #[test]
    fn semantics_free_edits_preserve() {
        let ds = dataset();
        let sb = Sandbox::new();
        let s = &ds.samples[0];
        let mut pe = s.pe().unwrap().clone();
        pe.set_timestamp(0xDEAD_BEEF);
        pe.append_overlay(&[1, 2, 3, 4]);
        assert!(sb.verify_functionality(&s.bytes, &pe.to_bytes()).is_preserved());
    }

    #[test]
    fn code_corruption_is_caught() {
        let ds = dataset();
        let sb = Sandbox::new();
        let s = &ds.samples[0];
        let mut pe = s.pe().unwrap().clone();
        // Trash the first instructions.
        let sec = pe.sections_mut().iter_mut().find(|s| s.header().characteristics.is_code()).unwrap();
        for b in sec.data_mut().iter_mut().take(64) {
            *b = 0xEE;
        }
        let verdict = sb.verify_functionality(&s.bytes, &pe.to_bytes());
        assert!(!verdict.is_preserved(), "got {verdict}");
    }

    #[test]
    fn data_corruption_changes_behavior() {
        let ds = dataset();
        let sb = Sandbox::new();
        // Find a sample whose trace actually depends on data (all malware
        // samples load some API args from .data).
        let mut caught = 0;
        for s in ds.malware() {
            let mut pe = s.pe().unwrap().clone();
            let sec = pe.section_mut(".data").unwrap();
            for b in sec.data_mut().iter_mut().take(128) {
                *b = b.wrapping_add(0x5A);
            }
            let verdict = sb.verify_functionality(&s.bytes, &pe.to_bytes());
            if matches!(verdict, FunctionalityVerdict::BrokenBehavior { .. }) {
                caught += 1;
            }
        }
        assert!(caught >= 3, "data corruption detected in only {caught}/6 samples");
    }

    #[test]
    fn unparseable_modified_is_broken_parse() {
        let ds = dataset();
        let sb = Sandbox::new();
        let s = &ds.samples[0];
        assert_eq!(
            sb.verify_functionality(&s.bytes, &[0u8; 64]),
            FunctionalityVerdict::BrokenParse
        );
    }

    #[test]
    fn hang_is_broken_execution() {
        let ds = dataset();
        let s = &ds.samples[0];
        let mut pe = s.pe().unwrap().clone();
        // Overwrite entry with a tight infinite loop: jmp -8.
        let entry = pe.entry_point();
        let jmp = mpass_vm::Instr::Jmp(-8).encode();
        pe.write_virtual(entry, &jmp).unwrap();
        let sb = Sandbox::with_step_limit(10_000);
        assert!(matches!(
            sb.verify_functionality(&s.bytes, &pe.to_bytes()),
            FunctionalityVerdict::BrokenExecution { outcome: mpass_vm::Outcome::StepLimit }
        ));
    }

    #[test]
    fn resource_exhaustion_is_broken_execution() {
        let ds = dataset();
        let s = &ds.samples[0];
        // A 64-byte memory ceiling stops any real image from mapping; the
        // exhaustion surfaces as a graceful broken-execution verdict.
        let sb = Sandbox::with_limits(VmLimits { memory_limit: 64, ..VmLimits::default() });
        assert!(matches!(
            sb.verify_functionality(&s.bytes, &s.bytes),
            FunctionalityVerdict::BrokenExecution {
                outcome: mpass_vm::Outcome::ResourceExhausted(mpass_vm::Resource::Memory)
            }
        ));
    }

    #[test]
    fn divergence_index_reported() {
        let ds = dataset();
        let sb = Sandbox::new();
        let a = &ds.samples[0];
        let b = &ds.samples[1];
        // Different samples almost surely diverge.
        let verdict = sb.verify_functionality(&a.bytes, &b.bytes);
        assert!(matches!(verdict, FunctionalityVerdict::BrokenBehavior { .. }));
    }

    #[test]
    fn execute_preserves_parse_reason() {
        let sb = Sandbox::new();
        let err = sb.execute(&[0u8; 64]).unwrap_err();
        let SandboxError::Unparseable(inner) = &err;
        assert_eq!(format!("sample does not parse: {inner}"), err.to_string());
    }

    /// Pre-redesign digests of the seed-77 corpus, captured when the
    /// recording path and the sink path were verified byte-identical. Any
    /// drift in `Vm::run` trace semantics or the digest format trips this.
    #[test]
    fn recording_trace_golden_regression() {
        let ds = dataset();
        let sb = Sandbox::new();
        let golden: [(usize, u64, u64); 3] = [
            (0, 0x24a3_63a5_aae0_8450, 9),
            (1, 0x6b76_de6a_5291_485a, 6),
            (2, 0xcbac_0221_5b77_9a89, 7),
        ];
        for (i, hash, events) in golden {
            let baseline = sb.baseline_digest(&ds.samples[i].bytes).unwrap();
            assert_eq!(baseline.digest().hash, hash, "sample {i} digest drifted");
            assert_eq!(baseline.digest().events, events, "sample {i} event count drifted");
            // The digest of the materialized trace equals the streamed one.
            let exec = sb.execute(&ds.samples[i].bytes).unwrap();
            assert_eq!(exec.trace.len() as u64, events);
            assert_eq!(exec.digest(), baseline.digest());
        }
    }

    /// The pre-redesign vector-comparison algorithm, kept verbatim as the
    /// reference the digest path must agree with.
    fn verify_vector(sb: &Sandbox, original: &[u8], modified: &[u8]) -> FunctionalityVerdict {
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

    /// Corpus of executions used by the agreement / digest property tests:
    /// every sample plus seeded data-corrupted variants of each.
    fn corpus_with_mutants() -> Vec<Vec<u8>> {
        use rand::{Rng, SeedableRng};
        let ds = dataset();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xD1_6E57);
        let mut out: Vec<Vec<u8>> = ds.samples.iter().map(|s| s.bytes.clone()).collect();
        for s in &ds.samples {
            let mut pe = s.pe().unwrap().clone();
            if let Some(sec) = pe.section_mut(".data") {
                let n = sec.data_mut().len().min(96);
                for b in sec.data_mut().iter_mut().take(n) {
                    *b ^= rng.gen_range(0..=255u32) as u8;
                }
            }
            out.push(pe.to_bytes());
        }
        out
    }

    #[test]
    fn digest_verify_agrees_with_vector_comparison() {
        let sb = Sandbox::new();
        let corpus = corpus_with_mutants();
        for original in &corpus {
            for modified in &corpus {
                let old = verify_vector(&sb, original, modified);
                let new = sb.verify_functionality(original, modified);
                assert_eq!(
                    old.is_preserved(),
                    new.is_preserved(),
                    "preservation disagreement: old={old:?} new={new:?}"
                );
                // When the candidate completes, the digest path reproduces
                // the vector path's verdict exactly, divergence index
                // included; early abort can only relabel non-completing
                // divergent candidates.
                if sb.execute(modified).map(|e| e.completed()).unwrap_or(false) {
                    assert_eq!(old, new, "verdict disagreement on completing candidate");
                }
            }
        }
    }

    #[test]
    fn digest_equality_iff_trace_equality() {
        let sb = Sandbox::new();
        let execs: Vec<Execution> = corpus_with_mutants()
            .iter()
            .filter_map(|bytes| sb.execute(bytes).ok())
            .collect();
        assert!(execs.len() >= 8);
        for a in &execs {
            for b in &execs {
                assert_eq!(
                    a.digest() == b.digest(),
                    a.trace == b.trace,
                    "digest/trace equality mismatch"
                );
            }
        }
    }

    #[test]
    fn comparing_sink_aborts_with_fewer_steps_than_full_run() {
        let ds = dataset();
        let sb = Sandbox::new();
        let a = &ds.samples[0];
        let b = &ds.samples[1];
        let full = sb.execute(&b.bytes).unwrap();
        let baseline = sb.baseline_digest(&a.bytes).unwrap();
        let mut sink = ComparingSink::new(baseline.reference());
        let run = sb.execute_with_sink(&b.bytes, &mut sink).unwrap();
        assert_eq!(run.outcome, Outcome::Aborted);
        assert!(sink.first_divergence().is_some());
        assert!(
            run.steps < full.steps,
            "early abort ({}) should execute fewer steps than the full run ({})",
            run.steps,
            full.steps
        );
    }

    #[test]
    fn validate_batch_returns_verdicts_in_order() {
        let ds = dataset();
        let sb = Sandbox::new();
        let a = &ds.samples[0];
        let b = &ds.samples[1];
        let baseline = sb.baseline_digest(&a.bytes).unwrap();
        let garbage = [0u8; 64];
        let verdicts =
            sb.validate_batch(&baseline, &[&a.bytes, &b.bytes, &garbage, &a.bytes]);
        assert_eq!(verdicts.len(), 4);
        assert!(verdicts[0].is_preserved());
        assert!(matches!(verdicts[1], FunctionalityVerdict::BrokenBehavior { .. }));
        assert_eq!(verdicts[2], FunctionalityVerdict::BrokenParse);
        assert!(verdicts[3].is_preserved());
        // Batch agrees with the one-shot surface.
        assert_eq!(verdicts[1], sb.verify_functionality(&a.bytes, &b.bytes));
    }
}
