//! # mpass-fuzz — structure-aware fuzzing of the hostile-input surface
//!
//! The attack pipeline ingests bytes it does not control: candidate
//! adversarial examples, on-disk samples, and anything a detector or the
//! sandbox is pointed at. This crate stress-tests that surface with a
//! deterministic, seeded fuzzer and encodes the five ingestion
//! contracts as a reusable harness:
//!
//! 1. **Totality** — `PeFile::parse` never panics, whatever the bytes.
//! 2. **Round trip** — any image `parse` accepts re-serializes via
//!    `to_bytes` into bytes that parse back to an *equal* image.
//! 3. **Termination** — `Vm::run` on any parsed image terminates
//!    gracefully under explicit [`mpass_vm::VmLimits`] (and
//!    `disassemble` never panics on section bytes).
//! 4. **One parser** — the borrowed `PeView` the sandbox loads from
//!    agrees with the owned `PeFile`: the same parse result or error,
//!    the same mapped image and the same VM run.
//! 5. **Features** — the detectors' feature extraction, which every
//!    LightGBM and commercial-AV query runs, never panics and always
//!    yields `FEATURE_DIM` values.
//!
//! [`mutate::Mutator`] draws every decision from a seeded ChaCha8
//! stream, so a fuzz campaign is a pure function of `(seed,
//! iterations)`: CI reruns explore exactly the same inputs, and any
//! failure reproduces from its iteration index alone. Mutations are
//! structure-aware — header-field flips, section-table surgery,
//! truncation, splicing and byte noise — so the campaign spends its
//! budget just past the validation boundary instead of rediscovering
//! the DOS-magic check ten thousand times.
//!
//! Crashers found by the `fuzz_smoke` binary are shrunk with
//! [`minimize::minimize`] and promoted into the checked-in regression
//! corpus at `tests/fixtures/malformed/` (regenerated by the
//! `gen_fixtures` binary), which the workspace test suite replays on
//! every run.

pub mod harness;
pub mod minimize;
pub mod mutate;
pub mod seeds;
