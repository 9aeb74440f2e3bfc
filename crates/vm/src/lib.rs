//! # mpass-vm — the MVM execution substrate
//!
//! The MPass paper's central claim is *functionality preservation*: after
//! the attack encodes a malware's code and data sections and injects a
//! runtime-recovery stub, the modified binary must still exhibit the same
//! runtime behaviour. Verifying that claim requires actually *executing*
//! binaries — the paper uses a Cuckoo sandbox on real Windows malware; this
//! reproduction uses MVM, a compact register ISA whose programs live inside
//! PE code sections and whose "system calls" are numbered OS APIs.
//!
//! The crate provides:
//!
//! * [`Instr`] — the instruction set, with fixed 8-byte encoding
//!   ([`Instr::encode`] / [`Instr::decode`]) so that instruction-level
//!   shuffling and jump patching (MPass §III-C) are well defined,
//! * [`Asm`] — a label-resolving assembler for writing programs and stubs,
//! * [`disassemble`] — the inverse of assembly, used by the shuffle engine,
//! * [`Vm`] — the interpreter, which maps a PE image the way a loader
//!   would, executes from the entry point, and records the API-call
//!   [`trace`](Execution::trace) that the sandbox compares,
//! * [`ApiId`] — the API namespace with a benign/suspicious split that the
//!   synthetic corpus uses to plant ground-truth malicious behaviour,
//! * [`TraceSink`] and the stock sinks ([`RecordingSink`], [`DigestSink`],
//!   [`ComparingSink`]) — the event-listener interface that
//!   [`Vm::run_with_sink`] drives, so validation can stream a
//!   [`TraceDigest`] or abort on first divergence instead of materializing
//!   a trace vector.
//!
//! ## Example: assemble, run, observe behaviour
//!
//! ```
//! use mpass_vm::{Asm, Instr, Reg, Vm, VmLimits, api};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut asm = Asm::new();
//! asm.push(Instr::Movi(Reg::R0, 42));
//! asm.push(Instr::CallApi(api::MESSAGE_BOX));
//! asm.push(Instr::Halt);
//! let code = asm.assemble()?;
//!
//! let mut pe = mpass_pe::PeBuilder::new();
//! pe.add_section(".text", code, mpass_pe::SectionFlags::CODE)?;
//! pe.set_entry_section(".text", 0)?;
//! let pe = pe.build()?;
//!
//! let exec = Vm::load_binary(&pe, VmLimits::default()).run();
//! assert!(exec.completed());
//! assert_eq!(exec.trace.len(), 1);
//! assert_eq!(exec.trace[0].api, api::MESSAGE_BOX);
//! # Ok(())
//! # }
//! ```
//!
//! ## Hostile input
//!
//! The VM executes attacker-controlled bytes, so the crate is total: no
//! input reachable from untrusted data can panic, and every execution
//! terminates under the [`VmLimits`] resource ceilings (step budget,
//! memory ceiling, trace cap, jump-chain depth) with a typed
//! [`Outcome`] — see [`Outcome::ResourceExhausted`].

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod api;
mod asm;
mod bulk;
mod interp;
mod isa;
pub mod sink;

pub use api::{ApiEvent, ApiId};
pub use asm::{Asm, AsmError};
pub use interp::{
    Execution, Outcome, Resource, RunSummary, Vm, VmFault, VmLimits, DEFAULT_JUMP_CHAIN_LIMIT,
    DEFAULT_MEMORY_LIMIT, DEFAULT_STEP_LIMIT, DEFAULT_TRACE_LIMIT,
};
pub use isa::{disassemble, DecodeError, Instr, Reg, INSTR_SIZE};
pub use sink::{
    ComparingSink, DigestSink, RecordingSink, ReferenceTrace, SinkControl, TraceDigest, TraceSink,
    TRACE_DIGEST_VERSION,
};
