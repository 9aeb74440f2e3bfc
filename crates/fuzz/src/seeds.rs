//! Seed images the mutators start from: structurally valid PEs and
//! Mach-Os so the fuzz budget is spent just past the validation
//! boundary.

use mpass_corpus::{CorpusConfig, Dataset};
use mpass_pe::{PeBuilder, SectionFlags};
use mpass_vm::{Instr, INSTR_SIZE};

fn encode(instrs: &[Instr]) -> Vec<u8> {
    instrs.iter().flat_map(|i| i.encode()).collect()
}

/// A minimal hand-built executable: a short code stream ending in
/// `Halt`, plus a data section.
fn minimal() -> Vec<u8> {
    let code = encode(&[
        Instr::Movi(mpass_vm::Reg::R0, 7),
        Instr::Addi(mpass_vm::Reg::R0, 35),
        Instr::Jmp(8),
        Instr::Halt, // skipped by the jump
        Instr::Halt,
    ]);
    let mut b = PeBuilder::new();
    b.add_section(".text", code, SectionFlags::CODE).expect("fresh name");
    b.add_section(".data", vec![0x11; 96], SectionFlags::DATA).expect("fresh name");
    b.set_entry_section(".text", 0).expect("section exists");
    b.build().expect("minimal image builds").to_bytes()
}

/// A hand-built image whose entry code restores an encoded region before
/// running it, in the shape of the MPass recovery stub: `.text` holds the
/// decode loop (`x = b − k`, one byte per iteration), then the encoded
/// payload (`cover` bytes), then the keys. Mutations of its counters,
/// pointers and loop bytes reach the VM's bulk byte-map path.
fn recovery_loop() -> Vec<u8> {
    use mpass_vm::Reg::{R1, R2, R3, R4, R5};
    let payload = encode(&[
        Instr::Movi(mpass_vm::Reg::R0, 7),
        Instr::CallApi(mpass_vm::api::READ_FILE),
        Instr::Halt,
    ]);
    let cover: Vec<u8> = (0..payload.len()).map(|i| (i as u8).wrapping_mul(97) ^ 0x5A).collect();
    let keys: Vec<u8> = cover.iter().zip(&payload).map(|(b, x)| b.wrapping_sub(*x)).collect();
    const CODE_LEN: usize = 13;
    let text = |base: u32| {
        let payload_at = base + (CODE_LEN * INSTR_SIZE) as u32;
        let len = payload.len() as i32;
        let mut text = encode(&[
            Instr::Movi(R1, payload_at as i32),
            Instr::Movi(R2, payload_at as i32 + len),
            Instr::Movi(R3, len),
            Instr::Jz(R3, 8 * INSTR_SIZE as i32), // → the last jmp
            Instr::Ld8(R4, R1, 0),
            Instr::Ld8(R5, R2, 0),
            Instr::Sub(R4, R5),
            Instr::St8(R4, R1, 0),
            Instr::Addi(R1, 1),
            Instr::Addi(R2, 1),
            Instr::Addi(R3, -1),
            Instr::Jmp(-9 * INSTR_SIZE as i32), // → the jz
            Instr::Jmp(0),                      // → the restored payload
        ]);
        debug_assert_eq!(text.len(), CODE_LEN * INSTR_SIZE);
        text.extend(&cover);
        text.extend(&keys);
        text
    };
    let build = |text: Vec<u8>| {
        let mut b = PeBuilder::new();
        b.add_section(".text", text, SectionFlags::CODE).expect("fresh name");
        b.set_entry_section(".text", 0).expect("section exists");
        b.build().expect("recovery image builds")
    };
    // Section addresses do not depend on section contents: lay the image
    // out once to learn where `.text` lands, then fill in the addresses.
    let base = build(text(0)).section(".text").expect("built").header().virtual_address;
    build(text(base)).to_bytes()
}

/// The seed pool: one minimal hand-built image plus a few synthetic
/// corpus samples (which carry import tables, multiple sections and
/// real entry code). Deterministic in `seed`.
pub fn seed_images(seed: u64) -> Vec<Vec<u8>> {
    let mut seeds = vec![minimal(), recovery_loop()];
    let ds = Dataset::generate(&CorpusConfig {
        n_malware: 2,
        n_benign: 2,
        seed,
        no_slack_fraction: 0.5,
    });
    seeds.extend(ds.samples.into_iter().map(|s| s.bytes));
    seeds
}

/// A minimal hand-built Mach-O: a short code stream ending in `Halt`, a
/// data section and one linked dylib.
fn minimal_macho() -> Vec<u8> {
    let code = encode(&[
        Instr::Movi(mpass_vm::Reg::R0, 7),
        Instr::Addi(mpass_vm::Reg::R0, 35),
        Instr::Jmp(8),
        Instr::Halt, // skipped by the jump
        Instr::Halt,
    ]);
    let mut b = mpass_macho::MachoBuilder::new();
    b.add_section("__text", &code, mpass_binary::SectionKind::Code)
        .add_section("__data", &[0x11; 96], mpass_binary::SectionKind::Data)
        .add_dylib("/usr/lib/libSystem.B.dylib", 2)
        .set_entry_section("__text", 0);
    b.build().expect("minimal mach-o builds").to_bytes()
}

/// The Mach-O seed pool: one minimal hand-built image plus the Mach-O
/// half of a mixed synthetic corpus. Deterministic in `seed`.
pub fn macho_seed_images(seed: u64) -> Vec<Vec<u8>> {
    let mut seeds = vec![minimal_macho()];
    let ds = Dataset::generate_mixed(
        &CorpusConfig {
            n_malware: 3,
            n_benign: 3,
            seed,
            no_slack_fraction: 0.5,
        },
        1.0,
    );
    seeds.extend(ds.samples.into_iter().map(|s| s.bytes));
    seeds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_satisfies_the_harness() {
        for (i, s) in seed_images(1).iter().enumerate() {
            assert_eq!(crate::harness::check_bytes(s), Ok(()), "seed {i}");
        }
    }

    #[test]
    fn the_recovery_seed_restores_and_runs_its_payload() {
        let pe = mpass_pe::PeFile::parse(&recovery_loop()).expect("seed parses");
        let exec = mpass_vm::Vm::load_binary(&pe, mpass_vm::VmLimits::default()).run();
        assert!(exec.completed(), "{:?}", exec.outcome);
        assert_eq!(exec.trace.len(), 1);
        assert_eq!((exec.trace[0].api, exec.trace[0].arg), (mpass_vm::api::READ_FILE, 7));
    }

    #[test]
    fn every_macho_seed_satisfies_the_harness() {
        for (i, s) in macho_seed_images(1).iter().enumerate() {
            assert_eq!(crate::harness::check_macho_bytes(s), Ok(()), "macho seed {i}");
        }
    }
}
