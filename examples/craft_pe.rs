//! Substrate tour: hand-craft a PE executable with an MVM program inside,
//! run it in the sandbox, then perform the structural edits the attacks
//! rely on (new section, renamed section, entry-point redirection).
//!
//! ```sh
//! cargo run --release --example craft_pe
//! ```

use mpass::pe::{PeBuilder, PeFile, SectionFlags};
use mpass::sandbox::Sandbox;
use mpass::vm::{api, Asm, Instr, Reg};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A program: read a byte from .data, write a file, message-box it,
    // then exit.
    let mut asm = Asm::new();
    asm.push(Instr::Movi(Reg::R6, 0x2000)); // .data RVA under default layout
    asm.push(Instr::Ld8(Reg::R0, Reg::R6, 0));
    asm.push(Instr::CallApi(api::WRITE_FILE));
    asm.push(Instr::Movi(Reg::R0, 7));
    asm.label("loop");
    asm.push(Instr::Addi(Reg::R0, -1));
    asm.jump_to(Instr::Jnz(Reg::R0, 0), "loop");
    asm.push(Instr::CallApi(api::MESSAGE_BOX));
    asm.push(Instr::Halt);
    let code = asm.assemble()?;

    let mut builder = PeBuilder::new();
    builder.add_section(".text", code, SectionFlags::CODE)?;
    builder.add_section(".data", vec![0x5A; 256], SectionFlags::DATA)?;
    builder.set_entry_section(".text", 0)?;
    builder.set_timestamp(0x600D_F00D);
    let pe = builder.build()?;
    println!(
        "built PE: {} sections, entry {:#x}, {} bytes on disk",
        pe.sections().len(),
        pe.entry_point(),
        pe.file_size()
    );

    // Execute it.
    let sandbox = Sandbox::new();
    let exec = sandbox.run_image(&pe);
    println!("execution: {:?} after {} steps", exec.outcome, exec.steps);
    for ev in &exec.trace {
        println!("  api call: {} (arg {:#x})", ev.api, ev.arg);
    }

    // Structural edits.
    let mut edited = pe.clone();
    let rva = edited.add_section(".extra", vec![0xEE; 512], SectionFlags::RDATA)?;
    println!("added .extra at rva {rva:#x}");
    edited.rename_section(".extra", ".didat")?;
    edited.append_overlay(b"OVERLAY-TAIL");
    edited.update_checksum();

    // Round-trip and re-run: behaviour unchanged by the edits.
    let reparsed = PeFile::parse(&edited.to_bytes())?;
    let exec2 = sandbox.run_image(&reparsed);
    assert_eq!(exec.trace, exec2.trace);
    println!("edited image re-parses and behaves identically");
    Ok(())
}
