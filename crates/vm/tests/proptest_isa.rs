//! Property-style tests of the MVM ISA: encoding round-trips, don't-care
//! robustness, and interpreter safety on arbitrary byte soup. Cases are
//! drawn from a seeded ChaCha8 stream so every run explores the same
//! space deterministically.

use mpass_vm::{disassemble, Asm, Instr, Reg, Vm, INSTR_SIZE};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CASES: u64 = 256;

fn arb_reg(rng: &mut ChaCha8Rng) -> Reg {
    Reg::from_index(rng.gen_range(0..8u32) as u8).expect("in range")
}

fn arb_instr(rng: &mut ChaCha8Rng) -> Instr {
    match rng.gen_range(0..19u32) {
        0 => Instr::Movi(arb_reg(rng), rng.gen::<i32>()),
        1 => Instr::Mov(arb_reg(rng), arb_reg(rng)),
        2 => Instr::Add(arb_reg(rng), arb_reg(rng)),
        3 => Instr::Sub(arb_reg(rng), arb_reg(rng)),
        4 => Instr::Xor(arb_reg(rng), arb_reg(rng)),
        5 => Instr::Mul(arb_reg(rng), arb_reg(rng)),
        6 => Instr::Addi(arb_reg(rng), rng.gen::<i32>()),
        7 => Instr::Ld8(arb_reg(rng), arb_reg(rng), rng.gen::<i32>()),
        8 => Instr::St8(arb_reg(rng), arb_reg(rng), rng.gen::<i32>()),
        9 => Instr::Jmp(rng.gen::<i32>()),
        10 => Instr::Jz(arb_reg(rng), rng.gen::<i32>()),
        11 => Instr::Jnz(arb_reg(rng), rng.gen::<i32>()),
        12 => Instr::CallApi(mpass_vm::ApiId(rng.gen::<u16>())),
        13 => Instr::Halt,
        14 => Instr::Nop,
        15 => Instr::Push(arb_reg(rng)),
        16 => Instr::Pop(arb_reg(rng)),
        17 => Instr::Call(rng.gen::<i32>()),
        _ => Instr::Ret,
    }
}

#[test]
fn encode_decode_round_trip() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x15A1);
    for _ in 0..CASES {
        let instr = arb_instr(&mut rng);
        let enc = instr.encode();
        assert_eq!(Instr::decode(&enc).unwrap(), instr);
    }
}

#[test]
fn dont_care_bytes_never_change_decoding() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x15A2);
    for _ in 0..CASES {
        let instr = arb_instr(&mut rng);
        let junk: Vec<u8> = (0..8).map(|_| rng.gen::<u8>()).collect();
        let mut enc = instr.encode();
        for (i, free) in instr.dont_care_mask().iter().enumerate() {
            if *free {
                enc[i] = junk[i];
            }
        }
        assert_eq!(Instr::decode(&enc).unwrap(), instr);
    }
}

#[test]
fn disassemble_round_trips_programs() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x15A3);
    for _ in 0..CASES {
        let n = rng.gen_range(1..64);
        let instrs: Vec<Instr> = (0..n).map(|_| arb_instr(&mut rng)).collect();
        let bytes: Vec<u8> = instrs.iter().flat_map(|i| i.encode()).collect();
        assert_eq!(disassemble(&bytes).unwrap(), instrs);
    }
}

/// The interpreter must never panic or loop forever on arbitrary memory
/// images — it either halts, faults or hits the step limit.
#[test]
fn interpreter_is_total_on_byte_soup() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x15A4);
    for _ in 0..CASES {
        let len = rng.gen_range(64..2048);
        let image: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
        let entry = rng.gen_range(0..2048u32);
        let exec = Vm::from_image(image, entry).with_step_limit(5_000).run();
        assert!(exec.steps <= 5_000);
        // Any outcome is acceptable; reaching here means no panic/hang.
        let _ = exec.outcome;
    }
}

/// Assembled straight-line programs (no jumps) always halt with one step
/// per instruction.
#[test]
fn straight_line_programs_halt() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x15A5);
    for _ in 0..CASES {
        let n = rng.gen_range(0..32);
        let instrs: Vec<Instr> = (0..n)
            .map(|_| match rng.gen_range(0..4u32) {
                0 => Instr::Movi(arb_reg(&mut rng), rng.gen::<i32>()),
                1 => Instr::Add(arb_reg(&mut rng), arb_reg(&mut rng)),
                2 => Instr::Xor(arb_reg(&mut rng), arb_reg(&mut rng)),
                _ => Instr::Nop,
            })
            .collect();
        let mut asm = Asm::new();
        for i in &instrs {
            asm.push(*i);
        }
        asm.push(Instr::Halt);
        let code = asm.assemble().unwrap();
        let mut mem = vec![0u8; 4096];
        mem[..code.len()].copy_from_slice(&code);
        let exec = Vm::from_image(mem, 0).run();
        assert!(exec.completed());
        assert_eq!(exec.steps as usize, instrs.len() + 1);
    }
}

/// Store-then-load through arbitrary in-bounds addresses is identity.
#[test]
fn memory_round_trip() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x15A6);
    for _ in 0..CASES {
        let addr = rng.gen_range(8u32..4000);
        let value = rng.gen::<u8>();
        let mut asm = Asm::new();
        asm.push(Instr::Movi(Reg::R0, value as i32));
        asm.push(Instr::Movi(Reg::R1, addr as i32));
        asm.push(Instr::St8(Reg::R0, Reg::R1, 0));
        asm.push(Instr::Ld8(Reg::R2, Reg::R1, 0));
        asm.push(Instr::Halt);
        let code = asm.assemble().unwrap();
        let mut mem = vec![0u8; 4096];
        // Keep the program clear of the store target.
        if !(addr as usize >= code.len() || (addr as usize) < 4096 - INSTR_SIZE) {
            continue;
        }
        mem[..code.len()].copy_from_slice(&code);
        let mut vm = Vm::from_image(mem, 0);
        let exec = vm.run_in_place();
        if addr as usize >= code.len() {
            assert!(exec.completed());
            assert_eq!(vm.regs()[2], value as u32);
        }
    }
}

/// Self-modifying programs: every store targets the program's own code
/// bytes, and every jump lands on one of its slots, so code is rewritten
/// and then re-executed. Debug builds assert on every decode-cache hit
/// that the cached instruction equals a fresh decode of memory.
#[test]
fn self_modifying_programs_match_fresh_decoding() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x15A7);
    let mut rewritten_and_rerun = 0;
    for _ in 0..CASES {
        let n = rng.gen_range(4..48usize);
        let code_len = (n * INSTR_SIZE) as i32;
        // Displacement from the instruction at `at` to a random slot.
        let slot_d = |rng: &mut ChaCha8Rng, at: usize| {
            (rng.gen_range(0..n) as i32 - at as i32 - 1) * INSTR_SIZE as i32
        };
        let mut instrs = Vec::with_capacity(n);
        while instrs.len() < n {
            let at = instrs.len();
            match rng.gen_range(0..8u32) {
                // Store to a code byte, with the value either soup or half
                // of a valid encoding (so rewrites often stay decodable).
                0 | 1 if at + 3 <= n => {
                    let word = arb_instr(&mut rng).encode();
                    let half = if rng.gen() { &word[..4] } else { &word[4..] };
                    let value = match rng.gen_range(0..3u32) {
                        0 => rng.gen::<i32>(),
                        _ => i32::from_le_bytes(half.try_into().expect("4 bytes")),
                    };
                    let target = if rng.gen() {
                        rng.gen_range(0..code_len / 4) * 4
                    } else {
                        rng.gen_range(0..code_len)
                    };
                    instrs.push(Instr::Movi(Reg::R6, value));
                    instrs.push(Instr::Movi(Reg::R7, target));
                    instrs.push(if rng.gen() {
                        Instr::St32(Reg::R6, Reg::R7, 0)
                    } else {
                        Instr::St8(Reg::R6, Reg::R7, 0)
                    });
                }
                2 => instrs.push(Instr::Jmp(slot_d(&mut rng, at))),
                3 => instrs.push(Instr::Jnz(arb_reg(&mut rng), slot_d(&mut rng, at))),
                4 => instrs.push(arb_instr(&mut rng)),
                _ => instrs.push(match rng.gen_range(0..3u32) {
                    0 => Instr::Movi(arb_reg(&mut rng), rng.gen_range(-4..4)),
                    1 => Instr::Addi(arb_reg(&mut rng), rng.gen_range(-4..4)),
                    _ => Instr::Nop,
                }),
            }
        }
        let code: Vec<u8> = instrs.iter().flat_map(|i| i.encode()).collect();
        let mut mem = code.clone();
        mem.resize(4096, 0);
        let mut vm = Vm::from_image(mem, 0).with_step_limit(2_000);
        let exec = vm.run_in_place();
        assert!(exec.steps <= 2_000);
        if vm.memory()[..code.len()] != code[..] && exec.steps > n as u64 {
            rewritten_and_rerun += 1;
        }
    }
    // The property is only exercised if programs really do run over code
    // they have rewritten.
    assert!(
        rewritten_and_rerun >= CASES / 8,
        "only {rewritten_and_rerun} cases re-ran rewritten code"
    );
}
