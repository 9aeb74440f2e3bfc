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

/// The kinds of byte-map loop [`byte_map_case`] builds, one per edge the
/// bulk path must get right.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoopKind {
    Plain,
    StoreAhead,
    OutOfBoundsAtK,
    StepLimitMidLoop,
    StoresIntoItself,
    ChainLimitBelowRun,
    MisalignedBackJump,
    CounterZero,
    CounterOne,
    CounterMax,
    RejectStrideTwo,
    RejectCallApi,
    RejectLoadIntoPointer,
}

const LOOP_KINDS: [LoopKind; 13] = [
    LoopKind::Plain,
    LoopKind::StoreAhead,
    LoopKind::OutOfBoundsAtK,
    LoopKind::StepLimitMidLoop,
    LoopKind::StoresIntoItself,
    LoopKind::ChainLimitBelowRun,
    LoopKind::MisalignedBackJump,
    LoopKind::CounterZero,
    LoopKind::CounterOne,
    LoopKind::CounterMax,
    LoopKind::RejectStrideTwo,
    LoopKind::RejectCallApi,
    LoopKind::RejectLoadIntoPointer,
];

/// One generated program in two spellings that execute identically: in
/// `bulk` the loop's back-jump is a `jmp`, in `stepwise` an always-taken
/// `jnz` on a register the loop never touches, which the bulk path does
/// not accept. The two encodings differ in the opcode byte alone.
struct LoopCase {
    bulk: Vec<u8>,
    stepwise: Vec<u8>,
    limits: mpass_vm::VmLimits,
    /// Address of the back-jump's opcode byte.
    back: usize,
}

/// Where the code of a generated case lives: the prologue at 0, the exit
/// at `EXIT`, the loop in `LOOP_AREA`, data from `DATA` to the end.
const EXIT: u32 = 80;
const LOOP_AREA: std::ops::Range<u32> = 128..1024;
const DATA: u32 = 1024;

/// Build a `kind` case. The prologue sets every register and jumps to the
/// loop's head. The loop's exit leads to code that, the first time, sets
/// the counter and jumps back to the head, and the second time calls an
/// API and halts. A "warm" case starts with a zero counter, so its first
/// visit only caches the head and the loop proper starts from a jump to a
/// cached head, with none of the body decoded yet.
fn byte_map_case(rng: &mut ChaCha8Rng, kind: LoopKind) -> LoopCase {
    use LoopKind::*;
    let mut regs = Reg::ALL;
    for i in (1..regs.len()).rev() {
        regs.swap(i, rng.gen_range(0..=i));
    }
    let [c, x, y, p, mut q, mut s, k, e] = regs;
    // A loop that stores into its own code keeps its loads in the data, so
    // they never read the one byte in which the two spellings differ.
    if kind != StoresIntoItself && kind != StoreAhead && rng.gen_bool(0.5) {
        s = p;
    }
    if rng.gen_bool(0.25) {
        q = p;
    }
    // The distance a `StoreAhead` store runs ahead of one load: below, at
    // and above the bulk loop's 64-byte chunk. Its store may share the
    // source load's register, and then runs ahead of the destination load.
    let ahead = (kind == StoreAhead).then(|| [1, 2, 31, 63, 64, 65][rng.gen_range(0..6)]);
    if ahead.is_some() && q != p && rng.gen() {
        s = q;
    }
    let counter: u32 = match kind {
        CounterZero => 0,
        CounterOne => 1,
        CounterMax => u32::MAX,
        StoresIntoItself => rng.gen_range(100..400),
        StoreAhead => rng.gen_range(3 * 64 + 2..400),
        _ => rng.gen_range(3..200),
    };
    let warm = kind == ChainLimitBelowRun || rng.gen_bool(0.5);
    let p0 = DATA + rng.gen_range(0..512);
    let mut q0 = if q == p { p0 } else { DATA + rng.gen_range(0..512) };
    let delta = rng.gen_range(-3..=3i32) as u32;
    let mut s0 = match rng.gen_range(0..3u32) {
        _ if s == p => p0,
        0 => p0.wrapping_add(delta),
        1 => q0.wrapping_add(delta),
        _ => DATA + rng.gen_range(0..512),
    };

    // Logical body after the head: the four core instructions, one addi
    // per distinct pointer and one for the counter, in random positions.
    let (i, j) = (rng.gen_range(-2..=2), rng.gen_range(-2..=2));
    let (ld_x, ld_y) = (Instr::Ld8(x, p, i), Instr::Ld8(y, q, j));
    let mut body = if rng.gen() { vec![ld_x, ld_y] } else { vec![ld_y, ld_x] };
    body.push(match rng.gen_range(0..3u32) {
        0 => Instr::Sub(x, y),
        1 => Instr::Add(x, y),
        _ => Instr::Xor(x, y),
    });
    let l = rng.gen_range(-2..=2);
    body.push(Instr::St8(x, s, l));
    if let Some(ahead) = ahead {
        let (base, imm) = if s == q || rng.gen() { (p0, i) } else { (q0, j) };
        s0 = (base as i32 + imm + ahead - l) as u32;
        if s == q {
            q0 = s0;
        }
    }
    if kind == RejectLoadIntoPointer {
        if let Instr::Ld8(_, b, imm) = body[1] {
            body[1] = Instr::Ld8(s, b, imm);
        }
    }
    let mut pointers = vec![p, q, s];
    pointers.sort();
    pointers.dedup();
    for (i, &r) in pointers.iter().enumerate() {
        let stride = if kind == RejectStrideTwo && i == 0 { 2 } else { 1 };
        let at = rng.gen_range(0..=body.len());
        body.insert(at, Instr::Addi(r, stride));
    }
    let at = rng.gen_range(0..=body.len());
    body.insert(at, Instr::Addi(c, -1));
    if kind == RejectCallApi {
        let at = rng.gen_range(0..=body.len());
        body.insert(at, Instr::CallApi(mpass_vm::api::GET_SYSTEM_TIME));
    }
    // Index 0 is the head, the last entry the back-jump.
    body.insert(0, Instr::Jz(c, 0));
    body.push(Instr::Jmp(0));
    let m = body.len();

    // Layout: consecutive slots from an arbitrary byte offset, optionally
    // with one detour of two chained jumps; or [instruction, chain jmp]
    // cells in shuffled order with gaps, as the recovery stub is laid out.
    // A misaligned back-jump is tested where it stays inside the stream,
    // and a pointer loaded with a byte points below 512, so that loop
    // starts at 512, out of reach of the pointer's accesses.
    let shuffled = kind != ChainLimitBelowRun && kind != MisalignedBackJump && rng.gen_bool(0.5);
    let start = if kind == RejectLoadIntoPointer { 512 } else { LOOP_AREA.start };
    let slot = INSTR_SIZE as u32;
    let mut pos = vec![0u32; m];
    // (jump site, target) pairs besides the body's own jumps.
    let mut chains: Vec<(u32, u32)> = Vec::new();
    if shuffled {
        let mut order: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let mut cursor = start;
        for cell in order {
            cursor += rng.gen_range(0..=2) * slot;
            pos[cell] = cursor;
            cursor += 2 * slot;
        }
        chains.extend((0..m - 1).map(|i| (pos[i] + slot, pos[i + 1])));
    } else {
        // One slot before the head stays free for the landing pad.
        let base = start + INSTR_SIZE as u32 + rng.gen_range(0..64);
        // The detour after body instruction `d` is a run of `hops + 1`
        // jumps; under `ChainLimitBelowRun` it is the run that trips the
        // limit, so it stays clear of the back-jump.
        let hops = if kind == ChainLimitBelowRun { 2 } else { 1 };
        let detour =
            (kind == ChainLimitBelowRun || rng.gen_bool(0.25)).then(|| rng.gen_range(0..m - 2));
        for (i, at) in pos.iter_mut().enumerate() {
            let skip = u32::from(detour.is_some_and(|d| i > d));
            *at = base + (i as u32 + skip) * slot;
        }
        if let Some(d) = detour {
            let mut from = pos[d] + slot;
            for h in 0..hops {
                let hop = base + (m as u32 + 1 + h) * slot;
                chains.push((from, hop));
                from = hop;
            }
            chains.push((from, pos[d + 1]));
        }
    }
    let head = pos[0];
    // A sequential loop may be entered through the `nop` just before its
    // head, so that the first jump back to the head stays inside a stream
    // anchored below it.
    let entry = if !shuffled && rng.gen() { head - slot } else { head };
    let disp = |from: u32, to: u32| to.wrapping_sub(from + slot) as i32;
    let back_target =
        if kind == MisalignedBackJump { head + [2, 4, 6][rng.gen_range(0..3)] } else { head };

    let mut mem = vec![0u8; 2048];
    let mut put =
        |at: u32, i: Instr| mem[at as usize..(at + slot) as usize].copy_from_slice(&i.encode());
    for at in (LOOP_AREA.start..LOOP_AREA.end).step_by(INSTR_SIZE) {
        put(at, Instr::Nop);
    }
    for (i, instr) in body.iter().enumerate() {
        let at = pos[i];
        put(
            at,
            match *instr {
                Instr::Jz(r, _) => Instr::Jz(r, disp(at, EXIT)),
                Instr::Jmp(_) => Instr::Jnz(k, disp(at, back_target)),
                other => other,
            },
        );
    }
    for &(from, to) in &chains {
        put(from, Instr::Jmp(disp(from, to)));
    }
    if entry != head {
        put(entry, Instr::Nop);
    }
    let mut prologue = vec![
        Instr::Movi(c, if warm { 0 } else { counter as i32 }),
        Instr::Movi(e, i32::from(!warm)),
        Instr::Movi(p, p0 as i32),
        Instr::Movi(q, q0 as i32),
        Instr::Movi(s, s0 as i32),
        Instr::Movi(x, rng.gen()),
        Instr::Movi(y, rng.gen()),
        Instr::Movi(k, 1),
    ];
    if kind == StoresIntoItself {
        // The store climbs from just below the loop into its code.
        let lowest = *pos.iter().min().expect("non-empty body");
        prologue[4] = Instr::Movi(s, (lowest - rng.gen_range(1..96)) as i32);
    }
    prologue.push(Instr::Jmp(disp((prologue.len() * INSTR_SIZE) as u32, entry)));
    assert!(prologue.len() as u32 * slot <= EXIT);
    for (i, instr) in prologue.iter().enumerate() {
        put(i as u32 * slot, *instr);
    }
    let exit = [
        Instr::Jnz(e, 3 * slot as i32),
        Instr::Movi(e, 1),
        Instr::Movi(c, counter as i32),
        Instr::Jmp(disp(EXIT + 3 * slot, entry)),
        Instr::CallApi(mpass_vm::api::READ_FILE),
        Instr::Halt,
    ];
    for (i, instr) in exit.iter().enumerate() {
        put(EXIT + i as u32 * slot, *instr);
    }
    assert!(EXIT + exit.len() as u32 * slot <= LOOP_AREA.start);
    for b in &mut mem[DATA as usize..] {
        *b = rng.gen();
    }

    let mut limits = mpass_vm::VmLimits::default();
    match kind {
        OutOfBoundsAtK => {
            let top = [p0, q0, s0].into_iter().max().expect("three pointers");
            let k_at = rng.gen_range(1..=counter.max(1));
            mem.truncate((top + k_at).min(2048) as usize);
        }
        StepLimitMidLoop => {
            let iteration = (m + chains.len()) as u64;
            limits.step_limit = rng.gen_range(8..iteration * u64::from(counter) + 16);
        }
        // The detour is a run of three jumps. Two jumps is the longest run
        // elsewhere: into the head, then the head's exit when warm.
        ChainLimitBelowRun => limits.jump_chain_limit = 2,
        _ => {}
    }
    let stepwise = mem.clone();
    let mut bulk = mem;
    // The `jmp` spelling keeps the `jnz`'s register byte (don't-care for
    // `jmp`), so only the opcode differs.
    let back = pos[m - 1] as usize;
    bulk[back] = Instr::Jmp(0).encode()[0];
    LoopCase { bulk, stepwise, limits, back }
}

/// A sink that records the trace, checks that step counters arrive
/// contiguously through `on_step` and `on_steps`, and counts the steps
/// reported in bulk.
#[derive(Default)]
struct StepAudit {
    trace: Vec<mpass_vm::ApiEvent>,
    last: u64,
    bulk_steps: u64,
}

impl mpass_vm::TraceSink for StepAudit {
    fn on_api_event(&mut self, event: mpass_vm::ApiEvent) -> mpass_vm::SinkControl {
        self.trace.push(event);
        mpass_vm::SinkControl::Continue
    }

    fn on_step(&mut self, steps: u64) {
        assert_eq!(steps, self.last + 1, "step counters must be contiguous");
        self.last = steps;
    }

    fn on_steps(&mut self, first: u64, last: u64) {
        assert!(first == self.last + 1 && first <= last, "bad bulk block {first}..={last}");
        self.last = last;
        self.bulk_steps += last - first + 1;
    }
}

/// Bulk-executed byte-map loops end exactly where stepping ends: same
/// outcome, step count, trace, registers and memory, over aliasing
/// pointers, stores running up to just over one chunk ahead of a load,
/// faults, limits, self-modification, counter extremes and shapes the
/// bulk path must refuse.
#[test]
fn byte_map_loops_run_in_bulk_exactly_as_stepwise() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x15A8);
    let mut bulked = [0u32; LOOP_KINDS.len()];
    let mut cases = [0u32; LOOP_KINDS.len()];
    for case in 0..2 * CASES as usize {
        cases[case % LOOP_KINDS.len()] += 1;
        let kind = LOOP_KINDS[case % LOOP_KINDS.len()];
        let LoopCase { bulk, stepwise, limits, back } = byte_map_case(&mut rng, kind);
        let run = |image: Vec<u8>| {
            let mut vm = Vm::from_image(image, 0).with_limits(limits);
            let exec = vm.run_in_place();
            (exec, *vm.regs(), vm.memory().to_vec())
        };
        let (want, want_regs, mut want_mem) = run(stepwise.clone());
        let (got, got_regs, got_mem) = run(bulk.clone());
        // Unless the loop overwrote it, the back-jump's opcode is the one
        // byte the spellings are meant to differ in.
        if want_mem.get(back) == Some(&stepwise[back]) {
            want_mem[back] = bulk[back];
        }
        assert_eq!(got, want, "case {case} ({kind:?})");
        assert_eq!(got_regs, want_regs, "case {case} ({kind:?})");
        assert!(got_mem == want_mem, "case {case} ({kind:?}): memory differs");

        let mut audit = StepAudit::default();
        let mut vm = Vm::from_image(bulk, 0).with_limits(limits);
        let summary = vm.run_with_sink(&mut audit);
        assert_eq!(
            (summary.outcome, summary.steps, &audit.trace),
            (want.outcome, want.steps, &want.trace)
        );
        assert_eq!(audit.last, want.steps, "case {case} ({kind:?})");
        if audit.bulk_steps > 0 {
            bulked[case % LOOP_KINDS.len()] += 1;
        }

        let mut reference = StepAudit::default();
        Vm::from_image(stepwise, 0).with_limits(limits).run_with_sink(&mut reference);
        assert_eq!(reference.bulk_steps, 0, "the jnz spelling must step");
    }
    let index = |kind| LOOP_KINDS.iter().position(|&k| k == kind).expect("listed");
    let count = |kind| bulked[index(kind)];
    for kind in [LoopKind::Plain, LoopKind::StoreAhead, LoopKind::CounterMax] {
        assert_eq!(count(kind), cases[index(kind)], "every {kind:?} loop runs in bulk");
    }
    for kind in [
        LoopKind::CounterZero,
        LoopKind::CounterOne,
        LoopKind::ChainLimitBelowRun,
        LoopKind::RejectStrideTwo,
        LoopKind::RejectCallApi,
        LoopKind::RejectLoadIntoPointer,
    ] {
        assert_eq!(count(kind), 0, "{kind:?} must step");
    }
    for kind in [LoopKind::OutOfBoundsAtK, LoopKind::StepLimitMidLoop, LoopKind::StoresIntoItself] {
        assert!(count(kind) > 0, "{kind:?} never reached the bulk path");
    }
}
