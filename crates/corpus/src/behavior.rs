//! Synthesis of executable MVM programs with prescribed API behaviour.
//!
//! Programs interleave their API calls with arithmetic noise, loops and
//! subroutines so that code sections have realistic instruction variety,
//! and they load API arguments from the data section so that behaviour
//! depends on data bytes.

use mpass_vm::{api, ApiId, Asm, Instr, Reg};
use rand::Rng;

/// Specification of the behaviour a synthesized program must exhibit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BehaviorSpec {
    /// APIs to invoke, in order.
    pub api_calls: Vec<ApiId>,
    /// How many of the API calls take their argument from the data
    /// section (`data_rva`); the rest use register arithmetic results.
    pub data_driven_calls: usize,
    /// RVA of the data section the program reads arguments from.
    pub data_rva: u32,
    /// Number of data bytes available at `data_rva`.
    pub data_len: u32,
    /// Rough amount of filler computation between calls (instructions).
    pub noise: usize,
}

impl BehaviorSpec {
    /// A benign behaviour profile over `n_calls` random benign APIs.
    ///
    /// A fifth of benign programs additionally make *one* dual-use
    /// "suspicious" call (debuggers inject threads, backup tools touch
    /// shadow copies): real-world benign software is not perfectly clean,
    /// and detectors must learn magnitudes rather than mere presence.
    pub fn benign<R: Rng + ?Sized>(
        n_calls: usize,
        data_rva: u32,
        data_len: u32,
        rng: &mut R,
    ) -> Self {
        let pool = api::benign();
        let mut api_calls: Vec<ApiId> =
            (0..n_calls.max(2)).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
        if rng.gen_bool(0.2) {
            let sus = api::suspicious();
            let at = rng.gen_range(0..=api_calls.len());
            api_calls.insert(at, sus[rng.gen_range(0..sus.len())]);
        }
        let n = api_calls.len();
        BehaviorSpec {
            api_calls,
            data_driven_calls: n / 2,
            data_rva,
            data_len,
            noise: rng.gen_range(4..12),
        }
    }

    /// A malicious behaviour profile: a mix of suspicious APIs (at least
    /// three) plus camouflage benign calls.
    pub fn malicious<R: Rng + ?Sized>(
        n_suspicious: usize,
        n_benign: usize,
        data_rva: u32,
        data_len: u32,
        rng: &mut R,
    ) -> Self {
        let sus = api::suspicious();
        let ben = api::benign();
        let mut calls: Vec<ApiId> = (0..n_suspicious.max(3))
            .map(|_| sus[rng.gen_range(0..sus.len())])
            .collect();
        for _ in 0..n_benign {
            let at = rng.gen_range(0..=calls.len());
            calls.insert(at, ben[rng.gen_range(0..ben.len())]);
        }
        let n = calls.len();
        BehaviorSpec {
            api_calls: calls,
            data_driven_calls: (n / 2).max(1),
            data_rva,
            data_len,
            noise: rng.gen_range(4..12),
        }
    }
}

/// Emit a few arithmetic-noise instructions that leave `R6`/`R7` free.
fn emit_noise<R: Rng + ?Sized>(asm: &mut Asm, amount: usize, rng: &mut R) {
    for _ in 0..amount {
        let a = Reg::ALL[rng.gen_range(0..4)];
        let b = Reg::ALL[rng.gen_range(0..4)];
        match rng.gen_range(0..6) {
            0 => asm.push(Instr::Movi(a, rng.gen_range(-1000..1000))),
            1 => asm.push(Instr::Add(a, b)),
            2 => asm.push(Instr::Xor(a, b)),
            3 => asm.push(Instr::Mul(a, b)),
            4 => asm.push(Instr::Addi(a, rng.gen_range(-50..50))),
            _ => asm.push(Instr::Or(a, b)),
        };
    }
}

/// Emit a bounded counting loop (adds realistic back-edges).
fn emit_loop<R: Rng + ?Sized>(asm: &mut Asm, id: usize, rng: &mut R) {
    let label = format!("loop_{id}");
    asm.push(Instr::Movi(Reg::R5, rng.gen_range(2..8)));
    asm.label(&label);
    asm.push(Instr::Addi(Reg::R4, 1));
    asm.push(Instr::Addi(Reg::R5, -1));
    asm.jump_to(Instr::Jnz(Reg::R5, 0), &label);
}

/// Synthesize a program realizing `spec`. The returned instruction list
/// always terminates with `Halt` and never faults when the data section
/// described by `spec` is mapped.
///
/// Data-driven calls compute their argument as a byte loaded from
/// `data_rva + k` for a per-call deterministic `k`, making the API trace
/// argument-sensitive to data-section contents.
pub fn synthesize_program<R: Rng + ?Sized>(spec: &BehaviorSpec, rng: &mut R) -> Vec<Instr> {
    let mut asm = Asm::new();
    emit_noise(&mut asm, spec.noise, rng);
    let mut loops = 0usize;
    for (i, &apiid) in spec.api_calls.iter().enumerate() {
        if rng.gen_bool(0.4) {
            emit_loop(&mut asm, loops, rng);
            loops += 1;
        }
        emit_noise(&mut asm, rng.gen_range(1..=spec.noise.max(1)), rng);
        if i < spec.data_driven_calls && spec.data_len > 0 {
            // r0 = mem8[data_rva + k]: argument depends on data bytes.
            let k = (i as u32 * 7 + 3) % spec.data_len;
            asm.push(Instr::Movi(Reg::R6, spec.data_rva as i32));
            asm.push(Instr::Ld8(Reg::R0, Reg::R6, k as i32));
        } else {
            asm.push(Instr::Movi(Reg::R0, (i as i32 + 1) * 17));
        }
        asm.push(Instr::CallApi(apiid));
    }
    emit_noise(&mut asm, spec.noise / 2, rng);
    asm.push(Instr::Halt);
    asm.instructions().expect("synthesized program always assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpass_pe::{PeBuilder, SectionFlags};
    use mpass_vm::Vm;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn run(spec: &BehaviorSpec, data: Vec<u8>, seed: u64) -> mpass_vm::Execution {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let prog = synthesize_program(spec, &mut rng);
        let code: Vec<u8> = prog.iter().flat_map(|i| i.encode()).collect();
        let mut b = PeBuilder::new();
        b.add_section(".text", code, SectionFlags::CODE).unwrap();
        b.add_section(".data", data, SectionFlags::DATA).unwrap();
        b.set_entry_section(".text", 0).unwrap();
        let mut pe = b.build().unwrap();
        // Fix the spec's data_rva to the actual one before synthesizing:
        // tests construct the spec with the known default layout instead.
        let actual_rva = pe.section(".data").unwrap().header().virtual_address;
        assert_eq!(actual_rva, spec.data_rva, "test layout assumption violated");
        pe.update_checksum();
        Vm::load_binary(&pe, mpass_vm::VmLimits::default()).run()
    }

    /// With default alignment the second section lands at 0x2000.
    const DATA_RVA: u32 = 0x2000;

    #[test]
    fn synthesized_malware_halts_and_traces() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let spec = BehaviorSpec::malicious(4, 3, DATA_RVA, 64, &mut rng);
        let exec = run(&spec, vec![0xAB; 64], 2);
        assert!(exec.completed(), "outcome {:?}", exec.outcome);
        assert_eq!(exec.trace.len(), spec.api_calls.len());
        assert!(exec.suspicious_calls().count() >= 3);
    }

    #[test]
    fn synthesized_benign_has_at_most_one_dual_use_call() {
        for seed in 0..8 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let spec = BehaviorSpec::benign(6, DATA_RVA, 64, &mut rng);
            let exec = run(&spec, vec![1; 64], seed ^ 0x55);
            assert!(exec.completed());
            assert!(exec.suspicious_calls().count() <= 1, "seed {seed}");
        }
    }

    #[test]
    fn trace_arguments_depend_on_data_bytes() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let spec = BehaviorSpec::malicious(4, 2, DATA_RVA, 64, &mut rng);
        let e1 = run(&spec, vec![0x11; 64], 5);
        let e2 = run(&spec, vec![0x99; 64], 5);
        assert!(e1.completed() && e2.completed());
        // Same APIs in the same order...
        let apis1: Vec<_> = e1.trace.iter().map(|e| e.api).collect();
        let apis2: Vec<_> = e2.trace.iter().map(|e| e.api).collect();
        assert_eq!(apis1, apis2);
        // ...but different arguments: data corruption is observable.
        assert_ne!(e1.trace, e2.trace);
    }

    #[test]
    fn program_is_deterministic_per_seed() {
        let mut r1 = ChaCha8Rng::seed_from_u64(9);
        let mut r2 = ChaCha8Rng::seed_from_u64(9);
        let s1 = BehaviorSpec::malicious(3, 2, DATA_RVA, 32, &mut r1);
        let s2 = BehaviorSpec::malicious(3, 2, DATA_RVA, 32, &mut r2);
        assert_eq!(s1, s2);
        let mut r1 = ChaCha8Rng::seed_from_u64(10);
        let mut r2 = ChaCha8Rng::seed_from_u64(10);
        assert_eq!(synthesize_program(&s1, &mut r1), synthesize_program(&s2, &mut r2));
    }

    #[test]
    fn minimum_three_suspicious_calls_enforced() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let spec = BehaviorSpec::malicious(0, 0, DATA_RVA, 16, &mut rng);
        let n_sus = spec.api_calls.iter().filter(|a| a.is_suspicious()).count();
        assert!(n_sus >= 3);
    }
}
