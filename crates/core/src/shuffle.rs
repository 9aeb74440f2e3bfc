//! The shuffle strategy (§III-C).
//!
//! A fixed recovery stub "might be learned as a pattern adaptively by
//! real-world ML AVs", so MPass randomizes the stub's physical layout:
//! instructions are permuted, jump instructions are inserted to preserve
//! the original execution order, benign filler is placed in the gaps
//! between instructions, and every relative displacement is re-patched for
//! the new positions.
//!
//! Physically, each stub instruction `pᵢ` occupies a 16-byte *cell*
//! `[pᵢ, jmp → cell(i+1)]`; cells are permuted, separated by random-width
//! filler gaps, and reached through an entry trampoline at offset 0. The
//! chain jumps realize the paper's
//! `ĵump p₁ → p₁ → jump p₂ → p₂ → …` execution-order construction, and
//! the gap bytes are exactly the `{s₁, s₂, …}` slots that later receive
//! optimizable perturbations.

use crate::recovery::StubInstr;
use mpass_vm::{Instr, INSTR_SIZE};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A laid-out stub region.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StubLayout {
    /// The region bytes (instructions + filler), to be placed at the base
    /// RVA the layout was computed for.
    pub bytes: Vec<u8>,
    /// Byte ranges inside [`StubLayout::bytes`] that hold filler and may be
    /// overwritten freely by the optimizer (never executed).
    pub filler_ranges: Vec<(usize, usize)>,
}

impl StubLayout {
    /// Total laid-out size.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the layout is empty (never true for a real stub).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

fn patch(instr: Instr, disp: i64) -> [u8; INSTR_SIZE] {
    instr
        .with_relative_target(disp as i32)
        .expect("patch target is a control-transfer instruction")
        .encode()
}

/// Randomize the encoding bytes the decoder ignores (unused register
/// fields and immediates), so the emitted instruction carries no fixed
/// byte pattern while decoding — and executing — identically.
fn scramble<R: Rng + ?Sized>(bytes: &mut [u8; INSTR_SIZE], rng: &mut R) {
    let instr = Instr::decode(bytes).expect("scramble input is a valid encoding");
    for (b, free) in bytes.iter_mut().zip(instr.dont_care_mask()) {
        if free {
            *b = rng.gen();
        }
    }
    debug_assert_eq!(Instr::decode(bytes).unwrap(), instr);
}

/// Lay the stub out sequentially (no shuffling) at `base_rva`. Used by the
/// shuffle-off ablation and by unit tests as the semantics reference.
pub fn layout_sequential(stub: &[StubInstr], base_rva: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(stub.len() * INSTR_SIZE);
    for (i, s) in stub.iter().enumerate() {
        let next = (i as i64 + 1) * INSTR_SIZE as i64;
        let bytes = match *s {
            StubInstr::Plain(instr) => instr.encode(),
            StubInstr::JumpTo { template, target_index } => {
                patch(template, target_index as i64 * INSTR_SIZE as i64 - next)
            }
            StubInstr::JumpExternal { template, target_rva } => {
                patch(template, target_rva as i64 - (base_rva as i64 + next))
            }
        };
        out.extend_from_slice(&bytes);
    }
    out
}

/// Lay the stub out shuffled at `base_rva`.
///
/// `filler(len)` supplies `len` bytes of benign content for each gap;
/// `max_gap_units` bounds the gap width between cells in 8-byte units.
pub fn layout_shuffled<R: Rng + ?Sized>(
    stub: &[StubInstr],
    base_rva: u32,
    max_gap_units: usize,
    filler: &mut dyn FnMut(usize) -> Vec<u8>,
    rng: &mut R,
) -> StubLayout {
    let m = stub.len();
    if m == 0 {
        return StubLayout { bytes: Vec::new(), filler_ranges: Vec::new() };
    }
    // Shuffled visit order of the cells.
    let mut order: Vec<usize> = (0..m).collect();
    order.shuffle(rng);
    // Pass 1: assign positions. Offset 0 is the entry trampoline.
    let mut cell_pos = vec![0usize; m];
    let mut gaps: Vec<(usize, usize)> = Vec::new(); // (offset, len)
    let mut cursor = INSTR_SIZE; // after trampoline
    for &cell in &order {
        let gap = rng.gen_range(0..=max_gap_units) * INSTR_SIZE;
        if gap > 0 {
            gaps.push((cursor, gap));
            cursor += gap;
        }
        cell_pos[cell] = cursor;
        cursor += 2 * INSTR_SIZE; // [instr, chain jmp]
    }
    let total = cursor;
    let mut bytes = vec![0u8; total];
    // Entry trampoline: jmp → cell 0's instruction.
    let mut tramp = patch(Instr::Jmp(0), cell_pos[0] as i64 - INSTR_SIZE as i64);
    scramble(&mut tramp, rng);
    bytes[..INSTR_SIZE].copy_from_slice(&tramp);
    // Fill gaps with benign content.
    let mut filler_ranges = Vec::with_capacity(gaps.len());
    for (off, len) in gaps {
        let content = filler(len);
        debug_assert_eq!(content.len(), len);
        bytes[off..off + len].copy_from_slice(&content);
        filler_ranges.push((off, off + len));
    }
    // Pass 2: emit cells with patched displacements. Every emitted
    // encoding gets its don't-care bytes randomized: shuffling alone
    // leaves each 16-byte cell's (instruction, chain-jump) pair as a
    // stable byte pattern that n-gram learners would mine.
    for (i, s) in stub.iter().enumerate() {
        let pos = cell_pos[i];
        let next_lexical = pos as i64 + INSTR_SIZE as i64;
        let mut instr_bytes = match *s {
            StubInstr::Plain(instr) => instr.encode(),
            StubInstr::JumpTo { template, target_index } => {
                patch(template, cell_pos[target_index] as i64 - next_lexical)
            }
            StubInstr::JumpExternal { template, target_rva } => {
                patch(template, target_rva as i64 - (base_rva as i64 + next_lexical))
            }
        };
        scramble(&mut instr_bytes, rng);
        bytes[pos..pos + INSTR_SIZE].copy_from_slice(&instr_bytes);
        // Chain jump to the next stub instruction in *logical* order.
        let chain_at = pos + INSTR_SIZE;
        let mut chain = if i + 1 < m {
            patch(
                Instr::Jmp(0),
                cell_pos[i + 1] as i64 - (chain_at as i64 + INSTR_SIZE as i64),
            )
        } else {
            // Dead slot after the final (external, unconditional) jump.
            Instr::Nop.encode()
        };
        scramble(&mut chain, rng);
        bytes[chain_at..chain_at + INSTR_SIZE].copy_from_slice(&chain);
    }
    StubLayout { bytes, filler_ranges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::{compute_keys, generate_recovery_stub, EncodedRegion};
    use mpass_vm::{Reg, Vm};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Build an image where the stub (laid out by `layout`) must decode an
    /// encoded program and run it.
    fn run_with_layout(layout_bytes: &[u8]) -> (mpass_vm::Execution, Vec<u8>) {
        let mut image = vec![0u8; 0x4000];
        let prog: Vec<u8> = [
            Instr::Movi(Reg::R7, 1234),
            Instr::CallApi(mpass_vm::api::ENCRYPT_USER_FILES),
            Instr::Halt,
        ]
        .iter()
        .flat_map(|i| i.encode())
        .collect();
        let benign: Vec<u8> = (0..prog.len()).map(|i| (i as u8).wrapping_mul(97)).collect();
        let keys = compute_keys(&prog, &benign);
        image[0x100..0x100 + benign.len()].copy_from_slice(&benign);
        image[0x300..0x300 + keys.len()].copy_from_slice(&keys);
        image[0x500..0x500 + layout_bytes.len()].copy_from_slice(layout_bytes);
        let mut vm = Vm::from_image(image, 0x500);
        let exec = vm.run_in_place();
        let mem = vm.memory()[0x100..0x100 + prog.len()].to_vec();
        (exec, mem)
    }

    fn stub() -> Vec<StubInstr> {
        generate_recovery_stub(
            &[EncodedRegion { rva: 0x100, len: 24, key_rva: 0x300 }],
            0x100,
        )
    }

    #[test]
    fn sequential_layout_works() {
        let bytes = layout_sequential(&stub(), 0x500);
        let (exec, _) = run_with_layout(&bytes);
        assert!(exec.completed(), "{:?}", exec.outcome);
        assert_eq!(exec.trace.len(), 1);
    }

    #[test]
    fn shuffled_layout_is_semantically_equivalent() {
        for seed in 0..20 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut filler = |len: usize| vec![0xCC; len];
            let layout = layout_shuffled(&stub(), 0x500, 3, &mut filler, &mut rng);
            let (exec, _) = run_with_layout(&layout.bytes);
            assert!(exec.completed(), "seed {seed}: {:?}", exec.outcome);
            assert_eq!(exec.trace.len(), 1, "seed {seed}");
            assert_eq!(exec.trace[0].api, mpass_vm::api::ENCRYPT_USER_FILES);
        }
    }

    #[test]
    fn different_seeds_differ_bytewise() {
        let mut f1 = |len: usize| vec![0u8; len];
        let mut f2 = |len: usize| vec![0u8; len];
        let mut r1 = ChaCha8Rng::seed_from_u64(1);
        let mut r2 = ChaCha8Rng::seed_from_u64(2);
        let a = layout_shuffled(&stub(), 0x500, 3, &mut f1, &mut r1);
        let b = layout_shuffled(&stub(), 0x500, 3, &mut f2, &mut r2);
        assert_ne!(a.bytes, b.bytes);
    }

    #[test]
    fn same_seed_is_deterministic() {
        let mut f1 = |len: usize| vec![7u8; len];
        let mut f2 = |len: usize| vec![7u8; len];
        let mut r1 = ChaCha8Rng::seed_from_u64(5);
        let mut r2 = ChaCha8Rng::seed_from_u64(5);
        assert_eq!(
            layout_shuffled(&stub(), 0x500, 3, &mut f1, &mut r1),
            layout_shuffled(&stub(), 0x500, 3, &mut f2, &mut r2)
        );
    }

    #[test]
    fn filler_ranges_hold_filler_and_are_disjoint_from_code() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut filler = |len: usize| vec![0xAB; len];
        let layout = layout_shuffled(&stub(), 0x500, 3, &mut filler, &mut rng);
        for &(a, b) in &layout.filler_ranges {
            assert!(layout.bytes[a..b].iter().all(|&x| x == 0xAB));
        }
        // Overwriting every filler byte must not change semantics.
        let mut mutated = layout.bytes.clone();
        for &(a, b) in &layout.filler_ranges {
            for x in &mut mutated[a..b] {
                *x = 0x5F;
            }
        }
        let (exec, _) = run_with_layout(&mutated);
        assert!(exec.completed());
        assert_eq!(exec.trace.len(), 1);
    }

    #[test]
    fn region_restored_after_shuffled_run() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut filler = |len: usize| vec![0u8; len];
        let layout = layout_shuffled(&stub(), 0x500, 2, &mut filler, &mut rng);
        let (_, mem) = run_with_layout(&layout.bytes);
        // First instruction must decode to movi r7, 1234 again.
        let decoded = Instr::decode(&mem[..8]).unwrap();
        assert_eq!(decoded, Instr::Movi(Reg::R7, 1234));
    }

    /// The VM runs the decode loop of both layouts in bulk: all but the
    /// first and last iterations reach the sink as one `on_steps` block.
    #[test]
    fn the_decode_loop_runs_in_bulk_in_both_layouts() {
        #[derive(Default)]
        struct BulkSteps(u64);
        impl mpass_vm::TraceSink for BulkSteps {
            fn on_api_event(&mut self, _: mpass_vm::ApiEvent) -> mpass_vm::SinkControl {
                mpass_vm::SinkControl::Continue
            }
            fn on_steps(&mut self, first: u64, last: u64) {
                self.0 += last - first + 1;
            }
        }
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut filler = |len: usize| vec![0xCC; len];
        let shuffled = layout_shuffled(&stub(), 0x500, 3, &mut filler, &mut rng).bytes;
        // 24 bytes, each 9 steps sequential and 17 shuffled.
        for (bytes, per_byte) in [(layout_sequential(&stub(), 0x500), 9), (shuffled, 17)] {
            let mut image = vec![0u8; 0x4000];
            image[0x500..0x500 + bytes.len()].copy_from_slice(&bytes);
            let mut sink = BulkSteps::default();
            Vm::from_image(image, 0x500).run_with_sink(&mut sink);
            assert_eq!(sink.0, 22 * per_byte);
        }
    }

    #[test]
    fn empty_stub_is_empty_layout() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut filler = |len: usize| vec![0u8; len];
        let layout = layout_shuffled(&[], 0x500, 3, &mut filler, &mut rng);
        assert!(layout.is_empty());
    }
}
