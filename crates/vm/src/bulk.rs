//! Bulk execution of affine byte-map loops.
//!
//! The recovery stub restores each encoded byte with `x = b − k` in a
//! loop that the shuffled layout stretches to 17 interpreted steps per
//! byte. [`plan`] recognises such a loop from the instructions it would
//! execute next, and [`ByteMap::run`] performs the iterations it proves
//! safe as one chunked Rust byte loop. The shape, read from the head:
//!
//! ```text
//! head: jz   c, exit           ; the only conditional
//!       ld8  x, [p + i]        ; two loads into distinct registers,
//!       ld8  y, [q + j]        ;   in either order
//!       sub  x, y              ; exactly one sub/add/xor of the two
//!       st8  [s + l], x        ; stores the combined register
//!       addi p, 1 ...          ; each of p, q, s advanced by one addi +1,
//!       addi c, -1             ;   the counter by one addi -1, anywhere
//!       jmp  head              ; plus any number of unconditional jmps
//! ```
//!
//! Nothing else may appear: no other instruction, no load into a pointer
//! or the counter, no second write to any of them. Pointer registers may
//! coincide (`s = p` in the stub) and their ranges may overlap; the bulk
//! loop loads each chunk's operands before it stores the chunk, and sizes
//! the chunks so that no store reaches a later load of its own chunk, so
//! aliasing behaves exactly as it does stepwise.

use crate::interp::{enter_stream, Cursor, VmLimits};
use crate::isa::{Instr, Reg, INSTR_SIZE};

/// Longest loop body, in instructions, the recogniser follows.
const MAX_BODY: usize = 64;

/// Most iterations [`ByteMap::map`] loads before it stores.
const CHUNK: usize = 64;

/// What [`plan`] found at a loop head.
pub(crate) enum Plan {
    /// The instructions from the head back to it are not a byte-map loop.
    Reject,
    /// The shape fits, but not one iteration can be proved safe from the
    /// current state; the step loop carries on.
    Step,
    /// Run these iterations in bulk.
    Bulk(ByteMap),
}

/// The byte operation of a loop.
#[derive(Clone, Copy)]
enum Combine {
    Add,
    Sub,
    Xor,
}

/// A recognised byte-map loop and the iterations that are safe to run.
pub(crate) struct ByteMap {
    /// Iterations to run, at least one.
    pub(crate) iterations: u32,
    /// Steps per iteration, the head and every jump included.
    body_len: u64,
    combine: Combine,
    /// The register that receives the combined value, and the other one.
    dst: Reg,
    src: Reg,
    /// First-iteration addresses of the `dst` and `src` loads and of the
    /// store; iteration `k` touches these plus `k`.
    dst_load: u32,
    src_load: u32,
    pub(crate) store: u32,
    counter: Reg,
    /// The registers an `addi +1` advances every iteration.
    pointers: [bool; 8],
    /// Consecutive taken transfers the head is re-entered with.
    pub(crate) chain: u64,
}

/// Recognise the byte-map loop headed by the `Jz` at `head` and bound the
/// iterations that can run in bulk from `at`. `fetch` returns the
/// instruction that starts at an address, as the step loop would decode
/// it, or `None` where stepping would fault. N is bounded by:
///
/// 1. the counter, less one: the final iteration and the exit are stepped;
/// 2. the step budget left;
/// 3. every load and store address staying mapped, with no wrap;
/// 4. no store into the bytes of any instruction of the loop;
/// 5. every run of consecutive jumps within `jump_chain_limit`;
/// 6. the stream anchor coming back unchanged after one iteration, so no
///    iteration can fault with [`crate::VmFault::MisalignedPc`].
pub(crate) fn plan(
    head: u32,
    mut fetch: impl FnMut(u32) -> Option<Instr>,
    regs: &[u32; 8],
    memory_len: usize,
    at: Cursor,
    limits: &VmLimits,
) -> Plan {
    let Some(Instr::Jz(counter, _)) = fetch(head) else {
        return Plan::Reject;
    };
    if regs[counter.index()] < 2 {
        return Plan::Step;
    }
    // Walk one iteration from the head, which falls through. `body` holds
    // the start of every instruction executed; `core` the loads, the
    // combine and the store in program order, each access with its
    // first-iteration address.
    let mut body = [head; MAX_BODY];
    let mut len = 1;
    let mut core = [(Instr::Nop, 0u32); 4];
    let mut core_len = 0;
    let mut adds = [0u32; 8];
    let (mut anchor, mut chain, mut longest) = (at.stream_anchor, 0u64, 0u64);
    let mut pc = head.wrapping_add(INSTR_SIZE as u32);
    while pc != head {
        if len == MAX_BODY {
            return Plan::Reject;
        }
        let Some(instr) = fetch(pc) else {
            return Plan::Step;
        };
        body[len] = pc;
        len += 1;
        let next = pc.wrapping_add(INSTR_SIZE as u32);
        pc = next;
        if let Instr::Jmp(d) = instr {
            pc = next.wrapping_add(d as u32);
            let Some(a) = enter_stream(anchor, next, pc) else {
                return Plan::Step;
            };
            anchor = a;
            chain += 1;
            longest = longest.max(chain);
            continue;
        }
        chain = 0;
        match instr {
            Instr::Addi(r, imm) => {
                if imm != if r == counter { -1 } else { 1 } {
                    return Plan::Reject;
                }
                adds[r.index()] += 1;
            }
            Instr::Ld8(_, base, imm) | Instr::St8(_, base, imm) if core_len < 4 => {
                let b = base.index();
                let addr = regs[b].wrapping_add(adds[b]).wrapping_add(imm as u32);
                core[core_len] = (instr, addr);
                core_len += 1;
            }
            Instr::Add(..) | Instr::Sub(..) | Instr::Xor(..) if core_len < 4 => {
                core[core_len] = (instr, 0);
                core_len += 1;
            }
            _ => return Plan::Reject,
        }
    }
    let [(first, x_addr), (second, y_addr), (op, _), (st, store)] = core;
    let (Instr::Ld8(x, p, _), Instr::Ld8(y, q, _), Instr::St8(v, s, _)) = (first, second, st)
    else {
        return Plan::Reject;
    };
    let (combine, dst, src) = match op {
        Instr::Add(a, b) => (Combine::Add, a, b),
        Instr::Sub(a, b) => (Combine::Sub, a, b),
        Instr::Xor(a, b) => (Combine::Xor, a, b),
        _ => return Plan::Reject,
    };
    if x == y || !((dst, src) == (x, y) || (dst, src) == (y, x)) || v != dst {
        return Plan::Reject;
    }
    let mut pointers = [false; 8];
    for r in [p, q, s] {
        pointers[r.index()] = true;
    }
    if [x, y, counter].iter().any(|r| pointers[r.index()]) || counter == x || counter == y {
        return Plan::Reject;
    }
    for r in Reg::ALL {
        let expected = u32::from(pointers[r.index()] || r == counter);
        if adds[r.index()] != expected {
            return Plan::Reject;
        }
    }
    let (dst_load, src_load) = if dst == x { (x_addr, y_addr) } else { (y_addr, x_addr) };

    if longest > limits.jump_chain_limit || anchor != at.stream_anchor {
        return Plan::Step;
    }
    let body_len = len as u64;
    let mut n = u64::from(regs[counter.index()]).saturating_sub(1);
    n = n.min(limits.step_limit.saturating_sub(at.steps) / body_len);
    let mapped = (memory_len as u64).min(1 << 32);
    for addr in [dst_load, src_load, store] {
        n = n.min(mapped.saturating_sub(u64::from(addr)));
    }
    let first_store = u64::from(store);
    for &start in &body[..len] {
        let start = u64::from(start);
        if first_store < start + INSTR_SIZE as u64 {
            n = n.min(start.saturating_sub(first_store));
        }
    }
    match u32::try_from(n) {
        Ok(iterations) if iterations > 0 => Plan::Bulk(ByteMap {
            iterations,
            body_len,
            combine,
            dst,
            src,
            dst_load,
            src_load,
            store,
            counter,
            pointers,
            chain,
        }),
        _ => Plan::Step,
    }
}

impl ByteMap {
    /// The steps the bulk block stands for.
    pub(crate) fn steps(&self) -> u64 {
        u64::from(self.iterations) * self.body_len
    }

    /// Execute the iterations on `memory` and `regs`, leaving both as
    /// stepping through them would. [`plan`] proved every address mapped.
    pub(crate) fn run(&self, memory: &mut [u8], regs: &mut [u32; 8]) {
        let (out, src) = match self.combine {
            Combine::Add => self.map(memory, u32::wrapping_add),
            Combine::Sub => self.map(memory, u32::wrapping_sub),
            Combine::Xor => self.map(memory, |a, b| a ^ b),
        };
        regs[self.dst.index()] = out;
        regs[self.src.index()] = src;
        for (reg, &advanced) in regs.iter_mut().zip(&self.pointers) {
            if advanced {
                *reg = reg.wrapping_add(self.iterations);
            }
        }
        let c = &mut regs[self.counter.index()];
        *c = c.wrapping_sub(self.iterations);
    }

    /// The byte loop itself: iterations run in chunks that load their
    /// operands, combine and then store, and the last iteration runs alone
    /// after every earlier write. Returns the last iteration's combined and
    /// source registers.
    ///
    /// Iteration `k` loads `d + k` and `s + k` and stores `st + k`, so its
    /// store is read again only by iteration `k + st − d` (or `k + st − s`),
    /// and only when the store runs ahead of that load. A chunk no longer
    /// than either positive distance therefore reads no byte it writes, and
    /// loading it whole before storing it equals stepping; a length of 1 is
    /// plain program order. Loads behind the store, or at it, read bytes
    /// that stepping also reads before the store.
    #[inline(always)]
    fn map(&self, memory: &mut [u8], f: impl Fn(u32, u32) -> u32) -> (u32, u32) {
        let (d, s, st) = (self.dst_load as usize, self.src_load as usize, self.store as usize);
        let ahead = |load: usize| if st > load { st - load } else { CHUNK };
        let chunk = CHUNK.min(ahead(d)).min(ahead(s));
        let last = self.iterations as usize - 1;
        let (mut src_chunk, mut out_chunk) = ([0u8; CHUNK], [0u8; CHUNK]);
        let mut k = 0;
        while k < last {
            let n = chunk.min(last - k);
            let src = &mut src_chunk[..n];
            src.copy_from_slice(&memory[s + k..s + k + n]);
            let combine = |a: &u8, b: &u8| f(u32::from(*a), u32::from(*b)) as u8;
            if st == d {
                // The recovery stub stores where it loads the destination:
                // combine in place and copy only the source chunk.
                for (a, b) in memory[d + k..d + k + n].iter_mut().zip(&*src) {
                    *a = combine(a, b);
                }
            } else {
                let out = &mut out_chunk[..n];
                for ((o, a), b) in out.iter_mut().zip(&memory[d + k..d + k + n]).zip(&*src) {
                    *o = combine(a, b);
                }
                memory[st + k..st + k + n].copy_from_slice(out);
            }
            k += n;
        }
        let src = u32::from(memory[s + last]);
        let out = f(u32::from(memory[d + last]), src);
        memory[st + last] = out as u8;
        (out, src)
    }
}
