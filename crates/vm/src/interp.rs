//! The MVM interpreter: loads a PE image the way the OS loader would and
//! executes from the entry point, recording the API-call behaviour trace.

use crate::api::{ApiEvent, ApiId};
use crate::bulk::{self, Plan};
use crate::isa::{Instr, Reg, INSTR_SIZE};
use crate::sink::{RecordingSink, SinkControl, TraceDigest, TraceSink};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Default bound on executed instructions, generous enough for every
/// corpus program plus recovery stubs over full code/data sections.
pub const DEFAULT_STEP_LIMIT: u64 = 20_000_000;

/// Default ceiling on the mapped image size. A hostile `size_of_image` can
/// claim up to 4 GiB of virtual space; no corpus or attack-produced image
/// approaches this bound.
pub const DEFAULT_MEMORY_LIMIT: usize = 256 << 20;

/// Default cap on recorded API events. Every API call costs a step, so the
/// trace can never outgrow the step limit; this bound keeps the trace
/// allocation itself governed when callers raise the step limit.
pub const DEFAULT_TRACE_LIMIT: usize = 4_000_000;

/// Default cap on *consecutive* taken control transfers. A program that
/// branches this many times without executing a single non-jump instruction
/// is doing no work; the cap breaks hostile jump chains long before the
/// step limit would.
pub const DEFAULT_JUMP_CHAIN_LIMIT: u64 = 1_000_000;

/// Resource ceilings applied to one execution. Every bound terminates the
/// run gracefully with [`Outcome::ResourceExhausted`] (or
/// [`Outcome::StepLimit`] for the step budget) — never a panic or an
/// unbounded allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmLimits {
    /// Maximum instructions executed before the run counts as a hang.
    pub step_limit: u64,
    /// Maximum mapped image size in bytes.
    pub memory_limit: usize,
    /// Maximum recorded API events.
    pub trace_limit: usize,
    /// Maximum consecutive taken control transfers.
    pub jump_chain_limit: u64,
}

impl Default for VmLimits {
    fn default() -> Self {
        VmLimits {
            step_limit: DEFAULT_STEP_LIMIT,
            memory_limit: DEFAULT_MEMORY_LIMIT,
            trace_limit: DEFAULT_TRACE_LIMIT,
            jump_chain_limit: DEFAULT_JUMP_CHAIN_LIMIT,
        }
    }
}

/// Which governed resource an execution ran out of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Resource {
    /// The image exceeded [`VmLimits::memory_limit`] at load time.
    Memory,
    /// The API trace reached [`VmLimits::trace_limit`].
    Trace,
    /// Consecutive taken jumps exceeded [`VmLimits::jump_chain_limit`].
    JumpChain,
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Resource::Memory => write!(f, "memory ceiling"),
            Resource::Trace => write!(f, "trace length cap"),
            Resource::JumpChain => write!(f, "jump-chain depth cap"),
        }
    }
}

/// A fault that terminates execution abnormally. Any fault on an
/// adversarial example that the original did not exhibit means the attack
/// destroyed functionality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VmFault {
    /// PC left the mapped image or was mid-instruction at the image edge.
    PcOutOfBounds(u32),
    /// A taken jump landed strictly inside an 8-byte instruction slot of
    /// the sequential stream it is executing in (overlapping-instruction
    /// execution); carries the offending target address. Jumps that leave
    /// the current stream re-anchor the slot grid instead — instruction
    /// streams have no global alignment (packer stubs start at arbitrary
    /// byte offsets).
    MisalignedPc(u32),
    /// The bytes at PC did not decode to an instruction.
    IllegalInstruction(u32),
    /// A load/store touched an unmapped address.
    MemoryOutOfBounds(u32),
    /// `Pop`/`Ret` on an empty stack.
    StackUnderflow,
    /// The data or call stack grew past its bound.
    StackOverflow,
}

impl fmt::Display for VmFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmFault::PcOutOfBounds(pc) => write!(f, "pc {pc:#x} outside mapped image"),
            VmFault::MisalignedPc(pc) => {
                write!(f, "pc {pc:#x} inside an instruction slot")
            }
            VmFault::IllegalInstruction(pc) => write!(f, "illegal instruction at {pc:#x}"),
            VmFault::MemoryOutOfBounds(a) => write!(f, "memory access at {a:#x} out of bounds"),
            VmFault::StackUnderflow => write!(f, "stack underflow"),
            VmFault::StackOverflow => write!(f, "stack overflow"),
        }
    }
}

impl std::error::Error for VmFault {}

/// How an execution ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Outcome {
    /// A `halt` instruction was reached.
    Halted,
    /// Execution faulted.
    Faulted(VmFault),
    /// The step limit was exhausted (treated as a hang).
    StepLimit,
    /// A governed resource ceiling was reached (treated as a hang, but the
    /// variant records which bound tripped).
    ResourceExhausted(Resource),
    /// A [`TraceSink`] requested termination ([`SinkControl::Abort`]) —
    /// e.g. a comparing sink that observed its first divergent event.
    Aborted,
}

/// The result of running a program: outcome, step count and the API trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Execution {
    /// Terminal condition.
    pub outcome: Outcome,
    /// Number of instructions executed.
    pub steps: u64,
    /// Recorded API calls in order.
    pub trace: Vec<ApiEvent>,
}

impl Execution {
    /// True when the program ran to a clean `halt`.
    pub fn completed(&self) -> bool {
        self.outcome == Outcome::Halted
    }

    /// The subsequence of suspicious API calls — the "malicious behaviour"
    /// the sandbox checks for. Borrows the trace; call `.count()` for the
    /// old `Vec` length or `.collect()` for the events themselves.
    pub fn suspicious_calls(&self) -> impl Iterator<Item = ApiEvent> + '_ {
        self.trace.iter().copied().filter(|e| e.api.is_suspicious())
    }

    /// The streaming digest of this execution's trace (what a
    /// [`crate::DigestSink`]-driven run of the same program reports).
    pub fn digest(&self) -> TraceDigest {
        TraceDigest::of_trace(&self.trace)
    }
}

/// Outcome and step count of a sink-driven run: what is left of
/// [`Execution`] once the trace lives in the sink instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Terminal condition.
    pub outcome: Outcome,
    /// Number of instructions executed.
    pub steps: u64,
}

impl RunSummary {
    /// True when the program ran to a clean `halt`.
    pub fn completed(&self) -> bool {
        self.outcome == Outcome::Halted
    }
}

const STACK_LIMIT: usize = 64 * 1024;

/// The per-run interpreter state that lives outside [`Vm`]: the step
/// count, the first address of the sequential instruction stream
/// executing (see [`VmFault::MisalignedPc`]), and the run of consecutive
/// taken transfers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cursor {
    pub(crate) steps: u64,
    pub(crate) stream_anchor: u32,
    pub(crate) jump_chain: u64,
}

/// Entries in the per-run decode cache. Fixed, so the cache costs the
/// same 8 KiB whatever the image size or memory limit, and filling it is
/// cheap enough for runs of a few dozen steps.
const DECODE_CACHE_SLOTS: usize = 512;

/// One decode-cache entry: the instruction that starts at `tag`.
#[derive(Clone, Copy)]
struct CacheEntry {
    /// Start address, widened so that [`DecodeCache::EMPTY`] can never
    /// equal a `u32` pc, however large the mapped image.
    tag: u64,
    instr: Instr,
}

const _: () = assert!(std::mem::size_of::<[CacheEntry; DECODE_CACHE_SLOTS]>() <= 8 * 1024);

/// A direct-mapped table from instruction start address to decoded
/// instruction, indexed by `(pc >> 3) & 511`; it lives for one
/// [`Vm::run_with_sink`] call. Stores invalidate every entry whose 8 bytes
/// they overlap, so a hit always equals a fresh decode of current memory.
struct DecodeCache {
    entries: [CacheEntry; DECODE_CACHE_SLOTS],
    /// One bit per entry: set when the bulk path rejected the loop its
    /// `Jz` heads; refilling the entry clears it.
    rejected: [u64; DECODE_CACHE_SLOTS / 64],
    /// Lowest and highest start address ever cached: a store that ends
    /// below `lo` or starts past `hi + 7` cannot touch a cached instruction.
    lo: u64,
    hi: u64,
}

impl DecodeCache {
    const EMPTY: u64 = u64::MAX;

    fn new() -> DecodeCache {
        DecodeCache {
            entries: [CacheEntry { tag: Self::EMPTY, instr: Instr::Nop }; DECODE_CACHE_SLOTS],
            rejected: [0; DECODE_CACHE_SLOTS / 64],
            lo: u64::MAX,
            hi: 0,
        }
    }

    fn slot(addr: u64) -> usize {
        (addr >> 3) as usize & (DECODE_CACHE_SLOTS - 1)
    }

    #[inline(always)]
    fn get(&self, pc: u32) -> Option<Instr> {
        let e = &self.entries[Self::slot(u64::from(pc))];
        (e.tag == u64::from(pc)).then_some(e.instr)
    }

    fn insert(&mut self, pc: u32, instr: Instr) {
        let tag = u64::from(pc);
        let slot = Self::slot(tag);
        self.entries[slot] = CacheEntry { tag, instr };
        self.rejected[slot / 64] &= !(1 << (slot % 64));
        self.lo = self.lo.min(tag);
        self.hi = self.hi.max(tag);
    }

    /// True when `pc` holds a cached `Jz` whose loop was not rejected: the
    /// trigger of a bulk block.
    #[inline(always)]
    fn is_loop_head(&self, pc: u32) -> bool {
        let slot = Self::slot(u64::from(pc));
        let e = &self.entries[slot];
        e.tag == u64::from(pc)
            && matches!(e.instr, Instr::Jz(..))
            && self.rejected[slot / 64] & (1 << (slot % 64)) == 0
    }

    /// Mark the cached instruction at `pc` as the head of a rejected loop.
    fn reject(&mut self, pc: u32) {
        let slot = Self::slot(u64::from(pc));
        self.rejected[slot / 64] |= 1 << (slot % 64);
    }

    /// Drop every cached instruction overlapping the `len` bytes written
    /// at `addr`, i.e. those starting at `addr - 7 ..= addr + len - 1`.
    /// Only start addresses inside the cached span `lo..=hi` are visited,
    /// so a bulk store over a large section costs at most that span.
    #[inline(always)]
    fn invalidate(&mut self, addr: u32, len: u64) {
        let first = u64::from(addr).saturating_sub(INSTR_SIZE as u64 - 1).max(self.lo);
        let last = (u64::from(addr) + len - 1).min(self.hi);
        for start in first..=last {
            let e = &mut self.entries[Self::slot(start)];
            if e.tag == start {
                e.tag = Self::EMPTY;
            }
        }
    }
}

/// The MVM virtual machine.
///
/// Address space: the PE image mapped at address 0 (RVA addressing), i.e.
/// headers at 0 and every section at its RVA, with virtual-only space
/// zero-filled. All of it is readable and writable — runtime unpacking,
/// which both the MPass recovery module and the simulated packers rely on,
/// writes over code. Each run decodes an instruction once and reuses it
/// until a store overwrites any of its bytes (see [`Vm::run_with_sink`]).
#[derive(Debug, Clone)]
pub struct Vm {
    memory: Vec<u8>,
    regs: [u32; 8],
    pc: u32,
    data_stack: Vec<u32>,
    call_stack: Vec<u32>,
    limits: VmLimits,
    /// Set when the image blew the memory ceiling at load time; the first
    /// call to run reports [`Outcome::ResourceExhausted`] without stepping.
    oversized: bool,
}

impl Vm {
    /// Map a PE, Mach-O or any other [`Loadable`](mpass_binfmt::Loadable)
    /// image (every [`BinaryFormat`](mpass_binfmt::BinaryFormat) is one, and
    /// so is a borrowed `mpass_pe::PeView`) into a fresh VM under resource
    /// `limits`, with the PC at the image's entry point.
    /// The flat address space works the same for every container —
    /// sections at their virtual addresses, zero fill elsewhere — so every
    /// format executes through the identical interpreter path. An image
    /// whose mapped size exceeds [`VmLimits::memory_limit`] is not mapped
    /// at all; the VM reports
    /// [`Outcome::ResourceExhausted`]`(`[`Resource::Memory`]`)` at zero
    /// steps instead of allocating.
    pub fn load_binary(image: &dyn mpass_binfmt::Loadable, limits: VmLimits) -> Vm {
        let (memory, oversized) = match image.map_image_bounded(limits.memory_limit) {
            Ok(m) => (m, false),
            Err(_) => (Vec::new(), true),
        };
        Vm {
            memory,
            regs: [0; 8],
            pc: u32::try_from(image.entry_point()).unwrap_or(u32::MAX),
            data_stack: Vec::new(),
            call_stack: Vec::new(),
            limits,
            oversized,
        }
    }

    /// Construct from a raw flat memory image and entry address (used by
    /// unit tests and fuzzing). The caller already owns the allocation, so
    /// no memory ceiling applies.
    pub fn from_image(memory: Vec<u8>, entry: u32) -> Vm {
        Vm {
            memory,
            regs: [0; 8],
            pc: entry,
            data_stack: Vec::new(),
            call_stack: Vec::new(),
            limits: VmLimits::default(),
            oversized: false,
        }
    }

    /// Override the instruction budget.
    pub fn with_step_limit(mut self, limit: u64) -> Vm {
        self.limits.step_limit = limit;
        self
    }

    /// Replace the full set of resource ceilings.
    pub fn with_limits(mut self, limits: VmLimits) -> Vm {
        self.limits = limits;
        self
    }

    /// The resource ceilings this VM runs under.
    pub fn limits(&self) -> VmLimits {
        self.limits
    }

    /// Current register file (read-only view for assertions).
    pub fn regs(&self) -> &[u32; 8] {
        &self.regs
    }

    /// The VM memory after execution (used to assert in-place recovery).
    pub fn memory(&self) -> &[u8] {
        &self.memory
    }

    fn read8(&self, addr: u32) -> Result<u8, VmFault> {
        self.memory.get(addr as usize).copied().ok_or(VmFault::MemoryOutOfBounds(addr))
    }

    fn write8(&mut self, addr: u32, v: u8) -> Result<(), VmFault> {
        match self.memory.get_mut(addr as usize) {
            Some(slot) => {
                *slot = v;
                Ok(())
            }
            None => Err(VmFault::MemoryOutOfBounds(addr)),
        }
    }

    fn read32(&self, addr: u32) -> Result<u32, VmFault> {
        let a = addr as usize;
        if a + 4 > self.memory.len() {
            return Err(VmFault::MemoryOutOfBounds(addr));
        }
        Ok(u32::from_le_bytes([
            self.memory[a],
            self.memory[a + 1],
            self.memory[a + 2],
            self.memory[a + 3],
        ]))
    }

    fn write32(&mut self, addr: u32, v: u32) -> Result<(), VmFault> {
        let a = addr as usize;
        if a + 4 > self.memory.len() {
            return Err(VmFault::MemoryOutOfBounds(addr));
        }
        self.memory[a..a + 4].copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Execute until halt, fault or step limit; consumes the VM's transient
    /// state but leaves memory/registers inspectable afterwards via
    /// [`Vm::memory`] / [`Vm::regs`] when called through
    /// [`Vm::run_in_place`].
    pub fn run(mut self) -> Execution {
        self.run_in_place()
    }

    /// Like [`Vm::run`] but borrows, so memory and registers can be
    /// inspected afterwards. Drives a [`RecordingSink`] bounded by
    /// [`VmLimits::trace_limit`] — the sink-era spelling of the original
    /// trace-vector interpreter, bit-for-bit including the
    /// [`Resource::Trace`] exhaustion behaviour.
    pub fn run_in_place(&mut self) -> Execution {
        let mut sink = RecordingSink::with_limit(self.limits.trace_limit);
        let run = self.run_with_sink(&mut sink);
        Execution { outcome: run.outcome, steps: run.steps, trace: sink.into_trace() }
    }

    /// Execute until halt, fault, step limit — or until `sink` ends the
    /// run. Every API event is pushed at the sink as it happens instead of
    /// into an owned vector; see [`TraceSink`] for the callback contract.
    ///
    /// The call is monomorphized over the sink type, so sinks with no-op
    /// observers cost nothing beyond their `on_api_event` body.
    ///
    /// Decoded instructions are kept for the length of the call in a fixed
    /// 512-entry direct-mapped cache keyed by start address. Every
    /// successful `St8`/`St32` drops each cached instruction whose 8 bytes
    /// it overlaps, so self-modifying code (the recovery stub, unpackers)
    /// runs exactly as if every step decoded memory afresh; debug builds
    /// assert that on every cache hit.
    ///
    /// A taken transfer to a cached `Jz` may start a bulk block: when the
    /// instructions from there back to it form an affine byte-map loop
    /// (the recovery stub's `x = b - k` decode loop is one), the
    /// iterations that provably neither fault nor trip a limit run as one
    /// plain byte loop, leaving exactly the state stepping would have left
    /// (see `crate::bulk`); debug builds re-run every block stepwise and
    /// assert that.
    pub fn run_with_sink<S: TraceSink>(&mut self, sink: &mut S) -> RunSummary {
        if self.oversized {
            sink.on_exhausted(Resource::Memory);
            return RunSummary { outcome: Outcome::ResourceExhausted(Resource::Memory), steps: 0 };
        }
        let mut at = Cursor { steps: 0, stream_anchor: self.pc, jump_chain: 0 };
        self.step_loop::<S, true>(sink, &mut DecodeCache::new(), &mut at)
    }

    /// The interpreter proper: step from `at` until the run ends, then
    /// leave the final cursor in `at`. `BULK` enables bulk blocks; the
    /// debug oracle turns it off to get the stepwise reference.
    #[inline(always)]
    fn step_loop<S: TraceSink, const BULK: bool>(
        &mut self,
        sink: &mut S,
        cache: &mut DecodeCache,
        at: &mut Cursor,
    ) -> RunSummary {
        // Termination helpers: notify the sink, then surface the outcome.
        fn faulted<S: TraceSink>(sink: &mut S, fault: VmFault) -> Outcome {
            sink.on_fault(fault);
            Outcome::Faulted(fault)
        }
        fn exhausted<S: TraceSink>(sink: &mut S, res: Resource) -> Outcome {
            sink.on_exhausted(res);
            Outcome::ResourceExhausted(res)
        }
        // `stream_anchor` is the first instruction address of the
        // sequential stream currently executing; every slot in the stream
        // sits at anchor + k·8.
        let Cursor { mut steps, mut stream_anchor, mut jump_chain } = *at;
        let outcome = loop {
            if steps >= self.limits.step_limit {
                break Outcome::StepLimit;
            }
            let pc = self.pc;
            let end = pc as usize + INSTR_SIZE;
            if end > self.memory.len() {
                break faulted(sink, VmFault::PcOutOfBounds(pc));
            }
            let instr = match cache.get(pc) {
                Some(i) => {
                    debug_assert_eq!(
                        Instr::decode(&self.memory[pc as usize..end]),
                        Ok(i),
                        "stale decode-cache entry at {pc:#x}"
                    );
                    i
                }
                None => match Instr::decode(&self.memory[pc as usize..end]) {
                    Ok(i) => {
                        cache.insert(pc, i);
                        i
                    }
                    Err(_) => break faulted(sink, VmFault::IllegalInstruction(pc)),
                },
            };
            steps += 1;
            sink.on_step(steps);
            let next = pc.wrapping_add(INSTR_SIZE as u32);
            self.pc = next;
            let r = |reg: Reg| self.regs[reg.index()];
            let mut taken = false;
            match instr {
                Instr::Movi(a, imm) => self.regs[a.index()] = imm as u32,
                Instr::Mov(a, b) => self.regs[a.index()] = r(b),
                Instr::Add(a, b) => self.regs[a.index()] = r(a).wrapping_add(r(b)),
                Instr::Sub(a, b) => self.regs[a.index()] = r(a).wrapping_sub(r(b)),
                Instr::Xor(a, b) => self.regs[a.index()] = r(a) ^ r(b),
                Instr::And(a, b) => self.regs[a.index()] = r(a) & r(b),
                Instr::Or(a, b) => self.regs[a.index()] = r(a) | r(b),
                Instr::Shl(a, b) => self.regs[a.index()] = r(a) << (r(b) & 31),
                Instr::Shr(a, b) => self.regs[a.index()] = r(a) >> (r(b) & 31),
                Instr::Mul(a, b) => self.regs[a.index()] = r(a).wrapping_mul(r(b)),
                Instr::Addi(a, imm) => {
                    self.regs[a.index()] = r(a).wrapping_add(imm as u32)
                }
                Instr::Ld8(a, b, imm) => {
                    let addr = r(b).wrapping_add(imm as u32);
                    match self.read8(addr) {
                        Ok(v) => self.regs[a.index()] = v as u32,
                        Err(f) => break faulted(sink, f),
                    }
                }
                Instr::St8(a, b, imm) => {
                    let addr = r(b).wrapping_add(imm as u32);
                    if let Err(f) = self.write8(addr, r(a) as u8) {
                        break faulted(sink, f);
                    }
                    cache.invalidate(addr, 1);
                }
                Instr::Ld32(a, b, imm) => {
                    let addr = r(b).wrapping_add(imm as u32);
                    match self.read32(addr) {
                        Ok(v) => self.regs[a.index()] = v,
                        Err(f) => break faulted(sink, f),
                    }
                }
                Instr::St32(a, b, imm) => {
                    let addr = r(b).wrapping_add(imm as u32);
                    if let Err(f) = self.write32(addr, r(a)) {
                        break faulted(sink, f);
                    }
                    cache.invalidate(addr, 4);
                }
                Instr::Jmp(d) => {
                    self.pc = next.wrapping_add(d as u32);
                    taken = true;
                }
                Instr::Jz(a, d) => {
                    if r(a) == 0 {
                        self.pc = next.wrapping_add(d as u32);
                        taken = true;
                    }
                }
                Instr::Jnz(a, d) => {
                    if r(a) != 0 {
                        self.pc = next.wrapping_add(d as u32);
                        taken = true;
                    }
                }
                Instr::Jlt(a, b, d) => {
                    if r(a) < r(b) {
                        self.pc = next.wrapping_add(d as u32);
                        taken = true;
                    }
                }
                Instr::CallApi(id) => {
                    match sink.on_api_event(ApiEvent { api: id, arg: self.regs[0] }) {
                        SinkControl::Continue => {
                            // Deterministic pseudo-result so data flow
                            // through API results is reproducible.
                            self.regs[0] = api_result(id, self.regs[0]);
                        }
                        // The refusing sink did not record the event, so
                        // the call must not take effect either.
                        SinkControl::Exhausted => break exhausted(sink, Resource::Trace),
                        SinkControl::Abort => break Outcome::Aborted,
                    }
                }
                Instr::Halt => break Outcome::Halted,
                Instr::Nop => {}
                Instr::Push(a) => {
                    if self.data_stack.len() >= STACK_LIMIT {
                        break faulted(sink, VmFault::StackOverflow);
                    }
                    self.data_stack.push(r(a));
                }
                Instr::Pop(a) => match self.data_stack.pop() {
                    Some(v) => self.regs[a.index()] = v,
                    None => break faulted(sink, VmFault::StackUnderflow),
                },
                Instr::Call(d) => {
                    if self.call_stack.len() >= STACK_LIMIT {
                        break faulted(sink, VmFault::StackOverflow);
                    }
                    self.call_stack.push(next);
                    self.pc = next.wrapping_add(d as u32);
                    taken = true;
                }
                Instr::Ret => match self.call_stack.pop() {
                    Some(addr) => {
                        self.pc = addr;
                        taken = true;
                    }
                    None => break faulted(sink, VmFault::StackUnderflow),
                },
            }
            if taken {
                let target = self.pc;
                match enter_stream(stream_anchor, next, target) {
                    Some(anchor) => stream_anchor = anchor,
                    None => break faulted(sink, VmFault::MisalignedPc(target)),
                }
                jump_chain += 1;
                if jump_chain > self.limits.jump_chain_limit {
                    break exhausted(sink, Resource::JumpChain);
                }
                if BULK && cache.is_loop_head(target) {
                    let here = Cursor { steps, stream_anchor, jump_chain };
                    Cursor { steps, stream_anchor, jump_chain } = self.run_bulk(sink, cache, here);
                }
            } else {
                jump_chain = 0;
            }
        };
        *at = Cursor { steps, stream_anchor, jump_chain };
        RunSummary { outcome, steps }
    }

    /// Run the byte-map loop headed at `self.pc` in bulk if `at` allows
    /// it, and return the cursor the step loop continues from: `at` when
    /// no iteration ran. A head whose loop has the wrong shape is marked
    /// in `cache` and not walked again until its entry is refilled.
    #[inline(never)]
    fn run_bulk<S: TraceSink>(
        &mut self,
        sink: &mut S,
        cache: &mut DecodeCache,
        at: Cursor,
    ) -> Cursor {
        let head = self.pc;
        let memory = &self.memory;
        let fetch = |pc: u32| {
            cache.get(pc).or_else(|| {
                let start = pc as usize;
                Instr::decode(memory.get(start..start.checked_add(INSTR_SIZE)?)?).ok()
            })
        };
        let map = match bulk::plan(head, fetch, &self.regs, memory.len(), at, &self.limits) {
            Plan::Bulk(map) => map,
            Plan::Step => return at,
            Plan::Reject => {
                cache.reject(head);
                return at;
            }
        };
        let steps = map.steps();
        #[cfg(debug_assertions)]
        let before = self.clone();
        sink.on_steps(at.steps + 1, at.steps + steps);
        map.run(&mut self.memory, &mut self.regs);
        cache.invalidate(map.store, u64::from(map.iterations));
        let after = Cursor { steps: at.steps + steps, jump_chain: map.chain, ..at };
        #[cfg(debug_assertions)]
        self.assert_stepwise(before, at, after);
        after
    }

    /// The debug oracle of [`Vm::run_bulk`]: step `reference`, the VM as
    /// it was before the block, from `from` up to `to.steps` with bulk
    /// blocks off, and assert that it ends where the block did.
    #[cfg(debug_assertions)]
    fn assert_stepwise(&self, mut reference: Vm, from: Cursor, to: Cursor) {
        let head = self.pc;
        reference.limits.step_limit = to.steps;
        let mut sink = RecordingSink::unbounded();
        let mut at = from;
        let run = reference.step_loop::<_, false>(&mut sink, &mut DecodeCache::new(), &mut at);
        assert_eq!(run.outcome, Outcome::StepLimit, "bulk block at {head:#x} ran past a stop");
        assert!(sink.trace().is_empty(), "bulk block at {head:#x} skipped an API call");
        assert_eq!(at, to, "bulk block at {head:#x} left a different cursor");
        assert_eq!(
            (reference.pc, reference.regs),
            (self.pc, self.regs),
            "bulk block at {head:#x} left different registers"
        );
        assert!(reference.memory == self.memory, "bulk block at {head:#x} left different memory");
        assert!(
            reference.data_stack == self.data_stack && reference.call_stack == self.call_stack,
            "bulk block at {head:#x} touched a stack"
        );
    }
}

/// The stream anchor after a taken transfer to `target` from the
/// instruction that ends at `next`, or `None` when `target` lands strictly
/// inside an instruction slot of the stream anchored at `anchor`
/// ([`VmFault::MisalignedPc`]). A target inside the span the stream
/// already executed keeps the anchor; any other starts a new stream.
#[inline(always)]
pub(crate) fn enter_stream(anchor: u32, next: u32, target: u32) -> Option<u32> {
    if target >= anchor && target < next {
        target.wrapping_sub(anchor).is_multiple_of(INSTR_SIZE as u32).then_some(anchor)
    } else {
        Some(target)
    }
}

/// Deterministic pseudo-result an API returns, mixing the id and argument.
fn api_result(id: ApiId, arg: u32) -> u32 {
    let x = (id.0 as u32).wrapping_mul(0x9E37_79B9) ^ arg.rotate_left(13);
    x.wrapping_add(0x7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api;
    use crate::asm::Asm;

    fn run_program(asm: &Asm) -> (Execution, Vm) {
        let code = asm.assemble().unwrap();
        let mut mem = vec![0u8; 4096];
        mem[..code.len()].copy_from_slice(&code);
        let mut vm = Vm::from_image(mem, 0);
        let exec = vm.run_in_place();
        (exec, vm)
    }

    #[test]
    fn arithmetic_and_halt() {
        let mut asm = Asm::new();
        asm.push(Instr::Movi(Reg::R0, 10));
        asm.push(Instr::Movi(Reg::R1, 4));
        asm.push(Instr::Sub(Reg::R0, Reg::R1));
        asm.push(Instr::Halt);
        let (exec, vm) = run_program(&asm);
        assert!(exec.completed());
        assert_eq!(vm.regs()[0], 6);
        assert_eq!(exec.steps, 4);
    }

    #[test]
    fn wrapping_arithmetic() {
        let mut asm = Asm::new();
        asm.push(Instr::Movi(Reg::R0, -1));
        asm.push(Instr::Movi(Reg::R1, 2));
        asm.push(Instr::Add(Reg::R0, Reg::R1));
        asm.push(Instr::Halt);
        let (_, vm) = run_program(&asm);
        assert_eq!(vm.regs()[0], 1);
    }

    #[test]
    fn loop_decrements_to_zero() {
        let mut asm = Asm::new();
        asm.push(Instr::Movi(Reg::R0, 5));
        asm.push(Instr::Movi(Reg::R2, 0));
        asm.label("loop");
        asm.push(Instr::Addi(Reg::R0, -1));
        asm.push(Instr::Addi(Reg::R2, 3));
        asm.jump_to(Instr::Jnz(Reg::R0, 0), "loop");
        asm.push(Instr::Halt);
        let (exec, vm) = run_program(&asm);
        assert!(exec.completed());
        assert_eq!(vm.regs()[2], 15);
    }

    #[test]
    fn memory_byte_round_trip() {
        let mut asm = Asm::new();
        asm.push(Instr::Movi(Reg::R0, 0xAB));
        asm.push(Instr::Movi(Reg::R1, 2048));
        asm.push(Instr::St8(Reg::R0, Reg::R1, 4));
        asm.push(Instr::Ld8(Reg::R2, Reg::R1, 4));
        asm.push(Instr::Halt);
        let (exec, vm) = run_program(&asm);
        assert!(exec.completed());
        assert_eq!(vm.regs()[2], 0xAB);
        assert_eq!(vm.memory()[2052], 0xAB);
    }

    #[test]
    fn memory_word_round_trip() {
        let mut asm = Asm::new();
        asm.push(Instr::Movi(Reg::R0, 0x1234_5678));
        asm.push(Instr::Movi(Reg::R1, 1000));
        asm.push(Instr::St32(Reg::R0, Reg::R1, 0));
        asm.push(Instr::Ld32(Reg::R3, Reg::R1, 0));
        asm.push(Instr::Halt);
        let (_, vm) = run_program(&asm);
        assert_eq!(vm.regs()[3], 0x1234_5678);
        assert_eq!(&vm.memory()[1000..1004], &0x1234_5678u32.to_le_bytes());
    }

    #[test]
    fn api_calls_are_traced_with_args() {
        let mut asm = Asm::new();
        asm.push(Instr::Movi(Reg::R0, 77));
        asm.push(Instr::CallApi(api::HTTP_EXFILTRATE));
        asm.push(Instr::CallApi(api::READ_FILE));
        asm.push(Instr::Halt);
        let (exec, _) = run_program(&asm);
        assert_eq!(exec.trace.len(), 2);
        assert_eq!(exec.trace[0], ApiEvent { api: api::HTTP_EXFILTRATE, arg: 77 });
        assert_eq!(exec.suspicious_calls().count(), 1);
    }

    #[test]
    fn api_result_is_deterministic() {
        let mut asm = Asm::new();
        asm.push(Instr::Movi(Reg::R0, 5));
        asm.push(Instr::CallApi(api::GET_SYSTEM_TIME));
        asm.push(Instr::CallApi(api::WRITE_FILE));
        asm.push(Instr::Halt);
        let (e1, _) = run_program(&asm);
        let (e2, _) = run_program(&asm);
        assert_eq!(e1.trace, e2.trace);
        // Second call's arg is the first call's pseudo-result: data flows.
        assert_ne!(e1.trace[1].arg, 5);
    }

    #[test]
    fn call_ret() {
        let mut asm = Asm::new();
        asm.jump_to(Instr::Call(0), "sub");
        asm.push(Instr::Halt);
        asm.label("sub");
        asm.push(Instr::Movi(Reg::R5, 99));
        asm.push(Instr::Ret);
        let (exec, vm) = run_program(&asm);
        assert!(exec.completed());
        assert_eq!(vm.regs()[5], 99);
    }

    #[test]
    fn push_pop() {
        let mut asm = Asm::new();
        asm.push(Instr::Movi(Reg::R0, 11));
        asm.push(Instr::Movi(Reg::R1, 22));
        asm.push(Instr::Push(Reg::R0));
        asm.push(Instr::Push(Reg::R1));
        asm.push(Instr::Pop(Reg::R2));
        asm.push(Instr::Pop(Reg::R3));
        asm.push(Instr::Halt);
        let (_, vm) = run_program(&asm);
        assert_eq!(vm.regs()[2], 22);
        assert_eq!(vm.regs()[3], 11);
    }

    #[test]
    fn stack_underflow_faults() {
        let mut asm = Asm::new();
        asm.push(Instr::Pop(Reg::R0));
        let (exec, _) = run_program(&asm);
        assert_eq!(exec.outcome, Outcome::Faulted(VmFault::StackUnderflow));
    }

    #[test]
    fn ret_without_call_faults() {
        let mut asm = Asm::new();
        asm.push(Instr::Ret);
        let (exec, _) = run_program(&asm);
        assert_eq!(exec.outcome, Outcome::Faulted(VmFault::StackUnderflow));
    }

    #[test]
    fn oob_load_faults() {
        let mut asm = Asm::new();
        asm.push(Instr::Movi(Reg::R1, 1 << 20));
        asm.push(Instr::Ld8(Reg::R0, Reg::R1, 0));
        let (exec, _) = run_program(&asm);
        assert!(matches!(exec.outcome, Outcome::Faulted(VmFault::MemoryOutOfBounds(_))));
    }

    #[test]
    fn oob_pc_faults() {
        let mut asm = Asm::new();
        asm.push(Instr::Jmp(1 << 20));
        let (exec, _) = run_program(&asm);
        assert!(matches!(exec.outcome, Outcome::Faulted(VmFault::PcOutOfBounds(_))));
    }

    #[test]
    fn illegal_instruction_faults() {
        let mut mem = vec![0xEEu8; 64];
        mem[0] = 0xEE;
        let exec = Vm::from_image(mem, 0).run();
        assert!(matches!(exec.outcome, Outcome::Faulted(VmFault::IllegalInstruction(0))));
    }

    #[test]
    fn infinite_loop_hits_step_limit() {
        let mut asm = Asm::new();
        asm.label("spin");
        asm.jump_to(Instr::Jmp(0), "spin");
        let code = asm.assemble().unwrap();
        let mut mem = vec![0u8; 256];
        mem[..code.len()].copy_from_slice(&code);
        let exec = Vm::from_image(mem, 0).with_step_limit(1000).run();
        assert_eq!(exec.outcome, Outcome::StepLimit);
        assert_eq!(exec.steps, 1000);
    }

    #[test]
    fn self_modifying_code_executes() {
        // Program stores a HALT opcode over the instruction after the
        // store, proving code is writable (required by runtime recovery).
        let mut asm = Asm::new();
        asm.push(Instr::Movi(Reg::R0, 0x31)); // HALT opcode byte
        asm.push(Instr::Movi(Reg::R1, 3 * 8)); // address of instr #3
        asm.push(Instr::St8(Reg::R0, Reg::R1, 0));
        asm.push(Instr::Jmp(1 << 20)); // would fault if not overwritten
        let (exec, _) = run_program(&asm);
        assert_eq!(exec.outcome, Outcome::Halted);
    }

    #[test]
    fn rewriting_an_executed_instruction_runs_the_new_one() {
        // Pass 1 runs `addi r2, 1` (now cached), then rewrites its
        // immediate to 100; pass 2 must run `addi r2, 100`.
        let mut asm = Asm::new();
        asm.push(Instr::Movi(Reg::R0, 0));
        asm.push(Instr::Movi(Reg::R1, 2));
        asm.push(Instr::Movi(Reg::R3, 100));
        asm.push(Instr::Movi(Reg::R4, 4 * 8 + 4)); // imm of the addi below
        asm.label("loop");
        asm.push(Instr::Addi(Reg::R2, 1));
        asm.push(Instr::St32(Reg::R3, Reg::R4, 0));
        asm.push(Instr::Addi(Reg::R0, 1));
        asm.jump_to(Instr::Jlt(Reg::R0, Reg::R1, 0), "loop");
        asm.push(Instr::Halt);
        let (exec, vm) = run_program(&asm);
        assert_eq!(exec.outcome, Outcome::Halted);
        assert_eq!(exec.steps, 4 + 2 * 4 + 1);
        assert_eq!(vm.regs()[2], 101);
    }

    #[test]
    fn st32_straddling_two_cached_slots_invalidates_both() {
        // The store covers the last two immediate bytes of `movi r5, 1` and
        // the opcode and register bytes of `addi r6, 1`, turning them into
        // `movi r5, 0x1122_0001` and `addi r7, 1`.
        let a = 4 * 8;
        let mut asm = Asm::new();
        asm.push(Instr::Movi(Reg::R0, 0));
        asm.push(Instr::Movi(Reg::R1, 2));
        asm.push(Instr::Movi(Reg::R3, i32::from_le_bytes([0x22, 0x11, 0x0B, 7])));
        asm.push(Instr::Movi(Reg::R4, a + 6));
        asm.label("loop");
        asm.push(Instr::Movi(Reg::R5, 1));
        asm.push(Instr::Addi(Reg::R6, 1));
        asm.push(Instr::St32(Reg::R3, Reg::R4, 0));
        asm.push(Instr::Addi(Reg::R0, 1));
        asm.jump_to(Instr::Jlt(Reg::R0, Reg::R1, 0), "loop");
        asm.push(Instr::Halt);
        let (exec, vm) = run_program(&asm);
        assert_eq!(exec.outcome, Outcome::Halted);
        assert_eq!(exec.steps, 4 + 2 * 5 + 1);
        assert_eq!(vm.regs()[5], 0x1122_0001);
        assert_eq!(vm.regs()[6], 1);
        assert_eq!(vm.regs()[7], 1);
    }

    #[test]
    fn store_making_a_cached_slot_undecodable_faults_at_the_same_step() {
        let mut asm = Asm::new();
        asm.push(Instr::Movi(Reg::R0, 0xEE)); // not an opcode
        asm.push(Instr::Movi(Reg::R1, 2 * 8));
        asm.label("loop");
        asm.push(Instr::Nop);
        asm.push(Instr::St8(Reg::R0, Reg::R1, 0));
        asm.jump_to(Instr::Jmp(0), "loop");
        let (exec, vm) = run_program(&asm);
        assert_eq!(exec.outcome, Outcome::Faulted(VmFault::IllegalInstruction(2 * 8)));
        assert_eq!(exec.steps, 2 + 3);
        assert_eq!(vm.regs()[0], 0xEE);
        assert_eq!(vm.regs()[1], 16);
    }

    #[test]
    fn pcs_sharing_a_cache_entry_alternate() {
        // 8 and 4104 are 512 slots apart, so they map to the same entry
        // and evict each other on every pass.
        let mut mem = vec![0u8; 8192];
        let mut put = |at: usize, i: Instr| mem[at..at + INSTR_SIZE].copy_from_slice(&i.encode());
        put(0, Instr::Movi(Reg::R0, 3));
        put(8, Instr::Addi(Reg::R1, 1));
        put(16, Instr::Jmp(4104 - 24));
        put(4104, Instr::Addi(Reg::R2, 1));
        put(4112, Instr::Addi(Reg::R0, -1));
        put(4120, Instr::Jnz(Reg::R0, 8 - 4128));
        put(4128, Instr::Halt);
        let mut vm = Vm::from_image(mem, 0);
        let exec = vm.run_in_place();
        assert_eq!(exec.outcome, Outcome::Halted);
        assert_eq!(exec.steps, 1 + 3 * 5 + 1);
        assert_eq!(vm.regs()[..3], [0, 3, 3]);
    }

    #[test]
    fn overwriting_the_last_byte_of_an_unaligned_cached_instruction() {
        // The stream starts at 101, so no instruction sits on an 8-byte
        // boundary; the store hits the top immediate byte of `movi r5, 5`.
        let base = 101;
        let x = base + 4 * 8;
        let mut asm = Asm::new();
        asm.push(Instr::Movi(Reg::R0, 0));
        asm.push(Instr::Movi(Reg::R1, 2));
        asm.push(Instr::Movi(Reg::R3, 1));
        asm.push(Instr::Movi(Reg::R4, x + 7));
        asm.label("loop");
        asm.push(Instr::Movi(Reg::R5, 5));
        asm.push(Instr::St8(Reg::R3, Reg::R4, 0));
        asm.push(Instr::Addi(Reg::R0, 1));
        asm.jump_to(Instr::Jlt(Reg::R0, Reg::R1, 0), "loop");
        asm.push(Instr::Halt);
        let code = asm.assemble().unwrap();
        let mut mem = vec![0u8; 512];
        mem[..INSTR_SIZE].copy_from_slice(&Instr::Jmp(base - 8).encode());
        mem[base as usize..base as usize + code.len()].copy_from_slice(&code);
        let mut vm = Vm::from_image(mem, 0);
        let exec = vm.run_in_place();
        assert_eq!(exec.outcome, Outcome::Halted);
        assert_eq!(exec.steps, 1 + 4 + 2 * 4 + 1);
        assert_eq!(vm.regs()[5], 0x0100_0005);
    }

    #[test]
    fn invalidation_visits_only_the_cached_span() {
        let mut cache = DecodeCache::new();
        for pc in [100, 4096, 4104, 9000] {
            cache.insert(pc, Instr::Nop);
        }
        // Bytes 4100..=4107 overlap the instructions at 4096 and 4104 alone.
        cache.invalidate(4100, 8);
        assert_eq!(
            [100, 4096, 4104, 9000].map(|pc| cache.get(pc).is_some()),
            [true, false, false, true]
        );
        // A store over the whole 4 GiB address space scans 100..=9000, not
        // 2^32 start addresses.
        cache.invalidate(0, 1 << 32);
        assert!([100, 9000].iter().all(|&pc| cache.get(pc).is_none()));
        // Nothing cached: the span is empty and nothing is visited.
        DecodeCache::new().invalidate(0, 1 << 32);
    }

    #[test]
    fn a_refilled_entry_forgets_its_rejected_loop() {
        let mut cache = DecodeCache::new();
        cache.insert(64, Instr::Jz(Reg::R0, 8));
        assert!(cache.is_loop_head(64));
        cache.reject(64);
        assert!(!cache.is_loop_head(64));
        cache.insert(64 + 8 * DECODE_CACHE_SLOTS as u32, Instr::Nop);
        cache.insert(64, Instr::Jz(Reg::R0, 8));
        assert!(cache.is_loop_head(64));
        cache.insert(72, Instr::Jnz(Reg::R0, 8));
        assert!(!cache.is_loop_head(72), "only a `jz` heads a byte-map loop");
    }

    #[test]
    fn misaligned_jump_target_faults() {
        // Jump 4 bytes into the first instruction slot: next = 8, d = -4.
        let mut asm = Asm::new();
        asm.push(Instr::Jmp(-4));
        let (exec, _) = run_program(&asm);
        assert_eq!(exec.outcome, Outcome::Faulted(VmFault::MisalignedPc(4)));
        assert_eq!(exec.steps, 1);
    }

    #[test]
    fn unaligned_cross_stream_jump_is_legal() {
        // Packer stubs start at arbitrary byte offsets: a jump that leaves
        // the current stream may land off the old slot grid and simply
        // anchors a new stream there.
        let mut mem = vec![0u8; 256];
        mem[..INSTR_SIZE].copy_from_slice(&Instr::Jmp(92).encode()); // → 100
        mem[100..108].copy_from_slice(&Instr::Halt.encode());
        let exec = Vm::from_image(mem, 0).run();
        assert_eq!(exec.outcome, Outcome::Halted);
        assert_eq!(exec.steps, 2);
    }

    #[test]
    fn jump_chain_cap_breaks_pure_jump_loops() {
        let mut asm = Asm::new();
        asm.label("spin");
        asm.jump_to(Instr::Jmp(0), "spin");
        let code = asm.assemble().unwrap();
        let mut mem = vec![0u8; 256];
        mem[..code.len()].copy_from_slice(&code);
        let limits = VmLimits { jump_chain_limit: 64, ..VmLimits::default() };
        let exec = Vm::from_image(mem, 0).with_limits(limits).run();
        assert_eq!(exec.outcome, Outcome::ResourceExhausted(Resource::JumpChain));
        assert_eq!(exec.steps, 65);
    }

    #[test]
    fn jump_chain_resets_on_real_work() {
        // Loop body contains a non-jump instruction, so the chain counter
        // resets every iteration and only the step limit can end the run.
        let mut asm = Asm::new();
        asm.label("loop");
        asm.push(Instr::Addi(Reg::R0, 1));
        asm.jump_to(Instr::Jmp(0), "loop");
        let code = asm.assemble().unwrap();
        let mut mem = vec![0u8; 256];
        mem[..code.len()].copy_from_slice(&code);
        let limits =
            VmLimits { jump_chain_limit: 4, step_limit: 1000, ..VmLimits::default() };
        let exec = Vm::from_image(mem, 0).with_limits(limits).run();
        assert_eq!(exec.outcome, Outcome::StepLimit);
    }

    #[test]
    fn trace_cap_stops_api_floods() {
        let mut asm = Asm::new();
        asm.label("loop");
        asm.push(Instr::CallApi(api::GET_SYSTEM_TIME));
        asm.jump_to(Instr::Jmp(0), "loop");
        let code = asm.assemble().unwrap();
        let mut mem = vec![0u8; 256];
        mem[..code.len()].copy_from_slice(&code);
        let limits = VmLimits { trace_limit: 10, ..VmLimits::default() };
        let exec = Vm::from_image(mem, 0).with_limits(limits).run();
        assert_eq!(exec.outcome, Outcome::ResourceExhausted(Resource::Trace));
        assert_eq!(exec.trace.len(), 10);
    }

    #[test]
    fn oversized_image_exhausts_memory_without_mapping() {
        let mut b = mpass_pe::PeBuilder::new();
        b.add_section(".text", vec![0x90; 64], mpass_pe::SectionFlags::CODE).unwrap();
        let pe = b.build().unwrap();
        let limits = VmLimits { memory_limit: 16, ..VmLimits::default() };
        let exec = Vm::load_binary(&pe, limits).run();
        assert_eq!(exec.outcome, Outcome::ResourceExhausted(Resource::Memory));
        assert_eq!(exec.steps, 0);
        assert!(exec.trace.is_empty());
    }

    #[test]
    fn default_limits_match_documented_constants() {
        let l = VmLimits::default();
        assert_eq!(l.step_limit, DEFAULT_STEP_LIMIT);
        assert_eq!(l.memory_limit, DEFAULT_MEMORY_LIMIT);
        assert_eq!(l.trace_limit, DEFAULT_TRACE_LIMIT);
        assert_eq!(l.jump_chain_limit, DEFAULT_JUMP_CHAIN_LIMIT);
    }

    #[test]
    fn execution_from_pe_entry_point() {
        let mut asm = Asm::new();
        asm.push(Instr::CallApi(api::ENCRYPT_USER_FILES));
        asm.push(Instr::Halt);
        let code = asm.assemble().unwrap();
        let mut b = mpass_pe::PeBuilder::new();
        b.add_section(".text", code, mpass_pe::SectionFlags::CODE).unwrap();
        b.set_entry_section(".text", 0).unwrap();
        let pe = b.build().unwrap();
        let exec = Vm::load_binary(&pe, VmLimits::default()).run();
        assert!(exec.completed());
        assert_eq!(exec.suspicious_calls().count(), 1);
    }
}
