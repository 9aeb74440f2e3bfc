//! Ensemble-transfer perturbation optimization (§III-D, Eq. 2–3).
//!
//! The attack minimizes ℒ_opt = Σ_F ℒ(F(x + M·δ), benign) over the known
//! models F. The matrix `M` of Eq. 2 has two kinds of non-zero rows:
//! independently optimizable bytes (gap filler, free space, overlay) and
//! *coupled* pairs — a benign cover byte `j` together with its recovery
//! key `k = cover − original`. Both the cover byte and its induced key
//! byte are visible to the detectors, so the optimization treats them as a
//! single variable receiving gradient from **both** file positions; when
//! the variable maps back to a byte, the key moves with it and
//! functionality is preserved by construction.
//!
//! Optimization runs in embedding space: each model's byte-embedding
//! vectors at every tracked file offset form a continuous state driven by
//! Adam along the models' input gradients; bytes are recovered by a joint
//! nearest-neighbour step that, for coupled variables, scores a candidate
//! byte `b` by the distance of `e(b)` to the cover state *plus* the
//! distance of `e(b − original)` to the key state.

use crate::modify::{CoupledByte, ModifiedSample};
use mpass_detectors::{benign_loss, WhiteBoxModel, WhiteBoxSession};
use mpass_engine::metrics as trace;
use mpass_ml::simd::{self, Kernel};
use mpass_ml::{Adam, Embedding, ParamBuf};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Optimizer hyper-parameters. The paper uses Adam with η = 0.01 and
/// γ = 50 iterations; this reproduction spends a smaller per-round budget
/// (`rounds × iterations` ≤ γ) between hard-label queries, with a larger
/// step size to cover the same embedding-space distance in fewer steps
/// (Adam's normalized steps make lr × iterations the distance budget).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OptimizerConfig {
    /// Adam learning rate η.
    pub lr: f32,
    /// Gradient iterations per call to [`EnsembleOptimizer::run`].
    pub iterations: usize,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig { lr: 0.12, iterations: 6 }
    }
}

/// Candidates per block of the mapping sweep, summed over every model in
/// registers before the block is stored. 64 candidates are eight 8-lane
/// accumulators under AVX2, enough independent chains to hide the latency
/// of each candidate's dependent `+=` over embedding components.
const BLOCK: usize = 64;

/// Length of the doubled candidate axis of [`ModelState`]'s tables: entry
/// `i` holds byte `i mod 256`, so the key window of a coupled variable,
/// which starts at `256 − original`, is one contiguous read that never
/// wraps.
const SPAN: usize = 512;

/// The first minimum of the mapping sweep's scores, kept while each block
/// is still in registers: lane `j` holds the strict-`<` running minimum of
/// the candidates `j, j + BLOCK, j + 2·BLOCK, …` and the block in which it
/// was set.
///
/// [`FirstMin::index`] returns what a serial strict-`<` first-win scan
/// over all 256 scores returns. A lane visits its candidates in ascending
/// order, so strict `<` keeps the first index holding the lane's minimum.
/// NaNs lose every comparison and never enter a lane. The smallest lane
/// minimum is the serial minimum up to the sign of zero, and `==` pairs
/// ±0.0, so the lanes equal to it are exactly those holding the serial
/// minimum, and the smallest index among them is its first occurrence.
/// Nothing below +∞ leaves every lane at +∞, which is the serial scan's
/// `None`. No step branches on the data.
struct FirstMin {
    min: [f32; BLOCK],
    block: [u32; BLOCK],
}

impl FirstMin {
    #[inline(always)]
    fn new() -> FirstMin {
        FirstMin { min: [f32::INFINITY; BLOCK], block: [0; BLOCK] }
    }

    /// Fold in the scores `s` of block number `blk`; blocks come in
    /// ascending order. The lanes are rebuilt as fresh arrays: a select
    /// stored back over its own operand compiles to a masked store on
    /// x86, which the next block's loads cannot forward from.
    #[inline(always)]
    fn update(&mut self, blk: u32, s: &[f32; BLOCK]) {
        let (min, block) = (self.min, self.block);
        self.min = std::array::from_fn(|j| if s[j] < min[j] { s[j] } else { min[j] });
        self.block = std::array::from_fn(|j| if s[j] < min[j] { blk } else { block[j] });
    }

    /// Index of the first minimum over every block folded in, or `None`
    /// when nothing compared below +∞.
    #[inline(always)]
    fn index(&self) -> Option<usize> {
        // Halve the lane minima pairwise down to one, with the same
        // strict-`<` select: no lane holds a NaN, so the order of the
        // tree does not matter, and it is log₂ BLOCK steps deep instead
        // of BLOCK.
        let mut min = self.min;
        let mut half = BLOCK / 2;
        while half > 0 {
            for j in 0..half {
                min[j] = if min[j + half] < min[j] { min[j + half] } else { min[j] };
            }
            half /= 2;
        }
        let best = min[0];
        let at: [u32; BLOCK] = std::array::from_fn(|j| {
            let at = self.block[j] * BLOCK as u32 + j as u32;
            if self.min[j] == best {
                at
            } else {
                u32::MAX
            }
        });
        let first = at.iter().fold(u32::MAX, |first, &at| first.min(at));
        (best < f32::INFINITY).then_some(first as usize)
    }
}

/// One optimizable variable of Eq. 2.
#[derive(Debug, Clone, Copy)]
enum Var {
    /// Independent byte at a file offset; one tracked slot.
    Free { off: usize, slot: usize },
    /// Cover/key pair sharing one variable; two tracked slots.
    Coupled { pair: CoupledByte, cover_slot: usize, key_slot: usize },
}

/// Per-model continuous optimization state over the tracked slots the
/// model sees.
///
/// Slots are numbered by ascending file offset ([`number_slots`]), so the
/// slots inside a model's window are a prefix of that order: `z` holds
/// the `visible` slots of the prefix, `dim` floats each, and Adam steps
/// nothing the model never reads.
struct ModelState {
    z: ParamBuf,
    dim: usize,
    /// Number of leading slots inside the model's window.
    visible: usize,
    /// `norms[i] = ‖e(i mod 256)‖²` over the doubled axis, precomputed
    /// once: the mapping step ranks candidates by `‖e(b)‖² − 2⟨e(b), z⟩`,
    /// which orders identically to `‖e(b) − z‖²` (the `‖z‖²` term is
    /// constant per slot) without forming the difference vector.
    norms: Vec<f32>,
    /// Transposed embedding columns over the doubled axis,
    /// `et[c · SPAN + i] = e(i mod 256)[c]`: a block of candidates reads
    /// one contiguous run per embedding component instead of strided
    /// `dim`-length rows.
    et: Vec<f32>,
}

impl ModelState {
    /// State for a model with embedding table `emb` that sees the first
    /// `window` bytes, over the slots at file offsets `slot_offsets`
    /// (ascending), each starting at the embedding of its byte in `bytes`.
    fn new(emb: &Embedding, window: usize, slot_offsets: &[usize], bytes: &[u8]) -> ModelState {
        debug_assert!(slot_offsets.is_sorted(), "slots are numbered by ascending offset");
        let visible = slot_offsets.partition_point(|&off| off < window);
        let dim = emb.dim();
        let mut z = Vec::with_capacity(visible * dim);
        for &off in &slot_offsets[..visible] {
            z.extend_from_slice(emb.vector(usize::from(bytes[off])));
        }
        let mut et = vec![0.0f32; dim * SPAN];
        for i in 0..SPAN {
            for (c, &v) in emb.vector(i % 256).iter().enumerate() {
                et[c * SPAN + i] = v;
            }
        }
        let norms = emb.squared_norms(256);
        ModelState {
            z: ParamBuf::new(z),
            dim,
            visible,
            norms: norms.iter().chain(&norms).copied().collect(),
            et,
        }
    }

    /// `‖e(b)‖² − 2⟨e(b), z⟩` for the [`BLOCK`] candidates whose doubled-axis
    /// indices start at `start`. The dot is accumulated component by
    /// component, left-associated — the rounding of a sequential per-candidate
    /// dot — and is 0 for a zero-dimensional embedding.
    #[inline(always)]
    fn term(&self, z: &[f32], start: usize) -> [f32; BLOCK] {
        let column = |c: usize| -> &[f32; BLOCK] {
            self.et[c * SPAN + start..][..BLOCK].try_into().expect("BLOCK wide")
        };
        let mut a = [0.0f32; BLOCK];
        if let Some((&z0, rest)) = z.split_first() {
            for (a, &e) in a.iter_mut().zip(column(0)) {
                *a = e * z0;
            }
            for (c, &zc) in rest.iter().enumerate() {
                for (a, &e) in a.iter_mut().zip(column(c + 1)) {
                    *a += e * zc;
                }
            }
        }
        let n: &[f32; BLOCK] = self.norms[start..][..BLOCK].try_into().expect("BLOCK wide");
        std::array::from_fn(|j| n[j] - 2.0 * a[j])
    }

    /// Copy the input gradient `grad` (`dim` floats per file offset) into
    /// `z.g` at every visible slot; `slot_offsets` are the file offsets of
    /// all slots, ascending.
    fn load_grad(&mut self, grad: &[f32], slot_offsets: &[usize]) {
        let (g, visible) = (&mut self.z.g, &slot_offsets[..self.visible]);
        // The embedding widths of the tiny and default detectors get a
        // copy of constant width, a few moves instead of a `memcpy` call.
        match self.dim {
            4 => gather_rows(g, grad, visible, 4),
            8 => gather_rows(g, grad, visible, 8),
            dim => gather_rows(g, grad, visible, dim),
        }
    }
}

/// `dst[i] = src[offsets[i]]` over rows of `dim` floats.
#[inline(always)]
fn gather_rows(dst: &mut [f32], src: &[f32], offsets: &[usize], dim: usize) {
    for (row, &off) in offsets.iter().enumerate() {
        dst[row * dim..][..dim].copy_from_slice(&src[off * dim..][..dim]);
    }
}

/// One model's contribution to one slot in the fused mapping sweep.
struct Term<'s> {
    state: &'s ModelState,
    /// The model's continuous state at the slot.
    z: &'s [f32],
}

/// Fill `out` with the [`Term`]s at `slot` of the models that see it, in
/// model order.
#[inline(always)]
fn visible_terms<'s>(states: &'s [ModelState], slot: usize, out: &mut Vec<Term<'s>>) {
    out.clear();
    out.extend(states.iter().filter(|st| slot < st.visible).map(|st| Term {
        state: st,
        z: &st.z.w[slot * st.dim..(slot + 1) * st.dim],
    }));
}

/// `Σ_F ‖e_F(b)‖² − 2⟨e_F(b), z_F⟩` over `terms` for one block of
/// candidates: the first model's term, then `+=` for each further model,
/// and 0 when no model sees the slot.
#[inline(always)]
fn slot_block(terms: &[Term], start: usize) -> [f32; BLOCK] {
    let Some((first, rest)) = terms.split_first() else {
        return [0.0; BLOCK];
    };
    let mut s = first.state.term(first.z, start);
    for t in rest {
        for (s, v) in s.iter_mut().zip(t.state.term(t.z, start)) {
            *s += v;
        }
    }
    s
}

/// The joint nearest-byte objective of one variable, in one pass over
/// the 256 candidates: `scores[b]` is the cover slot's ensemble term at
/// `b`, plus — for a coupled variable with `key = Some((terms, original))`
/// — the key slot's term at the induced key `(b − original) & 255`. Each
/// block of [`BLOCK`] candidates is summed over every model and both slots
/// in registers, folded into the running first minimum ([`FirstMin`])
/// and stored once. Returns the selected byte, the first strict minimum
/// of `scores`.
#[inline(always)]
fn nearest_byte(
    cover: &[Term],
    key: Option<(&[Term], u8)>,
    scores: &mut [f32; 256],
) -> Option<usize> {
    let mut first = FirstMin::new();
    for (blk, out) in (0u32..).zip(scores.chunks_exact_mut(BLOCK)) {
        let b0 = blk as usize * BLOCK;
        let mut s = slot_block(cover, b0);
        if let Some((key, original)) = key {
            let k = slot_block(key, b0 + 256 - usize::from(original));
            for (s, k) in s.iter_mut().zip(k) {
                *s += k;
            }
        }
        first.update(blk, &s);
        out.copy_from_slice(&s);
    }
    first.index()
}

/// The mapping step of one gradient iteration: every variable goes back to
/// its nearest byte, jointly over the models and, for a coupled variable,
/// jointly over the cover and the induced key byte. Changed bytes (and
/// their rekeyed keys) are written to `bytes` and their spans appended to
/// `dirty`; `scores` is scratch and ends holding the last variable's
/// objective.
///
/// [`EnsembleOptimizer::run`] runs this [`simd::Kernel`] as compiled for
/// the widest instruction set this CPU executes ([`simd::Level::best`]:
/// AVX-512F, AVX2 or the build's baseline). Every instantiation selects
/// identical bytes: every candidate runs the same floating-point
/// operations in the same order in each (Rust never contracts `a * b + c`
/// into a fused multiply-add), and [`BLOCK`] only sets how many candidates
/// share a register pass.
struct MapVars<'a> {
    states: &'a [ModelState],
    vars: &'a [Var],
    bytes: &'a mut [u8],
    dirty: &'a mut Vec<Range<usize>>,
    scores: &'a mut [f32; 256],
}

impl Kernel for MapVars<'_> {
    type Output = ();

    /// The sweep's one source body; inlined, with everything it calls,
    /// into each instantiation.
    #[inline(always)]
    fn run(self) {
        let MapVars { states, vars, bytes, dirty, scores } = self;
        let mut cover = Vec::with_capacity(states.len());
        let mut key = Vec::with_capacity(states.len());
        for &var in vars {
            match var {
                Var::Free { off, slot } => {
                    visible_terms(states, slot, &mut cover);
                    let best = nearest_byte(&cover, None, scores).map_or(bytes[off], |b| b as u8);
                    if best != bytes[off] {
                        bytes[off] = best;
                        dirty.push(off..off + 1);
                    }
                }
                Var::Coupled { pair, cover_slot, key_slot } => {
                    visible_terms(states, cover_slot, &mut cover);
                    visible_terms(states, key_slot, &mut key);
                    let best = nearest_byte(&cover, Some((&key, pair.original)), scores)
                        .map_or(bytes[pair.cover_offset], |b| b as u8);
                    if best != bytes[pair.cover_offset] {
                        bytes[pair.cover_offset] = best;
                        bytes[pair.key_offset] = crate::recovery::rekey(best, pair.original);
                        dirty.push(pair.cover_offset..pair.cover_offset + 1);
                        dirty.push(pair.key_offset..pair.key_offset + 1);
                    }
                }
            }
        }
    }
}

/// Renumber the slots of `vars` by ascending file offset, given the file
/// offset of each slot under its current number, and return the offsets
/// in the new order. Slots at equal offsets keep their relative order.
fn number_slots(vars: &mut [Var], offsets: &[usize]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..offsets.len()).collect();
    order.sort_by_key(|&slot| offsets[slot]);
    let mut rank = vec![0; order.len()];
    for (new, &old) in order.iter().enumerate() {
        rank[old] = new;
    }
    for var in vars.iter_mut() {
        match var {
            Var::Free { slot, .. } => *slot = rank[*slot],
            Var::Coupled { cover_slot, key_slot, .. } => {
                *cover_slot = rank[*cover_slot];
                *key_slot = rank[*key_slot];
            }
        }
    }
    order.iter().map(|&slot| offsets[slot]).collect()
}

/// The ensemble optimizer over one [`ModifiedSample`].
///
/// Holds one warm [`WhiteBoxSession`] per model: across the gradient
/// iterations (and across repeated [`EnsembleOptimizer::run`] calls of an
/// attack's query rounds) only the bytes the mapping step rewrote are
/// marked dirty, so each model re-scores a handful of conv windows instead
/// of its whole input window.
pub struct EnsembleOptimizer<'a> {
    cfg: OptimizerConfig,
    vars: Vec<Var>,
    /// File offset of every tracked slot (cover offsets and key offsets),
    /// ascending.
    slot_offsets: Vec<usize>,
    states: Vec<ModelState>,
    adam: Adam,
    sessions: Vec<Box<dyn WhiteBoxSession + 'a>>,
    /// Byte spans rewritten since the sessions last scored the sample.
    dirty: Vec<Range<usize>>,
    /// Reusable input-gradient buffer shared across models and iterations.
    grad: Vec<f32>,
    #[cfg(test)]
    probe: SweepProbe,
}

/// Test hook on the mapping step: `level` forces one instantiation of
/// [`MapVars`], and `spans` logs the dirty spans of every iteration.
#[cfg(test)]
#[derive(Default)]
struct SweepProbe {
    level: Option<simd::Level>,
    spans: Vec<Vec<Range<usize>>>,
}

impl<'a> EnsembleOptimizer<'a> {
    /// Set up the optimizer for `sample` against `models`.
    pub fn new(
        models: Vec<&'a dyn WhiteBoxModel>,
        sample: &ModifiedSample,
        cfg: OptimizerConfig,
    ) -> Self {
        let max_window = models.iter().map(|m| m.window()).max().unwrap_or(0);
        let mut vars = Vec::new();
        let mut slot_offsets = Vec::new();
        for &off in &sample.free_offsets {
            if off < max_window {
                vars.push(Var::Free { off, slot: slot_offsets.len() });
                slot_offsets.push(off);
            }
        }
        for &pair in &sample.coupled {
            if pair.cover_offset < max_window {
                let cover_slot = slot_offsets.len();
                slot_offsets.push(pair.cover_offset);
                let key_slot = slot_offsets.len();
                slot_offsets.push(pair.key_offset);
                vars.push(Var::Coupled { pair, cover_slot, key_slot });
            }
        }
        let slot_offsets = number_slots(&mut vars, &slot_offsets);
        let states = models
            .iter()
            .map(|m| ModelState::new(m.embedding(), m.window(), &slot_offsets, &sample.bytes))
            .collect();
        let sessions = models.iter().map(|&m| m.session()).collect();
        EnsembleOptimizer {
            adam: Adam::with_lr(cfg.lr),
            cfg,
            vars,
            slot_offsets,
            states,
            sessions,
            dirty: Vec::new(),
            grad: Vec::new(),
            #[cfg(test)]
            probe: SweepProbe::default(),
        }
    }

    /// Number of variables under optimization.
    pub fn position_count(&self) -> usize {
        self.vars.len()
    }

    /// Run `cfg.iterations` gradient iterations, mutating the sample's
    /// bytes (and coupled keys) in place. Returns the ensemble loss after
    /// the final mapping step. Each iteration's pre-step ensemble loss is
    /// recorded to the `optimize/loss` metrics series, giving the sink a
    /// loss curve per shard at no extra inference cost.
    ///
    /// Inference runs through warm per-model sessions: between calls the
    /// optimizer remembers which bytes it rewrote, so `sample.bytes` must
    /// not be mutated by anyone else while this optimizer is alive (the
    /// attack loop only *queries* between rounds, which is read-only).
    pub fn run(&mut self, sample: &mut ModifiedSample) -> f32 {
        let mut scores = [0.0f32; 256];
        for _ in 0..self.cfg.iterations {
            // Gradient step on every model's embedding-space state. Only
            // the windows overlapping bytes rewritten by the previous
            // mapping step are recomputed.
            let mut iteration_loss = 0.0f32;
            for (sess, state) in self.sessions.iter_mut().zip(&mut self.states) {
                let loss = sess.loss_grad_delta(&sample.bytes, &self.dirty, &mut self.grad);
                iteration_loss += loss;
                state.load_grad(&self.grad, &self.slot_offsets);
                self.adam.step(&mut state.z);
            }
            self.dirty.clear(); // every session has now seen those spans
            trace::series("optimize/loss", f64::from(iteration_loss));
            // Map back to bytes, jointly over models and (for coupled
            // variables) jointly over the cover and the induced key byte.
            #[cfg(not(test))]
            let level = simd::Level::best();
            #[cfg(test)]
            let level = self.probe.level.unwrap_or_else(simd::Level::best);
            let sweep = MapVars {
                states: &self.states,
                vars: &self.vars,
                bytes: &mut sample.bytes,
                dirty: &mut self.dirty,
                scores: &mut scores,
            };
            simd::run_at(level, sweep);
            #[cfg(test)]
            self.probe.spans.push(self.dirty.clone());
        }
        // Final loss through the same incremental sessions — the mapping
        // step's spans are still dirty, so this re-scores a few windows
        // instead of re-running every model end to end.
        let mut total = 0.0;
        for sess in &mut self.sessions {
            total += benign_loss(sess.score_delta(&sample.bytes, &self.dirty));
        }
        self.dirty.clear();
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modify::{modify, ModificationConfig};
    use mpass_corpus::{BenignPool, CorpusConfig, Dataset};
    use mpass_detectors::train::training_pairs;
    use mpass_detectors::{ByteConvConfig, MalConv, MalGcg, MalGcgConfig};
    use mpass_sandbox::Sandbox;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    struct World {
        ds: Dataset,
        pool: BenignPool,
        malconv: MalConv,
        nonneg: MalConv,
        malgcg: MalGcg,
    }

    fn world() -> World {
        let ds = Dataset::generate(&CorpusConfig {
            n_malware: 14,
            n_benign: 14,
            seed: 41,
            no_slack_fraction: 0.0,
        });
        let pool = BenignPool::generate(4, 7);
        let samples: Vec<_> = ds.samples.iter().collect();
        let pairs = training_pairs(&samples);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut malconv = MalConv::new(ByteConvConfig::tiny(), &mut rng);
        malconv.train(&pairs, 5, 5e-3, &mut rng);
        let mut nonneg = MalConv::nonneg(ByteConvConfig::tiny(), &mut rng);
        nonneg.train(&pairs, 10, 5e-3, &mut rng);
        let mut malgcg = MalGcg::new(MalGcgConfig::tiny(), &mut rng);
        malgcg.train(&pairs, 5, 5e-3, &mut rng);
        World { ds, pool, malconv, nonneg, malgcg }
    }

    #[test]
    fn optimization_reduces_ensemble_loss() {
        let w = world();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let models: Vec<&dyn mpass_detectors::WhiteBoxModel> =
            vec![&w.malconv, &w.nonneg, &w.malgcg];
        let cfg = OptimizerConfig { lr: 0.05, iterations: 6 };
        let mut candidates: Vec<_> = w
            .ds
            .malware()
            .into_iter()
            .take(4)
            .map(|s| modify(s, &w.pool, &ModificationConfig::default(), &mut rng).unwrap())
            .collect();
        let before: Vec<f32> = candidates
            .iter()
            .map(|ms| models.iter().map(|m| benign_loss(m.raw_score(&ms.bytes))).sum())
            .collect();
        let mut improved = 0;
        for (ms, before) in candidates.iter_mut().zip(before) {
            let mut opt = EnsembleOptimizer::new(models.clone(), ms, cfg);
            let after = opt.run(ms);
            if after < before {
                improved += 1;
            }
        }
        assert!(improved >= 3, "loss improved on only {improved}/4 samples");
    }

    #[test]
    fn optimization_preserves_functionality() {
        let w = world();
        let sandbox = Sandbox::new();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let models: Vec<&dyn mpass_detectors::WhiteBoxModel> =
            vec![&w.malconv, &w.malgcg];
        for s in w.ds.malware().into_iter().take(3) {
            let mut ms =
                modify(s, &w.pool, &ModificationConfig::default(), &mut rng).unwrap();
            let mut opt = EnsembleOptimizer::new(
                models.clone(),
                &ms,
                OptimizerConfig { lr: 0.05, iterations: 4 },
            );
            opt.run(&mut ms);
            let verdict = sandbox.verify_functionality(&s.bytes, &ms.bytes);
            assert!(verdict.is_preserved(), "{}: {verdict}", s.name);
            assert!(ms.reparse().is_ok());
        }
    }

    #[test]
    fn key_coupling_is_maintained_through_optimization() {
        let w = world();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let s = w.ds.malware()[0];
        let mut ms = modify(s, &w.pool, &ModificationConfig::default(), &mut rng).unwrap();
        let models: Vec<&dyn mpass_detectors::WhiteBoxModel> = vec![&w.malgcg];
        let mut opt = EnsembleOptimizer::new(
            models,
            &ms,
            OptimizerConfig { lr: 0.05, iterations: 3 },
        );
        opt.run(&mut ms);
        for c in &ms.coupled {
            let cover = ms.bytes[c.cover_offset];
            let key = ms.bytes[c.key_offset];
            assert_eq!(cover.wrapping_sub(key), c.original, "coupling violated");
        }
    }

    #[test]
    fn positions_beyond_window_are_excluded() {
        let w = world();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let s = w.ds.malware()[0];
        let ms = modify(s, &w.pool, &ModificationConfig::default(), &mut rng).unwrap();
        let models: Vec<&dyn mpass_detectors::WhiteBoxModel> = vec![&w.malconv];
        let opt = EnsembleOptimizer::new(models, &ms, OptimizerConfig::default());
        // tiny window = 2048; most of the file lies beyond it.
        assert!(opt.position_count() <= ms.position_count());
        assert!(opt.position_count() > 0, "some positions must be visible");
    }

    /// The mapping step as it ran before the fused sweep — one
    /// `fill_slot_scores` pass per (model, slot), a rotation of the key
    /// scores onto the candidate axis, an elementwise combine and a
    /// two-pass argmin — kept as the reference the sweep must reproduce
    /// bit for bit.
    mod reference {
        use super::super::{ModelState, SPAN};

        /// Strict-`<` min-reduction, then a first-equal scan.
        pub fn argmin_two_pass(vals: &[f32; 256]) -> Option<usize> {
            let mut best = f32::INFINITY;
            for &d in vals.iter() {
                if d < best {
                    best = d;
                }
            }
            if best == f32::INFINITY {
                return None;
            }
            vals.iter().position(|&d| d == best)
        }

        /// `Σ_F ‖e_F(b)‖² − 2⟨e_F(b), z_F[slot]⟩` over the models that can
        /// see file offset `off` (model `m` sees the first `windows[m]`
        /// bytes), one 256-wide pass per model.
        fn fill_slot_scores(
            states: &[ModelState],
            windows: &[usize],
            slot: usize,
            off: usize,
            scores: &mut [f32; 256],
        ) {
            let mut acc = [0.0f32; 256];
            let mut first = true;
            for (state, &window) in states.iter().zip(windows) {
                if off >= window {
                    continue; // invisible to this model
                }
                let z = &state.z.w[slot * state.dim..(slot + 1) * state.dim];
                let col = |c: usize| &state.et[c * SPAN..c * SPAN + 256];
                if let [z0, z1, z2, z3] = *z {
                    let it = scores
                        .iter_mut()
                        .zip(&state.norms[..256])
                        .zip(col(0).iter().zip(col(1)).zip(col(2).iter().zip(col(3))));
                    if first {
                        for ((s, &n), ((&e0, &e1), (&e2, &e3))) in it {
                            let a = e0 * z0 + e1 * z1 + e2 * z2 + e3 * z3;
                            *s = n - 2.0 * a;
                        }
                    } else {
                        for ((s, &n), ((&e0, &e1), (&e2, &e3))) in it {
                            let a = e0 * z0 + e1 * z1 + e2 * z2 + e3 * z3;
                            *s += n - 2.0 * a;
                        }
                    }
                    first = false;
                    continue;
                }
                for (c, &zc) in z.iter().enumerate() {
                    if c == 0 {
                        for (a, &e) in acc.iter_mut().zip(col(c)) {
                            *a = e * zc;
                        }
                    } else {
                        for (a, &e) in acc.iter_mut().zip(col(c)) {
                            *a += e * zc;
                        }
                    }
                }
                if state.dim == 0 {
                    acc.fill(0.0);
                }
                let norms = &state.norms[..256];
                if first {
                    for ((s, &n), &a) in scores.iter_mut().zip(norms).zip(&acc) {
                        *s = n - 2.0 * a;
                    }
                    first = false;
                } else {
                    for ((s, &n), &a) in scores.iter_mut().zip(norms).zip(&acc) {
                        *s += n - 2.0 * a;
                    }
                }
            }
            if first {
                scores.fill(0.0); // slot invisible to every model
            }
        }

        /// Combined scores and selected byte of a free variable
        /// (`key = None`) or a coupled one (`key = Some((slot, offset,
        /// original))`).
        pub fn select(
            states: &[ModelState],
            windows: &[usize],
            cover: (usize, usize),
            key: Option<(usize, usize, u8)>,
        ) -> ([f32; 256], Option<usize>) {
            let mut cover_scores = [0.0f32; 256];
            fill_slot_scores(states, windows, cover.0, cover.1, &mut cover_scores);
            let Some((key_slot, key_off, original)) = key else {
                return (cover_scores, argmin_two_pass(&cover_scores));
            };
            let mut key_scores = [0.0f32; 256];
            fill_slot_scores(states, windows, key_slot, key_off, &mut key_scores);
            let o = original as usize;
            let split = 256 - o;
            let mut rotated = [0.0f32; 256];
            rotated[..o].copy_from_slice(&key_scores[split..]);
            rotated[o..].copy_from_slice(&key_scores[..split]);
            let mut combined = [0.0f32; 256];
            for ((d, &c), &k) in combined.iter_mut().zip(&cover_scores).zip(&rotated) {
                *d = c + k;
            }
            (combined, argmin_two_pass(&combined))
        }
    }

    /// A value drawn from a small grid (so distinct candidates tie
    /// exactly), from a continuous range, or — when `wild` — occasionally
    /// NaN or ±∞.
    fn draw(rng: &mut ChaCha8Rng, grid: bool, wild: bool) -> f32 {
        if wild && rng.gen_bool(0.02) {
            return [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][rng.gen_range(0..3)];
        }
        if grid {
            rng.gen_range(-4i32..=4) as f32 * 0.25
        } else {
            rng.gen_range(-1.0f32..1.0)
        }
    }

    /// Seeded random states for models of embedding widths `dims` over the
    /// slots at file offsets `slot_offsets` (ascending); model `m` sees
    /// the first `windows[m]` bytes. Built as the optimizer builds them,
    /// then every visible slot's state is redrawn.
    fn random_states(
        rng: &mut ChaCha8Rng,
        dims: &[usize],
        windows: &[usize],
        slot_offsets: &[usize],
        grid: bool,
        wild: bool,
    ) -> Vec<ModelState> {
        let bytes = vec![0u8; slot_offsets.last().map_or(0, |&off| off + 1)];
        dims.iter()
            .zip(windows)
            .map(|(&dim, &window)| {
                let table = (0..256 * dim).map(|_| draw(rng, grid, false)).collect();
                let emb = Embedding::from_weights(256, dim, table);
                let mut state = ModelState::new(&emb, window, slot_offsets, &bytes);
                state.z.w.iter_mut().for_each(|z| *z = draw(rng, grid, wild));
                state
            })
            .collect()
    }

    /// Bit equality, except that any NaN matches any NaN: Rust leaves the
    /// sign and payload of a NaN result unspecified, and a NaN never wins.
    fn assert_same_bits(got: &[f32; 256], want: &[f32; 256], what: &str) {
        for (b, (g, w)) in got.iter().zip(want).enumerate() {
            let same = g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
            assert!(same, "{what}: candidate {b}: {g:e} vs {w:e}");
        }
    }

    #[test]
    fn fused_sweep_matches_the_reference_bit_for_bit() {
        // Cover and key offsets of the same index share a visibility
        // class: below 1000, 1000..2000, or beyond every window.
        const COVER: [usize; 4] = [10, 1000, 5000, 1999];
        const KEY: [usize; 4] = [11, 1001, 5001, 1998];
        // Every instantiation of the mapping sweep this CPU can run.
        let sweeps = simd::Level::available();
        let names: Vec<_> = sweeps.iter().map(|level| level.name()).collect();
        println!("mapping sweep vs reference, instantiations compared: {names:?}");
        // Model `m` sees the first `windows[m]` bytes. The last case's
        // middle model is blind to 1000..2000 while both neighbours see it.
        let cases: [(&[usize], &[usize]); 6] = [
            (&[4, 4], &[1000, 2000]),
            (&[8, 8], &[1000, 2000]),
            (&[8, 4], &[1000, 2000]),
            (&[4], &[1000]),
            (&[4, 8, 4], &[1000, 2000, 3000]),
            (&[8, 16, 4], &[3000, 1000, 2000]),
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(0x5eed);
        for (dims, windows) in cases {
            for (grid, wild) in [(false, false), (true, false), (true, true)] {
                // 32 pairs, each a free variable on the cover slot and a
                // coupled one on both slots, with slots in discovery
                // order, then renumbered as the optimizer numbers them.
                let mut offsets = Vec::new();
                let mut vars = Vec::new();
                for pair in 0..32 {
                    let (cover_slot, key_slot) = (offsets.len(), offsets.len() + 1);
                    let (c_off, k_off) = (COVER[pair % 4], KEY[(pair / 4) % 4]);
                    offsets.extend([c_off, k_off]);
                    let original = match pair % 8 {
                        0 => 0,
                        1 => 255,
                        _ => rng.gen_range(0..256usize) as u8,
                    };
                    let coupled = CoupledByte { cover_offset: c_off, key_offset: k_off, original };
                    vars.push(Var::Free { off: c_off, slot: cover_slot });
                    vars.push(Var::Coupled { pair: coupled, cover_slot, key_slot });
                }
                let slot_offsets = number_slots(&mut vars, &offsets);
                let states = random_states(&mut rng, dims, windows, &slot_offsets, grid, wild);
                for (i, &var) in vars.iter().enumerate() {
                    let (kind, cover, key) = match var {
                        Var::Free { off, slot } => ("free", (slot, off), None),
                        Var::Coupled { pair: c, cover_slot, key_slot } => {
                            let key = (key_slot, c.key_offset, c.original);
                            ("coupled", (cover_slot, c.cover_offset), Some(key))
                        }
                    };
                    // Renumbering kept every slot on its offset.
                    assert_eq!(slot_offsets[cover.0], cover.1);
                    assert!(key.is_none_or(|(slot, off, _)| slot_offsets[slot] == off));
                    let (want_scores, want) = reference::select(&states, windows, cover, key);
                    let current = rng.gen_range(0..256usize) as u8;
                    let best = want.map_or(current, |b| b as u8);
                    let mut before = vec![0u8; 6000];
                    let mut want_bytes = vec![0u8; 6000];
                    let mut want_dirty = std::iter::once(cover.1..cover.1 + 1).collect::<Vec<_>>();
                    before[cover.1] = current;
                    want_bytes[cover.1] = best;
                    if let Some((_, k_off, original)) = key {
                        before[k_off] = crate::recovery::rekey(current, original);
                        want_bytes[k_off] = crate::recovery::rekey(best, original);
                        want_dirty.push(k_off..k_off + 1);
                    }
                    if best == current {
                        want_dirty.clear();
                    }
                    let pair = i / 2;
                    for &level in &sweeps {
                        let what = format!(
                            "{} {kind} dims {dims:?} grid {grid} wild {wild} pair {pair}",
                            level.name()
                        );
                        let (states, vars) = (&states, &[var]);
                        let sweep = |bytes: &mut [u8], dirty: &mut _, scores: &mut _| {
                            simd::run_at(level, MapVars { states, vars, bytes, dirty, scores })
                        };
                        let mut bytes = before.clone();
                        let (mut dirty, mut scores) = (Vec::new(), [0.0f32; 256]);
                        sweep(&mut bytes, &mut dirty, &mut scores);
                        assert_same_bits(&scores, &want_scores, &what);
                        assert!(bytes == want_bytes, "{what}: selected bytes differ");
                        assert_eq!(dirty, want_dirty, "{what}");
                        // The states did not move, so a second sweep
                        // keeps every byte and marks nothing dirty.
                        dirty.clear();
                        sweep(&mut bytes, &mut dirty, &mut scores);
                        assert!(bytes == want_bytes && dirty.is_empty(), "{what}: resweep");
                    }
                }
            }
        }
    }

    #[test]
    fn dispatched_sweep_runs_the_optimizer_like_the_plain_body() {
        let w = world();
        println!("optimizer run: plain body vs dispatched sweep ({})", simd::Level::best().name());
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let models: Vec<&dyn mpass_detectors::WhiteBoxModel> =
            vec![&w.malconv, &w.nonneg, &w.malgcg];
        let cfg = OptimizerConfig { lr: 0.12, iterations: 3 };
        let mut rewritten = 0;
        for s in w.ds.malware().into_iter().take(2) {
            let mut plain_ms =
                modify(s, &w.pool, &ModificationConfig::default(), &mut rng).unwrap();
            let mut ms = plain_ms.clone();
            let mut plain = EnsembleOptimizer::new(models.clone(), &plain_ms, cfg);
            plain.probe.level = Some(simd::Level::Plain);
            let mut opt = EnsembleOptimizer::new(models.clone(), &ms, cfg);
            for round in 0..4 {
                let want = plain.run(&mut plain_ms);
                let got = opt.run(&mut ms);
                assert!(ms.bytes == plain_ms.bytes, "{} round {round}: bytes differ", s.name);
                assert_eq!(opt.probe.spans, plain.probe.spans, "{} round {round}", s.name);
                assert_eq!(got.to_bits(), want.to_bits(), "{} round {round}: loss", s.name);
            }
            rewritten += opt.probe.spans.iter().map(Vec::len).sum::<usize>();
        }
        assert!(rewritten > 0, "the sweeps never rewrote a byte");
    }

    /// FNV-1a over `bytes`, continuing from `h`.
    fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
    }

    /// One digest over four rounds of two samples against a 16 KiB-window
    /// MalConv and the tiny MalGCG (4 KiB): every round's bytes and loss
    /// bits, then every iteration's dirty spans. The wide model also sees
    /// the key slots and free bytes beyond the narrow one's window, so
    /// slot numbering, per-model visibility and the gradient copy are all
    /// pinned on a layout `mpass-transfer` never reaches (there, both
    /// models see the covers alone). Captured before the mapping sweep's
    /// fused first minimum and the per-model visible prefixes went in.
    #[test]
    fn optimizer_trajectory_golden_regression() {
        let w = world();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let narrow = w.malgcg.window();
        let wide_cfg = ByteConvConfig { window: 16 * 1024, ..ByteConvConfig::tiny() };
        let mut wide = MalConv::new(wide_cfg, &mut rng);
        let samples: Vec<_> = w.ds.samples.iter().collect();
        wide.train(&training_pairs(&samples), 2, 5e-3, &mut rng);
        let models: Vec<&dyn mpass_detectors::WhiteBoxModel> = vec![&wide, &w.malgcg];
        let cfg = OptimizerConfig { lr: 0.12, iterations: 3 };
        let mut h = 0xcbf2_9ce4_8422_2325;
        for s in w.ds.malware().into_iter().take(2) {
            let mut ms = modify(s, &w.pool, &ModificationConfig::default(), &mut rng).unwrap();
            // Covers both models see; keys and free bytes only the wide one
            // sees.
            let wide_only = |off: &usize| (narrow..wide.window()).contains(off);
            assert!(ms.coupled.iter().any(|c| c.cover_offset < narrow), "{}", s.name);
            assert!(ms.coupled.iter().any(|c| wide_only(&c.key_offset)), "{}", s.name);
            assert!(ms.free_offsets.iter().any(wide_only), "{}", s.name);
            let mut opt = EnsembleOptimizer::new(models.clone(), &ms, cfg);
            for _ in 0..4 {
                let loss = opt.run(&mut ms);
                h = fnv1a(h, &ms.bytes);
                h = fnv1a(h, &loss.to_bits().to_le_bytes());
            }
            for spans in &opt.probe.spans {
                h = fnv1a(h, &(spans.len() as u64).to_le_bytes());
                for span in spans {
                    h = fnv1a(h, &(span.start as u64).to_le_bytes());
                    h = fnv1a(h, &(span.end as u64).to_le_bytes());
                }
            }
        }
        assert_eq!(h, 0x517c_8da3_6d8c_6a1c, "optimizer trajectory digest {h:#018x}");
    }

    /// The serial first-win scan the mapping sweep's selection must
    /// agree with.
    fn naive_argmin(vals: &[f32; 256]) -> Option<usize> {
        let mut best = (f32::INFINITY, None);
        for (i, &d) in vals.iter().enumerate() {
            if d < best.0 {
                best = (d, Some(i));
            }
        }
        best.1
    }

    /// [`FirstMin`] folded over stored scores, block by block, as
    /// [`nearest_byte`] folds it.
    struct SelectFirst<'a>(&'a [f32; 256]);

    impl Kernel for SelectFirst<'_> {
        type Output = Option<usize>;

        #[inline(always)]
        fn run(self) -> Option<usize> {
            let mut first = FirstMin::new();
            for (blk, block) in (0u32..).zip(self.0.chunks_exact(BLOCK)) {
                first.update(blk, block.try_into().expect("BLOCK wide"));
            }
            first.index()
        }
    }

    #[test]
    fn first_min_matches_a_first_win_scan_on_adversarial_arrays() {
        let levels = simd::Level::available();
        let names: Vec<_> = levels.iter().map(|level| level.name()).collect();
        println!("first minimum vs serial scan, instantiations compared: {names:?}");
        let with = |fill: f32, at: &[(usize, f32)]| {
            let mut v = [fill; 256];
            for &(i, d) in at {
                v[i] = d;
            }
            v
        };
        let nan = f32::NAN;
        let inf = f32::INFINITY;
        let cases = [
            (with(inf, &[]), None),
            (with(nan, &[]), None),
            (with(inf, &[(3, nan), (77, nan)]), None),
            (with(nan, &[(40, inf), (200, inf)]), None),
            (with(1.0, &[(13, 0.0), (5, -0.0)]), Some(5)),
            (with(1.0, &[(13, -0.0), (5, 0.0)]), Some(5)),
            (with(1.0, &[(8, -0.0), (1, 0.0), (250, -0.0)]), Some(1)),
            (with(0.0, &[(200, -0.0)]), Some(0)),
            (with(2.0, &[(200, -3.0), (17, -3.0), (42, -3.0)]), Some(17)),
            (with(2.0, &[(9, -3.0), (16, -3.0), (23, -3.0)]), Some(9)),
            (with(nan, &[(255, 7.0)]), Some(255)),
            (with(nan, &[(0, 7.0), (1, -inf)]), Some(1)),
            (with(inf, &[(100, -inf), (4, -inf)]), Some(4)),
            (with(-inf, &[]), Some(0)),
            (with(f32::MAX, &[(31, nan), (32, f32::MAX)]), Some(0)),
            // Ties in one lane across blocks, and across lanes and blocks.
            (with(1.0, &[(6 + 3 * BLOCK, -2.0), (6 + BLOCK, -2.0)]), Some(6 + BLOCK)),
            (with(1.0, &[(200, -2.0), (70, -2.0), (130, -2.0)]), Some(70)),
            (with(1.0, &[(BLOCK - 1, -2.0), (BLOCK, -2.0)]), Some(BLOCK - 1)),
            (with(1.0, &[(BLOCK, -2.0), (BLOCK - 1, -1.0)]), Some(BLOCK)),
            // ±0 across lanes and blocks: the first zero wins, either sign.
            (with(1.0, &[(100, -0.0), (37, 0.0)]), Some(37)),
            (with(1.0, &[(199, -0.0), (200, 0.0), (3, 0.5)]), Some(199)),
            (with(1.0, &[(2 * BLOCK + 5, 0.0), (BLOCK + 9, -0.0), (5, 0.0)]), Some(5)),
            (with(nan, &[(255, -0.0), (128, 0.0)]), Some(128)),
        ];
        for (i, (vals, want)) in cases.iter().enumerate() {
            assert_eq!(naive_argmin(vals), *want, "case {i}: the oracle itself");
            for &level in &levels {
                assert_eq!(simd::run_at(level, SelectFirst(vals)), *want, "{} case {i}", level.name());
            }
        }
        // Random arrays over random subsets of a value set dense in ties
        // and non-finites.
        let pool = [nan, inf, -inf, 0.0, -0.0, 1.0, -1.0, 2.0, f32::MIN_POSITIVE];
        let mut rng = ChaCha8Rng::seed_from_u64(0xa11);
        for round in 0..2000 {
            let mut values: Vec<f32> = pool.iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
            if values.is_empty() {
                values.push(pool[rng.gen_range(0..pool.len())]);
            }
            let vals: [f32; 256] = std::array::from_fn(|_| values[rng.gen_range(0..values.len())]);
            let want = naive_argmin(&vals);
            for &level in &levels {
                let got = simd::run_at(level, SelectFirst(&vals));
                assert_eq!(got, want, "{} random array {round}", level.name());
            }
        }
    }
}

