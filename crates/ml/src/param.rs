//! Parameter buffers and the Adam optimizer.

use crate::simd::{self, Kernel, Level};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A flat parameter buffer with its gradient accumulator and Adam moment
/// estimates.
///
/// Layers own one `ParamBuf` per weight tensor; training code zeroes
/// gradients, runs forward/backward, then calls [`Adam::step`] over every
/// buffer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParamBuf {
    /// The parameters.
    pub w: Vec<f32>,
    /// Accumulated gradient, same length as `w`.
    pub g: Vec<f32>,
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
}

impl ParamBuf {
    /// Wrap an initial parameter vector.
    pub fn new(init: Vec<f32>) -> Self {
        let n = init.len();
        ParamBuf { w: init, g: vec![0.0; n], m: vec![0.0; n], v: vec![0.0; n], t: 0 }
    }

    /// Uniform initialization in `[-scale, scale]`.
    pub fn uniform<R: Rng + ?Sized>(n: usize, scale: f32, rng: &mut R) -> Self {
        ParamBuf::new((0..n).map(|_| rng.gen_range(-scale..=scale)).collect())
    }

    /// Zero the gradient accumulator.
    pub fn zero_grad(&mut self) {
        self.g.iter_mut().for_each(|g| *g = 0.0);
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.w.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.w.is_empty()
    }

    /// Clamp every parameter to at least `min` (used by the NonNeg
    /// detector, which constrains weights to be non-negative).
    pub fn clamp_min(&mut self, min: f32) {
        self.w.iter_mut().for_each(|w| *w = w.max(min));
    }

    /// Reflect every parameter into the non-negative half-space. Unlike
    /// [`ParamBuf::clamp_min`], this keeps the initialization magnitude:
    /// clamping a fresh symmetric init would zero half the capacity
    /// before training starts.
    pub fn reflect_abs(&mut self) {
        self.w.iter_mut().for_each(|w| *w = w.abs());
    }
}

/// Adam optimizer hyper-parameters; stateless across buffers (per-buffer
/// moments live in [`ParamBuf`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Adam {
    /// Learning rate η.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical fuzz.
    pub eps: f32,
}

impl Default for Adam {
    fn default() -> Self {
        Adam { lr: 1e-3, beta1: 0.9, beta2: 0.999, eps: 1e-8 }
    }
}

impl Adam {
    /// Adam with a custom learning rate (the paper's attack uses η = 0.01).
    pub fn with_lr(lr: f32) -> Self {
        Adam { lr, ..Adam::default() }
    }

    /// Apply one update to `buf` from its accumulated gradient, then clear
    /// the gradient.
    ///
    /// Chunks with no subnormal first moment run the plain per-lane update.
    /// A chunk holding one gives its decay lanes (`g == ±0`, subnormal
    /// `m`) their exact result without subnormal arithmetic, which needs
    /// microcode assists on x86. Every weight, moment and gradient bit
    /// equals the plain update's.
    ///
    /// The chunk loop is a [`simd::Kernel`] run as compiled for the widest
    /// instruction set this CPU executes ([`Level::best`]). Each lane's
    /// divisions and square root are correctly rounded at every width and
    /// Rust never contracts `a * b + c`, so every instantiation computes
    /// the same bits.
    pub fn step(&self, buf: &mut ParamBuf) {
        self.step_at(Level::best(), buf);
    }

    /// [`Adam::step`] with its chunk loop as compiled for `level`.
    fn step_at(&self, level: Level, buf: &mut ParamBuf) {
        buf.t += 1;
        let t = buf.t as f32;
        let bc1 = 1.0 - self.beta1.powf(t);
        let bc2 = 1.0 - self.beta2.powf(t);
        let Adam { lr, beta1, beta2, eps } = *self;
        let lanes = Lanes { lr, beta1, beta2, eps, bc1, bc2 };
        let decay = DecayLanes::new(&lanes);
        let ParamBuf { w, g, m, v, .. } = buf;
        simd::run_at(level, Step { lanes, decay, w, g, m, v });
    }
}

/// Lanes per subnormal check in [`Adam::step`].
const CHUNK: usize = 64;

/// The chunk loop of one [`Adam::step`] over a buffer's lanes.
struct Step<'a> {
    lanes: Lanes,
    decay: Option<DecayLanes>,
    w: &'a mut [f32],
    g: &'a mut [f32],
    m: &'a mut [f32],
    v: &'a mut [f32],
}

impl Kernel for Step<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let Step { lanes, decay, w, g, m, v } = self;
        let chunks = w
            .chunks_mut(CHUNK)
            .zip(g.chunks_mut(CHUNK))
            .zip(m.chunks_mut(CHUNK))
            .zip(v.chunks_mut(CHUNK));
        for (((w, g), m), v) in chunks {
            match &decay {
                Some(decay) if any_subnormal(m) => decay.update(&lanes, w, g, m, v),
                _ => {
                    let lanes_iter =
                        w.iter_mut().zip(g.iter_mut()).zip(m.iter_mut()).zip(v.iter_mut());
                    for (((w, g), m), v) in lanes_iter {
                        (*w, *m, *v) = lanes.update(*w, *g, *m, *v);
                        *g = 0.0;
                    }
                }
            }
        }
    }
}

/// One step's Adam arithmetic, with the bias corrections of step `t`.
#[derive(Debug, Clone, Copy)]
struct Lanes {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    bc1: f32,
    bc2: f32,
}

impl Lanes {
    /// The Adam update of one lane: `(w', m', v')`.
    #[inline(always)]
    fn update(&self, w: f32, g: f32, m: f32, v: f32) -> (f32, f32, f32) {
        let m = self.beta1 * m + (1.0 - self.beta1) * g;
        let v = self.beta2 * v + (1.0 - self.beta2) * g * g;
        let mhat = m / self.bc1;
        let vhat = v / self.bc2;
        (w - self.lr * mhat / (vhat.sqrt() + self.eps), m, v)
    }
}

/// Absolute-value bits of a subnormal `f32` lie in `1..=SUBNORMAL_MAX`.
const SUBNORMAL_MAX: u32 = 0x007f_ffff;
/// Bits of `+inf`; finite non-negative floats have smaller bits.
const INF_BITS: u32 = 0x7f80_0000;
/// Bits of 2^-120, the least second moment a decay lane accepts.
const V_MIN_BITS: u32 = (127 - 120) << 23;

#[inline(always)]
fn is_subnormal_bits(bits: u32) -> bool {
    (bits & 0x7fff_ffff).wrapping_sub(1) < SUBNORMAL_MAX
}

/// Whether any lane of `m` is subnormal (branch-free, so it vectorises).
#[inline(always)]
fn any_subnormal(m: &[f32]) -> bool {
    m.iter().fold(false, |any, m| any | is_subnormal_bits(m.to_bits()))
}

/// The decay lanes of one step: lanes whose plain update only decays a
/// subnormal first moment. With `g == ±0` and subnormal `m`, the plain
/// update computes `m' = β1·m + (1 − β1)·g` in subnormal arithmetic
/// (each such multiply or divide needs a microcode assist on x86) and
/// then moves `w` by less than half an ulp. A decay lane gets the same
/// bits without a subnormal operand:
///
/// * `m' = RNE(β1·m)` from the integer mantissa `M` of `m`: `M·β1` is
///   exact in f64 (23 + 24 bits), and rounding it to an integer is
///   rounding to the subnormal grid 2^-149. A zero keeps the sign
///   rule of `β1·m + (±0)`: `−0` only when `m < 0` and `g == −0`.
/// * `v'` and `w'` come from the plain arithmetic with `m` read as
///   `+0`: `v'` never reads `m`, and the update term is then `±0`, so
///   `w' = w`, which is what the plain update gives whenever
///   `|w| ≥ w_min` (see [`DecayLanes::new`]).
///
/// A lane qualifies when `g == ±0`, `m` is subnormal, `v` is `+0` or
/// finite and at least 2^-120, and `w` is finite with `|w| ≥ w_min`.
#[derive(Debug, Clone, Copy)]
struct DecayLanes {
    /// β1 widened, for the exact mantissa product.
    beta1: f64,
    /// Bits of the least `|w|` a decay lane accepts (never 0).
    w_min_bits: u32,
}

impl DecayLanes {
    /// The decay lanes of a step, or `None` when its hyper-parameters
    /// leave no lane provably exact.
    ///
    /// The step must have β1 a normal float in `(0, 1)`, `0 ≤ β2 < 1`,
    /// finite `lr`, `0 < eps ≤ 1` and both bias corrections positive.
    /// Then `(1 − β2)·g·g = +0` in a decay lane, so `v' = β2·v + 0`, and
    /// `√v̂ + eps ≥ eps`. The plain update moves `w` by
    /// `u = RNE(RNE(lr·m̂)/(√v̂ + eps))` with `|m'| ≤ 2^-126`, so
    /// `|lr·m̂| ≤ X = (1 + 2^-24)·eps·B` where
    /// `B = |lr|·2^-126/(bc1·eps)`. Rounding is monotone, gives 0 at or
    /// below 2^-150, at most doubles anything above it and adds at most
    /// half of itself at or above 2^-149. So either `u = ±0`, or
    /// `|u| ≤ 3·(1 + 2^-24)·B < 4·B`, or `|u| = 2^-149` with
    /// `X > 2^-150`, hence (as `eps ≤ 1`) `B > 2^-150/(1 + 2^-24)`.
    /// `w − u` rounds back to `w` when `|u|` is below half the spacing
    /// under `|w|`, which is at least `|w|·2^-25`, and above 2^-149 once
    /// `|w| > 2^-124`. Both cases hold for `|w| ≥ w_min = 2^27·B`,
    /// computed in f64 and rounded up to an f32.
    fn new(lanes: &Lanes) -> Option<DecayLanes> {
        let Lanes { lr, beta1, beta2, eps, bc1, bc2 } = *lanes;
        let eligible = (f32::MIN_POSITIVE..1.0).contains(&beta1)
            && (0.0..1.0).contains(&beta2)
            && lr.is_finite()
            && eps > 0.0
            && eps <= 1.0
            && bc1 > 0.0
            && bc2 > 0.0;
        if !eligible {
            return None;
        }
        let bound = 2f64.powi(27) * f64::from(lr.abs()) * 2f64.powi(-126)
            / (f64::from(bc1) * f64::from(eps));
        let mut w_min = bound as f32;
        if f64::from(w_min) < bound {
            w_min = f32::from_bits(w_min.to_bits() + 1);
        }
        let w_min_bits = w_min.to_bits().max(1);
        (w_min_bits < INF_BITS).then_some(DecayLanes { beta1: f64::from(beta1), w_min_bits })
    }

    /// The plain update of one chunk, bit for bit, with decay lanes taken
    /// exactly instead of in subnormal arithmetic. Branch-free per lane.
    #[inline(always)]
    fn update(&self, lanes: &Lanes, w: &mut [f32], g: &mut [f32], m: &mut [f32], v: &mut [f32]) {
        let lanes_iter = w.iter_mut().zip(g.iter_mut()).zip(m.iter_mut()).zip(v.iter_mut());
        for (((w, g), m), v) in lanes_iter {
            let (wb, gb, mb, vb) = (w.to_bits(), g.to_bits(), m.to_bits(), v.to_bits());
            let w_abs = wb & 0x7fff_ffff;
            let decays = gb & 0x7fff_ffff == 0
                && is_subnormal_bits(mb)
                && (vb == 0 || (V_MIN_BITS..INF_BITS).contains(&vb))
                && (self.w_min_bits..INF_BITS).contains(&w_abs);
            // RNE(β1·M) on the 2^-149 grid: adding 2^52 leaves the rounded
            // integer in the low mantissa bits.
            let product = f64::from((mb & SUBNORMAL_MAX) as i32) * self.beta1;
            let q = ((product + 4_503_599_627_370_496.0).to_bits() as u32) & 0x00ff_ffff;
            let sign = mb & 0x8000_0000;
            let decayed = if q == 0 { sign & gb } else { sign | q };
            let m_in = if decays { 0.0 } else { *m };
            let (w1, m1, v1) = lanes.update(*w, *g, m_in, *v);
            *w = w1;
            *m = if decays { f32::from_bits(decayed) } else { m1 };
            *v = v1;
            *g = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn adam_minimizes_quadratic() {
        // f(w) = (w - 3)^2, gradient 2(w-3): Adam should reach ~3.
        let mut buf = ParamBuf::new(vec![0.0]);
        let adam = Adam::with_lr(0.1);
        for _ in 0..500 {
            buf.g[0] = 2.0 * (buf.w[0] - 3.0);
            adam.step(&mut buf);
        }
        assert!((buf.w[0] - 3.0).abs() < 1e-2, "w = {}", buf.w[0]);
    }

    #[test]
    fn step_clears_gradient() {
        let mut buf = ParamBuf::new(vec![1.0, 2.0]);
        buf.g = vec![0.5, -0.5];
        Adam::default().step(&mut buf);
        assert_eq!(buf.g, vec![0.0, 0.0]);
    }

    /// `Adam::step` as it ran before decay lanes: one plain loop over
    /// every lane, then `zero_grad`. The reference the chunked step must
    /// match bit for bit.
    fn step_reference(adam: &Adam, buf: &mut ParamBuf) {
        buf.t += 1;
        let t = buf.t as f32;
        let bc1 = 1.0 - adam.beta1.powf(t);
        let bc2 = 1.0 - adam.beta2.powf(t);
        for i in 0..buf.w.len() {
            let g = buf.g[i];
            buf.m[i] = adam.beta1 * buf.m[i] + (1.0 - adam.beta1) * g;
            buf.v[i] = adam.beta2 * buf.v[i] + (1.0 - adam.beta2) * g * g;
            let mhat = buf.m[i] / bc1;
            let vhat = buf.v[i] / bc2;
            buf.w[i] -= adam.lr * mhat / (vhat.sqrt() + adam.eps);
        }
        buf.zero_grad();
    }

    fn signed_zero(rng: &mut ChaCha8Rng) -> f32 {
        0.0f32.copysign(random_bits(rng))
    }

    /// A non-zero subnormal of random sign.
    fn subnormal(rng: &mut ChaCha8Rng) -> f32 {
        f32::from_bits(rng.gen_range(1..=SUBNORMAL_MAX)).copysign(random_bits(rng))
    }

    fn special(rng: &mut ChaCha8Rng) -> f32 {
        let sign = if rng.gen_bool(0.5) { -1.0 } else { 1.0 };
        match rng.gen_range(0..5) {
            0 => sign * 0.0,
            1 => sign * f32::INFINITY,
            2 => f32::NAN,
            3 => subnormal(rng),
            _ => sign * f32::MAX,
        }
    }

    fn random_bits(rng: &mut ChaCha8Rng) -> f32 {
        f32::from_bits(rng.gen::<u32>())
    }

    /// A float with a random sign and mantissa and a biased exponent in
    /// `exponents`.
    fn with_exponent(rng: &mut ChaCha8Rng, exponents: std::ops::RangeInclusive<u32>) -> f32 {
        let sign = rng.gen::<u32>() & 0x8000_0000;
        let mantissa = rng.gen_range(0..=SUBNORMAL_MAX);
        f32::from_bits(sign | rng.gen_range(exponents) << 23 | mantissa)
    }

    /// One lane `(w, g, m, v)`; `decaying` is the chance that `m` is
    /// subnormal and `g == ±0`.
    fn random_lane(rng: &mut ChaCha8Rng, decaying: f64) -> [f32; 4] {
        let (g, m) = if rng.gen_bool(decaying) {
            (signed_zero(rng), subnormal(rng))
        } else {
            let g = match rng.gen_range(0..10) {
                0..=3 => signed_zero(rng),
                4 => special(rng),
                _ => random_bits(rng),
            };
            let m = match rng.gen_range(0..10) {
                0..=2 => with_exponent(rng, 0..=0),
                3 => with_exponent(rng, 1..=4),
                4 => special(rng),
                _ => random_bits(rng),
            };
            (g, m)
        };
        let v = match rng.gen_range(0..10) {
            0..=2 => 0.0,
            3 => special(rng),
            4 => with_exponent(rng, 0..=12).abs(),
            5..=7 => random_bits(rng).abs(),
            _ => random_bits(rng),
        };
        let w = match rng.gen_range(0..10) {
            0..=2 => with_exponent(rng, 0..=40),
            3..=4 => rng.gen_range(-1.0..1.0),
            5 => with_exponent(rng, 200..=254),
            6 => special(rng),
            _ => random_bits(rng),
        };
        [w, g, m, v]
    }

    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// The chunked step equals the plain reference loop on every lane,
    /// over random bit patterns rich in decaying lanes (subnormal `m`,
    /// `g == ±0`), zeros, infinities, NaNs and tiny or huge `w` and `v`,
    /// at the detectors' training rate, the attack optimizer's rate and
    /// a few odd or ineligible hyper-parameters, for `t` in 1..=5000, with
    /// the chunk loop as compiled for every level this CPU executes.
    #[test]
    fn step_matches_reference_bit_for_bit() {
        let levels = Level::available();
        let names: Vec<_> = levels.iter().map(|level| level.name()).collect();
        println!("Adam step vs reference, instantiations compared: {names:?}");
        let mut rng = ChaCha8Rng::seed_from_u64(0xADA4);
        let optimizers = [
            Adam::with_lr(5e-3),
            Adam::with_lr(0.12),
            Adam { lr: -0.3, beta1: 0.5, beta2: 0.99, eps: 1e-3 },
            Adam { lr: 2.0, beta1: 0.99, beta2: 0.0, eps: 1.0 },
            Adam { lr: 0.12, eps: 2.0, ..Adam::default() },
            Adam { lr: 0.12, beta1: 1.0, ..Adam::default() },
            Adam { lr: 0.12, beta2: 1.5, ..Adam::default() },
        ];
        let (mut lanes, mut decaying, mut bound_binding) = (0usize, 0usize, 0usize);
        while lanes < 10_000_000 {
            let adam = optimizers[rng.gen_range(0..optimizers.len())];
            let share = [0.0, 0.02, 0.3, 0.9][rng.gen_range(0..4)];
            let n = rng.gen_range(1..=200);
            let lane: Vec<[f32; 4]> = (0..n).map(|_| random_lane(&mut rng, share)).collect();
            let mut buf = ParamBuf::new(lane.iter().map(|l| l[0]).collect());
            buf.g = lane.iter().map(|l| l[1]).collect();
            buf.m = lane.iter().map(|l| l[2]).collect();
            buf.v = lane.iter().map(|l| l[3]).collect();
            buf.t = rng.gen_range(0..5000);
            let mut reference = buf.clone();
            step_reference(&adam, &mut reference);
            let stepped: Vec<_> = levels
                .iter()
                .map(|&level| {
                    let mut got = buf.clone();
                    adam.step_at(level, &mut got);
                    assert_eq!(got.t, reference.t);
                    (level, got)
                })
                .collect();
            for (i, &[w, g, m, v]) in lane.iter().enumerate() {
                for (level, buf) in &stepped {
                    let fields = [
                        ("w", buf.w[i], reference.w[i]),
                        ("m", buf.m[i], reference.m[i]),
                        ("v", buf.v[i], reference.v[i]),
                        ("g", buf.g[i], reference.g[i]),
                    ];
                    for (name, got, want) in fields {
                        assert!(
                            same(got, want),
                            "{} {name}: {got:e} ({:#010x}) != reference {want:e} ({:#010x}) \
                             for lane {:?} at t {} under {adam:?}",
                            level.name(),
                            got.to_bits(),
                            want.to_bits(),
                            [w, g, m, v].map(f32::to_bits),
                            buf.t,
                        );
                    }
                }
                if g == 0.0 && is_subnormal_bits(m.to_bits()) {
                    decaying += 1;
                    let v_ok = v.to_bits() == 0 || (V_MIN_BITS..INF_BITS).contains(&v.to_bits());
                    let moved = !reference.w[i].is_nan() && reference.w[i] != w;
                    bound_binding += usize::from(v_ok && w.is_finite() && moved);
                }
            }
            lanes += n;
        }
        // The inputs exercise the decay lanes and the `|w|` bound.
        assert!(decaying > 2_000_000, "{decaying} decaying lanes");
        assert!(bound_binding > 10_000, "{bound_binding} lanes moved by a subnormal m");
    }

    #[test]
    fn uniform_init_within_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let buf = ParamBuf::uniform(1000, 0.05, &mut rng);
        assert!(buf.w.iter().all(|&w| (-0.05..=0.05).contains(&w)));
        assert!(buf.w.iter().any(|&w| w != 0.0));
    }

    #[test]
    fn clamp_min_enforces_nonneg() {
        let mut buf = ParamBuf::new(vec![-1.0, 0.5, -0.2]);
        buf.clamp_min(0.0);
        assert_eq!(buf.w, vec![0.0, 0.5, 0.0]);
    }

    #[test]
    fn multi_dim_minimization() {
        let target = [1.0f32, -2.0, 0.5, 4.0];
        let mut buf = ParamBuf::new(vec![0.0; 4]);
        let adam = Adam::with_lr(0.05);
        for _ in 0..2000 {
            for (i, t) in target.iter().enumerate() {
                buf.g[i] = 2.0 * (buf.w[i] - t);
            }
            adam.step(&mut buf);
        }
        for (i, t) in target.iter().enumerate() {
            assert!((buf.w[i] - t).abs() < 1e-2);
        }
    }
}
