//! The benchmark world: the program's own `World::build` on
//! `WorldConfig::quick()` scaled to a 64+64 corpus and 48 attacked
//! samples, and the repeated, timed set-up every workload goes through.

use crate::clock::CpuTimer;
use crate::layers::Layers;
use crate::stats;
use mpass_corpus::{BenignPool, Dataset};
use mpass_experiments::world::WorldConfig;

/// SplitMix64 finalizer: derives independent sub-seeds from one seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// The world configuration every workload shares. Its corpus and
/// training seeds stay those of `WorldConfig::quick()`: the workload seed
/// drives the attack order, candidates and request mix run against the
/// world, not the world itself (see README.md, "Why the world and the
/// attack seeds are fixed").
pub fn config() -> WorldConfig {
    let mut cfg = WorldConfig::quick();
    cfg.corpus.n_malware = 64;
    cfg.corpus.n_benign = 64;
    cfg.attack_samples = 48;
    cfg
}

/// The corpus and the benign-content pool alone, for the workload that
/// runs no detector. The pool comes from the configuration's master seed.
pub fn corpus(cfg: &WorldConfig) -> (Dataset, BenignPool) {
    (
        Dataset::generate(&cfg.corpus),
        BenignPool::generate(cfg.benign_pool_programs, cfg.seed),
    )
}

/// What a workload builds its inputs from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Base {
    /// [`corpus`]: no detector is trained.
    Corpus,
    /// `World::build`: the corpus, the pool and every trained detector.
    World,
}

/// A run's inputs and what building them cost.
pub struct SetUp<T> {
    pub inputs: T,
    /// CPU seconds of each set-up.
    pub seconds: Vec<f64>,
    /// CPU milliseconds each set-up spent building its [`Base`].
    base_ms: Vec<f64>,
    base: Base,
}

impl<T> SetUp<T> {
    /// Per-layer metrics with the set-up layers filled in. `World::build`
    /// is one call, so its corpus share is timed from outside by
    /// generating the corpus and pool again, and training is the rest of
    /// the build (benign packing included).
    pub fn layers(&self) -> Layers {
        let base_ms = stats::median(&self.base_ms);
        let (generate_ms, train_ms) = match self.base {
            Base::Corpus => (base_ms, 0.0),
            Base::World => {
                let cfg = config();
                let generate: Vec<f64> = (0..SETUP_REPEATS)
                    .map(|_| {
                        let t = CpuTimer::process();
                        drop(std::hint::black_box(corpus(&cfg)));
                        t.ms()
                    })
                    .collect();
                let generate_ms = stats::median(&generate);
                (generate_ms, base_ms - generate_ms)
            }
        };
        let mut m = Layers::zeroed();
        m.set("corpus.generate_ms", generate_ms);
        m.set("detectors.train_ms", train_ms);
        m
    }
}

/// Set up [`SETUP_REPEATS`] times on the process CPU clock, keeping the
/// last inputs. `build` makes the [`Base`]; `inputs` turns it into the
/// workload's inputs, and its time counts towards `setup_s` too.
pub fn set_up<B, T>(
    base: Base,
    mut build: impl FnMut() -> B,
    mut inputs: impl FnMut(B) -> T,
) -> SetUp<T> {
    let (mut seconds, mut base_ms) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let start = CpuTimer::process();
        let built = build();
        base_ms.push(start.ms());
        last = Some(inputs(built));
        seconds.push(start.elapsed().as_secs_f64());
    }
    SetUp {
        inputs: last.expect("at least one set-up"),
        seconds,
        base_ms,
        base,
    }
}
