//! `mpass-transfer` and `blackbox-query`: one attacked sample per unit,
//! against the MalConv target behind a 100-query, AE-gated hard-label
//! oracle.

use crate::clock::CpuTimer;
use crate::layers::Layers;
use crate::meter::{Meter, TimedDetector, TimedModel};
use crate::serve;
use crate::stats::{self, Tally, Timed};
use crate::world::{self, Base};
use crate::{Args, RunResult};
use mpass_baselines::{Mab, MabConfig};
use mpass_core::{Attack, AttackOutcome, HardLabelTarget, MPassAttack, MPassConfig};
use mpass_corpus::Sample;
use mpass_detectors::{Detector, WhiteBoxModel};
use mpass_engine::metrics::{self as trace, Collector};
use mpass_experiments::world::World;
use mpass_sandbox::{Baseline, Sandbox};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// MPass with the NonNeg + MalGCG known ensemble.
    Transfer,
    /// MAB, the strongest query-only baseline.
    Blackbox,
}

/// Hard-label queries per sample (the paper's budget).
const BUDGET: usize = 100;
/// Samples attacked, untimed, before the clock starts.
const WARMUP_SAMPLES: usize = 4;

/// Everything set-up produces: the world, the attacked samples and each
/// sample's behavioural baseline for re-validating its AE.
struct Inputs {
    world: World,
    set: Vec<usize>,
    baselines: Vec<Baseline>,
}

impl Inputs {
    /// The attack set of `world` in the seeded order the workload attacks
    /// it in.
    fn build(world: World, seed: u64) -> Inputs {
        let chosen: Vec<&str> = world
            .attack_set(&world.malconv)
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        let mut set: Vec<usize> = world
            .dataset
            .samples
            .iter()
            .enumerate()
            .filter(|(_, s)| chosen.contains(&s.name.as_str()))
            .map(|(i, _)| i)
            .collect();
        set.shuffle(&mut ChaCha8Rng::seed_from_u64(world::mix(seed, 3)));
        let sandbox = Sandbox::new();
        let baselines = set
            .iter()
            .map(|&i| {
                sandbox
                    .baseline_digest(&world.dataset.samples[i].bytes)
                    .expect("generated samples parse")
            })
            .collect();
        Inputs {
            world,
            set,
            baselines,
        }
    }

    fn samples(&self) -> Vec<&Sample> {
        self.set
            .iter()
            .map(|&i| &self.world.dataset.samples[i])
            .collect()
    }

    /// The attack as the offline experiments configure it: seeded from
    /// the world seed. A fresh instance per pass, so MAB's bandit, which
    /// learns across samples, starts every pass from the same state.
    fn attack<'a>(
        &'a self,
        method: Method,
        models: Vec<&'a dyn WhiteBoxModel>,
    ) -> Box<dyn Attack + 'a> {
        let seed = self.world.config.seed;
        let pool = &self.world.pool;
        match method {
            Method::Transfer => Box::new(MPassAttack::new(
                models,
                pool,
                MPassConfig::builder()
                    .seed(seed)
                    .build()
                    .expect("default MPass config is valid"),
            )),
            Method::Blackbox => Box::new(Mab::new(
                pool,
                MabConfig {
                    seed,
                    ..MabConfig::default()
                },
            )),
        }
    }
}

/// One pass: attack every sample once with a fresh attack instance.
/// `each` is called after every sample with its outcome and latency.
/// Returns the pass's CPU seconds. Both are on the process clock.
fn pass(
    method: Method,
    inputs: &Inputs,
    target: &dyn Detector,
    models: Vec<&dyn WhiteBoxModel>,
    samples: &[&Sample],
    mut each: impl FnMut(usize, AttackOutcome, f64),
) -> f64 {
    let whole = CpuTimer::process();
    let mut attack = inputs.attack(method, models);
    for (i, sample) in samples.iter().enumerate() {
        let mut oracle = HardLabelTarget::new(target, BUDGET).with_ae_validation();
        let start = CpuTimer::process();
        let outcome = attack.attack(sample, &mut oracle);
        let ms = start.ms();
        each(i, outcome, ms);
    }
    whole.elapsed().as_secs_f64()
}

/// MPass's known ensemble against MalConv, as the offline experiments
/// pick it: NonNeg and MalGCG.
fn known_models(inputs: &Inputs) -> Vec<&dyn WhiteBoxModel> {
    inputs.world.known_models_excluding("MalConv")
}

/// The output check: an evading AE must reproduce its original's
/// behaviour digest and be classified benign by the target.
fn ae_is_valid(inputs: &Inputs, i: usize, outcome: &AttackOutcome) -> bool {
    match (&outcome.adversarial, outcome.evaded) {
        (Some(ae), true) => {
            Sandbox::new()
                .verify_candidate(&inputs.baselines[i], ae)
                .is_preserved()
                && inputs.world.malconv.classify(ae).is_benign()
        }
        (None, false) => true,
        _ => false,
    }
}

fn same_outcome(a: &AttackOutcome, b: &AttackOutcome) -> bool {
    a.evaded == b.evaded && a.queries == b.queries && a.adversarial == b.adversarial
}

/// Outcomes and latencies of every attacked sample.
#[derive(Default)]
struct Recorder {
    outcomes: Vec<(usize, AttackOutcome)>,
    latencies_ms: Vec<f64>,
}

impl Recorder {
    fn record(&mut self, i: usize, outcome: AttackOutcome, ms: f64) {
        self.outcomes.push((i, outcome));
        self.latencies_ms.push(ms);
    }

    fn busy_ms(&self) -> f64 {
        self.latencies_ms.iter().sum::<f64>()
    }

    /// Check every outcome: the AE of a sample's first outcome against the
    /// sandbox and the target, every repeat for being identical to it.
    /// Returns the tally and the number of valid evasions.
    fn check(&self, inputs: &Inputs) -> (Tally, u64) {
        let mut tally = Tally::default();
        let mut evaded = 0;
        let mut first: Vec<Option<(&AttackOutcome, bool)>> = vec![None; inputs.set.len()];
        for (i, o) in &self.outcomes {
            let ok = match first[*i] {
                Some((f, valid)) => valid && same_outcome(f, o),
                None => {
                    let valid = ae_is_valid(inputs, *i, o);
                    first[*i] = Some((o, valid));
                    valid
                }
            };
            tally.record(ok);
            evaded += u64::from(ok && o.evaded);
        }
        (tally, evaded)
    }

    /// Evasion rate and mean queries per sample. The rate is smoothed
    /// over one pass (`per_pass` samples, evasions averaged over the
    /// passes) so it does not depend on how many passes fit in the run.
    fn quality(&self, evaded: u64, per_pass: usize) -> (f64, f64) {
        let n = self.outcomes.len().max(1) as f64;
        let passes = n / per_pass.max(1) as f64;
        let queries = self
            .outcomes
            .iter()
            .map(|(_, o)| o.queries as f64)
            .sum::<f64>();
        (
            stats::smoothed_share(evaded as f64 / passes, per_pass as f64),
            queries / n,
        )
    }
}

/// Seconds of daemon sessions the traced attack runs spend on the serve
/// layers.
const SERVE_TRACE_S: f64 = 6.0;

/// Passes run at least, whatever `--seconds` says: three passes of 48
/// samples put the tail at p90, with 14 samples beyond it.
const MIN_PASSES: u64 = 3;

pub fn run(method: Method, args: &Args) -> RunResult {
    let setup = world::set_up(
        Base::World,
        || World::build(world::config()),
        |world| Inputs::build(world, args.seed),
    );
    let inputs = &setup.inputs;
    let samples = inputs.samples();
    let target = &inputs.world.malconv;
    eprintln!("{} samples attacked per pass", samples.len());

    // Warm-up: caches, allocator and lazily built kernel tables.
    let warm = &samples[..WARMUP_SAMPLES.min(samples.len())];
    pass(
        method,
        inputs,
        target,
        known_models(inputs),
        warm,
        |_, _, _| {},
    );

    if args.trace {
        return traced(method, args, inputs, &samples, setup.layers());
    }

    // Whole passes until the time is up, so every sample weighs the same.
    let mut rec = Recorder::default();
    let mut cpu_s = 0.0;
    let start = Instant::now();
    let mut k = 0;
    while k < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        let models = known_models(inputs);
        cpu_s += pass(method, inputs, target, models, &samples, |i, o, ms| {
            rec.record(i, o, ms)
        });
        k += 1;
    }
    let (tally, evaded) = rec.check(inputs);
    let timed = Timed {
        tally,
        seconds: cpu_s,
        latencies_ms: &rec.latencies_ms,
        setups_s: &setup.seconds,
    };
    let (mut metrics, latency) = match stats::end_to_end(&timed, stats::peak_rss_mb()) {
        Ok(m) => m,
        Err(e) => return RunResult::failed(tally, e),
    };
    let (evasion, queries) = rec.quality(evaded, samples.len());
    metrics.put("evasion_rate", evasion, "share");
    metrics.put("queries_per_sample", queries, "count");
    RunResult::ok(tally, metrics, Some(latency))
}

/// The traced run: untraced and traced passes alternate; every traced
/// outcome must equal its untraced twin, and the time difference is the
/// tracing overhead.
fn traced(
    method: Method,
    args: &Args,
    inputs: &Inputs,
    samples: &[&Sample],
    mut m: Layers,
) -> RunResult {
    let target = &inputs.world.malconv;
    let plain = known_models(inputs);
    let mut untraced = Recorder::default();
    let mut traced = Recorder::default();
    let timed_target = TimedDetector::new(target);
    let timed_models: Vec<TimedModel> = plain.iter().map(|&m| TimedModel::new(m)).collect();
    let gate = Meter::default();
    let mut collector = Collector::default();
    let start = Instant::now();
    let mut k = 0;
    while k == 0 || start.elapsed().as_secs_f64() < args.seconds {
        pass(
            method,
            inputs,
            target,
            plain.clone(),
            samples,
            |i, o, ms| untraced.record(i, o, ms),
        );
        let models: Vec<&dyn WhiteBoxModel> = timed_models
            .iter()
            .map(|m| m as &dyn WhiteBoxModel)
            .collect();
        trace::install(std::mem::take(&mut collector));
        pass(
            method,
            inputs,
            &timed_target,
            models,
            samples,
            |i, o, ms| {
                // The AE gate runs before the query span opens; re-time its
                // predicate on every candidate the target received (those
                // it rejected are scaled in below).
                for c in timed_target.take_captured() {
                    gate.time(1, || mpass_core::validate::candidate_is_valid(&c));
                }
                traced.record(i, o, ms);
            },
        );
        collector = trace::take().expect("collector installed for the traced pass");
        k += 1;
    }
    let mismatches = untraced
        .outcomes
        .iter()
        .zip(&traced.outcomes)
        .filter(|((_, a), (_, b))| !same_outcome(a, b))
        .count() as u64;
    let (mut tally, evaded_u) = untraced.check(inputs);
    let (tally_t, evaded_t) = traced.check(inputs);
    tally.merge(tally_t);
    tally.failed += mismatches.min(tally.succeeded());
    let (mab_self_ms, tally_mab) = baseline_self_ms(inputs, samples);
    tally.merge(tally_mab);
    // `serve-closedloop` is left out of BENCHMARK.json as well (see
    // README.md); its layers are measured here, on this run's world.
    let serve_inputs = serve::Inputs::new(&inputs.world);
    match serve::measure_layers(&serve_inputs, args.seed, SERVE_TRACE_S, &mut m) {
        Ok((tally_serve, _)) => tally.merge(tally_serve),
        Err((tally_serve, e)) => {
            tally.merge(tally_serve);
            return RunResult::failed(tally, e);
        }
    }

    let shard = collector.finish("traced", 0.0);
    let timing = |name: &str| {
        shard
            .timings
            .get(name)
            .map_or((0, 0.0), |t| (t.count, t.total_ms))
    };
    let counter = |name: &str| shard.counters.get(name).copied().unwrap_or(0);
    let units = traced.outcomes.len().max(1) as f64;
    let (opt_n, opt_ms) = timing("stage/optimize");
    let (mod_n, mod_ms) = timing("stage/modify");
    let (q_n, q_ms) = timing("stage/query");
    let queries = counter("queries");
    let rejected = counter("oracle/ae_rejected");
    let grad_calls: u64 = timed_models.iter().map(|m| m.grad.calls()).sum();
    let grad_ms: f64 = timed_models.iter().map(|m| m.grad.busy_ms()).sum();
    m.set("core.optimize.rounds", opt_n as f64 / units);
    m.set("core.optimize.busy_ms", opt_ms / units);
    m.set("core.optimize.self_ms", (opt_ms - grad_ms) / units);
    m.set("detectors.grad.calls", grad_calls as f64 / units);
    m.set("detectors.grad.busy_ms", grad_ms / units);
    m.set("core.modify.calls", mod_n as f64 / units);
    m.set("core.modify.busy_ms", mod_ms / units);
    m.set("core.query.calls", q_n as f64 / units);
    m.set("core.query.busy_ms", q_ms / units);
    m.set(
        "core.query.useful_share",
        evaded_t as f64 / queries.max(1) as f64,
    );
    let score = &timed_target.score;
    m.set("detectors.score.calls", score.items() as f64 / units);
    m.set("detectors.score.busy_ms", score.busy_ms() / units);
    m.set(
        "detectors.score.us_per_call",
        score.busy_ms() * 1e3 / score.items().max(1) as f64,
    );
    // Rejected candidates never reach the target, so the gate's time on
    // them is estimated at the mean it took on the received ones.
    let gated = (gate.calls() + rejected) as f64 / gate.calls().max(1) as f64;
    m.set("core.ae_gate.busy_ms", gate.busy_ms() * gated / units);
    m.set(
        "core.ae_gate.reject_share",
        rejected as f64 / (rejected + queries).max(1) as f64,
    );
    m.set("baselines.self_ms", mab_self_ms);
    let overhead = traced.busy_ms() / untraced.busy_ms() - 1.0;
    m.set("trace.overhead_pct", overhead * 100.0);

    let (ev_u, q_u) = untraced.quality(evaded_u, samples.len());
    let (ev_t, q_t) = traced.quality(evaded_t, samples.len());
    println!(
        "trace: {k} untraced and {k} traced passes of {} samples",
        samples.len()
    );
    println!("trace: evasion_rate untraced {ev_u} traced {ev_t}");
    println!("trace: queries_per_sample untraced {q_u} traced {q_t}");
    println!("trace: outcomes differing from the untraced pass: {mismatches}");
    println!(
        "trace: tracing overhead {:.2}% of untraced attack time",
        overhead * 100.0
    );
    RunResult::traced(
        tally,
        m.into_metrics(),
        mismatches == 0 && ev_u == ev_t && q_u == q_t,
    )
}

/// MAB's own time per sample, from one pass of the query-only baseline
/// over the same samples: its attack time minus its `stage/query` span.
/// `blackbox-query` is too exposed to the host to hold a bound (see
/// README.md), so this pass carries MAB's layer into the traced
/// `mpass-transfer` run. Its outcomes are checked like any other.
fn baseline_self_ms(inputs: &Inputs, samples: &[&Sample]) -> (f64, Tally) {
    let mut rec = Recorder::default();
    trace::install(Collector::default());
    pass(
        Method::Blackbox,
        inputs,
        &inputs.world.malconv,
        Vec::new(),
        samples,
        |i, o, ms| rec.record(i, o, ms),
    );
    let shard = trace::take()
        .expect("collector installed for the baseline pass")
        .finish("baselines", 0.0);
    let query_ms = shard.timings.get("stage/query").map_or(0.0, |t| t.total_ms);
    let (tally, _) = rec.check(inputs);
    let self_ms = (rec.busy_ms() - query_ms) / samples.len().max(1) as f64;
    println!(
        "trace: one MAB pass of {} samples: {self_ms:.3} ms per sample outside queries",
        samples.len()
    );
    (self_ms, tally)
}
