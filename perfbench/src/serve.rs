//! `serve-closedloop`: an in-process `mpass-serve` daemon on a Unix
//! socket, driven by two connections in a closed loop. One unit is one
//! score round trip as the client sees it.

use crate::layers::Layers;
use crate::meter::{Meter, TimedTarget};
use crate::stats::{self, Tally, Timed};
use crate::world::{self, Base};
use crate::{Args, RunResult};
use mpass_detectors::{Detector, Verdict};
use mpass_experiments::world::World;
use mpass_serve::{
    encode_hex, protocol, ReloadableModel, Request, Response, ScoreRequest, ServeClient,
    ServeError, ServeSummary, ServeTarget, Server, ServerConfig, TenantPolicy,
};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client connections, each a plain thread in a closed loop.
const CONNECTIONS: usize = 2;
/// Seconds of requests before the clock starts.
const WARMUP_S: f64 = 1.0;

/// A replayed corpus sample and the verdict the same model gives it in
/// process.
struct Replay {
    bytes: Vec<u8>,
    expected: Verdict,
    malware: bool,
}

pub struct Inputs {
    replays: Vec<Replay>,
    model: Arc<dyn Detector>,
}

impl Inputs {
    /// The world's MalConv as the served model, and its corpus to replay.
    pub fn new(world: &World) -> Inputs {
        let model: Arc<dyn Detector> = Arc::new(world.malconv.clone());
        let replays = world
            .dataset
            .samples
            .iter()
            .map(|s| Replay {
                expected: model.classify(&s.bytes),
                malware: s.label == mpass_corpus::Label::Malware,
                bytes: s.bytes.clone(),
            })
            .collect();
        Inputs { replays, model }
    }
}

/// The daemon configuration: defaults (batch 32, linger 2 ms) with
/// admission limits lifted, so every refusal would be a real overload.
fn server_config(socket: PathBuf) -> ServerConfig {
    ServerConfig {
        socket,
        tenant: TenantPolicy {
            rate_per_sec: 1e12,
            burst: u32::MAX,
            budget: None,
            breaker_threshold: 0,
            ..TenantPolicy::default()
        },
        ..ServerConfig::default()
    }
}

/// What one connection observed during the timed phase: the check tally
/// and `(replayed sample, round-trip ms)` per request. A request the
/// daemon shed or refused is a failed one, and is also counted here.
#[derive(Default)]
struct ClientLog {
    tally: Tally,
    latencies_ms: Vec<(usize, f64)>,
    shed: u64,
    rejected: u64,
}

impl ClientLog {
    /// Each replayed sample's median round trip. A sample's latency is
    /// set mostly by its size (request parsing grows with the payload), so
    /// the distribution over samples is steadier than over requests, whose
    /// top percent is a handful of repeats of the largest samples.
    fn per_sample(&self, samples: usize) -> Vec<f64> {
        let mut by_sample = vec![Vec::new(); samples];
        for &(i, ms) in &self.latencies_ms {
            by_sample[i].push(ms);
        }
        by_sample
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| stats::median(v))
            .collect()
    }
}

/// One closed-loop connection: replay the corpus in seeded shuffled
/// cycles, each request sent only after the previous reply arrived.
fn client(
    socket: &Path,
    replays: &[Replay],
    seed: u64,
    warm_until: Instant,
    until: Instant,
) -> Result<ClientLog, String> {
    let mut conn = ServeClient::connect_retry(socket, Duration::from_secs(20))?;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..replays.len()).collect();
    let mut log = ClientLog::default();
    let mut id = 0u64;
    loop {
        order.shuffle(&mut rng);
        for &i in &order {
            let sent = Instant::now();
            if sent >= until {
                return Ok(log);
            }
            id += 1;
            let response = conn.score(id, "bench", &replays[i].bytes, None)?;
            let ms = sent.elapsed().as_secs_f64() * 1e3;
            if sent < warm_until {
                continue;
            }
            let ok = match &response {
                Response::Score(r) => r.verdict == replays[i].expected,
                Response::Error(e) => {
                    match e.error {
                        ServeError::Overloaded { .. } | ServeError::DeadlineExceeded => {
                            log.shed += 1
                        }
                        ServeError::RateLimited { .. }
                        | ServeError::BudgetExhausted { .. }
                        | ServeError::CircuitOpen => log.rejected += 1,
                        _ => {}
                    }
                    false
                }
                _ => false,
            };
            log.tally.record(ok);
            log.latencies_ms.push((i, ms));
        }
    }
}

/// One daemon session: serve until the clients are done, then drain.
struct Session {
    log: ClientLog,
    /// Wall seconds of the timed phase.
    seconds: f64,
    /// Share of the machine's CPU time the hypervisor took during it.
    stolen: f64,
    summary: ServeSummary,
}

impl Session {
    /// The part of wall time the machine actually ran: a daemon waits on
    /// sockets and timers, so it cannot be timed on a CPU clock, but on a
    /// shared VM the hypervisor can take half of a busy vCPU's time. Wall
    /// time is therefore counted net of the stolen share (see README.md).
    fn net(&self) -> f64 {
        1.0 - self.stolen.clamp(0.0, 0.9)
    }

    fn throughput(&self) -> f64 {
        self.log.tally.succeeded() as f64 / (self.seconds * self.net())
    }
}

fn session(
    target: &dyn ServeTarget,
    inputs: &Inputs,
    seed: u64,
    seconds: f64,
) -> Result<Session, String> {
    // A relative path keeps the socket inside the working directory and
    // under the Unix socket path length limit.
    let socket = PathBuf::from(format!(".perfbench-serve-{}.sock", std::process::id()));
    let server = Server::new(target, server_config(socket.clone()));
    let warm_until = Instant::now() + Duration::from_secs_f64(WARMUP_S);
    let until = warm_until + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        let daemon = scope.spawn(|| server.run());
        let stolen_before = {
            std::thread::sleep(warm_until.saturating_duration_since(Instant::now()));
            stolen_s()
        };
        let clients: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let socket = &socket;
                let seed = world::mix(seed, 32 + c as u64);
                scope.spawn(move || client(socket, &inputs.replays, seed, warm_until, until))
            })
            .collect();
        let logs: Vec<Result<ClientLog, String>> = clients
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_owned()))
            })
            .collect();
        let ended = Instant::now();
        let stolen = stolen_s() - stolen_before;
        server.request_shutdown();
        let summary = daemon
            .join()
            .map_err(|_| "daemon thread panicked".to_owned())??;
        let mut log = ClientLog::default();
        for l in logs {
            let l = l?;
            log.tally.merge(l.tally);
            log.latencies_ms.extend(l.latencies_ms);
            log.shed += l.shed;
            log.rejected += l.rejected;
        }
        let seconds = ended.saturating_duration_since(warm_until).as_secs_f64();
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        Ok(Session {
            log,
            seconds,
            stolen: stolen / (cpus * seconds),
            summary,
        })
    })
}

fn daemon_target(inputs: &Inputs) -> ReloadableModel {
    ReloadableModel::new(inputs.model.clone(), |_| {
        Err("reload is not part of this workload".to_owned())
    })
}

/// CPU seconds the hypervisor has taken from this machine, all CPUs
/// together (`steal` in `/proc/stat`, in 1/100 s ticks).
fn stolen_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

pub fn run(args: &Args) -> RunResult {
    let setup = world::set_up(
        Base::World,
        || World::build(world::config()),
        |world| Inputs::new(&world),
    );
    let inputs = &setup.inputs;
    if args.trace {
        let mut m = setup.layers();
        return match measure_layers(inputs, args.seed, args.seconds, &mut m) {
            Ok((tally, overhead_pct)) => {
                m.set("trace.overhead_pct", overhead_pct);
                RunResult::traced(tally, m.into_metrics(), tally.failed == 0)
            }
            Err((tally, e)) => RunResult::failed(tally, e),
        };
    }
    let target = daemon_target(inputs);
    let s = match session(&target, inputs, args.seed, args.seconds) {
        Ok(s) => s,
        Err(e) => return RunResult::failed(Tally::default(), e),
    };
    let tally = s.log.tally;
    let net = s.net();
    let latencies: Vec<f64> = s
        .log
        .per_sample(inputs.replays.len())
        .iter()
        .map(|ms| ms * net)
        .collect();
    let timed = Timed {
        tally,
        seconds: s.seconds * net,
        latencies_ms: &latencies,
        setups_s: &setup.seconds,
    };
    let (mut metrics, latency) = match stats::end_to_end(&timed, stats::peak_rss_mb()) {
        Ok(m) => m,
        Err(e) => return RunResult::failed(tally, e),
    };
    // No attack runs here: the quality pair reads as the share of corpus
    // malware the served model passes as benign, and the hard-label
    // queries one request costs.
    let malware = inputs.replays.iter().filter(|r| r.malware).count();
    let missed = inputs
        .replays
        .iter()
        .filter(|r| r.malware && r.expected.is_benign())
        .count();
    metrics.put(
        "evasion_rate",
        stats::smoothed_share(missed as f64, malware as f64),
        "share",
    );
    metrics.put("queries_per_sample", 1.0, "count");
    println!(
        "daemon (wall): p50 {:.3} ms, p99 {:.3} ms; clients saw {} shed, {} refused; {:.1}% of CPU time stolen",
        s.summary.p50_ms,
        s.summary.p99_ms,
        s.log.shed,
        s.log.rejected,
        s.stolen * 100.0
    );
    RunResult::ok(tally, metrics, Some(latency))
}

/// The serve layers, measured from outside: request parsing timed on
/// its own, then an untraced and a traced daemon session of `seconds / 2`
/// each, the traced one with its scoring backend wrapped. Both sessions
/// must reproduce the in-process verdicts. Returns their tally and the
/// tracing overhead in percent of untraced throughput.
pub fn measure_layers(
    inputs: &Inputs,
    seed: u64,
    seconds: f64,
    m: &mut Layers,
) -> Result<(Tally, f64), (Tally, String)> {
    let parse = Meter::default();
    for r in &inputs.replays {
        let line = serde_json::to_string(&Request::Score(ScoreRequest {
            id: 1,
            tenant: "bench".to_owned(),
            bytes_hex: encode_hex(&r.bytes),
            deadline_ms: None,
        }))
        .expect("requests serialize");
        parse.time(1, || protocol::parse_request(&line).is_ok());
    }
    let target = daemon_target(inputs);
    let half = seconds / 2.0;
    let plain = session(&target, inputs, seed, half).map_err(|e| (Tally::default(), e))?;
    let timed_target = TimedTarget::new(&target);
    let traced = session(&timed_target, inputs, seed, half).map_err(|e| (plain.log.tally, e))?;
    let mut tally = plain.log.tally;
    tally.merge(traced.log.tally);
    let requests = traced.log.tally.attempted.max(1) as f64;
    let all: Vec<f64> = traced.log.latencies_ms.iter().map(|&(_, ms)| ms).collect();
    let client_p50 = stats::median(&all);
    let daemon_p50 = traced.summary.p50_ms;
    let flushes = &timed_target.flushes;
    let per_flush_ms = flushes.busy_ms() / flushes.calls().max(1) as f64;
    m.set(
        "serve.parse_ms",
        parse.busy_ms() / parse.calls().max(1) as f64,
    );
    m.set("serve.daemon_ms_p50", daemon_p50);
    m.set("serve.outside_daemon_ms", client_p50 - daemon_p50);
    m.set("serve.batch_wait_ms", daemon_p50 - per_flush_ms);
    m.set("engine.batch.flushes", flushes.calls() as f64 / requests);
    m.set(
        "engine.batch.size_mean",
        flushes.items() as f64 / flushes.calls().max(1) as f64,
    );
    m.set(
        "detectors.score_batch.busy_ms",
        flushes.busy_ms() / requests,
    );
    m.set("serve.shed", (plain.log.shed + traced.log.shed) as f64);
    m.set(
        "serve.rejected",
        (plain.log.rejected + traced.log.rejected) as f64,
    );
    let overhead = plain.throughput() / traced.throughput() - 1.0;
    println!(
        "trace: untraced daemon session {} requests, traced session {} requests, {} with a wrong verdict",
        plain.log.tally.attempted,
        traced.log.tally.attempted,
        plain.log.tally.failed + traced.log.tally.failed
    );
    println!("trace: client p50 {client_p50:.3} ms, daemon p50 {daemon_p50:.3} ms");
    println!(
        "trace: serve tracing overhead {:.2}% of untraced throughput",
        overhead * 100.0
    );
    Ok((tally, overhead * 100.0))
}
