//! Resilience suite for the scoring daemon: the four robustness
//! properties under real sockets and real concurrency.
//!
//! * **Overload shedding** — a slow model behind a tiny queue refuses
//!   surplus load with typed `Overloaded`/`DeadlineExceeded` responses,
//!   every refusal is accounted, and the latency of *admitted* requests
//!   stays bounded instead of collapsing.
//! * **Hot reload** — concurrent streaming clients plus reloads: every
//!   request is answered, epochs span the swap, nothing drops.
//! * **Kill-and-restart soak** — a seeded `UnreliableOracle` behind the
//!   daemon, graceful drain, then a restart on the same socket path
//!   (past a stale socket file) serving again.
//! * **Typed admission refusals** — budget, breaker, and rate-limit
//!   refusals arrive as their protocol variants, not prose.

use mpass_detectors::{Detector, FaultProfile, Oracle, UnreliableOracle};
use mpass_engine::OracleFault;
use mpass_serve::{
    ReloadableModel, Response, ScoredVerdict, ServeClient, ServeError, ServeSummary, ServeTarget,
    Server, ServerConfig, TenantPolicy,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

struct Fixed(f32);

impl Detector for Fixed {
    fn name(&self) -> &str {
        "fixed"
    }
    fn score(&self, _: &[u8]) -> f32 {
        self.0
    }
}

/// A model that takes real wall-clock time per item — the load
/// generator for overload tests.
struct Slow {
    score: f32,
    delay: Duration,
}

impl Detector for Slow {
    fn name(&self) -> &str {
        "slow"
    }
    fn score(&self, _: &[u8]) -> f32 {
        std::thread::sleep(self.delay);
        self.score
    }
}

fn temp_socket(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mpass-resilience-{tag}-{}.sock", std::process::id()))
}

/// Admission limits loose enough to never interfere with a test that is
/// probing a *different* property.
fn permissive_tenants() -> TenantPolicy {
    TenantPolicy {
        rate_per_sec: 1_000_000.0,
        burst: 10_000,
        budget: None,
        breaker_threshold: 0,
        ..TenantPolicy::default()
    }
}

/// What one client thread saw, by response type.
#[derive(Debug, Default)]
struct Tally {
    scored: u64,
    overloaded: u64,
    deadline: u64,
    upstream: u64,
    epochs: Vec<u64>,
    unexpected: Vec<String>,
}

impl Tally {
    fn absorb(&mut self, response: Result<Response, String>) {
        match response {
            Ok(Response::Score(resp)) => {
                self.scored += 1;
                self.epochs.push(resp.epoch);
            }
            Ok(Response::Error(e)) => match e.error {
                ServeError::Overloaded { .. } => self.overloaded += 1,
                ServeError::DeadlineExceeded => self.deadline += 1,
                ServeError::Upstream { .. } => self.upstream += 1,
                other => self.unexpected.push(format!("{other:?}")),
            },
            Ok(other) => self.unexpected.push(format!("{other:?}")),
            Err(e) => self.unexpected.push(e),
        }
    }
}

/// Boot a daemon over a static `Fixed(0.9)` model, drive it from the
/// main thread, shut it down, and return what the driver produced plus
/// the drain summary.
fn with_daemon<T>(
    tag: &str,
    configure: impl FnOnce(&mut ServerConfig),
    drive: impl FnOnce(&mut ServeClient) -> T,
) -> (T, ServeSummary) {
    let model = ReloadableModel::new(Arc::new(Fixed(0.9)), |_| Err("static".to_owned()));
    let socket = temp_socket(tag);
    let mut config = ServerConfig { socket: socket.clone(), ..ServerConfig::default() };
    configure(&mut config);
    let server = Server::new(&model, config);
    std::thread::scope(|scope| {
        let server = &server;
        let daemon = scope.spawn(move || server.run());
        let mut client = ServeClient::connect_retry(&socket, Duration::from_secs(30)).unwrap();
        let out = drive(&mut client);
        client.shutdown(9_999_999).unwrap();
        let summary = daemon.join().expect("daemon panicked").expect("daemon errored");
        (out, summary)
    })
}

#[test]
fn overload_sheds_with_typed_refusals_and_bounded_admitted_latency() {
    let model = ReloadableModel::new(
        Arc::new(Slow { score: 0.9, delay: Duration::from_millis(15) }),
        |_| Err("static".to_owned()),
    );
    let socket = temp_socket("overload");
    let server = Server::new(
        &model,
        ServerConfig {
            socket: socket.clone(),
            max_batch: 4,
            linger: Duration::from_millis(1),
            queue_capacity: 2,
            default_deadline: Duration::from_millis(150),
            tenant: permissive_tenants(),
            ..ServerConfig::default()
        },
    );
    let (tallies, summary) = std::thread::scope(|scope| {
        let server = &server;
        let daemon = scope.spawn(move || server.run());
        // 12 concurrent clients × 3 requests against a queue of 2 and a
        // model that needs 15 ms per item: far past capacity.
        let clients: Vec<_> = (0..12)
            .map(|c| {
                let socket = socket.clone();
                scope.spawn(move || {
                    let mut client =
                        ServeClient::connect_retry(&socket, Duration::from_secs(30)).unwrap();
                    let mut tally = Tally::default();
                    for r in 0..3u64 {
                        let response =
                            client.score(r, &format!("tenant-{c}"), b"MZ overload", Some(150));
                        tally.absorb(response);
                    }
                    tally
                })
            })
            .collect();
        let tallies: Vec<Tally> =
            clients.into_iter().map(|h| h.join().expect("client panicked")).collect();
        let mut control = ServeClient::connect_retry(&socket, Duration::from_secs(30)).unwrap();
        control.shutdown(99).unwrap();
        let summary = daemon.join().expect("daemon panicked").expect("daemon errored");
        (tallies, summary)
    });

    let scored: u64 = tallies.iter().map(|t| t.scored).sum();
    let refused: u64 = tallies.iter().map(|t| t.overloaded + t.deadline).sum();
    let unexpected: Vec<_> = tallies.iter().flat_map(|t| &t.unexpected).collect();
    assert!(unexpected.is_empty(), "only Score/Overloaded/DeadlineExceeded allowed: {unexpected:?}");
    assert!(scored >= 1, "some requests must get through");
    assert!(refused >= 1, "a 2-deep queue under 12 clients must shed");
    assert_eq!(scored + refused, 36, "every request got exactly one answer");

    // Accounting: everything admitted either completed or was shed.
    assert_eq!(summary.rejected, 0);
    assert_eq!(summary.admitted, 36);
    assert_eq!(summary.completed, scored);
    assert_eq!(summary.shed, refused);
    assert_eq!(summary.admitted, summary.completed + summary.shed);

    // The point of shedding: admitted latency is bounded by the deadline
    // plus one batch's scoring time, not by the 36-deep backlog.
    assert!(
        summary.p99_ms < 1_000.0,
        "admitted p99 {} ms must stay bounded under overload",
        summary.p99_ms
    );
}

#[test]
fn hot_reload_never_drops_in_flight_requests() {
    let model = ReloadableModel::new(Arc::new(Fixed(0.9)), |epoch| {
        Ok(Arc::new(Fixed(if epoch.is_multiple_of(2) { 0.2 } else { 0.9 })) as Arc<dyn Detector>)
    });
    let socket = temp_socket("reload");
    let server = Server::new(
        &model,
        ServerConfig {
            socket: socket.clone(),
            max_batch: 8,
            linger: Duration::from_millis(1),
            queue_capacity: 1_024,
            default_deadline: Duration::from_secs(10),
            tenant: permissive_tenants(),
            ..ServerConfig::default()
        },
    );
    let (tallies, summary) = std::thread::scope(|scope| {
        let server = &server;
        let daemon = scope.spawn(move || server.run());
        // Four streaming writers...
        let writers: Vec<_> = (0..4)
            .map(|c| {
                let socket = socket.clone();
                scope.spawn(move || {
                    let mut client =
                        ServeClient::connect_retry(&socket, Duration::from_secs(30)).unwrap();
                    let mut tally = Tally::default();
                    for r in 0..30u64 {
                        tally.absorb(client.score(r, &format!("writer-{c}"), b"MZ stream", None));
                    }
                    tally
                })
            })
            .collect();
        // ...while the control connection swaps the model three times,
        // scoring across each swap to pin the epoch sequence.
        let mut control = ServeClient::connect_retry(&socket, Duration::from_secs(30)).unwrap();
        match control.score(1_000, "control", b"MZ control", None).unwrap() {
            Response::Score(resp) => assert_eq!(resp.epoch, 1),
            other => panic!("expected a score, got {other:?}"),
        }
        for round in 0..3u64 {
            let expected = round + 2;
            match control.reload(2_000 + round).unwrap() {
                Response::Reloaded { epoch, .. } => assert_eq!(epoch, expected),
                other => panic!("expected reload ack, got {other:?}"),
            }
            match control.score(3_000 + round, "control", b"MZ control", None).unwrap() {
                Response::Score(resp) => assert_eq!(resp.epoch, expected),
                other => panic!("expected a score, got {other:?}"),
            }
        }
        let tallies: Vec<Tally> =
            writers.into_iter().map(|h| h.join().expect("writer panicked")).collect();
        control.shutdown(9_999).unwrap();
        let summary = daemon.join().expect("daemon panicked").expect("daemon errored");
        (tallies, summary)
    });

    // Zero drops: all 120 streamed requests answered with verdicts.
    let scored: u64 = tallies.iter().map(|t| t.scored).sum();
    let unexpected: Vec<_> = tallies.iter().flat_map(|t| &t.unexpected).collect();
    assert!(unexpected.is_empty(), "reload must not surface errors: {unexpected:?}");
    assert_eq!(scored, 120);
    // Every verdict names a real epoch from the swap sequence.
    assert!(tallies.iter().flat_map(|t| &t.epochs).all(|&e| (1..=4).contains(&e)));

    assert_eq!(summary.reloads, 3);
    assert_eq!(summary.admitted, 124, "120 streamed + 4 control scores");
    assert_eq!(summary.completed, 124, "reload dropped an in-flight request");
    assert_eq!(summary.shed, 0);
    assert_eq!(summary.client_gone, 0);
}

/// A fault-injecting channel *around* a hot-reloadable slot: what a
/// daemon fronting a flaky remote scoring service looks like. The
/// oracle keeps one seeded fault schedule across batches; the epoch is
/// read alongside each batch (hard-label channels have no snapshot to
/// carry, so this is the honest epoch for test purposes).
struct FlakyTarget<'a> {
    model: &'a ReloadableModel,
    oracle: UnreliableOracle<'a>,
}

impl ServeTarget for FlakyTarget<'_> {
    fn epoch(&self) -> u64 {
        self.model.epoch()
    }

    fn reload(&self) -> Result<u64, String> {
        self.model.reload()
    }

    fn score_batch(&self, items: &[&[u8]]) -> (u64, Vec<Result<ScoredVerdict, OracleFault>>) {
        let epoch = self.model.epoch();
        let results = items
            .iter()
            .map(|bytes| {
                self.oracle.submit(bytes).map(|verdict| ScoredVerdict { verdict, score: None })
            })
            .collect();
        (epoch, results)
    }
}

#[test]
fn soak_with_flaky_oracle_then_restart_on_the_same_socket() {
    let model = ReloadableModel::new(Arc::new(Fixed(0.9)), |_| {
        Ok(Arc::new(Fixed(0.2)) as Arc<dyn Detector>)
    });
    let target = FlakyTarget {
        model: &model,
        oracle: UnreliableOracle::new(model.slot(), FaultProfile::seeded(0x50AC)),
    };
    let socket = temp_socket("soak");
    let config = ServerConfig {
        socket: socket.clone(),
        max_batch: 8,
        linger: Duration::from_millis(1),
        queue_capacity: 1_024,
        default_deadline: Duration::from_secs(10),
        tenant: permissive_tenants(),
        ..ServerConfig::default()
    };

    // Phase A: sustained load with injected upstream faults and one
    // mid-stream reload, then a graceful drain.
    let server = Server::new(&target, config.clone());
    let (tallies, summary) = std::thread::scope(|scope| {
        let server = &server;
        let daemon = scope.spawn(move || server.run());
        let clients: Vec<_> = (0..6)
            .map(|c| {
                let socket = socket.clone();
                scope.spawn(move || {
                    let mut client =
                        ServeClient::connect_retry(&socket, Duration::from_secs(30)).unwrap();
                    let mut tally = Tally::default();
                    for r in 0..10u64 {
                        tally.absorb(client.score(r, &format!("soak-{c}"), b"MZ soak", None));
                    }
                    tally
                })
            })
            .collect();
        let mut control = ServeClient::connect_retry(&socket, Duration::from_secs(30)).unwrap();
        match control.reload(500).unwrap() {
            Response::Reloaded { epoch, .. } => assert_eq!(epoch, 2),
            other => panic!("expected reload ack, got {other:?}"),
        }
        let tallies: Vec<Tally> =
            clients.into_iter().map(|h| h.join().expect("client panicked")).collect();
        control.shutdown(999).unwrap();
        let summary = daemon.join().expect("daemon panicked").expect("daemon errored");
        (tallies, summary)
    });

    let scored: u64 = tallies.iter().map(|t| t.scored).sum();
    let upstream: u64 = tallies.iter().map(|t| t.upstream).sum();
    let unexpected: Vec<_> = tallies.iter().flat_map(|t| &t.unexpected).collect();
    assert!(unexpected.is_empty(), "only Score/Upstream allowed here: {unexpected:?}");
    assert_eq!(scored + upstream, 60, "every request answered exactly once");
    assert!(upstream > 0, "the seeded profile must inject faults across 60 submissions");
    assert!(scored > 0, "most submissions still deliver");
    // Upstream faults are admitted but neither completed nor shed — the
    // full admission ledger.
    assert_eq!(summary.admitted, 60);
    assert_eq!(summary.completed, scored);
    assert_eq!(summary.admitted, summary.completed + summary.shed + upstream);
    assert_eq!(summary.reloads, 1);
    assert!(!socket.exists(), "drain must remove the socket file");

    // Phase B: a crashed daemon leaves a stale socket file behind; a
    // restart on the same path must replace it and serve again.
    let stale = std::os::unix::net::UnixListener::bind(&socket).expect("create stale socket");
    drop(stale); // dropping the listener does not unlink the path
    assert!(socket.exists(), "stale socket file is in place");

    let server = Server::new(&target, config);
    let summary = std::thread::scope(|scope| {
        let server = &server;
        let daemon = scope.spawn(move || server.run());
        let mut client = ServeClient::connect_retry(&socket, Duration::from_secs(30)).unwrap();
        match client.ping(1).unwrap() {
            Response::Pong { epoch, .. } => assert_eq!(epoch, 2, "model survives the restart"),
            other => panic!("expected pong, got {other:?}"),
        }
        let mut tally = Tally::default();
        for r in 0..5u64 {
            tally.absorb(client.score(r, "phoenix", b"MZ reborn", None));
        }
        assert!(tally.unexpected.is_empty(), "restart serves cleanly: {:?}", tally.unexpected);
        assert_eq!(tally.scored + tally.upstream, 5);
        client.shutdown(6).unwrap();
        daemon.join().expect("daemon panicked").expect("daemon errored")
    });
    assert_eq!(summary.admitted, 5);
    assert!(!socket.exists(), "second drain removes the socket again");
}

#[test]
fn tenant_budget_exhaustion_is_a_typed_refusal() {
    let (responses, summary) = with_daemon(
        "budget",
        |config| {
            config.tenant = TenantPolicy { budget: Some(2), ..permissive_tenants() };
        },
        |client| {
            (0..3u64)
                .map(|r| client.score(r, "metered", b"MZ budget", None).unwrap())
                .collect::<Vec<_>>()
        },
    );
    assert!(matches!(responses[0], Response::Score(_)));
    assert!(matches!(responses[1], Response::Score(_)));
    match &responses[2] {
        Response::Error(e) => {
            assert_eq!(e.error, ServeError::BudgetExhausted { limit: 2 });
        }
        other => panic!("expected budget refusal, got {other:?}"),
    }
    assert_eq!(summary.admitted, 2);
    assert_eq!(summary.rejected, 1);
}

#[test]
fn tenant_rate_limit_is_a_typed_refusal_with_a_retry_hint() {
    let (responses, summary) = with_daemon(
        "rate",
        |config| {
            config.tenant =
                TenantPolicy { rate_per_sec: 0.5, burst: 1, ..permissive_tenants() };
        },
        |client| {
            (0..2u64)
                .map(|r| client.score(r, "bursty", b"MZ rate", None).unwrap())
                .collect::<Vec<_>>()
        },
    );
    assert!(matches!(responses[0], Response::Score(_)));
    match &responses[1] {
        Response::Error(e) => match e.error {
            ServeError::RateLimited { retry_after_ms } => {
                assert!(
                    (1..=2_000).contains(&retry_after_ms),
                    "0.5 tokens/s refills within 2 s, hint was {retry_after_ms}"
                );
            }
            ref other => panic!("expected rate-limit refusal, got {other:?}"),
        },
        other => panic!("expected rate-limit refusal, got {other:?}"),
    }
    assert_eq!(summary.admitted, 1);
    assert_eq!(summary.rejected, 1);
}

#[test]
fn repeated_sheds_trip_the_tenant_breaker() {
    // A zero-capacity queue makes every admitted request shed, which
    // counts as a failed outcome; two failures trip the breaker, so the
    // third request is refused breaker-fast without touching the queue.
    let (responses, summary) = with_daemon(
        "breaker",
        |config| {
            config.queue_capacity = 0;
            config.tenant = TenantPolicy {
                breaker_threshold: 2,
                breaker_cooldown: 100,
                ..permissive_tenants()
            };
        },
        |client| {
            (0..3u64)
                .map(|r| client.score(r, "doomed", b"MZ breaker", None).unwrap())
                .collect::<Vec<_>>()
        },
    );
    for response in &responses[..2] {
        match response {
            Response::Error(e) => {
                assert!(matches!(e.error, ServeError::Overloaded { .. }), "got {e:?}");
            }
            other => panic!("expected overload refusal, got {other:?}"),
        }
    }
    match &responses[2] {
        Response::Error(e) => assert_eq!(e.error, ServeError::CircuitOpen),
        other => panic!("expected breaker refusal, got {other:?}"),
    }
    assert_eq!(summary.admitted, 2);
    assert_eq!(summary.shed, 2);
    assert_eq!(summary.rejected, 1);
    assert_eq!(summary.completed, 0);
}
