//! The daemon itself: Unix-socket accept loop, per-connection handler
//! threads, cross-connection batch coalescing, and graceful drain.
//!
//! ## Request path
//!
//! ```text
//! client line ─→ parse ─→ admission (breaker → budget → bucket)
//!        ─→ try_submit(bytes, deadline) into the BatchScheduler
//!        ─→ [leader thread: shed expired, score survivors as one batch]
//!        ─→ typed Response line back (write failure = client_gone)
//! ```
//!
//! Overload never queues without bound: the scheduler's queue is capped
//! ([`ServerConfig::queue_capacity`]) and a full queue answers
//! [`ServeError::Overloaded`] immediately, so the latency of *admitted*
//! requests stays bounded by their deadline instead of collapsing.
//!
//! ## Shutdown
//!
//! `shutdown` (protocol) or SIGTERM (via [`run_with_sigterm`])
//! sets one flag: the accept loop stops taking connections, handlers
//! answer new score requests with [`ServeError::ShuttingDown`], requests
//! already inside the scheduler complete and are delivered, and the
//! final stats are flushed to the metrics sink. No in-flight request is
//! dropped.

use crate::admission::{AdmissionControl, AdmissionError, TenantPolicy};
use crate::protocol::{
    decode_hex, parse_request, ErrorResponse, Request, Response, ScoreRequest, ScoreResponse,
    ServeError, StatsResponse,
};
use crate::stats::ServeStats;
use crate::target::{ScoredVerdict, ServeTarget};
use mpass_engine::{BatchPolicy, BatchScheduler, OracleFault, SubmitError};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Everything configurable about one daemon instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Unix socket path; a stale file from a dead daemon is replaced.
    pub socket: PathBuf,
    /// Batch coalescing: flush size.
    pub max_batch: usize,
    /// Batch coalescing: linger before a partial batch flushes.
    pub linger: Duration,
    /// Bound on requests queued for scoring; beyond it requests are
    /// refused with [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Duration,
    /// Admission limits shared by all tenants.
    pub tenant: TenantPolicy,
    /// Where to flush the final metrics file; `None` skips the flush.
    pub metrics_out: Option<PathBuf>,
    /// Seed recorded in the metrics file (provenance only).
    pub seed: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            socket: PathBuf::from("mpass-serve.sock"),
            max_batch: 32,
            linger: Duration::from_millis(2),
            queue_capacity: 256,
            default_deadline: Duration::from_millis(1_000),
            tenant: TenantPolicy::default(),
            metrics_out: None,
            seed: 0,
        }
    }
}

/// Final accounting returned by [`Server::run`] after a clean drain.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSummary {
    pub admitted: u64,
    pub shed: u64,
    pub rejected: u64,
    pub completed: u64,
    pub client_gone: u64,
    pub reloads: u64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub throughput_rps: f64,
}

/// A scoring daemon bound to one [`ServeTarget`].
pub struct Server<'a> {
    target: &'a dyn ServeTarget,
    config: ServerConfig,
    admission: AdmissionControl,
    stats: ServeStats,
    shutdown: AtomicBool,
}

impl<'a> Server<'a> {
    pub fn new(target: &'a dyn ServeTarget, config: ServerConfig) -> Self {
        let admission = AdmissionControl::new(config.tenant.clone());
        Server {
            target,
            config,
            admission,
            stats: ServeStats::default(),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Live counters (readable while the daemon runs).
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Begin a graceful drain: stop accepting, finish in-flight work.
    /// Safe to call from any thread (a SIGTERM watcher, a test).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether a drain has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Bind the socket and serve until shutdown, then drain and return
    /// the final accounting. Blocks the calling thread for the daemon's
    /// whole life.
    pub fn run(&self) -> Result<ServeSummary, String> {
        let socket = &self.config.socket;
        // A stale socket file from a previous daemon refuses rebinding;
        // replace it. (A *live* daemon also holds the path, but two
        // daemons on one path is an operator error either way.)
        if socket.exists() {
            std::fs::remove_file(socket)
                .map_err(|e| format!("cannot remove stale socket {}: {e}", socket.display()))?;
        }
        let listener = UnixListener::bind(socket)
            .map_err(|e| format!("cannot bind {}: {e}", socket.display()))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot set nonblocking accept: {e}"))?;

        let sched: BatchScheduler<Vec<u8>, (u64, Result<ScoredVerdict, OracleFault>)> =
            BatchScheduler::new(
                BatchPolicy {
                    max_batch: self.config.max_batch.max(1),
                    max_delay: self.config.linger,
                    queue_capacity: self.config.queue_capacity,
                },
                |items: &[Vec<u8>]| {
                    let refs: Vec<&[u8]> = items.iter().map(|b| b.as_slice()).collect();
                    let (epoch, results) = self.target.score_batch(&refs);
                    results.into_iter().map(|r| (epoch, r)).collect()
                },
            );

        std::thread::scope(|scope| {
            while !self.is_shutting_down() {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let sched = &sched;
                        scope.spawn(move || self.handle_connection(stream, sched));
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) => {
                        // Accept errors are transient under load (EMFILE,
                        // ECONNABORTED); keep serving existing clients.
                        let _ = e;
                        std::thread::sleep(Duration::from_millis(2));
                    }
                }
            }
            // Drain: flush stragglers out of the scheduler so no waiter
            // sits out its linger; handler threads are joined by the
            // scope, each completing its in-flight request first.
            sched.flush();
        });
        std::fs::remove_file(socket).ok();

        if let Some(out) = &self.config.metrics_out {
            self.stats
                .save_metrics(out, 1, self.config.seed)
                .map_err(|e| format!("cannot write metrics {}: {e}", out.display()))?;
        }
        let (p50_ms, p99_ms) = self.stats.latency_percentiles_ms();
        Ok(ServeSummary {
            admitted: self.stats.admitted.load(Ordering::Relaxed),
            shed: self.stats.shed.load(Ordering::Relaxed),
            rejected: self.stats.rejected.load(Ordering::Relaxed),
            completed: self.stats.completed.load(Ordering::Relaxed),
            client_gone: self.stats.client_gone.load(Ordering::Relaxed),
            reloads: self.stats.reloads.load(Ordering::Relaxed),
            p50_ms,
            p99_ms,
            throughput_rps: self.stats.throughput_rps(),
        })
    }

    /// Serve one connection: read request lines, answer each in order.
    /// The read timeout keeps the thread responsive to the shutdown
    /// flag; in-flight requests always finish before the check.
    fn handle_connection(
        &self,
        stream: UnixStream,
        sched: &BatchScheduler<'_, Vec<u8>, (u64, Result<ScoredVerdict, OracleFault>)>,
    ) {
        if stream.set_read_timeout(Some(Duration::from_millis(50))).is_err() {
            return;
        }
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        let mut reader = BufReader::new(read_half);
        let mut writer = stream;
        // The line buffer persists across WouldBlock retries: read_line
        // appends, so a line split across timeouts reassembles intact.
        let mut line = String::new();
        loop {
            match reader.read_line(&mut line) {
                Ok(0) => return, // EOF: client closed cleanly
                Ok(_) => {
                    if line.trim().is_empty() {
                        line.clear();
                        continue;
                    }
                    let response = self.handle_request(&line, sched);
                    line.clear();
                    if !self.write_response(&mut writer, &response) {
                        return; // client vanished; already counted
                    }
                    // Shutdown acknowledged — drain this connection.
                    if matches!(response, Response::ShuttingDown { .. }) {
                        return;
                    }
                }
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut =>
                {
                    if self.is_shutting_down() && line.trim().is_empty() {
                        return; // idle connection during drain
                    }
                }
                Err(_) => {
                    // Mid-request disconnect (reset, broken pipe): no
                    // panic, count it, reclaim the thread.
                    self.stats.client_gone.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        }
    }

    /// Write one response line; `false` (and a `client_gone` count) when
    /// the peer is gone.
    fn write_response(&self, writer: &mut UnixStream, response: &Response) -> bool {
        let payload = match serde_json::to_string(response) {
            Ok(p) => p,
            Err(_) => return true, // unserializable response is a bug, not a peer failure
        };
        let ok = writer
            .write_all(payload.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .is_ok();
        if !ok {
            self.stats.client_gone.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    fn handle_request(
        &self,
        line: &str,
        sched: &BatchScheduler<'_, Vec<u8>, (u64, Result<ScoredVerdict, OracleFault>)>,
    ) -> Response {
        let request = match parse_request(line) {
            Ok(r) => r,
            Err(reason) => {
                return Response::Error(ErrorResponse {
                    id: 0,
                    error: ServeError::BadRequest { reason },
                })
            }
        };
        match request {
            Request::Ping { id } => Response::Pong { id, epoch: self.target.epoch() },
            Request::Stats { id } => Response::Stats(self.stats_snapshot(id)),
            Request::Shutdown { id } => {
                self.request_shutdown();
                Response::ShuttingDown { id }
            }
            Request::Reload { id } => match self.target.reload() {
                Ok(epoch) => {
                    self.stats.reloads.fetch_add(1, Ordering::Relaxed);
                    Response::Reloaded { id, epoch }
                }
                Err(reason) => Response::Error(ErrorResponse {
                    id,
                    error: ServeError::BadRequest { reason },
                }),
            },
            Request::Score(req) => self.handle_score(req, sched),
        }
    }

    fn handle_score(
        &self,
        req: ScoreRequest,
        sched: &BatchScheduler<'_, Vec<u8>, (u64, Result<ScoredVerdict, OracleFault>)>,
    ) -> Response {
        let id = req.id;
        let refuse = |error: ServeError| Response::Error(ErrorResponse { id, error });
        if self.is_shutting_down() {
            return refuse(ServeError::ShuttingDown);
        }
        let bytes = match decode_hex(&req.bytes_hex) {
            Ok(b) => b,
            Err(reason) => return refuse(ServeError::BadRequest { reason }),
        };
        if let Err(e) = self.admission.admit(&req.tenant) {
            self.stats.rejected.fetch_add(1, Ordering::Relaxed);
            return refuse(match e {
                AdmissionError::RateLimited { retry_after_ms } => {
                    ServeError::RateLimited { retry_after_ms }
                }
                AdmissionError::BudgetExhausted { limit } => {
                    ServeError::BudgetExhausted { limit: limit as u64 }
                }
                AdmissionError::CircuitOpen => ServeError::CircuitOpen,
            });
        }
        self.stats.admitted.fetch_add(1, Ordering::Relaxed);
        let arrived = Instant::now();
        let deadline = arrived
            + req
                .deadline_ms
                .map(Duration::from_millis)
                .unwrap_or(self.config.default_deadline);
        match sched.try_submit(bytes, Some(deadline)) {
            Ok((epoch, Ok(scored))) => {
                self.admission.record_delivered(&req.tenant);
                let elapsed = arrived.elapsed();
                self.stats.record_latency_ms(elapsed.as_secs_f64() * 1e3);
                Response::Score(ScoreResponse {
                    id,
                    verdict: scored.verdict,
                    score: scored.score,
                    epoch,
                    queued_us: elapsed.as_micros() as u64,
                })
            }
            Ok((_, Err(fault))) => {
                self.admission.record_failed(&req.tenant);
                refuse(ServeError::Upstream { fault })
            }
            Err(SubmitError::QueueFull { capacity }) => {
                self.stats.shed.fetch_add(1, Ordering::Relaxed);
                self.admission.record_failed(&req.tenant);
                refuse(ServeError::Overloaded { capacity: capacity as u64 })
            }
            Err(SubmitError::DeadlineExpired) => {
                self.stats.shed.fetch_add(1, Ordering::Relaxed);
                self.admission.record_failed(&req.tenant);
                refuse(ServeError::DeadlineExceeded)
            }
        }
    }

    fn stats_snapshot(&self, id: u64) -> StatsResponse {
        let (p50_ms, p99_ms) = self.stats.latency_percentiles_ms();
        StatsResponse {
            id,
            admitted: self.stats.admitted.load(Ordering::Relaxed),
            shed: self.stats.shed.load(Ordering::Relaxed),
            rejected: self.stats.rejected.load(Ordering::Relaxed),
            completed: self.stats.completed.load(Ordering::Relaxed),
            client_gone: self.stats.client_gone.load(Ordering::Relaxed),
            reloads: self.stats.reloads.load(Ordering::Relaxed),
            epoch: self.target.epoch(),
            p50_ms,
            p99_ms,
            throughput_rps: self.stats.throughput_rps(),
            uptime_ms: self.stats.uptime_ms(),
        }
    }
}

// ---------------------------------------------------------------------------
// SIGTERM wiring (no libc dependency: one hand-declared POSIX binding).

static SIGTERM_RECEIVED: AtomicBool = AtomicBool::new(false);

#[allow(non_camel_case_types)]
type c_int = i32;

extern "C" fn on_sigterm(_signum: c_int) {
    // Only async-signal-safe work here: one atomic store.
    SIGTERM_RECEIVED.store(true, Ordering::SeqCst);
}

extern "C" {
    fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
}

const SIGTERM: c_int = 15;

/// Whether a SIGTERM has arrived since the handler was installed.
pub fn sigterm_received() -> bool {
    SIGTERM_RECEIVED.load(Ordering::SeqCst)
}

/// Run the server, draining gracefully on SIGTERM as well as on a
/// protocol `shutdown`. This wraps [`Server::run`] with a scoped watcher
/// thread that polls [`sigterm_received`] and requests shutdown; once
/// `run` returns, `Ok` or `Err` (say, the socket cannot be bound), the
/// watcher is told to stop too, so the call never outlives the server.
pub fn run_with_sigterm(server: &Server<'_>) -> Result<ServeSummary, String> {
    unsafe {
        signal(SIGTERM, on_sigterm);
    }
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !server.is_shutting_down() {
                if sigterm_received() {
                    server.request_shutdown();
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let result = server.run();
        server.request_shutdown();
        result
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ServeClient;
    use crate::target::ReloadableModel;
    use mpass_detectors::{Detector, Verdict};
    use std::sync::Arc;

    struct Fixed(f32);
    impl Detector for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }
        fn score(&self, _: &[u8]) -> f32 {
            self.0
        }
    }

    fn temp_socket(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mpass-serve-{tag}-{}.sock", std::process::id()))
    }

    #[test]
    fn daemon_scores_reloads_and_drains() {
        let model = ReloadableModel::new(Arc::new(Fixed(0.9)), |epoch| {
            // Each reload alternates the verdict, tagging it by epoch.
            Ok(Arc::new(Fixed(if epoch % 2 == 0 { 0.1 } else { 0.9 })) as Arc<dyn Detector>)
        });
        let socket = temp_socket("smoke");
        let server = Server::new(
            &model,
            ServerConfig { socket: socket.clone(), ..ServerConfig::default() },
        );
        let summary = std::thread::scope(|scope| {
            let server = &server;
            let daemon = scope.spawn(move || server.run());
            let mut client =
                ServeClient::connect_retry(&socket, Duration::from_secs(10)).unwrap();

            // Liveness + epoch.
            assert_eq!(client.ping(1).unwrap(), Response::Pong { id: 1, epoch: 1 });

            // A scored request under epoch 1.
            match client.score(2, "acme", b"MZ test bytes", Some(5_000)).unwrap() {
                Response::Score(resp) => {
                    assert_eq!(resp.id, 2);
                    assert_eq!(resp.verdict, Verdict::Malicious);
                    assert_eq!(resp.epoch, 1);
                    assert!(resp.score.is_some());
                }
                other => panic!("expected a score, got {other:?}"),
            }

            // Hot reload flips the model; verdicts change, nothing drops.
            assert_eq!(client.reload(3).unwrap(), Response::Reloaded { id: 3, epoch: 2 });
            match client.score(4, "acme", b"MZ test bytes", Some(5_000)).unwrap() {
                Response::Score(resp) => {
                    assert_eq!(resp.verdict, Verdict::Benign);
                    assert_eq!(resp.epoch, 2);
                }
                other => panic!("expected a score, got {other:?}"),
            }

            // Stats reflect the traffic so far.
            match client.stats(5).unwrap() {
                Response::Stats(stats) => {
                    assert_eq!(stats.admitted, 2);
                    assert_eq!(stats.completed, 2);
                    assert_eq!(stats.shed, 0);
                    assert_eq!(stats.reloads, 1);
                    assert_eq!(stats.epoch, 2);
                }
                other => panic!("expected stats, got {other:?}"),
            }

            // Graceful shutdown: acknowledged, then the daemon drains.
            assert_eq!(client.shutdown(6).unwrap(), Response::ShuttingDown { id: 6 });
            daemon.join().expect("daemon thread panicked").expect("daemon errored")
        });
        assert_eq!(summary.admitted, 2);
        assert_eq!(summary.completed, 2);
        assert_eq!(summary.reloads, 1);
        assert_eq!(summary.client_gone, 0);
        assert!(!socket.exists(), "socket file must be removed at drain");
    }

    /// A bind failure ends `run_with_sigterm` with the error instead of
    /// leaving its SIGTERM watcher (and so the call) running forever.
    #[test]
    fn run_with_sigterm_returns_after_a_bind_failure() {
        let socket = std::env::temp_dir()
            .join(format!("mpass-serve-missing-{}", std::process::id()))
            .join("s.sock");
        let (tx, rx) = std::sync::mpsc::channel();
        // A detached thread: if the call hangs, the test still fails.
        std::thread::spawn(move || {
            let model = ReloadableModel::new(Arc::new(Fixed(0.9)), |_| Err("no".to_owned()));
            let server = Server::new(&model, ServerConfig { socket, ..ServerConfig::default() });
            tx.send(run_with_sigterm(&server).map(|_| ())).ok();
        });
        let result = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("run_with_sigterm still running 10 s after a bind failure");
        let err = result.expect_err("binding inside a missing directory must fail");
        assert!(err.contains("cannot bind"), "unexpected error: {err}");
    }

    #[test]
    fn bad_lines_get_typed_errors_not_panics() {
        let model = ReloadableModel::new(Arc::new(Fixed(0.9)), |_| Err("no".to_owned()));
        let socket = temp_socket("badline");
        let server = Server::new(
            &model,
            ServerConfig { socket: socket.clone(), ..ServerConfig::default() },
        );
        std::thread::scope(|scope| {
            let server = &server;
            let daemon = scope.spawn(move || server.run());
            let mut client =
                ServeClient::connect_retry(&socket, Duration::from_secs(10)).unwrap();

            // Unparseable line.
            let stream = &mut client;
            {
                use std::io::Write as _;
                stream.raw_writer().write_all(b"this is not json\n").unwrap();
            }
            match stream.raw_read_response().unwrap() {
                Response::Error(e) => {
                    assert!(matches!(e.error, ServeError::BadRequest { .. }));
                    assert_eq!(e.id, 0);
                }
                other => panic!("expected error, got {other:?}"),
            }

            // Bad hex in an otherwise valid request.
            match client.request(&Request::Score(ScoreRequest {
                id: 9,
                tenant: "t".to_owned(),
                bytes_hex: "zz".to_owned(),
                deadline_ms: None,
            })) {
                Ok(Response::Error(e)) => {
                    assert_eq!(e.id, 9);
                    assert!(matches!(e.error, ServeError::BadRequest { .. }));
                }
                other => panic!("expected bad-request, got {other:?}"),
            }

            // Reload without a producer: typed error, daemon stays up.
            match client.reload(10).unwrap() {
                Response::Error(e) => assert_eq!(e.id, 10),
                other => panic!("expected error, got {other:?}"),
            }
            assert!(matches!(client.ping(11).unwrap(), Response::Pong { .. }));

            client.shutdown(12).unwrap();
            daemon.join().unwrap().unwrap();
        });
    }

    #[test]
    fn abrupt_client_disconnect_is_counted_not_fatal() {
        let model = ReloadableModel::new(Arc::new(Fixed(0.9)), |_| Err("no".to_owned()));
        let socket = temp_socket("gone");
        let server = Server::new(
            &model,
            ServerConfig { socket: socket.clone(), ..ServerConfig::default() },
        );
        let summary = std::thread::scope(|scope| {
            let server = &server;
            let daemon = scope.spawn(move || server.run());
            // A client that sends a request and vanishes before reading.
            {
                use std::io::Write as _;
                let mut stream = {
                    let give_up = Instant::now() + Duration::from_secs(10);
                    loop {
                        match UnixStream::connect(&socket) {
                            Ok(s) => break s,
                            Err(e) if Instant::now() >= give_up => panic!("no daemon: {e}"),
                            Err(_) => std::thread::sleep(Duration::from_millis(10)),
                        }
                    }
                };
                let line = serde_json::to_string(&Request::Score(ScoreRequest {
                    id: 1,
                    tenant: "ghost".to_owned(),
                    bytes_hex: crate::protocol::encode_hex(b"abc"),
                    deadline_ms: Some(5_000),
                }))
                .unwrap();
                stream.write_all(line.as_bytes()).unwrap();
                stream.write_all(b"\n").unwrap();
                // Hard close without reading the response.
                stream.shutdown(std::net::Shutdown::Both).unwrap();
                drop(stream);
            }
            // The daemon must still serve new clients afterwards.
            let mut client =
                ServeClient::connect_retry(&socket, Duration::from_secs(10)).unwrap();
            let give_up = Instant::now() + Duration::from_secs(30);
            loop {
                match client.stats(2).unwrap() {
                    Response::Stats(stats) if stats.client_gone >= 1 => break,
                    Response::Stats(_) if Instant::now() < give_up => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Response::Stats(stats) => {
                        panic!("client_gone never counted: {stats:?}")
                    }
                    other => panic!("expected stats, got {other:?}"),
                }
            }
            client.shutdown(3).unwrap();
            daemon.join().unwrap().unwrap()
        });
        assert!(summary.client_gone >= 1);
        // The ghost's request was admitted and scored (slot reclaimed,
        // result discarded at write time) or shed at its deadline —
        // either way it is accounted, never leaked.
        assert_eq!(summary.admitted, summary.completed + summary.shed);
    }
}
