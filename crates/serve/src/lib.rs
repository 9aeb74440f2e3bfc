//! # mpass-serve — the persistent scoring daemon
//!
//! Promotes the one-shot `mpass score` path into a long-lived service:
//! a Unix-domain-socket daemon speaking a line-delimited JSON protocol,
//! coalescing scoring requests across connections through the engine's
//! `BatchScheduler`, and — because a service for "millions of users"
//! lives or dies on its worst day — built around four robustness
//! properties:
//!
//! * **Admission control** ([`admission`]) — per-tenant token-bucket
//!   rate limits, delivered-verdict query budgets (`HardLabelTarget`
//!   semantics), and per-tenant circuit breakers, so one abusive client
//!   degrades alone.
//! * **Overload shedding** ([`server`]) — a bounded scoring queue that
//!   refuses with a typed [`protocol::ServeError::Overloaded`], plus
//!   per-request deadlines enforced *before* scoring, keeping admitted
//!   p99 latency bounded under sustained overload.
//! * **Hot model reload** ([`target`]) — an atomic epoch/`Arc` model
//!   swap driven by the protocol's `reload` command; in-flight batches
//!   finish on their snapshot, zero requests dropped.
//! * **Graceful shutdown** — SIGTERM or the `shutdown` command drains
//!   in-flight work, rejects new connections, and flushes p50/p99 +
//!   throughput into the engine's metrics sink.
//!
//! Built entirely on std threads and `std::os::unix::net` — the
//! workspace's dependencies are vendored shims, so there is no async
//! runtime to lean on, and none is needed: connection handlers are
//! cheap blocking threads, and the scheduler provides the batching.

pub mod admission;
pub mod client;
pub mod protocol;
pub mod server;
pub mod stats;
pub mod target;

pub use admission::{AdmissionControl, AdmissionError, TenantPolicy};
pub use client::ServeClient;
pub use protocol::{
    decode_hex, encode_hex, ErrorResponse, Request, Response, ScoreRequest, ScoreResponse,
    ServeError, StatsResponse,
};
pub use server::{run_with_sigterm, sigterm_received, ServeSummary, Server, ServerConfig};
pub use stats::ServeStats;
pub use target::{ReloadableModel, ScoredVerdict, ServeTarget};
