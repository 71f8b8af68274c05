//! # gdx-server
//!
//! A high-throughput network front end over warm
//! [`ExchangeSession`](gdx_exchange::ExchangeSession)s: a hand-rolled
//! HTTP/1.1 server (std-only — the workspace builds offline, so there is
//! no tokio/hyper to reach for) exposing the exchange stack's four
//! request shapes as endpoints:
//!
//! * `POST /v1/is_solution` — verify a candidate graph against the
//!   setting's constraints.
//! * `POST /v1/certain` — a Boolean certain-answer verdict
//!   (`certain` / `not_certain` / `unknown`).
//! * `POST /v1/certain_answers` — the full certain-answer set, as JSON
//!   rows or as the compact length-prefixed binary encoding
//!   ([`wire`]) for bulk consumers.
//! * `POST /v1/solutions` — the minimal-solution family, streamed one
//!   solution per HTTP chunk off the lazy
//!   [`SolutionStream`](gdx_exchange::SolutionStream), so the first
//!   solution leaves the socket before the last one is enumerated.
//!
//! Plus `GET /healthz` and `GET /metrics` (text or JSON renderings of
//! the shared [`gdx_obs`] registry).
//!
//! ## Architecture
//!
//! * [`http`] — wire-level HTTP/1.1: request parsing off a `BufRead`,
//!   response/chunked-transfer writing. No allocation-free heroics,
//!   just a strict, bounded, testable parser.
//! * [`wire`] — request/response JSON mapping (over
//!   [`gdx_common::json`]) and the binary certain-answer row encoding.
//! * [`pool`] — the LRU pool of warm sessions keyed by
//!   `(setting text, instance text, options fingerprint)`. A hit skips
//!   parsing, chasing and enumeration memos already paid for by an
//!   earlier request.
//! * [`handler`] — pure request → response-bytes mapping over a
//!   [`ServerState`]; everything deterministic lives here, fully
//!   testable without a socket.
//! * [`net`] — the only file that touches `TcpListener`, threads and
//!   the real clock (each site an `#[expect(clippy::disallowed_methods)]`): accept loop,
//!   bounded admission queue (full ⇒ `429` + `Retry-After`), fixed
//!   worker pool, graceful shutdown.
//!
//! ## Budgets
//!
//! Each request may carry `deadline_ms`; the handler maps it onto
//! [`Options::deadline_micros`](gdx_exchange::Options::deadline_micros)
//! via [`ExchangeSession::set_deadline`](gdx_exchange::ExchangeSession::set_deadline)
//! — measured on the server's injected clock, enforced between
//! enumeration candidates, degrading results to `exact = false` /
//! `unknown` without ever flipping a definite verdict. Library crates
//! stay clock-free: the clock is constructed once, in [`net`].

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod handler;
pub mod http;
pub mod net;
pub mod pool;
pub mod wire;

pub use handler::{handle, ServerState};
pub use net::{monotonic_obs, serve, ServerHandle};
pub use pool::SessionPool;

use gdx_exchange::Options;
use gdx_obs::Obs;
use std::sync::Arc;

/// Everything a server needs to boot. Construct with
/// [`ServerConfig::new`] and override fields directly.
#[derive(Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` picks a free port;
    /// read it back from [`ServerHandle::addr`]).
    pub addr: String,
    /// Connection-serving worker threads.
    pub workers: usize,
    /// Warm-session pool capacity. `0` disables pooling entirely: every
    /// request builds a cold session (the session-per-request baseline).
    pub max_sessions: usize,
    /// Accepted connections waiting for a worker beyond those already
    /// being served. A full queue answers `429 Too Many Requests`.
    pub queue_depth: usize,
    /// Default per-request budget applied when a request does not carry
    /// its own `deadline_ms`. `None` = unbudgeted.
    pub default_deadline_micros: Option<u64>,
    /// Default mapping setting text used when a request omits
    /// `"setting"`.
    pub default_setting: Option<Arc<str>>,
    /// Default source-instance text used when a request omits
    /// `"instance"`.
    pub default_instance: Option<Arc<str>>,
    /// Base solver options; per-request `"options"` overrides layer on
    /// top of these.
    pub base_options: Options,
    /// Shared observability handle — the registry behind
    /// `GET /metrics`, and (via its clock) the deadline time source.
    /// [`net::serve`] defaults this to a `MonotonicClock`-backed handle
    /// when left disabled; inject a `NoopClock`/`VirtualClock` handle
    /// for byte-stable or simulated serving.
    pub obs: Obs,
}

impl ServerConfig {
    /// A config with production-ish defaults on `addr`.
    pub fn new(addr: impl Into<String>) -> ServerConfig {
        ServerConfig {
            addr: addr.into(),
            workers: 4,
            max_sessions: 64,
            queue_depth: 64,
            default_deadline_micros: None,
            default_setting: None,
            default_instance: None,
            base_options: Options::default(),
            obs: Obs::disabled(),
        }
    }
}
