//! The network edge: sockets, threads, the real clock.
//!
//! This is the **only** file in the workspace's library crates allowed
//! to spawn raw threads and construct a wall clock (each site carries an
//! `#[expect(clippy::disallowed_methods, reason = …)]`, mirroring the one
//! in `gdx-obs/clock.rs`): everything behind [`handler::handle`] stays
//! deterministic and clock-free, and this file is the boundary that
//! injects time and concurrency into it.
//!
//! ## Shape
//!
//! One accept thread feeds a bounded queue of accepted connections; a
//! fixed pool of worker threads drains it, each serving keep-alive
//! connections to completion. Admission control happens at accept
//! time: when the queue already holds `queue_depth` connections, the
//! new one is answered `429 Too Many Requests` + `Retry-After: 1` and
//! closed — the server sheds load instead of queueing unboundedly.
//!
//! Shutdown: [`ServerHandle::stop`] raises a flag, wakes the accept
//! loop with a self-connection, nudges the workers off the queue
//! condvar, and joins everything. Workers observing the flag finish
//! their current connection first; idle keep-alive connections are cut
//! by the read timeout.

use crate::handler::{self, ServerState};
use crate::http::{self, ReadOutcome};
use crate::wire;
use crate::ServerConfig;
use gdx_obs::{MonotonicClock, Obs};
use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Keep-alive connections idle longer than this are closed (also the
/// bound on worker-join latency at shutdown).
const IDLE_TIMEOUT: Duration = Duration::from_secs(2);
/// How often queue-waiting workers re-check the stop flag.
const STOP_POLL: Duration = Duration::from_millis(50);
/// How long [`reject_overload`] waits for a shed client's request bytes
/// while draining (bounds accept-loop stall per rejected connection).
const REJECT_DRAIN: Duration = Duration::from_millis(100);

/// An observability handle backed by the real monotonic clock — the
/// server's default time source (deadlines, latency histograms). The
/// one sanctioned construction site outside `gdx-obs` itself.
#[expect(
    clippy::disallowed_methods,
    reason = "the server's process edge injects the real clock"
)]
pub fn monotonic_obs() -> Obs {
    Obs::with_clock(Arc::new(MonotonicClock::new()))
}

/// Bounded hand-off between the accept loop and the workers.
struct Queue {
    inner: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
}

/// A running server: bound address, shared state, join handles.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    stop: Arc<AtomicBool>,
    queue: Arc<Queue>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actually-bound address (resolves `:0` to the picked port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared server state (pool, config, obs) — lets embedders
    /// read metrics without a socket round-trip.
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Graceful shutdown: stop accepting, drain workers, join.
    pub fn stop(mut self) {
        self.shutdown();
    }

    /// Blocks on the accept and worker threads — the foreground mode of
    /// the `gdx serve` binary. Returns only if the accept loop dies
    /// (e.g. the listener breaks), after which the workers are joined
    /// via the normal shutdown path.
    pub fn join(mut self) {
        if let Some(t) = self.accept.take() {
            drop(t.join());
        }
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the accept loop out of `accept()` with a throwaway
        // connection; it checks the flag before serving.
        drop(TcpStream::connect(self.addr));
        self.queue.ready.notify_all();
        if let Some(t) = self.accept.take() {
            drop(t.join());
        }
        for t in self.workers.drain(..) {
            drop(t.join());
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds, spawns the accept loop and `config.workers` workers, and
/// returns immediately. A `config.obs` left disabled is upgraded to a
/// [`monotonic_obs`] handle — inject a `NoopClock`-backed one instead
/// for byte-stable metrics output.
pub fn serve(config: ServerConfig) -> io::Result<ServerHandle> {
    let mut config = config;
    if !config.obs.is_enabled() {
        config.obs = monotonic_obs();
    }
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let worker_count = config.workers.max(1);
    let queue_depth = config.queue_depth.max(1);
    let state = Arc::new(ServerState::new(config));
    let stop = Arc::new(AtomicBool::new(false));
    let queue = Arc::new(Queue {
        inner: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
    });
    let mut workers = Vec::with_capacity(worker_count);
    for _ in 0..worker_count {
        let (state, stop, queue) = (state.clone(), stop.clone(), queue.clone());
        #[expect(
            clippy::disallowed_methods,
            reason = "connection workers block on sockets, which the compute pool must not do"
        )]
        workers.push(std::thread::spawn(move || {
            worker_loop(&state, &stop, &queue)
        }));
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "the accept loop blocks on the listener, which the compute pool must not do"
    )]
    let accept = {
        let (state, stop, queue) = (state.clone(), stop.clone(), queue.clone());
        std::thread::spawn(move || accept_loop(&listener, &state, &stop, &queue, queue_depth))
    };
    Ok(ServerHandle {
        addr,
        state,
        stop,
        queue,
        accept: Some(accept),
        workers,
    })
}

fn accept_loop(
    listener: &TcpListener,
    state: &ServerState,
    stop: &AtomicBool,
    queue: &Queue,
    queue_depth: usize,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        state.obs().incr("server.connections");
        let mut pending = queue.inner.lock().unwrap_or_else(|e| e.into_inner());
        if pending.len() >= queue_depth {
            drop(pending);
            state.obs().incr("server.rejected_429");
            reject_overload(stream);
            continue;
        }
        pending.push_back(stream);
        drop(pending);
        queue.ready.notify_one();
    }
}

/// Answers `429` + `Retry-After` without parsing the request. After the
/// response, the write side is shut down (the client sees EOF at once)
/// and the request bytes are drained, bounded — closing with unread
/// data in the receive buffer would RST the connection and can discard
/// the in-flight `429` before the client reads it.
fn reject_overload(stream: TcpStream) {
    let mut out = BufWriter::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    drop(http::write_response(
        &mut out,
        429,
        "application/json",
        &[("Retry-After", "1"), ("Connection", "close")],
        &wire::error_body("server overloaded: admission queue is full"),
    ));
    drop(out.flush());
    drop(stream.shutdown(std::net::Shutdown::Write));
    if stream.set_read_timeout(Some(REJECT_DRAIN)).is_err() {
        return;
    }
    let mut sink = [0u8; 1024];
    let mut stream = stream;
    let mut drained = 0;
    while drained < http::MAX_HEAD_BYTES + http::MAX_BODY_BYTES {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => return,
            Ok(n) => drained += n,
        }
    }
}

fn worker_loop(state: &ServerState, stop: &AtomicBool, queue: &Queue) {
    loop {
        let stream = {
            let mut pending = queue.inner.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(s) = pending.pop_front() {
                    break s;
                }
                let (guard, _timed_out) = queue
                    .ready
                    .wait_timeout(pending, STOP_POLL)
                    .unwrap_or_else(|e| e.into_inner());
                pending = guard;
            }
        };
        serve_connection(state, stream);
    }
}

/// Serves one keep-alive connection to completion: requests are read
/// and answered in order until the peer closes, asks to close, goes
/// idle past [`IDLE_TIMEOUT`], or sends something unusable.
fn serve_connection(state: &ServerState, stream: TcpStream) {
    if stream.set_read_timeout(Some(IDLE_TIMEOUT)).is_err() {
        return;
    }
    drop(stream.set_nodelay(true));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    loop {
        match http::read_request(&mut reader) {
            Ok(ReadOutcome::Request(req)) => {
                let served = handler::handle(state, &req, &mut writer)
                    .and_then(|()| writer.flush())
                    .is_ok();
                if !served || req.wants_close() {
                    return;
                }
            }
            Ok(ReadOutcome::Closed) => return,
            Ok(ReadOutcome::Bad(msg)) => {
                state.obs().incr("server.bad_requests");
                drop(
                    http::write_response(
                        &mut writer,
                        400,
                        "application/json",
                        &[("Connection", "close")],
                        &wire::error_body(&msg),
                    )
                    .and_then(|()| writer.flush()),
                );
                return;
            }
            Ok(ReadOutcome::TooLarge) => {
                state.obs().incr("server.bad_requests");
                drop(
                    http::write_response(
                        &mut writer,
                        413,
                        "application/json",
                        &[("Connection", "close")],
                        &wire::error_body("request exceeds the size limits"),
                    )
                    .and_then(|()| writer.flush()),
                );
                return;
            }
            // Transport error or idle timeout: the connection is done.
            Err(_) => return,
        }
    }
}
