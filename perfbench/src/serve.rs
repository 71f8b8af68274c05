//! `serve`: the in-process `gdx-server` (2 workers, warm session pool)
//! under a closed loop of 2 keep-alive clients. Each client cycles through
//! a fixed 48-request round: 47 requests over its own two pooled "hit"
//! instances — `is_solution`, `certain`, `certain_answers` as JSON and
//! binary, streamed `solutions` — then one carrying one of its own share
//! of eight "miss" instances, more than the pool's spare slots hold, so
//! the miss set churns the LRU while the hit set stays resident.
//!
//! The hit list holds two cheap `certain` requests, one `solutions`, five
//! `is_solution` and three `certain_answers`, so the median request is an
//! `is_solution` from the middle of its cluster rather than a point
//! between two cost clusters. The miss instances are renamed copies of
//! one generated instance: distinct pool keys, equal cost, so the tail
//! does not depend on which copy is slowest.

use crate::harness::{self, closed_loop, failed, Sample, PROGRESS};
use crate::inputs;
use crate::stats::Report;
use crate::trace::Layers;
use gdx_common::json::{self, Json};
use gdx_server::http::{self, ReadOutcome};
use gdx_server::{handler, serve, ServerConfig, ServerHandle, ServerState};
use std::io::{self, BufRead, BufReader, Cursor, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Pool capacity: the four hit sessions plus two slots the misses churn.
const MAX_SESSIONS: usize = 6;
/// Candidate-family cap of the served sessions.
const MAX_GRAPHS: usize = 32;
/// Two hit instances per client: clients never share a session, so a
/// request never waits for the other client's request on the session
/// mutex (which would make latency depend on how the clients drift).
const HIT_INSTANCES: u64 = 2 * CLIENTS as u64;
const HIT_FLIGHTS: usize = 30;
/// Miss instances, split evenly between the running clients.
const MISS_INSTANCES: usize = 8;
const MISS_FLIGHTS: usize = 40;
/// Distinct hit requests per client.
const HITS: usize = 11;
/// Requests per client round: 47 hits (the hit list over and over),
/// then one miss. Misses are rare, so the 11th largest latency of a run
/// falls inside the miss cluster rather than at its extreme edge.
const ROUND: usize = 48;

/// One distinct request: its metric name, wire bytes and the response
/// the server must send back.
struct Req {
    endpoint: &'static str,
    bytes: Vec<u8>,
    expected: Vec<u8>,
}

pub struct Serve {
    server: ServerHandle,
    /// The in-process mirror: same configuration, its own pool.
    mirror: ServerState,
    /// Each client's eleven hit requests in round order, then the miss
    /// requests.
    reqs: Vec<Req>,
}

fn config(setting: &str) -> ServerConfig {
    let mut config = ServerConfig::new("127.0.0.1:0");
    config.workers = WORKERS;
    config.max_sessions = MAX_SESSIONS;
    config.queue_depth = 64;
    config.default_setting = Some(setting.into());
    config.base_options = inputs::options(MAX_GRAPHS);
    config
}

fn post(path: &str, fields: Vec<(&str, Json)>) -> Vec<u8> {
    let body = json::obj(fields).render();
    format!(
        "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Runs one request through the in-process handler.
fn handle_in_process(state: &ServerState, bytes: &[u8]) -> io::Result<Vec<u8>> {
    let ReadOutcome::Request(req) = http::read_request(&mut Cursor::new(bytes))? else {
        return Err(io::Error::other("request bytes do not parse"));
    };
    let mut out = Vec::new();
    handler::handle(state, &req, &mut out)?;
    Ok(out)
}

impl Serve {
    /// Generates the instances and requests, records each request's
    /// expected response from a pool-less in-process server (every
    /// request answered by a fresh session), boots the server and warms
    /// its pool (and the mirror's) with the hit set.
    pub fn new(seed: u64) -> Serve {
        let setting = inputs::setting_egd().to_string();
        let hit: Vec<String> = (0..HIT_INSTANCES)
            .map(|k| inputs::flights_instance(seed, k, HIT_FLIGHTS).to_string())
            .collect();
        // A known solution of each hit instance, for `is_solution`. Nulls
        // print as `_~N`; the graph syntax spells a null `_name`.
        let witness: Vec<String> = (0..HIT_INSTANCES)
            .map(|k| {
                let inst = inputs::flights_instance(seed, k, HIT_FLIGHTS);
                let (graphs, _) =
                    inputs::family(&inputs::setting_egd(), &inst, inputs::options(MAX_GRAPHS));
                let g = graphs.first().expect("the instance has a solution");
                g.to_string().replace("_~", "_n")
            })
            .collect();
        let s = |t: &str| json::s(t);
        let inst = |k: usize| ("instance", s(&hit[k]));
        let certain =
            |k: usize, query: &str| post("/v1/certain", vec![inst(k), ("query", s(query))]);
        let answers =
            |k: usize, query: &str| post("/v1/certain_answers", vec![inst(k), ("query", s(query))]);
        let binary = |k: usize, query: &str| {
            post(
                "/v1/certain_answers",
                vec![inst(k), ("query", s(query)), ("format", s("binary"))],
            )
        };
        let is_solution =
            |k: usize| post("/v1/is_solution", vec![inst(k), ("graph", s(&witness[k]))]);
        // Client `c`'s round over its instances `a = 2c` and `b = 2c + 1`.
        let mut wire = Vec::new();
        for c in 0..CLIENTS {
            let (a, b) = (2 * c, 2 * c + 1);
            wire.extend([
                ("is_solution", is_solution(a)),
                ("certain", certain(a, "(\"city1\", f.f*, \"city2\")")),
                ("certain_answers", answers(b, "(x, f.f*, y)")),
                ("is_solution", is_solution(b)),
                ("certain_answers_bin", binary(a, inputs::PAPER_QUERY)),
                ("is_solution", is_solution(a)),
                (
                    "solutions",
                    post("/v1/solutions", vec![inst(b), ("limit", json::n(4))]),
                ),
                ("is_solution", is_solution(b)),
                (
                    "certain",
                    certain(b, "(\"city3\", f.f*.[h].f-.(f-)*, \"city4\")"),
                ),
                ("certain_answers", answers(a, inputs::PAPER_QUERY)),
                ("is_solution", is_solution(a)),
            ]);
        }
        // Renamed copies of one instance: `fl3` becomes `m2fl3`, and so on.
        let miss = inputs::flights_instance(seed, 100, MISS_FLIGHTS).to_string();
        for m in 0..MISS_INSTANCES {
            let text = miss
                .replace("(fl", &format!("(m{m}fl"))
                .replace(", city", &format!(", m{m}city"))
                .replace(", hotel", &format!(", m{m}hotel"));
            wire.push((
                "certain_answers",
                post(
                    "/v1/certain_answers",
                    vec![("instance", s(&text)), ("query", s(inputs::PAPER_QUERY))],
                ),
            ));
        }
        let mut cold = config(&setting);
        cold.max_sessions = 0;
        let cold = ServerState::new(cold);
        let reqs: Vec<Req> = wire
            .into_iter()
            .map(|(endpoint, bytes)| {
                let expected = handle_in_process(&cold, &bytes).expect("in-process request");
                assert!(
                    expected.starts_with(b"HTTP/1.1 200 "),
                    "expected response of {endpoint} is not 200: {}",
                    String::from_utf8_lossy(&expected)
                );
                Req {
                    endpoint,
                    bytes,
                    expected,
                }
            })
            .collect();
        let server = serve(config(&setting)).expect("bind the benchmark server");
        let mirror = ServerState::new(config(&setting));
        let mut client = Client::connect(server.addr()).expect("connect");
        for req in &reqs[..CLIENTS * HITS] {
            client.round_trip(&req.bytes).expect("warm-up request");
            handle_in_process(&mirror, &req.bytes).expect("warm-up request");
        }
        Serve {
            server,
            mirror,
            reqs,
        }
    }

    /// The request of client `c`'s op `i` when `clients` clients run.
    /// Client `c` runs the round shifted by half a round per client, so
    /// the two clients' misses start half a round apart instead of in step.
    fn request(&self, c: usize, clients: usize, i: usize) -> &Req {
        let slot = (i + c * (ROUND / 2)) % ROUND;
        if slot == ROUND - 1 {
            // The miss instances are split between the running clients,
            // each cycling its own share: the clients drift apart, so
            // shared ones would sometimes hit the pool. With two clients a
            // miss instance comes back after three of its client's other
            // misses, more than the pool's two spare slots hold. A lone
            // client (the traced half) cycles all eight, more than the
            // four slots it has once the idle client's sessions are gone.
            let per_client = MISS_INSTANCES / clients;
            let m = c * per_client + (i / ROUND) % per_client;
            &self.reqs[CLIENTS * HITS + m]
        } else {
            &self.reqs[c * HITS + slot % HITS]
        }
    }

    fn pool_counter(&self, name: &str) -> f64 {
        let obs = self.server.state().obs();
        obs.registry().map_or(0.0, |r| r.counter(name) as f64)
    }
}

/// A keep-alive client connection.
struct Client {
    addr: SocketAddr,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            addr,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request and reads the whole response, reconnecting once
    /// if the server closed the idle connection.
    fn round_trip(&mut self, request: &[u8]) -> io::Result<Vec<u8>> {
        match self.try_round_trip(request) {
            Ok(r) => Ok(r),
            Err(_) => {
                *self = Client::connect(self.addr)?;
                self.try_round_trip(request)
            }
        }
    }

    fn try_round_trip(&mut self, request: &[u8]) -> io::Result<Vec<u8>> {
        self.reader.get_mut().write_all(request)?;
        read_response(&mut self.reader)
    }
}

/// Reads one HTTP/1.1 response (fixed length or chunked), returning its
/// raw bytes.
fn read_response(r: &mut impl BufRead) -> io::Result<Vec<u8>> {
    let mut raw = Vec::new();
    let mut content_length = None;
    let mut chunked = false;
    loop {
        let mut line = Vec::new();
        if r.read_until(b'\n', &mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        raw.extend_from_slice(&line);
        if line == b"\r\n" {
            break;
        }
        let text = String::from_utf8_lossy(&line).to_ascii_lowercase();
        if let Some(v) = text.strip_prefix("content-length:") {
            content_length = v.trim().parse::<usize>().ok();
        }
        if text.starts_with("transfer-encoding:") && text.contains("chunked") {
            chunked = true;
        }
    }
    if chunked {
        loop {
            let mut size_line = Vec::new();
            r.read_until(b'\n', &mut size_line)?;
            raw.extend_from_slice(&size_line);
            let size = usize::from_str_radix(String::from_utf8_lossy(&size_line).trim(), 16)
                .map_err(|_| io::Error::other("bad chunk size"))?;
            let mut chunk = vec![0; size + 2];
            r.read_exact(&mut chunk)?;
            raw.extend_from_slice(&chunk);
            if size == 0 {
                return Ok(raw);
            }
        }
    }
    let mut body = vec![0; content_length.unwrap_or(0)];
    r.read_exact(&mut body)?;
    raw.extend_from_slice(&body);
    Ok(raw)
}

/// `CLIENTS` closed-loop clients for `seconds` after `warmup_s`, each on
/// its own keep-alive connection, joined before returning.
fn load(fx: &Serve, warmup_s: f64, seconds: f64) -> Sample {
    let per_client: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(fx.server.addr()).expect("connect");
                    closed_loop(warmup_s, seconds, ROUND, |i, lap| {
                        let req = fx.request(c, CLIENTS, i);
                        let resp = client.round_trip(&req.bytes);
                        lap.stop();
                        match resp {
                            Ok(r) => r == req.expected || failed("response check", &req.endpoint),
                            Err(e) => failed("request", &e),
                        }
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread ends cleanly"))
            .collect()
    });
    let mut sample = Sample::default();
    for s in per_client {
        sample.wall_s = sample.wall_s.max(s.wall_s);
        sample.merge(s);
    }
    sample
}

/// One traced request: parse it as the server does, answer it through
/// the in-process handler, then over the socket; both answers must equal
/// the expected response. `server.net_ms` is the socket round trip minus
/// the in-process handling time.
fn traced_request(fx: &Serve, client: &mut Client, i: usize, layers: &mut Layers) -> bool {
    let req = fx.request(0, 1, i);
    let t = Instant::now();
    let parsed = http::read_request(&mut Cursor::new(&req.bytes[..]));
    layers.add("server.parse_us", t.elapsed().as_secs_f64() * 1e3);
    let Ok(ReadOutcome::Request(parsed)) = parsed else {
        return failed("traced parse", &req.endpoint);
    };
    let t = Instant::now();
    let mut in_process = Vec::new();
    let handled = handler::handle(&fx.mirror, &parsed, &mut in_process);
    let handle_ms = t.elapsed().as_secs_f64() * 1e3;
    layers.add("server.handle_ms", handle_ms);
    let (sum, count) = endpoint_keys(req.endpoint);
    layers.add(sum, handle_ms);
    layers.add(count, 1.0);
    let t = Instant::now();
    let over_socket = client.round_trip(&req.bytes);
    layers.add("server.net_ms", t.elapsed().as_secs_f64() * 1e3 - handle_ms);
    match (handled, over_socket) {
        (Ok(()), Ok(resp)) => {
            (resp == in_process && resp == req.expected)
                || failed("traced response check", &req.endpoint)
        }
        (Err(e), _) | (_, Err(e)) => failed("traced request", &e),
    }
}

/// The layer keys summing one endpoint's handling time and request count.
fn endpoint_keys(endpoint: &str) -> (&'static str, &'static str) {
    match endpoint {
        "is_solution" => (
            "server.is_solution.handle_sum",
            "server.is_solution.requests",
        ),
        "certain" => ("server.certain.handle_sum", "server.certain.requests"),
        "certain_answers" => (
            "server.certain_answers.handle_sum",
            "server.certain_answers.requests",
        ),
        "certain_answers_bin" => (
            "server.certain_answers_bin.handle_sum",
            "server.certain_answers_bin.requests",
        ),
        _ => ("server.solutions.handle_sum", "server.solutions.requests"),
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    if !trace {
        let (fx, setup_s) = harness::timed_setup(3, || Serve::new(seed));
        let sample = load(&fx, harness::WARMUP_S, seconds);
        fx.server.stop();
        return Report {
            correct: sample.ok == sample.attempted,
            attempted: sample.attempted,
            failed: sample.attempted - sample.ok,
            metrics: harness::end_to_end(&setup_s, &sample),
        };
    }
    let fx = Serve::new(seed);
    PROGRESS.beat();
    let untraced = load(&fx, 0.0, seconds / 2.0);
    let mut layers = Layers::default();
    let hits0 = fx.pool_counter("server.pool.hits");
    let misses0 = fx.pool_counter("server.pool.misses");
    let evictions0 = fx.pool_counter("server.pool.evictions");
    let mut client = Client::connect(fx.server.addr()).expect("connect");
    let traced = closed_loop(0.0, seconds / 2.0, ROUND, |i, lap| {
        let ok = traced_request(&fx, &mut client, i, &mut layers);
        lap.stop();
        ok
    });
    drop(client);
    let hits = fx.pool_counter("server.pool.hits") - hits0;
    let misses = fx.pool_counter("server.pool.misses") - misses0;
    layers.add("server.pool_hits", hits);
    layers.add("server.pool_lookups", hits + misses);
    layers.add(
        "server.pool_evictions",
        fx.pool_counter("server.pool.evictions") - evictions0,
    );
    // A traced request is a parse, an in-process handling and a socket
    // round trip (the server's own handling plus `server.net_ms`).
    let traced_ms: f64 = traced.latencies_ms.iter().sum();
    let parse_ms = layers.get("server.parse_us");
    let handle_ms = layers.get("server.handle_ms");
    let server_ms = parse_ms + 2.0 * handle_ms + layers.get("server.net_ms");
    layers.set("trace.layer_share", server_ms / traced_ms.max(1e-9));
    // A traced request does its work twice (in process and over the
    // socket), so the overhead compares it with one untraced request.
    let overhead =
        crate::stats::median(&traced.latencies_ms) - crate::stats::median(&untraced.latencies_ms);
    layers.set("trace.overhead_ms", overhead);
    fx.server.stop();
    harness::finish_traced(untraced, traced, &layers)
}
