//! End-to-end tests over real sockets: boot a server, speak HTTP/1.1 to
//! it, compare against the library answers.
//!
//! All servers here inject a `NoopClock`- or test-clock-backed obs
//! handle, so responses and metrics dumps are byte-stable and the
//! deadline tests are deterministic (no real sleeping on the clock
//! path).

use gdx_common::json::{self, Json};
use gdx_exchange::{ExchangeSession, Existence};
use gdx_obs::{Clock, NoopClock, Obs};
use gdx_query::PreparedQuery;
use gdx_relational::Instance;
use gdx_server::wire;
use gdx_server::{serve, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SETTING: &str = "source { Flight/3; Hotel/2 }
target { f; h; g }
sttgd Flight(x1, x2, x3), Hotel(x1, x4)
      -> exists y : (x2, f.f*, y), (y, h, x4), (y, f.f*, x3);
egd (x1, h, x3), (x2, h, x3) -> x1 = x2;
tgd (x, f, y) -> exists z : (y, g, z);";

const INSTANCE: &str = "Flight(01, c1, c2); Flight(02, c3, c2);
Hotel(01, hx); Hotel(01, hy); Hotel(02, hx);";

fn library_session() -> ExchangeSession {
    let setting = gdx_mapping::dsl::parse_setting(SETTING).unwrap();
    let instance = Instance::parse(setting.source.clone(), INSTANCE).unwrap();
    ExchangeSession::new(setting, instance)
}

fn noop_obs() -> Obs {
    Obs::with_clock(Arc::new(NoopClock))
}

fn boot(configure: impl FnOnce(&mut ServerConfig)) -> ServerHandle {
    let mut config = ServerConfig::new("127.0.0.1:0");
    config.default_setting = Some(Arc::from(SETTING));
    config.default_instance = Some(Arc::from(INSTANCE));
    config.obs = noop_obs();
    configure(&mut config);
    serve(config).unwrap()
}

/// One parsed response: status, headers (lower-cased names), body
/// (chunked transfer already decoded).
struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Response {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn json(&self) -> Json {
        json::parse(std::str::from_utf8(&self.body).unwrap()).unwrap()
    }
}

fn read_response(reader: &mut impl BufRead) -> Response {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let status: u16 = line.split(' ').nth(1).unwrap().parse().unwrap();
    let mut headers = Vec::new();
    loop {
        let mut h = String::new();
        reader.read_line(&mut h).unwrap();
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        let (k, v) = h.split_once(':').unwrap();
        headers.push((k.trim().to_ascii_lowercase(), v.trim().to_owned()));
    }
    let chunked = headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v == "chunked");
    let mut body = Vec::new();
    if chunked {
        loop {
            let mut size_line = String::new();
            reader.read_line(&mut size_line).unwrap();
            let size = usize::from_str_radix(size_line.trim(), 16).unwrap();
            let mut chunk = vec![0u8; size + 2]; // data + CRLF
            reader.read_exact(&mut chunk).unwrap();
            if size == 0 {
                break;
            }
            body.extend_from_slice(&chunk[..size]);
        }
    } else if let Some(len) = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok())
    {
        body = vec![0u8; len];
        reader.read_exact(&mut body).unwrap();
    }
    Response {
        status,
        headers,
        body,
    }
}

/// One-shot request on a fresh connection (`Connection: close`).
fn roundtrip(addr: SocketAddr, method: &str, path: &str, body: &str) -> Response {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    read_response(&mut BufReader::new(stream))
}

fn post(addr: SocketAddr, path: &str, fields: Vec<(&str, Json)>) -> Response {
    roundtrip(addr, "POST", path, &json::obj(fields).render())
}

#[test]
fn endpoints_agree_with_the_library() {
    let server = boot(|_| {});
    let addr = server.addr();

    let health = roundtrip(addr, "GET", "/healthz", "");
    assert_eq!(health.status, 200);
    assert_eq!(health.body, b"ok\n");

    // is_solution: a real witness verifies, a junk graph does not.
    let mut lib = library_session();
    let witness = match lib.solution_exists().unwrap() {
        // The library names nulls `~N`, which the edge-list grammar
        // does not accept back; re-name them (`is_solution` is
        // invariant under null renaming).
        Existence::Exists(g) => g.to_string().replace("_~", "_n"),
        other => panic!("expected Exists, got {other:?}"),
    };
    let yes = post(addr, "/v1/is_solution", vec![("graph", json::s(&*witness))]);
    assert_eq!(yes.status, 200, "{:?}", String::from_utf8_lossy(&yes.body));
    assert_eq!(
        yes.json().get("solution").and_then(Json::as_bool),
        Some(true)
    );
    let no = post(
        addr,
        "/v1/is_solution",
        vec![("graph", json::s("(zz, f, qq);"))],
    );
    assert_eq!(
        no.json().get("solution").and_then(Json::as_bool),
        Some(false)
    );

    // certain: verdicts match the library.
    let certain = post(
        addr,
        "/v1/certain",
        vec![("query", json::s(r#"("c1", f.f*, "c2")"#))],
    );
    assert_eq!(
        certain.json().get("verdict").and_then(Json::as_str),
        Some("certain"),
        "{:?}",
        String::from_utf8_lossy(&certain.body)
    );
    let not = post(
        addr,
        "/v1/certain",
        vec![("query", json::s(r#"("zz1", f.f*, "zz2")"#))],
    );
    assert_eq!(
        not.json().get("verdict").and_then(Json::as_str),
        Some("not_certain")
    );
    assert!(not.json().get("counterexample").is_some());

    // certain_answers: JSON and binary agree with the library rows.
    let query = PreparedQuery::parse("(x, f.f*, y)").unwrap();
    let (lib_rows, lib_exact) = lib.certain_answers(&query).unwrap();
    let expect: Vec<Vec<String>> = lib_rows
        .iter()
        .map(|r| r.iter().map(|n| n.name().as_str().to_owned()).collect())
        .collect();
    let ans = post(
        addr,
        "/v1/certain_answers",
        vec![("query", json::s("(x, f.f*, y)"))],
    );
    assert_eq!(ans.status, 200);
    let got: Vec<Vec<String>> = ans
        .json()
        .get("rows")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|row| {
            row.as_array()
                .unwrap()
                .iter()
                .map(|c| c.as_str().unwrap().to_owned())
                .collect()
        })
        .collect();
    assert_eq!(got, expect);
    assert_eq!(
        ans.json().get("exact").and_then(Json::as_bool),
        Some(lib_exact)
    );
    let bin = post(
        addr,
        "/v1/certain_answers",
        vec![
            ("query", json::s("(x, f.f*, y)")),
            ("format", json::s("binary")),
        ],
    );
    assert_eq!(bin.header("content-type"), Some("application/x-gdx-rows"));
    assert_eq!(wire::decode_rows(&bin.body).unwrap(), (expect, lib_exact));

    // solutions: streamed family matches the library's.
    let lib_count = library_session().solutions().unwrap().fold(0, |acc, g| {
        g.unwrap();
        acc + 1
    });
    let stream = post(addr, "/v1/solutions", Vec::new());
    assert_eq!(stream.status, 200);
    assert_eq!(stream.header("transfer-encoding"), Some("chunked"));
    let lines: Vec<Json> = std::str::from_utf8(&stream.body)
        .unwrap()
        .lines()
        .map(|l| json::parse(l).unwrap())
        .collect();
    let (solutions, summary) = lines.split_at(lines.len() - 1);
    assert_eq!(solutions.len(), lib_count);
    assert!(solutions.iter().all(|l| l.get("solution").is_some()));
    assert_eq!(summary[0].get("done").and_then(Json::as_bool), Some(true));
    assert_eq!(summary[0].get_u64("count"), Some(lib_count as u64));

    // A limited stream stops early and still terminates cleanly.
    let limited = post(addr, "/v1/solutions", vec![("limit", json::n(1))]);
    let limited_lines: Vec<&str> = std::str::from_utf8(&limited.body)
        .unwrap()
        .lines()
        .collect();
    assert_eq!(limited_lines.len(), 2, "{limited_lines:?}");

    server.stop();
}

#[test]
fn protocol_errors_are_typed() {
    let server = boot(|_| {});
    let addr = server.addr();

    assert_eq!(roundtrip(addr, "GET", "/nope", "").status, 404);
    assert_eq!(roundtrip(addr, "GET", "/v1/certain", "").status, 405);
    assert_eq!(
        roundtrip(addr, "POST", "/v1/certain", "{not json").status,
        400
    );
    assert_eq!(
        post(addr, "/v1/certain", vec![("query", json::s("(x, f*"))]).status,
        400,
        "query parse errors are the client's fault"
    );
    assert_eq!(
        post(addr, "/v1/certain", Vec::new()).status,
        400,
        "missing query"
    );
    assert_eq!(
        post(
            addr,
            "/v1/certain",
            vec![
                ("query", json::s(r#"("c1", f.f*, "c2")"#)),
                ("options", json::obj(vec![("typo_knob", json::n(3))])),
            ],
        )
        .status,
        400,
        "unknown options must not silently run with defaults"
    );

    // A malformed request line gets 400 and a close.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"garbage\r\n\r\n").unwrap();
    let got = read_response(&mut BufReader::new(stream));
    assert_eq!(got.status, 400);

    // An oversized declared body is shed before it is buffered.
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "POST /v1/certain HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n"
    )
    .unwrap();
    let got = read_response(&mut BufReader::new(stream));
    assert_eq!(got.status, 413);

    // No default setting and none in the request: a clean 400.
    let bare = {
        let mut config = ServerConfig::new("127.0.0.1:0");
        config.obs = noop_obs();
        serve(config).unwrap()
    };
    let got = post(
        bare.addr(),
        "/v1/certain",
        vec![("query", json::s(r#"("c1", f.f*, "c2")"#))],
    );
    assert_eq!(got.status, 400);
    assert!(
        String::from_utf8_lossy(&got.body).contains("setting"),
        "{:?}",
        String::from_utf8_lossy(&got.body)
    );
    bare.stop();
    server.stop();
}

#[test]
fn metrics_dumps_are_byte_stable() {
    let server = boot(|_| {});
    let addr = server.addr();
    // Drive traffic so the registry is non-trivial.
    for _ in 0..2 {
        post(
            addr,
            "/v1/certain",
            vec![("query", json::s(r#"("c1", f.f*, "c2")"#))],
        );
    }
    // All four dumps ride one keep-alive connection: a fresh connection
    // per dump would bump `server.connections` between them, which is
    // real traffic, not dump nondeterminism.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut get = |path: &str| {
        write!(
            stream,
            "GET {path} HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n"
        )
        .unwrap();
        read_response(&mut reader)
    };
    let a = get("/metrics");
    let b = get("/metrics");
    assert_eq!(a.status, 200);
    assert!(!a.body.is_empty());
    assert_eq!(
        a.body, b.body,
        "sequential dumps with no traffic in between must be byte-identical"
    );
    let aj = get("/metrics?format=json");
    let bj = get("/metrics?format=json");
    assert_eq!(aj.body, bj.body);
    json::parse(std::str::from_utf8(&aj.body).unwrap()).unwrap();
    assert!(
        String::from_utf8_lossy(&a.body).contains("server.certain.requests"),
        "{}",
        String::from_utf8_lossy(&a.body)
    );
    assert_eq!(
        roundtrip(addr, "GET", "/metrics?format=xml", "").status,
        400
    );
    server.stop();
}

#[test]
fn keep_alive_serves_sequential_requests() {
    let server = boot(|_| {});
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let body = json::obj(vec![("query", json::s(r#"("c1", f.f*, "c2")"#))]).render();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut first_bytes = None;
    for _ in 0..2 {
        write!(
            stream,
            "POST /v1/certain HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let got = read_response(&mut reader);
        assert_eq!(got.status, 200);
        match &first_bytes {
            None => first_bytes = Some(got.body.clone()),
            Some(prev) => assert_eq!(
                prev, &got.body,
                "a warm repeat on the same connection must be byte-identical"
            ),
        }
    }
    server.stop();
}

#[test]
fn overload_sheds_with_429_and_retry_after() {
    let server = boot(|c| {
        c.workers = 1;
        c.queue_depth = 1;
    });
    let addr = server.addr();
    // Occupy the single worker, then the single queue slot, with idle
    // connections (the worker blocks reading their first request).
    let _holder_worker = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    let _holder_queue = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    let got = roundtrip(addr, "GET", "/healthz", "");
    assert_eq!(got.status, 429);
    assert_eq!(got.header("retry-after"), Some("1"));
    assert!(String::from_utf8_lossy(&got.body).contains("overloaded"));
    // Freeing the holders restores service.
    drop(_holder_worker);
    drop(_holder_queue);
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(roundtrip(addr, "GET", "/healthz", "").status, 200);
    server.stop();
}

/// Every read advances virtual time, so any per-request budget expires
/// at the first between-candidates check — deterministic deadline
/// testing without real sleeps.
#[derive(Debug, Default)]
struct TickingClock(AtomicU64);

impl Clock for TickingClock {
    fn now_micros(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed)
    }
}

#[test]
fn deadlines_degrade_to_inexact_and_resume_on_the_warm_session() {
    let server = boot(|c| {
        c.obs = Obs::with_clock(Arc::new(TickingClock::default()));
    });
    let addr = server.addr();
    let budgeted = post(
        addr,
        "/v1/certain_answers",
        vec![
            ("query", json::s("(x, f.f*, y)")),
            ("deadline_ms", json::n(0)),
        ],
    );
    assert_eq!(budgeted.status, 200);
    assert_eq!(
        budgeted.json().get("exact").and_then(Json::as_bool),
        Some(false),
        "a spent budget must withdraw exactness: {}",
        String::from_utf8_lossy(&budgeted.body)
    );
    // Same warm session, no budget: the enumeration resumes and the
    // answers match the library.
    let full = post(
        addr,
        "/v1/certain_answers",
        vec![("query", json::s("(x, f.f*, y)"))],
    );
    let query = PreparedQuery::parse("(x, f.f*, y)").unwrap();
    let (lib_rows, lib_exact) = library_session().certain_answers(&query).unwrap();
    let expect: Vec<Vec<String>> = lib_rows
        .iter()
        .map(|r| r.iter().map(|n| n.name().as_str().to_owned()).collect())
        .collect();
    let got: Vec<Vec<String>> = full
        .json()
        .get("rows")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|row| {
            row.as_array()
                .unwrap()
                .iter()
                .map(|c| c.as_str().unwrap().to_owned())
                .collect()
        })
        .collect();
    assert_eq!(got, expect);
    assert_eq!(
        full.json().get("exact").and_then(Json::as_bool),
        Some(lib_exact)
    );
    // A budgeted definite verdict stays definite: the counterexample
    // pool survives the pause.
    let not = post(
        addr,
        "/v1/certain",
        vec![
            ("query", json::s(r#"("zz1", f.f*, "zz2")"#)),
            ("deadline_ms", json::n(0)),
        ],
    );
    assert_eq!(
        not.json().get("verdict").and_then(Json::as_str),
        Some("not_certain"),
        "{}",
        String::from_utf8_lossy(&not.body)
    );
    server.stop();
}

/// The warm pool's reason to exist, pinned on work counters rather than
/// wall clock: K repeat requests on a pooled server are served by one
/// session (one miss, then hits) whose s-t chase runs once, while a
/// `max_sessions = 0` server builds and chases a fresh session per
/// request.
#[test]
fn warm_pool_chases_once_and_cold_server_chases_per_request() {
    const K: u64 = 6;
    let requests = [
        ("/v1/certain", r#"("c1", f.f*, "c2")"#),
        ("/v1/certain_answers", "(x, f.f*, y)"),
    ];
    let drive = |cold: bool| {
        let obs = noop_obs();
        let server = boot(|c| {
            if cold {
                c.max_sessions = 0;
            }
            c.obs = obs.clone();
        });
        let mut bodies: Vec<Vec<u8>> = Vec::new();
        for i in 0..K as usize {
            let (path, query) = requests[i % requests.len()];
            let got = post(server.addr(), path, vec![("query", json::s(query))]);
            assert_eq!(got.status, 200, "{}", String::from_utf8_lossy(&got.body));
            bodies.push(got.body);
        }
        server.stop();
        let registry = obs.registry().unwrap();
        let st_chases = registry
            .snapshot()
            .histograms
            .iter()
            .find(|(name, _)| *name == "session.phase.st_chase_us")
            .map_or(0, |(_, h)| h.count);
        let pool = |name: &str| registry.counter(name);
        (
            [
                pool("server.pool.hits"),
                pool("server.pool.misses"),
                pool("server.pool.bypass"),
            ],
            st_chases,
            bodies,
        )
    };

    let (warm_pool, warm_chases, warm_bodies) = drive(false);
    assert_eq!(warm_pool, [K - 1, 1, 0], "warm [hits, misses, bypass]");
    assert_eq!(warm_chases, 1, "a warm session chases once");

    let (cold_pool, cold_chases, cold_bodies) = drive(true);
    assert_eq!(cold_pool, [0, 0, K], "cold [hits, misses, bypass]");
    assert_eq!(cold_chases, K, "a cold server chases per request");

    assert_eq!(warm_bodies, cold_bodies, "pooling must not change answers");
}
