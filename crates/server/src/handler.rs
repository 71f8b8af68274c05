//! Request dispatch: a pure `(ServerState, Request) → response bytes`
//! mapping, fully testable without a socket.
//!
//! Everything deterministic about the server lives here. Responses
//! carry no timestamps and no per-connection state, so the same request
//! against the same state serializes to the same bytes at any worker
//! count — `tests/parallel_determinism.rs` pins that end to end.
//!
//! `GET /metrics` and `GET /healthz` are deliberately *not* recorded in
//! the metrics they expose: two sequential dumps with no traffic in
//! between are byte-identical (pinned by the e2e tests).

use crate::http::{self, Request};
use crate::pool::{SessionKey, SessionPool};
use crate::wire;
use crate::ServerConfig;
use gdx_common::json::{self, Json};
use gdx_common::GdxError;
use gdx_exchange::{CertainAnswer, ExchangeSession, Options};
use gdx_graph::Graph;
use gdx_query::{PlannerMode, PreparedQuery};
use gdx_runtime::Threads;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

/// Shared, immutable-per-boot server state: configuration plus the
/// warm-session pool. One value, shared by every worker.
pub struct ServerState {
    pub config: ServerConfig,
    pub pool: SessionPool,
}

impl ServerState {
    pub fn new(config: ServerConfig) -> ServerState {
        let pool = SessionPool::new(config.max_sessions, config.obs.clone());
        ServerState { config, pool }
    }

    /// The shared observability handle.
    pub fn obs(&self) -> &gdx_obs::Obs {
        &self.config.obs
    }
}

/// Routes one parsed request and writes a complete HTTP response (fixed
/// or chunked) to `out`. `Err` only for transport failures on `out`.
pub fn handle(state: &ServerState, req: &Request, out: &mut dyn Write) -> io::Result<()> {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => http::write_response(out, 200, "text/plain", &[], b"ok\n"),
        ("GET", "/metrics") => metrics(state, req, out),
        ("POST", "/v1/is_solution") => timed(state, &IS_SOLUTION, req, out, is_solution),
        ("POST", "/v1/certain") => timed(state, &CERTAIN, req, out, certain),
        ("POST", "/v1/certain_answers") => {
            timed(state, &CERTAIN_ANSWERS, req, out, certain_answers)
        }
        ("POST", "/v1/solutions") => timed(state, &SOLUTIONS, req, out, solutions),
        (
            _,
            "/healthz"
            | "/metrics"
            | "/v1/is_solution"
            | "/v1/certain"
            | "/v1/certain_answers"
            | "/v1/solutions",
        ) => http::write_response(
            out,
            405,
            "application/json",
            &[],
            &wire::error_body("method not allowed"),
        ),
        _ => http::write_response(
            out,
            404,
            "application/json",
            &[],
            &wire::error_body("no such endpoint"),
        ),
    }
}

/// Static metric names for one endpoint (`gdx-obs` names are
/// `&'static str` by contract).
struct Endpoint {
    span: &'static str,
    requests: &'static str,
    errors: &'static str,
    latency_us: &'static str,
}

const IS_SOLUTION: Endpoint = Endpoint {
    span: "server.is_solution",
    requests: "server.is_solution.requests",
    errors: "server.is_solution.errors",
    latency_us: "server.is_solution.latency_us",
};
const CERTAIN: Endpoint = Endpoint {
    span: "server.certain",
    requests: "server.certain.requests",
    errors: "server.certain.errors",
    latency_us: "server.certain.latency_us",
};
const CERTAIN_ANSWERS: Endpoint = Endpoint {
    span: "server.certain_answers",
    requests: "server.certain_answers.requests",
    errors: "server.certain_answers.errors",
    latency_us: "server.certain_answers.latency_us",
};
const SOLUTIONS: Endpoint = Endpoint {
    span: "server.solutions",
    requests: "server.solutions.requests",
    errors: "server.solutions.errors",
    latency_us: "server.solutions.latency_us",
};

/// Counts, times and spans an endpoint call around `f` (which writes
/// the full response and reports the status it chose).
fn timed(
    state: &ServerState,
    ep: &Endpoint,
    req: &Request,
    out: &mut dyn Write,
    f: fn(&ServerState, &Request, &mut dyn Write) -> io::Result<u16>,
) -> io::Result<()> {
    let obs = state.obs();
    let start = obs.now_micros();
    let status = {
        let _span = obs.span(ep.span);
        obs.incr(ep.requests);
        f(state, req, out)?
    };
    if status >= 400 {
        obs.incr(ep.errors);
    }
    obs.observe(ep.latency_us, obs.now_micros().saturating_sub(start));
    Ok(())
}

fn metrics(state: &ServerState, req: &Request, out: &mut dyn Write) -> io::Result<()> {
    let obs = state.obs();
    match req.query_param("format") {
        Some("json") => http::write_response(
            out,
            200,
            "application/json",
            &[],
            obs.render_metrics_json().as_bytes(),
        ),
        None | Some("text") => http::write_response(
            out,
            200,
            "text/plain",
            &[],
            obs.render_metrics_text().as_bytes(),
        ),
        Some(other) => http::write_response(
            out,
            400,
            "application/json",
            &[],
            &wire::error_body(&format!("unknown metrics format {other:?}")),
        ),
    }
}

/// A handler-level failure: HTTP status + message.
struct ApiError {
    status: u16,
    msg: String,
}

fn bad(msg: impl Into<String>) -> ApiError {
    ApiError {
        status: 400,
        msg: msg.into(),
    }
}

impl From<GdxError> for ApiError {
    fn from(e: GdxError) -> ApiError {
        let status = match e {
            // The request itself was unacceptable.
            GdxError::Parse { .. } | GdxError::Schema(_) | GdxError::Unsupported(_) => 400,
            // The server could not complete an acceptable request.
            GdxError::LimitExceeded(_) | GdxError::Internal(_) => 500,
        };
        ApiError {
            status,
            msg: e.to_string(),
        }
    }
}

/// Everything a solver endpoint needs: the (possibly pooled) session
/// and the parsed request body.
struct Prepared {
    session: Arc<Mutex<ExchangeSession>>,
    deadline_micros: Option<u64>,
    body: Json,
}

/// Parses the body, resolves setting/instance/options against the
/// server defaults and checks the session out of the pool.
fn prepare(state: &ServerState, req: &Request) -> Result<Prepared, ApiError> {
    let text = std::str::from_utf8(&req.body).map_err(|_| bad("body is not UTF-8"))?;
    let body = if text.trim().is_empty() {
        Json::Object(Vec::new())
    } else {
        json::parse(text).map_err(|e| bad(format!("body is not valid JSON: {e}")))?
    };
    if !matches!(body, Json::Object(_)) {
        return Err(bad("body must be a JSON object"));
    }
    let field_text = |name: &str, default: &Option<Arc<str>>| -> Result<Arc<str>, ApiError> {
        match body.get(name) {
            Some(Json::String(s)) => Ok(Arc::from(s.as_str())),
            Some(_) => Err(bad(format!("\"{name}\" must be a string"))),
            None => default.clone().ok_or_else(|| {
                bad(format!(
                    "no \"{name}\" in the request and no server default"
                ))
            }),
        }
    };
    let setting = field_text("setting", &state.config.default_setting)?;
    let instance = field_text("instance", &state.config.default_instance)?;
    let options = parse_options(state.config.base_options, body.get("options"))?;
    let deadline_micros = match body.get("deadline_ms") {
        None => state.config.default_deadline_micros,
        Some(v) => Some(
            v.as_f64()
                .filter(|ms| *ms >= 0.0 && ms.fract() == 0.0)
                .map(|ms| (ms as u64).saturating_mul(1000))
                .ok_or_else(|| bad("\"deadline_ms\" must be a non-negative integer"))?,
        ),
    };
    let key = SessionKey::new(setting.clone(), instance.clone(), &options);
    let session = state.pool.checkout(&key, || {
        let parsed = gdx_mapping::dsl::parse_setting(&setting)?;
        let inst = gdx_relational::Instance::parse(parsed.source.clone(), &instance)?;
        Ok(ExchangeSession::new(parsed, inst)
            .with_options(options.with_deadline_micros(None))
            .with_obs(state.obs().clone()))
    })?;
    Ok(Prepared {
        session,
        deadline_micros,
        body,
    })
}

/// Layers the request's `"options"` object over the server's base
/// options. Unknown keys are rejected — a typo must not silently run
/// with defaults.
fn parse_options(base: Options, spec: Option<&Json>) -> Result<Options, ApiError> {
    let mut options = base;
    let Some(spec) = spec else {
        return Ok(options);
    };
    let Json::Object(fields) = spec else {
        return Err(bad("\"options\" must be an object"));
    };
    let as_count = |key: &str, v: &Json| -> Result<usize, ApiError> {
        v.as_f64()
            .filter(|x| *x >= 0.0 && x.fract() == 0.0)
            .map(|x| x as usize)
            .ok_or_else(|| bad(format!("options.{key} must be a non-negative integer")))
    };
    for (key, value) in fields {
        match key.as_str() {
            "max_graphs" => options.instantiation.max_graphs = as_count(key, value)?,
            "row_limit" => options.row_limit = Some(as_count(key, value)?),
            "solution_cap" => options.solution_cap = Some(as_count(key, value)?),
            "threads" => options.threads = Threads::Fixed(as_count(key, value)?),
            "planner" => {
                options.planner = match value.as_str() {
                    Some("auto") => PlannerMode::Auto,
                    Some("materialize") => PlannerMode::Materialize,
                    _ => return Err(bad("options.planner must be \"auto\" or \"materialize\"")),
                }
            }
            other => return Err(bad(format!("unknown option {other:?}"))),
        }
    }
    Ok(options)
}

/// Writes a fixed JSON (or binary) response for `result`, returning the
/// status for the metrics layer.
fn respond(
    out: &mut dyn Write,
    result: Result<(&'static str, Vec<u8>), ApiError>,
) -> io::Result<u16> {
    match result {
        Ok((content_type, body)) => {
            http::write_response(out, 200, content_type, &[], &body)?;
            Ok(200)
        }
        Err(e) => {
            http::write_response(
                out,
                e.status,
                "application/json",
                &[],
                &wire::error_body(&e.msg),
            )?;
            Ok(e.status)
        }
    }
}

fn lock_session(p: &Prepared) -> std::sync::MutexGuard<'_, ExchangeSession> {
    let mut session = p.session.lock().unwrap_or_else(|e| e.into_inner());
    session.set_deadline(p.deadline_micros);
    session
}

fn is_solution(state: &ServerState, req: &Request, out: &mut dyn Write) -> io::Result<u16> {
    let result = (|| {
        let p = prepare(state, req)?;
        let graph_text = p
            .body
            .get("graph")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("\"graph\" (string) is required"))?;
        let graph = Graph::parse(graph_text).map_err(ApiError::from)?;
        let verdict = lock_session(&p).is_solution(&graph)?;
        let body = json::obj(vec![("solution", Json::Bool(verdict))]).render();
        Ok(("application/json", body.into_bytes()))
    })();
    respond(out, result)
}

fn certain(state: &ServerState, req: &Request, out: &mut dyn Write) -> io::Result<u16> {
    let result = (|| {
        let p = prepare(state, req)?;
        let query = parse_query(&p.body)?;
        let verdict = lock_session(&p).certain(&query)?;
        let fields = match verdict {
            CertainAnswer::Certain => vec![("verdict", json::s("certain"))],
            CertainAnswer::NotCertain(g) => vec![
                ("verdict", json::s("not_certain")),
                ("counterexample", json::s(g.to_string())),
            ],
            CertainAnswer::Unknown(reason) => {
                vec![("verdict", json::s("unknown")), ("reason", json::s(reason))]
            }
        };
        Ok(("application/json", json::obj(fields).render().into_bytes()))
    })();
    respond(out, result)
}

fn certain_answers(state: &ServerState, req: &Request, out: &mut dyn Write) -> io::Result<u16> {
    let result = (|| {
        let p = prepare(state, req)?;
        let query = parse_query(&p.body)?;
        let binary = match p.body.get("format").and_then(Json::as_str) {
            None | Some("json") => false,
            Some("binary") => true,
            Some(other) => return Err(bad(format!("unknown format {other:?}"))),
        };
        let (rows, exact) = lock_session(&p).certain_answers(&query)?;
        let rendered: Vec<Vec<String>> = rows
            .iter()
            .map(|row| row.iter().map(|n| n.name().as_str().to_owned()).collect())
            .collect();
        if binary {
            return Ok((
                "application/x-gdx-rows",
                wire::encode_rows(&rendered, exact),
            ));
        }
        let body = json::obj(vec![
            (
                "rows",
                Json::Array(
                    rendered
                        .into_iter()
                        .map(|row| Json::Array(row.into_iter().map(Json::String).collect()))
                        .collect(),
                ),
            ),
            ("exact", Json::Bool(exact)),
        ]);
        Ok(("application/json", body.render().into_bytes()))
    })();
    respond(out, result)
}

/// Streams the minimal-solution family as newline-delimited JSON, one
/// solution per HTTP chunk, riding the lazy `SolutionStream`: the first
/// solution reaches the socket before the last is enumerated. Ends with
/// a `{"done": …}` summary line carrying the exactness verdict.
#[expect(
    clippy::significant_drop_tightening,
    reason = "the solution stream borrows the session, so the guard must outlive it"
)]
fn solutions(state: &ServerState, req: &Request, out: &mut dyn Write) -> io::Result<u16> {
    let p = match prepare(state, req) {
        Ok(p) => p,
        Err(e) => return respond(out, Err(e)),
    };
    let limit = match p.body.get("limit") {
        None => usize::MAX,
        Some(v) => match v.as_f64().filter(|x| *x >= 0.0 && x.fract() == 0.0) {
            Some(x) => x as usize,
            None => return respond(out, Err(bad("\"limit\" must be a non-negative integer"))),
        },
    };
    let mut session = lock_session(&p);
    let mut stream = match session.solutions() {
        Ok(s) => s,
        Err(e) => return respond(out, Err(ApiError::from(e))),
    };
    // Committed to 200 from here: errors mid-stream become a trailing
    // `{"error": …}` line — the chunked framing still terminates
    // cleanly, and the client knows the stream is incomplete because
    // the `done` summary is missing.
    http::start_chunked(out, 200, "application/x-ndjson")?;
    let mut count: u64 = 0;
    let mut failed = false;
    while count < limit as u64 {
        match stream.next() {
            Some(Ok(g)) => {
                count += 1;
                let line = json::obj(vec![("solution", json::s(g.to_string()))]).render();
                http::write_chunk(out, format!("{line}\n").as_bytes())?;
            }
            Some(Err(e)) => {
                let line = json::obj(vec![("error", json::s(e.to_string()))]).render();
                http::write_chunk(out, format!("{line}\n").as_bytes())?;
                failed = true;
                break;
            }
            None => break,
        }
    }
    if !failed {
        let summary = json::obj(vec![
            ("done", Json::Bool(true)),
            ("count", json::n(count)),
            ("exact", Json::Bool(stream.exact())),
        ])
        .render();
        http::write_chunk(out, format!("{summary}\n").as_bytes())?;
    }
    finish_stream(out)?;
    Ok(if failed { 500 } else { 200 })
}

fn finish_stream(out: &mut dyn Write) -> io::Result<()> {
    http::finish_chunked(out)
}

fn parse_query(body: &Json) -> Result<PreparedQuery, ApiError> {
    let text = body
        .get("query")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("\"query\" (string) is required"))?;
    PreparedQuery::parse(text).map_err(ApiError::from)
}
