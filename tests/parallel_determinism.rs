//! Determinism is an invariant, not best-effort: N-worker runs must
//! produce results **byte-identical** to 1-worker runs — same chased
//! graph text (hence same firing order and fresh-null names), same
//! `ChaseStats`, same certain answers, same `solutions()` order.
//!
//! The only fan-out left is the session's family scan (one worker per
//! solution graph); the chase, the join and NRE evaluation run on the
//! calling thread at any worker count. The large structured cases pin
//! that the worker count changes no chase result even when one round
//! fires many triggers; the randomized sweep guards the plumbing across
//! many small shapes.

use gdx::chase::{chase_target_tgds, TgdChaseConfig};
use gdx::common::Symbol;
use gdx::datagen::{flights_hotels, rng, FlightsHotelsParams};
use gdx::prelude::*;
use gdx_mapping::TargetTgd;
use gdx_query::Cnre;
use rand::Rng;
use std::io::Read as _;
use std::io::Write as _;

fn tgd(body: &str, existential: &[&str], head: &str) -> TargetTgd {
    TargetTgd {
        body: Cnre::parse(body).unwrap(),
        existential: existential.iter().map(|s| Symbol::new(s)).collect(),
        head: Cnre::parse(head).unwrap(),
    }
}

fn chase_fingerprint(g: &Graph, tgds: &[TargetTgd], workers: usize) -> (String, String) {
    let out = chase_target_tgds(
        g,
        tgds,
        TgdChaseConfig {
            threads: Threads::Fixed(workers),
            ..TgdChaseConfig::default()
        },
    )
    .unwrap();
    (out.graph.to_string(), format!("{:?}", out.stats))
}

/// A dense two-layer graph: 40×40 = 1600 `f`-edges, so one chase round
/// fires many triggers whose heads share their frontier.
fn dense_bipartite() -> Graph {
    let mut g = Graph::new();
    let left: Vec<_> = (0..40).map(|i| g.add_const(&format!("l{i}"))).collect();
    let right: Vec<_> = (0..40).map(|i| g.add_const(&format!("r{i}"))).collect();
    for &u in &left {
        for &v in &right {
            g.add_edge(u, Symbol::new("f"), v);
        }
    }
    g
}

#[test]
fn dense_chase_is_byte_identical_across_worker_counts() {
    let g = dense_bipartite();
    // 1600 body rows in the first round; one firing per distinct y, with
    // later rows witnessed by earlier firings of the same round, so the
    // firing order decides the fresh-null names.
    let rules = [
        tgd("(x, f, y)", &["z"], "(y, h, z)"),
        tgd("(x, h, y)", &["w"], "(y, g0, w)"),
    ];
    let baseline = chase_fingerprint(&g, &rules, 1);
    for workers in [2, 4] {
        assert_eq!(
            chase_fingerprint(&g, &rules, workers),
            baseline,
            "{workers}-worker chase must be byte-identical (graph text, stats)"
        );
    }
}

#[test]
fn randomized_chases_are_byte_identical_across_worker_counts() {
    // Property-style sweep: random small graphs and rule sets. This pins
    // that the worker count never leaks into results, whatever the
    // graph's shape.
    let mut r = rng(0xd17e);
    for case in 0..24 {
        let mut g = Graph::new();
        let n = 4 + r.gen_range(0usize..8);
        let ids: Vec<_> = (0..n)
            .map(|i| g.add_const(&format!("c{case}_{i}")))
            .collect();
        let labels = ["f", "h", "g0"];
        for _ in 0..(2 * n) {
            let u = ids[r.gen_range(0usize..n)];
            let v = ids[r.gen_range(0usize..n)];
            let l = labels[r.gen_range(0usize..labels.len())];
            g.add_edge(u, Symbol::new(l), v);
        }
        let rules = [
            tgd("(x, f, y)", &["z"], "(y, h, z)"),
            tgd("(x, h, y), (y, h, z)", &[], "(x, g0, z)"),
        ];
        let baseline = chase_fingerprint(&g, &rules, 1);
        assert_eq!(
            chase_fingerprint(&g, &rules, 3),
            baseline,
            "case {case}: 3-worker chase diverged"
        );
    }
}

/// The session's `demand.*` registry counters.
fn demand_counters(obs: &Obs) -> [u64; 3] {
    let reg = obs.registry().expect("enabled obs");
    [
        reg.counter("demand.visited"),
        reg.counter("demand.bfs_runs"),
        reg.counter("demand.guard_checks"),
    ]
}

/// Runs `call` and fingerprints the demand work it caused: the query's
/// own `demand_stats` per atom (cumulative) plus the growth of the
/// session's `demand.*` registry counters during the call.
fn demand_work<T>(query: &PreparedQuery, obs: &Obs, call: impl FnOnce() -> T) -> (T, String) {
    let before = demand_counters(obs);
    let out = call();
    let after = demand_counters(obs);
    let registry: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    let per_atom: Vec<String> = query
        .cnre()
        .atoms
        .iter()
        .map(|a| format!("{:?}", query.demand_stats(&a.nre)))
        .collect();
    (out, format!("query {per_atom:?} registry {registry:?}"))
}

/// The session's `session.lower_bound.*` registry counters.
fn lower_bound_counters(obs: &Obs) -> [u64; 2] {
    let reg = obs.registry().expect("enabled obs");
    [
        reg.counter("session.lower_bound.proven"),
        reg.counter("session.lower_bound.fallback"),
    ]
}

/// End-to-end session pin: representative, solution stream order, chase
/// stats, certain answers, certain probes and pairs, the demand work
/// counted for a family-scanning probe, and the lower-bound counters all
/// coincide at 1 and 4 workers.
#[test]
fn session_outputs_identical_across_worker_counts() {
    let setting = Setting::example_2_2_egd();
    let instance = flights_hotels(
        FlightsHotelsParams {
            flights: 40,
            cities: 8,
            hotels: 8,
            stays_per_flight: 2,
        },
        &mut rng(7),
    );
    let run = |workers: usize| {
        let obs = Obs::enabled();
        let mut s = ExchangeSession::new(setting.clone(), instance.clone())
            .with_options(Options::default().with_threads(Threads::Fixed(workers)))
            .with_obs(obs.clone());
        let representative = match s.representative().unwrap() {
            gdx::exchange::representative::RepresentativeOutcome::Representative(rep) => {
                rep.clone()
            }
            gdx::exchange::representative::RepresentativeOutcome::ChaseFailed => {
                panic!("Example 2.2 chases successfully")
            }
        };
        let rep = representative.pattern.to_string();
        let sols: Vec<String> = s
            .solutions()
            .unwrap()
            .map(|g| g.unwrap().to_string())
            .collect();
        let stats = format!("{:?}", s.chase_stats());
        let q = PreparedQuery::parse("(x1, f.f*.[h].f-.(f-)*, x2)").unwrap();
        let ((rows, exact), answers_work) =
            demand_work(&q, &obs, || s.certain_answers(&q).unwrap());
        let answers = format!("{rows:?} exact={exact}");
        // A certain answer, asked back as a constants-only probe: the
        // pattern proves it, so it is answered before any family scan.
        let (c1, c2) = (rows[0][0].name(), rows[0][1].name());
        let proven = PreparedQuery::parse(&format!(
            "(\"{}\", f.f*.[h].f-.(f-)*, \"{}\")",
            c1.as_str(),
            c2.as_str()
        ))
        .unwrap();
        let (proven_verdict, proven_work) =
            demand_work(&proven, &obs, || s.certain(&proven).unwrap());
        assert!(proven_verdict.is_certain(), "the pattern proves the pair");
        // Two single `f` steps between two cities hold in every graph of
        // the family (each instantiates its `f.f*` edges by one `f`), but
        // no `f.f*` pattern edge entails the single step `f`, so the
        // pattern proves none of them. Every worker count probes the
        // whole family for one and must count the same demand work.
        let reach = PreparedQuery::parse("(x, f.f, y)").unwrap();
        let (reach_rows, _) = s.certain_answers(&reach).unwrap();
        let lower = representative
            .certain_answer_lower_bound(reach.cnre(), s.options())
            .unwrap();
        let unproven = reach_rows
            .iter()
            .find(|row| !lower.contains(row))
            .expect("the fixture has a family-wide connection the pattern does not prove");
        let probe = PreparedQuery::parse(&format!(
            "(\"{}\", f.f, \"{}\")",
            unproven[0].name().as_str(),
            unproven[1].name().as_str()
        ))
        .unwrap();
        let (verdict, probe_work) = demand_work(&probe, &obs, || s.certain(&probe).unwrap());
        assert!(
            !matches!(verdict, CertainAnswer::NotCertain(_)),
            "a certain answer has no counterexample"
        );
        let visited = probe
            .demand_stats(&probe.cnre().atoms[0].nre)
            .unwrap()
            .visited;
        assert!(visited > 0, "the probe took the demand path");
        let probe = format!(
            "{proven_verdict:?} {proven_work} {verdict:?} {answers_work} {probe_work} \
             lower bound {:?}",
            lower_bound_counters(&obs)
        );
        let r = gdx::nre::parse::parse_nre("f.f*").unwrap();
        let pair = format!(
            "{:?}/{:?}",
            s.certain_pair(&r, "city0", "city1").unwrap().is_certain(),
            s.certain_pair(&r, "city1", "city0").unwrap().is_certain(),
        );
        (rep, sols, stats, answers, pair, probe)
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(one.0, four.0, "representative pattern");
    assert_eq!(one.1, four.1, "solutions() order and graph text");
    assert_eq!(one.2, four.2, "ChaseStats");
    assert_eq!(one.3, four.3, "certain_answers rows + exactness");
    assert_eq!(one.4, four.4, "certain_pair verdicts");
    assert_eq!(
        one.5, four.5,
        "certain probe verdicts, demand and lower-bound counters"
    );
}

/// Observability must be inert: the same session fingerprint as
/// [`session_outputs_identical_across_worker_counts`], but with metrics
/// and tracing recording enabled — outputs must stay byte-identical to
/// the unobserved 1-worker baseline at every worker count.
#[test]
fn observed_sessions_are_byte_identical_to_unobserved() {
    let setting = Setting::example_2_2_egd();
    let instance = flights_hotels(
        FlightsHotelsParams {
            flights: 40,
            cities: 8,
            hotels: 8,
            stays_per_flight: 2,
        },
        &mut rng(7),
    );
    let run = |workers: usize, obs: Option<Obs>| {
        let mut s = ExchangeSession::new(setting.clone(), instance.clone())
            .with_options(Options::default().with_threads(Threads::Fixed(workers)));
        if let Some(obs) = obs {
            s.set_obs(obs);
        }
        let rep = match s.representative().unwrap() {
            gdx::exchange::representative::RepresentativeOutcome::Representative(rep) => {
                rep.pattern.to_string()
            }
            gdx::exchange::representative::RepresentativeOutcome::ChaseFailed => {
                "CHASE FAILED".to_owned()
            }
        };
        let sols: Vec<String> = s
            .solutions()
            .unwrap()
            .map(|g| g.unwrap().to_string())
            .collect();
        let q = PreparedQuery::parse("(x1, f.f*.[h].f-.(f-)*, x2)").unwrap();
        let (rows, exact) = s.certain_answers(&q).unwrap();
        (
            rep,
            sols,
            format!("{:?}", s.chase_stats()),
            format!("{rows:?} exact={exact}"),
        )
    };
    let baseline = run(1, None);
    for workers in [1, 4] {
        let observed = run(workers, Some(Obs::enabled()));
        assert_eq!(
            observed, baseline,
            "{workers}-worker observed session must match the unobserved baseline"
        );
    }
    // The observed run actually recorded something — the contract is
    // "inert", not "disabled". (Scheduling-shaped metrics like
    // `runtime.steals` may legitimately vary; the *outputs* above are
    // what must never move.)
    let obs = Obs::enabled();
    run(1, Some(obs.clone()));
    let dump = obs.render_metrics_json();
    assert!(dump.contains("session.requests"), "{dump}");
    assert!(dump.contains("egd.merges"), "{dump}");
}

/// The invariant holds through the network edge too: a server at 4
/// socket workers (and 4-thread sessions) must answer the same request
/// sequence with responses **byte-identical** to a 1-worker server —
/// status line, headers, chunk framing and bodies included. The obs
/// handle is `NoopClock`-backed so no wall-clock reading (latency,
/// deadline) can leak into a response.
#[test]
fn server_responses_identical_across_worker_counts() {
    const SETTING: &str = "source { Flight/3; Hotel/2 }
target { f; h }
sttgd Flight(x1, x2, x3), Hotel(x1, x4)
      -> exists y : (x2, f.f*, y), (y, h, x4), (y, f.f*, x3);
egd (x1, h, x3), (x2, h, x3) -> x1 = x2;";
    const INSTANCE: &str = "Flight(01, c1, c2); Flight(02, c3, c2);
Hotel(01, hx); Hotel(01, hy); Hotel(02, hx);";
    const WITNESS: &str = "(c1, f, _N); (c3, f, _N); (_N, f, c2); (_N, h, hx); (_N, h, hy);";

    // One of everything, plus error paths — shapes that exercise both
    // framings (content-length and chunked) and the warm-pool reuse of
    // the one pooled session.
    let requests: Vec<(&str, &str, String)> = vec![
        ("GET", "/healthz", String::new()),
        (
            "POST",
            "/v1/is_solution",
            format!("{{\"graph\":{}}}", gdx::common::json::s(WITNESS).render()),
        ),
        (
            "POST",
            "/v1/certain",
            "{\"query\":\"(\\\"c1\\\", f.f*, \\\"c2\\\")\"}".to_owned(),
        ),
        (
            "POST",
            "/v1/certain_answers",
            "{\"query\":\"(x, f.f*, y)\"}".to_owned(),
        ),
        (
            "POST",
            "/v1/certain_answers",
            "{\"query\":\"(x, f.f*, y)\",\"format\":\"binary\"}".to_owned(),
        ),
        ("POST", "/v1/solutions", "{\"limit\":2}".to_owned()),
        ("POST", "/v1/certain", "{\"query\":\"(x,\"}".to_owned()),
        ("GET", "/nope", String::new()),
    ];

    // Whole raw response — bytes as they came off the socket.
    let raw = |addr: std::net::SocketAddr, method: &str, path: &str, body: &str| {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .unwrap();
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut response = Vec::new();
        stream.read_to_end(&mut response).unwrap();
        String::from_utf8(response).unwrap()
    };

    let run = |workers: usize| {
        let mut config = gdx_server::ServerConfig::new("127.0.0.1:0");
        config.default_setting = Some(std::sync::Arc::from(SETTING));
        config.default_instance = Some(std::sync::Arc::from(INSTANCE));
        config.workers = workers;
        config.base_options = Options::default().with_threads(Threads::Fixed(workers));
        config.obs = Obs::with_clock(std::sync::Arc::new(gdx_obs::NoopClock));
        let server = gdx_server::serve(config).unwrap();
        let out: Vec<String> = requests
            .iter()
            .map(|(method, path, body)| raw(server.addr(), method, path, body))
            .collect();
        server.stop();
        out
    };

    let one = run(1);
    let four = run(4);
    for ((response_1, response_4), (method, path, _)) in one.iter().zip(&four).zip(&requests) {
        assert_eq!(
            response_1, response_4,
            "{method} {path}: 4-worker server response diverged from 1-worker"
        );
    }
    // Sanity that the sequence actually answered: certainty verdict and
    // a streamed solution both present in the 1-worker transcript.
    assert!(one[2].contains("\"verdict\":\"certain\""), "{}", one[2]);
    assert!(one[5].contains("Transfer-Encoding: chunked"), "{}", one[5]);
    assert!(one[6].contains("HTTP/1.1 400"), "{}", one[6]);
    assert!(one[7].contains("HTTP/1.1 404"), "{}", one[7]);
}

/// Sessions whose solution family has several members exercise the
/// across-family fan-out of `certain`/`certain_answers`.
#[test]
fn multi_solution_family_certainty_is_identical_across_worker_counts() {
    let setting = gdx::mapping::dsl::parse_setting(
        "source { R1/1; R2/1 }
         target { a; t; f; svc }
         sttgd R1(x), R2(y) -> (x, a, y), (x, t+f, x);
         tgd (x, a, y) -> exists z : (y, svc, z);",
    )
    .unwrap();
    let instance = Instance::parse(setting.source.clone(), "R1(c1); R2(c2);").unwrap();
    let run = |workers: usize| {
        let obs = Obs::enabled();
        let mut s = ExchangeSession::new(setting.clone(), instance.clone())
            .with_options(Options::default().with_threads(Threads::Fixed(workers)))
            .with_obs(obs.clone());
        let sols: Vec<String> = s
            .solutions()
            .unwrap()
            .map(|g| g.unwrap().to_string())
            .collect();
        assert!(sols.len() > 1, "fixture must yield a multi-graph family");
        let q = PreparedQuery::parse("(\"c1\", a, \"c2\")").unwrap();
        let not_q = PreparedQuery::parse("(\"c1\", t, \"c1\")").unwrap();
        let qa = PreparedQuery::parse("(x, a, y)").unwrap();
        let ((rows, exact), answers_work) =
            demand_work(&qa, &obs, || s.certain_answers(&qa).unwrap());
        // Counterexample verdicts carry the refuting graph; fingerprint
        // its *text* (GraphId is a process-global counter, so Debug would
        // differ between any two runs in one process). Its demand work is
        // not pinned: parallel workers may probe past the counterexample.
        let counterexample = match s.certain(&not_q).unwrap() {
            CertainAnswer::NotCertain(g) => format!("not-certain:\n{g}"),
            other => format!("{other:?}"),
        };
        // A probe that holds in every solution, served by product-BFS
        // (the plain `a` probe materializes on graphs this small). Its
        // `svc` test holds by the target tgd, which the pattern does not
        // see, so the lower bound cannot prove it: every worker count
        // probes the whole family and must count the same demand work.
        let star = PreparedQuery::parse("(\"c1\", a*.[svc], \"c2\")").unwrap();
        let (star_verdict, star_work) = demand_work(&star, &obs, || s.certain(&star).unwrap());
        assert!(
            !matches!(star_verdict, CertainAnswer::NotCertain(_)),
            "every solution satisfies the starred probe"
        );
        let star_certain = format!("{star_verdict:?}");
        let visited = star
            .demand_stats(&star.cnre().atoms[0].nre)
            .unwrap()
            .visited;
        assert!(visited > 0, "the starred probe took the demand path");
        (
            sols,
            s.certain(&q).unwrap().is_certain(),
            counterexample,
            format!("{rows:?} exact={exact}"),
            format!("{star_certain} {answers_work} {star_work}"),
            lower_bound_counters(&obs),
        )
    };
    assert_eq!(run(1), run(4));
}
