//! End-to-end CLI tests: run the real `gdx` binary on the quickstart
//! setting (Example 2.2) and assert on its stdout, one test per
//! subcommand. `CARGO_BIN_EXE_gdx` points at the binary Cargo built for
//! this test run.

use std::path::PathBuf;
use std::process::{Command, Output};

const SETTING: &str = "source { Flight/3; Hotel/2 }
target { f; h }
sttgd Flight(x1, x2, x3), Hotel(x1, x4)
      -> exists y : (x2, f.f*, y), (y, h, x4), (y, f.f*, x3);
egd (x1, h, x3), (x2, h, x3) -> x1 = x2;";

const INSTANCE: &str = "Flight(01, c1, c2); Flight(02, c3, c2);
Hotel(01, hx); Hotel(01, hy); Hotel(02, hx);";

const G1: &str = "(c1, f, _N); (c3, f, _N); (_N, f, c2); (_N, h, hx); (_N, h, hy);";

/// Writes the quickstart fixture files under a per-test temp directory.
fn fixture(tag: &str) -> (String, String) {
    let dir = std::env::temp_dir().join(format!("gdx-e2e-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, contents: &str| -> String {
        let p: PathBuf = dir.join(name);
        std::fs::write(&p, contents).unwrap();
        p.to_string_lossy().into_owned()
    };
    (
        write("setting.gdx", SETTING),
        write("instance.facts", INSTANCE),
    )
}

fn gdx(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gdx"))
        .args(args)
        .output()
        .expect("spawn gdx binary")
}

fn stdout_of(args: &[&str]) -> String {
    let out = gdx(args);
    assert!(
        out.status.success(),
        "gdx {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

#[test]
fn chase_prints_figure_5_pattern() {
    let (s, i) = fixture("chase");
    let out = stdout_of(&["chase", "--setting", &s, "--instance", &i]);
    // Figure 5: the two hx stays collapse; both city constants and both
    // hotels survive in the chased pattern.
    for name in ["c1", "c2", "c3", "hx", "hy"] {
        assert!(out.contains(name), "pattern must mention {name}:\n{out}");
    }
    assert!(out.contains("f.f*"), "NRE edges survive the chase:\n{out}");
    // The --dot variant emits graphviz.
    let dot = stdout_of(&["chase", "--setting", &s, "--instance", &i, "--dot"]);
    assert!(dot.contains("digraph"), "dot output expected:\n{dot}");
}

#[test]
fn solve_reports_exists_with_witness() {
    let (s, i) = fixture("solve");
    let out = stdout_of(&["solve", "--setting", &s, "--instance", &i]);
    assert!(
        out.starts_with("EXISTS"),
        "quickstart has solutions:\n{out}"
    );
    assert!(out.contains("(c1, f"), "witness graph printed:\n{out}");
}

#[test]
fn solutions_streams_verified_graphs() {
    let (s, i) = fixture("solutions");
    let out = stdout_of(&[
        "solutions",
        "--setting",
        &s,
        "--instance",
        &i,
        "--limit",
        "2",
    ]);
    assert!(out.contains("-- solution 1 --"), "{out}");
    assert!(out.contains("-- solution 2 --"), "{out}");
    assert!(!out.contains("-- solution 3 --"), "limit respected:\n{out}");
}

#[test]
fn check_judges_g1_and_a_broken_graph() {
    let (s, i) = fixture("check");
    let dir = std::env::temp_dir();
    let good = dir.join("gdx-e2e-g1.graph");
    std::fs::write(&good, G1).unwrap();
    let out = stdout_of(&[
        "check",
        "--setting",
        &s,
        "--instance",
        &i,
        "--graph",
        good.to_str().unwrap(),
    ]);
    assert_eq!(out.trim(), "SOLUTION");

    let bad = dir.join("gdx-e2e-bad.graph");
    std::fs::write(&bad, "(c1, f, c2);").unwrap();
    let out = stdout_of(&[
        "check",
        "--setting",
        &s,
        "--instance",
        &i,
        "--graph",
        bad.to_str().unwrap(),
    ]);
    assert_eq!(out.trim(), "NOT A SOLUTION");
}

#[test]
fn certain_decides_both_verdicts() {
    let (s, i) = fixture("certain");
    // (c1, f.f*, c2) is provably certain via the pattern-level proof.
    let out = stdout_of(&[
        "certain",
        "--setting",
        &s,
        "--instance",
        &i,
        "--nre",
        "f.f*",
        "--pair",
        "c1,c2",
    ]);
    assert_eq!(out.trim(), "CERTAIN");
    // The reverse pair has a counterexample solution.
    let out = stdout_of(&[
        "certain",
        "--setting",
        &s,
        "--instance",
        &i,
        "--nre",
        "f.f*",
        "--pair",
        "c2,c1",
    ]);
    assert!(out.starts_with("NOT CERTAIN"), "{out}");
}

#[test]
fn cert_query_lists_the_paper_answers() {
    let (s, i) = fixture("cert-query");
    let out = stdout_of(&[
        "cert-query",
        "--setting",
        &s,
        "--instance",
        &i,
        "--cnre",
        "(x1, f.f*.[h].f-.(f-)*, x2)",
    ]);
    assert!(
        out.starts_with("4 certain answer(s)"),
        "the paper's four certain pairs:\n{out}"
    );
    for pair in [
        "x1=c1, x2=c1",
        "x1=c1, x2=c3",
        "x1=c3, x2=c1",
        "x1=c3, x2=c3",
    ] {
        assert!(out.contains(pair), "missing {pair}:\n{out}");
    }
}

#[test]
fn explain_prints_per_atom_decisions() {
    let (s, i) = fixture("explain");
    let out = stdout_of(&[
        "explain",
        "--setting",
        &s,
        "--instance",
        &i,
        "--cnre",
        "(x1, f.f*.[h].f-.(f-)*, x2), (x1, f, z)",
    ]);
    assert!(
        out.contains("plan mode=auto atoms=2"),
        "plan header expected:\n{out}"
    );
    // Every atom line carries its decision and the estimates behind it.
    for needle in ["est_pairs=", "est_fanout=", "demand_cost=", "-> "] {
        assert_eq!(
            out.matches(needle).count(),
            2,
            "two per-atom `{needle}` entries expected:\n{out}"
        );
    }
    // The single-label atom over the small representative materializes.
    assert!(out.contains("-> materialize"), "{out}");

    // JSON rendering is stable: identical across two invocations, and
    // forced materialization flips every choice.
    let json_args = [
        "explain",
        "--setting",
        s.as_str(),
        "--instance",
        i.as_str(),
        "--cnre",
        "(x1, f.f*.[h].f-.(f-)*, x2), (x1, f, z)",
        "--format",
        "json",
    ];
    let json = stdout_of(&json_args);
    assert!(
        json.starts_with("{\"mode\": \"auto\", \"atoms\": ["),
        "{json}"
    );
    assert_eq!(json, stdout_of(&json_args), "explain output must be stable");
    let mut forced = json_args.to_vec();
    forced.push("--materialize");
    let forced_out = stdout_of(&forced);
    assert!(
        forced_out.contains("\"mode\": \"materialize\""),
        "{forced_out}"
    );
    assert!(
        !forced_out.contains("\"choice\": \"demand\""),
        "{forced_out}"
    );
}

#[test]
fn metrics_dump_is_stable_and_trace_shows_spans() {
    let (s, i) = fixture("metrics");
    // --threads 1 pins the runtime gauges (worker count, per-worker task
    // histogram) so the dump is byte-stable.
    let args = [
        "cert-query",
        "--setting",
        s.as_str(),
        "--instance",
        i.as_str(),
        "--cnre",
        "(x1, f.f*.[h].f-.(f-)*, x2)",
        "--threads",
        "1",
        "--metrics",
        "json",
    ];
    let out = stdout_of(&args);
    assert!(
        out.starts_with("4 certain answer(s)"),
        "answers precede the dump:\n{out}"
    );
    for metric in [
        "\"egd.merges\": 1",
        "\"session.requests\": 1",
        "\"session.candidates\"",
        "\"session.phase.egd_chase_us\"",
        "\"session.phase.candidate_chase_us\"",
        "\"session.phase.verify_us\"",
    ] {
        assert!(out.contains(metric), "dump must report {metric}:\n{out}");
    }
    // Byte-stable across runs (NoopClock: no wall-clock in the dump).
    assert_eq!(out, stdout_of(&args), "metrics dump must be reproducible");

    // Text format + trace tail.
    let out = stdout_of(&[
        "cert-query",
        "--setting",
        &s,
        "--instance",
        &i,
        "--cnre",
        "(x1, f.f*.[h].f-.(f-)*, x2)",
        "--threads",
        "1",
        "--metrics",
        "text",
        "--trace",
        "50",
    ]);
    assert!(out.contains("counter session.requests 1"), "{out}");
    assert!(out.contains("enter session.certain_answers"), "{out}");
    assert!(out.contains("exit session.certain_answers"), "{out}");
}

#[test]
fn metrics_never_perturb_results() {
    // The observability determinism contract, end to end: stdout up to
    // the dump is identical with and without recording enabled.
    let (s, i) = fixture("metrics-inert");
    let plain = stdout_of(&["solve", "--setting", &s, "--instance", &i, "--threads", "2"]);
    let observed = stdout_of(&[
        "solve",
        "--setting",
        &s,
        "--instance",
        &i,
        "--threads",
        "2",
        "--metrics",
        "text",
    ]);
    assert!(
        observed.starts_with(&plain),
        "observed run must print the same result before the dump:\n{observed}"
    );
}

#[test]
fn reduce_emits_a_setting_and_instance() {
    let dir = std::env::temp_dir();
    let cnf = dir.join("gdx-e2e.cnf");
    std::fs::write(&cnf, "p cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n").unwrap();
    let out = stdout_of(&["reduce", "--dimacs", cnf.to_str().unwrap()]);
    assert!(out.contains("3 vars, 2 clauses"), "{out}");
    assert!(out.contains("sttgd"), "reduction emits s-t tgds:\n{out}");
    assert!(out.contains("I_ρ"), "fixed instance header:\n{out}");
}

#[test]
fn direct_maps_binary_relations() {
    let dir = std::env::temp_dir();
    let facts = dir.join("gdx-e2e-direct.facts");
    std::fs::write(&facts, "knows(a, b); knows(b, c);").unwrap();
    let out = stdout_of(&[
        "direct",
        "--schema",
        "knows/2",
        "--instance",
        facts.to_str().unwrap(),
    ]);
    assert!(out.contains("(a, knows, b)"), "{out}");
    assert!(out.contains("(b, knows, c)"), "{out}");
}

#[test]
fn errors_exit_nonzero() {
    let out = gdx(&["bogus"]);
    assert!(!out.status.success());
    let out = gdx(&["solve", "--setting", "/nonexistent"]);
    assert!(!out.status.success());
}

#[test]
fn info_reports_parallelism() {
    let out = stdout_of(&["info"]);
    assert!(out.contains("gdx 0."), "version line expected:\n{out}");
    assert!(
        out.contains("detected parallelism:"),
        "parallelism line expected:\n{out}"
    );
    // `--threads` requests a count; the effective workers are clamped to
    // the machine's detected parallelism (a serial host reports 1, so the
    // family scan runs inline instead of paying for threads that cannot
    // run at once).
    let detected = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let out = stdout_of(&["info", "--threads", "3"]);
    let expect = format!("effective workers: {}", 3.min(detected));
    assert!(
        out.contains(&expect),
        "--threads resolves clamped to detected parallelism ({expect}):\n{out}"
    );
}

#[test]
fn thread_counts_do_not_change_output() {
    // The CLI-level determinism check: identical stdout at 1 and 4
    // workers across the session-backed subcommands.
    let (s, i) = fixture("threads");
    for cmd in [
        vec!["solve", "--setting", &s, "--instance", &i],
        vec![
            "solutions",
            "--setting",
            &s,
            "--instance",
            &i,
            "--limit",
            "3",
        ],
        vec![
            "cert-query",
            "--setting",
            &s,
            "--instance",
            &i,
            "--cnre",
            "(x, f.f*, y)",
        ],
    ] {
        let mut one = cmd.clone();
        one.extend(["--threads", "1"]);
        let mut four = cmd.clone();
        four.extend(["--threads", "4"]);
        assert_eq!(
            stdout_of(&one),
            stdout_of(&four),
            "{cmd:?} must print identical output at 1 and 4 workers"
        );
    }
}

#[test]
fn help_documents_sim() {
    let out = stdout_of(&["help"]);
    assert!(out.contains("gdx sim run"), "help lists sim run:\n{out}");
    assert!(
        out.contains("gdx sim replay"),
        "help lists sim replay:\n{out}"
    );
    for oracle in [
        "replay",
        "chase-mode",
        "planner",
        "threads",
        "sat",
        "fork",
        "faults",
    ] {
        assert!(
            out.contains(oracle),
            "help names the {oracle} oracle:\n{out}"
        );
    }
}

#[test]
fn sim_run_and_replay_round_trip() {
    // A two-seed single-oracle campaign is clean and exits zero…
    let out = stdout_of(&["sim", "run", "--seeds", "2", "--oracle", "planner"]);
    assert!(out.contains("clean"), "campaign reports clean:\n{out}");

    // …and a repro file written by hand from the harness's canonical
    // text format replays clean through the binary.
    let dir = std::env::temp_dir().join(format!("gdx-e2e-simreplay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let repro = gdx_sim::Repro {
        oracle: gdx_sim::Oracle::Fork,
        failure: "none".to_owned(),
        scenario: gdx_sim::generate(11, gdx_sim::Oracle::Fork),
    };
    let path = dir.join("clean.repro");
    std::fs::write(&path, repro.to_text()).unwrap();
    let out = stdout_of(&["sim", "replay", "--file", &path.to_string_lossy()]);
    assert!(out.contains("CLEAN"), "replay reports clean:\n{out}");

    // Garbage repro files exit non-zero with a parse diagnostic.
    let bad = dir.join("garbage.repro");
    std::fs::write(&bad, "not a repro").unwrap();
    let out = gdx(&["sim", "replay", "--file", &bad.to_string_lossy()]);
    assert!(!out.status.success(), "garbage repro must fail");
}

#[test]
fn serve_boots_prints_its_address_and_answers_http() {
    use std::io::{BufRead, BufReader, Read, Write};
    let (s, i) = fixture("serve");
    let mut child = Command::new(env!("CARGO_BIN_EXE_gdx"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--setting",
            &s,
            "--instance",
            &i,
            "--workers",
            "2",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn gdx serve");
    // The bound address is the first (flushed) stdout line.
    let mut line = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut line)
        .unwrap();
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected first line: {line:?}"))
        .to_owned();

    let ask = |path: &str, body: &str| -> String {
        let mut stream = std::net::TcpStream::connect(&addr).expect("connect to gdx serve");
        write!(
            stream,
            "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    };
    let response = ask("/v1/certain", r#"{"query": "(\"c1\", f.f*, \"c2\")"}"#);
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    assert!(response.contains("\"verdict\":\"certain\""), "{response}");
    // The warm pool answers the repeat identically.
    assert_eq!(
        response,
        ask("/v1/certain", r#"{"query": "(\"c1\", f.f*, \"c2\")"}"#)
    );

    child.kill().unwrap();
    child.wait().unwrap();
}

#[test]
fn help_documents_serve() {
    let out = stdout_of(&["help"]);
    assert!(out.contains("gdx serve"), "{out}");
    assert!(out.contains("--max-sessions"), "{out}");
    assert!(out.contains("--deadline-ms"), "{out}");
}
