//! Subcommand implementations, built on the session API: each invocation
//! parses the setting/instance once into an [`ExchangeSession`] and runs
//! every step of the command against it, so multi-stage commands (chase +
//! solve, enumerate + verify) share the memoized representative and
//! engine caches.

use crate::args::{read_file, Args};
use gdx_chase::{chase_st_with_nulls, StChaseVariant};
use gdx_common::{GdxError, Result};
use gdx_exchange::representative::RepresentativeOutcome;
use gdx_exchange::{CertainAnswer, ExchangeSession, Existence, Options};
use gdx_graph::{Graph, NullFactory};
use gdx_obs::Obs;
use gdx_pattern::{instantiate_shortest, InstantiationConfig};
use gdx_query::{PlannerMode, PreparedQuery};
use gdx_relational::{Instance, Schema};
use gdx_runtime::Threads;
use gdx_sat::Cnf;

const USAGE: &str = "\
gdx — relational-to-graph data exchange with target constraints

USAGE:
  gdx chase     --setting S.gdx --instance I.facts [--skip-egds] [--dot]
  gdx solve     --setting S.gdx --instance I.facts [--max-graphs N]
  gdx solutions --setting S.gdx --instance I.facts [--limit N]
                [--max-graphs N]
  gdx check     --setting S.gdx --instance I.facts --graph G.graph
  gdx certain   --setting S.gdx --instance I.facts --nre EXPR --pair C1,C2
                [--max-graphs N]
  gdx cert-query --setting S.gdx --instance I.facts --cnre QUERY
  gdx explain   --setting S.gdx --instance I.facts --cnre QUERY
                [--format text|json] [--materialize]
  gdx reduce    --dimacs F.cnf [--sameas]
  gdx direct    --schema DECLS --instance I.facts [--reify]
  gdx sim run   [--seeds N] [--start S] [--oracle NAME] [--out DIR]
                [--max-failures N]
  gdx sim replay --file R.repro
  gdx serve     --addr HOST:PORT [--setting S.gdx --instance I.facts]
                [--workers N] [--max-sessions N] [--queue-depth N]
                [--default-deadline-ms N]
  gdx info
  gdx help

SERVE (HTTP front end over warm sessions, see ARCHITECTURE.md):
  binds HOST:PORT (port 0 picks one; the bound address is printed as
  `listening on ADDR`) and serves /healthz, /metrics and the JSON
  endpoints /v1/is_solution /v1/certain /v1/certain_answers
  /v1/solutions over a pool of --max-sessions warm sessions (0
  disables pooling). --setting/--instance files become the default
  workload; requests may carry their own inline. When the admission
  queue (--queue-depth) is full, new connections get 429 + Retry-After.
  --default-deadline-ms applies to requests that set no deadline_ms.

SIMULATION (differential fuzzing, see ARCHITECTURE.md):
  oracles: replay | chase-mode | planner | threads | sat | fork | faults | sandwich
           (default: all). Each seed deterministically generates a
           setting, instance and op trace; failures are auto-shrunk to
           minimal repro files (written to --out DIR when given).
  replay exits non-zero while the recorded failure still reproduces.

SHARED OPTIONS (every subcommand):
  --threads N       solution graphs evaluated at once (default:
                    GDX_THREADS env, else the machine's parallelism);
                    results are identical at any worker count
  --max-graphs N    candidate-instantiation cap (default 256)
  --materialize     force the materializing baseline for certain-answer
                    evaluation (certain / cert-query / explain)
  --null-seed N     first fresh-null name (~N) used by the chase
  --deadline-ms N   best-effort wall-clock budget for the enumeration
                    behind solutions / certain / cert-query; on expiry
                    the result degrades to an inexact prefix (definite
                    verdicts are never flipped). Measures real time, so
                    combining it with --metrics makes dumps run-dependent

OBSERVABILITY (chase / solutions / certain / cert-query):
  --metrics FMT     after the result, dump the engine metric registry
                    (text | json); deterministic — recording never
                    perturbs outputs or timings the answers depend on
  --trace N         after the result, print the last N span/trace
                    events (enter/exit/point, most recent last)
  explain prints per-atom access-path decisions (materialize vs demand)
  with the planner's cost estimates, against the canonical instantiation
  of the chased universal representative.

FILE FORMATS:
  settings: the DSL (source{..} target{..} sttgd.. egd.. tgd.. sameas..)
  instances: fact lists        Flight(01, c1, c2); Hotel(01, hx);
  graphs: edge lists           (c1, f, _N); (_N, h, hx);
  formulas: DIMACS cnf
";

/// Dispatches on the first argument.
pub fn dispatch(argv: &[String]) -> Result<()> {
    let Some(cmd) = argv.first() else {
        println!("{USAGE}");
        return Ok(());
    };
    let rest = &argv[1..];
    match cmd.as_str() {
        "chase" => cmd_chase(rest),
        "solve" => cmd_solve(rest),
        "solutions" => cmd_solutions(rest),
        "check" => cmd_check(rest),
        "certain" => cmd_certain(rest),
        "cert-query" => cmd_cert_query(rest),
        "explain" => cmd_explain(rest),
        "reduce" => cmd_reduce(rest),
        "direct" => cmd_direct(rest),
        "sim" => cmd_sim(rest),
        "serve" => cmd_serve(rest),
        "info" => cmd_info(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(GdxError::schema(format!(
            "unknown subcommand `{other}` (try `gdx help`)"
        ))),
    }
}

/// Boolean flags shared by the session-backed solver subcommands.
const SOLVER_FLAGS: &[&str] = &["materialize"];

/// `--threads N` (explicit worker count); absent = [`Threads::Auto`],
/// which honours the `GDX_THREADS` environment variable before falling
/// back to the machine's available parallelism.
fn threads_flag(a: &Args) -> Result<Threads> {
    Ok(match a.get("threads") {
        None => Threads::Auto,
        Some(_) => Threads::Fixed(a.get_usize("threads", 0)?.max(1)),
    })
}

/// `--deadline-ms N` as microseconds, if given.
fn deadline_flag(a: &Args) -> Result<Option<u64>> {
    Ok(match a.get("deadline-ms") {
        None => None,
        Some(_) => Some((a.get_usize("deadline-ms", 0)? as u64).saturating_mul(1000)),
    })
}

fn options(a: &Args) -> Result<Options> {
    Ok(Options {
        instantiation: InstantiationConfig {
            max_graphs: a.get_usize("max-graphs", 256)?,
            ..InstantiationConfig::default()
        },
        planner: if a.has("materialize") {
            PlannerMode::Materialize
        } else {
            PlannerMode::Auto
        },
        null_seed: a.get_usize("null-seed", 0)? as u64,
        threads: threads_flag(a)?,
        deadline_micros: deadline_flag(a)?,
        ..Options::default()
    })
}

fn load_session(a: &Args) -> Result<ExchangeSession> {
    let setting = gdx_mapping::dsl::parse_setting(&read_file(a.require("setting")?)?)?;
    let instance = Instance::parse(setting.source.clone(), &read_file(a.require("instance")?)?)?;
    let mut session = ExchangeSession::new(setting, instance).with_options(options(a)?);
    if deadline_flag(a)?.is_some() {
        // A budget needs a clock that moves: the CLI is an entry point,
        // so it injects real time (library code stays clock-free). This
        // supersedes the byte-stable NoopClock handle `--metrics` would
        // pick — documented under --deadline-ms in the usage text.
        session.set_obs(gdx_server::monotonic_obs());
    } else if let Some(obs) = obs_flags(a)? {
        session.set_obs(obs);
    }
    Ok(session)
}

/// `--metrics text|json` and `--trace N`: when either is given, returns
/// an enabled observability handle to attach to the session. The handle
/// uses the no-op clock, so the dumps are byte-stable across runs and
/// machines (timestamps would make `--metrics json` output flaky).
fn obs_flags(a: &Args) -> Result<Option<Obs>> {
    let metrics = match a.get("metrics") {
        None | Some("text") | Some("json") => a.get("metrics"),
        Some(other) => {
            return Err(GdxError::schema(format!(
                "--metrics expects `text` or `json`, got `{other}`"
            )))
        }
    };
    let trace = a
        .get("trace")
        .map(|_| a.get_usize("trace", 0))
        .transpose()?;
    Ok((metrics.is_some() || trace.is_some()).then(Obs::enabled))
}

/// Prints the registry dump and/or trace tail requested by the flags.
/// Runs after the command's own output so results stay script-friendly.
fn emit_obs(a: &Args, session: &ExchangeSession) -> Result<()> {
    let obs = session.obs();
    if !obs.is_enabled() {
        return Ok(());
    }
    match a.get("metrics") {
        Some("json") => println!("{}", obs.render_metrics_json()),
        Some(_) => print!("{}", obs.render_metrics_text()),
        None => {}
    }
    if a.has("trace") {
        print!("{}", obs.render_trace(a.get_usize("trace", 0)?));
    }
    Ok(())
}

fn cmd_chase(argv: &[String]) -> Result<()> {
    let a = Args::parse(argv, &["materialize", "skip-egds", "dot"])?;
    let mut session = load_session(&a)?;
    let pattern = if a.has("skip-egds") {
        chase_st_with_nulls(
            session.instance(),
            session.setting(),
            StChaseVariant::Oblivious,
            NullFactory::starting_at(session.options().null_seed),
        )?
        .pattern
    } else {
        let outcome = session.representative()?.clone();
        match outcome {
            RepresentativeOutcome::Representative(rep) => {
                eprintln!("egd phase: {} merges", session.representative_merges());
                rep.pattern
            }
            RepresentativeOutcome::ChaseFailed => {
                let ((c1, c2), _) = session.representative_failure().ok_or_else(|| {
                    GdxError::schema("the egd chase failed without recording its clash")
                })?;
                println!("CHASE FAILED: constants {c1} and {c2} forced equal — no solution");
                return Ok(());
            }
        }
    };
    if a.has("dot") {
        println!("{}", pattern.to_dot());
    } else {
        print!("{pattern}");
    }
    emit_obs(&a, &session)
}

fn cmd_solve(argv: &[String]) -> Result<()> {
    let a = Args::parse(argv, SOLVER_FLAGS)?;
    let mut session = load_session(&a)?;
    match session.solution_exists()? {
        Existence::Exists(g) => {
            println!("EXISTS");
            print!("{g}");
        }
        Existence::NoSolution => println!("NO SOLUTION"),
        Existence::Unknown(why) => println!("UNKNOWN ({why})"),
    }
    emit_obs(&a, &session)
}

fn cmd_solutions(argv: &[String]) -> Result<()> {
    let a = Args::parse(argv, SOLVER_FLAGS)?;
    let limit = a.get_usize("limit", usize::MAX)?;
    let mut session = load_session(&a)?;
    let mut count = 0usize;
    let mut exhausted = false;
    let mut stream = session.solutions()?;
    while count < limit {
        let Some(g) = stream.next() else {
            exhausted = true;
            break;
        };
        let g = g?;
        count += 1;
        println!("-- solution {count} --");
        print!("{g}");
    }
    if count == 0 && !exhausted {
        println!("no solutions requested (--limit 0)");
    } else if count == 0 {
        println!(
            "no solutions within bounds{}",
            if stream.exact() {
                " (provably none)"
            } else {
                ""
            }
        );
    } else if exhausted && stream.exact() {
        println!("-- family exhausted: these are all minimal solutions --");
    }
    drop(stream);
    emit_obs(&a, &session)
}

fn cmd_check(argv: &[String]) -> Result<()> {
    let a = Args::parse(argv, SOLVER_FLAGS)?;
    let mut session = load_session(&a)?;
    let graph = Graph::parse(&read_file(a.require("graph")?)?)?;
    if session.is_solution(&graph)? {
        println!("SOLUTION");
    } else {
        println!("NOT A SOLUTION");
    }
    emit_obs(&a, &session)
}

fn cmd_certain(argv: &[String]) -> Result<()> {
    let a = Args::parse(argv, SOLVER_FLAGS)?;
    let mut session = load_session(&a)?;
    let nre = gdx_nre::parse::parse_nre(a.require("nre")?)?;
    let pair = a.require("pair")?;
    let (c1, c2) = pair
        .split_once(',')
        .ok_or_else(|| GdxError::schema(format!("--pair expects `c1,c2`, got `{pair}`")))?;
    match session.certain_pair(&nre, c1.trim(), c2.trim())? {
        CertainAnswer::Certain => println!("CERTAIN"),
        CertainAnswer::NotCertain(g) => {
            println!("NOT CERTAIN — counterexample solution:");
            print!("{g}");
        }
        CertainAnswer::Unknown(why) => println!("UNKNOWN ({why})"),
    }
    emit_obs(&a, &session)
}

fn cmd_cert_query(argv: &[String]) -> Result<()> {
    let a = Args::parse(argv, SOLVER_FLAGS)?;
    let mut session = load_session(&a)?;
    let query = PreparedQuery::parse(a.require("cnre")?)?;
    let (rows, exact) = session.certain_answers(&query)?;
    println!(
        "{} certain answer(s){}:",
        rows.len(),
        if exact { "" } else { " (within bounds)" }
    );
    for row in rows {
        let cells: Vec<String> = query
            .variables()
            .iter()
            .zip(&row)
            .map(|(v, n)| format!("{v}={n}"))
            .collect();
        println!("  {}", cells.join(", "));
    }
    emit_obs(&a, &session)
}

/// `gdx explain` — show the access-path plan (materialize vs demand,
/// with the cost estimates behind each choice) the planner picks for a
/// CNRE over the canonical instantiation of the chased representative.
fn cmd_explain(argv: &[String]) -> Result<()> {
    let a = Args::parse(argv, SOLVER_FLAGS)?;
    let format = a.get("format").unwrap_or("text");
    if format != "text" && format != "json" {
        return Err(GdxError::schema(format!(
            "--format expects `text` or `json`, got `{format}`"
        )));
    }
    let mut session = load_session(&a)?;
    let query = PreparedQuery::parse(a.require("cnre")?)?;
    let rep = match session.representative()?.clone() {
        RepresentativeOutcome::Representative(rep) => rep,
        RepresentativeOutcome::ChaseFailed => {
            println!("CHASE FAILED: no solution exists — nothing to plan against");
            return Ok(());
        }
    };
    let graph = instantiate_shortest(&rep.pattern)?;
    let explain = query.explain(&graph, session.options().planner);
    if format == "json" {
        println!("{}", explain.render_json());
    } else {
        println!(
            "graph: canonical instantiation — {} node(s), {} edge(s)",
            graph.node_count(),
            graph.edge_count()
        );
        print!("{}", explain.render_text());
    }
    emit_obs(&a, &session)
}

fn cmd_reduce(argv: &[String]) -> Result<()> {
    let a = Args::parse(argv, &["sameas"])?;
    let cnf = Cnf::from_dimacs(&read_file(a.require("dimacs")?)?)?;
    let flavor = if a.has("sameas") {
        gdx_exchange::reduction::ReductionFlavor::SameAs
    } else {
        gdx_exchange::reduction::ReductionFlavor::Egd
    };
    let red = gdx_exchange::Reduction::from_cnf(&cnf, flavor)?;
    println!(
        "# Theorem 4.1 reduction of {} ({} vars, {} clauses)",
        a.require("dimacs")?,
        cnf.num_vars,
        cnf.clauses.len()
    );
    print!("{}", red.setting);
    println!("\n# fixed instance I_ρ:");
    print!("{}", red.instance);
    Ok(())
}

fn cmd_direct(argv: &[String]) -> Result<()> {
    let a = Args::parse(argv, &["reify"])?;
    let schema = Schema::parse(a.require("schema")?)?;
    let instance = Instance::parse(schema, &read_file(a.require("instance")?)?)?;
    let graph = if a.has("reify") {
        gdx_exchange::direct::direct_map_reified(&instance)
    } else {
        gdx_exchange::direct::direct_map_binary(&instance)?
    };
    print!("{graph}");
    Ok(())
}

fn cmd_sim(argv: &[String]) -> Result<()> {
    let Some(sub) = argv.first() else {
        return Err(GdxError::schema(
            "`gdx sim` needs a subcommand: run | replay (try `gdx help`)",
        ));
    };
    // Ops execute under catch_unwind and panics are recorded as harness
    // failures; the default hook would still spam a backtrace per caught
    // panic, so silence it for the binary (tests keep theirs).
    if !cfg!(test) {
        std::panic::set_hook(Box::new(|_| {}));
    }
    match sub.as_str() {
        "run" => cmd_sim_run(&argv[1..]),
        "replay" => cmd_sim_replay(&argv[1..]),
        other => Err(GdxError::schema(format!(
            "unknown sim subcommand `{other}` (expected run | replay)"
        ))),
    }
}

/// Resolves `--oracle` into the list of oracles to sweep.
fn sim_oracles(a: &Args) -> Result<Vec<gdx_sim::Oracle>> {
    match a.get("oracle") {
        None | Some("all") => Ok(gdx_sim::Oracle::ALL.to_vec()),
        Some(name) => gdx_sim::Oracle::from_name(name)
            .map(|o| vec![o])
            .ok_or_else(|| {
                GdxError::schema(format!(
                    "unknown oracle `{name}` (expected replay | chase-mode | planner | \
                 threads | sat | fork | faults | sandwich | all)"
                ))
            }),
    }
}

fn cmd_sim_run(argv: &[String]) -> Result<()> {
    let a = Args::parse(argv, &[])?;
    let seeds = a.get_usize("seeds", 100)? as u64;
    let start = a.get_usize("start", 0)? as u64;
    let max_failures = a.get_usize("max-failures", 0)?;
    let out_dir = a.get("out").map(str::to_owned);
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| GdxError::schema(format!("cannot create --out {dir}: {e}")))?;
    }
    let mut total = 0usize;
    for oracle in sim_oracles(&a)? {
        let report = gdx_sim::run_campaign(oracle, start, seeds, max_failures);
        println!(
            "oracle {:<10} {:>4} seed(s): {}",
            oracle.name(),
            report.seeds_run,
            if report.failures.is_empty() {
                "clean".to_owned()
            } else {
                format!("{} failure(s)", report.failures.len())
            }
        );
        for f in &report.failures {
            total += 1;
            println!("  seed {}: {}", f.seed, f.original.summary());
            let text = f.repro.to_text();
            match &out_dir {
                Some(dir) => {
                    let path = format!("{dir}/{}-seed{}.repro", oracle.name(), f.seed);
                    std::fs::write(&path, &text)
                        .map_err(|e| GdxError::schema(format!("cannot write {path}: {e}")))?;
                    println!("  shrunk repro written to {path}");
                }
                None => print!("{text}"),
            }
        }
    }
    if total > 0 {
        return Err(GdxError::Internal(format!(
            "simulation found {total} failing seed(s) — shrunk repros above"
        )));
    }
    Ok(())
}

fn cmd_sim_replay(argv: &[String]) -> Result<()> {
    let a = Args::parse(argv, &[])?;
    let text = read_file(a.require("file")?)?;
    match gdx_sim::replay_text(&text).map_err(GdxError::schema)? {
        gdx_sim::Replayed::Clean { recorded } if recorded == "none" => {
            println!("CLEAN — scenario passes all checks");
            Ok(())
        }
        gdx_sim::Replayed::Clean { recorded } => {
            println!("FIXED — recorded failure no longer reproduces:");
            println!("  recorded: {recorded}");
            Ok(())
        }
        gdx_sim::Replayed::Reproduced(f) => {
            println!("REPRODUCED — failure matches the recorded summary:");
            println!("  {}", f.summary());
            Err(GdxError::Internal(
                "recorded failure still reproduces".into(),
            ))
        }
        gdx_sim::Replayed::Diverged { recorded, observed } => {
            println!("DIVERGED — scenario fails differently than recorded:");
            println!("  recorded: {recorded}");
            println!("  observed: {}", observed.summary());
            Err(GdxError::Internal("replay diverged from recording".into()))
        }
    }
}

/// `gdx serve` — boot the HTTP front end and block until killed. The
/// bound address is printed (and flushed) first so harnesses that bind
/// port 0 can read the picked port off stdout.
fn cmd_serve(argv: &[String]) -> Result<()> {
    use std::io::Write;
    let a = Args::parse(argv, SOLVER_FLAGS)?;
    let mut config = gdx_server::ServerConfig::new(a.require("addr")?);
    if let Some(path) = a.get("setting") {
        config.default_setting = Some(read_file(path)?.into());
    }
    if let Some(path) = a.get("instance") {
        config.default_instance = Some(read_file(path)?.into());
    }
    config.workers = a.get_usize("workers", config.workers)?;
    config.max_sessions = a.get_usize("max-sessions", config.max_sessions)?;
    config.queue_depth = a.get_usize("queue-depth", config.queue_depth)?;
    if a.get("default-deadline-ms").is_some() {
        config.default_deadline_micros =
            Some((a.get_usize("default-deadline-ms", 0)? as u64).saturating_mul(1000));
    }
    config.base_options = options(&a)?;
    let handle = gdx_server::serve(config)
        .map_err(|e| GdxError::schema(format!("cannot start server: {e}")))?;
    println!("listening on {}", handle.addr());
    drop(std::io::stdout().flush());
    handle.join();
    Ok(())
}

fn cmd_info(argv: &[String]) -> Result<()> {
    let a = Args::parse(argv, &[])?;
    let configured = threads_flag(&a)?;
    println!("gdx {}", env!("CARGO_PKG_VERSION"));
    println!(
        "detected parallelism: {}",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    match std::env::var("GDX_THREADS") {
        Ok(v) => println!("GDX_THREADS: {v}"),
        Err(_) => println!("GDX_THREADS: (unset)"),
    }
    println!("effective workers: {}", configured.resolve());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_tmp(name: &str, contents: &str) -> String {
        let path = std::env::temp_dir().join(format!("gdx-cli-test-{name}"));
        std::fs::write(&path, contents).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn v(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    /// Each test gets its own files: tests run in parallel and must not
    /// race on a shared temp path.
    fn example_files(tag: &str) -> (String, String) {
        let setting = write_tmp(
            &format!("{tag}-setting.gdx"),
            "source { Flight/3; Hotel/2 }
             target { f; h }
             sttgd Flight(x1, x2, x3), Hotel(x1, x4)
                   -> exists y : (x2, f.f*, y), (y, h, x4), (y, f.f*, x3);
             egd (x1, h, x3), (x2, h, x3) -> x1 = x2;",
        );
        let instance = write_tmp(
            &format!("{tag}-instance.facts"),
            "Flight(01, c1, c2); Flight(02, c3, c2);
             Hotel(01, hx); Hotel(01, hy); Hotel(02, hx);",
        );
        (setting, instance)
    }

    #[test]
    fn chase_and_solve_run() {
        let (s, i) = example_files("chase");
        dispatch(&v(&["chase", "--setting", &s, "--instance", &i])).unwrap();
        dispatch(&v(&[
            "chase",
            "--setting",
            &s,
            "--instance",
            &i,
            "--skip-egds",
        ]))
        .unwrap();
        dispatch(&v(&["solve", "--setting", &s, "--instance", &i])).unwrap();
    }

    #[test]
    fn solutions_stream_runs() {
        let (s, i) = example_files("solutions");
        dispatch(&v(&[
            "solutions",
            "--setting",
            &s,
            "--instance",
            &i,
            "--limit",
            "2",
        ]))
        .unwrap();
    }

    #[test]
    fn check_accepts_g1() {
        let (s, i) = example_files("check");
        let g = write_tmp(
            "g1.graph",
            "(c1, f, _N); (c3, f, _N); (_N, f, c2); (_N, h, hx); (_N, h, hy);",
        );
        dispatch(&v(&[
            "check",
            "--setting",
            &s,
            "--instance",
            &i,
            "--graph",
            &g,
        ]))
        .unwrap();
    }

    #[test]
    fn certain_runs() {
        let (s, i) = example_files("certain");
        dispatch(&v(&[
            "certain",
            "--setting",
            &s,
            "--instance",
            &i,
            "--nre",
            "f.f*.[h].f-.(f-)*",
            "--pair",
            "c1,c3",
        ]))
        .unwrap();
        dispatch(&v(&[
            "cert-query",
            "--setting",
            &s,
            "--instance",
            &i,
            "--cnre",
            "(x, f.f*, y)",
            "--materialize",
        ]))
        .unwrap();
    }

    #[test]
    fn explain_runs() {
        let (s, i) = example_files("explain");
        for fmt in ["text", "json"] {
            dispatch(&v(&[
                "explain",
                "--setting",
                &s,
                "--instance",
                &i,
                "--cnre",
                "(x, f.f*, y), (y, h, \"hx\")",
                "--format",
                fmt,
            ]))
            .unwrap();
        }
        assert!(dispatch(&v(&[
            "explain",
            "--setting",
            &s,
            "--instance",
            &i,
            "--cnre",
            "(x, f, y)",
            "--format",
            "yaml",
        ]))
        .is_err());
    }

    #[test]
    fn metrics_and_trace_flags_run() {
        let (s, i) = example_files("metrics");
        dispatch(&v(&[
            "chase",
            "--setting",
            &s,
            "--instance",
            &i,
            "--metrics",
            "json",
            "--trace",
            "10",
        ]))
        .unwrap();
        dispatch(&v(&[
            "solve",
            "--setting",
            &s,
            "--instance",
            &i,
            "--metrics",
            "text",
        ]))
        .unwrap();
        assert!(dispatch(&v(&[
            "chase",
            "--setting",
            &s,
            "--instance",
            &i,
            "--metrics",
            "csv",
        ]))
        .is_err());
    }

    #[test]
    fn reduce_runs() {
        let f = write_tmp("f.cnf", "p cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n");
        dispatch(&v(&["reduce", "--dimacs", &f])).unwrap();
        dispatch(&v(&["reduce", "--dimacs", &f, "--sameas"])).unwrap();
    }

    #[test]
    fn direct_runs() {
        let i = write_tmp("rel.facts", "knows(a, b); knows(b, c);");
        dispatch(&v(&["direct", "--schema", "knows/2", "--instance", &i])).unwrap();
        dispatch(&v(&[
            "direct",
            "--schema",
            "knows/2",
            "--instance",
            &i,
            "--reify",
        ]))
        .unwrap();
    }

    #[test]
    fn help_and_errors() {
        dispatch(&v(&["help"])).unwrap();
        dispatch(&[]).unwrap();
        assert!(dispatch(&v(&["bogus"])).is_err());
        assert!(dispatch(&v(&["solve", "--setting", "/nonexistent"])).is_err());
    }

    #[test]
    fn sim_run_small_campaign_is_clean() {
        // A handful of seeds per oracle; the dedicated ≥500-seed sweep
        // lives in gdx-sim's own test suite.
        dispatch(&v(&["sim", "run", "--seeds", "3"])).unwrap();
        dispatch(&v(&[
            "sim", "run", "--seeds", "5", "--start", "7", "--oracle", "replay",
        ]))
        .unwrap();
    }

    #[test]
    fn sim_replay_round_trips_a_generated_scenario() {
        let repro = gdx_sim::Repro {
            oracle: gdx_sim::Oracle::Replay,
            failure: "none".to_owned(),
            scenario: gdx_sim::generate(3, gdx_sim::Oracle::Replay),
        };
        let f = write_tmp("clean.repro", &repro.to_text());
        dispatch(&v(&["sim", "replay", "--file", &f])).unwrap();
    }

    #[test]
    fn sim_rejects_bad_invocations() {
        assert!(dispatch(&v(&["sim"])).is_err());
        assert!(dispatch(&v(&["sim", "bogus"])).is_err());
        assert!(dispatch(&v(&["sim", "run", "--oracle", "tea-leaves"])).is_err());
        assert!(dispatch(&v(&["sim", "replay", "--file", "/nonexistent"])).is_err());
        let f = write_tmp("garbage.repro", "not a repro");
        assert!(dispatch(&v(&["sim", "replay", "--file", &f])).is_err());
    }

    #[test]
    fn deadline_flag_runs_and_degrades_gracefully() {
        let (s, i) = example_files("deadline");
        // A zero budget on the real clock truncates (inexact prefix)
        // without erroring; a generous one completes normally.
        for ms in ["0", "10000"] {
            dispatch(&v(&[
                "cert-query",
                "--setting",
                &s,
                "--instance",
                &i,
                "--cnre",
                "(x, f.f*, y)",
                "--deadline-ms",
                ms,
            ]))
            .unwrap();
        }
        dispatch(&v(&[
            "solutions",
            "--setting",
            &s,
            "--instance",
            &i,
            "--limit",
            "2",
            "--deadline-ms",
            "10000",
        ]))
        .unwrap();
        assert!(dispatch(&v(&[
            "cert-query",
            "--setting",
            &s,
            "--instance",
            &i,
            "--cnre",
            "(x, f.f*, y)",
            "--deadline-ms",
            "soon",
        ]))
        .is_err());
    }

    #[test]
    fn info_and_threads_flag() {
        dispatch(&v(&["info"])).unwrap();
        dispatch(&v(&["info", "--threads", "2"])).unwrap();
        let (s, i) = example_files("threads");
        for n in ["1", "2"] {
            dispatch(&v(&[
                "solve",
                "--setting",
                &s,
                "--instance",
                &i,
                "--threads",
                n,
            ]))
            .unwrap();
        }
        assert!(dispatch(&v(&[
            "solve",
            "--threads",
            "x",
            "--setting",
            &s,
            "--instance",
            &i
        ]))
        .is_err());
    }
}
