//! End-to-end and per-layer benchmark of the gdx exchange pipeline.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads: `exchange_cold`, `sameas_cold`, `query_warm`, `serve` (see
//! `WORKLOADS.md`). With `--trace 0` the run reports the end-to-end
//! metrics; with `--trace 1` it re-runs the workload through the layers'
//! public calls and reports the per-layer metrics. The last line of
//! standard output is the JSON result. A watchdog ends a stuck run with
//! its in-flight ops counted as failed and exit code 3.

mod cold;
mod harness;
mod inputs;
mod serve;
mod stats;
mod trace;
mod warm;

use harness::PROGRESS;
use stats::Report;
use std::sync::mpsc;
use std::time::Duration;

/// A run that has not finished this long after start is stopped (the
/// caller allows 180 s).
const RUN_LIMIT: Duration = Duration::from_secs(165);
/// No op (or set-up step) finishing for this long counts as a hang.
const STALL_LIMIT: Duration = Duration::from_secs(60);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err("--trace takes 0 or 1".into()),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args) -> Report {
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "exchange_cold" => harness::run(seconds, trace, 3, || {
            cold::Cold::new(&cold::EXCHANGE_COLD, seed)
        }),
        "sameas_cold" => harness::run(seconds, trace, 3, || {
            cold::Cold::new(&cold::SAMEAS_COLD, seed)
        }),
        "query_warm" => harness::run(seconds, trace, 3, || warm::Warm::new(seed)),
        "serve" => serve::run(seed, seconds, trace),
        other => unreachable!("workload {other} was validated"),
    }
}

fn main() {
    harness::epoch();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    const WORKLOADS: [&str; 4] = ["exchange_cold", "sameas_cold", "query_warm", "serve"];
    if !WORKLOADS.contains(&args.workload.as_str()) {
        eprintln!(
            "perfbench: unknown workload {:?} (one of {WORKLOADS:?})",
            args.workload
        );
        std::process::exit(2);
    }
    let (tx, rx) = mpsc::channel();
    // The workload runs on its own thread so the watchdog below can stop
    // the process when it hangs; the thread is joined on the normal path.
    let worker = std::thread::spawn(move || {
        let report = run(&args);
        let _ = tx.send(report);
    });
    loop {
        match rx.recv_timeout(Duration::from_millis(200)) {
            Ok(report) => {
                worker.join().expect("workload thread ends cleanly");
                println!("{}", report.to_json());
                std::process::exit(if report.correct { 0 } else { 1 });
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                eprintln!("perfbench: the workload thread panicked");
                std::process::exit(1);
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                let stalled = PROGRESS.idle() > STALL_LIMIT;
                if stalled || harness::epoch().elapsed() > RUN_LIMIT {
                    let (attempted, failed) = PROGRESS.snapshot_as_stuck();
                    eprintln!(
                        "perfbench: watchdog stopped a {} run ({attempted} ops attempted, \
                         {failed} failed or stuck)",
                        if stalled { "stalled" } else { "overlong" }
                    );
                    let report = Report {
                        correct: false,
                        attempted: attempted.max(1),
                        failed: failed.max(1),
                        metrics: Vec::new(),
                    };
                    println!("{}", report.to_json());
                    // Exiting ends the stuck threads with the process.
                    std::process::exit(3);
                }
            }
        }
    }
}
