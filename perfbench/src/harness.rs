//! The measuring loop shared by the workloads: op accounting visible to
//! the watchdog, closed-loop timing, and the end-to-end metric set.

use crate::stats::{self, metric, Metric, Report};
use crate::trace::Layers;
use gdx_common::Result;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Ops started, finished and failed so far, plus the time of the last
/// finished op — read by the watchdog in `main` while a workload runs.
/// Plain statistics: `Relaxed` is enough, no other data hangs off them.
pub struct Progress {
    started: AtomicU64,
    finished: AtomicU64,
    failed: AtomicU64,
    last_finish_ms: AtomicU64,
}

pub static PROGRESS: Progress = Progress {
    started: AtomicU64::new(0),
    finished: AtomicU64::new(0),
    failed: AtomicU64::new(0),
    last_finish_ms: AtomicU64::new(0),
};

/// Process start, the origin of every watchdog reading.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ms() -> u64 {
    u64::try_from(epoch().elapsed().as_millis()).unwrap_or(u64::MAX)
}

impl Progress {
    pub fn start_op(&self) {
        self.started.fetch_add(1, Ordering::Relaxed);
    }

    pub fn finish_op(&self, ok: bool) {
        if !ok {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        self.finished.fetch_add(1, Ordering::Relaxed);
        self.last_finish_ms.store(now_ms(), Ordering::Relaxed);
    }

    /// Marks set-up progress so a long set-up does not read as a stall.
    pub fn beat(&self) {
        self.last_finish_ms.store(now_ms(), Ordering::Relaxed);
    }

    /// `(attempted, failed)` with every op still in flight counted as
    /// failed — the accounting of a run the watchdog had to stop.
    pub fn snapshot_as_stuck(&self) -> (u64, u64) {
        let started = self.started.load(Ordering::Relaxed);
        let finished = self.finished.load(Ordering::Relaxed);
        let failed = self.failed.load(Ordering::Relaxed);
        (started, failed + started.saturating_sub(finished))
    }

    /// Time since the last finished op (or set-up beat).
    pub fn idle(&self) -> Duration {
        Duration::from_millis(now_ms().saturating_sub(self.last_finish_ms.load(Ordering::Relaxed)))
    }
}

/// What a measured phase produced.
#[derive(Default)]
pub struct Sample {
    /// Wall latency of every timed op, in ms.
    pub latencies_ms: Vec<f64>,
    /// Per client, the 90th-percentile latency of each op position of the
    /// round over the timed ops, in ms.
    pub position_p90_ms: Vec<Vec<f64>>,
    /// Ops attempted / ops whose output matched the expected one, warm-up
    /// included.
    pub attempted: u64,
    pub ok: u64,
    /// Wall time of the timed part of the phase.
    pub wall_s: f64,
}

impl Sample {
    pub fn merge(&mut self, other: Sample) {
        self.latencies_ms.extend(other.latencies_ms);
        self.position_p90_ms.extend(other.position_p90_ms);
        self.attempted += other.attempted;
        self.ok += other.ok;
    }
}

/// The end of an op's timed part. An op that checks its output calls
/// [`Lap::stop`] first, so the check stays out of its latency.
#[derive(Default)]
pub struct Lap {
    end: Option<Instant>,
}

impl Lap {
    pub fn stop(&mut self) {
        self.end.get_or_insert_with(Instant::now);
    }
}

/// Untimed warm-up before an untraced measurement: the first ops after a
/// set-up run slower (page faults, cold caches, server threads waking).
pub const WARMUP_S: f64 = 1.0;

/// Runs `op(i, lap)` for i = 0, 1, … one after another: whole rounds for
/// `warmup_s` seconds, whose outputs are checked but not timed, then
/// whole rounds for `seconds`, timed. Stopping only at a multiple of
/// `round` ops weighs every input of a round equally. `op` returns
/// whether its output was the expected one.
pub fn closed_loop(
    warmup_s: f64,
    seconds: f64,
    round: usize,
    mut op: impl FnMut(usize, &mut Lap) -> bool,
) -> Sample {
    let round = round.max(1);
    let mut by_position: Vec<Vec<f64>> = vec![Vec::new(); round];
    let mut sample = Sample::default();
    let mut i = 0;
    let mut timed_from = None;
    let warm = Instant::now();
    loop {
        if i % round == 0 {
            match timed_from {
                None if warm.elapsed().as_secs_f64() >= warmup_s => {
                    timed_from = Some(Instant::now());
                }
                Some(t0) if t0.elapsed().as_secs_f64() >= seconds => break,
                _ => {}
            }
        }
        PROGRESS.start_op();
        let t = Instant::now();
        let mut lap = Lap::default();
        let ok = op(i, &mut lap);
        lap.stop();
        let end = lap.end.unwrap_or_else(Instant::now);
        if timed_from.is_some() {
            let ms = (end - t).as_secs_f64() * 1e3;
            sample.latencies_ms.push(ms);
            by_position[i % round].push(ms);
        }
        PROGRESS.finish_op(ok);
        sample.attempted += 1;
        sample.ok += u64::from(ok);
        i += 1;
    }
    sample.wall_s = timed_from.map_or(0.0, |t0| t0.elapsed().as_secs_f64());
    sample.position_p90_ms.push(
        by_position
            .iter()
            .map(|v| stats::quantile(v, 0.9))
            .collect(),
    );
    sample
}

/// Times `reps` independent set-ups and keeps the last one's product.
pub fn timed_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        // Drop the previous product first: set-ups must not overlap in
        // memory, or peak RSS would count two of them.
        drop(last.take());
        let t = Instant::now();
        let built = build();
        times.push(t.elapsed().as_secs_f64());
        PROGRESS.beat();
        last = Some(built);
    }
    (last.expect("at least one set-up ran"), times)
}

/// The end-to-end metric set of an untraced run. Also prints a readable
/// summary (tail percentile and sample count included) above the result
/// line.
///
/// The host's speed shifts by up to 1.6x over seconds to minutes, and a
/// run may or may not see its fast spells, so whole-run medians follow
/// the host more than the program. Every run does see the host's
/// usual, contended speed, and the upper part of each op's latencies
/// lies there. `op_p90_ms` is therefore the median, over the op positions
/// of a round (every client's on `serve`), of each position's
/// 90th-percentile latency: how long a typical op takes 9 times in 10.
/// `tail_ms` is the 11th largest latency of all timed ops.
pub fn end_to_end(setup_s: &[f64], sample: &Sample) -> Vec<Metric> {
    let ok_share = sample.ok as f64 / sample.attempted.max(1) as f64;
    let p90s: Vec<f64> = sample.position_p90_ms.iter().flatten().copied().collect();
    let (tail_ms, tail_pct) = stats::tail(&sample.latencies_ms);
    let m = vec![
        metric("setup_s", stats::median(setup_s), "s"),
        metric("op_p90_ms", stats::median(&p90s), "ms"),
        metric("tail_ms", tail_ms, "ms"),
        metric("peak_rss_mb", stats::peak_rss_mb(), "MiB"),
        metric("ok_share", ok_share, "ratio"),
    ];
    let timed = sample.latencies_ms.len();
    println!(
        "ops {} (ok {}), {timed} timed in {:.2} s, {:.2} ops/s; median of timed ops {:.3} ms; \
         tail_ms is p{:.2} of {timed} samples; set-ups {:?} s",
        sample.attempted,
        sample.ok,
        sample.wall_s,
        timed as f64 / sample.wall_s.max(1e-9),
        stats::median(&sample.latencies_ms),
        tail_pct,
        setup_s
    );
    for (c, p) in sample.position_p90_ms.iter().enumerate() {
        let row: Vec<String> = p.iter().map(|x| format!("{x:.2}")).collect();
        println!(
            "p90 ms by position in the round (client {c}): {}",
            row.join(" ")
        );
    }
    m
}

/// A workload whose ops run one after another on one thread: the
/// program's op, its layer-by-layer mirror, and the output check.
pub trait Workload {
    /// The comparable output of one op.
    type Out: PartialEq;

    /// Ops per round of the fixed op stream (runs stop at round ends).
    fn round(&self) -> usize;

    /// Op `i` through the program's public session API.
    fn op(&mut self, i: usize) -> Result<Self::Out>;

    /// Op `i` again, through the layers' public calls in the order the
    /// session makes them, timing each layer into `layers`.
    fn traced_op(&mut self, i: usize, layers: &mut Layers) -> Result<Self::Out>;

    /// Does `out` equal the expected output of op `i`?
    fn check(&self, i: usize, out: &Self::Out) -> bool;
}

/// Reports an op error on stderr (the first few only) and fails the op.
pub fn failed(what: &str, err: &dyn std::fmt::Display) -> bool {
    static SHOWN: AtomicU64 = AtomicU64::new(0);
    if SHOWN.fetch_add(1, Ordering::Relaxed) < 5 {
        eprintln!("{what} failed: {err}");
    }
    false
}

/// Runs a sequential workload for `seconds`. Untraced: `setup_reps`
/// timed set-ups, then the end-to-end metrics. Traced: one set-up, half
/// the time through the program's ops (keeping their outputs), half
/// through the mirror, whose outputs must equal both the expected ones
/// and the program's; the per-layer metrics come from the mirror.
pub fn run<W: Workload>(
    seconds: f64,
    trace: bool,
    setup_reps: usize,
    mut build: impl FnMut() -> W,
) -> Report {
    if !trace {
        let (mut w, setup_s) = timed_setup(setup_reps, &mut build);
        let sample = closed_loop(WARMUP_S, seconds, w.round(), |i, lap| {
            let out = w.op(i);
            lap.stop();
            match out {
                Ok(out) => w.check(i, &out) || failed("output check", &format!("op {i}")),
                Err(e) => failed("op", &e),
            }
        });
        return Report {
            correct: sample.ok == sample.attempted,
            attempted: sample.attempted,
            failed: sample.attempted - sample.ok,
            metrics: end_to_end(&setup_s, &sample),
        };
    }
    let mut w = build();
    PROGRESS.beat();
    let round = w.round();
    let mut program_out: Vec<Option<W::Out>> = Vec::new();
    let untraced = closed_loop(0.0, seconds / 2.0, round, |i, lap| match w.op(i) {
        Ok(out) => {
            lap.stop();
            let ok = w.check(i, &out) || failed("output check", &format!("op {i}"));
            program_out.push(Some(out));
            ok
        }
        Err(e) => {
            program_out.push(None);
            failed("op", &e)
        }
    });
    let mut layers = Layers::default();
    let traced = closed_loop(0.0, seconds / 2.0, round, |i, lap| {
        match w.traced_op(i, &mut layers) {
            Ok(out) => {
                lap.stop();
                let same = program_out.get(i).is_none_or(|p| p.as_ref() == Some(&out));
                (same && w.check(i, &out)) || failed("traced output check", &format!("op {i}"))
            }
            Err(e) => failed("traced op", &e),
        }
    });
    let traced_ms: f64 = traced.latencies_ms.iter().sum();
    layers.set(
        "trace.layer_share",
        layers.exchange_ms() / traced_ms.max(1e-9),
    );
    let overhead = stats::median(&traced.latencies_ms) - stats::median(&untraced.latencies_ms);
    layers.set("trace.overhead_ms", overhead);
    finish_traced(untraced, traced, &layers)
}

/// The report of a traced run from its untraced and traced phases.
pub fn finish_traced(untraced: Sample, traced: Sample, layers: &Layers) -> Report {
    println!(
        "untraced ops {} p50 {:.3} ms; traced ops {} p50 {:.3} ms; layer share {:.3}",
        untraced.attempted,
        stats::median(&untraced.latencies_ms),
        traced.attempted,
        stats::median(&traced.latencies_ms),
        layers.get("trace.layer_share"),
    );
    let attempted = untraced.attempted + traced.attempted;
    let ok = untraced.ok + traced.ok;
    Report {
        correct: ok == attempted,
        attempted,
        failed: attempted - ok,
        metrics: layers.metrics(traced.latencies_ms.len() as u64),
    }
}
