//! Per-layer accounting of the traced run: wall time spent inside each
//! layer's public calls and the work counts they report, summed over the
//! traced ops and reported per op.

use crate::stats::{metric, Metric};
use std::collections::BTreeMap;
use std::time::Instant;

/// How a per-layer metric is reported: a sum divided by the traced op
/// count (times a unit factor), the ratio of two sums (with its unit), or
/// a value the workload sets directly.
#[derive(Clone, Copy)]
enum Kind {
    PerOp(&'static str, f64),
    Share(&'static str, &'static str, &'static str),
    Direct(&'static str),
}

/// Wall time inside a layer's calls, summed in ms: ms per op.
const MS: Kind = Kind::PerOp("ms", 1.0);
/// The same sum reported in µs per op.
const US: Kind = Kind::PerOp("us", 1e3);
/// A work count per op.
const COUNT: Kind = Kind::PerOp("count", 1.0);
const RATIO: Kind = Kind::Direct("ratio");

/// Every per-layer metric, in `BENCHMARK.json` order. Each traced run
/// reports all of them; a layer the workload never calls reads 0.
const PER_LAYER: &[(&str, Kind)] = &[
    ("chase.st_ms", MS),
    ("chase.egd_pattern_ms", MS),
    ("chase.egd_merges", COUNT),
    ("chase.sameas_ms", MS),
    ("chase.tgd_ms", MS),
    ("chase.tgd_steps", COUNT),
    ("chase.tgd_body_rows", COUNT),
    ("chase.null_births", COUNT),
    ("pattern.instantiate_ms", MS),
    ("pattern.candidates", COUNT),
    ("exchange.compile_ms", MS),
    ("exchange.repair_ms", MS),
    ("exchange.verify_st_ms", MS),
    ("exchange.verify_target_ms", MS),
    (
        "exchange.solutions_per_candidate",
        Kind::Share("exchange.solutions", "pattern.candidates", "ratio"),
    ),
    ("exchange.certain_residual_ms", MS),
    ("exchange.lower_bound_ms", MS),
    ("query.eval_ms", MS),
    ("query.probe_ms", MS),
    ("query.constant_rows_ms", MS),
    ("query.rows_out", COUNT),
    ("query.rows_kept", COUNT),
    ("nre.demand_visits", COUNT),
    ("nre.bfs_runs", COUNT),
    ("server.parse_us", US),
    ("server.handle_ms", MS),
    (
        "server.is_solution.handle_ms",
        Kind::Share(
            "server.is_solution.handle_sum",
            "server.is_solution.requests",
            "ms",
        ),
    ),
    (
        "server.certain.handle_ms",
        Kind::Share("server.certain.handle_sum", "server.certain.requests", "ms"),
    ),
    (
        "server.certain_answers.handle_ms",
        Kind::Share(
            "server.certain_answers.handle_sum",
            "server.certain_answers.requests",
            "ms",
        ),
    ),
    (
        "server.certain_answers_bin.handle_ms",
        Kind::Share(
            "server.certain_answers_bin.handle_sum",
            "server.certain_answers_bin.requests",
            "ms",
        ),
    ),
    (
        "server.solutions.handle_ms",
        Kind::Share(
            "server.solutions.handle_sum",
            "server.solutions.requests",
            "ms",
        ),
    ),
    ("server.net_ms", MS),
    (
        "server.pool_hit_share",
        Kind::Share("server.pool_hits", "server.pool_lookups", "ratio"),
    ),
    ("server.pool_evictions", COUNT),
    ("trace.layer_share", RATIO),
    ("trace.overhead_ms", Kind::Direct("ms")),
];

/// Layer time metrics that partition a cold or warm exchange op: their
/// sum over the op's wall time is `trace.layer_share`. (Server times
/// overlap the exchange layers they call, so they are not summed.)
const EXCHANGE_LAYERS: &[&str] = &[
    "chase.st_ms",
    "chase.egd_pattern_ms",
    "chase.sameas_ms",
    "chase.tgd_ms",
    "pattern.instantiate_ms",
    "exchange.compile_ms",
    "exchange.repair_ms",
    "exchange.verify_st_ms",
    "exchange.verify_target_ms",
    "exchange.certain_residual_ms",
    "exchange.lower_bound_ms",
    "query.eval_ms",
    "query.probe_ms",
    "query.constant_rows_ms",
];

/// Layer sums of one traced run.
#[derive(Default)]
pub struct Layers {
    sums: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Runs `f`, adding its wall time (ms) to `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.add(name, t.elapsed().as_secs_f64() * 1e3);
        r
    }

    /// Adds `v` to `name` (ms for time metrics, units for counts).
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_insert(0.0) += v;
    }

    /// Sets a directly reported metric.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.sums.insert(name, v);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// Summed exchange-layer time (ms) over all traced ops.
    pub fn exchange_ms(&self) -> f64 {
        EXCHANGE_LAYERS.iter().map(|n| self.get(n)).sum()
    }

    /// The per-layer metrics, per traced op.
    pub fn metrics(&self, ops: u64) -> Vec<Metric> {
        let ops = ops.max(1) as f64;
        PER_LAYER
            .iter()
            .map(|&(name, kind)| {
                let sum = self.get(name);
                match kind {
                    Kind::PerOp(unit, factor) => metric(name, sum * factor / ops, unit),
                    Kind::Share(num, den, unit) => {
                        metric(name, self.get(num) / self.get(den).max(1.0), unit)
                    }
                    Kind::Direct(unit) => metric(name, sum, unit),
                }
            })
            .collect()
    }
}
