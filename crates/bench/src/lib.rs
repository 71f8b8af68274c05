//! # gdx-bench
//!
//! Shared measurement harness behind (a) the `paper_experiments` binary,
//! which regenerates every figure/example of the paper plus the scaling
//! tables T1–T5 recorded in EXPERIMENTS.md, and (b) the Criterion benches.
//!
//! Experiment ids follow DESIGN.md §4: `E*` are exact reproductions of
//! paper artifacts, `B*`/`T*` are the empirical complexity experiments.

#![forbid(unsafe_code)]

use gdx_datagen::{flights_hotels, random_3cnf, rng, FlightsHotelsParams};
use gdx_exchange::reduction::{Reduction, ReductionFlavor};
use gdx_exchange::{encode, CertainAnswer, ExchangeSession, Existence, Options};
use gdx_mapping::Setting;
use gdx_pattern::InstantiationConfig;
use gdx_relational::Instance;
use gdx_sat::{solve, SatResult, SolverConfig};
use std::time::Instant;

/// The paper's query from Example 2.2 — the NRE the demand-driven bench
/// groups evaluate with bound endpoints.
pub const PAPER_QUERY: &str = "f.f*.[h].f-.(f-)*";

/// The shared fixture of the PR-2 `demand_driven` bench groups: the
/// instantiated chase graph of a Flight/Hotel instance with `flights`
/// flights over `flights/5` cities and hotels (seed 42). One definition,
/// so the cross-bench speedup comparisons in `BENCH_pr2.json` cannot
/// drift apart.
pub fn paper_flight_graph(flights: usize) -> gdx_graph::Graph {
    use gdx_chase::{chase_st, StChaseVariant};
    let setting = Setting::example_2_2_egd();
    let inst = flights_hotels(
        FlightsHotelsParams {
            flights,
            cities: (flights / 5).max(4),
            hotels: flights / 5,
            stays_per_flight: 2,
        },
        &mut rng(42),
    );
    let st = chase_st(&inst, &setting, StChaseVariant::Oblivious).expect("st chase");
    gdx_pattern::instantiate_shortest(&st.pattern).expect("instantiation")
}

/// Raises the candidate-family caps so the search solver is exact for a
/// reduction over `n` variables (family size `2^n`).
pub fn solver_config_for_reduction(n: u32) -> Options {
    let cap = 1usize << n.min(20);
    Options {
        instantiation: InstantiationConfig {
            max_graphs: cap.saturating_add(8),
            ..InstantiationConfig::default()
        },
        ..Options::default()
    }
}

/// A session over a reduction with exact bounds for `n` variables.
pub fn reduction_session(red: &Reduction, n: u32) -> ExchangeSession {
    ExchangeSession::new(red.setting.clone(), red.instance.clone())
        .with_options(solver_config_for_reduction(n))
}

/// One row of the existence sweep (T1).
#[derive(Debug, Clone)]
pub struct ExistsRow {
    /// Propositional variables.
    pub n: u32,
    /// Clause/variable ratio.
    pub ratio: f64,
    /// Ground truth (DPLL on the formula).
    pub satisfiable: bool,
    /// Wall time of the bounded-search solver (µs); `None` when skipped.
    pub search_us: Option<u128>,
    /// Wall time of the SAT-encoding solver (µs).
    pub encode_us: u128,
    /// Wall time of the sameAs-flavor polynomial construction (µs).
    pub sameas_us: u128,
}

/// Runs the Theorem 4.1 / Proposition 4.3 existence sweep: for each
/// `(n, ratio)` cell, one random 3-CNF per seed. `search_cutoff_n` bounds
/// the exponential search solver (the SAT-encoding and sameAs paths run
/// at every size).
pub fn exists_sweep(
    ns: &[u32],
    ratios: &[f64],
    seeds: u64,
    search_cutoff_n: u32,
) -> Vec<ExistsRow> {
    let mut rows = Vec::new();
    for &n in ns {
        for &ratio in ratios {
            let m = ((n as f64) * ratio).round() as usize;
            for seed in 0..seeds {
                let mut r = rng(seed * 7919 + n as u64 * 31 + (ratio * 100.0) as u64);
                let cnf = random_3cnf(n, m, &mut r);
                let (sat_res, _) = solve(&cnf, SolverConfig::default());
                let satisfiable = sat_res.is_sat();

                let red = Reduction::from_cnf(&cnf, ReductionFlavor::Egd).expect("3-CNF reduction");

                let search_us = if n <= search_cutoff_n {
                    let t = Instant::now();
                    let ex = reduction_session(&red, n)
                        .solution_exists()
                        .expect("search solver");
                    let us = t.elapsed().as_micros();
                    assert_eq!(
                        ex.exists(),
                        satisfiable,
                        "search solver disagrees with SAT on n={n} ratio={ratio} seed={seed}"
                    );
                    Some(us)
                } else {
                    None
                };

                let t = Instant::now();
                let ex = encode::solution_exists_sat(&red.instance, &red.setting)
                    .expect("encodable fragment");
                let encode_us = t.elapsed().as_micros();
                assert_eq!(ex.exists(), satisfiable, "encoder disagrees with SAT");

                let red_sa =
                    Reduction::from_cnf(&cnf, ReductionFlavor::SameAs).expect("3-CNF reduction");
                let t = Instant::now();
                let g = gdx_exchange::exists::construct_solution_no_egds(
                    &red_sa.instance,
                    &red_sa.setting,
                    &Options::default(),
                )
                .expect("sameAs solutions always exist");
                let sameas_us = t.elapsed().as_micros();
                debug_assert!(g.node_count() >= 2);

                rows.push(ExistsRow {
                    n,
                    ratio,
                    satisfiable,
                    search_us,
                    encode_us,
                    sameas_us,
                });
            }
        }
    }
    rows
}

/// One row of the certain-answer sweep (T2).
#[derive(Debug, Clone)]
pub struct CertainRow {
    /// Propositional variables.
    pub n: u32,
    /// Clause/variable ratio.
    pub ratio: f64,
    /// Ground truth: unsatisfiable ⇔ (c1,c2) certain (Corollary 4.2).
    pub unsatisfiable: bool,
    /// Wall time of the certain-answer decision (µs).
    pub certain_us: u128,
    /// The verdict agreed with Corollary 4.2.
    pub verdict_certain: bool,
}

/// Corollary 4.2 sweep: decide `(c1,c2) ∈ cert(a·a)` via counterexample
/// enumeration; validated against DPLL.
pub fn certain_sweep(ns: &[u32], ratios: &[f64], seeds: u64) -> Vec<CertainRow> {
    let mut rows = Vec::new();
    for &n in ns {
        for &ratio in ratios {
            let m = ((n as f64) * ratio).round() as usize;
            for seed in 0..seeds {
                let mut r = rng(seed * 104729 + n as u64 * 13 + (ratio * 100.0) as u64);
                let cnf = random_3cnf(n, m, &mut r);
                let (sat_res, _) = solve(&cnf, SolverConfig::default());
                let unsat = matches!(sat_res, SatResult::Unsat);
                let red = Reduction::from_cnf(&cnf, ReductionFlavor::Egd).expect("3-CNF reduction");
                let t = Instant::now();
                let ans = reduction_session(&red, n)
                    .certain_pair(&Reduction::certain_query_egd(), "c1", "c2")
                    .expect("certain decision");
                let certain_us = t.elapsed().as_micros();
                let verdict = matches!(ans, CertainAnswer::Certain);
                assert_eq!(
                    verdict, unsat,
                    "Corollary 4.2 violated on n={n} ratio={ratio} seed={seed}"
                );
                rows.push(CertainRow {
                    n,
                    ratio,
                    unsatisfiable: unsat,
                    certain_us,
                    verdict_certain: verdict,
                });
            }
        }
    }
    rows
}

/// One row of the chase-scaling sweep (T3).
#[derive(Debug, Clone)]
pub struct ChaseRow {
    /// Flights in the instance.
    pub flights: usize,
    /// Hotels (sharing knob).
    pub hotels: usize,
    /// Pattern size after the s-t phase.
    pub pattern_nodes: usize,
    /// Pattern edges after the s-t phase.
    pub pattern_edges: usize,
    /// s-t chase wall time (µs).
    pub st_us: u128,
    /// Adapted egd chase wall time (µs).
    pub egd_us: u128,
    /// Node merges performed by the egd phase.
    pub merges: usize,
    /// Pattern nodes after the egd phase.
    pub final_nodes: usize,
}

/// Chase scaling on the Flight/Hotel scenario (B3).
pub fn chase_sweep(sizes: &[usize], hotels_per_100: usize, seed: u64) -> Vec<ChaseRow> {
    use gdx_chase::{chase_egds_on_pattern, chase_st, EgdChaseConfig, StChaseVariant};
    let setting = Setting::example_2_2_egd();
    let egds: Vec<_> = setting.egds().cloned().collect();
    let mut rows = Vec::new();
    for &flights in sizes {
        let params = FlightsHotelsParams {
            flights,
            cities: (flights / 5).max(4),
            hotels: (flights * hotels_per_100 / 100).max(2),
            stays_per_flight: 2,
        };
        let inst = flights_hotels(params, &mut rng(seed));
        let t = Instant::now();
        let st = chase_st(&inst, &setting, StChaseVariant::Oblivious).expect("st chase");
        let st_us = t.elapsed().as_micros();
        let (pn, pe) = (st.pattern.node_count(), st.pattern.edge_count());
        let t = Instant::now();
        let out = chase_egds_on_pattern(&st.pattern, &egds, EgdChaseConfig::default())
            .expect("egd chase");
        let egd_us = t.elapsed().as_micros();
        let (merges, final_nodes) = match &out {
            gdx_chase::EgdChaseOutcome::Success { pattern, merges } => {
                (*merges, pattern.node_count())
            }
            gdx_chase::EgdChaseOutcome::Failed { merges, .. } => (*merges, 0),
        };
        rows.push(ChaseRow {
            flights,
            hotels: params.hotels,
            pattern_nodes: pn,
            pattern_edges: pe,
            st_us,
            egd_us,
            merges,
            final_nodes,
        });
    }
    rows
}

/// Pretty-prints an aligned text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(
        &widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<String>>(),
    );
    for row in rows {
        line(row);
    }
}

/// Geometric-ish mean of microsecond samples (0 treated as 1 µs floor).
pub fn mean_us(samples: impl IntoIterator<Item = u128>) -> f64 {
    let v: Vec<u128> = samples.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.iter().map(|&x| x as f64).sum::<f64>() / v.len() as f64
}

/// Shared helper: the paper's Example 2.2 instance plus setting pair.
pub fn example_2_2() -> (Instance, Setting, Setting) {
    (
        Instance::example_2_2(),
        Setting::example_2_2_egd(),
        Setting::example_2_2_sameas(),
    )
}

/// The Example 5.2 setting with its two-constant instance.
pub fn example_5_2() -> (Instance, Setting) {
    let setting = Setting::example_5_2();
    let schema = setting.source.clone();
    (
        Instance::parse(schema, "R(c1); P(c2);").expect("static instance"),
        setting,
    )
}

/// Count of minimal solutions for a reduction (≙ number of satisfying
/// valuation-shaped candidates) — used by the ablation bench.
pub fn reduction_solution_count(red: &Reduction, n: u32) -> usize {
    let mut session = reduction_session(red, n);
    let stream = session.solutions().expect("enumeration");
    stream.inspect(|g| assert!(g.is_ok(), "candidate")).count()
}

/// Existence via the search solver, panicking on `Unknown` (bench-only).
pub fn must_decide(instance: &Instance, setting: &Setting, cfg: &Options) -> bool {
    let verdict = ExchangeSession::new(setting.clone(), instance.clone())
        .with_options(*cfg)
        .solution_exists()
        .expect("solver");
    match verdict {
        Existence::Exists(_) => true,
        Existence::NoSolution => false,
        Existence::Unknown(r) => panic!("expected exact decision, got Unknown: {r}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exists_sweep_small_agrees() {
        let rows = exists_sweep(&[4, 6], &[2.0, 6.0], 2, 6);
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert!(r.search_us.is_some());
        }
        // Low ratio mostly SAT, high mostly UNSAT.
        let low_sat = rows
            .iter()
            .filter(|r| r.ratio == 2.0 && r.satisfiable)
            .count();
        let high_sat = rows
            .iter()
            .filter(|r| r.ratio == 6.0 && r.satisfiable)
            .count();
        assert!(low_sat >= high_sat);
    }

    #[test]
    fn certain_sweep_small_agrees() {
        let rows = certain_sweep(&[4], &[3.0], 2);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert_eq!(r.unsatisfiable, r.verdict_certain);
        }
    }

    #[test]
    fn chase_sweep_grows_linearly_in_inputs() {
        let rows = chase_sweep(&[50, 100], 20, 11);
        assert_eq!(rows.len(), 2);
        assert!(rows[1].pattern_edges > rows[0].pattern_edges);
        assert!(rows[0].merges > 0, "shared hotels must force merges");
        for r in &rows {
            assert!(r.final_nodes <= r.pattern_nodes);
        }
    }

    #[test]
    fn reduction_solution_count_matches_models() {
        // x0 ∨ x1 has 3 satisfying assignments.
        let mut f = gdx_sat::Cnf::new(2);
        f.add_clause(vec![gdx_sat::Lit::pos(0), gdx_sat::Lit::pos(1)]);
        let red = Reduction::from_cnf(&f, ReductionFlavor::Egd).unwrap();
        assert_eq!(reduction_solution_count(&red, 2), 3);
    }
}
