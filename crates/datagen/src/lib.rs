//! # gdx-datagen
//!
//! Workload generators for the reproduction experiments (DESIGN.md §2's
//! substitution: the paper reports no datasets, so scaled versions of its
//! own running example plus standard random families are used).
//!
//! * [`random_3cnf`] — uniform random 3-CNF (distinct variables per
//!   clause); swept across the clause/variable ratio this exhibits the
//!   classic SAT phase transition around ≈ 4.26, which experiment B1 uses
//!   to stress Theorem 4.1's reduction;
//! * [`flights_hotels`] — scaled Flight/Hotel instances for the
//!   Example 2.2 setting (experiment B3: chase scaling), with a
//!   hotel-sharing knob driving egd merge counts;
//! * [`random_graph`] — uniform random edge-labeled graphs (experiment
//!   B4: NRE evaluation scaling);
//! * [`scenario`] — random *textual* exchange scenarios (settings,
//!   instances, queries, work graphs) for the `gdx-sim` differential
//!   fuzzing harness.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod scenario;

use gdx_graph::Graph;
use gdx_mapping::TargetTgd;
use gdx_query::Cnre;
use gdx_relational::{Instance, Schema};
use gdx_sat::{Cnf, Lit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic RNG for reproducible experiments.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// A uniform random 3-CNF with `num_vars` variables and `num_clauses`
/// clauses; each clause picks 3 *distinct* variables and independent
/// polarities.
pub fn random_3cnf(num_vars: u32, num_clauses: usize, rng: &mut StdRng) -> Cnf {
    assert!(num_vars >= 3, "3-CNF needs at least 3 variables");
    let mut cnf = Cnf::new(num_vars);
    while cnf.clauses.len() < num_clauses {
        let mut vars = [0u32; 3];
        vars[0] = rng.gen_range(0..num_vars);
        loop {
            vars[1] = rng.gen_range(0..num_vars);
            if vars[1] != vars[0] {
                break;
            }
        }
        loop {
            vars[2] = rng.gen_range(0..num_vars);
            if vars[2] != vars[0] && vars[2] != vars[1] {
                break;
            }
        }
        let clause: Vec<Lit> = vars
            .iter()
            .map(|&v| {
                if rng.gen_bool(0.5) {
                    Lit::pos(v)
                } else {
                    Lit::neg(v)
                }
            })
            .collect();
        cnf.add_clause(clause);
    }
    cnf
}

/// Parameters of the Flight/Hotel scenario.
#[derive(Debug, Clone, Copy)]
pub struct FlightsHotelsParams {
    /// Number of flights.
    pub flights: usize,
    /// Number of distinct cities to draw endpoints from.
    pub cities: usize,
    /// Number of distinct hotels.
    pub hotels: usize,
    /// Hotel stays recorded per flight.
    pub stays_per_flight: usize,
}

impl Default for FlightsHotelsParams {
    fn default() -> FlightsHotelsParams {
        FlightsHotelsParams {
            flights: 100,
            cities: 20,
            hotels: 30,
            stays_per_flight: 2,
        }
    }
}

/// Generates a Flight/Hotel instance compatible with
/// `Setting::example_2_2_egd()` / `example_2_2_sameas()` /
/// `example_3_1()`. Fewer hotels relative to flights ⇒ more hotel sharing
/// ⇒ more egd merges in the adapted chase.
#[expect(
    clippy::expect_used,
    reason = "static schema and fixed-arity inserts: the `expect`s can only trip on a generator bug"
)]
pub fn flights_hotels(p: FlightsHotelsParams, rng: &mut StdRng) -> Instance {
    let schema = Schema::from_relations([("Flight", 3), ("Hotel", 2)]).expect("static schema");
    let mut inst = Instance::new(schema);
    for f in 0..p.flights {
        let fid = format!("fl{f}");
        let src = format!("city{}", rng.gen_range(0..p.cities));
        let mut dst = format!("city{}", rng.gen_range(0..p.cities));
        if dst == src {
            dst = format!("city{}", (rng.gen_range(0..p.cities) + 1) % p.cities.max(1));
        }
        inst.insert_strs("Flight", &[&fid, &src, &dst])
            .expect("arity 3");
        for _ in 0..p.stays_per_flight {
            let hotel = format!("hotel{}", rng.gen_range(0..p.hotels.max(1)));
            inst.insert_strs("Hotel", &[&fid, &hotel]).expect("arity 2");
        }
    }
    inst
}

/// A depth-`k` chain of target tgds over fresh labels `l0 … lk`: every
/// `h`-edge demands an `l0`-successor, and every `l{i}`-edge an
/// `l{i+1}`-successor (`i < k-1`). Chasing a Flight/Hotel graph with this
/// set takes `k` rounds of cascading firings — a workload on which the
/// naive round-robin chase and the semi-naive worklist engine differ.
#[expect(
    clippy::expect_used,
    reason = "the tgd bodies/heads are static templates that parse by construction"
)]
pub fn chain_target_tgds(depth: usize) -> Vec<TargetTgd> {
    assert!(depth >= 1);
    let tgd = |body: &str, head: &str| TargetTgd {
        body: Cnre::parse(body).expect("static body"),
        existential: vec![gdx_common::Symbol::new("z")],
        head: Cnre::parse(head).expect("static head"),
    };
    let mut out = vec![tgd("(x, h, y)", "(y, l0, z)")];
    for i in 0..depth.saturating_sub(1) {
        out.push(tgd(
            &format!("(x, l{i}, y)"),
            &format!("(y, l{}, z)", i + 1),
        ));
    }
    out
}

/// A uniform random edge-labeled graph over constant nodes `n0 … n{nodes-1}`
/// and labels `l0 … l{labels-1}`.
pub fn random_graph(nodes: usize, edges: usize, labels: usize, rng: &mut StdRng) -> Graph {
    assert!(nodes > 0 && labels > 0);
    let mut g = Graph::with_capacity(nodes, edges);
    let ids: Vec<_> = (0..nodes).map(|i| g.add_const(&format!("n{i}"))).collect();
    let mut added = 0usize;
    let mut attempts = 0usize;
    while added < edges && attempts < edges * 20 {
        attempts += 1;
        let s = ids[rng.gen_range(0..nodes)];
        let d = ids[rng.gen_range(0..nodes)];
        let l = format!("l{}", rng.gen_range(0..labels));
        if g.add_edge_labelled(s, &l, d) {
            added += 1;
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdx_sat::brute_force;

    #[test]
    fn cnf_shape() {
        let mut r = rng(7);
        let f = random_3cnf(10, 42, &mut r);
        assert_eq!(f.num_vars, 10);
        assert_eq!(f.clauses.len(), 42);
        assert!(f.is_3cnf());
        for c in &f.clauses {
            assert_eq!(c.len(), 3, "distinct variables per clause");
        }
    }

    #[test]
    fn cnf_is_deterministic_per_seed() {
        let a = random_3cnf(8, 20, &mut rng(1));
        let b = random_3cnf(8, 20, &mut rng(1));
        let c = random_3cnf(8, 20, &mut rng(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn phase_transition_direction() {
        // Under-constrained formulas are mostly SAT, over-constrained
        // mostly UNSAT; check the trend with the brute-force oracle.
        let n = 12u32;
        let sat_low: usize = (0..10)
            .filter(|&s| brute_force(&random_3cnf(n, (n as usize) * 2, &mut rng(s))).is_some())
            .count();
        let sat_high: usize = (0..10)
            .filter(|&s| {
                brute_force(&random_3cnf(n, (n as usize) * 7, &mut rng(100 + s))).is_some()
            })
            .count();
        assert!(sat_low >= 8, "ratio 2.0 should be mostly satisfiable");
        assert!(sat_high <= 2, "ratio 7.0 should be mostly unsatisfiable");
    }

    #[test]
    fn flights_hotels_valid_instance() {
        let p = FlightsHotelsParams {
            flights: 50,
            cities: 10,
            hotels: 5,
            stays_per_flight: 2,
        };
        let inst = flights_hotels(p, &mut rng(3));
        assert_eq!(inst.relation_str("Flight").unwrap().len(), 50);
        let stays = inst.relation_str("Hotel").unwrap().len();
        assert!(stays <= 100 && stays > 50, "dedup may drop a few: {stays}");
        // Chases cleanly under the paper's setting.
        let out = gdx_chase::chase_st(
            &inst,
            &gdx_mapping::Setting::example_2_2_egd(),
            gdx_chase::StChaseVariant::Oblivious,
        )
        .unwrap();
        assert!(out.pattern.node_count() > 0);
    }

    #[test]
    fn chain_tgds_chase_in_depth_rounds() {
        let tgds = chain_target_tgds(3);
        assert_eq!(tgds.len(), 3);
        let mut g = Graph::new();
        g.add_edge_consts("n", "h", "hx");
        let out =
            gdx_chase::chase_target_tgds(&g, &tgds, gdx_chase::TgdChaseConfig::default()).unwrap();
        // h → l0 → l1 → l2: one firing per chain level.
        assert_eq!(out.steps, 3);
        assert_eq!(out.graph.edge_count(), 4);
    }

    #[test]
    fn random_graph_shape() {
        let g = random_graph(30, 90, 3, &mut rng(9));
        assert_eq!(g.node_count(), 30);
        assert!(g.edge_count() > 80, "near-target edge count");
        assert!(g.labels().count() <= 3);
    }
}
