//! Regenerates every figure/example of the paper (E1–E10) and the
//! empirical complexity tables (T1–T5). The output of this binary is what
//! EXPERIMENTS.md records.
//!
//! Run with `cargo run -p gdx-bench --release --bin paper_experiments`.

use gdx_bench::{
    certain_sweep, chase_sweep, example_2_2, example_5_2, exists_sweep, mean_us, print_table,
    reduction_session,
};
use gdx_common::Term;
use gdx_exchange::exists::construct_solution_no_egds;
use gdx_exchange::reduction::{Reduction, ReductionFlavor};
use gdx_exchange::representative::RepresentativeOutcome;
use gdx_exchange::{is_solution, CertainAnswer, ExchangeSession, Existence, Options};
use gdx_graph::Graph;
use gdx_nre::parse::parse_nre;
use gdx_query::{Cnre, PreparedQuery};
use gdx_sat::{Cnf, Lit};

fn check(id: &str, what: &str, ok: bool) {
    println!("[{}] {:<62} {}", id, what, if ok { "PASS" } else { "FAIL" });
    assert!(ok, "{id}: {what}");
}

fn main() {
    println!("== gdx: paper experiment suite ==");
    println!("Reproducing: Boneva, Bonifati, Ciucanu — Graph Data Exchange");
    println!("with Target Constraints (EDBT/ICDT GraphQ 2015)\n");

    e1_figure_1_solutions();
    e2_example_2_2_query_answers();
    e3_e4_chase_figures();
    e5_theorem_4_1();
    e6_corollary_4_2();
    e7_proposition_4_3();
    e8_figure_5();
    e9_example_5_2();
    e10_proposition_5_3();

    t1_existence_sweep();
    t2_certain_sweep();
    t3_chase_scaling();
    t4_nre_eval();
    t5_ablations();

    println!("\nAll experiments completed.");
}

// ---------------------------------------------------------------- E1 --

fn g1() -> Graph {
    Graph::parse("(c1, f, _N); (c3, f, _N); (_N, f, c2); (_N, h, hx); (_N, h, hy);").unwrap()
}

fn g2() -> Graph {
    // Figure 1(b): the hotel city N2 sits one extra hop away, giving Q the
    // nine answers the paper lists (the four constant pairs plus the five
    // involving N1).
    Graph::parse(
        "(c1, f, _N1); (c3, f, _N1); (_N1, f, _N2);
         (_N2, f, c2); (_N2, h, hx); (_N2, h, hy);",
    )
    .unwrap()
}

fn g3() -> Graph {
    Graph::parse(
        "(c1, f, _N1); (_N1, f, _N2); (_N2, f, c2); (_N2, h, hy); (_N1, h, hy);
         (c3, f, _N3); (_N3, f, c2); (_N3, h, hx); (c1, f, _N3);
         (_N1, sameAs, _N2); (_N2, sameAs, _N1);
         (_N1, sameAs, _N1); (_N2, sameAs, _N2); (_N3, sameAs, _N3);",
    )
    .unwrap()
}

fn e1_figure_1_solutions() {
    println!("-- E1: Figure 1 — solutions under Ω (egd) and Ω′ (sameAs) --");
    let (i, egd, sameas) = example_2_2();
    check(
        "E1",
        "G1 is a solution under Ω",
        is_solution(&i, &egd, &g1()).unwrap(),
    );
    check(
        "E1",
        "G2 is a solution under Ω",
        is_solution(&i, &egd, &g2()).unwrap(),
    );
    check(
        "E1",
        "G3 is a solution under Ω′",
        is_solution(&i, &sameas, &g3()).unwrap(),
    );
    check(
        "E1",
        "G3 is NOT a solution under Ω",
        !is_solution(&i, &egd, &g3()).unwrap(),
    );
    println!();
}

// ---------------------------------------------------------------- E2 --

fn e2_example_2_2_query_answers() {
    println!("-- E2: Example 2.2 — ⟦Q⟧ and certain answers --");
    let (i, egd, sameas) = example_2_2();
    let q = Cnre::single(
        Term::var("x1"),
        parse_nre("f.f*.[h].f-.(f-)*").unwrap(),
        Term::var("x2"),
    );
    let pq = PreparedQuery::new(q.clone());
    let a1 = pq.evaluate(&g1()).unwrap();
    check("E2", "|JQK_G1| = 4", a1.len() == 4);
    let a2 = pq.evaluate(&g2()).unwrap();
    check("E2", "|JQK_G2| = 9 (paper lists 9 pairs)", a2.len() == 9);

    let (cert_egd, _) = ExchangeSession::new(egd.clone(), i.clone())
        .certain_answers(&pq)
        .unwrap();
    check(
        "E2",
        "cert_Ω(Q, I) = {(c1,c1),(c1,c3),(c3,c1),(c3,c3)}",
        cert_egd.len() == 4,
    );
    let (cert_sa, _) = ExchangeSession::new(sameas.clone(), i.clone())
        .certain_answers(&pq)
        .unwrap();
    check(
        "E2",
        "cert_Ω′(Q, I) = {(c1,c1),(c3,c3)}",
        cert_sa.len() == 2,
    );
    println!();
}

// ------------------------------------------------------------ E3, E4 --

fn e3_e4_chase_figures() {
    println!("-- E3/E4: Figures 2 and 3 — chase outputs --");
    use gdx_chase::egd_pattern::adapted_chase;
    use gdx_chase::{chase_st, EgdChaseConfig, StChaseVariant};
    let (i, _, _) = example_2_2();

    // E4: Figure 3 pattern (s-t chase only).
    let st = chase_st(
        &i,
        &gdx_mapping::Setting::example_2_2_egd(),
        StChaseVariant::Oblivious,
    )
    .unwrap();
    check(
        "E4",
        "Figure 3 pattern: 8 nodes (3 nulls), 9 NRE edges",
        st.pattern.node_count() == 8
            && st.pattern.null_count() == 3
            && st.pattern.edge_count() == 9,
    );

    // E3: Figure 2 graph (relational fragment + egd step).
    let out = adapted_chase(
        &i,
        &gdx_mapping::Setting::example_3_1(),
        EgdChaseConfig::default(),
    )
    .unwrap();
    let g = out.pattern().unwrap().to_graph().unwrap();
    let fig2 = Graph::parse(
        "(c1, f, _N1); (_N1, h, hy); (_N1, f, c2);
         (c1, f, _N2); (_N2, h, hx); (_N2, f, c2); (c3, f, _N2);",
    )
    .unwrap();
    check(
        "E3",
        "Figure 2 graph reproduced up to null renaming",
        gdx_graph::is_isomorphic(&g, &fig2),
    );
    println!();
}

// ---------------------------------------------------------------- E5 --

fn rho0() -> Cnf {
    let mut f = Cnf::new(4);
    f.add_clause(vec![Lit::pos(0), Lit::neg(1), Lit::pos(2)]);
    f.add_clause(vec![Lit::neg(0), Lit::pos(2), Lit::neg(3)]);
    f
}

fn e5_theorem_4_1() {
    println!("-- E5: Theorem 4.1 / Figure 4 — 3SAT reduction --");
    let red = Reduction::from_cnf(&rho0(), ReductionFlavor::Egd).unwrap();
    let fig4 = red.solution_from_valuation(&[true, true, false, false]);
    check(
        "E5",
        "Figure 4 graph (t1,t2,f3,f4 loops) is a solution for Ω_ρ0",
        is_solution(&red.instance, &red.setting, &fig4).unwrap(),
    );
    let mut ex = reduction_session(&red, 4);
    let got = ex.solution_exists().unwrap();
    let val = red.valuation_from_solution(got.witness().unwrap()).unwrap();
    check(
        "E5",
        "solver finds a solution and it decodes to a model of ρ0",
        rho0().eval(&val),
    );

    // Unsatisfiable formula ⇒ no solution.
    let mut unsat = Cnf::new(3);
    unsat.add_clause(vec![Lit::pos(0)]);
    unsat.add_clause(vec![Lit::neg(0), Lit::pos(1)]);
    unsat.add_clause(vec![Lit::neg(1)]);
    let red_u = Reduction::from_cnf(&unsat, ReductionFlavor::Egd).unwrap();
    let got = reduction_session(&red_u, 3).solution_exists().unwrap();
    check(
        "E5",
        "unsatisfiable formula ⇒ NoSolution",
        matches!(got, Existence::NoSolution),
    );
    println!();
}

// ---------------------------------------------------------------- E6 --

fn e6_corollary_4_2() {
    println!("-- E6: Corollary 4.2 — cert(a·a) ⇔ unsatisfiability --");
    let red = Reduction::from_cnf(&rho0(), ReductionFlavor::Egd).unwrap();
    let ans = reduction_session(&red, 4)
        .certain_pair(&Reduction::certain_query_egd(), "c1", "c2")
        .unwrap();
    check(
        "E6",
        "ρ0 satisfiable ⇒ (c1,c2) ∉ cert(a·a)",
        matches!(ans, CertainAnswer::NotCertain(_)),
    );

    let mut unsat = Cnf::new(3);
    unsat.add_clause(vec![Lit::pos(0)]);
    unsat.add_clause(vec![Lit::neg(0), Lit::pos(1)]);
    unsat.add_clause(vec![Lit::neg(1)]);
    let red_u = Reduction::from_cnf(&unsat, ReductionFlavor::Egd).unwrap();
    let ans = reduction_session(&red_u, 3)
        .certain_pair(&Reduction::certain_query_egd(), "c1", "c2")
        .unwrap();
    check(
        "E6",
        "unsatisfiable ⇒ (c1,c2) ∈ cert(a·a)",
        ans.is_certain(),
    );
    println!();
}

// ---------------------------------------------------------------- E7 --

fn e7_proposition_4_3() {
    println!("-- E7: Proposition 4.3 — sameAs: easy existence, hard cert --");
    let mut unsat = Cnf::new(3);
    unsat.add_clause(vec![Lit::pos(0)]);
    unsat.add_clause(vec![Lit::neg(0), Lit::pos(1)]);
    unsat.add_clause(vec![Lit::neg(1)]);
    let red = Reduction::from_cnf(&unsat, ReductionFlavor::SameAs).unwrap();
    let g = construct_solution_no_egds(&red.instance, &red.setting, &Options::default()).unwrap();
    check(
        "E7",
        "solutions exist even for unsatisfiable ρ (poly construction)",
        is_solution(&red.instance, &red.setting, &g).unwrap(),
    );
    let ans = reduction_session(&red, 3)
        .certain_pair(&Reduction::certain_query_sameas(), "c1", "c2")
        .unwrap();
    check(
        "E7",
        "unsatisfiable ⇒ (c1,c2) ∈ cert(sameAs)",
        ans.is_certain(),
    );

    let red_s = Reduction::from_cnf(&rho0(), ReductionFlavor::SameAs).unwrap();
    let ans = reduction_session(&red_s, 4)
        .certain_pair(&Reduction::certain_query_sameas(), "c1", "c2")
        .unwrap();
    check(
        "E7",
        "satisfiable ⇒ (c1,c2) ∉ cert(sameAs)",
        matches!(ans, CertainAnswer::NotCertain(_)),
    );
    println!();
}

// ---------------------------------------------------------------- E8 --

fn e8_figure_5() {
    println!("-- E8: Example 5.1 / Figure 5 — adapted chase --");
    use gdx_chase::egd_pattern::adapted_chase;
    use gdx_chase::EgdChaseConfig;
    let (i, egd, _) = example_2_2();
    let out = adapted_chase(&i, &egd, EgdChaseConfig::default()).unwrap();
    let p = out.pattern().unwrap();
    check(
        "E8",
        "Figure 5 pattern: 7 nodes (2 nulls), 7 edges",
        p.node_count() == 7 && p.null_count() == 2 && p.edge_count() == 7,
    );
    println!();
}

// ---------------------------------------------------------------- E9 --

fn e9_example_5_2() {
    println!("-- E9: Example 5.2 — successful chase, yet no solution --");
    let (i, setting) = example_5_2();
    let mut session = ExchangeSession::new(setting.clone(), i.clone());
    let chased = matches!(
        session.representative().unwrap(),
        RepresentativeOutcome::Representative(_)
    );
    check("E9", "the adapted chase succeeds (Figure 6a)", chased);
    let ex = session.solution_exists().unwrap();
    check(
        "E9",
        "yet the solver finds no solution (NoSolution/Unknown, never Exists)",
        !ex.exists(),
    );
    // The Figure 6(b) graph satisfies M_st but is not a solution.
    let g6b = Graph::parse("(c1, a, _N); (_N, a, c2);").unwrap();
    check(
        "E9",
        "the Figure 6(b) graph is not a solution (egd collapses constants)",
        !is_solution(&i, &setting, &g6b).unwrap(),
    );
    println!();
}

// --------------------------------------------------------------- E10 --

fn e10_proposition_5_3() {
    println!("-- E10: Prop. 5.3 / Figure 7 — patterns are not universal --");
    let (i, egd, _) = example_2_2();
    let mut ex = ExchangeSession::new(egd.clone(), i.clone());
    let RepresentativeOutcome::Representative(rep) = ex.representative().unwrap().clone() else {
        panic!("chase succeeds on Example 2.2");
    };
    let fig7 = Graph::parse(
        "(c1, f, _N); (c3, f, _N); (_N, f, c2); (_N, h, hx); (_N, h, hy);
         (c1, h, hx); (c3, h, hy);",
    )
    .unwrap();
    check(
        "E10",
        "Figure 7 ∈ Rep(π): pattern alone admits the non-solution",
        rep.pattern_admits(&fig7),
    );
    check(
        "E10",
        "Figure 7 violates the egd: (pattern, egds) pair rejects it",
        !rep.admits(&fig7).unwrap(),
    );
    check(
        "E10",
        "Figure 7 is indeed not a solution",
        !is_solution(&i, &egd, &fig7).unwrap(),
    );
    println!();
}

// ---------------------------------------------------------------- T1 --

fn t1_existence_sweep() {
    println!("-- T1 (B1): existence of solutions — egd search vs sameAs --");
    println!("   (µs, mean over seeds; search solver validated against DPLL)");
    let ns = [4, 6, 8, 10];
    let ratios = [2.0, 3.0, 4.3, 5.0, 6.0];
    let rows = exists_sweep(&ns, &ratios, 3, 10);
    let mut table = Vec::new();
    for &n in &ns {
        for &ratio in &ratios {
            let cell: Vec<_> = rows
                .iter()
                .filter(|r| r.n == n && (r.ratio - ratio).abs() < 1e-9)
                .collect();
            let sat = cell.iter().filter(|r| r.satisfiable).count();
            table.push(vec![
                n.to_string(),
                format!("{ratio:.1}"),
                format!("{}/{}", sat, cell.len()),
                format!("{:.0}", mean_us(cell.iter().filter_map(|r| r.search_us))),
                format!("{:.0}", mean_us(cell.iter().map(|r| r.encode_us))),
                format!("{:.0}", mean_us(cell.iter().map(|r| r.sameas_us))),
            ]);
        }
    }
    print_table(
        &[
            "n",
            "m/n",
            "sat",
            "egd-search µs",
            "egd-SAT µs",
            "sameAs µs",
        ],
        &table,
    );
    println!();
}

// ---------------------------------------------------------------- T2 --

fn t2_certain_sweep() {
    println!("-- T2 (B2): certain answering of a·a (Corollary 4.2) --");
    let ns = [4, 6, 8];
    let ratios = [2.0, 4.3, 6.0];
    let rows = certain_sweep(&ns, &ratios, 3);
    let mut table = Vec::new();
    for &n in &ns {
        for &ratio in &ratios {
            let cell: Vec<_> = rows
                .iter()
                .filter(|r| r.n == n && (r.ratio - ratio).abs() < 1e-9)
                .collect();
            let certain = cell.iter().filter(|r| r.verdict_certain).count();
            table.push(vec![
                n.to_string(),
                format!("{ratio:.1}"),
                format!("{}/{}", certain, cell.len()),
                format!("{:.0}", mean_us(cell.iter().map(|r| r.certain_us))),
            ]);
        }
    }
    print_table(&["n", "m/n", "certain", "decide µs"], &table);
    println!();
}

// ---------------------------------------------------------------- T3 --

fn t3_chase_scaling() {
    println!("-- T3 (B3): chase scaling on Flight/Hotel --");
    let rows = chase_sweep(&[100, 300, 1000, 3000], 20, 42);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.flights.to_string(),
                r.hotels.to_string(),
                r.pattern_nodes.to_string(),
                r.pattern_edges.to_string(),
                r.st_us.to_string(),
                r.egd_us.to_string(),
                r.merges.to_string(),
                r.final_nodes.to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "flights",
            "hotels",
            "pat nodes",
            "pat edges",
            "st µs",
            "egd µs",
            "merges",
            "final nodes",
        ],
        &table,
    );
    println!();
}

// ---------------------------------------------------------------- T4 --

fn t4_nre_eval() {
    println!("-- T4 (B4): NRE evaluation scaling --");
    use gdx_datagen::{random_graph, rng};
    use std::time::Instant;
    let exprs = [
        ("l0", "single label"),
        ("l0.l1", "concat"),
        ("l0*", "star"),
        ("(l0+l1)*", "union-star"),
        ("l0.[l1].l2-", "test+inverse"),
    ];
    let mut table = Vec::new();
    for &nodes in &[100usize, 300, 1000] {
        let g = random_graph(nodes, nodes * 3, 3, &mut rng(5));
        for (expr, desc) in exprs {
            let r = parse_nre(expr).unwrap();
            let t = Instant::now();
            let rel = gdx_nre::eval::eval(&g, &r);
            let us = t.elapsed().as_micros();
            table.push(vec![
                nodes.to_string(),
                expr.to_string(),
                desc.to_string(),
                rel.len().to_string(),
                us.to_string(),
            ]);
        }
    }
    print_table(&["nodes", "expr", "kind", "|rel|", "eval µs"], &table);
    println!();
}

// ---------------------------------------------------------------- T5 --

fn t5_ablations() {
    println!("-- T5 (B5): ablations --");
    use gdx_chase::{chase_egds_on_pattern, chase_st, EgdChaseConfig, StChaseVariant};
    use gdx_datagen::{flights_hotels, rng, FlightsHotelsParams};
    use gdx_sat::{solve, SolverConfig};
    use std::time::Instant;

    // (i) oblivious vs restricted s-t chase.
    let setting = gdx_mapping::Setting::example_2_2_egd();
    let inst = flights_hotels(
        FlightsHotelsParams {
            flights: 500,
            cities: 50,
            hotels: 60,
            stays_per_flight: 2,
        },
        &mut rng(1),
    );
    let obl = chase_st(&inst, &setting, StChaseVariant::Oblivious).unwrap();
    let res = chase_st(&inst, &setting, StChaseVariant::Restricted).unwrap();
    println!(
        "  st-chase variants: oblivious fired {} triggers ({} edges); \
         restricted fired {} ({} edges)",
        obl.fired,
        obl.pattern.edge_count(),
        res.fired,
        res.pattern.edge_count()
    );

    // (ii) batched vs sequential egd merging.
    let egds: Vec<_> = setting.egds().cloned().collect();
    let t = Instant::now();
    let b = chase_egds_on_pattern(&obl.pattern, &egds, EgdChaseConfig::default()).unwrap();
    let batched_us = t.elapsed().as_micros();
    let t = Instant::now();
    let s = chase_egds_on_pattern(
        &obl.pattern,
        &egds,
        EgdChaseConfig {
            batch_merges: false,
            ..EgdChaseConfig::default()
        },
    )
    .unwrap();
    let seq_us = t.elapsed().as_micros();
    println!(
        "  egd merging: batched {} µs vs sequential {} µs (same final size: {})",
        batched_us,
        seq_us,
        b.pattern().unwrap().node_count() == s.pattern().unwrap().node_count()
    );

    // (ii-b) core retraction of the oblivious chase output.
    let t = Instant::now();
    let (core, folds) = gdx_pattern::retract_core(&obl.pattern);
    println!(
        "  core retraction: {} folds, {} -> {} nodes ({} µs)",
        folds,
        obl.pattern.node_count(),
        core.node_count(),
        t.elapsed().as_micros()
    );

    // (iii) DPLL heuristics on a hard random formula.
    let f = gdx_datagen::random_3cnf(40, 172, &mut rng(13));
    let t = Instant::now();
    let (_, stats_on) = solve(&f, SolverConfig::default());
    let on_us = t.elapsed().as_micros();
    let t = Instant::now();
    let (_, stats_off) = solve(
        &f,
        SolverConfig {
            pure_literal: false,
            frequency_heuristic: false,
            ..SolverConfig::default()
        },
    );
    let off_us = t.elapsed().as_micros();
    println!(
        "  DPLL n=40 m=172: heuristics on {} µs / {} decisions; \
         off {} µs / {} decisions",
        on_us, stats_on.decisions, off_us, stats_off.decisions
    );

    // (iv) search solver vs SAT-encoding solver on one mid-size reduction.
    let cnf = gdx_datagen::random_3cnf(10, 43, &mut rng(3));
    let red = Reduction::from_cnf(&cnf, ReductionFlavor::Egd).unwrap();
    let t = Instant::now();
    let a = reduction_session(&red, 10).solution_exists().unwrap();
    let search_us = t.elapsed().as_micros();
    let t = Instant::now();
    let b2 = gdx_exchange::encode::solution_exists_sat(&red.instance, &red.setting).unwrap();
    let sat_us = t.elapsed().as_micros();
    println!(
        "  existence n=10 ratio 4.3: search {} µs vs SAT-encoding {} µs (agree: {})",
        search_us,
        sat_us,
        a.exists() == b2.exists()
    );
    println!();
}
