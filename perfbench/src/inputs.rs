//! Seeded inputs and reference answers shared by the workloads.
//!
//! Every input derives from the run's `--seed`; the program under test
//! sees only the generated settings, instances and queries. Reference
//! answers come from a path that bypasses the query layer: each solution
//! graph is evaluated with the plain relational NRE evaluator
//! (`gdx_nre::eval`), not with the planner and demand evaluator the
//! session uses, and the constant rows are intersected here.

use gdx_common::Term;
use gdx_datagen::FlightsHotelsParams;
use gdx_exchange::{ExchangeSession, Options, Threads};
use gdx_graph::{Graph, Node};
use gdx_mapping::Setting;
use gdx_query::PreparedQuery;
use gdx_relational::Instance;
use std::collections::BTreeSet;

/// The paper's query of Example 2.2: pairs of cities joined by flights
/// through a shared hotel stop.
pub const PAPER_QUERY: &str = "(x1, f.f*.[h].f-.(f-)*, x2)";

/// The paper's Example 2.2 setting `Ω` (s-t tgd plus the hotel egd).
pub fn setting_egd() -> Setting {
    Setting::example_2_2_egd()
}

/// `Ω′` plus a target tgd: the sameAs constraint of Example 2.2 and
/// `(x, h, y) → ∃z (y, svc, z)` (every hotel stop offers some service).
/// Exercises the sameAs saturator and the target-tgd chase.
pub fn setting_sameas_tgd() -> Setting {
    gdx_mapping::dsl::parse_setting(
        "source { Flight/3; Hotel/2 }
         target { f; h; svc }
         sttgd Flight(x1, x2, x3), Hotel(x1, x4)
               -> exists y : (x2, f.f*, y), (y, h, x4), (y, f.f*, x3);
         sameas (x1, h, x3), (x2, h, x3) -> (x1, x2);
         tgd (x, h, y) -> exists z : (y, svc, z);",
    )
    .expect("static setting parses")
}

/// Session options of every workload: one runtime worker (see
/// `WORKLOADS.md` — the multi-worker pool can deadlock) and a candidate
/// family cap of `max_graphs`.
pub fn options(max_graphs: usize) -> Options {
    Options::default()
        .with_threads(Threads::Fixed(1))
        .with_max_graphs(max_graphs)
}

/// The `k`-th Flight/Hotel instance of a run: `flights` flights over the
/// generator's default 20 cities and 30 hotels, two stays per flight.
pub fn flights_instance(seed: u64, k: u64, flights: usize) -> Instance {
    let mut rng = gdx_datagen::rng(seed.wrapping_mul(1_000_003).wrapping_add(k));
    gdx_datagen::flights_hotels(
        FlightsHotelsParams {
            flights,
            ..FlightsHotelsParams::default()
        },
        &mut rng,
    )
}

/// Sorted answer rows by node name — the comparable form of an answer.
pub type Rows = Vec<Vec<String>>;

pub fn rows_by_name(rows: &[Vec<Node>]) -> Rows {
    let mut out: Rows = rows
        .iter()
        .map(|r| r.iter().map(|n| n.name().as_str().to_owned()).collect())
        .collect();
    out.sort();
    out
}

/// The solution family of a fresh session, drained through the public
/// stream, with its exactness flag.
pub fn family(setting: &Setting, instance: &Instance, options: Options) -> (Vec<Graph>, bool) {
    let mut session = ExchangeSession::new(setting.clone(), instance.clone()).with_options(options);
    let mut stream = session.solutions().expect("solution stream opens");
    let mut graphs = Vec::new();
    for g in &mut stream {
        graphs.push(g.expect("candidate processing succeeds"));
    }
    let exact = stream.exact();
    (graphs, exact)
}

/// The constant pairs `(u, v)` of one graph with `u —r→ v`, by name,
/// from the plain NRE evaluator.
fn constant_pairs(g: &Graph, query: &PreparedQuery) -> BTreeSet<(String, String)> {
    let atom = &query.cnre().atoms[0];
    let rel = gdx_nre::eval(g, &atom.nre);
    let fits = |term: &Term, node: Node| match term {
        Term::Var(_) => node.is_const(),
        Term::Const(c) => node.is_const() && node.name() == *c,
    };
    rel.iter()
        .map(|(u, v)| (g.node(u), g.node(v)))
        .filter(|&(u, v)| fits(&atom.left, u) && fits(&atom.right, v))
        .map(|(u, v)| (u.name().as_str().to_owned(), v.name().as_str().to_owned()))
        .collect()
}

/// Reference certain answers of a single-atom query over a family: the
/// intersection of each graph's constant pairs, projected to the query's
/// variables (`[x, y]`, `[x]`, `[y]` or `[]` by which side is a
/// variable), sorted. The query layer under test is not involved.
pub fn reference_rows(graphs: &[Graph], query: &PreparedQuery) -> Rows {
    assert_eq!(
        query.cnre().atoms.len(),
        1,
        "reference covers single-atom queries"
    );
    let atom = &query.cnre().atoms[0];
    let mut sets = graphs.iter().map(|g| constant_pairs(g, query));
    let Some(mut inter) = sets.next() else {
        return Vec::new();
    };
    for s in sets {
        inter.retain(|p| s.contains(p));
    }
    let mut rows: BTreeSet<Vec<String>> = BTreeSet::new();
    for (u, v) in inter {
        let mut row = Vec::new();
        match (&atom.left, &atom.right) {
            (Term::Var(a), Term::Var(b)) if a == b => {
                if u != v {
                    continue;
                }
                row.push(u);
            }
            (l, r) => {
                if matches!(l, Term::Var(_)) {
                    row.push(u);
                }
                if matches!(r, Term::Var(_)) {
                    row.push(v);
                }
            }
        }
        rows.insert(row);
    }
    rows.into_iter().collect()
}
