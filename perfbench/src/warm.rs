//! `query_warm`: one session whose solution family is drained during
//! set-up, then a fixed, ordered stream of queries against it — three
//! Boolean `certain` probes with fresh constants for every open
//! `certain_answers` query, the open queries cycling through a small
//! repeated set. The chase and verify layers do no work in the measured
//! ops; only the query layer and the answer intersection do.
//!
//! Every probe asks for a pair that holds in every family graph, so each
//! probe scans the whole family on the demand path and then consults the
//! representative's lower bound. A probe refuted early (at the first
//! graph lacking the pair) costs a fraction of that; mixing both kinds
//! would put the median between two cost clusters.

use crate::cold::{demand_totals, mirror_intersection, record_demand};
use crate::harness::Workload;
use crate::inputs::{self, Rows};
use crate::trace::Layers;
use gdx_common::{FxHashMap, Result, Term};
use gdx_exchange::representative::{RepresentativeOutcome, UniversalRepresentative};
use gdx_exchange::{CertainAnswer, ExchangeSession, Options};
use gdx_graph::Graph;
use gdx_nre::eval::EvalCache;
use gdx_nre::Nre;
use gdx_query::PreparedQuery;
use rand::Rng;
use std::collections::BTreeSet;

/// Flights of the session's instance.
const FLIGHTS: usize = 100;
/// Candidate-family cap: the session default.
const MAX_GRAPHS: usize = 256;
/// The NREs of the open queries `(x, r, y)` and of the probes `(c1, r, c2)`.
const NRES: [&str; 3] = ["f.f*", "f.f*.[h].f-.(f-)*", "f.[h].f"];
/// Boolean probes per open query in the op stream.
const PROBES_PER_OPEN: usize = 3;
/// The NRE of every probe: the paper's query (index into `NRES`). One NRE
/// keeps the probes one cost cluster.
const PROBE_NRE: usize = 1;

/// The comparable output of one op.
#[derive(Clone)]
pub enum Answer {
    Rows(Rows, bool),
    Certain,
    Unknown,
    /// Not certain, with the counterexample solution.
    NotCertain(Box<Graph>),
}

impl PartialEq for Answer {
    fn eq(&self, other: &Answer) -> bool {
        match (self, other) {
            (Answer::Rows(a, x), Answer::Rows(b, y)) => a == b && x == y,
            (Answer::Certain, Answer::Certain) | (Answer::Unknown, Answer::Unknown) => true,
            (Answer::NotCertain(g), Answer::NotCertain(h)) => g.to_string() == h.to_string(),
            _ => false,
        }
    }
}

pub struct Warm {
    session: ExchangeSession,
    options: Options,
    /// The open queries, prepared once, with their reference rows.
    open: Vec<(PreparedQuery, Rows)>,
    exact: bool,
    /// The probe pairs, in stream order.
    probes: Vec<(String, String)>,
    /// Probe pairs the representative proves certain on its own.
    lower_bound: BTreeSet<(String, String)>,
    // Mirror state: the family, one warm cache per graph, and the
    // representative.
    graphs: Vec<Graph>,
    caches: Vec<EvalCache>,
    representative: UniversalRepresentative,
}

impl Warm {
    /// Builds the warm session (s-t chase, egd chase, drained family) and
    /// the reference answers of every query in the stream.
    pub fn new(seed: u64) -> Warm {
        let options = inputs::options(MAX_GRAPHS);
        let instance = inputs::flights_instance(seed, 0, FLIGHTS);
        let mut session =
            ExchangeSession::new(inputs::setting_egd(), instance).with_options(options);
        let (graphs, exact) = {
            let mut stream = session.solutions().expect("solution stream opens");
            let graphs: Vec<Graph> = (&mut stream)
                .map(|g| g.expect("candidate processing succeeds"))
                .collect();
            (graphs, stream.exact())
        };
        let representative = match session.representative().expect("memoized") {
            RepresentativeOutcome::Representative(rep) => rep.clone(),
            RepresentativeOutcome::ChaseFailed => panic!("Example 2.2 chases successfully"),
        };
        let open: Vec<(PreparedQuery, Rows)> = NRES
            .iter()
            .map(|r| {
                let q = PreparedQuery::parse(&format!("(x, {r}, y)")).expect("static query");
                let rows = inputs::reference_rows(&graphs, &q);
                (q, rows)
            })
            .collect();
        let probe_rows = &open[PROBE_NRE].1;
        let lower_bound = representative
            .certain_answer_lower_bound(open[PROBE_NRE].0.cnre(), &options)
            .expect("lower bound computes")
            .iter()
            .map(|row| {
                (
                    row[0].name().as_str().to_owned(),
                    row[1].name().as_str().to_owned(),
                )
            })
            .collect();
        // Every pair of the probe NRE's reference answer is one probe, in
        // a seeded order: probes do not repeat until all were asked.
        let mut probes: Vec<(String, String)> = probe_rows
            .iter()
            .map(|row| (row[0].clone(), row[1].clone()))
            .collect();
        assert!(!probes.is_empty(), "the probe query has certain answers");
        let mut rng = gdx_datagen::rng(seed ^ 0x5eed_f00d);
        for i in (1..probes.len()).rev() {
            probes.swap(i, rng.gen_range(0..i + 1));
        }
        let caches = graphs.iter().map(|_| EvalCache::default()).collect();
        Warm {
            session,
            options,
            open,
            exact,
            probes,
            lower_bound,
            graphs,
            caches,
            representative,
        }
    }

    /// Op `i` of the stream: ops come in groups of `PROBES_PER_OPEN`
    /// probes, then an open query; group `g` asks open query `g mod 3`.
    fn kind(i: usize) -> Op {
        let (group, pos) = (i / (PROBES_PER_OPEN + 1), i % (PROBES_PER_OPEN + 1));
        if pos == PROBES_PER_OPEN {
            Op::Open(group % NRES.len())
        } else {
            Op::Probe(group * PROBES_PER_OPEN + pos)
        }
    }

    fn probe_pair(&self, nth: usize) -> &(String, String) {
        &self.probes[nth % self.probes.len()]
    }

    fn probe_query(&self, nth: usize) -> PreparedQuery {
        let (c1, c2) = self.probe_pair(nth);
        let r: Nre = gdx_nre::parse::parse_nre(NRES[PROBE_NRE]).expect("static nre");
        PreparedQuery::single(Term::cst(c1), r, Term::cst(c2))
    }
}

/// One op of the `query_warm` stream.
enum Op {
    Open(usize),
    Probe(usize),
}

impl Workload for Warm {
    type Out = Answer;

    fn round(&self) -> usize {
        (PROBES_PER_OPEN + 1) * NRES.len()
    }

    fn op(&mut self, i: usize) -> Result<Answer> {
        match Warm::kind(i) {
            Op::Open(q) => {
                let (rows, exact) = self.session.certain_answers(&self.open[q].0)?;
                Ok(Answer::Rows(inputs::rows_by_name(&rows), exact))
            }
            Op::Probe(nth) => {
                let query = self.probe_query(nth);
                Ok(match self.session.certain(&query)? {
                    CertainAnswer::Certain => Answer::Certain,
                    CertainAnswer::Unknown(_) => Answer::Unknown,
                    CertainAnswer::NotCertain(g) => Answer::NotCertain(Box::new(g)),
                })
            }
        }
    }

    fn traced_op(&mut self, i: usize, layers: &mut Layers) -> Result<Answer> {
        match Warm::kind(i) {
            Op::Open(q) => {
                let query = &self.open[q].0;
                let rows = mirror_intersection(
                    &self.graphs,
                    &mut self.caches,
                    query,
                    self.options,
                    layers,
                )?;
                Ok(Answer::Rows(rows, self.exact))
            }
            Op::Probe(nth) => {
                let query = self.probe_query(nth);
                let rt = self.options.runtime();
                let before = demand_totals(&query);
                let mut counterexample = None;
                for (g, cache) in self.graphs.iter().zip(&mut self.caches) {
                    let hits = layers.time("query.probe_ms", || {
                        query.evaluate_limited_rt(
                            g,
                            cache,
                            &FxHashMap::default(),
                            self.options.planner,
                            Some(1),
                            &rt,
                        )
                    })?;
                    if hits.is_empty() {
                        counterexample = Some(g.clone());
                        break;
                    }
                }
                record_demand(&query, before, layers);
                if let Some(g) = counterexample {
                    return Ok(Answer::NotCertain(Box::new(g)));
                }
                if self.exact && !self.graphs.is_empty() {
                    return Ok(Answer::Certain);
                }
                let proven = layers.time("exchange.lower_bound_ms", || {
                    self.representative
                        .certain_answer_lower_bound(query.cnre(), &self.options)
                })?;
                Ok(if proven.is_empty() {
                    Answer::Unknown
                } else {
                    Answer::Certain
                })
            }
        }
    }

    fn check(&self, i: usize, out: &Answer) -> bool {
        match Warm::kind(i) {
            Op::Open(q) => matches!(out, Answer::Rows(rows, exact)
                if *rows == self.open[q].1 && *exact == self.exact),
            Op::Probe(nth) => {
                // Every probe pair holds in every graph: certain when the
                // family is exact or the lower bound proves it.
                let proven = self.lower_bound.contains(self.probe_pair(nth));
                match out {
                    Answer::Certain => self.exact || proven,
                    Answer::Unknown => !self.exact && !proven,
                    _ => false,
                }
            }
        }
    }
}
