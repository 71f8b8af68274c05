//! The cold workloads: every op builds a fresh `ExchangeSession` over one
//! of a few seeded Flight/Hotel instances and asks one open
//! `certain_answers` query — the whole pipeline, from the s-t chase to
//! the answer intersection, once per op.
//!
//! * `exchange_cold` — the paper's egd setting `Ω` and query.
//! * `sameas_cold` — the sameAs constraint plus a target tgd, the only
//!   workload on which the sameAs saturator and the tgd chase do work.

use crate::harness::Workload;
use crate::inputs::{self, Rows};
use crate::trace::Layers;
use gdx_chase::{
    chase_egds_on_pattern, chase_st_with_nulls, EgdChaseOutcome, SameAsEngine, StChaseVariant,
    TgdChaseConfig, TgdChaseEngine,
};
use gdx_common::{FxHashMap, GdxError, Result};
use gdx_exchange::exists::{exact_fragment, repair_egds_in_place};
use gdx_exchange::{ExchangeSession, Options, SolutionChecker};
use gdx_graph::{Graph, NullFactory};
use gdx_mapping::{Egd, SameAs, Setting, TargetTgd};
use gdx_nre::eval::EvalCache;
use gdx_nre::DemandStats;
use gdx_pattern::InstantiationFamily;
use gdx_query::PreparedQuery;
use gdx_relational::Instance;

/// Sizes of one cold workload.
pub struct ColdSpec {
    pub setting: fn() -> Setting,
    pub query: &'static str,
    /// Flights per instance.
    pub flights: usize,
    /// Distinct instances per run; op `i` uses instance `i % instances`.
    pub instances: usize,
    /// Candidate-family cap (`Options::instantiation.max_graphs`).
    pub max_graphs: usize,
}

/// `exchange_cold`: Example 2.2's `Ω` and query over 40 flights.
pub const EXCHANGE_COLD: ColdSpec = ColdSpec {
    setting: inputs::setting_egd,
    query: inputs::PAPER_QUERY,
    flights: 40,
    instances: 8,
    max_graphs: 32,
};

/// `sameas_cold`: `Ω′` with the target tgd over 40 flights. Its op cost
/// varies by about 13% from instance to instance, so a run needs a dozen
/// instances for its figures to depend little on the seed.
pub const SAMEAS_COLD: ColdSpec = ColdSpec {
    setting: inputs::setting_sameas_tgd,
    query: "(x, f.f*.h, y)",
    flights: 40,
    instances: 12,
    max_graphs: 32,
};

pub struct Cold {
    setting: Setting,
    query: &'static str,
    options: Options,
    instances: Vec<Instance>,
    /// Reference `(rows, exact)` per instance.
    expected: Vec<(Rows, bool)>,
}

impl Cold {
    /// Generates the run's instances and their reference answers (a
    /// drained session family, evaluated by the plain NRE evaluator).
    pub fn new(spec: &ColdSpec, seed: u64) -> Cold {
        let setting = (spec.setting)();
        let options = inputs::options(spec.max_graphs);
        let query = PreparedQuery::parse(spec.query).expect("static query parses");
        let instances: Vec<Instance> = (0..spec.instances as u64)
            .map(|k| inputs::flights_instance(seed, k, spec.flights))
            .collect();
        let expected = instances
            .iter()
            .map(|inst| {
                let (graphs, exact) = inputs::family(&setting, inst, options);
                (inputs::reference_rows(&graphs, &query), exact)
            })
            .collect();
        Cold {
            setting,
            query: spec.query,
            options,
            instances,
            expected,
        }
    }
}

impl Workload for Cold {
    type Out = (Rows, bool);

    fn round(&self) -> usize {
        self.instances.len()
    }

    fn op(&mut self, i: usize) -> Result<(Rows, bool)> {
        let instance = self.instances[i % self.instances.len()].clone();
        let mut session =
            ExchangeSession::new(self.setting.clone(), instance).with_options(self.options);
        let query = PreparedQuery::parse(self.query)?;
        let (rows, exact) = session.certain_answers(&query)?;
        Ok((inputs::rows_by_name(&rows), exact))
    }

    fn traced_op(&mut self, i: usize, layers: &mut Layers) -> Result<(Rows, bool)> {
        let instance = &self.instances[i % self.instances.len()];
        let query = PreparedQuery::parse(self.query)?;
        let (graphs, exact) = mirror_family(&self.setting, instance, self.options, layers)?;
        let mut caches: Vec<EvalCache> = graphs.iter().map(|_| EvalCache::default()).collect();
        let rows = mirror_intersection(&graphs, &mut caches, &query, self.options, layers)?;
        Ok((rows, exact))
    }

    fn check(&self, i: usize, out: &(Rows, bool)) -> bool {
        *out == self.expected[i % self.expected.len()]
    }
}

/// The session's candidate pipeline through the layers' public calls, in
/// the session's order: s-t chase, egd chase on the pattern, candidate
/// instantiation, then per candidate up to eight rounds of sameAs
/// saturation, tgd chase, egd repair and verification. Returns the
/// verified family and whether it provably covers all minimal solutions.
fn mirror_family(
    setting: &Setting,
    instance: &Instance,
    options: Options,
    layers: &mut Layers,
) -> Result<(Vec<Graph>, bool)> {
    let egds: Vec<Egd> = setting.egds().cloned().collect();
    let same_as: Vec<SameAs> = setting.same_as_constraints().cloned().collect();
    let tgds: Vec<TargetTgd> = setting.target_tgds().cloned().collect();
    let st = layers.time("chase.st_ms", || {
        chase_st_with_nulls(
            instance,
            setting,
            StChaseVariant::Oblivious,
            NullFactory::starting_at(options.null_seed),
        )
    })?;
    let pattern = if egds.is_empty() {
        st.pattern
    } else {
        match layers.time("chase.egd_pattern_ms", || {
            chase_egds_on_pattern(&st.pattern, &egds, options.egd_chase)
        })? {
            EgdChaseOutcome::Success { pattern, merges } => {
                layers.add("chase.egd_merges", merges as f64);
                pattern
            }
            // A failed chase proves there is no solution.
            EgdChaseOutcome::Failed { .. } => return Ok((Vec::new(), true)),
        }
    };
    let mut exact = exact_fragment(setting);
    let mut family = match layers.time("pattern.instantiate_ms", || {
        InstantiationFamily::new(&pattern, options.instantiation)
    }) {
        Ok(f) => f,
        Err(GdxError::LimitExceeded(_)) => return Ok((Vec::new(), false)),
        Err(e) => return Err(e),
    };
    let (mut sameas, mut tgd, checker) = layers.time("exchange.compile_ms", || {
        let sameas = (!same_as.is_empty()).then(|| SameAsEngine::new(&same_as));
        let cfg = TgdChaseConfig {
            threads: options.threads,
            ..options.tgd_chase
        };
        let tgd = (!tgds.is_empty()).then(|| TgdChaseEngine::new(&tgds, cfg));
        let checker = SolutionChecker::new(setting).with_runtime(options.runtime());
        (sameas, tgd, checker)
    });
    let mut graphs = Vec::new();
    let mut candidates = 0usize;
    'candidates: loop {
        let Some(candidate) = layers.time("pattern.instantiate_ms", || family.next()) else {
            if family.truncated() {
                exact = false;
            }
            break;
        };
        let mut g = candidate?;
        candidates += 1;
        for _round in 0..8 {
            if let Some(engine) = &mut sameas {
                layers.time("chase.sameas_ms", || engine.saturate(&mut g))?;
            }
            if let Some(engine) = &mut tgd {
                match layers.time("chase.tgd_ms", || engine.run(&mut g)) {
                    Ok(()) => {}
                    Err(GdxError::LimitExceeded(_)) => {
                        exact = false;
                        continue 'candidates;
                    }
                    Err(e) => return Err(e),
                }
            }
            if !layers.time("exchange.repair_ms", || repair_egds_in_place(&mut g, &egds))? {
                continue 'candidates;
            }
            let st_ok = layers.time("exchange.verify_st_ms", || {
                if setting.graph_conforms(&g) {
                    checker.st_tgds_satisfied(instance, &g)
                } else {
                    Ok(false)
                }
            })?;
            let verified = st_ok
                && layers.time("exchange.verify_target_ms", || {
                    checker.target_constraints_satisfied(&g)
                })?;
            if verified {
                graphs.push(g);
                continue 'candidates;
            }
            if same_as.is_empty() && tgds.is_empty() {
                continue 'candidates;
            }
        }
    }
    layers.add("pattern.candidates", candidates as f64);
    layers.add("exchange.solutions", graphs.len() as f64);
    if let Some(engine) = &tgd {
        let s = engine.stats();
        layers.add("chase.tgd_steps", s.steps as f64);
        layers.add("chase.tgd_body_rows", s.body_rows as f64);
        layers.add("chase.null_births", s.null_births as f64);
    }
    Ok((graphs, exact))
}

/// The session's certain-answer tail through the query layer's public
/// calls: evaluate the query on every graph (one warm cache per graph),
/// keep each graph's constant rows, and intersect them.
pub fn mirror_intersection(
    graphs: &[Graph],
    caches: &mut [EvalCache],
    query: &PreparedQuery,
    options: Options,
    layers: &mut Layers,
) -> Result<Rows> {
    let rt = options.runtime();
    let before = demand_totals(query);
    let mut sets = Vec::with_capacity(graphs.len());
    for (g, cache) in graphs.iter().zip(caches.iter_mut()) {
        let bindings = layers.time("query.eval_ms", || {
            query.evaluate_limited_rt(g, cache, &FxHashMap::default(), options.planner, None, &rt)
        })?;
        layers.add("query.rows_out", bindings.len() as f64);
        sets.push(layers.time("query.constant_rows_ms", || bindings.constant_rows(g)));
    }
    record_demand(query, before, layers);
    let rows = layers.time("exchange.certain_residual_ms", || {
        let mut sets = sets.into_iter();
        let Some(mut inter) = sets.next() else {
            return Vec::new();
        };
        for rows in sets {
            inter.retain(|r| rows.contains(r));
        }
        let rows: Vec<_> = inter.into_iter().collect();
        inputs::rows_by_name(&rows)
    });
    layers.add("query.rows_kept", rows.len() as f64);
    Ok(rows)
}

/// Summed demand-evaluator counters of every atom of `query`.
pub fn demand_totals(query: &PreparedQuery) -> DemandStats {
    let mut total = DemandStats::default();
    for atom in &query.cnre().atoms {
        if let Some(s) = query.demand_stats(&atom.nre) {
            total.visited += s.visited;
            total.bfs_runs += s.bfs_runs;
        }
    }
    total
}

/// Adds the demand work done since `before` to the layer counts.
pub fn record_demand(query: &PreparedQuery, before: DemandStats, layers: &mut Layers) {
    let after = demand_totals(query);
    layers.add("nre.demand_visits", (after.visited - before.visited) as f64);
    layers.add("nre.bfs_runs", (after.bfs_runs - before.bfs_runs) as f64);
}
