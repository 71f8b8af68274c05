//! Quick bench profile for CI: times (a) the demand-driven (product-BFS)
//! access path against the materializing baseline on the PR-2 workloads,
//! (b) the PR-3 session-reuse contrast — N certain-answer queries on
//! one `ExchangeSession` vs N cold one-shot calls — (c) the PR-4
//! `parallel_speedup` contrast: 1 vs 4 `gdx-runtime` workers on the
//! 500-flight chase and certain-answer sweep, and (d) the PR-5
//! `data_plane` contrast: frozen CSR adjacency vs the mutable hash index,
//! and bitset-visited BFS vs a hash-set-visited reimplementation. Writes
//! a machine-readable JSON report (`BENCH_pr10.json` by default), so the
//! perf trajectory is tracked across PRs. PR 6 adds the
//! `candidate_family` group: per-candidate materialization cost of
//! copy-on-write forks vs eager `Graph::clone` at 100/300/500 flights,
//! and a shard-parallel family sweep (K forks sharing one frozen base
//! CSR) at 1 vs 4 workers. PR 9 additionally dumps the observability
//! registry of one fully-instrumented session run (`METRICS_pr10.json`
//! by default, second positional argument): the dump runs at one worker
//! on the no-op clock, so it is byte-stable and committed alongside the
//! bench report.
//!
//! The parallel rows measure real wall-clock on whatever hardware runs
//! the job; the report records `detected_parallelism` so the ratios are
//! interpretable. Since PR 5, `Threads::Fixed` clamps to the detected
//! parallelism, so on a single-core host the 4-worker rows run the exact
//! inline sequential path — this binary then *asserts* the ratio stays
//! ≥ 0.98×, pinning the PR-4 regression (0.91× chase, 0.97× sweep from
//! speculation overhead with zero parallel payoff) fixed.
//!
//! Usage: `cargo run --release -p gdx-bench --bin bench_smoke
//! [-- out.json [metrics.json]]`

use gdx_bench::{paper_flight_graph, PAPER_QUERY};
use gdx_common::{FxHashMap, FxHashSet, Symbol};
use gdx_exchange::{ExchangeSession, Options};
use gdx_graph::{Graph, Node};
use gdx_mapping::Setting;
use gdx_nre::eval::EvalCache;
use gdx_nre::parse::parse_nre;
use gdx_query::{Cnre, PlannerMode, PreparedQuery};
use gdx_relational::Instance;
use gdx_runtime::{Runtime, Threads};
use std::fmt::Write as _;
use std::time::Instant;

/// Median wall time of `samples` runs of `body`, in nanoseconds.
fn median_ns(samples: usize, mut body: impl FnMut()) -> u128 {
    // One warm-up run; each sample reconstructs its own caches, so this
    // only pages code in.
    body();
    let mut times: Vec<u128> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            body();
            t.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

struct Row {
    group: String,
    size: usize,
    baseline_ns: u128,
    fast_ns: u128,
}

fn seeded_query_rows(rows: &mut Vec<Row>) {
    let query = Cnre::parse(&format!("(x, {PAPER_QUERY}, y)")).expect("static query");
    // 500 is the ceiling for the *baseline*, not the demand path: the
    // materializing evaluator is already ~12 s per run there (its cost is
    // the point of this comparison), and a smoke job must stay quick.
    for flights in [100usize, 300, 500] {
        let g = paper_flight_graph(flights);
        let city = g.node_id(Node::cst("city0")).expect("city0 present");
        let mut seed = FxHashMap::default();
        seed.insert(Symbol::new("x"), city);
        let time_mode = |mode: PlannerMode| {
            let t = Instant::now();
            let ns = median_ns(3, || {
                // Fresh cache and query per sample: cold semantics.
                let mut cache = EvalCache::new();
                let b = PreparedQuery::new(query.clone())
                    .evaluate_seeded_mode(&g, &mut cache, &seed, mode)
                    .expect("eval");
                std::hint::black_box(b.len());
            });
            eprintln!(
                "  chase_scaling/demand_driven size {flights} {mode:?}: median {ns} ns \
                 (stage took {:?})",
                t.elapsed()
            );
            ns
        };
        rows.push(Row {
            group: "chase_scaling/demand_driven".to_owned(),
            size: flights,
            baseline_ns: time_mode(PlannerMode::Materialize),
            fast_ns: time_mode(PlannerMode::Auto),
        });
    }
}

fn certain_probe_rows(rows: &mut Vec<Row>) {
    // The Corollary 4.2 probe shape: *both* endpoints constant. Same
    // candidate-solution graphs as the seeded group (reduction graphs are
    // node-minimal, so they cannot exhibit the gap), different access
    // pattern: one membership probe instead of an image enumeration.
    let probe =
        Cnre::parse(&format!("(\"city0\", {PAPER_QUERY}, \"city1\")")).expect("static probe");
    for flights in [100usize, 300, 500] {
        let g = paper_flight_graph(flights);
        let seed = FxHashMap::default();
        let time_mode = |mode: PlannerMode| {
            median_ns(3, || {
                let mut cache = EvalCache::new();
                let b = PreparedQuery::new(probe.clone())
                    .evaluate_seeded_mode(&g, &mut cache, &seed, mode)
                    .expect("eval");
                std::hint::black_box(b.len());
            })
        };
        rows.push(Row {
            group: "exists_egd/demand_driven".to_owned(),
            size: flights,
            baseline_ns: time_mode(PlannerMode::Materialize),
            fast_ns: time_mode(PlannerMode::Auto),
        });
    }
}

/// PR-3 group: the 2nd..Nth certain-answer query on a warm session vs the
/// same queries as cold one-shot calls (each building the representative,
/// the candidate family, and every per-atom automaton from scratch).
fn session_reuse_rows(rows: &mut Vec<Row>) {
    let setting = Setting::example_2_2_egd();
    let instance = Instance::example_2_2();
    let queries: Vec<(&str, gdx_nre::Nre)> = vec![
        ("paper", parse_nre(PAPER_QUERY).expect("paper query")),
        ("reach", parse_nre("f.f*").expect("reach query")),
    ];
    let pairs = [
        ("c1", "c1"),
        ("c1", "c2"),
        ("c1", "c3"),
        ("c2", "c1"),
        ("c2", "c2"),
        ("c3", "c1"),
        ("c3", "c2"),
        ("c3", "c3"),
    ];
    for (name, nre) in &queries {
        // Cold baseline: a fresh session per query, so every query
        // re-chases and re-enumerates the solution family.
        let cold_per_query = median_ns(3, || {
            for (a, b) in pairs {
                let verdict = ExchangeSession::new(setting.clone(), instance.clone())
                    .certain_pair(nre, a, b)
                    .expect("certain");
                std::hint::black_box(matches!(verdict, gdx_exchange::CertainAnswer::Certain));
            }
        }) / pairs.len() as u128;

        // Warm path: one session; the first query pays for enumeration,
        // the 2nd..Nth reuse the memoized family and per-graph caches.
        let mut session = ExchangeSession::new(setting.clone(), instance.clone());
        session
            .certain_pair(nre, pairs[0].0, pairs[0].1)
            .expect("warm-up query");
        let warm_per_query = median_ns(3, || {
            for (a, b) in &pairs[1..] {
                let verdict = session.certain_pair(nre, a, b).expect("certain");
                std::hint::black_box(matches!(verdict, gdx_exchange::CertainAnswer::Certain));
            }
        }) / (pairs.len() - 1) as u128;

        eprintln!(
            "  session_reuse/{name}: cold {cold_per_query} ns/query, \
             warm {warm_per_query} ns/query"
        );
        rows.push(Row {
            group: format!("session_reuse/{name}"),
            size: pairs.len(),
            baseline_ns: cold_per_query,
            fast_ns: warm_per_query,
        });
    }
}

/// Interleaved A/B sampling: one warm-up each, then `rounds` alternating
/// (baseline, fast) samples. Returns `(median_a, median_b,
/// paired_ratio)` where `paired_ratio` is the **median of the per-round
/// ratios** `a_i / b_i` — the parity-guard statistic. Pairing adjacent
/// samples cancels external load (a burst slows both halves of its
/// round alike, leaving that round's ratio near truth), and the median
/// then discards the worst-hit round; comparing unpaired aggregates
/// instead lets one noisy sample on either side fake a regression when
/// the two configurations run the very same code.
fn ab_samples(
    rounds: usize,
    mut a: impl FnMut() -> u128,
    mut b: impl FnMut() -> u128,
) -> (u128, u128, f64) {
    a();
    b();
    let (mut sa, mut sb): (Vec<u128>, Vec<u128>) = (Vec::new(), Vec::new());
    for _ in 0..rounds {
        sa.push(a());
        sb.push(b());
    }
    let mut ratios: Vec<f64> = sa
        .iter()
        .zip(&sb)
        .map(|(&x, &y)| x as f64 / y.max(1) as f64)
        .collect();
    ratios.sort_by(f64::total_cmp);
    // For even counts the median is the mean of the middle pair (picking
    // `[n/2]` alone would report the max of two samples).
    fn median_u(sorted: &mut [u128]) -> u128 {
        sorted.sort_unstable();
        let n = sorted.len();
        if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2
        }
    }
    let paired = if ratios.len() % 2 == 1 {
        ratios[ratios.len() / 2]
    } else {
        (ratios[ratios.len() / 2 - 1] + ratios[ratios.len() / 2]) / 2.0
    };
    (median_u(&mut sa), median_u(&mut sb), paired)
}

/// PR-4 group: identical workloads at 1 vs 4 `gdx-runtime` workers.
/// `baseline_ns` = 1 worker, `fast_ns` = 4 workers; the outputs are
/// byte-identical by construction (pinned by `tests/parallel_determinism`),
/// so this measures pure wall-clock. (The 1-effective-worker parity
/// *guard* runs separately on a small fixture — see
/// [`one_worker_parity_guard`] — where enough interleaved rounds fit to
/// make a wall-clock assertion statistically meaningful.)
fn parallel_speedup_rows(rows: &mut Vec<Row>) {
    // (a) NRE materialization: the paper query evaluated free-free over
    // the 500-flight graph — the planner materializes, and eval_rt
    // partitions the star closures and compositions across workers.
    let g = paper_flight_graph(500);
    let query =
        PreparedQuery::new(Cnre::parse(&format!("(x, {PAPER_QUERY}, y)")).expect("static query"));
    let run_workers = |n: usize| {
        // Production-path resolution: clamped to detected parallelism, so
        // a serial host measures the true (inline) 4-worker configuration.
        let rt = Runtime::new(Threads::Fixed(n));
        let t = Instant::now();
        let mut cache = gdx_nre::eval::EvalCache::new();
        let b = query
            .evaluate_limited_rt(
                &g,
                &mut cache,
                &FxHashMap::default(),
                PlannerMode::Auto,
                None,
                &rt,
            )
            .expect("eval");
        std::hint::black_box(b.len());
        t.elapsed().as_nanos()
    };
    let (t1, t4, _) = ab_samples(3, || run_workers(1), || run_workers(4));
    eprintln!("  parallel_speedup/nre_eval size 500: 1w {t1} ns, 4w {t4} ns");
    rows.push(Row {
        group: "parallel_speedup/nre_eval".to_owned(),
        size: 500,
        baseline_ns: t1,
        fast_ns: t4,
    });

    // (b) The 500-flight tgd chase: a join-dense rule (pairs of flights
    // into the same destination) whose delta joins shard across workers
    // and whose head checks run through the speculative pre-filter.
    let chase_graph = {
        use gdx_chase::{chase_st, StChaseVariant};
        let setting = Setting::example_2_2_egd();
        let inst = gdx_datagen::flights_hotels(
            gdx_datagen::FlightsHotelsParams {
                flights: 500,
                cities: 20,
                hotels: 100,
                stays_per_flight: 2,
            },
            &mut gdx_datagen::rng(42),
        );
        let st = chase_st(&inst, &setting, StChaseVariant::Oblivious).expect("st chase");
        gdx_pattern::instantiate_shortest(&st.pattern).expect("instantiation")
    };
    let rules = [gdx_mapping::TargetTgd {
        body: Cnre::parse("(x, f, y), (z, f, y)").expect("static body"),
        existential: Vec::new(),
        head: Cnre::parse("(x, f.f*, z)").expect("static head"),
    }];
    let run_chase = |n: usize| {
        let t = Instant::now();
        let out = gdx_chase::chase_target_tgds(
            &chase_graph,
            &rules,
            gdx_chase::TgdChaseConfig {
                max_steps: 1_000_000,
                threads: Threads::Fixed(n),
                ..gdx_chase::TgdChaseConfig::default()
            },
        )
        .expect("chase");
        std::hint::black_box(out.steps);
        t.elapsed().as_nanos()
    };
    let (c1, c4, _) = ab_samples(3, || run_chase(1), || run_chase(4));
    eprintln!("  parallel_speedup/chase size 500: 1w {c1} ns, 4w {c4} ns");
    rows.push(Row {
        group: "parallel_speedup/chase".to_owned(),
        size: 500,
        baseline_ns: c1,
        fast_ns: c4,
    });

    // (c) The full certain-answer sweep: cold session over the 500-flight
    // instance — chase, candidate verification, then the paper query's
    // certain answers over the solution family.
    let setting = Setting::example_2_2_egd();
    let inst = gdx_datagen::flights_hotels(
        gdx_datagen::FlightsHotelsParams {
            flights: 500,
            cities: 100,
            hotels: 100,
            stays_per_flight: 2,
        },
        &mut gdx_datagen::rng(42),
    );
    let sweep =
        PreparedQuery::new(Cnre::parse(&format!("(x1, {PAPER_QUERY}, x2)")).expect("static query"));
    let run_sweep = |n: usize| {
        let t = Instant::now();
        let mut session = ExchangeSession::new(setting.clone(), inst.clone())
            .with_options(Options::default().with_threads(Threads::Fixed(n)));
        let (rows, _exact) = session.certain_answers(&sweep).expect("sweep");
        std::hint::black_box(rows.len());
        t.elapsed().as_nanos()
    };
    let (s1, s4, _) = ab_samples(2, || run_sweep(1), || run_sweep(4));
    eprintln!("  parallel_speedup/certain_sweep size 500: 1w {s1} ns, 4w {s4} ns");
    rows.push(Row {
        group: "parallel_speedup/certain_sweep".to_owned(),
        size: 500,
        baseline_ns: s1,
        fast_ns: s4,
    });
}

/// The PR-5 satellite guard, run only at one *effective* worker: a
/// requested-4-worker configuration must behave exactly like the
/// sequential path. The structural half is asserted in `main`
/// (`Threads::Fixed(4)` resolves to 1 worker — same `Runtime`, same
/// instructions); the wall-clock half runs here on a small chase
/// fixture (100 flights, ~tens of ms per run) so 21 interleaved rounds
/// fit in seconds — short paired samples ride out external load bursts
/// that made single-shot comparisons of the 500-flight rows pure noise.
/// Asserts the median paired ratio stays ≥ 0.98×, pinning the PR-4
/// regression (0.91× from speculation overhead with no parallel payoff)
/// fixed.
fn one_worker_parity_guard() {
    let chase_graph = {
        use gdx_chase::{chase_st, StChaseVariant};
        let setting = Setting::example_2_2_egd();
        let inst = gdx_datagen::flights_hotels(
            gdx_datagen::FlightsHotelsParams {
                flights: 100,
                cities: 10,
                hotels: 20,
                stays_per_flight: 2,
            },
            &mut gdx_datagen::rng(42),
        );
        let st = chase_st(&inst, &setting, StChaseVariant::Oblivious).expect("st chase");
        gdx_pattern::instantiate_shortest(&st.pattern).expect("instantiation")
    };
    let rules = [gdx_mapping::TargetTgd {
        body: Cnre::parse("(x, f, y), (z, f, y)").expect("static body"),
        existential: Vec::new(),
        head: Cnre::parse("(x, f.f*, z)").expect("static head"),
    }];
    let run = |n: usize| {
        let t = Instant::now();
        let out = gdx_chase::chase_target_tgds(
            &chase_graph,
            &rules,
            gdx_chase::TgdChaseConfig {
                max_steps: 1_000_000,
                threads: Threads::Fixed(n),
                ..gdx_chase::TgdChaseConfig::default()
            },
        )
        .expect("chase");
        std::hint::black_box(out.steps);
        t.elapsed().as_nanos()
    };
    let (m1, m4, paired) = ab_samples(21, || run(1), || run(4));
    eprintln!(
        "  1-effective-worker guard: chase size 100, 1w {m1} ns, 4w {m4} ns, \
         paired ratio {paired:.3}"
    );
    assert!(
        paired >= 0.98,
        "1-effective-worker parity: {paired:.3}x — the requested-4-worker \
         configuration must match the sequential path within noise"
    );
}

/// PR-5 group: the cache-conscious data plane against its hash-map
/// predecessors, on the 500-flight graph. Both contrasts compute
/// identical results (asserted) — only the memory layout differs.
fn data_plane_rows(rows: &mut Vec<Row>) {
    let g = paper_flight_graph(500);

    // (a) Adjacency sweep: every (node, label, direction) bucket read
    // many times — the access pattern of the product-BFS inner loop.
    // Baseline probes the mutable graph's (node, label) hash index; the
    // fast path reads the frozen CSR.
    let labels: Vec<gdx_common::Symbol> = g.labels().collect();
    let frozen = g.freeze();
    const SWEEPS: usize = 64;
    let hash_ns = median_ns(3, || {
        let mut total = 0usize;
        for _ in 0..SWEEPS {
            for u in g.node_ids() {
                for &l in &labels {
                    total += g.successors(u, l).len() + g.predecessors(u, l).len();
                }
            }
        }
        std::hint::black_box(total);
    });
    let frozen_ns = median_ns(3, || {
        let mut total = 0usize;
        for _ in 0..SWEEPS {
            for u in g.node_ids() {
                for &l in &labels {
                    total += frozen.successors(u, l).len() + frozen.predecessors(u, l).len();
                }
            }
        }
        std::hint::black_box(total);
    });
    eprintln!("  data_plane/frozen_adjacency: hash {hash_ns} ns, frozen {frozen_ns} ns");
    rows.push(Row {
        group: "data_plane/frozen_adjacency".to_owned(),
        size: 500,
        baseline_ns: hash_ns,
        fast_ns: frozen_ns,
    });

    // (b) Star-closure BFS: the bitset-visited closure (the shipping
    // `BinRel::star`) against the PR-4 shape — one `FxHashSet` visited
    // set per source. Same traversal order, same output relation.
    let f = gdx_common::Symbol::new("f");
    let inner = {
        let mut r = gdx_nre::BinRel::with_capacity(g.label_count(f), g.node_count());
        for (u, v) in g.label_pairs(f) {
            r.insert(u, v);
        }
        r
    };
    let hash_star = || {
        let mut out = gdx_nre::BinRel::new();
        for src in g.node_ids() {
            let mut frontier = vec![src];
            let mut seen: FxHashSet<gdx_graph::NodeId> = FxHashSet::default();
            seen.insert(src);
            out.insert(src, src);
            while let Some(u) = frontier.pop() {
                for &v in inner.image(u) {
                    if seen.insert(v) {
                        out.insert(src, v);
                        frontier.push(v);
                    }
                }
            }
        }
        out
    };
    let baseline_len = hash_star().len();
    assert_eq!(
        baseline_len,
        inner.star(&g).len(),
        "hash and bitset closures must agree"
    );
    let hash_bfs_ns = median_ns(3, || {
        std::hint::black_box(hash_star().len());
    });
    let bitset_bfs_ns = median_ns(3, || {
        std::hint::black_box(inner.star(&g).len());
    });
    eprintln!("  data_plane/bitset_bfs: hash {hash_bfs_ns} ns, bitset {bitset_bfs_ns} ns");
    rows.push(Row {
        group: "data_plane/bitset_bfs".to_owned(),
        size: 500,
        baseline_ns: hash_bfs_ns,
        fast_ns: bitset_bfs_ns,
    });
}

/// PR-6 group: copy-on-write candidate families.
///
/// (a) `candidate_family/fork_vs_clone` — per-candidate materialization
/// cost of a K-candidate sweep. Baseline: `Graph::clone` per candidate
/// (the pre-fork eager shape — every adjacency bucket of the base is
/// copied). Fast: `Graph::fork` per candidate — O(Δ) against the shared
/// sealed base. Each candidate receives the same small witness-shaped
/// delta, so the contrast isolates pure copy cost: the fast column
/// should stay flat across 100/300/500 flights while the baseline
/// scales with base size.
///
/// (b) `candidate_family/shard_sweep` — the paper query evaluated over
/// K forked shards that all share one frozen base CSR, on 1 vs 4
/// workers. Reads hit the same `Arc`'d snapshot; only the per-shard
/// deltas are private, so shards parallelize without copying the base.
fn candidate_family_rows(rows: &mut Vec<Row>) {
    const K: usize = 16;

    /// The per-candidate delta: a short private witness path, as
    /// `InstantiationFamily` materializes per fork.
    fn grow(g: &mut Graph, i: usize) {
        let a = g.add_const(&format!("probe{i}a"));
        let b = g.add_const(&format!("probe{i}b"));
        let hub = g.add_const("city0");
        g.add_edge_labelled(hub, "probe", a);
        g.add_edge_labelled(a, "probe", b);
        g.add_edge_labelled(b, "probe", hub);
    }

    for flights in [100usize, 300, 500] {
        let base = paper_flight_graph(flights);
        let clone_ns = median_ns(5, || {
            for i in 0..K {
                let mut g = base.clone();
                grow(&mut g, i);
                std::hint::black_box(g.edge_count());
            }
        }) / K as u128;
        let mut base = base;
        // First fork seals the base; subsequent forks (and every fork in
        // the measured window) are O(Δ). Included in the timing, as the
        // seal is part of what a real family sweep pays exactly once.
        let fork_ns = median_ns(5, || {
            for i in 0..K {
                let mut g = base.fork();
                grow(&mut g, i);
                std::hint::black_box(g.edge_count());
            }
        }) / K as u128;
        eprintln!(
            "  candidate_family/fork_vs_clone size {flights}: clone {clone_ns} ns/candidate, \
             fork {fork_ns} ns/candidate"
        );
        rows.push(Row {
            group: "candidate_family/fork_vs_clone".to_owned(),
            size: flights,
            baseline_ns: clone_ns.max(1),
            fast_ns: fork_ns.max(1),
        });
    }

    // (b) Shard-parallel sweep: K forks of the 500-flight base, each with
    // a private delta, swept by the paper query. All shards resolve base
    // reads through the same sealed snapshot and its shared frozen CSR.
    let mut base = paper_flight_graph(500);
    let city = base.node_id(Node::cst("city0")).expect("city0 present");
    let shards: Vec<Graph> = (0..K)
        .map(|i| {
            let mut g = base.fork();
            grow(&mut g, i);
            // Freeze up front: the first shard to freeze populates the
            // base's shared CSR slot; the rest reuse it.
            g.freeze();
            g
        })
        .collect();
    let query = Cnre::parse(&format!("(x, {PAPER_QUERY}, y)")).expect("static query");
    let run_shards = |n: usize| {
        let rt = Runtime::new(Threads::Fixed(n));
        let t = Instant::now();
        let total: usize = rt
            .par_map(&shards, |_, g| {
                // Per-shard compile: `PreparedQuery` holds worker-local
                // demand state (not `Sync`), so each shard prepares its
                // own copy — identical work at 1 and 4 workers.
                let prepared = PreparedQuery::new(query.clone());
                let mut cache = EvalCache::new();
                let mut seed = FxHashMap::default();
                seed.insert(Symbol::new("x"), city);
                let b = prepared
                    .evaluate_seeded_mode(g, &mut cache, &seed, PlannerMode::Auto)
                    .expect("eval");
                b.len()
            })
            .into_iter()
            .sum();
        std::hint::black_box(total);
        t.elapsed().as_nanos()
    };
    let (t1, t4, _) = ab_samples(3, || run_shards(1), || run_shards(4));
    eprintln!("  candidate_family/shard_sweep size 500: 1w {t1} ns, 4w {t4} ns");
    rows.push(Row {
        group: "candidate_family/shard_sweep".to_owned(),
        size: 500,
        baseline_ns: t1,
        fast_ns: t4,
    });
}

/// PR-9: one fully-instrumented run of the Example 2.2 session — chase,
/// candidate verification, and the paper query's certain answers — with
/// metrics recording on. One worker and the no-op clock keep the dump
/// free of scheduling-shaped counters and wall-clock histograms, so the
/// rendered registry is byte-stable across hosts and can be committed as
/// `METRICS_pr10.json` (a drift in its counters is a semantic change, not
/// noise).
fn observability_metrics() -> String {
    let obs = gdx_obs::Obs::enabled();
    let mut session = ExchangeSession::new(Setting::example_2_2_egd(), Instance::example_2_2())
        .with_options(Options::default().with_threads(Threads::Fixed(1)))
        .with_obs(obs.clone());
    let query =
        PreparedQuery::new(Cnre::parse(&format!("(x1, {PAPER_QUERY}, x2)")).expect("static query"));
    let (rows, _exact) = session.certain_answers(&query).expect("certain answers");
    std::hint::black_box(rows.len());
    obs.render_metrics_json()
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_pr10.json".to_owned());
    let metrics_path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "METRICS_pr10.json".to_owned());
    let mut rows = Vec::new();
    seeded_query_rows(&mut rows);
    certain_probe_rows(&mut rows);
    session_reuse_rows(&mut rows);
    parallel_speedup_rows(&mut rows);
    data_plane_rows(&mut rows);
    candidate_family_rows(&mut rows);

    let detected = Threads::Auto.resolve();
    if detected == 1 {
        assert_eq!(
            Runtime::new(Threads::Fixed(4)).workers(),
            1,
            "Threads::Fixed must clamp to detected parallelism"
        );
        one_worker_parity_guard();
    }
    let mut json =
        format!("{{\n  \"pr\": 10,\n  \"detected_parallelism\": {detected},\n  \"groups\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let speedup = r.baseline_ns as f64 / r.fast_ns.max(1) as f64;
        let _ = write!(
            json,
            "    {{\"group\": \"{}\", \"size\": {}, \"median_ns_baseline\": {}, \
             \"median_ns_fast\": {}, \"speedup\": {:.2}}}",
            r.group, r.size, r.baseline_ns, r.fast_ns, speedup
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write report");

    let metrics = observability_metrics();
    std::fs::write(&metrics_path, &metrics).expect("write metrics dump");
    eprintln!("  observability registry ({metrics_path}):\n{metrics}");

    println!("{json}");
    for r in &rows {
        println!(
            "{:<32} size {:>5}: baseline {:>12} ns, fast {:>12} ns, speedup {:>8.2}x",
            r.group,
            r.size,
            r.baseline_ns,
            r.fast_ns,
            r.baseline_ns as f64 / r.fast_ns.max(1) as f64
        );
    }
}
