//! Allocation-count regression test for the cache-conscious data plane.
//!
//! Counts heap allocations (via a counting wrapper around the system
//! allocator) performed by the 500-flight paper-query evaluation workload:
//! one cold seeded image enumeration plus a sweep of constant-pair
//! membership probes. Allocation count, unlike wall time, is
//! deterministic per build, so it makes a sharp guard: the cache-conscious
//! data plane (frozen CSR snapshots, arena-backed `BinRel` adjacency,
//! reusable bitset scratch in the product-BFS) must keep the count at
//! ≤ 25% of what the earlier hash-map data plane allocated on the same
//! workload.
//!
//! The hash-map data plane's count was dominated by one boxed row plus one
//! dedup clone per answer (1096 answers here) and per-BFS hash sets; the
//! flat row-major `NodeBindings` and the evaluator's reusable scratch
//! remove both, which is what the budget polices.
//!
//! The counting allocator is this test binary's `#[global_allocator]`;
//! every other test binary keeps the system allocator.

#![expect(
    unsafe_code,
    reason = "a `#[global_allocator]` is an `unsafe impl GlobalAlloc`; it only counts and forwards to `System`"
)]

use gdx::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every `alloc`/`realloc`; frees are not interesting here.
struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. The test harness runs this
    /// binary's tests concurrently, so a process-wide count would mix
    /// their allocations; every measured workload runs on its test's own
    /// thread (sequential runtimes), so a per-thread count is exact.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread may still allocate while its locals are torn
    // down; those allocations are never inside a measured window.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are ours. `count_one` does not allocate: the
// thread-local is a const-initialized `Cell`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract for `alloc` is passed on as is.
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` through this allocator, and the
        // caller's contract for `realloc` is passed on as is.
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations performed by `body` on the calling thread.
fn allocations_during(body: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    body();
    ALLOCS.with(Cell::get) - before
}

/// The paper's query from Example 2.2.
const PAPER_QUERY: &str = "f.f*.[h].f-.(f-)*";

/// The instantiated chase graph of a Flight/Hotel instance with
/// `flights` flights over `flights/5` cities and hotels (seed 42).
fn paper_flight_graph(flights: usize) -> Graph {
    use gdx::chase::{chase_st, StChaseVariant};
    use gdx::datagen::{flights_hotels, rng, FlightsHotelsParams};
    let inst = flights_hotels(
        FlightsHotelsParams {
            flights,
            cities: (flights / 5).max(4),
            hotels: flights / 5,
            stays_per_flight: 2,
        },
        &mut rng(42),
    );
    let st = chase_st(
        &inst,
        &Setting::example_2_2_egd(),
        StChaseVariant::Oblivious,
    )
    .expect("st chase");
    gdx::pattern::instantiate_shortest(&st.pattern).expect("instantiation")
}

/// The hash-map data plane allocated this many times on this exact
/// workload (measured with this harness; the frozen-CSR data plane
/// measured 381 on the same build profile when it replaced it — 12.9%).
const HASH_PLANE_ALLOCATIONS: u64 = 2962;

#[test]
fn paper_query_eval_allocation_budget() {
    use gdx::common::FxHashMap;
    use gdx::nre::eval::EvalCache;

    let query = Cnre::parse(&format!("(x, {PAPER_QUERY}, y)")).expect("static query");
    let g = paper_flight_graph(500);
    let city = |i: usize| {
        g.node_id(Node::cst(&format!("city{i}")))
            .expect("city present")
    };
    let mut seed = FxHashMap::default();
    seed.insert(Symbol::new("x"), city(0));

    // One throwaway evaluation first: interning, lazy statics and the
    // graph's frozen snapshot warm up outside the measured window.
    let prepared = PreparedQuery::new(query);
    let mut warmup_cache = EvalCache::new();
    let warm = prepared
        .evaluate_seeded(&g, &mut warmup_cache, &seed)
        .expect("eval");
    assert!(!warm.is_empty(), "paper query has answers from city0");

    // Cold-cache semantics: caches (and their demand evaluators' memo
    // tables) are rebuilt inside the measured window; only the prepared
    // query's compiled automata are warm.
    let count = allocations_during(|| {
        let mut cache = EvalCache::new();
        let b = prepared
            .evaluate_seeded(&g, &mut cache, &seed)
            .expect("eval");
        std::hint::black_box(b.len());
        // The Corollary-4.2 probe shape: both endpoints bound, sixteen
        // city pairs, one cold cache each.
        for a in 0..4 {
            for b in 0..4 {
                let mut probe_seed = FxHashMap::default();
                probe_seed.insert(Symbol::new("x"), city(a));
                probe_seed.insert(Symbol::new("y"), city(b));
                let mut cache = EvalCache::new();
                let hit = prepared
                    .evaluate_seeded_exists(&g, &mut cache, &probe_seed)
                    .expect("probe");
                std::hint::black_box(hit);
            }
        }
    });

    eprintln!(
        "500-flight paper-query eval workload: {count} allocations \
         (hash-map data plane: {HASH_PLANE_ALLOCATIONS})"
    );
    assert!(
        count * 4 <= HASH_PLANE_ALLOCATIONS,
        "data-plane regression: {count} allocations > 25% of the hash-map data plane's \
         {HASH_PLANE_ALLOCATIONS}"
    );
}

/// Disabled observability is provably free: a disabled `Obs` handle
/// performs **zero** heap allocations no matter how many recording
/// calls run through it, and threading one through the 500-flight
/// paper-query evaluation allocates exactly as much as the plain path
/// (bit-identical count, not merely "close").
#[test]
fn disabled_observability_allocates_nothing() {
    use gdx::common::FxHashMap;
    use gdx::nre::eval::EvalCache;
    use gdx::query::PlannerMode;

    // (1) The handle itself: every recording entry point early-returns
    // without touching the heap when the core is absent.
    let obs = Obs::disabled();
    let count = allocations_during(|| {
        for i in 0..10_000u64 {
            obs.incr("x.counter");
            obs.add("x.bulk", i);
            obs.gauge_set("x.gauge", i);
            obs.observe("x.hist", i);
            obs.event("x.event", &[("k", i), ("v", i * 2)]);
            let _span = obs.span_fields("x.span", &[("i", i)]);
            std::hint::black_box(obs.is_enabled());
        }
    });
    assert_eq!(
        count, 0,
        "disabled Obs recorded {count} allocation(s) over 70k calls"
    );

    // (2) The paper workload: a runtime carrying an explicitly-attached
    // disabled handle must allocate exactly what the default runtime
    // does — the disabled path adds zero allocations end to end.
    let query = Cnre::parse(&format!("(x, {PAPER_QUERY}, y)")).expect("static query");
    let g = paper_flight_graph(500);
    let city0 = g.node_id(Node::cst("city0")).expect("city present");
    let mut seed = FxHashMap::default();
    seed.insert(Symbol::new("x"), city0);
    let prepared = PreparedQuery::new(query);

    let run = |rt: &Runtime| {
        allocations_during(|| {
            let mut cache = EvalCache::new();
            let rows = prepared
                .evaluate_limited_rt(&g, &mut cache, &seed, PlannerMode::Auto, None, rt)
                .expect("eval");
            std::hint::black_box(rows.len());
        })
    };
    let plain_rt = Runtime::sequential();
    let observed_rt = Runtime::sequential().with_obs(Obs::disabled());
    // Warm-up pass for each runtime (interning, lazy statics), exactly
    // like the budget test above.
    run(&plain_rt);
    run(&observed_rt);
    let plain = run(&plain_rt);
    let observed = run(&observed_rt);
    eprintln!("500-flight workload: plain {plain} vs disabled-obs {observed} allocations");
    assert_eq!(
        plain, observed,
        "disabled observability changed the workload's allocation count"
    );
}

/// Candidate-sweep guard for the copy-on-write forks: emitting a
/// K-candidate family as forks of a shared sealed base must allocate
/// sublinearly in base size — a small constant per candidate — where the
/// eager baseline (`Graph::clone` per candidate) allocates one heap block
/// per adjacency bucket of the base, i.e. thousands per candidate at 500
/// flights. Each candidate also receives a small private delta, matching
/// the witness-variation shape of `InstantiationFamily`.
#[test]
fn candidate_family_allocation_budget() {
    const K: usize = 16;

    /// The per-candidate delta: two fresh nodes and three edges, like a
    /// short witness path.
    fn grow(g: &mut Graph, i: usize) {
        let a = g.add_const(&format!("probe{i}a"));
        let b = g.add_const(&format!("probe{i}b"));
        let hub = g.add_const("city0");
        g.add_edge_labelled(hub, "probe", a);
        g.add_edge_labelled(a, "probe", b);
        g.add_edge_labelled(b, "probe", hub);
    }

    fn sweep_clone(base: &Graph) -> u64 {
        allocations_during(|| {
            for i in 0..K {
                let mut g = base.clone();
                grow(&mut g, i);
                std::hint::black_box(g.edge_count());
            }
        })
    }

    fn sweep_fork(base: &mut Graph) -> u64 {
        allocations_during(|| {
            for i in 0..K {
                let mut g = base.fork();
                grow(&mut g, i);
                std::hint::black_box(g.edge_count());
            }
        })
    }

    let small = paper_flight_graph(100);
    let large = paper_flight_graph(500);
    let clone_small = sweep_clone(&small);
    let clone_large = sweep_clone(&large);
    let (mut small, mut large) = (small, large);
    let fork_small = sweep_fork(&mut small);
    let fork_large = sweep_fork(&mut large);
    eprintln!(
        "candidate sweep (K={K}): clone {clone_small}/{clone_large} allocations \
         (100/500 flights), fork {fork_small}/{fork_large}"
    );

    // ≥ 5× fewer allocations than the clone baseline at 500 flights.
    assert!(
        fork_large * 5 <= clone_large,
        "fork sweep allocated {fork_large}, clone baseline {clone_large}: \
         less than the required 5× saving"
    );
    // Per-candidate fork cost is independent of base size: growing the
    // base 5× must not grow the fork sweep's allocations with it (the
    // one-off seal is included in both measurements). Clone cost, by
    // contrast, must visibly scale — that is what makes this guard sharp.
    assert!(
        fork_large <= fork_small * 2,
        "fork sweep scales with base size: {fork_small} → {fork_large}"
    );
    assert!(
        clone_large >= clone_small * 2,
        "clone baseline did not scale with base size ({clone_small} → \
         {clone_large}); the guard is no longer measuring what it claims"
    );
    // Absolute per-candidate budget: a fork plus a three-edge delta should
    // stay within a few dozen allocations.
    assert!(
        fork_large <= (K as u64) * 64,
        "per-candidate fork cost exploded: {fork_large} allocations for {K} candidates"
    );
}

/// The paper's query `(x1, f.f*.[h].f-.(f-)*, x2)` has this many
/// certain-answer lower-bound allocations on the 100-flight chased
/// pattern below when every join row is cloned and hashed per visited
/// pair (measured with this harness on the release profile).
const PER_PAIR_ROW_ALLOCATIONS: u64 = 52_613;

/// The certain-answer lower bound (entailment index, lifted join, row
/// conversion) on the chased pattern of a 100-flight instance must stay
/// at ≤ 10% of the per-pair row allocations: rows are built in reused
/// buffers and the entailment walk reuses its bitsets across start nodes.
#[test]
fn lower_bound_allocation_budget() {
    use gdx::chase::egd_pattern::adapted_chase;
    use gdx::chase::EgdChaseConfig;
    use gdx::datagen::{flights_hotels, rng, FlightsHotelsParams};
    use gdx::exchange::representative::UniversalRepresentative;

    let inst = flights_hotels(
        FlightsHotelsParams {
            flights: 100,
            ..FlightsHotelsParams::default()
        },
        &mut rng(7),
    );
    let setting = Setting::example_2_2_egd();
    let pattern = adapted_chase(&inst, &setting, EgdChaseConfig::default())
        .expect("chase")
        .pattern()
        .expect("the chase succeeds")
        .clone();
    let rep = UniversalRepresentative {
        pattern,
        constraints: setting.target_constraints.clone(),
    };
    let query = Cnre::parse(&format!("(x1, {PAPER_QUERY}, x2)")).expect("static query");
    let options = Options::default();
    // Warm-up: interning and lazy statics outside the measured window.
    let rows = rep
        .certain_answer_lower_bound(&query, &options)
        .expect("lower bound");
    assert!(rows.len() > 100, "the bound proves the paper's pairs");
    let count = allocations_during(|| {
        let rows = rep
            .certain_answer_lower_bound(&query, &options)
            .expect("lower bound");
        std::hint::black_box(rows.len());
    });
    eprintln!(
        "100-flight lower bound: {count} allocations for {} rows \
         (per-pair rows: {PER_PAIR_ROW_ALLOCATIONS})",
        rows.len()
    );
    assert!(
        count * 10 <= PER_PAIR_ROW_ALLOCATIONS,
        "lower-bound regression: {count} allocations > 10% of the per-pair row join's \
         {PER_PAIR_ROW_ALLOCATIONS}"
    );
}
