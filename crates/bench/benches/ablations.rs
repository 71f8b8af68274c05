//! B5: ablations over the design choices DESIGN.md calls out:
//! (i) oblivious vs restricted s-t chase, (ii) batched vs sequential egd
//! merging, (iii) DPLL heuristics, (iv) search vs SAT-encoding existence.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gdx_bench::solver_config_for_reduction;
use gdx_chase::{chase_egds_on_pattern, chase_st, EgdChaseConfig, StChaseVariant};
use gdx_datagen::{flights_hotels, random_3cnf, rng, FlightsHotelsParams};
use gdx_exchange::reduction::{Reduction, ReductionFlavor};
use gdx_mapping::Setting;
use gdx_sat::{solve, SolverConfig};

fn bench_ablations(c: &mut Criterion) {
    let setting = Setting::example_2_2_egd();
    let inst = flights_hotels(
        FlightsHotelsParams {
            flights: 300,
            cities: 40,
            hotels: 40,
            stays_per_flight: 2,
        },
        &mut rng(1),
    );

    // (i) s-t chase variants.
    let mut group = c.benchmark_group("st_chase_variant");
    group.sample_size(10);
    for (name, variant) in [
        ("oblivious", StChaseVariant::Oblivious),
        ("restricted", StChaseVariant::Restricted),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &name, |b, _| {
            b.iter(|| chase_st(&inst, &setting, variant).unwrap().fired)
        });
    }
    group.finish();

    // (ii) egd merge strategies — on a smaller instance: the sequential
    // strategy is quadratic in merges and would dominate bench wall time.
    let small = flights_hotels(
        FlightsHotelsParams {
            flights: 120,
            cities: 20,
            hotels: 16,
            stays_per_flight: 2,
        },
        &mut rng(2),
    );
    let st = chase_st(&small, &setting, StChaseVariant::Oblivious).unwrap();
    let egds: Vec<_> = setting.egds().cloned().collect();
    let mut group = c.benchmark_group("egd_merge_strategy");
    group.sample_size(10);
    for (name, batch) in [("batched", true), ("sequential", false)] {
        let cfg = EgdChaseConfig {
            batch_merges: batch,
            ..EgdChaseConfig::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(name), &name, |b, _| {
            b.iter(|| {
                chase_egds_on_pattern(&st.pattern, &egds, cfg)
                    .unwrap()
                    .succeeded()
            })
        });
    }
    group.finish();

    // (iii) DPLL heuristics at the phase transition.
    let f = random_3cnf(30, 129, &mut rng(13));
    let mut group = c.benchmark_group("dpll_heuristics");
    group.sample_size(10);
    for (name, cfg) in [
        ("full", SolverConfig::default()),
        (
            "bare",
            SolverConfig {
                pure_literal: false,
                frequency_heuristic: false,
                ..SolverConfig::default()
            },
        ),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &name, |b, _| {
            b.iter(|| solve(&f, cfg).0.is_sat())
        });
    }
    group.finish();

    // (iv) existence solver backends.
    let cnf = random_3cnf(8, 34, &mut rng(3));
    let red = Reduction::from_cnf(&cnf, ReductionFlavor::Egd).unwrap();
    let cfg = solver_config_for_reduction(8);
    let mut group = c.benchmark_group("existence_backend");
    group.sample_size(10);
    group.bench_function("search", |b| {
        b.iter(|| {
            gdx_exchange::ExchangeSession::new(red.setting.clone(), red.instance.clone())
                .with_options(cfg)
                .solution_exists()
                .unwrap()
                .exists()
        })
    });
    group.bench_function("sat_encoding", |b| {
        b.iter(|| {
            gdx_exchange::encode::solution_exists_sat(&red.instance, &red.setting)
                .unwrap()
                .exists()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
