//! Integration tests for the Theorem 4.1 / Corollary 4.2 /
//! Proposition 4.3 reductions (experiments E5–E7), including randomized
//! cross-validation of all three existence backends against the SAT
//! oracle.

use gdx::datagen::{random_3cnf, rng};
use gdx::exchange::encode::solution_exists_sat;
use gdx::exchange::exists::construct_solution_no_egds;
use gdx::exchange::reduction::{Reduction, ReductionFlavor};
use gdx::exchange::{is_solution, CertainAnswer, ExchangeSession, Existence, Options};
use gdx::pattern::InstantiationConfig;
use gdx::sat::{brute_force, Cnf, Lit};

fn config_for(n: u32) -> Options {
    Options {
        instantiation: InstantiationConfig {
            max_graphs: (1usize << n) + 8,
            ..InstantiationConfig::default()
        },
        ..Options::default()
    }
}

fn session_for(red: &Reduction, n: u32) -> ExchangeSession {
    ExchangeSession::new(red.setting.clone(), red.instance.clone()).with_options(config_for(n))
}

#[test]
fn e5_randomized_existence_agreement() {
    // 3 sizes × 3 ratios × 3 seeds, all three backends vs brute force.
    let mut satisfiable_at = [0usize; 3];
    for n in [4u32, 5, 6] {
        for (r, ratio) in [2.0f64, 4.3, 6.0].into_iter().enumerate() {
            let m = ((n as f64) * ratio).round() as usize;
            for seed in 0..3u64 {
                let cnf = random_3cnf(n, m, &mut rng(seed * 31 + n as u64));
                let truth = brute_force(&cnf).is_some();
                satisfiable_at[r] += usize::from(truth);
                let red = Reduction::from_cnf(&cnf, ReductionFlavor::Egd).unwrap();

                let search = session_for(&red, n).solution_exists().unwrap();
                assert_eq!(
                    search.exists(),
                    truth,
                    "search solver, n={n} m={m} s={seed}"
                );
                if let Existence::Exists(g) = &search {
                    assert!(is_solution(&red.instance, &red.setting, g).unwrap());
                    let val = red.valuation_from_solution(g).unwrap();
                    assert!(cnf.eval(&val), "witness decodes to a model");
                }

                let enc = solution_exists_sat(&red.instance, &red.setting).unwrap();
                assert_eq!(enc.exists(), truth, "SAT encoder, n={n} m={m} s={seed}");
                if let Existence::Exists(g) = &enc {
                    assert!(is_solution(&red.instance, &red.setting, g).unwrap());
                }
            }
        }
    }
    // Below the satisfiability threshold formulas are satisfiable at
    // least as often as above it.
    assert!(
        satisfiable_at[0] >= satisfiable_at[2],
        "satisfiable per ratio: {satisfiable_at:?}"
    );
}

#[test]
fn e6_randomized_certain_agreement() {
    for n in [4u32, 5] {
        for ratio in [3.0f64, 5.0] {
            let m = ((n as f64) * ratio).round() as usize;
            for seed in 0..3u64 {
                let cnf = random_3cnf(n, m, &mut rng(seed * 97 + n as u64));
                let unsat = brute_force(&cnf).is_none();
                let red = Reduction::from_cnf(&cnf, ReductionFlavor::Egd).unwrap();
                let ans = session_for(&red, n)
                    .certain_pair(&Reduction::certain_query_egd(), "c1", "c2")
                    .unwrap();
                assert_eq!(
                    ans.is_certain(),
                    unsat,
                    "Corollary 4.2, n={n} m={m} seed={seed}"
                );
                if let CertainAnswer::NotCertain(g) = &ans {
                    assert!(is_solution(&red.instance, &red.setting, g).unwrap());
                }
            }
        }
    }
}

#[test]
fn e7_randomized_sameas_agreement() {
    for seed in 0..4u64 {
        let n = 4u32;
        let cnf = random_3cnf(n, 18, &mut rng(seed * 13));
        let unsat = brute_force(&cnf).is_none();
        let red = Reduction::from_cnf(&cnf, ReductionFlavor::SameAs).unwrap();

        // Existence is trivial (Proposition 4.3).
        let g =
            construct_solution_no_egds(&red.instance, &red.setting, &Options::default()).unwrap();
        assert!(is_solution(&red.instance, &red.setting, &g).unwrap());

        // Certain answering of `sameAs` mirrors unsatisfiability.
        let ans = session_for(&red, n)
            .certain_pair(&Reduction::certain_query_sameas(), "c1", "c2")
            .unwrap();
        assert_eq!(ans.is_certain(), unsat, "Proposition 4.3, seed={seed}");
    }
}

#[test]
fn reduction_inverse_recovers_formula() {
    for seed in 0..5u64 {
        let cnf = random_3cnf(6, 20, &mut rng(seed));
        let red = Reduction::from_cnf(&cnf, ReductionFlavor::Egd).unwrap();
        let back = red.extract_cnf();
        let norm = |c: &Cnf| {
            let mut cl: Vec<Vec<Lit>> = c.clauses.clone();
            for c in &mut cl {
                c.sort();
            }
            cl.sort();
            cl
        };
        assert_eq!(norm(&cnf), norm(&back));
    }
}

#[test]
fn reduction_instance_is_fixed() {
    // The hardness is in *query* complexity: the source schema and
    // instance never change across formulas.
    let a = Reduction::from_cnf(&random_3cnf(4, 10, &mut rng(1)), ReductionFlavor::Egd).unwrap();
    let b = Reduction::from_cnf(&random_3cnf(9, 40, &mut rng(2)), ReductionFlavor::Egd).unwrap();
    assert_eq!(a.instance.to_string(), b.instance.to_string());
    assert_eq!(a.setting.source, b.setting.source);
    assert_ne!(a.setting.target.len(), b.setting.target.len());
}

#[test]
fn solution_count_equals_model_count() {
    // Minimal solutions of a reduction ↔ satisfying valuations.
    for seed in 0..3u64 {
        let n = 4u32;
        let cnf = random_3cnf(n, 12, &mut rng(seed * 7 + 100));
        let models = (0u64..(1 << n))
            .filter(|bits| {
                let v: Vec<bool> = (0..n).map(|i| bits & (1 << i) != 0).collect();
                cnf.eval(&v)
            })
            .count();
        let red = Reduction::from_cnf(&cnf, ReductionFlavor::Egd).unwrap();
        let mut session = session_for(&red, n);
        let stream = session.solutions().unwrap();
        let sols: Vec<_> = stream.map(|g| g.unwrap()).collect();
        let mut replay = session.solutions().unwrap();
        assert_eq!(replay.by_ref().count(), sols.len());
        assert!(replay.exact());
        assert_eq!(sols.len(), models, "seed={seed}");
    }
}
