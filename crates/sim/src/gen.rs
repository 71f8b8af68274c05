//! Seed → [`Scenario`]: deterministic scenario generation.
//!
//! Generation is *oracle-aware*. Loose-comparison oracles (`chase-mode`,
//! `sat`) only claim equivalence on untruncated runs, so their scenarios
//! never carry caps and always drain solution streams fully — a capped
//! prefix of two isomorphic-but-differently-ordered candidate families
//! would produce false mismatches. Strict oracles (`replay`, `planner`,
//! `threads`, `fork`) compare two identically-configured executions, so
//! caps and partial drains are fair game there. The `faults` oracle
//! generates cap-free scenarios (the sweep supplies the adversarial
//! bounds itself) and is the only one that produces
//! chase-termination-boundary cyclic settings.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gdx_datagen::scenario::{
    random_boolean_query_text, random_edge, random_instance_text, random_open_query_text,
    random_setting_text, random_work_graph_text, ScenarioParams,
};

use crate::trace::{Op, Scenario, SimOptions};
use crate::Oracle;

/// True when `oracle` compares loosely (up to isomorphism) and therefore
/// must not see truncating options or partial stream drains.
fn loose(oracle: Oracle) -> bool {
    matches!(oracle, Oracle::ChaseMode | Oracle::Sat | Oracle::Faults)
}

/// Generates the scenario of `seed` for `oracle`.
pub fn generate(seed: u64, oracle: Oracle) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let params = ScenarioParams {
        st_tgds: 1 + rng.gen_range(0..2usize),
        constraints: rng.gen_range(0..3usize),
        star_heads: rng.gen_bool(0.5),
        egds: true,
        sameas: rng.gen_bool(0.5),
        target_tgds: true,
        cyclic_tgd: oracle == Oracle::Faults && rng.gen_bool(0.25),
    };
    let setting = random_setting_text(&params, &mut rng);
    let instance = random_instance_text(&mut rng);
    let graph = if rng.gen_bool(0.7) {
        random_work_graph_text(&mut rng)
    } else {
        String::new()
    };
    let options = random_options(&mut rng, oracle);

    let n_ops = 3 + rng.gen_range(0..6usize);
    let mut ops = Vec::with_capacity(n_ops + 1);
    for _ in 0..n_ops {
        ops.push(random_op(&mut rng, oracle));
    }
    // Every scenario ends with at least one query (a pure-mutation trace
    // checks nothing), and sat scenarios need a chase to cross-check.
    if !ops.iter().any(Op::is_query) {
        ops.push(Op::Chase);
    }
    if oracle == Oracle::Sat && !ops.contains(&Op::Chase) {
        ops.push(Op::Chase);
    }

    Scenario {
        seed,
        setting,
        instance,
        graph,
        options,
        ops,
    }
}

fn random_options(rng: &mut StdRng, oracle: Oracle) -> SimOptions {
    let mut opts = SimOptions::generous();
    opts.max_graphs = [16, 32, 64][rng.gen_range(0..3usize)];
    if !loose(oracle) {
        if rng.gen_bool(0.3) {
            opts.row_limit = Some(rng.gen_range(0..4usize));
        }
        if rng.gen_bool(0.3) {
            opts.solution_cap = Some(rng.gen_range(0..3usize));
        }
        if rng.gen_bool(0.2) {
            opts.max_steps = rng.gen_range(1..40usize);
        }
    }
    opts
}

fn random_op(rng: &mut StdRng, oracle: Oracle) -> Op {
    let full_drain = loose(oracle);
    match rng.gen_range(0..100u32) {
        0..=19 => Op::Chase,
        20..=27 => Op::IsSolution,
        28..=33 => Op::EdgeDrops,
        34..=48 => Op::Certain(random_boolean_query_text(rng)),
        49..=63 => Op::CertainAnswers(random_open_query_text(rng)),
        64..=75 => {
            if full_drain || rng.gen_bool(0.5) {
                Op::Solutions(None)
            } else {
                Op::Solutions(Some(1 + rng.gen_range(0..3usize)))
            }
        }
        76..=88 => {
            let (s, l, d) = random_edge(rng);
            Op::InsertEdge(s, l, d)
        }
        89..=92 => Op::Fork,
        93..=95 => Op::Compact,
        _ => {
            if oracle == Oracle::Faults {
                // The fault sweep owns the knob surface; an embedded
                // options mutation would clobber the swept bounds.
                Op::Chase
            } else {
                Op::SetOptions(random_options(rng, oracle))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for oracle in Oracle::ALL {
            let a = generate(7, oracle);
            let b = generate(7, oracle);
            assert_eq!(a, b, "oracle {oracle}");
        }
    }

    #[test]
    fn generated_scenarios_round_trip_as_text() {
        for seed in 0..40u64 {
            for oracle in Oracle::ALL {
                let sc = generate(seed, oracle);
                let text = sc.to_text();
                let back = Scenario::parse(&text)
                    .unwrap_or_else(|e| panic!("seed {seed} oracle {oracle}: {e}\n{text}"));
                assert_eq!(back, sc, "seed {seed} oracle {oracle}");
                assert_eq!(back.to_text(), text, "canonical form, seed {seed}");
            }
        }
    }

    #[test]
    fn loose_oracles_get_no_truncation() {
        for seed in 0..60u64 {
            for oracle in [Oracle::ChaseMode, Oracle::Sat, Oracle::Faults] {
                let sc = generate(seed, oracle);
                assert_eq!(sc.options.row_limit, None);
                assert_eq!(sc.options.solution_cap, None);
                for op in &sc.ops {
                    match op {
                        Op::Solutions(take) => assert_eq!(*take, None),
                        Op::SetOptions(o) if oracle == Oracle::Faults => {
                            panic!("faults scenario contains options mutation {o:?}")
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    #[test]
    fn every_scenario_queries_something() {
        for seed in 0..60u64 {
            for oracle in Oracle::ALL {
                assert!(generate(seed, oracle).ops.iter().any(Op::is_query));
            }
        }
    }
}
