//! SAT encoding of existence-of-solutions for the restricted fragment.
//!
//! Fragment (a superset of what Theorem 4.1's reduction produces):
//!
//! * the chased pattern contains **constants only** (no existential
//!   variables in s-t tgd heads);
//! * every pattern-edge NRE is a **single symbol or a union of symbols**;
//! * every egd body is a **single atom** whose NRE is a word
//!   `ℓ₁·…·ℓ_k` of forward symbols.
//!
//! Encoding: one Boolean per *potential edge* `(u, ℓ, v)` (a disjunct of
//! some pattern edge); per pattern edge a positive clause picking a
//! disjunct; per egd and per path of potential edges spelling the egd word
//! between two **distinct** constants, a negative clause forbidding that
//! path. The encoding is exact: a model ⇔ a solution among subgraphs of
//! the potential edges, and any solution restricts to such a subgraph
//! (see DESIGN.md §5, item 4).
//!
//! On settings produced by [`crate::reduction::Reduction::from_cnf`] the
//! encoding is (up to variable naming) the original formula plus the
//! per-variable exclusivity clauses — the round-trip test below pins this.

use crate::exists::Existence;
use gdx_chase::{chase_st, StChaseVariant};
use gdx_common::{FxHashMap, GdxError, Result, Symbol};
use gdx_graph::Graph;
use gdx_mapping::{Setting, TargetConstraint};
use gdx_nre::classify::{single_word, union_of_symbols};
use gdx_nre::Nre;
use gdx_pattern::PNodeId;
use gdx_relational::Instance;
use gdx_sat::{solve, Cnf, Lit, SatResult, SolverConfig};

/// A potential edge of the decoded graph.
type PotEdge = (PNodeId, Symbol, PNodeId);

/// The encoded problem, kept around for decoding and inspection.
#[derive(Debug, Clone)]
pub struct Encoding {
    /// The CNF to hand to a SAT solver.
    pub cnf: Cnf,
    /// Potential edges by variable index.
    pub edges: Vec<PotEdge>,
    /// The chased (constant-only) pattern the encoding talks about.
    pub pattern: gdx_pattern::GraphPattern,
}

/// Builds the encoding, or `Unsupported` outside the fragment.
pub fn encode_existence(instance: &Instance, setting: &Setting) -> Result<Encoding> {
    setting.validate()?;
    if setting.has_target_tgds() || setting.has_same_as() {
        return Err(GdxError::unsupported(
            "SAT encoding handles egd-only target constraints",
        ));
    }
    let st = chase_st(instance, setting, StChaseVariant::Oblivious)?;
    let pattern = st.pattern;
    if pattern.null_count() > 0 {
        return Err(GdxError::unsupported(
            "SAT encoding requires a constant-only chased pattern \
             (no existential head variables)",
        ));
    }

    // Potential edges and per-pattern-edge choice clauses.
    let mut var_of: FxHashMap<PotEdge, u32> = FxHashMap::default();
    let mut edges: Vec<PotEdge> = Vec::new();
    let mut cnf = Cnf::new(0);
    let mut choice_clauses: Vec<Vec<Lit>> = Vec::new();
    for (s, r, d) in pattern.edges() {
        let options: Vec<Symbol> = match r {
            Nre::Label(a) => vec![*a],
            other => union_of_symbols(other).ok_or_else(|| {
                GdxError::unsupported(format!(
                    "pattern edge `{other}` is not a (union of) symbol(s)"
                ))
            })?,
        };
        let mut clause = Vec::new();
        for l in options {
            let key: PotEdge = (*s, l, *d);
            let var = *var_of.entry(key).or_insert_with(|| {
                let v = edges.len() as u32;
                edges.push(key);
                v
            });
            clause.push(Lit::pos(var));
        }
        choice_clauses.push(clause);
    }
    for c in choice_clauses {
        cnf.add_clause(c);
    }

    // Egd path clauses.
    let nodes: Vec<PNodeId> = pattern.node_ids().collect();
    // Adjacency over potential edges per label: label -> Vec<(u, v, var)>.
    let mut by_label: FxHashMap<Symbol, Vec<(PNodeId, PNodeId, u32)>> = FxHashMap::default();
    for (i, &(u, l, v)) in edges.iter().enumerate() {
        by_label.entry(l).or_default().push((u, v, i as u32));
    }
    for c in &setting.target_constraints {
        let TargetConstraint::Egd(egd) = c else {
            unreachable!("tgds and sameAs rejected above")
        };
        if egd.body.atoms.len() != 1 {
            return Err(GdxError::unsupported(
                "SAT encoding handles single-atom egd bodies",
            ));
        }
        let atom = &egd.body.atoms[0];
        let word = single_word(&atom.nre).ok_or_else(|| {
            GdxError::unsupported(format!(
                "egd body NRE `{}` is not a word of symbols",
                atom.nre
            ))
        })?;
        if word.is_empty() {
            return Err(GdxError::unsupported("empty-word egd body"));
        }
        let (lv, rv) = (atom.left.as_var(), atom.right.as_var());
        if lv != Some(egd.lhs) || rv != Some(egd.rhs) {
            return Err(GdxError::unsupported(
                "SAT encoding expects egd bodies of the form (x, w, y) → x = y",
            ));
        }
        // Paths realizing `word`: DFS over word positions.
        let mut stack: Vec<(PNodeId, usize, Vec<u32>)> =
            nodes.iter().map(|&n| (n, 0, Vec::new())).collect();
        let budget_limit = 200_000usize;
        let mut visited = 0usize;
        while let Some((cur, pos, path_vars)) = stack.pop() {
            visited += 1;
            if visited > budget_limit {
                return Err(GdxError::limit("egd path enumeration exceeded its budget"));
            }
            if pos == word.len() {
                // Path from its origin to `cur`. The origin is implicit in
                // how we seeded the stack: track it in path_vars[...]. We
                // need origin ≠ cur to emit a clause — recover origin from
                // the first edge.
                let origin = if let Some(&first_var) = path_vars.first() {
                    edges[first_var as usize].0
                } else {
                    cur
                };
                if origin != cur {
                    let clause: Vec<Lit> = {
                        let mut seen = std::collections::BTreeSet::new();
                        path_vars
                            .iter()
                            .filter(|v| seen.insert(**v))
                            .map(|&v| Lit::neg(v))
                            .collect()
                    };
                    if clause.is_empty() {
                        // A zero-length violating path cannot happen
                        // (word non-empty), but guard anyway.
                        return Ok(Encoding {
                            cnf: {
                                let mut c = cnf;
                                c.clauses.push(vec![]);
                                c
                            },
                            edges,
                            pattern,
                        });
                    }
                    cnf.add_clause(clause);
                }
                continue;
            }
            if let Some(cands) = by_label.get(&word[pos]) {
                for &(u, v, var) in cands {
                    if u == cur {
                        let mut pv = path_vars.clone();
                        pv.push(var);
                        stack.push((v, pos + 1, pv));
                    }
                }
            }
        }
    }

    Ok(Encoding {
        cnf,
        edges,
        pattern,
    })
}

/// Decodes a SAT model into the corresponding graph.
pub fn decode(enc: &Encoding, model: &[bool]) -> Graph {
    let mut g = Graph::new();
    // Keep every pattern node (constants), even isolated ones.
    let mut remap: FxHashMap<PNodeId, gdx_graph::NodeId> = FxHashMap::default();
    for id in enc.pattern.node_ids() {
        remap.insert(id, g.add_node(enc.pattern.node(id)));
    }
    for (i, &(u, l, v)) in enc.edges.iter().enumerate() {
        if model.get(i).copied().unwrap_or(false) {
            g.add_edge(remap[&u], l, remap[&v]);
        }
    }
    g
}

/// Solves a built encoding and decodes the verdict — the per-call half of
/// the SAT backend ([`crate::ExchangeSession::solution_exists_sat`]
/// memoizes the encoding and calls this).
pub fn solve_encoding(enc: &Encoding) -> Result<Existence> {
    let (res, _stats) = solve(&enc.cnf, SolverConfig::default());
    Ok(match res {
        SatResult::Sat(model) => Existence::Exists(decode(enc, &model)),
        SatResult::Unsat => Existence::NoSolution,
        SatResult::Unknown => Existence::Unknown("SAT budget exhausted".to_owned()),
    })
}

/// End-to-end: encode, solve, decode. Exact within the fragment.
pub fn solution_exists_sat(instance: &Instance, setting: &Setting) -> Result<Existence> {
    let enc = encode_existence(instance, setting)?;
    solve_encoding(&enc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduction::{Reduction, ReductionFlavor};
    use gdx_sat::brute_force;

    fn rho0() -> Cnf {
        let mut f = Cnf::new(4);
        f.add_clause(vec![Lit::pos(0), Lit::neg(1), Lit::pos(2)]);
        f.add_clause(vec![Lit::neg(0), Lit::pos(2), Lit::neg(3)]);
        f
    }

    #[test]
    fn encodes_and_solves_rho0() {
        let r = Reduction::from_cnf(&rho0(), ReductionFlavor::Egd).unwrap();
        let ex = solution_exists_sat(&r.instance, &r.setting).unwrap();
        let g = ex.witness().expect("ρ₀ satisfiable");
        assert!(crate::solution::is_solution(&r.instance, &r.setting, g).unwrap());
    }

    #[test]
    fn encoding_size_is_linear_for_reductions() {
        let r = Reduction::from_cnf(&rho0(), ReductionFlavor::Egd).unwrap();
        let enc = encode_existence(&r.instance, &r.setting).unwrap();
        // Potential edges: a(c1,c2) + 2 per variable = 9.
        assert_eq!(enc.edges.len(), 9);
        // Clauses: 5 choice + 4 exclusivity + 2 clause-translations.
        assert_eq!(enc.cnf.clauses.len(), 11);
    }

    #[test]
    fn agrees_with_brute_force_on_random_pool() {
        let pool: Vec<Vec<Lit>> = vec![
            vec![Lit::pos(0), Lit::pos(1), Lit::pos(2)],
            vec![Lit::neg(0), Lit::neg(1), Lit::neg(2)],
            vec![Lit::pos(0), Lit::neg(2)],
            vec![Lit::neg(1), Lit::pos(2)],
            vec![Lit::pos(1)],
            vec![Lit::neg(0)],
        ];
        for i in 0..pool.len() {
            for j in i..pool.len() {
                for k in j..pool.len() {
                    let mut f = Cnf::new(3);
                    f.add_clause(pool[i].clone());
                    f.add_clause(pool[j].clone());
                    f.add_clause(pool[k].clone());
                    let r = Reduction::from_cnf(&f, ReductionFlavor::Egd).unwrap();
                    let ex = solution_exists_sat(&r.instance, &r.setting).unwrap();
                    assert_eq!(
                        ex.exists(),
                        brute_force(&f).is_some(),
                        "disagreement on {f}"
                    );
                }
            }
        }
    }

    #[test]
    fn decoded_solutions_verify() {
        let pool: Vec<Vec<Lit>> = vec![
            vec![Lit::pos(0), Lit::pos(1)],
            vec![Lit::neg(0), Lit::pos(1)],
            vec![Lit::pos(0), Lit::neg(1)],
        ];
        for c in &pool {
            let mut f = Cnf::new(2);
            f.add_clause(c.clone());
            let r = Reduction::from_cnf(&f, ReductionFlavor::Egd).unwrap();
            if let Existence::Exists(g) = solution_exists_sat(&r.instance, &r.setting).unwrap() {
                assert!(crate::solution::is_solution(&r.instance, &r.setting, &g).unwrap());
            } else {
                panic!("satisfiable single-clause formula");
            }
        }
    }

    #[test]
    fn rejects_settings_outside_fragment() {
        // Existential head variables → nulls in the pattern.
        let s = gdx_mapping::dsl::parse_setting(
            "source { R/1 } target { e }
             sttgd R(x) -> exists y : (x, e, y);
             egd (x, e, y) -> x = y;",
        )
        .unwrap();
        let schema = s.source.clone();
        let i = Instance::parse(schema, "R(a);").unwrap();
        assert!(encode_existence(&i, &s).is_err());

        // Star in the head.
        let s2 = gdx_mapping::dsl::parse_setting(
            "source { R/2 } target { e }
             sttgd R(x, y) -> (x, e.e*, y);
             egd (x, e, y) -> x = y;",
        )
        .unwrap();
        let schema2 = s2.source.clone();
        let i2 = Instance::parse(schema2, "R(a, b);").unwrap();
        assert!(encode_existence(&i2, &s2).is_err());

        // sameAs constraints.
        let r = Reduction::from_cnf(&rho0(), ReductionFlavor::SameAs).unwrap();
        assert!(encode_existence(&r.instance, &r.setting).is_err());
    }

    #[test]
    fn sat_and_search_solvers_agree() {
        use crate::session::ExchangeSession;
        let pool: Vec<Vec<Lit>> = vec![
            vec![Lit::pos(0), Lit::pos(1)],
            vec![Lit::neg(0), Lit::neg(1)],
            vec![Lit::pos(0)],
            vec![Lit::neg(0)],
            vec![Lit::pos(1)],
        ];
        for i in 0..pool.len() {
            for j in i..pool.len() {
                let mut f = Cnf::new(2);
                f.add_clause(pool[i].clone());
                f.add_clause(pool[j].clone());
                let r = Reduction::from_cnf(&f, ReductionFlavor::Egd).unwrap();
                let via_sat = solution_exists_sat(&r.instance, &r.setting).unwrap();
                let via_search = ExchangeSession::new(r.setting.clone(), r.instance.clone())
                    .solution_exists()
                    .unwrap();
                assert_eq!(via_sat.exists(), via_search.exists(), "on {f}");
            }
        }
    }
}
