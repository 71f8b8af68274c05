//! The Theorem 4.1 reduction: 3SAT → existence of solutions.
//!
//! Given a 3-CNF `ρ = C₁ ∧ … ∧ C_k` over variables `x₁ … x_n`, the
//! reduction builds `Ω_ρ = (R_ρ, Σ_ρ, M_ρst, M_ρt)` and the fixed instance
//! `I_ρ = {R₁(c1), R₂(c2)}`:
//!
//! * `R_ρ = {R₁/1, R₂/1}`, `Σ_ρ = {a, t₁, f₁, …, t_n, f_n}`;
//! * one s-t tgd
//!   `R₁(x) ∧ R₂(y) → (x,a,y) ∧ (x, t₁+f₁, x) ∧ … ∧ (x, t_n+f_n, x)`;
//! * type (*) egds `(x, t_j·f_j·a, y) → x = y` — at most one valuation per
//!   variable;
//! * type (**) egds `(x, b_{i1}·b_{i2}·b_{i3}·a, y) → x = y` per clause,
//!   where `b_{il} = t_{il}` for a *negative* literal and `f_{il}` for a
//!   positive one — the path exists exactly when the clause is falsified.
//!
//! Then `Sol_{Ω_ρ}(I_ρ) ≠ ∅ ⇔ ρ ∈ 3SAT`, and (Corollary 4.2)
//! `(c1, c2) ∈ cert_{Ω_ρ}(a·a, I_ρ) ⇔ ρ ∉ 3SAT`. Proposition 4.3 swaps the
//! egds for sameAs constraints: solutions always exist, but
//! `(c1, c2) ∈ cert(sameAs) ⇔ ρ ∉ 3SAT`.

use gdx_common::{GdxError, Result, Symbol, Term};
use gdx_graph::{Graph, Node};
use gdx_mapping::{same_as_symbol, Egd, SameAs, Setting, SourceToTargetTgd, TargetConstraint};
use gdx_nre::Nre;
use gdx_query::{Cnre, CnreAtom};
use gdx_relational::{ConjunctiveQuery, Instance, Schema};
use gdx_sat::{Cnf, Lit};

/// Which flavor of target constraints the reduced setting uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReductionFlavor {
    /// Theorem 4.1 / Corollary 4.2: egds.
    Egd,
    /// Proposition 4.3: sameAs constraints.
    SameAs,
}

/// The product of the reduction.
#[derive(Debug, Clone)]
pub struct Reduction {
    /// The constructed setting `Ω_ρ` (or `Ω′_ρ`).
    pub setting: Setting,
    /// The fixed instance `I_ρ = {R₁(c1), R₂(c2)}`.
    pub instance: Instance,
    /// Number of propositional variables `n`.
    pub num_vars: u32,
    /// The flavor used.
    pub flavor: ReductionFlavor,
}

fn t_sym(i: u32) -> Symbol {
    Symbol::new(&format!("t{}", i + 1))
}

fn f_sym(i: u32) -> Symbol {
    Symbol::new(&format!("f{}", i + 1))
}

fn a_sym() -> Symbol {
    Symbol::new("a")
}

impl Reduction {
    /// Builds `Ω_ρ` and `I_ρ` from a 3-CNF formula.
    #[expect(
        clippy::expect_used,
        reason = "the only `expect` below parses a static CQ literal"
    )]
    pub fn from_cnf(cnf: &Cnf, flavor: ReductionFlavor) -> Result<Reduction> {
        if !cnf.is_3cnf() {
            return Err(GdxError::unsupported("reduction expects a 3-CNF formula"));
        }
        let n = cnf.num_vars;

        // Σ_ρ = {a} ∪ {t_i, f_i}.
        let mut target = vec![a_sym()];
        for i in 0..n {
            target.push(t_sym(i));
            target.push(f_sym(i));
        }

        // The single s-t tgd.
        let x = Term::var("x");
        let y = Term::var("y");
        let mut head_atoms = vec![CnreAtom::new(x, Nre::Label(a_sym()), y)];
        for i in 0..n {
            head_atoms.push(CnreAtom::new(
                x,
                Nre::Label(t_sym(i)).union(Nre::Label(f_sym(i))),
                x,
            ));
        }
        let st = SourceToTargetTgd {
            body: ConjunctiveQuery::parse("R1(x), R2(y)").expect("static CQ"),
            existential: vec![],
            head: Cnre::new(head_atoms),
        };

        // Target constraints.
        let mut constraints: Vec<TargetConstraint> = Vec::new();
        let mut push = |word: Vec<Symbol>| {
            let body = Cnre::single(
                Term::var("x"),
                Nre::concat_all(word.into_iter().map(Nre::Label)),
                Term::var("y"),
            );
            constraints.push(match flavor {
                ReductionFlavor::Egd => TargetConstraint::Egd(Egd {
                    body,
                    lhs: Symbol::new("x"),
                    rhs: Symbol::new("y"),
                }),
                ReductionFlavor::SameAs => TargetConstraint::SameAs(SameAs {
                    body,
                    lhs: Symbol::new("x"),
                    rhs: Symbol::new("y"),
                }),
            });
        };
        // Type (*): t_j · f_j · a.
        for j in 0..n {
            push(vec![t_sym(j), f_sym(j), a_sym()]);
        }
        // Type (**): b₁ · b₂ · b₃ · a per clause.
        for clause in &cnf.clauses {
            let mut word: Vec<Symbol> = clause
                .iter()
                .map(|l| {
                    if l.positive {
                        f_sym(l.var)
                    } else {
                        t_sym(l.var)
                    }
                })
                .collect();
            word.push(a_sym());
            push(word);
        }

        let setting = Setting::new(
            Schema::from_relations([("R1", 1), ("R2", 1)])?,
            target,
            vec![st],
            constraints,
        )?;
        let instance = Instance::parse(setting.source.clone(), "R1(c1); R2(c2);")?;
        Ok(Reduction {
            setting,
            instance,
            num_vars: n,
            flavor,
        })
    }

    /// The graph encoding a valuation (the construction in the proof of
    /// Theorem 4.1): `(c1, a, c2)` plus one self-loop `t_i` or `f_i` per
    /// variable. For a valuation satisfying `ρ` this is a solution under
    /// the egd flavor; under the sameAs flavor it additionally needs
    /// saturation.
    pub fn solution_from_valuation(&self, valuation: &[bool]) -> Graph {
        assert_eq!(valuation.len(), self.num_vars as usize);
        let mut g = Graph::new();
        let c1 = g.add_const("c1");
        let c2 = g.add_const("c2");
        g.add_edge(c1, a_sym(), c2);
        for (i, &v) in valuation.iter().enumerate() {
            let sym = if v { t_sym(i as u32) } else { f_sym(i as u32) };
            g.add_edge(c1, sym, c1);
        }
        g
    }

    /// Reads a valuation back out of a solution graph: variable `x_i` is
    /// true iff the `t_i` self-loop is present on `c1`. Returns `None`
    /// when a variable has no loop at all (not a solution) — egds already
    /// forbid both loops on solutions.
    pub fn valuation_from_solution(&self, g: &Graph) -> Option<Vec<bool>> {
        let c1 = g.node_id(Node::cst("c1"))?;
        let mut out = Vec::with_capacity(self.num_vars as usize);
        for i in 0..self.num_vars {
            let has_t = g.has_edge(c1, t_sym(i), c1);
            let has_f = g.has_edge(c1, f_sym(i), c1);
            match (has_t, has_f) {
                (true, _) => out.push(true),
                (false, true) => out.push(false),
                (false, false) => return None,
            }
        }
        Some(out)
    }

    /// The Corollary 4.2 query `r_ρ = a·a`: certain iff `ρ` unsatisfiable.
    pub fn certain_query_egd() -> Nre {
        Nre::Label(a_sym()).concat(Nre::Label(a_sym()))
    }

    /// The Proposition 4.3 query `r′_ρ = sameAs`.
    pub fn certain_query_sameas() -> Nre {
        Nre::Label(same_as_symbol())
    }

    /// Recovers a CNF equisatisfiable with the original from a
    /// reduction-shaped setting (the inverse reduction; also the fast
    /// exact existence decision used for large instances).
    #[expect(
        clippy::expect_used,
        reason = "by construction every reduction constraint body is a single word"
    )]
    pub fn extract_cnf(&self) -> Cnf {
        let mut cnf = Cnf::new(self.num_vars);
        let n = self.num_vars;
        let bodies: Vec<&Cnre> = self
            .setting
            .target_constraints
            .iter()
            .map(|c| match c {
                TargetConstraint::Egd(e) => &e.body,
                TargetConstraint::SameAs(s) => &s.body,
                TargetConstraint::Tgd(t) => &t.body,
            })
            .collect();
        for body in bodies {
            let word = gdx_nre::classify::single_word(&body.atoms[0].nre)
                .expect("reduction bodies are words");
            // Type (*) words t_j f_j a are the per-variable exclusivity
            // egds — not clauses.
            if word.len() == 3 && word[0] == t_sym(word_index(word[0])) {
                let j = word_index(word[0]);
                if j < n && word[0] == t_sym(j) && word[1] == f_sym(j) {
                    continue;
                }
            }
            // Clause word b1 b2 b3 a: a literal is falsified by its marker,
            // so the clause is the disjunction of the *opposite* literals.
            let lits: Vec<Lit> = word[..word.len() - 1]
                .iter()
                .map(|&s| {
                    let idx = word_index(s);
                    if s == t_sym(idx) {
                        // t-marker ⇒ literal was negative.
                        Lit::neg(idx)
                    } else {
                        Lit::pos(idx)
                    }
                })
                .collect();
            cnf.add_clause(lits);
        }
        cnf
    }
}

/// Parses the index out of a marker symbol `t<i>` / `f<i>` (1-based in the
/// name, 0-based returned).
fn word_index(s: Symbol) -> u32 {
    let name = s.as_str();
    name[1..].parse::<u32>().map(|i| i - 1).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exists::Existence;
    use crate::options::Options;
    use crate::session::ExchangeSession;
    use gdx_sat::{brute_force, solve, SatResult, SolverConfig};

    fn solution_exists(
        instance: &gdx_relational::Instance,
        setting: &gdx_mapping::Setting,
        cfg: &Options,
    ) -> Existence {
        ExchangeSession::new(setting.clone(), instance.clone())
            .with_options(*cfg)
            .solution_exists()
            .unwrap()
    }

    /// ρ₀ = (x1 ∨ ¬x2 ∨ x3) ∧ (¬x1 ∨ x3 ∨ ¬x4).
    fn rho0() -> Cnf {
        let mut f = Cnf::new(4);
        f.add_clause(vec![Lit::pos(0), Lit::neg(1), Lit::pos(2)]);
        f.add_clause(vec![Lit::neg(0), Lit::pos(2), Lit::neg(3)]);
        f
    }

    #[test]
    fn rho0_setting_shape() {
        let r = Reduction::from_cnf(&rho0(), ReductionFlavor::Egd).unwrap();
        assert_eq!(r.setting.target.len(), 9, "a + 4·(t,f)");
        assert_eq!(r.setting.st_tgds.len(), 1);
        assert_eq!(r.setting.st_tgds[0].head.atoms.len(), 5);
        assert_eq!(r.setting.egds().count(), 6, "4 type-(*) + 2 type-(**)");
        assert!(crate::exists::exact_fragment(&r.setting));
    }

    #[test]
    fn figure_4_graph_is_a_solution() {
        let r = Reduction::from_cnf(&rho0(), ReductionFlavor::Egd).unwrap();
        // v(x1)=v(x2)=true, v(x3)=v(x4)=false.
        let g = r.solution_from_valuation(&[true, true, false, false]);
        assert!(crate::solution::is_solution(&r.instance, &r.setting, &g).unwrap());
        assert_eq!(
            r.valuation_from_solution(&g).unwrap(),
            vec![true, true, false, false]
        );
    }

    #[test]
    fn falsifying_valuation_is_not_a_solution() {
        let r = Reduction::from_cnf(&rho0(), ReductionFlavor::Egd).unwrap();
        // x1=f, x2=t, x3=f ⇒ clause 1 falsified.
        let g = r.solution_from_valuation(&[false, true, false, true]);
        assert!(!crate::solution::is_solution(&r.instance, &r.setting, &g).unwrap());
    }

    #[test]
    fn existence_matches_sat_on_rho0() {
        let r = Reduction::from_cnf(&rho0(), ReductionFlavor::Egd).unwrap();
        let ex = solution_exists(&r.instance, &r.setting, &Options::default());
        assert!(ex.exists(), "ρ₀ is satisfiable");
        let val = r
            .valuation_from_solution(ex.witness().unwrap())
            .expect("witness encodes a valuation");
        assert!(rho0().eval(&val), "decoded valuation satisfies ρ₀");
    }

    #[test]
    fn unsat_formula_yields_no_solution() {
        // (x1)(¬x1∨x2)(¬x2): unsat.
        let mut f = Cnf::new(2);
        f.add_clause(vec![Lit::pos(0)]);
        f.add_clause(vec![Lit::neg(0), Lit::pos(1)]);
        f.add_clause(vec![Lit::neg(1)]);
        assert!(brute_force(&f).is_none());
        let r = Reduction::from_cnf(&f, ReductionFlavor::Egd).unwrap();
        let ex = solution_exists(&r.instance, &r.setting, &Options::default());
        assert!(matches!(ex, Existence::NoSolution));
    }

    #[test]
    fn existence_agrees_with_sat_exhaustively() {
        // Every 3-clause formula over 3 variables from a small pool.
        let pool: Vec<Vec<Lit>> = vec![
            vec![Lit::pos(0), Lit::pos(1), Lit::pos(2)],
            vec![Lit::neg(0), Lit::neg(1), Lit::neg(2)],
            vec![Lit::pos(0), Lit::neg(1)],
            vec![Lit::neg(0), Lit::pos(2)],
            vec![Lit::pos(1), Lit::neg(2)],
            vec![Lit::neg(0)],
            vec![Lit::pos(0)],
        ];
        let cfg = Options::default();
        for i in 0..pool.len() {
            for j in i..pool.len() {
                let mut f = Cnf::new(3);
                f.add_clause(pool[i].clone());
                f.add_clause(pool[j].clone());
                let r = Reduction::from_cnf(&f, ReductionFlavor::Egd).unwrap();
                let ex = solution_exists(&r.instance, &r.setting, &cfg);
                let sat = brute_force(&f).is_some();
                match (sat, &ex) {
                    (true, Existence::Exists(_)) | (false, Existence::NoSolution) => {}
                    other => panic!("disagreement on {f}: sat={sat}, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn sameas_flavor_always_has_solutions() {
        // Even for an unsatisfiable formula.
        let mut f = Cnf::new(1);
        f.add_clause(vec![Lit::pos(0)]);
        f.add_clause(vec![Lit::neg(0)]);
        let r = Reduction::from_cnf(&f, ReductionFlavor::SameAs).unwrap();
        let g =
            crate::exists::construct_solution_no_egds(&r.instance, &r.setting, &Options::default())
                .unwrap();
        assert!(crate::solution::is_solution(&r.instance, &r.setting, &g).unwrap());
    }

    #[test]
    fn extract_cnf_roundtrips_satisfiability() {
        {
            let formula = rho0();
            let r = Reduction::from_cnf(&formula, ReductionFlavor::Egd).unwrap();
            let back = r.extract_cnf();
            assert_eq!(back.clauses.len(), formula.clauses.len());
            let (res1, _) = solve(&formula, SolverConfig::default());
            let (res2, _) = solve(&back, SolverConfig::default());
            assert_eq!(res1.is_sat(), res2.is_sat());
            // Exact clause-set equality up to literal order.
            let norm = |c: &Cnf| {
                let mut cl: Vec<Vec<Lit>> = c.clauses.clone();
                for c in &mut cl {
                    c.sort();
                }
                cl.sort();
                cl
            };
            assert_eq!(norm(&formula), norm(&back));
        }
    }

    #[test]
    fn rejects_non_3cnf() {
        let mut f = Cnf::new(4);
        f.add_clause(vec![Lit::pos(0), Lit::pos(1), Lit::pos(2), Lit::pos(3)]);
        assert!(Reduction::from_cnf(&f, ReductionFlavor::Egd).is_err());
    }

    #[test]
    fn sat_result_decodes_to_solution() {
        let r = Reduction::from_cnf(&rho0(), ReductionFlavor::Egd).unwrap();
        let (res, _) = solve(&rho0(), SolverConfig::default());
        let SatResult::Sat(model) = res else {
            panic!("ρ₀ is satisfiable")
        };
        let g = r.solution_from_valuation(&model);
        assert!(crate::solution::is_solution(&r.instance, &r.setting, &g).unwrap());
    }
}
