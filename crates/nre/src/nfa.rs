//! The ε-free Thompson automaton of an NRE — the one automaton
//! construction of the workspace.
//!
//! Two consumers run it: demand-driven evaluation
//! ([`crate::demand::DemandAutomata`]) drives a product BFS over
//! `G × A`, and `gdx_automata::Dfa::from_nre` determinizes it to decide
//! language inclusion for the egd chase on patterns.
//!
//! [`Nfa::compile`] builds the classic Thompson automaton with explicit
//! ε-edges, then eliminates them once:
//!
//! * state ids stay dense (`0..state_count`), so product-BFS visited sets
//!   can pack `(node, state)` into a single integer key;
//! * transitions are indexed per [`Action`], targets pre-closed under ε,
//!   sorted, and deduplicated; rows are sorted by action, so
//!   [`Nfa::step`] is a binary search and exploration order is
//!   deterministic.
//!
//! Nesting tests `[t]` become [`Action::Guard`] transitions: ε-like edges
//! that fire at a graph node `u` only when `∃v. (u, v) ∈ ⟦t⟧`. Their
//! subexpressions come back as the guard list, indexed by guard id. A
//! test-free NRE has an empty guard list and denotes an ordinary regular
//! language over the directed letters `{a, a⁻}`.

use crate::ast::Nre;
use gdx_common::{FxHashMap, FxHashSet, Symbol};

/// Automaton state id (dense).
pub type State = u32;

/// One transition action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Action {
    /// Traverse one `a`-edge forward.
    Fwd(Symbol),
    /// Traverse one `a`-edge backward.
    Bwd(Symbol),
    /// Stay in place; fires only when the guard predicate holds at the
    /// current node (index into the guard list of [`Nfa::compile`]).
    Guard(u32),
}

/// A dense, ε-free NFA over graph-traversal actions, with guard
/// transitions for nesting tests. Targets are pre-closed under ε.
#[derive(Debug)]
pub struct Nfa {
    /// ε-closure of the start state.
    pub(crate) start: Vec<State>,
    /// Per-state acceptance.
    pub(crate) accept: Vec<bool>,
    /// Per-state transitions, targets ε-closed, sorted, deduplicated.
    pub(crate) trans: Vec<Vec<(Action, Vec<State>)>>,
}

/// Thompson-style builder with explicit ε-edges, eliminated at the end.
#[derive(Default)]
struct Builder {
    eps: Vec<Vec<State>>,
    trans: Vec<Vec<(Action, State)>>,
    guards: Vec<Nre>,
    guard_ids: FxHashMap<Nre, u32>,
}

impl Builder {
    fn add_state(&mut self) -> State {
        let id = self.eps.len() as State;
        self.eps.push(Vec::new());
        self.trans.push(Vec::new());
        id
    }

    fn build(&mut self, r: &Nre) -> (State, State) {
        match r {
            Nre::Epsilon => {
                let (s, f) = (self.add_state(), self.add_state());
                self.eps[s as usize].push(f);
                (s, f)
            }
            Nre::Label(a) => {
                let (s, f) = (self.add_state(), self.add_state());
                self.trans[s as usize].push((Action::Fwd(*a), f));
                (s, f)
            }
            Nre::Inverse(a) => {
                let (s, f) = (self.add_state(), self.add_state());
                self.trans[s as usize].push((Action::Bwd(*a), f));
                (s, f)
            }
            Nre::Union(x, y) => {
                let (sx, fx) = self.build(x);
                let (sy, fy) = self.build(y);
                let (s, f) = (self.add_state(), self.add_state());
                self.eps[s as usize].extend([sx, sy]);
                self.eps[fx as usize].push(f);
                self.eps[fy as usize].push(f);
                (s, f)
            }
            Nre::Concat(x, y) => {
                let (sx, fx) = self.build(x);
                let (sy, fy) = self.build(y);
                self.eps[fx as usize].push(sy);
                (sx, fy)
            }
            Nre::Star(x) => {
                let (sx, fx) = self.build(x);
                let (s, f) = (self.add_state(), self.add_state());
                self.eps[s as usize].extend([sx, f]);
                self.eps[fx as usize].extend([sx, f]);
                (s, f)
            }
            Nre::Test(x) => {
                let gi = match self.guard_ids.get(x.as_ref()) {
                    Some(&gi) => gi,
                    None => {
                        let gi = self.guards.len() as u32;
                        self.guards.push((**x).clone());
                        self.guard_ids.insert((**x).clone(), gi);
                        gi
                    }
                };
                let (s, f) = (self.add_state(), self.add_state());
                self.trans[s as usize].push((Action::Guard(gi), f));
                (s, f)
            }
        }
    }

    /// ε-closure of one state, as a sorted id list.
    fn closure(&self, s: State) -> Vec<State> {
        let mut seen: FxHashSet<State> = FxHashSet::default();
        let mut stack = vec![s];
        seen.insert(s);
        while let Some(q) = stack.pop() {
            for &t in &self.eps[q as usize] {
                if seen.insert(t) {
                    stack.push(t);
                }
            }
        }
        let mut v: Vec<State> = seen.into_iter().collect();
        v.sort_unstable();
        v
    }
}

impl Nfa {
    /// Compiles `r`. Also returns the test subexpressions its
    /// [`Action::Guard`] ids index (empty for a test-free `r`).
    ///
    /// ```
    /// use gdx_nre::nfa::{Action, Nfa};
    /// use gdx_nre::parse::parse_nre;
    /// let (nfa, guards) = Nfa::compile(&parse_nre("f.f*").unwrap());
    /// assert!(guards.is_empty());
    /// let f = Action::Fwd(gdx_common::Symbol::new("f"));
    /// let after_f = nfa.step(nfa.start()[0], f);
    /// assert!(after_f.iter().any(|&q| nfa.is_accept(q)));
    /// ```
    pub fn compile(r: &Nre) -> (Nfa, Vec<Nre>) {
        let mut b = Builder::default();
        let (start, accept) = b.build(r);
        let n = b.eps.len();
        let mut trans: Vec<Vec<(Action, Vec<State>)>> = Vec::with_capacity(n);
        for s in 0..n {
            let mut by_action: FxHashMap<Action, Vec<State>> = FxHashMap::default();
            for &(action, t) in &b.trans[s] {
                by_action.entry(action).or_default().extend(b.closure(t));
            }
            let mut row: Vec<(Action, Vec<State>)> = by_action.into_iter().collect();
            for (_, targets) in &mut row {
                targets.sort_unstable();
                targets.dedup();
            }
            // Deterministic transition order (hash-map iteration is not).
            row.sort_by_key(|(a, _)| *a);
            trans.push(row);
        }
        let mut accept_flags = vec![false; n];
        accept_flags[accept as usize] = true;
        let nfa = Nfa {
            start: b.closure(start),
            accept: accept_flags,
            trans,
        };
        (nfa, b.guards)
    }

    /// The start set (ε-closure of the Thompson start state), sorted.
    pub fn start(&self) -> &[State] {
        &self.start
    }

    /// Is `state` accepting?
    pub fn is_accept(&self, state: State) -> bool {
        self.accept[state as usize]
    }

    /// Number of states (dense ids `0..state_count`).
    pub fn state_count(&self) -> usize {
        self.accept.len()
    }

    /// Targets of `state` on `action` (ε-closed, sorted; empty when
    /// undefined).
    pub fn step(&self, state: State, action: Action) -> &[State] {
        let row = &self.trans[state as usize];
        row.binary_search_by_key(&action, |(a, _)| *a)
            .map_or(&[], |i| row[i].1.as_slice())
    }
}
