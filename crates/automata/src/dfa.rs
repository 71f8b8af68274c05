//! Deterministic automata: subset construction, boolean combinations,
//! emptiness, shortest words, Moore minimization.
//!
//! All DFAs here are *complete* over their fixed alphabet (every state has
//! a transition for every letter), which makes complementation a flip of
//! the accept set.

use crate::letter::Letter;
use gdx_common::{FxHashMap, FxHashSet, GdxError, Result};
use gdx_nre::nfa::{Nfa, State};
use gdx_nre::Nre;
use std::collections::VecDeque;

/// A complete DFA over an explicit alphabet.
#[derive(Debug, Clone)]
pub struct Dfa {
    /// The alphabet; transition tables are indexed by position in this
    /// vector.
    pub alphabet: Vec<Letter>,
    /// `trans[state][letter_idx]` — the successor state.
    pub trans: Vec<Vec<u32>>,
    /// Start state.
    pub start: u32,
    /// Acceptance flags.
    pub accept: Vec<bool>,
}

impl Dfa {
    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.trans.len()
    }

    /// Compiles a test-free NRE into a complete DFA over `alphabet`
    /// (which must contain every letter of the NRE — use
    /// [`crate::letter::joint_alphabet`]) by subset construction over its
    /// ε-free automaton ([`Nfa::compile`]): targets are pre-closed, so each
    /// step is a plain sorted union. Missing transitions go to an
    /// (implicit, possibly unreachable) empty subset acting as sink. Fails
    /// with [`GdxError::Unsupported`] on nesting tests.
    pub fn from_nre(r: &Nre, alphabet: &[Letter]) -> Result<Dfa> {
        let (nfa, guards) = Nfa::compile(r);
        if !guards.is_empty() {
            return Err(GdxError::unsupported(
                "nesting tests have no regular-word semantics; automata \
                 construction handles test-free NREs only",
            ));
        }
        let mut subsets: FxHashMap<Vec<State>, u32> = FxHashMap::default();
        let mut trans: Vec<Vec<u32>> = Vec::new();
        let mut accept: Vec<bool> = Vec::new();
        let mut queue: VecDeque<Vec<State>> = VecDeque::new();

        let is_accepting = |key: &[State]| key.iter().any(|&s| nfa.is_accept(s));

        let start_key = nfa.start().to_vec();
        subsets.insert(start_key.clone(), 0);
        trans.push(vec![u32::MAX; alphabet.len()]);
        accept.push(is_accepting(&start_key));
        queue.push_back(start_key);

        while let Some(key) = queue.pop_front() {
            let sid = subsets[&key];
            for (li, &letter) in alphabet.iter().enumerate() {
                let mut next_key: Vec<State> = Vec::new();
                for &s in &key {
                    next_key.extend(nfa.step(s, letter.action()).iter().copied());
                }
                next_key.sort_unstable();
                next_key.dedup();
                let nid = match subsets.get(&next_key) {
                    Some(&id) => id,
                    None => {
                        let id = trans.len() as u32;
                        subsets.insert(next_key.clone(), id);
                        trans.push(vec![u32::MAX; alphabet.len()]);
                        accept.push(is_accepting(&next_key));
                        queue.push_back(next_key);
                        id
                    }
                };
                trans[sid as usize][li] = nid;
            }
        }
        debug_assert!(trans.iter().all(|row| row.iter().all(|&t| t != u32::MAX)));
        Ok(Dfa {
            alphabet: alphabet.to_vec(),
            trans,
            start: 0,
            accept,
        })
    }

    /// Complement (alphabet-relative).
    pub fn complement(&self) -> Dfa {
        let mut d = self.clone();
        for a in &mut d.accept {
            *a = !*a;
        }
        d
    }

    /// Product intersection. Both automata must share the same alphabet
    /// (asserted in debug builds).
    pub fn intersect(&self, other: &Dfa) -> Dfa {
        debug_assert_eq!(self.alphabet, other.alphabet);
        let k = self.alphabet.len();
        let mut map: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        let mut trans: Vec<Vec<u32>> = Vec::new();
        let mut accept: Vec<bool> = Vec::new();
        let mut queue: VecDeque<(u32, u32)> = VecDeque::new();
        map.insert((self.start, other.start), 0);
        trans.push(vec![u32::MAX; k]);
        accept.push(self.accept[self.start as usize] && other.accept[other.start as usize]);
        queue.push_back((self.start, other.start));
        while let Some((p, q)) = queue.pop_front() {
            let sid = map[&(p, q)];
            for li in 0..k {
                let np = self.trans[p as usize][li];
                let nq = other.trans[q as usize][li];
                let nid = match map.get(&(np, nq)) {
                    Some(&id) => id,
                    None => {
                        let id = trans.len() as u32;
                        map.insert((np, nq), id);
                        trans.push(vec![u32::MAX; k]);
                        accept.push(self.accept[np as usize] && other.accept[nq as usize]);
                        queue.push_back((np, nq));
                        id
                    }
                };
                trans[sid as usize][li] = nid;
            }
        }
        Dfa {
            alphabet: self.alphabet.clone(),
            trans,
            start: 0,
            accept,
        }
    }

    /// True when the automaton accepts no word.
    pub fn is_empty_language(&self) -> bool {
        self.shortest_accepted().is_none()
    }

    /// A shortest accepted word, if any (BFS from the start state).
    pub fn shortest_accepted(&self) -> Option<Vec<Letter>> {
        let n = self.state_count();
        let mut prev: Vec<Option<(u32, usize)>> = vec![None; n];
        let mut visited = vec![false; n];
        let mut queue = VecDeque::new();
        visited[self.start as usize] = true;
        queue.push_back(self.start);
        let mut hit: Option<u32> = if self.accept[self.start as usize] {
            Some(self.start)
        } else {
            None
        };
        'bfs: while let Some(s) = queue.pop_front() {
            if hit.is_some() {
                break;
            }
            for (li, &t) in self.trans[s as usize].iter().enumerate() {
                if !visited[t as usize] {
                    visited[t as usize] = true;
                    prev[t as usize] = Some((s, li));
                    if self.accept[t as usize] {
                        hit = Some(t);
                        break 'bfs;
                    }
                    queue.push_back(t);
                }
            }
        }
        let mut cur = hit?;
        let mut word = Vec::new();
        while let Some((p, li)) = prev[cur as usize] {
            word.push(self.alphabet[li]);
            cur = p;
        }
        word.reverse();
        Some(word)
    }

    /// Word acceptance.
    pub fn accepts(&self, word: &[Letter]) -> bool {
        let mut s = self.start;
        for l in word {
            let Some(li) = self.alphabet.iter().position(|a| a == l) else {
                return false;
            };
            s = self.trans[s as usize][li];
        }
        self.accept[s as usize]
    }

    /// Moore minimization: iterated partition refinement. Returns an
    /// equivalent DFA with the minimum number of reachable states.
    pub fn minimize(&self) -> Dfa {
        let n = self.state_count();
        let k = self.alphabet.len();
        // Initial partition: accept vs non-accept.
        let mut class: Vec<u32> = self.accept.iter().map(|&a| if a { 1 } else { 0 }).collect();
        loop {
            // Signature: (class, classes of successors).
            let mut sig_map: FxHashMap<(u32, Vec<u32>), u32> = FxHashMap::default();
            let mut new_class = vec![0u32; n];
            for s in 0..n {
                let sig: (u32, Vec<u32>) = (
                    class[s],
                    (0..k).map(|li| class[self.trans[s][li] as usize]).collect(),
                );
                let next_id = sig_map.len() as u32;
                let id = *sig_map.entry(sig).or_insert(next_id);
                new_class[s] = id;
            }
            let stable = sig_map.len() as u32
                == class.iter().copied().collect::<FxHashSet<u32>>().len() as u32
                && new_class == class;
            let count_changed = {
                let old: FxHashSet<u32> = class.iter().copied().collect();
                sig_map.len() != old.len()
            };
            class = new_class;
            if stable || !count_changed {
                break;
            }
        }
        // Rebuild over classes, keeping only classes reachable from start.
        let class_count = class.iter().copied().collect::<FxHashSet<u32>>().len();
        let mut repr: Vec<Option<usize>> = vec![None; class_count];
        for (s, &c) in class.iter().enumerate() {
            if repr[c as usize].is_none() {
                repr[c as usize] = Some(s);
            }
        }
        let mut trans = vec![vec![u32::MAX; k]; class_count];
        let mut accept = vec![false; class_count];
        for c in 0..class_count {
            // Class ids are contiguous, so the fill loop above visited
            // every class; a missing representative is a partition bug.
            #[allow(clippy::expect_used)]
            let s = repr[c].expect("every class has a representative");
            accept[c] = self.accept[s];
            for li in 0..k {
                trans[c][li] = class[self.trans[s][li] as usize];
            }
        }
        let d = Dfa {
            alphabet: self.alphabet.clone(),
            trans,
            start: class[self.start as usize],
            accept,
        };
        d.trim_unreachable()
    }

    /// Drops states unreachable from the start (renumbering).
    fn trim_unreachable(&self) -> Dfa {
        let k = self.alphabet.len();
        let mut order: Vec<u32> = Vec::new();
        let mut remap: FxHashMap<u32, u32> = FxHashMap::default();
        let mut queue = VecDeque::new();
        remap.insert(self.start, 0);
        order.push(self.start);
        queue.push_back(self.start);
        while let Some(s) = queue.pop_front() {
            for li in 0..k {
                let t = self.trans[s as usize][li];
                if let std::collections::hash_map::Entry::Vacant(e) = remap.entry(t) {
                    e.insert(order.len() as u32);
                    order.push(t);
                    queue.push_back(t);
                }
            }
        }
        let mut trans = vec![vec![u32::MAX; k]; order.len()];
        let mut accept = vec![false; order.len()];
        for (new, &old) in order.iter().enumerate() {
            accept[new] = self.accept[old as usize];
            for li in 0..k {
                trans[new][li] = remap[&self.trans[old as usize][li]];
            }
        }
        Dfa {
            alphabet: self.alphabet.clone(),
            trans,
            start: 0,
            accept,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::letter::joint_alphabet;
    use gdx_common::Symbol;
    use gdx_nre::parse::parse_nre;

    fn dfa(expr: &str) -> Dfa {
        let r = parse_nre(expr).unwrap();
        let ab = joint_alphabet(&[&r]);
        Dfa::from_nre(&r, &ab).unwrap()
    }

    fn word(text: &str) -> Vec<Letter> {
        text.split_whitespace()
            .map(|t| {
                if let Some(s) = t.strip_suffix('-') {
                    Letter::bwd(Symbol::new(s))
                } else {
                    Letter::fwd(Symbol::new(t))
                }
            })
            .collect()
    }

    #[test]
    fn determinization_preserves_language() {
        let d = dfa("a.(b*+c*).a");
        assert!(d.accepts(&word("a a")));
        assert!(d.accepts(&word("a b b a")));
        assert!(d.accepts(&word("a c a")));
        assert!(!d.accepts(&word("a b c a")));
        assert!(!d.accepts(&word("a")));
    }

    #[test]
    fn word_acceptance_table() {
        for (expr, w, expect) in [
            ("a", "a", true),
            ("a", "b", false),
            ("a", "", false),
            ("eps", "", true),
            ("a-", "a-", true),
            ("a-", "a", false),
            ("a.b", "a b", true),
            ("a.b", "b a", false),
            ("a+b", "b", true),
            ("a*", "", true),
            ("a*", "a a a", true),
            ("a.a*", "", false),
            ("a.(b*+c*).a", "a c c a", true),
            ("a.(b*+c*).a", "a b c a", false),
        ] {
            assert_eq!(dfa(expr).accepts(&word(w)), expect, "{expr} on {w:?}");
        }
    }

    #[test]
    fn tests_rejected() {
        let r = parse_nre("a.[b]").unwrap();
        assert!(Dfa::from_nre(&r, &joint_alphabet(&[&r])).is_err());
    }

    #[test]
    fn complement_flips() {
        let d = dfa("a.a");
        let c = d.complement();
        assert!(d.accepts(&word("a a")) && !c.accepts(&word("a a")));
        assert!(!d.accepts(&word("a")) && c.accepts(&word("a")));
    }

    #[test]
    fn emptiness_and_shortest() {
        let d = dfa("a.b");
        assert!(!d.is_empty_language());
        assert_eq!(d.shortest_accepted().unwrap(), word("a b"));
        // a ∩ b = ∅
        let r1 = parse_nre("a").unwrap();
        let r2 = parse_nre("b").unwrap();
        let ab = joint_alphabet(&[&r1, &r2]);
        let i = Dfa::from_nre(&r1, &ab)
            .unwrap()
            .intersect(&Dfa::from_nre(&r2, &ab).unwrap());
        assert!(i.is_empty_language());
        assert_eq!(i.shortest_accepted(), None);
    }

    #[test]
    fn shortest_of_nullable_is_epsilon() {
        let d = dfa("a*");
        assert_eq!(d.shortest_accepted().unwrap(), vec![]);
    }

    #[test]
    fn minimize_shrinks_and_preserves() {
        // (a+b)* over {a,b} minimizes to a single state.
        let d = dfa("(a+b)*");
        let m = d.minimize();
        assert_eq!(m.state_count(), 1);
        assert!(m.accepts(&word("a b a")));
        assert!(m.accepts(&[]));
        // a.a* needs two states.
        let m2 = dfa("a.a*").minimize();
        assert_eq!(m2.state_count(), 2);
        assert!(!m2.accepts(&[]));
        assert!(m2.accepts(&word("a a a")));
    }

    #[test]
    fn minimize_equivalent_expressions_same_size() {
        let m1 = dfa("a*").minimize();
        let r = parse_nre("eps+a.a*").unwrap();
        let ab = joint_alphabet(&[&r]);
        let m2 = Dfa::from_nre(&r, &ab).unwrap().minimize();
        assert_eq!(m1.state_count(), m2.state_count());
    }

    #[test]
    fn intersect_is_conjunction() {
        let r1 = parse_nre("a*.b").unwrap();
        let r2 = parse_nre("a.b*").unwrap();
        let ab = joint_alphabet(&[&r1, &r2]);
        let i = Dfa::from_nre(&r1, &ab)
            .unwrap()
            .intersect(&Dfa::from_nre(&r2, &ab).unwrap());
        // Intersection is {a b}: must end in b (r1), start with a then b* (r2).
        assert!(i.accepts(&word("a b")));
        assert!(!i.accepts(&word("b")));
        assert!(!i.accepts(&word("a a b")));
        assert_eq!(i.shortest_accepted().unwrap().len(), 2);
    }
}
