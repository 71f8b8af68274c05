//! Order-free constant rows of single-atom queries, on the dense kernel.
//!
//! A certain answer is a row of constants that every solution selects,
//! so the session needs only the *set* of constant rows of a query on
//! each solution graph, and their intersection. For a single atom
//! `(t₁, r, t₂)` every such row is read off one relation: `⟦r⟧_G`
//! restricted to the graph's constants, [`ConstantPairs`]. It is
//! evaluated by [`DenseRel`] and kept as a constants × constants bit
//! matrix, so intersecting two graphs is a word-wise AND, and the rows
//! of any atom shape are a selection of its bits ([`ConstantRows`]).
//! Nothing here has a row order to leak: rows become [`Node`] vectors
//! only in [`ConstantRows::into_rows`], for the caller to sort.

use crate::cnre::CnreAtom;
use gdx_common::{FxHashMap, Term};
use gdx_graph::{Graph, Node, NodeId};
use gdx_nre::dense::{ones, DenseRel};
use gdx_nre::Nre;

/// `⟦r⟧_G ∩ (C × C)` for the constants `C` of one graph: row `i` holds
/// bit `j` when `(consts[i], consts[j]) ∈ ⟦r⟧_G`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstantPairs {
    /// The graph's constants in node-id order: bit `i` stands for
    /// `consts[i]`.
    consts: Vec<Node>,
    /// Words per row, `⌈|C|/64⌉`.
    words: usize,
    bits: Vec<u64>,
}

impl ConstantPairs {
    /// Evaluates `r` on `graph` densely and keeps its constant pairs;
    /// `None` when the graph is too large for the dense kernel
    /// ([`DenseRel::fits`]).
    pub fn eval(graph: &Graph, r: &Nre) -> Option<ConstantPairs> {
        if !DenseRel::fits(graph) {
            return None;
        }
        let rel = DenseRel::eval(graph, r);
        let ids: Vec<NodeId> = graph.const_ids().collect();
        // Column mask of the constants, and each node's constant index.
        let mut mask = vec![0u64; graph.node_count().div_ceil(64)];
        let mut index = vec![0usize; graph.node_count()];
        for (i, &id) in ids.iter().enumerate() {
            mask[id as usize / 64] |= 1u64 << (id % 64);
            index[id as usize] = i;
        }
        let words = ids.len().div_ceil(64);
        let mut bits = vec![0u64; ids.len() * words];
        for (i, &id) in ids.iter().enumerate() {
            let row = rel.row(id).iter().zip(&mask).map(|(w, m)| w & m);
            for (at, mut w) in row.enumerate() {
                while w != 0 {
                    let j = index[at * 64 + w.trailing_zeros() as usize];
                    bits[i * words + j / 64] |= 1u64 << (j % 64);
                    w &= w - 1;
                }
            }
        }
        Some(ConstantPairs {
            consts: ids.iter().map(|&id| graph.node(id)).collect(),
            words,
            bits,
        })
    }

    /// Keeps the pairs `other` holds too. When both graphs list the same
    /// constants in the same order (the forks of one family do), this is
    /// a word-wise AND; otherwise `other` is first mapped into this
    /// relation's constants by name.
    pub fn intersect(&mut self, other: &ConstantPairs) {
        if self.consts == other.consts {
            for (w, o) in self.bits.iter_mut().zip(&other.bits) {
                *w &= o;
            }
            return;
        }
        let here = constant_index(&self.consts);
        let to_here: Vec<Option<usize>> =
            other.consts.iter().map(|c| here.get(c).copied()).collect();
        let mut mapped = vec![0u64; self.bits.len()];
        for (i, a) in to_here.iter().enumerate() {
            let Some(a) = a else { continue };
            for j in ones(other.row(i)) {
                if let Some(b) = to_here[j] {
                    mapped[a * self.words + b / 64] |= 1u64 << (b % 64);
                }
            }
        }
        for (w, m) in self.bits.iter_mut().zip(&mapped) {
            *w &= m;
        }
    }

    /// The constant rows of `atom` (whose NRE this relation evaluates),
    /// over its variables in first-occurrence order: the pairs for
    /// `(x, r, y)`, the diagonal for `(x, r, x)`, one column or row for
    /// an atom with one constant end, one bit for a constants-only atom.
    /// A constant absent from the graph selects nothing.
    pub fn select(&self, atom: &CnreAtom) -> ConstantRows {
        let position = |c| self.consts.iter().position(|n| *n == Node::Const(c));
        let mut rows = ConstantRows {
            consts: self.consts.clone(),
            words: self.words,
            arity: 1,
            bits: vec![0; self.words],
        };
        match (atom.left, atom.right) {
            (Term::Var(x), Term::Var(y)) if x != y => {
                rows.arity = 2;
                rows.bits.clone_from(&self.bits);
            }
            (Term::Var(_), Term::Var(_)) => {
                for i in 0..self.consts.len() {
                    if self.has(i, i) {
                        rows.set(i);
                    }
                }
            }
            (Term::Var(_), Term::Const(c)) => {
                if let Some(j) = position(c) {
                    for i in 0..self.consts.len() {
                        if self.has(i, j) {
                            rows.set(i);
                        }
                    }
                }
            }
            (Term::Const(c), Term::Var(_)) => {
                if let Some(i) = position(c) {
                    rows.bits.copy_from_slice(self.row(i));
                }
            }
            (Term::Const(c1), Term::Const(c2)) => {
                rows.arity = 0;
                rows.bits = vec![u64::from(
                    position(c1)
                        .zip(position(c2))
                        .is_some_and(|(i, j)| self.has(i, j)),
                )];
            }
        }
        rows
    }

    fn row(&self, i: usize) -> &[u64] {
        &self.bits[i * self.words..(i + 1) * self.words]
    }

    fn has(&self, i: usize, j: usize) -> bool {
        self.row(i)[j / 64] & (1u64 << (j % 64)) != 0
    }
}

/// Each constant's bit position.
fn constant_index(consts: &[Node]) -> FxHashMap<Node, usize> {
    consts.iter().enumerate().map(|(i, &c)| (c, i)).collect()
}

/// The constant rows of one single-atom query, as bits over constant
/// indices: `arity` 2 is a constants × constants matrix, 1 a constant
/// set, 0 one bit (the empty row holds or not).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstantRows {
    consts: Vec<Node>,
    words: usize,
    arity: usize,
    bits: Vec<u64>,
}

impl ConstantRows {
    fn set(&mut self, i: usize) {
        self.bits[i / 64] |= 1u64 << (i % 64);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when there is no row.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Does every row of `rows` belong to the set? A row of the wrong
    /// arity or with a value outside the graph's constants does not.
    pub fn contains_all(&self, rows: &[Vec<Node>]) -> bool {
        let index = constant_index(&self.consts);
        let has = |i: usize, j: &Node| {
            index
                .get(j)
                .is_some_and(|&j| self.bits[i * self.words + j / 64] & (1u64 << (j % 64)) != 0)
        };
        rows.iter().all(|row| match (self.arity, row.as_slice()) {
            (0, []) => self.bits[0] != 0,
            (1, [a]) => has(0, a),
            (2, [a, b]) => index.get(a).is_some_and(|&i| has(i, b)),
            _ => false,
        })
    }

    /// The rows as node vectors, in constant-index order.
    pub fn into_rows(self) -> Vec<Vec<Node>> {
        let consts = &self.consts;
        match self.arity {
            0 => (!self.is_empty()).then(Vec::new).into_iter().collect(),
            1 => ones(&self.bits).map(|i| vec![consts[i]]).collect(),
            _ => (0..consts.len())
                .flat_map(|i| {
                    let row = &self.bits[i * self.words..(i + 1) * self.words];
                    ones(row).map(move |j| vec![consts[i], consts[j]])
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PreparedQuery;
    use gdx_common::FxHashSet;

    fn g1() -> Graph {
        Graph::parse(
            "(c1, f, _N); (c3, f, _N); (_N, f, c2); (_N, h, hx); (_N, h, hy); (c2, f, c2);",
        )
        .unwrap()
    }

    fn dense_rows(g: &Graph, text: &str) -> FxHashSet<Vec<Node>> {
        let q = PreparedQuery::parse(text).unwrap();
        let atom = &q.cnre().atoms[0];
        ConstantPairs::eval(g, &atom.nre)
            .unwrap()
            .select(atom)
            .into_rows()
            .into_iter()
            .collect()
    }

    #[test]
    fn every_atom_shape_matches_planned_evaluation() {
        let g = g1();
        for text in [
            "(x, f.f*.[h].f-.(f-)*, y)",
            "(x, f.f*, x)",
            "(x, f.f*, \"c2\")",
            "(\"c1\", f.f*, y)",
            "(\"c1\", f.f, \"c2\")",
            "(\"c2\", f.f, \"c1\")",
            "(x, f, \"absent\")",
            "(\"absent\", f, \"c2\")",
        ] {
            let q = PreparedQuery::parse(text).unwrap();
            let planned = q.evaluate(&g).unwrap().constant_rows(&g);
            assert_eq!(dense_rows(&g, text), planned, "{text}");
        }
    }

    #[test]
    fn intersection_maps_constants_listed_differently() {
        // The same constants under other ids: the mapped intersection
        // equals the one of identically listed graphs.
        let a = Graph::parse("(c1, f, c2); (c2, f, c3); (c1, f, c3);").unwrap();
        let b = Graph::parse("(c3, g, c2); (c1, f, c2); (c2, f, c3); (c4, f, c1);").unwrap();
        let r = gdx_nre::parse::parse_nre("f.f*").unwrap();
        let mut pa = ConstantPairs::eval(&a, &r).unwrap();
        let pb = ConstantPairs::eval(&b, &r).unwrap();
        assert_ne!(pa.consts, pb.consts);
        pa.intersect(&pb);
        let atom = &PreparedQuery::parse("(x, f.f*, y)").unwrap().cnre().atoms[0].clone();
        let rows: FxHashSet<Vec<Node>> = pa.select(atom).into_rows().into_iter().collect();
        let expected: FxHashSet<Vec<Node>> = [("c1", "c2"), ("c2", "c3"), ("c1", "c3")]
            .iter()
            .map(|(x, y)| vec![Node::cst(x), Node::cst(y)])
            .collect();
        assert_eq!(rows, expected);
        assert!(pa
            .select(atom)
            .contains_all(&[vec![Node::cst("c1"), Node::cst("c3")]]));
        assert!(!pa
            .select(atom)
            .contains_all(&[vec![Node::cst("c4"), Node::cst("c1")]]));
    }
}
