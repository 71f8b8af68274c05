//! Dense evaluation of NREs over small graphs: `⟦r⟧_G` as a Boolean
//! matrix of `u64` words.
//!
//! The linear-algebra view of path queries (Azimov & Grigorev,
//! "Context-free path querying by matrix multiplication", GRADES-NDA
//! 2018): a relation over `n` nodes is `n` rows of `⌈n/64⌉` words, a
//! label is the adjacency matrix of its edges, an inverse is a transpose,
//! concatenation is a Boolean matrix product (every set bit `(u, m)` of
//! the left operand ORs row `m` of the right one into row `u`), a union
//! is a word-wise OR, `ε` is the identity and a nesting test is the
//! diagonal mask of its inner relation's domain. The Kleene star closes
//! rows over the strongly connected components of its inner relation in
//! reverse topological order, `O(m·n/64)` for `m` inner pairs, instead of
//! Warshall's `O(n³/64)`.
//!
//! A [`DenseRel`] is a *set*: it has no insertion order, so it serves
//! only consumers whose output cannot depend on pair order. There are
//! four: the constant rows of a solution graph and the family
//! intersection (`gdx-query`), solution checking, whose head atoms are
//! evaluated once per graph and ANDed per trigger (`gdx-exchange`), and
//! the unbounded pattern entailment of the certain-answer lower bound,
//! which closes a product graph with [`closure`] (`gdx-chase`). Planned
//! evaluation, whose row order feeds chase triggers and fresh-null names,
//! keeps [`crate::BinRel`]. Relations are transient: [`DenseRel::eval`]
//! drops every intermediate as the expression tree folds, and no consumer
//! keeps one past the call that built it. Graphs above
//! [`DENSE_MAX_NODES`] nodes (product graphs above as many product nodes)
//! stay on `BinRel` or on the consumer's own fallback, which store pairs,
//! not `n²` bits.

use crate::ast::Nre;
use gdx_graph::{Graph, NodeId};

/// The largest graph, in nodes, evaluated densely: a relation takes
/// `n²/8` bytes, 2 MiB at this bound. The dense kernel's cost grows with
/// `n²`, `BinRel`'s with the pairs. Measured in a release build on the
/// paper query `f.f*.[h].f-.(f-)*` over graphs whose edges stay within
/// blocks of 16 nodes (small closures, the case least favourable to the
/// dense kernel), dense evaluation plus constant rows still takes
/// 13.4 ms against `BinRel`'s 19.3 ms at 4 096 nodes (3.1 against 9.1 at
/// 2 048); see ARCHITECTURE.md, "Dense relations".
pub const DENSE_MAX_NODES: usize = 4096;

/// A binary relation over the nodes `0..n` of one graph: row `u` holds
/// bit `v` when `(u, v)` is in the relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseRel {
    n: usize,
    /// Words per row, `⌈n/64⌉`.
    words: usize,
    bits: Vec<u64>,
}

impl DenseRel {
    /// Does `graph` fit the dense kernel (at most [`DENSE_MAX_NODES`]
    /// nodes)?
    pub fn fits(graph: &Graph) -> bool {
        graph.node_count() <= DENSE_MAX_NODES
    }

    /// Evaluates `⟦r⟧_G` densely. Callers check [`DenseRel::fits`] first:
    /// the result takes `n²/8` bytes whatever its number of pairs.
    ///
    /// ```
    /// use gdx_graph::Graph;
    /// use gdx_nre::dense::DenseRel;
    /// use gdx_nre::parse::parse_nre;
    /// let g = Graph::parse("(a, f, b); (b, f, c);").unwrap();
    /// let r = DenseRel::eval(&g, &parse_nre("f.f*").unwrap());
    /// assert_eq!(r.len(), 3);
    /// ```
    pub fn eval(graph: &Graph, r: &Nre) -> DenseRel {
        let n = graph.node_count();
        match r {
            Nre::Epsilon => DenseRel::identity(n),
            Nre::Label(a) => DenseRel::from_pairs(n, graph.label_pairs(*a)),
            Nre::Inverse(a) => DenseRel::from_pairs(n, graph.label_pairs(*a).map(|(u, v)| (v, u))),
            Nre::Union(x, y) => {
                let mut rel = DenseRel::eval(graph, x);
                let other = DenseRel::eval(graph, y);
                for (w, o) in rel.bits.iter_mut().zip(&other.bits) {
                    *w |= o;
                }
                rel
            }
            Nre::Concat(x, y) => DenseRel::eval(graph, x).compose(&DenseRel::eval(graph, y)),
            Nre::Star(inner) => DenseRel::eval(graph, inner).star(),
            Nre::Test(inner) => DenseRel::eval(graph, inner).domain_diagonal(),
        }
    }

    /// The empty relation over `n` nodes.
    fn empty(n: usize) -> DenseRel {
        let words = n.div_ceil(64);
        DenseRel {
            n,
            words,
            bits: vec![0; n * words],
        }
    }

    /// The identity over `n` nodes.
    fn identity(n: usize) -> DenseRel {
        let mut rel = DenseRel::empty(n);
        for u in 0..n {
            rel.set(u, u);
        }
        rel
    }

    /// The relation holding exactly `pairs`.
    fn from_pairs(n: usize, pairs: impl Iterator<Item = (NodeId, NodeId)>) -> DenseRel {
        let mut rel = DenseRel::empty(n);
        for (u, v) in pairs {
            rel.set(u as usize, v as usize);
        }
        rel
    }

    #[inline]
    fn set(&mut self, u: usize, v: usize) {
        self.bits[u * self.words + v / 64] |= 1u64 << (v % 64);
    }

    /// Number of nodes the relation ranges over.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Row `u`: bit `v` of word `v / 64` is set when `(u, v)` holds.
    pub fn row(&self, u: NodeId) -> &[u64] {
        let at = u as usize * self.words;
        &self.bits[at..at + self.words]
    }

    /// Membership of `(u, v)`.
    pub fn contains(&self, u: NodeId, v: NodeId) -> bool {
        self.row(u)[v as usize / 64] & (1u64 << (v % 64)) != 0
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no pair holds.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// All pairs, row by row, each row in ascending column order.
    pub fn pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.n as NodeId).flat_map(move |u| ones(self.row(u)).map(move |v| (u, v as NodeId)))
    }

    /// `self ; other`: every set bit `(u, m)` ORs row `m` of `other` into
    /// row `u`.
    fn compose(&self, other: &DenseRel) -> DenseRel {
        debug_assert_eq!(self.n, other.n);
        let mut out = DenseRel::empty(self.n);
        let w = self.words;
        // `max(1)`: an empty graph has rows of no words.
        for (u, out_row) in out.bits.chunks_exact_mut(w.max(1)).enumerate() {
            for m in ones(&self.bits[u * w..(u + 1) * w]) {
                for (o, x) in out_row.iter_mut().zip(&other.bits[m * w..(m + 1) * w]) {
                    *o |= x;
                }
            }
        }
        out
    }

    /// The test `[self]`: `(u, u)` for every `u` with a non-empty row.
    fn domain_diagonal(&self) -> DenseRel {
        let mut out = DenseRel::empty(self.n);
        for u in 0..self.n {
            if self.row(u as NodeId).iter().any(|&w| w != 0) {
                out.set(u, u);
            }
        }
        out
    }

    /// The reflexive-transitive closure `self*`: [`closure`] over the
    /// rows.
    fn star(&self) -> DenseRel {
        closure(self.n, |u| ones(self.row(u as NodeId)))
    }

    /// The transpose: `(v, u)` for every pair `(u, v)`, so row `v` of the
    /// result holds the predecessors of `v`. `⟦r⟧ᵀ = ⟦r⁻⟧` for the
    /// reversed expression `r⁻`.
    pub fn transpose(&self) -> DenseRel {
        DenseRel::from_pairs(self.n, self.pairs().map(|(u, v)| (v, u)))
    }
}

/// The reflexive-transitive closure of the relation over `0..n` whose
/// pairs from `u` are `(u, v)` for every `v` in `succ(u)`: any adjacency,
/// such as a [`DenseRel`]'s rows or the edges of a product graph.
///
/// Tarjan's algorithm numbers the strongly connected components in the
/// order they complete, which puts every component after all the
/// components it reaches. So one pass in that order closes each
/// component's row: its own members, ORed with the closed rows of the
/// components its members step into (each once). Every member then takes
/// its component's row. The cost is `O(m·n/64)` for `m` adjacency pairs.
///
/// ```
/// use gdx_nre::dense::closure;
/// // 0 → 1 → 2 → 1 over 130 nodes: rows span three words.
/// let succ = [vec![1], vec![2], vec![1]];
/// let star = closure(130, |u| succ.get(u).into_iter().flatten().copied());
/// assert!(star.contains(0, 2) && star.contains(2, 1) && star.contains(129, 129));
/// assert!(!star.contains(1, 0));
/// ```
pub fn closure<I, F>(n: usize, succ: F) -> DenseRel
where
    F: Fn(usize) -> I,
    I: Iterator<Item = usize>,
{
    let (comp, count) = components(n, &succ);
    let w = n.div_ceil(64);
    // Members of each component, grouped by one counting pass.
    let mut start = vec![0usize; count + 1];
    for &c in &comp {
        start[c as usize + 1] += 1;
    }
    for c in 0..count {
        start[c + 1] += start[c];
    }
    let mut cursor = start.clone();
    let mut members = vec![0usize; n];
    for (u, &c) in comp.iter().enumerate() {
        members[cursor[c as usize]] = u;
        cursor[c as usize] += 1;
    }
    let mut reach = vec![0u64; count * w];
    // `merged[d] == c`: component `c` already ORed `d`'s row in.
    let mut merged = vec![usize::MAX; count];
    for c in 0..count {
        let (done, rest) = reach.split_at_mut(c * w);
        let row = &mut rest[..w];
        for &u in &members[start[c]..start[c + 1]] {
            row[u / 64] |= 1u64 << (u % 64);
            for v in succ(u) {
                let d = comp[v] as usize;
                if d != c && merged[d] != c {
                    merged[d] = c;
                    for (o, x) in row.iter_mut().zip(&done[d * w..(d + 1) * w]) {
                        *o |= x;
                    }
                }
            }
        }
    }
    let mut out = DenseRel::empty(n);
    for (u, &c) in comp.iter().enumerate() {
        let c = c as usize;
        out.bits[u * w..(u + 1) * w].copy_from_slice(&reach[c * w..(c + 1) * w]);
        // Under the `fault-dense-star` sharpness fault, a node that
        // reaches itself by no step loses its reflexive pair: the
        // star degrades to `self⁺`.
        if cfg!(feature = "fault-dense-star")
            && start[c + 1] - start[c] == 1
            && !succ(u).any(|v| v == u)
        {
            out.bits[u * w + u / 64] &= !(1u64 << (u % 64));
        }
    }
    out
}

/// Strongly connected components of the adjacency `succ` over `0..n` by
/// an iterative Tarjan walk: per node its component, numbered in
/// completion order, and the number of components.
fn components<I, F>(n: usize, succ: &F) -> (Vec<u32>, usize)
where
    F: Fn(usize) -> I,
    I: Iterator<Item = usize>,
{
    const UNSEEN: u32 = u32::MAX;
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0u32; n];
    let mut comp = vec![UNSEEN; n];
    let mut stack: Vec<usize> = Vec::new();
    // Call frames: (node, its successors still to scan).
    let mut frames: Vec<(usize, I)> = Vec::new();
    let mut next_index = 0u32;
    let mut count = 0u32;
    for root in 0..n {
        if index[root] != UNSEEN {
            continue;
        }
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        frames.push((root, succ(root)));
        while let Some((u, rest)) = frames.last_mut() {
            let u = *u;
            match rest.next() {
                Some(v) => {
                    if index[v] == UNSEEN {
                        index[v] = next_index;
                        low[v] = next_index;
                        next_index += 1;
                        stack.push(v);
                        frames.push((v, succ(v)));
                    } else if comp[v] == UNSEEN {
                        // Visited, not yet in a component: on the stack.
                        low[u] = low[u].min(index[v]);
                    }
                }
                None => {
                    frames.pop();
                    if let Some(&(parent, _)) = frames.last() {
                        low[parent] = low[parent].min(low[u]);
                    }
                    if low[u] == index[u] {
                        while let Some(v) = stack.pop() {
                            comp[v] = count;
                            if v == u {
                                break;
                            }
                        }
                        count += 1;
                    }
                }
            }
        }
    }
    (comp, count as usize)
}

/// The set bits of a bit row, ascending.
pub fn ones(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(i, &w)| {
        let mut bits = w;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(i * 64 + b)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use crate::parse::parse_nre;
    use gdx_common::FxHashSet;

    fn agree(g: &Graph, expr: &str) {
        let r = parse_nre(expr).unwrap();
        let dense: FxHashSet<(NodeId, NodeId)> = DenseRel::eval(g, &r).pairs().collect();
        let sparse: FxHashSet<(NodeId, NodeId)> = eval(g, &r).iter().collect();
        assert_eq!(dense, sparse, "{expr}");
    }

    #[test]
    fn agrees_with_the_materializing_evaluator() {
        let g = Graph::parse(
            "(a, f, b); (b, f, c); (c, f, a); (c, h, d); (d, f, e); (e, g, e); (x, h, y);",
        )
        .unwrap();
        for expr in [
            "eps",
            "f",
            "f-",
            "f.f",
            "f*",
            "(f+g)*",
            "[h]",
            "f.f*.[h].f-.(f-)*",
            "(f.[h])*",
            "((f-)*.g)*",
            "[f.[h]]+g-",
            "zzz*",
        ] {
            agree(&g, expr);
        }
    }

    #[test]
    fn star_closes_across_components_and_words() {
        // A 150-node chain with a back edge: components and rows span
        // several words.
        let mut g = Graph::new();
        let ids: Vec<NodeId> = (0..150).map(|i| g.add_const(&format!("n{i}"))).collect();
        for w in ids.windows(2) {
            g.add_edge_labelled(w[0], "f", w[1]);
        }
        g.add_edge_labelled(ids[120], "f", ids[70]);
        g.add_edge_labelled(ids[3], "g", ids[140]);
        for expr in ["f*", "(f+g)*", "(f-)*", "f.f*.g-"] {
            agree(&g, expr);
        }
        let star = DenseRel::eval(&g, &parse_nre("f*").unwrap());
        assert!(star.contains(ids[120], ids[70]) && star.contains(ids[100], ids[80]));
        assert!(!star.contains(ids[69], ids[0]));
    }

    #[test]
    fn closure_of_a_non_graph_adjacency_spans_words() {
        // 200 nodes, no graph: `u → 3u mod 200` and `u → u + 70` (below
        // 200). Rows span four words, and components mix all of them.
        let n = 200;
        let succ = |u: usize| [(3 * u) % n, u + 70].into_iter().filter(move |&v| v < n);
        let star = closure(n, succ);
        // The reference: a breadth-first search per node.
        for u in 0..n {
            let mut seen = vec![false; n];
            let mut stack = vec![u];
            seen[u] = true;
            while let Some(x) = stack.pop() {
                for y in succ(x) {
                    if !seen[y] {
                        seen[y] = true;
                        stack.push(y);
                    }
                }
            }
            let row: Vec<usize> = ones(star.row(u as NodeId)).collect();
            let want: Vec<usize> = (0..n).filter(|&v| seen[v]).collect();
            assert_eq!(row, want, "row {u}");
        }
        assert!(closure(0, |_| std::iter::empty()).is_empty());
    }

    #[test]
    fn transpose_is_the_reversed_expression() {
        let g = Graph::parse("(a, f, b); (b, f, c); (c, h, a); (a, f, a);").unwrap();
        for expr in ["f.f*", "f.h", "(f+h)*"] {
            let r = parse_nre(expr).unwrap();
            assert_eq!(
                DenseRel::eval(&g, &r).transpose(),
                DenseRel::eval(&g, &r.reversed()),
                "{expr}"
            );
        }
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new();
        let r = DenseRel::eval(&g, &parse_nre("f*.[g]").unwrap());
        assert!(r.is_empty() && r.node_count() == 0);
    }
}
