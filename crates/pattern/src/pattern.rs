//! The graph-pattern data type.

use gdx_common::lexer::{TokenCursor, TokenKind};
use gdx_common::{FxHashMap, FxHashSet, GdxError, Result};
use gdx_graph::Node;
use gdx_nre::parse::parse_union;
use gdx_nre::Nre;
use std::fmt;

/// Dense handle to a pattern node.
pub type PNodeId = u32;

/// A graph pattern `π = (N, D)` with NRE-labeled edges.
///
/// ```
/// use gdx_pattern::GraphPattern;
/// let pi = GraphPattern::parse("(c1, f.f*, _N1); (_N1, h, hy);").unwrap();
/// assert_eq!(pi.node_count(), 3);
/// assert_eq!(pi.edge_count(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphPattern {
    nodes: Vec<Node>,
    ids: FxHashMap<Node, PNodeId>,
    edges: Vec<(PNodeId, Nre, PNodeId)>,
    edge_set: FxHashSet<(PNodeId, Nre, PNodeId)>,
}

impl GraphPattern {
    /// An empty pattern.
    pub fn new() -> GraphPattern {
        GraphPattern::default()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of distinct edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of null nodes.
    pub fn null_count(&self) -> usize {
        self.nodes.iter().filter(|n| !n.is_const()).count()
    }

    /// Adds (or finds) a node.
    pub fn add_node(&mut self, node: Node) -> PNodeId {
        if let Some(&id) = self.ids.get(&node) {
            return id;
        }
        #[expect(
            clippy::expect_used,
            reason = "capacity invariant: >u32::MAX pattern nodes is out of scope"
        )]
        let id = u32::try_from(self.nodes.len()).expect("pattern node overflow");
        self.nodes.push(node);
        self.ids.insert(node, id);
        id
    }

    /// Adds an NRE-labeled edge; returns `true` when new.
    pub fn add_edge(&mut self, src: PNodeId, nre: Nre, dst: PNodeId) -> bool {
        debug_assert!((src as usize) < self.nodes.len());
        debug_assert!((dst as usize) < self.nodes.len());
        if !self.edge_set.insert((src, nre.clone(), dst)) {
            return false;
        }
        self.edges.push((src, nre, dst));
        true
    }

    /// The node behind an id.
    pub fn node(&self, id: PNodeId) -> Node {
        self.nodes[id as usize]
    }

    /// The id of a node, if present.
    pub fn node_id(&self, node: Node) -> Option<PNodeId> {
        self.ids.get(&node).copied()
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = PNodeId> + '_ {
        0..self.nodes.len() as u32
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All edges.
    pub fn edges(&self) -> &[(PNodeId, Nre, PNodeId)] {
        &self.edges
    }

    /// Edge membership.
    pub fn has_edge(&self, src: PNodeId, nre: &Nre, dst: PNodeId) -> bool {
        self.edge_set.contains(&(src, nre.clone(), dst))
    }

    /// The quotient of the pattern under a node mapping (`rep` returns a
    /// pattern node id of `self` for each node id). Edges are rewritten and
    /// deduplicated — the merge primitive of the egd chase.
    pub fn quotient(&self, mut rep: impl FnMut(PNodeId) -> PNodeId) -> GraphPattern {
        let mut p = GraphPattern::new();
        let mut remap: FxHashMap<PNodeId, PNodeId> = FxHashMap::default();
        for id in self.node_ids() {
            let new_id = p.add_node(self.node(rep(id)));
            remap.insert(id, new_id);
        }
        for (s, r, d) in &self.edges {
            p.add_edge(remap[s], r.clone(), remap[d]);
        }
        p
    }

    /// Converts a pattern whose every edge is a single symbol into a plain
    /// graph; fails on any other edge shape. (Inverse of
    /// [`GraphPattern::from_graph`].)
    pub fn to_graph(&self) -> Result<gdx_graph::Graph> {
        let mut g = gdx_graph::Graph::new();
        let mut remap: FxHashMap<PNodeId, gdx_graph::NodeId> = FxHashMap::default();
        for id in self.node_ids() {
            remap.insert(id, g.add_node(self.node(id)));
        }
        for (s, r, d) in &self.edges {
            match r {
                Nre::Label(a) => {
                    g.add_edge(remap[s], *a, remap[d]);
                }
                other => {
                    return Err(GdxError::unsupported(format!(
                        "pattern edge `{other}` is not a single symbol"
                    )))
                }
            }
        }
        Ok(g)
    }

    /// Views a plain graph as a pattern (each edge becomes a
    /// single-symbol NRE edge).
    pub fn from_graph(g: &gdx_graph::Graph) -> GraphPattern {
        let mut p = GraphPattern::new();
        let mut remap: FxHashMap<gdx_graph::NodeId, PNodeId> = FxHashMap::default();
        for id in g.node_ids() {
            remap.insert(id, p.add_node(g.node(id)));
        }
        for &(s, l, d) in g.edges() {
            p.add_edge(remap[&s], Nre::Label(l), remap[&d]);
        }
        p
    }

    /// Parses the edge-list format `(node, nre, node); …` with `_`-prefixed
    /// null names, e.g. `(c1, f.f*, _N1); (_N1, h, hy);`.
    pub fn parse(input: &str) -> Result<GraphPattern> {
        let mut cur = TokenCursor::new(input)?;
        let mut p = GraphPattern::new();
        while !cur.at_eof() {
            if cur.eat_keyword("node") {
                cur.expect(&TokenKind::LParen, "node declaration")?;
                let n = parse_pnode(&mut cur)?;
                p.add_node(n);
                cur.expect(&TokenKind::RParen, "node declaration")?;
            } else {
                cur.expect(&TokenKind::LParen, "pattern edge")?;
                let src = parse_pnode(&mut cur)?;
                cur.expect(&TokenKind::Comma, "pattern edge")?;
                let nre = parse_union(&mut cur)?;
                cur.expect(&TokenKind::Comma, "pattern edge")?;
                let dst = parse_pnode(&mut cur)?;
                cur.expect(&TokenKind::RParen, "pattern edge")?;
                let s = p.add_node(src);
                let d = p.add_node(dst);
                p.add_edge(s, nre, d);
            }
            while cur.eat(&TokenKind::Semi) || cur.eat(&TokenKind::Comma) {}
        }
        Ok(p)
    }

    /// GraphViz DOT rendering.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let mut s = String::from("digraph Pattern {\n");
        for id in self.node_ids() {
            let n = self.node(id);
            let shape = if n.is_const() { "box" } else { "ellipse" };
            let _ = writeln!(s, "  n{id} [label=\"{n}\", shape={shape}];");
        }
        for (src, r, dst) in &self.edges {
            let _ = writeln!(s, "  n{src} -> n{dst} [label=\"{r}\"];");
        }
        s.push_str("}\n");
        s
    }
}

fn parse_pnode(cur: &mut TokenCursor) -> Result<Node> {
    let (name, _quoted) = cur.expect_name("pattern node")?;
    if let Some(rest) = name.strip_prefix('_') {
        if rest.is_empty() {
            return Err(cur.error("null node needs a name after `_`"));
        }
        Ok(Node::null(rest))
    } else {
        Ok(Node::cst(&name))
    }
}

impl fmt::Display for GraphPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (s, r, d) in &self.edges {
            writeln!(f, "({}, {r}, {});", self.node(*s), self.node(*d))?;
        }
        let mut touched: FxHashSet<PNodeId> = FxHashSet::default();
        for (s, _, d) in &self.edges {
            touched.insert(*s);
            touched.insert(*d);
        }
        for id in self.node_ids() {
            if !touched.contains(&id) {
                writeln!(f, "node({});", self.node(id))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure 3 pattern (universal representative of Example 3.2).
    pub fn fig3() -> GraphPattern {
        GraphPattern::parse(
            "(c1, f.f*, _N1); (_N1, f.f*, c2); (_N1, h, hy);
             (c1, f.f*, _N2); (_N2, f.f*, c2); (_N2, h, hx);
             (c3, f.f*, _N3); (_N3, f.f*, c2); (_N3, h, hx);",
        )
        .unwrap()
    }

    #[test]
    fn parse_fig3() {
        let p = fig3();
        assert_eq!(p.node_count(), 8, "c1,c2,c3,hx,hy,N1,N2,N3");
        assert_eq!(p.edge_count(), 9);
        assert_eq!(p.null_count(), 3);
    }

    #[test]
    fn edges_dedup() {
        let mut p = GraphPattern::new();
        let a = p.add_node(Node::cst("a"));
        let b = p.add_node(Node::cst("b"));
        assert!(p.add_edge(a, Nre::label("f"), b));
        assert!(!p.add_edge(a, Nre::label("f"), b));
        assert!(p.add_edge(a, Nre::label("f").star(), b), "different NRE");
        assert_eq!(p.edge_count(), 2);
    }

    #[test]
    fn quotient_merges_nulls() {
        let p = fig3();
        let n2 = p.node_id(Node::null("N2")).unwrap();
        let n3 = p.node_id(Node::null("N3")).unwrap();
        let q = p.quotient(|id| if id == n3 { n2 } else { id });
        assert_eq!(q.node_count(), 7);
        // (N3,h,hx) and (N3,f.f*,c2) collapse onto N2's copies; c3's edge
        // is retargeted: 9 - 2 = 7 edges.
        assert_eq!(q.edge_count(), 7);
    }

    #[test]
    fn graph_roundtrip() {
        let g = gdx_graph::Graph::parse("(a, f, b); (b, h, _N);").unwrap();
        let p = GraphPattern::from_graph(&g);
        assert_eq!(p.edge_count(), 2);
        let g2 = p.to_graph().unwrap();
        assert!(gdx_graph::is_isomorphic(&g, &g2));
    }

    #[test]
    fn to_graph_rejects_complex_edges() {
        let p = GraphPattern::parse("(a, f.f*, b);").unwrap();
        assert!(p.to_graph().is_err());
    }

    #[test]
    fn display_roundtrip() {
        let p = fig3();
        let p2 = GraphPattern::parse(&p.to_string()).unwrap();
        assert_eq!(p.node_count(), p2.node_count());
        assert_eq!(p.edge_count(), p2.edge_count());
        for (s, r, d) in p.edges() {
            let s2 = p2.node_id(p.node(*s)).unwrap();
            let d2 = p2.node_id(p.node(*d)).unwrap();
            assert!(p2.has_edge(s2, r, d2));
        }
    }

    #[test]
    fn dot_output() {
        let dot = fig3().to_dot();
        assert!(dot.contains("f.f*"));
        assert!(dot.contains("shape=ellipse"));
    }
}
