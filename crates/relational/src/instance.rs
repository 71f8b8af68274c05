//! Relational instances: tuple stores over the shared constant domain.

use crate::schema::Schema;
use gdx_common::lexer::{TokenCursor, TokenKind};
use gdx_common::{FxHashMap, FxHashSet, GdxError, Result, Symbol};
use std::fmt;

/// Tuples of one relation, deduplicated, in insertion order.
#[derive(Debug, Clone, Default)]
pub struct RelationData {
    tuples: Vec<Box<[Symbol]>>,
    seen: FxHashSet<Box<[Symbol]>>,
}

impl RelationData {
    fn insert(&mut self, tuple: Box<[Symbol]>) -> bool {
        if self.seen.contains(&tuple) {
            return false;
        }
        self.seen.insert(tuple.clone());
        self.tuples.push(tuple);
        true
    }

    /// Tuples in insertion order.
    pub fn tuples(&self) -> &[Box<[Symbol]>] {
        &self.tuples
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, tuple: &[Symbol]) -> bool {
        self.seen.contains(tuple)
    }
}

/// An instance `I` of a [`Schema`]: a finite set of tuples per relation.
///
/// ```
/// use gdx_relational::{Instance, Schema};
/// let schema = Schema::from_relations([("Hotel", 2)]).unwrap();
/// let mut i = Instance::new(schema);
/// i.insert_strs("Hotel", &["01", "hx"]).unwrap();
/// assert_eq!(i.relation_str("Hotel").unwrap().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Instance {
    schema: Schema,
    data: FxHashMap<Symbol, RelationData>,
}

impl Instance {
    /// An empty instance of `schema`.
    pub fn new(schema: Schema) -> Instance {
        Instance {
            schema,
            data: FxHashMap::default(),
        }
    }

    /// The instance's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Inserts a tuple, checking relation existence and arity.
    /// Returns `true` when the tuple was new.
    pub fn insert(&mut self, relation: Symbol, tuple: &[Symbol]) -> Result<bool> {
        let arity = self
            .schema
            .arity_of(relation)
            .ok_or_else(|| GdxError::schema(format!("unknown relation {relation}")))?;
        if tuple.len() != arity {
            return Err(GdxError::schema(format!(
                "relation {relation} has arity {arity}, got tuple of length {}",
                tuple.len()
            )));
        }
        Ok(self.data.entry(relation).or_default().insert(tuple.into()))
    }

    /// String-friendly insertion.
    pub fn insert_strs(&mut self, relation: &str, tuple: &[&str]) -> Result<bool> {
        let tuple: Vec<Symbol> = tuple.iter().map(|s| Symbol::new(s)).collect();
        self.insert(Symbol::new(relation), &tuple)
    }

    /// Tuples of `relation` (empty slice when none were inserted).
    pub fn relation(&self, relation: Symbol) -> Option<&RelationData> {
        static EMPTY: std::sync::OnceLock<RelationData> = std::sync::OnceLock::new();
        if !self.schema.contains(relation) {
            return None;
        }
        Some(
            self.data
                .get(&relation)
                .unwrap_or_else(|| EMPTY.get_or_init(RelationData::default)),
        )
    }

    /// String-friendly relation access.
    pub fn relation_str(&self, relation: &str) -> Option<&RelationData> {
        self.relation(Symbol::new(relation))
    }

    /// Total number of tuples across relations.
    #[expect(clippy::disallowed_methods, reason = "`sum` is order-free")]
    pub fn tuple_count(&self) -> usize {
        self.data.values().map(RelationData::len).sum()
    }

    /// Every constant appearing in some tuple (the instance's active domain).
    pub fn active_domain(&self) -> FxHashSet<Symbol> {
        let mut dom = FxHashSet::default();
        #[expect(
            clippy::iter_over_hash_type,
            clippy::disallowed_methods,
            reason = "the active domain is aggregated into a set"
        )]
        for rel in self.data.values() {
            for t in rel.tuples() {
                dom.extend(t.iter().copied());
            }
        }
        dom
    }

    /// Parses the fact-list format against `schema`:
    ///
    /// ```text
    /// Flight(01, c1, c2);
    /// Flight(02, c3, c2);
    /// Hotel(01, hx); Hotel(01, hy); Hotel(02, hx);
    /// ```
    pub fn parse(schema: Schema, input: &str) -> Result<Instance> {
        let mut cur = TokenCursor::new(input)?;
        let mut inst = Instance::new(schema);
        while !cur.at_eof() {
            let rel = cur.expect_ident("fact")?;
            cur.expect(&TokenKind::LParen, "fact")?;
            let mut tuple = Vec::new();
            loop {
                tuple.push(Symbol::new(&cur.expect_name("fact argument")?.0));
                if !cur.eat(&TokenKind::Comma) {
                    break;
                }
            }
            cur.expect(&TokenKind::RParen, "fact")?;
            inst.insert(Symbol::new(&rel), &tuple)?;
            // Separators between facts are optional but accepted.
            while cur.eat(&TokenKind::Semi) || cur.eat(&TokenKind::Comma) {}
        }
        Ok(inst)
    }

    /// The paper's running example instance (Example 2.2): two flights and
    /// three hotel stays.
    #[expect(
        clippy::expect_used,
        reason = "static literal inputs: a parse failure here is a broken fixture, caught by every test that touches the running example"
    )]
    pub fn example_2_2() -> Instance {
        let schema = Schema::from_relations([("Flight", 3), ("Hotel", 2)]).expect("static schema");
        Instance::parse(
            schema,
            "Flight(01, c1, c2); Flight(02, c3, c2);
             Hotel(01, hx); Hotel(01, hy); Hotel(02, hx);",
        )
        .expect("static instance")
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, _) in self.schema.relations() {
            if let Some(rel) = self.relation(name) {
                for t in rel.tuples() {
                    write!(f, "{name}(")?;
                    for (i, c) in t.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{c}")?;
                    }
                    writeln!(f, ");")?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::from_relations([("Flight", 3), ("Hotel", 2)]).unwrap()
    }

    #[test]
    fn insert_and_dedup() {
        let mut i = Instance::new(schema());
        assert!(i.insert_strs("Hotel", &["01", "hx"]).unwrap());
        assert!(!i.insert_strs("Hotel", &["01", "hx"]).unwrap());
        assert_eq!(i.tuple_count(), 1);
    }

    #[test]
    fn arity_checked() {
        let mut i = Instance::new(schema());
        assert!(i.insert_strs("Hotel", &["01"]).is_err());
        assert!(i.insert_strs("Unknown", &["01"]).is_err());
    }

    #[test]
    fn parse_example_instance() {
        let i = Instance::example_2_2();
        assert_eq!(i.tuple_count(), 5);
        assert_eq!(i.relation_str("Flight").unwrap().len(), 2);
        assert_eq!(i.relation_str("Hotel").unwrap().len(), 3);
        let hotel = i.relation_str("Hotel").unwrap();
        assert!(hotel.contains(&[Symbol::new("01"), Symbol::new("hy")]));
        assert!(!hotel.contains(&[Symbol::new("02"), Symbol::new("hy")]));
    }

    #[test]
    fn active_domain() {
        let i = Instance::example_2_2();
        let dom = i.active_domain();
        for c in ["01", "02", "c1", "c2", "c3", "hx", "hy"] {
            assert!(dom.contains(&Symbol::new(c)), "missing {c}");
        }
        assert_eq!(dom.len(), 7);
    }

    #[test]
    fn display_roundtrip() {
        let i = Instance::example_2_2();
        let text = i.to_string();
        let j = Instance::parse(i.schema().clone(), &text).unwrap();
        assert_eq!(j.tuple_count(), i.tuple_count());
    }

    #[test]
    fn relation_of_unknown_symbol_is_none() {
        let i = Instance::new(schema());
        assert!(i.relation_str("Missing").is_none());
        assert!(i.relation_str("Flight").unwrap().is_empty());
    }
}
