//! Union-find (disjoint set union) over dense `u32` ids.
//!
//! The egd chase of Section 5 of the paper merges graph-pattern nodes: when
//! an egd body matches with `x1 ↦ n1, x2 ↦ n2`, the two nodes are unified
//! (or the chase fails when both are constants — that policy lives in the
//! chase crate; this structure only tracks the equivalence classes).
//!
//! Path compression + union by rank give effectively-constant operations.

/// Disjoint-set forest over the ids `0..len`.
#[derive(Debug, Clone, Default)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    /// Number of distinct classes.
    classes: usize,
}

impl UnionFind {
    /// A forest with `n` singleton classes `0..n`.
    pub fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            classes: n,
        }
    }

    /// Number of elements (merged or not).
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when the forest tracks no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of distinct classes remaining.
    pub fn class_count(&self) -> usize {
        self.classes
    }

    /// Adds a fresh singleton element and returns its id.
    pub fn push(&mut self) -> u32 {
        #[expect(
            clippy::expect_used,
            reason = "capacity invariant: more than u32::MAX elements exhausts the id space — unreachable before memory is"
        )]
        let id = u32::try_from(self.parent.len()).expect("union-find overflow");
        self.parent.push(id);
        self.rank.push(0);
        self.classes += 1;
        id
    }

    /// Representative of `x`'s class, with path compression.
    pub fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // Compress the path.
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    /// Representative of `x`'s class without mutation (no compression).
    pub fn find_const(&self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        root
    }

    /// Merges the classes of `a` and `b`. Returns `true` if they were
    /// previously distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.classes -= 1;
        let (ra, rb) = (ra as usize, rb as usize);
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb as u32,
            std::cmp::Ordering::Greater => self.parent[rb] = ra as u32,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra as u32;
                self.rank[ra] += 1;
            }
        }
        true
    }

    /// Merges `b`'s class *into* `a`'s: the representative of the merged
    /// class is guaranteed to be `find(a)`'s old representative.
    ///
    /// The egd chase needs directed merges: when one node is a constant and
    /// the other a labeled null, the null must be replaced by the constant,
    /// never the other way around.
    pub fn union_into(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.classes -= 1;
        self.parent[rb as usize] = ra;
        // Keep ranks roughly meaningful for later symmetric unions.
        if self.rank[ra as usize] <= self.rank[rb as usize] {
            self.rank[ra as usize] = self.rank[rb as usize] + 1;
        }
        true
    }

    /// True when `a` and `b` are in the same class.
    pub fn same(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons() {
        let mut uf = UnionFind::new(4);
        assert_eq!(uf.class_count(), 4);
        for i in 0..4 {
            assert_eq!(uf.find(i), i);
        }
    }

    #[test]
    fn union_merges_classes() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(!uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(uf.same(0, 2));
        assert!(!uf.same(0, 3));
        assert_eq!(uf.class_count(), 3);
    }

    #[test]
    fn union_into_keeps_target_representative() {
        let mut uf = UnionFind::new(6);
        // Build a chain into 3 so its rank grows.
        uf.union_into(3, 4);
        uf.union_into(3, 5);
        // Now force 0's class into 3's: representative must be 3.
        uf.union_into(3, 0);
        assert_eq!(uf.find(0), 3);
        assert_eq!(uf.find(4), 3);
    }

    #[test]
    fn push_adds_fresh_elements() {
        let mut uf = UnionFind::new(2);
        let id = uf.push();
        assert_eq!(id, 2);
        assert_eq!(uf.len(), 3);
        assert_eq!(uf.class_count(), 3);
        uf.union(id, 0);
        assert!(uf.same(2, 0));
    }

    #[test]
    fn find_const_matches_find() {
        let mut uf = UnionFind::new(8);
        uf.union(0, 1);
        uf.union(2, 3);
        uf.union(1, 3);
        for i in 0..4 {
            assert_eq!(uf.find_const(i), uf.find(i));
        }
    }

    #[test]
    fn transitive_chain() {
        let mut uf = UnionFind::new(100);
        for i in 0..99 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.class_count(), 1);
        assert!(uf.same(0, 99));
    }
}
