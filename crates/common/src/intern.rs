//! Global string interning.
//!
//! Every name in the system — relation symbols, edge labels, constants,
//! variables — is interned into a [`Symbol`] (a `u32`). All hot-path
//! comparisons, joins and adjacency lookups then work on integers.
//!
//! # Sharding
//!
//! The table is split into 16 independently-locked shards, keyed
//! by the FxHash of the string: parallel parse/build phases (the
//! `gdx-runtime` worker pools) intern concurrently without serializing on
//! one process-global mutex. Ids are allocated from **shard-striped
//! ranges** — shard `s` hands out `s, s + SHARDS, s + 2·SHARDS, …` (the
//! shard index lives in the low bits) — so every shard owns an unbounded,
//! disjoint id space and [`Symbol::as_str`] decodes the owning shard from
//! the id alone, with no cross-shard coordination on either path.
//!
//! Interning stays idempotent and deterministic per insertion sequence;
//! ids are *process-local* handles either way (never serialized), and no
//! output of the system depends on their numeric values.

use crate::hash::FxHashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// An interned string. Cheap to copy, compare, and hash.
///
/// ```
/// use gdx_common::Symbol;
/// let a = Symbol::new("flight");
/// let b = Symbol::new("flight");
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "flight");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

/// Number of interner shards (a power of two; the shard index occupies
/// `SHARD_BITS` low bits of every id).
const SHARD_BITS: u32 = 4;
const SHARDS: usize = 1 << SHARD_BITS;

#[derive(Default)]
struct Shard {
    map: FxHashMap<&'static str, u32>,
    /// Strings of this shard, indexed by the id's high bits (`id >> SHARD_BITS`).
    strings: Vec<&'static str>,
}

fn shards() -> &'static [Mutex<Shard>; SHARDS] {
    static INTERNER: OnceLock<[Mutex<Shard>; SHARDS]> = OnceLock::new();
    INTERNER.get_or_init(|| std::array::from_fn(|_| Mutex::new(Shard::default())))
}

/// Locks shard `si`, recovering from poisoning: shard state is
/// append-only and every mutation leaves it consistent, so a panic that
/// unwound through a holder (e.g. one caught and contained by a test or
/// fuzzing harness) must not condemn every later interning in the
/// process to a poison panic.
fn lock_shard(si: usize) -> MutexGuard<'static, Shard> {
    shards()[si].lock().unwrap_or_else(PoisonError::into_inner)
}

/// The shard owning `s`, by FxHash of its bytes.
fn shard_of(s: &str) -> usize {
    let mut h = crate::hash::FxHasher::default();
    s.hash(&mut h);
    (h.finish() as usize) & (SHARDS - 1)
}

impl Symbol {
    /// Interns `s`, returning its symbol. Idempotent.
    pub fn new(s: &str) -> Symbol {
        let si = shard_of(s);
        let mut g = lock_shard(si);
        if let Some(&id) = g.map.get(s) {
            return Symbol(id);
        }
        // Interned strings live for the program's lifetime; leaking is the
        // standard trade for handing out `&'static str` without unsafe code.
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        // Capacity invariant, not an input condition: exceeding 2^28
        // distinct strings per shard would exhaust the striped u32 id
        // space — unreachable before memory is, so a panic is the honest
        // report.
        #[allow(clippy::expect_used)]
        let local = u32::try_from(g.strings.len()).expect("interner shard overflow");
        #[allow(clippy::expect_used)]
        let id = local
            .checked_shl(SHARD_BITS)
            .filter(|&v| (v >> SHARD_BITS) == local)
            .expect("interner shard overflow")
            | si as u32;
        g.strings.push(leaked);
        g.map.insert(leaked, id);
        drop(g);
        Symbol(id)
    }

    /// The symbol of `s` **if it was ever interned**, without interning.
    ///
    /// Probe loops (e.g. fresh-null naming) use this to test candidate
    /// names against existing state: a name that was never interned cannot
    /// occur in any graph or schema, so a `None` here proves freshness
    /// without growing the intern table.
    pub fn lookup(s: &str) -> Option<Symbol> {
        let g = lock_shard(shard_of(s));
        g.map.get(s).copied().map(Symbol)
    }

    /// The interned text.
    pub fn as_str(self) -> &'static str {
        let si = (self.0 as usize) & (SHARDS - 1);
        let g = lock_shard(si);
        g.strings[(self.0 >> SHARD_BITS) as usize]
    }

    /// The raw id. Stable within a process run. Ids are striped across
    /// interner shards (low bits = shard index), so they
    /// are unique and hash-friendly but **not dense** — index maps, not
    /// arrays, with them.
    #[inline]
    pub fn id(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::new(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::new(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_string_same_symbol() {
        assert_eq!(Symbol::new("abc"), Symbol::new("abc"));
        assert_eq!(Symbol::new("abc").id(), Symbol::new("abc").id());
    }

    #[test]
    fn different_strings_differ() {
        assert_ne!(Symbol::new("x1"), Symbol::new("x2"));
    }

    #[test]
    fn lookup_does_not_intern() {
        assert_eq!(Symbol::lookup("never-interned-name-xyzzy"), None);
        let s = Symbol::new("interned-name-xyzzy");
        assert_eq!(Symbol::lookup("interned-name-xyzzy"), Some(s));
        assert_eq!(Symbol::lookup("never-interned-name-xyzzy"), None);
    }

    #[test]
    fn roundtrips_text() {
        let s = Symbol::new("hôtel-éà");
        assert_eq!(s.as_str(), "hôtel-éà");
        assert_eq!(s.to_string(), "hôtel-éà");
    }

    #[test]
    fn from_impls() {
        let a: Symbol = "f".into();
        let b: Symbol = String::from("f").into();
        assert_eq!(a, b);
    }

    #[test]
    fn ordering_is_consistent() {
        let a = Symbol::new("ord-a");
        let b = Symbol::new("ord-b");
        // Interned order per shard, not lexicographic — but a total order.
        assert_eq!(a.cmp(&b), a.id().cmp(&b.id()));
    }

    #[test]
    fn ids_identify_their_shard() {
        // Striped allocation: two symbols of the same shard differ in the
        // high bits; the low bits always name the owning shard.
        for name in ["s0", "s1", "s2", "stripe-longer-name", "ß-unicode"] {
            let sym = Symbol::new(name);
            assert_eq!((sym.id() as usize) & (SHARDS - 1), shard_of(name), "{name}");
            assert_eq!(sym.as_str(), name);
        }
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        // Many threads intern overlapping name sets; every thread must
        // observe identical string→id bindings, and every id must decode
        // back to its string.
        let names: Vec<String> = (0..256).map(|i| format!("conc-{i}")).collect();
        let ids: Vec<Vec<u32>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let names = &names;
                    scope.spawn(move || names.iter().map(|n| Symbol::new(n).id()).collect())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for other in &ids[1..] {
            assert_eq!(&ids[0], other, "all threads agree on every id");
        }
        for (name, &id) in names.iter().zip(&ids[0]) {
            assert_eq!(Symbol::lookup(name).map(Symbol::id), Some(id));
        }
    }
}
