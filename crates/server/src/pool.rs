//! The warm-session pool: an LRU map from request identity to a live
//! [`ExchangeSession`].
//!
//! A session is worth keeping because everything expensive about a
//! request is memoized *on* it: the parsed setting and instance, the
//! chased universal representative, the verified minimal-solution
//! family, per-graph evaluation caches, compiled probe queries. A pool
//! hit answers repeat traffic at evaluation cost only: the e2e test
//! `warm_pool_chases_once_and_cold_server_chases_per_request` pins that a
//! pooled session chases once, and perfbench's `serve` workload reports
//! the hit share.
//!
//! Identity is the full `(setting text, instance text, options
//! fingerprint)` triple — texts compared by value, never by hash alone,
//! so two different workloads can never collide into one session. The
//! fingerprint deliberately excludes
//! [`Options::deadline_micros`](gdx_exchange::Options::deadline_micros):
//! the per-request budget is applied to the session *after* checkout
//! (via [`ExchangeSession::set_deadline`](gdx_exchange::ExchangeSession::set_deadline),
//! which does not invalidate memos), so requests that differ only in
//! budget share one warm session.
//!
//! Concurrency: the pool map is behind one mutex, each session behind
//! its own. Requests for *different* keys evaluate fully in parallel;
//! requests for the same key serialize on the session lock — which is
//! what makes its memoization sound. Lock poisoning is recovered with
//! [`PoisonError::into_inner`](std::sync::PoisonError::into_inner):
//! sessions hold no partially-applied
//! state across a panic boundary that a later request could observe
//! mid-flight (every mutation completes within a call).

use gdx_common::hash::FxHashMap;
use gdx_common::Result;
use gdx_exchange::{ExchangeSession, Options};
use gdx_obs::Obs;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Full-value request identity (see the module docs for why the
/// deadline is excluded).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SessionKey {
    setting: Arc<str>,
    instance: Arc<str>,
    options_fingerprint: String,
}

impl SessionKey {
    /// Key for a request; `options` is normalized (deadline stripped)
    /// before fingerprinting.
    pub fn new(setting: Arc<str>, instance: Arc<str>, options: &Options) -> SessionKey {
        let normalized = options.with_deadline_micros(None);
        SessionKey {
            setting,
            instance,
            // `Options` is a plain-data knob struct: its derived Debug
            // rendering covers every field, which makes it a faithful
            // (if verbose) equality fingerprint without requiring
            // Eq/Hash across all the embedded config types.
            options_fingerprint: format!("{normalized:?}"),
        }
    }

    /// The setting text this key was built from.
    pub fn setting(&self) -> &Arc<str> {
        &self.setting
    }

    /// The instance text this key was built from.
    pub fn instance(&self) -> &Arc<str> {
        &self.instance
    }
}

struct PoolInner {
    map: FxHashMap<SessionKey, Arc<Mutex<ExchangeSession>>>,
    /// Least-recently-used order, front = coldest. Touched keys move to
    /// the back; eviction pops the front.
    lru: VecDeque<SessionKey>,
}

/// LRU pool of warm sessions. `capacity == 0` disables pooling: every
/// checkout builds a fresh cold session (the session-per-request
/// baseline).
pub struct SessionPool {
    inner: Mutex<PoolInner>,
    capacity: usize,
    obs: Obs,
}

impl SessionPool {
    pub fn new(capacity: usize, obs: Obs) -> SessionPool {
        SessionPool {
            inner: Mutex::new(PoolInner {
                map: FxHashMap::default(),
                lru: VecDeque::new(),
            }),
            capacity,
            obs,
        }
    }

    /// The warm session for `key`, building (and caching) it on a miss
    /// via `build`. Eviction of the least-recently-used session happens
    /// before insertion, so the pool never exceeds `capacity`.
    pub fn checkout(
        &self,
        key: &SessionKey,
        build: impl FnOnce() -> Result<ExchangeSession>,
    ) -> Result<Arc<Mutex<ExchangeSession>>> {
        if self.capacity == 0 {
            self.obs.incr("server.pool.bypass");
            return Ok(Arc::new(Mutex::new(build()?)));
        }
        let _span = self.obs.span("server.pool.checkout");
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(session) = inner.map.get(key).cloned() {
            self.obs.incr("server.pool.hits");
            touch(&mut inner.lru, key);
            return Ok(session);
        }
        self.obs.incr("server.pool.misses");
        // Build under the pool lock: a concurrent same-key request
        // would otherwise build a duplicate session only to discard it
        // (and with it, the warmth the first request paid for).
        let session = Arc::new(Mutex::new(build()?));
        while inner.map.len() >= self.capacity {
            let Some(coldest) = inner.lru.pop_front() else {
                break;
            };
            inner.map.remove(&coldest);
            self.obs.incr("server.pool.evictions");
        }
        inner.map.insert(key.clone(), session.clone());
        inner.lru.push_back(key.clone());
        self.obs
            .gauge_set("server.pool.sessions", inner.map.len() as u64);
        drop(inner);
        Ok(session)
    }

    /// Number of pooled sessions right now.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map
            .len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Moves `key` to the most-recently-used end.
fn touch(lru: &mut VecDeque<SessionKey>, key: &SessionKey) {
    if let Some(pos) = lru.iter().position(|k| k == key) {
        if let Some(k) = lru.remove(pos) {
            lru.push_back(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SETTING: &str = "source { R/2 } target { f }
sttgd R(x, y) -> (x, f, y);";
    const INSTANCE: &str = "R(a, b);";

    fn build() -> Result<ExchangeSession> {
        let setting = gdx_mapping::dsl::parse_setting(SETTING)?;
        let instance = gdx_relational::Instance::parse(setting.source.clone(), INSTANCE)?;
        Ok(ExchangeSession::new(setting, instance))
    }

    fn key(tag: &str, options: &Options) -> SessionKey {
        SessionKey::new(Arc::from(SETTING), Arc::from(tag), options)
    }

    #[test]
    fn hit_returns_the_same_session() {
        let pool = SessionPool::new(4, Obs::disabled());
        let opts = Options::default();
        let a = pool.checkout(&key("i1", &opts), build).unwrap();
        let b = pool.checkout(&key("i1", &opts), build).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second checkout must be a pool hit");
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn deadline_does_not_split_the_key_but_other_options_do() {
        let base = Options::default();
        let budgeted = base.with_deadline_micros(Some(1000));
        assert_eq!(key("i1", &base), key("i1", &budgeted));
        let capped = Options {
            solution_cap: Some(3),
            ..base
        };
        assert_ne!(key("i1", &base), key("i1", &capped));
    }

    #[test]
    fn lru_evicts_the_coldest_session() {
        let pool = SessionPool::new(2, Obs::disabled());
        let opts = Options::default();
        let a = pool.checkout(&key("a", &opts), build).unwrap();
        let _b = pool.checkout(&key("b", &opts), build).unwrap();
        // Touch `a`, insert `c` — the coldest is now `b`.
        let a2 = pool.checkout(&key("a", &opts), build).unwrap();
        assert!(Arc::ptr_eq(&a, &a2));
        let _c = pool.checkout(&key("c", &opts), build).unwrap();
        assert_eq!(pool.len(), 2);
        let a3 = pool.checkout(&key("a", &opts), build).unwrap();
        assert!(Arc::ptr_eq(&a, &a3), "a must have survived the eviction");
        let b2 = pool.checkout(&key("b", &opts), build).unwrap();
        let b3 = pool.checkout(&key("b", &opts), build).unwrap();
        assert!(Arc::ptr_eq(&b2, &b3));
        assert!(pool.len() <= 2);
    }

    #[test]
    fn zero_capacity_bypasses_pooling() {
        let pool = SessionPool::new(0, Obs::disabled());
        let opts = Options::default();
        let a = pool.checkout(&key("i1", &opts), build).unwrap();
        let b = pool.checkout(&key("i1", &opts), build).unwrap();
        assert!(!Arc::ptr_eq(&a, &b), "bypass mode builds cold sessions");
        assert_eq!(pool.len(), 0);
    }
}
