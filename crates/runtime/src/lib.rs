//! # gdx-runtime
//!
//! How many solution graphs the exchange stack evaluates at once. A
//! request runs on its calling thread; the one place it fans out is the
//! session's scan of the solution family, whose graphs share nothing
//! (certain answers intersect the query's answers over them). This crate
//! holds the worker-count configuration ([`Threads`]), its resolved
//! handle ([`Runtime`]) and the one fan-out primitive that scan uses,
//! [`Runtime::par_map_mut`].
//!
//! # Scheduling
//!
//! [`Runtime::par_map_mut`] starts scoped workers ([`std::thread::scope`])
//! that claim item indices from one shared counter, lowest index first.
//! Results are reassembled by item index before returning, so the output
//! never depends on the schedule. Since every index below a claimed one
//! is already claimed, a caller's early exit ("skip every item past the
//! first one that ends the scan") sees every result up to that item.
//! Borrows flow into the workers without `'static` bounds or `unsafe`,
//! and a worker's panic re-raises its original payload in the caller.
//!
//! Thread-count resolution ([`Threads::resolve`]): an explicit
//! [`Threads::Fixed`] wins; [`Threads::Auto`] honours the `GDX_THREADS`
//! environment variable and falls back to the machine's parallelism.
//! Both are clamped to that parallelism, which is read once per process:
//! on a single-core host a requested 4-worker pool resolves to one worker,
//! which runs every item inline, in order. Tests that must exercise real
//! thread interleavings regardless of the host use
//! [`Runtime::with_workers`], which skips the clamp.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

pub use gdx_obs::Obs;

/// The thread-count *configuration* — `Copy`, so it rides inside the
/// option structs (`gdx_exchange::Options::threads`,
/// `gdx_chase::TgdChaseConfig::threads`) without breaking their `Copy`.
///
/// Resolution to a concrete worker count happens once, at
/// [`Runtime::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Threads {
    /// `GDX_THREADS` when set and positive, else the machine's available
    /// parallelism.
    #[default]
    Auto,
    /// This many workers, clamped to `[1, detected parallelism]`.
    Fixed(usize),
}

/// The machine's detected parallelism (1 when undetectable), read once
/// per process: [`std::thread::available_parallelism`] reads cgroup files
/// on every call, and every session set-up and family scan resolves a
/// worker count.
fn detected_parallelism() -> usize {
    static DETECTED: OnceLock<usize> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

impl Threads {
    /// The concrete *effective* worker count this configuration denotes
    /// right now: the requested count clamped to the detected
    /// parallelism. More workers than cores cannot run concurrently; they
    /// only add scheduling overhead.
    pub fn resolve(self) -> usize {
        let requested = match self {
            Threads::Fixed(n) => n.max(1),
            Threads::Auto => std::env::var("GDX_THREADS")
                .ok()
                .and_then(|s| s.trim().parse::<usize>().ok())
                .filter(|&n| n >= 1)
                .unwrap_or_else(detected_parallelism),
        };
        requested.min(detected_parallelism())
    }
}

/// A resolved worker-pool handle. Cheap to clone; threads are spawned per
/// [`Runtime::par_map_mut`] call (scoped), so the handle itself holds no
/// OS resources beyond an optional shared [`Obs`] registry (disabled by
/// default — see [`Runtime::with_obs`]).
#[derive(Debug, Clone)]
pub struct Runtime {
    workers: usize,
    obs: Obs,
}

impl Runtime {
    /// A runtime for the given configuration.
    pub fn new(threads: Threads) -> Runtime {
        Runtime {
            workers: threads.resolve(),
            obs: Obs::disabled(),
        }
    }

    /// The single-worker runtime: every call runs inline.
    pub fn sequential() -> Runtime {
        Runtime {
            workers: 1,
            obs: Obs::disabled(),
        }
    }

    /// A runtime with exactly `n` workers (0 is clamped to 1),
    /// **ignoring** the detected-parallelism clamp of
    /// [`Threads::resolve`] — the escape hatch for determinism tests that
    /// must drive real multi-worker schedules even on a serial host.
    /// Production configuration goes through [`Threads`].
    pub fn with_workers(n: usize) -> Runtime {
        Runtime {
            workers: n.max(1),
            obs: Obs::disabled(),
        }
    }

    /// The same pool with scheduler observability attached: each parallel
    /// call records `runtime.par_scopes`, `runtime.tasks` (items) and the
    /// `runtime.workers` gauge into `obs`. A disabled handle (the default)
    /// records nothing.
    pub fn with_obs(mut self, obs: Obs) -> Runtime {
        self.obs = obs;
        self
    }

    /// The observability handle this pool records into.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The resolved worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Maps every item through `f` (called with the item's index and
    /// exclusive `&mut` access to the item), returning results in item
    /// order. Callers move each unit's mutable state (one `EvalCache` per
    /// solution graph) into the slice and take it back after this
    /// barrier.
    ///
    /// Workers claim indices from one counter in increasing order, so
    /// every index below a claimed one is already claimed. A caller whose
    /// `f` skips every item past the first one that ends its scan thus
    /// gets every result up to that item, and work past it only starts
    /// while that item is still running. One worker (or at most one item)
    /// runs inline, in order, with no threads.
    pub fn par_map_mut<T, R, F>(&self, items: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut T) -> R + Sync,
    {
        let workers = self.workers.min(items.len());
        if workers <= 1 {
            return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        // The mutexes only carry each `&mut T` to the worker that claims
        // its index. Every index is claimed exactly once, so no lock is
        // ever contended, and a poisoned one (its item's `f` panicked)
        // is never locked again.
        let cells: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
        let next = AtomicUsize::new(0);
        let (cells, next, f) = (&cells, &next, &f);
        let mut out: Vec<Option<R>> = (0..cells.len()).map(|_| None).collect();
        #[expect(
            clippy::disallowed_methods,
            reason = "the pool itself: the one place that creates worker threads"
        )]
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(move || {
                        let mut done: Vec<(usize, R)> = Vec::new();
                        // `Relaxed` suffices: the counter publishes no
                        // data, only which index is whose; the items and
                        // results travel through the mutexes and the join.
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(cell) = cells.get(i) else { break };
                            let mut item = cell.lock().unwrap_or_else(PoisonError::into_inner);
                            done.push((i, f(i, &mut item)));
                        }
                        done
                    })
                })
                .collect();
            for h in handles {
                // A worker panics only when `f` panicked; re-raise the
                // original payload instead of a generic join message.
                match h.join() {
                    Ok(done) => {
                        for (i, r) in done {
                            out[i] = Some(r);
                        }
                    }
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        self.obs.incr("runtime.par_scopes");
        self.obs.add("runtime.tasks", cells.len() as u64);
        self.obs.gauge_set("runtime.workers", workers as u64);
        out.into_iter()
            .map(|r| match r {
                Some(r) => r,
                // The counter passed every index before the workers
                // stopped, and every worker joined.
                None => unreachable!("every item was claimed"),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_resolution() {
        let detected = detected_parallelism();
        assert_eq!(Threads::Fixed(3).resolve(), 3.min(detected));
        assert_eq!(Threads::Fixed(0).resolve(), 1);
        assert!(Threads::Auto.resolve() >= 1);
        assert!(
            Threads::Fixed(usize::MAX).resolve() <= detected,
            "requests beyond the hardware clamp to effective workers"
        );
        assert_eq!(Runtime::sequential().workers(), 1);
        assert_eq!(Runtime::with_workers(0).workers(), 1);
        assert_eq!(
            Runtime::with_workers(7).workers(),
            7,
            "with_workers skips the clamp for determinism tests"
        );
    }

    #[test]
    fn every_item_is_claimed_once_and_results_keep_item_order() {
        for workers in [1, 2, 4, 7] {
            let rt = Runtime::with_workers(workers);
            let claims: Vec<AtomicUsize> = (0..103).map(|_| AtomicUsize::new(0)).collect();
            let mut items: Vec<Vec<usize>> = (0..103).map(|i| vec![i]).collect();
            let out = rt.par_map_mut(&mut items, |i, v| {
                claims[i].fetch_add(1, Ordering::Relaxed);
                v.push(i * 10);
                i * 2
            });
            assert_eq!(out, (0..103).map(|i| i * 2).collect::<Vec<_>>());
            assert!(
                claims.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "workers={workers}"
            );
            for (i, v) in items.iter().enumerate() {
                assert_eq!(v, &vec![i, i * 10], "mutation survives the barrier");
            }
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let mut none: Vec<u8> = Vec::new();
        assert!(Runtime::with_workers(4)
            .par_map_mut(&mut none, |_, &mut b| b)
            .is_empty());
    }

    #[test]
    // The original payload is rethrown (`resume_unwind`), not wrapped.
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let mut items: Vec<usize> = (0..100).collect();
        Runtime::with_workers(4).par_map_mut(&mut items, |_, &mut x| {
            if x == 57 {
                panic!("boom");
            }
            x
        });
    }

    /// The session's family scan: a result ends the scan when it is
    /// empty, items past the lowest ending index found so far are
    /// skipped, and the caller keeps the prefix up to the first ending
    /// result. In-order claiming guarantees that prefix has no gap.
    #[test]
    fn early_stop_keeps_the_lowest_index_empty_result() {
        let empty_at = [37usize, 38, 60, 99];
        for round in 0..200 {
            let mut items: Vec<usize> = (0..120).collect();
            let stop_at = AtomicUsize::new(usize::MAX);
            let results = Runtime::with_workers(4).par_map_mut(&mut items, |i, &mut x| {
                if stop_at.load(Ordering::Relaxed) < i {
                    return None;
                }
                let empty = empty_at.contains(&x);
                if empty {
                    stop_at.fetch_min(i, Ordering::Relaxed);
                }
                Some(empty)
            });
            let prefix: Vec<bool> = results.into_iter().map_while(|r| r).collect();
            let first_empty = prefix.iter().position(|&e| e);
            assert_eq!(first_empty, Some(37), "round {round}: {prefix:?}");
        }
    }

    #[test]
    fn scheduler_tallies_land_in_the_registry() {
        let obs = Obs::enabled();
        let rt = Runtime::with_workers(4).with_obs(obs.clone());
        let mut items: Vec<u64> = (0..1000).collect();
        let sum: u64 = rt.par_map_mut(&mut items, |_, &mut x| x).iter().sum();
        assert_eq!(sum, 999 * 1000 / 2);
        let reg = obs.registry().unwrap();
        assert_eq!(reg.counter("runtime.tasks"), 1000);
        assert_eq!(reg.counter("runtime.par_scopes"), 1);
        assert_eq!(reg.gauge("runtime.workers"), Some(4));
    }
}
