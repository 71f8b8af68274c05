//! # gdx-runtime
//!
//! A dependency-free, std-only parallel execution substrate for the
//! exchange stack: scoped worker threads fed from chunked work-stealing
//! deques. The exchange workloads are embarrassingly parallel at two
//! grains — independent delta/seed partitions inside one join or NRE
//! materialization, and independent solution graphs / candidate checks in
//! the certain-answer layer — and this crate provides the three primitives
//! those layers share:
//!
//! * [`Runtime::par_chunks`] — partition a slice into contiguous chunks
//!   and map each chunk to a result, **returned in chunk order**. The
//!   order guarantee is what lets callers merge per-chunk outputs into a
//!   result byte-identical to the sequential loop.
//! * [`Runtime::par_map`] — per-item fan-out over coarse units (solution
//!   graphs, constraint triggers), results in item order.
//! * [`Runtime::par_map_mut`] — like `par_map` but each worker gets
//!   exclusive `&mut` access to its item; per-unit mutable state (one
//!   `EvalCache` per solution graph) travels to its worker through this.
//!
//! # Determinism contract
//!
//! The runtime never reorders results: whatever schedule the deques
//! produce, outputs are reassembled by input position before returning.
//! Callers keep the stronger end-to-end guarantee (N-thread output
//! byte-identical to 1-thread output) by only parallelizing *pure* reads
//! and merging in input order — the policy every `gdx` consumer follows
//! and the workspace-level `parallel_determinism` test pins.
//!
//! # Scheduling
//!
//! Work arrives as contiguous chunk descriptors dealt round-robin onto one
//! deque per worker. A worker pops from the back of its own deque and,
//! when empty, steals from the front of its neighbours' — the classic
//! steal-half-the-world shape reduced to mutexed `VecDeque`s, which is
//! plenty below a few thousand chunks (the runtime's chunking keeps task
//! counts at `workers × 8`-ish). No task spawns further tasks, so draining
//! all deques is a complete termination proof. Threads are scoped
//! ([`std::thread::scope`]): borrows of graphs, relations and caches flow
//! into workers without `'static` bounds or `unsafe`, and worker panics
//! propagate to the caller.
//!
//! Thread-count resolution ([`Threads::resolve`]): an explicit
//! [`Threads::Fixed`] wins; [`Threads::Auto`] honours the `GDX_THREADS`
//! environment variable and falls back to
//! [`std::thread::available_parallelism`]. Both are clamped to the
//! machine's detected parallelism: on a single-core host a requested
//! 4-worker pool resolves to **one** effective worker, so every `par_*`
//! call — and the consumers gated on [`Runtime::is_parallel`], like the
//! chase's speculative head pre-filter and the join's parallel outer
//! loop — takes the inline sequential path instead of paying thread and
//! speculation overhead that cannot be bought back (0.91× was once
//! measured on exactly that configuration). One worker (or input
//! below the caller's granularity threshold) short-circuits to an inline
//! sequential loop — no threads, no locks, no overhead. Tests that must
//! exercise real thread interleavings regardless of the host use
//! [`Runtime::with_workers`], which deliberately skips the clamp.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::{Mutex, PoisonError};

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

/// The machine's detected parallelism (1 when undetectable).
fn detected_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

impl Threads {
    /// The concrete *effective* worker count this configuration denotes
    /// right now: the requested count clamped to the detected
    /// parallelism. More workers than cores cannot run concurrently —
    /// they only add scheduling overhead and enable speculation (head
    /// pre-filters, sharded merges) that a serial machine must then pay
    /// for without any parallel payoff.
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

/// A resolved worker-pool handle. Cheap to clone and to pass down the
/// evaluation stack; threads are spawned per parallel region (scoped), so
/// the handle itself holds no OS resources beyond an optional shared
/// [`Obs`] registry (disabled by default — see [`Runtime::with_obs`]).
#[derive(Debug, Clone)]
pub struct Runtime {
    workers: usize,
    obs: Obs,
}

/// How many chunks to cut per worker: a little oversubscription lets the
/// deques balance skewed chunks without drowning in task overhead.
const CHUNKS_PER_WORKER: usize = 8;

impl Runtime {
    /// A runtime for the given configuration.
    pub fn new(threads: Threads) -> Runtime {
        Runtime {
            workers: threads.resolve(),
            obs: Obs::disabled(),
        }
    }

    /// The single-worker runtime: every `par_*` call runs inline.
    pub fn sequential() -> Runtime {
        Runtime {
            workers: 1,
            obs: Obs::disabled(),
        }
    }

    /// Shorthand for `Runtime::new(Threads::Auto)`.
    pub fn auto() -> Runtime {
        Runtime::new(Threads::Auto)
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

    /// The same pool with scheduler observability attached: parallel
    /// regions record tasks executed, steals, and per-worker task
    /// spreads into `obs`. A disabled handle (the default) keeps every
    /// `par_*` call on the exact pre-instrumentation code path.
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

    /// Whether `par_*` calls can actually fan out.
    pub fn is_parallel(&self) -> bool {
        self.workers > 1
    }

    /// Maps contiguous chunks of `items` (each at least `min_chunk` long,
    /// except possibly the last) through `f`, returning the chunk results
    /// **in chunk order**. `f` receives the global index of its chunk's
    /// first element plus the chunk slice.
    ///
    /// Sequential fallback (1 worker, or `items.len() <= min_chunk`) calls
    /// `f` once over the whole slice — chunk boundaries are never
    /// observable as long as `f`'s outputs are merged by concatenation,
    /// which is the contract every caller in the workspace follows.
    pub fn par_chunks<T, R, F>(&self, items: &[T], min_chunk: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let min_chunk = min_chunk.max(1);
        if self.workers <= 1 || n <= min_chunk {
            return vec![f(0, items)];
        }
        let chunks = n
            .div_ceil(min_chunk)
            .min(self.workers * CHUNKS_PER_WORKER)
            .max(1);
        let chunk_len = n.div_ceil(chunks);
        let ranges: Vec<Range<usize>> = (0..n)
            .step_by(chunk_len)
            .map(|s| s..(s + chunk_len).min(n))
            .collect();
        let mut out: Vec<Option<R>> = (0..ranges.len()).map(|_| None).collect();
        let workers = self.workers.min(ranges.len());
        // One deque per worker, chunks dealt round-robin.
        let deques: Vec<Mutex<VecDeque<usize>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        // Deque poisoning is recoverable throughout: the deques hold
        // plain indices and every push/pop leaves them consistent, so a
        // panic in `f` on another worker must not cascade here.
        for ci in 0..ranges.len() {
            deques[ci % workers]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push_back(ci);
        }
        let (ranges, deques, f) = (&ranges, &deques, &f);
        // Scheduler tallies, flushed into the (optional) registry once
        // after the scope joins — never from inside the worker loop.
        let mut total_tasks = 0u64;
        let mut total_steals = 0u64;
        #[expect(
            clippy::disallowed_methods,
            reason = "the pool itself: the one place that creates worker threads"
        )]
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || {
                        let mut done: Vec<(usize, R)> = Vec::new();
                        let mut steals = 0u64;
                        loop {
                            // Own deque from the back; steal from the
                            // front of the neighbours' otherwise. All
                            // tasks exist up front, so empty-everywhere
                            // means finished. The own-deque guard must
                            // drop before any steal: holding it while
                            // locking a neighbour deadlocks two workers
                            // that run dry together (ABBA).
                            let own = deques[w]
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .pop_back();
                            let task = match own {
                                Some(ci) => Some(ci),
                                None => {
                                    let stolen = (1..workers).find_map(|k| {
                                        deques[(w + k) % workers]
                                            .lock()
                                            .unwrap_or_else(PoisonError::into_inner)
                                            .pop_front()
                                    });
                                    if stolen.is_some() {
                                        steals += 1;
                                    }
                                    stolen
                                }
                            };
                            let Some(ci) = task else { break };
                            done.push((ci, f(ranges[ci].start, &items[ranges[ci].clone()])));
                        }
                        (done, steals)
                    })
                })
                .collect();
            for h in handles {
                // A worker panics only when the caller's `f` panicked;
                // re-raise the original payload instead of masking it
                // behind a generic join message.
                match h.join() {
                    Ok((rs, steals)) => {
                        total_tasks += rs.len() as u64;
                        total_steals += steals;
                        self.obs
                            .observe("runtime.tasks_per_worker", rs.len() as u64);
                        for (ci, r) in rs {
                            out[ci] = Some(r);
                        }
                    }
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        self.obs.incr("runtime.par_scopes");
        self.obs.add("runtime.tasks", total_tasks);
        self.obs.add("runtime.steals", total_steals);
        self.obs.gauge_set("runtime.workers", self.workers as u64);
        out.into_iter()
            .map(|r| match r {
                Some(r) => r,
                // Every chunk index was dealt to a deque and every deque
                // drained before the scope joined.
                None => unreachable!("every chunk completed"),
            })
            .collect()
    }

    /// Like [`Runtime::par_chunks`], but cuts chunks **even with one
    /// worker**, running them inline in input order. For callers whose
    /// per-chunk structure is itself an optimization — e.g. hierarchical
    /// dedup, where building small per-chunk sets and merging once beats
    /// probing one giant hash set per candidate — so the win ships at any
    /// worker count and threads only add on top.
    pub fn chunked<T, R, F>(&self, items: &[T], min_chunk: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let min_chunk = min_chunk.max(1);
        if self.workers > 1 && n > min_chunk {
            return self.par_chunks(items, min_chunk, f);
        }
        // Same chunk geometry a single worker's deque would see.
        let chunks = n.div_ceil(min_chunk).clamp(1, CHUNKS_PER_WORKER);
        let chunk_len = n.div_ceil(chunks);
        (0..n)
            .step_by(chunk_len)
            .map(|s| f(s, &items[s..(s + chunk_len).min(n)]))
            .collect()
    }

    /// Maps every item through `f` (called with the item's index),
    /// returning results in item order. Meant for coarse units — solution
    /// graphs, constraint triggers — where per-item work dwarfs task
    /// overhead.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        if self.workers <= 1 || items.len() <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        self.par_chunks(items, 1, |offset, chunk| {
            chunk
                .iter()
                .enumerate()
                .map(|(k, t)| f(offset + k, t))
                .collect::<Vec<R>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// [`Runtime::par_map`] with exclusive mutable access to each item:
    /// callers move each unit's mutable state (e.g. one `EvalCache` per
    /// solution graph) into the slice, workers mutate their claimed unit
    /// freely, and the caller takes the state back after this barrier. Each item is claimed exactly once, so
    /// the per-item mutex is uncontended by construction.
    pub fn par_map_mut<T, R, F>(&self, items: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut T) -> R + Sync,
    {
        if self.workers <= 1 || items.len() <= 1 {
            return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let cells: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
        let indices: Vec<usize> = (0..cells.len()).collect();
        self.par_map(&indices, |_, &i| {
            // Claimed exactly once, so never contended — and a panic
            // elsewhere already propagates through the join above.
            let mut guard = cells[i].lock().unwrap_or_else(PoisonError::into_inner);
            f(i, &mut guard)
        })
    }
}

impl Default for Runtime {
    fn default() -> Runtime {
        Runtime::auto()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
        assert!(!Runtime::sequential().is_parallel());
        assert_eq!(Runtime::with_workers(0).workers(), 1);
        assert_eq!(
            Runtime::with_workers(7).workers(),
            7,
            "with_workers skips the clamp for determinism tests"
        );
    }

    #[test]
    fn par_map_preserves_order() {
        for workers in [1, 2, 4, 7] {
            let rt = Runtime::with_workers(workers);
            let items: Vec<usize> = (0..103).collect();
            let out = rt.par_map(&items, |i, &x| {
                assert_eq!(i, x);
                x * 2
            });
            assert_eq!(out, (0..103).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_chunks_cover_everything_in_order() {
        for workers in [1, 2, 4] {
            let rt = Runtime::with_workers(workers);
            let items: Vec<u64> = (0..1000).collect();
            let chunks = rt.par_chunks(&items, 64, |offset, chunk| {
                assert_eq!(chunk[0], offset as u64);
                chunk.to_vec()
            });
            let flat: Vec<u64> = chunks.into_iter().flatten().collect();
            assert_eq!(flat, items, "workers={workers}");
        }
    }

    #[test]
    fn par_chunks_sequential_below_threshold() {
        let rt = Runtime::with_workers(4);
        let items: Vec<u64> = (0..10).collect();
        let calls = AtomicUsize::new(0);
        let out = rt.par_chunks(&items, 64, |_, chunk| {
            calls.fetch_add(1, Ordering::Relaxed);
            chunk.len()
        });
        assert_eq!(out, vec![10], "one inline call below the granularity");
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn par_map_mut_gives_exclusive_access() {
        let rt = Runtime::with_workers(4);
        let mut items: Vec<Vec<usize>> = (0..32).map(|i| vec![i]).collect();
        let lens = rt.par_map_mut(&mut items, |i, v| {
            v.push(i * 10);
            v.len()
        });
        assert!(lens.iter().all(|&l| l == 2));
        for (i, v) in items.iter().enumerate() {
            assert_eq!(v, &vec![i, i * 10], "scratch mutation survives the barrier");
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let rt = Runtime::with_workers(4);
        let none: Vec<u8> = Vec::new();
        assert!(rt.par_map(&none, |_, &b| b).is_empty());
        assert!(rt.par_chunks(&none, 8, |_, c: &[u8]| c.len()).is_empty());
    }

    #[test]
    // The original payload is rethrown (`resume_unwind`), not wrapped.
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let rt = Runtime::with_workers(2);
        let items: Vec<usize> = (0..100).collect();
        rt.par_chunks(&items, 1, |_, chunk| {
            if chunk.contains(&57) {
                panic!("boom");
            }
            chunk.len()
        });
    }

    #[test]
    fn scheduler_tallies_land_in_the_registry() {
        let obs = Obs::enabled();
        let rt = Runtime::with_workers(4).with_obs(obs.clone());
        let items: Vec<u64> = (0..1000).collect();
        let chunks = rt.par_chunks(&items, 8, |_, c| c.len());
        let executed: usize = chunks.iter().sum();
        assert_eq!(executed, 1000);
        let reg = obs.registry().unwrap();
        assert_eq!(reg.counter("runtime.tasks"), chunks.len() as u64);
        assert_eq!(reg.counter("runtime.par_scopes"), 1);
        assert_eq!(reg.gauge("runtime.workers"), Some(4));
        // Steals are schedule-dependent; only their presence is pinned.
        assert!(reg.counter("runtime.steals") <= reg.counter("runtime.tasks"));
    }

    #[test]
    fn disabled_obs_changes_nothing() {
        let rt = Runtime::with_workers(3);
        assert!(!rt.obs().is_enabled());
        let items: Vec<u64> = (0..100).collect();
        let out: usize = rt.par_chunks(&items, 4, |_, c| c.len()).iter().sum();
        assert_eq!(out, 100);
    }

    #[test]
    fn results_identical_across_worker_counts() {
        // The determinism contract at the runtime level: reassembly by
        // input position, independent of schedule.
        let items: Vec<u64> = (0..5000u64).map(|x| x.wrapping_mul(0x9e3779b9)).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x ^ (x >> 7)).collect();
        for workers in [1, 2, 3, 8] {
            let rt = Runtime::with_workers(workers);
            let got: Vec<u64> = rt
                .par_chunks(&items, 128, |_, c| {
                    c.iter().map(|&x| x ^ (x >> 7)).collect::<Vec<_>>()
                })
                .into_iter()
                .flatten()
                .collect();
            assert_eq!(got, expect, "workers={workers}");
        }
    }
}
