//! Schedule stress: thousands of small parallel regions at 2–8 forced
//! workers, so that workers run dry *together* over and over — the
//! moment at which a worker that still held its own deque's lock while
//! stealing from a neighbour would deadlock against that neighbour.
//!
//! Every region runs under a watchdog: a stalled run fails the test with
//! a message instead of hanging the suite.

use gdx_runtime::Runtime;
use std::sync::mpsc;
use std::time::Duration;

/// Rounds per worker count. Small inputs with tiny chunks keep each round
/// short and make the end-of-work steal race as frequent as possible.
const ROUNDS: usize = 2500;

/// How long one worker count's rounds may take before the run counts as
/// stalled. Generous: a healthy run finishes in well under a second.
const WATCHDOG: Duration = Duration::from_secs(30);

/// Runs `body` on a fresh thread and fails the test if it does not
/// finish within [`WATCHDOG`]. A stalled thread is left behind (it cannot
/// be cancelled); the test binary's exit reclaims it.
fn under_watchdog(what: &str, body: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = mpsc::channel();
    #[expect(
        clippy::disallowed_methods,
        reason = "the watchdog must outlive a stalled pool, so the body gets a thread of its own"
    )]
    let worker = std::thread::spawn(move || {
        body();
        // The receiver may be gone if the watchdog already fired.
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(WATCHDOG) {
        Ok(()) => {
            if let Err(payload) = worker.join() {
                std::panic::resume_unwind(payload);
            }
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            // The body panicked before signalling: surface its payload.
            if let Err(payload) = worker.join() {
                std::panic::resume_unwind(payload);
            }
            panic!("{what}: worker thread exited without finishing");
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{what}: no progress within {WATCHDOG:?} — the runtime stalled")
        }
    }
}

#[test]
fn par_chunks_never_stalls() {
    for workers in 2..=8 {
        under_watchdog(&format!("par_chunks at {workers} workers"), move || {
            let rt = Runtime::with_workers(workers);
            let items: Vec<u64> = (0..64).collect();
            let expect: u64 = items.iter().sum();
            for round in 0..ROUNDS {
                let sums = rt.par_chunks(&items, 1, |_, chunk| chunk.iter().sum::<u64>());
                assert_eq!(
                    sums.iter().sum::<u64>(),
                    expect,
                    "round {round} at {workers} workers"
                );
            }
        });
    }
}

#[test]
fn par_map_mut_never_stalls() {
    for workers in 2..=8 {
        under_watchdog(&format!("par_map_mut at {workers} workers"), move || {
            let rt = Runtime::with_workers(workers);
            let mut units: Vec<u64> = vec![0; 24];
            for round in 0..ROUNDS {
                let seen = rt.par_map_mut(&mut units, |i, unit| {
                    *unit += 1;
                    i
                });
                assert_eq!(
                    seen,
                    (0..units.len()).collect::<Vec<_>>(),
                    "round {round} at {workers} workers"
                );
            }
            assert!(units.iter().all(|&u| u == ROUNDS as u64));
        });
    }
}
