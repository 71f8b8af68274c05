//! Injected time sources.
//!
//! Library crates in this workspace are forbidden from reading the wall
//! clock directly (`clippy::disallowed_methods` on `Instant::now` and
//! `MonotonicClock::new`, configured in the workspace's `clippy.toml`):
//! time is a capability that callers *inject*, so every engine result
//! stays a pure function of its inputs. This module is the single
//! carve-out — the one place allowed to touch [`std::time::Instant`] —
//! and it exports three interchangeable sources:
//!
//! * [`NoopClock`] — always `0`. The default everywhere; also what the
//!   CLI uses so `--metrics` dumps are byte-stable across runs.
//! * [`MonotonicClock`] — real elapsed time, for the server's process
//!   edge and other leaf binaries that genuinely measure wall-clock.
//! * [`VirtualClock`] — a manually-advanced counter for `gdx-sim` and
//!   tests, so simulated time is deterministic and replayable.
//!
//! Everything downstream consumes `&dyn Clock` (usually via
//! [`crate::Obs`]) and cannot tell the sources apart — which is exactly
//! the point: swapping the clock must never change engine output, only
//! the timestamps attached to it.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic time source measured in microseconds since an arbitrary
/// per-source origin. Implementations must be cheap, thread-safe and
/// monotonic non-decreasing; absolute values are meaningless across
/// sources.
pub trait Clock: fmt::Debug + Send + Sync {
    /// Microseconds elapsed since this clock's origin.
    fn now_micros(&self) -> u64;
}

/// The do-nothing clock: always reports `0`. Timing instruments become
/// inert (durations collapse to zero) while counters and structural
/// histograms keep working — the right default for library code and
/// for any output that must be byte-stable.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopClock;

impl Clock for NoopClock {
    fn now_micros(&self) -> u64 {
        0
    }
}

/// Real elapsed time from [`Instant`], anchored at construction. Only
/// leaf binaries (cli, the server's process edge) should construct one; library crates
/// accept whatever the caller injected.
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A monotonic clock whose origin is "now".
    #[expect(
        clippy::disallowed_methods,
        reason = "the one wall-clock read: this clock is what entry points inject"
    )]
    pub fn new() -> MonotonicClock {
        MonotonicClock {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    #[expect(
        clippy::disallowed_methods,
        reason = "the default real clock is still the real clock: the caller chose it"
    )]
    fn default() -> MonotonicClock {
        MonotonicClock::new()
    }
}

impl Clock for MonotonicClock {
    fn now_micros(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

/// A deterministic, manually-driven clock for simulation and tests:
/// reads return the current virtual time, [`VirtualClock::advance`]
/// moves it forward. Shared freely across threads; advancing is atomic.
#[derive(Debug, Default)]
pub struct VirtualClock {
    micros: AtomicU64,
}

impl VirtualClock {
    /// A virtual clock starting at `0`.
    pub fn new() -> VirtualClock {
        VirtualClock::default()
    }

    /// A virtual clock starting at `micros`.
    pub fn starting_at(micros: u64) -> VirtualClock {
        VirtualClock {
            micros: AtomicU64::new(micros),
        }
    }

    /// Advance virtual time by `delta` microseconds.
    pub fn advance(&self, delta: u64) {
        self.micros.fetch_add(delta, Ordering::Relaxed);
    }
}

impl Clock for VirtualClock {
    fn now_micros(&self) -> u64 {
        self.micros.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_frozen_at_zero() {
        let c = NoopClock;
        assert_eq!(c.now_micros(), 0);
        assert_eq!(c.now_micros(), 0);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test exercises the real clock"
    )]
    fn monotonic_never_goes_backwards() {
        let c = MonotonicClock::new();
        let a = c.now_micros();
        let b = c.now_micros();
        assert!(b >= a);
    }

    #[test]
    fn virtual_advances_on_demand_only() {
        let c = VirtualClock::starting_at(10);
        assert_eq!(c.now_micros(), 10);
        c.advance(5);
        assert_eq!(c.now_micros(), 15);
        assert_eq!(c.now_micros(), 15);
    }
}
