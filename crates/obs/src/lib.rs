//! `gdx-obs` — zero-dependency observability for the gdx engine.
//!
//! One shared handle, [`Obs`], bundles the three facilities every layer
//! needs:
//!
//! * a deterministic metrics [`Registry`] (counters / gauges /
//!   fixed-bucket histograms with stable sorted text+JSON rendering),
//! * a bounded-ring span [`Tracer`] (enter/exit events with structured
//!   fields),
//! * an injected [`Clock`] (monotonic for leaf binaries, noop/virtual
//!   for libraries and simulation — library crates never read
//!   `Instant` directly; see [`clock`]).
//!
//! The handle is an `Option<Arc<..>>` in a trenchcoat: a disabled
//! handle ([`Obs::disabled`], also `Default`) is a single `None` word,
//! every recording method early-returns without allocating or locking,
//! and cloning it is free. Enabling observability therefore cannot
//! perturb engine output — the instrumented crates record *about* their
//! work at coarse batch boundaries, never *during* per-row inner loops,
//! and all control flow is identical either way. The workspace's
//! byte-identical determinism contracts (`parallel_determinism.rs`, the
//! sim oracles) run with recording on to pin exactly that.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod clock;
pub mod registry;
pub mod span;

pub use clock::{Clock, MonotonicClock, NoopClock, VirtualClock};
pub use registry::{Histogram, Registry, Snapshot, DEFAULT_BOUNDS};
pub use span::{TraceEvent, TraceKind, Tracer, DEFAULT_TRACE_CAPACITY};

use std::sync::Arc;

#[derive(Debug)]
struct ObsCore {
    registry: Registry,
    tracer: Tracer,
    clock: Arc<dyn Clock>,
}

/// The shared observability handle threaded through engines.
///
/// Cheap to clone (an `Option<Arc>`), disabled by default, and safe to
/// hand to any thread. All recording methods are no-ops on a disabled
/// handle — no allocation, no locking, no branching beyond one
/// `Option` check — which the root `alloc_count` test pins.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    core: Option<Arc<ObsCore>>,
}

impl Obs {
    /// The inert handle: records nothing, costs nothing. Same as
    /// `Obs::default()`.
    pub fn disabled() -> Obs {
        Obs { core: None }
    }

    /// An enabled handle with a [`NoopClock`] (all timestamps are 0 —
    /// counters and structural histograms still record). This is what
    /// the CLI uses so `--metrics` output is byte-stable.
    pub fn enabled() -> Obs {
        Obs::with_clock(Arc::new(NoopClock))
    }

    /// An enabled handle reading time from `clock`.
    pub fn with_clock(clock: Arc<dyn Clock>) -> Obs {
        Obs::with_clock_and_trace_capacity(clock, DEFAULT_TRACE_CAPACITY)
    }

    /// An enabled handle with an explicit trace-ring capacity.
    pub fn with_clock_and_trace_capacity(clock: Arc<dyn Clock>, capacity: usize) -> Obs {
        Obs {
            core: Some(Arc::new(ObsCore {
                registry: Registry::new(),
                tracer: Tracer::with_capacity(capacity),
                clock,
            })),
        }
    }

    /// Whether this handle records anything at all.
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// The registry behind an enabled handle.
    pub fn registry(&self) -> Option<&Registry> {
        self.core.as_deref().map(|c| &c.registry)
    }

    /// The tracer behind an enabled handle.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.core.as_deref().map(|c| &c.tracer)
    }

    /// Current time from the injected clock (0 when disabled).
    pub fn now_micros(&self) -> u64 {
        match &self.core {
            Some(c) => c.clock.now_micros(),
            None => 0,
        }
    }

    /// Add `delta` to counter `name`.
    pub fn add(&self, name: &'static str, delta: u64) {
        if let Some(c) = &self.core {
            c.registry.add(name, delta);
        }
    }

    /// Add 1 to counter `name`.
    pub fn incr(&self, name: &'static str) {
        self.add(name, 1);
    }

    /// Set gauge `name` to `value`.
    pub fn gauge_set(&self, name: &'static str, value: u64) {
        if let Some(c) = &self.core {
            c.registry.gauge_set(name, value);
        }
    }

    /// Record `value` into histogram `name`.
    pub fn observe(&self, name: &'static str, value: u64) {
        if let Some(c) = &self.core {
            c.registry.observe(name, value);
        }
    }

    /// Record a point event with structured fields. The field slice is
    /// only copied when the handle is enabled.
    pub fn event(&self, name: &'static str, fields: &[(&'static str, u64)]) {
        if let Some(c) = &self.core {
            c.tracer.record(
                TraceKind::Point,
                name,
                c.clock.now_micros(),
                fields.to_vec(),
            );
        }
    }

    /// Enter a named span; the returned guard records the exit event on
    /// drop. On a disabled handle this is a no-op returning an inert
    /// guard.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.span_fields(name, &[])
    }

    /// [`Obs::span`] with structured fields on the enter event.
    pub fn span_fields(&self, name: &'static str, fields: &[(&'static str, u64)]) -> SpanGuard {
        if let Some(c) = &self.core {
            c.tracer.record(
                TraceKind::Enter,
                name,
                c.clock.now_micros(),
                fields.to_vec(),
            );
            SpanGuard {
                core: Some((Arc::clone(c), name)),
            }
        } else {
            SpanGuard { core: None }
        }
    }

    /// Stable text dump of the registry (empty when disabled).
    pub fn render_metrics_text(&self) -> String {
        self.registry()
            .map(Registry::render_text)
            .unwrap_or_default()
    }

    /// Stable JSON dump of the registry (empty when disabled).
    pub fn render_metrics_json(&self) -> String {
        self.registry()
            .map(Registry::render_json)
            .unwrap_or_default()
    }

    /// Stable text dump of the most recent `n` trace events (empty
    /// when disabled).
    pub fn render_trace(&self, n: usize) -> String {
        self.tracer().map(|t| t.render_tail(n)).unwrap_or_default()
    }
}

/// RAII guard produced by [`Obs::span`]: records the matching exit
/// event when dropped. Inert (and allocation-free) when the handle was
/// disabled.
#[derive(Debug)]
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    core: Option<(Arc<ObsCore>, &'static str)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((c, name)) = self.core.take() {
            c.tracer
                .record(TraceKind::Exit, name, c.clock.now_micros(), Vec::new());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let obs = Obs::disabled();
        obs.incr("c");
        obs.observe("h", 5);
        obs.gauge_set("g", 1);
        obs.event("e", &[("k", 1)]);
        drop(obs.span("s"));
        assert!(!obs.is_enabled());
        assert!(obs.registry().is_none());
        assert_eq!(obs.render_metrics_text(), "");
        assert_eq!(obs.render_trace(10), "");
    }

    #[test]
    fn enabled_handle_records_and_clones_share_state() {
        let obs = Obs::enabled();
        let clone = obs.clone();
        clone.incr("chase.turns");
        obs.add("chase.turns", 2);
        assert_eq!(obs.registry().unwrap().counter("chase.turns"), 3);
    }

    #[test]
    fn span_guard_writes_enter_and_exit() {
        let obs = Obs::enabled();
        {
            let _g = obs.span_fields("phase.chase", &[("round", 2)]);
            obs.event("mid", &[]);
        }
        let trace = obs.render_trace(10);
        assert!(trace.contains("enter phase.chase round=2"), "{trace}");
        assert!(trace.contains("event mid"), "{trace}");
        assert!(trace.contains("exit phase.chase"), "{trace}");
    }

    #[test]
    fn noop_clock_makes_dumps_byte_stable() {
        let run = || {
            let obs = Obs::enabled();
            let _g = obs.span("s");
            obs.incr("c");
            obs.observe("h", 17);
            drop(_g);
            (obs.render_metrics_json(), obs.render_trace(16))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn virtual_clock_timestamps_events() {
        let clock = Arc::new(VirtualClock::new());
        let obs = Obs::with_clock(clock.clone());
        let g = obs.span("s");
        clock.advance(40);
        drop(g);
        let tail = obs.tracer().unwrap().tail(2);
        assert_eq!(tail[0].at_micros, 0);
        assert_eq!(tail[1].at_micros, 40);
    }
}
