//! Deterministic metrics registry.
//!
//! Three instrument kinds — monotonically-increasing **counters**,
//! last-write-wins **gauges**, and fixed-boundary **histograms** — all
//! keyed by `&'static str` names and stored in `BTreeMap`s so every
//! rendering walks the same sorted order. Rendering is hand-rolled
//! text and JSON in the `bench_gate`/`gdx-lint` house style: no
//! serialization dependency, stable field order, nothing that varies
//! run-to-run unless the recorded values themselves do.
//!
//! Histogram bucket boundaries are fixed at construction
//! ([`DEFAULT_BOUNDS`]: powers of four up to ~1M, good for both
//! row-counts and microsecond durations) so two dumps are always
//! bucket-compatible — the property `bench_gate`-style differs rely
//! on.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

/// Default histogram bucket upper bounds (inclusive `le` thresholds):
/// powers of four from 1 to 4^10, plus an implicit overflow bucket.
/// One scale serves both "rows per delta window" and "microseconds per
/// phase" — resolution within 2x is not a goal, stability is.
pub const DEFAULT_BOUNDS: &[u64] = &[
    1, 4, 16, 64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576,
];

/// One histogram: counts per fixed bucket plus summary aggregates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Upper bounds (inclusive) for each bucket in `counts`; an extra
    /// trailing slot in `counts` holds overflow observations.
    pub bounds: &'static [u64],
    /// `bounds.len() + 1` per-bucket observation counts.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values (saturating).
    pub sum: u64,
    /// Smallest observed value (meaningful only when `count > 0`).
    pub min: u64,
    /// Largest observed value.
    pub max: u64,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            bounds: DEFAULT_BOUNDS,
            counts: vec![0; DEFAULT_BOUNDS.len() + 1],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn observe(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] = self.counts[idx].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

/// A thread-safe registry of named instruments. All mutation goes
/// through one mutex — recording is intentionally batched at coarse
/// boundaries (per turn, per run, per request) by the instrumented
/// engines, so lock traffic never lands on a per-row hot path.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

/// An immutable point-in-time copy of a [`Registry`]'s contents,
/// suitable for assertions and for rendering off-lock.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter values, sorted by name.
    pub counters: Vec<(&'static str, u64)>,
    /// Gauge values, sorted by name.
    pub gauges: Vec<(&'static str, u64)>,
    /// Histograms, sorted by name.
    pub histograms: Vec<(&'static str, Histogram)>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Add `delta` to the counter `name` (created at zero on first use).
    pub fn add(&self, name: &'static str, delta: u64) {
        self.lock()
            .counters
            .entry(name)
            .and_modify(|c| *c = c.saturating_add(delta))
            .or_insert(delta);
    }

    /// Set the gauge `name` to `value` (last write wins).
    pub fn gauge_set(&self, name: &'static str, value: u64) {
        self.lock().gauges.insert(name, value);
    }

    /// Record one observation of `value` into the histogram `name`.
    pub fn observe(&self, name: &'static str, value: u64) {
        self.lock()
            .histograms
            .entry(name)
            .or_insert_with(Histogram::new)
            .observe(value);
    }

    /// Current value of the counter `name` (zero when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of the gauge `name`, if ever set.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.lock().gauges.get(name).copied()
    }

    /// A sorted point-in-time copy of everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        let g = self.lock();
        Snapshot {
            counters: g.counters.iter().map(|(&k, &v)| (k, v)).collect(),
            gauges: g.gauges.iter().map(|(&k, &v)| (k, v)).collect(),
            histograms: g.histograms.iter().map(|(&k, v)| (k, v.clone())).collect(),
        }
    }

    /// Stable plain-text rendering: one line per instrument, sorted by
    /// kind then name.
    pub fn render_text(&self) -> String {
        self.snapshot().render_text()
    }

    /// Stable JSON rendering (sorted keys, fixed field order).
    pub fn render_json(&self) -> String {
        self.snapshot().render_json()
    }
}

impl Snapshot {
    /// See [`Registry::render_text`].
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("counter {name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("gauge {name} {v}\n"));
        }
        for (name, h) in &self.histograms {
            let min = if h.count == 0 { 0 } else { h.min };
            out.push_str(&format!(
                "histogram {name} count={} sum={} min={} max={}\n",
                h.count, h.sum, min, h.max
            ));
        }
        out
    }

    /// See [`Registry::render_json`].
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        push_scalar_map(&mut out, &self.counters);
        out.push_str("},\n  \"gauges\": {");
        push_scalar_map(&mut out, &self.gauges);
        out.push_str("},\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let min = if h.count == 0 { 0 } else { h.min };
            out.push_str(&format!(
                "\n    \"{name}\": {{\"count\": {}, \"sum\": {}, \"min\": {min}, \"max\": {}, \"buckets\": [",
                h.count, h.sum, h.max
            ));
            let mut first = true;
            for (idx, &n) in h.counts.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                if !first {
                    out.push_str(", ");
                }
                first = false;
                match h.bounds.get(idx) {
                    Some(le) => out.push_str(&format!("[{le}, {n}]")),
                    None => out.push_str(&format!("[\"inf\", {n}]")),
                }
            }
            out.push_str("]}");
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

fn push_scalar_map(out: &mut String, entries: &[(&'static str, u64)]) {
    for (i, (name, v)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{name}\": {v}"));
    }
    if !entries.is_empty() {
        out.push_str("\n  ");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_render_sorted() {
        let r = Registry::new();
        r.add("z.second", 2);
        r.add("a.first", 1);
        r.add("z.second", 3);
        assert_eq!(r.counter("z.second"), 5);
        assert_eq!(r.counter("missing"), 0);
        let text = r.render_text();
        let a = text.find("a.first").unwrap();
        let z = text.find("z.second").unwrap();
        assert!(a < z, "{text}");
    }

    #[test]
    fn histogram_buckets_are_fixed_and_overflow_is_kept() {
        let r = Registry::new();
        r.observe("h", 1);
        r.observe("h", 5);
        r.observe("h", 2_000_000);
        let snap = r.snapshot();
        let (_, h) = &snap.histograms[0];
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 2_000_000);
        assert_eq!(*h.counts.last().unwrap(), 1, "overflow bucket");
    }

    #[test]
    fn renderings_are_deterministic() {
        let build = || {
            let r = Registry::new();
            r.add("c", 7);
            r.gauge_set("g", 4);
            r.observe("h", 3);
            r.observe("h", 9_999_999);
            (r.render_text(), r.render_json())
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn json_shape_is_stable() {
        let r = Registry::new();
        r.add("chase.firings", 2);
        r.gauge_set("runtime.workers", 4);
        r.observe("w", 3);
        let json = r.render_json();
        assert!(json.contains("\"chase.firings\": 2"), "{json}");
        assert!(json.contains("\"runtime.workers\": 4"), "{json}");
        assert!(json.contains("\"buckets\": [[4, 1]]"), "{json}");
        // Empty registry still renders the three sections.
        let empty = Registry::new().render_json();
        assert!(empty.contains("\"counters\""), "{empty}");
        assert!(empty.contains("\"histograms\""), "{empty}");
    }
}
