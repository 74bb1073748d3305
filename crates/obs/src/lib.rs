//! # ldp-obs
//!
//! The observability plane: a std-only metrics registry and structured
//! trace ring for the collection daemon, hand-rolled on atomics (the
//! workspace is hermetic — no `tracing`, no `prometheus`).
//!
//! ## Hot-path discipline
//!
//! Everything a daemon hot path touches is a pre-registered
//! [`AtomicU64`] cell behind an `Arc` handle: incrementing a
//! [`Counter`], moving a [`Gauge`], or observing into a [`Histogram`]
//! is one (or two) `Relaxed` read-modify-writes — **zero allocation,
//! zero locks, zero fences**. Registration happens once, at daemon or
//! round construction ([`Registry::counter`] and friends return the
//! shared handle); the registry itself is only walked on the cold
//! scrape path ([`Registry::snapshot`] / [`Registry::render_text`]).
//! `ldp-lint`'s `hot-path-ordering` rule mechanically enforces the
//! relaxed-only discipline inside marked fold regions.
//!
//! ## Determinism carve-out
//!
//! This crate is deliberately **outside the determinism domain** that
//! DESIGN.md §3 pins for the modelled crates: trace events carry real
//! monotonic timestamps ([`ring::TraceRing`] stamps microseconds since
//! ring construction), and scrape output depends on wall-clock
//! interleaving. Nothing here feeds a modelled value — metrics observe
//! the system, they never steer it — which is why `ldp-lint`'s
//! `wall-clock` rule scopes `crates/obs/src/` out (see DESIGN.md §10).
//!
//! ## Snapshot semantics
//!
//! Snapshots read each cell with `Relaxed` loads and make no attempt at
//! a cross-cell atomic cut: counters are monotone, so a snapshot taken
//! during ingest is a valid lower bound, and one taken after a `SYNC` /
//! `CLOSE` barrier is exact (the collector's chaos suite pins that
//! reconciliation).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ring;

pub use ring::{TraceEvent, TraceRecord, TraceRing};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of log₂ buckets a [`Histogram`] keeps: bucket `i` counts
/// values whose bit length is `i` (so bucket 0 is exactly `v == 0`, and
/// bucket `i ≥ 1` covers `2^(i-1) ..= 2^i - 1`); 64-bit values need 65.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotone event counter: one relaxed `fetch_add` per tick.
#[derive(Debug, Default)]
pub struct Counter {
    cell: AtomicU64,
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `n`, returning the **previous** value — the return value is
    /// what lets a hot path sample every k-th event without a second
    /// atomic (`if m.probe.add(1) & 63 == 0 { … }`).
    #[inline]
    pub fn add(&self, n: u64) -> u64 {
        self.cell.fetch_add(n, Ordering::Relaxed)
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) -> u64 {
        self.add(1)
    }

    /// Current value (relaxed load).
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value (queue depth, bytes in use).
#[derive(Debug, Default)]
pub struct Gauge {
    cell: AtomicU64,
}

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Moves the gauge up by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Moves the gauge down by `n` (callers keep add/sub balanced; a
    /// transient underflow would wrap, so paired sites must match).
    #[inline]
    pub fn sub(&self, n: u64) {
        self.cell.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value (relaxed load).
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A log₂-bucketed histogram: fixed storage, no allocation, one bucket
/// increment plus count/sum updates per observation — all `Relaxed`.
///
/// The bucketing is deliberately coarse (powers of two): latencies and
/// queue depths in this system span orders of magnitude, and the scrape
/// side wants a stable, bounded wire encoding rather than quantile
/// sketches.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// A fresh histogram with every bucket at zero.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        let idx = (u64::BITS - v.leading_zeros()) as usize;
        if let Some(bucket) = self.buckets.get(idx) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Relaxed snapshot: `(sum, buckets)` with trailing zero buckets
    /// trimmed (the wire encoding ships only occupied prefixes).
    pub fn snapshot(&self) -> (u64, Vec<u64>) {
        let mut buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        (self.sum(), buckets)
    }
}

/// One metric's value in a [`Registry::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SampleValue {
    /// Monotone counter value.
    Counter(u64),
    /// Instantaneous gauge value.
    Gauge(u64),
    /// Histogram: sum of observations plus the log₂ bucket counts
    /// (index = bit length of the observed value, trailing zeros
    /// trimmed).
    Histogram {
        /// Sum of every observed value.
        sum: u64,
        /// Per-bucket observation counts.
        buckets: Vec<u64>,
    },
}

/// One named metric in a [`Registry::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// The name the metric was registered under.
    pub name: String,
    /// Its value at snapshot time.
    pub value: SampleValue,
}

/// A registered metric handle (what the registry walks at scrape time).
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// The pre-registration surface: metrics are created by name **once**,
/// at construction time, and the returned `Arc` handles are what hot
/// paths hold. After construction the registry is immutable, so
/// snapshotting and rendering never race a registration.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Vec<(String, Metric)>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers a counter under `name` and returns its shared handle.
    pub fn counter(&mut self, name: impl Into<String>) -> Arc<Counter> {
        let c = Arc::new(Counter::new());
        self.entries.push((name.into(), Metric::Counter(c.clone())));
        c
    }

    /// Registers a gauge under `name` and returns its shared handle.
    pub fn gauge(&mut self, name: impl Into<String>) -> Arc<Gauge> {
        let g = Arc::new(Gauge::new());
        self.entries.push((name.into(), Metric::Gauge(g.clone())));
        g
    }

    /// Registers a histogram under `name` and returns its shared handle.
    pub fn histogram(&mut self, name: impl Into<String>) -> Arc<Histogram> {
        let h = Arc::new(Histogram::new());
        self.entries
            .push((name.into(), Metric::Histogram(h.clone())));
        h
    }

    /// Registered metric count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Relaxed point-in-time snapshot of every registered metric, in
    /// registration order.
    pub fn snapshot(&self) -> Vec<Sample> {
        self.entries
            .iter()
            .map(|(name, metric)| Sample {
                name: name.clone(),
                value: match metric {
                    Metric::Counter(c) => SampleValue::Counter(c.get()),
                    Metric::Gauge(g) => SampleValue::Gauge(g.get()),
                    Metric::Histogram(h) => {
                        let (sum, buckets) = h.snapshot();
                        SampleValue::Histogram { sum, buckets }
                    }
                },
            })
            .collect()
    }

    /// Renders the registry as Prometheus-style text exposition lines
    /// (`# TYPE` comments, cumulative `_bucket{le="…"}` series with a
    /// `+Inf` terminator, `_sum`/`_count` companions). Histograms label
    /// bucket `i` with its inclusive upper bound `2^i − 1`.
    pub fn render_text(&self) -> String {
        render_samples(&self.snapshot())
    }
}

/// Renders a snapshot as Prometheus-style text lines; the formatter
/// behind [`Registry::render_text`].
fn render_samples(samples: &[Sample]) -> String {
    let mut out = String::new();
    for s in samples {
        match &s.value {
            SampleValue::Counter(v) => {
                out.push_str(&format!("# TYPE {} counter\n{} {}\n", s.name, s.name, v));
            }
            SampleValue::Gauge(v) => {
                out.push_str(&format!("# TYPE {} gauge\n{} {}\n", s.name, s.name, v));
            }
            SampleValue::Histogram { sum, buckets } => {
                out.push_str(&format!("# TYPE {} histogram\n", s.name));
                let mut cumulative = 0u64;
                for (i, b) in buckets.iter().enumerate() {
                    cumulative = cumulative.wrapping_add(*b);
                    if *b == 0 {
                        continue;
                    }
                    let le = if i == 0 {
                        0
                    } else if i >= 64 {
                        u64::MAX
                    } else {
                        (1u64 << i) - 1
                    };
                    out.push_str(&format!(
                        "{}_bucket{{le=\"{}\"}} {}\n",
                        s.name, le, cumulative
                    ));
                }
                out.push_str(&format!(
                    "{}_bucket{{le=\"+Inf\"}} {}\n{}_sum {}\n{}_count {}\n",
                    s.name, cumulative, s.name, sum, s.name, cumulative
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_are_exact_under_contention() {
        let mut reg = Registry::new();
        let c = reg.counter("hits");
        let g = reg.gauge("depth");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = c.clone();
                let g = g.clone();
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        c.incr();
                        g.add(2);
                        g.sub(1);
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
        assert_eq!(g.get(), 80_000);
        let snap = reg.snapshot();
        assert_eq!(snap[0].value, SampleValue::Counter(80_000));
        assert_eq!(snap[1].value, SampleValue::Gauge(80_000));
    }

    #[test]
    fn counter_add_returns_prior_for_sampling() {
        let c = Counter::new();
        assert_eq!(c.add(1), 0);
        assert_eq!(c.add(5), 1);
        assert_eq!(c.get(), 6);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let h = Histogram::new();
        h.observe(0); // bucket 0
        h.observe(1); // bucket 1
        h.observe(2); // bucket 2
        h.observe(3); // bucket 2
        h.observe(1024); // bucket 11
        h.observe(u64::MAX); // bucket 64
        let (sum, buckets) = h.snapshot();
        assert_eq!(
            sum,
            0u64.wrapping_add(1 + 2 + 3 + 1024).wrapping_add(u64::MAX)
        );
        assert_eq!(buckets.len(), HISTOGRAM_BUCKETS); // MAX occupies the last
        assert_eq!(buckets[0], 1);
        assert_eq!(buckets[1], 1);
        assert_eq!(buckets[2], 2);
        assert_eq!(buckets[11], 1);
        assert_eq!(buckets[64], 1);
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn histogram_snapshot_trims_trailing_zero_buckets() {
        let h = Histogram::new();
        h.observe(5); // bucket 3
        let (_, buckets) = h.snapshot();
        assert_eq!(buckets, vec![0, 0, 0, 1]);
    }

    #[test]
    fn render_text_is_prometheus_shaped() {
        let mut reg = Registry::new();
        let c = reg.counter("ingest_reports_folded");
        let g = reg.gauge("worker_queue_depth");
        let h = reg.histogram("fold_nanos");
        c.add(42);
        g.set(3);
        h.observe(0);
        h.observe(100); // bucket 7, le = 127
        let text = reg.render_text();
        assert!(text.contains("# TYPE ingest_reports_folded counter\n"));
        assert!(text.contains("ingest_reports_folded 42\n"));
        assert!(text.contains("worker_queue_depth 3\n"));
        assert!(text.contains("fold_nanos_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("fold_nanos_bucket{le=\"127\"} 2\n"));
        assert!(text.contains("fold_nanos_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("fold_nanos_sum 100\n"));
        assert!(text.contains("fold_nanos_count 2\n"));
    }
}
