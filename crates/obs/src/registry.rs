//! Lock-light metrics registry: named counters, gauges and fixed-bucket
//! histograms.
//!
//! Registration (name lookup) takes a mutex; callers hold cheap `Arc`
//! handles and every update is a plain atomic operation. Updates are rare
//! (the solver exports once per `solve` exit, the service once per job), so
//! a counter is one shared atomic.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value-wins signed gauge.
#[derive(Clone, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjusts the gauge by `delta`.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram of `f64` observations (typically milliseconds).
pub struct HistogramInner {
    /// Upper bounds of the finite buckets, ascending; an implicit +∞ bucket
    /// follows.
    bounds: Vec<f64>,
    /// One count per finite bucket plus the overflow bucket.
    counts: Vec<AtomicU64>,
    /// Total observations.
    count: AtomicU64,
    /// Sum of observations in nanoseconds (fixed-point so it can live in an
    /// atomic integer).
    sum_ns: AtomicU64,
}

/// Shared handle to a histogram.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

/// Default duration buckets (ms): sub-ms to minutes, roughly ×4 apart.
pub const DEFAULT_MS_BUCKETS: &[f64] = &[
    0.25, 1.0, 4.0, 16.0, 64.0, 250.0, 1_000.0, 4_000.0, 16_000.0, 60_000.0,
];

impl Histogram {
    fn new(bounds: &[f64]) -> Histogram {
        let bounds: Vec<f64> = bounds.to_vec();
        let counts = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            inner: Arc::new(HistogramInner {
                bounds,
                counts,
                count: AtomicU64::new(0),
                sum_ns: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let inner = &self.inner;
        let idx = inner
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(inner.bounds.len());
        inner.counts[idx].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        let ns = (v.max(0.0) * 1e6) as u64;
        inner.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Snapshot of the bucket counts and sum.
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let inner = &self.inner;
        HistogramSnapshot {
            name: name.to_string(),
            bounds: inner.bounds.clone(),
            counts: inner
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            count: inner.count.load(Ordering::Relaxed),
            sum_ms: inner.sum_ns.load(Ordering::Relaxed) as f64 / 1e6,
        }
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// The registry: name → metric. Lookup locks a mutex; updates through the
/// returned handles are lock-free.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created on first use. Cache the handle;
    /// don't call this on a hot path.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().unwrap();
        inner.counters.entry(name.to_string()).or_default().clone()
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock().unwrap();
        inner.gauges.entry(name.to_string()).or_default().clone()
    }

    /// The histogram named `name` with the given finite bucket bounds
    /// (ascending), created on first use — later calls keep the original
    /// bounds.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        let mut inner = self.inner.lock().unwrap();
        inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .clone()
    }

    /// A point-in-time snapshot of every registered metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(n, c)| CounterSnapshot {
                    name: n.clone(),
                    value: c.value(),
                })
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(n, g)| GaugeSnapshot {
                    name: n.clone(),
                    value: g.value(),
                })
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(n, h)| h.snapshot(n))
                .collect(),
        }
    }
}

/// One counter in a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Metric name.
    pub name: String,
    /// Total at snapshot time.
    pub value: u64,
}

/// One gauge in a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: String,
    /// Value at snapshot time.
    pub value: i64,
}

/// One histogram in a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Finite bucket upper bounds, ascending.
    pub bounds: Vec<f64>,
    /// Per-bucket counts; one longer than `bounds` (the overflow bucket).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations (ms, via ns fixed-point).
    pub sum_ms: f64,
}

/// A serializable point-in-time view of a registry (the `metrics` service
/// response and the CLI `--metrics` dump).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The value of the counter named `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The value of the gauge named `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }
}
