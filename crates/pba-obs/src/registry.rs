//! The metrics registry: named metric interning and cheap shared handles.
//!
//! The registry's lock guards only *interning* (name → handle) and
//! *snapshotting*; every handle operation — `inc`, `add`, `set`, `record` —
//! is a relaxed atomic on shared state the handle `Arc`s directly. Hot paths
//! therefore resolve their handles once (at engine construction) and never
//! see the lock again, and the **disabled fast path** is simply "no handles
//! resolved": an engine whose metrics option is `None` executes zero metric
//! instructions.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::histogram::{Histogram, HistogramSummary};

/// A monotone event counter. Cloning shares the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A free-standing counter (not attached to any registry) — handy for
    /// tests and for code that counts before a registry exists.
    pub fn detached() -> Self {
        Self::default()
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if n > 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value `f64` gauge (stored as bits in an atomic).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A shared histogram handle (see [`Histogram`]).
pub type HistogramHandle = Arc<Histogram>;

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, HistogramHandle>,
}

/// The metrics registry: interns metrics by name, hands out cloneable
/// handles, snapshots everything on demand. See the
/// [module docs](self) for the locking model.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        // A poisoned registry lock would mean a panic *inside* interning or
        // snapshotting (pure map operations); the data is still consistent,
        // so recover rather than cascade the panic into metrics callers.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The counter named `name` (created at 0 on first use).
    pub fn counter(&self, name: &str) -> Counter {
        debug_assert!(!name.is_empty(), "metric names must be non-empty");
        self.lock()
            .counters
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The gauge named `name` (created at 0.0 on first use).
    pub fn gauge(&self, name: &str) -> Gauge {
        self.lock()
            .gauges
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The histogram named `name` (created empty on first use).
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        self.lock()
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new()))
            .clone()
    }

    /// A point-in-time copy of every registered metric. Counters read
    /// relaxed, so a snapshot taken under live traffic may straddle in-flight
    /// events; at quiescence it is exact.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.summary()))
                .collect(),
        }
    }
}

/// A point-in-time copy of a registry's metrics, in deterministic (sorted)
/// name order — what reports print and tests assert on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl MetricsSnapshot {
    /// The value of counter `name` (0 when absent — an absent counter has
    /// simply never been touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The value of gauge `name` (0.0 when absent).
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// The histogram summary of `name`, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.get(name)
    }

    /// Sum of every counter whose name starts with `prefix` — e.g.
    /// `sum_counters("drop.")` totals the rejection/fallback family.
    pub fn sum_counters(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, &v)| v)
            .sum()
    }

    /// Renders the snapshot as one aligned text line per metric.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&format!("counter {name} = {value}\n"));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!("gauge   {name} = {value:.3}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "hist    {name} = count {} p50 {} p90 {} p99 {} max {}\n",
                h.count, h.p50, h.p90, h.p99, h.max
            ));
        }
        out
    }

    /// Renders the snapshot as one compact JSON object, fit for one line of
    /// a JSON-lines log. Hand-rolled — metric names are plain identifiers, but quotes
    /// and backslashes are escaped anyway.
    pub fn render_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let mut parts = Vec::new();
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("\"{}\":{v}", esc(k)))
            .collect();
        parts.push(format!("\"counters\":{{{}}}", counters.join(",")));
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .map(|(k, v)| format!("\"{}\":{v}", esc(k)))
            .collect();
        parts.push(format!("\"gauges\":{{{}}}", gauges.join(",")));
        let hists: Vec<String> = self
            .histograms
            .iter()
            .map(|(k, h)| {
                format!(
                    "\"{}\":{{\"count\":{},\"mean\":{:.1},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
                    esc(k),
                    h.count,
                    h.mean,
                    h.p50,
                    h.p90,
                    h.p99,
                    h.max
                )
            })
            .collect();
        parts.push(format!("\"histograms\":{{{}}}", hists.join(",")));
        format!("{{{}}}", parts.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state_with_the_registry() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("demo.hits");
        let b = reg.counter("demo.hits");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("demo.hits").get(), 3);
        let g = reg.gauge("demo.gap");
        g.set(1.5);
        assert_eq!(reg.gauge("demo.gap").get(), 1.5);
        let h = reg.histogram("demo.lat");
        h.record(100);
        assert_eq!(reg.histogram("demo.lat").count(), 1);
    }

    #[test]
    fn snapshot_is_deterministic_and_queryable() {
        let reg = MetricsRegistry::new();
        reg.counter("b.second").add(2);
        reg.counter("a.first").inc();
        reg.counter("drop.x").add(3);
        reg.counter("drop.y").add(4);
        reg.gauge("gap").set(0.5);
        reg.histogram("lat").record(7);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a.first"), 1);
        assert_eq!(snap.counter("absent"), 0);
        assert_eq!(snap.sum_counters("drop."), 7);
        assert_eq!(snap.gauge("gap"), 0.5);
        assert_eq!(snap.histogram("lat").unwrap().count, 1);
        let names: Vec<&String> = snap.counters.keys().collect();
        assert_eq!(names, vec!["a.first", "b.second", "drop.x", "drop.y"]);
        let text = snap.render_text();
        assert!(text.contains("counter a.first = 1"));
        assert!(text.contains("hist    lat"));
        let json = snap.render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"a.first\":1"));
        assert!(json.contains("\"count\":1"));
    }

    #[test]
    fn concurrent_increments_are_lossless() {
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let reg = std::sync::Arc::clone(&reg);
                scope.spawn(move || {
                    let c = reg.counter("hot");
                    for _ in 0..50_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(reg.counter("hot").get(), 200_000);
    }

    #[test]
    fn detached_handles_work_without_a_registry() {
        let c = Counter::detached();
        c.inc();
        assert_eq!(c.get(), 1);
    }
}
