//! The lock-cheap metrics registry.
//!
//! A [`Registry`] is a cheaply clonable handle (an `Arc`) to a shared
//! set of named counters, gauges, and histograms. Instruments are
//! registered once under a `&'static str` name — the registration path
//! takes a mutex, but the returned handles are plain atomics, so the
//! hot path (increment a counter, record a latency) never locks.
//!
//! ```
//! use gbooster_telemetry::Registry;
//!
//! let reg = Registry::new();
//! let sent = reg.counter("net.datagrams");
//! sent.add(3);
//! assert_eq!(reg.snapshot().counter("net.datagrams"), 3);
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use gbooster_sim::time::{SimDuration, SimTime};

use crate::hist::{HistogramCore, HistogramSnapshot, WindowedHistogramCore};
use crate::report::TelemetrySnapshot;
use crate::tsdb::{SeriesData, Tsdb};

/// A monotone event counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` events.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one event.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins float gauge (stored as `f64` bits).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A handle to a registered fixed-bucket histogram.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCore>);

impl Default for Histogram {
    fn default() -> Self {
        Self::detached()
    }
}

impl Histogram {
    /// Creates a histogram not tied to any registry (tests, scratch use).
    pub fn detached() -> Self {
        Histogram(Arc::new(HistogramCore::new()))
    }

    /// Records one raw sample.
    pub fn record(&self, v: u64) {
        self.0.record(v);
    }

    /// Records a sim-time duration in microseconds.
    pub fn record_duration(&self, d: SimDuration) {
        self.0.record(d.as_micros());
    }

    /// Records one raw sample carrying a trace-exemplar tag (a frame
    /// seq); the histogram remembers the tag of its worst tagged
    /// sample. See [`crate::hist::HistogramCore::record_tagged`].
    pub fn record_tagged(&self, v: u64, tag: u64) {
        self.0.record_tagged(v, tag);
    }

    /// Records a sim-time duration in microseconds, tagged with the
    /// frame seq that produced it.
    pub fn record_duration_tagged(&self, d: SimDuration, tag: u64) {
        self.0.record_tagged(d.as_micros(), tag);
    }

    /// Takes a point-in-time copy.
    pub fn snapshot(&self) -> crate::hist::HistogramSnapshot {
        self.0.snapshot()
    }
}

/// A handle to a registered sliding-window histogram: a time-slotted
/// ring supporting "distribution over the last N ms" queries, consumed
/// by the SLO burn-rate evaluator ([`crate::slo`]). Recording takes the
/// instrument's own mutex — windowed streams are fed once per presented
/// frame, not per packet, so contention is a non-issue.
#[derive(Clone, Debug)]
pub struct WindowedHistogram(Arc<Mutex<WindowedHistogramCore>>);

impl WindowedHistogram {
    /// Creates a windowed histogram not tied to any registry.
    pub fn detached(slot_width: SimDuration, retain: usize) -> Self {
        WindowedHistogram(Arc::new(Mutex::new(WindowedHistogramCore::new(
            slot_width, retain,
        ))))
    }

    /// Records one sample observed at sim time `at`.
    pub fn record(&self, at: SimTime, v: u64) {
        self.0
            .lock()
            .expect("windowed histogram poisoned")
            .record(at, v);
    }

    /// Merged distribution of the samples in `(now − window, now]`, at
    /// slot granularity.
    pub fn window(&self, now: SimTime, window: SimDuration) -> HistogramSnapshot {
        self.0
            .lock()
            .expect("windowed histogram poisoned")
            .window(now, window)
    }

    /// `(count, count_over(threshold))` over `(now − window, now]`:
    /// the two numbers a burn rate needs, equal to those of
    /// [`WindowedHistogram::window`] but without building the merged
    /// snapshot.
    pub fn window_count_over(
        &self,
        now: SimTime,
        window: SimDuration,
        threshold: u64,
    ) -> (u64, u64) {
        self.0
            .lock()
            .expect("windowed histogram poisoned")
            .window_count_over(now, window, threshold)
    }

    /// The all-time merged view.
    pub fn merged(&self) -> HistogramSnapshot {
        self.0
            .lock()
            .expect("windowed histogram poisoned")
            .merged()
            .clone()
    }

    /// The all-time merged view in sparse form, skipping the dense
    /// clone [`WindowedHistogram::merged`] pays.
    pub fn merged_sparse(&self) -> crate::hist::SparseHistogram {
        self.0
            .lock()
            .expect("windowed histogram poisoned")
            .merged()
            .to_sparse()
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: Mutex<BTreeMap<&'static str, Counter>>,
    gauges: Mutex<BTreeMap<&'static str, Gauge>>,
    histograms: Mutex<BTreeMap<&'static str, Histogram>>,
    windowed: Mutex<BTreeMap<&'static str, WindowedHistogram>>,
}

/// The shared metrics registry. Clones are handles to the same store.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter registered under `name`, creating it on first
    /// use. Repeated calls with the same name share one counter.
    pub fn counter(&self, name: &'static str) -> Counter {
        self.inner
            .counters
            .lock()
            .expect("counter registry poisoned")
            .entry(name)
            .or_default()
            .clone()
    }

    /// Returns the gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        self.inner
            .gauges
            .lock()
            .expect("gauge registry poisoned")
            .entry(name)
            .or_default()
            .clone()
    }

    /// Returns the histogram registered under `name`, creating it on
    /// first use.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        self.inner
            .histograms
            .lock()
            .expect("histogram registry poisoned")
            .entry(name)
            .or_default()
            .clone()
    }

    /// Returns the sliding-window histogram registered under `name`,
    /// creating it with the given geometry on first use. Later calls
    /// with the same name share the first registration's geometry.
    pub fn windowed(
        &self,
        name: &'static str,
        slot_width: SimDuration,
        retain: usize,
    ) -> WindowedHistogram {
        self.inner
            .windowed
            .lock()
            .expect("windowed registry poisoned")
            .entry(name)
            .or_insert_with(|| WindowedHistogram::detached(slot_width, retain))
            .clone()
    }

    /// Takes a point-in-time copy of every registered instrument.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let counters = self
            .inner
            .counters
            .lock()
            .expect("counter registry poisoned")
            .iter()
            .map(|(&k, v)| (k.to_string(), v.get()))
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .expect("gauge registry poisoned")
            .iter()
            .map(|(&k, v)| (k.to_string(), v.get()))
            .collect();
        let mut histograms: std::collections::BTreeMap<String, crate::hist::HistogramSnapshot> =
            self.inner
                .histograms
                .lock()
                .expect("histogram registry poisoned")
                .iter()
                .map(|(&k, v)| (k.to_string(), v.snapshot()))
                .collect();
        // Windowed streams contribute their all-time merged view, so
        // the end-of-session report and exporters see them alongside
        // the plain histograms (the rolling windows themselves are
        // query-time constructs, not snapshot state).
        for (&k, v) in self
            .inner
            .windowed
            .lock()
            .expect("windowed registry poisoned")
            .iter()
        {
            histograms.insert(k.to_string(), v.merged());
        }
        TelemetrySnapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Streams every instrument straight into `db` at `at` under
    /// `labels` — the scrape-loop fast path. Ingesting via
    /// [`Registry::snapshot`] would materialize three `BTreeMap`s and
    /// re-own every metric name on every scrape; this walks the
    /// instruments in place (same iteration order, so the resulting
    /// series content is identical to recording each one by name) and
    /// hands each histogram over in sparse form, never materializing a
    /// dense snapshot.
    ///
    /// `binding` caches the instruments' series ids and is rebuilt
    /// only when an instrument has been registered since the last
    /// scrape; otherwise no key is formatted or looked up. A binding
    /// belongs to one `(registry, db, labels)` triple: start each from
    /// [`ScrapeBinding::default`] and never share it.
    pub fn scrape_into(
        &self,
        db: &mut Tsdb,
        at: SimTime,
        labels: &[(&str, &str)],
        binding: &mut ScrapeBinding,
    ) {
        let counters = self
            .inner
            .counters
            .lock()
            .expect("counter registry poisoned");
        let gauges = self.inner.gauges.lock().expect("gauge registry poisoned");
        let histograms = self
            .inner
            .histograms
            .lock()
            .expect("histogram registry poisoned");
        let windowed = self
            .inner
            .windowed
            .lock()
            .expect("windowed registry poisoned");
        // Instruments are never unregistered, so equal counts mean an
        // unchanged instrument set.
        let counts = [
            counters.len(),
            gauges.len(),
            histograms.len(),
            windowed.len(),
        ];
        if binding.counts != counts {
            let ids = &mut binding.ids;
            ids.clear();
            for &k in counters.keys().chain(gauges.keys()) {
                ids.push(db.series_id(k, labels, SeriesData::scalar));
            }
            for &k in histograms.keys().chain(windowed.keys()) {
                ids.push(db.series_id(k, labels, SeriesData::hist));
            }
            binding.counts = counts;
        }
        let mut ids = binding.ids.iter().copied();
        for (c, id) in counters.values().zip(&mut ids) {
            #[allow(clippy::cast_precision_loss)]
            db.push_scalar(id, at, c.get() as f64);
        }
        for (g, id) in gauges.values().zip(&mut ids) {
            db.push_scalar(id, at, g.get());
        }
        for (h, id) in histograms.values().zip(&mut ids) {
            db.push_hist(id, at, |slot| h.0.snapshot_sparse_into(slot));
        }
        for (w, id) in windowed.values().zip(&mut ids) {
            db.push_hist(id, at, |slot| *slot = w.merged_sparse());
        }
    }
}

/// A registry's instruments resolved to [`Tsdb`] series ids, in
/// registry iteration order (counters, gauges, histograms, windowed),
/// for [`Registry::scrape_into`].
#[derive(Clone, Debug, Default)]
pub struct ScrapeBinding {
    /// Instrument counts per kind when `ids` was resolved.
    counts: [usize; 4],
    ids: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_shares_the_instrument() {
        let reg = Registry::new();
        reg.counter("x").add(2);
        reg.counter("x").add(3);
        assert_eq!(reg.counter("x").get(), 5);
    }

    #[test]
    fn clones_share_the_store() {
        let reg = Registry::new();
        let other = reg.clone();
        other.gauge("g").set(0.25);
        assert_eq!(reg.gauge("g").get(), 0.25);
    }

    #[test]
    fn histogram_records_durations_in_micros() {
        let reg = Registry::new();
        let h = reg.histogram("lat");
        h.record_duration(SimDuration::from_millis(3));
        assert_eq!(h.snapshot().max(), 3000);
    }

    #[test]
    fn windowed_shares_geometry_and_surfaces_in_snapshots() {
        let reg = Registry::new();
        let w = reg.windowed("win.lat", SimDuration::from_millis(100), 8);
        w.record(SimTime::from_millis(50), 1_000);
        w.record(SimTime::from_millis(250), 3_000);
        // Same name → same instrument, later geometry ignored.
        let again = reg.windowed("win.lat", SimDuration::from_millis(1), 1);
        assert_eq!(again.merged().count(), 2);
        // Recent window sees only the newest sample.
        let recent = again.window(SimTime::from_millis(250), SimDuration::from_millis(100));
        assert_eq!(recent.count(), 1);
        assert_eq!(recent.max(), 3_000);
        // The merged view rides along in the registry snapshot.
        let snap = reg.snapshot();
        assert_eq!(snap.histogram("win.lat").map(|h| h.count()), Some(2));
    }

    #[test]
    fn snapshot_is_a_copy() {
        let reg = Registry::new();
        reg.counter("c").inc();
        let snap = reg.snapshot();
        reg.counter("c").inc();
        assert_eq!(snap.counter("c"), 1);
        assert_eq!(reg.snapshot().counter("c"), 2);
    }
}
