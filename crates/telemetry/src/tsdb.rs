//! Embedded ring-buffer time-series database.
//!
//! The windowed streams answer "the distribution over the last N ms"
//! and then forget; everything older than the retention window is
//! gone by the time an operator asks "what was t042's p99 during the
//! drain at t=8 s?". The [`Tsdb`] keeps that history: a fixed number
//! of slots per series, fed from periodic [`TelemetrySnapshot`]
//! scrapes (pool-level and per-tenant with a `tenant="tNNN"` label)
//! and from recording rules that persist the burn-rate inputs
//! [`crate::slo::SloObjective::evaluate`] computes.
//!
//! Storage is deliberately simple and deterministic: series keyed by
//! a canonical `name\x1fk\x1ev…` string (labels sorted), where
//! scalars (counters, gauges, rule outputs) keep `(sim µs, f64)`
//! points and histograms keep cumulative [`SparseHistogram`] copies —
//! dense-restorable bucket-for-bucket, so range queries still take
//! exact deltas without the ring paying ~8 KB per point. When a ring
//! is full
//! the oldest point is evicted and counted. The query layer on top
//! lives in [`crate::query`].
//!
//! Series live in a `Vec`; a series' position there is its *id*, and
//! an ordered key index maps each canonical key to its id. Queries
//! iterate the index, so answers come out in key order whatever order
//! the series appeared in.
//!
//! Two write paths share the rings. The *named* path
//! ([`Tsdb::record`], [`Tsdb::record_hist`], [`Tsdb::ingest`]) formats
//! the canonical key into a scratch buffer reused across records and
//! does one index lookup per point; owned strings are built only the
//! first time a series appears. The *bound* path is the fabric's
//! scrape loop ([`crate::registry::Registry::scrape_into`]): a
//! registry's instruments are resolved to series ids once, and every
//! later scrape writes by id with no key formatting and no lookup.
//! Histogram points reuse the buffer of the point they evict, so a
//! full ring takes new points without allocating.

use std::collections::{BTreeMap, VecDeque};

use gbooster_sim::time::SimTime;

use crate::hist::{HistogramSnapshot, SparseHistogram};
use crate::report::TelemetrySnapshot;
use crate::slo::BurnState;

/// Default per-series ring capacity.
pub const DEFAULT_SLOTS: usize = 64;

/// The points of one series: scalar samples or cumulative histogram
/// snapshots, oldest first, timestamps strictly increasing.
#[derive(Clone, Debug, PartialEq)]
pub enum SeriesData {
    /// `(sim µs, value)` samples.
    Scalar(VecDeque<(u64, f64)>),
    /// `(sim µs, cumulative sparse snapshot)` samples.
    Hist(VecDeque<(u64, SparseHistogram)>),
}

impl SeriesData {
    pub(crate) fn scalar() -> Self {
        SeriesData::Scalar(VecDeque::new())
    }

    pub(crate) fn hist() -> Self {
        SeriesData::Hist(VecDeque::new())
    }

    /// Number of stored points.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            SeriesData::Scalar(v) => v.len(),
            SeriesData::Hist(v) => v.len(),
        }
    }

    /// Whether the ring holds no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One stored series: its identity plus the ring of points.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    name: String,
    labels: Vec<(String, String)>,
    data: SeriesData,
}

impl Series {
    /// Metric name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sorted label pairs.
    #[must_use]
    pub fn labels(&self) -> &[(String, String)] {
        &self.labels
    }

    /// The stored points.
    #[must_use]
    pub fn data(&self) -> &SeriesData {
        &self.data
    }
}

/// Fixed-slot ring-buffer TSDB. See the module docs.
#[derive(Clone, Debug)]
pub struct Tsdb {
    /// Ring capacity per series, at least 1.
    slots: usize,
    /// Series storage; a series' index here is its id.
    series: Vec<Series>,
    /// Canonical key (see [`write_key`]) → series id. The map is
    /// ordered, so iteration — and therefore every query answer — is
    /// deterministic.
    index: BTreeMap<String, usize>,
    /// Reused key-formatting buffer; always left empty between calls.
    scratch: String,
    ingested: u64,
    evicted: u64,
}

/// Value equality: the same series with the same points, compared in
/// key order, so the order in which series first appeared (their ids)
/// does not matter.
impl PartialEq for Tsdb {
    fn eq(&self, other: &Self) -> bool {
        self.slots == other.slots
            && self.ingested == other.ingested
            && self.evicted == other.evicted
            && self.index.len() == other.index.len()
            && self
                .index
                .iter()
                .zip(&other.index)
                .all(|((ka, &a), (kb, &b))| ka == kb && self.series[a] == other.series[b])
    }
}

/// Separators for the canonical key encoding: units 0x1f/0x1e never
/// appear in metric names or label text.
const KEY_SEP: char = '\u{1f}';
const KV_SEP: char = '\u{1e}';

/// Formats the canonical series key into `out` (cleared first). Labels
/// are almost always pre-sorted (`[]` or a single `tenant` pair on the
/// scrape path); the rare unsorted multi-label call pays one small
/// sort of borrowed pairs, never string allocations.
fn write_key(out: &mut String, name: &str, labels: &[(&str, &str)]) {
    fn push_pair(out: &mut String, k: &str, v: &str) {
        out.push(KEY_SEP);
        out.push_str(k);
        out.push(KV_SEP);
        out.push_str(v);
    }
    out.clear();
    out.push_str(name);
    let sorted = labels.windows(2).all(|w| w[0] <= w[1]);
    if sorted {
        for (k, v) in labels {
            push_pair(out, k, v);
        }
    } else {
        let mut pairs: Vec<&(&str, &str)> = labels.iter().collect();
        pairs.sort();
        for (k, v) in pairs {
            push_pair(out, k, v);
        }
    }
}

/// Owned, sorted label pairs for a series' first appearance.
fn owned_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut l: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
        .collect();
    l.sort();
    l
}

impl Tsdb {
    /// Creates a TSDB retaining at most `slots` points per series.
    #[must_use]
    pub fn new(slots: usize) -> Self {
        Tsdb {
            slots: slots.max(1),
            series: Vec::new(),
            index: BTreeMap::new(),
            scratch: String::new(),
            ingested: 0,
            evicted: 0,
        }
    }

    /// Ring capacity per series.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Number of distinct series.
    #[must_use]
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// Total points accepted over the TSDB's lifetime.
    #[must_use]
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// Points evicted because a ring was full.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The id of the series for `(name, labels)`, created empty via
    /// `make` on first sight. One index lookup and no allocation for
    /// an existing series.
    pub(crate) fn series_id(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        make: fn() -> SeriesData,
    ) -> usize {
        let mut scratch = std::mem::take(&mut self.scratch);
        write_key(&mut scratch, name, labels);
        let id = match self.index.get(scratch.as_str()) {
            Some(&id) => id,
            None => {
                let id = self.series.len();
                self.series.push(Series {
                    name: name.to_string(),
                    labels: owned_labels(labels),
                    data: make(),
                });
                self.index.insert(scratch.clone(), id);
                id
            }
        };
        scratch.clear();
        self.scratch = scratch;
        id
    }

    /// Writes one point at `t` into `ring`: a point at a timestamp the
    /// ring already holds is overwritten in place (re-scrape of the
    /// same instant), keeping timestamps strictly increasing; otherwise
    /// a full ring evicts its oldest point and `fill` reuses it.
    fn push_point<V: Default>(
        ring: &mut VecDeque<(u64, V)>,
        slots: usize,
        t: u64,
        fill: impl FnOnce(&mut V),
    ) -> (u64, u64) {
        if let Some(last) = ring.back_mut() {
            if last.0 == t {
                fill(&mut last.1);
                return (0, 0);
            }
            debug_assert!(last.0 < t, "out-of-order point");
        }
        let over = ring.len() >= slots;
        let mut value = if over {
            ring.pop_front().map(|(_, v)| v).unwrap_or_default()
        } else {
            V::default()
        };
        fill(&mut value);
        ring.push_back((t, value));
        (1, u64::from(over))
    }

    /// Records one scalar point into series `id`.
    pub(crate) fn push_scalar(&mut self, id: usize, at: SimTime, value: f64) {
        let series = &mut self.series[id];
        let SeriesData::Scalar(ring) = &mut series.data else {
            debug_assert!(false, "scalar point into histogram series {}", series.name);
            return;
        };
        let (ingested, evicted) =
            Self::push_point(ring, self.slots, at.as_micros(), |v| *v = value);
        self.ingested += ingested;
        self.evicted += evicted;
    }

    /// Records one cumulative histogram point into series `id`; `fill`
    /// writes the snapshot into the slot (a recycled evicted point when
    /// the ring is full).
    pub(crate) fn push_hist(
        &mut self,
        id: usize,
        at: SimTime,
        fill: impl FnOnce(&mut SparseHistogram),
    ) {
        let series = &mut self.series[id];
        let SeriesData::Hist(ring) = &mut series.data else {
            debug_assert!(false, "histogram point into scalar series {}", series.name);
            return;
        };
        let (ingested, evicted) = Self::push_point(ring, self.slots, at.as_micros(), fill);
        self.ingested += ingested;
        self.evicted += evicted;
    }

    /// Records one scalar point. A point at a timestamp the series
    /// already holds overwrites in place (re-scrape of the same
    /// instant), keeping timestamps strictly increasing.
    pub fn record(&mut self, at: SimTime, name: &str, labels: &[(&str, &str)], value: f64) {
        let id = self.series_id(name, labels, SeriesData::scalar);
        self.push_scalar(id, at, value);
    }

    /// Records one cumulative histogram snapshot (stored sparsely).
    pub fn record_hist(
        &mut self,
        at: SimTime,
        name: &str,
        labels: &[(&str, &str)],
        snap: &HistogramSnapshot,
    ) {
        let id = self.series_id(name, labels, SeriesData::hist);
        self.push_hist(id, at, |slot| *slot = snap.to_sparse());
    }

    /// Ingests a whole [`TelemetrySnapshot`] at `at`: counters and
    /// gauges as scalar points, histograms as cumulative snapshots,
    /// all under `labels` (e.g. `[("tenant", "t042")]`, or empty for
    /// the pool registry).
    pub fn ingest(&mut self, at: SimTime, labels: &[(&str, &str)], snap: &TelemetrySnapshot) {
        for (name, v) in &snap.counters {
            #[allow(clippy::cast_precision_loss)]
            self.record(at, name, labels, *v as f64);
        }
        for (name, v) in &snap.gauges {
            self.record(at, name, labels, *v);
        }
        for (name, h) in &snap.histograms {
            self.record_hist(at, name, labels, h);
        }
    }

    /// Recording rule: persists the burn-rate numbers `slo.rs` just
    /// computed for `objective` as `{objective}.fast_burn` /
    /// `.slow_burn` / `.fast_count` / `.slow_count` scalar series, so
    /// queries reproduce the alerting inputs exactly (same floats, no
    /// recomputation).
    pub fn record_burn(
        &mut self,
        at: SimTime,
        objective: &str,
        burn: &BurnState,
        labels: &[(&str, &str)],
    ) {
        self.record(
            at,
            &format!("{objective}.fast_burn"),
            labels,
            burn.fast_burn,
        );
        self.record(
            at,
            &format!("{objective}.slow_burn"),
            labels,
            burn.slow_burn,
        );
        #[allow(clippy::cast_precision_loss)]
        self.record(
            at,
            &format!("{objective}.fast_count"),
            labels,
            burn.fast_count as f64,
        );
        #[allow(clippy::cast_precision_loss)]
        self.record(
            at,
            &format!("{objective}.slow_count"),
            labels,
            burn.slow_count as f64,
        );
    }

    /// All series whose name is exactly `name` and whose labels are a
    /// superset of `labels`, in key order.
    pub(crate) fn select<'a>(
        &'a self,
        name: &'a str,
        labels: &'a [(String, String)],
    ) -> impl Iterator<Item = &'a Series> {
        self.series().filter(move |s| {
            s.name == name
                && labels
                    .iter()
                    .all(|want| s.labels.iter().any(|kv| kv == want))
        })
    }

    /// Iterates every series, in key order.
    pub fn series(&self) -> impl Iterator<Item = &Series> {
        self.index.values().map(|&id| &self.series[id])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn scalar_ring_evicts_oldest() {
        let mut db = Tsdb::new(3);
        for i in 0..5u64 {
            #[allow(clippy::cast_precision_loss)]
            db.record(t(i * 100), "m", &[], i as f64);
        }
        assert_eq!(db.ingested(), 5);
        assert_eq!(db.evicted(), 2);
        let series = db.series().next().expect("series exists");
        let SeriesData::Scalar(ring) = series.data() else {
            panic!("scalar series expected");
        };
        let times: Vec<u64> = ring.iter().map(|(ts, _)| *ts).collect();
        assert_eq!(times, vec![200_000, 300_000, 400_000]);
    }

    #[test]
    fn same_timestamp_overwrites_in_place() {
        let mut db = Tsdb::new(4);
        db.record(t(100), "m", &[], 1.0);
        db.record(t(100), "m", &[], 2.0);
        assert_eq!(db.ingested(), 1);
        let series = db.series().next().expect("series exists");
        let SeriesData::Scalar(ring) = series.data() else {
            panic!("scalar series expected");
        };
        assert_eq!(ring.back(), Some(&(100_000, 2.0)));
    }

    #[test]
    fn labels_are_sorted_and_select_matches_supersets() {
        let mut db = Tsdb::new(4);
        db.record(t(0), "m", &[("tenant", "t001"), ("pool", "a")], 1.0);
        db.record(t(0), "m", &[("pool", "a"), ("tenant", "t001")], 2.0);
        assert_eq!(db.series_count(), 1, "label order must not split series");
        let series = db.series().next().expect("series exists");
        assert_eq!(
            series.labels(),
            &[
                ("pool".to_string(), "a".to_string()),
                ("tenant".to_string(), "t001".to_string())
            ]
        );
        let want = vec![("tenant".to_string(), "t001".to_string())];
        assert_eq!(db.select("m", &want).count(), 1);
        let none = vec![("tenant".to_string(), "t999".to_string())];
        assert_eq!(db.select("m", &none).count(), 0);
    }

    #[test]
    fn ingest_fans_out_snapshot_kinds() {
        let reg = crate::Registry::new();
        reg.counter("c.total").add(7);
        reg.gauge("g.now").set(1.5);
        reg.histogram("h.lat").record(1_000);
        let snap = reg.snapshot();
        let mut db = Tsdb::new(4);
        db.ingest(t(100), &[("tenant", "t000")], &snap);
        assert!(db.series_count() >= 3);
        let want = vec![("tenant".to_string(), "t000".to_string())];
        let series = db.select("h.lat", &want).next().expect("hist series");
        assert!(matches!(series.data(), SeriesData::Hist(r) if r.len() == 1));
    }

    #[test]
    fn repeat_records_do_not_grow_the_scratch_or_split_series() {
        let mut db = Tsdb::new(8);
        for i in 0..20u64 {
            #[allow(clippy::cast_precision_loss)]
            db.record(t(i * 10), "m.one", &[("tenant", "t007")], i as f64);
        }
        assert_eq!(db.series_count(), 1);
        assert_eq!(db.ingested(), 20);
        // Equality is value-based: a fresh DB fed the same points
        // compares equal regardless of internal buffer history.
        let mut other = Tsdb::new(8);
        for i in 0..20u64 {
            #[allow(clippy::cast_precision_loss)]
            other.record(t(i * 10), "m.one", &[("tenant", "t007")], i as f64);
        }
        assert_eq!(db, other);
    }
}
