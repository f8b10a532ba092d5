//! Resource attribution: where every byte, microsecond, and joule went.
//!
//! The registry (`registry.rs`) answers *how much* — aggregate counters
//! and per-stage histograms. This module answers *why*: every uplink
//! wire byte is attributed along `GL command category × cache outcome`
//! (with the LZ4 residual folded in via exact apportionment of the
//! compressed frame), every downlink byte along `frame kind`
//! (Turbo tile-delta vs JPEG keyframe), and every sim-time microsecond
//! and joule along `stage × node × interface`.
//!
//! Like `Registry`, an [`AttributionLog`] is a cheap clonable handle
//! that components *may* be attached to; taps are purely observational
//! and never change timing, routing, or encoded output. Detached
//! components skip all bookkeeping.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use crate::json::{self, JsonValue};

/// Uplink bytes for one `(GL category, cache outcome)` pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UplinkCell {
    /// Resolved GL commands that fell in this cell.
    pub commands: u64,
    /// Serialized command bytes before caching.
    pub raw_bytes: u64,
    /// Token-stream bytes after the LRU cache (refs + full bodies).
    pub token_bytes: u64,
    /// Post-LZ4 wire bytes apportioned to this cell (exact: cell wire
    /// bytes across a frame always sum to the frame's wire length).
    pub wire_bytes: u64,
}

/// Downlink bytes for one frame kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DownlinkCell {
    /// Frames of this kind.
    pub frames: u64,
    /// Encoded bytes carried for them.
    pub bytes: u64,
}

/// Sim time and energy for one `(stage, node, interface)` cell.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageCell {
    /// Sim-time microseconds spent in this cell.
    pub micros: u64,
    /// Joules attributed to this cell.
    pub joules: f64,
    /// Recorded samples (frame spans for time, deposits for energy).
    pub samples: u64,
}

/// Radio-link transfer accounting for one `(direction, interface)`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkCell {
    /// Individual transfers.
    pub transfers: u64,
    /// Payload bytes carried.
    pub bytes: u64,
    /// Sim-time microseconds of transfer latency.
    pub micros: u64,
}

/// One resolved command's contribution to a frame, as reported by the
/// forwarder before LZ4 apportionment.
#[derive(Clone, Copy, Debug)]
pub struct UplinkFrameEntry {
    /// GL command category (see `gbooster_gles::serialize::command_category`).
    pub category: &'static str,
    /// Whether the LRU cache replaced the body with a reference token.
    pub cache_hit: bool,
    /// Commands aggregated into this entry.
    pub commands: u64,
    /// Serialized bytes before caching.
    pub raw_bytes: u64,
    /// Token-stream bytes after caching.
    pub token_bytes: u64,
}

/// Immutable copy of all four attribution tables.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AttributionSnapshot {
    /// `(category, outcome)` → uplink byte accounting.
    pub uplink: BTreeMap<(String, String), UplinkCell>,
    /// frame kind → downlink byte accounting.
    pub downlink: BTreeMap<String, DownlinkCell>,
    /// `(stage, node, iface)` → time + energy accounting.
    pub stages: BTreeMap<(String, String, String), StageCell>,
    /// `(direction, iface)` → link transfer accounting.
    pub link: BTreeMap<(String, String), LinkCell>,
}

/// Shared handle components record attribution into.
#[derive(Clone, Debug, Default)]
pub struct AttributionLog {
    inner: Arc<Mutex<AttributionSnapshot>>,
}

impl AttributionLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one forwarded frame's uplink accounting. `wire_total` is
    /// the full on-wire frame length (header + LZ4 payload); it is
    /// apportioned across entries by token-byte share using the
    /// largest-remainder method, so per-cell wire bytes stay integers
    /// and sum exactly to `wire_total`.
    pub fn record_uplink_frame(&self, entries: &[UplinkFrameEntry], wire_total: u64) {
        let shares = apportion(entries, wire_total);
        let mut state = self.inner.lock().unwrap();
        for (entry, wire) in entries.iter().zip(shares) {
            let outcome = if entry.cache_hit {
                crate::names::attr::OUTCOME_HIT
            } else {
                crate::names::attr::OUTCOME_MISS
            };
            let cell = cell_mut(&mut state.uplink, [entry.category, outcome]);
            cell.commands += entry.commands;
            cell.raw_bytes += entry.raw_bytes;
            cell.token_bytes += entry.token_bytes;
            cell.wire_bytes += wire;
        }
        if entries.is_empty() && wire_total > 0 {
            // Degenerate empty frame: keep totals exact anyway.
            let cell = state
                .uplink
                .entry((
                    "empty".to_string(),
                    crate::names::attr::OUTCOME_MISS.to_string(),
                ))
                .or_default();
            cell.wire_bytes += wire_total;
        }
    }

    /// Records one displayed frame's downlink bytes under `kind`.
    pub fn record_downlink(&self, kind: &str, bytes: u64) {
        let mut state = self.inner.lock().unwrap();
        if !state.downlink.contains_key(kind) {
            state
                .downlink
                .insert(kind.to_string(), DownlinkCell::default());
        }
        let cell = state.downlink.get_mut(kind).expect("cell inserted above");
        cell.frames += 1;
        cell.bytes += bytes;
    }

    /// Records sim time spent in `(stage, node, iface)`.
    pub fn record_stage(&self, stage: &str, node: &str, iface: &str, micros: u64) {
        let mut state = self.inner.lock().unwrap();
        let cell = cell_mut(&mut state.stages, [stage, node, iface]);
        cell.micros += micros;
        cell.samples += 1;
    }

    /// Deposits joules into `(stage, node, iface)` without touching the
    /// time axis.
    pub fn record_energy(&self, stage: &str, node: &str, iface: &str, joules: f64) {
        let mut state = self.inner.lock().unwrap();
        let cell = cell_mut(&mut state.stages, [stage, node, iface]);
        cell.joules += joules;
        cell.samples += 1;
    }

    /// Records one radio transfer for `(direction, iface)`.
    pub fn record_link(&self, direction: &str, iface: &str, bytes: u64, micros: u64) {
        let mut state = self.inner.lock().unwrap();
        let cell = cell_mut(&mut state.link, [direction, iface]);
        cell.transfers += 1;
        cell.bytes += bytes;
        cell.micros += micros;
    }

    /// Copies the current tables out.
    pub fn snapshot(&self) -> AttributionSnapshot {
        self.inner.lock().unwrap().clone()
    }
}

/// A `String`-tuple table key viewed as `N` borrowed parts: tables are
/// looked up by `&str`s, and the owned key is built only when a cell is
/// first created. Tuples and arrays both order lexicographically, so the
/// borrowed view orders exactly like the owned key.
trait StrKey<const N: usize> {
    fn parts(&self) -> [&str; N];
}

impl<const N: usize> StrKey<N> for [&str; N] {
    fn parts(&self) -> [&str; N] {
        *self
    }
}

impl<const N: usize> PartialEq for dyn StrKey<N> + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl<const N: usize> Eq for dyn StrKey<N> + '_ {}

impl<const N: usize> PartialOrd for dyn StrKey<N> + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<const N: usize> Ord for dyn StrKey<N> + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        self.parts().cmp(&other.parts())
    }
}

/// An owned table key with a borrowed [`StrKey`] view.
trait OwnedKey<const N: usize>: Ord + for<'a> Borrow<dyn StrKey<N> + 'a> {
    fn owned(parts: [&str; N]) -> Self;
}

impl StrKey<2> for (String, String) {
    fn parts(&self) -> [&str; 2] {
        [&self.0, &self.1]
    }
}

impl<'a> Borrow<dyn StrKey<2> + 'a> for (String, String) {
    fn borrow(&self) -> &(dyn StrKey<2> + 'a) {
        self
    }
}

impl OwnedKey<2> for (String, String) {
    fn owned([a, b]: [&str; 2]) -> Self {
        (a.to_string(), b.to_string())
    }
}

impl StrKey<3> for (String, String, String) {
    fn parts(&self) -> [&str; 3] {
        [&self.0, &self.1, &self.2]
    }
}

impl<'a> Borrow<dyn StrKey<3> + 'a> for (String, String, String) {
    fn borrow(&self) -> &(dyn StrKey<3> + 'a) {
        self
    }
}

impl OwnedKey<3> for (String, String, String) {
    fn owned([a, b, c]: [&str; 3]) -> Self {
        (a.to_string(), b.to_string(), c.to_string())
    }
}

/// The cell under `parts`, created empty on first use; allocation-free
/// when the cell already exists.
fn cell_mut<'m, K: OwnedKey<N>, V: Default, const N: usize>(
    map: &'m mut BTreeMap<K, V>,
    parts: [&str; N],
) -> &'m mut V {
    let key: &dyn StrKey<N> = &parts;
    if !map.contains_key(key) {
        map.insert(K::owned(parts), V::default());
    }
    map.get_mut(key).expect("cell inserted above")
}

/// Largest-remainder apportionment of `wire_total` across entries by
/// token-byte share. Returns one integer share per entry summing to
/// `wire_total` (all zeros when there are no entries).
fn apportion(entries: &[UplinkFrameEntry], wire_total: u64) -> Vec<u64> {
    if entries.is_empty() {
        return Vec::new();
    }
    let token_total: u64 = entries.iter().map(|e| e.token_bytes).sum();
    if token_total == 0 {
        // No token bytes at all: give everything to the first entry so
        // the frame total is still conserved.
        let mut shares = vec![0u64; entries.len()];
        shares[0] = wire_total;
        return shares;
    }
    let mut shares = Vec::with_capacity(entries.len());
    let mut remainders: Vec<(u128, usize)> = Vec::with_capacity(entries.len());
    let mut assigned: u64 = 0;
    for (i, e) in entries.iter().enumerate() {
        let num = u128::from(wire_total) * u128::from(e.token_bytes);
        let base = (num / u128::from(token_total)) as u64;
        assigned += base;
        shares.push(base);
        remainders.push((num % u128::from(token_total), i));
    }
    // Hand out the leftover bytes to the largest remainders; ties break
    // on entry order so the result is deterministic.
    remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut leftover = wire_total - assigned;
    for &(_, i) in &remainders {
        if leftover == 0 {
            break;
        }
        shares[i] += 1;
        leftover -= 1;
    }
    shares
}

impl AttributionSnapshot {
    /// Total uplink wire bytes across all cells.
    pub fn uplink_wire_total(&self) -> u64 {
        self.uplink.values().map(|c| c.wire_bytes).sum()
    }

    /// Total downlink bytes across all frame kinds.
    pub fn downlink_total(&self) -> u64 {
        self.downlink.values().map(|c| c.bytes).sum()
    }

    /// Total attributed sim-time microseconds for one stage name across
    /// all nodes/interfaces.
    pub fn stage_micros(&self, stage: &str) -> u64 {
        self.stages
            .iter()
            .filter(|((s, _, _), _)| s == stage)
            .map(|(_, c)| c.micros)
            .sum()
    }

    /// Total attributed joules across all cells.
    pub fn energy_total(&self) -> f64 {
        self.stages.values().map(|c| c.joules).sum()
    }

    /// Total link bytes for one direction across interfaces.
    pub fn link_bytes(&self, direction: &str) -> u64 {
        self.link
            .iter()
            .filter(|((d, _), _)| d == direction)
            .map(|(_, c)| c.bytes)
            .sum()
    }

    /// Link bytes for one `(direction, iface)` cell.
    pub fn link_iface_bytes(&self, direction: &str, iface: &str) -> u64 {
        self.link
            .get(&(direction.to_string(), iface.to_string()))
            .map(|c| c.bytes)
            .unwrap_or(0)
    }

    /// True when every table is empty (e.g. local-only sessions).
    pub fn is_empty(&self) -> bool {
        self.uplink.is_empty()
            && self.downlink.is_empty()
            && self.stages.is_empty()
            && self.link.is_empty()
    }

    /// Renders the four tables as text, keeping the top `n` rows of
    /// each (sorted by the table's dominant resource, descending).
    pub fn render_top(&self, n: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "uplink bytes by GL category x cache outcome:");
        let _ = writeln!(
            out,
            "  {:<14} {:<8} {:>10} {:>12} {:>12} {:>12}",
            "category", "outcome", "commands", "raw_B", "token_B", "wire_B"
        );
        let mut rows: Vec<_> = self.uplink.iter().collect();
        rows.sort_by(|a, b| b.1.wire_bytes.cmp(&a.1.wire_bytes).then(a.0.cmp(b.0)));
        for ((cat, outcome), c) in rows.into_iter().take(n) {
            let _ = writeln!(
                out,
                "  {:<14} {:<8} {:>10} {:>12} {:>12} {:>12}",
                cat, outcome, c.commands, c.raw_bytes, c.token_bytes, c.wire_bytes
            );
        }
        let _ = writeln!(out, "downlink bytes by frame kind:");
        let _ = writeln!(out, "  {:<18} {:>8} {:>14}", "kind", "frames", "bytes");
        let mut rows: Vec<_> = self.downlink.iter().collect();
        rows.sort_by(|a, b| b.1.bytes.cmp(&a.1.bytes).then(a.0.cmp(b.0)));
        for (kind, c) in rows.into_iter().take(n) {
            let _ = writeln!(out, "  {:<18} {:>8} {:>14}", kind, c.frames, c.bytes);
        }
        let _ = writeln!(out, "sim time / energy by stage x node x iface:");
        let _ = writeln!(
            out,
            "  {:<22} {:<8} {:<6} {:>12} {:>12} {:>8}",
            "stage", "node", "iface", "micros", "joules", "samples"
        );
        let mut rows: Vec<_> = self.stages.iter().collect();
        rows.sort_by(|a, b| {
            b.1.micros
                .cmp(&a.1.micros)
                .then(
                    b.1.joules
                        .partial_cmp(&a.1.joules)
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
                .then(a.0.cmp(b.0))
        });
        for ((stage, node, iface), c) in rows.into_iter().take(n) {
            let _ = writeln!(
                out,
                "  {:<22} {:<8} {:<6} {:>12} {:>12.4} {:>8}",
                stage, node, iface, c.micros, c.joules, c.samples
            );
        }
        let _ = writeln!(out, "link bytes by direction x iface:");
        let _ = writeln!(
            out,
            "  {:<10} {:<6} {:>10} {:>14} {:>12}",
            "direction", "iface", "xfers", "bytes", "micros"
        );
        let mut rows: Vec<_> = self.link.iter().collect();
        rows.sort_by(|a, b| b.1.bytes.cmp(&a.1.bytes).then(a.0.cmp(b.0)));
        for ((dir, iface), c) in rows.into_iter().take(n) {
            let _ = writeln!(
                out,
                "  {:<10} {:<6} {:>10} {:>14} {:>12}",
                dir, iface, c.transfers, c.bytes, c.micros
            );
        }
        out
    }

    /// Serializes all four tables as a JSON object (arrays of row
    /// objects, keyed cells flattened into fields).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"uplink\":[");
        for (i, ((cat, outcome), c)) in self.uplink.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"category\":{},\"outcome\":{},\"commands\":{},\"raw_bytes\":{},\"token_bytes\":{},\"wire_bytes\":{}}}",
                json::quote(cat),
                json::quote(outcome),
                c.commands,
                c.raw_bytes,
                c.token_bytes,
                c.wire_bytes
            );
        }
        out.push_str("],\"downlink\":[");
        for (i, (kind, c)) in self.downlink.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"kind\":{},\"frames\":{},\"bytes\":{}}}",
                json::quote(kind),
                c.frames,
                c.bytes
            );
        }
        out.push_str("],\"stages\":[");
        for (i, ((stage, node, iface), c)) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"stage\":{},\"node\":{},\"iface\":{},\"micros\":{},\"joules\":{},\"samples\":{}}}",
                json::quote(stage),
                json::quote(node),
                json::quote(iface),
                c.micros,
                json::number(c.joules),
                c.samples
            );
        }
        out.push_str("],\"link\":[");
        for (i, ((dir, iface), c)) in self.link.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"direction\":{},\"iface\":{},\"transfers\":{},\"bytes\":{},\"micros\":{}}}",
                json::quote(dir),
                json::quote(iface),
                c.transfers,
                c.bytes,
                c.micros
            );
        }
        out.push_str("]}");
        out
    }

    /// Reconstructs a snapshot from [`Self::to_json`] output (or the
    /// same object embedded in a larger document).
    pub fn from_json_value(v: &JsonValue) -> Result<Self, String> {
        let mut snap = AttributionSnapshot::default();
        for row in v.get("uplink").and_then(|a| a.as_arr()).unwrap_or_default() {
            snap.uplink.insert(
                (req_str(row, "category")?, req_str(row, "outcome")?),
                UplinkCell {
                    commands: req_u64(row, "commands")?,
                    raw_bytes: req_u64(row, "raw_bytes")?,
                    token_bytes: req_u64(row, "token_bytes")?,
                    wire_bytes: req_u64(row, "wire_bytes")?,
                },
            );
        }
        for row in v
            .get("downlink")
            .and_then(|a| a.as_arr())
            .unwrap_or_default()
        {
            snap.downlink.insert(
                req_str(row, "kind")?,
                DownlinkCell {
                    frames: req_u64(row, "frames")?,
                    bytes: req_u64(row, "bytes")?,
                },
            );
        }
        for row in v.get("stages").and_then(|a| a.as_arr()).unwrap_or_default() {
            snap.stages.insert(
                (
                    req_str(row, "stage")?,
                    req_str(row, "node")?,
                    req_str(row, "iface")?,
                ),
                StageCell {
                    micros: req_u64(row, "micros")?,
                    joules: row.get("joules").and_then(|j| j.as_f64()).unwrap_or(0.0),
                    samples: req_u64(row, "samples")?,
                },
            );
        }
        for row in v.get("link").and_then(|a| a.as_arr()).unwrap_or_default() {
            snap.link.insert(
                (req_str(row, "direction")?, req_str(row, "iface")?),
                LinkCell {
                    transfers: req_u64(row, "transfers")?,
                    bytes: req_u64(row, "bytes")?,
                    micros: req_u64(row, "micros")?,
                },
            );
        }
        Ok(snap)
    }

    /// Parses a standalone JSON document produced by [`Self::to_json`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        Self::from_json_value(&json::parse(text)?)
    }
}

fn req_str(row: &JsonValue, key: &str) -> Result<String, String> {
    row.get(key)
        .and_then(|v| v.as_str())
        .map(str::to_string)
        .ok_or_else(|| format!("attribution row missing string {key:?}"))
}

fn req_u64(row: &JsonValue, key: &str) -> Result<u64, String> {
    row.get(key)
        .and_then(|v| v.as_f64())
        .map(|v| v as u64)
        .ok_or_else(|| format!("attribution row missing number {key:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::attr as names;

    fn entry(
        category: &'static str,
        cache_hit: bool,
        commands: u64,
        raw: u64,
        token: u64,
    ) -> UplinkFrameEntry {
        UplinkFrameEntry {
            category,
            cache_hit,
            commands,
            raw_bytes: raw,
            token_bytes: token,
        }
    }

    #[test]
    fn borrowed_lookups_find_exactly_the_owned_cells() {
        // Keys whose concatenations collide, share prefixes, or sort
        // differently part by part than as one string.
        let keys = [
            ["a", "bc", "x"],
            ["ab", "c", "x"],
            ["a", "b", "cx"],
            ["", "abc", "x"],
            ["a", "bc", ""],
            ["b", "", "a"],
        ];
        let log = AttributionLog::new();
        for (i, [stage, node, iface]) in keys.iter().enumerate() {
            for _ in 0..=i {
                log.record_stage(stage, node, iface, 10);
            }
        }
        let snap = log.snapshot();
        assert_eq!(snap.stages.len(), keys.len());
        for (i, [stage, node, iface]) in keys.iter().enumerate() {
            let owned = (stage.to_string(), node.to_string(), iface.to_string());
            assert_eq!(snap.stages[&owned].samples, i as u64 + 1, "{owned:?}");
        }
    }

    #[test]
    fn wire_apportionment_is_exact() {
        let log = AttributionLog::new();
        // 3 entries with token shares that do not divide 1000 evenly.
        let entries = [
            entry("draw", false, 4, 400, 333),
            entry("uniform", true, 10, 900, 90),
            entry("state", true, 2, 64, 18),
        ];
        log.record_uplink_frame(&entries, 1000);
        let snap = log.snapshot();
        assert_eq!(snap.uplink_wire_total(), 1000);
        // Largest token share gets the largest wire share.
        let draw = snap.uplink[&("draw".into(), names::OUTCOME_MISS.into())];
        let state = snap.uplink[&("state".into(), names::OUTCOME_HIT.into())];
        assert!(draw.wire_bytes > state.wire_bytes);
    }

    #[test]
    fn zero_token_frames_still_conserve_bytes() {
        let log = AttributionLog::new();
        log.record_uplink_frame(&[entry("frame", true, 1, 9, 0)], 12);
        log.record_uplink_frame(&[], 4);
        assert_eq!(log.snapshot().uplink_wire_total(), 16);
    }

    #[test]
    fn tables_accumulate_and_round_trip_json() {
        let log = AttributionLog::new();
        log.record_uplink_frame(&[entry("draw", false, 2, 100, 80)], 60);
        log.record_downlink(names::KIND_KEYFRAME, 4096);
        log.record_downlink(names::KIND_TILE_DELTA, 512);
        log.record_stage("stage.uplink", names::NODE_PHONE, names::IFACE_WIFI, 1500);
        log.record_energy("stage.uplink", names::NODE_PHONE, names::IFACE_WIFI, 0.125);
        log.record_link(names::DIR_UPLINK, names::IFACE_WIFI, 60, 1500);
        let snap = log.snapshot();
        assert_eq!(snap.downlink_total(), 4608);
        assert_eq!(snap.stage_micros("stage.uplink"), 1500);
        assert_eq!(snap.link_bytes(names::DIR_UPLINK), 60);
        assert!((snap.energy_total() - 0.125).abs() < 1e-12);

        let restored = AttributionSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(restored, snap);
    }

    #[test]
    fn render_top_limits_rows() {
        let log = AttributionLog::new();
        for (i, cat) in ["draw", "state", "uniform", "texture"].iter().enumerate() {
            log.record_uplink_frame(&[entry(cat, false, 1, 10, 10)], 100 * (i as u64 + 1));
        }
        let text = log.snapshot().render_top(2);
        assert!(text.contains("texture"));
        assert!(text.contains("uniform"));
        assert!(!text.contains("draw "));
    }
}
