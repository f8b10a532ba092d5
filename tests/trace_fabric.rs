//! Tail-sampled fabric tracing acceptance (docs/OBSERVABILITY.md):
//! a 64-session lossy fabric with a forced drain and a node
//! kill/revive, run with the observer on.
//!
//! The contract under test:
//! * double-run determinism — the *retained trace set* (ids and
//!   serialized span trees) is byte-identical across two runs of the
//!   same config, as are the SLO report, the exposition, the TSDB
//!   query answers, and the timeline;
//! * budget safety — no tenant's retained bytes ever exceed the
//!   configured per-tenant budget;
//! * completeness — every presented frame faced the verdict, and with
//!   no budget evictions every SLO-violating / incident-window /
//!   migration frame is retained;
//! * exemplars — the trace ids attached to the gated latency
//!   histograms resolve to retained traces;
//! * the query engine answers over pool and tenant-labelled series
//!   with values that reconcile against the report.

use std::collections::BTreeMap;

use gbooster::core::fabric::{FabricConfig, FabricReport, PoolEvent, SessionManager};
use gbooster::sim::device::DeviceSpec;
use gbooster::sim::time::{SimDuration, SimTime};
use gbooster::telemetry::names;
use gbooster::telemetry::sample::KeepReason;

fn chaos_config() -> FabricConfig {
    let pool = vec![
        DeviceSpec::nvidia_shield(),
        DeviceSpec::dell_optiplex_9010(),
        DeviceSpec::dell_m4600(),
    ];
    let mut cfg = FabricConfig::uniform(64, pool, 20_170_605);
    cfg.duration = SimDuration::from_secs(3);
    cfg.loss_scale = 1.0;
    for t in &mut cfg.tenants {
        t.fps = 10.0;
    }
    // Forced drain of the busiest node at the midpoint, plus a
    // kill/revive to open an incident window.
    cfg.drain_node(SimTime::from_millis(1_500), 0);
    cfg.events.push(PoolEvent::Kill {
        at: SimTime::from_millis(2_000),
        node: 1,
    });
    cfg.events.push(PoolEvent::Revive {
        at: SimTime::from_millis(2_500),
        node: 1,
    });
    cfg.observe_default();
    cfg
}

fn run() -> FabricReport {
    SessionManager::run(&chaos_config()).expect("chaos config is valid")
}

#[test]
fn retained_trace_set_is_byte_identical_across_runs() {
    let (a, b) = (run(), run());
    let sa = a.sampler.as_ref().expect("observer on");
    let sb = b.sampler.as_ref().expect("observer on");
    assert_eq!(sa.to_jsonl(), sb.to_jsonl(), "retained set must not drift");
    assert_eq!(sa.kept(), sb.kept());
    assert_eq!(sa.dropped(), sb.dropped());
    assert_eq!(sa.evictions(), sb.evictions());
    assert_eq!(a.slo_json(), b.slo_json());
    assert_eq!(a.prometheus(), b.prometheus());
    assert_eq!(a.timeline_json(), b.timeline_json());
    assert_eq!(a.clock_offsets_ms, b.clock_offsets_ms);
    // The query layer answers identically too.
    let at = SimTime::from_secs(3);
    for expr in [
        "fabric.sessions_admitted",
        "rate(fabric.uplink_bytes[2s])",
        "quantile(0.99, fabric.frame_latency[2s])",
        "topk(5, fabric.frame_latency{tenant=\"t000\"})",
        "avg_over_time(fabric.pool_utilization[2s])",
    ] {
        assert_eq!(
            a.query(expr, at).expect("query valid"),
            b.query(expr, at).expect("query valid"),
            "query {expr} must be deterministic"
        );
    }
}

#[test]
fn verdict_is_complete_and_budgets_hold() {
    let report = run();
    let sampler = report.sampler.as_ref().expect("observer on");
    // Every presented frame faced the verdict.
    assert_eq!(
        sampler.kept() + sampler.dropped(),
        report.frames_presented,
        "every retired frame must be offered to the sampler"
    );
    assert!(sampler.kept() > 0, "chaos run must keep traces");
    assert!(sampler.dropped() > 0, "sampling must actually drop traces");
    // Generous default budget: nothing evicted, so the always-keep
    // classes are complete by construction.
    assert_eq!(sampler.evictions(), 0, "default budget must not evict here");
    // Budget safety, recomputed from the retained entries themselves.
    let mut per_tenant: BTreeMap<u32, u64> = BTreeMap::new();
    for e in sampler.retained() {
        *per_tenant.entry(e.tenant).or_insert(0) += e.bytes;
        assert_eq!(e.bytes as usize, e.line.len());
    }
    for (tenant, bytes) in per_tenant {
        assert!(
            bytes <= sampler.tenant_budget_bytes(),
            "tenant {tenant} over budget: {bytes}"
        );
        assert_eq!(bytes, sampler.tenant_bytes(tenant));
    }
    // The chaos scenario exercises all four keep classes.
    for want in [
        KeepReason::SloViolation,
        KeepReason::Incident,
        KeepReason::Migration,
        KeepReason::HeadSample,
    ] {
        assert!(
            sampler.retained().any(|e| e.reason == want),
            "no retained trace with reason {want:?}"
        );
    }
    // Retained SLO-violation traces really violated their SLO (100 ms).
    for e in sampler.retained() {
        if e.reason == KeepReason::SloViolation {
            assert!(e.latency_us as f64 / 1e3 > 100.0, "trace {}", e.trace_id);
        }
    }
    // Pool counters mirror the sampler tally.
    assert_eq!(
        report.telemetry.counter(names::tracing::SAMPLED_KEPT),
        sampler.kept()
    );
    assert_eq!(
        report.telemetry.counter(names::tracing::SAMPLED_DROPPED),
        sampler.dropped()
    );
    assert_eq!(
        report.telemetry.counter(names::tracing::BUDGET_EVICTIONS),
        sampler.evictions()
    );
}

#[test]
fn exemplar_trace_ids_resolve_to_retained_traces() {
    let report = run();
    let sampler = report.sampler.as_ref().expect("observer on");
    let pool_hist = report
        .telemetry
        .histogram(names::fabric::FRAME_LATENCY)
        .expect("pool latency histogram");
    let ex = pool_hist.exemplar().expect("kept frames tag an exemplar");
    assert!(
        sampler.is_retained(ex.tag),
        "pool exemplar {:#x} must resolve to a retained trace",
        ex.tag
    );
    let mut tenant_exemplars = 0;
    for (tenant, snap) in &report.tenant_telemetry {
        let hist = snap
            .histogram(names::fabric::FRAME_LATENCY)
            .expect("tenant latency histogram");
        if let Some(ex) = hist.exemplar() {
            tenant_exemplars += 1;
            assert!(
                sampler.is_retained(ex.tag),
                "tenant {tenant} exemplar {:#x} must resolve",
                ex.tag
            );
            // The id encodes the owning session: tenant + 1.
            assert_eq!(ex.tag >> 32, u64::from(*tenant) + 1);
        }
    }
    assert!(tenant_exemplars > 0, "some tenant must carry an exemplar");
}

#[test]
fn queries_reconcile_against_the_report() {
    let report = run();
    // The final ingest is stamped at the last event instant, which can
    // sit past the nominal 3 s horizon — query from a generous end time
    // so instant selectors see the closing sample.
    let at = SimTime::from_secs(10);
    // Instant scalar over the pool registry series.
    let rows = report.query("fabric.sessions_admitted", at).expect("valid");
    assert_eq!(
        rows,
        vec![(
            "fabric.sessions_admitted".to_string(),
            report.admitted as f64
        )]
    );
    // Instant histogram answers with its cumulative count.
    let rows = report.query("fabric.frame_latency", at).expect("valid");
    let pool_row = rows
        .iter()
        .find(|(name, _)| name == "fabric.frame_latency")
        .expect("pool series present");
    assert_eq!(pool_row.1, report.frames_presented as f64);
    // Tenant-labelled selectors reach per-tenant series.
    let rows = report
        .query("fabric.frame_latency{tenant=\"t000\"}", at)
        .expect("valid");
    assert_eq!(rows.len(), 1);
    let t0 = &report.tenants[0];
    assert_eq!(rows[0].1, t0.frames_presented as f64);
    // rate() over a cumulative counter is positive mid-run traffic.
    let rows = report
        .query("rate(fabric.uplink_bytes[10s])", at)
        .expect("valid");
    assert!(!rows.is_empty() && rows[0].1 > 0.0);
    // topk over the tenant gauge space returns k rows, sorted.
    let rows = report
        .query("topk(3, fabric.frame_latency)", at)
        .expect("valid");
    assert_eq!(rows.len(), 3);
    assert!(rows[0].1 >= rows[1].1 && rows[1].1 >= rows[2].1);
    // The TSDB self-metrics are exported as pool gauges. They are
    // stamped just before the closing snapshot, which itself is then
    // ingested — so the gauge trails the final series count slightly.
    let db = report.tsdb.as_ref().expect("observer on");
    let series_gauge = report.telemetry.gauge(names::tsdb::SERIES);
    assert!(series_gauge > 0.0);
    assert!(series_gauge <= db.series_count() as f64);
    // The timeline embeds the drain migrations and the kill incidents.
    let timeline = report.timeline_json();
    assert!(timeline.contains("\"kind\":\"migration_start\""));
    assert!(timeline.contains("\"kind\":\"incident\""));
    assert!(timeline.contains("\"kept\":"));
}

/// 64-bit FNV-1a, fed field by field with a separator so adjacent
/// fields cannot alias.
struct Fnv(u64);

impl Fnv {
    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Everything the chaos run reports that the event loop decides: the
/// SLO JSON, every TSDB series with its points, the TSDB tallies, the
/// sampler's kept lines, the fair-share windows, the tenant slices,
/// the migration timeline and any flight dump.
/// `Debug` renders every `f64` in round-trip form, so equal digests
/// mean bit-equal values.
fn report_digest(report: &FabricReport) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.feed(report.slo_json().as_bytes());
    let db = report.tsdb.as_ref().expect("observer on");
    for s in db.series() {
        h.feed(s.name().as_bytes());
        h.feed(format!("{:?}", s.labels()).as_bytes());
        h.feed(format!("{:?}", s.data()).as_bytes());
    }
    h.feed(&db.ingested().to_le_bytes());
    h.feed(&db.evicted().to_le_bytes());
    let sampler = report.sampler.as_ref().expect("observer on");
    for e in sampler.retained() {
        h.feed(e.line.as_bytes());
    }
    h.feed(format!("{:?}", report.windows).as_bytes());
    h.feed(format!("{:?}", report.tenants).as_bytes());
    h.feed(format!("{:?}", report.migrations).as_bytes());
    for dump in &report.flight {
        h.feed(dump.to_jsonl().as_bytes());
    }
    h.0
}

/// Golden for the event loop: the digest was captured from the
/// straightforward all-tenant-scan implementation, so any rewrite of
/// the loop must reproduce its schedule, RNG draws, TSDB contents and
/// kept traces exactly — not merely agree with itself across reruns.
#[test]
fn chaos_run_matches_the_golden_digest() {
    assert_eq!(report_digest(&run()), GOLDEN_DIGEST);
}

const GOLDEN_DIGEST: u64 = 0x3bf0_be35_06ec_ec26;

#[test]
fn observe_off_report_is_unchanged_and_queryless() {
    let mut cfg = chaos_config();
    cfg.observe = None;
    let off = SessionManager::run(&cfg).expect("valid");
    assert!(off.sampler.is_none());
    assert!(off.tsdb.is_none());
    assert!(off.clock_offsets_ms.is_empty());
    assert!(off
        .query("fabric.uplink_bytes", SimTime::from_secs(3))
        .is_err());
    // No trace.* / tsdb.* entries leak into an un-observed registry.
    assert_eq!(off.telemetry.counter(names::tracing::SAMPLED_KEPT), 0);
    assert!(!off
        .prometheus()
        .contains("gbooster_trace_clock_offset_ms{node="));
    // The observed run presents exactly the same frames: observation
    // is attribution-only and never changes the schedule.
    let on = run();
    assert_eq!(off.frames_presented, on.frames_presented);
    assert_eq!(off.p99_us, on.p99_us);
    assert_eq!(off.slo_json(), on.slo_json());
}
