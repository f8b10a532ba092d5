//! Property test for the bound scrape: streaming registries into a
//! [`Tsdb`] through [`Registry::scrape_into`] and its cached series ids
//! yields exactly the TSDB that recording every instrument by name
//! (`record` / `record_hist`, via [`Tsdb::ingest`] of a snapshot)
//! yields — across instruments registered mid-stream (binding
//! rebuilds), re-scrapes at the same instant (overwrites) and ring
//! eviction.

use gbooster_sim::time::{SimDuration, SimTime};
use gbooster_telemetry::tsdb::Tsdb;
use gbooster_telemetry::{Registry, ScrapeBinding};
use proptest::prelude::*;

/// Scalar names are shared by counters and gauges, histogram names by
/// plain and windowed histograms, so same-key writes are exercised too.
const SCALARS: [&str; 4] = ["c.frames", "c.bytes", "g.util", "x.shared"];
const HISTS: [&str; 3] = ["h.latency", "h.wait", "y.shared"];

/// Label sets of the three registries; the last one is unsorted.
const LABELS: [&[(&str, &str)]; 3] = [
    &[],
    &[("tenant", "t001")],
    &[("tenant", "t002"), ("pool", "a")],
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bound_scrape_equals_the_named_path(
        ops in proptest::collection::vec((0u8..7, 0usize..3, 0usize..4, 0u64..3_000_000), 1..200),
        slots in 1usize..6,
    ) {
        let regs = [Registry::new(), Registry::new(), Registry::new()];
        let mut bindings = vec![ScrapeBinding::default(); regs.len()];
        let mut bound = Tsdb::new(slots);
        let mut named = Tsdb::new(slots);
        let mut now = SimTime::ZERO;
        for (kind, r, i, v) in ops {
            let reg = &regs[r];
            match kind {
                0 => reg.counter(SCALARS[i]).add(v),
                1 => reg.gauge(SCALARS[i]).set(v as f64 / 7.0),
                2 => reg.histogram(HISTS[i % HISTS.len()]).record(v),
                3 => reg.histogram(HISTS[i % HISTS.len()]).record_tagged(v, v ^ 0x55),
                4 => reg
                    .windowed(HISTS[i % HISTS.len()], SimDuration::from_millis(100), 4)
                    .record(now, v),
                _ => {
                    // Advance by 0 (a re-scrape of the same instant) or
                    // a few milliseconds, then scrape every registry.
                    now += SimDuration::from_micros(v % 4 * 1_000);
                    for (k, reg) in regs.iter().enumerate() {
                        reg.scrape_into(&mut bound, now, LABELS[k], &mut bindings[k]);
                        named.ingest(now, LABELS[k], &reg.snapshot());
                    }
                    prop_assert_eq!(bound.series_count(), named.series_count());
                    prop_assert_eq!(bound.ingested(), named.ingested());
                    prop_assert_eq!(bound.evicted(), named.evicted());
                    prop_assert!(bound.series().eq(named.series()));
                    prop_assert_eq!(&bound, &named);
                }
            }
        }
    }
}

#[test]
fn registration_at_the_scrape_instant_rebuilds_and_overwrites() {
    let reg = Registry::new();
    let mut binding = ScrapeBinding::default();
    let (mut bound, mut named) = (Tsdb::new(2), Tsdb::new(2));
    let mut scrape = |at: SimTime, bound: &mut Tsdb, named: &mut Tsdb| {
        reg.scrape_into(bound, at, &[("tenant", "t000")], &mut binding);
        named.ingest(at, &[("tenant", "t000")], &reg.snapshot());
    };
    reg.counter("a").add(1);
    scrape(SimTime::from_millis(1), &mut bound, &mut named);
    // A new instrument and a changed value at the same instant.
    reg.histogram("b").record(5);
    reg.counter("a").add(1);
    scrape(SimTime::from_millis(1), &mut bound, &mut named);
    assert_eq!(bound.series_count(), 2);
    assert_eq!(bound.ingested(), 2, "same-instant points overwrite");
    // Three more instants through a two-slot ring: one eviction each
    // for both series after the ring fills.
    for ms in 2..5 {
        reg.histogram("b").record(ms);
        scrape(SimTime::from_millis(ms), &mut bound, &mut named);
    }
    assert_eq!(bound.evicted(), 4);
    assert_eq!(bound, named);
}
