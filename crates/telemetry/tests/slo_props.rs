//! Property test for the SLO burn-rate evaluator: burn rates summed per
//! slot equal the burn rates of the merged window snapshot, bit for bit.

use gbooster_sim::time::{SimDuration, SimTime};
use gbooster_telemetry::hist::HistogramSnapshot;
use gbooster_telemetry::registry::WindowedHistogram;
use gbooster_telemetry::slo::SloObjective;
use proptest::prelude::*;

/// The burn rate of one window computed the way the evaluator used to:
/// merge the window's slots into one snapshot, then count over it.
fn merged_burn(obj: &SloObjective, snap: &HistogramSnapshot) -> f64 {
    if snap.count() == 0 {
        0.0
    } else {
        (snap.count_over(obj.threshold) as f64 / snap.count() as f64) / obj.budget
    }
}

/// Latency-like samples: mostly healthy, with spikes and the clamp.
fn latencies() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        prop_oneof![
            0u64..128,
            1_000u64..60_000,
            60_000u64..2_000_000,
            Just(u64::MAX),
        ],
        1..300,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn slot_summed_burn_equals_merged_window_burn(
        values in latencies(),
        gaps in proptest::collection::vec(0u64..80_000, 1..300),
        slot_ms in 1u64..250,
        aligned in any::<bool>(),
        retain in 1usize..64,
        threshold in 0u64..200_000,
        fast_slots in 1u64..12,
        extra_slots in 0u64..30,
        queries in proptest::collection::vec(0u64..4_000_000, 1..10),
    ) {
        let obj = SloObjective {
            name: "slo.prop",
            stream: "win.prop",
            unit: "us",
            threshold,
            budget: 0.05,
            // Windows of whole slots, give or take a millisecond.
            fast_window: SimDuration::from_millis(fast_slots * slot_ms + 1 - aligned as u64),
            slow_window: SimDuration::from_millis((fast_slots + extra_slots) * slot_ms + 1 - aligned as u64),
            fast_burn: 4.0,
            slow_burn: 2.0,
            warmup: SimDuration::ZERO,
        };
        let stream = WindowedHistogram::detached(SimDuration::from_millis(slot_ms), retain);
        let mut t = SimTime::ZERO;
        let mut checkpoints = Vec::new();
        for (i, (&v, gap)) in values.iter().zip(gaps.iter().cycle()).enumerate() {
            t += SimDuration::from_micros(*gap);
            stream.record(t, v);
            if i % 7 == 0 {
                checkpoints.push(t);
            }
        }
        // Sample instants, arbitrary instants, and slot boundaries.
        let slot_us = slot_ms * 1_000;
        let probes = checkpoints
            .into_iter()
            .chain(queries.iter().map(|&q| SimTime::from_micros(q)))
            .chain(queries.iter().map(|&q| SimTime::from_micros(q / slot_us * slot_us)));
        for now in probes {
            let state = obj.evaluate(now, &stream);
            let fast = stream.window(now, obj.fast_window);
            let slow = stream.window(now, obj.slow_window);
            prop_assert_eq!(state.fast_count, fast.count());
            prop_assert_eq!(state.slow_count, slow.count());
            prop_assert_eq!(state.fast_burn.to_bits(), merged_burn(&obj, &fast).to_bits());
            prop_assert_eq!(state.slow_burn.to_bits(), merged_burn(&obj, &slow).to_bits());
        }
    }
}
