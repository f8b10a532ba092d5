//! The GBooster benchmark: one workload per process.
//!
//! ```text
//! gbooster-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics for `--seconds`, with the
//! program's host profiler switched off; `--trace 1` measures the
//! per-layer metrics from outside the program (see `layers`). Either
//! mode checks the program's outputs, prints every metric by name with
//! its unit, and ends with one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! See README.md for the workloads and metrics.

mod alloc;
mod layers;
mod stats;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use gbooster_telemetry::prof;

use crate::alloc::Tally;
use crate::stats::median;
use crate::workload::{Checks, Instance, Workload, PAPER_G1_FPS};

/// Set-up runs (one simulated second each) per timed run; `setup_s` is
/// their median.
const SETUP_RUNS: usize = 5;

/// Full instances every timed run measures, however short `--seconds`.
const MIN_REPS: usize = 3;

/// Reconciliation self-test: the layer rows must explain the
/// end-to-end nanoseconds per frame to within this share of it. The
/// session engine's own work outside the replayed entry points
/// (`host.present`, span trees, the reference state apply) leaves
/// 40-50 % of a session's nanoseconds unattributed by design.
const RECONCILE_BOUND: f64 = 0.75;

/// One named measurement.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric::named(name.to_string(), value, unit)
    }

    pub fn named(name: String, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What one run prints.
struct Output {
    checks: Checks,
    notes: Vec<String>,
    metrics: Vec<Metric>,
}

impl Output {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.checks.failed == 0,
            self.checks.attempted,
            self.checks.failed,
            metrics.join(",")
        )
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 20_170_605;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {seconds} out of range (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} must be 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    Ok(Args {
        workload: workload.ok_or(format!("--workload is required (one of {names:?})"))?,
        seed,
        seconds,
        trace,
    })
}

/// Counts an `Err` from a run as a failed operation and passes an `Ok`
/// through, with its output checks recorded.
fn record<E: std::fmt::Display>(
    checks: &mut Checks,
    outcome: Result<Instance, E>,
) -> Option<Instance> {
    match outcome {
        Ok(o) => {
            checks.absorb(&o.checks());
            Some(o)
        }
        Err(e) => {
            checks.check(false, || format!("run failed: {e}"));
            None
        }
    }
}

/// The end-to-end run: set-up cost, then full instances for `seconds`.
fn timed(w: Workload, seed: u64, seconds: f64) -> Result<Output, String> {
    prof::set_enabled(false);
    let mut checks = Checks::default();
    let mut setup = Vec::with_capacity(SETUP_RUNS);
    for _ in 0..SETUP_RUNS {
        let t = Instant::now();
        let o = w.run(seed, 1);
        setup.push(t.elapsed().as_secs_f64());
        record(&mut checks, o);
    }

    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut rates = Vec::new();
    let mut reps = 0;
    let mut first = None;
    while reps < MIN_REPS || start.elapsed() < budget {
        reps += 1;
        let allocs = Tally::now();
        let run = w.run_timed(seed, w.full_secs());
        let allocs = allocs.elapsed();
        let (o, unit_rates) = match run {
            Ok(run) => run,
            Err(e) => {
                checks.check(false, || format!("run failed: {e}"));
                continue;
            }
        };
        checks.absorb(&o.checks());
        rates.extend(unit_rates);
        let print = o.fingerprint();
        match &first {
            None => first = Some((o, print, allocs)),
            Some((_, p, a)) => checks.check(*p == print && *a == allocs, || {
                format!(
                    "rerun of seed {seed} differs: same outputs {}, allocations {a:?} vs {allocs:?}",
                    *p == print
                )
            }),
        }
    }
    let peak_rss_mb = alloc::peak_rss_mb()?;
    let (instance, _, allocs) = first.ok_or("every full run failed")?;
    w.self_check(seed, &instance)?;
    let sim = instance.sim();
    let mut notes = Vec::new();
    if let Some((offered, refused)) = instance.admission() {
        notes.push(format!(
            "admission refused {refused} of {offered} tenants offered ({:.1}%)",
            100.0 * refused as f64 / offered.max(1) as f64
        ));
    }
    let frames = sim.frames.max(1) as f64;
    let metrics = vec![
        Metric::new("host_frames_per_s", median(&rates), "frames/s"),
        Metric::new(
            "alloc_bytes_per_frame",
            allocs.bytes as f64 / frames,
            "bytes",
        ),
        Metric::new("allocs_per_frame", allocs.allocs as f64 / frames, "count"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
        Metric::new("setup_s", median(&setup), "s"),
        Metric::new("sim_fps", sim.fps, "fps"),
        Metric::new("sim_response_ms", sim.response_ms, "ms"),
        Metric::new("sim_p99_frame_ms", sim.p99_frame_ms, "ms"),
        Metric::new(
            "sim_wire_bytes_per_frame",
            sim.wire_bytes_per_frame,
            "bytes",
        ),
    ];
    Ok(Output {
        checks,
        notes,
        metrics,
    })
}

/// The per-layer run.
fn traced(w: Workload, seed: u64) -> Result<Output, String> {
    prof::set_enabled(false);
    let mut checks = Checks::default();
    // Replay passes and engine pairs alternate, so both see the same
    // host conditions; each reports its median over the passes.
    let mut passes = Vec::with_capacity(layers::PAIRS);
    let mut pairs = Vec::with_capacity(layers::PAIRS);
    for _ in 0..layers::PAIRS {
        passes.push(layers::replay(w, seed, &mut checks)?);
        pairs.push(layers::engine_pair(w, seed)?);
    }
    let replay = layers::Replay::median(&passes);
    let engine = layers::Engine::new(pairs);
    let fabric = layers::fabric(w, seed)?;
    let instance = record(&mut checks, w.run(seed, w.full_secs())).ok_or("full run failed")?;
    w.self_check(seed, &instance)?;
    let sim = instance.sim();

    // Reconciliation: the layer rows add up to the end-to-end row. A
    // session's layers are the replayed entry points, weighted by how
    // often the engine calls each per presented frame; the fabric's
    // are its calibration and its event loop.
    let attributed = match w {
        Workload::Fabric => fabric.ns_per_frame,
        _ => replay
            .ns_per_call
            .iter()
            .map(|&(scope, ns)| ns * engine.calls_per_frame(scope))
            .sum(),
    };
    let unattributed = engine.e2e_ns_per_frame - attributed;
    checks.check(
        unattributed.abs() <= RECONCILE_BOUND * engine.e2e_ns_per_frame,
        || {
            format!(
                "reconciliation: layers explain {attributed:.0} of {:.0} ns per frame \
                 (bound ±{:.0}%)",
                engine.e2e_ns_per_frame,
                RECONCILE_BOUND * 100.0
            )
        },
    );

    let mut metrics = replay.metrics;
    metrics.extend(fabric.metrics);
    metrics.extend(engine.metrics);
    metrics.push(Metric::new(
        "engine.unattributed_ns_per_frame",
        unattributed,
        "ns",
    ));
    // Simulated outcomes defined on one kind of workload only; 0 where
    // not defined (see README.md).
    metrics.push(Metric::new(
        "sim_phone_j_per_frame",
        sim.phone_j_per_frame.unwrap_or(0.0),
        "J",
    ));
    metrics.push(Metric::new(
        "sim_sessions_per_node_at_slo",
        sim.sessions_per_node_at_slo
            .unwrap_or(fabric.report.sessions_per_node_at_slo),
        "sessions",
    ));
    let paper_err = if w == Workload::OffloadG1 {
        (sim.fps - PAPER_G1_FPS).abs() / PAPER_G1_FPS * 100.0
    } else {
        0.0
    };
    metrics.push(Metric::new("sim_fps_paper_err_pct", paper_err, "%"));
    Ok(Output {
        checks,
        notes: Vec::new(),
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        traced(args.workload, args.seed)
    } else {
        timed(args.workload, args.seed, args.seconds)
    };
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    if let Some(m) = out.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("error: metric {} is not finite ({})", m.name, m.value);
        return ExitCode::FAILURE;
    }
    for p in &out.checks.problems {
        eprintln!("check failed: {p}");
    }
    println!(
        "{} seed {} ({} mode): {} operations, {} failed",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "timed" },
        out.checks.attempted,
        out.checks.failed
    );
    for n in &out.notes {
        println!("  {n}");
    }
    for m in &out.metrics {
        println!("  {:<44} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", out.json());
    ExitCode::SUCCESS
}
