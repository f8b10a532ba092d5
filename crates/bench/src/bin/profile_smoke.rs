//! Host-time profiling smoke gate.
//!
//! Runs one offloaded smoke session under the scoped host profiler,
//! writes the collapsed-stack artifact (`BENCH_profile.collapsed`,
//! flamegraph.pl / inferno compatible), prints the top-N host-cost
//! table, and asserts the invariants CI relies on:
//!
//! * the collapsed export parses back line-by-line;
//! * at least 8 distinct scopes fired, spanning every pipeline group
//!   (serialize, codec, net, core);
//! * the profile reconciles — Σ self wall-µs never exceeds the
//!   session's wall time (self-times partition the session by
//!   construction);
//! * each forwarded wire is decoded once — `host.gles.decode` fires
//!   at most once per frame plus once for the setup stream, however
//!   many replicas ingest it;
//! * the profiler's own overhead stays far from pathological (the
//!   ≤5 % design target is printed; only a ≥50 % blowup hard-fails,
//!   since a single CI run of a sub-second session is noisy).
//!
//! Build with `--features host-prof` to also exercise the counting
//! allocator; without it the wall-clock scopes still run and the
//! allocation columns read zero.

use std::process::ExitCode;
use std::time::Instant;

use gbooster_bench::run_offloaded;
use gbooster_sim::device::DeviceSpec;
use gbooster_telemetry::{names, parse_collapsed, prof};
use gbooster_workload::games::GameTitle;

fn main() -> ExitCode {
    gbooster_bench::header("host-time profile smoke");

    // Overhead reference: the identical session with profiler
    // installation disabled, so every `prof_scope!` resolves to the
    // one-TLS-read-and-branch disabled path.
    prof::set_enabled(false);
    let t0 = Instant::now();
    let _ = run_offloaded(&GameTitle::g1_gta_san_andreas(), &DeviceSpec::nexus5());
    let unprofiled = t0.elapsed().as_secs_f64();
    prof::set_enabled(true);

    let t0 = Instant::now();
    let report = run_offloaded(&GameTitle::g1_gta_san_andreas(), &DeviceSpec::nexus5());
    let profiled = t0.elapsed().as_secs_f64();

    let Some(snap) = &report.host_profile else {
        eprintln!("error: offloaded session produced no host profile");
        return ExitCode::FAILURE;
    };

    println!("{}", report.host_report());
    let overhead_pct = if unprofiled > 0.0 {
        (profiled / unprofiled - 1.0) * 100.0
    } else {
        0.0
    };
    println!(
        "  session wall {:.1} ms profiled vs {:.1} ms unprofiled \
         (overhead {overhead_pct:+.1}%, design target <=5%)",
        profiled * 1000.0,
        unprofiled * 1000.0
    );
    for (gauge, label) in [
        (names::host::FRAMES_PER_SEC, "host frames/sec"),
        (names::host::NS_PER_FRAME, "host ns/frame (profiled)"),
        (names::host::ALLOC_BYTES_PER_FRAME, "alloc bytes/frame"),
    ] {
        println!("  {label:<28} {:>14.1}", report.telemetry.gauge(gauge));
    }
    if !snap.alloc_tracking {
        println!("  (counting allocator off — rebuild with --features host-prof)");
    }

    // The collapsed-stack artifact, then the invariants.
    let collapsed = report.host_collapsed_stack();
    let path = "BENCH_profile.collapsed";
    if let Err(e) = std::fs::write(path, &collapsed) {
        eprintln!("error: write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("\n  wrote {path} ({} lines)", collapsed.lines().count());

    let lines = match parse_collapsed(&collapsed) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: collapsed export failed to parse back: {e}");
            return ExitCode::FAILURE;
        }
    };
    let scopes = snap.scope_names();
    let groups: std::collections::BTreeSet<&str> = scopes
        .iter()
        .map(|n| gbooster_telemetry::prof::scope_group(n))
        .collect();
    let self_us: u64 = lines.iter().map(|l| l.weight).sum();
    let wall_us = (snap.wall_secs * 1e6) as u64;
    println!(
        "  {} scopes across groups {:?}; sum(self) {} us <= wall {} us",
        scopes.len(),
        groups,
        self_us,
        wall_us
    );

    let mut failed = false;
    if scopes.len() < 8 {
        eprintln!("FAIL: expected >=8 distinct scopes, saw {:?}", scopes);
        failed = true;
    }
    for g in prof::GROUPS {
        if !groups.contains(g) {
            eprintln!("FAIL: no scope from the {g:?} group fired");
            failed = true;
        }
    }
    if self_us > wall_us {
        eprintln!("FAIL: profile does not reconcile: sum(self) {self_us} us > wall {wall_us} us");
        failed = true;
    }
    let decodes: u64 = snap
        .paths
        .iter()
        .filter(|p| p.leaf() == names::host::GLES_DECODE)
        .map(|p| p.calls)
        .sum();
    println!(
        "  {decodes} wire decodes for {} frames (limit frames + 1)",
        report.frames
    );
    if decodes > report.frames + 1 {
        eprintln!(
            "FAIL: {decodes} wire decodes for {} frames: each wire must decode once",
            report.frames
        );
        failed = true;
    }
    if overhead_pct >= 50.0 {
        eprintln!("FAIL: pathological profiler overhead {overhead_pct:.1}%");
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!("\n  profile smoke: OK");
        ExitCode::SUCCESS
    }
}
