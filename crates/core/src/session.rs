//! The end-to-end session engine reproducing the paper's evaluation.
//!
//! [`Session::run`] plays a configured workload for the configured
//! duration in one of three modes:
//!
//! * **Local** — the paper's baseline: the phone GPU renders every frame,
//!   heats up, and (for heavy genres) thermally throttles mid-session
//!   exactly as Fig. 1 shows.
//! * **Offloaded** — the full GBooster pipeline: interception → deferred
//!   serialization → LRU cache → LZ4 → dual-radio transport → Eq. 4
//!   dispatch across service devices (with state replication) → remote
//!   render → Turbo encode → downlink → decode → vsync display, with up
//!   to `buffer_depth` rendering requests in flight (the non-blocking
//!   `SwapBuffers` rewrite of Section VI-A).
//! * **Cloud** — the OnLive-style baseline of Section VII-F: remote
//!   rendering over a residential Internet path with a 30 FPS video
//!   encoder cap.

use std::collections::VecDeque;

use gbooster_gles::command::GlCommand;
use gbooster_gles::state::GlContext;
use gbooster_sim::display::{Display, FpsRecorder};
use gbooster_sim::gpu::{GpuModel, ThermalParams};
use gbooster_sim::power::{Component, PowerMeter};
use gbooster_sim::rng::derived;
use gbooster_sim::time::{SimDuration, SimTime};
use gbooster_telemetry::{
    names, prof, stitch_remote, AttributionLog, AttributionSnapshot, Counter, Fault, FlightDump,
    FlightRecorder, FrameTrace, Histogram, HostProfileSnapshot, HostProfiler, OpsReport, Registry,
    RemoteSpanLog, SpanNode, TelemetrySnapshot, TraceContext, TraceLog,
};
use gbooster_workload::tracegen::TraceGenerator;
use rand::rngs::StdRng;
use rand::Rng;

use crate::config::{
    CloudConfig, ExecutionMode, FaultInjection, LinkPartition, NodeEvent, OffloadConfig,
    SessionConfig, SloConfig,
};
use crate::error::GBoosterError;
use crate::forward::{CommandForwarder, ServiceReceiver};
use crate::health::{HealthConfig, HealthEvent, HealthMonitor};
use crate::metrics::{CpuLedger, ResponseTracker};
use crate::ops::OpsRuntime;
use crate::scheduler::{Dispatcher, ReorderBuffer, ServiceNode};
use crate::service::ServiceRuntime;
use crate::transport::{Transfer, TransportManager};
use crate::wrapper::Interceptor;

/// Local compositor/driver overhead per drawn frame (the phone GPU also
/// composites the UI; freed entirely when frames arrive from the network).
const COMPOSITOR: SimDuration = SimDuration::from_millis(2);

/// Phone-side serialization + LZ4 throughput, bytes/second on one core.
const FORWARD_BYTES_PER_SEC: f64 = 80e6;

/// Fixed per-frame interception/bookkeeping cost, seconds.
const FORWARD_FIXED_SECS: f64 = 0.0003;

/// Phone-side Turbo decode throughput, changed pixels/second.
const DECODE_PIXELS_PER_SEC: f64 = 60e6;

/// Display panel power at the paper's 50 % backlight, watts.
const DISPLAY_POWER_W: f64 = 0.4;

/// SoC base (RAM, sensors, rails) power, watts.
const BASE_POWER_W: f64 = 0.2;

/// RTT between user device and a service device on the evaluation LAN.
const LAN_RTT: SimDuration = SimDuration::from_millis(2);

/// Retransmit burst within a single frame that counts as a loss storm.
const LOSS_STORM_RETX: u64 = 50;

/// Unscheduled dispatch wait — wait the Eq. 4 scorer did not predict,
/// i.e. injected stalls or re-dispatch delays, never ordinary backlog
/// queueing — beyond this budget is a dispatch-timeout fault.
const DISPATCH_TIMEOUT: SimDuration = SimDuration::from_millis(50);

/// WiFi wake events within a single frame that count as flapping.
const FLAP_WAKES: u64 = 3;

/// Modeled retransmit burst a scheduled loss storm injects.
const INJECTED_STORM_RETX: u64 = 80;

/// Dispatch delay a scheduled stall injects (past [`DISPATCH_TIMEOUT`]).
const INJECTED_STALL: SimDuration = SimDuration::from_millis(80);

/// WiFi power cycles a scheduled interface flap injects.
const INJECTED_FLAP_CYCLES: u32 = 4;

/// Warm-up window a rejoined node serves under an Eq. 4 score penalty
/// after its state resync lands (see
/// [`crate::scheduler::Dispatcher::revive_node`]).
const REJOIN_WARMUP: SimDuration = SimDuration::from_millis(50);

/// Results of one played session.
#[derive(Clone, Debug)]
pub struct SessionReport {
    /// Workload name.
    pub workload: String,
    /// User device name.
    pub device: String,
    /// Mode label ("local", "gbooster(n)", "cloud").
    pub mode: String,
    /// Median FPS (Section VII-B).
    pub median_fps: f64,
    /// FPS stability: fraction of the session within ±20 % of the median.
    pub stability: f64,
    /// Standard deviation of the inter-frame interval, milliseconds
    /// (the paper's "FPS jitter").
    pub frame_jitter_ms: f64,
    /// Average response time per Eq. 5, milliseconds.
    pub response_time_ms: f64,
    /// Mean offloading overhead `t_p`, milliseconds (0 for local).
    pub mean_tp_ms: f64,
    /// Phone energy ledger.
    pub energy: PowerMeter,
    /// Whole-chip CPU utilization in `[0, 1]`.
    pub cpu_utilization: f64,
    /// Uplink bytes (commands).
    pub uplink_bytes: u64,
    /// Downlink bytes (frames).
    pub downlink_bytes: u64,
    /// Average offered network load, Mbps.
    pub avg_mbps: f64,
    /// WiFi wake events.
    pub wifi_wakes: u32,
    /// Bytes carried over WiFi.
    pub wifi_bytes: u64,
    /// Bytes carried over Bluetooth.
    pub bt_bytes: u64,
    /// Frames degraded by radio mispredictions.
    pub degraded_fraction: f64,
    /// Frames displayed.
    pub frames: u64,
    /// GBooster's extra memory footprint on the phone, megabytes.
    pub extra_memory_mb: f64,
    /// Per-service-device request counts (empty for local/cloud).
    pub per_device_requests: Vec<u64>,
    /// True if all service-device GL context replicas ended bit-identical.
    pub state_consistent: bool,
    /// Simulated wall-clock covered.
    pub duration: SimDuration,
    /// End-of-session snapshot of every counter, gauge and per-stage
    /// latency histogram recorded during the run.
    pub telemetry: TelemetrySnapshot,
    /// Per-displayed-frame span trees (offloaded mode only; empty for
    /// local and cloud runs, which have no offload pipeline to trace).
    pub trace: TraceLog,
    /// The (service − user) clock offset the transport estimated from
    /// RUDP ack timestamps, µs (offloaded mode only).
    pub clock_offset_us: Option<i64>,
    /// The flight recorder's postmortem, if a fault fired during the
    /// session (offloaded mode only; at most one by construction).
    pub flight: Option<FlightDump>,
    /// Resource attribution: uplink bytes by GL category × cache
    /// outcome, downlink bytes by frame kind, sim time and joules by
    /// stage × node × interface (offloaded mode only; empty otherwise).
    pub attribution: AttributionSnapshot,
    /// Live-ops output: correlated incident records, the structured
    /// event journal, per-alert summaries, and the anomaly count
    /// (offloaded mode only; empty for local and cloud runs).
    pub ops: OpsReport,
    /// Host-time (wall-clock) profile of the simulator process itself:
    /// collapsed scope paths with self/total wall time plus allocation
    /// counts when the `host-prof` feature is on (offloaded mode only;
    /// `None` for local and cloud runs).
    pub host_profile: Option<HostProfileSnapshot>,
}

impl SessionReport {
    /// Phone energy normalized to a baseline report (Fig. 6's
    /// presentation).
    pub fn normalized_energy(&self, baseline: &SessionReport) -> f64 {
        self.energy.normalized_to(&baseline.energy)
    }

    /// The human-readable end-of-session telemetry report.
    pub fn telemetry_report(&self) -> String {
        self.telemetry.render_report()
    }

    /// The frame trace as JSON Lines (one span tree per displayed frame).
    pub fn frame_trace_jsonl(&self) -> String {
        self.trace.to_jsonl()
    }

    /// Top-N attribution tables: where the session's bytes,
    /// microseconds, and joules went.
    pub fn attribution_report(&self) -> String {
        self.attribution.render_top(10)
    }

    /// The human-readable incident postmortem (alert summaries plus one
    /// causally-ordered timeline per correlated incident).
    pub fn ops_postmortem(&self) -> String {
        self.ops.render_postmortem()
    }

    /// The session's incident records as JSON Lines (one per incident).
    pub fn incidents_jsonl(&self) -> String {
        self.ops.incidents_jsonl()
    }

    /// The full structured ops-event journal as JSON Lines.
    pub fn ops_events_jsonl(&self) -> String {
        self.ops.events_jsonl()
    }

    /// Top-N host-cost table: where the simulator's own wall-clock
    /// microseconds and heap allocations went (the wall-clock mirror of
    /// [`attribution_report`](Self::attribution_report); empty unless
    /// the session was offloaded).
    pub fn host_report(&self) -> String {
        match &self.host_profile {
            Some(p) => p.render_top(10),
            None => String::new(),
        }
    }

    /// The host profile as collapsed-stack text, one `path;sub weight`
    /// line per scope path (flamegraph.pl / inferno compatible; empty
    /// unless the session was offloaded).
    pub fn host_collapsed_stack(&self) -> String {
        match &self.host_profile {
            Some(p) => gbooster_telemetry::collapsed_stack(p),
            None => String::new(),
        }
    }
}

impl std::fmt::Display for SessionReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<22} {:<12} {:>10} | fps {:>5.1} stab {:>4.0}% resp {:>6.1}ms | {:>6.2} W | up {:>7.2} MB down {:>7.2} MB",
            self.workload,
            self.device,
            self.mode,
            self.median_fps,
            self.stability * 100.0,
            self.response_time_ms,
            self.energy.average_power_w(),
            self.uplink_bytes as f64 / 1e6,
            self.downlink_bytes as f64 / 1e6,
        )
    }
}

/// The session runner.
#[derive(Debug)]
pub struct Session;

impl Session {
    /// Plays the configured session to completion.
    ///
    /// # Panics
    ///
    /// Panics on invalid configuration or internal pipeline errors; use
    /// [`Session::try_run`] to handle them.
    pub fn run(config: &SessionConfig) -> SessionReport {
        Self::try_run(config).expect("session failed")
    }

    /// Plays the configured session, surfacing errors.
    ///
    /// # Errors
    ///
    /// Returns configuration errors or pipeline faults (GL, wire, codec).
    pub fn try_run(config: &SessionConfig) -> Result<SessionReport, GBoosterError> {
        config.validate()?;
        match &config.mode {
            ExecutionMode::Local => Ok(run_local(config)),
            ExecutionMode::Offloaded(off) => run_offloaded(config, off),
            ExecutionMode::Cloud(cloud) => Ok(run_cloud(config, cloud)),
        }
    }
}

fn encoded_bytes(runtimes: &[ServiceRuntime], changed_px: u64) -> usize {
    runtimes[0].encoded_bytes(changed_px)
}

/// Pre-resolved per-stage latency histogram handles for the offload
/// pipeline (one per [`names::stage::PIPELINE`] entry plus the total).
struct StageHists {
    intercept: Histogram,
    resolve: Histogram,
    cache: Histogram,
    lz4: Histogram,
    uplink: Histogram,
    dispatch_wait: Histogram,
    render: Histogram,
    encode: Histogram,
    downlink: Histogram,
    decode: Histogram,
    display_wait: Histogram,
    total: Histogram,
}

impl StageHists {
    fn new(registry: &Registry) -> Self {
        StageHists {
            intercept: registry.histogram(names::stage::INTERCEPT),
            resolve: registry.histogram(names::stage::RESOLVE),
            cache: registry.histogram(names::stage::CACHE),
            lz4: registry.histogram(names::stage::LZ4),
            uplink: registry.histogram(names::stage::UPLINK),
            dispatch_wait: registry.histogram(names::stage::DISPATCH_WAIT),
            render: registry.histogram(names::stage::RENDER),
            encode: registry.histogram(names::stage::ENCODE),
            downlink: registry.histogram(names::stage::DOWNLINK),
            decode: registry.histogram(names::stage::DECODE),
            display_wait: registry.histogram(names::stage::DISPLAY_WAIT),
            total: registry.histogram(names::stage::TOTAL),
        }
    }
}

/// Splits the variable (per-byte) part of the phone-side forwarding cost
/// across its three sub-stages. The fractions attribute the measured
/// profile of the pipeline — deferred resolution dominates, the LRU probe
/// is cheap, LZ4 takes the rest — while the sum stays exactly the
/// `forward_secs` the simulation already charges, so attribution never
/// changes timing.
const FORWARD_RESOLVE_FRAC: f64 = 0.45;
const FORWARD_CACHE_FRAC: f64 = 0.15;

fn scaled_thermal(base: ThermalParams, compression: f64) -> ThermalParams {
    ThermalParams {
        heat_rate: base.heat_rate * compression,
        cool_rate: base.cool_rate * compression,
        ..base
    }
}

fn run_local(config: &SessionConfig) -> SessionReport {
    let (w, h) = config.local_render_resolution;
    let mut gen = TraceGenerator::new(
        config.workload.profile.clone(),
        config.workload.intensity,
        w,
        h,
        config.seed,
    );
    gen.setup_trace();
    let dev = &config.user_device;
    let mut gpu = GpuModel::with_thermal(
        dev.gpu.clone(),
        scaled_thermal(
            if dev.gpu.active_cooling {
                ThermalParams::active()
            } else {
                ThermalParams::passive()
            },
            config.thermal_time_compression,
        ),
    );
    let mut display = Display::new(60, w, h);
    let mut fps = FpsRecorder::new();
    let mut meter = PowerMeter::new();
    let mut ledger = CpuLedger::new(dev.cpu.cores);
    let mut duty_rng = derived(config.seed, "duty");
    let duration = SimTime::from_secs(config.duration_secs);
    // The driver pipelines CPU and GPU across frames: frame i+1's game
    // logic overlaps frame i's rasterization, bounded by double
    // buffering (at most 2 frames in flight before a swap completes).
    let mut app_free = SimTime::ZERO;
    let mut gpu_free = SimTime::ZERO;
    let mut gpu_busy_backlog = 0.0f64;
    let mut shown_prev: VecDeque<SimTime> = VecDeque::new();
    let mut last_shown = SimTime::ZERO;
    let mut dt_est = 1.0 / 30.0;

    while last_shown < duration {
        let mut start = app_free;
        if shown_prev.len() >= 2 {
            start = start.max(shown_prev[shown_prev.len() - 2]);
        }
        let trace = gen.next_frame(dt_est);
        let animate = duty_rng.gen_bool(config.workload.profile.animation_duty);
        let cpu_secs = trace.cpu_gcycles / dev.cpu.clock_ghz;
        let app_done = start + SimDuration::from_secs_f64(cpu_secs);
        let frame_end;
        let mut gpu_time = SimDuration::ZERO;
        if animate {
            app_free = app_done;
            gpu_time = gpu.render_time(trace.effective_fill, 1.0) + COMPOSITOR;
            let gpu_start = app_done.max(gpu_free);
            let gpu_done = gpu_start + gpu_time;
            gpu_free = gpu_done;
            let shown = display.present(gpu_done);
            // FPS counts content updates; an idle UI refresh repeats the
            // previous frame (Table III semantics).
            fps.record(shown);
            shown_prev.push_back(shown);
            if shown_prev.len() > 4 {
                shown_prev.pop_front();
            }
            frame_end = shown;
        } else {
            // No redraw this choreographer tick: the app sleeps until the
            // next vsync; the display repeats the old frame without
            // consuming a fresh buffer slot.
            let tick = start + display.vsync_period();
            app_free = app_done.max(tick);
            frame_end = tick;
        }
        let elapsed = (frame_end.max(last_shown) - last_shown).max(SimDuration::from_micros(1));
        // Carry GPU busy time as a backlog so vsync quantization of the
        // per-frame interval cannot under-report a saturated GPU.
        gpu_busy_backlog += gpu_time.as_secs_f64();
        let used = gpu_busy_backlog.min(elapsed.as_secs_f64());
        gpu_busy_backlog -= used;
        let util = (used / elapsed.as_secs_f64()).min(1.0);
        let joules = gpu.step(elapsed, util);
        meter.record_joules(Component::Gpu, joules);
        let cpu_util = (cpu_secs / elapsed.as_secs_f64() / dev.cpu.cores as f64).min(1.0);
        meter.record(
            Component::Cpu,
            dev.cpu.idle_power_w + (dev.cpu.max_power_w - dev.cpu.idle_power_w) * cpu_util,
            elapsed,
        );
        meter.record(Component::Display, DISPLAY_POWER_W, elapsed);
        meter.record(Component::Base, BASE_POWER_W, elapsed);
        ledger.add_busy(cpu_secs);
        dt_est = 0.9 * dt_est + 0.1 * elapsed.as_secs_f64();
        last_shown = frame_end.max(last_shown);
    }

    let total = last_shown - SimTime::ZERO;
    meter.advance(total);
    let cpu_util = ledger.utilization(total.as_secs_f64());
    let registry = Registry::new();
    record_session_counters(&registry, fps.frame_count() as u64, &ledger, cpu_util);
    SessionReport {
        workload: config.workload.name.clone(),
        device: dev.name.to_string(),
        mode: "local".into(),
        median_fps: fps.median_fps(),
        stability: fps.stability(),
        frame_jitter_ms: fps.interval_jitter_ms(),
        response_time_ms: ResponseTracker::new().response_time_ms(fps.median_fps()),
        mean_tp_ms: 0.0,
        energy: meter,
        cpu_utilization: cpu_util,
        uplink_bytes: 0,
        downlink_bytes: 0,
        avg_mbps: 0.0,
        wifi_wakes: 0,
        wifi_bytes: 0,
        bt_bytes: 0,
        degraded_fraction: 0.0,
        frames: fps.frame_count() as u64,
        extra_memory_mb: 0.0,
        per_device_requests: Vec::new(),
        state_consistent: true,
        duration: total,
        telemetry: registry.snapshot(),
        trace: TraceLog::default(),
        clock_offset_us: None,
        flight: None,
        attribution: AttributionSnapshot::default(),
        ops: OpsReport::default(),
        host_profile: None,
    }
}

/// Records the session-level counters every mode shares: displayed
/// frames, total busy core time, and the whole-chip utilization gauge.
fn record_session_counters(registry: &Registry, frames: u64, ledger: &CpuLedger, cpu_util: f64) {
    registry
        .counter(names::session::FRAMES_DISPLAYED)
        .add(frames);
    registry
        .counter(names::session::CPU_BUSY_US)
        .add((ledger.busy_core_secs() * 1e6).round() as u64);
    registry
        .gauge(names::session::CPU_UTILIZATION)
        .set(cpu_util);
}

/// One frame issued into the offload pipeline and not yet presented.
///
/// Everything needed to present the frame later travels with it: the
/// phone-side span boundaries, the uplink transfer, the dispatch
/// booking, and the dispatch target's decoded commands (kept so a node
/// failure can re-execute the draws on the next-best node).
struct PendingFrame {
    seq: u64,
    ctx: TraceContext,
    start: SimTime,
    fwd_start: SimTime,
    intercept_end: SimTime,
    resolve_end: SimTime,
    cache_end: SimTime,
    app_done: SimTime,
    up: Transfer,
    /// Dispatch wait the Eq. 4 scheduler did *not* predict: injected
    /// stalls at issue time plus any extra wait a mid-flight re-dispatch
    /// added. Predicted backlog queueing on a busy node is normal under
    /// pipelining and never counts toward the timeout detector.
    unscheduled_wait: SimDuration,
    dispatch_start: SimTime,
    finish: SimTime,
    node: usize,
    encode: SimDuration,
    changed_px: u64,
    down_bytes: usize,
    /// True when the frame's downlink carries a JPEG-style keyframe
    /// (scene change) rather than a Turbo tile-delta.
    keyframe: bool,
    fill: u64,
    app_secs: f64,
    commands: Vec<GlCommand>,
    /// True when the frame rendered on the phone GPU — the graceful-
    /// degradation path. Local frames never cross the radio: no
    /// downlink receive, no dispatcher completion, no remote spans.
    local: bool,
}

impl PendingFrame {
    /// When the frame's downlink starts. Turbo tiles stream out as they
    /// are encoded, so the transfer overlaps all but the encode tail.
    /// (Local frames have a zero encode: this is their finish instant.)
    fn down_start(&self) -> SimTime {
        self.finish - self.encode * 0.7
    }
}

/// A frame whose downlink completed, waiting in the reorder buffer for
/// its predecessors (Section VI-C's in-order presentation).
struct ArrivedFrame {
    p: PendingFrame,
    down: Transfer,
}

/// The pipelined offload engine (Section VI-A's non-blocking
/// `SwapBuffers`).
///
/// Frames are *issued* — game logic, serialization, uplink, Eq. 4
/// dispatch — ahead of their presentation, bounded by two windows: the
/// driver's internal buffer (`buffer_depth`, gates the modeled start
/// time) and the hard in-flight cap (`max_inflight`, stalls issuing and
/// counts under `sched.window_stalls`). Results are received in
/// network-completion order — with several service devices a fast node
/// can finish frame `s+1` before a slow node finishes `s` — and pass
/// through a [`ReorderBuffer`] so presentation is always in sequence
/// order with no gaps.
struct OffloadEngine {
    // Pipeline components.
    gen: TraceGenerator,
    interceptor: Interceptor,
    forwarder: CommandForwarder,
    runtimes: Vec<ServiceRuntime>,
    dispatcher: Dispatcher,
    transport: TransportManager,
    display: Display,
    fps: FpsRecorder,
    ledger: CpuLedger,
    duty_rng: StdRng,
    // Observability.
    registry: Registry,
    trace_log: TraceLog,
    remote_log: RemoteSpanLog,
    stages: StageHists,
    remote_hists: Vec<Histogram>,
    flight: FlightRecorder,
    c_degraded: Counter,
    c_idle: Counter,
    c_stitched: Counter,
    c_clamped: Counter,
    c_faults: Counter,
    c_dumps: Counter,
    c_retx: Counter,
    c_wakes: Counter,
    c_redispatch: Counter,
    c_window_stalls: Counter,
    c_node_failures: Counter,
    c_frames_local: Counter,
    c_rejoins: Counter,
    c_resync_bytes: Counter,
    c_resync_saved: Counter,
    c_fallback_engagements: Counter,
    local_render_hist: Histogram,
    /// Resource-attribution sink shared with the forwarder and transport
    /// taps; the engine adds the stage-time and downlink-kind axes.
    attr: AttributionLog,
    /// Attribution label of each service node (`node{j}`).
    node_labels: Vec<String>,
    /// The live-ops runtime: windowed streams, SLO burn-rate alerting,
    /// anomaly detection, and incident correlation (`None` when the
    /// ops layer is disabled in config).
    ops: Option<OpsRuntime>,
    // Session constants.
    session_id: u64,
    frame_pixels: u64,
    animation_duty: f64,
    idle_cpu_secs: f64,
    cpu_clock_ghz: f64,
    texture_count: u32,
    buffer_depth: usize,
    max_inflight: usize,
    redispatch_timeout: SimDuration,
    faults: FaultInjection,
    duration: SimTime,
    // Pipeline state.
    node_dead: Vec<bool>,
    node_loss_pending: bool,
    retx_base: u64,
    wakes_base: u64,
    pending: Vec<PendingFrame>,
    arrived: ReorderBuffer<ArrivedFrame>,
    /// Reused drain buffer for `arrived`.
    ready: Vec<ArrivedFrame>,
    presented: Vec<SimTime>,
    next_seq: u64,
    app_free: SimTime,
    decode_free: SimTime,
    last_shown: SimTime,
    dt_est: f64,
    // Session resilience: health-monitored pool, rejoin resync, and the
    // local-render fallback (docs/RESILIENCE.md).
    health: HealthMonitor,
    /// Ground-truth node power state driven by the injected event
    /// schedule (a partitioned node stays up — only its probes drop).
    node_up: Vec<bool>,
    /// Fault schedule sorted by (frame, node); `next_event` indexes the
    /// first not-yet-applied entry.
    node_events: Vec<NodeEvent>,
    next_event: usize,
    partitions: Vec<LinkPartition>,
    /// Phone-side reference GL state: every forwarded wire frame's
    /// state-mutating commands also apply here (and, with the radio
    /// fully down, raw state commands apply directly), so a rejoining
    /// node can be brought current with one snapshot transfer instead of
    /// a history replay.
    reference_ctx: GlContext,
    /// The reference state right after the setup stream: the immutable
    /// segment every replica holds (and keeps across death — shared
    /// segments are content-addressed). Rejoin resyncs ship only the
    /// delta against this baseline.
    setup_snapshot: gbooster_gles::state::StateSnapshot,
    /// Phone-side mirror of the sender's LRU dictionary, and of every
    /// replica's receiver: each forwarded wire is decoded once, here,
    /// for all of them. A clone hands a rejoining node a decoder that
    /// resolves future `Ref` tokens.
    reference_rx: ServiceReceiver,
    slo: SloConfig,
    /// Frame-latency EWMA in ms (0 = no samples yet / reset on release).
    latency_ewma: f64,
    breach_streak: u32,
    fallback: bool,
    fallback_since: SimTime,
    /// Local frames issued since the fallback engaged (the release dwell).
    fallback_frames: u32,
    fallback_secs: f64,
    /// Phone GPU queue for local renders.
    local_gpu_free: SimTime,
    phone_gpu: GpuModel,
    phone_gpu_busy_secs: f64,
    // One-shot detector flags consumed by the next presented frame.
    all_lost_pending: bool,
    fallback_pending: bool,
    rejoin_pending: bool,
}

impl OffloadEngine {
    /// One choreographer tick: enforce the two run-ahead windows, then
    /// either idle (no redraw) or issue the next frame into the pipeline.
    fn tick(&mut self) -> Result<(), GBoosterError> {
        gbooster_telemetry::prof_scope!(names::host::TICK);
        let mut start = self.app_free;
        let s = self.next_seq;
        // Non-blocking SwapBuffers: the app may run ahead, but frame `s`
        // cannot start before frame `s - buffer_depth` was presented
        // (the driver's internal buffer holds at most `buffer_depth`
        // rendering requests — Section VI-A).
        let bd = self.buffer_depth as u64;
        if s >= bd {
            while (self.presented.len() as u64) < s - bd + 1 {
                self.retire_one();
            }
            start = start.max(self.presented[(s - bd) as usize]);
        }
        // The hard in-flight cap: dispatched, in transit, or held for
        // reordering. Retiring a frame to free a slot is a window stall.
        let wi = self.max_inflight as u64;
        if s >= wi {
            while (self.presented.len() as u64) < s - wi + 1 {
                self.c_window_stalls.inc();
                self.retire_one();
            }
            start = start.max(self.presented[(s - wi) as usize]);
        }
        let animate = self.duty_rng.gen_bool(self.animation_duty);
        if !animate {
            // UI apps idle between interactions: the app still runs its
            // per-tick logic but issues no GL commands, so nothing is
            // offloaded and the previous frame stays on screen.
            self.ledger.add_busy(self.idle_cpu_secs);
            self.c_idle.inc();
            let tick = start + self.display.vsync_period();
            self.app_free = tick;
            self.last_shown = self.last_shown.max(tick);
            return Ok(());
        }
        self.issue_frame(start)
    }

    /// Issues frame `next_seq`. The resilience layer runs first — the
    /// injected event schedule, liveness probes (with node rejoin), and
    /// the SLO hysteresis — then the frame takes one of two paths:
    /// the offload pipeline (game logic, interception, serialization,
    /// LZ4, uplink, Eq. 4 dispatch, state replication to every live
    /// device), or the local-render fallback. Either way the frame stays
    /// pending until it is retired.
    fn issue_frame(&mut self, start: SimTime) -> Result<(), GBoosterError> {
        gbooster_telemetry::prof_scope!(names::host::ISSUE);
        let seq = self.next_seq;
        self.next_seq += 1;
        let trace = self.gen.next_frame(self.dt_est);
        for cmd in &trace.commands {
            self.interceptor.intercept(cmd);
        }
        // This frame's trace context, carried (conceptually) in every
        // datagram the frame produces on the wire.
        let ctx = TraceContext::new(self.session_id, seq, 1);
        self.apply_node_events(seq, start);
        self.run_health(seq, start)?;
        self.maybe_release_fallback(start);
        if self.dispatcher.alive_nodes() == 0 && !self.fallback {
            // An empty pool engages the fallback immediately — there is
            // nobody left to render, so waiting out the SLO streak would
            // just stall the display.
            self.engage_fallback(start, "pool_empty");
        }
        if self.fallback {
            return self.issue_local_frame(seq, ctx, start, &trace);
        }
        let stall = if self.faults.dispatch_stall_at_frame == Some(seq) {
            INJECTED_STALL
        } else {
            SimDuration::ZERO
        };

        // Phone CPU: game logic + interception + serialization + LZ4.
        let fwd = self
            .forwarder
            .forward_frame(&trace.commands, self.gen.client_memory())?;
        let forward_secs = FORWARD_FIXED_SECS + fwd.raw_bytes as f64 / FORWARD_BYTES_PER_SEC;
        let app_secs = trace.cpu_gcycles / self.cpu_clock_ghz + forward_secs;
        let app_done = start + SimDuration::from_secs_f64(app_secs);
        self.app_free = app_done;

        // Uplink over the predictor-managed radios.
        let textures_used = self.texture_count + if trace.scene_change { 2 } else { 0 };
        self.transport.on_frame(trace.touches, textures_used);
        let up = self.transport.send(fwd.wire.len(), app_done);
        self.transport.begin_frame_transfer(ctx);

        // Eq. 4 dispatch; replicate state to every live device and to the
        // phone-side reference (the resync source for rejoining nodes).
        let changed_px = (trace.changed_pixel_ratio * self.frame_pixels as f64).round() as u64;
        let encode = self.runtimes[0].encode_time(self.frame_pixels, changed_px);
        let dispatch_at = up.delivered_at + stall;
        let decision = self.dispatcher.dispatch_for(
            self.session_id,
            seq,
            trace.effective_fill,
            encode,
            dispatch_at,
        );
        debug_assert!(!self.node_dead[decision.node], "dispatch to a dead node");
        let commands = self.replicate_wire(&fwd.wire, Some(decision.node))?;

        // Phone-side span boundaries. The forwarding cost splits into its
        // sub-stages; the last one ends exactly at `app_done` so integer-
        // microsecond rounding never leaks into the total.
        let fwd_start = start + SimDuration::from_secs_f64(trace.cpu_gcycles / self.cpu_clock_ghz);
        let var_secs = fwd.raw_bytes as f64 / FORWARD_BYTES_PER_SEC;
        let intercept_end = fwd_start + SimDuration::from_secs_f64(FORWARD_FIXED_SECS);
        let resolve_end =
            intercept_end + SimDuration::from_secs_f64(var_secs * FORWARD_RESOLVE_FRAC);
        let cache_end = resolve_end + SimDuration::from_secs_f64(var_secs * FORWARD_CACHE_FRAC);

        self.pending.push(PendingFrame {
            seq,
            ctx,
            start,
            fwd_start,
            intercept_end,
            resolve_end,
            cache_end,
            app_done,
            up,
            unscheduled_wait: stall,
            dispatch_start: decision.start,
            finish: decision.finish,
            node: decision.node,
            encode,
            changed_px,
            down_bytes: encoded_bytes(&self.runtimes, changed_px),
            keyframe: trace.scene_change,
            fill: trace.effective_fill,
            app_secs,
            commands,
            local: false,
        });
        Ok(())
    }

    /// Applies every scheduled node event whose frame has arrived: hard
    /// kills (observed out-of-band — no probe walk), revivals (probes
    /// start answering; the health monitor drives the actual rejoin),
    /// and capability brownouts.
    fn apply_node_events(&mut self, seq: u64, now: SimTime) {
        while let Some(&ev) = self.node_events.get(self.next_event) {
            if ev.frame() > seq {
                break;
            }
            self.next_event += 1;
            match ev {
                NodeEvent::Kill { node, .. } => {
                    self.node_up[node] = false;
                    if !self.node_dead[node] {
                        self.health.force_dead(node, now);
                        self.kill_node(node, now);
                    }
                }
                NodeEvent::Revive { node, .. } => {
                    self.node_up[node] = true;
                }
                NodeEvent::Degrade { node, factor, .. } => {
                    self.dispatcher.degrade_node(node, factor);
                    if let Some(ops) = &mut self.ops {
                        ops.on_degrade(now, node, factor);
                    }
                }
            }
        }
    }

    /// True when node `j`'s probe channel is inside a scheduled
    /// partition window at frame `seq`.
    fn partitioned(&self, j: usize, seq: u64) -> bool {
        self.partitions
            .iter()
            .any(|p| p.node == j && p.from_frame <= seq && seq < p.until_frame)
    }

    /// Runs one round of liveness probes (those whose backoff deadline
    /// arrived) and reacts to the transitions: probe-detected deaths
    /// evict the node and orphan its frames; answered probes from a dead
    /// node trigger the rejoin resync.
    fn run_health(&mut self, seq: u64, now: SimTime) -> Result<(), GBoosterError> {
        for j in 0..self.node_up.len() {
            if !self.health.probe_due(j, now) {
                continue;
            }
            let responsive = self.node_up[j] && !self.partitioned(j, seq);
            let rtt = responsive.then(|| {
                // The LAN RTT plus a deterministic sub-millisecond spread
                // (no RNG: replays must be byte-identical).
                LAN_RTT + SimDuration::from_micros((seq * 31 + j as u64 * 17) % 500)
            });
            for ev in self.health.observe(j, now, rtt) {
                match ev {
                    HealthEvent::Suspected(_) | HealthEvent::Recovered(_) => {}
                    HealthEvent::Died(n) => {
                        if !self.node_dead[n] {
                            self.kill_node(n, now);
                        }
                    }
                    HealthEvent::RejoinReady(n) => self.rejoin_node(n, now)?,
                }
            }
        }
        Ok(())
    }

    /// Brings a dead-but-responsive node current with a one-shot state
    /// resync — a snapshot of the phone-side reference GL state plus a
    /// clone of the reference receiver (so future LRU `Ref` tokens
    /// resolve) — and re-admits it to the dispatch pool with a warm-up
    /// penalty once the transfer lands. O(state), not O(history): the
    /// command log since the node died is never replayed.
    fn rejoin_node(&mut self, node: usize, now: SimTime) -> Result<(), GBoosterError> {
        let snap = self.reference_ctx.snapshot();
        // The rejoiner still holds the title's immutable setup segment
        // (content-addressed; it survives the process), so only the
        // per-session delta reships — the single-destination fix that
        // live migration also leans on (docs/MIGRATION.md).
        let resync_bytes = snap.delta_wire_bytes(&self.setup_snapshot);
        self.c_resync_saved.add(snap.wire_bytes() - resync_bytes);
        let tx = self.transport.send(resync_bytes as usize, now);
        self.c_resync_bytes.add(resync_bytes);
        let billed = self.runtimes[node].resync_with_resident(
            &snap,
            &self.setup_snapshot,
            self.reference_rx.clone(),
        );
        debug_assert_eq!(billed, resync_bytes, "resync bill must match the delta");
        debug_assert_eq!(
            self.runtimes[node].state_digest(),
            self.reference_ctx.digest(),
            "resynced node must match the reference state"
        );
        self.node_dead[node] = false;
        self.dispatcher
            .revive_node(node, tx.delivered_at, REJOIN_WARMUP);
        self.health.rejoined(node, now);
        self.c_rejoins.inc();
        self.rejoin_pending = true;
        Ok(())
    }

    /// Decodes a forwarded wire frame once and applies it to every live
    /// replica and to the phone-side reference state.
    ///
    /// Every node's receiver runs the same deterministic LRU update over
    /// the same token stream, and the phone-side `reference_rx` mirrors
    /// them all (a rejoining node adopts a clone of it), so one decode
    /// through the mirror yields exactly the commands each node would
    /// decode for itself. `target` is the dispatch target: it runs the
    /// per-session validation pass and executes the draws; the other
    /// replicas and the reference ingest state-mutating commands only.
    /// Returns the decoded commands (kept with the pending frame for
    /// re-dispatch).
    fn replicate_wire(
        &mut self,
        wire: &[u8],
        target: Option<usize>,
    ) -> Result<Vec<GlCommand>, GBoosterError> {
        let cmds = self.reference_rx.receive(wire)?;
        for (j, rt) in self.runtimes.iter_mut().enumerate() {
            if self.node_dead[j] {
                continue;
            }
            if Some(j) == target {
                // Validation runs before touching shared replica state;
                // a stream our own tracegen produced must never trip it.
                let stats = rt.apply_frame_validated(&cmds, true)?;
                debug_assert_eq!(stats.commands_rejected, 0, "tracegen stream rejected");
            } else {
                rt.apply_frame(&cmds, false)?;
            }
        }
        for cmd in &cmds {
            if cmd.is_state_mutating() {
                self.reference_ctx.apply(cmd)?;
            }
        }
        Ok(cmds)
    }

    /// Engages the local-render fallback: subsequent frames render on
    /// the phone GPU until the pool is healthy and the latency EWMA has
    /// recovered below the release threshold.
    fn engage_fallback(&mut self, now: SimTime, reason: &'static str) {
        self.fallback = true;
        self.fallback_since = now;
        self.fallback_frames = 0;
        self.breach_streak = 0;
        self.c_fallback_engagements.inc();
        self.fallback_pending = true;
        if let Some(ops) = &mut self.ops {
            ops.on_fallback_engaged(now, reason);
        }
    }

    /// Releases the fallback once the hysteresis allows: a minimum dwell
    /// in local rendering AND a live pool AND the latency EWMA back
    /// under the (lower) release threshold. The engage/release split
    /// plus the dwell is what stops the switch from flapping.
    fn maybe_release_fallback(&mut self, now: SimTime) {
        if !self.fallback
            || self.fallback_frames < self.slo.min_fallback_frames
            || self.dispatcher.alive_nodes() == 0
            || self.latency_ewma > self.slo.release_ms
        {
            return;
        }
        self.fallback = false;
        self.fallback_secs += (now - self.fallback_since).as_secs_f64();
        // Fresh hysteresis state: the EWMA restarts from the offloaded
        // path's own samples, so stale local-render latencies cannot
        // immediately re-trip the engage streak.
        self.latency_ewma = 0.0;
        self.breach_streak = 0;
        if let Some(ops) = &mut self.ops {
            ops.on_fallback_released(now);
        }
    }

    /// Issues one frame down the graceful-degradation path: rendered on
    /// the phone GPU, presented through the same reorder machinery.
    /// While live nodes remain (an SLO fallback, not a pool loss), state
    /// replication continues so releasing needs no resync; with the pool
    /// empty nothing crosses the radio and only the phone-side reference
    /// ingests the state stream.
    fn issue_local_frame(
        &mut self,
        seq: u64,
        ctx: TraceContext,
        start: SimTime,
        trace: &gbooster_workload::tracegen::FrameTrace,
    ) -> Result<(), GBoosterError> {
        let cpu_secs = trace.cpu_gcycles / self.cpu_clock_ghz;
        let (app_secs, app_done, up) = if self.dispatcher.alive_nodes() > 0 {
            // Live nodes keep replicating state so the eventual release
            // resumes offloading without a resync.
            let fwd = self
                .forwarder
                .forward_frame(&trace.commands, self.gen.client_memory())?;
            let forward_secs = FORWARD_FIXED_SECS + fwd.raw_bytes as f64 / FORWARD_BYTES_PER_SEC;
            let app_secs = cpu_secs + forward_secs;
            let app_done = start + SimDuration::from_secs_f64(app_secs);
            let textures_used = self.texture_count + if trace.scene_change { 2 } else { 0 };
            self.transport.on_frame(trace.touches, textures_used);
            let up = self.transport.send(fwd.wire.len(), app_done);
            self.replicate_wire(&fwd.wire, None)?;
            (app_secs, app_done, up)
        } else {
            // Radio dark: the sender cache is frozen (nothing is
            // forwarded), so the reference receiver stays consistent;
            // raw state-mutating commands keep the reference current for
            // the next rejoin's snapshot.
            let app_done = start + SimDuration::from_secs_f64(cpu_secs);
            for cmd in &trace.commands {
                if cmd.is_state_mutating() {
                    self.reference_ctx.apply(cmd)?;
                }
            }
            let up = Transfer {
                delivered_at: app_done,
                duration: SimDuration::ZERO,
                degraded: false,
                route: None,
            };
            (cpu_secs, app_done, up)
        };
        self.app_free = app_done;
        let render = self.phone_gpu.render_time(trace.effective_fill, 1.0) + COMPOSITOR;
        let render_start = app_done.max(self.local_gpu_free);
        let finish = render_start + render;
        self.local_gpu_free = finish;
        self.phone_gpu_busy_secs += render.as_secs_f64();
        self.fallback_frames += 1;
        self.pending.push(PendingFrame {
            seq,
            ctx,
            start,
            fwd_start: start,
            intercept_end: start,
            resolve_end: start,
            cache_end: start,
            app_done,
            up,
            unscheduled_wait: SimDuration::ZERO,
            dispatch_start: render_start,
            finish,
            node: 0,
            encode: SimDuration::ZERO,
            changed_px: 0,
            down_bytes: 0,
            keyframe: false,
            fill: trace.effective_fill,
            app_secs,
            commands: Vec::new(),
            local: true,
        });
        Ok(())
    }

    /// Declares `node` dead at `at` and re-dispatches its orphaned
    /// in-flight frames to the next-best node after the detection delay.
    ///
    /// Re-dispatch is digest-safe: every node already ingested the
    /// orphaned frames' state-mutating commands in stream order (Section
    /// VI-B), so the new node only re-executes the draws, which never
    /// touch replicated state.
    fn kill_node(&mut self, node: usize, at: SimTime) {
        self.node_dead[node] = true;
        self.c_node_failures.inc();
        // The engine is the pool's only tenant, but the outstanding
        // queue is session-qualified now — keep only our own frames
        // (a foreign key here would be a bookkeeping bug).
        let mut orphans: Vec<u64> = self
            .dispatcher
            .fail_node(node, at)
            .into_iter()
            .filter(|k| k.session == self.session_id)
            .map(|k| k.seq)
            .collect();
        let redispatch_at = at + self.redispatch_timeout;
        let pool_empty = self.dispatcher.alive_nodes() == 0;
        orphans.sort_unstable();
        let orphan_count = orphans.len() as u64;
        for seq in orphans {
            let idx = self
                .pending
                .iter()
                .position(|p| p.seq == seq)
                .expect("orphaned frame must still be in flight");
            if pool_empty {
                // No live node to take the frame: recover it on the
                // phone GPU instead, chained on the local render queue.
                let p = &mut self.pending[idx];
                let render = self.phone_gpu.render_time(p.fill, 1.0) + COMPOSITOR;
                let render_start = redispatch_at.max(self.local_gpu_free);
                p.unscheduled_wait += render_start - p.dispatch_start;
                p.dispatch_start = render_start;
                p.finish = render_start + render;
                p.encode = SimDuration::ZERO;
                p.changed_px = 0;
                p.down_bytes = 0;
                p.local = true;
                self.local_gpu_free = p.finish;
                self.phone_gpu_busy_secs += render.as_secs_f64();
                self.c_redispatch.inc();
                continue;
            }
            let (fill, encode) = (self.pending[idx].fill, self.pending[idx].encode);
            let decision =
                self.dispatcher
                    .dispatch_for(self.session_id, seq, fill, encode, redispatch_at);
            let commands = std::mem::take(&mut self.pending[idx].commands);
            self.runtimes[decision.node].execute_recovered_draws(&commands);
            self.pending[idx].commands = commands;
            let p = &mut self.pending[idx];
            p.node = decision.node;
            // `SimTime::sub` saturates, so an earlier restart adds zero.
            p.unscheduled_wait += decision.start - p.dispatch_start;
            p.dispatch_start = decision.start;
            p.finish = decision.finish;
            self.c_redispatch.inc();
        }
        if orphan_count > 0 {
            if let Some(ops) = &mut self.ops {
                ops.on_redispatch(at, node, orphan_count);
            }
        }
        if pool_empty {
            // Total pool loss outranks the single-node symptom.
            self.all_lost_pending = true;
            self.node_loss_pending = false;
        } else {
            self.node_loss_pending = true;
        }
    }

    /// Retires the in-flight frame whose downlink completes next: its
    /// transfer is received (serializing on the shared downlink in
    /// completion order, not issue order), the dispatcher's outstanding
    /// entry is cleared, and any frames now contiguous at the head of the
    /// reorder buffer are presented.
    fn retire_one(&mut self) {
        gbooster_telemetry::prof_scope!(names::host::RETIRE);
        assert!(!self.pending.is_empty(), "retire with no frames in flight");
        let idx = (0..self.pending.len())
            .min_by_key(|&i| (self.pending[i].down_start(), self.pending[i].seq))
            .expect("pending is non-empty");
        let p = self.pending.swap_remove(idx);
        let down = if p.local {
            // Local frames never cross the radio: synthesize a zero-cost
            // "transfer" landing when the phone GPU finished.
            Transfer {
                delivered_at: p.finish,
                duration: SimDuration::ZERO,
                degraded: false,
                route: None,
            }
        } else {
            self.transport.recv(p.down_bytes, p.down_start())
        };
        if !p.local {
            self.dispatcher.complete_for(p.node, self.session_id, p.seq);
        }
        self.arrived.insert(p.seq, ArrivedFrame { p, down });
        let mut ready = std::mem::take(&mut self.ready);
        self.arrived.pop_ready_into(&mut ready);
        for af in ready.drain(..) {
            self.present_frame(af);
        }
        self.ready = ready;
    }

    /// Presents one frame (in sequence order, by construction): decode,
    /// vsync display, span tree + per-stage histograms, remote-span
    /// stitching, and the fault-detector chain.
    fn present_frame(&mut self, af: ArrivedFrame) {
        gbooster_telemetry::prof_scope!(names::host::PRESENT);
        if af.p.local {
            return self.present_local_frame(af);
        }
        let ArrivedFrame { p, down } = af;
        // Decode on the phone and present at the next vsync.
        let decode_secs = p.changed_px as f64 / DECODE_PIXELS_PER_SEC;
        let decode_start = down.delivered_at.max(self.decode_free);
        let decode_done = decode_start + SimDuration::from_secs_f64(decode_secs);
        self.decode_free = decode_done;
        let shown = self.display.present(decode_done);
        self.transport.end_frame_transfer(p.seq);

        // Scheduled fault injection lands when the scheduled frame
        // *presents* (all knobs default to None). Injecting at
        // presentation keeps the detector deterministic under
        // pipelining: the dump's last retained trace is always the
        // scheduled frame itself, never an unrelated in-flight one.
        if self.faults.loss_storm_at_frame == Some(p.seq) {
            // The storm's recovery cost surfaces as a retransmit burst.
            self.c_retx.add(INJECTED_STORM_RETX);
        }
        if self.faults.iface_flap_at_frame == Some(p.seq) {
            self.transport.force_flap(shown, INJECTED_FLAP_CYCLES);
        }

        // Telemetry: the frame's span tree plus per-stage histograms.
        // Attribution only — every boundary below is a sum the simulation
        // already computed, so the spans reproduce the timing exactly.
        let down_start = p.down_start();
        let render_end = p.finish - p.encode;
        // The dispatched service device records its side of the frame on
        // its own clock, tagged with the frame's trace context exactly as
        // the datagrams carried it.
        let remote_rt = &self.runtimes[p.node];
        remote_rt.record_remote_span(
            p.ctx,
            names::remote::DISPATCH_WAIT,
            p.up.delivered_at,
            p.dispatch_start,
        );
        remote_rt.record_remote_span(p.ctx, names::remote::REPLAY, p.dispatch_start, render_end);
        remote_rt.record_remote_span(p.ctx, names::remote::ENCODE, render_end, p.finish);
        remote_rt.record_remote_span(
            p.ctx,
            names::remote::DOWNLINK_SEND,
            down_start,
            down.delivered_at,
        );
        // The root span covers all pipeline activity for the frame. That
        // can extend slightly past the vsync display: Turbo tiles stream
        // onto the downlink while later tiles still encode, so the encode
        // tail may outlive the frame's presentation.
        let mut root = SpanNode::new(names::stage::FRAME, p.start, shown.max(p.finish));
        root.stage(names::stage::INTERCEPT, p.fwd_start, p.intercept_end)
            .stage(names::stage::RESOLVE, p.intercept_end, p.resolve_end)
            .stage(names::stage::CACHE, p.resolve_end, p.cache_end)
            .stage(names::stage::LZ4, p.cache_end, p.app_done)
            .stage(names::stage::UPLINK, p.app_done, p.up.delivered_at)
            .stage(
                names::stage::DISPATCH_WAIT,
                p.up.delivered_at,
                p.dispatch_start,
            )
            .stage(names::stage::RENDER, p.dispatch_start, render_end)
            .stage(names::stage::ENCODE, render_end, p.finish)
            .stage(names::stage::DOWNLINK, down_start, down.delivered_at)
            .stage(names::stage::DECODE, decode_start, decode_done)
            .stage(names::stage::DISPLAY_WAIT, decode_done, shown);
        let service_node = self.node_labels[p.node].as_str();
        for child in &root.children {
            let hist = match child.name {
                n if n == names::stage::INTERCEPT => &self.stages.intercept,
                n if n == names::stage::RESOLVE => &self.stages.resolve,
                n if n == names::stage::CACHE => &self.stages.cache,
                n if n == names::stage::LZ4 => &self.stages.lz4,
                n if n == names::stage::UPLINK => &self.stages.uplink,
                n if n == names::stage::DISPATCH_WAIT => &self.stages.dispatch_wait,
                n if n == names::stage::RENDER => &self.stages.render,
                n if n == names::stage::ENCODE => &self.stages.encode,
                n if n == names::stage::DOWNLINK => &self.stages.downlink,
                n if n == names::stage::DECODE => &self.stages.decode,
                _ => &self.stages.display_wait,
            };
            hist.record_duration_tagged(child.duration(), p.seq);
            // Attribution mirrors the exact per-stage micros the
            // histograms record, adding the node and interface axes.
            let (node, iface) = match child.name {
                n if n == names::stage::UPLINK => (names::attr::NODE_PHONE, p.up.iface_label()),
                n if n == names::stage::DOWNLINK => (names::attr::NODE_PHONE, down.iface_label()),
                n if n == names::stage::DISPATCH_WAIT
                    || n == names::stage::RENDER
                    || n == names::stage::ENCODE =>
                {
                    (service_node, names::attr::IFACE_NONE)
                }
                _ => (names::attr::NODE_PHONE, names::attr::IFACE_NONE),
            };
            self.attr
                .record_stage(child.name, node, iface, child.duration().as_micros());
        }
        // Downlink byte attribution by frame kind: every received byte
        // belongs to exactly one presented frame, so this table sums to
        // the transport's downlink counter.
        self.attr.record_downlink(
            if p.keyframe {
                names::attr::KIND_KEYFRAME
            } else {
                names::attr::KIND_TILE_DELTA
            },
            p.down_bytes as u64,
        );
        // The total latency is app start to vsync display (what the user
        // perceives), not the root span's end, which may include the
        // overlapped encode tail.
        self.stages
            .total
            .record_duration_tagged(shown - p.start, p.seq);
        if p.up.degraded || down.degraded {
            self.c_degraded.inc();
        }

        // Stitch the service device's spans into this frame's tree using
        // the *estimated* clock offset (never the ground-truth skew).
        let remote_spans = self.remote_log.take_frame(self.session_id, p.seq);
        for s in &remote_spans {
            if let Some(i) = names::remote::STAGES.iter().position(|&n| n == s.name) {
                self.remote_hists[i].record((s.end_us - s.start_us).max(0) as u64);
            }
        }
        let offset_us = self.transport.clock_offset_estimate_us().unwrap_or(0);
        let outcome = stitch_remote(&mut root, &remote_spans, offset_us);
        if outcome.stitched > 0 {
            self.c_stitched.inc();
        }
        self.c_clamped.add(outcome.clamped as u64);

        // Flight recorder: retain the stitched trace, then run the fault
        // detectors over this presentation's deltas. A node loss outranks
        // the secondary symptoms it causes (timeouts on re-dispatched
        // frames), so it is checked first.
        let frame_trace = FrameTrace { seq: p.seq, root };
        self.flight.on_frame(&frame_trace);
        self.run_detectors(shown, p.unscheduled_wait);
        self.trace_log.push(frame_trace);

        self.note_latency(shown, p.start);
        self.fps.record(shown);
        self.ledger.add_busy(p.app_secs + decode_secs);
        let interval = (shown - self.last_shown).as_secs_f64();
        if interval > 0.0 {
            self.dt_est = 0.9 * self.dt_est + 0.1 * interval;
        }
        self.last_shown = self.last_shown.max(shown);
        self.presented.push(shown);
        self.sample_ops(shown, shown - p.start);
    }

    /// Presents one phone-rendered fallback frame. The span tree carries
    /// only the stages that actually ran — the root, the local render,
    /// and the vsync wait — and nothing touches the transport, the
    /// dispatcher, or the remote span log.
    fn present_local_frame(&mut self, af: ArrivedFrame) {
        let ArrivedFrame { p, .. } = af;
        let shown = self.display.present(p.finish);
        // A frame issued offloaded and recovered locally after a total
        // pool loss still holds an inflight-transfer entry; retiring it
        // is a no-op for frames issued on the fallback path.
        self.transport.end_frame_transfer(p.seq);
        let mut root = SpanNode::new(names::stage::FRAME, p.start, shown);
        root.stage(names::stage::LOCAL_RENDER, p.dispatch_start, p.finish)
            .stage(names::stage::DISPLAY_WAIT, p.finish, shown);
        self.local_render_hist
            .record_duration_tagged(p.finish - p.dispatch_start, p.seq);
        self.attr.record_stage(
            names::stage::LOCAL_RENDER,
            names::attr::NODE_PHONE,
            names::attr::IFACE_NONE,
            (p.finish - p.dispatch_start).as_micros(),
        );
        self.attr.record_stage(
            names::stage::DISPLAY_WAIT,
            names::attr::NODE_PHONE,
            names::attr::IFACE_NONE,
            (shown - p.finish).as_micros(),
        );
        self.stages
            .total
            .record_duration_tagged(shown - p.start, p.seq);
        self.c_frames_local.inc();

        let frame_trace = FrameTrace { seq: p.seq, root };
        self.flight.on_frame(&frame_trace);
        self.run_detectors(shown, p.unscheduled_wait);
        self.trace_log.push(frame_trace);

        self.note_latency(shown, p.start);
        self.fps.record(shown);
        self.ledger.add_busy(p.app_secs);
        let interval = (shown - self.last_shown).as_secs_f64();
        if interval > 0.0 {
            self.dt_est = 0.9 * self.dt_est + 0.1 * interval;
        }
        self.last_shown = self.last_shown.max(shown);
        self.presented.push(shown);
        self.sample_ops(shown, shown - p.start);
    }

    /// Feeds the live-ops layer at one presentation: windowed samples
    /// (latency, inter-frame gap, cache misses, per-interface power),
    /// then one burn-rate evaluation pass over every objective. A no-op
    /// with the ops layer disabled.
    fn sample_ops(&mut self, shown: SimTime, latency: SimDuration) {
        let Some(ops) = &mut self.ops else {
            return;
        };
        let wifi_j = self.transport.wifi_energy_joules();
        let bt_j = self.transport.radio_energy_joules() - wifi_j;
        ops.on_present(shown, latency, wifi_j, bt_j);
        let pool_healthy = self.dispatcher.alive_nodes() == self.node_up.len() && !self.fallback;
        ops.evaluate(shown, pool_healthy);
    }

    /// Runs the fault-detector chain over this presentation's deltas and
    /// fires the flight recorder on the highest-ranked hit. Causes
    /// outrank the symptoms they produce: a total pool loss outranks the
    /// single-node loss it subsumes, which outranks re-dispatch
    /// timeouts; the fallback/rejoin mode switches outrank the transport
    /// noise around them.
    fn run_detectors(&mut self, shown: SimTime, unscheduled_wait: SimDuration) {
        let retx_now = self.c_retx.get();
        let wakes_now = self.c_wakes.get();
        let detected = if self.all_lost_pending {
            self.all_lost_pending = false;
            self.node_loss_pending = false;
            Some(Fault::AllNodesLost)
        } else if self.node_loss_pending {
            self.node_loss_pending = false;
            Some(Fault::NodeLoss)
        } else if self.fallback_pending {
            self.fallback_pending = false;
            Some(Fault::FallbackEngaged)
        } else if self.rejoin_pending {
            self.rejoin_pending = false;
            Some(Fault::NodeRejoined)
        } else if retx_now - self.retx_base >= LOSS_STORM_RETX {
            Some(Fault::LossStorm)
        } else if unscheduled_wait >= DISPATCH_TIMEOUT {
            Some(Fault::DispatchTimeout)
        } else if wakes_now - self.wakes_base >= FLAP_WAKES {
            Some(Fault::InterfaceFlap)
        } else {
            None
        };
        self.retx_base = retx_now;
        self.wakes_base = wakes_now;
        if let Some(fault) = detected {
            self.c_faults.inc();
            if self.flight.trigger(fault, shown, self.registry.snapshot()) {
                self.c_dumps.inc();
            }
            if let Some(ops) = &mut self.ops {
                ops.on_fault(shown, fault);
            }
        }
    }

    /// Feeds one presented frame's start-to-vsync latency into the SLO
    /// EWMA and, when not already in fallback, advances the breach
    /// streak that engages it.
    fn note_latency(&mut self, shown: SimTime, start: SimTime) {
        let ms = (shown - start).as_millis_f64();
        self.latency_ewma = if self.latency_ewma == 0.0 {
            ms
        } else {
            (1.0 - self.slo.alpha) * self.latency_ewma + self.slo.alpha * ms
        };
        if self.fallback {
            return;
        }
        if self.latency_ewma > self.slo.engage_ms {
            self.breach_streak += 1;
            if self.breach_streak >= self.slo.breach_frames {
                self.engage_fallback(shown, "slo_breach");
            }
        } else {
            self.breach_streak = 0;
        }
    }

    /// Presents every frame still in flight (end of session).
    fn drain(&mut self) {
        while !self.pending.is_empty() {
            self.retire_one();
        }
        debug_assert_eq!(self.arrived.held(), 0, "reorder buffer must drain");
    }
}

fn run_offloaded(
    config: &SessionConfig,
    off: &OffloadConfig,
) -> Result<SessionReport, GBoosterError> {
    // Host-time profiling: wall-clock scopes (and, with the `host-prof`
    // feature, the counting allocator) observe the simulator process
    // itself — the one clock the sim-time telemetry cannot see.
    let host_prof = HostProfiler::new();
    let host_prof_install = prof::install(&host_prof);

    // 1. Install hooks and verify complete interception coverage.
    let mut interceptor = Interceptor::install();
    interceptor.verify_coverage()?;

    let (w, h) = off.render_resolution;
    let frame_pixels = w as u64 * h as u64;
    let mut gen = TraceGenerator::new(
        config.workload.profile.clone(),
        config.workload.intensity,
        w,
        h,
        config.seed,
    );
    let dev = &config.user_device;
    let mut forwarder = CommandForwarder::new();
    let mut runtimes: Vec<ServiceRuntime> = off
        .service_devices
        .iter()
        .map(|spec| ServiceRuntime::new(spec.clone()))
        .collect();
    let mut dispatcher = Dispatcher::new(
        off.service_devices
            .iter()
            .map(|spec| ServiceNode::new(spec.clone(), LAN_RTT))
            .collect(),
    );
    let mut transport = TransportManager::new(
        off.interface_switching,
        SimDuration::from_millis(config.predictor_window_ms),
    );
    transport.set_loss_scale(off.loss_scale);
    let display = Display::new(60, w, h);
    let fps = FpsRecorder::new();
    let mut meter = PowerMeter::new();
    let ledger = CpuLedger::new(dev.cpu.cores);
    let duty_rng = derived(config.seed, "duty");
    let phone_gpu = GpuModel::new(dev.gpu.clone());

    // Observability: one registry for the whole pipeline plus a span-tree
    // trace per displayed frame. Attaching is purely observational — every
    // component mirrors the statistics it already keeps, so timing,
    // routing and protocol behavior are byte-identical with or without it.
    let registry = Registry::new();
    let trace_log = TraceLog::new();
    forwarder.attach_registry(&registry);
    transport.attach_registry(&registry);
    dispatcher.attach_registry(&registry);

    // Resource attribution: the same tap points feed a second, axis-rich
    // sink. Attached before the setup stream ships so the attributed
    // uplink bytes reconcile exactly with the forwarder's wire counter.
    let attr = AttributionLog::new();
    forwarder.attach_attribution(attr.clone());
    transport.attach_attribution(attr.clone());

    // Distributed tracing: the session identity rides inside every RUDP
    // datagram as a TraceContext; service devices stamp their spans on
    // their *own* (skewed) clock into the shared remote log. The skew is
    // ground truth derived from the seed — the user device never reads
    // it, stitching relies solely on the transport's ack-based estimate.
    let session_id = config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let true_skew_us: i64 = derived(config.seed, "clock-skew").gen_range(-150_000..=150_000);
    transport.set_true_clock_offset_us(true_skew_us);
    let remote_log = RemoteSpanLog::new();
    for rt in &mut runtimes {
        rt.attach_registry(&registry);
        rt.attach_remote_log(remote_log.clone(), true_skew_us);
    }
    let c_retx = registry.counter(names::net::RETRANSMITS);
    let c_wakes = registry.counter(names::net::WIFI_WAKES);
    let mut flight = FlightRecorder::new(off.flight_recorder_depth);
    let mut health = HealthMonitor::new(off.service_devices.len(), HealthConfig::default());
    health.attach_registry(&registry);
    // The live-ops runtime: windowed streams, burn-rate alerting, and
    // incident correlation. Every other producer journals into its
    // shared ops log so incident timelines interleave health
    // transitions, flight dumps, and transport events causally.
    let ops = OpsRuntime::new(&off.ops, &registry, attr.clone());
    if let Some(o) = &ops {
        flight.attach_ops(o.log());
        health.attach_ops(o.log());
        transport.attach_ops(o.log());
    }

    // 2. Ship the setup stream to every device (pure state: replicated).
    let setup = gen.setup_trace();
    for cmd in &setup.commands {
        interceptor.intercept(cmd);
    }
    let setup_wire = forwarder.forward_frame(&setup.commands, gen.client_memory())?;
    let first_up = transport.send(setup_wire.wire.len(), SimTime::ZERO);
    // Phone-side reference: mirrors every replica's receiver, so the
    // wire stream is decoded once, here, and the commands applied to
    // each replica and to the reference state — a rejoin snapshot is
    // always current (docs/RESILIENCE.md).
    let mut reference_rx = ServiceReceiver::new();
    let mut reference_ctx = GlContext::new();
    let setup_cmds = reference_rx.receive(&setup_wire.wire)?;
    for rt in &mut runtimes {
        rt.apply_frame(&setup_cmds, false)?;
    }
    for cmd in &setup_cmds {
        if cmd.is_state_mutating() {
            reference_ctx.apply(cmd)?;
        }
    }
    // The setup segment is immutable and content-addressed; a rejoiner
    // keeps its replica across death, so rejoin resyncs bill only the
    // delta against this baseline (docs/MIGRATION.md).
    let setup_snapshot = reference_ctx.snapshot();

    // 3. Run the pipelined engine: issue ahead, receive in completion
    // order, present in sequence order, until the session clock expires;
    // then drain the frames still in flight.
    let mut engine = OffloadEngine {
        gen,
        interceptor,
        forwarder,
        runtimes,
        dispatcher,
        transport,
        display,
        fps,
        ledger,
        duty_rng,
        trace_log,
        remote_log,
        stages: StageHists::new(&registry),
        remote_hists: names::remote::STAGES
            .iter()
            .map(|&n| registry.histogram(n))
            .collect(),
        flight,
        c_degraded: registry.counter(names::session::FRAMES_DEGRADED),
        c_idle: registry.counter(names::session::FRAMES_IDLE),
        c_stitched: registry.counter(names::tracing::STITCHED_FRAMES),
        c_clamped: registry.counter(names::tracing::CLAMPED_SPANS),
        c_faults: registry.counter(names::flight::FAULTS),
        c_dumps: registry.counter(names::flight::DUMPS),
        c_retx,
        c_wakes,
        c_redispatch: registry.counter(names::sched::REDISPATCHES),
        c_window_stalls: registry.counter(names::sched::WINDOW_STALLS),
        c_node_failures: registry.counter(names::sched::NODE_FAILURES),
        c_frames_local: registry.counter(names::session::FRAMES_LOCAL),
        c_rejoins: registry.counter(names::health::REJOINS),
        c_resync_bytes: registry.counter(names::health::RESYNC_BYTES),
        c_resync_saved: registry.counter(names::migrate::SNAPSHOT_BYTES_SAVED),
        c_fallback_engagements: registry.counter(names::health::FALLBACK_ENGAGEMENTS),
        local_render_hist: registry.histogram(names::stage::LOCAL_RENDER),
        attr: attr.clone(),
        node_labels: (0..off.service_devices.len())
            .map(|j| format!("node{j}"))
            .collect(),
        ops,
        health,
        node_up: vec![true; off.service_devices.len()],
        node_events: off.faults.node_schedule(),
        next_event: 0,
        partitions: off.faults.partitions.clone(),
        reference_ctx,
        setup_snapshot,
        reference_rx,
        slo: off.slo,
        latency_ewma: 0.0,
        breach_streak: 0,
        fallback: false,
        fallback_since: SimTime::ZERO,
        fallback_frames: 0,
        fallback_secs: 0.0,
        local_gpu_free: SimTime::ZERO,
        phone_gpu,
        phone_gpu_busy_secs: 0.0,
        all_lost_pending: false,
        fallback_pending: false,
        rejoin_pending: false,
        registry,
        session_id,
        frame_pixels,
        animation_duty: config.workload.profile.animation_duty,
        idle_cpu_secs: config.workload.profile.cpu_gcycles_per_frame / dev.cpu.clock_ghz,
        cpu_clock_ghz: dev.cpu.clock_ghz,
        texture_count: config.workload.profile.texture_count,
        buffer_depth: off.buffer_depth,
        max_inflight: off.max_inflight,
        redispatch_timeout: SimDuration::from_millis(off.redispatch_timeout_ms),
        faults: off.faults.clone(),
        duration: SimTime::from_secs(config.duration_secs),
        node_dead: vec![false; off.service_devices.len()],
        node_loss_pending: false,
        retx_base: 0,
        wakes_base: 0,
        pending: Vec::new(),
        arrived: ReorderBuffer::new(),
        ready: Vec::new(),
        presented: Vec::new(),
        next_seq: 0,
        app_free: first_up.delivered_at,
        decode_free: SimTime::ZERO,
        last_shown: SimTime::ZERO,
        dt_est: 1.0 / 30.0,
    };
    // Detector baselines start after the setup stream's transfers.
    engine.retx_base = engine.c_retx.get();
    engine.wakes_base = engine.c_wakes.get();
    {
        gbooster_telemetry::prof_scope!(names::host::SESSION);
        while engine.last_shown < engine.duration {
            engine.tick()?;
        }
        engine.drain();
    }

    // 4. Phone energy over the whole session.
    let OffloadEngine {
        forwarder,
        runtimes,
        dispatcher,
        transport,
        fps,
        ledger,
        registry,
        trace_log,
        remote_log,
        flight,
        node_dead,
        last_shown,
        mut health,
        ops,
        node_up,
        mut phone_gpu,
        phone_gpu_busy_secs,
        fallback,
        fallback_since,
        mut fallback_secs,
        ..
    } = engine;
    let total = last_shown - SimTime::ZERO;
    let secs = total.as_secs_f64();
    let cpu_util = ledger.utilization(secs);
    meter.record(
        Component::Cpu,
        dev.cpu.idle_power_w + (dev.cpu.max_power_w - dev.cpu.idle_power_w) * cpu_util,
        total,
    );
    // The phone GPU idles except for the fallback's local renders (with
    // no fallback the busy fraction is exactly zero, as before).
    let gpu_util = if secs > 0.0 {
        (phone_gpu_busy_secs / secs).min(1.0)
    } else {
        0.0
    };
    let gpu_joules = phone_gpu.step(total, gpu_util);
    meter.record_joules(Component::Gpu, gpu_joules);
    if fallback {
        // Session ended while still rendering locally.
        fallback_secs += (last_shown - fallback_since).as_secs_f64();
    }
    registry
        .gauge(names::health::POOL_SIZE)
        .set(health.pool_size() as f64);
    registry
        .gauge(names::health::FALLBACK_SECS)
        .set(fallback_secs);
    meter.record(Component::Display, DISPLAY_POWER_W, total);
    meter.record(Component::Base, BASE_POWER_W, total);
    let wifi_j = transport.wifi_energy_joules();
    let bt_j = transport.radio_energy_joules() - wifi_j;
    meter.record_joules(Component::WifiTx, wifi_j);
    meter.record_joules(Component::Bluetooth, bt_j.max(0.0));
    meter.advance(total);

    // Energy attribution: split each meter component along the same
    // stage × node × interface axes as the time table. Radio joules are
    // apportioned per interface across uplink and downlink by byte share
    // (the link table the transport tap filled in), so the attributed
    // total reconciles with the meter to within rounding.
    {
        let snap = attr.snapshot();
        for (iface, joules) in [
            (names::attr::IFACE_WIFI, wifi_j),
            (names::attr::IFACE_BT, bt_j.max(0.0)),
        ] {
            let up = snap.link_iface_bytes(names::attr::DIR_UPLINK, iface) as f64;
            let down = snap.link_iface_bytes(names::attr::DIR_DOWNLINK, iface) as f64;
            let total_bytes = up + down;
            if total_bytes > 0.0 {
                attr.record_energy(
                    names::stage::UPLINK,
                    names::attr::NODE_PHONE,
                    iface,
                    joules * up / total_bytes,
                );
                attr.record_energy(
                    names::stage::DOWNLINK,
                    names::attr::NODE_PHONE,
                    iface,
                    joules * down / total_bytes,
                );
            } else if joules > 0.0 {
                // Radio energy with no attributed transfer (e.g. idle
                // tail power): keep it visible on the uplink row.
                attr.record_energy(names::stage::UPLINK, names::attr::NODE_PHONE, iface, joules);
            }
        }
        attr.record_energy(
            names::stage::LOCAL_RENDER,
            names::attr::NODE_PHONE,
            names::attr::IFACE_NONE,
            gpu_joules,
        );
        for (label, component) in [
            (names::attr::ENERGY_CPU, Component::Cpu),
            (names::attr::ENERGY_DISPLAY, Component::Display),
            (names::attr::ENERGY_BASE, Component::Base),
        ] {
            attr.record_energy(
                label,
                names::attr::NODE_PHONE,
                names::attr::IFACE_NONE,
                meter.joules(component),
            );
        }
    }

    // Replica digests must agree across the *surviving* nodes; a killed
    // node stopped ingesting the stream at its failure instant and is
    // excluded (Section VI-B's consistency check).
    let mut alive_digests = runtimes
        .iter()
        .zip(&node_dead)
        .filter(|(_, &dead)| !dead)
        .map(|(rt, _)| rt.state_digest());
    let state_consistent = match alive_digests.next() {
        Some(first) => alive_digests.all(|d| d == first),
        None => true,
    };
    record_session_counters(&registry, fps.frame_count() as u64, &ledger, cpu_util);
    // Remote spans nobody claimed (a frame that never displayed, or a
    // context mismatch) would linger in the log: count them as orphans.
    registry
        .counter(names::tracing::ORPHAN_SPANS)
        .add(remote_log.len() as u64);
    registry
        .gauge(names::tracing::CLOCK_OFFSET_US)
        .set(transport.clock_offset_estimate_us().unwrap_or(0) as f64);
    registry
        .gauge(names::sched::INFLIGHT_PEAK)
        .set(transport.inflight_peak() as f64);
    // Seal the live-ops layer before the snapshot so its counters and
    // time-in-state gauges land in the report's telemetry: fold every
    // node's open health interval, close (or seal unresolved) the open
    // incident, and bundle the incident/alert/anomaly report.
    health.finalize(last_shown);
    let pool_healthy = dispatcher.alive_nodes() == node_up.len() && !fallback;
    let ops_report = ops
        .map(|mut o| o.finalize(last_shown, pool_healthy))
        .unwrap_or_default();
    // Host-time gauges: the simulator process's own wall-clock cost,
    // normalized per displayed frame and split by pipeline group. These
    // feed the bench wall-clock gates; everything else in the snapshot
    // stays bit-deterministic.
    drop(host_prof_install);
    let host_snapshot = host_prof.snapshot();
    {
        let host_frames = fps.frame_count() as f64;
        let wall = host_snapshot.wall_secs;
        if wall > 0.0 {
            registry
                .gauge(names::host::FRAMES_PER_SEC)
                .set(host_frames / wall);
        }
        if host_frames > 0.0 {
            registry
                .gauge(names::host::ALLOC_BYTES_PER_FRAME)
                .set(host_snapshot.total_alloc_bytes as f64 / host_frames);
            let groups = host_snapshot.group_self_ns();
            let profiled_ns: u64 = groups.values().sum();
            registry
                .gauge(names::host::NS_PER_FRAME)
                .set(profiled_ns as f64 / host_frames);
            for (gauge, group) in [
                (names::host::NS_PER_FRAME_SERIALIZE, "serialize"),
                (names::host::NS_PER_FRAME_CODEC, "codec"),
                (names::host::NS_PER_FRAME_NET, "net"),
                (names::host::NS_PER_FRAME_CORE, "core"),
            ] {
                let ns = groups.get(group).copied().unwrap_or(0);
                registry.gauge(gauge).set(ns as f64 / host_frames);
            }
        }
    }
    let telemetry = registry.snapshot();
    let frames_displayed = telemetry.counter(names::session::FRAMES_DISPLAYED);
    // Eq. 5's per-frame overhead t_p: the network transfers plus decode.
    // The stage histograms sum the exact integer-microsecond durations
    // the simulation produced, so this equals the former inline tracker.
    let mean_tp_ms = if frames_displayed == 0 {
        0.0
    } else {
        let sum_us: u64 = [
            names::stage::UPLINK,
            names::stage::DOWNLINK,
            names::stage::DECODE,
        ]
        .iter()
        .filter_map(|n| telemetry.histogram(n))
        .map(|h| h.sum())
        .sum();
        sum_us as f64 / 1000.0 / frames_displayed as f64
    };
    let response_time_ms = if fps.median_fps() > 0.0 {
        1000.0 / fps.median_fps() + mean_tp_ms
    } else {
        f64::INFINITY
    };
    let degraded_fraction = if frames_displayed == 0 {
        0.0
    } else {
        telemetry.counter(names::session::FRAMES_DEGRADED) as f64 / frames_displayed as f64
    };
    let (up_bytes, down_bytes) = (
        telemetry.counter(names::net::UPLINK_BYTES),
        telemetry.counter(names::net::DOWNLINK_BYTES),
    );
    debug_assert_eq!((up_bytes, down_bytes), transport.traffic_totals());
    // Phone-side footprint: sender command cache, the double-buffered
    // display surfaces, the in-flight decode ring (one RGBA frame per
    // buffered request), and fixed runtime buffers (wire staging, codec
    // state, reorder bookkeeping).
    let extra_memory_mb = (forwarder.cache_resident_bytes() as f64
        + (2 + off.buffer_depth) as f64 * (frame_pixels * 4) as f64
        + 16.0 * 1024.0 * 1024.0)
        / 1e6;

    Ok(SessionReport {
        workload: config.workload.name.clone(),
        device: dev.name.to_string(),
        mode: format!("gbooster({})", off.service_devices.len()),
        median_fps: fps.median_fps(),
        stability: fps.stability(),
        frame_jitter_ms: fps.interval_jitter_ms(),
        response_time_ms,
        mean_tp_ms,
        energy: meter,
        cpu_utilization: cpu_util,
        uplink_bytes: up_bytes,
        downlink_bytes: down_bytes,
        avg_mbps: transport.average_mbps(total),
        wifi_wakes: telemetry.counter(names::net::WIFI_WAKES) as u32,
        wifi_bytes: telemetry.counter(names::net::WIFI_BYTES),
        bt_bytes: telemetry.counter(names::net::BT_BYTES),
        degraded_fraction,
        frames: frames_displayed,
        extra_memory_mb,
        per_device_requests: dispatcher.served_counts(),
        state_consistent,
        duration: total,
        telemetry,
        trace: trace_log,
        clock_offset_us: transport.clock_offset_estimate_us(),
        flight: flight.dumps().first().cloned(),
        attribution: attr.snapshot(),
        ops: ops_report,
        host_profile: Some(host_snapshot),
    })
}

fn run_cloud(config: &SessionConfig, cloud: &CloudConfig) -> SessionReport {
    use gbooster_codec::video::{EncoderHost, VideoEncoderModel};
    use gbooster_net::channel::ChannelModel;

    let (w, h) = cloud.resolution;
    let dev = &config.user_device;
    let channel = ChannelModel::internet_to_cloud();
    let encoder = VideoEncoderModel::for_host(EncoderHost::X86);
    let mut display = Display::new(60, w, h);
    let mut fps = FpsRecorder::new();
    let mut meter = PowerMeter::new();
    let mut response = ResponseTracker::new();
    let mut ledger = CpuLedger::new(dev.cpu.cores);

    // The platform streams at its encoder cap regardless of game.
    let cap = cloud.encoder_fps_cap.clamp(1, 60);
    let frame_interval = SimDuration::from_secs_f64(1.0 / cap as f64);
    let stream_bytes_per_frame = (channel.bandwidth_bps * 0.9 / 8.0 / cap as f64) as usize;
    let duration = SimTime::from_secs(config.duration_secs);
    let mut now = SimTime::ZERO;
    let mut downlink_bytes = 0u64;

    // Video streaming uses a triple-buffered video surface; frames are
    // shown at the stream cadence rather than snapped to app vsync.
    let _ = &mut display;
    while now < duration {
        let shown = now + frame_interval;
        fps.record(shown);
        // Eq. 5 overhead: input uplink + encoder latency + stream
        // serialization + decode, all across the Internet path.
        let uplink = channel.mean_rtt() / 2;
        let downlink = channel.tx_time(stream_bytes_per_frame) + channel.mean_rtt() / 2;
        let encode_latency =
            SimDuration::from_secs_f64(encoder.encode_time(w as u64 * h as u64).as_secs_f64());
        let decode_secs = (w as u64 * h as u64) as f64 / DECODE_PIXELS_PER_SEC;
        response.record(
            uplink + encode_latency,
            downlink,
            SimDuration::from_secs_f64(decode_secs),
            false,
        );
        ledger.add_busy(decode_secs);
        downlink_bytes += stream_bytes_per_frame as u64;
        meter.record(
            Component::WifiRx,
            gbooster_net::iface::WifiIface::RX_POWER_W * 0.4
                + gbooster_net::iface::WifiIface::IDLE_POWER_W,
            frame_interval,
        );
        now = shown;
    }

    let total = now - SimTime::ZERO;
    let secs = total.as_secs_f64();
    let cpu_util = ledger.utilization(secs);
    meter.record(
        Component::Cpu,
        dev.cpu.idle_power_w + (dev.cpu.max_power_w - dev.cpu.idle_power_w) * cpu_util,
        total,
    );
    meter.record(Component::Gpu, dev.gpu.idle_power_w, total);
    meter.record(Component::Display, DISPLAY_POWER_W, total);
    meter.record(Component::Base, BASE_POWER_W, total);
    meter.advance(total);
    let registry = Registry::new();
    record_session_counters(&registry, fps.frame_count() as u64, &ledger, cpu_util);
    registry
        .counter(names::net::DOWNLINK_BYTES)
        .add(downlink_bytes);

    SessionReport {
        workload: config.workload.name.clone(),
        device: dev.name.to_string(),
        mode: "cloud".into(),
        median_fps: fps.median_fps(),
        stability: fps.stability(),
        frame_jitter_ms: fps.interval_jitter_ms(),
        response_time_ms: response.response_time_ms(fps.median_fps()),
        mean_tp_ms: response.mean_tp_ms(),
        energy: meter,
        cpu_utilization: cpu_util,
        uplink_bytes: 0,
        downlink_bytes,
        avg_mbps: downlink_bytes as f64 * 8.0 / 1e6 / secs,
        wifi_wakes: 1,
        wifi_bytes: downlink_bytes,
        bt_bytes: 0,
        degraded_fraction: 0.0,
        frames: fps.frame_count() as u64,
        extra_memory_mb: 0.0,
        per_device_requests: Vec::new(),
        state_consistent: true,
        duration: total,
        telemetry: registry.snapshot(),
        trace: TraceLog::default(),
        clock_offset_us: None,
        flight: None,
        attribution: AttributionSnapshot::default(),
        ops: OpsReport::default(),
        host_profile: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CloudConfig, OffloadConfig};
    use gbooster_sim::device::DeviceSpec;
    use gbooster_workload::apps::AppTitle;
    use gbooster_workload::games::GameTitle;

    fn short(game: GameTitle, dev: DeviceSpec) -> crate::config::SessionConfigBuilder {
        SessionConfig::builder(game, dev).duration_secs(12).seed(7)
    }

    #[test]
    fn local_action_on_nexus5_matches_paper_band() {
        let report =
            Session::run(&short(GameTitle::g1_gta_san_andreas(), DeviceSpec::nexus5()).build());
        assert!(
            (18.0..=28.0).contains(&report.median_fps),
            "median {:.1}, paper ~23",
            report.median_fps
        );
        assert_eq!(report.uplink_bytes, 0);
    }

    #[test]
    fn offload_boosts_action_fps_on_nexus5() {
        let local =
            Session::run(&short(GameTitle::g2_modern_combat(), DeviceSpec::nexus5()).build());
        let boosted = Session::run(
            &short(GameTitle::g2_modern_combat(), DeviceSpec::nexus5())
                .mode(ExecutionMode::Offloaded(OffloadConfig::default()))
                .build(),
        );
        assert!(
            boosted.median_fps > local.median_fps * 1.4,
            "offload {:.1} vs local {:.1}",
            boosted.median_fps,
            local.median_fps
        );
        assert!(boosted.state_consistent);
    }

    #[test]
    fn offload_saves_energy_for_gpu_heavy_games() {
        let local =
            Session::run(&short(GameTitle::g2_modern_combat(), DeviceSpec::nexus5()).build());
        let boosted = Session::run(
            &short(GameTitle::g2_modern_combat(), DeviceSpec::nexus5())
                .mode(ExecutionMode::Offloaded(OffloadConfig::default()))
                .build(),
        );
        let norm = boosted.normalized_energy(&local);
        assert!(norm < 0.7, "normalized energy {norm:.2}, paper ~0.3");
    }

    #[test]
    fn puzzle_games_barely_benefit() {
        let local = Session::run(&short(GameTitle::g5_candy_crush(), DeviceSpec::nexus5()).build());
        let boosted = Session::run(
            &short(GameTitle::g5_candy_crush(), DeviceSpec::nexus5())
                .mode(ExecutionMode::Offloaded(OffloadConfig::default()))
                .build(),
        );
        let gain = boosted.median_fps - local.median_fps;
        assert!(
            gain.abs() < 8.0,
            "puzzle gain {gain:.1} should be small (paper: +2)"
        );
    }

    #[test]
    fn cloud_baseline_is_capped_and_laggy() {
        let report = Session::run(
            &short(GameTitle::g1_gta_san_andreas(), DeviceSpec::nexus5())
                .mode(ExecutionMode::Cloud(CloudConfig::default()))
                .build(),
        );
        assert!(
            (report.median_fps - 30.0).abs() <= 2.0,
            "fps {}",
            report.median_fps
        );
        assert!(
            report.response_time_ms > 100.0,
            "cloud response {:.0} ms, paper ~150",
            report.response_time_ms
        );
    }

    #[test]
    fn ui_apps_get_no_fps_boost() {
        let local = Session::run(&short_app(AppTitle::tumblr(), DeviceSpec::nexus5()));
        let boosted = Session::run(&{
            let mut cfg = short_app(AppTitle::tumblr(), DeviceSpec::nexus5());
            cfg.mode = ExecutionMode::Offloaded(OffloadConfig::default());
            cfg
        });
        assert!(
            (boosted.median_fps - local.median_fps).abs() < 3.0,
            "ui boost {:.1} vs {:.1}",
            boosted.median_fps,
            local.median_fps
        );
    }

    fn short_app(app: AppTitle, dev: DeviceSpec) -> SessionConfig {
        SessionConfig::builder(app, dev)
            .duration_secs(12)
            .seed(7)
            .build()
    }

    #[test]
    fn reports_are_deterministic() {
        let cfg = short(GameTitle::g3_star_wars(), DeviceSpec::nexus5())
            .mode(ExecutionMode::Offloaded(OffloadConfig::default()))
            .build();
        let a = Session::run(&cfg);
        let b = Session::run(&cfg);
        assert_eq!(a.median_fps, b.median_fps);
        assert_eq!(a.uplink_bytes, b.uplink_bytes);
        assert_eq!(a.frames, b.frames);
    }

    #[test]
    fn every_displayed_frame_carries_a_stitched_remote_subtree() {
        let report = Session::run(
            &short(GameTitle::g2_modern_combat(), DeviceSpec::nexus5())
                .mode(ExecutionMode::Offloaded(OffloadConfig::default()))
                .build(),
        );
        assert!(report.frames > 0);
        for frame in report.trace.frames() {
            let remote = frame
                .root
                .children
                .iter()
                .find(|c| c.name == names::remote::SUBTREE)
                .unwrap_or_else(|| panic!("frame {} lost its remote subtree", frame.seq));
            assert_eq!(
                remote.children.len(),
                names::remote::STAGES.len(),
                "frame {} remote spans",
                frame.seq
            );
            // Stitched spans stay inside the frame root and are monotone.
            let mut prev = remote.children[0].start;
            for child in &remote.children {
                assert!(child.start >= frame.root.start && child.end <= frame.root.end);
                assert!(child.start >= prev, "remote spans out of order");
                prev = child.start;
            }
        }
        assert_eq!(
            report.telemetry.counter(names::tracing::STITCHED_FRAMES),
            report.trace.frames().len() as u64
        );
        assert_eq!(report.telemetry.counter(names::tracing::ORPHAN_SPANS), 0);
        assert!(report.flight.is_none(), "no faults were scheduled");
    }

    #[test]
    fn estimated_clock_offset_tracks_the_seeded_skew() {
        for seed in [7u64, 91, 1234] {
            let cfg = SessionConfig::builder(GameTitle::g2_modern_combat(), DeviceSpec::nexus5())
                .duration_secs(12)
                .seed(seed)
                .mode(ExecutionMode::Offloaded(OffloadConfig::default()))
                .build();
            let report = Session::run(&cfg);
            let truth: i64 = derived(seed, "clock-skew").gen_range(-150_000..=150_000);
            let est = report.clock_offset_us.expect("offloaded runs estimate");
            assert!(
                (est - truth).abs() < 2_000,
                "seed {seed}: skew {truth} estimated {est}"
            );
        }
    }

    #[test]
    fn multi_device_requests_are_distributed() {
        let cfg = short(GameTitle::g1_gta_san_andreas(), DeviceSpec::nexus5())
            .offload_to(vec![
                DeviceSpec::nvidia_shield(),
                DeviceSpec::dell_optiplex_9010(),
                DeviceSpec::dell_m4600(),
            ])
            .build();
        let report = Session::run(&cfg);
        assert_eq!(report.per_device_requests.len(), 3);
        assert!(report.state_consistent, "replicas must stay consistent");
        let total: u64 = report.per_device_requests.iter().sum();
        assert!(total > 0);
        // No single device should have served everything.
        assert!(report.per_device_requests.iter().all(|&c| c < total));
    }
}
