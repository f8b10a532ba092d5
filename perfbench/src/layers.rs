//! The traced run: per-layer numbers measured from the benchmark's own
//! code, around calls into the program's public entry points.
//!
//! * [`replay`] feeds the workload's own generated frames through the
//!   layer entry points in the order the session engine's `issue_frame`
//!   uses them, timing and allocation-counting each call, then runs the
//!   codec primitives on the same frames.
//! * [`engine_pair`] runs the workload without and with the program's
//!   existing host profiler; [`Engine`] reads the profiled run's scopes.
//! * [`fabric`] times the fabric's calibration and event loop and the
//!   cost of its observer.

use std::time::Instant;

use gbooster_codec::lru::{CacheToken, CommandCache};
use gbooster_codec::lz4;
use gbooster_core::fabric::{FabricConfig, FabricReport, SessionManager};
use gbooster_core::forward::{CommandForwarder, ServiceReceiver, CACHE_CAPACITY};
use gbooster_core::scheduler::{Dispatcher, ServiceNode};
use gbooster_core::service::ServiceRuntime;
use gbooster_core::session::Session;
use gbooster_core::transport::TransportManager;
use gbooster_gles::command::GlCommand;
use gbooster_gles::serialize::{decode_command, encode_command, DeferredResolver};
use gbooster_sim::device::DeviceSpec;
use gbooster_sim::time::{SimDuration, SimTime};
use gbooster_telemetry::{names, prof, HostProfileSnapshot, HostProfiler, Registry};
use gbooster_workload::games::GameTitle;
use gbooster_workload::tracegen::TraceGenerator;

use crate::alloc::Tally;
use crate::stats::{interpolated_quantile, median};
use crate::workload::{capacity_config, fabric_config, pool4, Checks, Workload, FABRIC_SECS};
use crate::Metric;

/// Frames the replay feeds through the entry points per workload.
const REPLAY_FRAMES: u64 = 1200;

/// Frame interval of the replay (the engine's initial estimate).
const DT_SECS: f64 = 1.0 / 30.0;

/// LAN RTT of every pool node (the session engine's constant).
const LAN_RTT: SimDuration = SimDuration::from_millis(2);

/// Interleaved unprofiled/profiled (or unobserved/observed) pairs; the
/// overhead is the minimum ratio over the pairs.
pub const PAIRS: usize = 3;

/// Simulated length of the fabric run behind the session workloads'
/// `core.fabric.*` rows.
const CAPACITY_SECS: u64 = 10;

/// Time, call count and allocations spent in one entry point.
#[derive(Clone, Copy, Debug, Default)]
struct Acc {
    ns: u64,
    calls: u64,
    allocs: u64,
    bytes: u64,
}

impl Acc {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let a = Tally::now();
        let t = Instant::now();
        let out = f();
        self.ns += t.elapsed().as_nanos() as u64;
        let d = a.elapsed();
        self.allocs += d.allocs;
        self.bytes += d.bytes;
        self.calls += 1;
        out
    }

    fn per_call_ns(&self) -> f64 {
        self.ns as f64 / self.calls.max(1) as f64
    }
}

/// Everything the replay accumulates.
#[derive(Default)]
struct ReplayAcc {
    frames: u64,
    trace_commands: u64,
    tracegen: Acc,
    forward: Acc,
    send: Acc,
    recv: Acc,
    dispatch: Acc,
    complete: Acc,
    decode: Acc,
    replay: Acc,
    encode: Acc,
    offer: Acc,
    lz4_compress: Acc,
    lz4_decompress: Acc,
    decode_cmd: Acc,
    commands: u64,
    encoded_bytes: u64,
    hits: u64,
    lz4_in: u64,
    lz4_out: u64,
    rejected: u64,
    wait_us: u64,
}

/// One phone's stream through the public entry points.
struct Stream {
    session: u64,
    gen: TraceGenerator,
    forwarder: CommandForwarder,
    runtimes: Vec<ServiceRuntime>,
    reference: ServiceReceiver,
    transport: TransportManager,
    frame_pixels: u64,
    texture_count: u32,
    seq: u64,
    now: SimTime,
}

impl Stream {
    fn new(
        session: u64,
        src: &Source,
        pool: &[DeviceSpec],
        loss_scale: f64,
        registry: &Registry,
    ) -> Result<Stream, String> {
        let mut transport = TransportManager::new(true, SimDuration::from_millis(100));
        // The manager's loss model starts at the nominal link (1.0); the
        // fabric's clean link (0.0) maps onto that floor.
        transport.set_loss_scale(loss_scale.max(1.0));
        transport.attach_registry(registry);
        let (w, h) = src.resolution;
        let mut s = Stream {
            session,
            gen: src.generator(),
            forwarder: CommandForwarder::new(),
            runtimes: pool.iter().cloned().map(ServiceRuntime::new).collect(),
            reference: ServiceReceiver::new(),
            transport,
            frame_pixels: u64::from(w) * u64::from(h),
            texture_count: src.title.profile().texture_count,
            seq: 0,
            now: SimTime::ZERO,
        };
        // The setup stream is set-up cost, not a frame: ship it to every
        // replica untimed.
        let setup = s.gen.setup_trace();
        let fwd = s
            .forwarder
            .forward_frame(&setup.commands, s.gen.client_memory())
            .map_err(|e| format!("setup forward: {e}"))?;
        for rt in &mut s.runtimes {
            let cmds = rt
                .decode(&fwd.wire)
                .map_err(|e| format!("setup decode: {e}"))?;
            rt.apply_frame(&cmds, false)
                .map_err(|e| format!("setup apply: {e}"))?;
        }
        s.reference
            .receive(&fwd.wire)
            .map_err(|e| format!("setup receive: {e}"))?;
        s.transport.send(fwd.wire.len(), SimTime::ZERO);
        Ok(s)
    }

    /// Feeds one frame through the entry points in `issue_frame` order:
    /// tracegen → forward → send → dispatch → decode + replay on every
    /// replica → phone reference receive; then, as at retirement, the
    /// downlink receive and the dispatcher completion. Returns the
    /// frame's token-stream bytes.
    fn step(
        &mut self,
        dispatcher: &mut Dispatcher,
        acc: &mut ReplayAcc,
        checks: &mut Checks,
    ) -> Result<usize, String> {
        let seq = self.seq;
        self.seq += 1;
        self.now += SimDuration::from_secs_f64(DT_SECS);
        acc.frames += 1;

        let trace = acc.tracegen.time(|| self.gen.next_frame(DT_SECS));
        acc.trace_commands += trace.commands.len() as u64;
        let (forwarder, mem) = (&mut self.forwarder, self.gen.client_memory());
        let fwd = acc
            .forward
            .time(|| forwarder.forward_frame(&trace.commands, mem))
            .map_err(|e| format!("forward_frame: {e}"))?;
        let textures = self.texture_count + if trace.scene_change { 2 } else { 0 };
        let (transport, now) = (&mut self.transport, self.now);
        let up = acc.send.time(|| {
            transport.on_frame(trace.touches, textures);
            transport.send(fwd.wire.len(), now)
        });
        let changed = (trace.changed_pixel_ratio * self.frame_pixels as f64).round() as u64;
        let encode = self.runtimes[0].encode_time(self.frame_pixels, changed);
        let session = self.session;
        let decision = acc.dispatch.time(|| {
            dispatcher.dispatch_for(session, seq, trace.effective_fill, encode, up.delivered_at)
        });
        acc.wait_us += (decision.start - up.delivered_at).as_micros();
        let mut replica = Vec::new();
        for (j, rt) in self.runtimes.iter_mut().enumerate() {
            let cmds = acc
                .decode
                .time(|| rt.decode(&fwd.wire))
                .map_err(|e| format!("decode: {e}"))?;
            let stats = acc
                .replay
                .time(|| {
                    if j == decision.node {
                        rt.apply_frame_validated(&cmds, true)
                    } else {
                        rt.apply_frame(&cmds, false)
                    }
                })
                .map_err(|e| format!("apply: {e}"))?;
            acc.rejected += u64::from(stats.commands_rejected);
            if j == 0 {
                replica = cmds;
            }
        }
        let reference = &mut self.reference;
        let received = acc
            .decode
            .time(|| reference.receive(&fwd.wire))
            .map_err(|e| format!("receive: {e}"))?;
        checks.check(received == replica, || {
            format!("frame {seq}: phone reference and replica decoded different commands")
        });
        let down_bytes = self.runtimes[0].encoded_bytes(changed);
        let down_at = decision.finish - encode * 0.7;
        acc.recv.time(|| transport.recv(down_bytes, down_at));
        acc.complete
            .time(|| dispatcher.complete_for(decision.node, session, seq));
        Ok(fwd.token_bytes)
    }
}

/// The same frames again, through the codec primitives one at a time,
/// with the benchmark's own resolver and cache mirroring the
/// forwarder's so the primitives see exactly the bytes it produced.
/// Kept apart from [`Stream`] so the two passes do not evict each
/// other's working sets between the calls they time.
struct Codec {
    gen: TraceGenerator,
    resolver: DeferredResolver,
    cache: CommandCache,
}

impl Codec {
    fn new(src: &Source) -> Result<Codec, String> {
        let mut c = Codec {
            gen: src.generator(),
            resolver: DeferredResolver::new(),
            cache: CommandCache::new(CACHE_CAPACITY),
        };
        let setup = c.gen.setup_trace();
        for cmd in setup.commands {
            for r in c
                .resolver
                .push(cmd, c.gen.client_memory())
                .map_err(|e| format!("setup resolve: {e}"))?
            {
                let mut bytes = Vec::new();
                encode_command(&r, &mut bytes).map_err(|e| format!("setup encode: {e}"))?;
                c.cache.offer(&bytes);
            }
        }
        Ok(c)
    }

    /// Encode → LRU offer → LZ4 compress → decompress → decode, each
    /// checked against its input; `token_bytes` is what the forwarder
    /// produced for this frame.
    fn step(
        &mut self,
        token_bytes: usize,
        acc: &mut ReplayAcc,
        checks: &mut Checks,
    ) -> Result<(), String> {
        let trace = self.gen.next_frame(DT_SECS);
        let mut resolved: Vec<GlCommand> = Vec::new();
        for cmd in trace.commands {
            resolved.extend(
                self.resolver
                    .push(cmd, self.gen.client_memory())
                    .map_err(|e| format!("resolve: {e}"))?,
            );
        }
        let encoded = acc
            .encode
            .time(|| {
                resolved
                    .iter()
                    .map(|c| {
                        let mut out = Vec::new();
                        encode_command(c, &mut out).map(|()| out)
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| format!("encode_command: {e}"))?;
        acc.commands += resolved.len() as u64;
        acc.encoded_bytes += encoded.iter().map(|e| e.len() as u64).sum::<u64>();
        let cache = &mut self.cache;
        let tokens: Vec<CacheToken> = acc
            .offer
            .time(|| encoded.iter().map(|e| cache.offer(e)).collect());
        acc.hits += tokens.iter().filter(|t| t.is_ref()).count() as u64;
        // The token stream in the forwarder's wire layout.
        let mut stream = Vec::new();
        for t in &tokens {
            match t {
                CacheToken::Ref(key) => {
                    stream.push(0x00);
                    stream.extend_from_slice(&key.to_le_bytes());
                }
                CacheToken::Full(bytes) => {
                    stream.push(0x01);
                    stream.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                    stream.extend_from_slice(bytes);
                }
            }
        }
        let (compressed, frame) = acc.lz4_compress.time(|| lz4::compress_framed(&stream));
        acc.lz4_in += frame.input_bytes;
        acc.lz4_out += frame.output_bytes;
        let inflated = acc
            .lz4_decompress
            .time(|| lz4::decompress(&compressed, stream.len()))
            .map_err(|e| format!("lz4 decompress: {e}"))?;
        let decoded = acc
            .decode_cmd
            .time(|| {
                encoded
                    .iter()
                    .map(|e| decode_command(e).map(|(c, _)| c))
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| format!("decode_command: {e}"))?;
        checks.check(stream.len() == token_bytes, || {
            format!(
                "mirrored token stream {} B, forwarder {token_bytes} B",
                stream.len()
            )
        });
        checks.check(inflated == stream, || "lz4 round trip differs".to_string());
        checks.check(decoded == resolved, || {
            "decode_command does not invert encode_command".to_string()
        });
        Ok(())
    }
}

/// Where one replayed stream's frames come from.
struct Source {
    title: GameTitle,
    resolution: (u32, u32),
    seed: u64,
}

impl Source {
    fn generator(&self) -> TraceGenerator {
        let (w, h) = self.resolution;
        TraceGenerator::new(self.title.profile(), self.title.intensity, w, h, self.seed)
    }
}

/// The per-layer rows of the replay, plus what reconciliation needs.
pub struct Replay {
    pub metrics: Vec<Metric>,
    /// (engine scope, replay ns per call) for every replayed entry point
    /// the engine profiles.
    pub ns_per_call: Vec<(&'static str, f64)>,
}

impl Replay {
    /// Element-wise medians over several passes (counts and ratios are
    /// identical across passes; times are not).
    pub fn median(passes: &[Replay]) -> Replay {
        let first = &passes[0];
        let metrics = first
            .metrics
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let v: Vec<f64> = passes.iter().map(|p| p.metrics[i].value).collect();
                Metric::named(m.name.clone(), median(&v), m.unit)
            })
            .collect();
        let ns_per_call = first
            .ns_per_call
            .iter()
            .enumerate()
            .map(|(i, &(scope, _))| {
                let v: Vec<f64> = passes.iter().map(|p| p.ns_per_call[i].1).collect();
                (scope, median(&v))
            })
            .collect();
        Replay {
            metrics,
            ns_per_call,
        }
    }
}

/// One replay pass over `REPLAY_FRAMES` of the workload's frames:
/// entry points first, then the codec primitives on the same frames.
/// Session workloads replay their first session's stream; the fabric
/// replays its four titles' streams at the fabric resolution,
/// round-robin, over its pool.
///
/// # Errors
///
/// Returns the first entry point that fails.
pub fn replay(w: Workload, seed: u64, checks: &mut Checks) -> Result<Replay, String> {
    let registry = Registry::new();
    let first = w.unit_seeds(seed)[0];
    let (sources, pool, loss_scale) = match w.session_shape() {
        Some(shape) => {
            let src = Source {
                title: shape.title.clone(),
                resolution: shape.resolution(),
                seed: first,
            };
            (vec![src], shape.pool, shape.loss_scale)
        }
        None => {
            let cfg = fabric_config(first, FABRIC_SECS, false);
            let mut sources: Vec<Source> = Vec::new();
            for t in &cfg.tenants {
                if !sources.iter().any(|s| s.title.id == t.title.id) {
                    sources.push(Source {
                        title: t.title.clone(),
                        resolution: cfg.resolution,
                        seed: first ^ sources.len() as u64,
                    });
                }
            }
            (sources, pool4(), cfg.loss_scale)
        }
    };
    let mut streams = sources
        .iter()
        .enumerate()
        .map(|(i, src)| Stream::new(i as u64 + 1, src, &pool, loss_scale, &registry))
        .collect::<Result<Vec<_>, _>>()?;
    let mut dispatcher = Dispatcher::new(
        pool.iter()
            .map(|spec| ServiceNode::new(spec.clone(), LAN_RTT))
            .collect(),
    );
    let retx0 = registry.snapshot().counter(names::net::RETRANSMITS);
    let mut acc = ReplayAcc::default();
    let n = streams.len();
    let mut token_bytes = Vec::with_capacity(REPLAY_FRAMES as usize);
    for i in 0..REPLAY_FRAMES as usize {
        token_bytes.push(streams[i % n].step(&mut dispatcher, &mut acc, checks)?);
    }
    let retx = registry.snapshot().counter(names::net::RETRANSMITS) - retx0;
    drop(streams);
    let mut codecs = sources
        .iter()
        .map(Codec::new)
        .collect::<Result<Vec<_>, _>>()?;
    for (i, &bytes) in token_bytes.iter().enumerate() {
        codecs[i % n].step(bytes, &mut acc, checks)?;
    }

    let f = acc.frames as f64;
    let cmds = acc.commands.max(1) as f64;
    let metrics = vec![
        Metric::new(
            "workload.tracegen.ns_per_frame",
            acc.tracegen.ns as f64 / f,
            "ns",
        ),
        Metric::new(
            "workload.tracegen.commands_per_frame",
            acc.trace_commands as f64 / f,
            "count",
        ),
        Metric::new("gles.encode.ns_per_cmd", acc.encode.ns as f64 / cmds, "ns"),
        Metric::new(
            "gles.encode.bytes_per_cmd",
            acc.encoded_bytes as f64 / cmds,
            "bytes",
        ),
        Metric::new(
            "gles.decode.ns_per_cmd",
            acc.decode_cmd.ns as f64 / cmds,
            "ns",
        ),
        Metric::new("codec.lru.ns_per_offer", acc.offer.ns as f64 / cmds, "ns"),
        Metric::new("codec.lru.hit_ratio", acc.hits as f64 / cmds, "ratio"),
        Metric::new(
            "codec.lz4.compress_ns_per_call",
            acc.lz4_compress.per_call_ns(),
            "ns",
        ),
        Metric::new(
            "codec.lz4.compress_alloc_bytes_per_call",
            acc.lz4_compress.bytes as f64 / acc.lz4_compress.calls.max(1) as f64,
            "bytes",
        ),
        Metric::new(
            "codec.lz4.decompress_ns_per_call",
            acc.lz4_decompress.per_call_ns(),
            "ns",
        ),
        Metric::new(
            "codec.lz4.ratio",
            acc.lz4_out as f64 / acc.lz4_in.max(1) as f64,
            "ratio",
        ),
        Metric::new("core.forward.ns_per_frame", acc.forward.ns as f64 / f, "ns"),
        Metric::new(
            "core.forward.allocs_per_frame",
            acc.forward.allocs as f64 / f,
            "count",
        ),
        Metric::new(
            "core.forward.alloc_bytes_per_frame",
            acc.forward.bytes as f64 / f,
            "bytes",
        ),
        Metric::new(
            "core.service.decode_ns_per_frame",
            acc.decode.ns as f64 / f,
            "ns",
        ),
        Metric::new(
            "core.service.decode_allocs_per_frame",
            acc.decode.allocs as f64 / f,
            "count",
        ),
        Metric::new(
            "core.service.replay_ns_per_frame",
            acc.replay.ns as f64 / f,
            "ns",
        ),
        Metric::new(
            "core.service.rejected_commands",
            acc.rejected as f64,
            "count",
        ),
        Metric::new("core.transport.send_ns", acc.send.per_call_ns(), "ns"),
        Metric::new("core.transport.recv_ns", acc.recv.per_call_ns(), "ns"),
        Metric::new(
            "core.transport.retransmits_per_frame",
            retx as f64 / f,
            "count",
        ),
        Metric::new(
            "core.scheduler.dispatch_ns",
            (acc.dispatch.ns + acc.complete.ns) as f64 / f,
            "ns",
        ),
        Metric::new(
            "core.scheduler.sim_wait_ms",
            acc.wait_us as f64 / f / 1e3,
            "ms",
        ),
    ];
    let ns_per_call = vec![
        (names::host::ISSUE, acc.tracegen.per_call_ns()),
        (names::host::FORWARD, acc.forward.per_call_ns()),
        (names::host::GLES_DECODE, acc.decode.per_call_ns()),
        (names::host::REPLAY, acc.replay.per_call_ns()),
        (names::host::TRANSPORT_SEND, acc.send.per_call_ns()),
        (names::host::TRANSPORT_RECV, acc.recv.per_call_ns()),
        (
            names::host::DISPATCH,
            (acc.dispatch.ns + acc.complete.ns) as f64 / acc.dispatch.calls.max(1) as f64,
        ),
    ];
    Ok(Replay {
        metrics,
        ns_per_call,
    })
}

/// The engine scopes reported per presented frame, by metric label.
const ENGINE_SCOPES: [(&str, &str); 7] = [
    ("forward", names::host::FORWARD),
    ("gles.decode", names::host::GLES_DECODE),
    ("lz4", names::host::LZ4),
    ("lz4_decode", names::host::LZ4_DECODE),
    ("replay", names::host::REPLAY),
    ("present", names::host::PRESENT),
    ("issue", names::host::ISSUE),
];

/// One interleaved pair of engine runs: the workload unit (the first
/// session, or the whole fabric) without, then with, the host profiler.
pub struct EnginePair {
    plain_s: f64,
    profiled_s: f64,
    frames: u64,
    profile: HostProfileSnapshot,
}

/// Runs one [`EnginePair`]. The fabric has no profiler of its own; the
/// benchmark installs one around it, which adds no scope.
///
/// # Errors
///
/// Returns the program's error for a failed run.
pub fn engine_pair(w: Workload, seed: u64) -> Result<EnginePair, String> {
    let first = w.unit_seeds(seed)[0];
    let unit = |profiled: bool| -> Result<(f64, u64, HostProfileSnapshot), String> {
        prof::set_enabled(profiled);
        let t = Instant::now();
        let out = match w.session_shape() {
            Some(shape) => {
                let cfg = shape.config(first, w.full_secs());
                Session::try_run(&cfg)
                    .map(|r| (r.frames, r.host_profile.unwrap_or_default()))
                    .map_err(|e| format!("session: {e}"))
            }
            None => {
                let profiler = HostProfiler::new();
                let guard = prof::install(&profiler);
                let r = SessionManager::run(&fabric_config(first, FABRIC_SECS, true));
                drop(guard);
                r.map(|r| (r.frames_presented, profiler.snapshot()))
                    .map_err(|e| format!("fabric: {e}"))
            }
        };
        let wall = t.elapsed().as_secs_f64();
        prof::set_enabled(false);
        out.map(|(frames, profile)| (wall, frames, profile))
    };
    let (plain_s, frames, _) = unit(false)?;
    let (profiled_s, _, profile) = unit(true)?;
    Ok(EnginePair {
        plain_s,
        profiled_s,
        frames,
        profile,
    })
}

/// The engine's own profile of the workload unit.
pub struct Engine {
    pub metrics: Vec<Metric>,
    /// Unprofiled wall nanoseconds per presented frame (median).
    pub e2e_ns_per_frame: f64,
    last: EnginePair,
}

impl Engine {
    /// Reads the pairs: scope figures from the last profiled run, the
    /// profiler's overhead as the minimum profiled/plain ratio.
    pub fn new(mut pairs: Vec<EnginePair>) -> Engine {
        let plain: Vec<f64> = pairs.iter().map(|p| p.plain_s).collect();
        let min_ratio = pairs
            .iter()
            .map(|p| p.profiled_s / p.plain_s)
            .fold(f64::INFINITY, f64::min);
        let last = pairs.pop().expect("at least one pair");
        let mut e = Engine {
            metrics: Vec::new(),
            e2e_ns_per_frame: median(&plain) * 1e9 / last.frames.max(1) as f64,
            last,
        };
        for (label, scope) in ENGINE_SCOPES {
            e.metrics.push(Metric::named(
                format!("engine.{label}.calls_per_frame"),
                e.per_frame(scope, |p| p.calls),
                "count",
            ));
            e.metrics.push(Metric::named(
                format!("engine.{label}.self_ns_per_frame"),
                e.per_frame(scope, |p| p.self_ns),
                "ns",
            ));
        }
        e.metrics.push(Metric::new(
            "engine.trace_overhead_pct",
            (min_ratio - 1.0) * 100.0,
            "%",
        ));
        e
    }

    /// A profiled figure of `scope`, summed over its call paths, per
    /// presented frame.
    fn per_frame(
        &self,
        scope: &str,
        field: impl Fn(&gbooster_telemetry::prof::ProfPath) -> u64,
    ) -> f64 {
        let total: u64 = self
            .last
            .profile
            .paths
            .iter()
            .filter(|p| p.leaf() == scope)
            .map(field)
            .sum();
        total as f64 / self.last.frames.max(1) as f64
    }

    /// Profiled calls of `scope` per presented frame.
    pub fn calls_per_frame(&self, scope: &str) -> f64 {
        self.per_frame(scope, |p| p.calls)
    }
}

/// The fabric layer's rows and the report they came from.
pub struct Fabric {
    pub metrics: Vec<Metric>,
    pub report: FabricReport,
    /// Calibration plus event-loop nanoseconds per presented frame.
    pub ns_per_frame: f64,
}

/// Times the fabric: calibration alone (a 1 ms horizon), the full run
/// with the observer off and on, interleaved. The fabric workload
/// measures itself; a session workload measures the fabric run of its
/// own title, pool and link ([`capacity_config`]).
///
/// # Errors
///
/// Returns the program's error for a failed run.
pub fn fabric(w: Workload, seed: u64) -> Result<Fabric, String> {
    let first = w.unit_seeds(seed)[0];
    let config = |observe: bool| -> FabricConfig {
        match w.session_shape() {
            Some(shape) => {
                let mut cfg = capacity_config(&shape, first, CAPACITY_SECS);
                if observe {
                    cfg.observe_default();
                }
                cfg
            }
            None => fabric_config(first, FABRIC_SECS, observe),
        }
    };
    let run = |cfg: &FabricConfig| -> Result<(f64, FabricReport), String> {
        let t = Instant::now();
        let r = SessionManager::run(cfg).map_err(|e| format!("fabric: {e}"))?;
        Ok((t.elapsed().as_secs_f64(), r))
    };
    let mut calib = config(false);
    calib.duration = SimDuration::from_millis(1);
    calib.events.clear();
    let mut calibrate = Vec::new();
    for _ in 0..PAIRS {
        calibrate.push(run(&calib)?.0);
    }
    let calibrate_s = median(&calibrate);
    let mut ratios = Vec::new();
    let mut observed = Vec::new();
    let mut report = None;
    for _ in 0..PAIRS {
        let (off, _) = run(&config(false))?;
        let (on, r) = run(&config(true))?;
        ratios.push(on / off);
        observed.push(on);
        report = Some(r);
    }
    let report = report.expect("PAIRS > 0");
    let frames = report.frames_presented.max(1) as f64;
    let wall = median(&observed);
    let queue_wait = report
        .telemetry
        .histogram(names::fabric::QUEUE_WAIT)
        .map_or(0.0, |h| interpolated_quantile(h, 0.99) / 1e3);
    let min_ratio = ratios.iter().copied().fold(f64::INFINITY, f64::min);
    let metrics = vec![
        Metric::new(
            "core.fabric.ns_per_frame",
            (wall - calibrate_s).max(0.0) * 1e9 / frames,
            "ns",
        ),
        Metric::new("core.fabric.calibrate_s", calibrate_s, "s"),
        Metric::new(
            "core.fabric.observe_overhead_pct",
            (min_ratio - 1.0) * 100.0,
            "%",
        ),
        Metric::new(
            "core.fabric.migrations",
            report.migrations.len() as f64,
            "count",
        ),
        Metric::new("core.fabric.queue_wait_p99_ms", queue_wait, "ms"),
        Metric::new("core.fabric.rejected_rate", report.rejected_rate, "ratio"),
    ];
    Ok(Fabric {
        metrics,
        report,
        ns_per_frame: wall * 1e9 / frames,
    })
}
