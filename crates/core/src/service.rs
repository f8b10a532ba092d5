//! The service-device runtime (Section IV-C).
//!
//! "Upon receiving the graphics commands, the service device delivers them
//! to its local GPU for execution. … When the computation is completed,
//! the rendered images are transmitted back to the user device."
//!
//! [`ServiceRuntime`] couples a [`ServiceReceiver`] (wire → commands), a
//! [`GlContext`] replica (state consistency, Section VI-B), a GPU cost
//! model, and the Turbo encode-cost model. The actively-cooled service
//! GPU never thermally throttles — the paper's explanation for GBooster's
//! improved FPS *stability*.

use gbooster_gles::command::GlCommand;
use gbooster_gles::state::GlContext;
use gbooster_sim::device::DeviceSpec;
use gbooster_sim::gpu::GpuModel;
use gbooster_sim::time::{SimDuration, SimTime};
use gbooster_telemetry::{names, Counter, Histogram, Registry, RemoteSpanLog, TraceContext};

use crate::error::GBoosterError;
use crate::forward::ServiceReceiver;

// The Turbo encode-cost model lives with the codec; re-exported here so
// existing consumers keep their import paths.
pub use gbooster_codec::turbo::{
    ENCODE_COMPRESSION, ENCODE_HEADER_BYTES, ENCODE_JPEG_PIXELS_PER_SEC, ENCODE_SCAN_PIXELS_PER_SEC,
};

/// Outcome of replaying one frame's commands on a service device.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Commands applied to the context replica.
    pub commands_applied: u32,
    /// Draw calls executed (only on the dispatched device).
    pub draws_executed: u32,
    /// Commands refused by the validation pass (out-of-bounds buffer or
    /// texture references); only [`ServiceRuntime::apply_frame_validated`]
    /// produces a non-zero count.
    pub commands_rejected: u32,
}

/// Per-session command-stream validation at the service boundary.
///
/// Once streams from many apps share one node (the multi-tenant
/// fabric), a malformed or hostile stream must not be able to corrupt
/// the shared replica or abort every co-tenant's session: a reference
/// that writes outside its object's storage is *rejected* — skipped and
/// counted under [`names::service::REJECTED_COMMANDS`] — instead of
/// propagating a session-fatal state-machine error. The check mirrors
/// the bounds the GL state machine itself enforces, evaluated *before*
/// apply so a bad command is dropped without side effects.
fn command_in_bounds(ctx: &GlContext, cmd: &GlCommand) -> bool {
    match cmd {
        GlCommand::BufferSubData {
            target,
            offset,
            data,
        } => {
            let id = ctx.buffer_binding(*target);
            match ctx.buffer(id) {
                Ok(buf) => (*offset as usize).saturating_add(data.len()) <= buf.data.len(),
                Err(_) => false,
            }
        }
        GlCommand::TexSubImage2D {
            x,
            y,
            width,
            height,
            ..
        } => {
            let Some(id) = ctx.texture_binding() else {
                return false;
            };
            match ctx.texture(id) {
                Ok(tex) => {
                    x.saturating_add(*width) <= tex.width && y.saturating_add(*height) <= tex.height
                }
                Err(_) => false,
            }
        }
        _ => true,
    }
}

/// One service device's GBooster runtime.
#[derive(Debug)]
pub struct ServiceRuntime {
    spec: DeviceSpec,
    gpu: GpuModel,
    context: GlContext,
    receiver: ServiceReceiver,
    frames_rendered: u64,
    telemetry: Option<(Counter, Histogram)>,
    rejected: Option<Counter>,
    /// Distributed-tracing capture: spans this device records are
    /// stamped on *its* clock (sim time shifted by `clock_skew_us`) and
    /// shipped back tagged with the originating [`TraceContext`].
    remote_log: Option<RemoteSpanLog>,
    clock_skew_us: i64,
}

impl ServiceRuntime {
    /// Boots the runtime on `spec`.
    pub fn new(spec: DeviceSpec) -> Self {
        ServiceRuntime {
            gpu: GpuModel::new(spec.gpu.clone()),
            spec,
            context: GlContext::new(),
            receiver: ServiceReceiver::new(),
            frames_rendered: 0,
            telemetry: None,
            rejected: None,
            remote_log: None,
            clock_skew_us: 0,
        }
    }

    /// Attaches the span log this device appends its service-clock spans
    /// to, and the ground-truth (service − user) clock skew in µs. The
    /// skew shapes only the recorded timestamps; nothing on the user
    /// device may read it — stitching must rely on the estimated offset.
    pub fn attach_remote_log(&mut self, log: RemoteSpanLog, clock_skew_us: i64) {
        self.remote_log = Some(log);
        self.clock_skew_us = clock_skew_us;
    }

    /// Records one service-side span for the frame identified by `ctx`.
    /// `start`/`end` are the simulator's ground-truth instants; the span
    /// is stamped as this device's clock would see them.
    pub fn record_remote_span(
        &self,
        ctx: TraceContext,
        name: &'static str,
        start: SimTime,
        end: SimTime,
    ) {
        let Some(log) = &self.remote_log else { return };
        if ctx.is_none() {
            return;
        }
        log.record(gbooster_telemetry::RemoteSpan {
            ctx,
            name,
            start_us: start.as_micros() as i64 + self.clock_skew_us,
            end_us: end.as_micros() as i64 + self.clock_skew_us,
        });
    }

    /// Mirrors service-side activity into `registry`: applied-command
    /// counts under [`names::service::COMMANDS_APPLIED`] and modeled
    /// Turbo encode times under [`names::service::ENCODE_TIME`].
    pub fn attach_registry(&mut self, registry: &Registry) {
        self.telemetry = Some((
            registry.counter(names::service::COMMANDS_APPLIED),
            registry.histogram(names::service::ENCODE_TIME),
        ));
        self.rejected = Some(registry.counter(names::service::REJECTED_COMMANDS));
    }

    /// The hardware description.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The GL context replica.
    pub fn context(&self) -> &GlContext {
        &self.context
    }

    /// Frames this device has rendered.
    pub fn frames_rendered(&self) -> u64 {
        self.frames_rendered
    }

    /// Decodes a wire frame into commands (does not apply them).
    ///
    /// The session engine does not call this per replica: every node's
    /// receiver mirrors the phone-side reference receiver, so the engine
    /// decodes each wire once there and applies the commands here with
    /// [`Self::apply_frame`]. A standalone runtime decodes its own wire.
    ///
    /// # Errors
    ///
    /// Propagates receiver decode errors.
    pub fn decode(&mut self, wire: &[u8]) -> Result<Vec<GlCommand>, GBoosterError> {
        self.receiver.receive(wire)
    }

    /// Applies one frame of commands to this device's context replica.
    ///
    /// With `execute_draws = false` the device only ingests state-mutating
    /// commands (it is a replica, not the dispatch target); draws and
    /// frame boundaries are skipped, exactly the multicast-replication
    /// split of Section VI-B.
    ///
    /// # Errors
    ///
    /// Propagates GL state-machine errors.
    pub fn apply_frame(
        &mut self,
        commands: &[GlCommand],
        execute_draws: bool,
    ) -> Result<ReplayStats, GBoosterError> {
        self.apply_frame_inner(commands, execute_draws, false)
    }

    fn apply_frame_inner(
        &mut self,
        commands: &[GlCommand],
        execute_draws: bool,
        validate: bool,
    ) -> Result<ReplayStats, GBoosterError> {
        gbooster_telemetry::prof_scope!(names::host::REPLAY);
        let mut stats = ReplayStats::default();
        for cmd in commands {
            // Validation interleaves with apply: bounds depend on state
            // earlier commands of this same frame may have created
            // (BufferData before BufferSubData), so each command is
            // checked against the replica exactly as it stands when the
            // command would run.
            if validate && !command_in_bounds(&self.context, cmd) {
                stats.commands_rejected += 1;
                continue;
            }
            if cmd.is_state_mutating() {
                self.context.apply(cmd)?;
                stats.commands_applied += 1;
            } else if execute_draws {
                self.context.apply(cmd)?;
                stats.commands_applied += 1;
                if cmd.is_draw() {
                    stats.draws_executed += 1;
                }
            }
        }
        if execute_draws {
            self.context.end_frame();
            self.frames_rendered += 1;
        }
        if let Some((applied, _)) = &self.telemetry {
            applied.add(stats.commands_applied as u64);
        }
        if stats.commands_rejected > 0 {
            if let Some(c) = &self.rejected {
                c.add(stats.commands_rejected as u64);
            }
        }
        Ok(stats)
    }

    /// [`Self::apply_frame`] behind the per-session validation pass
    /// (arXiv:2111.03065's service-boundary model): each command's
    /// buffer/texture references are bounds-checked against the replica
    /// *before* apply. Out-of-bounds commands are skipped and counted
    /// into [`ReplayStats::commands_rejected`] (and the
    /// [`names::service::REJECTED_COMMANDS`] counter when a registry is
    /// attached) instead of failing the whole session — the replica
    /// never observes them, so its digest matches a stream that never
    /// contained them.
    ///
    /// # Errors
    ///
    /// Propagates GL state-machine errors from the *valid* commands
    /// only.
    pub fn apply_frame_validated(
        &mut self,
        commands: &[GlCommand],
        execute_draws: bool,
    ) -> Result<ReplayStats, GBoosterError> {
        self.apply_frame_inner(commands, execute_draws, true)
    }

    /// Re-executes the draw commands of a frame this device originally
    /// skipped as a replica, because the dispatch target failed and the
    /// frame was re-dispatched here.
    ///
    /// The frame's state-mutating commands were already replicated (every
    /// node ingests them in stream order — Section VI-B), so only the
    /// draws are missing; draws never touch replicated state, which keeps
    /// the replica digests consistent. The context may have advanced past
    /// the frame by the time recovery runs, so draws that no longer apply
    /// (for example against an object a later frame deleted) are skipped
    /// best-effort rather than failing the session — their frame is
    /// already superseded on screen.
    pub fn execute_recovered_draws(&mut self, commands: &[GlCommand]) -> ReplayStats {
        let mut stats = ReplayStats::default();
        for cmd in commands {
            if !cmd.is_state_mutating() && self.context.apply(cmd).is_ok() {
                stats.commands_applied += 1;
                if cmd.is_draw() {
                    stats.draws_executed += 1;
                }
            }
        }
        self.context.end_frame();
        self.frames_rendered += 1;
        if let Some((applied, _)) = &self.telemetry {
            applied.add(stats.commands_applied as u64);
        }
        stats
    }

    /// Render time for a request of `effective_fill` complexity-weighted
    /// pixels on this device's GPU.
    pub fn render_time(&self, effective_fill: u64) -> SimDuration {
        self.gpu.render_time(effective_fill, 1.0)
    }

    /// Turbo encode time for a frame of `frame_pixels` total pixels of
    /// which `changed_pixels` changed.
    pub fn encode_time(&self, frame_pixels: u64, changed_pixels: u64) -> SimDuration {
        let t = SimDuration::from_secs_f64(gbooster_codec::turbo::model_encode_secs(
            frame_pixels,
            changed_pixels,
        ));
        if let Some((_, encode)) = &self.telemetry {
            encode.record_duration(t);
        }
        t
    }

    /// Encoded frame size for `changed_pixels` of RGBA content.
    pub fn encoded_bytes(&self, changed_pixels: u64) -> usize {
        gbooster_codec::turbo::model_encoded_bytes(changed_pixels)
    }

    /// Context digest for replica-consistency checks.
    pub fn state_digest(&self) -> u64 {
        self.context.digest()
    }

    /// One-shot rejoin resync: replaces this device's GL replica with a
    /// restored `snapshot` of the reference state and adopts `receiver`
    /// (a clone of a synchronized peer's decoder, so LRU `Ref` tokens in
    /// subsequent frames resolve). After this call the device is current
    /// without replaying any command history — the wire cost is the
    /// snapshot transfer, accounted by the caller from
    /// `StateSnapshot::wire_bytes`.
    pub fn resync(
        &mut self,
        snapshot: &gbooster_gles::state::StateSnapshot,
        receiver: ServiceReceiver,
    ) {
        self.context = GlContext::restore(snapshot);
        self.receiver = receiver;
    }

    /// Delta-aware resync for a destination that already holds a
    /// replica of `resident` — the title's immutable setup segment,
    /// cached by the shared-segment machinery or surviving a restart
    /// content-addressed on disk. The restored state is identical to a
    /// full [`ServiceRuntime::resync`], but only the per-session delta
    /// travels; the returned value is the billable wire cost
    /// (`StateSnapshot::delta_wire_bytes`), which the caller charges to
    /// the uplink. The bytes *not* shipped belong in
    /// `migrate.snapshot_bytes_saved`.
    pub fn resync_with_resident(
        &mut self,
        snapshot: &gbooster_gles::state::StateSnapshot,
        resident: &gbooster_gles::state::StateSnapshot,
        receiver: ServiceReceiver,
    ) -> u64 {
        self.context = GlContext::restore(snapshot);
        self.receiver = receiver;
        snapshot.delta_wire_bytes(resident)
    }

    /// Advances the service GPU's thermal/energy model (it never throttles
    /// thanks to active cooling; asserted in tests).
    pub fn gpu_tick(&mut self, dt: SimDuration, utilization: f64) {
        self.gpu.step(dt, utilization);
        debug_assert!(
            !self.gpu.is_throttled(),
            "actively-cooled service GPU must not throttle"
        );
    }

    /// True if this device's GPU is currently thermally throttled.
    pub fn is_throttled(&self) -> bool {
        self.gpu.is_throttled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forward::CommandForwarder;
    use gbooster_gles::command::ClientMemory;
    use gbooster_workload::genre::GenreProfile;
    use gbooster_workload::tracegen::TraceGenerator;

    fn forwarded_frames(n: usize) -> (Vec<Vec<u8>>, ClientMemory) {
        let mut gen = TraceGenerator::new(GenreProfile::action(), 1.0, 320, 240, 17);
        let mut fw = CommandForwarder::new();
        let mut frames = Vec::new();
        let setup = gen.setup_trace();
        frames.push(
            fw.forward_frame(&setup.commands, gen.client_memory())
                .unwrap()
                .wire,
        );
        for _ in 0..n {
            let f = gen.next_frame(1.0 / 30.0);
            frames.push(
                fw.forward_frame(&f.commands, gen.client_memory())
                    .unwrap()
                    .wire,
            );
        }
        (frames, gen.client_memory().clone())
    }

    #[test]
    fn replicas_reach_identical_state_digests() {
        // Two devices receive the same stream; one executes draws, the
        // other only replicates state. Their context digests must match
        // (Section VI-B's consistency requirement).
        let (frames, _) = forwarded_frames(20);
        let mut executor = ServiceRuntime::new(DeviceSpec::nvidia_shield());
        let mut replica = ServiceRuntime::new(DeviceSpec::minix_neo_u1());
        // Each runtime needs its own receiver cache, so decode with
        // per-device receivers fed the identical byte stream.
        for wire in &frames {
            let cmds_a = executor.decode(wire).unwrap();
            let cmds_b = replica.decode(wire).unwrap();
            assert_eq!(cmds_a, cmds_b);
            executor.apply_frame(&cmds_a, true).unwrap();
            replica.apply_frame(&cmds_b, false).unwrap();
        }
        assert_eq!(executor.state_digest(), replica.state_digest());
        assert_eq!(executor.frames_rendered(), frames.len() as u64);
        assert_eq!(replica.frames_rendered(), 0);
    }

    #[test]
    fn replica_skips_draws() {
        let (frames, _) = forwarded_frames(2);
        let mut replica = ServiceRuntime::new(DeviceSpec::nvidia_shield());
        // Prime with the setup stream, then apply one gameplay frame.
        let setup = replica.decode(&frames[0]).unwrap();
        replica.apply_frame(&setup, false).unwrap();
        let cmds = replica.decode(&frames[1]).unwrap();
        let stats = replica.apply_frame(&cmds, false).unwrap();
        assert_eq!(stats.draws_executed, 0);
        assert!(stats.commands_applied > 0);
    }

    #[test]
    fn resynced_replacement_tracks_the_stream_without_history_replay() {
        let (frames, _) = forwarded_frames(30);
        let mut veteran = ServiceRuntime::new(DeviceSpec::nvidia_shield());
        // The veteran ingests the whole history; cache Refs abound.
        let (head, tail) = frames.split_at(frames.len() - 5);
        for wire in head {
            let cmds = veteran.decode(wire).unwrap();
            veteran.apply_frame(&cmds, true).unwrap();
        }
        // A replacement node joins late: one snapshot + receiver clone,
        // zero history replay.
        let mut rookie = ServiceRuntime::new(DeviceSpec::minix_neo_u1());
        let snap = veteran.context().snapshot();
        rookie.resync(&snap, veteran.receiver.clone());
        assert_eq!(rookie.state_digest(), veteran.state_digest());
        // Both stay in lockstep across the remaining frames, Refs and all.
        for wire in tail {
            let a = veteran.decode(wire).unwrap();
            let b = rookie.decode(wire).unwrap();
            assert_eq!(a, b);
            veteran.apply_frame(&a, true).unwrap();
            rookie.apply_frame(&b, true).unwrap();
        }
        assert_eq!(rookie.state_digest(), veteran.state_digest());
    }

    #[test]
    fn delta_resync_restores_full_state_but_bills_only_the_session_delta() {
        let (frames, _) = forwarded_frames(30);
        let mut source = ServiceRuntime::new(DeviceSpec::nvidia_shield());
        // The destination replicated the same title's setup segment
        // earlier (PR 8 shared segments): it holds the resident base.
        let setup = source.decode(&frames[0]).unwrap();
        source.apply_frame(&setup, true).unwrap();
        let resident = source.context().snapshot();

        // The session then plays 29 warm frames on the source only.
        for wire in &frames[1..] {
            let cmds = source.decode(wire).unwrap();
            source.apply_frame(&cmds, true).unwrap();
        }
        let warm = source.context().snapshot();

        let mut dest = ServiceRuntime::new(DeviceSpec::minix_neo_u1());
        let billed = dest.resync_with_resident(&warm, &resident, source.receiver.clone());

        // State is complete — digest-identical to a full resync…
        assert_eq!(dest.state_digest(), source.state_digest());
        // …but the bill excludes the resident setup segment.
        assert_eq!(billed, warm.delta_wire_bytes(&resident));
        assert!(
            billed < warm.wire_bytes(),
            "delta {billed} must undercut the full snapshot {}",
            warm.wire_bytes()
        );
    }

    #[test]
    fn validation_rejects_out_of_bounds_references_without_poisoning_state() {
        use gbooster_gles::types::{
            BufferId, BufferTarget, BufferUsage, PixelFormat, TextureId, TextureTarget,
        };
        use gbooster_telemetry::Registry;
        use std::sync::Arc;

        let setup = vec![
            GlCommand::GenBuffer(BufferId(1)),
            GlCommand::BindBuffer {
                target: BufferTarget::Array,
                buffer: BufferId(1),
            },
            GlCommand::BufferData {
                target: BufferTarget::Array,
                data: Arc::new(vec![0u8; 16]),
                usage: BufferUsage::StaticDraw,
            },
            GlCommand::GenTexture(TextureId(1)),
            GlCommand::BindTexture {
                target: TextureTarget::Texture2D,
                texture: TextureId(1),
            },
            GlCommand::TexImage2D {
                target: TextureTarget::Texture2D,
                level: 0,
                format: PixelFormat::Rgba8,
                width: 4,
                height: 4,
                data: Arc::new(vec![0u8; 64]),
            },
        ];
        let hostile = vec![
            // 8 + 16 > 16-byte buffer: out of bounds.
            GlCommand::BufferSubData {
                target: BufferTarget::Array,
                offset: 8,
                data: Arc::new(vec![1u8; 16]),
            },
            // 2 + 4 > 4-texel texture edge: out of bounds.
            GlCommand::TexSubImage2D {
                target: TextureTarget::Texture2D,
                level: 0,
                x: 2,
                y: 2,
                width: 4,
                height: 4,
                format: PixelFormat::Rgba8,
                data: Arc::new(vec![0u8; 64]),
            },
            // In bounds: must still be applied.
            GlCommand::BufferSubData {
                target: BufferTarget::Array,
                offset: 0,
                data: Arc::new(vec![7u8; 8]),
            },
        ];

        let registry = Registry::new();
        let mut rt = ServiceRuntime::new(DeviceSpec::nvidia_shield());
        rt.attach_registry(&registry);
        rt.apply_frame_validated(&setup, false).unwrap();
        let stats = rt.apply_frame_validated(&hostile, false).unwrap();
        assert_eq!(stats.commands_rejected, 2, "both OOB writes rejected");
        assert_eq!(stats.commands_applied, 1, "the valid write still lands");
        assert_eq!(
            registry
                .snapshot()
                .counter(names::service::REJECTED_COMMANDS),
            2
        );

        // The replica state must equal a stream that never contained
        // the hostile commands at all.
        let mut clean = ServiceRuntime::new(DeviceSpec::nvidia_shield());
        clean.apply_frame(&setup, false).unwrap();
        clean.apply_frame(&hostile[2..], false).unwrap();
        assert_eq!(rt.state_digest(), clean.state_digest());

        // Without the validation pass the same stream is session-fatal.
        let mut unguarded = ServiceRuntime::new(DeviceSpec::nvidia_shield());
        unguarded.apply_frame(&setup, false).unwrap();
        assert!(unguarded.apply_frame(&hostile, false).is_err());
    }

    #[test]
    fn validation_accepts_storage_created_earlier_in_the_same_frame() {
        use gbooster_gles::types::{BufferId, BufferTarget, BufferUsage};
        use std::sync::Arc;

        // BufferData legalizes the BufferSubData that follows it within
        // one frame: validation must track the evolving replica, not the
        // pre-frame snapshot.
        let frame = vec![
            GlCommand::GenBuffer(BufferId(9)),
            GlCommand::BindBuffer {
                target: BufferTarget::Array,
                buffer: BufferId(9),
            },
            GlCommand::BufferData {
                target: BufferTarget::Array,
                data: Arc::new(vec![0u8; 32]),
                usage: BufferUsage::DynamicDraw,
            },
            GlCommand::BufferSubData {
                target: BufferTarget::Array,
                offset: 16,
                data: Arc::new(vec![3u8; 16]),
            },
        ];
        let mut rt = ServiceRuntime::new(DeviceSpec::nvidia_shield());
        let stats = rt.apply_frame_validated(&frame, false).unwrap();
        assert_eq!(stats.commands_rejected, 0);
        assert_eq!(stats.commands_applied, 4);
    }

    #[test]
    fn encode_cost_matches_turbo_envelope() {
        let rt = ServiceRuntime::new(DeviceSpec::nvidia_shield());
        // 720p frame, 45% changed: ~10.2 ms scan + ~10.4 ms jpeg.
        let t = rt.encode_time(1280 * 720, 414_000);
        assert!(
            (t.as_millis_f64() - 20.6).abs() < 1.0,
            "encode {:.1} ms",
            t.as_millis_f64()
        );
        // Static frame: scan only.
        let t0 = rt.encode_time(1280 * 720, 0);
        assert!((t0.as_millis_f64() - 10.2).abs() < 0.5);
    }

    #[test]
    fn encoded_bytes_follow_25_to_1() {
        let rt = ServiceRuntime::new(DeviceSpec::nvidia_shield());
        let bytes = rt.encoded_bytes(250_000);
        assert_eq!(bytes, 40_000 + ENCODE_HEADER_BYTES);
    }

    #[test]
    fn shield_renders_action_frames_in_single_digit_ms() {
        let rt = ServiceRuntime::new(DeviceSpec::nvidia_shield());
        let fill = GenreProfile::action().effective_fill(1280, 720, 1.0);
        let t = rt.render_time(fill);
        assert!(
            t.as_millis_f64() < 5.0,
            "render {:.2} ms",
            t.as_millis_f64()
        );
    }

    #[test]
    fn remote_spans_are_stamped_on_the_service_clock() {
        let mut rt = ServiceRuntime::new(DeviceSpec::nvidia_shield());
        let log = RemoteSpanLog::new();
        rt.attach_remote_log(log.clone(), -30_000);
        let ctx = TraceContext::new(7, 12, 3);
        rt.record_remote_span(
            ctx,
            names::remote::REPLAY,
            SimTime::from_micros(100_000),
            SimTime::from_micros(104_000),
        );
        // Context-less packets (handshakes, acks) never produce spans.
        rt.record_remote_span(
            TraceContext::NONE,
            names::remote::REPLAY,
            SimTime::ZERO,
            SimTime::from_micros(1),
        );
        let spans = log.take_frame(7, 12);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].start_us, 70_000);
        assert_eq!(spans[0].end_us, 74_000);
        assert!(log.is_empty());
    }

    #[test]
    fn service_gpu_never_throttles_under_sustained_load() {
        let mut rt = ServiceRuntime::new(DeviceSpec::nvidia_shield());
        for _ in 0..1800 {
            rt.gpu_tick(SimDuration::from_secs(1), 1.0);
        }
        assert!(!rt.is_throttled());
    }
}
