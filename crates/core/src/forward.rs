//! The command forwarder: deferred resolution → wire encoding → LRU
//! cache → LZ4 (Sections IV-B and V-A), plus the service-side receiver.
//!
//! Per-frame wire layout:
//!
//! ```text
//! u32 token_stream_len | lz4(token stream)
//!   token := 0x00 u64 cache_key            (command cached on both ends)
//!          | 0x01 u32 len bytes[len]       (full encoded command)
//! ```
//!
//! Both ends run the *same* deterministic [`CommandCache`] update rule, so
//! the receiver can always expand a `Ref` token; a miss is a protocol
//! violation surfaced as [`GBoosterError::CacheDesync`].

use gbooster_codec::lru::CommandCache;
use gbooster_codec::lz4::{self, Lz4Frame};
use gbooster_gles::command::{ClientMemory, GlCommand};
use gbooster_gles::serialize::{
    command_category, decode_command, encode_command, DeferredResolver,
};
use gbooster_telemetry::{names, AttributionLog, Counter, Registry, UplinkFrameEntry};

use crate::error::GBoosterError;

/// Default cache capacity on each end (identical on both, by protocol).
pub const CACHE_CAPACITY: usize = 4096;

/// Result of forwarding one frame.
#[derive(Clone, Debug)]
pub struct ForwardedFrame {
    /// Bytes to hand to the transport.
    pub wire: Vec<u8>,
    /// Serialized command bytes before caching/compression.
    pub raw_bytes: usize,
    /// Token-stream bytes after caching, before LZ4.
    pub token_bytes: usize,
    /// Commands in the frame after deferred resolution.
    pub command_count: usize,
    /// Cache hits this frame.
    pub cache_hits: u64,
    /// Cache misses this frame.
    pub cache_misses: u64,
    /// LZ4 input/output accounting for the token stream.
    pub lz4: Lz4Frame,
}

impl ForwardedFrame {
    /// Overall compression ratio (wire ÷ raw); lower is better.
    ///
    /// Convention: a frame with no serialized command bytes reports `1.0`
    /// ("nothing gained, nothing lost") rather than dividing by zero. An
    /// empty frame still carries the 4-byte wire header, so any other
    /// definition would return `NaN` or `inf` and poison downstream
    /// averages.
    pub fn ratio(&self) -> f64 {
        if self.raw_bytes == 0 {
            1.0
        } else {
            self.wire.len() as f64 / self.raw_bytes as f64
        }
    }
}

/// Largest scratch buffer the forwarder keeps between frames. Steady-
/// state frames fit well inside it; a bulk upload (the setup stream,
/// a scene change's textures) gets a one-off buffer instead of pinning
/// its size for the rest of the session.
const SCRATCH_RETAIN_BYTES: usize = 256 * 1024;

/// Clears `buf` for reuse, releasing it when it outgrew the retain cap.
fn reset_scratch(buf: &mut Vec<u8>) {
    if buf.capacity() > SCRATCH_RETAIN_BYTES {
        *buf = Vec::new();
    } else {
        buf.clear();
    }
}

/// Pre-resolved registry handles for the forwarder counters.
#[derive(Clone, Debug)]
struct ForwardCounters {
    raw_bytes: Counter,
    token_bytes: Counter,
    wire_bytes: Counter,
    commands: Counter,
}

/// The user-device forwarder.
///
/// # Examples
///
/// ```
/// use gbooster_core::forward::{CommandForwarder, ServiceReceiver};
/// use gbooster_gles::command::{ClientMemory, GlCommand};
///
/// let mem = ClientMemory::new();
/// let mut tx = CommandForwarder::new();
/// let mut rx = ServiceReceiver::new();
/// let frame = vec![GlCommand::clear_all(), GlCommand::SwapBuffers];
/// let fwd = tx.forward_frame(&frame, &mem)?;
/// assert_eq!(rx.receive(&fwd.wire)?, frame);
/// # Ok::<(), gbooster_core::GBoosterError>(())
/// ```
#[derive(Debug)]
pub struct CommandForwarder {
    resolver: DeferredResolver,
    cache: CommandCache,
    counters: Option<ForwardCounters>,
    attr: Option<AttributionLog>,
    /// Scratch buffers reused across frames, so a steady-state frame
    /// allocates no per-command buffers.
    released: Vec<GlCommand>,
    encoded: Vec<u8>,
    tokens: Vec<u8>,
    attr_entries: Vec<UplinkFrameEntry>,
}

impl Default for CommandForwarder {
    fn default() -> Self {
        Self::new()
    }
}

impl CommandForwarder {
    /// Creates a forwarder with the default cache capacity.
    pub fn new() -> Self {
        CommandForwarder {
            resolver: DeferredResolver::new(),
            cache: CommandCache::new(CACHE_CAPACITY),
            counters: None,
            attr: None,
            released: Vec::new(),
            encoded: Vec::new(),
            tokens: Vec::new(),
            attr_entries: Vec::new(),
        }
    }

    /// Attributes every forwarded frame's wire bytes along
    /// `GL category × cache outcome` into `log`. Like
    /// [`Self::attach_registry`], purely observational: wire output and
    /// cache state are unchanged.
    pub fn attach_attribution(&mut self, log: AttributionLog) {
        self.attr = Some(log);
    }

    /// Mirrors per-frame forwarding statistics into `registry`
    /// (`forward.*` byte/command counters plus the LRU cache's
    /// `cache.hits` / `cache.misses`). Attach once, on the sender side.
    pub fn attach_registry(&mut self, registry: &Registry) {
        self.cache.attach_registry(registry);
        self.counters = Some(ForwardCounters {
            raw_bytes: registry.counter(names::forward::RAW_BYTES),
            token_bytes: registry.counter(names::forward::TOKEN_BYTES),
            wire_bytes: registry.counter(names::forward::WIRE_BYTES),
            commands: registry.counter(names::forward::COMMANDS),
        });
    }

    /// Serializes one frame of intercepted commands into wire bytes.
    ///
    /// # Errors
    ///
    /// Returns wire/client-memory errors from deferred resolution or
    /// encoding.
    pub fn forward_frame(
        &mut self,
        commands: &[GlCommand],
        mem: &ClientMemory,
    ) -> Result<ForwardedFrame, GBoosterError> {
        gbooster_telemetry::prof_scope!(names::host::FORWARD);
        let hits_before = self.cache.hits();
        let misses_before = self.cache.misses();
        // Cleared up front too: an error return leaves partial tokens.
        self.tokens.clear();
        // Per-(category, outcome) accounting for the attribution tap;
        // first-seen order keeps apportionment deterministic.
        self.attr_entries.clear();
        let mut raw_bytes = 0usize;
        let mut command_count = 0usize;
        for cmd in commands {
            self.released.clear();
            let emit = self.resolver.resolve(cmd, mem, &mut self.released)?;
            let released = std::mem::take(&mut self.released);
            for resolved in released.iter().chain(emit.then_some(cmd)) {
                let (raw, cache_hit, token_len) = self.tokenize(resolved)?;
                raw_bytes += raw;
                command_count += 1;
                if self.attr.is_some() {
                    self.attribute(resolved, raw, cache_hit, token_len);
                }
            }
            self.released = released;
        }
        let token_bytes = self.tokens.len();
        let mut wire = Vec::with_capacity(token_bytes / 2 + 20);
        wire.extend_from_slice(&(token_bytes as u32).to_le_bytes());
        lz4::with_compressor(|c| c.compress_into(&self.tokens, &mut wire));
        let lz4_frame = Lz4Frame {
            input_bytes: token_bytes as u64,
            output_bytes: (wire.len() - 4) as u64,
        };
        if let Some(c) = &self.counters {
            c.raw_bytes.add(raw_bytes as u64);
            c.token_bytes.add(token_bytes as u64);
            c.wire_bytes.add(wire.len() as u64);
            c.commands.add(command_count as u64);
        }
        if let Some(attr) = &self.attr {
            attr.record_uplink_frame(&self.attr_entries, wire.len() as u64);
        }
        reset_scratch(&mut self.tokens);
        reset_scratch(&mut self.encoded);
        Ok(ForwardedFrame {
            wire,
            raw_bytes,
            token_bytes,
            command_count,
            cache_hits: self.cache.hits() - hits_before,
            cache_misses: self.cache.misses() - misses_before,
            lz4: lz4_frame,
        })
    }

    /// Encodes one resolved command, offers it to the LRU cache and
    /// appends its token to the frame's token stream. Returns the
    /// encoded length, whether the cache hit, and the token's length.
    fn tokenize(&mut self, cmd: &GlCommand) -> Result<(usize, bool, usize), GBoosterError> {
        self.encoded.clear();
        encode_command(cmd, &mut self.encoded)?;
        let start = self.tokens.len();
        let hit = match self.cache.offer_ref(&self.encoded) {
            Some(key) => {
                self.tokens.push(0x00);
                self.tokens.extend_from_slice(&key.to_le_bytes());
                true
            }
            None => {
                self.tokens.push(0x01);
                self.tokens
                    .extend_from_slice(&(self.encoded.len() as u32).to_le_bytes());
                self.tokens.extend_from_slice(&self.encoded);
                false
            }
        };
        Ok((self.encoded.len(), hit, self.tokens.len() - start))
    }

    /// Folds one command into this frame's attribution entries.
    fn attribute(&mut self, cmd: &GlCommand, raw: usize, cache_hit: bool, token_len: usize) {
        let category = command_category(cmd);
        let idx = match self
            .attr_entries
            .iter()
            .position(|e| e.category == category && e.cache_hit == cache_hit)
        {
            Some(idx) => idx,
            None => {
                self.attr_entries.push(UplinkFrameEntry {
                    category,
                    cache_hit,
                    commands: 0,
                    raw_bytes: 0,
                    token_bytes: 0,
                });
                self.attr_entries.len() - 1
            }
        };
        let entry = &mut self.attr_entries[idx];
        entry.commands += 1;
        entry.raw_bytes += raw as u64;
        entry.token_bytes += token_len as u64;
    }

    /// Lifetime cache hit rate.
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }

    /// Bytes resident in the sender cache (memory-overhead accounting).
    pub fn cache_resident_bytes(&self) -> usize {
        self.cache.resident_bytes()
    }
}

/// Tokens in a token stream, counted by their length fields alone so the
/// decoded frame is allocated once. Exact for a well-formed stream; a
/// malformed one is rejected by the decode pass, and every token spans
/// at least 5 bytes, so the count never exceeds `tokens.len() / 5`.
fn token_count(tokens: &[u8]) -> usize {
    let (mut i, mut count) = (0usize, 0usize);
    while i < tokens.len() {
        i += match tokens[i] {
            0x00 => 9,
            _ => tokens.get(i + 1..i + 5).map_or(5, |len| {
                5 + u32::from_le_bytes(len.try_into().expect("slice is 4 bytes")) as usize
            }),
        };
        count += 1;
    }
    count
}

/// The service-device receiver: the inverse pipeline.
///
/// `Clone` supports node rejoin: every synchronized receiver holds the
/// same deterministic cache state, so a rejoining device is brought
/// current by copying a live peer's receiver (or the sender-side mirror)
/// instead of replaying the token history it missed.
#[derive(Clone, Debug)]
pub struct ServiceReceiver {
    cache: CommandCache,
}

impl Default for ServiceReceiver {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceReceiver {
    /// Creates a receiver with the protocol cache capacity.
    pub fn new() -> Self {
        ServiceReceiver {
            cache: CommandCache::new(CACHE_CAPACITY),
        }
    }

    /// Decodes one wire frame back into commands.
    ///
    /// # Errors
    ///
    /// Returns [`GBoosterError`] on corrupt input or cache
    /// desynchronization.
    pub fn receive(&mut self, wire: &[u8]) -> Result<Vec<GlCommand>, GBoosterError> {
        gbooster_telemetry::prof_scope!(names::host::GLES_DECODE);
        if wire.len() < 4 {
            return Err(GBoosterError::Codec("frame shorter than header".into()));
        }
        let token_len = u32::from_le_bytes([wire[0], wire[1], wire[2], wire[3]]) as usize;
        let tokens = lz4::decompress(&wire[4..], token_len)
            .map_err(|e| GBoosterError::Codec(e.to_string()))?;
        if tokens.len() != token_len {
            return Err(GBoosterError::Codec(format!(
                "token stream {} bytes, header said {token_len}",
                tokens.len()
            )));
        }
        let mut commands = Vec::with_capacity(token_count(&tokens));
        let mut i = 0usize;
        while i < tokens.len() {
            let tag = tokens[i];
            i += 1;
            // Commands decode straight from the token stream (`Full`) or
            // from the borrowed cache slot (`Ref`): no body is copied.
            let encoded: &[u8] = match tag {
                0x00 => {
                    let bytes = tokens
                        .get(i..i + 8)
                        .ok_or_else(|| GBoosterError::Codec("truncated ref token".into()))?;
                    i += 8;
                    let key = u64::from_le_bytes(bytes.try_into().expect("slice is 8 bytes"));
                    self.cache
                        .accept_ref(key)
                        .ok_or(GBoosterError::CacheDesync(key))?
                }
                0x01 => {
                    let len_bytes = tokens
                        .get(i..i + 4)
                        .ok_or_else(|| GBoosterError::Codec("truncated full token".into()))?;
                    let len = u32::from_le_bytes(len_bytes.try_into().expect("slice is 4 bytes"))
                        as usize;
                    i += 4;
                    let body = tokens
                        .get(i..i.saturating_add(len))
                        .ok_or_else(|| GBoosterError::Codec("truncated command body".into()))?;
                    i += len;
                    self.cache.accept_full(body);
                    body
                }
                other => return Err(GBoosterError::Codec(format!("unknown token tag {other}"))),
            };
            let (cmd, used) = decode_command(encoded)?;
            if used != encoded.len() {
                return Err(GBoosterError::Codec("trailing bytes after command".into()));
            }
            commands.push(cmd);
        }
        Ok(commands)
    }

    /// Bytes resident in the receiver cache.
    pub fn cache_resident_bytes(&self) -> usize {
        self.cache.resident_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbooster_gles::command::VertexSource;
    use gbooster_gles::types::{AttribType, Primitive, ProgramId};
    use gbooster_workload::genre::GenreProfile;
    use gbooster_workload::tracegen::TraceGenerator;

    fn pipeline() -> (CommandForwarder, ServiceReceiver, ClientMemory) {
        (
            CommandForwarder::new(),
            ServiceReceiver::new(),
            ClientMemory::new(),
        )
    }

    #[test]
    fn empty_frame_round_trips() {
        let (mut tx, mut rx, mem) = pipeline();
        let fwd = tx.forward_frame(&[], &mem).unwrap();
        assert_eq!(rx.receive(&fwd.wire).unwrap(), Vec::new());
    }

    #[test]
    fn simple_frame_round_trips() {
        let (mut tx, mut rx, mem) = pipeline();
        let frame = vec![
            GlCommand::UseProgram(ProgramId(0)),
            GlCommand::clear_all(),
            GlCommand::SwapBuffers,
        ];
        let fwd = tx.forward_frame(&frame, &mem).unwrap();
        assert_eq!(rx.receive(&fwd.wire).unwrap(), frame);
    }

    #[test]
    fn deferred_pointer_is_materialized_in_transit() {
        let (mut tx, mut rx, mut mem) = pipeline();
        let mem_ref = {
            let ptr = mem.alloc(vec![0u8; 48]);
            vec![
                GlCommand::VertexAttribPointer {
                    index: 0,
                    size: 2,
                    ty: AttribType::F32,
                    normalized: false,
                    stride: 0,
                    source: VertexSource::ClientMemory(ptr),
                },
                GlCommand::DrawArrays {
                    mode: Primitive::Triangles,
                    first: 0,
                    count: 3,
                },
                GlCommand::SwapBuffers,
            ]
        };
        let fwd = tx.forward_frame(&mem_ref, &mem).unwrap();
        let received = rx.receive(&fwd.wire).unwrap();
        assert_eq!(received.len(), 3);
        let GlCommand::VertexAttribPointer {
            source: VertexSource::Materialized(data),
            ..
        } = &received[0]
        else {
            panic!("pointer not materialized: {:?}", received[0]);
        };
        assert_eq!(data.len(), 24);
    }

    #[test]
    fn repeated_frames_shrink_dramatically() {
        // The Section V-A claim: caching + LZ4 collapses the redundant
        // portion of consecutive frames.
        let (mut tx, mut rx, _mem) = pipeline();
        let mut gen = TraceGenerator::new(GenreProfile::action(), 1.0, 640, 360, 3);
        let setup = gen.setup_trace();
        let first = tx
            .forward_frame(&setup.commands, gen.client_memory())
            .unwrap();
        rx.receive(&first.wire).unwrap();
        let mut first_frame_wire = 0usize;
        let mut later_wire = 0usize;
        let mut later_raw = 0usize;
        for i in 0..30 {
            let frame = gen.next_frame(1.0 / 30.0);
            let fwd = tx
                .forward_frame(&frame.commands, gen.client_memory())
                .unwrap();
            let decoded = rx.receive(&fwd.wire).unwrap();
            assert_eq!(decoded.len(), fwd.command_count);
            if i == 0 {
                first_frame_wire = fwd.wire.len();
            } else if i >= 10 {
                later_wire += fwd.wire.len();
                later_raw += fwd.raw_bytes;
            }
        }
        let avg_later = later_wire / 20;
        assert!(
            avg_later * 2 < first_frame_wire,
            "steady-state {avg_later} vs first {first_frame_wire}"
        );
        let ratio = later_wire as f64 / later_raw as f64;
        assert!(
            ratio < 0.7,
            "combined ratio {ratio} exceeds the paper's 70%"
        );
    }

    /// The forwarder built from the public one-shot pieces — `push`,
    /// a fresh `Vec` per encoded command, `offer` tokens, `compress` —
    /// as the reference for the scratch-buffer hot path.
    fn reference_wire(
        resolver: &mut DeferredResolver,
        cache: &mut CommandCache,
        commands: &[GlCommand],
        mem: &ClientMemory,
    ) -> Vec<u8> {
        let mut tokens = Vec::new();
        for cmd in commands {
            for resolved in resolver.push(cmd.clone(), mem).unwrap() {
                let mut encoded = Vec::new();
                encode_command(&resolved, &mut encoded).unwrap();
                match cache.offer(&encoded) {
                    gbooster_codec::lru::CacheToken::Ref(key) => {
                        tokens.push(0x00);
                        tokens.extend_from_slice(&key.to_le_bytes());
                    }
                    gbooster_codec::lru::CacheToken::Full(bytes) => {
                        tokens.push(0x01);
                        tokens.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                        tokens.extend_from_slice(&bytes);
                    }
                }
            }
        }
        let mut wire = (tokens.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&lz4::compress(&tokens));
        wire
    }

    #[test]
    fn scratch_buffers_reproduce_the_reference_wire_bytes() {
        let mut gen = TraceGenerator::new(GenreProfile::action(), 1.0, 320, 240, 11);
        let (mut tx, mut rx) = (CommandForwarder::new(), ServiceReceiver::new());
        tx.attach_attribution(AttributionLog::new());
        let (mut resolver, mut cache) =
            (DeferredResolver::new(), CommandCache::new(CACHE_CAPACITY));
        let setup = gen.setup_trace();
        let mut frames = vec![setup.commands];
        for _ in 0..40 {
            frames.push(gen.next_frame(1.0 / 30.0).commands);
        }
        for frame in &frames {
            let fwd = tx.forward_frame(frame, gen.client_memory()).unwrap();
            let want = reference_wire(&mut resolver, &mut cache, frame, gen.client_memory());
            assert_eq!(fwd.wire, want);
            assert_eq!(rx.receive(&fwd.wire).unwrap().len(), fwd.command_count);
        }
    }

    #[test]
    fn receiver_detects_desync() {
        let (mut tx, _, mem) = pipeline();
        let frame = vec![GlCommand::clear_all()];
        // Prime the sender cache, then replay only the *second* (Ref)
        // encoding against a fresh receiver.
        tx.forward_frame(&frame, &mem).unwrap();
        let second = tx.forward_frame(&frame, &mem).unwrap();
        let mut fresh_rx = ServiceReceiver::new();
        let err = fresh_rx.receive(&second.wire).unwrap_err();
        assert!(matches!(err, GBoosterError::CacheDesync(_)));
    }

    #[test]
    fn cloned_receiver_rejoins_where_a_fresh_one_desyncs() {
        let (mut tx, mut rx, mem) = pipeline();
        let frame = vec![GlCommand::clear_all(), GlCommand::SwapBuffers];
        let first = tx.forward_frame(&frame, &mem).unwrap();
        rx.receive(&first.wire).unwrap();
        // Resync-by-clone: the rejoining receiver copies the live peer's
        // cache and expands the all-Ref second frame a fresh receiver
        // cannot.
        let mut rejoined = rx.clone();
        let second = tx.forward_frame(&frame, &mem).unwrap();
        assert!(matches!(
            ServiceReceiver::new().receive(&second.wire).unwrap_err(),
            GBoosterError::CacheDesync(_)
        ));
        assert_eq!(rejoined.receive(&second.wire).unwrap(), frame);
    }

    #[test]
    fn corrupt_wire_is_rejected() {
        let (mut tx, mut rx, mem) = pipeline();
        let fwd = tx.forward_frame(&[GlCommand::clear_all()], &mem).unwrap();
        assert!(rx.receive(&fwd.wire[..2]).is_err());
        let mut corrupted = fwd.wire.clone();
        let last = corrupted.len() - 1;
        corrupted[last] ^= 0xff;
        // Either a codec error or (rarely) a decode error — never a panic.
        let _ = rx.receive(&corrupted);
    }

    #[test]
    fn hit_rate_grows_over_a_session() {
        let (mut tx, _, _) = pipeline();
        let mut gen = TraceGenerator::new(GenreProfile::puzzle(), 1.0, 320, 240, 5);
        let setup = gen.setup_trace();
        tx.forward_frame(&setup.commands, gen.client_memory())
            .unwrap();
        for _ in 0..50 {
            let frame = gen.next_frame(1.0 / 60.0);
            tx.forward_frame(&frame.commands, gen.client_memory())
                .unwrap();
        }
        assert!(
            tx.cache_hit_rate() > 0.6,
            "hit rate {}",
            tx.cache_hit_rate()
        );
    }

    #[test]
    fn zero_command_frame_has_finite_unit_ratio() {
        // A real empty frame (not a hand-built struct): the wire still
        // carries the 4-byte header while raw_bytes is 0, so ratio() must
        // fall back to the documented 1.0 convention instead of inf/NaN.
        let (mut tx, _, mem) = pipeline();
        let fwd = tx.forward_frame(&[], &mem).unwrap();
        assert_eq!(fwd.raw_bytes, 0);
        assert_eq!(fwd.command_count, 0);
        assert!(!fwd.wire.is_empty(), "header is always present");
        assert!(fwd.ratio().is_finite());
        assert_eq!(fwd.ratio(), 1.0);
    }

    #[test]
    fn registry_counters_mirror_forwarded_frames() {
        let registry = Registry::new();
        let (mut tx, _, mem) = pipeline();
        tx.attach_registry(&registry);
        let frame = vec![
            GlCommand::UseProgram(ProgramId(0)),
            GlCommand::clear_all(),
            GlCommand::SwapBuffers,
        ];
        let a = tx.forward_frame(&frame, &mem).unwrap();
        let b = tx.forward_frame(&frame, &mem).unwrap();
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter(names::forward::RAW_BYTES),
            (a.raw_bytes + b.raw_bytes) as u64
        );
        assert_eq!(
            snap.counter(names::forward::WIRE_BYTES),
            (a.wire.len() + b.wire.len()) as u64
        );
        assert_eq!(
            snap.counter(names::forward::COMMANDS),
            (a.command_count + b.command_count) as u64
        );
        assert_eq!(
            snap.counter(names::forward::CACHE_HITS),
            a.cache_hits + b.cache_hits
        );
        assert_eq!(
            snap.counter(names::forward::CACHE_MISSES),
            a.cache_misses + b.cache_misses
        );
        // Second identical frame is all hits, so the derived rate is real.
        assert!(snap.cache_hit_rate() > 0.0);
    }

    #[test]
    fn ratio_reports_one_for_empty() {
        let f = ForwardedFrame {
            wire: Vec::new(),
            raw_bytes: 0,
            token_bytes: 0,
            command_count: 0,
            cache_hits: 0,
            cache_misses: 0,
            lz4: Lz4Frame::default(),
        };
        assert_eq!(f.ratio(), 1.0);
    }

    #[test]
    fn attribution_reconciles_with_wire_and_cache_counters() {
        let mem = ClientMemory::new();
        let log = AttributionLog::new();
        let mut tx = CommandForwarder::new();
        tx.attach_attribution(log.clone());
        let frame = vec![
            GlCommand::UseProgram(ProgramId(1)),
            GlCommand::clear_all(),
            GlCommand::clear_all(),
            GlCommand::SwapBuffers,
        ];
        let mut wire_total = 0u64;
        let mut raw_total = 0u64;
        let mut token_total = 0u64;
        let mut hits = 0u64;
        let mut misses = 0u64;
        for _ in 0..3 {
            let fwd = tx.forward_frame(&frame, &mem).unwrap();
            wire_total += fwd.wire.len() as u64;
            raw_total += fwd.raw_bytes as u64;
            token_total += fwd.token_bytes as u64;
            hits += fwd.cache_hits;
            misses += fwd.cache_misses;
            assert_eq!(fwd.lz4.output_bytes + 4, fwd.wire.len() as u64);
            assert_eq!(fwd.lz4.input_bytes, fwd.token_bytes as u64);
        }
        let snap = log.snapshot();
        // Apportioned wire bytes sum exactly to the frames' wire bytes.
        assert_eq!(snap.uplink_wire_total(), wire_total);
        let raw: u64 = snap.uplink.values().map(|c| c.raw_bytes).sum();
        let tok: u64 = snap.uplink.values().map(|c| c.token_bytes).sum();
        assert_eq!(raw, raw_total);
        assert_eq!(tok, token_total);
        // Per-outcome command counts match the cache's own hit/miss view.
        let hit_cmds: u64 = snap
            .uplink
            .iter()
            .filter(|((_, o), _)| o == "hit")
            .map(|(_, c)| c.commands)
            .sum();
        let miss_cmds: u64 = snap
            .uplink
            .iter()
            .filter(|((_, o), _)| o == "miss")
            .map(|(_, c)| c.commands)
            .sum();
        assert_eq!(hit_cmds, hits);
        assert_eq!(miss_cmds, misses);
        // Repeated frames hit the cache, so hit rows must exist.
        assert!(hit_cmds > 0);
    }

    #[test]
    fn attribution_tap_does_not_change_wire_output() {
        let mem = ClientMemory::new();
        let mut plain = CommandForwarder::new();
        let mut tapped = CommandForwarder::new();
        tapped.attach_attribution(AttributionLog::new());
        let frame = vec![
            GlCommand::UseProgram(ProgramId(2)),
            GlCommand::clear_all(),
            GlCommand::SwapBuffers,
        ];
        for _ in 0..3 {
            let a = plain.forward_frame(&frame, &mem).unwrap();
            let b = tapped.forward_frame(&frame, &mem).unwrap();
            assert_eq!(a.wire, b.wire);
        }
    }
}
