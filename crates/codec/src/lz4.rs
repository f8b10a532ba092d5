//! An LZ77 block compressor in the LZ4 block format.
//!
//! Implemented from scratch (the paper's ref \[23\]): greedy hash-chain
//! matching with the standard LZ4 block layout —
//!
//! ```text
//! token | literal-length ext* | literals | offset(2B LE) | match-length ext*
//! ```
//!
//! * token high nibble = literal length (15 ⇒ extension bytes follow);
//! * token low nibble = match length − 4 (15 ⇒ extension bytes follow);
//! * minimum match 4 bytes, offsets up to 65535.
//!
//! The last block is always a literal run (LZ4's end-of-block rule). The
//! decompressor supports overlapping matches (RLE-style copies).

/// Minimum match length, per the LZ4 spec.
const MIN_MATCH: usize = 4;
/// Hash table size (power of two).
const HASH_BITS: u32 = 16;
/// Maximum backward offset.
const MAX_OFFSET: usize = 65535;

/// Errors from [`decompress`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Lz4Error {
    /// Compressed input ended unexpectedly.
    Truncated,
    /// A match referenced data before the start of the output.
    BadOffset,
}

impl std::fmt::Display for Lz4Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Lz4Error::Truncated => write!(f, "compressed data truncated"),
            Lz4Error::BadOffset => write!(f, "match offset before start of output"),
        }
    }
}

impl std::error::Error for Lz4Error {}

/// Per-call accounting emitted by [`compress_framed`], consumed by the
/// uplink attribution profiler to report the LZ4 residual.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Lz4Frame {
    /// Bytes fed to the compressor (the token stream).
    pub input_bytes: u64,
    /// Bytes produced (the LZ4 block, before any transport framing).
    pub output_bytes: u64,
}

impl Lz4Frame {
    /// Bytes removed by compression (zero when the block grew).
    pub fn savings(&self) -> u64 {
        self.input_bytes.saturating_sub(self.output_bytes)
    }
}

/// [`compress`] plus exact input/output byte accounting for attribution.
pub fn compress_framed(input: &[u8]) -> (Vec<u8>, Lz4Frame) {
    let out = compress(input);
    let frame = Lz4Frame {
        input_bytes: input.len() as u64,
        output_bytes: out.len() as u64,
    };
    (out, frame)
}

#[inline]
fn hash(word: u32) -> usize {
    // Fibonacci hashing on the 4-byte window.
    ((word.wrapping_mul(2654435761)) >> (32 - HASH_BITS)) as usize
}

#[inline]
fn read_u32(data: &[u8], i: usize) -> u32 {
    u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]])
}

/// A reusable LZ4 block compressor.
///
/// The match-finder's hash table is allocated once and kept across
/// calls. Entries are stored as `base + position`, where `base` is a
/// running offset that advances past every input compressed so far
/// (reference LZ4's `currentOffset`): an entry below the current
/// `base` belongs to an earlier input and reads as empty, so no call
/// has to clear the table. It is cleared only when `base` would wrap.
/// Match decisions, and so the output bytes, are exactly those of a
/// fresh table per call.
pub struct Lz4Compressor {
    table: Vec<u32>,
    base: u32,
}

impl Default for Lz4Compressor {
    fn default() -> Self {
        Self::new()
    }
}

impl Lz4Compressor {
    /// Creates a compressor with an empty hash table.
    pub fn new() -> Self {
        Lz4Compressor {
            table: vec![0; 1 << HASH_BITS],
            base: 1,
        }
    }

    /// Compresses `input` into a new LZ4 block (see [`compress`]).
    pub fn compress(&mut self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        self.compress_into(input, &mut out);
        out
    }

    /// Appends the LZ4 block for `input` to `out`.
    ///
    /// # Panics
    ///
    /// Panics if `input` is 4 GiB or longer.
    pub fn compress_into(&mut self, input: &[u8], out: &mut Vec<u8>) {
        gbooster_telemetry::prof_scope!(gbooster_telemetry::names::host::LZ4);
        let n = input.len();
        if n < MIN_MATCH + 1 {
            emit_sequence(out, input, 0, 0);
            return;
        }
        assert!(
            n < u32::MAX as usize,
            "LZ4 input must be shorter than 4 GiB"
        );
        let span = n as u32;
        if self.base.checked_add(span).is_none() {
            self.table.fill(0);
            self.base = 1;
        }
        let base = self.base;
        let mut anchor = 0usize; // start of pending literals
        let mut i = 0usize;
        // Leave room so the final literals rule is satisfiable.
        let search_end = n - MIN_MATCH;
        while i <= search_end {
            let h = hash(read_u32(input, i));
            let entry = self.table[h];
            self.table[h] = base + i as u32;
            let candidate = entry.wrapping_sub(base) as usize;
            // Entries below `base` were stored by earlier inputs.
            if entry >= base
                && i - candidate <= MAX_OFFSET
                && read_u32(input, candidate) == read_u32(input, i)
            {
                // Extend the match forward.
                let mut len = MIN_MATCH;
                while i + len < n && input[candidate + len] == input[i + len] {
                    len += 1;
                }
                // LZ4 end rule: the block must end with >= 1 literal byte
                // (real LZ4 requires 5; 1 suffices for our decoder).
                if i + len >= n {
                    len = n - i - 1;
                    if len < MIN_MATCH {
                        i += 1;
                        continue;
                    }
                }
                let offset = i - candidate;
                emit_sequence(out, &input[anchor..i], offset, len);
                i += len;
                anchor = i;
            } else {
                i += 1;
            }
        }
        // Trailing literals.
        emit_sequence(out, &input[anchor..], 0, 0);
        // Every stored entry is below `base + n`, so all of them read as
        // stale to the next input.
        self.base += span;
    }
}

thread_local! {
    static COMPRESSOR: std::cell::RefCell<Lz4Compressor> =
        std::cell::RefCell::new(Lz4Compressor::new());
}

/// Runs `f` on this thread's shared [`Lz4Compressor`].
pub fn with_compressor<R>(f: impl FnOnce(&mut Lz4Compressor) -> R) -> R {
    COMPRESSOR.with(|c| f(&mut c.borrow_mut()))
}

/// Compresses `input` into an LZ4 block, on this thread's reusable
/// [`Lz4Compressor`].
///
/// Always succeeds; incompressible data grows by at most
/// `input.len() / 255 + 16` bytes of framing.
///
/// # Examples
///
/// ```
/// let data = b"abcabcabcabcabcabc".to_vec();
/// let compressed = gbooster_codec::lz4::compress(&data);
/// assert!(compressed.len() < data.len());
/// let back = gbooster_codec::lz4::decompress(&compressed, data.len()).unwrap();
/// assert_eq!(back, data);
/// ```
pub fn compress(input: &[u8]) -> Vec<u8> {
    with_compressor(|c| c.compress(input))
}

/// Emits one sequence. `match_len == 0` means "final literals only".
fn emit_sequence(out: &mut Vec<u8>, literals: &[u8], offset: usize, match_len: usize) {
    if match_len == 0 && literals.is_empty() {
        return;
    }
    let lit_len = literals.len();
    let ml_code = if match_len == 0 {
        0
    } else {
        match_len - MIN_MATCH
    };
    let token = (((lit_len.min(15)) as u8) << 4) | (ml_code.min(15) as u8);
    out.push(token);
    if lit_len >= 15 {
        write_len_ext(out, lit_len - 15);
    }
    out.extend_from_slice(literals);
    if match_len > 0 {
        out.extend_from_slice(&(offset as u16).to_le_bytes());
        if ml_code >= 15 {
            write_len_ext(out, ml_code - 15);
        }
    }
}

fn write_len_ext(out: &mut Vec<u8>, mut rest: usize) {
    while rest >= 255 {
        out.push(255);
        rest -= 255;
    }
    out.push(rest as u8);
}

/// Decompresses an LZ4 block produced by [`compress`].
///
/// `max_size` bounds the output (pass the known decompressed size).
///
/// # Errors
///
/// Returns [`Lz4Error`] on truncated input or invalid match offsets.
pub fn decompress(input: &[u8], max_size: usize) -> Result<Vec<u8>, Lz4Error> {
    gbooster_telemetry::prof_scope!(gbooster_telemetry::names::host::LZ4_DECODE);
    let mut out = Vec::with_capacity(max_size);
    let mut i = 0usize;
    while i < input.len() {
        let token = input[i];
        i += 1;
        // Literals.
        let mut lit_len = (token >> 4) as usize;
        if lit_len == 15 {
            lit_len += read_len_ext(input, &mut i)?;
        }
        if i + lit_len > input.len() {
            return Err(Lz4Error::Truncated);
        }
        out.extend_from_slice(&input[i..i + lit_len]);
        i += lit_len;
        if i >= input.len() {
            break; // final literal-only sequence
        }
        // Match.
        if i + 2 > input.len() {
            return Err(Lz4Error::Truncated);
        }
        let offset = u16::from_le_bytes([input[i], input[i + 1]]) as usize;
        i += 2;
        let mut match_len = (token & 0x0f) as usize;
        if match_len == 15 {
            match_len += read_len_ext(input, &mut i)?;
        }
        match_len += MIN_MATCH;
        if offset == 0 || offset > out.len() {
            return Err(Lz4Error::BadOffset);
        }
        if out.len() + match_len > max_size {
            return Err(Lz4Error::Truncated);
        }
        let start = out.len() - offset;
        if offset >= match_len {
            out.extend_from_within(start..start + match_len);
        } else {
            // An overlapping match repeats its own output (RLE-style):
            // copy byte by byte.
            for k in 0..match_len {
                let b = out[start + k];
                out.push(b);
            }
        }
    }
    Ok(out)
}

fn read_len_ext(input: &[u8], i: &mut usize) -> Result<usize, Lz4Error> {
    let mut total = 0usize;
    loop {
        let b = *input.get(*i).ok_or(Lz4Error::Truncated)?;
        *i += 1;
        total += b as usize;
        if b != 255 {
            return Ok(total);
        }
    }
}

/// Convenience: compression ratio achieved on `input`
/// (compressed size ÷ original size; lower is better).
pub fn ratio(input: &[u8]) -> f64 {
    if input.is_empty() {
        return 1.0;
    }
    compress(input).len() as f64 / input.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The compressor as it was before the table became reusable: a
    /// fresh `usize` table per call. Kept as the reference that
    /// [`Lz4Compressor`] must match byte for byte.
    fn reference_compress(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        let n = input.len();
        if n < MIN_MATCH + 1 {
            emit_sequence(&mut out, input, 0, 0);
            return out;
        }
        let mut table = vec![usize::MAX; 1 << HASH_BITS];
        let mut anchor = 0usize;
        let mut i = 0usize;
        let search_end = n - MIN_MATCH;
        while i <= search_end {
            let h = hash(read_u32(input, i));
            let candidate = table[h];
            table[h] = i;
            if candidate != usize::MAX
                && i - candidate <= MAX_OFFSET
                && read_u32(input, candidate) == read_u32(input, i)
            {
                let mut len = MIN_MATCH;
                while i + len < n && input[candidate + len] == input[i + len] {
                    len += 1;
                }
                if i + len >= n {
                    len = n - i - 1;
                    if len < MIN_MATCH {
                        i += 1;
                        continue;
                    }
                }
                emit_sequence(&mut out, &input[anchor..i], i - candidate, len);
                i += len;
                anchor = i;
            } else {
                i += 1;
            }
        }
        emit_sequence(&mut out, &input[anchor..], 0, 0);
        out
    }

    /// A deterministic mix of the inputs the codec sees: tiny blocks,
    /// runs, GL-like token streams, text, noise, and inputs that repeat
    /// earlier ones (which a stale table entry would wrongly match).
    fn mixed_inputs(count: usize) -> Vec<Vec<u8>> {
        let mut x = 0x9e37_79b9u32;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x
        };
        let mut inputs: Vec<Vec<u8>> = Vec::new();
        for k in 0..count {
            let len = match next() % 4 {
                0 => (next() % 8) as usize,
                1 => (next() % 300) as usize,
                2 => (next() % 5_000) as usize,
                _ => 70_000 + (next() % 2_000) as usize,
            };
            let input = match k % 6 {
                0 => (0..len).map(|_| next() as u8).collect(),
                1 => vec![(next() % 3) as u8; len],
                2 => b"glDrawArrays(TRIANGLES,0,3);"
                    .iter()
                    .copied()
                    .cycle()
                    .take(len)
                    .collect(),
                3 => (0..len)
                    .map(|i| {
                        if next() % 16 == 0 {
                            next() as u8
                        } else {
                            (i % 97) as u8
                        }
                    })
                    .collect(),
                4 => (0..len as u32)
                    .flat_map(|i| (i / 7).to_le_bytes())
                    .take(len)
                    .collect(),
                _ => inputs
                    .get(next() as usize % k.max(1))
                    .cloned()
                    .unwrap_or_default(),
            };
            inputs.push(input);
        }
        inputs
    }

    #[test]
    fn reusable_table_matches_the_fresh_table_reference() {
        // One thread, one compressor: every input after the first runs
        // on a table full of the previous inputs' entries.
        for input in mixed_inputs(400) {
            let block = compress(&input);
            assert_eq!(block, reference_compress(&input), "{} bytes", input.len());
            assert_eq!(decompress(&block, input.len()).unwrap(), input);
        }
    }

    #[test]
    fn base_wrap_clears_the_table_and_keeps_the_output() {
        let mut c = Lz4Compressor::new();
        // Start just short of the wrap so the sequence crosses it.
        c.base = u32::MAX - 150_000;
        let mut wraps = 0;
        for input in mixed_inputs(60) {
            let before = c.base;
            assert_eq!(
                c.compress(&input),
                reference_compress(&input),
                "{} bytes",
                input.len()
            );
            if c.base < before {
                wraps += 1;
            }
        }
        assert!(wraps >= 1, "the sequence never reached the wrap");
        // The thread-local instance takes the same path.
        with_compressor(|c| c.base = u32::MAX - 10);
        for input in mixed_inputs(20) {
            assert_eq!(compress(&input), reference_compress(&input));
        }
    }

    fn roundtrip(data: &[u8]) {
        let compressed = compress(data);
        let back = decompress(&compressed, data.len()).unwrap();
        assert_eq!(back, data, "round-trip failed for {} bytes", data.len());
    }

    #[test]
    fn empty_and_tiny_inputs() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abcd");
        roundtrip(b"abcde");
    }

    #[test]
    fn repetitive_data_compresses_well() {
        let data: Vec<u8> = std::iter::repeat_n(b"glDrawArrays(TRIANGLES,0,3);", 100)
            .flatten()
            .copied()
            .collect();
        let compressed = compress(&data);
        assert!(
            compressed.len() < data.len() / 5,
            "{} -> {}",
            data.len(),
            compressed.len()
        );
        roundtrip(&data);
    }

    #[test]
    fn incompressible_data_round_trips() {
        // Pseudo-random bytes.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        roundtrip(&data);
        let compressed = compress(&data);
        assert!(compressed.len() <= data.len() + data.len() / 16 + 16);
    }

    #[test]
    fn run_length_data_uses_overlapping_matches() {
        let data = vec![0u8; 100_000];
        let compressed = compress(&data);
        assert!(compressed.len() < 500, "all-zero should shrink massively");
        roundtrip(&data);
    }

    #[test]
    fn long_literal_runs_use_length_extension() {
        // 300 unique bytes, no 4-byte repeats: one long literal sequence.
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7 + i / 256) as u8).collect();
        roundtrip(&data);
    }

    #[test]
    fn gl_command_stream_hits_paper_ratio() {
        // Simulated per-frame command stream: identical structure with a
        // few mutated parameter bytes per frame, like consecutive frames
        // of a real game. The paper reports ~70% ratio (30% of original
        // size is optimistic for generic LZ4; the paper's figure means
        // output is ~30% smaller OR 70% of original — we check <= 0.7).
        let mut stream = Vec::new();
        for frame in 0..50u32 {
            for draw in 0..30u32 {
                stream.extend_from_slice(b"\x29\x02");
                stream.extend_from_slice(&draw.to_le_bytes());
                stream.extend_from_slice(&12u32.to_le_bytes());
                stream.extend_from_slice(b"\x23");
                stream.extend_from_slice(&(frame as f32 * 0.01).to_le_bytes());
            }
        }
        let r = ratio(&stream);
        assert!(r <= 0.7, "ratio {r} exceeds the paper's 70%");
        roundtrip(&stream);
    }

    #[test]
    fn decompress_rejects_truncated_input() {
        let data = b"abcabcabcabcabc".to_vec();
        let compressed = compress(&data);
        for cut in 1..compressed.len().saturating_sub(1) {
            // Either an error or a short (prefix) result is acceptable;
            // a panic is not.
            let _ = decompress(&compressed[..cut], data.len());
        }
    }

    #[test]
    fn decompress_stops_a_match_past_max_size() {
        let data = vec![7u8; 1_000];
        let compressed = compress(&data);
        assert_eq!(decompress(&compressed, 500), Err(Lz4Error::Truncated));
        let text: Vec<u8> = b"abcdefgh".repeat(100);
        assert_eq!(decompress(&compress(&text), 300), Err(Lz4Error::Truncated));
    }

    #[test]
    fn decompress_rejects_bad_offset() {
        // Token: 0 literals, match_len 4; offset 5 with empty output.
        let bogus = [0x00u8, 5, 0];
        assert_eq!(decompress(&bogus, 100), Err(Lz4Error::BadOffset));
    }

    #[test]
    fn mixed_content_roundtrip() {
        let mut data = Vec::new();
        for i in 0..500u32 {
            data.extend_from_slice(format!("uniform{} = {};", i % 7, i).as_bytes());
            data.extend_from_slice(&i.to_le_bytes());
        }
        roundtrip(&data);
        assert!(ratio(&data) < 0.6);
    }
}
