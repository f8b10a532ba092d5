//! The LRU command cache (Section V-A).
//!
//! "The sequences of graphics commands to generate consecutive frames tend
//! to contain huge similarities. … We eliminate the redundancy by applying
//! the LRU caching algorithm; the system caches the latest and frequent
//! commands on the user device and the service device. Thereby, the user
//! device can skip transmitting the commands which are cached."
//!
//! [`CommandCache`] is a constant-time LRU keyed by a 64-bit hash of the
//! encoded command. The sender checks the cache before transmitting: a hit
//! becomes a tiny [`CacheToken::Ref`]; a miss inserts and sends the full
//! bytes. Because both ends apply the *same* deterministic update rule,
//! the receiver's cache stays synchronized and can expand references —
//! verified by the mirror tests below.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use gbooster_telemetry::{names, Counter, Registry};

/// What the sender should transmit for one command.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CacheToken {
    /// Receiver already holds these bytes: send only the 8-byte key.
    Ref(u64),
    /// New content: send the full payload (receiver will cache it too).
    Full(Vec<u8>),
}

impl CacheToken {
    /// Bytes this token costs on the wire (1 tag byte + body).
    pub fn wire_bytes(&self) -> usize {
        match self {
            CacheToken::Ref(_) => 1 + 8,
            CacheToken::Full(data) => 1 + 4 + data.len(),
        }
    }

    /// True when the cache replaced the body with a reference (a hit).
    pub fn is_ref(&self) -> bool {
        matches!(self, CacheToken::Ref(_))
    }
}

/// Hasher for the cache's `u64` keys. They are already content hashes,
/// so one multiply-and-fold spreads them over the table; SipHash would
/// cost more than the rest of a lookup.
#[derive(Clone, Copy, Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, v: u64) {
        let h = (self.0 ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }
}

/// Doubly-linked-list node indices for O(1) LRU maintenance.
const NIL: usize = usize::MAX;

#[derive(Clone)]
struct Node {
    key: u64,
    value: Vec<u8>,
    prev: usize,
    next: usize,
}

/// A fixed-capacity LRU cache of encoded commands.
///
/// # Examples
///
/// ```
/// use gbooster_codec::lru::{CacheToken, CommandCache};
///
/// let mut sender = CommandCache::new(128);
/// let cmd = b"glUseProgram(3)".to_vec();
/// assert!(matches!(sender.offer(&cmd), CacheToken::Full(_)));
/// assert!(matches!(sender.offer(&cmd), CacheToken::Ref(_)));
/// ```
///
/// The cache is `Clone`: a rejoining service device is brought current
/// by copying a synchronized peer's cache state in one resync transfer
/// instead of replaying the whole token history.
#[derive(Clone)]
pub struct CommandCache {
    capacity: usize,
    map: HashMap<u64, usize, BuildHasherDefault<KeyHasher>>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize, // most recent
    tail: usize, // least recent
    hits: u64,
    misses: u64,
    counters: Option<(Counter, Counter)>,
}

impl std::fmt::Debug for CommandCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommandCache")
            .field("capacity", &self.capacity)
            .field("len", &self.map.len())
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish()
    }
}

/// Stable 64-bit content hash (FNV-1a) used as the cache key.
pub fn content_key(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl CommandCache {
    /// Creates a cache holding at most `capacity` distinct commands.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be nonzero");
        CommandCache {
            capacity,
            map: HashMap::with_capacity_and_hasher(capacity, Default::default()),
            nodes: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
            counters: None,
        }
    }

    /// Mirrors hit/miss events into `registry` (under
    /// [`names::forward::CACHE_HITS`] / `CACHE_MISSES`) from now on;
    /// prior events are backfilled so the counters always equal
    /// [`CommandCache::hits`] / [`CommandCache::misses`]. Attach only on
    /// the sender side — the receiver replays the same token stream and
    /// would double-count.
    pub fn attach_registry(&mut self, registry: &Registry) {
        let hits = registry.counter(names::forward::CACHE_HITS);
        let misses = registry.counter(names::forward::CACHE_MISSES);
        hits.add(self.hits);
        misses.add(self.misses);
        self.counters = Some((hits, misses));
    }

    /// Sender side: offers a command for transmission. Returns the token
    /// to put on the wire and updates the cache deterministically.
    pub fn offer(&mut self, encoded: &[u8]) -> CacheToken {
        match self.offer_ref(encoded) {
            Some(key) => CacheToken::Ref(key),
            None => CacheToken::Full(encoded.to_vec()),
        }
    }

    /// [`CommandCache::offer`] without building the token: `Some(key)`
    /// on a hit (send a `Ref`), `None` on a miss (send the bytes the
    /// caller already holds). The cache update is identical.
    pub fn offer_ref(&mut self, encoded: &[u8]) -> Option<u64> {
        gbooster_telemetry::prof_alloc_scope!(names::host::CACHE);
        let key = content_key(encoded);
        if let Some(&idx) = self.map.get(&key) {
            self.hits += 1;
            if let Some((hits, _)) = &self.counters {
                hits.inc();
            }
            self.touch(idx);
            Some(key)
        } else {
            self.misses += 1;
            if let Some((_, misses)) = &self.counters {
                misses.inc();
            }
            self.insert(key, encoded);
            None
        }
    }

    /// Receiver side: accepts a token and returns the decoded bytes.
    ///
    /// Returns `None` for a [`CacheToken::Ref`] the receiver does not hold
    /// — a protocol desynchronization (impossible when both sides start
    /// empty and see the same token stream).
    pub fn accept(&mut self, token: &CacheToken) -> Option<Vec<u8>> {
        match token {
            CacheToken::Ref(key) => self.accept_ref(*key).map(<[u8]>::to_vec),
            CacheToken::Full(data) => {
                self.accept_full(data);
                Some(data.clone())
            }
        }
    }

    /// Receiver side of a `Ref` token: marks the entry used and borrows
    /// its bytes in place. `None` means the cache desynchronized.
    pub fn accept_ref(&mut self, key: u64) -> Option<&[u8]> {
        gbooster_telemetry::prof_alloc_scope!(names::host::CACHE);
        let idx = *self.map.get(&key)?;
        self.touch(idx);
        Some(&self.nodes[idx].value)
    }

    /// Receiver side of a `Full` token: caches `data` (or refreshes it
    /// when already held), exactly as the sender's miss did.
    pub fn accept_full(&mut self, data: &[u8]) {
        gbooster_telemetry::prof_alloc_scope!(names::host::CACHE);
        let key = content_key(data);
        if let Some(&idx) = self.map.get(&key) {
            self.touch(idx);
        } else {
            self.insert(key, data);
        }
    }

    /// Current number of cached commands.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in `[0, 1]` (0 when nothing was offered).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Bytes resident in cached values (memory-overhead accounting).
    pub fn resident_bytes(&self) -> usize {
        self.map
            .values()
            .map(|&idx| self.nodes[idx].value.len())
            .sum()
    }

    fn insert(&mut self, key: u64, value: &[u8]) {
        if self.map.len() == self.capacity {
            self.evict_lru();
        }
        let node = Node {
            key,
            value: value.to_vec(),
            prev: NIL,
            next: NIL,
        };
        let idx = if let Some(idx) = self.free.pop() {
            self.nodes[idx] = node;
            idx
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        };
        self.push_front(idx);
        self.map.insert(key, idx);
    }

    fn evict_lru(&mut self) {
        let tail = self.tail;
        if tail == NIL {
            return;
        }
        self.unlink(tail);
        let key = self.nodes[tail].key;
        self.map.remove(&key);
        self.nodes[tail].value = Vec::new();
        self.free.push(tail);
    }

    fn touch(&mut self, idx: usize) {
        if self.head == idx {
            return;
        }
        self.unlink(idx);
        self.push_front(idx);
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_offer_is_a_ref() {
        let mut c = CommandCache::new(4);
        let cmd = b"cmd".to_vec();
        assert!(matches!(c.offer(&cmd), CacheToken::Full(_)));
        let tok = c.offer(&cmd);
        assert_eq!(tok, CacheToken::Ref(content_key(&cmd)));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert!((c.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = CommandCache::new(2);
        c.offer(b"a");
        c.offer(b"b");
        c.offer(b"a"); // refresh a; b is now LRU
        c.offer(b"c"); // evicts b
        assert!(matches!(c.offer(b"a"), CacheToken::Ref(_)));
        assert!(matches!(c.offer(b"c"), CacheToken::Ref(_)));
        assert!(matches!(c.offer(b"b"), CacheToken::Full(_)), "b evicted");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn sender_and_receiver_stay_synchronized() {
        let mut sender = CommandCache::new(8);
        let mut receiver = CommandCache::new(8);
        // A realistic command mix: 20 distinct commands, heavy reuse,
        // enough distinct values to force evictions on both sides.
        let commands: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i; 10]).collect();
        let mut order = Vec::new();
        for round in 0..10usize {
            for (i, cmd) in commands.iter().enumerate() {
                if (i + round) % 3 != 0 {
                    order.push(cmd.clone());
                }
            }
        }
        for cmd in &order {
            let token = sender.offer(cmd);
            let received = receiver
                .accept(&token)
                .expect("receiver must expand every token");
            assert_eq!(&received, cmd);
        }
        assert_eq!(sender.len(), receiver.len());
    }

    #[test]
    fn ref_for_unknown_key_is_detected() {
        let mut receiver = CommandCache::new(4);
        assert_eq!(receiver.accept(&CacheToken::Ref(0xdead)), None);
    }

    #[test]
    fn wire_bytes_reflect_savings() {
        let full = CacheToken::Full(vec![0u8; 1000]);
        let r = CacheToken::Ref(42);
        assert_eq!(full.wire_bytes(), 1005);
        assert_eq!(r.wire_bytes(), 9);
    }

    #[test]
    fn resident_bytes_bounded_by_capacity() {
        let mut c = CommandCache::new(3);
        for i in 0..100u32 {
            c.offer(&i.to_le_bytes());
        }
        assert_eq!(c.len(), 3);
        assert_eq!(c.resident_bytes(), 12);
    }

    #[test]
    fn hit_rate_on_frame_like_reuse_is_high() {
        // 50 commands per frame, 95% identical across frames: the paper's
        // "huge similarities" scenario.
        let mut c = CommandCache::new(256);
        let stable: Vec<Vec<u8>> = (0..48u8).map(|i| vec![i; 16]).collect();
        for frame in 0..100u32 {
            for cmd in &stable {
                c.offer(cmd);
            }
            // Two volatile commands per frame.
            c.offer(&frame.to_le_bytes());
            c.offer(&(frame * 7 + 1).to_le_bytes());
        }
        assert!(c.hit_rate() > 0.9, "hit rate {}", c.hit_rate());
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_panics() {
        let _ = CommandCache::new(0);
    }

    #[test]
    fn cloned_receiver_cache_tracks_the_sender_from_the_clone_point() {
        let mut sender = CommandCache::new(32);
        let mut receiver = CommandCache::new(32);
        for i in 0..20u8 {
            let token = sender.offer(&[i; 6]);
            receiver.accept(&token).unwrap();
        }
        // A late joiner cloned from the live receiver must expand every
        // subsequent token, including refs to pre-clone content.
        let mut joiner = receiver.clone();
        for i in 0..20u8 {
            let token = sender.offer(&[i; 6]);
            assert!(matches!(token, CacheToken::Ref(_)));
            assert_eq!(joiner.accept(&token).as_deref(), Some(&[i; 6][..]));
        }
        assert_eq!(joiner.len(), sender.len());
    }
}
