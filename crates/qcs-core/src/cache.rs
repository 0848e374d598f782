//! Compressed-block cache (paper §3.4, Fig. 4).
//!
//! Each cache line stores `(OP, CB1, CB2) -> (CB1', CB2')`: the gate
//! operation plus the compressed input blocks, mapping to the compressed
//! output blocks. On a hit the whole
//! decompress-compute-compress sequence is skipped. The replacement policy
//! is least-recently-used over a fixed number of lines (64 in the paper),
//! and the cache disables itself if the hit rate stays at zero (§3.4).
//!
//! `OP` is a content key that the block cycle computing the line derives
//! (`worker::Cycle::op_key`): each applied matrix, where in the block it
//! acts, and the bound. It names no op, qubit or control mask, so equal
//! touches anywhere in a circuit share a line. The cycles count hits and
//! misses into the run's metrics, remote ranks included.
//!
//! A line is tagged with [`CompressedBlock::content_hash`] (XXH64) of each
//! input payload. The tag is computed once per block touch: a missed
//! [`BlockCache::lookup`] returns it inside a [`Miss`], and
//! [`BlockCache::insert`] takes that `Miss` instead of the input blocks, so
//! inserting never reads a payload. Hits compare the full compressed
//! payloads, not just their tags, so a hash collision can never corrupt the
//! simulation.

use crate::block::CompressedBlock;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Consecutive misses with no hit after which a cache shuts itself off:
/// "our simulator will disable the compressed block cache if the cache hit
/// rate is always zero" (§3.4).
pub const AUTO_DISABLE_AFTER: u64 = 512;

/// Key identifying a cache line.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct LineKey {
    op: u64,
    h1: u64,
    h2: u64,
}

struct Line {
    /// Exact input payloads (collision guard).
    in1: Arc<[u8]>,
    in2: Option<Arc<[u8]>>,
    out1: CompressedBlock,
    out2: Option<CompressedBlock>,
    /// LRU stamp.
    last_used: u64,
}

struct Inner {
    lines: HashMap<LineKey, Line>,
    clock: u64,
}

/// What a missed [`BlockCache::lookup`] already worked out, handed to
/// [`BlockCache::insert`] once the result is computed: the line key (the
/// one hashing pass over the inputs) and the input payloads the line keeps
/// as its collision guard. Empty when the cache is disabled.
#[derive(Debug)]
pub struct Miss(Option<Pending>);

impl Miss {
    /// Whether the lookup reached an enabled cache, and so counts as a
    /// miss.
    pub fn counted(&self) -> bool {
        self.0.is_some()
    }
}

#[derive(Debug)]
struct Pending {
    key: LineKey,
    in1: Arc<[u8]>,
    in2: Option<Arc<[u8]>>,
}

/// A cached result: the output block(s) of the looked-up operation.
pub type Hit = (CompressedBlock, Option<CompressedBlock>);

/// Number of independently locked shards; keeps 20+ workers from
/// serializing on one mutex when the hit rate is high.
const SHARDS: usize = 16;

/// Thread-safe LRU cache of gate-on-compressed-block results.
///
/// Sharded by key hash: each shard is an independent LRU of
/// `capacity / SHARDS` lines (so the aggregate capacity matches the
/// configured line count; eviction is LRU *within* a shard).
pub struct BlockCache {
    shards: Vec<Mutex<Inner>>,
    shard_capacity: usize,
    /// The auto-disable check's state; the run's hit and miss counts are
    /// metrics rows the block cycles keep.
    hit_once: AtomicBool,
    misses: AtomicU64,
    disabled: AtomicBool,
}

impl BlockCache {
    /// Cache with `capacity` lines; auto-disables after
    /// [`AUTO_DISABLE_AFTER`] misses with zero hits. `capacity == 0` builds
    /// a permanently disabled cache.
    pub fn new(capacity: usize) -> Self {
        let shard_capacity = capacity.div_ceil(SHARDS);
        Self {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(Inner {
                        lines: HashMap::with_capacity(shard_capacity),
                        clock: 0,
                    })
                })
                .collect(),
            shard_capacity,
            hit_once: AtomicBool::new(false),
            misses: AtomicU64::new(0),
            disabled: AtomicBool::new(capacity == 0),
        }
    }

    fn shard_of(&self, key: &LineKey) -> &Mutex<Inner> {
        let mix = key
            .op
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(key.h1)
            .wrapping_add(key.h2.rotate_left(17));
        &self.shards[(mix as usize) % SHARDS]
    }

    /// Whether the cache has shut itself off.
    pub fn is_disabled(&self) -> bool {
        self.disabled.load(Ordering::Relaxed)
    }

    fn note_miss(&self) {
        let m = self.misses.fetch_add(1, Ordering::Relaxed) + 1;
        if !self.hit_once.load(Ordering::Relaxed) && m >= AUTO_DISABLE_AFTER {
            // "Disable the compressed block cache if the cache hit rate is
            // always zero" (§3.4).
            self.disabled.store(true, Ordering::Relaxed);
        }
    }

    /// Look up the result of the operation keyed `op` applied to
    /// `(b1, b2)`. On a miss, the `Err` carries what
    /// [`insert`](Self::insert) needs to file the result the caller is
    /// about to compute.
    pub fn lookup(
        &self,
        op: u64,
        b1: &CompressedBlock,
        b2: Option<&CompressedBlock>,
    ) -> Result<Hit, Miss> {
        if self.is_disabled() {
            return Err(Miss(None));
        }
        let key = LineKey {
            op,
            h1: b1.content_hash(),
            h2: b2.map(|b| b.content_hash()).unwrap_or(0),
        };
        let mut inner = self.shard_of(&key).lock();
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(line) = inner.lines.get_mut(&key) {
            // Exact payload comparison: hash equality is not enough.
            let exact = *line.in1 == *b1.bytes
                && match (&line.in2, b2) {
                    (None, None) => true,
                    (Some(a), Some(b)) => **a == *b.bytes,
                    _ => false,
                };
            if exact {
                line.last_used = clock;
                let out = (line.out1.clone(), line.out2.clone());
                drop(inner);
                self.hit_once.store(true, Ordering::Relaxed);
                return Ok(out);
            }
        }
        drop(inner);
        self.note_miss();
        Err(Miss(Some(Pending {
            key,
            in1: b1.bytes.clone(),
            in2: b2.map(|b| b.bytes.clone()),
        })))
    }

    /// File the result computed after `miss`.
    pub fn insert(&self, miss: Miss, out1: &CompressedBlock, out2: Option<&CompressedBlock>) {
        let Some(Pending { key, in1, in2 }) = miss.0 else {
            return;
        };
        if self.is_disabled() {
            return;
        }
        let mut inner = self.shard_of(&key).lock();
        inner.clock += 1;
        let clock = inner.clock;
        if inner.lines.len() >= self.shard_capacity && !inner.lines.contains_key(&key) {
            // Evict the least-recently-used line.
            if let Some(evict) = inner
                .lines
                .iter()
                .min_by_key(|(_, l)| l.last_used)
                .map(|(k, _)| k.clone())
            {
                inner.lines.remove(&evict);
            }
        }
        inner.lines.insert(
            key,
            Line {
                in1,
                in2,
                out1: out1.clone(),
                out2: out2.cloned(),
                last_used: clock,
            },
        );
    }

    /// Number of resident lines across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().lines.len()).sum()
    }

    /// True when no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_compress::CodecId;

    fn block(fill: u8, len: usize) -> CompressedBlock {
        CompressedBlock {
            codec: CodecId::Qzstd,
            bound: qcs_compress::ErrorBound::Lossless,
            bytes: vec![fill; len].into(),
        }
    }

    /// Miss on `(op, in1, in2)`, then file `(out1, out2)` for it.
    fn fill(
        cache: &BlockCache,
        op: u64,
        in1: &CompressedBlock,
        in2: Option<&CompressedBlock>,
        out1: &CompressedBlock,
        out2: Option<&CompressedBlock>,
    ) {
        let miss = cache.lookup(op, in1, in2).expect_err("line not resident");
        cache.insert(miss, out1, out2);
    }

    #[test]
    fn hit_after_insert() {
        let cache = BlockCache::new(4);
        let in1 = block(1, 100);
        let out1 = block(2, 80);
        fill(&cache, 42, &in1, None, &out1, None);
        let (o, o2) = cache.lookup(42, &in1, None).unwrap();
        assert_eq!(*o.bytes, *out1.bytes);
        assert!(o2.is_none());
    }

    #[test]
    fn different_op_or_blocks_miss() {
        let cache = BlockCache::new(4);
        let in1 = block(1, 10);
        let in2 = block(2, 10);
        fill(
            &cache,
            1,
            &in1,
            Some(&in2),
            &block(3, 5),
            Some(&block(4, 5)),
        );
        assert!(cache.lookup(2, &in1, Some(&in2)).is_err()); // other op
        assert!(cache.lookup(1, &in2, Some(&in1)).is_err()); // swapped blocks
        assert!(cache.lookup(1, &in1, None).is_err()); // missing second
        assert!(cache.lookup(1, &in1, Some(&in2)).is_ok());
    }

    #[test]
    fn eviction_bounds_resident_lines() {
        // Capacity 16 = one line per shard; flooding with distinct keys
        // must keep the aggregate size at or below the capacity.
        let cache = BlockCache::new(16);
        for i in 0..200u8 {
            let b = block(i, 8);
            fill(&cache, i as u64, &b, None, &b, None);
        }
        assert!(cache.len() <= 16, "resident {} > capacity", cache.len());
    }

    #[test]
    fn refiling_a_resident_line_updates_it_in_place() {
        // Two workers can miss on the same line before either files it;
        // the second insert must replace, not grow.
        let cache = BlockCache::new(2);
        let (a, b) = (block(1, 8), block(2, 8));
        let first = cache.lookup(1, &a, None).expect_err("cold");
        let second = cache.lookup(1, &a, None).expect_err("cold");
        cache.insert(first, &a, None);
        cache.insert(second, &b, None);
        assert_eq!(cache.len(), 1);
        let (out, _) = cache.lookup(1, &a, None).unwrap();
        assert_eq!(*out.bytes, *b.bytes);
    }

    #[test]
    fn auto_disable_on_cold_stream() {
        let cache = BlockCache::new(4);
        let a = block(1, 4);
        let mut last = None;
        for op in 0..AUTO_DISABLE_AFTER {
            assert!(!cache.is_disabled(), "disabled after {op} misses");
            last = cache.lookup(op, &a, None).err();
        }
        assert!(cache.is_disabled());
        // Once disabled, neither a miss taken earlier nor a new one files
        // a line, nothing answers and nothing counts.
        cache.insert(last.unwrap(), &block(1, 1), None);
        let miss = cache.lookup(1, &a, None).expect_err("disabled");
        assert!(!miss.counted(), "a disabled cache counts nothing");
        cache.insert(miss, &block(1, 1), None);
        assert!(cache.is_empty());
    }

    #[test]
    fn hits_prevent_auto_disable() {
        let cache = BlockCache::new(4);
        let a = block(7, 4);
        fill(&cache, 1, &a, None, &a, None);
        assert!(cache.lookup(1, &a, None).is_ok());
        for op in 2..2 * AUTO_DISABLE_AFTER {
            assert!(cache.lookup(op, &a, None).is_err());
        }
        assert!(!cache.is_disabled());
    }

    #[test]
    fn zero_capacity_is_disabled() {
        let cache = BlockCache::new(0);
        assert!(cache.is_disabled());
        let a = block(1, 4);
        let miss = cache.lookup(1, &a, None).expect_err("disabled");
        cache.insert(miss, &a, None);
        assert!(cache.lookup(1, &a, None).is_err());
        assert!(cache.is_empty());
    }

    #[test]
    fn equal_tag_with_a_different_payload_is_a_miss() {
        // Forge the collision XXH64 will not hand us: file a line under
        // `b`'s key whose guard payload is `a`'s. Looking `b` up finds the
        // key, compares payloads, and must miss.
        let cache = BlockCache::new(4);
        let (a, b) = (block(1, 16), block(2, 16));
        let Miss(Some(mut forged)) = cache.lookup(5, &b, None).expect_err("cold") else {
            panic!("enabled cache returned an empty miss");
        };
        forged.in1 = a.bytes.clone();
        cache.insert(Miss(Some(forged)), &block(9, 3), None);
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(5, &b, None).is_err());
    }
}
