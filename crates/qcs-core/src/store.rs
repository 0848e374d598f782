//! Block storage tiers: where a rank's compressed blocks live.
//!
//! The paper keeps every compressed block in RAM; this module makes that
//! one policy among several by putting a [`BlockStore`] trait between the
//! rank worker and its blocks:
//!
//! - [`MemStore`] — the classic all-resident tier (what the engine always
//!   did): every block stays in memory, no I/O, no residency cap.
//! - [`SpillStore`] — the out-of-core tier: a configurable number of hot
//!   compressed blocks stay resident (victims chosen per [`Eviction`]:
//!   least recently touched, or Belady's MIN over the planned window) and
//!   the rest are spilled to one segment file per rank as self-describing
//!   [`qcs_compress::frame`]s (codec id, error bound, length, checksum).
//!   The simulable qubit count is then bounded by disk, not RAM — the
//!   next rung below the paper's compression ladder in the storage
//!   hierarchy.
//!
//! Workers address blocks by their local slot index and move them with
//! [`BlockStore::take`] / [`BlockStore::put`] (exclusive, for the
//! decompress → compute → recompress cycle) or copy them with
//! [`BlockStore::peek`] (shared, for snapshots and read-only collectives).
//! Planned waves pull whole chunks with [`BlockStore::fetch_many`] (a
//! spill tier coalesces adjacent segment frames into single reads).
//!
//! # One planned-access call
//!
//! A planned wave tells the store its future once, with
//! [`BlockStore::plan_accesses`]: its own ordered slots, and nothing of
//! the wave after it. Every consumption of a planned slot moves the
//! window's cursor past it. [`Eviction::PlannedMin`] evicts the resident
//! block whose next planned use in the window is furthest away (Belady's
//! MIN — exact within a wave, because the wave's slot order is known
//! before it runs); an LRU store asks for no window.
//! Every method takes `&self`: stores are internally locked so read-only
//! collectives can run against `&RankWorker` exactly as before.
//!
//! # The caller's thread does the I/O
//!
//! A [`SpillStore`] runs no thread of its own. Every eviction encodes its
//! victim's frame into the store's one reused buffer and lands it with a
//! single positional write at the segment's end, under the store lock
//! (`spill_victim`, the only place a `Slot::Spilled` is built). A failed
//! write leaves the victim resident and the segment's bookkeeping
//! untouched, and the `put` that evicted returns [`SimError::Spill`].
//! Every read of a segment goes through `read_frame_runs`, which sorts
//! frames by offset and serves segment-adjacent ones with one positional
//! read: [`BlockStore::fetch_many`] calls it for a chunk's spilled slots,
//! [`BlockStore::take`] is a one-slot `fetch_many`, and `peek` and
//! compaction read through it too. The segment lives in the page cache on
//! the workloads this tier serves, so a background fetcher or writer
//! would save a memcpy at the cost of thread handoffs; with the I/O on
//! the caller's thread, the resident bytes at a wave boundary — and the
//! spill and fetch counters — are a function of the circuit alone.
//!
//! # Segment-file layout and compaction
//!
//! A [`SpillStore`] appends each evicted frame to its one segment file and
//! remembers `(offset, length)` per slot. A block fetched back leaves its
//! old frame behind as garbage; when the segment's dead bytes exceed both
//! [`COMPACT_MIN_DEAD_BYTES`] and twice its live bytes, the store rewrites
//! the live frames, in slot order, into a fresh segment and atomically
//! renames it over the old one, bounding disk usage at ~3× the live
//! spilled working set. Fetches verify the frame checksum, so torn writes
//! and bit rot surface as [`SimError::Spill`] instead of corrupt
//! amplitudes.
//!
//! Spill/fetch counts, bytes, and I/O time are recorded into the shared
//! [`Metrics`] under `Phase::SpillIo` — every fetch is a blocking one —
//! and surfaced through `SimReport`.
//!
//! Segment files are deleted when their store drops; a simulation
//! additionally wraps its per-rank segment files in a shared
//! [`SegmentDirGuard`] whose last owner removes the whole directory, so
//! even a panicking worker thread cannot leak spill files.

use crate::block::{BlockCodec, CompressedBlock};
use crate::cache::BlockCache;
use crate::config::SimConfig;
use crate::engine::SimError;
use parking_lot::Mutex;
use qcs_cluster::{Layout, Metrics, Phase};
use qcs_compress::frame;
use std::cmp::Reverse;
use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Where a rank worker's compressed blocks live, addressed by local slot
/// index (`0..len()`).
///
/// Exclusive access is a `take`/`put` pair: a taken block is *in flight*
/// (owned by the caller, not resident, not spilled) until it is put back.
/// Taking a slot twice without an intervening put, or addressing a slot
/// out of range, is a caller bug and panics.
pub trait BlockStore: Send + Sync + std::fmt::Debug {
    /// Number of block slots (fixed at construction).
    fn len(&self) -> usize;

    /// True when the store has no slots.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove and return the block in `slot`, fetching it from the spill
    /// tier if it is not resident.
    fn take(&self, slot: usize) -> Result<CompressedBlock, SimError>;

    /// Store `blk` into `slot`, evicting cold blocks to the spill tier if
    /// the residency budget is now exceeded.
    fn put(&self, slot: usize, blk: CompressedBlock) -> Result<(), SimError>;

    /// Copy of the block in `slot` without changing its tier (cheap for
    /// resident blocks — payloads are shared `Arc`s; a disk read for
    /// spilled ones).
    fn peek(&self, slot: usize) -> Result<CompressedBlock, SimError>;

    /// Remove and return the blocks in `slots`, in `slots` order — the
    /// batched form of [`BlockStore::take`] a planned wave uses to pull a
    /// whole chunk at once. A spill tier coalesces adjacent frames of its
    /// segment file into a single ordered read instead of paying one read
    /// per block; the default implementation just loops `take`.
    fn fetch_many(&self, slots: &[usize]) -> Result<Vec<CompressedBlock>, SimError> {
        slots.iter().map(|&s| self.take(s)).collect()
    }

    /// Announce the ordered slot accesses the caller plans to perform
    /// next (one wave's), replacing any previous window. Purely advisory:
    /// a MIN spill tier picks victims by it (see the module docs); every
    /// other store ignores it.
    fn plan_accesses(&self, upcoming: &[usize]) {
        let _ = upcoming;
    }

    /// True when the store reads [`BlockStore::plan_accesses`] windows —
    /// a spill tier that evicts by MIN — so callers skip building a
    /// window nobody reads.
    fn wants_plan(&self) -> bool {
        false
    }

    /// Barrier for stores that buffer writes. Every store in this crate
    /// writes on the caller's thread, so there is nothing to drain and
    /// this returns immediately.
    fn flush(&self) -> Result<(), SimError> {
        Ok(())
    }

    /// Compressed bytes currently resident in memory.
    fn resident_bytes(&self) -> u64;

    /// Compressed bytes of all blocks, resident plus spilled.
    fn compressed_bytes(&self) -> u64;

    /// Residency budget in blocks; `None` means everything stays resident.
    /// Workers use this to bound how many blocks they hold in flight at
    /// once during a wave.
    fn resident_cap(&self) -> Option<usize>;

    /// Test-only: make every later segment write fail (`fail`) or succeed
    /// again. Stores that write nothing ignore it.
    #[cfg(test)]
    fn debug_set_write_fault(&self, fail: bool) {
        let _ = fail;
    }
}

// ---------------------------------------------------------------------------
// MemStore
// ---------------------------------------------------------------------------

/// The all-in-RAM tier: a slot table with no residency cap (the paper's
/// baseline storage policy).
#[derive(Debug)]
pub struct MemStore {
    slots: Mutex<Vec<Option<CompressedBlock>>>,
}

impl MemStore {
    /// Store owning `blocks` (index = slot).
    pub fn new(blocks: Vec<Option<CompressedBlock>>) -> Self {
        Self {
            slots: Mutex::new(blocks),
        }
    }
}

impl BlockStore for MemStore {
    fn len(&self) -> usize {
        self.slots.lock().len()
    }

    fn take(&self, slot: usize) -> Result<CompressedBlock, SimError> {
        Ok(self.slots.lock()[slot].take().expect("block present"))
    }

    fn put(&self, slot: usize, blk: CompressedBlock) -> Result<(), SimError> {
        let mut slots = self.slots.lock();
        debug_assert!(slots[slot].is_none(), "slot {slot} already occupied");
        slots[slot] = Some(blk);
        Ok(())
    }

    fn peek(&self, slot: usize) -> Result<CompressedBlock, SimError> {
        Ok(self.slots.lock()[slot].clone().expect("block present"))
    }

    fn resident_bytes(&self) -> u64 {
        self.slots
            .lock()
            .iter()
            .map(|b| b.as_ref().map(|b| b.len() as u64).unwrap_or(0))
            .sum()
    }

    fn compressed_bytes(&self) -> u64 {
        self.resident_bytes()
    }

    fn resident_cap(&self) -> Option<usize> {
        None
    }
}

// ---------------------------------------------------------------------------
// Eviction and the planned-access window
// ---------------------------------------------------------------------------

/// Victim selection for a [`SpillStore`]'s residency budget, chosen per
/// simulation on the spill config:
///
/// ```
/// use qcs_core::{Eviction, SimConfig};
///
/// // Belady's MIN over each wave's exact slot order.
/// let cfg = SimConfig::default()
///     .with_spill(4)
///     .with_eviction(Eviction::PlannedMin);
/// let spill = cfg.spill.as_ref().unwrap();
/// assert_eq!(spill.eviction, Eviction::PlannedMin);
///
/// // The default spill tier keeps the classic LRU.
/// let lru = SimConfig::default().with_spill(4);
/// assert_eq!(lru.spill.as_ref().unwrap().eviction, Eviction::Lru);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Eviction {
    /// Evict the least-recently-touched resident block (the classic
    /// policy); the planned window does not enter the choice.
    #[default]
    Lru,
    /// Belady's MIN over the planned access window, which is the current
    /// wave's own slots: evict the resident block whose next planned use
    /// in the wave is furthest away, falling back to LRU order for blocks
    /// the rest of the wave does not name again.
    PlannedMin,
}

impl Eviction {
    /// Short display name (bench tables).
    pub fn name(self) -> &'static str {
        match self {
            Eviction::Lru => "lru",
            Eviction::PlannedMin => "min",
        }
    }
}

/// A [`SpillStore`]'s view of the future: the window the last
/// [`BlockStore::plan_accesses`] announced and a cursor past the last
/// planned slot consumed.
///
/// A `take`, `peek` or `fetch_many` of a slot moves the cursor just past
/// the slot's next planned use; a slot the rest of the window never names
/// (a snapshot or checkpoint read) leaves it where it is. MIN ranks
/// residents by their next position after the cursor: blocks the window
/// never names again are the best victims, and among those (an empty or
/// consumed window included) the choice is exact LRU order.
#[derive(Debug, Default)]
struct Window {
    slots: Vec<usize>,
    cursor: usize,
    /// Planned positions per slot, front = soonest; fronts behind the
    /// cursor are dropped lazily. Built under [`Eviction::PlannedMin`]
    /// only: LRU victims ignore the window.
    occurrences: Option<HashMap<usize, VecDeque<usize>>>,
}

impl Window {
    fn new(eviction: Eviction) -> Self {
        Self {
            occurrences: (eviction == Eviction::PlannedMin).then(HashMap::new),
            ..Self::default()
        }
    }

    /// Replace the window with `upcoming`, cursor at its start.
    fn plan(&mut self, upcoming: &[usize]) {
        self.slots.clear();
        self.slots.extend_from_slice(upcoming);
        self.cursor = 0;
        if let Some(occurrences) = &mut self.occurrences {
            occurrences.clear();
            for (pos, &slot) in upcoming.iter().enumerate() {
                occurrences.entry(slot).or_default().push_back(pos);
            }
        }
    }

    /// Consume `slot`: move the cursor past its next planned use, if it
    /// has one.
    fn advance(&mut self, slot: usize) {
        if let Some(d) = self.slots[self.cursor..].iter().position(|&s| s == slot) {
            self.cursor += d + 1;
        }
    }

    /// The eviction victim among `residents`, given as `(slot,
    /// last-touch stamp)` pairs (stamps are unique and increase with
    /// recency); `None` only when `residents` is empty. No planned use
    /// beats any planned use, a later one beats a sooner one, and LRU
    /// `(stamp, slot)` breaks the remaining ties — which is every tie
    /// under [`Eviction::Lru`], where no resident has a planned use.
    fn victim(&mut self, residents: &[(usize, u64)]) -> Option<usize> {
        let cursor = self.cursor;
        let mut next_use = |slot: usize| {
            let dq = self.occurrences.as_mut()?.get_mut(&slot)?;
            while *dq.front()? < cursor {
                dq.pop_front();
            }
            dq.front().copied()
        };
        residents
            .iter()
            .map(|&(slot, stamp)| (slot, stamp, next_use(slot)))
            .max_by_key(|&(slot, stamp, next)| {
                (next.is_none(), next, Reverse(stamp), Reverse(slot))
            })
            .map(|(slot, _, _)| slot)
    }
}

// ---------------------------------------------------------------------------
// SpillStore
// ---------------------------------------------------------------------------

/// Compaction trigger: dead segment bytes must exceed this floor (and twice
/// the live bytes) before the store rewrites its segment file.
pub const COMPACT_MIN_DEAD_BYTES: u64 = 1 << 20;

/// Uniquifier for segment file names within one process.
static SEG_SEQ: AtomicU64 = AtomicU64::new(0);

/// Owns a simulation's spill directory and removes the whole tree when
/// the last owner drops.
///
/// Every [`SpillStore`] of a simulation holds a clone of the guard and the
/// engine facade holds one more, so whichever side is torn down last —
/// including a worker thread unwinding from a panic — deletes the
/// directory. A store still deletes its own segment file eagerly on drop;
/// the guard is the backstop that also sweeps files a panicking thread
/// never got to remove, keeping crashed simulations from leaking spill
/// files into the temp dir.
#[derive(Debug)]
pub struct SegmentDirGuard {
    path: PathBuf,
}

impl SegmentDirGuard {
    /// Create a fresh, uniquely named directory under `parent` (created if
    /// missing) and guard it.
    pub fn create(parent: &Path) -> Result<Arc<Self>, SimError> {
        let seq = SEG_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = parent.join(format!("qcs-spill-{}-{seq}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| io_err("create spill dir", e))?;
        Ok(Arc::new(Self { path }))
    }

    /// The guarded directory (where the per-rank segment files live).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for SegmentDirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Construction options for a [`SpillStore`] beyond the required
/// geometry: the eviction policy and an optional shared
/// [`SegmentDirGuard`] for panic-safe cleanup. `prefetch` and
/// `write_behind` mirror config fields a store ignores.
#[derive(Debug, Default, Clone)]
pub struct SpillOptions {
    /// Accepted and ignored: mirrors [`SimConfig::prefetch`]. Every
    /// spilled fetch is a read on the caller's thread.
    pub prefetch: bool,
    /// Directory guard keeping the segment dir alive until the last store
    /// (or the facade) drops, then removing the whole tree.
    pub dir_guard: Option<Arc<SegmentDirGuard>>,
    /// Victim selection for the residency budget ([`Eviction::Lru`] by
    /// default; [`Eviction::PlannedMin`] ranks residents by the
    /// [`BlockStore::plan_accesses`] window).
    pub eviction: Eviction,
    /// Accepted and ignored: mirrors [`crate::SpillConfig::write_behind`].
    /// Every eviction writes its victim on the caller's thread.
    pub write_behind: bool,
    /// Segment files per store, mirroring [`crate::SpillConfig::shards`]:
    /// a store holds exactly one, so [`SpillStore::create_with`] accepts
    /// 0 (the default) or 1 and refuses more.
    pub shards: usize,
}

/// One slot's tier in a [`SpillStore`].
#[derive(Debug)]
enum Slot {
    /// Taken by the worker; will be put back at the end of the cycle.
    InFlight,
    /// Hot: held in memory, competing under the eviction policy.
    Resident { blk: CompressedBlock, stamp: u64 },
    /// Cold: one frame in the segment file.
    Spilled {
        offset: u64,
        frame_len: u32,
        payload_len: u32,
    },
}

#[derive(Debug)]
struct SpillInner {
    /// The segment file of checksummed frames; compaction swaps in a new
    /// one.
    file: File,
    /// Append offset (end of the last frame).
    end: u64,
    /// Bytes of live frames in the segment.
    live: u64,
    /// Bytes of superseded frames awaiting compaction.
    dead: u64,
    slots: Vec<Slot>,
    /// LRU clock; bumped on every residency touch.
    clock: u64,
    resident_count: usize,
    resident_bytes: u64,
    /// Sum of spilled payload (compressed block) lengths.
    spilled_payload_bytes: u64,
    /// The announced access window: MIN picks `evict_over_cap`'s victims
    /// by it.
    window: Window,
    /// The one reused frame buffer every eviction encodes into.
    frame_buf: Vec<u8>,
    /// Test-only fault injection: every segment write fails while set.
    #[cfg(test)]
    write_fault: bool,
}

/// The out-of-core tier: at most `cap` hot blocks resident (the victim
/// of an overflow chosen per the store's [`Eviction`]), the rest
/// spilled to one segment file of checksummed frames, deleted on drop.
/// All I/O runs on the calling thread, under the store lock.
pub struct SpillStore {
    cap: usize,
    path: PathBuf,
    metrics: Metrics,
    inner: Mutex<SpillInner>,
    /// The policy selector this store was built with.
    eviction: Eviction,
    /// Keeps the segment directory alive until the last store drops.
    _dir_guard: Option<Arc<SegmentDirGuard>>,
}

impl std::fmt::Debug for SpillStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpillStore")
            .field("cap", &self.cap)
            .field("path", &self.path)
            .field("eviction", &self.eviction)
            .finish()
    }
}

fn io_err(ctx: &str, e: impl std::fmt::Display) -> SimError {
    SimError::Spill(format!("{ctx}: {e}"))
}

impl SpillStore {
    /// Create the segment file under `dir` (created if missing) and seed
    /// the store with `blocks`; blocks beyond the `cap.max(1)` residency
    /// budget spill immediately. `label` distinguishes per-rank files of
    /// one simulation. Eviction is LRU; use [`SpillStore::create_with`]
    /// to pick MIN or to attach a directory guard.
    pub fn create(
        dir: &Path,
        label: &str,
        cap: usize,
        metrics: Metrics,
        blocks: Vec<Option<CompressedBlock>>,
    ) -> Result<Self, SimError> {
        Self::create_with(dir, label, cap, metrics, blocks, SpillOptions::default())
    }

    /// [`SpillStore::create`] with explicit [`SpillOptions`]. A
    /// `shards` count above 1 is a [`SimError::Config`].
    pub fn create_with(
        dir: &Path,
        label: &str,
        cap: usize,
        metrics: Metrics,
        blocks: Vec<Option<CompressedBlock>>,
        opts: SpillOptions,
    ) -> Result<Self, SimError> {
        if opts.shards > 1 {
            return Err(SimError::Config(format!(
                "spill shard count {} is not 1: a store holds one segment file",
                opts.shards
            )));
        }
        std::fs::create_dir_all(dir).map_err(|e| io_err("create spill dir", e))?;
        let seq = SEG_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!(
            "qcs-spill-{label}-{}-{seq}.seg",
            std::process::id()
        ));
        let file = File::options()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(|e| io_err("create spill segment", e))?;
        let store = Self {
            cap: cap.max(1),
            path,
            metrics,
            inner: Mutex::new(SpillInner {
                file,
                end: 0,
                live: 0,
                dead: 0,
                slots: blocks.iter().map(|_| Slot::InFlight).collect(),
                clock: 0,
                resident_count: 0,
                resident_bytes: 0,
                spilled_payload_bytes: 0,
                window: Window::new(opts.eviction),
                frame_buf: Vec::new(),
                #[cfg(test)]
                write_fault: false,
            }),
            eviction: opts.eviction,
            _dir_guard: opts.dir_guard,
        };
        for (slot, blk) in blocks.into_iter().enumerate() {
            match blk {
                Some(blk) => store.put(slot, blk)?,
                None => panic!("spill store seeded with an absent block"),
            }
        }
        Ok(store)
    }

    /// Path of the segment file (exposed for tests and diagnostics).
    pub fn segment_path(&self) -> &Path {
        &self.path
    }

    /// Spill [`Window::victim`]s until the budget holds.
    fn evict_over_cap(&self, inner: &mut SpillInner) -> Result<(), SimError> {
        while inner.resident_count > self.cap {
            let residents: Vec<(usize, u64)> = inner
                .slots
                .iter()
                .enumerate()
                .filter_map(|(i, s)| match s {
                    Slot::Resident { stamp, .. } => Some((i, *stamp)),
                    _ => None,
                })
                .collect();
            let victim = inner.window.victim(&residents).expect("resident_count > 0");
            self.spill_victim(inner, victim)?;
        }
        Ok(())
    }

    /// The one way a frame reaches the segment: encode the resident block
    /// in `slot` into the reused frame buffer, land it at the segment's
    /// end with one positional write, and make the slot `Spilled`. On
    /// failure the block stays resident under its old stamp, `end`,
    /// `live` and `dead` adopt nothing (a partly written tail is
    /// overwritten by the next frame), and the error is returned.
    fn spill_victim(&self, inner: &mut SpillInner, slot: usize) -> Result<(), SimError> {
        let Slot::Resident { blk, stamp } =
            std::mem::replace(&mut inner.slots[slot], Slot::InFlight)
        else {
            unreachable!("victim is resident")
        };
        let t = Instant::now();
        inner.frame_buf.clear();
        let written =
            frame::encode_frame_into(blk.codec, blk.bound, &blk.bytes, &mut inner.frame_buf)
                .map_err(|e| io_err("encode spill frame", e))
                .and_then(|()| inner.injected_fault())
                .and_then(|()| {
                    inner
                        .file
                        .write_all_at(&inner.frame_buf, inner.end)
                        .map_err(|e| io_err("write spill frame", e))
                });
        self.metrics.add(Phase::SpillIo, t.elapsed());
        if let Err(e) = written {
            inner.slots[slot] = Slot::Resident { blk, stamp };
            return Err(e);
        }
        let frame_len = inner.frame_buf.len() as u32;
        let payload_len = blk.len() as u32;
        inner.slots[slot] = Slot::Spilled {
            offset: inner.end,
            frame_len,
            payload_len,
        };
        inner.end += frame_len as u64;
        inner.live += frame_len as u64;
        inner.resident_count -= 1;
        inner.resident_bytes -= payload_len as u64;
        inner.spilled_payload_bytes += payload_len as u64;
        self.metrics.add_spill(frame_len as u64);
        Ok(())
    }

    /// Read spilled frames through [`read_frame_runs`], charged to
    /// `SpillIo`, each counted as a blocking fetch. `reads` entries are
    /// `(key, offset, frame_len)`.
    fn read_blocking<K: Copy>(
        &self,
        inner: &SpillInner,
        reads: &mut [(K, u64, u32)],
    ) -> Vec<(K, Result<CompressedBlock, SimError>)> {
        if reads.is_empty() {
            return Vec::new();
        }
        let t = Instant::now();
        let decoded = read_frame_runs(&inner.file, reads);
        self.metrics.add(Phase::SpillIo, t.elapsed());
        decoded
            .into_iter()
            .map(|(key, frame_len, blk)| {
                self.metrics.add_fetch_blocking(frame_len as u64);
                (key, blk)
            })
            .collect()
    }

    /// Rewrite the live frames into a fresh segment when its garbage
    /// dominates.
    ///
    /// The in-memory index is only repointed *after* the new segment is
    /// fully written, synced, and renamed over the old one: a
    /// mid-compaction I/O failure (out of disk, torn write) leaves the
    /// store untouched on the old segment, and the orphaned `.tmp` is
    /// removed.
    fn maybe_compact(&self, inner: &mut SpillInner) -> Result<(), SimError> {
        if inner.dead < COMPACT_MIN_DEAD_BYTES || inner.dead < 2 * inner.live {
            return Ok(());
        }
        self.compact(inner)
    }

    /// Unconditionally compact the segment (see [`Self::maybe_compact`]).
    /// The live frames are read through [`read_frame_runs`] a residency
    /// budget at a time, and written in slot order.
    fn compact(&self, inner: &mut SpillInner) -> Result<(), SimError> {
        let t = Instant::now();
        let tmp_path = self.path.with_extension("tmp");
        let mut live: Vec<(usize, u64, u32)> = inner
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match *s {
                Slot::Spilled {
                    offset, frame_len, ..
                } => Some((i, offset, frame_len)),
                _ => None,
            })
            .collect();
        let file = &inner.file;
        let result = (|| {
            let mut tmp = File::options()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp_path)
                .map_err(|e| io_err("create compaction segment", e))?;
            // (slot, new offset) moves, applied only once the swap landed.
            let mut moves = Vec::with_capacity(live.len());
            let mut new_end = 0u64;
            let mut buf = Vec::new();
            for chunk in live.chunks_mut(self.cap) {
                let mut blocks = read_frame_runs(file, chunk);
                blocks.sort_unstable_by_key(|&(slot, _, _)| slot);
                buf.clear();
                for (slot, frame_len, blk) in blocks {
                    let blk = blk?;
                    frame::encode_frame_into(blk.codec, blk.bound, &blk.bytes, &mut buf)
                        .map_err(|e| io_err("rewrite spill frame", e))?;
                    moves.push((slot, new_end));
                    new_end += frame_len as u64;
                }
                tmp.write_all(&buf)
                    .map_err(|e| io_err("rewrite spill frame", e))?;
            }
            tmp.sync_all().map_err(|e| io_err("sync compaction", e))?;
            std::fs::rename(&tmp_path, &self.path)
                .map_err(|e| io_err("swap compacted segment", e))?;
            Ok((tmp, moves, new_end))
        })();
        let (tmp, moves, new_end) = match result {
            Ok(parts) => parts,
            Err(e) => {
                let _ = std::fs::remove_file(&tmp_path);
                return Err(e);
            }
        };
        for (i, new_offset) in moves {
            if let Slot::Spilled { offset, .. } = &mut inner.slots[i] {
                *offset = new_offset;
            }
        }
        inner.file = tmp;
        inner.end = new_end;
        inner.live = new_end;
        inner.dead = 0;
        self.metrics.add(Phase::SpillIo, t.elapsed());
        Ok(())
    }
}

impl SpillInner {
    /// The armed test-only write fault, as the error a failed write
    /// returns; `Ok` outside tests.
    fn injected_fault(&self) -> Result<(), SimError> {
        #[cfg(test)]
        if self.write_fault {
            return Err(SimError::Spill("injected write failure".into()));
        }
        Ok(())
    }
}

impl BlockStore for SpillStore {
    fn len(&self) -> usize {
        self.inner.lock().slots.len()
    }

    /// A one-slot [`BlockStore::fetch_many`]: one read path, one
    /// accounting.
    fn take(&self, slot: usize) -> Result<CompressedBlock, SimError> {
        Ok(self.fetch_many(&[slot])?.remove(0))
    }

    fn put(&self, slot: usize, blk: CompressedBlock) -> Result<(), SimError> {
        let mut inner = self.inner.lock();
        debug_assert!(
            matches!(inner.slots[slot], Slot::InFlight),
            "slot {slot} already occupied"
        );
        inner.clock += 1;
        let stamp = inner.clock;
        inner.resident_count += 1;
        inner.resident_bytes += blk.len() as u64;
        inner.slots[slot] = Slot::Resident { blk, stamp };
        self.evict_over_cap(&mut inner)?;
        self.maybe_compact(&mut inner)
    }

    fn peek(&self, slot: usize) -> Result<CompressedBlock, SimError> {
        let mut inner = self.inner.lock();
        inner.window.advance(slot);
        inner.clock += 1;
        let stamp = inner.clock;
        match &mut inner.slots[slot] {
            Slot::Resident {
                blk,
                stamp: last_used,
            } => {
                *last_used = stamp;
                Ok(blk.clone())
            }
            &mut Slot::Spilled {
                offset, frame_len, ..
            } => {
                let read = &mut [((), offset, frame_len)];
                self.read_blocking(&inner, read).remove(0).1
            }
            Slot::InFlight => panic!("peek at in-flight slot {slot}"),
        }
    }

    /// Take a whole chunk at once: resident blocks come out of memory,
    /// and the spilled frames are read through `read_frame_runs` —
    /// adjacent frames are served by one contiguous read instead of a
    /// read per block.
    fn fetch_many(&self, slots: &[usize]) -> Result<Vec<CompressedBlock>, SimError> {
        let mut inner = self.inner.lock();
        for &slot in slots {
            inner.window.advance(slot);
        }
        let mut out: Vec<Option<CompressedBlock>> = slots.iter().map(|_| None).collect();
        // (result index, offset, frame_len): the reads.
        let mut reads: Vec<(usize, u64, u32)> = Vec::new();
        for (i, &slot) in slots.iter().enumerate() {
            match std::mem::replace(&mut inner.slots[slot], Slot::InFlight) {
                Slot::Resident { blk, .. } => {
                    inner.resident_count -= 1;
                    inner.resident_bytes -= blk.len() as u64;
                    out[i] = Some(blk);
                }
                Slot::Spilled {
                    offset,
                    frame_len,
                    payload_len,
                } => {
                    inner.live -= frame_len as u64;
                    inner.dead += frame_len as u64;
                    inner.spilled_payload_bytes -= payload_len as u64;
                    reads.push((i, offset, frame_len));
                }
                Slot::InFlight => panic!("slot {slot} taken twice"),
            }
        }
        for (i, blk) in self.read_blocking(&inner, &mut reads) {
            out[i] = Some(blk?);
        }
        Ok(out
            .into_iter()
            .map(|b| b.expect("every requested slot fetched"))
            .collect())
    }

    fn plan_accesses(&self, upcoming: &[usize]) {
        self.inner.lock().window.plan(upcoming);
    }

    fn wants_plan(&self) -> bool {
        self.eviction == Eviction::PlannedMin
    }

    /// Compressed bytes of the resident blocks: the whole memory footprint
    /// of the tier, since it buffers nothing else.
    fn resident_bytes(&self) -> u64 {
        self.inner.lock().resident_bytes
    }

    fn compressed_bytes(&self) -> u64 {
        let inner = self.inner.lock();
        inner.resident_bytes + inner.spilled_payload_bytes
    }

    fn resident_cap(&self) -> Option<usize> {
        Some(self.cap)
    }

    #[cfg(test)]
    fn debug_set_write_fault(&self, fail: bool) {
        self.inner.lock().write_fault = fail;
    }
}

/// Read and decode a set of spilled frames, coalescing segment-adjacent
/// ones into single contiguous positional reads — the one copy of the
/// sort/run/decode logic every segment read goes through. `reads` entries
/// are `(key, offset, frame_len)`; the input is sorted in place by offset
/// and one `(key, frame_len, outcome)` is returned per entry.
fn read_frame_runs<K: Copy>(
    file: &File,
    reads: &mut [(K, u64, u32)],
) -> Vec<(K, u32, Result<CompressedBlock, SimError>)> {
    reads.sort_unstable_by_key(|&(_, offset, _)| offset);
    let mut out = Vec::with_capacity(reads.len());
    let mut start = 0usize;
    while start < reads.len() {
        // Extend the run while frames are segment-adjacent.
        let mut end = start + 1;
        let mut run_len = reads[start].2 as usize;
        while end < reads.len() && reads[end].1 == reads[end - 1].1 + reads[end - 1].2 as u64 {
            run_len += reads[end].2 as usize;
            end += 1;
        }
        let mut buf = vec![0u8; run_len];
        match file.read_exact_at(&mut buf, reads[start].1) {
            Err(e) => {
                let msg = format!("read spill run: {e}");
                for &(k, _, frame_len) in &reads[start..end] {
                    out.push((k, frame_len, Err(SimError::Spill(msg.clone()))));
                }
            }
            Ok(()) => {
                let mut pos = 0usize;
                for &(k, _, frame_len) in &reads[start..end] {
                    let res = frame::read_frame(&mut &buf[pos..pos + frame_len as usize])
                        .map(|f| CompressedBlock {
                            codec: f.codec,
                            bound: f.bound,
                            bytes: f.payload.into(),
                        })
                        .map_err(|e| io_err("decode spill frame", e));
                    pos += frame_len as usize;
                    out.push((k, frame_len, res));
                }
            }
        }
        start = end;
    }
    out
}

impl Drop for SpillStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Warm `codec`'s scratch pool for one process's rank workers, so even
/// the first waves run allocation-free (prewarm is deliberately
/// uncounted).
pub(crate) fn prewarm(codec: &BlockCodec, layout: Layout) {
    let buffers = (4 * rayon::current_num_threads() + 4).min(32);
    codec.prewarm(layout.block_amps() * 2, buffers);
}

/// The block cache one process's ranks share, and each rank's store.
pub(crate) type RankStores = (Arc<BlockCache>, Vec<Box<dyn BlockStore>>);

/// Stand up the storage of one process's rank workers under `cfg`:
/// [`prewarm`] the codec, build the one block cache the process's ranks
/// share, and give each `(rank, blocks)` its store — a [`SpillStore`] in
/// `dir` when `cfg.spill` is set, else a [`MemStore`].
pub(crate) fn rank_stores(
    cfg: &SimConfig,
    layout: Layout,
    codec: &BlockCodec,
    dir: Option<&Arc<SegmentDirGuard>>,
    metrics: &Metrics,
    ranks: impl IntoIterator<Item = (usize, Vec<Option<CompressedBlock>>)>,
) -> Result<RankStores, SimError> {
    prewarm(codec, layout);
    let cache = Arc::new(BlockCache::new(cfg.cache_lines));
    let store = |(rank, blocks)| -> Result<Box<dyn BlockStore>, SimError> {
        Ok(match (&cfg.spill, dir) {
            (Some(spill), Some(guard)) => Box::new(SpillStore::create_with(
                guard.path(),
                &format!("r{rank}"),
                spill.resident_blocks,
                metrics.clone(),
                blocks,
                SpillOptions {
                    dir_guard: Some(Arc::clone(guard)),
                    eviction: spill.eviction,
                    shards: spill.shards,
                    ..SpillOptions::default()
                },
            )?),
            _ => Box::new(MemStore::new(blocks)),
        })
    };
    let stores = ranks.into_iter().map(store).collect::<Result<_, _>>()?;
    Ok((cache, stores))
}

/// Test-only instrumented store shim: records the exact slot order of
/// every logical access (`take`/`peek`/`fetch_many`) a worker issues, so
/// the engine's property suite can pin the schedule's `AccessPlan`
/// against what a wave actually touched. Plan windows are deliberately
/// *not* recorded — they are advisory, and the plan must match the
/// access stream, not the window announced ahead of it.
#[cfg(test)]
pub(crate) mod trace {
    use super::*;

    /// Observed slot sequences, one list per rank.
    pub(crate) type AccessLog = Arc<Mutex<Vec<Vec<usize>>>>;

    /// Fresh log for `ranks` ranks.
    pub(crate) fn access_log(ranks: usize) -> AccessLog {
        Arc::new(Mutex::new(vec![Vec::new(); ranks]))
    }

    /// Drain the log, leaving empty per-rank lists behind.
    pub(crate) fn drain(log: &AccessLog) -> Vec<Vec<usize>> {
        let mut l = log.lock();
        let ranks = l.len();
        std::mem::replace(&mut *l, vec![Vec::new(); ranks])
    }

    #[derive(Debug)]
    pub(crate) struct TraceStore {
        rank: usize,
        log: AccessLog,
        inner: Box<dyn BlockStore>,
    }

    impl TraceStore {
        pub(crate) fn new(rank: usize, log: AccessLog, inner: Box<dyn BlockStore>) -> Self {
            Self { rank, log, inner }
        }

        fn record(&self, slot: usize) {
            self.log.lock()[self.rank].push(slot);
        }
    }

    impl BlockStore for TraceStore {
        fn len(&self) -> usize {
            self.inner.len()
        }

        fn take(&self, slot: usize) -> Result<CompressedBlock, SimError> {
            self.record(slot);
            self.inner.take(slot)
        }

        fn put(&self, slot: usize, blk: CompressedBlock) -> Result<(), SimError> {
            self.inner.put(slot, blk)
        }

        fn peek(&self, slot: usize) -> Result<CompressedBlock, SimError> {
            self.record(slot);
            self.inner.peek(slot)
        }

        fn fetch_many(&self, slots: &[usize]) -> Result<Vec<CompressedBlock>, SimError> {
            {
                let mut l = self.log.lock();
                l[self.rank].extend_from_slice(slots);
            }
            self.inner.fetch_many(slots)
        }

        // Plan windows are advisory: forwarded to the wrapped store but
        // *not* recorded in the access log.
        fn plan_accesses(&self, upcoming: &[usize]) {
            self.inner.plan_accesses(upcoming);
        }

        fn wants_plan(&self) -> bool {
            self.inner.wants_plan()
        }

        fn resident_bytes(&self) -> u64 {
            self.inner.resident_bytes()
        }

        fn compressed_bytes(&self) -> u64 {
            self.inner.compressed_bytes()
        }

        fn resident_cap(&self) -> Option<usize> {
            self.inner.resident_cap()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_compress::{CodecId, ErrorBound};
    use std::collections::HashSet;

    fn blk(fill: u8, len: usize) -> CompressedBlock {
        CompressedBlock {
            codec: CodecId::Qzstd,
            bound: ErrorBound::Lossless,
            bytes: (0..len)
                .map(|i| fill ^ (i as u8))
                .collect::<Vec<_>>()
                .into(),
        }
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("qcs-store-{name}-{}", std::process::id()));
        p
    }

    fn spill_store(name: &str, cap: usize, n: usize, metrics: &Metrics) -> SpillStore {
        let blocks = (0..n).map(|i| Some(blk(i as u8, 64 + i))).collect();
        SpillStore::create(&tmp_dir(name), "r0", cap, metrics.clone(), blocks).unwrap()
    }

    #[test]
    fn mem_store_round_trips_and_counts_bytes() {
        let s = MemStore::new(vec![Some(blk(1, 10)), Some(blk(2, 20))]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.resident_bytes(), 30);
        assert_eq!(s.compressed_bytes(), 30);
        assert_eq!(s.resident_cap(), None);
        let b = s.take(0).unwrap();
        assert_eq!(b.bytes[0], 1);
        assert_eq!(s.resident_bytes(), 20);
        s.put(0, b).unwrap();
        assert_eq!(s.peek(0).unwrap().len(), 10);
        assert_eq!(s.resident_bytes(), 30);
    }

    #[test]
    fn spill_store_enforces_residency_and_round_trips() {
        let metrics = Metrics::new();
        let n = 8;
        let s = spill_store("budget", 3, n, &metrics);
        // Only 3 of 8 blocks may stay hot; the rest were spilled at seed.
        assert_eq!(s.resident_cap(), Some(3));
        assert!(metrics.breakdown().spills >= (n - 3) as u64);
        assert!(s.resident_bytes() < s.compressed_bytes());
        // Every block comes back byte-identical, wherever it lives.
        for i in 0..n {
            let b = s.take(i).unwrap();
            let want = blk(i as u8, 64 + i);
            assert_eq!(&b.bytes[..], &want.bytes[..], "slot {i}");
            assert_eq!(b.codec, want.codec);
            assert_eq!(b.bound, want.bound);
            s.put(i, b).unwrap();
        }
        assert!(metrics.breakdown().fetches > 0);
        assert!(metrics.breakdown().fetch_bytes > 0);
        assert!(metrics.breakdown().spill_io.as_nanos() > 0);
    }

    #[test]
    fn spill_store_evicts_least_recently_touched() {
        // cap 2, 3 slots. Seeding puts 0, 1, 2 in order: inserting 2
        // overflows the budget and evicts slot 0 (oldest stamp), leaving
        // residents {1, 2}.
        let metrics = Metrics::new();
        let s = spill_store("lru", 2, 3, &metrics);
        assert_eq!(
            metrics.breakdown().spills,
            1,
            "seed must evict exactly slot 0"
        );
        // Touch slot 1 so slot 2 becomes the LRU resident, then cycle the
        // spilled slot 0 back in: the over-budget put must evict 2, not 1.
        s.peek(1).unwrap();
        let fetches_after_seed = metrics.breakdown().fetches;
        let b0 = s.take(0).unwrap(); // disk fetch
        assert_eq!(metrics.breakdown().fetches, fetches_after_seed + 1);
        s.put(0, b0).unwrap(); // residents must now be {0, 1}
                               // Slot 1 stayed resident: cycling it costs no fetch.
        let b1 = s.take(1).unwrap();
        s.put(1, b1).unwrap();
        assert_eq!(
            metrics.breakdown().fetches,
            fetches_after_seed + 1,
            "1 was hot"
        );
        // Slot 2 was the eviction victim: reading it goes to disk, and the
        // round-tripped bytes are intact.
        let b2 = s.peek(2).unwrap();
        assert_eq!(
            metrics.breakdown().fetches,
            fetches_after_seed + 2,
            "2 was cold"
        );
        assert_eq!(&b2.bytes[..], &blk(2, 66).bytes[..]);
    }

    #[test]
    fn spill_store_compacts_garbage() {
        let metrics = Metrics::new();
        let n = 6;
        let big = 96 * 1024; // big payloads so dead bytes accumulate fast
        let blocks = (0..n).map(|i| Some(blk(i as u8, big))).collect();
        let s = SpillStore::create(&tmp_dir("compact"), "r0", 2, metrics.clone(), blocks).unwrap();
        // Churn: every take+put of a cold block kills one frame and writes
        // another; dead bytes cross the 1 MiB floor quickly.
        for round in 0..10 {
            for i in 0..n {
                let b = s.take(i).unwrap();
                s.put(i, b).unwrap();
                let _ = round;
            }
        }
        let seg_len = std::fs::metadata(s.segment_path()).unwrap().len();
        let spilled = s.compressed_bytes() - s.resident_bytes();
        assert!(
            seg_len < 8 * spilled.max(1),
            "segment grew unbounded: {seg_len} bytes for {spilled} live spilled bytes"
        );
        // Blocks still intact after compaction cycles.
        for i in 0..n {
            assert_eq!(&s.peek(i).unwrap().bytes[..], &blk(i as u8, big).bytes[..]);
        }
    }

    #[test]
    fn fetch_many_round_trips_and_coalesces() {
        // cap 1, 8 blocks: slots 0..7 are almost all spilled, written in
        // eviction order, so a fetch of several of them exercises the
        // sorted, adjacency-coalesced read path.
        let metrics = Metrics::new();
        let n = 8usize;
        let s = spill_store("fetch-many", 1, n, &metrics);
        let slots: Vec<usize> = vec![5, 0, 3, 2, 1, 6];
        let blocks = s.fetch_many(&slots).unwrap();
        assert_eq!(blocks.len(), slots.len());
        for (b, &slot) in blocks.iter().zip(&slots) {
            let want = blk(slot as u8, 64 + slot);
            assert_eq!(&b.bytes[..], &want.bytes[..], "slot {slot}");
            assert_eq!(b.bound, want.bound);
        }
        for (&slot, b) in slots.iter().zip(blocks) {
            s.put(slot, b).unwrap();
        }
        let b = metrics.breakdown();
        assert!(b.fetches > 0);
        assert_eq!(b.prefetch_misses, b.fetches, "every fetch blocks");
        // MemStore honors the same contract through the default impl.
        let m = MemStore::new(vec![Some(blk(1, 10)), Some(blk(2, 20))]);
        m.plan_accesses(&[1, 0]); // default no-op
        let got = m.fetch_many(&[1, 0]).unwrap();
        assert_eq!(got[0].len(), 20);
        assert_eq!(got[1].len(), 10);
    }

    #[test]
    fn segment_dir_guard_survives_worker_panic() {
        // Satellite: a panicking worker thread must not leak spill files.
        let parent = tmp_dir("panic-guard");
        let guard = SegmentDirGuard::create(&parent).unwrap();
        let dir = guard.path().to_path_buf();
        assert!(dir.is_dir());
        let metrics = Metrics::new();
        let thread_guard = Arc::clone(&guard);
        let handle = std::thread::spawn(move || {
            let s = SpillStore::create_with(
                &dir,
                "r0",
                1,
                metrics,
                (0..4).map(|i| Some(blk(i as u8, 64))).collect(),
                SpillOptions {
                    dir_guard: Some(thread_guard),
                    ..Default::default()
                },
            )
            .unwrap();
            assert!(s.segment_path().exists());
            panic!("worker died mid-wave");
        });
        assert!(handle.join().is_err(), "the worker must have panicked");
        // The unwinding thread dropped its store (segment file gone); the
        // facade's guard clone is the last owner — dropping it removes
        // the directory tree itself.
        let dir = guard.path().to_path_buf();
        assert!(
            std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0) == 0,
            "segment files leaked after the worker panic"
        );
        drop(guard);
        assert!(!dir.exists(), "guard must remove the spill dir");
        let _ = std::fs::remove_dir_all(&parent);
    }

    #[test]
    fn compaction_under_churn_preserves_blocks_and_shrinks_segment() {
        // Satellite: sustained take/put churn must trigger dead-frame
        // compaction (observable as the segment file shrinking between
        // puts) while every live block round-trips byte-identically.
        let metrics = Metrics::new();
        let n = 6usize;
        let big = 192 * 1024; // large frames -> dead bytes pile up fast
        let blocks = (0..n).map(|i| Some(blk(i as u8, big))).collect();
        let s = SpillStore::create(&tmp_dir("churn"), "r0", 2, metrics.clone(), blocks).unwrap();
        let seg = s.segment_path().to_path_buf();
        let mut shrinks = 0u32;
        let mut prev_len = std::fs::metadata(&seg).unwrap().len();
        for _round in 0..8 {
            for i in 0..n {
                let b = s.take(i).unwrap();
                assert_eq!(&b.bytes[..], &blk(i as u8, big).bytes[..], "slot {i}");
                s.put(i, b).unwrap();
                let len = std::fs::metadata(&seg).unwrap().len();
                if len < prev_len {
                    shrinks += 1;
                }
                prev_len = len;
            }
        }
        assert!(
            shrinks > 0,
            "sustained churn never triggered a compaction shrink"
        );
        // After the churn, all blocks — resident and spilled — are intact.
        for i in 0..n {
            assert_eq!(&s.peek(i).unwrap().bytes[..], &blk(i as u8, big).bytes[..]);
        }
        // And the segment is bounded near the live spilled working set.
        let seg_len = std::fs::metadata(&seg).unwrap().len();
        let spilled = s.compressed_bytes() - s.resident_bytes();
        assert!(
            seg_len < 8 * spilled.max(1),
            "segment grew unbounded: {seg_len} bytes for {spilled} live spilled bytes"
        );
    }

    #[test]
    fn spill_store_removes_segment_on_drop() {
        let metrics = Metrics::new();
        let s = spill_store("drop", 1, 4, &metrics);
        let path = s.segment_path().to_path_buf();
        assert!(path.exists());
        drop(s);
        assert!(!path.exists());
    }

    #[test]
    fn spill_store_detects_segment_corruption() {
        let metrics = Metrics::new();
        let s = spill_store("corrupt", 1, 3, &metrics);
        // Slots 0 and 1 are spilled. Flip a byte mid-file.
        let path = s.segment_path().to_path_buf();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        // This invalidates the file the store already has open — reopen
        // semantics differ per OS, so corrupt through the same inode
        // instead: at least one of the spilled fetches must fail.
        let failures = (0..2).filter(|&i| s.peek(i).is_err()).count();
        assert!(failures >= 1, "corruption went unnoticed");

        // A lossy block of two segments at 1e-3, spilled: a flipped byte in
        // its second segment's body fails the fetch, because the frame
        // checksums the whole payload.
        let vals: Vec<f64> = (0..2048).map(|i| (i as f64 * 0.37).sin() * 1e-3).collect();
        let lossy = crate::block::BlockCodec::new(CodecId::SolutionC)
            .compress(&vals, ErrorBound::PointwiseRelative(1e-3))
            .unwrap();
        let blocks = vec![Some(lossy.clone()), Some(blk(1, 64))];
        let s = SpillStore::create(&tmp_dir("corrupt-lossy"), "r0", 1, metrics, blocks).unwrap();
        let path = s.segment_path().to_path_buf();
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes
            .windows(lossy.len())
            .position(|w| w == &lossy.bytes[..])
            .expect("slot 0 is spilled");
        let len0 = u32::from_le_bytes(lossy.bytes[12..16].try_into().unwrap()) as usize;
        bytes[at + 16 + len0 + 4 + 10] ^= 0x04; // inside segment 1's body
        std::fs::write(&path, &bytes).unwrap();
        match s.peek(0) {
            Err(e) => assert!(e.to_string().contains("checksum"), "{e}"),
            Ok(_) => panic!("a flipped body byte was fetched"),
        }
    }

    #[test]
    fn planned_min_prefers_furthest_next_use() {
        let mut p = Window::new(Eviction::PlannedMin);
        // Plan: 0 1 2 0 1. Residents (slot, stamp): 0, 1, 2 — slot 2 has
        // no use after its first, slot 0 recurs soonest.
        p.plan(&[0, 1, 2, 0, 1]);
        // Consume the first round so the window is the `0 1` tail.
        p.advance(0);
        p.advance(1);
        p.advance(2);
        let residents = [(0usize, 10u64), (1, 11), (2, 12)];
        // Slot 2 is never used again: the unique MIN victim.
        assert_eq!(p.victim(&residents), Some(2));
        // Without slot 2, slot 1's next use (pos 4) is after slot 0's
        // (pos 3).
        assert_eq!(p.victim(&residents[..2]), Some(1));
    }

    #[test]
    fn planned_min_empty_window_is_lru() {
        let mut p = Window::new(Eviction::PlannedMin);
        let residents = [(3usize, 7u64), (1, 2), (4, 9)];
        let lru = Window::new(Eviction::Lru).victim(&residents);
        assert_eq!(p.victim(&residents), lru);
        assert_eq!(p.victim(&residents), Some(1));
        // A fully consumed window degrades the same way.
        p.plan(&[3, 1]);
        p.advance(3);
        p.advance(1);
        assert_eq!(p.victim(&residents), Some(1));
    }

    #[test]
    fn an_lru_store_ignores_the_window() {
        // cap 2, 3 slots: seeding evicts slot 0, leaving residents 1 and
        // 2 (stamps 2 and 3). The window names 1 again and 2 never, so
        // when the put of 0 overflows the budget MIN evicts 2 while LRU
        // evicts 1, the least recently touched.
        let evicted = |eviction: Eviction| {
            let s = SpillStore::create_with(
                &tmp_dir(&format!("lru-window-{}", eviction.name())),
                "r0",
                2,
                Metrics::new(),
                (0..3).map(|i| Some(blk(i as u8, 64))).collect(),
                SpillOptions {
                    eviction,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(s.wants_plan(), eviction == Eviction::PlannedMin);
            s.plan_accesses(&[0, 1]);
            let b0 = s.take(0).unwrap();
            s.put(0, b0).unwrap();
            let inner = s.inner.lock();
            let spilled = |slot: usize| matches!(inner.slots[slot], Slot::Spilled { .. });
            (0..3).filter(|&slot| spilled(slot)).collect::<Vec<_>>()
        };
        assert_eq!(evicted(Eviction::PlannedMin), vec![2]);
        assert_eq!(evicted(Eviction::Lru), vec![1]);
    }

    /// Ground-truth next use of `slot` in `seq[from..]`.
    fn next_use_in(seq: &[usize], from: usize, slot: usize) -> Option<usize> {
        seq[from..].iter().position(|&s| s == slot)
    }

    proptest::proptest! {
        // Satellite: MIN optimality on the plan window. Replaying any
        // recorded access sequence against a `cap`-slot cache, the
        // policy never evicts a block that is re-touched before some
        // other resident block's next use.
        #[test]
        fn planned_min_is_optimal_on_recorded_traces(
            seq in proptest::collection::vec(0usize..8, 1..48),
            cap in 1usize..4,
        ) {
            let mut p = Window::new(Eviction::PlannedMin);
            p.plan(&seq);
            let mut residents: Vec<(usize, u64)> = Vec::new();
            let mut stamp = 0u64;
            for (t, &slot) in seq.iter().enumerate() {
                p.advance(slot);
                stamp += 1;
                if let Some(r) = residents.iter_mut().find(|r| r.0 == slot) {
                    r.1 = stamp;
                    continue;
                }
                if residents.len() == cap {
                    let v = p.victim(&residents).unwrap();
                    // None = never used again = usize::MAX distance.
                    let dist = |s: usize| {
                        next_use_in(&seq, t + 1, s).unwrap_or(usize::MAX)
                    };
                    for &(r, _) in &residents {
                        proptest::prop_assert!(
                            dist(v) >= dist(r),
                            "evicted slot {v} (next use {:?}) before slot {r} \
                             (next use {:?}) at step {t} of {seq:?}",
                            next_use_in(&seq, t + 1, v),
                            next_use_in(&seq, t + 1, r),
                        );
                    }
                    residents.retain(|r| r.0 != v);
                }
                residents.push((slot, stamp));
            }
        }

        // Satellite: with no plan window at all, MIN reproduces exact LRU
        // ordering on every resident set.
        #[test]
        fn planned_min_without_plan_degrades_to_lru(
            entries in proptest::collection::vec((0usize..64, 0u64..1_000), 1..12),
        ) {
            // Unique slots and stamps (pick_victim's contract).
            let mut seen = HashSet::new();
            let residents: Vec<(usize, u64)> = entries
                .into_iter()
                .enumerate()
                .filter(|(_, (slot, _))| seen.insert(*slot))
                .map(|(i, (slot, stamp))| (slot, stamp * 16 + i as u64))
                .collect();
            let mut p = Window::new(Eviction::PlannedMin);
            proptest::prop_assert_eq!(
                p.victim(&residents),
                Window::new(Eviction::Lru).victim(&residents)
            );
        }
    }

    /// The spill and fetch counters of one store, in a fixed order.
    fn io_counters(m: &Metrics) -> [u64; 8] {
        let b = m.breakdown();
        [
            b.spills,
            b.spill_bytes,
            b.fetches,
            b.fetch_bytes,
            b.prefetch_hits,
            b.prefetch_misses,
            b.blocking_fetch_bytes,
            b.overlapped_fetch_bytes,
        ]
    }

    #[test]
    fn one_op_sequence_reads_the_same_on_every_write_path_and_shard_count() {
        // One seeded put/take/fetch_many/peek/flush sequence through the
        // one write path, at the two shard counts a store accepts: 0 (the
        // options' default) and 1.
        let run = |shards: usize| {
            let metrics = Metrics::new();
            let n = 12usize;
            let s = SpillStore::create_with(
                &tmp_dir(&format!("merge-{shards}")),
                "r0",
                3,
                metrics.clone(),
                (0..n).map(|i| Some(blk(i as u8, 64 + 7 * i))).collect(),
                SpillOptions {
                    shards,
                    ..Default::default()
                },
            )
            .unwrap();
            let put = |slot: usize, b: CompressedBlock| s.put(slot, b).unwrap();
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            let mut next = move |m: usize| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % m as u64) as usize
            };
            let mut seen: Vec<Vec<u8>> = Vec::new();
            for step in 0..240 {
                match next(5) {
                    0 => {
                        let slot = next(n);
                        let b = s.take(slot).unwrap();
                        seen.push(b.bytes.to_vec());
                        put(slot, b);
                    }
                    1 => {
                        let first = next(n);
                        let slots = [first, (first + 5) % n, (first + 7) % n];
                        let blocks = s.fetch_many(&slots).unwrap();
                        seen.extend(blocks.iter().map(|b| b.bytes.to_vec()));
                        for (&slot, b) in slots.iter().zip(blocks).rev() {
                            put(slot, b);
                        }
                    }
                    2 => seen.push(s.peek(next(n)).unwrap().bytes.to_vec()),
                    3 => s.flush().unwrap(),
                    _ => {
                        // A new block of another length: later frames move.
                        let slot = next(n);
                        let _ = s.take(slot).unwrap();
                        put(slot, blk(step as u8, 40 + next(90)));
                    }
                }
            }
            for slot in 0..n {
                seen.push(s.peek(slot).unwrap().bytes.to_vec());
            }
            (seen, io_counters(&metrics))
        };
        let (blocks, counters) = run(1);
        assert!(counters[0] > 0 && counters[2] > 0, "{counters:?}");
        let (b, c) = run(0);
        assert!(b == blocks, "shards=0: blocks differ");
        assert_eq!(c, counters, "shards=0");
    }

    #[test]
    fn a_spilled_take_is_accounted_as_a_one_slot_fetch_many() {
        let read = |fetch: fn(&SpillStore) -> CompressedBlock| {
            let metrics = Metrics::new();
            let s = spill_store("take-vs-fetch", 2, 4, &metrics);
            let before = io_counters(&metrics);
            let b = fetch(&s);
            let after = io_counters(&metrics);
            (
                b.bytes.to_vec(),
                std::array::from_fn::<u64, 8, _>(|i| after[i] - before[i]),
            )
        };
        // Seeding 4 blocks under a budget of 2 spills slots 0 and 1.
        let took = read(|s| s.take(0).unwrap());
        let fetched = read(|s| s.fetch_many(&[0]).unwrap().remove(0));
        assert_eq!(took, fetched);
        assert_eq!(took.1[2], 1, "one blocking fetch: {:?}", took.1);
    }

    #[test]
    fn a_failed_eviction_write_keeps_the_victim_resident_and_adopts_no_frame() {
        // cap 2, 3 slots: seeding spills slot 0 and keeps 1 and 2.
        let metrics = Metrics::new();
        let s = spill_store("write-fault", 2, 3, &metrics);
        let segment = |s: &SpillStore| {
            let inner = s.inner.lock();
            (inner.end, inner.live, inner.dead)
        };
        let b0 = s.take(0).unwrap();
        let before = segment(&s);
        let spills = metrics.breakdown().spills;
        s.debug_set_write_fault(true);
        // The put overflows the budget, and the LRU victim's write fails.
        match s.put(0, b0) {
            Err(SimError::Spill(msg)) => assert!(msg.contains("injected"), "{msg}"),
            other => panic!("a failed eviction write returned {other:?}"),
        }
        assert_eq!(segment(&s), before, "no frame adopted");
        assert_eq!(metrics.breakdown().spills, spills);
        // Every block is still in memory with its exact bytes: the victim
        // (slot 1) through peek and take, the others through peek.
        for slot in 0..3 {
            let want = blk(slot as u8, 64 + slot);
            assert_eq!(&s.peek(slot).unwrap().bytes[..], &want.bytes[..]);
        }
        let b1 = s.take(1).unwrap();
        assert_eq!(&b1.bytes[..], &blk(1, 65).bytes[..]);
        assert_eq!(segment(&s), before, "the victim was never spilled");
        // Cleared, the next put evicts through the same path and the
        // spilled frame round-trips.
        s.debug_set_write_fault(false);
        s.put(1, b1).unwrap();
        assert_eq!(metrics.breakdown().spills, spills + 1);
        let (end, live, dead) = segment(&s);
        assert!(end > before.0 && live > before.1 && dead == before.2);
        for slot in 0..3 {
            let b = s.take(slot).unwrap();
            assert_eq!(&b.bytes[..], &blk(slot as u8, 64 + slot).bytes[..]);
            s.put(slot, b).unwrap();
        }
    }
}
