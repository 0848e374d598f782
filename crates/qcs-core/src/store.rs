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
//! window's cursor past it, and both users of the future read the slots
//! after the cursor. A prefetching [`SpillStore`] stages the spilled ones
//! among the next residency budget of them on a background fetch thread,
//! so the next chunk's disk reads overlap the current chunk's compute.
//! The window is one wave: its last chunk stages nothing, so a wave
//! boundary holds no staged block. [`Eviction::PlannedMin`] evicts the
//! resident block whose next planned use in the window is furthest away
//! (Belady's MIN — exact within a wave, because the wave's slot order is
//! known before it runs).
//! Every method takes `&self`: stores are internally locked so read-only
//! collectives can run against `&RankWorker` exactly as before.
//!
//! # One way in, one way out
//!
//! Every eviction parks its victim in a *dirty buffer* (still served from
//! memory, still counted against residency accounting), and one run
//! writer, `write_run`, drains it: it claims a run of queued dirty blocks
//! and the run's exact byte extent of the segment under the lock, encodes
//! the run into one recycled buffer, lands it with one positional write
//! outside the lock, and commits each frame by generation. With
//! [`SpillOptions::write_behind`] on, one background writer thread calls
//! it off the critical path. The evicting thread calls it inline when
//! write-behind is off (a synchronous eviction is a run of one), when the
//! writer is gone, and when a barrier or a full buffer must drain.
//! [`SpillStore::flush`] is the barrier that makes every dirty block
//! durable; it runs before compaction and on drop, and it (or the next
//! `take`) surfaces any deferred write error instead of dropping it.
//!
//! Every read of a segment goes through `read_frame_runs`, which sorts
//! frames by offset and serves segment-adjacent ones with one positional
//! read: `fetch_many` and the background fetcher call it directly,
//! [`BlockStore::take`] is a one-slot `fetch_many`, and `peek` and
//! compaction read through it too.
//!
//! # Segment-file layout and compaction
//!
//! A [`SpillStore`] appends each run as consecutive frames to its one
//! segment file and remembers `(offset, length)` per slot. A block
//! fetched back leaves its old frame behind as garbage; when the
//! segment's dead bytes exceed both [`COMPACT_MIN_DEAD_BYTES`] and twice
//! its live bytes, the store rewrites the live frames, in slot order,
//! into a fresh segment and atomically renames it over the old one,
//! bounding disk usage at ~3× the live spilled working set. Fetches
//! verify the frame checksum, so torn writes and bit rot surface as
//! [`SimError::Spill`] instead of corrupt amplitudes.
//!
//! Spill/fetch counts, bytes, and I/O time are recorded into the shared
//! [`Metrics`]: critical-path reads and inline runs under
//! `Phase::SpillIo` (prefetch misses, blocking bytes, synchronous
//! spills), background reads under `Phase::Prefetch` (hits, overlapped
//! bytes), writer-thread runs under `Phase::WriteBehind` — all surfaced
//! through `SimReport`.
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
use std::collections::{HashMap, HashSet, VecDeque};
use std::fs::File;
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard};
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
    /// next (one wave's), replacing any previous window. Purely advisory: a spill tier
    /// stages along it and MIN picks victims by it (see the module docs);
    /// every other store ignores it.
    fn plan_accesses(&self, upcoming: &[usize]) {
        let _ = upcoming;
    }

    /// True when the store reads [`BlockStore::plan_accesses`] windows —
    /// a spill tier that prefetches or evicts by MIN — so callers skip
    /// building a window nobody reads.
    fn wants_plan(&self) -> bool {
        false
    }

    /// Barrier: make every pending background write durable and surface
    /// any deferred write error. A write-behind spill tier drains its
    /// dirty buffer; stores without one return immediately.
    fn flush(&self) -> Result<(), SimError> {
        Ok(())
    }

    /// Compressed bytes currently resident in memory.
    fn resident_bytes(&self) -> u64;

    /// The deterministic subset of [`BlockStore::resident_bytes`]: bytes
    /// held by foreground-managed residents only, excluding buffers that
    /// background threads fill and drain (prefetch staging, write-behind
    /// dirty blocks), whose occupancy at any sample point is
    /// timing-dependent. The engine keys its adaptive-ladder escalation
    /// on this quantity so escalation — and therefore the simulated
    /// amplitudes — stay reproducible run-to-run; honest peak-footprint
    /// reporting uses `resident_bytes`.
    fn hot_bytes(&self) -> u64 {
        self.resident_bytes()
    }

    /// Compressed bytes of all blocks, resident plus spilled.
    fn compressed_bytes(&self) -> u64;

    /// Residency budget in blocks; `None` means everything stays resident.
    /// Workers use this to bound how many blocks they hold in flight at
    /// once during a wave.
    fn resident_cap(&self) -> Option<usize>;
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
/// // Belady's MIN over each wave's exact slot order, with eviction
/// // writes drained off the critical path by the write-behind thread.
/// let cfg = SimConfig::default()
///     .with_spill(4)
///     .with_eviction(Eviction::PlannedMin)
///     .with_write_behind(true);
/// let spill = cfg.spill.as_ref().unwrap();
/// assert_eq!(spill.eviction, Eviction::PlannedMin);
/// assert!(spill.write_behind);
///
/// // The default spill tier keeps the classic LRU, synchronous writes.
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
/// (a snapshot or checkpoint read) leaves it where it is. The prefetcher
/// stages along the slots after the cursor, and MIN ranks residents by
/// their next position among them: blocks the window never names again
/// are the best victims, and among those (an empty or consumed window
/// included) the choice is exact LRU order.
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

    /// Consume `slot`: move the cursor past its next planned use. True
    /// when it had one — a planned consumption.
    fn advance(&mut self, slot: usize) -> bool {
        let next = self.slots[self.cursor..].iter().position(|&s| s == slot);
        next.map(|d| self.cursor += d + 1).is_some()
    }

    /// The next `n` planned slots past the cursor.
    fn ahead(&self, n: usize) -> &[usize] {
        &self.slots[self.cursor..self.slots.len().min(self.cursor + n)]
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
/// geometry: the eviction policy, the asynchronous pipelines to run
/// (prefetch, write-behind), and an optional shared [`SegmentDirGuard`]
/// for panic-safe cleanup.
#[derive(Debug, Default, Clone)]
pub struct SpillOptions {
    /// Spawn the store's background fetch thread and stage along the
    /// [`BlockStore::plan_accesses`] window after every planned
    /// consumption (off: every spilled fetch blocks, the pre-pipeline
    /// behavior).
    pub prefetch: bool,
    /// Directory guard keeping the segment dir alive until the last store
    /// (or the facade) drops, then removing the whole tree.
    pub dir_guard: Option<Arc<SegmentDirGuard>>,
    /// Victim selection for the residency budget ([`Eviction::Lru`] by
    /// default; [`Eviction::PlannedMin`] ranks residents by the
    /// [`BlockStore::plan_accesses`] window).
    pub eviction: Eviction,
    /// Spawn the store's background writer thread: evictions enqueue
    /// into a bounded dirty buffer and return immediately, the writer
    /// drains coalesced runs to the segment file (off: the evicting
    /// thread writes each victim itself, a run of one, on the critical
    /// path).
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
    /// Evicted into the dirty buffer: still served from memory while a
    /// run writes its frame. `gen` (a clock stamp) guards the commit — a block re-taken, re-put, and re-evicted while
    /// its old frame was in flight gets a higher generation, so the stale
    /// frame is discarded as dead bytes instead of adopted.
    Dirty { blk: CompressedBlock, gen: u64 },
    /// Cold: one frame in the segment file.
    Spilled {
        offset: u64,
        frame_len: u32,
        payload_len: u32,
    },
}

/// Test-only fault plan for the writer thread: makes its runs fail (a
/// deferred [`SimError::Spill`] surfaced by the next `take`/`flush`) or
/// panic (exercising the panic-safety backstops). Inline runs ignore it.
#[derive(Debug, Default, Clone)]
struct WriteFault {
    fail: bool,
    panic: bool,
}

#[derive(Debug)]
struct SpillInner {
    /// The segment file of checksummed frames. Shared, so a run or a
    /// prefetch job can address it outside the lock; compaction swaps in
    /// a new one, and holders of the old handle keep reading the old
    /// inode.
    file: Arc<File>,
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
    /// Blocks the background fetcher decoded ahead of need: the staging
    /// half of the double buffer, bounded (together with `pending`) by
    /// the residency budget. Entries are one-shot — consumed by the next
    /// `take`/`peek`/`fetch_many` of the slot and invalidated by `put`.
    staged: HashMap<usize, CompressedBlock>,
    /// Compressed bytes held in `staged` (part of residency accounting).
    staged_bytes: u64,
    /// Slots whose frames the background fetcher is currently reading.
    /// Foreground fetches of a pending slot wait on `Shared::resolved`
    /// instead of issuing a duplicate read.
    pending: HashSet<usize>,
    /// Prefetch jobs awaiting the fetcher thread.
    fetch_jobs: VecDeque<FetchJob>,
    /// The announced access window: victims for `evict_over_cap` and
    /// the slots `stage_ahead` stages.
    window: Window,
    /// Slots awaiting their write-behind append, in eviction order.
    dirty_queue: VecDeque<usize>,
    /// Compressed bytes held in the dirty buffer.
    dirty_bytes: u64,
    /// Runs claimed and not yet committed or aborted, by the writer
    /// thread or inline (defers compaction and flush completion while
    /// non-zero).
    runs_in_flight: usize,
    /// The writer thread is running; once it is not (normal exit or
    /// panic), evictions and barriers drain inline.
    writer_alive: bool,
    /// Set by drop: background threads finish their backlog and exit.
    shutdown: bool,
    /// First write-behind failure not yet surfaced; the next `take` or
    /// `flush` returns it instead of silently dropping it.
    write_error: Option<String>,
    /// Longest run (the residency budget): bounds a run's encode buffer
    /// to one budget of frames.
    run_cap: usize,
    /// Test-only fault injection for the writer thread.
    fault: WriteFault,
    /// Recycled run buffer: a run takes it, encodes into it and lands
    /// with a single positional write, then puts it back. A second run
    /// claimed while one is out takes an empty one.
    run_buf: Vec<u8>,
}

/// State shared between a [`SpillStore`] and its background I/O threads.
#[derive(Debug)]
struct Shared {
    inner: StdMutex<SpillInner>,
    /// Signaled whenever pending prefetches resolve (staged or failed)
    /// or a writer commits/aborts a run.
    resolved: Condvar,
    /// Wakes the fetcher thread when `fetch_jobs` gains work (or shutdown).
    fetch_work: Condvar,
    /// Wakes the writer thread when `dirty_queue` gains work (or shutdown).
    write_work: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, SpillInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// One unit of background-fetcher work: whole frames to read, coalesce,
/// and stage as blocks, as `(slot, offset, frame_len)`. The handle is the
/// segment file *at snapshot time*, so reads stay valid even if a
/// compaction renames a fresh segment over the path mid-flight (the
/// handle still addresses the old inode, whose live frames are
/// untouched).
#[derive(Debug)]
struct FetchJob {
    file: Arc<File>,
    reads: Vec<(usize, u64, u32)>,
}

/// The out-of-core tier: at most `cap` hot blocks resident (the victim
/// of an overflow chosen per the store's [`Eviction`]), the rest
/// spilled to one segment file of checksummed frames, deleted on drop.
///
/// # The prefetch pipeline
///
/// With [`SpillOptions::prefetch`] on, the store runs a background fetch
/// thread. After every planned consumption it snapshots the spilled
/// frames among the next residency budget of window slots (marking them
/// *pending*) and hands the snapshot to the thread, which reads them —
/// adjacent frames coalesced into single reads — and parks the decoded
/// blocks in a *staging* buffer.
/// Staging plus pending never exceed the residency budget, so the store's
/// memory ceiling is at most double-buffered: one budget of residents,
/// one of staged next-chunk blocks. A later `take`/`fetch_many` of a
/// staged slot consumes the staged block without touching disk (a
/// *prefetch hit*, its bytes counted as overlapped I/O); a fetch of a
/// slot still pending waits for the in-flight background read rather
/// than issuing a duplicate one — and because the wave stalled, that
/// consumption is accounted as a *blocking* fetch even though the bytes
/// came through the fetcher. Everything else is a blocking fetch,
/// exactly as without the pipeline.
///
/// Each pipeline is one thread. Every run — the writer's or an inline
/// one — claims its exact byte extent of the segment under the lock,
/// then lands with a positional write outside it, so concurrent runs
/// never overlap.
pub struct SpillStore {
    cap: usize,
    path: PathBuf,
    metrics: Metrics,
    shared: Arc<Shared>,
    /// True when the background fetch pipeline is on (fetcher spawned).
    prefetch_on: bool,
    /// True when the write-behind pipeline is on (writer spawned).
    write_behind: bool,
    /// Background fetcher and writer thread, joined on drop.
    io_threads: Vec<std::thread::JoinHandle<()>>,
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
    /// one simulation. Prefetching is off; use [`SpillStore::create_with`]
    /// to enable it or to attach a directory guard.
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
        let shared = Arc::new(Shared {
            inner: StdMutex::new(SpillInner {
                file: Arc::new(file),
                end: 0,
                live: 0,
                dead: 0,
                slots: blocks.iter().map(|_| Slot::InFlight).collect(),
                clock: 0,
                resident_count: 0,
                resident_bytes: 0,
                spilled_payload_bytes: 0,
                staged: HashMap::new(),
                staged_bytes: 0,
                pending: HashSet::new(),
                fetch_jobs: VecDeque::new(),
                window: Window::new(opts.eviction),
                dirty_queue: VecDeque::new(),
                dirty_bytes: 0,
                runs_in_flight: 0,
                writer_alive: false,
                shutdown: false,
                write_error: None,
                run_cap: cap.max(1),
                fault: WriteFault::default(),
                run_buf: Vec::new(),
            }),
            resolved: Condvar::new(),
            fetch_work: Condvar::new(),
            write_work: Condvar::new(),
        });
        let mut io_threads = Vec::new();
        if opts.prefetch {
            let handle = std::thread::Builder::new()
                .name(format!("qcs-prefetch-{label}"))
                .spawn({
                    let shared = Arc::clone(&shared);
                    let metrics = metrics.clone();
                    move || run_fetcher(&shared, &metrics)
                })
                .map_err(|e| io_err("spawn prefetch thread", e))?;
            io_threads.push(handle);
        }
        if opts.write_behind {
            shared.lock().writer_alive = true;
            let handle = std::thread::Builder::new()
                .name(format!("qcs-writer-{label}"))
                .spawn({
                    let shared = Arc::clone(&shared);
                    let metrics = metrics.clone();
                    move || run_writer(&shared, &metrics)
                })
                .map_err(|e| io_err("spawn write-behind thread", e))?;
            io_threads.push(handle);
        }
        let store = Self {
            cap: cap.max(1),
            path,
            metrics,
            shared,
            prefetch_on: opts.prefetch,
            write_behind: opts.write_behind,
            io_threads,
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

    /// Block the calling thread until no slot in `slots` has an in-flight
    /// background read, charging the (critical-path) wait to `SpillIo`.
    ///
    /// Returns the requested slots that were still pending on arrival:
    /// their staged blocks were *waited for*, not overlapped, so the
    /// consumers account them as blocking fetches — keeping the hit/miss
    /// counters aligned with the time accounting (a fetch only counts as
    /// a prefetch hit when the wave never stalled for it).
    fn wait_pending<'a>(
        &self,
        mut inner: MutexGuard<'a, SpillInner>,
        slots: &[usize],
    ) -> (MutexGuard<'a, SpillInner>, Vec<usize>) {
        let waited: Vec<usize> = slots
            .iter()
            .copied()
            .filter(|s| inner.pending.contains(s))
            .collect();
        if waited.is_empty() {
            return (inner, waited);
        }
        let t = Instant::now();
        while slots.iter().any(|s| inner.pending.contains(s)) {
            inner = self
                .shared
                .resolved
                .wait(inner)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        self.metrics.add(Phase::SpillIo, t.elapsed());
        (inner, waited)
    }

    /// Test-only: park until the background fetcher has resolved every
    /// pending prefetch, so staged consumption is deterministic.
    #[cfg(test)]
    pub(crate) fn debug_wait_staged(&self) {
        let mut inner = self.shared.lock();
        while !inner.pending.is_empty() {
            inner = self
                .shared
                .resolved
                .wait(inner)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Path of the segment file (exposed for tests and diagnostics).
    pub fn segment_path(&self) -> &Path {
        &self.path
    }

    /// Evict [`Window::victim`]s until the budget holds. Each victim
    /// parks in the dirty buffer. With write-behind on and the writer
    /// alive, it drains the buffer off the critical path; past a residency
    /// budget of dirty blocks the put waits for it (backpressure).
    /// Otherwise — write-behind off, the writer gone, or the buffer still
    /// full because the writer is parked on a deferred error — it drains on
    /// this thread through the same run writer, so a synchronous eviction
    /// is a run of one.
    fn evict_over_cap<'a>(
        &'a self,
        mut inner: MutexGuard<'a, SpillInner>,
    ) -> Result<MutexGuard<'a, SpillInner>, SimError> {
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
            let blk = match std::mem::replace(&mut inner.slots[victim], Slot::InFlight) {
                Slot::Resident { blk, .. } => blk,
                _ => unreachable!("victim is resident"),
            };
            inner.resident_count -= 1;
            inner.resident_bytes -= blk.len() as u64;
            let gen = inner.clock;
            inner.dirty_bytes += blk.len() as u64;
            inner.slots[victim] = Slot::Dirty { blk, gen };
            inner.dirty_queue.push_back(victim);
            if self.write_behind && inner.writer_alive {
                self.shared.write_work.notify_one();
                if inner.dirty_queue.len() <= self.cap {
                    continue;
                }
                // The wait (rare — the writer usually keeps up) is
                // critical-path spill time. A writer parked on a deferred
                // error never drains, so waiting on it would deadlock.
                let t = Instant::now();
                while inner.dirty_queue.len() > self.cap
                    && inner.writer_alive
                    && inner.write_error.is_none()
                {
                    inner = self
                        .shared
                        .resolved
                        .wait(inner)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                self.metrics.add(Phase::SpillIo, t.elapsed());
                if inner.dirty_queue.len() <= self.cap {
                    continue;
                }
            }
            // A deferred error still surfaces on the next
            // take/fetch_many/flush.
            inner = self.drain_inline(inner)?;
        }
        Ok(inner)
    }

    /// Drain the whole dirty buffer on the calling thread, one run at a
    /// time, charged to the critical path.
    fn drain_inline<'a>(
        &'a self,
        mut inner: MutexGuard<'a, SpillInner>,
    ) -> Result<MutexGuard<'a, SpillInner>, SimError> {
        while !inner.dirty_queue.is_empty() {
            let (guard, result) = write_run(&self.shared, &self.metrics, inner, true);
            inner = guard;
            self.shared.resolved.notify_all();
            result.map_err(SimError::Spill)?;
        }
        Ok(inner)
    }

    /// Consume `slot`'s staged copy, if the fetcher staged one: a prefetch
    /// hit, or a blocking fetch when the wave `waited` for the background
    /// read.
    fn take_staged(
        &self,
        inner: &mut SpillInner,
        slot: usize,
        frame_len: u32,
        waited: bool,
    ) -> Option<CompressedBlock> {
        let blk = inner.staged.remove(&slot)?;
        inner.staged_bytes -= blk.len() as u64;
        if waited {
            self.metrics.add_fetch_blocking(frame_len as u64);
        } else {
            self.metrics.add_fetch_overlapped(frame_len as u64);
        }
        Some(blk)
    }

    /// After a planned consumption: reserve the spilled frames among the
    /// next residency budget of window slots, within the staging budget,
    /// and hand them to the background fetcher as one job. No-op when
    /// prefetching is off.
    fn stage_ahead(&self) {
        if !self.prefetch_on {
            return;
        }
        let mut inner = self.shared.lock();
        // (slot, offset, frame_len) picks within the staging budget.
        let mut reads: Vec<(usize, u64, u32)> = Vec::new();
        for &slot in inner.window.ahead(self.cap) {
            if inner.staged.len() + inner.pending.len() + reads.len() >= self.cap {
                break;
            }
            if inner.staged.contains_key(&slot)
                || inner.pending.contains(&slot)
                || reads.iter().any(|r| r.0 == slot)
            {
                continue;
            }
            if let Slot::Spilled {
                offset, frame_len, ..
            } = inner.slots[slot]
            {
                reads.push((slot, offset, frame_len));
            }
        }
        if reads.is_empty() {
            return;
        }
        // Snapshot the handle under the same lock as the offsets: a later
        // compaction swaps in a new segment file, but this clone keeps
        // addressing the inode the offsets were taken from.
        let file = Arc::clone(&inner.file);
        inner.pending.extend(reads.iter().map(|r| r.0));
        inner.fetch_jobs.push_back(FetchJob { file, reads });
        drop(inner);
        self.shared.fetch_work.notify_one();
    }

    /// Read spilled frames on the critical path through
    /// [`read_frame_runs`], charged to `SpillIo`, each counted as a
    /// blocking fetch. `reads` entries are `(key, offset, frame_len)`.
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
    /// Deferred while the dirty buffer is non-empty or a run is in flight
    /// (so compaction only ever observes durable frames); a later put
    /// retries once the writer catches up. The in-memory index is only
    /// repointed *after* the new segment is fully written, synced, and
    /// renamed over the old one: a mid-compaction I/O failure (out of
    /// disk, torn write) leaves the store untouched on the old segment,
    /// and the orphaned `.tmp` is removed.
    fn maybe_compact(&self, inner: &mut SpillInner) -> Result<(), SimError> {
        if !inner.dirty_queue.is_empty()
            || inner.runs_in_flight > 0
            || inner.dead < COMPACT_MIN_DEAD_BYTES
            || inner.dead < 2 * inner.live
        {
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
        let file = Arc::clone(&inner.file);
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
        let batch = inner.run_cap;
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
            for chunk in live.chunks_mut(batch) {
                let mut blocks = read_frame_runs(&file, chunk);
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
        inner.file = Arc::new(tmp);
        inner.end = new_end;
        inner.live = new_end;
        inner.dead = 0;
        self.metrics.add(Phase::SpillIo, t.elapsed());
        Ok(())
    }

    /// Barrier: block until every dirty block is durable in the segment,
    /// surfacing any deferred write-behind error. A live writer drains
    /// first (the wait is critical-path spill time); whatever is left —
    /// write-behind off, the writer gone (a writer panic included), or
    /// the writer parked on an error — drains on this thread
    /// through the same run writer.
    pub fn flush_dirty(&self) -> Result<(), SimError> {
        let mut inner = self.shared.lock();
        if self.write_behind && inner.writer_alive {
            self.shared.write_work.notify_all();
            let t = Instant::now();
            while (!inner.dirty_queue.is_empty() || inner.runs_in_flight > 0)
                && inner.writer_alive
                && inner.write_error.is_none()
            {
                inner = self
                    .shared
                    .resolved
                    .wait(inner)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            self.metrics.add(Phase::SpillIo, t.elapsed());
        }
        let mut inner = self.drain_inline(inner)?;
        if let Some(e) = inner.write_error.take() {
            return Err(SimError::Spill(e));
        }
        Ok(())
    }

    /// Test-only: arm the write-behind fault plan — the writer's next
    /// drain fails (`fail`) or panics (`panic`).
    #[cfg(test)]
    pub(crate) fn debug_set_write_fault(&self, fail: bool, panic: bool) {
        self.shared.lock().fault = WriteFault { fail, panic };
    }

    /// Test-only: count of blocks currently parked in the dirty buffer.
    #[cfg(test)]
    pub(crate) fn debug_dirty_len(&self) -> usize {
        self.shared.lock().dirty_queue.len()
    }

    /// Test-only: park until the writer thread has drained the dirty
    /// buffer (or died, or stopped on a deferred error), so write-behind
    /// observations are deterministic.
    #[cfg(test)]
    pub(crate) fn debug_wait_written(&self) {
        let mut inner = self.shared.lock();
        while (!inner.dirty_queue.is_empty() || inner.runs_in_flight > 0)
            && inner.writer_alive
            && inner.write_error.is_none()
        {
            inner = self
                .shared
                .resolved
                .wait(inner)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

impl BlockStore for SpillStore {
    fn len(&self) -> usize {
        self.shared.lock().slots.len()
    }

    /// A one-slot [`BlockStore::fetch_many`]: one read path, one
    /// accounting.
    fn take(&self, slot: usize) -> Result<CompressedBlock, SimError> {
        Ok(self.fetch_many(&[slot])?.remove(0))
    }

    fn put(&self, slot: usize, blk: CompressedBlock) -> Result<(), SimError> {
        let mut inner = self.shared.lock();
        debug_assert!(
            matches!(inner.slots[slot], Slot::InFlight),
            "slot {slot} already occupied"
        );
        // A staged copy (if any survived an aborted wave) is now stale.
        if let Some(stale) = inner.staged.remove(&slot) {
            inner.staged_bytes -= stale.len() as u64;
        }
        inner.clock += 1;
        let stamp = inner.clock;
        inner.resident_count += 1;
        inner.resident_bytes += blk.len() as u64;
        inner.slots[slot] = Slot::Resident { blk, stamp };
        let mut inner = self.evict_over_cap(inner)?;
        self.maybe_compact(&mut inner)
    }

    fn peek(&self, slot: usize) -> Result<CompressedBlock, SimError> {
        let inner = self.shared.lock();
        let (mut inner, waited) = self.wait_pending(inner, &[slot]);
        let planned = inner.window.advance(slot);
        inner.clock += 1;
        let stamp = inner.clock;
        let blk = match &mut inner.slots[slot] {
            Slot::Resident {
                blk,
                stamp: last_used,
            } => {
                *last_used = stamp;
                Ok(blk.clone())
            }
            // Dirty blocks are still in memory: peek serves the copy and
            // leaves the write-behind queue untouched.
            Slot::Dirty { blk, .. } => Ok(blk.clone()),
            &mut Slot::Spilled {
                offset, frame_len, ..
            } => {
                // Staging is a one-shot buffer: consuming on peek keeps
                // its occupancy bounded by what is still ahead of the
                // wave, at the cost of re-reading on a later fetch.
                match self.take_staged(&mut inner, slot, frame_len, !waited.is_empty()) {
                    Some(blk) => Ok(blk),
                    None => {
                        let read = &mut [((), offset, frame_len)];
                        self.read_blocking(&inner, read).remove(0).1
                    }
                }
            }
            Slot::InFlight => panic!("peek at in-flight slot {slot}"),
        };
        drop(inner);
        if planned {
            self.stage_ahead();
        }
        blk
    }

    /// Take a whole chunk at once: resident and staged blocks come out of
    /// memory, and the remaining spilled frames are read through
    /// `read_frame_runs` — adjacent frames are served by one contiguous
    /// read instead of a read per block.
    fn fetch_many(&self, slots: &[usize]) -> Result<Vec<CompressedBlock>, SimError> {
        let inner = self.shared.lock();
        let (mut inner, waited) = self.wait_pending(inner, slots);
        // A deferred write-behind failure surfaces on the next fetch
        // rather than being silently dropped (the failed blocks are still
        // safe in the dirty buffer).
        if let Some(e) = inner.write_error.take() {
            return Err(SimError::Spill(e));
        }
        let mut planned = false;
        for &slot in slots {
            planned |= inner.window.advance(slot);
        }
        let mut out: Vec<Option<CompressedBlock>> = slots.iter().map(|_| None).collect();
        // (result index, offset, frame_len): the blocking reads.
        let mut reads: Vec<(usize, u64, u32)> = Vec::new();
        for (i, &slot) in slots.iter().enumerate() {
            match std::mem::replace(&mut inner.slots[slot], Slot::InFlight) {
                Slot::Resident { blk, .. } => {
                    inner.resident_count -= 1;
                    inner.resident_bytes -= blk.len() as u64;
                    out[i] = Some(blk);
                }
                Slot::Dirty { blk, .. } => {
                    // Still in the dirty buffer: served from memory. Any
                    // frame a run is writing for it turns into dead bytes
                    // at commit (the generation no longer matches).
                    inner.dirty_bytes -= blk.len() as u64;
                    inner.dirty_queue.retain(|&s| s != slot);
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
                    match self.take_staged(&mut inner, slot, frame_len, waited.contains(&slot)) {
                        Some(blk) => out[i] = Some(blk),
                        None => reads.push((i, offset, frame_len)),
                    }
                }
                Slot::InFlight => panic!("slot {slot} taken twice"),
            }
        }
        for (i, blk) in self.read_blocking(&inner, &mut reads) {
            out[i] = Some(blk?);
        }
        drop(inner);
        if planned {
            self.stage_ahead();
        }
        Ok(out
            .into_iter()
            .map(|b| b.expect("every requested slot fetched"))
            .collect())
    }

    fn plan_accesses(&self, upcoming: &[usize]) {
        self.shared.lock().window.plan(upcoming);
    }

    fn wants_plan(&self) -> bool {
        self.prefetch_on || self.eviction == Eviction::PlannedMin
    }

    fn flush(&self) -> Result<(), SimError> {
        self.flush_dirty()
    }

    /// Compressed bytes held in memory: residents plus the prefetch
    /// staging buffer plus the write-behind dirty buffer — the honest
    /// memory footprint of the tier (each buffer is bounded by one
    /// residency budget).
    fn resident_bytes(&self) -> u64 {
        let inner = self.shared.lock();
        inner.resident_bytes + inner.staged_bytes + inner.dirty_bytes
    }

    /// Residents only: staging and dirty occupancy depend on background
    /// thread timing, so they are excluded from the deterministic count.
    fn hot_bytes(&self) -> u64 {
        self.shared.lock().resident_bytes
    }

    fn compressed_bytes(&self) -> u64 {
        let inner = self.shared.lock();
        // Staged blocks are copies of spilled frames, already counted in
        // the spilled payload total.
        inner.resident_bytes + inner.dirty_bytes + inner.spilled_payload_bytes
    }

    fn resident_cap(&self) -> Option<usize> {
        Some(self.cap)
    }
}

/// Read and decode a set of spilled frames, coalescing segment-adjacent
/// ones into single contiguous positional reads — the one copy of the
/// sort/run/decode logic shared by the foreground (`fetch_many`,
/// blocking) and the background fetcher (`run_fetcher`, overlapped).
/// `reads` entries are `(key, offset, frame_len)`; the input is sorted in
/// place by offset and one `(key, frame_len, outcome)` is returned per
/// entry.
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

/// Body of a [`SpillStore`]'s background fetch thread: claim prefetch
/// jobs, read their frames through [`read_frame_runs`], and stage the
/// decoded blocks. Read time lands in [`Phase::Prefetch`] —
/// off the critical path. A frame that fails to read or decode is simply
/// not staged; the foreground's blocking fetch retries and surfaces the
/// error. Queued jobs are drained even after shutdown so reserved
/// `pending` marks always resolve.
fn run_fetcher(shared: &Shared, metrics: &Metrics) {
    loop {
        let mut inner = shared.lock();
        let job = loop {
            if let Some(job) = inner.fetch_jobs.pop_front() {
                break job;
            }
            if inner.shutdown {
                return;
            }
            inner = shared
                .fetch_work
                .wait(inner)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        };
        drop(inner);
        let FetchJob { file, mut reads } = job;
        let t = Instant::now();
        let decoded = read_frame_runs(&file, &mut reads);
        metrics.add(Phase::Prefetch, t.elapsed());
        let mut inner = shared.lock();
        for (slot, _, blk) in decoded {
            inner.pending.remove(&slot);
            if let Ok(blk) = blk {
                // Pending slots cannot change tier (foreground fetches of
                // them wait), so the frame we read is still current.
                debug_assert!(matches!(inner.slots[slot], Slot::Spilled { .. }));
                inner.staged_bytes += blk.len() as u64;
                inner.staged.insert(slot, blk);
            }
        }
        drop(inner);
        shared.resolved.notify_all();
    }
}

/// A run between its claim and its settlement. Dropped armed — the
/// writing thread unwound mid-write — it aborts the run, so barriers
/// never wait on a dead claim and the run's blocks stay drainable.
struct Claim<'a> {
    shared: &'a Shared,
    run: Vec<usize>,
    extent: u64,
    armed: bool,
}

impl Claim<'_> {
    /// Give the run up: its whole reserved extent is dead (nothing durable
    /// in it), and its blocks — still in memory — return to the front of
    /// the dirty queue in order.
    fn abort(&self, inner: &mut SpillInner) {
        inner.dead += self.extent;
        for &slot in self.run.iter().rev() {
            if matches!(inner.slots[slot], Slot::Dirty { .. }) && !inner.dirty_queue.contains(&slot)
            {
                inner.dirty_queue.push_front(slot);
            }
        }
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        if self.armed {
            let mut inner = self.shared.lock();
            inner.runs_in_flight -= 1;
            self.abort(&mut inner);
            drop(inner);
            self.shared.resolved.notify_all();
        }
    }
}

/// The one way a frame reaches the segment: claim, write and commit one
/// run of the dirty queue.
///
/// Under the lock, the run takes at most a residency budget of queued
/// blocks and — the key to concurrency — the exact byte extent its frames
/// will occupy (computable up front because [`frame::encoded_len`] is
/// exact). The run is then encoded into the recycled buffer and landed
/// with a single positional write *outside* the lock, so concurrent runs
/// append to disjoint extents. Back under the lock, each frame whose
/// slot is still dirty at the generation it was claimed at becomes
/// `Slot::Spilled`; a block re-taken (or re-evicted at a newer
/// generation) mid-write leaves its frame as dead bytes.
///
/// The writer thread calls it with `inline` false: time lands in
/// [`Phase::WriteBehind`], spills in the write-behind share, and the
/// test-only [`WriteFault`] applies. The foreground calls it with
/// `inline` true, charged to [`Phase::SpillIo`]. A failed run is
/// all-or-nothing: nothing commits, the blocks go back to the queue, and
/// the error is returned for the caller to report. The caller wakes the
/// `resolved` waiters.
fn write_run<'a>(
    shared: &'a Shared,
    metrics: &Metrics,
    mut inner: MutexGuard<'a, SpillInner>,
    inline: bool,
) -> (MutexGuard<'a, SpillInner>, Result<(), String>) {
    let n = inner.dirty_queue.len().min(inner.run_cap);
    let run: Vec<usize> = inner.dirty_queue.drain(..n).collect();
    // (slot, generation, block copy): the block stays in its slot, so
    // fetches keep hitting memory while the run is written.
    let blks: Vec<(usize, u64, CompressedBlock)> = run
        .iter()
        .filter_map(|&slot| match &inner.slots[slot] {
            Slot::Dirty { blk, gen } => Some((slot, *gen, blk.clone())),
            _ => None,
        })
        .collect();
    if blks.is_empty() {
        return (inner, Ok(()));
    }
    let file = Arc::clone(&inner.file);
    let base = inner.end;
    let extent: u64 = blks
        .iter()
        .map(|(_, _, b)| frame::encoded_len(b.len()) as u64)
        .sum();
    inner.end = base + extent;
    inner.runs_in_flight += 1;
    let mut buf = std::mem::take(&mut inner.run_buf);
    let fault = if inline {
        WriteFault::default()
    } else {
        inner.fault.clone()
    };
    drop(inner);
    let mut claim = Claim {
        shared,
        run,
        extent,
        armed: true,
    };

    if fault.panic {
        panic!("injected write-behind panic");
    }
    let t = Instant::now();
    buf.clear();
    let result = if fault.fail {
        Err("injected write-behind failure".to_string())
    } else {
        blks.iter()
            .try_for_each(|(_, _, b)| {
                frame::encode_frame_into(b.codec, b.bound, &b.bytes, &mut buf)
            })
            .map_err(|e| format!("encode spill frame: {e}"))
            .and_then(|()| {
                debug_assert_eq!(buf.len() as u64, extent);
                file.write_all_at(&buf, base)
                    .map_err(|e| format!("write spill run: {e}"))
            })
    };
    let lane = if inline {
        Phase::SpillIo
    } else {
        Phase::WriteBehind
    };
    metrics.add(lane, t.elapsed());

    let mut inner = shared.lock();
    claim.armed = false;
    inner.runs_in_flight -= 1;
    inner.run_buf = buf;
    if result.is_err() {
        claim.abort(&mut inner);
    } else {
        let mut offset = base;
        for (slot, gen, blk) in blks {
            let frame_len = frame::encoded_len(blk.len()) as u32;
            if matches!(inner.slots[slot], Slot::Dirty { gen: g, .. } if g == gen) {
                inner.slots[slot] = Slot::Spilled {
                    offset,
                    frame_len,
                    payload_len: blk.len() as u32,
                };
                inner.dirty_bytes -= blk.len() as u64;
                inner.spilled_payload_bytes += blk.len() as u64;
                inner.live += frame_len as u64;
                if inline {
                    metrics.add_spill(frame_len as u64);
                } else {
                    metrics.add_spill_write_behind(frame_len as u64);
                }
            } else {
                inner.dead += frame_len as u64;
            }
            offset += frame_len as u64;
        }
    }
    (inner, result)
}

/// Body of a [`SpillStore`]'s background write-behind thread: park until
/// the dirty queue has work, then drain it one [`write_run`] at a time,
/// off the critical path.
///
/// A failed run records a deferred error for the next
/// `take`/`fetch_many`/`flush` to surface; the writer then idles until
/// the error is consumed. The writer exiting — normally or by panic —
/// decrements the alive count and wakes all waiters, so evictions and
/// barriers drain inline from then on.
fn run_writer(shared: &Shared, metrics: &Metrics) {
    struct AliveGuard<'a>(&'a Shared);
    impl Drop for AliveGuard<'_> {
        fn drop(&mut self) {
            let mut inner = self.0.lock();
            inner.writer_alive = false;
            drop(inner);
            self.0.resolved.notify_all();
        }
    }
    let _alive = AliveGuard(shared);
    loop {
        let mut inner = shared.lock();
        // Park until there is drainable work. An unsurfaced failure
        // parks the writer (the data sits safely in the dirty buffer
        // until take/flush reports the error); shutdown triggers one
        // final drain of whatever is queued, so a dropping store's
        // barrier still observes durable frames.
        while !inner.shutdown && (inner.dirty_queue.is_empty() || inner.write_error.is_some()) {
            inner = shared
                .write_work
                .wait(inner)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        if inner.shutdown && (inner.dirty_queue.is_empty() || inner.write_error.is_some()) {
            return;
        }
        let (mut inner, result) = write_run(shared, metrics, inner, false);
        if let Err(msg) = result {
            inner.write_error.get_or_insert(msg);
        }
        drop(inner);
        shared.resolved.notify_all();
    }
}

impl Drop for SpillStore {
    fn drop(&mut self) {
        // Shutdown ends both background threads: the fetcher drains its
        // queued jobs (resolving all pending marks), the writer does one
        // final drain (the drop barrier), and both are joined before
        // deleting the segment so no background I/O races the unlink.
        self.shared.lock().shutdown = true;
        self.shared.fetch_work.notify_all();
        self.shared.write_work.notify_all();
        for handle in self.io_threads.drain(..) {
            let _ = handle.join();
        }
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
                    prefetch: cfg.prefetch,
                    dir_guard: Some(Arc::clone(guard)),
                    eviction: spill.eviction,
                    write_behind: spill.write_behind,
                    shards: spill.shards,
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

        fn flush(&self) -> Result<(), SimError> {
            self.inner.flush()
        }

        fn resident_bytes(&self) -> u64 {
            self.inner.resident_bytes()
        }

        fn hot_bytes(&self) -> u64 {
            self.inner.hot_bytes()
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
        assert!(metrics.breakdown().fetches > 0);
        assert_eq!(
            metrics.breakdown().prefetch_hits,
            0,
            "no prefetch was requested"
        );
        // MemStore honors the same contract through the default impl.
        let m = MemStore::new(vec![Some(blk(1, 10)), Some(blk(2, 20))]);
        m.plan_accesses(&[1, 0]); // default no-op
        let got = m.fetch_many(&[1, 0]).unwrap();
        assert_eq!(got[0].len(), 20);
        assert_eq!(got[1].len(), 10);
    }

    #[test]
    fn prefetch_stages_and_fetches_hit_overlapped() {
        let metrics = Metrics::new();
        let n = 6usize;
        let s = SpillStore::create_with(
            &tmp_dir("prefetch"),
            "r0",
            2,
            metrics.clone(),
            (0..n).map(|i| Some(blk(i as u8, 64 + i))).collect(),
            SpillOptions {
                prefetch: true,
                dir_guard: None,
                ..Default::default()
            },
        )
        .unwrap();
        // Slots 0..=3 are spilled (cap 2 keeps only the last two puts).
        // Consuming the resident slot 5 of the window stages the next
        // budget of it, the spilled 0 and 1.
        s.plan_accesses(&[5, 0, 1]);
        let b5 = s.take(5).unwrap();
        // Let the background read complete so consumption is overlapped
        // (a fetch that arrives while the read is in flight waits and is
        // accounted as blocking instead).
        s.debug_wait_staged();
        let b0 = s.take(0).unwrap();
        assert_eq!(&b0.bytes[..], &blk(0, 64).bytes[..]);
        let b1 = s.fetch_many(&[1]).unwrap().remove(0);
        assert_eq!(&b1.bytes[..], &blk(1, 65).bytes[..]);
        assert_eq!(metrics.breakdown().prefetch_hits, 2);
        assert!(metrics.breakdown().overlapped_fetch_bytes > 0);
        assert_eq!(
            metrics.breakdown().prefetch_misses,
            0,
            "nothing should have blocked"
        );
        // A spilled slot outside the window still blocks (a miss).
        let b2 = s.take(2).unwrap();
        assert_eq!(&b2.bytes[..], &blk(2, 66).bytes[..]);
        assert_eq!(metrics.breakdown().prefetch_misses, 1);
        assert!(metrics.breakdown().blocking_fetch_bytes > 0);
        s.put(0, b0).unwrap();
        s.put(1, b1).unwrap();
        s.put(2, b2).unwrap();
        s.put(5, b5).unwrap();
        // Fetch total is exactly hits + misses.
        let b = metrics.breakdown();
        assert_eq!(b.fetches, b.prefetch_hits + b.prefetch_misses);
        // Windows over resident or already-staged slots are absorbed.
        s.plan_accesses(&[0, 1, 2, 3, 4, 5]);
        s.peek(0).unwrap();
        drop(s); // joins the fetcher cleanly with requests possibly queued
    }

    #[test]
    fn prefetch_respects_staging_budget() {
        let metrics = Metrics::new();
        let n = 12usize;
        let cap = 3usize;
        let s = SpillStore::create_with(
            &tmp_dir("prefetch-budget"),
            "r0",
            cap,
            metrics.clone(),
            (0..n).map(|i| Some(blk(i as u8, 64 + i))).collect(),
            SpillOptions {
                prefetch: true,
                dir_guard: None,
                ..Default::default()
            },
        )
        .unwrap();
        // Plan far more spilled slots than the budget: consuming the
        // resident slot 11 stages the first `cap` of them, and jumping the
        // cursor past those (a planned take of `all[cap]`) stages nothing
        // more while they sit unconsumed. At most `cap` may ever be staged
        // or in flight, so hits are bounded by cap.
        let all: Vec<usize> = (0..n - cap).collect();
        let window: Vec<usize> = std::iter::once(n - 1).chain(all.iter().copied()).collect();
        s.plan_accesses(&window);
        let last = s.take(n - 1).unwrap();
        s.debug_wait_staged();
        let jumped = s.take(all[cap]).unwrap();
        s.debug_wait_staged();
        s.put(all[cap], jumped).unwrap();
        s.put(n - 1, last).unwrap();
        // The wave is over: the reads below are unplanned.
        s.plan_accesses(&[]);
        for &slot in &all {
            let b = s.take(slot).unwrap();
            assert_eq!(&b.bytes[..], &blk(slot as u8, 64 + slot).bytes[..]);
            s.put(slot, b).unwrap();
        }
        assert!(metrics.breakdown().prefetch_hits <= cap as u64);
        assert!(
            metrics.breakdown().prefetch_hits > 0,
            "the budgeted prefix must hit"
        );
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
                    prefetch: true,
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
                    prefetch: true,
                    eviction,
                    ..Default::default()
                },
            )
            .unwrap();
            assert!(s.wants_plan());
            s.plan_accesses(&[0, 1]);
            let b0 = s.take(0).unwrap();
            s.put(0, b0).unwrap();
            let inner = s.shared.lock();
            let spilled = |slot: usize| matches!(inner.slots[slot], Slot::Spilled { .. });
            (0..3).filter(|&slot| spilled(slot)).collect::<Vec<_>>()
        };
        assert_eq!(evicted(Eviction::PlannedMin), vec![2]);
        assert_eq!(evicted(Eviction::Lru), vec![1]);
    }

    /// The slots a store has staged, once its fetcher is idle.
    fn staged(s: &SpillStore) -> Vec<usize> {
        s.debug_wait_staged();
        let mut staged: Vec<usize> = s.shared.lock().staged.keys().copied().collect();
        staged.sort_unstable();
        staged
    }

    #[test]
    fn planned_consumption_stages_the_next_budget_of_window_slots() {
        // 12 blocks under a budget of 3: slots 0..=8 are spilled, 9..=11
        // resident. The window never names 6, 7 or 8.
        let (n, cap) = (12usize, 3usize);
        let w = [0usize, 9, 1, 10, 2, 3, 11, 4, 5];
        let store = |name: &str, prefetch: bool| {
            SpillStore::create_with(
                &tmp_dir(name),
                "r0",
                cap,
                Metrics::new(),
                (0..n).map(|i| Some(blk(i as u8, 64 + i))).collect(),
                SpillOptions {
                    prefetch,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        // After `fetch_many(&w[..c])` the staged set is exactly the
        // spilled slots among `w[c..c + cap]`.
        for c in 1..=w.len() {
            let s = store(&format!("stage-{c}"), true);
            s.plan_accesses(&w);
            let _ = s.fetch_many(&w[..c]).unwrap();
            let mut want: Vec<usize> = w[c..w.len().min(c + cap)]
                .iter()
                .copied()
                .filter(|&slot| slot < n - cap)
                .collect();
            want.sort_unstable();
            assert_eq!(staged(&s), want, "after consuming {:?}", &w[..c]);
        }
        // An unplanned peek stages nothing.
        let s = store("stage-peek", true);
        s.plan_accesses(&w);
        s.peek(6).unwrap();
        assert_eq!(staged(&s), Vec::<usize>::new());
        // Nor does a store with prefetching off.
        let s = store("stage-off", false);
        s.plan_accesses(&w);
        let _ = s.fetch_many(&w[..2]).unwrap();
        assert_eq!(staged(&s), Vec::<usize>::new());
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

    #[test]
    fn write_behind_drains_off_critical_path_and_round_trips() {
        let metrics = Metrics::new();
        let n = 8usize;
        let s = SpillStore::create_with(
            &tmp_dir("write-behind"),
            "r0",
            2,
            metrics.clone(),
            (0..n).map(|i| Some(blk(i as u8, 64 + i))).collect(),
            SpillOptions {
                write_behind: true,
                ..Default::default()
            },
        )
        .unwrap();
        // Flush is the barrier: after it, every evicted block is durable
        // and the dirty buffer is empty.
        s.flush_dirty().unwrap();
        assert_eq!(s.debug_dirty_len(), 0);
        let b = metrics.breakdown();
        assert!(
            b.write_behind_spills > 0,
            "seed evictions must drain through the writer"
        );
        assert_eq!(b.write_behind_spills, b.spills);
        assert!(b.write_behind_bytes > 0);
        for i in 0..n {
            let b = s.take(i).unwrap();
            assert_eq!(&b.bytes[..], &blk(i as u8, 64 + i).bytes[..], "slot {i}");
            s.put(i, b).unwrap();
        }
        s.flush_dirty().unwrap();
    }

    #[test]
    fn write_behind_error_surfaces_on_take_and_clears() {
        let metrics = Metrics::new();
        let s = SpillStore::create_with(
            &tmp_dir("wb-take-err"),
            "r0",
            1,
            metrics.clone(),
            (0..3).map(|i| Some(blk(i as u8, 64))).collect(),
            SpillOptions {
                write_behind: true,
                ..Default::default()
            },
        )
        .unwrap();
        s.flush_dirty().unwrap();
        s.debug_set_write_fault(true, false);
        // Evict with the fault armed: the writer fails, the block stays
        // safe in the dirty buffer, and the error surfaces on the NEXT
        // take — not silently dropped.
        let b = s.take(0).unwrap();
        s.put(0, b).unwrap();
        s.debug_wait_written();
        let err = s.take(1).unwrap_err();
        assert!(
            format!("{err}").contains("injected write-behind failure"),
            "unexpected error: {err}"
        );
        // The error is consumed; disarm the fault and flush: the parked
        // block drains synchronously and everything round-trips.
        s.debug_set_write_fault(false, false);
        s.flush_dirty().unwrap();
        assert_eq!(s.debug_dirty_len(), 0);
        for i in 0..3 {
            assert_eq!(&s.peek(i).unwrap().bytes[..], &blk(i as u8, 64).bytes[..]);
        }
    }

    #[test]
    fn write_behind_error_surfaces_on_flush() {
        let metrics = Metrics::new();
        let s = SpillStore::create_with(
            &tmp_dir("wb-flush-err"),
            "r0",
            1,
            metrics.clone(),
            (0..3).map(|i| Some(blk(i as u8, 64))).collect(),
            SpillOptions {
                write_behind: true,
                ..Default::default()
            },
        )
        .unwrap();
        s.flush_dirty().unwrap();
        s.debug_set_write_fault(true, false);
        let b = s.take(0).unwrap();
        s.put(0, b).unwrap();
        s.debug_wait_written();
        s.debug_set_write_fault(false, false);
        // Flush both surfaces the deferred error and (having drained the
        // dirty block synchronously first) leaves the store consistent.
        let err = s.flush_dirty().unwrap_err();
        assert!(format!("{err}").contains("injected write-behind failure"));
        assert_eq!(s.debug_dirty_len(), 0);
        s.flush_dirty().unwrap();
    }

    #[test]
    fn write_behind_panic_falls_back_and_leaks_nothing() {
        // Satellite: a panicking writer thread must not hang barriers or
        // leak segment files — the store falls back to synchronous
        // draining and the `SegmentDirGuard` still collects everything.
        let parent = tmp_dir("wb-panic");
        let guard = SegmentDirGuard::create(&parent).unwrap();
        let dir = guard.path().to_path_buf();
        let metrics = Metrics::new();
        let s = SpillStore::create_with(
            &dir,
            "r0",
            1,
            metrics.clone(),
            (0..4).map(|i| Some(blk(i as u8, 64))).collect(),
            SpillOptions {
                write_behind: true,
                dir_guard: Some(Arc::clone(&guard)),
                ..Default::default()
            },
        )
        .unwrap();
        s.flush_dirty().unwrap();
        s.debug_set_write_fault(false, true);
        let b = s.take(0).unwrap();
        s.put(0, b).unwrap(); // the writer wakes on this eviction and dies
        s.debug_wait_written();
        // The barrier must complete via the synchronous fallback, and the
        // store keeps serving correctly without its writer.
        s.flush_dirty().unwrap();
        assert_eq!(s.debug_dirty_len(), 0);
        for i in 0..4 {
            assert_eq!(&s.peek(i).unwrap().bytes[..], &blk(i as u8, 64).bytes[..]);
        }
        drop(s);
        assert_eq!(
            std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0),
            0,
            "segment files leaked after the writer panic"
        );
        drop(guard);
        let _ = std::fs::remove_dir_all(&parent);
    }

    #[test]
    fn resident_bytes_counts_staging_and_dirty_buffers() {
        // Satellite: the honest-footprint accounting — blocks parked in
        // the prefetch staging buffer and the write-behind dirty buffer
        // both appear in `resident_bytes`.
        let metrics = Metrics::new();
        let n = 6usize;
        let s = SpillStore::create_with(
            &tmp_dir("accounting"),
            "r0",
            2,
            metrics.clone(),
            (0..n).map(|i| Some(blk(i as u8, 1024))).collect(),
            SpillOptions {
                prefetch: true,
                write_behind: true,
                ..Default::default()
            },
        )
        .unwrap();
        s.flush_dirty().unwrap();
        let resident_only = s.resident_bytes();
        // Stage two spilled blocks — a planned peek of the resident slot 4
        // stages the window's next two: both copies must appear.
        s.plan_accesses(&[4, 0, 1]);
        s.peek(4).unwrap();
        s.debug_wait_staged();
        assert_eq!(s.resident_bytes(), resident_only + 2 * 1024);
        // Park a dirty block behind a failing writer: still in memory,
        // still counted.
        s.debug_set_write_fault(true, false);
        let b = s.take(2).unwrap();
        s.put(2, b).unwrap();
        s.debug_wait_written();
        assert_eq!(s.debug_dirty_len(), 1);
        assert_eq!(s.resident_bytes(), resident_only + 3 * 1024);
        // The deterministic count excludes both background buffers: only
        // foreground residents (unchanged by the take/put cycle — every
        // block is 1024 bytes) are charged against the memory budget.
        assert_eq!(s.hot_bytes(), resident_only);
        // And the total never double-counts: staged copies mirror spilled
        // payloads, dirty blocks are pre-durability residents.
        assert_eq!(s.compressed_bytes(), (n as u64) * 1024);
        s.debug_set_write_fault(false, false);
        let _ = s.flush_dirty();
    }

    #[test]
    fn write_behind_error_surfaces_on_fetch_many() {
        let metrics = Metrics::new();
        let s = SpillStore::create_with(
            &tmp_dir("wb-fetch-err"),
            "r0",
            1,
            metrics.clone(),
            (0..3).map(|i| Some(blk(i as u8, 64))).collect(),
            SpillOptions {
                write_behind: true,
                ..Default::default()
            },
        )
        .unwrap();
        s.flush_dirty().unwrap();
        s.debug_set_write_fault(true, false);
        let b = s.take(0).unwrap();
        s.put(0, b).unwrap();
        s.debug_wait_written();
        // The wave paths fetch through fetch_many: the deferred failure
        // must surface there too, not wait for a checkpoint flush.
        let err = s.fetch_many(&[1, 2]).unwrap_err();
        assert!(
            format!("{err}").contains("injected write-behind failure"),
            "unexpected error: {err}"
        );
        s.debug_set_write_fault(false, false);
        s.flush_dirty().unwrap();
        for i in 0..3 {
            assert_eq!(&s.peek(i).unwrap().bytes[..], &blk(i as u8, 64).bytes[..]);
        }
    }

    #[test]
    fn backpressure_does_not_deadlock_on_parked_write_error() {
        let metrics = Metrics::new();
        let s = SpillStore::create_with(
            &tmp_dir("wb-backpressure-err"),
            "r0",
            1,
            metrics.clone(),
            (0..4).map(|i| Some(blk(i as u8, 64))).collect(),
            SpillOptions {
                write_behind: true,
                ..Default::default()
            },
        )
        .unwrap();
        s.flush_dirty().unwrap();
        let blocks = s.fetch_many(&[0, 1, 2]).unwrap();
        s.debug_set_write_fault(true, false);
        // Three puts against a 1-block budget while the writer parks on
        // an injected failure: one of them overflows the dirty buffer.
        // The backpressure wait must exit on the parked error and drain
        // synchronously instead of waiting on the condvar forever.
        for (slot, b) in blocks.into_iter().enumerate() {
            s.put(slot, b).unwrap();
        }
        assert!(s.debug_dirty_len() <= 1, "dirty buffer left unbounded");
        s.debug_set_write_fault(false, false);
        // The deferred error still surfaces (at the latest on flush) —
        // the synchronous fallback must not swallow it.
        let mut surfaced = false;
        for _ in 0..2 {
            if let Err(e) = s.flush_dirty() {
                assert!(format!("{e}").contains("injected write-behind failure"));
                surfaced = true;
                break;
            }
        }
        assert!(surfaced, "parked write error was silently dropped");
        s.flush_dirty().unwrap();
        for i in 0..4 {
            assert_eq!(&s.peek(i).unwrap().bytes[..], &blk(i as u8, 64).bytes[..]);
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
        // One seeded put/take/fetch_many/peek/flush sequence. The writer
        // is let finish after every put, so write-behind spills exactly
        // the blocks a synchronous store spills. The shard counts are the
        // two a store accepts, 0 (the options' default) and 1.
        let run = |write_behind: bool, shards: usize| {
            let metrics = Metrics::new();
            let n = 12usize;
            let s = SpillStore::create_with(
                &tmp_dir(&format!("merge-{write_behind}-{shards}")),
                "r0",
                3,
                metrics.clone(),
                (0..n).map(|i| Some(blk(i as u8, 64 + 7 * i))).collect(),
                SpillOptions {
                    write_behind,
                    shards,
                    ..Default::default()
                },
            )
            .unwrap();
            let put = |slot: usize, b: CompressedBlock| {
                s.put(slot, b).unwrap();
                s.debug_wait_written();
            };
            s.debug_wait_written();
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
        let (blocks, counters) = run(false, 1);
        assert!(counters[0] > 0 && counters[2] > 0, "{counters:?}");
        for (write_behind, shards) in [(false, 0), (true, 1), (true, 0)] {
            let (b, c) = run(write_behind, shards);
            assert!(
                b == blocks,
                "write_behind={write_behind} shards={shards}: blocks differ"
            );
            assert_eq!(c, counters, "write_behind={write_behind} shards={shards}");
        }
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
}
