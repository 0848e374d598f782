//! Time-breakdown and communication accounting (paper Table 2 rows:
//! compression / decompression / communication / computation time), plus
//! the out-of-core tier's spill/fetch traffic and I/O time.
//!
//! The phase lanes and counters are declared **once**, in the
//! `breakdown_table!` invocation below. [`TimeBreakdown`] (fields, docs,
//! [`delta`](TimeBreakdown::delta), `+=`, the `[u64; N]` array form the
//! wire codecs loop over, [`FIELD_NAMES`](TimeBreakdown::FIELD_NAMES)) and
//! the [`Phase`] → lane mapping behind [`Metrics::add`] all derive from
//! that list, so a new counter is one line there plus its increment in a
//! `Metrics::add_*` method.

use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Phases instrumented by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Compressing state blocks.
    Compression,
    /// Decompressing state blocks.
    Decompression,
    /// Exchanging blocks between ranks.
    Communication,
    /// Applying gate arithmetic.
    Computation,
    /// Reading/writing spilled blocks on the out-of-core tier, *on the
    /// critical path* (blocking seeks and reads the wave waited for).
    SpillIo,
    /// Background prefetch I/O. No recorder feeds it: the spill tier
    /// reads on the caller's thread (`SpillIo`). The lane stays so the
    /// report's row order and the wire's array form keep their layout.
    Prefetch,
    /// Background write-behind I/O. No recorder feeds it: the spill tier
    /// writes on the caller's thread (`SpillIo`). Kept like `Prefetch`.
    WriteBehind,
}

impl Phase {
    /// All phases in report order.
    pub const ALL: [Phase; 7] = [
        Phase::Compression,
        Phase::Decompression,
        Phase::Communication,
        Phase::Computation,
        Phase::SpillIo,
        Phase::Prefetch,
        Phase::WriteBehind,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Phase::Compression => "compression",
            Phase::Decompression => "decompression",
            Phase::Communication => "communication",
            Phase::Computation => "computation",
            Phase::SpillIo => "spill i/o",
            Phase::Prefetch => "prefetch",
            Phase::WriteBehind => "write-behind",
        }
    }
}

fn saturating_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Declares [`TimeBreakdown`] from one list: `lanes` are `Duration`
/// fields, each bound to the [`Phase`] that feeds it; `counters` are
/// `u64` fields. Everything field-wise is generated here and nowhere else.
macro_rules! breakdown_table {
    (
        lanes { $( $(#[$lane_doc:meta])* $lane:ident: $phase:ident, )* }
        counters { $( $(#[$counter_doc:meta])* $counter:ident, )* }
    ) => {
        /// Immutable snapshot of the phase timings (Table 2 rows) and the
        /// traffic counters recorded next to them.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct TimeBreakdown {
            $( $(#[$lane_doc])* pub $lane: Duration, )*
            $( $(#[$counter_doc])* pub $counter: u64, )*
        }

        impl TimeBreakdown {
            /// Field names in declaration (and array-form) order: the phase
            /// lanes, then the counters.
            pub const FIELD_NAMES: &'static [&'static str] =
                &[$( stringify!($lane), )* $( stringify!($counter), )*];

            /// Number of fields — the length of the array form.
            pub const FIELDS: usize = Self::FIELD_NAMES.len();

            /// The array form, in [`FIELD_NAMES`](Self::FIELD_NAMES) order:
            /// lanes as saturating nanoseconds, counters as they are. This
            /// is what travels on the wire.
            pub fn to_array(&self) -> [u64; Self::FIELDS] {
                [$( saturating_nanos(self.$lane), )* $( self.$counter, )*]
            }

            /// Inverse of [`to_array`](Self::to_array).
            pub fn from_array(fields: [u64; Self::FIELDS]) -> Self {
                let [$( $lane, )* $( $counter, )*] = fields;
                Self {
                    $( $lane: Duration::from_nanos($lane), )*
                    $( $counter, )*
                }
            }

            /// What happened since `earlier`: the field-wise difference
            /// between two snapshots of the same monotonically growing
            /// accumulator (saturating, so a reset in between degrades to
            /// zeros rather than wrapping). This is the unit a remote worker
            /// ships per response — see [`Metrics::absorb`].
            pub fn delta(&self, earlier: &TimeBreakdown) -> TimeBreakdown {
                TimeBreakdown {
                    $( $lane: self.$lane.saturating_sub(earlier.$lane), )*
                    $( $counter: self.$counter.saturating_sub(earlier.$counter), )*
                }
            }

            /// The phase lanes in [`Phase::ALL`] order.
            fn lanes(&self) -> [Duration; Phase::ALL.len()] {
                [$( self.$lane, )*]
            }

            fn lane_mut(&mut self, phase: Phase) -> &mut Duration {
                match phase {
                    $( Phase::$phase => &mut self.$lane, )*
                }
            }
        }

        impl std::ops::AddAssign<&TimeBreakdown> for TimeBreakdown {
            fn add_assign(&mut self, rhs: &TimeBreakdown) {
                $( self.$lane += rhs.$lane; )*
                $( self.$counter += rhs.$counter; )*
            }
        }
    };
}

breakdown_table! {
    lanes {
        /// Time spent compressing.
        compression: Compression,
        /// Time spent decompressing.
        decompression: Decompression,
        /// Time spent exchanging blocks between ranks.
        communication: Communication,
        /// Time spent in gate arithmetic.
        computation: Computation,
        /// Time spent reading/writing spilled blocks on the out-of-core
        /// tier's critical path (blocking I/O the waves waited for).
        spill_io: SpillIo,
        /// Always 0: the spill tier runs no background fetch thread. The
        /// row stays for its readers and the wire's array form.
        prefetch: Prefetch,
        /// Always 0: the spill tier runs no background writer thread.
        write_behind: WriteBehind,
    }
    counters {
        /// Bytes exchanged between ranks.
        comm_bytes,
        /// Inter-rank block-pair exchanges performed.
        exchanges,
        /// Decompress → compute → recompress cycles performed.
        block_touches,
        /// Gate kernels applied across all block touches.
        batched_gate_applications,
        /// Block touches the compressed-block cache answered (§3.4).
        cache_hits,
        /// Block touches the cache was consulted on and could not answer
        /// (0 with the cache off or auto-disabled).
        cache_misses,
        /// Blocks evicted from residency and written to the spill tier
        /// (0 without an out-of-core store).
        spills,
        /// Blocks read back from the spill tier.
        fetches,
        /// Bytes written to the spill tier.
        spill_bytes,
        /// Bytes read back from the spill tier.
        fetch_bytes,
        /// Always 0: no spilled fetch is served from a staging buffer.
        /// This row, `overlapped_fetch_bytes` and the two `write_behind_*`
        /// rows counted background spill I/O the tier no longer has; they
        /// stay for their readers and the wire's array form.
        prefetch_hits,
        /// Spilled fetches that blocked on a critical-path disk read:
        /// every spilled fetch, so this equals `fetches`.
        prefetch_misses,
        /// Spill-tier bytes read on the critical path (equal to
        /// `fetch_bytes`).
        blocking_fetch_bytes,
        /// Always 0 (see `prefetch_hits`).
        overlapped_fetch_bytes,
        /// Always 0 (see `prefetch_hits`).
        write_behind_spills,
        /// Always 0 (see `prefetch_hits`).
        write_behind_bytes,
        /// Always 0: every block operation decodes the whole block. This
        /// row and the four after it counted a segment-level decode path
        /// the engine no longer has; they stay in the table so that its
        /// readers (and the wire's array form) keep their layout.
        partial_decodes,
        /// Always 0 (see `partial_decodes`).
        segments_decoded,
        /// Always 0 (see `partial_decodes`).
        segments_full,
        /// Always 0 (see `partial_decodes`).
        segment_bytes_read,
        /// Always 0 (see `partial_decodes`).
        segment_bytes_full,
        /// Heap allocations observed at the codec seam (pool misses plus
        /// scratch-capacity growth); 0 in a warm steady state.
        codec_allocs,
        /// Bytes those codec-seam allocations requested.
        codec_bytes_alloc,
        /// Scratch-buffer reuse hits at the codec seam (pool checkouts served
        /// from recycled buffers, and decodes that fit existing capacity).
        scratch_reuse_hits,
    }
}

impl TimeBreakdown {
    /// Total across phases.
    pub fn total(&self) -> Duration {
        self.lanes().iter().sum()
    }

    /// Communication time in nanoseconds (saturating; the Table 2 row the
    /// repro harness prints directly).
    pub fn comm_ns(&self) -> u64 {
        saturating_nanos(self.communication)
    }

    /// Spill-tier I/O time in nanoseconds (saturating).
    pub fn spill_io_ns(&self) -> u64 {
        saturating_nanos(self.spill_io)
    }

    /// Background prefetch I/O time in nanoseconds (saturating; always
    /// 0, see the `prefetch` row).
    pub fn prefetch_ns(&self) -> u64 {
        saturating_nanos(self.prefetch)
    }

    /// Background write-behind I/O time in nanoseconds (saturating;
    /// always 0, see the `write_behind` row).
    pub fn write_behind_ns(&self) -> u64 {
        saturating_nanos(self.write_behind)
    }

    /// Fraction of spilled fetches served from a prefetch staging
    /// buffer (always 0: every fetch blocks).
    pub fn prefetch_hit_rate(&self) -> f64 {
        let total = self.prefetch_hits + self.prefetch_misses;
        if total == 0 {
            0.0
        } else {
            self.prefetch_hits as f64 / total as f64
        }
    }

    /// Average gate kernels per block touch (0 when nothing ran). Values
    /// above 1 mean decompress/recompress cycles are being amortized.
    pub fn gates_per_block_touch(&self) -> f64 {
        if self.block_touches == 0 {
            0.0
        } else {
            self.batched_gate_applications as f64 / self.block_touches as f64
        }
    }

    /// Percentage of total for each phase, in [`Phase::ALL`] order.
    /// Returns zeros when nothing was recorded.
    pub fn percentages(&self) -> [f64; 7] {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            return [0.0; 7];
        }
        self.lanes().map(|d| d.as_secs_f64() / total * 100.0)
    }
}

/// Thread-safe accumulator of per-phase wall time and traffic counters: a
/// shared [`TimeBreakdown`] behind one lock. Read it with
/// [`breakdown`](Metrics::breakdown).
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    inner: Arc<Mutex<TimeBreakdown>>,
}

impl Metrics {
    /// Fresh metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `d` to `phase`.
    pub fn add(&self, phase: Phase, d: Duration) {
        *self.inner.lock().lane_mut(phase) += d;
    }

    /// Time a closure, attributing its wall time to `phase`.
    pub fn time<T>(&self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(phase, start.elapsed());
        out
    }

    /// Record `bytes` of rank-to-rank traffic.
    pub fn add_comm_bytes(&self, bytes: u64) {
        self.inner.lock().comm_bytes += bytes;
    }

    /// Record one inter-rank block-pair exchange (a compressed payload
    /// crossing to the partner rank and its replacement coming back).
    pub fn add_exchange(&self) {
        self.inner.lock().exchanges += 1;
    }

    /// Record one block evicted from residency and written to the spill
    /// tier (`bytes` = the frame's on-disk footprint).
    pub fn add_spill(&self, bytes: u64) {
        let mut inner = self.inner.lock();
        inner.spills += 1;
        inner.spill_bytes += bytes;
    }

    /// Record one block read back from the spill tier on the critical
    /// path (`bytes` = the frame's on-disk footprint). Counted as a
    /// prefetch *miss* too.
    pub fn add_fetch_blocking(&self, bytes: u64) {
        let mut inner = self.inner.lock();
        inner.fetches += 1;
        inner.fetch_bytes += bytes;
        inner.prefetch_misses += 1;
        inner.blocking_fetch_bytes += bytes;
    }

    /// Fold a drained codec-seam snapshot into the accumulator:
    /// `allocs` heap allocations totalling `bytes` bytes and
    /// `reuse_hits` scratch-buffer reuses observed at the block codec's
    /// (de)compression seam since the last drain. Wall clock on a busy
    /// dev box is noisy — these counters are the allocation-free hot
    /// path's machine-checkable contract.
    pub fn add_codec_counters(&self, allocs: u64, bytes: u64, reuse_hits: u64) {
        let mut inner = self.inner.lock();
        inner.codec_allocs += allocs;
        inner.codec_bytes_alloc += bytes;
        inner.scratch_reuse_hits += reuse_hits;
    }

    /// Record one block-touch (a decompress → compute → recompress cycle of
    /// one work unit) that applied `gates` gate kernels to the scratch.
    ///
    /// With the batch scheduler a touch carries several fused gates; the
    /// gates-per-touch ratio is the amortization factor the scheduler buys.
    pub fn add_block_touch(&self, gates: u64) {
        let mut inner = self.inner.lock();
        inner.block_touches += 1;
        inner.batched_gate_applications += gates;
    }

    /// Record one consult of the compressed-block cache: a hit, or a miss
    /// the touch went on to compute.
    pub fn add_cache_lookup(&self, hit: bool) {
        let mut inner = self.inner.lock();
        inner.cache_hits += u64::from(hit);
        inner.cache_misses += u64::from(!hit);
    }

    /// Snapshot of everything recorded so far.
    pub fn breakdown(&self) -> TimeBreakdown {
        *self.inner.lock()
    }

    /// Streaming seam: the breakdown delta accumulated since `since`,
    /// advancing `since` to the current totals. Calling this once per
    /// wave yields per-wave metric deltas suitable for streaming to a
    /// monitoring client (each snapshot-and-advance is one lock
    /// acquisition, so concurrent recorders never land in two deltas).
    pub fn delta_since(&self, since: &mut TimeBreakdown) -> TimeBreakdown {
        let now = self.breakdown();
        let delta = now.delta(since);
        *since = now;
        delta
    }

    /// Reset all counters.
    pub fn reset(&self) {
        *self.inner.lock() = TimeBreakdown::default();
    }

    /// Fold a remote worker's [`TimeBreakdown`] delta into this
    /// accumulator. A socket transport keeps one `Metrics` per daemon-side
    /// worker and ships `breakdown` *differences* with each response; the
    /// coordinator absorbs them here so `comm_bytes`, `communication`, and
    /// the rest of the Table 2 rows flow through a wire hop unchanged.
    pub fn absorb(&self, d: &TimeBreakdown) {
        *self.inner.lock() += d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_table_field_survives_delta_absorb_and_the_array_form() {
        let names = TimeBreakdown::FIELD_NAMES;
        assert_eq!(names.len(), TimeBreakdown::FIELDS);
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "duplicate field name {name}");
            let mut fields = [0u64; TimeBreakdown::FIELDS];
            fields[i] = 1000 + i as u64;
            let only = TimeBreakdown::from_array(fields);
            assert_ne!(only, TimeBreakdown::default(), "{name} lost by from_array");
            assert_eq!(only.to_array(), fields, "{name}");
            assert_eq!(only.delta(&TimeBreakdown::default()), only, "{name}");
            let m = Metrics::new();
            m.absorb(&only);
            assert_eq!(m.breakdown(), only, "{name}");
        }
    }

    #[test]
    fn retired_segment_rows_keep_their_places_and_read_zero() {
        // The wire's array form and the benchmark's readers index these
        // five rows by position: they stay between the write-behind and
        // the codec-seam counters, and no recorder feeds them.
        let retired = [
            "partial_decodes",
            "segments_decoded",
            "segments_full",
            "segment_bytes_read",
            "segment_bytes_full",
        ];
        let names = TimeBreakdown::FIELD_NAMES;
        let at = names.iter().position(|n| *n == retired[0]).unwrap();
        assert_eq!(names[at - 1], "write_behind_bytes");
        assert_eq!(&names[at..at + retired.len()], &retired);
        assert_eq!(names[at + retired.len()], "codec_allocs");

        let m = Metrics::new();
        for phase in Phase::ALL {
            m.add(phase, Duration::from_nanos(3));
        }
        m.add_comm_bytes(10);
        m.add_exchange();
        m.add_spill(11);
        m.add_fetch_blocking(12);
        m.add_codec_counters(1, 15, 2);
        m.add_block_touch(3);
        m.add_cache_lookup(true);
        m.add_cache_lookup(false);
        let fields = m.breakdown().to_array();
        assert!(fields[at + retired.len()..].iter().any(|v| *v > 0));
        assert_eq!(&fields[at..at + retired.len()], &[0; 5]);
    }

    #[test]
    fn every_phase_feeds_its_own_lane_in_report_order() {
        for (i, phase) in Phase::ALL.into_iter().enumerate() {
            let m = Metrics::new();
            m.add(phase, Duration::from_nanos(5));
            let mut fields = [0u64; TimeBreakdown::FIELDS];
            fields[i] = 5;
            assert_eq!(m.breakdown().to_array(), fields, "{}", phase.name());
        }
    }

    #[test]
    fn accumulates_per_phase() {
        let m = Metrics::new();
        m.add(Phase::Compression, Duration::from_millis(10));
        m.add(Phase::Compression, Duration::from_millis(5));
        m.add(Phase::Computation, Duration::from_millis(85));
        let b = m.breakdown();
        assert_eq!(b.compression, Duration::from_millis(15));
        assert_eq!(b.total(), Duration::from_millis(100));
        let pct = b.percentages();
        assert!((pct[0] - 15.0).abs() < 1e-9);
        assert!((pct[3] - 85.0).abs() < 1e-9);
    }

    #[test]
    fn time_closure_attributes_wall_time() {
        let m = Metrics::new();
        let v = m.time(Phase::Decompression, || {
            std::thread::sleep(Duration::from_millis(5));
            42
        });
        assert_eq!(v, 42);
        assert!(m.breakdown().decompression >= Duration::from_millis(4));
    }

    #[test]
    fn comm_bytes_accumulate() {
        let m = Metrics::new();
        m.add_comm_bytes(1024);
        m.add_comm_bytes(512);
        assert_eq!(m.breakdown().comm_bytes, 1536);
    }

    #[test]
    fn reset_clears() {
        let m = Metrics::new();
        m.add(Phase::Computation, Duration::from_millis(1));
        m.add_comm_bytes(9);
        m.add_spill(100);
        m.reset();
        assert_eq!(m.breakdown(), TimeBreakdown::default());
    }

    #[test]
    fn empty_percentages_are_zero() {
        assert_eq!(TimeBreakdown::default().percentages(), [0.0; 7]);
    }

    #[test]
    fn spill_traffic_accumulates() {
        let m = Metrics::new();
        m.add_spill(100);
        m.add_spill(40);
        m.add_fetch_blocking(100);
        m.add(Phase::SpillIo, Duration::from_millis(3));
        let b = m.breakdown();
        assert_eq!(b.spills, 2);
        assert_eq!(b.fetches, 1);
        assert_eq!(b.spill_bytes, 140);
        assert_eq!(b.fetch_bytes, 100);
        assert_eq!(b.spill_io, Duration::from_millis(3));
        assert_eq!(b.spill_io_ns(), 3_000_000);
        assert!(b.percentages()[4] > 99.0, "only spill i/o was recorded");
    }

    #[test]
    fn every_spilled_fetch_blocks_and_the_background_rows_read_zero() {
        let m = Metrics::new();
        m.add_spill(100);
        m.add_fetch_blocking(60);
        m.add_fetch_blocking(40);
        let b = m.breakdown();
        assert_eq!(b.fetches, 2);
        assert_eq!(b.prefetch_misses, b.fetches);
        assert_eq!(b.blocking_fetch_bytes, b.fetch_bytes);
        assert_eq!(b.fetch_bytes, 100);
        assert_eq!(
            (b.prefetch_hits, b.overlapped_fetch_bytes),
            (0, 0),
            "no fetch is staged"
        );
        assert_eq!((b.write_behind_spills, b.write_behind_bytes), (0, 0));
        assert_eq!(b.prefetch_hit_rate(), 0.0);
        assert_eq!((b.prefetch_ns(), b.write_behind_ns()), (0, 0));
    }

    #[test]
    fn codec_counter_accounting_accumulates() {
        let m = Metrics::new();
        m.add_codec_counters(3, 4096, 10);
        m.add_codec_counters(0, 0, 7);
        let b = m.breakdown();
        assert_eq!(b.codec_allocs, 3);
        assert_eq!(b.codec_bytes_alloc, 4096);
        assert_eq!(b.scratch_reuse_hits, 17);
    }

    #[test]
    fn block_touch_accounting_amortizes_gates() {
        let m = Metrics::new();
        assert_eq!(m.breakdown().gates_per_block_touch(), 0.0);
        m.add_block_touch(1); // unbatched gate: one touch, one kernel
        m.add_block_touch(5); // batched touch: one touch, five kernels
        let b = m.breakdown();
        assert_eq!(b.block_touches, 2);
        assert_eq!(b.batched_gate_applications, 6);
        assert!((b.gates_per_block_touch() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn cache_lookups_split_hits_from_misses() {
        let m = Metrics::new();
        m.add_cache_lookup(true);
        m.add_cache_lookup(false);
        m.add_cache_lookup(false);
        let b = m.breakdown();
        assert_eq!((b.cache_hits, b.cache_misses), (1, 2));
    }

    #[test]
    fn delta_and_absorb_relay_remote_accounting() {
        // The remote-worker flow: the daemon snapshots before and after a
        // command, ships the delta, the coordinator absorbs it — the
        // coordinator's totals must equal what a local run would record.
        let daemon = Metrics::new();
        daemon.add(Phase::Communication, Duration::from_millis(3));
        daemon.add_comm_bytes(100);
        let before = daemon.breakdown();
        daemon.add(Phase::Communication, Duration::from_millis(7));
        daemon.add(Phase::Computation, Duration::from_millis(2));
        daemon.add_comm_bytes(250);
        daemon.add_exchange();
        daemon.add_fetch_blocking(64);
        let delta = daemon.breakdown().delta(&before);
        assert_eq!(delta.communication, Duration::from_millis(7));
        assert_eq!(delta.comm_bytes, 250);
        assert_eq!(delta.exchanges, 1);
        assert_eq!(delta.fetches, 1);

        let coordinator = Metrics::new();
        coordinator.absorb(&delta);
        coordinator.absorb(&delta);
        let b = coordinator.breakdown();
        assert_eq!(b.communication, Duration::from_millis(14));
        assert_eq!(b.comm_bytes, 500);
        assert_eq!(b.exchanges, 2);
        assert_eq!(b.computation, Duration::from_millis(4));
        assert_eq!(b.blocking_fetch_bytes, 128);
        // A daemon reset between snapshots degrades to zeros, not a wrap.
        daemon.reset();
        let wrapped = daemon.breakdown().delta(&before);
        assert_eq!(wrapped, TimeBreakdown::default());
    }

    #[test]
    fn metrics_shared_across_clones_and_threads() {
        let m = Metrics::new();
        let m2 = m.clone();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let mm = m.clone();
                s.spawn(move || {
                    mm.add(Phase::Computation, Duration::from_millis(1));
                    mm.add_comm_bytes(10);
                });
            }
        });
        let b = m2.breakdown();
        assert_eq!(b.computation, Duration::from_millis(4));
        assert_eq!(b.comm_bytes, 40);
    }
}
