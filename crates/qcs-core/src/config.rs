//! Simulator configuration (paper §3, §5.1).

use crate::store::Eviction;
use qcs_compress::{CodecId, ErrorBound};
use std::path::PathBuf;

/// Out-of-core tier configuration: how many hot compressed blocks each
/// rank keeps resident and where the cold ones spill. Victims are chosen
/// by Belady's MIN over each wave's own slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillConfig {
    /// Residency budget per rank, in blocks (minimum 1): the hottest
    /// `resident_blocks` compressed blocks stay in memory; the rest live
    /// in the rank's segment file.
    pub resident_blocks: usize,
    /// Directory for the per-rank segment files; `None` uses the system
    /// temp directory. Files are deleted when the simulator is dropped.
    pub dir: Option<PathBuf>,
    /// Victim-selection policy for the residency budget. Its one value is
    /// [`Eviction::PlannedMin`] (Belady's MIN over the slots the current
    /// wave announces); the field stays in the API and the wire layout.
    pub eviction: Eviction,
    /// Accepted for both values and ignored: every eviction writes its
    /// victim's frame on the evicting thread. The field stays because the
    /// wire layout carries it.
    pub write_behind: bool,
    /// Segment files per rank. Each rank keeps exactly one, so
    /// [`SimConfig::validate`] accepts only 1; the field stays in the wire
    /// layout.
    pub shards: usize,
}

impl SpillConfig {
    /// Spill config with the given per-rank residency budget, segments in
    /// the system temp directory.
    pub fn new(resident_blocks: usize) -> Self {
        Self {
            resident_blocks,
            dir: None,
            eviction: Eviction::default(),
            write_behind: false,
            shards: 1,
        }
    }

    /// The directory segment files are created in.
    pub fn directory(&self) -> PathBuf {
        self.dir.clone().unwrap_or_else(std::env::temp_dir)
    }
}

/// Multi-node transport configuration: where the `qcsim-workerd` daemons
/// listen and how connections to them are supervised. When set on a
/// [`SimConfig`], every rank worker is hosted remotely — rank `r` dials
/// `endpoints[r % endpoints.len()]`, so one daemon can host many ranks
/// (the loopback Fig. 5 sweep) or each node can run its own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteConfig {
    /// Daemon addresses (`host:port`), at least one.
    pub endpoints: Vec<String>,
    /// Connection attempts per rank before giving up (minimum 1).
    pub connect_attempts: u32,
    /// Backoff before the first reconnect attempt, in milliseconds;
    /// doubles per retry, capped at two seconds.
    pub connect_backoff_ms: u64,
    /// Read/write timeout installed on each rank's stream, in
    /// milliseconds (`None` blocks forever). Generous by default: a wave
    /// on a big state legitimately keeps the socket silent for a while.
    pub io_timeout_ms: Option<u64>,
}

impl RemoteConfig {
    /// Remote transport to `endpoints` with default supervision: 5
    /// connect attempts backing off from 50 ms, 120 s I/O timeouts.
    pub fn new(endpoints: Vec<String>) -> Self {
        Self {
            endpoints,
            connect_attempts: 5,
            connect_backoff_ms: 50,
            io_timeout_ms: Some(120_000),
        }
    }

    /// The [`qcs_net::ConnectPolicy`] these knobs describe.
    pub fn connect_policy(&self) -> qcs_net::ConnectPolicy {
        qcs_net::ConnectPolicy {
            attempts: self.connect_attempts,
            initial_backoff: std::time::Duration::from_millis(self.connect_backoff_ms),
            read_timeout: self.io_timeout_ms.map(std::time::Duration::from_millis),
            write_timeout: self.io_timeout_ms.map(std::time::Duration::from_millis),
        }
    }
}

/// Configuration for the compressed-block simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// `log2` of amplitudes per block. The paper uses blocks of 2^20
    /// amplitudes (16 MB); the default here is smaller so laptop-scale
    /// experiments have enough blocks per rank to exercise the layout.
    pub block_log2: u32,
    /// `log2` of the rank-worker count (paper: 128 ranks/node x up to
    /// 4,096 nodes). `0` runs a single in-place worker; `>= 1` spawns one
    /// dedicated worker thread per rank, with rank-crossing gates moving
    /// compressed payloads between paired workers.
    pub ranks_log2: u32,
    /// Rayon threads installed inside each rank worker (the paper's
    /// threads-per-rank axis in Fig. 5). `None` divides the machine's
    /// available parallelism evenly across ranks.
    pub threads_per_rank: Option<usize>,
    /// Memory budget in bytes for Eq. 8 accounting (compressed blocks plus
    /// two scratch blocks per rank). `None` disables the adaptive ladder:
    /// the simulation stays at the first ladder level.
    pub memory_budget: Option<u64>,
    /// Lossy codec used once the ladder leaves the lossless level. Solution
    /// C is the only one, and [`SimConfig::validate`] refuses any other id.
    pub lossy_codec: CodecId,
    /// The adaptive error-bound ladder (§3.7). Defaults to
    /// `[lossless, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1]`. Every level is lossless
    /// or a pointwise-relative bound in `(0, 1)`, the bounds Solution C
    /// runs ([`SimConfig::validate`]).
    pub ladder: Vec<ErrorBound>,
    /// Compressed-block cache lines per simulation (§3.4; the paper uses
    /// 64). 0 disables the cache entirely; a cache that never hits turns
    /// itself off ([`crate::cache::AUTO_DISABLE_AFTER`]).
    pub cache_lines: usize,
    /// Run circuits through the batch scheduler: fuse consecutive
    /// single-qubit gates on the same qubit and group consecutive
    /// intra-block gates into batches, so each block pays one
    /// decompress/recompress cycle per *batch* instead of per gate.
    /// Disable to reproduce the paper's strict gate-at-a-time pipeline.
    pub fusion: bool,
    /// Out-of-core tier: when set, each rank keeps only
    /// `spill.resident_blocks` hot compressed blocks in memory and spills
    /// the rest to a per-rank segment file of checksummed frames. `None`
    /// (the default) keeps every block resident, as in the paper.
    pub spill: Option<SpillConfig>,
    /// Accepted for both values and ignored: every spilled fetch is a
    /// read on the fetching thread. The field stays because the wire
    /// layout and the repo benchmark carry it.
    pub prefetch: bool,
    /// Multi-node transport: when set, rank workers are hosted by
    /// `qcsim-workerd` daemons at these endpoints instead of in-process
    /// threads, with commands and compressed exchange payloads moving
    /// over TCP. `None` (the default) keeps every rank in-process.
    pub remote: Option<RemoteConfig>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            block_log2: 12,
            ranks_log2: 0,
            threads_per_rank: None,
            memory_budget: None,
            lossy_codec: CodecId::SolutionC,
            ladder: qcs_compress::ladder().to_vec(),
            cache_lines: 64,
            fusion: true,
            spill: None,
            prefetch: true,
            remote: None,
        }
    }
}

impl SimConfig {
    /// Largest qubit count [`SimConfig::validate`] accepts. A 62-qubit
    /// state already indexes 2^62 amplitudes — the ceiling of what u64
    /// amplitude indices (and the paper's largest runs) can address —
    /// and bounding it here keeps every downstream `1 << n` shift and
    /// footprint computation inside u64 range, so hostile wire configs
    /// cannot panic admission arithmetic.
    pub const MAX_QUBITS: u32 = 62;

    /// Most block-cache lines [`SimConfig::validate`] accepts (the paper
    /// uses 64). `cache_lines` pre-sizes the cache's hash tables, so an
    /// unbounded wire value would be an allocation request — `usize::MAX`
    /// panics the table constructor outright.
    pub const MAX_CACHE_LINES: usize = 1 << 16;

    /// Most rayon threads per rank [`SimConfig::validate`] accepts: the
    /// value is a thread-spawn count.
    pub const MAX_THREADS_PER_RANK: usize = 256;

    /// Largest `ranks_log2` [`SimConfig::validate`] accepts: 2^8 = 256
    /// ranks, the ceiling of [`SimConfig::MAX_THREADS_PER_RANK`] (the
    /// paper runs 128 per node). Every rank is a worker thread, and a
    /// spilling one holds a segment file and its I/O threads.
    pub const MAX_RANKS_LOG2: u32 = 8;

    /// Largest `block_log2` [`SimConfig::validate`] accepts: 16x the
    /// paper's 2^20-amplitude block. A block's amplitude count sizes the
    /// codec's scratch buffers before any gate runs.
    pub const MAX_BLOCK_LOG2: u32 = 24;

    /// Config with a given block size exponent.
    pub fn with_block_log2(mut self, block_log2: u32) -> Self {
        self.block_log2 = block_log2;
        self
    }

    /// Config with a simulated rank count exponent.
    pub fn with_ranks_log2(mut self, ranks_log2: u32) -> Self {
        self.ranks_log2 = ranks_log2;
        self
    }

    /// Config with a fixed rayon width per rank worker (Fig. 5's
    /// threads-per-rank axis).
    pub fn with_threads_per_rank(mut self, threads: usize) -> Self {
        self.threads_per_rank = Some(threads.max(1));
        self
    }

    /// Config with a memory budget in bytes.
    pub fn with_memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Config with a specific lossy codec.
    pub fn with_lossy_codec(mut self, codec: CodecId) -> Self {
        self.lossy_codec = codec;
        self
    }

    /// Config with a fixed single error bound instead of the full ladder.
    pub fn with_fixed_bound(mut self, bound: ErrorBound) -> Self {
        self.ladder = vec![bound];
        self
    }

    /// Config with the cache disabled.
    pub fn without_cache(mut self) -> Self {
        self.cache_lines = 0;
        self
    }

    /// Config with gate fusion and batching disabled (the paper's strict
    /// one-cycle-per-gate pipeline).
    pub fn without_fusion(mut self) -> Self {
        self.fusion = false;
        self
    }

    /// Config with fusion/batching explicitly on or off.
    pub fn with_fusion(mut self, fusion: bool) -> Self {
        self.fusion = fusion;
        self
    }

    /// Config with the out-of-core tier enabled: at most `resident_blocks`
    /// hot compressed blocks per rank stay in memory, the rest spill to
    /// per-rank segment files in the system temp directory.
    pub fn with_spill(mut self, resident_blocks: usize) -> Self {
        self.spill = Some(SpillConfig::new(resident_blocks));
        self
    }

    /// Config with the out-of-core tier writing its segment files under
    /// `dir` (enables spilling if it was off; keeps a previously set
    /// residency budget).
    pub fn with_spill_dir(mut self, dir: PathBuf) -> Self {
        let mut spill = self.spill.take().unwrap_or_else(|| SpillConfig::new(1));
        spill.dir = Some(dir);
        self.spill = Some(spill);
        self
    }

    /// Config with [`SimConfig::prefetch`] set, which changes nothing a
    /// run does (see the field).
    pub fn with_prefetch(mut self, prefetch: bool) -> Self {
        self.prefetch = prefetch;
        self
    }

    /// Config with [`SpillConfig::eviction`] set; its one value is the
    /// default. Enables spilling with a 1-block budget if it was off;
    /// keeps a previously set budget.
    pub fn with_eviction(mut self, eviction: Eviction) -> Self {
        let mut spill = self.spill.take().unwrap_or_else(|| SpillConfig::new(1));
        spill.eviction = eviction;
        self.spill = Some(spill);
        self
    }

    /// Config with [`SpillConfig::write_behind`] set, which changes
    /// nothing a run does (see the field). Enables spilling with a
    /// 1-block budget if it was off; keeps a previously set budget.
    pub fn with_write_behind(mut self, write_behind: bool) -> Self {
        let mut spill = self.spill.take().unwrap_or_else(|| SpillConfig::new(1));
        spill.write_behind = write_behind;
        self.spill = Some(spill);
        self
    }

    /// Host every rank worker remotely, on `qcsim-workerd` daemons at
    /// `endpoints` (rank `r` dials endpoint `r % endpoints.len()`), with
    /// default connection supervision (see [`RemoteConfig::new`]).
    pub fn with_remote<S: Into<String>>(mut self, endpoints: Vec<S>) -> Self {
        self.remote = Some(RemoteConfig::new(
            endpoints.into_iter().map(Into::into).collect(),
        ));
        self
    }

    /// The scheduling policy this config induces: every rewrite on with
    /// [`SimConfig::fusion`], none without.
    pub fn fusion_policy(&self) -> qcs_circuits::FusionPolicy {
        qcs_circuits::FusionPolicy {
            enabled: self.fusion,
            block_log2: self.block_log2,
        }
    }

    /// Validate invariants against a qubit count.
    pub fn validate(&self, num_qubits: u32) -> Result<(), String> {
        if self.ladder.is_empty() {
            return Err("ladder must have at least one level".into());
        }
        if self.lossy_codec != CodecId::SolutionC {
            return Err(format!(
                "lossy codec {} is not Solution C",
                self.lossy_codec
            ));
        }
        // `!(0 < eps < 1)` also refuses NaN and infinity.
        if let Some(bad) = self.ladder.iter().find(|b| match b {
            ErrorBound::Lossless => false,
            ErrorBound::PointwiseRelative(eps) => !(*eps > 0.0 && *eps < 1.0),
            ErrorBound::Absolute(_) => true,
        }) {
            return Err(format!(
                "ladder level {bad:?} is neither lossless nor a pointwise-relative bound in (0, 1)"
            ));
        }
        if num_qubits > Self::MAX_QUBITS {
            return Err(format!(
                "{num_qubits} qubits exceeds the supported maximum of {}",
                Self::MAX_QUBITS
            ));
        }
        if self.ranks_log2 > Self::MAX_RANKS_LOG2 {
            return Err(format!(
                "ranks_log2 {} exceeds the supported maximum of {}",
                self.ranks_log2,
                Self::MAX_RANKS_LOG2
            ));
        }
        if self.block_log2 > Self::MAX_BLOCK_LOG2 {
            return Err(format!(
                "block_log2 {} exceeds the supported maximum of {}",
                self.block_log2,
                Self::MAX_BLOCK_LOG2
            ));
        }
        if num_qubits < self.ranks_log2 + self.block_log2 + 1 {
            return Err(format!(
                "{num_qubits} qubits cannot split into 2^{} ranks x 2^{} amp blocks",
                self.ranks_log2, self.block_log2
            ));
        }
        for w in self.ladder.windows(2) {
            if w[0].magnitude() >= w[1].magnitude() {
                return Err("ladder bounds must be strictly increasing".into());
            }
        }
        if self.cache_lines > Self::MAX_CACHE_LINES {
            return Err(format!(
                "{} cache lines exceeds the supported maximum of {}",
                self.cache_lines,
                Self::MAX_CACHE_LINES
            ));
        }
        if self
            .threads_per_rank
            .is_some_and(|t| t > Self::MAX_THREADS_PER_RANK)
        {
            return Err(format!(
                "threads_per_rank exceeds the supported maximum of {}",
                Self::MAX_THREADS_PER_RANK
            ));
        }
        if let Some(spill) = &self.spill {
            if spill.resident_blocks == 0 {
                return Err("spill residency budget must be at least 1 block".into());
            }
            if spill.shards != 1 {
                return Err(format!(
                    "spill shard count {} is not 1: a rank keeps one segment file",
                    spill.shards
                ));
            }
        }
        if let Some(remote) = &self.remote {
            if remote.endpoints.is_empty() {
                return Err("remote transport needs at least one endpoint".into());
            }
            if remote.connect_attempts == 0 {
                return Err("remote transport needs at least one connect attempt".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_ladder() {
        let c = SimConfig::default();
        assert_eq!(c.ladder.len(), 6);
        assert_eq!(c.ladder[0], ErrorBound::Lossless);
        assert_eq!(c.ladder[5], ErrorBound::PointwiseRelative(1e-1));
        assert_eq!(c.cache_lines, 64);
        assert_eq!(c.lossy_codec, CodecId::SolutionC);
    }

    #[test]
    fn builder_chain() {
        let c = SimConfig::default()
            .with_block_log2(8)
            .with_ranks_log2(2)
            .with_memory_budget(1 << 20)
            .without_cache();
        assert_eq!(c.block_log2, 8);
        assert_eq!(c.ranks_log2, 2);
        assert_eq!(c.memory_budget, Some(1 << 20));
        assert_eq!(c.cache_lines, 0);
    }

    #[test]
    fn remote_builders_and_validation() {
        let c = SimConfig::default().with_remote(vec!["127.0.0.1:7401"]);
        let remote = c.remote.as_ref().unwrap();
        assert_eq!(remote.endpoints, vec!["127.0.0.1:7401".to_string()]);
        assert_eq!(remote.connect_attempts, 5);
        assert!(c.validate(16).is_ok());
        let policy = remote.connect_policy();
        assert_eq!(policy.attempts, 5);
        assert_eq!(
            policy.read_timeout,
            Some(std::time::Duration::from_secs(120))
        );
        // No endpoints or no attempts cannot reach any daemon.
        let bad = SimConfig::default().with_remote(Vec::<String>::new());
        assert!(bad.validate(16).is_err());
        let mut bad = SimConfig::default().with_remote(vec!["127.0.0.1:7401"]);
        bad.remote.as_mut().unwrap().connect_attempts = 0;
        assert!(bad.validate(16).is_err());
        assert!(SimConfig::default().remote.is_none());
    }

    /// Fields that size an allocation or a spawn by their raw value are
    /// bounded, so a config off the wire cannot ask for the moon.
    #[test]
    fn validation_bounds_every_sizing_field() {
        let ok = SimConfig::default().with_block_log2(3).with_spill(2);
        assert!(ok.validate(9).is_ok());
        let mut at_cap = ok
            .clone()
            .with_threads_per_rank(SimConfig::MAX_THREADS_PER_RANK);
        at_cap.cache_lines = SimConfig::MAX_CACHE_LINES;
        assert!(at_cap.validate(9).is_ok());

        let mut bad = ok.clone();
        bad.cache_lines = usize::MAX;
        assert!(bad.validate(9).unwrap_err().contains("cache lines"));
        let bad = ok.with_threads_per_rank(usize::MAX);
        assert!(bad.validate(9).unwrap_err().contains("threads_per_rank"));
    }

    /// `ranks_log2` is a thread-spawn count (a worker per rank, a store
    /// and its I/O threads per spilling rank) and `block_log2` sizes the
    /// codec's scratch buffers, so both are capped, not only their sum.
    /// Validation only: nothing here builds a simulator.
    #[test]
    fn validation_caps_the_rank_and_block_exponents() {
        let cfg = |ranks_log2, block_log2| {
            SimConfig::default()
                .with_ranks_log2(ranks_log2)
                .with_block_log2(block_log2)
                .with_spill(4)
        };
        assert!(cfg(8, 3).validate(12).is_ok());
        let err = cfg(9, 3).validate(13).unwrap_err();
        assert!(err.contains("ranks_log2"), "{err}");
        // The hostile server job: 2^20 one-amplitude ranks on 21 qubits.
        let err = cfg(20, 0).validate(21).unwrap_err();
        assert!(err.contains("ranks_log2"), "{err}");

        assert!(cfg(0, 24).validate(25).is_ok());
        let err = cfg(0, 25).validate(26).unwrap_err();
        assert!(err.contains("block_log2"), "{err}");
        // The hostile handshake: two 2^39-amplitude blocks on 40 qubits.
        let err = cfg(0, 39).validate(40).unwrap_err();
        assert!(err.contains("block_log2"), "{err}");
    }

    #[test]
    fn validation_catches_undersized_systems() {
        let c = SimConfig::default().with_block_log2(10).with_ranks_log2(4);
        assert!(c.validate(20).is_ok());
        assert!(c.validate(14).is_err());
    }

    #[test]
    fn spill_builders_and_validation() {
        let c = SimConfig::default().with_block_log2(3).with_spill(4);
        assert_eq!(c.spill.as_ref().unwrap().resident_blocks, 4);
        assert!(c.validate(9).is_ok());
        let c = c.with_spill_dir(PathBuf::from("/tmp/qcs-spill"));
        let spill = c.spill.as_ref().unwrap();
        assert_eq!(spill.resident_blocks, 4, "dir builder keeps the budget");
        assert_eq!(spill.directory(), PathBuf::from("/tmp/qcs-spill"));
        // A zero-block budget is rejected.
        let bad = SimConfig::default().with_spill(0);
        assert!(bad.validate(9).is_err());
        // Default stays all-resident; the inert prefetch flag keeps its
        // wire default.
        assert!(SimConfig::default().spill.is_none());
        assert!(SimConfig::default().prefetch);
        assert!(!SimConfig::default().with_prefetch(false).prefetch);
        assert_eq!(SpillConfig::new(2).directory(), std::env::temp_dir());
        // Spill defaults: MIN (the one policy), the inert write-behind
        // flag off, one segment file.
        let spill = SpillConfig::new(2);
        assert_eq!(spill.eviction, Eviction::PlannedMin);
        assert!(!spill.write_behind);
        assert_eq!(spill.shards, 1);
    }

    #[test]
    fn eviction_and_write_behind_builders() {
        let c = SimConfig::default()
            .with_spill(4)
            .with_eviction(Eviction::PlannedMin)
            .with_write_behind(true);
        let spill = c.spill.as_ref().unwrap();
        assert_eq!(spill.resident_blocks, 4, "builders keep the budget");
        assert_eq!(spill.eviction, Eviction::PlannedMin);
        assert!(spill.write_behind);
        assert!(c.validate(9).is_err(), "block_log2 still default");
        let c = c.with_block_log2(3);
        assert!(c.validate(9).is_ok());
        // Each builder arms the spill tier if it was off.
        assert!(SimConfig::default()
            .with_eviction(Eviction::PlannedMin)
            .spill
            .is_some());
        assert!(SimConfig::default().with_write_behind(true).spill.is_some());
    }

    /// A rank keeps one segment file: the config refuses any other shard
    /// count, and a store refuses more than one (0 is what
    /// `SpillOptions::default()` holds).
    #[test]
    fn one_segment_file_per_rank() {
        use crate::store::{SpillOptions, SpillStore};
        let cfg = |shards| {
            let mut c = SimConfig::default().with_block_log2(3).with_spill(4);
            c.spill.as_mut().unwrap().shards = shards;
            c
        };
        assert!(cfg(1).validate(9).is_ok());
        for shards in [0, 2, usize::MAX] {
            let err = cfg(shards).validate(9).unwrap_err();
            assert!(err.contains("shard"), "{shards}: {err}");
        }
        let dir = std::env::temp_dir().join(format!("qcs-config-shards-{}", std::process::id()));
        let store = |shards| {
            SpillStore::create_with(
                &dir,
                "r0",
                1,
                qcs_cluster::Metrics::new(),
                Vec::new(),
                SpillOptions {
                    shards,
                    ..SpillOptions::default()
                },
            )
        };
        assert!(store(0).is_ok());
        assert!(store(1).is_ok());
        match store(2) {
            Err(crate::SimError::Config(m)) => assert!(m.contains("shard"), "{m}"),
            other => panic!("a two-shard store was built: {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validation_accepts_only_the_engine_lossy_codecs() {
        for id in CodecId::ALL {
            let ok = SimConfig::default().with_lossy_codec(id).validate(13);
            assert_eq!(ok.is_ok(), id == CodecId::SolutionC, "{id}: {ok:?}");
        }
    }

    /// A level Solution C cannot run is refused by `validate`, as a fixed
    /// bound and as a rung of an otherwise increasing ladder, so a job
    /// holding one is refused at admission instead of failing mid-run or
    /// running its blocks lossless under a NaN bound.
    #[test]
    fn validation_refuses_levels_solution_c_cannot_run() {
        use ErrorBound::{Absolute, Lossless, PointwiseRelative as Pwr};
        let rung = |top| vec![Lossless, Pwr(1e-3), top];
        for (bad, ladder) in [
            (Pwr(f64::NAN), rung(Pwr(f64::NAN))),
            (Pwr(1.5), rung(Pwr(1.5))),
            (Absolute(1e-2), rung(Absolute(1e-2))),
            (Pwr(f64::INFINITY), rung(Pwr(f64::INFINITY))),
            (Pwr(-0.1), vec![Pwr(-0.1), Pwr(1e-3)]),
        ] {
            let base = SimConfig::default().with_block_log2(4);
            for cfg in [
                base.clone().with_fixed_bound(bad),
                SimConfig { ladder, ..base },
            ] {
                let err = cfg.validate(12).expect_err(&format!("{bad} accepted"));
                assert!(err.contains("ladder level"), "{bad}: {err}");
            }
        }
        let ok = SimConfig::default()
            .with_block_log2(4)
            .with_fixed_bound(Pwr(0.5));
        assert!(ok.validate(12).is_ok());
    }

    #[test]
    fn validation_catches_bad_ladder() {
        let mut c = SimConfig {
            ladder: vec![],
            ..SimConfig::default()
        };
        assert!(c.validate(20).is_err());
        c.ladder = vec![
            ErrorBound::PointwiseRelative(1e-2),
            ErrorBound::PointwiseRelative(1e-3),
        ];
        assert!(c.validate(20).is_err());
    }
}
