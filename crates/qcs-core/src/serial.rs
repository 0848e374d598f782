//! Wire layouts of [`SimConfig`] and [`SimReport`] — what the job server
//! (`qcs-server`) submits configs and streams reports through, and what a
//! rank daemon's handshake carries.
//!
//! Each layout is one [`qcs_net::wire!`] declaration: the field list below
//! *is* the byte order, and `put`, `take` and the allocation bound
//! `MIN_LEN` all derive from it (see [`mod@qcs_net::wire`]). Decoders never
//! panic on hostile input — truncated or corrupt bytes surface as a typed
//! [`NetError`] (pinned, bytes included, by `qcs-net/tests/prop_wire.rs`).

use crate::config::{RemoteConfig, SimConfig, SpillConfig};
use crate::engine::SimReport;
use crate::store::Eviction;
use qcs_cluster::TimeBreakdown;
use qcs_compress::{CodecId, ErrorBound};
use qcs_net::wire::Wire;
use qcs_net::{wire, Cursor, NetError};
use std::path::PathBuf;
use std::time::Duration;

wire! { impl enum Eviction { 0 => Lru {}, 1 => PlannedMin {} } }

wire! {
    impl struct SpillConfig {
        resident_blocks: usize,
        dir: Option<PathBuf>,
        eviction: Eviction,
        write_behind: bool,
        shards: usize,
    }
}

wire! {
    impl struct RemoteConfig {
        endpoints: Vec<String>,
        connect_attempts: u32,
        connect_backoff_ms: u64,
        io_timeout_ms: Option<u64>,
    }
}

wire! {
    impl struct SimConfig {
        block_log2: u32,
        ranks_log2: u32,
        threads_per_rank: Option<usize>,
        memory_budget: Option<u64>,
        lossy_codec: CodecId,
        ladder: Vec<ErrorBound>,
        cache_lines: usize,
        recompress_on_escalate: bool,
        fusion: bool,
        max_batch_gates: usize,
        spill: Option<SpillConfig>,
        prefetch: bool,
        remote: Option<RemoteConfig>,
    }
}

wire! {
    impl struct SimReport {
        num_qubits: u32,
        gates: usize,
        wall_time: Duration,
        breakdown: TimeBreakdown as BreakdownWire,
        fidelity_lower_bound: f64,
        current_bound: ErrorBound,
        escalations: u64,
        min_compression_ratio: f64,
        peak_memory_bytes: u64,
        uncompressed_bytes: u128,
        cache_hits: u64,
        cache_misses: u64,
    }
}

/// A [`TimeBreakdown`] travels as its array form: one `u64` per field of
/// the table in `qcs_cluster::metrics`, in table order.
pub(crate) struct BreakdownWire;

impl Wire<TimeBreakdown> for BreakdownWire {
    const MIN_LEN: usize = 8 * TimeBreakdown::FIELDS;
    fn put(b: &TimeBreakdown, buf: &mut Vec<u8>) {
        for v in b.to_array() {
            u64::put(&v, buf);
        }
    }
    fn take(cur: &mut Cursor) -> Result<TimeBreakdown, NetError> {
        let mut fields = [0u64; TimeBreakdown::FIELDS];
        for v in &mut fields {
            *v = u64::take(cur)?;
        }
        Ok(TimeBreakdown::from_array(fields))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_net::wire::{decode, encode};

    #[test]
    fn config_round_trips_with_all_options_set() {
        let cfg = SimConfig::default()
            .with_block_log2(10)
            .with_ranks_log2(2)
            .with_memory_budget(1 << 24)
            .with_spill(4)
            .with_spill_dir(PathBuf::from("/tmp/qcs-spill"))
            .with_eviction(Eviction::PlannedMin)
            .with_write_behind(true)
            .with_spill_shards(4)
            .with_remote(vec!["127.0.0.1:9000"]);
        assert_eq!(decode::<SimConfig>(&encode(&cfg)).unwrap(), cfg);
    }

    #[test]
    fn config_round_trips_defaults() {
        let cfg = SimConfig::default();
        assert_eq!(decode::<SimConfig>(&encode(&cfg)).unwrap(), cfg);
    }

    #[test]
    fn report_round_trips() {
        let report = SimReport {
            num_qubits: 20,
            gates: 1234,
            wall_time: Duration::from_millis(42),
            // Every table field distinct and non-zero, whatever the table holds.
            breakdown: TimeBreakdown::from_array(std::array::from_fn(|i| 3 + i as u64)),
            fidelity_lower_bound: 0.99,
            current_bound: ErrorBound::Absolute(1e-4),
            escalations: 2,
            min_compression_ratio: 3.5,
            peak_memory_bytes: 1 << 20,
            uncompressed_bytes: (1u128 << 70) | 99,
            cache_hits: 1,
            cache_misses: 2,
        };
        assert_eq!(decode::<SimReport>(&encode(&report)).unwrap(), report);
    }

    #[test]
    fn truncated_config_is_a_typed_error() {
        let buf = encode(&SimConfig::default());
        for len in 0..buf.len() {
            match decode::<SimConfig>(&buf[..len]) {
                Err(NetError::Corrupt(_)) | Err(NetError::Protocol(_)) => {}
                Ok(_) => panic!("truncation to {len} bytes decoded successfully"),
                Err(e) => panic!("unexpected error kind at {len}: {e}"),
            }
        }
    }
}
