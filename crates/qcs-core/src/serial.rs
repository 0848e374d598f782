//! Public wire codecs for [`SimConfig`] and [`SimReport`] — the
//! serialization seam the job server (`qcs-server`) submits configs and
//! streams reports through (ROADMAP item 2's "refactor
//! `SimConfig`/`SimReport` to be serializable" first step).
//!
//! The encoding is the same [`qcs_net::wire`] put/take vocabulary the
//! worker protocol uses: little-endian fixed-width scalars, 0/1 presence
//! bytes for options, and length-prefixed strings. Decoders never panic
//! on hostile input — truncated or corrupt bytes surface as a typed
//! [`NetError`] (pinned by `qcs-net/tests/prop_wire.rs`).

use crate::config::{RemoteConfig, SimConfig, SpillConfig};
use crate::engine::SimReport;
use crate::net::{put_bound, put_breakdown, take_bound, take_breakdown};
use crate::store::Eviction;
use qcs_compress::CodecId;
use qcs_net::wire::{put_f64, put_str, put_u32, put_u64, put_u8};
use qcs_net::{Cursor, NetError};
use std::path::PathBuf;
use std::time::Duration;

const EVICTION_LRU: u8 = 0;
const EVICTION_PLANNED_MIN: u8 = 1;

fn put_duration(buf: &mut Vec<u8>, d: Duration) {
    put_u64(buf, u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
}

fn put_opt_u64(buf: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            put_u8(buf, 1);
            put_u64(buf, v);
        }
        None => put_u8(buf, 0),
    }
}

fn take_opt_u64(cur: &mut Cursor) -> Result<Option<u64>, NetError> {
    Ok(if cur.take_u8()? != 0 {
        Some(cur.take_u64()?)
    } else {
        None
    })
}

/// Append a [`SimConfig`] to `buf`.
///
/// Fails only when `spill.dir` is a non-UTF-8 path, which cannot travel
/// portably; every other config encodes.
pub fn put_sim_config(buf: &mut Vec<u8>, cfg: &SimConfig) -> Result<(), NetError> {
    put_u32(buf, cfg.block_log2);
    put_u32(buf, cfg.ranks_log2);
    put_opt_u64(buf, cfg.threads_per_rank.map(|t| t as u64));
    put_opt_u64(buf, cfg.memory_budget);
    put_u8(buf, cfg.lossy_codec as u8);
    put_u32(buf, cfg.ladder.len() as u32);
    for bound in &cfg.ladder {
        put_bound(buf, *bound);
    }
    put_u64(buf, cfg.cache_lines as u64);
    put_u64(buf, cfg.cache_auto_disable_after);
    put_u8(buf, cfg.recompress_on_escalate as u8);
    put_u8(buf, cfg.fusion as u8);
    put_u64(buf, cfg.max_batch_gates as u64);
    match &cfg.spill {
        Some(spill) => {
            put_u8(buf, 1);
            put_u64(buf, spill.resident_blocks as u64);
            match &spill.dir {
                Some(dir) => {
                    let dir = dir.to_str().ok_or_else(|| {
                        NetError::Protocol("spill dir is not UTF-8; cannot serialize".into())
                    })?;
                    put_u8(buf, 1);
                    put_str(buf, dir);
                }
                None => put_u8(buf, 0),
            }
            put_u8(
                buf,
                match spill.eviction {
                    Eviction::Lru => EVICTION_LRU,
                    Eviction::PlannedMin => EVICTION_PLANNED_MIN,
                },
            );
            put_u8(buf, spill.write_behind as u8);
            put_u64(buf, spill.shards as u64);
        }
        None => put_u8(buf, 0),
    }
    put_u8(buf, cfg.prefetch as u8);
    put_u8(buf, cfg.partial_decode as u8);
    match &cfg.remote {
        Some(remote) => {
            put_u8(buf, 1);
            put_u32(buf, remote.endpoints.len() as u32);
            for ep in &remote.endpoints {
                put_str(buf, ep);
            }
            put_u32(buf, remote.connect_attempts);
            put_u64(buf, remote.connect_backoff_ms);
            put_opt_u64(buf, remote.io_timeout_ms);
        }
        None => put_u8(buf, 0),
    }
    Ok(())
}

/// Decode a [`SimConfig`] from `cur` (the inverse of [`put_sim_config`]).
pub fn take_sim_config(cur: &mut Cursor) -> Result<SimConfig, NetError> {
    let block_log2 = cur.take_u32()?;
    let ranks_log2 = cur.take_u32()?;
    let threads_per_rank = take_opt_u64(cur)?.map(|t| t as usize);
    let memory_budget = take_opt_u64(cur)?;
    let lossy_codec = {
        let id = cur.take_u8()?;
        CodecId::from_u8(id).ok_or_else(|| NetError::Corrupt(format!("unknown codec id {id}")))?
    };
    let n = cur.take_count(9)?;
    let mut ladder = Vec::with_capacity(n);
    for _ in 0..n {
        ladder.push(take_bound(cur)?);
    }
    let cache_lines = cur.take_u64()? as usize;
    let cache_auto_disable_after = cur.take_u64()?;
    let recompress_on_escalate = cur.take_u8()? != 0;
    let fusion = cur.take_u8()? != 0;
    let max_batch_gates = cur.take_u64()? as usize;
    let spill = if cur.take_u8()? != 0 {
        let resident_blocks = cur.take_u64()? as usize;
        let dir = if cur.take_u8()? != 0 {
            Some(PathBuf::from(cur.take_str()?))
        } else {
            None
        };
        let eviction = match cur.take_u8()? {
            EVICTION_LRU => Eviction::Lru,
            EVICTION_PLANNED_MIN => Eviction::PlannedMin,
            t => return Err(NetError::Corrupt(format!("unknown eviction tag {t}"))),
        };
        let write_behind = cur.take_u8()? != 0;
        let shards = cur.take_u64()? as usize;
        Some(SpillConfig {
            resident_blocks,
            dir,
            eviction,
            write_behind,
            shards,
        })
    } else {
        None
    };
    let prefetch = cur.take_u8()? != 0;
    let partial_decode = cur.take_u8()? != 0;
    let remote = if cur.take_u8()? != 0 {
        let n = cur.take_count(1)?;
        let mut endpoints = Vec::with_capacity(n);
        for _ in 0..n {
            endpoints.push(cur.take_str()?.to_string());
        }
        Some(RemoteConfig {
            endpoints,
            connect_attempts: cur.take_u32()?,
            connect_backoff_ms: cur.take_u64()?,
            io_timeout_ms: take_opt_u64(cur)?,
        })
    } else {
        None
    };
    Ok(SimConfig {
        block_log2,
        ranks_log2,
        threads_per_rank,
        memory_budget,
        lossy_codec,
        ladder,
        cache_lines,
        cache_auto_disable_after,
        recompress_on_escalate,
        fusion,
        max_batch_gates,
        spill,
        prefetch,
        partial_decode,
        remote,
    })
}

/// Append a [`SimReport`] to `buf`. Infallible: every report encodes.
pub fn put_sim_report(buf: &mut Vec<u8>, report: &SimReport) {
    put_u32(buf, report.num_qubits);
    put_u64(buf, report.gates as u64);
    put_duration(buf, report.wall_time);
    put_breakdown(buf, &report.breakdown);
    put_f64(buf, report.fidelity_lower_bound);
    put_bound(buf, report.current_bound);
    put_u64(buf, report.escalations);
    put_f64(buf, report.min_compression_ratio);
    put_u64(buf, report.peak_memory_bytes);
    // u128 as two u64 halves, high first.
    put_u64(buf, (report.uncompressed_bytes >> 64) as u64);
    put_u64(buf, report.uncompressed_bytes as u64);
    put_u64(buf, report.cache_hits);
    put_u64(buf, report.cache_misses);
}

/// Decode a [`SimReport`] from `cur` (the inverse of [`put_sim_report`]).
pub fn take_sim_report(cur: &mut Cursor) -> Result<SimReport, NetError> {
    let num_qubits = cur.take_u32()?;
    let gates = cur.take_u64()? as usize;
    let wall_time = Duration::from_nanos(cur.take_u64()?);
    let breakdown = take_breakdown(cur)?;
    let fidelity_lower_bound = cur.take_f64()?;
    let current_bound = take_bound(cur)?;
    let escalations = cur.take_u64()?;
    let min_compression_ratio = cur.take_f64()?;
    let peak_memory_bytes = cur.take_u64()?;
    let uncompressed_bytes = ((cur.take_u64()? as u128) << 64) | cur.take_u64()? as u128;
    Ok(SimReport {
        num_qubits,
        gates,
        wall_time,
        breakdown,
        fidelity_lower_bound,
        current_bound,
        escalations,
        min_compression_ratio,
        peak_memory_bytes,
        uncompressed_bytes,
        cache_hits: cur.take_u64()?,
        cache_misses: cur.take_u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Eviction;
    use qcs_cluster::TimeBreakdown;

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
        let mut buf = Vec::new();
        put_sim_config(&mut buf, &cfg).unwrap();
        let mut cur = Cursor::new(&buf);
        let back = take_sim_config(&mut cur).unwrap();
        cur.finish().unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn config_round_trips_defaults() {
        let cfg = SimConfig::default();
        let mut buf = Vec::new();
        put_sim_config(&mut buf, &cfg).unwrap();
        let back = take_sim_config(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(back, cfg);
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
            current_bound: qcs_compress::ErrorBound::Absolute(1e-4),
            escalations: 2,
            min_compression_ratio: 3.5,
            peak_memory_bytes: 1 << 20,
            uncompressed_bytes: (1u128 << 70) | 99,
            cache_hits: 1,
            cache_misses: 2,
        };
        let mut buf = Vec::new();
        put_sim_report(&mut buf, &report);
        let mut cur = Cursor::new(&buf);
        let back = take_sim_report(&mut cur).unwrap();
        cur.finish().unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn truncated_config_is_a_typed_error() {
        let mut buf = Vec::new();
        put_sim_config(&mut buf, &SimConfig::default()).unwrap();
        for len in 0..buf.len() {
            let mut cur = Cursor::new(&buf[..len]);
            match take_sim_config(&mut cur) {
                Err(NetError::Corrupt(_)) | Err(NetError::Protocol(_)) => {}
                Ok(_) => panic!("truncation to {len} bytes decoded successfully"),
                Err(e) => panic!("unexpected error kind at {len}: {e}"),
            }
        }
    }
}
