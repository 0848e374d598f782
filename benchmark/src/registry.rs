//! The metric tables: every name the benchmark prints, with its unit,
//! direction and (end to end) regression bound. `BENCHMARK.json` is
//! generated from these tables by `benchmark manifest`.

use crate::json::Json;
use crate::workloads;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a metric behaves between two runs of the same code and seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Repeat {
    /// Read off a clock: compared against the bound, never exactly.
    Timed,
    /// Computed from the inputs alone: repeats exactly.
    Exact,
    /// A count or size that depends on thread timing by design (staging
    /// and write-behind occupancy, preemption points).
    Loose,
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    pub repeat: Repeat,
}

/// Share by which a timed end-to-end metric may get worse. The job
/// latencies of `server_mix` are held to it too, by `check-repeat`.
///
/// Not the issue's 0.10. A bound has to be three times the spread ten
/// runs show, or innocent changes get rejected at random, and on the
/// shared 2-vCPU reference box ten runs of the two-thread workloads
/// spread 3-10 % in an ordinary quarter of an hour and 18 % in a bad one,
/// even with the fastest-sample rule of `Metrics::set_timed`; whole sets
/// taken twenty minutes apart differed by up to 6 %, once by 11 %.
pub const TIMED_BOUND: f64 = 0.25;

/// The end-to-end metrics, printed for every workload by the untraced
/// pass. Submit -> `Done` latency is not here: it only exists on
/// `server_mix`, and the result line of the untraced pass carries every
/// metric of this table on every workload. It is `server.job_p50_s` /
/// `server.job_p95_s` of the per-layer table, which the untraced pass of
/// `server_mix` measures as well, over all its timed batches.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: TIMED_BOUND,
        repeat: Repeat::Timed,
    },
    EndToEnd {
        name: "run_s",
        unit: "s",
        better: Better::Lower,
        bound: TIMED_BOUND,
        repeat: Repeat::Timed,
    },
    EndToEnd {
        name: "peak_mem_bytes",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.01,
        repeat: Repeat::Exact,
    },
    EndToEnd {
        name: "min_ratio",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.01,
        repeat: Repeat::Exact,
    },
    EndToEnd {
        name: "fidelity",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.001,
        repeat: Repeat::Exact,
    },
    EndToEnd {
        name: "fidelity_lower_bound",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.001,
        repeat: Repeat::Exact,
    },
];

#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub repeat: Repeat,
}

const fn layer(name: &'static str, unit: &'static str, better: Better, repeat: Repeat) -> Layer {
    Layer {
        name,
        unit,
        better,
        repeat,
    }
}

const fn secs(name: &'static str) -> Layer {
    layer(name, "s", Better::Lower, Repeat::Timed)
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> Layer {
    layer(name, unit, better, Repeat::Exact)
}

const fn loose(name: &'static str, unit: &'static str, better: Better) -> Layer {
    layer(name, unit, better, Repeat::Loose)
}

use Better::{Higher, Lower};

/// The per-layer metrics, printed for every workload by the traced pass
/// (0 where the layer does no work on that workload).
pub const PER_LAYER: &[Layer] = &[
    // qcs-circuits
    secs("circuits.schedule_compile_s"),
    secs("circuits.access_plan_s"),
    exact("circuits.waves", "count", Lower),
    exact("circuits.fused_gates_per_wave", "ratio", Higher),
    // qcs-compress: stage replays over the workload's block corpus
    secs("compress.qzstd_compress_s"),
    secs("compress.qzstd_decompress_s"),
    secs("compress.lz77_compress_s"),
    secs("compress.lz77_decompress_s"),
    secs("compress.huffman_encode_s"),
    secs("compress.huffman_decode_s"),
    secs("compress.c_compress_s"),
    secs("compress.c_decompress_s"),
    secs("compress.trunc_pack_s"),
    secs("compress.frame_encode_s"),
    secs("compress.frame_parse_s"),
    exact("compress.bytes_in", "bytes", Lower),
    exact("compress.bytes_out", "bytes", Lower),
    exact("compress.ratio", "ratio", Higher),
    layer("compress.compress_mb_per_s", "MB/s", Higher, Repeat::Timed),
    layer(
        "compress.decompress_mb_per_s",
        "MB/s",
        Higher,
        Repeat::Timed,
    ),
    // qcs-statevec
    secs("statevec.kernel_s"),
    layer("statevec.amps_per_s", "1/s", Higher, Repeat::Timed),
    exact("statevec.bytes_moved_computed", "bytes", Lower),
    // qcs-core::block
    secs("block.compress_pooled_s"),
    secs("block.decompress_s"),
    loose("block.codec_allocs", "count", Lower),
    loose("block.scratch_reuse_hits", "count", Higher),
    // qcs-core::cache (shared by the rank threads, so LRU order and with
    // it the hit count follow their interleaving)
    loose("cache.hits", "count", Higher),
    loose("cache.misses", "count", Lower),
    loose("cache.hit_ratio", "ratio", Higher),
    // qcs-core::engine
    secs("engine.construct_s"),
    secs("engine.compress_s"),
    secs("engine.decompress_s"),
    secs("engine.compute_s"),
    secs("engine.comm_s"),
    secs("engine.spill_io_s"),
    secs("engine.other_s"),
    exact("engine.items", "count", Lower),
    secs("engine.item_p50_s"),
    secs("engine.item_p95_s"),
    exact("engine.escalations", "count", Lower),
    exact("engine.gates", "count", Higher),
    // qcs-core::store
    loose("store.spills", "count", Lower),
    loose("store.fetches", "count", Lower),
    loose("store.blocking_fetches", "count", Lower),
    loose("store.prefetch_hit_ratio", "ratio", Higher),
    loose("store.spill_bytes", "bytes", Lower),
    loose("store.fetch_bytes", "bytes", Lower),
    secs("store.write_behind_s"),
    secs("store.prefetch_s"),
    secs("store.replay_put_s"),
    secs("store.replay_take_s"),
    // qcs-core::partial
    exact("partial.decodes", "count", Higher),
    exact("partial.segments_decoded", "count", Lower),
    exact("partial.segments_full", "count", Lower),
    exact("partial.segment_ratio", "ratio", Lower),
    exact("partial.bytes_read", "bytes", Lower),
    exact("partial.bytes_full", "bytes", Lower),
    // qcs-cluster
    exact("cluster.exchanges", "count", Lower),
    exact("cluster.bytes_exchanged", "bytes", Lower),
    secs("cluster.comm_s"),
    secs("cluster.dispatch_rtt_s"),
    // qcs-net / qcs-core::net
    secs("net.frame_rtt_s"),
    layer("net.frame_mb_per_s", "MB/s", Higher, Repeat::Timed),
    secs("net.connect_s"),
    exact("net.relay_hops", "count", Lower),
    // qcs-core::checkpoint
    secs("checkpoint.save_s"),
    secs("checkpoint.load_s"),
    exact("checkpoint.bytes", "bytes", Lower),
    // qcs-server
    secs("server.job_p50_s"),
    secs("server.job_p95_s"),
    secs("server.submit_ack_s"),
    secs("server.queue_wait_s"),
    secs("server.job_run_s"),
    loose("server.suspends", "count", Lower),
    loose("server.resumes", "count", Lower),
    secs("server.spec_encode_s"),
    secs("server.spec_decode_s"),
    secs("server.out_encode_s"),
    secs("server.out_decode_s"),
    layer("server.sched_ops_per_s", "1/s", Higher, Repeat::Timed),
    exact("server.jobs_attempted", "count", Higher),
    exact("server.jobs_failed", "count", Lower),
    // the benchmark's own tracing
    layer("trace.overhead_ratio", "ratio", Lower, Repeat::Timed),
    layer("trace.accounted_ratio", "ratio", Higher, Repeat::Timed),
];

/// `(name, unit)` of every metric a pass prints, in printing order.
pub fn names(traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        PER_LAYER.iter().map(|l| (l.name, l.unit)).collect()
    } else {
        END_TO_END.iter().map(|e| (e.name, e.unit)).collect()
    }
}

/// Unit of metric `name`, whichever table lists it.
pub fn unit_of(name: &str) -> Option<&'static str> {
    names(false)
        .into_iter()
        .chain(names(true))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
}

/// Seconds one run measures for; also `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 20;

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
                "run",
                "--unresolved-ok",
            ]),
        ),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                workloads::NAMES
                    .iter()
                    .map(|n| {
                        Json::obj([
                            ("name", Json::str(*n)),
                            ("why", Json::str(workloads::why(n))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|e| {
                        Json::obj([
                            ("name", Json::str(e.name)),
                            ("unit", Json::str(e.unit)),
                            ("better", Json::str(e.better.as_str())),
                            ("bound", Json::Num(e.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|l| {
                        Json::obj([
                            ("name", Json::str(l.name)),
                            ("unit", Json::str(l.unit)),
                            ("better", Json::str(l.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let all = names(false).into_iter().chain(names(true));
        for (name, unit) in all.chain(workloads::NAMES.iter().map(|n| (*n, "s"))) {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
        for n in workloads::NAMES {
            assert!(workloads::why(n).len() <= 200, "{n}");
        }
        assert!(END_TO_END.iter().any(|e| e.name == "setup_s"));
    }
}
