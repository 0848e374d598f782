//! Per-layer replays: each layer's public functions timed on their own,
//! over a block corpus captured from the workload's own run.

use crate::outcome::{Checks, Metrics};
use crate::sim::build_engine;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::SimWorkload;
use qcs_circuits::{schedule_circuit, AccessPlan, FusedGate, Schedule, ScheduledOp};
use qcs_cluster::exec::{ClusterSim, Worker};
use qcs_compress::trunc::SolutionC;
use qcs_compress::{
    f64s_to_bytes, frame, huffman, lz77, qzstd, Codec, CodecId, ErrorBound, DEFAULT_SEGMENT_VALUES,
};
use qcs_core::store::SpillOptions;
use qcs_core::{
    checkpoint, BlockCodec, BlockStore, CompressedBlock, RunOutcome, SpillStore, WaveControl,
};
use qcs_statevec::kernels::{apply_cross, apply_in_block};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Timed passes per replayed stage; the median is reported.
const PASSES: usize = 3;

/// [`time_passes`] of a stage that works through `inputs`; 0 when there are
/// none, so a stage that does no work on a workload reads exactly 0.
fn time_over<T>(inputs: &[T], f: impl FnMut()) -> f64 {
    if inputs.is_empty() {
        0.0
    } else {
        time_passes(f)
    }
}

/// Median seconds of `PASSES` calls of `f`.
pub fn time_passes(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&samples)
}

/// Raw blocks of the state at four evenly spaced points of the run, each
/// with the ladder bound in force when it was taken, plus the whole final
/// state.
pub struct Corpus {
    pub block_f64s: usize,
    pub blocks: Vec<(Vec<f64>, ErrorBound)>,
    pub final_state: Vec<f64>,
}

/// Blocks kept per snapshot: enough to be representative, few enough that
/// three replay passes over every stage stay within a couple of seconds.
const BLOCKS_PER_SNAPSHOT: usize = 8;

/// Run `w` once, suspending at four evenly spaced items through
/// `run_schedule_observed` to snapshot the state, then resuming.
pub fn capture_corpus(
    w: &SimWorkload,
    schedule: &Schedule,
    seed: u64,
    tmp: &Path,
) -> Result<Corpus, String> {
    let mut off = Tracer::new(false, 0);
    let (mut engine, _) = build_engine(w, tmp, &mut off, None)?;
    let items = schedule.items().len();
    let block_f64s = 2usize << w.cfg.block_log2;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut blocks = Vec::new();
    let mut final_state = Vec::new();
    let mut start = 0;
    for quarter in 1..=4 {
        let stop = (items * quarter / 4).max(start + 1).min(items);
        let outcome = engine
            .sim_mut()
            .run_schedule_observed(schedule, &mut rng, start, &mut |st| {
                if st.item + 1 == stop && stop < items {
                    WaveControl::Suspend
                } else {
                    WaveControl::Continue
                }
            })
            .map_err(|e| e.to_string())?;
        let sim = engine.sim();
        let state = sim.snapshot_f64().map_err(|e| e.to_string())?;
        let bound = sim.current_bound();
        let n_blocks = state.len() / block_f64s;
        let step = (n_blocks / BLOCKS_PER_SNAPSHOT).max(1);
        for b in (0..n_blocks).step_by(step).take(BLOCKS_PER_SNAPSHOT) {
            blocks.push((state[b * block_f64s..(b + 1) * block_f64s].to_vec(), bound));
        }
        match outcome {
            RunOutcome::Suspended { next_item } => start = next_item,
            RunOutcome::Completed => {
                final_state = state;
                break;
            }
            RunOutcome::Cancelled { .. } => return Err("corpus run was cancelled".into()),
        }
    }
    Ok(Corpus {
        block_f64s,
        blocks,
        final_state,
    })
}

/// `circuits.*`: scheduling and access planning, timed on their own.
pub fn circuits(m: &mut Metrics, w: &SimWorkload, schedule: &Schedule, plan: &AccessPlan) {
    let policy = w.cfg.fusion_policy();
    m.set(
        "circuits.schedule_compile_s",
        time_passes(|| {
            black_box(schedule_circuit(black_box(&w.circuit), &policy));
        }),
    );
    m.set(
        "circuits.access_plan_s",
        time_passes(|| {
            black_box(AccessPlan::for_schedule(
                black_box(schedule),
                w.cfg.ranks_log2,
                w.cfg.block_log2,
            ));
        }),
    );
    let waves: usize = (0..plan.len()).map(|i| plan.item_waves(i).len()).sum();
    m.set("circuits.waves", waves as f64);
    m.set(
        "circuits.fused_gates_per_wave",
        schedule.stats().fused_gates as f64 / waves.max(1) as f64,
    );
}

/// True when `b` has `a`'s length and every value of it is within `bound`
/// of its original.
pub fn within_bound(a: &[f64], b: &[f64], bound: ErrorBound) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match bound {
            ErrorBound::Lossless => x.to_bits() == y.to_bits(),
            ErrorBound::PointwiseRelative(eps) => (x - y).abs() <= eps * x.abs(),
            ErrorBound::Absolute(e) => (x - y).abs() <= e,
        })
}

/// `compress.*` and the `block.*` timings: the block seam, then each codec
/// stage beneath it, over the same corpus.
///
/// Lossless blocks go through qzstd at its entropy level (LZ77 then
/// Huffman); lossy blocks through Solution C (truncate + XOR + bit-pack,
/// then qzstd at its fast, LZ77-only level per 1024-value segment). The
/// `qzstd_*` and `lz77_*` rows add up both uses; `huffman_*` only exists
/// on the lossless path. `trunc_pack_s` is derived, not timed: Solution C
/// compress time minus the backend replayed on the very same bodies.
pub fn codec_stages(m: &mut Metrics, corpus: &Corpus, lossy: CodecId, checks: &mut Checks) {
    // Block seam.
    let bc = BlockCodec::new(lossy);
    bc.prewarm(corpus.block_f64s, 4);
    let mut compressed: Vec<CompressedBlock> = Vec::new();
    m.set(
        "block.compress_pooled_s",
        time_passes(|| {
            compressed.clear();
            for (data, bound) in &corpus.blocks {
                compressed.push(
                    bc.compress_pooled(data, *bound)
                        .expect("corpus block compresses"),
                );
            }
        }),
    );
    let mut out = Vec::with_capacity(corpus.block_f64s);
    let block_decompress_s = time_passes(|| {
        for blk in &compressed {
            bc.decompress(blk, &mut out)
                .expect("corpus block decompresses");
            black_box(&out);
        }
    });
    m.set("block.decompress_s", block_decompress_s);
    for ((data, bound), blk) in corpus.blocks.iter().zip(&compressed) {
        bc.decompress(blk, &mut out)
            .expect("corpus block decompresses");
        checks.expect(within_bound(data, &out, *bound), || {
            format!("corpus block leaves {bound:?} after a round trip")
        });
    }
    let bytes_in = (corpus.blocks.len() * corpus.block_f64s * 8) as f64;
    let bytes_out: f64 = compressed.iter().map(|b| b.bytes.len() as f64).sum();
    m.set("compress.bytes_in", bytes_in);
    m.set("compress.bytes_out", bytes_out);
    m.set("compress.ratio", bytes_in / bytes_out.max(1.0));
    let compress_s = m.get("block.compress_pooled_s").expect("just set");
    m.set("compress.compress_mb_per_s", bytes_in / 1e6 / compress_s);
    m.set(
        "compress.decompress_mb_per_s",
        bytes_in / 1e6 / block_decompress_s,
    );

    // Frame encode/parse of the compressed payloads (spill + checkpoint).
    let mut framed = Vec::new();
    m.set(
        "compress.frame_encode_s",
        time_passes(|| {
            framed.clear();
            for blk in &compressed {
                frame::encode_frame_into(blk.codec, blk.bound, &blk.bytes, &mut framed)
                    .expect("payload fits a frame");
            }
        }),
    );
    m.set(
        "compress.frame_parse_s",
        time_passes(|| {
            let mut r = framed.as_slice();
            for _ in &compressed {
                black_box(frame::read_frame(&mut r).expect("frame parses"));
            }
        }),
    );

    // What the qzstd backend sees: raw bytes of lossless blocks at the
    // entropy level, Solution C's packed bodies at the fast level.
    let mut high_inputs: Vec<Vec<u8>> = Vec::new();
    let mut fast_inputs: Vec<Vec<u8>> = Vec::new();
    let lossy_blocks: Vec<&(Vec<f64>, ErrorBound)> =
        corpus.blocks.iter().filter(|(_, b)| b.is_lossy()).collect();
    for (data, bound) in &corpus.blocks {
        if !bound.is_lossy() {
            high_inputs.push(f64s_to_bytes(data));
        }
    }
    if lossy == CodecId::SolutionC {
        let whole = SolutionC::whole_stream();
        let mut container = Vec::new();
        for (data, bound) in &lossy_blocks {
            for slice in data.chunks(DEFAULT_SEGMENT_VALUES) {
                whole
                    .compress_into(slice, *bound, &mut container)
                    .expect("segment compresses");
                let mut body = Vec::new();
                qzstd::decompress_into(&container, &mut body).expect("own container decodes");
                fast_inputs.push(body);
            }
        }
    }

    // Solution C end to end on the lossy blocks.
    let codec = lossy.build();
    let mut c_streams: Vec<Vec<u8>> = lossy_blocks.iter().map(|_| Vec::new()).collect();
    let c_compress_s = time_over(&lossy_blocks, || {
        for ((data, bound), stream) in lossy_blocks.iter().zip(c_streams.iter_mut()) {
            codec
                .compress_into(data, *bound, stream)
                .expect("lossy block compresses");
        }
    });
    m.set("compress.c_compress_s", c_compress_s);
    m.set(
        "compress.c_decompress_s",
        time_over(&lossy_blocks, || {
            for stream in &c_streams {
                codec
                    .decompress_into(stream, &mut out)
                    .expect("lossy block decompresses");
                black_box(&out);
            }
        }),
    );

    // qzstd containers, then its two stages on the same inputs.
    let mut sink = Vec::new();
    let mut containers: Vec<Vec<u8>> = Vec::new();
    let fast_backend_s = time_over(&fast_inputs, || {
        for body in &fast_inputs {
            sink.clear();
            qzstd::compress_into(body, qzstd::Level::Fast, &mut sink);
            black_box(&sink);
        }
    });
    let high_backend_s = time_over(&high_inputs, || {
        containers.clear();
        for raw in &high_inputs {
            let mut c = Vec::new();
            qzstd::compress_into(raw, qzstd::Level::High, &mut c);
            containers.push(c);
        }
    });
    m.set("compress.qzstd_compress_s", fast_backend_s + high_backend_s);
    m.set(
        "compress.trunc_pack_s",
        (c_compress_s - fast_backend_s).max(0.0),
    );
    for body in &fast_inputs {
        let mut c = Vec::new();
        qzstd::compress_into(body, qzstd::Level::Fast, &mut c);
        containers.push(c);
    }
    m.set(
        "compress.qzstd_decompress_s",
        time_passes(|| {
            for c in &containers {
                sink.clear();
                qzstd::decompress_into(c, &mut sink).expect("own container decodes");
                black_box(&sink);
            }
        }),
    );
    let mut lz_streams: Vec<Vec<u8>> = Vec::new();
    m.set(
        "compress.lz77_compress_s",
        time_passes(|| {
            lz_streams.clear();
            for input in high_inputs.iter().chain(&fast_inputs) {
                let mut lz = Vec::new();
                lz77::compress_into(input, &mut lz);
                lz_streams.push(lz);
            }
        }),
    );
    m.set(
        "compress.lz77_decompress_s",
        time_passes(|| {
            for lz in &lz_streams {
                sink.clear();
                lz77::decompress_into(lz, &mut sink).expect("own lz stream decodes");
                black_box(&sink);
            }
        }),
    );
    // Huffman runs over the LZ streams of the lossless blocks only.
    let huff_inputs = &lz_streams[..high_inputs.len()];
    let mut huff_streams: Vec<Vec<u8>> = Vec::new();
    m.set(
        "compress.huffman_encode_s",
        time_over(huff_inputs, || {
            huff_streams.clear();
            for lz in huff_inputs {
                let mut h = Vec::new();
                huffman::encode_bytes_into(lz, &mut h);
                huff_streams.push(h);
            }
        }),
    );
    m.set(
        "compress.huffman_decode_s",
        time_over(huff_inputs, || {
            for h in &huff_streams {
                sink.clear();
                huffman::decode_bytes_into(h, &mut sink).expect("own huffman stream decodes");
                black_box(&sink);
            }
        }),
    );
}

/// Controls of a fused gate, split by where the control qubit lives.
struct Routed<'a> {
    gate: &'a FusedGate,
    /// Control mask over in-block amplitude offsets.
    offset_cmask: usize,
    /// Control mask over the global block index (block and rank bits).
    block_cmask: usize,
}

fn route(gate: &FusedGate, block_log2: u32) -> Routed<'_> {
    let (mut offset_cmask, mut block_cmask) = (0usize, 0usize);
    for &c in &gate.op.controls {
        if (c as u32) < block_log2 {
            offset_cmask |= 1 << c;
        } else {
            block_cmask |= 1 << (c as u32 - block_log2);
        }
    }
    Routed {
        gate,
        offset_cmask,
        block_cmask,
    }
}

/// `statevec.*`: the workload's fused gates applied by the raw kernels to
/// uncompressed blocks — what a repetition would cost with a free codec.
/// Rank bits are treated as the top bits of a global block index, so
/// inter-block and inter-rank targets both go through `apply_cross`.
pub fn kernels(m: &mut Metrics, schedule: &Schedule, block_log2: u32, corpus: &Corpus) {
    let mut blocks: Vec<Vec<f64>> = corpus
        .final_state
        .chunks(corpus.block_f64s)
        .map(<[f64]>::to_vec)
        .collect();
    let gates: Vec<Routed> = schedule
        .items()
        .iter()
        .flat_map(|item| match item {
            ScheduledOp::Batch(b) => b.gates().iter().collect::<Vec<_>>(),
            ScheduledOp::Gate(g) => vec![g],
            ScheduledOp::Bare { .. } => Vec::new(),
        })
        .map(|g| route(g, block_log2))
        .collect();
    let block_amps = (corpus.block_f64s / 2) as f64;
    let mut amps_touched = 0.0;
    let start = Instant::now();
    for r in &gates {
        let target = r.gate.op.target as u32;
        if target < block_log2 {
            for (b, buf) in blocks.iter_mut().enumerate() {
                if b & r.block_cmask == r.block_cmask {
                    apply_in_block(buf, target, &r.gate.op.gate, r.offset_cmask);
                    amps_touched += block_amps;
                }
            }
        } else {
            let stride = 1usize << (target - block_log2);
            for b in 0..blocks.len() {
                if b & stride != 0 || b & r.block_cmask != r.block_cmask {
                    continue;
                }
                let (lo, hi) = blocks.split_at_mut(b | stride);
                apply_cross(&mut lo[b], &mut hi[0], &r.gate.op.gate, r.offset_cmask);
                amps_touched += 2.0 * block_amps;
            }
        }
    }
    let secs = start.elapsed().as_secs_f64();
    black_box(&blocks);
    m.set("statevec.kernel_s", secs);
    m.set("statevec.amps_per_s", amps_touched / secs.max(1e-12));
    // Each touched amplitude is read and written once: 2 x 16 bytes.
    m.set("statevec.bytes_moved_computed", amps_touched * 32.0);
}

/// `store.replay_*`: a standalone `SpillStore` under the workload's
/// residency cap, driven through the plan's access order with no codec
/// and no compute in between.
pub fn store(
    m: &mut Metrics,
    w: &SimWorkload,
    plan: &AccessPlan,
    corpus: &Corpus,
    tmp: &Path,
) -> Result<(), String> {
    let Some(spill) = &w.cfg.spill else {
        return Ok(());
    };
    let bc = BlockCodec::new(w.cfg.lossy_codec);
    let bound = corpus
        .blocks
        .last()
        .map(|(_, b)| *b)
        .unwrap_or(ErrorBound::Lossless);
    let blocks: Vec<Option<CompressedBlock>> = corpus
        .final_state
        .chunks(corpus.block_f64s)
        .map(|data| bc.compress_pooled(data, bound).map(Some))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let store = SpillStore::create_with(
        tmp,
        "replay",
        spill.resident_blocks,
        qcs_cluster::Metrics::new(),
        blocks,
        SpillOptions {
            prefetch: w.cfg.prefetch,
            dir_guard: None,
            eviction: spill.eviction,
            write_behind: spill.write_behind,
            shards: spill.shards,
        },
    )
    .map_err(|e| e.to_string())?;
    let order = plan.rank_access_order(0, 0);
    if store.wants_plan() {
        store.plan_accesses(&order);
    }
    let (mut take_s, mut put_s) = (0.0, 0.0);
    for &slot in &order {
        let t = Instant::now();
        let blk = store.take(slot).map_err(|e| e.to_string())?;
        take_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        store.put(slot, blk).map_err(|e| e.to_string())?;
        put_s += t.elapsed().as_secs_f64();
    }
    store.flush().map_err(|e| e.to_string())?;
    m.set("store.replay_take_s", take_s);
    m.set("store.replay_put_s", put_s);
    Ok(())
}

/// A rank worker that does nothing: what is left is the dispatch cost.
struct Nop;

impl Worker for Nop {
    type Cmd = ();
    type Resp = ();
    fn handle(&mut self, _cmd: ()) {}
}

/// `cluster.dispatch_rtt_s`: one scatter/gather wave over two idle ranks.
pub fn cluster(m: &mut Metrics, multi_rank: bool) {
    if !multi_rank {
        return;
    }
    let sim = ClusterSim::new(vec![Nop, Nop], Some(1));
    let batch = 500;
    m.set(
        "cluster.dispatch_rtt_s",
        time_passes(|| {
            for _ in 0..batch {
                sim.broadcast(()).expect("idle ranks answer");
            }
        }) / batch as f64,
    );
}

/// `net.*`: `send_frame`/`recv_frame` of a compressed-block-sized body
/// over a loopback pair, and the supervised connect.
pub fn net(m: &mut Metrics, remote: bool, corpus: &Corpus) -> Result<(), String> {
    if !remote {
        return Ok(());
    }
    let io = |e: std::io::Error| e.to_string();
    let net = |e: qcs_net::NetError| e.to_string();
    let (data, bound) = corpus.blocks.last().ok_or("empty corpus")?;
    let body = BlockCodec::new(CodecId::SolutionC)
        .compress_pooled(data, *bound)
        .map_err(|e| e.to_string())?
        .bytes
        .to_vec();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?.to_string();
    let connects = 5;
    // Echo every frame back until the peer hangs up, one peer at a time.
    let echo = std::thread::spawn(move || {
        for _ in 0..connects {
            let Ok((mut stream, _)) = listener.accept() else {
                return;
            };
            let _ = stream.set_nodelay(true);
            while let Ok((kind, body)) = qcs_net::recv_frame(&mut stream) {
                let mut buf = Vec::with_capacity(body.len() + qcs_net::HEADER_LEN);
                if qcs_net::send_frame(&mut buf, kind, &body).is_err()
                    || stream.write_all(&buf).is_err()
                {
                    break;
                }
            }
        }
    });
    let policy = qcs_net::ConnectPolicy::default();
    let mut connect_s = Vec::new();
    let mut rtt_s = Vec::new();
    for i in 0..connects {
        let t = Instant::now();
        let mut stream = qcs_net::connect_supervised(&addr, &policy).map_err(net)?;
        connect_s.push(t.elapsed().as_secs_f64());
        if i + 1 < connects {
            continue;
        }
        let mut buf = Vec::with_capacity(body.len() + qcs_net::HEADER_LEN);
        for _ in 0..300 {
            let t = Instant::now();
            buf.clear();
            qcs_net::send_frame(&mut buf, 7, &body).map_err(net)?;
            stream.write_all(&buf).map_err(io)?;
            let (_, back) = qcs_net::recv_frame(&mut stream).map_err(net)?;
            rtt_s.push(t.elapsed().as_secs_f64());
            if back.len() != body.len() {
                return Err("echoed frame changed length".into());
            }
        }
    }
    echo.join().map_err(|_| "echo thread panicked")?;
    let rtt = stats::median(&rtt_s);
    m.set("net.connect_s", stats::median(&connect_s));
    m.set("net.frame_rtt_s", rtt);
    m.set("net.frame_mb_per_s", 2.0 * body.len() as f64 / 1e6 / rtt);
    Ok(())
}

/// `checkpoint.*`: save and load of a half-run simulator — what a
/// preempted job pays once each.
pub fn checkpoint_layer(
    m: &mut Metrics,
    w: &SimWorkload,
    schedule: &Schedule,
    seed: u64,
    tmp: &Path,
) -> Result<(), String> {
    let mut off = Tracer::new(false, 0);
    let (mut engine, _) = build_engine(w, tmp, &mut off, None)?;
    let half = schedule.items().len() / 2;
    let mut rng = StdRng::seed_from_u64(seed);
    engine
        .sim_mut()
        .run_schedule_observed(schedule, &mut rng, 0, &mut |st| {
            if st.item + 1 >= half {
                WaveControl::Suspend
            } else {
                WaveControl::Continue
            }
        })
        .map_err(|e| e.to_string())?;
    let path = tmp.join(format!("replay-{}-{seed}.ckpt", std::process::id()));
    let mut bytes = 0.0;
    let save_s = time_passes(|| {
        checkpoint::save(engine.sim(), &path).expect("checkpoint saves");
        bytes = std::fs::metadata(&path)
            .map(|md| md.len() as f64)
            .unwrap_or(0.0);
    });
    let load_s = time_passes(|| {
        black_box(checkpoint::load(&path, w.cfg.clone()).expect("checkpoint loads"));
    });
    let _ = std::fs::remove_file(&path);
    m.set("checkpoint.save_s", save_s);
    m.set("checkpoint.load_s", load_s);
    m.set("checkpoint.bytes", bytes);
    Ok(())
}
