//! Socket transport for the `WorkerCmd` protocol (`crate::worker`): the
//! facade's rank workers hosted in another process (or on another
//! machine) behind `qcsim-workerd`, driven over TCP.
//!
//! The in-process backend pairs the facade with its `RankWorker`s over
//! channels; this module replaces each worker with a
//! `RemoteWorkerClient` stub speaking length-prefixed frames
//! ([`qcs_net`]) to a daemon that hosts the real worker. The seam is the
//! same [`qcs_cluster::exec::Worker`] trait, so the facade's wave
//! choreography — and its metrics accounting — is unchanged.
//!
//! ## Protocol
//!
//! One TCP connection per rank, strictly sequenced (at most one command
//! in flight):
//!
//! ```text
//!  coordinator (ClusterSim thread)           qcsim-workerd daemon
//!  ──────────────────────────────            ────────────────────
//!  Hello  {version, rank, qubits,     ─▶     validate; build the rank's
//!          SimConfig, block table}            RankWorker (own metrics,
//!                                   ◀─ HelloAck cache, store/spill dir)
//!  Cmd    {serialized WorkerCmd}      ─▶     worker.handle(cmd)
//!          ... Relay frames both ways
//!              during an exchange ...
//!                                   ◀─ Done  {result, metrics delta}
//!  ...
//!  Shutdown                           ─▶     drop worker, close
//! ```
//!
//! An inter-rank exchange is bridged through the coordinator: the two
//! paired `RemoteWorkerClient`s still share the engine's in-process
//! duplex link, and each end relays between that link and its own socket
//! with `Relay` frames (block index + the compressed-block frame). On the
//! daemon, a fresh local duplex stands in for the worker's link, with one
//! relay thread per direction bridging it to the socket. Compressed
//! bytes — and only compressed bytes — cross every hop, exactly the
//! paper's MPI exchange with the coordinator standing in for the fabric.
//!
//! End-of-stream is deliberately asymmetric to avoid a two-daemon
//! deadlock: a daemon finishes its worker, joins its outbound relay, and
//! sends `Done` *before* joining its inbound relay; the coordinator drops
//! its link sender only after `Done` arrives, which lets the peer's
//! forwarder send `ExchangeEof` and the daemon's inbound relay exit.
//!
//! ## Supervision
//!
//! Connection establishment retries with bounded exponential backoff
//! ([`RemoteConfig`]); established streams carry read/write timeouts.
//! Mid-run connection loss is fatal to the simulation (the rank's state
//! is gone — the same semantics as a lost MPI rank) but never a panic: it
//! surfaces as a typed [`SimError`] from the wave that observed it, and
//! the daemon side drops the dead rank's worker, which removes any spill
//! segment files it owned.

use crate::block::{BlockCodec, CompressedBlock};
use crate::cache::BlockCache;
use crate::config::{RemoteConfig, SimConfig};
use crate::engine::SimError;
use crate::serial::{put_sim_config, take_sim_config};
use crate::store::{BlockStore, MemStore, SegmentDirGuard, SpillOptions, SpillStore};
use crate::worker::{
    BatchCmd, BatchPlan, BlockMsg, ExchangeCmd, ExchangeRole, GateCmd, Lookahead, RankWorker,
    WaveOut, WorkerCmd, WorkerOut,
};
use qcs_cluster::exec::Worker as _;
use qcs_cluster::{
    duplex, ControlScope, Duplex, DuplexRx, DuplexTx, Layout, Metrics, Route, TimeBreakdown,
};
use qcs_compress::frame as cframe;
use qcs_compress::ErrorBound;
use qcs_net::wire::{put_f64, put_str, put_u32, put_u64, put_u8};
use qcs_net::{recv_frame, send_frame, Cursor, NetError, PROTOCOL_VERSION};
use qcs_statevec::{Complex64, Gate1};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;

// Frame kinds of the worker protocol (the `kind` byte of each qcs-net
// frame).
const K_HELLO: u8 = 1;
const K_HELLO_ACK: u8 = 2;
const K_CMD: u8 = 3;
const K_DONE: u8 = 4;
const K_RELAY: u8 = 5;
const K_EXCHANGE_EOF: u8 = 6;
const K_SHUTDOWN: u8 = 7;

/// Assemble one frame in memory and ship it with a single `write_all`, so
/// a frame is one syscall instead of five header writes.
fn write_frame_to(stream: &mut TcpStream, kind: u8, body: &[u8]) -> Result<(), NetError> {
    let mut buf = Vec::with_capacity(qcs_net::HEADER_LEN + body.len());
    send_frame(&mut buf, kind, body)?;
    stream.write_all(&buf)?;
    Ok(())
}

fn transport_err(rank: usize, context: &str, e: impl std::fmt::Display) -> SimError {
    SimError::Transport(format!("rank {rank}: {context}: {e}"))
}

// --- field codecs --------------------------------------------------------

pub(crate) fn put_bound(buf: &mut Vec<u8>, bound: ErrorBound) {
    put_u8(buf, bound.tag());
    put_f64(buf, bound.magnitude());
}

pub(crate) fn take_bound(cur: &mut Cursor) -> Result<ErrorBound, NetError> {
    let tag = cur.take_u8()?;
    let magnitude = cur.take_f64()?;
    ErrorBound::from_tag(tag, magnitude)
        .ok_or_else(|| NetError::Corrupt(format!("unknown error-bound tag {tag}")))
}

fn put_gate(buf: &mut Vec<u8>, gate: &Gate1) {
    for row in &gate.m {
        for c in row {
            put_f64(buf, c.re);
            put_f64(buf, c.im);
        }
    }
}

fn take_gate(cur: &mut Cursor) -> Result<Gate1, NetError> {
    let mut m = [[Complex64::ZERO; 2]; 2];
    for row in &mut m {
        for c in row.iter_mut() {
            *c = Complex64 {
                re: cur.take_f64()?,
                im: cur.take_f64()?,
            };
        }
    }
    Ok(Gate1 { m })
}

fn put_route(buf: &mut Vec<u8>, route: Route) {
    match route {
        Route::InBlock { offset_bit } => {
            put_u8(buf, 0);
            put_u32(buf, offset_bit);
        }
        Route::InterBlock { block_stride } => {
            put_u8(buf, 1);
            put_u64(buf, block_stride as u64);
        }
        Route::InterRank { rank_stride } => {
            put_u8(buf, 2);
            put_u64(buf, rank_stride as u64);
        }
    }
}

fn take_route(cur: &mut Cursor) -> Result<Route, NetError> {
    match cur.take_u8()? {
        0 => Ok(Route::InBlock {
            offset_bit: cur.take_u32()?,
        }),
        1 => Ok(Route::InterBlock {
            block_stride: cur.take_u64()? as usize,
        }),
        2 => Ok(Route::InterRank {
            rank_stride: cur.take_u64()? as usize,
        }),
        t => Err(NetError::Corrupt(format!("unknown route tag {t}"))),
    }
}

fn put_scope(buf: &mut Vec<u8>, scope: ControlScope) {
    match scope {
        ControlScope::InBlock { offset_bit } => {
            put_u8(buf, 0);
            put_u32(buf, offset_bit);
        }
        ControlScope::BlockSelect { block_bit } => {
            put_u8(buf, 1);
            put_u32(buf, block_bit);
        }
        ControlScope::RankSelect { rank_bit } => {
            put_u8(buf, 2);
            put_u32(buf, rank_bit);
        }
    }
}

fn take_scope(cur: &mut Cursor) -> Result<ControlScope, NetError> {
    let tag = cur.take_u8()?;
    let bit = cur.take_u32()?;
    match tag {
        0 => Ok(ControlScope::InBlock { offset_bit: bit }),
        1 => Ok(ControlScope::BlockSelect { block_bit: bit }),
        2 => Ok(ControlScope::RankSelect { rank_bit: bit }),
        t => Err(NetError::Corrupt(format!("unknown scope tag {t}"))),
    }
}

fn put_lookahead(buf: &mut Vec<u8>, lookahead: &Lookahead) {
    match lookahead {
        Some(slots) => {
            put_u8(buf, 1);
            put_u32(buf, slots.len() as u32);
            for &s in slots.iter() {
                put_u64(buf, s as u64);
            }
        }
        None => put_u8(buf, 0),
    }
}

fn take_lookahead(cur: &mut Cursor) -> Result<Lookahead, NetError> {
    if cur.take_u8()? == 0 {
        return Ok(None);
    }
    let n = cur.take_count(8)?;
    let mut slots = Vec::with_capacity(n);
    for _ in 0..n {
        slots.push(cur.take_u64()? as usize);
    }
    Ok(Some(Arc::new(slots)))
}

/// A compressed block travels as a `qcs_compress` block frame embedded in
/// the message body — codec id, error bound, checksum, and payload in the
/// exact on-disk format, so the spill tier and the wire share one
/// encoding.
fn put_block(buf: &mut Vec<u8>, block: &CompressedBlock) {
    cframe::write_frame(buf, block.codec, block.bound, &block.bytes)
        .expect("in-memory block frame write cannot fail");
}

fn take_block(cur: &mut Cursor) -> Result<CompressedBlock, NetError> {
    let mut r = cur.rest();
    let before = r.len();
    let frame = cframe::read_frame(&mut r)
        .map_err(|e| NetError::Corrupt(format!("embedded block frame: {e}")))?;
    cur.skip(before - r.len())?;
    Ok(CompressedBlock {
        codec: frame.codec,
        bound: frame.bound,
        bytes: frame.payload.into(),
    })
}

/// A [`TimeBreakdown`] travels as its array form: one `u64` per field of
/// the table in `qcs_cluster::metrics`, in table order.
pub(crate) fn put_breakdown(buf: &mut Vec<u8>, b: &TimeBreakdown) {
    for v in b.to_array() {
        put_u64(buf, v);
    }
}

pub(crate) fn take_breakdown(cur: &mut Cursor) -> Result<TimeBreakdown, NetError> {
    let mut fields = [0u64; TimeBreakdown::FIELDS];
    for v in &mut fields {
        *v = cur.take_u64()?;
    }
    Ok(TimeBreakdown::from_array(fields))
}

// --- command / response codecs ------------------------------------------

const CMD_GATE: u8 = 0;
const CMD_EXCHANGE: u8 = 1;
const CMD_BATCH: u8 = 2;
const CMD_COLLAPSE: u8 = 3;
const CMD_RECOMPRESS: u8 = 4;
const CMD_PROB_ONE: u8 = 5;
const CMD_NORM_SQR: u8 = 6;
const CMD_WEIGHTS: u8 = 7;
const CMD_FETCH_BLOCK: u8 = 8;
const CMD_SNAPSHOT: u8 = 9;
const CMD_EXPECTATION_ZZ: u8 = 10;
const CMD_NOP: u8 = 11;

const ROLE_IDLE: u8 = 0;
const ROLE_LEAD: u8 = 1;
const ROLE_FOLLOW: u8 = 2;

/// Serialize a command for the wire. An exchange command's duplex link
/// cannot travel: the link is handed back to the caller (to bridge with
/// Relay frames) and only the role tag is encoded.
fn encode_cmd(cmd: WorkerCmd) -> (Vec<u8>, Option<Duplex<BlockMsg>>) {
    let mut buf = Vec::new();
    let mut link = None;
    match cmd {
        WorkerCmd::Gate(g) => {
            put_u8(&mut buf, CMD_GATE);
            put_u64(&mut buf, g.signature);
            put_gate(&mut buf, &g.gate);
            put_route(&mut buf, g.route);
            put_u64(&mut buf, g.offset_cmask as u64);
            put_u64(&mut buf, g.block_cmask as u64);
            put_u64(&mut buf, g.rank_cmask as u64);
            put_bound(&mut buf, g.bound);
            put_lookahead(&mut buf, &g.lookahead);
        }
        WorkerCmd::Exchange(x) => {
            put_u8(&mut buf, CMD_EXCHANGE);
            put_u64(&mut buf, x.signature);
            put_gate(&mut buf, &x.gate);
            put_u64(&mut buf, x.offset_cmask as u64);
            put_u64(&mut buf, x.block_cmask as u64);
            put_bound(&mut buf, x.bound);
            let role = match x.role {
                ExchangeRole::Idle => ROLE_IDLE,
                ExchangeRole::Lead(l) => {
                    link = Some(l);
                    ROLE_LEAD
                }
                ExchangeRole::Follow(l) => {
                    link = Some(l);
                    ROLE_FOLLOW
                }
            };
            put_u8(&mut buf, role);
            put_lookahead(&mut buf, &x.lookahead);
        }
        WorkerCmd::Batch(b) => {
            put_u8(&mut buf, CMD_BATCH);
            put_u64(&mut buf, b.signature);
            put_bound(&mut buf, b.bound);
            put_lookahead(&mut buf, &b.lookahead);
            put_u32(&mut buf, b.plans.len() as u32);
            for p in b.plans.iter() {
                put_gate(&mut buf, &p.gate);
                put_u32(&mut buf, p.offset_bit);
                put_u64(&mut buf, p.offset_cmask as u64);
                put_u64(&mut buf, p.block_cmask as u64);
                put_u64(&mut buf, p.rank_cmask as u64);
            }
        }
        WorkerCmd::Collapse {
            scope,
            outcome,
            scale,
            bound,
        } => {
            put_u8(&mut buf, CMD_COLLAPSE);
            put_scope(&mut buf, scope);
            put_u8(&mut buf, outcome as u8);
            put_f64(&mut buf, scale);
            put_bound(&mut buf, bound);
        }
        WorkerCmd::Recompress { bound } => {
            put_u8(&mut buf, CMD_RECOMPRESS);
            put_bound(&mut buf, bound);
        }
        WorkerCmd::ProbOne { scope } => {
            put_u8(&mut buf, CMD_PROB_ONE);
            put_scope(&mut buf, scope);
        }
        WorkerCmd::NormSqr => put_u8(&mut buf, CMD_NORM_SQR),
        WorkerCmd::Weights => put_u8(&mut buf, CMD_WEIGHTS),
        WorkerCmd::FetchBlock { block } => {
            put_u8(&mut buf, CMD_FETCH_BLOCK);
            put_u64(&mut buf, block as u64);
        }
        WorkerCmd::SnapshotBlocks => put_u8(&mut buf, CMD_SNAPSHOT),
        WorkerCmd::ExpectationZz { a, b } => {
            put_u8(&mut buf, CMD_EXPECTATION_ZZ);
            put_u64(&mut buf, a as u64);
            put_u64(&mut buf, b as u64);
        }
        WorkerCmd::Nop => put_u8(&mut buf, CMD_NOP),
    }
    (buf, link)
}

/// A decoded daemon-side command: for an exchange, `bridge` is the local
/// duplex end the connection's relay threads pump (the worker holds the
/// other end inside the command's role).
struct DecodedCmd {
    cmd: WorkerCmd,
    bridge: Option<Duplex<BlockMsg>>,
}

fn decode_cmd(body: &[u8]) -> Result<DecodedCmd, NetError> {
    let mut cur = Cursor::new(body);
    let tag = cur.take_u8()?;
    let mut bridge = None;
    let cmd = match tag {
        CMD_GATE => WorkerCmd::Gate(GateCmd {
            signature: cur.take_u64()?,
            gate: take_gate(&mut cur)?,
            route: take_route(&mut cur)?,
            offset_cmask: cur.take_u64()? as usize,
            block_cmask: cur.take_u64()? as usize,
            rank_cmask: cur.take_u64()? as usize,
            bound: take_bound(&mut cur)?,
            lookahead: take_lookahead(&mut cur)?,
        }),
        CMD_EXCHANGE => {
            let signature = cur.take_u64()?;
            let gate = take_gate(&mut cur)?;
            let offset_cmask = cur.take_u64()? as usize;
            let block_cmask = cur.take_u64()? as usize;
            let bound = take_bound(&mut cur)?;
            let role = match cur.take_u8()? {
                ROLE_IDLE => ExchangeRole::Idle,
                role @ (ROLE_LEAD | ROLE_FOLLOW) => {
                    let (worker_end, bridge_end) = duplex();
                    bridge = Some(bridge_end);
                    if role == ROLE_LEAD {
                        ExchangeRole::Lead(worker_end)
                    } else {
                        ExchangeRole::Follow(worker_end)
                    }
                }
                t => return Err(NetError::Corrupt(format!("unknown exchange role {t}"))),
            };
            WorkerCmd::Exchange(ExchangeCmd {
                signature,
                gate,
                offset_cmask,
                block_cmask,
                bound,
                role,
                lookahead: take_lookahead(&mut cur)?,
            })
        }
        CMD_BATCH => {
            let signature = cur.take_u64()?;
            let bound = take_bound(&mut cur)?;
            let lookahead = take_lookahead(&mut cur)?;
            let n = cur.take_count(1)?;
            let mut plans = Vec::with_capacity(n);
            for _ in 0..n {
                plans.push(BatchPlan {
                    gate: take_gate(&mut cur)?,
                    offset_bit: cur.take_u32()?,
                    offset_cmask: cur.take_u64()? as usize,
                    block_cmask: cur.take_u64()? as usize,
                    rank_cmask: cur.take_u64()? as usize,
                });
            }
            WorkerCmd::Batch(BatchCmd {
                plans: Arc::new(plans),
                signature,
                bound,
                lookahead,
            })
        }
        CMD_COLLAPSE => WorkerCmd::Collapse {
            scope: take_scope(&mut cur)?,
            outcome: cur.take_u8()? != 0,
            scale: cur.take_f64()?,
            bound: take_bound(&mut cur)?,
        },
        CMD_RECOMPRESS => WorkerCmd::Recompress {
            bound: take_bound(&mut cur)?,
        },
        CMD_PROB_ONE => WorkerCmd::ProbOne {
            scope: take_scope(&mut cur)?,
        },
        CMD_NORM_SQR => WorkerCmd::NormSqr,
        CMD_WEIGHTS => WorkerCmd::Weights,
        CMD_FETCH_BLOCK => WorkerCmd::FetchBlock {
            block: cur.take_u64()? as usize,
        },
        CMD_SNAPSHOT => WorkerCmd::SnapshotBlocks,
        CMD_EXPECTATION_ZZ => WorkerCmd::ExpectationZz {
            a: cur.take_u64()? as usize,
            b: cur.take_u64()? as usize,
        },
        CMD_NOP => WorkerCmd::Nop,
        t => return Err(NetError::Corrupt(format!("unknown command tag {t}"))),
    };
    cur.finish()?;
    Ok(DecodedCmd { cmd, bridge })
}

const OUT_WAVE: u8 = 0;
const OUT_SCALAR: u8 = 1;
const OUT_WEIGHTS: u8 = 2;
const OUT_BLOCK: u8 = 3;
const OUT_BLOCKS: u8 = 4;

fn put_worker_out(buf: &mut Vec<u8>, out: &WorkerOut) {
    match out {
        WorkerOut::Wave(w) => {
            put_u8(buf, OUT_WAVE);
            put_u8(buf, w.lossy as u8);
            put_u64(buf, w.compressed_bytes);
            put_u64(buf, w.resident_bytes);
            put_u64(buf, w.hot_bytes);
        }
        WorkerOut::Scalar(v) => {
            put_u8(buf, OUT_SCALAR);
            put_f64(buf, *v);
        }
        WorkerOut::Weights(w) => {
            put_u8(buf, OUT_WEIGHTS);
            put_u32(buf, w.len() as u32);
            for v in w {
                put_f64(buf, *v);
            }
        }
        WorkerOut::Block(b) => {
            put_u8(buf, OUT_BLOCK);
            put_block(buf, b);
        }
        WorkerOut::Blocks(bs) => {
            put_u8(buf, OUT_BLOCKS);
            put_u32(buf, bs.len() as u32);
            for b in bs {
                put_block(buf, b);
            }
        }
    }
}

fn take_worker_out(cur: &mut Cursor) -> Result<WorkerOut, NetError> {
    match cur.take_u8()? {
        OUT_WAVE => Ok(WorkerOut::Wave(WaveOut {
            lossy: cur.take_u8()? != 0,
            compressed_bytes: cur.take_u64()?,
            resident_bytes: cur.take_u64()?,
            hot_bytes: cur.take_u64()?,
        })),
        OUT_SCALAR => Ok(WorkerOut::Scalar(cur.take_f64()?)),
        OUT_WEIGHTS => {
            let n = cur.take_count(8)?;
            let mut w = Vec::with_capacity(n);
            for _ in 0..n {
                w.push(cur.take_f64()?);
            }
            Ok(WorkerOut::Weights(w))
        }
        OUT_BLOCK => Ok(WorkerOut::Block(take_block(cur)?)),
        OUT_BLOCKS => {
            let n = cur.take_count(1)?;
            let mut bs = Vec::with_capacity(n);
            for _ in 0..n {
                bs.push(take_block(cur)?);
            }
            Ok(WorkerOut::Blocks(bs))
        }
        t => Err(NetError::Corrupt(format!("unknown response tag {t}"))),
    }
}

/// `Done` body: the metrics delta since the previous `Done`, then the
/// command's result (a response or the worker's error, stringified).
fn encode_done(result: &Result<WorkerOut, SimError>, delta: &TimeBreakdown) -> Vec<u8> {
    let mut buf = Vec::new();
    put_breakdown(&mut buf, delta);
    match result {
        Ok(out) => {
            put_u8(&mut buf, 1);
            put_worker_out(&mut buf, out);
        }
        Err(e) => {
            put_u8(&mut buf, 0);
            put_str(&mut buf, &e.to_string());
        }
    }
    buf
}

fn decode_done(body: &[u8]) -> Result<(TimeBreakdown, Result<WorkerOut, String>), NetError> {
    let mut cur = Cursor::new(body);
    let delta = take_breakdown(&mut cur)?;
    let result = if cur.take_u8()? != 0 {
        Ok(take_worker_out(&mut cur)?)
    } else {
        Err(cur.take_str()?.to_string())
    };
    cur.finish()?;
    Ok((delta, result))
}

fn encode_relay(b: usize, blk: &CompressedBlock) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, b as u64);
    put_block(&mut buf, blk);
    buf
}

fn decode_relay(body: &[u8]) -> Result<BlockMsg, NetError> {
    let mut cur = Cursor::new(body);
    let b = cur.take_u64()? as usize;
    let blk = take_block(&mut cur)?;
    cur.finish()?;
    Ok((b, blk))
}

// --- handshake -----------------------------------------------------------

/// Everything the daemon needs to stand up one rank's worker: the rank's
/// identity, the register size, the coordinator's [`SimConfig`] (minus
/// what only the coordinator may decide — see [`encode_hello`]), and the
/// rank's initial compressed block table.
struct Hello {
    rank: usize,
    layout: Layout,
    cfg: SimConfig,
    blocks: Vec<Option<CompressedBlock>>,
}

/// The config travels in the [`crate::serial`] encoding, stripped of the
/// two fields a daemon must not take from a peer: `remote` (the daemon
/// *is* the remote end) and `spill.dir` (it chooses where its own
/// segments live).
fn encode_hello(
    rank: usize,
    cfg: &SimConfig,
    num_qubits: u32,
    blocks: &[Option<CompressedBlock>],
) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u32(&mut buf, PROTOCOL_VERSION);
    put_u32(&mut buf, rank as u32);
    put_u32(&mut buf, num_qubits);
    let mut shipped = cfg.clone();
    shipped.remote = None;
    if let Some(spill) = &mut shipped.spill {
        spill.dir = None;
    }
    put_sim_config(&mut buf, &shipped).expect("a config without a spill dir always encodes");
    put_u32(&mut buf, blocks.len() as u32);
    for block in blocks {
        match block {
            Some(b) => {
                put_u8(&mut buf, 1);
                put_block(&mut buf, b);
            }
            None => put_u8(&mut buf, 0),
        }
    }
    buf
}

fn decode_hello(body: &[u8]) -> Result<Hello, NetError> {
    let mut cur = Cursor::new(body);
    let version = cur.take_u32()?;
    if version != PROTOCOL_VERSION {
        return Err(NetError::Protocol(format!(
            "peer speaks protocol v{version}, this daemon speaks v{PROTOCOL_VERSION}"
        )));
    }
    let rank = cur.take_u32()? as usize;
    let num_qubits = cur.take_u32()?;
    let mut cfg = take_sim_config(&mut cur)?;
    if let Some(spill) = &mut cfg.spill {
        spill.dir = None; // the daemon chooses where its own segments live
    }
    // `Layout::new` asserts its geometry; reject a hostile one first.
    cfg.validate(num_qubits).map_err(NetError::Corrupt)?;
    let layout = Layout::new(num_qubits, cfg.ranks_log2, cfg.block_log2);
    let n = cur.take_count(1)?;
    let mut blocks = Vec::with_capacity(n);
    for _ in 0..n {
        blocks.push(if cur.take_u8()? != 0 {
            Some(take_block(&mut cur)?)
        } else {
            None
        });
    }
    cur.finish()?;
    Ok(Hello {
        rank,
        layout,
        cfg,
        blocks,
    })
}

fn encode_hello_ack(result: Result<u32, &str>) -> Vec<u8> {
    let mut buf = Vec::new();
    match result {
        Ok(rank) => {
            put_u8(&mut buf, 1);
            put_u32(&mut buf, PROTOCOL_VERSION);
            put_u32(&mut buf, rank);
        }
        Err(msg) => {
            put_u8(&mut buf, 0);
            put_str(&mut buf, msg);
        }
    }
    buf
}

// --- coordinator side: the remote worker stub ---------------------------

/// The coordinator's stand-in for a rank worker hosted by `qcsim-workerd`:
/// implements the same [`qcs_cluster::exec::Worker`] seam as the
/// in-process `RankWorker`, shipping each command over its connection and
/// bridging exchange links with Relay frames. Metrics deltas shipped with
/// every `Done` are absorbed into the coordinator's [`Metrics`], so the
/// report's communication and spill accounting is identical to a local
/// run.
pub(crate) struct RemoteWorkerClient {
    rank: usize,
    reader: TcpStream,
    writer: TcpStream,
    metrics: Metrics,
}

impl RemoteWorkerClient {
    /// Connect, handshake, and ship `blocks` as rank `rank`'s initial
    /// state.
    fn connect(
        remote: &RemoteConfig,
        cfg: &SimConfig,
        layout: Layout,
        rank: usize,
        blocks: &[Option<CompressedBlock>],
        metrics: Metrics,
    ) -> Result<Self, SimError> {
        let endpoint = &remote.endpoints[rank % remote.endpoints.len()];
        let stream = qcs_net::connect_supervised(endpoint, &remote.connect_policy())
            .map_err(|e| transport_err(rank, &format!("connect to {endpoint}"), e))?;
        let reader = stream
            .try_clone()
            .map_err(|e| transport_err(rank, "clone stream", e))?;
        let mut client = Self {
            rank,
            reader,
            writer: stream,
            metrics,
        };
        let hello = encode_hello(rank, cfg, layout.num_qubits, blocks);
        write_frame_to(&mut client.writer, K_HELLO, &hello)
            .map_err(|e| transport_err(rank, "send handshake", e))?;
        let (kind, body) = recv_frame(&mut client.reader)
            .map_err(|e| transport_err(rank, "read handshake ack", e))?;
        if kind != K_HELLO_ACK {
            return Err(transport_err(
                rank,
                "handshake",
                format!("unexpected frame kind {kind}"),
            ));
        }
        let mut cur = Cursor::new(&body);
        let ok = cur.take_u8().map_err(|e| transport_err(rank, "ack", e))?;
        if ok == 0 {
            let msg = cur
                .take_str()
                .map_err(|e| transport_err(rank, "ack", e))?
                .to_string();
            return Err(SimError::Transport(format!(
                "rank {rank}: daemon rejected handshake: {msg}"
            )));
        }
        Ok(client)
    }
}

impl Drop for RemoteWorkerClient {
    fn drop(&mut self) {
        // Best-effort graceful goodbye so the daemon tears the rank down
        // (and removes its spill segments) without logging an error.
        let _ = write_frame_to(&mut self.writer, K_SHUTDOWN, &[]);
    }
}

/// Drain the coordinator-side link (blocks the *peer* rank sends toward
/// this rank's daemon) into Relay frames; when the link closes — the peer
/// client got its `Done` and dropped its sender — tell the daemon's
/// inbound relay the stream is over.
fn forward_outbound(rx: DuplexRx<BlockMsg>, mut w: TcpStream) {
    while let Some((b, blk)) = rx.recv() {
        if write_frame_to(&mut w, K_RELAY, &encode_relay(b, &blk)).is_err() {
            return; // socket gone; the main read path owns the error
        }
    }
    let _ = write_frame_to(&mut w, K_EXCHANGE_EOF, &[]);
}

impl qcs_cluster::exec::Worker for RemoteWorkerClient {
    type Cmd = WorkerCmd;
    type Resp = Result<WorkerOut, SimError>;

    fn handle(&mut self, cmd: WorkerCmd) -> Result<WorkerOut, SimError> {
        let (body, link) = encode_cmd(cmd);
        if let Err(e) = write_frame_to(&mut self.writer, K_CMD, &body) {
            return Err(transport_err(self.rank, "send command", e));
        }
        // For an exchange: the forwarder drains the link half the peer
        // sends into, while this thread pumps inbound Relay frames into
        // the half the peer receives from.
        let mut bridge: Option<(DuplexTx<BlockMsg>, JoinHandle<()>)> = match link {
            Some(l) => {
                let (tx, rx) = l.split();
                let w = self
                    .writer
                    .try_clone()
                    .map_err(|e| transport_err(self.rank, "clone stream", e))?;
                Some((tx, std::thread::spawn(move || forward_outbound(rx, w))))
            }
            None => None,
        };
        let result = loop {
            match recv_frame(&mut self.reader) {
                Err(e) => break Err(transport_err(self.rank, "read response", e)),
                Ok((K_RELAY, body)) => match (&bridge, decode_relay(&body)) {
                    (Some((tx, _)), Ok(msg)) => {
                        // A false send means the peer client already
                        // failed; its own wave surfaces that error.
                        let _ = tx.send(msg);
                    }
                    (None, _) => {
                        break Err(transport_err(
                            self.rank,
                            "protocol",
                            "relay frame outside an exchange",
                        ))
                    }
                    (_, Err(e)) => break Err(transport_err(self.rank, "relay frame", e)),
                },
                Ok((K_DONE, body)) => {
                    break match decode_done(&body) {
                        Ok((delta, result)) => {
                            self.metrics.absorb(&delta);
                            result.map_err(|msg| {
                                SimError::Transport(format!("rank {} (remote): {msg}", self.rank))
                            })
                        }
                        Err(e) => Err(transport_err(self.rank, "done frame", e)),
                    }
                }
                Ok((kind, _)) => {
                    break Err(transport_err(
                        self.rank,
                        "protocol",
                        format!("unexpected frame kind {kind}"),
                    ))
                }
            }
        };
        // Unblock the peer (dropping the sender ends its forwarder's
        // drain) before joining our own forwarder.
        if let Some((tx, jh)) = bridge.take() {
            drop(tx);
            let _ = jh.join();
        }
        result
    }
}

/// Connect one [`RemoteWorkerClient`] per rank (rank `r` dials
/// `endpoints[r % endpoints.len()]`), shipping each rank's initial block
/// table during the handshake.
pub(crate) fn connect_cluster(
    remote: &RemoteConfig,
    cfg: &SimConfig,
    layout: Layout,
    per_rank_blocks: &[Vec<Option<CompressedBlock>>],
    metrics: Metrics,
) -> Result<Vec<RemoteWorkerClient>, SimError> {
    per_rank_blocks
        .iter()
        .enumerate()
        .map(|(rank, blocks)| {
            RemoteWorkerClient::connect(remote, cfg, layout, rank, blocks, metrics.clone())
        })
        .collect()
}

// --- daemon side ---------------------------------------------------------

/// Behavior knobs for [`serve`].
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Stop accepting after this many connections and return once their
    /// handlers finish. `None` serves forever (the daemon binary's
    /// default).
    pub max_conns: Option<usize>,
    /// Fault injection for tests: a connection handler drops its
    /// connection cold (no `Done`, no goodbye) instead of executing its
    /// N-th command (0-based). The worker is dropped on the way out, so
    /// spill segments are still cleaned up — exactly what a crashing rank
    /// process would leave behind.
    pub fail_after_cmds: Option<usize>,
    /// Where spilling ranks keep their segment directories. `None` uses
    /// the system temp directory.
    pub spill_dir: Option<PathBuf>,
}

/// Serve rank-worker connections on `listener`: one handler thread per
/// connection, each hosting one `RankWorker` built from the client's
/// handshake. Returns after [`ServeOptions::max_conns`] handlers have
/// finished (never, when unset).
pub fn serve(listener: TcpListener, opts: ServeOptions) -> std::io::Result<()> {
    let mut handlers = Vec::new();
    let mut accepted = 0usize;
    while opts.max_conns.is_none_or(|max| accepted < max) {
        let (stream, peer) = listener.accept()?;
        accepted += 1;
        let opts = opts.clone();
        handlers.push(std::thread::spawn(move || {
            if let Err(e) = handle_conn(stream, &opts) {
                eprintln!("qcsim-workerd: connection from {peer} failed: {e}");
            }
        }));
    }
    for h in handlers {
        let _ = h.join();
    }
    Ok(())
}

/// Bind an ephemeral loopback port and [`serve`] it on a background
/// thread. Returns the bound address (to hand to
/// [`crate::config::SimConfig::with_remote`]) and the server thread's
/// handle, which finishes once [`ServeOptions::max_conns`] connections
/// have been served — so tests and the repro harness can join it to know
/// every worker is torn down.
pub fn spawn_loopback(
    conns: usize,
    mut opts: ServeOptions,
) -> std::io::Result<(String, JoinHandle<()>)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?.to_string();
    opts.max_conns = Some(conns);
    let handle = std::thread::Builder::new()
        .name("qcsim-workerd".into())
        .spawn(move || {
            if let Err(e) = serve(listener, opts) {
                eprintln!("qcsim-workerd: serve failed: {e}");
            }
        })?;
    Ok((addr, handle))
}

/// Build one rank's worker from its handshake. The daemon keeps its own
/// metrics, cache, and (for a spilling config) segment directory — state
/// is per-connection, exactly as per-process state would be under MPI.
fn build_worker(
    hello: &Hello,
    opts: &ServeOptions,
    metrics: Metrics,
) -> Result<RankWorker, String> {
    if hello.blocks.len() != hello.layout.blocks_per_rank() {
        return Err(format!(
            "handshake shipped {} blocks, layout needs {}",
            hello.blocks.len(),
            hello.layout.blocks_per_rank()
        ));
    }
    if hello.rank >= hello.layout.ranks() {
        return Err(format!(
            "rank {} out of range for a {}-rank layout",
            hello.rank,
            hello.layout.ranks()
        ));
    }
    let cfg = &hello.cfg;
    let codec = Arc::new(BlockCodec::new(cfg.lossy_codec));
    codec.prewarm(
        hello.layout.block_amps() * 2,
        (4 * rayon::current_num_threads() + 4).min(32),
    );
    let cache = Arc::new(BlockCache::new(
        cfg.cache_lines,
        cfg.cache_auto_disable_after,
    ));
    let store: Box<dyn BlockStore> = match &cfg.spill {
        Some(spill) => {
            let dir = opts.spill_dir.clone().unwrap_or_else(std::env::temp_dir);
            let guard = SegmentDirGuard::create(&dir).map_err(|e| format!("spill dir: {e}"))?;
            Box::new(
                SpillStore::create_with(
                    guard.path(),
                    &format!("r{}", hello.rank),
                    spill.resident_blocks,
                    metrics.clone(),
                    hello.blocks.clone(),
                    SpillOptions {
                        prefetch: cfg.prefetch,
                        dir_guard: Some(Arc::clone(&guard)),
                        eviction: spill.eviction,
                        write_behind: spill.write_behind,
                        shards: spill.shards,
                    },
                )
                .map_err(|e| format!("spill store: {e}"))?,
            )
        }
        None => Box::new(MemStore::new(hello.blocks.clone())),
    };
    Ok(RankWorker::new(
        hello.rank,
        hello.layout,
        codec,
        cache,
        metrics,
        store,
        cfg.partial_decode,
    ))
}

/// Daemon side of the exchange bridge: pump the worker's outbound blocks
/// onto the socket as Relay frames. Ends when the worker drops its link
/// end (its `handle` returned).
fn relay_worker_outbound(rx: DuplexRx<BlockMsg>, mut w: TcpStream) {
    while let Some((b, blk)) = rx.recv() {
        if write_frame_to(&mut w, K_RELAY, &encode_relay(b, &blk)).is_err() {
            return;
        }
    }
}

/// Daemon side of the exchange bridge: pump inbound Relay frames into the
/// worker's link. Ends on the coordinator's `ExchangeEof`, or on any
/// read/protocol error — either way the sender drops, so a worker waiting
/// on a vanished peer sees a closed link (a typed exchange error), not a
/// hang.
fn relay_socket_inbound(tx: DuplexTx<BlockMsg>, mut r: TcpStream) {
    loop {
        match recv_frame(&mut r) {
            Ok((K_RELAY, body)) => match decode_relay(&body) {
                Ok(msg) => {
                    if !tx.send(msg) {
                        return;
                    }
                }
                Err(_) => return,
            },
            Ok((K_EXCHANGE_EOF, _)) => return,
            _ => return,
        }
    }
}

/// Host one connection: handshake, then the command loop. Returning —
/// normally or not — drops the rank's worker, and with it any spill
/// segment directory it owned.
fn handle_conn(stream: TcpStream, opts: &ServeOptions) -> Result<(), NetError> {
    stream.set_nodelay(true)?;
    let mut reader = stream.try_clone()?;
    let mut writer = stream;

    let (kind, body) = recv_frame(&mut reader)?;
    if kind != K_HELLO {
        return Err(NetError::Protocol(format!(
            "expected Hello, got frame kind {kind}"
        )));
    }
    let metrics = Metrics::new();
    let (mut worker, pool) = match decode_hello(&body)
        .map_err(|e| e.to_string())
        .and_then(|h| {
            let worker = build_worker(&h, opts, metrics.clone())?;
            let pool = h
                .cfg
                .threads_per_rank
                .map(|t| {
                    rayon::ThreadPoolBuilder::new()
                        .num_threads(t.max(1))
                        .build()
                        .map_err(|e| format!("rayon pool: {e}"))
                })
                .transpose()?;
            Ok((h.rank, worker, pool))
        }) {
        Ok((rank, worker, pool)) => {
            write_frame_to(&mut writer, K_HELLO_ACK, &encode_hello_ack(Ok(rank as u32)))?;
            (worker, pool)
        }
        Err(msg) => {
            write_frame_to(&mut writer, K_HELLO_ACK, &encode_hello_ack(Err(&msg)))?;
            return Err(NetError::Protocol(msg));
        }
    };

    let mut last = TimeBreakdown::default();
    let mut cmds_handled = 0usize;
    loop {
        let (kind, body) = match recv_frame(&mut reader) {
            Ok(frame) => frame,
            // A vanished coordinator is a normal way for a rank to end
            // (its process died); treat EOF as shutdown.
            Err(NetError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        };
        match kind {
            K_SHUTDOWN => return Ok(()),
            K_CMD => {
                if opts.fail_after_cmds == Some(cmds_handled) {
                    // Fault injection: die where a crashing rank process
                    // would — mid-protocol, without a goodbye.
                    return Ok(());
                }
                cmds_handled += 1;
                let DecodedCmd { cmd, bridge } = decode_cmd(&body)?;
                let relays = match bridge {
                    Some(b) => {
                        let (btx, brx) = b.split();
                        let w = writer.try_clone()?;
                        let r = reader.try_clone()?;
                        Some((
                            std::thread::spawn(move || relay_worker_outbound(brx, w)),
                            std::thread::spawn(move || relay_socket_inbound(btx, r)),
                        ))
                    }
                    None => None,
                };
                let result = match &pool {
                    Some(p) => p.install(|| worker.handle(cmd)),
                    None => worker.handle(cmd),
                };
                let now = metrics.breakdown();
                let delta = now.delta(&last);
                last = now;
                if let Some((outbound, inbound)) = relays {
                    // Every outbound Relay frame precedes Done on the
                    // wire; Done goes out BEFORE joining the inbound
                    // relay, because the peer's ExchangeEof can only
                    // arrive after the peer rank observed its own Done.
                    let _ = outbound.join();
                    write_frame_to(&mut writer, K_DONE, &encode_done(&result, &delta))?;
                    let _ = inbound.join();
                } else {
                    write_frame_to(&mut writer, K_DONE, &encode_done(&result, &delta))?;
                }
            }
            other => {
                return Err(NetError::Protocol(format!(
                    "unexpected frame kind {other} between commands"
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_cmd_round_trips() {
        let cmd = WorkerCmd::Gate(GateCmd {
            signature: 0xDEAD_BEEF,
            gate: Gate1::t(),
            route: Route::InterBlock { block_stride: 4 },
            offset_cmask: 0b101,
            block_cmask: 0b10,
            rank_cmask: 1,
            bound: ErrorBound::PointwiseRelative(1e-3),
            lookahead: Some(Arc::new(vec![3, 1, 4])),
        });
        let (body, link) = encode_cmd(cmd);
        assert!(link.is_none());
        let decoded = decode_cmd(&body).unwrap();
        assert!(decoded.bridge.is_none());
        match decoded.cmd {
            WorkerCmd::Gate(g) => {
                assert_eq!(g.signature, 0xDEAD_BEEF);
                assert_eq!(g.route, Route::InterBlock { block_stride: 4 });
                assert_eq!(g.offset_cmask, 0b101);
                assert_eq!(g.block_cmask, 0b10);
                assert_eq!(g.rank_cmask, 1);
                assert_eq!(g.bound, ErrorBound::PointwiseRelative(1e-3));
                assert_eq!(g.lookahead.as_deref(), Some(&vec![3, 1, 4]));
                assert_eq!(g.gate.m[1][1].re, Gate1::t().m[1][1].re);
            }
            _ => panic!("wrong command decoded"),
        }
    }

    #[test]
    fn exchange_cmd_builds_a_daemon_bridge() {
        let (lead, _follow) = duplex::<BlockMsg>();
        let cmd = WorkerCmd::Exchange(ExchangeCmd {
            signature: 7,
            gate: Gate1::h(),
            offset_cmask: 0,
            block_cmask: 0,
            bound: ErrorBound::Lossless,
            role: ExchangeRole::Lead(lead),
            lookahead: None,
        });
        let (body, link) = encode_cmd(cmd);
        assert!(link.is_some(), "the coordinator keeps the link");
        let decoded = decode_cmd(&body).unwrap();
        let bridge = decoded.bridge.expect("daemon side builds a local bridge");
        match decoded.cmd {
            WorkerCmd::Exchange(x) => match x.role {
                ExchangeRole::Lead(worker_end) => {
                    // The two local ends are wired to each other.
                    assert!(worker_end.send((0, zero_block())));
                    let (b, _) = bridge.recv().unwrap();
                    assert_eq!(b, 0);
                }
                _ => panic!("wrong role decoded"),
            },
            _ => panic!("wrong command decoded"),
        }
    }

    #[test]
    fn done_round_trips_results_and_deltas() {
        let delta = TimeBreakdown {
            comm_bytes: 1234,
            exchanges: 5,
            communication: std::time::Duration::from_micros(250),
            ..TimeBreakdown::default()
        };
        let ok: Result<WorkerOut, SimError> = Ok(WorkerOut::Wave(WaveOut {
            lossy: true,
            compressed_bytes: 1000,
            resident_bytes: 800,
            hot_bytes: 700,
        }));
        let (d, r) = decode_done(&encode_done(&ok, &delta)).unwrap();
        assert_eq!(d.comm_bytes, 1234);
        assert_eq!(d.communication, delta.communication);
        match r.unwrap() {
            WorkerOut::Wave(w) => {
                assert!(w.lossy);
                assert_eq!(w.hot_bytes, 700);
            }
            _ => panic!("wrong response decoded"),
        }
        let err: Result<WorkerOut, SimError> = Err(SimError::Spill("disk full".into()));
        let (_, r) = decode_done(&encode_done(&err, &delta)).unwrap();
        assert_eq!(r.unwrap_err(), "spill error: disk full");
    }

    #[test]
    fn hello_round_trips_config_and_blocks() {
        let cfg = SimConfig::default()
            .with_block_log2(3)
            .with_ranks_log2(1)
            .with_threads_per_rank(2)
            .with_spill(2)
            .with_write_behind(true)
            .with_spill_shards(3)
            .with_partial_decode(false);
        let coordinator_side = cfg
            .clone()
            .with_spill_dir(PathBuf::from("/coordinator/only"))
            .with_remote(vec!["127.0.0.1:9"]);
        let blocks = vec![Some(zero_block()), None, Some(zero_block()), None];
        let body = encode_hello(1, &coordinator_side, 6, &blocks);
        let hello = decode_hello(&body).unwrap();
        assert_eq!(hello.rank, 1);
        assert_eq!(hello.layout, Layout::new(6, 1, 3));
        // Everything but the remote endpoints and the spill directory
        // (the daemon picks its own) arrives as configured.
        assert_eq!(hello.cfg, cfg);
        assert_eq!(hello.blocks.len(), 4);
        assert!(hello.blocks[0].is_some() && hello.blocks[1].is_none());
    }

    #[test]
    fn version_mismatch_is_a_protocol_error() {
        let cfg = SimConfig::default().with_block_log2(3);
        let mut body = encode_hello(0, &cfg, 4, &[]);
        body[0] = PROTOCOL_VERSION as u8 + 1;
        assert!(matches!(decode_hello(&body), Err(NetError::Protocol(_))));
    }

    #[test]
    fn impossible_geometry_is_rejected_not_asserted() {
        // 4 qubits cannot hold 2^1 ranks x 2^12-amp blocks.
        let cfg = SimConfig::default().with_ranks_log2(1);
        let body = encode_hello(0, &cfg, 4, &[]);
        assert!(matches!(decode_hello(&body), Err(NetError::Corrupt(_))));
    }

    fn zero_block() -> CompressedBlock {
        let codec = BlockCodec::new(qcs_compress::CodecId::SolutionC);
        codec.compress(&[0.0; 16], ErrorBound::Lossless).unwrap()
    }
}
