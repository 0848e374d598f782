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
use crate::config::{RemoteConfig, SimConfig};
use crate::engine::SimError;
use crate::serial::BreakdownWire;
use crate::store::{self, SegmentDirGuard};
use crate::worker::{
    BatchCmd, BatchPlan, BlockMsg, ExchangeCmd, ExchangeRole, GateCmd, RankWorker, WaveOut,
    WorkerCmd, WorkerOut,
};
use qcs_cluster::exec::Worker as _;
use qcs_cluster::{
    duplex, ControlScope, Duplex, DuplexRx, DuplexTx, Layout, Metrics, TimeBreakdown,
};
use qcs_compress::frame as cframe;
use qcs_compress::ErrorBound;
use qcs_net::wire::{decode, encode, Idx32, Wire};
use qcs_net::{recv_frame, send_frame, wire, Cursor, NetError, PROTOCOL_VERSION};
use qcs_statevec::{Complex64, Gate1};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// Frame kinds of the worker protocol (the `kind` byte of each qcs-net
// frame).
const K_HELLO: u8 = 1;
const K_HELLO_ACK: u8 = 2;
const K_CMD: u8 = 3;
const K_DONE: u8 = 4;
const K_RELAY: u8 = 5; // body: one `BlockMsg` (the block's index, then its frame)
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

// --- leaf layouts --------------------------------------------------------
//
// `Gate1` and `ControlScope` belong to other crates, so their layouts
// hang off marker types (see `qcs_net::wire`).

/// The 2x2 matrix row-major, each entry as `re`, `im`.
struct GateWire;

impl Wire<Gate1> for GateWire {
    const MIN_LEN: usize = 64;
    fn put(gate: &Gate1, buf: &mut Vec<u8>) {
        for c in gate.m.iter().flatten() {
            f64::put(&c.re, buf);
            f64::put(&c.im, buf);
        }
    }
    fn take(cur: &mut Cursor) -> Result<Gate1, NetError> {
        let mut m = [[Complex64::ZERO; 2]; 2];
        for c in m.iter_mut().flatten() {
            *c = Complex64::new(f64::take(cur)?, f64::take(cur)?);
        }
        Ok(Gate1 { m })
    }
}

struct ScopeWire;
wire! {
    impl enum ControlScope as ScopeWire {
        0 => InBlock { offset_bit: u32 },
        1 => BlockSelect { block_bit: u32 },
        2 => RankSelect { rank_bit: u32 },
    }
}

/// A compressed block travels as a `qcs_compress` block frame embedded in
/// the message body — codec id, error bound, checksum, and payload in the
/// exact on-disk format, so the spill tier and the wire share one
/// encoding.
impl Wire for CompressedBlock {
    const MIN_LEN: usize = cframe::HEADER_LEN;
    fn put(block: &Self, buf: &mut Vec<u8>) {
        cframe::write_frame(buf, block.codec, block.bound, &block.bytes)
            .expect("in-memory block frame write cannot fail");
    }
    fn take(cur: &mut Cursor) -> Result<Self, NetError> {
        cur.take_embedded(cframe::read_frame)
            .map(CompressedBlock::from)
            .map_err(|e| NetError::Corrupt(format!("embedded block frame: {e}")))
    }
}

/// The one hand-written conversion: a duplex link cannot travel, so it
/// occupies no bytes and only its role's tag is written. The coordinator
/// keeps the link it was given (to bridge with Relay frames); a decoded
/// link is closed until the daemon's connection handler swaps a live one
/// in.
struct ClosedLink;

impl Wire<Duplex<BlockMsg>> for ClosedLink {
    const MIN_LEN: usize = 0;
    fn put(_: &Duplex<BlockMsg>, _: &mut Vec<u8>) {}
    fn take(_: &mut Cursor) -> Result<Duplex<BlockMsg>, NetError> {
        Ok(duplex().0)
    }
}

wire! {
    impl enum ExchangeRole {
        0 => Idle {},
        1 => Lead { 0: Duplex<BlockMsg> as ClosedLink },
        2 => Follow { 0: Duplex<BlockMsg> as ClosedLink },
    }
}

// --- command / response layouts ------------------------------------------

wire! {
    impl struct GateCmd {
        gate: Gate1 as GateWire,
        block_stride: usize,
        offset_cmask: usize,
        block_cmask: usize,
        rank_cmask: usize,
        bound: ErrorBound,
    }
}

wire! {
    impl struct ExchangeCmd {
        gate: Gate1 as GateWire,
        offset_cmask: usize,
        block_cmask: usize,
        bound: ErrorBound,
        role: ExchangeRole,
    }
}

wire! {
    impl struct BatchPlan {
        gate: Gate1 as GateWire,
        offset_bit: u32,
        offset_cmask: usize,
        block_cmask: usize,
        rank_cmask: usize,
    }
}

wire! {
    impl struct BatchCmd {
        bound: ErrorBound,
        plans: Arc<Vec<BatchPlan>>,
    }
}

wire! {
    impl enum WorkerCmd {
        0 => Gate { 0: GateCmd },
        1 => Exchange { 0: ExchangeCmd },
        2 => Batch { 0: BatchCmd },
        3 => Collapse {
            scope: ControlScope as ScopeWire,
            outcome: bool,
            scale: f64,
            bound: ErrorBound,
        },
        4 => Recompress { bound: ErrorBound },
        5 => ProbOne { scope: ControlScope as ScopeWire },
        6 => NormSqr {},
        7 => Weights {},
        8 => FetchBlock { block: usize },
        9 => SnapshotBlocks {},
        10 => ExpectationZz { a: usize, b: usize },
        11 => Nop {},
    }
}

wire! {
    impl struct WaveOut {
        lossy: bool,
        compressed_bytes: u64,
        resident_bytes: u64,
    }
}

wire! {
    impl enum WorkerOut {
        0 => Wave { 0: WaveOut },
        1 => Scalar { 0: f64 },
        2 => Weights { 0: Vec<f64> },
        3 => Block { 0: CompressedBlock },
        4 => Blocks { 0: Vec<CompressedBlock> },
    }
}

wire! {
    /// `Done` body: the metrics delta since the previous `Done`, then the
    /// command's result (a response or the worker's error, stringified).
    #[cfg_attr(test, derive(Debug, PartialEq))]
    struct Done {
        delta: TimeBreakdown as BreakdownWire,
        result: Result<WorkerOut, String>,
    }
}

// --- handshake -----------------------------------------------------------

wire! {
    /// Everything the daemon needs to stand up one rank's worker: the
    /// rank's identity, the register size, the coordinator's [`SimConfig`]
    /// (minus what only the coordinator may decide — see [`Hello::new`]),
    /// and the rank's initial compressed block table.
    #[cfg_attr(test, derive(Debug, PartialEq))]
    struct Hello {
        version: u32,
        rank: usize as Idx32,
        num_qubits: u32,
        cfg: SimConfig,
        blocks: Vec<Option<CompressedBlock>>,
    }
}

impl Hello {
    /// The config travels stripped of the two fields a daemon must not
    /// take from a peer: `remote` (the daemon *is* the remote end) and
    /// `spill.dir` (it chooses where its own segments live).
    fn new(
        rank: usize,
        cfg: &SimConfig,
        num_qubits: u32,
        blocks: &[Option<CompressedBlock>],
    ) -> Self {
        let mut cfg = cfg.clone();
        cfg.remote = None;
        if let Some(spill) = &mut cfg.spill {
            spill.dir = None;
        }
        Self {
            version: PROTOCOL_VERSION,
            rank,
            num_qubits,
            cfg,
            blocks: blocks.to_vec(),
        }
    }

    /// Daemon side: decode a Hello body and derive the layout it implies.
    /// The version is compared before the rest is parsed, so a peer with
    /// another layout is told so rather than called corrupt.
    fn admit(body: &[u8]) -> Result<(Self, Layout), NetError> {
        let version = u32::take(&mut Cursor::new(body))?;
        if version != PROTOCOL_VERSION {
            return Err(NetError::Protocol(format!(
                "peer speaks protocol v{version}, this daemon speaks v{PROTOCOL_VERSION}"
            )));
        }
        let mut hello: Hello = decode(body)?;
        if let Some(spill) = &mut hello.cfg.spill {
            spill.dir = None; // the daemon chooses where its own segments live
        }
        // `Layout::new` asserts its geometry; reject a hostile one first.
        hello
            .cfg
            .validate(hello.num_qubits)
            .map_err(NetError::Corrupt)?;
        // Every store is seeded with whole blocks; a hole would panic it.
        if let Some(i) = hello.blocks.iter().position(Option::is_none) {
            return Err(NetError::Corrupt(format!("handshake block {i} is absent")));
        }
        let layout = Layout::new(hello.num_qubits, hello.cfg.ranks_log2, hello.cfg.block_log2);
        Ok((hello, layout))
    }
}

/// `HelloAck` body: the daemon's protocol version and the rank it now
/// hosts, or why the handshake was refused.
type HelloAck = Result<(u32, u32), String>;

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
        let hello = encode(&Hello::new(rank, cfg, layout.num_qubits, blocks));
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
        match decode::<HelloAck>(&body).map_err(|e| transport_err(rank, "ack", e))? {
            Ok(_) => Ok(client),
            Err(msg) => Err(SimError::Transport(format!(
                "rank {rank}: daemon rejected handshake: {msg}"
            ))),
        }
    }
}

impl Drop for RemoteWorkerClient {
    fn drop(&mut self) {
        // Best-effort graceful goodbye so the daemon tears the rank down
        // (and removes its spill segments) without logging an error.
        let _ = write_frame_to(&mut self.writer, K_SHUTDOWN, &[]);
    }
}

/// Drain a link end onto the socket as Relay frames until the link
/// closes. The coordinator drains what the *peer* rank sends toward this
/// rank's daemon, and when that link closes — the peer client got its
/// `Done` and dropped its sender — tells the daemon's inbound relay the
/// stream is over (`then_eof`); the daemon drains its worker's outbound
/// blocks until the worker's `handle` returns.
fn pump_outbound(rx: DuplexRx<BlockMsg>, mut w: TcpStream, then_eof: bool) {
    while let Some(msg) = rx.recv() {
        if write_frame_to(&mut w, K_RELAY, &encode(&msg)).is_err() {
            return; // socket gone; the main read path owns the error
        }
    }
    if then_eof {
        let _ = write_frame_to(&mut w, K_EXCHANGE_EOF, &[]);
    }
}

impl qcs_cluster::exec::Worker for RemoteWorkerClient {
    type Cmd = WorkerCmd;
    type Resp = Result<WorkerOut, SimError>;

    fn handle(&mut self, cmd: WorkerCmd) -> Result<WorkerOut, SimError> {
        let body = encode(&cmd);
        let link = match cmd {
            WorkerCmd::Exchange(ExchangeCmd {
                role: ExchangeRole::Lead(l) | ExchangeRole::Follow(l),
                ..
            }) => Some(l),
            _ => None,
        };
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
                Some((tx, std::thread::spawn(move || pump_outbound(rx, w, true))))
            }
            None => None,
        };
        let result = loop {
            match recv_frame(&mut self.reader) {
                Err(e) => break Err(transport_err(self.rank, "read response", e)),
                Ok((K_RELAY, body)) => match (&bridge, decode::<BlockMsg>(&body)) {
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
                    break match decode::<Done>(&body) {
                        Ok(Done { delta, result }) => {
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
        let handler = std::thread::spawn(move || {
            if let Err(e) = handle_conn(stream, &opts) {
                eprintln!("qcsim-workerd: connection from {peer} failed: {e}");
            }
        });
        handlers.push((peer, handler));
    }
    for (peer, handler) in handlers {
        if handler.join().is_err() {
            eprintln!("qcsim-workerd: connection handler for {peer} panicked");
        }
    }
    Ok(())
}

/// Bind an ephemeral loopback port and [`serve`] it on a background
/// thread. Returns the bound address (to hand to
/// [`crate::config::SimConfig::with_remote`]) and the server thread's
/// handle, which finishes once [`ServeOptions::max_conns`] connections
/// have been served — so tests and the repro harness can join it, through
/// [`join_loopback`], to know every worker is torn down.
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

/// How long [`join_loopback`] waits for a loopback server thread.
const LOOPBACK_JOIN_LIMIT: Duration = Duration::from_secs(30);

/// Join a [`spawn_loopback`] server thread, waiting at most 30 s for it
/// to finish. The thread ends only after the number of connections it
/// was spawned for, so a caller that opens fewer would wait forever;
/// this panics instead, naming the calling thread (the test harness
/// names it after the test). A panic on the server thread is passed on.
pub fn join_loopback(server: JoinHandle<()>) {
    let deadline = Instant::now() + LOOPBACK_JOIN_LIMIT;
    while !server.is_finished() {
        if Instant::now() >= deadline {
            let caller = std::thread::current();
            panic!(
                "{}: the loopback server is still running after {LOOPBACK_JOIN_LIMIT:?}; \
                 it ends only after every connection it was spawned for",
                caller.name().unwrap_or("an unnamed thread")
            );
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    if let Err(panic) = server.join() {
        std::panic::resume_unwind(panic);
    }
}

/// Build one rank's worker from its handshake. The daemon keeps its own
/// metrics, cache, and (for a spilling config) segment directory — state
/// is per-connection, exactly as per-process state would be under MPI.
fn build_worker(
    hello: &Hello,
    layout: Layout,
    opts: &ServeOptions,
    metrics: Metrics,
) -> Result<RankWorker, String> {
    if hello.blocks.len() != layout.blocks_per_rank() {
        return Err(format!(
            "handshake shipped {} blocks, layout needs {}",
            hello.blocks.len(),
            layout.blocks_per_rank()
        ));
    }
    if hello.rank >= layout.ranks() {
        return Err(format!(
            "rank {} out of range for a {}-rank layout",
            hello.rank,
            layout.ranks()
        ));
    }
    let cfg = &hello.cfg;
    let codec = Arc::new(BlockCodec::new(cfg.lossy_codec));
    let guard = match &cfg.spill {
        Some(_) => {
            let dir = opts.spill_dir.clone().unwrap_or_else(std::env::temp_dir);
            Some(SegmentDirGuard::create(&dir).map_err(|e| format!("spill dir: {e}"))?)
        }
        None => None,
    };
    let local = [(hello.rank, hello.blocks.clone())];
    let (cache, mut stores) =
        store::rank_stores(cfg, layout, &codec, guard.as_ref(), &metrics, local)
            .map_err(|e| format!("spill store: {e}"))?;
    let store = stores.pop().expect("one rank's store");
    Ok(RankWorker::new(
        hello.rank, layout, codec, cache, metrics, store,
    ))
}

/// Daemon side of the exchange bridge: pump inbound Relay frames into the
/// worker's link. Ends on the coordinator's `ExchangeEof`, or on any
/// read/protocol error — either way the sender drops, so a worker waiting
/// on a vanished peer sees a closed link (a typed exchange error), not a
/// hang.
fn relay_socket_inbound(tx: DuplexTx<BlockMsg>, mut r: TcpStream) {
    while let Ok((K_RELAY, body)) = recv_frame(&mut r) {
        if !decode::<BlockMsg>(&body).is_ok_and(|msg| tx.send(msg)) {
            return;
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
    let (mut worker, layout, pool) =
        match Hello::admit(&body)
            .map_err(|e| e.to_string())
            .and_then(|(h, layout)| {
                let worker = build_worker(&h, layout, opts, metrics.clone())?;
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
                Ok((h.rank as u32, worker, layout, pool))
            }) {
            Ok((rank, worker, layout, pool)) => {
                let ack: HelloAck = Ok((PROTOCOL_VERSION, rank));
                write_frame_to(&mut writer, K_HELLO_ACK, &encode(&ack))?;
                (worker, layout, pool)
            }
            Err(msg) => {
                write_frame_to(
                    &mut writer,
                    K_HELLO_ACK,
                    &encode::<HelloAck>(&Err(msg.clone())),
                )?;
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
                let mut cmd: WorkerCmd = decode(&body)?;
                // A command that decodes is not yet one the worker may
                // run: its indices and masks are still the peer's claim.
                if let Err(msg) = cmd.validate(&layout) {
                    let done = Done {
                        delta: TimeBreakdown::default(),
                        result: Err(format!("invalid command: {msg}")),
                    };
                    write_frame_to(&mut writer, K_DONE, &encode(&done))?;
                    continue;
                }
                // For an exchange, stand a live local duplex in for the
                // link that could not travel: the worker holds one end,
                // this connection's relay threads pump the other.
                let relays = match &mut cmd {
                    WorkerCmd::Exchange(ExchangeCmd {
                        role: ExchangeRole::Lead(link) | ExchangeRole::Follow(link),
                        ..
                    }) => {
                        let (worker_end, bridge_end) = duplex();
                        *link = worker_end;
                        let (btx, brx) = bridge_end.split();
                        let w = writer.try_clone()?;
                        let r = reader.try_clone()?;
                        Some((
                            std::thread::spawn(move || pump_outbound(brx, w, false)),
                            std::thread::spawn(move || relay_socket_inbound(btx, r)),
                        ))
                    }
                    _ => None,
                };
                let result = match &pool {
                    Some(p) => p.install(|| worker.handle(cmd)),
                    None => worker.handle(cmd),
                };
                let now = metrics.breakdown();
                let done = encode(&Done {
                    delta: now.delta(&last),
                    result: result.map_err(|e| e.to_string()),
                });
                last = now;
                // Every outbound Relay frame precedes Done on the wire;
                // Done goes out BEFORE joining the inbound relay, because
                // the peer's ExchangeEof can only arrive after the peer
                // rank observed its own Done.
                let (outbound, inbound) = relays.unzip();
                let _ = outbound.map(JoinHandle::join);
                write_frame_to(&mut writer, K_DONE, &done)?;
                let _ = inbound.map(JoinHandle::join);
            }
            other => {
                return Err(NetError::Protocol(format!(
                    "unexpected frame kind {other} between commands"
                )))
            }
        }
    }
}

// The generic wire contract and its counting allocator live with the wire
// crate's own suite; the worker protocol is crate-private, so its half of
// that suite runs from this file's tests.
#[cfg(test)]
#[path = "../../qcs-net/tests/contract/mod.rs"]
mod contract;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    use super::contract::{self, wire_contract};

    #[global_allocator]
    static ALLOC: contract::CountingAlloc = contract::CountingAlloc;

    // A link is not part of a command's wire form: roles compare by kind.
    impl PartialEq for ExchangeRole {
        fn eq(&self, other: &Self) -> bool {
            std::mem::discriminant(self) == std::mem::discriminant(other)
        }
    }

    impl std::fmt::Debug for ExchangeRole {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(match self {
                ExchangeRole::Idle => "Idle",
                ExchangeRole::Lead(_) => "Lead",
                ExchangeRole::Follow(_) => "Follow",
            })
        }
    }

    // --- golden values: the bytes under qcs-net/tests/fixtures/ were
    // written by the hand-rolled codecs of commit 3a80267 from exactly
    // these values; those carrying a block, a config or the protocol
    // version were regenerated at protocol v8 (one frame version, no
    // segment index, one config field fewer), and the gate, exchange and
    // batch commands and those carrying the version again at v9 (no
    // prefetch slots in the commands), those carrying the version or a
    // lossy block again at v10 (mode-2 segments), those carrying the
    // version again at v11 (qzstd palette containers), and those carrying
    // the version, the gate command or a wave result again at v13 (a gate
    // command is an inter-block pair, a wave result has no hot bytes) -----

    fn golden_block(lossy: bool) -> CompressedBlock {
        let codec = BlockCodec::new(qcs_compress::CodecId::SolutionC);
        let vals: Vec<f64> = (0..16).map(|i| (i as f64 * 0.37).sin()).collect();
        let bound = if lossy {
            ErrorBound::PointwiseRelative(1e-3)
        } else {
            ErrorBound::Lossless
        };
        codec.compress(&vals, bound).unwrap()
    }

    fn golden_cmds() -> Vec<(&'static str, WorkerCmd)> {
        let (lead, follow) = duplex::<BlockMsg>();
        vec![
            (
                "gate",
                WorkerCmd::Gate(GateCmd {
                    gate: Gate1::t(),
                    block_stride: 4,
                    offset_cmask: 0b101,
                    block_cmask: 0b10,
                    rank_cmask: 1,
                    bound: ErrorBound::PointwiseRelative(1e-3),
                }),
            ),
            (
                "exchange_lead",
                WorkerCmd::Exchange(ExchangeCmd {
                    gate: Gate1::h(),
                    offset_cmask: 0b11,
                    block_cmask: 1,
                    bound: ErrorBound::Lossless,
                    role: ExchangeRole::Lead(lead),
                }),
            ),
            (
                "exchange_follow",
                WorkerCmd::Exchange(ExchangeCmd {
                    gate: Gate1::rx(0.7),
                    offset_cmask: 0,
                    block_cmask: 0,
                    bound: ErrorBound::Absolute(1e-5),
                    role: ExchangeRole::Follow(follow),
                }),
            ),
            (
                "exchange_idle",
                WorkerCmd::Exchange(ExchangeCmd {
                    gate: Gate1::x(),
                    offset_cmask: 1,
                    block_cmask: 2,
                    bound: ErrorBound::Lossless,
                    role: ExchangeRole::Idle,
                }),
            ),
            (
                "batch",
                WorkerCmd::Batch(BatchCmd {
                    plans: Arc::new(vec![
                        BatchPlan {
                            gate: Gate1::h(),
                            offset_bit: 0,
                            offset_cmask: 0b10,
                            block_cmask: 1,
                            rank_cmask: 0,
                        },
                        BatchPlan {
                            gate: Gate1::rz(0.3),
                            offset_bit: 2,
                            offset_cmask: 0,
                            block_cmask: 0,
                            rank_cmask: 1,
                        },
                    ]),
                    bound: ErrorBound::PointwiseRelative(1e-4),
                }),
            ),
            (
                "collapse",
                WorkerCmd::Collapse {
                    scope: ControlScope::RankSelect { rank_bit: 1 },
                    outcome: true,
                    scale: std::f64::consts::SQRT_2,
                    bound: ErrorBound::Absolute(1e-4),
                },
            ),
            (
                "recompress",
                WorkerCmd::Recompress {
                    bound: ErrorBound::PointwiseRelative(1e-2),
                },
            ),
            (
                "prob_one",
                WorkerCmd::ProbOne {
                    scope: ControlScope::InBlock { offset_bit: 2 },
                },
            ),
            (
                "prob_one_block_select",
                WorkerCmd::ProbOne {
                    scope: ControlScope::BlockSelect { block_bit: 1 },
                },
            ),
            ("norm_sqr", WorkerCmd::NormSqr),
            ("weights", WorkerCmd::Weights),
            ("fetch_block", WorkerCmd::FetchBlock { block: 5 }),
            ("snapshot", WorkerCmd::SnapshotBlocks),
            ("expectation_zz", WorkerCmd::ExpectationZz { a: 3, b: 9 }),
            ("nop", WorkerCmd::Nop),
        ]
    }

    fn golden_results() -> Vec<(&'static str, Result<WorkerOut, String>)> {
        vec![
            (
                "wave",
                Ok(WorkerOut::Wave(WaveOut {
                    lossy: true,
                    compressed_bytes: 1000,
                    resident_bytes: 800,
                })),
            ),
            ("scalar", Ok(WorkerOut::Scalar(-0.125))),
            ("weights", Ok(WorkerOut::Weights(vec![0.25, 0.5, 0.125]))),
            ("block", Ok(WorkerOut::Block(golden_block(true)))),
            (
                "blocks",
                Ok(WorkerOut::Blocks(vec![
                    golden_block(false),
                    golden_block(true),
                ])),
            ),
            ("err", Err(SimError::Spill("disk full".into()).to_string())),
        ]
    }

    /// Encoded and decoded only, never validated: its three shards pin
    /// the field's bytes.
    fn golden_hello_cfg() -> SimConfig {
        let mut cfg = SimConfig::default()
            .with_block_log2(3)
            .with_ranks_log2(1)
            .with_threads_per_rank(2)
            .with_spill(2)
            .with_write_behind(true)
            .with_spill_dir(PathBuf::from("/coordinator/only"))
            .with_remote(vec!["127.0.0.1:9"]);
        cfg.spill.as_mut().unwrap().shards = 3;
        cfg
    }

    fn assert_golden<T: Wire + PartialEq + std::fmt::Debug>(name: &str, value: &T) {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../qcs-net/tests/fixtures");
        contract::assert_golden(dir, name, value);
    }

    #[test]
    fn worker_protocol_bytes_match_the_parent_commit() {
        for (name, cmd) in golden_cmds() {
            assert_golden(&format!("cmd_{name}"), &cmd);
        }
        let delta = TimeBreakdown::from_array(std::array::from_fn(|i| 3 + i as u64));
        for (name, result) in golden_results() {
            assert_golden(&format!("done_{name}"), &Done { delta, result });
        }
        assert_golden::<BlockMsg>("relay", &(5, golden_block(true)));
        let blocks = [
            Some(golden_block(false)),
            None,
            Some(golden_block(true)),
            None,
        ];
        assert_golden(
            "hello_full",
            &Hello::new(1, &golden_hello_cfg(), 6, &blocks),
        );
        assert_golden(
            "hello_no_blocks",
            &Hello::new(0, &SimConfig::default().with_block_log2(3), 4, &[]),
        );
        assert_golden::<HelloAck>("hello_ack_ok", &Ok((PROTOCOL_VERSION, 1)));
        assert_golden::<HelloAck>(
            "hello_ack_err",
            &Err("rank 9 out of range for a 2-rank layout".into()),
        );
        assert_eq!(PROTOCOL_VERSION, 13);
    }

    // --- the wire contract over arbitrary protocol values ------------------

    fn arb_bound() -> impl Strategy<Value = ErrorBound> {
        prop_oneof![
            Just(ErrorBound::Lossless),
            (1e-9f64..1e-1).prop_map(ErrorBound::PointwiseRelative),
            (1e-9f64..1e-1).prop_map(ErrorBound::Absolute),
        ]
    }

    fn arb_gate() -> impl Strategy<Value = Gate1> {
        prop::collection::vec(-1.0f64..1.0, 8).prop_map(|v| {
            let c = |k: usize| Complex64 {
                re: v[2 * k],
                im: v[2 * k + 1],
            };
            Gate1 {
                m: [[c(0), c(1)], [c(2), c(3)]],
            }
        })
    }

    fn arb_scope() -> impl Strategy<Value = ControlScope> {
        (0u8..3, any::<u32>()).prop_map(|(kind, bit)| match kind {
            0 => ControlScope::InBlock { offset_bit: bit },
            1 => ControlScope::BlockSelect { block_bit: bit },
            _ => ControlScope::RankSelect { rank_bit: bit },
        })
    }

    fn arb_block() -> impl Strategy<Value = CompressedBlock> {
        prop_oneof![
            (0u8..2).prop_map(|lossy| golden_block(lossy == 1)),
            (
                0usize..qcs_compress::CodecId::ALL.len(),
                arb_bound(),
                prop::collection::vec(any::<u8>(), 0..48)
            )
                .prop_map(|(codec, bound, bytes)| CompressedBlock {
                    codec: qcs_compress::CodecId::ALL[codec],
                    bound,
                    bytes: bytes.into(),
                }),
        ]
    }

    /// Every one of the 12 variants, with arbitrary (not merely valid)
    /// field values: the layout carries what it is given.
    fn arb_cmd() -> impl Strategy<Value = WorkerCmd> {
        let masks = || (any::<usize>(), any::<usize>(), any::<usize>());
        prop_oneof![
            (arb_gate(), any::<usize>(), masks(), arb_bound()).prop_map(
                |(gate, block_stride, m, bound)| {
                    WorkerCmd::Gate(GateCmd {
                        gate,
                        block_stride,
                        offset_cmask: m.0,
                        block_cmask: m.1,
                        rank_cmask: m.2,
                        bound,
                    })
                }
            ),
            (arb_gate(), masks(), arb_bound(), 0u8..3).prop_map(|(gate, m, bound, role)| {
                let (lead, follow) = duplex::<BlockMsg>();
                WorkerCmd::Exchange(ExchangeCmd {
                    gate,
                    offset_cmask: m.0,
                    block_cmask: m.1,
                    bound,
                    role: match role {
                        0 => ExchangeRole::Idle,
                        1 => ExchangeRole::Lead(lead),
                        _ => ExchangeRole::Follow(follow),
                    },
                })
            }),
            (
                prop::collection::vec((arb_gate(), any::<u32>(), masks()), 0..5),
                arb_bound()
            )
                .prop_map(|(plans, bound)| {
                    WorkerCmd::Batch(BatchCmd {
                        plans: Arc::new(
                            plans
                                .into_iter()
                                .map(|(gate, offset_bit, m)| BatchPlan {
                                    gate,
                                    offset_bit,
                                    offset_cmask: m.0,
                                    block_cmask: m.1,
                                    rank_cmask: m.2,
                                })
                                .collect(),
                        ),
                        bound,
                    })
                }),
            (arb_scope(), any::<bool>(), 0.5f64..2.0, arb_bound()).prop_map(
                |(scope, outcome, scale, bound)| WorkerCmd::Collapse {
                    scope,
                    outcome,
                    scale,
                    bound,
                }
            ),
            arb_bound().prop_map(|bound| WorkerCmd::Recompress { bound }),
            arb_scope().prop_map(|scope| WorkerCmd::ProbOne { scope }),
            Just(()).prop_map(|_| WorkerCmd::NormSqr),
            Just(()).prop_map(|_| WorkerCmd::Weights),
            any::<usize>().prop_map(|block| WorkerCmd::FetchBlock { block }),
            Just(()).prop_map(|_| WorkerCmd::SnapshotBlocks),
            (any::<usize>(), any::<usize>()).prop_map(|(a, b)| WorkerCmd::ExpectationZz { a, b }),
            Just(()).prop_map(|_| WorkerCmd::Nop),
        ]
    }

    fn arb_out() -> impl Strategy<Value = WorkerOut> {
        prop_oneof![
            (any::<bool>(), any::<u64>(), any::<u64>()).prop_map(
                |(lossy, compressed_bytes, resident_bytes)| {
                    WorkerOut::Wave(WaveOut {
                        lossy,
                        compressed_bytes,
                        resident_bytes,
                    })
                }
            ),
            (-2.0f64..2.0).prop_map(WorkerOut::Scalar),
            prop::collection::vec(0.0f64..1.0, 0..9).prop_map(WorkerOut::Weights),
            arb_block().prop_map(WorkerOut::Block),
            prop::collection::vec(arb_block(), 0..4).prop_map(WorkerOut::Blocks),
        ]
    }

    fn arb_done() -> impl Strategy<Value = Done> {
        (
            prop::collection::vec(any::<u64>(), TimeBreakdown::FIELDS),
            prop_oneof![
                3 => arb_out().prop_map(Ok),
                1 => (0usize..3).prop_map(|k| Err(["spill error: disk full", "", "ν"][k].into())),
            ],
        )
            .prop_map(|(fields, result)| Done {
                delta: TimeBreakdown::from_array(fields.try_into().expect("FIELDS values")),
                result,
            })
    }

    fn arb_hello() -> impl Strategy<Value = Hello> {
        (
            (any::<u32>(), 0usize..1 << 32, any::<u32>()),
            (2u32..7, 0u32..3, 0usize..4, 0usize..3, any::<bool>()),
            prop::collection::vec(prop_oneof![Just(None), arb_block().prop_map(Some)], 0..5),
        )
            .prop_map(
                |(
                    (version, rank, num_qubits),
                    (block_log2, ranks_log2, spill, shards, write_behind),
                    blocks,
                )| {
                    let mut cfg = SimConfig::default()
                        .with_block_log2(block_log2)
                        .with_ranks_log2(ranks_log2);
                    if spill > 0 {
                        cfg = cfg.with_spill(spill).with_write_behind(write_behind);
                        cfg.spill.as_mut().unwrap().shards = shards;
                    }
                    Hello {
                        version,
                        rank,
                        num_qubits,
                        cfg,
                        blocks,
                    }
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn worker_cmd_meets_the_wire_contract(cmd in arb_cmd()) {
            wire_contract(&cmd);
        }

        #[test]
        fn done_and_worker_out_meet_the_wire_contract(done in arb_done()) {
            wire_contract(&done);
        }

        #[test]
        fn relay_meets_the_wire_contract(index in any::<usize>(), block in arb_block()) {
            wire_contract::<BlockMsg>(&(index, block));
        }

        #[test]
        fn hello_and_ack_meet_the_wire_contract(
            hello in arb_hello(),
            version in any::<u32>(),
            rank in any::<u32>()
        ) {
            wire_contract(&hello);
            wire_contract::<HelloAck>(&Ok((version, rank)));
            wire_contract::<HelloAck>(&Err(format!("refused v{version}")));
        }
    }

    /// The hand-counted minimum this replaces let a `Batch` body claim one
    /// plan per remaining *byte* (a 92-byte plan bounded at 1), so the
    /// `Vec::with_capacity` behind it was ~100x the body.
    #[test]
    fn batch_plan_count_is_bounded_by_the_body() {
        assert_eq!(BatchPlan::MIN_LEN, 64 + 4 + 3 * 8);
        let cmd = WorkerCmd::Batch(BatchCmd {
            plans: Arc::new(Vec::new()),
            bound: ErrorBound::Lossless,
        });
        let mut body = encode(&cmd);
        let count_at = body.len() - 4;
        body.resize(count_at + 4 + 3 * BatchPlan::MIN_LEN, 0);
        // Four plans claimed over three plans' worth of bytes.
        body[count_at..count_at + 4].copy_from_slice(&4u32.to_le_bytes());
        let (result, requested) = contract::allocated_by(|| decode::<WorkerCmd>(&body));
        match result {
            Err(NetError::Corrupt(m)) => assert!(m.contains("count 4"), "{m}"),
            other => panic!("over-claimed plan count accepted: {other:?}"),
        }
        assert!(
            requested < std::mem::size_of::<BatchPlan>() * 4,
            "the plan table was reserved ({requested} bytes) before the count was refused"
        );
        // Exactly as many as fit is fine.
        body[count_at..count_at + 4].copy_from_slice(&3u32.to_le_bytes());
        assert!(decode::<WorkerCmd>(&body).is_ok());
    }

    #[test]
    fn a_decoded_exchange_holds_a_closed_link_until_bridged() {
        let (lead, _follow) = duplex::<BlockMsg>();
        let cmd = WorkerCmd::Exchange(ExchangeCmd {
            gate: Gate1::h(),
            offset_cmask: 0,
            block_cmask: 0,
            bound: ErrorBound::Lossless,
            role: ExchangeRole::Lead(lead),
        });
        match decode::<WorkerCmd>(&encode(&cmd)).unwrap() {
            WorkerCmd::Exchange(ExchangeCmd {
                role: ExchangeRole::Lead(link),
                ..
            }) => {
                assert!(
                    !link.send((0, golden_block(false))),
                    "nobody holds the other end"
                );
                assert!(link.recv().is_none());
            }
            _ => panic!("wrong command decoded"),
        }
    }

    #[test]
    fn hello_ships_the_config_minus_what_the_daemon_decides() {
        let cfg = SimConfig::default()
            .with_block_log2(3)
            .with_ranks_log2(1)
            .with_threads_per_rank(2)
            .with_spill(2)
            .with_write_behind(true);
        let coordinator_side = cfg
            .clone()
            .with_spill_dir(PathBuf::from("/coordinator/only"))
            .with_remote(vec!["127.0.0.1:9"]);
        let blocks = vec![
            Some(golden_block(false)),
            Some(golden_block(true)),
            Some(golden_block(false)),
            Some(golden_block(true)),
        ];
        let body = encode(&Hello::new(1, &coordinator_side, 6, &blocks));
        let (hello, layout) = Hello::admit(&body).unwrap();
        assert_eq!(hello.rank, 1);
        assert_eq!(layout, Layout::new(6, 1, 3));
        // Everything but the remote endpoints and the spill directory
        // (the daemon picks its own) arrives as configured.
        assert_eq!(hello.cfg, cfg);
        assert_eq!(hello.blocks, blocks);
    }

    #[test]
    fn version_mismatch_is_a_protocol_error() {
        let cfg = SimConfig::default().with_block_log2(3);
        let mut body = encode(&Hello::new(0, &cfg, 4, &[]));
        body[0] = PROTOCOL_VERSION as u8 + 1;
        assert!(matches!(Hello::admit(&body), Err(NetError::Protocol(_))));
        // Named even when the rest of the body is another version's layout.
        assert!(matches!(
            Hello::admit(&body[..6]),
            Err(NetError::Protocol(_))
        ));
    }

    /// One test per `hello_full` fixture a past protocol version wrote,
    /// each with what its layout still carried. Every one is refused by
    /// its version, not parsed, so none of its blocks reaches a worker.
    macro_rules! stale_hellos_are_refused_by_version {
        ($($name:ident: $v:literal, $carried:literal;)*) => {$(
            #[doc = concat!("`hello_full` as protocol v", $v, " wrote it: ", $carried, ".")]
            #[test]
            fn $name() {
                let body = include_bytes!(concat!(
                    "../../qcs-net/tests/fixtures/hello_v", $v, ".bin"
                ));
                let speaks = concat!("peer speaks protocol v", $v);
                match Hello::admit(body) {
                    Err(NetError::Protocol(m)) => assert!(m.contains(speaks), "{m}"),
                    other => panic!("a v{} hello was not refused by version: {other:?}", $v),
                }
            }
        )*};
    }

    stale_hellos_are_refused_by_version! {
        a_v4_hello_is_refused_by_version: 4, "command bodies still carried op signatures";
        a_v5_hello_is_refused_by_version: 5, "segmented Solution C blocks had no mode byte";
        a_v6_hello_is_refused_by_version: 6, "its config still carried `partial_decode`";
        a_v7_hello_is_refused_by_version: 7, "lossy blocks in version-2 frames with a segment index";
        a_v8_hello_is_refused_by_version: 8, "commands carried the next wave's prefetch slots";
        a_v9_hello_is_refused_by_version: 9, "segments in the retired \"QCSs\" layout";
        a_v10_hello_is_refused_by_version: 10, "no qzstd palette containers";
        a_v11_hello_is_refused_by_version: 11,
            "its config carried `max_batch_gates` and an LRU eviction tag";
        a_v12_hello_is_refused_by_version: 12,
            "in-block gates and inter-rank routes could travel as gate commands";
    }

    /// A lossy block of two segments at 1e-3 with one byte of its second
    /// segment's body flipped: the embedded frame's checksum covers every
    /// payload byte, so the block is refused on the socket, before any
    /// worker decodes it.
    #[test]
    fn a_flipped_body_byte_in_an_embedded_block_frame_is_refused() {
        let vals: Vec<f64> = (0..2048).map(|i| (i as f64 * 0.37).sin() * 1e-3).collect();
        let blk = BlockCodec::new(qcs_compress::CodecId::SolutionC)
            .compress(&vals, ErrorBound::PointwiseRelative(1e-3))
            .unwrap();
        let mut body = encode(&blk);
        let payload_at = body.len() - blk.len();
        let len0 = u32::from_le_bytes(blk.bytes[12..16].try_into().unwrap()) as usize;
        body[payload_at + 16 + len0 + 4 + 10] ^= 0x04; // inside segment 1's body
        match decode::<CompressedBlock>(&body) {
            Err(NetError::Corrupt(m)) => assert!(m.contains("checksum"), "{m}"),
            other => panic!("a flipped body byte crossed the wire: {other:?}"),
        }
    }

    #[test]
    fn a_hello_with_an_absent_block_gets_an_err_ack() {
        // One table for a 6-qubit, 2-rank, 2^3-amp-block layout, with a
        // hole: a spilling store would panic on it at seeding, a resident
        // one at the first read.
        let codec = BlockCodec::new(qcs_compress::CodecId::SolutionC);
        let zeros = Some(codec.compress(&[0.0; 16], ErrorBound::Lossless).unwrap());
        let blocks = [zeros.clone(), None, zeros.clone(), zeros];
        let cfg = SimConfig::default().with_block_log2(3).with_ranks_log2(1);
        let (addr, daemon) = spawn_loopback(2, ServeOptions::default()).unwrap();
        for cfg in [cfg.clone(), cfg.with_spill(2)] {
            let mut stream =
                qcs_net::connect_supervised(&addr, &qcs_net::ConnectPolicy::default()).unwrap();
            let hello = encode(&Hello::new(0, &cfg, 6, &blocks));
            write_frame_to(&mut stream, K_HELLO, &hello).unwrap();
            let (kind, ack) = recv_frame(&mut stream).expect("the handshake is answered");
            assert_eq!(kind, K_HELLO_ACK);
            match decode::<HelloAck>(&ack).unwrap() {
                Err(msg) => assert!(msg.contains("handshake block 1 is absent"), "{msg}"),
                Ok(ack) => panic!("spill={:?}: acked {ack:?}", cfg.spill.is_some()),
            }
        }
        join_loopback(daemon);
    }

    #[test]
    fn a_hello_with_an_oversized_block_gets_an_err_ack() {
        // Two tiny blocks claiming 2^39 amplitudes each on 40 qubits: the
        // daemon would size its codec scratch by the claim (8 TiB of f64s)
        // before decoding either block.
        let codec = BlockCodec::new(qcs_compress::CodecId::SolutionC);
        let zeros = Some(codec.compress(&[0.0; 16], ErrorBound::Lossless).unwrap());
        let blocks = [zeros.clone(), zeros];
        let cfg = SimConfig::default().with_block_log2(39);
        let (addr, daemon) = spawn_loopback(1, ServeOptions::default()).unwrap();
        let mut stream =
            qcs_net::connect_supervised(&addr, &qcs_net::ConnectPolicy::default()).unwrap();
        write_frame_to(
            &mut stream,
            K_HELLO,
            &encode(&Hello::new(0, &cfg, 40, &blocks)),
        )
        .unwrap();
        let (kind, ack) = recv_frame(&mut stream).expect("the handshake is answered");
        assert_eq!(kind, K_HELLO_ACK);
        match decode::<HelloAck>(&ack).unwrap() {
            Err(msg) => assert!(msg.contains("block_log2"), "{msg}"),
            Ok(ack) => panic!("acked {ack:?}"),
        }
        join_loopback(daemon);
    }

    #[test]
    fn impossible_geometry_is_rejected_not_asserted() {
        // 4 qubits cannot hold 2^1 ranks x 2^12-amp blocks.
        let cfg = SimConfig::default().with_ranks_log2(1);
        let body = encode(&Hello::new(0, &cfg, 4, &[]));
        assert!(matches!(Hello::admit(&body), Err(NetError::Corrupt(_))));
    }

    // --- hostile commands against a live daemon ----------------------------

    /// Commands that decode cleanly but would index, shift or
    /// `unreachable!` past rank 0 of a 6-qubit, 2-rank, 2^3-amp-block
    /// layout (4 blocks per rank).
    fn hostile_cmds() -> Vec<(&'static str, WorkerCmd)> {
        let gate = |block_stride, masks: (usize, usize, usize)| {
            WorkerCmd::Gate(GateCmd {
                gate: Gate1::h(),
                block_stride,
                offset_cmask: masks.0,
                block_cmask: masks.1,
                rank_cmask: masks.2,
                bound: ErrorBound::Lossless,
            })
        };
        let plan = |offset_bit, masks: (usize, usize, usize)| BatchPlan {
            gate: Gate1::h(),
            offset_bit,
            offset_cmask: masks.0,
            block_cmask: masks.1,
            rank_cmask: masks.2,
        };
        let batch = |plans: Vec<BatchPlan>| {
            WorkerCmd::Batch(BatchCmd {
                plans: Arc::new(plans),
                bound: ErrorBound::Lossless,
            })
        };
        let unmasked = (0, 0, 0);
        let scopes = [
            ControlScope::InBlock { offset_bit: 3 },
            ControlScope::BlockSelect { block_bit: 2 },
            ControlScope::RankSelect { rank_bit: 1 },
        ];
        let mut cmds = vec![
            ("fetch far", WorkerCmd::FetchBlock { block: 1 << 40 }),
            ("fetch one past", WorkerCmd::FetchBlock { block: 4 }),
            ("stride = blocks", gate(4, unmasked)),
            ("stride not a bit", gate(3, unmasked)),
            ("stride zero", gate(0, unmasked)),
            ("gate offset mask", gate(1, (1 << 3, 0, 0))),
            ("gate block mask", gate(1, (0, 4, 0))),
            ("gate rank mask", gate(1, (0, 0, 2))),
            (
                "65-gate batch",
                batch(
                    (0..=qcs_circuits::schedule::MAX_BATCH_GATES)
                        .map(|_| plan(0, unmasked))
                        .collect(),
                ),
            ),
            ("offset bit 63", batch(vec![plan(63, unmasked)])),
            (
                "offset bit = block_log2",
                batch(vec![plan(0, unmasked), plan(3, unmasked)]),
            ),
            ("batch offset mask", batch(vec![plan(0, (1 << 3, 0, 0))])),
            ("batch block mask", batch(vec![plan(0, (0, 4, 0))])),
            ("batch rank mask", batch(vec![plan(0, (0, 0, 2))])),
            (
                "exchange block mask",
                WorkerCmd::Exchange(ExchangeCmd {
                    gate: Gate1::h(),
                    offset_cmask: 0,
                    block_cmask: 8,
                    bound: ErrorBound::Lossless,
                    role: ExchangeRole::Lead(duplex().0),
                }),
            ),
            ("zz out of range", WorkerCmd::ExpectationZz { a: 6, b: 0 }),
            ("zz same qubit", WorkerCmd::ExpectationZz { a: 2, b: 2 }),
        ];
        for scope in scopes {
            cmds.push(("prob_one scope", WorkerCmd::ProbOne { scope }));
            cmds.push((
                "collapse scope",
                WorkerCmd::Collapse {
                    scope,
                    outcome: true,
                    scale: 1.0,
                    bound: ErrorBound::Lossless,
                },
            ));
        }
        cmds
    }

    #[test]
    fn hostile_commands_get_done_err_and_the_daemon_keeps_serving() {
        let (addr, daemon) = spawn_loopback(3, ServeOptions::default()).unwrap();
        let codec = BlockCodec::new(qcs_compress::CodecId::SolutionC);
        let block = |vals: &[f64]| Some(codec.compress(vals, ErrorBound::Lossless).unwrap());
        // |0...0> on rank 0: amplitude 1 at offset 0 of block 0.
        let mut first = [0.0; 16];
        first[0] = 1.0;
        let cfg = SimConfig::default().with_block_log2(3).with_ranks_log2(1);
        // One connection hosting rank 0 over `blocks`.
        let session = |blocks: &[Option<CompressedBlock>]| {
            let mut stream =
                qcs_net::connect_supervised(&addr, &qcs_net::ConnectPolicy::default()).unwrap();
            let hello = encode(&Hello::new(0, &cfg, 6, blocks));
            write_frame_to(&mut stream, K_HELLO, &hello).unwrap();
            let (kind, ack) = recv_frame(&mut stream).unwrap();
            assert_eq!(kind, K_HELLO_ACK);
            assert!(decode::<HelloAck>(&ack).unwrap().is_ok());
            stream
        };
        let ask = |stream: &mut TcpStream, cmd: &WorkerCmd| {
            write_frame_to(stream, K_CMD, &encode(cmd)).unwrap();
            let (kind, body) = recv_frame(stream).expect("the connection is still served");
            assert_eq!(kind, K_DONE);
            decode::<Done>(&body).unwrap().result
        };

        let zeros = || block(&[0.0; 16]);
        let mut stream = session(&[block(&first), zeros(), zeros(), zeros()]);
        for (what, cmd) in hostile_cmds() {
            match ask(&mut stream, &cmd) {
                Err(msg) => assert!(msg.contains("invalid command"), "{what}: {msg}"),
                Ok(out) => panic!("{what}: executed, answered {out:?}"),
            }
            assert_eq!(
                ask(&mut stream, &WorkerCmd::NormSqr),
                Ok(WorkerOut::Scalar(1.0)),
                "after {what}"
            );
        }
        write_frame_to(&mut stream, K_SHUTDOWN, &[]).unwrap();

        // Well-formed commands over a hostile block table: block 0 decodes
        // cleanly, to half the values of the layout's blocks. `Hello` does
        // not decode, so the handshake succeeds; each wave that reaches
        // the block is `Done(Err)`, not a dead handler.
        let gate = WorkerCmd::Gate(GateCmd {
            gate: Gate1::h(),
            block_stride: 1,
            offset_cmask: 0,
            block_cmask: 0,
            rank_cmask: 0,
            bound: ErrorBound::Lossless,
        });
        let batch = WorkerCmd::Batch(BatchCmd {
            plans: Arc::new(vec![BatchPlan {
                gate: Gate1::h(),
                offset_bit: 1,
                offset_cmask: 0,
                block_cmask: 0,
                rank_cmask: 0,
            }]),
            bound: ErrorBound::Lossless,
        });
        for (what, cmd) in [("batch", batch), ("inter-block gate", gate)] {
            let mut stream = session(&[block(&first[..8]), zeros(), zeros(), zeros()]);
            match ask(&mut stream, &cmd) {
                Err(msg) => assert!(
                    msg.contains("block decodes to 8 values, layout has 16"),
                    "{what} over a short block: {msg}"
                ),
                Ok(out) => panic!("{what} over a short block answered {out:?}"),
            }
            // The failed wave's blocks never went back to the store: every
            // later command, a read of them included, is answered with
            // that first failure — still a `Done`, not a dead handler.
            for later in [WorkerCmd::NormSqr, WorkerCmd::Nop] {
                match ask(&mut stream, &later) {
                    Err(msg) => assert!(
                        msg.contains("block decodes to 8 values, layout has 16"),
                        "{later:?} after {what} over a short block: {msg}"
                    ),
                    Ok(out) => panic!("{later:?} after {what} over a short block: {out:?}"),
                }
            }
            write_frame_to(&mut stream, K_SHUTDOWN, &[]).unwrap();
        }
        join_loopback(daemon);
    }
}
