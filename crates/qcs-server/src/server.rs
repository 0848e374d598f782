//! The `qcs-server` daemon: sessions, runners, and management plumbing
//! around the deterministic [`Scheduler`].
//!
//! ## Threading model
//!
//! - **Accept loop** (one thread): accepts connections, spawns sessions.
//! - **Session** (one thread per connection): performs the version
//!   handshake, then reads [`JobCmd`] frames. Outbound [`JobOut`] events
//!   for everything submitted on the connection flow through a per-session
//!   channel drained by a dedicated **writer** thread, so job streams and
//!   command responses interleave without write races. A read error or
//!   EOF is a client disconnect: the session cancels its outstanding
//!   jobs before exiting.
//! - **Runner** (one thread per admitted job): builds the simulator
//!   (fresh, or from a checkpoint when resuming a suspended job), runs
//!   the schedule through the engine's observed wave loop — streaming
//!   one [`JobOut::Wave`] per schedule item and honoring cancel/suspend
//!   flags at item boundaries — then reports the outcome back to the
//!   scheduler and carries out whatever admissions that unlocks.
//!
//! All scheduling *decisions* happen inside [`Scheduler`] under one
//! mutex; threads only carry out the returned [`SchedAction`]s, so the
//! concurrency surface stays mechanism, not policy.

use crate::protocol::{
    decode_job_cmd, encode_job_out, HealthInfo, JobCmd, JobHelloAck, JobId, JobOut, JobSpec,
    JobState, K_JOB_CMD, K_JOB_HELLO, K_JOB_HELLO_ACK, K_JOB_OUT,
};
use crate::scheduler::{carve_bytes, Clock, SchedAction, SchedPolicy, Scheduler, WallClock};
use parking_lot::Mutex;
use qcs_core::{checkpoint, CompressedSimulator, RunOutcome, SimError, SpillConfig, WaveControl};
use qcs_net::wire::{decode, encode};
use qcs_net::{recv_frame, send_frame, PROTOCOL_VERSION};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Global memory budget in bytes shared by all admitted jobs.
    pub budget_bytes: u64,
    /// Hard cap on concurrently running jobs.
    pub max_running: usize,
    /// Residency carve-out (blocks per rank) assigned to jobs that do
    /// not request their own spill config.
    pub default_resident_blocks: usize,
    /// Working directory for per-job spill segments and suspend
    /// checkpoints. `None` creates a unique directory under the system
    /// temp dir. Removed on shutdown.
    pub work_dir: Option<PathBuf>,
    /// Largest state (in qubits) the daemon will snapshot into a
    /// [`JobOut::Done`] when the spec asks for amplitudes.
    pub max_snapshot_qubits: u32,
    /// Stop accepting after this many connections (`None`: serve
    /// forever). Sessions already open keep running.
    pub max_conns: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            budget_bytes: 256 << 20,
            max_running: usize::MAX,
            default_resident_blocks: 4,
            work_dir: None,
            max_snapshot_qubits: 16,
            max_conns: None,
        }
    }
}

/// Hard server-side ceiling on a job's requested `pace_ms`. The pace is
/// a demo/test knob, not a contract; an unclamped wire value could pin
/// its budget carve-out for days per schedule item.
pub const MAX_PACE_MS: u64 = 1_000;

/// Slice width for pace sleeps: the runner re-checks its cancel/suspend
/// flags at least this often while pacing, so a paced job stays
/// responsive to cancellation and preemption.
const PACE_SLICE_MS: u64 = 5;

struct Ctrl {
    cancel: AtomicBool,
    suspend: AtomicBool,
}

impl Ctrl {
    /// Either control flag is raised: the runner should stop pacing and
    /// let the wave callback report back.
    fn interrupted(&self) -> bool {
        self.cancel.load(Ordering::SeqCst) || self.suspend.load(Ordering::SeqCst)
    }
}

struct JobRt {
    spec: JobSpec,
    ctrl: Arc<Ctrl>,
    events: mpsc::Sender<JobOut>,
    /// Suspend checkpoint: file and the schedule item to resume from.
    ckpt: Option<(PathBuf, usize)>,
}

struct State {
    sched: Scheduler,
    rt: HashMap<JobId, JobRt>,
    runners: Vec<JoinHandle<()>>,
    session_handles: Vec<(u64, JoinHandle<()>)>,
    session_streams: HashMap<u64, TcpStream>,
    /// Sessions whose threads have exited (their stream entry is already
    /// gone); the accept loop reaps — joins and drops — their handles so
    /// a long-lived daemon doesn't accumulate one per past connection.
    done_sessions: Vec<u64>,
    /// Admissions produced by `submit` are deferred here so the session
    /// can emit `Accepted`/`Queued` before any `Admitted` event.
    pending_actions: Vec<SchedAction>,
}

/// Pull the handles of exited sessions out of the state (joining them is
/// instant, but do it without the lock held).
fn reap_finished_sessions(st: &mut State) -> Vec<JoinHandle<()>> {
    let done = std::mem::take(&mut st.done_sessions);
    if done.is_empty() {
        return Vec::new();
    }
    let (finished, live): (Vec<_>, Vec<_>) = st
        .session_handles
        .drain(..)
        .partition(|(id, _)| done.contains(id));
    st.session_handles = live;
    finished.into_iter().map(|(_, h)| h).collect()
}

struct Shared {
    cfg: ServerConfig,
    clock: WallClock,
    work_dir: PathBuf,
    state: Mutex<State>,
    shutdown: AtomicBool,
    /// Test hook: the next runner to start panics instead of executing.
    debug_panic_next_runner: AtomicBool,
}

/// A running daemon: its bound address plus shutdown/join control.
/// Dropping the handle shuts the daemon down (prefer calling
/// [`ServerHandle::shutdown`] explicitly).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

static WORK_DIR_NONCE: AtomicU64 = AtomicU64::new(0);

/// Start the daemon on an already-bound listener. Returns immediately;
/// the accept loop runs on its own thread.
pub fn spawn(listener: TcpListener, cfg: ServerConfig) -> std::io::Result<ServerHandle> {
    let addr = listener.local_addr()?;
    let work_dir = match &cfg.work_dir {
        Some(dir) => dir.clone(),
        None => std::env::temp_dir().join(format!(
            "qcs-server-{}-{}-{}",
            std::process::id(),
            addr.port(),
            WORK_DIR_NONCE.fetch_add(1, Ordering::Relaxed)
        )),
    };
    std::fs::create_dir_all(&work_dir)?;
    let policy = SchedPolicy {
        budget_bytes: cfg.budget_bytes,
        max_running: cfg.max_running,
    };
    let shared = Arc::new(Shared {
        cfg,
        clock: WallClock::new(),
        work_dir,
        state: Mutex::new(State {
            sched: Scheduler::new(policy),
            rt: HashMap::new(),
            runners: Vec::new(),
            session_handles: Vec::new(),
            session_streams: HashMap::new(),
            done_sessions: Vec::new(),
            pending_actions: Vec::new(),
        }),
        shutdown: AtomicBool::new(false),
        debug_panic_next_runner: AtomicBool::new(false),
    });
    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || accept_loop(shared, listener))
    };
    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
    })
}

/// Bind an ephemeral loopback port and start the daemon on it — the
/// in-process server used by tests, doctests, and the bench harness.
pub fn spawn_loopback(cfg: ServerConfig) -> std::io::Result<ServerHandle> {
    spawn(TcpListener::bind("127.0.0.1:0")?, cfg)
}

impl ServerHandle {
    /// The daemon's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's working directory (spill segments + checkpoints).
    pub fn work_dir(&self) -> &std::path::Path {
        &self.shared.work_dir
    }

    /// Fault injection for tests: make the next admitted job's runner
    /// thread panic where a bug in the engine would.
    #[doc(hidden)]
    pub fn debug_panic_next_runner(&self) {
        self.shared
            .debug_panic_next_runner
            .store(true, Ordering::SeqCst);
    }

    /// Block until the accept loop exits (a `max_conns` limit, or
    /// another thread shutting the daemon down) and the daemon winds
    /// down. When the accept loop stopped because of `max_conns` —
    /// rather than a shutdown request — sessions already open keep
    /// running, as [`ServerConfig::max_conns`] promises: their jobs are
    /// drained to completion (or client disconnect) before teardown.
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if !self.shared.shutdown.load(Ordering::SeqCst) {
            self.drain_sessions();
        }
        self.stop();
    }

    /// Stop the daemon: cancel active jobs, close sessions, join every
    /// thread, and remove the working directory.
    pub fn shutdown(mut self) {
        if let Some(h) = self.accept.take() {
            self.stop_accept(h);
        }
        self.stop();
    }

    fn stop_accept(&self, accept: JoinHandle<()>) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = accept.join();
    }

    /// Graceful wind-down after a `max_conns` accept-loop exit: join
    /// every open session (each ends when its client disconnects, having
    /// already cancelled anything that client abandoned), then let the
    /// runners those sessions left behind run to completion.
    fn drain_sessions(&self) {
        let shared = &self.shared;
        loop {
            let handles = std::mem::take(&mut shared.state.lock().session_handles);
            if handles.is_empty() {
                break;
            }
            for (_, h) in handles {
                let _ = h.join();
            }
        }
        loop {
            let handles = std::mem::take(&mut shared.state.lock().runners);
            if handles.is_empty() {
                break;
            }
            for h in handles {
                let _ = h.join();
            }
        }
    }

    fn stop(&mut self) {
        let shared = &self.shared;
        shared.shutdown.store(true, Ordering::SeqCst);
        // Request cancellation of everything still active, then force
        // sessions off their blocking reads.
        let streams = {
            let mut st = shared.state.lock();
            let active: Vec<JobId> = st
                .sched
                .summaries()
                .into_iter()
                .filter(|s| !s.state.is_terminal())
                .map(|s| s.job)
                .collect();
            for job in active {
                let actions = st.sched.cancel(job, shared.clock.now_ms());
                finish_waiting(shared, &mut st, job);
                apply_actions(shared, &mut st, actions);
            }
            std::mem::take(&mut st.session_streams)
        };
        for s in streams.into_values() {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        // Join runners (they may spawn follow-on runners as admissions
        // cascade, so drain until quiescent), then sessions.
        loop {
            let handles = std::mem::take(&mut shared.state.lock().runners);
            if handles.is_empty() {
                break;
            }
            for h in handles {
                let _ = h.join();
            }
        }
        let sessions = std::mem::take(&mut shared.state.lock().session_handles);
        for (_, h) in sessions {
            let _ = h.join();
        }
        let _ = std::fs::remove_dir_all(&shared.work_dir);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if let Some(h) = self.accept.take() {
            self.stop_accept(h);
            self.stop();
        }
    }
}

fn accept_loop(shared: Arc<Shared>, listener: TcpListener) {
    let mut served = 0u64;
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        // Events are small frames answered by small frames: without this,
        // each one waits out Nagle against the client's delayed ACK.
        let _ = stream.set_nodelay(true);
        let sid = served;
        let finished = {
            let mut st = shared.state.lock();
            let finished = reap_finished_sessions(&mut st);
            if let Ok(clone) = stream.try_clone() {
                st.session_streams.insert(sid, clone);
            }
            let shared2 = Arc::clone(&shared);
            let handle = std::thread::spawn(move || session(shared2, stream, sid));
            st.session_handles.push((sid, handle));
            finished
        };
        for h in finished {
            let _ = h.join();
        }
        served += 1;
        if shared.cfg.max_conns.is_some_and(|max| served >= max as u64) {
            break;
        }
    }
}

/// The session writer: frame every event queued since the last wake-up
/// into one buffer and hand the socket one write per wake-up, not one per
/// event. Ends when every sender is gone or the client stops reading.
fn write_events(mut stream: TcpStream, rx: mpsc::Receiver<JobOut>) {
    let mut buf = Vec::new();
    while let Ok(first) = rx.recv() {
        buf.clear();
        for out in std::iter::once(first).chain(rx.try_iter()) {
            if send_frame(&mut buf, K_JOB_OUT, &encode_job_out(&out)).is_err() {
                return;
            }
        }
        if stream.write_all(&buf).is_err() {
            return;
        }
    }
}

/// One connection's lifetime: run the protocol, then unregister so the
/// daemon does not accumulate a stream fd and a join handle per past
/// connection. (The handle itself is reaped by the accept loop or at
/// shutdown — a thread cannot join itself.)
fn session(shared: Arc<Shared>, stream: TcpStream, sid: u64) {
    session_protocol(&shared, stream);
    let mut st = shared.state.lock();
    st.session_streams.remove(&sid);
    st.done_sessions.push(sid);
}

fn session_protocol(shared: &Arc<Shared>, mut stream: TcpStream) {
    // Version handshake: first frame must be a matching hello.
    match recv_frame(&mut stream) {
        Ok((K_JOB_HELLO, body)) => {
            let ok = decode::<u32>(&body).is_ok_and(|version| version == PROTOCOL_VERSION);
            let ack: JobHelloAck = if ok {
                Ok(PROTOCOL_VERSION)
            } else {
                Err("protocol version mismatch".into())
            };
            let ack = encode(&ack);
            let mut buf = Vec::new();
            if send_frame(&mut buf, K_JOB_HELLO_ACK, &ack).is_err()
                || stream.write_all(&buf).is_err()
                || !ok
            {
                return;
            }
        }
        _ => return,
    }

    let (tx, rx) = mpsc::channel::<JobOut>();
    let writer = match stream.try_clone() {
        Ok(wstream) => std::thread::spawn(move || write_events(wstream, rx)),
        Err(_) => return,
    };

    let mut my_jobs: Vec<JobId> = Vec::new();
    // Disconnects, I/O errors, and wrong-kind frames all end the session.
    while let Ok((K_JOB_CMD, body)) = recv_frame(&mut stream) {
        let cmd = match decode_job_cmd(&body) {
            Ok(cmd) => cmd,
            Err(e) => {
                let _ = tx.send(JobOut::Rejected {
                    reason: format!("bad command: {e}"),
                });
                continue;
            }
        };
        match cmd {
            JobCmd::Submit(spec) => match submit(shared, *spec, tx.clone()) {
                Ok(job) => {
                    my_jobs.push(job);
                    let _ = tx.send(JobOut::Accepted { job });
                    let _ = tx.send(JobOut::State {
                        job,
                        state: JobState::Queued,
                    });
                    run_pending_admissions(shared);
                }
                Err(reason) => {
                    let _ = tx.send(JobOut::Rejected { reason });
                }
            },
            JobCmd::Cancel { job } => {
                let mut st = shared.state.lock();
                let actions = st.sched.cancel(job, shared.clock.now_ms());
                finish_waiting(shared, &mut st, job);
                apply_actions(shared, &mut st, actions);
            }
            JobCmd::Health => {
                let _ = tx.send(JobOut::Health(health(shared)));
            }
        }
    }

    // Client disconnect: cancel everything it submitted that is still
    // active, so abandoned jobs release budget and spill space.
    {
        let mut st = shared.state.lock();
        for job in my_jobs {
            let actions = st.sched.cancel(job, shared.clock.now_ms());
            finish_waiting(shared, &mut st, job);
            apply_actions(shared, &mut st, actions);
        }
    }
    drop(tx);
    let _ = writer.join();
}

/// A waiting (queued/suspended) job cancels synchronously inside the
/// scheduler — no runner will ever observe it. Emit its terminal event,
/// drop its runtime record (which releases the clone of the session's
/// event channel, letting the session's writer thread exit), and remove
/// any on-disk traces (a suspended job has a checkpoint and spill dir).
fn finish_waiting(shared: &Arc<Shared>, st: &mut State, job: JobId) {
    if st.sched.state(job) != Some(JobState::Cancelled) {
        return;
    }
    if let Some(rt) = st.rt.remove(&job) {
        let _ = rt.events.send(JobOut::State {
            job,
            state: JobState::Cancelled,
        });
        cleanup_job_files(shared, job);
    }
}

/// Validate and normalize a submission, register it with the scheduler,
/// and stash its runtime record. Returns the job id (actions are applied
/// by the caller via [`run_pending_admissions`]).
fn submit(
    shared: &Arc<Shared>,
    mut spec: JobSpec,
    events: mpsc::Sender<JobOut>,
) -> Result<JobId, String> {
    if spec.num_qubits as usize != spec.circuit.num_qubits() {
        return Err(format!(
            "spec says {} qubits but the circuit has {}",
            spec.num_qubits,
            spec.circuit.num_qubits()
        ));
    }
    // Normalize: clamp the client-supplied pace so no job can wedge
    // itself (and the shutdown join) in week-long sleeps, and give every
    // job a spill carve-out so the global budget is enforceable.
    spec.pace_ms = spec.pace_ms.min(MAX_PACE_MS);
    let mut spill = spec
        .config
        .spill
        .take()
        .unwrap_or_else(|| SpillConfig::new(shared.cfg.default_resident_blocks));
    spill.resident_blocks = spill.resident_blocks.max(1);
    spec.config.spill = Some(spill);
    spec.config.validate(spec.num_qubits)?;
    let carve = carve_bytes(&spec.config, spec.num_qubits);

    let mut st = shared.state.lock();
    let (job, actions) =
        st.sched
            .submit(&spec.name, spec.priority, carve, shared.clock.now_ms())?;
    // The job's spill segments live in its own subdirectory of the
    // server work dir, so leak checks (and cleanup) are per-job.
    if let Some(spill) = &mut spec.config.spill {
        spill.dir = Some(shared.work_dir.join(format!("job-{}", job.0)));
    }
    st.rt.insert(
        job,
        JobRt {
            spec,
            ctrl: Arc::new(Ctrl {
                cancel: AtomicBool::new(false),
                suspend: AtomicBool::new(false),
            }),
            events,
            ckpt: None,
        },
    );
    st.pending_actions.extend(actions);
    Ok(job)
}

/// Carry out scheduler actions: spawn/resume runners, flip cancel and
/// suspend flags. Call with the state lock held.
fn apply_actions(shared: &Arc<Shared>, st: &mut State, actions: Vec<SchedAction>) {
    for action in actions {
        match action {
            SchedAction::Start(job) => {
                if let Some(rt) = st.rt.get(&job) {
                    let _ = rt.events.send(JobOut::State {
                        job,
                        state: JobState::Admitted,
                    });
                }
                let shared2 = Arc::clone(shared);
                st.runners
                    .push(std::thread::spawn(move || run_job(shared2, job)));
            }
            SchedAction::RequestSuspend(job) => {
                if let Some(rt) = st.rt.get(&job) {
                    rt.ctrl.suspend.store(true, Ordering::SeqCst);
                }
            }
            SchedAction::RequestCancel(job) => {
                if let Some(rt) = st.rt.get(&job) {
                    rt.ctrl.cancel.store(true, Ordering::SeqCst);
                }
            }
        }
    }
}

/// Drain admissions deferred by [`submit`] and carry them out.
fn run_pending_admissions(shared: &Arc<Shared>) {
    let mut st = shared.state.lock();
    let actions = std::mem::take(&mut st.pending_actions);
    apply_actions(shared, &mut st, actions);
}

fn health(shared: &Arc<Shared>) -> HealthInfo {
    let st = shared.state.lock();
    HealthInfo {
        uptime_ms: shared.clock.now_ms(),
        budget_bytes: st.sched.budget_bytes(),
        carved_bytes: st.sched.carved_bytes(),
        jobs: st.sched.summaries(),
        admissions: st.sched.admissions().to_vec(),
    }
}

enum RunEnd {
    Done(Box<qcs_core::SimReport>, Vec<f64>),
    Cancelled,
    Suspended(PathBuf, usize),
    Failed(String),
}

impl From<SimError> for RunEnd {
    fn from(e: SimError) -> Self {
        RunEnd::Failed(e.to_string())
    }
}

fn run_job(shared: Arc<Shared>, job: JobId) {
    let (spec, ctrl, events, ckpt) = {
        let mut st = shared.state.lock();
        st.sched.started(job);
        let Some(rt) = st.rt.get(&job) else { return };
        (
            rt.spec.clone(),
            Arc::clone(&rt.ctrl),
            rt.events.clone(),
            rt.ckpt.clone(),
        )
    };
    let _ = events.send(JobOut::State {
        job,
        state: JobState::Running,
    });

    // A panic below this line must still end the job: otherwise it stays
    // `Running` with its carve-out charged and its event channel open,
    // and shutdown waits on that channel forever.
    let end = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if shared.debug_panic_next_runner.swap(false, Ordering::SeqCst) {
            panic!("debug hook: runner panic");
        }
        execute(&shared, job, &spec, &ctrl, &events, &ckpt)
    }))
    .unwrap_or_else(|panic| {
        let what = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("no message");
        RunEnd::Failed(format!("internal error: runner panicked: {what}"))
    });

    let mut st = shared.state.lock();
    let now = shared.clock.now_ms();
    let actions = match end {
        RunEnd::Done(report, amplitudes) => {
            cleanup_job_files(&shared, job);
            let _ = events.send(JobOut::Done {
                job,
                report,
                amplitudes,
            });
            st.sched.running_ended(job, JobState::Done, now)
        }
        RunEnd::Cancelled => {
            cleanup_job_files(&shared, job);
            let _ = events.send(JobOut::State {
                job,
                state: JobState::Cancelled,
            });
            st.sched.running_ended(job, JobState::Cancelled, now)
        }
        RunEnd::Failed(error) => {
            cleanup_job_files(&shared, job);
            let _ = events.send(JobOut::Failed { job, error });
            st.sched.running_ended(job, JobState::Failed, now)
        }
        RunEnd::Suspended(path, next_item) => {
            // The request is satisfied: clear the flag so the job does
            // not immediately re-suspend when it resumes.
            ctrl.suspend.store(false, Ordering::SeqCst);
            if let Some(rt) = st.rt.get_mut(&job) {
                rt.ckpt = Some((path, next_item));
            }
            let _ = events.send(JobOut::State {
                job,
                state: JobState::Suspended,
            });
            st.sched.suspended(job, now)
        }
    };
    // A terminal job's runtime record must go away: it holds a clone of
    // the session's event channel, and the writer thread only exits once
    // every sender is dropped.
    if st.sched.state(job).is_some_and(|s| s.is_terminal()) {
        st.rt.remove(&job);
    }
    apply_actions(&shared, &mut st, actions);
}

/// Build the simulator (fresh or from a suspend checkpoint) and run it
/// through the observed wave loop. The simulator drops before this
/// returns, which releases its spill segment directories.
fn execute(
    shared: &Arc<Shared>,
    job: JobId,
    spec: &JobSpec,
    ctrl: &Ctrl,
    events: &mpsc::Sender<JobOut>,
    ckpt: &Option<(PathBuf, usize)>,
) -> RunEnd {
    if let Some(dir) = spec.config.spill.as_ref().and_then(|s| s.dir.as_ref()) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            return SimError::Spill(format!("create job spill dir {}: {e}", dir.display())).into();
        }
    }
    let schedule = qcs_circuits::schedule_circuit(&spec.circuit, &spec.config.fusion_policy());
    let (mut sim, start_item) = match ckpt {
        Some((path, next_item)) => match checkpoint::load(path, spec.config.clone()) {
            Ok(sim) => (sim, *next_item),
            Err(e) => return e.into(),
        },
        None => match CompressedSimulator::new(spec.num_qubits, spec.config.clone()) {
            Ok(sim) => (sim, 0),
            Err(e) => return e.into(),
        },
    };
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let outcome = sim.run_schedule_observed(&schedule, &mut rng, start_item, &mut |status| {
        let _ = events.send(JobOut::Wave {
            job,
            item: status.item as u64,
            items: status.items as u64,
            report: Box::new(status.report),
        });
        // Pace in short slices so cancel/suspend land promptly mid-sleep.
        let mut remaining_ms = spec.pace_ms;
        while remaining_ms > 0 && !ctrl.interrupted() {
            let slice = remaining_ms.min(PACE_SLICE_MS);
            std::thread::sleep(std::time::Duration::from_millis(slice));
            remaining_ms -= slice;
        }
        if ctrl.cancel.load(Ordering::SeqCst) {
            WaveControl::Cancel
        } else if ctrl.suspend.load(Ordering::SeqCst) {
            WaveControl::Suspend
        } else {
            WaveControl::Continue
        }
    });
    match outcome {
        Ok(RunOutcome::Completed) => {
            let amplitudes =
                if spec.return_amplitudes && spec.num_qubits <= shared.cfg.max_snapshot_qubits {
                    match sim.snapshot_f64() {
                        Ok(a) => a,
                        Err(e) => return e.into(),
                    }
                } else {
                    Vec::new()
                };
            RunEnd::Done(Box::new(sim.report()), amplitudes)
        }
        Ok(RunOutcome::Cancelled { .. }) => RunEnd::Cancelled,
        Ok(RunOutcome::Suspended { next_item }) => {
            let path = shared.work_dir.join(format!("job-{}.ckpt", job.0));
            match checkpoint::save(&sim, &path) {
                Ok(()) => RunEnd::Suspended(path, next_item),
                Err(e) => e.into(),
            }
        }
        Err(e) => e.into(),
    }
}

/// Remove a terminal job's on-disk traces: its spill subdirectory and
/// any suspend checkpoint. (The simulator has already been dropped, so
/// its segment-dir guards have run; this removes the per-job parent.)
fn cleanup_job_files(shared: &Arc<Shared>, job: JobId) {
    let _ = std::fs::remove_dir_all(shared.work_dir.join(format!("job-{}", job.0)));
    let _ = std::fs::remove_file(shared.work_dir.join(format!("job-{}.ckpt", job.0)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::JobClient;

    #[test]
    fn accepted_session_streams_have_nodelay() {
        let server = spawn_loopback(ServerConfig::default()).unwrap();
        // The handshake reply proves the session is registered.
        let client = JobClient::connect(&server.addr().to_string(), &Default::default()).unwrap();
        {
            let st = server.shared.state.lock();
            assert_eq!(st.session_streams.len(), 1);
            for stream in st.session_streams.values() {
                assert!(stream.nodelay().unwrap());
            }
        }
        drop(client);
        server.shutdown();
    }
}
