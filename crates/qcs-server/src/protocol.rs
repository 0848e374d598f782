//! The job-submission wire protocol: `JobCmd`/`JobOut` frames on top of
//! the [`qcs_net`] framed codec.
//!
//! Frame kinds live in a separate numeric range from the rank-worker
//! protocol (`qcs-core::net` uses 1–7) so a client that dials the wrong
//! daemon gets a clean protocol error, not a misparse. Every body layout
//! is one [`qcs_net::wire!`] declaration in this file — a struct's field
//! order *is* its byte order — with `SimConfig`/`SimReport` payloads laid
//! out by [`qcs_core::serial`]. Decoders return typed [`NetError`]s on
//! truncated or corrupt input — never a panic, never an allocation beyond
//! a small multiple of the body (pinned, bytes included, by
//! `qcs-net/tests/prop_wire.rs`).

use qcs_circuits::{Circuit, Op};
use qcs_core::{SimConfig, SimReport};
use qcs_net::wire::{decode, encode, Idx32, Wire};
use qcs_net::{wire, Cursor, NetError};
use qcs_statevec::GateKind;

/// Client → server handshake frame (body: protocol version).
pub const K_JOB_HELLO: u8 = 16;
/// Server → client handshake acknowledgement (body: a [`JobHelloAck`]).
pub const K_JOB_HELLO_ACK: u8 = 17;
/// Client → server command frame (body: an encoded [`JobCmd`]).
pub const K_JOB_CMD: u8 = 18;
/// Server → client event frame (body: an encoded [`JobOut`]).
pub const K_JOB_OUT: u8 = 19;

/// `K_JOB_HELLO_ACK` body: the server's protocol version, or why it
/// refused the hello.
pub type JobHelloAck = Result<u32, String>;

/// Server-assigned job identifier, unique for the daemon's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

wire! {
    /// A circuit-submission job: what to simulate, how, and with what
    /// priority. The server normalizes `config` on admission (it assigns
    /// the spill carve-out and working directory), so `config.spill` here
    /// is a request, not a guarantee.
    #[derive(Debug, Clone, PartialEq)]
    pub struct JobSpec {
        /// Human-readable label, echoed in the management job list.
        pub name: String,
        /// Scheduling priority: higher runs first; FIFO within a priority.
        pub priority: u8,
        /// Seed for the run's measurement RNG.
        pub seed: u64,
        /// Qubit count of the simulation.
        pub num_qubits: u32,
        /// The circuit to run.
        pub circuit: Circuit as CircuitWire,
        /// Engine configuration (geometry, codec, ladder, spill request…).
        pub config: SimConfig,
        /// Ship the final dense amplitudes in [`JobOut::Done`]. Only
        /// honored up to the server's snapshot cap; bigger states get an
        /// empty vec.
        pub return_amplitudes: bool,
        /// Sleep this long after every schedule item (milliseconds). A
        /// pacing knob for tests and demos that need a job to stay running
        /// long enough to be cancelled, suspended, or observed; 0 for real
        /// work.
        pub pace_ms: u64,
    }
}

impl JobSpec {
    /// A job named `name` running `circuit` with `config` at priority 0.
    pub fn new<S: Into<String>>(name: S, circuit: Circuit, config: SimConfig) -> Self {
        Self {
            name: name.into(),
            priority: 0,
            seed: 0,
            num_qubits: circuit.num_qubits() as u32,
            circuit,
            config,
            return_amplitudes: false,
            pace_ms: 0,
        }
    }

    /// Set the scheduling priority.
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Set the measurement RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Request the final amplitudes in the completion event.
    pub fn with_amplitudes(mut self) -> Self {
        self.return_amplitudes = true;
        self
    }

    /// Set the per-item pacing delay (tests/demos only).
    pub fn with_pace_ms(mut self, pace_ms: u64) -> Self {
        self.pace_ms = pace_ms;
        self
    }
}

/// Job lifecycle states (Queued → Admitted → Running → terminal, with
/// Suspended ⇄ re-admission in between).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for budget.
    Queued,
    /// Budget carved out; a runner is starting.
    Admitted,
    /// Executing schedule items.
    Running,
    /// Preempted to disk (checkpoint v2); waiting to be re-admitted.
    Suspended,
    /// Completed successfully.
    Done,
    /// Ended with a simulation error.
    Failed,
    /// Cancelled by a client or a disconnect.
    Cancelled,
}

impl JobState {
    /// True for Done/Failed/Cancelled.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

wire! {
    /// One row of the management job list.
    #[derive(Debug, Clone, PartialEq)]
    pub struct JobSummary {
        /// The job.
        pub job: JobId,
        /// Its label.
        pub name: String,
        /// Its priority.
        pub priority: u8,
        /// Current lifecycle state.
        pub state: JobState,
        /// Memory carve-out the scheduler accounts for it, in bytes.
        pub carve_bytes: u64,
    }
}

wire! {
    /// One budget admission, recorded by the scheduler at the moment a
    /// job's carve-out was charged. The concurrency harness asserts
    /// `carved_after <= cap` over the whole log.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct AdmissionEvent {
        /// Monotone admission sequence number.
        pub seq: u64,
        /// The admitted job.
        pub job: JobId,
        /// Its carve-out in bytes.
        pub carve_bytes: u64,
        /// Aggregate carved bytes immediately after this admission.
        pub carved_after: u64,
        /// The server budget the aggregate must stay within.
        pub cap: u64,
    }
}

wire! {
    /// Snapshot answered to [`JobCmd::Health`]: uptime, budget occupancy,
    /// the job list, and the full admission log.
    #[derive(Debug, Clone, PartialEq)]
    pub struct HealthInfo {
        /// Milliseconds since the daemon started.
        pub uptime_ms: u64,
        /// The global memory budget in bytes.
        pub budget_bytes: u64,
        /// Bytes currently carved out by admitted/running jobs.
        pub carved_bytes: u64,
        /// Every job the daemon has seen, in submission order.
        pub jobs: Vec<JobSummary>,
        /// Every admission event since startup.
        pub admissions: Vec<AdmissionEvent>,
    }
}

/// Client → server commands.
#[derive(Debug, Clone, PartialEq)]
pub enum JobCmd {
    /// Submit a job; the server answers [`JobOut::Accepted`] or
    /// [`JobOut::Rejected`] and then streams the job's events on this
    /// connection. Boxed: a spec carries a whole circuit and config,
    /// and the other commands are a dozen bytes.
    Submit(Box<JobSpec>),
    /// Cancel a job (own or any — there is no tenancy auth in this
    /// reproduction). Terminal jobs ignore it.
    Cancel {
        /// The job to cancel.
        job: JobId,
    },
    /// Ask for a [`HealthInfo`] snapshot.
    Health,
}

/// Server → client events.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOut {
    /// The submission was queued under this id.
    Accepted {
        /// The new job's id.
        job: JobId,
    },
    /// The submission was refused (validation or an impossible carve).
    Rejected {
        /// Why.
        reason: String,
    },
    /// A lifecycle transition.
    State {
        /// The job.
        job: JobId,
        /// Its new state.
        state: JobState,
    },
    /// Per-wave metric streaming: one event per finished schedule item.
    Wave {
        /// The job.
        job: JobId,
        /// Schedule item that just finished (0-based).
        item: u64,
        /// Total schedule items.
        items: u64,
        /// Cumulative report as of this item (boxed: a report is half a
        /// kilobyte and most events are a fraction of that).
        report: Box<SimReport>,
    },
    /// The job completed; final report and (optionally) amplitudes.
    Done {
        /// The job.
        job: JobId,
        /// Final report (boxed, like [`JobOut::Wave`]'s).
        report: Box<SimReport>,
        /// Interleaved re/im amplitude pairs when the spec requested them
        /// (and the state fits the server's snapshot cap); empty
        /// otherwise.
        amplitudes: Vec<f64>,
    },
    /// The job ended with a simulation error (its typed `SimError`
    /// rendered to text; other jobs are unaffected).
    Failed {
        /// The job.
        job: JobId,
        /// The error description.
        error: String,
    },
    /// Answer to [`JobCmd::Health`].
    Health(HealthInfo),
}

// --- circuit layouts -----------------------------------------------------
//
// `GateKind`, `Op` and `Circuit` belong to other crates, so their layouts
// hang off marker types (see `qcs_net::wire`). Qubit indices travel as
// `u32`.

struct GateKindWire;
wire! {
    impl enum GateKind as GateKindWire {
        0 => H {},
        1 => X {},
        2 => Y {},
        3 => Z {},
        4 => S {},
        5 => Sdg {},
        6 => T {},
        7 => Tdg {},
        8 => SqrtX {},
        9 => SqrtY {},
        10 => Rx { 0: f64 },
        11 => Ry { 0: f64 },
        12 => Rz { 0: f64 },
        13 => Phase { 0: f64 },
        14 => U3 { 0: f64, 1: f64, 2: f64 },
    }
}

struct OpWire;
wire! {
    impl enum Op as OpWire {
        0 => Gate {
            gate: GateKind as GateKindWire,
            controls: Vec<usize> as Vec<Idx32>,
            target: usize as Idx32,
        },
        1 => Swap { a: usize as Idx32, b: usize as Idx32 },
        2 => Measure { target: usize as Idx32 },
    }
}

/// A [`Circuit`]'s layout: qubit count, then its ops. Decoding checks
/// every op against the qubit count — what [`Circuit::push`] asserts — so
/// a hostile circuit is a typed error, not a panic.
pub struct CircuitWire;

impl Wire<Circuit> for CircuitWire {
    const MIN_LEN: usize = 8;
    fn put(circuit: &Circuit, buf: &mut Vec<u8>) {
        Idx32::put(&circuit.num_qubits(), buf);
        Idx32::put(&circuit.ops().len(), buf);
        for op in circuit.ops() {
            OpWire::put(op, buf);
        }
    }
    fn take(cur: &mut Cursor) -> Result<Circuit, NetError> {
        let num_qubits = Idx32::take(cur)?;
        if num_qubits == 0 {
            return Err(NetError::Corrupt("circuit on zero qubits".into()));
        }
        let mut circuit = Circuit::new(num_qubits);
        for op in <Vec<OpWire>>::take(cur)? {
            op.validate(num_qubits).map_err(NetError::Corrupt)?;
            circuit.push(op);
        }
        Ok(circuit)
    }
}

// --- job spec / command / event layouts ----------------------------------

wire! { impl struct JobId { 0: u64 } }

wire! {
    impl enum JobState {
        0 => Queued {},
        1 => Admitted {},
        2 => Running {},
        3 => Suspended {},
        4 => Done {},
        5 => Failed {},
        6 => Cancelled {},
    }
}

wire! {
    impl enum JobCmd {
        0 => Submit { 0: Box<JobSpec> },
        1 => Cancel { job: JobId },
        2 => Health {},
    }
}

wire! {
    impl enum JobOut {
        0 => Accepted { job: JobId },
        1 => Rejected { reason: String },
        2 => State { job: JobId, state: JobState },
        3 => Wave { job: JobId, item: u64, items: u64, report: Box<SimReport> },
        4 => Done { job: JobId, report: Box<SimReport>, amplitudes: Vec<f64> },
        5 => Failed { job: JobId, error: String },
        6 => Health { 0: HealthInfo },
    }
}

/// Encode a [`JobCmd`] into a `K_JOB_CMD` frame body. Fails only when a
/// submitted config's `spill.dir` is not UTF-8: such a path cannot travel
/// portably, and `put` would write it lossily.
pub fn encode_job_cmd(cmd: &JobCmd) -> Result<Vec<u8>, NetError> {
    if let JobCmd::Submit(spec) = cmd {
        let dir = spec.config.spill.as_ref().and_then(|s| s.dir.as_ref());
        if dir.is_some_and(|d| d.to_str().is_none()) {
            return Err(NetError::Protocol(
                "spill dir is not UTF-8; cannot serialize".into(),
            ));
        }
    }
    Ok(encode(cmd))
}

/// Decode a `K_JOB_CMD` frame body.
pub fn decode_job_cmd(body: &[u8]) -> Result<JobCmd, NetError> {
    decode(body)
}

/// Encode a [`JobOut`] into a `K_JOB_OUT` frame body.
pub fn encode_job_out(out: &JobOut) -> Vec<u8> {
    encode(out)
}

/// Decode a `K_JOB_OUT` frame body.
pub fn decode_job_out(body: &[u8]) -> Result<JobOut, NetError> {
    decode(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_circuit(bytes: &[u8]) -> Result<Circuit, NetError> {
        let mut cur = Cursor::new(bytes);
        let circuit = CircuitWire::take(&mut cur)?;
        cur.finish()?;
        Ok(circuit)
    }

    #[test]
    fn circuit_round_trips() {
        let mut c = Circuit::new(5);
        c.push(Op::Gate {
            gate: GateKind::U3(0.1, -0.2, 0.3),
            controls: vec![],
            target: 4,
        });
        c.cphase(1.25, 0, 3).ccx(0, 1, 2);
        c.push(Op::Swap { a: 1, b: 4 });
        c.push(Op::Measure { target: 0 });
        let mut buf = Vec::new();
        CircuitWire::put(&c, &mut buf);
        assert_eq!(decode_circuit(&buf).unwrap(), c);
    }

    /// What `Circuit::new` and `Circuit::push` would assert is refused as
    /// corruption first.
    #[test]
    fn circuits_the_ir_would_assert_on_are_corrupt() {
        assert!(matches!(decode_circuit(&[0; 8]), Err(NetError::Corrupt(_))));
        let encode_ops = |ops: &[Op]| {
            let mut buf = encode(&2u32); // 2 qubits
            <Vec<OpWire>>::put(&ops.to_vec(), &mut buf);
            buf
        };
        let out_of_range = Op::Gate {
            gate: GateKind::H,
            controls: vec![],
            target: 7,
        };
        let repeated = |controls: Vec<usize>, target| Op::Gate {
            gate: GateKind::X,
            controls,
            target,
        };
        for bad in [out_of_range, repeated(vec![0, 0], 1), repeated(vec![1], 1)] {
            match decode_circuit(&encode_ops(std::slice::from_ref(&bad))) {
                Err(NetError::Corrupt(_)) => {}
                other => panic!("{bad:?} decoded to {other:?}"),
            }
        }
        assert!(decode_circuit(&encode_ops(&[repeated(vec![0], 1)])).is_ok());
    }

    #[test]
    fn cmd_and_out_round_trip() {
        let spec = JobSpec::new("t", Circuit::new(3), SimConfig::default())
            .with_priority(7)
            .with_seed(42)
            .with_amplitudes()
            .with_pace_ms(5);
        for cmd in [
            JobCmd::Submit(Box::new(spec)),
            JobCmd::Cancel { job: JobId(9) },
            JobCmd::Health,
        ] {
            let body = encode_job_cmd(&cmd).unwrap();
            assert_eq!(decode_job_cmd(&body).unwrap(), cmd);
        }
        let health = JobOut::Health(HealthInfo {
            uptime_ms: 1,
            budget_bytes: 2,
            carved_bytes: 3,
            jobs: vec![JobSummary {
                job: JobId(4),
                name: "j".into(),
                priority: 5,
                state: JobState::Suspended,
                carve_bytes: 6,
            }],
            admissions: vec![AdmissionEvent {
                seq: 0,
                job: JobId(4),
                carve_bytes: 6,
                carved_after: 6,
                cap: 100,
            }],
        });
        for out in [
            JobOut::Accepted { job: JobId(1) },
            JobOut::Rejected {
                reason: "no".into(),
            },
            JobOut::State {
                job: JobId(1),
                state: JobState::Running,
            },
            JobOut::Failed {
                job: JobId(1),
                error: "boom".into(),
            },
            health,
        ] {
            let body = encode_job_out(&out);
            assert_eq!(decode_job_out(&body).unwrap(), out);
        }
    }

    /// The hand-counted minimum this replaces said 19 bytes for a summary
    /// that is never shorter than 22.
    #[test]
    fn element_minimums_are_derived_from_the_layouts() {
        assert_eq!(JobSummary::MIN_LEN, 8 + 4 + 1 + 1 + 8);
        assert_eq!(AdmissionEvent::MIN_LEN, 40);
        assert_eq!(<OpWire as Wire<Op>>::MIN_LEN, 1 + 4); // Measure
    }

    #[cfg(unix)]
    #[test]
    fn non_utf8_spill_dir_is_refused_not_mangled() {
        use std::os::unix::ffi::OsStringExt;
        let dir = std::ffi::OsString::from_vec(vec![b'/', 0xFF, 0xFE]);
        let cfg = SimConfig::default()
            .with_spill(1)
            .with_spill_dir(dir.into());
        let cmd = JobCmd::Submit(Box::new(JobSpec::new("t", Circuit::new(3), cfg)));
        assert!(matches!(encode_job_cmd(&cmd), Err(NetError::Protocol(_))));
    }

    #[test]
    fn truncated_cmd_is_typed_error() {
        let spec = JobSpec::new("t", Circuit::new(3), SimConfig::default());
        let body = encode_job_cmd(&JobCmd::Submit(Box::new(spec))).unwrap();
        for len in 0..body.len() {
            assert!(
                decode_job_cmd(&body[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
    }
}
