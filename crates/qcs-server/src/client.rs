//! Blocking client helper for the job protocol.
//!
//! [`JobClient`] owns one connection to a `qcsim-serverd` daemon and
//! multiplexes command responses with streamed job events: calls like
//! [`JobClient::submit`] and [`JobClient::health`] buffer any unrelated
//! [`JobOut`] frames that arrive first, and [`JobClient::next_event`]
//! drains that buffer before touching the socket, so no event is lost
//! regardless of interleaving.

use crate::protocol::{
    decode_job_out, encode_job_cmd, HealthInfo, JobCmd, JobHelloAck, JobId, JobOut, JobSpec,
    K_JOB_CMD, K_JOB_HELLO, K_JOB_HELLO_ACK, K_JOB_OUT,
};
use qcs_net::wire::{decode, encode};
use qcs_net::{
    connect_supervised, recv_frame, send_frame, ConnectPolicy, NetError, PROTOCOL_VERSION,
};
use std::collections::VecDeque;
use std::io::Write;
use std::net::TcpStream;

/// How a job ended, as observed by [`JobClient::wait`].
#[derive(Debug, Clone, PartialEq)]
pub enum JobEnd {
    /// The job ran to completion.
    Done {
        /// Final engine report for the completed run (boxed, as in
        /// [`JobOut::Done`]).
        report: Box<qcs_core::SimReport>,
        /// Interleaved re/im amplitudes if the spec requested them and
        /// the state was small enough to snapshot; empty otherwise.
        amplitudes: Vec<f64>,
    },
    /// The job failed server-side; the payload is the engine error.
    Failed(String),
    /// The job was cancelled before completing.
    Cancelled,
}

/// A blocking connection to a job server.
pub struct JobClient {
    stream: TcpStream,
    pending: VecDeque<JobOut>,
}

impl JobClient {
    /// Connect and perform the version handshake.
    pub fn connect(addr: &str, policy: &ConnectPolicy) -> Result<Self, NetError> {
        let mut stream = connect_supervised(addr, policy)?;
        let mut buf = Vec::new();
        send_frame(&mut buf, K_JOB_HELLO, &encode(&PROTOCOL_VERSION))?;
        stream.write_all(&buf)?;
        let (kind, body) = recv_frame(&mut stream)?;
        if kind != K_JOB_HELLO_ACK {
            return Err(NetError::Protocol(format!(
                "expected hello ack, got frame kind {kind}"
            )));
        }
        if let Err(reason) = decode::<JobHelloAck>(&body)? {
            return Err(NetError::Protocol(format!(
                "server rejected hello: {reason}"
            )));
        }
        Ok(Self {
            stream,
            pending: VecDeque::new(),
        })
    }

    fn send_cmd(&mut self, cmd: &JobCmd) -> Result<(), NetError> {
        let body = encode_job_cmd(cmd)?;
        let mut buf = Vec::new();
        send_frame(&mut buf, K_JOB_CMD, &body)?;
        self.stream.write_all(&buf)?;
        Ok(())
    }

    fn recv_out(&mut self) -> Result<JobOut, NetError> {
        let (kind, body) = recv_frame(&mut self.stream)?;
        if kind != K_JOB_OUT {
            return Err(NetError::Protocol(format!(
                "expected job event, got frame kind {kind}"
            )));
        }
        decode_job_out(&body)
    }

    /// Submit a job; blocks until the server accepts or rejects it.
    /// Events for other jobs that arrive in between are buffered.
    pub fn submit(&mut self, spec: &JobSpec) -> Result<JobId, NetError> {
        self.send_cmd(&JobCmd::Submit(Box::new(spec.clone())))?;
        loop {
            match self.recv_out()? {
                JobOut::Accepted { job } => return Ok(job),
                JobOut::Rejected { reason } => return Err(NetError::Protocol(reason)),
                other => self.pending.push_back(other),
            }
        }
    }

    /// Ask the server to cancel a job. Fire-and-forget: the outcome
    /// arrives as a terminal [`JobOut::State`] event.
    pub fn cancel(&mut self, job: JobId) -> Result<(), NetError> {
        self.send_cmd(&JobCmd::Cancel { job })
    }

    /// Fetch the management snapshot: uptime, budget occupancy, the job
    /// table, and the admission log.
    pub fn health(&mut self) -> Result<HealthInfo, NetError> {
        self.send_cmd(&JobCmd::Health)?;
        loop {
            match self.recv_out()? {
                JobOut::Health(info) => return Ok(info),
                other => self.pending.push_back(other),
            }
        }
    }

    /// Next event from the server — buffered first, then the socket.
    /// Blocks until one arrives.
    pub fn next_event(&mut self) -> Result<JobOut, NetError> {
        if let Some(out) = self.pending.pop_front() {
            return Ok(out);
        }
        self.recv_out()
    }

    /// Drive the event stream until `job` reaches a terminal state.
    /// Events belonging to `job` are consumed and passed to `on_event`;
    /// events for other jobs stay buffered for later `wait`/`next_event`
    /// calls, so waiting on one job never loses another's outcome.
    pub fn wait(
        &mut self,
        job: JobId,
        mut on_event: impl FnMut(&JobOut),
    ) -> Result<JobEnd, NetError> {
        // Scan whatever is already buffered for this job first.
        let mut i = 0;
        while i < self.pending.len() {
            if event_job(&self.pending[i]) == Some(job) {
                let out = self.pending.remove(i).expect("index in range");
                on_event(&out);
                if let Some(end) = terminal_end(out, job) {
                    return Ok(end);
                }
            } else {
                i += 1;
            }
        }
        loop {
            let out = self.recv_out()?;
            if event_job(&out) != Some(job) {
                self.pending.push_back(out);
                continue;
            }
            on_event(&out);
            if let Some(end) = terminal_end(out, job) {
                return Ok(end);
            }
        }
    }
}

/// The job an event belongs to (`None` for health snapshots and
/// submission responses, which are not part of any job's stream).
fn event_job(out: &JobOut) -> Option<JobId> {
    match out {
        JobOut::State { job, .. }
        | JobOut::Wave { job, .. }
        | JobOut::Done { job, .. }
        | JobOut::Failed { job, .. } => Some(*job),
        JobOut::Accepted { .. } | JobOut::Rejected { .. } | JobOut::Health(_) => None,
    }
}

fn terminal_end(out: JobOut, job: JobId) -> Option<JobEnd> {
    match out {
        JobOut::Done {
            job: j,
            report,
            amplitudes,
        } if j == job => Some(JobEnd::Done { report, amplitudes }),
        JobOut::Failed { job: j, error } if j == job => Some(JobEnd::Failed(error)),
        JobOut::State { job: j, state } if j == job && state.is_terminal() => Some(match state {
            crate::protocol::JobState::Cancelled => JobEnd::Cancelled,
            other => JobEnd::Failed(format!("terminal state {other:?} without report")),
        }),
        _ => None,
    }
}
