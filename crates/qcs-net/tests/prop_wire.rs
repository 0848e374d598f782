//! Wire-codec property suite (proptest): every layout that crosses the
//! job protocol — circuits, [`SimConfig`], [`SimReport`], [`JobCmd`],
//! [`JobOut`] — meets the one generic contract in `contract/mod.rs`:
//!
//! 1. arbitrary values round-trip exactly (`decode(encode(v)) == v`),
//! 2. *every* strict prefix of a valid encoding is a typed [`NetError`] —
//!    never a panic, never a silently-wrong value, and
//! 3. no single-byte substitution panics the decoder or makes it allocate
//!    more than a small multiple of the body (it may decode to a different
//!    valid value or a typed error).
//!
//! The worker protocol's types are private to `qcs-core`, so the same
//! contract runs over them from `qcs-core/src/net.rs`'s tests. The golden
//! test below pins the job protocol's *bytes* to fixtures written by the
//! hand-rolled codecs of commit 3a80267.
//!
//! This test lives in `qcs-net` (the transport the frames ride on) and
//! dev-depends back on `qcs-core`/`qcs-server` for the layouts declared
//! above it — a dev-only cycle cargo permits.

mod contract;

use contract::wire_contract;
use proptest::prelude::*;
use qcs_circuits::{Circuit, Op};
use qcs_cluster::TimeBreakdown;
use qcs_compress::{CodecId, ErrorBound};
use qcs_core::{SimConfig, SimReport, SpillConfig};
use qcs_net::wire::{decode, encode, Wire};
use qcs_net::{Cursor, NetError};
use qcs_server::protocol::{
    decode_job_cmd, decode_job_out, encode_job_cmd, encode_job_out, AdmissionEvent, CircuitWire,
    HealthInfo, JobCmd, JobId, JobOut, JobSpec, JobState, JobSummary,
};
use qcs_statevec::GateKind;
use std::time::Duration;

#[global_allocator]
static ALLOC: contract::CountingAlloc = contract::CountingAlloc;

/// `Circuit` is foreign to every crate that encodes it, so its layout is a
/// marker (`CircuitWire`); this gives it a `Wire` face for the contract.
#[derive(Debug, PartialEq)]
struct WiredCircuit(Circuit);
qcs_net::wire! { impl struct WiredCircuit { 0: Circuit as CircuitWire } }

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

fn arb_gate() -> impl Strategy<Value = GateKind> {
    prop_oneof![
        5 => (0usize..10).prop_map(|k| {
            [
                GateKind::H,
                GateKind::X,
                GateKind::Y,
                GateKind::Z,
                GateKind::S,
                GateKind::Sdg,
                GateKind::T,
                GateKind::Tdg,
                GateKind::SqrtX,
                GateKind::SqrtY,
            ][k]
        }),
        1 => (-7.0f64..7.0).prop_map(GateKind::Rx),
        1 => (-7.0f64..7.0).prop_map(GateKind::Ry),
        1 => (-7.0f64..7.0).prop_map(GateKind::Rz),
        1 => (-7.0f64..7.0).prop_map(GateKind::Phase),
        1 => ((-7.0f64..7.0), (-7.0f64..7.0), (-7.0f64..7.0))
            .prop_map(|(t, p, l)| GateKind::U3(t, p, l)),
    ]
}

/// Raw op descriptor: (shape tag, qubit picks, control count, gate).
/// Reduced modulo the qubit count when the circuit is assembled, so any
/// tuple yields a structurally valid op.
type RawOp = (usize, usize, usize, usize, GateKind);

fn arb_circuit() -> impl Strategy<Value = Circuit> {
    (
        2usize..6,
        prop::collection::vec(
            (0usize..5, 0usize..64, 0usize..64, 1usize..5, arb_gate()),
            0..14,
        ),
    )
        .prop_map(|(n, raw): (usize, Vec<RawOp>)| {
            let mut c = Circuit::new(n);
            for (shape, a, b, k, gate) in raw {
                let target = a % n;
                let other = b % n;
                match shape {
                    0 => {
                        c.push(Op::Gate {
                            gate,
                            controls: vec![],
                            target,
                        });
                    }
                    1 if other != target => {
                        c.push(Op::Gate {
                            gate,
                            controls: vec![other],
                            target,
                        });
                    }
                    2 => {
                        let controls: Vec<usize> =
                            (0..n).filter(|q| *q != target).take(k.min(n - 1)).collect();
                        if !controls.is_empty() {
                            c.push(Op::Gate {
                                gate,
                                controls,
                                target,
                            });
                        }
                    }
                    3 if other != target => {
                        c.push(Op::Swap {
                            a: target,
                            b: other,
                        });
                    }
                    _ => {
                        c.push(Op::Measure { target });
                    }
                }
            }
            c
        })
}

fn arb_bound() -> impl Strategy<Value = ErrorBound> {
    prop_oneof![
        1 => Just(ErrorBound::Lossless),
        2 => (1u32..9).prop_map(|e| ErrorBound::PointwiseRelative(10f64.powi(-(e as i32)))),
        1 => (1u32..9).prop_map(|e| ErrorBound::Absolute(10f64.powi(-(e as i32)))),
    ]
}

fn arb_config() -> impl Strategy<Value = SimConfig> {
    (
        (2u32..7, 0u32..3, 0usize..5, 0u64..3, 0usize..2, 0usize..3),
        (0u8..2, 0usize..9, 0u8..2, 1usize..4),
        (0u8..2, 0usize..3, 1u32..5, 0u64..3, arb_bound()),
    )
        .prop_map(
            |(
                (block_log2, ranks_log2, threads_raw, mem_raw, codec_raw, cache_raw),
                (fusion, spill_raw, write_behind, shards),
                (prefetch, remote_raw, attempts, timeout_raw, bound),
            )| {
                let mut cfg = SimConfig::default()
                    .with_block_log2(block_log2)
                    .with_ranks_log2(ranks_log2)
                    .with_fixed_bound(bound)
                    .with_fusion(fusion == 1)
                    .with_prefetch(prefetch == 1);
                cfg.threads_per_rank = (threads_raw > 0).then_some(threads_raw);
                cfg.memory_budget = (mem_raw > 0).then_some(mem_raw << 24);
                cfg.lossy_codec = CodecId::ALL[codec_raw];
                cfg.cache_lines = cache_raw * 32;
                if spill_raw > 0 {
                    let mut spill = SpillConfig::new(spill_raw);
                    spill.write_behind = write_behind == 1;
                    spill.shards = shards;
                    if spill_raw % 2 == 0 {
                        spill.dir = Some(std::path::PathBuf::from(format!("spill-{spill_raw}")));
                    }
                    cfg.spill = Some(spill);
                }
                if remote_raw > 0 {
                    cfg = cfg.with_remote(
                        (0..remote_raw)
                            .map(|i| format!("worker-{i}.example:74{i:02}"))
                            .collect::<Vec<_>>(),
                    );
                    let remote = cfg.remote.as_mut().expect("just set");
                    remote.connect_attempts = attempts;
                    remote.io_timeout_ms = (timeout_raw > 0).then_some(timeout_raw * 30_000);
                }
                cfg
            },
        )
}

fn arb_report() -> impl Strategy<Value = SimReport> {
    (
        (1u32..40, 0u64..1 << 40, 0u64..1 << 60, 0u64..1 << 40),
        (0.0f64..1.0, 0.5f64..80.0, arb_bound()),
        (0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 30, 0u64..1 << 30),
        // One value per field of the counter table, whatever it holds.
        prop::collection::vec(0u64..1 << 50, TimeBreakdown::FIELDS),
    )
        .prop_map(
            |(
                (num_qubits, gates, wall_ns, escalations),
                (fidelity, ratio, bound),
                (peak, low, cache_hits, cache_misses),
                fields,
            )| SimReport {
                num_qubits,
                gates: gates as usize,
                wall_time: Duration::from_nanos(wall_ns),
                breakdown: TimeBreakdown::from_array(fields.try_into().expect("FIELDS values")),
                fidelity_lower_bound: fidelity,
                current_bound: bound,
                escalations,
                min_compression_ratio: ratio,
                peak_memory_bytes: peak,
                uncompressed_bytes: (peak as u128) << 64 | low as u128,
                cache_hits,
                cache_misses,
            },
        )
}

fn arb_spec() -> impl Strategy<Value = JobSpec> {
    (
        arb_circuit(),
        arb_config(),
        (0u8..8, 0u64..1 << 60, 0u8..2, 0u64..50, 0usize..4),
    )
        .prop_map(
            |(circuit, config, (priority, seed, amps, pace, name_pick))| {
                let name = ["fleet-α", "tenant a", "", "x"][name_pick];
                let mut spec = JobSpec::new(name, circuit, config)
                    .with_priority(priority)
                    .with_seed(seed)
                    .with_pace_ms(pace);
                if amps == 1 {
                    spec = spec.with_amplitudes();
                }
                spec
            },
        )
}

fn arb_cmd() -> impl Strategy<Value = JobCmd> {
    prop_oneof![
        4 => arb_spec().prop_map(|spec| JobCmd::Submit(Box::new(spec))),
        1 => (0u64..1 << 50).prop_map(|id| JobCmd::Cancel { job: JobId(id) }),
        1 => Just(JobCmd::Health),
    ]
}

fn arb_state() -> impl Strategy<Value = JobState> {
    (0usize..7).prop_map(|k| {
        [
            JobState::Queued,
            JobState::Admitted,
            JobState::Running,
            JobState::Suspended,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
        ][k]
    })
}

fn arb_health() -> impl Strategy<Value = HealthInfo> {
    (
        (0u64..1 << 50, 0u64..1 << 50, 0u64..1 << 50),
        prop::collection::vec(
            (
                (0u64..1 << 40, 0u8..8, 0u64..1 << 40, 0usize..3),
                arb_state(),
            ),
            0..5,
        ),
        prop::collection::vec(
            (0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40),
            0..5,
        ),
    )
        .prop_map(
            |((uptime_ms, budget_bytes, carved_bytes), jobs, admissions)| HealthInfo {
                uptime_ms,
                budget_bytes,
                carved_bytes,
                jobs: jobs
                    .into_iter()
                    .map(
                        |((job, priority, carve_bytes, name_pick), state)| JobSummary {
                            job: JobId(job),
                            name: ["νile", "j", ""][name_pick].to_string(),
                            priority,
                            state,
                            carve_bytes,
                        },
                    )
                    .collect(),
                admissions: admissions
                    .into_iter()
                    .enumerate()
                    .map(
                        |(seq, (job, carve_bytes, carved_after, cap))| AdmissionEvent {
                            seq: seq as u64,
                            job: JobId(job),
                            carve_bytes,
                            carved_after,
                            cap,
                        },
                    )
                    .collect(),
            },
        )
}

fn arb_out() -> impl Strategy<Value = JobOut> {
    prop_oneof![
        1 => (0u64..1 << 50).prop_map(|id| JobOut::Accepted { job: JobId(id) }),
        1 => (0usize..3).prop_map(|k| JobOut::Rejected {
            reason: ["over budget", "", "bad spec ∞"][k].to_string(),
        }),
        1 => ((0u64..1 << 50), arb_state()).prop_map(|(id, state)| JobOut::State {
            job: JobId(id),
            state,
        }),
        2 => ((0u64..1 << 50), (0u64..1 << 30), (0u64..1 << 30), arb_report()).prop_map(
            |(id, item, extra, report)| JobOut::Wave {
                job: JobId(id),
                item,
                items: item + extra,
                report: Box::new(report),
            }
        ),
        2 => (
            (0u64..1 << 50),
            arb_report(),
            prop::collection::vec(-1.0f64..1.0, 0..9)
        )
            .prop_map(|(id, report, amplitudes)| JobOut::Done {
                job: JobId(id),
                report: Box::new(report),
                amplitudes,
            }),
        1 => ((0u64..1 << 50), (0usize..3)).prop_map(|(id, k)| JobOut::Failed {
            job: JobId(id),
            error: ["spill error: disk full", "worker died", ""][k].to_string(),
        }),
        1 => arb_health().prop_map(JobOut::Health),
    ]
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn circuit_codec_round_trips(circuit in arb_circuit()) {
        wire_contract(&WiredCircuit(circuit));
    }

    #[test]
    fn sim_config_codec_round_trips(cfg in arb_config()) {
        wire_contract(&cfg);
    }

    #[test]
    fn sim_report_codec_round_trips(report in arb_report()) {
        wire_contract(&report);
    }

    #[test]
    fn job_cmd_codec_round_trips(cmd in arb_cmd()) {
        wire_contract(&cmd);
        // The public entry points are the same layout.
        let body = encode_job_cmd(&cmd).expect("utf-8 spill dir encodes");
        prop_assert_eq!(&body, &encode(&cmd));
        prop_assert_eq!(&decode_job_cmd(&body).expect("decodes"), &cmd);
    }

    #[test]
    fn job_out_codec_round_trips(out in arb_out()) {
        wire_contract(&out);
        let body = encode_job_out(&out);
        prop_assert_eq!(&body, &encode(&out));
        prop_assert_eq!(&decode_job_out(&body).expect("decodes"), &out);
    }
}

// ---------------------------------------------------------------------------
// Golden bytes
// ---------------------------------------------------------------------------

fn golden_config() -> SimConfig {
    let mut cfg = SimConfig::default()
        .with_block_log2(10)
        .with_ranks_log2(2)
        .with_threads_per_rank(3)
        .with_memory_budget(1 << 24)
        .with_lossy_codec(CodecId::SolutionC)
        .with_spill(4)
        .with_spill_dir(std::path::PathBuf::from("/tmp/qcs-spill"))
        .with_write_behind(true)
        .with_prefetch(false)
        .with_remote(vec!["127.0.0.1:9000", "node-b.example:7401"]);
    cfg.cache_lines = 96;
    // Encoded and decoded only, never validated: four shards pin the
    // field's bytes.
    cfg.spill.as_mut().unwrap().shards = 4;
    let remote = cfg.remote.as_mut().unwrap();
    remote.connect_attempts = 3;
    remote.connect_backoff_ms = 25;
    remote.io_timeout_ms = Some(30_000);
    cfg
}

fn golden_report() -> SimReport {
    SimReport {
        num_qubits: 20,
        gates: 1234,
        wall_time: Duration::from_millis(42),
        breakdown: TimeBreakdown::from_array(std::array::from_fn(|i| 3 + i as u64)),
        fidelity_lower_bound: 0.99,
        current_bound: ErrorBound::Absolute(1e-4),
        escalations: 2,
        min_compression_ratio: 3.5,
        peak_memory_bytes: 1 << 20,
        uncompressed_bytes: (1u128 << 70) | 99,
        cache_hits: 1,
        cache_misses: 2,
    }
}

fn golden_circuit() -> Circuit {
    let mut c = Circuit::new(5);
    let single = |gate, target| Op::Gate {
        gate,
        controls: vec![],
        target,
    };
    c.push(single(GateKind::U3(0.1, -0.2, 0.3), 4));
    c.push(single(GateKind::SqrtY, 0));
    c.cphase(1.25, 0, 3).ccx(0, 1, 2);
    c.push(Op::Swap { a: 1, b: 4 });
    c.push(single(GateKind::Rz(-0.5), 2));
    c.push(Op::Measure { target: 0 });
    c
}

fn golden_outs() -> Vec<(&'static str, JobOut)> {
    vec![
        ("accepted", JobOut::Accepted { job: JobId(1) }),
        (
            "rejected",
            JobOut::Rejected {
                reason: "over budget ∞".into(),
            },
        ),
        (
            "state",
            JobOut::State {
                job: JobId(2),
                state: JobState::Suspended,
            },
        ),
        (
            "wave",
            JobOut::Wave {
                job: JobId(3),
                item: 4,
                items: 9,
                report: Box::new(golden_report()),
            },
        ),
        (
            "done",
            JobOut::Done {
                job: JobId(4),
                report: Box::new(golden_report()),
                amplitudes: vec![0.5, -0.5, 0.25, 0.0],
            },
        ),
        (
            "failed",
            JobOut::Failed {
                job: JobId(5),
                error: "spill error: disk full".into(),
            },
        ),
        (
            "health",
            JobOut::Health(HealthInfo {
                uptime_ms: 1,
                budget_bytes: 2,
                carved_bytes: 3,
                jobs: vec![
                    JobSummary {
                        job: JobId(4),
                        name: "j".into(),
                        priority: 5,
                        state: JobState::Running,
                        carve_bytes: 6,
                    },
                    JobSummary {
                        job: JobId(7),
                        name: "νile".into(),
                        priority: 0,
                        state: JobState::Cancelled,
                        carve_bytes: 0,
                    },
                ],
                admissions: vec![
                    AdmissionEvent {
                        seq: 0,
                        job: JobId(4),
                        carve_bytes: 6,
                        carved_after: 6,
                        cap: 100,
                    },
                    AdmissionEvent {
                        seq: 1,
                        job: JobId(7),
                        carve_bytes: 10,
                        carved_after: 16,
                        cap: 100,
                    },
                ],
            }),
        ),
    ]
}

fn assert_golden<T: Wire + PartialEq + std::fmt::Debug>(name: &str, value: &T) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    contract::assert_golden(dir, name, value);
}

/// The fixtures were written by the put_/take_ codecs this trait replaced
/// (commit 3a80267), from exactly these values. To change a layout on
/// purpose: edit its one `wire!` declaration, bump
/// `qcs_net::PROTOCOL_VERSION`, and regenerate the fixture in the same
/// commit.
#[test]
fn job_protocol_bytes_match_the_parent_commit() {
    assert_golden("sim_config_max", &golden_config());
    assert_golden("sim_report", &golden_report());
    let spec = JobSpec::new("fleet-α", golden_circuit(), golden_config())
        .with_priority(7)
        .with_seed(42)
        .with_amplitudes()
        .with_pace_ms(5);
    assert_golden("job_cmd_submit", &JobCmd::Submit(Box::new(spec)));
    assert_golden("job_cmd_cancel", &JobCmd::Cancel { job: JobId(9) });
    assert_golden("job_cmd_health", &JobCmd::Health);
    for (name, out) in golden_outs() {
        assert_golden(&format!("job_out_{name}"), &out);
    }
    assert_eq!(qcs_net::PROTOCOL_VERSION, 13);
    assert_eq!(&qcs_net::MAGIC, b"QWP1");
}

/// The golden config named Solution D (codec id 4) until the codec id
/// space shrank to the two codecs the engine runs. Its bytes from that
/// build, alone and spliced into `job_cmd_submit.bin` in place of the
/// golden config, end in a typed error naming the id.
#[test]
fn solution_d_configs_from_the_parent_commit_are_corrupt() {
    let config: &[u8] = include_bytes!("fixtures/sim_config_max_solution_d.bin");
    let submit: &[u8] = include_bytes!("fixtures/job_cmd_submit_solution_d.bin");
    let refused = |r: Result<(), NetError>| match r {
        Err(NetError::Corrupt(m)) => assert!(m.contains("unknown codec id 4"), "{m}"),
        other => panic!("a Solution D config decoded: {other:?}"),
    };
    refused(decode::<SimConfig>(config).map(drop));
    refused(decode_job_cmd(submit).map(drop));
}

// ---------------------------------------------------------------------------
// Stale-format rejection
// ---------------------------------------------------------------------------

/// A rank Hello exactly as the last FNV-1a build (protocol v3) put it on
/// the socket, captured from that build. The frame layout is unchanged, so
/// what refuses it is the body checksum; re-framed with today's checksum,
/// what refuses it is the version in its body. Neither reaches a worker.
#[test]
fn fnv1a_era_hello_ends_in_typed_errors() {
    use qcs_net::{recv_frame, send_frame, HEADER_LEN};
    use std::io::Write as _;

    let stale: &[u8] = include_bytes!("fixtures/fnv1a_wire_hello_v3.bin");
    match recv_frame(&mut &stale[..]) {
        Err(NetError::Corrupt(m)) => assert!(m.contains("checksum"), "{m}"),
        other => panic!("FNV-1a era frame accepted: {other:?}"),
    }

    let (addr, daemon) = qcs_core::spawn_loopback(2, Default::default()).expect("daemon");
    let policy = qcs_net::ConnectPolicy::default();

    // As captured: the daemon drops the connection without an ack.
    let mut raw = qcs_net::connect_supervised(&addr, &policy).unwrap();
    raw.write_all(stale).unwrap();
    assert!(matches!(recv_frame(&mut raw), Err(NetError::Io(_))));

    // Same body under a valid checksum: a HelloAck refusing protocol v3.
    let (kind, body) = (stale[4], &stale[HEADER_LEN..]);
    let mut reframed = qcs_net::connect_supervised(&addr, &policy).unwrap();
    send_frame(&mut reframed, kind, body).unwrap();
    let (_, ack) = recv_frame(&mut reframed).expect("the daemon answers a well-formed hello");
    let mut cur = Cursor::new(&ack);
    assert_eq!(u8::take(&mut cur).unwrap(), 0, "a v3 hello must be refused");
    let reason = String::take(&mut cur).unwrap();
    assert!(reason.contains("protocol v3"), "{reason}");

    daemon
        .join()
        .expect("both handlers ended without panicking");
}

/// A job whose circuit names one qubit twice in an op — `cx(q, q)`,
/// `swap(q, q)`, a Toffoli whose target is one of its controls or whose
/// controls repeat — is corrupt on the wire, like an out-of-range qubit:
/// no engine ever sees it. The circuit API refuses to build one, so the
/// bytes are a valid job's with one qubit overwritten by the op's first.
#[test]
fn a_job_spec_with_a_repeated_qubit_is_corrupt() {
    type Build = fn(&mut Circuit, &[usize]);
    let cx: Build = |c, q| {
        c.cx(q[0], q[1]);
    };
    let swap: Build = |c, q| {
        c.swap(q[0], q[1]);
    };
    let ccx: Build = |c, q| {
        c.ccx(q[0], q[1], q[2]);
    };
    // (op, its qubits in encoded order, the position overwritten)
    let mut rows: Vec<(&str, Build, Vec<usize>, usize)> = Vec::new();
    for (q, other) in [(1usize, 6usize), (4, 2), (7, 0)] {
        rows.push(("cx", cx, vec![q, other], 1));
        rows.push(("swap", swap, vec![q, other], 1));
    }
    rows.push(("a target among its controls", ccx, vec![3, 5, 6], 2));
    rows.push(("a repeated control", ccx, vec![3, 5, 6], 1));
    for (what, build, qubits, at) in rows {
        let mut circuit = Circuit::new(8);
        circuit.h(0);
        build(&mut circuit, &qubits);
        let spec = JobSpec::new("dup", circuit, golden_config());
        let mut bytes = encode_job_cmd(&JobCmd::Submit(Box::new(spec))).unwrap();
        let run: Vec<u8> = qubits
            .iter()
            .flat_map(|&q| (q as u32).to_le_bytes())
            .collect();
        let found: Vec<usize> = (0..bytes.len() - run.len())
            .filter(|&i| bytes[i..i + run.len()] == run[..])
            .collect();
        assert_eq!(
            found.len(),
            1,
            "{what}: the op's qubits must be unique in the body"
        );
        let slot = found[0] + 4 * at;
        bytes[slot..slot + 4].copy_from_slice(&(qubits[0] as u32).to_le_bytes());
        match decode_job_cmd(&bytes) {
            Err(NetError::Corrupt(m)) => assert!(m.contains("duplicate qubits"), "{m}"),
            other => panic!("{what} {qubits:?}: a repeated qubit decoded to {other:?}"),
        }
    }
}
