//! Wire-codec property suite (proptest): every codec that crosses the
//! job protocol — circuits, [`SimConfig`], [`SimReport`], [`JobCmd`],
//! [`JobOut`] — must
//!
//! 1. round-trip arbitrary values exactly (`decode(encode(v)) == v`),
//! 2. turn *every* strict prefix of a valid encoding into a typed
//!    [`NetError`] — never a panic, never a silently-wrong value, and
//! 3. survive arbitrary single-byte corruption without panicking
//!    (corruption may decode to a different valid value or a typed
//!    error; it must never take the process down).
//!
//! This test lives in `qcs-net` (the transport the frames ride on) and
//! dev-depends back on `qcs-core`/`qcs-server` for the codecs layered
//! above it — a dev-only cycle cargo permits.

use proptest::prelude::*;
use qcs_circuits::{Circuit, Op};
use qcs_cluster::TimeBreakdown;
use qcs_compress::{CodecId, ErrorBound};
use qcs_core::{put_sim_config, put_sim_report, take_sim_config, take_sim_report, SimConfig};
use qcs_core::{SimReport, SpillConfig};
use qcs_net::{Cursor, NetError};
use qcs_server::protocol::{
    decode_job_cmd, decode_job_out, encode_job_cmd, encode_job_out, put_circuit, take_circuit,
    AdmissionEvent, HealthInfo, JobCmd, JobId, JobOut, JobSpec, JobState, JobSummary,
};
use qcs_statevec::GateKind;
use std::time::Duration;

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
                        c.push(Op::Single { gate, target });
                    }
                    1 if other != target => {
                        c.push(Op::Controlled {
                            gate,
                            control: other,
                            target,
                        });
                    }
                    2 => {
                        let controls: Vec<usize> =
                            (0..n).filter(|q| *q != target).take(k.min(n - 1)).collect();
                        if !controls.is_empty() {
                            c.push(Op::MultiControlled {
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
        (2u32..7, 0u32..3, 0usize..5, 0u64..3, 0usize..7, 0usize..3),
        (0u8..2, 1usize..9, 0usize..9, 0u8..2, 0u8..2, 1usize..4),
        (0u8..2, 0u8..2, 0usize..3, 1u32..5, 0u64..3, arb_bound()),
    )
        .prop_map(
            |(
                (block_log2, ranks_log2, threads_raw, mem_raw, codec_raw, cache_raw),
                (fusion, max_batch, spill_raw, write_behind, planned_min, shards),
                (prefetch, partial, remote_raw, attempts, timeout_raw, bound),
            )| {
                let mut cfg = SimConfig::default()
                    .with_block_log2(block_log2)
                    .with_ranks_log2(ranks_log2)
                    .with_fixed_bound(bound)
                    .with_fusion(fusion == 1)
                    .with_max_batch_gates(max_batch)
                    .with_prefetch(prefetch == 1)
                    .with_partial_decode(partial == 1);
                cfg.threads_per_rank = (threads_raw > 0).then_some(threads_raw);
                cfg.memory_budget = (mem_raw > 0).then_some(mem_raw << 24);
                cfg.lossy_codec = CodecId::ALL[codec_raw];
                cfg.cache_lines = cache_raw * 32;
                if spill_raw > 0 {
                    let mut spill = SpillConfig::new(spill_raw);
                    spill.write_behind = write_behind == 1;
                    spill.shards = shards;
                    if planned_min == 1 {
                        spill.eviction = qcs_core::Eviction::PlannedMin;
                    }
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
// Helpers
// ---------------------------------------------------------------------------

/// Every strict prefix of `bytes` must decode to a typed error — never
/// panic, never succeed (the codecs have no optional trailing data).
fn assert_prefixes_fail<T, F: Fn(&[u8]) -> Result<T, NetError>>(bytes: &[u8], decode: F) {
    for len in 0..bytes.len() {
        assert!(
            decode(&bytes[..len]).is_err(),
            "decode of {len}-byte prefix (of {}) must fail",
            bytes.len()
        );
    }
}

/// Flip one byte and decode: any outcome but a panic is acceptable.
fn assert_corruption_no_panic<T, F: Fn(&[u8]) -> Result<T, NetError>>(
    bytes: &[u8],
    pos: usize,
    flip: u8,
    decode: F,
) {
    if bytes.is_empty() {
        return;
    }
    let mut copy = bytes.to_vec();
    let idx = pos % copy.len();
    copy[idx] ^= flip | 1;
    let _ = decode(&copy);
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn circuit_codec_round_trips(circuit in arb_circuit(), pos in 0usize..4096, flip in 0u8..255) {
        let mut buf = Vec::new();
        put_circuit(&mut buf, &circuit);
        let decode = |bytes: &[u8]| {
            let mut cur = Cursor::new(bytes);
            let c = take_circuit(&mut cur)?;
            cur.finish()?;
            Ok(c)
        };
        let back = decode(&buf).expect("round trip decodes");
        prop_assert_eq!(&back, &circuit);
        assert_prefixes_fail(&buf, decode);
        assert_corruption_no_panic(&buf, pos, flip, decode);
    }

    #[test]
    fn sim_config_codec_round_trips(cfg in arb_config(), pos in 0usize..4096, flip in 0u8..255) {
        let mut buf = Vec::new();
        put_sim_config(&mut buf, &cfg).expect("utf-8 spill dir encodes");
        let decode = |bytes: &[u8]| {
            let mut cur = Cursor::new(bytes);
            let c = take_sim_config(&mut cur)?;
            cur.finish()?;
            Ok(c)
        };
        let back = decode(&buf).expect("round trip decodes");
        prop_assert_eq!(&back, &cfg);
        assert_prefixes_fail(&buf, decode);
        assert_corruption_no_panic(&buf, pos, flip, decode);
    }

    #[test]
    fn sim_report_codec_round_trips(report in arb_report(), pos in 0usize..4096, flip in 0u8..255) {
        let mut buf = Vec::new();
        put_sim_report(&mut buf, &report);
        let decode = |bytes: &[u8]| {
            let mut cur = Cursor::new(bytes);
            let r = take_sim_report(&mut cur)?;
            cur.finish()?;
            Ok(r)
        };
        let back = decode(&buf).expect("round trip decodes");
        prop_assert_eq!(&back, &report);
        assert_prefixes_fail(&buf, decode);
        assert_corruption_no_panic(&buf, pos, flip, decode);
    }

    #[test]
    fn job_cmd_codec_round_trips(cmd in arb_cmd(), pos in 0usize..4096, flip in 0u8..255) {
        let buf = encode_job_cmd(&cmd).expect("encodes");
        let back = decode_job_cmd(&buf).expect("round trip decodes");
        prop_assert_eq!(&back, &cmd);
        assert_prefixes_fail(&buf, decode_job_cmd);
        assert_corruption_no_panic(&buf, pos, flip, decode_job_cmd);
    }

    #[test]
    fn job_out_codec_round_trips(out in arb_out(), pos in 0usize..4096, flip in 0u8..255) {
        let buf = encode_job_out(&out);
        let back = decode_job_out(&buf).expect("round trip decodes");
        prop_assert_eq!(&back, &out);
        assert_prefixes_fail(&buf, decode_job_out);
        assert_corruption_no_panic(&buf, pos, flip, decode_job_out);
    }
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
    assert_eq!(cur.take_u8().unwrap(), 0, "a v3 hello must be refused");
    let reason = cur.take_str().unwrap();
    assert!(reason.contains("protocol v3"), "{reason}");

    daemon
        .join()
        .expect("both handlers ended without panicking");
}
