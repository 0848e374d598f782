//! Multi-node transport suite: real TCP over loopback.
//!
//! Differential half: the same circuits, once on the in-process cluster
//! backend and once against remote rank workers hosted by the daemon
//! loop, must agree amplitude-wise to 1e-10 — and the remote run must
//! account its communication (non-zero exchanged bytes and comm time),
//! since the exchange payloads now really cross sockets, and its block
//! cache (the daemons' lookups, shipped back in the metrics deltas).
//!
//! Fault-injection half: a worker connection dropped mid-run (the daemon
//! dies where a crashing rank process would) must surface as a typed
//! [`SimError`], never a panic or a hang, and the daemon's spill
//! segment directories must not outlive its workers.

use qcs_circuits::{grover_circuit, optimal_iterations, qft_benchmark_circuit, Circuit, Op};
use qcs_compress::ErrorBound;
use qcs_core::{CompressedSimulator, ServeOptions, SimConfig, SimError, SimReport};
use qcs_statevec::{GateKind, StateVector};
use rand::rngs::StdRng;
use rand::SeedableRng;

const TOL: f64 = 1e-10;

fn base_cfg() -> SimConfig {
    SimConfig::default().with_block_log2(3).with_ranks_log2(1)
}

fn run_dense_snapshot(cfg: SimConfig, circuit: &qcs_circuits::Circuit) -> (StateVector, SimReport) {
    let n = circuit.num_qubits() as u32;
    let mut sim = CompressedSimulator::new(n, cfg).expect("sim");
    let mut rng = StdRng::seed_from_u64(2019);
    sim.run(circuit, &mut rng).expect("run");
    let snap = sim.snapshot_dense().expect("snapshot");
    (snap, sim.report())
}

/// Two circuit families, in-process 2-rank cluster vs. two remote ranks
/// on a loopback daemon, amplitude-for-amplitude.
#[test]
fn loopback_remote_ranks_match_in_process() {
    let families = [
        ("qft", qft_benchmark_circuit(8, 7)),
        ("grover", {
            let n = 6;
            grover_circuit(n, 0b101010, optimal_iterations(n))
        }),
    ];
    for (name, circuit) in families {
        let (local_snap, local) = run_dense_snapshot(base_cfg(), &circuit);

        let (addr, server) =
            qcs_core::spawn_loopback(2, ServeOptions::default()).expect("spawn daemon");
        let cfg = base_cfg().with_remote(vec![addr]);
        let n = circuit.num_qubits() as u32;
        let mut sim = CompressedSimulator::new(n, cfg).expect("remote sim");
        let mut rng = StdRng::seed_from_u64(2019);
        sim.run(&circuit, &mut rng).expect("remote run");
        let snap = sim.snapshot_dense().expect("remote snapshot");

        let err = snap
            .amplitudes()
            .iter()
            .zip(local_snap.amplitudes())
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0f64, f64::max);
        assert!(
            err <= TOL,
            "{name}: remote vs in-process amplitude error {err:e} > {TOL:e}"
        );

        let report = sim.report();
        assert_eq!(
            report.fidelity_lower_bound, local.fidelity_lower_bound,
            "{name}: ledger"
        );
        let lookups = report.cache_hits + report.cache_misses;
        assert!(lookups > 0, "{name}: remote ranks must report their cache");
        assert_eq!(
            lookups,
            local.cache_hits + local.cache_misses,
            "{name}: cache lookups, remote vs in-process"
        );
        assert!(
            report.breakdown.comm_bytes > 0,
            "{name}: rank-crossing gates must move compressed bytes"
        );
        assert!(
            report.breakdown.comm_ns() > 0,
            "{name}: socket exchanges must account communication time"
        );
        assert!(report.breakdown.exchanges > 0, "{name}: exchange count");

        drop(sim); // says goodbye to the daemon, ending both handlers
        qcs_core::join_loopback(server);
    }
}

/// Controlled phases above the block split run as per-block scalars
/// inside batches, so controlled-T, CZ and CPhase gates on block and rank
/// qubits move no block over a rank link: between a layer of H on every qubit and a layer of H on
/// the in-block qubits, they exchange nothing, in process at 2 and 4 ranks
/// and on two loopback daemons. The unfused twin routes the same phases by
/// their targets and does exchange, so the zero is not vacuous.
#[test]
fn phases_on_block_and_rank_qubits_never_cross_a_link() {
    const N: usize = 8;
    const BLOCK_LOG2: u32 = 3;
    let mut prelude = Circuit::new(N);
    for q in 0..N {
        prelude.h(q);
    }
    let mut phases = Circuit::new(N);
    let high = BLOCK_LOG2 as usize..N;
    let controlled_t = |control, target| Op::Gate {
        gate: GateKind::T,
        controls: vec![control],
        target,
    };
    for q in high.clone().skip(1) {
        phases.push(controlled_t(q, q - 1));
    }
    for q in high.clone().skip(1) {
        phases
            .cz(q - 1, q)
            .cphase(0.25 * q as f64, BLOCK_LOG2 as usize, q);
    }
    for q in high.skip(1) {
        phases.push(controlled_t(q - 1, q));
    }
    for q in 0..BLOCK_LOG2 as usize {
        phases.h(q);
    }
    let mut whole = prelude.clone();
    whole.extend(&phases);
    let dense = whole.simulate_dense(&mut StdRng::seed_from_u64(0));

    // The phase section's exchange count and bytes, the final state and
    // the Eq. 11 bound of one run; `endpoints` daemons host the ranks.
    let run = |cfg: SimConfig, endpoints: usize| {
        let ranks = 1usize << cfg.ranks_log2;
        let daemons: Vec<_> = (0..endpoints)
            .map(|_| qcs_core::spawn_loopback(ranks / endpoints, ServeOptions::default()))
            .collect::<Result<_, _>>()
            .expect("spawn daemons");
        let cfg = match endpoints {
            0 => cfg,
            _ => cfg.with_remote(daemons.iter().map(|(addr, _)| addr.clone()).collect()),
        };
        let mut sim = CompressedSimulator::new(N as u32, cfg).expect("sim");
        let mut rng = StdRng::seed_from_u64(0);
        sim.run(&prelude, &mut rng).expect("prelude");
        let before = sim.report().breakdown;
        sim.run(&phases, &mut rng).expect("phases");
        let report = sim.report();
        let section = report.breakdown.delta(&before);
        let snap = sim.snapshot_dense().expect("snapshot");
        drop(sim);
        for (_, server) in daemons {
            qcs_core::join_loopback(server);
        }
        (section, snap, report.fidelity_lower_bound)
    };

    for ranks_log2 in [1u32, 2] {
        let cfg = SimConfig::default()
            .with_block_log2(BLOCK_LOG2)
            .with_ranks_log2(ranks_log2);
        let lossy = cfg
            .clone()
            .with_fixed_bound(ErrorBound::PointwiseRelative(1e-3));
        for endpoints in [0, 2] {
            let what = format!("ranks_log2={ranks_log2} daemons={endpoints}");
            let (section, snap, _) = run(cfg.clone(), endpoints);
            assert_eq!(section.exchanges, 0, "{what}: lossless exchanges");
            assert_eq!(section.comm_bytes, 0, "{what}: lossless bytes exchanged");
            let err = snap
                .amplitudes()
                .iter()
                .zip(dense.amplitudes())
                .map(|(a, b)| (*a - *b).abs())
                .fold(0.0f64, f64::max);
            assert!(err <= TOL, "{what}: amplitude error {err:e} vs dense");

            let (section, snap, bound) = run(lossy.clone(), endpoints);
            assert_eq!(section.exchanges, 0, "{what}: lossy exchanges");
            assert_eq!(section.comm_bytes, 0, "{what}: lossy bytes exchanged");
            let fid = snap.fidelity(&dense);
            assert!(
                fid >= bound,
                "{what}: fidelity {fid} < Eq. 11 bound {bound}"
            );
        }
        let (section, _, _) = run(cfg.without_fusion(), 0);
        assert!(
            section.exchanges > 0,
            "ranks_log2={ranks_log2}: the unfused twin must exchange"
        );
    }
}

/// The remote transport takes precedence even at one rank, and read-only
/// queries (probabilities, expectations) travel the wire too.
#[test]
fn single_remote_rank_queries_work() {
    let circuit = qft_benchmark_circuit(6, 3);
    let cfg = SimConfig::default().with_block_log2(3);
    let (local_snap, _) = run_dense_snapshot(cfg.clone(), &circuit);

    let (addr, server) = qcs_core::spawn_loopback(1, ServeOptions::default()).expect("daemon");
    let mut sim = CompressedSimulator::new(6, cfg.with_remote(vec![addr])).expect("remote sim");
    let mut rng = StdRng::seed_from_u64(2019);
    sim.run(&circuit, &mut rng).expect("remote run");
    for q in 0..6 {
        let local_p: f64 = local_snap
            .amplitudes()
            .iter()
            .enumerate()
            .filter(|(i, _)| i & (1 << q) != 0)
            .map(|(_, a)| a.abs() * a.abs())
            .sum();
        let p = sim.prob_one(q).expect("prob_one over the wire");
        assert!(
            (p - local_p).abs() <= TOL,
            "qubit {q}: remote prob {p} vs local {local_p}"
        );
    }
    drop(sim);
    qcs_core::join_loopback(server);
}

/// A daemon that drops a rank's connection cold mid-run surfaces a typed
/// error on the coordinator — no panic, no hang — and its spill segment
/// directories are cleaned up with the dead worker.
#[test]
fn killed_worker_is_a_typed_error_and_leaks_no_spill_files() {
    let spill_dir = std::env::temp_dir().join(format!("qcs-remote-fault-{}", std::process::id()));
    std::fs::create_dir_all(&spill_dir).expect("test spill dir");

    let opts = ServeOptions {
        max_conns: None, // set by spawn_loopback
        fail_after_cmds: Some(2),
        spill_dir: Some(spill_dir.clone()),
    };
    let (addr, server) = qcs_core::spawn_loopback(2, opts).expect("daemon");
    // A spilling config, so each remote rank builds real segment files.
    let cfg = base_cfg().with_spill(2).with_remote(vec![addr]);
    let mut sim = CompressedSimulator::new(8, cfg).expect("remote sim");

    // While the workers are alive their segment directories exist...
    let live_dirs = std::fs::read_dir(&spill_dir)
        .expect("read spill dir")
        .count();
    assert!(live_dirs > 0, "spilling remote ranks create segment dirs");

    let circuit = qft_benchmark_circuit(8, 7);
    let mut rng = StdRng::seed_from_u64(2019);
    let err = sim
        .run(&circuit, &mut rng)
        .expect_err("run against dying workers must fail");
    assert!(
        matches!(err, SimError::Transport(_)),
        "expected a typed transport error, got: {err}"
    );

    // ...and they are gone once the daemon's handlers finish.
    drop(sim);
    qcs_core::join_loopback(server);
    let leaked: Vec<_> = std::fs::read_dir(&spill_dir)
        .expect("read spill dir")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    assert!(leaked.is_empty(), "leaked spill state: {leaked:?}");
    std::fs::remove_dir_all(&spill_dir).expect("remove test spill dir");
}

/// Connection supervision: when no daemon answers, bounded retries end
/// in a typed error, not a hang or a panic.
#[test]
fn rejects_connections_cleanly_after_serving() {
    // spawn_loopback(1) serves exactly one connection; a second simulator
    // cannot connect (bounded retries), and that failure is typed.
    let (addr, server) = qcs_core::spawn_loopback(1, ServeOptions::default()).expect("daemon");
    let cfg = SimConfig::default().with_block_log2(3);
    let sim = CompressedSimulator::new(6, cfg.clone().with_remote(vec![addr.clone()]))
        .expect("first sim connects");
    drop(sim);
    qcs_core::join_loopback(server);
    let mut cfg = cfg.with_remote(vec![addr]);
    if let Some(remote) = cfg.remote.as_mut() {
        remote.connect_attempts = 2;
        remote.connect_backoff_ms = 1;
    }
    match CompressedSimulator::new(6, cfg) {
        Err(err) => assert!(
            matches!(err, SimError::Transport(_)),
            "expected a typed transport error, got: {err}"
        ),
        Ok(_) => panic!("daemon is gone; connecting must fail"),
    }
}

/// End-to-end against the real `qcsim-workerd` binary: spawn it, read the
/// bound address off its stdout, run a remote simulation, then kill the
/// daemon under a live simulator and require a typed error.
#[test]
fn workerd_binary_end_to_end_and_kill_mid_session() {
    use std::process::{Command, Stdio};

    let mut child = Command::new(env!("CARGO_BIN_EXE_qcsim-workerd"))
        .args(["--listen", "127.0.0.1:0", "--max-conns", "4"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn qcsim-workerd");
    let stdout = child.stdout.take().expect("piped stdout");
    let addr = qcs_net::banner::read_addr(&mut std::io::BufReader::new(stdout))
        .expect("daemon banner with listen address");

    // A full run against the daemon-hosted pair of ranks.
    let circuit = qft_benchmark_circuit(8, 7);
    let (local_snap, _) = run_dense_snapshot(base_cfg(), &circuit);
    let cfg = base_cfg().with_remote(vec![addr.clone()]);
    let mut sim = CompressedSimulator::new(8, cfg).expect("remote sim");
    let mut rng = StdRng::seed_from_u64(2019);
    sim.run(&circuit, &mut rng).expect("remote run");
    let snap = sim.snapshot_dense().expect("remote snapshot");
    let err = snap
        .amplitudes()
        .iter()
        .zip(local_snap.amplitudes())
        .map(|(a, b)| (*a - *b).abs())
        .fold(0.0f64, f64::max);
    assert!(err <= TOL, "binary-hosted run diverged: {err:e}");
    assert!(sim.report().breakdown.comm_bytes > 0);
    drop(sim);

    // New session, then kill the daemon under it: the next wave must be
    // a typed transport error, not a panic or a hang.
    let cfg = base_cfg().with_remote(vec![addr]);
    let mut sim = CompressedSimulator::new(8, cfg).expect("second remote sim");
    child.kill().expect("kill daemon");
    child.wait().expect("reap daemon");
    let mut rng = StdRng::seed_from_u64(2019);
    let err = sim
        .run(&circuit, &mut rng)
        .expect_err("daemon is dead; the run must fail");
    assert!(
        matches!(err, SimError::Transport(_)),
        "expected a typed transport error, got: {err}"
    );
}
