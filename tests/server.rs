//! Simulation-as-a-service concurrency and fault suite.
//!
//! Drives an in-process `qcs-server` daemon over real loopback TCP and
//! pins the multi-tenant contracts from the scheduler docs:
//!
//! - **Budget**: the admission log shows aggregate carve-outs never
//!   exceeding the server cap at any admission event, while all jobs —
//!   including the one that had to queue — still complete.
//! - **Ordering**: equal-priority jobs are admitted in submission order
//!   (FIFO within priority).
//! - **Preemption**: a higher-priority submission that cannot fit
//!   suspends the running low-priority job to a checkpoint; the victim
//!   resumes afterwards and its amplitudes still match an in-process
//!   run exactly.
//! - **Isolation**: a killed remote worker fails only its own job — as
//!   a typed error event, never a panic or hang — and other tenants'
//!   jobs complete untouched.
//! - **Hygiene**: cancellation (explicit or by client disconnect)
//!   leaves no spill directories or checkpoints behind, and shutdown
//!   removes the work dir entirely.
//!
//! Every completed job that returns amplitudes is compared against a
//! fresh in-process run of the same spec to 1e-10.

use qcs_net::ConnectPolicy;
use qcsim::circuits::{grover_circuit, optimal_iterations, qft_benchmark_circuit};
use qcsim::server::{
    carve_bytes, spawn_loopback, JobClient, JobEnd, JobId, JobOut, JobSpec, JobState, ServerConfig,
};
use qcsim::{Circuit, CompressedSimulator, ErrorBound, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const TOL: f64 = 1e-10;

/// Lossless spilling config with single-gate schedule items, so paced
/// jobs expose many suspend/cancel windows.
fn job_cfg() -> SimConfig {
    SimConfig::default()
        .with_block_log2(3)
        .with_fixed_bound(ErrorBound::Lossless)
        .with_spill(4)
        .without_fusion()
}

fn connect(addr: &std::net::SocketAddr) -> JobClient {
    JobClient::connect(&addr.to_string(), &ConnectPolicy::default()).expect("connect")
}

/// In-process reference run of the same circuit/config/seed, returning
/// interleaved re/im amplitudes exactly like [`JobOut::Done`] does.
fn reference_amps(circuit: &Circuit, cfg: &SimConfig, seed: u64) -> Vec<f64> {
    let mut cfg = cfg.clone();
    if let Some(spill) = &mut cfg.spill {
        spill.dir = None; // reference spills to its own temp dir
    }
    let n = circuit.num_qubits() as u32;
    let mut sim = CompressedSimulator::new(n, cfg).expect("reference sim");
    let mut rng = StdRng::seed_from_u64(seed);
    sim.run(circuit, &mut rng).expect("reference run");
    sim.snapshot_f64().expect("reference snapshot")
}

fn assert_amps_match(name: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{name}: amplitude vector length");
    let err = got
        .iter()
        .zip(want)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(
        err <= TOL,
        "{name}: server vs in-process error {err:e} > {TOL:e}"
    );
}

/// Leftover per-job files under the server work dir (spill segment
/// subdirectories or suspend checkpoints).
fn leaked_job_files(work_dir: &std::path::Path) -> Vec<String> {
    let Ok(entries) = std::fs::read_dir(work_dir) else {
        return Vec::new(); // dir already removed: nothing leaked
    };
    entries
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("job-"))
        .collect()
}

/// Three equal-priority tenants under a budget sized for exactly two:
/// the third queues, every admission respects the cap, admissions are
/// FIFO, and all three complete with amplitudes matching in-process
/// runs.
#[test]
fn concurrent_jobs_share_budget_and_match_in_process() {
    let cfg = job_cfg();
    let circuit = qft_benchmark_circuit(7, 6);
    let carve = carve_bytes(&cfg, 7);
    let budget = 2 * carve + carve / 2; // admits two, queues the third
    let server = spawn_loopback(ServerConfig {
        budget_bytes: budget,
        ..ServerConfig::default()
    })
    .expect("spawn server");
    let mut client = connect(&server.addr());

    let mut jobs: Vec<JobId> = Vec::new();
    for (i, name) in ["tenant-a", "tenant-b", "tenant-c"].iter().enumerate() {
        let spec = JobSpec::new(*name, circuit.clone(), cfg.clone())
            .with_seed(i as u64 + 1)
            .with_pace_ms(2)
            .with_amplitudes();
        jobs.push(client.submit(&spec).expect("submit"));
    }

    let want = [
        reference_amps(&circuit, &cfg, 1),
        reference_amps(&circuit, &cfg, 2),
        reference_amps(&circuit, &cfg, 3),
    ];
    for (i, job) in jobs.iter().enumerate() {
        let mut waves = 0u64;
        let mut last_item = None;
        let end = client
            .wait(*job, |out| {
                if let JobOut::Wave { item, .. } = out {
                    assert!(last_item.is_none_or(|prev| *item > prev), "waves in order");
                    last_item = Some(*item);
                    waves += 1;
                }
            })
            .expect("wait");
        assert!(waves > 0, "job {i}: progress must stream per wave");
        match end {
            JobEnd::Done { report, amplitudes } => {
                assert_amps_match(&format!("tenant {i}"), &amplitudes, &want[i]);
                assert!(report.gates > 0, "job {i}: report populated");
            }
            other => panic!("job {i}: expected Done, got {other:?}"),
        }
    }

    let health = client.health().expect("health");
    assert_eq!(health.budget_bytes, budget);
    assert_eq!(health.carved_bytes, 0, "all jobs terminal: budget released");
    assert_eq!(health.admissions.len(), 3, "each tenant admitted once");
    for ev in &health.admissions {
        assert!(
            ev.carved_after <= ev.cap,
            "admission {:?} exceeds cap: {} > {}",
            ev.job,
            ev.carved_after,
            ev.cap
        );
    }
    // FIFO within equal priority: admissions happen in submission order.
    let admitted: Vec<JobId> = health.admissions.iter().map(|ev| ev.job).collect();
    assert_eq!(admitted, jobs, "equal-priority admissions are FIFO");
    // The third tenant could only be admitted once a slot freed: its
    // admission still has two carve-outs outstanding (its own plus the
    // still-running survivor), proving jobs really overlapped.
    assert_eq!(health.admissions[2].carved_after, 2 * carve);
    for job in &health.jobs {
        assert_eq!(job.state, JobState::Done, "{}", job.name);
    }

    let work_dir = server.work_dir().to_path_buf();
    assert_eq!(leaked_job_files(&work_dir), Vec::<String>::new());
    server.shutdown();
    assert!(!work_dir.exists(), "shutdown removes the work dir");
}

/// A higher-priority submission that cannot fit beside the running
/// low-priority job suspends it to a checkpoint, runs, and then the
/// victim resumes — and still produces exactly the amplitudes of an
/// uninterrupted in-process run.
#[test]
fn higher_priority_preempts_and_victim_resumes_from_checkpoint() {
    let cfg = job_cfg();
    let circuit = qft_benchmark_circuit(7, 6);
    let carve = carve_bytes(&cfg, 7);
    let server = spawn_loopback(ServerConfig {
        budget_bytes: carve + carve / 2, // room for exactly one job
        ..ServerConfig::default()
    })
    .expect("spawn server");
    let mut client = connect(&server.addr());

    let low_spec = JobSpec::new("low", circuit.clone(), cfg.clone())
        .with_seed(7)
        .with_pace_ms(15)
        .with_amplitudes();
    let low = client.submit(&low_spec).expect("submit low");

    // Let the low job actually start making progress before contending.
    let mut low_states = Vec::new();
    loop {
        match client.next_event().expect("event") {
            JobOut::State { job, state } if job == low => low_states.push(state),
            JobOut::Wave { job, .. } if job == low => break,
            _ => {}
        }
    }

    let high_spec = JobSpec::new("high", circuit.clone(), cfg.clone())
        .with_seed(9)
        .with_priority(5)
        .with_amplitudes();
    let high = client.submit(&high_spec).expect("submit high");

    let high_end = client.wait(high, |_| {}).expect("wait high");
    match high_end {
        JobEnd::Done { amplitudes, .. } => {
            assert_amps_match("high", &amplitudes, &reference_amps(&circuit, &cfg, 9));
        }
        other => panic!("high: expected Done, got {other:?}"),
    }

    let low_end = client
        .wait(low, |out| {
            if let JobOut::State { state, .. } = out {
                low_states.push(*state);
            }
        })
        .expect("wait low");
    assert!(
        low_states.contains(&JobState::Suspended),
        "low job must have been suspended (saw {low_states:?})"
    );
    let suspended_at = low_states
        .iter()
        .position(|s| *s == JobState::Suspended)
        .unwrap();
    assert!(
        low_states[suspended_at..].contains(&JobState::Running),
        "low job must resume after suspension (saw {low_states:?})"
    );
    match low_end {
        JobEnd::Done { amplitudes, .. } => {
            assert_amps_match("low", &amplitudes, &reference_amps(&circuit, &cfg, 7));
        }
        other => panic!("low: expected Done, got {other:?}"),
    }

    let health = client.health().expect("health");
    for ev in &health.admissions {
        assert!(ev.carved_after <= ev.cap, "admission exceeds cap");
    }
    // low admitted, then high (after the suspend freed budget), then low again.
    let admitted: Vec<JobId> = health.admissions.iter().map(|ev| ev.job).collect();
    assert_eq!(admitted, vec![low, high, low]);
    assert_eq!(leaked_job_files(server.work_dir()), Vec::<String>::new());
    server.shutdown();
}

/// A remote worker that dies mid-job (the same `fail_after_cmds` fault
/// the multi-node suite uses) fails only its own job — a typed error
/// event — while the other tenants' local jobs complete and match
/// in-process runs. No per-job files survive.
#[test]
fn killed_worker_fails_only_its_own_job() {
    let (worker_addr, worker) = qcsim::core::spawn_loopback(
        1,
        qcsim::core::ServeOptions {
            fail_after_cmds: Some(2),
            ..qcsim::core::ServeOptions::default()
        },
    )
    .expect("spawn dying worker");

    let cfg = job_cfg();
    let circuit = qft_benchmark_circuit(7, 6);
    let doomed_cfg = cfg.clone().with_remote(vec![worker_addr]);

    let server = spawn_loopback(ServerConfig::default()).expect("spawn server");
    let mut client = connect(&server.addr());

    let doomed = client
        .submit(&JobSpec::new("doomed", circuit.clone(), doomed_cfg).with_seed(1))
        .expect("submit doomed");
    let good_a = client
        .submit(
            &JobSpec::new("good-a", circuit.clone(), cfg.clone())
                .with_seed(2)
                .with_amplitudes(),
        )
        .expect("submit good-a");
    let good_b = client
        .submit(
            &JobSpec::new("good-b", circuit.clone(), cfg.clone())
                .with_seed(3)
                .with_amplitudes(),
        )
        .expect("submit good-b");

    match client.wait(doomed, |_| {}).expect("wait doomed") {
        JobEnd::Failed(error) => {
            assert!(!error.is_empty(), "failure carries the engine error");
        }
        other => panic!("doomed: expected Failed, got {other:?}"),
    }
    for (name, job, seed) in [("good-a", good_a, 2), ("good-b", good_b, 3)] {
        match client.wait(job, |_| {}).expect("wait good") {
            JobEnd::Done { amplitudes, .. } => {
                assert_amps_match(name, &amplitudes, &reference_amps(&circuit, &cfg, seed));
            }
            other => panic!("{name}: expected Done, got {other:?}"),
        }
    }

    let health = client.health().expect("health");
    let state_of = |job: JobId| {
        health
            .jobs
            .iter()
            .find(|j| j.job == job)
            .map(|j| j.state)
            .expect("job in health table")
    };
    assert_eq!(state_of(doomed), JobState::Failed);
    assert_eq!(state_of(good_a), JobState::Done);
    assert_eq!(state_of(good_b), JobState::Done);
    assert_eq!(health.carved_bytes, 0, "failed job released its carve-out");
    assert_eq!(leaked_job_files(server.work_dir()), Vec::<String>::new());
    server.shutdown();
    worker.join().expect("worker daemon thread");
}

/// Explicit cancellation mid-run ends the job as `Cancelled` and leaves
/// no spill directories or checkpoints behind.
#[test]
fn cancellation_mid_run_leaves_no_spill_dirs() {
    let cfg = job_cfg();
    let n = 6;
    let circuit = grover_circuit(n, 0b1010, optimal_iterations(n));
    let server = spawn_loopback(ServerConfig::default()).expect("spawn server");
    let mut client = connect(&server.addr());

    let job = client
        .submit(&JobSpec::new("cancel-me", circuit, cfg).with_pace_ms(20))
        .expect("submit");
    loop {
        if let JobOut::Wave { job: j, .. } = client.next_event().expect("event") {
            if j == job {
                break;
            }
        }
    }
    client.cancel(job).expect("cancel");
    match client.wait(job, |_| {}).expect("wait") {
        JobEnd::Cancelled => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }

    let health = client.health().expect("health");
    assert_eq!(health.jobs[0].state, JobState::Cancelled);
    assert_eq!(health.carved_bytes, 0);
    assert_eq!(leaked_job_files(server.work_dir()), Vec::<String>::new());
    server.shutdown();
}

/// A client that disconnects mid-stream abandons its jobs: the server
/// cancels them so they release budget and spill space.
#[test]
fn client_disconnect_cancels_its_jobs() {
    let cfg = job_cfg();
    let circuit = qft_benchmark_circuit(7, 6);
    let server = spawn_loopback(ServerConfig::default()).expect("spawn server");

    let job = {
        let mut doomed_client = connect(&server.addr());
        let job = doomed_client
            .submit(&JobSpec::new("abandoned", circuit, cfg).with_pace_ms(20))
            .expect("submit");
        loop {
            if let JobOut::State {
                state: JobState::Running,
                ..
            } = doomed_client.next_event().expect("event")
            {
                break;
            }
        }
        job
        // dropping the client closes the connection mid-stream
    };

    let mut observer = connect(&server.addr());
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let health = observer.health().expect("health");
        let state = health
            .jobs
            .iter()
            .find(|j| j.job == job)
            .map(|j| j.state)
            .expect("job in health table");
        if state == JobState::Cancelled {
            assert_eq!(health.carved_bytes, 0);
            break;
        }
        assert!(
            Instant::now() < deadline,
            "abandoned job stuck in {state:?} instead of Cancelled"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    assert_eq!(leaked_job_files(server.work_dir()), Vec::<String>::new());
    server.shutdown();
}

/// Hostile submissions — a qubit count whose footprint math would
/// overflow, and a pace that would sleep for centuries — are rejected
/// or defanged instead of panicking session threads or wedging jobs.
#[test]
fn hostile_specs_are_rejected_or_clamped() {
    let server = spawn_loopback(ServerConfig::default()).expect("spawn server");
    let mut client = connect(&server.addr());

    // 70 qubits: the admission carve computation would shift a u64 past
    // its width if this were not validated at submission.
    let mut big = Circuit::new(70);
    big.h(69);
    let err = client
        .submit(&JobSpec::new("overflow", big, job_cfg()))
        .expect_err("oversized qubit count must be rejected");
    assert!(err.to_string().contains("maximum"), "typed reason: {err}");

    // pace_ms = u64::MAX is clamped server-side and slept in slices, so
    // the job still honors cancellation promptly instead of pinning its
    // carve-out (and shutdown's runner join) forever.
    let n = 6;
    let circuit = grover_circuit(n, 0b1010, optimal_iterations(n));
    let job = client
        .submit(&JobSpec::new("sleepy", circuit, job_cfg()).with_pace_ms(u64::MAX))
        .expect("submit");
    loop {
        if let JobOut::Wave { job: j, .. } = client.next_event().expect("event") {
            if j == job {
                break;
            }
        }
    }
    let asked = Instant::now();
    client.cancel(job).expect("cancel");
    match client.wait(job, |_| {}).expect("wait") {
        JobEnd::Cancelled => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    assert!(
        asked.elapsed() < Duration::from_secs(10),
        "clamped + sliced pace keeps cancellation prompt"
    );
    let health = client.health().expect("health");
    assert_eq!(health.carved_bytes, 0, "hostile jobs release their budget");
    server.shutdown();
}

/// A config that sizes an allocation off the wire is refused at
/// admission, and a runner that panics anyway (forced here by the debug
/// hook; at 3a80267 a `cache_lines = usize::MAX` submission did it for
/// real) ends `Failed` with its carve-out released — it used to stay
/// `Running` forever and make dropping the server handle hang.
#[test]
fn a_hostile_config_or_a_panicking_runner_cannot_wedge_the_server() {
    let server = spawn_loopback(ServerConfig::default()).expect("spawn server");
    let mut client = connect(&server.addr());
    let circuit = qft_benchmark_circuit(6, 5);

    let mut hostile = job_cfg();
    hostile.cache_lines = usize::MAX;
    let err = client
        .submit(&JobSpec::new("cache-bomb", circuit.clone(), hostile))
        .expect_err("an unbounded cache_lines must be rejected at admission");
    assert!(
        err.to_string().contains("cache lines"),
        "typed reason: {err}"
    );
    let mut hostile = job_cfg();
    hostile.spill.as_mut().unwrap().shards = usize::MAX;
    let err = client
        .submit(&JobSpec::new("shard-bomb", circuit.clone(), hostile))
        .expect_err("an unbounded shard count must be rejected at admission");
    assert!(err.to_string().contains("shard"), "typed reason: {err}");
    // 2^20 one-amplitude ranks: each would be a rank thread and a spill
    // store with its fetch thread.
    let hostile = job_cfg().with_block_log2(0).with_ranks_log2(20);
    let err = client
        .submit(&JobSpec::new("rank-bomb", Circuit::new(21), hostile))
        .expect_err("2^20 ranks must be rejected at admission");
    assert!(
        err.to_string().contains("ranks_log2"),
        "typed reason: {err}"
    );

    server.debug_panic_next_runner();
    let doomed = client
        .submit(&JobSpec::new("doomed", circuit.clone(), job_cfg()))
        .expect("submit doomed");
    match client.wait(doomed, |_| {}).expect("wait doomed") {
        JobEnd::Failed(error) => assert!(error.contains("panicked"), "{error}"),
        other => panic!("doomed: expected Failed, got {other:?}"),
    }
    // The server is still a server.
    let good = client
        .submit(&JobSpec::new("good", circuit.clone(), job_cfg()).with_amplitudes())
        .expect("submit good");
    match client.wait(good, |_| {}).expect("wait good") {
        JobEnd::Done { amplitudes, .. } => {
            assert_amps_match(
                "good",
                &amplitudes,
                &reference_amps(&circuit, &job_cfg(), 0),
            );
        }
        other => panic!("good: expected Done, got {other:?}"),
    }
    let health = client.health().expect("health");
    let doomed_row = health.jobs.iter().find(|j| j.job == doomed).expect("row");
    assert_eq!(doomed_row.state, JobState::Failed);
    assert_eq!(
        health.carved_bytes, 0,
        "the panicked job released its carve-out"
    );
    assert_eq!(leaked_job_files(server.work_dir()), Vec::<String>::new());

    // Dropping the handle joins every runner and session: it must return.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let dropper = std::thread::spawn(move || {
        drop(server);
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("server shutdown hung");
    dropper.join().expect("dropper thread");
}

/// `max_conns` stops accepting but, as its docs promise, sessions
/// already open keep running: a job in flight on the final connection
/// completes (matching an in-process run) instead of being cancelled
/// the moment the accept loop exits.
#[test]
fn max_conns_drains_open_sessions_instead_of_killing_jobs() {
    let cfg = job_cfg();
    let circuit = qft_benchmark_circuit(7, 6);
    let server = spawn_loopback(ServerConfig {
        max_conns: Some(1),
        ..ServerConfig::default()
    })
    .expect("spawn server");
    let addr = server.addr();
    let work_dir = server.work_dir().to_path_buf();
    let waiter = std::thread::spawn(move || server.wait());

    let mut client = connect(&addr);
    let job = client
        .submit(
            &JobSpec::new("last-conn", circuit.clone(), cfg.clone())
                .with_seed(4)
                .with_pace_ms(5)
                .with_amplitudes(),
        )
        .expect("submit on the final allowed connection");
    match client.wait(job, |_| {}).expect("wait") {
        JobEnd::Done { amplitudes, .. } => {
            assert_amps_match("last-conn", &amplitudes, &reference_amps(&circuit, &cfg, 4));
        }
        other => panic!("expected Done on the final connection, got {other:?}"),
    }
    drop(client); // disconnecting lets the drain (and wait()) finish
    waiter.join().expect("wait thread");
    assert!(!work_dir.exists(), "wind-down still removes the work dir");
}

/// Oversized submissions are rejected up front with a reason, and the
/// rejection does not disturb the job table.
#[test]
fn oversized_job_is_rejected_with_reason() {
    let cfg = job_cfg();
    let circuit = qft_benchmark_circuit(7, 6);
    let carve = carve_bytes(&cfg, 7);
    let server = spawn_loopback(ServerConfig {
        budget_bytes: carve / 2, // nothing fits
        ..ServerConfig::default()
    })
    .expect("spawn server");
    let mut client = connect(&server.addr());

    let err = client
        .submit(&JobSpec::new("too-big", circuit, cfg))
        .expect_err("oversized job must be rejected");
    assert!(
        err.to_string().contains("budget"),
        "rejection explains the budget: {err}"
    );
    let health = client.health().expect("health");
    assert!(
        health.jobs.is_empty(),
        "rejected job never enters the table"
    );
    server.shutdown();
}
