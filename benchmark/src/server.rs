//! `server_mix`: two closed-loop clients against an in-process
//! `qcs-server` daemon on a loopback socket.

use crate::layers;
use crate::outcome::{Checks, Metrics, Outcome};
use crate::sim::{
    build_engine, engine_lanes, item_stats, keep_going, layer_counters, overhead_ratio,
    report_counters, run_circuit, Ctx, TRACED_PAIRS,
};
use crate::stats;
use crate::trace::{SpanId, Tracer};
use crate::workloads::{self, ServerWorkload, Workload};
use qcs_circuits::schedule_circuit;
use qcs_core::SimReport;
use qcs_server::protocol::{decode_job_cmd, decode_job_out, encode_job_cmd, encode_job_out};
use qcs_server::{
    spawn_loopback, Clock, ConnectPolicy, JobClient, JobCmd, JobEnd, JobId, JobOut, JobSpec,
    JobState, SchedAction, SchedPolicy, Scheduler, ServerConfig, ServerHandle, VirtualClock,
};
use qcs_statevec::{Complex64, StateVector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// What one client saw of one job, from submit to its terminal event.
struct JobRecord {
    name: String,
    submit: Instant,
    ack: Instant,
    done: Instant,
    /// Lifecycle transitions in arrival order.
    states: Vec<(Instant, JobState)>,
    /// Arrival time of every `Wave` event.
    waves: Vec<Instant>,
    /// Highest peak memory / lowest ratio over every report the job
    /// streamed: a resumed job's final report only covers the part after
    /// its checkpoint, its earlier `Wave` reports cover the rest.
    peak_mem: u64,
    min_ratio: f64,
    end: JobEnd,
}

impl JobRecord {
    fn report(&self) -> Option<&SimReport> {
        match &self.end {
            JobEnd::Done { report, .. } => Some(report),
            _ => None,
        }
    }

    fn latency_s(&self) -> f64 {
        (self.done - self.submit).as_secs_f64()
    }

    /// Seconds spent in `Running`, and seconds between ack and done spent
    /// anywhere else (queued, admitted, suspended).
    fn run_and_wait_s(&self) -> (f64, f64) {
        let mut run = 0.0;
        let mut running_since = None;
        for (at, state) in &self.states {
            match (state, running_since) {
                (JobState::Running, None) => running_since = Some(*at),
                (JobState::Suspended, Some(since)) => {
                    run += (*at - since).as_secs_f64();
                    running_since = None;
                }
                _ => {}
            }
        }
        if let Some(since) = running_since {
            run += (self.done - since).as_secs_f64();
        }
        let total = (self.done - self.ack).as_secs_f64();
        (run, (total - run).max(0.0))
    }
}

/// One closed-loop client: submit, wait for the terminal event, repeat.
/// Only with `stamp_events` does it read the clock on every streamed
/// event (what the job spans are built from); without, a job costs three
/// clock readings (submit, ack, done) besides submit and wait.
fn drive_client(
    client: &mut JobClient,
    jobs: &[JobSpec],
    stamp_events: bool,
) -> Result<Vec<JobRecord>, String> {
    let mut records = Vec::with_capacity(jobs.len());
    for spec in jobs {
        let submit = Instant::now();
        let id: JobId = client.submit(spec).map_err(|e| e.to_string())?;
        let ack = Instant::now();
        let mut states = Vec::new();
        let mut waves = Vec::new();
        let (mut peak_mem, mut min_ratio) = (0u64, f64::INFINITY);
        let end = client
            .wait(id, |event| {
                let report = match event {
                    JobOut::State { state, .. } => {
                        if stamp_events {
                            states.push((Instant::now(), *state));
                        }
                        None
                    }
                    JobOut::Wave { report, .. } => {
                        if stamp_events {
                            waves.push(Instant::now());
                        }
                        Some(report)
                    }
                    JobOut::Done { report, .. } => Some(report),
                    _ => None,
                };
                if let Some(r) = report {
                    peak_mem = peak_mem.max(r.peak_memory_bytes);
                    min_ratio = min_ratio.min(r.min_compression_ratio);
                }
            })
            .map_err(|e| e.to_string())?;
        records.push(JobRecord {
            name: spec.name.clone(),
            submit,
            ack,
            done: Instant::now(),
            states,
            waves,
            peak_mem,
            min_ratio,
            end,
        });
    }
    Ok(records)
}

/// One batch: every client works through its list concurrently. Returns
/// the wall seconds and each client's records.
fn run_batch(
    clients: &mut [JobClient],
    w: &ServerWorkload,
    stamp_events: bool,
) -> Result<(f64, Instant, Vec<Vec<JobRecord>>), String> {
    let start = Instant::now();
    let results: Vec<Result<Vec<JobRecord>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&w.per_client)
            .map(|(client, jobs)| s.spawn(move || drive_client(client, jobs, stamp_events)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let records = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok((wall, start, records))
}

struct Setup {
    w: ServerWorkload,
    server: ServerHandle,
    clients: Vec<JobClient>,
    setup_s: f64,
}

/// Seed to warmed-up server: batch generation, daemon spawn, client
/// handshakes, and one full warm-up batch.
fn set_up(ctx: &Ctx, tracer: &mut Tracer, root: Option<SpanId>) -> Result<Setup, String> {
    let t0 = Instant::now();
    let span = tracer.begin("setup", root);
    let parent = tracer.enabled().then_some(span);
    let w = match tracer.scope("circuit_build", parent, || {
        workloads::build(ctx.name, ctx.seed, ctx.sizes, ctx.tmp)
    }) {
        Workload::Server(w) => w,
        Workload::Sim(_) => return Err(format!("{} is not a server workload", ctx.name)),
    };
    let (server, mut clients) = tracer.scope("daemon_start", parent, || {
        let server = spawn_loopback(ServerConfig {
            budget_bytes: w.budget_bytes,
            max_running: workloads::SERVER_MAX_RUNNING,
            default_resident_blocks: w.resident_blocks,
            work_dir: Some(ctx.tmp.join(format!("server-{}", std::process::id()))),
            max_snapshot_qubits: 16,
            max_conns: None,
        })
        .map_err(|e| e.to_string())?;
        let addr = server.addr().to_string();
        let clients = w
            .per_client
            .iter()
            .map(|_| JobClient::connect(&addr, &ConnectPolicy::default()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        Ok::<_, String>((server, clients))
    })?;
    tracer.scope("warmup", parent, || run_batch(&mut clients, &w, false))?;
    tracer.end(span);
    Ok(Setup {
        w,
        server,
        clients,
        setup_s: t0.elapsed().as_secs_f64(),
    })
}

impl Setup {
    /// Hang up the clients, then stop the daemon and join its threads.
    fn tear_down(self) {
        drop(self.clients);
        self.server.shutdown();
    }
}

fn state_from(amplitudes: &[f64]) -> StateVector {
    StateVector::from_amplitudes(
        amplitudes
            .chunks_exact(2)
            .map(|p| Complex64::new(p[0], p[1]))
            .collect(),
    )
}

/// The correctness gate of a batch: every job `Done`, and every job that
/// returned amplitudes agrees with an in-process run of its spec.
/// Returns the lowest fidelity against dense over those jobs.
fn check_batches(
    ctx: &Ctx,
    w: &ServerWorkload,
    batches: &[Vec<Vec<JobRecord>>],
    checks: &mut Checks,
) -> Result<f64, String> {
    let mut min_fidelity = f64::INFINITY;
    let mut off = Tracer::new(false, 0);
    for (client, jobs) in w.per_client.iter().enumerate() {
        for (k, spec) in jobs.iter().enumerate() {
            for batch in batches {
                let rec = &batch[client][k];
                checks.expect(matches!(rec.end, JobEnd::Done { .. }), || {
                    format!("job {} ended {:?}", rec.name, rec.end)
                });
            }
            if !spec.return_amplitudes {
                continue;
            }
            let twin = workloads::job_twin(spec);
            let schedule = schedule_circuit(&spec.circuit, &spec.config.fusion_policy());
            let (mut engine, _) = build_engine(&twin, ctx.tmp, &mut off, None)?;
            run_circuit(&mut engine, &schedule, spec.seed, &mut off, None)?;
            let want = engine.sim().snapshot_f64().map_err(|e| e.to_string())?;
            let want_report = engine.sim().report();
            let dense = schedule.simulate_dense(&mut StdRng::seed_from_u64(spec.seed));
            for batch in batches {
                let rec = &batch[client][k];
                let JobEnd::Done { report, amplitudes } = &rec.end else {
                    continue;
                };
                let diff = want
                    .iter()
                    .zip(amplitudes)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, f64::max);
                checks.expect(amplitudes.len() == want.len() && diff <= 1e-10, || {
                    format!("job {} is {diff:e} away from its in-process run", rec.name)
                });
                // A resumed job counts gates from its checkpoint on; the
                // ledger travels with the checkpoint.
                checks.expect(
                    report.gates <= want_report.gates
                        && report.fidelity_lower_bound == want_report.fidelity_lower_bound,
                    || format!("job {} reported a different gate count or bound", rec.name),
                );
                if amplitudes.len() == want.len() {
                    let f = state_from(amplitudes).fidelity(&dense);
                    checks.expect(f >= report.fidelity_lower_bound - 1e-12, || {
                        format!("job {} fidelity {f} below its lower bound", rec.name)
                    });
                    min_fidelity = min_fidelity.min(f);
                }
            }
        }
    }
    Ok(min_fidelity)
}

fn all_records(batches: &[Vec<Vec<JobRecord>>]) -> impl Iterator<Item = &JobRecord> {
    batches.iter().flatten().flatten()
}

/// End-to-end pass: cycles of one set-up and one timed batch (see
/// `sim::end_to_end` on why they alternate), then the correctness gate.
pub fn end_to_end(ctx: &Ctx) -> Result<Outcome, String> {
    let mut off = Tracer::new(false, 0);
    let mut checks = Checks::default();
    let mut setup_samples = Vec::new();
    let mut run_s: Vec<f64> = Vec::new();
    let mut cycle_s = Vec::new();
    let mut batches = Vec::new();
    let mut last = None::<Setup>;
    let started = Instant::now();
    while keep_going(&cycle_s, ctx, started) {
        if let Some(s) = last.take() {
            s.tear_down();
        }
        let cycle = Instant::now();
        let mut setup = set_up(ctx, &mut off, None)?;
        setup_samples.push(setup.setup_s);
        let (wall, _, records) = run_batch(&mut setup.clients, &setup.w, false)?;
        run_s.push(wall);
        batches.push(records);
        cycle_s.push(cycle.elapsed().as_secs_f64());
        last = Some(setup);
    }
    let setup = last.expect("at least one cycle ran");
    checks.passed(all_records(&batches).count() as u64);
    let fidelity = check_batches(ctx, &setup.w, &batches, &mut checks)?;

    let mut metrics = Metrics::default();
    metrics.set_timed("setup_s", setup_samples);
    metrics.set_timed("run_s", run_s);
    // Submit -> `Done`, pooled over every timed batch: with five batches of
    // 32 jobs, eight samples lie beyond p95.
    job_latency(&mut metrics, &batches);
    let done: Vec<&JobRecord> = all_records(&batches)
        .filter(|r| r.report().is_some())
        .collect();
    metrics.set(
        "peak_mem_bytes",
        done.iter().map(|r| r.peak_mem).max().unwrap_or(0) as f64,
    );
    metrics.set(
        "min_ratio",
        done.iter()
            .map(|r| r.min_ratio)
            .fold(f64::INFINITY, f64::min),
    );
    metrics.set("fidelity", fidelity);
    metrics.set(
        "fidelity_lower_bound",
        done.iter()
            .filter_map(|r| r.report())
            .map(|r| r.fidelity_lower_bound)
            .fold(f64::INFINITY, f64::min),
    );
    setup.tear_down();
    Ok(Outcome {
        workload: ctx.name.to_string(),
        traced: false,
        seed: ctx.seed,
        metrics,
        checks,
    })
}

/// `server.job_p50_s` / `server.job_p95_s` over every job of `batches`.
fn job_latency(m: &mut Metrics, batches: &[Vec<Vec<JobRecord>>]) {
    let latency: Vec<f64> = all_records(batches).map(JobRecord::latency_s).collect();
    m.set("server.job_p50_s", stats::percentile(&latency, 50.0));
    m.set("server.job_p95_s", stats::percentile(&latency, 95.0));
}

/// Spans of one job under its batch: `job` with `submit_ack`, then
/// `queued`/`running`/`suspended` as the state events arrived, then
/// `done` from the last wave to the terminal event.
fn record_job_spans(tracer: &mut Tracer, batch: SpanId, rec: &JobRecord) {
    let job = tracer.record(
        format!("job:{}", rec.name),
        Some(batch),
        rec.submit,
        rec.done,
        vec![("waves", rec.waves.len() as f64)],
    );
    tracer.record("submit_ack", Some(job), rec.submit, rec.ack, Vec::new());
    let mut phase = ("queued", rec.ack);
    for (at, state) in &rec.states {
        let next = match state {
            JobState::Running => "running",
            JobState::Suspended => "suspended",
            _ => continue,
        };
        tracer.record(phase.0, Some(job), phase.1, *at, Vec::new());
        phase = (next, *at);
    }
    let last_wave = rec.waves.last().copied().unwrap_or(phase.1).max(phase.1);
    tracer.record(phase.0, Some(job), phase.1, last_wave, Vec::new());
    tracer.record("done", Some(job), last_wave, rec.done, Vec::new());
}

/// `server.sched_ops_per_s`: the batch's admissions replayed through a
/// bare `Scheduler` under virtual time — no threads, sockets or engines.
fn scheduler_replay(w: &ServerWorkload) -> f64 {
    let jobs: Vec<(&JobSpec, u64)> = w
        .per_client
        .iter()
        .flatten()
        .map(|spec| {
            let cfg = spec.config.clone().with_spill(w.resident_blocks);
            (spec, qcs_server::carve_bytes(&cfg, spec.num_qubits))
        })
        .collect();
    let rounds = 200;
    let mut ops = 0u64;
    let start = Instant::now();
    for _ in 0..rounds {
        let clock = VirtualClock::new();
        let mut sched = Scheduler::new(SchedPolicy {
            budget_bytes: w.budget_bytes,
            max_running: workloads::SERVER_MAX_RUNNING,
        });
        let mut running: VecDeque<JobId> = VecDeque::new();
        let mut pending: VecDeque<SchedAction> = VecDeque::new();
        // Jobs submitted and not yet ended, running or queued.
        let mut open = 0;
        let carry_out = |sched: &mut Scheduler,
                         running: &mut VecDeque<JobId>,
                         pending: &mut VecDeque<SchedAction>,
                         ops: &mut u64| {
            while let Some(action) = pending.pop_front() {
                *ops += 1;
                match action {
                    SchedAction::Start(id) => {
                        sched.started(id);
                        running.push_back(id);
                    }
                    SchedAction::RequestSuspend(id) => {
                        running.retain(|r| *r != id);
                        pending.extend(sched.suspended(id, clock.now_ms()));
                    }
                    SchedAction::RequestCancel(_) => {}
                }
            }
        };
        for (spec, carve) in &jobs {
            clock.advance(1);
            if let Ok((_, actions)) =
                sched.submit(&spec.name, spec.priority, *carve, clock.now_ms())
            {
                ops += 1;
                open += 1;
                pending.extend(actions);
            }
            carry_out(&mut sched, &mut running, &mut pending, &mut ops);
            // Closed loop: with a job of every client open, the next
            // submission follows a completion.
            if open >= w.per_client.len() {
                let id = running.pop_front().expect("an open job runs");
                open -= 1;
                pending.extend(sched.running_ended(id, JobState::Done, clock.now_ms()));
                ops += 1;
                carry_out(&mut sched, &mut running, &mut pending, &mut ops);
            }
        }
        while let Some(id) = running.pop_front() {
            clock.advance(1);
            pending.extend(sched.running_ended(id, JobState::Done, clock.now_ms()));
            ops += 1;
            carry_out(&mut sched, &mut running, &mut pending, &mut ops);
        }
        black_box(sched.admissions().len());
    }
    ops as f64 / start.elapsed().as_secs_f64()
}

/// `server.*_encode_s` / `*_decode_s`: the protocol codecs over one
/// batch's submissions and completions.
fn protocol_replay(m: &mut Metrics, w: &ServerWorkload, batch: &[Vec<JobRecord>]) {
    let cmds: Vec<JobCmd> = w
        .per_client
        .iter()
        .flatten()
        .map(|spec| JobCmd::Submit(Box::new(spec.clone())))
        .collect();
    let outs: Vec<JobOut> = batch
        .iter()
        .flatten()
        .filter_map(|rec| match &rec.end {
            JobEnd::Done { report, amplitudes } => Some(JobOut::Done {
                job: JobId(1),
                report: report.clone(),
                amplitudes: amplitudes.clone(),
            }),
            _ => None,
        })
        .collect();
    let mut bodies: Vec<Vec<u8>> = Vec::new();
    m.set(
        "server.spec_encode_s",
        layers::time_passes(|| {
            bodies = cmds
                .iter()
                .map(|c| encode_job_cmd(c).expect("spec encodes"))
                .collect();
        }),
    );
    m.set(
        "server.spec_decode_s",
        layers::time_passes(|| {
            for b in &bodies {
                black_box(decode_job_cmd(b).expect("spec decodes"));
            }
        }),
    );
    m.set(
        "server.out_encode_s",
        layers::time_passes(|| {
            bodies = outs.iter().map(encode_job_out).collect();
        }),
    );
    m.set(
        "server.out_decode_s",
        layers::time_passes(|| {
            for b in &bodies {
                black_box(decode_job_out(b).expect("event decodes"));
            }
        }),
    );
}

/// Traced pass: per-job spans from the clients' event streams, engine and
/// layer counters summed over the jobs' final reports, and the replays of
/// scheduler, protocol, checkpoint and (on the first medium job's
/// in-process twin) the codec, kernel and circuit layers.
pub fn per_layer(ctx: &Ctx) -> Result<(Outcome, Tracer), String> {
    let mut tracer = Tracer::new(true, ctx.seed);
    let mut checks = Checks::default();
    let mut m = Metrics::default();
    let root = tracer.begin("workload", None);
    let mut setup = set_up(ctx, &mut tracer, Some(root))?;
    let clients = setup.clients.len() as f64;

    // Traced batches stamp every streamed event and become spans;
    // untraced ones are what the end-to-end pass runs.
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut accounted = Vec::new();
    let mut batches = Vec::new();
    for _ in 0..TRACED_PAIRS {
        untraced.push(run_batch(&mut setup.clients, &setup.w, false)?.0);
        let (wall, start, records) = run_batch(&mut setup.clients, &setup.w, true)?;
        let rep = tracer.record(
            "repetition",
            Some(root),
            start,
            start + std::time::Duration::from_secs_f64(wall),
            Vec::new(),
        );
        for rec in records.iter().flatten() {
            record_job_spans(&mut tracer, rep, rec);
        }
        // Each client's lane runs from the batch's start to its own last
        // `Done`: the one that finishes first then idles, which is no
        // work the job spans fail to account for.
        let lanes: f64 = records
            .iter()
            .filter_map(|jobs| jobs.last())
            .map(|last| (last.done - start).as_secs_f64())
            .sum();
        accounted.push(tracer.children_seconds(rep).iter().sum::<f64>() / lanes);
        traced.push(wall);
        batches.push(records);
    }
    checks.passed(all_records(&batches).count() as u64);
    check_batches(ctx, &setup.w, &batches[..1], &mut checks)?;

    let records: Vec<&JobRecord> = all_records(&batches).collect();
    let per_batch = batches.len() as f64;
    let per_job =
        |f: &dyn Fn(&JobRecord) -> f64| -> Vec<f64> { records.iter().map(|r| f(r)).collect() };
    job_latency(&mut m, &batches);
    m.set(
        "server.submit_ack_s",
        stats::median(&per_job(&|r| (r.ack - r.submit).as_secs_f64())),
    );
    m.set(
        "server.queue_wait_s",
        stats::median(&per_job(&|r| r.run_and_wait_s().1)),
    );
    m.set(
        "server.job_run_s",
        stats::median(&per_job(&|r| r.run_and_wait_s().0)),
    );
    let suspends: usize = records
        .iter()
        .map(|r| {
            r.states
                .iter()
                .filter(|(_, s)| *s == JobState::Suspended)
                .count()
        })
        .sum();
    // Every job here runs to Done, so each suspend is followed by a resume.
    m.set("server.suspends", suspends as f64 / per_batch);
    m.set("server.resumes", suspends as f64 / per_batch);
    m.set("server.jobs_attempted", records.len() as f64);
    m.set(
        "server.jobs_failed",
        records.iter().filter(|r| r.report().is_none()).count() as f64,
    );
    m.set("server.sched_ops_per_s", scheduler_replay(&setup.w));
    protocol_replay(&mut m, &setup.w, &batches[0]);

    // Engine lanes and layer counters: summed over the final reports of
    // one batch's jobs, per client so they compare to the batch wall. A
    // resumed job's report covers only the part after its checkpoint.
    let acc = qcs_cluster::Metrics::new();
    let (mut hits, mut misses, mut gates, mut escalations) = (0u64, 0u64, 0usize, 0u64);
    for r in batches[0].iter().flatten().filter_map(JobRecord::report) {
        acc.absorb(&r.breakdown);
        hits += r.cache_hits;
        misses += r.cache_misses;
        gates += r.gates;
        escalations += r.escalations;
    }
    let sum = acc.breakdown();
    engine_lanes(&mut m, &sum, clients, traced[0]);
    layer_counters(&mut m, &sum);
    report_counters(&mut m, hits, misses, escalations, gates);
    let item_s: Vec<f64> = batches[0]
        .iter()
        .flatten()
        .flat_map(|r| r.waves.windows(2).map(|p| (p[1] - p[0]).as_secs_f64()))
        .collect();
    item_stats(&mut m, &item_s);
    m.set("trace.overhead_ratio", overhead_ratio(&traced, &untraced));
    m.set("trace.accounted_ratio", stats::median(&accounted));

    let replay = tracer.begin("replay", Some(root));
    let twin = workloads::corpus_twin(ctx.name, ctx.seed, ctx.sizes, ctx.tmp);
    let schedule = schedule_circuit(&twin.circuit, &twin.cfg.fusion_policy());
    let plan =
        qcs_circuits::AccessPlan::for_schedule(&schedule, twin.cfg.ranks_log2, twin.cfg.block_log2);
    let mut off = Tracer::new(false, 0);
    let (engine, construct_s) = build_engine(&twin, ctx.tmp, &mut off, None)?;
    drop(engine);
    m.set("engine.construct_s", construct_s);
    layers::circuits(&mut m, &twin, &schedule, &plan);
    let corpus = layers::capture_corpus(&twin, &schedule, ctx.seed, ctx.tmp)?;
    layers::codec_stages(&mut m, &corpus, twin.cfg.lossy_codec, &mut checks);
    layers::kernels(&mut m, &schedule, twin.cfg.block_log2, &corpus);
    layers::checkpoint_layer(&mut m, &twin, &schedule, ctx.seed, ctx.tmp)?;
    tracer.end(replay);
    tracer.end(root);
    setup.tear_down();

    Ok((
        Outcome {
            workload: ctx.name.to_string(),
            traced: true,
            seed: ctx.seed,
            metrics: m,
            checks,
        },
        tracer,
    ))
}
