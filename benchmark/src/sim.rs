//! The five workloads that drive one `CompressedSimulator`: set-up,
//! repetitions, and the correctness gate.

use crate::layers;
use crate::outcome::{Checks, Metrics, Outcome};
use crate::stats;
use crate::trace::{SpanId, Tracer};
use crate::workloads::{self, Mode, Queries, SimWorkload, Sizes, Workload};
use qcs_circuits::{schedule_circuit, AccessPlan, Schedule};
use qcs_cluster::TimeBreakdown;
use qcs_compress::ErrorBound;
use qcs_core::{
    spawn_loopback, BlockCodec, CompressedSimulator, ServeOptions, SimReport, WaveControl,
};
use qcs_statevec::StateVector;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::Instant;

/// Everything a pass needs to know about the run it is part of.
#[derive(Debug, Clone, Copy)]
pub struct Ctx<'a> {
    pub name: &'a str,
    pub seed: u64,
    pub sizes: &'a Sizes,
    /// Scratch directory for spill segments, checkpoints and server state.
    pub tmp: &'a Path,
    /// How long the cycles of set-up and timed repetition may run.
    pub seconds: f64,
    /// Cycles (one set-up, one timed repetition) never drop below this.
    pub min_reps: usize,
}

/// A simulator plus the loopback rank daemons hosting its ranks, torn
/// down in the order that lets the daemons exit: simulator first.
pub struct Engine {
    sim: Option<CompressedSimulator>,
    daemons: Vec<JoinHandle<()>>,
}

impl Engine {
    pub fn sim(&self) -> &CompressedSimulator {
        self.sim.as_ref().expect("engine holds a simulator")
    }

    pub fn sim_mut(&mut self) -> &mut CompressedSimulator {
        self.sim.as_mut().expect("engine holds a simulator")
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.sim.take();
        for d in self.daemons.drain(..) {
            let _ = d.join();
        }
    }
}

/// Stand the workload's simulator up: spawn its rank daemons (if any),
/// then `CompressedSimulator::new`. Returns the engine and the seconds
/// the constructor took.
pub fn build_engine(
    w: &SimWorkload,
    tmp: &Path,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) -> Result<(Engine, f64), String> {
    let mut cfg = w.cfg.clone();
    let mut daemons = Vec::new();
    if w.daemons > 0 {
        let start = Instant::now();
        let mut addrs = Vec::new();
        for _ in 0..w.daemons {
            let opts = ServeOptions {
                spill_dir: Some(tmp.to_path_buf()),
                ..ServeOptions::default()
            };
            // Each daemon hosts exactly one rank of this one simulator.
            let (addr, handle) = spawn_loopback(1, opts).map_err(|e| e.to_string())?;
            addrs.push(addr);
            daemons.push(handle);
        }
        tracer.record("daemon_start", parent, start, Instant::now(), Vec::new());
        cfg = cfg.with_remote(addrs);
    }
    let num_qubits = w.circuit.num_qubits() as u32;
    let start = Instant::now();
    let built = CompressedSimulator::new(num_qubits, cfg.clone());
    let end = Instant::now();
    tracer.record("engine_construct", parent, start, end, Vec::new());
    match built {
        Ok(sim) => Ok((
            Engine {
                sim: Some(sim),
                daemons,
            },
            (end - start).as_secs_f64(),
        )),
        Err(e) => {
            // Unblock daemons still waiting for their one connection.
            for addr in cfg.remote.iter().flat_map(|r| &r.endpoints) {
                let _ = std::net::TcpStream::connect(addr);
            }
            for d in daemons {
                let _ = d.join();
            }
            Err(format!("simulator construction failed: {e}"))
        }
    }
}

/// Run the whole schedule on a fresh-state engine; returns wall seconds.
/// With tracing on, every `WaveStatus` becomes an `item` span carrying the
/// lanes the engine reports for it.
pub fn run_circuit(
    engine: &mut Engine,
    schedule: &Schedule,
    seed: u64,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) -> Result<f64, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sim = engine.sim_mut();
    let start = Instant::now();
    if tracer.enabled() {
        let mut item_start = start;
        sim.run_schedule_observed(schedule, &mut rng, 0, &mut |status| {
            let now = Instant::now();
            let d = &status.delta;
            let counts = vec![
                ("item", status.item as f64),
                ("compress_ns", d.compression.as_nanos() as f64),
                ("decompress_ns", d.decompression.as_nanos() as f64),
                ("compute_ns", d.computation.as_nanos() as f64),
                ("comm_ns", d.communication.as_nanos() as f64),
                ("spill_io_ns", d.spill_io.as_nanos() as f64),
                ("comm_bytes", d.comm_bytes as f64),
                ("spill_bytes", d.spill_bytes as f64),
                ("fetch_bytes", d.fetch_bytes as f64),
                ("block_touches", d.block_touches as f64),
            ];
            tracer.record("item", parent, item_start, now, counts);
            item_start = now;
            WaveControl::Continue
        })
        .map_err(|e| e.to_string())?;
    } else {
        sim.run_schedule(schedule, &mut rng)
            .map_err(|e| e.to_string())?;
    }
    Ok(start.elapsed().as_secs_f64())
}

/// Everything the query battery returned, for the correctness gate.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOut {
    pub probs: Vec<f64>,
    pub zz: Vec<f64>,
    pub norm: f64,
    pub samples: Vec<u64>,
    pub snapshot: Vec<f64>,
}

impl QueryOut {
    /// Calls the battery made.
    pub fn calls(&self) -> u64 {
        (self.probs.len() + self.zz.len() + self.samples.len() + 2) as u64
    }
}

/// The fixed query battery of `sup_sample`; returns wall seconds and the
/// answers. Each call is a `query` child span.
pub fn run_queries(
    sim: &CompressedSimulator,
    q: &Queries,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) -> Result<(f64, QueryOut), String> {
    let n = sim.num_qubits() as usize;
    let err = |e: qcs_core::SimError| e.to_string();
    let start = Instant::now();
    let mut probs = Vec::with_capacity(n);
    for qubit in 0..n {
        probs.push(
            tracer
                .scope("query.prob_one", parent, || sim.prob_one(qubit))
                .map_err(err)?,
        );
    }
    let mut zz = Vec::with_capacity(q.zz_pairs.len());
    for &(a, b) in &q.zz_pairs {
        zz.push(
            tracer
                .scope("query.expectation_zz", parent, || sim.expectation_zz(a, b))
                .map_err(err)?,
        );
    }
    let norm = tracer
        .scope("query.norm_sqr", parent, || sim.norm_sqr())
        .map_err(err)?;
    let mut rng = StdRng::seed_from_u64(q.sample_seed);
    let mut samples = Vec::with_capacity(q.sample_draws);
    for _ in 0..q.sample_draws {
        samples.push(
            tracer
                .scope("query.sample", parent, || sim.sample(&mut rng))
                .map_err(err)?,
        );
    }
    let snapshot = tracer
        .scope("query.snapshot_f64", parent, || sim.snapshot_f64())
        .map_err(err)?;
    Ok((
        start.elapsed().as_secs_f64(),
        QueryOut {
            probs,
            zz,
            norm,
            samples,
            snapshot,
        },
    ))
}

/// What set-up leaves behind for the repetitions.
pub struct Setup {
    pub w: SimWorkload,
    pub schedule: Schedule,
    pub plan: AccessPlan,
    /// The warmed-up engine: in query mode it holds the prepared state the
    /// timed batteries read; in run mode it has done its job.
    pub engine: Engine,
    pub construct_s: f64,
    pub setup_s: f64,
}

/// Everything from the seed to a warmed-up engine, timed as `setup_s`:
/// circuit generation, scheduling and access planning, daemon spawn and
/// handshake, `CompressedSimulator::new`, and one full warm-up repetition.
pub fn set_up(ctx: &Ctx, tracer: &mut Tracer, root: Option<SpanId>) -> Result<Setup, String> {
    let t0 = Instant::now();
    let span = tracer.begin("setup", root);
    let parent = tracer.enabled().then_some(span);
    let w = match tracer.scope("circuit_build", parent, || {
        workloads::build(ctx.name, ctx.seed, ctx.sizes, ctx.tmp)
    }) {
        Workload::Sim(w) => *w,
        Workload::Server(_) => return Err(format!("{} is not a simulator workload", ctx.name)),
    };
    let (schedule, plan) = tracer.scope("schedule_compile", parent, || {
        let schedule = schedule_circuit(&w.circuit, &w.cfg.fusion_policy());
        let plan = AccessPlan::for_schedule(&schedule, w.cfg.ranks_log2, w.cfg.block_log2);
        (schedule, plan)
    });
    let (mut engine, construct_s) = build_engine(&w, ctx.tmp, tracer, parent)?;
    let warm = tracer.begin("warmup", parent);
    let warm_parent = tracer.enabled().then_some(warm);
    run_circuit(&mut engine, &schedule, ctx.seed, tracer, warm_parent)?;
    if w.mode == Mode::Query {
        run_queries(engine.sim(), &w.queries, tracer, warm_parent)?;
    }
    tracer.end(warm);
    tracer.end(span);
    Ok(Setup {
        w,
        schedule,
        plan,
        engine,
        construct_s,
        setup_s: t0.elapsed().as_secs_f64(),
    })
}

/// True until `ctx.min_reps` cycles ran and another one of about the last
/// one's length no longer fits into `ctx.seconds`. A cycle is one set-up
/// followed by one timed repetition; `cycle_s` holds their walls.
pub fn keep_going(cycle_s: &[f64], ctx: &Ctx, started: Instant) -> bool {
    let last = cycle_s.last().copied().unwrap_or(0.0);
    cycle_s.len() < ctx.min_reps || started.elapsed().as_secs_f64() + last <= ctx.seconds
}

fn dense_reference(schedule: &Schedule, seed: u64) -> StateVector {
    schedule.simulate_dense(&mut StdRng::seed_from_u64(seed))
}

fn max_abs_diff(a: &StateVector, b: &StateVector) -> f64 {
    a.as_f64_slice()
        .iter()
        .zip(b.as_f64_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Round-trip a sample of the final state's blocks through the workload's
/// block codec at the bound in force; true when every value stays inside it.
fn blocks_survive_round_trip(w: &SimWorkload, state: &[f64], bound: ErrorBound) -> bool {
    let block_f64s = 2usize << w.cfg.block_log2;
    let codec = BlockCodec::new(w.cfg.lossy_codec);
    let blocks: Vec<&[f64]> = state.chunks(block_f64s).collect();
    let step = (blocks.len() / 8).max(1);
    let mut out = Vec::new();
    blocks.iter().step_by(step).all(|block| {
        codec
            .compress_pooled(block, bound)
            .and_then(|compressed| codec.decompress(&compressed, &mut out))
            .is_ok()
            && layers::within_bound(block, &out, bound)
    })
}

/// The checks every simulator workload's final state goes through.
/// Returns the measured fidelity against the dense reference.
fn check_final_state(
    w: &SimWorkload,
    dense: &StateVector,
    state: &StateVector,
    report: &SimReport,
    checks: &mut Checks,
) -> f64 {
    let fidelity = state.fidelity(dense);
    let lossless = report.current_bound == ErrorBound::Lossless && report.escalations == 0;
    if lossless {
        let diff = max_abs_diff(state, dense);
        checks.expect(diff <= 1e-10, || {
            format!("lossless run is {diff:e} away from dense (limit 1e-10)")
        });
    }
    checks.expect(fidelity >= report.fidelity_lower_bound - 1e-12, || {
        format!(
            "fidelity {fidelity} below the Eq. 11 lower bound {}",
            report.fidelity_lower_bound
        )
    });
    let bound = report.current_bound;
    checks.expect(
        blocks_survive_round_trip(w, state.as_f64_slice(), bound),
        || format!("final-state blocks leave {bound:?} after a round trip"),
    );
    fidelity
}

/// Query answers against the dense reference state.
fn check_queries(w: &SimWorkload, out: &QueryOut, dense: &StateVector, checks: &mut Checks) {
    // A relative per-value bound of eps moves a probability by at most a
    // few eps per lossy wave; 2e-2 is loose for 1e-3 over depth 11 and
    // still catches a wrong qubit or a dropped segment.
    let tol = 2e-2;
    for (q, p) in out.probs.iter().enumerate() {
        let want = dense.prob_one(q);
        checks.expect((p - want).abs() <= tol, || {
            format!("prob_one({q}) = {p}, dense says {want}")
        });
    }
    let probs = dense.probabilities();
    for (&(a, b), got) in w.queries.zz_pairs.iter().zip(&out.zz) {
        let want: f64 = probs
            .iter()
            .enumerate()
            .map(|(i, p)| {
                if ((i >> a) ^ (i >> b)) & 1 == 0 {
                    *p
                } else {
                    -*p
                }
            })
            .sum();
        checks.expect((got - want).abs() <= 2.0 * tol, || {
            format!("expectation_zz({a},{b}) = {got}, dense says {want}")
        });
    }
    checks.expect((out.norm - 1.0).abs() <= 0.1, || {
        format!("norm_sqr = {}", out.norm)
    });
    for s in &out.samples {
        checks.expect(
            (*s as usize) < probs.len() && probs[*s as usize] > 0.0,
            || format!("sampled basis state {s} has no dense weight"),
        );
    }
}

/// Deterministic report fields must repeat exactly between repetitions of
/// the same input (peak memory excepted under spill, where background
/// staging occupancy is timing-dependent by design).
fn check_reports_repeat(w: &SimWorkload, reports: &[SimReport], checks: &mut Checks) {
    let first = &reports[0];
    for (i, r) in reports.iter().enumerate().skip(1) {
        let same = r.gates == first.gates
            && r.fidelity_lower_bound == first.fidelity_lower_bound
            && r.min_compression_ratio == first.min_compression_ratio
            && r.escalations == first.escalations
            && (w.cfg.spill.is_some() || r.peak_memory_bytes == first.peak_memory_bytes);
        checks.expect(same, || {
            format!("repetition {i} reported different deterministic values than repetition 0")
        });
    }
}

/// `sup_remote2`'s own check: the ranks hosted behind sockets must end on
/// exactly the amplitudes of an in-process run of the same circuit and
/// configuration (`twin_state`), bit for bit.
pub fn check_remote_twin(remote_state: &[f64], twin_state: &[f64], checks: &mut Checks) {
    let same = layers::within_bound(remote_state, twin_state, ErrorBound::Lossless);
    checks.expect(same, || {
        "remote amplitudes differ from the in-process twin's".into()
    });
}

/// Final amplitudes of one run of `ctx`'s workload on its in-process twin.
fn twin_final_state(ctx: &Ctx, schedule: &Schedule) -> Result<Vec<f64>, String> {
    let mut off = Tracer::new(false, 0);
    let twin = workloads::corpus_twin(ctx.name, ctx.seed, ctx.sizes, ctx.tmp);
    let (mut engine, _) = build_engine(&twin, ctx.tmp, &mut off, None)?;
    run_circuit(&mut engine, schedule, ctx.seed, &mut off, None)?;
    engine.sim().snapshot_f64().map_err(|e| e.to_string())
}

/// The end-to-end pass: tracing off, cycles of one set-up and one timed
/// repetition for `ctx.seconds`, then the correctness gate. Set-ups and
/// repetitions alternate so that a slow spell of the machine hits a few
/// samples of both metrics, never all the samples of one.
pub fn end_to_end(ctx: &Ctx) -> Result<Outcome, String> {
    let mut off = Tracer::new(false, 0);
    let mut checks = Checks::default();
    let mut setup_s = Vec::new();
    let mut run_s = Vec::new();
    let mut cycle_s = Vec::new();
    let mut reports: Vec<SimReport> = Vec::new();
    let mut answers: Option<QueryOut> = None;
    // What the last cycle leaves for the gate: its inputs and the engine
    // that ran its timed repetition.
    let mut last: Option<(SimWorkload, Schedule, Engine)> = None;
    let started = Instant::now();
    while keep_going(&cycle_s, ctx, started) {
        drop(last.take());
        let cycle = Instant::now();
        let Setup {
            w,
            schedule,
            engine: warm,
            setup_s: s,
            ..
        } = set_up(ctx, &mut off, None)?;
        setup_s.push(s);
        let engine = match w.mode {
            Mode::Run => {
                drop(warm);
                let (mut engine, _) = build_engine(&w, ctx.tmp, &mut off, None)?;
                run_s.push(run_circuit(
                    &mut engine,
                    &schedule,
                    ctx.seed,
                    &mut off,
                    None,
                )?);
                checks.passed(1);
                engine
            }
            Mode::Query => {
                let (wall, out) = run_queries(warm.sim(), &w.queries, &mut off, None)?;
                run_s.push(wall);
                checks.passed(out.calls());
                // Read-only queries on the same prepared state: answers repeat.
                match &answers {
                    Some(first) => checks.expect(*first == out, || {
                        "a query battery answered differently from the first".into()
                    }),
                    None => answers = Some(out),
                }
                warm
            }
        };
        reports.push(engine.sim().report());
        cycle_s.push(cycle.elapsed().as_secs_f64());
        last = Some((w, schedule, engine));
    }

    let (w, schedule, engine) = last.expect("at least one cycle ran");
    let report = reports.last().expect("one report per cycle").clone();
    check_reports_repeat(&w, &reports, &mut checks);
    let state = engine.sim().snapshot_dense().map_err(|e| e.to_string())?;
    drop(engine);
    let dense = dense_reference(&schedule, ctx.seed);
    let fidelity = check_final_state(&w, &dense, &state, &report, &mut checks);
    if let Some(answers) = &answers {
        check_queries(&w, answers, &dense, &mut checks);
    }
    if w.daemons > 0 {
        let twin = twin_final_state(ctx, &schedule)?;
        check_remote_twin(state.as_f64_slice(), &twin, &mut checks);
    }

    let mut metrics = Metrics::default();
    metrics.set_timed("setup_s", setup_s);
    metrics.set_timed("run_s", run_s);
    // Under spill the peak counts staging and write-behind buffers, whose
    // occupancy follows thread timing: the median over repetitions.
    let peaks: Vec<f64> = reports.iter().map(|r| r.peak_memory_bytes as f64).collect();
    metrics.set("peak_mem_bytes", stats::median(&peaks));
    metrics.set("min_ratio", report.min_compression_ratio);
    metrics.set("fidelity", fidelity);
    metrics.set("fidelity_lower_bound", report.fidelity_lower_bound);
    Ok(Outcome {
        workload: ctx.name.to_string(),
        traced: false,
        seed: ctx.seed,
        metrics,
        checks,
    })
}

/// Engine lanes of one repetition, from the metrics the engine itself
/// reports, divided by `width` (rank or client count) so they compare to
/// wall time.
pub fn engine_lanes(m: &mut Metrics, d: &TimeBreakdown, width: f64, wall: f64) {
    let lanes = [
        ("engine.compress_s", d.compression),
        ("engine.decompress_s", d.decompression),
        ("engine.compute_s", d.computation),
        ("engine.comm_s", d.communication),
        ("engine.spill_io_s", d.spill_io),
    ];
    let mut sum = 0.0;
    for (name, lane) in lanes {
        let s = lane.as_secs_f64() / width;
        m.set(name, s);
        sum += s;
    }
    m.set("engine.other_s", (wall - sum).max(0.0));
    m.set("cluster.comm_s", d.communication.as_secs_f64() / width);
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Counters of one repetition that belong to single layers.
pub fn layer_counters(m: &mut Metrics, d: &TimeBreakdown) {
    m.set("block.codec_allocs", d.codec_allocs as f64);
    m.set("block.scratch_reuse_hits", d.scratch_reuse_hits as f64);
    m.set("store.spills", d.spills as f64);
    m.set("store.fetches", d.fetches as f64);
    m.set("store.blocking_fetches", d.prefetch_misses as f64);
    m.set("store.prefetch_hit_ratio", d.prefetch_hit_rate());
    m.set("store.spill_bytes", d.spill_bytes as f64);
    m.set("store.fetch_bytes", d.fetch_bytes as f64);
    m.set("store.write_behind_s", d.write_behind.as_secs_f64());
    m.set("store.prefetch_s", d.prefetch.as_secs_f64());
    m.set("partial.decodes", d.partial_decodes as f64);
    m.set("partial.segments_decoded", d.segments_decoded as f64);
    m.set("partial.segments_full", d.segments_full as f64);
    m.set(
        "partial.segment_ratio",
        ratio(d.segments_decoded, d.segments_full),
    );
    m.set("partial.bytes_read", d.segment_bytes_read as f64);
    m.set("partial.bytes_full", d.segment_bytes_full as f64);
    m.set("cluster.exchanges", d.exchanges as f64);
    m.set("cluster.bytes_exchanged", d.comm_bytes as f64);
}

/// Counters that live on the report rather than in the breakdown.
pub fn report_counters(m: &mut Metrics, hits: u64, misses: u64, escalations: u64, gates: usize) {
    m.set("cache.hits", hits as f64);
    m.set("cache.misses", misses as f64);
    m.set("cache.hit_ratio", ratio(hits, hits + misses));
    m.set("engine.escalations", escalations as f64);
    m.set("engine.gates", gates as f64);
}

/// Untraced/traced repetition pairs the per-layer pass runs, interleaved.
pub const TRACED_PAIRS: usize = 3;

/// Traced over untraced repetition time. With three samples a side the
/// fastest of each is compared: interference only ever adds time, so the
/// minima are the least disturbed pair.
pub fn overhead_ratio(traced: &[f64], untraced: &[f64]) -> f64 {
    let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    fastest(traced) / fastest(untraced)
}

/// Item (or query-call) count and latency percentiles of one repetition.
pub fn item_stats(m: &mut Metrics, item_s: &[f64]) {
    m.set("engine.items", item_s.len() as f64);
    m.set("engine.item_p50_s", stats::percentile(item_s, 50.0));
    m.set("engine.item_p95_s", stats::percentile(item_s, 95.0));
}

/// The traced pass: one set-up, [`TRACED_PAIRS`] untraced and as many
/// traced repetitions (interleaved, for the tracing overhead), then the
/// stage replays over a block corpus captured from the workload's own run.
pub fn per_layer(ctx: &Ctx) -> Result<(Outcome, Tracer), String> {
    let mut tracer = Tracer::new(true, ctx.seed);
    let mut off = Tracer::new(false, 0);
    let mut checks = Checks::default();
    let mut m = Metrics::default();
    let root = tracer.begin("workload", None);
    let setup = set_up(ctx, &mut tracer, Some(root))?;
    let Setup {
        w,
        schedule,
        plan,
        engine: warm,
        construct_s,
        ..
    } = setup;
    let ranks = (1u64 << w.cfg.ranks_log2) as f64;

    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut accounted = Vec::new();
    let mut item_s: Vec<f64> = Vec::new();
    let mut last: Option<(SimReport, TimeBreakdown, f64)> = None;
    // What the ranks hosted elsewhere ended on, for the twin check below.
    let mut remote_state: Option<Vec<f64>> = None;
    let mut warm = Some(warm);
    for _ in 0..TRACED_PAIRS {
        let (rep, wall, report, delta) = match w.mode {
            Mode::Run => {
                drop(warm.take());
                let (mut engine, _) = build_engine(&w, ctx.tmp, &mut off, None)?;
                untraced.push(run_circuit(
                    &mut engine,
                    &schedule,
                    ctx.seed,
                    &mut off,
                    None,
                )?);
                drop(engine);
                let (mut engine, _) = build_engine(&w, ctx.tmp, &mut off, None)?;
                let rep = tracer.begin("repetition", Some(root));
                let wall = run_circuit(&mut engine, &schedule, ctx.seed, &mut tracer, Some(rep))?;
                tracer.end(rep);
                checks.passed(2);
                if w.daemons > 0 {
                    remote_state = Some(engine.sim().snapshot_f64().map_err(|e| e.to_string())?);
                }
                let report = engine.sim().report();
                (rep, wall, report.clone(), report.breakdown)
            }
            Mode::Query => {
                let sim = warm.as_ref().expect("query mode keeps its engine").sim();
                untraced.push(run_queries(sim, &w.queries, &mut off, None)?.0);
                let before = sim.metrics().breakdown();
                let rep = tracer.begin("repetition", Some(root));
                let (wall, out) = run_queries(sim, &w.queries, &mut tracer, Some(rep))?;
                tracer.end(rep);
                checks.passed(out.calls());
                let report = sim.report();
                let delta = report.breakdown.delta(&before);
                (rep, wall, report, delta)
            }
        };
        item_s = tracer.children_seconds(rep);
        accounted.push(item_s.iter().sum::<f64>() / wall);
        traced.push(wall);
        last = Some((report, delta, wall));
    }
    drop(warm);
    let (report, delta, wall) = last.expect("traced repetitions ran");

    m.set("engine.construct_s", construct_s);
    engine_lanes(&mut m, &delta, ranks, wall);
    item_stats(&mut m, &item_s);
    layer_counters(&mut m, &delta);
    report_counters(
        &mut m,
        report.cache_hits,
        report.cache_misses,
        report.escalations,
        report.gates,
    );
    m.set("trace.overhead_ratio", overhead_ratio(&traced, &untraced));
    m.set("trace.accounted_ratio", stats::median(&accounted));
    if w.daemons > 0 {
        // Every exchange crosses the coordinator: follower -> coordinator
        // -> leader, so two hops each.
        m.set("net.relay_hops", 2.0 * delta.exchanges as f64);
    }

    let replay = tracer.begin("replay", Some(root));
    layers::circuits(&mut m, &w, &schedule, &plan);
    let twin = workloads::corpus_twin(ctx.name, ctx.seed, ctx.sizes, ctx.tmp);
    let corpus = layers::capture_corpus(&twin, &schedule, ctx.seed, ctx.tmp)?;
    if let Some(remote) = remote_state {
        // The corpus run is the in-process twin on the same circuit.
        check_remote_twin(&remote, &corpus.final_state, &mut checks);
    }
    layers::codec_stages(&mut m, &corpus, w.cfg.lossy_codec, &mut checks);
    layers::kernels(&mut m, &schedule, w.cfg.block_log2, &corpus);
    layers::store(&mut m, &w, &plan, &corpus, ctx.tmp)?;
    layers::cluster(&mut m, w.cfg.ranks_log2 > 0);
    layers::net(&mut m, w.daemons > 0, &corpus)?;
    tracer.end(replay);
    tracer.end(root);

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
