//! The six workloads: what each one runs, at which size, and why.
//!
//! Everything the product code sees is generated here from the run's
//! seed: circuits, job batches and query lists. The structure of each
//! input (gate count, routing, job mix) is fixed by the workload; the seed
//! varies its content (input state, gate choices, angles, orders), so two
//! seeds do the same amount of work on different data.

use qcs_circuits::supremacy::{random_circuit, Grid};
use qcs_circuits::{qaoa_circuit, qft_circuit, random_regular_graph, Circuit, QaoaParams};
use qcs_compress::ErrorBound;
use qcs_core::{Eviction, SimConfig};
use qcs_server::JobSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;

/// Workload names in the order `all` and `check-repeat` run them.
pub const NAMES: [&str; 6] = [
    "qft_lossless",
    "sup_lossy",
    "sup_sample",
    "qaoa_budget_spill",
    "sup_remote2",
    "server_mix",
];

/// One line per workload on why it exists (also `BENCHMARK.json`'s `why`).
pub fn why(name: &str) -> &'static str {
    match name {
        "qft_lossless" => "lossless qzstd on full-entropy doubles at ranks_log2=0: LZ77+Huffman do nearly all the work; the 1e-10-vs-dense anchor and the in-place engine path",
        "sup_lossy" => "depth-11 supremacy circuit, Solution C at 1e-3 on two in-process rank threads: truncate/pack plus backend dominate and exchanges cross no socket",
        "sup_sample" => "the same codec used decompress-only: a fixed query battery on a prepared state, so a compress gain bought with slower decode or a lost segment index shows",
        "qaoa_budget_spill" => "QAOA p=2 under a memory budget that escalates the ladder and a small spill residency cap: store I/O and escalation on the critical path; peak_mem_bytes counts staging buffers, so it repeats within 1%",
        "sup_remote2" => "sup_lossy's circuit and config on two TCP loopback rank daemons: the difference to sup_lossy is the cost of framing, serialization and the relay hop",
        "server_mix" => "two closed-loop clients submit 32 small and medium jobs to a job server that runs one at a time: admission, priority preemption, protocol and checkpoints; --trace 0 also prints server.job_p50_s/p95_s",
        _ => panic!("unknown workload {name}"),
    }
}

/// Problem sizes. `FULL` is sized so one repetition takes about 2 s
/// (1.6-2.2 s) on the 2-core reference box, the longest that lets five
/// cycles of set-up and repetition, times the driver's 136 runs, fit its
/// 57 minutes; `SMOKE` runs the whole set in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub qft_qubits: usize,
    pub qft_block_log2: u32,
    /// Supremacy grid of `sup_lossy` and `sup_remote2`.
    pub sup_grid: (usize, usize),
    pub sup_block_log2: u32,
    /// Supremacy grid of `sup_sample` (prepared single-threaded in set-up).
    pub sample_grid: (usize, usize),
    pub sample_block_log2: u32,
    pub sample_draws: usize,
    pub sample_zz_pairs: usize,
    pub qaoa_qubits: usize,
    pub qaoa_block_log2: u32,
    pub qaoa_resident_blocks: usize,
    /// Eq. 8 budget as a share of the resident set's uncompressed bytes.
    pub qaoa_budget_share: f64,
    /// Small server jobs: QFT on these qubit counts, round-robin.
    pub server_small_qubits: [usize; 3],
    pub server_small_block_log2: u32,
    /// Medium server jobs: QAOA and supremacy circuits on this grid's qubits.
    pub server_medium_grid: (usize, usize),
    pub server_medium_block_log2: u32,
    pub server_jobs: usize,
}

pub const FULL: Sizes = Sizes {
    qft_qubits: 15,
    qft_block_log2: 8,
    sup_grid: (4, 5),
    sup_block_log2: 14,
    sample_grid: (4, 4),
    sample_block_log2: 10,
    sample_draws: 1000,
    sample_zz_pairs: 400,
    qaoa_qubits: 15,
    qaoa_block_log2: 7,
    qaoa_resident_blocks: 8,
    qaoa_budget_share: 0.44,
    server_small_qubits: [10, 11, 11],
    server_small_block_log2: 6,
    server_medium_grid: (2, 6),
    server_medium_block_log2: 8,
    server_jobs: 32,
};

pub const SMOKE: Sizes = Sizes {
    qft_qubits: 10,
    qft_block_log2: 6,
    sup_grid: (3, 4),
    sup_block_log2: 7,
    sample_grid: (3, 4),
    sample_block_log2: 7,
    sample_draws: 4,
    sample_zz_pairs: 4,
    qaoa_qubits: 10,
    qaoa_block_log2: 5,
    qaoa_resident_blocks: 8,
    qaoa_budget_share: 0.44,
    server_small_qubits: [7, 8, 8],
    server_small_block_log2: 4,
    server_medium_grid: (2, 5),
    server_medium_block_log2: 5,
    server_jobs: 10,
};

/// How a simulator workload spends a repetition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One fresh-state circuit run per repetition.
    Run,
    /// State prepared during set-up; a repetition is the query battery.
    Query,
}

/// A workload that drives one `CompressedSimulator`.
#[derive(Debug, Clone)]
pub struct SimWorkload {
    pub circuit: Circuit,
    /// Without remote endpoints; those exist only once daemons are up.
    pub cfg: SimConfig,
    /// Loopback rank daemons to host the ranks on (0 = in-process).
    pub daemons: usize,
    pub mode: Mode,
    pub queries: Queries,
}

/// The fixed query battery of `sup_sample`.
#[derive(Debug, Clone, Default)]
pub struct Queries {
    pub zz_pairs: Vec<(usize, usize)>,
    pub sample_draws: usize,
    pub sample_seed: u64,
}

/// Jobs the server runs at once. One: the runner is then a single
/// work-conserving queue and a batch's wall is the sum of its jobs'
/// service times in whatever order the clients' submissions interleave.
/// With two, the wall is the sum of the latencies each client sees,
/// which the server's sockets round up to ~44 ms steps: batches of the
/// same code then took 1.8-2.8 s (README, "Where this differs").
pub const SERVER_MAX_RUNNING: usize = 1;

/// The job batch of `server_mix`, split per closed-loop client.
#[derive(Debug, Clone)]
pub struct ServerWorkload {
    pub per_client: Vec<Vec<JobSpec>>,
    pub budget_bytes: u64,
    pub resident_blocks: usize,
}

pub enum Workload {
    Sim(Box<SimWorkload>),
    Server(ServerWorkload),
}

fn base_cfg(block_log2: u32) -> SimConfig {
    SimConfig::default()
        .with_block_log2(block_log2)
        .with_threads_per_rank(1)
}

/// QFT of a seeded product state: every amplitude of the result carries
/// a generic phase and magnitude, so the lossless codec sees full-entropy
/// mantissas whatever the seed.
fn qft_random_input(n: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.ry(rng.gen_range(0.3..2.8), q);
        c.rz(rng.gen_range(-3.0..3.0), q);
    }
    c.extend(&qft_circuit(n));
    c
}

/// QAOA MAXCUT, p = 2, on a random 4-regular graph. The graph is fixed, so
/// gate routing and wave count are the workload's; the seed draws the
/// angles — what a variational outer loop changes between submissions.
fn qaoa_seeded(n: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5151_5151);
    let graph = random_regular_graph(n, 4, 2019);
    let params = QaoaParams {
        gammas: (0..2).map(|_| rng.gen_range(0.35..0.85)).collect(),
        betas: (0..2).map(|_| rng.gen_range(0.25..0.75)).collect(),
    };
    qaoa_circuit(&graph, &params)
}

const SUP_DEPTH: usize = 11;
const SUP_BOUND: ErrorBound = ErrorBound::PointwiseRelative(1e-3);

fn sup_circuit(grid: (usize, usize), seed: u64) -> Circuit {
    random_circuit(Grid::new(grid.0, grid.1), SUP_DEPTH, seed)
}

/// Build workload `name` from `seed`. `tmp` is where spill segments go.
pub fn build(name: &str, seed: u64, sizes: &Sizes, tmp: &Path) -> Workload {
    let sim = |circuit, cfg, daemons, mode, queries| {
        Workload::Sim(Box::new(SimWorkload {
            circuit,
            cfg,
            daemons,
            mode,
            queries,
        }))
    };
    match name {
        "qft_lossless" => sim(
            qft_random_input(sizes.qft_qubits, seed),
            base_cfg(sizes.qft_block_log2),
            0,
            Mode::Run,
            Queries::default(),
        ),
        "sup_lossy" | "sup_remote2" => sim(
            sup_circuit(sizes.sup_grid, seed),
            base_cfg(sizes.sup_block_log2)
                .with_fixed_bound(SUP_BOUND)
                .with_ranks_log2(1),
            if name == "sup_remote2" { 2 } else { 0 },
            Mode::Run,
            Queries::default(),
        ),
        "sup_sample" => {
            let n = sizes.sample_grid.0 * sizes.sample_grid.1;
            let mut rng = StdRng::seed_from_u64(seed ^ 0x7a7a);
            let zz_pairs = (0..sizes.sample_zz_pairs)
                .map(|_| {
                    let a = rng.gen_range(0..n);
                    let b = (a + rng.gen_range(1..n)) % n;
                    (a, b)
                })
                .collect();
            sim(
                sup_circuit(sizes.sample_grid, seed),
                base_cfg(sizes.sample_block_log2).with_fixed_bound(SUP_BOUND),
                0,
                Mode::Query,
                Queries {
                    zz_pairs,
                    sample_draws: sizes.sample_draws,
                    sample_seed: seed,
                },
            )
        }
        "qaoa_budget_spill" => {
            let block_bytes = 16u64 << sizes.qaoa_block_log2;
            // Eq. 8 charges the hot resident blocks plus two scratch
            // blocks; the budget leaves the resident set a fixed share of
            // its raw size, which the lossless level cannot meet.
            let budget = 2 * block_bytes
                + (sizes.qaoa_resident_blocks as f64 * block_bytes as f64 * sizes.qaoa_budget_share)
                    as u64;
            sim(
                qaoa_seeded(sizes.qaoa_qubits, seed),
                base_cfg(sizes.qaoa_block_log2)
                    .with_memory_budget(budget)
                    .with_spill(sizes.qaoa_resident_blocks)
                    .with_spill_dir(tmp.to_path_buf())
                    .with_eviction(Eviction::PlannedMin)
                    .with_write_behind(true),
                0,
                Mode::Run,
                Queries::default(),
            )
        }
        "server_mix" => Workload::Server(server_mix(seed, sizes)),
        _ => panic!("unknown workload {name}"),
    }
}

/// The in-process twin whose block corpus stands in for a workload whose
/// state lives in other processes or behind the job server.
pub fn corpus_twin(name: &str, seed: u64, sizes: &Sizes, tmp: &Path) -> SimWorkload {
    let twin = match name {
        "sup_remote2" => "sup_lossy",
        other => other,
    };
    match build(twin, seed, sizes, tmp) {
        Workload::Sim(w) => *w,
        // The first medium job of the batch.
        Workload::Server(s) => job_twin(
            s.per_client
                .iter()
                .flatten()
                .find(|j| j.name.starts_with("medium"))
                .expect("batch has a medium job"),
        ),
    }
}

/// A server job's spec as an in-process simulator workload.
pub fn job_twin(spec: &JobSpec) -> SimWorkload {
    SimWorkload {
        circuit: spec.circuit.clone(),
        cfg: spec.config.clone(),
        daemons: 0,
        mode: Mode::Run,
        queries: Queries::default(),
    }
}

/// 70 % small QFT jobs at priority 1, 30 % medium QAOA/supremacy jobs at
/// priority 2, 0 or 1. Which slot of which client holds which kind of job
/// is fixed, so every seed submits the same mix in the same order; the
/// seed drives every circuit.
fn server_mix(seed: u64, sizes: &Sizes) -> ServerWorkload {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00c0_ffee);
    let clients = 2;
    let per_client = sizes.server_jobs / clients;
    let medium_per_client = (per_client * 3).div_ceil(10);
    let (rows, cols) = sizes.server_medium_grid;
    let medium_qubits = rows * cols;
    let small_cfg = base_cfg(sizes.server_small_block_log2);
    let medium_cfg = base_cfg(sizes.server_medium_block_log2).with_fixed_bound(SUP_BOUND);
    let mut batches = Vec::new();
    for client in 0..clients {
        let mut jobs = Vec::with_capacity(per_client);
        let (mut mediums, mut smalls) = (0, 0);
        for slot in 0..per_client {
            let job_seed = rng.gen::<u64>();
            // Medium jobs evenly spaced, the two clients out of phase.
            let is_medium =
                ((slot + 2 * client) * medium_per_client) % per_client < medium_per_client;
            let spec = if is_medium {
                let circuit = if mediums % 2 == 0 {
                    qaoa_seeded(medium_qubits, job_seed)
                } else {
                    sup_circuit((rows, cols), job_seed)
                };
                // One medium job per client outranks the small jobs and one
                // yields to them, so both preemption directions occur; the
                // rest queue FIFO among the small jobs.
                let priority = [2, 0].get(mediums).copied().unwrap_or(1);
                mediums += 1;
                JobSpec::new(
                    format!("medium-c{client}-{slot}"),
                    circuit,
                    medium_cfg.clone(),
                )
                .with_priority(priority)
            } else {
                let n = sizes.server_small_qubits[smalls % sizes.server_small_qubits.len()];
                smalls += 1;
                JobSpec::new(
                    format!("small-c{client}-{slot}"),
                    qft_random_input(n, job_seed),
                    small_cfg.clone(),
                )
                .with_priority(1)
            };
            // Every medium (lossy) job and every fourth small one returns
            // amplitudes for the differential check; `fidelity` is the
            // lowest over them, steadier over ten lossy jobs than over
            // the three a one-in-four sample would catch.
            let spec = if is_medium || slot % 4 == client {
                spec.with_amplitudes()
            } else {
                spec
            };
            jobs.push(spec.with_seed(job_seed));
        }
        batches.push(jobs);
    }
    // Every job's blocks stay resident: the server always arms the spill
    // tier, but here it never has to evict, so `store.*` stays quiet and
    // the batch stresses admission, protocol and preemption instead.
    let blocks_of = |n: usize, block_log2: u32| 1usize << (n as u32 - block_log2);
    let resident_blocks = sizes
        .server_small_qubits
        .iter()
        .map(|&n| blocks_of(n, sizes.server_small_block_log2))
        .chain([blocks_of(medium_qubits, sizes.server_medium_block_log2)])
        .max()
        .expect("job sizes");
    // The budget admits any one job; `SERVER_MAX_RUNNING` keeps it at one, so
    // the other client's job always queues and priorities decide who is
    // next (and who is checkpointed to make room).
    let carve = |cfg: &SimConfig, n: usize| {
        qcs_server::carve_bytes(&cfg.clone().with_spill(resident_blocks), n as u32)
    };
    let budget_bytes = sizes
        .server_small_qubits
        .iter()
        .map(|&n| carve(&small_cfg, n))
        .chain([carve(&medium_cfg, medium_qubits)])
        .max()
        .expect("job sizes");
    ServerWorkload {
        per_client: batches,
        budget_bytes,
        resident_blocks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let tmp = std::env::temp_dir();
        for name in NAMES {
            let describe = |seed| match build(name, seed, &SMOKE, &tmp) {
                Workload::Sim(w) => format!("{:?}{:?}", w.circuit, w.queries),
                Workload::Server(s) => format!("{:?}", s.per_client),
            };
            assert_eq!(describe(5), describe(5), "{name}");
            assert_ne!(describe(5), describe(6), "{name}");
        }
    }

    #[test]
    fn every_server_job_fits_the_budget_alone() {
        let s = server_mix(1, &FULL);
        let carve = |j: &JobSpec| {
            qcs_server::carve_bytes(
                &j.config.clone().with_spill(s.resident_blocks),
                j.num_qubits,
            )
        };
        let jobs: Vec<&JobSpec> = s.per_client.iter().flatten().collect();
        assert_eq!(jobs.len(), FULL.server_jobs);
        let medium = jobs.iter().filter(|j| j.name.starts_with("medium")).count();
        assert_eq!(medium, 10, "30 % of 32, rounded up per client");
        assert!(jobs.iter().all(|j| carve(j) <= s.budget_bytes));
        assert!(jobs.iter().any(|j| carve(j) == s.budget_bytes));
    }
}
