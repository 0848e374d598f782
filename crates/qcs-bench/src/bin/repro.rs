//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! Usage: `repro <experiment> [--csv-dir DIR] [--remote]` where experiment
//! is one of `table1 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13
//! fig14 fig15 fig16 table2 table-spill table-server
//! ablation-cache ablation-qzstd ablation-ladder ablation-fusion all`.
//!
//! `--remote` makes `fig5` host its rank workers in `qcsim-workerd`
//! daemon loops over loopback TCP instead of in-process threads, so the
//! ranks×threads sweep pays real socket exchanges.
//!
//! Each subcommand prints the rows/series the paper reports (at laptop
//! scale — see DESIGN.md for the scaling map) and writes a CSV next to the
//! printed table under `results/`.

use qcs_bench::comparators::{self, FpzipLike, SolutionA, ZfpLike};
use qcs_bench::{qaoa_snapshot, supremacy_snapshot, Snapshot, Table};
use qcs_circuits::supremacy::{random_circuit, Grid};
use qcs_circuits::{hadamard_wall, qft_benchmark_circuit};
use qcs_cluster::max_qubits_for_memory;
use qcs_compress::stats::{
    empirical_cdf, lag1_autocorrelation, max_pointwise_relative_error, spikiness, value_range,
};
use qcs_compress::trunc::truncation_levels;
use qcs_compress::{Codec, CodecId, ErrorBound, PWR_LEVELS};
use qcs_core::{fidelity_curve, CompressedSimulator, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut csv_dir = PathBuf::from("results");
    let mut remote = false;
    let mut cmds = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--csv-dir" {
            csv_dir = PathBuf::from(it.next().expect("--csv-dir needs a value"));
        } else if a == "--remote" {
            remote = true;
        } else {
            cmds.push(a.clone());
        }
    }
    if cmds.is_empty() {
        eprintln!(
            "usage: repro <table1|fig5|fig6|fig7|fig8|fig9|fig10|fig11|fig12|fig13|fig14|fig15|fig16|table2|table-spill|table-server|ablation-cache|ablation-qzstd|ablation-ladder|ablation-fusion|all> [--csv-dir DIR] [--remote]"
        );
        std::process::exit(2);
    }
    let all = [
        "table1",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "fig15",
        "fig16",
        "table2",
        "table-spill",
        "table-server",
        "ablation-cache",
        "ablation-qzstd",
        "ablation-ladder",
        "ablation-fusion",
    ];
    let run_list: Vec<String> = if cmds.iter().any(|c| c == "all") {
        all.iter().map(|s| s.to_string()).collect()
    } else {
        cmds
    };
    for cmd in run_list {
        let t0 = Instant::now();
        println!("\n=== {cmd} ===");
        match cmd.as_str() {
            "table1" => table1(&csv_dir),
            "fig5" => fig5(&csv_dir, remote),
            "fig6" => fig6(&csv_dir),
            "fig7" => fig7(&csv_dir),
            "fig8" => fig8(&csv_dir),
            "fig9" => fig9(&csv_dir),
            "fig10" => fig10(&csv_dir),
            "fig11" => fig11(&csv_dir),
            "fig12" => fig12(&csv_dir),
            "fig13" => fig13(&csv_dir),
            "fig14" => fig14(&csv_dir),
            "fig15" => fig15(&csv_dir),
            "fig16" => fig16(&csv_dir),
            "table2" => table2(&csv_dir),
            "table-spill" => table_spill(&csv_dir),
            "table-server" => table_server(&csv_dir),
            "ablation-cache" => ablation_cache(&csv_dir),
            "ablation-qzstd" => ablation_qzstd(&csv_dir),
            "ablation-ladder" => ablation_ladder(&csv_dir),
            "ablation-fusion" => ablation_fusion(&csv_dir),
            other => {
                eprintln!("unknown experiment: {other}");
                std::process::exit(2);
            }
        }
        println!("[{cmd} took {:.1?}]", t0.elapsed());
    }
}

fn finish(t: &Table, dir: &Path, name: &str) {
    print!("{}", t.render());
    let path = dir.join(format!("{name}.csv"));
    t.write_csv(&path).expect("write csv");
    println!("(csv: {})", path.display());
}

/// Paper-scale compressor evaluation snapshots.
fn eval_snapshots() -> (Snapshot, Snapshot) {
    (qaoa_snapshot(18, 36), supremacy_snapshot(20, 36))
}

// --- Table 1: supercomputers and their max simulable qubits -------------

fn table1(dir: &Path) {
    let pb = 1u128 << 50;
    let systems = [
        ("Summit", 28 * pb / 10, 2.8),
        ("Sierra", 138 * pb / 100, 1.38),
        ("Sunway TaihuLight", 131 * pb / 100, 1.31),
        ("Theta", 8 * pb / 10, 0.8),
    ];
    let mut t = Table::new(vec!["System", "Memory (PB)", "Max Qubits"]);
    for (name, bytes, pbs) in systems {
        t.row(vec![
            name.to_string(),
            format!("{pbs}"),
            format!("{}", max_qubits_for_memory(bytes)),
        ]);
    }
    finish(&t, dir, "table1");
    println!("paper: Summit 47, Sierra 46, Sunway 46, Theta 45");
}

// --- Fig. 5: ranks x threads configuration sweep -------------------------

fn fig5(dir: &Path, remote: bool) {
    // Paper: 35-qubit random circuit across (ranks/node x threads/rank)
    // with ranks*threads = 256 KNL threads; best at 128x2. Scaled: an
    // 18-qubit random circuit across real rank workers x rayon threads
    // per worker with ranks*threads = 16. Each configuration instantiates
    // genuine `ClusterSim` rank workers on dedicated threads (ranks >= 2),
    // so the sweep trades real inter-rank compressed-block exchanges
    // against intra-rank rayon width — not just a thread-pool resize.
    // With `--remote`, each configuration's ranks are instead hosted by a
    // `qcsim-workerd` daemon loop on loopback TCP: commands, responses,
    // and exchange payloads all cross real sockets.
    let budget_cores = 16usize;
    let circuit = random_circuit(Grid::new(3, 6), 8, 5);
    let n = circuit.num_qubits() as u32;
    let mut t = Table::new(vec![
        "Ranks x Threads",
        "Time (s)",
        "Normalized",
        "comm (ms)",
        "MB exchanged",
        "exch/gate",
    ]);
    let mut baseline = None;
    for ranks_log2 in 0..=4u32 {
        let ranks = 1usize << ranks_log2;
        let threads = budget_cores / ranks;
        // Paper-shape reproduction: measure the strict gate-at-a-time
        // pipeline (the batch scheduler is compared in ablation-fusion).
        let mut cfg = SimConfig::default()
            .with_block_log2(10)
            .with_ranks_log2(ranks_log2)
            .with_threads_per_rank(threads)
            .without_cache()
            .without_fusion();
        let server = if remote {
            let (addr, handle) = qcs_core::spawn_loopback(ranks, qcs_core::ServeOptions::default())
                .expect("spawn loopback daemon");
            cfg = cfg.with_remote(vec![addr]);
            Some(handle)
        } else {
            None
        };
        let mut sim = CompressedSimulator::new(n, cfg).expect("sim");
        let mut rng = StdRng::seed_from_u64(0);
        let t0 = Instant::now();
        sim.run(&circuit, &mut rng).expect("run");
        let elapsed = t0.elapsed().as_secs_f64();
        let report = sim.report();
        drop(sim);
        if let Some(handle) = server {
            handle.join().expect("daemon loop");
        }
        let base = *baseline.get_or_insert(elapsed);
        t.row(vec![
            format!("{ranks}x{threads}"),
            format!("{elapsed:.3}"),
            format!("{:.1}%", 100.0 * elapsed / base),
            format!("{:.2}", report.breakdown.comm_ns() as f64 / 1e6),
            format!("{:.2}", report.breakdown.comm_bytes as f64 / 1e6),
            format!("{:.2}", report.exchanges_per_gate()),
        ]);
    }
    finish(&t, dir, if remote { "fig5-remote" } else { "fig5" });
    println!("paper shape: a mid-sweep optimum (128 ranks x 2 threads best of 8x32..256x1); comm grows with the rank count");
}

// --- Fig. 6: fidelity lower bound vs gate count --------------------------

fn fig6(dir: &Path) {
    let mut t = Table::new(vec!["gates", "1e-5", "1e-4", "1e-3", "1e-2", "1e-1"]);
    for gates in (0..=5000usize).step_by(250) {
        let mut row = vec![format!("{gates}")];
        for eps in PWR_LEVELS {
            row.push(format!("{:.4}", fidelity_curve(eps, gates)));
        }
        t.row(row);
    }
    finish(&t, dir, "fig6");
    println!("paper shape: 1e-5 stays ~1 out to 5000 gates; 1e-1 collapses within tens of gates");
}

// --- Fig. 7: SZ vs ZFP, absolute error bounds ----------------------------

fn fig7(dir: &Path) {
    let (qaoa, sup) = eval_snapshots();
    let mut t = Table::new(vec!["dataset", "bound(xrange)", "SZ", "ZFP"]);
    for snap in [&qaoa, &sup] {
        let range = value_range(&snap.data);
        for frac in [1e-1, 1e-2, 1e-3, 1e-4, 1e-5] {
            let e = frac * range;
            let mut row = vec![snap.name.clone(), format!("{frac:.0e}")];
            let codecs: [&dyn Codec; 2] = [&SolutionA::default(), &ZfpLike];
            for codec in codecs {
                let enc = codec
                    .compress(&snap.data, ErrorBound::Absolute(e))
                    .expect("compress");
                row.push(format!("{:.2}", snap.bytes() as f64 / enc.len() as f64));
            }
            t.row(row);
        }
    }
    finish(&t, dir, "fig7");
    println!("paper shape: SZ 1-2 orders of magnitude above ZFP at every bound; FPZIP absent (no abs-bound support)");
}

// --- Fig. 8: SZ vs FPZIP vs ZFP, pointwise relative bounds ---------------

fn fig8(dir: &Path) {
    let (qaoa, sup) = eval_snapshots();
    let mut t = Table::new(vec!["dataset", "bound", "SZ", "FPZIP", "ZFP"]);
    for snap in [&qaoa, &sup] {
        for eps in [1e-1, 1e-2, 1e-3, 1e-4, 1e-5] {
            let mut row = vec![snap.name.clone(), format!("{eps:.0e}")];
            let codecs: [&dyn Codec; 3] = [&SolutionA::default(), &FpzipLike, &ZfpLike];
            for codec in codecs {
                let enc = codec
                    .compress(&snap.data, ErrorBound::PointwiseRelative(eps))
                    .expect("compress");
                row.push(format!("{:.2}", snap.bytes() as f64 / enc.len() as f64));
            }
            t.row(row);
        }
    }
    finish(&t, dir, "fig8");
    println!("paper shape: SZ well above both comparators at the same relative bound");
}

// --- Fig. 9: value spikiness ---------------------------------------------

fn fig9(dir: &Path) {
    let (qaoa, sup) = eval_snapshots();
    let mut t = Table::new(vec!["dataset", "index", "value"]);
    for snap in [&qaoa, &sup] {
        for (i, v) in snap.data.iter().take(2000).enumerate() {
            t.row(vec![snap.name.clone(), format!("{i}"), format!("{v:e}")]);
        }
        println!(
            "{}: spikiness = {:.2} (mean |first difference| / mean |value|; smooth ~0, alternating ~2)",
            snap.name,
            spikiness(&snap.data)
        );
    }
    let path = dir.join("fig9.csv");
    t.write_csv(&path).expect("write csv");
    println!("(value dump csv: {})", path.display());
    println!(
        "paper shape: both datasets exhibit high spikiness -> domain-transform compressors lose"
    );
}

// --- Fig. 10: compression ratio of Solutions A-D -------------------------

fn fig10(dir: &Path) {
    let (qaoa, sup) = eval_snapshots();
    let mut t = Table::new(vec!["dataset", "bound", "Sol.A", "Sol.B", "Sol.C", "Sol.D"]);
    for snap in [&qaoa, &sup] {
        for eps in [1e-1, 1e-2, 1e-3, 1e-4, 1e-5] {
            let mut row = vec![snap.name.clone(), format!("{eps:.0e}")];
            for (_, codec) in comparators::solutions() {
                let enc = codec
                    .compress(&snap.data, ErrorBound::PointwiseRelative(eps))
                    .expect("compress");
                row.push(format!("{:.2}", snap.bytes() as f64 / enc.len() as f64));
            }
            t.row(row);
        }
    }
    finish(&t, dir, "fig10");
    println!(
        "rows: C/D ratios sit 41-52% below A/B from 1e-1 to 1e-3 and ~47% below A at 1e-4; \
         only at 1e-5 is C above both; C ~ D"
    );
}

// --- Fig. 11: compression/decompression rates ----------------------------

fn fig11(dir: &Path) {
    let (qaoa, sup) = eval_snapshots();
    let mut t = Table::new(vec![
        "dataset", "bound", "metric", "Sol.A", "Sol.B", "Sol.C", "Sol.D",
    ]);
    for snap in [&qaoa, &sup] {
        let mb = snap.bytes() as f64 / 1e6;
        for eps in [1e-1, 1e-2, 1e-3, 1e-4, 1e-5] {
            let mut cmp_row = vec![
                snap.name.clone(),
                format!("{eps:.0e}"),
                "cmpr MB/s".to_string(),
            ];
            let mut dec_row = vec![
                snap.name.clone(),
                format!("{eps:.0e}"),
                "decmpr MB/s".to_string(),
            ];
            for (_, codec) in comparators::solutions() {
                let t0 = Instant::now();
                let enc = codec
                    .compress(&snap.data, ErrorBound::PointwiseRelative(eps))
                    .expect("compress");
                let tc = t0.elapsed().as_secs_f64();
                let t1 = Instant::now();
                let _ = codec.decompress(&enc).expect("decompress");
                let td = t1.elapsed().as_secs_f64();
                cmp_row.push(format!("{:.0}", mb / tc));
                dec_row.push(format!("{:.0}", mb / td));
            }
            t.row(cmp_row);
            t.row(dec_row);
        }
    }
    finish(&t, dir, "fig11");
    println!(
        "rows: C/D decompress 1.4-11x faster than A/B at every bound, but compress at about \
         A/B's rate at 1e-1 and 1e-2 and faster only from 1e-3 (1.1-1.4x) to 1e-5 (2.6-3.6x); \
         C and D compress alike"
    );
}

// --- Fig. 12: per-block max relative error CDF ---------------------------

fn fig12(dir: &Path) {
    let (qaoa, sup) = eval_snapshots();
    let block = 1usize << 14; // doubles per block
    let mut t = Table::new(vec![
        "dataset", "bound", "codec", "min", "median", "p90", "max",
    ]);
    for snap in [&qaoa, &sup] {
        for eps in [1e-2, 1e-4] {
            for (id, codec) in comparators::solutions() {
                let mut maxes: Vec<f64> = Vec::new();
                for chunk in snap.data.chunks(block) {
                    let enc = codec
                        .compress(chunk, ErrorBound::PointwiseRelative(eps))
                        .expect("compress");
                    let dec = codec.decompress(&enc).expect("decompress");
                    maxes.push(max_pointwise_relative_error(chunk, &dec));
                }
                maxes.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let q = |f: f64| maxes[((maxes.len() - 1) as f64 * f) as usize];
                assert!(q(1.0) <= eps, "{id} violated bound");
                t.row(vec![
                    snap.name.clone(),
                    format!("{eps:.0e}"),
                    id.to_string(),
                    format!("{:.2e}", q(0.0)),
                    format!("{:.2e}", q(0.5)),
                    format!("{:.2e}", q(0.9)),
                    format!("{:.2e}", q(1.0)),
                ]);
            }
        }
    }
    finish(&t, dir, "fig12");
    println!("paper shape: all four respect the bound; C/D identical and generally lower than A/B");
}

// --- Fig. 13: discrete truncation error levels ---------------------------

fn fig13(dir: &Path) {
    let mut t = Table::new(vec!["mantissa bits kept", "value", "relative error"]);
    for level in truncation_levels(3.9921875, 8) {
        t.row(vec![
            format!("{}", level.mantissa_bits),
            format!("{}", level.value),
            format!("{:.6}", level.relative_error),
        ]);
    }
    finish(&t, dir, "fig13");
    println!("paper: 3.9921875 -> 3.984375 / 3.96875 / 3.9375 / ... with errors 0.001957 / 0.005871 / 0.013699 / ...");
}

// --- Fig. 14: normalized error distribution + autocorrelation ------------

fn fig14(dir: &Path) {
    let (qaoa, sup) = eval_snapshots();
    let codec = CodecId::SolutionC.build();
    let mut t = Table::new(vec![
        "dataset",
        "bound",
        "cdf@-0.5",
        "cdf@0",
        "cdf@0.5",
        "lag1-autocorr",
    ]);
    for snap in [&qaoa, &sup] {
        for eps in PWR_LEVELS {
            let enc = codec
                .compress(&snap.data, ErrorBound::PointwiseRelative(eps))
                .expect("compress");
            let dec = codec.decompress(&enc).expect("decompress");
            let norm = qcs_compress::stats::normalized_errors(&snap.data, &dec, eps);
            assert!(norm.iter().all(|v| v.abs() <= 1.0), "bound violated");
            let cdf = empirical_cdf(&norm, &[-0.5, 0.0, 0.5]);
            let errors: Vec<f64> = snap
                .data
                .iter()
                .zip(&dec)
                .filter(|(a, _)| **a != 0.0)
                .map(|(a, b)| (a - b) / a.abs())
                .collect();
            t.row(vec![
                snap.name.clone(),
                format!("{eps:.0e}"),
                format!("{:.3}", cdf[0].1),
                format!("{:.3}", cdf[1].1),
                format!("{:.3}", cdf[2].1),
                format!("{:+.2e}", lag1_autocorrelation(&errors)),
            ]);
        }
    }
    finish(&t, dir, "fig14");
    println!(
        "paper shape: errors within the bound, roughly uniform, autocorrelation ~0 (uncorrelated)"
    );
}

// --- Fig. 15: single-node scaling over qubit count -----------------------

fn fig15(dir: &Path) {
    // Paper: one-H-per-qubit at 34-40 qubits, normalized time on one node.
    // Scaled to 18-24 qubits; the wall is applied three times so the
    // smallest sizes are not timer-noise dominated.
    let mut t = Table::new(vec!["qubits", "time (s)", "normalized"]);
    let mut base = None;
    for n in 18..=24u32 {
        let mut circuit = hadamard_wall(n as usize);
        let wall = circuit.clone();
        circuit.extend(&wall);
        circuit.extend(&wall);
        let cfg = SimConfig::default()
            .with_block_log2(10)
            .with_ranks_log2(2)
            .without_cache()
            .without_fusion();
        let mut sim = CompressedSimulator::new(n, cfg).expect("sim");
        let mut rng = StdRng::seed_from_u64(0);
        let t0 = Instant::now();
        sim.run(&circuit, &mut rng).expect("run");
        let el = t0.elapsed().as_secs_f64();
        let b = *base.get_or_insert(el);
        t.row(vec![
            format!("{n}"),
            format!("{el:.3}"),
            format!("{:.1}%", 100.0 * el / b),
        ]);
    }
    finish(&t, dir, "fig15");
    println!("paper shape: normalized time grows with qubit count (100% -> 169% over 6 qubits)");
}

// --- Fig. 16: strong scaling over nodes (threads) ------------------------

fn fig16(dir: &Path) {
    // Paper: 51-qubit H-wall across 128/256/512 Theta nodes (speedups
    // 1 / 1.698 / 2.84 vs ideal 1 / 2 / 4). Scaled: 22-qubit H-wall on a
    // fixed 4-rank-worker cluster, growing the rayon width inside each
    // rank worker (4/8/16 total threads).
    let circuit = hadamard_wall(22);
    let mut t = Table::new(vec!["threads", "time (s)", "speedup", "ideal"]);
    let mut base = None;
    for threads_per_rank in [1usize, 2, 4] {
        let threads = 4 * threads_per_rank;
        let cfg = SimConfig::default()
            .with_block_log2(10)
            .with_ranks_log2(2)
            .with_threads_per_rank(threads_per_rank)
            .without_cache()
            .without_fusion();
        let mut sim = CompressedSimulator::new(22, cfg).expect("sim");
        let mut rng = StdRng::seed_from_u64(0);
        let t0 = Instant::now();
        sim.run(&circuit, &mut rng).expect("run");
        let el = t0.elapsed().as_secs_f64();
        let b = *base.get_or_insert(el);
        t.row(vec![
            format!("{threads}"),
            format!("{el:.3}"),
            format!("{:.2}", b / el),
            format!("{:.0}", threads as f64 / 4.0),
        ]);
    }
    finish(&t, dir, "fig16");
    println!("paper shape: sublinear but positive scaling (1.70x at 2x nodes, 2.84x at 4x)");
}

// --- Table 2: main benchmark results --------------------------------------

struct Bench2 {
    name: &'static str,
    circuit: qcs_circuits::Circuit,
    budget_frac: f64, // fraction of 2^{n+4}
}

fn table2(dir: &Path) {
    let mut rows: Vec<Bench2> = Vec::new();
    // Grover (X/Toffoli oracle with ancillas), full amplification at small
    // data sizes: paper runs 47-61 qubits at 0.002%-1.17% memory.
    for (nd, frac) in [(13usize, 0.004), (12, 0.008), (11, 0.016)] {
        let target = qcs_circuits::grover::sqrt_target(nd, 289);
        let iters = qcs_circuits::optimal_iterations(nd);
        rows.push(Bench2 {
            name: "grover",
            circuit: qcs_circuits::grover_circuit_toffoli(nd, target, iters),
            budget_frac: frac,
        });
    }
    // Random circuit sampling, depth 11 (paper: 5x9..7x5 at 18.75-37.5%).
    for (r, c) in [(4usize, 5usize), (4, 4)] {
        rows.push(Bench2 {
            name: "rcs",
            circuit: random_circuit(Grid::new(r, c), 11, 2019),
            budget_frac: 0.375,
        });
    }
    // QAOA (paper: 42-45 qubits at 37.5%; laptop-scale states carry more
    // per-block overhead, so the equivalent pressure point is higher).
    for n in [20usize, 18] {
        let g = qcs_circuits::random_regular_graph(n, 4, 7);
        rows.push(Bench2 {
            name: "qaoa",
            circuit: qcs_circuits::qaoa_circuit(&g, &qcs_circuits::QaoaParams::standard(1)),
            budget_frac: 0.5,
        });
    }
    // QFT (paper: 36 qubits at 18.75%).
    rows.push(Bench2 {
        name: "qft",
        circuit: qft_benchmark_circuit(16, 12),
        budget_frac: 0.25,
    });

    let mut t = Table::new(vec![
        "benchmark",
        "qubits",
        "gates",
        "mem/req",
        "time(s)",
        "cmpr%",
        "decmpr%",
        "comm%",
        "compute%",
        "ms/gate",
        "MB exch",
        "fid(bound)",
        "fid(meas)",
        "min ratio",
    ]);
    for b in rows {
        let n = b.circuit.num_qubits() as u32;
        let uncompressed = 1u64 << (n + 4);
        let budget = (uncompressed as f64 * b.budget_frac) as u64;
        // Per-gate pipeline, as in the paper's Table 2.
        let cfg = SimConfig::default()
            .with_block_log2(10)
            .with_ranks_log2(2)
            .with_memory_budget(budget)
            .without_fusion();
        let mut sim = CompressedSimulator::new(n, cfg).expect("sim");
        let mut rng = StdRng::seed_from_u64(1);
        let t0 = Instant::now();
        sim.run(&b.circuit, &mut rng).expect("run");
        let wall = t0.elapsed().as_secs_f64();
        let report = sim.report();
        // Measured fidelity vs the dense reference.
        let dense = b.circuit.simulate_dense(&mut rng);
        let fid = sim.snapshot_dense().expect("snapshot").fidelity(&dense);
        let pct = report.breakdown.percentages();
        t.row(vec![
            b.name.to_string(),
            format!("{n}"),
            format!("{}", report.gates),
            format!("{:.1}%", 100.0 * b.budget_frac),
            format!("{wall:.1}"),
            format!("{:.1}", pct[0]),
            format!("{:.1}", pct[1]),
            format!("{:.1}", pct[2]),
            format!("{:.1}", pct[3]),
            format!("{:.1}", 1000.0 * report.time_per_gate()),
            format!("{:.1}", report.breakdown.comm_bytes as f64 / 1e6),
            format!("{:.3}", report.fidelity_lower_bound),
            format!("{fid:.3}"),
            format!("{:.2}", report.min_compression_ratio),
        ]);
        println!("... {} n={n} done", b.name);
    }
    finish(&t, dir, "table2");
    println!("paper shape: grover min-ratio orders of magnitude above the rest at ~1% memory; rcs lowest ratios; qaoa robust; qft deep-but-tractable");
}

// --- Ablations ------------------------------------------------------------

fn ablation_cache(dir: &Path) {
    // Cache helps structured circuits (grover), not random ones (§3.4).
    let mut t = Table::new(vec!["circuit", "cache", "time (s)", "hits", "misses"]);
    let grover = {
        let target = qcs_circuits::grover::sqrt_target(11, 289);
        qcs_circuits::grover_circuit_toffoli(11, target, qcs_circuits::optimal_iterations(11))
    };
    let rcs = random_circuit(Grid::new(4, 4), 11, 3);
    for (name, circuit) in [("grover", &grover), ("rcs", &rcs)] {
        for cache in [true, false] {
            // The Sec 3.4 per-gate cache is what this ablation isolates.
            let mut cfg = SimConfig::default()
                .with_block_log2(9)
                .with_ranks_log2(1)
                .without_fusion();
            if !cache {
                cfg = cfg.without_cache();
            }
            let n = circuit.num_qubits() as u32;
            let mut sim = CompressedSimulator::new(n, cfg).expect("sim");
            let mut rng = StdRng::seed_from_u64(0);
            let t0 = Instant::now();
            sim.run(circuit, &mut rng).expect("run");
            let el = t0.elapsed().as_secs_f64();
            let report = sim.report();
            t.row(vec![
                name.to_string(),
                format!("{cache}"),
                format!("{el:.2}"),
                format!("{}", report.cache_hits),
                format!("{}", report.cache_misses),
            ]);
        }
    }
    finish(&t, dir, "ablation_cache");
    println!("expected: cache speeds up grover substantially; rcs auto-disables (hit rate ~0)");
}

fn ablation_qzstd(dir: &Path) {
    // Entropy stage on/off in the lossless backend.
    use qcs_compress::qzstd::{self, Level};
    let (qaoa, sup) = eval_snapshots();
    let mut t = Table::new(vec!["dataset", "level", "ratio", "MB/s"]);
    for snap in [&qaoa, &sup] {
        let bytes = qcs_compress::f64s_to_bytes(&snap.data);
        for (name, level) in [
            ("fast(lz only)", Level::Fast),
            ("high(lz+huffman)", Level::High),
        ] {
            let t0 = Instant::now();
            let enc = qzstd::compress(&bytes, level);
            let el = t0.elapsed().as_secs_f64();
            t.row(vec![
                snap.name.clone(),
                name.to_string(),
                format!("{:.3}", bytes.len() as f64 / enc.len() as f64),
                format!("{:.0}", bytes.len() as f64 / 1e6 / el),
            ]);
        }
    }
    finish(&t, dir, "ablation_qzstd");
}

fn ablation_fusion(dir: &Path) {
    // The batch scheduler's lever: fused vs unfused time-per-gate on the
    // QFT / QAOA / supremacy workloads. Fused runs amortize the
    // decompress/recompress cycle across every intra-block batch, so the
    // per-gate time must drop wherever such runs exist (most on the deep,
    // low-target-heavy QFT).
    let workloads: Vec<(&'static str, qcs_circuits::Circuit)> = vec![
        ("qft_20", qft_benchmark_circuit(20, 12)),
        (
            "qaoa_18",
            qcs_circuits::qaoa_circuit(
                &qcs_circuits::random_regular_graph(18, 4, 7),
                &qcs_circuits::QaoaParams::standard(1),
            ),
        ),
        ("sup_20", random_circuit(Grid::new(4, 5), 11, 2019)),
    ];
    let mut t = Table::new(vec![
        "workload",
        "qubits",
        "gates",
        "unfused ms/gate",
        "fused ms/gate",
        "speedup",
        "gates/touch",
    ]);
    for (name, circuit) in workloads {
        let n = circuit.num_qubits() as u32;
        let run = |fusion: bool| {
            let cfg = SimConfig::default()
                .with_block_log2(10)
                .with_ranks_log2(2)
                .with_fusion(fusion)
                .without_cache();
            let mut sim = CompressedSimulator::new(n, cfg).expect("sim");
            let mut rng = StdRng::seed_from_u64(0);
            sim.run(&circuit, &mut rng).expect("run");
            let report = sim.report();
            (
                1000.0 * report.time_per_gate(),
                report.breakdown.gates_per_block_touch(),
                report.gates,
            )
        };
        let (unfused_ms, _, gates) = run(false);
        let (fused_ms, gpt, _) = run(true);
        t.row(vec![
            name.to_string(),
            format!("{n}"),
            format!("{gates}"),
            format!("{unfused_ms:.2}"),
            format!("{fused_ms:.2}"),
            format!("{:.2}x", unfused_ms / fused_ms),
            format!("{gpt:.2}"),
        ]);
        println!("... {name} done");
    }
    finish(&t, dir, "ablation_fusion");
    println!("expected: fused strictly faster per gate on every workload; largest win on the QFT (long intra-block cphase cascades)");
}

fn table_spill(dir: &Path) {
    // The out-of-core tier's tradeoff: memory budget (resident compressed
    // blocks per rank) vs wall-clock on the deep-QFT and supremacy
    // workloads. "all" keeps every block resident (the paper's regime);
    // the shrinking budgets push an ever larger share of the working set
    // to the per-rank segment files, trading spill I/O for RAM. Peak
    // memory is Eq. 8 over *resident* bytes, so it must shrink with the
    // budget while the amplitudes stay bit-identical (pinned by
    // tests/out_of_core.rs).
    //
    // Every eviction write and every fetch is a blocking read or write on
    // the worker's thread. Victims are Belady's MIN over the running
    // wave's slots: the resident block whose next planned use in the wave
    // is furthest away goes first.
    let workloads: Vec<(&'static str, qcs_circuits::Circuit)> = vec![
        ("qft_18", qft_benchmark_circuit(18, 12)),
        ("sup_16", random_circuit(Grid::new(4, 4), 11, 2019)),
    ];
    let mut t = Table::new(vec![
        "workload",
        "qubits",
        "budget (blk)",
        "wall (s)",
        "peak MB",
        "spills",
        "fetches",
        "spill MB",
        "io (ms)",
    ]);
    for (name, circuit) in workloads {
        let n = circuit.num_qubits() as u32;
        let bpr = 1usize << (n - 10); // block_log2 = 10, one rank
        let mut budgets = vec![None, Some(bpr / 4), Some(bpr / 16), Some(4)];
        budgets.dedup();
        for budget in budgets {
            let mut cfg = SimConfig::default().with_block_log2(10);
            if let Some(blocks) = budget {
                cfg = cfg.with_spill(blocks);
            }
            let mut sim = CompressedSimulator::new(n, cfg).expect("sim");
            let mut rng = StdRng::seed_from_u64(0);
            let t0 = Instant::now();
            sim.run(&circuit, &mut rng).expect("run");
            let wall = t0.elapsed().as_secs_f64();
            let report = sim.report();
            t.row(vec![
                name.to_string(),
                format!("{n}"),
                budget.map_or("all".to_string(), |b| format!("{b}")),
                format!("{wall:.2}"),
                format!("{:.1}", report.peak_memory_bytes as f64 / 1e6),
                format!("{}", report.breakdown.spills),
                format!("{}", report.breakdown.fetches),
                format!("{:.1}", report.breakdown.spill_bytes as f64 / 1e6),
                format!("{:.0}", report.breakdown.spill_io_ns() as f64 / 1e6),
            ]);
        }
        println!("... {name} done");
    }
    finish(&t, dir, "table_spill");
    println!(
        "expected: peak memory falls with the budget; fetches sit at the floor of N - B per \
         full sweep (N blocks per rank, B resident), the fewest any policy reads when a \
         wave touches every block once"
    );
}

fn table_server(dir: &Path) {
    // Simulation-as-a-service (PR 9): four tenants submit jobs to one
    // in-process `qcs-server` daemon over loopback TCP and share its
    // global memory budget. The budget is sized for exactly two
    // carve-outs, so two jobs simulate concurrently while the rest
    // queue; the VIP tenant (priority 5) jumps the FIFO queue — if it
    // cannot fit while two priority-0 jobs run, the scheduler suspends
    // one of them to a checkpoint and resumes it later (it may appear
    // twice in the admission order). Every number below comes back over
    // the wire — submissions, per-wave progress, completion reports,
    // and the admission log the budget audit reads.
    use qcs_net::ConnectPolicy;
    use qcs_server::{
        carve_bytes, spawn_loopback, JobClient, JobEnd, JobOut, JobSpec, ServerConfig,
    };

    let cfg = SimConfig::default()
        .with_block_log2(3)
        .with_fixed_bound(ErrorBound::Lossless)
        .with_spill(4)
        .without_fusion();
    let circuit = qft_benchmark_circuit(7, 6);
    let carve = carve_bytes(&cfg, 7);
    let budget = 2 * carve + carve / 2; // two run, the rest wait
    let server = spawn_loopback(ServerConfig {
        budget_bytes: budget,
        ..ServerConfig::default()
    })
    .expect("spawn server");
    let mut client =
        JobClient::connect(&server.addr().to_string(), &ConnectPolicy::default()).expect("connect");

    let tenants: [(&str, u8); 4] = [
        ("tenant-a", 0),
        ("tenant-b", 0),
        ("tenant-c", 0),
        ("vip", 5),
    ];
    let mut jobs = Vec::new();
    for (i, (name, priority)) in tenants.iter().enumerate() {
        let spec = JobSpec::new(*name, circuit.clone(), cfg.clone())
            .with_priority(*priority)
            .with_seed(i as u64 + 1)
            .with_pace_ms(2);
        jobs.push(client.submit(&spec).expect("submit"));
    }

    let mut t = Table::new(vec![
        "job",
        "priority",
        "qubits",
        "carve KiB",
        "waves",
        "end",
        "gates",
        "sim (s)",
    ]);
    for (job, (name, priority)) in jobs.iter().zip(&tenants) {
        let mut waves = 0u64;
        let end = client
            .wait(*job, |out| {
                if matches!(out, JobOut::Wave { .. }) {
                    waves += 1;
                }
            })
            .expect("wait");
        let (state, gates, secs) = match &end {
            JobEnd::Done { report, .. } => (
                "done".to_string(),
                format!("{}", report.gates),
                format!("{:.2}", report.wall_time.as_secs_f64()),
            ),
            JobEnd::Failed(e) => (format!("failed: {e}"), "-".into(), "-".into()),
            JobEnd::Cancelled => ("cancelled".to_string(), "-".into(), "-".into()),
        };
        t.row(vec![
            name.to_string(),
            format!("{priority}"),
            format!("{}", circuit.num_qubits()),
            format!("{:.1}", carve as f64 / 1024.0),
            format!("{waves}"),
            state,
            gates,
            secs,
        ]);
    }

    let health = client.health().expect("health");
    let job_name = |id| {
        jobs.iter()
            .zip(&tenants)
            .find(|(j, _)| **j == id)
            .map_or("?", |(_, (name, _))| *name)
    };
    let order: Vec<&str> = health.admissions.iter().map(|a| job_name(a.job)).collect();
    let peak = health
        .admissions
        .iter()
        .map(|a| a.carved_after)
        .max()
        .unwrap_or(0);
    assert!(
        health.admissions.iter().all(|a| a.carved_after <= a.cap),
        "an admission exceeded the budget"
    );
    assert_eq!(health.carved_bytes, 0, "budget must drain once jobs finish");
    finish(&t, dir, "table_server");
    println!("admission order: {}", order.join(" -> "));
    println!(
        "budget {} KiB; peak carved {} KiB ({:.0}% occupancy); carved after drain {} B",
        budget / 1024,
        peak / 1024,
        100.0 * peak as f64 / budget as f64,
        health.carved_bytes
    );
    server.shutdown();
    println!("expected: all four jobs done; no admission event above the cap; vip admitted ahead of the FIFO queue (possibly by suspending a running tenant, which then resumes)");
}

fn ablation_ladder(dir: &Path) {
    // Adaptive ladder vs fixed bounds on the QFT benchmark.
    let circuit = qft_benchmark_circuit(14, 12);
    let uncompressed = 1u64 << 18;
    let mut t = Table::new(vec![
        "policy",
        "fid(bound)",
        "fid(meas)",
        "min ratio",
        "peak mem KiB",
    ]);
    {
        let mut run = |name: String, cfg: SimConfig| {
            // Ledger charging per gate, as the paper's Eq. 11 assumes.
            let mut sim = CompressedSimulator::new(14, cfg.without_fusion()).expect("sim");
            let mut rng = StdRng::seed_from_u64(0);
            sim.run(&circuit, &mut rng).expect("run");
            let report = sim.report();
            let dense = circuit.simulate_dense(&mut rng);
            let fid = sim.snapshot_dense().expect("snap").fidelity(&dense);
            t.row(vec![
                name,
                format!("{:.4}", report.fidelity_lower_bound),
                format!("{fid:.4}"),
                format!("{:.2}", report.min_compression_ratio),
                format!("{}", report.peak_memory_bytes / 1024),
            ]);
        };
        run(
            "adaptive(budget 25%)".into(),
            SimConfig::default()
                .with_block_log2(8)
                .with_memory_budget(uncompressed / 4),
        );
        for eps in [1e-5, 1e-3, 1e-1] {
            run(
                format!("fixed pwr={eps:.0e}"),
                SimConfig::default()
                    .with_block_log2(8)
                    .with_fixed_bound(ErrorBound::PointwiseRelative(eps)),
            );
        }
        run(
            "lossless only".into(),
            SimConfig::default()
                .with_block_log2(8)
                .with_fixed_bound(ErrorBound::Lossless),
        );
    }
    finish(&t, dir, "ablation_ladder");
    println!("expected: adaptive tracks the budget; fixed 1e-1 destroys fidelity; lossless barely compresses QFT states");
}
