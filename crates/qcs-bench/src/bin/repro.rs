//! `repro` — regenerate and check the tables and figures of the paper's
//! evaluation.
//!
//! Usage: `repro <experiment>... [--csv-dir DIR] [--remote]`. Run it with
//! no experiment for the list; `all` runs every one in order.
//!
//! `--remote` makes `fig5` host its rank workers in `qcsim-workerd`
//! daemon loops over loopback TCP instead of in-process threads, so the
//! ranks×threads sweep pays real socket exchanges.
//!
//! Each experiment prints its table at laptop scale, writes it as CSV
//! under `results/`, and prints its claims, each marked `ok` or `FAIL`. A
//! claim is a predicate over the values the table's deterministic columns
//! are formatted from: ratios, errors, fidelities, bounds, bytes and exact
//! counters. Timed columns are printed and never claimed. After the last
//! experiment `repro` exits with status 1 if any claim failed.

use qcs_bench::comparators::{self, FpzipLike, SolutionA, ZfpLike};
use qcs_bench::{qaoa_snapshot, supremacy_snapshot, Snapshot, Table};
use qcs_circuits::supremacy::{random_circuit, Grid};
use qcs_circuits::{hadamard_wall, qft_benchmark_circuit, Circuit};
use qcs_cluster::max_qubits_for_memory;
use qcs_compress::stats::{
    empirical_cdf, lag1_autocorrelation, max_pointwise_relative_error, spikiness, value_range,
};
use qcs_compress::trunc::truncation_levels;
use qcs_compress::{Codec, CodecId, ErrorBound, PWR_LEVELS};
use qcs_core::{fidelity_curve, CompressedSimulator, SimConfig, SimReport};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Instant;

/// An experiment: `remote` in, table and claims out.
type Experiment = fn(remote: bool) -> Out;

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("table1", table1),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("fig16", fig16),
    ("table2", table2),
    ("table-spill", table_spill),
    ("table-server", table_server),
    ("ablation-cache", ablation_cache),
];

/// What an experiment hands back: its table and its claims.
struct Out {
    table: Table,
    claims: Vec<Claim>,
    /// Written as CSV without being printed (fig9's value dump).
    csv_only: bool,
    /// Appended to the CSV's file stem (`fig5-remote`).
    csv_suffix: &'static str,
}

fn out(table: Table, claims: Vec<Claim>) -> Out {
    Out {
        table,
        claims,
        csv_only: false,
        csv_suffix: "",
    }
}

/// A sentence about an experiment's rows, and whether the rows hold it.
#[derive(Debug)]
struct Claim {
    holds: bool,
    text: String,
}

fn claim(holds: bool, text: impl Into<String>) -> Claim {
    let text = text.into();
    Claim { holds, text }
}

fn main() {
    let mut csv_dir = PathBuf::from("results");
    let mut remote = false;
    let mut cmds = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--csv-dir" => csv_dir = PathBuf::from(args.next().expect("--csv-dir needs a value")),
            "--remote" => remote = true,
            _ => cmds.push(a),
        }
    }
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
    if cmds.is_empty() {
        eprintln!(
            "usage: repro <{}|all> [--csv-dir DIR] [--remote]",
            names.join("|")
        );
        std::process::exit(2);
    }
    if cmds.iter().any(|c| c == "all") {
        cmds = names.iter().map(|n| n.to_string()).collect();
    }
    let find = |cmd: &String| EXPERIMENTS.iter().find(|e| e.0 == cmd);
    if let Some(cmd) = cmds.iter().find(|c| find(c).is_none()) {
        eprintln!("unknown experiment: {cmd}");
        std::process::exit(2);
    }

    let (mut total, mut failed) = (0, 0);
    for (name, experiment) in cmds.iter().filter_map(find) {
        let t0 = Instant::now();
        println!("\n=== {name} ===");
        let out = experiment(remote);
        if !out.csv_only {
            print!("{}", out.table.render());
        }
        let path = csv_dir.join(name.replace('-', "_") + out.csv_suffix + ".csv");
        out.table.write_csv(&path).expect("write csv");
        println!("(csv: {})", path.display());
        for c in &out.claims {
            println!("{} {}", if c.holds { "ok  " } else { "FAIL" }, c.text);
        }
        total += out.claims.len();
        failed += out.claims.iter().filter(|c| !c.holds).count();
        println!("[{name} took {:.1?}]", t0.elapsed());
    }
    if failed > 0 {
        eprintln!("{failed} of {total} claims failed");
        std::process::exit(1);
    }
}

/// A table whose column names are `header`, comma-separated.
fn table(header: &str) -> Table {
    Table::new(header.split(',').collect())
}

/// Paper-scale compressor evaluation snapshots, built once per process.
fn eval_snapshots() -> &'static [Snapshot; 2] {
    static SNAPSHOTS: OnceLock<[Snapshot; 2]> = OnceLock::new();
    SNAPSHOTS.get_or_init(|| [qaoa_snapshot(18, 36), supremacy_snapshot(20, 36)])
}

/// The error bounds Figs. 7, 8, 10 and 11 sweep, loosest first.
const BOUNDS: [f64; 5] = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5];

/// A finished [`run`]: its wall time, report, simulator and rng.
struct Run {
    secs: f64,
    report: SimReport,
    sim: CompressedSimulator,
    rng: StdRng,
}

/// Build a simulator for `circuit`, run it from `seed` and time the run.
fn run(circuit: &Circuit, cfg: SimConfig, seed: u64) -> Run {
    let mut sim = CompressedSimulator::new(circuit.num_qubits() as u32, cfg).expect("sim");
    let mut rng = StdRng::seed_from_u64(seed);
    let t0 = Instant::now();
    sim.run(circuit, &mut rng).expect("run");
    let (secs, report) = (t0.elapsed().as_secs_f64(), sim.report());
    Run {
        secs,
        report,
        sim,
        rng,
    }
}

/// The per-gate pipeline at 2^10-amplitude blocks over `2^ranks_log2`
/// ranks, the paper's gate-at-a-time measurement.
fn per_gate(ranks_log2: u32) -> SimConfig {
    let cfg = SimConfig::default().with_block_log2(10);
    cfg.with_ranks_log2(ranks_log2).without_fusion()
}

/// Whether `xs` rises strictly from one element to the next.
fn rising<T: PartialOrd>(xs: &[T]) -> bool {
    xs.windows(2).all(|w| w[0] < w[1])
}

/// Table 1: max qubits of Summit, Sierra, Sunway TaihuLight and Theta in the paper.
const PAPER_TABLE1: [u32; 4] = [47, 46, 46, 45];

/// Table 1: the supercomputers and the qubits their memory holds.
fn table1(_: bool) -> Out {
    let pb = 1u128 << 50;
    let systems = [
        ("Summit", 28 * pb / 10, 2.8),
        ("Sierra", 138 * pb / 100, 1.38),
        ("Sunway TaihuLight", 131 * pb / 100, 1.31),
        ("Theta", 8 * pb / 10, 0.8),
    ];
    let mut t = table("System,Memory (PB),Max Qubits");
    let mut qubits = Vec::new();
    for (name, bytes, pbs) in systems {
        let q = max_qubits_for_memory(bytes);
        t.row(vec![name.to_string(), format!("{pbs}"), format!("{q}")]);
        qubits.push(q);
    }
    out(t, table1_claims(&qubits))
}

fn table1_claims(qubits: &[u32]) -> Vec<Claim> {
    let text = format!("max qubits {qubits:?} are the paper's {PAPER_TABLE1:?}");
    vec![claim(qubits == PAPER_TABLE1, text)]
}

/// Fig. 5: ranks x threads sweep. Paper: 35-qubit random circuit across
/// (ranks/node x threads/rank) with ranks*threads = 256 KNL threads; best
/// at 128x2. Scaled: an 18-qubit random circuit across real rank workers x
/// rayon threads per worker with ranks*threads = 16, trading inter-rank
/// exchanges against rayon width. With `--remote`, each configuration's
/// ranks are hosted by a `qcsim-workerd` daemon loop on loopback TCP. The
/// optimum is timed, so it is printed and not claimed.
fn fig5(remote: bool) -> Out {
    let circuit = random_circuit(Grid::new(3, 6), 8, 5);
    let mut t = table("Ranks x Threads,Time (s),Normalized,comm (ms),MB exchanged,exch/gate");
    let mut exchanged = Vec::new();
    let mut baseline = None;
    for ranks_log2 in 0..=4u32 {
        let ranks = 1usize << ranks_log2;
        let threads = 16 / ranks;
        let mut cfg = per_gate(ranks_log2)
            .with_threads_per_rank(threads)
            .without_cache();
        let mut daemon = None;
        if remote {
            let (addr, handle) = qcs_core::spawn_loopback(ranks, qcs_core::ServeOptions::default())
                .expect("spawn loopback daemon");
            cfg = cfg.with_remote(vec![addr]);
            daemon = Some(handle);
        }
        // The simulator is dropped here, before the daemon loop is joined.
        let Run { secs, report, .. } = run(&circuit, cfg, 0);
        if let Some(handle) = daemon {
            qcs_core::join_loopback(handle);
        }
        let base = *baseline.get_or_insert(secs);
        let (bytes, per_gate) = (report.breakdown.comm_bytes, report.exchanges_per_gate());
        t.row(vec![
            format!("{ranks}x{threads}"),
            format!("{secs:.3}"),
            format!("{:.1}%", 100.0 * secs / base),
            format!("{:.2}", report.breakdown.comm_ns() as f64 / 1e6),
            format!("{:.2}", bytes as f64 / 1e6),
            format!("{per_gate:.2}"),
        ]);
        exchanged.push((bytes, per_gate));
    }
    let csv_suffix = if remote { "-remote" } else { "" };
    Out {
        csv_suffix,
        ..out(t, fig5_claims(&exchanged))
    }
}

/// `exchanged` holds (bytes exchanged, exchanges per gate) from one rank up.
fn fig5_claims(exchanged: &[(u64, f64)]) -> Vec<Claim> {
    let (bytes, per_gate): (Vec<u64>, Vec<f64>) = exchanged.iter().copied().unzip();
    let none = bytes[0] == 0 && per_gate[0] == 0.0;
    vec![
        claim(none, "one rank exchanges nothing"),
        claim(rising(&bytes), "MB exchanged rises with the rank count"),
        claim(rising(&per_gate), "exch/gate rises with the rank count"),
    ]
}

/// Fig. 6: the Eq. 11 fidelity lower bound against the gate count.
fn fig6(_: bool) -> Out {
    let mut t = table("gates,1e-5,1e-4,1e-3,1e-2,1e-1");
    let mut curves = Vec::new();
    for gates in (0..=5000usize).step_by(250) {
        let fids = PWR_LEVELS.map(|eps| fidelity_curve(eps, gates));
        let mut row = vec![format!("{gates}")];
        row.extend(fids.iter().map(|f| format!("{f:.4}")));
        t.row(row);
        curves.push((gates, fids));
    }
    out(t, fig6_claims(&curves))
}

/// `curves` holds one (gates, fidelity per `PWR_LEVELS` bound) per row.
fn fig6_claims(curves: &[(usize, [f64; 5])]) -> Vec<Claim> {
    let (gates, last) = curves[curves.len() - 1];
    let tight = curves.iter().all(|(_, f)| f[0] >= 0.95);
    let mut late = curves.iter().filter(|c| c.0 >= 250);
    let loose = late.all(|(_, f)| f[4] < 1e-3);
    let text = format!("1e-5 stays >= 0.95 to {gates} gates ({:.4})", last[0]);
    vec![
        claim(tight, text),
        claim(loose, "1e-1 is below 1e-3 from 250 gates on"),
    ]
}

/// Compress both evaluation snapshots at every bound of [`BOUNDS`] with
/// every codec; `header` names the dataset, bound and codec columns. Each
/// row comes back as (bound, each codec's ratio).
fn ratio_sweep(
    header: &str,
    codecs: &[&dyn Codec],
    bound: impl Fn(&Snapshot, f64) -> ErrorBound,
) -> (Table, Vec<(f64, Vec<f64>)>) {
    let mut t = table(header);
    let mut rows = Vec::new();
    for snap in eval_snapshots() {
        for b in BOUNDS {
            let bound = bound(snap, b);
            let ratio = |codec: &&dyn Codec| {
                let enc = codec.compress(&snap.data, bound).expect("compress");
                snap.bytes() as f64 / enc.len() as f64
            };
            let ratios: Vec<f64> = codecs.iter().map(ratio).collect();
            let mut row = vec![snap.name.clone(), format!("{b:.0e}")];
            row.extend(ratios.iter().map(|r| format!("{r:.2}")));
            t.row(row);
            rows.push((b, ratios));
        }
    }
    (t, rows)
}

/// Pointwise relative bound `eps`, whatever the snapshot.
fn pwr(_: &Snapshot, eps: f64) -> ErrorBound {
    ErrorBound::PointwiseRelative(eps)
}

/// Fig. 7: SZ against ZFP at absolute bounds, a fraction of the value
/// range. FPZIP has no absolute-bound mode, so it is absent.
fn fig7(_: bool) -> Out {
    let codecs: [&dyn Codec; 2] = [&SolutionA::default(), &ZfpLike];
    let (t, rows) = ratio_sweep("dataset,bound(xrange),SZ,ZFP", &codecs, |snap, frac| {
        ErrorBound::Absolute(frac * value_range(&snap.data))
    });
    out(t, fig7_claims(&rows))
}

fn fig7_claims(rows: &[(f64, Vec<f64>)]) -> Vec<Claim> {
    let over = rows.iter().map(|(_, r)| r[0] / r[1]);
    let lo = over.clone().fold(f64::INFINITY, f64::min);
    let hi = over.fold(0.0, f64::max);
    let text = format!("SZ is above ZFP on every row ({lo:.1}x to {hi:.1}x)");
    vec![claim(lo > 1.0, text)]
}

/// Fig. 8: SZ against FPZIP and ZFP at pointwise relative bounds.
fn fig8(_: bool) -> Out {
    let codecs: [&dyn Codec; 3] = [&SolutionA::default(), &FpzipLike, &ZfpLike];
    let (t, rows) = ratio_sweep("dataset,bound,SZ,FPZIP,ZFP", &codecs, pwr);
    out(t, fig8_claims(&rows))
}

fn fig8_claims(rows: &[(f64, Vec<f64>)]) -> Vec<Claim> {
    let mut loose = rows.iter().filter(|(b, _)| *b > 1e-5);
    let mut tight = rows.iter().filter(|(b, _)| *b == 1e-5);
    let above = loose.all(|(_, r)| r[0] > r[1].max(r[2]));
    let below = tight.all(|(_, r)| r[0] < r[1].min(r[2]));
    vec![
        claim(above, "SZ is above FPZIP and ZFP from 1e-1 to 1e-4"),
        claim(below, "SZ is below FPZIP and ZFP at 1e-5"),
    ]
}

/// Fig. 10: Solutions A-D at pointwise relative bounds.
fn fig10(_: bool) -> Out {
    let solutions = comparators::solutions();
    let codecs: Vec<&dyn Codec> = solutions.iter().map(|(_, c)| c.as_ref()).collect();
    let (t, rows) = ratio_sweep("dataset,bound,Sol.A,Sol.B,Sol.C,Sol.D", &codecs, pwr);
    out(t, fig10_claims(&rows))
}

/// Each row's ratios are Solutions A, B, C and D in turn.
fn fig10_claims(rows: &[(f64, Vec<f64>)]) -> Vec<Claim> {
    let at = |lo, hi| {
        rows.iter()
            .filter(move |(b, _)| lo <= *b && *b <= hi)
            .map(|r| &r.1)
    };
    let below = at(1e-3, 1e-1).all(|r| r[2].max(r[3]) < r[0].min(r[1]));
    let below_a = at(1e-4, 1e-4).all(|r| r[2].max(r[3]) < r[0]);
    let above = at(1e-5, 1e-5).all(|r| r[2].min(r[3]) > r[0].max(r[1]));
    let close = at(1e-5, 1e-1).all(|r| (r[2] - r[3]).abs() <= 0.02 * r[2]);
    vec![
        claim(below, "C and D are below min(A, B) from 1e-1 to 1e-3"),
        claim(below_a, "C and D are below A at 1e-4"),
        claim(above, "C and D are above A and B at 1e-5"),
        claim(close, "|C - D| is at most 2 % of C on every row"),
    ]
}

/// Fig. 9: the snapshots' first 2 000 values and their spikiness.
fn fig9(_: bool) -> Out {
    let mut t = table("dataset,index,value");
    let mut spiky = Vec::new();
    for snap in eval_snapshots() {
        for (i, v) in snap.data.iter().take(2000).enumerate() {
            t.row(vec![snap.name.clone(), format!("{i}"), format!("{v:e}")]);
        }
        spiky.push((snap.name.clone(), spikiness(&snap.data)));
    }
    Out {
        csv_only: true,
        ..out(t, fig9_claims(&spiky))
    }
}

/// Spikiness is mean |first difference| / mean |value|: smooth data reads
/// about 0, alternating data about 2.
fn fig9_claims(spiky: &[(String, f64)]) -> Vec<Claim> {
    let high = |(name, s): &(String, f64)| claim(*s > 1.0, format!("{name}: spikiness {s:.2} > 1"));
    spiky.iter().map(high).collect()
}

/// Fig. 11: compression and decompression rates of Solutions A-D. Every
/// column is timed, so it claims nothing.
fn fig11(_: bool) -> Out {
    let mut t = table("dataset,bound,metric,Sol.A,Sol.B,Sol.C,Sol.D");
    for snap in eval_snapshots() {
        let mb = snap.bytes() as f64 / 1e6;
        for eps in BOUNDS {
            let label = |metric: &str| vec![snap.name.clone(), format!("{eps:.0e}"), metric.into()];
            let (mut cmp_row, mut dec_row) = (label("cmpr MB/s"), label("decmpr MB/s"));
            for (_, codec) in comparators::solutions() {
                let (bound, t0) = (pwr(snap, eps), Instant::now());
                let enc = codec.compress(&snap.data, bound).expect("compress");
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
    out(t, vec![])
}

/// Fig. 12: quantiles of each solution's per-block max relative error.
fn fig12(_: bool) -> Out {
    let block = 1usize << 14; // doubles per block
    let mut t = table("dataset,bound,codec,min,median,p90,max");
    let mut rows = Vec::new();
    for snap in eval_snapshots() {
        for eps in [1e-2, 1e-4] {
            for (id, codec) in comparators::solutions() {
                let block_max = |chunk: &[f64]| {
                    let enc = codec.compress(chunk, pwr(snap, eps)).expect("compress");
                    let dec = codec.decompress(&enc).expect("decompress");
                    max_pointwise_relative_error(chunk, &dec)
                };
                let mut maxes: Vec<f64> = snap.data.chunks(block).map(block_max).collect();
                maxes.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let q =
                    [0.0, 0.5, 0.9, 1.0].map(|f| maxes[((maxes.len() - 1) as f64 * f) as usize]);
                let mut row = vec![snap.name.clone(), format!("{eps:.0e}"), id.to_string()];
                row.extend(q.iter().map(|v| format!("{v:.2e}")));
                t.row(row);
                rows.push((eps, q));
            }
        }
    }
    out(t, fig12_claims(&rows))
}

/// `rows` holds (bound, min/median/p90/max of the per-block max error) of
/// Solutions A, B, C and D in turn for each dataset and bound.
fn fig12_claims(rows: &[(f64, [f64; 4])]) -> Vec<Claim> {
    let within = rows.iter().all(|(b, q)| q[3] <= *b);
    let same = rows.chunks(4).all(|g| g[2].1 == g[3].1);
    let lower = rows.chunks(4).all(|g| g[2].1[3] < g[0].1[0]);
    vec![
        claim(within, "every max is within its bound"),
        claim(same, "C's and D's quantiles are equal"),
        claim(lower, "C's max is below A's min"),
    ]
}

/// Fig. 13: the truncations of 3.9921875 the paper lists: value and relative error.
const PAPER_FIG13: [(f64, f64); 3] = [
    (3.984375, 0.001957),
    (3.96875, 0.005871),
    (3.9375, 0.013699),
];

/// Fig. 13: the discrete error levels of mantissa truncation.
fn fig13(_: bool) -> Out {
    let mut t = table("mantissa bits kept,value,relative error");
    let mut levels = Vec::new();
    for level in truncation_levels(3.9921875, 8) {
        let (bits, v, e) = (level.mantissa_bits, level.value, level.relative_error);
        t.row(vec![format!("{bits}"), format!("{v}"), format!("{e:.6}")]);
        levels.push((v, e));
    }
    out(t, fig13_claims(&levels))
}

/// `levels` holds (value, relative error), all 8 mantissa bits first. The
/// paper prints errors to 6 decimals.
fn fig13_claims(levels: &[(f64, f64)]) -> Vec<Claim> {
    let paper = |(i, &(value, error)): (usize, &(f64, f64))| {
        let level = levels.get(i + 1);
        let holds = level.is_some_and(|&(v, e)| v == value && (e - error).abs() < 5e-7);
        let text = format!("{} bit(s) dropped: {value}, error {error}", i + 1);
        claim(holds, text)
    };
    PAPER_FIG13.iter().enumerate().map(paper).collect()
}

/// Fig. 14: Solution C's normalized error distribution and its lag-1
/// autocorrelation.
fn fig14(_: bool) -> Out {
    let codec = CodecId::SolutionC.build();
    let mut t = table("dataset,bound,cdf@-0.5,cdf@0,cdf@0.5,lag1-autocorr");
    let mut rows = Vec::new();
    for snap in eval_snapshots() {
        for eps in PWR_LEVELS {
            let bound = pwr(snap, eps);
            let enc = codec.compress(&snap.data, bound).expect("compress");
            let dec = codec.decompress(&enc).expect("decompress");
            let norm = qcs_compress::stats::normalized_errors(&snap.data, &dec, eps);
            let cdf = empirical_cdf(&norm, &[-0.5, 0.0, 0.5]);
            let pairs = snap.data.iter().zip(&dec).filter(|(a, _)| **a != 0.0);
            let errors: Vec<f64> = pairs.map(|(a, b)| (a - b) / a.abs()).collect();
            let lag1 = lag1_autocorrelation(&errors);
            let mut row = vec![snap.name.clone(), format!("{eps:.0e}")];
            row.extend(cdf.iter().map(|c| format!("{:.3}", c.1)));
            row.push(format!("{lag1:+.2e}"));
            t.row(row);
            rows.push((norm.iter().fold(0.0, |m: f64, v| m.max(v.abs())), lag1));
        }
    }
    out(t, fig14_claims(&rows))
}

/// `rows` holds (largest |normalized error|, lag-1 autocorrelation).
fn fig14_claims(rows: &[(f64, f64)]) -> Vec<Claim> {
    let norm = rows.iter().fold(0.0, |m: f64, r| m.max(r.0));
    let lag1 = rows.iter().fold(0.0, |m: f64, r| m.max(r.1.abs()));
    let norm_text = format!("every |normalized error| is at most 1 (max {norm:.3})");
    let lag1_text = format!("every |lag-1 autocorr| is at most 0.01 (max {lag1:.2e})");
    vec![
        claim(norm <= 1.0, norm_text),
        claim(lag1 <= 0.01, lag1_text),
    ]
}

/// Fig. 15: single-node scaling over the qubit count. Paper: one H per
/// qubit at 34-40 qubits, normalized time on one node. Scaled to 18-24
/// qubits; the wall is applied three times so the smallest sizes are not
/// timer-noise dominated. Every column is timed, so it claims nothing.
fn fig15(_: bool) -> Out {
    let mut t = table("qubits,time (s),normalized");
    let mut base = None;
    for n in 18..=24usize {
        let mut circuit = hadamard_wall(n);
        let wall = circuit.clone();
        circuit.extend(&wall);
        circuit.extend(&wall);
        let secs = run(&circuit, per_gate(2).without_cache(), 0).secs;
        let b = *base.get_or_insert(secs);
        t.row(vec![
            format!("{n}"),
            format!("{secs:.3}"),
            format!("{:.1}%", 100.0 * secs / b),
        ]);
    }
    out(t, vec![])
}

/// Fig. 16: strong scaling. Paper: 51-qubit H-wall across 128/256/512
/// Theta nodes (speedups 1 / 1.698 / 2.84 vs ideal 1 / 2 / 4). Scaled:
/// 22-qubit H-wall on a fixed 4-rank-worker cluster, growing the rayon
/// width inside each rank worker (4/8/16 total threads). Every measured
/// column is timed, so it claims nothing.
fn fig16(_: bool) -> Out {
    let circuit = hadamard_wall(22);
    let mut t = table("threads,time (s),speedup,ideal");
    let mut base = None;
    for threads_per_rank in [1usize, 2, 4] {
        let cfg = per_gate(2)
            .with_threads_per_rank(threads_per_rank)
            .without_cache();
        let secs = run(&circuit, cfg, 0).secs;
        let b = *base.get_or_insert(secs);
        let speedup = format!("{:.2}", b / secs);
        let (threads, ideal) = (4 * threads_per_rank, format!("{threads_per_rank}"));
        t.row(vec![
            format!("{threads}"),
            format!("{secs:.3}"),
            speedup,
            ideal,
        ]);
    }
    out(t, vec![])
}

/// Table 2: the main benchmark results under a memory budget.
fn table2(_: bool) -> Out {
    // (name, circuit, memory budget as a fraction of 2^{n+4}).
    let mut benches: Vec<(&'static str, Circuit, f64)> = Vec::new();
    // Grover (X/Toffoli oracle with ancillas), full amplification at small
    // data sizes: paper runs 47-61 qubits at 0.002%-1.17% memory.
    for (nd, frac) in [(13usize, 0.004), (12, 0.008), (11, 0.016)] {
        let target = qcs_circuits::grover::sqrt_target(nd, 289);
        let iters = qcs_circuits::optimal_iterations(nd);
        benches.push((
            "grover",
            qcs_circuits::grover_circuit_toffoli(nd, target, iters),
            frac,
        ));
    }
    // Random circuit sampling, depth 11 (paper: 5x9..7x5 at 18.75-37.5%).
    for (r, c) in [(4usize, 5usize), (4, 4)] {
        benches.push(("rcs", random_circuit(Grid::new(r, c), 11, 2019), 0.375));
    }
    // QAOA (paper: 42-45 qubits at 37.5%; laptop-scale states carry more
    // per-block overhead, so the equivalent pressure point is higher).
    for n in [20usize, 18] {
        let g = qcs_circuits::random_regular_graph(n, 4, 7);
        let params = qcs_circuits::QaoaParams::standard(1);
        benches.push(("qaoa", qcs_circuits::qaoa_circuit(&g, &params), 0.5));
    }
    // QFT (paper: 36 qubits at 18.75%).
    benches.push(("qft", qft_benchmark_circuit(16, 12), 0.25));

    let mut t = table(
        "benchmark,qubits,gates,mem/req,time(s),cmpr%,decmpr%,comm%,compute%,ms/gate,MB exch,\
         fid(bound),fid(meas),min ratio",
    );
    let mut rows = Vec::new();
    for (name, circuit, budget_frac) in benches {
        let n = circuit.num_qubits() as u32;
        let budget = ((1u64 << (n + 4)) as f64 * budget_frac) as u64;
        let cfg = per_gate(2).with_memory_budget(budget);
        let Run {
            secs,
            report,
            sim,
            mut rng,
        } = run(&circuit, cfg, 1);
        // Measured fidelity vs the dense reference.
        let dense = circuit.simulate_dense(&mut rng);
        let fid = sim.snapshot_dense().expect("snapshot").fidelity(&dense);
        let pct = report.breakdown.percentages();
        t.row(vec![
            name.to_string(),
            format!("{n}"),
            format!("{}", report.gates),
            format!("{:.1}%", 100.0 * budget_frac),
            format!("{secs:.1}"),
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
        eprintln!("... {name} n={n} done");
        let (bound, ratio) = (report.fidelity_lower_bound, report.min_compression_ratio);
        rows.push((name, bound, fid, ratio));
    }
    out(t, table2_claims(&rows))
}

/// `rows` holds (benchmark, fid(bound), fid(meas), min ratio).
fn table2_claims(rows: &[(&str, f64, f64, f64)]) -> Vec<Claim> {
    // A lossless run's measured fidelity is 1 only up to rounding.
    let fid = rows.iter().all(|r| r.2 >= r.1 - 1e-9);
    let ratios = |grover: bool| rows.iter().filter(move |r| (r.0 == "grover") == grover);
    let grover = ratios(true).map(|r| r.3).fold(f64::INFINITY, f64::min);
    let rest = ratios(false).map(|r| r.3).fold(0.0, f64::max);
    let text =
        format!("every grover min ratio is above every other row's ({grover:.2} > {rest:.2})");
    vec![
        claim(fid, "fid(meas) is at least fid(bound) on every row"),
        claim(grover > rest, text),
    ]
}

/// The out-of-core tier: memory budget (resident compressed blocks per
/// rank) against spill traffic on the deep-QFT and supremacy workloads.
/// "all" keeps every block resident (the paper's regime); smaller budgets
/// push more of the working set to the per-rank segment file. Victims are
/// Belady's MIN over the running wave's slots, so a wave that touches
/// every block once fetches N - B of them.
fn table_spill(_: bool) -> Out {
    let workloads = [
        ("qft_18", qft_benchmark_circuit(18, 12)),
        ("sup_16", random_circuit(Grid::new(4, 4), 11, 2019)),
    ];
    let mut t =
        table("workload,qubits,budget (blk),wall (s),peak MB,spills,fetches,spill MB,io (ms)");
    let mut claims = Vec::new();
    for (workload, circuit) in workloads {
        let n = circuit.num_qubits();
        let blocks = 1u64 << (n - 10); // block_log2 = 10, one rank
        let mut budgets = vec![None, Some(blocks / 4), Some(blocks / 16), Some(4)];
        budgets.dedup();
        let mut rows = Vec::new();
        for budget in budgets {
            let mut cfg = SimConfig::default().with_block_log2(10);
            if let Some(b) = budget {
                cfg = cfg.with_spill(b as usize);
            }
            let Run { secs, report, .. } = run(&circuit, cfg, 0);
            let (tb, peak_bytes) = (&report.breakdown, report.peak_memory_bytes);
            t.row(vec![
                workload.to_string(),
                format!("{n}"),
                budget.map_or("all".to_string(), |b| format!("{b}")),
                format!("{secs:.2}"),
                format!("{:.1}", peak_bytes as f64 / 1e6),
                format!("{}", tb.spills),
                format!("{}", tb.fetches),
                format!("{:.1}", tb.spill_bytes as f64 / 1e6),
                format!("{:.0}", tb.spill_io_ns() as f64 / 1e6),
            ]);
            rows.push((budget, peak_bytes, tb.fetches));
        }
        claims.extend(table_spill_claims(workload, blocks, &rows));
    }
    out(t, claims)
}

/// `rows` holds (resident blocks B, peak bytes, fetches) of workload `w`
/// at each budget, every one of its `blocks` (N) resident first.
fn table_spill_claims(w: &str, blocks: u64, rows: &[(Option<u64>, u64, u64)]) -> Vec<Claim> {
    let peaks: Vec<u64> = rows.iter().rev().map(|r| r.1).collect();
    let falls = format!("{w}: peak MB falls as the budget shrinks");
    // (fetches, N - B) of each spilled row, compared as exact fractions.
    let sweeps: Vec<(u64, u64)> = rows
        .iter()
        .filter_map(|r| Some((r.2, blocks - r.0?)))
        .collect();
    let (f0, s0) = sweeps[0];
    let equal = sweeps.iter().all(|&(f, s)| f * s0 == f0 * s);
    let per_sweep = f0 as f64 / s0 as f64;
    let text = format!("{w}: fetches / (N - B) is equal on every spilled row ({per_sweep})");
    vec![claim(rising(&peaks), falls), claim(equal, text)]
}

/// Simulation as a service: four tenants submit jobs to one in-process
/// `qcs-server` daemon over loopback TCP. The budget fits two carve-outs,
/// so two jobs run while the rest queue; the priority-5 VIP jumps the FIFO
/// queue, suspending a running tenant to a checkpoint if it must. A
/// resumed job counts its gates from its checkpoint, so the gates column
/// is not claimed.
fn table_server(_: bool) -> Out {
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
    let budget_bytes = 2 * carve + carve / 2; // two run, the rest wait
    let server_cfg = ServerConfig {
        budget_bytes,
        ..ServerConfig::default()
    };
    let server = spawn_loopback(server_cfg).expect("spawn server");
    let addr = server.addr().to_string();
    let mut client = JobClient::connect(&addr, &ConnectPolicy::default()).expect("connect");

    let tenants = ["tenant-a", "tenant-b", "tenant-c", "vip"];
    let priority = |name| if name == "vip" { 5 } else { 0 };
    let mut jobs = Vec::new();
    for (i, name) in tenants.iter().enumerate() {
        let spec = JobSpec::new(*name, circuit.clone(), cfg.clone())
            .with_priority(priority(*name))
            .with_seed(i as u64 + 1)
            .with_pace_ms(2);
        jobs.push(client.submit(&spec).expect("submit"));
    }

    let mut t = table("job,priority,qubits,carve KiB,waves,end,gates,sim (s)");
    let mut done = Vec::new();
    for (job, name) in jobs.iter().zip(tenants) {
        let mut waves = 0u64;
        let count = |out: &JobOut| waves += matches!(out, JobOut::Wave { .. }) as u64;
        let end = client.wait(*job, count).expect("wait");
        let (state, gates, secs) = match &end {
            JobEnd::Done { report, .. } => {
                let secs = format!("{:.2}", report.wall_time.as_secs_f64());
                ("done".to_string(), format!("{}", report.gates), secs)
            }
            JobEnd::Failed(e) => (format!("failed: {e}"), "-".into(), "-".into()),
            JobEnd::Cancelled => ("cancelled".to_string(), "-".into(), "-".into()),
        };
        done.push(matches!(end, JobEnd::Done { .. }));
        t.row(vec![
            name.to_string(),
            format!("{}", priority(name)),
            format!("{}", circuit.num_qubits()),
            format!("{:.1}", carve as f64 / 1024.0),
            format!("{waves}"),
            state,
            gates,
            secs,
        ]);
    }

    let health = client.health().expect("health");
    server.shutdown();
    let tenant = |id| {
        jobs.iter()
            .position(|j| *j == id)
            .map_or("?", |i| tenants[i])
    };
    let (mut admissions, mut order) = (Vec::new(), Vec::new());
    for a in &health.admissions {
        admissions.push((a.carved_after, a.cap));
        order.push(tenant(a.job));
    }
    let claims = table_server_claims(&done, &admissions, health.carved_bytes, &order);
    out(t, claims)
}

/// Whether each job ended done; (carved bytes after, cap) and tenant of
/// each admission (a resumed job is admitted twice); carved bytes once
/// every job has ended.
fn table_server_claims(
    done: &[bool],
    admissions: &[(u64, u64)],
    drained: u64,
    order: &[&str],
) -> Vec<Claim> {
    let all_done = !done.is_empty() && done.iter().all(|d| *d);
    let capped = admissions.iter().all(|(carved, cap)| carved <= cap);
    let peak = admissions.iter().map(|a| a.0).max().unwrap_or(0);
    let cap = admissions.iter().map(|a| a.1).min().unwrap_or(0);
    let first = |name| order.iter().position(|t| *t == name);
    let vip_first = matches!((first("vip"), first("tenant-c")), (Some(v), Some(c)) if v < c);
    let order = format!("vip is admitted before tenant-c ({})", order.join(" -> "));
    vec![
        claim(all_done, format!("all {} jobs are done", done.len())),
        claim(
            capped,
            format!("no admission carves above the cap ({peak} of {cap} B)"),
        ),
        claim(drained == 0, format!("the budget drains to {drained} B")),
        claim(vip_first, order),
    ]
}

/// The Sec. 3.4 compressed-block cache on a structured (grover) and a
/// random (rcs) circuit. At two ranks the hit/miss counters race, so the
/// claims carry margins instead of exact counts. Speed is timed and not
/// claimed; rcs also runs with the cache off for a timed reference,
/// grover (about 45 s uncached) does not.
fn ablation_cache(_: bool) -> Out {
    let mut t = table("circuit,cache,time (s),hits,misses");
    let target = qcs_circuits::grover::sqrt_target(11, 289);
    let iters = qcs_circuits::optimal_iterations(11);
    let grover = qcs_circuits::grover_circuit_toffoli(11, target, iters);
    let rcs = random_circuit(Grid::new(4, 4), 11, 3);
    // (hits, misses) of each circuit's cached run.
    let mut lookups = Vec::new();
    let runs: [(&str, &Circuit, &[bool]); 2] =
        [("grover", &grover, &[true]), ("rcs", &rcs, &[true, false])];
    for (name, circuit, caches) in runs {
        for &cache in caches {
            let mut cfg = per_gate(1).with_block_log2(9);
            if !cache {
                cfg = cfg.without_cache();
            }
            let Run { secs, report, .. } = run(circuit, cfg, 0);
            let (hits, misses) = (report.cache_hits, report.cache_misses);
            t.row(vec![
                name.to_string(),
                format!("{cache}"),
                format!("{secs:.2}"),
                format!("{hits}"),
                format!("{misses}"),
            ]);
            if cache {
                lookups.push((hits, misses));
            }
        }
    }
    out(t, ablation_cache_claims(lookups[0], lookups[1]))
}

/// `grover` and `rcs` are the cached runs' (hits, misses).
fn ablation_cache_claims(grover: (u64, u64), rcs: (u64, u64)) -> Vec<Claim> {
    let share = 100.0 * grover.0 as f64 / (grover.0 + grover.1).max(1) as f64;
    let share_text = format!("grover: hits are at least 99 % of lookups ({share:.1} %)");
    let rcs_text = format!("rcs: the cache hits ({} of {})", rcs.0, rcs.0 + rcs.1);
    vec![claim(share >= 99.0, share_text), claim(rcs.0 > 0, rcs_text)]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every claim holds on `good`, and at least one fails on `bad`.
    fn rejects(name: &str, good: Vec<Claim>, bad: Vec<Claim>) {
        assert!(good.iter().all(|c| c.holds), "{name}: {good:?}");
        assert!(bad.iter().any(|c| !c.holds), "{name}: {bad:?}");
    }

    fn rows(rows: &[(f64, &[f64])]) -> Vec<(f64, Vec<f64>)> {
        rows.iter().map(|(b, r)| (*b, r.to_vec())).collect()
    }

    #[test]
    fn experiment_names_are_unique() {
        let names: std::collections::HashSet<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
        assert_eq!(names.len(), EXPERIMENTS.len());
    }

    /// Each claim function holds on rows like the measured ones and
    /// rejects them with one value contradicted.
    #[test]
    fn each_claim_function_rejects_a_contradicting_row() {
        rejects(
            "table1_claims",
            table1(false).claims,
            table1_claims(&[47, 46, 46, 44]),
        );
        let fig5 = |mb| fig5_claims(&[(0, 0.0), (3, 5.7), (6, 12.8), (mb, 20.6), (16, 28.4)]);
        rejects("fig5_claims", fig5(11), fig5(5));
        let fig6_bad = fig6_claims(&[(5000, [0.94, 0.6, 0.0, 0.0, 0.0])]);
        rejects("fig6_claims", fig6(false).claims, fig6_bad);
        let fig7 = |sz| fig7_claims(&rows(&[(1e-1, &[64.65, 5.26]), (1e-5, &[sz, 2.33])]));
        rejects("fig7_claims", fig7(4.26), fig7(2.0));
        let fig8 = |sz| rows(&[(1e-4, &[3.89, 2.34, 2.04]), (1e-5, &[sz, 2.16, 1.86])]);
        rejects(
            "fig8_claims",
            fig8_claims(&fig8(1.33)),
            fig8_claims(&fig8(2.5)),
        );
        let fig9 = |s| fig9_claims(&[("qaoa_18".into(), s)]);
        rejects("fig9_claims", fig9(1.42), fig9(0.3));
        let fig10 = |c| {
            fig10_claims(&rows(&[
                (1e-1, &[10.42, 10.37, 5.00, 4.97]),
                (1e-2, &[6.79, 6.77, c, c]),
                (1e-3, &[5.01, 5.00, 2.97, 2.96]),
                (1e-4, &[3.89, 2.20, 2.07, 2.08]),
                (1e-5, &[1.33, 1.05, 2.00, 2.01]),
            ]))
        };
        rejects("fig10_claims", fig10(3.57), fig10(7.0));
        let fig12 = |c_max| {
            let c = [7.6e-3, 7.7e-3, 7.7e-3, c_max];
            fig12_claims(&[[9.8e-3; 4], [9.8e-3; 4], c, c].map(|q| (1e-2, q)))
        };
        rejects("fig12_claims", fig12(7.75e-3), fig12(1.1e-2));
        let fig13_bad = fig13_claims(&[(3.9921875, 0.0), (3.984375, 0.001957), (3.96875, 0.0059)]);
        rejects("fig13_claims", fig13(false).claims, fig13_bad);
        let fig14 = |lag1| fig14_claims(&[(0.99, -1.84e-3), (0.99, lag1)]);
        rejects("fig14_claims", fig14(2.19e-3), fig14(0.02));
        let table2 = |fid| table2_claims(&[("grover", 0.99, 1.0, 40.0), ("rcs", 0.9, fid, 2.0)]);
        rejects("table2_claims", table2(0.95), table2(0.85));
        let spill = |f| {
            [
                (None, 9_000, 0),
                (Some(64), 7_000, 7_776),
                (Some(16), 5_000, f),
            ]
        };
        let spill = |f| table_spill_claims("qft_18", 256, &spill(f));
        rejects("table_spill_claims", spill(9_720), spill(9_721));
        let server = |order: &[&str]| table_server_claims(&[true; 4], &[(100, 250); 5], 0, order);
        let vip_then_c = server(&["tenant-a", "tenant-b", "vip", "tenant-b", "tenant-c"]);
        let c_then_vip = server(&["tenant-a", "tenant-b", "tenant-c", "vip", "tenant-b"]);
        rejects("table_server_claims", vip_then_c, c_then_vip);
        let cache = |hits| ablation_cache_claims((4_735_841, 15_519), (hits, 9_504 - hits));
        rejects("ablation_cache_claims", cache(4_079), cache(0));
    }
}
