//! Staleness matrix and determinism pins for the per-rank query summary
//! and the per-qubit `prob_one` memo.
//!
//! `norm_sqr`, `sample` (its weights) and `expectation_zz` are answered
//! from a summary each rank builds on the first such query after a
//! mutation, and `prob_one(q)` from a memo the first `prob_one(q)` after a
//! mutation fills. A summary or memo that outlives the state it describes
//! would return plausible, wrong numbers, so every kind of mutation is
//! driven here against *warm* ones, and the answers afterwards must equal
//! — bit for bit — those of a fresh engine restored from a checkpoint of
//! the mutated state, which has never seen the earlier state at all.
//!
//! Which line of `RankWorker::handle` each case guards (routing that arm
//! around `RankWorker::mutate` fails the case):
//!
//! | case       | mutation through the public API        | arm          |
//! |------------|----------------------------------------|--------------|
//! | gate       | `apply_op` of an inter-block gate      | `Gate`       |
//! | batch      | `apply_batch` of three in-block gates  | `Batch`      |
//! | exchange   | `apply_op` on the top qubit, 2 ranks   | `Exchange`   |
//! | measure    | `measure`                              | `Collapse`   |
//! | escalation | a gate that trips the memory budget    | (*)          |
//! | restore    | checkpoint save → load                 | constructor  |
//!
//! (*) The public API only reaches `Recompress` right after a gate or a
//! collapse, which has already dropped the summary, so this case needs
//! `Gate` *and* `Recompress` broken to fail; the `Recompress` arm is
//! isolated at the worker level in `src/query_check.rs`
//! (`recompress_drops_a_warm_summary`).

use qcs_circuits::schedule::{schedule_circuit, ScheduledOp};
use qcs_circuits::supremacy::{random_circuit, Grid};
use qcs_circuits::{Circuit, GateBatch, Op};
use qcs_compress::ErrorBound;
use qcs_core::{checkpoint, CompressedSimulator, ServeOptions, SimConfig};
use qcs_statevec::GateKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

const QUBITS: usize = 8;
const BLOCK_LOG2: u32 = 3;

/// Everything the summary and the `prob_one` memo answer, as bits.
#[derive(Debug, PartialEq, Eq)]
struct Answers {
    norm: u64,
    zz: Vec<u64>,
    samples: Vec<u64>,
    prob_one: Vec<u64>,
}

fn answers(sim: &CompressedSimulator) -> Answers {
    let n = sim.num_qubits() as usize;
    let mut zz = Vec::new();
    for b in 1..n {
        for a in 0..b {
            zz.push(sim.expectation_zz(a, b).expect("zz").to_bits());
        }
    }
    let mut rng = StdRng::seed_from_u64(0x5a17);
    Answers {
        norm: sim.norm_sqr().expect("norm").to_bits(),
        zz,
        samples: (0..32)
            .map(|_| sim.sample(&mut rng).expect("sample"))
            .collect(),
        prob_one: prob_one_bits(sim),
    }
}

/// `prob_one` on every qubit, as bits.
fn prob_one_bits(sim: &CompressedSimulator) -> Vec<u64> {
    (0..sim.num_qubits() as usize)
        .map(|q| sim.prob_one(q).expect("prob_one").to_bits())
        .collect()
}

fn tmp_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("qcs-staleness-{tag}-{}.ckpt", std::process::id()));
    p
}

/// A fresh engine holding exactly `sim`'s state: restored from a
/// checkpoint, in process, whatever backend `sim` runs on.
fn restored(sim: &CompressedSimulator, cfg: &SimConfig, tag: &str) -> CompressedSimulator {
    let path = tmp_path(tag);
    checkpoint::save(sim, &path).expect("save");
    let mut cfg = cfg.clone();
    cfg.remote = None;
    let fresh = checkpoint::load(&path, cfg).expect("load");
    std::fs::remove_file(&path).ok();
    fresh
}

/// A fresh engine run into a generic entangled state: every block and
/// both ranks carry weight.
fn prepared(cfg: &SimConfig) -> CompressedSimulator {
    let mut sim = CompressedSimulator::new(QUBITS as u32, cfg.clone()).expect("sim");
    let circuit = random_circuit(Grid::new(2, 4), 6, 17);
    sim.run(&circuit, &mut StdRng::seed_from_u64(1))
        .expect("prepare");
    sim
}

fn in_block_batch() -> GateBatch {
    let mut c = Circuit::new(QUBITS);
    c.h(0).t(1).h(2);
    let policy = SimConfig::default()
        .with_block_log2(BLOCK_LOG2)
        .fusion_policy();
    let schedule = schedule_circuit(&c, &policy);
    schedule
        .items()
        .iter()
        .find_map(|item| match item {
            ScheduledOp::Batch(b) => Some(b.clone()),
            _ => None,
        })
        .expect("three in-block gates schedule as a batch")
}

type Mutation = (&'static str, fn(&mut CompressedSimulator));

fn mutations() -> Vec<Mutation> {
    vec![
        ("gate", |sim| {
            // Qubit 4 routes inter-block at ranks_log2 0 and 1.
            let op = Op::Gate {
                gate: GateKind::H,
                controls: vec![],
                target: 4,
            };
            sim.apply_op(&op, &mut StdRng::seed_from_u64(2))
                .expect("gate");
        }),
        ("batch", |sim| {
            sim.apply_batch(&in_block_batch()).expect("batch");
        }),
        ("exchange", |sim| {
            // The top qubit: an inter-rank exchange whenever there are
            // two ranks, an inter-block gate otherwise.
            let op = Op::Gate {
                gate: GateKind::H,
                controls: vec![],
                target: QUBITS - 1,
            };
            sim.apply_op(&op, &mut StdRng::seed_from_u64(3))
                .expect("exchange");
        }),
        ("measure", |sim| {
            // A block-index qubit: half the blocks collapse to zero.
            sim.measure(5, &mut StdRng::seed_from_u64(4))
                .expect("measure");
        }),
    ]
}

/// Warm `sim`'s summaries, mutate, and compare with a fresh engine
/// restored from the post-mutation checkpoint.
fn check_mutation(
    mut sim: CompressedSimulator,
    cfg: &SimConfig,
    tag: &str,
    mutate: fn(&mut CompressedSimulator),
) {
    let before = answers(&sim); // warms every rank's summary
    mutate(&mut sim);
    let after = answers(&sim);
    let fresh = restored(&sim, cfg, tag);
    assert_eq!(
        after,
        answers(&fresh),
        "{tag}: answers after the mutation came from a stale summary"
    );
    assert_ne!(
        before, after,
        "{tag}: precondition — the mutation must change the answers"
    );
    assert_eq!(after, answers(&sim), "{tag}: warm answers moved");
}

fn configs() -> Vec<(String, SimConfig)> {
    let mut out = Vec::new();
    for ranks_log2 in [0u32, 1] {
        for spill in [false, true] {
            let mut cfg = SimConfig::default()
                .with_block_log2(BLOCK_LOG2)
                .with_ranks_log2(ranks_log2);
            if spill {
                cfg = cfg.with_spill(2);
            }
            out.push((format!("r{ranks_log2}-spill{}", spill as u8), cfg));
        }
    }
    out
}

#[test]
fn every_mutation_drops_the_summary_in_process() {
    for (tag, cfg) in configs() {
        for (name, mutate) in mutations() {
            check_mutation(prepared(&cfg), &cfg, &format!("{tag}-{name}"), mutate);
        }
    }
}

#[test]
fn every_mutation_drops_the_summary_on_remote_ranks() {
    for (name, mutate) in mutations() {
        let (addr, daemon) = qcs_core::spawn_loopback(2, ServeOptions::default()).expect("daemon");
        let cfg = SimConfig::default()
            .with_block_log2(BLOCK_LOG2)
            .with_ranks_log2(1)
            .with_remote(vec![addr]);
        check_mutation(prepared(&cfg), &cfg, &format!("remote-{name}"), mutate);
        daemon.join().expect("daemon thread");
    }
}

/// Ladder escalation: a lossless run over a budget it cannot meet
/// recompresses every block at the next ladder level right after the gate
/// that tripped it.
#[test]
fn ladder_escalation_drops_the_summary() {
    for (tag, cfg) in configs() {
        // Prepare without a budget, then restore under one the lossless
        // state cannot meet: the first gate escalates.
        let budgeted = cfg.clone().with_memory_budget(1);
        let sim = restored(&prepared(&cfg), &budgeted, &format!("{tag}-arm"));
        assert_eq!(sim.current_bound(), ErrorBound::Lossless);
        check_mutation(sim, &budgeted, &format!("{tag}-escalation"), |sim| {
            let op = Op::Gate {
                gate: GateKind::T,
                controls: vec![],
                target: 0,
            };
            sim.apply_op(&op, &mut StdRng::seed_from_u64(5))
                .expect("gate");
            assert!(
                sim.report().escalations > 0 && sim.current_bound().is_lossy(),
                "precondition — the gate must escalate the ladder"
            );
        });
    }
}

/// Checkpoint save → restore: the restored engine starts without a
/// summary and builds its own; saving does not disturb the warm one.
#[test]
fn restore_starts_cold_and_agrees() {
    for (tag, cfg) in configs() {
        let sim = prepared(&cfg);
        let warm = answers(&sim);
        let fresh = restored(&sim, &cfg, &format!("restore-{tag}"));
        let decodes = fresh.report().breakdown.decompression;
        assert_eq!(warm, answers(&fresh), "{tag}: restored engine disagrees");
        assert!(
            fresh.report().breakdown.decompression > decodes,
            "{tag}: a restored engine must build its own summary"
        );
        assert_eq!(warm, answers(&sim), "{tag}: saving disturbed the summary");
    }
}

/// `threads_per_rank` 1 vs 4, cold vs warm: identical bits.
#[test]
fn answers_do_not_depend_on_thread_width_or_warmth() {
    for ranks_log2 in [0u32, 1] {
        let run = |threads: usize| {
            let cfg = SimConfig::default()
                .with_block_log2(BLOCK_LOG2)
                .with_ranks_log2(ranks_log2)
                .with_threads_per_rank(threads)
                .with_fixed_bound(ErrorBound::PointwiseRelative(1e-3));
            let sim = prepared(&cfg);
            let cold = answers(&sim);
            let warm = answers(&sim);
            assert_eq!(cold, warm, "cold and warm answers differ");
            cold
        };
        assert_eq!(run(1), run(4), "ranks_log2={ranks_log2}");
    }
}

/// `norm_sqr` and `sample` answer exactly what they answered before the
/// summary existed: golden values captured at the parent commit, where
/// both decoded the whole state on every call.
#[test]
fn norm_and_samples_match_the_pre_summary_engine() {
    let norm_bits = 0x3fef5b4ceaef5800u64;
    let samples = [
        256, 827, 2, 848, 894, 127, 4, 261, 76, 90, 79, 817, 553, 78, 528, 616,
    ];
    for ranks_log2 in [0u32, 1] {
        let cfg = SimConfig::default()
            .with_block_log2(4)
            .with_ranks_log2(ranks_log2)
            .with_fixed_bound(ErrorBound::PointwiseRelative(1e-3));
        let mut sim = CompressedSimulator::new(10, cfg).expect("sim");
        let circuit = random_circuit(Grid::new(2, 5), 8, 3);
        sim.run(&circuit, &mut StdRng::seed_from_u64(9))
            .expect("run");
        // After a collapse on a block-index qubit half the blocks are
        // exactly zero — the weights the sampling scan must step over.
        sim.measure(7, &mut StdRng::seed_from_u64(10))
            .expect("measure");
        let mut rng = StdRng::seed_from_u64(11);
        let got_norm = sim.norm_sqr().expect("norm").to_bits();
        let got: Vec<u64> = (0..16)
            .map(|_| sim.sample(&mut rng).expect("sample"))
            .collect();
        assert_eq!(
            got_norm, norm_bits,
            "ranks_log2={ranks_log2}: norm_sqr bits"
        );
        assert_eq!(got, samples, "ranks_log2={ranks_log2}: sampled indices");
    }
}

/// `prob_one` answers exactly what it answered while a segment-addressed
/// path served offset bits at or above segment granularity: golden bits
/// captured at commit 3ac1874 for every qubit of a seeded 14-qubit state
/// (2^10-amplitude blocks, so offset bit 9 is the segment bit of a lossy
/// block), per `ranks_log2` and bound. Resident and spilled stores answer
/// the same bits, cold and warm. The lossy rows were re-captured when
/// controlled phases above the block split started running as per-block
/// scalars inside batches (fewer lossy recompressions); the lossless rows
/// are still the 3ac1874 bits.
#[test]
fn prob_one_matches_the_pre_memo_engine() {
    // (ranks_log2, lossy) -> P(q = 1) bits for q = 0..14.
    for ((ranks_log2, lossy), want) in PROB_ONE_GOLDEN {
        for spill in [false, true] {
            let bound = if lossy {
                ErrorBound::PointwiseRelative(1e-3)
            } else {
                ErrorBound::Lossless
            };
            let mut cfg = SimConfig::default()
                .with_block_log2(10)
                .with_ranks_log2(ranks_log2)
                .with_fixed_bound(bound);
            if spill {
                cfg = cfg.with_spill(4);
            }
            let mut sim = CompressedSimulator::new(14, cfg).expect("sim");
            let circuit = random_circuit(Grid::new(2, 7), 6, 7);
            sim.run(&circuit, &mut StdRng::seed_from_u64(7))
                .expect("run");
            let what = format!("ranks_log2={ranks_log2} lossy={lossy} spill={spill}");
            let cold = prob_one_bits(&sim);
            assert_eq!(cold, want, "{what}: cold prob_one bits");
            assert_eq!(prob_one_bits(&sim), want, "{what}: warm prob_one bits");
        }
    }
}

/// [`prob_one_matches_the_pre_memo_engine`]'s golden bits, per
/// `(ranks_log2, lossy)`, for qubits 0..14.
const PROB_ONE_GOLDEN: [((u32, bool), [u64; 14]); 4] = [
    (
        (0, false),
        [
            0x3fe0000000000000,
            0x3fdfffffffffffff,
            0x3fdffffffffffffe,
            0x3fe0000000000000,
            0x3fe0000000000000,
            0x3fdffffffffffffd,
            0x3fe0000000000002,
            0x3fe0000000000000,
            0x3fe0000000000000,
            0x3fe0000000000001,
            0x3fdffffffffffff9,
            0x3fdffffffffffffc,
            0x3fe0000000000001,
            0x3fdffffffffffffe,
        ],
    ),
    (
        (0, true),
        [
            0x3fdfc0893437f5c0,
            0x3fdfc09227327ec0,
            0x3fdfc095b2215f80,
            0x3fdfc13ff0bc2440,
            0x3fdfc08d91caa9c0,
            0x3fdfc0cab3312300,
            0x3fdfc07df076b780,
            0x3fdfc06d98cf5140,
            0x3fdfc092dc05ec00,
            0x3fdfc0617529eb40,
            0x3fdfc08809123ec0,
            0x3fdfc07236573940,
            0x3fdfc07c5875a080,
            0x3fdfc0c1cb7a1300,
        ],
    ),
    (
        (1, false),
        [
            0x3fdfffffffffffff,
            0x3fdfffffffffffff,
            0x3fdfffffffffffff,
            0x3fe0000000000000,
            0x3fdfffffffffffff,
            0x3fdffffffffffffe,
            0x3fe0000000000002,
            0x3fe0000000000000,
            0x3fe0000000000000,
            0x3fe0000000000000,
            0x3fdffffffffffffa,
            0x3fdffffffffffffc,
            0x3fe0000000000001,
            0x3fdffffffffffffe,
        ],
    ),
    (
        (1, true),
        [
            0x3fdfc0893437f5c0,
            0x3fdfc09227327ec0,
            0x3fdfc095b2215f80,
            0x3fdfc13ff0bc2440,
            0x3fdfc08d91caa9c0,
            0x3fdfc0cab3312300,
            0x3fdfc07df076b780,
            0x3fdfc06d98cf5140,
            0x3fdfc092dc05ec00,
            0x3fdfc0617529eb40,
            0x3fdfc08809123ec0,
            0x3fdfc07236573940,
            0x3fdfc07c5875a080,
            0x3fdfc0c1cb7a1300,
        ],
    ),
];
