//! Golden amplitude digests: one line per configuration, captured at
//! commit 8cc0d4a (before `qcs-core::worker` wrote the block cycle and the
//! wave walker once) and asserted ever since.
//!
//! `differential` and `compressed_vs_dense` hold the simulator to a
//! tolerance against the dense reference; this suite holds it to *itself*,
//! bit for bit: a refactor of the decompress → compute → recompress path
//! that reorders one floating-point operation or drops one cache line
//! changes a line below. Per case the line records
//!
//! * `digest` — `checksum64` of the little-endian `snapshot_f64` bytes,
//! * `gates` — `report().gates`,
//! * `cache` — block-cache hits/misses, only where they are a property of
//!   the circuit (`ranks_log2 = 0`, `threads_per_rank = 1`) and `-`
//!   elsewhere: two rank threads share one cache, so which of them finds
//!   the other's line depends on their timing,
//!
//! over four seeded circuits (QFT with its swap network, a supremacy
//! circuit, QAOA, and one with mid-circuit measurements) × fusion on/off ×
//! lossless / fixed 1e-3 × `ranks_log2` 0/1 × all-resident /
//! `with_spill(4)` (MIN eviction, the one spill policy).
//!
//! The 64 cases take ~8 s optimised and minutes unoptimised, so a debug
//! build (tier-1 `cargo test`) runs every fourth one — each circuit keeps
//! the full fusion × bound cross on one of the four rank/store layouts —
//! and a release build (CI runs this suite by name next to `differential`)
//! runs them all.
//!
//! The fixture once held 128 lines, a `partial_decode` on/off axis and a
//! `partial=` field of segment-decode counters. When the segment-level
//! decode path and the flag were deleted, the fixture became the 64
//! `partial_decode=false` lines with those two fields cut out: every
//! `digest=`, `gates=` and `cache=` field is as captured (`cache=` as
//! re-captured when the cache key moved), and the `partial_decode=true`
//! lines it dropped carried the same digests.
//!
//! The 12 `fusion=true` lines of `qft` and `sup` were regenerated when
//! controlled phases above the block split started joining batches as
//! per-block scalars: their lossy digests moved (fewer lossy
//! recompressions) and so did their `cache=` columns (fewer block
//! touches). Every lossless digest and every other line stayed put.
//!
//! A PR that *means* to move bits regenerates the fixture: run
//! `cargo test --release --test golden_digests -- --nocapture`, copy the lines
//! between the `BEGIN`/`END` markers over `tests/fixtures/golden_digests.txt`,
//! and say why in CHANGES.md.

use qcsim::circuits::supremacy::{random_circuit, Grid};
use qcsim::circuits::{qaoa_circuit, qft_circuit, random_regular_graph, QaoaParams};
use qcsim::compress::checksum::checksum64;
use qcsim::compress::f64s_to_bytes;
use qcsim::{Circuit, CompressedSimulator, ErrorBound, SimConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GOLDEN: &str = include_str!("fixtures/golden_digests.txt");

/// 14 qubits over 2^10-amplitude blocks: 16 blocks (8 per rank at
/// `ranks_log2 = 1`, so a 4-block budget spills on both layouts), each
/// lossy block two default-size segments.
const QUBITS: usize = 14;
const BLOCK_LOG2: u32 = 10;

fn circuits() -> Vec<(&'static str, Circuit)> {
    // QFT of a seeded product state, bit-reversal swaps included: lone
    // in-block CX gates from the swap expansion ride next to the batches.
    let mut rng = StdRng::seed_from_u64(2019);
    let mut qft = Circuit::new(QUBITS);
    for q in 0..QUBITS {
        qft.ry(rng.gen_range(0.3..2.8), q);
        qft.rz(rng.gen_range(-3.0..3.0), q);
    }
    qft.extend(&qft_circuit(QUBITS));

    let sup = random_circuit(Grid::new(2, 7), 8, 2019);
    let qaoa = qaoa_circuit(
        &random_regular_graph(QUBITS, 4, 2019),
        &QaoaParams::standard(1),
    );

    // Mid-circuit measurements at every scope: an offset bit at segment
    // granularity, a low offset bit, a block bit and the top (rank) bit,
    // each followed by gates that read the collapsed state.
    let mut mid = Circuit::new(QUBITS);
    for q in 0..QUBITS {
        mid.h(q);
    }
    mid.cx(0, 9).cz(9, 12).t(9).cphase(0.7, 3, 13);
    mid.measure(9);
    mid.h(9).cx(9, 2).rz(0.4, 11);
    mid.measure(2);
    mid.measure(11);
    mid.h(11).cx(13, 1).swap(4, 12);
    mid.measure(13);
    mid.h(13).h(0);

    vec![("qft", qft), ("sup", sup), ("qaoa", qaoa), ("mid", mid)]
}

/// `(line number in the fixture, line)` of every case this build runs.
fn digest_lines() -> Vec<(usize, String)> {
    let mut lines = Vec::new();
    let mut case = 0usize;
    for (c, (name, circuit)) in circuits().into_iter().enumerate() {
        for fusion in [true, false] {
            for lossy in [false, true] {
                for ranks_log2 in [0u32, 1] {
                    for spill in [false, true] {
                        case += 1;
                        if cfg!(debug_assertions) && (case - 1) % 4 != c {
                            continue;
                        }
                        let bound = if lossy {
                            ErrorBound::PointwiseRelative(1e-3)
                        } else {
                            ErrorBound::Lossless
                        };
                        let mut cfg = SimConfig::default()
                            .with_block_log2(BLOCK_LOG2)
                            .with_ranks_log2(ranks_log2)
                            .with_fixed_bound(bound)
                            .with_fusion(fusion);
                        if ranks_log2 == 0 {
                            cfg = cfg.with_threads_per_rank(1);
                        }
                        if spill {
                            cfg = cfg.with_spill(4);
                        }
                        let mut sim = CompressedSimulator::new(QUBITS as u32, cfg).expect("sim");
                        sim.run(&circuit, &mut StdRng::seed_from_u64(2019))
                            .expect("run");
                        let report = sim.report();
                        let digest =
                            checksum64(&f64s_to_bytes(&sim.snapshot_f64().expect("snapshot")));
                        let cache = if ranks_log2 == 0 {
                            format!("cache={}/{}", report.cache_hits, report.cache_misses)
                        } else {
                            "cache=-".to_string()
                        };
                        lines.push((
                            case - 1,
                            format!(
                                "{name} fusion={fusion} lossy={lossy} ranks_log2={ranks_log2} \
                                 spill={spill} digest={digest:016x} gates={} {cache}",
                                report.gates
                            ),
                        ));
                    }
                }
            }
        }
    }
    lines
}

#[test]
fn every_digest_matches_the_line_captured_at_8cc0d4a() {
    let got = digest_lines();
    println!("BEGIN golden_digests");
    for (_, line) in &got {
        println!("{line}");
    }
    println!("END golden_digests");
    let want: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(want.len(), 64, "the fixture holds one line per case");
    let moved: Vec<String> = got
        .iter()
        .filter(|(i, line)| want[*i] != line)
        .map(|(i, line)| format!("  want {}\n   got {line}", want[*i]))
        .collect();
    assert!(
        moved.is_empty(),
        "{} of {} digest lines moved:\n{}",
        moved.len(),
        got.len(),
        moved.join("\n")
    );
    // The matrix is only a pin if the cache it names actually ran.
    assert!(got.iter().any(|(_, l)| !l.ends_with("cache=-")));
}
