//! A block that decodes to the wrong length is a typed error on every
//! path — never a panic, never a silent `Ok` over a half-updated pair.
//!
//! The fault is built the way a hostile or damaged checkpoint would carry
//! it: two checkpoints of different `block_log2` are saved, and the first
//! is re-emitted with one block frame swapped for a frame of the second.
//! Every frame keeps a valid checksum and every stream decodes cleanly —
//! to half the values the layout expects. `checkpoint::load` does not
//! decode, so the file loads; what this suite pins is that each wave kind
//! that can reach the short block then ends in
//! `SimError::Codec(Corrupt(..))` naming the decoded and the expected
//! value counts: in-block gate, batch, inter-block gate, rank-crossing
//! gate, a diagonal gate (on a lossy segmented block), `measure`
//! (collapse) and the recompression pass of a ladder escalation —
//! for a lossless and for a lossy segmented short block, on the in-place
//! worker (`ranks_log2 = 0`) and on two rank threads (`ranks_log2 = 1`).
//! A failed wave's blocks never return to the store, so the rank answers
//! every later command with that first error: a `norm_sqr` after each
//! wave is the same typed error, not a panic.
//! The same check on blocks that arrive in a `Hello` frame lives in
//! `qcs-core::net`'s hostile-command suite.

use qcsim::compress::{frame, CodecError};
use qcsim::core::{checkpoint, SimError};
use qcsim::{Circuit, CompressedSimulator, ErrorBound, Op, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;

/// Magic plus the fixed-width header of a `QCSCKPT4` file: everything in
/// front of the first block frame.
const CHECKPOINT_HEADER_LEN: usize = 8 + 57;

/// Panics raised anywhere in this process since [`count_panics`].
static PANICS: AtomicUsize = AtomicUsize::new(0);

/// Count panics on every thread (rank workers included) while still
/// printing them, so "no panic" is checked rather than assumed from the
/// returned error.
fn count_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            PANICS.fetch_add(1, Ordering::SeqCst);
            default(info);
        }));
    });
}

/// One geometry: a full-size register and the ladder its blocks are
/// compressed under. The short block comes from the same preparation on
/// one qubit fewer with `block_log2 - 1`.
struct Shape {
    name: &'static str,
    qubits: u32,
    block_log2: u32,
    ladder: Vec<ErrorBound>,
}

impl Shape {
    /// 16-value blocks under the default ladder (level 0: lossless qzstd).
    fn lossless() -> Self {
        Self {
            name: "lossless",
            qubits: 6,
            block_log2: 3,
            ladder: SimConfig::default().ladder,
        }
    }

    /// 4096-value blocks — four Solution C segments, the short one two —
    /// under a lossy two-level ladder.
    fn lossy_segmented() -> Self {
        Self {
            name: "lossy segmented",
            qubits: 13,
            block_log2: 11,
            ladder: vec![
                ErrorBound::PointwiseRelative(1e-3),
                ErrorBound::PointwiseRelative(1e-2),
            ],
        }
    }

    fn cfg(&self, block_log2: u32, ranks_log2: u32) -> SimConfig {
        let mut cfg = SimConfig::default()
            .with_block_log2(block_log2)
            .with_ranks_log2(ranks_log2);
        cfg.ladder = self.ladder.clone();
        cfg
    }

    fn full_values(&self) -> usize {
        2 << self.block_log2
    }
}

/// A dense-ish state: a Hadamard wall with a few phases on top.
fn prepared(qubits: u32, cfg: SimConfig) -> CompressedSimulator {
    let n = qubits as usize;
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    c.t(0).t(n - 1).cz(1, n - 2);
    let mut sim = CompressedSimulator::new(qubits, cfg).expect("sim");
    sim.run(&c, &mut StdRng::seed_from_u64(2019))
        .expect("prepare");
    sim
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("qcsim-wrong-length-{name}-{}", std::process::id()));
    p
}

/// Header bytes and block frames of a checkpoint file.
fn read_checkpoint(path: &PathBuf) -> (Vec<u8>, Vec<frame::Frame>) {
    let bytes = std::fs::read(path).expect("read checkpoint");
    let (header, mut rest) = bytes.split_at(CHECKPOINT_HEADER_LEN);
    let mut frames = Vec::new();
    while !rest.is_empty() {
        frames.push(frame::read_frame(&mut rest).expect("block frame"));
    }
    (header.to_vec(), frames)
}

/// A checkpoint of `shape` at `ranks_log2` whose block `slot` (global,
/// rank-major) is the first block of the one-qubit-smaller preparation.
fn spliced_checkpoint(shape: &Shape, ranks_log2: u32, slot: usize) -> PathBuf {
    let tag = format!("{}-r{ranks_log2}-s{slot}", shape.block_log2);
    let (full_path, short_path) = (tmp(&format!("full-{tag}")), tmp(&format!("short-{tag}")));
    let full = prepared(shape.qubits, shape.cfg(shape.block_log2, ranks_log2));
    checkpoint::save(&full, &full_path).expect("save full");
    let short = prepared(
        shape.qubits - 1,
        shape.cfg(shape.block_log2 - 1, ranks_log2),
    );
    checkpoint::save(&short, &short_path).expect("save short");

    let (header, mut frames) = read_checkpoint(&full_path);
    let (_, short_frames) = read_checkpoint(&short_path);
    frames[slot] = short_frames[0].clone();
    std::fs::remove_file(&full_path).ok();
    std::fs::remove_file(&short_path).ok();

    let out_path = tmp(&format!("spliced-{tag}"));
    let mut out = std::fs::File::create(&out_path).expect("create spliced");
    out.write_all(&header).expect("header");
    for f in &frames {
        frame::write_frame(&mut out, f.codec, f.bound, &f.payload).expect("frame");
    }
    out_path
}

/// The first op of a one-op circuit, for `apply_op` (no scheduler, so the
/// gate reaches the workers as a lone `Gate`/`Exchange` command).
fn op(qubits: u32, build: impl FnOnce(&mut Circuit)) -> Op {
    let mut c = Circuit::new(qubits as usize);
    build(&mut c);
    c.ops()[0].clone()
}

type Wave = Box<dyn Fn(&mut CompressedSimulator) -> Result<(), SimError>>;

/// Every wave kind that reaches block 0 of rank 0, by name. `budget`
/// marks the one that must be loaded under a memory budget.
fn waves(shape: &Shape, ranks_log2: u32) -> Vec<(&'static str, bool, Wave)> {
    let n = shape.qubits;
    let b = shape.block_log2 as usize;
    let rng = || StdRng::seed_from_u64(7);
    let mut waves: Vec<(&'static str, bool, Wave)> = vec![
        (
            "in-block gate",
            false,
            Box::new(move |sim| {
                sim.apply_op(
                    &op(n, |c| {
                        c.h(b - 1);
                    }),
                    &mut rng(),
                )
            }),
        ),
        (
            "batch",
            false,
            Box::new(move |sim| {
                let mut c = Circuit::new(n as usize);
                c.h(0).h(1).t(2).h(b - 1);
                sim.run(&c, &mut rng())
            }),
        ),
        (
            "inter-block gate",
            false,
            Box::new(move |sim| {
                sim.apply_op(
                    &op(n, |c| {
                        c.h(b);
                    }),
                    &mut rng(),
                )
            }),
        ),
        (
            "diagonal gate",
            false,
            Box::new(move |sim| {
                sim.apply_op(
                    &op(n, |c| {
                        c.cz(b - 1, b - 2);
                    }),
                    &mut rng(),
                )
            }),
        ),
        (
            // A block-index qubit: `prob_one` skips block 0 (its bit is
            // clear), so the collapse wave is the first to decode it.
            "measure of a block qubit",
            false,
            Box::new(move |sim| sim.measure(b, &mut rng()).map(drop)),
        ),
        (
            "measure of an offset qubit",
            false,
            Box::new(move |sim| sim.measure(b - 1, &mut rng()).map(drop)),
        ),
        (
            // The gate is controlled on a block-index qubit, so its wave
            // skips block 0; the 1-byte budget then escalates the ladder
            // and the recompression pass is what meets the short block.
            "recompress on escalation",
            true,
            Box::new(move |sim| {
                sim.apply_op(
                    &op(n, |c| {
                        c.cx(b, 0);
                    }),
                    &mut rng(),
                )
            }),
        ),
    ];
    if ranks_log2 == 1 {
        waves.push((
            "rank-crossing gate",
            false,
            Box::new(move |sim| {
                sim.apply_op(
                    &op(n, |c| {
                        c.h(n as usize - 1);
                    }),
                    &mut rng(),
                )
            }),
        ));
    }
    waves
}

fn assert_wrong_length(shape: &Shape, what: &str, res: Result<(), SimError>) {
    let (short, full) = (shape.full_values() / 2, shape.full_values());
    match res {
        Err(SimError::Codec(CodecError::Corrupt(msg))) => assert!(
            msg.contains(&format!("{short} values")) && msg.contains(&format!("has {full}")),
            "{what}: corrupt, but not naming {short} decoded vs {full} expected: {msg}"
        ),
        other => panic!("{what}: wanted Codec(Corrupt(..)), got {other:?}"),
    }
}

fn every_wave_is_a_typed_error(shape: Shape) {
    count_panics();
    for ranks_log2 in [0u32, 1] {
        let path = spliced_checkpoint(&shape, ranks_log2, 0);
        let load = |budget: bool| {
            let mut cfg = shape.cfg(shape.block_log2, ranks_log2);
            if budget {
                cfg = cfg.with_memory_budget(1);
            }
            checkpoint::load(&path, cfg).expect("a spliced checkpoint loads: no decode at load")
        };
        // Queries already checked the length at the parent commit; they
        // keep answering with the same typed error.
        assert_wrong_length(
            &shape,
            &format!("{} ranks_log2={ranks_log2}: norm_sqr", shape.name),
            load(false).norm_sqr().map(drop),
        );
        for (name, budget, wave) in waves(&shape, ranks_log2) {
            let mut sim = load(budget);
            let what = format!("{} ranks_log2={ranks_log2}: {name}", shape.name);
            assert_wrong_length(&shape, &what, wave(&mut sim));
            // The failed wave's blocks never went back to the store: a
            // read after it is the same typed error, not a panic.
            assert_wrong_length(
                &shape,
                &format!("{what}, then norm_sqr"),
                sim.norm_sqr().map(drop),
            );
        }
        std::fs::remove_file(&path).ok();
    }

    // The leader of an exchange decodes its partner's block too: the
    // short block on the follower (rank 1, first slot).
    let bpr = 1usize << (shape.qubits - shape.block_log2 - 1);
    let path = spliced_checkpoint(&shape, 1, bpr);
    let mut sim = checkpoint::load(&path, shape.cfg(shape.block_log2, 1)).expect("load");
    let n = shape.qubits;
    let crossing = op(n, |c| {
        c.h(n as usize - 1);
    });
    assert_wrong_length(
        &shape,
        &format!("{}: rank-crossing gate, short partner block", shape.name),
        sim.apply_op(&crossing, &mut StdRng::seed_from_u64(7)),
    );
    std::fs::remove_file(&path).ok();

    assert_eq!(
        PANICS.load(Ordering::SeqCst),
        0,
        "{}: a wave over the short block panicked (see stderr)",
        shape.name
    );
}

#[test]
fn lossless_short_block_is_a_typed_error_on_every_wave() {
    every_wave_is_a_typed_error(Shape::lossless());
}

#[test]
fn lossy_segmented_short_block_is_a_typed_error_on_every_wave() {
    every_wave_is_a_typed_error(Shape::lossy_segmented());
}
