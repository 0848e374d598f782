//! Simulation checkpointing (paper §3.5).
//!
//! Supercomputer jobs hit wall-time limits; the paper saves the compressed
//! blocks before the job ends and resumes in the next submission. Since the
//! blocks are already compressed, the checkpoint is simply the block table
//! plus the ladder level and fidelity ledger, in an explicit versioned
//! binary format:
//!
//! ```text
//! magic "QCSCKPT7" | num_qubits u32 | ranks_log2 u32 | block_log2 u32
//! | level u32 | lossy_codec u8
//! | ledger: log_product f64, gates u64, lossy_gates u64, max_delta f64
//! | block_count u64 | blocks: one qcs_compress::frame each *
//! ```
//!
//! The 57 bytes between the magic and the first block are one
//! [`qcs_net::wire!`] declaration (`Header` below), shared by `save` and
//! `load`; `tests/fixtures/checkpoint_v7_small.bin` pins the bytes (see
//! "Changing a layout" in [`mod@qcs_net::wire`]).
//!
//! Each block is stored as a self-describing [`qcs_compress::frame`] — the
//! same format the out-of-core spill tier uses — so every block record
//! carries its codec id, error bound, length, and a payload checksum; a
//! flipped bit in a checkpoint surfaces as a frame error on load, not as
//! silently corrupt amplitudes. Version 3 has version 2's layout with the
//! frame and segment checksums computed by
//! [`qcs_compress::checksum::checksum64`] (XXH64) instead of FNV-1a.
//! Version 4 has version 3's layout; its segmented Solution C payloads
//! carry a mode byte per segment (see [`qcs_compress::trunc`]). Version 5
//! has version 4's layout; every block frame checksums its whole payload,
//! and segmented payloads carry no index of their own. Version 6 has
//! version 5's layout; its segmented payloads are in the "QCSt" layout,
//! whose noisy segments store their head without LZ77 (mode 2). Version
//! 7 has version 6's layout; its lossless blocks may be qzstd palette
//! containers (mode 4). The magic changed each time, so an older file is
//! refused by name before any frame is read.
//!
//! Checkpointing composes with the out-of-core tier in both directions:
//! saving streams spilled blocks one at a time through the block store
//! (never materializing more than one block beyond the workers' residency
//! budgets), and a checkpoint written under one residency budget can be
//! restored under any other (the restore simply re-seeds each rank's
//! store, which re-spills whatever exceeds the new budget).

use crate::block::CompressedBlock;
use crate::config::SimConfig;
use crate::engine::{CompressedSimulator, SimError};
use crate::fidelity_bound::FidelityLedger;
use qcs_compress::{frame, CodecId};
use qcs_net::wire::{decode, Idx32, Wire};
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"QCSCKPT7";

qcs_net::wire! {
    /// Everything between the magic and the block frames. Every field is
    /// fixed-width, so `Header::MIN_LEN` is the header's exact length.
    struct Header {
        num_qubits: u32,
        ranks_log2: u32,
        block_log2: u32,
        level: usize as Idx32,
        lossy_codec: CodecId,
        ledger: FidelityLedger,
        block_count: usize,
    }
}

/// Write a checkpoint of `sim` to `path`.
///
/// Works for any rank-worker count: the blocks are streamed out of their
/// owning ranks in rank-major order, one at a time, so the on-disk format
/// is identical whether the state was held by one in-place worker or by
/// many rank threads — and saving an out-of-core simulation never pulls
/// more than one block beyond the workers' residency budgets into memory
/// at once (spilled blocks go disk → frame → disk).
pub fn save(sim: &CompressedSimulator, path: &Path) -> Result<(), SimError> {
    let (cfg, layout, level, ledger) = sim.checkpoint_parts();
    let mut w = std::io::BufWriter::new(
        std::fs::File::create(path)
            .map_err(|e| SimError::Checkpoint(format!("create {path:?}: {e}")))?,
    );
    let io = |e: std::io::Error| SimError::Checkpoint(format!("write: {e}"));
    let (ranks, bpr) = (layout.ranks(), layout.blocks_per_rank());
    let mut header = MAGIC.to_vec();
    let fields = Header {
        num_qubits: layout.num_qubits,
        ranks_log2: cfg.ranks_log2,
        block_log2: cfg.block_log2,
        level,
        lossy_codec: cfg.lossy_codec,
        ledger: ledger.clone(),
        block_count: ranks * bpr,
    };
    Header::put(&fields, &mut header);
    w.write_all(&header).map_err(io)?;
    for rank in 0..ranks {
        for block in 0..bpr {
            let blk = sim.fetch_block(rank, block)?;
            frame::write_frame(&mut w, blk.codec, blk.bound, &blk.bytes)
                .map_err(|e| SimError::Checkpoint(format!("write block frame: {e}")))?;
        }
    }
    w.flush().map_err(io)
}

/// Restore a simulator from a checkpoint.
///
/// The caller supplies the same `cfg` used originally (ladder, cache and
/// budget are session settings, not state); geometry fields are overwritten
/// from the checkpoint and validated. Per-rank block ownership is
/// re-established from the rank-major order: with `ranks_log2 >= 1` the
/// restored simulator stands its rank workers back up on fresh threads,
/// each seeded with its own slice of the block table.
pub fn load(path: &Path, mut cfg: SimConfig) -> Result<CompressedSimulator, SimError> {
    let mut r = std::io::BufReader::new(
        std::fs::File::open(path)
            .map_err(|e| SimError::Checkpoint(format!("open {path:?}: {e}")))?,
    );
    let io = |e: std::io::Error| SimError::Checkpoint(format!("read: {e}"));

    let mut magic = [0u8; 8];
    r.read_exact(&mut magic).map_err(io)?;
    if &magic != MAGIC {
        if magic.starts_with(b"QCSCKPT") {
            return Err(SimError::Checkpoint(format!(
                "unsupported checkpoint version '{}' (this build reads '{}'); \
                 re-save the state with the current build",
                magic[7] as char, MAGIC[7] as char
            )));
        }
        return Err(SimError::Checkpoint("bad magic".into()));
    }
    let mut raw = [0u8; Header::MIN_LEN];
    r.read_exact(&mut raw).map_err(io)?;
    let h: Header = decode(&raw).map_err(|e| SimError::Checkpoint(format!("header: {e}")))?;
    // Geometry sanity before any shifts: corrupt headers must error out,
    // not overflow.
    if h.num_qubits == 0
        || h.num_qubits > 40
        || h.ranks_log2 as u64 + h.block_log2 as u64 > h.num_qubits as u64
    {
        return Err(SimError::Checkpoint(format!(
            "implausible geometry: n={} ranks_log2={} block_log2={}",
            h.num_qubits, h.ranks_log2, h.block_log2
        )));
    }

    // The table grows with the frames actually read: `block_count` is the
    // file's claim, checked against the geometry once the blocks are in.
    let mut blocks = Vec::new();
    for i in 0..h.block_count {
        let f = frame::read_frame(&mut r)
            .map_err(|e| SimError::Checkpoint(format!("block frame {i}: {e}")))?;
        blocks.push(Some(CompressedBlock::from(f)));
    }

    cfg.ranks_log2 = h.ranks_log2;
    cfg.block_log2 = h.block_log2;
    cfg.lossy_codec = h.lossy_codec;
    CompressedSimulator::from_checkpoint_parts(cfg, h.level, h.ledger, blocks, h.num_qubits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_circuits::Circuit;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("qcsim-ckpt-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn round_trip_preserves_state_and_ledger() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = SimConfig::default()
            .with_block_log2(3)
            .with_ranks_log2(1)
            .with_fixed_bound(qcs_compress::ErrorBound::PointwiseRelative(1e-4));
        let mut sim = CompressedSimulator::new(6, cfg.clone()).unwrap();
        let mut c = Circuit::new(6);
        for q in 0..6 {
            c.h(q);
        }
        c.cx(0, 5).rz(0.4, 3);
        sim.run(&c, &mut rng).unwrap();
        let before = sim.snapshot_dense().unwrap();
        let ledger_before = sim.ledger().clone();

        let path = tmp("roundtrip");
        save(&sim, &path).unwrap();
        let restored = load(&path, cfg).unwrap();
        std::fs::remove_file(&path).ok();

        let after = restored.snapshot_dense().unwrap();
        assert_eq!(before.amplitudes().len(), after.amplitudes().len());
        for (a, b) in before.amplitudes().iter().zip(after.amplitudes()) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
        assert_eq!(restored.ledger(), &ledger_before);
    }

    #[test]
    fn resume_continues_identically() {
        // Run circuit in one shot vs. checkpoint midway + resume.
        let mut c1 = Circuit::new(6);
        let mut c2 = Circuit::new(6);
        let mut full = Circuit::new(6);
        for q in 0..6 {
            c1.h(q);
            full.h(q);
        }
        c2.cx(0, 3).t(5).cphase(0.9, 2, 4);
        full.cx(0, 3).t(5).cphase(0.9, 2, 4);

        let cfg = SimConfig::default().with_block_log2(3).with_ranks_log2(1);
        let mut rng = StdRng::seed_from_u64(1);
        let mut sim_a = CompressedSimulator::new(6, cfg.clone()).unwrap();
        sim_a.run(&full, &mut rng).unwrap();

        let mut sim_b = CompressedSimulator::new(6, cfg.clone()).unwrap();
        sim_b.run(&c1, &mut rng).unwrap();
        let path = tmp("resume");
        save(&sim_b, &path).unwrap();
        let mut resumed = load(&path, cfg).unwrap();
        std::fs::remove_file(&path).ok();
        resumed.run(&c2, &mut rng).unwrap();

        let fa = sim_a.snapshot_dense().unwrap();
        let fb = resumed.snapshot_dense().unwrap();
        assert!(fa.fidelity(&fb) > 1.0 - 1e-12);
    }

    #[test]
    fn multi_rank_round_trip_reestablishes_block_ownership() {
        // Save from a 4-rank-worker simulator, restore, and prove the
        // restored workers (a) hold bit-identical state and (b) own their
        // block slices well enough to run every routing case — including a
        // fresh inter-rank compressed exchange — identically to an
        // uncheckpointed run.
        let cfg = SimConfig::default().with_block_log2(3).with_ranks_log2(2);
        let mut warm = Circuit::new(8);
        for q in 0..8 {
            warm.h(q);
        }
        warm.t(7).cx(6, 1).rz(0.31, 0);
        let mut tail = Circuit::new(8);
        tail.h(0).cx(0, 7).cphase(0.8, 6, 2).h(7);

        let mut rng = StdRng::seed_from_u64(3);
        let mut sim = CompressedSimulator::new(8, cfg.clone()).unwrap();
        sim.run(&warm, &mut rng).unwrap();
        let before = sim.snapshot_dense().unwrap();

        let path = tmp("multirank");
        save(&sim, &path).unwrap();
        let mut restored = load(&path, cfg.clone()).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(restored.ranks(), 4);

        let after = restored.snapshot_dense().unwrap();
        for (a, b) in before.amplitudes().iter().zip(after.amplitudes()) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }

        // Continue both simulators through a rank-crossing tail.
        sim.run(&tail, &mut rng).unwrap();
        restored.run(&tail, &mut rng).unwrap();
        assert!(
            restored.report().breakdown.comm_bytes > 0,
            "restored workers must exchange compressed payloads"
        );
        let (a, b) = (
            sim.snapshot_dense().unwrap(),
            restored.snapshot_dense().unwrap(),
        );
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }

    #[test]
    fn save_while_spilled_restores_into_any_budget() {
        // Run out-of-core (only 2 of 16 blocks resident), checkpoint, and
        // restore under a smaller budget, a larger budget, and fully
        // in-RAM. Every variant must hold bit-identical amplitudes to the
        // all-resident reference run.
        let base = SimConfig::default().with_block_log2(3);
        let mut c = Circuit::new(7);
        for q in 0..7 {
            c.h(q);
        }
        c.t(6).cx(5, 0).rz(0.21, 3);

        let mut rng = StdRng::seed_from_u64(7);
        let mut reference = CompressedSimulator::new(7, base.clone()).unwrap();
        reference.run(&c, &mut rng).unwrap();
        let want = reference.snapshot_dense().unwrap();

        let mut rng = StdRng::seed_from_u64(7);
        let mut spilled = CompressedSimulator::new(7, base.clone().with_spill(2)).unwrap();
        spilled.run(&c, &mut rng).unwrap();
        assert!(
            spilled.report().breakdown.spills > 0,
            "precondition: blocks on disk"
        );

        let path = tmp("spilled");
        save(&spilled, &path).unwrap();

        for restore_cfg in [
            base.clone().with_spill(1),  // smaller residency budget
            base.clone().with_spill(12), // larger than the spilled run's
            base.clone(),                // no spilling at all
        ] {
            let restored = load(&path, restore_cfg).unwrap();
            let got = restored.snapshot_dense().unwrap();
            for (a, b) in want.amplitudes().iter().zip(got.amplitudes()) {
                assert_eq!(a.re.to_bits(), b.re.to_bits());
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn spilled_restore_continues_identically() {
        // Checkpoint mid-circuit from a spilled simulator, restore into a
        // *smaller* budget, run the tail, and match the uncheckpointed
        // spilled run exactly.
        let cfg = SimConfig::default().with_block_log2(3).with_spill(3);
        let mut head = Circuit::new(7);
        let mut tail = Circuit::new(7);
        let mut full = Circuit::new(7);
        for q in 0..7 {
            head.h(q);
            full.h(q);
        }
        tail.cx(0, 6).t(5).cphase(0.9, 2, 4);
        full.cx(0, 6).t(5).cphase(0.9, 2, 4);

        let mut rng = StdRng::seed_from_u64(8);
        let mut oneshot = CompressedSimulator::new(7, cfg.clone()).unwrap();
        oneshot.run(&full, &mut rng).unwrap();

        let mut rng = StdRng::seed_from_u64(8);
        let mut staged = CompressedSimulator::new(7, cfg.clone()).unwrap();
        staged.run(&head, &mut rng).unwrap();
        let path = tmp("spilled-resume");
        save(&staged, &path).unwrap();
        let mut resumed = load(&path, cfg.with_spill(1)).unwrap();
        std::fs::remove_file(&path).ok();
        resumed.run(&tail, &mut rng).unwrap();
        assert!(resumed.report().breakdown.spills > 0);

        let (a, b) = (
            oneshot.snapshot_dense().unwrap(),
            resumed.snapshot_dense().unwrap(),
        );
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }

    #[test]
    fn block_frame_corruption_is_detected_on_load() {
        let cfg = SimConfig::default().with_block_log2(3);
        let mut sim = CompressedSimulator::new(6, cfg.clone()).unwrap();
        let mut c = Circuit::new(6);
        c.h(0).h(5).t(2);
        let mut rng = StdRng::seed_from_u64(9);
        sim.run(&c, &mut rng).unwrap();
        let path = tmp("bitrot");
        save(&sim, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload bit near the end (inside the last block frame).
        let idx = bytes.len() - 2;
        bytes[idx] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        match load(&path, cfg) {
            Err(SimError::Checkpoint(m)) => {
                assert!(m.contains("frame"), "unexpected error detail: {m}")
            }
            Err(other) => panic!("unexpected error kind: {other}"),
            Ok(_) => panic!("corrupt block frame accepted"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_checkpoint_rejected() {
        let path = tmp("corrupt");
        std::fs::write(&path, b"NOTACKPT").unwrap();
        assert!(load(&path, SimConfig::default()).is_err());
        std::fs::write(&path, b"QC").unwrap();
        assert!(load(&path, SimConfig::default()).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn old_version_checkpoint_gets_actionable_error() {
        let path = tmp("v1");
        std::fs::write(&path, b"QCSCKPT1then-some-v1-payload").unwrap();
        match load(&path, SimConfig::default()) {
            Err(SimError::Checkpoint(m)) => assert!(
                m.contains("version '1'") && m.contains("reads '7'"),
                "v1 file must name the version mismatch, got: {m}"
            ),
            other => panic!(
                "v1 checkpoint mishandled: {:?}",
                other.err().map(|e| e.to_string())
            ),
        }
        std::fs::remove_file(&path).ok();
    }
}
