//! Concurrency stress for the out-of-core tier: four worker threads
//! hammer `take`/`put`/`fetch_many` on disjoint slot ranges of one
//! [`SpillStore`] (one segment file, MIN eviction, every read and write
//! on the calling thread under the store lock) while a fifth thread
//! floods the advisory surface — `plan_accesses` windows across the whole
//! store, which the owners' takes consume and MIN picks victims by —
//! including slots other threads are actively moving.
//!
//! Contracts pinned:
//! - no deadlock and no panic under contention (the test finishing at
//!   all is the deadlock assertion — a hang trips the harness timeout);
//! - every block's payload stays intact: after the storm, each slot
//!   holds exactly the bytes of the last version its owner wrote;
//! - `resident_bytes` stays honest: it never exceeds what the residency
//!   cap allows, drains to zero when every block is taken out, and
//!   returns when they are put back;
//! - shutdown is clean: dropping the store and the segment-dir guard
//!   removes the tree.
//!
//! Slot ownership is partitioned because the `BlockStore` contract
//! forbids double-`take` of a slot without an intervening `put`; the
//! advisory windows carry no such restriction and deliberately overlap.

use qcs_cluster::Metrics;
use qcs_compress::{CodecId, ErrorBound};
use qcs_core::{BlockStore, CompressedBlock, SegmentDirGuard, SpillOptions, SpillStore};
use std::sync::Arc;

const SLOTS: usize = 64;
const THREADS: usize = 4;
const CAP: usize = 8;
const ITERS: usize = 50;

/// Deterministic payload for (slot, version): length depends only on the
/// slot, contents on both — so a lost or crossed write is detectable.
fn payload(slot: usize, version: usize) -> CompressedBlock {
    let len = 48 + slot;
    CompressedBlock {
        codec: CodecId::Qzstd,
        bound: ErrorBound::Lossless,
        bytes: (0..len)
            .map(|i| (slot * 31 + version * 7 + i) as u8)
            .collect::<Vec<_>>()
            .into(),
    }
}

fn assert_is(slot: usize, version: usize, blk: &CompressedBlock) {
    let want = payload(slot, version);
    assert_eq!(
        blk.bytes, want.bytes,
        "slot {slot} must hold version {version} intact"
    );
}

#[test]
fn spill_store_survives_concurrent_hammering() {
    let parent = std::env::temp_dir().join(format!("qcs-spill-stress-{}", std::process::id()));
    let guard = SegmentDirGuard::create(&parent).expect("segment dir guard");
    let dir = guard.path().to_path_buf();

    let metrics = Metrics::new();
    let blocks = (0..SLOTS).map(|s| Some(payload(s, 0))).collect();
    let store = Arc::new(
        SpillStore::create_with(
            &dir,
            "stress",
            CAP,
            metrics.clone(),
            blocks,
            SpillOptions {
                dir_guard: Some(guard),
                ..SpillOptions::default()
            },
        )
        .expect("create spill store"),
    );

    let max_block = 48 + SLOTS; // largest payload in the store
    let mut workers = Vec::new();
    for t in 0..THREADS {
        let store = Arc::clone(&store);
        workers.push(std::thread::spawn(move || {
            let per = SLOTS / THREADS;
            let mine: Vec<usize> = (t * per..(t + 1) * per).collect();
            for version in 0..ITERS {
                // Each version is a planned wave over the owner's range:
                // its takes move the window's cursor (advisory traffic is
                // legal at any time).
                store.plan_accesses(&mine);
                if version % 3 == 0 {
                    // Batched path: pull the whole range at once.
                    let got = store.fetch_many(&mine).expect("fetch_many");
                    for (slot, blk) in mine.iter().zip(&got) {
                        assert_is(*slot, version, blk);
                    }
                    for &slot in &mine {
                        store.put(slot, payload(slot, version + 1)).expect("put");
                    }
                } else {
                    for &slot in &mine {
                        let blk = store.take(slot).expect("take");
                        assert_is(slot, version, &blk);
                        store.put(slot, payload(slot, version + 1)).expect("put");
                    }
                }
            }
        }));
    }

    // Window flooder: windows across ALL slots, overlapping the owners'
    // take/put traffic, whose evictions then rank victims by them. None
    // of these may wedge or panic.
    let flooder = {
        let store = Arc::clone(&store);
        std::thread::spawn(move || {
            let all: Vec<usize> = (0..SLOTS).collect();
            for round in 0..ITERS * 2 {
                store.plan_accesses(&all[round % SLOTS..]);
                std::thread::yield_now();
                store.plan_accesses(&all);
                std::thread::yield_now();
            }
        })
    };

    for w in workers {
        w.join().expect("worker thread");
    }
    flooder.join().expect("flooder thread");

    // Quiescent audit: residency accounting must be honest. The store
    // holds nothing but its residents, so `resident_bytes` must respect
    // the cap exactly.
    assert!(
        store.resident_bytes() <= (CAP * max_block) as u64,
        "resident bytes {} exceed the residency cap's worth",
        store.resident_bytes()
    );
    let mut drained = Vec::new();
    for slot in 0..SLOTS {
        let blk = store.take(slot).expect("final take");
        assert_is(slot, ITERS, &blk);
        drained.push(blk);
    }
    assert_eq!(
        store.resident_bytes(),
        0,
        "all blocks taken: nothing resident"
    );
    for (slot, blk) in drained.into_iter().enumerate() {
        store.put(slot, blk).expect("final put");
    }
    assert!(store.resident_bytes() > 0, "blocks back: residency returns");
    assert!(
        store.resident_bytes() <= (CAP * max_block) as u64,
        "residency stays bounded after the storm"
    );
    assert!(
        metrics.breakdown().spills > 0,
        "a {CAP}-of-{SLOTS} residency budget must actually spill"
    );

    // Clean shutdown: the store deletes its segment and the guard
    // removes the segment tree.
    drop(store);
    assert!(!dir.exists(), "segment dir guard must remove {dir:?}");
}
