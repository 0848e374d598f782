//! The contract every [`Wire`] type meets, as one generic check, plus the
//! counting allocator it measures with and the golden-bytes check.
//!
//! This file is test support shared by two test binaries: `prop_wire.rs`
//! next to it (`mod contract;`) and `qcs-core`'s unit tests, whose
//! worker-protocol types are crate-private (`#[path]` from
//! `qcs-core/src/net.rs`). A binary that uses it installs the allocator:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: contract::CountingAlloc = contract::CountingAlloc;
//! ```

use qcs_net::wire::{decode, encode, Wire};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;

/// The system allocator, counting the bytes each thread asks it for.
pub struct CountingAlloc;

thread_local! {
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // A thread's last frees can run after its locals are gone.
    let _ = REQUESTED.try_with(|n| n.set(n.get().saturating_add(bytes)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller already upholds; counting touches only a
// const-initialised `Cell<usize>` thread-local, which neither allocates
// nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

/// Run `f`, returning its result and the bytes this thread requested from
/// the allocator meanwhile (requests, not the peak: frees do not subtract).
pub fn allocated_by<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = REQUESTED.with(Cell::get);
    let out = f();
    (out, REQUESTED.with(Cell::get) - before)
}

/// `fixtures/<name>.bin` (under `qcs-net/tests`, given as `fixtures_dir`)
/// holds `value`'s golden bytes: `put` reproduces the file byte for byte
/// and `take` of the file is `value`.
pub fn assert_golden<T: Wire + PartialEq + Debug>(fixtures_dir: &str, name: &str, value: &T) {
    let path = format!("{fixtures_dir}/{name}.bin");
    let fixture = std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert_eq!(encode(value), fixture, "{name}: encoding drifted");
    assert_eq!(
        &decode::<T>(&fixture).unwrap(),
        value,
        "{name}: decoding drifted"
    );
}

/// What decoding a body of `len` bytes may request: a small multiple of
/// the body (a decoded element is at most 64x its `MIN_LEN`: an
/// `Option<CompressedBlock>` is 40 bytes in memory and 1 on the wire),
/// plus the one 64 KiB chunk an embedded block frame reserves before its
/// payload arrives, plus room for an error message.
pub fn alloc_budget(len: usize) -> usize {
    64 * len + (64 << 10) + 4096
}

/// `value` round-trips; every strict prefix of its encoding is a typed
/// error; and no single-byte substitution — each position, four values —
/// panics the decoder or makes it request more than [`alloc_budget`].
pub fn wire_contract<T: Wire + PartialEq + Debug>(value: &T) {
    assert!(
        allocated_by(|| Vec::<u8>::with_capacity(4096)).1 >= 4096,
        "this test binary must install contract::CountingAlloc"
    );
    let body = encode(value);
    assert!(body.len() >= T::MIN_LEN, "MIN_LEN overstates {value:?}");
    assert_eq!(&decode::<T>(&body).expect("round trip decodes"), value);
    for len in 0..body.len() {
        assert!(
            decode::<T>(&body[..len]).is_err(),
            "{len}-byte prefix (of {}) of {value:?} decoded",
            body.len()
        );
    }
    let budget = alloc_budget(body.len());
    let mut bent = body.clone();
    for at in 0..body.len() {
        for sub in [body[at] ^ 0x01, body[at] ^ 0x80, 0x00, 0xFF] {
            bent[at] = sub;
            let (_, requested) = allocated_by(|| decode::<T>(&bent));
            assert!(
                requested <= budget,
                "byte {at} = {sub:#04x} made a {}-byte body request {requested} bytes",
                body.len()
            );
        }
        bent[at] = body[at];
    }
}
