//! Thread-local recycled scratch buffers for codec internals.
//!
//! The `*_into` codec paths avoid allocating their *output*, but the
//! pipelines still need intermediate stage buffers (the LZ token stream,
//! the entropy-coded payload, an assembled container body). This module recycles those per thread so a steady
//! stream of (de)compressions settles into zero heap traffic: every
//! `take_*` pops a previously grown buffer when one is available and
//! every `put_*` returns it (cleared) for the next call on the same
//! thread.
//!
//! The stack is bounded to [`MAX_POOLED`] buffers so a burst of nested
//! takes cannot pin unbounded memory; overflow buffers are simply
//! dropped. Buffers keep their capacity across recycles — that is the
//! point — so footprint per thread is bounded by `MAX_POOLED x` (largest
//! stream seen on that thread).

use std::cell::RefCell;

/// Upper bound on recycled buffers per thread.
const MAX_POOLED: usize = 8;

thread_local! {
    static BYTE_BUFS: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// Check out an empty byte buffer, reusing a recycled one when possible.
pub(crate) fn take_bytes() -> Vec<u8> {
    BYTE_BUFS.with(|p| p.borrow_mut().pop()).unwrap_or_default()
}

/// Return a byte buffer for reuse on this thread.
pub(crate) fn put_bytes(mut buf: Vec<u8>) {
    buf.clear();
    BYTE_BUFS.with(|p| {
        let mut p = p.borrow_mut();
        if p.len() < MAX_POOLED {
            p.push(buf);
        }
    });
}

/// Run `fill` over a recycled byte buffer and return what it wrote as a
/// fresh vector whose capacity equals its length (so converting it to
/// `Arc<[u8]>`/`Box<[u8]>` never copies through a reallocation): the
/// allocating form of any `*_into` encoder.
pub(crate) fn staged<E>(fill: impl FnOnce(&mut Vec<u8>) -> Result<(), E>) -> Result<Vec<u8>, E> {
    let mut staged = take_bytes();
    let res = fill(&mut staged).map(|()| {
        let mut out = Vec::with_capacity(staged.len());
        out.extend_from_slice(&staged);
        out
    });
    put_bytes(staged);
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_keep_capacity_across_recycles() {
        let mut b = take_bytes();
        b.extend_from_slice(&[1u8; 4096]);
        let cap = b.capacity();
        put_bytes(b);
        let b2 = take_bytes();
        assert!(b2.is_empty());
        assert!(b2.capacity() >= cap);
        put_bytes(b2);
    }

    #[test]
    fn pool_is_bounded() {
        let bufs: Vec<Vec<u8>> = (0..2 * MAX_POOLED).map(|_| take_bytes()).collect();
        for b in bufs {
            put_bytes(b);
        }
        // Overflow buffers are dropped.
        BYTE_BUFS.with(|p| assert_eq!(p.borrow().len(), MAX_POOLED));
    }
}
