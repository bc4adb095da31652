//! Thread-local recycled scratch buffers for the RNS hot paths.
//!
//! Rescale corrections, basis-conversion temporaries, and keyswitch
//! accumulators all need `n`-coefficient `Vec<u64>` workspaces, and the
//! evaluation pipeline used to hit the allocator (plus first-touch page
//! faults) for every one of them, per residue, per op. This module keeps
//! a small per-thread pool of retired buffers, bucketed by length, so a
//! steady-state `mul_relin_rescale` reuses the same few arenas instead of
//! allocating.
//!
//! # Ownership rules
//!
//! * [`take_zeroed`] / [`take_copy`] / [`take_with`] hand the caller an
//!   **owned** `Vec<u64>` — it may escape into long-lived structures
//!   (ciphertext residues) freely; such buffers are simply dropped later
//!   and never return to the pool.
//! * [`recycle`] is the only way a buffer re-enters the pool. Call it on
//!   buffers that would otherwise be dropped at the end of a kernel
//!   (temporaries, consumed accumulators). Recycling is always optional
//!   and never affects results — it is purely an allocator bypass.
//! * Pools are **thread-local**: a buffer taken on a worker thread and
//!   recycled on the caller migrates pools. That is fine — the pool is a
//!   cache, not an ownership registry.
//! * **Panic safety:** an unwinding kernel simply drops its buffers; the
//!   pool is never left holding a loan and cannot be poisoned (it is a
//!   `RefCell` touched only in short non-reentrant sections).
//!
//! Buffers are bucketed by exact length (residue degree `n`), each bucket
//! capped at [`MAX_PER_BUCKET`] buffers, so mixed-degree processes (tests
//! run n=16 and n=8192 contexts side by side) cannot cause cross-size
//! realloc churn and per-thread memory stays bounded.
//!
//! With telemetry enabled, pool hits and misses are counted
//! (`scratch_reuses` / `scratch_allocs`) so reuse effectiveness is
//! observable in `trace_report`.

use std::cell::RefCell;
use std::collections::HashMap;

use bp_telemetry::counters::{self, Counter};

/// Retired buffers kept per thread, per exact length.
const MAX_PER_BUCKET: usize = 16;

thread_local! {
    static POOL: RefCell<HashMap<usize, Vec<Vec<u64>>>> = RefCell::new(HashMap::new());
}

/// Pops a retired buffer of exactly `n` elements, or `None`.
fn pop(n: usize) -> Option<Vec<u64>> {
    POOL.with(|p| p.borrow_mut().get_mut(&n).and_then(Vec::pop))
}

/// An owned buffer of `n` zeros, reusing a retired buffer when one of the
/// right length is pooled on this thread.
pub fn take_zeroed(n: usize) -> Vec<u64> {
    match pop(n) {
        Some(mut v) => {
            counters::add(Counter::ScratchReuses, 1);
            v.fill(0);
            v
        }
        None => {
            counters::add(Counter::ScratchAllocs, 1);
            vec![0u64; n]
        }
    }
}

/// An owned copy of `src`, reusing a retired buffer of the same length
/// when available (skips the zero-fill of [`take_zeroed`]).
pub fn take_copy(src: &[u64]) -> Vec<u64> {
    match pop(src.len()) {
        Some(mut v) => {
            counters::add(Counter::ScratchReuses, 1);
            v.copy_from_slice(src);
            v
        }
        None => {
            counters::add(Counter::ScratchAllocs, 1);
            src.to_vec()
        }
    }
}

/// An owned buffer of `n` elements with element `i` set to `f(i)`,
/// reusing a retired buffer of the same length when available. Every
/// element is written, so there is no zero-fill first (the Galois
/// gather writes each output slot exactly once).
pub fn take_with(n: usize, mut f: impl FnMut(usize) -> u64) -> Vec<u64> {
    match pop(n) {
        Some(mut v) => {
            counters::add(Counter::ScratchReuses, 1);
            for (i, x) in v.iter_mut().enumerate() {
                *x = f(i);
            }
            v
        }
        None => {
            counters::add(Counter::ScratchAllocs, 1);
            (0..n).map(f).collect()
        }
    }
}

/// Returns a buffer to this thread's pool for later reuse. Buckets are
/// keyed by the buffer's *length*, so only return buffers whose length is
/// the natural residue degree they will be requested at. Empty buffers
/// and overfull buckets are dropped instead.
pub fn recycle(v: Vec<u64>) {
    if v.is_empty() {
        return;
    }
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        let bucket = pool.entry(v.len()).or_default();
        if bucket.len() < MAX_PER_BUCKET {
            bucket.push(v);
        }
    });
}

/// Runs `f` with a zeroed scratch buffer of `n` elements and recycles the
/// buffer afterwards. The buffer must not escape `f` (it is reclaimed on
/// return); on panic the buffer is dropped, not recycled.
pub fn with_scratch<R>(n: usize, f: impl FnOnce(&mut Vec<u64>) -> R) -> R {
    let mut buf = take_zeroed(n);
    let r = f(&mut buf);
    recycle(buf);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_zeroed_returns_zeros_even_after_recycling_dirty_buffer() {
        recycle(vec![7u64; 8]);
        let v = take_zeroed(8);
        assert_eq!(v, vec![0u64; 8]);
    }

    #[test]
    fn take_copy_matches_source() {
        recycle(vec![0u64; 4]);
        let src = [1u64, 2, 3, 4];
        assert_eq!(take_copy(&src), src.to_vec());
        // Miss path (no pooled buffer of length 5).
        let src5 = [9u64, 8, 7, 6, 5];
        assert_eq!(take_copy(&src5), src5.to_vec());
    }

    #[test]
    fn take_with_writes_every_element() {
        let f = |i: usize| 3 * i as u64 + 1;
        let want: Vec<u64> = (0..8).map(f).collect();
        // Hit path: a dirty pooled buffer is overwritten everywhere.
        recycle(vec![7u64; 8]);
        assert_eq!(take_with(8, f), want);
        // Miss path (no pooled buffer of length 8 left).
        assert_eq!(take_with(8, f), want);
    }

    #[test]
    fn buckets_are_keyed_by_length() {
        recycle(vec![1u64; 16]);
        // A request for a different length must not get the 16-buffer.
        let v = take_zeroed(32);
        assert_eq!(v.len(), 32);
        let v = take_zeroed(16);
        assert_eq!(v.len(), 16);
    }

    #[test]
    fn with_scratch_recycles_and_reuses() {
        let first = with_scratch(64, |buf| {
            buf[0] = 42;
            buf.as_ptr() as usize
        });
        // Same thread, same size: the very next request reuses the arena.
        let second = with_scratch(64, |buf| {
            assert_eq!(buf[0], 0, "scratch must be re-zeroed");
            buf.as_ptr() as usize
        });
        assert_eq!(first, second, "buffer should be recycled");
    }

    #[test]
    fn bucket_cap_bounds_memory() {
        for _ in 0..(MAX_PER_BUCKET * 3) {
            recycle(vec![0u64; 128]);
        }
        POOL.with(|p| {
            let pool = p.borrow();
            assert!(pool.get(&128).map_or(0, Vec::len) <= MAX_PER_BUCKET);
        });
    }
}
