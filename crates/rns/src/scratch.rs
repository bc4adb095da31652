//! The thread-local pool that owns every residue buffer.
//!
//! Every [`ResiduePoly`](crate::ResiduePoly) takes its `n`-coefficient
//! `Vec<u64>` from this pool when it is built or cloned, and gives it back
//! when it is dropped. Rescale corrections, basis-conversion temporaries,
//! keyswitch accumulators and whole ciphertexts all draw on it, so a
//! steady-state op, and a whole program run after the previous run's
//! nodes were dropped, reuses memory the process already touched instead
//! of allocating it and page-faulting it in again.
//!
//! # Ownership rules
//!
//! * [`take_zeroed`] / [`take_copy`] / [`take_with`] hand the caller an
//!   **owned** `Vec<u64>`. A buffer that a `ResiduePoly` holds comes back
//!   when that residue is dropped, wherever in the program the drop
//!   happens; there is nothing to retire by hand. A buffer the caller
//!   keeps as a bare `Vec` is simply freed when dropped.
//! * Reuse never affects results: every take overwrites every element
//!   (zeros, the source, or `f(i)`) before the caller sees it.
//! * Pools are **thread-local**. Fan-outs take their output buffers on
//!   the pool's worker threads, and those buffers are usually dropped on
//!   the caller, so they land in the caller's pool: with `W` workers the
//!   caller's pool fills while the workers' takes allocate. That is a
//!   cache miss, never a leak, and the cap bounds the caller's side.
//! * **Byte cap.** A thread keeps at most `CAP_BYTES` (64 MiB) of pooled
//!   buffers and frees what would exceed it. The cap must hold every node a
//!   keep-all run drops at its end (29–31 MiB for the largest benchmark
//!   programs at N = 2¹³), or the next run faults that memory in again;
//!   it also bounds what an idle thread holds on to.
//! * **Release.** [`release`] frees the calling thread's pool. A run that
//!   retires each node after its last reader calls it when it starts: its
//!   live set is small and refills the pool within a few ops, while
//!   memory left pooled by an earlier keep-all run would sit beside the
//!   new run's own allocations (checkpoint streams above all) and raise
//!   the process's peak.
//! * **Panic safety.** A drop never panics: the pool is reached through
//!   `try_with` and `try_borrow_mut`, and a buffer that cannot be pooled
//!   (during thread teardown, or while the pool is borrowed) is freed. No
//!   caller code runs while the pool's `RefCell` is borrowed, and an
//!   unwinding kernel's buffers return through their drops.
//!
//! Buffers are bucketed by exact length (residue degree `n`), so
//! mixed-degree processes (tests run n=16 and n=8192 contexts side by
//! side) never serve one degree's buffer to another.
//!
//! With telemetry enabled, takes are counted as pool hits and misses
//! (`scratch_reuses` / `scratch_allocs`), so reuse effectiveness is
//! observable in `trace_report`.

use std::cell::RefCell;
use std::collections::HashMap;

use bp_telemetry::counters::{self, Counter};

/// Bytes of pooled buffers one thread keeps: 64 MiB, about twice the
/// nodes a keep-all run of the largest benchmark programs (N = 2¹³,
/// 61-bit words) drops at its end.
pub(crate) const CAP_BYTES: usize = 64 << 20;

/// One thread's pooled buffers, by length, and their total capacity in
/// bytes.
#[derive(Default)]
struct Pool {
    buckets: HashMap<usize, Vec<Vec<u64>>>,
    bytes: usize,
}

impl Pool {
    fn pop(&mut self, n: usize) -> Option<Vec<u64>> {
        let v = self.buckets.get_mut(&n)?.pop()?;
        self.bytes -= bytes(&v);
        Some(v)
    }

    /// Pools `v` under its length if that keeps the pool within
    /// `CAP_BYTES`; otherwise hands it back to be freed.
    fn put(&mut self, v: Vec<u64>) -> Option<Vec<u64>> {
        let b = bytes(&v);
        if v.is_empty() || self.bytes + b > CAP_BYTES {
            return Some(v);
        }
        self.bytes += b;
        self.buckets.entry(v.len()).or_default().push(v);
        None
    }
}

fn bytes(v: &Vec<u64>) -> usize {
    v.capacity() * std::mem::size_of::<u64>()
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::default());
}

/// Pops a pooled buffer of exactly `n` elements, or `None`.
fn pop(n: usize) -> Option<Vec<u64>> {
    POOL.try_with(|p| p.try_borrow_mut().ok()?.pop(n))
        .ok()
        .flatten()
}

/// Gives `v` back to this thread's pool; frees it when the pool is full,
/// borrowed or already torn down. Never panics.
pub(crate) fn give_back(v: Vec<u64>) {
    let spill = POOL.try_with(|p| match p.try_borrow_mut() {
        Ok(mut pool) => pool.put(v),
        Err(_) => Some(v),
    });
    drop(spill);
}

/// Frees every buffer in this thread's pool. Called when a retiring run
/// starts (see the module docs).
pub fn release() {
    let taken = POOL.try_with(|p| {
        p.try_borrow_mut()
            .map(|mut pool| std::mem::take(&mut *pool))
    });
    drop(taken);
}

/// An owned buffer of `n` zeros, reusing a pooled buffer when one of the
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

/// An owned copy of `src`, reusing a pooled buffer of the same length
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
/// reusing a pooled buffer of the same length when available. Every
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Domain, PrimePool, ResiduePoly, RnsPoly};

    fn pooled_bytes() -> usize {
        POOL.with(|p| p.borrow().bytes)
    }

    #[test]
    fn take_zeroed_returns_zeros_even_after_a_dirty_buffer_comes_back() {
        give_back(vec![7u64; 8]);
        let v = take_zeroed(8);
        assert_eq!(v, vec![0u64; 8]);
    }

    #[test]
    fn take_copy_matches_source() {
        give_back(vec![0u64; 4]);
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
        give_back(vec![7u64; 8]);
        assert_eq!(take_with(8, f), want);
        // Miss path (no pooled buffer of length 8 left).
        assert_eq!(take_with(8, f), want);
    }

    #[test]
    fn buckets_are_keyed_by_length() {
        give_back(vec![1u64; 16]);
        // A request for a different length must not get the 16-buffer.
        let v = take_zeroed(32);
        assert_eq!(v.len(), 32);
        let v = take_zeroed(16);
        assert_eq!(v.len(), 16);
    }

    /// A truncated buffer keeps the capacity of its old length: it is
    /// pooled under its new length and never serves the old one.
    #[test]
    fn truncated_buffer_never_serves_its_old_length() {
        let mut big = vec![0xABCDu64; 256];
        big.truncate(16);
        give_back(big);
        let v = take_zeroed(256);
        assert_eq!(v.len(), 256);
        assert!(v.iter().all(|&x| x == 0));
        let v16 = take_zeroed(16);
        assert_eq!(v16.len(), 16);
        assert!(v16.iter().all(|&x| x == 0), "stale 0xABCD leaked through");
    }

    /// A dropped residue, alone or inside a dropped polynomial, hands its
    /// buffer to the next take of its length; a clone equals its source.
    #[test]
    fn dropped_residues_serve_the_next_take() {
        let pool = PrimePool::new(1 << 6);
        let qs = pool.first_primes_below(30, 2);
        release();

        let mut r = ResiduePoly::zero(pool.table(qs[0]));
        r.coeffs_mut()
            .iter_mut()
            .enumerate()
            .for_each(|(i, x)| *x = i as u64);
        let copy = r.clone();
        assert_eq!(copy.coeffs(), r.coeffs());
        assert_eq!(copy.modulus(), r.modulus());
        assert_ne!(copy.coeffs().as_ptr(), r.coeffs().as_ptr());
        let ptr = r.coeffs().as_ptr();
        drop(r);
        let served = take_zeroed(64);
        assert_eq!(served.as_ptr(), ptr, "a lone residue's buffer");

        let p = RnsPoly::from_i64_coeffs(&pool, &qs, &[3, -1, 4]);
        let q = p.clone();
        assert_eq!(q.residues().len(), p.residues().len());
        for (a, b) in q.residues().iter().zip(p.residues()) {
            assert_eq!(a.coeffs(), b.coeffs());
        }
        let mut ptrs: Vec<_> = p.residues().iter().map(|r| r.coeffs().as_ptr()).collect();
        drop(p);
        // The pool is a stack per length: the last residue dropped is
        // the first one served.
        ptrs.reverse();
        let taken: Vec<Vec<u64>> = ptrs.iter().map(|_| take_zeroed(64)).collect();
        let got: Vec<_> = taken.iter().map(|v| v.as_ptr()).collect();
        assert_eq!(got, ptrs, "a polynomial's residue buffers");
        drop(q);
        let z = RnsPoly::zero(&pool, &qs, Domain::Ntt);
        assert!(z
            .residues()
            .iter()
            .all(|r| r.coeffs().iter().all(|&x| x == 0)));
    }

    /// More than `CAP_BYTES` of buffers coming back leaves the pool at
    /// or under the cap. The buffers are zero-allocated and never
    /// written, so their pages are never touched.
    #[test]
    fn the_byte_cap_bounds_the_pool() {
        release();
        let len = CAP_BYTES / 3 / std::mem::size_of::<u64>() + 1;
        for _ in 0..4 {
            give_back(vec![0u64; len]);
            assert!(
                pooled_bytes() <= CAP_BYTES,
                "{} bytes pooled",
                pooled_bytes()
            );
        }
        assert_eq!(pooled_bytes(), 2 * len * 8, "two fit, the rest are freed");
        release();
    }

    #[test]
    fn release_empties_the_pool() {
        give_back(vec![5u64; 32]);
        give_back(vec![5u64; 33]);
        assert!(pooled_bytes() > 0);
        release();
        assert_eq!(pooled_bytes(), 0);
        POOL.with(|p| assert!(p.borrow().buckets.values().all(Vec::is_empty)));
    }

    /// A buffer given back while the pool is borrowed is freed, not
    /// pooled, and nothing panics.
    #[test]
    fn giving_back_during_a_borrow_frees_the_buffer() {
        release();
        POOL.with(|p| {
            let _held = p.borrow_mut();
            give_back(vec![1u64; 8]);
            release();
            assert!(pop(8).is_none());
        });
        assert_eq!(pooled_bytes(), 0);
    }
}
