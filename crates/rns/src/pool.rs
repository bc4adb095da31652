//! Shared, lazily-built cache of per-prime NTT tables and the basis
//! converters built from them.
//!
//! BitPacker ciphertexts introduce *new* residue moduli as they move down
//! levels (paper Fig. 5), so the set of primes in play is not fixed up
//! front. [`PrimePool`] hands out `Arc<NttTable>`s on demand and memoizes
//! them, so every polynomial touching prime `q` shares one table. It
//! memoizes [`BasisConverter`]s the same way: keyswitching and level
//! management convert between the same handful of bases on every op, and
//! each build costs `O(k·m)` BigUint divisions plus inversions.

use crate::basis::BasisConverter;
use crate::{NttTable, RnsError};
use bp_par::BpThreadPool;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, OnceLock, RwLock};

/// Per-key `OnceLock` slots: the outer map lock is held only long enough
/// to find/insert a slot, never across construction, and `OnceLock`
/// guarantees each value is built exactly once even when many threads
/// race on the same previously-unseen key.
type Memo<K, V> = RwLock<HashMap<K, Arc<OnceLock<V>>>>;

/// The value memoized in `memo` under `key`, built by `build` on first
/// use.
fn memoized<K: Eq + Hash, V: Clone>(memo: &Memo<K, V>, key: K, build: impl FnOnce() -> V) -> V {
    // The read guard must drop before the write lock is taken (an
    // `if let` on the guard temporary would hold it through the else
    // branch and self-deadlock).
    let cached = memo.read().expect("pool lock").get(&key).cloned();
    let slot = match cached {
        Some(slot) => slot,
        None => Arc::clone(memo.write().expect("pool lock").entry(key).or_default()),
    };
    slot.get_or_init(build).clone()
}

/// A converter's source and destination moduli, in order.
type ConverterKey = (Vec<u64>, Vec<u64>);

/// A cache of [`NttTable`]s, and of the [`BasisConverter`]s built from
/// them, for one ring degree `N`.
///
/// Cloning handles is cheap (`Arc`); the pool itself is usually wrapped in
/// an `Arc` and shared by every object in a CKKS context.
///
/// The pool also owns the [`BpThreadPool`] handle that is stamped into
/// every table it builds, which is how the executor propagates from a CKKS
/// context down to every residue-level loop.
#[derive(Debug)]
pub struct PrimePool {
    n: usize,
    threads: Arc<BpThreadPool>,
    tables: Memo<u64, Arc<NttTable>>,
    converters: Memo<ConverterKey, Result<Arc<BasisConverter>, RnsError>>,
}

impl PrimePool {
    /// Creates an empty pool for ring degree `n` (a power of two), using
    /// the process-wide default thread pool.
    ///
    /// # Panics
    /// Panics if `n` is not a power of two.
    pub fn new(n: usize) -> Self {
        Self::with_threads(n, BpThreadPool::global())
    }

    /// Creates an empty pool for ring degree `n` with an explicit executor.
    ///
    /// # Panics
    /// Panics if `n` is not a power of two.
    pub fn with_threads(n: usize, threads: Arc<BpThreadPool>) -> Self {
        assert!(n.is_power_of_two(), "ring degree must be a power of two");
        Self {
            n,
            threads,
            tables: RwLock::new(HashMap::new()),
            converters: RwLock::new(HashMap::new()),
        }
    }

    /// The ring degree `N`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The executor handle stamped into every table this pool builds.
    #[inline]
    pub fn threads(&self) -> &Arc<BpThreadPool> {
        &self.threads
    }

    /// Returns the NTT table for prime `q`, building it on first use.
    ///
    /// Concurrent callers racing on the same uncached prime build the
    /// table exactly once (per-prime `OnceLock` slot) and all receive the
    /// same `Arc`.
    ///
    /// # Panics
    /// Panics if `q` is not an NTT-friendly prime for this pool's `N`.
    pub fn table(&self, q: u64) -> Arc<NttTable> {
        memoized(&self.tables, q, || {
            Arc::new(NttTable::with_threads(q, self.n, Arc::clone(&self.threads)))
        })
    }

    /// Returns the converter from basis `src` to basis `dst` (moduli in
    /// order), building it from this pool's tables on first use. Like
    /// [`PrimePool::table`], racing callers build it exactly once.
    ///
    /// # Errors
    /// The errors of [`BasisConverter::new`]: an empty `src`, or a
    /// modulus in both bases.
    ///
    /// # Panics
    /// Panics if a modulus is not an NTT-friendly prime for this pool's
    /// `N`, or if `src` repeats a modulus.
    pub fn converter(&self, src: &[u64], dst: &[u64]) -> Result<Arc<BasisConverter>, RnsError> {
        memoized(&self.converters, (src.to_vec(), dst.to_vec()), || {
            let tables =
                |moduli: &[u64]| -> Vec<_> { moduli.iter().map(|&q| self.table(q)).collect() };
            BasisConverter::new(&tables(src), &tables(dst)).map(Arc::new)
        })
    }

    /// Convenience: the largest `count` NTT-friendly primes below `2^bits`
    /// for this pool's ring degree.
    ///
    /// # Panics
    /// Panics if fewer than `count` such primes exist.
    pub fn first_primes_below(&self, bits: u32, count: usize) -> Vec<u64> {
        let ps: Vec<u64> = bp_math::primes::ntt_primes_below(bits, 2 * self.n as u64)
            .take(count)
            .collect();
        assert_eq!(
            ps.len(),
            count,
            "only {} NTT-friendly primes below 2^{bits} for N = {}",
            ps.len(),
            self.n
        );
        ps
    }

    /// Number of tables currently cached (slots whose table finished
    /// building).
    pub fn cached(&self) -> usize {
        self.tables
            .read()
            .expect("pool lock")
            .values()
            .filter(|slot| slot.get().is_some())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_memoized() {
        let pool = PrimePool::new(1 << 5);
        let qs = pool.first_primes_below(30, 2);
        let t1 = pool.table(qs[0]);
        let t2 = pool.table(qs[0]);
        assert!(Arc::ptr_eq(&t1, &t2));
        let _ = pool.table(qs[1]);
        assert_eq!(pool.cached(), 2);
    }

    #[test]
    fn converters_are_memoized() {
        let pool = PrimePool::new(1 << 5);
        let qs = pool.first_primes_below(30, 3);
        let c1 = pool.converter(&qs[..2], &qs[2..]).unwrap();
        let c2 = pool.converter(&qs[..2], &qs[2..]).unwrap();
        assert!(Arc::ptr_eq(&c1, &c2));
        // The key is the ordered bases: a reordered source is its own
        // converter, and an invalid pair stays an error.
        let swapped = pool.converter(&[qs[1], qs[0]], &qs[2..]).unwrap();
        assert!(!Arc::ptr_eq(&c1, &swapped));
        assert!(matches!(
            pool.converter(&qs[..2], &qs[1..]),
            Err(RnsError::DuplicateModulus { .. })
        ));
        assert!(matches!(
            pool.converter(&[], &qs),
            Err(RnsError::EmptyBasis)
        ));
        assert_eq!(pool.cached(), 3, "converters share the pool's tables");
    }

    #[test]
    fn first_primes_are_distinct_and_friendly() {
        let pool = PrimePool::new(1 << 6);
        let qs = pool.first_primes_below(32, 5);
        for w in qs.windows(2) {
            assert!(w[0] > w[1]);
        }
        for q in qs {
            assert_eq!(q % (2 * (1 << 6)), 1);
        }
    }

    #[test]
    fn concurrent_table_requests_build_once() {
        // Many threads racing on the same previously-unseen prime must all
        // get the same Arc, and exactly one table may be built.
        let pool = Arc::new(PrimePool::new(1 << 10));
        let q = pool.first_primes_below(40, 1)[0];
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let p = Arc::clone(&pool);
                std::thread::spawn(move || p.table(q))
            })
            .collect();
        let tables: Vec<Arc<NttTable>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for t in &tables[1..] {
            assert!(Arc::ptr_eq(&tables[0], t), "racers must share one table");
        }
        assert_eq!(pool.cached(), 1, "exactly one table built under the race");
    }
}
