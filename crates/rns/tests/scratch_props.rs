//! Property tests for the pool that owns every residue buffer
//! (`bp_rns::scratch`).
//!
//! A residue gives its buffer back to the pool, dirty, when it drops, and
//! the pool buckets buffers by *exact length*, so a buffer of one degree
//! must never leak its length — or its stale contents — into a request
//! for another. These tests interleave drops of dirty residues with takes
//! across deliberately mismatched sizes and assert the invariants every
//! caller relies on:
//!
//! * `take_zeroed(n)` is exactly `n` zeros, always;
//! * `take_copy(src)` equals `src` exactly, always;
//! * a new residue is all zeros at its table's degree, and a clone equals
//!   its source.

use bp_rns::{scratch, PrimePool, ResiduePoly};
use proptest::prelude::*;

/// Degrees of the residues dropped dirty.
const DEGREES: [usize; 3] = [8, 16, 256];

/// Lengths the takes alternate between — includes 0 and non-power-of-two
/// sizes that no residue has.
const SIZES: [usize; 6] = [0, 1, 8, 16, 100, 256];

/// A residue of degree `n` with every coefficient `fill`.
fn dirty(pools: &[PrimePool], n: usize, fill: u64) -> ResiduePoly {
    let pool = pools
        .iter()
        .find(|p| p.n() == n)
        .expect("a pool per degree");
    let q = pool.first_primes_below(30, 1)[0];
    let mut r = ResiduePoly::zero(pool.table(q));
    r.coeffs_mut().fill(fill % q);
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mismatched_sizes_never_leak_length_or_data(
        steps in proptest::collection::vec(any::<u64>(), 1..120)
    ) {
        let pools: Vec<PrimePool> = DEGREES.iter().map(|&n| PrimePool::new(n)).collect();
        for step in steps {
            // Decode (action, sizes, fill pattern) from one word.
            let what = step & 3;
            let n = SIZES[(step >> 2) as usize % SIZES.len()];
            let degree = DEGREES[(step >> 5) as usize % DEGREES.len()];
            let fill = (step >> 8) | 0xDEAD_0000;
            match what {
                // Drop a dirty residue.
                0 => drop(dirty(&pools, degree, fill)),
                // take_zeroed must be all zeros at exactly n — even right
                // after a dirty drop at this or another degree.
                1 => {
                    drop(dirty(&pools, degree, fill));
                    let v = scratch::take_zeroed(n);
                    prop_assert_eq!(v.len(), n);
                    prop_assert!(v.iter().all(|&x| x == 0), "stale data in take_zeroed({})", n);
                }
                // take_copy must equal the source at exactly src.len().
                2 => {
                    drop(dirty(&pools, degree, fill));
                    let src: Vec<u64> =
                        (0..n as u64).map(|i| i.wrapping_mul(0x9E37) ^ fill).collect();
                    let v = scratch::take_copy(&src);
                    prop_assert_eq!(&v, &src);
                }
                // A new residue is zeros at its degree even right after a
                // dirty drop, and its dirty clone equals it.
                _ => {
                    drop(dirty(&pools, degree, u64::MAX));
                    let pool = &pools[(step >> 7) as usize % pools.len()];
                    let q = pool.first_primes_below(30, 1)[0];
                    let mut r = ResiduePoly::zero(pool.table(q));
                    prop_assert_eq!(r.coeffs().len(), pool.n());
                    prop_assert!(r.coeffs().iter().all(|&x| x == 0), "stale data in zero()");
                    r.coeffs_mut().fill(fill % q);
                    prop_assert_eq!(r.clone().coeffs(), r.coeffs());
                }
            }
        }
    }
}

/// Deterministic worst case: a dropped residue of a large degree never
/// serves a smaller request, and a smaller one never serves a larger.
#[test]
fn a_dropped_residue_serves_only_its_own_degree() {
    let pools: Vec<PrimePool> = DEGREES.iter().map(|&n| PrimePool::new(n)).collect();
    drop(dirty(&pools, 256, 0xABCD));
    drop(dirty(&pools, 16, 0xABCD));
    let v = scratch::take_zeroed(8);
    assert_eq!(v.len(), 8);
    assert!(v.iter().all(|&x| x == 0));
    let v = scratch::take_copy(&[1; 100]);
    assert_eq!(v, vec![1; 100]);
    let v256 = scratch::take_zeroed(256);
    assert_eq!(v256.len(), 256);
    assert!(v256.iter().all(|&x| x == 0), "stale 0xABCD leaked through");
}
