//! Pool-utilization telemetry: fan-outs record dispatches, chunks, busy
//! time, and imbalance; sequential execution records nothing. Own
//! process (integration test) because the counters are global.

use bp_par::BpThreadPool;
use bp_telemetry::counters::{self, Counter};

#[test]
fn fanout_records_utilization_and_sequential_does_not() {
    bp_telemetry::set_enabled(true);
    bp_telemetry::reset();

    // Sequential pool: the fan-out path is never entered.
    let seq = BpThreadPool::sequential();
    let mut v = vec![0u64; 64];
    seq.par_for_each_mut(&mut v, u64::MAX, |i, x| *x = i as u64);
    assert_eq!(counters::get(Counter::ParDispatches), 0);
    assert_eq!(counters::get(Counter::ParChunks), 0);

    // Parallel pool: one dispatch, four chunks, nonzero busy time.
    let pool = BpThreadPool::new(4);
    pool.par_for_each_mut(&mut v, u64::MAX, |i, x| {
        // Enough work per element for a measurable busy time.
        let mut acc = i as u64;
        for _ in 0..10_000 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        *x = acc;
    });
    assert_eq!(counters::get(Counter::ParDispatches), 1);
    assert_eq!(counters::get(Counter::ParChunks), 4);
    assert!(counters::get(Counter::ParBusyNs) > 0);

    // par_map dispatches too.
    pool.par_map(64, u64::MAX, |i| i);
    assert_eq!(counters::get(Counter::ParDispatches), 2);

    // The runtime gate silences recording without a rebuild.
    bp_telemetry::set_enabled(false);
    pool.par_map(64, u64::MAX, |_| {});
    assert_eq!(counters::get(Counter::ParDispatches), 2);

    // Adaptive cutoff: a hinted fan-out whose estimated work falls below
    // the pool's min-work threshold runs inline and is counted as such,
    // not as a dispatch.
    bp_telemetry::set_enabled(true);
    bp_telemetry::reset();
    let cutoff = BpThreadPool::with_min_work(4, 1 << 20);
    let mut small = vec![0u64; 64];
    cutoff.par_for_each_mut(&mut small, 1, |i, x| *x = i as u64);
    assert_eq!(counters::get(Counter::ParInline), 1);
    assert_eq!(counters::get(Counter::ParDispatches), 0);

    // Above the threshold the same pool fans out.
    cutoff.par_map(64, 1 << 20, |_| {});
    assert_eq!(counters::get(Counter::ParInline), 1);
    assert_eq!(counters::get(Counter::ParDispatches), 1);

    // A `u64::MAX` estimate is never under the cutoff, not even the
    // highest one.
    let highest = BpThreadPool::with_min_work(4, u64::MAX);
    highest.par_map(64, u64::MAX, |_| {});
    assert_eq!(counters::get(Counter::ParInline), 1);
    assert_eq!(counters::get(Counter::ParDispatches), 2);
}
