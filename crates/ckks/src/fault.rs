//! Fault injection for the CKKS evaluation layer.
//!
//! Compiled into every build. Where the RNS-layer helpers
//! (`bp_rns::fault`) corrupt data structures directly, this module injects
//! faults at the evaluator's two most failure-prone kernels — keyswitching
//! and rescaling — the way a flaky accelerator FU or a memory fault
//! mid-keyswitch would: the armed operation reports detected corruption as
//! a typed, *transient* [`crate::EvalError`] (see
//! [`crate::EvalError::is_transient`]) so the chaos suite can drive the
//! retry/circuit-breaker machinery of `bp-runtime` end to end.
//!
//! Faults are armed on a process-global schedule keyed by [`FaultSite`]:
//! `arm(site, skip)` makes the `skip+1`-th hit of that site fail, once.
//! Multiple armed entries queue independently. Nothing happens until a
//! fault is armed: an unarmed hit costs one relaxed atomic load and never
//! takes the plan's lock. Tests that arm faults must run single-threaded
//! against the schedule they arm (the global plan is shared process
//! state — use [`disarm_all`] between cases).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Evaluator kernels that can be armed to fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// The hybrid keyswitch inner product (`Evaluator::apply_ksk`) —
    /// shared by multiply, square, rotate and conjugate.
    KeySwitch,
    /// The rescale kernel, hit once per `Evaluator::rescale` call.
    /// Neither `adjust_to` nor an auto-align repair rescale reaches it.
    Rescale,
}

#[derive(Debug)]
struct Armed {
    site: FaultSite,
    /// Hits of `site` still to let through before firing.
    skip: u64,
}

/// An arming schedule. The evaluator reads the process-global [`PLAN`];
/// unit tests build their own, so that they share no state with the
/// evaluator tests running beside them.
struct Plan {
    entries: Mutex<Vec<Armed>>,
    /// `!entries.is_empty()`, stored under the lock by every change to
    /// `entries`, so that an unarmed hit is one load. It publishes no
    /// data: an armed hit reads `entries` under the lock.
    armed: AtomicBool,
}

static PLAN: Plan = Plan::new();

impl Plan {
    const fn new() -> Self {
        Plan {
            entries: Mutex::new(Vec::new()),
            armed: AtomicBool::new(false),
        }
    }

    fn entries(&self) -> MutexGuard<'_, Vec<Armed>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn arm(&self, site: FaultSite, skip: u64) {
        let mut entries = self.entries();
        entries.push(Armed { site, skip });
        self.armed.store(true, Ordering::Relaxed);
    }

    fn disarm_all(&self) {
        let mut entries = self.entries();
        entries.clear();
        self.armed.store(false, Ordering::Relaxed);
    }

    #[inline]
    fn fire(&self, site: FaultSite) -> bool {
        self.armed.load(Ordering::Relaxed) && self.fire_armed(site)
    }

    /// The armed half of [`Plan::fire`], kept out of line so that the
    /// check inlined into the evaluator's kernels stays one load and a
    /// branch.
    #[cold]
    fn fire_armed(&self, site: FaultSite) -> bool {
        let mut entries = self.entries();
        for (i, armed) in entries.iter_mut().enumerate() {
            if armed.site != site {
                continue;
            }
            if armed.skip > 0 {
                armed.skip -= 1;
                return false;
            }
            entries.remove(i);
            self.armed.store(!entries.is_empty(), Ordering::Relaxed);
            return true;
        }
        false
    }
}

/// Arms one fault: the `skip+1`-th subsequent hit of `site` fails with a
/// transient corruption error, then the entry is spent.
pub fn arm(site: FaultSite, skip: u64) {
    PLAN.arm(site, skip);
}

/// Clears every armed fault.
pub fn disarm_all() {
    PLAN.disarm_all();
}

/// Number of faults still armed (queued or counting down).
pub fn armed_count() -> usize {
    PLAN.entries().len()
}

/// Called by the evaluator at each injection point: `true` when an armed
/// fault fires for this hit (the caller must then fail with a typed
/// error).
#[inline]
pub(crate) fn fire(site: FaultSite) -> bool {
    PLAN.fire(site)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn armed_fault_fires_once_after_skips() {
        let plan = Plan::new();
        let armed = || plan.armed.load(Ordering::Relaxed);
        assert!(!armed());
        plan.arm(FaultSite::KeySwitch, 2);
        assert!(armed());
        assert_eq!(plan.entries().len(), 1);
        assert!(!plan.fire(FaultSite::KeySwitch));
        assert!(!plan.fire(FaultSite::KeySwitch));
        assert!(!plan.fire(FaultSite::Rescale), "other sites are unaffected");
        assert!(plan.fire(FaultSite::KeySwitch));
        assert!(!armed(), "the last entry was spent");
        assert!(!plan.fire(FaultSite::KeySwitch), "one-shot: spent");
        assert_eq!(plan.entries().len(), 0);

        plan.arm(FaultSite::KeySwitch, 0);
        plan.arm(FaultSite::Rescale, 0);
        assert!(plan.fire(FaultSite::Rescale));
        assert!(armed(), "one entry is left");
        plan.disarm_all();
        assert!(!armed());
        assert_eq!(plan.entries().len(), 0);
    }
}
