//! Hierarchical wall-clock profiler: RAII frames nest into per-thread
//! call paths, aggregated globally into a span tree with inclusive and
//! exclusive times.
//!
//! [`frame`] opens a named frame on the calling thread's stack; when the
//! frame drops, its inclusive time is charged to the semicolon-joined
//! path of every frame open above it (`mul;keyswitch;ntt_forward`) and
//! its own time minus its children's is the path's *exclusive* time —
//! exactly the folded-stack model used by flamegraph tooling, which
//! [`SpanTree::folded`] emits directly. A [`crate::spans::span`] is a
//! frame named after its kind, so keyswitch, basis-convert and NTT work
//! nests under whichever evaluator op is running; pool worker threads
//! accumulate their own root paths. The tree is the crate's only timing
//! store: [`crate::spans::stats`] is computed from it.
//!
//! While recording is off, [`frame`] returns an inert frame that reads
//! no clock and records nothing.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Maximum distinct call paths retained; further new paths are counted
/// in [`SpanTree::dropped`] rather than recorded.
pub const PROFILE_PATH_CAP: usize = 4096;

/// Aggregate timing for one call path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathStat {
    /// Semicolon-joined frame names, outermost first
    /// (e.g. `mul;keyswitch;basis_convert`).
    pub path: String,
    /// Completed frames at this path.
    pub count: u64,
    /// Summed wall-clock nanoseconds including child frames.
    pub inclusive_ns: u64,
    /// Summed wall-clock nanoseconds excluding child frames.
    pub exclusive_ns: u64,
}

/// The aggregated span tree: every observed call path with inclusive and
/// exclusive times, sorted by path for deterministic output.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanTree {
    /// Path rows, ascending lexicographic by path.
    pub paths: Vec<PathStat>,
    /// New paths discarded because [`PROFILE_PATH_CAP`] was reached.
    pub dropped: u64,
}

impl SpanTree {
    /// The row for an exact path, if observed.
    pub fn get(&self, path: &str) -> Option<&PathStat> {
        self.paths
            .binary_search_by(|p| p.path.as_str().cmp(path))
            .ok()
            .map(|i| &self.paths[i])
    }

    /// Flamegraph-compatible folded-stack output: one line per path,
    /// `path<space>exclusive_ns`, sorted by path. Zero-weight paths are
    /// kept so the tree shape is complete.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for p in &self.paths {
            out.push_str(&p.path);
            out.push(' ');
            out.push_str(&p.exclusive_ns.to_string());
            out.push('\n');
        }
        out
    }

    /// Renders a fixed-width attribution table (inclusive/exclusive
    /// milliseconds per path) for terminal reports.
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "{:>10} {:>12} {:>12}  path\n",
            "count", "incl ms", "excl ms"
        );
        for p in &self.paths {
            out.push_str(&format!(
                "{:>10} {:>12.3} {:>12.3}  {}\n",
                p.count,
                p.inclusive_ns as f64 / 1e6,
                p.exclusive_ns as f64 / 1e6,
                p.path,
            ));
        }
        out
    }
}

struct StackEntry {
    name: &'static str,
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<StackEntry>> = const { RefCell::new(Vec::new()) };
}

/// Per-path accumulator: (count, inclusive ns, exclusive ns).
type PathTotals = HashMap<String, (u64, u64, u64)>;

static TREE: Mutex<Option<PathTotals>> = Mutex::new(None);
static DROPPED: AtomicU64 = AtomicU64::new(0);

fn close(start: Instant) {
    let inclusive = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let (path, child_ns) = STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let entry = match stack.pop() {
            Some(e) => e,
            // Unbalanced close (frame forgotten across threads);
            // drop the measurement rather than corrupt the tree.
            None => return (None, 0),
        };
        if let Some(parent) = stack.last_mut() {
            parent.child_ns = parent.child_ns.saturating_add(inclusive);
        }
        let mut path = String::with_capacity(16 * (stack.len() + 1));
        for e in stack.iter() {
            path.push_str(e.name);
            path.push(';');
        }
        path.push_str(entry.name);
        (Some(path), entry.child_ns)
    });
    let Some(path) = path else { return };
    let exclusive = inclusive.saturating_sub(child_ns);
    let mut guard = TREE.lock().unwrap_or_else(|e| e.into_inner());
    let map = guard.get_or_insert_with(HashMap::new);
    if let Some(row) = map.get_mut(&path) {
        row.0 += 1;
        row.1 = row.1.saturating_add(inclusive);
        row.2 = row.2.saturating_add(exclusive);
    } else if map.len() < PROFILE_PATH_CAP {
        map.insert(path, (1, inclusive, exclusive));
    } else {
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
}

fn to_tree(map: &PathTotals) -> SpanTree {
    let mut paths: Vec<PathStat> = map
        .iter()
        .map(|(path, &(count, inclusive_ns, exclusive_ns))| PathStat {
            path: path.clone(),
            count,
            inclusive_ns,
            exclusive_ns,
        })
        .collect();
    paths.sort_by(|a, b| a.path.cmp(&b.path));
    SpanTree {
        paths,
        dropped: DROPPED.load(Ordering::Relaxed),
    }
}

/// An open RAII profiler frame; charges its path on drop. Inert while
/// recording is off.
#[derive(Debug)]
pub struct Frame {
    live: Option<Instant>,
}

/// Opens a named frame on the calling thread's profile stack. The name
/// must be a static string (op or span kind names are). If telemetry is
/// not live at open time, the frame is inert.
#[inline]
pub fn frame(name: &'static str) -> Frame {
    let live = crate::enabled().then(|| {
        STACK.with(|s| s.borrow_mut().push(StackEntry { name, child_ns: 0 }));
        Instant::now()
    });
    Frame { live }
}

impl Drop for Frame {
    fn drop(&mut self) {
        if let Some(start) = self.live.take() {
            close(start);
        }
    }
}

/// A copy of the aggregated span tree, leaving the aggregator in place.
pub fn snapshot() -> SpanTree {
    let guard = TREE.lock().unwrap_or_else(|e| e.into_inner());
    guard.as_ref().map(to_tree).unwrap_or_default()
}

/// Drains the aggregator, returning the tree accumulated since the last
/// [`take`].
pub fn take() -> SpanTree {
    let mut guard = TREE.lock().unwrap_or_else(|e| e.into_inner());
    let tree = guard.as_ref().map(to_tree).unwrap_or_default();
    *guard = None;
    DROPPED.store(0, Ordering::Relaxed);
    tree
}

/// Clears the aggregator. Open frames on any thread keep their stacks
/// and will record into the fresh aggregator when they close.
pub fn reset() {
    let mut guard = TREE.lock().unwrap_or_else(|e| e.into_inner());
    *guard = None;
    DROPPED.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests use globally unique frame names and `snapshot()` (no
    // reset/take) so they cannot race other tests sharing the global
    // aggregator.
    #[test]
    fn nested_frames_fold_into_paths_with_exclusive_times() {
        crate::set_enabled(true);
        {
            let _outer = frame("outer_test_frame");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = frame("inner_test_frame");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let tree = snapshot();
        let outer = tree.get("outer_test_frame").expect("outer path");
        let inner = tree
            .get("outer_test_frame;inner_test_frame")
            .expect("inner path");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert!(outer.inclusive_ns >= inner.inclusive_ns);
        assert!(outer.exclusive_ns <= outer.inclusive_ns);
        assert!(outer.exclusive_ns <= outer.inclusive_ns - inner.inclusive_ns + 1_000_000);
        let folded = tree.folded();
        assert!(folded.contains("outer_test_frame;inner_test_frame "));
    }

    #[test]
    fn sibling_frames_share_a_path_row() {
        crate::set_enabled(true);
        {
            let _outer = frame("sib_outer");
            for _ in 0..3 {
                let _inner = frame("sib_inner");
            }
        }
        let tree = snapshot();
        assert_eq!(tree.get("sib_outer;sib_inner").expect("row").count, 3);
    }
}
