//! Deterministic parallel runtime for residue-grain fan-out.
//!
//! RNS polynomial arithmetic is embarrassingly parallel across residues:
//! every residue is processed with *independent* per-index math, so the
//! result of a loop over residues cannot depend on how the iterations are
//! distributed over threads. [`BpThreadPool`] exploits exactly that
//! structure with a **persistent, parked worker pool**: workers are
//! spawned once (lazily, on the first parallel dispatch), sleep on a
//! condvar between dispatches, and wake to claim contiguous chunks of the
//! index range. The design gives four guarantees the FHE pipeline relies
//! on:
//!
//! 1. **Bit-identical results for any worker count.** Each index is
//!    processed by the same closure with the same inputs regardless of
//!    the chunk it lands in and regardless of *which* thread runs the
//!    chunk; no reductions, no shared accumulators, no floating-point
//!    reassociation. Chunk *boundaries* depend only on `(len, workers)`,
//!    never on timing.
//! 2. **Zero dispatch cost in sequential mode.** A pool with
//!    `workers == 1` (or a single-element slice) runs the loop inline on
//!    the calling thread — no thread is ever spawned, no synchronization
//!    happens, and the code path is byte-for-byte the classic sequential
//!    loop. An **adaptive cutoff** extends this to small parallel pools:
//!    every fan-out carries a per-item work estimate, and when the
//!    estimated work per chunk falls below a calibrated threshold
//!    ([`DEFAULT_MIN_WORK`]), the fan-out runs inline too, because waking
//!    workers would cost more than it saves.
//! 3. **Panics propagate, the pool survives.** A panic in any chunk is
//!    caught at the chunk boundary, the remaining chunks still run, and
//!    the first panic payload is re-raised on the calling thread once the
//!    dispatch completes — exactly the observable behavior of the old
//!    scoped fork-join executor. The workers themselves never unwind, so
//!    the pool remains usable after a propagated panic.
//! 4. **No work outlives the call.** `dispatch` does not return until
//!    every chunk has completed (a latch counts them), so borrowed data
//!    handed to the closure is never touched after the call returns.
//!    Dropping the pool parks no orphans: workers observe the shutdown
//!    flag and exit.
//!
//! The worker count is configurable per pool ([`BpThreadPool::new`]), and
//! the process-wide default ([`BpThreadPool::global`]) honours the
//! `BITPACKER_THREADS` environment variable, falling back to the
//! machine's available parallelism.
//!
//! Cancellation ([`CancelToken`]) stays cooperative and *coarser* than a
//! dispatch: evaluator code polls the token between kernels, and an
//! in-flight fan-out always runs to completion — cancelling mid-dispatch
//! therefore cannot change the bytes produced by kernels that already
//! started.
//!
//! While telemetry recording is on, every parallel fan-out additionally
//! records pool-utilization statistics (dispatches, chunks, per-worker
//! busy nanoseconds, max−min chunk imbalance, and fan-outs elided by the
//! adaptive cutoff) into the `bp-telemetry` counters; while it is off the
//! hooks cost one flag load.
//!
//! # Why there is one `unsafe` block in this crate
//!
//! Persistent workers must run closures that borrow the caller's stack
//! (`&mut [T]` chunks), but a parked thread cannot name that lifetime —
//! this is the classic scoped-pool problem, and every persistent pool
//! (rayon included) solves it the same way: erase the lifetime behind a
//! raw pointer and guarantee *structurally* that the dispatch joins
//! before the borrow ends. The erasure lives in the private `erased`
//! module (plus the one guarded call site in `Job::run_chunks`), and the
//! soundness argument is written next to it. The rest of the crate
//! remains `#![deny(unsafe_code)]`.

#![warn(missing_docs)]
#![deny(unsafe_code)]
// The panic-free pipeline contract: library code may not unwrap. Known
// invariants use expect() with a message naming the invariant; everything
// else returns a typed error. Tests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use bp_telemetry::counters::{self, Counter};

/// Why a [`CancelToken`] reported cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CancelReason {
    /// [`CancelToken::cancel`] was called (shutdown, client disconnect,
    /// a supervisor killing the job).
    Requested,
    /// The token's deadline passed.
    DeadlineExceeded,
}

impl std::fmt::Display for CancelReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CancelReason::Requested => write!(f, "cancellation requested"),
            CancelReason::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

/// A cooperative cancellation handle shared between a job supervisor and
/// the code doing the work.
///
/// Long evaluator programs (bootstrapping-depth pipelines, encrypted
/// training loops) cannot be preempted mid-kernel without corrupting
/// state, so cancellation is cooperative: the supervisor arms the token
/// (explicitly via [`CancelToken::cancel`] or implicitly via a deadline)
/// and the evaluator polls [`CancelToken::check`] between operations —
/// the granularity at which abandoning work is always safe.
///
/// Tokens are cheap to clone (an `Arc` around two atomics) and safe to
/// poll from any thread.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

#[derive(Debug, Default)]
struct CancelInner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that only cancels when [`CancelToken::cancel`] is called.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that additionally cancels once `budget` has elapsed from
    /// now.
    pub fn with_deadline(budget: Duration) -> Self {
        Self {
            inner: Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                deadline: Instant::now().checked_add(budget),
            }),
        }
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Why the token is cancelled, or `None` if work may continue. An
    /// explicit [`CancelToken::cancel`] wins over an elapsed deadline.
    pub fn cancelled(&self) -> Option<CancelReason> {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return Some(CancelReason::Requested);
        }
        match self.inner.deadline {
            Some(d) if Instant::now() >= d => Some(CancelReason::DeadlineExceeded),
            _ => None,
        }
    }

    /// Cooperative checkpoint: `Err(reason)` once the token is cancelled
    /// or past its deadline.
    pub fn check(&self) -> Result<(), CancelReason> {
        match self.cancelled() {
            Some(r) => Err(r),
            None => Ok(()),
        }
    }

    /// Time left until the deadline; `None` when the token has no
    /// deadline. A cancelled or expired token reports zero.
    pub fn remaining(&self) -> Option<Duration> {
        self.inner.deadline.map(|d| {
            if self.inner.cancelled.load(Ordering::Relaxed) {
                Duration::ZERO
            } else {
                d.saturating_duration_since(Instant::now())
            }
        })
    }
}

/// Upper bound applied to *automatically derived* worker counts
/// (environment variable or detected parallelism). Explicit
/// [`BpThreadPool::new`] requests are honoured as given (clamped only to a
/// minimum of 1) so tests and benchmarks can oversubscribe on purpose.
const AUTO_WORKER_CAP: usize = 64;

/// Environment variable overriding the default worker count.
pub const THREADS_ENV_VAR: &str = "BITPACKER_THREADS";

/// Default adaptive cutoff: the minimum estimated work **per chunk**, in
/// element-operation units (≈ one 64-bit modular multiply each), below
/// which a fan-out runs inline instead of waking the pool.
///
/// Calibration: a parked-pool dispatch measured about 0.7 µs, against
/// about 59 µs for the scoped spawns the pool replaced (CHANGES.md, the
/// persistent worker pool); an elementwise modular pass runs at roughly
/// 1–2 ns per element. 16 Ki element-ops per chunk ≈ 20–30 µs of work per
/// worker, comfortably above dispatch cost. In practice this sends
/// NTT-sized chunks (`n·log2 n` units per residue) to the pool and keeps
/// small elementwise fan-outs at n=4096 inline.
pub const DEFAULT_MIN_WORK: u64 = 16 * 1024;

thread_local! {
    /// True while this thread is executing chunks of an in-flight
    /// dispatch (worker or participating caller). Nested fan-outs from
    /// inside a chunk closure run inline — the pool's workers are busy
    /// with the outer dispatch, so parking on them would deadlock.
    static IN_DISPATCH: Cell<bool> = const { Cell::new(false) };
}

/// Lifetime erasure for the dispatch closure — the `unsafe` corner of
/// the crate.
///
/// A persistent worker cannot name the lifetime of a caller's stack
/// closure, so the dispatch loop hands workers a raw pointer and the
/// surrounding structure guarantees validity. The soundness argument:
///
/// * **Liveness.** A worker dereferences the pointer only after winning a
///   chunk claim (`next.fetch_add() < chunks`). Every claimed chunk holds
///   the completion latch open until its `done_one`, and
///   `BpThreadPool::dispatch` blocks on that latch before returning — so
///   the referent closure (a local in `dispatch`'s caller frame) is alive
///   for the duration of every call through the pointer.
/// * **Aliasing.** The referent is `dyn Fn + Sync` — shared calls from
///   several threads are part of its contract, checked at the only
///   construction site ([`RunnerPtr::new`] takes `&(dyn Fn(usize) +
///   Sync)`).
mod erased {
    #![allow(unsafe_code)]

    /// Raw, lifetime-erased pointer to the chunk runner of one dispatch.
    pub(crate) struct RunnerPtr(*const (dyn Fn(usize) + Sync));

    impl RunnerPtr {
        /// Erases the borrow. Soundness is argued at module level: the
        /// dispatch that creates this pointer joins every chunk before
        /// the borrow ends.
        pub(crate) fn new(runner: &(dyn Fn(usize) + Sync)) -> Self {
            let ptr = runner as *const (dyn Fn(usize) + Sync);
            // SAFETY: pure lifetime erasure between identically laid out
            // fat-pointer types (`dyn … + '_` → `dyn … + 'static`); no
            // dereference happens here.
            RunnerPtr(unsafe {
                std::mem::transmute::<
                    *const (dyn Fn(usize) + Sync + '_),
                    *const (dyn Fn(usize) + Sync + 'static),
                >(ptr)
            })
        }

        /// Runs chunk `chunk` through the erased closure.
        ///
        /// # Safety
        /// The caller must hold a live chunk claim on the owning
        /// dispatch (see module docs) so the referent cannot have been
        /// dropped.
        pub(crate) unsafe fn call(&self, chunk: usize) {
            // SAFETY: liveness and shared-call aliasing are guaranteed by
            // the claim/latch protocol documented at module level.
            unsafe { (*self.0)(chunk) }
        }
    }

    // SAFETY: the referent is `Sync` (enforced by `new`'s signature), so
    // sharing and calling it from several threads is sound; liveness
    // across threads is the latch argument at module level.
    unsafe impl Send for RunnerPtr {}
    unsafe impl Sync for RunnerPtr {}
}

/// Per-dispatch pool-utilization telemetry: one busy-time slot per chunk,
/// folded into the global `par_*` counters when the dispatch joins.
///
/// Only constructed when telemetry is live (`None` otherwise), so the
/// default build pays nothing — no allocation, no clock reads.
struct FanoutStats {
    chunk_ns: Vec<AtomicU64>,
}

impl FanoutStats {
    /// Records the dispatch and allocates `chunks` busy-time slots, or
    /// returns `None` when telemetry is off.
    fn begin(chunks: usize) -> Option<Self> {
        if !bp_telemetry::enabled() {
            return None;
        }
        counters::add(Counter::ParDispatches, 1);
        counters::add(Counter::ParChunks, chunks as u64);
        Some(Self {
            chunk_ns: (0..chunks).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    /// Stores the busy time of chunk `idx`, measured from `start`.
    fn record(&self, idx: usize, start: Instant) {
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.chunk_ns[idx].store(ns, Ordering::Relaxed);
    }

    /// Folds this dispatch into the global counters: summed busy time
    /// and the max−min chunk spread (the imbalance a static partition
    /// leaves on the table).
    fn finish(&self) {
        let mut total = 0u64;
        let mut min = u64::MAX;
        let mut max = 0u64;
        for slot in &self.chunk_ns {
            let ns = slot.load(Ordering::Relaxed);
            total = total.saturating_add(ns);
            min = min.min(ns);
            max = max.max(ns);
        }
        counters::add(Counter::ParBusyNs, total);
        counters::add(Counter::ParImbalanceNs, max.saturating_sub(min));
    }
}

/// Counts chunks still outstanding for one dispatch; the dispatching
/// caller blocks on [`Latch::wait`] until every chunk has called
/// [`Latch::done_one`].
struct Latch {
    left: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    fn new(count: usize) -> Self {
        Self {
            left: Mutex::new(count),
            done: Condvar::new(),
        }
    }

    fn done_one(&self) {
        let mut left = self.left.lock().unwrap_or_else(PoisonError::into_inner);
        *left -= 1;
        if *left == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut left = self.left.lock().unwrap_or_else(PoisonError::into_inner);
        while *left > 0 {
            left = self.done.wait(left).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// One in-flight dispatch, shared between the caller and the workers.
struct Job {
    /// Lifetime-erased chunk runner (see [`erased`]).
    runner: erased::RunnerPtr,
    /// Total chunk count; claims at or past this value are spurious.
    chunks: usize,
    /// Claim counter: `fetch_add` hands each chunk index to exactly one
    /// thread. Which thread wins a chunk is timing-dependent, but the
    /// result is not — the runner depends only on the chunk index.
    next: AtomicUsize,
    /// Completion latch, counted in chunks.
    latch: Latch,
    /// First panic payload captured at a chunk boundary; re-raised on the
    /// calling thread after the dispatch completes.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Utilization telemetry (`None` when telemetry is off).
    stats: Option<FanoutStats>,
}

impl Job {
    /// Claims and runs chunks until none remain. Runs on workers and on
    /// the participating caller; panics are contained per chunk so the
    /// latch always resolves and worker threads never unwind.
    fn run_chunks(&self) {
        IN_DISPATCH.set(true);
        loop {
            let ci = self.next.fetch_add(1, Ordering::Relaxed);
            if ci >= self.chunks {
                break;
            }
            let t0 = self.stats.as_ref().map(|_| Instant::now());
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // SAFETY: `ci < self.chunks` is a live claim — the latch
                // holds `dispatch` open until this chunk's `done_one`.
                #[allow(unsafe_code)]
                unsafe {
                    self.runner.call(ci)
                }
            }));
            if let (Some(st), Some(t0)) = (self.stats.as_ref(), t0) {
                st.record(ci, t0);
            }
            if let Err(payload) = result {
                let mut slot = self.panic.lock().unwrap_or_else(PoisonError::into_inner);
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            self.latch.done_one();
        }
        IN_DISPATCH.set(false);
    }
}

/// Shared state behind the parked workers.
struct PoolInner {
    state: Mutex<PoolState>,
    /// Workers park here; notified on publish and on shutdown.
    work: Condvar,
    /// Dispatchers queue here when another dispatch is in flight;
    /// notified when the job slot clears.
    idle: Condvar,
}

struct PoolState {
    /// The single in-flight job, if any. One job at a time keeps chunk
    /// assignment deterministic to reason about and makes the latch the
    /// only completion protocol.
    job: Option<Arc<Job>>,
    shutdown: bool,
}

impl PoolInner {
    /// Parked-worker main loop: sleep until a job with unclaimed chunks
    /// (or shutdown) appears, help drain it, repeat.
    fn worker_loop(self: &Arc<Self>) {
        loop {
            let job = {
                let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
                loop {
                    if st.shutdown {
                        return;
                    }
                    if let Some(job) = st.job.as_ref() {
                        if job.next.load(Ordering::Relaxed) < job.chunks {
                            break Arc::clone(job);
                        }
                    }
                    st = self.work.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
            };
            job.run_chunks();
        }
    }
}

/// A deterministic fan-out executor with a fixed worker count and
/// persistent, parked worker threads.
///
/// `workers − 1` OS threads are spawned lazily on the first parallel
/// dispatch and then parked on a condvar; the calling thread always
/// participates in its own dispatch, so a `workers == 1` pool never
/// spawns anything and a `workers == 4` pool owns three parked threads.
/// Per-dispatch cost is a mutex publish + condvar wakeup (single-digit
/// microseconds) instead of the old per-call `std::thread::scope` spawns
/// (tens of microseconds).
///
/// Chunk boundaries are a pure function of `(len, workers)`; which thread
/// executes which chunk is claimed atomically and *is* timing-dependent,
/// but results are not, because the closure depends only on the index.
/// Dropping the pool signals shutdown and the workers exit; a pool is
/// also safe to drop without ever having dispatched (nothing was
/// spawned).
pub struct BpThreadPool {
    workers: usize,
    min_work: u64,
    inner: OnceLock<Arc<PoolInner>>,
}

impl std::fmt::Debug for BpThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BpThreadPool")
            .field("workers", &self.workers)
            .field("min_work", &self.min_work)
            .field("started", &self.inner.get().is_some())
            .finish()
    }
}

impl BpThreadPool {
    /// Creates a pool that splits work across `workers` threads.
    /// `workers == 0` is clamped to 1; `workers == 1` is the pure
    /// sequential executor (parallel calls never spawn). Worker threads
    /// are not created until the first parallel dispatch. The adaptive
    /// cutoff threshold is [`DEFAULT_MIN_WORK`].
    pub fn new(workers: usize) -> Self {
        Self::with_min_work(workers, DEFAULT_MIN_WORK)
    }

    /// Like [`BpThreadPool::new`] with an explicit adaptive-cutoff
    /// threshold (element-operation units per chunk; `0` disables the
    /// cutoff). Intended for benchmarks and tests that need both sides of
    /// the cutoff deterministically.
    pub fn with_min_work(workers: usize, min_work: u64) -> Self {
        Self {
            workers: workers.max(1),
            min_work,
            inner: OnceLock::new(),
        }
    }

    /// The sequential executor (`workers == 1`).
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// Builds a pool from the environment: `BITPACKER_THREADS` if set to a
    /// positive integer, otherwise the machine's available parallelism.
    /// Both sources are capped at 64 workers.
    ///
    /// Each call re-reads the environment, so this is the escape hatch
    /// when [`BpThreadPool::global`]'s one-shot snapshot is too early —
    /// e.g. a harness that sets `BITPACKER_THREADS` after some library
    /// has already touched the global pool can build a fresh
    /// `Arc::new(BpThreadPool::from_env())` and pass it to
    /// `CkksContext::with_threads`.
    pub fn from_env() -> Self {
        if let Ok(v) = std::env::var(THREADS_ENV_VAR) {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return Self::new(n.min(AUTO_WORKER_CAP));
                }
            }
        }
        let detected = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::new(detected.min(AUTO_WORKER_CAP))
    }

    /// The process-wide default pool, shared by every context that does
    /// not supply its own handle.
    ///
    /// **Snapshot semantics:** `BITPACKER_THREADS` is read **once**, on the
    /// first call, and the resulting pool is cached for the life of the
    /// process — later changes to the environment are ignored by design,
    /// because contexts and NTT tables capture the returned `Arc` and a
    /// mid-run worker count change would silently split state across two
    /// pools. To pick up a changed environment, construct a fresh pool with
    /// [`BpThreadPool::from_env`] and pass it explicitly (e.g. via
    /// `CkksContext::with_threads`).
    pub fn global() -> Arc<BpThreadPool> {
        static GLOBAL: OnceLock<Arc<BpThreadPool>> = OnceLock::new();
        Arc::clone(GLOBAL.get_or_init(|| Arc::new(BpThreadPool::from_env())))
    }

    /// Number of worker threads this pool fans out to (including the
    /// participating caller).
    #[inline]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Lazily spawns the parked workers. Spawn failure is tolerated:
    /// the claim protocol lets the participating caller drain every
    /// chunk by itself, so a short-spawned pool is slower, never wrong.
    fn inner(&self) -> &Arc<PoolInner> {
        self.inner.get_or_init(|| {
            let inner = Arc::new(PoolInner {
                state: Mutex::new(PoolState {
                    job: None,
                    shutdown: false,
                }),
                work: Condvar::new(),
                idle: Condvar::new(),
            });
            for i in 0..self.workers.saturating_sub(1) {
                let worker = Arc::clone(&inner);
                let _ = std::thread::Builder::new()
                    .name(format!("bp-par-{i}"))
                    .spawn(move || worker.worker_loop());
            }
            inner
        })
    }

    /// Publishes `runner` as `chunks` claimable chunks, participates in
    /// draining them, and blocks until all complete. Re-raises the first
    /// chunk panic after completion; the pool remains usable.
    fn dispatch(&self, chunks: usize, runner: &(dyn Fn(usize) + Sync)) {
        let inner = self.inner();
        let job = Arc::new(Job {
            runner: erased::RunnerPtr::new(runner),
            chunks,
            next: AtomicUsize::new(0),
            latch: Latch::new(chunks),
            panic: Mutex::new(None),
            stats: FanoutStats::begin(chunks),
        });
        {
            let mut st = inner.state.lock().unwrap_or_else(PoisonError::into_inner);
            // One dispatch at a time: distinct caller threads queue here.
            while st.job.is_some() {
                st = inner.idle.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            st.job = Some(Arc::clone(&job));
            inner.work.notify_all();
        }
        job.run_chunks();
        job.latch.wait();
        {
            let mut st = inner.state.lock().unwrap_or_else(PoisonError::into_inner);
            st.job = None;
            inner.idle.notify_one();
        }
        if let Some(st) = &job.stats {
            st.finish();
        }
        let payload = job
            .panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(p) = payload {
            std::panic::resume_unwind(p);
        }
    }

    /// `true` when a fan-out of `len` items with `per_item_work` estimated
    /// element-ops each should run inline: sequential pool, single chunk,
    /// nested inside an in-flight dispatch, or under the adaptive cutoff.
    /// A `per_item_work` of `u64::MAX` is never under the cutoff.
    #[inline]
    fn run_inline(&self, len: usize, per_item_work: u64) -> bool {
        let jobs = self.workers.min(len);
        if jobs <= 1 || IN_DISPATCH.get() {
            return true;
        }
        let chunk = len.div_ceil(jobs) as u64;
        if chunk.saturating_mul(per_item_work) < self.min_work {
            counters::add(Counter::ParInline, 1);
            return true;
        }
        false
    }

    /// Runs `f(index, &mut item)` for every element of `items`, fanning the
    /// slice out over the pool's workers in contiguous chunks.
    ///
    /// `per_item_work` estimates the cost of one item in element-operation
    /// units (≈ one 64-bit modular multiply; an elementwise pass over an
    /// `n`-coefficient residue is `n`, an NTT is `n·log2 n`). When the
    /// estimated work per chunk falls below the pool's threshold the loop
    /// runs inline on the calling thread — bit-identically, since chunk
    /// placement never affects results.
    ///
    /// Determinism: each index is visited exactly once with the same
    /// arguments regardless of the worker count, so any `f` whose effect on
    /// `items[i]` depends only on `(i, items[i])` and immutable captures
    /// produces bit-identical results at every thread count.
    pub fn par_for_each_mut<T, F>(&self, items: &mut [T], per_item_work: u64, f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let len = items.len();
        if self.run_inline(len, per_item_work) {
            for (i, item) in items.iter_mut().enumerate() {
                f(i, item);
            }
            return;
        }
        let chunk = len.div_ceil(self.workers.min(len));
        // Pre-split into per-chunk subslices; each worker takes exactly
        // one out of its slot, so no two threads ever alias an element.
        let mut parts: Vec<(usize, Mutex<Option<&mut [T]>>)> =
            Vec::with_capacity(len.div_ceil(chunk));
        let mut rest = items;
        let mut base = 0usize;
        while !rest.is_empty() {
            let take = chunk.min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            parts.push((base, Mutex::new(Some(head))));
            base += take;
            rest = tail;
        }
        let runner = |ci: usize| {
            let (base, slot) = &parts[ci];
            let part = slot
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take()
                .expect("each chunk is claimed exactly once");
            for (off, item) in part.iter_mut().enumerate() {
                f(base + off, item);
            }
        };
        self.dispatch(parts.len(), &runner);
    }

    /// Computes `f(index)` for every index in `0..len` in parallel and
    /// collects the results in index order; `per_item_work` is as for
    /// [`BpThreadPool::par_for_each_mut`]. Determinism follows from
    /// [`BpThreadPool::par_for_each_mut`]: slot `i` always holds `f(i)`.
    pub fn par_map<U, F>(&self, len: usize, per_item_work: u64, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        if self.run_inline(len, per_item_work) {
            return (0..len).map(f).collect();
        }
        let mut out: Vec<Option<U>> = (0..len).map(|_| None).collect();
        self.par_for_each_mut(&mut out, per_item_work, |i, slot| {
            *slot = Some(f(i));
        });
        out.into_iter()
            .map(|slot| slot.expect("every index filled exactly once"))
            .collect()
    }
}

impl Default for BpThreadPool {
    fn default() -> Self {
        Self::from_env()
    }
}

impl Drop for BpThreadPool {
    /// Signals the parked workers to exit. No dispatch can be in flight
    /// here (`&mut self` is exclusive), so workers observe the flag at
    /// their next wakeup and return; nothing blocks.
    fn drop(&mut self) {
        if let Some(inner) = self.inner.get() {
            let mut st = inner.state.lock().unwrap_or_else(PoisonError::into_inner);
            st.shutdown = true;
            inner.work.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn zero_workers_clamps_to_one() {
        assert_eq!(BpThreadPool::new(0).workers(), 1);
        assert_eq!(BpThreadPool::sequential().workers(), 1);
    }

    #[test]
    fn par_for_each_mut_visits_every_index_once() {
        for workers in [1usize, 2, 3, 4, 7, 16] {
            let pool = BpThreadPool::new(workers);
            for len in [0usize, 1, 2, 5, 16, 33] {
                let mut v = vec![0u64; len];
                pool.par_for_each_mut(&mut v, u64::MAX, |i, x| *x += i as u64 + 1);
                let expect: Vec<u64> = (0..len as u64).map(|i| i + 1).collect();
                assert_eq!(v, expect, "workers={workers} len={len}");
            }
        }
    }

    #[test]
    fn par_map_is_bit_identical_across_worker_counts() {
        let reference: Vec<u64> = (0..97u64).map(|i| i.wrapping_mul(0x9E3779B9)).collect();
        for workers in [1usize, 2, 4, 8] {
            let pool = BpThreadPool::new(workers);
            let got = pool.par_map(97, u64::MAX, |i| (i as u64).wrapping_mul(0x9E3779B9));
            assert_eq!(got, reference, "workers={workers}");
        }
    }

    #[test]
    fn par_map_covers_range() {
        let pool = BpThreadPool::new(4);
        let count = AtomicUsize::new(0);
        pool.par_map(1000, u64::MAX, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn pool_is_reused_across_many_dispatches() {
        // Exercises the park/wake cycle: the same three workers serve
        // every dispatch.
        let pool = BpThreadPool::new(4);
        for round in 0..200usize {
            let mut v = vec![0usize; 37];
            pool.par_for_each_mut(&mut v, u64::MAX, |i, x| *x = i * round);
            for (i, x) in v.iter().enumerate() {
                assert_eq!(*x, i * round, "round={round}");
            }
        }
    }

    #[test]
    fn adaptive_cutoff_runs_inline_and_is_bit_identical() {
        // Threshold far above the hinted work: every fan-out elides.
        let inline = BpThreadPool::with_min_work(4, u64::MAX);
        // Threshold 0: cutoff disabled, every fan-out dispatches.
        let parallel = BpThreadPool::with_min_work(4, 0);
        for len in [1usize, 5, 64, 257] {
            let a = inline.par_map(len, 8, |i| (i as u64).wrapping_mul(0x2545F491));
            let b = parallel.par_map(len, 8, |i| (i as u64).wrapping_mul(0x2545F491));
            assert_eq!(a, b, "len={len}");
        }
    }

    #[test]
    fn nested_dispatch_runs_inline_without_deadlock() {
        let pool = Arc::new(BpThreadPool::new(4));
        let count = AtomicUsize::new(0);
        let p2 = Arc::clone(&pool);
        pool.par_map(8, u64::MAX, |_| {
            // Inner fan-out from inside a chunk: must run inline on this
            // thread instead of parking on the busy pool.
            p2.par_map(16, u64::MAX, |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 8 * 16);
    }

    #[test]
    fn concurrent_dispatches_from_distinct_threads_serialize() {
        let pool = Arc::new(BpThreadPool::new(4));
        std::thread::scope(|s| {
            for t in 0..4usize {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    for round in 0..50usize {
                        let mut v = vec![0usize; 29];
                        pool.par_for_each_mut(&mut v, u64::MAX, |i, x| *x = i + t + round);
                        for (i, x) in v.iter().enumerate() {
                            assert_eq!(*x, i + t + round);
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn cancel_token_reports_requested_cancellation() {
        let t = CancelToken::new();
        assert_eq!(t.cancelled(), None);
        assert!(t.check().is_ok());
        let clone = t.clone();
        clone.cancel();
        assert_eq!(t.cancelled(), Some(CancelReason::Requested));
        assert_eq!(t.check(), Err(CancelReason::Requested));
        assert_eq!(t.remaining(), None);
    }

    #[test]
    fn cancel_token_deadline_expires() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        assert_eq!(t.cancelled(), Some(CancelReason::DeadlineExceeded));
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert_eq!(t.cancelled(), None);
        assert!(t.remaining().expect("has deadline") > Duration::from_secs(3000));
        // Explicit cancellation wins over the live deadline.
        t.cancel();
        assert_eq!(t.cancelled(), Some(CancelReason::Requested));
        assert_eq!(t.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn cancellation_mid_dispatch_lets_the_dispatch_finish() {
        // Cancellation is cooperative and coarser than a dispatch: an
        // in-flight fan-out always completes every index even if the
        // token fires while chunks are running.
        let pool = BpThreadPool::new(4);
        let token = CancelToken::new();
        let mut v = vec![0u64; 64];
        let t = token.clone();
        pool.par_for_each_mut(&mut v, u64::MAX, |i, x| {
            if i == 0 {
                t.cancel();
            }
            *x = i as u64 + 1;
        });
        assert_eq!(token.cancelled(), Some(CancelReason::Requested));
        let expect: Vec<u64> = (1..=64).collect();
        assert_eq!(v, expect);
    }

    #[test]
    #[should_panic(expected = "worker panic propagates")]
    fn worker_panic_propagates_to_caller() {
        let pool = BpThreadPool::new(4);
        let mut v = vec![0u8; 64];
        pool.par_for_each_mut(&mut v, u64::MAX, |i, _| {
            if i == 63 {
                panic!("worker panic propagates");
            }
        });
    }

    #[test]
    fn pool_remains_usable_after_propagated_panic() {
        let pool = Arc::new(BpThreadPool::new(4));
        for round in 0..5usize {
            let p = Arc::clone(&pool);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                let mut v = vec![0u8; 64];
                p.par_for_each_mut(&mut v, u64::MAX, |i, _| {
                    if i == 17 {
                        panic!("round {round} chunk panic");
                    }
                });
            }));
            assert!(caught.is_err(), "panic must propagate (round {round})");
            // Same pool, clean dispatch: workers survived the unwind.
            let mut v = vec![0u64; 64];
            pool.par_for_each_mut(&mut v, u64::MAX, |i, x| *x = i as u64);
            let expect: Vec<u64> = (0..64).collect();
            assert_eq!(v, expect, "pool must stay usable (round {round})");
        }
    }

    #[test]
    fn every_other_chunk_still_runs_when_one_panics() {
        // Panic containment is chunk-grained (as with the old scoped
        // pool, where the unwinding thread abandoned its chunk loop): the
        // panicking chunk stops at the panic, every other chunk completes
        // before the payload is re-raised. len=64 over 4 workers gives
        // chunks of 16; a panic at i=5 skips the 10 remaining indices of
        // chunk 0 only.
        let pool = BpThreadPool::new(4);
        let ran = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.par_map(64, u64::MAX, |i| {
                if i == 5 {
                    panic!("chunk panic");
                }
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(caught.is_err());
        assert_eq!(ran.load(Ordering::Relaxed), 64 - (16 - 5));
    }

    #[test]
    fn dropping_an_unused_pool_is_cheap_and_dropping_a_used_pool_is_clean() {
        drop(BpThreadPool::new(8)); // never dispatched: nothing spawned
        let pool = BpThreadPool::new(8);
        let mut v = vec![0u64; 32];
        pool.par_for_each_mut(&mut v, u64::MAX, |i, x| *x = i as u64);
        drop(pool); // workers observe shutdown and exit
    }
}
