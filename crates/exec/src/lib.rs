//! Deterministic sharded execution for the measurement plane, on a
//! **persistent worker pool**.
//!
//! The campaign and traffic loops fan work out over OS threads without
//! giving up bit-identical output: work items are split into **contiguous
//! shards** (never interleaved), each shard is processed by exactly one
//! worker, and the per-shard partial results are handed back **in shard
//! order** so the caller can merge them in the same canonical order a
//! serial loop would have produced. Because shard boundaries only group
//! neighbouring items — they never reorder them — any reduction that is
//! associative over contiguous runs (set union, counter addition,
//! append-in-order) yields the same result for 1, 2, 8, … threads.
//!
//! # Why a pool
//!
//! The first engine spawned a fresh `std::thread::scope` per round. At
//! campaign granularity a shard is 0.4–1.5 ms of work, so per-round
//! thread creation and teardown (tens to hundreds of microseconds per
//! worker) dominated the parallel wall clock and the engine ran *slower*
//! than serial. Workers are now created once per process, asleep on a
//! **shared run queue** between rounds, and handed work through a
//! two-step handshake:
//!
//! 1. **dispatch** — the caller pushes one type-erased `Task` per shard
//!    onto the run queue and wakes the workers (the job descriptor lives
//!    on the caller's stack); the caller is a worker too: it runs shard 0
//!    inline and then **helps**, draining its own job's remaining tasks
//!    from the queue until workers have claimed them all. On a saturated
//!    or single-core host this degrades towards plain serial execution
//!    with near-zero handoff cost instead of thrashing between timeshared
//!    workers;
//! 2. **round epoch** — each completed shard decrements the job's
//!    countdown; the worker that retires the last shard unparks the
//!    caller, which has been parked since it finished helping.
//!
//! Results are written into per-shard slots keyed by **shard index**, so
//! which worker ran which shard — and in what order they finished — can
//! never influence the merged output. The caller does not return until
//! the countdown hits zero, which is what makes lending it stack-borrowed
//! shards sound (the same argument scoped threads make, enforced here by
//! the epoch handshake instead of a scope guard).
//!
//! With `threads <= 1` (or a single shard) the shards run inline on the
//! caller's thread through the very same code path — no dispatch, no
//! park — which keeps the serial and parallel engines literally the same
//! code.
//!
//! # Shard failures
//!
//! [`shard_map`] runs each shard exactly once under [`catch_unwind`]. A
//! panicking shard is isolated (the other shards still run and no worker
//! dies), and the map returns the lowest-indexed panicking shard as a
//! typed [`ShardFailure`] instead of unwinding into the caller. Shards
//! are not retried: a shard is a deterministic function of its inputs,
//! so a second run would panic the same way.

#![deny(unsafe_code)]
#![deny(missing_docs)]

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "MCDN_THREADS";

/// The number of worker threads the engine should use: `MCDN_THREADS` if
/// set to a positive integer, otherwise the machine's available
/// parallelism (1 if that cannot be determined).
pub fn thread_count() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The contiguous index ranges that split `n` items into at most `shards`
/// near-even parts: the first `n % shards` shards carry one extra item.
/// Empty ranges are never produced — with `n < shards` only `n`
/// single-item shards are returned. The concatenation of the ranges is
/// exactly `0..n`, in order, which is what makes shard-order merges
/// canonical.
pub fn shard_bounds(n: usize, shards: usize) -> Vec<Range<usize>> {
    let shards = shards.max(1).min(n.max(1));
    if n == 0 {
        return Vec::new();
    }
    let base = n / shards;
    let extra = n % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// A shard that panicked.
///
/// Surfaced instead of aborting the process so a long campaign can fail
/// *typed*: the caller decides whether to persist a checkpoint or
/// propagate the failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFailure {
    /// Index of the failing shard (canonical shard order).
    pub shard: usize,
    /// The panic payload, if it was a string.
    pub message: String,
}

impl core::fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "shard {} panicked: {}", self.shard, self.message)
    }
}

impl std::error::Error for ShardFailure {}

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs shard `index` once under [`catch_unwind`].
///
/// `AssertUnwindSafe` is sound here because a panicking shard fails the
/// whole map: the caller never observes what the shard left half-done as
/// a success.
fn run_caught<T, R, F>(index: usize, shard: &mut [T], f: &F) -> Result<R, ShardFailure>
where
    F: Fn(usize, &mut [T]) -> R,
{
    catch_unwind(AssertUnwindSafe(|| f(index, shard))).map_err(|payload| {
        mcdn_obs::global_add(mcdn_obs::global::SHARD_PANICS, 1);
        ShardFailure { shard: index, message: panic_message(payload) }
    })
}

/// What one shard execution produced, keyed by shard index in the job's
/// result slots: the closure's value with its wall time, or the failure
/// of a shard that panicked.
type Outcome<R> = Result<(R, Duration), ShardFailure>;

/// Live pool telemetry, for benches and the pool-reuse tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Workers spawned since process start (never shrinks).
    pub spawned: usize,
    /// Parallel dispatches served (rounds that actually used workers).
    pub dispatches: u64,
}

/// Pre-spawns enough workers to serve a `threads`-wide dispatch, so the
/// first round of a campaign does not pay thread creation.
pub fn warm(threads: usize) {
    pool::warm(threads.saturating_sub(1));
}

/// A snapshot of the pool's counters.
pub fn pool_stats() -> PoolStats {
    pool::stats()
}

/// The persistent pool internals: the only module that handles the
/// type-erased task pointers. Safety rests on one invariant, stated at
/// every unsafe block: **a dispatched job outlives every task referring
/// to it**, because the dispatching thread parks until the job's
/// countdown retires all shards before its stack frame (which owns the
/// job, the closure, and the shard borrows) unwinds or returns.
#[allow(unsafe_code)]
mod pool {
    use super::{run_caught, Outcome, PoolStats};
    use std::cell::UnsafeCell;
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Condvar, Mutex, OnceLock};
    use std::time::Instant;

    /// One type-erased shard dispatch. `job` points at the concrete
    /// `Job<T, R, F>` on the dispatcher's stack; `run` is the thunk
    /// monomorphized for those types.
    struct Task {
        job: *const (),
        run: unsafe fn(*const (), usize),
        shard: usize,
    }

    // SAFETY: the raw pointer crosses threads only inside a dispatch,
    // and the dispatcher keeps the pointee alive (parked on the round
    // epoch) until every task completed.
    unsafe impl Send for Task {}

    struct PoolState {
        /// The shared run queue. Every dispatch pushes its shard tasks
        /// here; workers (and helping dispatchers) pop them. Tasks from
        /// concurrent jobs interleave freely — a task carries its job
        /// pointer, so who runs it never matters.
        queue: Mutex<VecDeque<Task>>,
        /// Workers sleep on this between rounds.
        work_ready: Condvar,
        spawned: AtomicUsize,
        dispatches: AtomicU64,
    }

    fn state() -> &'static PoolState {
        static POOL: OnceLock<PoolState> = OnceLock::new();
        POOL.get_or_init(|| PoolState {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            spawned: AtomicUsize::new(0),
            dispatches: AtomicU64::new(0),
        })
    }

    /// Hard ceiling on pool size: enough for several concurrent
    /// campaigns (the test suite runs many in parallel) without letting a
    /// pathological caller spawn unboundedly. Beyond the cap, queued
    /// shards are drained by the helping dispatcher — slower, never wrong.
    fn worker_cap() -> usize {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).saturating_mul(4).max(64)
    }

    fn spawn_worker(id: usize) {
        std::thread::Builder::new()
            .name(format!("mcdn-pool-{id}"))
            .spawn(move || {
                let pool = state();
                loop {
                    let task = {
                        let mut queue = pool.queue.lock().unwrap_or_else(|e| e.into_inner());
                        loop {
                            if let Some(task) = queue.pop_front() {
                                break task;
                            }
                            // Parked between rounds: sleep until the next
                            // dispatch pushes work.
                            queue = pool
                                .work_ready
                                .wait(queue)
                                .unwrap_or_else(|e| e.into_inner());
                        }
                    };
                    // SAFETY: the dispatcher that queued this task parks
                    // until the job's countdown retires every shard, so
                    // `task.job` is alive for the whole call; `task.run`
                    // was monomorphized for the job's concrete types and
                    // never unwinds (every thunk catches panics).
                    unsafe { (task.run)(task.job, task.shard) }
                }
            })
            .expect("spawn mcdn pool worker");
    }

    /// Pre-spawns enough workers for a dispatch that needs `want` helpers
    /// (they go straight to sleep on the run queue). Never exceeds the
    /// cap; repeated calls are free once the pool is warm.
    pub(super) fn warm(want: usize) {
        let pool = state();
        let target = want.min(worker_cap());
        loop {
            let spawned = pool.spawned.load(Ordering::Relaxed);
            if spawned >= target {
                return;
            }
            if pool
                .spawned
                .compare_exchange(spawned, spawned + 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                spawn_worker(spawned);
                mcdn_obs::gauge_set(mcdn_obs::gauge::POOL_WORKERS, (spawned + 1) as u64);
            }
        }
    }

    pub(super) fn stats() -> PoolStats {
        let pool = state();
        PoolStats {
            spawned: pool.spawned.load(Ordering::Relaxed),
            dispatches: pool.dispatches.load(Ordering::Relaxed),
        }
    }

    /// One shard's slice, shipped as raw parts because the borrow checker
    /// cannot see through the epoch handshake.
    struct ShardSlot<T> {
        ptr: *mut T,
        len: usize,
    }

    /// The job descriptor a dispatch shares with its workers. Lives on
    /// the dispatching thread's stack for exactly the duration of the
    /// round.
    struct Job<T, R, F> {
        f: *const F,
        shards: Vec<ShardSlot<T>>,
        /// One slot per shard, written by exactly one worker each and read
        /// by the dispatcher only after the countdown hits zero (the
        /// release `fetch_sub` / acquire load pair orders the accesses).
        results: Vec<UnsafeCell<Option<Outcome<R>>>>,
        remaining: AtomicUsize,
        waiter: std::thread::Thread,
    }

    /// Retires one shard: store its outcome, count it down, and wake the
    /// dispatcher when it was the last. The `Thread` handle is cloned
    /// *before* the decrement — after it, the dispatcher may already have
    /// observed zero and freed the job.
    unsafe fn retire<T, R, F>(job: &Job<T, R, F>, shard: usize, outcome: Outcome<R>) {
        // SAFETY (results slot): shard indices are unique per job, so this
        // is the only writer of `results[shard]`; the dispatcher reads it
        // only after the countdown below reaches zero.
        unsafe { *job.results[shard].get() = Some(outcome) };
        let waiter = job.waiter.clone();
        if job.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            waiter.unpark();
        }
    }

    /// The thunk every task runs: the shard, caught and timed, then
    /// retired.
    ///
    /// # Safety
    ///
    /// `job` must point at a live `Job<T, R, F>` whose dispatcher stays
    /// parked until the job's countdown reaches zero, and `shard` must be
    /// an index of that job that no other call runs.
    unsafe fn run_shard<T, R, F>(job: *const (), shard: usize)
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut [T]) -> R + Sync,
    {
        // SAFETY: `job` was created from a live `Job<T, R, F>` by the
        // dispatcher, which outlives this call (epoch handshake).
        let job = unsafe { &*(job as *const Job<T, R, F>) };
        let slot = &job.shards[shard];
        // SAFETY: the slot was split from a unique `&mut [T]`; shards are
        // disjoint and each is executed exactly once per job.
        let items = unsafe { std::slice::from_raw_parts_mut(slot.ptr, slot.len) };
        // SAFETY: `f` outlives the job (it lives in the dispatcher's frame).
        let f = unsafe { &*job.f };
        let started = Instant::now();
        let outcome = run_caught(shard, items, f).map(|r| (r, started.elapsed()));
        // SAFETY: per-shard slot invariant, see `retire`.
        unsafe { retire(job, shard, outcome) };
    }

    /// Shards `items`, runs every shard through [`run_shard`] (on pool
    /// workers where possible, inline otherwise), and returns the
    /// outcomes in canonical shard order. The core of [`shard_map`].
    ///
    /// [`shard_map`]: super::shard_map
    pub(super) fn execute<T, R, F>(items: &mut [T], threads: usize, f: &F) -> Vec<Outcome<R>>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut [T]) -> R + Sync,
    {
        let run: unsafe fn(*const (), usize) = run_shard::<T, R, F>;
        let bounds = super::shard_bounds(items.len(), threads);
        let n = bounds.len();
        if n == 0 {
            return Vec::new();
        }
        let mut shards = Vec::with_capacity(n);
        let mut rest = items;
        for b in &bounds {
            let (shard, tail) = rest.split_at_mut(b.len());
            rest = tail;
            shards.push(ShardSlot { ptr: shard.as_mut_ptr(), len: shard.len() });
        }
        let job = Job::<T, R, F> {
            f,
            shards,
            results: (0..n).map(|_| UnsafeCell::new(None)).collect(),
            remaining: AtomicUsize::new(n),
            waiter: std::thread::current(),
        };
        let job_ptr = &job as *const Job<T, R, F> as *const ();
        if n == 1 || threads <= 1 {
            // Inline path: identical shard boundaries, no dispatch.
            for shard in 0..n {
                // SAFETY: same-thread execution; the job is alive for the
                // whole loop and each shard runs exactly once.
                unsafe { run(job_ptr, shard) };
            }
        } else {
            let dispatch_started = Instant::now();
            let pool = state();
            warm(n - 1);
            pool.dispatches.fetch_add(1, Ordering::Relaxed);
            mcdn_obs::global_add(mcdn_obs::global::DISPATCHES, 1);
            {
                let mut queue = pool.queue.lock().unwrap_or_else(|e| e.into_inner());
                for shard in 1..n {
                    queue.push_back(Task { job: job_ptr, run, shard });
                }
            }
            pool.work_ready.notify_all();
            // The dispatcher is a worker too: shard 0 first, then it
            // *helps* — it keeps draining its own job's tasks from the
            // shared queue until none are left. On a saturated (or
            // single-core) host this degrades gracefully towards serial
            // execution with near-zero handoff cost instead of thrashing
            // between timeshared workers; on a wide host the workers have
            // already emptied the queue and the loop exits immediately.
            // SAFETY: as above.
            unsafe { run(job_ptr, 0) };
            loop {
                let task = {
                    let mut queue = pool.queue.lock().unwrap_or_else(|e| e.into_inner());
                    queue
                        .iter()
                        .position(|t| std::ptr::eq(t.job, job_ptr))
                        .and_then(|i| queue.remove(i))
                };
                match task {
                    // SAFETY: as above; each queued shard runs exactly once
                    // (removal under the queue lock makes this the unique
                    // executor of `task.shard`).
                    Some(task) => unsafe { (task.run)(task.job, task.shard) },
                    None => break,
                }
            }
            // Round epoch: park until the countdown retires every shard
            // still running on workers. Only after this may the job (and
            // the borrows inside it) die.
            while job.remaining.load(Ordering::Acquire) != 0 {
                std::thread::park();
            }
            mcdn_obs::global_hist(
                mcdn_obs::ghist::DISPATCH_WALL_US,
                dispatch_started.elapsed().as_micros() as u64,
            );
        }
        let Job { results, .. } = job;
        results
            .into_iter()
            .map(|slot| slot.into_inner().expect("every shard retired an outcome"))
            .collect()
    }
}

/// Runs `f` over contiguous shards of `items` on the worker pool and
/// returns the per-shard results **in shard order** (shard 0 first), with
/// each shard's wall time beside them.
///
/// `f` receives the shard index and a mutable slice of that shard's
/// items; shards never overlap, so the borrow is race-free by
/// construction. With `threads <= 1` (or a single shard) the shards run
/// inline on the caller's thread. Each shard runs exactly once under
/// [`catch_unwind`]; if any shard panics, the map returns the failure of
/// the **lowest-indexed** panicking shard (canonical order, independent
/// of worker scheduling) instead of aborting the process.
///
/// The wall times are side-band observability — bench harnesses use them
/// to spot shards that straggle — and never feed back into any result, so
/// the returned values are deterministic.
pub fn shard_map<T, R, F>(
    items: &mut [T],
    threads: usize,
    f: F,
) -> Result<(Vec<R>, Vec<Duration>), ShardFailure>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    pool::execute(items, threads, &f).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// The retired spawn-per-round engine, kept as the pool's differential
    /// oracle: for any input, [`reference::shard_map_scoped`] and
    /// [`shard_map`] must produce identical results (the CI pool-vs-scope
    /// stage runs the `pool_matches` tests).
    mod reference {
        /// Scoped-thread `shard_map`: spawns one thread per shard per call.
        pub fn shard_map_scoped<T, R, F>(items: &mut [T], threads: usize, f: F) -> Vec<R>
        where
            T: Send,
            R: Send,
            F: Fn(usize, &mut [T]) -> R + Sync,
        {
            let bounds = super::shard_bounds(items.len(), threads);
            if bounds.len() <= 1 || threads <= 1 {
                let mut out = Vec::with_capacity(bounds.len());
                let mut rest = items;
                for (i, b) in bounds.iter().enumerate() {
                    let (shard, tail) = rest.split_at_mut(b.len());
                    rest = tail;
                    out.push(f(i, shard));
                }
                return out;
            }
            let mut shards: Vec<&mut [T]> = Vec::with_capacity(bounds.len());
            let mut rest = items;
            for b in &bounds {
                let (shard, tail) = rest.split_at_mut(b.len());
                rest = tail;
                shards.push(shard);
            }
            let f = &f;
            std::thread::scope(|scope| {
                let handles: Vec<_> = shards
                    .into_iter()
                    .enumerate()
                    .map(|(i, shard)| scope.spawn(move || f(i, shard)))
                    .collect();
                handles.into_iter().map(|h| h.join().expect("shard worker panicked")).collect()
            })
        }
    }

    /// `shard_map`'s results, for the tests where nothing panics.
    fn map_values<T, R, F>(items: &mut [T], threads: usize, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut [T]) -> R + Sync,
    {
        shard_map(items, threads, f).expect("no shard panics").0
    }

    #[test]
    fn bounds_partition_exactly() {
        for n in [0usize, 1, 2, 7, 8, 9, 100] {
            for shards in [1usize, 2, 3, 8, 16] {
                let b = shard_bounds(n, shards);
                let covered: Vec<usize> = b.iter().cloned().flatten().collect();
                assert_eq!(covered, (0..n).collect::<Vec<_>>(), "n={n} shards={shards}");
                assert!(b.iter().all(|r| !r.is_empty()), "no empty shards: n={n} shards={shards}");
                if n > 0 {
                    let lens: Vec<usize> = b.iter().map(|r| r.len()).collect();
                    let (min, max) =
                        (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                    assert!(max - min <= 1, "near-even: n={n} shards={shards} {lens:?}");
                }
            }
        }
    }

    #[test]
    fn shard_map_results_in_shard_order_for_any_thread_count() {
        let serial: Vec<Vec<u32>> = {
            let mut items: Vec<u32> = (0..103).collect();
            map_values(&mut items, 1, |_, shard| shard.to_vec())
        };
        let flat_serial: Vec<u32> = serial.into_iter().flatten().collect();
        for threads in [1usize, 2, 3, 8] {
            let mut items: Vec<u32> = (0..103).collect();
            let (parts, walls) = shard_map(&mut items, threads, |_, shard| shard.to_vec()).unwrap();
            assert_eq!(walls.len(), parts.len(), "one wall per shard: threads={threads}");
            let flat: Vec<u32> = parts.into_iter().flatten().collect();
            assert_eq!(flat, flat_serial, "threads={threads}");
        }
    }

    #[test]
    fn shard_map_mutates_disjoint_shards() {
        let mut items = vec![0u64; 50];
        let sums = map_values(&mut items, 4, |i, shard| {
            for x in shard.iter_mut() {
                *x = i as u64 + 1;
            }
            shard.iter().sum::<u64>()
        });
        assert_eq!(sums.len(), 4);
        assert!(items.iter().all(|&x| x > 0));
        assert_eq!(items.iter().sum::<u64>(), sums.iter().sum::<u64>());
    }

    #[test]
    fn more_threads_than_items_degrades_gracefully() {
        let mut items = vec![1u8, 2, 3];
        let parts = map_values(&mut items, 16, |_, shard| shard.to_vec());
        assert_eq!(parts.len(), 3);
        assert_eq!(parts.concat(), vec![1, 2, 3]);
    }

    #[test]
    fn empty_input_yields_no_shards() {
        let mut items: Vec<u8> = Vec::new();
        let parts: Vec<usize> = map_values(&mut items, 4, |_, shard| shard.len());
        assert!(parts.is_empty());
    }

    #[test]
    fn non_string_panic_payloads_do_not_crash_the_supervisor() {
        let mut items = vec![0u8; 4];
        let err = shard_map(&mut items, 1, |_, _| std::panic::panic_any(42u32)).unwrap_err();
        assert_eq!(err.message, "non-string panic payload");
    }

    #[test]
    fn panicking_shard_is_a_typed_failure_for_the_lowest_shard() {
        // Shard 0 alone panics, then shards 1 to 3 of four all panic: the
        // lowest panicking shard is reported either way.
        for (threads, panicking) in [(1usize, &[0usize][..]), (4, &[0]), (4, &[1, 2, 3])] {
            let runs = AtomicU32::new(0);
            let mut items: Vec<u32> = (0..16).collect();
            let err = shard_map(&mut items, threads, |i, _| {
                runs.fetch_add(1, Ordering::SeqCst);
                if panicking.contains(&i) {
                    panic!("boom in shard {i}");
                }
                i
            })
            .unwrap_err();
            let lowest = panicking[0];
            assert_eq!(err.shard, lowest, "threads={threads}");
            assert_eq!(err.message, format!("boom in shard {lowest}"));
            // Display is human-readable for logs.
            assert_eq!(err.to_string(), format!("shard {lowest} panicked: boom in shard {lowest}"));
            assert_eq!(
                runs.load(Ordering::SeqCst) as usize,
                shard_bounds(16, threads).len(),
                "threads={threads}: every shard ran once, none retried"
            );
        }
    }

    // ----------------------------------------------------- pool contract ---

    #[test]
    fn pool_matches_scoped_reference_plain() {
        for threads in [2usize, 3, 8] {
            for n in [0usize, 1, 7, 64, 103] {
                let mut a: Vec<u32> = (0..n as u32).collect();
                let mut b = a.clone();
                let pooled = map_values(&mut a, threads, |i, s| {
                    for x in s.iter_mut() {
                        *x = x.wrapping_add(i as u32);
                    }
                    (i, s.to_vec())
                });
                let scoped = reference::shard_map_scoped(&mut b, threads, |i, s| {
                    for x in s.iter_mut() {
                        *x = x.wrapping_add(i as u32);
                    }
                    (i, s.to_vec())
                });
                assert_eq!(pooled, scoped, "threads={threads} n={n}");
                assert_eq!(a, b, "threads={threads} n={n}");
            }
        }
    }

    #[test]
    fn pool_reuses_workers_across_dispatches() {
        // Warm enough workers for the widest dispatch below, then check
        // that repeated rounds neither spawn nor leak.
        warm(8);
        let before = pool_stats();
        assert!(before.spawned >= 7, "warm(8) must leave >=7 workers: {before:?}");
        for round in 0..32 {
            let mut items: Vec<u64> = (0..64).collect();
            let sums = map_values(&mut items, 8, |i, s| (i, s.iter().sum::<u64>()));
            assert_eq!(sums.len(), 8, "round {round}");
        }
        let after = pool_stats();
        assert_eq!(
            after.spawned, before.spawned,
            "32 rounds over a warm pool must not spawn: {before:?} -> {after:?}"
        );
        assert!(after.dispatches >= before.dispatches + 32);
    }
}
