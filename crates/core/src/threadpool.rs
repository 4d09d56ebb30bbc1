//! The persistent decode worker pool behind `decode_batch`.
//!
//! Before this module, every multi-threaded [`Decoder::decode_batch`] call
//! paid a full `std::thread::scope` spawn/join cycle — one OS thread creation
//! per worker per batch, which caps thread scaling long before the cores do
//! (a serving loop coalescing 3 ms batches spends a measurable slice of every
//! batch inside `clone(2)`). [`DecodePool`] replaces that with one
//! process-wide pool, spawned lazily on first use and kept for the process
//! lifetime:
//!
//! * **Spawned once.** [`DecodePool::global`] builds
//!   `max(1, available_parallelism − 1)` workers the first time any decode
//!   fans out; the calling thread always participates in its own batch, so
//!   caller + workers together cover the machine.
//! * **Parked when idle.** Workers block on a condvar-protected task queue;
//!   an idle pool costs nothing but memory.
//! * **Work-stealing dispatch.** [`DecodePool::run_scoped`] enqueues `fanout`
//!   *invocations* of one shared worker closure. The closure itself claims
//!   frame-group chunks off an atomic cursor (see
//!   [`crate::engine::Decoder::decode_batch_into_threads`]), so load
//!   balancing is chunk-granular no matter which threads show up: a worker
//!   that finishes its chunk early simply claims the next one, and a worker
//!   that never arrives (pool saturated by another batch) costs nothing —
//!   the caller drains the cursor itself and *cancels* its still-queued
//!   invocations on the way out. Batches therefore never wait on an
//!   oversubscribed pool; extra threads only ever help.
//! * **Cross-shard stealing for free.** Because the pool is shared
//!   process-wide, every [`ldpc-serve`] shard fans its batches into the same
//!   queue: when one mode's traffic runs hot while another sits idle, the
//!   idle mode's share of the machine drains the hot mode's chunk tasks
//!   automatically — there is no per-shard thread partition to strand.
//!
//! # Core pinning
//!
//! Setting `LDPC_PIN_THREADS` (truthy: `1`/`true`/`yes`/`on`) pins worker
//! `i` to core `(i + 1) mod cores` via `sched_setaffinity` on Linux, leaving
//! core 0 for the submitting threads. Pinning removes migration noise from
//! scaling measurements and helps NUMA-ish hosts; like `LDPC_FORCE_SCALAR`
//! the variable is read once per process, falsey spellings (`0`/`false`/
//! `no`/`off`/empty) leave pinning off, and anything unrecognised is
//! diagnosed on stderr once and treated as *set* — the user clearly asked
//! for pinning, and honouring a garbled request costs at most performance.
//! On non-Linux targets the request is diagnosed as unsupported and ignored.
//! [`DecodePool::pinned_workers`] reports how many workers actually pinned,
//! and the bench/CI headers print it so recorded scaling curves are
//! attributable.
//!
//! # Safety
//!
//! This is one of the two modules in the crate allowed to use `unsafe` (the
//! crate lint is `deny(unsafe_code)`; the other is the explicit-SIMD kernel
//! tier [`crate::arith::simd`]). Exactly two `unsafe` blocks exist here:
//!
//! 1. **The scoped-lifetime erasure in [`DecodePool::run_scoped`]** — the
//!    borrowed worker closure is transmuted to `'static` so it can sit in
//!    the task queue. Soundness is the classic scoped-pool latch argument,
//!    spelled out at the block: `run_scoped` cannot return (normally *or* by
//!    unwind) before every enqueued invocation has either executed to
//!    completion or been removed from the queue un-run, so no task can
//!    observe the closure after its borrow ends.
//! 2. **The `sched_setaffinity(2)` call** — a direct FFI syscall wrapper
//!    (the workspace builds offline, without the `libc` crate) on a
//!    stack-owned, correctly-sized CPU mask.
//!
//! [`Decoder::decode_batch`]: crate::engine::Decoder::decode_batch
//! [`ldpc-serve`]: ../../ldpc_serve/index.html

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A lifetime-erased reference to one batch's shared worker closure. Only
/// ever constructed inside [`DecodePool::run_scoped`], which guarantees the
/// true borrow outlives every dereference (see the module-level safety
/// argument).
type Job = &'static (dyn Fn() + Sync);

/// One queued invocation of a batch's worker closure.
struct Task {
    job: Job,
    latch: Arc<Latch>,
}

/// Completion latch of one `run_scoped` call: counts enqueued invocations
/// down to zero as they execute (or are cancelled), and records whether any
/// of them panicked.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            remaining: Mutex::new(count),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        }
    }

    fn count_down(&self, n: usize) {
        if n == 0 {
            return;
        }
        let mut remaining = self.remaining.lock().expect("decode pool latch poisoned");
        *remaining -= n;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut remaining = self.remaining.lock().expect("decode pool latch poisoned");
        while *remaining > 0 {
            remaining = self
                .done
                .wait(remaining)
                .expect("decode pool latch poisoned");
        }
    }
}

/// State shared between the pool handle and its worker threads.
struct PoolShared {
    queue: Mutex<VecDeque<Task>>,
    work_ready: Condvar,
    executed: AtomicU64,
    cancelled: AtomicU64,
    pinned: AtomicUsize,
    /// Workers currently alive (incremented by each worker on entry,
    /// decremented by [`RespawnGuard`] when one dies). Converges back to
    /// [`DecodePool::workers`] after every worker death.
    live: AtomicUsize,
    /// Workers that died and were replaced over the process lifetime.
    restarts: AtomicU64,
}

/// The process-wide persistent decode worker pool; see the module docs.
///
/// Obtain it with [`DecodePool::global`]. The only dispatch entry point is
/// [`run_scoped`](DecodePool::run_scoped); everything else is introspection
/// for CI headers, stats and tests.
pub struct DecodePool {
    shared: Arc<PoolShared>,
    workers: usize,
    pin_requested: bool,
}

impl std::fmt::Debug for DecodePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecodePool")
            .field("workers", &self.workers)
            .field("pin_requested", &self.pin_requested)
            .field("pinned_workers", &self.pinned_workers())
            .field("live_workers", &self.live_workers())
            .field("worker_restarts", &self.worker_restarts())
            .field("tasks_executed", &self.tasks_executed())
            .field("tasks_cancelled", &self.tasks_cancelled())
            .finish()
    }
}

/// Number of logical cores the machine reports
/// (`std::thread::available_parallelism`, 1 if unknown). Read once per
/// process and cached: the probe reads cgroup files on Linux, and every
/// decoder's workspace pool asks for it. The bench and soak headers print
/// this next to their measurements so recorded scaling curves are
/// attributable to a core count.
#[must_use]
pub fn detected_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Whether `LDPC_PIN_THREADS` requests decode-pool core pinning. Read once
/// per process and cached (changing the variable after the first call has
/// no effect), without spawning the pool — safe to call from CI headers
/// that only want to print the state.
#[must_use]
pub fn pin_threads_requested() -> bool {
    static REQUESTED: OnceLock<bool> = OnceLock::new();
    *REQUESTED.get_or_init(|| crate::env::flag("LDPC_PIN_THREADS"))
}

/// Pins the calling thread to `cpu`, returning whether the kernel accepted
/// the mask. Linux-only; other targets report `false` (the caller diagnoses
/// once).
#[cfg(target_os = "linux")]
fn pin_current_thread(cpu: usize) -> bool {
    // glibc's cpu_set_t: 1024 bits of CPU mask held in unsigned-long words.
    // Building the mask out of u64 words keeps the bit layout correct
    // independent of byte order.
    const MASK_WORDS: usize = 16;
    let mut mask = [0u64; MASK_WORDS];
    let cpu = cpu % (MASK_WORDS * 64);
    mask[cpu / 64] |= 1u64 << (cpu % 64);
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: plain FFI call into libc. `mask` is a live, properly aligned
    // stack array of exactly `cpusetsize` bytes, only read by the callee;
    // pid 0 addresses the calling thread, so no foreign thread state is
    // touched. The workspace builds offline without the `libc` crate, hence
    // the local extern declaration (same ABI glibc and musl both export).
    unsafe { sched_setaffinity(0, MASK_WORDS * std::mem::size_of::<u64>(), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn pin_current_thread(_cpu: usize) -> bool {
    false
}

/// Spawns (or respawns) pool worker `index`. Factored out so the death
/// guard can rebuild a worker with exactly the shape `global()` gave it.
fn spawn_worker(shared: Arc<PoolShared>, index: usize, pin: bool, cores: usize) -> bool {
    std::thread::Builder::new()
        .name(format!("ldpc-decode-{index}"))
        .spawn(move || worker_main(shared, index, pin, cores))
        .is_ok()
}

/// Replaces a worker whose thread dies by a panic that escapes the per-task
/// `catch_unwind` (e.g. a panic payload whose own `Drop` panics). Without
/// this, any such death would shrink the pool for the process lifetime.
/// Runs as a drop guard inside `worker_main` so it fires on *any* unwind out
/// of the worker loop, whatever the panic site.
struct RespawnGuard {
    shared: Arc<PoolShared>,
    index: usize,
    pin: bool,
    cores: usize,
    pinned_core: bool,
}

impl Drop for RespawnGuard {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        self.shared.live.fetch_sub(1, Ordering::SeqCst);
        if self.pinned_core {
            self.shared.pinned.fetch_sub(1, Ordering::Relaxed);
        }
        self.shared.restarts.fetch_add(1, Ordering::SeqCst);
        // A poisoned task queue means some thread died *holding* the pool
        // lock — the pool is unusable and a replacement worker would panic
        // on its first lock, respawning forever. Leave the pool shrunk.
        if self.shared.queue.is_poisoned() {
            eprintln!("ldpc-core: decode pool queue poisoned; not respawning worker");
            return;
        }
        if !spawn_worker(Arc::clone(&self.shared), self.index, self.pin, self.cores) {
            eprintln!(
                "ldpc-core: cannot respawn decode pool worker {}; pool shrinks by one",
                self.index
            );
        }
    }
}

/// One pool worker: claim a task, run it (catching panics so one bad batch
/// cannot take the pool down), count its latch down, repeat forever. Should
/// the thread die anyway (a panic that escapes the catch, e.g. from the
/// panic payload's destructor), the [`RespawnGuard`] replaces it.
fn worker_main(shared: Arc<PoolShared>, index: usize, pin: bool, cores: usize) {
    shared.live.fetch_add(1, Ordering::SeqCst);
    let mut guard = RespawnGuard {
        shared: Arc::clone(&shared),
        index,
        pin,
        cores,
        pinned_core: false,
    };
    if pin {
        // Workers take cores 1.. and wrap, leaving core 0 for the threads
        // that submit batches (which always decode alongside the pool).
        if pin_current_thread((index + 1) % cores.max(1)) {
            shared.pinned.fetch_add(1, Ordering::Relaxed);
            guard.pinned_core = true;
        } else {
            static WARN_ONCE: std::sync::Once = std::sync::Once::new();
            WARN_ONCE.call_once(|| {
                eprintln!(
                    "ldpc-core: LDPC_PIN_THREADS set but pinning is unavailable \
                     (unsupported platform or affinity denied); continuing unpinned"
                );
            });
        }
    }
    loop {
        let task = {
            let mut queue = shared.queue.lock().expect("decode pool queue poisoned");
            loop {
                if let Some(task) = queue.pop_front() {
                    break task;
                }
                queue = shared
                    .work_ready
                    .wait(queue)
                    .expect("decode pool queue poisoned");
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(task.job));
        shared.executed.fetch_add(1, Ordering::Relaxed);
        if outcome.is_err() {
            task.latch.panicked.store(true, Ordering::SeqCst);
        }
        task.latch.count_down(1);
    }
}

/// Cancels this scope's still-queued tasks and waits for its in-flight ones.
/// Running as a drop guard makes `run_scoped` sound even when the caller's
/// own closure invocation unwinds: the borrow cannot end before the queue
/// holds no reference to it.
struct ScopeGuard<'a> {
    shared: &'a PoolShared,
    latch: &'a Arc<Latch>,
}

impl Drop for ScopeGuard<'_> {
    fn drop(&mut self) {
        let cancelled = {
            let mut queue = self
                .shared
                .queue
                .lock()
                .expect("decode pool queue poisoned");
            let before = queue.len();
            queue.retain(|task| !Arc::ptr_eq(&task.latch, self.latch));
            before - queue.len()
        };
        self.shared
            .cancelled
            .fetch_add(cancelled as u64, Ordering::Relaxed);
        self.latch.count_down(cancelled);
        self.latch.wait();
    }
}

impl DecodePool {
    /// The process-wide pool, spawned on first use: `max(1,
    /// available_parallelism − 1)` workers (the submitting thread is always
    /// the +1), pinned per `LDPC_PIN_THREADS`. Subsequent calls return the
    /// same pool; it lives for the rest of the process.
    #[must_use]
    pub fn global() -> &'static DecodePool {
        static POOL: OnceLock<DecodePool> = OnceLock::new();
        POOL.get_or_init(|| {
            // At least one worker even on a single core: the pool machinery
            // (queueing, stealing, cancellation) then gets exercised — and
            // regression-tested — everywhere, at the cost of one parked
            // thread.
            let workers = detected_cores().saturating_sub(1).max(1);
            DecodePool::spawn(workers, pin_threads_requested())
        })
    }

    /// Spawns a pool of `workers` threads (the global pool's constructor;
    /// tests that assert on the pool's counters use a private pool).
    fn spawn(workers: usize, pin: bool) -> DecodePool {
        let cores = detected_cores();
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            executed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            pinned: AtomicUsize::new(0),
            live: AtomicUsize::new(0),
            restarts: AtomicU64::new(0),
        });
        for index in 0..workers {
            assert!(
                spawn_worker(Arc::clone(&shared), index, pin, cores),
                "cannot spawn decode pool worker"
            );
        }
        DecodePool {
            shared,
            workers,
            pin_requested: pin,
        }
    }

    /// Number of worker threads the pool spawned.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Whether `LDPC_PIN_THREADS` requested core pinning for this process.
    #[must_use]
    pub fn pin_requested(&self) -> bool {
        self.pin_requested
    }

    /// Number of workers that successfully pinned themselves to a core.
    /// Zero unless pinning was requested (and supported by the platform).
    #[must_use]
    pub fn pinned_workers(&self) -> usize {
        self.shared.pinned.load(Ordering::Relaxed)
    }

    /// Total worker-closure invocations executed on pool threads. Grows only
    /// when fan-out actually reaches a worker — a saturated pool shows
    /// cancellations instead.
    #[must_use]
    pub fn tasks_executed(&self) -> u64 {
        self.shared.executed.load(Ordering::Relaxed)
    }

    /// Number of worker threads currently alive. Each worker registers
    /// itself on startup, so this can briefly trail [`workers`] right after
    /// the pool (or a replacement worker) spawns; it converges back to
    /// `workers()` after every worker death unless respawning itself failed.
    ///
    /// [`workers`]: DecodePool::workers
    #[must_use]
    pub fn live_workers(&self) -> usize {
        self.shared.live.load(Ordering::SeqCst)
    }

    /// Total workers that died (a panic escaped the per-task catch) and were
    /// replaced over the process lifetime.
    #[must_use]
    pub fn worker_restarts(&self) -> u64 {
        self.shared.restarts.load(Ordering::SeqCst)
    }

    /// Total queued invocations cancelled un-run because the submitting
    /// thread finished the batch first. A high ratio of cancellations to
    /// executions means batches are too small (or the pool too busy) for
    /// fan-out to help.
    #[must_use]
    pub fn tasks_cancelled(&self) -> u64 {
        self.shared.cancelled.load(Ordering::Relaxed)
    }

    /// Runs `work` on the calling thread *and* up to `fanout` pool workers
    /// concurrently, returning once every invocation has finished.
    ///
    /// `work` is a cooperative worker loop: each invocation is expected to
    /// claim its own slices of the real job (e.g. frame-group chunks off an
    /// atomic cursor) and return when nothing is left, so the set of threads
    /// that actually show up never changes the result — only the speed. Do
    /// not block inside `work` on other `run_scoped` calls' completion; the
    /// pool has no notion of task priority and such cycles can deadlock.
    ///
    /// Invocations still queued when the calling thread finishes are
    /// cancelled un-run (the caller already drained the job), so a busy pool
    /// delays nothing: worst case the whole batch runs on the caller, as if
    /// `fanout` were 0.
    ///
    /// # Panics
    ///
    /// Panics if any invocation of `work` panicked (after all of them have
    /// finished), mirroring the join-and-propagate behaviour of the scoped
    /// threads this pool replaced.
    pub fn run_scoped(&self, fanout: usize, work: &(dyn Fn() + Sync)) {
        if fanout == 0 {
            work();
            return;
        }
        let latch = Arc::new(Latch::new(fanout));
        // SAFETY: the 'static is a lifetime erasure local to this call. The
        // transmuted reference is reachable only through the `fanout` tasks
        // pushed below, and every one of those tasks is accounted for by
        // `latch` in exactly one of two ways: a worker pops it, finishes
        // dereferencing `job` (panics caught), and *then* counts down; or
        // `ScopeGuard::drop` removes it from the queue un-run and counts it
        // down without dereferencing. This function cannot return — normally
        // or by unwind through `work()`, thanks to the guard — before
        // `latch.wait()` has observed all `fanout` counts, i.e. before the
        // queue and the workers hold no copy of `job`. Hence no dereference
        // of `job` can outlive the `work` borrow.
        let job: Job = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Job>(work) };
        {
            let mut queue = self
                .shared
                .queue
                .lock()
                .expect("decode pool queue poisoned");
            for _ in 0..fanout {
                queue.push_back(Task {
                    job,
                    latch: Arc::clone(&latch),
                });
            }
        }
        if fanout == 1 {
            self.shared.work_ready.notify_one();
        } else {
            self.shared.work_ready.notify_all();
        }
        let guard = ScopeGuard {
            shared: &self.shared,
            latch: &latch,
        };
        work();
        drop(guard);
        if latch.panicked.load(Ordering::SeqCst) {
            panic!("decode pool worker panicked");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    #[test]
    fn pin_threads_parsing_follows_the_boolean_ish_convention() {
        for &(raw, want) in crate::env::FLAG_SPELLINGS {
            assert_eq!(
                crate::env::parse_flag("LDPC_PIN_THREADS", raw),
                want,
                "{raw:?}"
            );
        }
    }

    #[test]
    fn run_scoped_drains_a_shared_cursor_from_any_thread_mix() {
        // The canonical usage shape: invocations claim items off a cursor, so
        // the job completes whether zero or all fanout tasks ever run.
        let pool = DecodePool::global();
        for fanout in [0usize, 1, 3, 8] {
            const ITEMS: usize = 64;
            let cursor = AtomicUsize::new(0);
            let hits = AtomicUsize::new(0);
            let work = || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= ITEMS {
                    break;
                }
                hits.fetch_add(1, Ordering::Relaxed);
            };
            pool.run_scoped(fanout, &work);
            assert_eq!(
                hits.load(Ordering::Relaxed),
                ITEMS,
                "fanout {fanout}: every item claimed exactly once"
            );
        }
    }

    #[test]
    fn queued_tasks_are_cancelled_once_the_caller_finishes() {
        // With a trivial job and a large fanout, most queued invocations are
        // cancelled by the scope guard rather than executed — and the call
        // still returns promptly with the latch fully resolved. A private
        // pool: tests running concurrently on the global one would add
        // their own tasks to its counters.
        let pool = DecodePool::spawn(1, false);
        let before = pool.tasks_cancelled() + pool.tasks_executed();
        for _ in 0..50 {
            pool.run_scoped(4, &|| {});
        }
        let after = pool.tasks_cancelled() + pool.tasks_executed();
        assert_eq!(
            after - before,
            200,
            "every queued invocation is accounted for, run or cancelled"
        );
    }

    #[test]
    fn pool_worker_panics_propagate_to_the_caller() {
        let pool = DecodePool::global();
        let caller = std::thread::current().id();
        // The barrier guarantees a pool worker really invokes the closure
        // (so the panic comes from the pool side, not the caller).
        let rendezvous = Barrier::new(2);
        let work = move || {
            if std::thread::current().id() != caller {
                rendezvous.wait();
                panic!("worker-side failure");
            } else {
                rendezvous.wait();
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            DecodePool::global().run_scoped(1, &work);
        }));
        assert!(outcome.is_err(), "worker panic must reach the caller");
        // The pool survives its task's panic and keeps serving.
        let cursor = AtomicUsize::new(0);
        pool.run_scoped(2, &|| {
            cursor.fetch_add(1, Ordering::Relaxed);
        });
        assert!(cursor.load(Ordering::Relaxed) >= 1);
    }

    /// Spins until `cond` holds, failing the test after 10 s.
    fn wait_for(what: &str, cond: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !cond() {
            assert!(
                std::time::Instant::now() < deadline,
                "timed out waiting for: {what}"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    #[test]
    fn a_dead_worker_is_respawned_at_full_pool_strength() {
        // A panic payload whose own destructor panics escapes the worker's
        // catch_unwind: the payload is dropped after the catch, when the
        // thread is no longer panicking, so its panic starts a fresh unwind
        // that kills the thread. This is the one in-tree way a worker dies —
        // the regression this test pins is that the pool used to shrink by
        // one for the rest of the process.
        struct DropBomb;
        impl Drop for DropBomb {
            fn drop(&mut self) {
                if !std::thread::panicking() {
                    panic!("drop-bomb payload detonating outside the unwind");
                }
            }
        }

        let pool = DecodePool::global();
        let workers = pool.workers();
        wait_for("initial workers to register", || {
            pool.live_workers() == workers
        });
        let restarts_before = pool.worker_restarts();

        let caller = std::thread::current().id();
        let rendezvous = Barrier::new(2);
        let work = move || {
            if std::thread::current().id() != caller {
                rendezvous.wait();
                std::panic::panic_any(DropBomb);
            } else {
                rendezvous.wait();
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.run_scoped(1, &work);
        }));
        assert!(outcome.is_err(), "the task panic still reaches the caller");

        wait_for("the dead worker to be replaced", || {
            pool.worker_restarts() > restarts_before && pool.live_workers() == workers
        });
        // The replacement worker serves work.
        let cursor = AtomicUsize::new(0);
        pool.run_scoped(2, &|| {
            cursor.fetch_add(1, Ordering::Relaxed);
        });
        assert!(cursor.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn global_pool_reports_consistent_shape() {
        let pool = DecodePool::global();
        assert!(pool.workers() >= 1);
        assert!(pool.live_workers() <= pool.workers());
        assert_eq!(pool.pin_requested(), pin_threads_requested());
        assert!(pool.pinned_workers() <= pool.workers());
        if !pool.pin_requested() {
            assert_eq!(pool.pinned_workers(), 0);
        }
        assert!(detected_cores() >= 1);
        let debug = format!("{pool:?}");
        assert!(debug.contains("workers"));
    }
}
