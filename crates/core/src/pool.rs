//! Workspace pooling for the batched decode engine.
//!
//! `decode_batch` gives every worker thread its own [`DecodeWorkspace`];
//! before pooling, those workspaces were rebuilt on every call, so a serving
//! loop pushing batch after batch of the same mode paid one full L/Λ-memory
//! allocation per worker per batch. [`WorkspacePool`] keeps the workspaces
//! between calls, keyed by the compiled code's [`CodeSpec`] (the software
//! mode-ROM key): workers check a workspace out at batch start and back in at
//! batch end, so repeated batches of the same mode allocate nothing at all.
//!
//! Both decoder types own a pool behind an `Arc` — clones of a decoder share
//! it, matching how cloned handles to one mode's decoder should share its
//! memory banks.
//!
//! # Striping
//!
//! With the persistent decode pool fanning batches across N threads (see
//! [`crate::threadpool`]), every worker used to checkout/checkin through one
//! global mutex — at small frame sizes the pool lock, not the decode, became
//! the scaling ceiling. Each spec's shelf is therefore split into
//! [`WorkspacePool::stripes`] independently locked stripes; a thread's home
//! stripe is derived from its thread id, so in steady state each worker
//! round-trips its workspace through its own stripe untouched by the others.
//! Checkout falls back in two steps: a lock-free-ish sweep that *tries* the
//! other stripes (stealing a shelved workspace beats building one), then an
//! authoritative all-stripes scan under every stripe lock, and only if that
//! still finds nothing is a new workspace built. Holding all stripe locks
//! before creating keeps the old single-mutex guarantee exact: concurrent
//! round-trips by N threads never build more than N workspaces, no matter
//! how the threads interleave (the contention regression test below pins
//! this).

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use ldpc_codes::{CodeSpec, CompiledCode};

use crate::workspace::DecodeWorkspace;

/// One spec's shelf: striped stacks of reusable workspaces plus an
/// approximate retained-count used as a fast-path hint and for cap
/// enforcement. The counter is updated *after* the stripe operation
/// (push-then-add, pop-then-sub), so a workspace is always visible in a
/// stripe before the counter reflects it — that ordering is what makes the
/// all-stripes scan in checkout authoritative. The counter may therefore
/// transiently run one short (even negative), which only ever costs a wasted
/// sweep or a momentarily early cap drop, never correctness.
#[derive(Debug)]
struct SpecShelf<M> {
    stripes: Vec<Mutex<Vec<DecodeWorkspace<M>>>>,
    retained: AtomicIsize,
}

impl<M> SpecShelf<M> {
    fn new(stripes: usize) -> Self {
        SpecShelf {
            stripes: (0..stripes).map(|_| Mutex::new(Vec::new())).collect(),
            retained: AtomicIsize::new(0),
        }
    }
}

/// The calling thread's home stripe: a stable hash of its thread id. Cheap,
/// deterministic per thread, and spread well enough that the decode pool's
/// workers land on distinct stripes with high probability.
fn home_stripe(stripes: usize) -> usize {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    std::thread::current().id().hash(&mut hasher);
    (hasher.finish() as usize) % stripes
}

/// A striped shelf of reusable [`DecodeWorkspace`]s per code spec.
///
/// Checkout prefers a pooled workspace already sized for the code and falls
/// back to building a fresh one ([`DecodeWorkspace::for_code`]); check-in
/// returns it for the next batch. Each shelf retains at most
/// [`WorkspacePool::DEFAULT_MAX_POOLED`] workspaces: a caller that once ran
/// a batch with many workers would otherwise pin that worst-case worker
/// count in memory forever, for every mode it ever touched. Check-ins beyond
/// the cap drop the workspace instead of shelving it (under concurrent
/// check-ins the cap may transiently overshoot by the number of racing
/// threads — it bounds growth, it is not an exact high-water mark).
#[derive(Debug)]
pub struct WorkspacePool<M> {
    shelves: RwLock<HashMap<CodeSpec, Arc<SpecShelf<M>>>>,
    created: AtomicUsize,
    dropped: AtomicUsize,
    max_pooled: usize,
    stripes: usize,
}

impl<M: Copy> Default for WorkspacePool<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Copy> WorkspacePool<M> {
    /// Cap on shelved workspaces per code spec. Matches a healthy worker
    /// count for one shard.
    pub const DEFAULT_MAX_POOLED: usize = 8;

    /// An empty pool with the default per-spec retention cap and one stripe
    /// per detected core (capped at 16).
    #[must_use]
    pub fn new() -> Self {
        Self::with_max_pooled(Self::DEFAULT_MAX_POOLED)
    }

    /// An empty pool retaining at most `max_pooled` workspaces per spec
    /// (minimum 1, so check-in/checkout round trips always reuse), with the
    /// default stripe count.
    #[must_use]
    pub(crate) fn with_max_pooled(max_pooled: usize) -> Self {
        Self::with_shape(max_pooled, crate::threadpool::detected_cores().min(16))
    }

    /// An empty pool with an explicit retention cap *and* stripe count
    /// (each floored at 1). Tests use it for multi-stripe behaviour
    /// regardless of the host's core count.
    #[must_use]
    pub(crate) fn with_shape(max_pooled: usize, stripes: usize) -> Self {
        WorkspacePool {
            shelves: RwLock::new(HashMap::new()),
            created: AtomicUsize::new(0),
            dropped: AtomicUsize::new(0),
            max_pooled: max_pooled.max(1),
            stripes: stripes.max(1),
        }
    }

    /// The per-spec retention cap.
    #[must_use]
    pub fn max_pooled(&self) -> usize {
        self.max_pooled
    }

    /// Number of independently locked stripes per spec shelf.
    #[must_use]
    pub fn stripes(&self) -> usize {
        self.stripes
    }

    /// The shelf for `spec`, created on first use.
    fn shelf(&self, spec: &CodeSpec) -> Arc<SpecShelf<M>> {
        if let Some(shelf) = self
            .shelves
            .read()
            .expect("workspace pool poisoned")
            .get(spec)
        {
            return Arc::clone(shelf);
        }
        let mut shelves = self.shelves.write().expect("workspace pool poisoned");
        Arc::clone(
            shelves
                .entry(*spec)
                .or_insert_with(|| Arc::new(SpecShelf::new(self.stripes))),
        )
    }

    /// Takes a workspace sized for `compiled`, reusing a pooled one for the
    /// same spec when available.
    #[must_use]
    pub fn checkout(&self, compiled: &CompiledCode) -> DecodeWorkspace<M> {
        let shelf = self.shelf(compiled.spec());
        // Fast path: sweep from the home stripe, skipping stripes someone
        // else is busy with (`try_lock`) — a contended stripe's owner is in
        // the middle of its own round trip, and stalling on it defeats the
        // striping.
        if shelf.retained.load(Ordering::Relaxed) > 0 {
            let home = home_stripe(self.stripes);
            for k in 0..self.stripes {
                let stripe = &shelf.stripes[(home + k) % self.stripes];
                if let Some(ws) = stripe.try_lock().ok().and_then(|mut s| s.pop()) {
                    shelf.retained.fetch_sub(1, Ordering::Relaxed);
                    return ws;
                }
            }
        }
        // Authoritative pass: under *all* stripe locks, either some stripe
        // holds a workspace (steal it) or the shelf is provably empty and
        // building a fresh workspace is the only option. Taking every lock
        // in index order (check-in takes a single stripe lock, so no cycle)
        // makes the emptiness check race-free: a check-in pushes before it
        // publishes, so any workspace conceptually returned to the pool is
        // visible here.
        {
            let mut guards: Vec<MutexGuard<'_, Vec<DecodeWorkspace<M>>>> = shelf
                .stripes
                .iter()
                .map(|s| s.lock().expect("workspace pool stripe poisoned"))
                .collect();
            for guard in &mut guards {
                if let Some(ws) = guard.pop() {
                    drop(guards);
                    shelf.retained.fetch_sub(1, Ordering::Relaxed);
                    return ws;
                }
            }
        }
        self.created.fetch_add(1, Ordering::Relaxed);
        DecodeWorkspace::for_code(compiled)
    }

    /// Returns a workspace to the shelf of `compiled`'s spec for reuse. If
    /// the shelf is already at the retention cap the workspace is dropped —
    /// transient worker spikes must not grow the pool without bound.
    pub fn checkin(&self, compiled: &CompiledCode, ws: DecodeWorkspace<M>) {
        let shelf = self.shelf(compiled.spec());
        if shelf.retained.load(Ordering::Relaxed) >= self.max_pooled as isize {
            drop(ws);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        shelf.stripes[home_stripe(self.stripes)]
            .lock()
            .expect("workspace pool stripe poisoned")
            .push(ws);
        shelf.retained.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of workspaces currently shelved for `spec`. Exact when the
    /// pool is quiescent (the stripes are summed one lock at a time).
    #[must_use]
    pub fn pooled(&self, spec: &CodeSpec) -> usize {
        let Some(shelf) = self
            .shelves
            .read()
            .expect("workspace pool poisoned")
            .get(spec)
            .cloned()
        else {
            return 0;
        };
        shelf
            .stripes
            .iter()
            .map(|s| s.lock().expect("workspace pool stripe poisoned").len())
            .sum()
    }

    /// Total number of workspaces this pool has ever built. Stable across
    /// repeated same-mode batches — the observable form of "repeated batches
    /// allocate nothing".
    #[must_use]
    pub fn workspaces_created(&self) -> usize {
        self.created.load(Ordering::Relaxed)
    }

    /// Number of check-ins discarded because the shelf was at the retention
    /// cap. A growing value under steady load means the cap is smaller than
    /// the real concurrent worker count.
    #[must_use]
    pub fn workspaces_dropped(&self) -> usize {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldpc_codes::{CodeId, CodeRate, Standard};
    use std::sync::Barrier;

    fn compiled(n: usize) -> CompiledCode {
        CodeId::new(Standard::Wimax80216e, CodeRate::R1_2, n)
            .build()
            .unwrap()
            .compile()
    }

    #[test]
    fn checkout_reuses_checked_in_workspaces() {
        let pool = WorkspacePool::<f64>::new();
        let code = compiled(576);
        let ws = pool.checkout(&code);
        assert_eq!(pool.workspaces_created(), 1);
        assert!(ws.is_ready_for(&code, 1));
        let fp = ws.allocation_fingerprint();
        pool.checkin(&code, ws);
        assert_eq!(pool.pooled(code.spec()), 1);
        let ws = pool.checkout(&code);
        assert_eq!(ws.allocation_fingerprint(), fp, "same buffers came back");
        assert_eq!(pool.workspaces_created(), 1, "no rebuild on reuse");
        assert_eq!(pool.pooled(code.spec()), 0);
        pool.checkin(&code, ws);
    }

    #[test]
    fn shelves_are_keyed_by_spec() {
        let pool = WorkspacePool::<f64>::new();
        let small = compiled(576);
        let big = compiled(2304);
        pool.checkin(&small, pool.checkout(&small));
        assert_eq!(pool.pooled(small.spec()), 1);
        assert_eq!(pool.pooled(big.spec()), 0);
        // A different mode builds its own workspace instead of draining the
        // small shelf.
        let ws = pool.checkout(&big);
        assert!(ws.is_ready_for(&big, 1));
        assert_eq!(pool.workspaces_created(), 2);
        assert_eq!(pool.pooled(small.spec()), 1);
    }

    #[test]
    fn checkin_is_capped_per_spec() {
        // Regression: a caller that once checked workspaces out under a large
        // worker count (varying batch sizes / thread counts) used to pin that
        // worst case on the shelf forever. Retention is now capped.
        let pool = WorkspacePool::<f64>::with_max_pooled(3);
        let code = compiled(576);
        let spike: Vec<_> = (0..10).map(|_| pool.checkout(&code)).collect();
        assert_eq!(pool.workspaces_created(), 10);
        for ws in spike {
            pool.checkin(&code, ws);
        }
        assert_eq!(pool.pooled(code.spec()), 3, "shelf capped at max_pooled");
        assert_eq!(pool.workspaces_dropped(), 7);
        // The cap is per spec: another mode still shelves its own workspaces.
        let big = compiled(2304);
        pool.checkin(&big, pool.checkout(&big));
        assert_eq!(pool.pooled(big.spec()), 1);
    }

    #[test]
    fn default_cap_is_sane_and_floor_is_one() {
        assert_eq!(
            WorkspacePool::<f64>::new().max_pooled(),
            WorkspacePool::<f64>::DEFAULT_MAX_POOLED
        );
        assert!(WorkspacePool::<f64>::new().stripes() >= 1);
        let pool = WorkspacePool::<f64>::with_max_pooled(0);
        assert_eq!(pool.max_pooled(), 1, "cap of zero would defeat pooling");
        let code = compiled(576);
        pool.checkin(&code, pool.checkout(&code));
        assert_eq!(pool.pooled(code.spec()), 1);
    }

    #[test]
    fn cross_stripe_stealing_beats_building() {
        // A workspace shelved by one thread must be found by checkouts from
        // any other thread (whose home stripe almost certainly differs) —
        // stealing across stripes, not allocating, is the fallback.
        let pool = WorkspacePool::<f64>::with_shape(8, 8);
        let code = compiled(576);
        pool.checkin(&code, pool.checkout(&code));
        assert_eq!(pool.workspaces_created(), 1);
        for _ in 0..4 {
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let ws = pool.checkout(&code);
                    pool.checkin(&code, ws);
                });
            });
        }
        assert_eq!(
            pool.workspaces_created(),
            1,
            "every thread must steal the shelved workspace, never rebuild"
        );
        assert_eq!(pool.pooled(code.spec()), 1);
    }

    #[test]
    fn concurrent_round_trips_keep_pool_hits_stable() {
        // Contention regression for the striped shelf: N threads hammering
        // checkout/checkin on one spec must never build more than N
        // workspaces, warm or cold. The bound is per *concurrent thread*,
        // not "no growth once warm": the all-stripes scan is not atomic, so
        // a shelved workspace can migrate (checkin by one thread, checkout
        // by another) from a not-yet-scanned stripe to an already-scanned
        // one mid-scan and be missed — a scan that instead serialised on
        // every stripe at once would be the contention this pool exists to
        // avoid. What must never happen is a thread building a workspace
        // while fewer than THREADS are checked out *and* none is in
        // transit, and the N-bound captures exactly that.
        const THREADS: usize = 4;
        const ROUNDS: usize = 300;
        let pool = WorkspacePool::<f64>::with_shape(8, 4);
        let code = compiled(576);

        let hammer = |pool: &WorkspacePool<f64>, code: &CompiledCode| {
            let barrier = Barrier::new(THREADS);
            std::thread::scope(|scope| {
                for _ in 0..THREADS {
                    scope.spawn(|| {
                        barrier.wait();
                        for _ in 0..ROUNDS {
                            let ws = pool.checkout(code);
                            pool.checkin(code, ws);
                        }
                    });
                }
            });
        };

        hammer(&pool, &code);
        let warm = pool.workspaces_created();
        assert!(
            warm <= THREADS,
            "at most one workspace per concurrent thread, got {warm}"
        );
        assert_eq!(pool.pooled(code.spec()), warm, "all returned to shelves");

        hammer(&pool, &code);
        let total = pool.workspaces_created();
        assert!(
            total <= THREADS,
            "a warm pool must stay within one workspace per concurrent \
             thread, got {total}"
        );
        assert_eq!(
            pool.pooled(code.spec()),
            total,
            "all returned to shelves after the second hammer"
        );
        assert_eq!(pool.workspaces_dropped(), 0, "cap never hit at N <= cap");
    }
}
