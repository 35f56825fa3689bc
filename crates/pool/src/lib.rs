//! Shared work-stealing compile pool: the workspace's only parallel runtime.
//!
//! Compile work fans out at several layers: the batch driver
//! (`twoqan::BatchCompiler`) over jobs, a 2QAN compile over its portfolio
//! candidates, the QAP solvers over their multi-start restarts, the
//! trajectory simulator over shots and the state-vector kernels over chunks
//! of the amplitude range.  Every layer submits its fan-out through
//! [`run_indexed`], so all of them share **one** set of worker threads
//! instead of nesting thread layers that oversubscribe small machines.
//! This crate is the only code in the workspace's library crates that spawns
//! a thread, and the only place that decides how many.
//!
//! Work is submitted as *indexed batches* ([`CompilePool::run_indexed`]):
//! the submitting thread participates as a worker, idle workers steal
//! tickets from a shared queue, and results are collected by index, so the
//! output is bit-identical to serial execution for any worker count and any
//! scheduling.
//!
//! Who provisions the pool: the compile service keeps one long-lived pool,
//! `BatchCompiler` creates one per batch, and otherwise [`run_indexed`]
//! creates a transient one (one worker per core) for the duration of the
//! call.  Nested fan-outs find the installed pool and never spawn.
//!
//! Nesting is deadlock-free by construction: a worker that is executing a
//! batch item and submits a nested batch keeps draining indices itself
//! (caller participation) and *helps* with other queued work while waiting
//! for stragglers, so progress never depends on a free worker existing.
//!
//! The crate is std-only (the build environment has no crates.io access) and
//! keeps a global census of every OS thread the pool spawns, so tests can
//! prove that a run at `--threads N` used exactly `N` workers with no nested
//! spawning.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Global count of OS threads ever spawned by [`CompilePool`]s.  Monotonic;
/// read it before and after an operation to count the threads that
/// operation spawned.
static SPAWNED_THREAD_CENSUS: AtomicUsize = AtomicUsize::new(0);

/// Returns the global count of OS threads the pool has ever spawned.
pub fn spawned_thread_census() -> usize {
    SPAWNED_THREAD_CENSUS.load(Ordering::SeqCst)
}

/// The number of workers that can make concurrent progress on this machine.
///
/// Compile work is CPU-bound, so workers beyond the core count only add
/// context-switch and condvar churn — the source of the sub-serial batch
/// sweeps that clamping every provisioned pool to this fixed.
pub fn max_useful_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The worker count a `threads` setting resolves to: `0` means one worker
/// per core, and any other `n` is clamped to the core count
/// ([`max_useful_workers`]).
pub fn resolve_workers(threads: usize) -> usize {
    let cores = max_useful_workers();
    match threads {
        0 => cores,
        n => n.min(cores),
    }
}

/// Runs `f(0), …, f(count - 1)` and returns the results in index order.
///
/// With a pool installed on the current thread (see
/// [`CompilePool::install`]; pool workers always have their own installed)
/// the batch runs on it, even when it has a single worker: an installed
/// pool is the sole source of threads.  Otherwise a batch of at most one
/// item runs inline, and a larger one provisions a transient pool with one
/// worker per core, installed for the duration of the call so that nested
/// fan-outs inside `f` share its workers.  The result is identical in every
/// mode (index `k` always holds `f(k)`), so callers get determinism for free
/// as long as `f` itself is a pure function of its index.
pub fn run_indexed<T, F>(count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if let Some(results) = run_installed(count, &f) {
        return results;
    }
    if count <= 1 {
        return (0..count).map(f).collect();
    }
    let pool = CompilePool::new(max_useful_workers());
    // Dropped before the pool, so the thread's TLS is restored first.
    let guard = pool.install();
    let results = pool.run_indexed(count, f);
    drop(guard);
    results
}

/// A batch of `count` indexed work items sharing one type-erased entry point.
///
/// `ctx` points at a stack frame of the submitting `run_on` call.  Safety
/// contract: `run` is only ever invoked for indices `k < count` claimed via
/// `next.fetch_add`, and `run_on` does not return until `pending == 0`, i.e.
/// until every claimed index has finished executing.  Tickets that outlive
/// the batch (stale queue entries) observe `next >= count` and return without
/// touching `ctx`, so the dangling pointer is never dereferenced.
struct BatchShared {
    run: unsafe fn(*const (), usize),
    ctx: *const (),
    next: AtomicUsize,
    count: usize,
    pending: AtomicUsize,
    done_lock: Mutex<()>,
    done_cv: Condvar,
}

// SAFETY: `ctx` is only dereferenced under the claim protocol documented on
// the struct; the pointed-to `Ctx` (`&F` + result slots) is `Sync`.
unsafe impl Send for BatchShared {}
unsafe impl Sync for BatchShared {}

impl BatchShared {
    /// Claims and runs one index. Returns `false` once the batch is drained.
    fn execute_one(&self) -> bool {
        let k = self.next.fetch_add(1, Ordering::Relaxed);
        if k >= self.count {
            return false;
        }
        // SAFETY: k < count was claimed exactly once, and `run_on` keeps
        // `ctx` alive until `pending` reaches zero (decremented below,
        // strictly after the call returns).  `run` cannot unwind (the entry
        // point catches panics), so the depth counter always unwinds back.
        BATCH_DEPTH.with(|d| d.set(d.get() + 1));
        unsafe { (self.run)(self.ctx, k) };
        BATCH_DEPTH.with(|d| d.set(d.get() - 1));
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = self.done_lock.lock().expect("done lock poisoned");
            self.done_cv.notify_all();
        }
        true
    }

    /// Runs indices until the batch has none left to claim.
    fn drain(&self) {
        while self.execute_one() {}
    }
}

struct Inner {
    queue: Mutex<VecDeque<Arc<BatchShared>>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    /// Total worker count, including the submitting caller thread.
    workers: usize,
    /// Dedicated workers currently parked on `queue_cv` with nothing to do.
    /// Nested batches consult this before posting tickets: when the pool is
    /// saturated there is nobody to help, so they run inline instead of
    /// paying for queue traffic and result slots nobody will ever steal.
    idle: AtomicUsize,
}

impl Inner {
    fn try_pop(&self) -> Option<Arc<BatchShared>> {
        self.queue.lock().expect("pool queue poisoned").pop_front()
    }

    fn push_tickets(&self, batch: &Arc<BatchShared>, tickets: usize) {
        if tickets == 0 {
            return;
        }
        {
            let mut queue = self.queue.lock().expect("pool queue poisoned");
            for _ in 0..tickets {
                queue.push_back(Arc::clone(batch));
            }
        }
        if tickets == 1 {
            self.queue_cv.notify_one();
        } else {
            self.queue_cv.notify_all();
        }
    }
}

thread_local! {
    /// The pool the current thread submits nested work to.  Set for pool
    /// worker threads at startup and for arbitrary threads via
    /// [`CompilePool::install`].
    static CURRENT: RefCell<Option<Arc<Inner>>> = const { RefCell::new(None) };

    /// Nesting depth of batch items executing on the current thread.  Zero
    /// on a fresh submitter; positive while inside `BatchShared::execute_one`
    /// (i.e. when a submission is a *nested* batch from within another one).
    static BATCH_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// A fixed-size work-stealing pool for compile jobs and solver restarts.
///
/// `CompilePool::new(n)` provisions `n` workers *total*: `n - 1` dedicated OS
/// threads plus the submitting caller, which always participates.  `n <= 1`
/// therefore spawns nothing and every batch runs inline on the caller —
/// exactly the serial path.
pub struct CompilePool {
    inner: Arc<Inner>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl CompilePool {
    /// Creates a pool with `threads` total workers (clamped to at least 1).
    /// Spawns `threads - 1` OS threads; the caller is the remaining worker.
    pub fn new(threads: usize) -> Self {
        let workers = threads.max(1);
        let inner = Arc::new(Inner {
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            workers,
            idle: AtomicUsize::new(0),
        });
        let spawned = workers - 1;
        SPAWNED_THREAD_CENSUS.fetch_add(spawned, Ordering::SeqCst);
        let handles = (0..spawned)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("twoqan-pool-{i}"))
                    .spawn(move || worker_loop(inner))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        CompilePool { inner, handles }
    }

    /// Total worker count (dedicated threads + the submitting caller).
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Installs this pool as the current thread's submission target and
    /// returns a guard that restores the previous target on drop.  While
    /// installed, [`run_indexed`] routes through this pool instead of
    /// provisioning one.
    pub fn install(&self) -> PoolGuard {
        let prev = CURRENT.with(|c| c.borrow_mut().replace(Arc::clone(&self.inner)));
        PoolGuard { prev }
    }

    /// Worker count of the pool installed on the current thread, if any.
    pub fn current_workers() -> Option<usize> {
        CURRENT.with(|c| c.borrow().as_ref().map(|inner| inner.workers))
    }

    /// Runs `f(0), …, f(count - 1)` on this pool and returns the results in
    /// index order.  The caller participates; panics in `f` are captured and
    /// re-raised on the caller (lowest panicking index wins) after the whole
    /// batch has settled.
    pub fn run_indexed<T, F>(&self, count: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        run_on(&self.inner, count, &f)
    }

    /// Pops one queued batch ticket and drains that batch on the calling
    /// thread.  Returns `false` when the queue was empty (or only held
    /// already-drained stale tickets — those are claimed and discarded in
    /// O(1) without running anything).
    ///
    /// This is the *helping* primitive for threads that are waiting on
    /// pool-adjacent work without being pool workers themselves: a service
    /// request coalesced onto another caller's in-flight compile lends its
    /// core to whatever the pool is running — typically the leader's
    /// multi-start solver restarts — instead of sleeping on a condvar.
    pub fn try_help_one(&self) -> bool {
        match self.inner.try_pop() {
            Some(ticket) => {
                ticket.drain();
                true
            }
            None => false,
        }
    }
}

impl Drop for CompilePool {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.queue_cv.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Restores the thread's previous submission target when dropped.
pub struct PoolGuard {
    prev: Option<Arc<Inner>>,
}

impl Drop for PoolGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// Runs an indexed batch on the pool installed on the current thread, if
/// any.  Returns `None` when no pool is installed.  With a 1-worker pool
/// installed this still returns `Some` — executing serially inline.
fn run_installed<T, F>(count: usize, f: &F) -> Option<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let inner = CURRENT.with(|c| c.borrow().clone())?;
    Some(run_on(&inner, count, f))
}

fn worker_loop(inner: Arc<Inner>) {
    CURRENT.with(|c| *c.borrow_mut() = Some(Arc::clone(&inner)));
    loop {
        let ticket = {
            let mut queue = inner.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(ticket) = queue.pop_front() {
                    break Some(ticket);
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                inner.idle.fetch_add(1, Ordering::SeqCst);
                let waited = inner.queue_cv.wait(queue);
                inner.idle.fetch_sub(1, Ordering::SeqCst);
                queue = waited.expect("pool queue poisoned");
            }
        };
        match ticket {
            Some(ticket) => ticket.drain(),
            None => return,
        }
    }
}

fn run_on<T, F>(inner: &Arc<Inner>, count: usize, f: &F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if count == 0 {
        return Vec::new();
    }
    // Serial fast path: a 1-worker pool, or a single-item batch, runs inline
    // with no queue traffic.  Identical results by construction.
    if inner.workers <= 1 || count == 1 {
        return (0..count).map(f).collect();
    }
    // One ticket per helper that could usefully join in; each popped ticket
    // drains the batch cooperatively, and stale tickets are harmless no-ops.
    //
    // A *top-level* submission posts a ticket for every other worker — they
    // are either parked or about to be.  A *nested* submission (a batch item
    // fanning out its solver restarts) caps tickets at the number of workers
    // actually parked right now: when the pool is saturated with sibling
    // items, posting tickets just adds queue and condvar traffic for batches
    // the submitter will have fully drained itself anyway.
    let nested = BATCH_DEPTH.with(Cell::get) > 0;
    let tickets = if nested {
        inner
            .idle
            .load(Ordering::SeqCst)
            .min(inner.workers - 1)
            .min(count - 1)
    } else {
        (inner.workers - 1).min(count - 1)
    };
    if tickets == 0 {
        // Nobody can help: run inline with zero synchronization.  This is
        // the common case for nested multi-start restarts on a saturated
        // pool, and is bit-identical to the cooperative path.  (A panic in
        // `f` propagates immediately here rather than after the batch
        // settles; nested items are already inside a `catch_unwind` entry,
        // so the observable behavior is unchanged.)
        return (0..count).map(f).collect();
    }

    type Slot<T> = Mutex<Option<std::thread::Result<T>>>;
    struct Ctx<'a, T, F> {
        f: &'a F,
        slots: &'a [Slot<T>],
    }
    /// Type-erased entry point; monomorphized per (T, F).
    ///
    /// SAFETY (caller): `ctx` must point at a live `Ctx<T, F>` and `k` must
    /// be a uniquely claimed index `< slots.len()`.
    unsafe fn entry<T, F>(ctx: *const (), k: usize)
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let ctx = unsafe { &*(ctx as *const Ctx<'_, T, F>) };
        let result = catch_unwind(AssertUnwindSafe(|| (ctx.f)(k)));
        *ctx.slots[k].lock().expect("pool result slot poisoned") = Some(result);
    }

    let slots: Vec<Slot<T>> = (0..count).map(|_| Mutex::new(None)).collect();
    let ctx = Ctx { f, slots: &slots };
    let batch = Arc::new(BatchShared {
        run: entry::<T, F>,
        ctx: (&ctx as *const Ctx<'_, T, F>).cast(),
        next: AtomicUsize::new(0),
        count,
        pending: AtomicUsize::new(count),
        done_lock: Mutex::new(()),
        done_cv: Condvar::new(),
    });

    inner.push_tickets(&batch, tickets);

    // The caller is a worker too: claim indices until none are left…
    batch.drain();
    // …then help with other queued work (e.g. nested batches submitted by
    // the items we just ran on other workers) while stragglers finish.
    while batch.pending.load(Ordering::Acquire) > 0 {
        if let Some(other) = inner.try_pop() {
            other.drain();
            continue;
        }
        let guard = batch.done_lock.lock().expect("done lock poisoned");
        if batch.pending.load(Ordering::Acquire) == 0 {
            break;
        }
        // Untimed wait until the last straggler signals `done_cv`.  This is
        // deadlock-free: every claimed index is actively running on some
        // thread, and no batch ever depends on its tickets being served (the
        // submitter drains its own batch).  The previous 200 µs polling wait
        // let the caller keep stealing work queued *after* it went to sleep,
        // but on small batches the wakeup churn cost more than the stolen
        // work was worth — it is what pushed the 2-worker sweep below 1.0×.
        drop(batch.done_cv.wait(guard).expect("done lock poisoned"));
    }

    drop(batch);
    let mut panic_payload = None;
    let mut results = Vec::with_capacity(count);
    for slot in slots {
        let value = slot
            .into_inner()
            .expect("pool result slot poisoned")
            .expect("every index is executed exactly once");
        match value {
            Ok(value) => results.push(value),
            Err(payload) => {
                if panic_payload.is_none() {
                    panic_payload = Some(payload);
                }
            }
        }
    }
    if let Some(payload) = panic_payload {
        resume_unwind(payload);
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_index_ordered_and_serial_identical() {
        let pool = CompilePool::new(4);
        let serial: Vec<usize> = (0..100).map(|k| k * 3 + 1).collect();
        for _ in 0..10 {
            assert_eq!(pool.run_indexed(100, |k| k * 3 + 1), serial);
        }
    }

    #[test]
    fn nested_batches_complete_without_deadlock() {
        let pool = CompilePool::new(2);
        let _guard = pool.install();
        // Each outer item submits a nested batch; nesting happens both on
        // the caller thread and on the single dedicated worker.
        let outer = pool.run_indexed(8, |i| {
            let inner: Vec<usize> =
                run_installed(6, &|j| i * 10 + j).expect("pool is installed on worker threads");
            inner.iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..8).map(|i| (0..6).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(outer, expect);
    }

    #[test]
    fn serial_and_parallel_agree_in_order() {
        let serial = {
            let pool = CompilePool::new(1);
            let _guard = pool.install();
            run_indexed(17, |k| k * k)
        };
        let parallel = run_indexed(17, |k| k * k);
        assert_eq!(serial, parallel);
        assert_eq!(serial[3], 9);
    }

    #[test]
    fn zero_and_one_counts_work() {
        assert_eq!(run_indexed(0, |k| k), Vec::<usize>::new());
        assert_eq!(run_indexed(1, |k| k + 1), vec![1]);
    }

    #[test]
    fn install_guard_restores_previous_target() {
        assert!(CompilePool::current_workers().is_none());
        let pool_a = CompilePool::new(2);
        let pool_b = CompilePool::new(3);
        {
            let _a = pool_a.install();
            assert_eq!(CompilePool::current_workers(), Some(2));
            {
                let _b = pool_b.install();
                assert_eq!(CompilePool::current_workers(), Some(3));
            }
            assert_eq!(CompilePool::current_workers(), Some(2));
        }
        assert!(CompilePool::current_workers().is_none());
    }

    #[test]
    fn run_installed_without_pool_returns_none() {
        assert!(run_installed(3, &|k: usize| k).is_none());
    }

    #[test]
    fn panics_propagate_to_the_caller_lowest_index_first() {
        let pool = CompilePool::new(3);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_indexed(16, |k| {
                if k == 4 {
                    panic!("boom at 4");
                }
                k
            })
        }));
        let payload = result.expect_err("the batch panics");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            message.contains("boom at 4"),
            "unexpected payload: {message}"
        );
        // The pool stays usable after a panicking batch.
        assert_eq!(pool.run_indexed(3, |k| k), vec![0, 1, 2]);
    }

    #[test]
    fn zero_count_is_a_no_op() {
        let pool = CompilePool::new(2);
        assert_eq!(pool.run_indexed(0, |k| k), Vec::<usize>::new());
    }

    #[test]
    fn try_help_one_drains_queued_tickets_from_non_worker_threads() {
        let pool = CompilePool::new(2);
        // Nothing queued: helping is a cheap no-op.
        assert!(!pool.try_help_one());

        // Occupy every runner — the submitter plus each dedicated worker —
        // with a gate batch of exactly `workers()` items, and only start
        // helping once all of them are *claimed* (`entered == workers`), so
        // the helping thread can never end up running a gated item itself.
        let entered = AtomicUsize::new(0);
        let release = AtomicBool::new(false);
        let executed = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                pool.run_indexed(pool.workers(), |_| {
                    entered.fetch_add(1, Ordering::SeqCst);
                    while !release.load(Ordering::SeqCst) {
                        std::thread::sleep(std::time::Duration::from_micros(50));
                    }
                });
            });
            while entered.load(Ordering::SeqCst) < pool.workers() {
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
            // A second submission leaves its ticket in the queue: every
            // runner is gated, so only a helping thread can claim it.  (The
            // submitter drains its own items either way — helping is how
            // waiting threads lend their core, not a liveness requirement —
            // so the claimed ticket may already be stale.)
            scope.spawn(|| {
                pool.run_indexed(4, |_| {
                    executed.fetch_add(1, Ordering::SeqCst);
                });
            });
            let mut helped = false;
            while !helped {
                helped = pool.try_help_one();
                if !helped {
                    std::thread::sleep(std::time::Duration::from_micros(50));
                }
            }
            release.store(true, Ordering::SeqCst);
        });
        assert_eq!(executed.load(Ordering::SeqCst), 4);
        // The gate batch ran once per worker.
        assert_eq!(entered.load(Ordering::SeqCst), pool.workers());
    }
}
