//! Deterministic intra-op compute pool.
//!
//! Every prior PR's kernel "parallelism" ran through the vendored rayon
//! shim, which executes `par_*` sequentially on the calling thread — on
//! the paper's multi-core edge targets that leaves most of the machine
//! idle. This module is the real thing: a lazily-spawned, process-wide
//! worker pool that fans an *index grid* of tasks out across threads
//! while preserving the workspace's bit-identity contract.
//!
//! ## Determinism contract
//!
//! [`run_tasks`] executes tasks `0..total` exactly once each, with no
//! ordering guarantee *between* tasks. Callers keep results bit-identical
//! across thread counts by construction, not by scheduling:
//!
//! * each task owns a disjoint slice of the output (tile ownership — no
//!   two tasks ever write the same element), and
//! * each task's computation is a pure function of the task index and
//!   the shared inputs (never of the executing thread or claim order),
//!   with any floating-point accumulation order fixed *inside* the task.
//!
//! Under those two rules the value written to every output element is
//! identical whether the grid runs on 1, 2, or N threads — which is
//! exactly how the packed GEMM uses it (each row block accumulates its
//! k products in a fixed ascending order regardless of who computes it).
//!
//! ## Sizing
//!
//! The pool size is `HYDRONAS_THREADS` when set, else the machine's
//! available parallelism; [`set_compute_threads`] overrides either at
//! runtime (the thread-count-invariance tests sweep 1/2/8 in-process).
//! Worker threads spawn lazily on the first parallel job and persist for
//! the process lifetime, so steady-state jobs pay two condvar signals,
//! not a thread spawn. Nested jobs (a GEMM inside a parallel conv task)
//! and single-task grids run inline on the current thread, except as
//! below.
//!
//! ## One grid at a time
//!
//! The pool runs one grid at a time: a submitter holds the pool until
//! its last task finishes, and concurrent submitters queue behind it. A
//! long grid — a NAS sweep runs each trial as one task — holds the pool
//! for its whole length, while the kernels inside its tasks run inline.
//! A participant that runs out of tasks does not idle until the grid
//! ends: a nested grid submitted while one waits is shared with it, so
//! a sweep's last trials get the idle threads for their kernels instead
//! of finishing on one thread each while the others watch.
//! That adds one condition for callers: a pool task must not block on
//! another thread that submits a grid (for example by joining it or
//! waiting for its reply), because that grid queues behind the task's
//! own. Starting a sweep from inside a pool task is such a case.
//!
//! ## Panics
//!
//! A panicking task does not take the pool down. Each task runs under
//! `catch_unwind`; the grid still runs every other task, and once all
//! have finished and the pool is released, [`run_tasks`] re-raises the
//! first payload on the submitting thread — the shape of
//! `std::thread::scope`. Workers survive, and the next grid runs on all
//! of them.
//!
//! ## Scratch arenas
//!
//! Pool workers are ordinary long-lived threads, so the per-thread
//! scratch arena ([`crate::arena`]) extends to them unchanged: each
//! worker warms its own buffer pool on first use and steady-state tasks
//! allocate nothing. Arena and pool counters are per-thread cache and
//! scheduling statistics — both sit outside the metric-invariance
//! contract (they scale with thread count by design).
//!
//! ## Telemetry
//!
//! With a session active, each job records `tensor.pool.jobs` /
//! `tensor.pool.jobs.sequential`, `tensor.pool.tasks`,
//! `tensor.pool.tasks.stolen` (tasks executed by a thread other than the
//! submitter — the steal counter), `tensor.pool.worker.starved` (a woken
//! worker that claimed no task — the idle counter), and the per-job
//! parallel fraction histogram `tensor.pool.parallel_fraction_pct`.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

/// Environment variable consulted for the default pool size.
pub const THREADS_ENV: &str = "HYDRONAS_THREADS";

/// Upper bound on configurable threads (a typo guard, not a target).
const MAX_THREADS: usize = 256;

/// Runtime override set by [`set_compute_threads`]; 0 means "unset, use
/// the env/hardware default".
static CONFIGURED: AtomicUsize = AtomicUsize::new(0);

/// The env/hardware default, resolved once.
static DEFAULT: OnceLock<usize> = OnceLock::new();

fn default_threads() -> usize {
    if let Ok(val) = std::env::var(THREADS_ENV) {
        if let Ok(n) = val.trim().parse::<usize>() {
            if n >= 1 {
                return n.min(MAX_THREADS);
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_THREADS)
}

/// Threads the compute pool will use for the next job: the
/// [`set_compute_threads`] override if one is set, else `HYDRONAS_THREADS`,
/// else the machine's available parallelism. Always at least 1 (the
/// submitting thread itself participates in every job).
pub fn compute_threads() -> usize {
    match CONFIGURED.load(Ordering::Relaxed) {
        0 => *DEFAULT.get_or_init(default_threads),
        n => n,
    }
}

/// Overrides the compute-pool size at runtime (clamped to `1..=256`).
///
/// Takes effect on the next job: lowering the count idles surplus
/// workers (they are never despawned), raising it spawns more lazily.
/// Results are bit-identical across any setting — see the module docs —
/// so this is a throughput knob, never a correctness one.
pub fn set_compute_threads(threads: usize) {
    CONFIGURED.store(threads.clamp(1, MAX_THREADS), Ordering::Relaxed);
}

std::thread_local! {
    /// True while this thread is executing inside a pool task (always
    /// true on worker threads); nested [`run_tasks`] calls run inline
    /// unless a participant of the running grid is idle (see
    /// [`run_tasks`]).
    static IN_POOL_TASK: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Marks the submitting thread as inside a pool task until dropped, then
/// restores the previous mark, so no exit path can leave its later grids
/// running inline.
struct InPoolTask(bool);

impl InPoolTask {
    fn enter() -> InPoolTask {
        InPoolTask(IN_POOL_TASK.with(|flag| flag.replace(true)))
    }
}

impl Drop for InPoolTask {
    fn drop(&mut self) {
        IN_POOL_TASK.with(|flag| flag.set(self.0));
    }
}

/// One submitted task grid. Lives behind an `Arc` so slow-waking workers
/// may still poke the counters after the job completes; the erased
/// closure pointer is only ever dereferenced for a successfully claimed
/// index, all of which complete before the submitter returns.
struct Job {
    /// Lifetime-erased `&(dyn Fn(usize) + Sync)` from the submitter's
    /// stack; valid until `pending` reaches 0 (the submitter blocks).
    func: *const (dyn Fn(usize) + Sync),
    /// Next unclaimed task index (claimed via `fetch_add`).
    next: AtomicUsize,
    /// Tasks not yet finished executing.
    pending: AtomicUsize,
    total: usize,
    /// Worker-participation cap: worker `w` joins only if `w + 1` is
    /// below the thread count configured at submit time.
    cap: usize,
    /// Telemetry decision latched at submit (workers must not record
    /// into a session the submitter never saw).
    telemetry: bool,
    /// The first task panic's payload, re-raised by the submitter.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: the raw closure pointer is only dereferenced while the
// submitting stack frame is alive (see `Job::func`); the counters are
// atomics and the panic slot is a mutex.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

struct Slot {
    job: Option<Arc<Job>>,
    /// Nested grids that tasks of `job` opened to its idle participants.
    shared: Vec<Arc<Job>>,
    /// Bumped once per submitted job so workers can tell a fresh job
    /// from the one they already exhausted.
    epoch: u64,
    /// Worker threads spawned so far.
    spawned: usize,
}

struct Pool {
    slot: Mutex<Slot>,
    /// Workers sleep here between jobs.
    work_cv: Condvar,
    /// Signalled when a job's last task finishes or a nested grid is
    /// shared: submitters and idle participants sleep here.
    done_cv: Condvar,
    /// Serializes jobs: one grid runs at a time (concurrent submitters
    /// queue here — intra-op parallelism, inter-op serialization).
    submit: Mutex<()>,
    /// Participants of the running grid that are out of its tasks and
    /// waiting for the rest to finish: the helpers a nested grid can get.
    idle: AtomicUsize,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        slot: Mutex::new(Slot {
            job: None,
            shared: Vec::new(),
            epoch: 0,
            spawned: 0,
        }),
        work_cv: Condvar::new(),
        done_cv: Condvar::new(),
        submit: Mutex::new(()),
        idle: AtomicUsize::new(0),
    })
}

/// Claims and executes tasks from `job` until the grid is exhausted.
/// A panicking task is caught and counted down like any other (its
/// payload is kept if it is the first), so this never unwinds.
/// Returns how many tasks this thread executed.
fn execute(p: &'static Pool, job: &Job) -> usize {
    let mut ran = 0usize;
    loop {
        let i = job.next.fetch_add(1, Ordering::Relaxed);
        if i >= job.total {
            return ran;
        }
        // SAFETY: a claimed index < total implies pending > 0, so the
        // submitter is still blocked and the closure is alive.
        let f = unsafe { &*job.func };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i))) {
            let mut first = job.panic.lock().unwrap_or_else(PoisonError::into_inner);
            first.get_or_insert(payload);
        }
        ran += 1;
        // AcqRel chains every task's writes into the release sequence
        // the submitter's final acquire load synchronizes with.
        if job.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = p.slot.lock().unwrap();
            p.done_cv.notify_all();
        }
    }
}

fn worker_loop(p: &'static Pool, worker_id: usize) {
    IN_POOL_TASK.with(|flag| flag.set(true));
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut slot = p.slot.lock().unwrap();
            loop {
                if slot.epoch != seen_epoch {
                    seen_epoch = slot.epoch;
                    if let Some(job) = slot.job.clone() {
                        break job;
                    }
                }
                slot = p.work_cv.wait(slot).unwrap();
            }
        };
        if worker_id + 1 >= job.cap {
            // Surplus worker from an earlier, larger configuration:
            // honor the current thread cap by sitting this job out.
            continue;
        }
        let ran = execute(p, &job);
        if ran == 0 && job.telemetry {
            hydronas_telemetry::add("tensor.pool.worker.starved", 1);
        }
        help_until_done(p, &job);
    }
}

/// Waits until every task of the running grid `job` has finished, and
/// meanwhile runs tasks of the nested grids its remaining tasks share.
/// A participant that is out of tasks thus joins the grid's slowest
/// tasks instead of idling beside them; a grid of coarse tasks (a sweep
/// of trials) ends as fast as its kernels parallelize, not as fast as
/// the last task runs alone.
fn help_until_done(p: &'static Pool, job: &Job) {
    let mut slot = p.slot.lock().unwrap();
    while job.pending.load(Ordering::Acquire) != 0 {
        let open = slot
            .shared
            .iter()
            .find(|n| n.next.load(Ordering::Relaxed) < n.total)
            .cloned();
        if let Some(nested) = open {
            drop(slot);
            execute(p, &nested);
            slot = p.slot.lock().unwrap();
        } else {
            // Counted under the slot lock, so a grid shared after this
            // thread went idle finds it waiting for the signal.
            p.idle.fetch_add(1, Ordering::Relaxed);
            slot = p.done_cv.wait(slot).unwrap();
            p.idle.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Ensures at least `want` workers exist (spawned lazily, kept forever).
fn ensure_workers(p: &'static Pool, want: usize) {
    let mut slot = p.slot.lock().unwrap();
    while slot.spawned < want {
        let id = slot.spawned;
        std::thread::Builder::new()
            .name(format!("hydronas-pool-{id}"))
            .spawn(move || worker_loop(pool(), id))
            .expect("spawn compute-pool worker");
        slot.spawned += 1;
        if hydronas_telemetry::enabled() {
            hydronas_telemetry::add("tensor.pool.workers.spawned", 1);
        }
    }
}

/// Executes tasks `0..total` across the compute pool, blocking until all
/// complete. The submitting thread participates, so a pool of size 1 —
/// or a single-task grid, or a nested call from inside a pool task —
/// degenerates to a plain sequential loop with no synchronization.
///
/// The one exception: a nested grid submitted while a participant of the
/// running grid is out of tasks is shared with it. The idle participants
/// run its tasks beside the submitting task's thread; nothing else waits
/// on the pool for it.
///
/// Determinism: see the module docs — tasks must own disjoint outputs
/// and be pure functions of their index, in exchange for bit-identical
/// results at any thread count.
///
/// # Panics
///
/// Re-raises the first task panic once every task has finished (see
/// the module docs). The sequential loop stops at the first panic.
pub fn run_tasks<F: Fn(usize) + Sync>(total: usize, f: F) {
    if total == 0 {
        return;
    }
    let threads = compute_threads();
    let nested = IN_POOL_TASK.with(|flag| flag.get());
    let shared = nested && total > 1 && pool().idle.load(Ordering::Relaxed) > 0;
    if total == 1 || threads <= 1 || (nested && !shared) {
        if hydronas_telemetry::enabled() {
            hydronas_telemetry::add("tensor.pool.jobs.sequential", 1);
        }
        for i in 0..total {
            f(i);
        }
        return;
    }
    let p = pool();
    // One grid at a time; later submitters queue here (a shared nested
    // grid runs inside the grid that holds it). No task panic unwinds
    // while this is held, so it cannot be poisoned by one.
    let submit = (!nested).then(|| {
        let guard = p.submit.lock().unwrap_or_else(PoisonError::into_inner);
        ensure_workers(p, threads - 1);
        guard
    });
    let telemetry = hydronas_telemetry::enabled();
    // SAFETY: `job.func` is dereferenced only for claimed indices, all of
    // which finish before `pending` reaches 0 — and this frame does not
    // return until it does, so the borrow outlives every dereference.
    let func: *const (dyn Fn(usize) + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync + 'static)>(
            &f,
        )
    };
    let job = Arc::new(Job {
        func,
        next: AtomicUsize::new(0),
        pending: AtomicUsize::new(total),
        total,
        cap: threads,
        telemetry,
        panic: Mutex::new(None),
    });
    {
        let mut slot = p.slot.lock().unwrap();
        if nested {
            slot.shared.push(Arc::clone(&job));
        } else {
            slot.job = Some(Arc::clone(&job));
            slot.epoch += 1;
        }
    }
    if nested {
        p.done_cv.notify_all();
    } else {
        p.work_cv.notify_all();
    }
    // Participate (inside the pool-task scope, so nested grids see it).
    let in_task = InPoolTask::enter();
    let mine = execute(p, &job);
    if nested {
        // Only the stragglers the helpers claimed remain; wait for them
        // without taking other work, so shared grids never stack up on
        // this thread.
        let mut slot = p.slot.lock().unwrap();
        while job.pending.load(Ordering::Acquire) != 0 {
            slot = p.done_cv.wait(slot).unwrap();
        }
        slot.shared.retain(|n| !Arc::ptr_eq(n, &job));
    } else {
        help_until_done(p, &job);
        p.slot.lock().unwrap().job = None;
    }
    drop(in_task);
    drop(submit);
    if telemetry {
        let stolen = (total - mine) as u64;
        hydronas_telemetry::add_all(&[
            ("tensor.pool.jobs", 1),
            ("tensor.pool.tasks", total as u64),
            ("tensor.pool.tasks.stolen", stolen),
        ]);
        hydronas_telemetry::record_value(
            "tensor.pool.parallel_fraction_pct",
            stolen as f64 * 100.0 / total as f64,
        );
    }
    let panic = job
        .panic
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take();
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
}

/// `*mut T` that may cross the pool boundary (tasks reconstruct disjoint
/// subslices from it). Accessed through [`SendPtr::get`] so closures
/// capture the `Sync` wrapper, not the raw pointer field.
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}
impl<T> SendPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Parallel-for over `chunk`-sized mutable chunks of `data` (the last
/// chunk may be shorter): `f(chunk_index, chunk)`. Chunks are disjoint,
/// so this upholds the tile-ownership half of the determinism contract
/// by construction.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    let len = data.len();
    if len == 0 {
        return;
    }
    let base = SendPtr(data.as_mut_ptr());
    run_tasks(len.div_ceil(chunk), |i| {
        let start = i * chunk;
        let n = chunk.min(len - start);
        // SAFETY: task i owns exactly [start, start + n), and chunks are
        // pairwise disjoint; the borrow of `data` outlives run_tasks.
        let part = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), n) };
        f(i, part);
    });
}

/// [`par_chunks_mut`] over two slices chunked in lockstep (the zipped
/// form the conv backward pass needs): task `i` gets chunk `i` of both.
pub fn par_chunks_mut2<A, B, F>(a: &mut [A], chunk_a: usize, b: &mut [B], chunk_b: usize, f: F)
where
    A: Send,
    B: Send,
    F: Fn(usize, &mut [A], &mut [B]) + Sync,
{
    assert!(chunk_a > 0 && chunk_b > 0, "chunk sizes must be positive");
    let tasks = a.len().div_ceil(chunk_a);
    assert_eq!(
        tasks,
        b.len().div_ceil(chunk_b),
        "zipped slices must chunk into the same task count"
    );
    if tasks == 0 {
        return;
    }
    let (len_a, len_b) = (a.len(), b.len());
    let pa = SendPtr(a.as_mut_ptr());
    let pb = SendPtr(b.as_mut_ptr());
    run_tasks(tasks, |i| {
        let (sa, sb) = (i * chunk_a, i * chunk_b);
        // SAFETY: disjoint chunk ownership per task, as in par_chunks_mut.
        let ca =
            unsafe { std::slice::from_raw_parts_mut(pa.get().add(sa), chunk_a.min(len_a - sa)) };
        let cb =
            unsafe { std::slice::from_raw_parts_mut(pb.get().add(sb), chunk_b.min(len_b - sb)) };
        f(i, ca, cb);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that mutate the global thread configuration.
    fn config_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn every_task_runs_exactly_once_at_any_thread_count() {
        let _guard = config_lock();
        for threads in [1, 2, 8] {
            set_compute_threads(threads);
            let total = 257;
            let hits: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
            run_tasks(total, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(
                    h.load(Ordering::Relaxed),
                    1,
                    "task {i} at {threads} threads"
                );
            }
        }
        set_compute_threads(1);
    }

    #[test]
    fn par_chunks_mut_writes_are_visible_and_disjoint() {
        let _guard = config_lock();
        set_compute_threads(4);
        let mut data = vec![0u64; 1000];
        par_chunks_mut(&mut data, 7, |i, chunk| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = (i * 7 + j) as u64;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i as u64);
        }
        set_compute_threads(1);
    }

    #[test]
    fn zipped_chunks_stay_in_lockstep() {
        let _guard = config_lock();
        set_compute_threads(3);
        let mut a = vec![0usize; 40]; // chunk 10 -> 4 tasks
        let mut b = vec![0usize; 8]; // chunk 2  -> 4 tasks
        par_chunks_mut2(&mut a, 10, &mut b, 2, |i, ca, cb| {
            ca.fill(i + 1);
            cb.fill(i + 1);
        });
        for (i, v) in a.iter().enumerate() {
            assert_eq!(*v, i / 10 + 1);
        }
        for (i, v) in b.iter().enumerate() {
            assert_eq!(*v, i / 2 + 1);
        }
        set_compute_threads(1);
    }

    #[test]
    fn nested_grids_run_inline_without_deadlock() {
        let _guard = config_lock();
        set_compute_threads(4);
        let outer = 6;
        let counter = AtomicUsize::new(0);
        run_tasks(outer, |_| {
            // A nested grid from inside a task must not re-enter the
            // submit lock (deadlock) — it runs inline, or is shared with
            // the participants that are out of outer tasks.
            run_tasks(5, |_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), outer * 5);
        set_compute_threads(1);
    }

    #[test]
    fn an_idle_participant_helps_a_nested_grid() {
        use std::time::{Duration, Instant};
        let _guard = config_lock();
        set_compute_threads(2);
        let deadline = Instant::now() + Duration::from_secs(30);
        let ran: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let threads = Mutex::new(std::collections::HashSet::new());
        run_tasks(2, |task| {
            if task == 0 {
                return;
            }
            // Whichever thread ran task 0 runs out of outer tasks.
            while pool().idle.load(Ordering::Relaxed) == 0 {
                assert!(Instant::now() < deadline, "no participant went idle");
                std::thread::yield_now();
            }
            run_tasks(ran.len(), |i| {
                ran[i].fetch_add(1, Ordering::Relaxed);
                threads.lock().unwrap().insert(std::thread::current().id());
                // Hold the grid open until the idle participant joins.
                while threads.lock().unwrap().len() < 2 {
                    assert!(Instant::now() < deadline, "nobody helped");
                    std::thread::yield_now();
                }
            });
        });
        for (i, r) in ran.iter().enumerate() {
            assert_eq!(r.load(Ordering::Relaxed), 1, "nested task {i}");
        }
        assert!(pool().slot.lock().unwrap().shared.is_empty());
        set_compute_threads(1);
    }

    #[test]
    fn concurrent_submitters_serialize_without_loss() {
        let _guard = config_lock();
        set_compute_threads(4);
        let total = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..10 {
                        run_tasks(16, |_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 10 * 16);
        set_compute_threads(1);
    }

    #[test]
    fn thread_count_is_clamped_and_readable() {
        let _guard = config_lock();
        set_compute_threads(0);
        assert_eq!(compute_threads(), 1);
        set_compute_threads(100_000);
        assert_eq!(compute_threads(), 256);
        set_compute_threads(1);
        assert_eq!(compute_threads(), 1);
    }
}
