//! Panic safety of the compute pool: a panicking task reaches the
//! submitter exactly once, after the grid has finished, and leaves the
//! pool whole — every worker alive, the submit lock unpoisoned, and the
//! submitting thread's later grids still parallel.
//!
//! Own test binary: the pool and the thread-count setting are
//! process-global, so every test here takes [`config_lock`] and restores
//! the single-thread default on exit. Every wait is bounded, so a
//! regression fails instead of hanging.

use hydronas_tensor::parallel::run_tasks;
use hydronas_tensor::{gemm, set_compute_threads, uniform, Epilogue, GemmA, GemmB, TensorRng};
use std::collections::HashSet;
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, MutexGuard, Once};
use std::time::{Duration, Instant};

/// Upper bound on every wait in this file. A healthy pool meets it with
/// a wide margin on any host; only a dead worker or a hang reaches it.
const BOUND: Duration = Duration::from_secs(30);

/// The payload of every panic these tests raise on purpose: the index of
/// the task that raised it.
#[derive(Debug)]
struct Seeded(usize);

fn config_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Keeps the default hook's report for every panic except the seeded
/// ones, which are expected and would only clutter the output.
fn quiet_seeded_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !info.payload().is::<Seeded>() {
                previous(info);
            }
        }));
    });
}

/// A GEMM large enough for the packed, row-block-parallel path.
fn gemm_bits() -> Vec<u32> {
    let (m, k, n) = (97, 131, 119);
    let mut rng = TensorRng::seed_from_u64(41);
    let a = uniform(&[m, k], -1.0, 1.0, &mut rng);
    let b = uniform(&[k, n], -1.0, 1.0, &mut rng);
    let mut c = vec![0.0f32; m * n];
    let (a, b) = (GemmA::Slice(a.as_slice()), GemmB::Slice(b.as_slice()));
    gemm(a, b, &mut c, m, k, n, Epilogue::None);
    c.iter().map(|v| v.to_bits()).collect()
}

/// A grid of `threads` tasks in which each task waits until `threads`
/// distinct threads have entered. It completes only if the submitter
/// and `threads - 1` workers each take one task: every worker is alive,
/// the submit lock admits this thread, and the grid did not run inline.
fn rendezvous(threads: usize) {
    let entered = Mutex::new(HashSet::new());
    let deadline = Instant::now() + BOUND;
    run_tasks(threads, |_| {
        entered.lock().unwrap().insert(std::thread::current().id());
        loop {
            let met = entered.lock().unwrap().len();
            if met == threads {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "rendezvous: only {met} of {threads} threads entered"
            );
            std::thread::sleep(Duration::from_micros(200));
        }
    });
}

/// The pool after a panic: the rendezvous completes from this thread and
/// from a fresh one, and a GEMM matches the 1-thread bits.
fn assert_pool_whole(threads: usize, reference: &[u32]) {
    rendezvous(threads);
    std::thread::scope(|s| {
        s.spawn(|| rendezvous(threads))
            .join()
            .expect("rendezvous from a fresh thread")
    });
    assert_eq!(
        gemm_bits(),
        reference,
        "GEMM bits diverged after a panic at {threads} threads"
    );
}

/// Task `i` panics when this holds: the same tasks at every thread count.
fn seeded(i: usize) -> bool {
    i % 7 == 3
}

#[test]
fn task_panics_reach_the_submitter_once_and_leave_the_pool_whole() {
    let _guard = config_lock();
    quiet_seeded_panics();
    set_compute_threads(1);
    let reference = gemm_bits();
    let total = 64;
    for threads in [1, 2, 8] {
        set_compute_threads(threads);
        let runs: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_tasks(total, |i| {
                runs[i].fetch_add(1, Ordering::Relaxed);
                if seeded(i) {
                    panic_any(Seeded(i));
                }
            })
        }));
        let payload = caught.expect_err("a seeded panic must reach the submitter");
        let Seeded(first) = *payload
            .downcast::<Seeded>()
            .expect("the submitter re-raises a task's own payload");
        assert!(seeded(first), "task {first} never panicked");
        let runs: Vec<usize> = runs.iter().map(|r| r.load(Ordering::Relaxed)).collect();
        if threads == 1 {
            // A 1-thread grid is a plain loop: it stops at the first panic.
            assert_eq!(first, 3);
            assert!(runs[..=3].iter().all(|&r| r == 1), "{runs:?}");
            assert!(runs[4..].iter().all(|&r| r == 0), "{runs:?}");
        } else {
            assert!(
                runs.iter().all(|&r| r == 1),
                "every task must run exactly once at {threads} threads: {runs:?}"
            );
        }
        assert_pool_whole(threads, &reference);
    }
    set_compute_threads(1);
}

#[test]
fn a_worker_panic_returns_to_the_submitter() {
    let _guard = config_lock();
    quiet_seeded_panics();
    set_compute_threads(1);
    let reference = gemm_bits();
    for threads in [2, 8] {
        set_compute_threads(threads);
        let (tx, rx) = mpsc::channel();
        // Joined only once it has reported: a hung submitter must fail
        // the test, not hang it.
        let submitter = std::thread::spawn(move || {
            let worker_ran = AtomicBool::new(false);
            let deadline = Instant::now() + BOUND;
            let caught = catch_unwind(AssertUnwindSafe(|| {
                run_tasks(threads, |i| {
                    let name = std::thread::current().name().map(str::to_owned);
                    if name.is_some_and(|n| n.starts_with("hydronas-pool-")) {
                        worker_ran.store(true, Ordering::Release);
                        panic_any(Seeded(i));
                    }
                    // The submitter's task holds it in the grid until a
                    // worker has run (and panicked).
                    while !worker_ran.load(Ordering::Acquire) && Instant::now() < deadline {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                })
            }));
            let seeded = caught.map_err(|payload| payload.is::<Seeded>());
            // The thread that submitted the panicking grid submits again.
            rendezvous(threads);
            let _ = tx.send(seeded);
        });
        match rx.recv_timeout(2 * BOUND) {
            Ok(Err(true)) => {}
            Ok(other) => panic!("expected a worker's seeded panic at {threads} threads: {other:?}"),
            Err(_) => {
                panic!("the submitter did not return after a worker panic at {threads} threads")
            }
        }
        submitter
            .join()
            .expect("the submitter thread exits cleanly");
        assert_pool_whole(threads, &reference);
    }
    set_compute_threads(1);
}
