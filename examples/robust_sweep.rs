//! The robustness subsystem in one tour: one `Sweep` type whose `with_*`
//! settings add per-trial timeouts, simulated wall-clock deadlines,
//! cooperative cancellation, and deterministic chaos injection, with at
//! most three attempts per trial — every run ending in a structured
//! degradation report instead of an error.
//!
//! Run with: `cargo run --release --example robust_sweep`

use hydronas::prelude::*;
use hydronas_nas::space::full_grid;

fn main() {
    let trials: Vec<TrialSpec> = full_grid(&SearchSpace::paper())
        .into_iter()
        .take(96)
        .collect();

    // 1. A healthy sweep: `Sweep::builder()` starts from the paper's
    //    defaults and each `with_*` call changes one setting.
    let report = Sweep::builder()
        .with_trials(trials.clone())
        .with_injected_failures(0)
        .run()
        .expect("no journal, no I/O");
    println!(
        "healthy:   {} valid / {} scheduled, degraded: {}",
        report.db.valid().len(),
        report.stats.scheduled,
        report.degradation.is_degraded()
    );

    // 2. A per-trial timeout: expensive stems fail deterministically
    //    with a `trial timeout` status instead of consuming the budget.
    //    Cap at the median simulated duration so the upper half times out.
    let limit_s = {
        let mut durations: Vec<f64> = trials.iter().map(hydronas_nas::trial_duration_s).collect();
        durations.sort_by(|a, b| a.partial_cmp(b).unwrap());
        durations[durations.len() / 2]
    };
    let report = Sweep::builder()
        .with_trials(trials.clone())
        .with_injected_failures(0)
        .with_trial_timeout_s(limit_s)
        .run()
        .unwrap();
    println!(
        "timeout:   {} trial(s) over the {limit_s:.0} s simulated budget",
        report.degradation.timeout_trials
    );

    // 3. A wall-clock deadline: the engine admits an id-ordered prefix
    //    that fits the budget and reports the skipped suffix — the same
    //    set at any thread count.
    let total_s: f64 = trials.iter().map(hydronas_nas::trial_duration_s).sum();
    let report = Sweep::builder()
        .with_trials(trials.clone())
        .with_injected_failures(0)
        .with_max_wall_s(total_s / 2.0)
        .run()
        .unwrap();
    println!(
        "deadline:  ran {} of {}, skipped {}",
        report.db.outcomes.len(),
        trials.len(),
        report.degradation.skipped.len()
    );

    // 4. Cooperative cancellation: cancel the token (here immediately;
    //    in a binary, from a Ctrl-C handler) and the sweep drains
    //    in-flight trials and returns partial results.
    let cancel = CancelToken::new();
    cancel.cancel();
    let report = Sweep::builder()
        .with_trials(trials.clone())
        .with_cancel(cancel)
        .run()
        .unwrap();
    println!(
        "cancelled: {} outcome(s), cancelled flag: {}",
        report.db.outcomes.len(),
        report.degradation.cancelled
    );

    // 5. Deterministic chaos: seeded fault injection (timeouts, panics,
    //    transient failures) stress-tests the three attempts every trial
    //    gets. The same seed always produces the same faults.
    let report = Sweep::builder()
        .with_trials(trials)
        .with_injected_failures(0)
        .with_chaos(
            ChaosConfig::new(42)
                .with_transients(150)
                .with_panics(30)
                .with_timeouts(20),
        )
        .run()
        .unwrap();
    println!("chaos:\n{}", report.degradation.summary());
}
