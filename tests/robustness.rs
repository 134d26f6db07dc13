//! Robustness contract of the sweep engine: cooperative cancellation,
//! deadline determinism, and chaos tolerance.
//!
//! The load-bearing guarantee: a sweep cancelled mid-run and resumed
//! from its journal produces an `ExperimentDb` byte-identical to an
//! uninterrupted run — cancellation loses wall-clock, never results.

use hydronas::prelude::*;
use hydronas_nas::space::{full_grid, SearchSpace};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn trials(n: usize) -> Vec<TrialSpec> {
    full_grid(&SearchSpace::paper())
        .into_iter()
        .take(n)
        .collect()
}

fn temp_journal(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("hydronas_robust_{tag}_{}", std::process::id()));
    std::fs::remove_file(&path).ok();
    path
}

/// Cancels the sweep's token after `after` live trial events land.
struct CancelAfter {
    remaining: usize,
    token: CancelToken,
}

impl ProgressSink for CancelAfter {
    fn on_event(&mut self, event: &SweepEvent) {
        if let SweepEvent::Trial { .. } = event {
            self.remaining = self.remaining.saturating_sub(1);
            if self.remaining == 0 {
                self.token.cancel();
            }
        }
    }
}

/// The sweep under test: three permanent failures, plus chaos-injected
/// transients that the retries absorb.
fn sweep_with_journal(trials: Vec<TrialSpec>, journal: Option<&Path>) -> Sweep {
    let sweep = Sweep::builder()
        .with_trials(trials)
        .with_injected_failures(3)
        .with_chaos(ChaosConfig::new(4).with_transients(20));
    match journal {
        Some(path) => sweep.with_journal(path),
        None => sweep,
    }
}

/// What `chaos` alone gives a trial at three attempts: the attempt it
/// ends on and that attempt's roll. A trial ends on its first roll that
/// is clean or a timeout; three panics or transients in a row exhaust
/// it.
fn chaos_end(chaos: &ChaosConfig, id: usize) -> (usize, Option<ChaosFault>) {
    let mut end = (1, None);
    for attempt in 1..=3 {
        end = (attempt, chaos.fault_for(id, attempt));
        if matches!(end.1, None | Some(ChaosFault::Timeout)) {
            break;
        }
    }
    end
}

#[test]
fn cancel_mid_sweep_then_resume_is_byte_identical() {
    let n = 288;
    let uninterrupted = sweep_with_journal(trials(n), None).run().unwrap();
    assert_eq!(uninterrupted.db.outcomes.len(), n);
    assert!(uninterrupted.stats.retried > 0, "chaos must force retries");

    let journal = temp_journal("cancel");
    let token = CancelToken::new();
    let mut sink = CancelAfter {
        remaining: 5,
        token: token.clone(),
    };
    let partial = sweep_with_journal(trials(n), Some(&journal))
        .with_cancel(token)
        .run_with(&mut sink)
        .unwrap();
    assert!(partial.degradation.cancelled);
    // Every terminal outcome the cancelled run produced reached the
    // journal before the engine returned (the flush-on-drain contract),
    // and everything else is accounted for as skipped.
    assert_eq!(
        read_journal(&journal).unwrap().len(),
        partial.stats.finished()
    );
    assert_eq!(
        partial.db.outcomes.len() + partial.degradation.skipped.len(),
        n
    );
    // The partial database is a subset of the uninterrupted run, not a
    // divergent one: every landed outcome matches byte for byte.
    let full_json = uninterrupted.db.to_json();
    for outcome in &partial.db.outcomes {
        let reference = uninterrupted
            .db
            .by_id(outcome.spec.id)
            .expect("cancelled run cannot invent trials");
        assert_eq!(
            serde_json::to_string(outcome).unwrap(),
            serde_json::to_string(reference).unwrap(),
            "trial {} diverged under cancellation",
            outcome.spec.id
        );
    }

    // Resume without the cancel token: the journal replays and the final
    // database is byte-identical to the uninterrupted run.
    let resumed = sweep_with_journal(trials(n), Some(&journal)).run().unwrap();
    assert_eq!(resumed.stats.replayed, partial.stats.finished());
    assert_eq!(resumed.db.to_json(), full_json);
    assert_eq!(resumed.stats.retried, uninterrupted.stats.retried);
    assert!(!resumed.degradation.is_degraded());
    std::fs::remove_file(&journal).ok();
}

#[test]
fn deadline_skips_identically_across_worker_counts() {
    let specs = trials(96);
    let budget_s: f64 = specs
        .iter()
        .map(hydronas_nas::trial_duration_s)
        .sum::<f64>()
        / 3.0;
    // The trials run as one compute-pool grid, so the pool size is the
    // sweep's parallelism; the previous size is restored after each run.
    let run = |threads: usize| {
        let restore = compute_threads();
        set_compute_threads(threads);
        let report = Sweep::builder()
            .with_trials(specs.clone())
            .with_injected_failures(0)
            .with_max_wall_s(budget_s)
            .run()
            .unwrap();
        set_compute_threads(restore);
        report
    };
    let serial = run(1);
    assert!(serial.degradation.deadline_exhausted);
    assert!(!serial.degradation.skipped.is_empty());
    for threads in [8, 32] {
        let parallel = run(threads);
        assert_eq!(
            parallel.db.to_json(),
            serial.db.to_json(),
            "{threads} threads changed the admitted database"
        );
        assert_eq!(
            parallel.degradation, serial.degradation,
            "{threads} threads changed the skipped set"
        );
    }
}

#[test]
fn deadline_cutoff_survives_a_resume() {
    // A deadline-limited run journals what it admitted; resuming with the
    // same budget replays it and re-skips the same suffix.
    let specs = trials(48);
    let budget_s: f64 = specs
        .iter()
        .map(hydronas_nas::trial_duration_s)
        .sum::<f64>()
        / 2.0;
    let journal = temp_journal("deadline");
    let run = || {
        Sweep::builder()
            .with_trials(specs.clone())
            .with_injected_failures(0)
            .with_max_wall_s(budget_s)
            .with_journal(&journal)
            .run()
            .unwrap()
    };
    let first = run();
    let second = run();
    assert_eq!(second.stats.replayed, first.stats.finished());
    assert_eq!(second.db.to_json(), first.db.to_json());
    assert_eq!(second.degradation.skipped, first.degradation.skipped);
    std::fs::remove_file(&journal).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any mix of injected chaos faults terminates with a coherent
    /// degradation report: every trial is either in the database or in
    /// the skipped set, failure counts partition the failed total, and
    /// the run is pure (same inputs, same bytes).
    #[test]
    fn chaos_always_terminates_with_a_coherent_report(
        seed in 0u64..1000,
        timeout_pm in 0u16..300,
        panic_pm in 0u16..300,
        transient_pm in 0u16..300,
    ) {
        let specs = trials(24);
        let chaos = ChaosConfig::new(seed)
            .with_timeouts(timeout_pm)
            .with_panics(panic_pm)
            .with_transients(transient_pm);
        let run = || {
            Sweep::builder()
                .with_trials(specs.clone())
                .with_injected_failures(0)
                .with_chaos(chaos)
                .run()
                .expect("chaos must never surface as an engine error")
        };
        let report = run();
        let d = &report.degradation;
        // No cancellation and no deadline: nothing may be skipped.
        prop_assert!(d.skipped.is_empty());
        prop_assert!(!d.cancelled && !d.deadline_exhausted);
        prop_assert_eq!(report.db.outcomes.len(), specs.len());
        prop_assert_eq!(
            report.stats.completed + report.stats.failed,
            specs.len()
        );
        // Failure causes partition the failed count.
        prop_assert_eq!(
            d.timeout_trials + d.transient_trials + d.invalid_trials,
            report.stats.failed
        );
        // The counts are the fault schedule's at three attempts.
        let ends: Vec<_> = specs.iter().map(|t| chaos_end(&chaos, t.id)).collect();
        prop_assert_eq!(
            report.stats.retried,
            ends.iter().map(|(attempt, _)| attempt - 1).sum::<usize>()
        );
        prop_assert_eq!(
            d.timeout_trials,
            ends.iter().filter(|(_, roll)| *roll == Some(ChaosFault::Timeout)).count()
        );
        prop_assert_eq!(
            d.transient_trials,
            ends.iter()
                .filter(|(_, roll)| matches!(roll, Some(ChaosFault::Panic | ChaosFault::Transient)))
                .count()
        );
        // Degradation flags stay truthful.
        prop_assert_eq!(
            d.is_degraded(),
            d.timeout_trials > 0
        );
        // Chaos is deterministic: the same fault mix reproduces the
        // same database and the same report.
        let again = run();
        prop_assert_eq!(report.db.to_json(), again.db.to_json());
        prop_assert_eq!(d, &again.degradation);
    }
}
