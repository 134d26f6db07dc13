//! Crash/resume semantics of the journaled sweep: a sweep killed after N
//! journal records and resumed must produce an `ExperimentDb` that is
//! byte-identical to an uninterrupted run — including under injected
//! failures and retries of chaos-injected transient failures.

use hydronas::prelude::*;
use hydronas_nas::space::{full_grid, SearchSpace};
use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};

fn trials() -> Vec<TrialSpec> {
    full_grid(&SearchSpace::paper())
        .into_iter()
        .filter(|t| t.combo.channels == 5 && t.combo.batch_size == 16)
        .take(60)
        .collect()
}

fn temp_journal(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("hydronas_resume_{tag}_{}", std::process::id()));
    std::fs::remove_file(&path).ok();
    path
}

fn builder(trials: Vec<TrialSpec>, config: &SchedulerConfig, journal: Option<&Path>) -> Sweep {
    let sweep = Sweep::builder()
        .with_trials(trials)
        .with_seed(config.seed)
        .with_injected_failures(config.injected_failures);
    match journal {
        Some(path) => sweep.with_journal(path),
        None => sweep,
    }
}

fn sweep(config: &SchedulerConfig, journal: Option<&Path>) -> SweepReport {
    builder(trials(), config, journal).run().expect("sweep I/O")
}

/// Simulates a crash: keep only the first `keep` journal lines, plus a
/// torn partial record as if the process died mid-append.
fn truncate_journal(path: &Path, keep: usize) {
    let text = std::fs::read_to_string(path).unwrap();
    let prefix: String = text.lines().take(keep).map(|l| format!("{l}\n")).collect();
    std::fs::write(path, prefix).unwrap();
    let mut file = OpenOptions::new().append(true).open(path).unwrap();
    file.write_all(b"{\"attempts\":1,\"outcome\":{\"spec\"")
        .unwrap();
}

#[test]
fn resumed_sweep_is_byte_identical() {
    let config = SchedulerConfig {
        injected_failures: 3,
        ..Default::default()
    };
    let uninterrupted = sweep(&config, None);

    let journal = temp_journal("basic");
    let full = sweep(&config, Some(&journal));
    assert_eq!(full.db.to_json(), uninterrupted.db.to_json());
    assert_eq!(read_journal(&journal).unwrap().len(), 60);

    truncate_journal(&journal, 20);
    let resumed = sweep(&config, Some(&journal));
    assert_eq!(resumed.stats.replayed, 20);
    assert_eq!(resumed.stats.finished(), 60);
    assert_eq!(
        resumed.db.to_json(),
        uninterrupted.db.to_json(),
        "resume must reproduce the uninterrupted database byte for byte"
    );
    // After the resumed run the journal is complete and torn-line free.
    assert_eq!(read_journal(&journal).unwrap().len(), 60);
    std::fs::remove_file(&journal).ok();
}

#[test]
fn resume_is_byte_identical_under_failures_and_retries() {
    let config = SchedulerConfig {
        injected_failures: 4,
        ..Default::default()
    };
    let chaos = ChaosConfig::new(5).with_transients(100);
    let run = |journal: Option<&Path>| {
        builder(trials(), &config, journal)
            .with_chaos(chaos)
            .run()
            .expect("sweep I/O")
    };
    let uninterrupted = run(None);
    assert_eq!(
        uninterrupted.stats.failed, 4,
        "permanent failures stay failed, chaos transients recover"
    );
    // The 4 permanent failures retry twice each; chaos adds the rest.
    assert!(uninterrupted.stats.retried > 8, "chaos must force retries");
    assert_eq!(uninterrupted.db.valid().len(), 56);

    let journal = temp_journal("retries");
    let full = run(Some(&journal));
    assert_eq!(full.db.to_json(), uninterrupted.db.to_json());

    truncate_journal(&journal, 37);
    let resumed = run(Some(&journal));
    assert_eq!(resumed.stats.replayed, 37);
    assert_eq!(resumed.db.to_json(), uninterrupted.db.to_json());
    // Replayed records keep their attempt counts, so the retry counter
    // survives the crash too.
    assert_eq!(resumed.stats.retried, uninterrupted.stats.retried);
    std::fs::remove_file(&journal).ok();
}

#[test]
fn journal_round_trips_through_multiple_crashes() {
    let config = SchedulerConfig {
        injected_failures: 2,
        ..Default::default()
    };
    let reference = sweep(&config, None);

    let journal = temp_journal("multi");
    let _ = sweep(&config, Some(&journal));
    for keep in [45, 10] {
        truncate_journal(&journal, keep);
        let resumed = sweep(&config, Some(&journal));
        assert_eq!(resumed.stats.replayed, keep);
        assert_eq!(resumed.db.to_json(), reference.db.to_json());
    }
    std::fs::remove_file(&journal).ok();
}

#[test]
fn stale_journal_is_rejected() {
    let config = SchedulerConfig::default();
    let journal = temp_journal("stale");
    let _ = sweep(&config, Some(&journal));

    // Re-running against a different trial set must fail loudly instead
    // of silently mixing experiments.
    let other: Vec<TrialSpec> = full_grid(&SearchSpace::paper())
        .into_iter()
        .filter(|t| t.combo.channels == 7)
        .take(30)
        .collect();
    let err = builder(other, &config, Some(&journal)).run().unwrap_err();
    assert!(
        matches!(err, SweepError::StaleJournal { .. }),
        "expected a typed stale-journal error, got {err}"
    );
    // The shim keeps the historical io::Error contract for old callers.
    assert_eq!(
        std::io::Error::from(err).kind(),
        std::io::ErrorKind::InvalidData
    );
    std::fs::remove_file(&journal).ok();
}
