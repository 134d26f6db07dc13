//! Sweep telemetry: per-trial spans from the multi-worker pool, the
//! Chrome-trace export contract, and the determinism guarantee that an
//! instrumented sweep produces a byte-identical database.
//!
//! Own integration-test binary (own process) so span/counter assertions
//! cannot race with unrelated tests.

use hydronas_nas::space::{full_grid, SearchSpace, TrialSpec};
use hydronas_nas::Sweep;
use std::sync::{Mutex, MutexGuard};

/// Serializes this binary's tests: recording is process-global while
/// any session is open, so a a sweep run without a session would otherwise record
/// into the session another test holds and break its exact counts.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn trials(n: usize) -> Vec<TrialSpec> {
    full_grid(&SearchSpace::paper())
        .into_iter()
        .take(n)
        .collect()
}

fn sweep(trials: &[TrialSpec], workers: usize) -> String {
    Sweep::builder()
        .with_trials(trials.to_vec())
        .with_injected_failures(1)
        .with_workers(workers)
        .run()
        .unwrap()
        .db
        .to_json()
}

#[test]
fn multi_worker_sweep_exports_a_stable_chrome_trace() {
    let _serial = serial();
    let trials = trials(24);
    let session = hydronas_telemetry::session();
    let _ = sweep(&trials, 4);

    let m = session.metrics();
    assert_eq!(m.spans["nas.sweep"].count, 1);
    assert_eq!(m.spans["nas.trial"].count, 24);
    assert_eq!(m.spans["nas.evaluate"].count as usize, 24 - 1); // injected failure skips evaluate
                                                                // The graph-metrics cache builds each distinct architecture once:
                                                                // the latency predictor runs once per cache miss, not per trial,
                                                                // and the 23 non-failed trials all consult the cache.
    let misses = m.counters["nas.graph_cache.misses"];
    let hits = m.counters["nas.graph_cache.hits"];
    assert_eq!(m.counters["latency.predict.calls"], misses);
    assert_eq!(hits + misses, 23);
    assert!(misses < 23, "shared architectures must dedupe");
    assert_eq!(m.histograms["nas.trial.wall_s"].count, 24);
    // The progress series advances one point per finished trial, with
    // monotonically growing simulated progress.
    let progress = &m.series["nas.sweep.sim_done_s"];
    assert_eq!(progress.len(), 24);
    assert!(progress.windows(2).all(|w| w[0].value <= w[1].value));
    // Sweep span carries the simulated total of all live trials.
    assert!(m.spans["nas.sweep"].sim_s > 0.0);

    // Chrome export: valid JSON, one complete event per span, sorted by
    // (ts, span id), every trial id present in args.
    let spans = session.spans();
    let trace = session.chrome_trace();
    let v: serde_json::Value = serde_json::from_str(&trace).unwrap();
    let events = v
        .as_map()
        .unwrap()
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v.as_seq().unwrap())
        .unwrap();
    let mut xs = 0usize;
    let mut trial_ids = Vec::new();
    let mut last_ts = 0u64;
    for e in events {
        let map = e.as_map().unwrap();
        let field = |name: &str| map.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        match field("ph") {
            Some(serde_json::Value::Str(ph)) if ph == "X" => {
                xs += 1;
                let serde_json::Value::U64(ts) = field("ts").unwrap() else {
                    panic!("ts must be u64")
                };
                assert!(*ts >= last_ts, "X events must be sorted by ts");
                last_ts = *ts;
                let serde_json::Value::Str(cat) = field("cat").unwrap() else {
                    panic!("cat must be a string")
                };
                if cat == "nas.trial" {
                    let args = field("args").unwrap().as_map().unwrap();
                    let id = args
                        .iter()
                        .find(|(k, _)| k == "id")
                        .map(|(_, v)| v.clone())
                        .expect("trial spans carry an id arg");
                    let serde_json::Value::Str(id) = id else {
                        panic!("id arg is a string attr")
                    };
                    trial_ids.push(id.parse::<usize>().unwrap());
                }
            }
            _ => {}
        }
    }
    assert_eq!(xs, spans.len(), "one complete event per recorded span");
    trial_ids.sort_unstable();
    let mut want: Vec<usize> = trials.iter().map(|t| t.id).collect();
    want.sort_unstable();
    assert_eq!(trial_ids, want, "every trial appears exactly once");

    // How many worker lanes actually ran is scheduling-dependent (a fast
    // worker may drain the queue alone), but every lane that did run must
    // have a thread-name metadata event.
    let mut tids: Vec<u64> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    let meta = events
        .iter()
        .filter(|e| {
            e.as_map()
                .unwrap()
                .iter()
                .any(|(k, v)| k == "ph" && *v == serde_json::Value::Str("M".into()))
        })
        .count();
    assert_eq!(meta, tids.len(), "one thread_name event per lane");
}

#[test]
fn chrome_trace_is_identical_across_reruns_of_the_same_spans() {
    let _serial = serial();
    let trials = trials(12);
    let session = hydronas_telemetry::session();
    let _ = sweep(&trials, 3);
    let spans = session.spans();
    // The exporter itself is a pure function of the span set.
    assert_eq!(
        hydronas_telemetry::chrome_trace(&spans),
        hydronas_telemetry::chrome_trace(&spans)
    );
}

#[test]
fn telemetry_does_not_change_the_database() {
    let _serial = serial();
    let trials = trials(24);
    let plain = sweep(&trials, 4);
    let observed = {
        let _session = hydronas_telemetry::session();
        sweep(&trials, 4)
    };
    assert_eq!(plain, observed, "db bytes must not depend on telemetry");
}
