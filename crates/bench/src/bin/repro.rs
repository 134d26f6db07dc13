//! `repro` — regenerate every table and figure of the paper, plus the
//! design-choice ablations called out in DESIGN.md.
//!
//! ```text
//! repro --all                # every table/figure to stdout + repro_out/
//! repro --table 3            # a single table
//! repro --figure 4           # a single figure (CSV to stdout)
//! repro --discussion         # Section 5 wall-clock reproduction
//! repro --ablation           # design-choice ablations
//! repro --out DIR            # artifact directory (default repro_out)
//! repro --resume JOURNAL     # write-ahead journal: resume a killed sweep
//! repro --progress           # live sweep progress on stderr
//! repro --trial-timeout SECS # fail trials over this simulated budget
//! repro --max-wall SECS      # skip trials past this simulated deadline
//! repro --trace PATH         # Chrome-trace (chrome://tracing / Perfetto)
//! repro --metrics PATH       # telemetry counters/series + sweep stats
//! repro --quiet              # errors only on stderr
//! ```
//!
//! Ctrl-C cancels cooperatively: in-flight trials drain, the journal
//! flushes, and partial artifacts are written with a degradation
//! summary — re-run with the same `--resume` journal to continue.

use hydronas::prelude::*;
use hydronas_nas::space::full_grid;
use hydronas_telemetry::{log_error, log_info, log_warn};
use std::path::PathBuf;

/// Cooperative Ctrl-C: the handler performs exactly one async-signal-safe
/// atomic store through a process-global [`CancelToken`], and the sweep
/// observes it before starting each trial.
#[cfg(unix)]
mod ctrl_c {
    use hydronas::prelude::CancelToken;
    use std::sync::OnceLock;

    static TOKEN: OnceLock<CancelToken> = OnceLock::new();

    extern "C" fn on_sigint(_signum: i32) {
        if let Some(token) = TOKEN.get() {
            token.cancel();
        }
    }

    /// Routes SIGINT to `token`. Raw `signal(2)` keeps the binary free of
    /// any FFI crate dependency.
    pub fn install(token: CancelToken) {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        let _ = TOKEN.set(token);
        let handler = on_sigint as extern "C" fn(i32);
        unsafe {
            signal(SIGINT, handler as usize);
        }
    }
}

#[cfg(not(unix))]
mod ctrl_c {
    use hydronas::prelude::CancelToken;

    /// No signal plumbing off Unix; the token still works programmatically.
    pub fn install(_token: CancelToken) {}
}

struct Args {
    table: Option<usize>,
    figure: Option<usize>,
    discussion: bool,
    ablation: bool,
    report: bool,
    all: bool,
    out: PathBuf,
    resume: Option<PathBuf>,
    progress: bool,
    trial_timeout_s: Option<f64>,
    max_wall_s: Option<f64>,
    trace: Option<PathBuf>,
    metrics: Option<PathBuf>,
    quiet: bool,
}

const USAGE: &str = "usage: repro [--all|--table N|--figure N|--discussion|--ablation|--report] [--out DIR] [--resume JOURNAL] [--progress] [--trial-timeout SECS] [--max-wall SECS] [--trace PATH] [--metrics PATH] [--quiet]";

fn usage_exit(problem: &str) -> ! {
    eprintln!("{problem}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        table: None,
        figure: None,
        discussion: false,
        ablation: false,
        report: false,
        all: false,
        out: PathBuf::from("repro_out"),
        resume: None,
        progress: false,
        trial_timeout_s: None,
        max_wall_s: None,
        trace: None,
        metrics: None,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--table" => {
                args.table = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|n| (1..=5).contains(n))
                        .unwrap_or_else(|| usage_exit("--table needs a number 1-5")),
                )
            }
            "--figure" => {
                args.figure = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|n| (1..=4).contains(n))
                        .unwrap_or_else(|| usage_exit("--figure needs a number 1-4")),
                )
            }
            "--discussion" => args.discussion = true,
            "--report" => args.report = true,
            "--ablation" => args.ablation = true,
            "--all" => args.all = true,
            "--out" => {
                args.out = PathBuf::from(
                    it.next()
                        .unwrap_or_else(|| usage_exit("--out needs a path")),
                )
            }
            "--resume" => {
                args.resume =
                    Some(PathBuf::from(it.next().unwrap_or_else(|| {
                        usage_exit("--resume needs a journal path")
                    })))
            }
            "--progress" => args.progress = true,
            "--trial-timeout" => {
                args.trial_timeout_s = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|s: &f64| *s > 0.0)
                        .unwrap_or_else(|| {
                            usage_exit("--trial-timeout needs a positive seconds value")
                        }),
                )
            }
            "--max-wall" => {
                args.max_wall_s = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|s: &f64| *s > 0.0)
                        .unwrap_or_else(|| usage_exit("--max-wall needs a positive seconds value")),
                )
            }
            "--trace" => {
                args.trace = Some(PathBuf::from(
                    it.next()
                        .unwrap_or_else(|| usage_exit("--trace needs a path")),
                ))
            }
            "--metrics" => {
                args.metrics = Some(PathBuf::from(
                    it.next()
                        .unwrap_or_else(|| usage_exit("--metrics needs a path")),
                ))
            }
            "--quiet" => args.quiet = true,
            other => usage_exit(&format!("unknown flag {other}")),
        }
    }
    if args.table.is_none()
        && args.figure.is_none()
        && !args.discussion
        && !args.ablation
        && !args.report
    {
        args.all = true;
    }
    args
}

fn main() {
    let args = parse_args();
    if args.quiet {
        hydronas_telemetry::set_log_level(hydronas_telemetry::Level::Error);
    }
    // Collect telemetry whenever an export was requested, and always for
    // `--all` (trace.json/metrics.json join the artifact bundle).
    let observing = args.trace.is_some() || args.metrics.is_some() || args.all;
    let session = observing.then(hydronas_telemetry::session);
    let seed = SchedulerConfig::default().seed;
    log_info!("running the full 1,728-trial experiment (seed {seed})...");
    if let Some(journal) = &args.resume {
        log_info!(
            "journaling to {} (finished trials are replayed on restart)",
            journal.display()
        );
    }
    let mut ticker = StderrTicker::default();
    let sink: Option<&mut dyn ProgressSink> = if args.progress {
        Some(&mut ticker)
    } else {
        None
    };
    let cancel = CancelToken::new();
    ctrl_c::install(cancel.clone());
    let mut sweep = Sweep::builder().with_seed(seed).with_cancel(cancel);
    if let Some(journal) = &args.resume {
        sweep = sweep.with_journal(journal);
    }
    if let Some(limit_s) = args.trial_timeout_s {
        sweep = sweep.with_trial_timeout_s(limit_s);
    }
    if let Some(budget_s) = args.max_wall_s {
        sweep = sweep.with_max_wall_s(budget_s);
    }
    let artifacts = reproduce(sweep, sink).unwrap_or_else(|e| {
        log_error!("cannot use journal: {e}");
        std::process::exit(1);
    });
    if artifacts.degradation.is_degraded() {
        for line in artifacts.degradation.summary().lines() {
            log_warn!("sweep degraded: {line}");
        }
        if artifacts.degradation.cancelled {
            log_warn!("cancelled: artifacts below are partial; re-run with --resume to continue");
        }
    }

    // The sweep itself runs the surrogate evaluator; a miniature real
    // training pass fills the telemetry snapshot with genuine kernel
    // counters and per-epoch series.
    if session.is_some() {
        log_info!("running the kernel probe (miniature real training)...");
        match hydronas::kernel_probe(seed) {
            Some(acc) => log_info!("kernel probe: {acc:.2}% cross-validated accuracy"),
            None => log_warn!("kernel probe failed; op counters will be empty"),
        }
    }

    if args.all {
        let written = artifacts.write_to(&args.out).expect("write artifacts");
        println!("{}", artifacts.table1);
        println!("{}", artifacts.table2);
        println!("{}", artifacts.table3);
        println!("Table 4 (strict 3-objective front):\n{}", artifacts.table4);
        println!(
            "Table 4 (pool-grouped, as published):\n{}",
            artifacts.table4_pool_grouped
        );
        println!("{}", artifacts.table5);
        println!("{}", artifacts.figure2);
        println!("{}", artifacts.discussion);
        log_info!("wrote {} files to {}", written.len(), args.out.display());
    }
    if let Some(n) = args.table {
        match n {
            1 => print!("{}", artifacts.table1),
            2 => print!("{}", artifacts.table2),
            3 => print!("{}", artifacts.table3),
            4 => {
                print!("{}", artifacts.table4);
                println!(
                    "\npool-grouped protocol:\n{}",
                    artifacts.table4_pool_grouped
                );
            }
            5 => print!("{}", artifacts.table5),
            _ => unreachable!("parse_args admits tables 1-5"),
        }
    }
    if let Some(n) = args.figure {
        match n {
            1 => print!("{}", artifacts.figure1),
            2 => print!("{}", artifacts.figure2),
            3 => print!("{}", artifacts.figure3_csv),
            4 => print!("{}", artifacts.figure4_csv),
            _ => unreachable!("parse_args admits figures 1-4"),
        }
    }
    if args.discussion {
        print!("{}", artifacts.discussion);
    }
    if args.report {
        print!("{}", hydronas::markdown_report(&artifacts));
    }
    if args.ablation || args.all {
        ablations(&artifacts.db);
    }

    // Export last, so the trace and metrics cover everything above
    // (sweep, kernel probe, rendering, and ablations).
    if let Some(session) = session {
        export_telemetry(&session, &artifacts.sweep, &args);
    }
}

/// Writes the Chrome trace and the metrics snapshot to every requested
/// destination: explicit `--trace`/`--metrics` paths, plus the artifact
/// directory on `--all` runs.
fn export_telemetry(session: &hydronas_telemetry::Session, sweep: &SweepStats, args: &Args) {
    let trace = session.chrome_trace();
    let metrics = hydronas::metrics_json(&session.metrics(), sweep);
    let mut targets: Vec<(PathBuf, &String)> = Vec::new();
    if let Some(path) = &args.trace {
        targets.push((path.clone(), &trace));
    }
    if let Some(path) = &args.metrics {
        targets.push((path.clone(), &metrics));
    }
    if args.all {
        targets.push((args.out.join("trace.json"), &trace));
        targets.push((args.out.join("metrics.json"), &metrics));
    }
    for (path, content) in targets {
        if let Err(e) = std::fs::write(&path, content) {
            log_error!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        log_info!("wrote {}", path.display());
    }
}

/// Design-choice ablations (DESIGN.md section 6).
fn ablations(db: &ExperimentDb) {
    println!("=== Ablation 1: roofline vs FLOPs-only latency model ===");
    ablation_flops_only(db);
    println!("\n=== Ablation 2: search-space pruning (padding = 1) ===");
    ablation_padding_pruning(db);
    println!("\n=== Ablation 3: seed sensitivity of the front ===");
    ablation_seed_sensitivity();
    println!("\n=== Ablation 4: grid vs random vs evolution sample efficiency ===");
    ablation_strategies();
    println!("\n=== Ablation 5: energy as a fourth objective ===");
    ablation_energy(db);
    println!("\n=== Ablation 6: multi-GPU makespan (Section 5 future work) ===");
    ablation_makespan();
    println!("\n=== Ablation 7: weighted-sum scalarization vs dominance ===");
    ablation_scalarization(db);
    println!("\n=== Sensitivity: main effects per objective ===");
    sensitivity_section(db);
}

/// How much of the dominance front a weighted-sum sweep recovers, and the
/// epsilon-constraint deployment query.
fn ablation_scalarization(db: &ExperimentDb) {
    use hydronas_pareto::{epsilon_constraint, supported_fraction};
    let points = db.objective_points();
    let senses = [
        Objective::Maximize,
        Objective::Minimize,
        Objective::Minimize,
    ];
    let frac = supported_fraction(&points, &senses, 12);
    println!(
        "weighted-sum sweep (91 weight vectors) recovers {:.0}% of the dominance front",
        100.0 * frac
    );
    // Deployment query: best accuracy under a 15 ms / 12 MB budget.
    if let Some(pick) = epsilon_constraint(&points, &senses, 0, &[0.0, 15.0, 12.0]) {
        let o = db.by_id(pick.id).expect("picked id exists");
        println!(
            "epsilon-constraint (lat <= 15 ms, mem <= 12 MB): {} at {:.2}%",
            o.spec.arch.key(),
            o.accuracy
        );
    }
}

/// Main-effects tables for all three objectives.
fn sensitivity_section(db: &ExperimentDb) {
    use hydronas_nas::{sensitivity_table, Response};
    for response in [Response::Accuracy, Response::LatencyMs, Response::MemoryMb] {
        println!("{}", sensitivity_table(db, response));
    }
}

/// Adding energy-per-inference as a fourth objective: how much does the
/// front grow, and does the deployment picture change?
fn ablation_energy(db: &ExperimentDb) {
    use hydronas_latency::predict_energy;
    use hydronas_pareto::{pareto_front, Point};
    let senses3 = [
        Objective::Maximize,
        Objective::Minimize,
        Objective::Minimize,
    ];
    let senses4 = [
        Objective::Maximize,
        Objective::Minimize,
        Objective::Minimize,
        Objective::Minimize,
    ];
    let points4: Vec<Point> = db
        .valid()
        .iter()
        .map(|o| {
            let g = ModelGraph::from_arch(&o.spec.arch, 32).unwrap();
            let energy = predict_energy(&g).mean_mj;
            Point::new(
                o.spec.id,
                vec![o.accuracy, o.latency_ms, o.memory_mb, energy],
            )
        })
        .collect();
    let points3: Vec<Point> = points4
        .iter()
        .map(|p| Point::new(p.id, p.values[..3].to_vec()))
        .collect();
    let f3 = pareto_front(&points3, &senses3);
    let f4 = pareto_front(&points4, &senses4);
    println!(
        "3-objective front: {} rows | +energy: {} rows",
        f3.len(),
        f4.len()
    );
    let best_energy = points4
        .iter()
        .map(|p| p.values[3])
        .fold(f64::INFINITY, f64::min);
    println!("minimum energy per inference: {best_energy:.1} mJ (mean across devices)");
}

/// LPT makespan of the full experiment on 1..8 simulated GPUs.
fn ablation_makespan() {
    use hydronas_nas::makespan_lpt;
    let trials = full_grid(&SearchSpace::paper());
    let (serial, _) = makespan_lpt(&trials, 1);
    println!(
        "1 GPU: {:.1} h (the paper's serial NNI run)",
        serial / 3600.0
    );
    for workers in [2usize, 4, 8] {
        let (m, _) = makespan_lpt(&trials, workers);
        println!(
            "{workers} GPUs: {:.1} h  (speedup {:.2}x, efficiency {:.0}%)",
            m / 3600.0,
            serial / m,
            100.0 * serial / (m * workers as f64)
        );
    }
}

/// Re-rank latency with a pure-FLOPs cost model: the weight-traffic-bound
/// regime disappears and the front composition flips.
fn ablation_flops_only(db: &ExperimentDb) {
    use hydronas_pareto::{pareto_front, Point};
    let senses = [
        Objective::Maximize,
        Objective::Minimize,
        Objective::Minimize,
    ];
    let flops_points: Vec<Point> = db
        .valid()
        .iter()
        .map(|o| {
            let g = ModelGraph::from_arch(&o.spec.arch, 32).unwrap();
            let flops_latency = model_cost(&g).flops as f64 / 1e6; // "ms" at 1 GFLOPS
            Point::new(o.spec.id, vec![o.accuracy, flops_latency, o.memory_mb])
        })
        .collect();
    let flops_front = pareto_front(&flops_points, &senses);
    let roofline_front = db.pareto_outcomes();
    println!(
        "roofline front: {} rows | FLOPs-only front: {} rows",
        roofline_front.len(),
        flops_front.len()
    );
    let pooled = |ids: &[usize]| {
        ids.iter()
            .filter(|id| {
                db.by_id(**id)
                    .map(|o| o.spec.arch.pool.is_some())
                    .unwrap_or(false)
            })
            .count()
    };
    let roofline_ids: Vec<usize> = roofline_front.iter().map(|o| o.spec.id).collect();
    let flops_ids: Vec<usize> = flops_front.iter().map(|p| p.id).collect();
    println!(
        "pool rows survive: roofline {} / FLOPs-only {} (the FLOPs model cannot see the Myriad pool penalty)",
        pooled(&roofline_ids),
        pooled(&flops_ids)
    );
}

/// Paper Section 5(2): restricting padding to 1 shrinks the grid 3x; how
/// much of the front and wall-clock survives?
fn ablation_padding_pruning(db: &ExperimentDb) {
    let full_front = db.pareto_outcomes();
    let pruned: Vec<_> = db
        .outcomes
        .iter()
        .filter(|o| o.spec.arch.padding == 1)
        .cloned()
        .collect();
    let pruned_db = ExperimentDb { outcomes: pruned };
    let pruned_front = pruned_db.pareto_outcomes();
    let full_clock: f64 = db.outcomes.iter().map(|o| o.train_seconds).sum();
    let pruned_clock: f64 = pruned_db.outcomes.iter().map(|o| o.train_seconds).sum();
    let best = |front: &[&hydronas_nas::TrialOutcome]| {
        front
            .iter()
            .map(|o| o.accuracy)
            .fold(f64::NEG_INFINITY, f64::max)
    };
    println!(
        "full grid: {} trials, front {} rows, best {:.2}%, {:.1} GPU-hours",
        db.outcomes.len(),
        full_front.len(),
        best(&full_front),
        full_clock / 3600.0
    );
    println!(
        "padding=1: {} trials, front {} rows, best {:.2}%, {:.1} GPU-hours ({:.0}% saved)",
        pruned_db.outcomes.len(),
        pruned_front.len(),
        best(&pruned_front),
        pruned_clock / 3600.0,
        100.0 * (1.0 - pruned_clock / full_clock)
    );
}

/// How stable is the front cardinality across master seeds?
fn ablation_seed_sensitivity() {
    let grid = full_grid(&SearchSpace::paper());
    for seed in [1u64, 2, 3, 4, 5, 7, 9] {
        let config = SchedulerConfig {
            seed,
            ..Default::default()
        };
        let db = hydronas_nas::run_experiment(&grid, &SurrogateEvaluator::default(), &config);
        let front = db.pareto_outcomes();
        let all_f32 = front.iter().all(|o| o.spec.arch.initial_features == 32);
        println!(
            "seed {seed}: front {} rows, all minimum-width: {all_f32}",
            front.len()
        );
    }
}

/// Best accuracy found per budget, for random vs evolution, vs the grid
/// optimum.
fn ablation_strategies() {
    let space = SearchSpace::paper();
    let combo = InputCombo {
        channels: 7,
        batch_size: 16,
    };
    let evaluator = SurrogateEvaluator::default();
    let grid_best = hydronas_bench::run_combo(7, 16)
        .valid()
        .iter()
        .map(|o| o.accuracy)
        .fold(f64::NEG_INFINITY, f64::max);
    println!("grid optimum (288 trials): {grid_best:.2}%");
    for budget in [24usize, 48, 96] {
        let rnd = random_search(&space, combo, &evaluator, budget, 3);
        let evo = regularized_evolution(
            &space,
            combo,
            &evaluator,
            &EvolutionConfig {
                population: 12.min(budget / 2),
                sample_size: 4,
                budget,
            },
            3,
        );
        println!(
            "budget {budget:>3}: random {:.2}% | evolution {:.2}%",
            rnd.best_accuracy(),
            evo.best_accuracy()
        );
    }
}
