//! The headline reproduction test: run the full 1,728-trial experiment
//! and check every table/figure against the paper's reported structure.

use hydronas::prelude::*;

/// The full experiment is deterministic, so run it once for all checks.
fn artifacts() -> &'static ReproArtifacts {
    use std::sync::OnceLock;
    static CELL: OnceLock<ReproArtifacts> = OnceLock::new();
    CELL.get_or_init(|| reproduce(Sweep::builder(), None).expect("no journal, no I/O"))
}

#[test]
fn trial_census_matches_paper() {
    let a = artifacts();
    assert_eq!(a.db.outcomes.len(), 1728, "6 combos x 288 configurations");
    assert_eq!(a.db.valid().len(), 1717, "the paper's valid outcome count");
}

#[test]
fn table3_ranges_match_paper_bands() {
    // Paper Table 3: accuracy 76.19-96.13 %, latency 8.13-249.56 ms,
    // memory 11.18-44.69 MB. Our simulators match the shape, not digits.
    let r = artifacts().db.objective_ranges();
    assert!(
        (72.0..80.0).contains(&r.accuracy_min),
        "acc min {}",
        r.accuracy_min
    );
    assert!(
        (94.0..98.5).contains(&r.accuracy_max),
        "acc max {}",
        r.accuracy_max
    );
    assert!(
        (6.0..14.0).contains(&r.latency_min_ms),
        "lat min {}",
        r.latency_min_ms
    );
    assert!(
        (150.0..320.0).contains(&r.latency_max_ms),
        "lat max {}",
        r.latency_max_ms
    );
    assert!(
        (11.0..11.5).contains(&r.memory_min_mb),
        "mem min {}",
        r.memory_min_mb
    );
    assert!(
        (44.4..45.0).contains(&r.memory_max_mb),
        "mem max {}",
        r.memory_max_mb
    );
}

#[test]
fn table4_front_structure_matches_paper() {
    // Paper Table 4: five non-dominated solutions, all 11.18 MB
    // (initial_output_feature 32), kernel 3 dominant, padding <= 3,
    // no-pool rows at the low latency level and pool rows at ~2x latency
    // with much larger lat_std.
    let front = artifacts().db.pareto_outcomes();
    assert_eq!(front.len(), 5, "five non-dominated solutions");
    for o in &front {
        assert_eq!(o.spec.arch.initial_features, 32, "all rows minimum-width");
        assert!(o.memory_mb < 11.5, "all rows at the minimum memory level");
        assert_eq!(o.spec.arch.stride, 2, "larger stride everywhere (Fig. 4)");
    }
    let (pool, no_pool): (
        Vec<&hydronas_nas::TrialOutcome>,
        Vec<&hydronas_nas::TrialOutcome>,
    ) = front
        .iter()
        .copied()
        .partition(|o| o.spec.arch.pool.is_some());
    assert!(
        !pool.is_empty() && !no_pool.is_empty(),
        "both pool families appear"
    );
    let pool_lat = pool.iter().map(|o| o.latency_ms).sum::<f64>() / pool.len() as f64;
    let no_pool_lat = no_pool.iter().map(|o| o.latency_ms).sum::<f64>() / no_pool.len() as f64;
    assert!(
        pool_lat > 1.4 * no_pool_lat,
        "pool rows ~2x latency: {pool_lat:.1} vs {no_pool_lat:.1}"
    );
    let pool_std = pool.iter().map(|o| o.latency_std_ms).sum::<f64>() / pool.len() as f64;
    let no_pool_std = no_pool.iter().map(|o| o.latency_std_ms).sum::<f64>() / no_pool.len() as f64;
    assert!(pool_std > 2.0 * no_pool_std, "pool rows inflate lat_std");
    // Accuracy stays comparable to the baselines (93.97-96.13 in paper).
    for o in &front {
        assert!(
            (93.0..98.0).contains(&o.accuracy),
            "front acc {}",
            o.accuracy
        );
    }
}

#[test]
fn table5_reproduces_baseline_anchors() {
    // The six benchmark rows are anchored at the paper's Table 5 values
    // (fold noise moves the mean by ~0.25 points).
    let a = artifacts();
    let anchors = [
        (5, 8, 92.90),
        (5, 16, 93.60),
        (5, 32, 89.67),
        (7, 8, 94.76),
        (7, 16, 95.37),
        (7, 32, 94.51),
    ];
    for (channels, batch, want) in anchors {
        let row =
            a.db.valid()
                .into_iter()
                .find(|o| {
                    o.spec.arch == ArchConfig::baseline(channels)
                        && o.spec.combo.batch_size == batch
                        && o.spec.kernel_size_pool == 3
                        && o.spec.stride_pool == 2
                })
                .unwrap_or_else(|| panic!("baseline {channels}ch b{batch} missing"));
        assert!(
            (row.accuracy - want).abs() < 1.0,
            "{channels}ch b{batch}: {} vs paper {want}",
            row.accuracy
        );
        // Latency ~32 ms, memory ~44.7 MB like the paper.
        assert!(
            (25.0..40.0).contains(&row.latency_ms),
            "lat {}",
            row.latency_ms
        );
        assert!(
            (44.4..45.0).contains(&row.memory_mb),
            "mem {}",
            row.memory_mb
        );
    }
}

#[test]
fn non_dominated_models_beat_baseline_everywhere_but_accuracy() {
    // The paper's key claim: the front models have lower latency, more
    // consistent latency, and less memory than stock ResNet-18, at
    // comparable-or-better accuracy.
    let a = artifacts();
    let front = a.db.pareto_outcomes();
    for (channels, batch) in [(5, 8), (5, 16), (5, 32), (7, 8), (7, 16), (7, 32)] {
        let base =
            a.db.valid()
                .into_iter()
                .find(|o| {
                    o.spec.arch == ArchConfig::baseline(channels)
                        && o.spec.combo.batch_size == batch
                        && o.spec.kernel_size_pool == 3
                        && o.spec.stride_pool == 2
                })
                .unwrap();
        for o in &front {
            assert!(
                o.latency_ms < base.latency_ms,
                "front latency beats baseline"
            );
            assert!(
                o.latency_std_ms < base.latency_std_ms,
                "front lat_std beats baseline"
            );
            assert!(o.memory_mb < base.memory_mb, "front memory beats baseline");
        }
        // Best front accuracy >= this baseline's accuracy.
        let best = front
            .iter()
            .map(|o| o.accuracy)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(best + 0.5 >= base.accuracy, "front accuracy is on par");
    }
}

#[test]
fn table2_reproduction_in_rendered_artifacts() {
    let a = artifacts();
    assert!(a.table2.contains("cortexA76cpu"));
    assert!(a.table2.contains("myriadvpu"));
    // The myriad row reports a clearly lower accuracy (paper: 83.4 vs 99).
    let myriad_line = a.table2.lines().find(|l| l.contains("myriadvpu")).unwrap();
    let pct: f64 = myriad_line
        .split_whitespace()
        .last()
        .unwrap()
        .trim_end_matches('%')
        .parse()
        .unwrap();
    assert!((75.0..92.0).contains(&pct), "myriad {pct}");
}

#[test]
fn discussion_wall_clock_matches_section5() {
    // 5ch/b8 ~ 9h20m, 7ch/b8 ~ 29h03m, ratio ~3.1.
    let a = artifacts();
    let hours = |needle: &str| -> f64 {
        let line = a.discussion.lines().find(|l| l.contains(needle)).unwrap();
        let hm = line.split(": ").nth(1).unwrap();
        let h: f64 = hm.split('h').next().unwrap().trim().parse().unwrap();
        let m: f64 = hm
            .split('h')
            .nth(1)
            .unwrap()
            .trim()
            .trim_end_matches('m')
            .parse()
            .unwrap();
        h + m / 60.0
    };
    let t5 = hours("5 channels, batch  8");
    let t7 = hours("7 channels, batch  8");
    assert!((7.5..12.0).contains(&t5), "5ch/b8 {t5:.2} h");
    assert!((23.0..35.0).contains(&t7), "7ch/b8 {t7:.2} h");
    assert!((2.6..3.6).contains(&(t7 / t5)), "ratio {:.2}", t7 / t5);
}

#[test]
fn figure_exports_cover_the_population() {
    let a = artifacts();
    assert_eq!(a.figure3_csv.lines().count(), 1717 + 1);
    assert_eq!(
        a.figure4_csv.lines().count(),
        a.db.pareto_outcomes().len() + 1
    );
    assert!(a.figure1.contains("stem.conv"));
    assert!(a.figure2.contains("288 configurations"));
}
