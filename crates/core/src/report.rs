//! Markdown experiment report: a paper-style write-up generated straight
//! from the experiment database, so every number in the narrative is
//! traceable to the run that produced it.

use crate::pipeline::ReproArtifacts;
use hydronas_nas::clock::format_hm;
use hydronas_nas::InputCombo;

fn code_block(s: &str) -> String {
    format!("```text\n{}\n```\n", s.trim_end())
}

/// Renders the full markdown report.
pub fn markdown_report(artifacts: &ReproArtifacts) -> String {
    let db = &artifacts.db;
    let front = db.pareto_outcomes();
    let mut out = String::with_capacity(16 * 1024);

    out.push_str("# HydroNAS experiment report\n\n");
    out.push_str(&format!(
        "Hardware-aware NAS over {} scheduled trials ({} valid) across 6 input \
         combinations x 288 ResNet-18 stem configurations.\n\n",
        db.outcomes.len(),
        db.valid().len()
    ));

    out.push_str("## Dataset (Table 1)\n\n");
    out.push_str(&code_block(&artifacts.table1));

    out.push_str("\n## Latency predictor validation (Table 2)\n\n");
    out.push_str(&code_block(&artifacts.table2));

    out.push_str("\n## Objective ranges (Table 3)\n\n");
    if db.valid().is_empty() {
        // A run cancelled before any trial finished has no ranges to
        // report; keep the section so the report structure is stable.
        out.push_str("No valid outcomes: the sweep degraded before any trial finished.\n\n");
    } else {
        let ranges = db.objective_ranges();
        out.push_str(&format!(
            "Accuracy spans **{:.2}-{:.2}%**, latency **{:.2}-{:.2} ms**, memory \
             **{:.2}-{:.2} MB** over the valid outcomes.\n\n",
            ranges.accuracy_min,
            ranges.accuracy_max,
            ranges.latency_min_ms,
            ranges.latency_max_ms,
            ranges.memory_min_mb,
            ranges.memory_max_mb
        ));
    }
    out.push_str(&code_block(&artifacts.table3));

    out.push_str(&format!(
        "\n## Non-dominated solutions (Table 4)\n\n{} solutions survive the \
         3-objective front; all use the minimum feature width.\n\n",
        front.len()
    ));
    out.push_str(&code_block(&artifacts.table4));

    out.push_str("\n## ResNet-18 baselines (Table 5)\n\n");
    out.push_str(&code_block(&artifacts.table5));

    // Front-vs-baseline narrative, computed live. Prefers the paper's
    // flagship benchmark (7ch/b16) but falls back to any baseline row so
    // partial databases still render.
    let baseline_row = db.valid().into_iter().find(|o| {
        o.spec.arch == hydronas_graph::ArchConfig::baseline(7)
            && o.spec.combo.batch_size == 16
            && o.spec.kernel_size_pool == 3
            && o.spec.stride_pool == 2
    });
    let baseline_row = baseline_row.or_else(|| {
        db.valid()
            .into_iter()
            .find(|o| o.spec.arch == hydronas_graph::ArchConfig::baseline(o.spec.arch.in_channels))
    });
    if let (Some(best), Some(baseline)) = (front.first(), baseline_row) {
        out.push_str(&format!(
            "\nThe top non-dominated model reaches **{:.2}%** accuracy at \
             **{:.2} ms** and **{:.2} MB** — {:.1}x faster and {:.1}x smaller \
             than the stock ResNet-18 ({:.2}%, {:.2} ms, {:.2} MB) on the same \
             benchmark.\n",
            best.accuracy,
            best.latency_ms,
            best.memory_mb,
            baseline.latency_ms / best.latency_ms,
            baseline.memory_mb / best.memory_mb,
            baseline.accuracy,
            baseline.latency_ms,
            baseline.memory_mb
        ));
    }

    // Serving footprint of the deployable candidates: the same weights the
    // front was scored on, sized at fp32 and int8 storage — the two
    // precisions `hydronas_infer::ExecutionPlan` can compile a model into.
    out.push_str("\n## Deployment footprint (serving)\n\n");
    if front.is_empty() {
        out.push_str("No non-dominated solutions: nothing to deploy.\n");
    } else {
        out.push_str(
            "Each non-dominated model compiles into an `ExecutionPlan` \
             (conv+BN folded, weights packed) and serves through the \
             batching engine; int8 storage trades a bounded logit delta \
             for the compression below (see `BENCH_serve.json`).\n\n",
        );
        out.push_str("| model | fp32 | int8 | compression |\n|---|---|---|---|\n");
        for o in &front {
            let Ok(graph) = hydronas_graph::ModelGraph::from_arch(&o.spec.arch, 32) else {
                continue;
            };
            let fp32 = hydronas_graph::serialized_size_bytes(&graph);
            let Ok(int8) = hydronas_graph::quantized_size_bytes(&graph) else {
                continue;
            };
            out.push_str(&format!(
                "| {} ch, f{} k{} s{} | {:.2} MB | {:.2} MB | {:.1}x |\n",
                o.spec.combo.channels,
                o.spec.arch.initial_features,
                o.spec.arch.kernel_size,
                o.spec.arch.stride,
                fp32 as f64 / 1e6,
                int8 as f64 / 1e6,
                fp32 as f64 / int8 as f64
            ));
        }
    }

    out.push_str("\n## Sweep execution\n\n");
    out.push_str(&code_block(&artifacts.sweep_summary()));

    out.push_str("\n## Search wall-clock (Section 5)\n\n");
    out.push_str("| combination | simulated wall-clock |\n|---|---|\n");
    for combo in InputCombo::all() {
        let total: f64 = db
            .outcomes
            .iter()
            .filter(|o| o.spec.combo == combo)
            .map(|o| o.train_seconds)
            .sum();
        out.push_str(&format!(
            "| {} ch, batch {} | {} |\n",
            combo.channels,
            combo.batch_size,
            format_hm(total)
        ));
    }

    out.push_str("\n## Figures\n\n");
    out.push_str(&format!(
        "- Figure 3 scatter: {} rows (`figure3_scatter.csv`)\n- Figure 4 radar: \
         {} polygons (`figure4_radar.csv`)\n",
        artifacts.figure3_csv.lines().count().saturating_sub(1),
        artifacts.figure4_csv.lines().count().saturating_sub(1)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydronas_nas::space::{full_grid, SearchSpace};
    use hydronas_nas::{run_experiment, SchedulerConfig, SurrogateEvaluator};

    fn artifacts() -> ReproArtifacts {
        let trials: Vec<_> = full_grid(&SearchSpace::paper())
            .into_iter()
            .filter(|t| {
                (t.combo.channels == 7 && t.combo.batch_size == 16)
                    || t.arch == hydronas_graph::ArchConfig::baseline(t.combo.channels)
            })
            .collect();
        let db = run_experiment(
            &trials,
            &SurrogateEvaluator::default(),
            &SchedulerConfig {
                injected_failures: 0,
                ..Default::default()
            },
        );
        ReproArtifacts::render(db, 32)
    }

    #[test]
    fn report_contains_every_section() {
        let report = markdown_report(&artifacts());
        for heading in [
            "# HydroNAS experiment report",
            "## Dataset (Table 1)",
            "## Latency predictor validation (Table 2)",
            "## Objective ranges (Table 3)",
            "## Non-dominated solutions (Table 4)",
            "## ResNet-18 baselines (Table 5)",
            "## Deployment footprint (serving)",
            "## Sweep execution",
            "## Search wall-clock (Section 5)",
            "## Figures",
        ] {
            assert!(report.contains(heading), "missing {heading}");
        }
    }

    #[test]
    fn report_numbers_match_the_database() {
        let a = artifacts();
        let report = markdown_report(&a);
        let ranges = a.db.objective_ranges();
        assert!(report.contains(&format!("{:.2}", ranges.accuracy_max)));
        assert!(report.contains(&format!("{} solutions", a.db.pareto_outcomes().len())));
        // The speedup narrative exists.
        assert!(report.contains("x faster"));
    }

    #[test]
    fn deployment_footprint_sizes_every_front_model_at_both_precisions() {
        let a = artifacts();
        let report = markdown_report(&a);
        let section = report
            .split("## Deployment footprint (serving)")
            .nth(1)
            .unwrap()
            .split("\n## ")
            .next()
            .unwrap();
        let rows: Vec<&str> = section
            .lines()
            .filter(|l| l.starts_with("| ") && l.ends_with("x |"))
            .collect();
        assert_eq!(rows.len(), a.db.pareto_outcomes().len());
        // Int8 storage cuts weight payloads ~4x; whole-graph compression
        // stays in (3, 4.1] once f32 metadata is counted.
        for row in rows {
            let ratio: f64 = row
                .rsplit('|')
                .nth(1)
                .unwrap()
                .trim()
                .trim_end_matches('x')
                .parse()
                .unwrap();
            assert!((3.0..=4.1).contains(&ratio), "{row}");
        }
    }

    #[test]
    fn report_is_valid_markdown_table_wise() {
        let report = markdown_report(&artifacts());
        // Every markdown table row has matching pipe counts with its header.
        let wall_clock_rows: Vec<&str> = report
            .lines()
            .filter(|l| l.starts_with("| ") && l.contains("batch"))
            .collect();
        assert_eq!(wall_clock_rows.len(), 6, "six combination rows");
    }
}
