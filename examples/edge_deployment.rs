//! Edge-deployment study (extension): combine the NAS front with
//! post-training int8 quantization and pick a deployment model per
//! device budget — the follow-on engineering the paper's
//! "resource-limited devices" framing asks for.
//!
//! Run with: `cargo run --release --example edge_deployment`

use hydronas::prelude::*;
use hydronas_graph::quantized_size_bytes;
use hydronas_latency::{all_devices, predict_all_quantized, predict_quantized};
use hydronas_nas::space::full_grid;
use hydronas_nas::{nsga2, run_experiment, Nsga2Config};

fn row(name: &str, acc: f64, lat: f64, mem: f64) {
    println!("  {name:<34} {acc:>7.2}% {lat:>9.2} ms {mem:>8.2} MB");
}

fn main() {
    // 1. Run the paper's experiment; take the front and the baseline.
    let db = run_experiment(
        &full_grid(&SearchSpace::paper()),
        &SurrogateEvaluator::default(),
        &SchedulerConfig::default(),
    );
    let front = db.pareto_outcomes();
    let baseline = db
        .valid()
        .into_iter()
        .find(|o| {
            o.spec.arch == ArchConfig::baseline(7)
                && o.spec.combo.batch_size == 16
                && o.spec.kernel_size_pool == 3
                && o.spec.stride_pool == 2
        })
        .expect("baseline in grid")
        .clone();

    println!("deployment candidates (7ch/b16 benchmark):");
    row(
        "ResNet-18 fp32 (paper baseline)",
        baseline.accuracy,
        baseline.latency_ms,
        baseline.memory_mb,
    );

    // 2. Quantize the baseline: 4x memory, big latency win in the
    //    weight-bound regime — but still behind the NAS front.
    let base_graph = ModelGraph::from_arch(&baseline.spec.arch, 32).unwrap();
    let int8_lat = predict_all_quantized(&base_graph);
    let int8_mem = quantized_size_bytes(&base_graph).unwrap() as f64 / 1e6;
    row(
        "ResNet-18 int8",
        baseline.accuracy,
        int8_lat.mean_ms,
        int8_mem,
    );

    // 3. The NAS front, fp32 and int8.
    for o in &front {
        let g = ModelGraph::from_arch(&o.spec.arch, 32).unwrap();
        row(
            &format!("NAS {} fp32", o.spec.arch.key()),
            o.accuracy,
            o.latency_ms,
            o.memory_mb,
        );
        let q_lat = predict_all_quantized(&g);
        let q_mem = quantized_size_bytes(&g).unwrap() as f64 / 1e6;
        row(
            &format!("NAS {} int8", o.spec.arch.key()),
            o.accuracy,
            q_lat.mean_ms,
            q_mem,
        );
    }

    // 4. Per-device budget check for the best int8 NAS model.
    let best = front.first().expect("non-empty front");
    let g = ModelGraph::from_arch(&best.spec.arch, 32).unwrap();
    println!("\nper-device int8 latency of the top-accuracy NAS model:");
    for d in all_devices() {
        println!(
            "  {:<14} {:>7.2} ms",
            d.id.name(),
            predict_quantized(&g, &d)
        );
    }

    // 5. Direct multi-objective search (NSGA-II) reaches a comparable
    //    front with a fraction of the 1,728-trial grid.
    let result = nsga2(
        &SearchSpace::paper(),
        InputCombo {
            channels: 7,
            batch_size: 16,
        },
        &SurrogateEvaluator::default(),
        &Nsga2Config::default(),
        3,
    );
    println!(
        "\nNSGA-II: {} evaluations -> {}-point front (grid needed 1,728):",
        result.evaluations,
        result.front.len()
    );
    for ind in &result.front {
        row(
            &ind.spec.arch.key(),
            ind.objectives[0],
            ind.objectives[1],
            ind.objectives[2],
        );
    }
}
