//! The flagship reproduction: runs the full 1,728-trial hardware-aware
//! NAS experiment and regenerates every table and figure of the paper,
//! writing the bundle to `repro_out/`.
//!
//! Run with: `cargo run --release --example reproduce_paper`

use hydronas::prelude::*;
use std::path::Path;

fn main() {
    println!("running the full grid (6 input combinations x 288 configurations)...");
    let artifacts =
        reproduce(Sweep::builder(), None).expect("a sweep without a journal does no I/O");

    println!("\n=== Table 1: Data Sources and Study Regions ===");
    print!("{}", artifacts.table1);

    println!("\n=== Table 2: Hardware Performance of nn-Meter-style Predictors ===");
    print!("{}", artifacts.table2);

    println!("\n=== Table 3: The objective value ranges ===");
    print!("{}", artifacts.table3);

    println!("\n=== Table 4: Pareto optimal solutions (strict 3-objective front) ===");
    print!("{}", artifacts.table4);

    println!("\n=== Table 4 (pool-grouped protocol, as published) ===");
    print!("{}", artifacts.table4_pool_grouped);

    println!("\n=== Table 5: Six ResNet-18 benchmark variants ===");
    print!("{}", artifacts.table5);

    println!("\n=== Figure 2: Search space ===");
    print!("{}", artifacts.figure2);

    println!("\n=== Section 5 discussion: simulated NNI wall-clock ===");
    print!("{}", artifacts.discussion);

    let out = Path::new("repro_out");
    let written = artifacts.write_to(out).expect("write artifact bundle");
    println!("\nwrote {} artifacts to {}/:", written.len(), out.display());
    for path in &written {
        println!("  {}", path.display());
    }
    println!(
        "\nfigure 3 scatter rows: {} (open repro_out/figure3_scatter.csv)",
        artifacts.figure3_csv.lines().count() - 1
    );
    println!(
        "figure 4 radar rows: {} (open repro_out/figure4_radar.csv)",
        artifacts.figure4_csv.lines().count().saturating_sub(1)
    );
}
