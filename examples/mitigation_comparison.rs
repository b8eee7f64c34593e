//! Fig. 9 style comparison: all six mitigation policies on the baseline
//! accelerator running AlexNet, for each weight format.
//!
//! ```text
//! cargo run --release --example mitigation_comparison [stride]
//! ```
//!
//! The optional stride (default 8) simulates every n-th memory word —
//! an unbiased subsample; pass 1 to simulate all 4Mi cells.

use dnn_life::core::experiment::{fig9_policies, run_experiment_with, ExperimentSpec, RunOptions};
use dnn_life::quant::NumberFormat;

fn main() {
    let stride: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("stride must be an integer"))
        .unwrap_or(8);

    for format in NumberFormat::all() {
        println!("=== Baseline accelerator / AlexNet / {format} ===");
        println!(
            "{:<46} {:>10} {:>10} {:>12}",
            "policy", "mean[%]", "worst[%]", "cells@best"
        );
        for policy in fig9_policies() {
            let mut spec = ExperimentSpec::fig9(format, policy, 42);
            spec.sample_stride = stride;
            let result =
                run_experiment_with(&spec, &RunOptions::default()).expect("no cancel token");
            println!(
                "{:<46} {:>10.2} {:>10.2} {:>11.1}%",
                policy.display_name(),
                result.snm.mean(),
                result.snm.max(),
                result.percent_near_optimal(0.5)
            );
        }
        println!();
    }
    println!(
        "Reading the table: 'Without Aging Mitigation' tracks the raw bit\n\
         statistics (worst for fp32 exponents); the barrel shifter cannot fix\n\
         asymmetric formats; DNN-Life with bias balancing pins every cell near\n\
         the 10.82% optimum for every format — the paper's Fig. 9 result."
    );
}
