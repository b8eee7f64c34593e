//! Fig. 11 style study on the TPU-like NPU, plus a lifetime sweep
//! showing how the SNM gap between policies grows over the years.
//!
//! ```text
//! cargo run --release --example npu_lifetime
//! ```

use dnn_life::core::experiment::{
    fig11_policies, run_experiment_with, ExperimentResult, ExperimentSpec, NetworkKind, PolicySpec,
    RunOptions,
};

fn run(spec: &ExperimentSpec) -> ExperimentResult {
    run_experiment_with(spec, &RunOptions::default()).expect("no cancel token")
}

fn main() {
    // --- Fig. 11: three networks × four policies.
    for network in [
        NetworkKind::Alexnet,
        NetworkKind::Vgg16,
        NetworkKind::CustomMnist,
    ] {
        println!(
            "=== TPU-like NPU / {} / int8 symmetric ===",
            network.display_name()
        );
        println!("{:<46} {:>10} {:>10}", "policy", "mean[%]", "worst[%]");
        for policy in fig11_policies() {
            let mut spec = ExperimentSpec::fig11(network, policy, 42);
            spec.sample_stride = 4;
            let result = run(&spec);
            println!(
                "{:<46} {:>10.2} {:>10.2}",
                policy.display_name(),
                result.snm.mean(),
                result.snm.max()
            );
        }
        println!();
    }
    println!(
        "Note the custom network: its 8 weight tiles split 2-per-FIFO-slot,\n\
         so the inversion baseline locks to an even write parity and leaves\n\
         cells unbalanced (the paper's panel 3), while DNN-Life stays optimal.\n"
    );

    // --- Lifetime sweep: mean SNM degradation over the years.
    println!("Mean SNM degradation vs lifetime (custom network):");
    println!("{:>6} {:>14} {:>14}", "years", "no-mitigation", "dnn-life");
    for years in [1.0, 2.0, 4.0, 7.0, 10.0] {
        let mut none = ExperimentSpec::fig11(NetworkKind::CustomMnist, PolicySpec::None, 42);
        none.years = years;
        none.sample_stride = 16;
        let mut dnn = ExperimentSpec::fig11(
            NetworkKind::CustomMnist,
            PolicySpec::DnnLife {
                bias: 0.7,
                bias_balancing: true,
                m_bits: 4,
            },
            42,
        );
        dnn.years = years;
        dnn.sample_stride = 16;
        println!(
            "{years:>6.1} {:>13.2}% {:>13.2}%",
            run(&none).snm.mean(),
            run(&dnn).snm.mean()
        );
    }
}
