//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro <fig1|fig2b|fig6|fig7|fig9|fig11|table1|table2|energy|verilog|all>
//!       [--quick] [--seed N]
//! ```
//!
//! `energy` and `verilog` are extensions beyond the paper: the
//! energy/lifetime accounting tables and structural Verilog dumps of
//! the three WDE designs.
//!
//! `--quick` samples every 16th memory word (unbiased histogram
//! subsample) for fast smoke runs; the default simulates every cell.
//!
//! The Fig. 9 / Fig. 11 panels run their scenarios in parallel; for
//! resumable sweeps, stored results and the sensitivity grids, use the
//! `dnnlife` CLI
//! (`cargo run --release -p dnnlife-campaign --bin dnnlife -- --help`).

use dnnlife_bench::{fig11_report, fig9_report, HarnessOptions};
use dnnlife_core::analysis::bit_distribution_report;
use dnnlife_core::experiment::NetworkKind;
use dnnlife_core::report::{fig1a_dnn_sizes, fig1b_access_energy, render_bit_distribution};
use dnnlife_core::DutyCycleModel;
use dnnlife_sram::snm::{ButterflySnmModel, CalibratedSnmModel, SnmModel};
use dnnlife_synth::library::TechLibrary;
use dnnlife_synth::{characterize, modules};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = None;
    let mut opts = HarnessOptions::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => {
                opts.stride = HarnessOptions::quick().stride;
            }
            "--seed" => match iter.next().map(|value| value.parse()) {
                Some(Ok(seed)) => opts.seed = seed,
                _ => usage_error("--seed needs an integer value"),
            },
            other if command.is_none() => command = Some(other.to_string()),
            other => usage_error(&format!("unexpected argument: {other}")),
        }
    }
    let command = command.unwrap_or_else(|| usage_error("no command given"));

    match command.as_str() {
        "fig1" => fig1(),
        "fig2b" => fig2b(),
        "fig6" => fig6(&opts),
        "fig7" => fig7(),
        "fig9" => print!("{}", fig9_report(&opts)),
        "fig11" => print!("{}", fig11_report(&opts)),
        "table1" => table1(),
        "table2" => table2(),
        "energy" => energy(),
        "verilog" => verilog(),
        "all" => {
            fig1();
            fig2b();
            fig6(&opts);
            fig7();
            table1();
            table2();
            print!("{}", fig9_report(&opts));
            print!("{}", fig11_report(&opts));
            energy();
        }
        other => usage_error(&format!("unknown command: {other}")),
    }
}

/// Prints `message` and the usage line to stderr and exits 2.
fn usage_error(message: &str) -> ! {
    eprintln!(
        "repro: {message}\n\
         usage: repro <fig1|fig2b|fig6|fig7|fig9|fig11|table1|table2|energy|verilog|all> \
         [--quick] [--seed N]"
    );
    std::process::exit(2);
}

/// Fig. 1: motivational DNN sizes and access energies.
fn fig1() {
    println!("=== Fig. 1a: DNN size vs ImageNet accuracy (data: Sze et al. 2017) ===");
    println!(
        "{:<12} {:>9} {:>8} {:>8}",
        "network", "size[MB]", "top-1%", "top-5%"
    );
    for row in fig1a_dnn_sizes() {
        println!(
            "{:<12} {:>9.0} {:>8.1} {:>8.1}",
            row.name, row.size_mb, row.top1_pct, row.top5_pct
        );
    }
    println!("\n=== Fig. 1b: access energy per 32-bit word ===");
    for (name, pj) in fig1b_access_energy() {
        println!("{name:<20} {pj:>8.0} pJ");
    }
    println!();
}

/// Fig. 2b: SNM degradation after 7 years vs duty cycle.
fn fig2b() {
    println!("=== Fig. 2b: SNM degradation after 7 years vs duty cycle ===");
    let calibrated = CalibratedSnmModel::paper();
    let butterfly = ButterflySnmModel::default_65nm();
    println!(
        "{:>12} {:>18} {:>18}",
        "%time zero", "calibrated[%]", "butterfly[%]"
    );
    for step in 0..=20 {
        let duty_one = step as f64 / 20.0;
        let pct_zero = (1.0 - duty_one) * 100.0;
        println!(
            "{:>12.0} {:>18.2} {:>18.2}",
            pct_zero,
            calibrated.degradation_percent(duty_one, 7.0),
            butterfly.degradation_percent(duty_one, 7.0)
        );
    }
    println!();
}

/// Fig. 6: weight-bit distributions per format and network.
fn fig6(opts: &HarnessOptions) {
    for network in [NetworkKind::Alexnet, NetworkKind::Vgg16] {
        println!(
            "=== Fig. 6: bit distributions, {} ===",
            network.display_name()
        );
        for (format, dist) in bit_distribution_report(network, opts.seed, 1_000_000) {
            println!(
                "-- {format} (mean P(1) = {:.3}) --",
                dist.mean_probability()
            );
            print!("{}", render_bit_distribution(&dist));
        }
        println!();
    }
}

/// Fig. 7: Eq. 1 tail probabilities for K = 20 and K = 160.
fn fig7() {
    println!("=== Fig. 7: P(duty <= b/K or >= 1-b/K), rho = 0.5 ===");
    for k in [20u64, 160] {
        println!("-- K = {k} --");
        let model = DutyCycleModel::new(k, 0.5);
        println!("{:>8} {:>14}", "b/K", "probability");
        for (frac, p) in model.series().iter().step_by((k / 20).max(1) as usize) {
            println!("{frac:>8.3} {p:>14.6e}");
        }
    }
    println!();
}

/// Table I: hardware configurations.
fn table1() {
    println!("=== Table I: hardware configurations ===");
    println!("{:<26} {:>16} {:>16}", "", "Baseline", "TPU-like NPU");
    let base = dnnlife_accel::AcceleratorConfig::baseline();
    let npu = dnnlife_accel::AcceleratorConfig::tpu_like();
    println!(
        "{:<26} {:>16} {:>16}",
        "Weight memory",
        format!("{} KB", base.weight_memory_bytes / 1024),
        format!("{} KB", npu.weight_memory_bytes / 1024)
    );
    println!(
        "{:<26} {:>16} {:>16}",
        "Activation memory",
        format!("{} MB", base.activation_memory_bytes / 1024 / 1024),
        format!("{} MB", npu.activation_memory_bytes / 1024 / 1024)
    );
    println!(
        "{:<26} {:>16} {:>16}",
        "PE array",
        format!(
            "{} PEs x {} mult",
            base.parallel_filters, base.multipliers_per_pe
        ),
        format!("{}x{} PEs", npu.parallel_filters, npu.parallel_filters)
    );
    println!(
        "{:<26} {:>16} {:>16}",
        "Networks", "AlexNet", "AlexNet/VGG/Custom"
    );
    println!();
}

/// Table II: WDE characterisation.
fn table2() {
    println!("=== Table II: Write Data Encoder characterisation (65nm-like library) ===");
    let lib = TechLibrary::tsmc65_like();
    println!(
        "{:<30} {:>10} {:>12} {:>12}",
        "design", "delay[ps]", "power[nW]", "area[cells]"
    );
    for row in dnnlife_synth::report::table2(&lib) {
        println!("{row}");
    }
    let ablation = characterize(&modules::barrel_wde_log_stage(64), &lib);
    println!("{ablation}   (log-stage ablation, not in paper)");
    println!();
}

/// Extension: energy overhead and lifetime payoff tables.
fn energy() {
    use dnnlife_core::energy::energy_overhead;
    use dnnlife_sram::lifetime::{lifetime_improvement, lifetime_to_threshold, ReadFailureModel};

    println!("=== Extension: energy overhead vs 5 pJ/32-bit SRAM access ===");
    let lib = TechLibrary::tsmc65_like();
    for netlist in [
        modules::inversion_wde(64),
        modules::dnnlife_wde(64, 4),
        modules::barrel_wde_full_mux(64),
    ] {
        let row = characterize(&netlist, &lib);
        let o = energy_overhead(&row, lib.clock_ghz, 64, 5.0);
        println!(
            "{:<26} {:>8.1} fJ/word  {:>6.2}% of access energy",
            o.design, o.wde_energy_per_word_fj, o.overhead_percent
        );
    }

    println!("\n=== Extension: lifetime to a 15% SNM budget ===");
    let snm = CalibratedSnmModel::paper();
    for (label, duty) in [("duty 1.0", 1.0), ("duty 0.8", 0.8), ("duty 0.5", 0.5)] {
        println!(
            "{label:<10} {:>8.1} years",
            lifetime_to_threshold(&snm, duty, 15.0, 1000.0)
        );
    }
    println!(
        "balancing gain (duty 1.0 -> 0.5): {:.0}x",
        lifetime_improvement(&snm, 1.0, 0.5, 15.0)
    );
    let failures = ReadFailureModel::default_65nm();
    println!(
        "read-failure likelihood, worst vs balanced duty at 7y: {:.0}x",
        failures.failure_ratio(26.12, 10.82)
    );
    println!();
}

/// Extension: structural Verilog for the three Table II designs.
fn verilog() {
    use dnnlife_synth::verilog::to_verilog;
    for netlist in [
        modules::inversion_wde(64),
        modules::dnnlife_wde(64, 4),
        modules::barrel_wde_log_stage(64),
    ] {
        println!("// ------- {} -------", netlist.name());
        print!("{}", to_verilog(&netlist));
        println!();
    }
}
