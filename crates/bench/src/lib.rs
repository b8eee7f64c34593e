//! Reproduction harness library: shared helpers for the `repro` binary
//! and the Criterion benches.
//!
//! The Fig. 9 / Fig. 11 panels run their scenarios as
//! [`dnnlife_nn::exec::run_jobs`] jobs on every core — same scenarios,
//! same rendering as a serial loop.

use dnnlife_core::experiment::{
    fig11_policies, fig9_policies, run_experiment_with, ExperimentSpec, NetworkKind, RunOptions,
};
use dnnlife_core::report::render_experiment;
use dnnlife_nn::exec::{self, run_jobs};
use dnnlife_quant::NumberFormat;

/// Run-time options for the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HarnessOptions {
    /// Master seed.
    pub seed: u64,
    /// Word sampling stride (1 = every cell; `--quick` raises it).
    pub stride: usize,
    /// Inferences for duty estimation (the paper uses 100).
    pub inferences: u64,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        Self {
            seed: 42,
            stride: 1,
            inferences: 100,
        }
    }
}

impl HarnessOptions {
    /// Reduced-cost settings for smoke runs and benches.
    pub fn quick() -> Self {
        Self {
            seed: 42,
            stride: 16,
            inferences: 100,
        }
    }

    fn apply(self, mut spec: ExperimentSpec) -> ExperimentSpec {
        spec.sample_stride = self.stride;
        spec.inferences = self.inferences;
        spec
    }
}

/// Runs one panel's scenarios on every core and appends their
/// rendered results to `out`, in scenario order.
fn render_panel(out: &mut String, specs: Vec<ExperimentSpec>) {
    let results = run_jobs(specs, 0, None, |spec| {
        let opts = RunOptions {
            threads: exec::budget(),
            ..RunOptions::default()
        };
        run_experiment_with(&spec, &opts)
    })
    .expect("no cancel token");
    for result in results {
        out.push_str(&render_experiment(&result));
        out.push('\n');
    }
}

/// Runs and renders the full Fig. 9 grid (3 formats × 6 policies) into
/// a report string, running each panel's scenarios in parallel. Every
/// panel uses `opts.seed` directly (paper semantics: all policies of a
/// panel see the same weights), unlike `CampaignGrid::fig9` which
/// derives per-scenario seeds for store stability.
pub fn fig9_report(opts: &HarnessOptions) -> String {
    let mut out = String::new();
    for format in NumberFormat::all() {
        out.push_str(&format!(
            "=== Baseline accelerator, AlexNet, {format} ===\n"
        ));
        let specs = fig9_policies()
            .into_iter()
            .map(|policy| opts.apply(ExperimentSpec::fig9(format, policy, opts.seed)))
            .collect();
        render_panel(&mut out, specs);
    }
    out
}

/// Runs and renders the full Fig. 11 grid (3 networks × 4 policies),
/// each panel's scenarios in parallel on one seed.
pub fn fig11_report(opts: &HarnessOptions) -> String {
    let mut out = String::new();
    for network in [
        NetworkKind::Alexnet,
        NetworkKind::Vgg16,
        NetworkKind::CustomMnist,
    ] {
        out.push_str(&format!(
            "=== TPU-like NPU, {}, 8-bit symmetric ===\n",
            network.display_name()
        ));
        let specs = fig11_policies()
            .into_iter()
            .map(|policy| opts.apply(ExperimentSpec::fig11(network, policy, opts.seed)))
            .collect();
        render_panel(&mut out, specs);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_reports_render() {
        let opts = HarnessOptions {
            seed: 1,
            stride: 512,
            inferences: 20,
        };
        let f11 = fig11_report(&opts);
        assert!(f11.contains("TPU-like NPU"));
        assert!(f11.contains("DNN-Life with Bias Balancing"));
    }

    #[test]
    fn parallel_report_matches_serial_execution() {
        // Running a panel's scenarios in parallel must not change report
        // content: compare against a direct serial run of the same specs.
        let opts = HarnessOptions {
            seed: 7,
            stride: 1024,
            inferences: 10,
        };
        let parallel = fig11_report(&opts);
        let mut serial = String::new();
        for network in [
            NetworkKind::Alexnet,
            NetworkKind::Vgg16,
            NetworkKind::CustomMnist,
        ] {
            serial.push_str(&format!(
                "=== TPU-like NPU, {}, 8-bit symmetric ===\n",
                network.display_name()
            ));
            for policy in fig11_policies() {
                let spec = opts.apply(ExperimentSpec::fig11(network, policy, opts.seed));
                let result = dnnlife_core::run_experiment_with(&spec, &Default::default());
                serial.push_str(&render_experiment(&result.expect("no cancel token")));
                serial.push('\n');
            }
        }
        assert_eq!(parallel, serial);
    }
}
