//! One benchmark per paper artifact: the end-to-end regeneration cost
//! of every table and figure (scaled-down but structurally complete —
//! the `repro` binary runs the full-size versions).

use criterion::{criterion_group, criterion_main, Criterion};
use dnnlife_core::analysis::bit_distribution_report;
use dnnlife_core::experiment::{
    run_experiment_with, ExperimentSpec, NetworkKind, PolicySpec, RunOptions,
};
use dnnlife_core::DutyCycleModel;
use dnnlife_quant::NumberFormat;
use dnnlife_sram::snm::{CalibratedSnmModel, SnmModel};
use dnnlife_synth::library::TechLibrary;
use std::hint::black_box;

fn bench_figures(c: &mut Criterion) {
    let mut group = c.benchmark_group("paper_artifacts");
    group.sample_size(10);

    group.bench_function("fig2b_snm_curve", |b| {
        let model = CalibratedSnmModel::paper();
        b.iter(|| {
            let series: Vec<f64> = (0..=100)
                .map(|i| model.degradation_percent(i as f64 / 100.0, 7.0))
                .collect();
            black_box(series)
        });
    });

    group.bench_function("fig6_custom_mnist_all_formats", |b| {
        b.iter(|| {
            black_box(bit_distribution_report(
                NetworkKind::CustomMnist,
                42,
                20_000,
            ))
        });
    });

    group.bench_function("fig7_both_series", |b| {
        b.iter(|| {
            let a = DutyCycleModel::new(20, 0.5).series();
            let b2 = DutyCycleModel::new(160, 0.5).series();
            black_box((a, b2))
        });
    });

    group.bench_function("fig9_one_panel_strided", |b| {
        let mut spec = ExperimentSpec::fig9(
            NumberFormat::Int8Symmetric,
            PolicySpec::DnnLife {
                bias: 0.7,
                bias_balancing: true,
                m_bits: 4,
            },
            42,
        );
        spec.sample_stride = 256;
        b.iter(|| black_box(run_experiment_with(&spec, &RunOptions::default())));
    });

    group.bench_function("fig11_one_panel_custom", |b| {
        let mut spec = ExperimentSpec::fig11(NetworkKind::CustomMnist, PolicySpec::Inversion, 42);
        spec.sample_stride = 64;
        b.iter(|| black_box(run_experiment_with(&spec, &RunOptions::default())));
    });

    group.bench_function("table2_full_characterisation", |b| {
        let lib = TechLibrary::tsmc65_like();
        b.iter(|| black_box(dnnlife_synth::report::table2(&lib)));
    });
    group.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
