//! Memory-plan fill throughput: `BlockSource::fill` over every 64th
//! word of every block, for AlexNet on the baseline's flat weight
//! buffer (fp32, int8 symmetric, int8 asymmetric) and for all four
//! VGG16 slots of the NPU weight FIFO (the 8-bit formats; the FIFO
//! stores no fp32). The fill is what both duty simulators spend their
//! word time in; plan build (quantizer calibration and the 8-bit
//! draw→code step tables) is timed alongside.
//!
//! Besides the Criterion group, the bench re-times each case directly
//! (best of three passes) and writes the measurements to
//! `BENCH_plan_fill.json` (override the path with the `BENCH_JSON_PATH`
//! env var), uploaded by CI with the other bench artifacts.

use criterion::{criterion_group, Criterion};
use dnnlife_accel::{AcceleratorConfig, BlockSource, FifoSlotMemory, FlatWeightMemory};
use dnnlife_nn::NetworkSpec;
use dnnlife_quant::NumberFormat;

/// Every `WORD_STRIDE`-th word of each block is filled.
const WORD_STRIDE: usize = 64;
/// Master seed of the generated weights.
const SEED: u64 = 42;

/// The memory plans the bench fills.
#[derive(Clone, Copy)]
enum Plan {
    /// AlexNet on the baseline's flat 512 KB weight buffer.
    FlatAlexnet,
    /// VGG16 on the four slots of the NPU weight FIFO.
    FifoVgg16,
}

/// One benchmark case: a plan and a format.
#[derive(Clone, Copy)]
struct Case {
    plan: Plan,
    format: NumberFormat,
}

const CASES: [Case; 5] = [
    Case {
        plan: Plan::FlatAlexnet,
        format: NumberFormat::Fp32,
    },
    Case {
        plan: Plan::FlatAlexnet,
        format: NumberFormat::Int8Symmetric,
    },
    Case {
        plan: Plan::FlatAlexnet,
        format: NumberFormat::Int8Asymmetric,
    },
    Case {
        plan: Plan::FifoVgg16,
        format: NumberFormat::Int8Symmetric,
    },
    Case {
        plan: Plan::FifoVgg16,
        format: NumberFormat::Int8Asymmetric,
    },
];

impl Case {
    /// The memory units of the case: one flat memory or four FIFO slots.
    fn build(self) -> Vec<Box<dyn BlockSource>> {
        match self.plan {
            Plan::FlatAlexnet => {
                let config = AcceleratorConfig::baseline();
                let spec = NetworkSpec::alexnet();
                vec![Box::new(FlatWeightMemory::new(
                    &config,
                    &spec,
                    self.format,
                    SEED,
                ))]
            }
            Plan::FifoVgg16 => FifoSlotMemory::all_slots(&NetworkSpec::vgg16(), self.format, SEED)
                .into_iter()
                .map(|slot| Box::new(slot) as Box<dyn BlockSource>)
                .collect(),
        }
    }

    fn name(self) -> String {
        let plan = match self.plan {
            Plan::FlatAlexnet => "flat/alexnet",
            Plan::FifoVgg16 => "fifo/vgg16",
        };
        let format = match self.format {
            NumberFormat::Fp32 => "fp32",
            NumberFormat::Int8Symmetric => "int8-sym",
            NumberFormat::Int8Asymmetric => "int8-asym",
        };
        format!("{plan}/{format}")
    }
}

/// Fills the strided word list of every block of every unit; returns
/// the word count and an XOR checksum so the work is not optimized out.
fn fill_all(units: &[Box<dyn BlockSource>]) -> (u64, u64) {
    let (mut words, mut check) = (0u64, 0u64);
    for unit in units {
        let list: Vec<usize> = (0..unit.geometry().words).step_by(WORD_STRIDE).collect();
        let mut out = vec![0u64; list.len()];
        for block in 0..unit.block_count() {
            unit.fill(block, &list, &mut out);
            check = out.iter().fold(check.rotate_left(1), |h, &w| h ^ w);
            words += list.len() as u64;
        }
    }
    (words, check)
}

fn bench_plan_fill(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_fill");
    group.sample_size(10);
    for case in CASES {
        let units = case.build();
        group.bench_function(case.name(), |b| {
            b.iter(|| fill_all(&units));
        });
    }
    group.finish();
}

/// Best-of-`passes` wall-clock seconds (one warm pass first).
fn best_of<T>(mut f: impl FnMut() -> T, passes: usize) -> f64 {
    std::hint::black_box(f());
    (0..passes)
        .map(|_| {
            let started = std::time::Instant::now();
            std::hint::black_box(f());
            started.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn emit_json() {
    let results: Vec<String> = CASES
        .iter()
        .map(|&case| {
            let build = best_of(|| case.build(), 3);
            let units = case.build();
            let (words, _) = fill_all(&units);
            let fill = best_of(|| fill_all(&units), 3);
            format!(
                "{{\"case\": \"{}\", \"units\": {}, \"words\": {words}, \
                 \"build_ms\": {:.3}, \"fill_ns_per_word\": {:.2}, \"mwords_per_s\": {:.2}}}",
                case.name(),
                units.len(),
                build * 1e3,
                fill * 1e9 / words as f64,
                words as f64 / fill / 1e6,
            )
        })
        .collect();
    let cores = dnnlife_nn::exec::thread_count(0);
    let json = format!(
        "{{\n  \"bench\": \"plan_fill\",\n  \"word_stride\": {WORD_STRIDE},\n  \"seed\": {SEED},\n  \
         \"host_cores\": {cores},\n  \"results\": [\n    {}\n  ]\n}}\n",
        results.join(",\n    ")
    );
    let path =
        std::env::var("BENCH_JSON_PATH").unwrap_or_else(|_| "BENCH_plan_fill.json".to_string());
    std::fs::write(&path, &json).expect("write bench json");
    println!("wrote {path}");
    print!("{json}");
}

criterion_group!(benches, bench_plan_fill);

fn main() {
    benches();
    emit_json();
}
