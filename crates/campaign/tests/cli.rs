//! The `dnnlife` argument contract: one table of
//! `(argv, exit code, stderr substring)` rows run against the real
//! binary. Each row holds exactly one error. Every subcommand and mode
//! gets an unknown flag, a missing value and a missing required flag;
//! every enumerated flag gets a bad value; numeric flags get a bad
//! number. Flags a mode does not read, repeated flags and value errors
//! are usage errors (exit 2), checked before any store is touched.

use std::path::{Path, PathBuf};
use std::process::Command;

mod util;

/// Argv tokens substituted per run: a real sweep store and its events
/// journal, a path that does not exist, the committed perf baseline,
/// and two corrupt baselines (a string p99 ceiling, a zero throughput
/// floor).
const STORE: &str = "{store}";
const EVENTS: &str = "{events}";
const MISSING: &str = "{missing}";
const BASELINE: &str = "{baseline}";
const P99_STRING: &str = "{p99-string}";
const ZERO_FLOOR: &str = "{zero-floor}";

const ROWS: &[(&[&str], i32, &str)] = &[
    // top level
    (&[], 2, "usage:"),
    (&["nosuch"], 2, "unknown command `nosuch`"),
    // sweep
    (
        &["sweep", "--grid", "fig9", "--bogus"],
        2,
        "unexpected argument `--bogus`",
    ),
    (&["sweep", "--grid"], 2, "--grid needs a value"),
    (&["sweep", "--stride", "64"], 2, "--grid is required"),
    (&["sweep", "--grid", "nosuch"], 2, "unknown grid `nosuch`"),
    (
        &["sweep", "--grid", "fig9", "--backend", "fast"],
        2,
        "unknown backend `fast`",
    ),
    (
        &["sweep", "--grid", "fig9", "--dwell", "flat"],
        2,
        "--dwell: unknown dwell",
    ),
    (
        &["sweep", "--grid", "fig9", "--ecc", "bogus"],
        2,
        "--ecc: unknown",
    ),
    (
        &["sweep", "--grid", "fig9", "--tech", "dram"],
        2,
        "--tech: unknown",
    ),
    (
        &["sweep", "--grid", "fig9", "--shards", "0"],
        2,
        "--shards:",
    ),
    (
        &["sweep", "--grid", "fig9", "--threads", "x"],
        2,
        "--threads: invalid value",
    ),
    (
        &["sweep", "--grid", "fig9", "--seed", "-1"],
        2,
        "--seed: invalid value",
    ),
    (
        &["sweep", "--grid", "fig9", "--stride", "0"],
        2,
        "--stride must be >= 1",
    ),
    (
        &["sweep", "--grid", "fig9", "--inferences", "0"],
        2,
        "--inferences must be >= 1",
    ),
    (
        &["sweep", "--grid", "fig9", "--dwell", "layer"],
        2,
        "needs --backend exact",
    ),
    (
        &["sweep", "--grid", "fig9", "--report-only"],
        2,
        "unexpected argument `--report-only`",
    ),
    // report
    (
        &["report", "--store", STORE, "--bogus"],
        2,
        "unexpected argument `--bogus`",
    ),
    (&["report", "--store"], 2, "--store needs a value"),
    (&["report", "--table", "fig9"], 2, "--store is required"),
    (
        &["report", "--store", STORE, "--table", "bogus"],
        2,
        "unknown table `bogus`",
    ),
    (&["report", "--store", MISSING], 3, "no store at"),
    // compare
    (
        &["compare", "--store-a", STORE, "--store-b", STORE, "--bogus"],
        2,
        "unexpected argument `--bogus`",
    ),
    (
        &["compare", "--store-a", STORE, "--store-b"],
        2,
        "--store-b needs a value",
    ),
    (&["compare", "--store-b", STORE], 2, "--store-a is required"),
    (&["compare", "--store-a", STORE], 2, "--store-b is required"),
    // validate
    (
        &["validate", "--grid", "fig11", "--bogus"],
        2,
        "unexpected argument `--bogus`",
    ),
    (&["validate", "--grid"], 2, "--grid needs a value"),
    (&["validate", "--stride", "64"], 2, "--grid is required"),
    (
        &["validate", "--grid", "nosuch"],
        2,
        "unknown grid `nosuch`",
    ),
    (
        &["validate", "--grid", "fig11", "--dwell", "flat"],
        2,
        "--dwell: unknown dwell",
    ),
    (
        &["validate", "--grid", "fig11", "--tech", "dram"],
        2,
        "--tech: unknown",
    ),
    (
        &["validate", "--grid", "fig11", "--shards", "x"],
        2,
        "--shards:",
    ),
    (
        &["validate", "--grid", "fig11", "--seed", "x"],
        2,
        "--seed: invalid value",
    ),
    (
        &["validate", "--grid", "fig11", "--stride", "0"],
        2,
        "--stride must be >= 1",
    ),
    (
        &["validate", "--grid", "fig11", "--backend", "exact"],
        2,
        "unexpected argument `--backend`",
    ),
    (
        &["validate", "--grid", "fig11", "--out", "x.jsonl"],
        2,
        "unexpected argument `--out`",
    ),
    // inject
    (&["inject", "--bogus"], 2, "unexpected argument `--bogus`"),
    (&["inject", "--ages"], 2, "--ages needs a value"),
    (
        &["inject", "--platform", "gpu"],
        2,
        "unknown platform `gpu`",
    ),
    (
        &["inject", "--network", "lenet"],
        2,
        "unknown network `lenet`",
    ),
    (&["inject", "--format", "fp16"], 2, "unknown format `fp16`"),
    (&["inject", "--policy", "nosuch"], 2, "matches no policy"),
    (&["inject", "--ecc", "secded:0"], 2, "--ecc: unknown"),
    (&["inject", "--tech", "dram"], 2, "--tech: unknown"),
    (&["inject", "--ages", "0,x"], 2, "--ages: invalid"),
    (&["inject", "--shards", "none"], 2, "--shards:"),
    (&["inject", "--trials", "x"], 2, "--trials: invalid value"),
    (
        &["inject", "--noise-mv", "x"],
        2,
        "--noise-mv: invalid value",
    ),
    (&["inject", "--trials", "0"], 2, "--trials must be >= 1"),
    (
        &["inject", "--eval-images", "0"],
        2,
        "--eval-images must be >= 1",
    ),
    (&["inject", "--noise-mv", "0"], 2, "--noise-mv must be > 0"),
    (
        &[
            "inject",
            "--network",
            "alexnet",
            "--platform",
            "npu",
            "--format",
            "fp32",
        ],
        2,
        "no valid cells for --network alexnet --platform npu --format fp32",
    ),
    // inject --report
    (
        &["inject", "--report", "--store", MISSING, "--bogus"],
        2,
        "unexpected argument `--bogus`",
    ),
    (
        &["inject", "--report", "--store"],
        2,
        "--store needs a value",
    ),
    (&["inject", "--report"], 2, "--store is required"),
    (
        &["inject", "--report", "--store", MISSING],
        3,
        "no store at",
    ),
    // perf
    (
        &["perf", "--events", EVENTS, "--bogus"],
        2,
        "unexpected argument `--bogus`",
    ),
    (&["perf", "--events"], 2, "--events needs a value"),
    (&["perf", "--json"], 2, "--events is required"),
    (
        &["perf", "--events", EVENTS, "--max-regression", "x"],
        2,
        "--max-regression: invalid value",
    ),
    (
        &["perf", "--events", EVENTS, "--max-regression", "0.5"],
        2,
        "--max-regression must be >= 1",
    ),
    (&["perf", "--events", MISSING], 3, "no store at"),
    // perf --diff
    (
        &["perf", "--events", EVENTS, "--diff", EVENTS, "--bogus"],
        2,
        "unexpected argument `--bogus`",
    ),
    (
        &["perf", "--events", EVENTS, "--diff"],
        2,
        "--diff needs a value",
    ),
    (&["perf", "--diff", EVENTS], 2, "--events is required"),
    (
        &[
            "perf",
            "--events",
            EVENTS,
            "--diff",
            EVENTS,
            "--threshold",
            "x",
        ],
        2,
        "--threshold: invalid value",
    ),
    (
        &[
            "perf",
            "--events",
            EVENTS,
            "--diff",
            EVENTS,
            "--threshold",
            "0.9",
        ],
        2,
        "--threshold must be >= 1",
    ),
    // trace
    (
        &["trace", "--events", EVENTS, "--bogus"],
        2,
        "unexpected argument `--bogus`",
    ),
    (&["trace", "--events"], 2, "--events needs a value"),
    (&["trace", "--json"], 2, "--events is required"),
    (&["trace", "--events", MISSING], 3, "no store at"),
];

/// Rows the parser used to get wrong: flags a mode never reads were
/// ignored, a repeated flag silently won, a numeric error did not echo
/// the value, a bad `--table` lost to the missing-store check, and a
/// corrupt perf baseline switched its gate off.
const FIX_ROWS: &[(&[&str], i32, &str)] = &[
    (
        &["perf", "--events", EVENTS, "--baseline", P99_STRING],
        2,
        "`scenario_wall_p99_ms` must be a positive number",
    ),
    (
        &["perf", "--events", EVENTS, "--baseline", ZERO_FLOOR],
        2,
        "`exact_words_per_sec` must be a positive number",
    ),
    (
        &[
            "inject",
            "--json",
            "--store",
            STORE,
            "--train-steps",
            "0",
            "--trials",
            "1",
            "--ages",
            "0",
            "--eval-images",
            "8",
        ],
        2,
        "unexpected argument `--json`",
    ),
    (
        &["inject", "--report", "--store", MISSING, "--trials", "3"],
        2,
        "unexpected argument `--trials`",
    ),
    (
        &["perf", "--events", EVENTS, "--threshold", "1.3"],
        2,
        "unexpected argument `--threshold`",
    ),
    (
        &[
            "perf",
            "--events",
            EVENTS,
            "--diff",
            EVENTS,
            "--baseline",
            BASELINE,
        ],
        2,
        "unexpected argument `--baseline`",
    ),
    (
        &[
            "sweep",
            "--grid",
            "nosuch",
            "--grid",
            "fig11",
            "--stride",
            "4096",
            "--inferences",
            "1",
        ],
        2,
        "--grid given more than once",
    ),
    (
        &["sweep", "--grid", "fig9", "--threads", "abc"],
        2,
        "--threads: invalid value `abc`",
    ),
    (
        &["report", "--store", MISSING, "--table", "bogus"],
        2,
        "unknown table `bogus`",
    ),
];

/// A tiny fig11 sweep with its events journal, made once through the
/// CLI so every row reads real files.
fn fixture(dir: &Path) -> (PathBuf, PathBuf) {
    let store = dir.join("fig11.jsonl");
    let output = Command::new(env!("CARGO_BIN_EXE_dnnlife"))
        .args(["sweep", "--grid", "fig11", "--stride", "4096"])
        .args([
            "--inferences",
            "2",
            "--threads",
            "2",
            "--telemetry",
            "--out",
        ])
        .arg(&store)
        .current_dir(dir)
        .output()
        .expect("run dnnlife sweep");
    assert!(
        output.status.success(),
        "fixture sweep failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    (store, dir.join("fig11.events.jsonl"))
}

fn check(rows: &[(&[&str], i32, &str)], tag: &str) {
    let dir = util::scratch_dir(tag);
    let (store, events) = fixture(&dir);
    let baseline = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ci/perf-baseline.json");
    let missing = dir.join("missing.jsonl");
    let p99_string = dir.join("p99-string.json");
    let zero_floor = dir.join("zero-floor.json");
    std::fs::write(
        &p99_string,
        r#"{"exact_words_per_sec": 8700000, "scenario_wall_p99_ms": "380"}"#,
    )
    .expect("write baseline");
    std::fs::write(
        &zero_floor,
        r#"{"exact_words_per_sec": 0, "scenario_wall_p99_ms": 380}"#,
    )
    .expect("write baseline");
    let mut failures = Vec::new();
    for &(argv, code, needle) in rows {
        let args: Vec<&Path> = argv
            .iter()
            .map(|&arg| match arg {
                STORE => store.as_path(),
                EVENTS => events.as_path(),
                MISSING => missing.as_path(),
                BASELINE => baseline.as_path(),
                P99_STRING => p99_string.as_path(),
                ZERO_FLOOR => zero_floor.as_path(),
                other => Path::new(other),
            })
            .collect();
        let output = Command::new(env!("CARGO_BIN_EXE_dnnlife"))
            .args(&args)
            .current_dir(&dir)
            .output()
            .expect("spawn dnnlife");
        let stderr = String::from_utf8_lossy(&output.stderr);
        if output.status.code() != Some(code) || !stderr.contains(needle) {
            failures.push(format!(
                "dnnlife {argv:?}: expected exit {code} with `{needle}`, got {:?}: {stderr}",
                output.status.code()
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn every_usage_error_exits_with_its_code_and_names_the_problem() {
    check(ROWS, "cli-contract");
}

#[test]
fn flags_a_mode_does_not_read_and_bad_values_are_usage_errors() {
    check(FIX_ROWS, "cli-fixes");
}

#[test]
fn an_unloadable_mnist_dir_is_a_usage_error_before_any_store_is_opened() {
    let dir = util::scratch_dir("cli-mnist-dir");
    let empty = dir.join("no-idx-files");
    std::fs::create_dir_all(&empty).expect("create empty dataset dir");
    let store = dir.join("x.jsonl");
    let output = Command::new(env!("CARGO_BIN_EXE_dnnlife"))
        .args([
            "inject",
            "--trials",
            "1",
            "--ages",
            "0",
            "--eval-images",
            "10",
        ])
        .args(["--train-steps", "2", "--policy", "without", "--out"])
        .arg(&store)
        .env("DNNLIFE_MNIST_DIR", &empty)
        .current_dir(&dir)
        .output()
        .expect("spawn dnnlife");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("DNNLIFE_MNIST_DIR"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    for left in [store.clone(), dir.join("x.jsonl.lock")] {
        assert!(!left.exists(), "{} left behind", left.display());
    }
}

/// `MAX_INFERENCES` in the binary: the largest `--inferences` value.
const MAX_INFERENCES: u64 = 1_000_000;

#[test]
fn an_inferences_value_past_the_bound_is_a_usage_error_not_a_panic() {
    let dir = util::scratch_dir("cli-inferences-bound");
    let store = dir.join("x.jsonl");
    let sweep: &[&str] = &["sweep", "--grid", "fig11", "--stride", "4096"];
    let inject: &[&str] = &[
        "inject",
        "--policy",
        "without",
        "--trials",
        "1",
        "--train-steps",
        "0",
        "--eval-images",
        "1",
        "--ages",
        "0",
    ];
    let past = (MAX_INFERENCES + 1).to_string();
    for (mode, inferences) in [
        (sweep, "9223372036854775808"),
        (sweep, past.as_str()),
        (inject, "5000000000"),
        (inject, past.as_str()),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_dnnlife"))
            .args(mode)
            .args(["--inferences", inferences, "--out"])
            .arg(&store)
            .current_dir(&dir)
            .output()
            .expect("spawn dnnlife");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(2),
            "{mode:?} {inferences}: {stderr}"
        );
        assert!(
            stderr.contains(&format!("--inferences must be <= {MAX_INFERENCES}")),
            "{stderr}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(!store.exists(), "{} left behind", store.display());
    }
}

/// `MAX_TRIALS` and `MAX_EVAL_IMAGES` in the binary: the largest
/// `--trials` and `--eval-images` values.
const MAX_TRIALS: u32 = 1_000;
const MAX_EVAL_IMAGES: u32 = 10_000;

#[test]
fn inject_counts_past_their_bounds_are_usage_errors_before_any_store() {
    let dir = util::scratch_dir("cli-inject-bounds");
    let store = dir.join("x.jsonl");
    let (trials, images) = (
        (MAX_TRIALS + 1).to_string(),
        (MAX_EVAL_IMAGES + 1).to_string(),
    );
    for (flag, value, max) in [
        ("--trials", trials.as_str(), MAX_TRIALS),
        ("--eval-images", images.as_str(), MAX_EVAL_IMAGES),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_dnnlife"))
            .args(["inject", "--policy", "without", "--train-steps", "0"])
            .args(["--ages", "0", flag, value, "--out"])
            .arg(&store)
            .current_dir(&dir)
            .output()
            .expect("spawn dnnlife");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(
            stderr.contains(&format!("{flag} must be <= {max}")),
            "{stderr}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
        for left in [store.clone(), dir.join("x.jsonl.lock")] {
            assert!(!left.exists(), "{} left behind", left.display());
        }
    }
}

#[test]
fn the_inferences_bound_keeps_every_built_in_cells_writes_in_u32() {
    use dnnlife_core::experiment::{memory_units, NetworkKind, Platform, PolicySpec};
    use dnnlife_core::{DwellModel, ExperimentSpec, MemoryTech, SimulatorBackend};
    use dnnlife_quant::{NumberFormat, RepairPolicy};

    let mut worst = (0, String::new());
    for platform in [Platform::Baseline, Platform::TpuLike, Platform::Crossbar] {
        for network in NetworkKind::ALL {
            for format in [
                NumberFormat::Fp32,
                NumberFormat::Int8Symmetric,
                NumberFormat::Int8Asymmetric,
            ] {
                for repair in [RepairPolicy::None, RepairPolicy::Secded { interleave: 1 }] {
                    // Wear-leveling multiplies K by its epoch count, the
                    // largest K any built-in policy sees.
                    let spec = ExperimentSpec {
                        platform,
                        network,
                        format,
                        policy: PolicySpec::WearLevel { epochs: 4 },
                        inferences: MAX_INFERENCES,
                        years: 7.0,
                        seed: 1,
                        sample_stride: 1,
                        backend: SimulatorBackend::Analytic,
                        dwell: DwellModel::Uniform,
                        repair,
                        tech: MemoryTech::ReramEndurance,
                    };
                    if !spec.is_valid() {
                        continue;
                    }
                    for unit in memory_units(&spec, None) {
                        if unit.block_count() > worst.0 {
                            worst = (unit.block_count(), format!("{spec:?}"));
                        }
                    }
                }
            }
        }
    }
    let (k, cell) = worst;
    assert!(
        MAX_INFERENCES * k <= u64::from(u32::MAX),
        "K = {k} of {cell} overflows u32 at {MAX_INFERENCES} inferences"
    );
    println!("largest K = {k}: {cell}");
}
