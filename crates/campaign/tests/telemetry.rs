//! Telemetry observability contract: instrumentation never changes a
//! single store byte, the events journal tolerates torn tails across
//! resume, the perf profiler renders from real journals, and progress
//! output degrades when stderr is not a terminal.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

use dnnlife_campaign::grid::{CampaignGrid, GridAxes, SweepOptions};
use dnnlife_campaign::{perf, trace};
use dnnlife_campaign::{
    run_campaign, run_injection_campaign, CampaignOptions, InjectCampaignOptions, InjectionGrid,
    InjectionParams, Instrumentation, ShardPolicy, Telemetry,
};
use dnnlife_core::experiment::{DwellModel, NetworkKind, Platform, PolicySpec, SimulatorBackend};
use dnnlife_core::RepairPolicy;
use dnnlife_quant::NumberFormat;
use dnnlife_telemetry::Histogram;

mod util;

/// Deterministic-policy grid over both backends: every cell's result
/// is independent of the thread *and* word-shard count, so one
/// uninstrumented reference pins the bytes for the whole
/// threads × shards × telemetry matrix.
fn sweep_grid(policies: Vec<PolicySpec>) -> CampaignGrid {
    GridAxes {
        platforms: vec![Platform::TpuLike],
        networks: vec![NetworkKind::CustomMnist],
        formats: vec![NumberFormat::Int8Symmetric],
        policies,
        lifetimes_years: vec![7.0],
        backends: vec![SimulatorBackend::Analytic, SimulatorBackend::Exact],
        dwells: vec![DwellModel::Uniform],
        repairs: Vec::new(),
        techs: Vec::new(),
        options: SweepOptions {
            base_seed: 42,
            sample_stride: 256,
            inferences: 8,
            ..SweepOptions::default()
        },
    }
    .build("telemetry-test")
}

fn deterministic_policies() -> Vec<PolicySpec> {
    vec![
        PolicySpec::None,
        PolicySpec::Inversion,
        PolicySpec::BarrelShifter,
    ]
}

fn sweep_with(
    grid: &CampaignGrid,
    path: &Path,
    threads: usize,
    shards: ShardPolicy,
    resume: bool,
    telemetry: Option<&Telemetry>,
) -> Vec<u8> {
    let options = CampaignOptions {
        threads,
        resume,
        shards,
        instr: Instrumentation {
            telemetry,
            progress: None,
        },
        ..CampaignOptions::default()
    };
    run_campaign(grid, path, &options).expect("campaign run");
    std::fs::read(path).expect("read store")
}

/// The tentpole's hard invariant: the finished store is byte-identical
/// with telemetry on or off, at any thread and word-shard count.
#[test]
fn sweep_store_bytes_identical_with_telemetry_on_or_off() {
    let dir = util::scratch_dir("telemetry-sweep-identity");
    let grid = sweep_grid(deterministic_policies());

    let reference = sweep_with(
        &grid,
        &dir.join("plain.jsonl"),
        1,
        ShardPolicy::Fixed(1),
        false,
        None,
    );
    assert!(!reference.is_empty());

    let matrix = [
        (1usize, ShardPolicy::Fixed(1)),
        (8, ShardPolicy::Fixed(1)),
        (1, ShardPolicy::Fixed(8)),
        (8, ShardPolicy::Fixed(8)),
        (8, ShardPolicy::Auto),
    ];
    for (i, (threads, shards)) in matrix.iter().enumerate() {
        let events = dir.join(format!("cell{i}.events.jsonl"));
        let telemetry = Telemetry::with_journal(&events).expect("open journal");
        let bytes = sweep_with(
            &grid,
            &dir.join(format!("cell{i}.jsonl")),
            *threads,
            *shards,
            false,
            Some(&telemetry),
        );
        assert_eq!(
            reference, bytes,
            "telemetry changed store bytes at threads={threads} shards={shards:?}"
        );
        let summary = perf::summarize(&std::fs::read(&events).expect("read journal"));
        assert_eq!(summary.scenarios.len(), grid.len());
        assert_eq!(summary.skipped_lines, 0);
    }
}

/// `campaign_start` carries an absolute `unix_ms` anchor alongside the
/// relative `t_ms` stream, and `perf` surfaces it.
#[test]
fn campaign_start_carries_absolute_unix_anchor() {
    let dir = util::scratch_dir("telemetry-unix-anchor");
    let grid = sweep_grid(deterministic_policies());
    let events = dir.join("anchored.events.jsonl");
    let telemetry = Telemetry::with_journal(&events).expect("open journal");
    let before = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after epoch")
        .as_millis() as u64;
    sweep_with(
        &grid,
        &dir.join("anchored.jsonl"),
        1,
        ShardPolicy::Fixed(1),
        false,
        Some(&telemetry),
    );
    let after = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after epoch")
        .as_millis() as u64;

    let journal = std::fs::read_to_string(&events).expect("read journal");
    let start_line = journal
        .lines()
        .find(|l| l.contains(r#""ev":"campaign_start""#))
        .expect("journal has a campaign_start event");
    assert!(
        start_line.contains(r#""unix_ms":"#),
        "campaign_start must carry the absolute anchor: {start_line}"
    );

    let summary = perf::summarize(&std::fs::read(&events).expect("read journal"));
    let anchor = summary.anchor_unix_ms.expect("perf surfaces the anchor");
    assert!(
        (before..=after).contains(&anchor),
        "anchor {anchor} outside run window [{before}, {after}]"
    );
}

fn tiny_params() -> InjectionParams {
    InjectionParams {
        base_seed: 7,
        inferences: 2,
        ages_years: vec![0.0, 7.0],
        trials: 1,
        eval_images: 4,
        train_steps: 0,
        noise_sigma_mv: 65.0,
    }
}

fn inject_grid() -> InjectionGrid {
    InjectionGrid::build_with_axes(
        "telemetry-inject-test",
        Platform::TpuLike,
        NetworkKind::CustomMnist,
        NumberFormat::Int8Symmetric,
        &[PolicySpec::None, PolicySpec::Inversion],
        &tiny_params(),
        &[RepairPolicy::Secded { interleave: 4 }],
        &[dnnlife_core::MemoryTech::SramNbti],
    )
}

/// Same invariant for the fault-injection store, plus the SECDED
/// roll-up counters the journal is expected to carry.
#[test]
fn inject_store_bytes_identical_with_telemetry_on_or_off() {
    let dir = util::scratch_dir("telemetry-inject-identity");
    let grid = inject_grid();

    let run = |path: &Path, threads: usize, telemetry: Option<&Telemetry>| -> Vec<u8> {
        let options = InjectCampaignOptions {
            threads,
            instr: Instrumentation {
                telemetry,
                progress: None,
            },
            ..InjectCampaignOptions::default()
        };
        run_injection_campaign(&grid, path, &options, None).expect("injection campaign");
        std::fs::read(path).expect("read store")
    };

    let reference = run(&dir.join("plain.jsonl"), 1, None);
    assert!(!reference.is_empty());

    let events = dir.join("instrumented.events.jsonl");
    let telemetry = Telemetry::with_journal(&events).expect("open journal");
    let instrumented = run(&dir.join("instrumented.jsonl"), 4, Some(&telemetry));
    assert_eq!(
        reference, instrumented,
        "telemetry changed injection store bytes"
    );

    let summary = perf::summarize(&std::fs::read(&events).expect("read journal"));
    assert_eq!(summary.scenarios.len(), grid.len());
    assert!(summary.counter("injection_trials") > 0);
    // SECDED interleave=4 at 7 years corrects at least some words in
    // these cells; the roll-up must surface that.
    assert!(summary.counter("ecc_corrected_words") > 0);
}

/// The journal shares `JsonlStore`'s crash posture: a torn trailing
/// line (power cut mid-append) is truncated on reopen, and a resumed
/// campaign appends a second invocation that the profiler folds in.
#[test]
fn events_journal_survives_torn_trailing_line_on_resume() {
    let dir = util::scratch_dir("telemetry-torn-tail");
    let store = dir.join("store.jsonl");
    let events = dir.join("store.events.jsonl");
    let partial = sweep_grid(vec![PolicySpec::None]);
    let full = sweep_grid(deterministic_policies());

    let telemetry = Telemetry::with_journal(&events).expect("open journal");
    sweep_with(
        &partial,
        &store,
        2,
        ShardPolicy::Auto,
        false,
        Some(&telemetry),
    );
    drop(telemetry);

    // Tear the tail: a partial event line with no terminating newline.
    let mut journal = std::fs::read(&events).expect("read journal");
    assert!(journal.ends_with(b"\n"));
    journal.extend_from_slice(br#"{"ev":"scenario_done","i":9"#);
    std::fs::write(&events, &journal).expect("tear journal");

    // Reopen on the same path and resume the rest of the grid.
    let telemetry = Telemetry::with_journal(&events).expect("reopen journal");
    let resumed = sweep_with(&full, &store, 2, ShardPolicy::Auto, true, Some(&telemetry));
    drop(telemetry);

    // Resume + telemetry still lands on the clean single-shot bytes.
    let clean = sweep_with(
        &full,
        &dir.join("clean.jsonl"),
        1,
        ShardPolicy::Auto,
        false,
        None,
    );
    assert_eq!(clean, resumed, "resumed store diverged from clean run");

    // The torn line is gone, both invocations parse, and the profiler
    // sums them: every scenario appears exactly once per execution.
    let summary = perf::summarize(&std::fs::read(&events).expect("read journal"));
    assert_eq!(
        summary.skipped_lines, 0,
        "torn tail leaked into the journal"
    );
    assert_eq!(summary.campaigns.len(), 2, "expected two invocations");
    assert_eq!(
        summary.scenarios.len(),
        partial.len() + (full.len() - partial.len())
    );
}

/// `dnnlife perf` renders its tables from a real sweep journal, and a
/// self-diff never flags a regression.
#[test]
fn perf_profiler_renders_tables_and_self_diff_is_flat() {
    let dir = util::scratch_dir("telemetry-perf-render");
    let grid = sweep_grid(deterministic_policies());
    let events = dir.join("sweep.events.jsonl");
    let telemetry = Telemetry::with_journal(&events).expect("open journal");
    sweep_with(
        &grid,
        &dir.join("sweep.jsonl"),
        4,
        ShardPolicy::Auto,
        false,
        Some(&telemetry),
    );
    drop(telemetry);

    let summary = perf::summarize(&std::fs::read(&events).expect("read journal"));
    let text = summary.render_text();
    for needle in [
        "Slowest cells",
        "Per-policy throughput",
        "Counters",
        "scenarios_completed",
        "exact_word_writes",
        "Without Aging Mitigation",
    ] {
        assert!(
            text.contains(needle),
            "perf text missing `{needle}`:\n{text}"
        );
    }
    assert!(summary.exact_words_per_sec().unwrap_or(0.0) > 0.0);
    assert!(summary.thread_utilization().unwrap_or(0.0) > 0.0);

    let diff = perf::diff(&summary, &summary, perf::DIFF_THRESHOLD);
    assert!(!diff.has_regression(), "self-diff flagged a regression");
    assert!(diff.render_text().contains("campaign_wall_ms"));
}

/// `dnnlife perf --diff` must exit non-zero when the compared journal
/// lacks a metric the baseline journal reports (a vanished
/// `exact_words_per_sec` used to silently pass the gate).
#[test]
fn perf_diff_fails_when_current_journal_lacks_baseline_metric() {
    let dir = util::scratch_dir("telemetry-perf-missing");
    let with_exact = dir.join("baseline.events.jsonl");
    let without_exact = dir.join("current.events.jsonl");
    std::fs::write(
        &with_exact,
        concat!(
            r#"{"ev":"campaign_start","t_ms":0,"name":"fig11","budget":2}"#,
            "\n",
            r#"{"ev":"scenario_done","t_ms":50,"i":0,"label":"a","group":"none","wall_ms":50.0,"queue_ms":1.0,"threads":1}"#,
            "\n",
            r#"{"ev":"counters","t_ms":60,"exact_word_writes":1000000,"scenario_wall_nanos":50000000}"#,
            "\n",
            r#"{"ev":"campaign_done","t_ms":61}"#,
            "\n",
        ),
    )
    .expect("write baseline journal");
    std::fs::write(
        &without_exact,
        concat!(
            r#"{"ev":"campaign_start","t_ms":0,"name":"fig11","budget":2}"#,
            "\n",
            r#"{"ev":"scenario_done","t_ms":50,"i":0,"label":"a","group":"none","wall_ms":50.0,"queue_ms":1.0,"threads":1}"#,
            "\n",
            r#"{"ev":"campaign_done","t_ms":61}"#,
            "\n",
        ),
    )
    .expect("write current journal");

    let run = |a: &Path, b: &Path| {
        std::process::Command::new(env!("CARGO_BIN_EXE_dnnlife"))
            .args(["perf", "--events"])
            .arg(a)
            .arg("--diff")
            .arg(b)
            .output()
            .expect("run dnnlife perf")
    };

    let failing = run(&with_exact, &without_exact);
    assert!(
        !failing.status.success(),
        "perf --diff must fail when the current journal lacks exact \
         throughput, got: {}",
        String::from_utf8_lossy(&failing.stdout)
    );
    assert!(
        String::from_utf8_lossy(&failing.stdout).contains("MISSING"),
        "diff table must carry an explicit MISSING row: {}",
        String::from_utf8_lossy(&failing.stdout)
    );

    let passing = run(&with_exact, &with_exact);
    assert!(
        passing.status.success(),
        "self-diff must pass: {}",
        String::from_utf8_lossy(&passing.stderr)
    );
}

/// `dnnlife --help` advertises the `perf` flags the parser accepts:
/// `--threshold` (the nightly diff passes it), never `--top`.
#[test]
fn perf_usage_lists_threshold_and_the_diff_accepts_it() {
    let help = std::process::Command::new(env!("CARGO_BIN_EXE_dnnlife"))
        .arg("--help")
        .output()
        .expect("run dnnlife --help");
    assert!(help.status.success());
    let usage = String::from_utf8_lossy(&help.stdout);
    let perf_usage: String = usage
        .lines()
        .skip_while(|l| !l.contains("dnnlife perf"))
        .take_while(|l| !l.contains("dnnlife trace"))
        .collect();
    assert!(perf_usage.contains("--threshold"), "{usage}");
    assert!(!usage.contains("--top"), "{usage}");

    let dir = util::scratch_dir("telemetry-perf-threshold");
    let journal = dir.join("j.events.jsonl");
    std::fs::write(
        &journal,
        concat!(
            r#"{"ev":"campaign_start","t_ms":0,"name":"fig11","budget":2}"#,
            "\n",
            r#"{"ev":"scenario_done","t_ms":50,"i":0,"label":"a","group":"none","wall_ms":50.0,"queue_ms":1.0,"threads":1}"#,
            "\n",
            r#"{"ev":"campaign_done","t_ms":61}"#,
            "\n",
        ),
    )
    .expect("write journal");
    let diff = std::process::Command::new(env!("CARGO_BIN_EXE_dnnlife"))
        .args(["perf", "--events"])
        .arg(&journal)
        .arg("--diff")
        .arg(&journal)
        .args(["--threshold", "1.3"])
        .output()
        .expect("run dnnlife perf --diff");
    assert!(
        diff.status.success(),
        "{}",
        String::from_utf8_lossy(&diff.stderr)
    );
}

/// One bad byte in an events journal is one corrupt line: `perf` and
/// `trace` skip and count it like a torn tail, and `--telemetry`
/// reopens the journal, cuts the torn tail and appends after it.
#[test]
fn non_utf8_journal_line_is_skipped_and_the_journal_reopens() {
    let dir = util::scratch_dir("telemetry-non-utf8");
    let out = dir.join("fig11.jsonl");
    let sweep = |resume: bool| {
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_dnnlife"));
        cmd.args(["sweep", "--grid", "fig11", "--stride", "4096"])
            .args(["--inferences", "2", "--threads", "2", "--telemetry"])
            .arg("--out")
            .arg(&out);
        if resume {
            cmd.arg("--resume");
        }
        let output = cmd.output().expect("run dnnlife sweep");
        assert!(
            output.status.success(),
            "sweep failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    };
    sweep(false);
    let events = dir.join("fig11.events.jsonl");
    let mut journal = std::fs::read(&events).expect("read journal");
    let middle = journal.len() / 2;
    let line_end = middle + journal[middle..].iter().position(|&b| b == b'\n').unwrap();
    journal.splice(line_end + 1..line_end + 1, b"\xff\n".iter().copied());
    journal.extend_from_slice(br#"{"ev":"scenario_done","i":9"#);
    std::fs::write(&events, &journal).expect("corrupt journal");

    let skipped = |command: &str| {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_dnnlife"))
            .args([command, "--json", "--events"])
            .arg(&events)
            .output()
            .expect("run dnnlife");
        assert!(
            output.status.success(),
            "{command}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let value: serde::Value =
            serde_json::from_str(String::from_utf8_lossy(&output.stdout).trim())
                .expect("json parses");
        let Some(serde::Value::Number(n)) = value.get("skipped_lines") else {
            panic!("{command}: no skipped_lines field");
        };
        (*n).as_u64()
    };
    assert_eq!(skipped("perf"), Some(2), "the \\xff line and the torn tail");
    assert_eq!(
        skipped("trace"),
        Some(2),
        "the \\xff line and the torn tail"
    );

    sweep(true);
    let journal = std::fs::read(&events).expect("read reopened journal");
    assert!(journal.ends_with(b"\n"), "torn tail must be cut");
    assert_eq!(skipped("perf"), Some(1), "only the \\xff line remains");
}

/// Satellite 1: a cancelled campaign reports what completed, what was
/// discarded in flight, and what never started — in the error the CLI
/// prints on the SIGINT path — and journals a `campaign_abort` event.
#[test]
fn cancelled_campaign_reports_completion_summary() {
    let dir = util::scratch_dir("telemetry-cancel");
    let grid = sweep_grid(deterministic_policies());
    let events = dir.join("aborted.events.jsonl");
    let telemetry = Telemetry::with_journal(&events).expect("open journal");
    let cancel = AtomicBool::new(true); // raised before the first claim
    let options = CampaignOptions {
        cancel: Some(&cancel),
        instr: Instrumentation {
            telemetry: Some(&telemetry),
            progress: None,
        },
        ..CampaignOptions::default()
    };
    let err = run_campaign(&grid, dir.join("aborted.jsonl"), &options)
        .expect_err("pre-raised cancel token must abort the campaign");
    drop(telemetry);
    assert!(cancel.load(Ordering::Relaxed));
    assert_eq!(err.kind(), std::io::ErrorKind::Interrupted);
    let message = err.to_string();
    for needle in [
        "never started",
        "in-flight discarded",
        "rerun with --resume",
    ] {
        assert!(
            message.contains(needle),
            "summary missing `{needle}`: {message}"
        );
    }

    let journal = std::fs::read_to_string(&events).expect("read journal");
    assert!(
        journal.contains(r#""ev":"campaign_abort""#),
        "abort not journaled:\n{journal}"
    );
}

/// The span layer journals a reconstructable forest: every span's
/// parent resolves (zero orphans), every span ends, and the expected
/// label taxonomy appears — campaign root, per-item scenarios, one
/// plan build per scenario, and the per-shard simulator spans of both
/// backends.
#[test]
fn sweep_journal_reconstructs_a_complete_span_forest() {
    let dir = util::scratch_dir("telemetry-span-forest");
    let grid = sweep_grid(deterministic_policies());
    let events = dir.join("spans.events.jsonl");
    let telemetry = Telemetry::with_journal(&events).expect("open journal");
    sweep_with(
        &grid,
        &dir.join("spans.jsonl"),
        4,
        ShardPolicy::Fixed(2),
        false,
        Some(&telemetry),
    );
    drop(telemetry);

    let forest = trace::reconstruct(&std::fs::read(&events).expect("read journal"));
    assert!(
        forest.is_complete_forest(),
        "{} orphan span(s) in the forest",
        forest.orphans
    );
    assert_eq!(forest.unended, 0, "all spans must end");
    assert_eq!(forest.skipped_lines, 0);
    assert_eq!(forest.roots().len(), 1, "one campaign root");

    let labels: Vec<&str> = forest.spans.iter().map(|s| s.label.as_str()).collect();
    assert!(labels.iter().any(|l| l.starts_with("campaign:")));
    let count = |needle: &str| labels.iter().filter(|l| **l == needle).count();
    assert_eq!(count("scenario"), grid.len(), "one span per scenario");
    // Both backends shard their work under the scenario spans; the
    // exact backend also journals its merge step.
    assert!(count("exact_shard") > 0, "labels: {labels:?}");
    assert!(count("exact_merge") > 0, "labels: {labels:?}");
    assert!(count("analytic_shard") > 0, "labels: {labels:?}");
    // Every scenario builds its memory plan, simulates its duties and
    // degrades them exactly once, each under its own span.
    for scenario in forest.spans.iter().filter(|s| s.label == "scenario") {
        for stage in ["plan_build", "duty", "degrade"] {
            let children = forest
                .spans
                .iter()
                .filter(|s| s.parent == Some(scenario.id) && s.label == stage)
                .count();
            assert_eq!(children, 1, "{stage} under scenario span {}", scenario.id);
        }
    }
    assert_eq!(count("plan_build"), grid.len());
    assert_eq!(count("duty"), grid.len());
    assert_eq!(count("degrade"), grid.len());

    // The flame table and critical path render from the same forest.
    let text = forest.render_text();
    assert!(text.contains("Hot paths"), "{text}");
    assert!(text.contains("Critical path: campaign:"), "{text}");
    let paths = forest.critical_paths();
    assert_eq!(paths.len(), 1);
    assert!(paths[0].1.len() >= 2, "path descends into scenarios");
}

/// The injector nests its stage spans and the per-trial decode, load
/// and score spans under the executor's scenario spans: exactly one
/// `train`, `duty` and `clean_eval` per cell, one `fail_probs` per age
/// checkpoint of the cell, and one `trial_decode`, `trial_load` and
/// `trial_score` per trial and age.
#[test]
fn injection_journal_carries_per_trial_spans() {
    let dir = util::scratch_dir("telemetry-inject-spans");
    let params = InjectionParams {
        trials: 2,
        ..tiny_params()
    };
    let grid = InjectionGrid::build_with_axes(
        "telemetry-inject-spans",
        Platform::TpuLike,
        NetworkKind::CustomMnist,
        NumberFormat::Int8Symmetric,
        &[PolicySpec::None, PolicySpec::Inversion],
        &params,
        &[RepairPolicy::Secded { interleave: 4 }],
        &[dnnlife_core::MemoryTech::SramNbti],
    );
    let events = dir.join("inject.events.jsonl");
    let telemetry = Telemetry::with_journal(&events).expect("open journal");
    let options = InjectCampaignOptions {
        threads: 2,
        instr: Instrumentation {
            telemetry: Some(&telemetry),
            progress: None,
        },
        ..InjectCampaignOptions::default()
    };
    run_injection_campaign(&grid, dir.join("inject.jsonl"), &options, None)
        .expect("injection campaign");
    drop(telemetry);

    let forest = trace::reconstruct(&std::fs::read(&events).expect("read journal"));
    assert!(forest.is_complete_forest());
    assert_eq!(forest.unended, 0);
    let scenarios: Vec<_> = forest
        .spans
        .iter()
        .filter(|s| s.label == "scenario")
        .collect();
    assert_eq!(scenarios.len(), grid.len(), "one span per cell");
    let ages = params.ages_years.len();
    let trials = params.trials as usize * ages;
    for scenario in scenarios {
        for (stage, want) in [
            ("train", 1),
            ("duty", 1),
            ("clean_eval", 1),
            ("fail_probs", ages),
            ("trial_decode", trials),
            ("trial_load", trials),
            ("trial_score", trials),
        ] {
            let children = forest
                .spans
                .iter()
                .filter(|s| s.parent == Some(scenario.id) && s.label == stage)
                .count();
            assert_eq!(
                children, want,
                "{stage} under scenario span {}",
                scenario.id
            );
        }
    }
    // Every stage and trial span's parent is a scenario span.
    let nested = [
        "train",
        "duty",
        "clean_eval",
        "fail_probs",
        "trial_decode",
        "trial_load",
        "trial_score",
    ];
    for span in &forest.spans {
        if nested.contains(&span.label.as_str()) {
            let parent = span.parent.expect("stage and trial spans are nested");
            let parent = forest
                .spans
                .iter()
                .find(|s| s.id == parent)
                .expect("parent defined");
            assert_eq!(parent.label, "scenario");
        }
    }
}

/// The journal's `hist` roll-ups reconstruct scenario wall-time
/// percentiles within one log bucket of the exact per-scenario walls
/// the same journal records.
#[test]
fn perf_percentiles_match_recorded_scenario_walls() {
    let dir = util::scratch_dir("telemetry-percentiles");
    let grid = sweep_grid(deterministic_policies());
    let events = dir.join("hist.events.jsonl");
    let telemetry = Telemetry::with_journal(&events).expect("open journal");
    sweep_with(
        &grid,
        &dir.join("hist.jsonl"),
        4,
        ShardPolicy::Auto,
        false,
        Some(&telemetry),
    );
    drop(telemetry);

    let summary = perf::summarize(&std::fs::read(&events).expect("read journal"));
    let hist = summary
        .hist("scenario_wall_us")
        .expect("journal carries the wall histogram");
    assert_eq!(hist.count(), grid.len() as u64);

    let mut walls_us: Vec<u64> = summary
        .scenarios
        .iter()
        .map(|s| (s.wall_ms * 1_000.0) as u64)
        .collect();
    walls_us.sort_unstable();
    for q in [0.5, 0.9, 0.99] {
        let rank = ((q * walls_us.len() as f64).ceil() as usize).clamp(1, walls_us.len());
        let truth = walls_us[rank - 1];
        let est = hist.quantile(q);
        let (eb, tb) = (
            Histogram::bucket_index(est) as i64,
            Histogram::bucket_index(truth) as i64,
        );
        assert!(
            (eb - tb).abs() <= 1,
            "q={q}: histogram {est}us (bucket {eb}) vs recorded {truth}us (bucket {tb})"
        );
    }
    // And the summary renders them.
    assert!(summary.render_text().contains("Latency percentiles"));
}

/// `--metrics-out` writes a Prometheus exposition plus a JSON twin —
/// even without `--telemetry`, and without inventing an events journal.
#[test]
fn metrics_out_writes_prometheus_and_json_twin() {
    let dir = util::scratch_dir("telemetry-metrics-out");
    let out = dir.join("fig11.jsonl");
    let prom = dir.join("metrics.prom");
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_dnnlife"))
        .args([
            "sweep",
            "--grid",
            "fig11",
            "--stride",
            "4096",
            "--inferences",
            "2",
            "--threads",
            "2",
        ])
        .arg("--out")
        .arg(&out)
        .arg("--metrics-out")
        .arg(&prom)
        .output()
        .expect("run dnnlife sweep");
    assert!(
        output.status.success(),
        "sweep failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    let text = std::fs::read_to_string(&prom).expect("exposition written");
    for needle in [
        "# HELP dnnlife_scenarios_completed",
        "# TYPE dnnlife_scenarios_completed counter",
        "# TYPE dnnlife_scenario_wall_us histogram",
        "dnnlife_scenario_wall_us_bucket{le=\"+Inf\"}",
        "dnnlife_scenario_wall_us_count",
        "# TYPE dnnlife_campaign_workers gauge",
    ] {
        assert!(text.contains(needle), "missing `{needle}`:\n{text}");
    }

    let twin = dir.join("metrics.json");
    let json = std::fs::read_to_string(&twin).expect("json twin written");
    let value: serde::Value = serde_json::from_str(&json).expect("twin parses");
    assert!(
        matches!(
            value.get("scenarios_completed"),
            Some(serde::Value::Object(_))
        ),
        "twin must carry the counter: {json}"
    );
    assert!(
        !dir.join("fig11.events.jsonl").exists(),
        "--metrics-out alone must not create an events journal"
    );
}

/// `dnnlife trace` renders the forest from a CLI-produced journal and
/// `--json` round-trips with zero orphans; an eventless journal exits
/// with the no-store code 3.
#[test]
fn trace_cli_reports_the_forest_and_json_parses() {
    let dir = util::scratch_dir("telemetry-trace-cli");
    let out = dir.join("fig11.jsonl");
    let sweep = std::process::Command::new(env!("CARGO_BIN_EXE_dnnlife"))
        .args([
            "sweep",
            "--grid",
            "fig11",
            "--stride",
            "4096",
            "--inferences",
            "2",
            "--threads",
            "2",
            "--telemetry",
        ])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("run dnnlife sweep");
    assert!(
        sweep.status.success(),
        "sweep failed: {}",
        String::from_utf8_lossy(&sweep.stderr)
    );
    let events = dir.join("fig11.events.jsonl");

    let text = std::process::Command::new(env!("CARGO_BIN_EXE_dnnlife"))
        .args(["trace", "--events"])
        .arg(&events)
        .output()
        .expect("run dnnlife trace");
    assert!(text.status.success());
    let stdout = String::from_utf8_lossy(&text.stdout);
    assert!(stdout.contains("0 orphan(s)"), "{stdout}");
    assert!(stdout.contains("Hot paths"), "{stdout}");

    let json = std::process::Command::new(env!("CARGO_BIN_EXE_dnnlife"))
        .args(["trace", "--json", "--events"])
        .arg(&events)
        .output()
        .expect("run dnnlife trace --json");
    assert!(json.status.success());
    let value: serde::Value =
        serde_json::from_str(String::from_utf8_lossy(&json.stdout).trim()).expect("json parses");
    let Some(serde::Value::Number(orphans)) = value.get("orphans") else {
        panic!("orphans field");
    };
    assert_eq!((*orphans).as_u64(), Some(0));

    // A journal with no span events is "nothing to report yet": exit 3.
    let empty = dir.join("empty.events.jsonl");
    std::fs::write(&empty, "{\"ev\":\"campaign_done\",\"t_ms\":1}\n").expect("write journal");
    let missing = std::process::Command::new(env!("CARGO_BIN_EXE_dnnlife"))
        .args(["trace", "--events"])
        .arg(&empty)
        .output()
        .expect("run dnnlife trace");
    assert_eq!(missing.status.code(), Some(3));
}

/// A hostile line of 200 000 `[` among valid lines is just another
/// corrupt line: `report --store` and `trace --events` exit exactly as
/// they do for a `{garbage` line in the same place (same exit code,
/// same skip count, same reported line) instead of overflowing the
/// JSON parser's stack.
#[test]
fn deeply_nested_line_is_handled_like_any_corrupt_line() {
    let dir = util::scratch_dir("telemetry-deep-nesting");
    let out = dir.join("fig11.jsonl");
    let sweep = std::process::Command::new(env!("CARGO_BIN_EXE_dnnlife"))
        .args(["sweep", "--grid", "fig11", "--stride", "4096"])
        .args([
            "--inferences",
            "2",
            "--threads",
            "2",
            "--telemetry",
            "--out",
        ])
        .arg(&out)
        .output()
        .expect("run dnnlife sweep");
    assert!(sweep.status.success());
    let events = dir.join("fig11.events.jsonl");

    // Splices `bad` into the middle of `path`'s lines; returns the copy.
    let splice = |path: &Path, tag: &str, bad: &str| {
        let text = std::fs::read_to_string(path).expect("read file");
        let mut lines: Vec<&str> = text.lines().collect();
        lines.insert(lines.len() / 2, bad);
        let copy = dir.join(format!(
            "{tag}-{}",
            path.file_name().unwrap().to_string_lossy()
        ));
        std::fs::write(&copy, lines.join("\n") + "\n").expect("write copy");
        copy
    };
    let run = |args: &[&str], path: &Path| {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_dnnlife"))
            .args(args)
            .arg(path)
            .output()
            .expect("run dnnlife");
        let text = String::from_utf8_lossy(&output.stdout).to_string()
            + &String::from_utf8_lossy(&output.stderr);
        (output.status.code(), text)
    };
    let deep = "[".repeat(200_000);
    for (args, path) in [
        (&["report", "--table", "fig11", "--store"][..], &out),
        (&["trace", "--events"][..], &events),
    ] {
        let (garbage_code, garbage) = run(args, &splice(path, "garbage", "{garbage"));
        let (deep_code, hostile) = run(args, &splice(path, "deep", &deep));
        assert!(deep_code.is_some(), "{args:?} died on a signal: {hostile}");
        assert_eq!(deep_code, garbage_code, "{args:?}: {hostile}");
        // `report` names the corrupt line; `trace` counts skipped lines.
        let verdict = |text: &str| {
            text.lines()
                .find_map(|l| match l.find("corrupt record on line") {
                    Some(at) => l[at..].split(':').next().map(str::to_string),
                    None => l.contains("line(s) skipped").then(|| l.to_string()),
                })
        };
        assert!(verdict(&garbage).is_some(), "{args:?}: {garbage}");
        assert_eq!(verdict(&hostile), verdict(&garbage), "{args:?}");
    }
}

/// Satellite 3: with stderr piped (not a tty), `--progress` degrades
/// to plain periodic lines — no `\r` cursor rewrites in the stream.
#[test]
fn progress_degrades_to_plain_lines_when_stderr_is_not_a_tty() {
    let dir = util::scratch_dir("telemetry-no-tty");
    let out = dir.join("fig11.jsonl");
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_dnnlife"))
        .args([
            "sweep",
            "--grid",
            "fig11",
            "--stride",
            "4096",
            "--inferences",
            "2",
            "--threads",
            "2",
            "--progress",
            "--out",
        ])
        .arg(&out)
        .output()
        .expect("run dnnlife sweep");
    assert!(
        output.status.success(),
        "sweep failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        !output.stderr.contains(&b'\r'),
        "live \\r progress leaked to a non-tty stderr: {:?}",
        String::from_utf8_lossy(&output.stderr)
    );
}
