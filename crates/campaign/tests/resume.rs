//! Campaign resume property: an interrupted sweep, resumed, produces a
//! store byte-identical to a clean uninterrupted run — including when
//! the interruption tore the journal mid-line.

use dnnlife_campaign::grid::{CampaignGrid, GridAxes, SweepOptions};
use dnnlife_campaign::{run_campaign, CampaignOptions, ResultStore, StoreLock};
use dnnlife_core::experiment::{NetworkKind, Platform, PolicySpec, SimulatorBackend};
use dnnlife_quant::NumberFormat;

mod util;

fn test_grid() -> CampaignGrid {
    GridAxes {
        platforms: vec![Platform::TpuLike],
        networks: vec![NetworkKind::CustomMnist],
        formats: vec![NumberFormat::Int8Symmetric],
        policies: vec![
            PolicySpec::None,
            PolicySpec::Inversion,
            PolicySpec::BarrelShifter,
            PolicySpec::DnnLife {
                bias: 0.7,
                bias_balancing: true,
                m_bits: 4,
            },
        ],
        lifetimes_years: vec![7.0],
        backends: vec![SimulatorBackend::Analytic],
        dwells: vec![dnnlife_core::DwellModel::Uniform],
        repairs: Vec::new(),
        techs: Vec::new(),
        options: SweepOptions {
            base_seed: 99,
            sample_stride: 256,
            inferences: 20,
            ..SweepOptions::default()
        },
    }
    .build("resume-test")
}

/// Simulates a sweep killed after `keep` journaled scenarios (plus an
/// optional torn half-written line) by truncating a clean store.
fn interrupted_store(clean: &str, keep: usize, torn_tail: bool) -> String {
    let lines: Vec<&str> = clean.lines().collect();
    assert!(keep + 1 < lines.len(), "test needs work left to resume");
    let mut partial: String = lines[..keep].iter().map(|l| format!("{l}\n")).collect();
    if torn_tail {
        let next = lines[keep];
        partial.push_str(&next[..next.len() / 2]);
    }
    partial
}

#[test]
fn resume_after_interruption_equals_clean_run() {
    let dir = util::scratch_dir("resume");
    let grid = test_grid();

    let clean_path = dir.join("clean.jsonl");
    run_campaign(&grid, &clean_path, &CampaignOptions::default()).expect("clean run");
    let clean = std::fs::read_to_string(&clean_path).expect("read clean store");

    for (keep, torn_tail) in [(1, false), (2, true), (0, true)] {
        let resumed_path = dir.join(format!("resumed-{keep}-{torn_tail}.jsonl"));
        std::fs::write(&resumed_path, interrupted_store(&clean, keep, torn_tail))
            .expect("write interrupted store");

        let outcome = run_campaign(
            &grid,
            &resumed_path,
            &CampaignOptions {
                threads: 2,
                resume: true,
                verbose: false,
                ..CampaignOptions::default()
            },
        )
        .expect("resumed run");
        assert_eq!(
            outcome.skipped, keep,
            "resume must skip exactly the journaled scenarios"
        );
        assert_eq!(outcome.executed, grid.len() - keep);

        let resumed = std::fs::read_to_string(&resumed_path).expect("read resumed store");
        assert_eq!(
            resumed, clean,
            "resumed store differs from clean run (keep={keep}, torn={torn_tail})"
        );
    }
}

#[test]
fn resume_false_discards_existing_store() {
    let dir = util::scratch_dir("resume-discard");
    let grid = test_grid();
    let path = dir.join("store.jsonl");
    run_campaign(&grid, &path, &CampaignOptions::default()).expect("first run");
    let outcome = run_campaign(&grid, &path, &CampaignOptions::default()).expect("second run");
    assert_eq!(outcome.executed, grid.len(), "resume=false must re-run all");
    assert_eq!(outcome.skipped, 0);
}

#[test]
fn resume_with_changed_seed_prunes_stale_records() {
    // A resumed sweep whose parameters changed (here: the master seed)
    // shares no keys with the stored records; the stale ones must be
    // dropped at finalize so the store still equals a clean run.
    let dir = util::scratch_dir("resume-stale");
    let grid_a = test_grid();
    let grid_b = GridAxes {
        platforms: vec![Platform::TpuLike],
        networks: vec![NetworkKind::CustomMnist],
        formats: vec![NumberFormat::Int8Symmetric],
        policies: vec![
            PolicySpec::None,
            PolicySpec::Inversion,
            PolicySpec::BarrelShifter,
            PolicySpec::DnnLife {
                bias: 0.7,
                bias_balancing: true,
                m_bits: 4,
            },
        ],
        lifetimes_years: vec![7.0],
        backends: vec![SimulatorBackend::Analytic],
        dwells: vec![dnnlife_core::DwellModel::Uniform],
        repairs: Vec::new(),
        techs: Vec::new(),
        options: SweepOptions {
            base_seed: 100,
            sample_stride: 256,
            inferences: 20,
            ..SweepOptions::default()
        },
    }
    .build("resume-test");

    let clean_b = dir.join("clean-b.jsonl");
    run_campaign(&grid_b, &clean_b, &CampaignOptions::default()).expect("clean B run");

    let mixed = dir.join("mixed.jsonl");
    run_campaign(&grid_a, &mixed, &CampaignOptions::default()).expect("A run");
    let outcome = run_campaign(
        &grid_b,
        &mixed,
        &CampaignOptions {
            threads: 1,
            resume: true,
            verbose: false,
            ..CampaignOptions::default()
        },
    )
    .expect("B over A with resume");
    assert_eq!(
        outcome.executed,
        grid_b.len(),
        "no B scenario was stored yet"
    );
    assert_eq!(outcome.skipped, 0);

    let mixed_bytes = std::fs::read(&mixed).expect("read mixed store");
    let clean_bytes = std::fs::read(&clean_b).expect("read clean store");
    assert_eq!(
        mixed_bytes, clean_bytes,
        "stale seed-99 records leaked into the finalized seed-100 store"
    );
}

#[test]
fn held_lock_refuses_a_second_sweep_and_keeps_the_store() {
    // A second sweep on a store another run holds must fail before it
    // touches the file — even without `resume`, which would otherwise
    // delete the store first.
    let dir = util::scratch_dir("resume-locked");
    let grid = test_grid();
    let path = dir.join("store.jsonl");
    run_campaign(&grid, &path, &CampaignOptions::default()).expect("clean run");
    let before = std::fs::read(&path).expect("read store");

    let _held = StoreLock::acquire(&path).expect("take the lock");
    let error = run_campaign(&grid, &path, &CampaignOptions::default())
        .expect_err("a held lock must refuse the second run");
    assert_eq!(error.kind(), std::io::ErrorKind::WouldBlock, "{error}");
    assert_eq!(
        std::fs::read(&path).expect("re-read store"),
        before,
        "the refused run must leave the store intact"
    );
}

#[test]
fn store_rejects_mid_file_corruption() {
    let dir = util::scratch_dir("resume-corrupt");
    let grid = test_grid();
    let path = dir.join("store.jsonl");
    run_campaign(&grid, &path, &CampaignOptions::default()).expect("clean run");

    let clean = std::fs::read_to_string(&path).expect("read store");
    let lines: Vec<&str> = clean.lines().collect();
    let corrupted = format!("{}\nnot json at all\n{}\n", lines[0], lines[2]);
    std::fs::write(&path, corrupted).expect("write corrupted store");
    let error = ResultStore::open(&path).expect_err("mid-file corruption must not pass silently");
    assert!(error.to_string().contains("line 2"), "error was: {error}");
}

#[test]
fn resume_reruns_only_the_scenario_with_a_corrupt_trailing_line() {
    // The crash signature `--resume` is designed for: the journal's
    // final line was torn mid-write (here: its second half replaced by
    // garbage bytes, not merely truncated). The resumed sweep must
    // treat every intact line as done, re-run exactly the one damaged
    // scenario, and finalize to the clean store's bytes.
    let dir = util::scratch_dir("resume-corrupt-tail");
    let grid = test_grid();
    let path = dir.join("store.jsonl");
    run_campaign(&grid, &path, &CampaignOptions::default()).expect("clean run");
    let clean = std::fs::read_to_string(&path).expect("read clean store");

    let lines: Vec<&str> = clean.lines().collect();
    let last = lines[lines.len() - 1];
    let mut damaged: String = lines[..lines.len() - 1]
        .iter()
        .map(|l| format!("{l}\n"))
        .collect();
    damaged.push_str(&last[..last.len() / 2]);
    damaged.push_str("\u{0}\u{0}garbage-not-json"); // torn + corrupt, no newline
    std::fs::write(&path, &damaged).expect("write damaged store");

    let outcome = run_campaign(
        &grid,
        &path,
        &CampaignOptions {
            threads: 1,
            resume: true,
            verbose: false,
            ..CampaignOptions::default()
        },
    )
    .expect("resumed run over damaged store");
    assert_eq!(
        outcome.executed, 1,
        "only the damaged scenario may be re-run"
    );
    assert_eq!(outcome.skipped, grid.len() - 1);

    let resumed = std::fs::read_to_string(&path).expect("read resumed store");
    assert_eq!(resumed, clean, "resume did not reconstruct the clean store");
}

#[test]
fn store_drops_only_the_torn_tail() {
    let dir = util::scratch_dir("resume-tail");
    let grid = test_grid();
    let path = dir.join("store.jsonl");
    run_campaign(&grid, &path, &CampaignOptions::default()).expect("clean run");

    let clean = std::fs::read_to_string(&path).expect("read store");
    let torn = &clean[..clean.len() - 10];
    std::fs::write(&path, torn).expect("write torn store");
    let store = ResultStore::open(&path).expect("torn tail is recoverable");
    assert_eq!(store.len(), grid.len() - 1);
}
