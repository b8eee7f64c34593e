//! Integration tests for the fault-injection campaign: store-level
//! determinism, resume, table rendering, and (nightly tier) the
//! paper's accuracy claim.
//!
//! The tier-1 smoke test keeps debug-mode cost down by using the
//! cheap deterministic policies and an untrained network — the
//! stochastic DNN-Life policy and the trained-accuracy claim run in
//! the nightly `--ignored` release tier (and in `dnnlife-faultsim`'s
//! own unit tests at smaller scale).

use std::path::Path;

use dnnlife_campaign::{
    accuracy_vs_age_table, ecc_comparison_table, run_injection_campaign, InjectCampaignOptions,
    InjectionGrid, InjectionParams, InjectionStore,
};
use dnnlife_core::experiment::{fig11_policies, NetworkKind, Platform, PolicySpec};
use dnnlife_core::RepairPolicy;
use dnnlife_quant::NumberFormat;

mod util;

fn dnn_life() -> PolicySpec {
    PolicySpec::DnnLife {
        bias: 0.5,
        bias_balancing: true,
        m_bits: 4,
    }
}

/// Debug-CI sizing: untrained network, two checkpoints, tiny eval.
fn tiny_params() -> InjectionParams {
    InjectionParams {
        base_seed: 7,
        inferences: 2,
        ages_years: vec![0.0, 7.0],
        trials: 1,
        eval_images: 4,
        train_steps: 0,
        noise_sigma_mv: 65.0,
        repair: RepairPolicy::None,
        tech: dnnlife_core::MemoryTech::SramNbti,
    }
}

fn tiny_grid(policies: &[PolicySpec]) -> InjectionGrid {
    InjectionGrid::build(
        "inject-test",
        Platform::TpuLike,
        NetworkKind::CustomMnist,
        NumberFormat::Int8Symmetric,
        policies,
        &tiny_params(),
    )
}

fn run(grid: &InjectionGrid, path: &Path, threads: usize, resume: bool) {
    let options = InjectCampaignOptions {
        threads,
        resume,
        ..InjectCampaignOptions::default()
    };
    run_injection_campaign(grid, path, &options, None).expect("injection campaign");
}

/// One end-to-end flow covering the store contract: byte-identity
/// across thread counts, interrupted-then-resumed equality, and the
/// rendered accuracy table.
#[test]
fn injection_store_is_deterministic_resumable_and_renders() {
    let dir = util::scratch_dir("inject-smoke");
    let full = tiny_grid(&[PolicySpec::None, PolicySpec::Inversion]);
    let partial = tiny_grid(&[PolicySpec::None]);

    // Clean single-shot reference at one thread...
    let path_1 = dir.join("t1.jsonl");
    run(&full, &path_1, 1, false);
    let bytes_1 = std::fs::read(&path_1).expect("read store 1");
    assert!(!bytes_1.is_empty());

    // ...must match a wide-budget run byte for byte.
    let path_8 = dir.join("t8.jsonl");
    run(&full, &path_8, 8, false);
    assert_eq!(
        bytes_1,
        std::fs::read(&path_8).expect("read store 8"),
        "injection stores must be byte-identical for --threads 1 vs 8"
    );

    // "Interrupted" flow: only the first cell completed, then a resume
    // run finishes the rest and finalizes to the clean bytes.
    let resumed = dir.join("resumed.jsonl");
    run(&partial, &resumed, 1, false);
    let options = InjectCampaignOptions {
        threads: 2,
        resume: true,
        ..InjectCampaignOptions::default()
    };
    let outcome = run_injection_campaign(&full, &resumed, &options, None).expect("resume campaign");
    assert_eq!(outcome.skipped, 1, "the completed cell must be reused");
    assert_eq!(outcome.executed, 1);
    assert_eq!(
        bytes_1,
        std::fs::read(&resumed).unwrap(),
        "a resumed store must finalize to the clean run's bytes"
    );

    // Table rendering over the finished store.
    let store = InjectionStore::open(&path_1).expect("open store");
    assert_eq!(store.len(), 2);
    let table = accuracy_vs_age_table(&store);
    assert!(table.contains("Accuracy vs age"), "{table}");
    assert!(table.contains("Without Aging Mitigation"), "{table}");
    assert!(table.contains("Inversion-based"), "{table}");
    assert!(table.contains("0y") && table.contains("7y"), "{table}");
    assert!(table.contains("mean flipped bits"), "{table}");
    for record in store.records() {
        assert_eq!(record.key, record.spec.content_key());
        assert_eq!(record.result.ages.len(), 2);
    }
}

/// The exact parameter profile the committed pre-repair-axis golden
/// store (`tests/golden/inject_pre_ecc.jsonl`) was generated with:
/// `dnnlife inject --platform npu --format int8 --ages 0,7 --trials 1
/// --eval-images 4 --train-steps 0 --noise-mv 65 --inferences 2
/// --seed 7` — built by the binary at the commit *before* the repair
/// axis existed.
fn golden_params() -> InjectionParams {
    InjectionParams {
        base_seed: 7,
        inferences: 2,
        ages_years: vec![0.0, 7.0],
        trials: 1,
        eval_images: 4,
        train_steps: 0,
        noise_sigma_mv: 65.0,
        repair: RepairPolicy::None,
        tech: dnnlife_core::MemoryTech::SramNbti,
    }
}

fn golden_bytes() -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/inject_pre_ecc.jsonl");
    std::fs::read(path).expect("read committed golden store")
}

/// The repair-axis schema growth must not move a single byte of a
/// `RepairPolicy::None` store: re-running the deterministic policy
/// cells of the golden campaign reproduces the corresponding lines of
/// the pre-repair-axis golden file exactly. (The store finalizes in
/// grid order and scenario seeds are grid-composition-independent, so
/// the two-cell store equals the golden file's first two lines; the
/// nightly tier checks the full four-cell file.)
#[test]
fn none_axis_store_is_byte_identical_to_pre_repair_golden() {
    let dir = util::scratch_dir("inject-golden");
    let grid = InjectionGrid::build(
        "inject",
        Platform::TpuLike,
        NetworkKind::CustomMnist,
        NumberFormat::Int8Symmetric,
        &[PolicySpec::None, PolicySpec::Inversion],
        &golden_params(),
    );
    let path = dir.join("golden-check.jsonl");
    run(&grid, &path, 2, false);
    let produced = std::fs::read(&path).expect("read produced store");
    let golden = golden_bytes();
    let expected: Vec<u8> = golden
        .split_inclusive(|&b| b == b'\n')
        .take(2)
        .flatten()
        .copied()
        .collect();
    assert!(
        produced == expected,
        "RepairPolicy::None store bytes drifted from the pre-repair-axis golden file"
    );
}

/// Nightly tier: the *whole* golden campaign — including the
/// stochastic DNN-Life cell — reproduces the pre-repair-axis store
/// byte for byte.
#[test]
#[ignore = "stride-1 DNN-Life duty simulation; run in the nightly release tier"]
fn full_none_axis_store_matches_pre_repair_golden_bytes() {
    let dir = util::scratch_dir("inject-golden-full");
    let grid = InjectionGrid::build(
        "inject",
        Platform::TpuLike,
        NetworkKind::CustomMnist,
        NumberFormat::Int8Symmetric,
        &fig11_policies(),
        &golden_params(),
    );
    let path = dir.join("golden-full.jsonl");
    run(&grid, &path, 0, false);
    assert!(
        std::fs::read(&path).expect("read produced store") == golden_bytes(),
        "full RepairPolicy::None store drifted from the pre-repair-axis golden file"
    );
}

/// The committed golden stores pin the content-hash contract across
/// PRs: every record's stored key must still equal the hash the
/// current binary derives from its spec, and the key literals
/// themselves must not drift (opening the zoo — deleting the
/// runnable-network gate — must not move a single pre-existing key).
#[test]
fn committed_golden_stores_keep_their_content_keys() {
    let golden_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let expected: [(&str, &[&str]); 2] = [
        (
            "inject_pre_ecc.jsonl",
            &[
                "bc5891dc25fcfcb7",
                "87033a87edbee88d",
                "8822a501fb4c36ee",
                "f87ee536324ae06a",
            ],
        ),
        (
            "inject_alexnet.jsonl",
            &["7582925149461669", "5728daf3853f9456"],
        ),
    ];
    for (file, keys) in expected {
        let store = InjectionStore::open(golden_dir.join(file)).expect(file);
        // `records()` iterates in key order, not file order.
        let mut stored: Vec<&str> = store.records().map(|r| r.key.as_str()).collect();
        stored.sort_unstable();
        let mut keys = keys.to_vec();
        keys.sort_unstable();
        assert_eq!(stored, keys, "{file}: content keys drifted");
        for record in store.records() {
            assert_eq!(
                record.key,
                record.spec.content_key(),
                "{file}: stored key no longer matches the spec's content hash"
            );
        }
    }
}

/// The exact parameter profile of the committed AlexNet golden store
/// (`tests/golden/inject_alexnet.jsonl`), generated with the CLI:
/// `dnnlife inject --network alexnet --platform npu --format int8
/// --policy without,inversion --ages 0,7 --trials 2 --eval-images 4
/// --train-steps 0 --noise-mv 65 --inferences 2 --seed 7`.
fn alexnet_golden_params() -> InjectionParams {
    InjectionParams {
        trials: 2,
        ..golden_params()
    }
}

/// Nightly tier: the im2col-executor-backed AlexNet injection store
/// reproduces the committed golden file byte for byte at both ends of
/// the thread budget. Two trials per cell make the worker split at
/// `--threads 8` real, so this pins both executor determinism (im2col
/// GEMM under a per-image thread budget) and store-order determinism.
#[test]
#[ignore = "runs the full AlexNet forward pass; run in the nightly release tier"]
fn alexnet_store_matches_committed_golden_across_threads() {
    let dir = util::scratch_dir("inject-alexnet-golden");
    let grid = InjectionGrid::build(
        "inject",
        Platform::TpuLike,
        NetworkKind::Alexnet,
        NumberFormat::Int8Symmetric,
        &[PolicySpec::None, PolicySpec::Inversion],
        &alexnet_golden_params(),
    );
    assert_eq!(grid.len(), 2);
    let golden = {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/inject_alexnet.jsonl");
        std::fs::read(path).expect("read committed alexnet golden store")
    };
    for threads in [1, 8] {
        let path = dir.join(format!("alexnet-t{threads}.jsonl"));
        run(&grid, &path, threads, false);
        assert!(
            std::fs::read(&path).expect("read produced store") == golden,
            "alexnet store at --threads {threads} drifted from the committed golden file"
        );
    }
}

/// The `--ecc` twin of the store contract: a SECDED campaign resumed
/// under a different thread count finalizes to the clean run's bytes,
/// and the rendered tables carry the decoder statistics.
#[test]
fn secded_campaign_resume_is_thread_byte_identical_and_renders() {
    let dir = util::scratch_dir("inject-secded");
    let secded = InjectionParams {
        repair: RepairPolicy::Secded { interleave: 1 },
        noise_sigma_mv: 80.0,
        ..tiny_params()
    };
    let policies = [PolicySpec::None, PolicySpec::Inversion];
    let build = |params: &InjectionParams, policies: &[PolicySpec]| {
        InjectionGrid::build(
            "inject-ecc",
            Platform::TpuLike,
            NetworkKind::CustomMnist,
            NumberFormat::Int8Symmetric,
            policies,
            params,
        )
    };
    let full = build(&secded, &policies);
    assert_eq!(full.len(), 2);

    // Clean single-threaded reference.
    let path_1 = dir.join("ecc-t1.jsonl");
    run(&full, &path_1, 1, false);
    let bytes_1 = std::fs::read(&path_1).expect("read store");

    // Interrupted-then-resumed under a different --threads: identical.
    let resumed = dir.join("ecc-resumed.jsonl");
    run(&build(&secded, &policies[..1]), &resumed, 1, false);
    let outcome = run_injection_campaign(
        &full,
        &resumed,
        &InjectCampaignOptions {
            threads: 8,
            resume: true,
            ..InjectCampaignOptions::default()
        },
        None,
    )
    .expect("resume campaign");
    assert_eq!(outcome.skipped, 1);
    assert_eq!(
        bytes_1,
        std::fs::read(&resumed).unwrap(),
        "a resumed --ecc store must finalize to the clean run's bytes \
         regardless of --threads"
    );

    // A combined store (plain + SECDED twins) renders both tables.
    let mut combined = build(&tiny_params_at_80mv(), &policies);
    combined.specs.extend(full.specs.iter().cloned());
    let combined_path = dir.join("ecc-combined.jsonl");
    run(&combined, &combined_path, 2, false);
    let store = InjectionStore::open(&combined_path).expect("open store");
    assert_eq!(store.len(), 4);
    let ages = accuracy_vs_age_table(&store);
    assert!(ages.contains("ecc secded"), "{ages}");
    let ecc_table = ecc_comparison_table(&store);
    assert!(
        ecc_table.contains("SECDED corrected vs uncorrected"),
        "{ecc_table}"
    );
    assert!(ecc_table.contains("uncorrected"), "{ecc_table}");
    assert!(ecc_table.contains("corr/det/esc words"), "{ecc_table}");
    assert!(ecc_table.contains("raw → residual flips"), "{ecc_table}");
    // Both policies paired up.
    assert_eq!(ecc_table.matches("===").count(), 2 * 2, "{ecc_table}");
    // Decoder stats live on the ECC records only.
    for record in store.records() {
        let has_stats = record.result.ages.iter().all(|age| age.ecc.is_some());
        assert_eq!(has_stats, !record.spec.scenario.repair.is_none());
    }
}

fn tiny_params_at_80mv() -> InjectionParams {
    InjectionParams {
        noise_sigma_mv: 80.0,
        ..tiny_params()
    }
}

/// ReRAM-endurance injection at debug-CI scale: store byte-identity
/// across thread counts, hard-fault monotonicity (a fresh die has no
/// wear-outs; an aged one does), and the per-technology table label.
#[test]
fn reram_injection_store_is_deterministic_and_labels_the_tech() {
    let dir = util::scratch_dir("inject-reram");
    let params = InjectionParams {
        tech: dnnlife_core::MemoryTech::ReramEndurance,
        ..tiny_params()
    };
    let grid = InjectionGrid::build(
        "inject-reram",
        Platform::Baseline,
        NetworkKind::CustomMnist,
        NumberFormat::Int8Symmetric,
        &[PolicySpec::None, PolicySpec::WearLevel { epochs: 4 }],
        &params,
    );
    assert_eq!(grid.len(), 2);

    let path_1 = dir.join("t1.jsonl");
    run(&grid, &path_1, 1, false);
    let bytes_1 = std::fs::read(&path_1).expect("read store 1");
    let path_8 = dir.join("t8.jsonl");
    run(&grid, &path_8, 8, false);
    assert_eq!(
        bytes_1,
        std::fs::read(&path_8).expect("read store 8"),
        "reram injection stores must be byte-identical for --threads 1 vs 8"
    );

    let store = InjectionStore::open(&path_1).expect("open store");
    for record in store.records() {
        // The axis is a spec coordinate: keys round-trip and the
        // stored spec carries the technology.
        assert_eq!(record.key, record.spec.content_key());
        assert_eq!(
            record.spec.scenario.tech,
            dnnlife_core::MemoryTech::ReramEndurance
        );
        // Endurance faults are hard wear-outs, not read noise: a fresh
        // die (0 years, zero wear) flips nothing, an aged one does.
        let fresh = &record.result.ages[0];
        let aged = &record.result.ages[1];
        assert_eq!(fresh.years, 0.0);
        assert_eq!(fresh.mean_flipped_bits, 0.0, "no wear at age 0");
        assert!(
            aged.mean_flipped_bits > 0.0,
            "7-year-old reram must have stuck-at flips"
        );
    }
    let table = accuracy_vs_age_table(&store);
    assert!(table.contains("tech reram"), "{table}");
}

/// Nightly tier (acceptance claim of the repair axis): at the default
/// operating point on the trained network, SECDED-protected weight
/// words retain strictly higher accuracy at the 7-year checkpoint
/// than their unprotected twins under the same mitigation policy —
/// repair beats no-repair even *without* duty balancing, and the two
/// axes compose.
#[test]
#[ignore = "trains the CNN; run in the nightly release tier"]
fn trained_secded_strictly_improves_seven_year_accuracy() {
    let dir = util::scratch_dir("inject-secded-nightly");
    let plain_params = InjectionParams::default();
    let secded_params = InjectionParams {
        repair: RepairPolicy::Secded { interleave: 1 },
        ..InjectionParams::default()
    };
    let build = |params: &InjectionParams| {
        InjectionGrid::build(
            "secded-nightly",
            Platform::Baseline,
            NetworkKind::CustomMnist,
            NumberFormat::Int8Symmetric,
            &[PolicySpec::None],
            params,
        )
    };
    let mut grid = build(&plain_params);
    grid.specs.extend(build(&secded_params).specs);
    assert_eq!(grid.len(), 2);
    let path = dir.join("secded-nightly.jsonl");
    run(&grid, &path, 0, false);
    let store = InjectionStore::open(&path).expect("open store");
    let by_repair = |none: bool| {
        store
            .records()
            .find(|r| r.spec.scenario.repair.is_none() == none)
            .expect("both twins present")
    };
    let plain = by_repair(true);
    let ecc = by_repair(false);

    // Same trained network on both sides.
    assert_eq!(plain.result.clean_accuracy, ecc.result.clean_accuracy);
    assert!(plain.result.clean_accuracy > 0.5);

    // ages = [0, 2, 7, 10]; index 2 is the 7-year checkpoint.
    let plain_7y = &plain.result.ages[2];
    let ecc_7y = &ecc.result.ages[2];
    assert_eq!(plain_7y.years, 7.0);
    let stats = ecc_7y.ecc.as_ref().expect("decoder stats");
    // The decoder corrected real errors and let only a small residue
    // through...
    assert!(stats.mean_corrected_words > 0.0);
    assert!(
        stats.mean_residual_flips < 0.25 * plain_7y.mean_flipped_bits,
        "residual {} vs unprotected {}",
        stats.mean_residual_flips,
        plain_7y.mean_flipped_bits
    );
    // ...and the accuracy consequence is strict.
    assert!(
        ecc_7y.mean_accuracy > plain_7y.mean_accuracy,
        "7-year accuracy: secded {} vs unprotected {}",
        ecc_7y.mean_accuracy,
        plain_7y.mean_accuracy
    );
}

/// Nightly tier (acceptance claim of the memory-technology axis): on
/// ReRAM-endurance memory, epoch-rotating wear-leveling retains
/// strictly higher accuracy at the 7-year checkpoint than the
/// unprotected die. Leveling moves every cell's write stress toward
/// the mean duty, and the lognormal endurance CDF is convex over the
/// relevant wear range, so evening the stress strictly reduces the
/// expected dead-cell count — this asserts the accuracy consequence
/// end to end on the trained network.
#[test]
#[ignore = "trains the CNN; run in the nightly release tier"]
fn trained_wear_leveling_beats_unprotected_reram_at_seven_years() {
    let dir = util::scratch_dir("inject-reram-nightly");
    let params = InjectionParams {
        tech: dnnlife_core::MemoryTech::ReramEndurance,
        ..InjectionParams::default()
    };
    let grid = InjectionGrid::build(
        "reram-nightly",
        Platform::Baseline,
        NetworkKind::CustomMnist,
        NumberFormat::Int8Symmetric,
        &[PolicySpec::None, PolicySpec::WearLevel { epochs: 4 }],
        &params,
    );
    assert_eq!(grid.len(), 2);
    let path = dir.join("reram-nightly.jsonl");
    run(&grid, &path, 0, false);
    let store = InjectionStore::open(&path).expect("open store");
    let by_policy = |needle: &str| {
        store
            .records()
            .find(|r| r.spec.scenario.policy.display_name().contains(needle))
            .unwrap_or_else(|| panic!("no record for {needle}"))
    };
    let none = by_policy("Without Aging Mitigation");
    let wl = by_policy("Wear-Leveling");

    assert!(
        none.result.clean_accuracy > 0.5,
        "clean accuracy {}",
        none.result.clean_accuracy
    );
    // At 7 years (ages = [0, 2, 7, 10]) the leveled die has fewer
    // stuck-at flips...
    let none_7y = &none.result.ages[2];
    let wl_7y = &wl.result.ages[2];
    assert_eq!(none_7y.years, 7.0);
    assert!(
        wl_7y.mean_flipped_bits < none_7y.mean_flipped_bits,
        "flips: wear-level {} vs none {}",
        wl_7y.mean_flipped_bits,
        none_7y.mean_flipped_bits
    );
    // ...and the accuracy consequence is strict.
    assert!(
        wl_7y.mean_accuracy > none_7y.mean_accuracy,
        "7-year accuracy: wear-level {} vs none {}",
        wl_7y.mean_accuracy,
        none_7y.mean_accuracy
    );
}

/// The opened zoo's trained claim (nightly `--ignored` tier — trains
/// AlexNet through the im2col executor, ~10 minutes in release): at
/// the 7-year checkpoint DNN-Life retains strictly higher accuracy
/// than the unprotected baseline on the briefly-trained AlexNet.
/// The flip gap is asserted at 1.5× rather than the custom network's
/// 3×: AlexNet's ~61M weights stream through the 512 KB memory in
/// K ≈ 119 fills, which already averages per-word duty across ~119
/// weights and shrinks the unprotected/balanced imbalance.
#[test]
#[ignore = "trains AlexNet; run in the nightly release tier"]
fn trained_alexnet_dnn_life_beats_unprotected_at_seven_years() {
    let dir = util::scratch_dir("inject-alexnet-nightly");
    // The nightly CI profile: `dnnlife inject --network alexnet
    // --platform baseline --ages 0,7 --trials 1 --eval-images 32
    // --train-steps 12 --inferences 2 --noise-mv 65 --seed 7`.
    let params = InjectionParams {
        base_seed: 7,
        inferences: 2,
        ages_years: vec![0.0, 7.0],
        trials: 1,
        eval_images: 32,
        train_steps: 12,
        noise_sigma_mv: 65.0,
        repair: RepairPolicy::None,
        tech: dnnlife_core::MemoryTech::SramNbti,
    };
    let grid = InjectionGrid::build(
        "inject",
        Platform::Baseline,
        NetworkKind::Alexnet,
        NumberFormat::Int8Symmetric,
        &[
            PolicySpec::None,
            PolicySpec::DnnLife {
                bias: 0.7,
                bias_balancing: true,
                m_bits: 4,
            },
        ],
        &params,
    );
    assert_eq!(grid.len(), 2);
    let path = dir.join("alexnet-nightly.jsonl");
    run(&grid, &path, 0, false);
    let store = InjectionStore::open(&path).expect("open store");
    let by_policy = |needle: &str| {
        store
            .records()
            .find(|r| r.spec.scenario.policy.display_name().contains(needle))
            .unwrap_or_else(|| panic!("no record for {needle}"))
    };
    let none = by_policy("Without Aging Mitigation");
    let dnn = by_policy("DNN-Life");

    // 12 steps lift the 1000-way network to the 10-class label range —
    // well short of converged, but enough accuracy to lose.
    assert!(
        none.result.clean_accuracy > 0.0,
        "clean accuracy {}",
        none.result.clean_accuracy
    );
    let none_7y = &none.result.ages[1];
    let dnn_7y = &dnn.result.ages[1];
    assert_eq!(none_7y.years, 7.0);
    assert!(
        none_7y.mean_flipped_bits > 1.5 * dnn_7y.mean_flipped_bits,
        "flips: none {} vs dnn-life {}",
        none_7y.mean_flipped_bits,
        dnn_7y.mean_flipped_bits
    );
    assert!(
        dnn_7y.mean_accuracy > none_7y.mean_accuracy,
        "7-year accuracy: dnn-life {} vs none {}",
        dnn_7y.mean_accuracy,
        none_7y.mean_accuracy
    );
}

/// The paper's headline consequence, end to end (nightly `--ignored`
/// tier — trains the network, so it wants release mode): at the 7-year
/// checkpoint the DNN-Life policy retains strictly higher accuracy
/// than the unprotected baseline on the trained custom network.
#[test]
#[ignore = "trains the CNN; run in the nightly release tier"]
fn trained_dnn_life_beats_unprotected_baseline_at_seven_years() {
    let dir = util::scratch_dir("inject-nightly");
    // Exactly the `dnnlife inject --platform baseline` default profile
    // (InjectionParams::default()), so this asserts over the same
    // deterministic records the README table documents.
    let params = InjectionParams::default();
    let grid = InjectionGrid::build(
        "inject-nightly",
        Platform::Baseline,
        NetworkKind::CustomMnist,
        NumberFormat::Int8Symmetric,
        &[PolicySpec::None, dnn_life()],
        &params,
    );
    let path = dir.join("nightly.jsonl");
    run(&grid, &path, 0, false);
    let store = InjectionStore::open(&path).expect("open store");
    let by_policy = |needle: &str| {
        store
            .records()
            .find(|r| r.spec.scenario.policy.display_name().contains(needle))
            .unwrap_or_else(|| panic!("no record for {needle}"))
    };
    let none = by_policy("Without Aging Mitigation");
    let dnn = by_policy("DNN-Life");

    // The trained quantized network is well above chance.
    assert!(
        none.result.clean_accuracy > 0.5,
        "clean accuracy {}",
        none.result.clean_accuracy
    );
    // At 7 years (ages = [0, 2, 7, 10]) the unprotected memory has
    // flipped far more bits...
    let none_7y = &none.result.ages[2];
    let dnn_7y = &dnn.result.ages[2];
    assert_eq!(none_7y.years, 7.0);
    assert!(
        none_7y.mean_flipped_bits > 3.0 * dnn_7y.mean_flipped_bits,
        "flips: none {} vs dnn-life {}",
        none_7y.mean_flipped_bits,
        dnn_7y.mean_flipped_bits
    );
    // ...and the accuracy consequence is strict.
    assert!(
        dnn_7y.mean_accuracy > none_7y.mean_accuracy,
        "7-year accuracy: dnn-life {} vs none {}",
        dnn_7y.mean_accuracy,
        none_7y.mean_accuracy
    );
}
