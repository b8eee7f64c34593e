//! The benchmark's own checks, on tiny grids (stride 1024, 2 inferences,
//! 1 trial) where the check allows. Run with `cargo test --release
//! --manifest-path perfbench/Cargo.toml`; debug builds take minutes.

use std::path::{Path, PathBuf};

use dnnlife_campaign::{ResultStore, ScenarioRecord};
use dnnlife_core::experiment::PolicySpec;
use dnnlife_nn::zoo::build_network;
use dnnlife_nn::NetworkSpec;
use dnnlife_perfbench::trace::weight_layers;
use dnnlife_perfbench::{check_store, trace_campaign, Campaign, Scale, Untraced, Workload};

const SEED: u64 = 7;

fn store_path(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-tests");
    std::fs::create_dir_all(&dir).expect("test scratch dir");
    dir.join(format!("{name}.jsonl"))
}

/// Runs `workload`'s tiny campaign into a fresh store.
fn run_tiny(workload: Workload) -> (Campaign, PathBuf) {
    let campaign = Campaign::build(workload, SEED, Scale::Tiny);
    let store = store_path(workload.name());
    campaign.run(&store, 2).expect("tiny campaign runs");
    (campaign, store)
}

fn trace(campaign: &Campaign, store: &Path) -> dnnlife_perfbench::Traced {
    let untraced = Untraced {
        wall_s: 1.0,
        cpu_s: 1.0,
        threads: 2,
        store,
    };
    trace_campaign(campaign, &untraced)
}

#[test]
fn traced_sweeps_reproduce_run_experiment_cell_counts() {
    for workload in [Workload::SweepFig9Exact, Workload::SweepFig11Analytic] {
        let (campaign, store) = run_tiny(workload);
        let traced = trace(&campaign, &store);
        // Each scenario's traced simulators must yield the cells
        // `run_experiment_with` reported, or the trace reports a failure.
        assert!(traced.failures.is_empty(), "{:?}", traced.failures);
        let m = &traced.metrics;
        let stored_cells: u64 = ResultStore::open(&store)
            .expect("store opens")
            .records()
            .map(|r| r.result.cells)
            .sum();
        assert!(stored_cells > 0);
        let (busy, idle) = match workload {
            Workload::SweepFig9Exact => ("accel.exact", "accel.analytic"),
            _ => ("accel.analytic", "accel.exact"),
        };
        assert!(m.get(&format!("{busy}.sim_ms")).unwrap() > 0.0);
        assert_eq!(m.get(&format!("{idle}.sim_ms")), Some(0.0));
        if workload == Workload::SweepFig11Analytic {
            assert_eq!(m.get("accel.analytic.cells"), Some(stored_cells as f64));
        }
        for (name, value) in m.iter() {
            if name.starts_with("faultsim.")
                || name.starts_with("nn.layer.")
                || name.starts_with("nn.score")
            {
                assert_eq!(value, 0.0, "{name} must be idle on {}", workload.name());
            }
        }
        assert!(m.get("nn.weights.range_weights").unwrap() > 0.0);
    }
}

#[test]
fn traced_injection_reproduces_clean_accuracy() {
    let (campaign, store) = run_tiny(Workload::InjectEcc);
    let traced = trace(&campaign, &store);
    // The traced clean score must equal each cell's `run_injection`
    // clean accuracy bit for bit, or the trace reports a failure.
    assert!(traced.failures.is_empty(), "{:?}", traced.failures);
    let m = &traced.metrics;
    for busy in [
        "faultsim.train_ms",
        "faultsim.cell_ms",
        "faultsim.duty_ms",
        "nn.score_ms",
    ] {
        assert!(m.get(busy).unwrap() > 0.0, "{busy}");
    }
    for idle in [
        "accel.plan.build_ms",
        "accel.exact.sim_ms",
        "accel.analytic.sim_ms",
        "nn.weights.range_ms",
    ] {
        assert_eq!(m.get(idle), Some(0.0), "{idle}");
    }
    // GMAC/s is the spec's MAC count over the timed forward pass.
    let spec = NetworkSpec::custom_mnist();
    for layer in spec.layers() {
        let name = layer.name();
        let ms = m.get(&format!("nn.layer.{name}.forward_ms")).unwrap();
        let rate = m
            .get(&format!("nn.layer.{name}.forward_gmac_per_s"))
            .unwrap();
        let images = 20.0; // the tiny grid's eval images
        let macs = rate * 1e9 * ms / 1e3 / images;
        assert!(
            (macs - layer.macs() as f64).abs() < 1e-6 * macs,
            "{name}: {macs}"
        );
    }
}

#[test]
fn per_layer_macs_sum_to_the_network_total() {
    let spec = NetworkSpec::custom_mnist();
    let mut net = build_network(&spec, SEED);
    let layers = weight_layers(&mut net, &spec);
    assert_eq!(
        layers.len(),
        spec.layers().len(),
        "every weight layer is timed"
    );
    let macs: u64 = layers.iter().map(|(_, l)| l.macs()).sum();
    assert_eq!(macs, spec.macs());
}

fn write_store(path: &Path, records: &[ScenarioRecord]) {
    let text: String = records
        .iter()
        .map(|r| serde_json::to_string(r).expect("records serialize") + "\n")
        .collect();
    std::fs::write(path, text).expect("store writes");
}

#[test]
fn checker_flags_a_corrupted_store() {
    // Full size: at 2 inferences some DNN-Life cells still sit at the
    // worst duty, so the tiny grid cannot pass the SRAM panel check.
    let campaign = Campaign::build(Workload::SweepFig11Analytic, SEED, Scale::Full);
    let store = store_path("fig11-full");
    campaign.run(&store, 2).expect("campaign runs");
    let clean = check_store(&campaign, &store);
    assert!(clean.failures.is_empty(), "{:?}", clean.failures);
    assert_eq!(clean.digests.len(), campaign.len());
    let records: Vec<ScenarioRecord> = ResultStore::open(&store)
        .expect("store opens")
        .records()
        .cloned()
        .collect();
    let corrupted = store_path("corrupted");

    // A dropped record: missing scenario and a short store.
    write_store(&corrupted, &records[1..]);
    let checked = check_store(&campaign, &corrupted);
    assert!(checked.failures.iter().any(|f| f.key == records[0].key));
    assert!(checked.failures.iter().any(|f| f.key == "store"));

    // A changed result: the digest no longer matches the clean run's.
    let mut edited = records.clone();
    edited[0].result.blocks_per_inference += 1;
    write_store(&corrupted, &edited);
    let checked = check_store(&campaign, &corrupted);
    assert_ne!(
        checked.digests[&records[0].key],
        clean.digests[&records[0].key]
    );

    // DNN-Life no better than Without on an SRAM panel.
    let mut edited = records.clone();
    let without = edited
        .iter()
        .position(|r| r.spec.policy == PolicySpec::None && r.spec.tech.is_default())
        .expect("a Without scenario");
    let dnn = edited
        .iter()
        .position(|r| {
            matches!(r.spec.policy, PolicySpec::DnnLife { .. })
                && r.spec.tech.is_default()
                && r.spec.network == edited[without].spec.network
        })
        .expect("its DNN-Life twin");
    edited[dnn].result = edited[without].result.clone();
    write_store(&corrupted, &edited);
    let checked = check_store(&campaign, &corrupted);
    assert!(
        checked.failures.iter().any(|f| f.key == edited[dnn].key),
        "{:?}",
        checked.failures
    );

    // Garbage mid-file: the store is unreadable and every scenario fails.
    let mut text = std::fs::read_to_string(&store).expect("store reads");
    text.insert_str(text.find('\n').expect("a full line") + 1, "{not json}\n");
    std::fs::write(&corrupted, text).expect("store writes");
    assert_eq!(check_store(&campaign, &corrupted).failed(), campaign.len());
}
