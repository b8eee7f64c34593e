//! Store-hash pins of the fault-injection read path over the cells the
//! golden stores leave out.
//!
//! The goldens pin unprotected SRAM cells on the NPU, DNN-Life with
//! SECDED on the baseline memory, and (nightly) the full NPU policy
//! set. These pins add trials with flips under every branch of the
//! per-word fault path: the barrel shifter, whose read rotation draws
//! from the trial stream between words, with and without SECDED on
//! both memory technologies; wear-leveling on ReRAM with and without
//! SECDED; and fp32 words under an interleaved SECDED layout
//! (`secded:2`, 39-bit codewords) with and without the barrel shifter
//! on both technologies. Each case hashes (FNV-1a) the finalized store
//! bytes of one `dnnlife inject` run; the run is made at one and at two
//! worker threads, which must agree. The literals were recorded by the
//! injector that decoded all non-rotating SRAM trials and every ReRAM
//! trial through a separate batch SECDED decoder, so any change that
//! moves a stored byte of these cells fails here.

use std::path::Path;

use dnnlife_campaign::InjectionStore;

mod util;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &byte| {
        (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Debug-CI sizing on the baseline memory: untrained network, a 2- and
/// a 7-year checkpoint, two trials (so the two-thread run splits them),
/// a read noise high enough that every SRAM trial flips bits.
const PROFILE: [&str; 16] = [
    "--platform",
    "baseline",
    "--trials",
    "2",
    "--ages",
    "2,7",
    "--eval-images",
    "16",
    "--train-steps",
    "0",
    "--inferences",
    "2",
    "--noise-mv",
    "70",
    "--seed",
    "11",
];

fn store_hash(dir: &Path, cell_args: &[&str], cells: usize, threads: usize) -> u64 {
    let out = dir.join(format!("t{threads}.jsonl"));
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_dnnlife"))
        .arg("inject")
        .args(PROFILE)
        .args(cell_args)
        .args(["--threads", &threads.to_string(), "--out"])
        .arg(&out)
        .env_remove("DNNLIFE_MNIST_DIR")
        .stdout(std::process::Stdio::null())
        .status()
        .expect("spawn dnnlife inject");
    assert!(status.success(), "dnnlife inject exited with {status}");
    if threads == 1 {
        // Every cell must exercise the fault path it pins: the aged
        // trials flip cells, and each SECDED cell's decoder corrects
        // words.
        let store = InjectionStore::open(&out).expect("open store");
        assert_eq!(store.len(), cells, "cell count");
        for record in store.records() {
            let age = record.result.ages.last().expect("an age");
            assert!(age.mean_flipped_bits > 0.0, "{}: no flips", record.key);
            if let Some(ecc) = &age.ecc {
                assert!(
                    ecc.mean_corrected_words > 0.0,
                    "{}: no corrections",
                    record.key
                );
            }
        }
    }
    fnv1a(&std::fs::read(&out).expect("read store"))
}

/// Runs one inject command at one and two threads and checks both
/// store hashes.
fn check(tag: &str, cell_args: &[&str], cells: usize, want: u64) {
    let dir = util::scratch_dir(tag);
    for threads in [1usize, 2] {
        let got = store_hash(&dir, cell_args, cells, threads);
        assert_eq!(
            got, want,
            "{tag}: threads={threads}: store bytes moved; got 0x{got:016x}"
        );
    }
}

#[test]
fn barrel_shifter_plain_and_secded_stores_are_pinned_on_both_techs() {
    check(
        "inject-pins-barrel",
        &["--policy", "barrel", "--ecc", "both", "--tech", "both"],
        4,
        0x7707_786c_e5ce_de7c,
    );
}

#[test]
fn reram_wear_leveling_plain_and_secded_stores_are_pinned() {
    check(
        "inject-pins-wear-level",
        &["--policy", "wear-level", "--ecc", "both", "--tech", "reram"],
        2,
        0x02ff_179b_f401_dd05,
    );
}

#[test]
fn fp32_interleaved_secded_stores_are_pinned_on_both_techs() {
    check(
        "inject-pins-fp32",
        &[
            "--format",
            "fp32",
            "--policy",
            "without,barrel",
            "--ecc",
            "secded:2",
            "--tech",
            "both",
        ],
        4,
        0x252f_3bd9_0246_5c02,
    );
}
