//! `repro` argument errors: a usage message and exit code 2, never a
//! panic.

use std::process::Command;

#[test]
fn bad_arguments_exit_2_with_usage_and_no_panic() {
    for args in [
        &["fig7", "--seed"][..],
        &["fig7", "--seed", "x"],
        &["fig7", "--bogus"],
        &["bogus"],
        &[],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
    }
}

#[test]
fn a_valid_seed_runs() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig7", "--seed", "3"])
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("Fig. 7"));
}
