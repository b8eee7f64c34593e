//! `perfbench`: one measured campaign run, or the traced decomposition
//! of one, in its own process.
//!
//! ```text
//! perfbench run   --workload <name> --seed <n> --store <path> --threads <n>
//! perfbench trace --workload <name> --seed <n> --store <path> --threads <n> \
//!                 --wall-s <s> --cpu-s <s>
//! ```
//!
//! Each prints one JSON object as its last line of standard output.
//! `run.py` in this directory runs both and aggregates their results.

use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use dnnlife_perfbench::{
    check_store, trace_campaign, Campaign, Failure, Scale, Untraced, Workload,
};
use serde::{Serialize, Value};

/// Clock ticks per second of `/proc/<pid>/stat` CPU times (Linux `USER_HZ`).
const USER_HZ: f64 = 100.0;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match cli(&argv) {
        Ok(out) => {
            println!(
                "{}",
                serde_json::to_string(&Value::Object(out)).expect("results serialize")
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    store: PathBuf,
    threads: usize,
    wall_s: f64,
    cpu_s: f64,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut flags = std::collections::BTreeMap::new();
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag `{}` has no value", pair[0]));
        };
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |flag: &str| {
        flags
            .get(flag)
            .copied()
            .ok_or(format!("{flag} is required"))
    };
    let number = |flag: &str| -> Result<f64, String> {
        flags
            .get(flag)
            .map_or(Ok(0.0), |v| v.parse().map_err(|e| format!("{flag}: {e}")))
    };
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload `{workload}`"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        store: PathBuf::from(get("--store")?),
        threads: get("--threads")?
            .parse()
            .map_err(|e| format!("--threads: {e}"))?,
        wall_s: number("--wall-s")?,
        cpu_s: number("--cpu-s")?,
    })
}

fn cli(argv: &[String]) -> Result<Vec<(String, Value)>, String> {
    let (mode, rest) = argv
        .split_first()
        .ok_or("usage: perfbench run|trace --workload ...")?;
    let args = parse(rest)?;
    let campaign = Campaign::build(args.workload, args.seed, Scale::Full);
    match mode.as_str() {
        "run" => run(&campaign, &args),
        "trace" => Ok(trace(&campaign, &args)),
        other => Err(format!("unknown mode `{other}`")),
    }
}

/// The measured call, its host costs, and the output checks.
fn run(campaign: &Campaign, args: &Args) -> Result<Vec<(String, Value)>, String> {
    let call_unix_ns = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_err(|e| e.to_string())?
        .as_nanos() as f64;
    let cpu_before = cpu_seconds()?;
    let call = Instant::now();
    let outcome =
        std::panic::catch_unwind(AssertUnwindSafe(|| campaign.run(&args.store, args.threads)));
    let wall_s = call.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds()? - cpu_before;

    let mut checked = check_store(campaign, &args.store);
    match outcome {
        Ok(Ok(())) => {}
        Ok(Err(e)) => checked
            .failures
            .push(Failure::new("campaign", e.to_string())),
        Err(_) => checked.failures.push(Failure::new("campaign", "panicked")),
    }
    let digests: Vec<(String, Value)> = checked
        .digests
        .iter()
        .map(|(key, digest)| (key.clone(), format!("{digest:016x}").to_value()))
        .collect();
    Ok(vec![
        ("attempted".into(), campaign.len().to_value()),
        (
            "failed".into(),
            checked.failed().min(campaign.len()).to_value(),
        ),
        ("failures".into(), reasons(&checked.failures)),
        ("call_unix_ns".into(), call_unix_ns.to_value()),
        ("wall_s".into(), wall_s.to_value()),
        ("cpu_s".into(), cpu_s.to_value()),
        ("peak_rss_mb".into(), peak_rss_mb()?.to_value()),
        ("digests".into(), Value::Object(digests)),
    ])
}

/// The traced decomposition, set against the untraced run's figures.
fn trace(campaign: &Campaign, args: &Args) -> Vec<(String, Value)> {
    let untraced = Untraced {
        wall_s: args.wall_s,
        cpu_s: args.cpu_s,
        threads: args.threads,
        store: &args.store,
    };
    let traced = trace_campaign(campaign, &untraced);
    let metrics = traced
        .metrics
        .iter()
        .map(|(name, value)| (name.to_string(), value.to_value()))
        .collect();
    vec![
        ("attempted".into(), campaign.len().to_value()),
        (
            "failed".into(),
            dnnlife_perfbench::check::distinct_keys(&traced.failures)
                .min(campaign.len())
                .to_value(),
        ),
        ("failures".into(), reasons(&traced.failures)),
        ("metrics".into(), Value::Object(metrics)),
    ]
}

fn reasons(failures: &[Failure]) -> Value {
    failures
        .iter()
        .map(|f| format!("{}: {}", f.key, f.reason))
        .collect::<Vec<_>>()
        .to_value()
}

/// User + system CPU seconds of this process, all threads included.
fn cpu_seconds() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name, from field 3 (state):
    // utime and stime are fields 14 and 15.
    let rest = stat
        .rsplit_once(')')
        .ok_or("/proc/self/stat: no command name")?
        .1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or(format!("/proc/self/stat: field {} unreadable", i + 3))
    };
    Ok((ticks(11)? + ticks(12)?) / USER_HZ)
}

/// The process's resident-set high-water mark in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "/proc/self/status: no VmHWM".to_string())
}
