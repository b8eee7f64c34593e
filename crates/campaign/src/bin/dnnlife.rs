//! `dnnlife` — campaign CLI: sweep scenario grids in parallel, report
//! aggregated tables, compare result stores, cross-validate the
//! analytic and exact simulators.
//!
//! ```text
//! dnnlife sweep --grid <fig9|fig11|bias|mbits|full> [--threads N]
//!               [--out FILE] [--resume] [--seed N] [--stride N]
//!               [--inferences N] [--backend analytic|exact]
//!               [--dwell uniform|layer|zipf[:EXP]|custom:F1,F2,...]
//!               [--ecc none|secded[:INTERLEAVE]|both]
//!               [--tech sram|reram|both]
//!               [--shards auto|N] [--verbose]
//! dnnlife report --store FILE [--table fig9|fig11|bias|mbits|detail|all]
//! dnnlife compare --store-a FILE --store-b FILE
//! dnnlife validate --grid <fig9|fig11|bias|mbits|full> [--threads N]
//!                  [--seed N] [--stride N] [--inferences N]
//!                  [--dwell MODEL] [--tech sram|reram|both]
//!                  [--shards auto|N] [--report-only]
//! ```
//!
//! `sweep` is resumable: results are journaled per scenario, so a
//! killed sweep re-run with `--resume` executes only the missing
//! scenarios — and the finalized store is byte-identical to a clean
//! single-threaded run regardless of `--threads`. The budget is
//! two-level: threads left over by a narrow grid are handed to the
//! in-flight simulators (analytic cell shards / exact word shards)
//! instead of idling. `--shards` controls the exact backend's word
//! sharding: deterministic policies are bit-identical at any value,
//! while DNN-Life deals one seed-derived TRBG stream per shard, so the
//! default `auto` (a machine-independent function of the sampled word
//! count) keeps every store reproducible.
//!
//! `validate` fans scenario pairs across `--threads` workers and runs
//! each pair's exact side at `--shards`; it reports per-cell duty
//! divergence. Under the default uniform dwell it enforces the
//! documented tolerances and fails loudly on disagreement; with a
//! non-uniform `--dwell` the reported divergence measures how much the
//! paper's equal-residency assumption (b) distorts each scenario, and
//! no tolerance applies.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

use dnnlife_campaign::aggregate;
use dnnlife_campaign::grid::SweepOptions;
use dnnlife_campaign::perf;
use dnnlife_campaign::{
    accuracy_vs_age_table, ecc_comparison_table, run_campaign, run_injection_campaign,
    validate_scenarios, CampaignGrid, CampaignOptions, InjectCampaignOptions, InjectionGrid,
    InjectionParams, InjectionStore, Instrumentation, Progress, ResultStore, ShardPolicy,
    Telemetry,
};
use dnnlife_core::experiment::{NetworkKind, Platform, PolicySpec};
use dnnlife_core::{DwellModel, MemoryTech, RepairPolicy, SimulatorBackend};
use dnnlife_quant::NumberFormat;
use serde::Serialize;

/// Raised by the SIGINT handler; every long-running subcommand polls
/// it through the campaign cancellation plumbing, so Ctrl-C aborts
/// in-flight scenarios / cross-validation pairs / injection trials
/// mid-scenario instead of killing the process with a half-written
/// journal line.
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_sigint_handler() {
    unsafe extern "C" fn on_sigint(_signum: i32) {
        // Async-signal-safe: one atomic store. The handler stays
        // installed, so repeated Ctrl-C just re-raises the flag while
        // the graceful abort (one block of the exact simulator, one
        // SGD step, one injection trial) finishes.
        INTERRUPTED.store(true, Ordering::SeqCst);
    }
    unsafe extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    unsafe {
        signal(SIGINT, on_sigint as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_sigint_handler() {}

/// Exit code for a missing or empty result/events store — distinct
/// from general errors (2) so scripts and CI can branch on "nothing to
/// report yet" without string-matching stderr.
const EXIT_NO_STORE: u8 = 3;

/// A subcommand failure: exit code plus message. `From<String>` maps
/// plain errors to the general code 2; [`CliError::store`] marks the
/// missing/empty-store outcome (3). A raised SIGINT flag overrides
/// either with the conventional 130.
struct CliError {
    code: u8,
    message: String,
}

impl CliError {
    fn store(message: impl Into<String>) -> Self {
        Self {
            code: EXIT_NO_STORE,
            message: message.into(),
        }
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        Self { code: 2, message }
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        Self::from(message.to_string())
    }
}

fn main() -> ExitCode {
    install_sigint_handler();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let outcome = match command.as_str() {
        "sweep" => sweep(rest),
        "report" => report(rest),
        "compare" => compare(rest),
        "validate" => validate(rest),
        "inject" => inject(rest),
        "perf" => perf_command(rest),
        "trace" => trace_command(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}").into()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("dnnlife: {}", error.message);
            if INTERRUPTED.load(Ordering::SeqCst) {
                return ExitCode::from(130); // conventional SIGINT exit
            }
            ExitCode::from(error.code)
        }
    }
}

const USAGE: &str = "\
usage:
  dnnlife sweep --grid <fig9|fig11|bias|mbits|full> [--threads N] [--out FILE]
                [--resume] [--seed N] [--stride N] [--inferences N]
                [--backend analytic|exact]
                [--dwell uniform|layer|zipf[:EXP]|custom:F1,F2,...]
                [--ecc none|secded[:INTERLEAVE]|both] [--tech sram|reram|both]
                [--shards auto|N] [--telemetry] [--progress]
                [--metrics-out FILE] [--verbose]
  dnnlife report --store FILE [--table fig9|fig11|bias|mbits|detail|all] [--json]
  dnnlife compare --store-a FILE --store-b FILE [--json]
  dnnlife validate --grid <fig9|fig11|bias|mbits|full> [--threads N] [--seed N]
                   [--stride N] [--inferences N] [--dwell MODEL]
                   [--tech sram|reram|both] [--shards auto|N]
                   [--telemetry] [--progress] [--metrics-out FILE]
                   [--report-only]
  dnnlife inject [--platform baseline|npu] [--network alexnet|vgg16|custom-mnist]
                 [--format fp32|int8|int8-asym]
                 [--policy SUB[,SUB,...]] [--ecc none|secded[:INTERLEAVE]|both]
                 [--tech sram|reram|both]
                 [--ages Y1,Y2,...] [--trials N] [--eval-images N]
                 [--train-steps N] [--noise-mv F] [--inferences N] [--seed N]
                 [--threads N] [--shards auto|N] [--out FILE] [--resume]
                 [--telemetry] [--progress] [--metrics-out FILE] [--verbose]
  dnnlife inject --report --store FILE [--json]
  dnnlife perf --events FILE [--diff FILE] [--json] [--top N]
               [--baseline FILE --max-regression F]
  dnnlife trace --events FILE [--json]

exit codes: 0 ok; 2 error; 3 store/journal missing or empty; 130 interrupted
`--telemetry` journals machine-readable events next to the store
(STORE.events.jsonl — the input of `dnnlife perf` and `dnnlife trace`);
`--progress` draws a live done/total/ETA line on a stderr TTY and
degrades to periodic plain lines when stderr is redirected;
`--metrics-out FILE` (sweep/validate/inject) writes a Prometheus text
exposition of the run's metrics registry plus a `.json` twin. None of
them ever changes results: stores stay byte-identical with telemetry on
or off.";

/// Minimal `--flag [value]` argument cursor.
struct Args<'a> {
    argv: &'a [String],
    index: usize,
}

impl<'a> Args<'a> {
    fn new(argv: &'a [String]) -> Self {
        Self { argv, index: 0 }
    }

    fn next_flag(&mut self) -> Option<&'a str> {
        let arg = self.argv.get(self.index)?;
        self.index += 1;
        Some(arg.as_str())
    }

    fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        let value = self
            .argv
            .get(self.index)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        self.index += 1;
        Ok(value.as_str())
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        self.value(flag)?
            .parse()
            .map_err(|_| format!("{flag}: invalid value"))
    }
}

/// The telemetry journal path derived from a result-store path:
/// `campaign-results/fig9.jsonl` → `campaign-results/fig9.events.jsonl`
/// (non-`.jsonl` stores just gain the suffix).
fn events_path_for(store_path: &str) -> String {
    match store_path.strip_suffix(".jsonl") {
        Some(stem) => format!("{stem}.events.jsonl"),
        None => format!("{store_path}.events.jsonl"),
    }
}

/// The owning halves of an [`Instrumentation`] handle, built from the
/// `--telemetry` / `--progress` / `--metrics-out` flags (the subcommand
/// keeps them alive for the campaign's duration and borrows them into
/// the executor). `--metrics-out` without `--telemetry` still needs a
/// live registry, so it gets an in-memory telemetry with no journal.
fn build_sinks(
    telemetry_on: bool,
    progress_on: bool,
    metrics_on: bool,
    events_path: &str,
    label: &str,
) -> Result<(Option<Telemetry>, Option<Progress>), CliError> {
    let telemetry = if telemetry_on {
        Some(
            Telemetry::with_journal(events_path)
                .map_err(|e| format!("--telemetry: cannot open `{events_path}`: {e}"))?,
        )
    } else if metrics_on {
        Some(Telemetry::in_memory())
    } else {
        None
    };
    let progress = progress_on.then(|| Progress::stderr(label, 0));
    Ok((telemetry, progress))
}

/// The JSON twin path of a Prometheus exposition file:
/// `metrics.prom` → `metrics.json` (other extensions just gain `.json`).
fn metrics_json_twin(path: &str) -> String {
    match path.strip_suffix(".prom") {
        Some(stem) => format!("{stem}.json"),
        None => format!("{path}.json"),
    }
}

/// Writes the run's metrics registry as Prometheus text exposition at
/// `path` plus a JSON twin next to it. A no-op without a telemetry
/// sink (the flag parser always builds one when `--metrics-out` is
/// set).
fn write_metrics_out(telemetry: Option<&Telemetry>, path: Option<&str>) -> Result<(), CliError> {
    let (Some(telemetry), Some(path)) = (telemetry, path) else {
        return Ok(());
    };
    let snapshot = telemetry.metrics_snapshot();
    std::fs::write(path, snapshot.render_prometheus())
        .map_err(|e| format!("--metrics-out: cannot write `{path}`: {e}"))?;
    let twin = metrics_json_twin(path);
    let json = serde_json::to_string(&snapshot.to_value()).expect("metrics serialize");
    std::fs::write(&twin, json)
        .map_err(|e| format!("--metrics-out: cannot write `{twin}`: {e}"))?;
    println!("metrics -> {path} + {twin}");
    Ok(())
}

fn sweep(argv: &[String]) -> Result<(), CliError> {
    let mut grid_name: Option<String> = None;
    let mut out: Option<String> = None;
    let mut options = CampaignOptions::default();
    let mut sweep_options = SweepOptions::default();
    let mut repairs = vec![RepairPolicy::None];
    let mut techs: Vec<MemoryTech> = Vec::new();
    let mut telemetry_on = false;
    let mut progress_on = false;
    let mut metrics_out: Option<String> = None;

    let mut args = Args::new(argv);
    while let Some(flag) = args.next_flag() {
        match flag {
            "--grid" => grid_name = Some(args.value("--grid")?.to_string()),
            "--out" => out = Some(args.value("--out")?.to_string()),
            "--threads" => options.threads = args.parsed("--threads")?,
            "--resume" => options.resume = true,
            "--verbose" => options.verbose = true,
            "--telemetry" => telemetry_on = true,
            "--progress" => progress_on = true,
            "--metrics-out" => metrics_out = Some(args.value("--metrics-out")?.to_string()),
            "--seed" => sweep_options.base_seed = args.parsed("--seed")?,
            "--stride" => sweep_options.sample_stride = args.parsed("--stride")?,
            "--inferences" => sweep_options.inferences = args.parsed("--inferences")?,
            "--backend" => sweep_options.backend = parse_backend(args.value("--backend")?)?,
            "--dwell" => sweep_options.dwell = parse_dwell(args.value("--dwell")?)?,
            "--ecc" => repairs = parse_ecc(args.value("--ecc")?)?,
            "--tech" => techs = parse_tech(args.value("--tech")?)?,
            "--shards" => options.shards = parse_shards(args.value("--shards")?)?,
            other => return Err(format!("sweep: unexpected argument `{other}`").into()),
        }
    }
    let grid_name = grid_name.ok_or("sweep: --grid is required")?;
    if sweep_options.sample_stride == 0 {
        return Err("sweep: --stride must be >= 1".into());
    }
    if sweep_options.inferences == 0 {
        return Err("sweep: --inferences must be >= 1".into());
    }
    if !sweep_options.dwell.is_uniform() && sweep_options.backend != SimulatorBackend::Exact {
        return Err(format!(
            "sweep: --dwell {} needs --backend exact (the analytic closed forms \
             assume equal residency — paper assumption (b))",
            sweep_options.dwell.display_name()
        )
        .into());
    }
    let grid = CampaignGrid::named_with_axes(&grid_name, sweep_options.clone(), &repairs, &techs)
        .ok_or_else(|| {
        format!("sweep: unknown grid `{grid_name}` (fig9|fig11|bias|mbits|full)")
    })?;
    if grid.is_empty() {
        return Err(format!(
            "sweep: grid `{grid_name}` has no valid scenarios for these axes \
             (check --backend/--dwell: custom factors must match the network's layer \
             count; check --ecc: the SECDED interleave must be coprime with the \
             codeword width — 13 for 8-bit words, 39 for fp32)"
        )
        .into());
    }
    // The like-for-like reference for repair-drop diagnostics: the
    // same grid under no repair (everything else equal, including the
    // technology axis).
    let no_repair_cells = CampaignGrid::named_with_axes(
        &grid_name,
        sweep_options.clone(),
        &[RepairPolicy::None],
        &techs,
    )
    .map_or(0, |g| g.len());
    check_repair_coverage("sweep", &repairs, no_repair_cells, |repair| {
        grid.scenarios.iter().filter(|s| s.repair == repair).count()
    })?;
    warn_on_dwell_dropped_scenarios("sweep", &grid_name, &grid, &sweep_options, &repairs, &techs);
    let store_path = out.unwrap_or_else(|| format!("campaign-results/{grid_name}.jsonl"));
    let events = events_path_for(&store_path);
    let (telemetry, progress) = build_sinks(
        telemetry_on,
        progress_on,
        metrics_out.is_some(),
        &events,
        &format!("sweep {grid_name}"),
    )?;
    options.cancel = Some(&INTERRUPTED);
    options.instr = Instrumentation {
        telemetry: telemetry.as_ref(),
        progress: progress.as_ref(),
    };

    let started = std::time::Instant::now();
    let outcome = run_campaign(&grid, &store_path, &options).map_err(|e| e.to_string())?;
    println!(
        "campaign `{grid_name}`: {} executed, {} skipped, {} thread(s), {:.1}s -> {store_path}",
        outcome.executed,
        outcome.skipped,
        outcome.threads,
        started.elapsed().as_secs_f64(),
    );
    if telemetry_on {
        println!("telemetry -> {events}");
    }
    write_metrics_out(telemetry.as_ref(), metrics_out.as_deref())?;
    Ok(())
}

/// Opens a result/injection-style store path for a read-only command,
/// mapping "file does not exist" to the distinct [`EXIT_NO_STORE`]
/// outcome *before* `open` (which would create an empty file) runs.
fn require_store_file(command: &str, store_path: &str) -> Result<(), CliError> {
    if !std::path::Path::new(store_path).exists() {
        return Err(CliError::store(format!(
            "{command}: no store at `{store_path}`"
        )));
    }
    Ok(())
}

fn report(argv: &[String]) -> Result<(), CliError> {
    let mut store_path: Option<String> = None;
    let mut table = "all".to_string();
    let mut json = false;
    let mut args = Args::new(argv);
    while let Some(flag) = args.next_flag() {
        match flag {
            "--store" => store_path = Some(args.value("--store")?.to_string()),
            "--table" => table = args.value("--table")?.to_string(),
            "--json" => json = true,
            other => return Err(format!("report: unexpected argument `{other}`").into()),
        }
    }
    let store_path = store_path.ok_or("report: --store is required")?;
    require_store_file("report", &store_path)?;
    let store = ResultStore::open(&store_path).map_err(|e| e.to_string())?;
    if store.is_empty() {
        return Err(CliError::store(format!(
            "report: `{store_path}` holds no scenarios"
        )));
    }
    if json {
        let records: Vec<serde::Value> = store.records().map(|r| r.to_value()).collect();
        let value = serde::Value::Object(vec![
            ("store".to_string(), store_path.to_value()),
            ("scenarios".to_string(), serde::Value::Array(records)),
        ]);
        println!(
            "{}",
            serde_json::to_string(&value).expect("records serialize")
        );
        return Ok(());
    }

    // Tables render empty when the store has no matching scenarios;
    // for an explicitly requested table, say so instead of printing
    // nothing.
    let require = |text: String| -> Result<String, String> {
        if text.is_empty() {
            Err(format!(
                "report: `{store_path}` holds no scenarios matching table `{table}`"
            ))
        } else {
            Ok(text)
        }
    };
    match table.as_str() {
        "fig9" => print!("{}", require(aggregate::fig9_table(&store))?),
        "fig11" => print!("{}", require(aggregate::fig11_table(&store))?),
        "bias" => {
            let (text, csv) = aggregate::bias_sensitivity(&store);
            print!("{}\n{csv}", require(text)?);
        }
        "mbits" => {
            let (text, csv) = aggregate::mbits_sensitivity(&store);
            print!("{}\n{csv}", require(text)?);
        }
        "detail" => print!("{}", aggregate::detail(&store)),
        "all" => {
            print!("{}", aggregate::fig9_table(&store));
            print!("{}", aggregate::fig11_table(&store));
            let (bias, _) = aggregate::bias_sensitivity(&store);
            print!("{bias}");
            let (mbits, _) = aggregate::mbits_sensitivity(&store);
            print!("{mbits}");
        }
        other => {
            return Err(format!(
                "report: unknown table `{other}` (fig9|fig11|bias|mbits|detail|all)"
            )
            .into())
        }
    }
    Ok(())
}

/// A non-uniform dwell model can invalidate a *subset* of a grid's
/// scenarios (custom per-layer factors only fit networks with that
/// layer count), which the builder silently filters. Rebuilding the
/// same grid under uniform dwell gives the full scenario count, so a
/// partial drop can be reported instead of masquerading as a complete
/// sweep. A fully-empty grid is a hard error at the call site; this
/// covers the partial case.
fn warn_on_dwell_dropped_scenarios(
    command: &str,
    grid_name: &str,
    grid: &CampaignGrid,
    options: &SweepOptions,
    repairs: &[RepairPolicy],
    techs: &[MemoryTech],
) {
    if options.dwell.is_uniform() {
        return;
    }
    // The reference grid must cross the same repair and technology
    // axes, or an `--ecc both` / `--tech both` grid out-counts the
    // single-value reference and masks the drop.
    let full = CampaignGrid::named_with_axes(
        grid_name,
        SweepOptions {
            dwell: DwellModel::Uniform,
            ..options.clone()
        },
        repairs,
        techs,
    )
    .map_or(0, |g| g.len());
    if grid.len() < full {
        eprintln!(
            "{command}: warning: dwell model `{}` fits only {} of the {full} scenario(s) \
             of grid `{grid_name}` — the rest were dropped (custom factors must match \
             each network's layer count)",
            options.dwell.display_name(),
            grid.len(),
        );
    }
}

fn parse_backend(name: &str) -> Result<SimulatorBackend, String> {
    SimulatorBackend::parse(name)
        .ok_or_else(|| format!("--backend: unknown backend `{name}` (analytic|exact)"))
}

fn parse_dwell(name: &str) -> Result<DwellModel, String> {
    DwellModel::parse(name).ok_or_else(|| {
        format!("--dwell: unknown dwell model `{name}` (uniform|layer|zipf[:EXP]|custom:F1,F2,...)")
    })
}

/// Shared `--flag VALUE[,VALUE,...]` axis parser: every list-valued
/// axis (`--ecc`, `--tech`) funnels through here, so the comma-list
/// splitting, the `both` keyword, order-preserving dedup, and the
/// enumerate-the-valid-values error shape are written once. `both`
/// expands to `both_expansion` (the axis's canonical value set) and
/// composes with explicit items: `--tech both` ≡ `--tech sram,reram`.
fn parse_axis_list<T: Copy + PartialEq>(
    flag: &str,
    raw: &str,
    both_expansion: &[T],
    parse_one: impl Fn(&str) -> Option<T>,
    valid_values: &str,
) -> Result<Vec<T>, String> {
    let mut out: Vec<T> = Vec::new();
    let mut push = |v: T| {
        if !out.contains(&v) {
            out.push(v);
        }
    };
    for item in raw.split(',').map(str::trim) {
        if item == "both" || item == "all" {
            both_expansion.iter().copied().for_each(&mut push);
            continue;
        }
        match parse_one(item) {
            Some(v) => push(v),
            None => {
                return Err(format!(
                    "{flag}: unknown value `{item}` — valid values: {valid_values}, \
                     `both`, or a comma list"
                ))
            }
        }
    }
    if out.is_empty() {
        return Err(format!(
            "{flag}: expected at least one value ({valid_values})"
        ));
    }
    Ok(out)
}

/// The `--tech` axis: which lifetime technology ages the weight
/// memory. `both` sweeps SRAM/NBTI and ReRAM-endurance variants of
/// every cell in one campaign.
fn parse_tech(raw: &str) -> Result<Vec<MemoryTech>, String> {
    parse_axis_list(
        "--tech",
        raw,
        &MemoryTech::ALL,
        MemoryTech::parse,
        "`sram` (NBTI duty-cycle aging), `reram` (write-endurance wear-out)",
    )
}

/// An `--ecc` value must not *silently* lose cells to validity
/// filtering. Every requested repair value is compared against
/// `reference` — the same grid built under `RepairPolicy::None`, so
/// the comparison is like-for-like: a value with zero surviving cells
/// (e.g. `--ecc secded:13` on 8-bit words, where stride 13 shares a
/// factor with the 13-bit codeword) is a hard error, and a partial
/// drop (e.g. `secded:3` on a grid mixing int8 and fp32 — 3 divides
/// the 39-bit fp32 codeword) gets a warning, matching the dwell axis's
/// partial-drop diagnostics.
fn check_repair_coverage(
    command: &str,
    repairs: &[RepairPolicy],
    reference: usize,
    count: impl Fn(RepairPolicy) -> usize,
) -> Result<(), String> {
    for &repair in repairs {
        if repair.is_none() {
            continue;
        }
        let cells = count(repair);
        if cells == 0 && reference > 0 {
            return Err(format!(
                "{command}: --ecc {}: every cell of this repair value is invalid \
                 (the SECDED interleave must be coprime with the codeword width — \
                 13 for 8-bit words, 39 for fp32)",
                repair.display_name()
            ));
        }
        if cells < reference {
            eprintln!(
                "{command}: warning: --ecc {}: only {cells} of {reference} cell(s) are \
                 valid under this repair value — the rest were dropped (interleave \
                 not coprime with that word width's codeword)",
                repair.display_name()
            );
        }
    }
    Ok(())
}

/// The `--ecc` axis: repair policies to cross the grid with.
/// `both[:INTERLEAVE]` pairs the plain and SECDED variants of every
/// cell in one campaign (what the corrected-vs-uncorrected table
/// lines up); everything else is the shared comma-list grammar.
fn parse_ecc(name: &str) -> Result<Vec<RepairPolicy>, String> {
    if let Some(stride) = name.strip_prefix("both:") {
        let secded = RepairPolicy::parse(&format!("secded:{stride}")).ok_or_else(|| {
            format!(
                "--ecc: invalid interleave `{stride}` — valid values: \
                 `none`, `secded` (interleave 1), `secded:INTERLEAVE` \
                 (a positive column stride)"
            )
        })?;
        return Ok(vec![RepairPolicy::None, secded]);
    }
    parse_axis_list(
        "--ecc",
        name,
        &[RepairPolicy::None, RepairPolicy::Secded { interleave: 1 }],
        RepairPolicy::parse,
        "`none`, `secded` (interleave 1), `secded:INTERLEAVE` (a positive column stride)",
    )
}

fn parse_shards(name: &str) -> Result<ShardPolicy, String> {
    ShardPolicy::parse(name)
        .ok_or_else(|| format!("--shards: expected `auto` or a positive count, got `{name}`"))
}

fn validate(argv: &[String]) -> Result<(), CliError> {
    let mut grid_name: Option<String> = None;
    let mut threads = 0usize;
    let mut shards = ShardPolicy::Auto;
    let mut report_only = false;
    let mut telemetry_on = false;
    let mut progress_on = false;
    let mut metrics_out: Option<String> = None;
    let mut techs: Vec<MemoryTech> = Vec::new();
    let mut sweep_options = SweepOptions {
        backend: SimulatorBackend::Exact,
        ..SweepOptions::default()
    };

    let mut args = Args::new(argv);
    while let Some(flag) = args.next_flag() {
        match flag {
            "--grid" => grid_name = Some(args.value("--grid")?.to_string()),
            "--threads" => threads = args.parsed("--threads")?,
            "--seed" => sweep_options.base_seed = args.parsed("--seed")?,
            "--stride" => sweep_options.sample_stride = args.parsed("--stride")?,
            "--inferences" => sweep_options.inferences = args.parsed("--inferences")?,
            "--dwell" => sweep_options.dwell = parse_dwell(args.value("--dwell")?)?,
            "--tech" => techs = parse_tech(args.value("--tech")?)?,
            "--shards" => shards = parse_shards(args.value("--shards")?)?,
            "--report-only" => report_only = true,
            "--telemetry" => telemetry_on = true,
            "--progress" => progress_on = true,
            "--metrics-out" => metrics_out = Some(args.value("--metrics-out")?.to_string()),
            other => return Err(format!("validate: unexpected argument `{other}`").into()),
        }
    }
    let grid_name = grid_name.ok_or("validate: --grid is required")?;
    if sweep_options.sample_stride == 0 {
        return Err("validate: --stride must be >= 1".into());
    }
    if sweep_options.inferences == 0 {
        return Err("validate: --inferences must be >= 1".into());
    }
    let uniform = sweep_options.dwell.is_uniform();
    let grid = CampaignGrid::named_with_axes(
        &grid_name,
        sweep_options.clone(),
        &[sweep_options.repair],
        &techs,
    )
    .ok_or_else(|| format!("validate: unknown grid `{grid_name}` (fig9|fig11|bias|mbits|full)"))?;
    if grid.is_empty() {
        return Err(format!(
            "validate: grid `{grid_name}` has no valid scenarios for this dwell model"
        )
        .into());
    }
    warn_on_dwell_dropped_scenarios(
        "validate",
        &grid_name,
        &grid,
        &sweep_options,
        &[sweep_options.repair],
        &techs,
    );

    // validate has no result store to sit next to, so its journal gets
    // a grid-derived path under the default results directory.
    let events = format!("campaign-results/validate-{grid_name}.events.jsonl");
    let (telemetry, progress) = build_sinks(
        telemetry_on,
        progress_on,
        metrics_out.is_some(),
        &events,
        &format!("validate {grid_name}"),
    )?;
    let options = CampaignOptions {
        threads,
        shards,
        cancel: Some(&INTERRUPTED),
        instr: Instrumentation {
            telemetry: telemetry.as_ref(),
            progress: progress.as_ref(),
        },
        ..CampaignOptions::default()
    };

    let started = std::time::Instant::now();
    let results = validate_scenarios(&grid.scenarios, &options).ok_or_else(|| {
        format!(
            "validate `{grid_name}` interrupted mid-scenario; \
             completed pairs were discarded"
        )
    })?;
    if let Some(telemetry) = &telemetry {
        telemetry.emit_counters();
        telemetry.emit_histograms();
        if telemetry_on {
            eprintln!("telemetry -> {events}");
        }
    }
    write_metrics_out(telemetry.as_ref(), metrics_out.as_deref())?;
    print!("{}", aggregate::crossval_table(&results));
    let worst = results
        .iter()
        .map(|cv| cv.max_abs_duty)
        .fold(0.0f64, f64::max);
    println!(
        "validate `{grid_name}`: {} scenario pair(s), max per-cell duty divergence {worst:.3e}, {:.1}s",
        results.len(),
        started.elapsed().as_secs_f64(),
    );
    if uniform && !report_only {
        let failures: Vec<&str> = results
            .iter()
            .filter(|cv| !cv.within_tolerance())
            .map(|cv| cv.label.as_str())
            .collect();
        if !failures.is_empty() {
            return Err(format!(
                "validate: {} scenario pair(s) exceeded the documented tolerance:\n  {}",
                failures.len(),
                failures.join("\n  ")
            )
            .into());
        }
    }
    Ok(())
}

fn parse_platform(name: &str) -> Result<Platform, String> {
    match name {
        "baseline" => Ok(Platform::Baseline),
        "npu" | "tpu" | "tpu-like" => Ok(Platform::TpuLike),
        other => Err(format!(
            "--platform: unknown platform `{other}` (baseline|npu)"
        )),
    }
}

fn parse_format(name: &str) -> Result<NumberFormat, String> {
    match name {
        "fp32" => Ok(NumberFormat::Fp32),
        "int8" | "int8-sym" | "int8-symmetric" => Ok(NumberFormat::Int8Symmetric),
        "int8-asym" | "int8-asymmetric" => Ok(NumberFormat::Int8Asymmetric),
        other => Err(format!(
            "--format: unknown format `{other}` (fp32|int8|int8-asym)"
        )),
    }
}

fn platform_cli_name(platform: Platform) -> &'static str {
    match platform {
        Platform::Baseline => "baseline",
        Platform::TpuLike => "npu",
        Platform::Crossbar => "crossbar",
    }
}

fn format_cli_name(format: NumberFormat) -> &'static str {
    match format {
        NumberFormat::Fp32 => "fp32",
        NumberFormat::Int8Symmetric => "int8",
        NumberFormat::Int8Asymmetric => "int8-asym",
    }
}

fn parse_ages(list: &str) -> Result<Vec<f64>, String> {
    let ages: Option<Vec<f64>> = list.split(',').map(|a| a.parse().ok()).collect();
    let ages = ages.ok_or_else(|| format!("--ages: invalid age list `{list}`"))?;
    if ages.is_empty() || ages.iter().any(|a| !a.is_finite() || *a < 0.0) {
        return Err(format!(
            "--ages: ages must be finite and >= 0, got `{list}`"
        ));
    }
    Ok(ages)
}

/// `dnnlife inject`: the fault-injection campaign — accuracy vs age
/// per mitigation policy, resumable like `sweep`.
fn inject(argv: &[String]) -> Result<(), CliError> {
    let mut platform = Platform::Baseline;
    let mut network = NetworkKind::CustomMnist;
    let mut format = NumberFormat::Int8Symmetric;
    let mut policy_filter: Option<String> = None;
    let mut params = InjectionParams::default();
    let mut repairs = vec![RepairPolicy::None];
    let mut techs: Vec<MemoryTech> = Vec::new();
    let mut options = InjectCampaignOptions::default();
    let mut out: Option<String> = None;
    let mut report_only = false;
    let mut report_store: Option<String> = None;
    let mut telemetry_on = false;
    let mut progress_on = false;
    let mut metrics_out: Option<String> = None;
    let mut json = false;

    let mut args = Args::new(argv);
    while let Some(flag) = args.next_flag() {
        match flag {
            "--platform" => platform = parse_platform(args.value("--platform")?)?,
            "--network" => {
                network = NetworkKind::parse(args.value("--network")?)
                    .map_err(|e| format!("--network: {e}"))?;
            }
            "--format" => format = parse_format(args.value("--format")?)?,
            "--policy" => policy_filter = Some(args.value("--policy")?.to_lowercase()),
            "--ecc" => repairs = parse_ecc(args.value("--ecc")?)?,
            "--tech" => techs = parse_tech(args.value("--tech")?)?,
            "--ages" => params.ages_years = parse_ages(args.value("--ages")?)?,
            "--trials" => params.trials = args.parsed("--trials")?,
            "--eval-images" => params.eval_images = args.parsed("--eval-images")?,
            "--train-steps" => params.train_steps = args.parsed("--train-steps")?,
            "--noise-mv" => params.noise_sigma_mv = args.parsed("--noise-mv")?,
            "--inferences" => params.inferences = args.parsed("--inferences")?,
            "--seed" => params.base_seed = args.parsed("--seed")?,
            "--threads" => options.threads = args.parsed("--threads")?,
            "--shards" => {
                options.shards = match parse_shards(args.value("--shards")?)? {
                    ShardPolicy::Auto => 0,
                    ShardPolicy::Fixed(n) => n,
                };
            }
            "--out" => out = Some(args.value("--out")?.to_string()),
            "--resume" => options.resume = true,
            "--verbose" => options.verbose = true,
            "--telemetry" => telemetry_on = true,
            "--progress" => progress_on = true,
            "--metrics-out" => metrics_out = Some(args.value("--metrics-out")?.to_string()),
            "--report" => report_only = true,
            "--json" => json = true,
            "--store" => report_store = Some(args.value("--store")?.to_string()),
            other => return Err(format!("inject: unexpected argument `{other}`").into()),
        }
    }

    if report_only {
        let store_path = report_store.ok_or("inject --report: --store is required")?;
        require_store_file("inject", &store_path)?;
        let store = InjectionStore::open(&store_path).map_err(|e| e.to_string())?;
        if store.is_empty() {
            return Err(CliError::store(format!(
                "inject: `{store_path}` holds no injection records"
            )));
        }
        if json {
            let records: Vec<serde::Value> = store.records().map(|r| r.to_value()).collect();
            let value = serde::Value::Object(vec![
                ("store".to_string(), store_path.to_value()),
                ("cells".to_string(), serde::Value::Array(records)),
            ]);
            println!(
                "{}",
                serde_json::to_string(&value).expect("records serialize")
            );
            return Ok(());
        }
        print!("{}", accuracy_vs_age_table(&store));
        print!("{}", ecc_comparison_table(&store));
        return Ok(());
    }
    if params.trials == 0 {
        return Err("inject: --trials must be >= 1".into());
    }
    if params.eval_images == 0 {
        return Err("inject: --eval-images must be >= 1".into());
    }
    if params.inferences == 0 {
        return Err("inject: --inferences must be >= 1".into());
    }
    if !(params.noise_sigma_mv.is_finite() && params.noise_sigma_mv > 0.0) {
        return Err("inject: --noise-mv must be > 0".into());
    }
    if techs.is_empty() {
        // No --tech flag: the single default-technology axis value.
        techs.push(params.tech);
    }

    // The requested zoo network crossed with the paper's Fig. 11 policy
    // set (optionally filtered by `--policy` substrings). A requested
    // ReRAM technology adds the endurance-native mitigation — the
    // epoch-rotating wear-leveling remap — to the pool.
    let mut policies = dnnlife_core::experiment::fig11_policies();
    if techs.contains(&MemoryTech::ReramEndurance) {
        policies.push(PolicySpec::WearLevel { epochs: 4 });
    }
    if let Some(filter) = &policy_filter {
        let needles: Vec<&str> = filter.split(',').map(str::trim).collect();
        let valid = policies
            .iter()
            .map(|p: &PolicySpec| p.display_name().to_lowercase())
            .collect::<Vec<_>>()
            .join(", ");
        policies.retain(|p: &PolicySpec| {
            let name = p.display_name().to_lowercase();
            needles.iter().any(|needle| name.contains(needle))
        });
        if policies.is_empty() {
            return Err(format!(
                "inject: --policy `{filter}` matches no policy of the injectable \
                 set — valid values: {valid}"
            )
            .into());
        }
    }
    let grid = InjectionGrid::build_with_axes(
        "inject", platform, network, format, &policies, &params, &repairs, &techs,
    );
    if grid.is_empty() {
        // Never silently write an empty store: an explicitly requested
        // combination with zero valid cells is an error, named in full.
        return Err(format!(
            "inject: no valid cells for --network {} --platform {} --format {} \
             (fp32 needs --platform baseline; the SECDED interleave must be \
             coprime with the codeword width — 13 for 8-bit words, 39 for fp32)",
            network.cli_name(),
            platform_cli_name(platform),
            format_cli_name(format),
        )
        .into());
    }
    let no_repair_cells = InjectionGrid::build_with_axes(
        "inject",
        platform,
        network,
        format,
        &policies,
        &params,
        &[RepairPolicy::None],
        &techs,
    )
    .len();
    check_repair_coverage("inject", &repairs, no_repair_cells, |repair| {
        grid.specs
            .iter()
            .filter(|s| s.scenario.repair == repair)
            .count()
    })?;
    let store_path = out.unwrap_or_else(|| "campaign-results/inject.jsonl".to_string());
    let events = events_path_for(&store_path);
    let (telemetry, progress) = build_sinks(
        telemetry_on,
        progress_on,
        metrics_out.is_some(),
        &events,
        "inject",
    )?;
    options.instr = Instrumentation {
        telemetry: telemetry.as_ref(),
        progress: progress.as_ref(),
    };

    let started = std::time::Instant::now();
    let outcome = run_injection_campaign(&grid, &store_path, &options, Some(&INTERRUPTED))
        .map_err(|e| e.to_string())?;
    let store = InjectionStore::open(&store_path).map_err(|e| e.to_string())?;
    print!("{}", accuracy_vs_age_table(&store));
    print!("{}", ecc_comparison_table(&store));
    println!(
        "inject: {} executed, {} skipped, {} thread(s), {:.1}s -> {store_path}",
        outcome.executed,
        outcome.skipped,
        outcome.threads,
        started.elapsed().as_secs_f64(),
    );
    if telemetry_on {
        println!("telemetry -> {events}");
    }
    write_metrics_out(telemetry.as_ref(), metrics_out.as_deref())?;
    Ok(())
}

fn compare(argv: &[String]) -> Result<(), CliError> {
    let mut store_a: Option<String> = None;
    let mut store_b: Option<String> = None;
    let mut json = false;
    let mut args = Args::new(argv);
    while let Some(flag) = args.next_flag() {
        match flag {
            "--store-a" => store_a = Some(args.value("--store-a")?.to_string()),
            "--store-b" => store_b = Some(args.value("--store-b")?.to_string()),
            "--json" => json = true,
            other => return Err(format!("compare: unexpected argument `{other}`").into()),
        }
    }
    let store_a = store_a.ok_or("compare: --store-a is required")?;
    let store_b = store_b.ok_or("compare: --store-b is required")?;
    require_store_file("compare", &store_a)?;
    require_store_file("compare", &store_b)?;
    let a = ResultStore::open(&store_a).map_err(|e| e.to_string())?;
    let b = ResultStore::open(&store_b).map_err(|e| e.to_string())?;
    if a.is_empty() {
        return Err(CliError::store(format!(
            "compare: `{store_a}` holds no scenarios"
        )));
    }
    if b.is_empty() {
        return Err(CliError::store(format!(
            "compare: `{store_b}` holds no scenarios"
        )));
    }
    if json {
        let value = aggregate::compare_stores_json(&a, &b);
        println!(
            "{}",
            serde_json::to_string(&value).expect("comparison serializes")
        );
        return Ok(());
    }
    print!("{}", aggregate::compare_stores(&a, &b));
    Ok(())
}

/// `dnnlife perf`: render performance tables from one telemetry events
/// journal, diff two journals, and (for CI) gate the exact-backend
/// throughput against a committed baseline.
fn perf_command(argv: &[String]) -> Result<(), CliError> {
    let mut events: Option<String> = None;
    let mut diff_path: Option<String> = None;
    let mut json = false;
    let mut baseline_path: Option<String> = None;
    let mut max_regression = 2.0f64;
    let mut threshold = perf::DIFF_THRESHOLD;
    let mut args = Args::new(argv);
    while let Some(flag) = args.next_flag() {
        match flag {
            "--events" => events = Some(args.value("--events")?.to_string()),
            "--diff" => diff_path = Some(args.value("--diff")?.to_string()),
            "--json" => json = true,
            "--baseline" => baseline_path = Some(args.value("--baseline")?.to_string()),
            "--max-regression" => max_regression = args.parsed("--max-regression")?,
            "--threshold" => threshold = args.parsed("--threshold")?,
            other => return Err(format!("perf: unexpected argument `{other}`").into()),
        }
    }
    let events = events.ok_or("perf: --events is required (a STORE.events.jsonl journal)")?;
    if !(max_regression.is_finite() && max_regression >= 1.0) {
        return Err("perf: --max-regression must be >= 1".into());
    }
    if !(threshold.is_finite() && threshold >= 1.0) {
        return Err("perf: --threshold must be >= 1".into());
    }

    let load = |path: &str| -> Result<perf::PerfSummary, CliError> {
        require_store_file("perf", path)?;
        let summary = perf::load_events(std::path::Path::new(path))
            .map_err(|e| format!("perf: cannot read `{path}`: {e}"))?;
        if summary.campaigns.is_empty()
            && summary.scenarios.is_empty()
            && summary.counters.is_empty()
        {
            return Err(CliError::store(format!(
                "perf: `{path}` holds no telemetry events (was the run started with --telemetry?)"
            )));
        }
        Ok(summary)
    };
    let summary = load(&events)?;

    if let Some(diff_path) = diff_path {
        let after = load(&diff_path)?;
        let diff = perf::diff(&summary, &after, threshold);
        if json {
            println!(
                "{}",
                serde_json::to_string(&diff.to_value()).expect("diff serializes")
            );
        } else {
            print!("{}", diff.render_text());
        }
        if diff.has_missing() {
            return Err(format!(
                "perf: `{diff_path}` is missing metric(s) that `{events}` reports \
                 — the diff cannot demonstrate the baseline's performance"
            )
            .into());
        }
        return Ok(());
    }

    if json {
        println!(
            "{}",
            serde_json::to_string(&summary.to_value()).expect("summary serializes")
        );
    } else {
        print!("{}", summary.render_text());
    }

    if let Some(baseline_path) = baseline_path {
        let contents = std::fs::read_to_string(&baseline_path)
            .map_err(|e| format!("perf: cannot read baseline `{baseline_path}`: {e}"))?;
        let value: serde::Value = serde_json::from_str(contents.trim())
            .map_err(|e| format!("perf: baseline `{baseline_path}`: {e}"))?;
        let Some(serde::Value::Number(n)) = value.get("exact_words_per_sec") else {
            return Err(format!(
                "perf: baseline `{baseline_path}` lacks a numeric `exact_words_per_sec` field"
            )
            .into());
        };
        let baseline = (*n).as_f64();
        let measured = perf::check_baseline(&summary, baseline, max_regression)
            .map_err(|e| format!("perf: {e}"))?;
        eprintln!(
            "perf: exact backend {measured:.0} words/s vs baseline {baseline:.0} \
             (allowed regression {max_regression:.1}x) — ok"
        );
        // Optional latency gate: a baseline that commits to a
        // `scenario_wall_p99_ms` ceiling fails hard when the journal
        // can't prove the p99 (no histogram events), instead of
        // silently passing an unmeasured run.
        if let Some(serde::Value::Number(n)) = value.get("scenario_wall_p99_ms") {
            let ceiling = (*n).as_f64();
            let p99 = perf::check_wall_p99(&summary, ceiling, max_regression)
                .map_err(|e| format!("perf: {e}"))?;
            eprintln!(
                "perf: scenario wall p99 {p99:.1} ms vs ceiling {ceiling:.1} \
                 (allowed regression {max_regression:.1}x) — ok"
            );
        }
    }
    Ok(())
}

/// `dnnlife trace`: rebuild the hierarchical span forest from one
/// telemetry events journal and render the flame-style hot-path table
/// plus each campaign's critical path.
fn trace_command(argv: &[String]) -> Result<(), CliError> {
    let mut events: Option<String> = None;
    let mut json = false;
    let mut args = Args::new(argv);
    while let Some(flag) = args.next_flag() {
        match flag {
            "--events" => events = Some(args.value("--events")?.to_string()),
            "--json" => json = true,
            other => return Err(format!("trace: unexpected argument `{other}`").into()),
        }
    }
    let events = events.ok_or("trace: --events is required (a STORE.events.jsonl journal)")?;
    require_store_file("trace", &events)?;
    let trace = dnnlife_campaign::trace::load_trace(std::path::Path::new(&events))
        .map_err(|e| format!("trace: cannot read `{events}`: {e}"))?;
    if trace.spans.is_empty() {
        return Err(CliError::store(format!(
            "trace: `{events}` holds no span events (was the run started with --telemetry?)"
        )));
    }
    if json {
        println!(
            "{}",
            serde_json::to_string(&trace.to_value()).expect("trace serializes")
        );
    } else {
        print!("{}", trace.render_text());
    }
    Ok(())
}
