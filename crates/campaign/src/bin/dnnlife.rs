//! `dnnlife` — campaign CLI: sweep scenario grids in parallel, report
//! and compare result stores, cross-validate the analytic and exact
//! simulators, run fault-injection campaigns and read their telemetry
//! journals. `dnnlife --help` lists every command, mode and flag; the
//! help text, the parser and every usage error derive from one table,
//! `MODES`, in which each flag is declared once.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use dnnlife_campaign::aggregate;
use dnnlife_campaign::grid::SweepOptions;
use dnnlife_campaign::perf;
use dnnlife_campaign::{
    accuracy_vs_age_table, ecc_comparison_table, run_campaign, run_injection_campaign,
    validate_scenarios, CampaignGrid, CampaignOptions, InjectCampaignOptions, InjectionGrid,
    InjectionParams, InjectionStore, Instrumentation, JsonlStore, Progress, ResultStore,
    ShardPolicy, StoreRecord, Telemetry,
};
use dnnlife_core::experiment::{NetworkKind, Platform, PolicySpec};
use dnnlife_core::{DwellModel, MemoryTech, RepairPolicy, SimulatorBackend};
use dnnlife_nn::data::{IdxMnist, MNIST_DIR_ENV};
use dnnlife_quant::NumberFormat;
use serde::Serialize;

/// Raised by the SIGINT handler and polled through the campaign
/// cancellation plumbing, so Ctrl-C aborts in-flight work mid-scenario
/// instead of killing the process with a half-written journal line.
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

/// Exit code for a missing or empty store or journal, so scripts can
/// tell "nothing to report yet" from an error (2).
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

/// One command-line flag. `value` is empty for a switch; otherwise it
/// names the value in `--help` (`N`, `FILE`) or, for an enumerated
/// flag, lists the accepted values as `a|b|c`, which the error for a
/// rejected value repeats.
#[derive(Clone, Copy)]
struct Flag {
    name: &'static str,
    value: &'static str,
    role: Role,
}

#[derive(Clone, Copy, PartialEq)]
enum Role {
    Optional,
    /// Must be given in every mode that takes it.
    Required,
    /// Picks the command's second mode (`inject --report`, `perf --diff`).
    Selector,
}
use Role::{Optional, Required, Selector};

const fn flag(name: &'static str, value: &'static str, role: Role) -> Flag {
    Flag { name, value, role }
}

const fn opt(name: &'static str, value: &'static str) -> Flag {
    flag(name, value, Optional)
}

const GRID: Flag = flag("--grid", "fig9|fig11|bias|mbits|full", Required);
const STRIDE: Flag = opt("--stride", "N");
const INFERENCES: Flag = opt("--inferences", "N");
/// The largest `--inferences`: a memory cell is written `T =
/// inferences × K` times (K blocks per inference), and the analytic
/// kernel counts those writes in 32 bits. `T` fits `u32` while K ≤ 4294,
/// and the largest built-in K is 4224 (VGG16 fp32 on the baseline under
/// 4 wear-leveling epochs; `tests/cli.rs` checks every built-in cell).
const MAX_INFERENCES: u64 = 1_000_000;
const BACKEND: Flag = opt("--backend", "analytic|exact");
const DWELL: Flag = opt("--dwell", "uniform|layer|zipf[:EXP]|custom:F1,F2,...");
const ECC: Flag = opt("--ecc", "none|secded[:INTERLEAVE]|both[:INTERLEAVE]");
const TECH: Flag = opt("--tech", "sram|reram|both");
const REPORT_ONLY: Flag = opt("--report-only", "");
const STORE: Flag = flag("--store", "FILE", Required);
const TABLE: Flag = opt("--table", "fig9|fig11|bias|mbits|detail|all");
const STORE_A: Flag = flag("--store-a", "FILE", Required);
const STORE_B: Flag = flag("--store-b", "FILE", Required);
const JSON: Flag = opt("--json", "");
const PLATFORM: Flag = opt("--platform", "baseline|npu");
const NETWORK: Flag = opt("--network", "alexnet|vgg16|custom-mnist");
const FORMAT: Flag = opt("--format", "fp32|int8|int8-asym");
const POLICY: Flag = opt("--policy", "SUB[,SUB,...]");
const AGES: Flag = opt("--ages", "Y1,Y2,...");
const TRIALS: Flag = opt("--trials", "N");
/// The largest `--trials`: it bounds the trial job list an inject cell collects.
const MAX_TRIALS: u32 = 1_000;
const EVAL_IMAGES: Flag = opt("--eval-images", "N");
/// The largest `--eval-images`, the MNIST test-set size: it bounds the eval batch.
const MAX_EVAL_IMAGES: u32 = 10_000;
const TRAIN_STEPS: Flag = opt("--train-steps", "N");
const NOISE_MV: Flag = opt("--noise-mv", "F");
const REPORT: Flag = flag("--report", "", Selector);
const EVENTS: Flag = flag("--events", "FILE", Required);
const BASELINE: Flag = opt("--baseline", "FILE");
const MAX_REGRESSION: Flag = opt("--max-regression", "F");
const DIFF: Flag = flag("--diff", "FILE", Selector);
const THRESHOLD: Flag = opt("--threshold", "F");
const THREADS: Flag = opt("--threads", "N");
const SHARDS: Flag = opt("--shards", "auto|N");
const SEED: Flag = opt("--seed", "N");
const TELEMETRY: Flag = opt("--telemetry", "");
const PROGRESS: Flag = opt("--progress", "");
const METRICS_OUT: Flag = opt("--metrics-out", "FILE");
const OUT: Flag = opt("--out", "FILE");
const RESUME: Flag = opt("--resume", "");
const VERBOSE: Flag = opt("--verbose", "");

/// The run flags sweep, validate and inject share, read by [`RunFlags`].
const RUN: &[Flag] = &[THREADS, SHARDS, SEED, TELEMETRY, PROGRESS, METRICS_OUT];
/// The run flags of the commands that write a store (sweep, inject).
const STORE_RUN: &[Flag] = &[OUT, RESUME, VERBOSE];

/// One mode of a subcommand: its flags, in `--help` order, and what
/// runs it.
struct Mode {
    command: &'static str,
    groups: &'static [&'static [Flag]],
    run: Run,
}

const fn mode(command: &'static str, groups: &'static [&'static [Flag]], run: Run) -> Mode {
    Mode {
        command,
        groups,
        run,
    }
}

type Run = fn(&Args) -> Result<(), CliError>;

/// Every command, mode and flag of `dnnlife`, in `--help` order.
const MODES: &[Mode] = &[
    mode(
        "sweep",
        &[
            &[GRID, STRIDE, INFERENCES, BACKEND, DWELL, ECC, TECH],
            RUN,
            STORE_RUN,
        ],
        sweep,
    ),
    mode("report", &[&[STORE, TABLE, JSON]], report),
    mode("compare", &[&[STORE_A, STORE_B, JSON]], compare),
    mode(
        "validate",
        &[&[GRID, STRIDE, INFERENCES, DWELL, TECH, REPORT_ONLY], RUN],
        validate,
    ),
    mode(
        "inject",
        &[
            &[PLATFORM, NETWORK, FORMAT, POLICY, ECC, TECH],
            &[AGES, TRIALS, EVAL_IMAGES, TRAIN_STEPS, NOISE_MV, INFERENCES],
            RUN,
            STORE_RUN,
        ],
        inject,
    ),
    mode("inject", &[&[REPORT, STORE, JSON]], inject_report),
    mode(
        "perf",
        &[&[EVENTS, BASELINE, MAX_REGRESSION, JSON]],
        perf_summary,
    ),
    mode("perf", &[&[EVENTS, DIFF, THRESHOLD, JSON]], perf_diff),
    mode("trace", &[&[EVENTS, JSON]], trace),
];

const USAGE_NOTES: &str = "
exit codes: 0 ok; 2 error; 3 store/journal missing or empty; 130 interrupted.
An unknown flag, a flag the mode does not take, a repeated flag, a missing
value or a rejected value is a usage error. `--ecc` and `--tech` take comma
lists. `--telemetry` journals events to STORE.events.jsonl, the input of
`dnnlife perf` and `dnnlife trace`; `--progress` draws live progress on
stderr; `--metrics-out FILE` writes a Prometheus exposition plus a `.json`
twin. None of them changes results: stores stay byte-identical.";

impl Mode {
    fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.groups.iter().flat_map(|group| group.iter())
    }

    fn selector(&self) -> Option<&'static Flag> {
        self.flags().find(|flag| flag.role == Selector)
    }

    /// `inject --report`, `perf --diff`, or the bare command.
    fn label(&self) -> String {
        match self.selector() {
            Some(selector) => format!("{} {}", self.command, selector.name),
            None => self.command.to_string(),
        }
    }
}

/// `--help`: one usage entry per mode, wrapped at 80 columns.
fn usage() -> String {
    let mut text = String::from("usage:\n");
    for mode in MODES {
        let mut line = format!("  dnnlife {}", mode.command);
        let indent = line.len();
        for flag in mode.flags() {
            let item = match flag.value {
                "" => flag.name.to_string(),
                value => format!("{} {value}", flag.name),
            };
            let item = match flag.role {
                Optional => format!("[{item}]"),
                Required | Selector => item,
            };
            if line.len() + 1 + item.len() > 80 {
                text += &line;
                text.push('\n');
                line = " ".repeat(indent);
            }
            line.push(' ');
            line += &item;
        }
        text += &line;
        text.push('\n');
    }
    text + USAGE_NOTES
}

fn main() -> ExitCode {
    install_sigint_handler();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.split_first() {
        None => {
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
        Some((help, _)) if matches!(help.as_str(), "--help" | "-h" | "help") => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Some((command, rest)) => Args::parse(command, rest).and_then(|args| (args.mode.run)(&args)),
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

/// One invocation's flags, checked against its mode: every flag known
/// to the mode, none repeated, each with its value, every required one
/// present.
struct Args<'a> {
    mode: &'static Mode,
    given: Vec<(&'static Flag, &'a str)>,
}

impl<'a> Args<'a> {
    fn parse(command: &str, argv: &'a [String]) -> Result<Self, CliError> {
        let modes = || MODES.iter().filter(move |mode| mode.command == command);
        if modes().next().is_none() {
            return Err(format!("unknown command `{command}`\n{}", usage()).into());
        }
        let mut given: Vec<(&'static Flag, &'a str)> = Vec::new();
        let mut argv = argv.iter();
        while let Some(arg) = argv.next() {
            let flag = modes().flat_map(Mode::flags).find(|flag| flag.name == arg);
            let flag = flag.ok_or_else(|| format!("{command}: unexpected argument `{arg}`"))?;
            if given.iter().any(|(seen, _)| seen.name == flag.name) {
                return Err(format!("{command}: {} given more than once", flag.name).into());
            }
            let value = match flag.value {
                "" => "",
                _ => argv
                    .next()
                    .ok_or_else(|| format!("{command}: {} needs a value", flag.name))?,
            };
            given.push((flag, value));
        }
        let has = |flag: &Flag| given.iter().any(|(seen, _)| seen.name == flag.name);
        // A given selector picks its mode; otherwise the plain mode runs.
        let mode = modes()
            .find(|mode| mode.selector().is_some_and(has))
            .or_else(|| modes().find(|mode| mode.selector().is_none()))
            .expect("every command has a mode without a selector");
        let label = mode.label();
        let in_mode = |name: &str| mode.flags().any(|f| f.name == name);
        if let Some((flag, _)) = given.iter().find(|(flag, _)| !in_mode(flag.name)) {
            let owner = modes().find(|other| other.flags().any(|f| f.name == flag.name));
            let owner = owner.expect("a known flag has a mode").label();
            let hint = format!("a `dnnlife {owner}` flag");
            return Err(format!("{label}: unexpected argument `{}` ({hint})", flag.name).into());
        }
        if let Some(missing) = mode
            .flags()
            .find(|flag| flag.role == Required && !has(flag))
        {
            return Err(format!("{label}: {} is required", missing.name).into());
        }
        Ok(Self { mode, given })
    }

    /// A usage error prefixed with the mode.
    fn error(&self, message: impl std::fmt::Display) -> CliError {
        format!("{}: {message}", self.mode.label()).into()
    }

    /// Prints `json()` as one line under `--json`, else `text()`.
    fn print(&self, json: impl FnOnce() -> serde::Value, text: impl FnOnce() -> String) {
        if self.has(&JSON) {
            let json = serde_json::to_string(&json()).expect("JSON serializes");
            println!("{json}");
        } else {
            print!("{}", text());
        }
    }

    /// The value given for `flag` (empty for a switch), if given.
    fn get(&self, flag: &Flag) -> Option<&'a str> {
        let mut given = self.given.iter();
        given
            .find(|(seen, _)| seen.name == flag.name)
            .map(|&(_, value)| value)
    }

    fn has(&self, flag: &Flag) -> bool {
        self.get(flag).is_some()
    }

    /// The value of a required flag (the parser rejected its absence).
    fn path(&self, flag: &Flag) -> &'a str {
        self.get(flag).expect("checked by the parser")
    }

    /// `flag`'s value converted by `parse`, or `default` when the flag
    /// is absent. A value `parse` rejects is a usage error that, for an
    /// enumerated flag, lists the accepted values.
    fn value<T>(
        &self,
        flag: &Flag,
        default: T,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, CliError> {
        let Some(raw) = self.get(flag) else {
            return Ok(default);
        };
        let problem = if flag.value.contains('|') {
            let valid = flag.value.replace('|', ", ");
            let noun = flag.name.trim_start_matches('-');
            format!("unknown {noun} `{raw}` — valid values: {valid}")
        } else {
            format!("invalid value `{raw}`")
        };
        parse(raw).ok_or_else(|| self.error(format_args!("{}: {problem}", flag.name)))
    }

    fn number<T: std::str::FromStr>(&self, flag: &Flag, default: T) -> Result<T, CliError> {
        self.value(flag, default, |raw| raw.parse().ok())
    }

    /// `--inferences`, at least 1 and at most [`MAX_INFERENCES`].
    fn inferences(&self, default: u64) -> Result<u64, CliError> {
        let n = self.bounded(&INFERENCES, default, ">= 1", |&n| n >= 1)?;
        if n > MAX_INFERENCES {
            return Err(self.error(format_args!(
                "{} must be <= {MAX_INFERENCES}: T = inferences × K writes per cell \
                 must fit 32-bit counts",
                INFERENCES.name
            )));
        }
        Ok(n)
    }

    /// A count flag, at least 1 and at most `max`.
    fn count(&self, flag: &Flag, default: u32, max: u32) -> Result<u32, CliError> {
        let n = self.bounded(flag, default, ">= 1", |&n| n >= 1)?;
        if n > max {
            return Err(self.error(format_args!("{} must be <= {max}", flag.name)));
        }
        Ok(n)
    }

    /// A number that must satisfy `ok` (spelled `bound` in the error).
    fn bounded<T: std::str::FromStr>(
        &self,
        flag: &Flag,
        default: T,
        bound: &str,
        ok: fn(&T) -> bool,
    ) -> Result<T, CliError> {
        let n = self.number(flag, default)?;
        if !ok(&n) {
            return Err(self.error(format_args!("{} must be {bound}", flag.name)));
        }
        Ok(n)
    }
}

/// The run flags of sweep, validate and inject, read once.
struct RunFlags {
    threads: usize,
    shards: ShardPolicy,
    seed: u64,
    telemetry: bool,
    progress: bool,
    metrics_out: Option<String>,
    out: Option<String>,
    resume: bool,
    verbose: bool,
}

impl RunFlags {
    fn read(args: &Args, default_seed: u64) -> Result<Self, CliError> {
        Ok(Self {
            threads: args.number(&THREADS, 0)?,
            shards: args.value(&SHARDS, ShardPolicy::Auto, ShardPolicy::parse)?,
            seed: args.number(&SEED, default_seed)?,
            telemetry: args.has(&TELEMETRY),
            progress: args.has(&PROGRESS),
            metrics_out: args.get(&METRICS_OUT).map(str::to_string),
            out: args.get(&OUT).map(str::to_string),
            resume: args.has(&RESUME),
            verbose: args.has(&VERBOSE),
        })
    }

    fn campaign_options<'i>(&self, instr: Instrumentation<'i>) -> CampaignOptions<'i> {
        CampaignOptions {
            threads: self.threads,
            resume: self.resume,
            verbose: self.verbose,
            shards: self.shards,
            cancel: Some(&INTERRUPTED),
            instr,
        }
    }

    /// `--out`, or `default`; the events journal sits next to it:
    /// `fig9.jsonl` → `fig9.events.jsonl` (other names gain the suffix).
    fn store_paths(&self, default: String) -> (String, String) {
        let store = self.out.clone().unwrap_or(default);
        let stem = store.strip_suffix(".jsonl").unwrap_or(&store);
        let events = format!("{stem}.events.jsonl");
        (store, events)
    }

    /// Runs `body` under the sinks `--telemetry` / `--progress` /
    /// `--metrics-out` ask for, then names the events journal and
    /// writes the metrics registry as a Prometheus exposition plus a
    /// JSON twin. `--metrics-out` without `--telemetry` still needs a
    /// live registry, so it gets an in-memory telemetry with no journal.
    fn instrumented<T>(
        &self,
        events: &str,
        label: &str,
        body: impl FnOnce(Instrumentation<'_>) -> Result<T, CliError>,
    ) -> Result<T, CliError> {
        let telemetry = if self.telemetry {
            let journal = Telemetry::with_journal(events);
            Some(journal.map_err(|e| format!("--telemetry: cannot open `{events}`: {e}"))?)
        } else {
            self.metrics_out.as_ref().map(|_| Telemetry::in_memory())
        };
        let progress = self.progress.then(|| Progress::stderr(label, 0));
        let instr = Instrumentation {
            telemetry: telemetry.as_ref(),
            progress: progress.as_ref(),
        };
        let outcome = body(instr)?;
        if self.telemetry {
            println!("telemetry -> {events}");
        }
        if let (Some(telemetry), Some(path)) = (&telemetry, &self.metrics_out) {
            let snapshot = telemetry.metrics_snapshot();
            let twin = format!("{}.json", path.strip_suffix(".prom").unwrap_or(path));
            let json = serde_json::to_string(&snapshot.to_value()).expect("metrics serialize");
            for (file, contents) in [(path, snapshot.render_prometheus()), (&twin, json)] {
                std::fs::write(file, contents)
                    .map_err(|e| format!("--metrics-out: cannot write `{file}`: {e}"))?;
            }
            println!("metrics -> {path} + {twin}");
        }
        Ok(outcome)
    }
}

/// What sweep and validate read alike: the run flags, the scenario
/// options (`backend` is the mode's default) and the `--grid` grid. An
/// empty grid is an error; a repair value or dwell model that drops
/// part of it is reported, so a partial sweep never passes for a
/// complete one.
fn scenario_grid(
    args: &Args,
    backend: SimulatorBackend,
) -> Result<(RunFlags, SweepOptions, CampaignGrid), CliError> {
    let defaults = SweepOptions::default();
    let run = RunFlags::read(args, defaults.base_seed)?;
    let options = SweepOptions {
        base_seed: run.seed,
        sample_stride: args.bounded(&STRIDE, defaults.sample_stride, ">= 1", |&n| n >= 1)?,
        inferences: args.inferences(defaults.inferences)?,
        backend: args.value(&BACKEND, backend, SimulatorBackend::parse)?,
        dwell: args.value(&DWELL, DwellModel::Uniform, DwellModel::parse)?,
        ..defaults
    };
    if !options.dwell.is_uniform() && options.backend != SimulatorBackend::Exact {
        return Err(args.error(format_args!(
            "--dwell {} needs --backend exact (the analytic closed forms \
             assume equal residency — paper assumption (b))",
            options.dwell.display_name()
        )));
    }
    let repairs = args.value(&ECC, vec![RepairPolicy::None], parse_ecc)?;
    let techs = args.value(&TECH, Vec::new(), parse_tech)?;
    let build = |name: &str, options: SweepOptions, repairs: &[RepairPolicy]| {
        CampaignGrid::named_with_axes(name, options, repairs, &techs)
    };
    let grid = args.value(&GRID, None, |name| {
        build(name, options.clone(), &repairs).map(Some)
    })?;
    let grid = grid.expect("required flags are checked by the parser");
    let name = grid.name.as_str();
    if grid.is_empty() {
        return Err(args.error(format_args!(
            "grid `{name}` has no valid scenarios for these axes (custom dwell \
             factors must match the network's layer count; the SECDED interleave \
             must be coprime with the codeword width — 13 for 8-bit words, 39 for fp32)"
        )));
    }
    check_repair_coverage(args, &repairs, |repairs| {
        build(name, options.clone(), repairs).map_or(0, |g| g.len())
    })?;
    if !options.dwell.is_uniform() {
        // The uniform reference crosses the same repair and technology
        // axes, or an `--ecc both` / `--tech both` grid out-counts it
        // and masks the drop.
        let uniform = SweepOptions {
            dwell: DwellModel::Uniform,
            ..options.clone()
        };
        let full = build(name, uniform, &repairs).map_or(0, |g| g.len());
        if grid.len() < full {
            eprintln!(
                "{}: warning: dwell model `{}` fits only {} of the {full} scenario(s) \
                 of grid `{name}` — the rest were dropped (custom factors must match \
                 each network's layer count)",
                args.mode.label(),
                options.dwell.display_name(),
                grid.len(),
            );
        }
    }
    Ok((run, options, grid))
}

/// An `--ecc` value must not *silently* lose cells to validity
/// filtering. `cells` counts the grid's cells under the given repair
/// values; against the no-repair grid, a value with no surviving cell
/// (`secded:13` on 8-bit words shares a factor with the 13-bit
/// codeword) is an error and a partial drop (`secded:3` on fp32's
/// 39-bit codeword) a warning.
fn check_repair_coverage(
    args: &Args,
    repairs: &[RepairPolicy],
    cells: impl Fn(&[RepairPolicy]) -> usize,
) -> Result<(), CliError> {
    let reference = cells(&[RepairPolicy::None]);
    for &repair in repairs.iter().filter(|repair| !repair.is_none()) {
        let cells = cells(&[repair]);
        if cells == 0 && reference > 0 {
            return Err(args.error(format_args!(
                "--ecc {}: every cell of this repair value is invalid \
                 (the SECDED interleave must be coprime with the codeword width — \
                 13 for 8-bit words, 39 for fp32)",
                repair.display_name()
            )));
        }
        if cells < reference {
            eprintln!(
                "{}: warning: --ecc {}: only {cells} of {reference} cell(s) are \
                 valid under this repair value — the rest were dropped (interleave \
                 not coprime with that word width's codeword)",
                args.mode.label(),
                repair.display_name()
            );
        }
    }
    Ok(())
}

/// The comma-list grammar `--ecc` and `--tech` share: `both` expands
/// to the axis's canonical value set and composes with explicit items
/// (`--tech both` ≡ `--tech sram,reram`); repeats collapse in order.
fn parse_axis_list<T: Copy + PartialEq>(
    raw: &str,
    both: &[T],
    parse_one: impl Fn(&str) -> Option<T>,
) -> Option<Vec<T>> {
    let mut out: Vec<T> = Vec::new();
    for item in raw.split(',').map(str::trim) {
        let values = match item {
            "both" | "all" => both.to_vec(),
            _ => vec![parse_one(item)?],
        };
        for value in values {
            if !out.contains(&value) {
                out.push(value);
            }
        }
    }
    Some(out)
}

/// The `--ecc` axis: repair policies to cross the grid with.
/// `both[:INTERLEAVE]` pairs the plain and SECDED variants of every
/// cell in one campaign (what the corrected-vs-uncorrected table
/// lines up).
fn parse_ecc(raw: &str) -> Option<Vec<RepairPolicy>> {
    if let Some(stride) = raw.strip_prefix("both:") {
        let secded = RepairPolicy::parse(&format!("secded:{stride}"))?;
        return Some(vec![RepairPolicy::None, secded]);
    }
    let both = [RepairPolicy::None, RepairPolicy::Secded { interleave: 1 }];
    parse_axis_list(raw, &both, RepairPolicy::parse)
}

/// The `--tech` axis: which lifetime technology ages the weight
/// memory. `both` sweeps SRAM/NBTI and ReRAM-endurance variants of
/// every cell in one campaign.
fn parse_tech(raw: &str) -> Option<Vec<MemoryTech>> {
    parse_axis_list(raw, &MemoryTech::ALL, MemoryTech::parse)
}

fn sweep(args: &Args) -> Result<(), CliError> {
    let (run, _, grid) = scenario_grid(args, SweepOptions::default().backend)?;
    let name = &grid.name;
    let (store_path, events) = run.store_paths(format!("campaign-results/{name}.jsonl"));
    run.instrumented(&events, &format!("sweep {name}"), |instr| {
        let started = Instant::now();
        let outcome = run_campaign(&grid, &store_path, &run.campaign_options(instr))
            .map_err(|e| e.to_string())?;
        println!(
            "campaign `{name}`: {} executed, {} skipped, {} thread(s), {:.1}s -> {store_path}",
            outcome.executed,
            outcome.skipped,
            outcome.threads,
            started.elapsed().as_secs_f64(),
        );
        Ok(())
    })
}

fn validate(args: &Args) -> Result<(), CliError> {
    let (run, options, grid) = scenario_grid(args, SimulatorBackend::Exact)?;
    let name = &grid.name;
    // validate has no result store to sit next to, so its journal gets
    // a grid-derived path under the default results directory.
    let events = format!("campaign-results/validate-{name}.events.jsonl");
    let started = Instant::now();
    let results = run.instrumented(&events, &format!("validate {name}"), |instr| {
        let interrupted =
            || format!("validate `{name}` interrupted; completed pairs were discarded");
        let results = validate_scenarios(&grid.scenarios, &run.campaign_options(instr));
        let results = results.ok_or_else(interrupted)?;
        // Unlike the campaign executors, cross-validation journals no
        // roll-ups of its own.
        if let Some(telemetry) = instr.telemetry {
            telemetry.emit_counters();
            telemetry.emit_histograms();
        }
        Ok(results)
    })?;
    print!("{}", aggregate::crossval_table(&results));
    let worst = results
        .iter()
        .map(|cv| cv.max_abs_duty)
        .fold(0.0f64, f64::max);
    println!(
        "validate `{name}`: {} scenario pair(s), max per-cell duty divergence {worst:.3e}, {:.1}s",
        results.len(),
        started.elapsed().as_secs_f64(),
    );
    let failures: Vec<&str> = results
        .iter()
        .filter(|cv| !cv.within_tolerance())
        .map(|cv| cv.label.as_str())
        .collect();
    if options.dwell.is_uniform() && !args.has(&REPORT_ONLY) && !failures.is_empty() {
        return Err(args.error(format_args!(
            "{} scenario pair(s) exceeded the documented tolerance:\n  {}",
            failures.len(),
            failures.join("\n  ")
        )));
    }
    Ok(())
}

/// Maps a missing store or journal to the distinct [`EXIT_NO_STORE`]
/// outcome, naming the path. Read-only commands need the check:
/// `JsonlStore::open` creates no file, it reads a missing one as an
/// empty store.
fn require_store_file(args: &Args, path: &str) -> Result<(), CliError> {
    if !std::path::Path::new(path).exists() {
        let message = format!("{}: no store at `{path}`", args.mode.label());
        return Err(CliError::store(message));
    }
    Ok(())
}

/// Opens a store for a read-only command; a missing or empty store is
/// the no-store outcome.
fn open_store<R: StoreRecord>(args: &Args, path: &str) -> Result<JsonlStore<R>, CliError> {
    require_store_file(args, path)?;
    let store = JsonlStore::<R>::open(path).map_err(|e| e.to_string())?;
    if store.is_empty() {
        let message = format!("{}: `{path}` holds no records", args.mode.label());
        return Err(CliError::store(message));
    }
    Ok(store)
}

/// The `--json` form of a store: `{"store": PATH, KEY: [records]}`.
fn store_json<R: StoreRecord>(path: &str, key: &str, store: &JsonlStore<R>) -> serde::Value {
    let records = store.records().map(|r| r.to_value()).collect();
    serde::Value::Object(vec![
        ("store".to_string(), path.to_value()),
        (key.to_string(), serde::Value::Array(records)),
    ])
}

fn report(args: &Args) -> Result<(), CliError> {
    let table = args.value(&TABLE, "all", |name| {
        TABLE.value.split('|').find(|&t| t == name)
    })?;
    let store_path = args.path(&STORE);
    let store: ResultStore = open_store(args, store_path)?;
    if args.has(&JSON) {
        args.print(|| store_json(store_path, "scenarios", &store), String::new);
        return Ok(());
    }
    let text = match table {
        "fig9" => aggregate::fig9_table(&store),
        "fig11" => aggregate::fig11_table(&store),
        "bias" | "mbits" => {
            let (text, csv) = match table {
                "bias" => aggregate::bias_sensitivity(&store),
                _ => aggregate::mbits_sensitivity(&store),
            };
            if text.is_empty() {
                text
            } else {
                format!("{text}\n{csv}")
            }
        }
        "detail" => {
            print!("{}", aggregate::detail(&store));
            return Ok(());
        }
        _ => {
            // `all`: every summary table, silently skipping empty ones.
            print!("{}", aggregate::fig9_table(&store));
            print!("{}", aggregate::fig11_table(&store));
            print!("{}", aggregate::bias_sensitivity(&store).0);
            print!("{}", aggregate::mbits_sensitivity(&store).0);
            return Ok(());
        }
    };
    // For an explicitly requested table, an empty render is an error
    // rather than silence.
    if text.is_empty() {
        let message = format!("report: `{store_path}` holds no scenarios matching table `{table}`");
        return Err(message.into());
    }
    print!("{text}");
    Ok(())
}

fn compare(args: &Args) -> Result<(), CliError> {
    let (path_a, path_b) = (args.path(&STORE_A), args.path(&STORE_B));
    let a: ResultStore = open_store(args, path_a)?;
    let b: ResultStore = open_store(args, path_b)?;
    args.print(
        || aggregate::compare_stores_json(&a, &b),
        || aggregate::compare_stores(&a, &b),
    );
    Ok(())
}

/// The CLI spellings of the platform and number-format axes, canonical
/// spelling first.
const PLATFORMS: &[(&str, Platform)] = &[
    ("baseline", Platform::Baseline),
    ("npu", Platform::TpuLike),
    ("tpu", Platform::TpuLike),
    ("tpu-like", Platform::TpuLike),
];
const FORMATS: &[(&str, NumberFormat)] = &[
    ("fp32", NumberFormat::Fp32),
    ("int8", NumberFormat::Int8Symmetric),
    ("int8-sym", NumberFormat::Int8Symmetric),
    ("int8-symmetric", NumberFormat::Int8Symmetric),
    ("int8-asym", NumberFormat::Int8Asymmetric),
    ("int8-asymmetric", NumberFormat::Int8Asymmetric),
];

/// The parser of one spelling table.
fn spelled<T: Copy>(spellings: &'static [(&str, T)]) -> impl Fn(&str) -> Option<T> {
    move |raw| Some(spellings.iter().find(|s| s.0 == raw)?.1)
}

/// The canonical spelling of `value`.
fn spelling<T: PartialEq>(spellings: &[(&'static str, T)], value: T) -> &'static str {
    spellings.iter().find(|s| s.1 == value).map_or("?", |s| s.0)
}

/// `Y1,Y2,...`: finite ages in years, none negative.
fn parse_ages(list: &str) -> Option<Vec<f64>> {
    let ages: Vec<f64> = list
        .split(',')
        .map(|age| age.parse().ok())
        .collect::<Option<_>>()?;
    ages.iter()
        .all(|age| age.is_finite() && *age >= 0.0)
        .then_some(ages)
}

/// `dnnlife inject`: the fault-injection campaign — accuracy vs age
/// per mitigation policy, resumable like `sweep`.
fn inject(args: &Args) -> Result<(), CliError> {
    let defaults = InjectionParams::default();
    let run = RunFlags::read(args, defaults.base_seed)?;
    let platform = args.value(&PLATFORM, Platform::Baseline, spelled(PLATFORMS))?;
    let network = args.value(&NETWORK, NetworkKind::CustomMnist, |raw| {
        NetworkKind::parse(raw).ok()
    })?;
    let format = args.value(&FORMAT, NumberFormat::Int8Symmetric, spelled(FORMATS))?;
    let repairs = args.value(&ECC, vec![RepairPolicy::None], parse_ecc)?;
    let params = InjectionParams {
        base_seed: run.seed,
        inferences: args.inferences(defaults.inferences)?,
        ages_years: args.value(&AGES, defaults.ages_years.clone(), parse_ages)?,
        trials: args.count(&TRIALS, defaults.trials, MAX_TRIALS)?,
        eval_images: args.count(&EVAL_IMAGES, defaults.eval_images, MAX_EVAL_IMAGES)?,
        train_steps: args.number(&TRAIN_STEPS, defaults.train_steps)?,
        noise_sigma_mv: args.bounded(&NOISE_MV, defaults.noise_sigma_mv, "> 0", |mv| {
            mv.is_finite() && *mv > 0.0
        })?,
    };
    // No --tech flag: the paper's SRAM/NBTI aging alone.
    let techs = args.value(&TECH, vec![MemoryTech::SramNbti], parse_tech)?;

    // The requested zoo network crossed with the paper's Fig. 11 policy
    // set (optionally filtered by `--policy` substrings). A requested
    // ReRAM technology adds the endurance-native mitigation — the
    // epoch-rotating wear-leveling remap — to the pool.
    let mut policies = dnnlife_core::experiment::fig11_policies();
    if techs.contains(&MemoryTech::ReramEndurance) {
        policies.push(PolicySpec::WearLevel { epochs: 4 });
    }
    if let Some(filter) = args.get(&POLICY).map(str::to_lowercase) {
        let needles: Vec<&str> = filter.split(',').map(str::trim).collect();
        let valid = policies
            .iter()
            .map(|p| p.display_name().to_lowercase())
            .collect::<Vec<_>>()
            .join(", ");
        policies.retain(|p| {
            let name = p.display_name().to_lowercase();
            needles.iter().any(|needle| name.contains(needle))
        });
        if policies.is_empty() {
            return Err(args.error(format_args!(
                "--policy `{filter}` matches no policy of the injectable set — valid values: {valid}"
            )));
        }
    }
    let build = |repairs: &[RepairPolicy]| {
        InjectionGrid::build_with_axes(
            "inject", platform, network, format, &policies, &params, repairs, &techs,
        )
    };
    let grid = build(&repairs);
    if grid.is_empty() {
        // Never silently write an empty store: an explicitly requested
        // combination with zero valid cells is an error, named in full.
        return Err(args.error(format_args!(
            "no valid cells for --network {} --platform {} --format {} \
             (fp32 needs --platform baseline; the SECDED interleave must be \
             coprime with the codeword width — 13 for 8-bit words, 39 for fp32)",
            network.cli_name(),
            spelling(PLATFORMS, platform),
            spelling(FORMATS, format),
        )));
    }
    check_repair_coverage(args, &repairs, |repairs| build(repairs).len())?;
    // A dataset opt-in that does not load is a usage error here, before
    // any store is opened — not a panic inside a trial worker.
    if let Some(dir) = std::env::var(MNIST_DIR_ENV)
        .ok()
        .filter(|dir| !dir.is_empty())
    {
        IdxMnist::load(std::path::Path::new(&dir))
            .map_err(|e| args.error(format_args!("{MNIST_DIR_ENV}: {e}")))?;
    }
    let (store_path, events) = run.store_paths("campaign-results/inject.jsonl".to_string());
    run.instrumented(&events, "inject", |instr| {
        let options = InjectCampaignOptions {
            threads: run.threads,
            shards: match run.shards {
                ShardPolicy::Auto => 0,
                ShardPolicy::Fixed(n) => n,
            },
            resume: run.resume,
            verbose: run.verbose,
            instr,
        };
        let started = Instant::now();
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
        Ok(())
    })
}

/// `dnnlife inject --report`: the accuracy-vs-age and ECC tables of an
/// existing injection store.
fn inject_report(args: &Args) -> Result<(), CliError> {
    let store_path = args.path(&STORE);
    let store: InjectionStore = open_store(args, store_path)?;
    args.print(
        || store_json(store_path, "cells", &store),
        || accuracy_vs_age_table(&store) + &ecc_comparison_table(&store),
    );
    Ok(())
}

/// The bytes of one telemetry events journal; a missing journal is the
/// no-store outcome.
fn read_journal(args: &Args, path: &str) -> Result<Vec<u8>, CliError> {
    require_store_file(args, path)?;
    let label = args.mode.label();
    Ok(std::fs::read(path).map_err(|e| format!("{label}: cannot read `{path}`: {e}"))?)
}

/// One journal's perf summary; a journal with no telemetry events is
/// the no-store outcome.
fn load_journal(args: &Args, path: &str) -> Result<perf::PerfSummary, CliError> {
    let summary = perf::summarize(&read_journal(args, path)?);
    if summary.campaigns.is_empty() && summary.scenarios.is_empty() && summary.counters.is_empty() {
        return Err(CliError::store(format!(
            "perf: `{path}` holds no telemetry events (was the run started with --telemetry?)"
        )));
    }
    Ok(summary)
}

/// A regression ratio: finite and at least 1.
fn ratio_ok(ratio: &f64) -> bool {
    ratio.is_finite() && *ratio >= 1.0
}

/// The gates of a `--baseline` file: the exact-backend throughput floor
/// (required) and the scenario-wall p99 ceiling (optional). A gate
/// that is present must be a positive number: a string or a zero
/// would otherwise turn its check off.
fn read_baseline(path: &str) -> Result<(f64, Option<f64>), CliError> {
    let contents = std::fs::read_to_string(path)
        .map_err(|e| format!("perf: cannot read baseline `{path}`: {e}"))?;
    let value: serde::Value = serde_json::from_str(contents.trim())
        .map_err(|e| format!("perf: baseline `{path}`: {e}"))?;
    let gate = |field: &str| match value.get(field) {
        None => Ok(None),
        Some(serde::Value::Number(n)) if (*n).as_f64() > 0.0 && (*n).as_f64().is_finite() => {
            Ok(Some((*n).as_f64()))
        }
        Some(_) => Err(format!(
            "perf: baseline `{path}`: `{field}` must be a positive number"
        )),
    };
    let floor = gate("exact_words_per_sec")?.ok_or_else(|| {
        format!("perf: baseline `{path}` lacks a numeric `exact_words_per_sec` field")
    })?;
    Ok((floor, gate("scenario_wall_p99_ms")?))
}

/// `dnnlife perf`: performance tables of one events journal and, for
/// CI, the throughput and p99 gates against a committed baseline
/// (validated before the journal is read).
fn perf_summary(args: &Args) -> Result<(), CliError> {
    let max_regression = args.bounded(&MAX_REGRESSION, 2.0, ">= 1", ratio_ok)?;
    let gates = args.get(&BASELINE).map(read_baseline).transpose()?;
    let summary = load_journal(args, args.path(&EVENTS))?;
    args.print(|| summary.to_value(), || summary.render_text());
    let Some((baseline, p99_ceiling)) = gates else {
        return Ok(());
    };
    let measured = perf::check_baseline(&summary, baseline, max_regression)
        .map_err(|e| format!("perf: {e}"))?;
    eprintln!(
        "perf: exact backend {measured:.0} words/s vs baseline {baseline:.0} \
         (allowed regression {max_regression:.1}x) — ok"
    );
    // A committed p99 ceiling fails hard when the journal can't prove
    // the p99 (no histogram events) instead of passing unmeasured.
    if let Some(ceiling) = p99_ceiling {
        let p99 = perf::check_wall_p99(&summary, ceiling, max_regression)
            .map_err(|e| format!("perf: {e}"))?;
        eprintln!(
            "perf: scenario wall p99 {p99:.1} ms vs ceiling {ceiling:.1} \
             (allowed regression {max_regression:.1}x) — ok"
        );
    }
    Ok(())
}

/// `dnnlife perf --diff`: the before/after ratio table of two journals
/// (`--events` before, `--diff` after).
fn perf_diff(args: &Args) -> Result<(), CliError> {
    let threshold = args.bounded(&THRESHOLD, perf::DIFF_THRESHOLD, ">= 1", ratio_ok)?;
    let (before_path, after_path) = (args.path(&EVENTS), args.path(&DIFF));
    let before = load_journal(args, before_path)?;
    let diff = perf::diff(&before, &load_journal(args, after_path)?, threshold);
    args.print(|| diff.to_value(), || diff.render_text());
    if diff.has_missing() {
        return Err(format!(
            "perf: `{after_path}` is missing metric(s) that `{before_path}` reports \
             — the diff cannot demonstrate the baseline's performance"
        )
        .into());
    }
    Ok(())
}

/// `dnnlife trace`: the span forest of one events journal, as a
/// flame-style hot-path table plus each campaign's critical path.
fn trace(args: &Args) -> Result<(), CliError> {
    let events = args.path(&EVENTS);
    let trace = dnnlife_campaign::trace::reconstruct(&read_journal(args, events)?);
    if trace.spans.is_empty() {
        return Err(CliError::store(format!(
            "trace: `{events}` holds no span events (was the run started with --telemetry?)"
        )));
    }
    args.print(|| trace.to_value(), || trace.render_text());
    Ok(())
}
