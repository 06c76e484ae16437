//! # optalloc-bench
//!
//! Regeneration harnesses for the paper's evaluation (§6), the ablations
//! around it, and the `optalloc-cli` front end.
//!
//! | binary | what it measures |
//! |---|---|
//! | `table1` | Table 1 — \[5\]-style benchmark, TRT + CAN-load objectives, SA comparison |
//! | `table2` | Table 2 — architecture scaling (ECU count sweep) |
//! | `table3` | Table 3 — task-set scaling |
//! | `table4` | Table 4 — hierarchical architectures A/B/C, ΣTRT |
//! | `fig1`   | Figure 1 — path closures of the example topology |
//! | `incremental_ablation` | §7 — learned-clause reuse speedup |
//! | `encoding_ablation` | §5.1 — CNF vs pseudo-Boolean encoding sizes |
//! | `encoding_opt_ablation` | encoder-optimization stages; the CI reference check |
//! | `window_ablation` | single search vs parallel window search, critical-path conflicts |
//! | `certify_ablation` | DRAT proof-logging overhead, certificates re-verified |
//! | `service_ablation` | service cache hits and warm delta re-solves |
//! | `obs_overhead` | cost of a live observability handle (the CI ≤5% gate) |
//! | `obs_check` | validates a trace against a `--json` result |
//! | `optalloc-cli` | `generate` / `solve` / `serve` / `submit` |
//!
//! Every table and ablation solves through [`run_configs`]: one workload
//! under a list of named [`SolveOptions`], repetitions interleaved, the
//! fastest wall time kept and the optima cross-checked. [`Row::from_outcome`]
//! turns any outcome into a table row.
//!
//! All harnesses accept `--full` (paper-scale parameters; long runtimes)
//! and default to a calibrated **quick** scale that preserves the trends
//! while finishing in seconds to minutes. `--json <path>` additionally
//! dumps machine-readable rows.

use optalloc::{Objective, OptError, OptimizeReport, Optimizer, SolveOptions};
use optalloc_model::ticks_to_ms;
use optalloc_workloads::Workload;
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::{Duration, Instant};

/// Command-line options shared by the table binaries.
#[derive(Debug, Clone, Default)]
pub struct Cli {
    /// Run at paper-scale parameters (slow).
    pub full: bool,
    /// Dump rows as JSON to this path.
    pub json: Option<PathBuf>,
    /// Peak worker count for the parallel ablations; `None` = `auto`
    /// (one per host core). Resolve with [`Cli::max_workers`].
    pub workers: Option<usize>,
}

impl Cli {
    /// The largest worker count an ablation grid should reach: the
    /// `--workers` override, or one per host core (the `auto` default).
    pub fn max_workers(&self) -> usize {
        self.workers.unwrap_or_else(host_cores)
    }
}

/// CPUs available to the process (1 when undetectable).
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Prints `msg` and exits with the usage-error code 2.
fn usage_error(msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// The value given to `flag`, parsed. A missing value (none, or the next
/// `--flag`) or an unparsable one exits 2 naming the flag.
pub fn flag_value<T: FromStr>(flag: &str, value: Option<impl AsRef<str>>) -> T {
    let value = value.filter(|v| !v.as_ref().starts_with("--"));
    let Some(v) = value else {
        usage_error(format!("{flag} needs a value"))
    };
    v.as_ref()
        .parse()
        .unwrap_or_else(|_| usage_error(format!("{flag}: invalid value `{}`", v.as_ref())))
}

/// A `<n|auto>` worker count: `None` for `auto`, else [`flag_value`].
pub fn workers_value(flag: &str, value: Option<impl AsRef<str>>) -> Option<usize> {
    match value {
        Some(v) if v.as_ref() == "auto" => None,
        v => Some(flag_value(flag, v)),
    }
}

/// Environment variable `key` parsed, or `default` when it is unset. An
/// unparsable value exits 2 naming the variable.
pub fn env_value<T: FromStr>(key: &str, default: T) -> T {
    match std::env::var(key) {
        Ok(v) => flag_value(key, Some(v)),
        Err(_) => default,
    }
}

/// The task counts of an ablation grid: `OPTALLOC_ABLATION_SIZES`
/// (comma-separated, e.g. `20,30`) when set, else `default`.
pub fn ablation_sizes(default: &[usize]) -> Vec<usize> {
    match std::env::var("OPTALLOC_ABLATION_SIZES") {
        Ok(s) => s
            .split(',')
            .map(|t| flag_value("OPTALLOC_ABLATION_SIZES", Some(t.trim())))
            .collect(),
        Err(_) => default.to_vec(),
    }
}

/// Parses `--full`, `--json <path>` and `--workers <n|auto>` from
/// `std::env::args`.
pub fn parse_cli() -> Cli {
    let mut cli = Cli::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--full" => cli.full = true,
            "--json" => cli.json = Some(flag_value("--json", args.next())),
            "--workers" => cli.workers = workers_value("--workers", args.next()),
            "--help" | "-h" => {
                eprintln!(
                    "options: --full (paper-scale), --json <path>, \
                     --workers <n|auto> (peak parallel worker count; \
                     auto = one per host core)"
                );
                std::process::exit(0);
            }
            other => usage_error(format!("unknown option {other}")),
        }
    }
    cli
}

/// Solve options for the harnesses: quick mode bounds conflicts so a
/// too-hard probe degrades into a reported incumbent instead of hanging.
pub fn solve_options(full: bool) -> SolveOptions {
    SolveOptions {
        max_conflicts: if full { None } else { Some(3_000_000) },
        // Generated frames are ≤ 9 ticks, so 24 leaves ample headroom while
        // keeping the slot decision space small in quick mode.
        max_slot: if full { 48 } else { 24 },
        ..Default::default()
    }
}

/// One configuration of an experiment, measured by [`run_configs`].
#[derive(Debug)]
pub struct Run {
    /// The configuration's name.
    pub label: String,
    /// The outcome of the fastest repetition.
    pub outcome: Result<OptimizeReport, OptError>,
    /// Wall time of the fastest repetition, in seconds.
    pub time_s: f64,
}

impl Run {
    /// The report of a run that must reach an optimum; panics naming the
    /// configuration otherwise.
    pub fn report(&self) -> &OptimizeReport {
        self.outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("{}: {e}", self.label))
    }

    /// The run as a table row (see [`Row::from_outcome`]).
    pub fn row(&self, fmt_cost: impl Fn(i64) -> String) -> Row {
        Row::from_outcome(self.label.clone(), &self.outcome, fmt_cost)
    }
}

/// Solves `w` for `objective` under each named configuration, `reps`
/// times each (at least once). Within every repetition the configurations
/// take turns, so clock drift hits them equally; each keeps the outcome
/// and wall time of its fastest repetition.
///
/// Panics when two runs prove different optima: the search is
/// deterministic and every configuration answers the same question.
pub fn run_configs(
    w: &Workload,
    objective: &Objective,
    configs: Vec<(String, SolveOptions)>,
    reps: usize,
) -> Vec<Run> {
    let mut best: Vec<Option<Run>> = configs.iter().map(|_| None).collect();
    let mut optimum: Option<(i64, String)> = None;
    for _ in 0..reps.max(1) {
        for ((label, opts), slot) in configs.iter().zip(&mut best) {
            let start = Instant::now();
            let outcome = Optimizer::new(&w.arch, &w.tasks)
                .with_options(opts.clone())
                .minimize(objective);
            let time_s = start.elapsed().as_secs_f64();
            if let Ok(r) = &outcome {
                let (cost, first) = optimum.get_or_insert_with(|| (r.cost, label.clone()));
                assert_eq!(
                    r.cost, *cost,
                    "{}: {label} proves a different optimum than {first}",
                    w.name
                );
            }
            if slot.as_ref().is_none_or(|b| time_s < b.time_s) {
                *slot = Some(Run {
                    label: label.clone(),
                    outcome,
                    time_s,
                });
            }
        }
    }
    best.into_iter().flatten().collect()
}

/// One row of an experiment table.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Experiment label (leftmost column).
    pub experiment: String,
    /// Headline result (objective value, status).
    pub result: String,
    /// Wall-clock time of the optimization run.
    pub time_s: f64,
    /// Propositional variables of the encoding (thousands).
    pub vars_k: f64,
    /// Literal occurrences of the encoding (thousands).
    pub lits_k: f64,
    /// Extra detail (solver calls, conflicts, …).
    pub note: String,
}

impl Row {
    /// A row without encoding columns (heuristics, ratios, service jobs).
    pub fn plain(
        experiment: impl Into<String>,
        result: impl Into<String>,
        time_s: f64,
        note: impl Into<String>,
    ) -> Row {
        Row {
            experiment: experiment.into(),
            result: result.into(),
            time_s,
            vars_k: 0.0,
            lits_k: 0.0,
            note: note.into(),
        }
    }

    /// The row of an optimization outcome. `fmt_cost` renders a cost as
    /// the result column (`TRT = 1.25ms`); a budget-exhausted run shows its
    /// incumbent as a bound (`TRT ≤ 1.25ms (budget)`), any other error its
    /// message.
    pub fn from_outcome(
        experiment: impl Into<String>,
        outcome: &Result<OptimizeReport, OptError>,
        fmt_cost: impl Fn(i64) -> String,
    ) -> Row {
        match outcome {
            Ok(r) => Row {
                experiment: experiment.into(),
                result: fmt_cost(r.cost),
                time_s: r.wall.as_secs_f64(),
                vars_k: r.encode.bool_vars as f64 / 1000.0,
                lits_k: r.encode.literals as f64 / 1000.0,
                note: format!(
                    "{} SOLVE calls, {} conflicts",
                    r.solve_calls, r.stats.conflicts
                ),
            },
            Err(OptError::Budget { incumbent }) => Row::plain(
                experiment,
                match incumbent {
                    Some((c, _)) => format!("{} (budget)", fmt_cost(*c).replacen(" = ", " ≤ ", 1)),
                    None => "budget exhausted".into(),
                },
                0.0,
                "conflict budget hit; rerun with --full",
            ),
            Err(e) => Row::plain(experiment, e.to_string(), 0.0, ""),
        }
    }
}

/// Renders a tick cost as `<name> = <ms>ms`, the paper's time columns.
pub fn ms(name: &'static str) -> impl Fn(i64) -> String + Copy {
    move |c| format!("{name} = {:.2}ms", ticks_to_ms(c as u64))
}

/// Formats a duration like the paper's time columns.
pub fn fmt_time(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s < 60.0 {
        format!("{s:.2}s")
    } else if s < 3600.0 {
        format!("{}m{:02}s", (s / 60.0) as u64, (s % 60.0) as u64)
    } else {
        format!(
            "{}h{:02}m",
            (s / 3600.0) as u64,
            ((s % 3600.0) / 60.0) as u64
        )
    }
}

/// Serializes `rows` as pretty JSON and, given a path, writes them there.
pub fn write_json<T: Serialize>(rows: &[T], path: Option<&Path>) -> String {
    let json = serde_json::to_string_pretty(rows).expect("rows serialize");
    if let Some(path) = path {
        std::fs::write(path, &json).expect("write json");
        eprintln!("(rows written to {})", path.display());
    }
    json
}

/// Prints a table in the paper's layout and optionally dumps JSON.
pub fn emit(title: &str, rows: &[Row], cli: &Cli) {
    println!("\n== {title} ==");
    println!(
        "{:<34} {:>16} {:>10} {:>10} {:>10}  Notes",
        "Experiment", "Result", "Time", "Var.(k)", "Lit.(k)"
    );
    for r in rows {
        println!(
            "{:<34} {:>16} {:>10} {:>10.1} {:>10.1}  {}",
            r.experiment,
            r.result,
            fmt_time(Duration::from_secs_f64(r.time_s)),
            r.vars_k,
            r.lits_k,
            r.note
        );
    }
    write_json(rows, cli.json.as_deref());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_formatting() {
        assert_eq!(fmt_time(Duration::from_millis(2500)), "2.50s");
        assert_eq!(fmt_time(Duration::from_secs(75)), "1m15s");
        assert_eq!(fmt_time(Duration::from_secs(3700)), "1h01m");
    }

    #[test]
    fn cli_default_is_quick() {
        let cli = Cli::default();
        assert!(!cli.full);
        assert!(cli.json.is_none());
    }

    #[test]
    fn workers_default_to_host_cores() {
        let cli = Cli::default();
        assert_eq!(cli.max_workers(), host_cores());
        assert!(host_cores() >= 1);
        let pinned = Cli {
            workers: Some(3),
            ..Cli::default()
        };
        assert_eq!(pinned.max_workers(), 3);
    }
}
