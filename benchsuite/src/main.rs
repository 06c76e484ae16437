//! `bench_suite` — the repository benchmark.
//!
//! ```text
//! bench_suite [--workload W] [--seed S] [--seconds N] [--trace 0|1]
//!             [--trace-out DIR] [--json PATH]
//! bench_suite compare A.json B.json
//! bench_suite record-ref
//! ```
//!
//! With `--workload`, runs that workload in this process: prints one
//! `workload metric value unit samples` line per metric, then, as the last
//! line, the result as one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`). `--trace 0` (default) reports the end-to-end metrics of a
//! closed loop of `--seconds` (default 20); `--trace 1` reports the
//! per-layer metrics of one traced pass, and `--trace-out DIR` writes that
//! trace to `DIR/<workload>.jsonl`. Without `--workload`, runs every
//! workload, each in its own child process, one after another. `--json`
//! appends the run to a trajectory file for `compare`.
//!
//! Refuses debug builds and any `OPTALLOC_*` environment variable: the
//! benchmark measures the optimized default configuration only.

mod check;
mod compare;
mod metrics;
mod plan;
mod run;
mod stats;
mod trajectory;

use metrics::def;
use plan::{Size, Workload, DEFAULT_SEED};
use run::{program_trace_jsonl, run, RunConfig};
use serde::Value;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use trajectory::{Entry, WorkloadResult};

const USAGE: &str = "usage: bench_suite [--workload W] [--seed S] [--seconds N] [--trace 0|1] \
                     [--trace-out DIR] [--json PATH]\n       bench_suite compare A.json B.json\n       \
                     bench_suite record-ref";

struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<PathBuf>,
    json: Option<PathBuf>,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => s.replace('_', "").parse().ok(),
    }
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 20,
        trace: false,
        trace_out: None,
        json: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                o.workload = Some(Workload::parse(w).ok_or(format!("unknown workload `{w}`"))?);
            }
            "--seed" => o.seed = parse_u64(value()?).ok_or("--seed takes an integer")?,
            "--seconds" => {
                o.seconds = parse_u64(value()?)
                    .filter(|&s| s >= 1)
                    .ok_or("--seconds takes a whole number ≥ 1")?
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--trace-out" => o.trace_out = Some(PathBuf::from(value()?)),
            "--json" => o.json = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(o)
}

/// `Err` with a one-line reason when this process must not measure.
fn refuse_unpinned() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; build with --release".into());
    }
    if let Some((key, _)) = std::env::vars().find(|(k, _)| k.starts_with("OPTALLOC_")) {
        return Err(format!(
            "refusing to measure with {key} set; the benchmark measures the default configuration"
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare_files(&args[1..]),
        Some("record-ref") => refuse_unpinned().and_then(|()| record_ref()),
        _ => parse(&args)
            .map_err(|e| format!("{e}\n{USAGE}"))
            .and_then(|o| refuse_unpinned().map(|()| o))
            .and_then(|o| match o.workload {
                Some(w) => run_one(w, &o),
                None => run_all(&o),
            }),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench_suite: {e}");
            ExitCode::from(2)
        }
    }
}

fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

fn finish(o: &Options, results: Vec<WorkloadResult>) -> Result<ExitCode, String> {
    let correct = results.iter().all(|r| r.correct);
    if let Some(path) = &o.json {
        let entry = Entry {
            recorded_at_unix: unix_now(),
            seed: o.seed,
            seconds: o.seconds,
            trace: o.trace,
            results,
        };
        let n = trajectory::append(path, &entry)?;
        eprintln!("(entry {n} appended to {})", path.display());
    }
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_one(workload: Workload, o: &Options) -> Result<ExitCode, String> {
    let result = run(
        workload,
        &RunConfig {
            seed: o.seed,
            seconds: o.seconds as f64,
            trace: o.trace,
            size: Size::Full,
        },
    );
    for f in &result.failures {
        eprintln!("FAILED {}: {f}", workload.name());
    }
    if let Some(dir) = &o.trace_out {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("{}.jsonl", workload.name()));
        std::fs::write(&path, program_trace_jsonl(&result.obs))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let mut metrics = Vec::new();
    for m in &result.metrics {
        let unit = def(m.name).expect("every measured metric is defined").unit;
        println!(
            "{} {} {} {} {}",
            workload.name(),
            m.name,
            m.value,
            unit,
            m.samples
        );
        metrics.push((m.name.to_string(), m.value, unit.to_string()));
    }
    let summary = WorkloadResult {
        workload: workload.name().to_string(),
        correct: result.failed == 0,
        attempted: result.attempted as u64,
        failed: result.failed as u64,
        metrics,
    };
    println!(
        "{}",
        serde_json::to_string(&summary.result_value()).expect("result serializes")
    );
    finish(o, vec![summary])
}

/// Runs every workload in a child process of its own, so each reports its
/// own peak memory, and prints one combined result line.
fn run_all(o: &Options) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut results = Vec::new();
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &o.seed.to_string()])
            .args(["--seconds", &o.seconds.to_string()])
            .args(["--trace", if o.trace { "1" } else { "0" }]);
        if let Some(dir) = &o.trace_out {
            cmd.arg("--trace-out").arg(dir);
        }
        let out = cmd.output().map_err(|e| format!("{}: {e}", w.name()))?;
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines
            .pop()
            .ok_or(format!("{} printed no result ({})", w.name(), out.status))?;
        for line in lines {
            println!("{line}");
        }
        let value: Value = serde_json::from_str(last).map_err(|e| format!("{}: {e}", w.name()))?;
        results.push(WorkloadResult::from_result(w.name(), &value)?);
    }
    let total = WorkloadResult {
        workload: "all".into(),
        correct: results.iter().all(|r| r.correct),
        attempted: results.iter().map(|r| r.attempted).sum(),
        failed: results.iter().map(|r| r.failed).sum(),
        metrics: results
            .iter()
            .flat_map(|r| {
                let prefixed = |(n, v, u): &(String, f64, String)| {
                    (format!("{}/{n}", r.workload), *v, u.clone())
                };
                r.metrics.iter().map(prefixed)
            })
            .collect(),
    };
    println!(
        "{}",
        serde_json::to_string(&total.result_value()).expect("result serializes")
    );
    finish(o, results)
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two trajectory files".into());
    };
    let a = trajectory::load(a.as_ref())?;
    let b = trajectory::load(b.as_ref())?;
    print!("{}", compare::render(&compare::compare(&a, &b)));
    Ok(ExitCode::SUCCESS)
}

/// Solves every distinct instance of every workload once with a checked
/// optimality certificate and writes the optima to `ref/optima.json`.
fn record_ref() -> Result<ExitCode, String> {
    let mut optima = std::collections::BTreeMap::new();
    for w in Workload::ALL {
        for job in &plan::plan(w, DEFAULT_SEED, Size::Full).jobs {
            if optima.contains_key(&job.key) {
                continue;
            }
            let report = optalloc::Optimizer::new(&job.instance.arch, &job.instance.tasks)
                .with_options(plan::certified())
                .minimize(&job.objective)
                .map_err(|e| format!("{}: {e}", job.key))?;
            eprintln!("{}: certified optimum {}", job.key, report.cost);
            optima.insert(job.key.clone(), report.cost);
        }
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/ref/optima.json");
    let text = serde_json::to_string_pretty(&optima).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{path}: {e}"))?;
    Ok(ExitCode::SUCCESS)
}
