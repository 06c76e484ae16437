//! **Encoder-optimization ablation** — how much does each stage of the
//! encode-and-solve optimization layer shrink the formula and speed up the
//! sequential binary search?
//!
//! Table-3-style instances (token-ring task-set scaling), TRT objective,
//! plain incremental binary search ([`optalloc::Strategy::Single`]) so the
//! measured wall-clock is a true single-core number. Four cumulative stages
//! per instance:
//!
//! - `baseline` — [`EncoderOpt::none`]: the pre-optimization encoder;
//! - `+hash-consing` — structural gate cache and algebraic rewrites in the
//!   blaster;
//! - `+narrowing` — plus forward–backward interval tightening, decided
//!   comparison folding, dead-definition sweeping and truncated adders;
//! - `+preprocess` — plus the SAT solver's level-0 input preprocessing
//!   (the full [`EncoderOpt::default`] configuration).
//!
//! The harness asserts the proven optimum is identical across all stages
//! and reports literal reduction and wall-clock speedup relative to the
//! baseline. Results go to `results/encoding_opt_ablation.{json,txt}` (or
//! the `--json` path).
//!
//! Environment knobs:
//!
//! - `OPTALLOC_ABLATION_SIZES=20,30` — override the task-count grid;
//! - `OPTALLOC_ABLATION_REPS=3` — wall-clock repetitions per stage (the
//!   minimum is reported; conflict counts are deterministic across reps,
//!   only the wall clock is noisy). Default 3 quick, 1 with `--full`;
//! - `OPTALLOC_CHECK_REF=<ref.json>` — regression mode: compare this run's
//!   counts per (tasks, stage) against the committed reference rows and
//!   exit non-zero if the optimum moves, vars or lits drift by more than
//!   ±5%, or conflicts or propagations drift by more than ±20%. The search
//!   is deterministic, so search-count drift means the solver changed. Used
//!   by the CI encoding-size job.

use optalloc::{EncoderOpt, Objective, SolveOptions};
use optalloc_bench::{
    ablation_sizes, env_value, parse_cli, run_configs, solve_options, write_json,
};
use optalloc_model::MediumId;
use optalloc_workloads::task_scaling;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// One (instance, stage) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct OptRow {
    instance: String,
    tasks: usize,
    /// `baseline`, `+hash-consing`, `+narrowing`, or `+preprocess`.
    stage: String,
    /// Proven optimal TRT in ticks (identical across stages — asserted).
    cost: i64,
    vars: u64,
    lits: u64,
    constraints: u64,
    conflicts: u64,
    propagations: u64,
    /// Wall-clock ms spent encoding, summed over all `SOLVE` calls.
    encode_ms: f64,
    /// Wall-clock ms spent inside the SAT search, summed over all calls.
    solve_ms: f64,
    /// End-to-end wall time of the whole minimization.
    time_s: f64,
    /// `100 · (1 − lits / lits(baseline))` for the same instance.
    lit_reduction_pct: f64,
    /// `time_s(baseline) / time_s(this row)` for the same instance.
    speedup_vs_baseline: f64,
}

/// The cumulative stage grid, in measurement order.
fn stages() -> [(&'static str, EncoderOpt); 4] {
    let none = EncoderOpt::none();
    [
        ("baseline", none),
        (
            "+hash-consing",
            EncoderOpt {
                hash_consing: true,
                ..none
            },
        ),
        (
            "+narrowing",
            EncoderOpt {
                hash_consing: true,
                narrowing: true,
                ..none
            },
        ),
        ("+preprocess", EncoderOpt::default()),
    ]
}

fn render(rows: &[OptRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:>14} {:>8} {:>9} {:>10} {:>10} {:>10} {:>12} {:>10} {:>8} {:>9} {:>8}\n",
        "instance",
        "stage",
        "cost",
        "vars",
        "lits",
        "constr",
        "conflicts",
        "props",
        "encode_ms",
        "solve_s",
        "lits_red%",
        "speedup"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:>14} {:>8} {:>9} {:>10} {:>10} {:>10} {:>12} {:>10.1} {:>8.2} {:>9.1} {:>7.2}x\n",
            r.instance,
            r.stage,
            r.cost,
            r.vars,
            r.lits,
            r.constraints,
            r.conflicts,
            r.propagations,
            r.encode_ms,
            r.solve_ms / 1e3,
            r.lit_reduction_pct,
            r.speedup_vs_baseline
        ));
    }
    out
}

/// Regression mode: every (tasks, stage) row present in the reference must
/// prove the same optimum, match this run's var/lit counts within ±5% and
/// its conflict/propagation counts within ±20%.
fn check_reference(rows: &[OptRow], ref_path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(ref_path)
        .map_err(|e| format!("cannot read reference {ref_path}: {e}"))?;
    let reference: Vec<OptRow> =
        serde_json::from_str(&text).map_err(|e| format!("bad reference {ref_path}: {e}"))?;
    let mut failures = Vec::new();
    let mut checked = 0;
    for r in &reference {
        let Some(now) = rows
            .iter()
            .find(|x| x.tasks == r.tasks && x.stage == r.stage)
        else {
            failures.push(format!("missing row: {} tasks, {}", r.tasks, r.stage));
            continue;
        };
        checked += 1;
        if now.cost != r.cost {
            failures.push(format!(
                "{} tasks, {}: cost {} vs reference {} (optimum must never move)",
                r.tasks, r.stage, now.cost, r.cost
            ));
        }
        for (name, now, reference, tol) in [
            ("vars", now.vars, r.vars, 0.05),
            ("lits", now.lits, r.lits, 0.05),
            ("conflicts", now.conflicts, r.conflicts, 0.20),
            ("propagations", now.propagations, r.propagations, 0.20),
        ] {
            if (now as f64 - reference as f64).abs() > tol * reference as f64 {
                failures.push(format!(
                    "{} tasks, {}: {name} {now} vs reference {reference} (> ±{:.0}%)",
                    r.tasks,
                    r.stage,
                    tol * 100.0
                ));
            }
        }
    }
    if checked == 0 {
        failures.push(format!("no comparable rows in {ref_path}"));
    }
    if failures.is_empty() {
        eprintln!(
            "reference check: {checked} rows within bounds of {ref_path} \
             (vars/lits ±5%, conflicts/propagations ±20%)"
        );
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn main() {
    let cli = parse_cli();
    let sizes = ablation_sizes(if cli.full { &[20, 30, 43] } else { &[20, 30] });
    // The search is deterministic — conflicts and optimum repeat exactly —
    // so repetitions only de-noise the wall clock.
    let reps = env_value("OPTALLOC_ABLATION_REPS", if cli.full { 1 } else { 3 });

    let mut rows: Vec<OptRow> = Vec::new();
    for &n in &sizes {
        let w = task_scaling(n);
        let configs = stages().map(|(stage, encoder_opt)| {
            let opts = SolveOptions {
                encoder_opt,
                ..solve_options(cli.full)
            };
            (stage.to_string(), opts)
        });
        let runs = run_configs(
            &w,
            &Objective::TokenRotationTime(MediumId(0)),
            configs.into(),
            reps,
        );
        let (base_lits, base_time) = (runs[0].report().encode.literals, runs[0].time_s);
        for run in &runs {
            let r = run.report();
            rows.push(OptRow {
                instance: w.name.clone(),
                tasks: n,
                stage: run.label.clone(),
                cost: r.cost,
                vars: r.encode.bool_vars,
                lits: r.encode.literals,
                constraints: r.encode.constraints,
                conflicts: r.stats.conflicts,
                propagations: r.stats.propagations,
                encode_ms: r.encode.encode_ms,
                solve_ms: r.stats.solve_ms,
                time_s: run.time_s,
                lit_reduction_pct: 100.0 * (1.0 - r.encode.literals as f64 / base_lits as f64),
                speedup_vs_baseline: base_time / run.time_s,
            });
        }
    }

    let table = render(&rows);
    println!("\n== encoder-optimization ablation (identical optima asserted) ==");
    print!("{table}");

    match &cli.json {
        Some(path) => {
            write_json(&rows, Some(path));
        }
        None if std::fs::create_dir_all("results").is_ok() => {
            write_json(&rows, Some(Path::new("results/encoding_opt_ablation.json")));
            std::fs::write("results/encoding_opt_ablation.txt", &table).expect("write txt");
        }
        None => {}
    }

    if let Ok(ref_path) = std::env::var("OPTALLOC_CHECK_REF") {
        if let Err(msg) = check_reference(&rows, &ref_path) {
            eprintln!("reference check FAILED:\n{msg}");
            std::process::exit(1);
        }
    }
}
