//! `obs-overhead` — measure what observability costs the solver.
//!
//! Runs the same minimization twice per repetition, once with the default
//! disabled [`Obs`] handle and once with a live one (spans + metrics +
//! a progress hook throttled at the default cadence; one handle records
//! every repetition), keeps the fastest repetition of each, and prints the
//! ratio. Exits 1 when the enabled run is more than
//! `OPTALLOC_OBS_MAX_OVERHEAD_PCT` percent slower (default
//! 5 — the CI `obs-smoke` gate; the design target in
//! `docs/OBSERVABILITY.md` is ≤2% for the *disabled* path, which this
//! enabled-vs-disabled bound dominates), and when the progress hook never
//! fired: a search too short for the default cadence (one event per 2,048
//! conflicts of a solver) measures no progress events at all.
//!
//! Environment knobs:
//!
//! - `OPTALLOC_OBS_SIZE=20` — task count of the `table3-t<N>` instance
//!   (default 20, the smallest Table-3 size whose search reaches the
//!   default progress cadence; t12 fires no event);
//! - `OPTALLOC_OBS_REPS=5` — repetitions per variant (default 3);
//! - `OPTALLOC_OBS_MAX_OVERHEAD_PCT=5` — failure threshold.

use optalloc::{Objective, SolveOptions};
use optalloc_bench::{env_value, run_configs, solve_options};
use optalloc_model::MediumId;
use optalloc_obs::{Obs, ProgressHook};
use optalloc_workloads::task_scaling;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn main() -> ExitCode {
    let n: usize = env_value("OPTALLOC_OBS_SIZE", 20);
    let reps: usize = env_value("OPTALLOC_OBS_REPS", 3).max(1);
    let max_pct: f64 = env_value("OPTALLOC_OBS_MAX_OVERHEAD_PCT", 5.0);

    let events = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&events);
    let enabled = SolveOptions {
        obs: Obs::enabled(),
        progress: Some(ProgressHook::new(move |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        })),
        ..solve_options(false)
    };
    let runs = run_configs(
        &task_scaling(n),
        &Objective::TokenRotationTime(MediumId(0)),
        vec![
            ("disabled".into(), solve_options(false)),
            ("enabled".into(), enabled),
        ],
        reps,
    );
    for run in &runs {
        run.report(); // the canonical instance solves
    }
    let (disabled, enabled) = (runs[0].time_s, runs[1].time_s);

    let overhead_pct = (enabled / disabled - 1.0) * 100.0;
    let events = events.load(Ordering::Relaxed);
    println!(
        "table3-t{n}, best of {reps}: disabled {disabled:.3}s, enabled \
         {enabled:.3}s ({events} progress events) -> overhead {overhead_pct:+.2}% \
         (limit {max_pct}%)",
    );
    if events == 0 {
        eprintln!("FAIL: no progress event fired, so the hook's cost was not measured");
        return ExitCode::from(1);
    }
    if overhead_pct > max_pct {
        eprintln!("FAIL: observability overhead above {max_pct}%");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
