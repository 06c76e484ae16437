//! **Certification ablation** — what does DRAT proof logging cost, and do
//! the certificates actually check out?
//!
//! Table-3-style instances (token-ring task-set scaling), TRT objective,
//! cold start. Three modes per instance:
//!
//! - `single` — plain incremental binary search, certification **off**:
//!   the baseline the overhead column divides by (and a check that the
//!   zero-cost path stays zero-cost: no proofs, no certificate);
//! - `single+certify` — the same search with `--certify`: every probe is
//!   proof-logged, the optimum ships with a verified certificate;
//! - `window+certify` — 2 deterministic window-search workers, the
//!   refutation region partitioned across workers and re-assembled.
//!
//! For every certified mode the harness **re-verifies** the certificate
//! itself (it does not trust the optimizer's internal check), asserts the
//! optimum matches the uncertified baseline, and records the checker's
//! workload (trace steps, RUP-verified additions). `overhead_vs_single`
//! is the wall-clock ratio against the uncertified single search — the
//! acceptance bar is < 2.5× for `single+certify`.
//!
//! Deterministic window search is used so two runs of this harness
//! produce bit-identical certificates (checked in the window-search test
//! suite); here determinism just keeps the measurement stable.
//!
//! `OPTALLOC_ABLATION_SIZES` (comma-separated task counts) overrides the
//! instance grid, e.g. `OPTALLOC_ABLATION_SIZES=12`.

use optalloc::{Objective, SolveOptions, Strategy};
use optalloc_bench::{ablation_sizes, parse_cli, run_configs, solve_options, write_json};
use optalloc_model::MediumId;
use optalloc_workloads::task_scaling;
use serde::Serialize;

/// One measurement of the certification grid.
#[derive(Debug, Serialize)]
struct CertifyRow {
    instance: String,
    tasks: usize,
    /// `single`, `single+certify`, `window+certify`.
    mode: &'static str,
    workers: usize,
    /// Proven optimal TRT in ticks (identical across all modes — asserted).
    cost: i64,
    time_s: f64,
    solve_calls: u32,
    conflicts: u64,
    /// `time_s / time_s(single)` — the proof-logging overhead.
    overhead_vs_single: f64,
    /// Whether a certificate was produced and re-verified by this harness
    /// (always `false` for the uncertified baseline).
    certified: bool,
    /// DRAT traces in the certificate (one per contributing solver).
    proofs: usize,
    /// Certified UNSAT cost windows across all traces.
    windows: usize,
    /// Total steps of the certificate's traces.
    proof_steps: usize,
    /// Derived clauses in the core of the window claims, each RUP-checked.
    adds_verified: usize,
}

fn main() {
    let cli = parse_cli();
    let sizes = ablation_sizes(if cli.full { &[12, 20, 30] } else { &[12, 20] });
    let grid: &[(&'static str, bool, usize)] = &[
        ("single", false, 1),
        ("single+certify", true, 1),
        ("window+certify", true, 2),
    ];

    let mut rows: Vec<CertifyRow> = Vec::new();
    for &n in &sizes {
        let w = task_scaling(n);
        let configs = grid
            .iter()
            .map(|&(mode, certify, workers)| {
                let strategy = match mode {
                    "window+certify" => Strategy::WindowSearch {
                        workers,
                        deterministic: true,
                    },
                    _ => Strategy::Single,
                };
                let opts = SolveOptions {
                    certify,
                    strategy,
                    ..solve_options(cli.full)
                };
                (format!("{n} tasks, {mode}"), opts)
            })
            .collect();
        let runs = run_configs(&w, &Objective::TokenRotationTime(MediumId(0)), configs, 1);
        let single_time = runs[0].time_s;

        for (run, &(mode, certify, workers)) in runs.iter().zip(grid) {
            let (r, total) = (run.report(), run.time_s);
            let label = &run.label;
            assert_eq!(
                r.certificate.is_some(),
                certify,
                "{label}: a certificate must come exactly with --certify"
            );
            let (proofs, windows, steps, adds) = match &r.certificate {
                Some(report) => {
                    // Independent re-check: don't trust the optimizer's
                    // internal verification.
                    let summary = report
                        .certificate
                        .verify()
                        .unwrap_or_else(|e| panic!("{label}: certificate rejected: {e}"));
                    (
                        summary.proofs,
                        summary.windows,
                        summary.steps,
                        summary.adds_verified,
                    )
                }
                None => (0, 0, 0, 0),
            };
            let overhead = total / single_time;
            eprintln!(
                "{label}: TRT = {} in {total:.2}s ({overhead:.2}x single); \
                 {proofs} proof(s), {windows} window(s), {adds} RUP-checked adds",
                r.cost,
            );
            rows.push(CertifyRow {
                instance: w.name.clone(),
                tasks: n,
                mode,
                workers,
                cost: r.cost,
                time_s: total,
                solve_calls: r.solve_calls,
                conflicts: r.stats.conflicts,
                overhead_vs_single: overhead,
                certified: certify,
                proofs,
                windows,
                proof_steps: steps,
                adds_verified: adds,
            });
        }
    }

    println!("{}", write_json(&rows, cli.json.as_deref()));
}
