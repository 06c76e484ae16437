//! **§5.1 ablation** — pseudo-Boolean vs pure-CNF gate encodings, and the
//! paper-literal eq. (7) product vs per-ECU case-split preemption costs.
//!
//! The paper keeps the encoding "compact" by emitting pseudo-Boolean
//! constraints (e.g. a full-adder carry as two PB inequalities instead of
//! six clauses). This harness quantifies the difference on real allocation
//! encodings: constraint counts, literal counts and solve time per
//! backend × product-encoding combination, and asserts the optima agree.

use optalloc::intopt::Backend;
use optalloc::{Objective, SolveOptions};
use optalloc_bench::{emit, parse_cli, run_configs};
use optalloc_model::MediumId;
use optalloc_workloads::task_scaling;

fn main() {
    let cli = parse_cli();
    let mut rows = Vec::new();
    let sizes: &[usize] = if cli.full { &[12, 20] } else { &[7, 12] };

    for &n in sizes {
        let mut configs = Vec::new();
        for (backend, name) in [(Backend::Cnf, "CNF"), (Backend::PseudoBoolean, "PB")] {
            for product_elimination in [false, true] {
                let opts = SolveOptions {
                    backend,
                    product_elimination,
                    max_slot: 48,
                    max_conflicts: if cli.full { None } else { Some(5_000_000) },
                    ..Default::default()
                };
                let split = if product_elimination {
                    " + case-split"
                } else {
                    ""
                };
                configs.push((format!("{n} tasks, {name}{split}"), opts));
            }
        }
        let runs = run_configs(
            &task_scaling(n),
            &Objective::TokenRotationTime(MediumId(0)),
            configs,
            1,
        );
        for run in &runs {
            let mut row = run.row(|c| format!("TRT = {c}"));
            if let Ok(r) = &run.outcome {
                row.note = format!(
                    "{} constraints, {} conflicts",
                    r.encode.constraints, r.stats.conflicts
                );
            }
            rows.push(row);
        }
    }

    emit(
        "§5.1 ablation: CNF vs pseudo-Boolean encodings (same optima required)",
        &rows,
        &cli,
    );
    println!(
        "expected: identical optima everywhere; PB strictly fewer constraints \
         than CNF for the same instance"
    );
}
