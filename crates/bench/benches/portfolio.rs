//! Criterion benchmarks of the parallel strategy: plain single search vs
//! a 4-worker window search on a small end-to-end instance.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use optalloc::{Objective, Optimizer, SolveOptions, Strategy};
use optalloc_model::MediumId;
use optalloc_workloads::{generate, GenParams};

fn params() -> GenParams {
    GenParams {
        name: "bench-portfolio".into(),
        n_tasks: 9,
        n_chains: 3,
        n_ecus: 3,
        seed: 0xbe9c_f011,
        utilization: 0.35,
        restricted_fraction: 0.2,
        redundant_pairs: 1,
        token_ring: true,
        deadline_slack: 1.5,
    }
}

fn bench_portfolio(c: &mut Criterion) {
    let mut group = c.benchmark_group("portfolio");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(10));

    let w = generate(&params());
    let configs = [
        ("single", Strategy::Single),
        (
            "window",
            Strategy::WindowSearch {
                workers: 4,
                deterministic: true,
            },
        ),
    ];
    for (label, strategy) in configs {
        group.bench_with_input(BenchmarkId::new("trt", label), &strategy, |b, s| {
            b.iter(|| {
                let r = Optimizer::new(&w.arch, &w.tasks)
                    .with_options(SolveOptions {
                        max_slot: 16,
                        strategy: s.clone(),
                        ..Default::default()
                    })
                    .minimize(&Objective::TokenRotationTime(MediumId(0)))
                    .expect("feasible by construction");
                r.cost
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench_portfolio);
criterion_main!(benches);
