//! Every metric the benchmark reports: name, unit, direction and — for the
//! end-to-end metrics — the regression bound. `BENCHMARK.json` lists the
//! same table; a test keeps the two equal.

use Better::{Higher, Lower};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Lower,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Measured with tracing off, on every workload. The timing bounds are as
/// wide as the drift of a shared host requires, just under `setup_s`'s, the
/// widest; memory is steadier.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", 0.25),
    e2e("pass_s", "s", 0.24),
    e2e("latency_p50_ms", "ms", 0.24),
    e2e("latency_p90_ms", "ms", 0.24),
    e2e("peak_rss_mb", "MiB", 0.15),
];

/// Measured on one traced pass, on every workload. Names follow the crate
/// (layer) that does the work.
pub const PER_LAYER: &[MetricDef] = &[
    // sat: CDCL search
    layer("sat.search_ms", "ms", Lower),
    layer("sat.conflicts", "count", Lower),
    layer("sat.propagations", "count", Lower),
    layer("sat.decisions", "count", Lower),
    layer("sat.restarts", "count", Lower),
    layer("sat.props_per_ms", "1/ms", Higher),
    layer("sat.learned_kept", "ratio", Higher),
    // sat: inprocessing
    layer("sat.preprocess_ms", "ms", Lower),
    layer("sat.elim_vars", "count", Higher),
    layer("sat.vivified", "count", Higher),
    layer("sat.peak_learnts", "count", Lower),
    // sat::drat + intopt::certificate
    layer("intopt.certify_share", "ratio", Lower),
    layer("sat.drat_steps", "count", Lower),
    layer("sat.drat_adds_verified", "count", Lower),
    // intopt: encoding
    layer("intopt.encode_ms", "ms", Lower),
    layer("intopt.bool_vars", "count", Lower),
    layer("intopt.literals", "count", Lower),
    layer("intopt.constraints", "count", Lower),
    // intopt: bisection
    layer("intopt.solve_calls", "count", Lower),
    layer("intopt.sat_probes", "count", Lower),
    layer("intopt.unsat_probes", "count", Lower),
    layer("intopt.sat_probe_ms", "ms", Lower),
    layer("intopt.unsat_probe_ms", "ms", Lower),
    // portfolio: window search
    layer("portfolio.windows", "count", Lower),
    layer("portfolio.max_worker_conflicts", "count", Lower),
    layer("portfolio.busy_frac", "ratio", Higher),
    layer("sat.exported", "count", Lower),
    layer("sat.imported", "count", Higher),
    // core: Encoding::build, decode and re-validation
    layer("core.self_ms", "ms", Lower),
    // analysis: the benchmark's own re-validation of every answer
    layer("analysis.validate_ms", "ms", Lower),
    layer("analysis.violations", "count", Lower),
    // service: cache, sessions, warm engine
    layer("service.cache_hit_ratio", "ratio", Higher),
    layer("service.warm_reused", "count", Higher),
    layer("service.warm_seeded", "count", Higher),
    layer("service.warm_cold", "count", Lower),
    layer("service.self_share", "ratio", Lower),
    // obs: cost of tracing itself
    layer("obs.trace_overhead", "ratio", Lower),
];

/// The definition of a metric by name.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// One measured value, with the number of samples it summarizes.
#[derive(Debug)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    /// The metric table of `BENCHMARK.json` at the repository root.
    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn listed(json: &Value, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        json.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| match m.get(k) {
                    Some(Value::Str(s)) => s.clone(),
                    other => panic!("{key}: {k} is {other:?}"),
                };
                let bound = m.get("bound").map(|b| match b {
                    Value::Float(f) => *f,
                    Value::UInt(u) => *u as f64,
                    other => panic!("bound {other:?}"),
                });
                (s("name"), s("unit"), s("better"), bound)
            })
            .collect()
    }

    fn ours(defs: &[MetricDef]) -> Vec<(String, String, String, Option<f64>)> {
        defs.iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    format!("{:?}", m.better).to_lowercase(),
                    m.bound,
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_these_metrics() {
        let json = benchmark_json();
        assert_eq!(listed(&json, "end_to_end"), ours(END_TO_END));
        assert_eq!(listed(&json, "per_layer"), ours(PER_LAYER));
    }
}
