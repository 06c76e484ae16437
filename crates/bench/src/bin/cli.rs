//! `optalloc-cli` — optimal task allocation from the command line.
//!
//! ```text
//! optalloc-cli generate <name> <out.json>       # dump a bundled workload
//! optalloc-cli solve <workload.json> [options]  # optimize it
//! optalloc-cli serve [options]                  # long-running TCP service
//! optalloc-cli submit <request> [options]       # talk to a running service
//!
//! generate names: tindell43, tindell16, table2-e<N>, table3-t<N>,
//!                 arch-a, arch-b, arch-c
//!
//! solve options:
//!   --objective trt | sumtrt | busload | maxutil | spread | feasible
//!               (trt/busload use medium 0 unless --medium <k> is given)
//!   --medium <k>            target medium index for trt/busload
//!   --max-conflicts <n>     solver budget
//!   --timeout-ms <n>        wall-clock limit; exceeding it exits 4
//!   --json                  print one machine-readable JSON result line
//!                           (the service protocol's JobResult) instead of
//!                           the human report
//!   --window <n|auto>       parallel window search: n workers over disjoint
//!                           cost sub-windows in bit-stable barrier rounds
//!                           (auto = one per host core)
//!   --no-encoder-opt        disable the encoder optimization layer (gate
//!                           hash-consing, interval narrowing, SAT
//!                           preprocessing) — the pre-optimization baseline
//!   --certify               record DRAT proof traces, assemble an optimality
//!                           certificate, and verify it (built-in backward
//!                           checker + independent witness replay); exits
//!                           nonzero if the certificate is rejected
//!   --proof <file>          write the certificate's DRAT traces to <file>
//!                           (text DRAT with `c` comments; implies --certify)
//!   --max-slot <n>          upper bound for TDMA slot decision variables
//!   --out <alloc.json>      write the allocation as JSON
//!   --trace <file>          record phase spans and write the trace after
//!                           solving: `.jsonl` extension for the line
//!                           format, anything else for Chrome trace_event
//!                           JSON (loadable in chrome://tracing / Perfetto);
//!                           see docs/OBSERVABILITY.md
//!   --metrics               print a metrics-registry snapshot (JSON) to
//!                           stderr after solving
//!   --progress              live progress line on stderr while searching
//!                           (conflicts/s, restarts, learnt tiers, window)
//!
//! serve options:
//!   --addr <host:port>      bind address (default 127.0.0.1:7723)
//!   --workers <n>           solver worker threads (default 1; warm-start
//!                           chains work best single-worker)
//!   --queue <n>             bounded queue depth (default 16)
//!   --cache <n>             result-cache capacity (default 64)
//!   --timeout-ms <n>        default per-job timeout
//!   plus the solve options --max-conflicts / --certify / --window,
//!   applied to every job
//!
//! submit requests (all take --addr <host:port> and --json):
//!   solve <workload.json> [--objective o] [--medium k] [--timeout-ms n]
//!   delta <ops.json> [--base <fingerprint>] [--timeout-ms n]
//!                           ops.json: JSON array of InstanceDelta values
//!   status
//!   metrics                 service metrics-registry snapshot
//!   shutdown                begin graceful drain, then exit
//!
//! A flag whose value is missing or does not parse exits 2 naming the flag.
//!
//! exit codes (solve and submit): 0 optimal/feasible, 1 internal error or
//! rejected submission, 2 usage/input error, 3 proven infeasible,
//! 4 timeout or conflict-budget exhaustion.
//! ```
//!
//! The workload file is the JSON serialization of
//! `optalloc_workloads::Workload` (architecture + task set + a feasibility
//! witness); the output is the optimal `optalloc_model::Allocation`.

use optalloc::{EncoderOpt, Objective, Optimizer, SolveOptions, Strategy};
use optalloc_bench::{flag_value, host_cores, workers_value};
use optalloc_model::{ticks_to_ms, MediumId};
use optalloc_obs::{format_progress_line, Obs, ProgressHook};
use optalloc_service::protocol::{Instance, JobOutcome, JobResult, Request, Response, WarmLabel};
use optalloc_service::{serve, Service, ServiceConfig};
use optalloc_workloads::{
    architecture_scaling, generate, table4_workload, task_scaling, Fig2, GenParams, Workload,
};
use std::io::{BufRead, BufReader, Write};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const DEFAULT_ADDR: &str = "127.0.0.1:7723";

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  optalloc-cli generate <name> <out.json>\n  \
         optalloc-cli solve <workload.json> [--objective o] [--medium k] \
         [--max-conflicts n] [--timeout-ms n] [--json] \
         [--window n|auto] [--no-encoder-opt] \
         [--certify] [--proof file] [--max-slot n] \
         [--out alloc.json] [--trace file] [--metrics] [--progress]\n  \
         optalloc-cli serve [--addr host:port] [--workers n] [--queue n] \
         [--cache n] [--timeout-ms n] [--max-conflicts n] [--certify] \
         [--window n|auto]\n  \
         optalloc-cli submit solve <workload.json> | delta <ops.json> \
         [--base fp] | status | metrics | shutdown  [--addr host:port] [--json]"
    );
    ExitCode::from(2)
}

/// `--window <n|auto>`: n workers, or one per host core for `auto`.
fn parse_workers(value: Option<&String>) -> usize {
    workers_value("--window", value).unwrap_or_else(host_cores)
}

/// Window search over `window` workers, or the single search without one.
fn strategy(window: Option<usize>) -> Strategy {
    match window {
        Some(workers) => Strategy::WindowSearch {
            workers,
            deterministic: true,
        },
        None => Strategy::Single,
    }
}

fn bundled(name: &str) -> Option<Workload> {
    if let Some(n) = name.strip_prefix("table2-e") {
        return n.parse().ok().map(architecture_scaling);
    }
    if let Some(n) = name.strip_prefix("table3-t") {
        return n.parse().ok().map(task_scaling);
    }
    match name {
        "tindell43" => Some(generate(&GenParams::tindell43())),
        "tindell16" => Some(generate(&GenParams {
            n_tasks: 16,
            n_chains: 5,
            utilization: 0.35,
            name: "tindell16".into(),
            ..GenParams::tindell43()
        })),
        "arch-a" => Some(table4_workload(Fig2::A, &GenParams::tindell43())),
        "arch-b" => Some(table4_workload(Fig2::B, &GenParams::tindell43())),
        "arch-c" => Some(table4_workload(Fig2::C, &GenParams::tindell43())),
        _ => None,
    }
}

/// Dump every DRAT trace of a verified certificate to one text file.
///
/// Each per-worker proof is prefixed with `c` comment lines naming the
/// cost windows it certifies and the step each window's claim is anchored
/// at, so an external checker can be pointed at the matching section.
fn write_proofs(path: &str, cert: &optalloc::intopt::Certificate) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        f,
        "c optalloc optimality certificate: optimum {}, cost range lower bound {}",
        cert.optimum, cert.cost_lo
    )?;
    for (i, p) in cert.proofs.iter().enumerate() {
        writeln!(f, "c proof {i}: {} certified window(s)", p.windows.len())?;
        for w in &p.windows {
            writeln!(
                f,
                "c   window [{}, {}] claimed at step {}",
                w.lo, w.hi, w.step
            )?;
        }
        p.log.write_drat(&mut f)?;
    }
    f.flush()
}

/// The documented exit-code contract, applied to a job verdict.
fn exit_for(outcome: &JobOutcome) -> ExitCode {
    match outcome {
        JobOutcome::Optimal { .. } => ExitCode::SUCCESS,
        JobOutcome::Infeasible => ExitCode::from(3),
        JobOutcome::Budget { .. } | JobOutcome::Timeout { .. } => ExitCode::from(4),
        JobOutcome::Error { .. } => ExitCode::from(1),
    }
}

fn parse_objective(name: &str, medium: u32) -> Option<Objective> {
    match name {
        "trt" => Some(Objective::TokenRotationTime(MediumId(medium))),
        "sumtrt" => Some(Objective::SumTokenRotationTimes),
        "busload" => Some(Objective::BusLoadPermille(MediumId(medium))),
        "maxutil" => Some(Objective::MaxUtilizationPermille),
        "spread" => Some(Objective::UtilizationSpreadPermille),
        "feasible" => Some(Objective::Feasibility),
        _ => None,
    }
}

/// Reads a JSON input file; an unreadable or malformed one is a usage error.
fn read_json<T: serde::Deserialize>(path: &str, what: &str) -> Result<T, ExitCode> {
    let input = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("cannot read {path}: {e}");
        ExitCode::from(2)
    })?;
    serde_json::from_str(&input).map_err(|e| {
        eprintln!("bad {what} file: {e}");
        ExitCode::from(2)
    })
}

fn read_workload(path: &str) -> Result<Workload, ExitCode> {
    let w: Workload = read_json(path, "workload")?;
    if let Err(e) = w.arch.validate() {
        eprintln!("invalid architecture: {e}");
        return Err(ExitCode::from(2));
    }
    if let Err(e) = w.tasks.validate() {
        eprintln!("invalid task set: {e}");
        return Err(ExitCode::from(2));
    }
    Ok(w)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args),
        Some("solve") => cmd_solve(&args),
        Some("serve") => cmd_serve(&args),
        Some("submit") => cmd_submit(&args),
        _ => usage(),
    }
}

fn cmd_generate(args: &[String]) -> ExitCode {
    let (Some(name), Some(out)) = (args.get(1), args.get(2)) else {
        return usage();
    };
    let Some(w) = bundled(name) else {
        eprintln!("unknown workload `{name}`");
        return ExitCode::from(2);
    };
    let json = serde_json::to_string_pretty(&w).expect("serialize");
    if let Err(e) = std::fs::write(out, json) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::from(2);
    }
    println!(
        "wrote {out}: {} tasks, {} ECUs, {} media",
        w.tasks.len(),
        w.arch.num_ecus(),
        w.arch.num_media()
    );
    ExitCode::SUCCESS
}

fn cmd_solve(args: &[String]) -> ExitCode {
    let Some(path) = args.get(1) else {
        return usage();
    };
    let mut objective_name = "feasible".to_string();
    let mut medium = 0u32;
    let mut max_conflicts = None;
    let mut out_path: Option<String> = None;
    let mut window: Option<usize> = None;
    let mut certify = false;
    let mut json = false;
    let mut timeout_ms: Option<u64> = None;
    let mut proof_path: Option<String> = None;
    let mut max_slot: Option<u64> = None;
    let mut trace_path: Option<String> = None;
    let mut metrics = false;
    let mut progress = false;
    let mut encoder_opt = EncoderOpt::default();
    let mut it = args[2..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--objective" => objective_name = flag_value(a, it.next()),
            "--medium" => medium = flag_value(a, it.next()),
            "--max-conflicts" => max_conflicts = Some(flag_value(a, it.next())),
            "--timeout-ms" => timeout_ms = Some(flag_value(a, it.next())),
            "--json" => json = true,
            "--window" => window = Some(parse_workers(it.next())),
            "--certify" => certify = true,
            "--proof" => {
                proof_path = Some(flag_value(a, it.next()));
                certify = true;
            }
            "--max-slot" => max_slot = Some(flag_value(a, it.next())),
            "--trace" => trace_path = Some(flag_value(a, it.next())),
            "--metrics" => metrics = true,
            "--progress" => progress = true,
            "--no-encoder-opt" => encoder_opt = EncoderOpt::none(),
            "--out" => out_path = Some(flag_value(a, it.next())),
            other => {
                eprintln!("unknown option {other}");
                return ExitCode::from(2);
            }
        }
    }

    let w = match read_workload(path) {
        Ok(w) => w,
        Err(code) => return code,
    };
    let Some(objective) = parse_objective(&objective_name, medium) else {
        eprintln!("unknown objective `{objective_name}`");
        return ExitCode::from(2);
    };

    let mut opts = SolveOptions {
        max_conflicts,
        strategy: strategy(window),
        encoder_opt,
        certify,
        ..Default::default()
    };
    if let Some(ms) = max_slot {
        opts.max_slot = ms;
    }

    // Tracing and metrics share one live handle; without either flag the
    // solvers keep the default no-op handle (a single branch per use).
    let obs = if trace_path.is_some() || metrics {
        Obs::enabled()
    } else {
        Obs::disabled()
    };
    opts.obs = obs.clone();
    if progress {
        opts.progress = Some(ProgressHook::new(|ev| {
            eprint!("\r{}\x1b[K", format_progress_line(ev));
            let _ = std::io::stderr().flush();
        }));
    }

    // A wall-clock limit rides on cooperative cancellation: one detached
    // watchdog thread raises the solvers' shared interrupt flag.
    let timed_out = Arc::new(AtomicBool::new(false));
    if let Some(ms) = timeout_ms {
        let flag = Arc::new(AtomicBool::new(false));
        opts.interrupt = Some(Arc::clone(&flag));
        let timed_out = Arc::clone(&timed_out);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(ms));
            timed_out.store(true, Ordering::Relaxed);
            flag.store(true, Ordering::Relaxed);
        });
    }

    let fingerprint = optalloc_service::fingerprint::fingerprint(
        &Instance {
            arch: w.arch.clone(),
            tasks: w.tasks.clone(),
        },
        &objective,
        &opts,
        None,
    );
    let optimizer = Optimizer::new(&w.arch, &w.tasks).with_options(opts);
    let start = std::time::Instant::now();

    let solved = optimizer.minimize(&objective);
    let solve_ms = start.elapsed().as_millis() as u64;
    if progress {
        eprintln!(); // terminate the live progress line
    }
    let result = JobResult::from_solve(
        fingerprint.to_string(),
        &solved,
        WarmLabel::Cold,
        timed_out.load(Ordering::Relaxed),
        solve_ms,
    );
    let code = exit_for(&result.outcome);

    // Trace and metrics export happen for every outcome, not just optimal
    // ones — a budget-exhausted run is exactly when you want the trace.
    if let Some(tp) = &trace_path {
        if let Err(e) = obs.write_trace(std::path::Path::new(tp)) {
            eprintln!("cannot write {tp}: {e}");
            return ExitCode::from(2);
        }
        if !json {
            println!("trace written to {tp}");
        }
    }
    if metrics {
        let snapshot = obs.metrics().expect("--metrics enables obs").snapshot();
        eprintln!(
            "{}",
            serde_json::to_string_pretty(&snapshot).expect("serialize")
        );
    }

    if json {
        println!("{}", serde_json::to_string(&result).expect("serialize"));
    }

    let Ok(r) = &solved else {
        if !json {
            match &result.outcome {
                JobOutcome::Infeasible => eprintln!("no feasible allocation exists"),
                JobOutcome::Budget { .. } => eprintln!("conflict budget exhausted"),
                JobOutcome::Timeout { .. } => eprintln!("timed out after {solve_ms} ms"),
                JobOutcome::Error { message } => eprintln!("{message}"),
                JobOutcome::Optimal { .. } => unreachable!(),
            }
        }
        return code;
    };

    if !json {
        let line = match objective {
            Objective::Feasibility => "feasible".to_string(),
            Objective::TokenRotationTime(_) | Objective::SumTokenRotationTimes => {
                format!(
                    "optimal {objective_name} = {} ticks ({:.2} ms)",
                    r.cost,
                    ticks_to_ms(r.cost as u64)
                )
            }
            _ => format!("optimal {objective_name} = {}", r.cost),
        };
        println!(
            "encoding: {} vars, {} literals; {} SOLVE calls, {:.2}s",
            r.encode.bool_vars,
            r.encode.literals,
            r.solve_calls,
            r.wall.as_secs_f64()
        );
        println!(
            "search: {} conflicts, {} restarts ({} blocked), {} vivified, \
             {} eliminated (+{} resolvents), tiers {}/{}/{}",
            r.stats.conflicts,
            r.stats.restarts,
            r.stats.restarts_blocked,
            r.stats.vivified,
            r.stats.elim_vars,
            r.stats.elim_resolvents,
            r.stats.tier_core,
            r.stats.tier_mid,
            r.stats.tier_local,
        );
        for worker in &r.workers {
            println!("  {worker}");
        }
        if let Some(cert) = &r.certificate {
            let (lo, optimum) = (cert.certificate.cost_lo, cert.certificate.optimum);
            let coverage = if optimum > lo {
                format!("refutations cover [{lo}, {}]", optimum - 1)
            } else {
                "no cost below the optimum to refute".to_string()
            };
            println!(
                "certificate VERIFIED: {} — {coverage}, \
                 witness replayed through independent analysis",
                cert.summary
            );
        }
        println!("{line}");
        for (tid, t) in w.tasks.iter() {
            println!(
                "  {:<12} -> {}",
                t.name,
                w.arch.ecu(r.solution.allocation.ecu_of(tid)).name
            );
        }
    }
    if let Some(pp) = &proof_path {
        if let Some(cert) = &r.certificate {
            if let Err(e) = write_proofs(pp, &cert.certificate) {
                eprintln!("cannot write {pp}: {e}");
                return ExitCode::from(2);
            }
            if !json {
                println!("DRAT traces written to {pp}");
            }
        }
    }
    if let Some(out) = out_path {
        let json_alloc = serde_json::to_string_pretty(&r.solution.allocation).expect("serialize");
        if let Err(e) = std::fs::write(&out, json_alloc) {
            eprintln!("cannot write {out}: {e}");
            return ExitCode::from(2);
        }
        if !json {
            println!("allocation written to {out}");
        }
    }
    code
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut config = ServiceConfig::default();
    let mut window: Option<usize> = None;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = flag_value(a, it.next()),
            "--workers" => config.workers = flag_value(a, it.next()),
            "--queue" => config.queue_capacity = flag_value(a, it.next()),
            "--cache" => config.cache_capacity = flag_value(a, it.next()),
            "--timeout-ms" => {
                config.default_timeout = Some(Duration::from_millis(flag_value(a, it.next())));
            }
            "--max-conflicts" => config.solve.max_conflicts = Some(flag_value(a, it.next())),
            "--certify" => config.solve.certify = true,
            "--window" => window = Some(parse_workers(it.next())),
            other => {
                eprintln!("unknown option {other}");
                return ExitCode::from(2);
            }
        }
    }
    config.solve.strategy = strategy(window);
    let mut server = match serve(Service::new(config), &addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            return ExitCode::from(2);
        }
    };
    println!("optalloc-service listening on {}", server.addr());
    server.wait();
    println!("drained; bye");
    ExitCode::SUCCESS
}

fn cmd_submit(args: &[String]) -> ExitCode {
    let Some(what) = args.get(1) else {
        return usage();
    };
    let mut addr = DEFAULT_ADDR.to_string();
    let mut json = false;
    let mut objective_name = "maxutil".to_string();
    let mut medium = 0u32;
    let mut timeout_ms: Option<u64> = None;
    let mut base: Option<String> = None;
    let positional_after = match what.as_str() {
        "solve" | "delta" => 3,
        _ => 2,
    };
    let mut it = args.get(positional_after..).unwrap_or_default().iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = flag_value(a, it.next()),
            "--json" => json = true,
            "--objective" => objective_name = flag_value(a, it.next()),
            "--medium" => medium = flag_value(a, it.next()),
            "--timeout-ms" => timeout_ms = Some(flag_value(a, it.next())),
            "--base" => base = Some(flag_value(a, it.next())),
            other => {
                eprintln!("unknown option {other}");
                return ExitCode::from(2);
            }
        }
    }

    let request = match what.as_str() {
        "solve" => {
            let Some(path) = args.get(2) else {
                return usage();
            };
            let w = match read_workload(path) {
                Ok(w) => w,
                Err(code) => return code,
            };
            let Some(objective) = parse_objective(&objective_name, medium) else {
                eprintln!("unknown objective `{objective_name}`");
                return ExitCode::from(2);
            };
            Request::Solve {
                instance: Instance {
                    arch: w.arch,
                    tasks: w.tasks,
                },
                objective,
                timeout_ms,
            }
        }
        "delta" => {
            let Some(path) = args.get(2) else {
                return usage();
            };
            let ops = match read_json(path, "delta") {
                Ok(ops) => ops,
                Err(code) => return code,
            };
            Request::Delta {
                base,
                ops,
                objective: None,
                timeout_ms,
            }
        }
        "status" => Request::Status,
        "metrics" => Request::Metrics,
        "shutdown" => Request::Shutdown,
        other => {
            eprintln!("unknown request `{other}`");
            return usage();
        }
    };

    let mut line = serde_json::to_string(&request).expect("serialize");
    line.push('\n');
    let exchange = || -> std::io::Result<String> {
        let stream = std::net::TcpStream::connect(&addr)?;
        let mut writer = stream.try_clone()?;
        writer.write_all(line.as_bytes())?;
        writer.flush()?;
        let mut response_line = String::new();
        BufReader::new(stream).read_line(&mut response_line)?;
        Ok(response_line)
    };
    let response_line = match exchange() {
        Ok(line) => line,
        Err(e) => {
            eprintln!("connection error with {addr}: {e}");
            return ExitCode::from(1);
        }
    };
    let response: Response = match serde_json::from_str(&response_line) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bad response from server: {e}");
            return ExitCode::from(1);
        }
    };
    if json {
        println!("{}", response_line.trim_end());
    }
    match response {
        Response::Result(result) => {
            if !json {
                match &result.outcome {
                    JobOutcome::Optimal {
                        cost, certified, ..
                    } => println!(
                        "optimal cost {cost}{} — warm {:?}, {} SOLVE calls, \
                         {} conflicts, {} ms{}",
                        if *certified { " (certified)" } else { "" },
                        result.warm,
                        result.solve_calls,
                        result.search.conflicts,
                        result.solve_ms,
                        if result.cached { " [cache hit]" } else { "" },
                    ),
                    other => println!("{other:?}"),
                }
                println!("fingerprint {}", result.fingerprint);
            }
            exit_for(&result.outcome)
        }
        Response::Rejected { reason } => {
            if !json {
                eprintln!("rejected: {reason:?}");
            }
            ExitCode::from(1)
        }
        Response::Error { message } => {
            if !json {
                eprintln!("error: {message}");
            }
            ExitCode::from(1)
        }
        Response::Status {
            queued,
            inflight,
            draining,
            cached,
            search,
            phases,
        } => {
            if !json {
                println!(
                    "queued {queued}, inflight {inflight}, draining {draining}, \
                     cached {cached}"
                );
                println!(
                    "phase totals: encode {:.1} ms, search {:.1} ms, \
                     certify {:.1} ms",
                    phases.encode_ms, phases.search_ms, phases.certify_ms,
                );
                println!(
                    "search totals: {} propagations, {} restarts ({} blocked), \
                     {} vivified, {} eliminated, tiers {}/{}/{}, peak {} learnts",
                    search.propagations,
                    search.restarts,
                    search.restarts_blocked,
                    search.vivified,
                    search.elim_vars,
                    search.tier_core,
                    search.tier_mid,
                    search.tier_local,
                    search.peak_learnts,
                );
            }
            ExitCode::SUCCESS
        }
        Response::Metrics { snapshot } => {
            if !json {
                for c in &snapshot.counters {
                    println!("{} {}", c.name, c.value);
                }
                for g in &snapshot.gauges {
                    println!("{} {}", g.name, g.value);
                }
                for h in &snapshot.histograms {
                    println!("{} count {} sum {:.1} ms", h.name, h.count, h.sum_ms);
                }
            }
            ExitCode::SUCCESS
        }
        Response::ShuttingDown => {
            if !json {
                println!("shutting down");
            }
            ExitCode::SUCCESS
        }
    }
}
