//! # optalloc-obs
//!
//! Dependency-light observability for the allocation pipeline: a lock-light
//! [`MetricsRegistry`] (counters / gauges / fixed-bucket histograms),
//! hierarchical [`Phase`] spans with a thread-local parent stack and
//! JSONL / Chrome `trace_event` export, and a throttled solver
//! [`ProgressEvent`] stream.
//!
//! The entry point is the [`Obs`] handle: a cheaply-cloneable reference
//! that is either **disabled** (the default — every hot-path touch is a
//! single `Option` branch and no state is allocated) or **enabled**
//! (backed by a shared registry + trace buffer). The handle travels
//! through `SolverConfig`/`SolveOptions`, so one `Obs::enabled()` at the
//! CLI or service layer lights up every phase of every worker below it.
//!
//! ```
//! use optalloc_obs::{Obs, Phase};
//!
//! let obs = Obs::enabled();
//! let mut sw = obs.stopwatch(Phase::Encode);
//! sw.attr("what", "demo");
//! let ms = sw.finish(); // the recorded span's dur_ms IS this value
//! assert_eq!(obs.spans()[0].dur_ms, ms);
//! ```
//!
//! Metric names, the span hierarchy, trace schemas and the overhead
//! contract are documented in `docs/OBSERVABILITY.md`.

mod progress;
mod registry;
mod span;

pub use progress::{format_progress_line, ProgressEvent, ProgressHook, ProgressThrottle};
pub use registry::{
    Counter, CounterSnapshot, Gauge, GaugeSnapshot, Histogram, HistogramSnapshot, MetricsRegistry,
    MetricsSnapshot, DEFAULT_MS_BUCKETS,
};
/// The serialization crate behind every wire type of the stack, re-exported
/// so the solver crate derives its statistics' wire form without a
/// dependency of its own (its dependency list, which the benchmark package's
/// `Cargo.lock` pins, stays as it is).
pub use serde;
pub use span::{phase_totals, Phase, PhaseTotal, PhaseTotals, SpanRecord, Stopwatch};

use serde::Value;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Schema tag of the JSONL trace format (first line of every export).
pub const TRACE_SCHEMA: &str = "optalloc-trace-v1";

/// Shared observability state behind an enabled [`Obs`] handle.
pub(crate) struct ObsCore {
    epoch: Instant,
    metrics: MetricsRegistry,
    spans: Mutex<Vec<SpanRecord>>,
    next_span: AtomicU64,
}

impl ObsCore {
    pub(crate) fn next_span_id(&self) -> u64 {
        self.next_span.fetch_add(1, Ordering::Relaxed) + 1
    }

    pub(crate) fn epoch_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    pub(crate) fn record(&self, rec: SpanRecord) {
        self.spans.lock().unwrap().push(rec);
    }
}

/// Handle to the observability subsystem: disabled (free) or enabled
/// (shared registry + trace buffer). Clone freely — clones share state.
#[derive(Clone, Default)]
pub struct Obs {
    core: Option<Arc<ObsCore>>,
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.core.is_some() {
            "Obs(enabled)"
        } else {
            "Obs(disabled)"
        })
    }
}

impl Obs {
    /// The no-op handle (also `Obs::default()`): records nothing, costs a
    /// single branch wherever it is consulted.
    pub fn disabled() -> Obs {
        Obs { core: None }
    }

    /// A live handle with a fresh registry and trace buffer.
    pub fn enabled() -> Obs {
        Obs {
            core: Some(Arc::new(ObsCore {
                epoch: Instant::now(),
                metrics: MetricsRegistry::new(),
                spans: Mutex::new(Vec::new()),
                next_span: AtomicU64::new(0),
            })),
        }
    }

    /// `true` when spans and metrics are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    pub(crate) fn core(&self) -> Option<&Arc<ObsCore>> {
        self.core.as_ref()
    }

    /// The metrics registry, when enabled.
    #[inline]
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.core.as_ref().map(|c| &c.metrics)
    }

    /// Starts timing `phase`. Always measures (see [`Stopwatch`]); records
    /// a span only when enabled.
    #[inline]
    pub fn stopwatch(&self, phase: Phase) -> Stopwatch {
        Stopwatch::start(self, phase)
    }

    /// A copy of every span recorded so far (record order).
    pub fn spans(&self) -> Vec<SpanRecord> {
        match &self.core {
            Some(c) => c.spans.lock().unwrap().clone(),
            None => Vec::new(),
        }
    }

    /// Per-phase span totals (sum of `dur_ms` in record order).
    pub fn phase_totals(&self) -> Vec<PhaseTotal> {
        phase_totals(&self.spans())
    }

    /// Serializes the trace as JSONL: a schema header line, one `span`
    /// line per recorded span, then one line per registry metric. The
    /// format is documented in `docs/OBSERVABILITY.md`.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        let header = Value::Object(vec![
            ("type".into(), Value::Str("trace".into())),
            ("schema".into(), Value::Str(TRACE_SCHEMA.into())),
        ]);
        out.push_str(&serde_json::to_string(&header).expect("header serializes"));
        out.push('\n');
        for s in self.spans() {
            out.push_str(&serde_json::to_string(&span_line(&s)).expect("span serializes"));
            out.push('\n');
        }
        if let Some(m) = self.metrics() {
            let snap = m.snapshot();
            for c in &snap.counters {
                let line = Value::Object(vec![
                    ("type".into(), Value::Str("counter".into())),
                    ("name".into(), Value::Str(c.name.clone())),
                    ("value".into(), Value::UInt(c.value)),
                ]);
                out.push_str(&serde_json::to_string(&line).expect("counter serializes"));
                out.push('\n');
            }
            for g in &snap.gauges {
                let line = Value::Object(vec![
                    ("type".into(), Value::Str("gauge".into())),
                    ("name".into(), Value::Str(g.name.clone())),
                    ("value".into(), Value::Int(g.value)),
                ]);
                out.push_str(&serde_json::to_string(&line).expect("gauge serializes"));
                out.push('\n');
            }
            for h in &snap.histograms {
                let mut obj = vec![("type".into(), Value::Str("histogram".into()))];
                if let Value::Object(fields) = serde::Serialize::to_value(h) {
                    obj.extend(fields);
                }
                out.push_str(
                    &serde_json::to_string(&Value::Object(obj)).expect("histogram serializes"),
                );
                out.push('\n');
            }
        }
        out
    }

    /// Serializes the trace in Chrome `trace_event` JSON (open in
    /// chrome://tracing or Perfetto). Timestamps/durations are in
    /// microseconds per the format; each event's `args.dur_ms` carries the
    /// exact `f64` duration so phase sums stay lossless.
    pub fn export_chrome_trace(&self) -> String {
        let events: Vec<Value> = self
            .spans()
            .iter()
            .map(|s| {
                let mut args = vec![
                    ("dur_ms".into(), Value::Float(s.dur_ms)),
                    ("id".into(), Value::UInt(s.id)),
                ];
                if let Some(p) = s.parent {
                    args.push(("parent".into(), Value::UInt(p)));
                }
                for (k, v) in &s.attrs {
                    args.push((k.clone(), Value::Str(v.clone())));
                }
                Value::Object(vec![
                    ("name".into(), Value::Str(s.phase.clone())),
                    ("cat".into(), Value::Str("optalloc".into())),
                    ("ph".into(), Value::Str("X".into())),
                    ("pid".into(), Value::UInt(1)),
                    ("tid".into(), Value::UInt(s.tid)),
                    ("ts".into(), Value::UInt(s.start_us)),
                    ("dur".into(), Value::Float(s.dur_ms * 1e3)),
                    ("args".into(), Value::Object(args)),
                ])
            })
            .collect();
        let root = Value::Object(vec![
            ("traceEvents".into(), Value::Array(events)),
            ("displayTimeUnit".into(), Value::Str("ms".into())),
        ]);
        serde_json::to_string_pretty(&root).expect("chrome trace serializes")
    }

    /// Writes the trace to `path`: JSONL when the extension is `.jsonl`,
    /// Chrome `trace_event` JSON otherwise.
    pub fn write_trace(&self, path: &Path) -> std::io::Result<()> {
        let text = if path.extension().is_some_and(|e| e == "jsonl") {
            self.export_jsonl()
        } else {
            self.export_chrome_trace()
        };
        std::fs::write(path, text)
    }
}

fn span_line(s: &SpanRecord) -> Value {
    let mut obj = vec![
        ("type".into(), Value::Str("span".into())),
        ("id".into(), Value::UInt(s.id)),
    ];
    if let Some(p) = s.parent {
        obj.push(("parent".into(), Value::UInt(p)));
    }
    obj.push(("phase".into(), Value::Str(s.phase.clone())));
    obj.push(("start_us".into(), Value::UInt(s.start_us)));
    obj.push(("dur_ms".into(), Value::Float(s.dur_ms)));
    obj.push(("tid".into(), Value::UInt(s.tid)));
    if !s.attrs.is_empty() {
        obj.push((
            "attrs".into(),
            Value::Object(
                s.attrs
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                    .collect(),
            ),
        ));
    }
    Value::Object(obj)
}

fn num_u64(v: &Value, what: &str) -> Result<u64, String> {
    match v {
        Value::UInt(u) => Ok(*u),
        Value::Int(i) if *i >= 0 => Ok(*i as u64),
        other => Err(format!("expected unsigned {what}, found {other:?}")),
    }
}

fn num_f64(v: &Value, what: &str) -> Result<f64, String> {
    match v {
        Value::Float(f) => Ok(*f),
        Value::UInt(u) => Ok(*u as f64),
        Value::Int(i) => Ok(*i as f64),
        other => Err(format!("expected number {what}, found {other:?}")),
    }
}

fn str_of(v: &Value, what: &str) -> Result<String, String> {
    match v {
        Value::Str(s) => Ok(s.clone()),
        other => Err(format!("expected string {what}, found {other:?}")),
    }
}

fn attrs_of(v: Option<&Value>) -> Result<Vec<(String, String)>, String> {
    let Some(v) = v else { return Ok(Vec::new()) };
    let obj = v.as_object().ok_or("attrs must be an object")?;
    obj.iter()
        .map(|(k, val)| Ok((k.clone(), str_of(val, "attr value")?)))
        .collect()
}

/// Parses a trace exported by [`Obs::export_jsonl`] (validating the
/// documented schema line by line) or [`Obs::export_chrome_trace`] back
/// into span records. Errors name the offending line / field.
pub fn parse_trace(text: &str) -> Result<Vec<SpanRecord>, String> {
    // A JSONL export has one typed object per line; a chrome trace is one
    // JSON document (whose first line is `{` when pretty-printed, or an
    // object without a `type` field when compact).
    let first = text.lines().find(|l| !l.trim().is_empty()).unwrap_or("");
    let first_is_typed = serde_json::from_str::<Value>(first)
        .map(|v| v.get("type").is_some())
        .unwrap_or(false);
    if first_is_typed {
        parse_jsonl(text)
    } else {
        parse_chrome(text)
    }
}

fn parse_jsonl(text: &str) -> Result<Vec<SpanRecord>, String> {
    let mut spans = Vec::new();
    let mut saw_header = false;
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let v: Value =
            serde_json::from_str(line).map_err(|e| format!("line {n}: invalid JSON: {e}"))?;
        let ty = v
            .get("type")
            .ok_or_else(|| format!("line {n}: missing `type`"))?;
        let ty = str_of(ty, "type").map_err(|e| format!("line {n}: {e}"))?;
        match ty.as_str() {
            "trace" => match v.get("schema") {
                Some(Value::Str(s)) if s.as_str() == TRACE_SCHEMA => saw_header = true,
                other => return Err(format!("line {n}: unknown trace schema {other:?}")),
            },
            "span" => {
                let get = |k: &str| {
                    v.get(k)
                        .ok_or_else(|| format!("line {n}: span missing `{k}`"))
                };
                spans.push(SpanRecord {
                    id: num_u64(get("id")?, "id").map_err(|e| format!("line {n}: {e}"))?,
                    parent: match v.get("parent") {
                        Some(p) => {
                            Some(num_u64(p, "parent").map_err(|e| format!("line {n}: {e}"))?)
                        }
                        None => None,
                    },
                    phase: str_of(get("phase")?, "phase").map_err(|e| format!("line {n}: {e}"))?,
                    start_us: num_u64(get("start_us")?, "start_us")
                        .map_err(|e| format!("line {n}: {e}"))?,
                    dur_ms: num_f64(get("dur_ms")?, "dur_ms")
                        .map_err(|e| format!("line {n}: {e}"))?,
                    tid: num_u64(get("tid")?, "tid").map_err(|e| format!("line {n}: {e}"))?,
                    attrs: attrs_of(v.get("attrs")).map_err(|e| format!("line {n}: {e}"))?,
                });
            }
            "counter" | "gauge" => {
                v.get("name")
                    .ok_or_else(|| format!("line {n}: {ty} missing `name`"))?;
                v.get("value")
                    .ok_or_else(|| format!("line {n}: {ty} missing `value`"))?;
            }
            "histogram" => {
                for k in ["name", "bounds", "counts", "count", "sum_ms"] {
                    v.get(k)
                        .ok_or_else(|| format!("line {n}: histogram missing `{k}`"))?;
                }
            }
            other => return Err(format!("line {n}: unknown record type `{other}`")),
        }
    }
    if !saw_header {
        return Err(format!("missing `{TRACE_SCHEMA}` header line"));
    }
    Ok(spans)
}

fn parse_chrome(text: &str) -> Result<Vec<SpanRecord>, String> {
    let v: Value = serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .ok_or("missing `traceEvents` array")?;
    let mut spans = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let args = ev.get("args").ok_or(format!("event {i}: missing args"))?;
        let mut attrs = Vec::new();
        for (k, val) in args.as_object().unwrap_or(&[]) {
            if let Value::Str(s) = val {
                attrs.push((k.clone(), s.clone()));
            }
        }
        spans.push(SpanRecord {
            id: args.get("id").map_or(Ok(0), |x| num_u64(x, "args.id"))?,
            parent: match args.get("parent") {
                Some(p) => Some(num_u64(p, "args.parent")?),
                None => None,
            },
            phase: str_of(
                ev.get("name").ok_or(format!("event {i}: missing name"))?,
                "name",
            )?,
            start_us: num_u64(ev.get("ts").ok_or(format!("event {i}: missing ts"))?, "ts")?,
            dur_ms: num_f64(
                args.get("dur_ms")
                    .ok_or(format!("event {i}: missing args.dur_ms"))?,
                "dur_ms",
            )?,
            tid: num_u64(
                ev.get("tid").ok_or(format!("event {i}: missing tid"))?,
                "tid",
            )?,
            attrs,
        });
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn disabled_handle_measures_but_records_nothing() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        let sw = obs.stopwatch(Phase::Search);
        assert!(!sw.recording());
        let ms = sw.finish();
        assert!(ms >= 0.0);
        assert!(obs.spans().is_empty());
        assert!(obs.metrics().is_none());
    }

    #[test]
    fn stopwatch_dur_equals_recorded_span_dur() {
        let obs = Obs::enabled();
        let mut total = 0.0;
        for _ in 0..5 {
            total += obs.stopwatch(Phase::Search).finish();
        }
        let spans = obs.spans();
        assert_eq!(spans.len(), 5);
        let sum: f64 = spans.iter().map(|s| s.dur_ms).sum();
        // Identical f64 sequence summed in identical order: bit-exact.
        assert_eq!(sum, total);
        assert_eq!(obs.phase_totals()[0].total_ms, total);
    }

    #[test]
    fn spans_nest_via_the_thread_local_stack() {
        let obs = Obs::enabled();
        let outer = obs.stopwatch(Phase::BisectWindow);
        let inner = obs.stopwatch(Phase::Search);
        inner.finish();
        outer.finish();
        let after = obs.stopwatch(Phase::Certify);
        after.finish();
        let spans = obs.spans();
        assert_eq!(spans.len(), 3);
        let outer_id = spans
            .iter()
            .find(|s| s.phase == "bisect-window")
            .unwrap()
            .id;
        let inner = spans.iter().find(|s| s.phase == "search").unwrap();
        assert_eq!(inner.parent, Some(outer_id));
        let after = spans.iter().find(|s| s.phase == "certify").unwrap();
        assert_eq!(after.parent, None, "stack must unwind after finish");
    }

    #[test]
    fn dropped_stopwatch_still_records_and_unwinds() {
        let obs = Obs::enabled();
        {
            let _outer = obs.stopwatch(Phase::Encode);
            // dropped without finish()
        }
        let tail = obs.stopwatch(Phase::Search);
        tail.finish();
        let spans = obs.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.parent.is_none()));
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let obs = Obs::enabled();
        let m = obs.metrics().unwrap();
        let c = m.counter("solver.conflicts");
        c.add(41);
        c.inc();
        assert_eq!(c.value(), 42);
        // Same name → same counter.
        assert_eq!(m.counter("solver.conflicts").value(), 42);
        let g = m.gauge("jobs.inflight");
        g.set(3);
        g.add(-1);
        assert_eq!(g.value(), 2);
        let h = m.histogram("span.ms", &[1.0, 10.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(100.0);
        let snap = m.snapshot();
        assert_eq!(snap.counter("solver.conflicts"), Some(42));
        assert_eq!(snap.gauge("jobs.inflight"), Some(2));
        let hs = &snap.histograms[0];
        assert_eq!(hs.counts, vec![1, 1, 1]);
        assert_eq!(hs.count, 3);
        assert!((hs.sum_ms - 105.5).abs() < 1e-3);
    }

    #[test]
    fn shared_counter_sums_across_threads() {
        let obs = Obs::enabled();
        let c = obs.metrics().unwrap().counter("work");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), 4000);
    }

    #[test]
    fn jsonl_roundtrip_preserves_spans_exactly() {
        let obs = Obs::enabled();
        let mut sw = obs.stopwatch(Phase::Encode);
        sw.attr("window", "[3,9]");
        sw.finish();
        obs.stopwatch(Phase::Search).finish();
        obs.metrics().unwrap().counter("solver.conflicts").add(7);
        obs.metrics()
            .unwrap()
            .histogram("span.search_ms", DEFAULT_MS_BUCKETS)
            .observe(1.5);
        let text = obs.export_jsonl();
        let parsed = parse_trace(&text).expect("parses");
        let orig = obs.spans();
        assert_eq!(parsed.len(), orig.len());
        for (p, o) in parsed.iter().zip(&orig) {
            assert_eq!(p.id, o.id);
            assert_eq!(p.phase, o.phase);
            assert_eq!(p.dur_ms, o.dur_ms, "float must round-trip bit-exactly");
            assert_eq!(p.attrs, o.attrs);
        }
    }

    #[test]
    fn chrome_trace_roundtrip_preserves_durations() {
        let obs = Obs::enabled();
        let outer = obs.stopwatch(Phase::BisectWindow);
        obs.stopwatch(Phase::Search).finish();
        outer.finish();
        let text = obs.export_chrome_trace();
        assert!(text.contains("traceEvents"));
        let parsed = parse_trace(&text).expect("parses");
        let orig = obs.spans();
        assert_eq!(parsed.len(), orig.len());
        for (p, o) in parsed.iter().zip(&orig) {
            assert_eq!(p.dur_ms, o.dur_ms);
            assert_eq!(p.phase, o.phase);
            assert_eq!(p.parent, o.parent);
        }
    }

    #[test]
    fn jsonl_schema_violations_are_rejected() {
        assert!(parse_trace("{\"type\":\"span\"}\n").is_err(), "no header");
        let bad = format!(
            "{}\n{{\"type\":\"span\",\"id\":1}}\n",
            "{\"type\":\"trace\",\"schema\":\"optalloc-trace-v1\"}"
        );
        let err = parse_trace(&bad).unwrap_err();
        assert!(err.contains("missing `phase`"), "got: {err}");
    }

    #[test]
    fn throttle_fast_path_and_rate() {
        let mut t = ProgressThrottle::new(100, 0);
        assert_eq!(t.due(1), None);
        assert_eq!(t.due(99), None);
        assert_eq!(t.due(100), Some(0.0), "first event has no interval");
        assert_eq!(t.due(150), None);
        let rate = t.due(200).expect("second event due");
        assert!(rate > 0.0);
        // With a huge min interval, conflict count alone never triggers.
        let mut t = ProgressThrottle::new(10, u64::MAX);
        assert_eq!(t.due(10), Some(0.0));
        assert_eq!(t.due(20), None);
        assert_eq!(t.due(1000), None);
    }

    #[test]
    fn progress_hook_stamps_worker_ids() {
        let seen = Arc::new(AtomicUsize::new(usize::MAX));
        let seen2 = Arc::clone(&seen);
        let hook = ProgressHook::new(move |ev| {
            seen2.store(ev.worker.unwrap_or(usize::MAX), Ordering::Relaxed);
        });
        let tagged = hook.with_worker(3);
        tagged.emit(&ProgressEvent::default());
        assert_eq!(seen.load(Ordering::Relaxed), 3);
        let line = format_progress_line(&ProgressEvent {
            worker: Some(3),
            conflicts: 10,
            window: Some((2, 9)),
            ..Default::default()
        });
        assert!(line.starts_with("w3 "), "got: {line}");
        assert!(line.contains("win=[2,9]"), "got: {line}");
    }

    #[test]
    fn phase_totals_aggregates_in_order() {
        let obs = Obs::enabled();
        let a = obs.stopwatch(Phase::Encode).finish();
        let b = obs.stopwatch(Phase::Search).finish();
        let c = obs.stopwatch(Phase::Encode).finish();
        let totals = obs.phase_totals();
        assert_eq!(totals.len(), 2);
        assert_eq!(totals[0].phase, "encode");
        assert_eq!(totals[0].count, 2);
        assert_eq!(totals[0].total_ms, a + c);
        assert_eq!(totals[1].total_ms, b);
    }

    #[test]
    fn phase_totals_wire_type_absorbs() {
        let mut t = PhaseTotals {
            encode_ms: 1.0,
            search_ms: 2.0,
            certify_ms: 0.5,
        };
        t.absorb(&PhaseTotals {
            encode_ms: 0.5,
            search_ms: 1.0,
            certify_ms: 0.0,
        });
        assert_eq!(t.encode_ms, 1.5);
        assert_eq!(t.search_ms, 3.0);
        assert_eq!(t.total_ms(), 5.0);
        let json = serde_json::to_string(&t).unwrap();
        let back: PhaseTotals = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}
