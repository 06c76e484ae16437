//! The result line every run prints last, and the trajectory file that
//! `--json PATH` appends it to (`bench_suite compare` reads two of them).

use serde::Value;
use std::path::Path;

/// Schema tag of the entries this benchmark appends. Entries with another
/// tag (older harnesses) are kept verbatim and skipped by `compare`.
const SCHEMA: &str = "optalloc-bench-trajectory-v3";

/// One workload's verdict and metrics — the benchmark's result line.
#[derive(Debug, PartialEq)]
pub struct WorkloadResult {
    pub workload: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(String, f64, String)>,
}

impl WorkloadResult {
    /// `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
    pub fn result_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let m = Value::Object(vec![
                    ("value".into(), Value::Float(*value)),
                    ("unit".into(), Value::Str(unit.clone())),
                ]);
                (name.clone(), m)
            })
            .collect();
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::UInt(self.attempted)),
            ("failed".into(), Value::UInt(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ])
    }

    /// Parses a result line (see [`result_value`](Self::result_value)).
    pub fn from_result(workload: &str, v: &Value) -> Result<WorkloadResult, String> {
        let uint = |k: &str| match v.get(k) {
            Some(Value::UInt(u)) => Ok(*u),
            other => Err(format!("`{k}` is {other:?}")),
        };
        let correct = match v.get("correct") {
            Some(Value::Bool(b)) => *b,
            other => return Err(format!("`correct` is {other:?}")),
        };
        let metrics = v
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("`metrics` is not an object")?
            .iter()
            .map(|(name, m)| {
                let value = match m.get("value") {
                    Some(Value::Float(f)) => *f,
                    Some(Value::UInt(u)) => *u as f64,
                    Some(Value::Int(i)) => *i as f64,
                    other => return Err(format!("{name}: value is {other:?}")),
                };
                let unit = match m.get("unit") {
                    Some(Value::Str(s)) => s.clone(),
                    other => return Err(format!("{name}: unit is {other:?}")),
                };
                Ok((name.clone(), value, unit))
            })
            .collect::<Result<_, String>>()?;
        Ok(WorkloadResult {
            workload: workload.to_string(),
            correct,
            attempted: uint("attempted")?,
            failed: uint("failed")?,
            metrics,
        })
    }
}

/// One invocation of the benchmark: every workload it ran.
#[derive(Debug, PartialEq)]
pub struct Entry {
    pub recorded_at_unix: u64,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub results: Vec<WorkloadResult>,
}

impl Entry {
    fn to_value(&self) -> Value {
        let results = self
            .results
            .iter()
            .map(|r| {
                let mut fields = vec![("workload".to_string(), Value::Str(r.workload.clone()))];
                if let Value::Object(rest) = r.result_value() {
                    fields.extend(rest);
                }
                Value::Object(fields)
            })
            .collect();
        Value::Object(vec![
            ("schema".into(), Value::Str(SCHEMA.into())),
            (
                "recorded_at_unix".into(),
                Value::UInt(self.recorded_at_unix),
            ),
            ("seed".into(), Value::UInt(self.seed)),
            ("seconds".into(), Value::UInt(self.seconds)),
            ("trace".into(), Value::Bool(self.trace)),
            ("results".into(), Value::Array(results)),
        ])
    }

    fn from_value(v: &Value) -> Result<Entry, String> {
        let uint = |k: &str| match v.get(k) {
            Some(Value::UInt(u)) => Ok(*u),
            other => Err(format!("`{k}` is {other:?}")),
        };
        let results = v
            .get("results")
            .and_then(Value::as_array)
            .ok_or("`results` is not an array")?
            .iter()
            .map(|r| match r.get("workload") {
                Some(Value::Str(w)) => WorkloadResult::from_result(w, r),
                other => Err(format!("`workload` is {other:?}")),
            })
            .collect::<Result<_, String>>()?;
        Ok(Entry {
            recorded_at_unix: uint("recorded_at_unix")?,
            seed: uint("seed")?,
            seconds: uint("seconds")?,
            trace: matches!(v.get("trace"), Some(Value::Bool(true))),
            results,
        })
    }
}

/// Every record of a trajectory file. An unreadable or unparseable file is
/// an error, never an empty history that the next append would overwrite.
fn load_records(path: &Path) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    match serde_json::from_str::<Value>(&text) {
        Ok(Value::Array(records)) => Ok(records),
        Ok(_) => Err(format!("{}: not a JSON array", path.display())),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// The benchmark's own entries in a trajectory file.
pub fn load(path: &Path) -> Result<Vec<Entry>, String> {
    load_records(path)?
        .iter()
        .filter(|r| matches!(r.get("schema"), Some(Value::Str(s)) if s.as_str() == SCHEMA))
        .map(Entry::from_value)
        .collect::<Result<_, String>>()
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Appends `entry`, keeping every earlier record (of any schema) as it was.
pub fn append(path: &Path, entry: &Entry) -> Result<usize, String> {
    let mut records = if path.exists() {
        load_records(path)?
    } else {
        Vec::new()
    };
    records.push(entry.to_value());
    let count = records.len();
    let text = serde_json::to_string_pretty(&Value::Array(records)).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seed: u64) -> Entry {
        Entry {
            recorded_at_unix: 1,
            seed,
            seconds: 12,
            trace: false,
            results: vec![WorkloadResult {
                workload: "tiny-batch".into(),
                correct: true,
                attempted: 10,
                failed: 0,
                metrics: vec![("pass_s".into(), 0.25, "s".into())],
            }],
        }
    }

    fn temp_trajectory(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("bench-suite-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("trajectory.json")
    }

    #[test]
    fn append_keeps_older_records_and_round_trips() {
        let path = temp_trajectory("append");
        std::fs::write(&path, r#"[{"instance": "table3-t12", "cost": 23}]"#).unwrap();
        assert_eq!(append(&path, &entry(1)), Ok(2));
        assert_eq!(append(&path, &entry(2)), Ok(3));
        assert_eq!(load(&path), Ok(vec![entry(1), entry(2)]));
        let records = load_records(&path).unwrap();
        assert_eq!(records[0].get("cost"), Some(&Value::UInt(23)));
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn unparseable_history_is_an_error_and_left_alone() {
        let path = temp_trajectory("broken");
        std::fs::write(&path, "[{\"truncated\": ").unwrap();
        assert!(append(&path, &entry(1)).is_err());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "[{\"truncated\": ");
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}
