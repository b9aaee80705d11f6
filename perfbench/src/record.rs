//! What one run reports: the result line the benchmark contract asks
//! for, and the run record (host, sample counts, quartiles) written next
//! to it.

use serde::Value;
use std::path::Path;

/// One reported metric with the samples its value was taken from.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    /// The per-sample values behind `value` (one per trial, request,
    /// set-up or kind); empty when the value is a single measurement.
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn new(name: String, unit: String, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples: Vec::new(),
        }
    }

    pub fn with_samples(mut self, samples: Vec<f64>) -> Metric {
        self.samples = samples;
        self
    }
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed, one line each (capped).
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Extra run-record fields (per-kind retention, RSS mode, ...).
    pub notes: Vec<(String, Value)>,
}

impl Outcome {
    /// Count a failed operation and remember why (first 32 reasons).
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 32 {
            self.failures.push(why.into());
        }
    }

    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    pub fn note(&mut self, key: &str, v: Value) {
        self.notes.push((key.to_string(), v));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The contract's last stdout line.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value::Object(vec![
                        ("value".into(), Value::Float(finite(m.value))),
                        ("unit".into(), Value::Str(m.unit.clone())),
                    ]),
                )
            })
            .collect();
        let doc = Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::UInt(self.attempted)),
            ("failed".into(), Value::UInt(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&doc).expect("result line serializes")
    }

    /// The run record: provenance, and median and quartiles per metric.
    pub fn record(&self, workload: &str, seed: u64, seconds: f64, trace: bool) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut sorted = m.samples.clone();
                sorted.sort_by(f64::total_cmp);
                let (q1, med, q3) = quartiles(&sorted).unwrap_or((m.value, m.value, m.value));
                (
                    m.name.clone(),
                    Value::Object(vec![
                        ("value".into(), Value::Float(finite(m.value))),
                        ("unit".into(), Value::Str(m.unit.clone())),
                        ("samples".into(), Value::UInt(m.samples.len().max(1) as u64)),
                        ("median".into(), Value::Float(finite(med))),
                        ("q1".into(), Value::Float(finite(q1))),
                        ("q3".into(), Value::Float(finite(q3))),
                    ]),
                )
            })
            .collect();
        let mut fields = vec![
            ("workload".into(), Value::Str(workload.into())),
            ("seed".into(), Value::UInt(seed)),
            ("seconds".into(), Value::Float(seconds)),
            ("trace".into(), Value::Bool(trace)),
            ("host".into(), Value::Str(host())),
            ("cpu".into(), Value::Str(cpu_model())),
            ("nproc".into(), Value::UInt(nproc() as u64)),
            ("git_rev".into(), Value::Str(git_rev())),
            ("attempted".into(), Value::UInt(self.attempted)),
            ("failed".into(), Value::UInt(self.failed)),
            (
                "failures".into(),
                Value::Array(self.failures.iter().cloned().map(Value::Str).collect()),
            ),
            ("metrics".into(), Value::Object(metrics)),
        ];
        fields.extend(self.notes.iter().cloned());
        Value::Object(fields)
    }
}

/// JSON has no NaN or infinity; a metric that could not be computed is
/// reported as 0 and its run record says why.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// First quartile, median and third quartile of an ascending slice, by
/// the same rule as Python's `statistics.quantiles(values, n=4)` (the
/// "exclusive" method), so the run record and an external spread check
/// agree.
pub fn quartiles(sorted: &[f64]) -> Option<(f64, f64, f64)> {
    match sorted.len() {
        0 => None,
        1 => Some((sorted[0], sorted[0], sorted[0])),
        ld => {
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
            };
            Some((q(1), q(2), q(3)))
        }
    }
}

/// Median of unsorted samples (0 when there are none).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    quartiles(&s).map_or(0.0, |(_, m, _)| m)
}

/// Nearest-rank percentile of unsorted samples, by the simulator's
/// percentile definition (0 when there are none).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    hawkeye_sim::percentile_nearest_rank(&s, q).unwrap_or(0.0)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn host() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit the benchmark was built from, read from `.git` without
/// running git; "unknown" in a checkout that is not a repository.
fn git_rev() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(".git");
    let Ok(head) = std::fs::read_to_string(root.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => std::fs::read_to_string(root.join(r))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(root.join("packed-refs")).map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
    }
}
