//! Statistics, the run tally, environment probes, and JSON output.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Failed-op messages kept for the record (the count is always exact).
const KEPT_FAILURES: usize = 8;

/// Ops attempted and failed over a whole run, across every pass.
#[derive(Default)]
pub struct Tally {
    /// Ops attempted (decompositions, served requests, label checks).
    pub attempted: u64,
    /// Ops that failed a check or errored.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one op; `Err` carries why it failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.failed += 1;
            if self.failures.len() < KEPT_FAILURES {
                self.failures.push(msg);
            }
        }
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile, `q` in `[0, 1]` (0 when empty).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    mpx_trace::percentile(&sorted, q)
}

/// Mean of `values` (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// First line of a command's standard output, or `"unknown"`.
pub fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form gives;
/// non-finite values (never produced by a healthy run) become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON object from already-encoded values, in the given order.
pub fn json_obj(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The `metrics` object of the result line: `{"name": {"value": v, "unit": u}}`.
pub fn json_metrics(metrics: &BTreeMap<&'static str, f64>, units: &[(&str, &str)]) -> String {
    let fields: Vec<(&str, String)> = units
        .iter()
        .filter_map(|&(name, unit)| {
            metrics.get(name).map(|&v| {
                (
                    name,
                    json_obj(&[("value", json_num(v)), ("unit", json_str(unit))]),
                )
            })
        })
        .collect();
    json_obj(&fields)
}
