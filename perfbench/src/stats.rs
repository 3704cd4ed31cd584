//! Summary statistics and the result line.

use std::fmt::Write as _;
use std::time::Duration;

/// Median of a non-empty sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of a non-empty sample of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of an empty sample");
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// The highest percentile of the ladder that still has at least ten samples
/// beyond it (nearest rank), as `(percentile, value, samples beyond)`.
pub fn tail(values: &[f64]) -> (f64, f64, usize) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for p in [99.9, 99.0, 95.0, 90.0, 75.0, 50.0] {
        let rank = ((p / 100.0 * n as f64).ceil() as usize).max(1);
        if n - rank >= 10 {
            return (p, v[rank - 1], n - rank);
        }
    }
    (100.0, v[n - 1], 0)
}

/// Seconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Milliseconds as `f64`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set of this process (`VmHWM`), in megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib * 1024.0 / 1e6
}

/// Named metrics in print order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Records a metric; names are unique.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.entries.iter().all(|(n, ..)| n != name),
            "metric {name} recorded twice"
        );
        self.entries.push((name.to_owned(), value, unit));
    }

    /// Records a count.
    pub fn count(&mut self, name: &str, value: u64) {
        self.put(name, value as f64, "count");
    }

    /// Records a duration in seconds.
    pub fn seconds(&mut self, name: &str, d: Duration) {
        self.put(name, secs(d), "s");
    }

    /// Every metric as `(name, value, unit)`, in print order.
    pub fn entries(&self) -> impl Iterator<Item = (&str, f64, &str)> {
        self.entries.iter().map(|(n, v, u)| (n.as_str(), *v, *u))
    }

    /// Human-readable lines, one metric each.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.entries {
            let _ = writeln!(out, "{name:<28} {value:>16.6} {unit}");
        }
        out
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_json(&self, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
            failed == 0
        );
        for (ix, (name, value, unit)) in self.entries.iter().enumerate() {
            let sep = if ix == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=45).map(f64::from).collect();
        assert_eq!(tail(&v), (75.0, 34.0, 11));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 990.0, 10));
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }
}
