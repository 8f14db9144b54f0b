//! Latency percentiles, the process's peak memory, and the result line.

use prism_serve::percentile;
use std::fmt::Write as _;

/// Nearest-rank median and 99th percentile of `ns`, in microseconds
/// (sorts `ns`).
pub fn p50_p99_us(ns: &mut [usize]) -> (f64, f64) {
    ns.sort_unstable();
    (
        percentile(ns, 50) as f64 / 1e3,
        percentile(ns, 99) as f64 / 1e3,
    )
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// How many samples the value summarises (`None` for a single reading
    /// or a count).
    pub samples: Option<usize>,
    /// What the value is on this workload, printed beside it.
    pub note: &'static str,
}

impl Metric {
    /// A metric with no sample count or note.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            samples: None,
            note: "",
        }
    }

    /// This metric summarising `n` samples.
    pub fn samples(mut self, n: usize) -> Metric {
        self.samples = Some(n);
        self
    }

    /// This metric with a note on what it means on this workload.
    pub fn note(mut self, note: &'static str) -> Metric {
        self.note = note;
        self
    }
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Whether every output check and invariant held.
    pub correct: bool,
    /// Requests or rows attempted.
    pub attempted: usize,
    /// Requests or rows that errored or failed an output check.
    pub failed: usize,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The human-readable report: one line per metric with its unit and
    /// sample count, then the failure ratio.
    pub fn report(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = write!(out, "{:<34} {:>16.6} {:<6}", m.name, m.value, m.unit);
            if let Some(n) = m.samples {
                let _ = write!(out, " n={n}");
            }
            if !m.note.is_empty() {
                let _ = write!(out, "  ({})", m.note);
            }
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "{:<34} {:>16.6} {:<6} ({} of {} attempted)",
            "fail_ratio",
            self.failed as f64 / self.attempted.max(1) as f64,
            "ratio",
            self.failed,
            self.attempted
        );
        out
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust prints (`null` is not a number, so a
/// non-finite value becomes `-1`, which no metric can take honestly).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "-1".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p50_p99_in_microseconds() {
        let mut ns: Vec<usize> = (1..=100).rev().map(|i| i * 1000).collect();
        assert_eq!(p50_p99_us(&mut ns), (50.0, 99.0));
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![Metric::new("wall_s", "s", 1.25).samples(3)],
        };
        assert_eq!(
            outcome.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        assert!(outcome.report().contains("n=3"));
    }
}
