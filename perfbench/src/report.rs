//! The metric catalogue and the result line.
//!
//! `END_TO_END` and `PER_LAYER` are the names `BENCHMARK.json` declares; a
//! run with `--trace 0` reports exactly the first list and a run with
//! `--trace 1` exactly the second, on every workload (a self-test pins
//! both lists to `BENCHMARK.json`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("quote_p50_us", "us"),
    ("quote_cpu_matvec", "matvec"),
    ("recovery_cpu_matvec", "matvec"),
    ("train_cpu_matvec", "matvec"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric. A layer a workload does not
/// drive reports 0 (see README.md).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fabric.submit_p50_us", "us"),
    ("fabric.wait_p50_us", "us"),
    ("fabric.route_ns", "ns"),
    ("fabric.arm_quote_gap", "count"),
    ("gateway.submit_p50_us", "us"),
    ("gateway.queue_wait_p50_us", "us"),
    ("gateway.queue_wait_p99_us", "us"),
    ("gateway.batch_form_p50_us", "us"),
    ("gateway.inference_p50_us", "us"),
    ("gateway.resolve_p50_us", "us"),
    ("gateway.batches", "count"),
    ("gateway.batch_size_mean", "count"),
    ("gateway.batch_fill_ratio", "ratio"),
    ("gateway.rejected", "count"),
    ("gateway.expired", "count"),
    ("gateway.failed", "count"),
    ("serve.quote_refs_us_per_quote_b1", "us"),
    ("serve.quote_refs_us_per_quote_live", "us"),
    ("serve.quote_one_us", "us"),
    ("serve.sessions", "count"),
    ("serve.evicted", "count"),
    ("nn.forward_rows_us_1", "us"),
    ("nn.forward_rows_us_32", "us"),
    ("nn.forward_rows_f32_us_32", "us"),
    ("nn.bytes_per_row", "B"),
    ("journal.append_p50_us", "us"),
    ("journal.append_p99_us", "us"),
    ("journal.bytes_per_frame", "B"),
    ("journal.replay_frames_per_s", "1/s"),
    ("rl.collect_s_per_round", "s"),
    ("rl.update_s_per_round", "s"),
    ("rl.update_share", "ratio"),
    ("rl.transitions_per_s", "1/s"),
    ("core.request_stream_s", "s"),
    ("core.env_step_us", "us"),
    ("core.equilibrium_ratio", "ratio"),
    ("sim.env_step_us", "us"),
    ("obs.trace_publish_ns", "ns"),
    ("obs.trace_dropped", "count"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("harness.generator_lag_p99_us", "us"),
    ("harness.error_rate", "ratio"),
];

/// Request outcomes a workload counts itself, checked against the
/// program's own telemetry after draining.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Requests the benchmark tried to submit.
    pub attempted: u64,
    /// Requests answered with a quote.
    pub completed: u64,
    /// Requests refused at admission.
    pub rejected: u64,
    /// Requests whose deadline passed.
    pub expired: u64,
    /// Requests that failed any other way.
    pub failed: u64,
}

impl Outcomes {
    /// Everything that did not produce a quote.
    pub fn not_completed(&self) -> u64 {
        self.rejected + self.expired + self.failed
    }

    /// `(rejected + expired + failed) / attempted`.
    pub fn error_rate(&self) -> f64 {
        self.not_completed() as f64 / self.attempted.max(1) as f64
    }

    /// Adds another phase's counts.
    pub fn add(&mut self, other: Outcomes) {
        self.attempted += other.attempted;
        self.completed += other.completed;
        self.rejected += other.rejected;
        self.expired += other.expired;
        self.failed += other.failed;
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// `(check, passed, detail)` in the order they ran.
    pub checks: Vec<(String, bool, String)>,
    /// Outcomes over every request the run issued.
    pub outcomes: Outcomes,
}

impl Report {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a correctness check.
    pub fn check(&mut self, name: impl Into<String>, passed: bool, detail: impl Into<String>) {
        self.checks.push((name.into(), passed, detail.into()));
    }

    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok)
    }

    /// Human-readable lines, then the result line the driver parses (last).
    /// Panics when a metric of `catalogue` was never measured: that is a
    /// bug in the benchmark, not in the program under test.
    pub fn render(&self, catalogue: &[(&'static str, &'static str)]) -> String {
        let mut out = String::new();
        for (name, ok, detail) in &self.checks {
            let verdict = if *ok { "ok" } else { "FAILED" };
            let _ = writeln!(out, "check {name}: {verdict} ({detail})");
        }
        let o = &self.outcomes;
        let _ = writeln!(
            out,
            "requests: attempted={} completed={} rejected={} expired={} failed={}",
            o.attempted, o.completed, o.rejected, o.expired, o.failed
        );
        let mut json = String::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = *self
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            let _ = writeln!(out, "metric {name} = {value} {unit}");
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { value } else { 0.0 };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct(),
            o.attempted,
            o.not_completed(),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(seen.insert(*name), "duplicate metric name {name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit}"
            );
        }
    }

    #[test]
    fn result_line_is_last_and_counts_failures() {
        let mut report = Report::default();
        for (name, _) in END_TO_END {
            report.set(name, 1.5);
        }
        report.outcomes = Outcomes {
            attempted: 10,
            completed: 8,
            rejected: 1,
            expired: 0,
            failed: 1,
        };
        report.check("prices", true, "all equal");
        let text = report.render(END_TO_END);
        let last = text.lines().last().unwrap();
        let parsed = vtm_obs::JsonValue::parse(last).unwrap();
        assert_eq!(parsed.get("correct").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(parsed.get("attempted").and_then(|v| v.as_u64()), Some(10));
        assert_eq!(parsed.get("failed").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(
            parsed
                .path("metrics.setup_s.value")
                .and_then(|v| v.as_f64()),
            Some(1.5)
        );
        assert!((report.outcomes.error_rate() - 0.2).abs() < 1e-12);
    }
}
