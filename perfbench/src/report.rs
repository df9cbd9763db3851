//! The metric catalogue and the result line.
//!
//! Every metric the benchmark reports is declared here with its unit.
//! A [`Report`] accepts only declared names and refuses to print until
//! every declared name of its set has a finite value, so the printed
//! set is exactly the declared one.

use crate::codec::REPORTED_LEVELS;
use crate::workload::KINDS;
use std::collections::BTreeMap;

/// End-to-end metrics: printed by every untraced run, on every workload.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("goodput_mib_s", "MiB/s"),
    ("ascii_p50_ms", "ms"),
    ("binary_p50_ms", "ms"),
    ("incomp_p50_ms", "ms"),
    ("bulk_p50_ms", "ms"),
    ("bulk_p90_ms", "ms"),
    ("small_p50_us", "us"),
    ("small_p90_us", "us"),
    ("cpu_s_per_gib", "s/GiB"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics: printed by every traced run, on every workload.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    for (what, unit) in [
        ("compress_mib_s", "MiB/s"),
        ("decompress_mib_s", "MiB/s"),
        ("ratio", "ratio"),
    ] {
        for level in REPORTED_LEVELS {
            for (_, kind) in KINDS {
                m.push((format!("codec.{what}.l{level}.{kind}"), unit));
            }
        }
    }
    m.push(("codec.crc32_mib_s".into(), "MiB/s"));
    m.push(("codec.adler32_mib_s".into(), "MiB/s"));
    m.push(("codec.est_busy_frac".into(), "frac"));
    for (_, kind) in KINDS {
        m.push((format!("adapt.mean_level.{kind}"), "level"));
    }
    for (_, kind) in KINDS {
        m.push((format!("adapt.wire_ratio.{kind}"), "ratio"));
    }
    m.push(("adapt.high_level_frac".into(), "frac"));
    m.push(("adapt.level_changes_per_msg".into(), "count/msg"));
    m.push(("adapt.wasted_frac.incomp".into(), "frac"));
    for name in [
        "ratio_trips",
        "divergence_reverts",
        "probes",
        "fast_path_hits",
        "direct_msgs",
    ] {
        m.push((format!("adapt.{name}"), "count"));
    }
    for side in ["write", "read"] {
        for (_, kind) in KINDS {
            m.push((format!("socket.{side}_ms.{kind}"), "ms"));
        }
        m.push((format!("socket.{side}_us.small"), "us"));
        m.push((format!("socket.{side}_ms.bulk"), "ms"));
    }
    m.push(("pool.hit_ratio".into(), "frac"));
    m.push(("pool.peak_outstanding".into(), "count"));
    m.push(("pool.evicted".into(), "count"));
    m.push(("link.util".into(), "frac"));
    m.push(("workers.jobs_per_msg".into(), "count/msg"));
    m.push(("workers.queue_peak".into(), "count"));
    m.push(("workers.panics".into(), "count"));
    m.push(("sched.waits".into(), "count"));
    m.push(("sched.utilization".into(), "frac"));
    m.push(("reactor.ticks_per_msg".into(), "count/msg"));
    m.push(("registry.failed".into(), "count"));
    m.push(("trace_overhead".into(), "frac"));
    m
}

/// A set of named values checked against a declared catalogue.
pub struct Report {
    declared: BTreeMap<String, &'static str>,
    values: BTreeMap<String, f64>,
}

impl Report {
    pub fn new(declared: impl IntoIterator<Item = (String, &'static str)>) -> Report {
        Report {
            declared: declared.into_iter().collect(),
            values: BTreeMap::new(),
        }
    }

    pub fn end_to_end() -> Report {
        Report::new(END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)))
    }

    pub fn per_layer() -> Report {
        Report::new(per_layer())
    }

    /// Sets a declared metric. Setting an undeclared name is a bug in
    /// the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            self.declared.contains_key(name),
            "metric {name} is not declared"
        );
        self.values.insert(name.to_string(), value);
    }

    /// The `metrics` object: every declared metric with its value and
    /// unit. Fails if one is missing or not a finite number.
    pub fn metrics_json(&self) -> Result<String, String> {
        let mut parts = Vec::with_capacity(self.declared.len());
        for (name, unit) in &self.declared {
            let v = *self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is {v}"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

/// The result line the benchmark ends its output with.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics_json: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics_json}}}"
    )
}

/// A flat JSON object of numbers, for the detail lines printed before
/// the result line.
pub fn flat_json(key: &str, values: &BTreeMap<String, f64>) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(k, v)| {
            let v = if v.is_finite() {
                v.to_string()
            } else {
                "null".into()
            };
            format!("\"{k}\": {v}")
        })
        .collect();
    format!("{{\"{key}\": {{{}}}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        all.extend(per_layer().into_iter().map(|(n, _)| n));
        let unique: std::collections::BTreeSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len());
        for n in &all {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(per_layer().len() <= 128);
    }

    /// The catalogue and `BENCHMARK.json` name the same metrics with the
    /// same units. (`compare.py check` checks the printed output.)
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(per_layer())
            .collect();
        for (name, unit) in &declared {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(spec.matches("\"unit\": ").count(), declared.len());
    }

    #[test]
    fn report_refuses_missing_and_non_finite_values() {
        let mut r = Report::new([("a".to_string(), "s"), ("b".to_string(), "ms")]);
        r.set("a", 1.5);
        assert!(r.metrics_json().unwrap_err().contains("b"));
        r.set("b", f64::NAN);
        assert!(r.metrics_json().is_err());
        r.set("b", 2.0);
        assert_eq!(
            r.metrics_json().unwrap(),
            "{\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 2, \"unit\": \"ms\"}}"
        );
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn report_refuses_undeclared_names() {
        Report::end_to_end().set("nope", 1.0);
    }
}
