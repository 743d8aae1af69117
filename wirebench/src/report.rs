//! Metric names, units, and the result line.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a
//! test holds the two lists equal.

use std::fmt::Write as _;

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("achieved_qps", "1/s"),
    ("slo_frac", "ratio"),
    ("mape", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("edge.codec_us", "us"),
    ("edge.overhead_ms", "ms"),
    ("serve.latency_ms", "ms"),
    ("serve.latency_p99_ms", "ms"),
    ("serve.hit_rate", "ratio"),
    ("serve.rounds_per_100q", "count"),
    ("serve.batch_mean", "count"),
    ("serve.shed", "count"),
    ("engine.round_ms", "ms"),
    ("engine.round_p99_ms", "ms"),
    ("rtf.fit_s", "s"),
    ("rtf.corr_fetch_us", "us"),
    ("rtf.corr_build_ms", "ms"),
    ("rtf.corr_mb", "MB"),
    ("graph.dijkstra_us", "us"),
    ("crowd.covered_us", "us"),
    ("crowd.campaign_us", "us"),
    ("crowd.answer_frac", "ratio"),
    ("ocs.select_ms", "ms"),
    ("ocs.select_p99_ms", "ms"),
    ("ocs.budget_frac", "ratio"),
    ("gsp.propagate_ms", "ms"),
    ("gsp.propagate_p99_ms", "ms"),
    ("gsp.rounds", "count"),
    ("trace.overhead", "ratio"),
];

/// Measured values by name; rendered in the order of a metric table.
#[derive(Debug, Default, Clone)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Sets `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// The last line of a run: `correct`, `attempted`, `failed`, and every
/// metric of `table` with its unit. A metric that is missing or not a
/// finite number makes the run incorrect (and is rendered as 0, so the
/// line stays valid JSON).
pub fn result_line(
    mut correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&str, &str)],
    values: &Values,
) -> String {
    let mut metrics = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = match values.get(name) {
            Some(v) if v.is_finite() => v,
            _ => {
                correct = false;
                0.0
            }
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(metrics, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        attempted.max(1)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The objects of the array `section` of `json` (flat objects only).
    fn objects<'a>(json: &'a str, section: &str) -> Vec<&'a str> {
        let key = format!("\"{section}\"");
        let start = json.find(&key).expect("section present") + key.len();
        let body = &json[start..];
        body[..body.find(']').expect("section closes")].split('{').skip(1).collect()
    }

    /// `(name, unit)` of every metric object in `section` of `json`.
    fn declared(json: &str, section: &str) -> Vec<(String, String)> {
        objects(json, section)
            .into_iter()
            .map(|obj| (string_field(obj, "name"), string_field(obj, "unit")))
            .collect()
    }

    fn string_field(obj: &str, field: &str) -> String {
        let key = format!("\"{field}\"");
        let rest = &obj[obj.find(&key).expect("field present") + key.len()..];
        let rest = &rest[rest.find('"').expect("value opens") + 1..];
        rest[..rest.find('"').expect("value closes")].to_string()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn names_and_units_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        assert_eq!(declared(&json, "end_to_end"), owned(&END_TO_END));
        assert_eq!(declared(&json, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> =
            objects(&json, "workloads").into_iter().map(|obj| string_field(obj, "name")).collect();
        assert!(!workloads.is_empty());
        for name in &workloads {
            assert!(crate::workload::Workload::parse(name).is_some(), "unknown workload {name}");
        }
    }

    #[test]
    fn result_line_prints_every_metric_with_its_unit() {
        let mut v = Values::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            v.set(name, 1.5 + i as f64);
        }
        let line = result_line(true, 10, 0, &END_TO_END, &v);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": ")), "{name}");
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
        }
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
    }

    #[test]
    fn a_missing_or_non_finite_metric_makes_the_run_incorrect() {
        let mut v = Values::default();
        v.set("p50_ms", f64::NAN);
        let line = result_line(true, 0, 0, &END_TO_END[..1], &v);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 1,"));
        assert!(result_line(true, 3, 0, &END_TO_END[..2], &v).contains("\"correct\": false"));
    }
}
