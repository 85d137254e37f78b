//! The names and units of every metric the benchmark prints, and the result
//! line that carries them.  `BENCHMARK.json` lists the same names; a unit
//! test holds the two together.

use bvc_scenario::json::Json;

/// End-to-end metrics, printed with `--trace 0`: what a user of the system
/// sees.  Every workload reports every one of them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("decisions_per_s", "1/s"),
    ("decision_latency_p50_ms", "ms"),
    ("decision_latency_tail_ms", "ms"),
    ("cpu_ms_per_decision", "ms"),
    ("peak_rss_mb", "MB"),
    ("decided_share", "ratio"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed with `--trace 1`.  A workload that does not
/// run a layer reports 0 for that layer's metrics.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("lp.solves_per_decision", "count"),
    ("lp.pivots_per_solve", "count"),
    ("lp.buffer_reuse_pct", "%"),
    ("lp.feasibility_us", "us"),
    ("lp.solve_us", "us"),
    ("lp.share_pct", "%"),
    ("geometry.queries_per_decision", "count"),
    ("geometry.local_hit_pct", "%"),
    ("geometry.shared_hit_pct", "%"),
    ("geometry.engine_misses_per_decision", "count"),
    ("geometry.fast_path_pct", "%"),
    ("geometry.gamma_point_us", "us"),
    ("geometry.gamma_contains_us", "us"),
    ("geometry.share_pct", "%"),
    ("geometry.cache_hit_ns", "ns"),
    ("geometry.cache_share_pct", "%"),
    ("geometry.cache_miss_insert_us", "us"),
    ("geometry.cache_entries_at_end", "count"),
    ("broadcast.eig_instance_us", "us"),
    ("broadcast.msgs_per_decision", "count"),
    ("broadcast.share_pct", "%"),
    ("net.msgs_sent_per_decision", "count"),
    ("net.msgs_delivered_per_decision", "count"),
    ("net.msgs_dropped_per_decision", "count"),
    ("net.steps_per_decision", "count"),
    ("net.sync_ns_per_msg", "ns"),
    ("net.async_ns_per_step", "ns"),
    ("net.fault_window_steps", "count"),
    ("net.share_pct", "%"),
    ("core.rounds_per_decision", "count"),
    ("core.build_zi_warm_us", "us"),
    ("core.build_zi_cold_us", "us"),
    ("core.admission_us", "us"),
    ("core.self_pct", "%"),
    ("service.parallel_efficiency", "ratio"),
    ("service.worker_utilization", "ratio"),
    ("service.queue_wait_p50_ms", "ms"),
    ("service.max_queue_depth", "count"),
    ("service.sink_emit_us", "us"),
    ("scenario.parse_us_per_file", "us"),
    ("scenario.expand_us", "us"),
    ("scenario.verdict_json_us", "us"),
    ("topology.sufficiency_us", "us"),
    ("trace.events_per_decision", "count"),
    ("trace.overhead_pct", "%"),
];

/// What one run of one workload found.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every output check held (a run that fails one exits non-zero instead
    /// of printing a result, so a printed result always says `true`).
    pub correct: bool,
    /// Consensus instances the run asked the program to decide.
    pub attempted: u64,
    /// Instances that ended without the protocol's verdict: contained
    /// panics and admission rejections.
    pub failed: u64,
    /// `(name, value)` in the order of [`END_TO_END`] or [`PER_LAYER`].
    pub values: Vec<(&'static str, f64)>,
}

impl RunResult {
    /// The result line the driver reads: one JSON object, units included.
    /// Values print with every digit `f64` holds.
    pub fn to_json(&self, table: &[(&'static str, &'static str)]) -> String {
        let metrics = self
            .values
            .iter()
            .fold(Json::object(), |metrics, (name, value)| {
                let unit = table
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, unit)| *unit)
                    .expect("every reported metric is in its table");
                metrics.field(
                    name,
                    Json::object().field("value", *value).field("unit", unit),
                )
            });
        Json::object()
            .field("correct", self.correct)
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("metrics", metrics)
            .to_string()
    }
}

/// Fills a metric vector in table order from `(name, value)` pairs; a name
/// the table lacks or a missing value is a bug in the benchmark.
pub fn in_table_order(
    table: &[(&'static str, &'static str)],
    found: &[(&str, f64)],
) -> Vec<(&'static str, f64)> {
    for (name, _) in found {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "metric `{name}` is not in its table"
        );
    }
    table
        .iter()
        .map(|&(name, _)| {
            let value = found
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("metric `{name}` was not measured"));
            assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
            (name, value)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    /// Whether `name` is a legal metric or workload name: a letter or digit
    /// first, then at most 63 more of `[A-Za-z0-9_.-]`.
    fn is_valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(
            &std::fs::read_to_string(path).expect("BENCHMARK.json is at the repository root"),
        )
        .expect("BENCHMARK.json parses")
    }

    fn names_and_units(section: &Json) -> Vec<(String, String)> {
        section
            .as_array()
            .expect("a list")
            .iter()
            .map(|entry| {
                (
                    entry
                        .get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string(),
                    entry
                        .get("unit")
                        .and_then(Json::as_str)
                        .expect("unit")
                        .to_string(),
                )
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn every_name_is_in_the_legal_charset_and_used_once() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(name, _)| *name)
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        for name in &all {
            assert!(is_valid_name(name), "`{name}` is not a legal name");
        }
        let count = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), count, "a name is used twice");
        for bad in ["", "-x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!is_valid_name(bad), "`{bad}` must be refused");
        }
    }

    #[test]
    fn manifest_and_command_name_the_same_metrics_and_workloads() {
        let manifest = manifest();
        assert_eq!(
            names_and_units(manifest.get("end_to_end").unwrap()),
            owned(&END_TO_END)
        );
        assert_eq!(
            names_and_units(manifest.get("per_layer").unwrap()),
            owned(&PER_LAYER)
        );
        let workloads: Vec<&str> = manifest
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn manifest_bounds_match_compare() {
        let manifest = manifest();
        for entry in manifest.get("end_to_end").and_then(Json::as_array).unwrap() {
            let name = entry.get("name").and_then(Json::as_str).unwrap();
            let bound = entry.get("bound").and_then(Json::as_f64).unwrap();
            let better = entry.get("better").and_then(Json::as_str).unwrap();
            let ours = crate::compare::BOUNDS
                .iter()
                .find(|b| b.name == name)
                .unwrap_or_else(|| panic!("compare has no bound for `{name}`"));
            assert_eq!(bound, ours.bound, "{name}");
            assert_eq!(better == "higher", ours.higher_is_better, "{name}");
            assert!(bound > 0.0 && bound <= 0.25, "{name}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let result = RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            values: END_TO_END
                .iter()
                .map(|&(name, _)| (name, 1.0 / 3.0))
                .collect(),
        };
        let json = Json::parse(&result.to_json(&END_TO_END)).unwrap();
        let Json::Object(fields) = &json else {
            panic!("the result line is an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Json::Object(metrics)) = json.get("metrics") else {
            panic!("metrics is an object")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        for ((name, entry), (expected, unit)) in metrics.iter().zip(END_TO_END) {
            assert_eq!(name, expected);
            assert_eq!(entry.get("value").and_then(Json::as_f64), Some(1.0 / 3.0));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(unit));
        }
    }

    #[test]
    fn table_order_refuses_unknown_and_missing_metrics() {
        let table = [("a", "s"), ("b", "s")];
        assert_eq!(
            in_table_order(&table, &[("b", 2.0), ("a", 1.0)]),
            vec![("a", 1.0), ("b", 2.0)]
        );
        assert!(std::panic::catch_unwind(|| in_table_order(&table, &[("a", 1.0)])).is_err());
        assert!(std::panic::catch_unwind(|| in_table_order(
            &table,
            &[("a", 1.0), ("b", 1.0), ("c", 1.0)]
        ))
        .is_err());
    }
}
