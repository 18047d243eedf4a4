//! The metric catalog (names, units, directions; `BENCHMARK.json` lists
//! the same) and the small statistics the benchmark reports.

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Metrics a user of the system sees, printed with `--trace 0`.
pub const END_TO_END: &[Metric] = &[
    m("ingest_ups", "upd/s", "higher"),
    m("cpu_ms_per_kupd", "ms", "lower"),
    m("fresh_us", "us", "lower"),
    m("sim_ups", "upd/s", "higher"),
    m("fresh_steps_mean", "steps", "lower"),
    m("fresh_steps_max", "steps", "lower"),
    m("setup_s", "s", "lower"),
];

/// Per-layer metrics of the traced leg, printed with `--trace 1`.
pub const PER_LAYER: &[Metric] = &[
    m("warehouse.apply.calls", "count", "lower"),
    m("warehouse.apply.busy_ms", "ms", "lower"),
    m("warehouse.apply.p50_us", "us", "lower"),
    m("warehouse.apply.p99_us", "us", "lower"),
    m("warehouse.view_tuples", "count", "lower"),
    m("readpath.publish.busy_ms", "ms", "lower"),
    m("readpath.read.calls", "count", "higher"),
    m("readpath.read.p50_us", "us", "lower"),
    m("readpath.read.p99_us", "us", "lower"),
    m("readpath.retained_versions_peak", "count", "lower"),
    m("readpath.reader_ops", "reads/s", "higher"),
    m("viewmgr.handle.calls", "count", "lower"),
    m("viewmgr.handle.busy_ms", "ms", "lower"),
    m("viewmgr.handle.p99_us", "us", "lower"),
    m("viewmgr.als_per_update", "ratio", "lower"),
    m("core.merge.calls", "count", "lower"),
    m("core.merge.busy_ms", "ms", "lower"),
    m("core.merge.vut_peak_rows", "count", "lower"),
    m("core.merge.txns_per_al", "ratio", "higher"),
    m("source.execute.calls", "count", "lower"),
    m("source.execute.busy_ms", "ms", "lower"),
    m("source.answer.calls", "count", "lower"),
    m("source.answer.busy_ms", "ms", "lower"),
    m("source.answer.p99_us", "us", "lower"),
    m("source.answer.per_update", "ratio", "lower"),
    m("whips.route.calls", "count", "lower"),
    m("whips.route.busy_ms", "ms", "lower"),
    m("whips.route.routed_ratio", "ratio", "lower"),
    m("whips.speedup_vs_sim", "ratio", "higher"),
    m("durability.append.calls", "count", "lower"),
    m("durability.bytes_per_commit", "bytes", "lower"),
    m("durability.fsync.calls", "count", "lower"),
    m("durability.fsyncs_per_commit", "ratio", "lower"),
    m("durability.threaded_fsyncs_per_commit", "ratio", "lower"),
    m("trace.overhead_pct", "%", "lower"),
];

/// Median of `xs` (mean of the middle pair for even lengths); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// A metric name is letters, digits, `_`, `.` and `-`, starting with a
    /// letter or digit, at most 64 characters.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    /// A unit is letters, digits, `_`, `/`, `%`, `.` and `-`, at most 16.
    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    #[test]
    fn catalog_names_units_and_directions_are_well_formed() {
        let mut seen = BTreeSet::new();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(metric.name), "bad name {}", metric.name);
            assert!(valid_unit(metric.unit), "bad unit for {}", metric.name);
            assert!(
                matches!(metric.better, "lower" | "higher"),
                "bad direction for {}",
                metric.name
            );
            assert!(seen.insert(metric.name), "{} listed twice", metric.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let json = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, catalog) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = json[key].as_array().expect("metric list");
            assert_eq!(listed.len(), catalog.len(), "{key} length");
            for (entry, metric) in listed.iter().zip(catalog) {
                assert_eq!(entry["name"].as_str(), Some(metric.name));
                assert_eq!(entry["unit"].as_str(), Some(metric.unit));
                assert_eq!(entry["better"].as_str(), Some(metric.better));
            }
        }
        let workloads: Vec<&str> = json["workloads"]
            .as_array()
            .expect("workload list")
            .iter()
            .map(|w| w["name"].as_str().expect("workload name"))
            .collect();
        let defined: Vec<&str> = crate::workloads::all().iter().map(|w| w.name).collect();
        assert_eq!(workloads, defined);
    }

    #[test]
    fn median_and_ratio() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert!(!valid_name(".x") && !valid_name("a b") && valid_name("a.b_c-1"));
    }
}
