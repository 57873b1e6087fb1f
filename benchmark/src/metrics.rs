//! Every metric the benchmark emits, by name and unit. `BENCHMARK.json` at
//! the repo root lists the same names with directions and bounds; a test
//! holds the two together.

/// The contract file, embedded so `compare` applies exactly the bounds the
/// commit declares.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// End-to-end metrics `(name, unit)`, reported by every workload with
/// `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("decide_p50_us", "us"),
    ("decide_p99_us", "us"),
    ("peak_rss_mb", "MB"),
    ("on_time_pct", "%"),
];

/// Per-layer metrics `(name, unit)`, reported by every workload with
/// `--trace 1`. A layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("workload.generate_ms", "ms"),
    ("model.spec_build_ms", "ms"),
    ("sim.step_count", "count"),
    ("sim.engine_self_us_per_event", "us"),
    ("sim.engine_share", "ratio"),
    ("sim.snapshot_us", "us"),
    ("sim.restore_us", "us"),
    ("sim.snapshot_bytes", "bytes"),
    ("core.map_event_count", "count"),
    ("core.map_event_us_mean", "us"),
    ("core.map_share", "ratio"),
    ("core.task_finished_us_per_event", "us"),
    ("core.table_reuse_ratio", "ratio"),
    ("core.drop_engaged_ratio", "ratio"),
    ("core.pruner_drops", "count"),
    ("core.toggle_transitions", "count"),
    ("core.batch_len_mean", "count"),
    ("core.batch_len_max", "count"),
    ("core.scorer.warm_us_per_event", "us"),
    ("core.scorer.cold_us_per_event", "us"),
    ("core.scorer.cache_gain", "ratio"),
    ("core.table.rebuild_us_per_event", "us"),
    ("core.table.ensure_us_per_event", "us"),
    ("core.table.ensure_reuse_ratio", "ratio"),
    ("core.table.reduce_us_per_event", "us"),
    ("core.table.rows_mean", "count"),
    ("pmf.queue_step_ns", "ns"),
    ("pmf.convolve_ns", "ns"),
    ("pmf.compact_ns", "ns"),
    ("pmf.tail_len_mean", "count"),
    ("pmf.tail_len_p99", "count"),
    ("parallel.pool_round_us", "us"),
    ("service.serve_self_us_per_event", "us"),
    ("service.feeder_blocked_share", "ratio"),
    ("service.shed_ratio", "ratio"),
    ("service.checkpoints", "count"),
    ("service.checkpoint_bytes_mean", "bytes"),
    ("service.checkpoint_encode_us", "us"),
    ("service.checkpoint_decode_us", "us"),
    ("service.restore_us", "us"),
    ("bench.trace_overhead", "ratio"),
];

/// Measured values keyed by metric name; [`Measured::finish`] checks them
/// against one of the tables above, so a run can neither omit a declared
/// metric nor emit an undeclared one.
#[derive(Debug, Default)]
pub struct Measured(Vec<(&'static str, f64)>);

impl Measured {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(self.0.iter().all(|(n, _)| *n != name), "metric {name} set twice");
        self.0.push((name, value));
    }

    /// A ratio that reads 0 when its base is 0 (the layer never ran).
    pub fn set_ratio(&mut self, name: &'static str, part: f64, base: f64) {
        self.set(name, if base > 0.0 { part / base } else { 0.0 });
    }

    /// The values in table order as `(name, value, unit)`.
    pub fn finish(
        self,
        table: &[(&'static str, &'static str)],
    ) -> Vec<(&'static str, f64, &'static str)> {
        for (name, _) in &self.0 {
            assert!(table.iter().any(|(n, _)| n == name), "metric {name} is not declared");
        }
        table
            .iter()
            .map(|&(name, unit)| {
                let value = self.0.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v);
                (name, value, unit)
            })
            .collect()
    }
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The `end_to_end` section of the embedded `BENCHMARK.json`.
pub fn declared_end_to_end() -> Vec<Declared> {
    let doc = crate::json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    doc.get("end_to_end")
        .and_then(|v| v.as_array())
        .expect("BENCHMARK.json has end_to_end")
        .iter()
        .map(|m| Declared {
            name: m.get("name").and_then(|v| v.as_str()).expect("metric name").to_string(),
            higher_is_better: m.get("better").and_then(|v| v.as_str()) == Some("higher"),
            bound: m.get("bound").and_then(|v| v.as_f64()).expect("metric bound"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn section(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|v| v.as_array())
            .unwrap_or_else(|| panic!("BENCHMARK.json has {key}"))
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                assert!(matches!(field("better").as_str(), "higher" | "lower"));
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table.iter().map(|(n, u)| ((*n).to_string(), (*u).to_string())).collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics() {
        let doc = parse(BENCHMARK_JSON).unwrap();
        assert_eq!(section(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(section(&doc, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
        let paths = doc.get("paths").and_then(|v| v.as_array()).unwrap();
        assert_eq!(paths, [Value::String("benchmark".into())]);
    }

    #[test]
    fn names_and_units_stay_inside_the_contract_alphabets() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(name), "bad metric name {name:?}");
            assert!(unit_ok(unit), "bad unit {unit:?} on {name}");
            assert!(seen.insert(*name), "{name} declared twice");
        }
        for name in crate::workloads::NAMES {
            assert!(name_ok(name), "bad workload name {name:?}");
            assert!(seen.insert(name), "{name} collides with a metric");
        }
    }

    #[test]
    fn bounds_respect_the_contract() {
        let declared = declared_end_to_end();
        assert_eq!(declared.len(), END_TO_END.len());
        for d in &declared {
            assert!(d.bound > 0.0 && d.bound <= 0.25, "{} bound {}", d.name, d.bound);
        }
        let setup = declared.iter().find(|d| d.name == "setup_s").unwrap();
        assert!(!setup.higher_is_better);
        assert!(declared.iter().all(|d| d.bound <= setup.bound), "setup_s has the largest bound");
    }

    #[test]
    fn measured_fills_table_order_and_rejects_strangers() {
        let mut m = Measured::default();
        m.set("on_time_pct", 50.0);
        m.set_ratio("setup_s", 1.0, 0.0);
        let rows = m.finish(&END_TO_END);
        assert_eq!(rows.len(), END_TO_END.len());
        assert_eq!(rows[0], ("setup_s", 0.0, "s"));
        assert_eq!(rows[5], ("on_time_pct", 50.0, "%"));
        let mut stranger = Measured::default();
        stranger.set("not.a.metric", 1.0);
        assert!(std::panic::catch_unwind(move || stranger.finish(&END_TO_END)).is_err());
    }
}
