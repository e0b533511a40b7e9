//! The metric catalogue and the result line.
//!
//! Every workload prints every metric of the catalogue it was asked
//! for: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! with `--trace 1`. A per-layer metric a workload does not exercise
//! reads 0; end-to-end metrics are defined on every workload.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. The operation behind the
/// latency and throughput figures is the workload's own: a query
/// (batch workloads) or a commit (`serve_write`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`, named by module.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("parser.program_ms", "ms"),
    ("parser.edb_load_s", "s"),
    ("optimizer.run_ms", "ms"),
    ("optimizer.detect_ms", "ms"),
    ("optimizer.applied", "count"),
    ("optimizer.skipped", "count"),
    ("cost.plan_ms", "ms"),
    ("cost.alternatives", "count"),
    ("cost.mispredict", "ratio"),
    ("eval.compile_ms", "ms"),
    ("eval.rounds", "count"),
    ("eval.rounds_ms", "ms"),
    ("eval.round_ms_max", "ms"),
    ("eval.finish_ms", "ms"),
    ("eval.dedup_useful_frac", "ratio"),
    ("eval.probe_hits_per_probe", "ratio"),
    ("eval.memo_hit_frac", "ratio"),
    ("eval.dedup_regrows", "count"),
    ("eval.scratch_hw_bytes", "bytes"),
    ("eval.kernel_frac", "ratio"),
    ("pool.parallel_round_frac", "ratio"),
    ("pool.join_ms", "ms"),
    ("pool.merge_ms", "ms"),
    ("pool.concat_ms", "ms"),
    ("protocol.read_overhead_us", "us"),
    ("protocol.reply_tuples", "count"),
    ("protocol.parse_us", "us"),
    ("protocol.render_us", "us"),
    ("admission.admit_us", "us"),
    ("admission.shed", "count"),
    ("epoch.pin_us", "us"),
    ("cache.get_us", "us"),
    ("cache.hit_frac", "ratio"),
    ("answer.bound1_us", "us"),
    ("answer.bound2_us", "us"),
    ("answer.member_us", "us"),
    ("maintain.insert_ms", "ms"),
    ("maintain.delete_ms", "ms"),
    ("maintain.over_deleted", "count"),
    ("maintain.rederived", "count"),
    ("maintain.from_scratch", "count"),
    ("maintain.replans", "count"),
    ("wal.append_us", "us"),
    ("wal.sync_us", "us"),
    ("wal.bytes_per_commit", "bytes"),
    ("wal.replay_ms_per_commit", "ms"),
    ("server.batch_size", "count"),
    ("server.commit_other_ms", "ms"),
    ("server.recovery_s", "s"),
    ("epoch.publish_ms", "ms"),
    ("epoch.resident_mb", "MB"),
    ("run.failed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
];

/// What one run produced.
#[derive(Default)]
pub struct Report {
    /// Every checked output was right.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that ended in a typed error or an `Overloaded` shed.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Records `name = value`; the name must be in a catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "uncatalogued metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The result line: the catalogue selected by `trace`, every value
    /// with its unit. A missing end-to-end metric is a benchmark bug.
    pub fn result_line(&self, trace: bool) -> String {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        let mut m = String::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let v = match self.values.get(name) {
                Some(v) => *v,
                None if trace => 0.0,
                None => panic!("end-to-end metric {name} not measured"),
            };
            assert!(v.is_finite(), "metric {name} is not finite: {v}");
            if i > 0 {
                m.push_str(", ");
            }
            let _ = write!(m, "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue and `BENCHMARK.json` name the same metrics with
    /// the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        let listed = spec.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_has_every_metric() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            ..Report::default()
        };
        for (n, _) in END_TO_END {
            r.set(n, 1.25);
        }
        let line = r.result_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        let traced = r.result_line(true);
        assert!(traced.contains("\"wal.sync_us\": {\"value\": 0.0, \"unit\": \"us\"}"));
    }
}
