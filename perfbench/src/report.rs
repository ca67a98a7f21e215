//! Metric catalogue and the result line.
//!
//! Every workload fills one [`Report`]. Untraced runs print the end-to-end
//! metrics, traced runs the per-layer metrics; both print a human-readable
//! table (every metric computed, with unit and sample count, `n/a` where a
//! metric does not apply) before the final one-line JSON result.

use spq_service::json::Json;
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("query_s_p50", "s"),
    ("query_s_tail", "s"),
    ("queries_per_s", "1/s"),
    ("feasible_frac", "ratio"),
    ("objective_norm", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics of the traced run: `(name, unit)`, grouped by crate.
pub const PER_LAYER: &[(&str, &str)] = &[
    // spq-spaql + translate
    ("core.compile_ms", "ms"),
    ("core.parse_ms", "ms"),
    ("core.bind_ms", "ms"),
    ("core.translate_ms", "ms"),
    // spq-core instance
    ("core.instance_s", "s"),
    ("core.instance_rss_mb", "MB"),
    // spq-core search
    ("core.search_s", "s"),
    ("core.csa_iterations", "count"),
    ("core.scenarios_used", "count"),
    ("core.summaries_used", "count"),
    ("core.validations", "count"),
    ("core.validation_scenarios", "count"),
    ("core.validate_s", "s"),
    ("core.scenarios_s", "s"),
    // spq-solver
    ("solver.milp_s", "s"),
    ("solver.lp_pivots", "count"),
    ("solver.nodes", "count"),
    ("solver.problems", "count"),
    ("solver.refactorizations", "count"),
    ("solver.pivots_per_s", "1/s"),
    // spq-sketch
    ("sketch.partition_s", "s"),
    ("sketch.sketch_s", "s"),
    ("sketch.refine_s", "s"),
    ("sketch.blocks_refined", "count"),
    ("sketch.blocks_routed", "count"),
    ("sketch.routed_frac", "ratio"),
    // spq-mcdb
    ("mcdb.chunk_misses", "count"),
    ("mcdb.chunk_hits", "count"),
    ("mcdb.chunk_evictions", "count"),
    ("mcdb.chunk_hit_rate", "ratio"),
    ("mcdb.chunk_bytes_paged", "bytes"),
    ("mcdb.scenario_cache_hit_rate", "ratio"),
    ("mcdb.store_reads", "count"),
    ("mcdb.store_spill_writes", "count"),
    // spq-service
    ("svc.queue_ms_p50", "ms"),
    ("svc.queue_ms_p95", "ms"),
    ("svc.exec_ms_p50", "ms"),
    ("svc.exec_ms_p95", "ms"),
    ("svc.result_cache_hit_frac", "ratio"),
    ("svc.prepared_cache_hit_frac", "ratio"),
    ("svc.rejects", "count"),
    ("svc.load_ms_p50", "ms"),
    ("svc.validate_op_ms_p50", "ms"),
    // spq-net
    ("net.overhead_ms_p50", "ms"),
    ("net.overhead_ms_p95", "ms"),
    ("net.lines", "count"),
    // spq-obs
    ("obs.trace_overhead_frac", "ratio"),
    ("obs.unattributed_frac", "ratio"),
    // load generator and the benchmark's own timing
    ("gen.lag_ms_max", "ms"),
    ("gen.offered_qps", "1/s"),
    ("bench.cover_frac", "ratio"),
];

/// One measured value.
#[derive(Debug, Clone)]
pub struct Value {
    /// The number, or `None` when the metric does not apply to the workload.
    pub value: Option<f64>,
    /// How many samples the value summarizes.
    pub samples: usize,
    /// Free-form qualifier printed in the table (e.g. which percentile).
    pub note: String,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<String, (String, Value)>,
    /// Operations attempted in the timed loop(s).
    pub attempted: u64,
    /// Operations that errored, were refused, timed out or failed the
    /// output check.
    pub failed: u64,
    /// Human-readable descriptions of every failure.
    pub problems: Vec<String>,
}

impl Report {
    /// Record `name` (with its unit) measured over `samples` samples.
    pub fn set(&mut self, name: &str, unit: &str, value: f64, samples: usize) {
        self.set_noted(name, unit, Some(value), samples, "");
    }

    /// Record `name` with an optional value and a note.
    pub fn set_noted(
        &mut self,
        name: &str,
        unit: &str,
        value: Option<f64>,
        samples: usize,
        note: &str,
    ) {
        let value = value.filter(|v| v.is_finite());
        self.values.insert(
            name.to_string(),
            (
                unit.to_string(),
                Value {
                    value,
                    samples,
                    note: note.to_string(),
                },
            ),
        );
    }

    /// Mark `name` as not applicable to this workload.
    pub fn not_applicable(&mut self, name: &str, unit: &str) {
        self.set_noted(name, unit, None, 0, "n/a");
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).and_then(|(_, v)| v.value)
    }

    /// Record one failure.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Print the table and the result line; returns whether every output
    /// passed the check.
    pub fn emit(&self, traced: bool) -> bool {
        let correct = self.failed == 0 && self.attempted > 0;
        for problem in &self.problems {
            println!("# FAIL {problem}");
        }
        println!(
            "# {:<32} {:>16} {:<8} {:>8}  note",
            "metric", "value", "unit", "samples"
        );
        for (name, (unit, v)) in &self.values {
            let shown = v
                .value
                .map(|x| format!("{x:.6}"))
                .unwrap_or_else(|| "n/a".into());
            println!(
                "# {name:<32} {shown:>16} {unit:<8} {:>8}  {}",
                v.samples, v.note
            );
        }
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let metrics = catalogue
            .iter()
            .map(|&(name, unit)| {
                // A metric that does not apply reports the zero it measured
                // (no span, no counter movement); the table above says n/a.
                let value = self.get(name).unwrap_or(0.0);
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(value)),
                        ("unit".into(), Json::from(unit)),
                    ]),
                )
            })
            .collect();
        let line = Json::Obj(vec![
            ("correct".into(), Json::Bool(correct)),
            ("attempted".into(), Json::from(self.attempted)),
            ("failed".into(), Json::from(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ]);
        println!("{line}");
        correct
    }
}
