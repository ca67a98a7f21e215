//! Per-layer metrics shared by the workloads: span self times from the
//! traced run, `EvaluationStats` sums, and `spq_obs` counter deltas.
//!
//! Times and counts are per executed query (means over the queries the
//! traced pass ran); hit rates are over the whole pass.

use crate::report::Report;
use crate::trace::SpanProfile;
use spq_core::EvaluationStats;
use std::collections::BTreeMap;

/// The `spq_obs` counters the benchmark reads.
const COUNTERS: &[&str] = &[
    "spq_solver_refactorizations",
    "spq_sketch_blocks_refined",
    "spq_sketch_blocks_routed",
    "spq_relation_chunk_hits",
    "spq_relation_chunk_misses",
    "spq_relation_chunk_evictions",
    "spq_scenario_cache_hits",
    "spq_scenario_cache_misses",
    "spq_scenario_store_reads",
    "spq_scenario_store_spill_writes",
    "spq_net_lines_total",
    "spq_service_rejects_total",
];

/// A snapshot of [`COUNTERS`].
#[derive(Debug, Clone, Default)]
pub struct Counters(BTreeMap<&'static str, u64>);

impl Counters {
    /// Read every counter now (untouched counters read 0).
    pub fn snapshot() -> Counters {
        Counters(
            COUNTERS
                .iter()
                .map(|&name| (name, spq_obs::metrics::counter_value(name).unwrap_or(0)))
                .collect(),
        )
    }

    /// `later - self` for `name`.
    pub fn delta(&self, later: &Counters, name: &str) -> f64 {
        let get = |c: &Counters| c.0.get(name).copied().unwrap_or(0);
        get(later).saturating_sub(get(self)) as f64
    }
}

fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

/// Fill the span-derived, stats-derived and counter-derived layer metrics.
///
/// `queries` is the number of queries the traced pass executed; `solve`
/// names the span(s) whose uncovered share is `obs.unattributed_frac`.
pub fn fill(
    report: &mut Report,
    profile: &SpanProfile,
    stats: &[EvaluationStats],
    before: &Counters,
    after: &Counters,
    queries: usize,
    solve_scope: &[&str],
) {
    let q = queries.max(1) as f64;
    let n = queries;
    let span_ms = |name: &str| profile.get(name).total_s * 1e3 / q;
    let self_s = |name: &str| profile.get(name).self_s / q;
    let total_s = |name: &str| profile.get(name).total_s / q;

    // spq-spaql + translate: the program's own spans under compile.
    report.set("core.parse_ms", "ms", span_ms("parse"), n);
    report.set("core.bind_ms", "ms", span_ms("bind"), n);
    report.set("core.translate_ms", "ms", span_ms("translate"), n);

    // spq-core search.
    let sum = |f: fn(&EvaluationStats) -> usize| stats.iter().map(f).sum::<usize>() as f64 / q;
    report.set(
        "core.csa_iterations",
        "count",
        sum(|s| s.outer_iterations),
        n,
    );
    report.set("core.scenarios_used", "count", sum(|s| s.scenarios_used), n);
    report.set("core.summaries_used", "count", sum(|s| s.summaries_used), n);
    report.set("core.validations", "count", sum(|s| s.validations), n);
    report.set(
        "core.validation_scenarios",
        "count",
        sum(|s| s.validation_scenarios),
        n,
    );
    report.set("core.validate_s", "s", self_s("validate"), n);
    report.set("core.scenarios_s", "s", self_s("scenarios"), n);

    // spq-solver.
    let milp_s = self_s("milp") + self_s("csa_solve");
    let pivots = sum(|s| s.lp_pivots);
    report.set("solver.milp_s", "s", milp_s, n);
    report.set("solver.lp_pivots", "count", pivots, n);
    report.set("solver.nodes", "count", sum(|s| s.solver_nodes), n);
    report.set("solver.problems", "count", sum(|s| s.problems_solved), n);
    report.set(
        "solver.refactorizations",
        "count",
        before.delta(after, "spq_solver_refactorizations") / q,
        n,
    );
    report.set_noted(
        "solver.pivots_per_s",
        "1/s",
        ratio(pivots, milp_s),
        n,
        "per s of milp self time",
    );

    // spq-sketch: phase durations (children included), block routing.
    let refined = before.delta(after, "spq_sketch_blocks_refined");
    let routed = before.delta(after, "spq_sketch_blocks_routed");
    if profile.get("partition").count > 0 {
        report.set("sketch.partition_s", "s", total_s("partition"), n);
        report.set("sketch.sketch_s", "s", total_s("sketch"), n);
        report.set("sketch.refine_s", "s", total_s("refine"), n);
        report.set("sketch.blocks_refined", "count", refined / q, n);
        report.set("sketch.blocks_routed", "count", routed / q, n);
        report.set_noted(
            "sketch.routed_frac",
            "ratio",
            ratio(routed, routed + refined),
            n,
            "",
        );
    } else {
        for (name, unit) in [
            ("sketch.partition_s", "s"),
            ("sketch.sketch_s", "s"),
            ("sketch.refine_s", "s"),
            ("sketch.blocks_refined", "count"),
            ("sketch.blocks_routed", "count"),
            ("sketch.routed_frac", "ratio"),
        ] {
            report.not_applicable(name, unit);
        }
    }

    // spq-mcdb: chunk cache (disk tier) and scenario cache / store.
    let hits = before.delta(after, "spq_relation_chunk_hits");
    let misses = before.delta(after, "spq_relation_chunk_misses");
    if hits + misses > 0.0 {
        report.set("mcdb.chunk_misses", "count", misses / q, n);
        report.set("mcdb.chunk_hits", "count", hits / q, n);
        report.set(
            "mcdb.chunk_evictions",
            "count",
            before.delta(after, "spq_relation_chunk_evictions") / q,
            n,
        );
        report.set_noted(
            "mcdb.chunk_hit_rate",
            "ratio",
            ratio(hits, hits + misses),
            n,
            "",
        );
    } else {
        for (name, unit) in [
            ("mcdb.chunk_misses", "count"),
            ("mcdb.chunk_hits", "count"),
            ("mcdb.chunk_evictions", "count"),
            ("mcdb.chunk_hit_rate", "ratio"),
            ("mcdb.chunk_bytes_paged", "bytes"),
        ] {
            report.not_applicable(name, unit);
        }
    }
    let cache_hits = before.delta(after, "spq_scenario_cache_hits");
    let cache_misses = before.delta(after, "spq_scenario_cache_misses");
    match ratio(cache_hits, cache_hits + cache_misses) {
        Some(rate) => report.set(
            "mcdb.scenario_cache_hit_rate",
            "ratio",
            rate,
            (cache_hits + cache_misses) as usize,
        ),
        None => report.not_applicable("mcdb.scenario_cache_hit_rate", "ratio"),
    }
    report.set(
        "mcdb.store_reads",
        "count",
        before.delta(after, "spq_scenario_store_reads") / q,
        n,
    );
    report.set(
        "mcdb.store_spill_writes",
        "count",
        before.delta(after, "spq_scenario_store_spill_writes") / q,
        n,
    );

    // spq-obs: the share of the solve scope no program span covers.
    let scope_total: f64 = solve_scope.iter().map(|s| profile.get(s).total_s).sum();
    let scope_self: f64 = solve_scope.iter().map(|s| profile.get(s).self_s).sum();
    report.set_noted(
        "obs.unattributed_frac",
        "ratio",
        ratio(scope_self, scope_total),
        n,
        &format!("self / total of {}", solve_scope.join(" + ")),
    );

    // Every span's self time, for the table only.
    for (name, totals) in &profile.by_name {
        report.set(
            &format!("self_s.{name}"),
            "s",
            totals.self_s,
            totals.count as usize,
        );
    }
}

/// Mark the service-only metrics as not applicable.
pub fn no_service(report: &mut Report) {
    for &(name, unit) in crate::report::PER_LAYER {
        if name.starts_with("svc.") || name.starts_with("net.") || name.starts_with("gen.") {
            report.not_applicable(name, unit);
        }
    }
}
