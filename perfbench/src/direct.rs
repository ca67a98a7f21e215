//! One query driven through the engine's public entry points, each call
//! timed from outside: `SpqEngine::compile`, `SpqEngine::prepare`, then the
//! search (`evaluate_summary_search` or `evaluate_sketch_refine`).

use crate::report::Report;
use crate::stats::{mean, peak_rss_mb};
use spq_core::{Algorithm, EvaluationResult, SpqEngine, SpqOptions};
use spq_mcdb::Relation;
use std::time::{Duration, Instant};

/// The search settings every workload shares (the `fig*` harnesses'
/// `M = 20` start, `m = 20` steps up to 400 scenarios): `validation`
/// out-of-sample scenarios and a per-MILP solver time cap.
pub fn search_options(validation: usize, solver_limit: Duration) -> SpqOptions {
    SpqOptions {
        initial_scenarios: 20,
        scenario_increment: 20,
        max_scenarios: 400,
        validation_scenarios: validation,
        expectation_scenarios: validation.min(1000),
        solver: spq_solver::SolverOptions {
            time_limit: Some(solver_limit),
            ..Default::default()
        },
        ..SpqOptions::default()
    }
}

/// Timings and outcome of one query.
#[derive(Debug)]
pub struct QueryRun {
    /// `SpqEngine::compile` (parse, bind, translate), seconds.
    pub compile_s: f64,
    /// `SpqEngine::prepare` (`Instance::new`), seconds.
    pub prepare_s: f64,
    /// The search call, seconds.
    pub search_s: f64,
    /// Whole query, including dropping the instance, seconds.
    pub wall_s: f64,
    /// Rise of the process's peak RSS across `prepare`, MB.
    pub prepare_rss_mb: f64,
    /// The engine's answer, or its error.
    pub result: Result<EvaluationResult, String>,
}

impl QueryRun {
    /// Share of the query's wall time the three timed calls cover.
    pub fn cover_frac(&self) -> f64 {
        (self.compile_s + self.prepare_s + self.search_s) / self.wall_s.max(1e-12)
    }
}

/// Run `query` on `relation` with `algorithm` (SummarySearch or
/// SketchRefine), inside a benchmark `query` span.
pub fn run_query(
    engine: &SpqEngine,
    relation: &Relation,
    query: &str,
    algorithm: Algorithm,
) -> QueryRun {
    let _query = spq_obs::span("query");
    let started = Instant::now();
    let mut run = QueryRun {
        compile_s: 0.0,
        prepare_s: 0.0,
        search_s: 0.0,
        wall_s: 0.0,
        prepare_rss_mb: 0.0,
        result: Err(String::new()),
    };
    let silp = {
        let _span = spq_obs::span("bench.compile");
        engine.compile(relation, query)
    };
    run.compile_s = started.elapsed().as_secs_f64();
    run.result = match silp {
        Err(e) => Err(format!("compile: {e}")),
        Ok(silp) => {
            let rss_before = peak_rss_mb();
            let t = Instant::now();
            let instance = {
                let _span = spq_obs::span("bench.prepare");
                engine.prepare(relation, silp)
            };
            run.prepare_s = t.elapsed().as_secs_f64();
            run.prepare_rss_mb = peak_rss_mb() - rss_before;
            match instance {
                Err(e) => Err(format!("prepare: {e}")),
                Ok(instance) => {
                    let t = Instant::now();
                    let result = {
                        let _span = spq_obs::span("bench.search");
                        match algorithm {
                            Algorithm::SketchRefine => {
                                spq_sketch::evaluate_sketch_refine(&instance)
                            }
                            _ => spq_core::summary_search::evaluate_summary_search(&instance),
                        }
                    };
                    run.search_s = t.elapsed().as_secs_f64();
                    drop(instance);
                    result.map_err(|e| format!("search: {e}"))
                }
            }
        }
    };
    run.wall_s = started.elapsed().as_secs_f64();
    run
}

/// Per-call means of queries timed from outside (the untraced pass of a
/// traced run), and how much of each query's wall time the calls cover.
pub fn fill_outside_timings(report: &mut Report, runs: &[&QueryRun]) {
    let n = runs.len();
    let avg = |f: fn(&QueryRun) -> f64| {
        mean(&runs.iter().map(|r| f(r)).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    report.set("core.compile_ms", "ms", avg(|r| r.compile_s) * 1e3, n);
    report.set("core.instance_s", "s", avg(|r| r.prepare_s), n);
    report.set(
        "core.instance_rss_mb",
        "MB",
        runs.iter().map(|r| r.prepare_rss_mb).fold(0.0, f64::max),
        n,
    );
    report.set("core.search_s", "s", avg(|r| r.search_s), n);
    let covers: Vec<f64> = runs.iter().map(|r| r.cover_frac()).collect();
    report.set_noted(
        "bench.cover_frac",
        "ratio",
        covers.iter().copied().reduce(f64::min),
        n,
        "min over queries of (compile + prepare + search) / query wall",
    );
}
