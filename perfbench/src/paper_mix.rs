//! `paper_mix`: SummarySearch on all 24 Table-3 queries, each on its own
//! dataset variant, in rounds that give every query a new optimization
//! seed. One caller, closed loop, memory tier, a fixed per-query budget.

use crate::check::{check_package, CheckConfig};
use crate::direct::{fill_outside_timings, run_query, search_options, QueryRun};
use crate::layers::{self, Counters};
use crate::report::Report;
use crate::stats::{mean, median, peak_rss_mb, tail};
use crate::trace::SpanProfile;
use crate::{Args, RunDir};
use spq_core::{Algorithm, SpqEngine, SpqOptions};
use spq_mcdb::Relation;
use spq_workloads::{galaxy, portfolio, spec, tpch, QuerySpec, WorkloadKind};
use spq_workloads::{GalaxyConfig, PortfolioConfig, TpchConfig};
use std::time::{Duration, Instant};

/// Workload parameters (documented in the benchmark's README).
pub struct Config {
    /// Tuples per dataset variant (approximate for Portfolio).
    pub tuples: usize,
    /// Nominal seconds of one round (every query once, one new
    /// optimization seed each); `--seconds` buys this many rounds.
    pub round_s: f64,
    /// Fewest rounds a run makes.
    pub min_rounds: usize,
    /// Per-query time budget.
    pub budget: Duration,
    /// Out-of-sample validation scenarios of the engine.
    pub validation: usize,
    /// Times the dataset build is repeated for `setup_s` before each sweep
    /// of the schedule.
    pub setup_reps: usize,
    /// Executions of each short scheduled query in an untraced run (same
    /// seed, same answer), spread over the run; its time is their median.
    pub reps: usize,
    /// Executions of each long query in an untraced run (see [`LONG`]).
    pub long_reps: usize,
}

impl Config {
    /// Rounds a run of `seconds` makes: fixed by the arguments, never by
    /// how fast the program runs, so every run does the same work.
    pub fn rounds(&self, seconds: f64) -> usize {
        ((seconds / self.round_s).ceil() as usize).max(self.min_rounds)
    }

    /// The benchmark's configuration.
    pub const FULL: Config = Config {
        tuples: 1_000,
        round_s: 10.0,
        min_rounds: 2,
        budget: Duration::from_secs(5),
        validation: 2_000,
        setup_reps: 6,
        reps: 9,
        long_reps: 3,
    };
    /// Self-test sizes.
    pub const TINY: Config = Config {
        tuples: 60,
        round_s: 1e9,
        min_rounds: 1,
        budget: Duration::from_secs(5),
        validation: 500,
        setup_reps: 1,
        reps: 3,
        long_reps: 2,
    };
}

/// Per-query objective scales for `objective_norm`: the mean objective
/// SummarySearch reached on each query over the first three rounds
/// (`--seconds 30`) on the commit that defined the benchmark, to four
/// digits. Order: Galaxy, Portfolio, TPC-H, Q1..Q8 each. A scale of
/// 0 (empty package, probability 0, or the infeasible TPC-H Q8) leaves the
/// query out of `objective_norm`.
pub const OBJECTIVE_SCALES: [f64; 24] = [
    50.98, 43.16, 20.18, 20.18, 85.12, 66.23, 49.62, 26.58, // Galaxy
    5.458, 5.430, 0.5102, 0.5102, 0.0, 0.0, 0.9031, 0.0, // Portfolio
    0.7748, 0.0, 0.4383, 0.09367, 1.0, 0.0, 1.0, 0.0, // TPC-H
];

/// Seed of the dataset variants: fixed, as in the paper's experiments.
pub const DATA_SEED: u64 = 2020;

/// Optimization seed of the first round.
const OPT_SEED_BASE: u64 = 2021;

const KINDS: [WorkloadKind; 3] = [
    WorkloadKind::Galaxy,
    WorkloadKind::Portfolio,
    WorkloadKind::Tpch,
];

/// One dataset variant with its query.
struct Variant {
    spec: QuerySpec,
    relation: Relation,
    query: String,
    scale: f64,
}

/// Portfolio stocks giving about `tuples` tuples for query `q`'s variant.
pub fn portfolio_stocks(q: usize, tuples: usize) -> usize {
    let per_stock = match q {
        1 | 2 => 2.0,
        3..=6 => 0.6,
        _ => 1.5,
    };
    ((tuples as f64 / per_stock).round() as usize).max(4)
}

fn build_variants(config: &Config, seed: u64) -> Vec<Variant> {
    let mut variants = Vec::with_capacity(24);
    for (k, kind) in KINDS.into_iter().enumerate() {
        for q in 1..=8 {
            let (relation, query) = match kind {
                WorkloadKind::Galaxy => (
                    galaxy::build_relation(&GalaxyConfig::for_query(q, config.tuples, seed)),
                    galaxy::query(q),
                ),
                WorkloadKind::Portfolio => (
                    portfolio::build_relation(&PortfolioConfig::for_query(
                        q,
                        portfolio_stocks(q, config.tuples),
                        seed,
                    )),
                    portfolio::query(q),
                ),
                WorkloadKind::Tpch => (
                    tpch::build_relation(&TpchConfig::for_query(q, config.tuples, seed)),
                    tpch::query(q),
                ),
            };
            variants.push(Variant {
                spec: spec::query_spec(kind, q),
                relation,
                query,
                scale: OBJECTIVE_SCALES[8 * k + q - 1],
            });
        }
    }
    variants
}

fn options(config: &Config, kind: WorkloadKind, seed: u64) -> SpqOptions {
    SpqOptions {
        seed,
        // The paper fixes Z per workload: 1 for Galaxy and Portfolio, 2 for
        // TPC-H (Section 6.2.1).
        initial_summaries: if kind == WorkloadKind::Tpch { 2 } else { 1 },
        time_limit: Some(config.budget),
        ..search_options(config.validation, config.budget)
    }
}

/// The objective normalized so that higher is better and the reference is
/// 1: `objective / scale` when maximizing, `scale / objective` when
/// minimizing.
pub fn normalized_objective(objective: f64, scale: f64, maximize: bool) -> f64 {
    if maximize {
        objective / scale
    } else {
        scale / objective
    }
}

/// One query of the schedule: every execution of it, first one first.
struct Outcome {
    variant: usize,
    runs: Vec<QueryRun>,
}

impl Outcome {
    /// The first execution: the one the output check sees.
    fn first(&self) -> &QueryRun {
        &self.runs[0]
    }

    /// The query's time: the median wall time of its executions.
    fn wall_s(&self) -> f64 {
        median(&self.runs.iter().map(|r| r.wall_s).collect::<Vec<_>>()).unwrap_or(0.0)
    }
}

/// Whether a query's compile-to-answer time reached `budget` (within the
/// 50 ms the engine needs to notice it).
fn at_budget(run: &QueryRun, budget: Duration) -> bool {
    run.prepare_s + run.search_s >= budget.as_secs_f64() - 0.05
}

/// Feasibility and package multiplicities of an answer.
type Answer = (bool, Option<Vec<(usize, u32)>>);

/// The answer of an execution (none on error), for comparing executions.
fn answer(run: &QueryRun) -> Option<Answer> {
    run.result.as_ref().ok().map(|r| {
        (
            r.feasible,
            r.package.as_ref().map(|p| p.multiplicities.clone()),
        )
    })
}

/// Optimization seed of round `round`. The same in every run: the
/// optimization scenarios drive SummarySearch's run time far more than
/// anything else.
fn optimization_seed(round: usize) -> u64 {
    OPT_SEED_BASE + 1000 * round as u64
}

/// The run's queries as `(round, variant)` pairs.
fn schedule(variants: usize, rounds: usize) -> Vec<(usize, usize)> {
    (0..rounds)
        .flat_map(|r| (0..variants).map(move |v| (r, v)))
        .collect()
}

/// Queries that run to (TPC-H Q3) or near (TPC-H Q1, 2.5–5 s) their
/// budget: their time is the budget's more than the program's, so an
/// untraced run executes them once.
const BUDGET_BOUND: [(WorkloadKind, usize); 2] = [(WorkloadKind::Tpch, 1), (WorkloadKind::Tpch, 3)];

/// Queries that take 0.15–2 s (the others take under 0.15 s): an untraced
/// run executes them `Config::long_reps` times.
const LONG: [(WorkloadKind, usize); 5] = [
    (WorkloadKind::Galaxy, 2),
    (WorkloadKind::Galaxy, 6),
    (WorkloadKind::Tpch, 2),
    (WorkloadKind::Tpch, 5),
    (WorkloadKind::Tpch, 8),
];

/// Executions of query `number` of `kind` in one pass: one unless
/// `repeat`. Fixed by the query, never by what it returned or how long it
/// took.
fn executions(config: &Config, kind: WorkloadKind, number: usize, repeat: bool) -> usize {
    if !repeat || BUDGET_BOUND.contains(&(kind, number)) {
        1
    } else if LONG.contains(&(kind, number)) {
        config.long_reps
    } else {
        config.reps
    }
}

/// Run the schedule in sweeps, each query's executions spread evenly over
/// them (a query executed `e` of `S` times runs in sweeps `j·S/e`). So a
/// query's median time spans the whole run instead of one short stretch of
/// it: the machine's speed drifts over seconds, and back-to-back
/// executions would all share one stretch. `before_sweep` runs before each
/// sweep, outside the returned loop time.
fn run_pass(
    config: &Config,
    variants: &[Variant],
    order: &[(usize, usize)],
    repeat: bool,
    before_sweep: &mut dyn FnMut(),
) -> (Vec<Outcome>, f64) {
    let counts: Vec<usize> = order
        .iter()
        .map(|&(_, i)| {
            let spec = &variants[i].spec;
            executions(config, spec.workload, spec.number, repeat).max(1)
        })
        .collect();
    let sweeps = counts.iter().copied().max().unwrap_or(1);
    let started = Instant::now();
    let mut outcomes: Vec<Outcome> = order
        .iter()
        .zip(&counts)
        .map(|(&(_, i), &e)| Outcome {
            variant: i,
            runs: Vec::with_capacity(e),
        })
        .collect();
    let mut outside_s = 0.0;
    for sweep in 0..sweeps {
        let t = Instant::now();
        before_sweep();
        outside_s += t.elapsed().as_secs_f64();
        for ((&(round, i), outcome), &e) in order.iter().zip(&mut outcomes).zip(&counts) {
            if !(0..e).any(|j| j * sweeps / e == sweep) {
                continue;
            }
            let v = &variants[i];
            let rep = outcome.runs.len();
            let engine = SpqEngine::new(options(config, v.spec.workload, optimization_seed(round)));
            let run = run_query(&engine, &v.relation, &v.query, Algorithm::SummarySearch);
            eprintln!(
                "# {} Q{} round {round} rep {rep}: {:.4} s ({})",
                v.spec.workload,
                v.spec.number,
                run.wall_s,
                match &run.result {
                    Ok(r) => format!("feasible={} objective={:?}", r.feasible, r.objective()),
                    Err(e) => e.clone(),
                }
            );
            outcome.runs.push(run);
        }
    }
    (outcomes, started.elapsed().as_secs_f64() - outside_s)
}

/// Check every outcome and fill the end-to-end metrics.
fn score(
    config: &Config,
    variants: &[Variant],
    outcomes: &[Outcome],
    loop_s: f64,
    seed: u64,
    report: &mut Report,
) {
    let check = CheckConfig::new(config.validation, seed);
    let budget_s = config.budget.as_secs_f64();
    let executed: usize = outcomes.iter().map(|o| o.runs.len()).sum();
    let mut walls = Vec::new();
    let mut expected_feasible = 0usize;
    let mut feasible_ok = 0usize;
    let mut budget_hits = 0usize;
    let mut objectives = Vec::new();
    for o in outcomes {
        let v = &variants[o.variant];
        let label = format!("{} Q{}", v.spec.workload, v.spec.number);
        report.attempted += 1;
        walls.push(o.wall_s());
        let hit = at_budget(o.first(), config.budget);
        budget_hits += usize::from(hit);
        expected_feasible += usize::from(v.spec.feasible);
        // Same seed, same data: every execution must give the same answer,
        // unless one was cut short by the budget.
        let cut = o.runs.iter().any(|r| at_budget(r, config.budget));
        if !cut && o.runs.iter().any(|r| answer(r) != answer(o.first())) {
            report.fail(format!("{label}: executions with one seed disagree"));
            continue;
        }
        let result = match &o.first().result {
            Ok(r) => r,
            Err(e) => {
                report.fail(format!("{label}: error {e}"));
                continue;
            }
        };
        if !result.feasible {
            if v.spec.feasible && hit {
                report.fail(format!("{label}: timed out at the {budget_s} s budget"));
            }
            continue;
        }
        if !v.spec.feasible {
            report.fail(format!(
                "{label}: reported feasible, Table 3 says infeasible"
            ));
            continue;
        }
        let package = result.package.as_ref().map(|p| p.multiplicities.clone());
        match check_package(&v.relation, &v.query, &package.unwrap_or_default(), &check) {
            Ok(()) => {
                feasible_ok += 1;
                if let Some(obj) = result.objective() {
                    println!("# objective {label}: {obj}");
                    // Queries whose reference objective is 0 (the empty
                    // package, or a probability of 0) carry no scale.
                    if v.scale != 0.0 {
                        objectives.push(normalized_objective(obj, v.scale, v.spec.maximize));
                    }
                }
            }
            Err(e) => report.fail(format!("{label}: check failed: {e}")),
        }
    }
    let n = walls.len();
    report.set("query_s_p50", "s", median(&walls).unwrap_or(0.0), n);
    if let Some((p, v)) = tail(&walls) {
        report.set_noted("query_s_tail", "s", Some(v), n, &format!("p{p}"));
    }
    report.set("queries_per_s", "1/s", executed as f64 / loop_s, executed);
    report.set(
        "feasible_frac",
        "ratio",
        feasible_ok as f64 / expected_feasible.max(1) as f64,
        expected_feasible,
    );
    report.set_noted(
        "objective_norm",
        "ratio",
        mean(&objectives),
        objectives.len(),
        "",
    );
    report.set(
        "budget_hit_frac",
        "ratio",
        budget_hits as f64 / n.max(1) as f64,
        n,
    );
}

/// Run the workload.
pub fn run(args: &Args, dir: &RunDir, report: &mut Report) {
    let config = if args.tiny {
        &Config::TINY
    } else {
        &Config::FULL
    };
    let order = schedule(24, config.rounds(args.seconds));

    // Set-up is timed in bursts, one before each sweep of the first pass:
    // the machine's speed changes from one second to the next, so a single
    // burst would measure only the second it ran in. Each timed build is
    // identical to `variants` and dropped untimed.
    let variants = build_variants(config, DATA_SEED);
    let mut setups = Vec::new();
    let mut time_setup = || {
        for _ in 0..config.setup_reps.max(1) {
            let t = Instant::now();
            let built = build_variants(config, DATA_SEED);
            setups.push(t.elapsed().as_secs_f64());
            drop(built);
        }
    };
    // A traced run executes every query once in each of its two passes.
    let (outcomes, loop_s) = run_pass(config, &variants, &order, !args.trace, &mut time_setup);
    report.set("setup_s", "s", median(&setups).unwrap_or(0.0), setups.len());
    if args.trace {
        let untraced_p50 = median(&outcomes.iter().map(Outcome::wall_s).collect::<Vec<_>>());
        spq_obs::trace::enable(dir.path("trace.json"));
        let before = Counters::snapshot();
        let (traced, traced_loop_s) = run_pass(config, &variants, &order, false, &mut || {});
        let after = Counters::snapshot();
        let profile = SpanProfile::export(&dir.path("trace.json")).unwrap_or_else(|e| {
            report.fail(e);
            SpanProfile::default()
        });
        let n = traced.iter().map(|o| o.runs.len()).sum();
        let stats: Vec<_> = traced
            .iter()
            .flat_map(|o| &o.runs)
            .filter_map(|r| r.result.as_ref().ok().map(|r| r.stats.clone()))
            .collect();
        layers::fill(
            report,
            &profile,
            &stats,
            &before,
            &after,
            n,
            &["bench.prepare", "bench.search"],
        );
        layers::no_service(report);
        fill_outside_timings(
            report,
            &outcomes.iter().flat_map(|o| &o.runs).collect::<Vec<_>>(),
        );
        let traced_p50 = median(&traced.iter().map(Outcome::wall_s).collect::<Vec<_>>());
        if let (Some(a), Some(b)) = (untraced_p50, traced_p50) {
            report.set_noted(
                "obs.trace_overhead_frac",
                "ratio",
                Some(b / a - 1.0),
                n,
                "traced / untraced query_s_p50 - 1",
            );
        }
        score(config, &variants, &traced, traced_loop_s, args.seed, report);
    } else {
        score(config, &variants, &outcomes, loop_s, args.seed, report);
    }
    report.set("peak_rss_mb", "MB", peak_rss_mb(), 1);
}
