//! `sketch_1m_disk`: Portfolio Q1 on a million tuples built on the disk
//! tier, solved with SketchRefine, one cold query per process, with the
//! resident relation bytes capped below the relation's deterministic
//! columns so the chunk cache must evict.

use crate::check::{check_package, CheckConfig};
use crate::direct::{fill_outside_timings, run_query, search_options, QueryRun};
use crate::layers::{self, Counters};
use crate::report::Report;
use crate::stats::{mean, median, peak_rss_mb, tail};
use crate::trace::SpanProfile;
use crate::{Args, RunDir};
use spq_core::{Algorithm, SpqEngine, SpqOptions};
use spq_mcdb::{Relation, StorageOptions};
use spq_workloads::{portfolio, PortfolioConfig};
use std::path::Path;
use std::time::{Duration, Instant};

/// Workload parameters (documented in the benchmark's README).
pub struct Config {
    /// Portfolio stocks; the 2-day variant has two tuples per stock.
    pub stocks: usize,
    /// `max_relation_bytes` and the chunk-cache budget.
    pub max_relation_bytes: u64,
    /// Out-of-sample validation scenarios of the engine.
    pub validation: usize,
    /// Per-query time budget (far above the query's time).
    pub budget: Duration,
    /// Times the relation build is repeated for `setup_s` before each
    /// untraced cold query (the first build, which the queries read, counts
    /// too).
    pub setup_reps: usize,
    /// Nominal seconds of one cold query; `--seconds` buys this many.
    pub query_s: f64,
}

impl Config {
    /// Cold queries a run of `seconds` makes (fixed by the arguments, never
    /// by how fast the program runs).
    pub fn queries(&self, seconds: f64) -> usize {
        ((seconds / self.query_s).ceil() as usize).max(1)
    }

    /// The benchmark's configuration: 1,000,000 tuples, 8 MiB cap.
    pub const FULL: Config = Config {
        stocks: 500_000,
        max_relation_bytes: 8 << 20,
        validation: 2_000,
        budget: Duration::from_secs(120),
        setup_reps: 3,
        query_s: 12.0,
    };
    /// Self-test sizes: still larger than the chunk cache.
    pub const TINY: Config = Config {
        stocks: 20_000,
        max_relation_bytes: 256 << 10,
        validation: 500,
        budget: Duration::from_secs(60),
        setup_reps: 1,
        query_s: 1e9,
    };
}

/// Objective scale of `objective_norm`: the objective SketchRefine reaches
/// on this (deterministic) query on the commit that defined the benchmark.
pub const OBJECTIVE_SCALE: f64 = 5.988;

const QUERY: usize = 1;

/// Seed of the relation: fixed, like paper_mix's datasets.
const DATA_SEED: u64 = crate::paper_mix::DATA_SEED;

/// Optimization seed of the query.
const OPT_SEED: u64 = 2021;

fn build(config: &Config, dir: &Path) -> Relation {
    let storage = StorageOptions::disk(dir).cache_bytes(config.max_relation_bytes);
    let relation_config = PortfolioConfig::for_query(QUERY, config.stocks, DATA_SEED);
    portfolio::build_relation_with(&relation_config, storage).expect("disk-tier portfolio build")
}

fn options(config: &Config, seed: u64) -> SpqOptions {
    SpqOptions {
        seed,
        time_limit: Some(config.budget),
        max_relation_bytes: Some(config.max_relation_bytes),
        ..search_options(config.validation, Duration::from_secs(30))
    }
}

/// Mean size of the relation's chunk files, bytes.
fn mean_chunk_bytes(dir: &Path) -> f64 {
    let sizes: Vec<u64> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .collect()
        })
        .unwrap_or_default();
    if sizes.is_empty() {
        0.0
    } else {
        sizes.iter().sum::<u64>() as f64 / sizes.len() as f64
    }
}

/// Run the workload.
pub fn run(args: &Args, dir: &RunDir, report: &mut Report) {
    let config = if args.tiny {
        &Config::TINY
    } else {
        &Config::FULL
    };
    let query = portfolio::query(QUERY);
    let queries = config.queries(args.seconds);

    let relation_dir = dir.path("relation");
    let t = Instant::now();
    let relation = build(config, &relation_dir);
    let mut setups = vec![t.elapsed().as_secs_f64()];
    // More builds are timed in bursts, one before each untraced cold query:
    // the machine's speed changes from one second to the next, so a single
    // burst would measure only the second it ran in. Each timed build is
    // identical to `relation` and is dropped and deleted untimed.
    let mut time_setup = |query: usize| {
        for rep in 0..config.setup_reps {
            let path = dir.path(&format!("setup-{query}-{rep}"));
            let t = Instant::now();
            let built = build(config, &path);
            setups.push(t.elapsed().as_secs_f64());
            drop(built);
            let _ = std::fs::remove_dir_all(&path);
        }
    };
    println!(
        "# relation: {} tuples, {} bytes on disk, cap {} bytes",
        relation.len(),
        relation.disk_bytes(),
        config.max_relation_bytes
    );

    // The same cold query `queries` times, chunk cache emptied before each.
    // The work is identical in every run: the optimization scenarios and
    // the data each swing SketchRefine's time by up to 4x at this size, so
    // both are fixed and the workload seed only seeds the output check.
    let engine = SpqEngine::new(options(config, OPT_SEED));
    let pass = |before_query: &mut dyn FnMut(usize)| -> (Vec<QueryRun>, f64) {
        let mut runs = Vec::with_capacity(queries);
        let mut loop_s = 0.0;
        for i in 0..queries {
            before_query(i);
            let started = Instant::now();
            relation.invalidate_chunk_cache();
            let run = run_query(&engine, &relation, &query, Algorithm::SketchRefine);
            eprintln!("# cold query {i}: {:.3} s", run.wall_s);
            runs.push(run);
            loop_s += started.elapsed().as_secs_f64();
        }
        (runs, loop_s)
    };

    let (untraced, loop_s) = pass(&mut time_setup);
    report.set("setup_s", "s", median(&setups).unwrap_or(0.0), setups.len());
    let (runs, loop_s) = if args.trace {
        fill_outside_timings(report, &untraced.iter().collect::<Vec<_>>());
        spq_obs::trace::enable(dir.path("trace.json"));
        let before = Counters::snapshot();
        let (traced, traced_loop_s) = pass(&mut |_| {});
        let after = Counters::snapshot();
        let profile = SpanProfile::export(&dir.path("trace.json")).unwrap_or_else(|e| {
            report.fail(e);
            SpanProfile::default()
        });
        let stats: Vec<_> = traced
            .iter()
            .filter_map(|r| r.result.as_ref().ok().map(|r| r.stats.clone()))
            .collect();
        let n = traced.len();
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
        let misses = before.delta(&after, "spq_relation_chunk_misses");
        report.set_noted(
            "mcdb.chunk_bytes_paged",
            "bytes",
            Some(misses * mean_chunk_bytes(&relation_dir) / n as f64),
            n,
            "misses x mean chunk file size",
        );
        let walls = |runs: &[QueryRun]| median(&runs.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        if let (Some(a), Some(b)) = (walls(&untraced), walls(&traced)) {
            report.set_noted(
                "obs.trace_overhead_frac",
                "ratio",
                Some(b / a - 1.0),
                n,
                "traced / untraced query_s_p50 - 1",
            );
        }
        (traced, traced_loop_s)
    } else {
        (untraced, loop_s)
    };

    let check = CheckConfig::new(config.validation, args.seed);
    let budget_s = config.budget.as_secs_f64();
    let mut feasible = 0usize;
    let mut budget_hits = 0usize;
    let mut objectives = Vec::new();
    for (i, run) in runs.iter().enumerate() {
        report.attempted += 1;
        budget_hits += usize::from(run.prepare_s + run.search_s >= budget_s - 0.05);
        let label = format!("Portfolio Q1 (1M, disk) query {i}");
        match &run.result {
            Err(e) => report.fail(format!("{label}: error {e}")),
            Ok(result) if result.feasible => {
                let package = result
                    .package
                    .as_ref()
                    .map(|p| p.multiplicities.clone())
                    .unwrap_or_default();
                match check_package(&relation, &query, &package, &check) {
                    Ok(()) => {
                        feasible += 1;
                        if let Some(obj) = result.objective() {
                            println!("# objective {label}: {obj}");
                            objectives.push(obj / OBJECTIVE_SCALE);
                        }
                    }
                    Err(e) => report.fail(format!("{label}: check failed: {e}")),
                }
            }
            Ok(_) => {}
        }
    }
    let n = runs.len();
    let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    report.set("query_s_p50", "s", median(&walls).unwrap_or(0.0), n);
    if let Some((p, v)) = tail(&walls) {
        report.set_noted("query_s_tail", "s", Some(v), n, &format!("p{p}"));
    }
    report.set("queries_per_s", "1/s", n as f64 / loop_s, n);
    report.set("budget_hit_frac", "ratio", budget_hits as f64 / n as f64, n);
    report.set("feasible_frac", "ratio", feasible as f64 / n as f64, n);
    report.set_noted(
        "objective_norm",
        "ratio",
        mean(&objectives),
        objectives.len(),
        "",
    );
    report.set("peak_rss_mb", "MB", peak_rss_mb(), 1);
}
