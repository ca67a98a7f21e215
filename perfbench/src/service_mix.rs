//! `service_mix`: an in-process `SpqServer` on loopback, driven open-loop at
//! a fixed offered rate over NDJSON. The mix is fresh SketchRefine queries
//! (new seed), exact repeats of earlier queries (result-cache hits),
//! `validate` ops on returned packages, and disk-tier `load_relation`
//! followed by `unload_relation`. Latency is timed from each request's
//! scheduled send.

use crate::check::{check_package, CheckConfig};
use crate::direct::search_options;
use crate::layers::{self, Counters};
use crate::paper_mix::portfolio_stocks;
use crate::report::Report;
use crate::stats::{median, peak_rss_mb, quantile, tail};
use crate::trace::SpanProfile;
use crate::{Args, RunDir};
use spq_core::{Algorithm, EvaluationStats, SpqOptions};
use spq_mcdb::Relation;
use spq_service::catalog::RelationStorage;
use spq_service::json::{parse, Json};
use spq_service::protocol::{LoadRequest, QueryRequest, Request, ValidateRequest};
use spq_service::{RelationSource, ServerConfig, ServiceConfig, SpqServer, SpqService};
use spq_workloads::{portfolio, PortfolioConfig, WorkloadKind};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload parameters (documented in the benchmark's README).
pub struct Config {
    /// Tuples per Portfolio variant.
    pub tuples: usize,
    /// Offered operations per second (all kinds together).
    pub offered_qps: f64,
    /// Goodput latency limit, milliseconds.
    pub latency_limit_ms: f64,
    /// Out-of-sample validation scenarios of queries and `validate` ops.
    pub validation: usize,
    /// Tuples of each disk-tier `load_relation`.
    pub load_tuples: usize,
    /// Extra server set-ups timed for `setup_s` in each of two bursts:
    /// before the warm-up and after the untraced pass.
    pub setup_reps: usize,
}

impl Config {
    /// The benchmark's configuration.
    pub const FULL: Config = Config {
        tuples: 10_000,
        offered_qps: 4.0,
        latency_limit_ms: 1_000.0,
        validation: 2_000,
        load_tuples: 2_000,
        setup_reps: 12,
    };
    /// Self-test sizes.
    pub const TINY: Config = Config {
        tuples: 400,
        offered_qps: 8.0,
        latency_limit_ms: 1_000.0,
        validation: 500,
        load_tuples: 200,
        setup_reps: 1,
    };
}

/// Operation shares of the schedule: fresh, repeat, validate (the rest is
/// load + unload).
pub const MIX: [f64; 3] = [0.70, 0.15, 0.10];

/// Objective scales of `objective_norm` per Portfolio variant (Q1..Q8): the
/// mean objective of the fresh queries of a 30 s schedule at 6 ops/s on the
/// commit that defined the benchmark, to four digits. A scale
/// of 0 (the empty package is optimal) leaves the variant out.
pub const OBJECTIVE_SCALES: [f64; 8] = [5.429, 4.885, 0.6965, 0.6150, 0.0, 0.0, 1.064, 0.0];

/// Seed of the Portfolio variants (fixed, like paper_mix's datasets).
const DATA_SEED: u64 = crate::paper_mix::DATA_SEED;

/// Seed of the operation schedule and of every query it sends. Fixed: the
/// scenario seed of a fresh query moves its service time by 2x, which
/// would make runs with different workload seeds incomparable. The workload
/// seed seeds the output check.
const SCHEDULE_SEED: u64 = 1;

/// A small deterministic generator (splitmix64) for the schedule.
struct SplitMix(u64);

impl SplitMix {
    /// The next 64 random bits.
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[derive(Debug, Clone)]
enum Op {
    Fresh { variant: usize, seed: u64 },
    Repeat { of: usize },
    Validate { variant: usize },
    Load { name: String },
}

/// One scheduled operation.
struct Planned {
    due: Duration,
    op: Op,
    id: String,
    line: String,
}

/// What came back for one scheduled operation.
#[derive(Debug, Clone, Default)]
struct Outcome {
    sent: Option<Instant>,
    received: Option<Instant>,
    response: Option<Json>,
    unload: Option<Json>,
}

fn variant_name(variant: usize) -> String {
    format!("portfolio_q{}", variant + 1)
}

fn query_line(config: &Config, id: &str, variant: usize, seed: u64) -> String {
    Request::Query(QueryRequest {
        id: id.to_string(),
        relation: variant_name(variant),
        query: portfolio::query(variant + 1),
        algorithm: Some(Algorithm::SketchRefine),
        timeout_ms: None,
        seed: Some(seed),
        initial_scenarios: None,
        max_scenarios: None,
        validation_scenarios: Some(config.validation),
        tenant: None,
    })
    .to_line()
}

fn validate_line(
    config: &Config,
    id: &str,
    variant: usize,
    package: &[(usize, u32)],
    seed: u64,
) -> String {
    Request::Validate(ValidateRequest {
        id: id.to_string(),
        relation: variant_name(variant),
        query: portfolio::query(variant + 1),
        package: package.to_vec(),
        validation_scenarios: Some(config.validation),
        seed: Some(seed),
        timeout_ms: None,
        early_stop: None,
        threads: None,
        tenant: None,
    })
    .to_line()
}

/// Build the open-loop schedule of one pass. `packages` holds a returned
/// package per variant for the `validate` ops.
fn schedule(
    config: &Config,
    seconds: f64,
    seed: u64,
    pass: u64,
    packages: &[Vec<(usize, u32)>],
) -> Vec<Planned> {
    let mut rng = SplitMix(seed ^ (pass << 48) ^ 0x5e41_ce00);
    let slots = (seconds * config.offered_qps).round().max(1.0) as usize;
    let mut plan: Vec<Planned> = Vec::with_capacity(slots);
    let mut fresh: Vec<usize> = Vec::new();
    for slot in 0..slots {
        let due = Duration::from_secs_f64(slot as f64 / config.offered_qps);
        let id = format!("p{pass}-{slot}");
        let op_seed = seed
            .wrapping_mul(1_000_003)
            .wrapping_add(pass * 1_000_000 + slot as u64 + 1);
        let u = rng.unit();
        // A repeat copies a fresh request sent at least three slots earlier.
        let eligible = fresh.iter().filter(|&&f| f + 3 <= slot).count();
        let op = if u < MIX[0] || (u < MIX[0] + MIX[1] && eligible == 0) {
            Op::Fresh {
                variant: rng.below(8),
                seed: op_seed,
            }
        } else if u < MIX[0] + MIX[1] {
            Op::Repeat {
                of: fresh[rng.below(eligible)],
            }
        } else if u < MIX[0] + MIX[1] + MIX[2] {
            Op::Validate {
                variant: rng.below(8),
            }
        } else {
            Op::Load {
                name: format!("load{pass}x{slot}"),
            }
        };
        let line = match &op {
            Op::Fresh { variant, seed } => {
                fresh.push(slot);
                query_line(config, &id, *variant, *seed)
            }
            Op::Repeat { of } => match plan[*of].op {
                Op::Fresh { variant, seed } => query_line(config, &id, variant, seed),
                _ => unreachable!("repeats copy fresh queries"),
            },
            Op::Validate { variant } => {
                validate_line(config, &id, *variant, &packages[*variant], op_seed)
            }
            Op::Load { name } => Request::Load(LoadRequest {
                id: id.clone(),
                name: name.clone(),
                tenant: Some("loader".into()),
                source: RelationSource::Workload {
                    kind: WorkloadKind::Portfolio,
                    scale: config.load_tuples,
                    seed: op_seed,
                },
                storage: RelationStorage::Disk,
            })
            .to_line(),
        };
        plan.push(Planned { due, op, id, line });
    }
    plan
}

/// How long a connection waits for its outstanding answers after its last
/// send before the pass fails.
const DRAIN_LIMIT: Duration = Duration::from_secs(120);

/// Split `buf` into complete lines, keeping a trailing partial line.
fn take_lines(buf: &mut Vec<u8>) -> Vec<String> {
    let mut lines = Vec::new();
    while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
        let line: Vec<u8> = buf.drain(..=pos).collect();
        lines.push(String::from_utf8_lossy(&line[..line.len() - 1]).into_owned());
    }
    lines
}

/// Drive one connection: send its share of the schedule at the due times
/// while reading responses in between. Returns outcomes keyed by slot.
fn drive(
    addr: SocketAddr,
    plan: &[Planned],
    slots: Vec<usize>,
    start: Instant,
) -> Result<HashMap<usize, Outcome>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    let mut outcomes: HashMap<usize, Outcome> = HashMap::new();
    let mut by_id: HashMap<String, usize> = HashMap::new();
    let mut by_unload: HashMap<String, usize> = HashMap::new();
    let mut pending = 0usize;
    let mut buf = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let mut next = 0usize;
    let mut drain_deadline: Option<Instant> = None;
    loop {
        let now = Instant::now();
        if next < slots.len() && now >= start + plan[slots[next]].due {
            let slot = slots[next];
            let p = &plan[slot];
            stream
                .write_all(format!("{}\n", p.line).as_bytes())
                .map_err(|e| format!("send: {e}"))?;
            outcomes.entry(slot).or_default().sent = Some(Instant::now());
            by_id.insert(p.id.clone(), slot);
            pending += 1;
            next += 1;
            continue;
        }
        if next == slots.len() && pending == 0 {
            break;
        }
        let wait = if next < slots.len() {
            (start + plan[slots[next]].due).saturating_duration_since(now)
        } else {
            let deadline = *drain_deadline.get_or_insert(now + DRAIN_LIMIT);
            if now >= deadline {
                return Err(format!("{pending} responses missing after the drain limit"));
            }
            deadline - now
        };
        stream
            .set_read_timeout(Some(wait.max(Duration::from_millis(1))))
            .map_err(|e| format!("timeout: {e}"))?;
        match stream.read(&mut chunk) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(e) => return Err(format!("read: {e}")),
        }
        let received = Instant::now();
        for line in take_lines(&mut buf) {
            let json = parse(&line).map_err(|e| format!("response `{line}`: {e}"))?;
            if json.str_field("op") == Some("unload_ack") {
                let name = json.str_field("name").unwrap_or_default().to_string();
                let slot = by_unload
                    .remove(&name)
                    .ok_or_else(|| format!("unexpected unload_ack `{line}`"))?;
                outcomes.entry(slot).or_default().unload = Some(json);
                pending -= 1;
                continue;
            }
            let id = json.str_field("id").unwrap_or_default().to_string();
            let slot = *by_id
                .get(&id)
                .ok_or_else(|| format!("response for unknown id `{line}`"))?;
            let outcome = outcomes.entry(slot).or_default();
            outcome.received = Some(received);
            pending -= 1;
            if let (Op::Load { name }, Some("ok")) = (&plan[slot].op, json.str_field("status")) {
                let unload = Request::Unload {
                    name: name.clone(),
                    tenant: Some("loader".into()),
                }
                .to_line();
                stream
                    .write_all(format!("{unload}\n").as_bytes())
                    .map_err(|e| format!("send: {e}"))?;
                by_unload.insert(name.to_ascii_lowercase(), slot);
                pending += 1;
            }
            outcome.response = Some(json);
        }
    }
    Ok(outcomes)
}

/// Run one pass of the schedule over `connections` connections.
fn run_pass(addr: SocketAddr, plan: &[Planned], connections: usize) -> Pass {
    let start = Instant::now() + Duration::from_millis(20);
    let results: Vec<Result<HashMap<usize, Outcome>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let slots: Vec<usize> = (c..plan.len()).step_by(connections).collect();
                scope.spawn(move || drive(addr, plan, slots, start))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("generator thread panicked".into()))
            })
            .collect()
    });
    let mut outcomes = vec![Outcome::default(); plan.len()];
    let mut errors = Vec::new();
    for result in results {
        match result {
            Ok(map) => {
                for (slot, o) in map {
                    outcomes[slot] = o;
                }
            }
            Err(e) => errors.push(e),
        }
    }
    Pass {
        start,
        outcomes,
        errors,
    }
}

/// The outcomes of one pass over a schedule.
struct Pass {
    /// When slot 0 was due.
    start: Instant,
    outcomes: Vec<Outcome>,
    /// Transport failures.
    errors: Vec<String>,
}

fn package_of(json: &Json) -> Vec<(usize, u32)> {
    json.get("package")
        .and_then(Json::as_array)
        .map(|items| {
            items
                .iter()
                .filter_map(|pair| {
                    let pair = pair.as_array()?;
                    Some((
                        pair.first()?.as_u64()? as usize,
                        pair.get(1)?.as_u64()? as u32,
                    ))
                })
                .collect()
        })
        .unwrap_or_default()
}

fn num(json: &Json, key: &str) -> f64 {
    json.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// The search counters of a query response's `stats` object.
fn stats_of(stats: &Json) -> EvaluationStats {
    let count = |key: &str| num(stats, key) as usize;
    EvaluationStats {
        scenarios_used: count("scenarios"),
        summaries_used: count("summaries"),
        outer_iterations: count("outer_iterations"),
        problems_solved: count("problems_solved"),
        validations: count("validations"),
        validation_scenarios: count("validation_scenarios"),
        solver_nodes: count("solver_nodes"),
        lp_pivots: count("lp_pivots"),
        max_problem_coefficients: count("max_problem_coefficients"),
        wall_time: Duration::from_secs_f64(num(stats, "wall_time_ms") / 1e3),
    }
}

struct Server {
    service: Arc<SpqService>,
    server: SpqServer,
    relations: Vec<Relation>,
}

fn start_server(config: &Config, scenario_store: PathBuf) -> Server {
    let base_options = SpqOptions {
        time_limit: None,
        ..search_options(config.validation, Duration::from_secs(10))
    };
    let service = Arc::new(SpqService::new(ServiceConfig {
        base_options,
        default_timeout: Some(Duration::from_secs(30)),
        default_algorithm: Algorithm::SketchRefine,
        scenario_store_dir: Some(scenario_store),
        ..ServiceConfig::default()
    }));
    let mut relations = Vec::new();
    for q in 1..=8 {
        let relation = portfolio::build_relation(&PortfolioConfig::for_query(
            q,
            portfolio_stocks(q, config.tuples),
            DATA_SEED,
        ));
        service.register_relation(variant_name(q - 1), relation.clone());
        relations.push(relation);
    }
    let server = SpqServer::start(service.clone(), "127.0.0.1:0", ServerConfig::default())
        .expect("bind a loopback port");
    Server {
        service,
        server,
        relations,
    }
}

/// Check one pass and collect its end-to-end and per-layer numbers.
fn score(
    config: &Config,
    server: &Server,
    plan: &[Planned],
    pass: Pass,
    seconds: f64,
    seed: u64,
    report: &mut Report,
) {
    let Pass {
        start,
        outcomes,
        errors,
    } = pass;
    for e in errors {
        report.fail(e);
    }
    let check = CheckConfig::new(config.validation, seed);
    let mut latency = Vec::new();
    let mut good = 0usize;
    let (mut queue, mut exec, mut overhead, mut lag) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut load_ms, mut validate_ms) = (Vec::new(), Vec::new());
    let (mut query_ops, mut hits, mut scheduled_repeats, mut prepared_hits) = (0, 0, 0, 0);
    let (mut fresh, mut fresh_ok, mut rejects) = (0usize, 0usize, 0usize);
    let mut objectives = Vec::new();
    let mut by_variant: Vec<Vec<f64>> = vec![Vec::new(); 8];
    for (p, o) in plan.iter().zip(&outcomes) {
        report.attempted += 1;
        let (Some(sent), Some(received), Some(json)) = (o.sent, o.received, o.response.as_ref())
        else {
            report.fail(format!("{}: no response", p.id));
            continue;
        };
        let due = start + p.due;
        lag.push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
        let ms = received.saturating_duration_since(due).as_secs_f64() * 1e3;
        latency.push(ms);
        let status = json.str_field("status").unwrap_or("?");
        if status == "rejected" {
            rejects += 1;
        }
        if status != "ok" {
            report.fail(format!(
                "{}: status {status}: {}",
                p.id,
                json.str_field("error").unwrap_or("")
            ));
            continue;
        }
        let mut ok = true;
        match &p.op {
            Op::Fresh { variant, .. } => {
                query_ops += 1;
                fresh += 1;
                let hit = json.str_field("result_cache") == Some("hit");
                hits += usize::from(hit);
                prepared_hits += usize::from(json.str_field("prepared_cache") == Some("hit"));
                if hit {
                    report.fail(format!(
                        "{}: fresh query answered from the result cache",
                        p.id
                    ));
                    ok = false;
                } else if json.get("feasible").and_then(Json::as_bool) == Some(true) {
                    let relation = &server.relations[*variant];
                    match check_package(
                        relation,
                        &portfolio::query(variant + 1),
                        &package_of(json),
                        &check,
                    ) {
                        Ok(()) => {
                            fresh_ok += 1;
                            if let Some(obj) = json.get("objective").and_then(Json::as_f64) {
                                by_variant[*variant].push(obj);
                                if OBJECTIVE_SCALES[*variant] != 0.0 {
                                    objectives.push(obj / OBJECTIVE_SCALES[*variant]);
                                }
                            }
                        }
                        Err(e) => {
                            report.fail(format!("{}: check failed: {e}", p.id));
                            ok = false;
                        }
                    }
                }
                queue.push(num(json, "queue_ms"));
                exec.push(num(json, "wall_ms"));
            }
            Op::Repeat { of } => {
                query_ops += 1;
                scheduled_repeats += 1;
                let hit = json.str_field("result_cache") == Some("hit");
                hits += usize::from(hit);
                prepared_hits += usize::from(json.str_field("prepared_cache") == Some("hit"));
                let first = outcomes[*of].response.as_ref();
                let same = first.is_some_and(|f| {
                    package_of(f) == package_of(json)
                        && f.get("objective").and_then(Json::as_f64).map(f64::to_bits)
                            == json
                                .get("objective")
                                .and_then(Json::as_f64)
                                .map(f64::to_bits)
                        && f.get("feasible") == json.get("feasible")
                });
                if !hit || !same {
                    report.fail(format!(
                        "{}: repeat of {} (cache hit {hit}, identical {same})",
                        p.id, plan[*of].id
                    ));
                    ok = false;
                }
                queue.push(num(json, "queue_ms"));
                exec.push(num(json, "wall_ms"));
            }
            Op::Validate { .. } => {
                validate_ms.push(num(json, "wall_ms"));
                queue.push(num(json, "queue_ms"));
                exec.push(num(json, "wall_ms"));
                for c in json
                    .get("constraints")
                    .and_then(Json::as_array)
                    .unwrap_or(&[])
                {
                    let (pr, frac) = (num(c, "probability"), num(c, "fraction"));
                    let se = (pr * (1.0 - pr) * 2.0 / config.validation as f64).sqrt();
                    if frac < pr - check.std_errors * se {
                        report.fail(format!(
                            "{}: validated fraction {frac} far below {pr}",
                            p.id
                        ));
                        ok = false;
                    }
                }
            }
            Op::Load { .. } => {
                load_ms.push(received.saturating_duration_since(sent).as_secs_f64() * 1e3);
                let unloaded = o.unload.as_ref().and_then(|u| u.str_field("status")) == Some("ok");
                if json.u64_field("tuples").unwrap_or(0) == 0 || !unloaded {
                    report.fail(format!("{}: load/unload did not complete", p.id));
                    ok = false;
                }
            }
        }
        if !matches!(p.op, Op::Load { .. }) {
            overhead.push(
                received.saturating_duration_since(sent).as_secs_f64() * 1e3
                    - num(json, "queue_ms")
                    - num(json, "wall_ms"),
            );
        }
        if ok && ms <= config.latency_limit_ms {
            good += 1;
        }
    }
    for (v, objs) in by_variant.iter().enumerate() {
        if let Some(m) = crate::stats::mean(objs) {
            println!(
                "# objective {}: mean {m} over {}",
                variant_name(v),
                objs.len()
            );
        }
    }
    let n = latency.len();
    let p50 = median(&latency).unwrap_or(0.0);
    report.set("svc_latency_ms_p50", "ms", p50, n);
    report.set("query_s_p50", "s", p50 / 1e3, n);
    if let Some((pct, v)) = tail(&latency) {
        report.set_noted(
            "svc_latency_ms_p95",
            "ms",
            quantile(&latency, 0.95),
            n,
            "p95 of all ops",
        );
        report.set_noted(
            "query_s_tail",
            "s",
            Some(v / 1e3),
            n,
            &format!("p{pct} of all ops"),
        );
    }
    // Per second of the pass: from the first due send to the last answer.
    let elapsed = outcomes
        .iter()
        .filter_map(|o| o.received)
        .max()
        .map_or(seconds, |last| {
            last.saturating_duration_since(start).as_secs_f64()
        });
    let goodput = good as f64 / elapsed;
    report.set_noted(
        "svc_goodput_qps",
        "1/s",
        Some(goodput),
        n,
        &format!(
            "ok within {} ms, per s of the pass",
            config.latency_limit_ms
        ),
    );
    report.set_noted("queries_per_s", "1/s", Some(goodput), n, "goodput");
    report.set(
        "feasible_frac",
        "ratio",
        fresh_ok as f64 / fresh.max(1) as f64,
        fresh,
    );
    report.set_noted(
        "objective_norm",
        "ratio",
        crate::stats::mean(&objectives),
        objectives.len(),
        "fresh queries",
    );
    report.set(
        "svc.queue_ms_p50",
        "ms",
        median(&queue).unwrap_or(0.0),
        queue.len(),
    );
    report.set(
        "svc.queue_ms_p95",
        "ms",
        quantile(&queue, 0.95).unwrap_or(0.0),
        queue.len(),
    );
    report.set(
        "svc.exec_ms_p50",
        "ms",
        median(&exec).unwrap_or(0.0),
        exec.len(),
    );
    report.set(
        "svc.exec_ms_p95",
        "ms",
        quantile(&exec, 0.95).unwrap_or(0.0),
        exec.len(),
    );
    let hit_frac = hits as f64 / query_ops.max(1) as f64;
    let scheduled = scheduled_repeats as f64 / query_ops.max(1) as f64;
    report.set_noted(
        "svc.result_cache_hit_frac",
        "ratio",
        Some(hit_frac),
        query_ops,
        &format!("scheduled {scheduled:.4}"),
    );
    if hits != scheduled_repeats {
        report.fail(format!(
            "result-cache hits {hits} != scheduled repeats {scheduled_repeats}"
        ));
    }
    report.set(
        "svc.prepared_cache_hit_frac",
        "ratio",
        prepared_hits as f64 / query_ops.max(1) as f64,
        query_ops,
    );
    report.set("svc.rejects", "count", rejects as f64, n);
    report.set(
        "svc.load_ms_p50",
        "ms",
        median(&load_ms).unwrap_or(0.0),
        load_ms.len(),
    );
    report.set(
        "svc.validate_op_ms_p50",
        "ms",
        median(&validate_ms).unwrap_or(0.0),
        validate_ms.len(),
    );
    report.set(
        "net.overhead_ms_p50",
        "ms",
        median(&overhead).unwrap_or(0.0),
        overhead.len(),
    );
    report.set(
        "net.overhead_ms_p95",
        "ms",
        quantile(&overhead, 0.95).unwrap_or(0.0),
        overhead.len(),
    );
    report.set(
        "gen.lag_ms_max",
        "ms",
        lag.iter().copied().fold(0.0, f64::max),
        lag.len(),
    );
    report.set(
        "gen.offered_qps",
        "1/s",
        plan.len() as f64 / seconds,
        plan.len(),
    );
    let fresh_exec: Vec<f64> = plan
        .iter()
        .zip(&outcomes)
        .filter(|(p, _)| matches!(p.op, Op::Fresh { .. }))
        .filter_map(|(_, o)| o.response.as_ref().map(|j| num(j, "wall_ms")))
        .collect();
    println!(
        "# fresh-query service time: mean {:.1} ms over {} (capacity ~{:.1} fresh/s on {} workers)",
        crate::stats::mean(&fresh_exec).unwrap_or(0.0),
        fresh_exec.len(),
        crate::stats::nproc() as f64 * 1e3 / crate::stats::mean(&fresh_exec).unwrap_or(1.0),
        crate::stats::nproc()
    );
}

/// Run the workload.
pub fn run(args: &Args, dir: &RunDir, report: &mut Report) {
    let config = if args.tiny {
        &Config::TINY
    } else {
        &Config::FULL
    };
    let connections = crate::stats::nproc().clamp(1, 2);

    let t = Instant::now();
    let server = start_server(config, dir.path("scenario-store"));
    let mut setups = vec![t.elapsed().as_secs_f64()];
    // More set-ups are timed in two bursts, one now and one after the
    // untraced pass: the machine's speed changes from one second to the
    // next, so a single burst would measure only the second it ran in. Each
    // extra server gets its own empty scenario store, as the first did, and
    // is shut down untimed.
    let time_setups = |burst: usize, setups: &mut Vec<f64>| {
        for rep in 0..config.setup_reps {
            let store = dir.path(&format!("setup-store-{burst}-{rep}"));
            let t = Instant::now();
            let extra = start_server(config, store);
            setups.push(t.elapsed().as_secs_f64());
            let Server { server, .. } = extra;
            server.shutdown();
        }
    };
    time_setups(0, &mut setups);
    let addr = server.server.local_addr();

    // Warm-up: one fresh query per variant (compiles every plan); the
    // packages it returns are what the `validate` ops re-check.
    let warm: Vec<Planned> = (0..8)
        .map(|v| {
            let id = format!("warm-{v}");
            let seed = SCHEDULE_SEED.wrapping_add(0xa11_0000 + v as u64);
            Planned {
                due: Duration::ZERO,
                op: Op::Fresh { variant: v, seed },
                line: query_line(config, &id, v, seed),
                id,
            }
        })
        .collect();
    let warm_pass = run_pass(addr, &warm, connections);
    for e in &warm_pass.errors {
        report.fail(format!("warm-up: {e}"));
    }
    let packages: Vec<Vec<(usize, u32)>> = warm_pass
        .outcomes
        .iter()
        .map(|o| o.response.as_ref().map(package_of).unwrap_or_default())
        .collect();

    let plan = schedule(config, args.seconds, SCHEDULE_SEED, 0, &packages);
    let untraced = run_pass(addr, &plan, connections);
    time_setups(1, &mut setups);
    report.set("setup_s", "s", median(&setups).unwrap_or(0.0), setups.len());
    if args.trace {
        let untraced_lat: Vec<f64> = untraced
            .outcomes
            .iter()
            .filter_map(|o| Some(o.received?.saturating_duration_since(o.sent?).as_secs_f64()))
            .collect();
        spq_obs::trace::enable(dir.path("trace.json"));
        let before = Counters::snapshot();
        let traced_plan = schedule(config, args.seconds, SCHEDULE_SEED, 1, &packages);
        let traced = run_pass(addr, &traced_plan, connections);
        let after = Counters::snapshot();
        let profile = SpanProfile::export(&dir.path("trace.json")).unwrap_or_else(|e| {
            report.fail(e);
            SpanProfile::default()
        });
        let executed = profile.get("solve").count as usize;
        // Search counts come from the `stats` of fresh-query responses.
        let stats: Vec<EvaluationStats> = traced_plan
            .iter()
            .zip(&traced.outcomes)
            .filter(|(p, _)| matches!(p.op, Op::Fresh { .. }))
            .filter_map(|(_, o)| o.response.as_ref()?.get("stats").map(stats_of))
            .collect();
        layers::fill(
            report,
            &profile,
            &stats,
            &before,
            &after,
            executed,
            &["solve"],
        );
        let traced_lat: Vec<f64> = traced
            .outcomes
            .iter()
            .filter_map(|o| Some(o.received?.saturating_duration_since(o.sent?).as_secs_f64()))
            .collect();
        if let (Some(a), Some(b)) = (median(&untraced_lat), median(&traced_lat)) {
            report.set_noted(
                "obs.trace_overhead_frac",
                "ratio",
                Some(b / a - 1.0),
                traced_lat.len(),
                "traced / untraced latency p50 - 1",
            );
        }
        report.set(
            "net.lines",
            "count",
            before.delta(&after, "spq_net_lines_total"),
            1,
        );
        report.set(
            "core.compile_ms",
            "ms",
            (profile.get("parse").total_s
                + profile.get("bind").total_s
                + profile.get("translate").total_s)
                * 1e3
                / executed.max(1) as f64,
            executed,
        );
        report.set(
            "core.search_s",
            "s",
            profile.get("solve").total_s / executed.max(1) as f64,
            executed,
        );
        report.not_applicable("core.instance_s", "s");
        report.not_applicable("core.instance_rss_mb", "MB");
        report.not_applicable("mcdb.chunk_bytes_paged", "bytes");
        let covers: Vec<f64> = traced
            .outcomes
            .iter()
            .filter_map(|o| {
                let j = o.response.as_ref()?;
                let client = o.received?.saturating_duration_since(o.sent?).as_secs_f64() * 1e3;
                j.get("wall_ms")?;
                Some((num(j, "queue_ms") + num(j, "wall_ms")) / client.max(1e-9))
            })
            .collect();
        report.set_noted(
            "bench.cover_frac",
            "ratio",
            median(&covers),
            covers.len(),
            "median of (queue + exec) / client latency",
        );
        score(
            config,
            &server,
            &traced_plan,
            traced,
            args.seconds,
            args.seed,
            report,
        );
    } else {
        score(
            config,
            &server,
            &plan,
            untraced,
            args.seconds,
            args.seed,
            report,
        );
    }
    let Server {
        server, service, ..
    } = server;
    server.shutdown();
    drop(service);
    report.set("peak_rss_mb", "MB", peak_rss_mb(), 1);
}
