//! Self-test at tiny sizes: every workload runs untraced and traced, passes
//! its output check, and prints exactly the metrics `BENCHMARK.json` names.

use spq_service::json::{parse, Json};
use std::path::Path;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

fn names(spec: &Json, key: &str) -> Vec<String> {
    spec.get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| m.str_field("name").expect("metric name").to_string())
        .collect()
}

fn run(workload: &str, trace: bool) -> (bool, String) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_spq-perfbench"))
        .current_dir(&dir)
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "3",
            "--tiny",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(
        !dir.join(".bench_run").exists()
            || std::fs::read_dir(dir.join(".bench_run"))
                .unwrap()
                .next()
                .is_none(),
        "run directory left behind"
    );
    (output.status.success(), stdout)
}

fn check(workload: &str, trace: bool, expected: &[String]) {
    let (ok, stdout) = run(workload, trace);
    assert!(ok, "{workload} trace={trace} failed:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    let result = parse(last).expect("result line is JSON");
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{stdout}"
    );
    assert_eq!(result.u64_field("failed"), Some(0), "{stdout}");
    assert!(result.u64_field("attempted").unwrap_or(0) >= 1);
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics object: {last}");
    };
    let printed: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
    assert_eq!(printed, expected, "{workload} trace={trace}");
    for (name, m) in metrics {
        assert!(
            m.get("value").and_then(Json::as_f64).is_some(),
            "{name}: {last}"
        );
        assert!(m.str_field("unit").is_some(), "{name}: {last}");
        // The human-readable table names every metric too.
        assert!(
            stdout.contains(&format!("# {name} ")),
            "{name} missing from the table"
        );
    }
}

#[test]
fn every_workload_prints_every_metric_it_owns() {
    let spec = benchmark_json();
    let end_to_end = names(&spec, "end_to_end");
    let per_layer = names(&spec, "per_layer");
    let workloads = names(&spec, "workloads");
    assert_eq!(workloads, ["paper_mix", "sketch_1m_disk", "service_mix"]);
    for workload in &workloads {
        check(workload, false, &end_to_end);
        check(workload, true, &per_layer);
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_spq-perfbench"))
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .args(["--workload", "nonesuch", "--seed", "1"])
        .output()
        .expect("run the benchmark");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
