//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_mix|sketch_1m_disk|service_mix> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds its inputs from `--seed`, drives the program through its
//! public entry points, re-checks every answer, and prints a table of every
//! metric (unit, sample count) followed by one JSON result line. With
//! `--trace 0` the result carries the end-to-end metrics; with `--trace 1`
//! the run repeats its timed loop with `spq_obs` spans on and the result
//! carries the per-layer metrics. The process exits non-zero when an answer
//! fails the output check. See `perfbench/README.md` for the workloads and
//! metric definitions.

mod check;
mod direct;
mod layers;
mod paper_mix;
mod report;
mod service_mix;
mod sketch_disk;
mod stats;
mod trace;

use report::Report;
use std::path::{Path, PathBuf};

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Run length in seconds: the schedule of service_mix; the other
    /// workloads size their fixed amount of work from it.
    pub seconds: f64,
    /// Traced run (per-layer metrics).
    pub trace: bool,
    /// Self-test sizes.
    pub tiny: bool,
}

/// The workloads.
pub const WORKLOADS: &[&str] = &["paper_mix", "sketch_1m_disk", "service_mix"];

/// Default workload seed (every workload).
pub const DEFAULT_SEED: u64 = 1;

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        tiny: false,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--tiny" {
            parsed.tiny = true;
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => parsed.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 2;
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got `{}`",
            WORKLOADS.join(", "),
            parsed.workload
        ));
    }
    Ok(parsed)
}

/// A scratch directory inside the working directory, removed on drop.
pub struct RunDir(PathBuf);

impl RunDir {
    fn create(workload: &str) -> std::io::Result<RunDir> {
        let dir = Path::new(".bench_run").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(std::fs::canonicalize(dir)?))
    }

    /// A path inside the directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    };
    let dir = match RunDir::create(&args.workload) {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("error: cannot create the run directory: {e}");
            std::process::exit(2);
        }
    };
    // Everything the program writes on its own (the service catalog's disk
    // tier uses the system temp directory) stays inside the run directory.
    std::env::set_var("TMPDIR", dir.path(""));
    spq_sketch::install();
    println!(
        "# workload={} seed={} seconds={} trace={} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        stats::nproc()
    );

    let mut report = Report::default();
    match args.workload.as_str() {
        "paper_mix" => paper_mix::run(&args, &dir, &mut report),
        "sketch_1m_disk" => sketch_disk::run(&args, &dir, &mut report),
        _ => service_mix::run(&args, &dir, &mut report),
    }
    let fail_frac = report.failed as f64 / report.attempted.max(1) as f64;
    report.set("fail_frac", "ratio", fail_frac, report.attempted as usize);
    let correct = report.emit(args.trace);
    drop(dir);
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "paper_mix",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, "paper_mix");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 20.0);
        assert!(a.trace);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "paper_mix", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "paper_mix", "--bogus", "1"]).is_err());
    }
}
