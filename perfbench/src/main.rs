//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <cnn_infer|small_jobs|cold_kernels|paper_offload>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints the pinned configuration, every metric on its own line, and
//! as the last line one JSON object: `correct`, `attempted`, `failed`
//! and the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). See `README.md` for what each metric measures.

mod harness;
mod report;
mod stats;
mod trace;
mod workloads;

use harness::{Options, Outcome};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// The workloads, by their command-line names.
const WORKLOADS: &[&str] = &["cnn_infer", "small_jobs", "cold_kernels", "paper_offload"];

/// Environment variables through which the library would pick its
/// executor and rasteriser dispatch behind the benchmark's back.
const PINNED_ENV: &[&str] = &["GPES_EXECUTOR", "GPES_TEST_DISPATCH"];

struct Args {
    workload: String,
    options: Options,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        options: Options {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            corrupt_reference: false,
        },
    })
}

/// Runs one workload.
///
/// # Errors
///
/// Set-up failures and broken guards, as text.
fn run(workload: &str, o: &Options) -> Result<Outcome, String> {
    use workloads::{CnnInfer, ColdKernels, PaperOffload, SmallJobs};
    let (seed, bad) = (o.seed, o.corrupt_reference);
    match workload {
        "cnn_infer" => {
            let w = CnnInfer::new(seed, bad).map_err(|e| e.to_string())?;
            harness::run_served(&w, o)
        }
        "small_jobs" => harness::run_served(&SmallJobs::new(seed, bad), o),
        "cold_kernels" => harness::run_served(&ColdKernels::new(seed, bad), o),
        "paper_offload" => harness::run_direct(&PaperOffload::new(seed, bad), o),
        other => Err(format!("unknown workload {other}")),
    }
}

/// The trimmed standard output of `command`; `unknown` when it cannot
/// run or fails.
fn command_output(command: &mut Command) -> String {
    command
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// The checkout's commit by `git rev-parse HEAD`, looking for a
/// repository in the current directory only (never in a parent);
/// `unknown` outside a git work tree.
fn git_commit() -> String {
    let mut git = Command::new("git");
    git.args(["rev-parse", "HEAD"]);
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
    {
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    command_output(&mut git)
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn trace_path(workload: &str, seed: u64) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{workload}-seed{seed}.jsonl"))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = PINNED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: {var} is set; unset it so the measured configuration is the default");
        return ExitCode::from(2);
    }
    let o = &args.options;
    // Before the run: a workload may confine itself to fewer CPUs.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let outcome = match run(&args.workload, o) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    let mut record = vec![
        ("workload", args.workload.clone()),
        ("seed", o.seed.to_string()),
        ("window_s", o.seconds.to_string()),
        ("nproc", nproc.to_string()),
    ];
    record.extend(outcome.record.iter().cloned());
    record.push(("git_commit", git_commit()));
    record.push((
        "rustc",
        command_output(Command::new("rustc").arg("--version")),
    ));
    let record_json = format!(
        "{{{}}}",
        record
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("record {record_json}");

    if let Some(spans) = &outcome.spans {
        let path = trace_path(&args.workload, o.seed);
        match spans.write_jsonl(&path, &record_json) {
            Ok(()) => println!(
                "spans {} written to {}",
                spans.spans().len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let catalogue = if o.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    for (name, unit) in report::END_TO_END.iter().chain(report::PER_LAYER) {
        if let Some(v) = outcome.metrics.get(name) {
            println!("metric {name} {v} {unit}");
        }
    }
    let tally = &outcome.tally;
    if let Some(first) = &tally.first_failure {
        println!(
            "failures {} of {}; first: {first}",
            tally.failed, tally.attempted
        );
    }
    match report::result_line(&outcome.metrics, catalogue, tally.attempted, tally.failed) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload small_jobs --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.workload, "small_jobs");
        assert_eq!(a.options.seed, 7);
        assert_eq!(a.options.seconds, 10.0);
        assert!(a.options.trace);
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload small_jobs --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload small_jobs --seed 1 --trace 0").is_err());
    }

    /// A corrupted host reference must surface as failed ops, never as a
    /// silently passing run.
    #[test]
    fn corrupted_reference_reports_failures() {
        for workload in ["small_jobs", "cnn_infer", "cold_kernels"] {
            let o = Options {
                seed: 3,
                seconds: 0.2,
                trace: false,
                corrupt_reference: true,
            };
            let out = run(workload, &o).expect("runs");
            assert!(out.tally.attempted > 0, "{workload}");
            assert_eq!(out.tally.failed, out.tally.attempted, "{workload}");
            let clean = run(
                workload,
                &Options {
                    corrupt_reference: false,
                    ..o
                },
            )
            .expect("runs");
            assert_eq!(
                clean.tally.failed, 0,
                "{workload}: {:?}",
                clean.tally.first_failure
            );
        }
    }
}
