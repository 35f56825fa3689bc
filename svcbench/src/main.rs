//! End-to-end benchmark of the shipping configuration: the registry's
//! `2QAN-noise` portfolio on heterogeneous targets, served through
//! `CompileService`.  See `README.md` for the workloads, the metrics and
//! the traced run.
//!
//! ```text
//! cargo run --release --manifest-path svcbench/Cargo.toml -- \
//!     --workload <cold-portfolio|hot-hits|drift-recompile|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`.  The exit code is 0
//! only when every check passed.  `--workload all` runs each workload in
//! its own process, one after another, and fails if any of them failed.

mod checks;
mod inputs;
mod json;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use workloads::{RunConfig, WORKLOADS};

/// The compiler under test, by its registry name.
pub const COMPILER: &str = "2QAN-noise";

const USAGE: &str = "usage: svcbench --workload <cold-portfolio|hot-hits|drift-recompile|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value()?,
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    if parsed.workload != "all" && !WORKLOADS.iter().any(|w| w.name == parsed.workload) {
        return Err(format!("unknown workload {:?}", parsed.workload));
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&raw);
    }
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .expect("validated by parse_args");
    println!(
        "svcbench: workload={} seed={} seconds={} trace={} host_cores={}",
        workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let outcome = (workload.run)(&RunConfig {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
    });
    println!(
        "{}",
        json::result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in its own child process, one after another, with
/// their output passed through; fails if any of them failed.
fn run_all(raw: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut shared: Vec<String> = Vec::new();
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        if arg == "--workload" {
            it.next();
        } else {
            shared.push(arg.clone());
        }
    }
    let mut failed = Vec::new();
    for workload in &WORKLOADS {
        let status = Command::new(&exe)
            .args(&shared)
            .args(["--workload", workload.name])
            .stdin(Stdio::null())
            .status()
            .expect("the benchmark can run itself");
        if !status.success() {
            failed.push(workload.name);
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("failed workloads: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "hot-hits",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "hot-hits".into(),
                seed: 7,
                seconds: 12,
                trace: true
            }
        );
        let d = parse_args(&strings(&["--workload", "all"])).unwrap();
        assert_eq!((d.seed, d.seconds, d.trace), (1, 10, false));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&[])).is_err());
        assert!(parse_args(&strings(&["--workload", "hot-hits", "--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--workload", "hot-hits", "--seconds", "0"])).is_err());
        assert!(parse_args(&strings(&["--workload", "hot-hits", "--seed"])).is_err());
        assert!(parse_args(&strings(&["--workload", "hot-hits", "--frob", "1"])).is_err());
    }
}
