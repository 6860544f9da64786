//! The repo's benchmark harness. See `benchmark/README.md`.
//!
//! ```text
//! atlas-benchmark --workload W --seed N --seconds S --trace 0|1   one run
//! atlas-benchmark --selfcheck N                                    two sets of N runs per workload
//! atlas-benchmark --describe                                       workloads and metrics
//! ```
//!
//! A run re-executes this binary once per epoch (`--epoch I`), because slow
//! and fast modes are sticky per process; every reported value is a median
//! over epochs.

mod calib;
mod conn;
mod deploy;
mod epoch;
mod layers;
mod run;
mod script;
mod selfcheck;
mod spec;
mod stats;
mod trace;

use std::process::ExitCode;

/// `--key value` pairs of the command line.
pub struct Args(Vec<String>);

impl Args {
    pub fn value(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    pub fn number<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.value(key)
            .map(|v| {
                v.parse::<T>()
                    .map_err(|_| format!("{key}: '{v}' is not a number"))
            })
            .transpose()
    }

    pub fn has(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }
}

fn main_inner() -> Result<bool, String> {
    let args = Args(std::env::args().skip(1).collect());
    let spec = spec::Spec::load();
    if args.has("--describe") {
        print!("{}", spec.describe());
        return Ok(true);
    }
    if let Some(runs) = args.number::<usize>("--selfcheck")? {
        let seconds = args.number("--seconds")?.unwrap_or(spec.run_seconds);
        return selfcheck::run(&spec, runs, seconds);
    }
    let workload = args
        .value("--workload")
        .and_then(deploy::Workload::parse)
        .ok_or_else(|| {
            let names: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
            format!("--workload must be one of {}", names.join(", "))
        })?;
    let request = run::Request {
        workload,
        seed: args.number("--seed")?.unwrap_or(1),
        seconds: args.number("--seconds")?.unwrap_or(spec.run_seconds),
        traced: args.value("--trace").is_some_and(|v| v != "0"),
    };
    if args.has("--epoch") {
        return run::child(&spec, &request, &args);
    }
    let outcome = run::run(&spec, &request)?;
    println!("{}", outcome.final_line(&spec, request.traced)?);
    Ok(true)
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
