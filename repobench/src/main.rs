//! End-to-end and per-layer benchmark of certified frequent-item queries.
//!
//! ```text
//! cargo run --release --manifest-path repobench/Cargo.toml -- \
//!     --workload exact_des_n100k --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One workload per process, so the peak resident set is the workload's
//! own. With `--trace 0` the run measures the end-to-end metrics: on the
//! DES with no adapter (answers are timed by stepping the world from
//! outside), on the transport with a probe that stamps only the root's
//! `Start` and `Deliver`. With `--trace 1` it runs a fixed number of
//! answers untraced and then the same answers through the [`adapters`],
//! checks that both agree on every deterministic count, and prints the
//! per-layer metrics. Human-readable notes come first; the last line of
//! standard output is the JSON result.

mod adapters;
mod des;
mod exact_des;
mod query;
mod report;
mod standing;
mod stats;
mod tcp;

use std::process::ExitCode;

use report::{Report, END_TO_END, PER_LAYER};

/// Set-ups per run; `setup_s` is their median (on exact_tcp_n32, its data
/// part: the fabric part is timed on every measured query).
const SETUPS: usize = 5;
/// Fewest answers a measured phase collects, so that a tail exists.
const MIN_ANSWERS: u64 = 11;
/// A measured phase stops after this long whatever the sample count.
const MAX_MEASURE_S: f64 = 120.0;

/// Command-line arguments.
#[derive(Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Whether to make the traced run.
    pub trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad(&"must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "exact_des_n100k" => exact_des::run(args),
        "standing_lossy_n10k" => standing::run(args),
        "exact_tcp_n32" => tcp::run(args),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("repobench: {e}");
            return ExitCode::from(2);
        }
    };
    let (table, limit) = if args.trace {
        (PER_LAYER, stats::MAX_PER_LAYER)
    } else {
        (END_TO_END, stats::MAX_END_TO_END)
    };
    let names: Vec<&str> = table.iter().map(|&(n, _)| n).collect();
    let line = stats::check_table(&names, limit)
        .and_then(|()| run(&args))
        .and_then(|r| {
            for note in &r.notes {
                println!("# {}: {note}", args.workload);
            }
            for (&(name, value), &(_, unit)) in r.metrics.iter().zip(table) {
                println!("# {}: {name} = {value} {unit}", args.workload);
            }
            report::render(&r, table)
        });
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("repobench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(&argv(
            "--workload exact_tcp_n32 --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("exact_tcp_n32", 7, 10.0, true)
        );
        for bad in [
            "--workload exact_tcp_n32 --seconds 1",
            "--workload exact_tcp_n32 --seed 1 --seconds 0",
            "--workload exact_tcp_n32 --seed 1 --seconds 1 --trace 2",
            "--workload exact_tcp_n32 --seed 1 --seconds",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad} should be rejected");
        }
    }
}
