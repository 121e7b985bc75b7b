//! `contango_ladder --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one ladder workload and prints its metrics as the last line of
//! stdout: `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Exits 1 when any correctness check fails, 2 on bad usage.

use contango_ladder::metrics::result_line;
use contango_ladder::workloads::{Workload, DEFAULT_SEED};
use contango_ladder::{run, Args};
use std::process::ExitCode;

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(bad)?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workload = workload.ok_or_else(|| format!("--workload is required: one of {names:?}"))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("contango_ladder: {message}");
            return ExitCode::from(2);
        }
    };
    let report = run(args);
    for note in &report.notes {
        eprintln!("{note}");
    }
    println!(
        "{}",
        result_line(
            report.correct,
            report.attempted,
            report.failed,
            &report.metrics
        )
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
