//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <quote-closed|quote-open|train> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics; with `--trace 1`
//! it measures the per-layer metrics and writes the trace file
//! `.bench_out/trace-<workload>-seed<n>.json`. Either way it checks the
//! program's outputs, prints every metric with its unit and, as its last
//! line, one JSON result object; it exits with 1 when a check fails.
//! See README.md.

mod calib;
mod closed;
mod common;
mod host;
mod load;
mod open;
mod report;
mod spans;
mod stats;
mod train;

use std::time::Instant;

use common::Args;
use host::{out_dir, peak_rss_mb, Fingerprint, Scratch};
use report::{Report, END_TO_END, PER_LAYER};
use spans::SpanLog;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["quote-closed", "quote-open", "train"];
/// Spans kept in the trace file (the self-time table covers all of them).
const TRACE_FILE_SPANS: usize = 200_000;

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let host = Fingerprint::probe(args.seed);
    println!("{}", host.line());
    println!(
        "workload: {} seconds={} trace={}",
        args.workload, args.seconds, args.trace as u8
    );
    let scratch = Scratch::create().expect("scratch directory under .bench_out");
    let epoch = Instant::now();
    let mut spans = SpanLog::new(epoch);
    let mut report = Report::default();
    match args.workload.as_str() {
        "quote-closed" => closed::run(&args, &scratch, &mut report, &mut spans),
        "quote-open" => open::run(&args, &scratch, &mut report, &mut spans),
        "train" => train::run(&args, &scratch, &mut report, &mut spans),
        _ => unreachable!("workload validated by parse_args"),
    }
    drop(scratch);
    report.check(
        "requests",
        report.outcomes.attempted > 0,
        format!("{} requests attempted", report.outcomes.attempted),
    );
    let catalogue = if args.trace {
        let path = out_dir().join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        std::fs::write(&path, spans.to_json(&host.to_json(), TRACE_FILE_SPANS))
            .expect("trace file written");
        println!("trace file: {}", path.display());
        PER_LAYER
    } else {
        report.set("peak_rss_mb", peak_rss_mb());
        END_TO_END
    };
    print!("{}", report.render(catalogue));
    if !report.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let parsed = args(&[
            "--workload",
            "train",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            parsed,
            Args {
                workload: "train".to_string(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "train",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&["--workload", "train", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&[
            "--workload",
            "train",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
    }
}
