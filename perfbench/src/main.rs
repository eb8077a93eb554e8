//! End-to-end and per-layer benchmark of the avglocal sweep and
//! query-service paths.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep|point_ring|sample_swap> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it reports the per-layer metrics of a traced run. Every
//! answer is checked; the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md` for
//! the workloads, their parameters and what each metric means.

mod common;
mod count;
mod layers;
mod point;
mod sample;
mod stats;
mod sweep;
mod trace;

use std::process::ExitCode;

use common::{Args, Report};

/// Pool participants of the untraced runs: the two cores of the reference
/// machine. Traced runs use one, so every layer call — decide calls
/// included — runs on the thread that records its span.
const POOL_THREADS: usize = 2;

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? == 1),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

fn json(report: &Report) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(report.metrics.len());
    for m in &report.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        metrics
            .push(format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit));
    }
    let correct = report.errors.is_empty() && report.failed == 0 && report.attempted > 0;
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = if args.trace { 1 } else { POOL_THREADS };
    if let Err(e) = rayon::ThreadPoolBuilder::new().num_threads(threads).build_global() {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    let mut report = Report::default();
    let result = match (args.workload.as_str(), args.trace) {
        ("sweep", false) => sweep::run(&args, &mut report),
        ("sweep", true) => sweep::traced(&args, &mut report),
        ("point_ring", false) => point::run(&args, &mut report),
        ("point_ring", true) => point::traced(&args, &mut report),
        ("sample_swap", false) => sample::run(&args, &mut report),
        ("sample_swap", true) => sample::traced(&args, &mut report),
        (other, _) => Err(format!("unknown workload {other}")),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    println!(
        "# {} seed {} for {} s, trace {}, pool {threads}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in &report.notes {
        println!("# {line}");
    }
    for m in &report.metrics {
        println!("# {:<32} {:>18.6} {:<6} ({} samples)", m.name, m.value, m.unit, m.samples);
    }
    let share = stats::per_unit(report.failed, report.attempted.max(1));
    println!("# failed_share {share} ({} of {} operations)", report.failed, report.attempted);
    for e in &report.errors {
        println!("# FAILED: {e}");
    }
    match json(&report) {
        Ok(line) => {
            println!("{line}");
            if report.errors.is_empty() && report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
