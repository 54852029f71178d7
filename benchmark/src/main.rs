//! The repo benchmark. See `benchmark/README.md`; run it through
//! `benchmark/run.sh`, which builds this binary and feeds it the build facts
//! of the host fingerprint.
//!
//! ```text
//! swcam-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                 [--steps <n>] [--trace-out <file>] [--out <file>]
//! swcam-benchmark summarize <summary.json> <record.json>...
//! swcam-benchmark compare <BENCHMARK.json> <summary-a.json> <summary-b.json>
//! ```
//!
//! A run prints what it measured for people, then one JSON object as the
//! last line of standard output. A failed output check prints no result
//! and exits non-zero.

mod alloc;
mod dist;
mod ens;
mod host;
mod json;
mod metrics;
mod report;
mod serial;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Value;
use workloads::{pinned_threads, Args, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// `--seconds` the harness accepts: the contract's run length tops out at
/// 60 and a run has 180 seconds in all.
const MAX_SECONDS: f64 = 120.0;

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut steps = None;
    let mut trace_out = None;
    let mut out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= MAX_SECONDS) {
                    return Err(format!("--seconds must be in (0, {MAX_SECONDS}]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--steps" => {
                let n = value()?
                    .parse::<usize>()
                    .map_err(|e| format!("--steps: {e}"))?;
                if !(1..=100_000).contains(&n) {
                    return Err("--steps must be in 1..=100000".into());
                }
                steps = Some(n);
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        steps,
        trace_out,
        out,
    })
}

fn run(args: &Args) -> Result<(), String> {
    std::env::set_var("SWCAM_THREADS", pinned_threads(&args.workload).to_string());
    let host = host::fingerprint(args.seed);
    println!("host: {}", host.to_json());
    let report = match args.workload.as_str() {
        "hv_ne8" | "tracers_ne8" => serial::run(args),
        "dist_ne8_r2tcp" => dist::run(args),
        "ens_aqua_l4" => ens::run(args),
        other => unreachable!("{other} passed parse_args"),
    }?;
    for line in &report.notes {
        println!("{line}");
    }
    for (def, value) in report.metrics.iter() {
        let arrow = match def.better {
            metrics::Better::Lower => "lower is better",
            metrics::Better::Higher => "higher is better",
        };
        if value != 0.0 && value.abs() < 1e-3 {
            println!(
                "  {:<32} {value:>16.3e} {:<10} ({arrow})",
                def.name, def.unit
            );
        } else {
            println!(
                "  {:<32} {value:>16.6} {:<10} ({arrow})",
                def.name, def.unit
            );
        }
    }
    if let (Some(path), Some(trace)) = (&args.trace_out, &report.trace) {
        std::fs::write(path, trace.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("  chrome trace: {}", path.display());
    }
    let result = Value::Obj(vec![
        ("correct".into(), Value::Bool(true)),
        ("attempted".into(), Value::Num(report.attempted as f64)),
        ("failed".into(), Value::Num(report.failed as f64)),
        ("metrics".into(), report.metrics.to_json()),
    ]);
    if let Some(path) = &args.out {
        let record = report::record(args, host, result.clone());
        std::fs::write(path, record.to_json() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", result.to_json());
    Ok(())
}

/// Host, workloads, one workload, its metrics: one metric per line.
const SUMMARY_DEPTH: usize = 4;

fn summarize(argv: &[String]) -> Result<(), String> {
    let [out, inputs @ ..] = argv else {
        return Err("summarize <out> <record>...".into());
    };
    if inputs.is_empty() {
        return Err("summarize needs at least one record".into());
    }
    let records = inputs
        .iter()
        .map(|p| report::load(p))
        .collect::<Result<Vec<_>, _>>()?;
    let summary = report::summarize(&records)?;
    std::fs::write(out, summary.to_pretty(SUMMARY_DEPTH)).map_err(|e| format!("{out}: {e}"))?;
    for group in summary
        .get("workloads")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
    {
        let text = |k: &str| group.get(k).map(Value::to_json).unwrap_or_default();
        println!(
            "{} traced={} runs={}",
            text("workload"),
            text("traced"),
            text("runs")
        );
        for (name, m) in group.get("metrics").and_then(Value::as_obj).unwrap_or(&[]) {
            let num = |k: &str| m.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
            println!(
                "  {name:<32} median {:>14.6} q1 {:>14.6} q3 {:>14.6} spread {:>6.2}% {}",
                num("median"),
                num("q1"),
                num("q3"),
                num("spread") * 100.0,
                m.get("unit").and_then(Value::as_str).unwrap_or("")
            );
        }
    }
    println!("wrote {out}");
    Ok(())
}

fn compare(argv: &[String]) -> Result<bool, String> {
    let [manifest, a, b] = argv else {
        return Err("compare <BENCHMARK.json> <a> <b>".into());
    };
    let (lines, agree) = report::compare(
        &report::load(manifest)?,
        &report::load(a)?,
        &report::load(b)?,
    )?;
    for line in lines {
        println!("{line}");
    }
    println!(
        "{}",
        if agree {
            "the two sets agree"
        } else {
            "the two sets DISAGREE"
        }
    );
    Ok(agree)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("summarize") => summarize(&argv[1..]).map(|()| true),
        Some("compare") => compare(&argv[1..]),
        _ => parse_args(&argv).and_then(|args| run(&args)).map(|()| true),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("swcam-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn the_contract_command_line_parses() {
        let a = parse_args(&argv(&[
            "--workload",
            "hv_ne8",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("hv_ne8", 7, 20.0, true)
        );
        assert_eq!((a.steps, a.trace_out, a.out), (None, None, None));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        let base = [
            "--workload",
            "hv_ne8",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "0",
        ];
        for (i, bad) in [
            (1, "nope"),
            (3, "-1"),
            (5, "0"),
            (5, "1e9"),
            (5, "nan"),
            (7, "2"),
        ] {
            let mut words = base;
            words[i] = bad;
            assert!(parse_args(&argv(&words)).is_err(), "{words:?}");
        }
        assert!(
            parse_args(&argv(&base[..6])).is_err(),
            "--trace is required"
        );
        assert!(parse_args(&argv(&["--workload"])).is_err());
        assert!(parse_args(&argv(&["--bogus", "1"])).is_err());
    }
}
