//! The suite: every workload in its own child process (so `peak_rss_mb`
//! and warm-up belong to one workload), the summary tables, and the
//! `--aa` check of two sets of runs of the same build against the
//! bounds of `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use saris::codegen::json::{self, Value};

use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::Args;

/// One line describing where the numbers come from.
pub fn environment() -> String {
    let tool = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    #[cfg(target_arch = "x86_64")]
    let (avx2, fma) = (
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("fma"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, fma) = (false, false);
    format!(
        "environment: available_parallelism={cores} avx2={avx2} fma={fma} rustc=\"{}\" git={}",
        tool("rustc", &["-V"]),
        tool("git", &["rev-parse", "HEAD"])
    )
}

type Values = BTreeMap<String, f64>;

struct ChildResult {
    correct: bool,
    failed: u64,
    values: Values,
}

fn parse_result(line: &str) -> Result<ChildResult, String> {
    let doc = json::parse(line).map_err(|e| format!("result line: {e}"))?;
    let read = |doc: &Value| -> Result<ChildResult, json::JsonError> {
        let doc = doc.as_object("result")?;
        let field = |name: &str| {
            doc.get(name)
                .ok_or_else(|| json::error(&format!("result: missing {name}")))
        };
        let mut values = Values::new();
        for (name, metric) in field("metrics")?.as_object("metrics")? {
            let value = metric
                .as_object("metric")?
                .get("value")
                .ok_or_else(|| json::error("metric: missing value"))?
                .as_f64("metric value")?;
            values.insert(name.clone(), value);
        }
        Ok(ChildResult {
            correct: field("correct")?.as_bool("correct")?,
            failed: field("failed")?.as_u64("failed")?,
            values,
        })
    };
    read(&doc).map_err(|e| format!("result line: {e}"))
}

/// Runs one workload in a child process, passing its output through,
/// and returns what its result line says.
fn run_child(workload: &str, args: &Args, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&args.out_dir)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines
        .pop()
        .ok_or_else(|| format!("{workload}: no output (exit {})", output.status))?;
    for line in lines {
        println!("  {line}");
    }
    let result = parse_result(last).map_err(|e| format!("{workload}: {e}"))?;
    if !output.status.success() || !result.correct {
        return Err(format!(
            "{workload}: {} failed operations (exit {})",
            result.failed, output.status
        ));
    }
    Ok(result)
}

/// One set of runs: every workload, untraced (and traced when asked).
fn run_set(args: &Args, trace: bool) -> Result<Vec<(&'static str, Values)>, String> {
    let mut set = Vec::new();
    for workload in WORKLOADS {
        println!("== {workload}{}", if trace { " (traced)" } else { "" });
        set.push((workload, run_child(workload, args, trace)?.values));
    }
    Ok(set)
}

fn print_table(title: &str, list: &[(&str, &str)], set: &[(&'static str, Values)]) {
    println!("\n{title}");
    print!("{:<40} {:>10}", "metric", "unit");
    for (workload, _) in set {
        print!(" {workload:>16}");
    }
    println!();
    for (name, unit) in list {
        print!("{name:<40} {unit:>10}");
        for (_, values) in set {
            match values.get(*name) {
                Some(v) if *v != 0.0 => print!(" {v:>16.6}"),
                _ => print!(" {:>16}", "-"),
            }
        }
        println!();
    }
}

/// Bound of every end-to-end metric, from `BENCHMARK.json` as built in.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let doc = json::parse(include_str!("../../BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let read = |doc: &Value| -> Result<BTreeMap<String, f64>, json::JsonError> {
        let mut bounds = BTreeMap::new();
        let metrics = doc
            .as_object("benchmark")?
            .get("end_to_end")
            .ok_or_else(|| json::error("missing end_to_end"))?;
        for metric in metrics.as_array("end_to_end")? {
            let metric = metric.as_object("metric")?;
            let get = |key: &str| {
                metric
                    .get(key)
                    .ok_or_else(|| json::error(&format!("metric: missing {key}")))
            };
            bounds.insert(
                get("name")?.as_str("name")?.to_string(),
                get("bound")?.as_f64("bound")?,
            );
        }
        Ok(bounds)
    };
    read(&doc).map_err(|e| format!("BENCHMARK.json: {e}"))
}

/// `--aa`: two sets of runs of the same build, side by side. Returns
/// whether every workload × end-to-end metric agrees within its bound.
fn run_aa(args: &Args) -> Result<bool, String> {
    let bounds = bounds()?;
    println!("-- set A");
    let a = run_set(args, false)?;
    println!("-- set B");
    let b = run_set(args, false)?;
    println!("\nA/A: relative difference of B from A, beside the metric's bound");
    println!(
        "{:<16} {:<14} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "A", "B", "diff", "bound"
    );
    let mut within = true;
    for ((workload, a), (_, b)) in a.iter().zip(&b) {
        for (name, _) in END_TO_END {
            let (va, vb) = (a[name], b[name]);
            let diff = (vb - va).abs() / va.abs();
            let bound = bounds[name];
            let verdict = if diff <= bound { "" } else { "  PAST BOUND" };
            within &= diff <= bound;
            println!(
                "{workload:<16} {name:<14} {va:>16.6} {vb:>16.6} {:>8.2}% {:>6.0}%{verdict}",
                100.0 * diff,
                100.0 * bound
            );
        }
    }
    Ok(within)
}

pub fn run(args: &Args) -> Result<ExitCode, String> {
    println!("{}", environment());
    if args.aa {
        return Ok(if run_aa(args)? {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    let untraced = run_set(args, false)?;
    let traced = if args.trace {
        Some(run_set(args, true)?)
    } else {
        None
    };
    print_table("end-to-end (untraced run)", &END_TO_END, &untraced);
    if let Some(traced) = traced {
        print_table(
            "per layer (traced run; - = zero or not exercised)",
            &PER_LAYER,
            &traced,
        );
        println!(
            "\ntraces: {}",
            args.out_dir.join("trace-<workload>.jsonl").display()
        );
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{result_line, Metrics};

    #[test]
    fn result_lines_round_trip_through_the_suite_parser() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.25);
        m.set("lat_p50_us", 812.125);
        let parsed = parse_result(&result_line(true, 12, 0, &END_TO_END, &m)).unwrap();
        assert!(parsed.correct);
        assert_eq!(parsed.failed, 0);
        assert_eq!(parsed.values["lat_p50_us"], 812.125);
        assert_eq!(parsed.values.len(), END_TO_END.len());
        assert!(parse_result("not json").is_err());
    }

    #[test]
    fn every_end_to_end_metric_has_a_bound_within_the_cap() {
        let bounds = bounds().unwrap();
        for (name, _) in END_TO_END {
            let bound = bounds[name];
            assert!(bound > 0.0 && bound <= 0.25, "{name}: {bound}");
        }
        assert_eq!(bounds.len(), END_TO_END.len());
    }
}
