//! The repo's benchmark: five seeded closed-loop workloads, end-to-end
//! metrics from an untraced run and a per-layer ledger from a traced
//! one, every layer timed from outside through its public functions.
//! See `README.md` beside this package for the tables.
//!
//! ```text
//! saris-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run
//! saris-benchmark [--seed <n>] [--seconds <s>] [--trace] [--aa]              the suite
//! ```

#[cfg(test)]
mod determinism;
mod driver;
mod metrics;
mod rng;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use driver::{Run, Workload};
use metrics::{END_TO_END, PER_LAYER};
use workloads::compile_verify::CompileVerify;
use workloads::serve::{ServeHot, ServeUnique};
use workloads::sharded_net::ShardedNet;
use workloads::sim_gallery::SimGallery;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub aa: bool,
    pub out_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 18.0,
        trace: false,
        aa: false,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} takes {what}"))
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("an integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value("a directory")?),
            // `--trace 0|1` for the contract's runner, bare `--trace` by hand.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--aa" => args.aa = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn run_one<W: Workload>(args: &Args) -> Run {
    if args.trace {
        driver::run_traced::<W>(args.seed, args.seconds)
    } else {
        driver::run_untraced::<W>(args.seed, args.seconds)
    }
}

/// One run of one workload in this process: prints the environment,
/// the run's notes and, as the last line, the result object.
fn run_workload(name: &str, args: &Args) -> Result<ExitCode, String> {
    println!("{}", suite::environment());
    println!(
        "workload {name}: seed {}, {} s measured, tracing {}",
        args.seed,
        args.seconds,
        if args.trace { "on" } else { "off" }
    );
    let run = match name {
        SimGallery::NAME => run_one::<SimGallery>(args),
        CompileVerify::NAME => run_one::<CompileVerify>(args),
        ServeHot::NAME => run_one::<ServeHot>(args),
        ServeUnique::NAME => run_one::<ServeUnique>(args),
        ShardedNet::NAME => run_one::<ShardedNet>(args),
        other => {
            return Err(format!(
                "unknown workload `{other}` (one of {:?})",
                metrics::WORKLOADS
            ))
        }
    };
    for note in &run.notes {
        println!("{note}");
    }
    if let Some(why) = &run.first_failure {
        println!("first failure: {why}");
    }
    let list: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, value) in run.metrics.nonzero() {
        println!(
            "{name} = {value:?} {}",
            metrics::unit_of(name).unwrap_or("")
        );
    }
    let correct = run.failed == 0;
    let line = metrics::result_line(correct, run.attempted, run.failed, list, &run.metrics);

    // Results and the trace stay inside the checkout; failing to write
    // them does not fail the measurement.
    let written = std::fs::create_dir_all(&args.out_dir).and_then(|()| {
        let suffix = if args.trace { "-trace" } else { "" };
        std::fs::write(
            args.out_dir.join(format!("result-{name}{suffix}.json")),
            format!("{line}\n"),
        )?;
        if args.trace {
            std::fs::write(args.out_dir.join(format!("trace-{name}.jsonl")), &run.trace)?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!("could not write under {}: {e}", args.out_dir.display());
    }

    println!("{line}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| match args.workload.clone() {
        Some(name) => run_workload(&name, &args),
        None => suite::run(&args),
    });
    match result {
        Ok(code) => code,
        Err(why) => {
            eprintln!("saris-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse_args(&argv)
    }

    #[test]
    fn contract_command_line_parses() {
        let a = parse("--workload serve_hot --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve_hot"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        let a = parse("--workload serve_hot --seed 7 --seconds 10 --trace 0").unwrap();
        assert!(!a.trace);
    }

    #[test]
    fn suite_command_line_parses_and_defaults_to_seed_one() {
        let a = parse("--trace --aa").unwrap();
        assert!(a.workload.is_none() && a.trace && a.aa);
        assert_eq!(a.seed, 1);
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--bogus").is_err());
        assert!(parse("--seed").is_err());
    }
}
