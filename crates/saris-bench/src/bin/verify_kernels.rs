//! Static-verification sweep: every gallery code × variant × unroll
//! candidate is compiled at its paper tile and pushed through
//! `saris-verify` — no simulator cycle is executed.
//!
//! ```text
//! verify_kernels [--subset]
//! ```
//!
//! Prints one row per compiled kernel: the verifier's verdict, the
//! proven static cycle lower bound and its binding component (`issue`,
//! `fp_issue`, `bank` or `cluster bank`), and any findings. In each
//! (code, variant) group a `*` marks the unroll with the lowest bound
//! (the first on a tie): the one the tuner simulates first. Unroll
//! widths the code generator genuinely refuses (register pressure, FREP
//! capacity) are reported as `infeasible` and skipped, mirroring the
//! tuner. The process exits non-zero when any
//! kernel carries an error-severity finding, which is what makes this a
//! CI gate: a codegen change that mis-sizes a stream job, breaks a loop
//! bound, or drops a `halt` fails the build before any simulation runs.

use std::sync::Arc;

use saris_bench::paper_tile;
use saris_codegen::{
    compile, verify_kernel, CodegenError, RunOptions, Variant, DEFAULT_CANDIDATES,
};
use saris_core::gallery;
use saris_verify::Severity;

fn main() {
    let subset = std::env::args().skip(1).any(|a| a == "--subset");
    let codes: Vec<Arc<saris_core::Stencil>> = gallery::all()
        .into_iter()
        .filter(|s| !subset || matches!(s.name(), "jacobi_2d" | "star3d2r" | "j3d27pt"))
        .map(Arc::new)
        .collect();

    println!("verify_kernels: static verification of every compiled kernel\n");
    print_row([
        "kernel",
        "var",
        "unroll",
        "verdict",
        "bound cyc",
        "binding",
        "warnings",
        "errors",
    ]);

    let mut kernels = 0usize;
    let mut infeasible = 0usize;
    let mut total_errors = 0usize;
    let mut total_warnings = 0usize;
    let mut findings: Vec<String> = Vec::new();
    for stencil in &codes {
        let tile = paper_tile(stencil);
        for variant in [Variant::Base, Variant::Saris] {
            let var = format!("{variant:?}").to_lowercase();
            let mut group = Vec::new();
            for &unroll in &DEFAULT_CANDIDATES {
                let options = RunOptions::new(variant).with_unroll(unroll);
                match compile(stencil, tile, &options) {
                    Ok(kernel) => {
                        group.push((unroll, Some(verify_kernel(stencil, &kernel, &options))))
                    }
                    Err(
                        CodegenError::RegisterPressure { .. }
                        | CodegenError::FrepBodyTooLarge { .. },
                    ) => group.push((unroll, None)),
                    Err(e) => {
                        eprintln!(
                            "{}: {variant:?} u{unroll}: compile failed: {e}",
                            stencil.name()
                        );
                        std::process::exit(1);
                    }
                }
            }
            let first = group
                .iter()
                .filter_map(|(unroll, report)| Some((report.as_ref()?.bound.cycles, *unroll)))
                .min()
                .map(|(_, unroll)| unroll);
            for (unroll, report) in group {
                let Some(report) = report else {
                    infeasible += 1;
                    let unroll = unroll.to_string();
                    print_row([
                        stencil.name(),
                        &var,
                        &unroll,
                        "infeasible",
                        "-",
                        "-",
                        "-",
                        "-",
                    ]);
                    continue;
                };
                let errors = report.diags.iter().filter(|d| d.is_error()).count();
                let warnings = report
                    .diags
                    .iter()
                    .filter(|d| d.severity() == Severity::Warning)
                    .count();
                kernels += 1;
                total_errors += errors;
                total_warnings += warnings;
                let mark = if first == Some(unroll) { "*" } else { "" };
                print_row([
                    stencil.name(),
                    &var,
                    &format!("{mark}{unroll}"),
                    if errors > 0 { "REJECTED" } else { "clean" },
                    &report.bound.cycles.to_string(),
                    report.bound.binding(),
                    &warnings.to_string(),
                    &errors.to_string(),
                ]);
                for d in &report.diags {
                    findings.push(format!("{} {variant:?} u{unroll}: {d}", stencil.name()));
                }
            }
        }
    }

    if !findings.is_empty() {
        println!("\nfindings:");
        for f in &findings {
            println!("  {f}");
        }
    }
    println!(
        "\n{kernels} kernels verified ({infeasible} infeasible widths skipped): \
         {total_errors} errors, {total_warnings} warnings"
    );
    if total_errors > 0 {
        eprintln!("static verification found error-severity problems");
        std::process::exit(1);
    }
    println!("all compiled kernels statically verified clean");
}

/// One table row: kernel, variant, unroll, verdict, bound, binding
/// component, warnings, errors.
fn print_row(cells: [&str; 8]) {
    let [kernel, var, unroll, verdict, bound, binding, warnings, errors] = cells;
    println!(
        "{kernel:>12} {var:>6} {unroll:>7} {verdict:>11} {bound:>12} {binding:>12} \
         {warnings:>9} {errors:>7}"
    );
}
