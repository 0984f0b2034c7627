//! `compile_verify`: the `verify_kernels` sweep as a loop — every
//! gallery code in both variants at every default unroll candidate,
//! compiled at its paper tile and pushed through the static verifier.
//!
//! Why: `saris-codegen`, `saris-isa` and `saris-verify` do all the work
//! and the simulator none. It is the bypass workload for any simulator
//! change and the target for any code-generator or verifier change.

use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use saris::codegen::verify_kernel;
use saris::prelude::*;
use saris_bench::paper_tile;

use crate::driver::{ledger_pass, per_round, Rec, Stages, Workload as Bench};
use crate::metrics::Metrics;
use crate::rng::SplitMix64;

/// Unroll widths the code generator refuses for lack of registers or
/// FREP capacity. They are expected answers; any other count is a
/// change in behaviour and fails set-up.
const EXPECTED_INFEASIBLE: usize = 6;

struct Attempt {
    stencil: Arc<Stencil>,
    tile: Extent,
    options: RunOptions,
    /// What the set-up round saw: `false` for a refused width.
    feasible: bool,
}

impl Attempt {
    fn spans(&self) -> (&'static str, &'static str) {
        match self.options.variant {
            Variant::Base => ("codegen.compile.base", "verify.kernel.base"),
            Variant::Saris => ("codegen.compile.saris", "verify.kernel.saris"),
        }
    }

    fn label(&self) -> String {
        format!(
            "{} {} u{}",
            self.stencil.name(),
            self.options.variant,
            self.options.unroll
        )
    }
}

fn refused(e: &CodegenError) -> bool {
    matches!(
        e,
        CodegenError::RegisterPressure { .. } | CodegenError::FrepBodyTooLarge { .. }
    )
}

pub struct CompileVerify {
    attempts: Vec<Attempt>,
}

impl CompileVerify {
    const LEDGER_ROUNDS: u64 = 5;
    /// Attempts of one sweep over the gallery.
    const SWEEP: u64 = 60;
}

impl Bench for CompileVerify {
    const NAME: &'static str = "compile_verify";
    const CLIENTS: usize = 1;
    // The 60 attempts differ and take 70 ms together: each is a round of
    // its own kind.
    const ROUND: u64 = 1;
    const KINDS: u64 = Self::SWEEP;
    const LEDGER_OPS: u64 = Self::SWEEP * Self::LEDGER_ROUNDS;

    fn setup(seed: u64, stages: &mut Stages) -> CompileVerify {
        let mut attempts = Vec::new();
        for stencil in gallery::all().into_iter().map(Arc::new) {
            let tile = paper_tile(&stencil);
            for variant in [Variant::Base, Variant::Saris] {
                for &unroll in &DEFAULT_CANDIDATES {
                    let options = RunOptions::new(variant).with_unroll(unroll);
                    // The set-up round fixes which widths are refused
                    // and that everything else verifies clean.
                    let feasible = match compile(&stencil, tile, &options) {
                        Ok(kernel) => {
                            let report = verify_kernel(&stencil, &kernel, &options);
                            assert!(
                                !report.has_errors(),
                                "{} {variant} u{unroll}: static verification failed",
                                stencil.name()
                            );
                            true
                        }
                        Err(e) if refused(&e) => false,
                        Err(e) => panic!("{} {variant} u{unroll}: {e}", stencil.name()),
                    };
                    attempts.push(Attempt {
                        stencil: Arc::clone(&stencil),
                        tile,
                        options,
                        feasible,
                    });
                }
            }
            stages.end_stage();
        }
        assert_eq!(attempts.len() as u64, Self::SWEEP);
        let infeasible = attempts.iter().filter(|a| !a.feasible).count();
        assert_eq!(
            infeasible, EXPECTED_INFEASIBLE,
            "the gallery sweep has {EXPECTED_INFEASIBLE} infeasible widths"
        );
        SplitMix64::new(seed).shuffle(&mut attempts);
        CompileVerify { attempts }
    }

    fn op(&self, _client: usize, k: u64, rec: &mut Rec) {
        let attempt = &self.attempts[(k % Self::SWEEP) as usize];
        let (compile_span, verify_span) = attempt.spans();
        let root = rec.tracer.begin("op", k);
        let start = Instant::now();
        let compiled = rec.tracer.span(compile_span, k, || {
            black_box(compile(
                black_box(&attempt.stencil),
                attempt.tile,
                black_box(&attempt.options),
            ))
        });
        let report = compiled.as_ref().ok().map(|kernel| {
            rec.tracer.span(verify_span, k, || {
                black_box(verify_kernel(
                    &attempt.stencil,
                    black_box(kernel),
                    &attempt.options,
                ))
            })
        });
        let latency = start.elapsed();
        match (&compiled, &report) {
            (Ok(kernel), Some(report)) if attempt.feasible => {
                let errors = report.diags.iter().filter(|d| d.is_error()).count();
                if errors == 0 {
                    rec.ok(latency);
                } else {
                    rec.fail(|| format!("{}: {errors} error findings", attempt.label()));
                }
                if rec.ledger {
                    rec.count("codegen.instrs_total", kernel.total_instrs() as u64);
                    rec.count("verify.error_findings", errors as u64);
                    rec.count("verify.bound_cycles_total", report.bound.cycles);
                }
            }
            (Err(e), _) if !attempt.feasible && refused(e) => {
                rec.ok(latency);
                if rec.ledger {
                    rec.count("codegen.infeasible", 1);
                }
            }
            (Ok(_), _) => rec.fail(|| format!("{}: compiled, refused at set-up", attempt.label())),
            (Err(e), _) => rec.fail(|| format!("{}: {e}", attempt.label())),
        }
        rec.tracer.end(root);
    }

    fn request_fingerprint(&self, _client: usize, k: u64) -> u64 {
        let attempt = &self.attempts[(k % Self::SWEEP) as usize];
        let mut h = std::collections::hash_map::DefaultHasher::new();
        attempt.stencil.fingerprint().hash(&mut h);
        attempt.options.compile_fingerprint().hash(&mut h);
        h.finish()
    }

    fn ledger(&self, next_k: &mut [u64], epoch: Instant, out: &mut Metrics) -> Rec {
        let mut rec = ledger_pass(self, next_k, epoch);
        for name in [
            "codegen.instrs_total",
            "codegen.infeasible",
            "verify.error_findings",
            "verify.bound_cycles_total",
        ] {
            let value = per_round(&mut rec, name, Self::LEDGER_ROUNDS);
            out.set(name, value);
        }
        for (metric, span) in [
            ("codegen.compile_us.base", "codegen.compile.base"),
            ("codegen.compile_us.saris", "codegen.compile.saris"),
            ("verify.kernel_us.base", "verify.kernel.base"),
            ("verify.kernel_us.saris", "verify.kernel.saris"),
        ] {
            out.set(metric, rec.tracer.median_us(span));
        }
        rec
    }
}
