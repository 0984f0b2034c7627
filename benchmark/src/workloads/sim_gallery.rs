//! `sim_gallery`: the ten gallery codes in both variants, plus
//! `jacobi_2d` SARIS with concurrent DMA, through one warm `Session`.
//!
//! Why: `snitch-sim` does nearly all of the work and nothing can hide
//! it. Base and SARIS rows drive the same simulator differently (integer
//! pipeline and LSU against stream registers and FREP), so a streamer
//! speed-up that costs the base path shows in this workload's own
//! per-group numbers.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use saris::energy::efficiency_gain;
use saris::prelude::*;
use saris_bench::{
    geomean, paper_tile, paper_workload, power_of, scaleout_of_in, CodeResult, PAPER_TOLERANCE,
};

use super::serve::set_session_counts;
use crate::driver::{ledger_pass, per_round, Rec, Stages, Workload as Bench};
use crate::metrics::Metrics;
use crate::rng::SplitMix64;
use crate::stats;

/// How many times each reference executor runs per code in the probe.
const REFERENCE_REPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Group {
    Base,
    Saris,
    SarisDma,
}

impl Group {
    fn span(self) -> &'static str {
        match self {
            Group::Base => "session.submit.base",
            Group::Saris => "session.submit.saris",
            Group::SarisDma => "session.submit.saris_dma",
        }
    }

    fn host_ns_per_cycle(self) -> &'static str {
        match self {
            Group::Base => "sim.host_ns_per_cycle.base",
            Group::Saris => "sim.host_ns_per_cycle.saris",
            Group::SarisDma => "sim.host_ns_per_cycle.saris_dma",
        }
    }
}

struct SimOp {
    group: Group,
    stencil: Arc<Stencil>,
    tile: Extent,
    input_seed: u64,
    options: RunOptions,
    spec: WorkloadSpec,
    /// Cycles of the warm-up submission; every later answer must match.
    cycles: u64,
}

/// The paper-level figures of merit from the tuned, verified gallery
/// evaluation, with the paper's own values to hold them against.
struct Model {
    values: [(&'static str, f64, f64); 5],
    scaleout_call_us: Vec<f64>,
}

impl Model {
    fn evaluate(session: &Session, stages: &mut Stages) -> Model {
        // `saris_bench::evaluate_all_in`, one tuned and verified
        // submission at a time, so that each is a stage of the set-up.
        let mut tuned = |stencil: &Arc<Stencil>, variant| {
            let outcome = session
                .submit(&paper_workload(stencil, variant))
                .unwrap_or_else(|e| panic!("{} {variant}: {e}", stencil.name()));
            stages.end_stage();
            outcome
        };
        let results: Vec<CodeResult> = gallery::all()
            .into_iter()
            .map(Arc::new)
            .map(|stencil| CodeResult {
                tile: paper_tile(&stencil),
                base: tuned(&stencil, Variant::Base),
                saris: tuned(&stencil, Variant::Saris),
                stencil,
            })
            .collect();
        let mut gains = Vec::new();
        let mut scale_speedups = Vec::new();
        let mut scale_utils = Vec::new();
        let mut scaleout_call_us = Vec::new();
        for r in &results {
            let (base, saris) = power_of(r);
            gains.push(efficiency_gain(&base, &saris));
            let start = Instant::now();
            let (sb, ss) = black_box(scaleout_of_in(session, black_box(r)));
            scaleout_call_us.push(start.elapsed().as_secs_f64() * 1e6);
            scale_speedups.push(sb.total_cycles / ss.total_cycles);
            scale_utils.push(ss.fpu_util);
            stages.end_stage();
        }
        let saris_util = results.iter().map(|r| r.saris.expect_report().fpu_util());
        Model {
            values: [
                (
                    "model.speedup_geomean",
                    geomean(results.iter().map(CodeResult::speedup)),
                    2.72,
                ),
                ("model.fpu_util_saris_geomean", geomean(saris_util), 0.81),
                ("model.energy_gain_geomean", geomean(gains), 1.58),
                (
                    "model.scaleout_speedup_geomean",
                    geomean(scale_speedups),
                    2.14,
                ),
                (
                    "model.scaleout_fpu_util_saris_geomean",
                    geomean(scale_utils),
                    0.64,
                ),
            ],
            scaleout_call_us,
        }
    }

    /// Mean relative distance from the paper's five headline values.
    fn fidelity_err(&self) -> f64 {
        self.values
            .iter()
            .map(|(_, ours, paper)| (ours - paper).abs() / paper)
            .sum::<f64>()
            / self.values.len() as f64
    }
}

pub struct SimGallery {
    session: Session,
    ops: Vec<SimOp>,
    model: Model,
}

impl SimGallery {
    const LEDGER_ROUNDS: u64 = 5;

    fn inputs(op: &SimOp) -> Vec<Grid> {
        op.stencil
            .input_arrays()
            .enumerate()
            .map(|(i, _)| Grid::pseudo_random(op.tile, op.input_seed.wrapping_add(i as u64)))
            .collect()
    }

    /// Books what one answered operation did, from its `RunReport`.
    fn account(
        &self,
        op: &SimOp,
        outcome: &Outcome,
        latency_ns: f64,
        first_round: bool,
        rec: &mut Rec,
    ) {
        let report = outcome.expect_report();
        rec.sample(
            op.group.host_ns_per_cycle(),
            latency_ns / report.cycles as f64,
        );
        if let Some(error) = outcome.verify_error {
            rec.sample("core.sim_vs_reference_max_err", error);
        }
        match op.group {
            Group::Base => {
                rec.count("sim.cycles.base", report.cycles);
                rec.sample("sim.fpu_util.base", report.fpu_util());
                rec.sample("sim.ipc.base", report.ipc());
            }
            Group::Saris => {
                rec.count("sim.cycles.saris", report.cycles);
                rec.sample("sim.fpu_util.saris", report.fpu_util());
                rec.sample("sim.ipc.saris", report.ipc());
            }
            Group::SarisDma => {}
        }
        rec.count("sim.cycles_fast_forwarded", report.cycles_fast_forwarded);
        rec.count("sim.tcdm_accesses", report.tcdm_accesses);
        rec.count("sim.tcdm_conflicts", report.tcdm_conflicts);
        rec.count("sim.icache_misses", report.icache_misses);
        rec.count("sim.dma.bytes", report.dma.bytes);
        rec.count("sim.dma.busy_cycles", report.dma.busy_cycles);
        let int = report.total_int_stalls();
        rec.count("sim.stall.int_lsu", int.lsu);
        rec.count("sim.stall.int_offload_full", int.offload_full);
        rec.count("sim.stall.int_icache", int.icache);
        rec.count("sim.stall.int_branch", int.branch);
        rec.count("sim.stall.int_drain", int.drain);
        for core in &report.cores {
            rec.count("sim.tcdm_wait_cycles", core.tcdm_wait_cycles);
            let fpu = core.fpu.stalls;
            rec.count("sim.stall.fpu_dependency", fpu.dependency);
            rec.count("sim.stall.fpu_stream_empty", fpu.stream_empty);
            rec.count("sim.stall.fpu_stream_full", fpu.stream_full);
            rec.count("sim.stall.fpu_lsu_busy", fpu.lsu_busy);
            rec.count("sim.stall.fpu_idle", fpu.idle);
            for streamer in &core.streamers {
                rec.count("sim.ssr.elems", streamer.elems);
                rec.count("sim.ssr.idx_fetches", streamer.idx_fetches);
                rec.count("sim.ssr.idle_full_cycles", streamer.idle_full_cycles);
            }
        }
        // The static bound of the very kernel that ran, once per kernel.
        if first_round && op.group != Group::SarisDma {
            if let Some(kernel) = &outcome.kernel {
                let bound = saris::codegen::verify_kernel(&op.stencil, kernel, &op.options).bound;
                rec.count("verify.bound_cycles", bound.cycles);
                rec.count("verify.bound_sim_cycles", report.cycles);
            }
        }
    }

    /// Times both reference executors over the gallery at the paper
    /// tiles and returns (SIMD, scalar) nanoseconds per interior point.
    fn reference_probe(&self) -> (f64, f64) {
        let mut simd = Vec::new();
        let mut scalar = Vec::new();
        for op in self.ops.iter().filter(|op| op.group == Group::Base) {
            let inputs = Self::inputs(op);
            let refs: Vec<&Grid> = inputs.iter().collect();
            let points = op.stencil.interior(op.tile).len() as f64;
            let mut out = Grid::zeros(op.tile);
            for _ in 0..REFERENCE_REPS {
                let start = Instant::now();
                reference::apply(&op.stencil, black_box(&refs), &mut out);
                black_box(&out);
                simd.push(start.elapsed().as_nanos() as f64 / points);
                let start = Instant::now();
                reference::apply_scalar(&op.stencil, black_box(&refs), &mut out);
                black_box(&out);
                scalar.push(start.elapsed().as_nanos() as f64 / points);
            }
        }
        (stats::median(&simd), stats::median(&scalar))
    }
}

impl Bench for SimGallery {
    const NAME: &'static str = "sim_gallery";
    const CLIENTS: usize = 1;
    // The 21 operations differ, and all of them take 0.13 s: each is a
    // round of its own kind.
    const ROUND: u64 = 1;
    const KINDS: u64 = 21;
    const LEDGER_OPS: u64 = Self::KINDS * Self::LEDGER_ROUNDS;

    fn setup(seed: u64, stages: &mut Stages) -> SimGallery {
        let mut rng = SplitMix64::new(seed);
        let input_seed = rng.next_u64() >> 8;
        let session = Session::new();
        let mut ops = Vec::new();
        let mut push = |stencil: &Arc<Stencil>, group: Group, options: RunOptions| {
            let tile = paper_tile(stencil);
            let workload = Workload::new(Arc::clone(stencil))
                .extent(tile)
                .input_seed(input_seed)
                .options(options.clone());
            // Concurrent DMA streams tiles through the arena while the
            // kernel runs, so that row's output is not the reference's;
            // its check is the reproduced cycle count alone.
            let spec = match group {
                Group::SarisDma => workload,
                _ => workload.verify(PAPER_TOLERANCE),
            }
            .freeze()
            .expect("gallery workloads are valid");
            // The warm-up submission compiles the kernel and pins the
            // cycle count every measured answer must reproduce.
            let cycles = session
                .submit(&spec)
                .unwrap_or_else(|e| panic!("{} {group:?}: {e}", stencil.name()))
                .total_cycles();
            ops.push(SimOp {
                group,
                stencil: Arc::clone(stencil),
                tile,
                input_seed,
                options,
                spec,
                cycles,
            });
            stages.end_stage();
        };
        for stencil in gallery::all().into_iter().map(Arc::new) {
            push(
                &stencil,
                Group::Base,
                RunOptions::new(Variant::Base).with_unroll(1),
            );
            push(
                &stencil,
                Group::Saris,
                RunOptions::new(Variant::Saris).with_unroll(1),
            );
        }
        push(
            &Arc::new(gallery::jacobi_2d()),
            Group::SarisDma,
            RunOptions::new(Variant::Saris)
                .with_unroll(1)
                .with_concurrent_dma(),
        );
        assert_eq!(ops.len() as u64, Self::KINDS);
        rng.shuffle(&mut ops);
        let model = Model::evaluate(&session, stages);
        SimGallery {
            session,
            ops,
            model,
        }
    }

    fn op(&self, _client: usize, k: u64, rec: &mut Rec) {
        let op = &self.ops[(k % Self::KINDS) as usize];
        let root = rec.tracer.begin("op", k);
        let start = Instant::now();
        let result = rec.tracer.span(op.group.span(), k, || {
            black_box(self.session.submit(black_box(&op.spec)))
        });
        let latency = start.elapsed();
        match result {
            Ok(outcome)
                if outcome.total_cycles() == op.cycles
                    && (op.group == Group::SarisDma
                        || outcome.verify_error.is_some_and(|e| e <= PAPER_TOLERANCE)) =>
            {
                rec.sim_cycles += op.cycles;
                rec.ok(latency);
                if rec.ledger {
                    self.account(
                        op,
                        &outcome,
                        latency.as_nanos() as f64,
                        k < Self::KINDS,
                        rec,
                    );
                }
                if rec.replays(k) {
                    // What the in-submission verification paid for.
                    let inputs = Self::inputs(op);
                    let refs: Vec<&Grid> = inputs.iter().collect();
                    let mut out = Grid::zeros(op.tile);
                    rec.tracer.span("reference.apply", k, || {
                        reference::apply(&op.stencil, black_box(&refs), &mut out);
                        black_box(&out);
                    });
                }
            }
            Ok(outcome) => rec.fail(|| {
                format!(
                    "{} {:?}: {} cycles (warm-up {}), verify error {:?}",
                    op.stencil.name(),
                    op.group,
                    outcome.total_cycles(),
                    op.cycles,
                    outcome.verify_error
                )
            }),
            Err(e) => rec.fail(|| format!("{} {:?}: {e}", op.stencil.name(), op.group)),
        }
        rec.tracer.end(root);
    }

    fn request_fingerprint(&self, _client: usize, k: u64) -> u64 {
        self.ops[(k % Self::KINDS) as usize].spec.fingerprint()
    }

    fn ledger(&self, next_k: &mut [u64], epoch: Instant, out: &mut Metrics) -> Rec {
        let before = self.session.stats();
        let mut rec = ledger_pass(self, next_k, epoch);
        let after = self.session.stats();

        let counts: Vec<&'static str> = rec
            .counts()
            .map(|(name, _)| name)
            .filter(|name| name.starts_with("sim."))
            .collect();
        for name in counts {
            let value = per_round(&mut rec, name, Self::LEDGER_ROUNDS);
            out.set(name, value);
        }
        for name in [
            "sim.host_ns_per_cycle.base",
            "sim.host_ns_per_cycle.saris",
            "sim.host_ns_per_cycle.saris_dma",
        ] {
            out.set(name, stats::median(rec.samples(name)));
        }
        for name in [
            "sim.fpu_util.base",
            "sim.fpu_util.saris",
            "sim.ipc.base",
            "sim.ipc.saris",
        ] {
            let samples = rec.samples(name);
            out.set(
                name,
                samples.iter().sum::<f64>() / samples.len().max(1) as f64,
            );
        }
        out.set(
            "core.sim_vs_reference_max_err",
            rec.samples("core.sim_vs_reference_max_err")
                .iter()
                .fold(0.0, |a, &b| a.max(b)),
        );
        out.set(
            "verify.bound_tightness",
            rec.counted("verify.bound_cycles") as f64
                / rec.counted("verify.bound_sim_cycles").max(1) as f64,
        );
        set_session_counts(out, &[(before, after)]);

        let (simd, scalar) = self.reference_probe();
        out.set("core.reference_simd_ns_per_point", simd);
        out.set("core.reference_scalar_ns_per_point", scalar);

        for (name, ours, _) in self.model.values {
            out.set(name, ours);
        }
        out.set("fidelity_err", self.model.fidelity_err());
        out.set(
            "model.scaleout_estimate_us",
            stats::median(&self.model.scaleout_call_us),
        );
        rec
    }

    fn notes(&self) -> Vec<String> {
        let mut notes = vec![format!(
            "fidelity_err = {:?} ratio",
            self.model.fidelity_err()
        )];
        for (name, ours, paper) in self.model.values {
            notes.push(format!("{name} = {ours:?} (paper {paper})"));
        }
        notes
    }
}
