//! Conformance of the `fp_issue` bound component with `snitch-sim`.
//!
//! On a straight-line FP program with SSRs off and no memory operation,
//! nothing the bound leaves out can cost a cycle: no stream runs dry, no
//! load waits on TCDM, no branch is taken, and the program fits one
//! instruction-cache line. The first op reaches the FP sequencer after
//! the cold instruction-cache miss and [`OFFLOAD`] cycles; from then on
//! the simulator issues every op on the schedule the bound replays,
//! shifted by that much, and the cluster stops the cycle after the last
//! issue. So `simulated cycles - StaticBound::cycles` is one constant
//! per configuration, and a latency that is off by one in either model —
//! or an op the bound lets issue out of order — makes some seeded program
//! miss it. Two configurations run: the paper's Snitch cluster, and one
//! with every FPU latency and the miss penalty changed.
//!
//! Every program ends in an FMA and an add of its result, so at least
//! one RAW stall makes the FP schedule, not the integer core's issue
//! count, what binds.
//!
//! The same holds when the program starts with an `frep.o` of 1-64 reps
//! around its random ops, with one more cost the bound leaves out: the
//! sequencer starts the loop only once the integer core has handed it
//! the whole body, one instruction per cycle, so the first rep issues
//! [`CAPTURE`] cycles per body instruction late. From then on the reps
//! follow the bound's schedule, which the verifier extrapolates once it
//! is periodic: a rep too many or too few, or a register left behind by
//! the extrapolation, makes some seeded program miss the constant.

use saris_core::rng::SplitMix64 as Rng;
use saris_isa::{FpR4Op, FpROp, FpReg, FpUOp, FrepCount, Instr, Program, ProgramBuilder};
use saris_verify::{verify_program, DiagKind, MemoryMap};
use snitch_sim::{Cluster, ClusterConfig};

/// Cycles from the end of the cold instruction-cache miss to the first
/// FP issue: simulated cycles minus the bound, less the miss penalty.
const OFFLOAD: u64 = 1;

/// Cycles per FREP body instruction by which the first rep of an FREP
/// at the start of a program issues later than a straight-line op in
/// its place would: the body is captured before the loop starts.
const CAPTURE: u64 = 1;

/// FP ops per program: with the final `halt`, one 16-instruction line.
const MAX_OPS: u64 = 15;

/// One of a handful of plain registers, so that ops read results of
/// recent ones and RAW chains form.
fn reg(rng: &mut Rng) -> FpReg {
    FpReg::new(3 + rng.below(6) as u8).expect("ft3..ft8")
}

/// A random straight-line FP op over every latency class.
fn op(rng: &mut Rng) -> Instr {
    let rd = reg(rng);
    let (rs1, rs2, rs3) = (reg(rng), reg(rng), reg(rng));
    match rng.below(3) {
        0 => Instr::FpR {
            op: [
                FpROp::Add,
                FpROp::Sub,
                FpROp::Mul,
                FpROp::Div,
                FpROp::Min,
                FpROp::Max,
            ][rng.below(6) as usize],
            rd,
            rs1,
            rs2,
        },
        1 => Instr::FpR4 {
            op: [FpR4Op::Madd, FpR4Op::Msub, FpR4Op::Nmadd, FpR4Op::Nmsub][rng.below(4) as usize],
            rd,
            rs1,
            rs2,
            rs3,
        },
        _ => Instr::FpU {
            op: [FpUOp::Mv, FpUOp::Abs, FpUOp::Neg, FpUOp::Sqrt][rng.below(4) as usize],
            rd,
            rs1,
        },
    }
}

/// Up to `MAX_OPS - 2` random ops, an FMA, an add of its result, then
/// `halt`: the add waits at least two cycles for the FMA.
fn program(rng: &mut Rng) -> Program {
    let mut b = ProgramBuilder::new();
    for _ in 0..rng.below(MAX_OPS - 1) {
        b.push(op(rng));
    }
    finish(b, rng)
}

/// An `frep.o` of 1-64 reps around 1 to `MAX_OPS - 3` random ops (the
/// `frep` takes the last slot of the line), then [`program`]'s ending;
/// also returns the body length.
fn frep_program(rng: &mut Rng) -> (Program, u64) {
    let mut b = ProgramBuilder::new();
    let n_instrs = 1 + rng.below(MAX_OPS - 3);
    b.push(Instr::Frep {
        count: FrepCount::Imm(rng.below(64) as u32),
        n_instrs: n_instrs as u8,
    });
    for _ in 0..n_instrs {
        b.push(op(rng));
    }
    (finish(b, rng), n_instrs)
}

/// Appends an FMA, an add of its result and `halt`.
fn finish(mut b: ProgramBuilder, rng: &mut Rng) -> Program {
    let product = reg(rng);
    b.push(Instr::FpR4 {
        op: FpR4Op::Madd,
        rd: product,
        rs1: reg(rng),
        rs2: reg(rng),
        rs3: reg(rng),
    });
    b.push(Instr::FpR {
        op: FpROp::Add,
        rd: reg(rng),
        rs1: product,
        rs2: reg(rng),
    });
    b.push(Instr::Halt);
    b.finish().expect("valid program")
}

/// The paper's Snitch cluster, and one with every FPU latency and the
/// miss penalty changed.
fn configs() -> [ClusterConfig; 2] {
    let snitch = ClusterConfig::snitch();
    let perturbed = ClusterConfig {
        fpu_latency_add: 2,
        fpu_latency_mul: 5,
        fpu_latency_fma: 3,
        fpu_latency_div: 7,
        fpu_latency_misc: 1,
        icache_miss_penalty: 3,
        ..snitch.clone()
    };
    [snitch, perturbed]
}

/// Checks that the FP issue component binds `program`'s bound and that
/// the simulator takes exactly `overhead` cycles more.
fn assert_bound_to_the_cycle(program: &Program, cfg: &ClusterConfig, overhead: u64, case: u32) {
    let report = verify_program(program, &MemoryMap::default(), cfg, 0);
    // Registers are never loaded (no memory ops): the only findings are
    // reads of registers nothing wrote, which the simulator reads as zero.
    assert!(
        report
            .diags
            .iter()
            .all(|d| matches!(d.kind, DiagKind::UseBeforeDef { .. })),
        "case {case}: {:?}",
        report.diags
    );
    assert!(report.halted, "case {case}");
    let bound = report.bound.cycles();
    assert_eq!(bound, report.bound.fp_issue, "case {case}: FP issue binds");
    let mut cluster = Cluster::new(cfg.clone());
    cluster.load_program(0, program);
    let simulated = cluster.run(100_000).expect("runs").cycles;
    assert_eq!(
        simulated,
        bound + overhead,
        "case {case}: {:?}\n{program}",
        report.bound
    );
}

#[test]
fn straight_line_fp_programs_are_bounded_to_the_cycle() {
    let mut rng = Rng::new(0x5a12_15f0);
    for cfg in configs() {
        let overhead = u64::from(cfg.icache_miss_penalty) + OFFLOAD;
        for case in 0..1_000 {
            assert_bound_to_the_cycle(&program(&mut rng), &cfg, overhead, case);
        }
    }
}

#[test]
fn frep_programs_are_bounded_to_the_cycle() {
    let mut rng = Rng::new(0xf4e9_0001);
    for cfg in configs() {
        let overhead = u64::from(cfg.icache_miss_penalty) + OFFLOAD;
        for case in 0..1_000 {
            let (program, n_instrs) = frep_program(&mut rng);
            assert_bound_to_the_cycle(&program, &cfg, overhead + CAPTURE * n_instrs, case);
        }
    }
}
