//! The verifier refuses exactly the FREP bodies the simulator refuses.
//!
//! The sequencer holds at most `ClusterConfig::sequencer_depth` body
//! instructions and needs at least one; `Cluster::run` stops any other
//! FREP with `SimError::FrepMisuse`. Seeded programs put `frep.o` around
//! bodies of 0, 1, depth - 1, depth, depth + 1 and 255 `fadd.d` (every
//! register they read defined by a load first, so nothing else is an
//! error) on the paper's Snitch cluster (depth 128) and on one with a
//! depth of 16. Each program is verified and simulated: the verifier must
//! report an error exactly when the simulator refuses the program, and
//! that error must name the body length and the depth.

use saris_core::rng::SplitMix64;
use saris_isa::{FpROp, FpReg, FrepCount, Instr, IntReg, Program};
use saris_verify::{verify_program, DiagKind, MemoryMap};
use snitch_sim::{Cluster, ClusterConfig, SimError, TCDM_BASE};

/// Programs per body length and configuration.
const CASES: u64 = 8;

/// The registers the bodies read and write, all loaded up front.
const REGS: [u8; 4] = [3, 4, 5, 6];

fn reg(rng: &mut SplitMix64) -> FpReg {
    FpReg::new(REGS[rng.below(REGS.len() as u64) as usize]).expect("ft3..ft6")
}

/// Loads every register in [`REGS`], then `frep.o` of 1-8 reps around
/// `n_instrs` seeded `fadd.d`, then `halt`. Built unvalidated, so that
/// an empty body reaches both checkers.
fn program(rng: &mut SplitMix64, n_instrs: u8) -> Program {
    let mut instrs = vec![Instr::Li {
        rd: IntReg::T0,
        imm: TCDM_BASE as i64,
    }];
    for (i, &r) in REGS.iter().enumerate() {
        instrs.push(Instr::Fld {
            rd: FpReg::new(r).expect("ft3..ft6"),
            base: IntReg::T0,
            imm: 8 * i as i32,
        });
    }
    instrs.push(Instr::Frep {
        count: FrepCount::Imm(rng.below(8) as u32),
        n_instrs,
    });
    for _ in 0..n_instrs {
        instrs.push(Instr::FpR {
            op: FpROp::Add,
            rd: reg(rng),
            rs1: reg(rng),
            rs2: reg(rng),
        });
    }
    instrs.push(Instr::Halt);
    Program::from_raw_instrs(instrs)
}

#[test]
fn verifier_refuses_exactly_the_bodies_the_simulator_refuses() {
    let snitch = ClusterConfig::snitch();
    let shallow = ClusterConfig {
        sequencer_depth: 16,
        ..snitch.clone()
    };
    let mut map = MemoryMap::default();
    map.grant("in", TCDM_BASE, 8 * REGS.len() as u64, false);
    let mut rng = SplitMix64::new(0xf4e9_de97);
    for cfg in [snitch, shallow] {
        let depth = cfg.sequencer_depth;
        let mut refused = 0;
        for n_instrs in [0, 1, depth - 1, depth, depth + 1, 255] {
            let n_instrs = u8::try_from(n_instrs).expect("an encodable body");
            for case in 0..CASES {
                let program = program(&mut rng, n_instrs);
                let report = verify_program(&program, &map, &cfg, 0);
                let mut cluster = Cluster::new(cfg.clone());
                cluster.load_program(0, &program);
                let simulated = cluster.run(1_000_000);
                let sim_refuses = match &simulated {
                    Ok(_) => false,
                    Err(SimError::FrepMisuse { .. }) => true,
                    Err(e) => panic!("depth {depth}, body {n_instrs}, case {case}: {e}"),
                };
                let errors: Vec<_> = report.diags.iter().filter(|d| d.is_error()).collect();
                assert_eq!(
                    !errors.is_empty(),
                    sim_refuses,
                    "depth {depth}, body {n_instrs}, case {case}: {:?}",
                    report.diags
                );
                assert_eq!(sim_refuses, !cfg.frep_body_fits(n_instrs.into()));
                if !sim_refuses {
                    continue;
                }
                refused += 1;
                assert!(
                    errors
                        .iter()
                        .all(|d| matches!(d.kind, DiagKind::Malformed { .. })),
                    "{errors:?}"
                );
                // An empty body fails structural validation first.
                if n_instrs > 0 {
                    let reason = errors[0].to_string();
                    assert!(
                        reason.contains(&format!("frep body of {n_instrs} instructions"))
                            && reason.contains(&format!("depth {depth}")),
                        "{reason}"
                    );
                }
            }
        }
        // The empty body, depth + 1 and 255.
        assert_eq!(refused, 3 * CASES, "depth {depth}");
    }
}
