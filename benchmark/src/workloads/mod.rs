//! The five workloads, and what the three serving workloads share: the
//! 16×16 request family and the checks on its answers.

use std::sync::Arc;

use saris::prelude::*;

pub mod compile_verify;
pub mod serve;
pub mod sharded_net;
pub mod sim_gallery;

/// The tier cycle: three cycle-tier requests in five, one golden, one
/// analytic. Not half and half: with exactly half the requests on the
/// slow tier the median latency of an all-miss stream would sit on the
/// edge between two modes and flip between them from run to run.
const TIERS: [Fidelity; 5] = [
    Fidelity::Cycles,
    Fidelity::Golden,
    Fidelity::Cycles,
    Fidelity::Analytic,
    Fidelity::Cycles,
];

/// Ids reserved for warm-up requests, far above any id a measured
/// stream reaches.
const WARM_BASE: u64 = 1 << 40;

/// The serving workloads' request family: 16×16 tiles over three 2D
/// codes, the tier and code cycling with the request id (five tier slots
/// against three codes, so all fifteen pairs occur), the input seed
/// offset by it — so two ids never share a spec.
pub struct RequestFamily {
    codes: [Arc<Stencil>; 3],
    input_base: u64,
}

impl RequestFamily {
    pub fn new(seed: u64) -> RequestFamily {
        let code = |name| Arc::new(gallery::by_name(name).expect("gallery code"));
        RequestFamily {
            codes: [code("jacobi_2d"), code("j2d5pt"), code("box2d1r")],
            input_base: crate::rng::SplitMix64::new(seed).next_u64() >> 8,
        }
    }

    pub fn tier(id: u64) -> Fidelity {
        TIERS[(id % TIERS.len() as u64) as usize]
    }

    /// The spec with this id. Cycle-tier specs verify against the
    /// golden reference inside the submission.
    pub fn spec(&self, id: u64) -> WorkloadSpec {
        let workload = Workload::new(Arc::clone(&self.codes[(id % 3) as usize]))
            .extent(Extent::new_2d(16, 16))
            .input_seed(self.input_base.wrapping_add(id))
            .fidelity(Self::tier(id));
        match Self::tier(id) {
            Fidelity::Cycles => workload.verify(1e-9),
            _ => workload,
        }
        .freeze()
        .expect("serving specs are valid")
    }

    /// One spec per (code, tier slot) pair: submitting them compiles
    /// every kernel the family needs.
    pub fn warm_specs(&self) -> Vec<WorkloadSpec> {
        (0..3 * TIERS.len() as u64)
            .map(|i| self.spec(WARM_BASE + i))
            .collect()
    }
}

/// The cheap check every answer gets: it is the answer to this spec
/// and has the shape its tier promises.
pub fn plausible(spec: &WorkloadSpec, outcome: &Outcome) -> Result<(), String> {
    if outcome.fingerprint != spec.fingerprint() {
        return Err(format!(
            "answer carries fingerprint {:#x}, spec has {:#x}",
            outcome.fingerprint,
            spec.fingerprint()
        ));
    }
    let ok = match spec.fidelity() {
        Some(Fidelity::Cycles) => {
            outcome.verify_error.is_some_and(|e| e <= 1e-9)
                && outcome.reports.len() == 1
                && !outcome.telemetry.estimated
                && !outcome.telemetry.degraded
        }
        Some(Fidelity::Golden) => outcome.grids.len() == 1 && !outcome.telemetry.degraded,
        Some(Fidelity::Analytic) => outcome.telemetry.estimated && outcome.grids.is_empty(),
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "answer does not look like a {:?} answer",
            spec.fidelity()
        ))
    }
}

/// The bit-for-bit check against a bare `Session` answering the same
/// spec: fingerprint, per-report cycles, grid bits. Analytic cycle
/// counts are estimates from each session's own live calibration store
/// and are not compared.
pub fn same_answer(spec: &WorkloadSpec, served: &Outcome, bare: &Session) -> Result<(), String> {
    let own = bare
        .submit(spec)
        .map_err(|e| format!("bare session: {e}"))?;
    if served.fingerprint != own.fingerprint {
        return Err("fingerprints differ from the bare session's".to_string());
    }
    if spec.fidelity() != Some(Fidelity::Analytic) {
        let cycles = |o: &Outcome| o.reports.iter().map(|r| r.cycles).collect::<Vec<_>>();
        if cycles(served) != cycles(&own) {
            return Err(format!(
                "cycles {:?} differ from the bare session's {:?}",
                cycles(served),
                cycles(&own)
            ));
        }
    }
    let bits = |o: &Outcome| -> Vec<Vec<u64>> {
        o.grids
            .iter()
            .map(|g| g.as_slice().iter().map(|v| v.to_bits()).collect())
            .collect()
    };
    if bits(served) != bits(&own) {
        return Err("grid bits differ from the bare session's".to_string());
    }
    Ok(())
}
