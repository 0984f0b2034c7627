//! Tuning by proof picks what exhaustive tuning picks.
//!
//! `Tune::Auto` proves every feasible candidate's cycle lower bound and
//! simulates only the candidates whose bound can still beat the best
//! measurement. That is exact only if every bound is a true lower bound
//! and the pruning honours the "first fastest in list order" tie rule.
//! Over gallery × {base, saris} × {paper tile, off-tile} × {no DMA,
//! concurrent DMA}, this test checks against an exhaustive sweep of
//! `Tune::Fixed` runs:
//!
//! * every feasible candidate's bound is at most its simulated cycles;
//! * `Tune::Auto`'s unroll, `RunReport` and output bits equal those of
//!   the sweep's first minimum;
//! * `TuningDecision::bounds` lists every feasible candidate (none when
//!   there is only one), every measurement it reports is the sweep's,
//!   and every candidate it did not simulate has a bound that cannot
//!   beat the winner.

use saris::prelude::*;
use saris_bench::paper_tile;

/// The paper tile and the off-tile of `tests/sim_reports.rs`.
fn tiles(stencil: &Stencil) -> [Extent; 2] {
    let off = match stencil.space() {
        Space::Dim2 => Extent::new_2d(24, 24),
        Space::Dim3 => Extent::cube(Space::Dim3, 10),
    };
    [paper_tile(stencil), off]
}

/// One row: a code in one variant at one tile, with or without DMA.
struct Row {
    stencil: Stencil,
    variant: Variant,
    tile: Extent,
    dma: bool,
}

impl Row {
    fn name(&self) -> String {
        let Row {
            stencil,
            variant,
            tile,
            dma,
        } = self;
        format!("{} {variant} {tile:?} dma={dma}", stencil.name())
    }

    fn options(&self, unroll: usize) -> RunOptions {
        let options = RunOptions::new(self.variant).with_unroll(unroll);
        if self.dma {
            options.with_concurrent_dma()
        } else {
            options
        }
    }

    fn spec(&self, unroll: usize, tune: Tune) -> WorkloadSpec {
        Workload::new(self.stencil.clone())
            .extent(self.tile)
            .input_seed(7)
            .options(self.options(unroll))
            .tune(tune)
            .freeze()
            .expect("valid workload")
    }

    /// Every feasible `Tune::Fixed` candidate with its proven bound,
    /// each checked to be at most its simulated cycles.
    fn sweep(&self, session: &Session) -> Vec<Swept> {
        let name = self.name();
        let mut swept = Vec::new();
        for unroll in DEFAULT_CANDIDATES {
            let outcome = match session.submit(&self.spec(unroll, Tune::Fixed)) {
                Ok(outcome) => outcome,
                Err(
                    CodegenError::RegisterPressure { .. } | CodegenError::FrepBodyTooLarge { .. },
                ) => continue,
                Err(e) => panic!("{name} u{unroll}: {e}"),
            };
            let bound = session
                .static_bound(&self.stencil, self.tile, &self.options(unroll))
                .unwrap_or_else(|e| panic!("{name} u{unroll}: {e}"))
                .cycles;
            let cycles = outcome.expect_report().cycles;
            assert!(
                bound <= cycles,
                "{name} u{unroll}: bound {bound} exceeds simulated {cycles}"
            );
            swept.push(Swept {
                unroll,
                bound,
                cycles,
                outcome,
            });
        }
        swept
    }
}

/// One feasible candidate of the exhaustive sweep.
struct Swept {
    unroll: usize,
    bound: u64,
    cycles: u64,
    outcome: Outcome,
}

fn bits(grids: &[Grid]) -> Vec<Vec<u64>> {
    grids
        .iter()
        .map(|g| g.as_slice().iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Checks one row; returns `(feasible candidates, simulated candidates)`.
fn check(row: &Row, sweep: &Session, tuner: &Session) -> (usize, usize) {
    let name = row.name();
    let swept = row.sweep(sweep);
    // The first minimum in candidate order.
    let winner = swept
        .iter()
        .reduce(|best, s| if s.cycles < best.cycles { s } else { best })
        .unwrap_or_else(|| panic!("{name}: no feasible candidate"));

    let tuned = tuner
        .submit(&row.spec(1, Tune::Auto))
        .unwrap_or_else(|e| panic!("{name} tuned: {e}"));
    let tuning = tuned.tuning.as_ref().expect("tuned");
    assert_eq!(tuning.unroll, winner.unroll, "{name}: {tuning:?}");
    assert_eq!(tuned.reports, winner.outcome.reports, "{name}");
    assert_eq!(bits(&tuned.grids), bits(&winner.outcome.grids), "{name}");

    let bounds: Vec<(usize, u64)> = match swept.len() {
        1 => Vec::new(),
        _ => swept.iter().map(|s| (s.unroll, s.bound)).collect(),
    };
    assert_eq!(tuning.bounds, bounds, "{name}");
    for &(unroll, cycles) in &tuning.measured {
        let s = swept.iter().find(|s| s.unroll == unroll);
        assert_eq!(s.map(|s| s.cycles), Some(cycles), "{name} u{unroll}");
    }
    // A candidate left unsimulated must be provably unable to win: its
    // bound exceeds the winner's cycles, or equals them and it comes
    // later in the list.
    let position = |unroll| swept.iter().position(|s| s.unroll == unroll);
    for s in &swept {
        if !tuning.measured.iter().any(|&(u, _)| u == s.unroll) {
            assert!(
                (s.bound, position(s.unroll)) > (winner.cycles, position(winner.unroll)),
                "{name} u{}: skipped with bound {} under the winner's {} cycles",
                s.unroll,
                s.bound,
                winner.cycles
            );
        }
    }
    (swept.len(), tuning.measured.len())
}

#[test]
fn pruned_tuning_equals_the_exhaustive_first_minimum() {
    let (sweep, tuner) = (Session::new(), Session::new());
    let (mut feasible, mut simulated) = (0, 0);
    for stencil in gallery::all() {
        for variant in [Variant::Base, Variant::Saris] {
            for tile in tiles(&stencil) {
                for dma in [false, true] {
                    let row = Row {
                        stencil: stencil.clone(),
                        variant,
                        tile,
                        dma,
                    };
                    let (f, s) = check(&row, &sweep, &tuner);
                    feasible += f;
                    simulated += s;
                }
            }
        }
    }
    // The proofs must spare simulations, or the tuner is exhaustive again.
    assert!(
        simulated < feasible,
        "{simulated} of {feasible} candidates simulated"
    );
}
