//! The kernel runtime: compilation ([`compile`]) and the low-level
//! install/execute/read-back machinery behind the session backends.
//!
//! Callers do not execute kernels from here — build a
//! [`Workload`](crate::Workload) and [`submit`](crate::Session::submit)
//! it to a [`Session`](crate::Session) instead.

use std::fmt;

use saris_core::grid::Grid;
use saris_core::key::key_of;
use saris_core::layout::{ArenaLayout, ELEM_BYTES};
use saris_core::method::{SarisOptions, SarisPlan, StreamMode};
use saris_core::parallel::InterleavePlan;
use saris_core::stencil::{ArrayRole, Stencil};
use saris_core::Extent;
use snitch_sim::{Cluster, ClusterConfig, DmaDescriptor, RunReport, MAIN_BASE};

use crate::base::CompiledCore;
use crate::error::CodegenError;
use crate::map::TcdmMap;
use crate::saris::{gen_saris_core, SarisPlans};

/// Which code generator to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Optimized RV32G baseline (no extensions).
    Base,
    /// SARIS-accelerated (SSSR + FREP).
    Saris,
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Variant::Base => f.write_str("base"),
            Variant::Saris => f.write_str("saris"),
        }
    }
}

/// Options controlling compilation and execution. Every field is keyed
/// by being declared; the fields each key over options leaves out:
///
/// - [`WorkloadSpec::fingerprint`](crate::WorkloadSpec::fingerprint): none;
/// - [`compile_fingerprint`](RunOptions::compile_fingerprint): `max_cycles`
///   and `concurrent_dma`, which only shape execution;
/// - [`execution_context`](crate::calibration::execution_context):
///   `max_cycles`, a budget that does not change what a run measures.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct RunOptions {
    /// Code generator.
    pub variant: Variant,
    /// Unroll factor (set [`Tune::Auto`](crate::Tune::Auto) on the
    /// workload for "iff beneficial" selection).
    pub unroll: usize,
    /// Core interleaving.
    pub interleave: InterleavePlan,
    /// Cluster configuration.
    pub cluster: ClusterConfig,
    /// SARIS planner knobs.
    pub saris: SarisOptions,
    /// Simulation cycle budget (0 = auto from problem size).
    pub max_cycles: u64,
    /// Mirror the paper's double buffering by streaming a tile-sized DMA
    /// transfer in and out of main memory concurrently with the kernel.
    pub concurrent_dma: bool,
    /// Accumulators for the arithmetic-reassociation pass applied before
    /// code generation (the paper's baselines use `-Ofast` plus a custom
    /// reassociation pass). `<= 1` disables the pass; disabled kernels
    /// match the golden reference bit-for-bit, enabled kernels to
    /// floating-point reassociation tolerance (~1e-13).
    pub reassociate: usize,
    /// Whether the baseline may reload register-exhausting coefficients
    /// per point instead of refusing the unroll factor. Off by default:
    /// production compilers do not unroll past register pressure, which
    /// is exactly the paper's explanation for baseline behavior on
    /// register-bound codes. Kept as an ablation knob.
    pub base_allow_spill: bool,
}

impl RunOptions {
    /// Defaults for a variant: unroll 1, Snitch cluster, no DMA.
    pub fn new(variant: Variant) -> RunOptions {
        RunOptions {
            variant,
            unroll: 1,
            interleave: InterleavePlan::snitch(),
            cluster: ClusterConfig::snitch(),
            saris: SarisOptions::default(),
            max_cycles: 0,
            concurrent_dma: false,
            reassociate: 2,
            base_allow_spill: false,
        }
    }

    /// Sets the reassociation accumulator count (`<= 1` disables).
    #[must_use]
    pub fn with_reassociate(mut self, accumulators: usize) -> RunOptions {
        self.reassociate = accumulators;
        self
    }

    /// Sets the unroll factor.
    #[must_use]
    pub fn with_unroll(mut self, unroll: usize) -> RunOptions {
        self.unroll = unroll;
        self
    }

    /// Enables concurrent tile DMA traffic.
    #[must_use]
    pub fn with_concurrent_dma(mut self) -> RunOptions {
        self.concurrent_dma = true;
        self
    }

    /// The stable key of every field that affects *compilation*: all but
    /// the execution-only `max_cycles` and `concurrent_dma`, so sweeps
    /// over those share kernels in the session's kernel cache.
    pub fn compile_fingerprint(&self) -> u64 {
        key_of(&RunOptions {
            concurrent_dma: false,
            ..self.without_budget()
        })
    }

    /// `self` as the execution context keys it: `max_cycles` cleared.
    pub(crate) fn without_budget(&self) -> RunOptions {
        RunOptions {
            max_cycles: 0,
            ..self.clone()
        }
    }
}

/// A compiled kernel: one program per core plus everything the host must
/// install in TCDM before running.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// The variant.
    pub variant: Variant,
    /// The unroll factor.
    pub unroll: usize,
    /// The stream mode (SARIS only).
    pub mode: Option<StreamMode>,
    /// Per-core compiled programs.
    pub cores: Vec<CompiledCore>,
    /// The TCDM memory map.
    pub map: TcdmMap,
    /// Raw byte images to install: `(address, bytes)`.
    pub install: Vec<(u64, Vec<u8>)>,
}

impl CompiledKernel {
    /// Total static code size across cores, in instructions.
    pub fn total_instrs(&self) -> usize {
        self.cores.iter().map(|c| c.program.len()).sum()
    }
}

/// Compiles `stencil` for tiles of `extent` (including halo).
///
/// # Errors
///
/// Propagates planning, register-pressure, immediate-range, FREP-capacity
/// and TCDM-capacity errors, and returns
/// [`CodegenError::InvalidWorkload`] when the interleave plan does not
/// occupy exactly the cluster's cores (a core the plan leaves out would
/// leave its share of the tile uncomputed).
pub fn compile(
    stencil: &Stencil,
    extent: Extent,
    options: &RunOptions,
) -> Result<CompiledKernel, CodegenError> {
    let plan = &options.interleave;
    if plan.cores() != options.cluster.n_cores {
        return Err(CodegenError::InvalidWorkload {
            reason: format!(
                "the {}x{} interleave plan occupies {} cores, the cluster has {}",
                plan.px(),
                plan.py(),
                plan.cores(),
                options.cluster.n_cores
            ),
        });
    }
    let reassociated;
    let stencil = if options.reassociate > 1 {
        reassociated = stencil.reassociated(options.reassociate);
        &reassociated
    } else {
        stencil
    };
    let layout = ArenaLayout::for_stencil(stencil, extent);
    match options.variant {
        Variant::Base => {
            let map = TcdmMap::plan(stencil, &layout, &options.cluster, [0; 4], 0)?;
            let cores = (0..options.cluster.n_cores)
                .map(|core| {
                    crate::base::gen_base_core_with_policy(
                        stencil,
                        &map,
                        &options.interleave,
                        options.unroll,
                        core,
                        &options.cluster,
                        options.base_allow_spill,
                    )
                })
                .collect::<Result<Vec<_>, _>>()?;
            let coeff_img = pack_f64(&coeff_values(stencil));
            let install = map
                .coeff
                .bases(options.cluster.n_cores)
                .map(|base| (base, coeff_img.clone()))
                .collect();
            Ok(CompiledKernel {
                variant: Variant::Base,
                unroll: options.unroll,
                mode: None,
                cores,
                map,
                install,
            })
        }
        Variant::Saris => {
            let mut saris_opts = options.saris;
            let main = SarisPlan::derive(
                stencil,
                &layout,
                saris_opts,
                options.unroll,
                options.interleave.px(),
            )?;
            // Narrow to 8-bit indices when every window offset fits: one
            // 64-bit fetch then delivers eight indices, halving index
            // traffic on the streamer ports.
            let max_idx = main
                .indices
                .sr0
                .rel_indices
                .iter()
                .chain(main.indices.sr1.iter().flat_map(|a| a.rel_indices.iter()))
                .copied()
                .max()
                .unwrap_or(0);
            let main = if saris_opts.index_width == saris_isa::IndexWidth::U16
                && max_idx <= u8::MAX as u64
            {
                saris_opts.index_width = saris_isa::IndexWidth::U8;
                SarisPlan::derive(
                    stencil,
                    &layout,
                    saris_opts,
                    options.unroll,
                    options.interleave.px(),
                )?
            } else {
                main
            };
            // The remainder plan must agree with the main plan on which
            // coefficients are register-resident, so it inherits the main
            // plan's effective budget.
            let mut rem_opts = saris_opts;
            rem_opts.coeff_reg_budget = main.schedule.resident_coeffs();
            let rem = SarisPlan::derive(stencil, &layout, rem_opts, 1, options.interleave.px())?;
            let plans = SarisPlans { main, rem };
            // Each plan's SR0 and SR1 index images.
            let pack = |plan: &SarisPlan| {
                let indices = &plan.indices;
                [Some(&indices.sr0), indices.sr1.as_ref()]
                    .map(|a| a.map(|a| plan.index_width.pack(&a.rel_indices)))
            };
            let ([main0, main1], [rem0, rem1]) = (pack(&plans.main), pack(&plans.rem));
            let idx_imgs = [main0, main1, rem0, rem1];
            let idx_lens = [
                idx_imgs[0].as_ref().map_or(0, Vec::len),
                idx_imgs[1].as_ref().map_or(0, Vec::len),
                idx_imgs[2].as_ref().map_or(0, Vec::len),
                idx_imgs[3].as_ref().map_or(0, Vec::len),
            ];
            let coeff_tables = plans.coeff_stream_tables();
            let coeff_stream_len = coeff_tables.as_ref().map_or(0, |(m, r)| m.len() + r.len());
            let map = TcdmMap::plan(
                stencil,
                &layout,
                &options.cluster,
                idx_lens,
                coeff_stream_len,
            )?;
            let n_cores = options.cluster.n_cores;
            let mut install = Vec::new();
            let coeff_img = pack_f64(&coeff_values(stencil));
            for base in map.coeff.bases(n_cores) {
                install.push((base, coeff_img.clone()));
            }
            for (slot, img) in idx_imgs.into_iter().enumerate() {
                if let Some(img) = img {
                    for core in 0..n_cores {
                        install.push((map.index_base(slot, core), img.clone()));
                    }
                }
            }
            if let Some((main_t, rem_t)) = &coeff_tables {
                let mut stream_img = pack_f64(main_t);
                stream_img.extend_from_slice(&pack_f64(rem_t));
                for core in 0..n_cores {
                    install.push((map.coeff_stream_base(core), stream_img.clone()));
                }
            }
            let mode = plans.main.mode();
            let cores = (0..options.cluster.n_cores)
                .map(|core| {
                    gen_saris_core(
                        stencil,
                        &map,
                        &plans,
                        &options.interleave,
                        core,
                        &options.cluster,
                    )
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(CompiledKernel {
                variant: Variant::Saris,
                unroll: options.unroll,
                mode: Some(mode),
                cores,
                map,
                install,
            })
        }
    }
}

fn coeff_values(stencil: &Stencil) -> Vec<f64> {
    stencil.coeffs().iter().map(|c| c.value()).collect()
}

fn pack_f64(values: &[f64]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(values.len() * 8);
    for v in values {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    bytes
}

/// Executes an already-compiled kernel on a caller-provided cluster (the
/// reuse path of the session layer's cluster pool). The cluster must be
/// in its power-on state — freshly constructed or [`Cluster::reset`] —
/// and built from the same configuration the kernel was compiled for.
///
/// # Errors
///
/// Propagates simulation errors.
pub(crate) fn execute_on(
    stencil: &Stencil,
    inputs: &[&Grid],
    kernel: &CompiledKernel,
    options: &RunOptions,
    cluster: &mut Cluster,
) -> Result<(Grid, RunReport), CodegenError> {
    let extent = kernel.map.layout().extent();
    // Install input grids and zero the rest of the arena.
    let mut next_input = 0;
    for (i, decl) in stencil.arrays().iter().enumerate() {
        let base = kernel.map.arena_base + (i * extent.len() * ELEM_BYTES) as u64;
        match decl.role() {
            ArrayRole::Input => {
                cluster.write_f64_slice(base, inputs[next_input].as_slice())?;
                next_input += 1;
            }
            ArrayRole::Output => {
                cluster.zero_f64_slice(base, extent.len())?;
            }
        }
    }
    for (addr, bytes) in &kernel.install {
        cluster.write_bytes(*addr, bytes)?;
    }
    for (core, cc) in kernel.cores.iter().enumerate() {
        cluster.load_program(core, &cc.program);
    }
    if options.concurrent_dma {
        enqueue_tile_dma(cluster, &kernel.map, stencil)?;
    }
    let max_cycles = if options.max_cycles > 0 {
        options.max_cycles
    } else {
        auto_cycle_budget(stencil, extent, options.cluster.n_cores)
    };
    let report = cluster.run(max_cycles)?;
    let out_base = kernel.map.array_base(stencil.output());
    let out = cluster.read_f64_slice(out_base, extent.len())?;
    Ok((Grid::from_raw(extent, out), report))
}

/// The simulation budget when the caller sets `max_cycles = 0`: the worst
/// realistic kernel retires one point per core-share in ~40 cycles — or,
/// for arithmetic-heavy stencils, four cycles per flop — and we grant 50x
/// slack on top plus a fixed startup allowance, so only genuinely hung
/// simulations time out.
pub(crate) fn auto_cycle_budget(stencil: &Stencil, extent: Extent, n_cores: usize) -> u64 {
    const WORST_CYCLES_PER_POINT: u64 = 40;
    const STALL_CYCLES_PER_FLOP: u64 = 4;
    const SLACK: u64 = 50;
    let points = extent.len() as u64;
    let flops = stencil.stats().flops;
    let per_point = WORST_CYCLES_PER_POINT.max(STALL_CYCLES_PER_FLOP * flops);
    let per_core_points = points.div_ceil(n_cores.max(1) as u64);
    1_000_000 + per_core_points * per_point * SLACK
}

/// Queues tile-shaped inbound and outbound DMA traffic mirroring the
/// paper's double buffering (next input tile in, previous output out).
/// Transfers use a staging window in main memory and the arena itself as
/// the TCDM side, matching the bytes a real double-buffered run moves.
fn enqueue_tile_dma(
    cluster: &mut Cluster,
    map: &TcdmMap,
    stencil: &Stencil,
) -> Result<(), CodegenError> {
    let extent = map.layout().extent();
    let tile_bytes = extent.len() * ELEM_BYTES;
    let n_inputs = stencil.input_arrays().count();
    let mut main_cursor = MAIN_BASE;
    // Inbound: one tile per input array into a staging area placed after
    // the arena (or wrapping, if space is tight, we reuse the arena halo
    // space; the traffic pattern is what matters for bandwidth).
    for i in 0..n_inputs {
        cluster.dma_enqueue(DmaDescriptor::copy_1d(
            main_cursor,
            map.arena_base + (i * tile_bytes) as u64,
            tile_bytes,
        ))?;
        main_cursor += tile_bytes as u64;
    }
    // Outbound: the output tile.
    cluster.dma_enqueue(DmaDescriptor::copy_1d(
        map.array_base(stencil.output()),
        main_cursor,
        tile_bytes,
    ))?;
    Ok(())
}

/// Measures the DMA engine's achievable bandwidth utilization for
/// tile-shaped transfers on a caller-provided (reset) cluster — the
/// machinery behind [`Workload::dma_probe`](crate::Workload::dma_probe).
///
/// # Errors
///
/// Propagates simulation errors.
pub(crate) fn measure_dma_utilization_on(
    extent: Extent,
    cluster: &mut Cluster,
) -> Result<f64, CodegenError> {
    let beat_bytes = cluster.config().dma_beat_bytes as f64;
    let tile_bytes = extent.len() * ELEM_BYTES;
    let row_bytes = extent.nx * ELEM_BYTES;
    let rows = (extent.ny * extent.nz) as u32;
    // 2D/3D-shaped transfer: rows of the tile, strided in main memory as
    // they would be inside the big grid.
    let big_row_stride = (extent.nx * 4 * ELEM_BYTES) as i64;
    cluster.dma_enqueue(DmaDescriptor {
        src: MAIN_BASE,
        dst: snitch_sim::TCDM_BASE,
        inner_bytes: row_bytes,
        counts: [rows, 1],
        src_strides: [big_row_stride, 0],
        dst_strides: [row_bytes as i64, 0],
    })?;
    cluster.dma_enqueue(DmaDescriptor {
        src: snitch_sim::TCDM_BASE,
        dst: MAIN_BASE + (tile_bytes * 8) as u64,
        inner_bytes: row_bytes,
        counts: [rows, 1],
        src_strides: [row_bytes as i64, 0],
        dst_strides: [big_row_stride, 0],
    })?;
    let report = cluster.run(10_000_000)?;
    Ok(report.dma.utilization(beat_bytes))
}

/// How grids rotate between time iterations of a stencil sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BufferRotation {
    /// `out` becomes the (single) input of the next step (Jacobi-style
    /// alternating buffers).
    Alternating,
    /// Leapfrog: `(u, um) <- (out, u)` — the `ac_iso_cd` wave equation.
    Leapfrog,
}

impl BufferRotation {
    /// The natural rotation for a stencil: alternating for one input
    /// array, leapfrog for two. Multi-step workloads pick this up
    /// automatically when no explicit
    /// [`rotation`](crate::Workload::rotation) is set.
    ///
    /// # Panics
    ///
    /// Panics for stencils with more than two input arrays (no default
    /// rotation exists; set one explicitly on the workload).
    pub fn natural(stencil: &Stencil) -> BufferRotation {
        match stencil.input_arrays().count() {
            1 => BufferRotation::Alternating,
            2 => BufferRotation::Leapfrog,
            n => panic!("no natural rotation for {n} input arrays"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use crate::workload::{Outcome, Workload};
    use saris_core::gallery;
    use saris_core::Space;

    fn tile_of(s: &Stencil) -> Extent {
        match s.space() {
            Space::Dim2 => Extent::new_2d(32, 32),
            Space::Dim3 => Extent::cube(Space::Dim3, 12),
        }
    }

    /// One verified run through a throwaway session (tolerance `tol`).
    fn run_verified(s: &Stencil, opts: RunOptions, tol: f64) -> Outcome {
        let spec = Workload::new(s.clone())
            .extent(tile_of(s))
            .input_seed(42)
            .options(opts)
            .verify(tol)
            .freeze()
            .unwrap();
        Session::new()
            .submit(&spec)
            .unwrap_or_else(|e| panic!("{}: {e}", s.name()))
    }

    #[test]
    fn both_variants_match_reference_exactly_without_reassociation() {
        let s = gallery::jacobi_2d();
        for variant in [Variant::Base, Variant::Saris] {
            let run = run_verified(&s, RunOptions::new(variant).with_reassociate(0), 0.0);
            assert_eq!(run.verify_error, Some(0.0));
            if variant == Variant::Saris {
                assert!(run.expect_report().cycles > 0);
            }
        }
    }

    #[test]
    fn reassociated_kernels_match_within_fp_tolerance() {
        let s = gallery::jacobi_2d();
        for variant in [Variant::Base, Variant::Saris] {
            let run = run_verified(&s, RunOptions::new(variant), 1e-12);
            let err = run.verify_error.unwrap();
            assert!(err < 1e-12, "{variant}: err {err:e}");
        }
    }

    #[test]
    fn a_plan_that_misses_cluster_cores_is_refused() {
        let s = gallery::jacobi_2d();
        for variant in [Variant::Base, Variant::Saris] {
            // The default 4x2 plan names eight cores: on four, cores 4-7's
            // share of the tile would never be computed.
            let mut opts = RunOptions::new(variant);
            opts.cluster.n_cores = 4;
            let err = compile(&s, tile_of(&s), &opts).unwrap_err();
            assert!(
                matches!(err, CodegenError::InvalidWorkload { .. }),
                "{variant}: {err}"
            );
            // A 2x2 plan covers the four cores and the whole tile.
            opts.interleave = InterleavePlan::new(2, 2);
            run_verified(&s, opts, 1e-9);
        }
    }

    #[test]
    fn saris_is_faster_than_base_on_jacobi() {
        let s = gallery::jacobi_2d();
        let session = Session::new();
        let run_64 = |variant| {
            let spec = Workload::new(s.clone())
                .extent(Extent::new_2d(64, 64))
                .input_seed(42)
                .options(RunOptions::new(variant).with_unroll(4))
                .verify(1e-12)
                .freeze()
                .unwrap();
            session.submit(&spec).unwrap()
        };
        let base = run_64(Variant::Base);
        let saris = run_64(Variant::Saris);
        let speedup = base.expect_report().cycles as f64 / saris.expect_report().cycles as f64;
        assert!(
            speedup > 1.5,
            "expected a clear SARIS speedup, got {speedup:.2} ({} vs {})",
            base.expect_report().cycles,
            saris.expect_report().cycles
        );
    }

    /// The auto budget implements its stated rationale (40 cycles per
    /// point per core-share, 50x slack): gallery kernels must finish well
    /// inside it — here, using less than a tenth of the budget — while
    /// the budget stays bounded enough to catch hangs quickly.
    #[test]
    fn auto_cycle_budget_has_ample_slack() {
        for (s, unroll) in [(gallery::jacobi_2d(), 4), (gallery::j3d27pt(), 1)] {
            let extent = tile_of(&s);
            for variant in [Variant::Base, Variant::Saris] {
                let opts = RunOptions::new(variant).with_unroll(unroll);
                let n_cores = opts.cluster.n_cores;
                let run = run_verified(&s, opts, 1e-12);
                let budget = auto_cycle_budget(&s, extent, n_cores);
                assert!(
                    run.expect_report().cycles * 10 < budget,
                    "{} {variant}: {} cycles vs budget {budget}",
                    s.name(),
                    run.expect_report().cycles
                );
            }
        }
    }

    #[test]
    fn alternating_steps_match_reference() {
        let s = gallery::jacobi_2d();
        let spec = Workload::new(s)
            .extent(Extent::new_2d(20, 20))
            .input_seed(8)
            .options(
                RunOptions::new(Variant::Saris)
                    .with_unroll(2)
                    .with_reassociate(0),
            )
            .time_steps(3)
            .verify(0.0)
            .freeze()
            .unwrap();
        let run = Session::new().submit(&spec).unwrap();
        assert_eq!(run.reports.len(), 3);
        assert_eq!(run.verify_error, Some(0.0), "lockstep with the reference");
        assert!(run.total_cycles() > 0);
    }

    #[test]
    fn leapfrog_steps_match_reference() {
        let s = gallery::ac_iso_cd();
        assert_eq!(BufferRotation::natural(&s), BufferRotation::Leapfrog);
        let spec = Workload::new(s)
            .extent(Extent::cube(saris_core::Space::Dim3, 12))
            .input_seed(1)
            .options(
                RunOptions::new(Variant::Saris)
                    .with_unroll(1)
                    .with_reassociate(0),
            )
            .time_steps(2)
            .verify(0.0)
            .freeze()
            .unwrap();
        let run = Session::new().submit(&spec).unwrap();
        assert_eq!(run.grids.len(), 2, "both wavefields survive the sweep");
        assert_eq!(run.verify_error, Some(0.0));
    }

    #[test]
    #[should_panic(expected = "no natural rotation")]
    fn natural_rotation_rejects_many_arrays() {
        use saris_core::stencil::StencilBuilder;
        use saris_core::{Offset, Space};
        let mut b = StencilBuilder::new("tri", Space::Dim2);
        let a0 = b.input("a");
        let a1 = b.input("b");
        let a2 = b.input("c");
        b.output("out");
        let t0 = b.tap(a0, Offset::CENTER);
        let t1 = b.tap(a1, Offset::CENTER);
        let t2 = b.tap(a2, Offset::CENTER);
        let x = b.add(t0, t1);
        let y = b.add(x, t2);
        b.store(y);
        let s = b.finish().unwrap();
        let _ = BufferRotation::natural(&s);
    }
}
