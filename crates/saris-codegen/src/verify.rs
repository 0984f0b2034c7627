//! Static-verification glue: describes a [`CompiledKernel`]'s TCDM
//! layout to the [`saris_verify`] checker and runs the whole-cluster
//! analysis.
//!
//! `saris-verify` deliberately knows nothing about this crate's
//! [`TcdmMap`](crate::TcdmMap) — it checks programs against plain named
//! byte ranges. This module is the translation: per core, the kernel's
//! grid arena (input slots read-only, the output slot and guard row
//! writable), that core's coefficient/index replicas, the raw install
//! images (borrowed from the kernel and shared by all cores' maps, so
//! indirect-stream indices decode exactly), and — when the
//! run overlaps DMA with compute — the inbound transfer spans for
//! write-hazard detection.
//!
//! [`Session`](crate::Session) calls [`verify_kernel`] on every fresh
//! compile, in every build, turning error-severity findings into
//! [`CodegenError::StaticVerification`](crate::CodegenError).

use saris_core::layout::ELEM_BYTES;
use saris_core::stencil::{ArrayRole, Stencil};
use saris_verify::{verify_cluster, ClusterReport, MemoryMap};

use crate::runtime::{CompiledKernel, RunOptions};

/// Region names of the four index-array slots.
const INDEX_REGIONS: [&str; 4] = ["index0", "index1", "index2", "index3"];

/// The memory grants one core of `kernel` is entitled to.
///
/// Mirrors exactly what `execute_on` installs and what the hardware
/// would allow: grid arrays in declaration order (only
/// [`ArrayRole::Output`] slots writable), the guard row after the arena
/// (writable — it exists to absorb tail writes), and this core's own
/// coefficient-/index-table replicas (read-only; a core never touches a
/// neighbor's replica). The kernel's install images ride along *by
/// reference* — every core's map points at the same bytes — so the
/// verifier can decode indirect-stream index arrays, and
/// `options.concurrent_dma` adds the inbound DMA destination spans.
pub fn kernel_memory_map<'a>(
    stencil: &'a Stencil,
    kernel: &'a CompiledKernel,
    options: &RunOptions,
    core: usize,
) -> MemoryMap<'a> {
    let map = &kernel.map;
    let extent = map.layout().extent();
    let tile_bytes = extent.len() * ELEM_BYTES;
    let mut m = MemoryMap::default();
    for (i, decl) in stencil.arrays().iter().enumerate() {
        m.grant(
            decl.name(),
            map.arena_base + (i * tile_bytes) as u64,
            tile_bytes as u64,
            decl.role() == ArrayRole::Output,
        );
    }
    m.grant(
        "guard",
        map.arena_base + map.layout().total_bytes() as u64,
        (extent.nx * ELEM_BYTES) as u64,
        true,
    );
    m.grant("coeff", map.coeff_base(core), map.coeff.len() as u64, false);
    if let Some(cs) = &map.coeff_stream {
        m.grant("coeff-stream", cs.base_for(core), cs.len() as u64, false);
    }
    for (name, region) in INDEX_REGIONS.into_iter().zip(&map.index) {
        if let Some(r) = region {
            m.grant(name, r.base_for(core), r.len() as u64, false);
        }
    }
    m.tables = kernel
        .install
        .iter()
        .map(|(base, bytes)| (*base, bytes.as_slice()))
        .collect();
    if options.concurrent_dma {
        for i in 0..stencil.input_arrays().count() {
            m.dma_writes
                .push((map.arena_base + (i * tile_bytes) as u64, tile_bytes as u64));
        }
    }
    m
}

/// Statically verifies every core program of `kernel` against its TCDM
/// grants and combines the per-core cost bounds.
pub fn verify_kernel(
    stencil: &Stencil,
    kernel: &CompiledKernel,
    options: &RunOptions,
) -> ClusterReport {
    let maps: Vec<MemoryMap> = (0..kernel.cores.len())
        .map(|core| kernel_memory_map(stencil, kernel, options, core))
        .collect();
    let cores: Vec<(&saris_isa::Program, &MemoryMap)> = kernel
        .cores
        .iter()
        .zip(&maps)
        .map(|(cc, m)| (&cc.program, m))
        .collect();
    verify_cluster(&cores, &options.cluster)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{compile, Variant};
    use saris_core::{gallery, Extent};

    #[test]
    fn compiled_gallery_kernels_verify_without_errors() {
        for variant in [Variant::Base, Variant::Saris] {
            let stencil = gallery::jacobi_2d();
            let options = RunOptions::new(variant);
            let kernel = compile(&stencil, Extent::new_2d(32, 32), &options).unwrap();
            let report = verify_kernel(&stencil, &kernel, &options);
            assert!(
                !report.has_errors(),
                "{variant:?}: {:?}",
                report.errors().collect::<Vec<_>>()
            );
            assert!(report.bound.cycles > 0);
            assert_eq!(report.bound.per_core.len(), options.cluster.n_cores);
        }
    }

    #[test]
    fn memory_map_covers_arrays_guard_and_replicas() {
        let stencil = gallery::jacobi_2d();
        let options = RunOptions::new(Variant::Saris);
        let extent = Extent::new_2d(16, 16);
        let kernel = compile(&stencil, extent, &options).unwrap();
        let m = kernel_memory_map(&stencil, &kernel, &options, 0);
        let tile = (extent.len() * ELEM_BYTES) as u64;
        // Input slot readable but not writable; output slot writable.
        assert!(m.readable(kernel.map.arena_base, 8));
        assert!(!m.writable(kernel.map.arena_base, 8));
        assert!(m.writable(kernel.map.arena_base + tile, 8));
        // The guard row after the arena absorbs tail writes.
        let guard = kernel.map.arena_base + kernel.map.layout().total_bytes() as u64;
        assert!(m.writable(guard, 8));
        // This core's coefficient replica is granted read-only.
        assert!(m.readable(kernel.map.coeff_base(0), 8));
        assert!(!m.writable(kernel.map.coeff_base(0), 8));
        // Install images are available for index decoding: the kernel's
        // own bytes, not a copy, and the same ones for every core.
        assert_eq!(m.tables.len(), kernel.install.len());
        let other = kernel_memory_map(&stencil, &kernel, &options, 1);
        for ((image, shared), (base, bytes)) in
            m.tables.iter().zip(&other.tables).zip(&kernel.install)
        {
            assert_eq!(image, shared);
            assert_eq!(image.0, *base);
            assert!(std::ptr::eq(image.1, bytes.as_slice()));
        }
        // Core 1 has its own replicas: different grants over shared images.
        assert_ne!(m.regions, other.regions);
        assert_eq!(
            m.table_bytes(kernel.map.index_base(0, 0), 1),
            other.table_bytes(kernel.map.index_base(0, 1), 1),
            "replicas hold the same indices"
        );
        assert!(m.dma_writes.is_empty(), "no concurrent DMA requested");
    }

    #[test]
    fn concurrent_dma_adds_inbound_spans() {
        let stencil = gallery::jacobi_2d();
        let mut options = RunOptions::new(Variant::Saris);
        options.concurrent_dma = true;
        let extent = Extent::new_2d(16, 16);
        let kernel = compile(&stencil, extent, &options).unwrap();
        let m = kernel_memory_map(&stencil, &kernel, &options, 0);
        assert_eq!(m.dma_writes.len(), 1, "jacobi_2d has one input array");
        assert_eq!(m.dma_writes[0].0, kernel.map.arena_base);
    }
}
