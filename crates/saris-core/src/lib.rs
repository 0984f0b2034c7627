//! # saris-core — stencil IR and the SARIS stream-planning method
//!
//! This crate holds the paper's primary contribution in library form:
//!
//! * a validated stencil intermediate representation
//!   ([`stencil::Stencil`]): taps, coefficients, and a single-assignment
//!   point-update operation sequence;
//! * the ten evaluation codes of the paper's Table 1 ([`gallery`]), with
//!   per-point characteristics asserted against the paper;
//! * a golden executor ([`mod@reference`]) used to verify simulated
//!   kernels — a data-parallel row sweep ([`simd`]) with the scalar
//!   path retained as the bit-exactness oracle, plus a recycling
//!   [`grid::GridArena`] for allocation-free batched sweeps;
//! * the **SARIS method** ([`method`]): partitioning grid loads over
//!   indirect stream registers, pairing operands for concurrent stream
//!   reads, streaming register-exhausting coefficients, and materializing
//!   the static index arrays reused on every point update;
//! * tile memory layout ([`layout`]) and core parallelization
//!   ([`parallel`]) helpers shared by the code generators;
//! * the one stable key derivation ([`key`]) every fingerprint, cache
//!   key and ring position in the workspace is computed with, and the
//!   one seeded generator ([`rng`]) every reproducible draw comes from.
//!
//! # Examples
//!
//! Derive a SARIS plan for the paper's 7-point-star-like `jacobi_2d`:
//!
//! ```
//! use saris_core::{gallery, layout::ArenaLayout};
//! use saris_core::method::{SarisOptions, SarisPlan, StreamMode};
//! use saris_core::geom::Extent;
//!
//! # fn main() -> Result<(), saris_core::error::PlanError> {
//! let stencil = gallery::jacobi_2d();
//! let layout = ArenaLayout::for_stencil(&stencil, Extent::new_2d(64, 64));
//! let plan = SarisPlan::derive(&stencil, &layout, SarisOptions::default(), 1, 4)?;
//! assert_eq!(plan.mode(), StreamMode::Paired);
//! // 5 grid loads split 3/2 across the two indirect stream registers.
//! assert_eq!(plan.schedule.pops_per_point(), [3, 2]);
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod error;
pub mod gallery;
pub mod geom;
pub mod grid;
pub mod key;
pub mod layout;
pub mod method;
pub mod parallel;
pub mod reference;
pub mod rng;
pub mod roofline;
pub mod simd;
pub mod stencil;

pub use error::{PlanError, StencilError};
pub use geom::{Extent, Halo, Offset, Point, Space};
pub use grid::{Grid, GridArena};
pub use layout::ArenaLayout;
pub use method::{SarisOptions, SarisPlan, StreamMode};
pub use parallel::InterleavePlan;
pub use simd::F64x4;
pub use stencil::{Stencil, StencilBuilder, StencilStats};
