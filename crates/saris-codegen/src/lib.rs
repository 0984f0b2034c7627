//! # saris-codegen — stencil-to-kernel lowering for the Snitch cluster
//!
//! Two code generators, mirroring the paper's two code variants:
//!
//! * [`Variant::Base`] — optimized RV32G baselines: per-plane pointer
//!   registers with 12-bit immediates, coefficient residency with
//!   per-point reload when the FP register file is exhausted, and
//!   up-to-4x unrolling with slot interleaving to hide FPU latency.
//! * [`Variant::Saris`] — SARIS kernels: static index arrays, 3-instruction
//!   per-window `SRIR` launches, an affine SR2 write stream covering each
//!   core's tile walk, FREP around the compute block, and affine
//!   coefficient streaming for register-bound codes.
//!
//! Both parallelize across the eight cluster cores with the paper's
//! 4-fold x / 2-fold y interleaving, and both produce *functionally
//! correct* kernels whose outputs are verified against the golden
//! reference executor.
//!
//! Execution goes through one typed request/response pair: describe one
//! unit of work with the [`Workload`] builder, freeze it into an
//! immutable [`WorkloadSpec`], and [`submit`](Session::submit) it to a
//! [`Session`] for an [`Outcome`]. One surface covers one-shot runs,
//! "unroll iff beneficial" tuning ([`Tune`]), multi-step sweeps,
//! verification, batches ([`Session::submit_all`]), and DMA-utilization
//! probes.
//!
//! # Examples
//!
//! ```
//! use saris_codegen::{Session, Tune, Variant, Workload};
//! use saris_core::{gallery, Extent};
//!
//! # fn main() -> Result<(), saris_codegen::CodegenError> {
//! let spec = Workload::new(gallery::jacobi_2d())
//!     .extent(Extent::new_2d(32, 32))
//!     .input_seed(7)
//!     .variant(Variant::Saris)
//!     .tune(Tune::Auto)
//!     .verify(1e-12)
//!     .freeze()?;
//! let run = Session::new().submit(&spec)?;
//! println!("unroll {:?}: {}", run.unroll(), run.expect_report());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backends;
pub mod base;
pub mod calibration;
pub mod chaos;
pub mod error;
pub mod flight;
pub mod json;
pub mod map;
mod record;
pub mod runtime;
pub mod saris;
pub mod session;
pub mod slots;
pub mod tuner;
pub mod verify;
pub mod walk;
pub mod wire;
pub mod workload;

pub use backends::{
    Backend, BackendRegistry, ExecOutcome, ExecRequest, Fidelity, NativeBackend, RooflineBackend,
    SimBackend,
};
pub use base::CompiledCore;
pub use calibration::{
    Calibration, CalibrationEntry, CalibrationSource, CalibrationStore, Observation,
};
pub use chaos::{FaultInjectingBackend, FaultKind, FaultPlan, InjectedFaults};
pub use error::CodegenError;
pub use map::TcdmMap;
pub use runtime::{compile, BufferRotation, CompiledKernel, RunOptions, Variant};
pub use saris::SarisPlans;
pub use session::{ClusterPool, Session, SessionConfig, SessionStats};
pub use tuner::{Tune, TuningDecision, DEFAULT_CANDIDATES};
pub use verify::{kernel_memory_map, verify_kernel};
pub use walk::CoreWalk;
pub use wire::{
    decode_outcome, decode_outcome_from, decode_spec, encode_outcome, encode_outcome_into,
    encode_spec, encode_spec_into, read_frame, write_frame, StencilInterner, FRAME_VERSION,
    MAX_FRAME_LEN,
};
pub use workload::{InputSpec, Outcome, Workload, WorkloadSpec, WorkloadTelemetry};
