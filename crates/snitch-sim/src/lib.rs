//! # snitch-sim — a cycle-approximate, functional Snitch cluster simulator
//!
//! This crate substitutes for the RTL simulation of the SARIS paper: a
//! software model of the PULP Snitch compute cluster with the SSSR and
//! FREP extensions. It executes real `f64` arithmetic (results are
//! verified against a golden reference) while modeling the architectural
//! mechanisms the paper's evaluation hinges on:
//!
//! * single-issue integer cores that *offload* FP work to a concurrent FP
//!   subsystem (pseudo-dual issue), with shared-issue-bandwidth accounting;
//! * the FREP sequencer replaying FP blocks without integer issue slots;
//! * three SSSR streamers per core (two indirect, one affine) with index
//!   fetch traffic, launch-queue run-ahead, and FIFO back-pressure;
//! * a 32-bank, word-interleaved TCDM with per-cycle round-robin
//!   arbitration (bank conflicts);
//! * a shared instruction cache and a 512-bit DMA engine overlapping bulk
//!   transfers with compute.
//!
//! Fidelity notes: the model is cycle-*approximate* (see `DESIGN.md` at
//! the repository root). Static stream configuration is carried as
//! structured payloads charged at their real write counts; dynamic launch
//! bases flow through integer registers exactly as on hardware.
//!
//! # Hot-loop invariants
//!
//! Simulator throughput (simulated cycles per wall second) bounds every
//! consumer of this crate, so the per-cycle path upholds three
//! invariants, asserted in tests and tracked by the `sim_mcycles_per_s`
//! and `sim.host_ns_per_cycle.*` metrics of `BENCHMARK.json`:
//!
//! 1. **No allocation or cloning per cycle.** Programs are pre-decoded
//!    once into dense [`ExecTable`]s (three-word ops, operand registers
//!    in fixed arrays, FP latencies and stream-register roles resolved,
//!    `ssr_setup` payloads in a side table); every queue — offload
//!    queue, FREP bodies, stream data/index/launch FIFOs — is a ring
//!    whose storage is allocated when the unit is built; streamers run
//!    from a plan lowered once per `ssr_setup`; the instruction cache
//!    tracks residency in a flat stamp vector. The only allocations
//!    after load time happen outside the cycle loop (reports, error
//!    paths).
//! 2. **Arbitration touches requests, not ports.** Cores summarise their
//!    pending ports as they step; the TCDM arbiter visits only those, in
//!    the rotating order, resolves bank and storage offset from one range
//!    check, and keeps the cycle's bank reservations in a bit mask. See
//!    [`mem`].
//! 3. **Fast-forwarding never changes results.** With
//!    [`ClusterConfig::fast_forward`] set, a unit that can only repeat a
//!    stall it has already diagnosed books that stall after one re-check
//!    instead of re-deriving it, halted and drained cores are parked, and
//!    [`Cluster::run`] jumps over spans in which every unit is inert.
//!    Each guard is stated, with the argument for why it is exact, in the
//!    module that owns it ([`cluster`], [`core`], [`fpu`], [`ssr`]); with
//!    the flag clear every unit is evaluated every cycle, and the two
//!    differ only in [`RunReport::cycles_fast_forwarded`].
//!
//! # Examples
//!
//! ```
//! use snitch_sim::{Cluster, ClusterConfig};
//! use saris_isa::{Instr, ProgramBuilder};
//!
//! # fn main() -> Result<(), snitch_sim::SimError> {
//! let mut cluster = Cluster::new(ClusterConfig::snitch());
//! let mut b = ProgramBuilder::new();
//! b.push(Instr::Halt);
//! cluster.load_program_all(b.finish().expect("valid"));
//! let report = cluster.run(100)?;
//! println!("{report}");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod config;
pub mod core;
pub mod decode;
pub mod dma;
pub mod error;
pub mod fpu;
pub mod icache;
pub mod mem;
pub mod metrics;
mod ring;
pub mod ssr;

pub use cluster::Cluster;
pub use config::{ClusterConfig, MAIN_BASE, TCDM_BASE};
pub use decode::{ExecTable, Op};
pub use dma::{Dma, DmaDescriptor, DmaStats};
pub use error::SimError;
pub use fpu::FpArithOp;
pub use metrics::{CoreReport, RunReport};
