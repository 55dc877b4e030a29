//! # ctbia-machine — the simulated execution engine
//!
//! Binds the `ctbia-sim` cache hierarchy, the `ctbia-core` BIA, a flat
//! simulated RAM, and a cycle cost model into a [`Machine`] that implements
//! [`CtMemory`](ctbia_core::ctmem::CtMemory). This is the reproduction's
//! stand-in for the paper's modified gem5 system (§7.1).
//!
//! ## Instruction-fetch model
//!
//! The paper's §3.1 profile shows the linearization overhead is dominated
//! by instruction count (L1i references ≈ 7× data references) while LLC
//! misses barely change. The machine therefore models instruction fetch
//! analytically: every executed instruction counts one L1i reference and
//! one issue cycle; the tiny loop bodies of the benchmarks always hit in
//! L1i, so no per-instruction cache walk is simulated. Data accesses walk
//! the real hierarchy and pay real latencies.
//!
//! ## Measuring
//!
//! Wrap the region of interest in [`Machine::measure`]; use the
//! `poke_*`/`peek_*` methods for free out-of-band setup and checking.
//!
//! ```
//! use ctbia_machine::{BiaPlacement, Machine};
//! use ctbia_core::ctmem::CtMemoryExt;
//!
//! # fn main() -> Result<(), ctbia_machine::MachineError> {
//! let mut m = Machine::with_bia(BiaPlacement::L1d);
//! let table = m.alloc_u32_array(1000)?;
//! m.poke_u32(table, 42);
//! let (v, cost) = m.measure(|m| m.load_u32(table));
//! assert_eq!(v, 42);
//! assert!(cost.cycles > 0 && cost.insts == 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

#[cfg(test)]
mod interference_tests;

pub mod audit;
pub mod cost;
pub mod counters;
pub mod machine;
pub mod memory;
pub mod report;
pub mod secure;

pub use audit::{AuditViolation, BitPlane, ShadowAuditor, ViolationKind};
pub use cost::CostModel;
pub use counters::{Counters, RobustnessStats, SpecStats, TaintStats};
pub use machine::{
    BiaPlacement, CoRunnerOp, CtResponse, Interference, Machine, MachineConfig, MachineError,
    ObsTrace, TraceEvent, TraceOp,
};
pub use memory::{OutOfSimRam, SimRam};
pub use report::format_report;
pub use secure::SecureArray;

// Re-export the trace vocabulary the machine speaks, so downstream crates
// can attach sinks without naming `ctbia-trace` directly.
pub use ctbia_trace::{
    EventKind, JsonlSink, LinearizeStats, MemOp, MetricsSink, Phase, PhaseCycles, TeeSink,
    TraceRecord, TraceSink,
};
