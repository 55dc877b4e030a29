//! # ctbia-harness — the parallel, memoizing sweep engine
//!
//! Every result in the paper is a sweep over (workload × strategy ×
//! placement × configuration) cells. This crate turns such sweeps into
//! data:
//!
//! 1. **Grid → cells.** A [`CellSpec`] is a pure-data description of one
//!    simulation; grids are plain `Vec<CellSpec>`.
//! 2. **Cells → pool.** [`Engine`] executes cells of any [`Cell`] kind
//!    on a scoped-thread worker pool sized from
//!    [`std::thread::available_parallelism`]. Workers claim cells from an
//!    atomic index and write into per-cell output slots, so merged output
//!    is ordered by grid index — never by completion order — and a parallel
//!    sweep is byte-identical to a serial one. [`SweepEngine`] is the
//!    engine over simulation cells; `ctbia-verify` and `ctbia-analyze` run
//!    their verification and certification cells on the same engine.
//! 3. **Cells → cache.** A [`DiskCache`] memoizes completed cells under
//!    `results/cache/`, keyed by a 128-bit content digest of everything
//!    that determines the result (workload descriptor, strategy, placement,
//!    [`SimConfig`]). Figure bins, `ctbia compare`, and `ctbia bench` share
//!    work instead of re-simulating identical cells. Every cell kind writes
//!    its own versioned, `end`-closed record, read back through one framing
//!    helper ([`cache_records`]).
//!
//! ```
//! use ctbia_harness::{CellSpec, StrategySpec, SweepEngine, WorkloadSpec};
//! use ctbia_machine::BiaPlacement;
//!
//! let grid = vec![
//!     CellSpec::new(WorkloadSpec::named("hist", 200).unwrap(),
//!                   StrategySpec::Insecure, BiaPlacement::L1d),
//!     CellSpec::new(WorkloadSpec::named("hist", 200).unwrap(),
//!                   StrategySpec::Bia, BiaPlacement::L1d),
//! ];
//! let reports = SweepEngine::new().run(&grid).unwrap();
//! assert_eq!(reports[0].digest, reports[1].digest); // same answer
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod digest;
pub mod engine;
pub mod memo;
pub mod report;
pub mod spec;

pub use cache::{cache_records, DiskCache, RecoveryReport};
pub use digest::Digest;
pub use engine::{execute_cell, execute_cell_traced, Cell, CellOutcome, Engine, SweepEngine};
pub use memo::{MemoFill, MemoIndex, MemoProvenance};
pub use report::{counter_fields, CellReport};
pub use spec::{CellSpec, CryptoKernel, FaultSpec, SimConfig, StrategySpec, WorkloadSpec};
