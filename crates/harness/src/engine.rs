//! The grid engine: a deterministic worker pool over cells of any kind.
//!
//! [`Engine::run`] takes a grid of [`Cell`]s — simulation [`CellSpec`]s,
//! or the verification and certification cells of `ctbia-verify` and
//! `ctbia-analyze` — and returns one report per cell, **in grid order**.
//! Workers claim cells from a shared atomic index and write results into
//! the cell's own output slot, so the merged output never depends on
//! completion order; combined with cells owning their seeds, a parallel
//! sweep is byte-identical to a serial one. An optional [`DiskCache`]
//! memoizes completed cells across runs and across binaries, and an
//! optional [`MemoIndex`] serves warm cells from memory.

use crate::cache::DiskCache;
use crate::memo::{MemoFill, MemoIndex, MemoProvenance};
use crate::report::CellReport;
use crate::spec::CellSpec;
use ctbia_machine::Machine;
use ctbia_trace::TraceSink;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

/// Most machine configurations a pool thread will keep warm at once.
///
/// Machines beyond this are simply dropped after their cell instead of
/// pooled, bounding per-thread memory for long-lived callers (the serve
/// daemon) that see arbitrarily many distinct configurations. A sweep grid
/// uses only a handful of configurations, so the cap is never hit there.
const MACHINE_POOL_CAP: usize = 8;

thread_local! {
    /// Per-worker machines kept warm between cells, keyed by their debug-
    /// formatted configuration. `Machine::reset` restores as-built state,
    /// so a pooled machine is observationally identical to a fresh one
    /// while keeping its large allocations (cache arrays, RAM backing).
    static MACHINE_POOL: RefCell<HashMap<String, Machine>> = RefCell::new(HashMap::new());
}

/// Executes one cell from scratch — a pure function of the spec.
///
/// Plain cells (no audit, no fault injection) run on a pooled per-thread
/// machine when one exists for the same configuration; the pooled-reuse
/// engine test pins down that this is invisible in the report.
///
/// # Errors
///
/// Returns a message if the cell's machine configuration is invalid (e.g.
/// an LLC placement on a sliced hierarchy the BIA granularity cannot
/// serve).
pub fn execute_cell(spec: &CellSpec) -> Result<CellReport, String> {
    let label = spec.label();
    let config = spec.machine_config();
    let poolable = !spec.audit && spec.faults.is_none();
    let key = poolable.then(|| format!("{config:?}"));
    let pooled = key
        .as_ref()
        .and_then(|k| MACHINE_POOL.with(|p| p.borrow_mut().remove(k)));
    let mut m = match pooled {
        Some(mut m) => {
            m.reset();
            m
        }
        None => Machine::new(config).map_err(|e| format!("{label}: {e}"))?,
    };
    if spec.audit {
        m.enable_audit().map_err(|e| format!("{label}: {e}"))?;
    }
    if let Some(f) = &spec.faults {
        m.set_fault_injector(Some(f.to_config()))
            .map_err(|e| format!("{label}: {e}"))?;
    }
    let wl = spec.workload.build();
    let run = wl.run(&mut m, spec.strategy.to_strategy());
    if let Some(k) = key {
        MACHINE_POOL.with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() < MACHINE_POOL_CAP || pool.contains_key(&k) {
                pool.insert(k, m);
            }
        });
    }
    Ok(CellReport {
        label,
        digest: run.digest,
        counters: run.counters,
    })
}

/// Executes one cell with a trace sink attached, returning both the report
/// and the sink (fed every event the cell emitted).
///
/// The report is identical to [`execute_cell`]'s for the same spec — the
/// sink observes the simulation without perturbing it — which the
/// observational-inertness suite asserts byte-for-byte.
///
/// # Errors
///
/// Same conditions as [`execute_cell`].
///
/// # Panics
///
/// Never in practice: the sink handed to the machine is always recovered
/// and downcast back to `S`.
pub fn execute_cell_traced<S: TraceSink + 'static>(
    spec: &CellSpec,
    sink: S,
) -> Result<(CellReport, S), String> {
    let label = spec.label();
    let mut m = Machine::new(spec.machine_config()).map_err(|e| format!("{label}: {e}"))?;
    if spec.audit {
        m.enable_audit().map_err(|e| format!("{label}: {e}"))?;
    }
    if let Some(f) = &spec.faults {
        m.set_fault_injector(Some(f.to_config()))
            .map_err(|e| format!("{label}: {e}"))?;
    }
    m.set_trace_sink(Box::new(sink));
    let wl = spec.workload.build();
    let run = wl.run(&mut m, spec.strategy.to_strategy());
    let sink = m
        .take_trace_sink()
        .expect("machine returns the sink it was given")
        .into_any()
        .downcast::<S>()
        .expect("sink type is preserved");
    Ok((
        CellReport {
            label,
            digest: run.digest,
            counters: run.counters,
        },
        *sink,
    ))
}

/// One kind of grid cell the [`Engine`] runs and memoizes: a simulation
/// [`CellSpec`], or a verification or certification cell built on one.
///
/// Each kind writes its own versioned, `end`-trailer-closed cache text,
/// so all kinds share one [`DiskCache`] without colliding.
pub trait Cell: Sync {
    /// What executing the cell produces.
    type Report: Clone + Send;

    /// 128-bit content digest of everything that determines the report.
    fn digest(&self) -> u128;

    /// Computes the report from scratch — a pure function of the cell.
    ///
    /// # Errors
    ///
    /// Returns a message naming the cell when it cannot run (e.g. an
    /// infeasible machine configuration).
    fn execute(&self) -> Result<Self::Report, String>;

    /// Encodes a report in the kind's versioned cache text.
    fn encode(report: &Self::Report) -> String;

    /// Decodes cache text; any anomaly yields `None`, a cache miss.
    fn decode(text: &str) -> Option<Self::Report>;

    /// The disk cache key: the digest as 32 lowercase hex digits.
    fn digest_hex(&self) -> String {
        format!("{:032x}", self.digest())
    }
}

impl Cell for CellSpec {
    type Report = CellReport;

    fn digest(&self) -> u128 {
        CellSpec::digest(self)
    }

    fn execute(&self) -> Result<CellReport, String> {
        execute_cell(self)
    }

    fn encode(report: &CellReport) -> String {
        report.to_cache_text()
    }

    fn decode(text: &str) -> Option<CellReport> {
        CellReport::from_cache_text(text)
    }
}

/// The result of resolving one cell, with its provenance: whether the
/// report was served from the memo cache or freshly executed.
///
/// Long-running callers (the `ctbia-serve` daemon, `ctbia submit`) surface
/// the flag to their clients; batch callers that only want the report can
/// keep using [`Engine::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellOutcome<R = CellReport> {
    /// The cell's report — identical whether cached or executed.
    pub report: R,
    /// `true` when the report came from the memo cache without executing.
    pub cached: bool,
}

/// A worker pool plus optional memo cache for running cell grids.
#[derive(Debug)]
pub struct Engine<C: Cell> {
    threads: usize,
    cache: Option<DiskCache>,
    memo: Option<Arc<MemoIndex<C::Report>>>,
    executed: AtomicU64,
    cache_hits: AtomicU64,
    memo_hits: AtomicU64,
    store_failures: AtomicU64,
}

/// The engine over simulation cells.
pub type SweepEngine = Engine<CellSpec>;

impl<C: Cell> Engine<C> {
    /// An engine sized from [`std::thread::available_parallelism`], with no
    /// cache.
    pub fn new() -> Self {
        let threads = thread::available_parallelism().map_or(1, |n| n.get());
        Engine {
            threads,
            cache: None,
            memo: None,
            executed: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
            store_failures: AtomicU64::new(0),
        }
    }

    /// A single-threaded engine with no cache — the reference ordering the
    /// parallel pool must reproduce byte-for-byte.
    pub fn serial() -> Self {
        Engine::new().with_threads(1)
    }

    /// Overrides the worker count (clamped to at least 1).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Attaches a memo cache: completed cells are stored, and matching
    /// cells are served from disk without executing.
    #[must_use]
    pub fn with_cache(mut self, cache: DiskCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches a sharded in-memory [`MemoIndex`]: warm lookups are served
    /// from memory (sharded locks) before touching the disk cache, and the
    /// index's per-digest claims make concurrent identical cells execute
    /// exactly once even without a serving front end's coalescing map.
    ///
    /// Only durable results (disk store succeeded, or no cache attached)
    /// are indexed, so a failed store still costs exactly one future
    /// re-execution.
    #[must_use]
    pub fn with_memo_index(mut self, memo: Arc<MemoIndex<C::Report>>) -> Self {
        self.memo = Some(memo);
        self
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The attached cache, if any.
    pub fn cache(&self) -> Option<&DiskCache> {
        self.cache.as_ref()
    }

    /// Cells this engine actually executed (cache hits excluded).
    pub fn cells_executed(&self) -> u64 {
        self.executed.load(Ordering::Relaxed)
    }

    /// Cells this engine served from the disk cache.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Cells served from the in-memory memo index without touching disk.
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits.load(Ordering::Relaxed)
    }

    /// Memo-cache stores that failed. Each failure costs a future
    /// re-execution, never correctness, but a serving front end surfaces
    /// the count so a sick disk is visible instead of silent.
    pub fn cache_store_failures(&self) -> u64 {
        self.store_failures.load(Ordering::Relaxed)
    }

    /// Runs one cell: memo lookup, then disk lookup, then execution on a
    /// miss, then a best-effort store.
    ///
    /// # Errors
    ///
    /// Propagates [`Cell::execute`] errors.
    pub fn run_cell(&self, cell: &C) -> Result<C::Report, String> {
        self.run_cell_outcome(cell).map(|o| o.report)
    }

    /// Like [`Engine::run_cell`], but also reports whether the cell was
    /// served from the memo cache — the provenance a serving front end
    /// forwards to its clients.
    ///
    /// # Errors
    ///
    /// Propagates [`Cell::execute`] errors.
    pub fn run_cell_outcome(&self, cell: &C) -> Result<CellOutcome<C::Report>, String> {
        let (report, provenance) = match &self.memo {
            Some(memo) => memo.get_or_execute(cell.digest(), || self.fill(cell))?,
            None => {
                let fill = self.fill(cell)?;
                let provenance = fill.provenance();
                (fill.report, provenance)
            }
        };
        let counter = match provenance {
            MemoProvenance::Memory => &self.memo_hits,
            MemoProvenance::Disk => &self.cache_hits,
            MemoProvenance::Simulated => &self.executed,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Ok(CellOutcome {
            report,
            cached: provenance != MemoProvenance::Simulated,
        })
    }

    /// The one lookup → execute → store routine: disk lookup, then
    /// execution on a miss, then a best-effort store whose outcome decides
    /// whether the result is durable enough for the memo index.
    fn fill(&self, cell: &C) -> Result<MemoFill<C::Report>, String> {
        let key = cell.digest_hex();
        if let Some(cache) = &self.cache {
            if let Some(report) = cache.load_text(&key).as_deref().and_then(C::decode) {
                return Ok(MemoFill {
                    report,
                    from_disk: true,
                    durable: true,
                });
            }
        }
        let report = cell.execute()?;
        let durable = match &self.cache {
            Some(cache) => {
                let stored = cache.store_text(&key, &C::encode(&report)).is_ok();
                if !stored {
                    self.store_failures.fetch_add(1, Ordering::Relaxed);
                }
                stored
            }
            // No disk behind the index: memory is the only memo there is.
            None => true,
        };
        Ok(MemoFill {
            report,
            from_disk: false,
            durable,
        })
    }

    /// Runs every cell of `cells`, returning reports **ordered by grid
    /// index** regardless of worker scheduling.
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-indexed failing cell; the sweep does
    /// not short-circuit cells already claimed by other workers.
    pub fn run(&self, cells: &[C]) -> Result<Vec<C::Report>, String> {
        self.run_batch(cells)
            .into_iter()
            .map(|r| r.map(|o| o.report))
            .collect()
    }

    /// The batch-submit API: runs every cell of `cells` on the pool and
    /// returns one result **per cell**, ordered by grid index, without
    /// short-circuiting on failures. A serving front end uses this to
    /// answer each request in a batch independently — one infeasible cell
    /// yields one typed error, not a failed batch.
    pub fn run_batch(&self, cells: &[C]) -> Vec<Result<CellOutcome<C::Report>, String>> {
        let n = cells.len();
        let workers = self.threads.min(n.max(1));
        if workers <= 1 {
            return cells
                .iter()
                .map(|cell| self.run_cell_outcome(cell))
                .collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<_>>> = Mutex::new((0..n).map(|_| None).collect());
        thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result = self.run_cell_outcome(&cells[i]);
                    slots.lock().unwrap()[i] = Some(result);
                });
            }
        });
        slots
            .into_inner()
            .unwrap()
            .into_iter()
            .map(|slot| slot.expect("worker pool covered every cell"))
            .collect()
    }
}

impl<C: Cell> Default for Engine<C> {
    fn default() -> Self {
        Engine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{StrategySpec, WorkloadSpec};
    use ctbia_machine::BiaPlacement;

    fn cell(strategy: StrategySpec) -> CellSpec {
        CellSpec::new(
            WorkloadSpec::named("hist", 200).unwrap(),
            strategy,
            BiaPlacement::L1d,
        )
    }

    #[test]
    fn execute_cell_matches_direct_simulation() {
        let report = execute_cell(&cell(StrategySpec::Insecure)).unwrap();
        let wl = ctbia_workloads::Histogram::new(200);
        let run = ctbia_workloads::Workload::run(
            &wl,
            &mut Machine::insecure(),
            ctbia_workloads::Strategy::Insecure,
        );
        assert_eq!(report.digest, run.digest);
        assert_eq!(report.counters, run.counters);
        assert_eq!(report.label, "hist_200/insecure");
    }

    #[test]
    fn strategies_agree_on_output_through_the_engine() {
        let engine = SweepEngine::serial();
        let grid = [
            cell(StrategySpec::Insecure),
            cell(StrategySpec::CtAvx2),
            cell(StrategySpec::Bia),
        ];
        let reports = engine.run(&grid).unwrap();
        assert_eq!(reports[0].digest, reports[1].digest);
        assert_eq!(reports[0].digest, reports[2].digest);
        assert_eq!(engine.cells_executed(), 3);
        assert_eq!(engine.cache_hits(), 0);
    }

    #[test]
    fn traced_execution_is_observationally_inert() {
        let spec = cell(StrategySpec::Bia);
        let plain = execute_cell(&spec).unwrap();
        let (traced, sink) = execute_cell_traced(&spec, ctbia_trace::MetricsSink::new()).unwrap();
        assert_eq!(plain, traced);
        assert_eq!(plain.to_cache_text(), traced.to_cache_text());
        assert!(sink.events > 0, "the sink saw the cell's events");
        // Phase attribution partitions the cycle count exactly.
        assert_eq!(traced.counters.phases.total(), traced.counters.cycles);
    }

    #[test]
    fn pooled_machine_reuse_is_byte_identical() {
        let engine = SweepEngine::serial();
        let grid = [
            cell(StrategySpec::Insecure),
            cell(StrategySpec::CtAvx2),
            cell(StrategySpec::Bia),
        ];
        // Two consecutive serial runs: the second is served entirely by
        // pooled machines (same thread, same configurations) and must match
        // the first in every report field, including the cache text.
        let first = engine.run(&grid).unwrap();
        let second = engine.run(&grid).unwrap();
        assert_eq!(first, second);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.to_cache_text(), b.to_cache_text());
        }
    }

    #[test]
    fn run_cell_outcome_reports_cache_provenance() {
        let dir = std::env::temp_dir().join(format!("ctbia-engine-outcome-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = crate::cache::DiskCache::open(&dir).unwrap();
        let engine = SweepEngine::serial().with_cache(cache);
        let spec = cell(StrategySpec::Bia);
        let first = engine.run_cell_outcome(&spec).unwrap();
        assert!(!first.cached, "cold cache simulates");
        let second = engine.run_cell_outcome(&spec).unwrap();
        assert!(second.cached, "warm cache memo-hits");
        assert_eq!(first.report, second.report);
        assert_eq!(engine.cells_executed(), 1);
        assert_eq!(engine.cache_hits(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_batch_does_not_short_circuit_on_failures() {
        let mut bad = cell(StrategySpec::Bia);
        bad.placement = BiaPlacement::Llc;
        bad.config.hierarchy = ctbia_sim::config::HierarchyConfig::sliced_llc(8, 6);
        let grid = [cell(StrategySpec::Insecure), bad, cell(StrategySpec::Bia)];
        let results = SweepEngine::serial().run_batch(&grid);
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok());
        assert!(results[1].is_err(), "infeasible cell fails alone");
        assert!(results[2].is_ok(), "later cells still run");
        // Batch results agree with the plain grid runner cell-for-cell.
        let solo = execute_cell(&grid[2]).unwrap();
        assert_eq!(results[2].as_ref().unwrap().report, solo);
    }

    #[test]
    fn infeasible_cells_report_errors() {
        // LLC placement on an 8-slice hierarchy with page-granularity BIA
        // (M = 12 > LS_Hash = 6) is rejected by the machine; the engine must
        // surface that instead of panicking the pool.
        let mut spec = cell(StrategySpec::Bia);
        spec.placement = BiaPlacement::Llc;
        spec.config.hierarchy = ctbia_sim::config::HierarchyConfig::sliced_llc(8, 6);
        let err = SweepEngine::serial()
            .run(std::slice::from_ref(&spec))
            .unwrap_err();
        assert!(err.contains("hist_200"), "error names the cell: {err}");
    }
}
