//! The one grid engine, checked the same way over all three cell kinds:
//! simulation cells, verification cells and certification cells.
//!
//! For each kind, a serial run, a threaded run, a cold cached run, two
//! warm cached runs and a memo-indexed run must all produce the same
//! reports, and the engine's counters must say where every report came
//! from. The cold run loses one memo-cache store to an injected fault,
//! which must be counted and must cost exactly one re-execution later.

use ctbia::analyze::AnalyzeCell;
use ctbia::harness::{Cell, CellSpec, DiskCache, Engine, MemoIndex, StrategySpec, WorkloadSpec};
use ctbia::machine::BiaPlacement;
use ctbia::verify::{verify_seeds, VerifyCell};
use std::fmt::Debug;
use std::path::PathBuf;
use std::sync::Arc;

fn spec(name: &str, size: usize, strategy: StrategySpec) -> CellSpec {
    CellSpec::new(
        WorkloadSpec::named(name, size).expect("known workload"),
        strategy,
        BiaPlacement::L1d,
    )
}

/// Three constant-time cells and the leaky negative control.
fn tiny_specs() -> Vec<CellSpec> {
    vec![
        spec("hist", 150, StrategySpec::Ct),
        spec("perm", 120, StrategySpec::Ct),
        spec("bin", 200, StrategySpec::Ct),
        spec("leaky-bin", 150, StrategySpec::Insecure),
    ]
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ctbia-engine-cells-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `grid` through every engine configuration and checks that they
/// agree, that every report satisfies `passed`, and that the counters
/// account for every cell.
fn serial_threaded_cached<C>(tag: &str, grid: &[C], passed: impl Fn(&C, &C::Report) -> bool)
where
    C: Cell,
    C::Report: PartialEq + Debug,
{
    let n = grid.len() as u64;
    let serial = Engine::<C>::serial().run(grid).unwrap();
    let threaded = Engine::<C>::new().with_threads(4).run(grid).unwrap();
    assert_eq!(serial, threaded, "{tag}: threaded run differs from serial");
    for (cell, report) in grid.iter().zip(&serial) {
        assert!(passed(cell, report), "{tag}: {report:?}");
    }

    let dir = scratch_dir(tag);
    let cache = DiskCache::open(&dir).unwrap();
    cache.fail_next_stores(1);
    let cold = Engine::<C>::serial().with_cache(cache);
    assert_eq!(cold.run(grid).unwrap(), serial, "{tag}: cold cached run");
    assert_eq!(cold.cells_executed(), n);
    assert_eq!(cold.cache_store_failures(), 1, "{tag}: lost store counted");

    // The cell whose store failed re-executes once; the rest are hits.
    let warm = Engine::<C>::serial().with_cache(DiskCache::open(&dir).unwrap());
    assert_eq!(warm.run(grid).unwrap(), serial, "{tag}: first warm run");
    assert_eq!(warm.cells_executed(), 1, "{tag}: one re-execution");
    assert_eq!(warm.cache_hits(), n - 1);
    assert_eq!(warm.cache_store_failures(), 0);

    let warm = Engine::<C>::new()
        .with_threads(4)
        .with_cache(DiskCache::open(&dir).unwrap());
    assert_eq!(warm.run(grid).unwrap(), serial, "{tag}: cached replay");
    assert_eq!(warm.cells_executed(), 0);
    assert_eq!(warm.cache_hits(), n);

    // The memo index fills from disk once, then answers from memory.
    let memo = Engine::<C>::serial()
        .with_cache(DiskCache::open(&dir).unwrap())
        .with_memo_index(Arc::new(MemoIndex::new(4)));
    assert_eq!(memo.run(grid).unwrap(), serial, "{tag}: memo fill");
    assert_eq!(memo.run(grid).unwrap(), serial, "{tag}: memo replay");
    assert_eq!(
        (memo.cells_executed(), memo.cache_hits(), memo.memo_hits()),
        (0, n, n)
    );
    for (a, b) in serial.iter().zip(&threaded) {
        assert_eq!(C::encode(a), C::encode(b));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sim_cells_agree_serial_threaded_and_cached() {
    serial_threaded_cached("sim", &tiny_specs(), |spec, report| {
        report.label == spec.label() && report.counters.phases.total() == report.counters.cycles
    });
}

#[test]
fn verify_cells_agree_serial_threaded_and_cached() {
    let grid: Vec<VerifyCell> = tiny_specs()
        .into_iter()
        .map(|spec| VerifyCell::new(spec, verify_seeds(true)))
        .collect();
    serial_threaded_cached("verify", &grid, |cell, report| {
        report.passed(cell.expects_leak())
    });
}

#[test]
fn analyze_cells_agree_serial_threaded_and_cached() {
    let grid: Vec<AnalyzeCell> = tiny_specs().into_iter().map(AnalyzeCell::new).collect();
    serial_threaded_cached("analyze", &grid, |cell, report| {
        report.passed(cell.expects_leak())
    });
}
