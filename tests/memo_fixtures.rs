//! Byte-pinned memo-cache records, one per schema.
//!
//! Each file under `tests/golden/memo/` is a cache entry exactly as an
//! earlier build wrote it, named by its cell's digest. For every fixture
//! the cell must still hash to the file name, the text must decode and
//! re-encode byte-for-byte, and an engine whose cache holds the file
//! must serve the cell from it without executing — so caches written by
//! earlier builds stay valid.

use ctbia::analyze::AnalyzeCell;
use ctbia::harness::{Cell, CellSpec, DiskCache, Engine, StrategySpec, WorkloadSpec};
use ctbia::machine::BiaPlacement;
use ctbia::verify::{verify_seeds, VerifyCell};
use std::fmt::Debug;
use std::path::{Path, PathBuf};

fn memo_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/memo")
}

fn spec(name: &str, size: usize, strategy: StrategySpec) -> CellSpec {
    CellSpec::new(
        WorkloadSpec::named(name, size).expect("known workload"),
        strategy,
        BiaPlacement::L1d,
    )
}

/// Checks one fixture and returns its decoded report.
fn check_fixture<C>(tag: &str, cell: &C) -> C::Report
where
    C: Cell,
    C::Report: PartialEq + Debug,
{
    let name = cell.digest_hex();
    let text = std::fs::read_to_string(memo_dir().join(&name))
        .unwrap_or_else(|e| panic!("{tag}: no fixture named {name}: {e}"));
    let report = C::decode(&text).unwrap_or_else(|| panic!("{tag}: fixture does not decode"));
    assert_eq!(C::encode(&report), text, "{tag}: re-encoding differs");

    let dir = std::env::temp_dir().join(format!("ctbia-memo-fixture-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = DiskCache::open(&dir).unwrap();
    std::fs::write(dir.join(&name), &text).unwrap();
    let engine = Engine::<C>::serial().with_cache(cache);
    let outcome = engine.run_cell_outcome(cell).unwrap();
    assert!(outcome.cached, "{tag}: fixture is not a cache hit");
    assert_eq!(outcome.report, report);
    assert_eq!(engine.cells_executed(), 0);
    let _ = std::fs::remove_dir_all(&dir);
    report
}

#[test]
fn sim_record_is_pinned() {
    let report = check_fixture("sim", &spec("hist", 200, StrategySpec::Bia));
    assert_eq!(report.label, "hist_200/BIA@L1d");
    assert!(report.counters.bia.accesses > 0);
}

#[test]
fn verify_record_with_violations_is_pinned() {
    let leaky = spec("leaky-bin", 150, StrategySpec::Insecure);
    let report = check_fixture("verify", &VerifyCell::new(leaky, verify_seeds(true)));
    assert!(!report.violations.is_empty());
    assert!(report.violations.iter().all(|v| !v.provenance.is_empty()));
    assert!(report.first_divergence.is_some());
}

#[test]
fn analyze_record_with_a_bound_is_pinned() {
    let leaky = spec("leaky-bin", 150, StrategySpec::Insecure);
    let report = check_fixture("analyze", &AnalyzeCell::new(leaky));
    assert!(report.trace_millibits > 0);
    assert!(!report.violations.is_empty());
}

#[test]
fn every_fixture_is_checked() {
    let mut names: Vec<String> = std::fs::read_dir(memo_dir())
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let mut pinned = vec![
        spec("hist", 200, StrategySpec::Bia).digest_hex(),
        VerifyCell::new(
            spec("leaky-bin", 150, StrategySpec::Insecure),
            verify_seeds(true),
        )
        .digest_hex(),
        AnalyzeCell::new(spec("leaky-bin", 150, StrategySpec::Insecure)).digest_hex(),
    ];
    pinned.sort();
    assert_eq!(names, pinned);
}
