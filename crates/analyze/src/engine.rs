//! Analysis cells on the harness grid engine, plus the canonical
//! certification grids.
//!
//! [`AnalyzeEngine`] is the one `ctbia_harness::Engine` over
//! [`AnalyzeCell`]s: verdicts memoize under the cell's content digest in
//! the analyzer's own
//! [`ANALYZE_SCHEMA_VERSION`](crate::cell::ANALYZE_SCHEMA_VERSION)
//! encoding, so analyze, verify, and simulation cells share one store
//! without colliding.

use crate::cell::{execute_analyze_cell, AnalyzeCell, AnalyzeReport, ANALYZE_SCHEMA_VERSION};
use ctbia_harness::{Cell, CellSpec, CryptoKernel, Digest, Engine, StrategySpec, WorkloadSpec};
use ctbia_machine::BiaPlacement;

/// The grid engine over certification cells.
pub type AnalyzeEngine = Engine<AnalyzeCell>;

impl Cell for AnalyzeCell {
    type Report = AnalyzeReport;

    /// The underlying cell digest extended with the analyze schema
    /// marker (no seeds: the extractor never observes a secret value).
    fn digest(&self) -> u128 {
        let mut d = Digest::new();
        d.field_str("analyze", ANALYZE_SCHEMA_VERSION);
        let cell = self.spec.digest();
        d.field_u64("cell.hi", (cell >> 64) as u64);
        d.field_u64("cell.lo", cell as u64);
        d.finish()
    }

    fn execute(&self) -> Result<AnalyzeReport, String> {
        execute_analyze_cell(self)
    }

    fn encode(report: &AnalyzeReport) -> String {
        report.to_cache_text()
    }

    fn decode(text: &str) -> Option<AnalyzeReport> {
        AnalyzeReport::from_cache_text(text)
    }
}

/// The crypto kernels whose *insecure* versions still certify clean —
/// DES/3DES tables fit a single cache line and XOR never indexes by a
/// secret — so the grid's Insecure arm excludes them (a 0-bit bound
/// there is correct, not a miss).
const INSECURE_CLEAN_KERNELS: [CryptoKernel; 3] =
    [CryptoKernel::Des, CryptoKernel::Des3, CryptoKernel::Xor];

/// The canonical certification grid.
///
/// Full mode certifies all five Ghostrider workloads under software CT
/// and under BIA at every placement, plus every crypto kernel under CT
/// and BIA, and demands a strictly positive verdict from every
/// *insecure* cell (line-granularity-clean kernels excluded) and from
/// the leaky negative control. Quick mode trims to L1d and the
/// Ghostrider set — the CI smoke grid.
pub fn analyze_grid(quick: bool) -> Vec<AnalyzeCell> {
    let mut cells = Vec::new();
    let mut push = |workload: WorkloadSpec, strategy: StrategySpec, placement: BiaPlacement| {
        cells.push(AnalyzeCell::new(CellSpec::new(
            workload, strategy, placement,
        )));
    };

    let sizes: &[(&str, usize)] = if quick {
        &[
            ("dij", 24),
            ("hist", 300),
            ("perm", 300),
            ("bin", 400),
            ("heap", 400),
        ]
    } else {
        &[
            ("dij", 32),
            ("hist", 500),
            ("perm", 500),
            ("bin", 600),
            ("heap", 600),
        ]
    };
    let bia_placements: &[BiaPlacement] = if quick {
        &[BiaPlacement::L1d]
    } else {
        &[BiaPlacement::L1d, BiaPlacement::L2, BiaPlacement::Llc]
    };

    for &(name, size) in sizes {
        let wl = WorkloadSpec::named(name, size).expect("known workload");
        push(wl, StrategySpec::Ct, BiaPlacement::L1d);
        for &placement in bia_placements {
            push(wl, StrategySpec::Bia, placement);
        }
        push(wl, StrategySpec::Insecure, BiaPlacement::L1d);
    }
    if !quick {
        for kernel in CryptoKernel::ALL {
            for strategy in [StrategySpec::Ct, StrategySpec::Bia] {
                push(WorkloadSpec::Crypto(kernel), strategy, BiaPlacement::L1d);
            }
        }
        for kernel in CryptoKernel::ALL {
            if !INSECURE_CLEAN_KERNELS.contains(&kernel) {
                push(
                    WorkloadSpec::Crypto(kernel),
                    StrategySpec::Insecure,
                    BiaPlacement::L1d,
                );
            }
        }
    }
    // The negative control: must fail both passes.
    push(
        WorkloadSpec::named("leaky-bin", if quick { 300 } else { 500 }).expect("known workload"),
        StrategySpec::Insecure,
        BiaPlacement::L1d,
    );
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_have_the_advertised_shape() {
        let quick = analyze_grid(true);
        let full = analyze_grid(false);
        // quick: 5 workloads x (CT + BIA@L1d + insecure) + leaky control.
        assert_eq!(quick.len(), 5 * 3 + 1);
        // full: 5 x (CT + BIA@3 + insecure) + crypto x (CT + BIA)
        //       + 5 insecure-positive crypto + leaky control.
        assert_eq!(full.len(), 5 * 5 + 8 * 2 + 5 + 1);
        assert_eq!(quick.iter().filter(|c| c.expects_leak()).count(), 6);
        assert_eq!(full.iter().filter(|c| c.expects_leak()).count(), 11);
        // Every cell key is distinct — no cache collisions inside a grid.
        let mut keys: Vec<String> = full.iter().map(AnalyzeCell::digest_hex).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), full.len());
    }

    #[test]
    fn the_quick_grid_passes_end_to_end() {
        let grid = analyze_grid(true);
        let reports = AnalyzeEngine::new().run(&grid).unwrap();
        for (cell, report) in grid.iter().zip(&reports) {
            assert!(report.passed(cell.expects_leak()), "{report}");
        }
    }
}
