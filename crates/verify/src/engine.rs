//! Verification cells on the harness grid engine, plus the canonical
//! verification grids.
//!
//! [`VerifyEngine`] is the one `ctbia_harness::Engine` over
//! [`VerifyCell`]s: verdicts memoize under the cell's content digest in
//! the verifier's own
//! [`VERIFY_SCHEMA_VERSION`]
//! encoding, so verify cells and simulation cells share one store
//! without colliding.

use crate::cell::{execute_verify_cell, VerifyCell, VerifyReport, VERIFY_SCHEMA_VERSION};
use ctbia_harness::{Cell, CellSpec, CryptoKernel, Digest, Engine, StrategySpec, WorkloadSpec};
use ctbia_machine::BiaPlacement;

/// The grid engine over verification cells.
pub type VerifyEngine = Engine<VerifyCell>;

impl Cell for VerifyCell {
    type Report = VerifyReport;

    /// The underlying cell digest extended with the verify schema marker
    /// and the seed family.
    fn digest(&self) -> u128 {
        let mut d = Digest::new();
        d.field_str("verify", VERIFY_SCHEMA_VERSION);
        let cell = self.spec.digest();
        d.field_u64("cell.hi", (cell >> 64) as u64);
        d.field_u64("cell.lo", cell as u64);
        d.field_u64("seeds", self.seeds.len() as u64);
        for &s in &self.seeds {
            d.write_u64(s);
        }
        d.finish()
    }

    fn execute(&self) -> Result<VerifyReport, String> {
        execute_verify_cell(self)
    }

    fn encode(report: &VerifyReport) -> String {
        report.to_cache_text()
    }

    fn decode(text: &str) -> Option<VerifyReport> {
        VerifyReport::from_cache_text(text)
    }
}

/// The secret-seed family the canonical grids replay: 4 seeds in quick
/// mode, 9 (= 8 pairs) in full mode. Deterministic, so cached verdicts
/// stay valid across runs.
pub fn verify_seeds(quick: bool) -> Vec<u64> {
    let n = if quick { 4 } else { 9 };
    (0..n)
        .map(|i| 0x5ec2e7 ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect()
}

/// The canonical verification grid.
///
/// Full mode covers all five Ghostrider workloads under software CT and
/// under BIA / BIA-loads at every placement, plus every crypto kernel
/// (oracle-only) and the leaky negative control, with 9 seeds. Quick
/// mode trims to two strategies, smaller sizes, and 4 seeds — the CI
/// smoke grid.
pub fn verify_grid(quick: bool) -> Vec<VerifyCell> {
    let seeds = verify_seeds(quick);
    let mut cells = Vec::new();
    let mut push = |workload: WorkloadSpec, strategy: StrategySpec, placement: BiaPlacement| {
        cells.push(VerifyCell::new(
            CellSpec::new(workload, strategy, placement),
            seeds.clone(),
        ));
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
    let strategies: &[(StrategySpec, &[BiaPlacement])] = if quick {
        &[
            (StrategySpec::Ct, &[BiaPlacement::L1d]),
            (StrategySpec::Bia, &[BiaPlacement::L1d]),
        ]
    } else {
        &[
            (StrategySpec::Ct, &[BiaPlacement::L1d]),
            (
                StrategySpec::BiaLoads,
                &[BiaPlacement::L1d, BiaPlacement::L2, BiaPlacement::Llc],
            ),
            (
                StrategySpec::Bia,
                &[BiaPlacement::L1d, BiaPlacement::L2, BiaPlacement::Llc],
            ),
        ]
    };

    for &(name, size) in sizes {
        let wl = WorkloadSpec::named(name, size).expect("known workload");
        for (strategy, placements) in strategies {
            for &placement in *placements {
                push(wl, *strategy, placement);
            }
        }
    }
    if !quick {
        for kernel in CryptoKernel::ALL {
            for strategy in [StrategySpec::Ct, StrategySpec::BiaLoads, StrategySpec::Bia] {
                push(WorkloadSpec::Crypto(kernel), strategy, BiaPlacement::L1d);
            }
        }
    }
    // The negative control: must fail both analyses.
    push(
        WorkloadSpec::named("leaky-bin", if quick { 300 } else { 500 }).expect("known workload"),
        StrategySpec::Insecure,
        BiaPlacement::L1d,
    );
    // The speculation controls: the Spectre gadget must verify clean on
    // the default (non-speculating) machine, and must be caught by both
    // analyses once the machine executes bounded wrong-path windows.
    let spectre =
        WorkloadSpec::named("spectre", if quick { 192 } else { 256 }).expect("known workload");
    push(spectre, StrategySpec::Insecure, BiaPlacement::L1d);
    let mut speculating = VerifyCell::new(
        CellSpec::new(spectre, StrategySpec::Insecure, BiaPlacement::L1d),
        seeds.clone(),
    );
    speculating.spec.config.spec_window = 32;
    cells.push(speculating);
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_workloads_trace_identically_across_eight_pairs() {
        let seeds = verify_seeds(false);
        assert_eq!(seeds.len(), 9, "nine seeds = eight secret pairs");
        for (name, size) in [
            ("bin", 300),
            ("hist", 200),
            ("perm", 200),
            ("heap", 300),
            ("dij", 16),
        ] {
            let spec = CellSpec::new(
                WorkloadSpec::named(name, size).unwrap(),
                StrategySpec::Ct,
                BiaPlacement::L1d,
            );
            let outcome = crate::oracle::trace_equivalence(&spec, &seeds).unwrap();
            assert_eq!(outcome.pairs, 8);
            assert!(
                outcome.equal,
                "{name}: {}",
                outcome.first_divergence.unwrap_or_default()
            );
        }
    }

    #[test]
    fn grids_have_the_advertised_shape() {
        let quick = verify_grid(true);
        let full = verify_grid(false);
        // quick: 5 workloads x 2 strategies + leaky control + 2 spectre
        // controls (non-speculating and speculating).
        assert_eq!(quick.len(), 5 * 2 + 3);
        // full: 5 x (1 + 3 + 3) + crypto x 3 + leaky + 2 spectre controls.
        assert_eq!(full.len(), 5 * 7 + CryptoKernel::ALL.len() * 3 + 3);
        // Exactly two cells per grid must be caught: the leaky control
        // and the speculating Spectre cell.
        assert_eq!(quick.iter().filter(|c| c.expects_leak()).count(), 2);
        assert_eq!(full.iter().filter(|c| c.expects_leak()).count(), 2);
        for cell in &full {
            assert!(cell.seeds.len() >= 9, "full grid replays >= 8 pairs");
        }
        // Every cell key is distinct — no cache collisions inside a grid.
        let mut keys: Vec<String> = full.iter().map(VerifyCell::digest_hex).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), full.len());
    }
}
