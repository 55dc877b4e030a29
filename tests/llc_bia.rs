//! §6.4 end to end: the LLC-resident BIA with a sliced last-level cache.
//!
//! Checks the paper's three cases:
//!
//! * `LS_Hash >= 12` — page-granularity BIA in the LLC is fine;
//! * `6 < LS_Hash < 12` — feasible only at granularity `M = LS_Hash`
//!   (coarser granularities are rejected because a management group would
//!   span slices and the probe traffic would leak on the interconnect);
//! * `LS_Hash = 6` — infeasible, as consecutive lines are spread across
//!   slices.
//!
//! Plus the security property at the new observation point: both the
//! per-slice demand-traffic counts and the CT-op probe slice sequence are
//! identical across secrets.

use ctbia::core::bia::BiaConfig;
use ctbia::core::ctmem::Width;
use ctbia::core::ds::DataflowSet;
use ctbia::machine::{BiaPlacement, Machine, MachineConfig, MachineError};
use ctbia::sim::config::HierarchyConfig;
use ctbia::workloads::{Histogram, Strategy, Workload};

fn llc_machine(slices: u32, ls_hash: u32, m_log2: u32) -> Result<Machine, MachineError> {
    let mut cfg = MachineConfig::insecure();
    cfg.hierarchy = HierarchyConfig::sliced_llc(slices, ls_hash);
    cfg.bia = Some((BiaPlacement::Llc, BiaConfig::with_granularity(m_log2)));
    Machine::new(cfg)
}

#[test]
fn feasibility_rules_match_section_6_4() {
    // Skylake-X-like: LS_Hash >= 12 -> page granularity works.
    assert!(llc_machine(8, 12, 12).is_ok());
    assert!(llc_machine(8, 14, 12).is_ok());
    // Mid hash: M must shrink to LS_Hash.
    assert!(llc_machine(8, 9, 9).is_ok());
    assert!(
        llc_machine(8, 9, 8).is_ok(),
        "finer than LS_Hash is allowed"
    );
    let err = llc_machine(8, 9, 12).unwrap_err();
    assert!(err.to_string().contains("LS_Hash"), "{err}");
    // Xeon-E5-like: LS_Hash = 6 -> infeasible.
    let err = llc_machine(8, 6, 7).unwrap_err();
    assert!(err.to_string().contains("infeasible"), "{err}");
    // Monolithic LLC: no constraint.
    assert!(llc_machine(1, 12, 12).is_ok());
}

#[test]
fn llc_bia_is_functionally_correct_at_every_granularity() {
    for m_log2 in [7u32, 8, 9, 10, 11, 12] {
        let mut m = llc_machine(8, 12, m_log2).unwrap();
        let base = m.alloc_u32_array(3000).unwrap();
        for i in 0..3000u64 {
            m.poke_u32(base.offset(i * 4), (i * 7 + 3) as u32);
        }
        let ds = DataflowSet::contiguous(base, 3000 * 4);
        for secret in [0u64, 1234, 2999] {
            let v = Strategy::bia().load(&mut m, &ds, base.offset(secret * 4), Width::U32);
            assert_eq!(v, secret * 7 + 3, "M={m_log2}, secret {secret}");
        }
        Strategy::bia().store(&mut m, &ds, base.offset(42 * 4), Width::U32, 777);
        assert_eq!(m.peek_u32(base.offset(42 * 4)), 777, "M={m_log2}");
        assert_eq!(
            m.peek_u32(base.offset(43 * 4)),
            43 * 7 + 3,
            "M={m_log2}: neighbour"
        );
    }
}

#[test]
fn llc_bia_workload_matches_other_placements() {
    let wl = Histogram::new(400);
    let mut reference = Machine::insecure();
    let expect = wl.run(&mut reference, Strategy::Insecure);
    let mut m = llc_machine(8, 9, 9).unwrap();
    let got = wl.run(&mut m, Strategy::bia());
    assert_eq!(got.digest, expect.digest);
    assert!(got.counters.cycles > expect.counters.cycles);
}

#[test]
fn ds_traffic_bypasses_l1_and_l2_under_llc_bia() {
    use ctbia::core::ctmem::CtMemory;
    use ctbia::sim::hierarchy::Level;
    let mut m = llc_machine(8, 12, 12).unwrap();
    let a = m.alloc(64, 64).unwrap();
    m.ds_load(a, Width::U64);
    assert!(!m.hierarchy().cache(Level::L1d).is_resident(a.line()));
    assert!(!m.hierarchy().cache(Level::L2).is_resident(a.line()));
    assert!(m.hierarchy().cache(Level::Llc).is_resident(a.line()));
}

#[test]
fn slice_traffic_is_secret_independent_when_m_is_within_ls_hash() {
    // The §6.4 security claim at the interconnect observation point, for
    // both LS_Hash regimes the paper calls feasible.
    for (slices, ls_hash, m_log2) in [(8u32, 12u32, 12u32), (8, 9, 9)] {
        let observe = |secret: u64| {
            let mut m = llc_machine(slices, ls_hash, m_log2).unwrap();
            let base = m.alloc(64 * 1024, 4096).unwrap(); // 16 pages
            let ds = DataflowSet::contiguous(base, 64 * 1024);
            m.enable_observation();
            let _ = Strategy::bia().load(&mut m, &ds, base.offset(secret * 4), Width::U32);
            Strategy::bia().store(&mut m, &ds, base.offset(secret * 4), Width::U32, 9);
            let obs = m.take_observation();
            let counts = m.hierarchy().llc_slice_counts().to_vec();
            (obs.slices, counts, obs.demand)
        };
        let a = observe(3);
        let b = observe(16_000);
        assert_eq!(
            a.0, b.0,
            "probe slice sequence (slices={slices}, LS_Hash={ls_hash})"
        );
        assert_eq!(a.1, b.1, "per-slice demand counts");
        assert_eq!(a.2, b.2, "demand trace");
        assert!(!a.0.is_empty(), "probes must have been recorded");
    }
}

#[test]
fn slice_hash_distributes_lines() {
    let m = llc_machine(8, 12, 12).unwrap();
    use ctbia::sim::addr::LineAddr;
    let mut seen = [false; 8];
    for i in 0..1024u64 {
        let s = m.hierarchy().llc_slice_of(LineAddr::new(i * 64)); // page-stride lines
        seen[s as usize] = true;
    }
    assert!(seen.iter().all(|&x| x), "all 8 slices used across pages");
    // Within a page all lines land in the same slice (LS_Hash = 12).
    let base = m.hierarchy().llc_slice_of(LineAddr::new(0));
    for i in 0..64u64 {
        assert_eq!(m.hierarchy().llc_slice_of(LineAddr::new(i)), base);
    }
}
