//! The paper's Figure 4, reproduced as an executable scenario: a *split*
//! design — read the existence bitmap first, act on it later — is racy and
//! leaks, which is exactly why `CTLoad` performs the cache access and the
//! bitmap read in one step (§4.1).
//!
//! Setup (matching the figure): DS = lines {0..7} of one page; lines
//! {1,2,4,5} are cached. The victim reads the stale existence set, the
//! attacker then evicts line 4, and the victim issues accesses based on
//! the stale information: the believed-missing lines {0,6,7} plus its
//! secret target. If the secret is 4, line 4 ends up cached (the victim
//! fetched it as its target); for any other secret it stays evicted — the
//! attacker reads the secret off the final cache state.

use ctbia::core::ctmem::{CtMemory, CtMemoryExt, Width};
use ctbia::core::ds::DataflowSet;
use ctbia::core::linearize::{ct_load_bia, BiaOptions};
use ctbia::machine::{BiaPlacement, Machine};
use ctbia::sim::addr::PhysAddr;
use ctbia::sim::hierarchy::Level;

const LINES: u64 = 8;

struct Scenario {
    m: Machine,
    base: PhysAddr,
    ds: DataflowSet,
}

/// Builds the Figure 4 state: one-page DS with lines {1,2,4,5} resident.
fn setup() -> Scenario {
    let mut m = Machine::with_bia(BiaPlacement::L1d);
    let base = m.alloc(LINES * 64, 4096).unwrap();
    for i in 0..LINES * 8 {
        m.poke_u64(base.offset(i * 8), i);
    }
    let ds = DataflowSet::contiguous(base, LINES * 64);
    // Install the BIA entry first so the monitored fills below are
    // recorded (the paper's example assumes the bitmap reflects
    // {1,2,4,5}).
    let _ = m.ct_load(base);
    for i in [1u64, 2, 4, 5] {
        let _ = m.load_u64(base.offset(i * 64));
    }
    Scenario { m, base, ds }
}

fn residency(s: &Scenario) -> Vec<bool> {
    (0..LINES)
        .map(|i| {
            s.m.hierarchy()
                .cache(Level::L1d)
                .is_resident(s.base.offset(i * 64).line())
        })
        .collect()
}

/// The hypothetical *split* protected load: obtain the bitmap, then (after
/// a window the attacker can use) fetch the believed-missing lines and the
/// target. Everything else mirrors Algorithm 2.
fn naive_split_load(
    s: &mut Scenario,
    secret_line: u64,
    attacker: impl FnOnce(&mut Machine),
) -> u64 {
    // Step 1: read the existence bitmap (stale the moment it returns).
    let stale = s.m.ct_load(s.base).existence;
    // The race window: the attacker acts between the bitmap read and the
    // victim's accesses.
    attacker(&mut s.m);
    // Step 2: act on stale information.
    let bitmask = s.ds.pages()[0].bitmask.bits();
    let mut bits = bitmask & !stale;
    while bits != 0 {
        let i = bits.trailing_zeros() as u64;
        bits &= bits - 1;
        let _ = s.m.ds_load(s.base.offset(i * 64), Width::U64);
    }
    // The one real access to the (believed-resident) target.
    s.m.load_u64(s.base.offset(secret_line * 64))
}

#[test]
fn split_design_leaks_through_the_race() {
    let final_state = |secret_line: u64| {
        let mut s = setup();
        assert_eq!(
            residency(&s),
            [false, true, true, false, true, true, false, false]
        );
        let base = s.base;
        let v = naive_split_load(&mut s, secret_line, move |m| {
            m.flush_line(base.offset(4 * 64))
        });
        assert_eq!(v, secret_line * 8, "functionally the value is still right");
        residency(&s)
    };

    let with_secret_1 = final_state(1);
    let with_secret_4 = final_state(4);
    // The leak: line 4's final residency reveals whether it was the target.
    assert!(!with_secret_1[4], "victim never re-touched line 4");
    assert!(with_secret_4[4], "victim fetched line 4 as its target");
    assert_ne!(
        with_secret_1, with_secret_4,
        "attacker distinguishes the secrets"
    );
}

#[test]
fn combined_ctload_closes_the_race() {
    // The same attacker interference, but the victim uses the real
    // Algorithm 2 — re-running it after the eviction, as the combined
    // instruction semantics guarantee fresh existence information on every
    // CTLoad. Final state and demand trace are secret-independent.
    let final_state = |secret_line: u64| {
        let mut s = setup();
        let base = s.base;
        // Attacker evicts line 4 before the protected access.
        s.m.flush_line(base.offset(4 * 64));
        s.m.enable_observation();
        let v = ct_load_bia(
            &mut s.m,
            &s.ds,
            base.offset(secret_line * 64),
            Width::U64,
            BiaOptions::default(),
        );
        assert_eq!(v, secret_line * 8);
        (residency(&s), s.m.take_observation().demand)
    };
    let a = final_state(1);
    let b = final_state(4);
    assert_eq!(a.0, b.0, "final cache state is secret-independent");
    assert_eq!(a.1, b.1, "demand trace is secret-independent");
    assert!(
        a.0.iter().all(|&r| r),
        "Algorithm 2 leaves the whole DS resident"
    );
}

#[test]
fn ctload_existence_is_always_fresh() {
    // Directly: after an eviction, the next CTLoad's existence bitmap no
    // longer claims the line (the BIA monitored the invalidation).
    let mut s = setup();
    let base = s.base;
    // Warm the BIA entry.
    let _ = ct_load_bia(&mut s.m, &s.ds, base, Width::U64, BiaOptions::default());
    let before = s.m.ct_load(base).existence;
    assert_ne!(before & (1 << 4), 0, "line 4 known resident");
    s.m.flush_line(base.offset(4 * 64));
    let after = s.m.ct_load(base).existence;
    assert_eq!(after & (1 << 4), 0, "the eviction is visible immediately");
}
