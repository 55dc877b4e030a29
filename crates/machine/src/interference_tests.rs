//! Unit tests for the deterministic co-runner ([`crate::machine::Interference`]).

#![cfg(test)]

use crate::machine::{BiaPlacement, CoRunnerOp, Interference, Machine};
use ctbia_core::ctmem::{CtMemory, CtMemoryExt};
use ctbia_sim::hierarchy::Level;

#[test]
fn corunner_fires_every_period() {
    let mut m = Machine::insecure();
    let victim = m.alloc(64, 64).unwrap();
    let target = m.alloc(64, 64).unwrap();
    m.load_u64(target); // make it resident
    m.set_interference(Some(Interference {
        period: 3,
        actions: vec![CoRunnerOp::Flush(target)],
    }));
    // Two accesses: no action yet.
    m.load_u64(victim);
    m.load_u64(victim);
    assert!(m.hierarchy().cache(Level::L1d).is_resident(target.line()));
    // Third access triggers the flush.
    m.load_u64(victim);
    assert!(!m.hierarchy().cache(Level::L1d).is_resident(target.line()));
}

#[test]
fn corunner_actions_rotate_round_robin() {
    let mut m = Machine::insecure();
    let victim = m.alloc(64, 64).unwrap();
    let a = m.alloc(64, 64).unwrap();
    let b = m.alloc(64, 64).unwrap();
    m.set_interference(Some(Interference {
        period: 1,
        actions: vec![CoRunnerOp::Touch(a), CoRunnerOp::Touch(b)],
    }));
    m.load_u64(victim); // action 0: touch a
    assert!(m.hierarchy().cache(Level::L1d).is_resident(a.line()));
    assert!(!m.hierarchy().cache(Level::L1d).is_resident(b.line()));
    m.load_u64(victim); // action 1: touch b
    assert!(m.hierarchy().cache(Level::L1d).is_resident(b.line()));
}

#[test]
fn corunner_costs_no_victim_cycles_or_trace_entries() {
    let mut m = Machine::insecure();
    let victim = m.alloc(64, 64).unwrap();
    let other = m.alloc(64, 64).unwrap();
    m.load_u64(victim); // warm
    let quiet = {
        let (_, c) = m.measure(|m| m.load_u64(victim));
        c
    };
    m.set_interference(Some(Interference {
        period: 1,
        actions: vec![CoRunnerOp::Touch(other)],
    }));
    m.enable_observation();
    let (_, noisy) = m.measure(|m| m.load_u64(victim));
    let trace = m.take_observation().demand;
    assert_eq!(
        noisy.cycles, quiet.cycles,
        "co-runner work is not the victim's time"
    );
    assert_eq!(noisy.insts, quiet.insts);
    assert_eq!(
        trace.len(),
        1,
        "co-runner accesses stay out of the victim trace"
    );
    // But the co-runner's cache traffic is real:
    assert!(m.hierarchy().cache(Level::L1d).is_resident(other.line()));
}

#[test]
fn corunner_keeps_bia_synchronized() {
    let mut m = Machine::with_bia(BiaPlacement::L1d);
    let victim = m.alloc(64, 64).unwrap();
    let tracked = m.alloc(4096, 4096).unwrap();
    // Install a BIA entry and make a line known-resident.
    let _ = m.ct_load(tracked);
    m.load_u64(tracked);
    let bit = 1u64 << tracked.line().index_in_page();
    assert_ne!(m.ct_load(tracked).existence & bit, 0);
    // The co-runner evicts it; the BIA must learn.
    m.set_interference(Some(Interference {
        period: 1,
        actions: vec![CoRunnerOp::Flush(tracked)],
    }));
    m.load_u64(victim); // triggers the flush
    m.set_interference(None);
    assert_eq!(
        m.ct_load(tracked).existence & bit,
        0,
        "BIA saw the co-runner's eviction"
    );
}

#[test]
fn empty_or_zero_period_interference_is_inert() {
    let mut m = Machine::insecure();
    let victim = m.alloc(64, 64).unwrap();
    m.set_interference(Some(Interference {
        period: 0,
        actions: vec![CoRunnerOp::Flush(victim)],
    }));
    m.load_u64(victim);
    assert!(m.hierarchy().cache(Level::L1d).is_resident(victim.line()));
    m.set_interference(Some(Interference {
        period: 1,
        actions: vec![],
    }));
    m.load_u64(victim);
    assert!(m.hierarchy().cache(Level::L1d).is_resident(victim.line()));
}
