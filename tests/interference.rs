//! The paper's §5.1 general case: "there can be other applications/
//! processes using the same cache at the same time". A deterministic
//! co-runner flushes, touches, and prefetches lines *while* the protected
//! algorithms run; functionality (§5.2) and security (§5.3) must survive.
//!
//! This is the whole point of the `CTStore` design (Figure 6 (c)/(d)): a
//! concurrent eviction or prefetch between the algorithm's `CTLoad` and
//! `CTStore` must never corrupt data — the conditional store re-checks
//! the dirty bit at store time.

use ctbia::core::ctmem::Width;
use ctbia::core::ds::DataflowSet;
use ctbia::machine::{BiaPlacement, CoRunnerOp, Interference, Machine};
use ctbia::workloads::{histogram, Histogram, Strategy};

/// Heavy interference over the given region: flush, touch, and
/// prefetch-rotate across its pages every `period` victim accesses.
fn hostile(base: ctbia::sim::PhysAddr, bytes: u64, period: u64) -> Interference {
    let mut actions = Vec::new();
    let lines = bytes / 64;
    for i in (0..lines).step_by(3) {
        actions.push(CoRunnerOp::Flush(base.offset(i * 64)));
        actions.push(CoRunnerOp::Touch(base.offset(((i + 1) % lines) * 64)));
        actions.push(CoRunnerOp::Prefetch(base.offset(((i + 2) % lines) * 64)));
    }
    Interference { period, actions }
}

#[test]
fn linearized_rmw_survives_concurrent_eviction_and_prefetch() {
    for (strategy, bia) in [
        (Strategy::software_ct(), None),
        (Strategy::bia(), Some(BiaPlacement::L1d)),
        (Strategy::bia(), Some(BiaPlacement::L2)),
    ] {
        let mut m = match bia {
            Some(p) => Machine::with_bia(p),
            None => Machine::insecure(),
        };
        let base = m.alloc_u32_array(600).unwrap();
        for i in 0..600u64 {
            m.poke_u32(base.offset(i * 4), i as u32);
        }
        let ds = DataflowSet::contiguous(base, 600 * 4);
        // The co-runner attacks the DS itself, every 3 victim accesses.
        m.set_interference(Some(hostile(base, 600 * 4, 3)));
        // A long chain of read-modify-writes at "secret" indices.
        for k in 0..200u64 {
            let i = (k * 131) % 600;
            let addr = base.offset(i * 4);
            let v = strategy.load(&mut m, &ds, addr, Width::U32);
            strategy.store(&mut m, &ds, addr, Width::U32, v + 1);
        }
        m.set_interference(None);
        // Check against the same chain computed directly.
        let mut expect: Vec<u32> = (0..600).collect();
        for k in 0..200u64 {
            let i = ((k * 131) % 600) as usize;
            expect[i] += 1;
        }
        for i in 0..600u64 {
            assert_eq!(
                m.peek_u32(base.offset(i * 4)),
                expect[i as usize],
                "element {i} corrupted under {strategy} (bia {bia:?})"
            );
        }
    }
}

#[test]
fn whole_workload_is_correct_under_interference() {
    let wl = Histogram {
        size: 400,
        seed: 77,
    };
    let expect = histogram::reference(&wl.input(), 400);
    let mut m = Machine::with_bia(BiaPlacement::L1d);
    // Interfere with the low 64 KiB of the address space, where the
    // workload's arrays live.
    let region = ctbia::sim::PhysAddr::new(0x1_0000);
    m.set_interference(Some(hostile(region, 64 * 1024, 5)));
    let (bins, _) = wl.run_full(&mut m, Strategy::bia());
    assert_eq!(bins, expect);
}

#[test]
fn security_holds_when_interference_is_secret_independent() {
    // The §5.3 induction assumes the *other* processes do not themselves
    // depend on the victim's secret. Under that assumption the victim's
    // demand trace stays identical across secrets even with a co-runner.
    let trace_for = |secret: u64| {
        let mut m = Machine::with_bia(BiaPlacement::L1d);
        let base = m.alloc_u32_array(512).unwrap();
        let ds = DataflowSet::contiguous(base, 512 * 4);
        m.set_interference(Some(hostile(base, 512 * 4, 7)));
        m.enable_observation();
        for k in 0..32u64 {
            let idx = (secret + k * 13) % 512;
            let _ = Strategy::bia().load(&mut m, &ds, base.offset(idx * 4), Width::U32);
        }
        m.take_observation().demand
    };
    assert_eq!(trace_for(5), trace_for(444));
}

#[test]
fn interference_actually_perturbs_the_cache() {
    // Sanity: the co-runner is not a no-op — the same workload costs more
    // cycles under interference (extra misses).
    let run = |interfere: bool| {
        let mut m = Machine::with_bia(BiaPlacement::L1d);
        let base = m.alloc_u32_array(512).unwrap();
        let ds = DataflowSet::contiguous(base, 512 * 4);
        if interfere {
            m.set_interference(Some(hostile(base, 512 * 4, 2)));
        }
        let (_, c) = m.measure(|m| {
            for k in 0..64u64 {
                let _ = Strategy::bia().load(m, &ds, base.offset((k * 29 % 512) * 4), Width::U32);
            }
        });
        c.cycles
    };
    let quiet = run(false);
    let noisy = run(true);
    assert!(
        noisy > quiet,
        "interference must cost cycles ({noisy} vs {quiet})"
    );
}
