//! End-to-end security validation: for every benchmark kernel, the
//! attacker-visible demand trace and the per-set access counts are
//! identical across different secrets under both mitigations — and the
//! insecure baselines genuinely leak, so the checks are not vacuous.
//! Finishes with the full Prime+Probe attack story.

use ctbia::attacks::{compare_profiles, demand_traces, set_access_profiles, PrimeProbe};
use ctbia::machine::{BiaPlacement, Machine, TraceEvent};
use ctbia::sim::hierarchy::Level;
use ctbia::workloads::crypto::{Aes, Rc4};
use ctbia::workloads::{
    BinarySearch, Dijkstra, HeapPop, Histogram, Permutation, Strategy, Workload,
};

/// Runs `wl_for(seed)` on a fresh machine and returns the demand trace.
fn trace_of(
    make_wl: impl Fn(u64) -> Box<dyn Workload>,
    seed: u64,
    strategy: Strategy,
    placement: Option<BiaPlacement>,
) -> Vec<TraceEvent> {
    let mut m = match placement {
        Some(p) => Machine::with_bia(p),
        None => Machine::insecure(),
    };
    m.enable_observation();
    let _ = make_wl(seed).run(&mut m, strategy);
    m.take_observation().demand
}

fn assert_trace_secret_independence(name: &str, make_wl: impl Fn(u64) -> Box<dyn Workload> + Copy) {
    // The insecure baseline must leak (different seeds, different traces)…
    let a = trace_of(make_wl, 11, Strategy::Insecure, None);
    let b = trace_of(make_wl, 97, Strategy::Insecure, None);
    assert_ne!(a, b, "{name}: insecure trace should depend on the secret");
    // …and every mitigation must not.
    for (label, strategy, placement) in [
        ("ct", Strategy::software_ct(), None),
        ("bia-l1d", Strategy::bia(), Some(BiaPlacement::L1d)),
        ("bia-l2", Strategy::bia(), Some(BiaPlacement::L2)),
    ] {
        let a = trace_of(make_wl, 11, strategy, placement);
        let b = trace_of(make_wl, 97, strategy, placement);
        assert!(!a.is_empty(), "{name}/{label}: empty trace");
        assert_eq!(a, b, "{name}/{label}: trace depends on the secret");
    }
}

#[test]
fn histogram_traces_are_secret_independent() {
    assert_trace_secret_independence("histogram", |seed| Box::new(Histogram { size: 500, seed }));
}

#[test]
fn dijkstra_traces_are_secret_independent() {
    assert_trace_secret_independence("dijkstra", |seed| Box::new(Dijkstra { vertices: 16, seed }));
}

#[test]
fn permutation_traces_are_secret_independent() {
    assert_trace_secret_independence("permutation", |seed| {
        Box::new(Permutation { size: 400, seed })
    });
}

#[test]
fn binary_search_traces_are_secret_independent() {
    assert_trace_secret_independence("binary search", |seed| {
        Box::new(BinarySearch {
            size: 500,
            searches: 10,
            seed,
        })
    });
}

#[test]
fn heappop_traces_are_secret_independent() {
    assert_trace_secret_independence("heappop", |seed| {
        Box::new(HeapPop {
            size: 200,
            pops: 16,
            seed,
        })
    });
}

#[test]
fn crypto_traces_are_secret_independent() {
    assert_trace_secret_independence("aes", |seed| Box::new(Aes { blocks: 2, seed }));
    assert_trace_secret_independence("rc4", |seed| {
        Box::new(Rc4 {
            key_len: 16,
            stream_len: 32,
            seed,
        })
    });
}

#[test]
fn per_set_profiles_match_figure10_methodology() {
    let secrets = [3u64, 17, 88, 1234];
    let insecure = set_access_profiles(
        Machine::insecure,
        |m, seed| {
            let _ = Histogram { size: 500, seed }.run(m, Strategy::Insecure);
        },
        &secrets,
        Level::L1d,
    );
    assert!(!compare_profiles(&insecure).identical);

    for placement in [BiaPlacement::L1d, BiaPlacement::L2] {
        for level in [Level::L1d, Level::L2] {
            let ours = set_access_profiles(
                || Machine::with_bia(placement),
                |m, seed| {
                    let _ = Histogram { size: 500, seed }.run(m, Strategy::bia());
                },
                &secrets,
                level,
            );
            assert!(
                compare_profiles(&ours).identical,
                "BIA@{placement} observed at {level} must be secret-independent"
            );
        }
    }
}

#[test]
fn prime_probe_recovers_insecure_secret_and_fails_against_mitigations() {
    use ctbia::core::ctmem::Width;
    use ctbia::core::ds::DataflowSet;

    let run_attack = |strategy: Strategy, placement: Option<BiaPlacement>, secret: u64| {
        let mut m = match placement {
            Some(p) => Machine::with_bia(p),
            None => Machine::insecure(),
        };
        let table = m.alloc(8192, 4096).unwrap();
        let ds = DataflowSet::contiguous(table, 8192);
        let true_set = m
            .hierarchy()
            .cache(Level::L1d)
            .set_index(table.offset(secret * 4).line());
        let pp = PrimeProbe::new(&mut m, Level::L1d).unwrap();
        let lat = pp.round(&mut m, |m| {
            let _ = strategy.load(m, &ds, table.offset(secret * 4), Width::U32);
        });
        (PrimeProbe::hottest_set(&lat), true_set, lat)
    };

    // Insecure: the attacker pinpoints the set for several secrets.
    for secret in [5u64, 500, 1500, 2000] {
        let (guess, truth, _) = run_attack(Strategy::Insecure, None, secret);
        assert_eq!(guess, truth, "attack should succeed for secret {secret}");
    }
    // Mitigations: probe results do not depend on the secret at all.
    for (strategy, placement) in [
        (Strategy::software_ct(), None),
        (Strategy::bia(), Some(BiaPlacement::L1d)),
    ] {
        let (_, _, lat_a) = run_attack(strategy, placement, 5);
        let (_, _, lat_b) = run_attack(strategy, placement, 2000);
        assert_eq!(lat_a, lat_b, "probe profile must be secret-independent");
    }
}

#[test]
fn replacement_state_does_not_leak_through_bia_accesses() {
    // A stricter check of the paper's §3.2 LRU remark: after a mitigated
    // access, evicting with fresh fills must produce the same victim order
    // regardless of the secret — demand_traces already covers addresses;
    // here we compare full cache contents snapshots.
    let contents = |secret: u64| {
        let mut m = Machine::with_bia(BiaPlacement::L1d);
        let table = m.alloc(4096, 4096).unwrap();
        let ds = ctbia::core::ds::DataflowSet::contiguous(table, 4096);
        let _ = Strategy::bia().load(
            &mut m,
            &ds,
            table.offset(secret * 4),
            ctbia::core::ctmem::Width::U32,
        );
        let mut lines = m.hierarchy().cache(Level::L1d).resident_lines();
        lines.sort();
        lines
    };
    assert_eq!(contents(1), contents(1000));
}

#[test]
fn demand_traces_helper_round_trips() {
    let traces = demand_traces(
        Machine::insecure,
        |m, seed| {
            let _ = Histogram { size: 300, seed }.run(m, Strategy::Insecure);
        },
        &[1, 2],
    );
    assert_eq!(traces.len(), 2);
    assert!(!traces[0].is_empty());
}
