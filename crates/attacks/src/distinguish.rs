//! Secret-distinguishability analysis — the paper's security test (§7.4,
//! Figure 10).
//!
//! The paper modified gem5 "to output the number of accesses to each cache
//! set", ran the victim with different random secrets, and checked that
//! the per-set counts are identical under the mitigation and vary without
//! it. [`set_access_profiles`] reproduces exactly that: it runs a victim
//! closure once per secret on a fresh machine and returns each run's
//! per-set demand access counts at the chosen level.
//!
//! A second, stricter check is available through the machine's demand
//! trace: [`demand_traces`] captures the full attacker-granularity access
//! sequence (operation kind + cache line, §5.3) per secret.

use ctbia_machine::{Machine, TraceEvent};
use ctbia_sim::hierarchy::Level;

/// Per-secret, per-set demand access counts at `level`.
///
/// `make_machine` builds a fresh machine per secret (so runs are
/// independent); `victim` receives the machine and the secret.
pub fn set_access_profiles<M, V>(
    make_machine: M,
    victim: V,
    secrets: &[u64],
    level: Level,
) -> Vec<Vec<u64>>
where
    M: Fn() -> Machine,
    V: Fn(&mut Machine, u64),
{
    secrets
        .iter()
        .map(|&secret| {
            let mut m = make_machine();
            let before: Vec<u64> = m.hierarchy().cache(level).set_access_counts().to_vec();
            victim(&mut m, secret);
            m.hierarchy()
                .cache(level)
                .set_access_counts()
                .iter()
                .zip(before)
                .map(|(a, b)| a - b)
                .collect()
        })
        .collect()
}

/// Per-secret full demand traces (operation kind + line).
pub fn demand_traces<M, V>(make_machine: M, victim: V, secrets: &[u64]) -> Vec<Vec<TraceEvent>>
where
    M: Fn() -> Machine,
    V: Fn(&mut Machine, u64),
{
    secrets
        .iter()
        .map(|&secret| {
            let mut m = make_machine();
            m.enable_observation();
            victim(&mut m, secret);
            m.take_observation().demand
        })
        .collect()
}

/// Summary of how much a set of profiles differs across secrets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Distinguishability {
    /// Whether every profile is identical (the §7.4 pass criterion).
    pub identical: bool,
    /// Number of positions (sets) where any two profiles differ.
    pub differing_positions: usize,
    /// Largest per-position spread (max − min over secrets).
    pub max_deviation: u64,
}

/// Empirical leakage of an observation, in bits: the Shannon entropy of
/// the observation distribution over the tested secrets. Because the
/// simulator is deterministic, the observation is a function of the
/// secret, so this equals the mutual information I(secret; observation)
/// for the uniform empirical secret distribution. `0.0` means the
/// observation is identical for every secret (no leakage); `log2(n)` means
/// every one of the `n` secrets is fully distinguished.
pub fn empirical_leakage_bits(profiles: &[Vec<u64>]) -> f64 {
    assert!(!profiles.is_empty(), "need at least one profile");
    use std::collections::HashMap;
    let mut counts: HashMap<&[u64], usize> = HashMap::new();
    for p in profiles {
        *counts.entry(p.as_slice()).or_default() += 1;
    }
    let n = profiles.len() as f64;
    let entropy = -counts
        .values()
        .map(|&c| {
            let p = c as f64 / n;
            p * p.log2()
        })
        .sum::<f64>();
    entropy.max(0.0) // avoid the IEEE negative zero for identical profiles
}

/// Compares per-secret profiles position by position.
///
/// # Panics
///
/// Panics if the profiles have different lengths or none are given.
pub fn compare_profiles(profiles: &[Vec<u64>]) -> Distinguishability {
    assert!(!profiles.is_empty(), "need at least one profile");
    let len = profiles[0].len();
    assert!(
        profiles.iter().all(|p| p.len() == len),
        "profile lengths differ"
    );
    let mut differing = 0;
    let mut max_dev = 0;
    for i in 0..len {
        let mut lo = u64::MAX;
        let mut hi = 0;
        for p in profiles {
            lo = lo.min(p[i]);
            hi = hi.max(p[i]);
        }
        if hi != lo {
            differing += 1;
            max_dev = max_dev.max(hi - lo);
        }
    }
    Distinguishability {
        identical: differing == 0,
        differing_positions: differing,
        max_deviation: max_dev,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctbia_core::ctmem::CtMemoryExt;
    use ctbia_core::ctmem::Width;
    use ctbia_core::ds::DataflowSet;
    use ctbia_machine::BiaPlacement;
    use ctbia_workloads::Strategy;

    /// A one-access victim: reads element `secret` of a 256-element array.
    fn victim(strategy: Strategy) -> impl Fn(&mut Machine, u64) {
        move |m: &mut Machine, secret: u64| {
            let base = m.alloc_u32_array(256).unwrap();
            let ds = DataflowSet::contiguous(base, 1024);
            let _ = strategy.load(m, &ds, base.offset(secret * 4), Width::U32);
        }
    }

    #[test]
    fn insecure_victim_is_distinguishable() {
        let profiles = set_access_profiles(
            Machine::insecure,
            victim(Strategy::Insecure),
            &[0, 128, 255],
            Level::L1d,
        );
        let d = compare_profiles(&profiles);
        assert!(!d.identical);
        assert!(d.max_deviation >= 1);
    }

    #[test]
    fn ct_and_bia_victims_are_indistinguishable() {
        let profiles = set_access_profiles(
            Machine::insecure,
            victim(Strategy::software_ct()),
            &[0, 31, 128, 255],
            Level::L1d,
        );
        assert!(compare_profiles(&profiles).identical, "software CT");
        let profiles = set_access_profiles(
            || Machine::with_bia(BiaPlacement::L1d),
            victim(Strategy::bia()),
            &[0, 31, 128, 255],
            Level::L1d,
        );
        assert!(compare_profiles(&profiles).identical, "BIA");
    }

    #[test]
    fn traces_match_for_protected_victims_only() {
        let traces = demand_traces(Machine::insecure, victim(Strategy::Insecure), &[0, 255]);
        assert_ne!(traces[0], traces[1], "insecure traces must differ");
        let traces = demand_traces(
            || Machine::with_bia(BiaPlacement::L1d),
            victim(Strategy::bia()),
            &[0, 255],
        );
        assert_eq!(traces[0], traces[1], "BIA traces must match");
        assert!(!traces[0].is_empty());
    }

    #[test]
    fn compare_profiles_reports_spread() {
        let d = compare_profiles(&[vec![1, 2, 3], vec![1, 5, 3]]);
        assert!(!d.identical);
        assert_eq!(d.differing_positions, 1);
        assert_eq!(d.max_deviation, 3);
        let d = compare_profiles(&[vec![7, 7], vec![7, 7]]);
        assert!(d.identical);
        assert_eq!(d.max_deviation, 0);
    }

    #[test]
    #[should_panic(expected = "profile lengths differ")]
    fn mismatched_lengths_panic() {
        compare_profiles(&[vec![1], vec![1, 2]]);
    }

    #[test]
    fn leakage_bits_extremes() {
        // Identical observations: zero bits.
        let zero = empirical_leakage_bits(&[vec![1, 2], vec![1, 2], vec![1, 2], vec![1, 2]]);
        assert!(zero.abs() < 1e-12);
        // All distinct: log2(4) = 2 bits.
        let full = empirical_leakage_bits(&[vec![1], vec![2], vec![3], vec![4]]);
        assert!((full - 2.0).abs() < 1e-12);
        // Half split: 1 bit.
        let half = empirical_leakage_bits(&[vec![1], vec![1], vec![2], vec![2]]);
        assert!((half - 1.0).abs() < 1e-12);
    }

    #[test]
    fn leakage_of_insecure_victim_is_positive_and_of_protected_is_zero() {
        let secrets: Vec<u64> = (0..8).map(|i| i * 31).collect();
        let insecure = set_access_profiles(
            Machine::insecure,
            victim(Strategy::Insecure),
            &secrets,
            Level::L1d,
        );
        assert!(
            empirical_leakage_bits(&insecure) > 1.0,
            "insecure victim leaks"
        );
        let protected = set_access_profiles(
            || Machine::with_bia(BiaPlacement::L1d),
            victim(Strategy::bia()),
            &secrets,
            Level::L1d,
        );
        assert_eq!(empirical_leakage_bits(&protected), 0.0);
    }

    #[test]
    fn machine_uses_single_access_per_secret_in_insecure_mode() {
        // Sanity: the insecure victim touches exactly one out-array set.
        let mut m = Machine::insecure();
        let base = m.alloc_u32_array(256).unwrap();
        let before = m.counters();
        let _ = m.load_u32(base.offset(12 * 4));
        assert_eq!((m.counters() - before).l1d_refs(), 1);
    }
}
