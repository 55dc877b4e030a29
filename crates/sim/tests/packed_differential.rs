//! Differential property tests for the packed (structure-of-arrays) cache:
//! the word-arithmetic implementation is compared against a naive
//! `HashMap`-based reference model under random access/fill/invalidate
//! streams, for all three replacement policies at 4, 8, 12 and 16 ways —
//! so the chunked tag compare runs its remainder alone, one full chunk,
//! a chunk plus a remainder, and two chunks — and hit/miss, victim, and
//! dirty outcomes must match exactly. A second suite drives a full
//! [`Hierarchy`] across every inclusion policy × replacement policy
//! combination and checks the policy invariants after every access.

use ctbia_sim::addr::LineAddr;
use ctbia_sim::cache::{AccessKind, AccessOutcome, Cache};
use ctbia_sim::config::{CacheConfig, HierarchyConfig, InclusionPolicy};
use ctbia_sim::hierarchy::{AccessFlags, Hierarchy, Level};
use ctbia_sim::replacement::ReplacementKind;
use proptest::prelude::*;
use std::collections::HashMap;

const SETS: u64 = 8;

/// The associativities every policy is checked at.
const WAYS: [usize; 4] = [4, 8, 12, 16];

/// The naive reference: one map entry per resident line, with the stamp
/// bookkeeping spelled out longhand. No occupancy words, no packed tags —
/// just a dictionary and linear scans.
struct RefModel {
    assoc: usize,
    lines: HashMap<u64, RefLine>,
    clock: u64,
}

struct RefLine {
    dirty: bool,
    /// Monotonic stamp of the last replacement-visible touch: every fill,
    /// plus every replacement-updating hit under LRU.
    stamp: u64,
}

impl RefModel {
    fn new(assoc: usize) -> Self {
        RefModel {
            assoc,
            lines: HashMap::new(),
            clock: 0,
        }
    }

    fn set_of(line: u64) -> u64 {
        line % SETS
    }

    /// Hit path: returns `None` on a miss, else the post-access dirty bit.
    fn access(
        &mut self,
        line: u64,
        write: bool,
        update_replacement: bool,
        kind: ReplacementKind,
    ) -> Option<bool> {
        let entry = self.lines.get_mut(&line)?;
        if update_replacement && kind == ReplacementKind::Lru {
            self.clock += 1;
            entry.stamp = self.clock;
        }
        entry.dirty |= write;
        Some(entry.dirty)
    }

    /// The line in `line`'s set the policy would evict, if the set is full.
    /// Stamps are unique, so the minimum is unambiguous. `None` for the
    /// random policy (not predictable from outside) or a non-full set.
    fn predicted_victim(&self, line: u64, kind: ReplacementKind) -> Option<u64> {
        if kind == ReplacementKind::Random {
            return None;
        }
        let set = Self::set_of(line);
        let mut resident: Vec<(&u64, &RefLine)> = self
            .lines
            .iter()
            .filter(|(l, _)| Self::set_of(**l) == set)
            .collect();
        if resident.len() < self.assoc {
            return None;
        }
        resident.sort_by_key(|(_, e)| e.stamp);
        Some(*resident[0].0)
    }

    fn set_len(&self, line: u64) -> usize {
        let set = Self::set_of(line);
        self.lines
            .keys()
            .filter(|l| Self::set_of(**l) == set)
            .count()
    }

    fn fill(&mut self, line: u64, dirty: bool) {
        self.clock += 1;
        let stamp = self.clock;
        self.lines.insert(line, RefLine { dirty, stamp });
    }
}

#[derive(Debug, Clone)]
enum Op {
    Read(u64),
    Write(u64),
    /// Replacement-neutral read (§3.2): no LRU update on a hit.
    NeutralRead(u64),
    Invalidate(u64),
    Probe(u64),
    /// A hit-only probe settled, on a miss, by the miss bookkeeping and a
    /// fill — the split form of a demand read.
    SplitRead(u64),
}

fn op_strategy(line_space: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..line_space).prop_map(Op::Read),
        (0..line_space).prop_map(Op::Write),
        (0..line_space).prop_map(Op::NeutralRead),
        (0..line_space).prop_map(Op::Invalidate),
        (0..line_space).prop_map(Op::Probe),
        (0..line_space).prop_map(Op::SplitRead),
    ]
}

/// Runs one op stream, at every associativity of [`WAYS`].
fn run_differential(kind: ReplacementKind, ops: &[Op]) {
    for assoc in WAYS {
        run_differential_at(kind, assoc, ops);
    }
}

/// Runs one op stream against a packed cache of `assoc` ways and the
/// reference, checking hit/miss, victim, and dirty agreement at every step.
/// Lines are folded into three times the cache's capacity, so sets fill and
/// evict at every associativity.
fn run_differential_at(kind: ReplacementKind, assoc: usize, ops: &[Op]) {
    let cfg =
        CacheConfig::new("T", SETS * assoc as u64 * 64, assoc as u32, 1).with_replacement(kind);
    let mut cache = Cache::new(cfg).unwrap();
    let mut model = RefModel::new(assoc);
    let space = 3 * SETS * assoc as u64;
    let (mut hits, mut misses) = (0u64, 0u64);
    for op in ops {
        match *op {
            Op::Read(l) | Op::Write(l) | Op::NeutralRead(l) | Op::SplitRead(l) => {
                let l = l % space;
                let line = LineAddr::new(l);
                let write = matches!(op, Op::Write(_));
                let neutral = matches!(op, Op::NeutralRead(_));
                let akind = if write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let outcome = if matches!(op, Op::SplitRead(_)) {
                    let outcome = cache.access_if_hit(line, akind, true);
                    if outcome == AccessOutcome::Miss {
                        cache.record_miss(line, akind);
                    }
                    outcome
                } else {
                    cache.access(line, akind, !neutral)
                };
                let model_hit = model.access(l, write, !neutral, kind);
                match outcome {
                    AccessOutcome::Hit { dirty, .. } => {
                        hits += 1;
                        prop_assert_eq!(Some(dirty), model_hit, "hit/dirty mismatch at line {}", l);
                    }
                    AccessOutcome::Miss => {
                        misses += 1;
                        prop_assert_eq!(model_hit, None, "model hit where cache missed at {}", l);
                        let predicted = model.predicted_victim(l, kind);
                        let full = model.set_len(l) == assoc;
                        let evicted = cache.fill(line, write);
                        match evicted {
                            Some(ev) => {
                                prop_assert!(full, "eviction from a non-full set at {}", l);
                                if let Some(p) = predicted {
                                    prop_assert_eq!(
                                        ev.line.raw(),
                                        p,
                                        "victim mismatch filling {}",
                                        l
                                    );
                                }
                                // Random: the victim is not predictable, but
                                // it must be a line the model holds in the
                                // same set, with matching dirtiness.
                                let vdirty = model.lines.get(&ev.line.raw()).map(|e| e.dirty);
                                prop_assert_eq!(
                                    vdirty,
                                    Some(ev.dirty),
                                    "victim dirtiness mismatch for {}",
                                    ev.line
                                );
                                prop_assert_eq!(
                                    RefModel::set_of(ev.line.raw()),
                                    RefModel::set_of(l),
                                    "victim from the wrong set"
                                );
                                model.lines.remove(&ev.line.raw());
                            }
                            None => {
                                prop_assert!(!full, "full set filled without eviction at {}", l)
                            }
                        }
                        model.fill(l, write);
                    }
                }
            }
            Op::Invalidate(l) => {
                let l = l % space;
                let line = LineAddr::new(l);
                let was = cache.invalidate(line);
                let model_was = model.lines.remove(&l).map(|e| e.dirty);
                prop_assert_eq!(was, model_was, "invalidate outcome mismatch at {}", l);
            }
            Op::Probe(l) => {
                let l = l % space;
                let line = LineAddr::new(l);
                let p = cache.probe(line);
                let m = model.lines.get(&l);
                prop_assert_eq!(p.resident, m.is_some(), "residency mismatch at {}", l);
                prop_assert_eq!(
                    p.dirty,
                    m.is_some_and(|e| e.dirty),
                    "dirtiness mismatch at {}",
                    l
                );
            }
        }
        // Full-state agreement after every step, both directions.
        prop_assert_eq!(cache.resident_count(), model.lines.len());
        let mut walked = 0usize;
        cache.for_each_resident(|line| {
            assert!(
                model.lines.contains_key(&line.raw()),
                "cache holds {line} the model does not"
            );
            walked += 1;
        });
        prop_assert_eq!(walked, model.lines.len());
        // The split read keeps exactly the demand statistics.
        prop_assert_eq!(
            (cache.stats().hits, cache.stats().misses),
            (hits, misses),
            "{} ways: hit/miss statistics",
            assoc
        );
        prop_assert_eq!(
            cache.set_access_counts().iter().sum::<u64>(),
            hits + misses,
            "{} ways: per-set access counts",
            assoc
        );
    }
}

/// The inclusion-policy invariant the hierarchy must uphold for data lines.
fn check_inclusion(h: &Hierarchy, policy: InclusionPolicy, touched: &[u64]) {
    for &l in touched {
        let line = LineAddr::new(l);
        let in_l1d = h.cache(Level::L1d).is_resident(line);
        let in_l2 = h.cache(Level::L2).is_resident(line);
        let in_llc = h.cache(Level::Llc).is_resident(line);
        match policy {
            InclusionPolicy::MostlyInclusive => {} // no cross-level invariant
            InclusionPolicy::Inclusive => {
                prop_assert!(
                    (!in_l1d || in_l2) && (!in_l2 || in_llc),
                    "inclusion violated for {}: L1d={} L2={} LLC={}",
                    line,
                    in_l1d,
                    in_l2,
                    in_llc
                );
            }
            InclusionPolicy::Exclusive => {
                prop_assert!(
                    (in_l1d as u8 + in_l2 as u8 + in_llc as u8) <= 1,
                    "exclusivity violated for {}: L1d={} L2={} LLC={}",
                    line,
                    in_l1d,
                    in_l2,
                    in_llc
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packed_cache_matches_reference_lru(
        ops in proptest::collection::vec(op_strategy(384), 1..400),
    ) {
        run_differential(ReplacementKind::Lru, &ops);
    }

    #[test]
    fn packed_cache_matches_reference_fifo(
        ops in proptest::collection::vec(op_strategy(384), 1..400),
    ) {
        run_differential(ReplacementKind::Fifo, &ops);
    }

    #[test]
    fn packed_cache_matches_reference_random(
        ops in proptest::collection::vec(op_strategy(384), 1..400),
    ) {
        run_differential(ReplacementKind::Random, &ops);
    }

    /// Every inclusion policy × replacement policy combination upholds its
    /// structural invariant under random demand traffic, and the accessed
    /// line always lands at (or migrates to) L1d.
    #[test]
    fn hierarchy_inclusion_grid(
        lines in proptest::collection::vec(0u64..2048, 1..120),
        writes in proptest::collection::vec(any::<bool>(), 120),
    ) {
        for policy in [
            InclusionPolicy::MostlyInclusive,
            InclusionPolicy::Inclusive,
            InclusionPolicy::Exclusive,
        ] {
            for repl in [
                ReplacementKind::Lru,
                ReplacementKind::Fifo,
                ReplacementKind::Random,
            ] {
                let mut cfg = HierarchyConfig::tiny();
                cfg.inclusion = policy;
                cfg.l1d.replacement = repl;
                cfg.l2.replacement = repl;
                cfg.llc.replacement = repl;
                let mut h = Hierarchy::new(cfg).unwrap();
                let mut touched: Vec<u64> = Vec::new();
                for (i, &l) in lines.iter().enumerate() {
                    let line = LineAddr::new(l);
                    let flags = if writes[i] {
                        AccessFlags::write()
                    } else {
                        AccessFlags::read()
                    };
                    h.access(line, flags);
                    prop_assert!(
                        h.cache(Level::L1d).is_resident(line),
                        "{policy}/{repl}: accessed line {} not in L1d",
                        line
                    );
                    if writes[i] {
                        prop_assert!(
                            h.cache(Level::L1d).is_dirty(line),
                            "{policy}/{repl}: written line {} not dirty in L1d",
                            line
                        );
                    }
                    if !touched.contains(&l) {
                        touched.push(l);
                    }
                    check_inclusion(&h, policy, &touched);
                }
                // Dirty-subset sanity at every level: a dirty line is resident.
                for level in [Level::L1d, Level::L2, Level::Llc] {
                    let cache = h.cache(level);
                    cache.for_each_resident(|line| {
                        let _ = cache.is_dirty(line);
                    });
                }
            }
        }
    }
}
