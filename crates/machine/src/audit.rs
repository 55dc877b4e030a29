//! The shadow auditor: ground truth and a fault-free shadow BIA, cross-
//! checked against the machine's real BIA after every drained event batch.
//!
//! The auditor receives the **pristine** event stream (before the fault
//! injector touches it) and maintains two models:
//!
//! * a *ground-truth* map of per-group residency/dirtiness of the
//!   monitored cache, reconstructed from the events — what is actually in
//!   the cache;
//! * a *shadow BIA* with the same configuration as the real one, fed the
//!   pristine events and mirroring every `CTLoad`/`CTStore` lookup — what
//!   the real BIA **should** contain if no fault occurred.
//!
//! Because `Bia::access_for` is the only operation that touches
//! replacement state and every access is mirrored, the shadow stays in
//! exact lockstep with a fault-free real BIA: any difference between the
//! two tables is a detected fault. Comparing against the shadow (not just
//! the cache truth) is what catches *benign-direction* faults like a
//! dropped `Fill` — the real BIA merely misses a bit the shadow has, which
//! a subset check against the cache could never see. The truth map is used
//! to classify each divergence: a bit the real BIA has set that the cache
//! does not actually hold (`stale == true`) is the dangerous direction —
//! Algorithms 2/3 would skip a fetch and consume fake data.
//!
//! Violations carry the trailing pristine event window so a divergence can
//! be traced back to the batch that caused it.

use ctbia_core::bia::{Bia, BiaConfig, BiaConfigError};
use ctbia_sim::addr::PhysAddr;
use ctbia_sim::hierarchy::{CacheEvent, CacheEventKind};
use std::collections::{HashMap, VecDeque};
use std::fmt;

/// Number of trailing pristine events kept for violation reports.
const WINDOW_EVENTS: usize = 64;
/// Violation log cap — the counters keep exact totals; the log keeps the
/// first divergences, which are the diagnostic ones.
const LOG_CAP: usize = 256;

/// Which bitmap plane a divergence is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BitPlane {
    /// The existence bitmap.
    Existence,
    /// The dirtiness bitmap.
    Dirtiness,
}

impl fmt::Display for BitPlane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BitPlane::Existence => f.write_str("existence"),
            BitPlane::Dirtiness => f.write_str("dirtiness"),
        }
    }
}

/// What kind of divergence was found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// The real and shadow BIA both track the group but a bitmap differs.
    BitDivergence {
        /// The diverging plane.
        plane: BitPlane,
        /// The real BIA's bits in that plane.
        bia_bits: u64,
        /// The shadow's bits in that plane.
        shadow_bits: u64,
        /// Lowest diverging bit index — the first-divergence bit.
        first_bit: u32,
        /// Whether the real BIA claims a bit the monitored cache does not
        /// actually hold — the dangerous (fake-data) direction.
        stale: bool,
    },
    /// The shadow tracks the group but the real BIA lost its entry (e.g.
    /// an eviction storm).
    MissingEntry {
        /// The shadow's existence bits for the lost group.
        shadow_existence: u64,
        /// The shadow's dirtiness bits for the lost group.
        shadow_dirtiness: u64,
    },
    /// The real BIA tracks a group the shadow does not — state that could
    /// not have arisen fault-free.
    PhantomEntry {
        /// The real BIA's existence bits for the phantom group.
        bia_existence: u64,
        /// The real BIA's dirtiness bits for the phantom group.
        bia_dirtiness: u64,
    },
}

/// One detected divergence between the real BIA and the shadow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditViolation {
    /// The audit batch (drain batch count) the divergence was found in.
    pub batch: u64,
    /// The diverging management group (page index for `M = 12`).
    pub group: u64,
    /// What diverged.
    pub kind: ViolationKind,
    /// The trailing pristine events (most recent last) at detection time.
    pub window: Vec<CacheEvent>,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "batch {} group {:#x}: ", self.batch, self.group)?;
        match self.kind {
            ViolationKind::BitDivergence {
                plane,
                bia_bits,
                shadow_bits,
                first_bit,
                stale,
            } => write!(
                f,
                "{plane} divergence at bit {first_bit} (bia {bia_bits:#018x}, shadow {shadow_bits:#018x}, {})",
                if stale { "stale" } else { "benign" }
            ),
            ViolationKind::MissingEntry {
                shadow_existence,
                shadow_dirtiness,
            } => write!(
                f,
                "entry missing (shadow existence {shadow_existence:#018x}, dirtiness {shadow_dirtiness:#018x})"
            ),
            ViolationKind::PhantomEntry {
                bia_existence,
                bia_dirtiness,
            } => write!(
                f,
                "phantom entry (bia existence {bia_existence:#018x}, dirtiness {bia_dirtiness:#018x})"
            ),
        }
    }
}

/// The shadow auditor. See the module docs.
#[derive(Debug, Clone)]
pub struct ShadowAuditor {
    shadow: Bia,
    truth: HashMap<u64, (u64, u64)>,
    window: VecDeque<CacheEvent>,
    batches: u64,
    violations: Vec<AuditViolation>,
    total_violations: u64,
}

impl ShadowAuditor {
    /// Builds an auditor shadowing a BIA of configuration `cfg`. Attach it
    /// to a machine **before any traffic** — the shadow assumes it sees
    /// the event stream from the beginning.
    ///
    /// # Errors
    ///
    /// Returns the configuration error if `cfg` is invalid.
    pub fn new(cfg: BiaConfig) -> Result<Self, BiaConfigError> {
        Ok(ShadowAuditor {
            shadow: Bia::new(cfg)?,
            truth: HashMap::new(),
            window: VecDeque::with_capacity(WINDOW_EVENTS),
            batches: 0,
            violations: Vec::new(),
            total_violations: 0,
        })
    }

    /// The shadow BIA — the fault-free expectation of the real table.
    pub fn shadow(&self) -> &Bia {
        &self.shadow
    }

    /// Ground-truth (existence, dirtiness) of a group, reconstructed from
    /// the pristine event stream; zero if never touched.
    pub fn truth_of(&self, group: u64) -> (u64, u64) {
        self.truth.get(&group).copied().unwrap_or((0, 0))
    }

    /// Audit batches observed so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Total violations detected (the log below is capped; this is not).
    pub fn total_violations(&self) -> u64 {
        self.total_violations
    }

    /// The violation log (the first 256 divergences).
    pub fn violations(&self) -> &[AuditViolation] {
        &self.violations
    }

    /// Mirrors one `CTLoad`/`CTStore` lookup into the shadow, keeping its
    /// install/replacement state in lockstep with the real BIA.
    pub fn mirror_access(&mut self, addr: PhysAddr) {
        self.shadow.access_for(addr);
    }

    /// Zeroes a group's shadow bitmaps — the degradation path's resync
    /// counterpart of `Bia::reset_group` on the real table.
    pub fn reset_group(&mut self, group: u64) {
        self.shadow.reset_group(group);
    }

    /// Feeds one pristine (pre-injector) event batch: updates ground
    /// truth, the trace window, and the shadow BIA.
    pub fn observe_batch(&mut self, events: &[CacheEvent]) {
        for ev in events {
            let (group, bit_idx) = self.shadow.locate(ev.line);
            let bit = 1u64 << bit_idx;
            let (exist, dirty) = self.truth.entry(group).or_insert((0, 0));
            match ev.kind {
                CacheEventKind::Hit { dirty: d } | CacheEventKind::Fill { dirty: d } => {
                    *exist |= bit;
                    if d {
                        *dirty |= bit;
                    } else {
                        *dirty &= !bit;
                    }
                }
                CacheEventKind::Evict => {
                    *exist &= !bit;
                    *dirty &= !bit;
                }
                CacheEventKind::DirtyChange { dirty: d } => {
                    if d {
                        *exist |= bit;
                        *dirty |= bit;
                    } else {
                        *dirty &= !bit;
                    }
                }
            }
            if self.window.len() == WINDOW_EVENTS {
                self.window.pop_front();
            }
            self.window.push_back(*ev);
        }
        self.shadow.apply_events(events.iter().copied());
    }

    fn record(&mut self, fresh: &mut Vec<AuditViolation>, group: u64, kind: ViolationKind) {
        self.total_violations += 1;
        let v = AuditViolation {
            batch: self.batches,
            group,
            kind,
            window: self.window.iter().copied().collect(),
        };
        if self.violations.len() < LOG_CAP {
            self.violations.push(v.clone());
        }
        fresh.push(v);
    }

    /// Cross-checks the real BIA against the shadow, returning the fresh
    /// violations (also appended to the capped log). Call once per drained
    /// batch, after faults were applied to the real table.
    pub fn check(&mut self, bia: &Bia) -> Vec<AuditViolation> {
        self.batches += 1;
        let mut fresh = Vec::new();
        let real: HashMap<u64, (u64, u64)> = bia
            .snapshot()
            .into_iter()
            .map(|e| (e.group, (e.existence, e.dirtiness)))
            .collect();
        let mut shadow_groups: Vec<_> = self.shadow.snapshot();
        shadow_groups.sort_unstable_by_key(|e| e.group);
        for e in &shadow_groups {
            match real.get(&e.group) {
                None => {
                    self.record(
                        &mut fresh,
                        e.group,
                        ViolationKind::MissingEntry {
                            shadow_existence: e.existence,
                            shadow_dirtiness: e.dirtiness,
                        },
                    );
                }
                Some(&(exist, dirty)) => {
                    let (truth_exist, truth_dirty) = self.truth_of(e.group);
                    if exist != e.existence {
                        let diff = exist ^ e.existence;
                        self.record(
                            &mut fresh,
                            e.group,
                            ViolationKind::BitDivergence {
                                plane: BitPlane::Existence,
                                bia_bits: exist,
                                shadow_bits: e.existence,
                                first_bit: diff.trailing_zeros(),
                                stale: exist & !truth_exist != 0,
                            },
                        );
                    }
                    if dirty != e.dirtiness {
                        let diff = dirty ^ e.dirtiness;
                        self.record(
                            &mut fresh,
                            e.group,
                            ViolationKind::BitDivergence {
                                plane: BitPlane::Dirtiness,
                                bia_bits: dirty,
                                shadow_bits: e.dirtiness,
                                first_bit: diff.trailing_zeros(),
                                stale: dirty & !truth_dirty != 0,
                            },
                        );
                    }
                }
            }
        }
        let shadow_set: HashMap<u64, ()> = shadow_groups.iter().map(|e| (e.group, ())).collect();
        let mut phantoms: Vec<_> = real
            .iter()
            .filter(|(g, _)| !shadow_set.contains_key(g))
            .collect();
        phantoms.sort_unstable_by_key(|(g, _)| **g);
        for (&group, &(exist, dirty)) in phantoms {
            self.record(
                &mut fresh,
                group,
                ViolationKind::PhantomEntry {
                    bia_existence: exist,
                    bia_dirtiness: dirty,
                },
            );
        }
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctbia_sim::addr::{LineAddr, PageIdx};

    fn fill(line: LineAddr, dirty: bool) -> CacheEvent {
        CacheEvent {
            line,
            kind: CacheEventKind::Fill { dirty },
        }
    }

    fn evict(line: LineAddr) -> CacheEvent {
        CacheEvent {
            line,
            kind: CacheEventKind::Evict,
        }
    }

    fn pair() -> (Bia, ShadowAuditor) {
        let cfg = BiaConfig::paper_table1();
        (Bia::new(cfg).unwrap(), ShadowAuditor::new(cfg).unwrap())
    }

    #[test]
    fn lockstep_stays_clean() {
        let (mut bia, mut audit) = pair();
        let p = PageIdx::new(3);
        bia.access(p);
        audit.mirror_access(p.base());
        let evs = vec![fill(p.line(1), false), fill(p.line(2), true)];
        audit.observe_batch(&evs);
        bia.apply_events(evs);
        assert!(audit.check(&bia).is_empty());
        assert_eq!(audit.batches(), 1);
        assert_eq!(audit.total_violations(), 0);
        assert_eq!(audit.truth_of(3), (0b110, 0b100));
    }

    #[test]
    fn dropped_fill_is_caught_with_window() {
        let (mut bia, mut audit) = pair();
        let p = PageIdx::new(7);
        bia.access(p);
        audit.mirror_access(p.base());
        let evs = vec![fill(p.line(4), false)];
        audit.observe_batch(&evs);
        // The fill is dropped on its way to the real BIA.
        let violations = audit.check(&bia);
        assert_eq!(violations.len(), 1);
        let v = &violations[0];
        assert_eq!(v.group, 7);
        match v.kind {
            ViolationKind::BitDivergence {
                plane,
                bia_bits,
                shadow_bits,
                first_bit,
                stale,
            } => {
                assert_eq!(plane, BitPlane::Existence);
                assert_eq!(bia_bits, 0);
                assert_eq!(shadow_bits, 1 << 4);
                assert_eq!(first_bit, 4);
                assert!(!stale, "a missing bit is the benign direction");
            }
            other => panic!("unexpected kind {other:?}"),
        }
        assert_eq!(v.window, evs, "window holds the causal event");
    }

    #[test]
    fn dropped_evict_is_flagged_stale() {
        let (mut bia, mut audit) = pair();
        let p = PageIdx::new(9);
        bia.access(p);
        audit.mirror_access(p.base());
        let batch1 = vec![fill(p.line(0), false)];
        audit.observe_batch(&batch1);
        bia.apply_events(batch1);
        assert!(audit.check(&bia).is_empty());
        // The eviction reaches the shadow/truth but not the real BIA.
        let batch2 = vec![evict(p.line(0))];
        audit.observe_batch(&batch2);
        let violations = audit.check(&bia);
        assert_eq!(violations.len(), 1);
        match violations[0].kind {
            ViolationKind::BitDivergence { plane, stale, .. } => {
                assert_eq!(plane, BitPlane::Existence);
                assert!(stale, "the real BIA claims a line the cache lost");
            }
            other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn storm_reports_missing_entries() {
        let (mut bia, mut audit) = pair();
        for i in 0..3 {
            bia.access(PageIdx::new(i));
            audit.mirror_access(PageIdx::new(i).base());
        }
        bia.invalidate_all();
        let violations = audit.check(&bia);
        assert_eq!(violations.len(), 3);
        assert!(violations
            .iter()
            .all(|v| matches!(v.kind, ViolationKind::MissingEntry { .. })));
    }

    #[test]
    fn phantom_entries_are_reported() {
        let (mut bia, mut audit) = pair();
        bia.access(PageIdx::new(1)); // not mirrored: shadow never saw it
        let violations = audit.check(&bia);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].group, 1);
        assert!(matches!(
            violations[0].kind,
            ViolationKind::PhantomEntry { .. }
        ));
    }

    #[test]
    fn window_is_bounded() {
        let (_, mut audit) = pair();
        let evs: Vec<CacheEvent> = (0..500).map(|i| fill(LineAddr::new(i), false)).collect();
        audit.observe_batch(&evs);
        assert!(audit.window.len() <= WINDOW_EVENTS);
        assert_eq!(
            audit.window.back().unwrap().line,
            LineAddr::new(499),
            "window keeps the most recent events"
        );
    }
}
