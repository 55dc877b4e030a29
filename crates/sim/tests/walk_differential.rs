//! Differential test for the hierarchy walk: a longhand reference
//! hierarchy — three slot-array caches with the fill, write-back, clean
//! spill and back-invalidation rules written out — against
//! [`Hierarchy::access_with`] and against the split form the machine's
//! sweeps use (the hit-only L1d probe, then
//! [`Hierarchy::access_after_l1d_miss`] on a miss).
//!
//! Random streams mix line, read/write, replacement-neutral, L1d/L2 bypass
//! and DRAM-direct accesses. After every access the three must agree on
//! the [`AccessResult`], on the ordered events a recording monitor sees at
//! the monitored level, on every level's [`CacheStats`] and per-set access
//! counts, on DRAM traffic, and on the residency and dirtiness of every
//! touched line — for every inclusion policy × replacement policy ×
//! prefetcher setting × monitored level.

use ctbia_sim::addr::LineAddr;
use ctbia_sim::cache::AccessKind;
use ctbia_sim::config::{CacheConfig, HierarchyConfig, InclusionPolicy};
use ctbia_sim::hierarchy::{
    AccessFlags, AccessResult, CacheEventKind, CacheMonitor, Hierarchy, Level, MonitorLevel,
};
use ctbia_sim::replacement::ReplacementKind;
use ctbia_sim::stats::CacheStats;
use proptest::prelude::*;

/// One resident line of the reference.
#[derive(Debug, Clone, Copy)]
struct Slot {
    line: u64,
    dirty: bool,
    /// Clock value of the last fill, or of the last replacement-updating
    /// hit under LRU.
    stamp: u64,
}

/// A reference cache: per-set way slots, filled lowest free way first,
/// evicting by first strict minimum stamp (LRU/FIFO) or by a SplitMix64
/// draw seeded from the level name (random).
struct RefCache {
    sets: Vec<Vec<Option<Slot>>>,
    latency: u64,
    kind: ReplacementKind,
    clock: u64,
    rng: u64,
    stats: CacheStats,
    set_accesses: Vec<u64>,
}

impl RefCache {
    fn new(cfg: &CacheConfig) -> Self {
        let assoc = cfg.associativity as usize;
        let sets = (cfg.size_bytes / 64) as usize / assoc;
        let seed = cfg.name.bytes().fold(0x9e37_79b9_7f4a_7c15u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        });
        RefCache {
            sets: vec![vec![None; assoc]; sets],
            latency: cfg.hit_latency,
            kind: cfg.replacement,
            clock: 0,
            rng: seed,
            stats: CacheStats::default(),
            set_accesses: vec![0; sets],
        }
    }

    fn set_of(&self, line: u64) -> usize {
        (line % self.sets.len() as u64) as usize
    }

    fn way_of(&self, line: u64) -> Option<(usize, usize)> {
        let set = self.set_of(line);
        let way = self.sets[set]
            .iter()
            .position(|s| s.is_some_and(|s| s.line == line))?;
        Some((set, way))
    }

    fn slot(&mut self, line: u64) -> Option<&mut Slot> {
        let (set, way) = self.way_of(line)?;
        self.sets[set][way].as_mut()
    }

    fn resident(&self, line: u64) -> Option<bool> {
        let (set, way) = self.way_of(line)?;
        self.sets[set][way].map(|s| s.dirty)
    }

    /// A demand access: `Some((dirty_after, dirtied))` on a hit.
    fn access(&mut self, line: u64, write: bool, update: bool) -> Option<(bool, bool)> {
        let set = self.set_of(line);
        self.set_accesses[set] += 1;
        if write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        let Some((set, way)) = self.way_of(line) else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        if update && self.kind == ReplacementKind::Lru {
            self.clock += 1;
        }
        let clock = self.clock;
        let slot = self.sets[set][way].as_mut().unwrap();
        if update && self.kind == ReplacementKind::Lru {
            slot.stamp = clock;
        }
        let dirtied = write && !slot.dirty;
        slot.dirty |= write;
        Some((slot.dirty, dirtied))
    }

    fn next_random(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Installs `line`; returns the evicted slot, if any.
    fn fill(&mut self, line: u64, dirty: bool) -> Option<Slot> {
        let set = self.set_of(line);
        let assoc = self.sets[set].len();
        let (way, evicted) = match self.sets[set].iter().position(Option::is_none) {
            Some(way) => (way, None),
            None => {
                let way = match self.kind {
                    ReplacementKind::Random => (self.next_random() % assoc as u64) as usize,
                    _ => {
                        let mut best = 0;
                        for w in 1..assoc {
                            if self.sets[set][w].unwrap().stamp
                                < self.sets[set][best].unwrap().stamp
                            {
                                best = w;
                            }
                        }
                        best
                    }
                };
                let victim = self.sets[set][way].unwrap();
                self.stats.evictions += 1;
                if victim.dirty {
                    self.stats.writebacks += 1;
                }
                (way, Some(victim))
            }
        };
        self.clock += 1;
        self.sets[set][way] = Some(Slot {
            line,
            dirty,
            stamp: self.clock,
        });
        self.stats.fills += 1;
        evicted
    }

    /// Removes `line`; returns its dirtiness if it was resident.
    fn invalidate(&mut self, line: u64) -> Option<bool> {
        let (set, way) = self.way_of(line)?;
        let dirty = self.sets[set][way].take().unwrap().dirty;
        self.stats.invalidations += 1;
        Some(dirty)
    }
}

/// The reference hierarchy. Events are recorded for the monitored level
/// only, as `(line, kind)`.
struct RefHierarchy {
    l1d: RefCache,
    l2: RefCache,
    llc: RefCache,
    dram_latency: u64,
    dram_reads: u64,
    dram_writes: u64,
    prefetch: bool,
    prefetch_fills: u64,
    inclusion: InclusionPolicy,
    monitor: Level,
    events: Vec<(LineAddr, CacheEventKind)>,
}

impl RefHierarchy {
    fn new(cfg: &HierarchyConfig, monitor: Level) -> Self {
        RefHierarchy {
            l1d: RefCache::new(&cfg.l1d),
            l2: RefCache::new(&cfg.l2),
            llc: RefCache::new(&cfg.llc),
            dram_latency: cfg.dram.latency,
            dram_reads: 0,
            dram_writes: 0,
            prefetch: cfg.l1d_next_line_prefetcher,
            prefetch_fills: 0,
            inclusion: cfg.inclusion,
            monitor,
            events: Vec::new(),
        }
    }

    fn cache(&mut self, level: Level) -> &mut RefCache {
        match level {
            Level::L1d => &mut self.l1d,
            Level::L2 => &mut self.l2,
            Level::Llc => &mut self.llc,
            other => panic!("no reference cache for {other}"),
        }
    }

    fn emit(&mut self, level: Level, line: u64, kind: CacheEventKind) {
        if level == self.monitor {
            self.events.push((LineAddr::new(line), kind));
        }
    }

    fn below(level: Level) -> Option<Level> {
        match level {
            Level::L1d => Some(Level::L2),
            Level::L2 => Some(Level::Llc),
            _ => None,
        }
    }

    fn fill(&mut self, level: Level, line: u64, dirty: bool) {
        let evicted = self.cache(level).fill(line, dirty);
        self.emit(level, line, CacheEventKind::Fill { dirty });
        let Some(victim) = evicted else { return };
        self.emit(level, victim.line, CacheEventKind::Evict);
        if victim.dirty {
            // Write-back: dirty the copy below, or install it dirty; the
            // LLC writes back to DRAM.
            match Self::below(level) {
                None => self.dram_writes += 1,
                Some(below) => match self.cache(below).slot(victim.line) {
                    Some(slot) => {
                        let changed = !slot.dirty;
                        slot.dirty = true;
                        if changed {
                            self.emit(
                                below,
                                victim.line,
                                CacheEventKind::DirtyChange { dirty: true },
                            );
                        }
                    }
                    None => self.fill(below, victim.line, true),
                },
            }
        } else if self.inclusion == InclusionPolicy::Exclusive {
            // Clean spill: an exclusive hierarchy keeps the line one level
            // down unless it is already there; the LLC drops it.
            if let Some(below) = Self::below(level) {
                if self.cache(below).resident(victim.line).is_none() {
                    self.fill(below, victim.line, false);
                }
            }
        }
        if self.inclusion == InclusionPolicy::Inclusive {
            // Back-invalidation: an L2/LLC eviction removes the upper
            // copies; a dirty upper copy goes straight to DRAM.
            let uppers: &[Level] = match level {
                Level::L2 => &[Level::L1d],
                Level::Llc => &[Level::L1d, Level::L2],
                _ => &[],
            };
            for &upper in uppers {
                if let Some(dirty) = self.cache(upper).invalidate(victim.line) {
                    self.emit(upper, victim.line, CacheEventKind::Evict);
                    self.dram_writes += u64::from(dirty);
                }
            }
        }
    }

    fn access(&mut self, line: u64, flags: AccessFlags) -> AccessResult {
        let write = flags.kind == AccessKind::Write;
        if flags.dram_direct {
            if write {
                self.dram_writes += 1;
            } else {
                self.dram_reads += 1;
            }
            return AccessResult {
                latency: self.dram_latency,
                hit_level: Level::Dram,
                dram_latency: self.dram_latency,
            };
        }
        let path: &[Level] = if flags.bypass_l2 {
            &[Level::Llc]
        } else if flags.bypass_l1 {
            &[Level::L2, Level::Llc]
        } else {
            &[Level::L1d, Level::L2, Level::Llc]
        };
        let mut latency = 0;
        let mut hit = None;
        for (i, &level) in path.iter().enumerate() {
            latency += self.cache(level).latency;
            // The nearest level sees the demand; deeper levels see fetch
            // reads that refresh replacement state.
            let (w, update) = if i == 0 {
                (write, flags.update_replacement)
            } else {
                (false, true)
            };
            if let Some((dirty, dirtied)) = self.cache(level).access(line, w, update) {
                self.emit(level, line, CacheEventKind::Hit { dirty });
                if dirtied {
                    self.emit(level, line, CacheEventKind::DirtyChange { dirty: true });
                }
                hit = Some(i);
                break;
            }
        }
        let mut dram_latency = 0;
        if hit.is_none() {
            self.dram_reads += 1;
            dram_latency = self.dram_latency;
            latency += dram_latency;
        }
        let missed = hit.unwrap_or(path.len());
        if self.inclusion == InclusionPolicy::Exclusive {
            // Migrate to the nearest level; a deeper copy moves up.
            let mut dirty = write;
            if let Some(i) = hit.filter(|&i| i > 0) {
                if let Some(d) = self.cache(path[i]).invalidate(line) {
                    self.emit(path[i], line, CacheEventKind::Evict);
                    dirty |= d;
                }
            }
            if missed > 0 {
                self.fill(path[0], line, dirty);
            }
        } else {
            // Fill every missed level, deepest first.
            for i in (0..missed).rev() {
                self.fill(path[i], line, i == 0 && write);
            }
        }
        let hit_level = hit.map_or(Level::Dram, |i| path[i]);
        if self.prefetch
            && path[0] == Level::L1d
            && hit_level != Level::L1d
            && self.l1d.resident(line + 1).is_none()
        {
            self.prefetch_fills += 1;
            self.fill(Level::L1d, line + 1, false);
        }
        AccessResult {
            latency,
            hit_level,
            dram_latency,
        }
    }
}

/// A monitor that records what it is handed, in order.
#[derive(Default)]
struct Recorder(Vec<(LineAddr, CacheEventKind)>);

impl CacheMonitor for Recorder {
    fn cache_event(&mut self, line: LineAddr, kind: CacheEventKind) {
        self.0.push((line, kind));
    }
}

/// One generated access.
#[derive(Debug, Clone, Copy)]
struct Access {
    line: u64,
    write: bool,
    neutral: bool,
    route: u8,
}

impl Access {
    fn flags(self) -> AccessFlags {
        let mut flags = if self.write {
            AccessFlags::write()
        } else {
            AccessFlags::read()
        };
        if self.neutral {
            flags = flags.replacement_neutral();
        }
        // Mostly plain accesses; some bypass L1d or L2, a few go to DRAM.
        match self.route {
            0 => flags.bypassing_l1(),
            1 => flags.bypassing_l2(),
            2 => flags.dram_direct(),
            // The raw field alone routes like `bypassing_l2`.
            3 => AccessFlags {
                bypass_l2: true,
                ..flags
            },
            _ => flags,
        }
    }
}

fn access_strategy() -> impl Strategy<Value = Access> {
    (
        prop_oneof![0u64..24, 0u64..512],
        any::<bool>(),
        0u8..4,
        0u8..14,
    )
        .prop_map(|(line, write, neutral, route)| Access {
            line,
            write,
            neutral: neutral == 0,
            route,
        })
}

/// The split form: hit-only probe, then the continuation on a miss.
fn split_access(
    h: &mut Hierarchy,
    line: LineAddr,
    flags: AccessFlags,
    mon: &mut Recorder,
) -> AccessResult {
    if !flags.starts_at_l1d() {
        return h.access_with(line, flags, mon);
    }
    if h.l1d_access_if_hit(line, flags.kind, flags.update_replacement, mon) {
        return AccessResult {
            latency: h.cache(Level::L1d).hit_latency(),
            hit_level: Level::L1d,
            dram_latency: 0,
        };
    }
    h.access_after_l1d_miss(line, flags, mon)
}

fn check_agreement(label: &str, model: &RefHierarchy, h: &Hierarchy, touched: &[u64]) {
    for (level, reference) in [
        (Level::L1d, &model.l1d),
        (Level::L2, &model.l2),
        (Level::Llc, &model.llc),
    ] {
        let cache = h.cache(level);
        prop_assert_eq!(
            *cache.stats(),
            reference.stats,
            "{}: {} stats",
            label,
            level
        );
        prop_assert_eq!(
            cache.set_access_counts(),
            reference.set_accesses.as_slice(),
            "{}: {} per-set access counts",
            label,
            level
        );
        for &l in touched {
            let line = LineAddr::new(l);
            let truth = cache.is_resident(line).then(|| cache.is_dirty(line));
            prop_assert_eq!(
                truth,
                reference.resident(l),
                "{}: {} holds {}",
                label,
                level,
                line
            );
        }
    }
    let dram = h.dram().stats();
    prop_assert_eq!(
        (dram.reads, dram.writes),
        (model.dram_reads, model.dram_writes),
        "{}: DRAM traffic",
        label
    );
    prop_assert_eq!(
        h.stats().prefetch_fills,
        model.prefetch_fills,
        "{}: prefetch fills",
        label
    );
}

/// Runs `accesses` through every configuration of the grid and returns,
/// per configuration, its inclusion policy and the reference's final
/// L1d, L2 and LLC statistics.
fn run_walk_differential(accesses: &[Access]) -> Vec<(InclusionPolicy, [CacheStats; 3])> {
    let mut seen = Vec::new();
    for inclusion in [
        InclusionPolicy::MostlyInclusive,
        InclusionPolicy::Inclusive,
        InclusionPolicy::Exclusive,
    ] {
        for repl in [
            ReplacementKind::Lru,
            ReplacementKind::Fifo,
            ReplacementKind::Random,
        ] {
            for prefetch in [false, true] {
                for monitor in [MonitorLevel::L1d, MonitorLevel::L2, MonitorLevel::Llc] {
                    // Small enough that a hot line's L2 copy ages out
                    // under it and the LLC overflows within a few hundred
                    // accesses.
                    let mut cfg = HierarchyConfig::tiny();
                    cfg.l2 = CacheConfig::new("L2", 2 << 10, 2, 15);
                    cfg.llc = CacheConfig::new("LLC", 8 << 10, 4, 41);
                    cfg.inclusion = inclusion;
                    cfg.l1d_next_line_prefetcher = prefetch;
                    cfg.l1d.replacement = repl;
                    cfg.l2.replacement = repl;
                    cfg.llc.replacement = repl;
                    let label = format!("{inclusion}/{repl}/prefetch={prefetch}/{monitor:?}");
                    let mut model = RefHierarchy::new(&cfg, monitor.level());
                    let mut whole = Hierarchy::new(cfg.clone()).unwrap();
                    let mut split = Hierarchy::new(cfg).unwrap();
                    whole.set_monitor(Some(monitor));
                    split.set_monitor(Some(monitor));
                    let mut touched: Vec<u64> = Vec::new();
                    for (step, a) in accesses.iter().enumerate() {
                        let flags = a.flags();
                        let line = LineAddr::new(a.line);
                        for l in [a.line, a.line + 1] {
                            if !touched.contains(&l) {
                                touched.push(l);
                            }
                        }
                        model.events.clear();
                        let expected = model.access(a.line, flags);
                        let mut rec = Recorder::default();
                        let got = whole.access_with(line, flags, &mut rec);
                        prop_assert_eq!(
                            got,
                            expected,
                            "{} step {}: access_with result",
                            &label,
                            step
                        );
                        prop_assert_eq!(
                            &rec.0,
                            &model.events,
                            "{} step {}: access_with events",
                            &label,
                            step
                        );
                        let mut rec = Recorder::default();
                        let got = split_access(&mut split, line, flags, &mut rec);
                        prop_assert_eq!(
                            got,
                            expected,
                            "{} step {}: probe+continuation result",
                            &label,
                            step
                        );
                        prop_assert_eq!(
                            &rec.0,
                            &model.events,
                            "{} step {}: probe+continuation events",
                            &label,
                            step
                        );
                    }
                    check_agreement(&format!("{label} access_with"), &model, &whole, &touched);
                    check_agreement(
                        &format!("{label} probe+continuation"),
                        &model,
                        &split,
                        &touched,
                    );
                    seen.push((
                        inclusion,
                        [model.l1d.stats, model.l2.stats, model.llc.stats],
                    ));
                }
            }
        }
    }
    seen
}

/// One long fixed stream reaches every rule the reference spells out:
/// hits at every level, dirty write-backs out of every level, clean
/// spills and migrations under `Exclusive`, back-invalidation under
/// `Inclusive`.
#[test]
fn walk_differential_exercises_every_rule() {
    let mut rng = TestRng::from_seed(0x5eed);
    let strategy = access_strategy();
    let accesses: Vec<Access> = (0..3000).map(|_| strategy.sample(&mut rng)).collect();
    for (inclusion, [l1d, l2, llc]) in run_walk_differential(&accesses) {
        assert!(
            l1d.hits > 0 && l2.hits > 0 && llc.hits > 0,
            "{inclusion}: hits at every level"
        );
        assert!(
            l1d.writebacks > 0 && l2.writebacks > 0,
            "{inclusion}: dirty write-backs"
        );
        match inclusion {
            InclusionPolicy::MostlyInclusive => assert!(llc.writebacks > 0, "{inclusion}"),
            InclusionPolicy::Inclusive => {
                assert!(
                    l1d.invalidations > 0 && l2.invalidations > 0,
                    "{inclusion}: back-invalidation, L1d {} L2 {}",
                    l1d.invalidations,
                    l2.invalidations
                )
            }
            InclusionPolicy::Exclusive => assert!(
                l2.invalidations > 0 && l2.fills > l1d.writebacks,
                "{inclusion}: migrations and clean spills"
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn hierarchy_walk_matches_longhand_reference(
        accesses in proptest::collection::vec(access_strategy(), 1..400),
    ) {
        run_walk_differential(&accesses);
    }
}
