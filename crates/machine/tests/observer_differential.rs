//! Observer differential: attaching a trace sink or the observation
//! recorder must not change what the machine computes.
//!
//! Seeded random programs of every `CtMemory` operation the machine
//! overrides — demand loads and stores, batched dataflow-set sweeps, CT
//! micro-ops and speculated branches — run three times on identical
//! machines: with nothing attached, with a `MetricsSink`, and with the
//! observation recorder. Loaded values, final memory, every counter and
//! the residency of every dataflow-set line must agree across the three,
//! and the recorder must see exactly the accesses the sink saw. The
//! grid covers the insecure machine (where unobserved sweeps take the
//! batched L1d-hit path) and BIA machines at L1d, L2 and a sliced LLC,
//! at speculation windows 0 and 32, over a dataflow set that fits in
//! the L1d and one that spills into the L2.

use ctbia_core::ctmem::{CtMemory, Width};
use ctbia_machine::{BiaPlacement, Counters, Machine, MachineConfig, MetricsSink, ObsTrace};
use ctbia_sim::addr::{LineAddr, PhysAddr};
use ctbia_sim::config::HierarchyConfig;
use ctbia_sim::hierarchy::Level;

/// Dataflow-set sizes in lines: 32 KB fits the 64 KB L1d, 256 KB spills
/// into the 1 MB L2.
const RESIDENT_LINES: u64 = 512;
const SPILL_LINES: u64 = 4096;

/// Random operations per program.
const OPS: usize = 150;

/// Programs per grid cell.
const SEEDS: u64 = 3;

/// SplitMix64: a small seeded generator, so every program is reproducible
/// from its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One program step. Words are indexed over the dataflow set (8 per
/// line); sweeps cover `len` consecutive lines from `first`.
#[derive(Debug, Clone)]
enum Op {
    Load(u64),
    Store(u64, u64),
    SweepLoad {
        first: u64,
        len: u64,
        target: u64,
        word: u64,
        extra: u64,
    },
    SweepStore {
        first: u64,
        len: u64,
        target: u64,
        word: u64,
        value: u64,
        extra: u64,
    },
    CtLoad(u64),
    CtStore(u64, u64),
    /// A branch whose wrong path loads `wrong`, stores to its first word
    /// and sweeps a few lines from it.
    Branch {
        site: u64,
        taken: bool,
        wrong: Vec<u64>,
    },
}

fn program(seed: u64, ds_lines: u64, bia: bool) -> Vec<Op> {
    let mut rng = Rng(seed);
    let words = ds_lines * 8;
    let max_sweep = (ds_lines / 8).max(2);
    let sweep = |rng: &mut Rng| {
        let len = 1 + rng.below(max_sweep);
        let first = rng.below(ds_lines - len + 1);
        // Mostly a line inside the sweep, sometimes one outside it.
        let target = if rng.below(8) == 0 {
            rng.below(ds_lines)
        } else {
            first + rng.below(len)
        };
        (first, len, target, rng.below(8), rng.below(4))
    };
    (0..OPS)
        .map(|_| match rng.below(100) {
            0..=29 => Op::Load(rng.below(words)),
            30..=49 => Op::Store(rng.below(words), rng.next()),
            50..=59 => {
                let (first, len, target, word, extra) = sweep(&mut rng);
                Op::SweepLoad {
                    first,
                    len,
                    target,
                    word,
                    extra,
                }
            }
            60..=67 => {
                let (first, len, target, word, extra) = sweep(&mut rng);
                Op::SweepStore {
                    first,
                    len,
                    target,
                    word,
                    value: rng.next(),
                    extra,
                }
            }
            68..=77 if bia => Op::CtLoad(rng.below(words)),
            78..=84 if bia => Op::CtStore(rng.below(words), rng.next()),
            68..=84 => Op::Load(rng.below(words)),
            _ => {
                let n = 1 + rng.below(6);
                Op::Branch {
                    site: rng.below(4),
                    taken: rng.below(2) == 0,
                    wrong: (0..n).map(|_| rng.below(words)).collect(),
                }
            }
        })
        .collect()
}

#[derive(Debug, Clone, Copy)]
enum Attach {
    Nothing,
    Sink,
    Recorder,
}

/// Everything one run exposes.
#[derive(Debug)]
struct Outcome {
    values: Vec<u64>,
    memory: Vec<u64>,
    counters: Counters,
    /// Per dataflow-set line: resident in L1d, L2, LLC.
    residency: Vec<[bool; 3]>,
    sink: Option<MetricsSink>,
    obs: ObsTrace,
}

fn word_addr(base: PhysAddr, word: u64) -> PhysAddr {
    base.offset(word * 8)
}

fn lines(base: PhysAddr, first: u64, len: u64) -> Vec<LineAddr> {
    (first..first + len)
        .map(|l| base.offset(l * 64).line())
        .collect()
}

fn run(config: &MachineConfig, ds_lines: u64, ops: &[Op], attach: Attach) -> Outcome {
    let mut m = Machine::new(config.clone()).expect("grid configurations are valid");
    let base = m.alloc(ds_lines * 64, 4096).expect("dataflow set fits");
    for w in 0..ds_lines * 8 {
        m.poke_u64(word_addr(base, w), w.wrapping_mul(0x9e37_79b9) ^ 0x5a5a);
    }
    match attach {
        Attach::Nothing => {}
        Attach::Sink => m.set_trace_sink(Box::new(MetricsSink::new())),
        Attach::Recorder => m.enable_observation(),
    }
    let mut values = Vec::new();
    for op in ops {
        match op {
            Op::Load(w) => values.push(m.load(word_addr(base, *w), Width::U64)),
            Op::Store(w, v) => m.store(word_addr(base, *w), Width::U64, *v),
            Op::SweepLoad {
                first,
                len,
                target,
                word,
                extra,
            } => {
                let target = word_addr(base, target * 8 + word);
                let swept = lines(base, *first, *len);
                values.push(m.ds_sweep_load(&swept, word * 8, Width::U64, target, *extra));
            }
            Op::SweepStore {
                first,
                len,
                target,
                word,
                value,
                extra,
            } => {
                let target = word_addr(base, target * 8 + word);
                let swept = lines(base, *first, *len);
                m.ds_sweep_store(&swept, word * 8, Width::U64, target, *value, *extra);
            }
            Op::CtLoad(w) => {
                let r = m.ct_load(word_addr(base, *w));
                values.extend([r.data, r.existence]);
            }
            Op::CtStore(w, v) => values.push(m.ct_store(word_addr(base, *w), *v).dirtiness),
            Op::Branch { site, taken, wrong } => {
                m.spec_branch(*site, *taken, &mut |mm| {
                    for &w in wrong {
                        let _ = mm.load(word_addr(base, w), Width::U64);
                    }
                    let first = wrong[0] / 8;
                    mm.store(word_addr(base, wrong[0]), Width::U64, 0xdead);
                    let len = (ds_lines - first).min(4);
                    let swept = lines(base, first, len);
                    let _ = mm.ds_sweep_load(&swept, 0, Width::U64, base, 1);
                });
            }
        }
    }
    let memory = (0..ds_lines * 8)
        .map(|w| m.peek_u64(word_addr(base, w)))
        .collect();
    let residency = lines(base, 0, ds_lines)
        .into_iter()
        .map(|line| {
            [Level::L1d, Level::L2, Level::Llc].map(|l| m.hierarchy().cache(l).is_resident(line))
        })
        .collect();
    Outcome {
        values,
        memory,
        counters: m.counters(),
        residency,
        sink: m.take_trace_sink().map(|s| {
            *s.into_any()
                .downcast::<MetricsSink>()
                .expect("the attached sink is a MetricsSink")
        }),
        obs: m.take_observation(),
    }
}

fn machines() -> Vec<(&'static str, MachineConfig)> {
    let llc = MachineConfig {
        hierarchy: HierarchyConfig::sliced_llc(8, 12),
        ..MachineConfig::with_bia(BiaPlacement::Llc)
    };
    vec![
        ("insecure", MachineConfig::insecure()),
        ("bia@l1d", MachineConfig::with_bia(BiaPlacement::L1d)),
        ("bia@l2", MachineConfig::with_bia(BiaPlacement::L2)),
        ("bia@llc", llc),
    ]
}

#[test]
fn observers_change_nothing_the_machine_computes() {
    for (name, base_config) in machines() {
        for window in [0u32, 32] {
            for (regime, ds_lines) in [("resident", RESIDENT_LINES), ("spill", SPILL_LINES)] {
                let config = MachineConfig {
                    spec_window: window,
                    ..base_config.clone()
                };
                let mut l1d_evictions = 0;
                let mut l2_hits = 0;
                let mut wrong_path = 0;
                for seed in 0..SEEDS {
                    let ctx = format!("{name} window {window} {regime} seed {seed}");
                    let ops = program(seed, ds_lines, config.bia.is_some());
                    let bare = run(&config, ds_lines, &ops, Attach::Nothing);
                    let sunk = run(&config, ds_lines, &ops, Attach::Sink);
                    let rec = run(&config, ds_lines, &ops, Attach::Recorder);
                    for (with, o) in [("sink", &sunk), ("recorder", &rec)] {
                        assert_eq!(o.values, bare.values, "{ctx}: values with a {with}");
                        assert_eq!(o.memory, bare.memory, "{ctx}: memory with a {with}");
                        assert_eq!(o.counters, bare.counters, "{ctx}: counters with a {with}");
                        assert!(
                            o.residency == bare.residency,
                            "{ctx}: residency with a {with}"
                        );
                    }
                    assert!(bare.obs.is_empty() && bare.sink.is_none(), "{ctx}");
                    let sink = sunk.sink.expect("sink run returns its sink");
                    assert_eq!(
                        rec.obs.demand.len() as u64,
                        sink.op_counts.iter().sum::<u64>(),
                        "{ctx}: the recorder and the sink see the same demand accesses"
                    );
                    assert_eq!(rec.obs.spec.len() as u64, sink.spec_accesses, "{ctx}");
                    assert_eq!(
                        rec.obs.ct.len() as u64,
                        sink.ct_loads + sink.ct_stores,
                        "{ctx}"
                    );
                    let probes = if config.bia.is_some_and(|(p, _)| p == BiaPlacement::Llc) {
                        rec.obs.ct.len()
                    } else {
                        0
                    };
                    assert_eq!(rec.obs.slices.len(), probes, "{ctx}: probe slices");
                    l1d_evictions += bare.counters.hier.l1d.evictions;
                    l2_hits += bare.counters.hier.l2.hits;
                    wrong_path += bare.counters.spec.wrong_path_accesses;
                }
                // Regime witnesses: the resident set never leaves the L1d;
                // where dataflow-set traffic goes through the L1d, the
                // spilled set is evicted from it and served from the L2;
                // and wrong paths run exactly when the window is open.
                let ctx = format!("{name} window {window} {regime}");
                let through_l1d = matches!(config.bia, None | Some((BiaPlacement::L1d, _)));
                if regime == "resident" {
                    assert_eq!(l1d_evictions, 0, "{ctx}");
                } else if through_l1d {
                    assert!(l1d_evictions > 0 && l2_hits > 0, "{ctx}");
                }
                assert_eq!(wrong_path > 0, window > 0, "{ctx}");
            }
        }
    }
}
