//! The layer ladder: synthetic micro-measurements of single layer calls.
//!
//! Each rung's working set is sized so every timed call lands at the level
//! the rung names, and the rung asserts that it did (through the returned
//! `hit_level` or the machine's counters). Rungs whose metric the workload
//! already measured from its own cells are skipped.

use crate::exec::{mem_ops, run_fresh, Job};
use crate::outcome::{Ctx, Outcome};
use crate::stats::{median, mix};
use ctbia_core::bia::{Bia, BiaConfig};
use ctbia_core::ctmem::{CtMemory, Width};
use ctbia_core::ds::DataflowSet;
use ctbia_core::linearize::{ct_load_bia, ct_load_sw, BiaOptions, SwProfile};
use ctbia_harness::{execute_cell, CellSpec, DiskCache, MemoIndex, StrategySpec, WorkloadSpec};
use ctbia_machine::{BiaPlacement, Counters, Machine, MachineConfig};
use ctbia_sim::addr::{LineAddr, PhysAddr};
use ctbia_sim::config::HierarchyConfig;
use ctbia_sim::hierarchy::{
    AccessFlags, CacheEvent, CacheEventKind, Hierarchy, Level, MonitorLevel,
};
use ctbia_trace::MetricsSink;
use std::hint::black_box;
use std::time::Instant;

/// Timing repeats per rung; the median is reported.
const REPS: usize = 5;

/// Median over [`REPS`] of `f`'s time per operation, in ns. `f` performs
/// `ops` operations per call.
fn ns_per_op(ops: u64, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// Cyclic line sets that land each access at one level of the Table 1
/// hierarchy (64 KB L1d, 1 MB L2, 16 MB LLC, all LRU): 16 KB stays in L1d;
/// 256 KB thrashes L1d but fits L2; 4 MB thrashes L2 but fits the LLC;
/// 32 MB thrashes everything.
const LEVELS: [(&str, Level, u64, u64); 4] = [
    ("sim.access_ns.l1_hit", Level::L1d, 256, 1_000_000),
    ("sim.access_ns.l2_hit", Level::L2, 4096, 400_000),
    ("sim.access_ns.llc_hit", Level::Llc, 65_536, 300_000),
    ("sim.access_ns.dram", Level::Dram, 524_288, 200_000),
];

const BASE_LINE: u64 = 1 << 20;

fn hierarchy_rungs(out: &mut Outcome) -> Result<(), String> {
    for (name, level, lines, n) in LEVELS {
        if out.has(name) {
            continue;
        }
        let mut h = Hierarchy::new(HierarchyConfig::paper_table1()).map_err(|e| e.to_string())?;
        for _ in 0..2 {
            for i in 0..lines {
                h.access(LineAddr::new(BASE_LINE + i), AccessFlags::read());
            }
        }
        let mut wrong = 0u64;
        let mut k = 0u64;
        let ns = ns_per_op(n, || {
            for _ in 0..n {
                let r = h.access(LineAddr::new(BASE_LINE + k % lines), AccessFlags::read());
                wrong += u64::from(r.hit_level != level);
                k += 1;
            }
        });
        out.witness(wrong == 0, || {
            format!("{name}: {wrong} accesses did not hit {level}")
        });
        out.metric(name, ns, "ns");
    }
    if !out.has("sim.ct_probe_ns") {
        let mut h = Hierarchy::new(HierarchyConfig::paper_table1()).map_err(|e| e.to_string())?;
        for i in 0..256 {
            h.access(LineAddr::new(BASE_LINE + i), AccessFlags::read());
        }
        let n = 1_000_000;
        let mut k = 0u64;
        let ns = ns_per_op(n, || {
            for _ in 0..n {
                black_box(h.ct_probe(LineAddr::new(BASE_LINE + k % 256), MonitorLevel::L1d));
                k += 1;
            }
        });
        out.metric("sim.ct_probe_ns", ns, "ns");
    }
    Ok(())
}

fn bia_rung(out: &mut Outcome) -> Result<(), String> {
    if out.has("core.bia_event_ns") {
        return Ok(());
    }
    let mut bia = Bia::new(BiaConfig::paper_table1()).map_err(|e| e.to_string())?;
    let page = PhysAddr::new(BASE_LINE << 6);
    bia.access_for(page);
    let n = 1_000_000u64;
    let mut k = 0u64;
    let before = bia.stats().events_applied;
    let ns = ns_per_op(n, || {
        for _ in 0..n {
            let ev = CacheEvent {
                line: LineAddr::new(page.line().raw() + k % 64),
                kind: CacheEventKind::Hit { dirty: k & 1 == 0 },
            };
            bia.on_event(black_box(&ev));
            k += 1;
        }
    });
    let applied = bia.stats().events_applied - before;
    out.witness(applied == n * REPS as u64, || {
        format!(
            "core.bia_event_ns: {applied} of {} events hit the tracked page",
            n * REPS as u64
        )
    });
    out.metric("core.bia_event_ns", ns, "ns");
    Ok(())
}

fn machine(config: MachineConfig) -> Result<Machine, String> {
    Machine::new(config).map_err(|e| e.to_string())
}

/// A DS of `bytes` on `m`, with every element written once.
fn array(m: &mut Machine, bytes: u64) -> Result<(PhysAddr, DataflowSet), String> {
    let base = m.alloc(bytes, 64).map_err(|e| e.to_string())?;
    for i in 0..bytes / 8 {
        m.poke_u64(base.offset(i * 8), i);
    }
    Ok((base, DataflowSet::contiguous(base, bytes)))
}

/// Where `m`'s demand accesses landed since `before`: (L1d hits, L1d
/// misses, L2 hits).
fn landed_since(m: &Machine, before: &Counters) -> (u64, u64, u64) {
    let now = m.counters().hier;
    (
        now.l1d.hits - before.hier.l1d.hits,
        now.l1d.misses - before.hier.l1d.misses,
        now.l2.hits - before.hier.l2.hits,
    )
}

/// DS sizes of the two regimes: 16 KB (inside L1d) and 256 KB (inside L2).
const REGIMES: [(&str, u64); 2] = [("resident", 16 << 10), ("spill", 256 << 10)];

fn linearize_rungs(out: &mut Outcome) -> Result<(), String> {
    for (regime, bytes) in REGIMES {
        for alg in ["sw", "bia"] {
            let name = format!("core.linearize_line_ns.{alg}.{regime}");
            if out.has(&name) {
                continue;
            }
            let mut m = machine(MachineConfig::with_bia(BiaPlacement::L1d))?;
            let (base, ds) = array(&mut m, bytes)?;
            let lines = ds.lines().len() as u64;
            let calls = (2_000_000 / lines).max(20);
            let mut k = 0u64;
            let mut call = |m: &mut Machine| {
                let addr = base.offset((k * 4) % bytes);
                k += 1;
                match alg {
                    "sw" => ct_load_sw(m, &ds, addr, Width::U32, SwProfile::avx2()),
                    _ => ct_load_bia(m, &ds, addr, Width::U32, BiaOptions::default()),
                }
            };
            for _ in 0..calls.min(50) {
                black_box(call(&mut m));
            }
            let before = m.counters();
            let ns = ns_per_op(calls * lines, || {
                for _ in 0..calls {
                    black_box(call(&mut m));
                }
            });
            let (_, misses, _) = landed_since(&m, &before);
            let swept = calls * lines * REPS as u64;
            if alg == "sw" {
                let spill = regime == "spill";
                let miss = misses as f64 / swept as f64;
                out.witness(if spill { miss > 0.9 } else { miss < 0.01 }, || {
                    format!("{name}: {:.3} of swept lines missed L1d", miss)
                });
            }
            out.metric(&name, ns, "ns");
        }
    }
    Ok(())
}

fn machine_rungs(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    for (name, bytes, level) in [
        ("machine.load_ns.l1_hit", 16u64 << 10, Level::L1d),
        ("machine.load_ns.l2_hit", 256 << 10, Level::L2),
    ] {
        if out.has(name) {
            continue;
        }
        let mut m = machine(MachineConfig::insecure())?;
        let (base, _) = array(&mut m, bytes)?;
        let lines = bytes / 64;
        for i in 0..2 * lines {
            m.load(base.offset((i % lines) * 64), Width::U64);
        }
        let n = 500_000u64;
        let before = m.counters();
        let mut k = 0u64;
        let ns = ns_per_op(n, || {
            for _ in 0..n {
                black_box(m.load(base.offset((k % lines) * 64), Width::U64));
                k += 1;
            }
        });
        let (l1_hits, _, l2_hits) = landed_since(&m, &before);
        let total = n * REPS as u64;
        let landed = if level == Level::L1d {
            l1_hits
        } else {
            l2_hits
        };
        out.witness(landed == total, || {
            format!("{name}: {landed} of {total} loads hit {level}")
        });
        out.metric(name, ns, "ns");
    }
    if !out.has("machine.ct_load_ns") || !out.has("machine.ct_store_ns") {
        let mut m = machine(MachineConfig::with_bia(BiaPlacement::L1d))?;
        let (base, _) = array(&mut m, 16 << 10)?;
        for i in 0..256 {
            m.store(base.offset(i * 64), Width::U64, i);
        }
        let n = 500_000u64;
        let mut k = 0u64;
        let ns = ns_per_op(n, || {
            for _ in 0..n {
                black_box(m.ct_load(base.offset((k % 256) * 64)));
                k += 1;
            }
        });
        out.metric("machine.ct_load_ns", ns, "ns");
        let ns = ns_per_op(n, || {
            for _ in 0..n {
                black_box(m.ct_store(base.offset((k % 256) * 64), k));
                k += 1;
            }
        });
        out.metric("machine.ct_store_ns", ns, "ns");
    }
    if !out.has("machine.new_us") || !out.has("machine.reset_us") {
        let config = MachineConfig::with_bia(BiaPlacement::L1d);
        let ns = ns_per_op(10, || {
            for _ in 0..10 {
                black_box(Machine::new(config.clone()).expect("valid configuration"));
            }
        });
        out.metric("machine.new_us", ns / 1e3, "us");
        // Reset after a cell has dirtied the machine, as the engine's pool
        // does between cells; only the reset is timed.
        let mut m = machine(config)?;
        let job = resident_job(StrategySpec::Bia, ctx.seed);
        let samples: Vec<f64> = (0..10)
            .map(|_| {
                black_box(job.workload().run(&mut m, job.strategy.to_strategy()));
                let t = Instant::now();
                m.reset();
                t.elapsed().as_nanos() as f64
            })
            .collect();
        out.metric("machine.reset_us", median(&samples) / 1e3, "us");
    }
    Ok(())
}

/// The fixed resident cell the slowdown and fallback rungs run.
fn resident_job(strategy: StrategySpec, seed: u64) -> Job {
    let w = crate::exec::with_seed(
        WorkloadSpec::named("hist", 2000).expect("known workload"),
        mix(seed, 7),
    );
    Job::of_spec(&CellSpec::new(w, strategy, BiaPlacement::L1d))
}

/// `Workload::run` time with an observer attached over time without, on
/// the fixed resident CT cell.
fn slowdown(ctx: &Ctx, attach: impl Fn(&mut Machine)) -> f64 {
    let job = resident_job(StrategySpec::CtAvx2, ctx.seed);
    let time = |observe: bool| {
        let samples: Vec<f64> = (0..REPS)
            .map(|_| {
                let mut m = Machine::new(job.config.clone()).expect("valid configuration");
                if observe {
                    attach(&mut m);
                }
                let wl = job.workload();
                let t = Instant::now();
                black_box(wl.run(&mut m, job.strategy.to_strategy()));
                t.elapsed().as_nanos() as f64
            })
            .collect();
        median(&samples)
    };
    let plain = time(false);
    time(true) / plain
}

fn observer_rungs(ctx: &Ctx, out: &mut Outcome) {
    if !out.has("machine.observed_slowdown") {
        let s = slowdown(ctx, |m| m.enable_observation());
        out.metric("machine.observed_slowdown", s, "ratio");
    }
    if !out.has("trace.metrics_sink_slowdown") {
        let s = slowdown(ctx, |m| m.set_trace_sink(Box::new(MetricsSink::new())));
        out.metric("trace.metrics_sink_slowdown", s, "ratio");
    }
}

/// Fallback per-strategy cells for a regime the workload did not run:
/// histogram 2000 (8 KB DS) and dijkstra 256 (256 KB DS).
fn workload_rungs(ctx: &Ctx, out: &mut Outcome) {
    for (regime, name, size) in [("resident", "hist", 2000), ("spill", "dij", 256)] {
        for (fam, strategy) in [
            ("insecure", StrategySpec::Insecure),
            ("ct", StrategySpec::CtAvx2),
            ("bia", StrategySpec::Bia),
        ] {
            let metric = format!("workloads.run_ns_per_mem_op.{fam}.{regime}");
            if out.has(&metric) {
                continue;
            }
            let w = crate::exec::with_seed(
                WorkloadSpec::named(name, size).expect("known workload"),
                mix(ctx.seed, 9),
            );
            let r = run_fresh(&Job::of_spec(&CellSpec::new(
                w,
                strategy,
                BiaPlacement::L1d,
            )));
            out.metric(
                &metric,
                r.run_ns as f64 / mem_ops(&r.counters).max(1) as f64,
                "ns",
            );
        }
    }
}

fn harness_rungs(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let spec = CellSpec::new(
        WorkloadSpec::named("hist", 300).expect("known workload"),
        StrategySpec::Bia,
        BiaPlacement::L1d,
    );
    let report = execute_cell(&spec)?;
    if !out.has("harness.disk_store_us") || !out.has("harness.disk_load_us") {
        let cache = DiskCache::open(ctx.scratch.join("ladder-cache")).map_err(|e| e.to_string())?;
        let n = 100u64;
        let mut round = 0u64;
        let keys =
            |round: u64| (0..n).map(move |i| format!("{:016x}{:016x}", mix(ctx.seed, round), i));
        let mut stored = Vec::new();
        let store_ns = ns_per_op(n, || {
            round += 1;
            for key in keys(round) {
                cache
                    .store(&key, &report)
                    .expect("scratch cache is writable");
            }
            stored.push(round);
        });
        let mut misses = 0u64;
        let mut r = stored.into_iter();
        let load_ns = ns_per_op(n, || {
            let round = r.next().expect("one stored round per load round");
            for key in keys(round) {
                misses += u64::from(cache.load(&key).as_ref() != Some(&report));
            }
        });
        out.check(misses == 0, || {
            format!("harness.disk_load_us: {misses} stored reports did not load back")
        });
        out.metric("harness.disk_store_us", store_ns / 1e3, "us");
        out.metric("harness.disk_load_us", load_ns / 1e3, "us");
    }
    if !out.has("harness.memo_insert_ns") || !out.has("harness.memo_lookup_ns") {
        // 10k distinct digests, each inserted and looked up 10 times per
        // repeat, so the index stays small.
        let memo = MemoIndex::new(16);
        let n = 100_000u64;
        let insert_ns = ns_per_op(n, || {
            for i in 0..n {
                memo.insert(u128::from(mix(ctx.seed, i % 10_000)), report.clone());
            }
        });
        let mut hits = 0u64;
        let lookup_ns = ns_per_op(n, || {
            for i in 0..n {
                hits += u64::from(memo.lookup(u128::from(mix(ctx.seed, i % 10_000))).is_some());
            }
        });
        out.check(hits == n * REPS as u64, || {
            format!("harness.memo_lookup_ns: {hits} lookups hit")
        });
        out.metric("harness.memo_insert_ns", insert_ns, "ns");
        out.metric("harness.memo_lookup_ns", lookup_ns, "ns");
    }
    Ok(())
}

/// Runs every rung whose metric is still missing.
pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    hierarchy_rungs(out)?;
    bia_rung(out)?;
    linearize_rungs(out)?;
    machine_rungs(ctx, out)?;
    observer_rungs(ctx, out);
    workload_rungs(ctx, out);
    harness_rungs(ctx, out)
}
