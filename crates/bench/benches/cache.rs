//! Criterion microbenches of the cache-hierarchy substrate: hit path,
//! L2-hit streams (the L1d-miss regime of a spilling dataflow set), miss
//! path, probe path, instruction fetch, the packed-set find path,
//! occupancy-word sweeps, and the inline-monitor vs. event-buffer BIA
//! sync paths (host-time throughput of the simulator).

use criterion::{criterion_group, criterion_main, Criterion};
use ctbia_core::bia::{Bia, BiaConfig};
use ctbia_sim::addr::LineAddr;
use ctbia_sim::config::HierarchyConfig;
use ctbia_sim::hierarchy::{AccessFlags, CacheEvent, Hierarchy, Level, MonitorLevel};
use std::hint::black_box;
use std::time::Duration;

fn bench_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("hierarchy");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));

    group.bench_function("l1_hit", |b| {
        let mut h = Hierarchy::new(HierarchyConfig::paper_table1()).unwrap();
        let line = LineAddr::new(42);
        h.access(line, AccessFlags::read());
        b.iter(|| black_box(h.access(line, AccessFlags::read())));
    });

    // A 256 KiB cyclic stream: larger than the 64 KiB L1d, inside the
    // 1 MiB L2, so after one warm-up pass every access misses L1d and hits
    // L2 — the walk a linearization sweep over a spilling set makes.
    const L2_STREAM_LINES: u64 = (256 << 10) / 64;
    let l2_stream = |monitor: Option<MonitorLevel>| {
        let mut h = Hierarchy::new(HierarchyConfig::paper_table1()).unwrap();
        h.set_monitor(monitor);
        for i in 0..L2_STREAM_LINES {
            h.access(LineAddr::new(i), AccessFlags::read());
        }
        let mut scratch = Vec::new();
        h.drain_events_into(&mut scratch);
        h
    };

    group.bench_function("l2_hit_stream_read", |b| {
        let mut h = l2_stream(None);
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(h.access(LineAddr::new(i % L2_STREAM_LINES), AccessFlags::read()))
        });
    });

    // Read, then write-hit the same line: every L1d victim is dirty, so each
    // miss also writes back into the L2.
    group.bench_function("l2_hit_stream_rmw", |b| {
        let mut h = l2_stream(None);
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            let line = LineAddr::new(i % L2_STREAM_LINES);
            h.access(line, AccessFlags::read());
            black_box(h.access(line, AccessFlags::write()))
        });
    });

    // The read stream with an L1d-placed BIA consuming the events inline.
    group.bench_function("l2_hit_stream_bia", |b| {
        let mut h = l2_stream(Some(MonitorLevel::L1d));
        let mut bia = Bia::new(BiaConfig::paper_table1()).unwrap();
        for p in 0..L2_STREAM_LINES / 64 {
            bia.access_for(ctbia_sim::addr::PhysAddr::new(p << 12));
        }
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            let line = LineAddr::new(i % L2_STREAM_LINES);
            black_box(h.access_with(line, AccessFlags::read(), &mut bia))
        });
    });

    group.bench_function("dram_miss_stream", |b| {
        let mut h = Hierarchy::new(HierarchyConfig::paper_table1()).unwrap();
        let mut i = 0u64;
        b.iter(|| {
            // A stride larger than the LLC keeps every access missing.
            i = i.wrapping_add(1);
            black_box(h.access(LineAddr::new(i * 40_000_000 / 64), AccessFlags::read()))
        });
    });

    group.bench_function("ct_probe", |b| {
        let mut h = Hierarchy::new(HierarchyConfig::paper_table1()).unwrap();
        h.set_monitor(Some(MonitorLevel::L1d));
        let line = LineAddr::new(42);
        h.access(line, AccessFlags::read());
        let mut scratch = Vec::new();
        h.drain_events_into(&mut scratch);
        b.iter(|| black_box(h.ct_probe(line, MonitorLevel::L1d)));
    });

    group.bench_function("fetch_inst_hit", |b| {
        let mut h = Hierarchy::new(HierarchyConfig::paper_table1()).unwrap();
        let line = LineAddr::new(7);
        h.fetch_inst(line);
        b.iter(|| black_box(h.fetch_inst(line)));
    });

    // The packed-set tag scan: round-robin hits across a resident working
    // set, so every access exercises `find_way`'s branchless hit-word path
    // on a different set.
    group.bench_function("packed_find_resident_sweep", |b| {
        let mut h = Hierarchy::new(HierarchyConfig::paper_table1()).unwrap();
        const LINES: u64 = 256; // 16 KiB, resident in a 32 KiB L1d
        for i in 0..LINES {
            h.access(LineAddr::new(i), AccessFlags::read());
        }
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(h.access(LineAddr::new(i % LINES), AccessFlags::read()))
        });
    });

    group.finish();
}

fn bench_occupancy(c: &mut Criterion) {
    let mut group = c.benchmark_group("occupancy");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));

    // Word-at-a-time sweeps over the occupancy bitmaps of a half-full L1d.
    let mut h = Hierarchy::new(HierarchyConfig::paper_table1()).unwrap();
    for i in 0..256u64 {
        h.access(LineAddr::new(i * 2), AccessFlags::read());
    }

    group.bench_function("for_each_resident", |b| {
        b.iter(|| {
            let mut n = 0u64;
            h.cache(Level::L1d).for_each_resident(|line| {
                n = n.wrapping_add(line.raw());
            });
            black_box(n)
        });
    });

    group.bench_function("resident_count", |b| {
        b.iter(|| black_box(h.cache(Level::L1d).resident_count()));
    });

    group.bench_function("page_truth", |b| {
        b.iter(|| {
            black_box(
                h.cache(Level::L1d)
                    .page_truth(ctbia_sim::addr::PageIdx::new(0)),
            )
        });
    });

    group.finish();
}

fn bench_monitor_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("bia_sync");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));

    // The same monitored access stream delivered to the BIA two ways: the
    // steady-state inline monitor (events applied at the emit site) vs.
    // the buffered drain/replay round-trip the robustness paths use. The
    // streams are identical by contract (DESIGN.md §14); only host-side
    // cost differs.
    const STRIDE: u64 = 1 << 9; // one line per tracked 4 KiB page
    const PAGES: u64 = 32;

    group.bench_function("inline_monitor", |b| {
        let mut h = Hierarchy::new(HierarchyConfig::paper_table1()).unwrap();
        h.set_monitor(Some(MonitorLevel::L1d));
        let mut bia = Bia::new(BiaConfig::paper_table1()).unwrap();
        for p in 0..PAGES {
            bia.access_for(ctbia_sim::addr::PhysAddr::new(p << 12));
        }
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            let line = LineAddr::new((i % PAGES) * STRIDE / 8);
            black_box(h.access_with(line, AccessFlags::read(), &mut bia))
        });
    });

    group.bench_function("buffered_sync", |b| {
        let mut h = Hierarchy::new(HierarchyConfig::paper_table1()).unwrap();
        h.set_monitor(Some(MonitorLevel::L1d));
        let mut bia = Bia::new(BiaConfig::paper_table1()).unwrap();
        for p in 0..PAGES {
            bia.access_for(ctbia_sim::addr::PhysAddr::new(p << 12));
        }
        let mut buf: Vec<CacheEvent> = Vec::new();
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            let line = LineAddr::new((i % PAGES) * STRIDE / 8);
            let r = h.access(line, AccessFlags::read());
            if h.has_events() {
                h.drain_events_into(&mut buf);
                bia.apply_events(buf.iter().copied());
            }
            black_box(r)
        });
    });

    group.finish();
}

criterion_group!(benches, bench_paths, bench_occupancy, bench_monitor_paths);
criterion_main!(benches);
