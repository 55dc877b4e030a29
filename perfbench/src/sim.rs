//! `sim-resident` and `sim-spill`: simulator throughput with the dataflow
//! set (DS) inside L1d, and with it spilling out of L1d into L2.

use crate::calib::RefClock;
use crate::exec::{
    family, mem_ops, par_map, reference_digest, run_fresh, run_job, with_seed, Job, Ran, Tally,
};
use crate::outcome::{num, peak_rss_mb, Ctx, Outcome};
use crate::spans::Tracer;
use crate::stats::{by_second, median, mix};
use crate::E2e;
use ctbia_harness::{
    execute_cell, CellReport, CellSpec, CryptoKernel, StrategySpec, SweepEngine, WorkloadSpec,
};
use ctbia_machine::{BiaPlacement, Machine};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    Resident,
    Spill,
}

impl Regime {
    pub fn name(self) -> &'static str {
        match self {
            Regime::Resident => "resident",
            Regime::Spill => "spill",
        }
    }
}

/// A kernel by CLI name and size, and a strategy with its BIA placement.
type Kernel = (&'static str, usize);
type Strategy = (StrategySpec, BiaPlacement);

/// Kernels and sizes. Resident: every DS is at most 36 KB, inside the
/// 64 KB L1d. Spill: the DS is 256 KB (dijkstra 256, the size clamp) and
/// 72 KB (permutation 18432), larger than L1d and inside the 1 MB L2; the
/// permutation size is the smallest at which every sweep thrashes L1d.
const RESIDENT: [Kernel; 5] = [
    ("dij", 96),
    ("hist", 5000),
    ("perm", 5000),
    ("bin", 4000),
    ("heap", 4000),
];
const SPILL: [Kernel; 2] = [("perm", 18432), ("dij", 256)];

const RESIDENT_STRATEGIES: [Strategy; 3] = [
    (StrategySpec::Insecure, BiaPlacement::L1d),
    (StrategySpec::CtAvx2, BiaPlacement::L1d),
    (StrategySpec::Bia, BiaPlacement::L1d),
];
/// Spill cells in descending cost, so the engine's in-order claiming keeps
/// both workers busy until the end of the pass.
const SPILL_STRATEGIES: [Strategy; 4] = [
    (StrategySpec::Bia, BiaPlacement::L1d),
    (StrategySpec::CtAvx2, BiaPlacement::L1d),
    (StrategySpec::Bia, BiaPlacement::L2),
    (StrategySpec::Insecure, BiaPlacement::L1d),
];

/// One workload's cells: Ghostrider cells through the sweep engine, crypto
/// cells (keyed from the seed) executed directly.
#[derive(Debug)]
pub struct Grid {
    pub engine: Vec<CellSpec>,
    pub crypto: Vec<Job>,
    /// Per engine cell: the plain-Rust reference output digest of its input.
    pub expected: Vec<Option<u64>>,
}

impl Grid {
    pub fn new(regime: Regime, seed: u64) -> Grid {
        let (kernels, strategies): (&[Kernel], &[Strategy]) = match regime {
            Regime::Resident => (&RESIDENT, &RESIDENT_STRATEGIES),
            Regime::Spill => (&SPILL, &SPILL_STRATEGIES),
        };
        let mut engine = Vec::new();
        for (k, &(name, size)) in kernels.iter().enumerate() {
            let w = WorkloadSpec::named(name, size).expect("known workload");
            let w = with_seed(w, mix(seed, k as u64));
            for &(s, p) in strategies {
                engine.push(CellSpec::new(w, s, p));
            }
        }
        let mut crypto = Vec::new();
        if regime == Regime::Resident {
            for (k, kernel) in CryptoKernel::ALL.into_iter().enumerate() {
                let key_seed = mix(seed, 100 + k as u64);
                for &(s, p) in strategies {
                    crypto.push(Job::crypto(kernel, key_seed, s, p));
                }
            }
        }
        let expected = engine
            .iter()
            .map(|c| reference_digest(&c.workload))
            .collect();
        Grid {
            engine,
            crypto,
            expected,
        }
    }

    fn cells(&self) -> usize {
        self.engine.len() + self.crypto.len()
    }

    /// Every cell as a direct job, engine cells first.
    fn jobs(&self) -> Vec<Job> {
        self.engine
            .iter()
            .map(Job::of_spec)
            .chain(self.crypto.iter().cloned())
            .collect()
    }
}

/// One cell's result in grid order, from the engine or the direct path.
fn outputs(reports: &[CellReport], crypto: &[Ran]) -> Vec<(u64, ctbia_machine::Counters)> {
    reports
        .iter()
        .map(|r| (r.digest, r.counters))
        .chain(crypto.iter().map(|r| (r.digest, r.counters)))
        .collect()
}

/// Runs an untimed warm-up pass, then whole passes for `ctx.seconds` (at
/// least one), and checks every output. With tracing on, each pass also re-runs the
/// engine cells directly inside per-cell spans; the returned tally covers
/// those direct runs.
pub fn run(
    regime: Regime,
    ctx: &Ctx,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<(E2e, Tally), String> {
    let mut clock = RefClock::new(ctx.nproc);
    let mut setup_cpu = Vec::new();
    let mut grid = None;
    for _ in 0..ctx.setup_reps {
        let (g, cpu, _) = clock.time(|| -> Result<Grid, String> {
            // Input generation, with each input's reference output.
            let g = Grid::new(regime, ctx.seed);
            // Machine start: one machine per distinct configuration, which
            // also proves every configuration valid before the timed phase.
            let mut configs: Vec<String> = Vec::new();
            for job in g.jobs() {
                let key = format!("{:?}", job.config);
                if !configs.contains(&key) {
                    Machine::new(job.config.clone()).map_err(|e| format!("machine start: {e}"))?;
                    configs.push(key);
                }
            }
            Ok(g)
        });
        setup_cpu.push(cpu);
        grid = Some(g?);
    }
    let grid = grid.expect("at least one set-up repetition");
    let setup_s: Vec<f64> = setup_cpu.iter().map(|&c| clock.ref_s(c)).collect();
    clock.next_phase();
    let jobs = grid.jobs();
    let engine = SweepEngine::new().with_threads(ctx.nproc);
    // Engine cells per `SweepEngine::run` call. A spill pass takes seconds,
    // so its cells go `nproc` at a time (pairs of like cost, keeping every
    // worker busy), and the reference clock samples the host between them.
    let per_call = match regime {
        Regime::Resident => grid.engine.len(),
        Regime::Spill => ctx.nproc,
    };

    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut done = Vec::new();
    let mut first: Option<(Vec<CellReport>, Vec<Ran>)> = None;
    let mut tally = Tally::default();
    let mut overheads = Vec::new();
    let mut fams = FamilySums::new();
    let mut peak_rss = 0.0;
    let mut start = Instant::now();
    let mut pass = 0u64;
    loop {
        // Each engine run and the crypto cells are timed segments; the
        // pass's times leave out the reference measurements between them.
        let mut wall = 0.0;
        let mut cpu = 0.0;
        let mut engine_wall = 0.0;
        let (reports, crypto) = tracer.span("bench.pass", 0, pass, |pid| {
            let mut reports = Vec::new();
            for cells in grid.engine.chunks(per_call) {
                let (r, cpu_s, wall_s) = clock.time(|| {
                    tracer.span("harness.SweepEngine::run", pid, pass, |_| engine.run(cells))
                });
                cpu += cpu_s;
                engine_wall += wall_s;
                reports.extend(r?);
            }
            let (crypto, cpu_s, wall_s) = clock.time(|| {
                par_map(&grid.crypto, ctx.nproc, |i, job| {
                    run_job(job, tracer, pid, item(pass, grid.engine.len() + i))
                })
            });
            cpu += cpu_s;
            wall = engine_wall + wall_s;
            Ok::<_, String>((reports, crypto))
        })?;
        // Pass 0 warms up, untimed: fresh machines, cold caches and lazily
        // backed memory make a run's first pass unlike the rest (in one
        // spill run the first dijkstra pair took 5.8 CPU s, later ones 4.4).
        if pass == 0 {
            start = Instant::now();
        } else {
            walls.push(wall);
            cpus.push(cpu);
            done.push((start.elapsed().as_secs_f64(), wall * 1e3));
        }
        if tracer.enabled() {
            for (c, job) in crypto.iter().zip(&grid.crypto) {
                tally.add(&c.counters, c.run_ns);
                family_add(&mut fams, job, c);
            }
        }
        match &first {
            None => {
                peak_rss = peak_rss_mb();
                first = Some((reports, crypto));
            }
            Some((r0, c0)) => {
                for (i, (a, b)) in outputs(r0, c0)
                    .iter()
                    .zip(outputs(&reports, &crypto))
                    .enumerate()
                {
                    out.check(*a == b, || {
                        format!("pass {pass}: cell {i} differs from pass 0")
                    });
                }
            }
        }
        if tracer.enabled() {
            let engine_ns = engine_wall * 1e9;
            let direct = tracer.span("bench.direct", 0, pass, |pid| {
                par_map(&grid.engine, ctx.nproc, |i, spec| {
                    run_job(&Job::of_spec(spec), tracer, pid, item(pass, i))
                })
            });
            let r0 = &first.as_ref().expect("first pass recorded").0;
            let mut busy = 0;
            for (i, (d, r)) in direct.iter().zip(r0).enumerate() {
                out.check(d.digest == r.digest && d.counters == r.counters, || {
                    format!(
                        "direct run of {} differs from the engine",
                        grid.engine[i].label()
                    )
                });
                busy += d.run_ns;
            }
            overheads.push(1.0 - busy as f64 / (engine_ns * ctx.nproc as f64));
            for (d, job) in direct.iter().zip(&jobs) {
                tally.add(&d.counters, d.run_ns);
                family_add(&mut fams, job, d);
            }
        }
        pass += 1;
        if pass > 1 && start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }
    let (r0, c0) = first.expect("at least one pass");
    verify(regime, &grid, ctx.nproc, &r0, &c0, out);

    let results = outputs(&r0, &c0);
    let cells = grid.cells() as f64;
    let ops: u64 = results.iter().map(|(_, c)| mem_ops(c)).sum();
    let mut bia_l1 = 0u64;
    let mut bia_l2 = 0u64;
    let mut ct = 0u64;
    for (job, (_, c)) in jobs.iter().zip(&results) {
        match (job.strategy, job.placement) {
            (StrategySpec::CtAvx2, _) => ct += c.cycles,
            (StrategySpec::Bia, BiaPlacement::L1d) => bia_l1 += c.cycles,
            (StrategySpec::Bia, BiaPlacement::L2) => bia_l2 += c.cycles,
            _ => {}
        }
    }
    out.record("cells_per_pass", format!("{}", grid.cells()));
    out.record("mem_ops_per_pass", format!("{ops}"));
    out.record("passes", format!("{}", walls.len()));
    if regime == Regime::Spill {
        out.record("bia_l2_over_ct_cycles", num(bia_l2 as f64 / ct as f64));
    }
    if tracer.enabled() {
        let (mut all, mut bia) = (Tally::default(), Tally::default());
        for (job, (_, c)) in jobs.iter().zip(&results) {
            all.add(c, 0);
            if job.strategy == StrategySpec::Bia {
                bia.add(c, 0);
            }
        }
        crate::exec::counter_metrics(out, &all, &bia);
        out.metric("harness.engine_overhead_frac", median(&overheads), "ratio");
        family_metrics(&fams, regime.name(), out);
        machine_metrics(tracer, out);
    }
    let rates: Vec<f64> = walls.iter().map(|w| 1.0 / w).collect();
    let pass_ref_s = clock.ref_s(median(&cpus));
    out.record("host_ref_blocks_per_s", num(clock.blocks_per_s()));
    Ok((
        E2e {
            setup_s,
            req_ms: by_second(done, ctx.seconds),
            cells_per_s: cells * median(&rates),
            req_per_s: median(&rates),
            mem_ops_per_s: ops as f64 * median(&rates),
            cells_per_ref_s: cells / pass_ref_s,
            mem_ops_per_ref_s: ops as f64 / pass_ref_s,
            bia_over_ct: bia_l1 as f64 / ct as f64,
            peak_rss_mb: peak_rss,
        },
        tally,
    ))
}

/// Span item id for cell `i` of pass `pass`.
fn item(pass: u64, i: usize) -> u64 {
    pass * 1000 + i as u64
}

/// Per strategy family: (Σ `Workload::run` ns, Σ memory ops) of the
/// direct runs, for `workloads.run_ns_per_mem_op.<family>.<regime>`.
pub type FamilySums = BTreeMap<&'static str, (u64, u64)>;

pub fn family_add(sums: &mut FamilySums, job: &Job, d: &Ran) {
    if let Some(fam) = family(job.strategy, job.placement) {
        let e = sums.entry(fam).or_default();
        e.0 += d.run_ns;
        e.1 += mem_ops(&d.counters);
    }
}

pub fn family_metrics(sums: &FamilySums, regime: &str, out: &mut Outcome) {
    for (fam, &(ns, ops)) in sums {
        if ops > 0 {
            out.metric(
                &format!("workloads.run_ns_per_mem_op.{fam}.{regime}"),
                ns as f64 / ops as f64,
                "ns",
            );
        }
    }
}

/// `machine.new_us` / `machine.reset_us` from the direct path's spans.
pub fn machine_metrics(tracer: &Tracer, out: &mut Outcome) {
    for (span, name) in [
        ("machine.new", "machine.new_us"),
        ("machine.reset", "machine.reset_us"),
    ] {
        let d = tracer.durations(span);
        if !d.is_empty() {
            out.metric(name, median(&d) / 1e3, "us");
        }
    }
}

/// The post-run checks: serial references, cross-strategy digests, and
/// the regime witnesses.
fn verify(
    regime: Regime,
    grid: &Grid,
    nproc: usize,
    reports: &[CellReport],
    crypto: &[Ran],
    out: &mut Outcome,
) {
    // Each reference cell runs alone on a fresh thread, `nproc` at a time.
    let serial = par_map(&grid.engine, nproc, |_, spec| execute_cell(spec));
    for (((spec, r), expected), serial) in grid
        .engine
        .iter()
        .zip(reports)
        .zip(&grid.expected)
        .zip(&serial)
    {
        out.check(expected.map_or(true, |d| d == r.digest), || {
            format!(
                "{}: output digest differs from the plain-Rust reference",
                spec.label()
            )
        });
        out.check(
            serial.as_ref().map(CellReport::to_cache_text).ok() == Some(r.to_cache_text()),
            || {
                format!(
                    "{}: sweep-engine report differs from a serial execute_cell",
                    spec.label()
                )
            },
        );
    }
    let fresh = par_map(&grid.crypto, nproc, |_, job| run_fresh(job));
    for ((job, r), fresh) in grid.crypto.iter().zip(crypto).zip(&fresh) {
        out.check(
            fresh.digest == r.digest && fresh.counters == r.counters,
            || {
                format!(
                    "{}: pooled run differs from a fresh machine",
                    job.input_key()
                )
            },
        );
    }
    let jobs = grid.jobs();
    let results = outputs(reports, crypto);
    let mut digests: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for (job, (d, _)) in jobs.iter().zip(&results) {
        digests.entry(job.input_key()).or_default().push(*d);
    }
    for (key, ds) in &digests {
        out.check(ds.iter().all(|d| *d == ds[0]), || {
            format!("{key}: output digest differs across strategies")
        });
    }
    let mut ct = Tally::default();
    for (job, (_, c)) in jobs.iter().zip(&results) {
        let sweeping = matches!(job.strategy, StrategySpec::CtAvx2)
            || (job.strategy == StrategySpec::Bia && job.placement == BiaPlacement::L1d);
        if job.strategy == StrategySpec::CtAvx2 {
            ct.add(c, 0);
        }
        if regime == Regime::Spill && sweeping {
            let misses = c.hier.l1d.misses as f64;
            out.witness(
                misses >= 0.9 * c.linearize.lines_fetched as f64 && c.hier.l2.hits as f64 >= 0.9 * misses,
                || {
                    format!(
                        "{}: sweep lines should miss L1d and hit L2 ({} swept, {} L1d misses, {} L2 hits)",
                        job.input_key(),
                        c.linearize.lines_fetched,
                        c.hier.l1d.misses,
                        c.hier.l2.hits
                    )
                },
            );
        }
    }
    if regime == Regime::Resident {
        out.witness(ct.l1d_miss_frac() < 0.01, || {
            format!(
                "CT cells' L1d demand-miss fraction {:.4} should be < 0.01",
                ct.l1d_miss_frac()
            )
        });
    }
    out.record("ct_l1d_miss_frac", num(ct.l1d_miss_frac()));
}
