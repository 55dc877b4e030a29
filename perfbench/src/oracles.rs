//! `oracles`: the verification grid (taint sanitizer plus trace-equivalence
//! oracle) and the static certification grid (extract, lint, abstract
//! cache), beside plain runs of the same cells.

use crate::calib::RefClock;
use crate::exec::{par_map, run_job, run_pooled, with_seed, Job, Tally};
use crate::outcome::{peak_rss_mb, Ctx, Outcome};
use crate::spans::Tracer;
use crate::stats::{by_second, median, mix};
use crate::E2e;
use ctbia_analyze::{extract, interpret, lint, AnalyzeCell, AnalyzeEngine, AnalyzeReport};
use ctbia_harness::{CellReport, CellSpec, CryptoKernel, StrategySpec, SweepEngine, WorkloadSpec};
use ctbia_machine::{BiaPlacement, Machine};
use ctbia_verify::{taint_check, trace_equivalence, VerifyCell, VerifyEngine, VerifyReport};
use std::collections::BTreeMap;
use std::time::Instant;

const KERNELS: [(&str, usize); 5] = [
    ("dij", 32),
    ("hist", 500),
    ("perm", 500),
    ("bin", 600),
    ("heap", 600),
];

/// Crypto kernels whose access pattern depends on the key even without
/// protection, so their insecure cells must fail certification.
const LEAKY_INSECURE: [CryptoKernel; 5] = [
    CryptoKernel::Aes,
    CryptoKernel::Rc2,
    CryptoKernel::Rc4,
    CryptoKernel::Blowfish,
    CryptoKernel::Cast,
];

/// Secret seeds per verification cell: 3 pairs for the oracle.
const FAMILY: u64 = 4;

#[derive(Debug)]
pub struct Grid {
    pub verify: Vec<VerifyCell>,
    /// The verdict the benchmark expects: `true` = must be caught.
    pub verify_leaks: Vec<bool>,
    pub analyze: Vec<AnalyzeCell>,
    pub analyze_leaks: Vec<bool>,
    /// Plain simulations of the verification cells.
    pub plain: Vec<CellSpec>,
}

impl Grid {
    pub fn new(seed: u64) -> Grid {
        let family: Vec<u64> = (0..FAMILY).map(|i| mix(seed, 200 + i)).collect();
        let protected = [
            (StrategySpec::Ct, BiaPlacement::L1d),
            (StrategySpec::Bia, BiaPlacement::L1d),
        ];
        let mut g = Grid {
            verify: Vec::new(),
            verify_leaks: Vec::new(),
            analyze: Vec::new(),
            analyze_leaks: Vec::new(),
            plain: Vec::new(),
        };
        let verify = |g: &mut Grid, spec: CellSpec, leaks: bool| {
            g.plain.push(spec.clone());
            g.verify.push(VerifyCell::new(spec, family.clone()));
            g.verify_leaks.push(leaks);
        };
        for (k, &(name, size)) in KERNELS.iter().enumerate() {
            let w = with_seed(
                WorkloadSpec::named(name, size).expect("known workload"),
                mix(seed, k as u64),
            );
            for (s, p) in protected {
                verify(&mut g, CellSpec::new(w, s, p), false);
                g.analyze.push(AnalyzeCell::new(CellSpec::new(w, s, p)));
                g.analyze_leaks.push(false);
            }
            g.analyze.push(AnalyzeCell::new(CellSpec::new(
                w,
                StrategySpec::Insecure,
                BiaPlacement::L1d,
            )));
            g.analyze_leaks.push(true);
        }
        for kernel in CryptoKernel::ALL {
            for (s, p) in protected {
                let spec = CellSpec::new(WorkloadSpec::Crypto(kernel), s, p);
                verify(&mut g, spec.clone(), false);
                g.analyze.push(AnalyzeCell::new(spec));
                g.analyze_leaks.push(false);
            }
            if LEAKY_INSECURE.contains(&kernel) {
                g.analyze.push(AnalyzeCell::new(CellSpec::new(
                    WorkloadSpec::Crypto(kernel),
                    StrategySpec::Insecure,
                    BiaPlacement::L1d,
                )));
                g.analyze_leaks.push(true);
            }
        }
        // Negative controls: the leaky binary search always leaks; the
        // Spectre gadget leaks only on a machine that speculates.
        let leaky = with_seed(
            WorkloadSpec::named("leaky-bin", 500).expect("known workload"),
            mix(seed, 50),
        );
        let leaky = CellSpec::new(leaky, StrategySpec::Insecure, BiaPlacement::L1d);
        verify(&mut g, leaky.clone(), true);
        g.analyze.push(AnalyzeCell::new(leaky));
        g.analyze_leaks.push(true);
        let spectre = with_seed(
            WorkloadSpec::named("spectre", 256).expect("known workload"),
            mix(seed, 51),
        );
        for window in [0, 32] {
            let mut spec = CellSpec::new(spectre, StrategySpec::Insecure, BiaPlacement::L1d);
            spec.config.spec_window = window;
            verify(&mut g, spec, window > 0);
        }
        g
    }

    fn cells(&self) -> usize {
        self.verify.len() + self.analyze.len() + self.plain.len()
    }
}

/// Runs an untimed warm-up pass of the three engines, then whole passes
/// for `ctx.seconds` (at least one), and checks every verdict. With tracing on, each pass also calls
/// each oracle stage directly per cell inside spans.
pub fn run(ctx: &Ctx, tracer: &Tracer, out: &mut Outcome) -> Result<(E2e, Tally), String> {
    let mut clock = RefClock::new(ctx.nproc);
    let mut setup_cpu = Vec::new();
    let mut grid = None;
    for _ in 0..ctx.setup_reps {
        let (g, cpu, _) = clock.time(|| -> Result<Grid, String> {
            let g = Grid::new(ctx.seed);
            for spec in &g.plain {
                Machine::new(spec.machine_config()).map_err(|e| format!("machine start: {e}"))?;
            }
            Ok(g)
        });
        setup_cpu.push(cpu);
        grid = Some(g?);
    }
    let grid = grid.expect("at least one set-up repetition");
    let setup_s: Vec<f64> = setup_cpu.iter().map(|&c| clock.ref_s(c)).collect();
    clock.next_phase();
    let verifier = VerifyEngine::new().with_threads(ctx.nproc);
    let analyzer = AnalyzeEngine::new().with_threads(ctx.nproc);
    let simulator = SweepEngine::new().with_threads(ctx.nproc);

    let mut walls = Vec::new();
    let mut done = Vec::new();
    let mut plain_walls = Vec::new();
    let mut cpus = Vec::new();
    let mut plain_cpus = Vec::new();
    let mut first = None;
    let mut direct = Tally::default();
    let mut verify_overheads = Vec::new();
    let mut plain_overheads = Vec::new();
    let mut peak_rss = 0.0;
    let mut start = Instant::now();
    let mut pass = 0u64;
    loop {
        // Each engine run is a timed segment; the pass's times leave out
        // the reference measurements between them.
        let (v, a, p, wall, plain_wall, cpu, plain_cpu) =
            tracer.span("bench.pass", 0, pass, |pid| {
                let (v, v_cpu, v_wall) = clock.time(|| {
                    tracer.span("verify.VerifyEngine::run", pid, pass, |_| {
                        verifier.run(&grid.verify)
                    })
                });
                let (a, a_cpu, a_wall) = clock.time(|| {
                    tracer.span("analyze.AnalyzeEngine::run", pid, pass, |_| {
                        analyzer.run(&grid.analyze)
                    })
                });
                let (p, p_cpu, p_wall) = clock.time(|| {
                    tracer.span("harness.SweepEngine::run", pid, pass, |_| {
                        simulator.run(&grid.plain)
                    })
                });
                (
                    v,
                    a,
                    p,
                    v_wall + a_wall + p_wall,
                    p_wall,
                    v_cpu + a_cpu + p_cpu,
                    p_cpu,
                )
            });
        let (v, a, p) = (v?, a?, p?);
        // Pass 0 warms up, untimed, as in the sim workloads.
        if pass == 0 {
            start = Instant::now();
        } else {
            walls.push(wall);
            done.push((start.elapsed().as_secs_f64(), wall * 1e3));
            plain_walls.push(plain_wall);
            cpus.push(cpu);
            plain_cpus.push(plain_cpu);
        }
        for (i, r) in v.iter().enumerate() {
            out.check(r.passed(grid.verify_leaks[i]), || {
                format!(
                    "{}: verdict {} but expected {}",
                    r.label,
                    verdict(r.clean()),
                    leak_word(grid.verify_leaks[i])
                )
            });
        }
        for (i, r) in a.iter().enumerate() {
            out.check(r.passed(grid.analyze_leaks[i]), || {
                format!(
                    "{}: certified={} but expected {}",
                    r.label,
                    r.certified(),
                    leak_word(grid.analyze_leaks[i])
                )
            });
        }
        if tracer.enabled() {
            let (vo, po) = traced_direct(&grid, ctx, tracer, pass, (&v, &a, &p), &mut direct, out);
            verify_overheads.push(vo);
            plain_overheads.push(po);
        }
        match &first {
            None => {
                peak_rss = peak_rss_mb();
                first = Some((v, a, p));
            }
            Some((v0, a0, p0)) => {
                out.check(*v0 == v && *a0 == a && *p0 == p, || {
                    format!("pass {pass}: reports differ from pass 0")
                });
            }
        }
        pass += 1;
        if pass > 1 && start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }
    let (_, _, plain) = first.expect("at least one pass");

    // Plain runs: every strategy of one workload input computes the same
    // output.
    let mut digests: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut all = Tally::default();
    let mut bia = Tally::default();
    let (mut bia_cycles, mut ct_cycles) = (0u64, 0u64);
    for (spec, r) in grid.plain.iter().zip(&plain) {
        digests
            .entry(format!("{:?}", spec.workload))
            .or_default()
            .push(r.digest);
        all.add(&r.counters, 0);
        match spec.strategy {
            StrategySpec::Bia => {
                bia.add(&r.counters, 0);
                bia_cycles += r.counters.cycles;
            }
            StrategySpec::Ct => ct_cycles += r.counters.cycles,
            _ => {}
        }
    }
    for (key, ds) in &digests {
        out.check(ds.iter().all(|d| *d == ds[0]), || {
            format!("{key}: output digest differs across strategies")
        });
    }
    out.record("cells_per_pass", format!("{}", grid.cells()));
    out.record("mem_ops_per_pass", format!("{}", all.mem_ops));
    out.record("passes", format!("{}", walls.len()));
    out.record("oracle_seed_family", format!("{FAMILY}"));
    if tracer.enabled() {
        crate::exec::counter_metrics(out, &all, &bia);
        out.metric(
            "verify.engine_overhead_frac",
            median(&verify_overheads),
            "ratio",
        );
        out.metric(
            "harness.engine_overhead_frac",
            median(&plain_overheads),
            "ratio",
        );
        for (span, name, scale, unit) in [
            ("verify.taint_check", "verify.taint_ms_per_cell", 1e6, "ms"),
            (
                "verify.trace_equivalence",
                "verify.oracle_ms_per_cell",
                1e6,
                "ms",
            ),
            ("analyze.extract", "analyze.extract_ms_per_cell", 1e6, "ms"),
            ("analyze.lint", "analyze.lint_us_per_cell", 1e3, "us"),
            (
                "analyze.interpret",
                "analyze.interpret_ms_per_cell",
                1e6,
                "ms",
            ),
        ] {
            let d = tracer.durations(span);
            out.metric(
                name,
                d.iter().sum::<f64>() / d.len().max(1) as f64 / scale,
                unit,
            );
        }
        let observed = tracer.durations("machine.observed_run").iter().sum::<f64>();
        out.metric(
            "machine.observed_slowdown",
            observed / direct.run_ns as f64,
            "ratio",
        );
        crate::sim::machine_metrics(tracer, out);
    }
    let rates: Vec<f64> = walls.iter().map(|w| 1.0 / w).collect();
    let plain_rates: Vec<f64> = plain_walls.iter().map(|w| 1.0 / w).collect();
    out.record(
        "host_ref_blocks_per_s",
        crate::outcome::num(clock.blocks_per_s()),
    );
    Ok((
        E2e {
            setup_s,
            req_ms: by_second(done, ctx.seconds),
            cells_per_s: grid.cells() as f64 * median(&rates),
            req_per_s: median(&rates),
            mem_ops_per_s: all.mem_ops as f64 * median(&plain_rates),
            cells_per_ref_s: grid.cells() as f64 / clock.ref_s(median(&cpus)),
            mem_ops_per_ref_s: all.mem_ops as f64 / clock.ref_s(median(&plain_cpus)),
            bia_over_ct: bia_cycles as f64 / ct_cycles as f64,
            peak_rss_mb: peak_rss,
        },
        direct,
    ))
}

fn verdict(clean: bool) -> &'static str {
    if clean {
        "clean"
    } else {
        "leak"
    }
}

fn leak_word(leaks: bool) -> &'static str {
    verdict(!leaks)
}

/// One traced pass of direct per-cell calls: taint pass and oracle per
/// verification cell, extract/lint/interpret per analysis cell, and each
/// plain cell with and without observation. Checks the direct results
/// against the engines' and returns the verify and plain engine overheads.
fn traced_direct(
    grid: &Grid,
    ctx: &Ctx,
    tracer: &Tracer,
    pass: u64,
    engines: (&[VerifyReport], &[AnalyzeReport], &[CellReport]),
    direct: &mut Tally,
    out: &mut Outcome,
) -> (f64, f64) {
    let (verified, analyzed, plain) = engines;
    let last = |name: &str| tracer.durations(name).last().copied().unwrap_or(0.0);
    let (verify_wall, plain_wall) = (
        last("verify.VerifyEngine::run"),
        last("harness.SweepEngine::run"),
    );
    let workers = ctx.nproc as f64;
    tracer.span("bench.direct", 0, pass, |pid| {
        let verdicts = par_map(&grid.verify, ctx.nproc, |i, cell| {
            let item = pass * 1000 + i as u64;
            let spec = &cell.spec;
            let t = Instant::now();
            let violations = tracer.span("verify.taint_check", pid, item, |_| {
                let mut m = Machine::new(spec.machine_config()).expect("valid configuration");
                taint_check(&mut m, &spec.workload, spec.strategy.to_strategy());
                m.counters().taint.leak_violations
            });
            let oracle = tracer.span("verify.trace_equivalence", pid, item, |_| {
                trace_equivalence(spec, &cell.seeds)
            });
            (
                violations,
                oracle.map(|o| o.equal).ok(),
                t.elapsed().as_nanos() as f64,
            )
        });
        let mut busy = 0.0;
        for ((violations, equal, ns), r) in verdicts.iter().zip(verified) {
            out.check(
                *violations == r.leak_violations && *equal == Some(r.traces_equal),
                || {
                    format!(
                        "{}: direct taint/oracle calls disagree with VerifyEngine",
                        r.label
                    )
                },
            );
            busy += ns;
        }
        let verify_overhead = 1.0 - busy / (verify_wall * workers);

        let certs = par_map(&grid.analyze, ctx.nproc, |i, cell| {
            let item = pass * 1000 + 500 + i as u64;
            let spec = &cell.spec;
            let config = spec.machine_config();
            let strategy = spec.strategy.to_strategy();
            let program = tracer.span("analyze.extract", pid, item, |_| extract(&spec.workload));
            let violations = tracer.span("analyze.lint", pid, item, |_| {
                lint(&program, &strategy, config.bia_granularity_log2())
            });
            let abs = tracer.span("analyze.interpret", pid, item, |_| {
                interpret(&program, &strategy, &config)
            });
            (violations.len() as u64, abs.trace_millibits)
        });
        for ((violations, millibits), r) in certs.iter().zip(analyzed) {
            out.check(
                *violations == r.violation_count && *millibits == r.trace_millibits,
                || {
                    format!(
                        "{}: direct extract/lint/interpret disagree with AnalyzeEngine",
                        r.label
                    )
                },
            );
        }

        let runs = par_map(&grid.plain, ctx.nproc, |i, spec| {
            let item = pass * 1000 + 800 + i as u64;
            let job = Job::of_spec(spec);
            let ran = run_job(&job, tracer, pid, item);
            // The observed twin reuses the same pooled machine, so both
            // sides of machine.observed_slowdown start from a reset machine.
            run_pooled(&job, tracer, pid, item, "machine.observed_run", |m| {
                m.enable_observation()
            });
            ran
        });
        let mut busy = 0.0;
        for (ran, r) in runs.iter().zip(plain) {
            out.check(ran.digest == r.digest && ran.counters == r.counters, || {
                format!("{}: direct run differs from the sweep engine", r.label)
            });
            direct.add(&ran.counters, ran.run_ns);
            busy += ran.run_ns as f64;
        }
        (verify_overhead, 1.0 - busy / (plain_wall * workers))
    })
}
