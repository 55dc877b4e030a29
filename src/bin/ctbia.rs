//! `ctbia` — command-line front end to the simulator.
//!
//! ```text
//! ctbia config                          # print the simulated system (Table 1)
//! ctbia list                            # list workloads and strategies
//! ctbia run hist 2000 --strategy bia --placement l1d
//! ctbia compare hist 2000               # all strategies side by side
//! ctbia attack [SECRET]                 # Prime+Probe demo
//! ctbia leakage hist 1000               # leakage in bits, per strategy
//! ctbia bench --quick                   # sweep-engine throughput benchmark
//! ```
//!
//! Argument parsing is deliberately hand-rolled (no CLI dependency). The
//! experiment subcommands (`run`, `compare`, `fuzz`, `bench`) are veneers
//! over the [`ctbia::harness`] sweep engine: each describes its work as a
//! grid of [`CellSpec`]s, so results are memoized under `results/cache/`
//! and independent cells simulate in parallel.

use ctbia::analyze::{analyze_grid, AnalyzeCell, AnalyzeEngine, AnalyzeReport};
use ctbia::attacks::{empirical_leakage_bits, set_access_profiles, PrimeProbe};
use ctbia::core::ctmem::Width;
use ctbia::core::ds::DataflowSet;
use ctbia::core::taint::LeakViolation;
use ctbia::harness::{
    counter_fields, execute_cell_traced, Cell, CellReport, CellSpec, CryptoKernel, DiskCache,
    Engine, FaultSpec, StrategySpec, SweepEngine, WorkloadSpec,
};
use ctbia::machine::{BiaPlacement, Machine};
use ctbia::serve::{
    self, submit_with_retry_to, ChaosSpec, Response, RetryPolicy, ServeTarget, ServerConfig,
    SubmitRequest, TenantSpec,
};
use ctbia::sim::fault::{parse_fault_kinds, FaultKind};
use ctbia::sim::hierarchy::Level;
use ctbia::trace::{JsonlSink, MetricsDoc, MetricsSink, Phase, TeeSink};
use ctbia::verify::table::{grid_row, grid_summary};
use ctbia::verify::{verify_grid, verify_seeds, VerifyCell, VerifyEngine, VerifyReport};
use ctbia::workloads::{
    BinarySearch, Dijkstra, HeapPop, Histogram, Permutation, Strategy, Workload,
};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
ctbia — Hardware Support for Constant-Time Programming (MICRO '23), simulated

USAGE:
    ctbia config
    ctbia list
    ctbia run <WORKLOAD> [SIZE] [--strategy insecure|ct|ct-avx2|bia|bia-loads] [--placement l1d|l2|llc] [--spec-window N] [--stats] [--metrics]
    ctbia trace <WORKLOAD> [SIZE] [--strategy insecure|ct|ct-avx2|bia|bia-loads] [--placement l1d|l2|llc] [--spec-window N] [--jsonl PATH] [--top N]
    ctbia compare <WORKLOAD> [SIZE]
    ctbia attack [SECRET]
    ctbia leakage <WORKLOAD> [SIZE]
    ctbia audit <WORKLOAD> [SIZE] [--placement l1d|l2|llc]
    ctbia fuzz [--faults LIST] [--seed N] [--iters K] <WORKLOAD> [SIZE] [--placement l1d|l2|llc]
    ctbia bench [--quick] [--threads N] [--spec-window N] [--metrics]
    ctbia verify [--quick] [--threads N]
    ctbia verify <WORKLOAD> [SIZE] [--strategy insecure|ct|bia|bia-loads] [--placement l1d|l2|llc] [--spec-window N]
    ctbia analyze [--quick] [--threads N]
    ctbia analyze <WORKLOAD> [SIZE] [--strategy insecure|ct|bia|bia-loads] [--placement l1d|l2|llc]
    ctbia serve [--socket PATH] [--tcp ADDR] [--tenant NAME:TOKEN[:INFLIGHT[:SHARE[:WEIGHT]]]]... [--threads N] [--max-inflight M] [--queue-limit Q] [--shards S] [--deadline-ms D] [--chaos SPEC] [--no-cache]
    ctbia submit [--socket PATH] [--tcp ADDR] [--token TOK] [--eval] [--retries N] [--backoff-ms B] [--deadline-ms D] <SPEC>...
    ctbia status [--socket PATH] [--tcp ADDR] [--metrics]
    ctbia health [--socket PATH] [--tcp ADDR]
    ctbia loadgen [--quick] [--seed N] [--out PATH]

WORKLOADS: dijkstra | histogram | permutation | binary-search | heappop
           (plus leaky-bin and spectre, intentionally leaky controls, for `verify`)
FAULTS:    drop | dup | delay | corrupt | flip | storm | interfere (comma-separated)

`ctbia verify` runs the taint sanitizer and the trace-equivalence oracle
over the canonical grid; with a workload argument it verifies one cell
and exits non-zero if the cell leaks. `ctbia analyze` statically
certifies cells without executing any secret: it extracts each
workload's access program symbolically, lints it against the strategy,
and bounds the leakage through an abstract cache — 0 bits certifies,
anything else exits non-zero with the violation's provenance. Completed
experiment, verify, and analyze cells are memoized under results/cache/
(safe to delete at any time);
`ctbia bench` writes BENCH_sweep.json.

`ctbia trace` re-runs one cell with the observability layer attached and
prints a cycle-attribution profile (per-phase cycles reconciled exactly
against the counters) plus the hottest cache lines; `--jsonl` captures
the full event stream. `--metrics` on run/bench writes a versioned
ctbia-metrics-v1 document (RUN_metrics.json / BENCH_metrics.json).
`--spec-window N` enables bounded speculation: every branch runs a
seeded 2-bit predictor, and a misprediction executes up to N wrong-path
accesses that fill the simulated caches before being squashed
architecturally (a Spectre-v1 transient channel; N=0, the default,
disables it). The `spectre` workload is an in-bounds/out-of-bounds
gadget whose architectural trace is secret-independent, so it passes
`verify` at window 0 and leaks through wrong-path fills at window > 0.

`ctbia serve` runs a long-lived batch-simulation daemon on a Unix domain
socket (newline-delimited ctbia-serve-v1 JSON envelopes) sharing one job
queue and the results/cache memo table across all clients, with
duplicate-cell coalescing and graceful drain on SIGTERM. Jobs execute
under panic isolation with poisoned workers respawned; --deadline-ms
bounds each job (per-submit --deadline-ms overrides it); --queue-limit
sheds load past the high-water mark with a typed `overloaded` error;
the memo cache self-heals from torn writes at startup; and --chaos
injects seeded faults (e.g. panic:2,stall:1,torn:1,io:1,stall-ms:500,
seed:42) for crash drills. --tcp adds a TCP listener speaking the same
envelopes (probe-then-reclaim binding: a dead daemon's TIME_WAIT port
is reclaimed, a live daemon's refused); --tenant (repeatable) switches
on auth — every submit then needs a matching token — with per-tenant
in-flight quotas, queue shares, and deficit-round-robin weights;
--shards sizes the in-memory memo index layered over the disk cache
(0 disables it). `ctbia submit` sends cells — SPEC is
WORKLOAD[:SIZE[:STRATEGY[:PLACEMENT]]], e.g. hist:2000:bia:l1d or
aes:-:insecure — retrying transient rejections when --retries is set
(exponential backoff from --backoff-ms); --tcp targets a TCP daemon and
--token authenticates against a tenanted one. `ctbia status [--metrics]`
queries counters (writing SERVE_metrics.json with --metrics) and
`ctbia health` the supervision snapshot (queue depth, workers alive,
restarts, deadline kills, shed submits, quarantined cache entries).
`ctbia loadgen` drives a seeded zipfian workload from concurrent
connections through cold and warm, single- and multi-tenant, UDS and
TCP phases, writing per-phase p50/p95/p99 and throughput to
BENCH_serve.json and appending the headline numbers to
BENCH_history.jsonl; the same --seed replays the identical schedule
(--quick for the CI-sized run).
";

/// Where `ctbia serve` listens unless `--socket` overrides it.
const DEFAULT_SOCKET: &str = "results/ctbia.sock";

fn make_workload(name: &str, size: usize) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "dijkstra" | "dij" => Box::new(Dijkstra::new(size.min(256))),
        "histogram" | "hist" => Box::new(Histogram::new(size)),
        "permutation" | "perm" => Box::new(Permutation::new(size)),
        "binary-search" | "bin" => Box::new(BinarySearch::new(size)),
        "heappop" | "heap" => Box::new(HeapPop::new(size)),
        other => return Err(format!("unknown workload '{other}' (try `ctbia list`)")),
    })
}

fn default_size(name: &str) -> usize {
    match name {
        "dijkstra" | "dij" => 64,
        _ => 2000,
    }
}

fn parse_placement(s: &str) -> Result<BiaPlacement, String> {
    Ok(match s {
        "l1d" => BiaPlacement::L1d,
        "l2" => BiaPlacement::L2,
        "llc" => BiaPlacement::Llc,
        other => return Err(format!("unknown placement '{other}' (l1d, l2 or llc)")),
    })
}

fn parse_spec_window(s: &str) -> Result<u32, String> {
    s.parse()
        .map_err(|_| format!("invalid --spec-window '{s}' (expected a non-negative integer)"))
}

fn parse_size(s: &str) -> Result<usize, String> {
    let n: usize = s
        .parse()
        .map_err(|_| format!("invalid size '{s}' (expected a positive integer)"))?;
    if n == 0 {
        return Err(format!("invalid size '{s}' (must be at least 1)"));
    }
    Ok(n)
}

/// Attaches the default `results/cache/` memo cache; if the directory
/// cannot be created (read-only checkout, say) the engine simply runs
/// uncached.
fn attach_default_cache<C: Cell>(engine: Engine<C>) -> Engine<C> {
    match DiskCache::open_default() {
        Ok(cache) => engine.with_cache(cache),
        Err(_) => engine,
    }
}

fn print_report(label: &str, report: &CellReport, baseline: Option<u64>) {
    let rel = baseline
        .map(|b| format!("  ({:.2}x)", report.counters.cycles as f64 / b as f64))
        .unwrap_or_default();
    println!(
        "{label:<10} {:>12} cycles  {:>11} insts  {:>10} L1d refs  {:>7} DRAM{rel}",
        report.counters.cycles,
        report.counters.insts,
        report.counters.l1d_refs(),
        report.counters.dram_accesses(),
    );
}

/// Serializes `doc`, verifies the writer/parser round-trip byte-for-byte,
/// then writes `path`. A round-trip failure is a bug, not an I/O problem.
fn write_metrics_doc(path: &str, doc: &MetricsDoc) -> Result<(), String> {
    let json = doc.to_json();
    let parsed = MetricsDoc::parse(&json)
        .map_err(|e| format!("{path}: metrics round-trip self-check failed: {e}"))?;
    if parsed.to_json() != json {
        return Err(format!("{path}: metrics round-trip is not byte-identical"));
    }
    std::fs::write(path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!(
        "wrote {path} ({} fields, round-trip verified)",
        doc.fields.len()
    );
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("run: missing workload name")?;
    let mut size = None;
    let mut strategy = StrategySpec::Bia;
    let mut placement = BiaPlacement::L1d;
    let mut stats = false;
    let mut metrics = false;
    let mut spec_window = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--stats" => stats = true,
            "--metrics" => metrics = true,
            "--strategy" => {
                i += 1;
                strategy = StrategySpec::parse(args.get(i).ok_or("--strategy needs a value")?)?;
            }
            "--placement" => {
                i += 1;
                placement = parse_placement(args.get(i).ok_or("--placement needs a value")?)?;
            }
            "--spec-window" => {
                i += 1;
                spec_window = Some(parse_spec_window(
                    args.get(i).ok_or("--spec-window needs a value")?,
                )?);
            }
            v if size.is_none() && !v.starts_with('-') => size = Some(parse_size(v)?),
            other => return Err(format!("unexpected argument '{other}'")),
        }
        i += 1;
    }
    let size = size.unwrap_or_else(|| default_size(name));
    let mut spec = CellSpec::new(WorkloadSpec::named(name, size)?, strategy, placement);
    if let Some(w) = spec_window {
        spec.config.spec_window = w;
    }
    let engine = attach_default_cache(SweepEngine::serial());
    let report = engine.run_cell(&spec)?;
    println!(
        "{} under {strategy} (BIA at {placement}):",
        spec.workload.name()
    );
    print_report(&strategy.to_string(), &report, None);
    if engine.cache_hits() > 0 {
        println!("(served from results/cache — delete the entry to re-simulate)");
    }
    if stats {
        println!("\n{}", ctbia::machine::format_report(&report.counters));
    }
    if metrics {
        let mut doc = MetricsDoc::new(&report.label);
        doc.push("digest", report.digest);
        for (key, value) in counter_fields(&report.counters) {
            doc.push(key, value);
        }
        write_metrics_doc("RUN_metrics.json", &doc)?;
    }
    Ok(())
}

/// `ctbia trace <WORKLOAD> [SIZE] [--jsonl PATH] [--top N]` — re-run one
/// cell with a tee of a JSONL capture and a metrics aggregator attached,
/// then print the cycle-attribution profile and hottest cache lines.
fn cmd_trace(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("trace: missing workload name")?;
    let mut size = None;
    let mut strategy = StrategySpec::Bia;
    let mut placement = BiaPlacement::L1d;
    let mut jsonl_path: Option<String> = None;
    let mut top = 5usize;
    let mut spec_window = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--strategy" => {
                i += 1;
                strategy = StrategySpec::parse(args.get(i).ok_or("--strategy needs a value")?)?;
            }
            "--placement" => {
                i += 1;
                placement = parse_placement(args.get(i).ok_or("--placement needs a value")?)?;
            }
            "--spec-window" => {
                i += 1;
                spec_window = Some(parse_spec_window(
                    args.get(i).ok_or("--spec-window needs a value")?,
                )?);
            }
            "--jsonl" => {
                i += 1;
                jsonl_path = Some(args.get(i).ok_or("--jsonl needs a path")?.clone());
            }
            "--top" => {
                i += 1;
                let s = args.get(i).ok_or("--top needs a value")?;
                top =
                    s.parse().ok().filter(|&n| n > 0).ok_or_else(|| {
                        format!("invalid --top '{s}' (expected a positive integer)")
                    })?;
            }
            v if size.is_none() && !v.starts_with('-') => size = Some(parse_size(v)?),
            other => return Err(format!("unexpected argument '{other}'")),
        }
        i += 1;
    }
    let size = size.unwrap_or_else(|| default_size(name));
    let mut spec = CellSpec::new(WorkloadSpec::named(name, size)?, strategy, placement);
    if let Some(w) = spec_window {
        spec.config.spec_window = w;
    }
    let sink = TeeSink::new(JsonlSink::new(), MetricsSink::new());
    let (report, sink) = execute_cell_traced(&spec, sink)?;
    let (jsonl, agg) = (sink.a, sink.b);
    let c = &report.counters;
    println!(
        "trace of {} ({} events, {} cycles):",
        report.label, agg.events, c.cycles
    );
    println!("  {:<18} {:>12}   {:>6}", "phase", "cycles", "share");
    for phase in Phase::ALL {
        let cycles = c.phases.get(phase);
        if cycles == 0 {
            continue;
        }
        println!(
            "  {:<18} {:>12}   {:>5.1}%",
            phase.name(),
            cycles,
            100.0 * cycles as f64 / c.cycles.max(1) as f64
        );
    }
    let total = c.phases.total();
    println!("  {:<18} {:>12}   {:>5.1}%", "total", total, 100.0);
    if total != c.cycles {
        return Err(format!(
            "phase totals ({total}) do not sum to cycles ({}) — attribution bug",
            c.cycles
        ));
    }
    if !c.linearize.is_zero() {
        println!("linearize: {}", c.linearize);
    }
    let hottest = agg.hottest_lines(top);
    if !hottest.is_empty() {
        println!(
            "hottest lines (top {} of {} distinct):",
            hottest.len(),
            agg.distinct_lines()
        );
        for (line, count) in hottest {
            println!("  line {line:#x}: {count} accesses");
        }
    }
    if let Some(path) = jsonl_path {
        std::fs::write(&path, jsonl.as_str()).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path} ({} events)", jsonl.lines());
    }
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("compare: missing workload name")?;
    let size = match args.get(1) {
        Some(s) => parse_size(s)?,
        None => default_size(name),
    };
    let workload = WorkloadSpec::named(name, size)?;
    let lineup = [
        ("insecure", StrategySpec::Insecure, BiaPlacement::L1d),
        ("CT", StrategySpec::CtAvx2, BiaPlacement::L1d),
        ("BIA@L1d", StrategySpec::Bia, BiaPlacement::L1d),
        ("BIA@L2", StrategySpec::Bia, BiaPlacement::L2),
        ("BIA@LLC", StrategySpec::Bia, BiaPlacement::Llc),
    ];
    let grid: Vec<CellSpec> = lineup
        .iter()
        .map(|&(_, strategy, placement)| CellSpec::new(workload, strategy, placement))
        .collect();
    let engine = attach_default_cache(SweepEngine::new());
    let reports = engine.run(&grid)?;
    println!("{}:", workload.name());
    let base_cycles = reports[0].counters.cycles;
    let base_digest = reports[0].digest;
    for ((label, _, _), report) in lineup.iter().zip(&reports) {
        if report.digest != base_digest {
            return Err(format!("{label} produced a different result — bug"));
        }
        print_report(label, report, Some(base_cycles));
    }
    Ok(())
}

fn cmd_attack(args: &[String]) -> Result<(), String> {
    let secret: u64 = args.first().and_then(|s| s.parse().ok()).unwrap_or(421);
    if secret >= 1024 {
        return Err("secret must be < 1024 (4 KiB table of u32)".into());
    }
    println!("victim: one read of table[{secret}] (4 KiB table)\n");
    let run = |strategy: Strategy, bia: bool| {
        let mut m = if bia {
            Machine::with_bia(BiaPlacement::L1d)
        } else {
            Machine::insecure()
        };
        let table = m.alloc(4096, 4096).unwrap();
        let ds = DataflowSet::contiguous(table, 4096);
        let truth = m
            .hierarchy()
            .cache(Level::L1d)
            .set_index(table.offset(secret * 4).line());
        let pp = PrimeProbe::new(&mut m, Level::L1d).unwrap();
        let lat = pp.round(&mut m, |m| {
            let _ = strategy.load(m, &ds, table.offset(secret * 4), Width::U32);
        });
        (PrimeProbe::hottest_set(&lat), truth)
    };
    let (guess, truth) = run(Strategy::Insecure, false);
    println!(
        "insecure victim: true set {truth}, attacker guesses {guess} -> {}",
        if guess == truth {
            "RECOVERED"
        } else {
            "missed"
        }
    );
    let (guess, truth) = run(Strategy::bia(), true);
    println!(
        "BIA victim:      true set {truth}, attacker guesses {guess} -> {}",
        if guess == truth {
            "coincidence at best"
        } else {
            "defeated"
        }
    );
    Ok(())
}

fn cmd_leakage(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("leakage: missing workload name")?;
    let size = match args.get(1) {
        Some(s) => parse_size(s)?,
        None => 500,
    };
    make_workload(name, size)?; // validate the name up front
    let secrets: Vec<u64> = (0..8).map(|i| 1 + i * 97).collect();
    println!(
        "empirical leakage of {name}_{size} over {} random secrets:",
        secrets.len()
    );
    for (label, strategy, bia) in [
        ("insecure", Strategy::Insecure, false),
        ("CT", Strategy::software_ct(), false),
        ("BIA@L1d", Strategy::bia(), true),
    ] {
        let profiles = set_access_profiles(
            || {
                if bia {
                    Machine::with_bia(BiaPlacement::L1d)
                } else {
                    Machine::insecure()
                }
            },
            |m, seed| {
                let _ = make_seeded(name, size, seed).run(m, strategy);
            },
            &secrets,
            Level::L1d,
        );
        println!(
            "  {label:<10} {:>6.3} bits (of {:.0} max)",
            empirical_leakage_bits(&profiles),
            (secrets.len() as f64).log2()
        );
    }
    Ok(())
}

/// `ctbia audit <WORKLOAD> [SIZE] [--placement ..]` — run the workload
/// under the BIA strategy with the shadow auditor enabled and report
/// whether the BIA ever diverged from ground truth.
fn cmd_audit(args: &[String]) -> Result<(), String> {
    let mut name = None;
    let mut size = None;
    let mut placement = BiaPlacement::L1d;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--placement" => {
                i += 1;
                placement = parse_placement(args.get(i).ok_or("--placement needs a value")?)?;
            }
            v if name.is_none() && !v.starts_with('-') => name = Some(v.to_string()),
            v if size.is_none() && !v.starts_with('-') => size = Some(parse_size(v)?),
            other => return Err(format!("unexpected argument '{other}'")),
        }
        i += 1;
    }
    let name = name.ok_or("audit: missing workload name")?;
    let size = size.unwrap_or_else(|| default_size(&name));
    let wl = make_workload(&name, size)?;
    let reference = wl.run(&mut Machine::insecure(), Strategy::Insecure);
    let mut m = Machine::with_bia(placement);
    m.enable_audit().map_err(|e| e.to_string())?;
    let run = wl.run(&mut m, Strategy::bia());
    let robust = m.counters().robust;
    println!(
        "audit of {} under BIA@{placement}: {} batches, {} violations, {} inline desyncs, {} downgrades",
        wl.name(),
        robust.audit_batches,
        robust.audit_violations,
        robust.inline_desyncs,
        robust.downgrades
    );
    for v in m
        .auditor()
        .expect("audit enabled")
        .violations()
        .iter()
        .take(5)
    {
        println!("  {v}");
    }
    if run.digest != reference.digest {
        return Err("audited run produced a different result — bug".into());
    }
    if robust.audit_violations > 0 {
        return Err(format!(
            "{} violation(s) detected on a fault-free run — BIA desync bug",
            robust.audit_violations
        ));
    }
    println!("clean: BIA matched ground truth on every drained batch");
    Ok(())
}

/// `ctbia fuzz [--faults LIST] [--seed N] [--iters K] <WORKLOAD> [SIZE]` —
/// repeatedly run the workload while a seeded injector sabotages the BIA,
/// checking that graceful degradation keeps every result bit-correct.
///
/// Every iteration is an independent cell carrying its own fault seed, so
/// the whole campaign runs on the parallel sweep engine and stays
/// reproducible under any worker schedule. No cache is attached: fuzzing
/// is about exercising the injector, not replaying old runs.
fn cmd_fuzz(args: &[String]) -> Result<(), String> {
    let mut faults = vec![FaultKind::Drop, FaultKind::Dup, FaultKind::Flip];
    let mut seed = 7u64;
    let mut iters = 25u64;
    let mut placement = BiaPlacement::L1d;
    let mut name = None;
    let mut size = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--faults" => {
                i += 1;
                faults = parse_fault_kinds(args.get(i).ok_or("--faults needs a value")?)?;
            }
            "--seed" => {
                i += 1;
                let s = args.get(i).ok_or("--seed needs a value")?;
                seed = s.parse().map_err(|_| format!("invalid seed '{s}'"))?;
            }
            "--iters" => {
                i += 1;
                let s = args.get(i).ok_or("--iters needs a value")?;
                iters = s
                    .parse()
                    .ok()
                    .filter(|&k| k > 0)
                    .ok_or_else(|| format!("invalid iteration count '{s}'"))?;
            }
            "--placement" => {
                i += 1;
                placement = parse_placement(args.get(i).ok_or("--placement needs a value")?)?;
            }
            v if name.is_none() && !v.starts_with('-') => name = Some(v.to_string()),
            v if size.is_none() && !v.starts_with('-') => size = Some(parse_size(v)?),
            other => return Err(format!("unexpected argument '{other}'")),
        }
        i += 1;
    }
    let name = name.ok_or("fuzz: missing workload name")?;
    let size = size.unwrap_or_else(|| default_size(&name));
    let workload = WorkloadSpec::named(&name, size)?;
    let fault_list = faults
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "fuzzing {} under BIA@{placement}: faults [{fault_list}], seed {seed}, {iters} iters",
        workload.name()
    );
    let iter_seed = |iter: u64| seed ^ iter.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    // Cell 0 is the fault-free insecure reference; cells 1..=iters each
    // carry a distinct but reproducible fault schedule.
    let mut grid = vec![CellSpec::new(workload, StrategySpec::Insecure, placement)];
    for iter in 0..iters {
        let mut cell = CellSpec::new(workload, StrategySpec::Bia, placement);
        cell.audit = true;
        cell.faults = Some(FaultSpec {
            kinds: faults.clone(),
            seed: iter_seed(iter),
            rate_ppm: 100_000,      // 10% of events faulted
            batch_rate_ppm: 50_000, // 5% of batches structurally faulted
        });
        grid.push(cell);
    }
    let reports = SweepEngine::new().run(&grid)?;
    let reference = reports[0].digest;
    let (mut faults_total, mut violations, mut inline, mut downgrades, mut resyncs) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut mismatches = 0u64;
    for (iter, report) in reports[1..].iter().enumerate() {
        let r = report.counters.robust;
        faults_total += r.faults_injected;
        violations += r.audit_violations;
        inline += r.inline_desyncs;
        downgrades += r.downgrades;
        resyncs += r.resyncs;
        if report.digest != reference {
            mismatches += 1;
            println!(
                "  iter {iter}: INCORRECT RESULT (seed {:#x})",
                iter_seed(iter as u64)
            );
        }
    }
    println!(
        "injected {faults_total} faults: {violations} audit violations, {inline} inline desyncs, \
         {downgrades} downgrades, {resyncs} resyncs"
    );
    if mismatches > 0 {
        return Err(format!(
            "{mismatches}/{iters} iterations produced incorrect results"
        ));
    }
    println!("all {iters} iterations bit-correct: every desync was caught or absorbed");
    Ok(())
}

/// The `ctbia bench` grid: the five Ghostrider workloads under four
/// strategies plus the eight Figure 9 crypto kernels under three, all with
/// the figure-harness (`o3_approx`) configuration.
fn bench_grid(quick: bool) -> Vec<CellSpec> {
    let sizes: &[(&str, usize)] = if quick {
        &[
            ("dijkstra", 16),
            ("histogram", 400),
            ("permutation", 400),
            ("binary-search", 600),
            ("heappop", 600),
        ]
    } else {
        &[
            ("dijkstra", 64),
            ("histogram", 2000),
            ("permutation", 2000),
            ("binary-search", 4000),
            ("heappop", 4000),
        ]
    };
    let mut grid = Vec::new();
    for &(name, size) in sizes {
        let workload = WorkloadSpec::named(name, size).expect("built-in workload name");
        for (strategy, placement) in [
            (StrategySpec::Insecure, BiaPlacement::L1d),
            (StrategySpec::CtAvx2, BiaPlacement::L1d),
            (StrategySpec::Bia, BiaPlacement::L1d),
            (StrategySpec::Bia, BiaPlacement::L2),
        ] {
            grid.push(CellSpec::new(workload, strategy, placement).with_eval_config());
        }
    }
    for kernel in CryptoKernel::ALL {
        for (strategy, placement) in [
            (StrategySpec::Insecure, BiaPlacement::L1d),
            (StrategySpec::CtAvx2, BiaPlacement::L1d),
            (StrategySpec::Bia, BiaPlacement::L1d),
        ] {
            grid.push(
                CellSpec::new(WorkloadSpec::Crypto(kernel), strategy, placement).with_eval_config(),
            );
        }
    }
    grid
}

/// Work simulated by one cell, in memory-system events: retired
/// instructions plus every cache- and DRAM-level access.
fn simulated_accesses(report: &CellReport) -> u64 {
    let c = &report.counters;
    c.insts
        + c.hier.l1i.accesses()
        + c.hier.l1d.accesses()
        + c.hier.l2.accesses()
        + c.hier.llc.accesses()
        + c.dram_accesses()
}

/// One phase object of `BENCH_sweep.json`, on a single line so shell
/// tooling can grep it. Phases that simulate nothing (the warm phase
/// serves everything from cache) pass `None` and the misleading
/// `sim_accesses_per_sec` key is omitted rather than reported as 0.
fn phase_json(
    wall_s: f64,
    cells: usize,
    sim_accesses: Option<u64>,
    executed: u64,
    hits: u64,
) -> String {
    let wall = wall_s.max(1e-9);
    let access_rate = sim_accesses
        .map(|a| format!("\"sim_accesses_per_sec\": {:.0}, ", a as f64 / wall))
        .unwrap_or_default();
    format!(
        "{{ \"wall_ms\": {:.3}, \"cells_per_sec\": {:.2}, {access_rate}\
         \"executed\": {executed}, \"cache_hits\": {hits} }}",
        wall_s * 1000.0,
        cells as f64 / wall,
    )
}

/// One `BENCH_history.jsonl` line: the durable per-run record that makes
/// throughput visible *across* runs, where `BENCH_sweep.json` only holds
/// the latest. Schema-versioned and single-line by construction so the
/// file stays grep- and jq-friendly forever.
#[allow(clippy::too_many_arguments)]
fn history_line(
    unix_time: u64,
    git_rev: &str,
    quick: bool,
    threads: usize,
    cells: usize,
    sim_accesses: u64,
    serial_rate: f64,
    parallel_rate: f64,
    byte_identical: bool,
) -> String {
    format!(
        "{{\"schema\": \"ctbia-bench-history-v1\", \"unix_time\": {unix_time}, \
         \"git_rev\": \"{git_rev}\", \"quick\": {quick}, \"threads\": {threads}, \
         \"cells\": {cells}, \"sim_accesses\": {sim_accesses}, \
         \"serial_sim_accesses_per_sec\": {serial_rate:.0}, \
         \"parallel_sim_accesses_per_sec\": {parallel_rate:.0}, \
         \"byte_identical\": {byte_identical}}}\n"
    )
}

/// The working tree's commit, or `"unknown"` outside a git checkout.
fn current_git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `ctbia bench [--quick] [--threads N]` — measure sweep-engine throughput
/// over the full benchmark grid, three ways: serial, parallel, and
/// parallel over a warm cache. Writes `BENCH_sweep.json` and appends the
/// run to the `BENCH_history.jsonl` trajectory.
fn cmd_bench(args: &[String]) -> Result<(), String> {
    let mut quick = false;
    let mut metrics = false;
    let mut threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cores = threads;
    let mut spec_window = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--metrics" => metrics = true,
            "--threads" => {
                i += 1;
                let s = args.get(i).ok_or("--threads needs a value")?;
                threads = s
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("invalid thread count '{s}'"))?;
            }
            "--spec-window" => {
                i += 1;
                spec_window = Some(parse_spec_window(
                    args.get(i).ok_or("--spec-window needs a value")?,
                )?);
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
        i += 1;
    }
    let mut grid = bench_grid(quick);
    if let Some(w) = spec_window {
        // Sweep the whole grid under bounded speculation. The digests
        // change with the window, so memoized window-0 results are not
        // disturbed.
        for cell in &mut grid {
            cell.config.spec_window = w;
        }
    }
    let grid = grid;
    let n = grid.len();
    println!(
        "bench sweep: {n} cells (5 Ghostrider x 4 strategies + 8 crypto x 3), \
         o3_approx cost model, {threads} worker(s) on {cores} core(s)"
    );

    // Phase 1: serial, uncached — the reference for both time and bytes.
    let serial_engine = SweepEngine::serial();
    let t = Instant::now();
    let serial = serial_engine.run(&grid)?;
    let serial_s = t.elapsed().as_secs_f64();

    // Phase 2: parallel, uncached.
    let parallel_engine = SweepEngine::new().with_threads(threads);
    let t = Instant::now();
    let parallel = parallel_engine.run(&grid)?;
    let parallel_s = t.elapsed().as_secs_f64();

    // Phase 3: parallel over a warm cache. The cache is primed from the
    // phase-2 reports, so this phase must not simulate a single cell.
    let cache = DiskCache::open_default().map_err(|e| format!("cannot open results/cache: {e}"))?;
    for (spec, report) in grid.iter().zip(&parallel) {
        cache
            .store(&spec.digest_hex(), report)
            .map_err(|e| format!("cannot prime cache: {e}"))?;
    }
    let warm_engine = SweepEngine::new().with_threads(threads).with_cache(cache);
    let t = Instant::now();
    let warm = warm_engine.run(&grid)?;
    let warm_s = t.elapsed().as_secs_f64();

    let byte_identical = serial.iter().zip(&parallel).zip(&warm).all(|((s, p), w)| {
        let bytes = s.to_cache_text();
        bytes == p.to_cache_text() && bytes == w.to_cache_text()
    });
    let sim_accesses: u64 = serial.iter().map(simulated_accesses).sum();
    let speedup_parallel = serial_s / parallel_s.max(1e-9);
    let speedup_warm = serial_s / warm_s.max(1e-9);

    println!(
        "  serial    {:>9.1} ms  {:>8.2} cells/s  {:>12.0} sim accesses/s",
        serial_s * 1000.0,
        n as f64 / serial_s.max(1e-9),
        sim_accesses as f64 / serial_s.max(1e-9),
    );
    println!(
        "  parallel  {:>9.1} ms  {:>8.2} cells/s  {:>12.0} sim accesses/s  ({speedup_parallel:.2}x)",
        parallel_s * 1000.0,
        n as f64 / parallel_s.max(1e-9),
        sim_accesses as f64 / parallel_s.max(1e-9),
    );
    println!(
        "  warm      {:>9.1} ms  {:>8.2} cells/s  ({} simulated, {} from results/cache, {speedup_warm:.0}x)",
        warm_s * 1000.0,
        n as f64 / warm_s.max(1e-9),
        warm_engine.cells_executed(),
        warm_engine.cache_hits(),
    );
    println!(
        "  byte-identical across all three phases: {}",
        if byte_identical { "yes" } else { "NO — BUG" }
    );

    let json = format!(
        "{{\n  \"schema\": \"ctbia-bench-sweep-v1\",\n  \"quick\": {quick},\n  \
         \"threads\": {threads},\n  \"available_cores\": {cores},\n  \"cells\": {n},\n  \
         \"sim_accesses\": {sim_accesses},\n  \"byte_identical\": {byte_identical},\n  \
         \"serial\": {},\n  \"parallel\": {},\n  \"warm\": {},\n  \
         \"speedup\": {{ \"parallel_over_serial\": {speedup_parallel:.3}, \
         \"warm_over_serial\": {speedup_warm:.3} }}\n}}\n",
        phase_json(
            serial_s,
            n,
            Some(sim_accesses),
            serial_engine.cells_executed(),
            0
        ),
        phase_json(
            parallel_s,
            n,
            Some(sim_accesses),
            parallel_engine.cells_executed(),
            0
        ),
        phase_json(
            warm_s,
            n,
            None,
            warm_engine.cells_executed(),
            warm_engine.cache_hits()
        ),
    );
    std::fs::write("BENCH_sweep.json", &json)
        .map_err(|e| format!("cannot write BENCH_sweep.json: {e}"))?;
    println!("wrote BENCH_sweep.json");
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let line = history_line(
        unix_time,
        &current_git_rev(),
        quick,
        threads,
        n,
        sim_accesses,
        sim_accesses as f64 / serial_s.max(1e-9),
        sim_accesses as f64 / parallel_s.max(1e-9),
        byte_identical,
    );
    use std::io::Write as _;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open("BENCH_history.jsonl")
        .and_then(|mut f| f.write_all(line.as_bytes()))
        .map_err(|e| format!("cannot append BENCH_history.jsonl: {e}"))?;
    println!("appended BENCH_history.jsonl");
    if metrics {
        let mut doc = MetricsDoc::new(if quick {
            "bench_sweep/quick"
        } else {
            "bench_sweep/full"
        });
        doc.push("cells", n as u64);
        doc.push("sim_accesses", sim_accesses);
        // Sum every counter over the serial (reference) reports, keeping
        // the canonical field order.
        let mut sums: Vec<(&'static str, u64)> = Vec::new();
        for report in &serial {
            let fields = counter_fields(&report.counters);
            if sums.is_empty() {
                sums = fields;
            } else {
                for (acc, field) in sums.iter_mut().zip(fields) {
                    acc.1 += field.1;
                }
            }
        }
        for (key, value) in sums {
            doc.push(key, value);
        }
        write_metrics_doc("BENCH_metrics.json", &doc)?;
    }
    if !byte_identical {
        return Err("parallel or cached reports differ from serial — determinism bug".into());
    }
    if warm_engine.cells_executed() != 0 {
        return Err(format!(
            "warm phase re-simulated {} cell(s) — memoization bug",
            warm_engine.cells_executed()
        ));
    }
    Ok(())
}

/// Prints the first stored violations of a verdict, then how many of the
/// `total` found are not shown.
fn print_violations(violations: &[LeakViolation], total: u64) {
    for v in violations.iter().take(3) {
        // LeakViolation's Display already renders the provenance chain.
        println!("    {v}");
    }
    let stored = violations.len() as u64;
    if total > stored {
        println!("    ... and {} more violation(s)", total - stored);
    }
}

/// Prints one verify verdict with its evidence: sampled violations with
/// their provenance chains, and the first trace divergence.
fn print_verify_evidence(report: &VerifyReport) {
    print_violations(&report.violations, report.leak_violations);
    if let Some(d) = &report.first_divergence {
        println!("    trace divergence: {d}");
    }
}

/// `ctbia verify [--quick] [--threads N]` — run both analyses over the
/// canonical grid; or `ctbia verify <WORKLOAD> [SIZE] [--strategy ..]
/// [--placement ..]` — verify a single cell, exiting non-zero if it
/// leaks.
fn cmd_verify(args: &[String]) -> Result<(), String> {
    let mut quick = false;
    let mut threads = None;
    let mut name = None;
    let mut size = None;
    let mut strategy = StrategySpec::Ct;
    let mut placement = BiaPlacement::L1d;
    let mut spec_window = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--threads" => {
                i += 1;
                let s = args.get(i).ok_or("--threads needs a value")?;
                threads = Some(
                    s.parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("invalid thread count '{s}'"))?,
                );
            }
            "--strategy" => {
                i += 1;
                strategy = StrategySpec::parse(args.get(i).ok_or("--strategy needs a value")?)?;
            }
            "--placement" => {
                i += 1;
                placement = parse_placement(args.get(i).ok_or("--placement needs a value")?)?;
            }
            "--spec-window" => {
                i += 1;
                spec_window = Some(parse_spec_window(
                    args.get(i).ok_or("--spec-window needs a value")?,
                )?);
            }
            v if name.is_none() && !v.starts_with('-') => name = Some(v.to_string()),
            v if size.is_none() && !v.starts_with('-') => size = Some(parse_size(v)?),
            other => return Err(format!("unexpected argument '{other}'")),
        }
        i += 1;
    }
    if spec_window.is_some() && name.is_none() {
        return Err("--spec-window needs a workload (the grid fixes its own windows)".into());
    }

    if let Some(name) = name {
        // Single-target mode: verify one cell and report what it does.
        let size = size.unwrap_or_else(|| default_size(&name).min(500));
        let mut spec = CellSpec::new(WorkloadSpec::named(&name, size)?, strategy, placement);
        if let Some(w) = spec_window {
            spec.config.spec_window = w;
        }
        let cell = VerifyCell::new(spec, verify_seeds(quick));
        let engine = attach_default_cache(VerifyEngine::serial());
        let report = engine.run_cell(&cell)?;
        println!("{report}");
        if !report.clean() {
            print_verify_evidence(&report);
            return Err(format!("{} leaks", cell.label()));
        }
        println!("clean: no taint violations, traces identical across all secret pairs");
        return Ok(());
    }

    // Grid mode: the canonical coverage grid, leaky control included.
    let grid = verify_grid(quick);
    let seeds = verify_seeds(quick);
    let mut engine = VerifyEngine::new();
    if let Some(n) = threads {
        engine = engine.with_threads(n);
    }
    let engine = attach_default_cache(engine);
    println!(
        "verify sweep: {} cells, {} secret pairs each, {} worker(s)",
        grid.len(),
        seeds.len() - 1,
        engine.threads()
    );
    let reports = engine.run(&grid)?;
    let mut failures = 0u64;
    for (cell, report) in grid.iter().zip(&reports) {
        let expect_leak = cell.expects_leak();
        let ok = report.passed(expect_leak);
        let verdict = match (ok, expect_leak) {
            (true, false) => "ok",
            (true, true) => "ok (leak caught, as intended)",
            (false, _) => "FAIL",
        };
        println!("{}", grid_row(&report.label, verdict));
        if expect_leak && ok {
            // Show the negative control's evidence: this is what a
            // caught leak looks like.
            print_verify_evidence(report);
        }
        if !ok {
            print_verify_evidence(report);
            failures += 1;
        }
    }
    println!(
        "{}",
        grid_summary(
            grid.len(),
            "verified",
            engine.cells_executed(),
            engine.cache_hits(),
            failures,
        )
    );
    if failures > 0 {
        return Err(format!("{failures} cell(s) failed verification"));
    }
    Ok(())
}

/// Prints one certification verdict's evidence: sampled violations with
/// their provenance chains and the abstract leakage bound.
fn print_analyze_evidence(report: &AnalyzeReport) {
    print_violations(&report.violations, report.violation_count);
    if report.trace_millibits > 0 {
        println!(
            "    abstract bound: <= {}.{:03} bit(s) through the monitored cache",
            report.trace_millibits / 1000,
            report.trace_millibits % 1000
        );
    }
}

/// `ctbia analyze [--quick] [--threads N]` — statically certify the
/// canonical grid; or `ctbia analyze <WORKLOAD> [SIZE] [--strategy ..]
/// [--placement ..]` — certify a single cell, exiting non-zero unless
/// the abstract bound is exactly 0 bits with no lint violations.
fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let mut quick = false;
    let mut threads = None;
    let mut name = None;
    let mut size = None;
    let mut strategy = StrategySpec::Ct;
    let mut placement = BiaPlacement::L1d;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--threads" => {
                i += 1;
                let s = args.get(i).ok_or("--threads needs a value")?;
                threads = Some(
                    s.parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("invalid thread count '{s}'"))?,
                );
            }
            "--strategy" => {
                i += 1;
                strategy = StrategySpec::parse(args.get(i).ok_or("--strategy needs a value")?)?;
            }
            "--placement" => {
                i += 1;
                placement = parse_placement(args.get(i).ok_or("--placement needs a value")?)?;
            }
            v if name.is_none() && !v.starts_with('-') => name = Some(v.to_string()),
            v if size.is_none() && !v.starts_with('-') => size = Some(parse_size(v)?),
            other => return Err(format!("unexpected argument '{other}'")),
        }
        i += 1;
    }

    if let Some(name) = name {
        // Single-target mode: certify one cell and report what it does.
        let size = size.unwrap_or_else(|| default_size(&name).min(500));
        let spec = CellSpec::new(WorkloadSpec::named(&name, size)?, strategy, placement);
        let cell = AnalyzeCell::new(spec);
        let engine = attach_default_cache(AnalyzeEngine::serial());
        let report = engine.run_cell(&cell)?;
        println!("{report}");
        if !report.certified() {
            print_analyze_evidence(&report);
            return Err(format!("{} is not constant-time", cell.label()));
        }
        return Ok(());
    }

    // Grid mode: the canonical certification grid, negative cells included.
    let grid = analyze_grid(quick);
    let mut engine = AnalyzeEngine::new();
    if let Some(n) = threads {
        engine = engine.with_threads(n);
    }
    let engine = attach_default_cache(engine);
    println!(
        "analyze sweep: {} cells, {} worker(s)",
        grid.len(),
        engine.threads()
    );
    let reports = engine.run(&grid)?;
    let mut failures = 0u64;
    for (cell, report) in grid.iter().zip(&reports) {
        let expect_leak = cell.expects_leak();
        let ok = report.passed(expect_leak);
        let verdict = match (ok, expect_leak) {
            (true, false) => "certified",
            (true, true) => "ok (leak caught, as intended)",
            (false, _) => "FAIL",
        };
        println!("{}", grid_row(&report.label, verdict));
        if !ok {
            print_analyze_evidence(report);
            failures += 1;
        }
    }
    println!(
        "{}",
        grid_summary(
            grid.len(),
            "analyzed",
            engine.cells_executed(),
            engine.cache_hits(),
            failures,
        )
    );
    if failures > 0 {
        return Err(format!("{failures} cell(s) failed certification"));
    }
    Ok(())
}

fn make_seeded(name: &str, size: usize, seed: u64) -> Box<dyn Workload> {
    match name {
        "dijkstra" | "dij" => Box::new(Dijkstra {
            vertices: size.min(64),
            seed,
        }),
        "histogram" | "hist" => Box::new(Histogram { size, seed }),
        "permutation" | "perm" => Box::new(Permutation { size, seed }),
        "binary-search" | "bin" => Box::new(BinarySearch {
            size,
            searches: 10,
            seed,
        }),
        _ => Box::new(HeapPop {
            size,
            pops: 16.min(size),
            seed,
        }),
    }
}

/// `ctbia serve [--socket PATH] [--threads N] [--max-inflight M]
/// [--queue-limit Q] [--deadline-ms D] [--chaos SPEC] [--no-cache]` —
/// run the batch-simulation daemon until SIGTERM/SIGINT, then drain
/// in-flight jobs and print the final counter snapshot.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut config = ServerConfig::new(DEFAULT_SOCKET);
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--socket" => {
                i += 1;
                config.socket = args.get(i).ok_or("--socket needs a value")?.into();
            }
            "--tcp" => {
                i += 1;
                config.tcp = Some(args.get(i).ok_or("--tcp needs an ADDR:PORT")?.to_string());
            }
            "--tenant" => {
                i += 1;
                let spec = args.get(i).ok_or("--tenant needs NAME:TOKEN[:...]")?;
                config.tenants.push(TenantSpec::parse(spec)?);
            }
            "--shards" => {
                i += 1;
                config.shards = args
                    .get(i)
                    .ok_or("--shards needs a value")?
                    .parse::<usize>()
                    .map_err(|_| "--shards expects an integer (0 disables the memo index)")?;
            }
            "--threads" => {
                i += 1;
                config.threads = args
                    .get(i)
                    .ok_or("--threads needs a value")?
                    .parse::<usize>()
                    .map_err(|_| "--threads expects a positive integer")?
                    .max(1);
            }
            "--max-inflight" => {
                i += 1;
                config.max_inflight = args
                    .get(i)
                    .ok_or("--max-inflight needs a value")?
                    .parse::<usize>()
                    .map_err(|_| "--max-inflight expects a positive integer")?
                    .max(1);
            }
            "--queue-limit" => {
                i += 1;
                config.queue_limit = args
                    .get(i)
                    .ok_or("--queue-limit needs a value")?
                    .parse::<usize>()
                    .map_err(|_| "--queue-limit expects a positive integer")?
                    .max(1);
            }
            "--deadline-ms" => {
                i += 1;
                config.deadline_ms = Some(
                    args.get(i)
                        .ok_or("--deadline-ms needs a value")?
                        .parse::<u64>()
                        .map_err(|_| "--deadline-ms expects an integer (milliseconds)")?,
                );
            }
            "--chaos" => {
                i += 1;
                let spec = args.get(i).ok_or("--chaos needs a spec")?;
                config.chaos = Some(ChaosSpec::parse(spec)?);
            }
            "--no-cache" => config.cache_dir = None,
            other => return Err(format!("unexpected argument '{other}'")),
        }
        i += 1;
    }
    if let Some(parent) = config.socket.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
    }
    serve::signal::install_termination_handler();
    let handle = serve::Server::start(config.clone())
        .map_err(|e| format!("cannot bind {}: {e}", config.socket.display()))?;
    println!(
        "serving on {} ({} worker threads, max {} in-flight per client, cache {})",
        config.socket.display(),
        config.threads,
        config.max_inflight,
        config
            .cache_dir
            .as_ref()
            .map_or("off".to_string(), |d| d.display().to_string()),
    );
    if let Some(addr) = handle.tcp_addr() {
        println!("tcp listening on {addr}");
    }
    if !config.tenants.is_empty() {
        println!(
            "tenants: {} (submits require a token)",
            config
                .tenants
                .iter()
                .map(|t| t.name.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    if let Some(chaos) = &config.chaos {
        println!("chaos armed: {chaos}");
    }
    println!(
        "submit cells with `ctbia submit --socket {} <SPEC>...`; stop with SIGTERM.",
        config.socket.display()
    );
    while !serve::signal::termination_requested() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    println!("termination requested; draining in-flight jobs...");
    let snapshot = handle.join();
    println!("drained. final counters:");
    for (key, value) in snapshot.fields() {
        println!("  {key:<24} {value}");
    }
    Ok(())
}

/// Parses a submit spec `WORKLOAD[:SIZE[:STRATEGY[:PLACEMENT]]]`; `-` in
/// the size slot keeps the per-workload default.
fn parse_submit_spec(spec: &str, eval: bool) -> Result<SubmitRequest, String> {
    let mut parts = spec.split(':');
    let workload = parts
        .next()
        .filter(|w| !w.is_empty())
        .ok_or_else(|| format!("empty workload in spec '{spec}'"))?;
    let size = match parts.next() {
        None | Some("-") | Some("") => None,
        Some(s) => Some(parse_size(s)? as u64),
    };
    let strategy = parts.next().filter(|s| !s.is_empty()).map(str::to_string);
    let placement = parts.next().filter(|p| !p.is_empty()).map(str::to_string);
    if parts.next().is_some() {
        return Err(format!(
            "spec '{spec}' has too many fields (WORKLOAD[:SIZE[:STRATEGY[:PLACEMENT]]])"
        ));
    }
    Ok(SubmitRequest {
        workload: workload.to_string(),
        size,
        strategy,
        placement,
        eval,
        deadline_ms: None,
        token: None,
    })
}

/// `ctbia submit [--socket PATH] [--eval] [--retries N] [--backoff-ms B]
/// [--deadline-ms D] <SPEC>...` — send every spec to a running server,
/// then print one line per response. Without `--retries` the specs are
/// pipelined on one connection; with it each spec is submitted on its
/// own connection so transient rejections (backpressure, overloaded,
/// shutting-down, a daemon mid-restart) retry with exponential backoff.
fn cmd_submit(args: &[String]) -> Result<(), String> {
    let mut socket = PathBuf::from(DEFAULT_SOCKET);
    let mut tcp: Option<String> = None;
    let mut token: Option<String> = None;
    let mut eval = false;
    let mut policy = RetryPolicy::default();
    let mut deadline_ms: Option<u64> = None;
    let mut specs: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--socket" => {
                i += 1;
                socket = args.get(i).ok_or("--socket needs a value")?.into();
            }
            "--tcp" => {
                i += 1;
                tcp = Some(args.get(i).ok_or("--tcp needs an ADDR:PORT")?.to_string());
            }
            "--token" => {
                i += 1;
                token = Some(args.get(i).ok_or("--token needs a value")?.to_string());
            }
            "--eval" => eval = true,
            "--retries" => {
                i += 1;
                policy.retries = args
                    .get(i)
                    .ok_or("--retries needs a value")?
                    .parse::<u32>()
                    .map_err(|_| "--retries expects an integer")?;
            }
            "--backoff-ms" => {
                i += 1;
                policy.backoff_ms = args
                    .get(i)
                    .ok_or("--backoff-ms needs a value")?
                    .parse::<u64>()
                    .map_err(|_| "--backoff-ms expects an integer (milliseconds)")?
                    .max(1);
            }
            "--deadline-ms" => {
                i += 1;
                deadline_ms = Some(
                    args.get(i)
                        .ok_or("--deadline-ms needs a value")?
                        .parse::<u64>()
                        .map_err(|_| "--deadline-ms expects an integer (milliseconds)")?,
                );
            }
            flag if flag.starts_with('-') => return Err(format!("unexpected argument '{flag}'")),
            spec => specs.push(spec.to_string()),
        }
        i += 1;
    }
    if specs.is_empty() {
        return Err("submit: missing cell specs (WORKLOAD[:SIZE[:STRATEGY[:PLACEMENT]]])".into());
    }
    // Parse every spec before touching the socket so a typo is reported
    // as a typo, not as a connection problem.
    let requests: Vec<SubmitRequest> = specs
        .iter()
        .map(|spec| {
            parse_submit_spec(spec, eval).map(|mut req| {
                req.deadline_ms = deadline_ms;
                req.token = token.clone();
                req
            })
        })
        .collect::<Result<_, _>>()?;
    let target = match tcp {
        Some(addr) => ServeTarget::Tcp(addr),
        None => ServeTarget::Unix(socket),
    };
    if policy.retries > 0 {
        return submit_sequential_with_retry(&target, &specs, &requests, &policy);
    }
    let mut client = target
        .connect()
        .map_err(|e| format!("cannot connect to {target}: {e} (is `ctbia serve` running?)"))?;
    // Pipeline all submits before reading anything; responses complete in
    // whatever order the server finishes jobs, so match them up by id.
    let mut pending: HashMap<String, String> = HashMap::new();
    for (spec, req) in specs.iter().zip(&requests) {
        let id = client.send_submit(req)?;
        pending.insert(id, spec.clone());
    }
    let mut failures = 0usize;
    for _ in 0..specs.len() {
        let response = client.recv_response()?;
        let spec = pending
            .remove(response.id())
            .unwrap_or_else(|| "?".to_string());
        if !print_submit_response(&spec, response) {
            failures += 1;
        }
    }
    if failures > 0 {
        return Err(format!("{failures} of {} submits failed", specs.len()));
    }
    Ok(())
}

/// Prints one submit response line; returns whether it was a success.
fn print_submit_response(spec: &str, response: Response) -> bool {
    match response {
        Response::Report {
            cached,
            coalesced,
            report,
            ..
        } => {
            let yn = |b: bool| if b { "yes" } else { "no" };
            println!(
                "{:<28} digest={} cycles={} cached={} coalesced={}",
                report.label,
                report.digest,
                report.counters.cycles,
                yn(cached),
                yn(coalesced),
            );
            true
        }
        Response::Error { code, message, .. } => {
            eprintln!("{spec}: [{}] {message}", code.as_str());
            false
        }
        other => {
            eprintln!("{spec}: unexpected {other:?}");
            false
        }
    }
}

/// The `--retries` submit path: one spec at a time, each on its own
/// connection, retrying transient failures under the backoff policy.
fn submit_sequential_with_retry(
    target: &ServeTarget,
    specs: &[String],
    requests: &[SubmitRequest],
    policy: &RetryPolicy,
) -> Result<(), String> {
    let mut failures = 0usize;
    for (spec, req) in specs.iter().zip(requests) {
        match submit_with_retry_to(target, req, policy) {
            Ok(response) => {
                if !print_submit_response(spec, response) {
                    failures += 1;
                }
            }
            Err(e) => {
                eprintln!("{spec}: {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        return Err(format!("{failures} of {} submits failed", specs.len()));
    }
    Ok(())
}

/// `ctbia status [--socket PATH] [--metrics]` — query a running server's
/// counters; `--metrics` additionally writes the aggregated
/// ctbia-metrics-v1 document to SERVE_metrics.json.
fn cmd_status(args: &[String]) -> Result<(), String> {
    let mut socket = PathBuf::from(DEFAULT_SOCKET);
    let mut tcp: Option<String> = None;
    let mut metrics = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--socket" => {
                i += 1;
                socket = args.get(i).ok_or("--socket needs a value")?.into();
            }
            "--tcp" => {
                i += 1;
                tcp = Some(args.get(i).ok_or("--tcp needs an ADDR:PORT")?.to_string());
            }
            "--metrics" => metrics = true,
            other => return Err(format!("unexpected argument '{other}'")),
        }
        i += 1;
    }
    let target = match tcp {
        Some(addr) => ServeTarget::Tcp(addr),
        None => ServeTarget::Unix(socket),
    };
    let mut client = target
        .connect()
        .map_err(|e| format!("cannot connect to {target}: {e} (is `ctbia serve` running?)"))?;
    match client.status(metrics)? {
        Response::Status {
            snapshot,
            metrics: doc,
            ..
        } => {
            for (key, value) in snapshot.fields() {
                println!("{key:<24} {value}");
            }
            if metrics {
                let json = doc.ok_or("server response omitted the requested metrics document")?;
                let doc = MetricsDoc::parse(&json)
                    .map_err(|e| format!("server sent an unparseable metrics document: {e}"))?;
                write_metrics_doc("SERVE_metrics.json", &doc)?;
            }
        }
        Response::Error { code, message, .. } => {
            return Err(format!("status rejected: [{}] {message}", code.as_str()));
        }
        other => return Err(format!("unexpected response {other:?}")),
    }
    Ok(())
}

/// `ctbia health [--socket PATH]` — query a running server's supervision
/// snapshot: queue depth vs limit, workers alive, restarts, deadline
/// kills, shed submits, quarantined cache entries, drain state.
fn cmd_health(args: &[String]) -> Result<(), String> {
    let mut socket = PathBuf::from(DEFAULT_SOCKET);
    let mut tcp: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--socket" => {
                i += 1;
                socket = args.get(i).ok_or("--socket needs a value")?.into();
            }
            "--tcp" => {
                i += 1;
                tcp = Some(args.get(i).ok_or("--tcp needs an ADDR:PORT")?.to_string());
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
        i += 1;
    }
    let target = match tcp {
        Some(addr) => ServeTarget::Tcp(addr),
        None => ServeTarget::Unix(socket),
    };
    let mut client = target
        .connect()
        .map_err(|e| format!("cannot connect to {target}: {e} (is `ctbia serve` running?)"))?;
    match client.health()? {
        Response::Health { health, .. } => {
            for (key, value) in health.fields() {
                println!("{key:<24} {value}");
            }
            println!(
                "{:<24} {}",
                "shutting_down",
                if health.shutting_down { "yes" } else { "no" }
            );
        }
        Response::Error { code, message, .. } => {
            return Err(format!("health rejected: [{}] {message}", code.as_str()));
        }
        other => return Err(format!("unexpected response {other:?}")),
    }
    Ok(())
}

/// `ctbia loadgen [--quick] [--seed N] [--out PATH]` — drive the serving
/// stack with a deterministic seeded zipfian workload from concurrent
/// connections (cold and warm, single- and multi-tenant, UDS and TCP,
/// plus direct memo-index hammers at shard counts 1 and 16), write the
/// per-phase p50/p95/p99 and throughput to BENCH_serve.json, and append
/// the headline numbers to BENCH_history.jsonl. The same seed replays
/// the byte-identical request schedule.
fn cmd_loadgen(args: &[String]) -> Result<(), String> {
    let mut quick = false;
    let mut seed = 1u64;
    let mut out = PathBuf::from("BENCH_serve.json");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .ok_or("--seed needs a value")?
                    .parse::<u64>()
                    .map_err(|_| "--seed expects an integer")?;
            }
            "--out" => {
                i += 1;
                out = args.get(i).ok_or("--out needs a path")?.into();
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
        i += 1;
    }
    let config = if quick {
        serve::loadgen::LoadgenConfig::quick(seed)
    } else {
        serve::loadgen::LoadgenConfig::full(seed)
    };
    println!(
        "loadgen: seed {} — {} connections x {} requests per phase over {} cells{}",
        config.seed,
        config.connections,
        config.requests,
        config.distinct_cells,
        if quick { " (quick)" } else { "" },
    );

    let scratch = std::env::temp_dir().join(format!("ctbia-loadgen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let started = Instant::now();
    let doc = serve::loadgen::run(&config, &scratch)?;
    let _ = std::fs::remove_dir_all(&scratch);

    for phase in &doc.phases {
        println!(
            "  {:<18} {:>6} req  {:>3} err  p50 {:>7}us  p95 {:>7}us  p99 {:>7}us  {:>8} req/s",
            phase.name,
            phase.requests,
            phase.errors,
            phase.p50_us,
            phase.p95_us,
            phase.p99_us,
            phase.throughput_rps,
        );
    }
    println!(
        "schedule digest: {} ({:.1?})",
        doc.schedule_digest,
        started.elapsed()
    );

    if let Some(parent) = out.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
    }
    std::fs::write(&out, doc.to_json() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("wrote {}", out.display());

    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let line = doc.history_line(unix_time, &current_git_rev());
    let history = out.with_file_name("BENCH_history.jsonl");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&history)
        .map_err(|e| format!("cannot open {}: {e}", history.display()))?;
    use std::io::Write as _;
    writeln!(file, "{line}").map_err(|e| format!("cannot append {}: {e}", history.display()))?;
    println!("appended {}", history.display());
    Ok(())
}

fn cmd_config() {
    let cfg = ctbia::sim::config::HierarchyConfig::paper_table1();
    let bia = ctbia::core::bia::BiaConfig::paper_table1();
    println!("simulated system (paper Table 1):");
    for (name, c) in [("L1d", &cfg.l1d), ("L2", &cfg.l2), ("LLC", &cfg.llc)] {
        println!(
            "  {name:<4} {:>6} KB  {:>2}-way {}  {:>2} cycles  {} sets",
            c.size_bytes / 1024,
            c.associativity,
            c.replacement,
            c.hit_latency,
            c.num_sets()
        );
    }
    println!(
        "  BIA  {:>6} KB  {:>2}-way LRU  {:>2} cycle   {} entries (M = {})",
        bia.size_bytes() / 1024,
        bia.associativity,
        bia.latency,
        bia.entries,
        bia.granularity_log2
    );
    println!("  DRAM {} cycles, closed row", cfg.dram.latency);
}

fn cmd_list() {
    println!("workloads:  dijkstra histogram permutation binary-search heappop");
    println!("            leaky-bin (intentionally leaky control, for `ctbia verify`)");
    println!("            spectre (Spectre-v1 gadget; leaks only with --spec-window > 0)");
    println!("strategies: insecure ct ct-avx2 bia bia-loads");
    println!("placements: l1d l2 llc");
    println!("faults:     drop dup delay corrupt flip storm interfere (for `ctbia fuzz`)");
    println!("crypto kernels (in `ctbia bench` and `fig09_crypto`):");
    println!("  AES ARC2 ARC4 Blowfish CAST DES DES3 XOR");
}

/// Pins glibc's mmap threshold so the simulator's large per-machine
/// arrays (cache tag/stamp vectors, hundreds of KiB each) keep coming
/// from `mmap` instead of migrating to the main heap.
///
/// glibc raises the threshold dynamically the first time an mmap'd block
/// is freed; after a few short-lived machines every subsequent
/// `Machine::new` then pays an explicit multi-hundred-KiB `memset` on
/// recycled heap memory. Pinning the threshold keeps those allocations
/// lazily zeroed by the kernel, and sweep cells only ever fault in the
/// sets they actually touch. Measured on the quick bench grid this is
/// ~20% of total wall time. A no-op on non-glibc targets.
fn pin_malloc_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        // `mallopt(M_MMAP_THRESHOLD, ...)`; the constant is stable glibc ABI.
        const M_MMAP_THRESHOLD: i32 = -3;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 128 * 1024);
        }
    }
}

fn main() -> ExitCode {
    pin_malloc_mmap_threshold();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("config") => {
            cmd_config();
            Ok(())
        }
        Some("list") => {
            cmd_list();
            Ok(())
        }
        Some("run") => cmd_run(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("attack") => cmd_attack(&args[1..]),
        Some("leakage") => cmd_leakage(&args[1..]),
        Some("audit") => cmd_audit(&args[1..]),
        Some("fuzz") => cmd_fuzz(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("status") => cmd_status(&args[1..]),
        Some("health") => cmd_health(&args[1..]),
        Some("loadgen") => cmd_loadgen(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_json_omits_access_rate_when_nothing_simulated() {
        let warm = phase_json(0.5, 44, None, 0, 44);
        assert!(!warm.contains("sim_accesses_per_sec"), "{warm}");
        // ci.sh greps the warm phase as `"executed": 0, "cache_hits": N }`
        // with N read from the document's own "cells" field, so the
        // terminator must directly follow the hit count.
        assert!(
            warm.contains("\"executed\": 0, \"cache_hits\": 44 }"),
            "{warm}"
        );
    }

    #[test]
    fn phase_json_reports_access_rate_when_measured() {
        let hot = phase_json(0.5, 44, Some(1000), 44, 0);
        assert!(hot.contains("\"sim_accesses_per_sec\": 2000"), "{hot}");
        assert!(hot.contains("\"executed\": 44, \"cache_hits\": 0"), "{hot}");
    }

    #[test]
    fn history_line_is_single_line_versioned_json() {
        let line = history_line(
            1_700_000_000,
            "abc1234",
            true,
            8,
            44,
            123_456,
            1e8,
            4e8,
            true,
        );
        assert!(line.ends_with('}') || line.ends_with("}\n"), "{line}");
        assert_eq!(line.matches('\n').count(), 1, "exactly one newline: {line}");
        assert!(
            line.contains("\"schema\": \"ctbia-bench-history-v1\""),
            "{line}"
        );
        assert!(line.contains("\"git_rev\": \"abc1234\""), "{line}");
        assert!(line.contains("\"threads\": 8"), "{line}");
        assert!(
            line.contains("\"serial_sim_accesses_per_sec\": 100000000"),
            "{line}"
        );
        assert!(
            line.contains("\"parallel_sim_accesses_per_sec\": 400000000"),
            "{line}"
        );
    }

    #[test]
    fn submit_specs_parse_into_wire_requests() {
        let full = parse_submit_spec("hist:200:bia:l1d", false).unwrap();
        assert_eq!(
            full,
            SubmitRequest {
                workload: "hist".to_string(),
                size: Some(200),
                strategy: Some("bia".to_string()),
                placement: Some("l1d".to_string()),
                eval: false,
                deadline_ms: None,
                token: None,
            }
        );
        // `-` keeps the per-workload default size; trailing fields are
        // optional and the eval flag rides through.
        let partial = parse_submit_spec("dijkstra:-:ct", true).unwrap();
        assert_eq!(partial.size, None);
        assert_eq!(partial.strategy.as_deref(), Some("ct"));
        assert_eq!(partial.placement, None);
        assert!(partial.eval);

        assert!(parse_submit_spec("", false).is_err());
        assert!(parse_submit_spec("hist:0", false).is_err());
        assert!(parse_submit_spec("hist:1:bia:l1d:extra", false).is_err());
    }

    #[test]
    fn metrics_doc_from_counters_round_trips() {
        let report = ctbia::harness::execute_cell(&CellSpec::new(
            WorkloadSpec::named("hist", 64).unwrap(),
            StrategySpec::Bia,
            BiaPlacement::L1d,
        ))
        .unwrap();
        let mut doc = MetricsDoc::new(&report.label);
        doc.push("digest", report.digest);
        for (key, value) in counter_fields(&report.counters) {
            doc.push(key, value);
        }
        let parsed = MetricsDoc::parse(&doc.to_json()).unwrap();
        assert_eq!(parsed, doc);
        assert_eq!(parsed.get("cycles"), Some(report.counters.cycles));
        assert_eq!(
            parsed.get("phase.compute"),
            Some(report.counters.phases.compute)
        );
    }
}
