//! The reference benchmark for ctbia.
//!
//! ```text
//! perfbench --workload <sim-resident|sim-spill|oracles|serve-mix>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with tracing off.
//! With `--trace 1` it runs the workload untraced for half the time and
//! traced for the other half, then the layer ladder, and reports the
//! per-layer metrics; the spans go to a file next to the metrics file.
//! Either way every output is checked, the human-readable report goes to
//! stdout, and the last stdout line is the JSON result. The exit code is
//! non-zero when an output check or a regime witness fails.
//!
//! See `perfbench/README.md` for the workloads and the metric map.

mod calib;
mod exec;
mod oracles;
mod outcome;
mod rungs;
mod serve;
mod sim;
mod spans;
mod stats;

use outcome::{num, pct_record, Ctx, Outcome};
use spans::Tracer;
use stats::{median, percentile};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = ["sim-resident", "sim-spill", "oracles", "serve-mix"];

/// The gated end-to-end metrics: every workload's result line with
/// `--trace 0`. Times and rates are in reference seconds (see [`calib`]).
/// The wall-clock rates and the request latencies are printed and written
/// beside them, but on a shared VM they follow the host, so nothing is
/// gated on them.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("cells_per_ref_s", "cells/ref-s"),
    ("sim_mem_ops_per_ref_s", "ops/ref-s"),
    ("bia_over_ct_cycles", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, printed by every workload with `--trace 1`.
const PER_LAYER: [(&str, &str); 50] = [
    ("sim.access_ns.l1_hit", "ns"),
    ("sim.access_ns.l2_hit", "ns"),
    ("sim.access_ns.llc_hit", "ns"),
    ("sim.access_ns.dram", "ns"),
    ("sim.ct_probe_ns", "ns"),
    ("sim.l1d_miss_frac", "ratio"),
    ("core.bia_event_ns", "ns"),
    ("core.linearize_line_ns.sw.resident", "ns"),
    ("core.linearize_line_ns.sw.spill", "ns"),
    ("core.linearize_line_ns.bia.resident", "ns"),
    ("core.linearize_line_ns.bia.spill", "ns"),
    ("core.lines_skipped_frac", "ratio"),
    ("machine.load_ns.l1_hit", "ns"),
    ("machine.load_ns.l2_hit", "ns"),
    ("machine.ct_load_ns", "ns"),
    ("machine.ct_store_ns", "ns"),
    ("machine.new_us", "us"),
    ("machine.reset_us", "us"),
    ("machine.observed_slowdown", "ratio"),
    ("workloads.run_ns_per_mem_op.insecure.resident", "ns"),
    ("workloads.run_ns_per_mem_op.ct.resident", "ns"),
    ("workloads.run_ns_per_mem_op.bia.resident", "ns"),
    ("workloads.run_ns_per_mem_op.insecure.spill", "ns"),
    ("workloads.run_ns_per_mem_op.ct.spill", "ns"),
    ("workloads.run_ns_per_mem_op.bia.spill", "ns"),
    ("workloads.mem_ops", "count"),
    ("workloads.insts", "count"),
    ("harness.engine_overhead_frac", "ratio"),
    ("harness.disk_load_us", "us"),
    ("harness.disk_store_us", "us"),
    ("harness.memo_lookup_ns", "ns"),
    ("harness.memo_insert_ns", "ns"),
    ("verify.taint_ms_per_cell", "ms"),
    ("verify.oracle_ms_per_cell", "ms"),
    ("verify.engine_overhead_frac", "ratio"),
    ("analyze.extract_ms_per_cell", "ms"),
    ("analyze.lint_us_per_cell", "us"),
    ("analyze.interpret_ms_per_cell", "ms"),
    ("serve.req_us.uds.p50", "us"),
    ("serve.req_us.uds.p99", "us"),
    ("serve.req_us.tcp.p50", "us"),
    ("serve.req_us.tcp.p99", "us"),
    ("serve.req_us.memo_hit.p50", "us"),
    ("serve.req_us.disk_hit.p50", "us"),
    ("serve.req_us.executed.p50", "us"),
    ("serve.memo_hit_frac", "ratio"),
    ("serve.coalesced_frac", "ratio"),
    ("trace.metrics_sink_slowdown", "ratio"),
    ("layers.explained_frac", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// Set-up repetitions per run; `setup_s` is their median. A batch
/// workload's set-up takes about a millisecond, so a stray scheduler tick
/// moves one repetition by half; the median of 15 ignores up to 7.
const SETUP_REPS: usize = 15;

/// What every workload measures for the end-to-end metrics.
#[derive(Debug)]
pub struct E2e {
    /// Each set-up repetition in reference seconds.
    pub setup_s: Vec<f64>,
    /// Per-request latencies (a pass of the grid for the batch workloads,
    /// one submit for serve-mix), infinite for a failed request, grouped
    /// by the second they completed in ([`stats::by_second`]). A latency
    /// percentile is the median of its windows': host stalls on a shared
    /// machine come in bursts that then move one window's tail rather than
    /// the run's.
    pub req_ms: Vec<Vec<f64>>,
    pub cells_per_s: f64,
    pub req_per_s: f64,
    pub mem_ops_per_s: f64,
    /// The same rates per reference second: the median over passes (batch
    /// workloads) or over the whole timed phase (serve-mix).
    pub cells_per_ref_s: f64,
    pub mem_ops_per_ref_s: f64,
    pub bia_over_ct: f64,
    /// Peak resident memory once set-up and the first pass are done (the
    /// batch workloads), or at the end of the run (serve-mix). Later passes
    /// redo the same work; what they add is allocator fragmentation from
    /// the engines' per-run threads, which swings by ±20% from run to run.
    pub peak_rss_mb: f64,
}

impl E2e {
    fn emit(&self, out: &mut Outcome) {
        let pct = |q: f64| {
            let per_window: Vec<f64> = self.req_ms.iter().map(|w| percentile(w, q)).collect();
            median(&per_window)
        };
        let (p50, p99) = (pct(0.5), pct(0.99));
        let samples = self.req_ms.iter().map(Vec::len).sum();
        out.metric("setup_s", median(&self.setup_s), "s");
        out.metric("cells_per_s", self.cells_per_s, "cells/s");
        out.metric("sim_mem_ops_per_s", self.mem_ops_per_s, "ops/s");
        out.metric("cells_per_ref_s", self.cells_per_ref_s, "cells/ref-s");
        out.metric("sim_mem_ops_per_ref_s", self.mem_ops_per_ref_s, "ops/ref-s");
        out.metric("bia_over_ct_cycles", self.bia_over_ct, "ratio");
        out.metric("req_per_s", self.req_per_s, "req/s");
        out.metric("req_p50_ms", p50, "ms");
        out.metric("req_p99_ms", p99, "ms");
        out.metric("peak_rss_mb", self.peak_rss_mb, "MB");
        out.record(
            "setup_s",
            pct_record(median(&self.setup_s), self.setup_s.len()),
        );
        out.record("req_p50_ms", pct_record(p50, samples));
        out.record("req_p99_ms", pct_record(p99, samples));
        out.record("req_windows", format!("{}", self.req_ms.len()));
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Runs one workload; returns its end-to-end measurements and the tally of
/// the cells it executed directly (traced runs only).
fn run_workload(
    name: &str,
    ctx: &Ctx,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<(E2e, exec::Tally), String> {
    match name {
        "sim-resident" => sim::run(sim::Regime::Resident, ctx, tracer, out),
        "sim-spill" => sim::run(sim::Regime::Spill, ctx, tracer, out),
        "oracles" => oracles::run(ctx, tracer, out),
        "serve-mix" => serve::run(ctx, tracer, out),
        other => Err(format!("unknown workload {other}")),
    }
}

/// The traced run: untraced and traced halves, probes of the layers the
/// workload does not exercise, the ladder, and the reconciliation.
fn layered(args: &Args, ctx: &Ctx, out: &mut Outcome, out_dir: &Path) -> Result<(), String> {
    let half = Ctx {
        seconds: ctx.seconds / 2.0,
        ..ctx.clone()
    };
    let (base, _) = run_workload(&args.workload, &half, &Tracer::new(false), out)?;
    let tracer = Tracer::new(true);
    let (traced, direct) = run_workload(&args.workload, &half, &tracer, out)?;
    out.metric(
        "bench.trace_overhead_frac",
        1.0 - traced.cells_per_ref_s / base.cells_per_ref_s,
        "ratio",
    );

    // Layers the workload does not call are measured by one short probe
    // of the workload that does; the workload's own values win.
    let probe = Ctx {
        seconds: 0.5,
        setup_reps: 1,
        ..ctx.clone()
    };
    let mut probes = Vec::new();
    if args.workload != "oracles" {
        oracles::run(&probe, &tracer, out)?;
        probes.push("oracles");
    }
    if args.workload != "serve-mix" {
        serve::run(
            &Ctx {
                seconds: 1.0,
                ..probe.clone()
            },
            &tracer,
            out,
        )?;
        probes.push("serve-mix");
    }
    out.record(
        "probes",
        format!(
            "[{}]",
            probes
                .iter()
                .map(|p| format!("\"{p}\""))
                .collect::<Vec<_>>()
                .join(",")
        ),
    );
    rungs::run(ctx, out)?;

    // Reconciliation: the rung costs times the workload's exact counts,
    // over the measured `Workload::run` time of the same cells.
    let rung = |name: &str| out.metrics.get(name).map_or(0.0, |m| m.0);
    let estimate = direct.l1d_hits as f64 * rung("machine.load_ns.l1_hit")
        + direct.l2_hits as f64 * rung("machine.load_ns.l2_hit")
        + direct.llc_hits as f64 * rung("sim.access_ns.llc_hit")
        + direct.dram as f64 * rung("sim.access_ns.dram")
        + direct.ct_loads as f64 * rung("machine.ct_load_ns")
        + direct.ct_stores as f64 * rung("machine.ct_store_ns");
    out.metric(
        "layers.explained_frac",
        estimate / direct.run_ns.max(1) as f64,
        "ratio",
    );
    out.record("reconciled_cells", format!("{}", direct.cells));

    let spans_path = out_dir.join(format!("{}-seed{}.spans.json", args.workload, args.seed));
    std::fs::write(&spans_path, tracer.to_json(&args.workload, args.seed))
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    out.record("spans_file", format!("\"{}\"", spans_path.display()));
    Ok(())
}

fn run(args: &Args) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Relative to the working directory when possible: the daemon's socket
    // path lives under it and must stay within the 108-byte UDS limit.
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let out_dir = std::env::current_dir()
        .ok()
        .and_then(|cwd| out_dir.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or(out_dir);
    let scratch = out_dir.join(format!("scratch-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        nproc,
        setup_reps: SETUP_REPS,
        scratch: scratch.clone(),
    };
    let mut out = Outcome::default();
    out.record("seed", format!("{}", args.seed));
    out.record("nproc", format!("{nproc}"));
    out.record("engine_workers", format!("{nproc}"));
    out.record("client_threads", format!("{nproc}"));
    out.record("seconds", num(args.seconds));

    let result = if args.trace {
        layered(args, &ctx, &mut out, &out_dir)
    } else {
        run_workload(&args.workload, &ctx, &Tracer::new(false), &mut out)
            .map(|(e2e, _)| e2e.emit(&mut out))
    };
    let _ = std::fs::remove_dir_all(&scratch);
    result?;

    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, _) in names {
        if !out.has(name) {
            out.problems.push(format!("metric {name} was not measured"));
        }
    }
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (k, v) in &out.record {
        println!("  record {k} = {v}");
    }
    for (k, (v, unit)) in &out.metrics {
        println!("  {k} = {} {unit}", num(*v));
    }
    println!(
        "  checked outputs: {} attempted, {} failed, failed_frac = {}",
        out.attempted,
        out.failed,
        num(out.failed_frac())
    );
    for p in &out.problems {
        println!("  FAILED: {p}");
    }
    let doc = out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&doc, out.doc_json(&args.workload, args.trace))
        .map_err(|e| format!("{}: {e}", doc.display()))?;
    println!("{}", out.result_json(names));
    Ok(out.correct())
}

/// Pins glibc's mmap threshold, as the `ctbia` binary does at start-up,
/// so the machines' large arrays come from lazily zeroed `mmap` the way
/// they do when ctbia runs, and freed machines return their memory.
fn pin_malloc_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        // `mallopt(M_MMAP_THRESHOLD, ...)`; the constant is stable glibc ABI.
        const M_MMAP_THRESHOLD: i32 = -3;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        // SAFETY: `mallopt` takes two plain integers and only adjusts
        // allocator tuning; it is called before any other thread exists.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 128 * 1024);
        }
    }
}

fn main() -> ExitCode {
    pin_malloc_mmap_threshold();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
