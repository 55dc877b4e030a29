//! Direct cell execution: the benchmark's own path to `Workload::run`,
//! used for the seeded crypto cells, for the traced run's per-cell spans,
//! and for the serial reference runs the engines are checked against.

use crate::spans::Tracer;
use ctbia_harness::{CellSpec, CryptoKernel, StrategySpec, WorkloadSpec};
use ctbia_machine::{BiaPlacement, Counters, Machine, MachineConfig};
use ctbia_workloads::Workload;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::Instant;

/// Runs `f` over `items` on `threads` scoped workers; results come back in
/// item order.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    thread::scope(|s| {
        for _ in 0..threads.clamp(1, items.len().max(1)) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(i, &items[i]);
                slots.lock().expect("result slots poisoned")[i] = Some(r);
            });
        }
    });
    slots
        .into_inner()
        .expect("result slots poisoned")
        .into_iter()
        .map(|r| r.expect("every item ran"))
        .collect()
}

/// What a directly executed cell runs: an engine cell's workload spec, or
/// a crypto kernel with its key/input seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    Spec(WorkloadSpec),
    Crypto(CryptoKernel, u64),
}

/// One directly executed cell.
#[derive(Debug, Clone)]
pub struct Job {
    pub source: Source,
    pub strategy: StrategySpec,
    pub placement: BiaPlacement,
    pub config: MachineConfig,
}

impl Job {
    /// The direct twin of an engine cell: same workload, strategy and
    /// machine configuration.
    pub fn of_spec(spec: &CellSpec) -> Job {
        Job {
            source: Source::Spec(spec.workload),
            strategy: spec.strategy,
            placement: spec.placement,
            config: spec.machine_config(),
        }
    }

    /// A crypto kernel keyed by `seed`, on the machine an engine cell of
    /// the same strategy and placement would use.
    pub fn crypto(
        kernel: CryptoKernel,
        seed: u64,
        strategy: StrategySpec,
        placement: BiaPlacement,
    ) -> Job {
        let spec = CellSpec::new(WorkloadSpec::Crypto(kernel), strategy, placement);
        Job {
            source: Source::Crypto(kernel, seed),
            strategy,
            placement,
            config: spec.machine_config(),
        }
    }

    /// The workload, built from the job's seed: the spec's own `build`
    /// (the spec carries its seed) or `build_seeded` for a keyed crypto
    /// kernel.
    pub fn workload(&self) -> Box<dyn Workload> {
        match self.source {
            Source::Spec(w) => w.build(),
            Source::Crypto(k, seed) => k.build_seeded(seed),
        }
    }

    /// A stable key for grouping the strategies of one workload input.
    pub fn input_key(&self) -> String {
        match self.source {
            Source::Spec(w) => format!("{w:?}"),
            Source::Crypto(k, seed) => format!("{k:?}/{seed}"),
        }
    }
}

/// `w` with its input seed replaced by `seed`.
pub fn with_seed(w: WorkloadSpec, seed: u64) -> WorkloadSpec {
    match w {
        WorkloadSpec::Dijkstra { vertices, .. } => WorkloadSpec::Dijkstra { vertices, seed },
        WorkloadSpec::Histogram { size, .. } => WorkloadSpec::Histogram { size, seed },
        WorkloadSpec::Permutation { size, .. } => WorkloadSpec::Permutation { size, seed },
        WorkloadSpec::BinarySearch { size, searches, .. } => WorkloadSpec::BinarySearch {
            size,
            searches,
            seed,
        },
        WorkloadSpec::HeapPop { size, pops, .. } => WorkloadSpec::HeapPop { size, pops, seed },
        WorkloadSpec::LeakyBinarySearch { size, searches, .. } => WorkloadSpec::LeakyBinarySearch {
            size,
            searches,
            seed,
        },
        WorkloadSpec::SpectreGadget { size, attacks, .. } => WorkloadSpec::SpectreGadget {
            size,
            attacks,
            seed,
        },
        WorkloadSpec::Crypto(k) => WorkloadSpec::Crypto(k),
    }
}

/// The output digest the plain-Rust reference implementation computes for
/// a Ghostrider workload's input; `None` for workloads without one.
pub fn reference_digest(w: &WorkloadSpec) -> Option<u64> {
    use ctbia_workloads::{binary_search, digest_u64, dijkstra, heappop, histogram, permutation};
    use ctbia_workloads::{BinarySearch, Dijkstra, HeapPop, Histogram, Permutation};
    let out = match *w {
        WorkloadSpec::Dijkstra { vertices, seed } => {
            dijkstra::reference(&Dijkstra { vertices, seed }.adjacency(), vertices)
        }
        WorkloadSpec::Histogram { size, seed } => {
            histogram::reference(&Histogram { size, seed }.input(), size)
        }
        WorkloadSpec::Permutation { size, seed } => {
            permutation::reference(&Permutation { size, seed }.permutation())
        }
        WorkloadSpec::BinarySearch {
            size,
            searches,
            seed,
        } => {
            let b = BinarySearch {
                size,
                searches,
                seed,
            };
            binary_search::reference(&b.array(), &b.keys())
        }
        WorkloadSpec::HeapPop { size, pops, seed } => {
            heappop::reference(&HeapPop { size, pops, seed }.heap(), pops)
        }
        _ => return None,
    };
    Some(digest_u64(out.into_iter().map(u64::from)))
}

/// The result of one directly executed cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ran {
    pub digest: u64,
    pub counters: Counters,
    /// Host time of `Workload::run` alone.
    pub run_ns: u64,
}

thread_local! {
    /// Machines kept warm per worker thread, keyed by configuration, as the
    /// sweep engine keeps them.
    static MACHINES: RefCell<HashMap<String, Machine>> = RefCell::new(HashMap::new());
}

/// Executes `job` on this thread's pooled machine for its configuration
/// (`Machine::reset` on reuse, `Machine::new` otherwise), inside spans.
pub fn run_job(job: &Job, tracer: &Tracer, parent: u64, item: u64) -> Ran {
    run_pooled(job, tracer, parent, item, "workloads.run", |_| {})
}

/// [`run_job`] with `attach` applied to the pooled machine after its reset
/// and the run timed in a span named `span`.
pub fn run_pooled(
    job: &Job,
    tracer: &Tracer,
    parent: u64,
    item: u64,
    span: &'static str,
    attach: impl FnOnce(&mut Machine),
) -> Ran {
    let key = format!("{:?}", job.config);
    let pooled = MACHINES.with(|p| p.borrow_mut().remove(&key));
    let mut m = match pooled {
        Some(mut m) => {
            tracer.span("machine.reset", parent, item, |_| m.reset());
            m
        }
        None => tracer.span("machine.new", parent, item, |_| {
            Machine::new(job.config.clone()).expect("benchmark machine configurations are valid")
        }),
    };
    attach(&mut m);
    let wl = job.workload();
    let strategy = job.strategy.to_strategy();
    let t = Instant::now();
    let run = tracer.span(span, parent, item, |_| wl.run(&mut m, strategy));
    let run_ns = t.elapsed().as_nanos() as u64;
    MACHINES.with(|p| p.borrow_mut().insert(key, m));
    Ran {
        digest: run.digest,
        counters: run.counters,
        run_ns,
    }
}

/// Executes `job` on a fresh machine, outside any pool: the serial
/// reference an engine result must equal.
pub fn run_fresh(job: &Job) -> Ran {
    let mut m =
        Machine::new(job.config.clone()).expect("benchmark machine configurations are valid");
    let t = Instant::now();
    let run = job.workload().run(&mut m, job.strategy.to_strategy());
    Ran {
        digest: run.digest,
        counters: run.counters,
        run_ns: t.elapsed().as_nanos() as u64,
    }
}

/// Simulated memory operations of a cell: L1d demand reads and writes plus
/// CTLoad/CTStore probes. Retired instructions are not counted.
pub fn mem_ops(c: &Counters) -> u64 {
    c.hier.l1d.reads + c.hier.l1d.writes + c.ct_loads + c.ct_stores
}

/// Counter sums over a set of cells, for regime witnesses and layer ratios.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub cells: u64,
    pub mem_ops: u64,
    pub insts: u64,
    pub l1d_accesses: u64,
    pub l1d_misses: u64,
    pub l1d_hits: u64,
    pub l2_hits: u64,
    pub llc_hits: u64,
    pub dram: u64,
    pub ct_loads: u64,
    pub ct_stores: u64,
    pub lines_skipped: u64,
    pub lines_fetched: u64,
    pub run_ns: u64,
}

impl Tally {
    pub fn add(&mut self, c: &Counters, run_ns: u64) {
        self.cells += 1;
        self.mem_ops += mem_ops(c);
        self.insts += c.insts;
        self.l1d_accesses += c.hier.l1d.reads + c.hier.l1d.writes;
        self.l1d_misses += c.hier.l1d.misses;
        self.l1d_hits += c.hier.l1d.hits;
        self.l2_hits += c.hier.l2.hits;
        self.llc_hits += c.hier.llc.hits;
        self.dram += c.hier.dram.reads + c.hier.dram.writes;
        self.ct_loads += c.ct_loads;
        self.ct_stores += c.ct_stores;
        self.lines_skipped += c.linearize.lines_skipped;
        self.lines_fetched += c.linearize.lines_fetched;
        self.run_ns += run_ns;
    }

    pub fn l1d_miss_frac(&self) -> f64 {
        ratio(self.l1d_misses, self.l1d_accesses)
    }

    pub fn skipped_frac(&self) -> f64 {
        ratio(self.lines_skipped, self.lines_skipped + self.lines_fetched)
    }
}

pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Which of the three strategy families a cell belongs to, for per-strategy
/// layer metrics; BIA at L1d only, so every family sees the same demand path.
pub fn family(strategy: StrategySpec, placement: BiaPlacement) -> Option<&'static str> {
    match (strategy, placement) {
        (StrategySpec::Insecure, _) => Some("insecure"),
        (StrategySpec::Ct | StrategySpec::CtAvx2, _) => Some("ct"),
        (StrategySpec::Bia, BiaPlacement::L1d) => Some("bia"),
        _ => None,
    }
}

/// The counter-derived layer metrics of a workload's cells: `all` covers
/// every cell, `bia` the BIA cells.
pub fn counter_metrics(out: &mut crate::outcome::Outcome, all: &Tally, bia: &Tally) {
    out.metric("sim.l1d_miss_frac", all.l1d_miss_frac(), "ratio");
    out.metric("core.lines_skipped_frac", bia.skipped_frac(), "ratio");
    out.metric("workloads.mem_ops", all.mem_ops as f64, "count");
    out.metric("workloads.insts", all.insts as f64, "count");
}
