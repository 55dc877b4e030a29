//! `serve-mix`: an in-process daemon driven by a closed loop of `nproc`
//! connections (alternating UDS and TCP). Each connection waits for its
//! reply before sending the next request. Requests are zipf(1.0) over a
//! seeded pool of small cells pre-stored on disk at set-up, the popularity
//! curve of `ctbia loadgen`'s schedule. One request in `FRESH_EVERY` asks
//! for a never-seen cell the daemon must execute and store.

use crate::calib::RefClock;
use crate::exec::{mem_ops, par_map, Tally};
use crate::outcome::{pct_record, peak_rss_mb, Ctx, Outcome};
use crate::spans::Tracer;
use crate::stats::{by_second, median, mix, percentile, Rng};
use crate::E2e;
use ctbia_harness::{execute_cell, CellReport, CellSpec, DiskCache, StrategySpec};
use ctbia_serve::{Client, Response, Server, ServerConfig, ServerHandle, SubmitRequest};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Pool keys per workload kind; each key is served under two strategies.
/// 5 kinds x 16 keys x 2 strategies = 160 cells, about ten per memo shard.
const KEYS_PER_KIND: usize = 16;
/// Each connection's every `FRESH_EVERY`-th request asks for a never-seen
/// cell. Executed requests then take about a third of request time, and
/// the simulation 6-8% (`serve_sim_time_share`); the rest of
/// a miss is the daemon's disk lookup, durable store and queueing.
/// `req_p99_ms` falls inside that miss path, whose millisecond tail holds
/// still under a shared host's scheduling stalls where the memo-hit tail
/// does not.
const FRESH_EVERY: u64 = 20;
/// Odd sizes per kind that never-seen cells spread over, so the mean cost
/// of an executed cell does not depend on how many a run gets through.
const FRESH_SIZES: u64 = 200;
/// Zipf exponent over the pool's items, as in `ctbia loadgen`.
const ZIPF_S: f64 = 1.0;

/// (workload, smallest pool size, pool size span, smallest fresh size).
/// Pool sizes are even and fresh sizes odd, so a never-seen cell is never
/// pre-stored however many a run asks for.
const KINDS: [(&str, u64, u64, u64); 5] = [
    ("hist", 300, 200, 100),
    ("perm", 300, 200, 100),
    ("bin", 1000, 1000, 200),
    ("heap", 1000, 1000, 200),
    ("dij", 24, 48, 0),
];
const STRATEGIES: [&str; 2] = ["ct-avx2", "bia"];
/// Never-seen cells cycle through every strategy (BIA ones at each
/// placement) and both cost models before a kind's size steps up, so their
/// cost stays in a narrow band however many a run asks for.
const FRESH_VARIANTS: [(&str, &str); 9] = [
    ("insecure", "l1d"),
    ("ct", "l1d"),
    ("ct-avx2", "l1d"),
    ("bia", "l1d"),
    ("bia", "l2"),
    ("bia", "llc"),
    ("bia-loads", "l1d"),
    ("bia-loads", "l2"),
    ("bia-loads", "llc"),
];

fn request(workload: &str, size: u64, strategy: &str) -> SubmitRequest {
    SubmitRequest {
        workload: workload.to_string(),
        size: Some(size),
        strategy: Some(strategy.to_string()),
        placement: Some("l1d".to_string()),
        eval: false,
        deadline_ms: None,
        token: None,
    }
}

/// The seeded pool: every item's request, spec and expected report, in
/// zipf rank order.
#[derive(Debug)]
struct Pool {
    items: Vec<(SubmitRequest, CellSpec)>,
    cdf: Vec<f64>,
    fresh_offset: u64,
}

impl Pool {
    fn new(seed: u64) -> Result<Pool, String> {
        let mut rng = Rng::new(mix(seed, 400));
        let mut items = Vec::new();
        for (kind, lo, span, _) in KINDS {
            let mut sizes = HashSet::new();
            while sizes.len() < KEYS_PER_KIND {
                sizes.insert(lo + 2 * rng.below(span / 2));
            }
            let mut sizes: Vec<u64> = sizes.into_iter().collect();
            sizes.sort_unstable();
            for size in sizes {
                for strategy in STRATEGIES {
                    let req = request(kind, size, strategy);
                    let spec = req.to_spec()?;
                    items.push((req, spec));
                }
            }
        }
        for i in (1..items.len()).rev() {
            items.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let weights: Vec<f64> = (1..=items.len())
            .map(|r| 1.0 / (r as f64).powf(ZIPF_S))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Ok(Pool {
            items,
            cdf,
            fresh_offset: rng.below(FRESH_SIZES),
        })
    }

    fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c < u)
            .min(self.items.len() - 1)
    }

    /// The `j`-th never-seen cell: each of the four sized kinds under
    /// every strategy, placement and cost model, then the next size.
    /// Sizes walk the `FRESH_SIZES` slots with a stride coprime to their
    /// count, so each is taken once and any prefix of the walk spreads over
    /// the whole range; past the last slot they step up, staying unseen.
    fn fresh(&self, j: u64) -> SubmitRequest {
        const VARIANTS: u64 = FRESH_VARIANTS.len() as u64;
        const COMBOS: u64 = 4 * VARIANTS * 2;
        let c = j % COMBOS;
        let (kind, _, _, first) = KINDS[(c % 4) as usize];
        let (strategy, placement) = FRESH_VARIANTS[(c / 4 % VARIANTS) as usize];
        let k = j / COMBOS;
        let slot = if k < FRESH_SIZES {
            (self.fresh_offset + 77 * k) % FRESH_SIZES
        } else {
            k
        };
        let size = first + 2 * slot + 1;
        let mut req = request(kind, size, strategy);
        req.placement = Some(placement.to_string());
        req.eval = c / (4 * VARIANTS) == 1;
        req
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    MemoHit,
    DiskHit,
    Executed,
    Coalesced,
}

#[derive(Debug)]
struct Sample {
    tcp: bool,
    kind: Kind,
    /// Send-to-reply time; infinite for a failed or refused request.
    us: f64,
    /// Seconds from the start of the timed phase to the reply.
    at: f64,
}

/// A running daemon with its scratch directory.
struct Daemon {
    handle: ServerHandle,
    dir: PathBuf,
}

impl Daemon {
    fn stop(self) {
        self.handle.join();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Pre-stores the pool's `expected` reports in a fresh disk cache and
/// starts a daemon over it.
fn start(ctx: &Ctx, rep: usize, pool: &Pool, expected: &[CellReport]) -> Result<Daemon, String> {
    let dir = ctx.scratch.join(format!("serve-{rep}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let cache = DiskCache::open(dir.join("cache")).map_err(|e| e.to_string())?;
    for ((_, spec), report) in pool.items.iter().zip(expected) {
        cache
            .store(&spec.digest_hex(), report)
            .map_err(|e| format!("pre-store: {e}"))?;
    }
    let mut config = ServerConfig::new(dir.join("d.sock"));
    config.tcp = Some("127.0.0.1:0".to_string());
    config.threads = ctx.nproc;
    config.cache_dir = Some(dir.join("cache"));
    let handle = Server::start(config).map_err(|e| format!("daemon start: {e}"))?;
    Ok(Daemon { handle, dir })
}

fn connect(daemon: &Daemon, c: usize) -> Result<Client, String> {
    if c % 2 == 0 {
        Client::connect(daemon.handle.socket())
    } else {
        let addr = daemon.handle.tcp_addr().expect("daemon listens on TCP");
        Client::connect_tcp(&addr.to_string())
    }
    .map_err(|e| format!("connect: {e}"))
}

pub fn run(ctx: &Ctx, tracer: &Tracer, out: &mut Outcome) -> Result<(E2e, Tally), String> {
    // The pool's reports are check references (and what the pre-store
    // writes), so they are simulated once, outside the timed set-up.
    let specs: Vec<CellSpec> = Pool::new(ctx.seed)?
        .items
        .into_iter()
        .map(|(_, spec)| spec)
        .collect();
    let expected = par_map(&specs, ctx.nproc, |_, spec| execute_cell(spec))
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    let mut clock = RefClock::new(ctx.nproc);
    let mut setup_cpu = Vec::new();
    let mut running = None;
    for rep in 0..ctx.setup_reps {
        let (up, cpu, _) = clock.time(|| -> Result<_, String> {
            let pool = Pool::new(ctx.seed)?;
            let daemon = start(ctx, rep, &pool, &expected)?;
            let clients = (0..ctx.nproc)
                .map(|c| connect(&daemon, c))
                .collect::<Result<Vec<_>, _>>()?;
            Ok((daemon, pool, clients))
        });
        let (daemon, pool, clients) = up?;
        setup_cpu.push(cpu);
        if let Some((old, _, old_clients)) = running.replace((daemon, pool, clients)) {
            drop(old_clients);
            old.stop();
        }
    }
    let (daemon, pool, clients) = running.expect("at least one set-up repetition");
    let setup_s: Vec<f64> = setup_cpu.iter().map(|&c| clock.ref_s(c)).collect();
    clock.next_phase();

    let seen = Mutex::new(HashSet::new());
    let fresh_next = AtomicU64::new(0);
    let fresh_replies: Mutex<Vec<(CellSpec, CellReport)>> = Mutex::new(Vec::new());
    let pool_seen: Mutex<HashSet<usize>> = Mutex::new(HashSet::new());
    let checks: Mutex<Vec<Result<(), String>>> = Mutex::new(Vec::new());
    let before = daemon.handle.status();
    let start_t = Instant::now();
    let clients: Vec<Mutex<Client>> = clients.into_iter().map(Mutex::new).collect();
    let (per_conn, cpu, elapsed) = clock.time(|| {
        par_map(&clients, ctx.nproc, |c, client| {
            let mut client = client.lock().expect("one thread per connection");
            let mut rng = Rng::new(mix(ctx.seed, 300 + c as u64));
            let mut samples = Vec::new();
            // Connections take their never-seen cells at staggered turns.
            let stagger = c as u64 * FRESH_EVERY / ctx.nproc as u64;
            tracer.span("serve.connection", 0, c as u64, |conn| {
                let mut n = 0u64;
                while start_t.elapsed().as_secs_f64() < ctx.seconds {
                    let (req, item) = if (n + stagger) % FRESH_EVERY == FRESH_EVERY - 1 {
                        (pool.fresh(fresh_next.fetch_add(1, Ordering::Relaxed)), None)
                    } else {
                        let i = pool.draw(&mut rng);
                        (pool.items[i].0.clone(), Some(i))
                    };
                    let first_touch =
                        item.is_some_and(|i| seen.lock().expect("seen set").insert(i));
                    let t = Instant::now();
                    let id = (c as u64) << 32 | n;
                    let reply = tracer.span("serve.submit", conn, id, |_| client.submit(&req));
                    let us = t.elapsed().as_nanos() as f64 / 1e3;
                    n += 1;
                    let (kind, ok) = match reply {
                        Ok(Response::Report {
                            cached,
                            coalesced,
                            report,
                            ..
                        }) => {
                            let kind = match (item, coalesced, first_touch) {
                                (_, true, _) => Kind::Coalesced,
                                (None, ..) => Kind::Executed,
                                (Some(_), _, true) => Kind::DiskHit,
                                (Some(_), _, false) => Kind::MemoHit,
                            };
                            let check = match item {
                                Some(i) => {
                                    pool_seen.lock().expect("pool set").insert(i);
                                    if !cached {
                                        Err(format!(
                                            "{}: pre-stored cell was simulated again",
                                            report.label
                                        ))
                                    } else if report.to_cache_text() != expected[i].to_cache_text()
                                    {
                                        Err(format!(
                                            "{}: reply differs from execute_cell",
                                            report.label
                                        ))
                                    } else {
                                        Ok(())
                                    }
                                }
                                None => match req.to_spec() {
                                    Ok(spec) => {
                                        fresh_replies
                                            .lock()
                                            .expect("fresh list")
                                            .push((spec, *report));
                                        if cached {
                                            Err("never-seen cell answered from the cache"
                                                .to_string())
                                        } else {
                                            Ok(())
                                        }
                                    }
                                    Err(e) => Err(e),
                                },
                            };
                            let ok = check.is_ok();
                            checks.lock().expect("check list").push(check);
                            (kind, ok)
                        }
                        Ok(other) => {
                            checks
                                .lock()
                                .expect("check list")
                                .push(Err(format!("request refused: {other:?}")));
                            (Kind::Executed, false)
                        }
                        Err(e) => {
                            checks
                                .lock()
                                .expect("check list")
                                .push(Err(format!("request failed: {e}")));
                            samples.push(Sample {
                                tcp: c % 2 == 1,
                                kind: Kind::Executed,
                                us: f64::INFINITY,
                                at: start_t.elapsed().as_secs_f64(),
                            });
                            break;
                        }
                    };
                    samples.push(Sample {
                        tcp: c % 2 == 1,
                        kind,
                        us: if ok { us } else { f64::INFINITY },
                        at: start_t.elapsed().as_secs_f64(),
                    });
                }
            });
            samples
        })
    });
    let after = daemon.handle.status();
    drop(clients);
    daemon.stop();

    for check in checks.into_inner().expect("check list") {
        out.check(check.is_ok(), || check.err().unwrap_or_default());
    }
    // Executed replies must equal a direct execute_cell.
    let fresh = fresh_replies.into_inner().expect("fresh list");
    let redone = par_map(&fresh, ctx.nproc, |_, (spec, _)| {
        let t = Instant::now();
        let r = execute_cell(spec);
        (r, t.elapsed().as_nanos() as u64)
    });
    let mut direct = Tally::default();
    let mut all = Tally::default();
    let mut bia = Tally::default();
    let mut executed_ops = 0u64;
    for ((spec, reply), (r, ns)) in fresh.iter().zip(&redone) {
        out.check(
            r.as_ref().map(CellReport::to_cache_text).ok() == Some(reply.to_cache_text()),
            || {
                format!(
                    "{}: daemon reply differs from a direct execute_cell",
                    spec.label()
                )
            },
        );
        direct.add(&reply.counters, *ns);
        all.add(&reply.counters, 0);
        if spec.strategy == StrategySpec::Bia {
            bia.add(&reply.counters, 0);
        }
        executed_ops += mem_ops(&reply.counters);
    }
    // bia_over_ct_cycles over the pool keys that were served under both
    // strategies.
    let served = pool_seen.into_inner().expect("pool set");
    let (mut bia_cycles, mut ct_cycles) = (0u64, 0u64);
    for (i, ((req, spec), report)) in pool.items.iter().zip(&expected).enumerate() {
        if !served.contains(&i) {
            continue;
        }
        all.add(&report.counters, 0);
        let twin = pool.items.iter().position(|(r, _)| {
            r.workload == req.workload && r.size == req.size && r.strategy != req.strategy
        });
        if !twin.is_some_and(|t| served.contains(&t)) {
            continue;
        }
        match spec.strategy {
            StrategySpec::Bia => {
                bia.add(&report.counters, 0);
                bia_cycles += report.counters.cycles;
            }
            _ => ct_cycles += report.counters.cycles,
        }
    }

    let samples: Vec<Sample> = per_conn.into_iter().flatten().collect();
    let req_ms = by_second(samples.iter().map(|s| (s.at, s.us / 1e3)), ctx.seconds);
    let share = |k: Kind| {
        samples.iter().filter(|s| s.kind == k).count() as f64 / samples.len().max(1) as f64
    };
    let answered = || samples.iter().filter(|s| s.us.is_finite());
    let total_us: f64 = answered().map(|s| s.us).sum();
    let time_share = |k: Kind| {
        answered()
            .filter(|s| s.kind == k)
            .map(|s| s.us)
            .sum::<f64>()
            / total_us.max(1.0)
    };
    let kinds = [
        (Kind::MemoHit, "memo_hit"),
        (Kind::DiskHit, "disk_hit"),
        (Kind::Executed, "executed"),
        (Kind::Coalesced, "coalesced"),
    ];
    let shares = |f: &dyn Fn(Kind) -> f64| {
        let fields: Vec<String> = kinds
            .iter()
            .map(|&(k, name)| format!("\"{name}\":{:.4}", f(k)))
            .collect();
        format!("{{{}}}", fields.join(","))
    };
    out.record("serve_outcome_mix", shares(&share));
    out.record("serve_request_time_share", shares(&time_share));
    // The simulator's part of request time: the executed cells, re-run
    // directly on warm machines, over all send-to-reply time.
    out.record(
        "serve_sim_time_share",
        format!("{:.4}", direct.run_ns as f64 / 1e3 / total_us.max(1.0)),
    );
    out.record("connections", format!("{}", ctx.nproc));
    out.record("pool_items", format!("{}", pool.items.len()));
    if tracer.enabled() {
        crate::exec::counter_metrics(out, &all, &bia);
        let us = |f: &dyn Fn(&Sample) -> bool| {
            samples
                .iter()
                .filter(|s| f(s))
                .map(|s| s.us)
                .collect::<Vec<f64>>()
        };
        for (tcp, t) in [(false, "uds"), (true, "tcp")] {
            let v = us(&|s| s.tcp == tcp);
            for (q, p) in [(0.5, "p50"), (0.99, "p99")] {
                let name = format!("serve.req_us.{t}.{p}");
                out.metric(&name, percentile(&v, q), "us");
                out.record(&name, pct_record(percentile(&v, q), v.len()));
            }
        }
        for &(kind, k) in &kinds[..3] {
            let v = us(&|s| s.kind == kind);
            let name = format!("serve.req_us.{k}.p50");
            out.metric(&name, median(&v), "us");
            out.record(&name, pct_record(median(&v), v.len()));
        }
        let requests = (after.jobs_submitted - before.jobs_submitted).max(1) as f64;
        out.metric(
            "serve.memo_hit_frac",
            (after.memo_hits - before.memo_hits) as f64 / requests,
            "ratio",
        );
        out.metric(
            "serve.coalesced_frac",
            (after.coalesced - before.coalesced) as f64 / requests,
            "ratio",
        );
    }
    let replies = samples.iter().filter(|s| s.us.is_finite()).count() as f64;
    Ok((
        E2e {
            setup_s,
            req_ms,
            cells_per_s: replies / elapsed,
            req_per_s: replies / elapsed,
            mem_ops_per_s: executed_ops as f64 / elapsed,
            cells_per_ref_s: replies / clock.ref_s(cpu),
            mem_ops_per_ref_s: executed_ops as f64 / clock.ref_s(cpu),
            bia_over_ct: bia_cycles as f64 / ct_cycles.max(1) as f64,
            peak_rss_mb: peak_rss_mb(),
        },
        direct,
    ))
}
