//! The `ctbia serve` daemon: a Unix-domain-socket (and optionally TCP)
//! front end over the sweep engine and memo cache.
//!
//! Architecture, one connection at a time:
//!
//! ```text
//!   accept threads ──spawn──> connection reader ──submit──> DRR scheduler
//!    (UDS + TCP)                    │                            │
//!                                   │ status/ping/errors         │ worker pool
//!                                   v                            v   (supervised)
//!                             response channel <──report── job completion
//!                                   │
//!                                   v
//!                             connection writer (one line per response)
//! ```
//!
//! * **Two transports, one protocol.** The daemon always binds a Unix
//!   domain socket and may additionally bind a TCP listener
//!   ([`ServerConfig::tcp`]). Both speak identical `ctbia-serve-v1`
//!   newline-delimited envelopes through the same generic connection
//!   handler, so every typed error is byte-identical across transports.
//! * **Tenants and fairness.** Submits resolve to a tenant by auth token
//!   (open mode: one implicit unlimited tenant). Jobs queue per tenant
//!   under a deficit-round-robin scheduler ([`crate::tenant`]), so a
//!   saturating tenant cannot starve a light one. Per-tenant quotas
//!   answer typed `quota-exceeded` (too many unresolved submits) and
//!   `backpressure` (queue share full) errors before the global
//!   `overloaded` shed is even consulted.
//! * **Coalescing.** A submit whose digest is already in flight attaches
//!   to the existing job instead of enqueueing a duplicate; both clients
//!   get their own response from the single execution. Coalescers are
//!   always admitted — they cost no new execution — and never count
//!   against their tenant's quota.
//! * **Sharded memo index.** When [`ServerConfig::shards`] > 0 the engine
//!   carries a digest-prefix-sharded in-memory index over the disk cache
//!   ([`MemoIndex`]): warm hits resolve under one shard lock without
//!   touching disk, and concurrent identical digests execute exactly
//!   once.
//! * **Supervision.** Jobs execute under `catch_unwind`; a panicking cell
//!   answers its waiters with `cell_failed` and the supervisor respawns
//!   the poisoned worker (see the `supervisor` module). The same thread is
//!   the deadline watchdog: a job past its deadline is answered
//!   `deadline-exceeded` and unhooked without blocking the queue.
//! * **Crash recovery.** At startup the memo cache is scanned
//!   ([`DiskCache::recover`]): orphaned write-ahead temps are deleted and
//!   torn entries quarantined, so a `kill -9` mid-write costs at most a
//!   re-simulation, never a wrong or wedged result. Stale UDS socket
//!   files and `TIME_WAIT` TCP ports are probed and reclaimed the same
//!   way ([`crate::net::bind_tcp`]).
//! * **Graceful shutdown.** [`ServerHandle::shutdown`] (or SIGTERM in the
//!   CLI) stops accepting work, lets the workers drain every queued and
//!   executing job, flushes the responses, then closes connections — no
//!   accepted request goes unanswered.

use crate::chaos::{ChaosKind, ChaosSpec, ChaosState};
use crate::net::{bind_tcp, Conn, ConnListener};
use crate::proto::{
    error_response, health_response, parse_request, pong_response, report_response,
    status_response, ErrorCode, HealthSnapshot, Request, StatusSnapshot, MAX_LINE,
};
use crate::supervisor::{execute_guarded, spawn_worker, supervisor_loop};
use crate::tenant::{DrrScheduler, TenantSpec};
use ctbia_harness::{counter_fields, CellOutcome, CellSpec, DiskCache, MemoIndex, SweepEngine};
use ctbia_trace::MetricsDoc;
use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::SocketAddr;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How often blocked loops (accept, idle readers, the supervisor) poll
/// the shutdown flag and the deadline watchdog sweeps for overdue jobs.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Default shard count of the in-memory memo index.
pub const DEFAULT_MEMO_SHARDS: usize = 16;

/// Configuration of one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Path of the Unix domain socket to bind. A stale file left by a
    /// dead daemon is detected (connect probe) and replaced; a path owned
    /// by a live daemon fails the bind.
    pub socket: PathBuf,
    /// Optional TCP listen address (e.g. `127.0.0.1:7433`; port 0 picks a
    /// free port — read it back from [`ServerHandle::tcp_addr`]). The
    /// same probe-then-reclaim logic as the socket file applies: a
    /// `TIME_WAIT` port is reclaimed, a live daemon's port refuses.
    pub tcp: Option<String>,
    /// Tenant roster. Empty: the server runs *open* — any or no token is
    /// accepted and one implicit unlimited tenant owns all work (the
    /// single-user PR 5 behaviour). Non-empty: every submit must carry a
    /// configured token or is answered `unauthorized`.
    pub tenants: Vec<TenantSpec>,
    /// Worker threads draining the job queue.
    pub threads: usize,
    /// Per-connection cap on unanswered submits.
    pub max_inflight: usize,
    /// Global cap on in-flight jobs; fresh submits past it are shed with
    /// a typed `overloaded` error.
    pub queue_limit: usize,
    /// Default per-job deadline in milliseconds (`None`: no deadline).
    /// A submit's own `deadline_ms` field overrides it per job.
    pub deadline_ms: Option<u64>,
    /// Memo-cache directory; `None` serves uncached.
    pub cache_dir: Option<PathBuf>,
    /// Shard count of the in-memory memo index layered over the disk
    /// cache; 0 disables the index (every lookup goes to disk, as in
    /// PR 5 — used by tests that corrupt cache files behind the
    /// daemon's back).
    pub shards: usize,
    /// Artificial per-job delay, for stress tests and load drills (0 in
    /// production use).
    pub worker_delay_ms: u64,
    /// Seeded fault-injection budget; `None` serves faithfully.
    pub chaos: Option<ChaosSpec>,
}

impl ServerConfig {
    /// A config on `socket` with defaults: UDS only, open tenancy, all
    /// cores, a 32-deep per-connection window, a 1024-job global queue,
    /// no deadline, the default `results/cache/` memo directory, a
    /// 16-shard memo index, no chaos.
    pub fn new(socket: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            socket: socket.into(),
            tcp: None,
            tenants: Vec::new(),
            threads: thread::available_parallelism().map_or(1, |n| n.get()),
            max_inflight: 32,
            queue_limit: 1024,
            deadline_ms: None,
            cache_dir: Some(PathBuf::from(ctbia_harness::cache::DEFAULT_DIR)),
            shards: DEFAULT_MEMO_SHARDS,
            worker_delay_ms: 0,
            chaos: None,
        }
    }
}

/// One response consumer of a job: which connection, which request id,
/// and whether it coalesced onto an execution another submit started.
#[derive(Debug)]
struct Waiter {
    tx: mpsc::Sender<String>,
    id: String,
    coalesced: bool,
    conn_inflight: Arc<AtomicUsize>,
}

/// One in-flight cell resolution, shared by every submit that asked for
/// the same digest.
#[derive(Debug)]
pub(crate) struct Job {
    spec: CellSpec,
    digest: u128,
    /// Index of the tenant whose submit created the job (coalescers may
    /// belong to other tenants; the creator pays the quota).
    tenant: usize,
    waiters: Mutex<Vec<Waiter>>,
    created: Instant,
    /// Effective deadline (submit override, else the server default).
    /// Coalescers inherit the creating submit's deadline.
    deadline: Option<Duration>,
    /// Claimed exactly once — by normal completion or by deadline expiry —
    /// so each job's waiters are answered exactly once.
    resolved: AtomicBool,
    /// The fault this job drew from the chaos budget, if any.
    chaos: Option<ChaosKind>,
}

impl Job {
    /// Whether this job has already been answered (completed or expired).
    pub(crate) fn is_resolved(&self) -> bool {
        self.resolved.load(Ordering::Acquire)
    }
}

/// Runtime state of one tenant.
#[derive(Debug)]
struct TenantRt {
    name: String,
    max_inflight: usize,
    queue_share: usize,
    /// Unresolved jobs this tenant *created* (coalesced attachments are
    /// free); the `max_inflight` quota measure.
    inflight: AtomicUsize,
}

impl TenantRt {
    fn open() -> TenantRt {
        TenantRt {
            name: "open".to_string(),
            max_inflight: usize::MAX,
            queue_share: usize::MAX,
            inflight: AtomicUsize::new(0),
        }
    }
}

/// Whether `submit` accepted a request into the system.
enum Admission {
    /// Enqueued fresh or coalesced onto an in-flight digest.
    Accepted,
    /// Shed by the global queue-depth limit; nothing was registered.
    Shed,
    /// The tenant's max-in-flight quota is exhausted.
    QuotaExceeded,
    /// The tenant's queue share is full.
    TenantBackpressure,
}

#[derive(Debug, Default)]
struct Stats {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    coalesced: AtomicU64,
    backpressure: AtomicU64,
    quota: AtomicU64,
    unauthorized: AtomicU64,
    protocol_errors: AtomicU64,
    inflight_jobs: AtomicU64,
    deadline_kills: AtomicU64,
    shed_submits: AtomicU64,
    worker_restarts: AtomicU64,
    /// Maintained by the supervisor; stale by at most one poll tick
    /// between a worker's death and its reap.
    workers_alive: AtomicU64,
    cache_quarantined: AtomicU64,
}

/// Shared server state: the scheduler, the coalescing map, the tenant
/// roster, the engine, the counters, and the shutdown latch.
#[derive(Debug)]
pub(crate) struct Core {
    engine: SweepEngine,
    sched: Mutex<DrrScheduler<Arc<Job>>>,
    queue_cv: Condvar,
    inflight: Mutex<HashMap<u128, Arc<Job>>>,
    tenants: Vec<TenantRt>,
    /// token → tenant index; empty iff the server runs open.
    token_index: HashMap<String, usize>,
    stats: Stats,
    /// Running sums of every counter field over completed jobs, in the
    /// canonical `counter_fields` order — the `--metrics` aggregate.
    sums: Mutex<Vec<(&'static str, u64)>>,
    shutdown: AtomicBool,
    threads: usize,
    max_inflight: usize,
    queue_limit: usize,
    memo_shards: usize,
    default_deadline: Option<Duration>,
    worker_delay_ms: u64,
    chaos: Option<ChaosState>,
}

impl Core {
    fn snapshot(&self) -> StatusSnapshot {
        StatusSnapshot {
            jobs_submitted: self.stats.submitted.load(Ordering::Relaxed),
            jobs_completed: self.stats.completed.load(Ordering::Relaxed),
            jobs_failed: self.stats.failed.load(Ordering::Relaxed),
            executed: self.engine.cells_executed(),
            cache_hits: self.engine.cache_hits(),
            memo_hits: self.engine.memo_hits(),
            coalesced: self.stats.coalesced.load(Ordering::Relaxed),
            backpressure_rejections: self.stats.backpressure.load(Ordering::Relaxed),
            quota_rejections: self.stats.quota.load(Ordering::Relaxed),
            unauthorized_rejections: self.stats.unauthorized.load(Ordering::Relaxed),
            protocol_errors: self.stats.protocol_errors.load(Ordering::Relaxed),
            inflight_jobs: self.stats.inflight_jobs.load(Ordering::Relaxed),
            threads: self.threads as u64,
            max_inflight: self.max_inflight as u64,
            tenants: self.token_index.len() as u64,
            memo_shards: self.memo_shards as u64,
            workers_alive: self.stats.workers_alive.load(Ordering::Relaxed),
            worker_restarts: self.stats.worker_restarts.load(Ordering::Relaxed),
            deadline_kills: self.stats.deadline_kills.load(Ordering::Relaxed),
            shed_submits: self.stats.shed_submits.load(Ordering::Relaxed),
            cache_quarantined: self.stats.cache_quarantined.load(Ordering::Relaxed),
            cache_store_failures: self.engine.cache_store_failures(),
            chaos_injections: self.chaos.as_ref().map_or(0, |c| c.injected()),
        }
    }

    fn health(&self) -> HealthSnapshot {
        HealthSnapshot {
            queue_depth: self.stats.inflight_jobs.load(Ordering::Relaxed),
            queue_limit: self.queue_limit as u64,
            workers_alive: self.stats.workers_alive.load(Ordering::Relaxed),
            worker_restarts: self.stats.worker_restarts.load(Ordering::Relaxed),
            deadline_kills: self.stats.deadline_kills.load(Ordering::Relaxed),
            shed_submits: self.stats.shed_submits.load(Ordering::Relaxed),
            cache_quarantined: self.stats.cache_quarantined.load(Ordering::Relaxed),
            shutting_down: self.shutdown.load(Ordering::Acquire),
        }
    }

    /// The aggregated `ctbia-metrics-v1` document over every completed job
    /// (cache hits included; coalesced waiters count once per job, not per
    /// response).
    fn metrics_doc(&self) -> MetricsDoc {
        let snapshot = self.snapshot();
        let mut doc = MetricsDoc::new("serve");
        for (key, value) in snapshot.fields() {
            doc.push(format!("serve.{key}"), value);
        }
        for (key, value) in self.sums.lock().unwrap().iter() {
            doc.push(*key, *value);
        }
        doc
    }

    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    pub(crate) fn note_worker_exit(&self) {
        self.stats.workers_alive.fetch_sub(1, Ordering::Relaxed);
    }

    pub(crate) fn note_worker_restart(&self) {
        self.stats.worker_restarts.fetch_add(1, Ordering::Relaxed);
        self.stats.workers_alive.fetch_add(1, Ordering::Relaxed);
    }

    /// Maps a submit's token to a tenant index.
    ///
    /// Open mode accepts anything (tenant 0). Tenanted mode requires a
    /// configured token; the error message distinguishes missing from
    /// unknown without echoing the (secret) token back.
    fn resolve_tenant(&self, token: Option<&str>) -> Result<usize, String> {
        if self.token_index.is_empty() {
            return Ok(0);
        }
        match token {
            None => Err("submit requires a tenant token on this server".to_string()),
            Some(t) => self
                .token_index
                .get(t)
                .copied()
                .ok_or_else(|| "unknown tenant token".to_string()),
        }
    }

    /// Registers one submit: coalesce onto an in-flight duplicate digest,
    /// reject on the tenant's quotas, shed when the global queue is full,
    /// or create and enqueue a fresh job (with its effective deadline and
    /// its draw from the chaos budget) under the tenant's DRR queue.
    fn submit(
        &self,
        spec: CellSpec,
        tenant: usize,
        deadline_ms: Option<u64>,
        tx: mpsc::Sender<String>,
        id: String,
        conn_inflight: Arc<AtomicUsize>,
    ) -> Admission {
        let digest = spec.digest();
        let mut map = self.inflight.lock().unwrap();
        if let Some(job) = map.get(&digest) {
            // Duplicate of an in-flight cell: share its execution. A job
            // leaves the map strictly before its waiters are notified, so
            // a map-resident job is guaranteed to flush this waiter.
            // Always admitted, whatever the tenant's quotas: attaching
            // costs no execution and no queue slot.
            self.stats.submitted.fetch_add(1, Ordering::Relaxed);
            self.stats.coalesced.fetch_add(1, Ordering::Relaxed);
            job.waiters.lock().unwrap().push(Waiter {
                tx,
                id,
                coalesced: true,
                conn_inflight,
            });
            return Admission::Accepted;
        }
        let rt = &self.tenants[tenant];
        if rt.inflight.load(Ordering::Acquire) >= rt.max_inflight {
            return Admission::QuotaExceeded;
        }
        if self.sched.lock().unwrap().queued(tenant) >= rt.queue_share {
            return Admission::TenantBackpressure;
        }
        if self.stats.inflight_jobs.load(Ordering::Acquire) >= self.queue_limit as u64 {
            // Admission control: a fresh job would grow the queue past the
            // high-water mark. Shed it before registering anything.
            self.stats.shed_submits.fetch_add(1, Ordering::Relaxed);
            return Admission::Shed;
        }
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        let deadline = deadline_ms
            .map(Duration::from_millis)
            .or(self.default_deadline);
        let job = Arc::new(Job {
            spec,
            digest,
            tenant,
            waiters: Mutex::new(vec![Waiter {
                tx,
                id,
                coalesced: false,
                conn_inflight,
            }]),
            created: Instant::now(),
            deadline,
            resolved: AtomicBool::new(false),
            chaos: self.chaos.as_ref().and_then(|c| c.next_injection()),
        });
        map.insert(digest, Arc::clone(&job));
        drop(map);
        rt.inflight.fetch_add(1, Ordering::AcqRel);
        self.stats.inflight_jobs.fetch_add(1, Ordering::Relaxed);
        self.sched.lock().unwrap().push(tenant, job);
        self.queue_cv.notify_one();
        Admission::Accepted
    }

    /// Releases a resolved job's accounting: the creating tenant's quota
    /// slot and the global in-flight gauge.
    fn release(&self, job: &Job) {
        self.tenants[job.tenant]
            .inflight
            .fetch_sub(1, Ordering::AcqRel);
        self.stats.inflight_jobs.fetch_sub(1, Ordering::Relaxed);
    }

    /// Publishes a finished job: removes it from the coalescing map, rolls
    /// the aggregates, and answers every waiter. A no-op if the deadline
    /// watchdog already claimed the job — its waiters were answered
    /// `deadline-exceeded` and the result (already memoized if it stored)
    /// has nobody left to read it.
    pub(crate) fn complete(&self, job: &Job, outcome: Result<CellOutcome, String>) {
        if job.resolved.swap(true, Ordering::AcqRel) {
            return;
        }
        self.inflight.lock().unwrap().remove(&job.digest);
        match &outcome {
            Ok(o) => {
                self.stats.completed.fetch_add(1, Ordering::Relaxed);
                let fields = counter_fields(&o.report.counters);
                let mut sums = self.sums.lock().unwrap();
                if sums.is_empty() {
                    *sums = fields;
                } else {
                    for (acc, field) in sums.iter_mut().zip(fields) {
                        acc.1 += field.1;
                    }
                }
            }
            Err(_) => {
                self.stats.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        let waiters = std::mem::take(&mut *job.waiters.lock().unwrap());
        for w in waiters {
            let line = match &outcome {
                Ok(o) => report_response(&w.id, o.cached, w.coalesced, &o.report),
                Err(msg) => error_response(Some(&w.id), ErrorCode::CellFailed, msg),
            };
            // A send failure means the client hung up; its loss.
            let _ = w.tx.send(line);
            w.conn_inflight.fetch_sub(1, Ordering::Release);
        }
        self.release(job);
    }

    /// The deadline watchdog sweep: claims every in-flight job past its
    /// deadline and answers its waiters `deadline-exceeded`. The job stays
    /// wherever it physically is — queued (a worker will skip it) or
    /// executing (the worker's completion becomes a no-op) — so an overdue
    /// job never blocks the queue, and a later submit of the same digest
    /// starts fresh.
    pub(crate) fn expire_overdue(&self) {
        let now = Instant::now();
        let overdue: Vec<Arc<Job>> = self
            .inflight
            .lock()
            .unwrap()
            .values()
            .filter(|job| {
                job.deadline
                    .is_some_and(|d| now.duration_since(job.created) >= d)
            })
            .map(Arc::clone)
            .collect();
        for job in overdue {
            if job.resolved.swap(true, Ordering::AcqRel) {
                continue;
            }
            self.inflight.lock().unwrap().remove(&job.digest);
            self.stats.deadline_kills.fetch_add(1, Ordering::Relaxed);
            let deadline_ms = job.deadline.map_or(0, |d| d.as_millis() as u64);
            let waiters = std::mem::take(&mut *job.waiters.lock().unwrap());
            for w in waiters {
                let _ = w.tx.send(error_response(
                    Some(&w.id),
                    ErrorCode::DeadlineExceeded,
                    &format!("job exceeded its {deadline_ms}ms deadline"),
                ));
                w.conn_inflight.fetch_sub(1, Ordering::Release);
            }
            self.release(&job);
        }
    }

    /// Blocks for the next scheduled job (DRR across tenants); `None`
    /// once shutdown is requested and the queues are empty.
    pub(crate) fn next_job(&self) -> Option<Arc<Job>> {
        let mut sched = self.sched.lock().unwrap();
        loop {
            if let Some(job) = sched.pop() {
                return Some(job);
            }
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            sched = self.queue_cv.wait(sched).unwrap();
        }
    }

    /// Executes one claimed job: the stress-test delay, then the job's
    /// chaos fault (if it drew one), then the engine. Runs inside the
    /// caller's `catch_unwind` — the injected panic escapes through here.
    pub(crate) fn execute(&self, job: &Job) -> Result<CellOutcome, String> {
        if self.worker_delay_ms > 0 {
            thread::sleep(Duration::from_millis(self.worker_delay_ms));
        }
        match job.chaos {
            None => self.engine.run_cell_outcome(&job.spec),
            Some(ChaosKind::Panic) => panic!("chaos: injected worker panic"),
            Some(ChaosKind::Stall) => {
                let stall_ms = self.chaos.as_ref().map_or(0, |c| c.spec().stall_ms);
                thread::sleep(Duration::from_millis(stall_ms));
                self.engine.run_cell_outcome(&job.spec)
            }
            Some(ChaosKind::IoError) => {
                // Arm one synthetic store failure. Under concurrency
                // another job's store may consume it instead; chaos suites
                // that assert exact counts run single-worker.
                if let Some(cache) = self.engine.cache() {
                    cache.fail_next_stores(1);
                }
                self.engine.run_cell_outcome(&job.spec)
            }
            Some(ChaosKind::TornWrite) => {
                let outcome = self.engine.run_cell_outcome(&job.spec);
                if outcome.is_ok() {
                    if let Some(cache) = self.engine.cache() {
                        // Overwrite the just-published entry with its own
                        // first half, bypassing the crash-consistent write
                        // path on purpose: this is the on-disk state a
                        // kill -9 mid-write would leave, and the startup
                        // recovery scan must quarantine it.
                        let key = job.spec.digest_hex();
                        if let Some(text) = cache.load_text(&key) {
                            let torn = &text.as_bytes()[..text.len() / 2];
                            let _ = std::fs::write(cache.dir().join(&key), torn);
                        }
                    }
                }
                outcome
            }
        }
    }
}

/// Binds the server socket, recovering from a stale socket file left
/// behind by a crashed or killed daemon: when the path is already bound,
/// it is probed with a connect — a refusal proves no daemon is listening,
/// so the stale file is removed and the bind retried, while an answer
/// means a live daemon owns the path and the bind fails with `AddrInUse`.
fn bind_socket(path: &Path) -> std::io::Result<UnixListener> {
    match UnixListener::bind(path) {
        Ok(listener) => Ok(listener),
        Err(e) if e.kind() == ErrorKind::AddrInUse => match UnixStream::connect(path) {
            Ok(_) => Err(std::io::Error::new(
                ErrorKind::AddrInUse,
                format!("{} is owned by a live daemon", path.display()),
            )),
            Err(probe) if probe.kind() == ErrorKind::ConnectionRefused => {
                std::fs::remove_file(path)?;
                UnixListener::bind(path)
            }
            Err(_) => Err(e),
        },
        Err(e) => Err(e),
    }
}

/// Namespace for starting servers; see [`Server::start`].
#[derive(Debug)]
pub struct Server;

impl Server {
    /// Binds `config.socket` (recovering a stale socket file) and, when
    /// configured, the TCP listener (reclaiming a `TIME_WAIT` port), runs
    /// the memo cache's startup recovery scan, spawns the supervised
    /// worker pool and the accept loops, and returns the handle
    /// controlling the running server.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if either listener cannot be bound
    /// (including when a live daemon already owns it), the cache
    /// directory cannot be created, or the recovery scan fails.
    pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = bind_socket(&config.socket)?;
        listener.set_nonblocking(true)?;
        let tcp_listener = match &config.tcp {
            Some(addr) => {
                let l = bind_tcp(addr)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let tcp_addr = match &tcp_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        let mut engine = SweepEngine::new().with_threads(1);
        let mut quarantined = 0;
        if let Some(dir) = &config.cache_dir {
            let cache = DiskCache::open(dir)?;
            // Quarantine crash debris before the first lookup can see it.
            quarantined = cache.recover()?.quarantined;
            engine = engine.with_cache(cache);
        }
        if config.shards > 0 {
            engine = engine.with_memo_index(Arc::new(MemoIndex::new(config.shards)));
        }
        let (tenants, token_index, weights): (Vec<TenantRt>, HashMap<String, usize>, Vec<u64>) =
            if config.tenants.is_empty() {
                (vec![TenantRt::open()], HashMap::new(), vec![1])
            } else {
                let mut rts = Vec::new();
                let mut index = HashMap::new();
                let mut weights = Vec::new();
                for (i, spec) in config.tenants.iter().enumerate() {
                    rts.push(TenantRt {
                        name: spec.name.clone(),
                        max_inflight: spec.max_inflight,
                        queue_share: spec.queue_share,
                        inflight: AtomicUsize::new(0),
                    });
                    index.insert(spec.token.clone(), i);
                    weights.push(spec.weight);
                }
                (rts, index, weights)
            };
        let core = Arc::new(Core {
            engine,
            sched: Mutex::new(DrrScheduler::new(&weights)),
            queue_cv: Condvar::new(),
            inflight: Mutex::new(HashMap::new()),
            tenants,
            token_index,
            stats: Stats::default(),
            sums: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            threads: config.threads.max(1),
            max_inflight: config.max_inflight.max(1),
            queue_limit: config.queue_limit.max(1),
            memo_shards: config.shards,
            default_deadline: config.deadline_ms.map(Duration::from_millis),
            worker_delay_ms: config.worker_delay_ms,
            chaos: config.chaos.map(ChaosState::new),
        });
        core.stats
            .cache_quarantined
            .store(quarantined, Ordering::Relaxed);
        let workers = (0..core.threads).map(|_| spawn_worker(&core)).collect();
        core.stats
            .workers_alive
            .store(core.threads as u64, Ordering::Relaxed);
        let supervisor = {
            let core = Arc::clone(&core);
            thread::spawn(move || supervisor_loop(&core, workers))
        };
        let accept = {
            let core = Arc::clone(&core);
            thread::spawn(move || accept_loop(listener, core))
        };
        let tcp_accept = tcp_listener.map(|l| {
            let core = Arc::clone(&core);
            thread::spawn(move || accept_loop(l, core))
        });
        Ok(ServerHandle {
            core,
            accept: Some(accept),
            tcp_accept,
            supervisor: Some(supervisor),
            socket: config.socket,
            tcp_addr,
        })
    }
}

/// Control handle of a running server.
#[derive(Debug)]
pub struct ServerHandle {
    core: Arc<Core>,
    accept: Option<JoinHandle<()>>,
    tcp_accept: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
    socket: PathBuf,
    tcp_addr: Option<SocketAddr>,
}

impl ServerHandle {
    /// The socket path the server listens on.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// The bound TCP address, when the server listens on TCP. With a
    /// port-0 config this is the actual port the kernel picked.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// A point-in-time snapshot of the server counters.
    pub fn status(&self) -> StatusSnapshot {
        self.core.snapshot()
    }

    /// A point-in-time supervision snapshot (what the `health` op serves).
    pub fn health(&self) -> HealthSnapshot {
        self.core.health()
    }

    /// Begins a graceful shutdown: stop accepting connections, reject new
    /// submits with a typed error, drain every queued and executing job,
    /// deliver all responses. Idempotent; returns immediately — call
    /// [`ServerHandle::join`] to wait for the drain.
    pub fn shutdown(&self) {
        self.core.shutdown.store(true, Ordering::Release);
        self.core.queue_cv.notify_all();
    }

    /// Whether a shutdown has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.core.shutdown.load(Ordering::Acquire)
    }

    /// Waits for the supervisor (and with it every worker), stragglers,
    /// and connections to finish, then removes the socket file and returns
    /// the final counter snapshot. Implies [`ServerHandle::shutdown`].
    pub fn join(mut self) -> StatusSnapshot {
        self.shutdown();
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        // A submit can race the shutdown flag and land in the queue after
        // the workers drained it; resolve stragglers inline so the drain
        // guarantee — every accepted request gets answered — is absolute.
        // (Already-expired jobs are skipped by the guard.)
        loop {
            let job = self.core.sched.lock().unwrap().pop();
            match job {
                Some(job) => {
                    execute_guarded(&self.core, &job);
                }
                None if self.core.stats.inflight_jobs.load(Ordering::Acquire) == 0 => break,
                None => thread::sleep(Duration::from_millis(1)),
            }
        }
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(accept) = self.tcp_accept.take() {
            let _ = accept.join();
        }
        let _ = std::fs::remove_file(&self.socket);
        self.core.snapshot()
    }
}

fn accept_loop<L: ConnListener>(listener: L, core: Arc<Core>) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    loop {
        if core.shutdown.load(Ordering::Acquire) {
            break;
        }
        match listener.accept_conn() {
            Ok(stream) => {
                let core = Arc::clone(&core);
                connections.push(thread::spawn(move || handle_connection(stream, core)));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                thread::sleep(POLL_INTERVAL);
            }
            Err(_) => break,
        }
    }
    for conn in connections {
        let _ = conn.join();
    }
}

/// Serves one connection (either transport): a reader loop that answers
/// or enqueues each request line, plus a writer thread serializing
/// responses (from this reader *and* from worker completions) onto the
/// stream one line at a time.
fn handle_connection<S: Conn>(stream: S, core: Arc<Core>) {
    if stream.set_read_timeout_conn(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let write_half = match stream.try_clone_conn() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (tx, rx) = mpsc::channel::<String>();
    let writer = thread::spawn(move || writer_loop(write_half, rx));
    let conn_inflight = Arc::new(AtomicUsize::new(0));
    reader_loop(stream, &core, &tx, &conn_inflight);
    // Writer exits once every sender is gone: ours now, the workers' when
    // the last pending job for this connection has responded.
    drop(tx);
    let _ = writer.join();
}

fn writer_loop<S: Conn>(mut stream: S, rx: mpsc::Receiver<String>) {
    for line in rx {
        if stream.write_all(line.as_bytes()).is_err() || stream.write_all(b"\n").is_err() {
            // Client hung up; keep draining the channel so senders never
            // see it as an inflight leak.
        }
    }
    let _ = stream.flush();
}

fn reader_loop<S: Conn>(
    mut stream: S,
    core: &Arc<Core>,
    tx: &mpsc::Sender<String>,
    conn_inflight: &Arc<AtomicUsize>,
) {
    let mut buf: Vec<u8> = Vec::with_capacity(512);
    let mut chunk = [0u8; 4096];
    let mut skipping_oversized = false;
    loop {
        // Drain any complete lines already buffered.
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=pos).collect();
            if skipping_oversized {
                skipping_oversized = false;
                continue;
            }
            let line = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
            handle_line(&line, core, tx, conn_inflight);
        }
        if !skipping_oversized && buf.len() > MAX_LINE {
            respond_error(
                core,
                tx,
                None,
                ErrorCode::OversizedLine,
                &format!("request line exceeds {MAX_LINE} bytes"),
            );
            buf.clear();
            skipping_oversized = true;
        }
        if core.shutdown.load(Ordering::Acquire) && conn_inflight.load(Ordering::Acquire) == 0 {
            // Drained: every accepted request has been answered.
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                // EOF. A trailing unterminated line is still a request.
                if !buf.is_empty() && !skipping_oversized {
                    let line = String::from_utf8_lossy(&buf).into_owned();
                    handle_line(&line, core, tx, conn_inflight);
                }
                return;
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

fn respond_error(
    core: &Arc<Core>,
    tx: &mpsc::Sender<String>,
    id: Option<&str>,
    code: ErrorCode,
    message: &str,
) {
    core.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
    match code {
        ErrorCode::Backpressure => {
            core.stats.backpressure.fetch_add(1, Ordering::Relaxed);
        }
        ErrorCode::QuotaExceeded => {
            core.stats.quota.fetch_add(1, Ordering::Relaxed);
        }
        ErrorCode::Unauthorized => {
            core.stats.unauthorized.fetch_add(1, Ordering::Relaxed);
        }
        _ => {}
    }
    let _ = tx.send(error_response(id, code, message));
}

fn handle_line(
    line: &str,
    core: &Arc<Core>,
    tx: &mpsc::Sender<String>,
    conn_inflight: &Arc<AtomicUsize>,
) {
    if line.trim().is_empty() {
        respond_error(core, tx, None, ErrorCode::BadJson, "empty request line");
        return;
    }
    let (id, request) = match parse_request(line) {
        Ok(parsed) => parsed,
        Err(e) => {
            respond_error(core, tx, e.id.as_deref(), e.code, &e.message);
            return;
        }
    };
    match request {
        Request::Ping => {
            let _ = tx.send(pong_response(&id));
        }
        Request::Status { metrics } => {
            let doc = metrics.then(|| core.metrics_doc().to_json());
            let _ = tx.send(status_response(&id, &core.snapshot(), doc.as_deref()));
        }
        Request::Health => {
            let _ = tx.send(health_response(&id, &core.health()));
        }
        Request::Submit(req) => {
            if core.shutdown.load(Ordering::Acquire) {
                respond_error(
                    core,
                    tx,
                    Some(&id),
                    ErrorCode::ShuttingDown,
                    "server is draining; resubmit elsewhere",
                );
                return;
            }
            // Auth first: an unauthenticated submit gets no payload
            // validation, only a typed refusal on its open connection.
            let tenant = match core.resolve_tenant(req.token.as_deref()) {
                Ok(t) => t,
                Err(msg) => {
                    respond_error(core, tx, Some(&id), ErrorCode::Unauthorized, &msg);
                    return;
                }
            };
            let spec = match req.to_spec() {
                Ok(spec) => spec,
                Err(msg) => {
                    respond_error(core, tx, Some(&id), ErrorCode::BadCell, &msg);
                    return;
                }
            };
            if conn_inflight.load(Ordering::Acquire) >= core.max_inflight {
                respond_error(
                    core,
                    tx,
                    Some(&id),
                    ErrorCode::Backpressure,
                    &format!(
                        "connection already has {} submit(s) in flight (cap {})",
                        conn_inflight.load(Ordering::Acquire),
                        core.max_inflight
                    ),
                );
                return;
            }
            conn_inflight.fetch_add(1, Ordering::AcqRel);
            match core.submit(
                spec,
                tenant,
                req.deadline_ms,
                tx.clone(),
                id.clone(),
                Arc::clone(conn_inflight),
            ) {
                Admission::Accepted => {}
                Admission::Shed => {
                    conn_inflight.fetch_sub(1, Ordering::AcqRel);
                    respond_error(
                        core,
                        tx,
                        Some(&id),
                        ErrorCode::Overloaded,
                        &format!(
                            "queue is at its {}-job limit; retry with backoff",
                            core.queue_limit
                        ),
                    );
                }
                Admission::QuotaExceeded => {
                    conn_inflight.fetch_sub(1, Ordering::AcqRel);
                    let rt = &core.tenants[tenant];
                    respond_error(
                        core,
                        tx,
                        Some(&id),
                        ErrorCode::QuotaExceeded,
                        &format!(
                            "tenant {} already has {} unresolved submit(s) (quota {})",
                            rt.name,
                            rt.inflight.load(Ordering::Acquire),
                            rt.max_inflight
                        ),
                    );
                }
                Admission::TenantBackpressure => {
                    conn_inflight.fetch_sub(1, Ordering::AcqRel);
                    let rt = &core.tenants[tenant];
                    respond_error(
                        core,
                        tx,
                        Some(&id),
                        ErrorCode::Backpressure,
                        &format!(
                            "tenant {} queue share ({} job(s)) is full; retry with backoff",
                            rt.name, rt.queue_share
                        ),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_socket(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ctbia-bind-test-{}-{tag}.sock", std::process::id()))
    }

    #[test]
    fn bind_recovers_a_stale_socket_file() {
        let path = tmp_socket("stale");
        let _ = std::fs::remove_file(&path);
        // A bound-then-dropped listener leaves exactly the stale file a
        // killed daemon leaves: present on disk, nobody listening.
        drop(UnixListener::bind(&path).unwrap());
        assert!(path.exists(), "stale socket file is on disk");
        let listener = bind_socket(&path).expect("stale file is reclaimed");
        drop(listener);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bind_refuses_a_live_daemons_socket() {
        let path = tmp_socket("live");
        let _ = std::fs::remove_file(&path);
        let live = UnixListener::bind(&path).unwrap();
        let err = bind_socket(&path).expect_err("a live listener owns the path");
        assert_eq!(err.kind(), ErrorKind::AddrInUse);
        drop(live);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bind_creates_a_fresh_socket() {
        let path = tmp_socket("fresh");
        let _ = std::fs::remove_file(&path);
        let listener = bind_socket(&path).unwrap();
        drop(listener);
        let _ = std::fs::remove_file(&path);
    }
}
