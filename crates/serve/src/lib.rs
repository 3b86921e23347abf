//! Compilation-as-a-service: a long-lived PREM optimization server.
//!
//! [`Server`] listens on a TCP socket and serves the paper's optimizer
//! ([`prem_core::optimize_app`]) over a hand-rolled, bounded HTTP/1.1 layer
//! ([`http`]) — hermetic, `std`-only. The interesting parts live above the
//! protocol:
//!
//! - **Hardened boundary** — every request is validated by [`api`] into a
//!   structured error (400/413/422/…) instead of a panic; each request and
//!   every pooled computation additionally runs under `catch_unwind`, so a
//!   pathological-but-parseable kernel that trips an internal invariant
//!   becomes a 500 response, never an abort. Server-side locks recover from
//!   poisoning, so one caught panic cannot turn into permanent 500s.
//! - **Bounded compute pool with backpressure** — optimizations run on a
//!   fixed pool of compute threads (`pool_size`, default ≈ cores via
//!   `PREM_SERVE_POOL`) plus a queue of `queue_cap` (`PREM_SERVE_QUEUE`).
//!   When both are full, `POST /optimize` answers `503` with a
//!   `Retry-After` header instead of accepting unbounded work — a flood of
//!   distinct kernels can no longer spawn a thread per request.
//! - **Keep-alive connections** — HTTP/1.1 keep-alive with sequential
//!   handling of pipelined requests, bounded by `max_conn_requests` per
//!   connection and an idle timeout (`PREM_SERVE_IDLE_MS`);
//!   `Connection: close` is honored per request.
//! - **No shared optimizer state** — every computation is a plain
//!   [`prem_core::optimize_app_with_budget`] call with the request's
//!   resolved options: an answer depends on the request alone, never on
//!   what the server computed before it. A computation's search shares the
//!   cores with the computations running when it starts — `max(1, cores /
//!   running)` threads, its pool thread included — so a lone request
//!   searches on every core and a full pool of `pool_size ≈ cores` runs
//!   one search thread per core, not cores².
//! - **One request table** — one mutex-guarded map from canonical request
//!   key (see [`api::parse_optimize_request`]) to a slot that is either
//!   *running* (a queued or running computation with its waiters) or
//!   *done* (its 200 body). Admission is one lookup under that lock: done
//!   → `hit`, running → `coalesced` (one leader computes, followers block
//!   on the result), absent → submit and insert a running slot.
//!   Completion turns the slot done on a 200 and removes it otherwise; a
//!   FIFO of done keys bounded by `response_cache_cap` evicts the oldest
//!   finished body. With one lock, admission cannot miss a computation that
//!   finished a moment ago and start it again.
//! - **Bounded waits, accounted orphans** — followers and leaders alike
//!   give up after the request timeout with a 504. The computation keeps
//!   running in the pool; if *every* waiter timed out by the time it
//!   finishes it is counted as `orphaned` (its slot still turns done, so a
//!   retry picks the result up byte-identically).
//!
//! `GET /stats` exposes all the counters (`inflight` counts running slots),
//! which satisfy the conservation invariant (whenever no `/optimize`
//! request is in flight):
//!
//! ```text
//! computed + coalesced + response_cache_hits + rejected + invalid
//!     == ok + timeouts + errors
//! ```
//!
//! Endpoints: `POST /optimize`, `GET /health`, `GET /stats`,
//! `POST /shutdown`. See README for the request/response schema.

#![warn(missing_docs)]

pub mod api;
pub mod client;
pub mod http;

use prem_core::{default_budget, optimize_app_with_budget, LoopTree};
use prem_sim::SimCost;
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Seconds a `503 Service Unavailable` response suggests waiting before a
/// retry (the `Retry-After` header).
pub const RETRY_AFTER_SECS: u64 = 1;

/// Locks `m`, recovering the guard when a previous holder panicked.
///
/// Every server-side lock site goes through this (or
/// [`wait_timeout_unpoisoned`]): a panic caught at the request boundary must
/// not leave a poisoned mutex behind that turns all future requests into
/// 500s. The data under these locks stays consistent across a recovery —
/// each critical section either completes its table/queue mutation in one
/// step or is re-derivable (counters).
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `Condvar::wait_timeout` with the same poison-recovery policy as
/// [`lock_unpoisoned`].
fn wait_timeout_unpoisoned<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    dur: Duration,
) -> MutexGuard<'a, T> {
    match cv.wait_timeout(guard, dur) {
        Ok((g, _)) => g,
        Err(p) => p.into_inner().0,
    }
}

/// Server construction parameters. `Default` reads the `PREM_SERVE_THREADS`,
/// `PREM_SERVE_POOL`, `PREM_SERVE_QUEUE`, `PREM_SERVE_IDLE_MS` and
/// `PREM_SERVE_TIMEOUT_MS` environment overrides (via [`prem_obs::env_u64`],
/// which warns on malformed values and falls back to the default).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads serving connections (each owns one connection at a
    /// time for its keep-alive lifetime).
    pub workers: usize,
    /// Compute threads running optimizations (`PREM_SERVE_POOL`, default
    /// [`default_budget`]: the available cores).
    pub pool_size: usize,
    /// Computations accepted beyond the `pool_size` running ones
    /// (`PREM_SERVE_QUEUE`, default `2 × pool_size`); past that, new
    /// leaders get `503` + `Retry-After`.
    pub queue_cap: usize,
    /// How long a request waits for its (possibly coalesced) computation
    /// before answering 504.
    pub request_timeout: Duration,
    /// Per-connection socket write timeout (and mid-request read stall cap).
    pub io_timeout: Duration,
    /// How long a keep-alive connection may sit idle between requests
    /// before the server closes it (`PREM_SERVE_IDLE_MS`).
    pub idle_timeout: Duration,
    /// Requests served per connection before the server answers
    /// `Connection: close` (bounds per-connection state lifetime).
    pub max_conn_requests: usize,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Done slots the request table keeps (entries; the oldest is evicted
    /// first).
    pub response_cache_cap: usize,
    /// Artificial delay prepended to every computation. Zero in production;
    /// saturation tests and benches use it to hold pool slots busy for a
    /// deterministic window.
    pub compute_holdup: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let pool_size = prem_obs::env_u64("PREM_SERVE_POOL", default_budget() as u64).clamp(1, 256);
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: prem_obs::env_u64("PREM_SERVE_THREADS", 4).clamp(1, 64) as usize,
            pool_size: pool_size as usize,
            queue_cap: prem_obs::env_u64("PREM_SERVE_QUEUE", pool_size * 2).clamp(1, 4096) as usize,
            request_timeout: Duration::from_millis(
                prem_obs::env_u64("PREM_SERVE_TIMEOUT_MS", 30_000).max(1),
            ),
            io_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_millis(
                prem_obs::env_u64("PREM_SERVE_IDLE_MS", 10_000).max(1),
            ),
            max_conn_requests: 1024,
            max_body_bytes: 1 << 20,
            response_cache_cap: 256,
            compute_holdup: Duration::ZERO,
        }
    }
}

/// A finished computation: HTTP status plus response body.
#[derive(Debug)]
struct Outcome {
    status: u16,
    body: String,
}

impl Outcome {
    /// A failed computation: `status` with a structured error body.
    fn error(status: u16, message: &str) -> Outcome {
        Outcome {
            status,
            body: api::error_body(status, message),
        }
    }
}

/// Waiter-visible state of one in-flight computation.
#[derive(Default)]
struct InFlightState {
    result: Option<Arc<Outcome>>,
    /// Requests waiting on this computation, each counted under the table
    /// lock when it finds or creates the running slot. When it hits zero
    /// before `result` is published, the computation finishes as an
    /// *orphan*: its slot still turns done, but nobody was left to receive
    /// it.
    waiters: u64,
}

/// One in-flight computation; waiters block on `cv` until `result` fills.
#[derive(Default)]
struct InFlight {
    done: Mutex<InFlightState>,
    cv: Condvar,
}

/// A queued computation.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Starts `n` threads sharing `rx`, each handing the items it receives to
/// `handle` until every sender is gone. The connection workers and the
/// compute workers are both such a pool: dropping the sender at shutdown
/// lets them finish what was already queued and then exit.
fn drainers<T: Send + 'static>(
    n: usize,
    rx: mpsc::Receiver<T>,
    handle: impl Fn(T) + Send + Sync + 'static,
) -> Vec<JoinHandle<()>> {
    let shared = Arc::new((Mutex::new(rx), handle));
    (0..n)
        .map(|_| {
            let shared = shared.clone();
            std::thread::spawn(move || loop {
                // Bound first, so the lock is released before `handle` runs.
                let next = lock_unpoisoned(&shared.0).recv();
                match next {
                    Ok(item) => (shared.1)(item),
                    Err(_) => break,
                }
            })
        })
        .collect()
}

/// One request table entry.
enum Slot {
    /// A computation for the key is queued or running; requests for it
    /// wait on it.
    Running(Arc<InFlight>),
    /// The key's computation answered 200 with this outcome.
    Done(Arc<Outcome>),
}

/// The request table: every canonical request key being computed or
/// answered from memory, under one lock.
#[derive(Default)]
struct Table {
    slots: HashMap<String, Slot>,
    /// The keys of the `Done` slots, oldest first; at most
    /// `response_cache_cap` of them, so every other slot is `Running`.
    done: VecDeque<String>,
}

impl Table {
    /// Retires `key`'s running slot: a 200 becomes a done slot, evicting
    /// the oldest done slot past `cap`; any other outcome leaves no slot.
    fn finish(&mut self, key: &str, out: &Arc<Outcome>, cap: usize) {
        if out.status != 200 || cap == 0 {
            self.slots.remove(key);
            return;
        }
        self.slots.insert(key.to_string(), Slot::Done(out.clone()));
        self.done.push_back(key.to_string());
        if self.done.len() > cap {
            if let Some(oldest) = self.done.pop_front() {
                self.slots.remove(&oldest);
            }
        }
    }
}

/// Monotone request counters, all readable through `GET /stats`.
///
/// The `/optimize` counters form a conservation law. Every `/optimize`
/// request is classified exactly once on admission (`computed` leader,
/// `coalesced` follower, `response_cache_hits`, `rejected` on a full queue,
/// `invalid` on a validation failure) and exactly once on completion (`ok`,
/// `timeouts`, `errors`), so with no request in flight:
///
/// ```text
/// computed + coalesced + response_cache_hits + rejected + invalid
///     == ok + timeouts + errors
/// ```
#[derive(Default)]
pub struct Stats {
    /// Requests that parsed as HTTP (any endpoint).
    pub requests: AtomicU64,
    /// `/optimize` computations actually started (coalescing leaders whose
    /// job was accepted by the pool).
    pub computed: AtomicU64,
    /// `/optimize` requests that joined an in-flight identical computation.
    pub coalesced: AtomicU64,
    /// `/optimize` requests answered from a done slot of the request table.
    pub response_cache_hits: AtomicU64,
    /// `/optimize` leaders turned away with 503 because the compute queue
    /// was full (backpressure).
    pub rejected: AtomicU64,
    /// `/optimize` requests rejected before admission (non-JSON, schema
    /// violations, non-UTF-8 bodies: 400/413/422).
    pub invalid: AtomicU64,
    /// Computations that finished after every waiter had timed out. The
    /// result still becomes a done slot; this counter is how such work stays
    /// visible instead of vanishing.
    pub orphaned: AtomicU64,
    /// `/optimize` requests answered 200.
    pub ok: AtomicU64,
    /// `/optimize` requests that gave up waiting (504).
    pub timeouts: AtomicU64,
    /// `/optimize` requests answered any other non-200 (validation, 503
    /// backpressure, compute-level 422/500).
    pub errors: AtomicU64,
    /// Panics caught at the request/compute boundary (turned into 500s).
    pub panics: AtomicU64,
}

impl Stats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Shared server state: request table, compute pool, counters, shutdown
/// flag.
pub struct ServeState {
    cfg: ServerConfig,
    addr: SocketAddr,
    table: Mutex<Table>,
    /// The compute pool's submission queue; taken, which closes it, once
    /// the connection workers have stopped.
    jobs: Mutex<Option<mpsc::Sender<Job>>>,
    /// Jobs submitted and not yet picked up by a compute worker.
    queued: AtomicUsize,
    /// Cores the computations' searches share.
    cores: usize,
    /// Computations a compute worker has picked up and not yet computed.
    computing: AtomicUsize,
    /// Request counters.
    pub stats: Stats,
    shutdown: AtomicBool,
}

impl ServeState {
    /// Jobs submitted and not yet picked up by a compute worker.
    pub fn queue_depth(&self) -> usize {
        self.queued.load(Ordering::SeqCst)
    }

    /// Queues `job` unless `pool_size + queue_cap` computations are queued
    /// or computing, or the queue is closed (→ `false`: a 503). Callers hold
    /// the table lock; a worker counts a job as computing before it uncounts
    /// it as queued, so the sum never reads low.
    fn submit(&self, job: Job) -> bool {
        let accepted = self.queued.load(Ordering::SeqCst) + self.computing.load(Ordering::SeqCst);
        if accepted >= self.cfg.pool_size + self.cfg.queue_cap {
            return false;
        }
        // Counted first: a worker may pick the job up before `send`
        // returns, and it uncounts what it receives.
        self.queued.fetch_add(1, Ordering::SeqCst);
        let sent = lock_unpoisoned(&self.jobs)
            .as_ref()
            .is_some_and(|tx| tx.send(job).is_ok());
        if !sent {
            self.queued.fetch_sub(1, Ordering::SeqCst);
        }
        sent
    }

    /// Poisons every server-side mutex by panicking while holding it, then
    /// catching the panic. Test hook for the lock-recovery path: after this,
    /// requests must still succeed. The workers' receiver locks are left
    /// alone: an idle worker holds one inside `recv`, so taking it here
    /// would block until the next job or connection arrives.
    #[doc(hidden)]
    pub fn poison_locks_for_test(&self) {
        fn poison<T>(m: &Mutex<T>) {
            let _ = catch_unwind(AssertUnwindSafe(|| {
                let _guard = lock_unpoisoned(m);
                panic!("deliberate poison (test)");
            }));
        }
        poison(&self.table);
        poison(&self.jobs);
    }

    /// Renders the `/stats` body.
    pub fn stats_body(&self) -> String {
        use prem_obs::Json;
        let s = &self.stats;
        let inflight = {
            let table = lock_unpoisoned(&self.table);
            table.slots.len() - table.done.len()
        };
        let load = |c: &AtomicU64| Json::from(c.load(Ordering::Relaxed) as f64);
        Json::obj::<&str, Json>([
            ("requests", load(&s.requests)),
            ("computed", load(&s.computed)),
            ("coalesced", load(&s.coalesced)),
            ("response_cache_hits", load(&s.response_cache_hits)),
            ("rejected", load(&s.rejected)),
            ("invalid", load(&s.invalid)),
            ("orphaned", load(&s.orphaned)),
            ("ok", load(&s.ok)),
            ("errors", load(&s.errors)),
            ("timeouts", load(&s.timeouts)),
            ("panics", load(&s.panics)),
            ("inflight", Json::from(inflight)),
            ("queue_depth", Json::from(self.queue_depth())),
            (
                "pool",
                Json::obj::<&str, Json>([
                    ("size", Json::from(self.cfg.pool_size)),
                    ("queue_cap", Json::from(self.cfg.queue_cap)),
                ]),
            ),
        ])
        .to_compact()
    }
}

/// The computation a coalescing leader runs (on a pool thread), its search
/// on at most `search_budget` threads.
fn compute(req: &api::OptimizeRequest, search_budget: usize) -> Outcome {
    let program = match api::build_program(req) {
        Ok(p) => p,
        Err(e) => return Outcome::error(e.status, &e.message),
    };
    let tree = match LoopTree::build(&program) {
        Ok(t) => t,
        Err(e) => return Outcome::error(422, &format!("kernel does not lower: {e}")),
    };
    let cost = SimCost::new(&program);
    let (outcome, phases) = optimize_app_with_budget(
        &tree,
        &program,
        &req.platform,
        &cost,
        &req.options,
        search_budget,
    );
    let generated = if outcome.makespan_ns.is_finite() && !outcome.components.is_empty() {
        let emit: Vec<prem_codegen::EmitComponent> = outcome
            .components
            .iter()
            .map(|c| prem_codegen::EmitComponent {
                component: c.component.clone(),
                solution: c.solution.clone(),
            })
            .collect();
        match prem_codegen::emit_prem_c(&program, &emit, &req.platform) {
            Ok(c) => Some(c),
            Err(e) => return Outcome::error(500, &format!("code generation failed: {e}")),
        }
    } else {
        None
    };
    Outcome {
        status: 200,
        body: api::response_body(&req.kernel_name, &outcome, generated, &phases),
    }
}

/// The pool job a coalescing leader submits: compute (panic-guarded),
/// retire the running slot, publish to the waiters, account orphans.
fn run_leader_job(state: &Arc<ServeState>, entry: &Arc<InFlight>, req: &api::OptimizeRequest) {
    if !state.cfg.compute_holdup.is_zero() {
        std::thread::sleep(state.cfg.compute_holdup);
    }
    // This computation and every other one running share the cores.
    let search_budget = (state.cores / state.computing.load(Ordering::SeqCst).max(1)).max(1);
    let computed = catch_unwind(AssertUnwindSafe(|| compute(req, search_budget)));
    state.computing.fetch_sub(1, Ordering::SeqCst);
    let out = match computed {
        Ok(out) => out,
        Err(_) => {
            Stats::bump(&state.stats.panics);
            Outcome::error(500, "optimization panicked; this is a server bug")
        }
    };
    let out = Arc::new(out);
    lock_unpoisoned(&state.table).finish(&req.canonical, &out, state.cfg.response_cache_cap);
    let orphaned = {
        let mut done = lock_unpoisoned(&entry.done);
        done.result = Some(out);
        entry.cv.notify_all();
        done.waiters == 0
    };
    if orphaned {
        Stats::bump(&state.stats.orphaned);
    }
}

/// Blocks on `entry`, as one of its counted waiters, until the computation
/// publishes or `deadline` passes.
fn await_outcome(entry: &InFlight, deadline: Instant) -> Option<(u16, String)> {
    let mut done = lock_unpoisoned(&entry.done);
    loop {
        if let Some(out) = done.result.clone() {
            done.waiters = done.waiters.saturating_sub(1);
            return Some((out.status, out.body.clone()));
        }
        let now = Instant::now();
        if now >= deadline {
            done.waiters = done.waiters.saturating_sub(1);
            return None;
        }
        done = wait_timeout_unpoisoned(&entry.cv, done, deadline - now);
    }
}

/// Handles `POST /optimize`: one request-table lookup (hit, coalesce or
/// submit, bounded), then a bounded wait. Returns `(status, body,
/// cache_disposition)`; the disposition goes out in the `X-Prem-Cache`
/// header so response *bodies* stay byte-identical across
/// hit/miss/coalesced paths.
fn optimize(state: &Arc<ServeState>, body: &str) -> (u16, String, &'static str) {
    let (status, body, disposition) = optimize_classified(state, body);
    // Completion-side accounting: every /optimize request lands in exactly
    // one of ok / timeouts / errors, balancing the admission-side counter
    // it bumped above (see the Stats invariant).
    match status {
        200 => Stats::bump(&state.stats.ok),
        504 => Stats::bump(&state.stats.timeouts),
        _ => Stats::bump(&state.stats.errors),
    }
    (status, body, disposition)
}

fn optimize_classified(state: &Arc<ServeState>, body: &str) -> (u16, String, &'static str) {
    let req = match api::parse_optimize_request(body) {
        Ok(r) => r,
        Err(e) => {
            Stats::bump(&state.stats.invalid);
            return (e.status, api::error_body(e.status, &e.message), "reject");
        }
    };
    let (entry, leader) = {
        // Hit, coalesce or lead is one decision under the table lock, and a
        // slot only becomes joinable once its job was accepted by the
        // bounded queue, so followers can never attach to rejected work.
        let mut table = lock_unpoisoned(&state.table);
        let (entry, leader) = match table.slots.get(&req.canonical) {
            Some(Slot::Done(hit)) => {
                let hit = hit.clone();
                drop(table);
                Stats::bump(&state.stats.response_cache_hits);
                return (200, hit.body.clone(), "hit");
            }
            Some(Slot::Running(e)) => (e.clone(), false),
            None => {
                let entry = Arc::new(InFlight::default());
                let canonical = req.canonical.clone();
                let state2 = state.clone();
                let entry2 = entry.clone();
                let job: Job = Box::new(move || run_leader_job(&state2, &entry2, &req));
                if !state.submit(job) {
                    Stats::bump(&state.stats.rejected);
                    return (503, api::overload_body(RETRY_AFTER_SECS), "rejected");
                }
                table.slots.insert(canonical, Slot::Running(entry.clone()));
                (entry, true)
            }
        };
        // Counted under the table lock: the computation retires its slot
        // under this lock before it looks for waiters, so it cannot finish
        // unaware of this one.
        lock_unpoisoned(&entry.done).waiters += 1;
        (entry, leader)
    };
    if leader {
        Stats::bump(&state.stats.computed);
    } else {
        Stats::bump(&state.stats.coalesced);
    }
    let deadline = Instant::now() + state.cfg.request_timeout;
    match await_outcome(&entry, deadline) {
        Some((status, body)) => {
            let disposition = if leader { "miss" } else { "coalesced" };
            (status, body, disposition)
        }
        None => (
            504,
            api::error_body(
                504,
                "optimization is still running; retry to pick up the cached result",
            ),
            "timeout",
        ),
    }
}

/// Dispatches one parsed request. Returns status, body, and the extra
/// response headers (`X-Prem-Cache`, `Retry-After`).
fn handle_request(
    state: &Arc<ServeState>,
    request: &http::Request,
) -> (u16, String, Vec<(&'static str, String)>) {
    Stats::bump(&state.stats.requests);
    let mut headers: Vec<(&'static str, String)> = Vec::new();
    let (status, body) = match (request.method.as_str(), request.target.as_str()) {
        ("GET", "/health") => (200, "{\"ok\":true}".to_string()),
        ("GET", "/stats") => (200, state.stats_body()),
        ("POST", "/shutdown") => {
            if !state.shutdown.swap(true, Ordering::SeqCst) {
                // Self-connect to pop the blocking accept() out of its wait.
                let _ = TcpStream::connect(state.addr);
            }
            (200, "{\"ok\":true}".to_string())
        }
        ("POST", "/optimize") => match std::str::from_utf8(&request.body) {
            Ok(text) => {
                let (status, body, cache) = optimize(state, text);
                headers.push(("X-Prem-Cache", cache.to_string()));
                if status == 503 {
                    headers.push(("Retry-After", RETRY_AFTER_SECS.to_string()));
                }
                (status, body)
            }
            Err(_) => {
                Stats::bump(&state.stats.invalid);
                Stats::bump(&state.stats.errors);
                (400, api::error_body(400, "request body is not valid UTF-8"))
            }
        },
        (_, "/health" | "/stats" | "/shutdown" | "/optimize") => (
            405,
            api::error_body(405, "method not allowed on this endpoint"),
        ),
        (_, target) => (
            404,
            api::error_body(404, &format!("no such endpoint {target:?}")),
        ),
    };
    (status, body, headers)
}

/// Serves one connection: sequential keep-alive requests until the client
/// closes, asks for `Connection: close`, idles out, or the per-connection
/// request bound is reached.
fn handle_connection(state: &Arc<ServeState>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(state.cfg.idle_timeout));
    let _ = stream.set_write_timeout(Some(state.cfg.io_timeout));
    let mut carry: Vec<u8> = Vec::new();
    let mut served = 0usize;
    loop {
        let request = match http::read_request(&mut stream, &mut carry, state.cfg.max_body_bytes) {
            Ok(Some(r)) => r,
            Ok(None) => break, // clean close or idle expiry between requests
            Err(e) => {
                let body = api::error_body(e.status, &e.message);
                let _ = http::write_response(&mut stream, e.status, &[], body.as_bytes(), false);
                break;
            }
        };
        served += 1;
        let keep_alive = request.keep_alive
            && served < state.cfg.max_conn_requests
            && !state.shutdown.load(Ordering::SeqCst);
        match catch_unwind(AssertUnwindSafe(|| handle_request(state, &request))) {
            Ok((status, body, extra)) => {
                let extra: Vec<(&str, &str)> =
                    extra.iter().map(|(n, v)| (*n, v.as_str())).collect();
                if http::write_response(&mut stream, status, &extra, body.as_bytes(), keep_alive)
                    .is_err()
                {
                    break;
                }
            }
            Err(_) => {
                Stats::bump(&state.stats.panics);
                let body = api::error_body(500, "request handling panicked; this is a server bug");
                let _ = http::write_response(&mut stream, 500, &[], body.as_bytes(), false);
                break;
            }
        }
        if !keep_alive {
            break;
        }
    }
}

/// A running optimization server. Dropping it shuts it down and joins every
/// thread; `POST /shutdown` ends it remotely (see [`Server::wait`]).
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServeState>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    pool_workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `cfg.addr` and starts the accept loop, the connection workers
    /// and the bounded compute pool.
    ///
    /// # Errors
    ///
    /// Propagates socket bind/inspect failures.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let (jobs, jobs_rx) = mpsc::channel::<Job>();
        let state = Arc::new(ServeState {
            cores: default_budget(),
            computing: AtomicUsize::new(0),
            cfg,
            addr,
            table: Mutex::default(),
            jobs: Mutex::new(Some(jobs)),
            queued: AtomicUsize::new(0),
            stats: Stats::default(),
            shutdown: AtomicBool::new(false),
        });
        let pool_state = state.clone();
        let pool_workers = drainers(state.cfg.pool_size, jobs_rx, move |job: Job| {
            pool_state.computing.fetch_add(1, Ordering::SeqCst);
            pool_state.queued.fetch_sub(1, Ordering::SeqCst);
            // Jobs carry their own catch_unwind; this one keeps the worker
            // alive even if that inner guard is ever bypassed.
            let _ = catch_unwind(AssertUnwindSafe(job));
        });
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let conn_state = state.clone();
        let workers = drainers(state.cfg.workers, rx, move |stream| {
            handle_connection(&conn_state, stream);
        });
        let accept_state = state.clone();
        let accept = std::thread::spawn(move || {
            // `tx` lives here: when the loop ends the channel closes and the
            // workers drain what is queued, then exit.
            for conn in listener.incoming() {
                if accept_state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = conn {
                    let _ = tx.send(stream);
                }
            }
        });
        Ok(Server {
            addr,
            state,
            accept: Some(accept),
            workers,
            pool_workers,
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state handle, for in-process inspection of stats and caches.
    pub fn state(&self) -> Arc<ServeState> {
        self.state.clone()
    }

    /// Blocks until the server is told to stop (`POST /shutdown`), then
    /// joins every thread.
    pub fn wait(mut self) {
        self.join_all();
    }

    /// Initiates shutdown and joins every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if !self.state.shutdown.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect(self.addr);
        }
        self.join_all();
    }

    fn join_all(&mut self) {
        // Order matters: the accept loop releases the connection channel,
        // connection workers drain it (their in-flight waits are served by
        // the still-running pool), and only then is the compute queue
        // closed — the pool drains it first, so accepted computations
        // always finish.
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        drop(lock_unpoisoned(&self.state.jobs).take());
        for h in self.pool_workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept.is_some() || !self.workers.is_empty() || !self.pool_workers.is_empty() {
            self.stop();
        }
    }
}
