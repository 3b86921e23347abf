//! Replay load driver for `prem-serve`.
//!
//! Two scenarios, both against in-process servers on ephemeral ports:
//!
//! **Load** — a mixed-kernel request stream from many concurrent keep-alive
//! clients: the five bundled kernels across several platform points, plus a
//! matvec kernel submitted as frontend source. The first wave is
//! `concurrency` identical requests released through a barrier, so request
//! coalescing is exercised (and asserted) rather than hoped for. Clients
//! hold one connection each and reconnect only when the server closes it.
//!
//! **Saturation** — a flood of *distinct* kernels (≥ 4× the compute-pool
//! size) against a deliberately tiny pool. Overloaded requests must come
//! back as structured 503 + `Retry-After` (never a hang, never a panic),
//! the process thread count must stay bounded by pool + workers + clients
//! (no per-request compute threads), and every rejected body must succeed
//! when retried after the suggested backoff.
//!
//! Checks (the bench fails loudly rather than record garbage):
//!
//! - every load-phase response is a 200 — zero errors, timeouts, rejections
//!   or caught panics;
//! - the coalesced first wave returns byte-identical bodies, whose
//!   deterministic `result` object matches an uncoalesced baseline computed
//!   by a separate server instance;
//! - the server's `coalesced` counter is positive, `computed` stays at the
//!   number of distinct request bodies, and the `/stats` conservation
//!   invariant holds in both phases;
//! - the saturation phase sees at least one 503 and a bounded thread count.
//!
//! Writes `serve_bench.json` (throughput, p50/p95/p99 latency, coalescing,
//! backpressure and orphan counters) into the results directory;
//! `scripts/check.sh --bench-snapshot` condenses it into `BENCH_serve.json`.
//!
//! Modes: full (2000 requests, 64 clients), `--quick` (1200 / 32),
//! `--smoke` (160 / 16).

use prem_bench::{new_report, write_report, RunMode};
use prem_obs::{Json, RunReport};
use prem_serve::{client, Server, ServerConfig};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// The distinct request bodies of the mixed workload.
fn request_bodies() -> Vec<String> {
    let mut bodies = Vec::new();
    let platforms = [
        String::new(),
        ",\"platform\":{\"spm_kib\":64}".to_string(),
        ",\"platform\":{\"bus_gbytes\":8}".to_string(),
        ",\"platform\":{\"cores\":4,\"bus_gbytes\":4}".to_string(),
    ];
    for name in prem_serve::api::builtin_names() {
        for p in &platforms {
            bodies.push(format!("{{\"kernel\":{{\"builtin\":\"{name}\"}}{p}}}"));
        }
    }
    let matvec = "double a[N][N]; double b[N]; double c[N]; \
                  for (int i = 0; i < N; i++) { c[i] = 0.0; \
                  for (int j = 0; j < N; j++) { c[i] = c[i] + a[i][j] * b[j]; } }";
    for n in [64, 96] {
        bodies.push(format!(
            "{{\"kernel\":{{\"source\":\"{matvec}\",\"name\":\"matvec\",\"params\":{{\"N\":{n}}}}}}}"
        ));
    }
    bodies
}

/// Extracts the deterministic `result` object out of a response body.
fn result_part(body: &str) -> &str {
    let start = body.find("\"result\":").map(|i| i + "\"result\":".len());
    let end = body.find(",\"telemetry\":");
    match (start, end) {
        (Some(s), Some(e)) if s < e => &body[s..e],
        _ => body,
    }
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_ms.len() as f64).ceil() as usize;
    sorted_ms[rank.clamp(1, sorted_ms.len()) - 1]
}

fn stat(stats: &Json, key: &str) -> f64 {
    stats.get(key).and_then(Json::as_f64).unwrap_or(-1.0)
}

/// The `/stats` conservation law: every `/optimize` request is counted once
/// on admission and once on completion.
fn assert_stats_invariant(stats: &Json, ctx: &str) {
    let c = |k: &str| stat(stats, k);
    assert_eq!(c("inflight"), 0.0, "{ctx}: requests still in flight");
    assert_eq!(c("queue_depth"), 0.0, "{ctx}: computations still queued");
    assert_eq!(
        c("computed") + c("coalesced") + c("response_cache_hits") + c("rejected") + c("invalid"),
        c("ok") + c("timeouts") + c("errors"),
        "{ctx}: stats invariant violated: {stats:?}"
    );
}

/// Current thread count of this process (`/proc/self/status`), or -1 when
/// unavailable (non-Linux).
fn thread_count() -> i64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(-1)
}

/// A keep-alive client that transparently reconnects when the server closes
/// the connection (request-per-connection bound, shutdown) — but never
/// retries a request, so statuses stay attributable.
struct PooledClient {
    addr: std::net::SocketAddr,
    conn: Option<client::Conn>,
}

impl PooledClient {
    fn new(addr: std::net::SocketAddr) -> PooledClient {
        PooledClient { addr, conn: None }
    }

    fn post(&mut self, path: &str, body: &str) -> std::io::Result<client::Response> {
        for attempt in 0..2 {
            if self.conn.as_ref().is_none_or(|c| !c.is_open()) {
                self.conn = Some(client::Conn::connect(self.addr)?);
            }
            let conn = self.conn.as_mut().expect("connection just ensured");
            match conn.request("POST", path, body) {
                Ok(resp) => return Ok(resp),
                // A stale keep-alive connection (closed between requests)
                // surfaces as an error on the *next* use: one reconnect.
                Err(_) if attempt == 0 => self.conn = None,
                Err(e) => return Err(e),
            }
        }
        unreachable!("loop returns on success or second error")
    }
}

/// Load phase: mixed keep-alive traffic, coalescing, latency percentiles.
#[allow(clippy::too_many_lines)]
fn run_load(mode: RunMode, report: &mut RunReport) {
    let (total, concurrency) = match mode {
        RunMode::Full => (2000usize, 64usize),
        RunMode::Quick => (1200, 32),
        RunMode::Smoke => (160, 16),
    };
    let bodies = request_bodies();
    println!(
        "serve_bench [{}]: {total} requests, {concurrency} keep-alive clients, {} distinct bodies",
        mode.as_str(),
        bodies.len()
    );

    // Uncoalesced baseline from a throwaway server: the deterministic
    // `result` object the coalesced wave must reproduce bit-for-bit.
    let baseline = {
        let server = Server::start(ServerConfig::default()).expect("bind baseline server");
        let resp = client::post(server.addr(), "/optimize", &bodies[0]).expect("baseline request");
        assert_eq!(resp.status, 200, "baseline failed: {}", resp.body);
        server.shutdown();
        resp.body
    };

    let cfg = ServerConfig {
        workers: concurrency,
        pool_size: 4,
        // Roomy enough that the distinct-body mix never trips backpressure:
        // the load phase asserts rejected == 0.
        queue_cap: 64,
        ..ServerConfig::default()
    };
    let server = Server::start(cfg).expect("bind load server");
    let addr = server.addr();

    // Requests 0..concurrency are identical (body 0) and barrier-released;
    // the tail round-robins over the whole mix.
    let next = AtomicUsize::new(0);
    let barrier = Barrier::new(concurrency);
    let latencies: Mutex<Vec<f64>> = Mutex::new(Vec::with_capacity(total));
    let first_wave: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let failures: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let reconnects = AtomicUsize::new(0);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..concurrency {
            s.spawn(|| {
                let mut pooled = PooledClient::new(addr);
                let mut my_lat = Vec::new();
                barrier.wait();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let body = &bodies[if i < concurrency { 0 } else { i % bodies.len() }];
                    let had_conn = pooled.conn.as_ref().is_some_and(client::Conn::is_open);
                    let t = Instant::now();
                    match pooled.post("/optimize", body) {
                        Ok(resp) => {
                            my_lat.push(t.elapsed().as_secs_f64() * 1e3);
                            if !had_conn {
                                reconnects.fetch_add(1, Ordering::Relaxed);
                            }
                            if resp.status != 200 {
                                failures
                                    .lock()
                                    .unwrap()
                                    .push(format!("request {i}: status {}", resp.status));
                            } else if i < concurrency {
                                first_wave.lock().unwrap().push(resp.body);
                            }
                        }
                        Err(e) => failures.lock().unwrap().push(format!("request {i}: {e}")),
                    }
                }
                latencies.lock().unwrap().extend(my_lat);
            });
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();

    let failures = failures.into_inner().unwrap();
    assert!(failures.is_empty(), "non-200 responses: {failures:?}");
    let first_wave = first_wave.into_inner().unwrap();
    assert_eq!(first_wave.len(), concurrency, "first wave lost responses");
    for body in &first_wave {
        assert_eq!(
            body, &first_wave[0],
            "coalesced wave returned diverging bodies"
        );
    }
    assert_eq!(
        result_part(&first_wave[0]),
        result_part(&baseline),
        "coalesced result differs from the uncoalesced baseline"
    );

    let stats_resp = client::get(addr, "/stats").expect("stats");
    let stats = Json::parse(&stats_resp.body).expect("stats parse");
    server.shutdown();

    let computed = stat(&stats, "computed");
    let coalesced = stat(&stats, "coalesced");
    let cache_hits = stat(&stats, "response_cache_hits");
    assert_eq!(stat(&stats, "panics"), 0.0, "server caught panics");
    assert_eq!(stat(&stats, "timeouts"), 0.0, "requests timed out");
    assert_eq!(stat(&stats, "errors"), 0.0, "server counted errors");
    assert_eq!(stat(&stats, "rejected"), 0.0, "load phase hit backpressure");
    assert_eq!(stat(&stats, "orphaned"), 0.0, "computations were orphaned");
    assert!(coalesced > 0.0, "no coalescing despite the identical wave");
    assert!(
        computed <= bodies.len() as f64,
        "recomputed a cached request: computed={computed}, distinct={}",
        bodies.len()
    );
    assert_stats_invariant(&stats, "load phase");

    let mut sorted = latencies.into_inner().unwrap();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p50 = percentile(&sorted, 50.0);
    let p95 = percentile(&sorted, 95.0);
    let p99 = percentile(&sorted, 99.0);
    let throughput = total as f64 / wall_s;
    let reconnects = reconnects.into_inner();
    println!(
        "  {total} requests in {wall_s:.2}s = {throughput:.0} req/s; \
         p50 {p50:.2}ms p95 {p95:.2}ms p99 {p99:.2}ms ({reconnects} connections)"
    );
    println!(
        "  computed {computed:.0}, coalesced {coalesced:.0}, response-cache hits {cache_hits:.0}"
    );

    report.set("total_requests", total);
    report.set("concurrency", concurrency);
    report.set("distinct_bodies", bodies.len());
    report.set("connections_opened", reconnects);
    report.set("wall_s", wall_s);
    report.set("throughput_rps", throughput);
    report.set("p50_ms", p50);
    report.set("p95_ms", p95);
    report.set("p99_ms", p99);
    report.set("computed", computed);
    report.set("coalesced", coalesced);
    report.set("response_cache_hits", cache_hits);
    report.set("errors", stat(&stats, "errors"));
    report.set("timeouts", stat(&stats, "timeouts"));
    report.set("panics", stat(&stats, "panics"));
    report.set("rejected", stat(&stats, "rejected"));
    report.set("orphaned", stat(&stats, "orphaned"));
}

/// Saturation phase: distinct-kernel flood against a tiny pool.
fn run_saturation(mode: RunMode, report: &mut RunReport) {
    let pool_size = 2usize;
    let queue_cap = 2usize;
    let clients = 8usize;
    let distinct = match mode {
        RunMode::Full => 32usize, // 16× pool
        RunMode::Quick => 24,
        RunMode::Smoke => 12,
    };
    println!(
        "  saturation: {distinct} distinct kernels ({}x pool) over {clients} clients, \
         pool {pool_size}, queue {queue_cap}",
        distinct / pool_size
    );
    // Each body is a distinct kernel (distinct canonical key): same matvec
    // shape, different problem size.
    let matvec = "double a[N][N]; double b[N]; double c[N]; \
                  for (int i = 0; i < N; i++) { c[i] = 0.0; \
                  for (int j = 0; j < N; j++) { c[i] = c[i] + a[i][j] * b[j]; } }";
    let bodies: Vec<String> = (0..distinct)
        .map(|i| {
            format!(
                "{{\"kernel\":{{\"source\":\"{matvec}\",\"name\":\"matvec\",\"params\":{{\"N\":{}}}}}}}",
                16 + i
            )
        })
        .collect();

    let cfg = ServerConfig {
        workers: clients,
        pool_size,
        queue_cap,
        // Hold each compute slot busy long enough that the flood observably
        // overlaps the full queue.
        compute_holdup: Duration::from_millis(120),
        ..ServerConfig::default()
    };
    let server = Server::start(cfg).expect("bind saturation server");
    let addr = server.addr();

    // Thread accounting: everything up to here (harness + accept + workers
    // + pool) is the baseline; the flood may add the client threads and the
    // sampler but must NOT add a thread per distinct kernel.
    let threads_base = thread_count();
    let sampler_stop = std::sync::Arc::new(AtomicBool::new(false));
    let sampler = {
        let stop = sampler_stop.clone();
        std::thread::spawn(move || {
            let mut peak = thread_count();
            while !stop.load(Ordering::Relaxed) {
                peak = peak.max(thread_count());
                std::thread::sleep(Duration::from_millis(10));
            }
            peak
        })
    };

    let next = AtomicUsize::new(0);
    let barrier = Barrier::new(clients);
    let outcomes: Mutex<Vec<(usize, u16, bool)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| {
                let mut pooled = PooledClient::new(addr);
                barrier.wait();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= bodies.len() {
                        break;
                    }
                    let resp = pooled
                        .post("/optimize", &bodies[i])
                        .expect("saturation request");
                    let has_retry_after = resp.header("Retry-After").is_some();
                    outcomes
                        .lock()
                        .unwrap()
                        .push((i, resp.status, has_retry_after));
                }
            });
        }
    });
    sampler_stop.store(true, Ordering::Relaxed);
    let threads_peak = sampler.join().expect("sampler thread");
    let outcomes = outcomes.into_inner().unwrap();

    let mut first_pass_ok = 0usize;
    let mut rejected: Vec<usize> = Vec::new();
    for (i, status, has_retry_after) in &outcomes {
        match status {
            200 => first_pass_ok += 1,
            503 => {
                assert!(has_retry_after, "503 without Retry-After (body {i})");
                rejected.push(*i);
            }
            other => panic!("saturation request {i}: unexpected status {other}"),
        }
    }
    assert!(
        !rejected.is_empty(),
        "distinct-kernel flood saturated nothing (pool {pool_size}, queue {queue_cap})"
    );

    // Bounded threads: pool + connection workers + the flood's own client
    // threads + sampler + slack. A thread-per-request server would exceed
    // this by ~(distinct - queue_cap - pool) threads.
    let threads_bound = threads_base + clients as i64 + 1 + 4;
    if threads_base > 0 {
        assert!(
            threads_peak <= threads_bound,
            "thread count unbounded under flood: peak {threads_peak} > bound {threads_bound}"
        );
    }

    // Every rejected body must succeed when retried after the backoff.
    let mut retries = 0usize;
    for i in &rejected {
        let mut ok = false;
        for _ in 0..100 {
            std::thread::sleep(Duration::from_millis(50));
            retries += 1;
            let resp = client::post(addr, "/optimize", &bodies[*i]).expect("retry request");
            match resp.status {
                200 => {
                    ok = true;
                    break;
                }
                503 => continue,
                other => panic!("retry of body {i}: unexpected status {other}"),
            }
        }
        assert!(ok, "rejected body {i} never succeeded on retry");
    }

    // Settle, then check the books.
    let stats = loop {
        let stats =
            Json::parse(&client::get(addr, "/stats").expect("stats").body).expect("stats parse");
        if stat(&stats, "inflight") == 0.0 && stat(&stats, "queue_depth") == 0.0 {
            break stats;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    server.shutdown();
    assert_eq!(stat(&stats, "panics"), 0.0, "saturation caught panics");
    assert!(
        stat(&stats, "rejected") >= rejected.len() as f64,
        "server undercounted rejections"
    );
    assert_stats_invariant(&stats, "saturation phase");

    println!(
        "  saturation: {first_pass_ok}/{} first-pass 200s, {} rejected (503+Retry-After), \
         {retries} retries to drain; threads base {threads_base} peak {threads_peak} \
         (bound {threads_bound})",
        outcomes.len(),
        rejected.len(),
    );

    report.set("sat_pool_size", pool_size);
    report.set("sat_queue_cap", queue_cap);
    report.set("sat_clients", clients);
    report.set("sat_distinct_kernels", distinct);
    report.set("sat_first_pass_ok", first_pass_ok);
    report.set("sat_rejected", rejected.len());
    report.set("sat_retries", retries);
    report.set("sat_threads_base", threads_base);
    report.set("sat_threads_peak", threads_peak);
    report.set("sat_threads_bound", threads_bound);
    report.set("sat_server_rejected", stat(&stats, "rejected"));
    report.set("sat_server_ok", stat(&stats, "ok"));
    report.set("sat_server_orphaned", stat(&stats, "orphaned"));
}

fn main() {
    let mode = RunMode::from_args();
    let mut report = new_report("serve_bench", mode);
    run_load(mode, &mut report);
    run_saturation(mode, &mut report);
    write_report(&report);
}
