//! `prem-serve` under a flood of distinct kernels: a full compute queue
//! answers structured 503s, the process thread count stays bounded however
//! many distinct kernels arrive, and every rejected body succeeds on retry.
//!
//! This suite is its own test binary so that no other test's threads show
//! up in `/proc/self/status` while the thread count is sampled.

use prem::obs::Json;
use prem::serve::{client, Server, ServerConfig};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Duration;

/// This process's thread count (`/proc/self/status`), or -1 where the file
/// does not exist.
fn thread_count() -> i64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|n| n.trim().parse().ok())
        })
        .unwrap_or(-1)
}

/// Polls `/stats` until no `/optimize` work is in flight, then returns the
/// parsed stats object.
fn settled_stats(addr: SocketAddr) -> Json {
    for _ in 0..500 {
        let stats =
            Json::parse(&client::get(addr, "/stats").expect("stats").body).expect("stats parse");
        let c = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap_or(-1.0);
        if c("inflight") == 0.0 && c("queue_depth") == 0.0 {
            return stats;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("server never settled");
}

#[test]
fn full_compute_queue_rejects_with_503_and_retry_after() {
    // Two compute threads, two queue slots and a 120 ms holdup: a flood of
    // twelve distinct kernels over eight keep-alive clients admits at most
    // four at a time; the rest must bounce with structured 503s.
    let (pool_size, queue_cap, clients) = (2, 2, 8);
    let server = Server::start(ServerConfig {
        workers: clients,
        pool_size,
        queue_cap,
        compute_holdup: Duration::from_millis(120),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr();
    // One matvec shape at twelve problem sizes: twelve canonical keys.
    let matvec = "double a[N][N]; double b[N]; double c[N]; \
                  for (int i = 0; i < N; i++) { c[i] = 0.0; \
                  for (int j = 0; j < N; j++) { c[i] = c[i] + a[i][j] * b[j]; } }";
    let bodies: Vec<String> = (0..12)
        .map(|n| {
            format!(
                "{{\"kernel\":{{\"source\":\"{matvec}\",\"name\":\"matvec\",\"params\":{{\"N\":{}}}}}}}",
                16 + n
            )
        })
        .collect();

    // Everything started so far (harness, accept loop, connection workers,
    // compute pool) is the base. The flood adds the client threads and the
    // sampler; a thread per computation would add one per admitted body.
    let threads_base = thread_count();
    let stop = AtomicBool::new(false);
    let next = AtomicUsize::new(0);
    let barrier = Barrier::new(clients);
    let responses: Mutex<Vec<(usize, client::Response)>> = Mutex::new(Vec::new());
    let threads_peak = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peak = thread_count();
            while !stop.load(Ordering::Relaxed) {
                peak = peak.max(thread_count());
                std::thread::sleep(Duration::from_millis(10));
            }
            peak
        });
        let flood: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut conn = client::Conn::connect(addr).expect("connect");
                    barrier.wait();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(body) = bodies.get(i) else { break };
                        let resp = conn.request("POST", "/optimize", body).expect("request");
                        assert!(conn.is_open(), "body {i}: keep-alive connection closed");
                        responses.lock().unwrap().push((i, resp));
                    }
                })
            })
            .collect();
        for client in flood {
            client.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        sampler.join().unwrap()
    });
    // Clients + sampler + four threads of slack (search fan-out workers).
    let threads_bound = threads_base + clients as i64 + 5;
    if threads_base > 0 {
        assert!(
            threads_peak <= threads_bound,
            "thread count unbounded under the flood: peak {threads_peak} > {threads_bound}"
        );
    }

    let mut rejected = Vec::new();
    for (i, resp) in responses.into_inner().unwrap() {
        match resp.status {
            200 => {}
            503 => {
                assert_eq!(
                    resp.header("Retry-After"),
                    Some("1"),
                    "503 must carry Retry-After"
                );
                assert_eq!(resp.header("X-Prem-Cache"), Some("rejected"));
                let err = Json::parse(&resp.body).expect("structured 503 body");
                assert_eq!(
                    err.get("error")
                        .and_then(|e| e.get("retry_after_s"))
                        .and_then(Json::as_f64),
                    Some(1.0)
                );
                rejected.push(i);
            }
            other => panic!("body {i}: unexpected status {other}: {}", resp.body),
        }
    }
    assert!(!rejected.is_empty(), "saturation produced no 503s");

    // Backpressure is advisory, not fatal: rejected bodies succeed on retry.
    for &i in &rejected {
        let mut ok = false;
        for _ in 0..100 {
            std::thread::sleep(Duration::from_millis(50));
            let resp = client::post(addr, "/optimize", &bodies[i]).expect("retry");
            if resp.status == 200 {
                ok = true;
                break;
            }
            assert_eq!(resp.status, 503, "{}", resp.body);
        }
        assert!(ok, "rejected body {i} never succeeded on retry");
    }

    // The `/stats` conservation law: every `/optimize` request is counted
    // once on admission and once on completion.
    let stats = settled_stats(addr);
    let c = |k: &str| {
        stats
            .get(k)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("stats missing {k}: {stats:?}"))
    };
    assert!(c("rejected") >= rejected.len() as f64);
    assert_eq!(c("panics"), 0.0);
    assert_eq!(
        c("computed") + c("coalesced") + c("response_cache_hits") + c("rejected") + c("invalid"),
        c("ok") + c("timeouts") + c("errors"),
        "stats invariant violated: {stats:?}"
    );
    server.shutdown();
}
