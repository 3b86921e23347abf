//! Integration tests for the `prem-serve` optimization server: responses
//! must be bitwise-identical to driving the optimizer directly, identical
//! concurrent requests must coalesce onto one computation, a corpus of
//! malformed inputs must come back as structured errors — never 500s,
//! panics or aborts — and the server must account orphaned computations,
//! survive lock poisoning, and keep the `/stats` conservation invariant
//! balanced. Overload (503 + `Retry-After`, bounded threads) is
//! `tests/serve_saturation.rs`.

use prem::codegen::{emit_prem_c, EmitComponent};
use prem::core::{optimize_app, LoopTree, OptimizerOptions, Platform};
use prem::ir::Program;
use prem::obs::Json;
use prem::serve::{client, Server, ServerConfig};
use prem::sim::SimCost;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::Duration;

fn start() -> Server {
    Server::start(ServerConfig {
        workers: 8,
        // Pinned pool/queue so the functional tests never see backpressure
        // regardless of the host's core count.
        pool_size: 2,
        queue_cap: 16,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral server")
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

/// The `/stats` conservation law: every `/optimize` request is counted once
/// on admission (computed / coalesced / hit / rejected / invalid) and once
/// on completion (ok / timeouts / errors).
fn assert_stats_invariant(stats: &Json) {
    let c = |k: &str| {
        stats
            .get(k)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("stats missing {k}: {stats:?}"))
    };
    assert_eq!(
        c("computed") + c("coalesced") + c("response_cache_hits") + c("rejected") + c("invalid"),
        c("ok") + c("timeouts") + c("errors"),
        "stats invariant violated: {stats:?}"
    );
}

fn builtin(kernel: &str) -> Program {
    prem::kernels::all_small()
        .into_iter()
        .find(|(n, _)| *n == kernel)
        .map(|(_, p)| p)
        .expect("builtin kernel")
}

/// `POST /optimize` answered with a 200: the parsed body.
fn optimize(addr: SocketAddr, body: &str) -> Json {
    let resp = client::post(addr, "/optimize", body).expect("request");
    assert_eq!(resp.status, 200, "{body}: {}", resp.body);
    Json::parse(&resp.body).expect("response parses")
}

/// Asserts that a served `result` object is what driving the optimizer
/// directly — with the default options the server applies when the request
/// carries none — yields for `program` on `platform`.
fn assert_matches_direct(result: &Json, program: &Program, platform: &Platform) {
    let kernel = &program.name;
    let tree = LoopTree::build(program).expect("kernel lowers");
    let cost = SimCost::new(program);
    let outcome = optimize_app(
        &tree,
        program,
        platform,
        &cost,
        &OptimizerOptions::default(),
    );
    let emit: Vec<EmitComponent> = outcome
        .components
        .iter()
        .map(|c| EmitComponent {
            component: c.component.clone(),
            solution: c.solution.clone(),
        })
        .collect();
    let generated = emit_prem_c(program, &emit, platform).expect("emits");

    assert_eq!(
        result.get("kernel").and_then(Json::as_str),
        Some(kernel.as_str())
    );
    assert_eq!(
        result.get("makespan_bits").and_then(Json::as_str),
        Some(format!("{:016x}", outcome.makespan_ns.to_bits()).as_str()),
        "{kernel}: makespan differs from direct optimize_app"
    );
    let comps = match result.get("components") {
        Some(Json::Arr(c)) => c,
        other => panic!("components: {other:?}"),
    };
    assert_eq!(comps.len(), outcome.components.len());
    for (served, computed) in comps.iter().zip(&outcome.components) {
        assert_eq!(
            ints(served.get("k").unwrap()),
            computed.solution.k,
            "{kernel} K"
        );
        assert_eq!(
            ints(served.get("r").unwrap()),
            computed.solution.r,
            "{kernel} R"
        );
    }
    assert_eq!(
        result.get("generated_c").and_then(Json::as_str),
        Some(generated.as_str()),
        "{kernel}: generated C differs from direct emit_prem_c"
    );
}

fn ints(v: &Json) -> Vec<i64> {
    match v {
        Json::Arr(items) => items
            .iter()
            .map(|x| x.as_f64().expect("integer array") as i64)
            .collect(),
        _ => panic!("expected array, got {v:?}"),
    }
}

#[test]
fn server_responses_match_direct_optimization() {
    let server = start();
    let cases = [
        (
            "cnn",
            r#"{"kernel":{"builtin":"cnn"}}"#,
            Platform::default(),
        ),
        (
            "maxpool",
            r#"{"kernel":{"builtin":"maxpool"},"platform":{"spm_kib":64}}"#,
            Platform {
                spm_bytes: 64 * 1024,
                ..Platform::default()
            },
        ),
    ];
    for (kernel, body, platform) in cases {
        let json = optimize(server.addr(), body);
        let result = json.get("result").expect("result object");
        assert_matches_direct(result, &builtin(kernel), &platform);
    }
    server.shutdown();
}

/// Concurrent computations share the cores: with `pool_size` equal to the
/// core count and every pool thread computing, each search runs on its own
/// pool thread and spawns no workers — the server never runs cores² search
/// threads. A lone request may still fan out over the cores.
#[test]
fn a_full_pool_runs_each_search_on_its_pool_thread() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let server = Server::start(ServerConfig {
        workers: cores + 1,
        pool_size: cores,
        queue_cap: cores,
        // Holds every computation until all of them are running.
        compute_holdup: Duration::from_millis(300),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral server");
    let addr = server.addr();
    let body =
        |seed: usize| format!(r#"{{"kernel":{{"builtin":"cnn"}},"options":{{"seed":{seed}}}}}"#);
    let search = |json: &Json| {
        json.get("telemetry")
            .and_then(|t| t.get("search"))
            .expect("search telemetry")
            .clone()
    };
    let count = |search: &Json, key: &str| search.get(key).and_then(Json::as_f64);
    let barrier = Barrier::new(cores);
    let served: Vec<Json> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cores)
            .map(|seed| {
                let (barrier, body) = (&barrier, body(seed));
                s.spawn(move || {
                    barrier.wait();
                    optimize(addr, &body)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for json in &served {
        let search = search(json);
        assert_eq!(count(&search, "workers_spawned"), Some(0.0), "{search:?}");
        assert!(
            count(&search, "units").is_some_and(|u| u > 1.0),
            "{search:?}"
        );
    }
    let alone = search(&optimize(addr, &body(cores)));
    assert!(
        count(&alone, "workers_spawned").is_some_and(|w| w < cores as f64),
        "{alone:?}"
    );
    server.shutdown();
}

/// Requests share no optimizer state. Kernel B has kernel A's loop ids,
/// extents, flags and fitted execution model but other array shapes and
/// access maps — the pair the deleted id-keyed shared analysis cache took for
/// one structure, answering B after A with A's analyses (`K=[4,64] R=[8,1]`,
/// +31 % makespan, instead of `K=[16,16] R=[2,4]`).
#[test]
fn requests_share_no_optimizer_state() {
    const NEST: &str = "for (int i = 0; i < 64; i++) for (int j = 0; j < 64; j++)";
    let a = format!("float x[64][64]; float y[64][64]; {NEST} y[i][j] = x[i][j] * 2.0;");
    let b = format!("float x[64][256]; float y[64][64]; {NEST} y[i][j] = x[j][3 * i] * 2.0;");
    let body = |source: &str| {
        Json::obj::<&str, Json>([
            (
                "kernel",
                Json::obj::<&str, Json>([("source", Json::from(source))]),
            ),
            (
                "platform",
                Json::obj::<&str, Json>([("spm_kib", Json::from(8i64))]),
            ),
        ])
        .to_compact()
    };
    let result = |server: &Server, source: &str| {
        let json = optimize(server.addr(), &body(source));
        json.get("result").expect("result object").clone()
    };

    let fresh = start();
    let b_first = result(&fresh, &b);
    fresh.shutdown();
    let server = start();
    result(&server, &a);
    let b_after_a = result(&server, &b);
    server.shutdown();

    assert_eq!(
        b_after_a.to_compact(),
        b_first.to_compact(),
        "kernel B's answer depends on what the server computed before it"
    );
    let platform = Platform {
        spm_bytes: 8 * 1024,
        ..Platform::default()
    };
    let program = prem::frontend::parse_kernel("kernel", &b, &[]).expect("kernel B parses");
    assert_matches_direct(&b_after_a, &program, &platform);
}

#[test]
fn identical_concurrent_requests_coalesce() {
    let server = start();
    let addr = server.addr();
    let body = r#"{"kernel":{"builtin":"sumpool"},"platform":{"bus_gbytes":2}}"#;
    let clients = 8;
    let barrier = Barrier::new(clients);
    let responses: Vec<(u16, String, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    let resp = client::post(addr, "/optimize", body).expect("request");
                    let cache = resp.header("X-Prem-Cache").unwrap_or("?").to_string();
                    (resp.status, cache, resp.body)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (status, _, resp_body) in &responses {
        assert_eq!(*status, 200, "{resp_body}");
        assert_eq!(
            resp_body, &responses[0].2,
            "coalesced responses must be byte-identical"
        );
    }
    let dispositions: Vec<&str> = responses.iter().map(|(_, c, _)| c.as_str()).collect();
    assert_eq!(
        dispositions.iter().filter(|c| **c == "miss").count(),
        1,
        "exactly one leader expected: {dispositions:?}"
    );

    let stats = settled_stats(addr);
    let count = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap_or(-1.0);
    assert_eq!(count("computed"), 1.0, "duplicates were not coalesced");
    assert_eq!(
        count("coalesced") + count("response_cache_hits"),
        (clients - 1) as f64
    );
    assert_eq!(count("panics"), 0.0);
    assert_stats_invariant(&stats);
    server.shutdown();
}

#[test]
fn malformed_requests_get_structured_errors_not_500s() {
    let server = start();
    let addr = server.addr();
    let broken_kernels = [
        // Lexer/parser breakage: junk, truncation, unterminated constructs.
        "@#$%^&*",
        "for (",
        "float a[10; for (int i = 0; i < 10; i++) a[i] = 0.0;",
        "for (int i = 0; i < 10; i++) { a[i] = 0.0;",
        "float a[10]; for (int i = 10; i > 0; i--) a[i] = 0.0;",
        // Semantic breakage: unknown parameter, zero-size array, arity.
        "float a[N]; for (int i = 0; i < N; i++) a[i] = 0.0;",
        "float a[0]; a[0] = 1.0;",
        "float a[4][4]; for (int i = 0; i < 4; i++) a[i] = 1.0;",
        // Resource-bound breakage: loop count and nesting caps.
        "float a[8]; for (int i = 0; i < 99999999999; i++) a[0] = 1.0;",
        &{
            let mut s = String::from("float a[8]; ");
            for i in 0..70 {
                s.push_str(&format!("for (int i{i} = 0; i{i} < 2; i{i}++) {{ "));
            }
            s.push_str("a[0] = 1.0; ");
            s.push_str(&"} ".repeat(70));
            s
        },
    ];
    for (i, source) in broken_kernels.iter().enumerate() {
        let body = Json::obj::<&str, Json>([(
            "kernel",
            Json::obj::<&str, Json>([("source", Json::from(*source))]),
        )])
        .to_compact();
        let resp = client::post(addr, "/optimize", &body).expect("request");
        assert_eq!(resp.status, 422, "corpus[{i}]: {}", resp.body);
        let err = Json::parse(&resp.body)
            .expect("error body parses")
            .get("error")
            .and_then(|e| e.get("message").and_then(Json::as_str).map(String::from))
            .unwrap_or_else(|| panic!("corpus[{i}]: unstructured error {}", resp.body));
        assert!(!err.is_empty(), "corpus[{i}]");
    }

    // Protocol- and schema-level garbage.
    for (body, want) in [
        ("{not json", 400),
        ("[1,2,3]", 422),
        (r#"{"kernel":{"builtin":"nope"}}"#, 422),
        (
            r#"{"kernel":{"builtin":"cnn"},"platform":{"cores":"many"}}"#,
            422,
        ),
        (r#"{"kernel":{"builtin":"cnn"},"mystery":1}"#, 422),
        // A removed option is an unknown field like any other.
        (
            r#"{"kernel":{"builtin":"cnn"},"options":{"batched":true}}"#,
            422,
        ),
        (
            r#"{"kernel":{"builtin":"cnn"},"options":{"adaptive":true}}"#,
            422,
        ),
        // Over the per-kernel source cap, under the HTTP body cap.
        (
            &format!(
                r#"{{"kernel":{{"source":{}}}}}"#,
                Json::from("x".repeat(300_000)).to_compact()
            ),
            422,
        ),
    ] {
        let resp = client::post(addr, "/optimize", body).expect("request");
        assert_eq!(resp.status, want, "{}", &body[..body.len().min(80)]);
        assert!(resp.body.contains("\"error\""), "{}", resp.body);
    }
    assert_eq!(client::get(addr, "/nope").expect("404").status, 404);
    assert_eq!(
        client::request(addr, "DELETE", "/optimize", "")
            .expect("405")
            .status,
        405
    );

    // The server survived the whole corpus, and the books still balance:
    // every malformed /optimize request is one `invalid` and one `errors`.
    let health = client::get(addr, "/health").expect("health");
    assert_eq!(health.status, 200);
    let stats = settled_stats(addr);
    assert_eq!(stats.get("panics").and_then(Json::as_f64), Some(0.0));
    assert!(stats.get("invalid").and_then(Json::as_f64).unwrap_or(0.0) > 0.0);
    assert_stats_invariant(&stats);
    server.shutdown();
}

#[test]
fn keep_alive_serves_sequential_requests_on_one_connection() {
    let server = start();
    let mut conn = client::Conn::connect(server.addr()).expect("connect");
    // Mixed endpoints, one socket: compute, cached repeat, health, then
    // every bundled kernel.
    let body = r#"{"kernel":{"builtin":"maxpool"}}"#;
    let first = conn.request("POST", "/optimize", body).expect("request 1");
    assert_eq!(first.status, 200, "{}", first.body);
    assert!(first.keep_alive(), "server dropped keep-alive");
    let second = conn.request("POST", "/optimize", body).expect("request 2");
    assert_eq!(second.status, 200);
    assert_eq!(second.header("X-Prem-Cache"), Some("hit"));
    assert_eq!(
        first.body, second.body,
        "cached repeat must be byte-identical"
    );
    let health = conn.request("GET", "/health", "").expect("request 3");
    assert_eq!(health.status, 200);
    for name in prem::serve::api::builtin_names() {
        let body = format!(r#"{{"kernel":{{"builtin":"{name}"}}}}"#);
        let resp = conn.request("POST", "/optimize", &body).expect(name);
        assert_eq!(resp.status, 200, "{name}: {}", resp.body);
        assert!(
            resp.body.contains("\"feasible\":true"),
            "{name}: {}",
            resp.body
        );
        assert!(
            conn.is_open(),
            "{name}: server closed a keep-alive connection"
        );
    }
    assert!(conn.is_open(), "connection should survive all requests");

    // `Connection: close` is honored per request: the one-shot client path
    // sends it and the server answers in kind.
    let closed = client::get(server.addr(), "/health").expect("one-shot");
    assert_eq!(closed.status, 200);
    assert!(
        !closed.keep_alive(),
        "close request got a keep-alive answer"
    );

    drop(conn);
    let stats = settled_stats(server.addr());
    assert_stats_invariant(&stats);
    // `POST /shutdown` stops the server from outside: `wait` returns.
    let bye = client::post(server.addr(), "/shutdown", "").expect("shutdown");
    assert_eq!(bye.status, 200, "{}", bye.body);
    server.wait();
}

#[test]
fn pipelined_requests_get_sequential_responses() {
    use std::io::{Read, Write};
    let server = start();
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // Two complete requests in one write; the server must answer both, in
    // order, on the same connection.
    let batch = "GET /health HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n\
                 GET /health HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";
    stream.write_all(batch.as_bytes()).expect("write batch");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read responses");
    let text = String::from_utf8(raw).expect("utf8");
    assert_eq!(
        text.matches("HTTP/1.1 200 OK").count(),
        2,
        "expected two pipelined responses: {text:?}"
    );
    assert_eq!(text.matches("{\"ok\":true}").count(), 2);
    assert!(
        text.contains("Connection: keep-alive") && text.contains("Connection: close"),
        "first response keeps alive, second honors close: {text:?}"
    );
    server.shutdown();
}

#[test]
fn connection_request_bound_is_enforced() {
    let server = Server::start(ServerConfig {
        workers: 2,
        pool_size: 1,
        queue_cap: 4,
        max_conn_requests: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let mut conn = client::Conn::connect(server.addr()).expect("connect");
    let a = conn.request("GET", "/health", "").expect("request 1");
    assert!(a.keep_alive());
    let b = conn.request("GET", "/health", "").expect("request 2");
    assert!(
        !b.keep_alive(),
        "request bound reached: server must answer Connection: close"
    );
    assert!(!conn.is_open());
    assert!(
        conn.request("GET", "/health", "").is_err(),
        "closed connection must not accept further requests"
    );
    server.shutdown();
}

#[test]
fn graceful_stop_finishes_the_computations_it_accepted() {
    // One compute thread, two queue slots and a 100 ms holdup: of three
    // simultaneous distinct kernels one runs and the others queue. A stop
    // issued while work is queued must still answer every client with its
    // 200 — accepted computations are drained, never dropped.
    let server = Server::start(ServerConfig {
        workers: 4,
        pool_size: 1,
        queue_cap: 2,
        compute_holdup: Duration::from_millis(100),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr();
    let bodies: Vec<String> = (0..3)
        .map(|n| {
            format!(
                "{{\"kernel\":{{\"source\":\"double a[{len}]; for (int i = 0; i < {len}; i++) a[i] = 1.0;\",\"name\":\"fill\"}}}}",
                len = 24 + n
            )
        })
        .collect();
    let barrier = Barrier::new(bodies.len());
    let responses: Vec<client::Response> = std::thread::scope(|s| {
        let handles: Vec<_> = bodies
            .iter()
            .map(|body| {
                s.spawn(|| {
                    barrier.wait();
                    client::post(addr, "/optimize", body).expect("request")
                })
            })
            .collect();
        let queued = (0..1000).any(|_| {
            let stats = Json::parse(&client::get(addr, "/stats").expect("stats").body)
                .expect("stats parse");
            let depth = stats.get("queue_depth").and_then(Json::as_f64);
            depth.is_some_and(|d| d >= 1.0) || {
                std::thread::sleep(Duration::from_millis(5));
                false
            }
        });
        assert!(queued, "no computation was ever queued");
        server.shutdown();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (body, resp) in bodies.iter().zip(&responses) {
        assert_eq!(resp.status, 200, "{body}: {}", resp.body);
    }
}

#[test]
fn timed_out_request_is_orphaned_then_served_from_cache() {
    // A zero request timeout makes the leader 504 immediately while its
    // computation keeps running in the pool. The finished computation must
    // be counted as orphaned and still land in the response cache, so the
    // retry is a byte-stable cache hit matching a direct optimize_app run.
    let server = Server::start(ServerConfig {
        workers: 4,
        pool_size: 1,
        queue_cap: 4,
        request_timeout: Duration::ZERO,
        compute_holdup: Duration::from_millis(50),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr();
    let body = r#"{"kernel":{"builtin":"sumpool"},"platform":{"spm_kib":64}}"#;
    let resp = client::post(addr, "/optimize", body).expect("request");
    assert_eq!(resp.status, 504, "{}", resp.body);
    assert_eq!(resp.header("X-Prem-Cache"), Some("timeout"));

    // The orphan finishes in the background and is accounted.
    let stats = settled_stats(addr);
    let c = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap_or(-1.0);
    assert_eq!(c("orphaned"), 1.0, "orphan not counted: {stats:?}");
    assert_eq!(c("timeouts"), 1.0);
    assert_stats_invariant(&stats);

    // The retry is served from the response cache (no wait, so the zero
    // timeout cannot 504 it) and matches a direct optimizer run bit-for-bit.
    let retry = client::post(addr, "/optimize", body).expect("retry");
    assert_eq!(retry.status, 200, "{}", retry.body);
    assert_eq!(retry.header("X-Prem-Cache"), Some("hit"));
    let result = Json::parse(&retry.body)
        .expect("parses")
        .get("result")
        .cloned()
        .expect("result object");
    let platform = Platform {
        spm_bytes: 64 * 1024,
        ..Platform::default()
    };
    assert_matches_direct(&result, &builtin("sumpool"), &platform);
    let stats = settled_stats(addr);
    assert_stats_invariant(&stats);
    server.shutdown();
}

#[test]
fn poisoned_locks_recover_instead_of_cascading_500s() {
    let server = start();
    let addr = server.addr();
    // Poison every server-side mutex by panicking while holding each one.
    server.state().poison_locks_for_test();
    // Every path that touches a poisoned lock must still work: a fresh
    // computation (inflight map + pool queue), its cached repeat (response
    // cache), and /stats (inflight map again).
    let body = r#"{"kernel":{"builtin":"rnn"}}"#;
    let first = client::post(addr, "/optimize", body).expect("request after poison");
    assert_eq!(first.status, 200, "{}", first.body);
    let second = client::post(addr, "/optimize", body).expect("repeat after poison");
    assert_eq!(second.status, 200);
    assert_eq!(second.header("X-Prem-Cache"), Some("hit"));
    assert_eq!(first.body, second.body);
    let stats = settled_stats(addr);
    assert_stats_invariant(&stats);
    server.shutdown();
}

#[test]
fn request_table_evicts_the_oldest_done_body() {
    let server = Server::start(ServerConfig {
        workers: 2,
        pool_size: 1,
        queue_cap: 4,
        response_cache_cap: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr();
    let body = |spm_kib: u32| {
        format!(r#"{{"kernel":{{"builtin":"rnn"}},"platform":{{"spm_kib":{spm_kib}}}}}"#)
    };
    let disposition = |spm_kib: u32| {
        let resp = client::post(addr, "/optimize", &body(spm_kib)).expect("request");
        assert_eq!(resp.status, 200, "{}", resp.body);
        resp.header("X-Prem-Cache").unwrap_or("?").to_string()
    };
    for spm_kib in [32, 64, 128] {
        assert_eq!(disposition(spm_kib), "miss");
    }
    // Two done slots fit: the first body was evicted, the third was not.
    assert_eq!(
        disposition(32),
        "miss",
        "the oldest done body was not evicted"
    );
    assert_eq!(disposition(128), "hit");
    let stats = settled_stats(addr);
    let c = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap_or(-1.0);
    assert_eq!((c("computed"), c("response_cache_hits")), (4.0, 1.0));
    assert_eq!(c("inflight"), 0.0);
    assert_stats_invariant(&stats);
    server.shutdown();
}

#[test]
fn stats_invariant_balances_across_mixed_traffic() {
    let server = start();
    let addr = server.addr();
    // ok computes
    for body in [
        r#"{"kernel":{"builtin":"cnn"}}"#,
        r#"{"kernel":{"builtin":"lstm"}}"#,
    ] {
        assert_eq!(client::post(addr, "/optimize", body).unwrap().status, 200);
    }
    // response-cache hit
    assert_eq!(
        client::post(addr, "/optimize", r#"{"kernel":{"builtin":"cnn"}}"#)
            .unwrap()
            .status,
        200
    );
    // invalid: schema violation and non-JSON
    assert_eq!(
        client::post(addr, "/optimize", r#"{"kernel":7}"#)
            .unwrap()
            .status,
        422
    );
    assert_eq!(
        client::post(addr, "/optimize", "{nope").unwrap().status,
        400
    );
    // coalesced wave on a fresh body
    let wave_body = r#"{"kernel":{"builtin":"maxpool"},"platform":{"bus_gbytes":2}}"#;
    let barrier = Barrier::new(4);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                barrier.wait();
                assert_eq!(
                    client::post(addr, "/optimize", wave_body).unwrap().status,
                    200
                );
            });
        }
    });

    let stats = settled_stats(addr);
    let c = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap_or(-1.0);
    assert_eq!(c("invalid"), 2.0);
    assert_eq!(c("errors"), 2.0, "validation failures land in errors");
    assert_eq!(c("timeouts"), 0.0);
    assert_eq!(c("rejected"), 0.0);
    assert_eq!(c("orphaned"), 0.0);
    assert_eq!(c("computed"), 3.0, "cnn, lstm, maxpool");
    assert_stats_invariant(&stats);
    server.shutdown();
}
