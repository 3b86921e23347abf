//! The two serve workloads, `serve_cold` and `serve_warm`: the bytes-in →
//! bytes-out clock of `POST /optimize` against one in-process
//! `Server::start(ServerConfig::default())`, driven closed-loop by one
//! keep-alive client per core.

use crate::compile::{
    check_twins, check_winners, compile_chain, layer_metrics, span_seconds, winner_metrics,
    Compiled, LayerSums, Twins, WinnerStats,
};
use crate::kernels::{self, Body};
use crate::report::{by_key, Checks, Metrics, Row, RunOutput};
use crate::stats::{geomean, median, quantile};
use crate::trace::{self, Recorder};
use crate::{RunArgs, Workload};
use prem_obs::Json;
use prem_serve::api::{parse_optimize_request, KernelSpec};
use prem_serve::client::Conn;
use prem_serve::{Server, ServerConfig};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Request bodies, the order they are sent in, and each body's first answer.
struct Traffic {
    bodies: Vec<Body>,
    /// Index into `bodies` of every request of one pass.
    sequence: Vec<u32>,
    /// The first 200 response seen for each body; every later answer to the
    /// same body must carry a byte-identical `result` object.
    first: Vec<OnceLock<String>>,
}

/// A booted server with its traffic, plus what checking the twins measured.
pub struct Setup {
    traffic: Traffic,
    server: Server,
    checks: Checks,
    twins: Twins,
}

impl Setup {
    /// Stops the server of a set-up that was only made to be timed.
    pub fn discard(self) {
        self.server.shutdown();
    }
}

/// Starts a server with the default configuration and waits for its first
/// `GET /health` 200.
fn boot(checks: &mut Checks) -> Server {
    let server = Server::start(ServerConfig::default()).expect("bind the loopback server");
    let deadline = Instant::now() + Duration::from_secs(10);
    let healthy = loop {
        let ok = Conn::connect(server.addr())
            .and_then(|mut c| c.request("GET", "/health", ""))
            .is_ok_and(|r| r.status == 200);
        if ok || Instant::now() > deadline {
            break ok;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    checks.check(healthy, || "server did not answer /health with 200".into());
    server
}

/// Generates the traffic, verifies the twins, boots the server and, for
/// `serve_warm`, sends the hot set once so that every timed request is a
/// response-cache read.
pub fn setup(workload: Workload, args: &RunArgs) -> Setup {
    let (bodies, sequence) = match workload {
        Workload::ServeCold => {
            let bodies = kernels::serve_cold(args.seed, args.smoke);
            let sequence = (0..bodies.len() as u32).collect();
            (bodies, sequence)
        }
        _ => kernels::serve_warm(args.seed, args.smoke),
    };
    let traffic = Traffic {
        first: bodies.iter().map(|_| OnceLock::new()).collect(),
        bodies,
        sequence,
    };
    let mut checks = Checks::default();
    let twins = check_twins(&mut checks);
    let server = boot(&mut checks);
    if workload == Workload::ServeWarm {
        let mut conn = Conn::connect(server.addr()).expect("connect to the server");
        for (index, body) in traffic.bodies.iter().enumerate() {
            let answer = conn.request("POST", "/optimize", &body.text);
            let ok = answer.as_ref().is_ok_and(|r| r.status == 200);
            checks.check(ok, || format!("{}: hot-set pre-send failed", body.row));
            if let (true, Ok(r)) = (ok, answer) {
                traffic.first[index].get_or_init(|| r.body);
            }
        }
    }
    Setup {
        traffic,
        server,
        checks,
        twins,
    }
}

/// The deterministic part of a response body: everything before the
/// wall-clock `telemetry` object.
fn result_part(body: &str) -> &str {
    body.rfind(",\"telemetry\":")
        .map_or(body, |end| &body[..end])
}

fn thread_count() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0.0)
}

/// One answered request.
struct Sample {
    /// Index of the body that was sent.
    body: usize,
    latency_s: f64,
    hit: bool,
    response_bytes: usize,
}

struct Pass {
    wall_s: f64,
    samples: Vec<Sample>,
    threads_peak: f64,
    /// `/stats` with the server idle after the pass.
    stats: Json,
}

/// Sends the whole sequence once: each client takes the next unsent request
/// when its previous one has been answered.
fn run_pass(
    addr: SocketAddr,
    traffic: &Traffic,
    recs: &mut [Recorder],
    checks: &mut Checks,
) -> Pass {
    let next = AtomicUsize::new(0);
    let clock = Instant::now();
    let mut per_client: Vec<(Vec<Sample>, Checks, f64)> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = recs
            .iter_mut()
            .map(|rec| scope.spawn(|| client_loop(addr, traffic, &next, rec)))
            .collect();
        for h in handles {
            per_client.push(h.join().expect("client thread panicked"));
        }
    });
    let wall_s = clock.elapsed().as_secs_f64();
    let mut pass = Pass {
        wall_s,
        samples: Vec::new(),
        threads_peak: 0.0,
        stats: Json::Null,
    };
    for (samples, client_checks, threads) in per_client {
        pass.samples.extend(samples);
        checks.absorb(client_checks);
        pass.threads_peak = pass.threads_peak.max(threads);
    }
    pass.stats = idle_stats(addr, checks);
    pass
}

fn client_loop(
    addr: SocketAddr,
    traffic: &Traffic,
    next: &AtomicUsize,
    rec: &mut Recorder,
) -> (Vec<Sample>, Checks, f64) {
    let mut samples = Vec::new();
    let mut checks = Checks::default();
    let mut threads_peak = thread_count();
    let mut conn: Option<Conn> = None;
    loop {
        let seq = next.fetch_add(1, Ordering::Relaxed);
        let Some(&index) = traffic.sequence.get(seq) else {
            break;
        };
        let body = &traffic.bodies[index as usize];
        // The server closes a connection after its per-connection request
        // bound; reconnecting is not part of the request's latency.
        if !conn.as_ref().is_some_and(Conn::is_open) {
            conn = Conn::connect(addr).ok();
        }
        let root = rec.open("serve.request", None, seq as u32);
        let clock = Instant::now();
        let answer = match conn.as_mut() {
            Some(c) => c.request("POST", "/optimize", &body.text),
            None => Err(std::io::Error::other("cannot connect")),
        };
        let latency_s = clock.elapsed().as_secs_f64();
        rec.close(root);
        match answer {
            Ok(r) if r.status == 200 => {
                let hit = r.header("x-prem-cache") == Some("hit");
                let response_bytes = r.body.len();
                let first = traffic.first[index as usize].get_or_init(|| r.body.clone());
                let (was, now) = (result_part(first), result_part(&r.body));
                checks.check(was == now, || {
                    let at = was.bytes().zip(now.bytes()).take_while(|(a, b)| a == b).count();
                    let context = |s: &str| {
                        let lo = at.saturating_sub(40);
                        String::from_utf8_lossy(&s.as_bytes()[lo..(at + 40).min(s.len())])
                            .into_owned()
                    };
                    format!(
                        "{}: result differs from the body's first answer at byte {at}: {:?} was {:?}",
                        body.row,
                        context(now),
                        context(was)
                    )
                });
                samples.push(Sample {
                    body: index as usize,
                    latency_s,
                    hit,
                    response_bytes,
                });
            }
            Ok(r) => checks.check(false, || format!("{}: status {}", body.row, r.status)),
            Err(e) => checks.check(false, || format!("{}: request failed: {e}", body.row)),
        }
        if seq.is_multiple_of(512) {
            threads_peak = threads_peak.max(thread_count());
        }
    }
    (samples, checks, threads_peak)
}

/// Reads `/stats` once the server is idle and checks the conservation law
/// `computed + coalesced + hits + rejected + invalid == ok + timeouts +
/// errors`.
fn idle_stats(addr: SocketAddr, checks: &mut Checks) -> Json {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = Conn::connect(addr)
            .and_then(|mut c| c.request("GET", "/stats", ""))
            .ok()
            .and_then(|r| Json::parse(&r.body).ok())
            .unwrap_or(Json::Null);
        let get = |key: &str| by_key(&stats, key).unwrap_or(f64::NAN);
        let idle = get("inflight") == 0.0 && get("queue_depth") == 0.0;
        if idle || Instant::now() > deadline {
            let admitted = get("computed")
                + get("coalesced")
                + get("response_cache_hits")
                + get("rejected")
                + get("invalid");
            let completed = get("ok") + get("timeouts") + get("errors");
            checks.check(idle && admitted == completed, || {
                format!("/stats does not balance at idle: {}", stats.to_compact())
            });
            return stats;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// What computing one sampled request directly, in process, showed.
struct Direct {
    body: usize,
    compute_s: f64,
    winners: WinnerStats,
}

/// Recomputes body `index` with a direct `optimize_app_timed` of the same
/// canonical request and requires the served `result` to match it: kernel
/// name, makespan bits, every winner's levels, `(R, K)` and execution count,
/// and the generated C byte for byte. Bundled kernels have no source to
/// recompute from; for them the served result is only checked for shape.
fn check_direct(
    rec: &mut Recorder,
    parent: Option<usize>,
    traffic: &Traffic,
    index: usize,
    layers: &mut LayerSums,
    checks: &mut Checks,
) -> Option<Direct> {
    let body = &traffic.bodies[index];
    let served = traffic.first[index]
        .get()
        .and_then(|text| Json::parse(text).ok());
    let Some(result) = served.as_ref().and_then(|j| j.get("result")) else {
        checks.check(false, || format!("{}: no served result to check", body.row));
        return None;
    };
    let request = match parse_optimize_request(&body.text) {
        Ok(r) => r,
        Err(e) => {
            checks.check(false, || {
                format!("{}: body rejected: {}", body.row, e.message)
            });
            return None;
        }
    };
    let KernelSpec::Source {
        name,
        source,
        params,
    } = &request.kernel
    else {
        let c = result.get("generated_c").and_then(Json::as_str);
        checks.check(c.is_some_and(|c| !c.is_empty()), || {
            format!("{}: served result carries no generated C", body.row)
        });
        return None;
    };
    let params: Vec<(&str, i64)> = params.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let root = rec.open("harness.direct_compile", parent, index as u32);
    let clock = Instant::now();
    let compiled = compile_chain(
        rec,
        root,
        name,
        source,
        &params,
        &request.platform,
        &request.options,
    );
    let compute_s = clock.elapsed().as_secs_f64();
    rec.close(root);
    let compiled = match compiled {
        Ok(c) => c,
        Err(e) => {
            checks.check(false, || {
                format!("{}: direct compile failed: {e}", body.row)
            });
            return None;
        }
    };
    checks.check(same_result(result, name, &compiled), || {
        format!(
            "{}: served result differs from the direct compile",
            body.row
        )
    });
    layers.add(&compiled);
    let winners = check_winners(rec, root, &body.row, &compiled, &request.platform, checks);
    Some(Direct {
        body: index,
        compute_s,
        winners,
    })
}

fn same_result(result: &Json, name: &str, compiled: &Compiled) -> bool {
    let ints = |j: Option<&Json>| -> Option<Vec<i64>> {
        j?.as_arr()?
            .iter()
            .map(|v| v.as_f64().map(|x| x as i64))
            .collect()
    };
    let outcome = &compiled.outcome;
    let bits = format!("{:016x}", outcome.makespan_ns.to_bits());
    let Some(components) = result.get("components").and_then(Json::as_arr) else {
        return false;
    };
    result.get("kernel").and_then(Json::as_str) == Some(name)
        && result.get("makespan_bits").and_then(Json::as_str) == Some(&bits)
        && result.get("generated_c").and_then(Json::as_str) == Some(&compiled.prem_c)
        && components.len() == outcome.components.len()
        && components.iter().zip(&outcome.components).all(|(s, c)| {
            let levels: Option<Vec<&str>> = s
                .get("levels")
                .and_then(Json::as_arr)
                .map(|l| l.iter().filter_map(Json::as_str).collect());
            ints(s.get("k")).as_ref() == Some(&c.solution.k)
                && ints(s.get("r")).as_ref() == Some(&c.solution.r)
                && levels.is_some_and(|l| l == c.level_names)
                && by_key(s, "exec_count") == Some(c.exec_count as f64)
                && by_key(s, "makespan_ns").map(f64::to_bits)
                    == Some(c.result.makespan_ns.to_bits())
        })
}

/// Median microseconds of `f` over `n` calls.
fn median_us(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let times: Vec<f64> = (0..n)
        .map(|i| {
            let clock = Instant::now();
            f(i);
            clock.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

/// Runs `serve_cold` or `serve_warm`.
pub fn run(workload: Workload, args: &RunArgs, setup: Setup, epoch: Instant) -> RunOutput {
    let Setup {
        traffic,
        mut server,
        mut checks,
        twins,
    } = setup;
    let cold = workload == Workload::ServeCold;
    let clients = std::thread::available_parallelism().map_or(1, |n| n.get());
    let budget = args.untraced_seconds();

    // Untraced passes. A cold pass needs empty caches, so every pass after
    // the first gets a freshly booted server (outside the timed section).
    let mut plain: Vec<Pass> = Vec::new();
    let mut disabled: Vec<Recorder> = (0..clients).map(|_| Recorder::new(false, epoch)).collect();
    let clock = Instant::now();
    let mut longest = 0.0f64;
    while plain.is_empty() || clock.elapsed().as_secs_f64() + longest <= budget {
        if cold && !plain.is_empty() {
            server.shutdown();
            server = boot(&mut checks);
        }
        let pass_clock = Instant::now();
        plain.push(run_pass(
            server.addr(),
            &traffic,
            &mut disabled,
            &mut checks,
        ));
        longest = longest.max(pass_clock.elapsed().as_secs_f64());
    }

    // One traced pass: a client-side span per request.
    let mut traced_recs: Vec<Recorder> = (0..clients)
        .map(|_| Recorder::new(args.trace, epoch))
        .collect();
    let mut traced = None;
    if args.trace {
        if cold {
            server.shutdown();
            server = boot(&mut checks);
        }
        traced = Some(run_pass(
            server.addr(),
            &traffic,
            &mut traced_recs,
            &mut checks,
        ));
    }

    // Layer probes against the idle server.
    let health_rtt_us = {
        let mut conn = Conn::connect(server.addr()).expect("connect to the server");
        median_us(200, |_| {
            let ok = conn
                .request("GET", "/health", "")
                .is_ok_and(|r| r.status == 200);
            checks.check(ok, || "GET /health failed".into());
        })
    };
    server.shutdown();

    let mut merged = Recorder::new(args.trace, epoch);
    let mut request_span = vec![None; traffic.bodies.len()];
    for rec in traced_recs {
        let base = merged.absorb(rec);
        for (offset, span) in merged.spans[base..].iter().enumerate() {
            let body = traffic.sequence[span.trace_id as usize] as usize;
            request_span[body].get_or_insert(base + offset);
        }
    }
    let mut layers = LayerSums::default();
    // Sampled server-vs-direct check: 1 in 8 of the distinct cold bodies, the
    // whole hot set.
    let directs: Vec<Direct> = (0..traffic.bodies.len())
        .filter(|&index| traffic.bodies[index].checked)
        .filter_map(|index| {
            check_direct(
                &mut merged,
                request_span[index],
                &traffic,
                index,
                &mut layers,
                &mut checks,
            )
        })
        .collect();

    // Rows: one per distinct body, over the untraced passes.
    let mut per_body: Vec<Vec<f64>> = vec![Vec::new(); traffic.bodies.len()];
    for sample in plain.iter().flat_map(|p| &p.samples) {
        per_body[sample.body].push(sample.latency_s);
    }
    let mut out = RunOutput {
        checks,
        ..RunOutput::default()
    };
    for (index, body) in traffic.bodies.iter().enumerate() {
        let direct = directs.iter().find(|d| d.body == index);
        out.rows.push(Row {
            name: body.row.clone(),
            median_ms: median(&per_body[index]) * 1e3,
            samples: per_body[index].len(),
            sim_makespan_ns: direct.map_or(0.0, |d| d.winners.sim_makespan_ns),
            out_bytes: traffic.first[index].get().map_or(0, String::len),
        });
    }

    let latencies: Vec<f64> = plain
        .iter()
        .flat_map(|p| p.samples.iter().map(|s| s.latency_s))
        .collect();
    let walls: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
    println!("pass walls {walls:.3?} s");
    let m = &mut out.metrics;
    m.set(
        "ops_per_s",
        median(
            &plain
                .iter()
                .map(|p| p.samples.len() as f64 / p.wall_s)
                .collect::<Vec<f64>>(),
        ),
    );
    m.set("op_p50_ms", median(&latencies) * 1e3);
    // The highest percentile with at least ten samples beyond it in one pass:
    // 400 cold requests support p95, 50 000 warm ones p99.
    let tail = if cold { 0.95 } else { 0.99 };
    m.set("op_tail_ms", quantile(&latencies, tail) * 1e3);
    m.set("op_geomean_ms", geomean(&latencies) * 1e3);
    let sim_ns: Vec<f64> = directs.iter().map(|d| d.winners.sim_makespan_ns).collect();
    m.set("sim_makespan_geomean_ns", geomean(&sim_ns));
    let bytes_per_op = |p: &Pass| {
        p.samples
            .iter()
            .map(|s| s.response_bytes as f64)
            .sum::<f64>()
            / p.samples.len() as f64
    };
    m.set(
        "out_bytes_per_op",
        median(&plain.iter().map(bytes_per_op).collect::<Vec<f64>>()),
    );

    let Some(traced) = traced else {
        return out;
    };
    serve_metrics(m, &traffic, &plain, &directs, health_rtt_us);
    layer_metrics(m, &[&merged], &layers, 1.0);
    let winners: Vec<WinnerStats> = directs.iter().map(|d| d.winners).collect();
    winner_metrics(m, &[&merged], &winners);
    twins.metrics(m);
    m.set(
        "harness.tracing_overhead_share",
        traced.wall_s / median(&walls) - 1.0,
    );
    m.set("harness.passes", plain.len() as f64);
    m.set("harness.clients", clients as f64);
    // The direct compiles are out-of-band children of their request spans:
    // the traced time is the requests plus the direct compiles.
    let direct_s = span_seconds(&[&merged], "harness.direct_compile");
    let traced_s = span_seconds(&[&merged], "serve.request") + direct_s;
    if direct_s > 0.0 {
        m.set(
            "harness.search_share",
            m.get("core.tiling_search_s").unwrap_or(0.0) / direct_s,
        );
    }
    let self_s = trace::self_times(&[&merged]);
    m.set(
        "harness.layer_sum_share",
        self_s.values().sum::<f64>() / traced_s,
    );
    trace::print_self_times(&self_s, traced_s);
    let names: Vec<String> = traffic
        .sequence
        .iter()
        .enumerate()
        .map(|(seq, &b)| format!("{seq}:{}", traffic.bodies[b as usize].row))
        .collect();
    trace::write(workload.name(), &[&merged], &names);
    out
}

/// The `serve.*`, `obs.*` and analysis-cache metrics.
fn serve_metrics(
    m: &mut Metrics,
    traffic: &Traffic,
    plain: &[Pass],
    directs: &[Direct],
    health_rtt_us: f64,
) {
    let bodies = &traffic.bodies;
    m.set(
        "serve.parse_request_us",
        median_us(bodies.len(), |i| {
            std::hint::black_box(parse_optimize_request(&bodies[i].text).is_ok());
        }),
    );
    let request_bytes: Vec<f64> = traffic
        .sequence
        .iter()
        .map(|&b| bodies[b as usize].text.len() as f64)
        .collect();
    m.set("serve.request_bytes_p50", median(&request_bytes));
    m.set("serve.health_rtt_us", health_rtt_us);
    let samples = || plain.iter().flat_map(|p| &p.samples);
    let hit_latencies: Vec<f64> = samples().filter(|s| s.hit).map(|s| s.latency_s).collect();
    m.set(
        "serve.hit_latency_p50_us",
        if hit_latencies.is_empty() {
            0.0
        } else {
            median(&hit_latencies) * 1e6
        },
    );
    m.set(
        "serve.hit_share",
        hit_latencies.len() as f64 / samples().count() as f64,
    );
    let response_bytes: Vec<f64> = samples().map(|s| s.response_bytes as f64).collect();
    m.set("serve.response_bytes_p50", median(&response_bytes));
    // Queue wait, serialisation and the socket: what a computed request costs
    // on top of computing it in process.
    let overheads: Vec<f64> = directs
        .iter()
        .filter_map(|d| {
            let computed: Vec<f64> = samples()
                .filter(|s| !s.hit && s.body == d.body)
                .map(|s| s.latency_s)
                .collect();
            (!computed.is_empty()).then(|| (median(&computed) - d.compute_s) * 1e3)
        })
        .collect();
    m.set(
        "serve.miss_overhead_ms",
        if overheads.is_empty() {
            0.0
        } else {
            median(&overheads)
        },
    );
    // Counters since the server booted, read after the first timed pass.
    let stats = &plain[0].stats;
    for (metric, key) in [
        ("serve.computed", "computed"),
        ("serve.coalesced", "coalesced"),
        ("serve.response_cache_hits", "response_cache_hits"),
        ("serve.rejected", "rejected"),
        ("serve.timeouts", "timeouts"),
        ("serve.errors", "errors"),
        ("serve.panics", "panics"),
        ("serve.orphaned", "orphaned"),
    ] {
        m.set(metric, by_key(stats, key).unwrap_or(-1.0));
    }
    m.set(
        "serve.threads_peak",
        plain.iter().map(|p| p.threads_peak).fold(0.0, f64::max),
    );
    let cache = stats.get("analysis_cache").unwrap_or(&Json::Null);
    for (metric, key) in [
        ("core.analysis_cache_entries", "entries"),
        ("core.analysis_cache_evictions", "evictions"),
        ("core.analysis_cache_admission_rejects", "admission_rejects"),
    ] {
        m.set(metric, by_key(cache, key).unwrap_or(-1.0));
    }

    // JSON throughput over the workload's own response bodies; the parsed
    // documents also carry each computation's `analysis_reuses`.
    let answers: Vec<&String> = traffic.first.iter().filter_map(OnceLock::get).collect();
    let megabytes = answers.iter().map(|a| a.len()).sum::<usize>() as f64 / 1e6;
    let clock = Instant::now();
    let parsed: Vec<Json> = answers.iter().filter_map(|a| Json::parse(a).ok()).collect();
    m.set(
        "obs.json_parse_mb_per_s",
        megabytes / clock.elapsed().as_secs_f64(),
    );
    let clock = Instant::now();
    let written: usize = parsed.iter().map(|j| j.to_compact().len()).sum();
    m.set(
        "obs.json_serialize_mb_per_s",
        written as f64 / 1e6 / clock.elapsed().as_secs_f64(),
    );
    let reuses = parsed
        .iter()
        .filter_map(|j| by_key(j.get("telemetry")?.get("search")?, "analysis_reuses"))
        .sum();
    m.set("core.analysis_reuses", reuses);
}
