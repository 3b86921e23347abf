//! The benchmark's contract in one place: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` at the
//! repository root is generated from these tables (`--emit-benchmark-json`)
//! and the suite refuses to run when the two disagree.

use prem_obs::Json;

/// How long one driver run measures, in seconds.
pub const RUN_SECONDS: u64 = 20;

/// `(name, why)`.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "conv_deep",
        "search-bound: 7-deep GoogLeNet 3x3 conv nests at two bus speeds; tiling_search is >= 95 % of the source-to-PREM-C clock, front end and codegen must show nothing",
    ),
    (
        "nest_wide",
        "everything but the scan: whole-network sources of 64-192 tiny chained nests; component extraction, dependences, schedule build and a ~1 MB emit carry >= 25 % of the clock",
    ),
    (
        "serve_cold",
        "POST /optimize that computes: 400 all-distinct bodies, caches empty, one keep-alive client per core; the only workload that shares the AnalysisCache across requests",
    ),
    (
        "serve_warm",
        "POST /optimize that reads: 50000 requests Zipf(1.1) over a pre-sent 16-body hot set; HTTP, JSON, canonical key and body write are all the work, the compiler is idle",
    ),
];

/// `(name, unit, better, bound)`. An operation is one source → PREM C compile
/// (`conv_deep`, `nest_wide`) or one `POST /optimize` (`serve_*`).
pub const END_TO_END: [(&str, &str, &str, f64); 8] = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("op_geomean_ms", "ms", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.25),
    ("sim_makespan_geomean_ns", "ns", "lower", 0.05),
    ("out_bytes_per_op", "bytes", "lower", 0.10),
];

/// `(name, unit, better)`. The text before the first dot is the layer: the
/// crate the time or count belongs to.
pub const PER_LAYER: [(&str, &str, &str); 67] = [
    ("frontend.lex_s", "s", "lower"),
    ("frontend.parse_s", "s", "lower"),
    ("frontend.tokens", "count", "lower"),
    ("frontend.source_bytes", "bytes", "lower"),
    ("frontend.tokens_per_s", "1/s", "higher"),
    ("ir.lower_s", "s", "lower"),
    ("ir.stmts", "count", "lower"),
    ("polyhedral.dependence_s", "s", "lower"),
    ("polyhedral.deps", "count", "lower"),
    ("polyhedral.deps_per_s", "1/s", "higher"),
    ("core.looptree_build_s", "s", "lower"),
    ("core.looptree_nodes", "count", "lower"),
    ("core.component_extraction_s", "s", "lower"),
    ("core.components", "count", "lower"),
    ("core.tiling_search_s", "s", "lower"),
    ("core.search_us_per_eval", "us", "lower"),
    ("core.search_evals", "count", "lower"),
    ("core.search_fast_evals", "count", "lower"),
    ("core.search_full_builds", "count", "lower"),
    ("core.search_cache_hits", "count", "higher"),
    ("core.search_sweeps", "count", "lower"),
    ("core.search_pruned", "count", "higher"),
    ("core.search_feasible_share", "ratio", "higher"),
    ("core.evaluator_us", "us", "lower"),
    ("core.oracle_us", "us", "lower"),
    ("core.evaluator_oracle_mismatches", "count", "lower"),
    ("core.schedule_build_s", "s", "lower"),
    ("core.schedule_segments", "count", "lower"),
    ("core.schedule_memops", "count", "lower"),
    ("core.analysis_cache_entries", "count", "lower"),
    ("core.analysis_cache_evictions", "count", "lower"),
    ("core.analysis_cache_admission_rejects", "count", "lower"),
    ("core.analysis_reuses", "count", "higher"),
    ("sim.simcost_new_s", "s", "lower"),
    ("sim.simulate_s", "s", "lower"),
    ("sim.simulate_events", "count", "lower"),
    ("sim.model_gap_max", "ratio", "lower"),
    ("sim.funcsim_s", "s", "lower"),
    ("sim.funcsim_max_abs_diff", "ratio", "lower"),
    ("codegen.emit_s", "s", "lower"),
    ("codegen.bytes", "bytes", "lower"),
    ("codegen.bytes_per_s", "bytes/s", "higher"),
    ("serve.parse_request_us", "us", "lower"),
    ("serve.request_bytes_p50", "bytes", "lower"),
    ("serve.health_rtt_us", "us", "lower"),
    ("serve.hit_latency_p50_us", "us", "lower"),
    ("serve.hit_share", "ratio", "higher"),
    ("serve.response_bytes_p50", "bytes", "lower"),
    ("serve.miss_overhead_ms", "ms", "lower"),
    ("serve.computed", "count", "lower"),
    ("serve.coalesced", "count", "higher"),
    ("serve.response_cache_hits", "count", "higher"),
    ("serve.rejected", "count", "lower"),
    ("serve.timeouts", "count", "lower"),
    ("serve.errors", "count", "lower"),
    ("serve.panics", "count", "lower"),
    ("serve.orphaned", "count", "lower"),
    ("serve.threads_peak", "count", "lower"),
    ("obs.json_parse_mb_per_s", "MB/s", "higher"),
    ("obs.json_serialize_mb_per_s", "MB/s", "higher"),
    ("harness.tracing_overhead_share", "ratio", "lower"),
    ("harness.search_share", "ratio", "lower"),
    ("harness.layer_sum_share", "ratio", "higher"),
    ("harness.selection_changes", "count", "lower"),
    ("harness.build_s", "s", "lower"),
    ("harness.passes", "count", "higher"),
    ("harness.clients", "count", "higher"),
];

/// Unit of a metric of either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|&(n, u, _, _)| (n, u))
        .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .find(|&(n, _)| n == name)
        .map(|(_, u)| u)
}

/// Regression bound of an end-to-end metric.
pub fn bound_of(name: &str) -> Option<f64> {
    END_TO_END
        .iter()
        .find(|&&(n, ..)| n == name)
        .map(|&(.., b)| b)
}

/// The `BENCHMARK.json` document these tables describe.
pub fn benchmark_json() -> String {
    let workloads = WORKLOADS
        .iter()
        .map(|&(name, why)| Json::obj([("name", name), ("why", why)]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|&(name, unit, better, bound)| {
            Json::obj::<&str, Json>([
                ("name", Json::from(name)),
                ("unit", Json::from(unit)),
                ("better", Json::from(better)),
                ("bound", Json::from(bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|&(name, unit, better)| {
            Json::obj([("name", name), ("unit", unit), ("better", better)])
        })
        .collect();
    Json::obj::<&str, Json>([
        ("command", Json::from(vec!["bash", "benchmark/run.sh"])),
        ("paths", Json::from(vec!["benchmark"])),
        ("run_seconds", Json::from(RUN_SECONDS as usize)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
    ])
    .to_pretty()
}
