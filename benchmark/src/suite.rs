//! Suite mode: runs the workloads as child processes (so `peak_rss_mib` is
//! per workload), untraced then traced, validates what they print against the
//! schema, writes `benchmark/out/results.json` and, with `--repeat K`,
//! reports how well K sets of runs of the same build agree.

use crate::stats::median;
use crate::{hygiene, schema, RunArgs, Workload};
use prem_obs::Json;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// Metrics that must repeat bit for bit between runs of one build on one
/// seed. (`out_bytes_per_op` is exact for the compile workloads only: a
/// served body carries wall-clock telemetry of varying length.)
const EXACT: [&str; 33] = [
    "sim_makespan_geomean_ns",
    "frontend.tokens",
    "frontend.source_bytes",
    "ir.stmts",
    "polyhedral.deps",
    "core.looptree_nodes",
    "core.components",
    "core.search_evals",
    "core.search_fast_evals",
    "core.search_full_builds",
    "core.search_cache_hits",
    "core.search_sweeps",
    "core.search_pruned",
    "core.search_feasible_share",
    "core.evaluator_oracle_mismatches",
    "core.schedule_segments",
    "core.schedule_memops",
    "sim.simulate_events",
    "sim.model_gap_max",
    "sim.funcsim_max_abs_diff",
    "codegen.bytes",
    "serve.request_bytes_p50",
    "serve.hit_share",
    "serve.computed",
    "serve.coalesced",
    "serve.response_cache_hits",
    "serve.rejected",
    "serve.timeouts",
    "serve.errors",
    "serve.panics",
    "serve.orphaned",
    "harness.selection_changes",
    "harness.clients",
];

/// One child's result object.
struct ChildResult {
    workload: Workload,
    trace: bool,
    failed: f64,
    metrics: Vec<(String, f64)>,
    json: Json,
}

/// Runs one workload in a child process, echoing its output, and checks the
/// result object it prints last against the schema.
fn run_child(workload: Workload, args: &RunArgs, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--build-s", &args.build_s.to_string()]);
    if args.smoke {
        command.arg("--smoke");
    }
    if args.write_expected && !trace {
        command.arg("--write-expected");
    }
    let mut child = command
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start the {} child: {e}", workload.name()))?;
    let mut last = String::new();
    for line in BufReader::new(child.stdout.take().expect("piped stdout")).lines() {
        let line = line.map_err(|e| format!("reading child output: {e}"))?;
        if !line.starts_with('{') {
            println!("{line}");
        }
        last = line;
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for child: {e}"))?;
    if !status.success() {
        return Err(format!("{} child exited with {status}", workload.name()));
    }
    let json = Json::parse(&last).map_err(|e| format!("last line is not JSON: {e}"))?;
    let Json::Obj(top) = &json else {
        return Err("result is not a JSON object".into());
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result keys are {keys:?}"));
    }
    let number = |key: &str| json.get(key).and_then(Json::as_f64);
    let (Some(attempted), Some(failed)) = (number("attempted"), number("failed")) else {
        return Err("attempted/failed are not numbers".into());
    };
    if attempted < 1.0 || json.get("correct").and_then(Json::as_bool) != Some(failed == 0.0) {
        return Err(format!(
            "inconsistent counts: attempted {attempted}, failed {failed}"
        ));
    }
    let expected: Vec<(&str, &str)> = if trace {
        schema::PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
    } else {
        schema::END_TO_END
            .iter()
            .map(|&(n, u, ..)| (n, u))
            .collect()
    };
    let Some(Json::Obj(reported)) = json.get("metrics") else {
        return Err("metrics is not an object".into());
    };
    if reported.len() != expected.len() {
        return Err(format!(
            "{} metrics reported, schema has {}",
            reported.len(),
            expected.len()
        ));
    }
    let mut metrics = Vec::new();
    for ((name, entry), (want_name, want_unit)) in reported.iter().zip(expected) {
        let value = entry.get("value").and_then(Json::as_f64);
        let unit = entry.get("unit").and_then(Json::as_str);
        match (value, unit) {
            (Some(v), Some(u)) if name == want_name && u == want_unit => {
                if !trace && v == 0.0 {
                    return Err(format!("end-to-end metric {name} is 0"));
                }
                metrics.push((name.clone(), v));
            }
            _ => return Err(format!("metric {name}: want {want_name} in {want_unit}")),
        }
    }
    Ok(ChildResult {
        workload,
        trace,
        failed,
        metrics,
        json,
    })
}

/// Compares the K results of every (workload, metric): timings against the
/// metric's bound, deterministic metrics for equality.
fn repeatability(sets: &[Vec<ChildResult>]) -> bool {
    let mut ok = true;
    println!("repeatability over {} sets of runs:", sets.len());
    for (slot, first) in sets[0].iter().enumerate() {
        for (index, (name, _)) in first.metrics.iter().enumerate() {
            let values: Vec<f64> = sets.iter().map(|s| s[slot].metrics[index].1).collect();
            let (lo, hi) = values
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                });
            let mid = median(&values);
            let spread = if mid != 0.0 {
                (hi - lo) / mid.abs()
            } else {
                hi - lo
            };
            let compile = matches!(first.workload, Workload::ConvDeep | Workload::NestWide);
            let exact = EXACT.contains(&name.as_str()) || (compile && name == "out_bytes_per_op");
            let verdict = if exact {
                if lo.to_bits() == hi.to_bits() {
                    "exact".to_string()
                } else {
                    ok = false;
                    "NOT EXACT".to_string()
                }
            } else {
                match schema::bound_of(name) {
                    Some(bound) if spread > bound => {
                        ok = false;
                        format!("BEYOND bound {bound}")
                    }
                    Some(bound) => format!("within bound {bound}"),
                    None => "no bound".to_string(),
                }
            };
            println!(
                "spread {} {name} {spread:.4} {verdict} values {values:?}",
                first.workload.name()
            );
        }
    }
    ok
}

/// Runs the suite; `false` when any check, schema validation or
/// repeatability requirement failed.
pub fn run(only: Option<Workload>, args: &RunArgs, repeat: usize) -> bool {
    let committed = std::fs::read_to_string("BENCHMARK.json").unwrap_or_default();
    if committed != schema::benchmark_json() {
        eprintln!(
            "prem-benchmark: BENCHMARK.json differs from the harness's schema; regenerate it \
             with `benchmark/run.sh --emit-benchmark-json > BENCHMARK.json`"
        );
        return false;
    }
    let mut args = args.clone();
    if args.smoke {
        args.seconds = 1.0;
    }
    let workloads: Vec<Workload> = only.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut ok = true;
    let mut sets: Vec<Vec<ChildResult>> = Vec::new();
    for _ in 0..repeat {
        let mut set = Vec::new();
        for &workload in &workloads {
            for trace in [false, true] {
                match run_child(workload, &args, trace) {
                    Ok(result) => set.push(result),
                    Err(problem) => {
                        eprintln!(
                            "prem-benchmark: {} trace {trace}: {problem}",
                            workload.name()
                        );
                        return false;
                    }
                }
            }
        }
        sets.push(set);
    }
    for result in sets.iter().flatten() {
        if result.failed > 0.0 {
            ok = false;
            println!(
                "FAILED {} (trace {}): {} failed checks",
                result.workload.name(),
                u8::from(result.trace),
                result.failed
            );
        }
    }
    if repeat > 1 {
        ok &= repeatability(&sets);
    }

    let runs: Vec<Json> = sets
        .iter()
        .enumerate()
        .flat_map(|(set, results)| {
            results.iter().map(move |r| {
                Json::obj::<&str, Json>([
                    ("set", Json::from(set)),
                    ("workload", Json::from(r.workload.name())),
                    ("trace", Json::from(r.trace)),
                    ("result", r.json.clone()),
                ])
            })
        })
        .collect();
    let doc = Json::obj::<&str, Json>([
        ("stamp", hygiene::stamp(args.seed)),
        ("smoke", Json::from(args.smoke)),
        ("seconds", Json::from(args.seconds)),
        ("runs", Json::Arr(runs)),
    ]);
    std::fs::create_dir_all("benchmark/out").expect("create benchmark/out");
    std::fs::write("benchmark/out/results.json", doc.to_pretty()).expect("write results.json");
    println!("wrote benchmark/out/results.json");
    println!(
        "{}",
        if ok {
            "benchmark suite OK"
        } else {
            "benchmark suite FAILED"
        }
    );
    ok
}
