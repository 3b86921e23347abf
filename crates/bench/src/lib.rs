//! Shared harness for the evaluation binaries that regenerate every table
//! and figure of the paper (Chapter 6). See EXPERIMENTS.md for the index.

#![warn(missing_docs)]

use prem_core::{
    ideal_makespan, optimize_app_greedy, optimize_app_timed, AppOutcome, LoopTree,
    OptimizerOptions, Platform,
};
use prem_ir::Program;
use prem_obs::{Json, PhaseTimings, RunReport, Stopwatch};
use prem_sim::SimCost;
use std::time::Instant;

/// Problem-size / sweep-size selector shared by every bench binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// The paper-scale experiment (no flag).
    Full,
    /// `--quick`: paper-size kernels over a reduced sweep.
    Quick,
    /// `--smoke`: small kernels and a minimal sweep — fast enough for a
    /// debug-build integration test of the binary.
    Smoke,
}

impl RunMode {
    /// Parses `--quick` / `--smoke` from the process arguments
    /// (`--smoke` wins when both are present).
    pub fn from_args() -> RunMode {
        let mut mode = RunMode::Full;
        for a in std::env::args() {
            if a == "--smoke" {
                return RunMode::Smoke;
            }
            if a == "--quick" {
                mode = RunMode::Quick;
            }
        }
        mode
    }

    /// Lower-case name, as stamped into run reports.
    pub fn as_str(self) -> &'static str {
        match self {
            RunMode::Full => "full",
            RunMode::Quick => "quick",
            RunMode::Smoke => "smoke",
        }
    }

    /// True when sweeps should be cut down (`--quick` or `--smoke`).
    pub fn reduced(self) -> bool {
        self != RunMode::Full
    }
}

/// The five PolyBench-NN kernels with their analysis artifacts.
pub struct Bench {
    /// Kernel name.
    pub name: &'static str,
    /// The kernel program.
    pub program: Program,
    /// Its loop tree.
    pub tree: LoopTree,
    /// The profiled-and-fitted cost provider (gem5-substitute workflow).
    pub cost: SimCost,
    /// Wall-clock seconds spent building the loop tree (the `analysis`
    /// phase of the compile pipeline; merged into each run's timings).
    pub analysis_s: f64,
}

/// Builds the PolyBench-NN suite: LARGE sizes (Figure 6.1) normally, the
/// small test sizes under [`RunMode::Smoke`].
pub fn suite(mode: RunMode) -> Vec<Bench> {
    let kernels = if mode == RunMode::Smoke {
        prem_kernels::all_small()
    } else {
        prem_kernels::all_large()
    };
    kernels
        .into_iter()
        .map(|(name, program)| {
            let mut sw = Stopwatch::start();
            let tree = LoopTree::build(&program).expect("kernels lower");
            let analysis_s = sw.lap();
            let cost = SimCost::new(&program);
            Bench {
                name,
                program,
                tree,
                cost,
                analysis_s,
            }
        })
        .collect()
}

/// Builds the LARGE-size suite of Figure 6.1.
pub fn large_suite() -> Vec<Bench> {
    suite(RunMode::Full)
}

/// One optimization run with its wall-clock time.
pub struct TimedRun {
    /// The outcome.
    pub outcome: AppOutcome,
    /// Wall-clock seconds the optimizer took.
    pub seconds: f64,
    /// Per-phase wall-clock: `analysis`, `thread_budget`,
    /// `component_extraction`, `tiling_search`, `schedule_build` (heuristic
    /// runs only for the latter four).
    pub phases: PhaseTimings,
}

/// Scheduling strategy selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// The paper's heuristic (Algorithms 1 + 2).
    Heuristic,
    /// The greedy baseline of §6.2.
    Greedy,
}

/// Whether the benches run the heuristic with reduction-aware parallel
/// legality (accumulator privatization plus a modeled combine phase,
/// `OptimizerOptions::reductions`). **Off** by default: with the flag off
/// every selection and makespan is bitwise identical to the
/// reduction-oblivious path, so `PREM_REDUCTIONS=1` vs unset is the A/B.
/// Parsed by [`prem_obs::env_flag`], which warns on unrecognized values.
pub fn reductions_enabled() -> bool {
    prem_obs::env_flag("PREM_REDUCTIONS", false)
}

/// Runs one (kernel, platform, strategy) point.
pub fn run_point(bench: &Bench, platform: &Platform, strategy: Strategy) -> TimedRun {
    let t0 = Instant::now();
    let mut phases = PhaseTimings::new();
    phases.add("analysis", bench.analysis_s);
    let outcome = match strategy {
        Strategy::Heuristic => {
            let opts = OptimizerOptions {
                reductions: reductions_enabled(),
                ..OptimizerOptions::default()
            };
            let (outcome, solve) =
                optimize_app_timed(&bench.tree, &bench.program, platform, &bench.cost, &opts);
            phases.absorb(&solve);
            outcome
        }
        Strategy::Greedy => optimize_app_greedy(&bench.tree, &bench.program, platform, &bench.cost),
    };
    TimedRun {
        outcome,
        seconds: t0.elapsed().as_secs_f64(),
        phases,
    }
}

/// Ideal single-core makespan (unlimited SPM, zero-cost transfers).
pub fn ideal(bench: &Bench) -> f64 {
    ideal_makespan(&bench.tree, &bench.cost)
}

/// The bus-speed sweep of Figure 6.1: 1/16 … 16 GB/s in ×2 steps.
pub fn fig61_bus_speeds() -> Vec<f64> {
    (-4..=4).map(|e| 2f64.powi(e)).collect()
}

/// Runs a closure over items on `threads` OS threads, preserving order.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<std::sync::Mutex<&mut Option<R>>> =
        results.iter_mut().map(std::sync::Mutex::new).collect();
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(&items[i]);
                **slots[i].lock().unwrap() = Some(r);
            });
        }
    });
    results.into_iter().map(|r| r.expect("computed")).collect()
}

/// The output directory for CSVs and run reports: `$PREM_RESULTS_DIR` when
/// set (the smoke test isolates itself this way), else `results/`.
pub fn results_dir() -> std::path::PathBuf {
    std::env::var_os("PREM_RESULTS_DIR")
        .map(Into::into)
        .unwrap_or_else(|| "results".into())
}

/// Key/value pairs summarizing one timed run — makespan, the search record
/// (counters and evaluator stage times) and per-phase wall-clock. Splice
/// into a `Json::obj` alongside the point-specific context keys (kernel, bus
/// speed, …).
pub fn run_pairs(run: &TimedRun) -> Vec<(String, Json)> {
    let t = run.outcome.search_totals();
    let mut pairs = vec![
        ("makespan_ns".into(), run.outcome.makespan_ns.into()),
        ("wall_s".into(), run.seconds.into()),
        (
            "search_s".into(),
            run.phases.get("tiling_search").unwrap_or(0.0).into(),
        ),
        ("cache_hit_rate".into(), t.cache_hit_rate().into()),
        ("phases".into(), run.phases.to_json()),
    ];
    pairs.extend(t.counters.pairs());
    pairs
}

/// Starts a machine-readable run report for binary `bin`, stamped with the
/// run mode.
pub fn new_report(bin: &str, mode: RunMode) -> RunReport {
    let mut r = RunReport::new(bin);
    r.set("mode", mode.as_str());
    r.set("reductions", if reductions_enabled() { "1" } else { "0" });
    r
}

/// Writes `report` into [`results_dir`] and prints the path.
pub fn write_report(report: &RunReport) -> std::path::PathBuf {
    let path = report.write_dir(&results_dir()).expect("write report");
    println!("wrote {}", path.display());
    path
}

/// Writes a CSV file under [`results_dir`], creating the directory.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> std::io::Result<std::path::PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    let mut text = String::from(header);
    text.push('\n');
    for r in rows {
        text.push_str(r);
        text.push('\n');
    }
    std::fs::write(&path, text)?;
    Ok(path)
}

/// Formats a solution's `K`/`R` vectors with level names.
pub fn fmt_selection(report: &prem_core::ComponentReport) -> String {
    let ks: Vec<String> = report
        .level_names
        .iter()
        .zip(&report.solution.k)
        .map(|(n, k)| format!("{n}:{k}"))
        .collect();
    let rs: Vec<String> = report
        .level_names
        .iter()
        .zip(&report.solution.r)
        .map(|(n, r)| format!("{n}:{r}"))
        .collect();
    format!("R{{{}}} K{{{}}}", rs.join(", "), ks.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<i32> = (0..37).collect();
        let out = parallel_map(items, 4, |&x| x * 2);
        assert_eq!(out, (0..37).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn bus_sweep_matches_paper_range() {
        let s = fig61_bus_speeds();
        assert_eq!(s.len(), 9);
        assert_eq!(s[0], 1.0 / 16.0);
        assert_eq!(s[8], 16.0);
    }
}
