//! The source → PREM C clock: the one chain a library or CLI caller runs,
//! `parse_kernel → LoopTree::build → SimCost::new → optimize_app_timed →
//! emit_prem_c`, plus the checks that its outputs are right.

use crate::kernels::{self, KernelInput};
use crate::report::{by_key, Checks, Metrics};
use crate::rng::Rng;
use crate::trace::{Recorder, Span};
use prem_codegen::{emit_prem_c, EmitComponent};
use prem_core::{
    build_schedule, evaluate, nondominated_thread_groups, optimize_app_timed, select_tile_sizes,
    AppOutcome, CostProvider, LoopTree, LoopTreeNode, MakespanEvaluator, OptimizerOptions,
    Platform, Solution,
};
use prem_frontend::{lex, parse_kernel};
use prem_ir::{lower, run_program, MemStore, Program};
use prem_obs::PhaseTimings;
use prem_polyhedral::analyze_dependences;
use prem_sim::{run_app_prem, simulate, PlannedComponent, SimCost};
use std::collections::BTreeMap;
use std::time::Instant;

/// Exact work counts of one compile; only filled by traced compiles, where
/// the standalone `lex`, `lower` and `analyze_dependences` calls run.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Counts {
    pub tokens: usize,
    pub source_bytes: usize,
    pub stmts: usize,
    pub deps: usize,
    pub looptree_nodes: usize,
}

/// Everything one source → PREM C compile produced.
pub struct Compiled {
    pub program: Program,
    pub outcome: AppOutcome,
    pub phases: PhaseTimings,
    pub prem_c: String,
    pub counts: Counts,
}

fn count_nodes(nodes: &[LoopTreeNode]) -> usize {
    nodes.iter().map(|n| 1 + count_nodes(&n.children)).sum()
}

/// Runs the chain once under `parent`. With tracing on, every call into a
/// layer gets its own span, and the frontend, lowering and dependence
/// analysis are also called on their own (the chain re-runs them inside
/// `parse_kernel` and `LoopTree::build`) so each has a measured cost.
pub fn compile_chain(
    rec: &mut Recorder,
    parent: usize,
    ident: &str,
    source: &str,
    params: &[(&str, i64)],
    platform: &Platform,
    opts: &OptimizerOptions,
) -> Result<Compiled, String> {
    let mut counts = Counts {
        source_bytes: source.len(),
        ..Counts::default()
    };
    if rec.enabled() {
        let tokens = rec
            .call("frontend.lex", parent, || lex(source))
            .map_err(|e| format!("lex: {e}"))?;
        counts.tokens = tokens.len();
    }
    let program = rec
        .call("frontend.parse_kernel", parent, || {
            parse_kernel(ident, source, params)
        })
        .map_err(|e| format!("parse: {e}"))?;
    if rec.enabled() {
        let stmts = rec
            .call("ir.lower", parent, || lower(&program))
            .map_err(|e| format!("lower: {e}"))?;
        let deps = rec.call("polyhedral.analyze_dependences", parent, || {
            analyze_dependences(&stmts)
        });
        counts.stmts = stmts.len();
        counts.deps = deps.len();
    }
    let tree = rec
        .call("core.looptree_build", parent, || LoopTree::build(&program))
        .map_err(|e| format!("loop tree: {e}"))?;
    counts.looptree_nodes = count_nodes(&tree.roots);
    let cost = rec.call("sim.simcost_new", parent, || SimCost::new(&program));
    let (outcome, phases) = rec.call("core.optimize_app", parent, || {
        optimize_app_timed(&tree, &program, platform, &cost, opts)
    });
    if !outcome.makespan_ns.is_finite() || outcome.components.is_empty() {
        return Err("no feasible schedule".into());
    }
    let prem_c = rec
        .call("codegen.emit_prem_c", parent, || {
            let emit: Vec<EmitComponent> = outcome
                .components
                .iter()
                .map(|c| EmitComponent {
                    component: c.component.clone(),
                    solution: c.solution.clone(),
                })
                .collect();
            emit_prem_c(&program, &emit, platform)
        })
        .map_err(|e| format!("emit: {e}"))?;
    Ok(Compiled {
        program,
        outcome,
        phases,
        prem_c,
        counts,
    })
}

/// Compiles one generated kernel with the library defaults.
pub fn compile_kernel(
    rec: &mut Recorder,
    parent: usize,
    kernel: &KernelInput,
) -> Result<Compiled, String> {
    compile_chain(
        rec,
        parent,
        kernel.src.ident,
        &kernel.src.source,
        &kernel.src.param_refs(),
        &kernel.point.platform(),
        &OptimizerOptions::default(),
    )
}

/// Compile phases read by name from `PhaseTimings::get`.
const PHASES: [(&str, &str); 3] = [
    ("core.component_extraction_s", "component_extraction"),
    ("core.tiling_search_s", "tiling_search"),
    ("core.schedule_build_s", "schedule_build"),
];

/// Search counters read by key from `SearchTelemetry::to_json(false)`, never
/// by struct field: a counter that a later change deletes then reads as -1
/// here instead of breaking the build of a directory that change may not
/// edit.
const SEARCH_KEYS: [(&str, &str); 6] = [
    ("core.search_evals", "evals"),
    ("core.search_fast_evals", "fast_evals"),
    ("core.search_full_builds", "full_builds"),
    ("core.search_cache_hits", "cache_hits"),
    ("core.search_sweeps", "sweeps_run"),
    ("core.search_pruned", "pruned"),
];

/// Work counts, phase times and search counters summed over traced compiles.
#[derive(Debug, Default)]
pub struct LayerSums {
    counts: Counts,
    components: usize,
    prem_c_bytes: usize,
    values: BTreeMap<&'static str, f64>,
}

impl LayerSums {
    pub fn add(&mut self, compiled: &Compiled) {
        self.counts.tokens += compiled.counts.tokens;
        self.counts.source_bytes += compiled.counts.source_bytes;
        self.counts.stmts += compiled.counts.stmts;
        self.counts.deps += compiled.counts.deps;
        self.counts.looptree_nodes += compiled.counts.looptree_nodes;
        self.components += compiled.outcome.components.len();
        self.prem_c_bytes += compiled.prem_c.len();
        for (metric, phase) in PHASES {
            *self.values.entry(metric).or_default() += compiled.phases.get(phase).unwrap_or(0.0);
        }
        let search = compiled.outcome.search_totals().to_json(false);
        for (metric, key) in SEARCH_KEYS {
            let slot = self.values.entry(metric).or_default();
            match by_key(&search, key) {
                Some(v) if *slot >= 0.0 => *slot += v,
                _ => *slot = -1.0,
            }
        }
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Seconds spent in spans called `name`, summed over `recs`.
pub fn span_seconds(recs: &[&Recorder], name: &str) -> f64 {
    recs.iter()
        .flat_map(|r| &r.spans)
        .filter(|s| s.name == name)
        .map(Span::dur_s)
        .sum()
}

/// Emits the frontend, ir, polyhedral, core and codegen metrics of the traced
/// compiles recorded in `recs` and summed in `sums`. Both cover `passes`
/// repetitions of the same work, so times are means over them and counts
/// come out exact.
pub fn layer_metrics(m: &mut Metrics, recs: &[&Recorder], sums: &LayerSums, passes: f64) {
    let span_s = |name: &str| span_seconds(recs, name) / passes;
    let value = |metric: &str| {
        let v = sums.values.get(metric).copied().unwrap_or(0.0);
        if v < 0.0 {
            v
        } else {
            v / passes
        }
    };
    let count = |c: usize| c as f64 / passes;
    let (lex_s, lower_s, deps_s) = (
        span_s("frontend.lex"),
        span_s("ir.lower"),
        span_s("polyhedral.analyze_dependences"),
    );
    m.set("frontend.lex_s", lex_s);
    m.set("frontend.parse_s", span_s("frontend.parse_kernel"));
    m.set("frontend.tokens", count(sums.counts.tokens));
    m.set("frontend.source_bytes", count(sums.counts.source_bytes));
    m.set(
        "frontend.tokens_per_s",
        ratio(count(sums.counts.tokens), lex_s),
    );
    m.set("ir.lower_s", lower_s);
    m.set("ir.stmts", count(sums.counts.stmts));
    m.set("polyhedral.dependence_s", deps_s);
    m.set("polyhedral.deps", count(sums.counts.deps));
    m.set(
        "polyhedral.deps_per_s",
        ratio(count(sums.counts.deps), deps_s),
    );
    // `LoopTree::build` re-runs lowering and dependence analysis inside; its
    // own share is what is left of its span.
    m.set(
        "core.looptree_build_s",
        (span_s("core.looptree_build") - lower_s - deps_s).max(0.0),
    );
    m.set("core.looptree_nodes", count(sums.counts.looptree_nodes));
    m.set("core.components", count(sums.components));
    for (metric, _) in PHASES.iter().chain(&SEARCH_KEYS) {
        m.set(metric, value(metric));
    }
    let evals = value("core.search_evals");
    m.set(
        "core.search_us_per_eval",
        ratio(value("core.tiling_search_s") * 1e6, evals),
    );
    m.set(
        "core.search_feasible_share",
        ratio(value("core.search_fast_evals"), evals),
    );
    m.set("sim.simcost_new_s", span_s("sim.simcost_new"));
    let emit_s = span_s("codegen.emit_prem_c");
    m.set("codegen.emit_s", emit_s);
    m.set("codegen.bytes", count(sums.prem_c_bytes));
    m.set(
        "codegen.bytes_per_s",
        ratio(count(sums.prem_c_bytes), emit_s),
    );
}

/// The winners' `(R, K)` of one compile, one `r=..;k=..` item per component.
pub fn selection(outcome: &AppOutcome) -> String {
    let list = |v: &[i64]| {
        v.iter()
            .map(i64::to_string)
            .collect::<Vec<String>>()
            .join(",")
    };
    outcome
        .components
        .iter()
        .map(|c| format!("r={};k={}", list(&c.solution.r), list(&c.solution.k)))
        .collect::<Vec<String>>()
        .join("|")
}

fn braces_balanced(c: &str) -> bool {
    let mut depth = 0i64;
    for b in c.bytes() {
        match b {
            b'{' => depth += 1,
            b'}' => depth -= 1,
            _ => {}
        }
        if depth < 0 {
            return false;
        }
    }
    depth == 0
}

/// What checking one compile's winners measured.
#[derive(Debug, Default, Clone, Copy)]
pub struct WinnerStats {
    /// Σ_components simulated makespan × execution count, in ns.
    pub sim_makespan_ns: f64,
    pub model_gap_max: f64,
    pub segments: usize,
    pub memops: usize,
    pub sim_events: usize,
}

/// Checks one compile's outputs: the emitted C is non-empty and
/// brace-balanced; every winner rebuilt through the oracle
/// (`build_schedule` + `evaluate`) reproduces the reported makespan bit for
/// bit; and the analytic model is within the paper's 5 % of the simulator.
pub fn check_winners(
    rec: &mut Recorder,
    parent: usize,
    row: &str,
    compiled: &Compiled,
    platform: &Platform,
    checks: &mut Checks,
) -> WinnerStats {
    checks.check(
        !compiled.prem_c.is_empty() && braces_balanced(&compiled.prem_c),
        || format!("{row}: emitted PREM C is empty or brace-unbalanced"),
    );
    let cost = SimCost::new(&compiled.program);
    let mut stats = WinnerStats::default();
    for (i, c) in compiled.outcome.components.iter().enumerate() {
        let model = cost.exec_model(&c.component);
        let schedule = match rec.call("core.build_schedule", parent, || {
            build_schedule(&c.component, &c.solution, platform, &model)
        }) {
            Ok(s) => s,
            Err(e) => {
                checks.check(false, || {
                    format!("{row} component {i}: winner infeasible: {e}")
                });
                continue;
            }
        };
        let oracle = rec.call("core.evaluate", parent, || evaluate(&schedule));
        checks.check(
            oracle.makespan_ns.to_bits() == c.result.makespan_ns.to_bits(),
            || {
                format!(
                    "{row} component {i}: reported makespan {} != oracle {}",
                    c.result.makespan_ns, oracle.makespan_ns
                )
            },
        );
        let sim = rec.call("sim.simulate", parent, || simulate(&schedule));
        let gap = (oracle.makespan_ns - sim.makespan_ns).abs() / sim.makespan_ns;
        checks.check(gap <= 0.05, || {
            format!("{row} component {i}: model vs simulator differ by {gap:.4}")
        });
        stats.model_gap_max = stats.model_gap_max.max(gap);
        stats.sim_makespan_ns += sim.makespan_ns * c.exec_count as f64;
        stats.segments += schedule.cores.iter().map(|core| core.nseg).sum::<usize>();
        stats.memops += schedule.total_ops;
        stats.sim_events += sim.trace.len();
    }
    stats
}

/// Emits what checking the winners measured; `recs` hold the check's spans.
pub fn winner_metrics(m: &mut Metrics, recs: &[&Recorder], winners: &[WinnerStats]) {
    let sum = |f: fn(&WinnerStats) -> usize| winners.iter().map(|w| f(w) as f64).sum::<f64>();
    m.set("core.schedule_segments", sum(|w| w.segments));
    m.set("core.schedule_memops", sum(|w| w.memops));
    m.set("sim.simulate_s", span_seconds(recs, "sim.simulate"));
    m.set("sim.simulate_events", sum(|w| w.sim_events));
    m.set(
        "sim.model_gap_max",
        winners.iter().map(|w| w.model_gap_max).fold(0.0, f64::max),
    );
}

/// What running the verification twins measured.
#[derive(Debug, Clone, Copy)]
pub struct Twins {
    pub funcsim_s: f64,
    pub max_abs_diff: f64,
}

impl Twins {
    pub fn metrics(&self, m: &mut Metrics) {
        m.set("sim.funcsim_s", self.funcsim_s);
        m.set("sim.funcsim_max_abs_diff", self.max_abs_diff);
    }
}

/// Functional correctness against an independent reference: every template's
/// small twin is compiled with the library defaults and executed through SPM
/// buffers by `run_app_prem`; memory must end up equal to the plain
/// interpreter's (`max_abs_diff ≤ 1e-9`).
pub fn check_twins(checks: &mut Checks) -> Twins {
    let clock = Instant::now();
    let max_abs_diff = kernels::twins()
        .iter()
        .map(|twin| check_twin(twin, checks))
        .fold(0.0, f64::max);
    Twins {
        funcsim_s: clock.elapsed().as_secs_f64(),
        max_abs_diff,
    }
}

fn check_twin(kernel: &KernelInput, checks: &mut Checks) -> f64 {
    let platform = kernel.point.platform();
    let mut rec = Recorder::new(false, Instant::now());
    let compiled = match compile_kernel(&mut rec, 0, kernel) {
        Ok(c) => c,
        Err(e) => {
            checks.check(false, || {
                format!("{}: twin does not compile: {e}", kernel.row)
            });
            return f64::INFINITY;
        }
    };
    let planned: Vec<PlannedComponent> = compiled
        .outcome
        .components
        .iter()
        .map(|c| PlannedComponent {
            component: c.component.clone(),
            solution: c.solution.clone(),
        })
        .collect();
    let mut reference = MemStore::patterned(&compiled.program);
    run_program(&compiled.program, &mut reference);
    let mut prem = MemStore::patterned(&compiled.program);
    let ran = run_app_prem(&compiled.program, &planned, &platform, &mut prem);
    let diff = reference.max_abs_diff(&prem);
    checks.check(ran.is_ok() && diff <= 1e-9, || {
        format!(
            "{}: PREM execution differs from the interpreter (max_abs_diff {diff}, {:?})",
            kernel.row,
            ran.as_ref().err()
        )
    });
    diff
}

/// Timing of the fast evaluator and of the oracle over a candidate sample.
#[derive(Debug, Default, Clone, Copy)]
pub struct EvaluatorStats {
    evaluator_s: f64,
    oracle_s: f64,
    candidates: usize,
    mismatches: usize,
}

impl EvaluatorStats {
    pub fn absorb(&mut self, other: EvaluatorStats) {
        self.evaluator_s += other.evaluator_s;
        self.oracle_s += other.oracle_s;
        self.candidates += other.candidates;
        self.mismatches += other.mismatches;
    }

    pub fn metrics(&self, m: &mut Metrics) {
        let per_candidate_us = |s: f64| ratio(s * 1e6, self.candidates as f64);
        m.set("core.evaluator_us", per_candidate_us(self.evaluator_s));
        m.set("core.oracle_us", per_candidate_us(self.oracle_s));
        m.set("core.evaluator_oracle_mismatches", self.mismatches as f64);
    }
}

/// Draws `n` candidate solutions of the compile's first component from
/// `nondominated_thread_groups × select_tile_sizes`, evaluates each with a
/// fresh `MakespanEvaluator` and with the oracle, and requires bitwise equal
/// makespans (`+∞` on both sides for an infeasible candidate).
pub fn check_evaluator(
    row: &str,
    compiled: &Compiled,
    platform: &Platform,
    rng: &mut Rng,
    n: usize,
    checks: &mut Checks,
) -> EvaluatorStats {
    let mut stats = EvaluatorStats::default();
    let Some(report) = compiled.outcome.components.first() else {
        return stats;
    };
    let component = &report.component;
    let model = SimCost::new(&compiled.program).exec_model(component);
    let assignments = nondominated_thread_groups(component, platform.cores);
    for _ in 0..n {
        let r = rng.pick(&assignments).clone();
        let k = (0..r.len())
            .map(|j| *rng.pick(&select_tile_sizes(component, j, r[j])))
            .collect();
        let candidate = Solution { k, r };
        let clock = Instant::now();
        let fast = MakespanEvaluator::new(component, platform, &model).makespan(&candidate);
        stats.evaluator_s += clock.elapsed().as_secs_f64();
        let clock = Instant::now();
        let oracle = build_schedule(component, &candidate, platform, &model)
            .map_or(f64::INFINITY, |s| evaluate(&s).makespan_ns);
        stats.oracle_s += clock.elapsed().as_secs_f64();
        stats.candidates += 1;
        let agree = fast.to_bits() == oracle.to_bits();
        stats.mismatches += usize::from(!agree);
        checks.check(agree, || {
            format!("{row}: evaluator {fast} != oracle {oracle} at {candidate}")
        });
    }
    stats
}
