//! The search's answer does not depend on how many threads it may use. A
//! whole program — every bundled kernel and a generated dense chain whose
//! layers repeat — is optimized and emitted at budgets 1, 2 and 8: the
//! selections, makespan bits, emitted C and deterministic search counts are
//! equal, and a call spawns at most `budget − 1` workers (none at budget 1).
//! The exhaustive validator is held to the same at budgets 1 and 4.

mod common;

use common::chain;
use prem::codegen::{emit_prem_c, EmitComponent};
use prem::core::{
    optimize_app_with_budget, CostProvider, LoopTree, OptimizerOptions, Platform, SearchEngine,
    Solution,
};
use prem::ir::Program;
use prem::obs::Json;
use prem::sim::SimCost;

/// Everything a thread budget must leave alone.
#[derive(Debug, PartialEq)]
struct Answer {
    selections: Vec<(Vec<String>, Solution, u64)>,
    makespan_bits: u64,
    emitted: String,
    counts: Vec<(String, Json)>,
}

/// Optimizes and emits `program` on at most `budget` threads; returns the
/// answer and the workers the call spawned.
fn answer(program: &Program, platform: &Platform, budget: usize) -> (Answer, usize) {
    let tree = LoopTree::build(program).expect("program lowers");
    let cost = SimCost::new(program);
    let opts = OptimizerOptions::default();
    let (out, _) = optimize_app_with_budget(&tree, program, platform, &cost, &opts, budget);
    let emit: Vec<EmitComponent> = out
        .components
        .iter()
        .map(|c| EmitComponent {
            component: c.component.clone(),
            solution: c.solution.clone(),
        })
        .collect();
    let totals = out.search_totals().counters;
    assert_eq!(
        totals.workers_spawned, out.pool.workers_spawned,
        "only the call's pool spawns"
    );
    let answer = Answer {
        selections: out
            .components
            .iter()
            .map(|c| {
                let bits = c.result.makespan_ns.to_bits();
                (c.level_names.clone(), c.solution.clone(), bits)
            })
            .collect(),
        makespan_bits: out.makespan_ns.to_bits(),
        emitted: emit_prem_c(program, &emit, platform).expect("emits"),
        counts: totals.counts(),
    };
    (answer, out.pool.workers_spawned)
}

fn programs() -> Vec<(String, Program)> {
    let mut all: Vec<(String, Program)> = prem::kernels::all_small()
        .into_iter()
        .map(|(name, p)| (name.to_string(), p))
        .collect();
    all.push(("chain_s12_m24".into(), chain(12, 24)));
    all
}

#[test]
fn whole_programs_are_budget_invariant() {
    let platform = Platform::default();
    for (name, program) in programs() {
        let (serial, spawned) = answer(&program, &platform, 1);
        assert_eq!(spawned, 0, "{name}: budget 1 spawned a worker");
        for budget in [2, 8] {
            let (parallel, spawned) = answer(&program, &platform, budget);
            assert!(
                spawned < budget,
                "{name}: {spawned} workers on a budget of {budget}"
            );
            assert_eq!(
                serial, parallel,
                "{name}: budget {budget} changed the answer"
            );
        }
    }
}

/// The pool does fan out: a program with more than one unit of work spawns
/// a worker once the budget allows one.
#[test]
fn a_budget_of_two_uses_a_second_thread() {
    let program = chain(12, 24);
    let tree = LoopTree::build(&program).expect("program lowers");
    let cost = SimCost::new(&program);
    let opts = OptimizerOptions::default();
    let (out, _) = optimize_app_with_budget(&tree, &program, &Platform::default(), &cost, &opts, 2);
    assert!(out.pool.units > 1, "{:?}", out.pool);
    assert_eq!(out.pool.workers_spawned, 1);
}

#[test]
fn exhaustive_search_is_budget_invariant() {
    let program = chain(12, 4);
    let platform = Platform::default();
    let tree = LoopTree::build(&program).expect("program lowers");
    let cost = SimCost::new(&program);
    let opts = OptimizerOptions::default();
    let (out, _) = optimize_app_with_budget(&tree, &program, &platform, &cost, &opts, 1);
    for report in &out.components {
        let component = &report.component;
        let model = cost.exec_model(component);
        let run = |threads: usize| {
            SearchEngine::new(component, &platform, &model)
                .with_threads(threads)
                .exhaustive()
                .expect("feasible")
        };
        let (serial, parallel) = (run(1), run(4));
        assert_eq!(serial.solution, parallel.solution);
        assert_eq!(
            serial.result.makespan_ns.to_bits(),
            parallel.result.makespan_ns.to_bits()
        );
        let (a, b) = (serial.telemetry.counters, parallel.telemetry.counters);
        assert_eq!(a.counts(), b.counts());
        assert_eq!(a.workers_spawned, 0);
        assert!(b.workers_spawned < 4, "{b:?}");
    }
}
