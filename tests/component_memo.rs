//! The winner memo inside `optimize_app` is exact. On whole-network programs
//! whose layers repeat, every reported component — searched or replayed —
//! carries the `(R, K)` and the makespan bits that an independent
//! `optimize_component` call finds for that very component, the report's
//! metadata belongs to the component it reports (not to the one whose winner
//! was replayed), and no replay ever disagreed with its own oracle build.

mod common;

use common::chain;
use prem::core::{
    optimize_app, optimize_component, AppOutcome, CostProvider, LoopTree, OptimizerOptions,
    Platform,
};
use prem::ir::Program;
use prem::sim::SimCost;

/// The default options (what the library, the server and the benches run)
/// and reduction-aware legality.
fn option_sets() -> [OptimizerOptions; 2] {
    [
        OptimizerOptions::default(),
        OptimizerOptions {
            reductions: true,
            ..OptimizerOptions::default()
        },
    ]
}

/// Runs `optimize_app` and checks every reported component against an
/// independent search of that component.
fn checked(
    what: &str,
    program: &Program,
    platform: &Platform,
    opts: &OptimizerOptions,
) -> AppOutcome {
    let tree = LoopTree::build(program).expect("program lowers");
    let cost = SimCost::new(program);
    let out = optimize_app(&tree, program, platform, &cost, opts);
    for c in &out.components {
        let names: Vec<&str> = c.component.levels.iter().map(|l| l.name.as_str()).collect();
        assert_eq!(c.level_names, names, "{what}");
        assert_eq!(c.exec_count, c.component.exec_count, "{what} {names:?}");
        let model = cost.exec_model(&c.component);
        let alone = optimize_component(&c.component, platform, &model, opts)
            .unwrap_or_else(|| panic!("{what} {names:?}: reported but infeasible alone"));
        assert_eq!(c.solution, alone.solution, "{what} {names:?}");
        assert_eq!(
            c.result.makespan_ns.to_bits(),
            alone.result.makespan_ns.to_bits(),
            "{what} {names:?}: makespan bits"
        );
        let t = &c.telemetry;
        assert_eq!(t.counters.full_builds, 1, "{what} {names:?}");
        assert!(
            t.counters.replayed == 0 || t.counters.evals == 0,
            "{what} {names:?}: searched a replay"
        );
    }
    assert_eq!(out.search_totals().counters.replay_mismatches, 0, "{what}");
    out
}

#[test]
fn repeated_layers_replay_the_winner_an_independent_search_finds() {
    let platform = Platform::default().with_spm_bytes(512);
    for (seed, nests) in [(12, 24), (13, 36), (77, 48)] {
        let program = chain(seed, nests);
        for opts in option_sets() {
            let what = format!("seed {seed} reductions {}", opts.reductions);
            let out = checked(&what, &program, &platform, &opts);
            // One component per nest, in program order; the application
            // makespan is their in-order sum.
            let heads: Vec<String> = out
                .components
                .iter()
                .map(|c| c.level_names[0].clone())
                .collect();
            let nests: Vec<String> = (1..=nests).map(|l| format!("i{l}")).collect();
            assert_eq!(heads, nests, "{what}");
            let sum = out.components.iter().fold(0.0, |s, c| s + c.total_ns());
            assert_eq!(out.makespan_ns.to_bits(), sum.to_bits(), "{what}");
            let replayed = out.search_totals().counters.replayed;
            assert!(
                replayed * 3 >= nests.len(),
                "{what}: only {replayed} of {} nests replayed",
                nests.len()
            );
        }
    }
}

#[test]
fn bundled_kernels_match_an_independent_search() {
    for (name, program) in prem::kernels::all_small() {
        for opts in option_sets() {
            let what = format!("{name} reductions {}", opts.reductions);
            let out = checked(&what, &program, &Platform::default(), &opts);
            assert!(out.makespan_ns.is_finite(), "{what}");
        }
    }
}

#[test]
fn infeasible_repeated_nests_are_memoised_as_infeasible() {
    // Not even a one-element tile of every array fits four bytes.
    let platform = Platform::default().with_spm_bytes(4);
    let program = chain(12, 24);
    let out = checked(
        "infeasible",
        &program,
        &platform,
        &OptimizerOptions::default(),
    );
    assert!(out.makespan_ns.is_infinite());
    assert!(out.components.is_empty());
}
