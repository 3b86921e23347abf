//! The emitter's fan-out: `emit_prem_c_with_budget` writes the same bytes as
//! `emit_prem_c` at every budget on every case of `tests/codegen_golden.rs`
//! (which pins those bytes), and a unit that panics on a worker still
//! panics on the caller.

mod common;

use common::chain;
use prem::codegen::{emit_prem_c, emit_prem_c_with_budget, EmitComponent, EmitError};
use prem::core::{optimize_app, LoopTree, OptimizerOptions, Platform};
use prem::ir::Program;
use prem::sim::SimCost;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The golden table's cases: every bundled small kernel on two platforms and
/// two whole-network chains.
fn cases() -> Vec<(String, Program, Platform)> {
    let platforms = [
        ("default", Platform::default()),
        (
            "p4_8k",
            Platform::default().with_cores(4).with_spm_bytes(8 * 1024),
        ),
    ];
    let mut out = Vec::new();
    for (name, program) in prem::kernels::all_small() {
        for (tag, platform) in &platforms {
            out.push((format!("{name} {tag}"), program.clone(), platform.clone()));
        }
    }
    out.push(("chain_s12_m64".into(), chain(12, 64), Platform::default()));
    out.push((
        "chain_s29_m24 spm512".into(),
        chain(29, 24),
        Platform::default().with_spm_bytes(512),
    ));
    out
}

/// The components `optimize_app` selects for `program`, ready to emit.
fn selected(program: &Program, platform: &Platform) -> Vec<EmitComponent> {
    let tree = LoopTree::build(program).unwrap();
    let cost = SimCost::new(program);
    optimize_app(
        &tree,
        program,
        platform,
        &cost,
        &OptimizerOptions::default(),
    )
    .components
    .into_iter()
    .map(|c| EmitComponent {
        component: c.component,
        solution: c.solution,
    })
    .collect()
}

fn distinct_keys(comps: &[EmitComponent]) -> usize {
    let keys: HashSet<_> = comps
        .iter()
        .map(|ec| (ec.component.fingerprint(), ec.solution.clone()))
        .collect();
    keys.len()
}

#[test]
fn every_budget_writes_the_same_bytes() {
    let mut shared = 0;
    for (name, program, platform) in cases() {
        let comps = selected(&program, &platform);
        shared += comps.len() - distinct_keys(&comps);
        let want = emit_prem_c(&program, &comps, &platform).unwrap();
        for budget in [1, 2, 8] {
            let got = emit_prem_c_with_budget(&program, &comps, &platform, budget).unwrap();
            assert!(got == want, "{name}: budget {budget} changed the bytes");
        }
    }
    // The chains repeat nests, so some blocks come from a shared analysis.
    assert!(shared > 0, "no case shares an analysis");
}

/// An array id that is not in the program makes the unit that renders its
/// component panic (the element type lookup indexes the program's arrays).
#[test]
fn a_panicking_unit_panics_on_the_caller() {
    let program = chain(12, 64);
    let platform = Platform::default();
    let comps = selected(&program, &platform);
    assert!(distinct_keys(&comps) > 2, "one unit per key: too few keys");
    for bad in [0, comps.len() / 2, comps.len() - 1] {
        let mut broken = comps.clone();
        broken[bad].component.arrays[0].array = usize::MAX;
        for budget in [1, 2, 8] {
            let ran = catch_unwind(AssertUnwindSafe(|| {
                emit_prem_c_with_budget(&program, &broken, &platform, budget)
            }));
            assert!(ran.is_err(), "component {bad}, budget {budget}");
        }
    }
}

/// The error an emission reports is the first in program order, whatever
/// thread found it: an empty component is rejected before any unit runs,
/// and an infeasible solution names its own component.
#[test]
fn errors_are_those_of_the_first_failing_block() {
    let program = chain(12, 64);
    let platform = Platform::default();
    let comps = selected(&program, &platform);

    let mut empty = comps.clone();
    empty[comps.len() - 1].component.levels.clear();
    for budget in [1, 2] {
        let got = emit_prem_c_with_budget(&program, &empty, &platform, budget);
        assert_eq!(got, Err(EmitError::EmptyComponent));
    }

    // Too many threads for the platform: every block fails; the first
    // block's failure is the one reported, at every budget.
    let mut wide = comps;
    for ec in &mut wide {
        ec.solution.r[0] = 64;
    }
    let want = emit_prem_c_with_budget(&program, &wide, &platform, 1);
    assert!(matches!(want, Err(EmitError::Infeasible(_))), "{want:?}");
    for budget in [2, 8] {
        assert_eq!(
            emit_prem_c_with_budget(&program, &wide, &platform, budget),
            want
        );
    }
}
