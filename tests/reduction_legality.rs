//! Reduction-aware parallel legality, end to end.
//!
//! Three properties close this feature:
//!
//! 1. **Inertness** — `OptimizerOptions::reductions` is off by default and
//!    the off path provably never engages the new machinery: no privatized
//!    accumulators, no combine phase in any chosen schedule, deterministic
//!    selections. Combined with the `combine_ns > 0.0` guards in the
//!    evaluator this makes the off path bitwise identical to the
//!    reduction-oblivious code.
//! 2. **Legalize + improve** — on window-dominated pooling kernels the flag
//!    legalizes thread groups on the reduction level (a solution the paper's
//!    §5.2.1 rule rejects outright) and strictly improves the modeled
//!    makespan; the functional simulator proves the privatized execution
//!    still matches the sequential interpreter.
//! 3. **Two-tier consistency** — a fresh evaluator's `makespan` stays
//!    bitwise identical to `evaluate(build_schedule(..))` on privatized
//!    components, combine phase included.

use prem::core::{
    build_schedule, evaluate, nondominated_thread_groups, optimize_app, AnalyticCost, Component,
    CostProvider, Infeasible, LoopTree, MakespanEvaluator, OptimizerOptions, Platform, Solution,
    TilePlan,
};
use prem::ir::{run_program, MemStore, Program};
use prem::kernels::{all_small, PoolConfig, PoolOp};
use prem::sim::{run_app_prem, PlannedComponent};

fn on_opts() -> OptimizerOptions {
    OptimizerOptions {
        reductions: true,
        ..OptimizerOptions::default()
    }
}

/// The platform where splitting a 64×64 pooling window across thread groups
/// beats the per-core API setup plus the combine phase.
fn pool_platform() -> Platform {
    Platform::default().with_spm_bytes(32 * 1024).with_cores(8)
}

#[test]
fn reductions_are_off_by_default() {
    assert!(!OptimizerOptions::default().reductions);
}

/// With the flag off, every kernel's outcome is free of the new machinery:
/// zero privatized accumulators, zero combine time in the chosen schedules,
/// and byte-for-byte repeatable selections. The reduction *detector* always
/// runs, so the dependence counter is live even here.
#[test]
fn reductions_off_is_inert_on_every_kernel() {
    let platform = Platform::default().with_spm_bytes(8 * 1024).with_cores(4);
    let mut saw_reduction_deps = false;
    for (name, program) in all_small() {
        let tree = LoopTree::build(&program).unwrap();
        let cost = AnalyticCost::new(&program);
        let a = optimize_app(
            &tree,
            &program,
            &platform,
            &cost,
            &OptimizerOptions::default(),
        );
        let b = optimize_app(
            &tree,
            &program,
            &platform,
            &cost,
            &OptimizerOptions::default(),
        );
        assert_eq!(
            a.makespan_ns.to_bits(),
            b.makespan_ns.to_bits(),
            "{name}: off path is not deterministic"
        );
        for (ca, cb) in a.components.iter().zip(&b.components) {
            assert_eq!(ca.solution, cb.solution, "{name}: selections diverge");
        }
        for c in &a.components {
            assert_eq!(
                c.telemetry.counters.privatized_accumulators, 0,
                "{name}: privatization engaged with the flag off"
            );
            assert!(
                c.component
                    .arrays
                    .iter()
                    .all(|arr| arr.privatized.is_none()),
                "{name}: component carries privatized arrays with the flag off"
            );
            saw_reduction_deps |= c.telemetry.counters.reduction_deps > 0;
            let model = cost.exec_model(&c.component);
            if let Ok(sched) = build_schedule(&c.component, &c.solution, &platform, &model) {
                assert_eq!(
                    sched.combine_ns.to_bits(),
                    0.0f64.to_bits(),
                    "{name}: off-path schedule has a combine phase"
                );
            }
        }
    }
    assert!(
        saw_reduction_deps,
        "detector never classified a reduction dependence on the suite"
    );
}

/// The flag never hurts: the reduction-oblivious best solution stays in the
/// search space (privatization only widens legality, and domination keeps
/// assignments with unsplit reduction levels), so the on-makespan is at most
/// the off-makespan on every kernel.
#[test]
fn reductions_on_never_regresses() {
    let platform = Platform::default().with_spm_bytes(8 * 1024).with_cores(4);
    for (name, program) in all_small() {
        let tree = LoopTree::build(&program).unwrap();
        let cost = AnalyticCost::new(&program);
        let off = optimize_app(
            &tree,
            &program,
            &platform,
            &cost,
            &OptimizerOptions::default(),
        );
        let on = optimize_app(&tree, &program, &platform, &cost, &on_opts());
        assert!(
            on.makespan_ns <= off.makespan_ns,
            "{name}: reductions made the modeled makespan worse ({} > {})",
            on.makespan_ns,
            off.makespan_ns
        );
    }
}

/// On the window-dominated pools (max and sum), the flag legalizes thread
/// groups on the reduction level — a solution today's rule rejects with
/// `ParallelismViolation` — strictly improves the modeled makespan, and the
/// privatized execution matches the sequential interpreter.
#[test]
fn reductions_legalize_and_improve_window_bound_pools() {
    let platform = pool_platform();
    for op in [PoolOp::Max, PoolOp::Sum] {
        let program = PoolConfig::reduction_bound(op).build();
        let tree = LoopTree::build(&program).unwrap();
        let cost = AnalyticCost::new(&program);
        let off = optimize_app(
            &tree,
            &program,
            &platform,
            &cost,
            &OptimizerOptions::default(),
        );
        let on = optimize_app(&tree, &program, &platform, &cost, &on_opts());
        assert!(
            on.makespan_ns < off.makespan_ns,
            "{}: reduction groups should win here ({} !< {})",
            program.name,
            on.makespan_ns,
            off.makespan_ns
        );

        let chosen = &on.components[0];
        assert_eq!(
            chosen.telemetry.counters.privatized_accumulators, 1,
            "{}",
            program.name
        );
        assert!(
            chosen.telemetry.counters.reduction_deps > 0,
            "{}",
            program.name
        );
        let red: Vec<usize> = chosen
            .component
            .levels
            .iter()
            .enumerate()
            .filter(|(_, l)| l.reduction_parallel)
            .map(|(j, _)| j)
            .collect();
        assert!(
            red.iter().any(|&j| chosen.solution.r[j] > 1),
            "{}: optimizer never split the reduction level (R = {:?})",
            program.name,
            chosen.solution.r
        );

        // The same assignment is illegal without privatization.
        let off_component = &off.components[0].component;
        assert!(
            matches!(
                TilePlan::build(off_component, &chosen.solution, platform.cores),
                Err(Infeasible::ParallelismViolation { .. })
            ),
            "{}: the paper's rule should reject R = {:?}",
            program.name,
            chosen.solution.r
        );

        // Functional proof: the privatized schedule computes the same result.
        let planned: Vec<PlannedComponent> = on
            .components
            .iter()
            .map(|c| PlannedComponent {
                component: c.component.clone(),
                solution: c.solution.clone(),
            })
            .collect();
        let mut reference = MemStore::patterned(&program);
        run_program(&program, &mut reference);
        let mut prem_mem = MemStore::patterned(&program);
        let stats = run_app_prem(&program, &planned, &platform, &mut prem_mem).unwrap();
        assert!(stats.segments > 0);
        let diff = reference.max_abs_diff(&prem_mem);
        assert!(
            diff < 1e-9,
            "{}: privatized PREM execution diverges by {diff}",
            program.name
        );
    }
}

/// The fast tier must price the combine phase with the exact bits of the
/// materializing tier, across the (now wider) nondominated assignment set of
/// a privatized component.
#[test]
fn fast_tier_matches_full_tier_on_privatized_components() {
    let platform = pool_platform();
    for op in [PoolOp::Max, PoolOp::Sum] {
        let program = PoolConfig::reduction_bound(op).build();
        let tree = LoopTree::build(&program).unwrap();
        let cost = AnalyticCost::new(&program);
        let on = optimize_app(&tree, &program, &platform, &cost, &on_opts());
        let comp: &Component = &on.components[0].component;
        assert!(comp.arrays.iter().any(|a| a.privatized.is_some()));
        let model = cost.exec_model(comp);

        let mut checked = 0usize;
        let mut with_combine = 0usize;
        for r in nondominated_thread_groups(comp, platform.cores) {
            // Unit tiles on the outer levels (so the working set fits the
            // SPM even with full-width windows) and corner/midpoint tile
            // sizes on the reduction level.
            for kr in [1i64, 8, comp.levels.last().unwrap().count] {
                let mut k: Vec<i64> = vec![1; comp.levels.len()];
                *k.last_mut().unwrap() = kr;
                let sol = Solution { k, r: r.clone() };
                let fast = MakespanEvaluator::new(comp, &platform, &model).makespan(&sol);
                let full = match build_schedule(comp, &sol, &platform, &model) {
                    Ok(sched) => {
                        if sched.combine_ns > 0.0 {
                            with_combine += 1;
                        }
                        evaluate(&sched).makespan_ns
                    }
                    Err(_) => f64::INFINITY,
                };
                assert_eq!(
                    fast.to_bits(),
                    full.to_bits(),
                    "{}: tiers diverge for K{:?} R{:?}: fast {fast} vs full {full}",
                    program.name,
                    sol.k,
                    sol.r
                );
                checked += 1;
            }
        }
        assert!(checked > 0);
        assert!(
            with_combine > 0,
            "{}: no grid point exercised the combine phase",
            program.name
        );
    }
}

/// Sanity: `reduction_bound` stays a single 5-level component (n c p q r,
/// with s folded into the leaf) so the assertions above address the level
/// indices they think they do.
#[test]
fn reduction_bound_pool_shape_is_stable() {
    let program: Program = PoolConfig::reduction_bound(PoolOp::Sum).build();
    let tree = LoopTree::build(&program).unwrap();
    let cost = AnalyticCost::new(&program);
    let out = optimize_app(
        &tree,
        &program,
        &pool_platform(),
        &cost,
        &OptimizerOptions::default(),
    );
    assert_eq!(out.components.len(), 1);
    let names: Vec<&str> = out.components[0]
        .component
        .levels
        .iter()
        .map(|l| l.name.as_str())
        .collect();
    assert_eq!(names, ["n", "c", "p", "q", "r"]);
    assert!(out.components[0].component.levels[4].reduction_parallel);
}
