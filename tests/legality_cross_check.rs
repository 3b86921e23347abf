//! Cross-validation of the fast legality rules against the precise tiled-
//! schedule verifier: every solution the pipeline accepts must pass
//! `verify_tiling` on the component's active dependences, and deliberately
//! illegal transformations must be rejected somewhere in the pipeline.

use prem::core::{optimize_app, LoopTree, OptimizerOptions, Platform};
use prem::ir::{AssignKind, ElemType, Expr, IdxExpr, ProgramBuilder};
use prem::polyhedral::verify_tiling;
use prem::sim::SimCost;

#[test]
fn chosen_solutions_pass_precise_tiling_verifier() {
    for (name, program) in prem::kernels::all_small() {
        let platform = Platform::default().with_spm_bytes(8 * 1024);
        let tree = LoopTree::build(&program).unwrap();
        let cost = SimCost::new(&program);
        let out = optimize_app(
            &tree,
            &program,
            &platform,
            &cost,
            &OptimizerOptions::default(),
        );
        for report in &out.components {
            let comp = &report.component;
            // Active deps for this component, expressed over the shared
            // prefix; map component levels to shared positions per dep.
            let first = comp.levels[0].loop_id;
            let active = tree.active_deps(first, &comp.stmts);
            for dep in &active {
                let levels: Vec<usize> = comp
                    .levels
                    .iter()
                    .filter_map(|lv| dep.level_of(lv.loop_id))
                    .collect();
                if levels.len() != comp.levels.len() {
                    continue; // dep does not span all levels; weaker check
                }
                let refs: [&prem::polyhedral::Dependence; 1] = [dep];
                assert!(
                    verify_tiling(&refs, &levels, &report.solution.k).is_ok(),
                    "{name}: chosen K {:?} fails precise verification for {dep}",
                    report.solution.k
                );
            }
        }
    }
}

#[test]
fn skewed_dependence_prevents_inner_tiling() {
    // for i { for j { a[i+1][j] = a[i][j+1]; } } — distance (1, -1): tiling
    // j together with i is illegal; the loop tree must mark j non-tilable.
    let mut b = ProgramBuilder::new("skew");
    let a = b.array("a", vec![32, 32], ElemType::F32);
    let i = b.begin_loop("i", 0, 1, 31);
    let j = b.begin_loop("j", 0, 1, 31);
    b.stmt(
        a,
        vec![IdxExpr::var(i).plus_const(1), IdxExpr::var(j)],
        AssignKind::Assign,
        Expr::load(a, vec![IdxExpr::var(i), IdxExpr::var(j).plus_const(1)]),
    );
    b.end_loop();
    b.end_loop();
    let program = b.finish();
    let tree = LoopTree::build(&program).unwrap();
    let ni = &tree.roots[0];
    let nj = &ni.children[0];
    assert!(ni.tilable, "i can head a band");
    assert!(!ni.parallel, "i carries the skewed flow");
    assert!(!nj.tilable, "j must fold (distance (1, -1))");
    assert!(!nj.parallel);

    // Tiling i still moves overlapping shifted ranges between segments
    // (the §5.3.1 overlap rule forbids it), so with a too-small SPM there is
    // no schedule at all…
    let cost = SimCost::new(&program);
    let tiny = Platform::default().with_spm_bytes(4 * 1024);
    let none = optimize_app(&tree, &program, &tiny, &cost, &OptimizerOptions::default());
    assert!(
        !none.makespan_ns.is_finite(),
        "skewed stencil must be unschedulable in 4 KiB"
    );
    // …and with enough SPM the only legal solution is a single segment.
    let platform = Platform::default().with_spm_bytes(16 * 1024);
    let out = optimize_app(
        &tree,
        &program,
        &platform,
        &cost,
        &OptimizerOptions::default(),
    );
    assert!(out.makespan_ns.is_finite());
    let report = &out.components[0];
    assert_eq!(report.level_names, vec!["i"]);
    assert_eq!(
        report.solution.k,
        vec![31],
        "single tile is the only legal K"
    );

    // Functional check through the PREM machine.
    use prem::ir::{run_program, MemStore};
    use prem::sim::{run_app_prem, PlannedComponent};
    let planned = vec![PlannedComponent {
        component: report.component.clone(),
        solution: report.solution.clone(),
    }];
    let mut reference = MemStore::patterned(&program);
    run_program(&program, &mut reference);
    let mut prem_mem = MemStore::patterned(&program);
    run_app_prem(&program, &planned, &platform, &mut prem_mem).unwrap();
    assert!(reference.max_abs_diff(&prem_mem) < 1e-9);
}

#[test]
fn wavefront_dependence_disables_parallelism_but_not_tiling() {
    // for i { for j { a[i][j] += a[i-1][j] + a[i][j-1]; } } (i, j >= 1):
    // distances (1, 0) and (0, 1) — fully permutable band: both levels
    // tilable, neither parallel.
    let mut b = ProgramBuilder::new("wavefront");
    let a = b.array("a", vec![32, 32], ElemType::F32);
    let i = b.begin_loop("i", 1, 1, 31);
    let j = b.begin_loop("j", 1, 1, 31);
    b.stmt(
        a,
        vec![IdxExpr::var(i), IdxExpr::var(j)],
        AssignKind::AddAssign,
        Expr::add(
            Expr::load(a, vec![IdxExpr::var(i).plus_const(-1), IdxExpr::var(j)]),
            Expr::load(a, vec![IdxExpr::var(i), IdxExpr::var(j).plus_const(-1)]),
        ),
    );
    b.end_loop();
    b.end_loop();
    let tree = LoopTree::build(&b.finish()).unwrap();
    let ni = &tree.roots[0];
    let nj = &ni.children[0];
    assert!(ni.tilable && !ni.parallel);
    assert!(nj.tilable && !nj.parallel);
}

#[test]
fn cnn_filter_loops_fold() {
    // §6.3 structure: (n, k, p, q, c) tile; r, s fold because the input
    // feature map is read with negative filter offsets.
    let tree = LoopTree::build(&prem::kernels::CnnConfig::small().build()).unwrap();
    let mut node = &tree.roots[0];
    let mut names = Vec::new();
    loop {
        names.push((node.name.clone(), node.tilable, node.parallel));
        match node.children.first() {
            Some(c) => node = c,
            None => break,
        }
    }
    let expect = [
        ("n", true, true),
        ("k", true, true),
        ("p", true, true),
        ("q", true, true),
        ("c", true, false),
        ("r", false, false),
        ("s", false, false),
    ];
    for ((name, tilable, parallel), (en, et, ep)) in names.iter().zip(expect) {
        assert_eq!(name, en);
        assert_eq!(*tilable, et, "{en} tilable");
        assert_eq!(*parallel, ep, "{en} parallel");
    }
}

#[test]
fn late_guard_bias_array_schedules_and_executes() {
    // A bias array touched only in the LAST iteration of an inner loop:
    // tiles that exclude it must neither transfer it nor evict carried data
    // (the code-review scenario for empty canonical ranges and
    // late-tile range changes).
    use prem::ir::{
        run_program, AssignKind, CmpOp, Cond, ElemType, Expr, IdxExpr, MemStore, ProgramBuilder,
    };
    use prem::sim::{run_app_prem, PlannedComponent};

    let (n, m) = (24i64, 20i64);
    let mut b = ProgramBuilder::new("late_bias");
    let acc = b.array("acc", vec![n], ElemType::F32);
    let x = b.array("x", vec![n, m], ElemType::F32);
    let bias = b.array("bias", vec![n], ElemType::F32);
    let i = b.begin_loop("i", 0, 1, n);
    let j = b.begin_loop("j", 0, 1, m);
    b.begin_if(Cond::atom(IdxExpr::var(j), CmpOp::Eq));
    b.stmt(
        acc,
        vec![IdxExpr::var(i)],
        AssignKind::Assign,
        Expr::Const(0.0),
    );
    b.end_if();
    b.stmt(
        acc,
        vec![IdxExpr::var(i)],
        AssignKind::AddAssign,
        Expr::load(x, vec![IdxExpr::var(i), IdxExpr::var(j)]),
    );
    // bias only read in the last j iteration.
    b.begin_if(Cond::atom(IdxExpr::var(j).plus_const(1 - m), CmpOp::Eq));
    b.stmt(
        acc,
        vec![IdxExpr::var(i)],
        AssignKind::AddAssign,
        Expr::load(bias, vec![IdxExpr::var(i)]),
    );
    b.end_if();
    b.end_loop();
    b.end_loop();
    let program = b.finish();

    let platform = Platform::default().with_cores(2).with_spm_bytes(2 * 1024);
    let tree = LoopTree::build(&program).unwrap();
    let cost = SimCost::new(&program);
    let out = optimize_app(
        &tree,
        &program,
        &platform,
        &cost,
        &OptimizerOptions::default(),
    );
    assert!(
        out.makespan_ns.is_finite(),
        "late-guard kernel must schedule"
    );

    let planned: Vec<PlannedComponent> = out
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
    run_app_prem(&program, &planned, &platform, &mut prem_mem).unwrap();
    assert!(reference.max_abs_diff(&prem_mem) < 1e-9);

    // Force a j-tiled solution so some segments exclude the bias access,
    // exercising the empty-range skip directly.
    use prem::core::{build_schedule, Component, Solution};
    let in_ = &tree.roots[0];
    let jn = &in_.children[0];
    let comp = Component::extract(&tree, &program, &[in_, jn]);
    let cost2 = prem::core::AnalyticCost::new(&program);
    use prem::core::CostProvider;
    let model = cost2.exec_model(&comp);
    let sol = Solution {
        k: vec![6, 5],
        r: vec![2, 1],
    };
    let sched = build_schedule(&comp, &sol, &platform, &model).expect("feasible");
    // bias transfers only for segments containing j = m-1: one load per
    // i-tile per core (range constant along i? bias[i] varies along i).
    let bias_idx = comp.arrays.iter().position(|a| a.name == "bias").unwrap();
    let bias_loads: usize = sched
        .cores
        .iter()
        .flat_map(|c| c.ops.iter())
        .filter(|o| o.array_idx == bias_idx && o.is_load)
        .count();
    let i_tiles = 4; // ceil(24/6)
    assert_eq!(
        bias_loads, i_tiles,
        "one bias load per i-tile, none for j-tiles without j=m-1"
    );

    let planned2 = vec![PlannedComponent {
        component: comp,
        solution: sol,
    }];
    let mut prem2 = MemStore::patterned(&program);
    run_app_prem(&program, &planned2, &platform, &mut prem2).unwrap();
    assert!(reference.max_abs_diff(&prem2) < 1e-9);
}
