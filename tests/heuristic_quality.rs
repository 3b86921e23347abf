//! Validation of Algorithm 1 against exhaustive search on small components
//! (§4.3 notes the heuristic is close to, but not guaranteed, optimal).

use prem::core::{
    optimize_component, optimize_exhaustive, AnalyticCost, Component, CostProvider, LoopTree,
    OptimizerOptions, Platform, SearchEngine,
};
use prem::ir::Program;

fn chain_component(tree: &LoopTree, program: &Program) -> Component {
    let mut chain = Vec::new();
    let mut node = &tree.roots[0];
    loop {
        chain.push(node);
        match node.children.first() {
            Some(c) if node.children.len() == 1 && c.tilable => node = c,
            _ => break,
        }
    }
    Component::extract(tree, program, &chain)
}

fn compare(program: &Program, platform: &Platform, tolerance: f64) {
    let tree = LoopTree::build(program).unwrap();
    let comp = chain_component(&tree, program);
    let cost = AnalyticCost::new(program);
    let model = cost.exec_model(&comp);
    let exhaustive = optimize_exhaustive(&comp, platform, &model).expect("feasible");
    let heuristic = optimize_component(&comp, platform, &model, &OptimizerOptions::default())
        .expect("feasible");
    assert!(
        heuristic.result.makespan_ns <= exhaustive.result.makespan_ns * tolerance,
        "{}: heuristic {} vs exhaustive {} ({}x)",
        program.name,
        heuristic.result.makespan_ns,
        exhaustive.result.makespan_ns,
        heuristic.result.makespan_ns / exhaustive.result.makespan_ns
    );
    // Exhaustive is a lower bound over the same candidate space.
    assert!(heuristic.result.makespan_ns >= exhaustive.result.makespan_ns * 0.999);
    // And the heuristic must spend far fewer evaluations on deep components.
    if comp.depth() >= 3 {
        assert!(heuristic.evals() < exhaustive.evals());
    }
}

#[test]
fn heuristic_near_optimal_on_small_cnn() {
    let program = prem::kernels::CnnConfig {
        nn: 1,
        nk: 8,
        np: 8,
        nq: 8,
        nc: 6,
        nr: 3,
        ns: 3,
    }
    .build();
    for bus in [16.0, 0.25, 1.0 / 16.0] {
        let platform = Platform::default()
            .with_spm_bytes(8 * 1024)
            .with_bus_gbytes(bus);
        compare(&program, &platform, 1.10);
    }
}

#[test]
fn heuristic_near_optimal_on_lstm_projection() {
    let program = prem::kernels::LstmConfig {
        nt: 2,
        ns: 24,
        np: 20,
    }
    .build();
    // The first component (s1_0, p) dominates; compare on the whole chain of
    // the first root child.
    let tree = LoopTree::build(&program).unwrap();
    let t = &tree.roots[0];
    let s1 = &t.children[0];
    let p = &s1.children[0];
    let comp = Component::extract(&tree, &program, &[s1, p]);
    let cost = AnalyticCost::new(&program);
    let model = cost.exec_model(&comp);
    for bus in [4.0, 1.0 / 8.0] {
        let platform = Platform::default()
            .with_spm_bytes(4 * 1024)
            .with_bus_gbytes(bus)
            .with_cores(4);
        let ex = optimize_exhaustive(&comp, &platform, &model).expect("feasible");
        let he = optimize_component(&comp, &platform, &model, &OptimizerOptions::default())
            .expect("feasible");
        assert!(
            he.result.makespan_ns <= ex.result.makespan_ns * 1.10,
            "bus {bus}: {} vs {}",
            he.result.makespan_ns,
            ex.result.makespan_ns
        );
    }
}

#[test]
fn parallel_exhaustive_matches_serial() {
    // The worker-pool exhaustive search must select the exact optimum the
    // single-threaded sweep finds — same solution, same makespan bits, same
    // evaluation count — regardless of thread interleaving.
    let program = prem::kernels::CnnConfig {
        nn: 1,
        nk: 8,
        np: 8,
        nq: 8,
        nc: 6,
        nr: 3,
        ns: 3,
    }
    .build();
    let tree = LoopTree::build(&program).unwrap();
    let comp = chain_component(&tree, &program);
    let cost = AnalyticCost::new(&program);
    let model = cost.exec_model(&comp);
    for bus in [16.0, 1.0 / 16.0] {
        let platform = Platform::default()
            .with_spm_bytes(8 * 1024)
            .with_bus_gbytes(bus);
        let parallel = optimize_exhaustive(&comp, &platform, &model).expect("feasible");
        let serial = SearchEngine::new(&comp, &platform, &model)
            .with_threads(1)
            .exhaustive()
            .expect("feasible");
        assert_eq!(parallel.solution, serial.solution, "bus {bus}");
        assert_eq!(
            parallel.result.makespan_ns.to_bits(),
            serial.result.makespan_ns.to_bits(),
            "bus {bus}"
        );
        assert_eq!(parallel.evals(), serial.evals(), "bus {bus}");
        assert_eq!(
            parallel.telemetry.counters.pruned, serial.telemetry.counters.pruned,
            "bus {bus}"
        );
    }
}

#[test]
fn heuristic_deterministic_across_runs() {
    let program = prem::kernels::PoolConfig::small(prem::kernels::PoolOp::Sum).build();
    let tree = LoopTree::build(&program).unwrap();
    let comp = chain_component(&tree, &program);
    let cost = AnalyticCost::new(&program);
    let model = cost.exec_model(&comp);
    let platform = Platform::default().with_spm_bytes(4 * 1024);
    let a = optimize_component(&comp, &platform, &model, &OptimizerOptions::default()).unwrap();
    let b = optimize_component(&comp, &platform, &model, &OptimizerOptions::default()).unwrap();
    assert_eq!(a.solution, b.solution);
    assert_eq!(a.result.makespan_ns, b.result.makespan_ns);
}

#[test]
fn different_seeds_stay_close() {
    // Random restarts may land in different local minima, but the paper's
    // max_iter = 3 descent keeps them within a modest band.
    let program = prem::kernels::CnnConfig {
        nn: 1,
        nk: 8,
        np: 10,
        nq: 10,
        nc: 4,
        nr: 3,
        ns: 3,
    }
    .build();
    let tree = LoopTree::build(&program).unwrap();
    let comp = chain_component(&tree, &program);
    let cost = AnalyticCost::new(&program);
    let model = cost.exec_model(&comp);
    let platform = Platform::default()
        .with_spm_bytes(8 * 1024)
        .with_bus_gbytes(0.25);
    let mut best = f64::INFINITY;
    let mut worst = 0.0f64;
    for seed in 0..6u64 {
        let opts = OptimizerOptions {
            seed,
            ..OptimizerOptions::default()
        };
        let r = optimize_component(&comp, &platform, &model, &opts).unwrap();
        best = best.min(r.result.makespan_ns);
        worst = worst.max(r.result.makespan_ns);
    }
    assert!(
        worst <= best * 1.15,
        "seed spread too wide: {best}..{worst}"
    );
}
