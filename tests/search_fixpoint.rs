//! Algorithm 1's coordinate descent stops at its fixpoint. A level is not
//! rescanned while no other coordinate has moved since its last scan, and a
//! start ends after a sweep that moves nothing, so sweeps past the fixpoint
//! cost nothing. The search stays independent of the thread count, and exact
//! ties resolve to the lexicographically smallest solution in the descent
//! and the exhaustive search alike.

use prem::core::{
    nondominated_thread_groups, optimize_component, AnalyticCost, ApiCosts, CompLevel, Component,
    CostProvider, ExecModel, LoopTree, OptimizerOptions, Platform, SearchEngine,
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

/// On every bundled kernel at three bus speeds, a `max_iter` ceiling far
/// past the fixpoint is free: one more sweep of headroom changes neither the
/// answer nor a single counter of the work done.
#[test]
fn max_iter_past_the_fixpoint_is_free() {
    let mut skipped = 0usize;
    for (name, program) in prem::kernels::all_small() {
        let tree = LoopTree::build(&program).unwrap();
        let comp = chain_component(&tree, &program);
        let cost = AnalyticCost::new(&program);
        let model = cost.exec_model(&comp);
        for bus in [16.0, 1.0, 1.0 / 16.0] {
            let platform = Platform::default()
                .with_spm_bytes(32 * 1024)
                .with_bus_gbytes(bus);
            let run = |max_iter: usize| {
                let opts = OptimizerOptions {
                    max_iter,
                    ..OptimizerOptions::default()
                };
                optimize_component(&comp, &platform, &model, &opts).expect("feasible")
            };
            let (a, b) = (run(64), run(65));
            let what = format!("{name} @ bus {bus}");
            assert_eq!(a.solution, b.solution, "{what}: solution");
            assert_eq!(
                a.result.makespan_ns.to_bits(),
                b.result.makespan_ns.to_bits(),
                "{what}: makespan bits"
            );
            let (ta, tb) = (&a.telemetry, &b.telemetry);
            // Evals, cache hits, sweeps, skipped scans and every ledger count.
            assert_eq!(ta.counters.counts(), tb.counters.counts(), "{what}: counts");
            // Two starts per assignment, each far below its ceiling.
            assert!(
                ta.counters.sweeps_run < 2 * 64 * ta.assignments.len(),
                "{what}: never reached a fixpoint"
            );
            skipped += ta.counters.scans_skipped;
        }
    }
    assert!(skipped > 0, "no scan was ever skipped");
}

/// A serial search and a parallel one agree bitwise, down to the sweep
/// count.
#[test]
fn search_is_thread_count_invariant() {
    let (name, program) = prem::kernels::all_small().remove(0);
    let tree = LoopTree::build(&program).unwrap();
    let comp = chain_component(&tree, &program);
    let cost = AnalyticCost::new(&program);
    let model = cost.exec_model(&comp);
    let platform = Platform::default().with_spm_bytes(32 * 1024);
    let opts = OptimizerOptions::default();
    let serial = SearchEngine::new(&comp, &platform, &model)
        .with_threads(1)
        .descend(&opts)
        .expect("feasible");
    let parallel = SearchEngine::new(&comp, &platform, &model)
        .with_threads(4)
        .descend(&opts)
        .expect("feasible");
    assert_eq!(
        serial.solution, parallel.solution,
        "{name}: selections diverge"
    );
    assert_eq!(
        serial.result.makespan_ns.to_bits(),
        parallel.result.makespan_ns.to_bits(),
        "{name}: makespans diverge"
    );
    assert_eq!(
        serial.telemetry.counters.sweeps_run,
        parallel.telemetry.counters.sweeps_run
    );
    assert_eq!(
        serial.telemetry.counters.scans_skipped,
        parallel.telemetry.counters.scans_skipped
    );
}

/// A component with no arrays under a zero-cost model and zero-cost API:
/// every feasible `(R, K)` ties at makespan 0, so the winner is decided
/// purely by the tie rule.
fn tie_component() -> Component {
    let level = |loop_id: usize, name: &str| CompLevel {
        loop_id,
        name: name.into(),
        count: 12,
        begin: 0,
        stride: 1,
        parallel: true,
        tilable: true,
        reduction_parallel: false,
    };
    Component {
        kernel: "ties".into(),
        levels: vec![level(0, "i"), level(1, "j")],
        stmts: vec![0],
        exec_count: 1,
        arrays: Vec::new(),
        deps: Vec::new(),
        work: Vec::new(),
        folded_iters_per_iter: 1,
    }
}

fn zero_cost_platform() -> Platform {
    Platform {
        cores: 4,
        freq_hz: 1.0e9,
        spm_bytes: 128 * 1024,
        granularity_bytes: 64,
        dma_line_overhead_ns: 0.0,
        bus_bytes_per_sec: 1.0e9,
        api: ApiCosts {
            allocate_buffer: 0.0,
            dispatch: 0.0,
            dma_int_handler: 0.0,
            allocate: 0.0,
            end_segment: 0.0,
            deallocate: 0.0,
            allocate2d: 0.0,
            deallocate_buffer: 0.0,
            swap_buffer: 0.0,
            swap2d_buffer: 0.0,
        },
    }
}

/// On an all-ties fixture the winner must be the lexicographically smallest
/// `(R, K)` — in the descent (convex and scan search, serial and parallel
/// alike) and in the exhaustive enumeration.
#[test]
fn exact_ties_resolve_to_lexicographically_smallest_solution() {
    let comp = tie_component();
    let platform = zero_cost_platform();
    let model = ExecModel {
        o: vec![0.0, 0.0],
        w: 0.0,
    };
    let assignments = nondominated_thread_groups(&comp, platform.cores);
    let min_r = assignments.iter().min().expect("assignments").clone();

    for convex in [false, true] {
        let opts = OptimizerOptions {
            convex_search: convex,
            ..OptimizerOptions::default()
        };
        for threads in [1usize, 4] {
            let out = SearchEngine::new(&comp, &platform, &model)
                .with_threads(threads)
                .descend(&opts)
                .expect("feasible");
            assert_eq!(
                out.solution.r, min_r,
                "convex={convex} threads={threads}: descent tie broke to a larger R"
            );
            assert_eq!(
                out.solution.k,
                vec![1, 1],
                "convex={convex} threads={threads}: descent tie broke to a larger K"
            );
            assert_eq!(out.result.makespan_ns.to_bits(), 0f64.to_bits());
        }
    }
    for threads in [1usize, 4] {
        let out = SearchEngine::new(&comp, &platform, &model)
            .with_threads(threads)
            .exhaustive()
            .expect("feasible");
        assert_eq!(out.solution.r, min_r, "threads={threads}: exhaustive tie");
        assert_eq!(
            out.solution.k,
            vec![1, 1],
            "threads={threads}: exhaustive tie"
        );
        assert_eq!(out.result.makespan_ns.to_bits(), 0f64.to_bits());
    }
}
