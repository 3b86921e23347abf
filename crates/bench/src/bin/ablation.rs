//! Ablation study of the optimizer's design choices (DESIGN.md §6):
//!
//! * `max_iter` — the paper picked 3 coordinate-descent sweeps (§4.3);
//! * convex ternary search vs full scan inside `find_minimum`;
//! * the non-dominated filter on thread-group assignments.
//!
//! Usage: `cargo run -p prem-bench --release --bin ablation [--quick|--smoke]`

use prem_bench::{new_report, write_report, RunMode};
use prem_core::{
    nondominated_thread_groups, optimize_component, Component, CostProvider, LoopTree,
    OptimizerOptions, Platform,
};
use prem_obs::Json;
use prem_sim::SimCost;

fn chain(tree: &LoopTree) -> Vec<&prem_core::LoopTreeNode> {
    let mut chain = Vec::new();
    let mut node = &tree.roots[0];
    loop {
        chain.push(node);
        match node.children.first() {
            Some(c) if node.children.len() == 1 && c.tilable => node = c,
            _ => break,
        }
    }
    chain
}

fn main() {
    let mode = RunMode::from_args();
    let cfg = if mode == RunMode::Smoke {
        prem_kernels::CnnConfig::small()
    } else {
        prem_kernels::CnnConfig::googlenet_study()
    };
    let program = cfg.build();
    let tree = LoopTree::build(&program).expect("lowers");
    let comp = Component::extract(&tree, &program, &chain(&tree));
    let cost = SimCost::new(&program);
    let model = cost.exec_model(&comp);
    let platform = Platform::default().with_bus_gbytes(1.0 / 32.0);

    println!("Ablations on the CNN study component @ 1/32 GB/s\n");

    println!("1) coordinate-descent sweeps (paper: max_iter = 3)");
    println!(
        "{:>9} {:>14} {:>8} {:>9}",
        "max_iter", "makespan ns", "evals", "time s"
    );
    let sweeps: &[usize] = if mode.reduced() {
        &[1, 3]
    } else {
        &[1, 2, 3, 5]
    };
    let mut sweep_points = Vec::new();
    for &max_iter in sweeps {
        let t0 = std::time::Instant::now();
        let opts = OptimizerOptions {
            max_iter,
            ..OptimizerOptions::default()
        };
        let r = optimize_component(&comp, &platform, &model, &opts).expect("feasible");
        let wall_s = t0.elapsed().as_secs_f64();
        println!(
            "{max_iter:>9} {:>14.5e} {:>8} {:>9.2}",
            r.result.makespan_ns,
            r.evals(),
            wall_s
        );
        sweep_points.push(Json::obj([
            ("max_iter".to_string(), Json::from(max_iter)),
            ("makespan_ns".to_string(), Json::from(r.result.makespan_ns)),
            ("evals".to_string(), Json::from(r.evals())),
            (
                "cache_hits".to_string(),
                Json::from(r.telemetry.counters.cache_hits),
            ),
            ("wall_s".to_string(), Json::from(wall_s)),
        ]));
    }

    println!("\n2) find_minimum: ternary (convex assumption, §4.3) vs full scan");
    println!(
        "{:>9} {:>14} {:>8} {:>9}",
        "mode", "makespan ns", "evals", "time s"
    );
    let mut search_points = Vec::new();
    for convex in [true, false] {
        let t0 = std::time::Instant::now();
        let opts = OptimizerOptions {
            convex_search: convex,
            ..OptimizerOptions::default()
        };
        let r = optimize_component(&comp, &platform, &model, &opts).expect("feasible");
        let wall_s = t0.elapsed().as_secs_f64();
        println!(
            "{:>9} {:>14.5e} {:>8} {:>9.2}",
            if convex { "ternary" } else { "scan" },
            r.result.makespan_ns,
            r.evals(),
            wall_s
        );
        search_points.push(Json::obj([
            (
                "mode".to_string(),
                Json::from(if convex { "ternary" } else { "scan" }),
            ),
            ("makespan_ns".to_string(), Json::from(r.result.makespan_ns)),
            ("evals".to_string(), Json::from(r.evals())),
            ("wall_s".to_string(), Json::from(wall_s)),
        ]));
    }

    println!("\n3) thread-group assignment space (non-dominated filter, §4.3)");
    let nd = nondominated_thread_groups(&comp, platform.cores);
    let all: i64 = {
        // Count all valid assignments for comparison.
        fn rec(comp: &Component, p: i64, j: usize, used: i64) -> i64 {
            if j == comp.depth() {
                return 1;
            }
            let max_r = if comp.levels[j].parallel {
                (p / used).min(comp.levels[j].count).max(1)
            } else {
                1
            };
            (1..=max_r).map(|r| rec(comp, p, j + 1, used * r)).sum()
        }
        rec(&comp, platform.cores as i64, 0, 1)
    };
    println!("   all valid assignments: {all}");
    println!("   non-dominated        : {}", nd.len());

    let best = optimize_component(&comp, &platform, &model, &OptimizerOptions::default())
        .expect("feasible");

    let mut report = new_report("ablation", mode);
    report
        .set(
            "config",
            Json::obj([
                ("kernel".to_string(), Json::from("cnn")),
                ("bus_gbytes".to_string(), Json::from(1.0 / 32.0)),
            ]),
        )
        .set("max_iter_sweep", Json::Arr(sweep_points))
        .set("find_minimum", Json::Arr(search_points))
        .set("assignments_all", all)
        .set("assignments_nondominated", nd.len())
        .set("makespan_ns", best.result.makespan_ns)
        .set("evals", best.evals())
        .set("cache_hits", best.telemetry.counters.cache_hits);
    write_report(&report);
}
