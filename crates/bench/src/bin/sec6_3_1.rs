//! §6.3.1 — Detailed comparison of the heuristic's best selection against
//! the greedy selection for the GoogLeNet study CNN at 1/32 GB/s: makespans,
//! total transferred bytes, segment counts and innermost iterations per
//! segment. The paper reports ≈10× makespan and ≈10× transferred-bytes gaps.
//!
//! Usage: `cargo run -p prem-bench --release --bin sec6_3_1 [--smoke]`

use prem_bench::{fmt_selection, new_report, write_report, RunMode};
use prem_core::{optimize_app_greedy, optimize_app_timed, LoopTree, OptimizerOptions, Platform};
use prem_obs::Json;
use prem_sim::SimCost;

fn main() {
    let mode = RunMode::from_args();
    let cfg = if mode == RunMode::Smoke {
        prem_kernels::CnnConfig::small()
    } else {
        prem_kernels::CnnConfig::googlenet_study()
    };
    let program = cfg.build();
    let tree = LoopTree::build(&program).expect("lowers");
    let cost = SimCost::new(&program);
    let platform = Platform::default().with_bus_gbytes(1.0 / 32.0);

    let t0 = std::time::Instant::now();
    let (ours, _phases) = optimize_app_timed(
        &tree,
        &program,
        &platform,
        &cost,
        &OptimizerOptions::default(),
    );
    let ours_s = t0.elapsed().as_secs_f64();
    let greedy = optimize_app_greedy(&tree, &program, &platform, &cost);

    let inner_iters = |c: &prem_core::ComponentReport| {
        // Innermost iterations per full segment: product of K extents times
        // the folded r, s loops (3 × 3).
        c.solution.k.iter().product::<i64>() * (cfg.nr * cfg.ns)
    };
    let segments =
        |c: &prem_core::ComponentReport| c.solution.m(&c.component).iter().product::<i64>();

    println!("§6.3.1 — heuristic vs greedy, CNN k128/p28/q28/c96 @ 1/32 GB/s\n");
    let mut selections = Vec::new();
    for (label, out) in [("selection_best", &ours), ("selection_greedy", &greedy)] {
        let c = &out.components[0];
        println!("{label}:");
        println!("  {}", fmt_selection(c));
        println!("  makespan        : {:.6e} ns", out.makespan_ns);
        println!("  bytes transferred: {}", out.total_bytes());
        println!("  segments         : {}", segments(c));
        println!("  innermost iters / full segment: {}", inner_iters(c));
        println!("  SPM occupation   : {} B", c.result.spm_bytes);
        println!();
        selections.push(Json::obj([
            ("label".to_string(), Json::from(label)),
            ("selection".to_string(), Json::from(fmt_selection(c))),
            ("makespan_ns".to_string(), Json::from(out.makespan_ns)),
            ("bytes".to_string(), Json::from(out.total_bytes())),
            ("segments".to_string(), Json::from(segments(c))),
            ("inner_iters".to_string(), Json::from(inner_iters(c))),
            ("spm_bytes".to_string(), Json::from(c.result.spm_bytes)),
        ]));
    }
    let ratio_makespan = greedy.makespan_ns / ours.makespan_ns;
    let ratio_bytes = greedy.total_bytes() as f64 / ours.total_bytes() as f64;
    println!("greedy/best makespan ratio : {ratio_makespan:.2}x  (paper: ≈10x)");
    println!("greedy/best bytes ratio    : {ratio_bytes:.2}x  (paper: ≈10x)");

    let totals = ours.search_totals();
    let mut report = new_report("sec6_3_1", mode);
    report
        .set(
            "config",
            Json::obj([
                ("kernel".to_string(), Json::from("cnn")),
                ("nk".to_string(), Json::from(cfg.nk)),
                ("np".to_string(), Json::from(cfg.np)),
                ("nq".to_string(), Json::from(cfg.nq)),
                ("nc".to_string(), Json::from(cfg.nc)),
                ("bus_gbytes".to_string(), Json::from(1.0 / 32.0)),
            ]),
        )
        .set("selections", Json::Arr(selections))
        .set("ratio_makespan", ratio_makespan)
        .set("ratio_bytes", ratio_bytes)
        .set("makespan_ns", ours.makespan_ns)
        .set("evals", totals.counters.evals)
        .set("cache_hits", totals.counters.cache_hits)
        .set("cache_hit_rate", totals.cache_hit_rate())
        .set("wall_s", ours_s);
    write_report(&report);
}
