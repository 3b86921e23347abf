//! Figure 6.6 (table) — Best tiling and parallelization selections for the
//! GoogLeNet 3×3-filter CNN shapes at the very slow bus speed of
//! 1/512 GB/s (batch 1, stride 1).
//!
//! Usage: `cargo run -p prem-bench --release --bin tab6_6 [--quick|--smoke]`

use prem_bench::{fmt_selection, new_report, parallel_map, write_csv, write_report, RunMode};
use prem_core::{optimize_app_timed, LoopTree, OptimizerOptions, Platform};
use prem_obs::Json;
use prem_sim::SimCost;

fn main() {
    let mode = RunMode::from_args();
    let shapes = match mode {
        RunMode::Smoke => vec![prem_kernels::CnnConfig::small()],
        RunMode::Quick => prem_kernels::googlenet::study_shapes()
            .into_iter()
            .take(2)
            .collect(),
        RunMode::Full => prem_kernels::googlenet::study_shapes(),
    };
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let platform = Platform::default().with_bus_gbytes(1.0 / 512.0);

    println!("Figure 6.6 — best selections for GoogLeNet CNN shapes @ 1/512 GB/s");
    println!(
        "{:<24} | {:<60} | {:>13}",
        "NK/NP/NQ/NC", "selection", "makespan (ns)"
    );
    let results = parallel_map(shapes, threads, |cfg| {
        let program = cfg.build();
        let tree = LoopTree::build(&program).expect("lowers");
        let cost = SimCost::new(&program);
        let t0 = std::time::Instant::now();
        let (out, _phases) = optimize_app_timed(
            &tree,
            &program,
            &platform,
            &cost,
            &OptimizerOptions::default(),
        );
        (*cfg, out, t0.elapsed().as_secs_f64())
    });
    let mut rows = Vec::new();
    let mut points = Vec::new();
    for (cfg, out, wall_s) in &results {
        let shape = format!("{} / {} / {} / {}", cfg.nk, cfg.np, cfg.nq, cfg.nc);
        let sel = out
            .components
            .first()
            .map(fmt_selection)
            .unwrap_or_else(|| "<none>".into());
        println!("{:<24} | {:<60} | {:>13.4e}", shape, sel, out.makespan_ns);
        rows.push(format!("{shape},{sel},{}", out.makespan_ns));
        let totals = out.search_totals().counters;
        points.push(Json::obj([
            ("shape".to_string(), Json::from(shape)),
            ("selection".to_string(), Json::from(sel)),
            ("makespan_ns".to_string(), Json::from(out.makespan_ns)),
            ("evals".to_string(), Json::from(totals.evals)),
            ("cache_hits".to_string(), Json::from(totals.cache_hits)),
            ("wall_s".to_string(), Json::from(*wall_s)),
        ]));
    }
    let path = write_csv("tab6_6.csv", "shape,selection,makespan_ns", &rows).expect("write csv");
    println!("wrote {}", path.display());
    let mut report = new_report("tab6_6", mode);
    report
        .set(
            "config",
            Json::obj([("bus_gbytes".to_string(), Json::from(1.0 / 512.0))]),
        )
        .set("points", Json::Arr(points));
    write_report(&report);
    println!("(paper: selections differ per shape — e.g. 128/28/28/96 → R 4/2/1, K 32/14/28/5)");
}
