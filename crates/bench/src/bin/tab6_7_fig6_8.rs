//! Figure 6.7 (table) and Figure 6.8 — the boundary region between
//! memory-bound and compute-bound execution for the GoogLeNet study CNN
//! (`k128/p28/q28/c96/r3/s3`): best selections, makespan, total transferred
//! data and SPM utilization while the bus speed sweeps
//! `1/64 + 0.01·i` GB/s for `i = 0 … 10`.
//!
//! Usage: `cargo run -p prem-bench --release --bin tab6_7_fig6_8 [--quick|--smoke]`

use prem_bench::{fmt_selection, new_report, parallel_map, write_csv, write_report, RunMode};
use prem_core::{optimize_app_timed, LoopTree, OptimizerOptions, Platform};
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
    let steps: Vec<i32> = if mode.reduced() {
        vec![0, 5, 10]
    } else {
        (0..=10).collect()
    };
    let speeds: Vec<f64> = steps
        .iter()
        .map(|&i| 1.0 / 64.0 + 0.01 * i as f64)
        .collect();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);

    println!("Figures 6.7 / 6.8 — CNN boundary region (k128/p28/q28/c96)");
    println!(
        "{:>12} | {:<64} | {:>12} | {:>12} | {:>8}",
        "bus (GB/s)", "selection", "makespan ns", "bytes", "SPM util"
    );
    let results = parallel_map(speeds.clone(), threads, |&gb| {
        let p = Platform::default().with_bus_gbytes(gb);
        let t0 = std::time::Instant::now();
        let (out, _phases) =
            optimize_app_timed(&tree, &program, &p, &cost, &OptimizerOptions::default());
        (gb, out, t0.elapsed().as_secs_f64())
    });
    let mut rows = Vec::new();
    let mut points = Vec::new();
    for (gb, out, wall_s) in &results {
        let sel = out
            .components
            .first()
            .map(fmt_selection)
            .unwrap_or_else(|| "<none>".into());
        let util = out.max_spm_bytes() as f64 / Platform::default().spm_bytes as f64;
        println!(
            "{:>12.5} | {:<64} | {:>12.4e} | {:>12} | {:>7.1}%",
            gb,
            sel,
            out.makespan_ns,
            out.total_bytes(),
            util * 100.0
        );
        rows.push(format!(
            "{gb},{sel},{},{},{util}",
            out.makespan_ns,
            out.total_bytes()
        ));
        let totals = out.search_totals().counters;
        points.push(Json::obj([
            ("bus_gbytes".to_string(), Json::from(*gb)),
            ("selection".to_string(), Json::from(sel)),
            ("makespan_ns".to_string(), Json::from(out.makespan_ns)),
            ("bytes".to_string(), Json::from(out.total_bytes())),
            ("spm_util".to_string(), Json::from(util)),
            ("evals".to_string(), Json::from(totals.evals)),
            ("cache_hits".to_string(), Json::from(totals.cache_hits)),
            ("wall_s".to_string(), Json::from(*wall_s)),
        ]));
    }
    let path = write_csv(
        "tab6_7_fig6_8.csv",
        "bus_gbytes,selection,makespan_ns,bytes,spm_util",
        &rows,
    )
    .expect("write csv");
    println!("wrote {}", path.display());
    let mut report = new_report("tab6_7_fig6_8", mode);
    report
        .set(
            "config",
            Json::obj([
                ("kernel".to_string(), Json::from("cnn")),
                ("speeds_gbytes".to_string(), Json::from(speeds.clone())),
            ]),
        )
        .set("points", Json::Arr(points));
    write_report(&report);
    println!("(expected shape, §6.3.2: as the bus speeds up, selections shrink the SPM");
    println!(" working set and total transferred bytes increase — the first/last-segment");
    println!(" load/unload time matters more once execution is compute-bound)");
}
