//! The thesis' running LSTM example (§3.4–§3.5): component `(s1_0, p)` with
//! `NS = 650`, `NP = 700`, tiled `K = (109, 350)` on `R = (3, 1)` thread
//! groups — reproducing the swap structure of Table 3.1 and the streaming
//! timeline of Figure 3.4.
//!
//! Run with: `cargo run --release --example lstm_schedule`

use prem::core::{
    build_schedule, evaluate, AnalyticCost, Component, ComponentAnalysis, CostProvider, LoopTree,
    Platform, Solution,
};
use prem::sim::{simulate, PhaseKind};

fn main() {
    let program = prem::kernels::LstmConfig {
        nt: 10,
        ns: 650,
        np: 700,
    }
    .build();
    let tree = LoopTree::build(&program).expect("valid SCoP");
    let t = &tree.roots[0];
    let s1_0 = &t.children[0];
    let p = &s1_0.children[0];
    let component = Component::extract(&tree, &program, &[s1_0, p]);

    // The thesis' (non-optimal) demonstration solution.
    let solution = Solution {
        k: vec![109, 350],
        r: vec![3, 1],
    };
    let platform = Platform::default().with_cores(3).with_spm_bytes(4 << 20);
    let cost = AnalyticCost::new(&program);
    let model = cost.exec_model(&component);
    let schedule = build_schedule(&component, &solution, &platform, &model).expect("feasible");

    println!("component (s1_0, p): K = (109, 350), R = (3, 1)");
    println!("M = (6, 2) iteration ranges → 12 tiles on 3 cores, 4 segments each\n");

    println!("buffer attributes and bounding boxes:");
    for (arr, bb) in component.arrays.iter().zip(&schedule.bounding_boxes) {
        println!("  {:<8} {:?} bounding box {:?}", arr.name, arr.attr, bb);
    }

    // A schedule's ops name their ranges by swap index; the ranges
    // themselves live in an analysis built with `retain_ranges`.
    let analysis = ComponentAnalysis::build(&component, &solution, platform.cores, &model, true)
        .expect("feasible");
    let ranges = analysis.core(0).ranges.as_deref().expect("retained ranges");

    println!("\nTable 3.1 — memory batches on core 0 (batch j gates segment j):");
    let core0 = &schedule.cores[0];
    for (j, batch) in core0.batches.iter().enumerate() {
        if batch.is_empty() {
            continue;
        }
        print!("  batch {j}: ");
        for op in core0.batch_ops(j) {
            let arr = &component.arrays[op.array_idx].name;
            print!(
                "{}{} [{}] ",
                if op.is_load { "load " } else { "unload " },
                arr,
                ranges[op.array_idx][op.swap_index]
                    .iter()
                    .map(|iv| format!("{}-{}", iv.lo, iv.hi))
                    .collect::<Vec<_>>()
                    .join("][")
            );
        }
        println!();
    }

    let result = evaluate(&schedule);
    println!(
        "\nanalytic makespan of one component execution: {:.4e} ns",
        result.makespan_ns
    );
    println!(
        "  exec {:.3e} ns, memory {:.3e} ns, API {:.3e} ns, {} B moved",
        result.exec_ns, result.mem_ns, result.api_ns, result.bytes
    );

    // Figure 3.4 — the simulated streaming timeline.
    let sim = simulate(&schedule);
    println!("\nFigure 3.4 — simulated timeline (first 18 phases):");
    for e in sim.trace.iter().take(18) {
        let kind = match e.kind {
            PhaseKind::Init => "init".to_string(),
            PhaseKind::Exec { seg } => format!("exec seg{seg}"),
            PhaseKind::Mem { batch } => format!("mem  b{batch}"),
        };
        println!(
            "  core {}  {:<10} {:>12.0} → {:>12.0} ns",
            e.core, kind, e.start_ns, e.end_ns
        );
    }
    println!("simulated makespan: {:.4e} ns", sim.makespan_ns);
    println!("\n{}", prem::sim::render_gantt(&sim.trace, 100));

    // The same timeline as a Chrome Trace Format file — open it at
    // https://ui.perfetto.dev for a zoomable Figure 3.4.
    let chrome = prem::sim::trace_to_chrome(&sim.trace);
    std::fs::create_dir_all("results").expect("create results dir");
    let path = std::path::Path::new("results/lstm_schedule_trace.json");
    chrome.write(path).expect("write chrome trace");
    println!("wrote {} (open in Perfetto)", path.display());

    let err = (result.makespan_ns - sim.makespan_ns).abs() / sim.makespan_ns;
    println!(
        "analytic vs simulated error: {:.2}% (paper bound: 5%)",
        err * 100.0
    );
}
