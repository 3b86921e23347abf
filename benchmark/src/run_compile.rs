//! The two compile workloads, `conv_deep` and `nest_wide`: one caller
//! compiling generated kernel sources back to back (closed loop; the search
//! itself fans out over the machine's cores).

use crate::compile::{
    check_evaluator, check_twins, check_winners, compile_kernel, layer_metrics, selection,
    span_seconds, winner_metrics, Compiled, EvaluatorStats, LayerSums, Twins, WinnerStats,
};
use crate::kernels::{self, KernelInput};
use crate::report::{Checks, Row, RunOutput};
use crate::rng::Rng;
use crate::stats::{geomean, median};
use crate::trace::{self, Recorder};
use crate::{RunArgs, Workload};
use prem_obs::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Inputs of a compile workload plus what checking the twins measured.
pub struct Setup {
    kernels: Vec<KernelInput>,
    checks: Checks,
    twins: Twins,
}

/// Generates the workload's sources and verifies one small twin per template
/// against the interpreter.
pub fn setup(workload: Workload, args: &RunArgs) -> Setup {
    let kernels = match workload {
        Workload::ConvDeep => kernels::conv_deep(args.seed, args.smoke),
        _ => kernels::nest_wide(args.seed, args.smoke),
    };
    let mut checks = Checks::default();
    let twins = check_twins(&mut checks);
    Setup {
        kernels,
        checks,
        twins,
    }
}

struct Passes {
    /// Per kernel, the wall time of each compile of it.
    latencies: Vec<Vec<f64>>,
    /// Per pass, its wall time and the bytes of PREM C it emitted.
    walls: Vec<f64>,
    prem_c_bytes: Vec<f64>,
    /// Work summed over all passes, when they are traced.
    layers: LayerSums,
}

/// State shared by the untraced and the traced passes of one run.
struct Session<'a> {
    input: &'a [KernelInput],
    /// The first compile of every kernel, kept for verification.
    keep: Vec<Option<Compiled>>,
    /// The winners every later compile of a kernel is held to.
    reference: BTreeMap<String, String>,
    selection_changes: usize,
    checks: Checks,
}

impl Session<'_> {
    /// Compiles every kernel once per pass until another pass would overrun
    /// `budget_s`; at least one pass.
    fn run_passes(&mut self, rec: &mut Recorder, budget_s: f64) -> Passes {
        let mut passes = Passes {
            latencies: vec![Vec::new(); self.input.len()],
            walls: Vec::new(),
            prem_c_bytes: Vec::new(),
            layers: LayerSums::default(),
        };
        let clock = Instant::now();
        let mut longest = 0.0f64;
        while passes.walls.is_empty() || clock.elapsed().as_secs_f64() + longest <= budget_s {
            let pass_clock = Instant::now();
            let mut bytes = 0usize;
            for (index, kernel) in self.input.iter().enumerate() {
                let root = rec.open("harness.compile", None, index as u32);
                let op_clock = Instant::now();
                let compiled = compile_kernel(rec, root, kernel);
                passes.latencies[index].push(op_clock.elapsed().as_secs_f64());
                rec.close(root);
                let compiled = match compiled {
                    Ok(c) => c,
                    Err(e) => {
                        self.checks
                            .check(false, || format!("{}: compile failed: {e}", kernel.row));
                        continue;
                    }
                };
                let chosen = selection(&compiled.outcome);
                let expected = self
                    .reference
                    .entry(kernel.row.clone())
                    .or_insert_with(|| chosen.clone());
                let same = *expected == chosen;
                self.selection_changes += usize::from(!same);
                self.checks.check(same, || {
                    format!("{}: selected {chosen}, reference {expected}", kernel.row)
                });
                bytes += compiled.prem_c.len();
                if rec.enabled() {
                    passes.layers.add(&compiled);
                }
                if self.keep[index].is_none() {
                    self.keep[index] = Some(compiled);
                }
            }
            let wall = pass_clock.elapsed().as_secs_f64();
            longest = longest.max(wall);
            passes.walls.push(wall);
            passes.prem_c_bytes.push(bytes as f64);
        }
        passes
    }
}

fn expected_path(workload: Workload, seed: u64) -> String {
    format!("benchmark/expected/{}-seed{seed}.json", workload.name())
}

/// Committed winners of seeds 12 and 13 (`benchmark/expected/`); any other
/// seed, and every smoke run, takes its first pass as the reference.
fn load_expected(workload: Workload, args: &RunArgs) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    if args.smoke || args.write_expected {
        return out;
    }
    let Ok(text) = std::fs::read_to_string(expected_path(workload, args.seed)) else {
        return out;
    };
    let json = Json::parse(&text).expect("expected-selections file is valid JSON");
    if let Some(Json::Obj(pairs)) = json.get("selections") {
        for (row, sel) in pairs {
            if let Some(s) = sel.as_str() {
                out.insert(row.clone(), s.to_string());
            }
        }
    }
    out
}

fn write_expected(workload: Workload, seed: u64, reference: &BTreeMap<String, String>) {
    let selections = reference
        .iter()
        .map(|(row, sel)| (row.clone(), Json::from(sel.as_str())))
        .collect();
    let doc = Json::obj::<&str, Json>([
        ("workload", Json::from(workload.name())),
        ("seed", Json::from(seed as usize)),
        ("selections", Json::Obj(selections)),
    ]);
    let path = expected_path(workload, seed);
    std::fs::write(&path, doc.to_pretty()).expect("write expected selections");
    println!("wrote {path}");
}

/// Runs `conv_deep` or `nest_wide`.
pub fn run(workload: Workload, args: &RunArgs, setup: Setup, epoch: Instant) -> RunOutput {
    let input = &setup.kernels;
    let mut session = Session {
        input,
        keep: input.iter().map(|_| None).collect(),
        reference: load_expected(workload, args),
        selection_changes: 0,
        checks: setup.checks,
    };

    let budget = args.untraced_seconds();
    let plain = session.run_passes(&mut Recorder::new(false, epoch), budget);
    let mut traced_rec = Recorder::new(true, epoch);
    let traced = args
        .trace
        .then(|| session.run_passes(&mut traced_rec, budget));
    if args.write_expected {
        write_expected(workload, args.seed, &session.reference);
    }

    // Verification, once per kernel, on the first compile of each.
    let mut verify_rec = Recorder::new(args.trace, epoch);
    let mut winners: Vec<WinnerStats> = Vec::new();
    let mut evaluator = EvaluatorStats::default();
    let mut sample_rng = Rng::new(args.seed, "evaluator_sample");
    let mut sampled_shapes: Vec<&[(String, i64)]> = Vec::new();
    for (index, kernel) in input.iter().enumerate() {
        let Some(compiled) = &session.keep[index] else {
            winners.push(WinnerStats::default());
            continue;
        };
        let platform = kernel.point.platform();
        let root = verify_rec.open("harness.verify", None, index as u32);
        winners.push(check_winners(
            &mut verify_rec,
            root,
            &kernel.row,
            compiled,
            &platform,
            &mut session.checks,
        ));
        verify_rec.close(root);
        // The evaluator sample is drawn once per conv shape, not per bus.
        if workload == Workload::ConvDeep && !sampled_shapes.contains(&&kernel.src.params[..]) {
            sampled_shapes.push(&kernel.src.params);
            evaluator.absorb(check_evaluator(
                &kernel.row,
                compiled,
                &platform,
                &mut sample_rng,
                if args.smoke { 4 } else { 12 },
                &mut session.checks,
            ));
        }
    }

    println!("pass walls {:.3?} s", plain.walls);
    let mut out = RunOutput {
        checks: session.checks,
        ..RunOutput::default()
    };
    let medians: Vec<f64> = plain.latencies.iter().map(|l| median(l)).collect();
    for (index, kernel) in input.iter().enumerate() {
        out.rows.push(Row {
            name: kernel.row.clone(),
            median_ms: medians[index] * 1e3,
            samples: plain.latencies[index].len(),
            sim_makespan_ns: winners[index].sim_makespan_ns,
            out_bytes: session.keep[index].as_ref().map_or(0, |c| c.prem_c.len()),
        });
    }
    let n = input.len() as f64;
    let m = &mut out.metrics;
    // Per-kernel medians first, then the sum: one stalled compile in one pass
    // does not move the total.
    m.set("ops_per_s", n / medians.iter().sum::<f64>());
    m.set("op_p50_ms", median(&medians) * 1e3);
    m.set(
        "op_tail_ms",
        medians.iter().copied().fold(0.0, f64::max) * 1e3,
    );
    m.set("op_geomean_ms", geomean(&medians) * 1e3);
    let sim_ns: Vec<f64> = winners.iter().map(|w| w.sim_makespan_ns).collect();
    m.set("sim_makespan_geomean_ns", geomean(&sim_ns));
    m.set("out_bytes_per_op", median(&plain.prem_c_bytes) / n);

    let Some(traced) = traced else {
        return out;
    };
    let passes = traced.walls.len() as f64;
    layer_metrics(m, &[&traced_rec], &traced.layers, passes);
    winner_metrics(m, &[&verify_rec], &winners);
    evaluator.metrics(m);
    setup.twins.metrics(m);
    m.set(
        "harness.tracing_overhead_share",
        median(&traced.walls) / median(&plain.walls) - 1.0,
    );
    let chain_s = span_seconds(&[&traced_rec], "harness.compile");
    m.set(
        "harness.search_share",
        m.get("core.tiling_search_s").unwrap_or(0.0) * passes / chain_s,
    );
    m.set(
        "harness.selection_changes",
        session.selection_changes as f64,
    );
    m.set("harness.passes", plain.walls.len() as f64);
    // One caller; the search spreads over the cores by itself.
    m.set("harness.clients", 1.0);
    let self_s = trace::self_times(&[&traced_rec]);
    m.set(
        "harness.layer_sum_share",
        self_s.values().sum::<f64>() / chain_s,
    );
    trace::print_self_times(&self_s, chain_s);
    let names: Vec<String> = input.iter().map(|k| k.row.clone()).collect();
    trace::write(workload.name(), &[&traced_rec, &verify_rec], &names);
    out
}
