//! Differential proof that the search's evaluator is bitwise identical to
//! the oracle, `evaluate(build_schedule(..))`.
//!
//! For every PolyBench-NN kernel and a grid of solutions — corner and
//! midpoint tile sizes per level under several thread-group assignments,
//! plus deliberately infeasible blow-ups — a fresh [`MakespanEvaluator`]'s
//! `makespan` (from-scratch analysis + fold) must return the exact bits of
//! `evaluate(build_schedule(..)).makespan_ns`, with `f64::INFINITY` standing
//! in for every infeasibility class (SPM overflow, segment-cap, range
//! overlap). The same holds for every value a [`MakespanEvaluator`] returns
//! from a coordinate scan (`scan_landscape` stretches and single probes,
//! i.e. delta rebuild + lane walk + fold) on every kernel × 3 bus speeds and on
//! reduction-privatized components whose combine phase is priced inside the
//! scan.

use prem::core::{
    build_schedule, evaluate, nondominated_thread_groups, optimize_app, select_tile_sizes,
    AnalyticCost, Component, CostProvider, ExecModel, LoopTree, MakespanEvaluator,
    OptimizerOptions, Platform, Solution,
};
use prem::ir::Program;
use prem::kernels::{PoolConfig, PoolOp};

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

/// The oracle: full schedule materialization + evaluation.
fn full_makespan(comp: &Component, sol: &Solution, platform: &Platform, model: &ExecModel) -> f64 {
    match build_schedule(comp, sol, platform, model) {
        Ok(sched) => evaluate(&sched).makespan_ns,
        Err(_) => f64::INFINITY,
    }
}

/// Corner + midpoint picks from one level's candidate list.
fn level_picks(cands: &[i64]) -> Vec<i64> {
    let mut picks = vec![cands[0], cands[cands.len() / 2], *cands.last().unwrap()];
    picks.dedup();
    picks
}

/// Cartesian product of per-level picks.
fn solution_grid(comp: &Component, r: &[i64]) -> Vec<Solution> {
    let depth = comp.depth();
    let picks: Vec<Vec<i64>> = (0..depth)
        .map(|j| level_picks(&select_tile_sizes(comp, j, r[j])))
        .collect();
    let mut grid = vec![Vec::new()];
    for level in &picks {
        let mut next = Vec::new();
        for prefix in &grid {
            for &k in level {
                let mut v = prefix.clone();
                v.push(k);
                next.push(v);
            }
        }
        grid = next;
    }
    grid.into_iter()
        .map(|k| Solution { k, r: r.to_vec() })
        .collect()
}

fn check_kernel(name: &str, program: &Program, platform: &Platform) {
    let tree = LoopTree::build(program).unwrap();
    let comp = chain_component(&tree, program);
    let cost = AnalyticCost::new(program);
    let model = cost.exec_model(&comp);

    let mut assignments = nondominated_thread_groups(&comp, platform.cores);
    assignments.truncate(4);
    let mut checked = 0usize;
    let mut infeasible = 0usize;
    for r in &assignments {
        for sol in solution_grid(&comp, r) {
            let fast = MakespanEvaluator::new(&comp, platform, &model).makespan(&sol);
            let full = full_makespan(&comp, &sol, platform, &model);
            assert_eq!(
                fast.to_bits(),
                full.to_bits(),
                "{name}: tiers diverge for K{:?} R{:?}: fast {fast} vs full {full}",
                sol.k,
                sol.r
            );
            checked += 1;
            if fast.is_infinite() {
                infeasible += 1;
            }
        }
    }
    // Untiled (K = N): on small platforms this typically overflows the SPM,
    // exercising the infeasible path on both tiers.
    let untiled = Solution::untiled(&comp);
    let fast = MakespanEvaluator::new(&comp, platform, &model).makespan(&untiled);
    let full = full_makespan(&comp, &untiled, platform, &model);
    assert_eq!(fast.to_bits(), full.to_bits(), "{name}: untiled diverges");
    assert!(checked > 0, "{name}: empty grid");
    // The grid must exercise the feasible fold, not only the INF short-cut.
    assert!(
        infeasible < checked,
        "{name}: every grid point infeasible — widen the platform"
    );
}

#[test]
fn fast_tier_matches_full_tier_on_all_kernels() {
    for (name, program) in prem::kernels::all_small() {
        // Roomy SPM: mostly-feasible grid.
        let roomy = Platform::default().with_spm_bytes(128 * 1024);
        check_kernel(name, &program, &roomy);
        // Tight SPM + slow bus: mixes feasible and SPM-overflow points.
        let tight = Platform::default()
            .with_spm_bytes(4 * 1024)
            .with_bus_gbytes(1.0 / 16.0);
        check_kernel(name, &program, &tight);
    }
}

#[test]
fn fast_tier_matches_full_tier_on_few_cores() {
    for (name, program) in prem::kernels::all_small() {
        let p4 = Platform::default()
            .with_spm_bytes(8 * 1024)
            .with_bus_gbytes(0.25)
            .with_cores(4);
        check_kernel(name, &program, &p4);
    }
}

#[test]
fn infeasible_blowup_is_infinite_on_both_tiers() {
    // K = 1 everywhere maximizes segment count, tripping the segment cap
    // (or producing a huge but finite schedule); either way the tiers agree.
    for (name, program) in prem::kernels::all_small() {
        let tree = LoopTree::build(&program).unwrap();
        let comp = chain_component(&tree, &program);
        let cost = AnalyticCost::new(&program);
        let model = cost.exec_model(&comp);
        let platform = Platform::default().with_spm_bytes(4 * 1024);
        let sol = Solution {
            k: vec![1; comp.depth()],
            r: vec![1; comp.depth()],
        };
        let fast = MakespanEvaluator::new(&comp, &platform, &model).makespan(&sol);
        let full = full_makespan(&comp, &sol, &platform, &model);
        assert_eq!(fast.to_bits(), full.to_bits(), "{name}: blow-up diverges");
    }
}

/// Scans every coordinate of `base` through one evaluator — the whole sorted
/// candidate list as one stretch, then each candidate again as a single
/// probe (a memo hit) — and demands oracle bits for every value. Returns the
/// number of finite values.
fn check_scans(
    name: &str,
    comp: &Component,
    base: &Solution,
    platform: &Platform,
    model: &ExecModel,
    ev: &mut MakespanEvaluator<'_>,
) -> usize {
    let mut finite = 0usize;
    for j in 0..comp.depth() {
        let cands = select_tile_sizes(comp, j, base.r[j]);
        ev.begin_coordinate(base, j);
        let values = ev.scan_landscape(&cands);
        assert_eq!(values.len(), cands.len());
        for (&kj, &v) in cands.iter().zip(&values) {
            let mut sol = base.clone();
            sol.k[j] = kj;
            let full = full_makespan(comp, &sol, platform, model);
            assert_eq!(
                v.to_bits(),
                full.to_bits(),
                "{name}: scan value diverges from the oracle for {sol}: {v} vs {full}"
            );
            assert_eq!(ev.makespan(&sol).to_bits(), v.to_bits());
            finite += usize::from(v.is_finite());
        }
        ev.end_coordinate();
    }
    finite
}

/// Every kernel — plus the pooling components as the search privatizes them
/// under `reductions: true`, whose combine phase is priced inside the scan —
/// × 3 bus speeds: every scan value is the oracle's. Exactly the contexts
/// with an array that is not shift-only decline (`lstm`'s recurrent time
/// loop, which reads `s_F[t − 1]` under `t ≥ 1` next to `s_F[t]`); every
/// other kernel is served by the lane walk.
#[test]
fn scan_landscape_matches_oracle_on_every_kernel() {
    let spm = 32 * 1024;
    let mut cases: Vec<(String, Component, ExecModel)> = Vec::new();
    for (name, program) in prem::kernels::all_small() {
        let tree = LoopTree::build(&program).unwrap();
        let comp = chain_component(&tree, &program);
        let model = AnalyticCost::new(&program).exec_model(&comp);
        cases.push((name.to_string(), comp, model));
    }
    for op in [PoolOp::Max, PoolOp::Sum] {
        let program = PoolConfig::small(op).build();
        let tree = LoopTree::build(&program).unwrap();
        let cost = AnalyticCost::new(&program);
        let opts = OptimizerOptions {
            reductions: true,
            ..OptimizerOptions::default()
        };
        let platform = Platform::default().with_spm_bytes(spm);
        let on = optimize_app(&tree, &program, &platform, &cost, &opts);
        let comp = on.components[0].component.clone();
        assert!(comp.arrays.iter().any(|a| a.privatized.is_some()));
        let model = cost.exec_model(&comp);
        cases.push((format!("{op:?}+priv"), comp, model));
    }

    let (mut rebuilt, mut with_combine) = (0usize, 0usize);
    for (name, comp, model) in &cases {
        for bus in [16.0, 1.0, 1.0 / 16.0] {
            let platform = Platform::default().with_spm_bytes(spm).with_bus_gbytes(bus);
            let mut assignments = nondominated_thread_groups(comp, platform.cores);
            assignments.truncate(3);
            let mut finite = 0usize;
            for r in assignments {
                // Midpoint tiles: a base most of whose neighbours fit the SPM.
                let base = Solution {
                    k: (0..comp.depth())
                        .map(|j| {
                            let c = select_tile_sizes(comp, j, r[j]);
                            c[c.len() / 2]
                        })
                        .collect(),
                    r,
                };
                let sched = build_schedule(comp, &base, &platform, model);
                with_combine += usize::from(sched.is_ok_and(|s| s.combine_ns > 0.0));
                let mut ev = MakespanEvaluator::new(comp, &platform, model);
                finite += check_scans(name, comp, &base, &platform, model, &mut ev);
                rebuilt += ev.counters.incremental_rebuilds;
                if name == "lstm" {
                    assert!(ev.counters.delta_declines > 0, "{name}@{bus}");
                    assert_eq!(
                        ev.counters.delta_declines, ev.counters.deltas_built,
                        "{name}@{bus}: a context reached the lanes"
                    );
                    assert_eq!(ev.counters.incremental_rebuilds, 0, "{name}@{bus}");
                } else {
                    assert_eq!(
                        ev.counters.delta_declines, 0,
                        "{name}@{bus}: a context declined"
                    );
                }
            }
            assert!(finite > 0, "{name}@{bus}: every scanned point infeasible");
        }
    }
    assert!(rebuilt > 0, "the lane walk never engaged across the suite");
    assert!(
        with_combine > 0,
        "no privatized base carried a combine phase"
    );
}
