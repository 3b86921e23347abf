//! The premise of `find_minimum`'s bound-and-prune lemma: the walk-free
//! `makespan_lower_bound` never exceeds the makespan the search's evaluator
//! computes for the same candidate (against `+∞` any bound is allowed).
//!
//! Checked on every bundled kernel, on a kernel with an array that only a
//! guarded statement touches, on two window nests whose guarded
//! first-window read the domination rule drops (pinned at `0`) or keeps
//! (pinned at `1`), and on a generated dense chain — each at three
//! bus speeds, under the default options and with reductions privatized —
//! for every tile-size candidate of every coordinate
//! around the max-tile base of every non-dominated assignment of every
//! distinct component the search reports.

mod common;

use prem::core::component::DimContrib;
use prem::core::{
    makespan_lower_bound, nondominated_thread_groups, optimize_app, select_tile_sizes, ArrayUse,
    BufferAttr, CompLevel, Component, CostProvider, ExecModel, LoopTree, MakespanEvaluator,
    OptimizerOptions, Platform, Solution,
};
use prem::frontend::parse_kernel;
use prem::ir::Program;
use prem::polyhedral::Interval;
use prem::sim::SimCost;
use std::collections::HashSet;

fn programs() -> Vec<(String, Program)> {
    let mut out: Vec<(String, Program)> = prem::kernels::all_small()
        .into_iter()
        .map(|(name, p)| (name.to_string(), p))
        .collect();
    let guarded = parse_kernel(
        "guarded",
        "float a[64][64]; float b[64];
         for (int i = 0; i < 64; i++)
           for (int j = 0; j < 64; j++) {
             if (j == 0) b[i] = 1.0;
             a[i][j] = a[i][j] * 2.0;
           }",
        &[],
    )
    .expect("guarded kernel parses");
    out.push(("guarded".into(), guarded));
    // A window nest whose first-window read `inp[2p][2q]` is guarded by a
    // pinned window position: pinned at `0` the domination rule drops it and
    // `inp`'s dimensions get sign masks; pinned at `1` it stays.
    for pin in [0, 1] {
        let name = format!("window{pin}");
        let src = format!(
            "float out[8][8]; float inp[17][17];
             for (int p = 0; p < 8; p++)
               for (int q = 0; q < 8; q++)
                 for (int r = 0; r < 2; r++)
                   for (int s = 0; s < 2; s++) {{
                     if (r == {pin} && s == {pin}) out[p][q] = inp[2 * p][2 * q];
                     out[p][q] += inp[2 * p + r][2 * q + s];
                   }}"
        );
        let window = parse_kernel(&name, &src, &[]).expect("window kernel parses");
        out.push((name, window));
    }
    out.push(("chain".into(), common::chain(26, 12)));
    out
}

/// Default options and privatized reductions.
fn option_sets() -> [OptimizerOptions; 2] {
    [
        OptimizerOptions::default(),
        OptimizerOptions {
            reductions: true,
            ..OptimizerOptions::default()
        },
    ]
}

#[test]
fn bound_never_exceeds_the_evaluated_makespan() {
    let mut finite = 0usize;
    let (mut bound_sum, mut value_sum) = (0.0f64, 0.0f64);
    for (name, program) in programs() {
        let tree = LoopTree::build(&program).expect("program lowers");
        let cost = SimCost::new(&program);
        for bus in [16.0, 1.0, 1.0 / 16.0] {
            let platform = Platform::default()
                .with_spm_bytes(32 * 1024)
                .with_bus_gbytes(bus);
            for opts in option_sets() {
                let out = optimize_app(&tree, &program, &platform, &cost, &opts);
                let mut seen = HashSet::new();
                for c in &out.components {
                    let comp = &c.component;
                    if !seen.insert(comp.fingerprint()) {
                        continue;
                    }
                    let model = cost.exec_model(comp);
                    for r in nondominated_thread_groups(comp, platform.cores) {
                        let candidates: Vec<Vec<i64>> = (0..comp.depth())
                            .map(|j| select_tile_sizes(comp, j, r[j]))
                            .collect();
                        let base = Solution {
                            k: candidates.iter().map(|c| *c.last().unwrap()).collect(),
                            r,
                        };
                        let mut ev = MakespanEvaluator::new(comp, &platform, &model);
                        for (j, level) in candidates.iter().enumerate() {
                            for &kj in level {
                                let mut sol = base.clone();
                                sol.k[j] = kj;
                                let value = ev.makespan(&sol);
                                let bound = makespan_lower_bound(comp, &sol, &platform, &model);
                                assert!(
                                    bound <= value,
                                    "{name}@{bus} {opts:?}: bound {bound} > makespan {value} for {sol}"
                                );
                                if value.is_finite() {
                                    finite += 1;
                                    bound_sum += bound;
                                    value_sum += value;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(finite > 1000, "only {finite} finite candidates checked");
    // Sound is not enough: a bound of 0 is sound and prunes nothing.
    let tightness = bound_sum / value_sum;
    assert!(tightness > 0.5, "bound/value over the suite is {tightness}");
}

/// A level of `i64::MAX` iterations: the extreme spans overflow for one
/// array (it gets no provable entries) and the minimum transfer size
/// overflows for the other (its bytes term drops to 0). The bound stays
/// finite and nothing panics.
#[test]
fn huge_extent_bound_is_finite() {
    let level = |loop_id: usize, name: &str, count: i64| CompLevel {
        loop_id,
        name: name.into(),
        count,
        begin: 0,
        stride: 1,
        parallel: true,
        tilable: true,
        reduction_parallel: false,
    };
    let full = vec![Interval::new(0, i64::MAX - 1), Interval::new(0, 63)];
    let array = |id: usize, name: &str, coeff: i64| ArrayUse {
        array: id,
        name: name.into(),
        dims: vec![i64::MAX, 64],
        elem_bytes: 4,
        attr: BufferAttr::Rw,
        contribs: vec![
            vec![DimContrib {
                comp_coeffs: vec![coeff, 0],
                level_bounds: full.clone(),
                base: Interval::point(0),
            }],
            vec![DimContrib {
                comp_coeffs: vec![0, 1],
                level_bounds: full.clone(),
                base: Interval::point(0),
            }],
        ],
        affected_by: vec![true, true],
        outer_terms: vec![Vec::new(), Vec::new()],
        outer_uniform: true,
        privatized: None,
    };
    let comp = Component {
        kernel: "huge".into(),
        levels: vec![level(0, "i", i64::MAX), level(1, "j", 64)],
        stmts: vec![0],
        exec_count: 1,
        arrays: vec![array(0, "x", 1), array(1, "y", 3)],
        deps: Vec::new(),
        work: Vec::new(),
        folded_iters_per_iter: 1,
    };
    let model = ExecModel {
        o: vec![1.0, 1.0],
        w: 1.0,
    };
    for k in [vec![1i64 << 62, 8], vec![i64::MAX, 64], vec![1 << 62, 1]] {
        for r in [vec![1, 1], vec![2, 4]] {
            let sol = Solution { k: k.clone(), r };
            let bound = makespan_lower_bound(&comp, &sol, &Platform::default(), &model);
            assert!(bound.is_finite() && bound > 0.0, "{sol}: {bound}");
        }
    }
}
