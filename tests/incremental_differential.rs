//! Differential proof that the single-coordinate incremental rebuild
//! ([`CoordinateDelta::rebuild_scan`]) is bitwise identical to its
//! reference, the from-scratch [`ComponentAnalysis::build`].
//!
//! For every PolyBench-NN kernel, deterministic random walks move one tile
//! coordinate `K_j` at a time over the `select_tile_sizes` grid — the exact
//! access pattern of the optimizer's coordinate-descent inner loop — and
//! whole sorted candidate lists are rebuilt in one scan. Every rebuilt
//! candidate must agree with the from-scratch build bit for bit: same swap
//! lists, same execution-time bits, same bounding boxes, and on infeasible
//! candidates the same first [`Infeasible`] class. A context the lane walk
//! cannot hold is declined by [`CoordinateDelta::new`]; every decline reason
//! has a case here, in which an evaluator scan answers from the reference
//! build with the oracle's values, next to a twin on the lanes. One reason
//! is an array that is not shift-only: a guard that clips, mixed
//! coefficient vectors or sums that could saturate.

mod common;

use common::SplitMix;
use prem::core::component::DimContrib;
use prem::core::{
    build_schedule, evaluate, nondominated_thread_groups, optimize_app, select_tile_sizes,
    AnalyticCost, Component, ComponentAnalysis, CoordinateDelta, CostProvider, ExecModel,
    Infeasible, LoopTree, MakespanEvaluator, OptimizerOptions, Platform, Solution,
};
use prem::core::{ArrayUse, BufferAttr, CompLevel, ComponentDep};
use prem::ir::{AssignKind, CmpOp, Cond, ElemType, Expr, IdxExpr, Program, ProgramBuilder};
use prem::kernels::{PoolConfig, PoolOp};
use prem::obs::SearchCounters;
use prem::polyhedral::{DepKind, Interval};

/// The program's outermost chain component and its analytic exec model.
fn component_of(program: &Program) -> (Component, ExecModel) {
    let tree = LoopTree::build(program).unwrap();
    let mut chain = Vec::new();
    let mut node = &tree.roots[0];
    loop {
        chain.push(node);
        match node.children.first() {
            Some(c) if node.children.len() == 1 && c.tilable => node = c,
            _ => break,
        }
    }
    let comp = Component::extract(&tree, program, &chain);
    let model = AnalyticCost::new(program).exec_model(&comp);
    (comp, model)
}

/// A perfect nest of `dims.len()` loops assigning to `arrays` arrays, each
/// indexed by every counter — dependence-free, so one tilable component.
/// Every array is shift-only: the lanes read its ranges from per-level
/// class shapes.
fn assign_nest(name: &str, dims: &[i64], arrays: usize) -> (Component, ExecModel) {
    nest(name, dims, arrays, false)
}

/// [`assign_nest`] with every assignment guarded by `i0 ≥ 1`: a guard that
/// can clip, so no array is shift-only and every context is declined.
fn guarded_assign_nest(name: &str, dims: &[i64], arrays: usize) -> (Component, ExecModel) {
    nest(name, dims, arrays, true)
}

fn nest(name: &str, dims: &[i64], arrays: usize, guarded: bool) -> (Component, ExecModel) {
    let mut b = ProgramBuilder::new(name);
    let arrays: Vec<_> = (0..arrays)
        .map(|a| b.array(format!("A{a}"), dims.to_vec(), ElemType::F32))
        .collect();
    let vars: Vec<_> = dims
        .iter()
        .enumerate()
        .map(|(l, &n)| b.begin_loop(format!("i{l}"), 0, 1, n))
        .collect();
    if guarded {
        b.begin_if(Cond::atom(IdxExpr::var(vars[0]).plus_const(-1), CmpOp::Ge));
    }
    for &a in &arrays {
        let idx = vars.iter().map(|&v| IdxExpr::var(v)).collect();
        b.stmt(a, idx, AssignKind::Assign, Expr::Const(1.0));
    }
    if guarded {
        b.end_if();
    }
    for _ in dims {
        b.end_loop();
    }
    let (comp, model) = component_of(&b.finish());
    assert_eq!(comp.depth(), dims.len(), "{name}: not one component");
    (comp, model)
}

/// The pooling components as the search privatizes them under
/// `reductions: true` (third SPM buffer, combine structure).
fn privatized_pools() -> Vec<(&'static str, Component, ExecModel)> {
    let platform = Platform::default().with_spm_bytes(32 * 1024).with_cores(8);
    let opts = OptimizerOptions {
        reductions: true,
        ..OptimizerOptions::default()
    };
    let mut out = Vec::new();
    for config in [PoolConfig::small, PoolConfig::window_dominant] {
        for (name, op) in [("maxpool+priv", PoolOp::Max), ("sumpool+priv", PoolOp::Sum)] {
            let program = config(op).build();
            let tree = LoopTree::build(&program).unwrap();
            let cost = AnalyticCost::new(&program);
            let on = optimize_app(&tree, &program, &platform, &cost, &opts);
            let comp = on.components[0].component.clone();
            assert!(comp.arrays.iter().any(|a| a.privatized.is_some()));
            let model = cost.exec_model(&comp);
            out.push((name, comp, model));
        }
    }
    out
}

type Rebuilt = Vec<Result<ComponentAnalysis, Infeasible>>;

fn feasible(rebuilt: &Rebuilt) -> usize {
    rebuilt.iter().filter(|r| r.is_ok()).count()
}

/// Segment-cap rejections: the candidates answered without a tile walk.
fn truncations(rebuilt: &Rebuilt) -> usize {
    rebuilt
        .iter()
        .filter(|b| matches!(b, Err(Infeasible::TooManySegments { .. })))
        .count()
}

/// One scan check: rebuild `base` with coordinate `j` — the one `delta` was
/// built for — set to each of `cands` in one
/// [`CoordinateDelta::rebuild_scan`], then demand every element be bitwise
/// identical to a from-scratch [`ComponentAnalysis::build`] — including
/// which [`Infeasible`] class fires.
#[allow(clippy::too_many_arguments)]
fn check_scan(
    name: &str,
    comp: &Component,
    delta: &CoordinateDelta,
    base: &Solution,
    j: usize,
    cands: &[i64],
    model: &ExecModel,
    cores: usize,
) -> Rebuilt {
    check_scan_ledger(name, comp, delta, base, j, cands, model, cores).0
}

/// [`check_scan`], also returning the segments of its feasible analyses.
#[allow(clippy::too_many_arguments)]
fn check_scan_counted(
    name: &str,
    comp: &Component,
    delta: &CoordinateDelta,
    base: &Solution,
    j: usize,
    cands: &[i64],
    model: &ExecModel,
    cores: usize,
) -> (Rebuilt, usize) {
    let rebuilt = check_scan(name, comp, delta, base, j, cands, model, cores);
    let segments = rebuilt
        .iter()
        .flatten()
        .map(|a| (0..a.ncores()).map(|c| a.core(c).nseg).sum::<usize>())
        .sum();
    (rebuilt, segments)
}

/// [`check_scan`], also returning what the scan booked in its ledger.
#[allow(clippy::too_many_arguments)]
fn check_scan_ledger(
    name: &str,
    comp: &Component,
    delta: &CoordinateDelta,
    base: &Solution,
    j: usize,
    cands: &[i64],
    model: &ExecModel,
    cores: usize,
) -> (Rebuilt, SearchCounters) {
    let mut ledger = SearchCounters::default();
    let rebuilt = delta.rebuild_scan(comp, cands, model, &mut ledger);
    assert_eq!(rebuilt.len(), cands.len());
    for (&kj, b) in cands.iter().zip(&rebuilt) {
        let mut sol = base.clone();
        sol.k[j] = kj;
        let full = ComponentAnalysis::build(comp, &sol, cores, model, false);
        match (b, &full) {
            (Ok(a), Ok(f)) => assert!(a.bitwise_eq(f), "{name}: scan vs full diverges for {sol}"),
            (Err(a), Err(f)) => assert_eq!(a, f, "{name}: scan error vs full for {sol}"),
            (Ok(_), Err(e)) => panic!("{name}: scan feasible, full build fails ({e}) for {sol}"),
            (Err(e), Ok(_)) => panic!("{name}: scan fails ({e}), full build succeeds for {sol}"),
        }
    }
    (rebuilt, ledger)
}

/// Random single-coordinate walk: at each step pick a coordinate `j`, build
/// one delta for the current base, probe corner/midpoint/random `K_j`
/// candidates — each a scan of one, the shape of a bracketing probe —
/// against the full build, then commit a random one and keep walking.
/// Returns (feasible, infeasible) transition counts.
fn walk(
    name: &str,
    comp: &Component,
    r: &[i64],
    model: &ExecModel,
    cores: usize,
    rng: &mut SplitMix,
    steps: usize,
) -> (usize, usize) {
    let depth = comp.depth();
    let candidates: Vec<Vec<i64>> = (0..depth)
        .map(|j| select_tile_sizes(comp, j, r[j]))
        .collect();
    let mut sol = Solution {
        k: candidates.iter().map(|c| rng.pick(c)).collect(),
        r: r.to_vec(),
    };
    let (mut ok, mut infeasible) = (0usize, 0usize);
    for step in 0..steps {
        let j = if step.is_multiple_of(3) {
            rng.below(depth as u64) as usize
        } else {
            step % depth
        };
        let Some(delta) = CoordinateDelta::new(comp, &sol, j, cores) else {
            // Declined: the reference build answers this scan; move on.
            sol.k[j] = rng.pick(&candidates[j]);
            continue;
        };
        let cands = &candidates[j];
        let probes = [
            cands[0],
            cands[cands.len() / 2],
            *cands.last().unwrap(),
            rng.pick(cands),
        ];
        for kj in probes {
            let rebuilt = check_scan(name, comp, &delta, &sol, j, &[kj], model, cores);
            ok += feasible(&rebuilt);
            infeasible += 1 - feasible(&rebuilt);
        }
        sol.k[j] = rng.pick(cands);
    }
    (ok, infeasible)
}

#[test]
fn incremental_matches_full() {
    let platform = Platform::default();
    let mut total_feasible = 0usize;
    for (name, program) in prem::kernels::all_small() {
        let (comp, model) = component_of(&program);
        let mut rng = SplitMix(0xd1f5_0000 ^ name.len() as u64);
        let mut assignments = nondominated_thread_groups(&comp, platform.cores);
        assignments.truncate(3);
        for r in &assignments {
            let (f, _) = walk(name, &comp, r, &model, platform.cores, &mut rng, 5);
            total_feasible += f;
        }
    }
    assert!(
        total_feasible > 0,
        "walks never exercised a feasible rebuild"
    );
}

/// An accumulation kernel whose dependence is carried at the *outer* level
/// (`acc[c] += x[k][c]`): tiling `c` while `k` is tiled evicts the
/// accumulator between writer and reader, so many transitions are
/// persistence-infeasible — the walk must reproduce the *same* verdicts
/// incrementally, including which error class fires first.
#[test]
fn incremental_matches_full_on_infeasible_transitions() {
    let n = 64i64;
    let mut b = ProgramBuilder::new("persist");
    let acc = b.array("acc", vec![n], ElemType::F32);
    let x = b.array("x", vec![n, n], ElemType::F32);
    let k = b.begin_loop("k", 0, 1, n);
    let c = b.begin_loop("c", 0, 1, n);
    b.stmt(
        acc,
        vec![IdxExpr::var(c)],
        AssignKind::AddAssign,
        Expr::load(x, vec![IdxExpr::var(k), IdxExpr::var(c)]),
    );
    b.end_loop();
    b.end_loop();
    let (comp, model) = component_of(&b.finish());

    let mut rng = SplitMix(0x1057);
    let (mut ok, mut infeasible) = (0usize, 0usize);
    for r in [vec![1i64, 1], vec![2, 1], vec![4, 1]] {
        let (f, i) = walk("persist", &comp, &r, &model, 4, &mut rng, 8);
        ok += f;
        infeasible += i;
    }
    assert!(ok > 0, "no feasible transition exercised");
    assert!(
        infeasible > 0,
        "no overlap/persistence-infeasible transition exercised"
    );
}

/// Segment-cap blow-ups must surface identically: the delta context is built
/// for a modest base, then a transition to `K_j = 1` pushes the total tile
/// count past `SEGMENT_CAP` and both paths must report `TooManySegments`.
#[test]
fn incremental_matches_full_on_segment_cap() {
    let n = 512i64;
    let (comp, model) = assign_nest("big", &[n, n], 1);
    // Base: K = [1, 512] → 512 tiles; frozen-level context is small.
    let base = Solution {
        k: vec![1, n],
        r: vec![1, 1],
    };
    let delta = CoordinateDelta::new(&comp, &base, 1, 2).expect("context fits");
    let cands = [n, 64, 2, 1];
    let rebuilt = check_scan("big", &comp, &delta, &base, 1, &cands, &model, 2);
    assert!(feasible(&rebuilt) > 0);
    assert!(
        truncations(&rebuilt) > 0,
        "K_j = 1 must trip the segment cap"
    );
}

/// Whole-list differential: on every kernel (and the reduction-privatized
/// pooling components), coordinate and (truncated set of) assignments, one
/// `rebuild_scan` over the full sorted candidate list must reproduce, per
/// candidate, the full from-scratch build bit for bit, and privatized
/// candidates carry combine-phase structure. Exactly the contexts with an
/// array that is not shift-only decline — `lstm`'s recurrent time loop,
/// which reads `s_F[t − 1]` and `c_F[t − 1]` under `t ≥ 1` next to `s_F[t]`
/// and `c_F[t]` — and their scans answer the oracle's values from the
/// reference build; every other kernel is served by the lanes.
#[test]
fn batched_scan_matches_per_candidate_and_full() {
    let cores = Platform::default().cores;
    let mut cases: Vec<(&str, Component, ExecModel)> = prem::kernels::all_small()
        .iter()
        .map(|(name, program)| {
            let (comp, model) = component_of(program);
            (*name, comp, model)
        })
        .collect();
    cases.extend(privatized_pools());
    let (mut total_feasible, mut with_combine) = (0usize, 0usize);
    let mut declined: Vec<&str> = Vec::new();
    for (name, comp, model) in &cases {
        let (mut on_lanes, mut declines) = (0usize, 0usize);
        let mut rng = SplitMix(0xba7c_4ed0 ^ name.len() as u64);
        let mut assignments = nondominated_thread_groups(comp, cores);
        assignments.truncate(2);
        for r in &assignments {
            let candidates: Vec<Vec<i64>> = (0..comp.depth())
                .map(|j| select_tile_sizes(comp, j, r[j]))
                .collect();
            let base = Solution {
                k: candidates.iter().map(|c| rng.pick(c)).collect(),
                r: r.clone(),
            };
            for (j, cands) in candidates.iter().enumerate() {
                let Some(delta) = CoordinateDelta::new(comp, &base, j, cores) else {
                    check_declined(name, comp, &base, j, cands, model, cores);
                    declines += 1;
                    continue;
                };
                on_lanes += 1;
                let rebuilt = check_scan(name, comp, &delta, &base, j, cands, model, cores);
                total_feasible += feasible(&rebuilt);
                with_combine += rebuilt
                    .iter()
                    .flatten()
                    .filter(|a| a.combine_rounds > 0)
                    .count();
            }
        }
        if declines > 0 {
            assert_eq!(on_lanes, 0, "{name}: only some contexts declined");
            declined.push(name);
        }
    }
    assert!(
        total_feasible > 0,
        "scans never exercised a feasible rebuild"
    );
    assert!(
        with_combine > 0,
        "no privatized candidate carried a combine phase"
    );
    assert_eq!(declined, ["lstm"], "only the recurrent time loop declines");
}

/// Huge-extent levels must not overflow the last-tile bound: with
/// `count = i64::MAX` and `K = 2^62` the final tile's upper index
/// `(t + 1)·K − 1` exceeds `i64::MAX` before the `min(count − 1)` clamp.
/// The old arithmetic panicked in debug builds (and silently wrapped in
/// release); the saturating form clamps to exactly `count − 1`, and the
/// incremental rebuild must still agree with the full build bit for bit.
#[test]
fn huge_extent_level_does_not_overflow_tile_bounds() {
    use prem::core::{CompLevel, Component, TilePlan};
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
    let comp = Component {
        kernel: "huge".into(),
        levels: vec![level(0, "i", i64::MAX), level(1, "j", 64)],
        stmts: vec![0],
        exec_count: 1,
        arrays: Vec::new(),
        deps: Vec::new(),
        work: Vec::new(),
        folded_iters_per_iter: 1,
    };
    let cores = 2usize;
    let base = Solution {
        k: vec![1i64 << 62, 8],
        r: vec![1, 1],
    };
    let model = ExecModel {
        o: vec![0.0, 0.0],
        w: 1.0,
    };

    // Full plan: 2 × 8 = 16 tiles, under the segment cap, so the build
    // reaches the overflowing bound of the last huge-extent tile.
    let plan = TilePlan::build(&comp, &base, cores).expect("16 tiles fit");
    assert!(plan.core_nseg(0) > 0);

    // Frozen-level context of the delta hits the same bound.
    let delta = CoordinateDelta::new(&comp, &base, 1, cores).expect("context fits");
    check_scan("huge", &comp, &delta, &base, 1, &[8, 64], &model, cores);
}

/// A declined context: [`CoordinateDelta::new`] returns `None`, and a
/// [`MakespanEvaluator`] scan over the same candidates answers every one
/// from the reference build — the oracle's value for each, one decline and
/// no incremental rebuild. Returns the number of finite values.
fn check_declined(
    name: &str,
    comp: &Component,
    base: &Solution,
    j: usize,
    cands: &[i64],
    model: &ExecModel,
    cores: usize,
) -> usize {
    check_declined_counted(name, comp, base, j, cands, model, cores).0
}

/// [`check_declined`], also returning the evaluator's counters.
fn check_declined_counted(
    name: &str,
    comp: &Component,
    base: &Solution,
    j: usize,
    cands: &[i64],
    model: &ExecModel,
    cores: usize,
) -> (usize, SearchCounters) {
    assert!(
        CoordinateDelta::new(comp, base, j, cores).is_none(),
        "{name}: the lane walk cannot hold this context"
    );
    let platform = Platform::default()
        .with_cores(cores)
        .with_spm_bytes(1 << 30);
    let mut ev = MakespanEvaluator::new(comp, &platform, model);
    ev.begin_coordinate(base, j);
    let values = ev.scan_landscape(cands);
    for (&kj, &v) in cands.iter().zip(&values) {
        let mut sol = base.clone();
        sol.k[j] = kj;
        let oracle = match build_schedule(comp, &sol, &platform, model) {
            Ok(sched) => evaluate(&sched).makespan_ns,
            Err(_) => f64::INFINITY,
        };
        assert_eq!(
            v.to_bits(),
            oracle.to_bits(),
            "{name}: declined scan diverges from the oracle for {sol}"
        );
    }
    assert_eq!(
        ev.counters.delta_declines, 1,
        "{name}: one declined context"
    );
    assert_eq!(
        ev.counters.incremental_rebuilds, 0,
        "{name}: no lane-built candidate"
    );
    (values.iter().filter(|v| v.is_finite()).count(), ev.counters)
}

/// Four guarded arrays under `K = [8, 8, ·]` (2^13 frozen tiles) are not
/// shift-only, so the context is declined and the reference build answers
/// the scan with the oracle's values. The segment-cap truncated prefix of an
/// ascending scan is answered without walking a tile, and an evaluator scan
/// counts one truncation per such candidate.
///
/// The same four arrays unguarded are shift-only, so the lanes hold them
/// under `K = [2, 2, ·]`: 512 × 256 = 2^17 frozen tiles, where exactly
/// `K_k = 64` fits the segment cap.
#[test]
fn guarded_arrays_over_many_frozen_tiles_match_the_reference() {
    let base = Solution {
        k: vec![8, 8, 8],
        r: vec![1, 1, 1],
    };
    // Ascending scan: 2^13 frozen tiles × `M_k` tiles of level `k` pass the
    // segment cap (2^17) for every K_k < 4; K_k ≥ 4 is feasible.
    let cands = [1, 2, 8, 32, 64];
    let (comp, model) = guarded_assign_nest("guarded", &[1024, 512, 64], 4);
    let (finite, counters) = check_declined_counted("guarded", &comp, &base, 2, &cands, &model, 2);
    assert_eq!(finite, 3, "K_k = 8, 32 and 64 fit the segment cap");
    assert_eq!(counters.delta_declines, 1);
    assert_eq!(counters.scan_truncations, 2);

    // Ascending scan: every K_k < 64 pushes the total tile count past the
    // segment cap; K_k = 64 is feasible.
    let base = Solution {
        k: vec![2, 2, 8],
        r: vec![1, 1, 1],
    };
    let (comp, model) = assign_nest("atcap", &[1024, 512, 64], 4);
    let delta = CoordinateDelta::new(&comp, &base, 2, 2).expect("context fits");
    let (rebuilt, segments) =
        check_scan_counted("atcap", &comp, &delta, &base, 2, &cands, &model, 2);
    assert_eq!(
        feasible(&rebuilt),
        1,
        "exactly K_k = 64 fits the segment cap"
    );
    assert_eq!(
        truncations(&rebuilt),
        4,
        "the infeasible prefix is truncated"
    );
    assert_eq!(segments, 1 << 17);
    let platform = Platform::default().with_cores(2).with_spm_bytes(1 << 30);
    let mut ev = MakespanEvaluator::new(&comp, &platform, &model);
    ev.begin_coordinate(&base, 2);
    let values = ev.scan_landscape(&cands);
    assert_eq!(values.iter().filter(|v| v.is_finite()).count(), 1);
    assert_eq!(ev.counters.scan_truncations, 4);
    assert_eq!(ev.counters.incremental_rebuilds, cands.len());
}

/// A single 2^13-iteration loop over nine guarded arrays is declined, and
/// the reference build answers its scan down to `K_j = 1` (2^13 tiles) with
/// the oracle's values.
///
/// The same nine arrays unguarded are shift-only, so the lanes serve a
/// 2^17-iteration loop, where `K_j = 1` sits exactly at the segment cap.
#[test]
fn guarded_arrays_over_a_long_scanned_loop_match_the_reference() {
    let n = 1i64 << 13;
    let base = Solution {
        k: vec![n],
        r: vec![1],
    };
    let cands = [1, 2, n];
    let (comp, model) = guarded_assign_nest("guarded-long", &[n], 9);
    let finite = check_declined("guarded-long", &comp, &base, 0, &cands, &model, 2);
    assert_eq!(finite, 3, "every K_j fits the segment cap");

    let n = 1i64 << 17;
    let base = Solution {
        k: vec![n],
        r: vec![1],
    };
    let cands = [1, 2, n];
    let (comp, model) = assign_nest("jterm-shift", &[n], 9);
    let delta = CoordinateDelta::new(&comp, &base, 0, 2).expect("context fits");
    let rebuilt = check_scan("jterm-shift", &comp, &delta, &base, 0, &cands, &model, 2);
    assert_eq!(
        feasible(&rebuilt),
        3,
        "K_j = 1 sits exactly at the segment cap"
    );
    let at_one = rebuilt[0].as_ref().expect("K_j = 1 is feasible");
    assert_eq!(
        (0..at_one.ncores())
            .map(|c| at_one.core(c).nseg)
            .sum::<usize>(),
        1 << 17
    );
}

/// One decline reason: a nest deeper than the lane walk's `2^depth`
/// extent-class table allows (13 levels against a cap of 12); a 12-deep
/// nest stays on the lanes.
#[test]
fn over_deep_nest_declines() {
    for (depth, lanes) in [(13usize, false), (12, true)] {
        let name = format!("deep{depth}");
        let (comp, model) = assign_nest(&name, &vec![2; depth], 1);
        let mut k = vec![2i64; depth];
        (k[0], k[5]) = (1, 1);
        let base = Solution {
            k,
            r: vec![1; depth],
        };
        for j in [0, 6, depth - 1] {
            if lanes {
                let delta = CoordinateDelta::new(&comp, &base, j, 2).expect("12 levels fit");
                let rebuilt = check_scan(&name, &comp, &delta, &base, j, &[1, 2], &model, 2);
                assert_eq!(feasible(&rebuilt), 2);
            } else {
                assert_eq!(
                    check_declined(&name, &comp, &base, j, &[1, 2], &model, 2),
                    2
                );
            }
        }
    }
}

/// The other decline reason: a context infeasible whatever `K_j` is — a thread
/// shape wider than the cores, or frozen levels whose segment product alone
/// is past the cap. The reference build rejects each candidate in O(depth).
#[test]
fn k_invariant_infeasible_context_declines() {
    let (comp, model) = assign_nest("threads", &[64, 64], 1);
    let base = Solution {
        k: vec![8, 8],
        r: vec![2, 2],
    };
    assert_eq!(
        check_declined("threads", &comp, &base, 1, &[1, 8, 64], &model, 2),
        0
    );

    // K = [1, 1, ·] freezes 1024 × 512 = 2^19 tiles on the other levels.
    let (comp, model) = assign_nest("frozen-segments", &[1024, 512, 4], 1);
    let base = Solution {
        k: vec![1, 1, 4],
        r: vec![1, 1, 1],
    };
    let found = check_declined("frozen-segments", &comp, &base, 2, &[1, 2, 4], &model, 2);
    assert_eq!(found, 0);
}

/// A delta used with a component other than the one it was built from trips
/// the debug-build guard before any lane walks mismatched frozen tiles.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "delta used with foreign component")]
fn foreign_component_trips_the_guard() {
    let base = Solution {
        k: vec![8, 8],
        r: vec![1, 1],
    };
    let (own, _) = assign_nest("own", &[64, 64], 1);
    let (foreign, model) = assign_nest("foreign", &[128, 64], 1);
    let delta = CoordinateDelta::new(&own, &base, 1, 2).expect("context fits");
    let _ = delta.rebuild_scan(&foreign, &[8], &model, &mut SearchCounters::default());
}

/// A scan list of exactly one candidate — what every bracketing probe is —
/// is one lane of the lane walk and matches the from-scratch build.
#[test]
fn scan_list_of_one_matches() {
    let (name, program) = prem::kernels::all_small().remove(0);
    let (comp, model) = component_of(&program);
    let cores = Platform::default().cores;
    let base = Solution {
        k: comp.levels.iter().map(|l| l.count).collect(),
        r: nondominated_thread_groups(&comp, cores).remove(0),
    };
    let j = comp.depth() - 1;
    let delta = CoordinateDelta::new(&comp, &base, j, cores).expect("context fits");
    let rebuilt = check_scan(name, &comp, &delta, &base, j, &[base.k[j]], &model, cores);
    assert_eq!(rebuilt.len(), 1);
}

/// Every candidate infeasible (small K_j overflows the segment cap on a
/// 1024×1024 nest): the scan must report the exact `Infeasible` class per
/// candidate and never fabricate a feasible analysis.
#[test]
fn all_infeasible_scan_matches() {
    let n = 1024i64;
    let (comp, model) = assign_nest("big", &[n, n], 1);
    // K = [1, K_j]: already 1024 outer tiles, so small K_j blows the cap
    // (the cap is 2^17; K_j ≤ 4 means ≥ 2^18 tiles).
    let base = Solution {
        k: vec![1, n],
        r: vec![1, 1],
    };
    let delta = CoordinateDelta::new(&comp, &base, 1, 2).expect("context fits");
    let cands = [1i64, 2, 4];
    let rebuilt = check_scan("big", &comp, &delta, &base, 1, &cands, &model, 2);
    assert_eq!(feasible(&rebuilt), 0, "expected an all-infeasible list");
    assert_eq!(
        truncations(&rebuilt),
        cands.len(),
        "all are cap rejections, answered without a tile walk"
    );
}

/// A parallel, tilable level of a hand-built component.
fn level(loop_id: usize, name: &str, count: i64) -> CompLevel {
    CompLevel {
        loop_id,
        name: name.into(),
        count,
        begin: 0,
        stride: 1,
        parallel: true,
        tilable: true,
        reduction_parallel: false,
    }
}

/// An unguarded access term `base + Σ coeffs · counter` of a hand-built
/// component whose levels have the given counts.
fn access(coeffs: &[i64], base: i64, counts: &[i64]) -> DimContrib {
    DimContrib {
        comp_coeffs: coeffs.to_vec(),
        level_bounds: counts.iter().map(|&n| Interval::new(0, n - 1)).collect(),
        base: Interval::point(base),
    }
}

/// A read-write array of a hand-built component, one term list per
/// dimension.
fn hand_array(id: usize, name: &str, dims: &[i64], contribs: Vec<Vec<DimContrib>>) -> ArrayUse {
    let depth = contribs[0][0].comp_coeffs.len();
    ArrayUse {
        array: id,
        name: name.into(),
        dims: dims.to_vec(),
        elem_bytes: 4,
        attr: BufferAttr::Rw,
        affected_by: (0..depth)
            .map(|l| contribs.iter().flatten().any(|c| c.comp_coeffs[l] != 0))
            .collect(),
        outer_terms: vec![Vec::new(); dims.len()],
        outer_uniform: true,
        privatized: None,
        contribs,
    }
}

/// A hand-built component; each array in `rw` gets a flow dependence
/// within one iteration — it is checked by the §5.3.1 overlap rule but
/// carried at no level, so persistence never rejects a candidate.
fn hand_component(
    name: &str,
    levels: Vec<CompLevel>,
    arrays: Vec<ArrayUse>,
    rw: &[usize],
) -> Component {
    let depth = levels.len();
    Component {
        kernel: name.into(),
        levels,
        stmts: vec![0],
        exec_count: 1,
        deps: rw
            .iter()
            .map(|&array| ComponentDep {
                array,
                kind: DepKind::Flow,
                dist: vec![Interval::zero(); depth],
                reduction: None,
            })
            .collect(),
        arrays,
        work: Vec::new(),
        folded_iters_per_iter: 1,
    }
}

/// Shifts that cancel on the class path: for `y[i] += x[i + k] * w[k]` at
/// `K = [2, 1]`, a carry into `i` raises `x`'s range by 2 while resetting
/// `k` lowers it by 2, so the range repeats and no entry may be pushed —
/// 4 rows × 3 ranges make 9 entries, not 12. Every array is shift-only, so
/// the lanes serve every scan.
#[test]
fn cancelling_shifts_push_no_entry() {
    let comp = conv1d(8);
    let model = ExecModel {
        o: vec![1.0, 1.0],
        w: 1.0,
    };
    let base = Solution {
        k: vec![2, 1],
        r: vec![1, 1],
    };
    for j in 0..2 {
        let delta = CoordinateDelta::new(&comp, &base, j, 2).expect("context fits");
        let cands = select_tile_sizes(&comp, j, 1);
        let (_, segments) =
            check_scan_counted("conv1d", &comp, &delta, &base, j, &cands, &model, 2);
        assert!(segments > 0);
    }
    let delta = CoordinateDelta::new(&comp, &base, 1, 2).expect("context fits");
    let rebuilt = check_scan("conv1d", &comp, &delta, &base, 1, &[1], &model, 2);
    let analysis = rebuilt[0].as_ref().expect("feasible");
    let xi = comp.arrays.iter().position(|a| a.name == "x").unwrap();
    assert_eq!(analysis.core(0).nseg, 12);
    assert_eq!(analysis.core(0).swap_lists[xi].len(), 9);
}

/// `y[i] += x[i + k] * w[k]` over `i < n`, `k < 3`, as one component.
fn conv1d(n: i64) -> Component {
    let mut b = ProgramBuilder::new("conv1d");
    let x = b.array("x", vec![n + 2], ElemType::F32);
    let w = b.array("w", vec![3], ElemType::F32);
    let y = b.array("y", vec![n], ElemType::F32);
    let i = b.begin_loop("i", 0, 1, n);
    let k = b.begin_loop("k", 0, 1, 3);
    b.stmt(
        y,
        vec![IdxExpr::var(i)],
        AssignKind::AddAssign,
        Expr::mul(
            Expr::load(x, vec![IdxExpr::var(i).add(&IdxExpr::var(k))]),
            Expr::load(w, vec![IdxExpr::var(k)]),
        ),
    );
    b.end_loop();
    b.end_loop();
    let program = b.finish();
    let tree = LoopTree::build(&program).unwrap();
    let (ni, nk) = (&tree.roots[0], &tree.roots[0].children[0]);
    Component::extract(&tree, &program, &[ni, nk])
}

/// The swap shapes of `array` across every core of `a`.
fn swap_shapes(a: &ComponentAnalysis, array: usize) -> Vec<(i64, i64)> {
    let mut shapes: Vec<(i64, i64)> = (0..a.ncores())
        .flat_map(|c| a.core(c).swap_lists[array].iter())
        .map(|e| (e.lines, e.line_elems))
        .collect();
    shapes.sort_unstable();
    shapes.dedup();
    shapes
}

/// A shift-only array's swaps are priced per extent class, and the class
/// key must hold the scanned level's boundary bit: `y[k]` moves with `k`
/// alone, and `7` iterations of `k` clip the last tile under every `K_k`
/// below 7, so that tile's swap carries a shorter line than the interior
/// ones. A key without level `j`'s bit prices it as an interior swap.
#[test]
fn price_key_holds_the_scanned_level_boundary_bit() {
    let counts = [4, 7];
    let comp = hand_component(
        "jbit",
        vec![level(0, "i", 4), level(1, "k", 7)],
        vec![hand_array(
            0,
            "y",
            &[7],
            vec![vec![access(&[0, 1], 0, &counts)]],
        )],
        &[],
    );
    let model = ExecModel {
        o: vec![1.0, 1.0],
        w: 1.0,
    };
    let base = Solution {
        k: vec![1, 2],
        r: vec![1, 1],
    };
    let cands = [2, 3, 4, 5, 6, 7];
    let delta = CoordinateDelta::new(&comp, &base, 1, 2).expect("context fits");
    let rebuilt = check_scan("jbit", &comp, &delta, &base, 1, &cands, &model, 2);
    for (&kj, b) in cands.iter().zip(&rebuilt) {
        let a = b.as_ref().expect("feasible");
        let want = if kj == 7 { 1 } else { 2 };
        assert_eq!(swap_shapes(a, 0).len(), want, "K_k = {kj}");
    }
}

/// The class key must also hold the bits of the levels before the scanned
/// one: `x[i]` moves with level 0 alone, which the walk steps in its outer
/// (`a`) odometer, and `7` iterations of `i` in tiles of 2 clip the last
/// one. A key without the prefix levels' bits prices that tile's swap as an
/// interior one.
#[test]
fn price_key_holds_the_prefix_level_bits() {
    let counts = [7, 4];
    let comp = hand_component(
        "abit",
        vec![level(0, "i", 7), level(1, "k", 4)],
        vec![hand_array(
            0,
            "x",
            &[7],
            vec![vec![access(&[1, 0], 0, &counts)]],
        )],
        &[],
    );
    let model = ExecModel {
        o: vec![1.0, 1.0],
        w: 1.0,
    };
    let base = Solution {
        k: vec![2, 1],
        r: vec![1, 1],
    };
    let cands = [1, 2, 4];
    let delta = CoordinateDelta::new(&comp, &base, 1, 2).expect("context fits");
    let rebuilt = check_scan("abit", &comp, &delta, &base, 1, &cands, &model, 2);
    for b in &rebuilt {
        let a = b.as_ref().expect("feasible");
        assert_eq!(swap_shapes(a, 0), [(1, 1), (1, 2)]);
    }
}

/// A class first met on a tile whose range is the one bound last: in
/// `y[i] += x[i + k] * w[k]` at `K = [2, 1]` over `i < 8`, the carry from
/// `(i, k) = (2, 2)` to `(3, 0)` — segment 10 — leaves `x`'s range `[6, 7]`
/// unchanged while moving `i` onto its last tile, so `x`'s class "`i` on
/// its boundary tile" is met there without a swap, and priced at segment
/// 11. Both coordinates' scans match the reference.
#[test]
fn class_first_met_on_an_unchanged_range() {
    let comp = conv1d(8);
    let model = ExecModel {
        o: vec![1.0, 1.0],
        w: 1.0,
    };
    let base = Solution {
        k: vec![2, 1],
        r: vec![1, 1],
    };
    let xi = comp.arrays.iter().position(|a| a.name == "x").unwrap();
    for j in 0..2 {
        let kj = base.k[j];
        let delta = CoordinateDelta::new(&comp, &base, j, 2).expect("context fits");
        let rebuilt = check_scan("unchanged", &comp, &delta, &base, j, &[kj], &model, 2);
        let a = rebuilt[0].as_ref().expect("feasible");
        let segs: Vec<usize> = a.core(0).swap_lists[xi].iter().map(|e| e.seg).collect();
        assert_eq!(segs, [1, 2, 3, 5, 6, 8, 9, 11, 12], "coordinate {j}");
    }
}

/// Transfer sizes past `i64::MAX` are loud and the same in both analysis
/// tiers: `x[i]` over `i < 2^60` in one tile of a read-only array needs
/// `2 · 4 · 2^60 = 2^63` bytes of SPM while its one swap moves `2^62`; with
/// 16-byte elements a swap alone moves `2^63` bytes in two tiles and `2^64`
/// in one. The reference build and the rebuild agree bit for bit — SPM
/// requirement `i64::MAX`, transfer totals saturated at `i64::MAX` — and
/// every tier answers the same `SpmOverflow { needed: i64::MAX, .. }`.
#[test]
fn overflowing_footprints_answer_the_same_spm_overflow() {
    let n = 1i64 << 60;
    let counts = [n];
    let model = ExecModel {
        o: vec![0.0],
        w: 1.0,
    };
    let platform = Platform::default().with_cores(2);
    let base = Solution {
        k: vec![n],
        r: vec![1],
    };
    let overflow = Infeasible::SpmOverflow {
        needed: i64::MAX,
        capacity: platform.spm_bytes,
    };
    for (elem_bytes, cands, total) in [(4, vec![n], 1 << 62), (16, vec![n / 2, n], i64::MAX)] {
        let mut x = hand_array(0, "x", &[n], vec![vec![access(&[1], 0, &counts)]]);
        x.attr = BufferAttr::Ro;
        x.elem_bytes = elem_bytes;
        let comp = hand_component("huge", vec![level(0, "i", n)], vec![x], &[]);
        let delta = CoordinateDelta::new(&comp, &base, 0, 2).expect("context fits");
        let rebuilt = check_scan("huge", &comp, &delta, &base, 0, &cands, &model, 2);
        for (&kj, b) in cands.iter().zip(&rebuilt) {
            let a = b.as_ref().expect("structurally feasible");
            assert_eq!(a.spm_bytes_needed, i64::MAX, "{elem_bytes} B, K = {kj}");
            assert_eq!(a.total_bytes, total, "{elem_bytes} B, K = {kj}");
            let mut scratch = prem::core::MakespanScratch::default();
            assert_eq!(
                a.makespan_only(&platform, &mut scratch),
                Err(overflow.clone())
            );
            let sol = Solution {
                k: vec![kj],
                r: vec![1],
            };
            let materialized = build_schedule(&comp, &sol, &platform, &model).map(|_| ());
            assert_eq!(materialized, Err(overflow.clone()));
        }
    }
}

/// Negative coefficients on boundary tiles: conv7's
/// `inp[n][c][p + NR − r − 1][q + NS − s − 1]` moves down with `r` and `s`,
/// and under these tile sizes `k`, `c`, `p`, `q`, `r` and `s` all end on a
/// clipped tile. Every candidate of every coordinate, under a serial and a
/// parallel assignment, is served by the lanes and matches the reference
/// bit for bit.
#[test]
fn negative_coefficients_on_boundary_tiles() {
    // The whole 7-deep chain: the search's components stop at `c` and fold
    // `r` and `s` into the body, where their terms are base offsets.
    let program = prem::kernels::CnnConfig::small().build();
    let tree = LoopTree::build(&program).unwrap();
    let mut chain = vec![&tree.roots[0]];
    while let Some(child) = chain.last().unwrap().children.first() {
        chain.push(child);
    }
    assert_eq!(chain.len(), 7, "n k p q c r s");
    let comp = Component::extract(&tree, &program, &chain);
    let model = AnalyticCost::new(&program).exec_model(&comp);
    let inp = comp.arrays.iter().find(|a| a.name == "inp_F").unwrap();
    assert!(
        inp.contribs[2].iter().all(|c| c.comp_coeffs[5] == -1),
        "inp moves down with r"
    );
    let cores = 4;
    let k = vec![1, 3, 4, 4, 2, 2, 2];
    let mut assignments = vec![vec![1; 7]];
    assignments.extend(nondominated_thread_groups(&comp, cores).into_iter().take(1));
    let mut segments = 0usize;
    for r in assignments {
        let base = Solution { k: k.clone(), r };
        for j in 0..comp.depth() {
            let delta = CoordinateDelta::new(&comp, &base, j, cores).expect("context fits");
            let cands = select_tile_sizes(&comp, j, base.r[j]);
            let (_, s) = check_scan_counted("cnn", &comp, &delta, &base, j, &cands, &model, cores);
            segments += s;
        }
    }
    assert!(segments > 0);
}

/// A `RangeOverlap` on the class path names the array the reference names:
/// the first one, in tile order and then array order, whose range moves
/// onto itself. `A[i + k]` comes first in array order, but under `K_i = 1`
/// it overlaps only on a step of `i`, while `B[k]`, `B[k + 2]` overlaps on
/// every step of `k`: under `K_k ≤ 2` the first `k` step — segment 2 —
/// names `B`, and under `K_k = 4` (no `k` step) the first `i` step names
/// `A`. Under `K_i ≥ 2` `A` overlaps on the first `k` step too, where it is
/// checked before `B`.
#[test]
fn range_overlap_names_the_reference_array() {
    let counts = [4, 4];
    let comp = hand_component(
        "overlap",
        vec![level(0, "i", 4), level(1, "k", 4)],
        vec![
            hand_array(0, "A", &[8], vec![vec![access(&[1, 1], 0, &counts)]]),
            hand_array(
                1,
                "B",
                &[8],
                vec![vec![
                    access(&[0, 1], 0, &counts),
                    access(&[0, 1], 2, &counts),
                ]],
            ),
        ],
        &[0, 1],
    );
    let model = ExecModel {
        o: vec![1.0, 1.0],
        w: 1.0,
    };
    let named = |rebuilt: &Rebuilt| -> Vec<String> {
        rebuilt
            .iter()
            .map(|b| match b {
                Err(Infeasible::RangeOverlap { array }) => array.clone(),
                other => panic!("expected a range overlap, got {other:?}"),
            })
            .collect()
    };
    let base = Solution {
        k: vec![1, 2],
        r: vec![1, 1],
    };
    let delta = CoordinateDelta::new(&comp, &base, 1, 2).expect("context fits");
    let rebuilt = check_scan("overlap", &comp, &delta, &base, 1, &[1, 2, 4], &model, 2);
    assert_eq!(named(&rebuilt), ["B", "B", "A"]);
    let delta = CoordinateDelta::new(&comp, &base, 0, 2).expect("context fits");
    let rebuilt = check_scan("overlap", &comp, &delta, &base, 0, &[1, 2, 4], &model, 2);
    assert_eq!(named(&rebuilt), ["B", "A", "A"]);
}

/// A component mixing shift-only arrays (`a`, `s`) with a guarded one
/// (`g`, written only when `k == 0`) and a mixed-coefficient one (`m`, read
/// at `i` and at `k`): the last two are not shift-only, so every context is
/// declined and the reference build answers each scan with the oracle's
/// values.
#[test]
fn mixed_component_declines() {
    let program = prem::frontend::parse_kernel(
        "mixed",
        "float a[16][8]; float s[16][8]; float m[16]; float g[16];
         for (int i = 0; i < 16; i++)
           for (int k = 0; k < 8; k++) {
             if (k == 0) g[i] = 1.0;
             a[i][k] = m[i] + m[k] + s[i][k];
           }",
        &[],
    )
    .expect("mixed kernel parses");
    let (comp, model) = component_of(&program);
    assert_eq!(comp.depth(), 2);
    let cores = 4;
    let mut rng = SplitMix(0x3a1e_d000);
    let mut finite = 0usize;
    for r in nondominated_thread_groups(&comp, cores).into_iter().take(3) {
        let candidates: Vec<Vec<i64>> = (0..2).map(|j| select_tile_sizes(&comp, j, r[j])).collect();
        for _ in 0..3 {
            let base = Solution {
                k: candidates.iter().map(|c| rng.pick(c)).collect(),
                r: r.clone(),
            };
            for (j, cands) in candidates.iter().enumerate() {
                finite += check_declined("mixed", &comp, &base, j, cands, &model, cores);
            }
        }
    }
    assert!(finite > 0);
}

/// Guarded arrays in a 3-deep nest scanned at its middle level: `a` is
/// written only when `i ≥ 1`, a guard that clips on the prefix level, and
/// `b` (read from `c`) only when `l ≤ 6`, one that clips on the suffix
/// level. Neither is shift-only, so every scan is declined and answered by
/// the reference build with the oracle's values.
#[test]
fn guards_on_prefix_and_suffix_levels_match_the_reference() {
    let program = prem::frontend::parse_kernel(
        "clip3",
        "float a[12][10][9]; float b[12][10][9]; float c[10][9];
         for (int i = 0; i < 12; i++)
           for (int k = 0; k < 10; k++)
             for (int l = 0; l < 9; l++) {
               if (i >= 1) a[i][k][l] = 1.0;
               if (l <= 6) b[i][k][l] = c[k][l];
             }",
        &[],
    )
    .expect("clip3 kernel parses");
    let (comp, model) = component_of(&program);
    assert_eq!(comp.depth(), 3);
    let bounds = |name: &str| {
        let arr = comp.arrays.iter().find(|a| a.name == name).unwrap();
        arr.contribs[0][0].level_bounds.clone()
    };
    assert_eq!(bounds("a")[0], Interval::new(1, 11), "a clips on i");
    assert_eq!(bounds("b")[2], Interval::new(0, 6), "b clips on l");
    let cores = 4;
    let j = 1;
    let mut rng = SplitMix(0xc11b_0003);
    let mut finite = 0usize;
    for r in nondominated_thread_groups(&comp, cores).into_iter().take(3) {
        let candidates: Vec<Vec<i64>> = (0..3).map(|l| select_tile_sizes(&comp, l, r[l])).collect();
        for _ in 0..4 {
            let base = Solution {
                k: candidates.iter().map(|c| rng.pick(c)).collect(),
                r: r.clone(),
            };
            let cands = &candidates[j];
            finite += check_declined("clip3", &comp, &base, j, cands, &model, cores);
        }
    }
    assert!(finite > 0);
}

/// A window nest whose first-window read `inp[2p][2q]` is guarded by a
/// pinned window position: pinned at `0` it lies inside the unguarded
/// `inp[2p + r][2q + s]` on every tile it runs on, so the domination rule
/// drops it, `inp` is shift-only and the lanes serve every scan; pinned at
/// `1` it can lie outside, so it stays, mixes coefficient vectors and every
/// scan is declined. Every scan of every level is the reference's either
/// way.
#[test]
fn pinned_window_reads_match_the_reference() {
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
        let program = prem::frontend::parse_kernel(&name, &src, &[]).expect("window kernel parses");
        let (comp, model) = component_of(&program);
        let depth = comp.depth();
        assert!(depth >= 3, "{name}: p, q and r are component levels");
        let cores = 4;
        let mut rng = SplitMix(0x51d0 + pin);
        let (mut segments, mut finite) = (0usize, 0usize);
        for r in nondominated_thread_groups(&comp, cores).into_iter().take(2) {
            let candidates: Vec<Vec<i64>> = (0..depth)
                .map(|l| select_tile_sizes(&comp, l, r[l]))
                .collect();
            let base = Solution {
                k: candidates.iter().map(|c| rng.pick(c)).collect(),
                r: r.clone(),
            };
            for (j, cands) in candidates.iter().enumerate() {
                if pin == 1 {
                    finite += check_declined(&name, &comp, &base, j, cands, &model, cores);
                    continue;
                }
                let delta = CoordinateDelta::new(&comp, &base, j, cores)
                    .unwrap_or_else(|| panic!("{name}: inp is shift-only"));
                let (_, s) =
                    check_scan_counted(&name, &comp, &delta, &base, j, cands, &model, cores);
                segments += s;
            }
        }
        assert!(segments + finite > 0, "{name}: nothing scanned");
    }
}

/// On a component with a huge-extent level (`i < i64::MAX`, one interior
/// and one boundary tile), an array whose interval sums can pass `i64::MAX`
/// — `y[j + i64::MAX − 32]`, so the bound's `exact` fails — is not
/// shift-only: its contexts are declined and the reference build answers
/// them with the oracle's values, while `x[j]` alone is served by the lanes
/// bitwise like the reference. (No array moves with `i` itself: a range that
/// long overflows the transfer volume, in the reference build as much as
/// here.)
#[test]
fn huge_extent_inexact_array_falls_back_to_the_hull_walk() {
    let counts = [i64::MAX, 64];
    let levels = || vec![level(0, "i", i64::MAX), level(1, "j", 64)];
    let x = hand_array(0, "x", &[64], vec![vec![access(&[0, 1], 0, &counts)]]);
    let y = hand_array(
        1,
        "y",
        &[i64::MAX],
        vec![vec![access(&[0, 1], i64::MAX - 32, &counts)]],
    );
    let model = ExecModel {
        o: vec![0.0, 0.0],
        w: 1.0,
    };
    let cores = 2;
    let base = Solution {
        k: vec![1 << 62, 8],
        r: vec![1, 1],
    };
    for (arrays, on_lanes) in [(vec![x.clone()], true), (vec![x, y], false)] {
        let comp = hand_component("huge", levels(), arrays, &[]);
        for (j, cands) in [(1, vec![8, 64]), (0, vec![1 << 62, i64::MAX])] {
            if !on_lanes {
                let finite = check_declined("huge", &comp, &base, j, &cands, &model, cores);
                assert!(finite > 0, "{j}");
                continue;
            }
            let delta = CoordinateDelta::new(&comp, &base, j, cores).expect("context fits");
            let (_, segments) =
                check_scan_counted("huge", &comp, &delta, &base, j, &cands, &model, cores);
            assert!(segments > 0);
        }
    }
}

/// Cores of the box-class cases below.
const CLASS_CORES: usize = 8;

/// The first earlier core whose walked analysis `core` uses, if any.
fn shared_with(a: &ComponentAnalysis, core: usize) -> Option<usize> {
    (0..core).find(|&c| std::ptr::eq(a.core(c), a.core(core)))
}

/// Scans coordinate `j` of `base` over `cands` on [`CLASS_CORES`] cores,
/// each candidate bitwise against the reference build (which gives every
/// core its own analysis), and returns per candidate which earlier core's
/// analysis each core uses — `None` for an infeasible candidate. The ledger's
/// `segments_shared` must be the repeat cores' segments.
fn scan_repeats(
    name: &str,
    comp: &Component,
    model: &ExecModel,
    base: &Solution,
    j: usize,
    cands: &[i64],
) -> Vec<Option<Vec<Option<usize>>>> {
    let delta = CoordinateDelta::new(comp, base, j, CLASS_CORES).expect("context fits");
    let (rebuilt, ledger) =
        check_scan_ledger(name, comp, &delta, base, j, cands, model, CLASS_CORES);
    let mut shared = 0usize;
    let repeats = rebuilt
        .iter()
        .map(|b| {
            let a = b.as_ref().ok()?;
            let reps: Vec<Option<usize>> = (0..CLASS_CORES).map(|c| shared_with(a, c)).collect();
            for (core, rep) in reps.iter().enumerate() {
                if let Some(r) = *rep {
                    assert!(r < core, "{name}: core {core} repeats a later core {r}");
                    shared += a.core(core).nseg;
                }
            }
            let mut sol = base.clone();
            sol.k[j] = a.solution.k[j];
            let reference = ComponentAnalysis::build(comp, &sol, CLASS_CORES, model, false)
                .expect("reference feasible");
            assert!((0..CLASS_CORES).all(|c| shared_with(&reference, c).is_none()));
            Some(reps)
        })
        .collect();
    assert_eq!(ledger.segments_shared, shared, "{name}: shared segments");
    repeats
}

/// The repeat record of `cores` cores in which every core but the listed
/// walked ones repeats `rep(core)`.
fn repeats_of(rep: impl Fn(usize) -> Option<usize>) -> Vec<Option<usize>> {
    (0..CLASS_CORES).map(rep).collect()
}

/// Every core in one class: `R_0 = 8` over 16 iterations, tile counts
/// dividing the iteration counts, so no tile is clipped and every core's box
/// is a translate of core 0's. Cores 1–7 repeat core 0 under every
/// candidate of both coordinates.
#[test]
fn every_core_in_one_class_repeats_core_zero() {
    let (comp, model) = assign_nest("one_class", &[16, 12], 2);
    let base = Solution {
        k: vec![2, 3],
        r: vec![8, 1],
    };
    let all_zero = repeats_of(|c| (c > 0).then_some(0));
    for (j, cands) in [(1, vec![1, 2, 3, 4, 6, 12]), (0, vec![1, 2])] {
        for reps in scan_repeats("one_class", &comp, &model, &base, j, &cands) {
            assert_eq!(reps.as_ref(), Some(&all_zero), "coordinate {j}");
        }
    }
}

/// A shorter last group: 15 tiles in groups of two leave core 7 one tile,
/// another class — it walks, cores 1–6 repeat core 0.
#[test]
fn shorter_last_group_walks_its_own_core() {
    let (comp, model) = assign_nest("short_last", &[15, 12], 2);
    let base = Solution {
        k: vec![1, 3],
        r: vec![8, 1],
    };
    let want = repeats_of(|c| (1..7).contains(&c).then_some(0));
    for reps in scan_repeats("short_last", &comp, &model, &base, 1, &[1, 2, 3, 4, 6, 12]) {
        assert_eq!(reps.as_ref(), Some(&want));
    }
}

/// A full-length last group whose boundary tile is clipped: 31 iterations
/// in tiles of two give core 7 two tiles like every core, but its last one
/// has extent 1 — another class, so it must not share.
#[test]
fn clipped_boundary_tile_is_not_shared() {
    let (comp, model) = assign_nest("clipped_last", &[31, 12], 2);
    let base = Solution {
        k: vec![2, 3],
        r: vec![8, 1],
    };
    let want = repeats_of(|c| (1..7).contains(&c).then_some(0));
    for reps in scan_repeats(
        "clipped_last",
        &comp,
        &model,
        &base,
        1,
        &[1, 2, 3, 4, 6, 12],
    ) {
        assert_eq!(reps.as_ref(), Some(&want));
    }
}

/// A full-length last group whose boundary tile is not clipped: with 32
/// iterations core 7's last tile has the interior extent, so core 7 holds
/// the level's last tile and still repeats core 0.
#[test]
fn unclipped_boundary_tile_is_shared() {
    let (comp, model) = assign_nest("unclipped_last", &[32, 12], 2);
    let base = Solution {
        k: vec![2, 3],
        r: vec![8, 1],
    };
    let all_zero = repeats_of(|c| (c > 0).then_some(0));
    for reps in scan_repeats(
        "unclipped_last",
        &comp,
        &model,
        &base,
        1,
        &[1, 2, 3, 4, 6, 12],
    ) {
        assert_eq!(reps.as_ref(), Some(&all_zero));
    }
}

/// `R` split over two levels, `R = [2, 4]`: core `c` owns group `c / 4` of
/// level 0 and group `c % 4` of level 1. At `K = [2, 2]` level 1's last
/// tile is clipped (15 iterations), so the cores holding it (3 and 7) form
/// their own class: core 7 repeats core 3, the others core 0. Under every
/// `K_1`, core 4 — the same level-1 group in the other level-0 group —
/// repeats core 0.
#[test]
fn thread_groups_over_two_levels_share_per_class() {
    let (comp, model) = assign_nest("two_level_r", &[16, 15], 2);
    let base = Solution {
        k: vec![2, 2],
        r: vec![2, 4],
    };
    let cands = select_tile_sizes(&comp, 1, 4);
    assert!(cands.contains(&2));
    let scanned = scan_repeats("two_level_r", &comp, &model, &base, 1, &cands);
    for (&kj, reps) in cands.iter().zip(&scanned) {
        let reps = reps.as_ref().expect("feasible");
        assert_eq!(reps[4], Some(0), "K_1 = {kj}");
        if kj == 2 {
            let want = repeats_of(|c| match c {
                0 | 3 => None,
                7 => Some(3),
                _ => Some(0),
            });
            assert_eq!(reps, &want);
        }
    }
}

/// A `+=` accumulator whose `RangeOverlap` fires only in the class of a
/// later core: `A[i + 3k]` and `A[i + 3k + 1]` (one read-write array, two
/// accesses) under `K = [1, 1]`, `R = [2, 2]`. Core `c` owns `i`-group
/// `c / 2` (two tiles) and `k`-group `c % 2`: `{0, 1}` or `{2}`. On core 0
/// the `k` step moves the two-element range by 3 and the carry into `i` by
/// `1 − 3 = −2`, so nothing overlaps; on core 1, with one `k` tile, the `i`
/// step moves it by 1 onto itself. The reference stops there; so must the
/// walk — core 3 would repeat core 1, and core 2 repeats core 0 on the
/// feasible candidates. Same error, same array, every candidate.
#[test]
fn accumulator_overlap_on_a_later_class_matches_the_reference() {
    let counts = [4, 3];
    let comp = hand_component(
        "acc_overlap",
        vec![level(0, "i", 4), level(1, "k", 3)],
        vec![hand_array(
            0,
            "A",
            &[12],
            vec![vec![
                access(&[1, 3], 0, &counts),
                access(&[1, 3], 1, &counts),
            ]],
        )],
        &[0],
    );
    let model = ExecModel {
        o: vec![1.0, 1.0],
        w: 1.0,
    };
    let base = Solution {
        k: vec![1, 1],
        r: vec![2, 2],
    };
    let delta = CoordinateDelta::new(&comp, &base, 0, CLASS_CORES).expect("context fits");
    let rebuilt = check_scan(
        "acc_overlap",
        &comp,
        &delta,
        &base,
        0,
        &[1, 2],
        &model,
        CLASS_CORES,
    );
    assert!(
        matches!(&rebuilt[0], Err(Infeasible::RangeOverlap { array }) if array == "A"),
        "{:?}",
        rebuilt[0]
    );
    let feasible = rebuilt[1].as_ref().expect("K_0 = 2: one i tile per core");
    assert_eq!(shared_with(feasible, 2), Some(0));
    assert_eq!(shared_with(feasible, 3), Some(1));
    scan_repeats("acc_overlap", &comp, &model, &base, 1, &[1, 2, 3]);
}

/// Cancelling shifts on a repeated core: `y[i] += x[i + k] * w[k]` at
/// `K = [2, 1]`, `R = [4, 1]`, each core two `i` tiles by three `k` tiles.
/// On every core the carry into `i` repeats `x`'s range, so the copied
/// cores 1–3 carry 5 entries for `x`, not 6, exactly like the reference.
#[test]
fn cancelling_shifts_repeat_on_copied_cores() {
    let comp = conv1d(16);
    let model = ExecModel {
        o: vec![1.0, 1.0],
        w: 1.0,
    };
    let base = Solution {
        k: vec![2, 1],
        r: vec![4, 1],
    };
    let delta = CoordinateDelta::new(&comp, &base, 1, CLASS_CORES).expect("context fits");
    let rebuilt = check_scan("conv1d", &comp, &delta, &base, 1, &[1], &model, CLASS_CORES);
    let analysis = rebuilt[0].as_ref().expect("feasible");
    let xi = comp.arrays.iter().position(|a| a.name == "x").unwrap();
    for core in 0..4 {
        assert_eq!(shared_with(analysis, core), (core > 0).then_some(0));
        assert_eq!(analysis.core(core).nseg, 6);
        assert_eq!(analysis.core(core).swap_lists[xi].len(), 5);
    }
    let cands = select_tile_sizes(&comp, 0, 4);
    scan_repeats("conv1d", &comp, &model, &base, 0, &cands);
}

/// A component with one guarded array (`g`, written only when `k == 0`)
/// next to shift-only ones: guards are not translation-invariant, so the
/// context is declined and the reference build walks every core, though
/// every box is a translate of core 0's, and answers with the oracle's
/// values.
#[test]
fn a_hull_array_walks_every_core() {
    let program = prem::frontend::parse_kernel(
        "one_hull",
        "float a[16][8]; float s[16][8]; float g[16];
         for (int i = 0; i < 16; i++)
           for (int k = 0; k < 8; k++) {
             if (k == 0) g[i] = 1.0;
             a[i][k] = s[i][k] + 1.0;
           }",
        &[],
    )
    .expect("kernel parses");
    let (comp, model) = component_of(&program);
    assert_eq!(comp.depth(), 2);
    let base = Solution {
        k: vec![2, 2],
        r: vec![8, 1],
    };
    for j in 0..2 {
        let cands = select_tile_sizes(&comp, j, base.r[j]);
        let (finite, counters) =
            check_declined_counted("one_hull", &comp, &base, j, &cands, &model, CLASS_CORES);
        assert!(finite > 0, "coordinate {j}");
        assert_eq!(counters.segments_shared, 0, "coordinate {j}");
    }
}
