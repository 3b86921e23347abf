//! Properties checked on seeded random inputs: the polyhedral substrate
//! (interval arithmetic, floor division, soundness and lexicographic order
//! of dependence boxes — what the §5.2.1 legality rule reads), PREM
//! execution of generated kernels (bit-exact against the interpreter, and
//! the §3.5 recurrence against the explicit phase DAG and the simulator),
//! and the incremental rebuild's row walk on generated shift-only nests
//! (bitwise against the reference analysis and the materializing oracle).
//!
//! Every property loops over seeds `0..CASES`, each seed drawing one input
//! with [`SplitMix`]. A failure message names the seed and every drawn
//! parameter, so a failing case replays as it is, without shrinking.

mod common;

use common::SplitMix;
use prem::core::{
    build_dag, build_schedule, evaluate, optimize_app, AnalyticCost, Component, ComponentAnalysis,
    CoordinateDelta, CostProvider, ExecModel, Infeasible, LoopTree, MakespanEvaluator,
    OptimizerOptions, Platform, Solution,
};
use prem::ir::{
    run_program, AssignKind, CmpOp, Cond, ElemType, Expr, IdxExpr, MemStore, Program,
    ProgramBuilder,
};
use prem::obs::SearchCounters;
use prem::polyhedral::{
    analyze_dependences, div_ceil, div_floor, mod_floor, AccessInfo, AffExpr, Carry, DepKind,
    Interval, LoopInfo, StmtPoly,
};
use prem::sim::{run_app_prem, simulate, PlannedComponent};

/// Cases per property on generated kernels, which compile and run each one.
const PIPELINE_CASES: u64 = 256;
/// Cases per property on polyhedral values.
const CASES: u64 = 4096;

/// A draw from `lo..hi`.
fn draw(rng: &mut SplitMix, lo: i64, hi: i64) -> i64 {
    lo + rng.below((hi - lo) as u64) as i64
}

fn coin(rng: &mut SplitMix) -> bool {
    rng.below(2) == 1
}

/// A generated kernel family: three perfectly nested loops computing
/// `out[i][j] (+)= w[i][l3] * inp[l3][j + offset]`, with an optional
/// guard-initialized accumulator — affine, legal SCoPs by construction.
#[derive(Debug)]
struct GenKernel {
    n1: i64,
    n2: i64,
    n3: i64,
    accumulate: bool,
    offset: i64,
    guard_init: bool,
}

impl GenKernel {
    fn draw(rng: &mut SplitMix) -> Self {
        GenKernel {
            n1: draw(rng, 2, 12),
            n2: draw(rng, 2, 12),
            n3: draw(rng, 1, 8),
            accumulate: coin(rng),
            offset: draw(rng, 0, 3),
            guard_init: coin(rng),
        }
    }

    fn build(&self) -> Program {
        let mut b = ProgramBuilder::new("gen");
        let out = b.array("out", vec![self.n1, self.n2], ElemType::F32);
        let w = b.array("w", vec![self.n1, self.n3], ElemType::F32);
        let inp = b.array("inp", vec![self.n3, self.n2 + self.offset], ElemType::F32);
        let i = b.begin_loop("i", 0, 1, self.n1);
        let j = b.begin_loop("j", 0, 1, self.n2);
        let l3 = b.begin_loop("l3", 0, 1, self.n3);
        let cell = vec![IdxExpr::var(i), IdxExpr::var(j)];
        if self.guard_init {
            b.begin_if(Cond::atom(IdxExpr::var(l3), CmpOp::Eq));
            b.stmt(out, cell.clone(), AssignKind::Assign, Expr::Const(0.5));
            b.end_if();
        }
        let kind = if self.accumulate {
            AssignKind::AddAssign
        } else {
            AssignKind::Assign
        };
        let product = Expr::mul(
            Expr::load(w, vec![IdxExpr::var(i), IdxExpr::var(l3)]),
            Expr::load(
                inp,
                vec![IdxExpr::var(l3), IdxExpr::var(j).plus_const(self.offset)],
            ),
        );
        b.stmt(out, cell, kind, product);
        b.end_loop();
        b.end_loop();
        b.end_loop();
        b.finish()
    }
}

/// The maximal tilable chain of a generated kernel (single-root and
/// perfectly nested by construction).
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

/// The largest difference between the interpreter's memory and the PREM
/// machine's after running `planned`.
fn prem_diff(program: &Program, planned: &[PlannedComponent], platform: &Platform) -> f64 {
    let mut reference = MemStore::patterned(program);
    run_program(program, &mut reference);
    let mut prem_mem = MemStore::patterned(program);
    run_app_prem(program, planned, platform, &mut prem_mem).expect("PREM runs");
    reference.max_abs_diff(&prem_mem)
}

/// Any solution the schedule builder accepts — a clamped random probe, and
/// the winner `optimize_app` picks on a drawn platform — executes through
/// the PREM machine exactly as the interpreter does.
#[test]
fn prem_execution_matches_interpreter() {
    let (mut probes, mut winners) = (0, 0);
    for seed in 0..PIPELINE_CASES {
        let mut rng = SplitMix(seed);
        let k = GenKernel::draw(&mut rng);
        let (k1, k2, cores) = (
            draw(&mut rng, 1, 6),
            draw(&mut rng, 1, 6),
            draw(&mut rng, 1, 5),
        );
        let spm = rng.pick(&[1 << 10, 4 << 10, 1 << 20]);
        let program = k.build();
        let tree = LoopTree::build(&program).unwrap();
        let comp = chain_component(&tree, &program);
        let cost = AnalyticCost::new(&program);

        // A random probe, clamped to the component's levels.
        let depth = comp.depth();
        let mut sol = Solution {
            k: comp.levels.iter().map(|l| l.count).collect(),
            r: vec![1; depth],
        };
        sol.k[0] = k1.min(comp.levels[0].count);
        if depth > 1 {
            sol.k[1] = k2.min(comp.levels[1].count);
        }
        if comp.levels[0].parallel {
            sol.r[0] = cores.min(comp.levels[0].count);
        }
        let platform = Platform::default()
            .with_cores(cores.max(sol.r[0]) as usize)
            .with_spm_bytes(1 << 20);
        let model = cost.exec_model(&comp);
        if build_schedule(&comp, &sol, &platform, &model).is_ok() {
            probes += 1;
            let planned = [PlannedComponent {
                component: comp,
                solution: sol.clone(),
            }];
            let diff = prem_diff(&program, &planned, &platform);
            assert!(
                diff < 1e-9,
                "seed {seed}: {k:?}, probe {sol} on {cores} cores diverges by {diff}"
            );
        }

        // The optimizer's own winner.
        let platform = Platform::default()
            .with_cores(cores as usize)
            .with_spm_bytes(spm);
        let out = optimize_app(
            &tree,
            &program,
            &platform,
            &cost,
            &OptimizerOptions::default(),
        );
        if out.makespan_ns.is_finite() {
            winners += 1;
            let planned: Vec<PlannedComponent> = out
                .components
                .iter()
                .map(|c| PlannedComponent {
                    component: c.component.clone(),
                    solution: c.solution.clone(),
                })
                .collect();
            let diff = prem_diff(&program, &planned, &platform);
            let chosen: Vec<String> = planned.iter().map(|p| p.solution.to_string()).collect();
            assert!(
                diff < 1e-9,
                "seed {seed}: {k:?}, winners {chosen:?} on {cores} cores, {spm} B SPM \
                 diverge by {diff}"
            );
        }
    }
    // Most draws must reach the PREM machine, or the property says nothing.
    assert!(probes * 2 > PIPELINE_CASES, "{probes} probes built");
    assert!(winners * 2 > PIPELINE_CASES, "{winners} winners feasible");
}

/// The §3.5 recurrence and the explicit phase DAG's longest path agree, and
/// the event-driven simulator is never slower than the recurrence (it skips
/// blocked DMA slots).
#[test]
fn analytic_recurrence_matches_explicit_dag() {
    let mut built = 0;
    for seed in 0..PIPELINE_CASES {
        let mut rng = SplitMix(seed);
        let k = GenKernel::draw(&mut rng);
        let k1 = draw(&mut rng, 1, 6);
        let program = k.build();
        let tree = LoopTree::build(&program).unwrap();
        let comp = chain_component(&tree, &program);
        let mut sol = Solution {
            k: comp.levels.iter().map(|l| l.count).collect(),
            r: vec![1; comp.depth()],
        };
        sol.k[0] = k1.min(comp.levels[0].count);
        let platform = Platform::default().with_cores(2).with_spm_bytes(1 << 20);
        let model = AnalyticCost::new(&program).exec_model(&comp);
        let Ok(sched) = build_schedule(&comp, &sol, &platform, &model) else {
            continue;
        };
        built += 1;
        let recurrence = evaluate(&sched).makespan_ns;
        let dag = build_dag(&sched).longest_path_ns();
        assert!(
            (recurrence - dag).abs() <= 1e-6 * recurrence.max(1.0),
            "seed {seed}: {k:?}, {sol}: recurrence {recurrence} vs DAG {dag}"
        );
        let sim = simulate(&sched).makespan_ns;
        assert!(
            sim <= recurrence * (1.0 + 1e-9),
            "seed {seed}: {k:?}, {sol}: sim {sim} > model {recurrence}"
        );
    }
    assert!(built * 2 > PIPELINE_CASES, "{built} schedules built");
}

/// The scan `a[i] = a[i - shift]` has flow distance exactly `shift`.
#[test]
fn dependence_distances_respect_actual_conflicts() {
    for seed in 0..CASES {
        let mut rng = SplitMix(seed);
        let (n1, n2, shift) = (
            draw(&mut rng, 2, 10),
            draw(&mut rng, 2, 10),
            draw(&mut rng, 1, 3),
        );
        let mut b = ProgramBuilder::new("scan");
        let a = b.array("a", vec![n1 * n2 + shift], ElemType::F32);
        let i = b.begin_loop("i", shift, 1, n1 * n2);
        b.stmt(
            a,
            vec![IdxExpr::var(i)],
            AssignKind::Assign,
            Expr::load(a, vec![IdxExpr::var(i).plus_const(-shift)]),
        );
        b.end_loop();
        let stmts = prem::ir::lower(&b.finish()).unwrap();
        let deps = analyze_dependences(&stmts);
        let flow: Vec<_> = deps.iter().filter(|d| d.kind == DepKind::Flow).collect();
        let drawn = format!("seed {seed}: n1 {n1}, n2 {n2}, shift {shift}");
        assert!(!flow.is_empty(), "{drawn}: no flow dependence");
        for d in flow {
            assert_eq!(d.dist_at(0), Interval::point(shift), "{drawn}: {d}");
        }
    }
}

/// The bounds of an affine expression over a box are its exact extremes.
#[test]
fn interval_arithmetic_is_exact_for_affine() {
    for seed in 0..CASES {
        let mut rng = SplitMix(seed);
        let (c0, c1) = (draw(&mut rng, -5, 5), draw(&mut rng, -5, 5));
        let (n0, n1) = (draw(&mut rng, 1, 9), draw(&mut rng, 1, 9));
        let konst = draw(&mut rng, -10, 10);
        let e = AffExpr::from_parts(vec![c0, c1], konst);
        let bounds = e.bounds(&[Interval::new(0, n0 - 1), Interval::new(0, n1 - 1)]);
        let (mut lo, mut hi) = (i64::MAX, i64::MIN);
        for x in 0..n0 {
            for y in 0..n1 {
                let v = e.eval(&[x, y]);
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        assert_eq!(
            bounds,
            Interval::new(lo, hi),
            "seed {seed}: {c0}·x + {c1}·y + {konst} over [0, {n0}) × [0, {n1})"
        );
    }
}

/// The sum of two intervals contains every sum of their endpoints.
#[test]
fn interval_add_is_sound() {
    for seed in 0..CASES {
        let mut rng = SplitMix(seed);
        let [a, b, c, d] = [(); 4].map(|_| draw(&mut rng, -50, 50));
        let x = Interval::new(a.min(b), a.max(b));
        let y = Interval::new(c.min(d), c.max(d));
        let s = x + y;
        for u in [x.lo, x.hi] {
            for v in [y.lo, y.hi] {
                assert!(
                    s.contains(u + v),
                    "seed {seed}: {x:?} + {y:?} = {s:?} misses {u} + {v}"
                );
            }
        }
    }
}

/// Scaling an interval gives exactly the extremes of its scaled points.
#[test]
fn interval_scale_is_exact() {
    for seed in 0..CASES {
        let mut rng = SplitMix(seed);
        let (a, b, k) = (
            draw(&mut rng, -50, 50),
            draw(&mut rng, -50, 50),
            draw(&mut rng, -7, 7),
        );
        let x = Interval::new(a.min(b), a.max(b));
        let (mut lo, mut hi) = (i64::MAX, i64::MIN);
        for v in x.lo..=x.hi {
            lo = lo.min(v * k);
            hi = hi.max(v * k);
        }
        assert_eq!(
            x.scale(k),
            Interval::new(lo, hi),
            "seed {seed}: {x:?} scaled by {k}"
        );
    }
}

/// Floor division, its remainder and ceiling division obey the floor laws.
#[test]
fn div_floor_ceil_mod_laws() {
    for seed in 0..CASES {
        let mut rng = SplitMix(seed);
        let (a, b) = (draw(&mut rng, -1000, 1000), draw(&mut rng, 1, 50));
        let (q, m, c) = (div_floor(a, b), mod_floor(a, b), div_ceil(a, b));
        let drawn = format!("seed {seed}: a {a}, b {b}: floor {q}, mod {m}, ceil {c}");
        assert_eq!(q * b + m, a, "{drawn}");
        assert!((0..b).contains(&m), "{drawn}");
        assert!(q * b <= a && a < (q + 1) * b, "{drawn}");
        assert!((c - 1) * b < a && a <= c * b, "{drawn}");
        assert!(c == q || c == q + 1, "{drawn}");
    }
}

/// For a single statement in a 2-deep loop writing `a[c0·i + c1·j + k0]`
/// and reading `a[d0·i + d1·j + k1]`, every actual flow conflict is covered
/// by a reported flow box.
#[test]
fn dependence_analysis_is_sound() {
    for seed in 0..CASES {
        let mut rng = SplitMix(seed);
        let (n0, n1) = (draw(&mut rng, 2, 7), draw(&mut rng, 2, 7));
        let [c0, c1, k0, d0, d1, k1] = [(); 6].map(|_| draw(&mut rng, 0, 3));
        let write = AccessInfo::write(0, vec![AffExpr::from_parts(vec![c0, c1], k0)]);
        let read = AccessInfo::read(0, vec![AffExpr::from_parts(vec![d0, d1], k1)]);
        let stmt = StmtPoly {
            id: 0,
            loops: vec![LoopInfo::new(0, n0), LoopInfo::new(1, n1)],
            guards: vec![],
            position: vec![0, 0, 0],
            accesses: vec![read, write],
        };
        let deps = analyze_dependences(std::slice::from_ref(&stmt));
        // Every ordered pair (src before snk) where the source's write
        // feeds the sink's read.
        for (i, j) in (0..n0).flat_map(|i| (0..n1).map(move |j| (i, j))) {
            for (i2, j2) in (0..n0).flat_map(|i| (0..n1).map(move |j| (i, j))) {
                if (i, j) >= (i2, j2) || c0 * i + c1 * j + k0 != d0 * i2 + d1 * j2 + k1 {
                    continue;
                }
                let delta = (i2 - i, j2 - j);
                let covered = deps.iter().any(|d| {
                    d.kind == DepKind::Flow
                        && d.dist_at(0).contains(delta.0)
                        && d.dist_at(1).contains(delta.1)
                });
                assert!(
                    covered,
                    "seed {seed}: write a[{c0}i + {c1}j + {k0}], read a[{d0}i + {d1}j + {k1}] \
                     over {n0} × {n1}: flow ({i}, {j}) → ({i2}, {j2}) (δ {delta:?}) \
                     uncovered by {deps:?}"
                );
            }
        }
    }
}

/// Carried boxes are zero above their level and positive at it; equal
/// boxes are all zero.
#[test]
fn dependence_boxes_are_lex_ordered() {
    for seed in 0..CASES {
        let mut rng = SplitMix(seed);
        let (n0, n1, shift) = (
            draw(&mut rng, 2, 8),
            draw(&mut rng, 2, 8),
            draw(&mut rng, -2, 3),
        );
        let write = AccessInfo::write(
            0,
            vec![
                AffExpr::from_parts(vec![1, 0], 0),
                AffExpr::from_parts(vec![0, 1], 0),
            ],
        );
        let read = AccessInfo::read(
            0,
            vec![
                AffExpr::from_parts(vec![1, 0], shift),
                AffExpr::from_parts(vec![0, 1], 0),
            ],
        );
        let stmt = StmtPoly {
            id: 0,
            loops: vec![LoopInfo::new(0, n0), LoopInfo::new(1, n1)],
            guards: vec![],
            position: vec![0, 0, 0],
            accesses: vec![read, write],
        };
        let drawn = format!("seed {seed}: n0 {n0}, n1 {n1}, shift {shift}");
        for d in analyze_dependences(std::slice::from_ref(&stmt)) {
            let zero_to = match d.carry {
                Carry::Level(l) => {
                    assert!(d.dist_at(l).lo >= 1, "{drawn}: {d}");
                    l
                }
                Carry::Equal => d.dist.len(),
            };
            for k in 0..zero_to {
                assert!(d.dist_at(k).is_zero(), "{drawn}: {d}");
            }
        }
    }
}

/// Cases of the row-walk property: each draws a nest, a platform, a base
/// solution and one coordinate scan.
const ROW_CASES: u64 = 768;

/// A generated shift-only nest: `depth` perfectly nested loops and one
/// statement `out[..] (+)= a[..] * b[..]` whose every array dimension is
/// `Σ c·v + base` over one or two loop variables, with coefficients in
/// `{−2, −1, 1, 2}` — negative ones included, and two unit coefficients
/// (`x[i + k]`) whose shifts cancel when one level steps on and an inner
/// one restarts. Each dimension's extent is exactly its index range, so
/// every access stays in bounds. With `accumulate` the output is
/// read-modify-write, and an output dimension that moves with a level its
/// tiles share overlaps from tile to tile (§5.3.1).
#[derive(Debug)]
struct ShiftNest {
    counts: Vec<i64>,
    /// Per array (`out`, `a`, `b`), per dimension, `(level, coeff)` terms.
    dims: Vec<Vec<Vec<(usize, i64)>>>,
    accumulate: bool,
}

impl ShiftNest {
    fn draw(rng: &mut SplitMix) -> Self {
        let depth = draw(rng, 2, 7) as usize;
        // Small counts keep cores short, and a count of 1 gives a level
        // whose box is one tile whatever the tiling.
        let counts: Vec<i64> = (0..depth).map(|_| draw(rng, 1, 6)).collect();
        let dims = (0..3)
            .map(|_| {
                (0..draw(rng, 1, 4))
                    .map(|_| {
                        let first = rng.below(depth as u64) as usize;
                        let mut terms = vec![(first, rng.pick(&[-2, -1, 1, 2]))];
                        if coin(rng) {
                            let second = rng.below(depth as u64) as usize;
                            if second != first {
                                terms.push((second, rng.pick(&[-1, 1, 1, 2])));
                            }
                        }
                        terms
                    })
                    .collect()
            })
            .collect();
        ShiftNest {
            counts,
            dims,
            accumulate: coin(rng),
        }
    }

    /// Per dimension of array `a`, its index expression over `vars` and its
    /// extent: the base lifts the least value to `0`.
    fn index(&self, a: usize, vars: &[usize]) -> (Vec<IdxExpr>, Vec<i64>) {
        self.dims[a]
            .iter()
            .map(|terms| {
                let (mut lo, mut hi) = (0, 0);
                let mut e = IdxExpr::constant(0);
                for &(l, c) in terms {
                    let span = c * (self.counts[l] - 1);
                    lo += span.min(0);
                    hi += span.max(0);
                    e = e.plus_var(vars[l], c);
                }
                (e.plus_const(-lo), hi - lo + 1)
            })
            .unzip()
    }

    fn build(&self) -> Program {
        let mut b = ProgramBuilder::new("shift");
        let vars: Vec<usize> = (0..self.counts.len()).collect();
        let shapes: Vec<(Vec<IdxExpr>, Vec<i64>)> = (0..3).map(|a| self.index(a, &vars)).collect();
        let ids: Vec<_> = ["out", "a", "b"]
            .iter()
            .zip(&shapes)
            .map(|(name, (_, extents))| b.array(*name, extents.clone(), ElemType::F32))
            .collect();
        let loops: Vec<usize> = self
            .counts
            .iter()
            .enumerate()
            .map(|(l, &n)| b.begin_loop(format!("v{l}"), 0, 1, n))
            .collect();
        // Loop ids are the levels' indices: the builder numbers loops in
        // the order they open.
        assert_eq!(loops, vars);
        let kind = if self.accumulate {
            AssignKind::AddAssign
        } else {
            AssignKind::Assign
        };
        let product = Expr::mul(
            Expr::load(ids[1], shapes[1].0.clone()),
            Expr::load(ids[2], shapes[2].0.clone()),
        );
        b.stmt(ids[0], shapes[0].0.clone(), kind, product);
        for _ in &loops {
            b.end_loop();
        }
        b.finish()
    }
}

/// On generated shift-only nests of depth 2–6 on 1–8 cores, one coordinate
/// scan through the row walk equals the reference: every
/// `CoordinateDelta::rebuild_scan` element is bitwise
/// `ComponentAnalysis::build` (the same first error included), and every
/// value `MakespanEvaluator::scan_landscape` returns is bitwise
/// `build_schedule` + `evaluate` (`+∞` where the schedule is infeasible).
/// The draws must reach what the rows encode: cores of up to four
/// segments (every row an edge row), single-tile boxes, boxes holding
/// their level's last tile, overlap errors and shifts that cancel.
#[test]
fn row_walk_matches_the_reference_on_shift_only_nests() {
    let (mut walked, mut overlaps, mut short, mut single, mut last_tile) = (0, 0, 0, 0, 0);
    let (mut negative, mut cancelling) = (0, 0);
    for seed in 0..ROW_CASES {
        let mut rng = SplitMix(0x5eed_0000 ^ seed);
        let nest = ShiftNest::draw(&mut rng);
        let terms = || nest.dims.iter().flatten();
        negative += usize::from(terms().flatten().any(|&(_, c)| c < 0));
        cancelling += usize::from(terms().any(|t| t.len() == 2 && t[0].1 == 1 && t[1].1 == 1));
        let cores = draw(&mut rng, 1, 9) as usize;
        let program = nest.build();
        let tree = LoopTree::build(&program).expect("affine nest");
        let comp = chain_component(&tree, &program);
        let depth = comp.depth();
        let counts: Vec<i64> = comp.levels.iter().map(|l| l.count).collect();
        let mut base = Solution {
            k: counts.iter().map(|&n| draw(&mut rng, 1, n + 1)).collect(),
            r: vec![1; depth],
        };
        let mut budget = cores as i64;
        for (l, r) in base.r.iter_mut().enumerate() {
            let most = budget.min(counts[l]);
            if most > 1 && coin(&mut rng) {
                *r = draw(&mut rng, 1, most + 1);
                budget /= *r;
            }
        }
        let j = rng.below(depth as u64) as usize;
        let mut cands: Vec<i64> = (0..draw(&mut rng, 1, 4))
            .map(|_| draw(&mut rng, 1, counts[j] + 1))
            .collect();
        cands.sort_unstable();
        cands.dedup();
        let what =
            format!("seed {seed}: {nest:?} on {cores} cores, base {base}, j {j}, K_j {cands:?}");
        let model = ExecModel {
            o: (0..depth).map(|_| draw(&mut rng, 0, 5) as f64).collect(),
            w: draw(&mut rng, 1, 9) as f64,
        };
        let platform = Platform::default()
            .with_cores(cores)
            .with_bus_gbytes(rng.pick(&[1, 4, 16]) as f64 / 4.0);

        let Some(delta) = CoordinateDelta::new(&comp, &base, j, cores) else {
            continue;
        };
        walked += 1;
        let mut ledger = SearchCounters::default();
        let rebuilt = delta.rebuild_scan(&comp, &cands, &model, &mut ledger);
        for (&kj, got) in cands.iter().zip(&rebuilt) {
            let mut sol = base.clone();
            sol.k[j] = kj;
            let want = ComponentAnalysis::build(&comp, &sol, cores, &model, false);
            match (got, &want) {
                (Ok(a), Ok(b)) => {
                    assert!(
                        a.bitwise_eq(b),
                        "{what}: rows differ from the reference at {sol}"
                    );
                    for c in 0..a.ncores() {
                        let nseg = a.core(c).nseg;
                        short += usize::from((1..5).contains(&nseg));
                    }
                    let m = sol.m(&comp);
                    let plan = prem::core::TilePlan::build(&comp, &sol, cores).expect("feasible");
                    for bx in plan.core_boxes.iter().flatten() {
                        single += usize::from(bx.iter().any(|iv| iv.lo == iv.hi));
                        last_tile += usize::from(bx.iter().zip(&m).any(|(iv, &m)| iv.hi == m - 1));
                    }
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a, b, "{what}: first error differs at {sol}");
                    overlaps += usize::from(matches!(a, Infeasible::RangeOverlap { .. }));
                }
                _ => panic!("{what}: feasibility differs at {sol}: {got:?} vs {want:?}"),
            }
        }

        let mut ev = MakespanEvaluator::new(&comp, &platform, &model);
        ev.begin_coordinate(&base, j);
        let values = ev.scan_landscape(&cands);
        for (&kj, v) in cands.iter().zip(values) {
            let mut sol = base.clone();
            sol.k[j] = kj;
            let want = build_schedule(&comp, &sol, &platform, &model)
                .map_or(f64::INFINITY, |s| evaluate(&s).makespan_ns);
            assert_eq!(
                v.to_bits(),
                want.to_bits(),
                "{what}: {v} vs oracle {want} at {sol}"
            );
        }
    }
    assert!(walked > ROW_CASES as usize / 2, "{walked} walked scans");
    for (n, what) in [
        (negative, "negative coefficients"),
        (cancelling, "cancelling shifts"),
        (overlaps, "overlap errors"),
        (short, "cores of under five segments"),
        (single, "single-tile boxes"),
        (last_tile, "boxes holding the last tile"),
    ] {
        assert!(n > 0, "no {what} drawn");
    }
}
