//! Application-level optimization — Algorithm 2 of the paper (§4.4) — plus
//! the greedy baseline of Matějka et al. (§6.2) and the ideal single-core
//! baseline.
//!
//! Algorithm 2 decomposes the loop tree into disjoint tilable components by a
//! depth-first walk: a perfect chain of tilable loops extends the current
//! component; at an imperfect node the better of *tile here* (children folded
//! into the leaf) and *recurse into the children* is chosen.

use crate::component::{collect_statements, Component, ComponentFingerprint};
use crate::config::Platform;
use crate::cost::CostProvider;
use crate::looptree::{LoopTree, LoopTreeNode};
use crate::optimizer::{optimize_component, OptimizeOutcome, OptimizerOptions};
use crate::schedule::{evaluate, ScheduleResult};
use crate::segments::build_schedule;
use crate::tiling::Solution;
use crate::timing::ExecModel;
use prem_ir::{Program, Statement};
use prem_obs::{PhaseTimings, SearchTelemetry, Stopwatch};
use std::cell::RefCell;
use std::collections::HashMap;
use std::time::Instant;

/// Report for one scheduled component.
#[derive(Debug, Clone)]
pub struct ComponentReport {
    /// Level names, outermost first.
    pub level_names: Vec<String>,
    /// The chosen solution.
    pub solution: Solution,
    /// Evaluation of a single component execution.
    pub result: ScheduleResult,
    /// Execution count `I`.
    pub exec_count: u64,
    /// Structured search telemetry for this component's optimization.
    pub telemetry: SearchTelemetry,
    /// The component itself (for downstream code generation/simulation).
    pub component: Component,
}

impl ComponentReport {
    /// Number of makespan evaluations the optimizer spent — derived from
    /// the telemetry so the two can never diverge.
    pub fn evals(&self) -> usize {
        self.telemetry.counters.evals
    }

    /// Contribution of this component to the application makespan.
    pub fn total_ns(&self) -> f64 {
        self.result.makespan_ns * self.exec_count as f64
    }

    /// Total bytes transferred across all executions.
    pub fn total_bytes(&self) -> i64 {
        self.result.bytes * self.exec_count as i64
    }
}

/// Result of optimizing a whole application.
#[derive(Debug, Clone)]
pub struct AppOutcome {
    /// Application makespan in ns.
    pub makespan_ns: f64,
    /// Per-component reports, in schedule order.
    pub components: Vec<ComponentReport>,
}

impl AppOutcome {
    /// Total bytes transferred by the application.
    pub fn total_bytes(&self) -> i64 {
        self.components
            .iter()
            .map(ComponentReport::total_bytes)
            .sum()
    }

    /// Total API overhead (ns) across the application.
    pub fn total_api_ns(&self) -> f64 {
        self.components
            .iter()
            .map(|c| c.result.api_ns * c.exec_count as f64)
            .sum()
    }

    /// Maximum SPM bytes needed by any component.
    pub fn max_spm_bytes(&self) -> i64 {
        self.components
            .iter()
            .map(|c| c.result.spm_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Aggregated search telemetry across all components (counters and
    /// wall-clock only; per-assignment detail stays in each
    /// [`ComponentReport::telemetry`]).
    pub fn search_totals(&self) -> SearchTelemetry {
        let mut total = SearchTelemetry {
            best_makespan_ns: f64::INFINITY,
            ..SearchTelemetry::default()
        };
        for c in &self.components {
            total.absorb(&c.telemetry);
        }
        total
    }
}

/// Strategy used to pick a solution for each component.
trait ComponentStrategy {
    fn solve(&self, component: &Component) -> Option<OptimizeOutcome>;
    fn stmt_instance_ns(&self, stmt: usize) -> f64;
    /// Whether extracted components should privatize reduction accumulators
    /// before the search ([`Component::privatize_reductions`]). Off for the
    /// greedy baseline and off by default.
    fn reductions(&self) -> bool {
        false
    }
}

/// What a search result depends on inside one [`optimize_app`] call, where
/// platform and options are constant: the component's content and the bit
/// patterns of its execution model (`o`, then `w`).
type MemoKey = (ComponentFingerprint, Vec<u64>);

/// `(R, K)` and makespan bits of a searched winner; `None` for a component
/// with no feasible solution.
type Winner = Option<(Solution, u64)>;

/// The winners of one [`optimize_app`] call, by component content. Exact and
/// scoped to the call — there is no cross-call or process-wide state.
#[derive(Default)]
struct WinnerMemo {
    winners: HashMap<MemoKey, Winner>,
    /// Hits so far, for the sampled debug re-search.
    #[cfg(debug_assertions)]
    hits: usize,
}

struct HeuristicStrategy<'a, C: CostProvider> {
    platform: &'a Platform,
    cost: &'a C,
    opts: OptimizerOptions,
    memo: RefCell<WinnerMemo>,
}

impl<C: CostProvider> HeuristicStrategy<'_, C> {
    /// Replays a memoised winner onto `component`: the schedule is still
    /// materialised and evaluated for this component, and only a makespan
    /// equal bit for bit to the memoised one is accepted.
    fn replay(
        &self,
        component: &Component,
        model: &ExecModel,
        solution: &Solution,
        makespan_bits: u64,
    ) -> Option<OptimizeOutcome> {
        let clock = Instant::now();
        let schedule = build_schedule(component, solution, self.platform, model).ok()?;
        let result = evaluate(&schedule);
        if result.makespan_ns.to_bits() != makespan_bits {
            return None;
        }
        let mut telemetry = SearchTelemetry::replayed(result.makespan_ns);
        telemetry.schedule_build_s = clock.elapsed().as_secs_f64();
        Some(OptimizeOutcome {
            solution: solution.clone(),
            result,
            telemetry,
        })
    }
}

impl<C: CostProvider> ComponentStrategy for HeuristicStrategy<'_, C> {
    fn solve(&self, component: &Component) -> Option<OptimizeOutcome> {
        let model = self.cost.exec_model(component);
        let bits = model.o.iter().chain([&model.w]).map(|v| v.to_bits());
        let key = (component.fingerprint(), bits.collect());
        let search = || optimize_component(component, self.platform, &model, &self.opts);
        let mut memo = self.memo.borrow_mut();
        let Some(winner) = memo.winners.get(&key) else {
            let searched = search();
            let winner = searched
                .as_ref()
                .map(|o| (o.solution.clone(), o.result.makespan_ns.to_bits()));
            memo.winners.insert(key, winner);
            return searched;
        };
        let replayed = match winner {
            None => None,
            Some((solution, bits)) => {
                let Some(outcome) = self.replay(component, &model, solution, *bits) else {
                    // The fingerprint missed something the oracle reads:
                    // answer with a real search and leave a count behind.
                    let mut searched = search();
                    if let Some(o) = &mut searched {
                        o.telemetry.counters.replay_mismatches += 1;
                    }
                    return searched;
                };
                Some(outcome)
            }
        };
        #[cfg(debug_assertions)]
        {
            // Sampled re-search (the tier-1 suites run in debug): an
            // incomplete fingerprint fails here, not in production.
            memo.hits += 1;
            if memo.hits % 16 == 1 {
                let pick =
                    |o: &OptimizeOutcome| (o.solution.clone(), o.result.makespan_ns.to_bits());
                debug_assert_eq!(
                    replayed.as_ref().map(pick),
                    search().as_ref().map(pick),
                    "replayed winner differs from a fresh search"
                );
            }
        }
        replayed
    }

    fn stmt_instance_ns(&self, stmt: usize) -> f64 {
        self.cost.stmt_instance_ns(stmt)
    }

    fn reductions(&self) -> bool {
        self.opts.reductions
    }
}

struct GreedyStrategy<'a, C: CostProvider> {
    platform: &'a Platform,
    cost: &'a C,
}

impl<C: CostProvider> ComponentStrategy for GreedyStrategy<'_, C> {
    fn solve(&self, component: &Component) -> Option<OptimizeOutcome> {
        let model = self.cost.exec_model(component);
        greedy_component(component, self.platform, &model)
    }

    fn stmt_instance_ns(&self, stmt: usize) -> f64 {
        self.cost.stmt_instance_ns(stmt)
    }
}

/// Algorithm 2 with the heuristic component optimizer (the paper's system).
pub fn optimize_app<C: CostProvider>(
    tree: &LoopTree,
    program: &Program,
    platform: &Platform,
    cost: &C,
    opts: &OptimizerOptions,
) -> AppOutcome {
    optimize_app_timed(tree, program, platform, cost, opts).0
}

/// [`optimize_app`] plus wall-clock accounting per compile-pipeline phase
/// (`component_extraction`, `tiling_search`, `schedule_build`). The
/// upstream `analysis` phase (loop-tree construction, dependence analysis)
/// happens before this entry point; time it around [`LoopTree::build`] and
/// merge with [`PhaseTimings::absorb`].
pub fn optimize_app_timed<C: CostProvider>(
    tree: &LoopTree,
    program: &Program,
    platform: &Platform,
    cost: &C,
    opts: &OptimizerOptions,
) -> (AppOutcome, PhaseTimings) {
    let strategy = HeuristicStrategy {
        platform,
        cost,
        opts: opts.clone(),
        memo: RefCell::default(),
    };
    run_app(tree, program, cost, &strategy)
}

/// Algorithm 2 with the greedy baseline component selection (§6.2).
pub fn optimize_app_greedy<C: CostProvider>(
    tree: &LoopTree,
    program: &Program,
    platform: &Platform,
    cost: &C,
) -> AppOutcome {
    let strategy = GreedyStrategy { platform, cost };
    run_app(tree, program, cost, &strategy).0
}

fn run_app<C: CostProvider>(
    tree: &LoopTree,
    program: &Program,
    cost: &C,
    strategy: &dyn ComponentStrategy,
) -> (AppOutcome, PhaseTimings) {
    let mut components = Vec::new();
    let mut timings = PhaseTimings::new();
    let mut clock = Stopwatch::start();
    let walk = Walk {
        tree,
        program,
        statements: &collect_statements(program),
        strategy,
    };
    timings.add("component_extraction", clock.lap());
    let mut makespan = 0.0f64;
    for root in &tree.roots {
        makespan += extract_component(&walk, root, Vec::new(), &mut components, &mut timings);
    }
    // Statements outside any loop execute once each on one core.
    for &sid in &tree.root_stmts {
        makespan += cost.stmt_instance_ns(sid);
    }
    (
        AppOutcome {
            makespan_ns: makespan,
            components,
        },
        timings,
    )
}

/// What every step of the Algorithm 2 walk reads: the program, its loop
/// tree, its statements by id (collected once per walk) and the strategy.
struct Walk<'t> {
    tree: &'t LoopTree,
    program: &'t Program,
    statements: &'t [&'t Statement],
    strategy: &'t dyn ComponentStrategy,
}

/// `extract_component` of Algorithm 2. Returns the makespan contribution of
/// the subtree rooted at `node` and appends the chosen component reports.
fn extract_component<'t>(
    walk: &Walk<'t>,
    node: &'t LoopTreeNode,
    mut chain: Vec<&'t LoopTreeNode>,
    out: &mut Vec<ComponentReport>,
    timings: &mut PhaseTimings,
) -> f64 {
    let Walk {
        tree,
        program,
        statements,
        strategy,
    } = *walk;
    // A non-tilable node never joins a chain as a tiled level — but a chain
    // must contain at least one level, so a non-tilable head still forms a
    // single-level component restricted to K = N.
    let extendable = node.tilable || chain.is_empty();
    if extendable {
        chain.push(node);
    }

    let solve_chain = |chain: &[&LoopTreeNode],
                       out: &mut Vec<ComponentReport>,
                       timings: &mut PhaseTimings|
     -> f64 {
        let mut clock = Stopwatch::start();
        let mut component = Component::extract_with(tree, program, chain, statements);
        if strategy.reductions() {
            component.privatize_reductions();
        }
        timings.add("component_extraction", clock.lap());
        let solved = strategy.solve(&component);
        let solve_s = clock.lap();
        match solved {
            Some(mut outcome) => {
                // The final schedule build happens inside the solve; report
                // it as its own pipeline phase.
                timings.add("schedule_build", outcome.telemetry.schedule_build_s);
                timings.add(
                    "tiling_search",
                    (solve_s - outcome.telemetry.schedule_build_s).max(0.0),
                );
                outcome.telemetry.counters.reduction_deps = component
                    .deps
                    .iter()
                    .filter(|d| d.reduction.is_some())
                    .count();
                outcome.telemetry.counters.privatized_accumulators = component
                    .arrays
                    .iter()
                    .filter(|a| a.privatized.is_some())
                    .count();
                let report = ComponentReport {
                    level_names: component.levels.iter().map(|l| l.name.clone()).collect(),
                    solution: outcome.solution,
                    result: outcome.result,
                    exec_count: component.exec_count,
                    telemetry: outcome.telemetry,
                    component,
                };
                let total = report.total_ns();
                out.push(report);
                total
            }
            None => {
                timings.add("tiling_search", solve_s);
                f64::INFINITY
            }
        }
    };

    if !extendable {
        // A non-tilable level mid-chain is folded into the leaf together
        // with everything below it (§3.3); the component is the chain built
        // so far and there is no alternative decomposition.
        return solve_chain(&chain, out, timings);
    }

    if node.children.is_empty() || !node.perfectly_nests() {
        // Leaf of the chain walk: decide between tiling the chain here (the
        // children are folded into the leaf) and recursing into the children.
        let mut parent_branch = Vec::new();
        let parent = solve_chain(&chain, &mut parent_branch, timings);

        if node.children.is_empty() {
            out.append(&mut parent_branch);
            return parent;
        }
        let mut child_branch = Vec::new();
        let mut children = 0.0f64;
        for child in &node.children {
            children += extract_component(walk, child, Vec::new(), &mut child_branch, timings);
        }
        // Statements directly in this node's body execute I × span times.
        // They are covered by the parent option's leaf; for the children
        // option they run outside the child components.
        // Their cost is already inside `parent`; add to `children` here.
        children += own_stmt_cost(tree, node, strategy);

        if parent <= children {
            out.append(&mut parent_branch);
            parent
        } else {
            out.append(&mut child_branch);
            children
        }
    } else {
        // Perfect nest onto a single child: extend the chain (Algorithm 2
        // lines 12–13); a non-tilable child folds inside extract_component.
        extract_component(walk, &node.children[0], chain, out, timings)
    }
}

/// Sequential cost of statements living directly in `node`'s body when the
/// children-components option is chosen.
fn own_stmt_cost(tree: &LoopTree, node: &LoopTreeNode, strategy: &dyn ComponentStrategy) -> f64 {
    if node.own_stmts.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for &sid in &node.own_stmts {
        let poly = &tree.stmts[sid];
        let instances: u64 = poly.tightened_bounds().iter().map(|b| b.len()).product();
        total += instances as f64 * strategy.stmt_instance_ns(sid);
    }
    total
}

/// The greedy baseline (§6.2, \[29\]): walk levels outermost-first with `K = 1`
/// until a level is found where some tile fits the SPM with all deeper levels
/// untiled; pick the **largest** fitting tile size there. Outer parallel
/// levels are spread across all cores.
pub fn greedy_component(
    component: &Component,
    platform: &Platform,
    exec_model: &crate::timing::ExecModel,
) -> Option<OptimizeOutcome> {
    let depth = component.depth();
    // Thread groups: all cores on the outermost parallel level that can take
    // them.
    let mut r = vec![1i64; depth];
    let mut budget = platform.cores as i64;
    for (j, lv) in component.levels.iter().enumerate() {
        if lv.parallel && budget > 1 {
            let take = budget.min(lv.count);
            r[j] = take;
            budget /= take;
        }
    }

    let mut k: Vec<i64> = component.levels.iter().map(|l| l.count).collect();
    for j in 0..depth {
        if !component.levels[j].tilable {
            // Cannot tile here; keep full and move on (greedy cannot shrink
            // this level).
            continue;
        }
        // Binary search the largest K_j whose working set fits the SPM with
        // deeper levels untiled. Greedy only reasons about the footprint
        // ("the largest tile size that fits", §2.1.2); every other schedule
        // constraint is validated by the final build below.
        let n = component.levels[j].count;
        let fits = |kj: i64, k: &[i64]| -> bool {
            let mut kk = k.to_vec();
            kk[j] = kj;
            crate::tiling::spm_bytes_for(component, &kk) <= platform.spm_bytes
        };
        if fits(n, &k) {
            // Already fits untiled at this level.
            break;
        }
        if fits(1, &k) {
            let (mut lo, mut hi) = (1i64, n);
            while lo < hi {
                let mid = (lo + hi + 1) / 2;
                if fits(mid, &k) {
                    lo = mid;
                } else {
                    hi = mid - 1;
                }
            }
            k[j] = lo;
            break;
        }
        // Even K = 1 does not fit: pin this level to 1 and descend.
        k[j] = 1;
    }

    let solution = Solution { k, r };
    let schedule = build_schedule(component, &solution, platform, exec_model).ok()?;
    let result = evaluate(&schedule);
    let telemetry = SearchTelemetry::single(solution.r.clone(), result.makespan_ns);
    Some(OptimizeOutcome {
        solution,
        result,
        telemetry,
    })
}

/// The ideal single-core baseline (§6.2): unlimited SPM, zero-cost memory
/// phases, no tiling — the pure execution time of the original program.
pub fn ideal_makespan<C: CostProvider>(tree: &LoopTree, cost: &C) -> f64 {
    let mut total = 0.0f64;
    // Per-statement instance cost.
    for poly in &tree.stmts {
        let instances: u64 = poly.tightened_bounds().iter().map(|b| b.len()).product();
        total += instances as f64 * cost.stmt_instance_ns(poly.id);
    }
    // Per-loop iteration overhead: total iterations of each loop = I × N.
    fn walk(nodes: &[LoopTreeNode], acc: &mut f64) {
        for n in nodes {
            *acc += (n.exec_count as f64) * (n.count as f64);
            walk(&n.children, acc);
        }
    }
    let mut iters = 0.0;
    walk(&tree.roots, &mut iters);
    total + iters * cost.loop_iter_ns()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::AnalyticCost;
    use prem_ir::{AssignKind, ElemType, Expr, IdxExpr, ProgramBuilder};

    /// A simple 2-level parallel kernel: y[i][j] += x[i][j] * 2.
    fn simple_kernel(n: i64, m: i64) -> Program {
        let mut b = ProgramBuilder::new("simple");
        let x = b.array("x", vec![n, m], ElemType::F32);
        let y = b.array("y", vec![n, m], ElemType::F32);
        let i = b.begin_loop("i", 0, 1, n);
        let j = b.begin_loop("j", 0, 1, m);
        b.stmt(
            y,
            vec![IdxExpr::var(i), IdxExpr::var(j)],
            AssignKind::AddAssign,
            Expr::mul(
                Expr::load(x, vec![IdxExpr::var(i), IdxExpr::var(j)]),
                Expr::Const(2.0),
            ),
        );
        b.end_loop();
        b.end_loop();
        b.finish()
    }

    #[test]
    fn app_optimizer_finds_feasible_parallel_solution() {
        let program = simple_kernel(256, 256);
        let tree = LoopTree::build(&program).unwrap();
        let cost = AnalyticCost::new(&program);
        let platform = Platform::default();
        let out = optimize_app(
            &tree,
            &program,
            &platform,
            &cost,
            &OptimizerOptions::default(),
        );
        assert_eq!(out.components.len(), 1);
        let c = &out.components[0];
        assert!(out.makespan_ns.is_finite());
        // Should use several cores: i and j are parallel.
        assert!(c.solution.threads() > 1, "solution {}", c.solution);
        // Speedup over single core must be substantial at default bus speed.
        let single = Platform::default().with_cores(1);
        let out1 = optimize_app(
            &tree,
            &program,
            &single,
            &cost,
            &OptimizerOptions::default(),
        );
        assert!(
            out.makespan_ns < out1.makespan_ns / 3.0,
            "8-core {} vs 1-core {}",
            out.makespan_ns,
            out1.makespan_ns
        );
    }

    #[test]
    fn heuristic_beats_or_matches_greedy() {
        let program = simple_kernel(128, 512);
        let tree = LoopTree::build(&program).unwrap();
        let cost = AnalyticCost::new(&program);
        // Slow bus: memory-bound regime where greedy suffers.
        let platform = Platform::default().with_bus_gbytes(1.0 / 32.0);
        let ours = optimize_app(
            &tree,
            &program,
            &platform,
            &cost,
            &OptimizerOptions::default(),
        );
        let greedy = optimize_app_greedy(&tree, &program, &platform, &cost);
        assert!(ours.makespan_ns.is_finite());
        assert!(greedy.makespan_ns.is_finite());
        // On a reuse-free elementwise kernel both move the same bytes; the
        // heuristic must be within a few percent (it wins decisively only
        // when tiling level choice changes data reuse, cf. §6.3.1).
        assert!(
            ours.makespan_ns <= greedy.makespan_ns * 1.05,
            "ours {} vs greedy {}",
            ours.makespan_ns,
            greedy.makespan_ns
        );
    }

    #[test]
    fn ideal_makespan_scales_with_instances() {
        let program = simple_kernel(64, 64);
        let tree = LoopTree::build(&program).unwrap();
        let cost = AnalyticCost::new(&program);
        let ideal = ideal_makespan(&tree, &cost);
        // 64·64 instances × 5 ns + (64 + 64·64) iterations × 2 ns.
        let expected = 4096.0 * 5.0 + (64.0 + 4096.0) * 2.0;
        assert!((ideal - expected).abs() < 1e-6, "ideal {ideal}");
    }

    #[test]
    fn makespan_at_least_ideal() {
        let program = simple_kernel(128, 128);
        let tree = LoopTree::build(&program).unwrap();
        let cost = AnalyticCost::new(&program);
        let single = Platform::default().with_cores(1);
        let out = optimize_app(
            &tree,
            &program,
            &single,
            &cost,
            &OptimizerOptions::default(),
        );
        let ideal = ideal_makespan(&tree, &cost);
        assert!(out.makespan_ns >= ideal * 0.999);
    }
}
