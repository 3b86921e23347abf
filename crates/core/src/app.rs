//! Application-level optimization — Algorithm 2 of the paper (§4.4) — plus
//! the greedy baseline of Matějka et al. (§6.2) and the ideal single-core
//! baseline.
//!
//! Algorithm 2 decomposes the loop tree into disjoint tilable components by a
//! depth-first walk: a perfect chain of tilable loops extends the current
//! component; at an imperfect node the better of *tile here* (children folded
//! into the leaf) and *recurse into the children* is chosen.
//!
//! The walk always solves the chain at an imperfect node *and* recurses into
//! its children, so the chains it solves depend on the loop tree alone. A call
//! therefore runs in three passes: **enumerate** walks the tree once and
//! extracts every chain's component; **drain** solves them all on one worker
//! pool (each distinct component searched once, every repeat replaying its
//! winner — see [`crate::optimizer`]'s scheduler); **decide** replays the walk's
//! choices over the solved costs.

use crate::component::{collect_statements, Component, ComponentFingerprint};
use crate::config::Platform;
use crate::cost::CostProvider;
use crate::looptree::{LoopTree, LoopTreeNode};
use crate::optimizer::{
    default_budget, descend_assignment, search_targets, OptimizeOutcome, OptimizerOptions,
    SearchEngine, Target,
};
use crate::schedule::{evaluate, ScheduleResult};
use crate::segments::build_schedule;
use crate::tiling::Solution;
use crate::timing::ExecModel;
use prem_ir::Program;
use prem_obs::{PhaseTimings, SearchCounters, SearchTelemetry, Stopwatch};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

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
    /// What the call's search fan-outs did — the `units` they ran and the
    /// `workers_spawned` besides the caller — plus the counters of the
    /// chains searched that Algorithm 2 did not choose, those without a
    /// feasible solution included. Every other count is in the component
    /// reports.
    pub pool: SearchCounters,
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

    /// Aggregated search telemetry across all components plus
    /// [`AppOutcome::pool`]: every count the call's search made (counters
    /// and wall-clock only; per-assignment detail stays in each
    /// [`ComponentReport::telemetry`]).
    pub fn search_totals(&self) -> SearchTelemetry {
        let mut total = SearchTelemetry {
            best_makespan_ns: f64::INFINITY,
            counters: self.pool,
            ..SearchTelemetry::default()
        };
        for c in &self.components {
            total.absorb(&c.telemetry);
        }
        total
    }
}

/// What a search result depends on inside one [`optimize_app`] call, where
/// platform and options are constant: the component's content and the bit
/// patterns of its execution model (`o`, then `w`).
type MemoKey = (ComponentFingerprint, Vec<u64>);

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
/// (`thread_budget`, `component_extraction`, `tiling_search`,
/// `schedule_build`), on a pool of [`default_budget`] threads. Asking the
/// system for that budget reads the process's CPU affinity and cgroup quota,
/// tens of µs per call, so it is a phase of its own. The upstream `analysis`
/// phase (loop-tree construction, dependence analysis) happens before this
/// entry point; time it around [`LoopTree::build`] and merge with
/// [`PhaseTimings::absorb`].
pub fn optimize_app_timed<C: CostProvider>(
    tree: &LoopTree,
    program: &Program,
    platform: &Platform,
    cost: &C,
    opts: &OptimizerOptions,
) -> (AppOutcome, PhaseTimings) {
    let mut clock = Stopwatch::start();
    let budget = default_budget();
    let budget_s = clock.lap();
    let (outcome, mut timings) =
        optimize_app_with_budget(tree, program, platform, cost, opts, budget);
    timings.add("thread_budget", budget_s);
    (outcome, timings)
}

/// [`optimize_app_timed`] on at most `budget` threads, the caller included
/// (`1` spawns none). Every selection, makespan bit and deterministic count
/// is the same for every budget; only `workers_spawned` and the times
/// differ.
pub fn optimize_app_with_budget<C: CostProvider>(
    tree: &LoopTree,
    program: &Program,
    platform: &Platform,
    cost: &C,
    opts: &OptimizerOptions,
    budget: usize,
) -> (AppOutcome, PhaseTimings) {
    run_app(
        tree,
        program,
        cost,
        opts.reductions,
        |components, timings| {
            search_chains(components, cost, platform, opts, budget.max(1), timings)
        },
    )
}

/// Algorithm 2 with the greedy baseline component selection (§6.2).
pub fn optimize_app_greedy<C: CostProvider>(
    tree: &LoopTree,
    program: &Program,
    platform: &Platform,
    cost: &C,
) -> AppOutcome {
    let greedy = |components: &[Component], timings: &mut PhaseTimings| {
        let mut clock = Stopwatch::start();
        let solved = components
            .iter()
            .map(|c| greedy_component(c, platform, &cost.exec_model(c)))
            .collect();
        timings.add("tiling_search", clock.lap());
        (solved, SearchCounters::default())
    };
    run_app(tree, program, cost, false, greedy).0
}

/// One choice of Algorithm 2, over chains numbered in the order its walk
/// solves them.
enum Step {
    /// The chain is the only option: a leaf, or a chain ending above a
    /// non-tilable level that folds in with everything below it.
    Solve(usize),
    /// Tile the chain here, or recurse into the children — whichever is
    /// cheaper. `own_ns` is the sequential cost of the statements directly
    /// in the node's body, paid outside the children's components.
    Choose {
        chain: usize,
        children: Vec<Step>,
        own_ns: f64,
    },
}

/// Enumerate → drain → decide. `solve` answers every enumerated component
/// (`None` for an infeasible one) and returns the pool's counts.
fn run_app<C: CostProvider>(
    tree: &LoopTree,
    program: &Program,
    cost: &C,
    reductions: bool,
    solve: impl FnOnce(
        &[Component],
        &mut PhaseTimings,
    ) -> (Vec<Option<OptimizeOutcome>>, SearchCounters),
) -> (AppOutcome, PhaseTimings) {
    let mut timings = PhaseTimings::new();
    let mut clock = Stopwatch::start();
    let mut chains = Vec::new();
    let steps: Vec<Step> = tree
        .roots
        .iter()
        .map(|root| enumerate(tree, root, Vec::new(), &mut chains, cost))
        .collect();
    let statements = collect_statements(program);
    let components: Vec<Component> = chains
        .iter()
        .map(|chain| {
            let mut component = Component::extract_with(tree, program, chain, &statements);
            // Privatized accumulators change what the search sees.
            if reductions {
                component.privatize_reductions();
            }
            component
        })
        .collect();
    timings.add("component_extraction", clock.lap());

    let (solved, mut pool) = solve(&components, &mut timings);

    let costs: Vec<f64> = components
        .iter()
        .zip(&solved)
        .map(|(c, o)| {
            o.as_ref().map_or(f64::INFINITY, |o| {
                o.result.makespan_ns * c.exec_count as f64
            })
        })
        .collect();
    let mut chosen = Vec::new();
    let mut makespan = 0.0f64;
    for step in &steps {
        makespan += decide(step, &costs, &mut chosen);
    }
    // Statements outside any loop execute once each on one core.
    for &sid in &tree.root_stmts {
        makespan += cost.stmt_instance_ns(sid);
    }
    // The walk reports chosen chains in the order it solved them.
    debug_assert!(chosen.windows(2).all(|w| w[0] < w[1]));
    let mut keep = vec![false; components.len()];
    for c in chosen {
        keep[c] = true;
    }
    let mut reports = Vec::new();
    for ((component, outcome), keep) in components.into_iter().zip(solved).zip(keep) {
        match outcome {
            Some(outcome) if keep => reports.push(report(component, outcome)),
            // A chain the walk did not choose was still searched.
            Some(outcome) => pool.add(&outcome.telemetry.counters),
            None => {}
        }
    }
    (
        AppOutcome {
            makespan_ns: makespan,
            components: reports,
            pool,
        },
        timings,
    )
}

/// The report of a chosen component, with its reduction counts.
fn report(component: Component, mut outcome: OptimizeOutcome) -> ComponentReport {
    let counters = &mut outcome.telemetry.counters;
    counters.reduction_deps = component
        .deps
        .iter()
        .filter(|d| d.reduction.is_some())
        .count();
    counters.privatized_accumulators = component
        .arrays
        .iter()
        .filter(|a| a.privatized.is_some())
        .count();
    ComponentReport {
        level_names: component.levels.iter().map(|l| l.name.clone()).collect(),
        solution: outcome.solution,
        result: outcome.result,
        exec_count: component.exec_count,
        telemetry: outcome.telemetry,
        component,
    }
}

/// `extract_component` of Algorithm 2, without the solving: appends every
/// chain the walk below `node` solves to `chains`, in the order it solves
/// them, and returns the choices between them.
fn enumerate<'t, C: CostProvider>(
    tree: &LoopTree,
    node: &'t LoopTreeNode,
    mut chain: Vec<&'t LoopTreeNode>,
    chains: &mut Vec<Vec<&'t LoopTreeNode>>,
    cost: &C,
) -> Step {
    // A non-tilable node never joins a chain as a tiled level — but a chain
    // must contain at least one level, so a non-tilable head still forms a
    // single-level component restricted to K = N.
    let extendable = node.tilable || chain.is_empty();
    if extendable {
        chain.push(node);
        if !node.children.is_empty() && node.perfectly_nests() {
            // Perfect nest onto a single child: extend the chain (Algorithm
            // 2 lines 12–13); a non-tilable child folds in the call below.
            return enumerate(tree, &node.children[0], chain, chains, cost);
        }
    }
    let index = chains.len();
    chains.push(chain);
    if !extendable || node.children.is_empty() {
        // A leaf, or a non-tilable level mid-chain folded into the leaf
        // together with everything below it (§3.3): the component is the
        // chain built so far and there is no alternative decomposition.
        return Step::Solve(index);
    }
    // Leaf of the chain walk: tile the chain here (the children are folded
    // into the leaf) or recurse into the children.
    Step::Choose {
        chain: index,
        children: node
            .children
            .iter()
            .map(|child| enumerate(tree, child, Vec::new(), chains, cost))
            .collect(),
        own_ns: own_stmt_cost(tree, node, cost),
    }
}

/// The cost of `step` over the solved chain costs; appends the chains it
/// chooses to `chosen`.
fn decide(step: &Step, costs: &[f64], chosen: &mut Vec<usize>) -> f64 {
    match *step {
        Step::Solve(chain) => {
            chosen.push(chain);
            costs[chain]
        }
        Step::Choose {
            chain,
            ref children,
            own_ns,
        } => {
            let mut child_branch = Vec::new();
            let mut total = 0.0f64;
            for child in children {
                total += decide(child, costs, &mut child_branch);
            }
            // Statements directly in this node's body execute I × span
            // times. They are covered by the parent option's leaf; for the
            // children option they run outside the child components.
            total += own_ns;
            if costs[chain] <= total {
                chosen.push(chain);
                costs[chain]
            } else {
                chosen.append(&mut child_branch);
                total
            }
        }
    }
}

/// The drain pass of [`optimize_app_with_budget`]. Components are keyed by
/// [`MemoKey`]; the first of each key is searched, and every later one
/// replays that winner: the schedule is still materialized and evaluated
/// for the later component, and only a makespan equal bit for bit to the
/// winner's is accepted. Searches, winner builds and replays all run in
/// fan-outs of at most `budget` threads ([`search_targets`]).
fn search_chains<C: CostProvider>(
    components: &[Component],
    cost: &C,
    platform: &Platform,
    opts: &OptimizerOptions,
    budget: usize,
    timings: &mut PhaseTimings,
) -> (Vec<Option<OptimizeOutcome>>, SearchCounters) {
    /// How a chain is answered: by target or by replay index.
    enum Role {
        Searched(usize),
        Replay(usize),
    }
    let mut clock = Stopwatch::start();
    let models: Vec<ExecModel> = components.iter().map(|c| cost.exec_model(c)).collect();
    let mut first: HashMap<MemoKey, usize> = HashMap::new();
    let (mut targets, mut replays, mut roles) = (Vec::new(), Vec::new(), Vec::new());
    for (component, exec_model) in components.iter().zip(&models) {
        let bits = exec_model
            .o
            .iter()
            .chain([&exec_model.w])
            .map(|v| v.to_bits());
        let target = Target {
            component,
            exec_model,
        };
        match first.entry((component.fingerprint(), bits.collect())) {
            Entry::Vacant(slot) => {
                roles.push(Role::Searched(targets.len()));
                slot.insert(targets.len());
                targets.push(target);
            }
            Entry::Occupied(slot) => {
                roles.push(Role::Replay(replays.len()));
                replays.push((*slot.get(), target));
            }
        }
    }
    let solved = search_targets(&targets, &replays, platform, budget, |c, r, i, ev| {
        descend_assignment(c, opts, r, i, ev)
    });
    timings.add("schedule_build", solved.build_s);
    timings.add("tiling_search", (clock.lap() - solved.build_s).max(0.0));

    let winners: Vec<Option<(Solution, u64)>> = solved
        .outcomes
        .iter()
        .map(|o| {
            let o = o.as_ref()?;
            Some((o.solution.clone(), o.result.makespan_ns.to_bits()))
        })
        .collect();
    let (mut outcomes, mut replayed) = (solved.outcomes, solved.replays);
    let search = |target: Target<'_>| {
        SearchEngine::new(target.component, platform, target.exec_model)
            .with_threads(budget)
            .descend(opts)
    };
    #[cfg(debug_assertions)]
    let mut hits = 0usize;
    let answers = roles
        .into_iter()
        .map(|role| {
            let i = match role {
                Role::Searched(t) => return outcomes[t].take(),
                Role::Replay(i) => i,
            };
            let (t, target) = replays[i];
            let answer = match (&winners[t], replayed[i].take()) {
                (None, _) => None,
                (Some((solution, bits)), Some((result, build_s)))
                    if result.makespan_ns.to_bits() == *bits =>
                {
                    let mut telemetry = SearchTelemetry::replayed(result.makespan_ns);
                    telemetry.schedule_build_s = build_s;
                    Some(OptimizeOutcome {
                        solution: solution.clone(),
                        result,
                        telemetry,
                    })
                }
                (Some(_), _) => {
                    // The fingerprint missed something the oracle reads:
                    // answer with a real search and leave a count behind.
                    let mut searched = search(target);
                    if let Some(o) = &mut searched {
                        o.telemetry.counters.replay_mismatches += 1;
                    }
                    return searched;
                }
            };
            #[cfg(debug_assertions)]
            {
                // Sampled re-search (the tier-1 suites run in debug): an
                // incomplete fingerprint fails here, not in production.
                hits += 1;
                if hits % 16 == 1 {
                    let pick =
                        |o: &OptimizeOutcome| (o.solution.clone(), o.result.makespan_ns.to_bits());
                    debug_assert_eq!(
                        answer.as_ref().map(pick),
                        search(target).as_ref().map(pick),
                        "replayed winner differs from a fresh search"
                    );
                }
            }
            answer
        })
        .collect();
    timings.add("tiling_search", clock.lap());
    (answers, solved.counters)
}

/// Sequential cost of statements living directly in `node`'s body when the
/// children-components option is chosen.
fn own_stmt_cost<C: CostProvider>(tree: &LoopTree, node: &LoopTreeNode, cost: &C) -> f64 {
    if node.own_stmts.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for &sid in &node.own_stmts {
        let poly = &tree.stmts[sid];
        let instances: u64 = poly.tightened_bounds().iter().map(|b| b.len()).product();
        total += instances as f64 * cost.stmt_instance_ns(sid);
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
