//! Search-telemetry invariants across the whole PolyBench-NN suite (small
//! sizes): every kernel's optimization reports eval/cache counters and a
//! per-sweep convergence curve, and observing them does not change the
//! chosen solutions.

use prem::core::{
    build_schedule, evaluate, nondominated_thread_groups, optimize_app, optimize_app_timed,
    select_tile_sizes, Component, CoordinateDelta, CostProvider, LoopTree, MakespanEvaluator,
    OptimizerOptions, Platform, Solution,
};
use prem::sim::SimCost;

#[test]
fn telemetry_covers_every_polybench_kernel() {
    for (name, program) in prem::kernels::all_small() {
        let tree = LoopTree::build(&program).expect("kernels lower");
        let cost = SimCost::new(&program);
        let platform = Platform::default();
        let (out, phases) = optimize_app_timed(
            &tree,
            &program,
            &platform,
            &cost,
            &OptimizerOptions::default(),
        );

        let totals = out.search_totals();
        assert!(totals.counters.evals > 0, "{name}: no evaluations recorded");
        assert_eq!(
            totals.lookups(),
            totals.counters.evals + totals.counters.cache_hits,
            "{name}: lookups must partition into evals + cache hits"
        );
        let rate = totals.cache_hit_rate();
        assert!((0.0..=1.0).contains(&rate), "{name}: hit rate {rate}");

        for c in &out.components {
            let t = &c.telemetry;
            assert_eq!(
                t.counters.evals + t.counters.cache_hits,
                t.assignments
                    .iter()
                    .map(|a| a.counters.evals + a.counters.cache_hits)
                    .sum(),
                "{name}: component counters must sum over assignments"
            );
            let curve = t.convergence();
            assert!(!curve.is_empty(), "{name}: empty convergence curve");
            for w in curve.windows(2) {
                assert!(
                    w[1] <= w[0],
                    "{name}: convergence must be monotone non-increasing"
                );
            }
            let last = *curve.last().unwrap();
            assert_eq!(
                last, t.best_makespan_ns,
                "{name}: curve must end at the best makespan"
            );
        }

        // Pipeline phases are all present and non-negative.
        for phase in ["component_extraction", "tiling_search", "schedule_build"] {
            let s = phases.get(phase).unwrap_or_else(|| {
                panic!("{name}: missing phase {phase}");
            });
            assert!(s >= 0.0, "{name}: negative {phase} time");
        }

        // Telemetry is pure observation: a second run picks identical
        // solutions and records identical counters.
        let (again, _) = optimize_app_timed(
            &tree,
            &program,
            &platform,
            &cost,
            &OptimizerOptions::default(),
        );
        assert_eq!(
            out.makespan_ns, again.makespan_ns,
            "{name}: unstable result"
        );
        for (a, b) in out.components.iter().zip(&again.components) {
            assert_eq!(a.solution, b.solution, "{name}: unstable solution");
            assert_eq!(
                a.telemetry.counters.evals, b.telemetry.counters.evals,
                "{name}: unstable eval count"
            );
        }
    }
}

/// Every array of the conv nest (thesis Listing 6.1) is shift-only, so the
/// lanes serve every scan of its components: no context is declined. A
/// silent fallback to the reference build fails here instead of only
/// slowing the search down.
#[test]
fn conv_rebuilds_are_answered_by_class() {
    let program = prem::kernels::CnnConfig::small().build();
    let tree = LoopTree::build(&program).expect("kernels lower");
    let cost = SimCost::new(&program);
    let platform = Platform::default();
    let out = optimize_app(
        &tree,
        &program,
        &platform,
        &cost,
        &OptimizerOptions::default(),
    );
    let totals = out.search_totals().counters;
    assert!(totals.incremental_rebuilds > 0);
    assert_eq!(totals.delta_declines, 0);

    // Scans around each winner: every analysis is an incremental rebuild.
    for c in &out.components {
        let model = cost.exec_model(&c.component);
        let mut ev = MakespanEvaluator::new(&c.component, &platform, &model);
        for j in 0..c.component.depth() {
            ev.begin_coordinate(&c.solution, j);
            ev.scan_landscape(&select_tile_sizes(&c.component, j, c.solution.r[j]));
        }
        let n = ev.counters;
        assert!(n.incremental_rebuilds > 0 && n.tiles_walked > 0);
        assert_eq!(n.delta_declines, 0, "a conv scan left the lanes");
    }
}

/// Scans every coordinate of `base` on `platform` through one evaluator and
/// returns its counters.
fn scan_every_coordinate(
    component: &Component,
    base: &Solution,
    platform: &Platform,
    cost: &SimCost,
) -> prem::obs::SearchCounters {
    let model = cost.exec_model(component);
    let mut ev = MakespanEvaluator::new(component, platform, &model);
    for j in 0..component.depth() {
        ev.begin_coordinate(base, j);
        ev.scan_landscape(&select_tile_sizes(component, j, base.r[j]));
    }
    ev.counters
}

/// Cores whose tile boxes are translates share one walked analysis, and the
/// ledger books their segments: a conv scan under a multi-core thread-group
/// assignment answers some segments — never all, core 0 is always walked —
/// from a repeat core's copy, while a context with a guarded store is
/// declined: the reference build walks every core, books no shared segment
/// and answers every candidate with the oracle's value.
#[test]
fn repeat_cores_are_booked_as_shared() {
    let platform = Platform::default();
    let program = prem::kernels::CnnConfig::small().build();
    let tree = LoopTree::build(&program).expect("kernels lower");
    let cost = SimCost::new(&program);
    let out = optimize_app(
        &tree,
        &program,
        &platform,
        &cost,
        &OptimizerOptions::default(),
    );
    for c in &out.components {
        let r = nondominated_thread_groups(&c.component, platform.cores)
            .into_iter()
            .max_by_key(|r| r.iter().product::<i64>())
            .expect("an assignment");
        assert!(r.iter().product::<i64>() > 1, "a multi-core assignment");
        let base = Solution {
            k: c.solution.k.clone(),
            r,
        };
        let n = scan_every_coordinate(&c.component, &base, &platform, &cost);
        assert!(
            0 < n.segments_shared && n.segments_shared < n.tiles_walked,
            "{} of {}",
            n.segments_shared,
            n.tiles_walked
        );
    }

    let program = prem::frontend::parse_kernel(
        "guarded",
        "float a[16][8]; float g[16];
         for (int i = 0; i < 16; i++)
           for (int k = 0; k < 8; k++) {
             if (k == 0) g[i] = 1.0;
             a[i][k] = 2.0;
           }",
        &[],
    )
    .expect("kernel parses");
    let tree = LoopTree::build(&program).expect("kernel lowers");
    let cost = SimCost::new(&program);
    let out = optimize_app(
        &tree,
        &program,
        &platform,
        &cost,
        &OptimizerOptions::default(),
    );
    let c = &out.components[0];
    let base = Solution {
        k: c.solution.k.clone(),
        r: vec![8, 1],
    };
    let comp = &c.component;
    let model = cost.exec_model(comp);
    let mut ev = MakespanEvaluator::new(comp, &platform, &model);
    for j in 0..comp.depth() {
        assert!(CoordinateDelta::new(comp, &base, j, platform.cores).is_none());
        let cands = select_tile_sizes(comp, j, base.r[j]);
        ev.begin_coordinate(&base, j);
        let values = ev.scan_landscape(&cands);
        for (&kj, &v) in cands.iter().zip(&values) {
            let mut sol = base.clone();
            sol.k[j] = kj;
            let oracle = build_schedule(comp, &sol, &platform, &model)
                .map_or(f64::INFINITY, |s| evaluate(&s).makespan_ns);
            assert_eq!(v.to_bits(), oracle.to_bits(), "{sol}");
        }
    }
    let n = ev.counters;
    assert_eq!(n.delta_declines, comp.depth());
    assert_eq!(n.incremental_rebuilds, 0);
    assert!(n.tiles_walked > 0);
    assert_eq!(n.segments_shared, 0, "the reference walks every core");
}

/// The totals count every search the call made, also the search of a chain
/// Algorithm 2 did not choose. With one row, tiling at `i` runs both `j`
/// nests on one core, so the two `j` components win, and the parent chain's
/// search is in no component report.
#[test]
fn totals_count_the_chains_algorithm_2_did_not_choose() {
    let source = "double a[1][2048]; double b[1][2048]; \
                  for (int i = 0; i < 1; i++) { \
                  for (int j = 0; j < 2048; j++) \
                  a[i][j] = a[i][j] * a[i][j] * a[i][j] * a[i][j] + a[i][j]; \
                  for (int j = 0; j < 2048; j++) \
                  b[i][j] = a[i][j] * a[i][j] * a[i][j] * a[i][j] + b[i][j]; }";
    let program = prem::frontend::parse_kernel("rows", source, &[]).expect("parses");
    let tree = LoopTree::build(&program).expect("lowers");
    let cost = SimCost::new(&program);
    let out = optimize_app(
        &tree,
        &program,
        &Platform::default(),
        &cost,
        &OptimizerOptions::default(),
    );
    assert_eq!(out.components.len(), 2, "the children should win");
    assert!(out.components.iter().all(|c| c.level_names == ["j"]));
    let reported: usize = out.components.iter().map(|c| c.evals()).sum();
    assert!(
        out.search_totals().counters.evals > reported,
        "the parent chain's evaluations are missing from the totals"
    );
}

/// The totals count the search of a chain with no feasible solution. On a
/// 24 KiB scratchpad the parent chain's tiles at `i` cannot hold both `j`
/// nests' rows, so only the two `j` components are reported, and the
/// parent's evaluations are in the pool. On a 4 B scratchpad no chain is
/// feasible, and the pool holds every evaluation.
#[test]
fn totals_count_the_chains_without_a_feasible_solution() {
    let source = "double a[4][2048]; double b[4][2048]; \
                  for (int i = 0; i < 4; i++) { \
                  for (int j = 0; j < 2048; j++) \
                  a[i][j] = a[i][j] * a[i][j] * a[i][j] * a[i][j] + a[i][j]; \
                  for (int j = 0; j < 2048; j++) \
                  b[i][j] = a[i][j] * a[i][j] * a[i][j] * a[i][j] + b[i][j]; }";
    let program = prem::frontend::parse_kernel("rows", source, &[]).expect("parses");
    let tree = LoopTree::build(&program).expect("lowers");
    let cost = SimCost::new(&program);
    let out = optimize_app(
        &tree,
        &program,
        &Platform::default().with_spm_bytes(24 * 1024),
        &cost,
        &OptimizerOptions::default(),
    );
    assert!(out.makespan_ns.is_finite());
    assert!(out.components.iter().all(|c| c.level_names == ["j"]));
    let reported: usize = out.components.iter().map(|c| c.evals()).sum();
    assert!(
        out.search_totals().counters.evals > reported,
        "the infeasible parent chain's evaluations are missing from the totals"
    );

    // With no feasible chain at all, the totals still count the searches.
    let out = optimize_app(
        &tree,
        &program,
        &Platform::default().with_spm_bytes(4),
        &cost,
        &OptimizerOptions::default(),
    );
    assert!(out.makespan_ns.is_infinite() && out.components.is_empty());
    assert!(out.search_totals().counters.evals > 0);
}
