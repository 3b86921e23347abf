//! Tiling-component schedule optimization — Algorithm 1 of the paper (§4.3).
//!
//! For a tilable component, the heuristic enumerates the non-dominated
//! thread-group assignments, derives the load-balanced candidate tile sizes
//! per level (`select_tile_sizes`), and runs a coordinate-descent search
//! (`max_iter` sweeps) that exploits the empirical convexity of the makespan
//! in each tile size. An exhaustive optimizer is provided for validation on
//! small components.

use crate::analysis::{
    shift_classes, BoundTerms, ComponentAnalysis, CoordinateDelta, MakespanScratch, RowScratch,
    ShiftClasses,
};
use crate::component::Component;
use crate::config::Platform;
use crate::schedule::{evaluate, ScheduleResult};
use crate::scheduler::fan_out;
use crate::segments::build_schedule;
use crate::tiling::{Infeasible, Solution};
use crate::timing::ExecModel;
use prem_obs::{AssignmentTelemetry, SearchCounters, SearchTelemetry};
use prem_polyhedral::div_ceil;
use std::cell::RefCell;
use std::collections::HashMap;
use std::time::Instant;

/// Options controlling the heuristic search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptimizerOptions {
    /// Coordinate-descent sweeps (`max_iter`, the paper uses 3). A ceiling:
    /// the descent stops earlier at a fixpoint, where further sweeps would
    /// change nothing.
    pub max_iter: usize,
    /// Seed of the deterministic RNG picking the initial solution.
    pub seed: u64,
    /// Use golden-section-style convex search inside `find_minimum` instead
    /// of a full scan (the paper's convexity assumption).
    pub convex_search: bool,
    /// Reduction-aware legality: privatize accumulators so that levels whose
    /// only blocking dependences are associative-commutative reduction
    /// chains (`+=`, `max=`, `min=`) may run on multiple thread groups, at
    /// the cost of per-group accumulator copies in SPM and an explicit
    /// combine phase merging the partials. Off by default — selections and
    /// makespans are bitwise identical to the reduction-oblivious path
    /// (`PREM_REDUCTIONS=1` enables it in the benches).
    pub reductions: bool,
}

impl Default for OptimizerOptions {
    fn default() -> Self {
        OptimizerOptions {
            max_iter: 3,
            seed: 0x5eed,
            convex_search: true,
            reductions: false,
        }
    }
}

/// Outcome of optimizing one component.
#[derive(Debug, Clone)]
pub struct OptimizeOutcome {
    /// Best solution found.
    pub solution: Solution,
    /// Schedule evaluation of the best solution (one component execution).
    pub result: ScheduleResult,
    /// Structured search telemetry: per-assignment eval counts, memo-cache
    /// hit rates, tier-level counters and per-sweep convergence (see
    /// [`SearchTelemetry`]).
    pub telemetry: SearchTelemetry,
}

impl OptimizeOutcome {
    /// Number of makespan evaluations performed — derived from the
    /// telemetry so the two can never diverge.
    pub fn evals(&self) -> usize {
        self.telemetry.counters.evals
    }
}

/// All valid, non-dominated thread-group assignments for a component on `p`
/// cores (§4.3). Assignment `r'` dominates `r` if `r'_j ≥ r_j` everywhere;
/// dominated assignments never need to be checked.
///
/// Privatized reduction levels are the exception to the paper's rule: extra
/// thread groups there are *not* free — each split multiplies the combine
/// rounds the schedule must pay — so domination additionally requires the
/// two assignments to agree on every reduction-parallel level. Without
/// privatization those levels are sequential (`r_j = 1` in every candidate)
/// and the filter reduces bitwise to the paper's.
pub fn nondominated_thread_groups(component: &Component, p: usize) -> Vec<Vec<i64>> {
    let depth = component.depth();
    let mut all: Vec<Vec<i64>> = Vec::new();
    let mut cur = vec![1i64; depth];
    fn rec(
        component: &Component,
        p: i64,
        j: usize,
        used: i64,
        cur: &mut Vec<i64>,
        all: &mut Vec<Vec<i64>>,
    ) {
        if j == component.depth() {
            all.push(cur.clone());
            return;
        }
        let lv = &component.levels[j];
        let max_r = if lv.parallel {
            (p / used).min(lv.count).max(1)
        } else {
            1
        };
        for r in 1..=max_r {
            cur[j] = r;
            rec(component, p, j + 1, used * r, cur, all);
        }
        cur[j] = 1;
    }
    rec(component, p as i64, 0, 1, &mut cur, &mut all);
    // Keep only non-dominated assignments.
    let mut keep = Vec::new();
    'outer: for (i, r) in all.iter().enumerate() {
        for (i2, r2) in all.iter().enumerate() {
            if i2 != i
                && r2.iter().zip(r).all(|(a, b)| a >= b)
                && r2.iter().zip(r).any(|(a, b)| a > b)
                && component
                    .levels
                    .iter()
                    .zip(r2.iter().zip(r))
                    .all(|(lv, (a, b))| !lv.reduction_parallel || a == b)
            {
                continue 'outer;
            }
        }
        keep.push(r.clone());
    }
    keep
}

/// Candidate tile sizes for level `j` under `r` thread groups
/// (`select_tile_sizes`, Algorithm 1): the smallest `K` for every achievable
/// number `Z` of iteration ranges per thread group. Non-tilable levels get
/// the single candidate `K = N`.
pub fn select_tile_sizes(component: &Component, j: usize, r: i64) -> Vec<i64> {
    let lv = &component.levels[j];
    if !lv.tilable {
        return vec![lv.count];
    }
    let n = lv.count;
    let mut out = Vec::new();
    let mut prev_z = i64::MAX;
    for k in 1..=n {
        let m = div_ceil(n, k);
        let z = div_ceil(m, r);
        if z < prev_z {
            out.push(k);
            prev_z = z;
        }
    }
    out
}

/// Debug builds hold every `DIFFERENTIAL_STRIDE`-th evaluation (and the
/// first two) of an evaluator to the oracle.
#[cfg(debug_assertions)]
const DIFFERENTIAL_STRIDE: usize = 1021;

/// Debug builds hold every `REBUILD_CHECK_STRIDE`-th incremental rebuild
/// (and the first) of an evaluator to the from-scratch build.
#[cfg(debug_assertions)]
const REBUILD_CHECK_STRIDE: usize = 257;

/// A memoizing makespan evaluator for one component — the one code path
/// that computes a candidate's makespan during the search: memo → analytic
/// SPM pre-gate → [`CoordinateDelta::rebuild_scan`] over the misses of the
/// stretch → the scalar [`ComponentAnalysis::makespan_only`] fold. Outside an
/// active coordinate scan the analysis comes from
/// [`ComponentAnalysis::build`]. [`MakespanEvaluator::scan_bound`] answers
/// the cheaper question the scans ask first — how good could a candidate
/// at best be — from [`crate::makespan_lower_bound`]'s terms. The bound and
/// the lane walk read one shift-only classification of the component, made
/// once per evaluator.
///
/// The materializing tier (`build_schedule` + `evaluate`) is the oracle: it
/// builds the search winner (a unit of the search's second fan-out) and, in
/// debug builds, runs through [`MakespanEvaluator::full`] as a sampled
/// differential check of the values returned here.
pub struct MakespanEvaluator<'a> {
    component: &'a Component,
    platform: &'a Platform,
    exec_model: &'a ExecModel,
    cache: HashMap<Solution, f64>,
    scratch: MakespanScratch,
    row_scratch: RowScratch,
    /// Active single-coordinate scan, if any (see
    /// [`MakespanEvaluator::begin_coordinate`]).
    coordinate: Option<CoordinateScan>,
    /// The component's shift-only classification, made on the first bound
    /// or delta context that needs it.
    shifts: Option<ShiftClasses<'a>>,
    /// The `K`-independent bound terms, classified on the first
    /// [`MakespanEvaluator::scan_bound`]: they depend on neither the scan's
    /// base nor its coordinate, so every scan shares them.
    bound_terms: Option<BoundTerms>,
    #[cfg(debug_assertions)]
    rebuild_checks: usize,
    /// What this evaluator did, and what the assignment driver using it did
    /// (sweeps, skipped scans, pruned candidates).
    pub counters: SearchCounters,
}

/// Nanoseconds elapsed since `clock`.
pub(crate) fn elapsed_ns(clock: Instant) -> u64 {
    u64::try_from(clock.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One single-coordinate scan: solutions equal to `base` except at
/// coordinate `j` are analyzed incrementally. The delta context is built
/// lazily on the first actual analysis construction — a scan whose every
/// probe hits the memo never pays for it.
struct CoordinateScan {
    base: Solution,
    j: usize,
    /// `None` — not yet attempted; `Some(None)` — construction declined
    /// (a context the lane walk cannot hold), from-scratch builds for this
    /// scan.
    delta: Option<Option<CoordinateDelta>>,
}

impl CoordinateScan {
    fn covers(&self, solution: &Solution) -> bool {
        solution.r == self.base.r
            && solution.k.len() == self.base.k.len()
            && solution
                .k
                .iter()
                .zip(&self.base.k)
                .enumerate()
                .all(|(i, (a, b))| i == self.j || a == b)
    }
}

impl<'a> MakespanEvaluator<'a> {
    /// Creates an evaluator.
    pub fn new(
        component: &'a Component,
        platform: &'a Platform,
        exec_model: &'a ExecModel,
    ) -> Self {
        MakespanEvaluator {
            component,
            platform,
            exec_model,
            cache: HashMap::new(),
            scratch: MakespanScratch::default(),
            row_scratch: RowScratch::default(),
            coordinate: None,
            shifts: None,
            bound_terms: None,
            #[cfg(debug_assertions)]
            rebuild_checks: 0,
            counters: SearchCounters::default(),
        }
    }

    /// Declares that until [`MakespanEvaluator::end_coordinate`], queried
    /// solutions differ from `base` only at coordinate `j` — the evaluator
    /// then serves their analyses from one [`CoordinateDelta`] context.
    /// `base.k[j]` itself is irrelevant. Solutions outside the scan shape
    /// are still handled correctly (from-scratch build); a new
    /// `begin_coordinate` replaces any active scan.
    pub fn begin_coordinate(&mut self, base: &Solution, j: usize) {
        self.coordinate = Some(CoordinateScan {
            base: base.clone(),
            j,
            delta: None,
        });
    }

    /// Ends the active single-coordinate scan, if any.
    pub fn end_coordinate(&mut self) {
        self.coordinate = None;
    }

    /// Makespan of a solution in ns (`+∞` when infeasible).
    pub fn makespan(&mut self, solution: &Solution) -> f64 {
        // A probe inside the active scan is a stretch of one.
        if let Some(scan) = self.coordinate.as_ref().filter(|s| s.covers(solution)) {
            let kj = solution.k[scan.j];
            return self.scan_landscape(&[kj])[0];
        }
        if let Some(v) = self.lookup(solution) {
            return v;
        }
        let clock = Instant::now();
        let built = self.build_from_scratch(solution);
        self.counters.walk_ns += elapsed_ns(clock);
        self.note_walk(std::slice::from_ref(&built));
        self.settle(solution, built)
    }

    /// Books the segments of one stretch of analysis builds.
    fn note_walk(&mut self, built: &[Result<ComponentAnalysis, Infeasible>]) {
        self.counters.tiles_walked += built
            .iter()
            .flatten()
            .map(ComponentAnalysis::segments)
            .sum::<usize>();
    }

    /// A lower bound on the makespan of the active scan's base solution with
    /// coordinate `j` set to `kj`, for deciding whether the candidate needs
    /// evaluating at all: the exact value on a memo hit, `+∞` from the SPM
    /// pre-gate, else [`crate::makespan_lower_bound`] from the evaluator's
    /// `BoundTerms` (bitwise the same value). Nothing is memoized — a
    /// candidate skipped on its bound never becomes a value.
    ///
    /// # Panics
    ///
    /// Panics when called outside a
    /// [`MakespanEvaluator::begin_coordinate`] scan.
    pub fn scan_bound(&mut self, kj: i64) -> f64 {
        let scan = self
            .coordinate
            .as_mut()
            .expect("scan_bound needs an active begin_coordinate scan");
        // `base.k[j]` is irrelevant to the scan, so it doubles as the probe.
        scan.base.k[scan.j] = kj;
        let probe = &scan.base;
        if let Some(&v) = self.cache.get(probe) {
            return v;
        }
        if crate::tiling::spm_bytes_for(self.component, &probe.k) > self.platform.spm_bytes {
            return f64::INFINITY;
        }
        let clock = Instant::now();
        let component = self.component;
        let terms = self.bound_terms.get_or_insert_with(|| {
            let shifts = self.shifts.get_or_insert_with(|| shift_classes(component));
            BoundTerms::new(component, self.platform, shifts)
        });
        let bound = terms.bound(self.component, probe, self.platform, self.exec_model);
        self.counters.bound_ns += elapsed_ns(clock);
        self.counters.bound_checks += 1;
        bound
    }

    /// The reference analysis build (no retained ranges).
    fn build_from_scratch(&self, solution: &Solution) -> Result<ComponentAnalysis, Infeasible> {
        let cores = self.platform.cores;
        ComponentAnalysis::build(self.component, solution, cores, self.exec_model, false)
    }

    /// Makespans of one stretch of the active single-coordinate scan: the
    /// scan's base solution with coordinate `j` set to each of `candidates`
    /// in turn. Every candidate is answered from the memo, the SPM pre-gate
    /// or one [`CoordinateDelta::rebuild_scan`] pass over the misses, and
    /// lands in the memo.
    ///
    /// # Panics
    ///
    /// Panics when called outside a
    /// [`MakespanEvaluator::begin_coordinate`] scan.
    pub fn scan_landscape(&mut self, candidates: &[i64]) -> Vec<f64> {
        let mut scan = self
            .coordinate
            .take()
            .expect("scan_landscape needs an active begin_coordinate scan");
        let j = scan.j;
        let mut values = vec![f64::INFINITY; candidates.len()];
        // Positions and tile sizes of the candidates that need a build.
        let (mut misses, mut kjs) = (Vec::new(), Vec::new());
        let mut sol = scan.base.clone();
        for (i, &kj) in candidates.iter().enumerate() {
            sol.k[j] = kj;
            match self.lookup(&sol) {
                Some(v) => values[i] = v,
                None => {
                    misses.push(i);
                    kjs.push(kj);
                }
            }
        }
        if !misses.is_empty() {
            // Only a miss pays for the delta context: stable scans — every
            // candidate memoized — never build it.
            let delta = scan.delta.get_or_insert_with(|| {
                let clock = Instant::now();
                let component = self.component;
                let shifts = self.shifts.get_or_insert_with(|| shift_classes(component));
                let delta = CoordinateDelta::classified(
                    component,
                    shifts,
                    &scan.base,
                    j,
                    self.platform.cores,
                );
                self.counters.delta_ns += elapsed_ns(clock);
                self.counters.deltas_built += 1;
                self.counters.delta_declines += usize::from(delta.is_none());
                delta
            });
            let built: Vec<_> = match delta {
                Some(delta) => {
                    let built = delta.rebuild_scan_with(
                        self.component,
                        &kjs,
                        self.exec_model,
                        &mut self.counters,
                        &mut self.row_scratch,
                    );
                    self.counters.incremental_rebuilds += built.len();
                    #[cfg(debug_assertions)]
                    for (&kj, b) in kjs.iter().zip(&built) {
                        sol.k[j] = kj;
                        self.check_rebuild(&sol, b);
                    }
                    built
                }
                None => {
                    let clock = Instant::now();
                    let built = kjs
                        .iter()
                        .map(|&kj| {
                            sol.k[j] = kj;
                            self.build_from_scratch(&sol)
                        })
                        .collect();
                    self.counters.walk_ns += elapsed_ns(clock);
                    built
                }
            };
            self.note_walk(&built);
            self.counters.scan_truncations += built
                .iter()
                .filter(|b| matches!(b, Err(Infeasible::TooManySegments { .. })))
                .count();
            for ((&i, &kj), b) in misses.iter().zip(&kjs).zip(built) {
                sol.k[j] = kj;
                values[i] = self.settle(&sol, b);
            }
        }
        self.coordinate = Some(scan);
        values
    }

    /// The part of an evaluation that needs no analysis build: memo and
    /// analytic SPM pre-gate. `None` means the caller builds the analysis
    /// and hands it to [`MakespanEvaluator::settle`].
    fn lookup(&mut self, solution: &Solution) -> Option<f64> {
        if let Some(&v) = self.cache.get(solution) {
            self.counters.cache_hits += 1;
            return Some(v);
        }
        if crate::tiling::spm_bytes_for(self.component, &solution.k) > self.platform.spm_bytes {
            return Some(self.record(solution, f64::INFINITY));
        }
        None
    }

    /// Finishes an evaluation whose analysis was just built and records its
    /// value: `+∞` for an infeasible verdict, else the allocation-free
    /// recurrence, counted as a fast-tier evaluation.
    fn settle(&mut self, solution: &Solution, built: Result<ComponentAnalysis, Infeasible>) -> f64 {
        let v = match built {
            Err(_) => f64::INFINITY,
            Ok(analysis) => {
                self.counters.fast_evals += 1;
                let clock = Instant::now();
                let folded = analysis.makespan_only(self.platform, &mut self.scratch);
                self.counters.fold_ns += elapsed_ns(clock);
                self.counters.recur_ns += std::mem::take(&mut self.scratch.recur_ns);
                if folded.is_ok() {
                    // An SPM overflow is answered before the recurrence.
                    self.counters.segments_folded += analysis.segments();
                }
                folded.unwrap_or(f64::INFINITY)
            }
        };
        self.record(solution, v)
    }

    /// Counts one uncached evaluation, runs the sampled debug differential
    /// against the oracle, and memoizes the value.
    fn record(&mut self, solution: &Solution, v: f64) -> f64 {
        self.counters.evals += 1;
        #[cfg(debug_assertions)]
        {
            let n = self.counters.evals;
            if n <= 2 || n.is_multiple_of(DIFFERENTIAL_STRIDE) {
                self.check_differential(solution, v);
            }
        }
        self.cache.insert(solution.clone(), v);
        v
    }

    /// Debug-only sampled reference check: a rebuilt analysis — including
    /// which [`Infeasible`] it reports — must be bitwise the from-scratch
    /// build's (the `incremental_differential` suite is the exhaustive
    /// check).
    #[cfg(debug_assertions)]
    fn check_rebuild(
        &mut self,
        solution: &Solution,
        built: &Result<ComponentAnalysis, Infeasible>,
    ) {
        self.rebuild_checks += 1;
        if self.rebuild_checks != 1 && !self.rebuild_checks.is_multiple_of(REBUILD_CHECK_STRIDE) {
            return;
        }
        match (built, &self.build_from_scratch(solution)) {
            (Ok(a), Ok(b)) => debug_assert!(
                a.bitwise_eq(b),
                "incremental rebuild diverges for {solution}"
            ),
            (Err(a), Err(b)) => {
                debug_assert_eq!(a, b, "incremental rebuild error diverges for {solution}")
            }
            _ => panic!("incremental rebuild feasibility diverges for {solution}"),
        }
    }

    /// Debug-only differential: the evaluator must agree bitwise with the
    /// oracle (sampled to keep debug test runs affordable).
    #[cfg(debug_assertions)]
    fn check_differential(&self, solution: &Solution, fast: f64) {
        let slow = self.full(solution).map_or(f64::INFINITY, |r| r.makespan_ns);
        debug_assert_eq!(
            fast.to_bits(),
            slow.to_bits(),
            "evaluator/oracle divergence for k={:?} r={:?}: fast {fast} vs full {slow}",
            solution.k,
            solution.r
        );
    }

    /// Full schedule evaluation of a solution (the oracle).
    pub fn full(&self, solution: &Solution) -> Option<ScheduleResult> {
        build_schedule(self.component, solution, self.platform, self.exec_model)
            .ok()
            .map(|s| evaluate(&s))
    }
}

/// What one assignment driver (coordinate descent or exhaustive
/// enumeration) reports back to the scheduler; its counts went to the
/// evaluator's [`MakespanEvaluator::counters`].
pub(crate) struct DriveOutcome {
    solution: Solution,
    makespan_ns: f64,
    sweep_best_ns: Vec<f64>,
}

/// Deterministic winner predicate: a strictly smaller makespan wins; an
/// *exact* tie prefers the lexicographically smallest `(R, K)` tuple. Ties
/// are common on quantized makespans (and universal among infeasible
/// candidates, all `+∞`), so without this rule the winner would depend on
/// visit order alone — fine within one deterministic scan, but fragile
/// across the serial/parallel and descent/exhaustive pairings the tests
/// hold equal.
fn improves(m: f64, sol: &Solution, best: Option<&(Solution, f64)>) -> bool {
    match best {
        None => true,
        Some((bs, bm)) => m < *bm || (m == *bm && (&sol.r, &sol.k) < (&bs.r, &bs.k)),
    }
}

/// The threads a search may use when the caller names no budget: every
/// CPU the process may run on.
pub fn default_budget() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One component a search solves, and the execution model its evaluators
/// and its oracle read.
#[derive(Clone, Copy)]
pub(crate) struct Target<'a> {
    pub component: &'a Component,
    pub exec_model: &'a ExecModel,
}

/// What [`search_targets`] found.
pub(crate) struct Solved {
    /// Per target: its searched winner, materialized; `None` when it has no
    /// feasible solution.
    pub outcomes: Vec<Option<OptimizeOutcome>>,
    /// Per replay: the oracle's result for the replayed winner and the
    /// seconds its build took; `None` when the winner is infeasible or does
    /// not build on the replayed component.
    pub replays: Vec<Option<(ScheduleResult, f64)>>,
    /// The fan-outs' share of the search record — `units` and
    /// `workers_spawned` — plus the counters of the targets whose outcome
    /// is `None`.
    pub counters: SearchCounters,
    /// Wall-clock seconds of the builds and the reduction before them.
    pub build_s: f64,
}

/// A target's search result: the [`improves`] winner over its
/// assignments, kept only when finite, and their telemetry.
struct Searched {
    winner: Option<(Solution, f64)>,
    telemetry: SearchTelemetry,
}

/// The oracle on one solution: `build_schedule` + `evaluate`, and how many
/// seconds it took.
fn materialize(
    target: Target<'_>,
    solution: &Solution,
    platform: &Platform,
) -> Option<(ScheduleResult, f64)> {
    let clock = Instant::now();
    let schedule = build_schedule(target.component, solution, platform, target.exec_model).ok()?;
    let result = evaluate(&schedule);
    Some((result, clock.elapsed().as_secs_f64()))
}

/// The one search scheduler: solves every target and materializes the
/// winners in two fan-outs of at most `budget` threads each
/// ([`crate::scheduler::fan_out`]).
///
/// * **The searches** are one unit per (target, non-dominated assignment):
///   `drive` on a fresh [`MakespanEvaluator`], seeded by the assignment's
///   index. The caller then reduces each target's assignments in
///   assignment order with [`improves`].
/// * **The builds** are one unit per target, building its winner with the
///   oracle, and one per `(t, occurrence)` of `replays`, building target
///   `t`'s winner on that other component.
///
/// No result depends on the budget or on which thread ran what: a unit
/// reads only its own inputs, and every reduction runs in unit order.
pub(crate) fn search_targets<D>(
    targets: &[Target<'_>],
    replays: &[(usize, Target<'_>)],
    platform: &Platform,
    budget: usize,
    drive: D,
) -> Solved
where
    D: Fn(&Component, &[i64], u64, &mut MakespanEvaluator<'_>) -> DriveOutcome + Sync,
{
    let assignments: Vec<Vec<Vec<i64>>> = targets
        .iter()
        .map(|t| nondominated_thread_groups(t.component, platform.cores))
        .collect();
    let units: Vec<(usize, usize)> = assignments
        .iter()
        .enumerate()
        .flat_map(|(t, rs)| (0..rs.len()).map(move |i| (t, i)))
        .collect();
    let clock = Instant::now();
    let (found, search_spawned) = fan_out(budget, units.len(), |u| {
        let (t, i) = units[u];
        let Target {
            component,
            exec_model,
        } = targets[t];
        let r = &assignments[t][i];
        let clock = Instant::now();
        let mut ev = MakespanEvaluator::new(component, platform, exec_model);
        let d = drive(component, r, i as u64, &mut ev);
        let telemetry = AssignmentTelemetry {
            r: r.clone(),
            sweep_best_ns: d.sweep_best_ns,
            best_makespan_ns: d.makespan_ns,
            counters: ev.counters,
        };
        (d.solution, telemetry, clock.elapsed().as_secs_f64())
    });
    let search_s = clock.elapsed().as_secs_f64();

    // Reduce each target's assignments in order.
    let mut found = found.into_iter();
    let mut searched: Vec<Searched> = Vec::with_capacity(targets.len());
    for rs in &assignments {
        let mut winner: Option<(Solution, f64)> = None;
        let mut per_assignment = Vec::with_capacity(rs.len());
        let mut unit_s = 0.0;
        for (solution, t, s) in found.by_ref().take(rs.len()) {
            if improves(t.best_makespan_ns, &solution, winner.as_ref()) {
                winner = Some((solution, t.best_makespan_ns));
            }
            per_assignment.push(t);
            unit_s += s;
        }
        let mut telemetry = SearchTelemetry::from_assignments(per_assignment);
        telemetry.search_s = unit_s;
        searched.push(Searched {
            winner: winner.filter(|(_, m)| m.is_finite()),
            telemetry,
        });
    }

    // Unit `t < targets.len()` builds target `t`'s winner, the rest replay
    // one each; a unit whose winner is infeasible does nothing.
    let (built, build_spawned) = fan_out(budget, targets.len() + replays.len(), |j| {
        let (t, on) = match j.checked_sub(targets.len()) {
            None => (j, targets[j]),
            Some(i) => replays[i],
        };
        let (solution, _) = searched[t].winner.as_ref()?;
        materialize(on, solution, platform)
    });
    let build_s = clock.elapsed().as_secs_f64() - search_s;

    let mut counters = SearchCounters {
        units: units.len() + built.len(),
        workers_spawned: search_spawned.max(build_spawned),
        ..SearchCounters::default()
    };
    let mut built = built.into_iter();
    let outcomes = searched
        .into_iter()
        .zip(built.by_ref())
        .map(|(searched, built)| {
            let (Some((solution, _)), Some((result, build_s))) = (searched.winner, built) else {
                // A target without an outcome was still searched.
                counters.add(&searched.telemetry.counters);
                return None;
            };
            let mut telemetry = searched.telemetry;
            telemetry.schedule_build_s = build_s;
            telemetry.counters.full_builds += 1;
            Some(OptimizeOutcome {
                solution,
                result,
                telemetry,
            })
        })
        .collect();
    Solved {
        outcomes,
        replays: built.collect(),
        counters,
        build_s,
    }
}

/// The one-component face of `search_targets`: Algorithm 1's descent or
/// the exhaustive validator over every non-dominated thread-group
/// assignment of one component, each driven by its own memoizing
/// [`MakespanEvaluator`], and the winner materialized by the oracle.
///
/// Determinism: each assignment's search depends only on its own
/// index-derived seed, and the winner is picked by an `improves` scan in
/// assignment order (strictly smaller makespan, ties to the
/// lexicographically smallest `(R, K)`) — the result is independent of
/// thread count and scheduling.
pub struct SearchEngine<'a> {
    component: &'a Component,
    platform: &'a Platform,
    exec_model: &'a ExecModel,
    threads: Option<usize>,
}

impl<'a> SearchEngine<'a> {
    /// Creates an engine for one component on one platform.
    pub fn new(
        component: &'a Component,
        platform: &'a Platform,
        exec_model: &'a ExecModel,
    ) -> Self {
        SearchEngine {
            component,
            platform,
            exec_model,
            threads: None,
        }
    }

    /// Overrides the thread budget, the caller included (`1` forces a
    /// serial search; the result is identical either way). The default is
    /// [`default_budget`].
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Algorithm 1's coordinate descent over every assignment.
    pub fn descend(&self, opts: &OptimizerOptions) -> Option<OptimizeOutcome> {
        assert!(self.component.depth() > 0);
        self.explore(|c, r, idx, ev| descend_assignment(c, opts, r, idx, ev))
    }

    /// Exhaustive enumeration of the full candidate space (with SPM
    /// dominance pruning), parallel over assignments.
    pub fn exhaustive(&self) -> Option<OptimizeOutcome> {
        self.explore(|c, r, _idx, ev| enumerate_assignment(c, self.platform, r, ev))
    }

    /// Runs `drive` over every non-dominated assignment and materializes
    /// the winner; the pool's counts join the component's record.
    fn explore<D>(&self, drive: D) -> Option<OptimizeOutcome>
    where
        D: Fn(&Component, &[i64], u64, &mut MakespanEvaluator<'_>) -> DriveOutcome + Sync,
    {
        let target = Target {
            component: self.component,
            exec_model: self.exec_model,
        };
        let budget = self.threads.unwrap_or_else(default_budget);
        let solved = search_targets(&[target], &[], self.platform, budget, drive);
        let mut outcome = solved.outcomes.into_iter().next()??;
        outcome.telemetry.counters.add(&solved.counters);
        Some(outcome)
    }
}

/// Algorithm 1: heuristic optimization of one component's schedule.
///
/// Returns `None` if no feasible solution exists (e.g. even single-iteration
/// tiles overflow the SPM).
pub fn optimize_component(
    component: &Component,
    platform: &Platform,
    exec_model: &ExecModel,
    opts: &OptimizerOptions,
) -> Option<OptimizeOutcome> {
    SearchEngine::new(component, platform, exec_model).descend(opts)
}

/// Coordinate descent for one thread-group assignment: the paper's random
/// start plus the largest-tiles corner (often near-optimal when
/// compute-bound); evaluations are memoized, so the overlap is cheap.
///
/// Each start runs at most `max_iter` sweeps of single-coordinate scans and
/// skips the scans that cannot change anything (DESIGN.md §5, fixpoint
/// rule). The landscape a scan of level `j` sees depends only on the other
/// coordinates, and [`find_minimum`] is a deterministic function of that
/// landscape whatever the memo and the bounds hold. So a level none of whose
/// other coordinates moved since its last scan would re-elect its incumbent
/// and is not scanned again (`scans_skipped`), and a sweep that moves
/// nothing leaves every level in that state: the start stops there. Every
/// trajectory and winner is the one the full `max_iter` sweeps produce.
pub(crate) fn descend_assignment(
    component: &Component,
    opts: &OptimizerOptions,
    r: &[i64],
    assignment_index: u64,
    evaluator: &mut MakespanEvaluator<'_>,
) -> DriveOutcome {
    let depth = component.depth();
    let mut rng = SplitMix::new(opts.seed ^ assignment_index.wrapping_mul(0x9e37_79b9));

    let candidates: Vec<Vec<i64>> = (0..depth)
        .map(|j| select_tile_sizes(component, j, r[j]))
        .collect();
    let random_start: Vec<i64> = candidates
        .iter()
        .map(|c| c[(rng.next() as usize) % c.len()])
        .collect();
    let max_start: Vec<i64> = candidates
        .iter()
        .map(|c| *c.last().expect("non-empty candidates"))
        .collect();

    let mut best: Option<(Solution, f64)> = None;
    let mut sweep_best_ns = Vec::with_capacity(2 * opts.max_iter);
    for mut k in [random_start, max_start] {
        // `stable[j]`: level j was scanned and no other coordinate has moved
        // since, so its landscape and its argmin `k[j]` are unchanged.
        let mut stable = vec![false; depth];
        for _ in 0..opts.max_iter {
            let mut moved = false;
            for j in 0..depth {
                if stable[j] {
                    evaluator.counters.scans_skipped += 1;
                    continue;
                }
                // Every stretch of this level's scan varies only
                // coordinate j — exactly the shape the delta context serves.
                evaluator.begin_coordinate(
                    &Solution {
                        k: k.clone(),
                        r: r.to_vec(),
                    },
                    j,
                );
                // Both probes of `find_minimum` go to the one evaluator, one
                // at a time.
                let ev = RefCell::new(&mut *evaluator);
                let (kj, pruned) = find_minimum(
                    &candidates[j],
                    opts.convex_search,
                    |win| ev.borrow_mut().scan_landscape(win),
                    |kj| ev.borrow_mut().scan_bound(kj),
                );
                evaluator.counters.bound_pruned += pruned;
                evaluator.end_coordinate();
                stable[j] = true;
                if kj != k[j] {
                    k[j] = kj;
                    moved = true;
                    // Every other level's landscape just changed.
                    for (i, s) in stable.iter_mut().enumerate() {
                        *s = i == j;
                    }
                }
            }
            evaluator.counters.sweeps_run += 1;
            // Convergence curve: best makespan known after this sweep. The
            // current `k` was evaluated while scanning its last coordinate —
            // unless that scan was skipped or the coordinate has a single
            // candidate, which `find_minimum` returns without evaluating;
            // then this lookup is the one real evaluation of `k`. Either way
            // the value is the same, so the search path does not depend on
            // which it was.
            let cur = evaluator.makespan(&Solution {
                k: k.clone(),
                r: r.to_vec(),
            });
            let so_far = sweep_best_ns.last().copied().unwrap_or(f64::INFINITY);
            sweep_best_ns.push(cur.min(so_far));
            if !moved {
                break;
            }
        }
        let sol = Solution { k, r: r.to_vec() };
        let m = evaluator.makespan(&sol);
        if improves(m, &sol, best.as_ref()) {
            best = Some((sol, m));
        }
    }
    let (solution, makespan_ns) = best.expect("two starts evaluated");
    DriveOutcome {
        solution,
        makespan_ns,
        sweep_best_ns,
    }
}

/// Exhaustive optimization over the full `select_tile_sizes` ×
/// thread-assignment space; exponential, for validation on small components.
/// Runs through [`SearchEngine`] (parallel over assignments) with SPM
/// dominance pruning; the result is identical to a serial, unpruned
/// enumeration.
pub fn optimize_exhaustive(
    component: &Component,
    platform: &Platform,
    exec_model: &ExecModel,
) -> Option<OptimizeOutcome> {
    SearchEngine::new(component, platform, exec_model).exhaustive()
}

/// Exhaustive enumeration of one assignment's candidate space in
/// lexicographic order, pruning SPM-dominated tails: `spm_bytes_for` is
/// monotone in every tile-size component, and candidates are sorted
/// ascending, so once the analytic pre-gate rejects a `K` every remaining
/// candidate of the innermost level (a dominated `Z` tuple under the same
/// `R`) is infeasible too. Only provably-infeasible candidates are skipped,
/// which preserves the exact optimum.
fn enumerate_assignment(
    component: &Component,
    platform: &Platform,
    r: &[i64],
    evaluator: &mut MakespanEvaluator<'_>,
) -> DriveOutcome {
    let depth = component.depth();
    let candidates: Vec<Vec<i64>> = (0..depth)
        .map(|j| select_tile_sizes(component, j, r[j]))
        .collect();
    let mut idx = vec![0usize; depth];
    let mut k_vec = vec![0i64; depth];
    let mut best: Option<(Solution, f64)> = None;
    let mut assignment_best = f64::INFINITY;
    let last = depth - 1;
    loop {
        for (j, &i) in idx.iter().enumerate() {
            k_vec[j] = candidates[j][i];
        }
        if idx[last] == 0 {
            // A new innermost row: every solution until the next carry
            // varies only the last coordinate.
            evaluator.begin_coordinate(
                &Solution {
                    k: k_vec.clone(),
                    r: r.to_vec(),
                },
                last,
            );
        }
        if crate::tiling::spm_bytes_for(component, &k_vec) > platform.spm_bytes {
            // This candidate and the rest of the innermost level are all
            // SPM-infeasible (monotonicity) — skip straight to the carry.
            evaluator.counters.pruned += candidates[last].len() - idx[last];
            idx[last] = candidates[last].len() - 1;
        } else {
            let sol = Solution {
                k: k_vec.clone(),
                r: r.to_vec(),
            };
            let m = evaluator.makespan(&sol);
            assignment_best = assignment_best.min(m);
            if improves(m, &sol, best.as_ref()) {
                best = Some((sol, m));
            }
        }
        // Increment.
        let mut j = depth;
        let mut done = false;
        loop {
            if j == 0 {
                done = true;
                break;
            }
            j -= 1;
            idx[j] += 1;
            if idx[j] < candidates[j].len() {
                break;
            }
            idx[j] = 0;
        }
        if done {
            break;
        }
    }
    evaluator.end_coordinate();
    let (solution, makespan_ns) = best.unwrap_or_else(|| {
        // Every candidate was SPM-pruned: report the smallest-tiles corner
        // as infeasible, matching what an unpruned enumeration would score.
        (
            Solution {
                k: candidates.iter().map(|c| c[0]).collect(),
                r: r.to_vec(),
            },
            f64::INFINITY,
        )
    });
    DriveOutcome {
        solution,
        makespan_ns,
        sweep_best_ns: vec![assignment_best],
    }
}

/// Relative margin by which a lower bound must exceed a computed makespan
/// to prove the candidate strictly worse: it covers the summation-order
/// difference between [`makespan_lower_bound`] and the fold (≈ 10⁻¹¹
/// relative at 10⁵ segments).
const BOUND_MARGIN: f64 = 1e-9;

/// True when a candidate whose makespan is at least `bound` is provably
/// strictly worse than one whose makespan is `value`.
fn provably_worse(bound: f64, value: f64) -> bool {
    bound > value * (1.0 + BOUND_MARGIN)
}

/// `find_minimum` of Algorithm 1: the candidate minimizing the makespan
/// along one coordinate, and how many candidates it skipped on their bound.
/// `landscape` evaluates a stretch of candidates and returns their values
/// index-aligned ([`MakespanEvaluator::scan_landscape`] in the search);
/// `bound` returns a lower bound on one candidate's value
/// ([`MakespanEvaluator::scan_bound`]). With `convex` set, ternary
/// bracketing over the (empirically convex, §4.3) discrete function shrinks
/// long lists first, and what remains is scanned exhaustively.
///
/// Quantized makespans are only *quasi*-convex: plateaus are common. On a
/// plateau `f(m1) == f(m2)` brackets nothing — the minimum may lie on
/// either side (e.g. a flat stretch followed by a drop), so the probes'
/// remaining range is scanned instead of shrunk. Probes returning `+∞`
/// (infeasible solutions) order correctly against finite values and against
/// each other only when both are infinite, which the equality case also
/// catches.
///
/// The final scan keeps the *first* best value. Candidate lists are sorted
/// ascending, so exact ties deterministically resolve to the smallest `K` —
/// the single-coordinate face of the lexicographic tie-breaking the search
/// applies across whole solutions.
///
/// **Bound-and-prune.** Candidates are evaluated cheapest first — a larger
/// `K` never has more tiles — and a candidate whose bound already exceeds a
/// value in hand by `BOUND_MARGIN` is skipped: it is provably strictly
/// worse. Every decision above depends only on `<` and `==` between values
/// and on the strict-`<` first-minimum, so a skip changes nothing:
///
/// * a one-candidate list is returned without evaluating anything;
/// * a bracketing step evaluates `f(m2)` first and `f(m1)` only when
///   `bound(m1)` does not prove `f(m1) > f(m2)`; when it does, the step
///   takes `lo = m1 + 1`, the branch the exact values would take;
/// * the final window evaluates its last candidate, then in one stretch
///   every other candidate whose bound does not exceed that value. A
///   skipped candidate is strictly worse than an evaluated one, so the
///   first minimum over the evaluated candidates is the first minimum over
///   all of them.
///
/// With `bound = |_| f64::NEG_INFINITY` nothing is skipped and the result
/// is that of the plain search.
pub fn find_minimum<F, B>(
    candidates: &[i64],
    convex: bool,
    mut landscape: F,
    mut bound: B,
) -> (i64, usize)
where
    F: FnMut(&[i64]) -> Vec<f64>,
    B: FnMut(i64) -> f64,
{
    assert!(!candidates.is_empty());
    if let [only] = candidates {
        return (*only, 0);
    }
    let mut pruned = 0usize;
    let (mut lo, mut hi) = (0usize, candidates.len() - 1);
    while convex && hi - lo > 8 {
        let m1 = lo + (hi - lo) / 3;
        let m2 = hi - (hi - lo) / 3;
        let f2 = landscape(&[candidates[m2]])[0];
        if provably_worse(bound(candidates[m1]), f2) {
            // f(m1) > f(m2): the strictly quasi-convex step below.
            pruned += 1;
            lo = m1 + 1;
            continue;
        }
        let f1 = landscape(&[candidates[m1]])[0];
        if f1 == f2 {
            // Plateau (both finite) or doubly-infeasible probes: no safe
            // bracket either way — scan what is left of the range.
            break;
        }
        if f1 < f2 {
            // Strictly quasi-convex step: the minimum cannot sit at or
            // beyond m2, else f would be non-increasing up to it and
            // f1 >= f2.
            hi = m2 - 1;
        } else {
            lo = m1 + 1;
        }
    }
    let (&last, rest) = candidates[lo..=hi].split_last().expect("non-empty window");
    let last_v = landscape(&[last])[0];
    let open: Vec<i64> = rest
        .iter()
        .copied()
        .filter(|&k| !provably_worse(bound(k), last_v))
        .collect();
    pruned += rest.len() - open.len();
    let values = if open.is_empty() {
        Vec::new()
    } else {
        landscape(&open)
    };
    let mut best = candidates[lo];
    let mut best_v = f64::INFINITY;
    for (k, v) in open.into_iter().zip(values).chain([(last, last_v)]) {
        if v < best_v {
            best_v = v;
            best = k;
        }
    }
    (best, pruned)
}

/// Tiny deterministic RNG (SplitMix64) used to pick initial solutions.
struct SplitMix {
    state: u64,
}

impl SplitMix {
    fn new(seed: u64) -> Self {
        SplitMix { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{CompLevel, Component};

    fn mock_component(counts: &[i64], parallel: &[bool]) -> Component {
        Component {
            kernel: "mock".into(),
            levels: counts
                .iter()
                .zip(parallel)
                .enumerate()
                .map(|(i, (&c, &p))| CompLevel {
                    loop_id: i,
                    name: format!("l{i}"),
                    count: c,
                    begin: 0,
                    stride: 1,
                    parallel: p,
                    tilable: true,
                    reduction_parallel: false,
                })
                .collect(),
            stmts: vec![],
            exec_count: 1,
            arrays: vec![],
            deps: vec![],
            work: vec![],
            folded_iters_per_iter: 0,
        }
    }

    #[test]
    fn nondominated_groups_match_paper_example() {
        // §4.3 example: component (l1, l2) on P = 10 cores →
        // (10,1), (5,2), (3,3), (2,5), (1,10).
        let comp = mock_component(&[100, 100], &[true, true]);
        let mut groups = nondominated_thread_groups(&comp, 10);
        groups.sort();
        assert_eq!(
            groups,
            vec![vec![1, 10], vec![2, 5], vec![3, 3], vec![5, 2], vec![10, 1]]
        );
    }

    #[test]
    fn nondominated_respects_parallel_flags() {
        let comp = mock_component(&[100, 100], &[true, false]);
        let groups = nondominated_thread_groups(&comp, 8);
        assert_eq!(groups, vec![vec![8, 1]]);
    }

    #[test]
    fn select_tile_sizes_matches_paper_example() {
        // §4.3 example: N = 24, R = 4 → K = {1, 2, 3, 6}.
        let comp = mock_component(&[24], &[true]);
        assert_eq!(select_tile_sizes(&comp, 0, 4), vec![1, 2, 3, 6]);
    }

    #[test]
    fn select_tile_sizes_single_thread() {
        // N = 6, R = 1: Z decreases at K = 1 (Z=6), 2 (3), 3 (2), 6 (1).
        let comp = mock_component(&[6], &[true]);
        assert_eq!(select_tile_sizes(&comp, 0, 1), vec![1, 2, 3, 6]);
    }

    #[test]
    fn non_tilable_level_single_candidate() {
        let mut comp = mock_component(&[17], &[false]);
        comp.levels[0].tilable = false;
        assert_eq!(select_tile_sizes(&comp, 0, 1), vec![17]);
    }

    /// A landscape that evaluates `g` candidate by candidate.
    fn pointwise(g: impl Fn(i64) -> f64) -> impl FnMut(&[i64]) -> Vec<f64> {
        move |ks| ks.iter().map(|&k| g(k)).collect()
    }

    /// The plain search: `find_minimum` with a bound that never prunes.
    fn argmin(candidates: &[i64], convex: bool, g: impl Fn(i64) -> f64) -> i64 {
        let (k, pruned) = find_minimum(candidates, convex, pointwise(g), |_| f64::NEG_INFINITY);
        assert_eq!(pruned, 0);
        k
    }

    #[test]
    fn find_minimum_convex() {
        let candidates: Vec<i64> = (1..=100).collect();
        // Convex with minimum at 37.
        let g = |k: i64| ((k - 37) * (k - 37)) as f64;
        assert_eq!(argmin(&candidates, true, g), 37);
        assert_eq!(argmin(&candidates, false, g), 37);
    }

    #[test]
    fn find_minimum_with_infeasible_edges() {
        let candidates: Vec<i64> = (1..=50).collect();
        let g = |k: i64| {
            if k > 40 {
                f64::INFINITY
            } else {
                ((k - 20) * (k - 20)) as f64
            }
        };
        assert_eq!(argmin(&candidates, true, g), 20);
    }

    /// The regression the plateau fix addresses: a non-increasing quantized
    /// function that is flat over the probe points and only drops at the far
    /// end. The old `f1 <= f2 → hi = m2 - 1` shrink cut the drop away.
    #[test]
    fn find_minimum_flat_then_drop_plateau() {
        let candidates: Vec<i64> = (1..=100).collect();
        let g = |k: i64| if k == 100 { 1.0 } else { 2.0 };
        assert_eq!(argmin(&candidates, true, g), 100);
    }

    /// Differential sweep: on quasi-convex (unimodal, plateau-heavy,
    /// quantized, infeasible-edged) functions the convex search must agree
    /// with the exhaustive scan on the minimum *value* (tie-breaking between
    /// equal minima may differ).
    #[test]
    fn find_minimum_differential_against_scan() {
        let candidates: Vec<i64> = (1..=200).collect();
        // A family of quasi-convex shapes indexed by (quantization q,
        // minimum position c, infeasible left/right margins).
        for q in [1i64, 3, 7, 25, 1000] {
            for c in [1i64, 13, 100, 199, 200] {
                for (left, right) in [(0i64, 0i64), (5, 0), (0, 30), (17, 17)] {
                    let f = |k: i64| -> f64 {
                        if k <= left || k > 200 - right {
                            return f64::INFINITY;
                        }
                        // Quantized V shape: plateaus of width q.
                        (((k - c).abs() / q) * q) as f64
                    };
                    let got = f(argmin(&candidates, true, f));
                    let want = f(argmin(&candidates, false, f));
                    assert_eq!(
                        got, want,
                        "diverged for q={q} c={c} margins=({left},{right})"
                    );
                }
            }
        }
        // Monotone staircases (the flat-then-drop family) in both
        // directions, various step widths.
        for w in [2i64, 9, 60, 199] {
            for dir in [1i64, -1] {
                let f = |k: i64| -> f64 { (dir * (k / w)) as f64 };
                let got = f(argmin(&candidates, true, f));
                let want = f(argmin(&candidates, false, f));
                assert_eq!(got, want, "diverged for staircase w={w} dir={dir}");
            }
        }
    }

    /// A random landscape over `n` candidates: quasi-convex (a quantized V),
    /// a plateau with one drop, or arbitrary quantized values, with
    /// `+∞`-infeasible edges of random width.
    fn random_landscape(rng: &mut SplitMix, n: usize) -> Vec<f64> {
        let below = |rng: &mut SplitMix, m: u64| rng.next() % m;
        let shape = below(rng, 3);
        let q = [1, 3, 25][below(rng, 3) as usize];
        let c = below(rng, n as u64) as i64;
        let drop = below(rng, n as u64) as usize;
        let left = below(rng, 4) as usize * below(rng, n as u64 / 4 + 1) as usize;
        let right = below(rng, 4) as usize * below(rng, n as u64 / 4 + 1) as usize;
        (0..n)
            .map(|i| {
                if i < left || i + right >= n {
                    return f64::INFINITY;
                }
                let v = match shape {
                    0 => (i as i64 - c).abs() / q * q,
                    1 => i64::from(i != drop),
                    _ => (below(rng, 6) as i64) * q,
                };
                1000.0 + v as f64
            })
            .collect()
    }

    /// Pruning never changes the answer: on random quasi-convex, plateau,
    /// arbitrary and `+∞`-edged landscapes, with every candidate's bound
    /// drawn as `u · value` for `u ∈ [0, 1]` — `u = 1` exactly included, the
    /// tightest bound the strict tie rule must survive — `find_minimum`
    /// returns the index the never-pruning bound returns, and prunes.
    #[test]
    fn pruned_find_minimum_matches_the_unpruned_one() {
        let mut rng = SplitMix::new(26);
        let mut pruned_total = 0usize;
        for case in 0..3000 {
            let n = 1 + (rng.next() % 60) as usize + if case % 5 == 0 { 140 } else { 0 };
            let values = random_landscape(&mut rng, n);
            let candidates: Vec<i64> = (1..=n as i64).collect();
            let landscape = || {
                let values = values.clone();
                move |ks: &[i64]| ks.iter().map(|&k| values[k as usize - 1]).collect()
            };
            let us: Vec<f64> = (0..n)
                .map(|i| match (case + i) % 4 {
                    0 => 1.0,
                    1 => 0.0,
                    _ => (rng.next() % 1001) as f64 / 1000.0,
                })
                .collect();
            let bound = |k: i64| {
                let (v, u) = (values[k as usize - 1], us[k as usize - 1]);
                if u == 0.0 {
                    0.0
                } else {
                    u * v
                }
            };
            for convex in [true, false] {
                let (want, none) =
                    find_minimum(&candidates, convex, landscape(), |_| f64::NEG_INFINITY);
                assert_eq!(none, 0);
                let (got, pruned) = find_minimum(&candidates, convex, landscape(), bound);
                assert_eq!(
                    got, want,
                    "case {case} convex {convex}: {values:?} / {us:?}"
                );
                pruned_total += pruned;
            }
        }
        assert!(pruned_total > 0, "no bound ever pruned");
    }

    /// The exact-value bound prunes only strictly worse candidates: a tie
    /// with the window's last candidate is evaluated and, being first,
    /// wins.
    #[test]
    fn exact_ties_are_never_pruned() {
        let candidates = [1, 2, 3, 4];
        let values = [7.0, 5.0, 9.0, 5.0];
        let (k, pruned) = find_minimum(
            &candidates,
            true,
            pointwise(|k| values[k as usize - 1]),
            |k| values[k as usize - 1],
        );
        assert_eq!((k, pruned), (2, 2));
        // A one-candidate list is answered without evaluating anything.
        let (k, pruned) = find_minimum(&[9], true, |_| unreachable!(), |_| unreachable!());
        assert_eq!((k, pruned), (9, 0));
    }

    /// Every count of the search record is a function of the input: two
    /// runs agree, and so does a serial one. The times beside them are not
    /// compared.
    #[test]
    fn work_ledger_counts_repeat_across_runs() {
        use crate::cost::{AnalyticCost, CostProvider};
        use crate::looptree::LoopTree;
        use prem_ir::{AssignKind, ElemType, Expr, IdxExpr, ProgramBuilder};

        let mut b = ProgramBuilder::new("scale");
        let x = b.array("x", vec![256, 192], ElemType::F32);
        let y = b.array("y", vec![256, 192], ElemType::F32);
        let i = b.begin_loop("i", 0, 1, 256);
        let j = b.begin_loop("j", 0, 1, 192);
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
        let program = b.finish();
        let tree = LoopTree::build(&program).unwrap();
        let (ni, nj) = (&tree.roots[0], &tree.roots[0].children[0]);
        let comp = Component::extract(&tree, &program, &[ni, nj]);
        let model = AnalyticCost::new(&program).exec_model(&comp);
        let platform = Platform::default().with_spm_bytes(16 * 1024);
        let counters = |threads: usize| {
            SearchEngine::new(&comp, &platform, &model)
                .with_threads(threads)
                .descend(&OptimizerOptions::default())
                .expect("feasible")
                .telemetry
                .counters
        };
        let first = counters(4);
        assert_eq!(first.counts(), counters(4).counts());
        assert_eq!(first.counts(), counters(1).counts());
        // Every evaluator stage runs on this component.
        let stages = [
            first.evals,
            first.fast_evals,
            first.deltas_built,
            first.tiles_walked,
            first.segments_folded,
            first.bound_checks,
            first.bound_pruned,
        ];
        assert!(stages.iter().all(|&n| n > 0), "an idle stage: {first:?}");
    }

    #[test]
    fn telemetry_counters_are_consistent() {
        let comp = mock_component(&[64, 48], &[true, true]);
        let platform = Platform::default();
        let model = ExecModel {
            o: vec![2.0, 2.0],
            w: 5.0,
        };
        let out =
            optimize_component(&comp, &platform, &model, &OptimizerOptions::default()).unwrap();
        let t = &out.telemetry;
        // The component's record is the sum of the per-assignment records
        // plus the winner's materializing build and the pool's counts: one
        // unit per assignment and one for the build.
        let mut sum = SearchCounters::default();
        for a in &t.assignments {
            sum.add(&a.counters);
        }
        sum.full_builds += 1;
        sum.units = t.assignments.len() + 1;
        sum.workers_spawned = t.counters.workers_spawned;
        assert_eq!(sum, t.counters);
        assert_eq!(out.evals(), t.counters.evals);
        assert_eq!(
            t.counters.evals,
            t.assignments
                .iter()
                .map(|a| a.counters.evals)
                .sum::<usize>()
        );
        assert_eq!(
            t.counters.cache_hits,
            t.assignments
                .iter()
                .map(|a| a.counters.cache_hits)
                .sum::<usize>()
        );
        // Hit rate partitions lookups: evals + hits == lookups.
        assert_eq!(t.lookups(), t.counters.evals + t.counters.cache_hits);
        assert!(t.counters.cache_hits > 0, "memoization never hit");
        assert!(t.cache_hit_rate() > 0.0 && t.cache_hit_rate() < 1.0);
        // One record per non-dominated assignment, in enumeration order.
        assert_eq!(
            t.assignments
                .iter()
                .map(|a| a.r.clone())
                .collect::<Vec<_>>(),
            nondominated_thread_groups(&comp, platform.cores)
        );
        // Convergence curves are monotone non-increasing and end at the
        // best makespan.
        for a in &t.assignments {
            assert!(a.sweep_best_ns.windows(2).all(|w| w[1] <= w[0]));
            assert_eq!(*a.sweep_best_ns.last().unwrap(), a.best_makespan_ns);
        }
        let curve = t.convergence();
        assert!(curve.windows(2).all(|w| w[1] <= w[0]));
        assert_eq!(*curve.last().unwrap(), t.best_makespan_ns);
        assert_eq!(t.best_makespan_ns, out.result.makespan_ns);
    }

    #[test]
    fn telemetry_observation_does_not_change_solutions() {
        // Telemetry must be pure observation: two identical runs agree, and
        // disabling the convergence probes is impossible — so instead check
        // the probes are all cache hits by construction: eval counts equal
        // those of a run at the same seed (determinism) and the chosen
        // solution matches the exhaustive optimum's makespan on a small
        // component where the heuristic is known to land well.
        let comp = mock_component(&[24, 10], &[true, false]);
        let platform = Platform::default();
        let model = ExecModel {
            o: vec![2.0, 2.0],
            w: 5.0,
        };
        let opts = OptimizerOptions::default();
        let a = optimize_component(&comp, &platform, &model, &opts).unwrap();
        let b = optimize_component(&comp, &platform, &model, &opts).unwrap();
        assert_eq!(a.solution, b.solution);
        assert_eq!(a.evals(), b.evals());
        assert_eq!(a.telemetry.counters.counts(), b.telemetry.counters.counts());
    }
}
