//! Structured optimizer search telemetry.
//!
//! The component optimizer (Algorithm 1) explores one coordinate-descent
//! search per non-dominated thread-group assignment; each search memoizes
//! makespan evaluations. Every level of the search — evaluator, assignment,
//! component, application — keeps the same [`SearchCounters`] record and sums
//! it with [`SearchCounters::add`]. Per assignment the telemetry also keeps
//! the best-so-far makespan after each coordinate sweep (`sweep_best_ns`, a
//! convergence curve that is monotone non-increasing by construction).

use crate::json::Json;

/// Every counter of the search, summed at every level with
/// [`SearchCounters::add`] and reported under its field name by
/// [`SearchCounters::pairs`]. The counts are identical across runs of the
/// same input ([`SearchCounters::counts`]); the five timers beside them —
/// the only fields whose names end in `_ns` — and the thread count
/// `workers_spawned` are not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchCounters {
    /// Uncached makespan evaluations.
    pub evals: usize,
    /// Memoized lookups answered from the cache.
    pub cache_hits: usize,
    /// Evaluations answered by the fast (analysis + fold) cost tier without
    /// materializing a schedule.
    pub fast_evals: usize,
    /// Full materializing `build_schedule` constructions (the winner, plus
    /// any strategy that bypasses the fast tier).
    pub full_builds: usize,
    /// Candidates skipped by dominance pruning (provably infeasible, never
    /// evaluated).
    pub pruned: usize,
    /// Structure analyses produced by the single-coordinate incremental
    /// rebuild instead of a from-scratch build.
    pub incremental_rebuilds: usize,
    /// Coordinate sweeps executed (each start is bounded by the `max_iter`
    /// ceiling; fewer when it reached its fixpoint).
    pub sweeps_run: usize,
    /// Single-coordinate scans not run because no other coordinate had
    /// moved since the level's previous scan, so its argmin could not change.
    pub scans_skipped: usize,
    /// Coordinate scans whose context the lane walk cannot hold (an array
    /// that is not shift-only, a nest too deep, or a context infeasible
    /// whatever the scanned tile size is): the delta declined construction
    /// and every candidate of the scan was built by the reference analysis
    /// build.
    pub delta_declines: usize,
    /// Scan candidates the segment cap rejects, answered without walking
    /// any tile (by the lane walk's replayed check or the reference build's
    /// tile plan).
    pub scan_truncations: usize,
    /// Intra-component dependences classified as reduction chains
    /// (associative-commutative accumulator updates). Counted whether or not
    /// the reduction pass is enabled — the detector always runs.
    pub reduction_deps: usize,
    /// Accumulator arrays actually privatized for parallel execution
    /// (nonzero only when the optimizer runs with reductions enabled).
    pub privatized_accumulators: usize,
    /// Components whose winner was not searched but replayed from an
    /// earlier component of the same application with identical content
    /// (and still materialized through the oracle).
    pub replayed: usize,
    /// Replays whose oracle makespan differed from the memoized winner's and
    /// were therefore answered by a real search instead. Must stay 0.
    pub replay_mismatches: usize,
    /// Coordinate-scan delta contexts constructed (`CoordinateDelta::new`).
    pub deltas_built: usize,
    /// Time spent constructing them.
    pub delta_ns: u64,
    /// Segments of the candidate analyses the tile walks produced
    /// (incremental rebuilds and from-scratch builds).
    pub tiles_walked: usize,
    /// Segments of incremental rebuilds on cores whose tile box repeats an
    /// earlier core's box class: answered by a copy of that core's walked
    /// analysis instead of a walk of their own (still counted in
    /// `tiles_walked`).
    pub segments_shared: usize,
    /// Rows the incremental rebuilds' walk derived: one per distinct
    /// odometer state of a walked core, plus the core's final batch. Every
    /// other walked segment reads an earlier row of its core.
    pub row_keys: usize,
    /// Time spent in the incremental rebuilds' fill pass: re-targeting each
    /// candidate's tile plan, its persistence check and its lane inputs.
    pub fill_ns: u64,
    /// Time spent in the walks (the incremental walk pass and the
    /// from-scratch builds).
    pub walk_ns: u64,
    /// Segments folded by the makespan recurrence (fewer than walked when a
    /// walk finds an SPM overflow the analytic pre-gate missed).
    pub segments_folded: usize,
    /// Time spent folding.
    pub fold_ns: u64,
    /// The share of `fold_ns` spent in the shared-DMA recurrence (the
    /// fold's phase 2); the rest prices each walked core's batches.
    pub recur_ns: u64,
    /// Walk-free makespan lower bounds computed.
    pub bound_checks: usize,
    /// Candidates whose evaluation a bound proved unnecessary.
    pub bound_pruned: usize,
    /// Time spent computing bounds.
    pub bound_ns: u64,
    /// Units the search's two fan-outs ran: one per (component,
    /// thread-group assignment) search, then one per component to build its
    /// winner or replay another's (a no-op when that winner is infeasible).
    pub units: usize,
    /// Worker threads the larger of the search's two fan-outs spawned
    /// besides the caller. The one
    /// count that depends on the thread budget, so
    /// [`SearchCounters::counts`] leaves it out.
    pub workers_spawned: usize,
}

impl SearchCounters {
    /// Adds another record's entries, field by field.
    pub fn add(&mut self, other: &SearchCounters) {
        let SearchCounters {
            evals,
            cache_hits,
            fast_evals,
            full_builds,
            pruned,
            incremental_rebuilds,
            sweeps_run,
            scans_skipped,
            delta_declines,
            scan_truncations,
            reduction_deps,
            privatized_accumulators,
            replayed,
            replay_mismatches,
            deltas_built,
            delta_ns,
            tiles_walked,
            segments_shared,
            row_keys,
            fill_ns,
            walk_ns,
            segments_folded,
            fold_ns,
            recur_ns,
            bound_checks,
            bound_pruned,
            bound_ns,
            units,
            workers_spawned,
        } = *other;
        self.evals += evals;
        self.cache_hits += cache_hits;
        self.fast_evals += fast_evals;
        self.full_builds += full_builds;
        self.pruned += pruned;
        self.incremental_rebuilds += incremental_rebuilds;
        self.sweeps_run += sweeps_run;
        self.scans_skipped += scans_skipped;
        self.delta_declines += delta_declines;
        self.scan_truncations += scan_truncations;
        self.reduction_deps += reduction_deps;
        self.privatized_accumulators += privatized_accumulators;
        self.replayed += replayed;
        self.replay_mismatches += replay_mismatches;
        self.deltas_built += deltas_built;
        self.delta_ns += delta_ns;
        self.tiles_walked += tiles_walked;
        self.segments_shared += segments_shared;
        self.row_keys += row_keys;
        self.fill_ns += fill_ns;
        self.walk_ns += walk_ns;
        self.segments_folded += segments_folded;
        self.fold_ns += fold_ns;
        self.recur_ns += recur_ns;
        self.bound_checks += bound_checks;
        self.bound_pruned += bound_pruned;
        self.bound_ns += bound_ns;
        self.units += units;
        self.workers_spawned += workers_spawned;
    }

    /// Every entry under its field name, times as JSON numbers of ns.
    pub fn pairs(&self) -> Vec<(String, Json)> {
        let SearchCounters {
            evals,
            cache_hits,
            fast_evals,
            full_builds,
            pruned,
            incremental_rebuilds,
            sweeps_run,
            scans_skipped,
            delta_declines,
            scan_truncations,
            reduction_deps,
            privatized_accumulators,
            replayed,
            replay_mismatches,
            deltas_built,
            delta_ns,
            tiles_walked,
            segments_shared,
            row_keys,
            fill_ns,
            walk_ns,
            segments_folded,
            fold_ns,
            recur_ns,
            bound_checks,
            bound_pruned,
            bound_ns,
            units,
            workers_spawned,
        } = *self;
        let ns = |v: u64| Json::Num(v as f64);
        vec![
            ("evals".into(), evals.into()),
            ("cache_hits".into(), cache_hits.into()),
            ("fast_evals".into(), fast_evals.into()),
            ("full_builds".into(), full_builds.into()),
            ("pruned".into(), pruned.into()),
            ("incremental_rebuilds".into(), incremental_rebuilds.into()),
            ("sweeps_run".into(), sweeps_run.into()),
            ("scans_skipped".into(), scans_skipped.into()),
            ("delta_declines".into(), delta_declines.into()),
            ("scan_truncations".into(), scan_truncations.into()),
            ("reduction_deps".into(), reduction_deps.into()),
            (
                "privatized_accumulators".into(),
                privatized_accumulators.into(),
            ),
            ("replayed".into(), replayed.into()),
            ("replay_mismatches".into(), replay_mismatches.into()),
            ("deltas_built".into(), deltas_built.into()),
            ("delta_ns".into(), ns(delta_ns)),
            ("tiles_walked".into(), tiles_walked.into()),
            ("segments_shared".into(), segments_shared.into()),
            ("row_keys".into(), row_keys.into()),
            ("fill_ns".into(), ns(fill_ns)),
            ("walk_ns".into(), ns(walk_ns)),
            ("segments_folded".into(), segments_folded.into()),
            ("fold_ns".into(), ns(fold_ns)),
            ("recur_ns".into(), ns(recur_ns)),
            ("bound_checks".into(), bound_checks.into()),
            ("bound_pruned".into(), bound_pruned.into()),
            ("bound_ns".into(), ns(bound_ns)),
            ("units".into(), units.into()),
            ("workers_spawned".into(), workers_spawned.into()),
        ]
    }

    /// The deterministic entries of [`SearchCounters::pairs`]: every count
    /// except `workers_spawned`, none of the `*_ns` timers. They are equal
    /// for every thread budget.
    pub fn counts(&self) -> Vec<(String, Json)> {
        let mut pairs = self.pairs();
        pairs.retain(|(key, _)| !key.ends_with("_ns") && key != "workers_spawned");
        pairs
    }
}

/// Telemetry of the coordinate descent for one thread-group assignment.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AssignmentTelemetry {
    /// The thread-group assignment `R` (threads per level, outermost first).
    pub r: Vec<i64>,
    /// Best makespan seen so far after each coordinate sweep, in ns
    /// (cumulative minimum across the descent's starts and sweeps).
    pub sweep_best_ns: Vec<f64>,
    /// Final best makespan of this assignment in ns (`+∞` if infeasible).
    pub best_makespan_ns: f64,
    /// The assignment's evaluator record.
    pub counters: SearchCounters,
}

impl AssignmentTelemetry {
    /// JSON object for reports.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("r".into(), self.r.clone().into()),
            ("sweep_best_ns".into(), self.sweep_best_ns.clone().into()),
            ("best_makespan_ns".into(), self.best_makespan_ns.into()),
        ];
        pairs.extend(self.counters.pairs());
        Json::Obj(pairs)
    }
}

/// Aggregated telemetry of one component optimization.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SearchTelemetry {
    /// Per-assignment records, in deterministic enumeration order.
    pub assignments: Vec<AssignmentTelemetry>,
    /// Best makespan across assignments in ns.
    pub best_makespan_ns: f64,
    /// Seconds the assignment searches ran, summed over assignments (more
    /// than the wall clock when they ran in parallel).
    pub search_s: f64,
    /// Seconds spent building and evaluating the final schedule.
    pub schedule_build_s: f64,
    /// The assignments' records summed, plus what the component level adds
    /// (the winner's build, replays, reduction counts).
    pub counters: SearchCounters,
}

impl SearchTelemetry {
    /// Aggregates per-assignment records (summed counters and best
    /// makespan).
    pub fn from_assignments(assignments: Vec<AssignmentTelemetry>) -> Self {
        let mut t = SearchTelemetry {
            best_makespan_ns: f64::INFINITY,
            ..SearchTelemetry::default()
        };
        for a in &assignments {
            t.counters.add(&a.counters);
            t.best_makespan_ns = t.best_makespan_ns.min(a.best_makespan_ns);
        }
        t.assignments = assignments;
        t
    }

    /// Telemetry of a search that evaluated exactly one candidate (the
    /// greedy baseline and other single-shot strategies). The single
    /// evaluation materializes a full schedule (`full_builds = 1`).
    pub fn single(r: Vec<i64>, makespan_ns: f64) -> Self {
        SearchTelemetry::from_assignments(vec![AssignmentTelemetry {
            r,
            sweep_best_ns: vec![makespan_ns],
            best_makespan_ns: makespan_ns,
            counters: SearchCounters {
                evals: 1,
                full_builds: 1,
                ..SearchCounters::default()
            },
        }])
    }

    /// Telemetry of a component whose winner was replayed from an identical
    /// earlier component: no assignments, no evaluations, one materializing
    /// build that produced `makespan_ns`.
    pub fn replayed(makespan_ns: f64) -> Self {
        SearchTelemetry {
            best_makespan_ns: makespan_ns,
            counters: SearchCounters {
                full_builds: 1,
                replayed: 1,
                ..SearchCounters::default()
            },
            ..SearchTelemetry::default()
        }
    }

    /// Total makespan lookups: uncached evaluations plus cache hits.
    pub fn lookups(&self) -> usize {
        self.counters.evals + self.counters.cache_hits
    }

    /// Fraction of lookups answered by the memo cache (0 when none).
    pub fn cache_hit_rate(&self) -> f64 {
        match self.lookups() {
            0 => 0.0,
            n => self.counters.cache_hits as f64 / n as f64,
        }
    }

    /// Global convergence curve: best makespan known after each sweep index,
    /// taking every assignment's descent into account. Monotone
    /// non-increasing by construction.
    pub fn convergence(&self) -> Vec<f64> {
        let len = self
            .assignments
            .iter()
            .map(|a| a.sweep_best_ns.len())
            .max()
            .unwrap_or(0);
        let mut curve = Vec::with_capacity(len);
        let mut best = f64::INFINITY;
        for s in 0..len {
            for a in &self.assignments {
                // An assignment whose descent already finished contributes
                // its final value.
                let v = match a.sweep_best_ns.get(s) {
                    Some(&v) => v,
                    None => a.best_makespan_ns,
                };
                best = best.min(v);
            }
            curve.push(best);
        }
        curve
    }

    /// Folds another component's telemetry into an application-level total.
    /// Per-assignment detail is not merged — only counters and times.
    pub fn absorb(&mut self, other: &SearchTelemetry) {
        self.counters.add(&other.counters);
        self.search_s += other.search_s;
        self.schedule_build_s += other.schedule_build_s;
        self.best_makespan_ns = self.best_makespan_ns.min(other.best_makespan_ns);
    }

    /// JSON object for reports. `detail` includes the per-assignment records.
    pub fn to_json(&self, detail: bool) -> Json {
        let mut pairs = self.counters.pairs();
        pairs.extend([
            ("cache_hit_rate".into(), self.cache_hit_rate().into()),
            ("best_makespan_ns".into(), self.best_makespan_ns.into()),
            ("search_s".into(), self.search_s.into()),
            ("schedule_build_s".into(), self.schedule_build_s.into()),
            ("convergence_ns".into(), self.convergence().into()),
        ]);
        if detail {
            pairs.push((
                "assignments".to_string(),
                Json::Arr(self.assignments.iter().map(|a| a.to_json()).collect()),
            ));
        }
        Json::Obj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SearchTelemetry {
        let assignment = |r: Vec<i64>, evals, cache_hits, sweep_best_ns: Vec<f64>| {
            let sweeps_run = sweep_best_ns.len();
            AssignmentTelemetry {
                r,
                best_makespan_ns: *sweep_best_ns.last().unwrap(),
                sweep_best_ns,
                counters: SearchCounters {
                    evals,
                    cache_hits,
                    sweeps_run,
                    ..SearchCounters::default()
                },
            }
        };
        SearchTelemetry::from_assignments(vec![
            assignment(vec![8, 1], 10, 5, vec![100.0, 80.0, 80.0]),
            assignment(vec![4, 2], 7, 3, vec![90.0, 70.0]),
        ])
    }

    #[test]
    fn totals_sum_over_assignments() {
        let t = sample();
        assert_eq!(t.counters.evals, 17);
        assert_eq!(t.counters.cache_hits, 8);
        assert_eq!(t.lookups(), 25);
        assert!((t.cache_hit_rate() - 8.0 / 25.0).abs() < 1e-12);
        assert_eq!(t.best_makespan_ns, 70.0);
        assert_eq!(t.counters.sweeps_run, 5);
    }

    #[test]
    fn convergence_is_monotone_and_covers_short_assignments() {
        let t = sample();
        let c = t.convergence();
        assert_eq!(c, vec![90.0, 70.0, 70.0]);
        assert!(c.windows(2).all(|w| w[1] <= w[0]));
    }

    #[test]
    fn single_shot_telemetry() {
        let t = SearchTelemetry::single(vec![8], 42.0);
        assert_eq!(t.counters.evals, 1);
        assert_eq!(t.counters.full_builds, 1);
        assert_eq!(t.cache_hit_rate(), 0.0);
        assert_eq!(t.convergence(), vec![42.0]);
    }

    /// `add` sums every field: a record whose entries are all distinct,
    /// added to itself, doubles each one.
    #[test]
    fn add_sums_every_field() {
        let c = SearchCounters {
            evals: 1,
            cache_hits: 2,
            fast_evals: 3,
            full_builds: 4,
            pruned: 5,
            incremental_rebuilds: 6,
            sweeps_run: 7,
            scans_skipped: 8,
            delta_declines: 9,
            scan_truncations: 10,
            reduction_deps: 11,
            privatized_accumulators: 12,
            replayed: 13,
            replay_mismatches: 14,
            deltas_built: 15,
            delta_ns: 16,
            tiles_walked: 17,
            segments_shared: 18,
            fill_ns: 19,
            walk_ns: 20,
            segments_folded: 21,
            fold_ns: 22,
            recur_ns: 23,
            bound_checks: 24,
            bound_pruned: 25,
            bound_ns: 26,
            units: 27,
            workers_spawned: 28,
            row_keys: 29,
        };
        let mut doubled = c;
        doubled.add(&c);
        for ((key, once), (_, twice)) in c.pairs().into_iter().zip(doubled.pairs()) {
            assert_eq!(
                twice.as_f64(),
                once.as_f64().map(|v| 2.0 * v),
                "{key} not summed"
            );
        }
        assert_eq!(c.counts().len(), 22);
        assert_eq!(c.pairs().len(), 29);
    }

    #[test]
    fn absorb_accumulates_counters() {
        let mut t = sample();
        t.counters.fast_evals = 15;
        t.counters.scan_truncations = 4;
        t.counters.bound_pruned = 3;
        let mut other = SearchTelemetry::single(vec![1], 60.0);
        other.counters.bound_pruned = 4;
        other.counters.walk_ns = 20;
        other.search_s = 0.5;
        t.absorb(&other);
        t.absorb(&SearchTelemetry::replayed(65.0));
        assert_eq!(t.counters.evals, 18);
        assert_eq!(t.best_makespan_ns, 60.0);
        assert_eq!(t.search_s, 0.5);
        // single() and replayed() each materialize one schedule; only
        // single() evaluates a candidate.
        assert_eq!(t.counters.full_builds, 2);
        assert_eq!(t.counters.replayed, 1);
        assert_eq!(t.counters.fast_evals, 15);
        assert_eq!(t.counters.scan_truncations, 4);
        // single() runs no sweeps.
        assert_eq!(t.counters.sweeps_run, 5);
        assert_eq!(t.counters.bound_pruned, 7);
        assert_eq!(t.counters.walk_ns, 20);
    }

    /// The report keys are exactly these: the record's 28 entries and the
    /// five derived values. Readers look the counts up by key, so a dropped
    /// or extra key fails here.
    #[test]
    fn json_has_expected_keys() {
        let keys = |j: &Json| -> Vec<String> {
            let Json::Obj(pairs) = j else {
                panic!("not an object")
            };
            let mut keys: Vec<String> = pairs.iter().map(|(k, _)| k.clone()).collect();
            keys.sort();
            keys
        };
        let mut want = vec![
            "evals",
            "cache_hits",
            "cache_hit_rate",
            "best_makespan_ns",
            "search_s",
            "schedule_build_s",
            "fast_evals",
            "full_builds",
            "pruned",
            "incremental_rebuilds",
            "sweeps_run",
            "scans_skipped",
            "delta_declines",
            "scan_truncations",
            "reduction_deps",
            "privatized_accumulators",
            "replayed",
            "replay_mismatches",
            "convergence_ns",
            "deltas_built",
            "delta_ns",
            "tiles_walked",
            "segments_shared",
            "row_keys",
            "fill_ns",
            "walk_ns",
            "segments_folded",
            "fold_ns",
            "recur_ns",
            "bound_checks",
            "bound_pruned",
            "bound_ns",
            "units",
            "workers_spawned",
        ];
        want.sort_unstable();
        assert_eq!(want.len(), 34);
        assert_eq!(keys(&sample().to_json(false)), want);

        let j = sample().to_json(true);
        let mut with_detail = want.clone();
        with_detail.push("assignments");
        with_detail.sort_unstable();
        assert_eq!(keys(&j), with_detail);
        let detail = j.get("assignments").and_then(Json::as_arr).expect("detail");
        assert_eq!(detail.len(), 2);
        assert_eq!(detail[0].get("evals").and_then(Json::as_f64), Some(10.0));
    }
}
