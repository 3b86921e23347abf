//! Structured optimizer search telemetry.
//!
//! The component optimizer (Algorithm 1) explores one coordinate-descent
//! search per non-dominated thread-group assignment; each search memoizes
//! makespan evaluations. The types here record, per assignment: how many
//! schedules were actually built (`evals`), how many lookups the memo cache
//! absorbed (`cache_hits`) and the best-so-far makespan after each
//! coordinate sweep (`sweep_best_ns`, a convergence curve that is monotone
//! non-increasing by construction).

use crate::json::Json;

/// Telemetry of the coordinate descent for one thread-group assignment.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AssignmentTelemetry {
    /// The thread-group assignment `R` (threads per level, outermost first).
    pub r: Vec<i64>,
    /// Uncached makespan evaluations (schedule constructions).
    pub evals: usize,
    /// Memoized lookups answered from the cache.
    pub cache_hits: usize,
    /// Best makespan seen so far after each coordinate sweep, in ns
    /// (cumulative minimum across the descent's starts and sweeps).
    pub sweep_best_ns: Vec<f64>,
    /// Final best makespan of this assignment in ns (`+∞` if infeasible).
    pub best_makespan_ns: f64,
    /// Coordinate sweeps actually executed (across the descent's starts) —
    /// fewer than the `max_iter` ceiling when a start reached its fixpoint.
    pub sweeps_run: usize,
}

impl AssignmentTelemetry {
    /// JSON object for reports.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("r", Json::from(self.r.clone())),
            ("evals", Json::from(self.evals)),
            ("cache_hits", Json::from(self.cache_hits)),
            ("sweep_best_ns", Json::from(self.sweep_best_ns.clone())),
            ("best_makespan_ns", Json::from(self.best_makespan_ns)),
            ("sweeps_run", Json::from(self.sweeps_run)),
        ])
    }
}

/// Always-on work ledger of the search's evaluator: per stage, the busy
/// time in ns next to a work count that is identical across runs of the
/// same input, so a time can always be read per unit of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkLedger {
    /// Coordinate-scan delta contexts constructed (`CoordinateDelta::new`).
    pub deltas_built: usize,
    /// Time spent constructing them.
    pub delta_ns: u64,
    /// Segments of the candidate analyses the tile walks produced
    /// (incremental rebuilds and from-scratch builds).
    pub tiles_walked: usize,
    /// Time spent in those walks.
    pub walk_ns: u64,
    /// Segments folded by the makespan recurrence (fewer than walked when a
    /// walk finds an SPM overflow the analytic pre-gate missed).
    pub segments_folded: usize,
    /// Time spent folding.
    pub fold_ns: u64,
    /// Walk-free makespan lower bounds computed.
    pub bound_checks: usize,
    /// Candidates whose evaluation a bound proved unnecessary.
    pub bound_pruned: usize,
    /// Time spent computing bounds.
    pub bound_ns: u64,
}

impl WorkLedger {
    /// Adds another ledger's entries.
    pub fn add(&mut self, other: &WorkLedger) {
        self.deltas_built += other.deltas_built;
        self.delta_ns += other.delta_ns;
        self.tiles_walked += other.tiles_walked;
        self.walk_ns += other.walk_ns;
        self.segments_folded += other.segments_folded;
        self.fold_ns += other.fold_ns;
        self.bound_checks += other.bound_checks;
        self.bound_pruned += other.bound_pruned;
        self.bound_ns += other.bound_ns;
    }

    /// The deterministic entries: deltas built, tiles walked, segments
    /// folded, bounds computed and candidates pruned.
    pub fn counts(&self) -> [usize; 5] {
        [
            self.deltas_built,
            self.tiles_walked,
            self.segments_folded,
            self.bound_checks,
            self.bound_pruned,
        ]
    }

    /// Report keys and values (times as JSON numbers of ns).
    pub fn pairs(&self) -> Vec<(String, Json)> {
        let ns = |v: u64| Json::Num(v as f64);
        vec![
            ("deltas_built".into(), Json::from(self.deltas_built)),
            ("delta_ns".into(), ns(self.delta_ns)),
            ("tiles_walked".into(), Json::from(self.tiles_walked)),
            ("walk_ns".into(), ns(self.walk_ns)),
            ("segments_folded".into(), Json::from(self.segments_folded)),
            ("fold_ns".into(), ns(self.fold_ns)),
            ("bound_checks".into(), Json::from(self.bound_checks)),
            ("bound_pruned".into(), Json::from(self.bound_pruned)),
            ("bound_ns".into(), ns(self.bound_ns)),
        ]
    }
}

/// Aggregated telemetry of one component optimization.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SearchTelemetry {
    /// Per-assignment records, in deterministic enumeration order.
    pub assignments: Vec<AssignmentTelemetry>,
    /// Total uncached evaluations across assignments.
    pub evals: usize,
    /// Total cache hits across assignments.
    pub cache_hits: usize,
    /// Best makespan across assignments in ns.
    pub best_makespan_ns: f64,
    /// Wall-clock seconds spent searching (descent over all assignments).
    pub search_s: f64,
    /// Wall-clock seconds spent building/evaluating the final schedule.
    pub schedule_build_s: f64,
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
    /// Coordinate sweeps executed across all assignments (each bounded by
    /// the `max_iter` ceiling; smaller when a start reached its fixpoint).
    pub sweeps_run: usize,
    /// Single-coordinate scans not run because no other coordinate had
    /// moved since the level's previous scan, so its argmin could not change.
    pub scans_skipped: usize,
    /// Coordinate scans whose context the lane walk cannot hold: the delta
    /// declined construction and every candidate of the scan was built by
    /// the reference analysis build. The real kernel suite reports 0.
    pub delta_declines: usize,
    /// Scan candidates answered by the replayed segment-cap check without
    /// walking any tiles.
    pub scan_truncations: usize,
    /// Intra-component dependences classified as reduction chains
    /// (associative-commutative accumulator updates). Counted whether or not
    /// the reduction pass is enabled — the detector always runs.
    pub reduction_deps: usize,
    /// Accumulator arrays actually privatized for parallel execution
    /// (nonzero only when the optimizer runs with reductions enabled).
    pub privatized_accumulators: usize,
    /// 1 when the winner was not searched but replayed from an earlier
    /// component of the same application with identical content (and still
    /// materialized through the oracle: `full_builds == 1`, `evals == 0`).
    pub replayed: usize,
    /// Replays whose oracle makespan differed from the memoized winner's and
    /// were therefore answered by a real search instead. Must stay 0.
    pub replay_mismatches: usize,
    /// Where the evaluator's time went, stage by stage (see [`WorkLedger`]).
    pub ledger: WorkLedger,
}

impl SearchTelemetry {
    /// Aggregates per-assignment records (totals and best makespan).
    pub fn from_assignments(assignments: Vec<AssignmentTelemetry>) -> Self {
        let evals = assignments.iter().map(|a| a.evals).sum();
        let cache_hits = assignments.iter().map(|a| a.cache_hits).sum();
        let sweeps_run = assignments.iter().map(|a| a.sweeps_run).sum();
        let best_makespan_ns = assignments
            .iter()
            .map(|a| a.best_makespan_ns)
            .fold(f64::INFINITY, f64::min);
        SearchTelemetry {
            assignments,
            evals,
            cache_hits,
            best_makespan_ns,
            search_s: 0.0,
            schedule_build_s: 0.0,
            fast_evals: 0,
            full_builds: 0,
            pruned: 0,
            incremental_rebuilds: 0,
            sweeps_run,
            scans_skipped: 0,
            delta_declines: 0,
            scan_truncations: 0,
            reduction_deps: 0,
            privatized_accumulators: 0,
            replayed: 0,
            replay_mismatches: 0,
            ledger: WorkLedger::default(),
        }
    }

    /// Telemetry of a search that evaluated exactly one candidate (the
    /// greedy baseline and other single-shot strategies). The single
    /// evaluation materializes a full schedule (`full_builds = 1`).
    pub fn single(r: Vec<i64>, makespan_ns: f64) -> Self {
        let mut t = SearchTelemetry::from_assignments(vec![AssignmentTelemetry {
            r,
            evals: 1,
            cache_hits: 0,
            sweep_best_ns: vec![makespan_ns],
            best_makespan_ns: makespan_ns,
            sweeps_run: 0,
        }]);
        t.full_builds = 1;
        t
    }

    /// Telemetry of a component whose winner was replayed from an identical
    /// earlier component: no assignments, no evaluations, one materializing
    /// build that produced `makespan_ns`.
    pub fn replayed(makespan_ns: f64) -> Self {
        let mut t = SearchTelemetry::from_assignments(Vec::new());
        t.best_makespan_ns = makespan_ns;
        t.full_builds = 1;
        t.replayed = 1;
        t
    }

    /// Total makespan lookups: uncached evaluations plus cache hits.
    pub fn lookups(&self) -> usize {
        self.evals + self.cache_hits
    }

    /// Fraction of lookups answered by the memo cache (0 when none).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.lookups() as f64
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
        self.evals += other.evals;
        self.cache_hits += other.cache_hits;
        self.search_s += other.search_s;
        self.schedule_build_s += other.schedule_build_s;
        self.fast_evals += other.fast_evals;
        self.full_builds += other.full_builds;
        self.pruned += other.pruned;
        self.incremental_rebuilds += other.incremental_rebuilds;
        self.sweeps_run += other.sweeps_run;
        self.scans_skipped += other.scans_skipped;
        self.delta_declines += other.delta_declines;
        self.scan_truncations += other.scan_truncations;
        self.reduction_deps += other.reduction_deps;
        self.privatized_accumulators += other.privatized_accumulators;
        self.replayed += other.replayed;
        self.replay_mismatches += other.replay_mismatches;
        self.ledger.add(&other.ledger);
        self.best_makespan_ns = self.best_makespan_ns.min(other.best_makespan_ns);
    }

    /// JSON object for reports. `detail` includes the per-assignment records.
    pub fn to_json(&self, detail: bool) -> Json {
        let mut pairs = vec![
            ("evals".to_string(), Json::from(self.evals)),
            ("cache_hits".to_string(), Json::from(self.cache_hits)),
            (
                "cache_hit_rate".to_string(),
                Json::from(self.cache_hit_rate()),
            ),
            (
                "best_makespan_ns".to_string(),
                Json::from(self.best_makespan_ns),
            ),
            ("search_s".to_string(), Json::from(self.search_s)),
            (
                "schedule_build_s".to_string(),
                Json::from(self.schedule_build_s),
            ),
            ("fast_evals".to_string(), Json::from(self.fast_evals)),
            ("full_builds".to_string(), Json::from(self.full_builds)),
            ("pruned".to_string(), Json::from(self.pruned)),
            (
                "incremental_rebuilds".to_string(),
                Json::from(self.incremental_rebuilds),
            ),
            ("sweeps_run".to_string(), Json::from(self.sweeps_run)),
            ("scans_skipped".to_string(), Json::from(self.scans_skipped)),
            (
                "delta_declines".to_string(),
                Json::from(self.delta_declines),
            ),
            (
                "scan_truncations".to_string(),
                Json::from(self.scan_truncations),
            ),
            (
                "reduction_deps".to_string(),
                Json::from(self.reduction_deps),
            ),
            (
                "privatized_accumulators".to_string(),
                Json::from(self.privatized_accumulators),
            ),
            ("replayed".to_string(), Json::from(self.replayed)),
            (
                "replay_mismatches".to_string(),
                Json::from(self.replay_mismatches),
            ),
            ("convergence_ns".to_string(), Json::from(self.convergence())),
        ];
        pairs.extend(self.ledger.pairs());
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
        SearchTelemetry::from_assignments(vec![
            AssignmentTelemetry {
                r: vec![8, 1],
                evals: 10,
                cache_hits: 5,
                sweep_best_ns: vec![100.0, 80.0, 80.0],
                best_makespan_ns: 80.0,
                sweeps_run: 3,
            },
            AssignmentTelemetry {
                r: vec![4, 2],
                evals: 7,
                cache_hits: 3,
                sweep_best_ns: vec![90.0, 70.0],
                best_makespan_ns: 70.0,
                sweeps_run: 2,
            },
        ])
    }

    #[test]
    fn totals_sum_over_assignments() {
        let t = sample();
        assert_eq!(t.evals, 17);
        assert_eq!(t.cache_hits, 8);
        assert_eq!(t.lookups(), 25);
        assert!((t.cache_hit_rate() - 8.0 / 25.0).abs() < 1e-12);
        assert_eq!(t.best_makespan_ns, 70.0);
        assert_eq!(t.sweeps_run, 5);
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
        assert_eq!(t.evals, 1);
        assert_eq!(t.cache_hit_rate(), 0.0);
        assert_eq!(t.convergence(), vec![42.0]);
    }

    #[test]
    fn absorb_accumulates_counters() {
        let mut t = sample();
        t.fast_evals = 15;
        t.pruned = 4;
        t.incremental_rebuilds = 6;
        t.scans_skipped = 9;
        t.delta_declines = 2;
        t.scan_truncations = 4;
        t.reduction_deps = 2;
        t.privatized_accumulators = 1;
        t.replay_mismatches = 1;
        t.ledger.bound_pruned = 3;
        let mut other = SearchTelemetry::single(vec![1], 60.0);
        other.ledger = WorkLedger {
            deltas_built: 2,
            delta_ns: 10,
            tiles_walked: 40,
            walk_ns: 20,
            segments_folded: 30,
            fold_ns: 5,
            bound_checks: 6,
            bound_pruned: 4,
            bound_ns: 1,
        };
        t.absorb(&other);
        t.absorb(&SearchTelemetry::replayed(65.0));
        assert_eq!(t.evals, 18);
        assert_eq!(t.best_makespan_ns, 60.0);
        // single() and replayed() each materialize one schedule; only
        // single() evaluates a candidate.
        assert_eq!(t.full_builds, 2);
        assert_eq!(t.replayed, 1);
        assert_eq!(t.replay_mismatches, 1);
        assert_eq!(t.fast_evals, 15);
        assert_eq!(t.pruned, 4);
        assert_eq!(t.incremental_rebuilds, 6);
        // single() runs no sweeps and never prunes.
        assert_eq!(t.sweeps_run, 5);
        assert_eq!(t.scans_skipped, 9);
        assert_eq!(t.delta_declines, 2);
        assert_eq!(t.scan_truncations, 4);
        assert_eq!(t.reduction_deps, 2);
        assert_eq!(t.privatized_accumulators, 1);
        assert_eq!(t.ledger.counts(), [2, 40, 30, 6, 7]);
        assert_eq!(
            (
                t.ledger.delta_ns,
                t.ledger.walk_ns,
                t.ledger.fold_ns,
                t.ledger.bound_ns
            ),
            (10, 20, 5, 1)
        );
    }

    #[test]
    fn json_has_expected_keys() {
        let j = sample().to_json(true);
        for key in [
            "evals",
            "cache_hits",
            "cache_hit_rate",
            "best_makespan_ns",
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
            "walk_ns",
            "segments_folded",
            "fold_ns",
            "bound_checks",
            "bound_pruned",
            "bound_ns",
            "assignments",
        ] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
        assert_eq!(
            j.get("assignments")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(2)
        );
    }
}
