//! Tiling and thread-group solutions (§3.4).
//!
//! A scheduling solution assigns each component level a tile size `K` and a
//! thread-group count `R`. Level `j` splits into `M = ⌈N/K⌉` iteration
//! ranges, partitioned contiguously over `R` thread groups of at most
//! `Z = ⌈M/R⌉` ranges each; the total thread count is `Π R_j ≤ P`.

use crate::component::Component;
use prem_polyhedral::{div_ceil, Interval};
use std::fmt;

/// Hard cap on the number of segments a solution may create. Solutions past
/// the cap are rejected as infeasible: their per-segment API overhead makes
/// them non-competitive, and walking them would dominate optimizer runtime
/// (the paper reports the same blow-up for tiny tiles, Fig. 6.2).
pub const SEGMENT_CAP: u64 = 1 << 17;

/// Counter range of tile `t` on a level of `count` iterations tiled by `k`:
/// `[t·k, min((t + 1)·k − 1, count − 1)]`. `t·k < count` always fits in
/// `i64`, but `(t + 1)·k` can overflow on the last tile of a huge-extent
/// level; the saturated product still clamps to `count − 1`, the exact
/// boundary value. The one formula of every tile plan and of the
/// incremental rebuild, which keeps their ranges bitwise equal.
#[inline]
pub fn tile_range(t: i64, k: i64, count: i64) -> Interval {
    let hi = t
        .saturating_add(1)
        .saturating_mul(k)
        .saturating_sub(1)
        .min(count - 1);
    Interval::new(t * k, hi)
}

/// A scheduling solution for one component.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Solution {
    /// Tile size per level (`l_j.K`), outermost first.
    pub k: Vec<i64>,
    /// Thread groups per level (`l_j.R`).
    pub r: Vec<i64>,
}

impl Solution {
    /// The trivial solution: one tile (K = N) and one thread.
    pub fn untiled(component: &Component) -> Solution {
        Solution {
            k: component.levels.iter().map(|l| l.count).collect(),
            r: vec![1; component.depth()],
        }
    }

    /// Iteration-range count `M_j = ⌈N_j / K_j⌉` per level.
    pub fn m(&self, component: &Component) -> Vec<i64> {
        self.k
            .iter()
            .zip(&component.levels)
            .map(|(&k, l)| div_ceil(l.count, k))
            .collect()
    }

    /// Ranges per thread group `Z_j = ⌈M_j / R_j⌉`.
    pub fn z(&self, component: &Component) -> Vec<i64> {
        self.m(component)
            .iter()
            .zip(&self.r)
            .map(|(&m, &r)| div_ceil(m, r))
            .collect()
    }

    /// Total threads `Π R_j`.
    pub fn threads(&self) -> i64 {
        self.r.iter().product()
    }

    /// Total segment count `Π M_j` (saturating, so the [`SEGMENT_CAP`] gate
    /// cannot be bypassed by wraparound).
    pub fn total_tiles(&self, component: &Component) -> u64 {
        self.m(component)
            .iter()
            .fold(1u64, |acc, &m| acc.saturating_mul(m as u64))
    }
}

impl fmt::Display for Solution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "K={:?} R={:?}", self.k, self.r)
    }
}

/// Reason a solution cannot be scheduled.
#[derive(Debug, Clone, PartialEq)]
pub enum Infeasible {
    /// A non-parallel level was given more than one thread group.
    ParallelismViolation {
        /// Offending level index.
        level: usize,
    },
    /// `Π R_j` exceeds the available cores.
    TooManyThreads {
        /// Requested thread count.
        requested: i64,
        /// Available cores.
        available: usize,
    },
    /// Segment count exceeds [`SEGMENT_CAP`].
    TooManySegments {
        /// Requested segment count.
        count: u64,
    },
    /// The double-buffered working set does not fit the SPM.
    SpmOverflow {
        /// Bytes needed for both partitions.
        needed: i64,
        /// SPM capacity.
        capacity: i64,
    },
    /// Consecutive segments have overlapping-but-different canonical ranges
    /// for an array with RAW/WAW dependences (§5.3.1).
    RangeOverlap {
        /// Offending array name.
        array: String,
    },
    /// Data written in one segment would be evicted before a dependent
    /// segment reads it (buffer persistence violated).
    PersistenceViolation {
        /// Offending array name.
        array: String,
    },
}

impl fmt::Display for Infeasible {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Infeasible::ParallelismViolation { level } => {
                write!(f, "level {level} is not parallelizable but R > 1")
            }
            Infeasible::TooManyThreads {
                requested,
                available,
            } => {
                write!(
                    f,
                    "solution needs {requested} threads, only {available} cores"
                )
            }
            Infeasible::TooManySegments { count } => {
                write!(f, "solution creates {count} segments (cap {SEGMENT_CAP})")
            }
            Infeasible::SpmOverflow { needed, capacity } => {
                write!(f, "working set {needed} B exceeds SPM {capacity} B")
            }
            Infeasible::RangeOverlap { array } => {
                write!(f, "overlapping canonical ranges on array {array}")
            }
            Infeasible::PersistenceViolation { array } => {
                write!(f, "buffer persistence violated for array {array}")
            }
        }
    }
}

impl std::error::Error for Infeasible {}

/// The tile-to-thread mapping of a solution.
///
/// Each core's tile set is a *box* of tile indices (the cartesian product of
/// its per-level group ranges), so tiles are enumerated on demand instead of
/// being materialized — the optimizer evaluates thousands of solutions and
/// some probe millions of tiles.
#[derive(Debug, Clone)]
pub struct TilePlan {
    /// `M_j` per level.
    pub m: Vec<i64>,
    /// `Z_j` per level.
    pub z: Vec<i64>,
    /// Counter range per level per tile index.
    pub level_ranges: Vec<Vec<Interval>>,
    /// Per core, the (inclusive) tile-index range it owns per level; `None`
    /// for cores with no tiles.
    pub core_boxes: Vec<Option<Vec<Interval>>>,
}

impl TilePlan {
    /// Builds the tile plan for a solution on `cores` cores.
    ///
    /// # Errors
    ///
    /// Returns [`Infeasible`] for invalid parallelism, thread counts or
    /// segment counts.
    pub fn build(
        component: &Component,
        solution: &Solution,
        cores: usize,
    ) -> Result<TilePlan, Infeasible> {
        assert_eq!(solution.k.len(), component.depth());
        assert_eq!(solution.r.len(), component.depth());
        for (j, (lv, &r)) in component.levels.iter().zip(&solution.r).enumerate() {
            if !lv.parallel && r > 1 {
                return Err(Infeasible::ParallelismViolation { level: j });
            }
        }
        let threads = solution.threads();
        if threads > cores as i64 {
            return Err(Infeasible::TooManyThreads {
                requested: threads,
                available: cores,
            });
        }
        let total = solution.total_tiles(component);
        if total > SEGMENT_CAP {
            return Err(Infeasible::TooManySegments { count: total });
        }

        let m = solution.m(component);
        let z = solution.z(component);
        let level_ranges: Vec<Vec<Interval>> = component
            .levels
            .iter()
            .zip(&solution.k)
            .zip(&m)
            .map(|((lv, &k), &mj)| (0..mj).map(|t| tile_range(t, k, lv.count)).collect())
            .collect();

        // Radix weights for the thread id: thread = Σ g_j · Π_{k > j} R_k.
        let depth = component.depth();
        let mut weight = vec![1i64; depth];
        for j in (0..depth.saturating_sub(1)).rev() {
            weight[j] = weight[j + 1] * solution.r[j + 1];
        }

        let core_boxes = (0..cores)
            .map(|core| {
                let c = core as i64;
                if c >= threads {
                    return None;
                }
                let mut bx = Vec::with_capacity(depth);
                for j in 0..depth {
                    let g = (c / weight[j]) % solution.r[j];
                    let lo = g * z[j];
                    let hi = ((g + 1) * z[j] - 1).min(m[j] - 1);
                    if lo > hi {
                        return None;
                    }
                    bx.push(Interval::new(lo, hi));
                }
                Some(bx)
            })
            .collect();

        Ok(TilePlan {
            m,
            z,
            level_ranges,
            core_boxes,
        })
    }

    /// Re-targets coordinate `j` of a plan built for a solution that differs
    /// only at `k[j]`, reusing the frozen levels' storage instead of
    /// rebuilding them. Replays [`TilePlan::build`]'s feasibility checks in
    /// the same order (so the reported [`Infeasible`] is bitwise identical),
    /// then rewrites only the `j`-dependent state: `m[j]`, `z[j]`,
    /// `level_ranges[j]` and the per-core boxes. On `Err` the plan keeps its
    /// previous (valid) contents and stays usable.
    ///
    /// # Errors
    ///
    /// Returns [`Infeasible`] for invalid parallelism, thread counts or
    /// segment counts, exactly as a fresh build of `solution` would.
    pub fn set_coordinate(
        &mut self,
        component: &Component,
        solution: &Solution,
        j: usize,
    ) -> Result<(), Infeasible> {
        assert_eq!(solution.k.len(), component.depth());
        assert_eq!(solution.r.len(), component.depth());
        let cores = self.core_boxes.len();
        for (i, (lv, &r)) in component.levels.iter().zip(&solution.r).enumerate() {
            if !lv.parallel && r > 1 {
                return Err(Infeasible::ParallelismViolation { level: i });
            }
        }
        let threads = solution.threads();
        if threads > cores as i64 {
            return Err(Infeasible::TooManyThreads {
                requested: threads,
                available: cores,
            });
        }
        let total = solution.total_tiles(component);
        if total > SEGMENT_CAP {
            return Err(Infeasible::TooManySegments { count: total });
        }

        let lv = &component.levels[j];
        let k = solution.k[j];
        self.m[j] = div_ceil(lv.count, k);
        self.z[j] = div_ceil(self.m[j], solution.r[j]);
        self.level_ranges[j].clear();
        self.level_ranges[j].extend((0..self.m[j]).map(|t| tile_range(t, k, lv.count)));

        let depth = component.depth();
        let mut weight = vec![1i64; depth];
        for i in (0..depth.saturating_sub(1)).rev() {
            weight[i] = weight[i + 1] * solution.r[i + 1];
        }

        // The frozen levels' group ranges are unchanged, but recomputing the
        // whole box is O(depth) per core — cheap next to the per-level range
        // fill above — and keeps the `lo > hi → None` transitions exact.
        let mut scratch: Vec<Interval> = Vec::with_capacity(depth);
        for (core, slot) in self.core_boxes.iter_mut().enumerate() {
            let c = core as i64;
            if c >= threads {
                *slot = None;
                continue;
            }
            scratch.clear();
            let mut empty = false;
            for (i, &w) in weight.iter().enumerate() {
                let g = (c / w) % solution.r[i];
                let lo = g * self.z[i];
                let hi = ((g + 1) * self.z[i] - 1).min(self.m[i] - 1);
                if lo > hi {
                    empty = true;
                    break;
                }
                scratch.push(Interval::new(lo, hi));
            }
            if empty {
                *slot = None;
            } else {
                match slot {
                    Some(bx) => {
                        bx.clear();
                        bx.extend_from_slice(&scratch);
                    }
                    None => *slot = Some(scratch.clone()),
                }
            }
        }
        Ok(())
    }

    /// Number of segments a core executes.
    pub fn core_nseg(&self, core: usize) -> usize {
        match &self.core_boxes[core] {
            Some(bx) => bx.iter().map(|iv| iv.len() as usize).product(),
            None => 0,
        }
    }

    /// Visits the tiles of one core in lexicographic order. The callback
    /// receives the tile-index vector (reused between calls).
    pub fn for_each_core_tile<F: FnMut(&[i64])>(&self, core: usize, mut f: F) {
        let Some(bx) = &self.core_boxes[core] else {
            return;
        };
        let depth = bx.len();
        let mut tile: Vec<i64> = bx.iter().map(|iv| iv.lo).collect();
        'outer: loop {
            f(&tile);
            let mut j = depth;
            loop {
                if j == 0 {
                    break 'outer;
                }
                j -= 1;
                tile[j] += 1;
                if tile[j] <= bx[j].hi {
                    break;
                }
                tile[j] = bx[j].lo;
            }
        }
    }

    /// The tiles of one core, materialized (for tests, code generation and
    /// the functional simulator).
    pub fn core_tiles(&self, core: usize) -> Vec<Vec<i64>> {
        let mut out = Vec::with_capacity(self.core_nseg(core));
        self.for_each_core_tile(core, |t| out.push(t.to_vec()));
        out
    }

    /// Per-level counter ranges of a tile.
    pub fn tile_ranges(&self, tile: &[i64]) -> Vec<Interval> {
        tile.iter()
            .enumerate()
            .map(|(j, &t)| self.level_ranges[j][t as usize])
            .collect()
    }

    /// Writes the per-level counter ranges of a tile into `out`.
    pub fn tile_ranges_into(&self, tile: &[i64], out: &mut Vec<Interval>) {
        out.clear();
        out.extend(
            tile.iter()
                .enumerate()
                .map(|(j, &t)| self.level_ranges[j][t as usize]),
        );
    }

    /// Per-level extents of a tile (clipped at the loop bound).
    pub fn tile_extents(&self, tile: &[i64]) -> Vec<i64> {
        self.tile_ranges(tile)
            .iter()
            .map(|r| r.len() as i64)
            .collect()
    }
}

/// Analytic SPM-footprint estimate: the double-buffered working set of a
/// solution, computed from probe tiles without enumerating segments. Interior
/// tiles maximize every unguarded extent; accesses guarded to late iterations
/// are caught by also probing the last tile window per level. The scanned
/// bounding boxes in `build_schedule` remain the authoritative check, so an
/// adversarial residual underestimate is still rejected there. An estimate
/// past `i64::MAX` answers `i64::MAX`.
pub fn spm_bytes_for(component: &Component, k: &[i64]) -> i64 {
    let first: Vec<Interval> = component
        .levels
        .iter()
        .zip(k)
        .map(|(lv, &kj)| Interval::new(0, kj.min(lv.count) - 1))
        .collect();
    let last: Vec<Interval> = component
        .levels
        .iter()
        .zip(k)
        .map(|(lv, &kj)| Interval::new((lv.count - kj).max(0), lv.count - 1))
        .collect();
    // Checked like the scanned requirement: past `i64::MAX` it answers
    // `i64::MAX`, which no platform holds.
    component
        .arrays
        .iter()
        .try_fold(0i64, |total, a| {
            let elems = |ranges: &[Interval]| {
                a.canonical_range(ranges)
                    .iter()
                    .try_fold(1i64, |acc, iv| acc.checked_mul(iv.len() as i64))
            };
            let bytes = elems(&first)?
                .max(elems(&last)?)
                .checked_mul(a.elem_bytes)?
                .checked_mul(2)?;
            total.checked_add(bytes)
        })
        .unwrap_or(i64::MAX)
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
    fn m_and_z_match_lstm_example() {
        // §3.4 example: NS=650, NP=700, K=(109, 350), R=(3, 1).
        let comp = mock_component(&[650, 700], &[true, false]);
        let sol = Solution {
            k: vec![109, 350],
            r: vec![3, 1],
        };
        assert_eq!(sol.m(&comp), vec![6, 2]);
        assert_eq!(sol.z(&comp), vec![2, 2]);
        assert_eq!(sol.threads(), 3);
        assert_eq!(sol.total_tiles(&comp), 12);
    }

    #[test]
    fn tile_plan_assigns_threads_like_listing_3_2() {
        let comp = mock_component(&[650, 700], &[true, false]);
        let sol = Solution {
            k: vec![109, 350],
            r: vec![3, 1],
        };
        let plan = TilePlan::build(&comp, &sol, 3).unwrap();
        // Each core executes 4 segments: s1 tiles 2·threadID + {0,1} × 2 p-tiles.
        for core in 0..3 {
            let tiles = plan.core_tiles(core);
            assert_eq!(tiles.len(), 4, "core {core}");
            for t in tiles {
                assert_eq!((t[0] / 2) as usize, core);
            }
        }
        // Lexicographic per-core order.
        assert_eq!(
            plan.core_tiles(0),
            vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]
        );
        // Boundary tile of s1: range [545, 649] → extent 105.
        assert_eq!(plan.level_ranges[0][5], Interval::new(545, 649));
        assert_eq!(plan.tile_extents(&[5, 1]), vec![105, 350]);
    }

    #[test]
    fn rejects_parallelism_violation() {
        let comp = mock_component(&[10, 10], &[true, false]);
        let sol = Solution {
            k: vec![5, 5],
            r: vec![1, 2],
        };
        assert!(matches!(
            TilePlan::build(&comp, &sol, 8),
            Err(Infeasible::ParallelismViolation { level: 1 })
        ));
    }

    #[test]
    fn rejects_too_many_threads() {
        let comp = mock_component(&[10, 10], &[true, true]);
        let sol = Solution {
            k: vec![1, 1],
            r: vec![4, 4],
        };
        assert!(matches!(
            TilePlan::build(&comp, &sol, 8),
            Err(Infeasible::TooManyThreads { requested: 16, .. })
        ));
    }

    #[test]
    fn uneven_groups_leave_cores_idle() {
        // M = 3 ranges over R = 2 groups: Z = 2 → group 0 gets 2, group 1 gets 1.
        let comp = mock_component(&[9], &[true]);
        let sol = Solution {
            k: vec![3],
            r: vec![2],
        };
        let plan = TilePlan::build(&comp, &sol, 2).unwrap();
        assert_eq!(plan.core_nseg(0), 2);
        assert_eq!(plan.core_nseg(1), 1);
    }

    #[test]
    fn set_coordinate_matches_fresh_build() {
        let comp = mock_component(&[650, 700, 9], &[true, false, true]);
        let base = Solution {
            k: vec![109, 350, 3],
            r: vec![3, 1, 2],
        };
        let cores = 6;
        for j in 0..comp.depth() {
            let mut plan = TilePlan::build(&comp, &base, cores).unwrap();
            for kj in 1..=comp.levels[j].count {
                let mut sol = base.clone();
                sol.k[j] = kj;
                let fresh = TilePlan::build(&comp, &sol, cores);
                match (plan.set_coordinate(&comp, &sol, j), fresh) {
                    (Ok(()), Ok(f)) => {
                        assert_eq!(plan.m, f.m, "j={j} k={kj}");
                        assert_eq!(plan.z, f.z, "j={j} k={kj}");
                        assert_eq!(plan.level_ranges, f.level_ranges, "j={j} k={kj}");
                        assert_eq!(plan.core_boxes, f.core_boxes, "j={j} k={kj}");
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b, "j={j} k={kj}"),
                    (a, b) => panic!("feasibility diverged at j={j} k={kj}: {a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn set_coordinate_keeps_plan_on_error() {
        // Force a TooManySegments rejection, then check the plan still
        // matches its previous solution bit for bit.
        let comp = mock_component(&[1 << 10, 1 << 10], &[true, true]);
        let good = Solution {
            k: vec![4, 1024],
            r: vec![2, 1],
        };
        let mut plan = TilePlan::build(&comp, &good, 4).unwrap();
        let bad = Solution {
            k: vec![4, 1],
            r: vec![2, 1],
        };
        assert!(matches!(
            plan.set_coordinate(&comp, &bad, 1),
            Err(Infeasible::TooManySegments { .. })
        ));
        let fresh = TilePlan::build(&comp, &good, 4).unwrap();
        assert_eq!(plan.level_ranges, fresh.level_ranges);
        assert_eq!(plan.core_boxes, fresh.core_boxes);
    }

    #[test]
    fn untiled_solution_single_tile() {
        let comp = mock_component(&[7, 9], &[true, true]);
        let sol = Solution::untiled(&comp);
        let plan = TilePlan::build(&comp, &sol, 8).unwrap();
        assert_eq!(sol.total_tiles(&comp), 1);
        assert_eq!(plan.core_nseg(0), 1);
        assert_eq!(plan.tile_extents(&[0, 0]), vec![7, 9]);
    }
}
