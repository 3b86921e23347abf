//! [`CoordinateDelta`]: incremental rebuild of a [`ComponentAnalysis`] when
//! only one tile coordinate `K_j` moves — the frozen-level context (per-core
//! [`FrozenCore`] arenas) and the SoA lane walk that serves every candidate
//! of a scan. A context the lanes cannot hold is declined at construction;
//! the caller answers its candidates with the reference
//! [`ComponentAnalysis::build`].

use super::{
    bind_tile_array, combine_structure, ArrayMeta, ComponentAnalysis, CoreAnalysis, LastRange,
};
use crate::component::{BufferAttr, Component, DimContrib};
use crate::tiling::{Infeasible, Solution, TilePlan, SEGMENT_CAP};
use crate::timing::ExecModel;
use prem_polyhedral::{div_ceil, Interval};

/// Budget of the dense frozen arenas, in interval cells (~16 MB of
/// `lo`/`hi` pairs) summed over cores; larger contexts are declined.
const DELTA_CELL_CAP: usize = 1 << 20;

/// Candidates interleaved per sweep of the frozen SoA columns in
/// [`CoordinateDelta::rebuild_scan`]'s lane walk.
pub const SOA_LANES: usize = 8;

/// Cap on one lane's moving-coordinate term columns (`M_j × slots`). `M_j`
/// never exceeds level `j`'s iteration count, so a context whose
/// `count_j × slots` stays within it serves every candidate; larger ones are
/// declined.
const SOA_JTERM_CAP: usize = 1 << 20;

/// Depth cap for the `2^depth` extent-class execution-time table; deeper
/// nests (not reachable from the paper kernels) are declined.
const SOA_DEPTH_CAP: usize = 12;

/// One candidate of a lane-group walk: its level-`j` geometry snapshot, the
/// per-`t_j` moving-coordinate term columns, the extent-class execution
/// table, and the per-candidate walk outputs (exactly the from-scratch
/// build's accumulators).
struct SoaLane {
    idx: usize,
    solution: Solution,
    m_j: i64,
    jbox: Vec<Option<Interval>>,
    add_lo: Vec<i64>,
    add_hi: Vec<i64>,
    kill: Vec<u8>,
    ext_int: Vec<i64>,
    ext_bnd: Vec<i64>,
    exec_tab: Vec<f64>,
    cores_out: Vec<CoreAnalysis>,
    bounding_boxes: Vec<Vec<i64>>,
    total_bytes: i64,
    total_ops: usize,
    last: Vec<LastRange>,
    err: Option<Infeasible>,
}

/// Per-array precompute of a [`CoordinateDelta`].
#[derive(Debug, Clone)]
struct ArrayPlan {
    /// True when no contribution depends on level `j` — neither through a
    /// counter coefficient nor through a guard that can clip at `j` (a guard
    /// covering the whole `[0, N_j)` counter range never excludes a tile).
    /// For such arrays the finished per-dimension hulls are stored.
    j_free: bool,
    /// Cells stored per reduced tile: `ndims` when `j_free`, else the total
    /// contribution count across dimensions.
    stride: usize,
    /// Per dimension, per contribution: `(coeff_j, guard_j)` — the only
    /// level-`j` facts needed to finish a partial sum.
    contrib_j: Vec<Vec<(i64, Interval)>>,
}

/// Frozen-level state for one core: the reduced tile box over the levels
/// other than `j`, plus a flat structure-of-arrays arena of per-reduced-tile
/// cells, split into parallel `lo`/`hi` columns so the lane walk streams two
/// homogeneous `i64` columns instead of pointer-hopping interval structs.
/// The arena is tile-major: reduced tile `ri`'s block starts at
/// `ri * per_tile_cells`, and array `ai`'s slice sits at offset
/// `cell_off[ai]` within the block (finished hulls for `j_free` arrays,
/// per-contribution partial sums otherwise; an empty interval — `lo > hi` —
/// marks a partial excluded by a frozen-level guard; genuine partials are
/// never empty since `base` is nonempty and every added term is nonempty).
#[derive(Debug, Clone)]
struct FrozenCore {
    box_red: Vec<Interval>,
    arena_lo: Vec<i64>,
    arena_hi: Vec<i64>,
}

impl FrozenCore {
    /// The interval stored at `cell`.
    #[inline]
    fn cell(&self, cell: usize) -> Interval {
        Interval::new(self.arena_lo[cell], self.arena_hi[cell])
    }
}

/// Partial [`DimContrib::bounds`] sum over every level except `j`:
/// `base + Σ_{i≠j} clip(range_i, guard_i) · coeff_i`, or empty when a frozen
/// level's guard excludes the tile. `ranges[j]` is ignored. The `i64`
/// interval arithmetic is exact (absent saturation), so finishing the sum
/// with level `j`'s term later is reassociation-free — bitwise identical to
/// the full left-to-right fold.
fn partial_bounds(c: &DimContrib, ranges: &[Interval], j: usize) -> Interval {
    let mut acc = c.base;
    for (i, ((coef, r), g)) in c
        .comp_coeffs
        .iter()
        .zip(ranges)
        .zip(&c.level_bounds)
        .enumerate()
    {
        if i == j {
            continue;
        }
        let clipped = r.intersect(g);
        if clipped.is_empty() {
            return Interval::empty();
        }
        if *coef != 0 {
            acc = acc + clipped.scale(*coef);
        }
    }
    acc
}

/// Incremental single-coordinate rebuild context (thesis §5.3.1: canonical
/// ranges factor per level). Built once per coordinate-descent scan of level
/// `j`, it freezes everything that does not depend on `K_j`: per-core
/// reduced tile enumerations over the other levels with per-array partial
/// canonical-range sums. [`CoordinateDelta::rebuild_scan`] then replays the
/// *exact* per-core, per-tile traversal of [`ComponentAnalysis::build`] —
/// same odometer order, same change detection, same first error — finishing
/// each partial sum with level `j`'s term only. Results are bitwise equal to
/// a from-scratch build (enforced by a sampled debug assert in the evaluator
/// and the `incremental_differential` suite).
#[derive(Debug)]
pub struct CoordinateDelta {
    j: usize,
    k: Vec<i64>,
    r: Vec<i64>,
    cores: usize,
    rw_deps: Vec<bool>,
    metas: Vec<ArrayMeta>,
    plans: Vec<ArrayPlan>,
    reduced: Vec<Option<FrozenCore>>,
    /// Cells per reduced tile in the arenas (`Σ` array strides).
    per_tile_cells: usize,
    /// Arena offset of each array's cell slice within a reduced tile block.
    cell_off: Vec<usize>,
    /// `M_i` per level for the frozen levels (entry `j` is the base
    /// solution's and is ignored — lanes carry their own `M_j`).
    frozen_m: Vec<i64>,
    /// Interior / boundary tile extents per frozen level: every tile
    /// `t < M_i - 1` of level `i` has extent `K_i` and only the last tile
    /// can clip, so two classes per level describe every reachable extent
    /// vector (entry `j` is 0; lanes fill theirs from their own ranges).
    ext_int: Vec<i64>,
    ext_bnd: Vec<i64>,
    /// Moving-coordinate term slots: total contribution count across the
    /// non-`j_free` arrays (the only ones needing a finishing term), and
    /// each array's offset into a lane's per-`t_j` term row.
    jslots: usize,
    jterm_off: Vec<usize>,
}

impl CoordinateDelta {
    /// Precomputes the frozen-level structure for varying coordinate `j` of
    /// `base` (the value of `base.k[j]` itself is irrelevant). Returns
    /// `None` — the caller then builds every candidate with
    /// [`ComponentAnalysis::build`] — for the contexts the lane walk cannot
    /// hold, each checked here once:
    ///
    /// * the nest is deeper than [`SOA_DEPTH_CAP`];
    /// * every candidate is infeasible whatever `K_j` is: the thread shape
    ///   exceeds `cores`, or the frozen levels' segment product alone is
    ///   past [`SEGMENT_CAP`] (`TilePlan::build` rejects such a candidate in
    ///   O(depth), so there is nothing to freeze);
    /// * the largest term column, `count_j × slots`, exceeds
    ///   [`SOA_JTERM_CAP`];
    /// * the per-core arenas would exceed [`DELTA_CELL_CAP`].
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range or `base` does not match the
    /// component's depth.
    pub fn new(
        component: &Component,
        base: &Solution,
        j: usize,
        cores: usize,
    ) -> Option<CoordinateDelta> {
        let depth = component.depth();
        assert!(j < depth, "coordinate out of range");
        assert_eq!(base.k.len(), depth);
        assert_eq!(base.r.len(), depth);
        if depth > SOA_DEPTH_CAP {
            return None;
        }

        let threads: i64 = base.r.iter().product();
        if threads > cores as i64 {
            return None;
        }
        let m: Vec<i64> = component
            .levels
            .iter()
            .zip(&base.k)
            .map(|(lv, &k)| div_ceil(lv.count, k))
            .collect();
        let z: Vec<i64> = m
            .iter()
            .zip(&base.r)
            .map(|(&m, &r)| div_ceil(m, r))
            .collect();
        let mut red_total = 1u64;
        for (i, &mi) in m.iter().enumerate() {
            if i != j {
                red_total = red_total.saturating_mul(mi as u64);
            }
        }
        if red_total > SEGMENT_CAP {
            return None;
        }

        let rw_deps: Vec<bool> = component
            .arrays
            .iter()
            .map(|a| crate::segments::array_has_rw_deps(component, a.array))
            .collect();
        let metas: Vec<ArrayMeta> = component
            .arrays
            .iter()
            .map(|a| ArrayMeta {
                ndims: a.dims.len(),
                elem_bytes: a.elem_bytes,
                loads: matches!(a.attr, BufferAttr::Ro | BufferAttr::Rw),
                unloads: matches!(a.attr, BufferAttr::Wo | BufferAttr::Rw),
            })
            .collect();

        let count_j = component.levels[j].count;
        let plans: Vec<ArrayPlan> = component
            .arrays
            .iter()
            .map(|arr| {
                let contrib_j: Vec<Vec<(i64, Interval)>> = arr
                    .contribs
                    .iter()
                    .map(|dim| {
                        dim.iter()
                            .map(|c| (c.comp_coeffs[j], c.level_bounds[j]))
                            .collect()
                    })
                    .collect();
                let j_free = contrib_j
                    .iter()
                    .flatten()
                    .all(|&(coef, g)| coef == 0 && g.lo <= 0 && g.hi >= count_j - 1);
                let stride = if j_free {
                    arr.contribs.len()
                } else {
                    contrib_j.iter().map(Vec::len).sum()
                };
                ArrayPlan {
                    j_free,
                    stride,
                    contrib_j,
                }
            })
            .collect();
        let jslots: usize = plans.iter().filter(|p| !p.j_free).map(|p| p.stride).sum();
        if (count_j as u64).saturating_mul(jslots as u64) > SOA_JTERM_CAP as u64 {
            return None;
        }
        let jterm_off: Vec<usize> = plans
            .iter()
            .scan(0usize, |acc, p| {
                let off = *acc;
                if !p.j_free {
                    *acc += p.stride;
                }
                Some(off)
            })
            .collect();
        let per_tile_cells: usize = plans.iter().map(|p| p.stride).sum();
        let cell_off: Vec<usize> = plans
            .iter()
            .scan(0usize, |acc, p| {
                let off = *acc;
                *acc += p.stride;
                Some(off)
            })
            .collect();

        // Radix weights for the thread id, as in `TilePlan::build`.
        let mut weight = vec![1i64; depth];
        for i in (0..depth.saturating_sub(1)).rev() {
            weight[i] = weight[i + 1] * base.r[i + 1];
        }

        // Per-core reduced boxes and the dense cell total. The core boxes
        // depend only on (m_i, z_i, r_i), so for i ≠ j they match the boxes
        // of every plan the rebuild will construct. The cell accounting is
        // checked: a synthetic huge-extent level can push
        // `n_red * per_tile_cells` past `usize`, and a wrap would sneak an
        // oversized context into the arena — overflow declines like
        // exceeding the cap.
        let mut dense_cells: Option<usize> = Some(0);
        let mut boxes: Vec<Option<Vec<Interval>>> = Vec::with_capacity(cores);
        for core in 0..cores {
            let c = core as i64;
            if c >= threads {
                boxes.push(None);
                continue;
            }
            let mut box_red: Vec<Interval> = Vec::with_capacity(depth.saturating_sub(1));
            let mut empty = false;
            for i in 0..depth {
                if i == j {
                    continue;
                }
                let g = (c / weight[i]) % base.r[i];
                let lo = g * z[i];
                let hi = ((g + 1) * z[i] - 1).min(m[i] - 1);
                if lo > hi {
                    empty = true;
                    break;
                }
                box_red.push(Interval::new(lo, hi));
            }
            if empty {
                boxes.push(None);
                continue;
            }
            let tile_cells = box_red
                .iter()
                .try_fold(1usize, |acc, iv| {
                    acc.checked_mul(usize::try_from(iv.len()).ok()?)
                })
                .and_then(|n| n.checked_mul(per_tile_cells));
            dense_cells = match (dense_cells, tile_cells) {
                (Some(total), Some(n)) => total.checked_add(n),
                _ => None,
            };
            boxes.push(Some(box_red));
        }
        if dense_cells.is_none_or(|c| c > DELTA_CELL_CAP) {
            return None;
        }

        // Counter ranges of the frozen levels (same formula as
        // `TilePlan::build`; level `j`'s ranges depend on `K_j` and are read
        // from the fresh plan at rebuild time).
        let level_ranges: Vec<Vec<Interval>> = component
            .levels
            .iter()
            .enumerate()
            .map(|(i, lv)| {
                if i == j {
                    Vec::new()
                } else {
                    let k = base.k[i];
                    // `t * k < count` always fits, but `(t + 1) * k` can
                    // exceed `i64::MAX` on the last tile of a huge-extent
                    // level; the saturated product still clamps to
                    // `count - 1`, which is the exact value. Mirrors
                    // `TilePlan::build` so rebuilds stay bitwise-equal.
                    (0..m[i])
                        .map(|t| {
                            let hi = t
                                .saturating_add(1)
                                .saturating_mul(k)
                                .saturating_sub(1)
                                .min(lv.count - 1);
                            Interval::new(t * k, hi)
                        })
                        .collect()
                }
            })
            .collect();
        let ext_int: Vec<i64> = level_ranges
            .iter()
            .map(|lr| lr.first().map_or(0, |iv| iv.len() as i64))
            .collect();
        let ext_bnd: Vec<i64> = level_ranges
            .iter()
            .map(|lr| lr.last().map_or(0, |iv| iv.len() as i64))
            .collect();

        // Materialize the reduced product space per core, column by column
        // (`lo`/`hi` SoA pair).
        let mut ranges: Vec<Interval> = vec![Interval::empty(); depth];
        let mut reduced: Vec<Option<FrozenCore>> = Vec::with_capacity(cores);
        for bx in boxes {
            let Some(box_red) = bx else {
                reduced.push(None);
                continue;
            };
            let n_red: usize = box_red.iter().map(|iv| iv.len() as usize).product();
            let mut arena_lo: Vec<i64> = Vec::with_capacity(n_red * per_tile_cells);
            let mut arena_hi: Vec<i64> = Vec::with_capacity(n_red * per_tile_cells);
            let mut push = |iv: Interval| {
                arena_lo.push(iv.lo);
                arena_hi.push(iv.hi);
            };
            let mut tile_red: Vec<i64> = box_red.iter().map(|iv| iv.lo).collect();
            'tiles: loop {
                let mut t = 0usize;
                for i in 0..depth {
                    if i == j {
                        continue;
                    }
                    ranges[i] = level_ranges[i][tile_red[t] as usize];
                    t += 1;
                }
                for (arr, p) in component.arrays.iter().zip(&plans) {
                    if p.j_free {
                        for dim in &arr.contribs {
                            let mut hull = Interval::empty();
                            for cb in dim {
                                hull = hull.hull(&partial_bounds(cb, &ranges, j));
                            }
                            push(hull);
                        }
                    } else {
                        for dim in &arr.contribs {
                            for cb in dim {
                                push(partial_bounds(cb, &ranges, j));
                            }
                        }
                    }
                }
                let mut t = box_red.len();
                loop {
                    if t == 0 {
                        break 'tiles;
                    }
                    t -= 1;
                    tile_red[t] += 1;
                    if tile_red[t] <= box_red[t].hi {
                        break;
                    }
                    tile_red[t] = box_red[t].lo;
                }
            }
            reduced.push(Some(FrozenCore {
                box_red,
                arena_lo,
                arena_hi,
            }));
        }

        Some(CoordinateDelta {
            j,
            k: base.k.clone(),
            r: base.r.clone(),
            cores,
            rw_deps,
            metas,
            plans,
            reduced,
            per_tile_cells,
            cell_off,
            frozen_m: m,
            ext_int,
            ext_bnd,
            jslots,
            jterm_off,
        })
    }

    /// Rebuilds the analysis (without retained ranges) for the base solution
    /// with coordinate `j` set to every `k_j` in `candidates`, in one pass; a
    /// single rebuild is a scan of one. Must be called with the component
    /// the delta was built from. Each element of the result, including
    /// which [`Infeasible`] is reported first, is bitwise identical to the
    /// from-scratch `ComponentAnalysis::build(component, &solution, cores,
    /// exec_model, false)`.
    ///
    /// One route per candidate: prepare the tile plan (the first feasible
    /// candidate's plan is re-targeted with [`TilePlan::set_coordinate`]
    /// instead of rebuilt), check persistence, then join a lane. Lanes are
    /// walked [`SOA_LANES`] at a time: the frozen SoA columns are swept once
    /// per lane group, each lane finishing its partial sums from a
    /// per-candidate column of precomputed moving-coordinate terms and
    /// reading tile execution times from a per-candidate extent-class table.
    /// Per-lane visit order, change detection and first-error replay are
    /// exactly the from-scratch build's. [`CoordinateDelta::new`] has
    /// already declined every context whose candidates the lanes could not
    /// hold.
    ///
    /// With candidates sorted ascending, `M_j` — and so the total segment
    /// count — is non-increasing, which makes [`SEGMENT_CAP`] violations a
    /// prefix of the scan: those candidates are answered by the replayed
    /// `O(depth)` feasibility checks without walking a single tile; they are
    /// the scan's `Err(TooManySegments)` elements.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the frozen-level boxes disagree with the fresh tile
    /// plan — i.e. the delta is used with a foreign component.
    pub fn rebuild_scan(
        &self,
        component: &Component,
        candidates: &[i64],
        exec_model: &ExecModel,
    ) -> Vec<Result<ComponentAnalysis, Infeasible>> {
        let mut out: Vec<Option<Result<ComponentAnalysis, Infeasible>>> =
            (0..candidates.len()).map(|_| None).collect();
        let mut lanes: Vec<SoaLane> = Vec::new();
        let mut plan: Option<TilePlan> = None;
        for (idx, &kj) in candidates.iter().enumerate() {
            let mut solution = Solution {
                k: self.k.clone(),
                r: self.r.clone(),
            };
            solution.k[self.j] = kj;
            let prepared = match &mut plan {
                Some(p) => p.set_coordinate(component, &solution, self.j),
                None => match TilePlan::build(component, &solution, self.cores) {
                    Ok(p) => {
                        plan = Some(p);
                        Ok(())
                    }
                    Err(e) => Err(e),
                },
            };
            if let Err(e) = prepared {
                out[idx] = Some(Err(e));
                continue;
            }
            let p = plan.as_ref().expect("plan prepared for feasible candidate");
            if let Err(e) = crate::segments::check_persistence(component, p) {
                out[idx] = Some(Err(e));
                continue;
            }
            lanes.push(self.make_lane(component, p, solution, idx));
            if lanes.len() == SOA_LANES {
                self.walk_lanes(component, &mut lanes, &mut out, exec_model);
            }
        }
        if !lanes.is_empty() {
            self.walk_lanes(component, &mut lanes, &mut out, exec_model);
        }
        out.into_iter()
            .map(|o| o.expect("every candidate resolved"))
            .collect()
    }

    /// Snapshots one feasible candidate into a lane: its solution and level-
    /// `j` tile geometry from the freshly re-targeted plan, the per-`t_j`
    /// moving-coordinate term columns (`clip(range_j, guard_j) · coeff_j`
    /// as `lo`/`hi`/`kill` columns — the column-wise fill pass), and an
    /// extent-class execution-time table over interior/boundary extents per
    /// level (lazily completed during the walk; every reachable extent
    /// vector maps to one of `2^depth` classes because only a level's last
    /// tile can clip).
    fn make_lane(
        &self,
        component: &Component,
        plan: &TilePlan,
        solution: Solution,
        idx: usize,
    ) -> SoaLane {
        let j = self.j;
        let m_j = plan.m[j];
        let ranges_j = plan.level_ranges[j].clone();
        for (bx, rc) in plan.core_boxes.iter().zip(&self.reduced) {
            if let (Some(bx), Some(rc)) = (bx, rc) {
                debug_assert!(
                    bx.iter()
                        .enumerate()
                        .filter_map(|(i, iv)| (i != j).then_some(iv))
                        .eq(&rc.box_red),
                    "delta used with foreign component"
                );
            }
        }
        let jbox: Vec<Option<Interval>> = plan
            .core_boxes
            .iter()
            .map(|bx| bx.as_ref().map(|b| b[j]))
            .collect();

        let n = m_j as usize * self.jslots;
        let mut add_lo: Vec<i64> = Vec::with_capacity(n);
        let mut add_hi: Vec<i64> = Vec::with_capacity(n);
        let mut kill: Vec<u8> = Vec::with_capacity(n);
        for rj in &ranges_j {
            for p in &self.plans {
                if p.j_free {
                    continue;
                }
                for dim in &p.contrib_j {
                    for &(coef, guard) in dim {
                        let clipped = rj.intersect(&guard);
                        if clipped.is_empty() {
                            kill.push(1);
                            add_lo.push(0);
                            add_hi.push(0);
                        } else if coef != 0 {
                            let t = clipped.scale(coef);
                            kill.push(0);
                            add_lo.push(t.lo);
                            add_hi.push(t.hi);
                        } else {
                            // Exact additive identity — `x.saturating_add(0)`
                            // is `x`, matching the from-scratch build's
                            // coeff == 0 shortcut bit for bit.
                            kill.push(0);
                            add_lo.push(0);
                            add_hi.push(0);
                        }
                    }
                }
            }
        }

        let depth = component.depth();
        let mut ext_int = self.ext_int.clone();
        let mut ext_bnd = self.ext_bnd.clone();
        ext_int[j] = ranges_j[0].len() as i64;
        ext_bnd[j] = ranges_j[m_j as usize - 1].len() as i64;

        SoaLane {
            idx,
            solution,
            m_j,
            jbox,
            add_lo,
            add_hi,
            kill,
            ext_int,
            ext_bnd,
            exec_tab: vec![f64::NAN; 1usize << depth],
            cores_out: Vec::with_capacity(self.cores),
            bounding_boxes: component
                .arrays
                .iter()
                .map(|a| vec![0; a.dims.len()])
                .collect(),
            total_bytes: 0,
            total_ops: 0,
            last: vec![LastRange::default(); component.arrays.len()],
            err: None,
        }
    }

    /// The lane-group walk: one sweep of the frozen SoA columns serves every
    /// lane. The loop nests as (reduced prefix `a` = levels < `j`, lane,
    /// `t_j`, reduced suffix `b` = levels > `j`); for each lane the visit
    /// order `(a, t_j, b)` is exactly its full-depth odometer order, so
    /// per-lane sequential state — change detection, segment numbering,
    /// first error — evolves identically to the from-scratch build while the
    /// `a`-stripe of the frozen columns stays cache-resident across all
    /// lanes and `t_j` values. Feasibility of each partial is folded
    /// branchlessly: empties are mapped to the `(MAX, MIN)` sentinel, which
    /// makes the hull a plain `min`/`max` with identical semantics to the
    /// empty-aware `Interval::hull`. Drains `lanes` into `out`.
    fn walk_lanes(
        &self,
        component: &Component,
        lanes: &mut Vec<SoaLane>,
        out: &mut [Option<Result<ComponentAnalysis, Infeasible>>],
        exec_model: &ExecModel,
    ) {
        let j = self.j;
        let depth = component.depth();
        let narr = component.arrays.len();
        let mut scratch: Vec<Interval> = Vec::new();
        let mut ext_scratch: Vec<i64> = vec![0; depth];
        let mut b_tile: Vec<i64> = Vec::new();
        let empty_core = |narr: usize| CoreAnalysis {
            nseg: 0,
            exec_ns: Vec::new(),
            swap_lists: vec![Vec::new(); narr],
            ranges: None,
        };

        for core in 0..self.cores {
            let Some(rc) = &self.reduced[core] else {
                // No frozen tiles on this core for any candidate: the full
                // box is `None` under every `K_j`.
                for lane in lanes.iter_mut().filter(|l| l.err.is_none()) {
                    debug_assert!(lane.jbox[core].is_none());
                    lane.cores_out.push(empty_core(narr));
                }
                continue;
            };
            let a_dims = &rc.box_red[..j];
            let b_dims = &rc.box_red[j..];
            let len_a: usize = a_dims.iter().map(|iv| iv.len() as usize).product();
            let len_b: usize = b_dims.iter().map(|iv| iv.len() as usize).product();

            let mut any_active = false;
            for lane in lanes.iter_mut().filter(|l| l.err.is_none()) {
                match lane.jbox[core] {
                    Some(jiv) => {
                        let nseg = len_a * jiv.len() as usize * len_b;
                        lane.cores_out.push(CoreAnalysis {
                            nseg,
                            exec_ns: Vec::with_capacity(nseg),
                            swap_lists: vec![Vec::new(); narr],
                            ranges: None,
                        });
                        for l in &mut lane.last {
                            l.bound = false;
                        }
                        any_active = true;
                    }
                    None => lane.cores_out.push(empty_core(narr)),
                }
            }
            if !any_active {
                continue;
            }

            // Odometer over the reduced prefix (levels < j).
            let mut a_tile: Vec<i64> = a_dims.iter().map(|iv| iv.lo).collect();
            let mut a_idx = 0usize;
            loop {
                let mut a_mask = 0usize;
                for (i, &t) in a_tile.iter().enumerate() {
                    a_mask |= usize::from(t == self.frozen_m[i] - 1) << i;
                }
                let a_base = a_idx * len_b * self.per_tile_cells;

                for lane in lanes.iter_mut() {
                    if lane.err.is_some() {
                        continue;
                    }
                    let Some(jiv) = lane.jbox[core] else {
                        continue;
                    };
                    // Split the lane's fields into independent borrows so the
                    // active `CoreAnalysis` resolves once per (core, lane)
                    // instead of once per tile.
                    let m_j = lane.m_j;
                    let SoaLane {
                        kill,
                        add_lo,
                        add_hi,
                        ext_int,
                        ext_bnd,
                        exec_tab,
                        cores_out,
                        bounding_boxes,
                        total_bytes,
                        total_ops,
                        last,
                        err,
                        ..
                    } = lane;
                    let ca = cores_out.last_mut().expect("core pushed");
                    'tj: for tj in jiv.lo..=jiv.hi {
                        let jbit = usize::from(tj == m_j - 1) << j;
                        let jrow = tj as usize * self.jslots;
                        // Odometer over the reduced suffix (levels > j).
                        b_tile.clear();
                        b_tile.extend(b_dims.iter().map(|iv| iv.lo));
                        let mut b_mask = 0usize;
                        for (t, &v) in b_tile.iter().enumerate() {
                            b_mask |= usize::from(v == self.frozen_m[j + 1 + t] - 1) << (j + 1 + t);
                        }
                        let mut b_idx = 0usize;
                        loop {
                            let block = a_base + b_idx * self.per_tile_cells;
                            let s0 = ca.exec_ns.len();
                            let mut failed: Option<Infeasible> = None;
                            for (ai, (arr, p)) in
                                component.arrays.iter().zip(&self.plans).enumerate()
                            {
                                let cells = block + self.cell_off[ai];
                                scratch.clear();
                                if p.j_free {
                                    scratch.extend((0..p.stride).map(|c| rc.cell(cells + c)));
                                } else {
                                    let mut off = cells;
                                    let mut slot = jrow + self.jterm_off[ai];
                                    for dim in &p.contrib_j {
                                        let nd = dim.len();
                                        // Fixed-length slice zips: the bounds
                                        // checks hoist out and the fold stays
                                        // branchless select + min/max.
                                        let pl = &rc.arena_lo[off..off + nd];
                                        let ph = &rc.arena_hi[off..off + nd];
                                        let kl = &kill[slot..slot + nd];
                                        let al = &add_lo[slot..slot + nd];
                                        let ah = &add_hi[slot..slot + nd];
                                        let mut hlo = i64::MAX;
                                        let mut hhi = i64::MIN;
                                        for c in 0..nd {
                                            let dead = (pl[c] > ph[c]) | (kl[c] != 0);
                                            let blo = if dead {
                                                i64::MAX
                                            } else {
                                                pl[c].saturating_add(al[c])
                                            };
                                            let bhi = if dead {
                                                i64::MIN
                                            } else {
                                                ph[c].saturating_add(ah[c])
                                            };
                                            hlo = hlo.min(blo);
                                            hhi = hhi.max(bhi);
                                        }
                                        off += nd;
                                        slot += nd;
                                        scratch.push(Interval::new(hlo, hhi));
                                    }
                                }
                                if let Err(e) = bind_tile_array(
                                    arr,
                                    &self.metas[ai],
                                    self.rw_deps[ai],
                                    &scratch,
                                    s0,
                                    ca,
                                    ai,
                                    &mut last[ai],
                                    &mut bounding_boxes[ai],
                                    total_bytes,
                                    total_ops,
                                ) {
                                    failed = Some(e);
                                    break;
                                }
                            }
                            if let Some(e) = failed {
                                *err = Some(e);
                                break 'tj;
                            }
                            let mask = a_mask | jbit | b_mask;
                            let mut exec = exec_tab[mask];
                            if exec.is_nan() {
                                for (i, e) in ext_scratch.iter_mut().enumerate() {
                                    *e = if mask >> i & 1 == 1 {
                                        ext_bnd[i]
                                    } else {
                                        ext_int[i]
                                    };
                                }
                                exec = exec_model.tile_time_ns(&ext_scratch);
                                exec_tab[mask] = exec;
                            }
                            ca.exec_ns.push(exec);

                            b_idx += 1;
                            if b_idx == len_b {
                                break;
                            }
                            let mut t = b_dims.len();
                            loop {
                                t -= 1;
                                b_tile[t] += 1;
                                let lvl = j + 1 + t;
                                if b_tile[t] <= b_dims[t].hi {
                                    b_mask = (b_mask & !(1 << lvl))
                                        | usize::from(b_tile[t] == self.frozen_m[lvl] - 1) << lvl;
                                    break;
                                }
                                b_tile[t] = b_dims[t].lo;
                                b_mask = (b_mask & !(1 << lvl))
                                    | usize::from(b_tile[t] == self.frozen_m[lvl] - 1) << lvl;
                            }
                        }
                    }
                }

                a_idx += 1;
                if a_idx == len_a {
                    break;
                }
                let mut t = a_dims.len();
                loop {
                    t -= 1;
                    a_tile[t] += 1;
                    if a_tile[t] <= a_dims[t].hi {
                        break;
                    }
                    a_tile[t] = a_dims[t].lo;
                }
            }
        }

        for lane in lanes.drain(..) {
            out[lane.idx] = Some(match lane.err {
                Some(e) => Err(e),
                None => {
                    let mut spm_bytes_needed = 0i64;
                    for (arr, bb) in component.arrays.iter().zip(&lane.bounding_boxes) {
                        let bufs = if arr.privatized.is_some() { 3 } else { 2 };
                        spm_bytes_needed += bufs * arr.elem_bytes * bb.iter().product::<i64>();
                    }
                    let (combine_rounds, combine) =
                        combine_structure(component, &lane.solution, exec_model);
                    Ok(ComponentAnalysis {
                        solution: lane.solution,
                        cores: lane.cores_out,
                        bounding_boxes: lane.bounding_boxes,
                        spm_bytes_needed,
                        total_bytes: lane.total_bytes,
                        total_ops: lane.total_ops,
                        combine_rounds,
                        combine,
                        arrays: self.metas.clone(),
                    })
                }
            });
        }
    }
}
