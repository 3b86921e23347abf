//! [`CoordinateDelta`]: incremental rebuild of a [`ComponentAnalysis`] when
//! only one tile coordinate `K_j` moves — the frozen-level context built
//! once per coordinate scan, and the lane walk that serves every candidate
//! of the scan in two passes per group of [`SOA_LANES`] candidates:
//!
//! * **fill** ([`fill`]) — per candidate, its re-targeted tile plan and
//!   the level-`j` inputs of the walk ([`Inputs`]);
//! * **walk** ([`walk`]) — one sweep of the frozen levels' tiles serving
//!   every lane in the lane's exact odometer order, accumulating exactly the
//!   from-scratch build's state ([`Outputs`]).
//!
//! Arrays come in two kinds, classified once per context:
//!
//! * **shift-only** arrays — every dimension an exact shift of the level
//!   ranges ([`super::bound::dim_shift`], the classifier the bound shares) —
//!   read each tile's canonical range from per-level class shapes plus a
//!   running offset ([`LevelShift`]): `O(ndims)` per range, nothing frozen
//!   per tile, and no bind at all on a tile whose moved levels leave the
//!   range unchanged;
//! * **hull** arrays (a guard that clips, mixed coefficient vectors, or
//!   interval sums that could saturate) keep the hull walk: per-access
//!   partial sums frozen per reduced tile ([`FrozenCore`]) and finished with
//!   per-candidate level-`j` term columns.
//!
//! Hull arrays hand their range to the reference build's
//! [`bind_tile_array`]; shift-only arrays to [`bind_shift`], which prices a
//! swap from the lane's entry for the range's extent class (DESIGN.md,
//! "Class-priced swaps"). In a context with no hull array, a lane walks only
//! the first core of each box class ([`box_class`]); a later core of the
//! class moves every range by one constant, so it uses the walked core's
//! analysis (DESIGN.md, "Walk one core per box class"). A context the walk
//! cannot hold is declined at construction; the caller answers its
//! candidates with the reference [`ComponentAnalysis::build`].

use super::bound::dim_shift;
use super::{
    bind_shift, bind_tile_array, box_class, combine_structure, spm_bytes, ArrayMeta,
    ComponentAnalysis, CoreAnalysis, LastRange, Price,
};
use crate::component::{Component, DimContrib};
use crate::optimizer::elapsed_ns;
use crate::tiling::{Infeasible, Solution, TilePlan, SEGMENT_CAP};
use crate::timing::ExecModel;
use prem_obs::SearchCounters;
use prem_polyhedral::{div_ceil, Interval};
use std::ops::Range;
use std::time::Instant;

/// Budget of the hull arrays' dense frozen arenas, in interval cells (1 MB
/// of `lo`/`hi` pairs) summed over cores; larger contexts are declined.
/// Shift-only arrays take no cell: on the bundled kernels, the Fig. 6.1
/// suite and the benchmark inputs no context needs more than 192 cells
/// (EXPERIMENTS.md, "Walk per extent class").
const DELTA_CELL_CAP: usize = 1 << 16;

/// Candidates interleaved per sweep of the frozen SoA columns in
/// [`CoordinateDelta::rebuild_scan`]'s lane walk.
pub const SOA_LANES: usize = 8;

/// Cap on one lane's moving-coordinate term columns (`M_j × slots`, hull
/// arrays only). `M_j` never exceeds level `j`'s iteration count, so a
/// context whose `count_j × slots` stays within it serves every candidate;
/// larger ones are declined. The largest column of the same inputs is 2 600
/// cells.
const SOA_JTERM_CAP: usize = 1 << 16;

/// Depth cap for the `2^depth` extent-class execution-time table; deeper
/// nests (not reachable from the paper kernels) are declined.
const SOA_DEPTH_CAP: usize = 12;

/// Bit set in every shift-only array's [`Rule::Shift`] mask and in the
/// `changed` mask of a lane's first tile in a block, so that tile binds
/// every array (level bits stay below [`SOA_DEPTH_CAP`]).
const FRESH: u32 = 1 << 31;

/// The walk's shared arguments: the context and what it is walked for.
struct Arguments<'a> {
    delta: &'a CoordinateDelta,
    component: &'a Component,
    exec_model: &'a ExecModel,
}

/// The fill pass's output for one candidate, read-only to the walk: its
/// solution and level-`j` tile geometry, the hull arrays' per-`t_j` term
/// columns, the extent classes and level `j`'s shift terms.
struct Inputs {
    idx: usize,
    solution: Solution,
    m_j: i64,
    jbox: Vec<Option<Interval>>,
    add_lo: Vec<i64>,
    add_hi: Vec<i64>,
    kill: Vec<u8>,
    ext_int: Vec<i64>,
    ext_bnd: Vec<i64>,
    shift_j: LevelShift,
}

/// What the walk accumulates for one lane: exactly the from-scratch
/// build's accumulators, plus the lane's extent-class execution-time and
/// price tables (filled as classes are met), the box classes of the cores it
/// walked and each core's walked analysis.
struct Outputs {
    exec_tab: Vec<f64>,
    /// Per shift-only array, per extent-class mask of its moving levels:
    /// the price of a swap ([`Rule::Shift`]'s `price` offset plus the mask).
    prices: Vec<Price>,
    cores_out: Vec<CoreAnalysis>,
    core_index: Vec<usize>,
    bounding_boxes: Vec<Vec<i64>>,
    total_bytes: i64,
    total_ops: usize,
    last: Vec<LastRange>,
    err: Option<Infeasible>,
    /// True while the walk sweeps the current core for this lane.
    walking: bool,
    /// The transfer totals when the current core's walk began.
    mark: (i64, usize),
    walked: Vec<WalkedClass>,
}

/// A core a lane walked in a context without hull arrays: its box class
/// ([`box_class`] per level), its analysis's index in `cores_out` and what
/// its walk added to the lane's transfer totals, which every later core of
/// the class adds again.
struct WalkedClass {
    key: Vec<(i64, i64)>,
    index: usize,
    bytes: i64,
    ops: usize,
}

/// How the walk computes one array's canonical range on a tile.
#[derive(Debug)]
enum Rule {
    /// Shift-only: the range is the array's `slots` of the running shift
    /// ranges, and it can only change on a step that moves one of the
    /// `moves` levels (those with a nonzero coefficient, plus [`FRESH`]).
    /// Its extents depend only on which of those levels sit on their
    /// boundary tile, so a lane prices its swaps from the entry at `price`
    /// plus that mask.
    Shift {
        slots: Range<usize>,
        moves: u32,
        price: usize,
    },
    /// The hull of every access, finished from the frozen arena.
    Hull(HullPlan),
}

/// A hull array's precompute in a [`CoordinateDelta`].
#[derive(Debug)]
struct HullPlan {
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
    /// Offset of the array's cells within a reduced tile's arena block.
    cell_off: usize,
    /// Offset of the array's slots within a lane's per-`t_j` term row.
    jterm_off: usize,
}

impl HullPlan {
    /// The array's range on one tile into `out`: per dimension, the hull of
    /// its accesses' frozen partial sums at arena `block` finished with the
    /// lane's level-`j` terms in row `jrow` (finished hulls when `j_free`).
    /// Partials are folded branchlessly: empties are mapped to the
    /// `(MAX, MIN)` sentinel, which makes the hull a plain `min`/`max` with
    /// identical semantics to the empty-aware `Interval::hull`.
    fn finish_range(
        &self,
        rc: &FrozenCore,
        inp: &Inputs,
        block: usize,
        jrow: usize,
        out: &mut Vec<Interval>,
    ) {
        let cells = block + self.cell_off;
        out.clear();
        if self.j_free {
            out.extend((0..self.stride).map(|c| rc.cell(cells + c)));
            return;
        }
        let mut off = cells;
        let mut slot = jrow + self.jterm_off;
        for dim in &self.contrib_j {
            let nd = dim.len();
            // Fixed-length slice zips: the bounds checks hoist out and the
            // fold stays branchless select + min/max.
            let pl = &rc.arena_lo[off..off + nd];
            let ph = &rc.arena_hi[off..off + nd];
            let kl = &inp.kill[slot..slot + nd];
            let al = &inp.add_lo[slot..slot + nd];
            let ah = &inp.add_hi[slot..slot + nd];
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
            out.push(Interval::new(hlo, hhi));
        }
    }
}

/// One level's term `coeff · range_ℓ(t)` in every shift-only slot whose
/// coefficient at the level is nonzero. Tile `t`'s counter range is
/// `[t·K, t·K + e − 1]`, `e` the interior extent `K` or, on the last tile
/// `M − 1`, the boundary extent, so the term is the running offset
/// `coeff·K·t` plus the class shape `coeff · [0, e − 1]`. The arithmetic
/// wraps: a shift-only slot's true range fits `i64` on every tile
/// (the bound's `exact`), and every intermediate is that range or a
/// partial sum of it modulo `2^64`, so the result is the exact value.
#[derive(Debug, Default)]
struct LevelShift {
    /// `M − 1`, the one tile of the boundary class.
    last: i64,
    terms: Vec<ShiftTerm>,
}

/// One slot's term of a [`LevelShift`].
#[derive(Debug)]
struct ShiftTerm {
    slot: usize,
    /// `coeff · K`, the offset per tile.
    step: i64,
    /// Class shapes `coeff · [0, e − 1]`: interior and boundary extent.
    int: Interval,
    bnd: Interval,
}

impl LevelShift {
    /// The terms of a level with tile size `k`, `m` tiles and the given
    /// interior / boundary extents, for `(slot, coeff)` pairs.
    fn new(
        coeffs: impl IntoIterator<Item = (usize, i64)>,
        k: i64,
        m: i64,
        ext_int: i64,
        ext_bnd: i64,
    ) -> LevelShift {
        let terms = coeffs
            .into_iter()
            .filter(|&(_, c)| c != 0)
            .map(|(slot, c)| ShiftTerm {
                slot,
                step: c.wrapping_mul(k),
                int: Interval::new(0, ext_int - 1).scale(c),
                bnd: Interval::new(0, ext_bnd - 1).scale(c),
            })
            .collect();
        LevelShift { last: m - 1, terms }
    }

    /// The class shape of `term` on tile `t`.
    #[inline]
    fn shape(&self, term: &ShiftTerm, t: i64) -> Interval {
        if t == self.last {
            term.bnd
        } else {
            term.int
        }
    }

    /// Adds the level's term on tile `t` to every slot it moves.
    #[inline]
    fn add(&self, ranges: &mut [Interval], t: i64) {
        for term in &self.terms {
            let off = term.step.wrapping_mul(t);
            let shape = self.shape(term, t);
            let r = &mut ranges[term.slot];
            r.lo = r.lo.wrapping_add(off).wrapping_add(shape.lo);
            r.hi = r.hi.wrapping_add(off).wrapping_add(shape.hi);
        }
    }

    /// Moves the level from tile `from` to tile `to`: adds the difference
    /// of its two terms to every slot it moves.
    #[inline]
    fn advance(&self, ranges: &mut [Interval], from: i64, to: i64) {
        let dt = to.wrapping_sub(from);
        for term in &self.terms {
            let off = term.step.wrapping_mul(dt);
            let (old, new) = (self.shape(term, from), self.shape(term, to));
            let r = &mut ranges[term.slot];
            r.lo =
                r.lo.wrapping_add(off)
                    .wrapping_add(new.lo.wrapping_sub(old.lo));
            r.hi =
                r.hi.wrapping_add(off)
                    .wrapping_add(new.hi.wrapping_sub(old.hi));
        }
    }
}

/// Frozen-level state for one core: the reduced tile box over the levels
/// other than `j`, plus a flat structure-of-arrays arena of the hull
/// arrays' per-reduced-tile cells (empty when every array is shift-only),
/// split into parallel `lo`/`hi` columns so the lane walk streams two
/// homogeneous `i64` columns instead of pointer-hopping interval structs.
/// The arena is tile-major: reduced tile `ri`'s block starts at
/// `ri * per_tile_cells`, and a hull array's slice sits at its `cell_off`
/// within the block (finished hulls for `j_free` arrays, per-contribution
/// partial sums otherwise; an empty interval — `lo > hi` — marks a partial
/// excluded by a frozen-level guard; genuine partials are never empty since
/// `base` is nonempty and every added term is nonempty).
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
/// reduced tile enumerations over the other levels, the hull arrays'
/// per-array partial canonical-range sums, and the shift-only arrays'
/// per-level terms. [`CoordinateDelta::rebuild_scan`] then replays the
/// *exact* per-core, per-tile traversal of [`ComponentAnalysis::build`] —
/// same odometer order, same change detection, same first error. Results
/// are bitwise equal to a from-scratch build (enforced by a sampled debug
/// assert in the evaluator and the `incremental_differential` suite).
#[derive(Debug)]
pub struct CoordinateDelta {
    j: usize,
    k: Vec<i64>,
    r: Vec<i64>,
    cores: usize,
    rw_deps: Vec<bool>,
    metas: Vec<ArrayMeta>,
    rules: Vec<Rule>,
    /// Arrays that keep the hull walk.
    hull_arrays: usize,
    /// Entries of a lane's price table: `2^depth` per shift-only array.
    price_len: usize,
    reduced: Vec<Option<FrozenCore>>,
    /// Cells per reduced tile in the arenas (`Σ` hull array strides).
    per_tile_cells: usize,
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
    /// hull arrays that are not `j_free` (the only ones needing a finishing
    /// term).
    jslots: usize,
    /// Per shift-only slot (one per dimension of every shift-only array),
    /// the hull of its accesses' bases.
    shift_base: Vec<Interval>,
    /// Per frozen level, its terms in the shift-only slots (entry `j` is
    /// empty; lanes build theirs from `shift_coeff_j`).
    shift_levels: Vec<LevelShift>,
    /// `(slot, coeff_j)` of every shift-only slot.
    shift_coeff_j: Vec<(usize, i64)>,
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
    /// * the hull arrays' largest term column, `count_j × slots`, exceeds
    ///   [`SOA_JTERM_CAP`];
    /// * the hull arrays' per-core arenas would exceed [`DELTA_CELL_CAP`].
    ///
    /// Shift-only arrays take no arena cell and no term slot, so a context
    /// of only shift-only arrays is declined for depth or infeasibility
    /// alone.
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
        let metas: Vec<ArrayMeta> = component.arrays.iter().map(ArrayMeta::of).collect();

        // Classify every array: shift-only arrays get one slot per
        // dimension, the rest a hull plan with arena cells and term slots.
        let count_j = component.levels[j].count;
        let mut rules: Vec<Rule> = Vec::with_capacity(component.arrays.len());
        let mut shift_base: Vec<Interval> = Vec::new();
        let mut shift_coeffs: Vec<&[i64]> = Vec::new();
        let (mut per_tile_cells, mut jslots, mut price_len) = (0usize, 0usize, 0usize);
        for arr in &component.arrays {
            let shifts: Option<Vec<_>> = arr
                .contribs
                .iter()
                .map(|dim| dim_shift(dim, component))
                .collect();
            if let Some(shifts) = shifts {
                let first = shift_base.len();
                let mut moves = FRESH;
                for sh in shifts {
                    for (l, &c) in sh.coeffs.iter().enumerate() {
                        moves |= u32::from(c != 0) << l;
                    }
                    shift_base.push(sh.base);
                    shift_coeffs.push(sh.coeffs);
                }
                rules.push(Rule::Shift {
                    slots: first..shift_base.len(),
                    moves,
                    price: price_len,
                });
                price_len += 1 << depth;
                continue;
            }
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
            rules.push(Rule::Hull(HullPlan {
                j_free,
                stride,
                contrib_j,
                cell_off: per_tile_cells,
                jterm_off: jslots,
            }));
            per_tile_cells += stride;
            if !j_free {
                jslots += stride;
            }
        }
        if (count_j as u64).saturating_mul(jslots as u64) > SOA_JTERM_CAP as u64 {
            return None;
        }
        let hull_arrays = rules.iter().filter(|r| matches!(r, Rule::Hull(_))).count();

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
        let shift_levels: Vec<LevelShift> = (0..depth)
            .map(|i| {
                if i == j {
                    LevelShift::default()
                } else {
                    let coeffs = shift_coeffs.iter().map(|c| c[i]).enumerate();
                    LevelShift::new(coeffs, base.k[i], m[i], ext_int[i], ext_bnd[i])
                }
            })
            .collect();
        let shift_coeff_j: Vec<(usize, i64)> =
            shift_coeffs.iter().map(|c| c[j]).enumerate().collect();

        // Materialize the hull arrays' reduced product space per core,
        // column by column (`lo`/`hi` SoA pair).
        let mut ranges: Vec<Interval> = vec![Interval::empty(); depth];
        let mut reduced: Vec<Option<FrozenCore>> = Vec::with_capacity(cores);
        for bx in boxes {
            let Some(box_red) = bx else {
                reduced.push(None);
                continue;
            };
            if per_tile_cells == 0 {
                // With no hull array the reduced tiles have nothing to freeze.
                reduced.push(Some(FrozenCore {
                    box_red,
                    arena_lo: Vec::new(),
                    arena_hi: Vec::new(),
                }));
                continue;
            }
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
                for (arr, rule) in component.arrays.iter().zip(&rules) {
                    match rule {
                        Rule::Shift { .. } => {}
                        Rule::Hull(h) if h.j_free => {
                            for dim in &arr.contribs {
                                let mut hull = Interval::empty();
                                for cb in dim {
                                    hull = hull.hull(&partial_bounds(cb, &ranges, j));
                                }
                                push(hull);
                            }
                        }
                        Rule::Hull(_) => {
                            for dim in &arr.contribs {
                                for cb in dim {
                                    push(partial_bounds(cb, &ranges, j));
                                }
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
            rules,
            hull_arrays,
            price_len,
            reduced,
            per_tile_cells,
            frozen_m: m,
            ext_int,
            ext_bnd,
            jslots,
            shift_base,
            shift_levels,
            shift_coeff_j,
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
    /// instead of rebuilt), check persistence, then fill its lane inputs.
    /// Per group of [`SOA_LANES`] lanes, one walk sweeps the frozen levels'
    /// tiles once for all of them. [`CoordinateDelta::new`] has already
    /// declined every context whose candidates the lanes could not hold.
    ///
    /// With candidates sorted ascending, `M_j` — and so the total segment
    /// count — is non-increasing, which makes [`SEGMENT_CAP`] violations a
    /// prefix of the scan: those candidates are answered by the replayed
    /// `O(depth)` feasibility checks without walking a single tile; they are
    /// the scan's `Err(TooManySegments)` elements.
    ///
    /// Books into `ledger` the two passes' times (`fill_ns`, `walk_ns`), the
    /// walked segments whose every range came from the shift-only class
    /// path (`segments_by_class`) and the segments of cores that repeat an
    /// earlier core's box class (`segments_shared`).
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
        ledger: &mut SearchCounters,
    ) -> Vec<Result<ComponentAnalysis, Infeasible>> {
        let args = Arguments {
            delta: self,
            component,
            exec_model,
        };
        let mut out: Vec<Option<Result<ComponentAnalysis, Infeasible>>> =
            (0..candidates.len()).map(|_| None).collect();
        let mut lanes: Vec<Inputs> = Vec::with_capacity(SOA_LANES);
        let mut plan: Option<TilePlan> = None;
        for (idx, &kj) in candidates.iter().enumerate() {
            let clock = Instant::now();
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
            let p = plan.as_ref();
            let checked = prepared.and_then(|()| {
                let p = p.expect("plan prepared for feasible candidate");
                crate::segments::check_persistence(component, p).map(|()| p)
            });
            match checked {
                Ok(p) => lanes.push(fill(&args, p, solution, idx)),
                Err(e) => out[idx] = Some(Err(e)),
            }
            ledger.fill_ns += elapsed_ns(clock);
            if lanes.len() == SOA_LANES {
                walk_group(&args, &mut lanes, &mut out, ledger);
            }
        }
        if !lanes.is_empty() {
            walk_group(&args, &mut lanes, &mut out, ledger);
        }
        out.into_iter()
            .map(|o| o.expect("every candidate resolved"))
            .collect()
    }
}

/// Walks one group of filled lanes into `out`, booking the walk's time, its
/// class-answered segments and the segments of repeat cores.
fn walk_group(
    args: &Arguments,
    lanes: &mut Vec<Inputs>,
    out: &mut [Option<Result<ComponentAnalysis, Infeasible>>],
    ledger: &mut SearchCounters,
) {
    let clock = Instant::now();
    let outputs = walk(args, lanes);
    for (inputs, outputs) in lanes.drain(..).zip(outputs) {
        let idx = inputs.idx;
        let built = finish(args, inputs, outputs);
        if let Ok(analysis) = &built {
            ledger.segments_shared += analysis.shared_segments();
            if args.delta.hull_arrays == 0 {
                ledger.segments_by_class += analysis.segments();
            }
        }
        out[idx] = Some(built);
    }
    ledger.walk_ns += elapsed_ns(clock);
}

/// The fill pass for one feasible candidate: its solution and level-`j`
/// tile geometry from the freshly re-targeted plan, the hull arrays'
/// per-`t_j` moving-coordinate term columns (`clip(range_j, guard_j) ·
/// coeff_j` as `lo`/`hi`/`kill` columns), the extent classes of level `j`
/// and its shift-only terms.
fn fill(args: &Arguments, plan: &TilePlan, solution: Solution, idx: usize) -> Inputs {
    let d = args.delta;
    let j = d.j;
    let m_j = plan.m[j];
    let ranges_j = &plan.level_ranges[j];
    for (bx, rc) in plan.core_boxes.iter().zip(&d.reduced) {
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

    let n = m_j as usize * d.jslots;
    let mut add_lo: Vec<i64> = Vec::with_capacity(n);
    let mut add_hi: Vec<i64> = Vec::with_capacity(n);
    let mut kill: Vec<u8> = Vec::with_capacity(n);
    if d.jslots > 0 {
        for rj in ranges_j {
            for rule in &d.rules {
                let Rule::Hull(h) = rule else { continue };
                if h.j_free {
                    continue;
                }
                for dim in &h.contrib_j {
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
    }

    let mut ext_int = d.ext_int.clone();
    let mut ext_bnd = d.ext_bnd.clone();
    ext_int[j] = ranges_j[0].len() as i64;
    ext_bnd[j] = ranges_j[m_j as usize - 1].len() as i64;
    let shift_j = LevelShift::new(
        d.shift_coeff_j.iter().copied(),
        solution.k[j],
        m_j,
        ext_int[j],
        ext_bnd[j],
    );

    Inputs {
        idx,
        solution,
        m_j,
        jbox,
        add_lo,
        add_hi,
        kill,
        ext_int,
        ext_bnd,
        shift_j,
    }
}

/// The walk pass: one sweep of the frozen levels' tiles serves every lane.
/// The loop nests as (reduced prefix `a` = levels < `j`, lane, `t_j`,
/// reduced suffix `b` = levels > `j`); for each lane the visit order
/// `(a, t_j, b)` is exactly its full-depth odometer order, so per-lane
/// sequential state — change detection, segment numbering, first error —
/// evolves identically to the from-scratch build while the `a`-stripe of the
/// frozen columns stays cache-resident across all lanes and `t_j` values.
///
/// Shift-only ranges run alongside the odometer: `base` holds them at the
/// current `a` tile with every `b` level at its box's first tile, each
/// `(lane, t_j)` row starts from `base` plus level `j`'s term, and every `b`
/// step advances only the levels it moved. A shift-only array whose moving
/// levels the step left alone keeps the range its previous tile bound, so
/// [`bind_tile_array`] — which would find it unchanged — is not called.
/// Hull arrays finish their frozen partial sums per tile
/// ([`HullPlan::finish_range`]).
fn walk(args: &Arguments, lanes: &[Inputs]) -> Vec<Outputs> {
    let Arguments {
        delta: d,
        component,
        exec_model,
    } = *args;
    let j = d.j;
    let depth = component.depth();
    let narr = component.arrays.len();
    let mut outs: Vec<Outputs> = lanes
        .iter()
        .map(|_| Outputs {
            exec_tab: vec![f64::NAN; 1usize << depth],
            prices: vec![Price::default(); d.price_len],
            cores_out: Vec::with_capacity(d.cores),
            core_index: Vec::with_capacity(d.cores),
            bounding_boxes: component
                .arrays
                .iter()
                .map(|a| vec![0; a.dims.len()])
                .collect(),
            total_bytes: 0,
            total_ops: 0,
            last: vec![LastRange::default(); narr],
            err: None,
            walking: false,
            mark: (0, 0),
            walked: Vec::new(),
        })
        .collect();
    let mut scratch: Vec<Interval> = Vec::new();
    let mut ext_scratch: Vec<i64> = vec![0; depth];
    let mut b_tile: Vec<i64> = Vec::new();
    let mut base: Vec<Interval> = Vec::with_capacity(d.shift_base.len());
    let mut cur: Vec<Interval> = d.shift_base.clone();
    // A `t_j` step moves level `j` and resets every deeper level.
    let row_moves: u32 = (j..depth).fold(0, |m, l| m | 1 << l);
    let empty_core = |narr: usize| CoreAnalysis {
        nseg: 0,
        exec_ns: Vec::new(),
        swap_lists: vec![Vec::new(); narr],
        ranges: None,
    };

    for core in 0..d.cores {
        let Some(rc) = &d.reduced[core] else {
            // No frozen tiles on this core for any candidate: the full
            // box is `None` under every `K_j`.
            for (inp, out) in lanes.iter().zip(&mut outs) {
                if out.err.is_none() {
                    debug_assert!(inp.jbox[core].is_none());
                    out.core_index.push(out.cores_out.len());
                    out.cores_out.push(empty_core(narr));
                }
            }
            continue;
        };
        let a_dims = &rc.box_red[..j];
        let b_dims = &rc.box_red[j..];
        let len_a: usize = a_dims.iter().map(|iv| iv.len() as usize).product();
        let len_b: usize = b_dims.iter().map(|iv| iv.len() as usize).product();

        // Each lane walks the core unless, in a context without hull
        // arrays, an earlier core of its box class was walked: then the
        // core uses that core's analysis and its transfers are that core's
        // again. Bounding boxes and the first error are already the earlier
        // core's.
        let mut any_active = false;
        let mut key: Vec<(i64, i64)> = Vec::new();
        for (inp, out) in lanes.iter().zip(&mut outs) {
            if out.err.is_some() {
                continue;
            }
            let Some(jiv) = inp.jbox[core] else {
                out.core_index.push(out.cores_out.len());
                out.cores_out.push(empty_core(narr));
                continue;
            };
            if d.hull_arrays == 0 {
                key.clear();
                let mut red = rc.box_red.iter();
                for i in 0..depth {
                    let (iv, m) = if i == j {
                        (jiv, inp.m_j)
                    } else {
                        (*red.next().expect("frozen level"), d.frozen_m[i])
                    };
                    key.push(box_class(iv.lo, iv.hi, m, inp.ext_int[i], inp.ext_bnd[i]));
                }
                if let Some(w) = out.walked.iter().find(|w| w.key == key) {
                    out.core_index.push(w.index);
                    out.total_bytes = out.total_bytes.saturating_add(w.bytes);
                    out.total_ops += w.ops;
                    continue;
                }
                out.walked.push(WalkedClass {
                    key: key.clone(),
                    index: out.cores_out.len(),
                    bytes: 0,
                    ops: 0,
                });
            }
            let nseg = len_a * jiv.len() as usize * len_b;
            out.core_index.push(out.cores_out.len());
            out.cores_out.push(CoreAnalysis {
                nseg,
                exec_ns: Vec::with_capacity(nseg),
                // At most one swap entry per segment and array.
                swap_lists: (0..narr).map(|_| Vec::with_capacity(nseg)).collect(),
                ranges: None,
            });
            for l in &mut out.last {
                l.bound = false;
            }
            out.walking = true;
            out.mark = (out.total_bytes, out.total_ops);
            any_active = true;
        }
        if !any_active {
            continue;
        }

        // Shift-only ranges at the box's first tile of every frozen level.
        base.clear();
        base.extend_from_slice(&d.shift_base);
        for (i, iv) in (0..depth).filter(|&i| i != j).zip(&rc.box_red) {
            d.shift_levels[i].add(&mut base, iv.lo);
        }

        // Odometer over the reduced prefix (levels < j).
        let mut a_tile: Vec<i64> = a_dims.iter().map(|iv| iv.lo).collect();
        let mut a_idx = 0usize;
        loop {
            let mut a_mask = 0usize;
            for (i, &t) in a_tile.iter().enumerate() {
                a_mask |= usize::from(t == d.frozen_m[i] - 1) << i;
            }
            let a_base = a_idx * len_b * d.per_tile_cells;

            for (inp, out) in lanes.iter().zip(&mut outs) {
                if out.err.is_some() || !out.walking {
                    continue;
                }
                let Some(jiv) = inp.jbox[core] else {
                    continue;
                };
                // Split the lane's fields into independent borrows so the
                // active `CoreAnalysis` resolves once per (core, lane)
                // instead of once per tile.
                let Outputs {
                    exec_tab,
                    prices,
                    cores_out,
                    bounding_boxes,
                    total_bytes,
                    total_ops,
                    last,
                    err,
                    ..
                } = out;
                let ca = cores_out.last_mut().expect("core pushed");
                // The lane's previous tile lies in another block.
                let mut changed = !0u32;
                'tj: for tj in jiv.lo..=jiv.hi {
                    let jbit = usize::from(tj == inp.m_j - 1) << j;
                    let jrow = tj as usize * d.jslots;
                    cur.copy_from_slice(&base);
                    inp.shift_j.add(&mut cur, tj);
                    // Odometer over the reduced suffix (levels > j).
                    b_tile.clear();
                    b_tile.extend(b_dims.iter().map(|iv| iv.lo));
                    let mut b_mask = 0usize;
                    for (t, &v) in b_tile.iter().enumerate() {
                        b_mask |= usize::from(v == d.frozen_m[j + 1 + t] - 1) << (j + 1 + t);
                    }
                    let mut b_idx = 0usize;
                    loop {
                        let block = a_base + b_idx * d.per_tile_cells;
                        let s0 = ca.exec_ns.len();
                        let mask = a_mask | jbit | b_mask;
                        let mut failed: Option<Infeasible> = None;
                        for (ai, (arr, rule)) in component.arrays.iter().zip(&d.rules).enumerate() {
                            let bound = match rule {
                                Rule::Shift {
                                    slots,
                                    moves,
                                    price,
                                } => {
                                    if changed & moves == 0 {
                                        continue;
                                    }
                                    bind_shift(
                                        arr,
                                        &d.metas[ai],
                                        d.rw_deps[ai],
                                        &cur[slots.clone()],
                                        s0 + 1,
                                        &mut ca.swap_lists[ai],
                                        &mut last[ai],
                                        &mut prices[price + (mask & *moves as usize)],
                                        &mut bounding_boxes[ai],
                                        total_bytes,
                                        total_ops,
                                    )
                                }
                                Rule::Hull(h) => {
                                    h.finish_range(rc, inp, block, jrow, &mut scratch);
                                    bind_tile_array(
                                        arr,
                                        &d.metas[ai],
                                        d.rw_deps[ai],
                                        &scratch,
                                        s0,
                                        ca,
                                        ai,
                                        &mut last[ai],
                                        &mut bounding_boxes[ai],
                                        total_bytes,
                                        total_ops,
                                    )
                                }
                            };
                            if let Err(e) = bound {
                                failed = Some(e);
                                break;
                            }
                        }
                        if let Some(e) = failed {
                            *err = Some(e);
                            break 'tj;
                        }
                        let mut exec = exec_tab[mask];
                        if exec.is_nan() {
                            for (i, e) in ext_scratch.iter_mut().enumerate() {
                                *e = if mask >> i & 1 == 1 {
                                    inp.ext_bnd[i]
                                } else {
                                    inp.ext_int[i]
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
                        changed = 0;
                        let mut t = b_dims.len();
                        loop {
                            t -= 1;
                            let lvl = j + 1 + t;
                            let from = b_tile[t];
                            b_tile[t] = if from < b_dims[t].hi {
                                from + 1
                            } else {
                                b_dims[t].lo
                            };
                            d.shift_levels[lvl].advance(&mut cur, from, b_tile[t]);
                            changed |= 1 << lvl;
                            b_mask = (b_mask & !(1 << lvl))
                                | usize::from(b_tile[t] == d.frozen_m[lvl] - 1) << lvl;
                            if b_tile[t] > from {
                                break;
                            }
                        }
                    }
                    changed = row_moves;
                }
            }

            a_idx += 1;
            if a_idx == len_a {
                break;
            }
            let mut t = a_dims.len();
            loop {
                t -= 1;
                let from = a_tile[t];
                a_tile[t] = if from < a_dims[t].hi {
                    from + 1
                } else {
                    a_dims[t].lo
                };
                d.shift_levels[t].advance(&mut base, from, a_tile[t]);
                if a_tile[t] > from {
                    break;
                }
            }
        }

        // The walked core's class now carries what it added to the totals.
        for out in &mut outs {
            if std::mem::take(&mut out.walking) && out.err.is_none() {
                // Without hull arrays the core's class was pushed last.
                if let Some(w) = out.walked.last_mut() {
                    w.bytes = out.total_bytes - out.mark.0;
                    w.ops = out.total_ops - out.mark.1;
                }
            }
        }
    }
    outs
}

/// One lane's analysis from its walk outputs: its first error, or the
/// accumulated structure with the SPM requirement and combine phase.
fn finish(
    args: &Arguments,
    inputs: Inputs,
    outputs: Outputs,
) -> Result<ComponentAnalysis, Infeasible> {
    if let Some(e) = outputs.err {
        return Err(e);
    }
    let component = args.component;
    let (combine_rounds, combine) = combine_structure(component, &inputs.solution, args.exec_model);
    Ok(ComponentAnalysis {
        solution: inputs.solution,
        cores: outputs.cores_out,
        core_index: outputs.core_index,
        spm_bytes_needed: spm_bytes(component, &outputs.bounding_boxes),
        bounding_boxes: outputs.bounding_boxes,
        total_bytes: outputs.total_bytes,
        total_ops: outputs.total_ops,
        combine_rounds,
        combine,
        arrays: args.delta.metas.clone(),
    })
}
