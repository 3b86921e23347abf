//! [`makespan_lower_bound`]: a walk-free lower bound on the makespan
//! [`super::ComponentAnalysis::makespan_only`] folds, computed from the tile
//! plan's arithmetic alone — no tile is walked and nothing is allocated per
//! tile or per level range.
//!
//! The fold's recurrence can never undercut two sums:
//!
//! * **each core's serial chain** — `fin = max(prev, mem_fin) + exec + api ≥
//!   prev + exec + api`, so a core's last segment finishes no earlier than
//!   its init charges, its first load batch and every segment's execution
//!   and API time, and its final unload batch starts only after that;
//! * **the busy time of the one shared DMA** — no batch starts before the
//!   init charges of its core, and each starts no earlier than the previous
//!   one finished, so the DMA pays every batch in full.
//!
//! Both are taken in closed form. Execution time sums over the interior /
//! boundary extent classes of a core's tile box: only a level's last tile can
//! clip, so every tile's extent vector is one of `2^depth` classes (the
//! interior/boundary split of inductive loop analysis), and the class sum
//! factorizes per level. Swap entries are counted only where they are
//! provable — the odometer steps of a core's box at which some dimension of
//! an array's canonical range strictly moves — and each transfer is priced
//! at a per-array minimum size.

use super::box_class;
use crate::component::{ArrayUse, BufferAttr, Component, DimContrib};
use crate::config::Platform;
use crate::tiling::{Solution, SEGMENT_CAP};
use crate::timing::ExecModel;
use prem_polyhedral::{div_ceil, Interval};

/// Tile geometry of one level under the bounded solution.
struct LevelShape {
    /// `M_ℓ`, the tile count.
    m: i64,
    /// `Z_ℓ`, tiles per thread group.
    z: i64,
    /// Extent of every tile but the last (`K_ℓ`).
    interior: i64,
    /// Extent of the last tile, `N_ℓ − (M_ℓ − 1)·K_ℓ` — the smallest extent
    /// any tile of the level has.
    boundary: i64,
    /// Radix weight of the level in the thread id (`Π_{k > ℓ} R_k`).
    weight: i64,
}

/// One array dimension whose canonical range is, on every tile, exactly
/// `base + Σ_ℓ coeffs_ℓ · range_ℓ` — an interval of fixed shape per extent
/// class, translated by the tile's position. See [`dim_shift`].
pub(crate) struct DimShift<'a> {
    /// The coefficient vector every access of the dimension shares.
    pub coeffs: &'a [i64],
    /// Hull of the unguarded accesses' bases.
    pub base: Interval,
}

/// Per array, per dimension, its [`dim_shift`] form: the one classification
/// of a component, made once per evaluator and read by the bound
/// ([`BoundTerms::new`]) and the lane walk ([`super::CoordinateDelta`]).
pub(crate) type ShiftClasses<'a> = Vec<Vec<Option<DimShift<'a>>>>;

/// Classifies every dimension of every array of `component`.
pub(crate) fn shift_classes(component: &Component) -> ShiftClasses<'_> {
    component
        .arrays
        .iter()
        .map(|a| a.contribs.iter().map(|d| dim_shift(d, component)).collect())
        .collect()
}

/// True when no guard of the access can clip a tile: every level's guard
/// covers the level's whole counter range, and the base is nonempty.
fn unclipped(c: &DimContrib, component: &Component) -> bool {
    !c.base.is_empty()
        && component
            .levels
            .iter()
            .zip(&c.level_bounds)
            .all(|(lv, g)| g.lo <= 0 && g.hi >= lv.count - 1)
}

/// The accesses of one dimension that can widen its hull: an access
/// dominated by another is left out (of two that dominate each other, the
/// later). `b` dominates `a` when `a`'s base lies in `b`'s and, at every
/// level, `a`'s guard lies in `b`'s and either both have one coefficient or
/// `a` has none and a guard within `{0}`. Then on a tile where `a`'s
/// [`bounds`] is nonempty, so is `b`'s, and each partial sum of `a` lies in
/// `b`'s — the saturating interval steps are monotone, and a term of `b` at
/// a level that pins `a` to `0` contains `0` — so the reference's hull
/// (`min` / `max` of the nonempty bounds) is the same bits without `a`.
///
/// [`bounds`]: crate::component::DimContrib::bounds
fn undominated<'a>(dim: &'a [DimContrib], component: &Component) -> Vec<&'a DimContrib> {
    let full = |l: usize| Interval::new(0, component.levels[l].count - 1);
    let within = |x: Interval, y: Interval| x.lo >= y.lo && x.hi <= y.hi;
    let dominates = |b: &DimContrib, a: &DimContrib| {
        within(a.base, b.base)
            && (0..component.depth()).all(|l| {
                let ga = a.level_bounds[l].intersect(&full(l));
                within(ga, b.level_bounds[l].intersect(&full(l)))
                    && (a.comp_coeffs[l] == b.comp_coeffs[l]
                        || (a.comp_coeffs[l] == 0 && within(ga, Interval::zero())))
            })
    };
    dim.iter()
        .enumerate()
        .filter(|&(i, a)| {
            !dim.iter()
                .enumerate()
                .any(|(k, b)| k != i && dominates(b, a) && (k < i || !dominates(a, b)))
        })
        .map(|(_, a)| a)
        .collect()
}

/// The one classifier of shift-only dimensions. After the domination rule
/// ([`undominated`]) drops the accesses that cannot widen the hull, the
/// interval is `hull(bases) + Σ_ℓ coeff_ℓ · range_ℓ` exactly when the
/// unguarded accesses left share one coefficient vector, their sums cannot
/// saturate ([`exact`]), and every guarded access left has those
/// coefficients and a base inside that hull (present or not, it changes
/// nothing). `None` when the dimension has no unguarded access, still mixes
/// coefficient vectors, could saturate, or moves with a level past 64 (the
/// bound's sign masks).
fn dim_shift<'a>(dim: &'a [DimContrib], component: &Component) -> Option<DimShift<'a>> {
    let kept = undominated(dim, component);
    let free = || kept.iter().filter(|c| unclipped(c, component));
    let coeffs = &free().next()?.comp_coeffs;
    let lo = free().map(|c| c.base.lo).min()?;
    let hi = free().map(|c| c.base.hi).max()?;
    let shift_only = coeffs.iter().skip(64).all(|&v| v == 0)
        && kept.iter().all(|c| {
            &c.comp_coeffs == coeffs
                && if unclipped(c, component) {
                    exact(c, component)
                } else {
                    lo <= c.base.lo && c.base.hi <= hi
                }
        });
    shift_only.then_some(DimShift {
        coeffs,
        base: Interval::new(lo, hi),
    })
}

/// Bit mask of the levels (below 64) whose coefficient has sign `sign`.
fn sign_mask(coeffs: &[i64], sign: i64) -> u64 {
    coeffs
        .iter()
        .take(64)
        .enumerate()
        .filter(|(_, &v)| v.signum() == sign)
        .fold(0u64, |m, (l, _)| m | 1 << l)
}

/// The `K`-independent half of one array's bound terms, classified once per
/// evaluator by [`BoundTerms::new`].
struct ArrayClass {
    /// Per dimension, per unguarded access: its length terms, or `None`
    /// when its length on the smallest tile cannot be formed without
    /// overflow (it then counts as 0).
    free: Vec<Vec<Option<LengthTerms>>>,
    /// Per shift-only dimension: the levels with a positive and with a
    /// negative coefficient.
    moving: Vec<(u64, u64)>,
    /// API time charged to the core per entry (loaded arrays only).
    swap_ns: f64,
    elem_bytes: i64,
    /// Transfer directions: loads, unloads.
    loads: bool,
    unloads: bool,
}

/// The `K`-independent inputs of [`shortest_len`] for an unguarded access.
struct LengthTerms {
    base_len: i64,
    /// `|coeff_ℓ|` per level.
    abs: Vec<i64>,
}

/// Mask of the levels deeper than `p`.
fn deeper_than(p: usize) -> u64 {
    if p >= 63 {
        0
    } else {
        !0u64 << (p + 1)
    }
}

/// A lower bound on the makespan
/// [`crate::optimizer::MakespanEvaluator::makespan`] returns for `solution` —
/// `+∞` when the thread shape or [`SEGMENT_CAP`] already makes the candidate
/// infeasible — computed in `O(cores × arrays × dims × depth)`
/// from `M_ℓ`, `Z_ℓ`, each core's tile box and each level's interior and
/// boundary extents. With `init = 2·narr·allocate_buffer + dispatch +
/// end_segment` and `xfer(a)` one transfer of array `a` at its minimum size,
/// the bound is `max(DMA, max over cores of chain)`:
///
/// * `chain(core)` = `init + 2·narr·deallocate_buffer` + `Σ` over loaded
///   arrays of `xfer` (the first load batch) + the execution time of the
///   core's tiles + `nseg × end_segment` + `Σ` over loaded arrays of
///   `entries × swap_cost(ndims)` + `Σ` over unloaded arrays of `xfer` (the
///   final unload batch);
/// * `DMA` = `init` + `Σ` over cores and arrays of `entries × (loads +
///   unloads) × xfer`, where `xfer = dma_int_handler + dma_line_overhead_ns +
///   max(1, bytes_min / granularity) × bus_ns_per_burst`: a transfer moves at
///   least one line and at least `bytes / granularity` bursts, and never
///   fewer than one.
///
/// Only arrays whose canonical range is nonempty on every tile count — each
/// dimension has an access no guard clips — since an empty range binds
/// nothing. For those, `entries(core, array)` is `1 +` the odometer steps of
/// the core's box that provably move the range. A step carrying into level
/// `p` raises `p`'s tile range and lowers the range of every deeper level
/// with more than one tile; in a shift-only dimension (`dim_shift`) each
/// changed level shifts the interval by a nonzero amount of known sign, so
/// when every sign agrees the interval strictly moves and the step is a new
/// entry (or a `RangeOverlap`, i.e. `+∞`). `bytes_min` is the element size
/// times, per dimension, the longest unguarded access at every level's
/// smallest extent — the hull contains it. The line count is deliberately
/// not bounded by a minimum-extent shape: transfer time is not monotone in
/// the extents (a `[2][3]` range of a `[4][4]` array moves two lines, a
/// `[2][4]` one moves one).
///
/// Every integer product is checked; an overflowing term drops to 0 (or the
/// array's entries to none), which weakens the bound without making it
/// unsound. A platform with a negative or non-finite timing scalar, or an
/// array with a non-positive element size, gets `−∞` (no bound): the terms
/// the bound drops are non-negative only without them.
///
/// The float sums run in another order than the fold's, so bound and
/// makespan can differ by rounding (≈ 10⁻¹¹ relative at 10⁵ segments);
/// callers that compare the bound with a computed makespan leave a relative
/// margin (see [`crate::optimizer::find_minimum`]). A search evaluating many
/// candidates of one component keeps one `BoundTerms` instead; its bounds
/// are bitwise this function's.
pub fn makespan_lower_bound(
    component: &Component,
    solution: &Solution,
    platform: &Platform,
    exec_model: &ExecModel,
) -> f64 {
    BoundTerms::new(component, platform, &shift_classes(component)).bound(
        component,
        solution,
        platform,
        exec_model,
        &mut BoundScratch::default(),
    )
}

/// The buffers [`BoundTerms::bound`] writes, owned by its caller so that a
/// search computing many bounds allocates them once: the candidate's level
/// shapes, each bound array's transfer time, the current core's box class,
/// and the terms of every class met so far.
#[derive(Default)]
pub(crate) struct BoundScratch {
    levels: Vec<LevelShape>,
    /// Per bound array: one transfer at its minimum size, in ns.
    xfer_ns: Vec<f64>,
    key: Vec<(i64, i64)>,
    /// Per class met, its key: `depth` entries each.
    class_keys: Vec<(i64, i64)>,
    /// Per class met, its cores' serial chain.
    class_chain: Vec<f64>,
    /// Per class met, per bound array, its transfers' share of the DMA's
    /// busy time.
    class_dma: Vec<f64>,
    n: Vec<u64>,
    extent_sums: Vec<f64>,
}

/// The part of [`makespan_lower_bound`] that no tile size moves, for one
/// (component, platform): the platform's validity, and per array whether
/// every tile binds it, its shift-only dimensions' sign masks, its
/// unguarded accesses' length terms and its API cost.
pub(crate) struct BoundTerms {
    valid: bool,
    /// One entry per array that binds on every tile, in array order.
    arrays: Vec<ArrayClass>,
}

impl BoundTerms {
    /// Classifies `component`'s arrays for bounds on `platform`, reading
    /// each dimension's shift-only form from `shifts`
    /// ([`shift_classes`] of the same component).
    pub(crate) fn new(
        component: &Component,
        platform: &Platform,
        shifts: &ShiftClasses,
    ) -> BoundTerms {
        let api = &platform.api;
        let valid = [
            api.allocate_buffer,
            api.deallocate_buffer,
            api.dispatch,
            api.end_segment,
            api.dma_int_handler,
            api.swap_buffer,
            api.swap2d_buffer,
            platform.dma_line_overhead_ns,
            platform.bus_ns_per_burst(),
        ]
        .iter()
        .all(|s| s.is_finite() && *s >= 0.0)
            && platform.granularity_bytes > 0
            && component.arrays.iter().all(|a| a.elem_bytes > 0);
        let arrays = if valid {
            component
                .arrays
                .iter()
                .zip(shifts)
                .filter_map(|(a, s)| classify(a, s, component, platform))
                .collect()
        } else {
            Vec::new()
        };
        BoundTerms { valid, arrays }
    }

    /// [`makespan_lower_bound`] of `solution`, for the component and
    /// platform these terms were classified for, computed in `scratch`. A
    /// core whose tile box has the class ([`box_class`], the lane walk's key)
    /// of an earlier core's reuses that core's chain and DMA terms — they are
    /// a function of the class — and every sum still runs in core and array
    /// order.
    pub(crate) fn bound(
        &self,
        component: &Component,
        solution: &Solution,
        platform: &Platform,
        exec_model: &ExecModel,
        scratch: &mut BoundScratch,
    ) -> f64 {
        if !self.valid {
            return f64::NEG_INFINITY;
        }
        let api = &platform.api;
        let bus_ns = platform.bus_ns_per_burst();
        // The feasibility gates of `TilePlan::build`.
        let threads = solution.threads();
        if component
            .levels
            .iter()
            .zip(&solution.r)
            .any(|(lv, &r)| !lv.parallel && r > 1)
            || threads > platform.cores as i64
            || solution.total_tiles(component) > SEGMENT_CAP
        {
            return f64::INFINITY;
        }
        let depth = component.depth();
        let BoundScratch {
            levels,
            xfer_ns,
            key,
            class_keys,
            class_chain,
            class_dma,
            n,
            extent_sums,
        } = scratch;
        level_shapes(component, solution, levels);
        xfer_ns.clear();
        xfer_ns.extend(
            self.arrays
                .iter()
                .map(|a| a.xfer_ns(levels, platform, bus_ns)),
        );
        let bound_arrays = || self.arrays.iter().zip(xfer_ns.iter());
        let narr = component.arrays.len() as f64;
        let init = 2.0 * narr * api.allocate_buffer + api.dispatch + api.end_segment;
        let first_load: f64 = bound_arrays()
            .filter(|(a, _)| a.loads)
            .map(|(_, x)| x)
            .sum();
        let final_unload: f64 = bound_arrays()
            .filter(|(a, _)| a.unloads)
            .map(|(_, x)| x)
            .sum();

        let mut dma_busy = 0.0f64;
        let mut chain_max = 0.0f64;
        // The current core's box class, and the terms of every class met.
        key.clear();
        key.resize(depth, (0, 0));
        class_keys.clear();
        class_chain.clear();
        class_dma.clear();
        n.clear();
        n.resize(depth, 0);
        extent_sums.clear();
        extent_sums.resize(depth, 0.0);
        let narr_bound = self.arrays.len();
        'cores: for core in 0..threads {
            // The box `TilePlan::build` assigns.
            for (s, (lv, &r)) in key.iter_mut().zip(levels.iter().zip(&solution.r)) {
                let g = (core / lv.weight) % r;
                let lo = g * lv.z;
                let hi = ((g + 1) * lv.z - 1).min(lv.m - 1);
                if lo > hi {
                    continue 'cores;
                }
                *s = box_class(lo, hi, lv.m, lv.interior, lv.boundary);
            }
            let known =
                (0..class_chain.len()).find(|&c| class_keys[c * depth..][..depth] == key[..]);
            let class = match known {
                Some(c) => c,
                None => {
                    // A last tile of another extent than the interior one
                    // is the level's clipped boundary tile. An unclipped one
                    // counts as interior: `len·K`, which equals the
                    // `(len − 1)·K + K` of a boundary tile of extent `K`
                    // while the sums are exact: `len·K < 2·N_ℓ` below 2^53.
                    let mut nseg = 1u64;
                    let mut multi = 0u64;
                    for (j, (lv, &(len, last))) in levels.iter().zip(key.iter()).enumerate() {
                        let len = len as u64;
                        let interior = len - u64::from(last != lv.interior);
                        n[j] = len;
                        extent_sums[j] = interior as f64 * lv.interior as f64
                            + if interior < len { last as f64 } else { 0.0 };
                        nseg *= len;
                        if len > 1 && j < 64 {
                            multi |= 1 << j;
                        }
                    }
                    let mut chain = init
                        + 2.0 * narr * api.deallocate_buffer
                        + first_load
                        + box_exec_ns(exec_model, n, extent_sums, nseg)
                        + nseg as f64 * api.end_segment
                        + final_unload;
                    for (a, x) in bound_arrays() {
                        let e = entries(&a.moving, multi, n) as f64;
                        chain += e * a.swap_ns;
                        class_dma.push(e * f64::from(u8::from(a.loads) + u8::from(a.unloads)) * x);
                    }
                    class_keys.extend_from_slice(key);
                    class_chain.push(chain);
                    class_chain.len() - 1
                }
            };
            for d in &class_dma[class * narr_bound..][..narr_bound] {
                dma_busy += d;
            }
            chain_max = chain_max.max(class_chain[class]);
        }
        if dma_busy > 0.0 {
            dma_busy += init;
        }
        dma_busy.max(chain_max)
    }
}

/// Tile geometry of every level under `solution`, with the thread-id radix
/// weights of `TilePlan::build`, into `levels`.
fn level_shapes(component: &Component, solution: &Solution, levels: &mut Vec<LevelShape>) {
    levels.clear();
    levels.extend(
        component
            .levels
            .iter()
            .zip(solution.k.iter().zip(&solution.r))
            .map(|(lv, (&k, &r))| {
                let m = div_ceil(lv.count, k);
                LevelShape {
                    m,
                    z: div_ceil(m, r),
                    interior: k,
                    boundary: lv.count - (m - 1).max(0) * k,
                    weight: 1,
                }
            }),
    );
    for j in (0..levels.len().saturating_sub(1)).rev() {
        levels[j].weight = levels[j + 1].weight * solution.r[j + 1];
    }
}

/// Execution time of every tile of a box, summed over the interior /
/// boundary extent classes in factorized form: with `S_k` the sum of level
/// `k`'s extents over the box and `n_k` its tile count,
/// `Σ_tiles Π_{k≤j} e_k = Π_{k≤j} S_k · Π_{k>j} n_k`, so the class sum of
/// [`ExecModel::tile_time_ns`] is `Σ_j O_j·Π_{k≤j} S_k·Π_{k>j} n_k +
/// W·Π_k S_k`.
fn box_exec_ns(exec_model: &ExecModel, n: &[u64], extent_sums: &[f64], nseg: u64) -> f64 {
    let mut rest = nseg;
    let mut prod = 1.0f64;
    let mut total = 0.0f64;
    for ((o, &nj), &s) in exec_model.o.iter().zip(n).zip(extent_sums) {
        rest /= nj;
        prod *= s;
        total += o * prod * rest as f64;
    }
    total + exec_model.w * prod
}

/// Lower bound on one core's `SegmentToSwap` length for an array that binds
/// on every tile: the first tile, plus every odometer step that moves one of
/// the `moving` dimensions. A step carrying into level `p` raises `p`'s range
/// and lowers every deeper level with more than one tile (`multi`); a
/// dimension strictly moves when the resulting shifts — `+` for a raised
/// positive or a lowered negative coefficient, `−` for the other two — all
/// have one sign. There are `Π_{ℓ<p} n_ℓ × (n_p − 1)` steps into `p`; no
/// product overflows, `Π n_ℓ` being the core's segment count.
fn entries(moving: &[(u64, u64)], multi: u64, n: &[u64]) -> u64 {
    let mut steps = 0u64;
    let mut prefix = 1u64;
    for (p, &np) in n.iter().enumerate() {
        if np > 1 && p < 64 {
            let (raised, lowered) = (1u64 << p, multi & deeper_than(p));
            let moves = moving.iter().any(|&(pos, neg)| {
                let up = (raised & pos) | (lowered & neg) != 0;
                let down = (raised & neg) | (lowered & pos) != 0;
                up != down
            });
            if moves {
                steps += prefix * (np - 1);
            }
        }
        prefix *= np;
    }
    1 + steps
}

/// The `K`-independent terms of one array, whose dimensions' shift-only
/// forms are `shifts`, or `None` when some tile may bind no range for it: a
/// dimension without an access that no guard clips.
fn classify(
    arr: &ArrayUse,
    shifts: &[Option<DimShift>],
    component: &Component,
    platform: &Platform,
) -> Option<ArrayClass> {
    let mut free = Vec::with_capacity(arr.contribs.len());
    let mut moving = Vec::new();
    for (dim, shift) in arr.contribs.iter().zip(shifts) {
        let lens: Vec<Option<LengthTerms>> = dim
            .iter()
            .filter(|c| unclipped(c, component))
            .map(|c| length_terms(c, component))
            .collect();
        if lens.is_empty() {
            return None;
        }
        free.push(lens);
        if let Some(shift) = shift {
            moving.push((sign_mask(shift.coeffs, 1), sign_mask(shift.coeffs, -1)));
        }
    }
    let loads = matches!(arr.attr, BufferAttr::Ro | BufferAttr::Rw);
    Some(ArrayClass {
        free,
        moving,
        swap_ns: if loads {
            platform.api.swap_cost(arr.dims.len())
        } else {
            0.0
        },
        elem_bytes: arr.elem_bytes,
        loads,
        unloads: matches!(arr.attr, BufferAttr::Wo | BufferAttr::Rw),
    })
}

impl ArrayClass {
    /// DMA time of one transfer of the array at its minimum size under one
    /// candidate's level shapes.
    fn xfer_ns(&self, levels: &[LevelShape], platform: &Platform, bus_ns: f64) -> f64 {
        let mut elems = Some(1i64);
        for dim in &self.free {
            let longest = dim
                .iter()
                .map(|c| {
                    c.as_ref()
                        .and_then(|t| shortest_len(t, levels))
                        .unwrap_or(0)
                })
                .max()
                .unwrap_or(0);
            elems = elems.and_then(|e| e.checked_mul(longest));
        }
        let bytes_min = elems
            .and_then(|e| e.checked_mul(self.elem_bytes))
            .unwrap_or(0);
        let bursts = (bytes_min as f64 / platform.granularity_bytes as f64).max(1.0);
        platform.api.dma_int_handler + platform.dma_line_overhead_ns + bursts * bus_ns
    }
}

/// True when a contribution's saturating interval arithmetic is exact: its
/// extreme sums over every level's whole counter range stay within `i64`.
fn exact(c: &DimContrib, component: &Component) -> bool {
    let (mut lo, mut hi) = (Some(c.base.lo), Some(c.base.hi));
    for (lv, &coef) in component.levels.iter().zip(&c.comp_coeffs) {
        let Some(span) = coef.checked_mul(lv.count - 1) else {
            return false;
        };
        lo = lo.and_then(|v| v.checked_add(span.min(0)));
        hi = hi.and_then(|v| v.checked_add(span.max(0)));
    }
    lo.is_some() && hi.is_some()
}

/// The [`LengthTerms`] of an unguarded contribution, or `None` when the
/// interval arithmetic could saturate or the base length or an absolute
/// coefficient overflows.
fn length_terms(c: &DimContrib, component: &Component) -> Option<LengthTerms> {
    if !exact(c, component) {
        return None;
    }
    Some(LengthTerms {
        base_len: c.base.hi.checked_sub(c.base.lo)?.checked_add(1)?,
        abs: c
            .comp_coeffs
            .iter()
            .map(|v| v.checked_abs())
            .collect::<Option<Vec<i64>>>()?,
    })
}

/// Length of an unguarded contribution's interval on the smallest tile of
/// every level, `base.len() + Σ_ℓ |coeff_ℓ|·(boundary_ℓ − 1)`; `None` when
/// the sum overflows.
fn shortest_len(t: &LengthTerms, levels: &[LevelShape]) -> Option<i64> {
    let mut len = t.base_len;
    for (&coef, lv) in t.abs.iter().zip(levels) {
        len = len.checked_add(coef.checked_mul(lv.boundary - 1)?)?;
    }
    Some(len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::ComponentAnalysis;
    use crate::looptree::LoopTree;
    use crate::tiling::TilePlan;
    use prem_ir::{AssignKind, ElemType, Expr, IdxExpr, ProgramBuilder};

    /// `y[i] += x[i + k] * w[k]` over `i < 8`, `k < 3`.
    fn conv1d() -> Component {
        let mut b = ProgramBuilder::new("conv1d");
        let x = b.array("x", vec![10], ElemType::F32);
        let w = b.array("w", vec![3], ElemType::F32);
        let y = b.array("y", vec![8], ElemType::F32);
        let i = b.begin_loop("i", 0, 1, 8);
        let k = b.begin_loop("k", 0, 1, 3);
        b.stmt(
            y,
            vec![IdxExpr::var(i)],
            AssignKind::AddAssign,
            Expr::mul(
                Expr::load(x, vec![IdxExpr::var(i).add(&IdxExpr::var(k))]),
                Expr::load(w, vec![IdxExpr::var(k)]),
            ),
        );
        b.end_loop();
        b.end_loop();
        let program = b.finish();
        let tree = LoopTree::build(&program).unwrap();
        let (ni, nk) = (&tree.roots[0], &tree.roots[0].children[0]);
        Component::extract(&tree, &program, &[ni, nk])
    }

    /// Per core and array, the provable entry count never exceeds the real
    /// `SegmentToSwap` length. With `K = [2, 1]` a carry into `i` raises
    /// `x[i + k]` by 2 and resets `k` from 2 to 0: the shifts cancel, the
    /// range repeats, and the count must not take that step.
    #[test]
    fn entries_never_exceed_the_swap_lists() {
        let comp = conv1d();
        let platform = Platform::default().with_cores(2);
        let model = ExecModel {
            o: vec![1.0, 1.0],
            w: 1.0,
        };
        let x = comp.arrays.iter().position(|a| a.name == "x").unwrap();
        let shifts = shift_classes(&comp);
        let mut checked = 0;
        for k in [[1, 1], [2, 1], [3, 1], [2, 2], [3, 2], [8, 3], [4, 3]] {
            for r in [[1, 1], [2, 1]] {
                let sol = Solution {
                    k: k.to_vec(),
                    r: r.to_vec(),
                };
                let Ok(analysis) = ComponentAnalysis::build(&comp, &sol, 2, &model, false) else {
                    continue;
                };
                let plan = TilePlan::build(&comp, &sol, 2).unwrap();
                for (core, bx) in plan.core_boxes.iter().enumerate() {
                    let Some(bx) = bx else { continue };
                    let n: Vec<u64> = bx.iter().map(|iv| iv.len()).collect();
                    let multi = n
                        .iter()
                        .enumerate()
                        .filter(|(_, &len)| len > 1)
                        .fold(0u64, |m, (j, _)| m | 1 << j);
                    for (ai, arr) in comp.arrays.iter().enumerate() {
                        let class = classify(arr, &shifts[ai], &comp, &platform)
                            .expect("no guards: every tile binds");
                        let provable = entries(&class.moving, multi, &n) as usize;
                        let real = analysis.core(core).swap_lists[ai].len();
                        assert!(provable <= real, "{sol} core {core} {}", arr.name);
                        if ai == x && sol.k == [2, 1] && sol.r == [1, 1] {
                            // 4 rows × 3 ranges, but each row's first range
                            // repeats the previous row's last.
                            assert_eq!((provable, real), (9, 9));
                        }
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 20);
    }
}
