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
//! The walk serves only contexts whose every array is shift-only — every
//! dimension an exact shift of the level ranges after the domination rule
//! ([`super::bound::shift_classes`], the classification the bound shares).
//! Such an array reads each tile's canonical range from per-level class
//! shapes plus a running offset ([`LevelShift`]): `O(ndims)` per range,
//! nothing frozen per tile, and no bind at all on a tile whose moved levels
//! leave the range unchanged. It binds through [`bind_shift`], which prices
//! a swap from the lane's entry for the range's extent class (DESIGN.md,
//! "Class-priced swaps"). A lane walks only the first core of each box class
//! ([`box_class`]); a later core of the class moves every range by one
//! constant, so it uses the walked core's analysis (DESIGN.md, "Walk one
//! core per box class").
//!
//! A context the walk cannot hold — an array that is not shift-only (a
//! guard that clips, mixed coefficient vectors, or interval sums that could
//! saturate), a nest too deep, or a candidate set infeasible whatever `K_j`
//! is — is declined at construction; the caller answers its candidates with
//! the reference [`ComponentAnalysis::build`].

use super::bound::{shift_classes, ShiftClasses};
use super::{
    bind_shift, box_class, combine_structure, spm_bytes, ArrayMeta, ComponentAnalysis,
    CoreAnalysis, LastRange, Price,
};
use crate::component::Component;
use crate::optimizer::elapsed_ns;
use crate::tiling::{tile_range, Infeasible, Solution, TilePlan, SEGMENT_CAP};
use crate::timing::ExecModel;
use prem_obs::SearchCounters;
use prem_polyhedral::{div_ceil, Interval};
use std::ops::Range;
use std::time::Instant;

/// Candidates interleaved per sweep of the frozen levels' tiles in
/// [`CoordinateDelta::rebuild_scan`]'s lane walk.
pub(crate) const SOA_LANES: usize = 8;

/// Depth cap for the `2^depth` extent-class execution-time table; deeper
/// nests (not reachable from the paper kernels) are declined.
const SOA_DEPTH_CAP: usize = 12;

/// Bit set in every array's [`Rule`] `moves` mask and in the
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
/// solution and level-`j` tile geometry, the extent classes and level `j`'s
/// shift terms.
struct Inputs {
    idx: usize,
    solution: Solution,
    m_j: i64,
    jbox: Vec<Option<Interval>>,
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
    /// Per array, per extent-class mask of its moving levels: the price of a
    /// swap (entry `array · 2^depth` plus the mask).
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

/// A core a lane walked: its box class
/// ([`box_class`] per level), its analysis's index in `cores_out` and what
/// its walk added to the lane's transfer totals, which every later core of
/// the class adds again.
struct WalkedClass {
    key: Vec<(i64, i64)>,
    index: usize,
    bytes: i64,
    ops: usize,
}

/// How the walk computes one array's canonical range on a tile: it is the
/// array's `slots` of the running shift ranges, and it can only change on a
/// step that moves one of the `moves` levels (those with a nonzero
/// coefficient, plus [`FRESH`]). Its extents depend only on which of those
/// levels sit on their boundary tile, so a lane prices its swaps from the
/// array's entry for that mask ([`Outputs`]' `prices`).
#[derive(Debug)]
struct Rule {
    slots: Range<usize>,
    moves: u32,
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

/// Incremental single-coordinate rebuild context (thesis §5.3.1: canonical
/// ranges factor per level). Built once per coordinate-descent scan of level
/// `j`, it freezes everything that does not depend on `K_j`: per-core
/// reduced tile boxes over the other levels and the arrays' per-level
/// terms. [`CoordinateDelta::rebuild_scan`] then replays the
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
    /// Per core, its tile box over the levels other than `j`; `None` for
    /// a core with no tile under any `K_j`.
    reduced: Vec<Option<Vec<Interval>>>,
    /// `M_i` per level for the frozen levels (entry `j` is the base
    /// solution's and is ignored — lanes carry their own `M_j`).
    frozen_m: Vec<i64>,
    /// Interior / boundary tile extents per frozen level: every tile
    /// `t < M_i - 1` of level `i` has extent `K_i` and only the last tile
    /// can clip, so two classes per level describe every reachable extent
    /// vector (entry `j` is 0; lanes fill theirs from their own ranges).
    ext_int: Vec<i64>,
    ext_bnd: Vec<i64>,
    /// Per slot (one per dimension of every array), the hull of its
    /// accesses' bases.
    shift_base: Vec<Interval>,
    /// Per frozen level, its terms in the slots (entry `j` is empty; lanes
    /// build theirs from `shift_coeff_j`).
    shift_levels: Vec<LevelShift>,
    /// `(slot, coeff_j)` of every slot.
    shift_coeff_j: Vec<(usize, i64)>,
}

impl CoordinateDelta {
    /// Precomputes the frozen-level structure for varying coordinate `j` of
    /// `base` (the value of `base.k[j]` itself is irrelevant). Returns
    /// `None` — the caller then builds every candidate with
    /// [`ComponentAnalysis::build`] — for the contexts the lane walk cannot
    /// hold, each checked here once:
    ///
    /// * an array has a dimension that is not shift-only after the
    ///   domination rule (a guard that clips, mixed coefficient vectors, or
    ///   interval sums that could saturate);
    /// * the nest is deeper than `SOA_DEPTH_CAP`;
    /// * every candidate is infeasible whatever `K_j` is: the thread shape
    ///   exceeds `cores`, or the frozen levels' segment product alone is
    ///   past [`SEGMENT_CAP`] (`TilePlan::build` rejects such a candidate in
    ///   O(depth), so there is nothing to freeze).
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
        CoordinateDelta::classified(component, &shift_classes(component), base, j, cores)
    }

    /// [`CoordinateDelta::new`] with the component's classification
    /// already made (once per evaluator).
    pub(crate) fn classified(
        component: &Component,
        shifts: &ShiftClasses,
        base: &Solution,
        j: usize,
        cores: usize,
    ) -> Option<CoordinateDelta> {
        let depth = component.depth();
        assert!(j < depth, "coordinate out of range");
        assert_eq!(base.k.len(), depth);
        assert_eq!(base.r.len(), depth);
        if depth > SOA_DEPTH_CAP || shifts.iter().flatten().any(Option::is_none) {
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

        // One slot per dimension of every array.
        let mut rules: Vec<Rule> = Vec::with_capacity(component.arrays.len());
        let mut shift_base: Vec<Interval> = Vec::new();
        let mut shift_coeffs: Vec<&[i64]> = Vec::new();
        for dims in shifts {
            let first = shift_base.len();
            let mut moves = FRESH;
            for sh in dims.iter().flatten() {
                for (l, &c) in sh.coeffs.iter().enumerate() {
                    moves |= u32::from(c != 0) << l;
                }
                shift_base.push(sh.base);
                shift_coeffs.push(sh.coeffs);
            }
            rules.push(Rule {
                slots: first..shift_base.len(),
                moves,
            });
        }

        // Radix weights for the thread id, as in `TilePlan::build`.
        let mut weight = vec![1i64; depth];
        for i in (0..depth.saturating_sub(1)).rev() {
            weight[i] = weight[i + 1] * base.r[i + 1];
        }

        // Per-core reduced boxes. The core boxes depend only on
        // (m_i, z_i, r_i), so for i ≠ j they match the boxes of every plan
        // the rebuild will construct.
        let reduced: Vec<Option<Vec<Interval>>> = (0..cores)
            .map(|core| {
                let c = core as i64;
                if c >= threads {
                    return None;
                }
                (0..depth)
                    .filter(|&i| i != j)
                    .map(|i| {
                        let g = (c / weight[i]) % base.r[i];
                        let lo = g * z[i];
                        let hi = ((g + 1) * z[i] - 1).min(m[i] - 1);
                        (lo <= hi).then(|| Interval::new(lo, hi))
                    })
                    .collect()
            })
            .collect();

        // Interior (first tile) and boundary (last tile) extents of the
        // frozen levels; level `j`'s depend on `K_j` and are filled per lane.
        let extent = |i: usize, t: i64| {
            if i == j {
                0
            } else {
                tile_range(t, base.k[i], component.levels[i].count).len() as i64
            }
        };
        let ext_int: Vec<i64> = (0..depth).map(|i| extent(i, 0)).collect();
        let ext_bnd: Vec<i64> = (0..depth).map(|i| extent(i, m[i] - 1)).collect();
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

        Some(CoordinateDelta {
            j,
            k: base.k.clone(),
            r: base.r.clone(),
            cores,
            rw_deps,
            metas,
            rules,
            reduced,
            frozen_m: m,
            ext_int,
            ext_bnd,
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
    /// Per group of `SOA_LANES` (8) lanes, one walk sweeps the frozen levels'
    /// tiles once for all of them. [`CoordinateDelta::new`] has already
    /// declined every context whose candidates the lanes could not hold.
    ///
    /// With candidates sorted ascending, `M_j` — and so the total segment
    /// count — is non-increasing, which makes [`SEGMENT_CAP`] violations a
    /// prefix of the scan: those candidates are answered by the replayed
    /// `O(depth)` feasibility checks without walking a single tile; they are
    /// the scan's `Err(TooManySegments)` elements.
    ///
    /// Books into `ledger` the two passes' times (`fill_ns`, `walk_ns`) and
    /// the segments of cores that repeat an earlier core's box class
    /// (`segments_shared`).
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

/// Walks one group of filled lanes into `out`, booking the walk's time and
/// the segments of repeat cores.
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
        }
        out[idx] = Some(built);
    }
    ledger.walk_ns += elapsed_ns(clock);
}

/// The fill pass for one feasible candidate: its solution and level-`j`
/// tile geometry from the freshly re-targeted plan, the extent classes of
/// level `j` and its shift terms.
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
                    .eq(rc),
                "delta used with foreign component"
            );
        }
    }
    let jbox: Vec<Option<Interval>> = plan
        .core_boxes
        .iter()
        .map(|bx| bx.as_ref().map(|b| b[j]))
        .collect();

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
/// evolves identically to the from-scratch build while each `a` tile's
/// ranges are computed once for all lanes and `t_j` values.
///
/// The ranges run alongside the odometer: `base` holds them at the current
/// `a` tile with every `b` level at its box's first tile, each `(lane, t_j)`
/// row starts from `base` plus level `j`'s term, and every `b` step advances
/// only the levels it moved. An array whose moving levels the step left
/// alone keeps the range its previous tile bound, so [`bind_shift`] — which
/// would find it unchanged — is not called.
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
            prices: vec![Price::default(); narr << depth],
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
        let Some(box_red) = &d.reduced[core] else {
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
        let a_dims = &box_red[..j];
        let b_dims = &box_red[j..];
        let len_a: usize = a_dims.iter().map(|iv| iv.len() as usize).product();
        let len_b: usize = b_dims.iter().map(|iv| iv.len() as usize).product();

        // Each lane walks the core unless an earlier core of its box class
        // was walked: then the core uses that core's analysis and its
        // transfers are that core's again. Bounding boxes and the first
        // error are already the earlier core's.
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
            key.clear();
            let mut red = box_red.iter();
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

        // The ranges at the box's first tile of every frozen level.
        base.clear();
        base.extend_from_slice(&d.shift_base);
        for (i, iv) in (0..depth).filter(|&i| i != j).zip(box_red) {
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
                        let s0 = ca.exec_ns.len();
                        let mask = a_mask | jbit | b_mask;
                        for (ai, (arr, rule)) in component.arrays.iter().zip(&d.rules).enumerate() {
                            if changed & rule.moves == 0 {
                                continue;
                            }
                            let bound = bind_shift(
                                arr,
                                &d.metas[ai],
                                d.rw_deps[ai],
                                &cur[rule.slots.clone()],
                                s0 + 1,
                                &mut ca.swap_lists[ai],
                                &mut last[ai],
                                &mut prices[(ai << depth) + (mask & rule.moves as usize)],
                                &mut bounding_boxes[ai],
                                total_bytes,
                                total_ops,
                            );
                            if let Err(e) = bound {
                                *err = Some(e);
                                break 'tj;
                            }
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
                // The core's class was pushed last.
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
