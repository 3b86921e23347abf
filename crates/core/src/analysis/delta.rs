//! [`CoordinateDelta`]: incremental rebuild of a [`ComponentAnalysis`] when
//! only one tile coordinate `K_j` moves — the frozen-level context built
//! once per coordinate scan, and the walk that serves every candidate of the
//! scan in two passes:
//!
//! * **fill** ([`fill`]) — the candidate's re-targeted tile plan and the
//!   level-`j` inputs of the walk ([`Inputs`]);
//! * **walk** ([`walk`]) — per core, the tile odometer in the from-scratch
//!   build's order, emitting one row id per segment ([`RowCore`]).
//!
//! The walk serves only contexts whose every array is shift-only — every
//! dimension an exact shift of the level ranges after the domination rule
//! ([`super::bound::shift_classes`], the classification the bound shares).
//! Such an array's canonical range on a tile is per-level class shapes plus
//! an offset ([`LevelShift`]), so whether a step changes it, and the
//! line shapes of everything a segment swaps, loads and unloads, depend only
//! on the odometer's state near the box edges: the carry level into the
//! segment and which digits sit on `lo`, `lo + 1`, `hi − 1`, `hi`, `M − 1`
//! and `M − 2` (DESIGN.md, "Rows, not segments"). The walk steps the digits
//! alone, keys each segment by that state, and derives a row only when a key
//! is new; it never binds a range. A swap is priced from the candidate's
//! entry for the range's extent class (DESIGN.md, "Class-priced swaps"). A
//! candidate walks only the first core of each box class ([`box_class`]); a
//! later core of the class moves every range by one constant, so it uses the
//! walked core's rows (DESIGN.md, "Walk one core per box class").
//!
//! A context the walk cannot hold — an array that is not shift-only (a
//! guard that clips, mixed coefficient vectors, or interval sums that could
//! saturate), a nest too deep, or a candidate set infeasible whatever `K_j`
//! is — is declined at construction; the caller answers its candidates with
//! the reference [`ComponentAnalysis::build`].

use super::bound::{shift_classes, ShiftClasses};
use super::rows::{Cell, RowCore, RowHead, Shape};
use super::{
    box_class, combine_structure, spm_bytes, ArrayMeta, ComponentAnalysis, CoreAnalysis, Price,
    Walked,
};
use crate::component::Component;
use crate::optimizer::elapsed_ns;
use crate::tiling::{tile_range, Infeasible, Solution, TilePlan, SEGMENT_CAP};
use crate::timing::ExecModel;
use prem_obs::SearchCounters;
use prem_polyhedral::{div_ceil, Interval};
use std::ops::Range;
use std::time::Instant;

/// Depth cap of the walk: the `2^depth` extent-class tables and the level
/// bit masks of the row derivation; deeper nests (not reachable from the
/// paper kernels) are declined.
const DEPTH_CAP: usize = 12;

/// The row key of a core's first segment, which no step entered (the carry
/// field of every other key is a level below [`DEPTH_CAP`]).
const FRESH: u64 = 0xF;

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
    solution: Solution,
    m_j: i64,
    jbox: Vec<Option<Interval>>,
    ext_int: Vec<i64>,
    ext_bnd: Vec<i64>,
    shift_j: LevelShift,
}

impl Default for Inputs {
    fn default() -> Self {
        Inputs {
            solution: Solution {
                k: Vec::new(),
                r: Vec::new(),
            },
            m_j: 0,
            jbox: Vec::new(),
            ext_int: Vec::new(),
            ext_bnd: Vec::new(),
            shift_j: LevelShift::default(),
        }
    }
}

/// A core a candidate walked: its box class ([`box_class`] per level), its
/// rows' index in the candidate's walked cores and what its walk added to
/// the transfer totals, which every later core of the class adds again.
struct WalkedClass {
    key: [(i64, i64); DEPTH_CAP],
    index: usize,
    bytes: i64,
    ops: usize,
}

/// One array's slots in the running shift ranges, and the levels with a
/// nonzero coefficient in any of them — the only levels whose moves can
/// change the array's range, and whose extent classes set its price.
#[derive(Debug)]
struct Rule {
    slots: Range<usize>,
    moves: u32,
    /// Whether a flow or output dependence of the component reads or
    /// writes the array.
    rw_deps: bool,
}

/// One level's term `coeff · range_ℓ(t)` in every shift-only slot whose
/// coefficient at the level is nonzero. Tile `t`'s counter range is
/// `[t·K, t·K + e − 1]`, `e` the interior extent `K` or, on the last tile
/// `M − 1`, the boundary extent, so the term is the running offset
/// `coeff·K·t` plus the class shape `coeff · [0, e − 1]`: a step of the
/// level shifts the slot by `coeff·K` plus the change of shape, and a
/// range's extents are the sum of its class shapes' widths.
#[derive(Debug, Default)]
struct LevelShift {
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
    /// The terms of a level with tile size `k` and the given interior /
    /// boundary extents, for `(slot, coeff)` pairs.
    fn new(
        coeffs: impl IntoIterator<Item = (usize, i64)>,
        k: i64,
        ext_int: i64,
        ext_bnd: i64,
    ) -> LevelShift {
        let mut level = LevelShift::default();
        level.fill(coeffs, k, ext_int, ext_bnd);
        level
    }

    /// [`LevelShift::new`] over this level's terms, reusing their buffer.
    fn fill(
        &mut self,
        coeffs: impl IntoIterator<Item = (usize, i64)>,
        k: i64,
        ext_int: i64,
        ext_bnd: i64,
    ) {
        self.terms.clear();
        self.terms.extend(
            coeffs
                .into_iter()
                .filter(|&(_, c)| c != 0)
                .map(|(slot, c)| ShiftTerm {
                    slot,
                    step: c.wrapping_mul(k),
                    int: Interval::new(0, ext_int - 1).scale(c),
                    bnd: Interval::new(0, ext_bnd - 1).scale(c),
                }),
        );
    }
}

/// Incremental single-coordinate rebuild context (thesis §5.3.1: canonical
/// ranges factor per level). Built once per coordinate-descent scan of level
/// `j`, it freezes everything that does not depend on `K_j`: per-core
/// reduced tile boxes over the other levels and the arrays' per-level
/// terms. [`CoordinateDelta::rebuild_scan`] then walks each core's tiles in
/// the odometer order of [`ComponentAnalysis::build`] and derives one row
/// per distinct odometer state — same swaps, same batches, same first
/// error. Results are bitwise equal to a from-scratch build (enforced by a
/// sampled debug assert in the evaluator and the `incremental_differential`
/// suite).
#[derive(Debug)]
pub struct CoordinateDelta {
    j: usize,
    k: Vec<i64>,
    r: Vec<i64>,
    cores: usize,
    metas: Vec<ArrayMeta>,
    rules: Vec<Rule>,
    /// Per core, its tile box over the levels other than `j`, `depth − 1`
    /// intervals each (placeholders for a core without a box), read through
    /// [`CoordinateDelta::reduced`].
    reduced: Vec<Interval>,
    /// Per core, whether it has a tile under some `K_j`.
    has_box: Vec<bool>,
    /// `M_i` per level for the frozen levels (entry `j` is the base
    /// solution's and is ignored — each candidate has its own `M_j`).
    frozen_m: Vec<i64>,
    /// Interior / boundary tile extents per frozen level: every tile
    /// `t < M_i - 1` of level `i` has extent `K_i` and only the last tile
    /// can clip, so two classes per level describe every reachable extent
    /// vector (entry `j` is 0; each candidate fills its own).
    ext_int: Vec<i64>,
    ext_bnd: Vec<i64>,
    /// Per slot (one per dimension of every array), the hull of its
    /// accesses' bases.
    shift_base: Vec<Interval>,
    /// Per frozen level, its terms in the slots (entry `j` is empty; each
    /// candidate builds its own from `shift_coeff_j`).
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
    /// * the nest is deeper than `DEPTH_CAP`;
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
        if depth > DEPTH_CAP || shifts.iter().flatten().any(Option::is_none) {
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
        let mut red_total = 1u64;
        for (i, &mi) in m.iter().enumerate() {
            if i != j {
                red_total = red_total.saturating_mul(mi as u64);
            }
        }
        if red_total > SEGMENT_CAP {
            return None;
        }

        let metas: Vec<ArrayMeta> = component.arrays.iter().map(ArrayMeta::of).collect();

        // One slot per dimension of every array.
        let mut rules: Vec<Rule> = Vec::with_capacity(component.arrays.len());
        let mut shift_base: Vec<Interval> = Vec::new();
        for (dims, a) in shifts.iter().zip(&component.arrays) {
            let first = shift_base.len();
            let mut moves = 0u32;
            for sh in dims.iter().flatten() {
                for (l, &c) in sh.coeffs.iter().enumerate() {
                    moves |= u32::from(c != 0) << l;
                }
                shift_base.push(sh.base);
            }
            rules.push(Rule {
                slots: first..shift_base.len(),
                moves,
                rw_deps: crate::segments::array_has_rw_deps(component, a.array),
            });
        }
        // Every slot's coefficient vector, in slot order.
        let shift_coeffs = || {
            shifts
                .iter()
                .flat_map(|dims| dims.iter().flatten().map(|sh| sh.coeffs))
        };

        // Per-core reduced boxes. The core boxes depend only on
        // (m_i, z_i, r_i), so for i ≠ j they match the boxes of every plan
        // the rebuild will construct.
        let mut reduced = Vec::with_capacity(cores * (depth - 1));
        let has_box: Vec<bool> = (0..cores as i64)
            .map(|c| {
                let from = reduced.len();
                if c < threads {
                    reduced.extend((0..depth).filter(|&i| i != j).map(|i| {
                        // Radix weight and ranges per thread group, as in
                        // `TilePlan::build`.
                        let weight: i64 = base.r[i + 1..].iter().product();
                        let z = div_ceil(m[i], base.r[i]);
                        let g = (c / weight) % base.r[i];
                        let lo = g * z;
                        let hi = ((g + 1) * z - 1).min(m[i] - 1);
                        Interval::new(lo, hi)
                    }));
                    if reduced[from..].iter().all(|iv| iv.lo <= iv.hi) {
                        return true;
                    }
                    reduced.truncate(from);
                }
                reduced.extend((1..depth).map(|_| Interval::empty()));
                false
            })
            .collect();

        // Interior (first tile) and boundary (last tile) extents of the
        // frozen levels; level `j`'s depend on `K_j` and are filled per candidate.
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
                    let coeffs = shift_coeffs().map(|c| c[i]).enumerate();
                    LevelShift::new(coeffs, base.k[i], ext_int[i], ext_bnd[i])
                }
            })
            .collect();
        let shift_coeff_j: Vec<(usize, i64)> = shift_coeffs().map(|c| c[j]).enumerate().collect();

        Some(CoordinateDelta {
            j,
            k: base.k.clone(),
            r: base.r.clone(),
            cores,
            metas,
            rules,
            reduced,
            has_box,
            frozen_m: m,
            ext_int,
            ext_bnd,
            shift_base,
            shift_levels,
            shift_coeff_j,
        })
    }

    /// Core `core`'s tile box over the levels other than `j`; `None` for a
    /// core with no tile under any `K_j`.
    fn reduced(&self, core: usize) -> Option<&[Interval]> {
        let width = self.k.len() - 1;
        self.has_box[core].then(|| &self.reduced[core * width..][..width])
    }

    /// Rebuilds the analysis (without retained ranges) for the base solution
    /// with coordinate `j` set to every `k_j` in `candidates`; a single
    /// rebuild is a scan of one. Must be called with the component the delta
    /// was built from. Each element of the result, including which
    /// [`Infeasible`] is reported first, is bitwise identical to the
    /// from-scratch `ComponentAnalysis::build(component, &solution, cores,
    /// exec_model, false)`.
    ///
    /// Per candidate: prepare the tile plan (the first feasible candidate's
    /// plan is re-targeted with [`TilePlan::set_coordinate`] instead of
    /// rebuilt), check persistence, fill its inputs, then walk its cores.
    /// [`CoordinateDelta::new`] has already declined every context whose
    /// candidates the walk could not hold.
    ///
    /// With candidates sorted ascending, `M_j` — and so the total segment
    /// count — is non-increasing, which makes [`SEGMENT_CAP`] violations a
    /// prefix of the scan: those candidates are answered by the replayed
    /// `O(depth)` feasibility checks without walking a single tile; they are
    /// the scan's `Err(TooManySegments)` elements.
    ///
    /// Books into `ledger` the two passes' times (`fill_ns`, `walk_ns`), the
    /// rows the walk derived (`row_keys`) and the segments of cores that
    /// repeat an earlier core's box class (`segments_shared`).
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
        let mut scratch = RowScratch::default();
        self.rebuild_scan_with(component, candidates, exec_model, ledger, &mut scratch)
    }

    /// [`CoordinateDelta::rebuild_scan`] with the walk's buffers kept by the
    /// caller across scans.
    pub(crate) fn rebuild_scan_with(
        &self,
        component: &Component,
        candidates: &[i64],
        exec_model: &ExecModel,
        ledger: &mut SearchCounters,
        scratch: &mut RowScratch,
    ) -> Vec<Result<ComponentAnalysis, Infeasible>> {
        let args = Arguments {
            delta: self,
            component,
            exec_model,
        };
        let mut plan: Option<TilePlan> = None;
        let mut out = Vec::with_capacity(candidates.len());
        // One candidate's inputs at a time, refilled in place, in buffers
        // the previous scans left.
        let mut inputs = std::mem::take(&mut scratch.inputs);
        inputs.solution.k.clone_from(&self.k);
        inputs.solution.r.clone_from(&self.r);
        for &kj in candidates {
            let clock = Instant::now();
            inputs.solution.k[self.j] = kj;
            let solution = &inputs.solution;
            let prepared = match plan {
                Some(ref mut p) => p.set_coordinate(component, solution, self.j).map(|()| &*p),
                None => TilePlan::build(component, solution, self.cores).map(|p| &*plan.insert(p)),
            };
            let filled = prepared
                .and_then(|p| crate::segments::check_persistence(component, p).map(|()| p))
                .map(|p| fill(&args, p, &mut inputs));
            ledger.fill_ns += elapsed_ns(clock);
            out.push(filled.and_then(|()| {
                let clock = Instant::now();
                let built = walk(&args, &inputs, scratch, ledger);
                if let Ok(analysis) = &built {
                    ledger.segments_shared += analysis.shared_segments();
                }
                ledger.walk_ns += elapsed_ns(clock);
                built
            }));
        }
        scratch.inputs = inputs;
        out
    }
}

/// The fill pass for one feasible candidate, whose solution `inputs`
/// already holds: its level-`j` tile geometry from the freshly re-targeted
/// plan, the extent classes of level `j` and its shift terms, written over
/// the previous candidate's.
fn fill(args: &Arguments, plan: &TilePlan, inputs: &mut Inputs) {
    let d = args.delta;
    let j = d.j;
    let m_j = plan.m[j];
    let ranges_j = &plan.level_ranges[j];
    for (core, bx) in plan.core_boxes.iter().enumerate() {
        if let (Some(bx), Some(rc)) = (bx, d.reduced(core)) {
            debug_assert!(
                bx.iter()
                    .enumerate()
                    .filter_map(|(i, iv)| (i != j).then_some(iv))
                    .eq(rc),
                "delta used with foreign component"
            );
        }
    }
    inputs.m_j = m_j;
    inputs.jbox.clear();
    inputs
        .jbox
        .extend(plan.core_boxes.iter().map(|bx| bx.as_ref().map(|b| b[j])));

    // A feasible plan has at least one tile on every level.
    inputs.ext_int.clone_from(&d.ext_int);
    inputs.ext_bnd.clone_from(&d.ext_bnd);
    inputs.ext_int[j] = ranges_j[0].len() as i64;
    inputs.ext_bnd[j] = ranges_j[m_j as usize - 1].len() as i64;
    inputs.shift_j.fill(
        d.shift_coeff_j.iter().copied(),
        inputs.solution.k[j],
        inputs.ext_int[j],
        inputs.ext_bnd[j],
    );
}

/// Buffers the walks reuse: the fill pass's inputs, the row table and the
/// per-core state of the row derivation. One per evaluator, like
/// [`super::MakespanScratch`].
#[derive(Default)]
pub(crate) struct RowScratch {
    /// The last candidate's inputs, refilled by the next scan's fill pass.
    inputs: Inputs,
    /// The last candidate's execution-time and price tables ([`Lane`]).
    tables: (Vec<f64>, Vec<Price>),
    table: RowTable,
    /// Per row of the current core: the bytes and transfers of its swaps.
    charges: Vec<(i64, usize)>,
    /// The current core's rows (see [`RowCore`]).
    heads: Vec<RowHead>,
    cells: Vec<Cell>,
    /// Per `(carry level, landing bit)` step of the current core and slot,
    /// the exact `(lo, hi)` shift of the slot's range, and which arrays the
    /// step moves ([`CoreWalk::changes`]); `known` marks the steps computed
    /// so far.
    shift: Vec<(i128, i128)>,
    moved: Vec<bool>,
    known: u32,
    /// Per array, the innermost level that moves it on the current core.
    deep: Vec<Option<usize>>,
    /// Per slot of one array: an extent, or a range's width.
    extents: Vec<i64>,
    widths: Vec<i128>,
    /// Table hits so far, for the sampled debug check of
    /// [`CoreWalk::check_row`].
    #[cfg(debug_assertions)]
    checks: usize,
}

/// The walk: per core, its rows ([`CoreWalk`]), or the rows of the
/// earlier core of its box class; then the candidate's analysis, or its
/// first error.
fn walk(
    args: &Arguments,
    inputs: &Inputs,
    scratch: &mut RowScratch,
    ledger: &mut SearchCounters,
) -> Result<ComponentAnalysis, Infeasible> {
    let Arguments {
        delta: d,
        component,
        exec_model,
    } = *args;
    let j = d.j;
    let depth = component.depth();
    let narr = component.arrays.len();
    let levels: Vec<&LevelShift> = (0..depth)
        .map(|l| {
            if l == j {
                &inputs.shift_j
            } else {
                &d.shift_levels[l]
            }
        })
        .collect();
    // The tables of the previous candidate, refilled.
    let (mut exec_tab, mut prices) = std::mem::take(&mut scratch.tables);
    exec_tab.clear();
    exec_tab.resize(1usize << depth, f64::NAN);
    prices.clear();
    prices.resize(narr << depth, Price::default());
    let mut lane = Lane {
        args,
        inputs,
        levels,
        exec_tab,
        prices,
        bounding_boxes: component
            .arrays
            .iter()
            .map(|a| vec![0; a.dims.len()])
            .collect(),
    };
    scratch.moved.resize(2 * depth * narr, false);
    scratch.shift.resize(2 * depth * d.shift_base.len(), (0, 0));
    scratch.deep.resize(narr, None);
    let mut cores: Vec<Walked> = Vec::with_capacity(d.cores);
    let mut core_index: Vec<usize> = Vec::with_capacity(d.cores);
    let mut classes: Vec<WalkedClass> = Vec::new();
    // The one analysis every core without a tile uses.
    let mut empty: Option<usize> = None;
    let (mut total_bytes, mut total_ops) = (0i64, 0usize);
    for core in 0..d.cores {
        // A core without frozen tiles has no box under any `K_j`.
        debug_assert!(d.reduced(core).is_some() || inputs.jbox[core].is_none());
        let (Some(red), Some(jiv)) = (d.reduced(core), inputs.jbox[core]) else {
            let index = *empty.get_or_insert_with(|| {
                cores.push(Walked::Swaps(CoreAnalysis {
                    nseg: 0,
                    exec_ns: Vec::new(),
                    swap_lists: vec![Vec::new(); narr],
                    ranges: None,
                }));
                cores.len() - 1
            });
            core_index.push(index);
            continue;
        };
        // The core's box: `red` holds every level but `j`.
        let mut odo = Odometer::default();
        let mut key = [(0, 0); DEPTH_CAP];
        for (l, class) in key.iter_mut().enumerate().take(depth) {
            let (iv, m) = if l == j {
                (jiv, inputs.m_j)
            } else {
                (red[l - usize::from(l > j)], d.frozen_m[l])
            };
            odo.set(l, iv, m);
            *class = box_class(iv.lo, iv.hi, m, inputs.ext_int[l], inputs.ext_bnd[l]);
        }
        // A core of an earlier core's box class uses that core's rows and
        // moves as many bytes; bounding boxes are already that core's.
        if let Some(w) = classes.iter().find(|w| w.key == key) {
            core_index.push(w.index);
            total_bytes = total_bytes.saturating_add(w.bytes);
            total_ops += w.ops;
            continue;
        }
        let (rows, bytes, ops) = CoreWalk::run(&mut lane, &odo, scratch)?;
        ledger.row_keys += rows.heads.len();
        classes.push(WalkedClass {
            key,
            index: cores.len(),
            bytes,
            ops,
        });
        core_index.push(cores.len());
        cores.push(Walked::Rows(rows));
        total_bytes = total_bytes.saturating_add(bytes);
        total_ops += ops;
    }

    scratch.tables = (lane.exec_tab, lane.prices);
    let (combine_rounds, combine) = combine_structure(component, &inputs.solution, exec_model);
    Ok(ComponentAnalysis {
        spm_bytes_needed: spm_bytes(component, &lane.bounding_boxes),
        bounding_boxes: lane.bounding_boxes,
        solution: inputs.solution.clone(),
        cores,
        core_index,
        total_bytes,
        total_ops,
        combine_rounds,
        combine,
        arrays: d.metas.clone(),
    })
}

/// One candidate's tables, filled as classes are met: per extent-class mask
/// the execution time, per array and mask of its moving levels the price of
/// a swap (entry `array · 2^depth` plus the mask), and the bounding boxes
/// the priced classes grow.
struct Lane<'a> {
    args: &'a Arguments<'a>,
    inputs: &'a Inputs,
    /// Per level, its shift terms (level `j`'s are the candidate's).
    levels: Vec<&'a LevelShift>,
    exec_tab: Vec<f64>,
    prices: Vec<Price>,
    bounding_boxes: Vec<Vec<i64>>,
}

/// What the row derivation reads of one segment's digits `t`, one bit per
/// level: `t = lo`, `lo + 1`, `hi − 1`, `hi` of the core's box and
/// `t = M − 1`, `M − 2` of the level.
#[derive(Debug, Clone, Copy, Default)]
struct Masks {
    lo: u32,
    lo1: u32,
    hi1: u32,
    hi: u32,
    last: u32,
    last2: u32,
}

/// The state the look-ahead reads of a segment: levels on their last tile
/// (the extent-class mask), on their box's last tile, and on `M − 2`.
#[derive(Debug, Clone, Copy)]
struct State {
    last: u32,
    hi: u32,
    last2: u32,
}

/// One core's box and the per-level constants of the row derivation.
#[derive(Debug, Default)]
struct Odometer {
    depth: usize,
    lo: [i64; DEPTH_CAP],
    hi: [i64; DEPTH_CAP],
    /// `M − 1` per level.
    last: [i64; DEPTH_CAP],
    all: u32,
    /// Levels whose box holds one tile: they never move; and the others.
    single: u32,
    multi: u32,
    /// Levels whose box holds two tiles (`lo = hi − 1`).
    two: u32,
    /// Levels with `lo = M − 1`, `lo + 1 = M − 1`, `hi = M − 1`, `hi = M − 2`.
    lo_last: u32,
    lo1_last: u32,
    hi_last: u32,
    hi_last2: u32,
}

// Level masks: bit `l` for level `l`, outermost level `0`.

/// The levels outside level `c` (`< c`).
#[inline]
fn outer(c: usize) -> u32 {
    (1u32 << c) - 1
}

/// The levels of `all` inside level `c` (`> c`).
#[inline]
fn inner(all: u32, c: usize) -> u32 {
    all & !((2u32 << c) - 1)
}

/// Whether level `c` is in `mask`.
#[inline]
fn has(mask: u32, c: usize) -> bool {
    mask >> c & 1 == 1
}

/// The innermost level of a nonzero `mask`.
#[inline]
fn innermost(mask: u32) -> usize {
    31 - mask.leading_zeros() as usize
}

impl Odometer {
    /// Sets level `l` to the box `iv` of a level with `m` tiles.
    fn set(&mut self, l: usize, iv: Interval, m: i64) {
        let bit = 1u32 << l;
        let (lo, hi, last) = (iv.lo, iv.hi, m - 1);
        self.depth = l + 1;
        self.lo[l] = lo;
        self.hi[l] = hi;
        self.last[l] = last;
        self.all |= bit;
        let flag = |b: bool| if b { bit } else { 0 };
        self.single |= flag(lo == hi);
        self.multi |= flag(lo != hi);
        self.two |= flag(lo + 1 == hi);
        self.lo_last |= flag(lo == last);
        self.lo1_last |= flag(lo + 1 == last);
        self.hi_last |= flag(hi == last);
        self.hi_last2 |= flag(hi == last - 1);
    }

    /// The row key of a segment entered by a step with carry level `c` —
    /// the step moved `c` on by one tile and restarted every inner level on
    /// its box's first tile — in state `m`: `c`; whether `c` is on
    /// `lo + 1`; which of `c` and the outer levels are on their box's last
    /// tile; whether `c`, and each outer level whose box ends on the level's
    /// last tile, is on `hi − 1`. When no inner level moves, also: with `c`
    /// on its box's last tile, whether the innermost outer level off its
    /// box's last tile is on `hi − 1`; with `c` on `lo + 1`, which outer
    /// level is the innermost off its box's first tile. The row derivation
    /// reads no more of the state (DESIGN.md, "Rows, not segments"). A
    /// core's first segment has the key [`FRESH`].
    #[inline]
    fn key(&self, c: usize, m: Masks) -> u64 {
        let upto = outer(c + 1);
        let mut hi1 = m.hi1 & ((self.hi_last & outer(c)) | 1 << c);
        let mut lo = 0u32;
        if self.multi & inner(self.all, c) == 0 {
            let off_hi = !m.hi & outer(c);
            if has(m.hi, c) && off_hi != 0 {
                hi1 |= m.hi1 & 1 << innermost(off_hi);
            }
            let off_lo = !m.lo & outer(c);
            if has(m.lo1, c) && off_lo != 0 {
                lo = 1 << innermost(off_lo);
            }
        }
        c as u64
            | u64::from(has(m.lo1, c)) << 4
            | u64::from(m.hi & upto) << 5
            | u64::from(hi1) << (5 + DEPTH_CAP)
            | u64::from(lo) << (5 + 2 * DEPTH_CAP)
    }
}

/// The walk of one core into rows: the row ids so far, and what the first
/// segment's row charges the initialization segment; the rows themselves
/// grow in the scratch's `heads` and `cells`.
struct CoreWalk<'a, 'l> {
    lane: &'a mut Lane<'l>,
    o: &'a Odometer,
    s: &'a mut RowScratch,
    ids: Vec<u32>,
    init_calls: Vec<u8>,
}

impl CoreWalk<'_, '_> {
    /// Walks the core: steps its tile digits in the reference build's
    /// odometer order and pushes one row id per segment, deriving a row
    /// ([`CoreWalk::derive`]) only for a key ([`Odometer::key`]) not met
    /// before on the core. Then the final batch's row. Returns the rows and
    /// the bytes and transfers of the core's swaps, or the core's first
    /// error.
    fn run(
        lane: &mut Lane,
        o: &Odometer,
        s: &mut RowScratch,
    ) -> Result<(RowCore, i64, usize), Infeasible> {
        let depth = o.depth;
        let narr = lane.args.component.arrays.len();
        let nseg: usize = (0..depth)
            .map(|l| (o.hi[l] - o.lo[l] + 1) as usize)
            .product();
        s.table.clear();
        s.charges.clear();
        s.heads.clear();
        s.cells.clear();
        s.known = 0;
        let rules = &lane.args.delta.rules;
        for (deep, rule) in s.deep.iter_mut().zip(rules) {
            let moving = rule.moves & o.all & !o.single;
            *deep = (moving != 0).then(|| innermost(moving));
        }
        let mut walk = CoreWalk {
            lane,
            o,
            s,
            ids: Vec::new(),
            init_calls: vec![0; narr],
        };
        // Only the levels whose box holds two or more tiles ever move.
        let mut moving = [0usize; DEPTH_CAP];
        let mut nmoving = 0;
        for l in (0..depth).filter(|&l| !has(o.single, l)) {
            moving[nmoving] = l;
            nmoving += 1;
        }
        let mut t = o.lo;
        // The first segment: every level on its box's first tile.
        let mut m = Masks {
            lo: o.all,
            lo1: 0,
            hi1: o.two,
            hi: o.single,
            last: o.single & o.hi_last,
            last2: (o.two & o.hi_last) | (o.single & o.hi_last2),
        };
        let mut carry: Option<usize> = None;
        let mut key = FRESH;
        // The previous segment's key and row.
        let (mut last_key, mut last_id) = (FRESH, 0u32);
        let mut table = std::mem::take(&mut walk.s.table);
        let mut ids: Vec<u32> = Vec::with_capacity(nseg + 1);
        // The innermost moving level: between `lo + 1` and `hi − 1` of its
        // box its digit sets no bit of the state, so the key repeats there.
        let innermost_moving = nmoving.checked_sub(1).map(|i| moving[i]);
        let mut seg = 1;
        loop {
            let id = if seg > 1 && key == last_key {
                last_id
            } else {
                match table.get(key) {
                    Some(id) => {
                        #[cfg(debug_assertions)]
                        walk.check_row(id, carry, m);
                        id
                    }
                    None => {
                        let id = walk.derive(carry, m);
                        let id = match id {
                            Ok(id) => id,
                            Err(e) => {
                                walk.s.table = table;
                                return Err(e);
                            }
                        };
                        table.insert(key, id);
                        id
                    }
                }
            };
            (last_key, last_id) = (key, id);
            ids.push(id);
            if let Some(l) = innermost_moving.filter(|&l| carry == Some(l) && t[l] >= o.lo[l] + 2) {
                // So does every later digit up to `hi − 2`.
                let run = (o.hi[l] - 2 - t[l]).max(0);
                ids.extend(std::iter::repeat_n(id, run as usize));
                t[l] += run;
                seg += run as usize;
            }
            if seg == nseg {
                break;
            }
            seg += 1;
            // The step: the innermost level off its box's last tile moves on,
            // the inner ones restart. Some level is off it: `seg < nseg`.
            let mut i = nmoving - 1;
            while t[moving[i]] == o.hi[moving[i]] {
                t[moving[i]] = o.lo[moving[i]];
                i -= 1;
            }
            let c = moving[i];
            t[c] += 1;
            carry = Some(c);
            let (keep, reset) = (outer(c), inner(o.all, c));
            let on = |b: bool| u32::from(b) << c;
            m.lo = (m.lo & keep) | reset;
            m.lo1 = on(t[c] == o.lo[c] + 1);
            m.hi = (m.hi & keep) | (o.single & reset) | on(t[c] == o.hi[c]);
            m.hi1 = (m.hi1 & keep) | (o.two & reset) | on(t[c] == o.hi[c] - 1);
            m.last = m.hi & o.hi_last;
            m.last2 = (m.hi1 & o.hi_last) | (m.hi & o.hi_last2);
            key = o.key(c, m);
        }
        walk.s.table = table;
        walk.ids = ids;
        walk.derive_final(carry, m.last);
        let CoreWalk {
            s, ids, init_calls, ..
        } = walk;
        // Each segment moves its row's bytes; sums of non-negative terms
        // saturate the same in any order.
        let (mut bytes, mut ops) = (0i64, 0usize);
        for &id in &ids[..nseg] {
            let (b, n) = s.charges[id as usize];
            bytes = bytes.saturating_add(b);
            ops += n;
        }
        let rows = RowCore::new(nseg, ids, s.heads.to_vec(), s.cells.to_vec(), init_calls);
        Ok((rows, bytes, ops))
    }

    /// Debug builds: a sampled hit re-derives its row, which must equal the
    /// row its key found — the key determines the row.
    #[cfg(debug_assertions)]
    fn check_row(&mut self, id: u32, carry: Option<usize>, m: Masks) {
        self.s.checks += 1;
        if !self.s.checks.is_multiple_of(7) {
            return;
        }
        let narr = self.lane.args.delta.metas.len();
        // The key's first segment derived this row without an error.
        let Ok(probe) = self.derive(carry, m) else {
            panic!("a key met before re-derives an error: the key misses state the row reads");
        };
        let (a, b) = (id as usize, probe as usize);
        let s = &mut *self.s;
        assert_eq!(s.heads[a], s.heads[b], "row head differs");
        assert_eq!(
            s.cells[a * narr..(a + 1) * narr],
            s.cells[b * narr..],
            "row cells differ"
        );
        assert_eq!(s.charges[a], s.charges[b], "row charges differ");
        s.heads.pop();
        s.cells.truncate(b * narr);
        s.charges.pop();
    }

    /// Whether a step with carry level `c` moves array `a`'s range: level
    /// `c` steps on by one tile — onto the level's last tile when `landed`
    /// — and every inner level restarts from its box's last tile to its
    /// first. Such a step shifts each slot by a constant of the core
    /// ([`CoreWalk::fill_shifts`]).
    #[inline]
    fn changes(&mut self, a: usize, c: usize, landed: bool) -> bool {
        let step = 2 * c + usize::from(landed);
        if !has(self.s.known, step) {
            self.fill_shifts(c, landed);
        }
        self.s.moved[step * self.s.deep.len() + a]
    }

    /// The `(lo, hi)` shift of every slot over a step with carry level `c`
    /// (see [`CoreWalk::changes`]), and which arrays it moves, computed once
    /// per core and step kind, in `i128`: every term is a shift-only slot's
    /// exact partial range (`|coeff|·(N − 1)` fits `i64`), so the sums are
    /// exact.
    #[cold]
    #[inline(never)]
    fn fill_shifts(&mut self, c: usize, landed: bool) {
        let d = self.lane.args.delta;
        let nslots = d.shift_base.len();
        let step = 2 * c + usize::from(landed);
        let o = self.o;
        let delta = &mut self.s.shift[step * nslots..(step + 1) * nslots];
        delta.fill((0, 0));
        for term in &self.lane.levels[c].terms {
            let new = if landed { term.bnd } else { term.int };
            let e = &mut delta[term.slot];
            e.0 += i128::from(term.step) + i128::from(new.lo) - i128::from(term.int.lo);
            e.1 += i128::from(term.step) + i128::from(new.hi) - i128::from(term.int.hi);
        }
        for l in (c + 1..o.depth).filter(|&l| !has(o.single, l)) {
            // From `hi` back to `lo`, which a box of two or more tiles
            // holds below the level's last tile.
            let back = i128::from(o.lo[l] - o.hi[l]);
            for term in &self.lane.levels[l].terms {
                let old = if has(o.hi_last, l) {
                    term.bnd
                } else {
                    term.int
                };
                let off = i128::from(term.step) * back;
                let e = &mut delta[term.slot];
                e.0 += off + i128::from(term.int.lo) - i128::from(old.lo);
                e.1 += off + i128::from(term.int.hi) - i128::from(old.hi);
            }
        }
        let narr = d.metas.len();
        for (ai, rule) in d.rules.iter().enumerate() {
            self.s.moved[step * narr + ai] = delta[rule.slots.clone()].iter().any(|&e| e != (0, 0));
        }
        self.s.known |= 1 << step;
    }

    /// The §5.3.1 overlap rule for a swap of array `a` over a step with
    /// carry level `c` from a range of extent class `before`: the ranges
    /// `[lo, lo + w]` and `[lo + Δlo, lo + w + Δhi]` of a slot meet exactly
    /// when `Δlo ≤ w` and `−Δhi ≤ w`, `w` the earlier range's width.
    #[inline(never)]
    fn overlaps(&mut self, a: usize, c: usize, landed: bool, before: u32) -> bool {
        let step = 2 * c + usize::from(landed);
        if !has(self.s.known, step) {
            self.fill_shifts(c, landed);
        }
        let d = self.lane.args.delta;
        let slots = d.rules[a].slots.clone();
        let width = &mut self.s.widths;
        width.clear();
        width.extend(
            d.shift_base[slots.clone()]
                .iter()
                .map(|b| i128::from(b.hi) - i128::from(b.lo)),
        );
        for (l, level) in self.lane.levels.iter().enumerate() {
            for term in level.terms.iter().filter(|t| slots.contains(&t.slot)) {
                let sh = if has(before, l) { term.bnd } else { term.int };
                width[term.slot - slots.start] += i128::from(sh.hi) - i128::from(sh.lo);
            }
        }
        let at = step * d.shift_base.len();
        self.s.shift[at + slots.start..at + slots.end]
            .iter()
            .zip(width.iter())
            .all(|(&(lo, hi), &w)| lo <= w && -hi <= w)
    }

    /// The price of a swap of array `a` in extent class `mask`: the
    /// candidate's entry ([`CoreWalk::fill_price`] on the class's first use).
    #[inline]
    fn price(&mut self, a: usize, mask: u32) -> Price {
        let at = (a << self.o.depth) | (mask & self.lane.args.delta.rules[a].moves) as usize;
        let p = self.lane.prices[at];
        if p.is_set() {
            p
        } else {
            self.fill_price(a, mask, at)
        }
    }

    /// Prices entry `at`, array `a`'s extent class `mask`, from the class
    /// shapes' widths, and grows the bounding box to its extents.
    #[cold]
    #[inline(never)]
    fn fill_price(&mut self, a: usize, mask: u32, at: usize) -> Price {
        let d = self.lane.args.delta;
        let rule = &d.rules[a];
        let ext = &mut self.s.extents;
        ext.clear();
        ext.extend(
            d.shift_base[rule.slots.clone()]
                .iter()
                .map(|b| b.hi.wrapping_sub(b.lo)),
        );
        for (l, level) in self.lane.levels.iter().enumerate() {
            for term in level.terms.iter().filter(|t| rule.slots.contains(&t.slot)) {
                let sh = if has(mask, l) { term.bnd } else { term.int };
                let e = &mut ext[term.slot - rule.slots.start];
                *e = e.wrapping_add(sh.hi.wrapping_sub(sh.lo));
            }
        }
        for (e, b) in ext.iter_mut().zip(self.lane.bounding_boxes[a].iter_mut()) {
            // `Interval::len` of a range of that class.
            *e = (*e as u64).saturating_add(1) as i64;
            *b = (*b).max(*e);
        }
        let arr = &self.lane.args.component.arrays[a];
        self.lane.prices[at] = Price::of(arr, &d.metas[a], ext);
        self.lane.prices[at]
    }

    /// The line shape of a swap of array `a` in extent class `mask`.
    fn shape(&mut self, a: usize, mask: u32) -> Shape {
        Shape::from(self.price(a, mask))
    }

    /// Whether array `a` binds again after a segment whose levels on their
    /// box's last tile are `hi`: some level out to its innermost moving
    /// level `d` is off its last tile, and the first step to move one —
    /// else the next step at `d` — changes the range.
    fn binds_later(&self, a: usize, hi: u32) -> bool {
        self.s.deep[a].is_some_and(|d| !hi & self.o.all & outer(d + 1) != 0)
    }

    /// The extent class of array `a`'s next range after a segment in state
    /// `st`, if it binds again. The first step to move a level out to its
    /// innermost moving level `d` has carry `c`, the innermost such level off
    /// its box's last tile. If that step leaves the range alone (shifts can
    /// cancel), `c < d`, and the next step at `d` — from `lo` to `lo + 1`,
    /// every level between at `lo` — changes it: a move at an array's
    /// innermost moving level always does.
    fn next_class(&mut self, a: usize, st: State) -> Option<u32> {
        let d = self.s.deep[a]?;
        let o = self.o;
        let cands = !st.hi & o.all & outer(d + 1);
        if cands == 0 {
            return None;
        }
        let c = innermost(cands);
        let landed = has(st.last2, c);
        let mut mask =
            (st.last & outer(c)) | u32::from(landed) << c | (o.lo_last & inner(o.all, c));
        if !self.changes(a, c, landed) {
            debug_assert!(
                c < d,
                "a move at the innermost moving level changes the range"
            );
            mask = (mask & !(1 << d)) | (o.lo1_last & 1 << d);
        }
        Some(mask)
    }

    /// Derives the row of a segment in state `m`, entered by a step with
    /// carry level `carry` (`None` for the core's first segment), and
    /// returns its id; or the segment's first overlap error. It reads `m`
    /// only as far as the row key determines it (DESIGN.md, "Rows, not
    /// segments").
    #[inline(never)]
    fn derive(&mut self, carry: Option<usize>, m: Masks) -> Result<u32, Infeasible> {
        let o = self.o;
        let all = o.all;
        let args = self.lane.args;
        let (component, d) = (args.component, args.delta);
        // Segment s + 1: the step's carry is the innermost level off its
        // box's last tile; it lands on `M − 1` from `M − 2`.
        let next = (m.hi != all).then(|| {
            let c = innermost(!m.hi & all);
            let hi = (m.hi & outer(c)) | (m.hi1 & 1 << c) | (o.single & inner(all, c));
            (c, has(m.last2, c), hi)
        });
        // Segments s − 1 and s − 2: the step into s came from digit
        // `t_c − 1` with every inner level on its box's last tile.
        let prev = carry.map(|c| {
            let st = State {
                last: (m.last & outer(c)) | (o.hi_last & inner(all, c)),
                hi: (m.hi & outer(c)) | inner(all, c),
                last2: (m.last2 & outer(c)) | (m.last & 1 << c) | (o.hi_last2 & inner(all, c)),
            };
            let lo = (m.lo & outer(c)) | (m.lo1 & 1 << c) | (o.single & inner(all, c));
            let into = (lo != all).then(|| {
                let c2 = innermost(!lo & all);
                let before = (st.last & outer(c2)) | (o.hi_last & inner(all, c2));
                (c2, has(st.last, c2), before)
            });
            (st, into)
        });

        let id = self.s.heads.len() as u32;
        let (mut bytes, mut ops) = (0i64, 0usize);
        for (a, meta) in d.metas.iter().enumerate() {
            let mut cell = Cell::default();
            // The segment's own swap, with the §5.3.1 overlap rule.
            let binds = carry.is_none_or(|c| self.changes(a, c, has(m.last, c)));
            if binds {
                if let (Some((st, _)), Some(c), true) = (prev, carry, d.rules[a].rw_deps) {
                    if self.overlaps(a, c, has(m.last, c), st.last) {
                        return Err(Infeasible::RangeOverlap {
                            array: component.arrays[a].name.clone(),
                        });
                    }
                }
                let p = self.price(a, m.last);
                cell.bind = Shape::from(p);
                bytes = bytes.saturating_add(p.bytes);
                ops += usize::from(meta.loads) + usize::from(meta.unloads);
            }
            // Batch s: after a swap at s − 1, the unload of the range before
            // it and the load of the range after it; batch 1 loads the first.
            match prev {
                None => {
                    if meta.loads {
                        cell.xfers[1] = self.shape(a, m.last);
                    }
                }
                Some((st, into)) => {
                    if into.is_none_or(|(c2, landed, _)| self.changes(a, c2, landed)) {
                        if let (true, Some((_, _, before))) = (meta.unloads, into) {
                            cell.xfers[0] = self.shape(a, before);
                        }
                        if meta.loads {
                            if let Some(class) = self.next_class(a, st) {
                                cell.xfers[1] = self.shape(a, class);
                            }
                        }
                    }
                }
            }
            // The swap call of batch s + 2, made at segment s: a load's when
            // a range follows the one bound at s + 1, an unload-only array's
            // while batch s + 2 is a segment's.
            if let Some((c1, landed, hi1)) = next {
                if self.changes(a, c1, landed) {
                    cell.call = if meta.loads {
                        self.binds_later(a, hi1)
                    } else {
                        meta.unloads && hi1 != all
                    };
                }
            }
            if carry.is_none() && meta.loads {
                // Batches 1 and 2 charge the initialization segment.
                self.init_calls[a] = 1 + u8::from(self.binds_later(a, m.hi));
            }
            self.s.cells.push(cell);
        }
        let exec_ns = self.exec(m.last);
        self.s.heads.push(RowHead {
            exec_ns,
            dealloc: m.hi == all,
        });
        self.s.charges.push((bytes, ops));
        Ok(id)
    }

    /// Pushes the row of batch `nseg + 1`, after the core's last segment
    /// (entered with carry level `carry`, extent class `last`): per array
    /// that unloads, the unload of the range before a swap at `nseg`, then
    /// the unload of the last range.
    fn derive_final(&mut self, carry: Option<usize>, last: u32) {
        let o = self.o;
        let d = self.lane.args.delta;
        let id = self.s.heads.len() as u32;
        for (a, meta) in d.metas.iter().enumerate() {
            let mut cell = Cell::default();
            if meta.unloads {
                if let Some(c) = carry.filter(|&c| self.changes(a, c, has(last, c))) {
                    let before = (last & outer(c)) | (o.hi_last & inner(o.all, c));
                    cell.xfers[0] = self.shape(a, before);
                }
                cell.xfers[1] = self.shape(a, last);
            }
            self.s.cells.push(cell);
        }
        self.s.heads.push(RowHead {
            exec_ns: 0.0,
            dealloc: false,
        });
        self.ids.push(id);
        self.s.charges.push((0, 0));
    }

    /// The execution time of a segment in extent class `mask`.
    #[inline]
    fn exec(&mut self, mask: u32) -> f64 {
        let v = self.lane.exec_tab[mask as usize];
        if v.is_nan() {
            self.fill_exec(mask)
        } else {
            v
        }
    }

    #[cold]
    #[inline(never)]
    fn fill_exec(&mut self, mask: u32) -> f64 {
        let inputs = self.lane.inputs;
        let mut ext = [0i64; DEPTH_CAP];
        for (l, e) in ext.iter_mut().enumerate().take(self.o.depth) {
            *e = if has(mask, l) {
                inputs.ext_bnd[l]
            } else {
                inputs.ext_int[l]
            };
        }
        let v = self.lane.args.exec_model.tile_time_ns(&ext[..self.o.depth]);
        self.lane.exec_tab[mask as usize] = v;
        v
    }
}

impl From<Price> for Shape {
    fn from(p: Price) -> Shape {
        Shape {
            lines: p.lines,
            line_elems: p.line_elems,
        }
    }
}

/// A core's row ids by key, open-addressed. Slots of an earlier core are
/// stale by generation, so clearing costs nothing per slot.
#[derive(Default)]
struct RowTable {
    slots: Vec<Slot>,
    generation: u32,
    len: usize,
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    key: u64,
    id: u32,
    generation: u32,
}

impl RowTable {
    /// Starts a core.
    fn clear(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.slots.fill(Slot::default());
            self.generation = 1;
        }
        if self.slots.is_empty() {
            self.slots.resize(64, Slot::default());
        }
        self.len = 0;
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    #[inline]
    fn get(&self, key: u64) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            let slot = self.slots[i];
            if slot.generation != self.generation {
                return None;
            }
            if slot.key == key {
                return Some(slot.id);
            }
            i = (i + 1) & mask;
        }
    }

    fn insert(&mut self, key: u64, id: u32) {
        if 2 * (self.len + 1) > self.slots.len() {
            let live: Vec<Slot> = self
                .slots
                .iter()
                .filter(|s| s.generation == self.generation)
                .copied()
                .collect();
            let size = 2 * self.slots.len();
            self.slots.clear();
            self.slots.resize(size, Slot::default());
            self.len = 0;
            for s in live {
                self.place(s);
            }
        }
        self.place(Slot {
            key,
            id,
            generation: self.generation,
        });
    }

    fn place(&mut self, slot: Slot) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(slot.key);
        while self.slots[i].generation == self.generation {
            i = (i + 1) & mask;
        }
        self.slots[i] = slot;
        self.len += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::MakespanScratch;
    use crate::config::Platform;
    use crate::looptree::LoopTree;
    use crate::schedule::evaluate;
    use crate::segments::build_schedule;
    use prem_ir::{AssignKind, ElemType, Expr, IdxExpr, ProgramBuilder};

    /// `y[i][k] = x[c·i + c·k]` over `i < ni`, `k < nk`: the load `x`
    /// moves with both levels, and a carry into `i` can leave its range
    /// alone.
    fn diagonal(ni: i64, nk: i64, c: i64) -> Component {
        let mut b = ProgramBuilder::new("diagonal");
        let x = b.array("x", vec![c * (ni + nk - 2) + 1], ElemType::F32);
        let y = b.array("y", vec![ni, nk], ElemType::F32);
        let i = b.begin_loop("i", 0, 1, ni);
        let k = b.begin_loop("k", 0, 1, nk);
        b.stmt(
            y,
            vec![IdxExpr::var(i), IdxExpr::var(k)],
            AssignKind::Assign,
            Expr::load(x, vec![IdxExpr::var(i).add(&IdxExpr::var(k)).scale(c)]),
        );
        b.end_loop();
        b.end_loop();
        let program = b.finish();
        let tree = LoopTree::build(&program).unwrap();
        let (ni, nk) = (&tree.roots[0], &tree.roots[0].children[0]);
        Component::extract(&tree, &program, &[ni, nk])
    }

    /// Rebuilds `sol` through a delta on level 0 and holds it to the
    /// reference: the analysis bitwise, and its makespan to the
    /// materializing oracle's bits on a slow and a fast bus. Returns the
    /// rebuilt analysis.
    fn rebuilt_matches(comp: &Component, sol: &Solution, cores: usize) -> ComponentAnalysis {
        let model = ExecModel {
            o: vec![1.0, 2.0],
            w: 3.0,
        };
        let delta = CoordinateDelta::new(comp, sol, 0, cores).expect("shift-only context");
        let mut ledger = SearchCounters::default();
        let rebuilt = delta.rebuild_scan(comp, &[sol.k[0]], &model, &mut ledger);
        let [Ok(rows)] = &rebuilt[..] else {
            panic!("{sol}: {rebuilt:?}");
        };
        let reference = ComponentAnalysis::build(comp, sol, cores, &model, false).unwrap();
        assert!(rows.bitwise_eq(&reference), "{sol} on {cores} cores");
        let mut scratch = MakespanScratch::default();
        for bus in [1.0 / 16.0, 16.0] {
            let platform = Platform::default().with_cores(cores).with_bus_gbytes(bus);
            let oracle = evaluate(&build_schedule(comp, sol, &platform, &model).unwrap());
            let folded = rows.makespan_only(&platform, &mut scratch).unwrap();
            assert_eq!(
                folded.to_bits(),
                oracle.makespan_ns.to_bits(),
                "{sol} on {cores} cores at {bus} GB/s"
            );
        }
        rebuilt.into_iter().flatten().next().unwrap()
    }

    /// Cores of one to four segments: every segment is among its core's
    /// first two or last two, so every row is an edge row — batch 1 and
    /// the initialization calls, the swap calls the last segments no longer
    /// make, the deallocation and batch `nseg + 1`.
    #[test]
    fn cores_of_under_five_segments_match_the_reference() {
        let cases = [
            (1, 1, 1),
            (1, 2, 1),
            (1, 3, 1),
            (2, 2, 1),
            (4, 1, 1),
            (3, 3, 2),
        ];
        for (ni, nk, k) in cases {
            for (r, cores) in [(1, 1), (1, 4), (2, 2)] {
                let comp = diagonal(ni, nk, 1);
                let sol = Solution {
                    k: vec![k, k],
                    r: vec![r.min(ni), 1],
                };
                let rows = rebuilt_matches(&comp, &sol, cores);
                let longest = (0..rows.ncores()).map(|c| rows.core(c).nseg).max();
                assert!(
                    longest.is_some_and(|n| (1..5).contains(&n)),
                    "{sol}: {longest:?}"
                );
            }
        }
    }

    /// `x[16i + 16k]` over `i, k < 7` at `K = [4, 4]`: both levels have
    /// tiles `[0, 3]` and `[4, 6]`. The step from `(0, 1)` to `(1, 0)` moves
    /// `i` onto its short last tile and restarts `k` on its long first one,
    /// and `x`'s range stays `[64, 144]`. So the range loaded after the swap
    /// at segment 2 is segment 4's, `[128, 192]`, five 64-byte bursts —
    /// not segment 3's six.
    #[test]
    fn a_cancelling_step_loads_the_range_after_it() {
        let comp = diagonal(7, 7, 16);
        let sol = Solution {
            k: vec![4, 4],
            r: vec![1, 1],
        };
        let rows = rebuilt_matches(&comp, &sol, 1);
        let x = comp.arrays.iter().position(|a| a.name == "x").unwrap();
        let segs: Vec<usize> = rows.core(0).swap_lists[x].iter().map(|e| e.seg).collect();
        assert_eq!(segs, [1, 2, 4]);
    }
}
