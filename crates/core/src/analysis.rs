//! Tier 1 of the two-tier makespan cost engine: the structure-dependent
//! [`ComponentAnalysis`] precompute and the allocation-free
//! [`ComponentAnalysis::makespan_only`] fold.
//!
//! [`crate::segments::build_schedule`] materializes every `MemOp`, `Batch`
//! and per-segment cost vector — necessary for codegen and simulation, but
//! wasteful inside a search loop that only consumes one scalar makespan.
//! This module splits the work:
//!
//! * **Analysis (structure)** — everything that depends only on
//!   `(component, solution, cores, exec_model)`: the `SegmentToSwap` lists
//!   per array with the line structure of each transferred range, the
//!   per-segment execution times, bounding boxes and SPM requirement. No
//!   platform *timing* scalar (bus speed, API costs) is baked in, so one
//!   analysis serves every bus-speed sweep point.
//! * **Fold (scalars)** — [`ComponentAnalysis::makespan_only`] replays the
//!   batch-placement rules of `build_schedule` and the round-robin
//!   recurrence of [`crate::schedule::evaluate`] over scratch buffers,
//!   producing a makespan that is **bitwise identical** to the materializing
//!   tier (the float additions happen in the same order on the same
//!   values).
//!
//! [`CoordinateDelta`] (`analysis/delta.rs`) rebuilds an analysis
//! incrementally when only a single tile coordinate `K_j` moves — the common
//! case inside the optimizer's coordinate-descent inner loop (thesis §5.3.1:
//! canonical ranges factor per level, so the per-level structure of every
//! frozen level can be precomputed once per scan).
//! [`makespan_lower_bound`] (`analysis/bound.rs`) bounds the fold's result
//! from the tile plan's arithmetic alone, so the search can skip candidates
//! that provably cannot win without building their analysis.

mod bound;
mod delta;

pub use bound::makespan_lower_bound;
pub(crate) use bound::BoundTerms;
pub use delta::{CoordinateDelta, SOA_LANES};

use crate::component::{BufferAttr, Component};
use crate::config::Platform;
use crate::tiling::{Infeasible, Solution, TilePlan};
use crate::timing::{transfer_time_from_lines, ExecModel};
use prem_polyhedral::Interval;

/// One entry of an array's `SegmentToSwap` list: the segment (1-based) where
/// a new canonical range binds, plus the line structure of the transfer —
/// everything the fold needs to price the swap on any platform.
#[derive(Debug, Clone, PartialEq)]
pub struct SwapEntry {
    /// Segment index (1-based) whose tile first binds this range.
    pub seg: usize,
    /// `DataLineNum` of the transferred range.
    pub lines: i64,
    /// `DataLineSize` of the transferred range (elements per line).
    pub line_elems: i64,
}

/// Per-array metadata the fold needs without re-touching the component.
#[derive(Debug, Clone, PartialEq)]
struct ArrayMeta {
    ndims: usize,
    elem_bytes: i64,
    loads: bool,
    unloads: bool,
}

/// Structure-dependent precompute for one core.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreAnalysis {
    /// Number of execution segments on this core.
    pub nseg: usize,
    /// Execution time per segment in ns (tiled code only, no API).
    pub exec_ns: Vec<f64>,
    /// `SegmentToSwap` list per array.
    pub swap_lists: Vec<Vec<SwapEntry>>,
    /// Canonical ranges per array per swap entry; retained only when the
    /// analysis was built for materialization (`retain_ranges`).
    pub ranges: Option<Vec<Vec<Vec<Interval>>>>,
}

/// Combine-phase structure for one privatized reduction accumulator: the DMA
/// line shape of the accumulator's full canonical region (K-independent —
/// partials cover the whole accumulator regardless of tiling) plus the time
/// to merge one partner partial element-wise.
#[derive(Debug, Clone, PartialEq)]
pub struct CombineXfer {
    /// `DataLineNum` of the accumulator region.
    pub lines: i64,
    /// `DataLineSize` of the accumulator region (elements per line).
    pub line_elems: i64,
    /// Element size in bytes.
    pub elem_bytes: i64,
    /// Element-wise merge time per round in ns (`elements × w`).
    pub exec_ns: f64,
}

/// Everything about a `(component, solution)` pair that does not depend on
/// platform timing scalars. Build once, fold on every sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentAnalysis {
    /// The analyzed solution.
    pub solution: Solution,
    /// Per-core analyses (length = core count used to build the plan).
    pub cores: Vec<CoreAnalysis>,
    /// Bounding box per array (§5.3.1), sizing the SPM buffers.
    pub bounding_boxes: Vec<Vec<i64>>,
    /// Bytes of SPM needed (both double-buffer partitions, plus a third
    /// partial-merge buffer for privatized accumulators).
    pub spm_bytes_needed: i64,
    /// Total bytes transferred by all cores.
    pub total_bytes: i64,
    /// Total number of DMA transfers.
    pub total_ops: usize,
    /// Sequential merge rounds of the explicit combine phase
    /// (`Π_j R_j − 1` over the reduction-parallel levels); `0` when no
    /// accumulator is privatized or a single group runs the reduction, in
    /// which case the combine phase costs exactly nothing and the analysis
    /// is bitwise identical to the reduction-oblivious one.
    pub combine_rounds: usize,
    /// Combine transfer/merge structure, one entry per privatized
    /// accumulator.
    pub combine: Vec<CombineXfer>,
    arrays: Vec<ArrayMeta>,
    /// Per core, the earlier core of the same box class whose analysis it
    /// repeats ([`box_class`]): its entry in `cores` is a copy of that
    /// core's, and [`ComponentAnalysis::makespan_only`] prices it once for
    /// both. The reference [`ComponentAnalysis::build`] records none.
    repeats: Vec<Option<usize>>,
}

/// One level of a core's box class: the box's tile count on the level and
/// the extent of its last tile — `boundary` when the box holds the level's
/// last tile `m − 1`, else `interior`. Only a level's last tile can clip, so
/// two boxes with the same class at every level are translates with the same
/// extent vector at every odometer position (DESIGN.md, "Walk one core per
/// box class"). The one key of the lane walk's shared cores and of the
/// bound's shared terms.
pub(crate) fn box_class(lo: i64, hi: i64, m: i64, interior: i64, boundary: i64) -> (i64, i64) {
    (hi - lo + 1, if hi == m - 1 { boundary } else { interior })
}

/// Computes the combine-phase structure of a solution: the number of
/// sequential merge rounds and one transfer shape per privatized
/// accumulator over the accumulator's *full* canonical region (component
/// counters at their whole ranges — tile sizes cancel out, only the group
/// counts `R_j` matter). Empty when nothing is privatized.
fn combine_structure(
    component: &Component,
    solution: &Solution,
    exec_model: &ExecModel,
) -> (usize, Vec<CombineXfer>) {
    if !component.arrays.iter().any(|a| a.privatized.is_some()) {
        return (0, Vec::new());
    }
    let red_r: i64 = component
        .levels
        .iter()
        .zip(&solution.r)
        .filter(|(lv, _)| lv.reduction_parallel)
        .map(|(_, &r)| r)
        .product();
    if red_r <= 1 {
        return (0, Vec::new());
    }
    let full: Vec<Interval> = component
        .levels
        .iter()
        .map(|lv| Interval::new(0, lv.count - 1))
        .collect();
    let xfers = component
        .arrays
        .iter()
        .filter(|a| a.privatized.is_some())
        .map(|a| {
            let shape = crate::timing::TransferShape {
                range: a
                    .canonical_range(&full)
                    .iter()
                    .map(|iv| iv.len() as i64)
                    .collect(),
                array: a.dims.clone(),
                elem_bytes: a.elem_bytes,
            };
            CombineXfer {
                lines: shape.data_line_num(),
                line_elems: shape.data_line_size(),
                elem_bytes: a.elem_bytes,
                exec_ns: shape.volume() as f64 * exec_model.w,
            }
        })
        .collect();
    ((red_r - 1) as usize, xfers)
}

/// Prices the combine phase on a platform: per round, each privatized
/// accumulator's partner partial is DMA-transferred into the merge buffer
/// and folded element-wise; rounds run sequentially (the tree depth of a
/// pairwise merge is bounded by the linear chain this models). Exactly
/// `0.0` when `rounds == 0`, keeping the reduction-oblivious path bitwise
/// identical. Shared by [`ComponentAnalysis::makespan_only`] and
/// [`crate::segments::materialize_schedule`] so both tiers produce the
/// same f64 bits.
pub(crate) fn combine_time(rounds: usize, xfers: &[CombineXfer], platform: &Platform) -> f64 {
    if rounds == 0 || xfers.is_empty() {
        return 0.0;
    }
    let mut per_round = 0.0f64;
    for x in xfers {
        let mem = transfer_time_from_lines(x.lines, x.line_elems, x.elem_bytes, platform)
            + platform.api.dma_int_handler;
        per_round += mem + x.exec_ns;
    }
    rounds as f64 * per_round
}

/// Reusable scratch buffers for [`ComponentAnalysis::makespan_only`]; one
/// per search thread, reused across every candidate evaluation.
#[derive(Debug, Default)]
pub struct MakespanScratch {
    batch_time: Vec<Vec<f64>>,
    batch_ops: Vec<Vec<u32>>,
    api: Vec<Vec<f64>>,
    init: Vec<f64>,
    prev: Vec<f64>,
    prev2: Vec<f64>,
    mem_fin: Vec<f64>,
}

impl ComponentAnalysis {
    /// Builds the analysis: tile plan, persistence/overlap checks, swap
    /// lists, per-segment execution times and the SPM requirement — the
    /// exact scan [`crate::segments::build_schedule`] performs, minus any
    /// platform-priced materialization. With `retain_ranges` the canonical
    /// ranges are kept so [`crate::segments::materialize_schedule`] can
    /// rebuild the full [`crate::segments::ComponentSchedule`]; without it the analysis
    /// carries only what the fold reads.
    ///
    /// # Errors
    ///
    /// Returns [`Infeasible`] for thread-limit, overlap or persistence
    /// violations. The SPM capacity is *not* checked here (it depends on the
    /// platform); callers gate on [`ComponentAnalysis::spm_bytes_needed`].
    pub fn build(
        component: &Component,
        solution: &Solution,
        cores: usize,
        exec_model: &ExecModel,
        retain_ranges: bool,
    ) -> Result<ComponentAnalysis, Infeasible> {
        let plan = TilePlan::build(component, solution, cores)?;
        crate::segments::check_persistence(component, &plan)?;

        let narr = component.arrays.len();
        let mut bounding_boxes: Vec<Vec<i64>> = component
            .arrays
            .iter()
            .map(|a| vec![0; a.dims.len()])
            .collect();
        let rw_deps: Vec<bool> = component
            .arrays
            .iter()
            .map(|a| crate::segments::array_has_rw_deps(component, a.array))
            .collect();
        let arrays: Vec<ArrayMeta> = component
            .arrays
            .iter()
            .map(|a| ArrayMeta {
                ndims: a.dims.len(),
                elem_bytes: a.elem_bytes,
                loads: matches!(a.attr, BufferAttr::Ro | BufferAttr::Rw),
                unloads: matches!(a.attr, BufferAttr::Wo | BufferAttr::Rw),
            })
            .collect();

        let mut out_cores: Vec<CoreAnalysis> = Vec::with_capacity(cores);
        let mut total_bytes = 0i64;
        let mut total_ops = 0usize;

        // Scratch buffers reused across segments (and cores, for `last`).
        let mut ranges: Vec<Interval> = Vec::new();
        let mut scratch_range: Vec<Interval> = Vec::new();
        let mut extents: Vec<i64> = Vec::new();
        let mut last: Vec<LastRange> = vec![LastRange::default(); narr];

        for core in 0..cores {
            let nseg = plan.core_nseg(core);
            let mut ca = CoreAnalysis {
                nseg,
                exec_ns: Vec::with_capacity(nseg),
                swap_lists: vec![Vec::new(); narr],
                ranges: if retain_ranges {
                    Some(vec![Vec::new(); narr])
                } else {
                    None
                },
            };
            if nseg == 0 {
                out_cores.push(ca);
                continue;
            }

            // Last bound range per array — change detection without
            // retaining the full range history.
            for l in &mut last {
                l.bound = false;
            }
            let mut overlap_error: Option<Infeasible> = None;
            let mut s0 = 0usize;
            plan.for_each_core_tile(core, |tile| {
                if overlap_error.is_some() {
                    return;
                }
                plan.tile_ranges_into(tile, &mut ranges);
                for (ai, arr) in component.arrays.iter().enumerate() {
                    scratch_range.clear();
                    for dim in &arr.contribs {
                        let mut hull = Interval::empty();
                        for c in dim {
                            hull = hull.hull(&c.bounds(&ranges));
                        }
                        scratch_range.push(hull);
                    }
                    if let Err(e) = bind_tile_array(
                        arr,
                        &arrays[ai],
                        rw_deps[ai],
                        &scratch_range,
                        s0,
                        &mut ca,
                        ai,
                        &mut last[ai],
                        &mut bounding_boxes[ai],
                        &mut total_bytes,
                        &mut total_ops,
                    ) {
                        overlap_error = Some(e);
                        return;
                    }
                }
                // Execution time from actual (clipped) extents.
                extents.clear();
                extents.extend(ranges.iter().map(|r| r.len() as i64));
                ca.exec_ns.push(exec_model.tile_time_ns(&extents));
                s0 += 1;
            });
            if let Some(e) = overlap_error {
                return Err(e);
            }
            out_cores.push(ca);
        }

        let mut spm_bytes_needed = 0i64;
        for (arr, bb) in component.arrays.iter().zip(&bounding_boxes) {
            // Privatized accumulators keep a third buffer: the combine phase
            // DMAs a partner group's partial next to the live copy to merge.
            let bufs = if arr.privatized.is_some() { 3 } else { 2 };
            spm_bytes_needed += bufs * arr.elem_bytes * bb.iter().product::<i64>();
        }
        let (combine_rounds, combine) = combine_structure(component, solution, exec_model);

        Ok(ComponentAnalysis {
            solution: solution.clone(),
            cores: out_cores,
            bounding_boxes,
            spm_bytes_needed,
            total_bytes,
            total_ops,
            combine_rounds,
            combine,
            arrays,
            repeats: vec![None; cores],
        })
    }

    /// The fast tier: folds the swap lists and execution times into the
    /// round-robin streaming recurrence without materializing a single
    /// `MemOp`. The returned makespan (ns, one component execution) is
    /// bitwise identical to
    /// `evaluate(&build_schedule(component, solution, platform, model)?)`.
    ///
    /// # Errors
    ///
    /// Returns [`Infeasible::SpmOverflow`] when the bounding boxes exceed
    /// the platform's SPM, mirroring the materializing tier's final check.
    pub fn makespan_only(
        &self,
        platform: &Platform,
        scratch: &mut MakespanScratch,
    ) -> Result<f64, Infeasible> {
        if self.spm_bytes_needed > platform.spm_bytes {
            return Err(Infeasible::SpmOverflow {
                needed: self.spm_bytes_needed,
                capacity: platform.spm_bytes,
            });
        }
        let api = &platform.api;
        let narr = self.arrays.len();
        let ncores = self.cores.len();
        scratch.batch_time.resize_with(ncores, Vec::new);
        scratch.batch_ops.resize_with(ncores, Vec::new);
        scratch.api.resize_with(ncores, Vec::new);
        for v in [&mut scratch.init, &mut scratch.prev, &mut scratch.prev2] {
            v.clear();
            v.resize(ncores, 0.0);
        }
        scratch.mem_fin.clear();
        scratch.mem_fin.resize(ncores, 0.0);

        // Phase 1: replay build_schedule's batch placement and API charges,
        // accumulating only per-batch/segment totals. Addition order matches
        // the materializing tier exactly (per array, per swap entry, load
        // before unload), which keeps the f64 sums bitwise equal. A core that
        // repeats an earlier one has that core's swap lists, so its batches
        // are that core's and are read from its rows.
        for (i, core) in self.cores.iter().enumerate() {
            if self.repeats[i].is_some() {
                continue;
            }
            let nseg = core.nseg;
            let bt = &mut scratch.batch_time[i];
            bt.clear();
            bt.resize(nseg + 2, 0.0);
            let bo = &mut scratch.batch_ops[i];
            bo.clear();
            bo.resize(nseg + 2, 0);
            let ap = &mut scratch.api[i];
            ap.clear();
            ap.resize(nseg, 0.0);
            if nseg == 0 {
                continue; // init stays 0, like the materializing tier
            }
            let mut init = 0.0f64;
            for (ai, list) in core.swap_lists.iter().enumerate() {
                let meta = &self.arrays[ai];
                for (x, e) in list.iter().enumerate() {
                    if meta.loads {
                        let batch = if x == 0 { 1 } else { list[x - 1].seg + 1 };
                        let cost = api.swap_cost(meta.ndims);
                        if batch <= 2 {
                            init += cost;
                        } else {
                            ap[batch - 3] += cost;
                        }
                        bt[batch] += transfer_time_from_lines(
                            e.lines,
                            e.line_elems,
                            meta.elem_bytes,
                            platform,
                        ) + api.dma_int_handler;
                        bo[batch] += 1;
                    }
                    if meta.unloads {
                        let batch = match list.get(x + 1) {
                            Some(next) => next.seg + 1,
                            None => nseg + 1,
                        };
                        if !meta.loads && batch <= nseg {
                            let cost = api.swap_cost(meta.ndims);
                            if batch <= 2 {
                                init += cost;
                            } else {
                                ap[batch - 3] += cost;
                            }
                        }
                        bt[batch] += transfer_time_from_lines(
                            e.lines,
                            e.line_elems,
                            meta.elem_bytes,
                            platform,
                        ) + api.dma_int_handler;
                        bo[batch] += 1;
                    }
                }
            }
            init += 2.0 * narr as f64 * api.allocate_buffer + api.dispatch + api.end_segment;
            for s in ap.iter_mut() {
                *s += api.end_segment;
            }
            ap[nseg - 1] += 2.0 * narr as f64 * api.deallocate_buffer;
            scratch.init[i] = init;
        }

        // Phase 2: the evaluate() recurrence with rolling per-core state.
        // prev = exec_fin[i][j-1], prev2 = exec_fin[i][j-2] at the top of
        // level j; prev stops advancing once the core runs out of segments,
        // which leaves it at exec_fin[i][nseg] for the final-unload gate.
        // Phase 1's rows are read through `src`, the core that was priced.
        let max_nseg = self.cores.iter().map(|c| c.nseg).max().unwrap_or(0);
        let src = |i: usize| self.repeats[i].unwrap_or(i);
        let mut dma_free = 0.0f64;
        let mut makespan = 0.0f64;
        for i in 0..ncores {
            scratch.prev[i] = scratch.init[src(i)];
            scratch.prev2[i] = scratch.init[src(i)];
        }
        for j in 1..=max_nseg + 1 {
            for m in scratch.mem_fin.iter_mut() {
                *m = 0.0;
            }
            for i in 0..ncores {
                let nseg = self.cores[i].nseg;
                let s = src(i);
                if j > nseg + 1 || scratch.batch_ops[s][j] == 0 {
                    continue;
                }
                let gate = if j == nseg + 1 {
                    scratch.prev[i]
                } else {
                    scratch.prev2[i]
                };
                let start = dma_free.max(gate);
                let fin = start + scratch.batch_time[s][j];
                dma_free = fin;
                scratch.mem_fin[i] = fin;
                makespan = makespan.max(fin);
            }
            for (i, core) in self.cores.iter().enumerate() {
                if j > core.nseg {
                    continue;
                }
                let start = scratch.prev[i].max(scratch.mem_fin[i]);
                let fin = start + core.exec_ns[j - 1] + scratch.api[src(i)][j - 1];
                scratch.prev2[i] = scratch.prev[i];
                scratch.prev[i] = fin;
                makespan = makespan.max(fin);
            }
        }

        // Explicit combine phase (reduction privatization): sequential merge
        // rounds appended after the streaming schedule drains. Guarded so the
        // reduction-oblivious path (`combine_rounds == 0`) stays bitwise
        // untouched.
        let combine_ns = combine_time(self.combine_rounds, &self.combine, platform);
        if combine_ns > 0.0 {
            makespan += combine_ns;
        }
        Ok(makespan)
    }

    /// Execution segments across all cores.
    pub(crate) fn segments(&self) -> usize {
        self.cores.iter().map(|c| c.nseg).sum()
    }

    /// Execution segments of the cores that repeat an earlier core.
    pub(crate) fn shared_segments(&self) -> usize {
        self.cores
            .iter()
            .zip(&self.repeats)
            .filter(|(_, r)| r.is_some())
            .map(|(c, _)| c.nseg)
            .sum()
    }

    /// The earlier core whose analysis `core` repeats, if any: set only
    /// by the incremental rebuild, for cores whose tile box has the class of
    /// an earlier core's.
    pub fn repeat_of(&self, core: usize) -> Option<usize> {
        self.repeats.get(core).copied().flatten()
    }

    /// True when every recorded repeat names an earlier core whose analysis
    /// is bitwise the repeating core's.
    fn repeats_hold(&self) -> bool {
        self.repeats.len() == self.cores.len()
            && self.repeats.iter().enumerate().all(|(i, r)| {
                r.is_none_or(|r| r < i && core_bitwise_eq(&self.cores[r], &self.cores[i]))
            })
    }

    /// Structural equality with *bitwise* `f64` comparison on the execution
    /// times. `PartialEq` would treat `-0.0 == 0.0` and `NaN != NaN`; the
    /// differential suites need the stronger claim that the incremental
    /// rebuild produced the same bits the from-scratch build would. Which
    /// cores repeat others is not compared, but every recorded repeat must
    /// be bitwise the core it names.
    pub fn bitwise_eq(&self, other: &ComponentAnalysis) -> bool {
        self.solution == other.solution
            && self.bounding_boxes == other.bounding_boxes
            && self.spm_bytes_needed == other.spm_bytes_needed
            && self.total_bytes == other.total_bytes
            && self.total_ops == other.total_ops
            && self.combine_rounds == other.combine_rounds
            && self.combine.len() == other.combine.len()
            && self.combine.iter().zip(&other.combine).all(|(a, b)| {
                a.lines == b.lines
                    && a.line_elems == b.line_elems
                    && a.elem_bytes == b.elem_bytes
                    && a.exec_ns.to_bits() == b.exec_ns.to_bits()
            })
            && self.arrays == other.arrays
            && self.cores.len() == other.cores.len()
            && self
                .cores
                .iter()
                .zip(&other.cores)
                .all(|(a, b)| core_bitwise_eq(a, b))
            && self.repeats_hold()
            && other.repeats_hold()
    }
}

/// [`ComponentAnalysis::bitwise_eq`] of one core.
fn core_bitwise_eq(a: &CoreAnalysis, b: &CoreAnalysis) -> bool {
    a.nseg == b.nseg
        && a.swap_lists == b.swap_lists
        && a.ranges == b.ranges
        && a.exec_ns.len() == b.exec_ns.len()
        && a.exec_ns
            .iter()
            .zip(&b.exec_ns)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Change-detection state for one (core, array): the most recently bound
/// canonical range. The buffer is reusable across cores and candidates —
/// `bound` distinguishes "nothing bound yet on this core" from whatever
/// stale contents the buffer holds. It also keeps the transfer shape of the
/// last range priced for the array — extents, line structure and volume,
/// a function of the extents alone — so a range that moves without changing
/// its extents is priced without recomputing them.
#[derive(Debug, Clone, Default)]
struct LastRange {
    bound: bool,
    range: Vec<Interval>,
    extents: Vec<i64>,
    lines: i64,
    line_elems: i64,
    volume: i64,
}

/// The per-(tile, array) binding step shared by [`ComponentAnalysis::build`]
/// and [`CoordinateDelta::rebuild_scan`]: empty-range skip, bounding-box update, change detection with the §5.3.1
/// overlap rule, and the swap-entry / transfer-totals bookkeeping. Keeping
/// every scan on one code path is what makes the incremental rebuilds
/// bitwise-faithful by construction — only the canonical-range *computation*
/// differs between the callers.
#[allow(clippy::too_many_arguments)]
fn bind_tile_array(
    arr: &crate::component::ArrayUse,
    meta: &ArrayMeta,
    rw_dep: bool,
    r: &[Interval],
    s0: usize,
    ca: &mut CoreAnalysis,
    ai: usize,
    last: &mut LastRange,
    bb: &mut [i64],
    total_bytes: &mut i64,
    total_ops: &mut usize,
) -> Result<(), Infeasible> {
    if r.iter().any(Interval::is_empty) {
        // Every access is guard-excluded from this tile: the segment does
        // not touch the array, so no swap happens and the previously bound
        // range persists.
        return Ok(());
    }
    if last.bound {
        if last.range.as_slice() == r {
            // The range this core bound last: no swap, and the bounding box
            // already holds its extents.
            return Ok(());
        }
        // Range changed: §5.3.1 overlap rule for arrays with RAW/WAW
        // dependences.
        if rw_dep && prem_polyhedral::ranges_overlap(&last.range, r) {
            return Err(Infeasible::RangeOverlap {
                array: arr.name.clone(),
            });
        }
    }
    // Allocation-free [`TransferShape`] arithmetic: `alpha`, the line
    // structure and the volume are integer products over the same extents,
    // so the stored values are bitwise what the materializing struct would
    // compute — without building its two `Vec`s per changed (tile, array).
    let n = r.len();
    let mut same_extents = last.extents.len() == n;
    for (d, (iv, b)) in r.iter().zip(bb.iter_mut()).enumerate() {
        let len = iv.len() as i64;
        *b = (*b).max(len);
        same_extents &= last.extents.get(d) == Some(&len);
    }
    if !same_extents {
        last.extents.clear();
        last.extents.extend(r.iter().map(|iv| iv.len() as i64));
        let e = &last.extents;
        let mut alpha = n + 1;
        for d in (0..n).rev() {
            if e[d] == arr.dims[d] {
                alpha = d + 1;
            } else {
                break;
            }
        }
        last.lines = if alpha <= 2 {
            1
        } else {
            e[..alpha - 2].iter().product::<i64>().max(1)
        };
        last.line_elems = e[alpha.saturating_sub(2)..].iter().product::<i64>().max(1);
        last.volume = e.iter().product::<i64>();
    }
    let (lines, line_elems) = (last.lines, last.line_elems);
    let bytes = last.volume * arr.elem_bytes;
    if meta.loads {
        *total_bytes += bytes;
        *total_ops += 1;
    }
    if meta.unloads {
        *total_bytes += bytes;
        *total_ops += 1;
    }
    ca.swap_lists[ai].push(SwapEntry {
        seg: s0 + 1,
        lines,
        line_elems,
    });
    if let Some(rr) = &mut ca.ranges {
        rr[ai].push(r.to_vec());
    }
    last.range.clear();
    last.range.extend_from_slice(r);
    last.bound = true;
    Ok(())
}

/// True when `PREM_CHECK_HEAVY` is enabled (default off): debug-build
/// differential asserts sample densely (pre-PR-3 rates) instead of the
/// cheap default. Parsed by the shared [`prem_obs::env_flag`] helper, which
/// warns on unrecognized values.
#[cfg(debug_assertions)]
pub(crate) fn heavy_checks() -> bool {
    static HEAVY: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *HEAVY.get_or_init(|| prem_obs::env_flag("PREM_CHECK_HEAVY", false))
}

/// One-shot fast-tier makespan of a solution: `+∞` when infeasible, else
/// bitwise equal to the materializing tier's
/// `evaluate(&build_schedule(...)).makespan_ns`. Allocates fresh scratch —
/// search loops should use
/// [`crate::optimizer::MakespanEvaluator`] instead, which reuses buffers
/// and memoizes.
pub fn fast_makespan(
    component: &Component,
    solution: &Solution,
    platform: &Platform,
    exec_model: &ExecModel,
) -> f64 {
    let spm_estimate = crate::tiling::spm_bytes_for(component, &solution.k);
    if spm_estimate > platform.spm_bytes {
        return f64::INFINITY;
    }
    let Ok(analysis) =
        ComponentAnalysis::build(component, solution, platform.cores, exec_model, false)
    else {
        return f64::INFINITY;
    };
    analysis
        .makespan_only(platform, &mut MakespanScratch::default())
        .unwrap_or(f64::INFINITY)
}
