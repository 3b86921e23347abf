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
mod rows;

pub use bound::makespan_lower_bound;
pub(crate) use bound::{shift_classes, BoundScratch, BoundTerms, ShiftClasses};
pub use delta::CoordinateDelta;
pub(crate) use delta::RowScratch;
use rows::RowCore;

use crate::component::{BufferAttr, Component};
use crate::config::Platform;
use crate::optimizer::elapsed_ns;
use crate::segments::{load_batch, unload_batch};
use crate::tiling::{Infeasible, Solution, TilePlan};
use crate::timing::{transfer_time_from_lines, ExecModel};
use prem_polyhedral::Interval;
use std::time::Instant;

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

impl SwapEntry {
    /// Bytes of one transfer of the range at `elem_bytes` per element:
    /// `lines × line_elems` is the range's volume. A product past `i64::MAX`
    /// answers `i64::MAX`, as [`crate::timing::TransferShape::bytes`] does.
    pub(crate) fn bytes(&self, elem_bytes: i64) -> i64 {
        self.lines
            .checked_mul(self.line_elems)
            .and_then(|v| v.checked_mul(elem_bytes))
            .unwrap_or(i64::MAX)
    }
}

/// Per-array metadata the fold needs without re-touching the component.
#[derive(Debug, Clone, PartialEq)]
struct ArrayMeta {
    ndims: usize,
    elem_bytes: i64,
    loads: bool,
    unloads: bool,
}

impl ArrayMeta {
    fn of(a: &crate::component::ArrayUse) -> ArrayMeta {
        ArrayMeta {
            ndims: a.dims.len(),
            elem_bytes: a.elem_bytes,
            loads: matches!(a.attr, BufferAttr::Ro | BufferAttr::Rw),
            unloads: matches!(a.attr, BufferAttr::Wo | BufferAttr::Rw),
        }
    }
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
    /// analysis was built with `retain_ranges`. Codegen emits them, and a
    /// schedule's [`crate::segments::MemOp`] names its range here by
    /// `(array_idx, swap_index)`.
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

/// One walked core: as the reference build stores it, or as the lane walk's
/// rows ([`RowCore`]), which expand to the same [`CoreAnalysis`] on demand.
#[derive(Debug, Clone)]
enum Walked {
    Swaps(CoreAnalysis),
    Rows(RowCore),
}

impl Walked {
    fn nseg(&self) -> usize {
        match self {
            Walked::Swaps(c) => c.nseg,
            Walked::Rows(r) => r.nseg,
        }
    }
}

/// Everything about a `(component, solution)` pair that does not depend on
/// platform timing scalars. Build once, fold on every sweep point. Compare
/// two with [`ComponentAnalysis::bitwise_eq`]: the walk and the reference
/// store the same analysis in different forms.
#[derive(Debug, Clone)]
pub struct ComponentAnalysis {
    /// The analyzed solution.
    pub solution: Solution,
    /// The per-core analyses that were walked; core `i` reads
    /// `cores[core_index[i]]` ([`ComponentAnalysis::core`]).
    cores: Vec<Walked>,
    /// Per core (length = core count used to build the plan), the walked
    /// analysis it uses. The reference [`ComponentAnalysis::build`] maps
    /// every core to its own; the incremental rebuild maps a core whose box
    /// repeats an earlier core's class ([`box_class`]) to that core's.
    core_index: Vec<usize>,
    /// Bounding box per array (§5.3.1), sizing the SPM buffers.
    pub bounding_boxes: Vec<Vec<i64>>,
    /// Bytes of SPM needed (both double-buffer partitions, plus a third
    /// partial-merge buffer for privatized accumulators); `i64::MAX` when
    /// the product overflows.
    pub spm_bytes_needed: i64,
    /// Total bytes transferred by all cores (saturating at `i64::MAX`).
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

/// Bytes of SPM the bounding boxes need: two double-buffer partitions per
/// array, plus a third partial-merge buffer per privatized accumulator.
/// Checked: a product or sum past `i64::MAX` answers `i64::MAX`, which no
/// platform holds, so both analysis tiers report the same
/// [`Infeasible::SpmOverflow`].
fn spm_bytes(component: &Component, bounding_boxes: &[Vec<i64>]) -> i64 {
    component
        .arrays
        .iter()
        .zip(bounding_boxes)
        .try_fold(0i64, |total, (arr, bb)| {
            // Privatized accumulators keep a third buffer: the combine phase
            // DMAs a partner group's partial next to the live copy to merge.
            let bufs = if arr.privatized.is_some() { 3 } else { 2 };
            let bytes = bb
                .iter()
                .try_fold(arr.elem_bytes.checked_mul(bufs)?, |acc, &b| {
                    acc.checked_mul(b)
                })?;
            total.checked_add(bytes)
        })
        .unwrap_or(i64::MAX)
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
    /// Per walked core, the start of its priced rows in `steps` and of its
    /// row ids in `ids`.
    row: Vec<(usize, usize)>,
    /// Per walked core, the API time of its initialization segment.
    init: Vec<f64>,
    /// Phase 1's priced rows: per row-encoded core one [`Step`] per row, per
    /// reference-built core one per batch `0..=nseg + 1`.
    steps: Vec<Step>,
    /// Per walked core, the row of each batch `1..=nseg + 1` — the identity
    /// over batches `1..=nseg + 1` for a reference-built core.
    ids: Vec<u32>,
    /// Phase 2's state, one entry per core.
    chains: Vec<Chain>,
    /// Per array, the last `(lines, line_elems)` priced and its transfer time
    /// plus the interrupt handler.
    xfer: Vec<(i64, i64, f64)>,
    /// Time spent in phase 2 (the shared-DMA recurrence) since the caller
    /// last took it.
    pub(crate) recur_ns: u64,
}

/// Phase 1's totals for one walked core at batch / segment `j`: the batch's
/// transfer time — negative while it moves nothing — the API time charged
/// to segment `j` and the segment's execution time.
#[derive(Debug, Clone, Copy)]
struct Step {
    batch_ns: f64,
    api_ns: f64,
    exec_ns: f64,
}

impl Step {
    const IDLE: Step = Step {
        batch_ns: -1.0,
        api_ns: 0.0,
        exec_ns: 0.0,
    };

    /// Adds one transfer to the batch; the first starts from `0.0`, as in
    /// the materializing tier.
    #[inline]
    fn transfer(&mut self, ns: f64) {
        if self.batch_ns < 0.0 {
            self.batch_ns = 0.0;
        }
        self.batch_ns += ns;
    }
}

/// One core's state in phase 2: `prev = exec_fin[j − 1]`, `prev2 =
/// exec_fin[j − 2]` at the top of step `j`, and where its walked analysis's
/// priced rows and row ids start.
#[derive(Debug, Clone, Copy, Default)]
struct Chain {
    prev: f64,
    prev2: f64,
    row: usize,
    ids: usize,
    nseg: usize,
}

impl ComponentAnalysis {
    /// Builds the analysis: tile plan, persistence/overlap checks, swap
    /// lists, per-segment execution times and the SPM requirement — the
    /// exact scan [`crate::segments::build_schedule`] performs, minus any
    /// platform-priced materialization. With `retain_ranges` the canonical
    /// ranges are kept for codegen, which emits them; without it the
    /// analysis carries only what the fold and
    /// [`crate::segments::materialize_schedule`] read.
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
        let arrays: Vec<ArrayMeta> = component.arrays.iter().map(ArrayMeta::of).collect();

        let mut out_cores: Vec<Walked> = Vec::with_capacity(cores);
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
                out_cores.push(Walked::Swaps(ca));
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
                    arr.canonical_range_into(&ranges, &mut scratch_range);
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
            out_cores.push(Walked::Swaps(ca));
        }

        let spm_bytes_needed = spm_bytes(component, &bounding_boxes);
        let (combine_rounds, combine) = combine_structure(component, solution, exec_model);

        Ok(ComponentAnalysis {
            solution: solution.clone(),
            cores: out_cores,
            core_index: (0..cores).collect(),
            bounding_boxes,
            spm_bytes_needed,
            total_bytes,
            total_ops,
            combine_rounds,
            combine,
            arrays,
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
        let MakespanScratch {
            row,
            init,
            steps,
            ids,
            chains,
            xfer,
            recur_ns,
        } = scratch;
        row.clear();
        init.clear();
        ids.clear();
        // One resize: growing the rows core by core would leave a trail of
        // freed doublings behind in the allocator.
        steps.clear();
        steps.resize(
            self.cores
                .iter()
                .map(|c| match c {
                    Walked::Swaps(c) => c.nseg + 2,
                    Walked::Rows(r) => r.heads.len(),
                })
                .sum(),
            Step::IDLE,
        );
        xfer.clear();
        xfer.resize(narr, (0, 0, 0.0));
        // A transfer's time is a pure function of its line shape, so the
        // last one priced per array is reused.
        let mut price = |ai: usize, lines: i64, line_elems: i64| {
            let memo = &mut xfer[ai];
            if (memo.0, memo.1) != (lines, line_elems) {
                let t = transfer_time_from_lines(
                    lines,
                    line_elems,
                    self.arrays[ai].elem_bytes,
                    platform,
                ) + api.dma_int_handler;
                *memo = (lines, line_elems, t);
            }
            memo.2
        };
        let init_const = 2.0 * narr as f64 * api.allocate_buffer + api.dispatch + api.end_segment;
        let dealloc = 2.0 * narr as f64 * api.deallocate_buffer;

        // Phase 1, once per walked core: replay build_schedule's batch
        // placement and API charges, accumulating only per-batch/segment
        // totals. Addition order matches the materializing tier exactly (per
        // batch, array-major; per array the unload of the previous range
        // before the load of the next), which keeps the f64 sums bitwise
        // equal (DESIGN.md, "Rows, not segments"). A reference-built core
        // is priced per batch from its swap lists, a row-encoded core once
        // per row.
        let mut at = 0usize;
        for walked in &self.cores {
            let nseg = walked.nseg();
            row.push((at, ids.len()));
            match walked {
                Walked::Rows(rc) => {
                    let st = &mut steps[at..at + rc.heads.len()];
                    at += rc.heads.len();
                    ids.extend_from_slice(&rc.ids);
                    for (r, (s, head)) in st.iter_mut().zip(&rc.heads).enumerate() {
                        for (ai, cell) in rc.cells(r, narr).iter().enumerate() {
                            for x in cell.xfers.iter().filter(|x| x.is_some()) {
                                s.transfer(price(ai, x.lines, x.line_elems));
                            }
                            if cell.call {
                                s.api_ns += api.swap_cost(self.arrays[ai].ndims);
                            }
                        }
                        s.api_ns += api.end_segment;
                        if head.dealloc {
                            s.api_ns += dealloc;
                        }
                        s.exec_ns = head.exec_ns;
                    }
                    let mut init_ns = 0.0f64;
                    for (meta, &calls) in self.arrays.iter().zip(&rc.init_calls) {
                        for _ in 0..calls {
                            init_ns += api.swap_cost(meta.ndims);
                        }
                    }
                    init_ns += init_const;
                    init.push(init_ns);
                }
                Walked::Swaps(core) => {
                    let st = &mut steps[at..at + nseg + 2];
                    at += nseg + 2;
                    ids.extend(1..=nseg as u32 + 1);
                    if nseg == 0 {
                        init.push(0.0); // like the materializing tier
                        continue;
                    }
                    let mut init_ns = 0.0f64;
                    for (ai, list) in core.swap_lists.iter().enumerate() {
                        let meta = &self.arrays[ai];
                        for (x, e) in list.iter().enumerate() {
                            let t = price(ai, e.lines, e.line_elems);
                            if meta.loads {
                                let batch = load_batch(list, x);
                                let cost = api.swap_cost(meta.ndims);
                                if batch <= 2 {
                                    init_ns += cost;
                                } else {
                                    st[batch - 2].api_ns += cost;
                                }
                                st[batch].transfer(t);
                            }
                            if meta.unloads {
                                let batch = unload_batch(list, x, nseg);
                                if !meta.loads && batch <= nseg {
                                    let cost = api.swap_cost(meta.ndims);
                                    if batch <= 2 {
                                        init_ns += cost;
                                    } else {
                                        st[batch - 2].api_ns += cost;
                                    }
                                }
                                st[batch].transfer(t);
                            }
                        }
                    }
                    init_ns += init_const;
                    for (s, &e) in st[1..=nseg].iter_mut().zip(&core.exec_ns) {
                        s.api_ns += api.end_segment;
                        s.exec_ns = e;
                    }
                    st[nseg].api_ns += dealloc;
                    init.push(init_ns);
                }
            }
            // Phase 2's closing max needs monotone chains (DESIGN.md,
            // "Flat fold").
            debug_assert!(
                {
                    let (start, _) = row[row.len() - 1];
                    init[init.len() - 1] >= 0.0
                        && steps[start..at].iter().all(|s| {
                            (s.batch_ns >= 0.0 || s.batch_ns == Step::IDLE.batch_ns)
                                && s.api_ns >= 0.0
                                && s.exec_ns >= 0.0
                        })
                },
                "negative or NaN schedule term"
            );
        }

        // Phase 2: the evaluate() recurrence, one rolling state per core,
        // each reading its walked core's priced rows through the core's row
        // ids. A core's batch `j` reads only its own `j − 1` state and the
        // shared `dma_free`, so each core runs its DMA step and then its
        // execution step before the next core's. `prev` stops advancing once
        // the core runs out of segments, which leaves it at `exec_fin[nseg]`
        // for the final-unload gate.
        let clock = Instant::now();
        chains.clear();
        chains.extend(self.core_index.iter().map(|&s| Chain {
            prev: init[s],
            prev2: init[s],
            row: row[s].0,
            ids: row[s].1,
            nseg: self.cores[s].nseg(),
        }));
        let max_nseg = self.cores.iter().map(Walked::nseg).max().unwrap_or(0);
        let mut dma_free = 0.0f64;
        for j in 1..=max_nseg + 1 {
            for c in chains.iter_mut() {
                if j > c.nseg + 1 {
                    continue;
                }
                let st = steps[c.row + ids[c.ids + j - 1] as usize];
                let mut mem_fin = 0.0f64;
                if st.batch_ns >= 0.0 {
                    let gate = if j == c.nseg + 1 { c.prev } else { c.prev2 };
                    mem_fin = dma_free.max(gate) + st.batch_ns;
                    dma_free = mem_fin;
                }
                if j <= c.nseg {
                    let fin = c.prev.max(mem_fin) + st.exec_ns + st.api_ns;
                    c.prev2 = c.prev;
                    c.prev = fin;
                }
            }
        }
        // Every term is ≥ 0, so the DMA chain and each core's execution
        // chain never decrease: the latest finish is the last of one of them.
        let mut makespan = chains.iter().fold(dma_free, |m, c| m.max(c.prev));
        *recur_ns += elapsed_ns(clock);

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

    /// Core `i`'s analysis: in the incremental rebuild, cores of one box
    /// class share the analysis walked for the first of them, which is
    /// expanded from its rows on first use.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below [`ComponentAnalysis::ncores`].
    pub fn core(&self, i: usize) -> &CoreAnalysis {
        match &self.cores[self.core_index[i]] {
            Walked::Swaps(c) => c,
            Walked::Rows(r) => r.analysis(),
        }
    }

    /// The core count the analysis was built for.
    pub fn ncores(&self) -> usize {
        self.core_index.len()
    }

    /// Execution segments across all cores.
    pub(crate) fn segments(&self) -> usize {
        self.core_index.iter().map(|&w| self.cores[w].nseg()).sum()
    }

    /// Execution segments of the cores that share an earlier core's walked
    /// analysis (every walked analysis is used by at least one core).
    pub(crate) fn shared_segments(&self) -> usize {
        self.segments() - self.cores.iter().map(Walked::nseg).sum::<usize>()
    }

    /// Structural equality with *bitwise* `f64` comparison on the execution
    /// times. `PartialEq` would treat `-0.0 == 0.0` and `NaN != NaN`; the
    /// differential suites need the stronger claim that the incremental
    /// rebuild produced the same bits the from-scratch build would. Cores
    /// are compared through [`ComponentAnalysis::core`], so which cores share
    /// a walked analysis is not compared.
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
            && self.ncores() == other.ncores()
            && (0..self.ncores()).all(|i| core_bitwise_eq(self.core(i), other.core(i)))
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
/// stale contents the buffer holds. [`bind_tile_array`] also keeps the
/// extents and [`Price`] of the last range it priced for the array, so a
/// range that moves without changing its extents is priced without
/// recomputing them.
#[derive(Debug, Clone, Default)]
struct LastRange {
    bound: bool,
    range: Vec<Interval>,
    extents: Vec<i64>,
    price: Price,
}

impl LastRange {
    /// Whether binding `r` is a swap: `false` when `r` is the range this
    /// core bound last (the bounding box already holds its extents), else
    /// `true` after the §5.3.1 overlap rule for arrays with RAW/WAW
    /// dependences.
    #[inline]
    fn swaps(
        &self,
        arr: &crate::component::ArrayUse,
        rw_dep: bool,
        r: &[Interval],
    ) -> Result<bool, Infeasible> {
        if !self.bound {
            return Ok(true);
        }
        if self.range.as_slice() == r {
            return Ok(false);
        }
        if rw_dep && prem_polyhedral::ranges_overlap(&self.range, r) {
            return Err(Infeasible::RangeOverlap {
                array: arr.name.clone(),
            });
        }
        Ok(true)
    }

    /// Records `r` as the range this core bound last.
    #[inline]
    fn set(&mut self, r: &[Interval]) {
        self.range.clear();
        self.range.extend_from_slice(r);
        self.bound = true;
    }
}

/// What one swap of an array costs the analysis, a function of the
/// transferred range's extents alone: its line structure and the bytes its
/// load and unload add to the transfer totals. `lines == 0` marks an entry
/// not yet priced (every priced range has at least one line).
#[derive(Debug, Clone, Copy, Default)]
struct Price {
    lines: i64,
    line_elems: i64,
    bytes: i64,
}

impl Price {
    /// The price of a swap of extents `e`: the line structure and the bytes
    /// of its transfers, from the same slice arithmetic as
    /// [`crate::timing::TransferShape`], so the stored values are bitwise
    /// what the materializing tier computes. Bytes past `i64::MAX` answer
    /// `i64::MAX`; so does the SPM requirement of any bounding box holding
    /// these extents ([`spm_bytes`]).
    fn of(arr: &crate::component::ArrayUse, meta: &ArrayMeta, e: &[i64]) -> Price {
        let (lines, line_elems) = crate::timing::data_lines(e, &arr.dims);
        let transfers = i64::from(meta.loads) + i64::from(meta.unloads);
        let bytes = crate::timing::bytes(e, arr.elem_bytes)
            .checked_mul(transfers)
            .unwrap_or(i64::MAX);
        Price {
            lines,
            line_elems,
            bytes,
        }
    }

    /// Whether the entry holds a price.
    #[inline]
    fn is_set(&self) -> bool {
        self.lines != 0
    }

    /// Charges one swap priced by this entry at segment `seg` (1-based):
    /// its entry in the array's swap list and its transfers in the totals.
    #[inline]
    fn charge(
        &self,
        meta: &ArrayMeta,
        seg: usize,
        list: &mut Vec<SwapEntry>,
        total_bytes: &mut i64,
        total_ops: &mut usize,
    ) {
        list.push(SwapEntry {
            seg,
            lines: self.lines,
            line_elems: self.line_elems,
        });
        *total_bytes = total_bytes.saturating_add(self.bytes);
        *total_ops += usize::from(meta.loads) + usize::from(meta.unloads);
    }
}

/// The per-(tile, array) binding step of [`ComponentAnalysis::build`]:
/// empty-range skip, change detection with the §5.3.1 overlap rule,
/// bounding-box update and the swap-entry / transfer-totals bookkeeping.
/// The incremental rebuild derives the same swaps per row with a price per
/// extent class (`analysis/delta.rs`).
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
    if !last.swaps(arr, rw_dep, r)? {
        return Ok(());
    }
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
        last.price = Price::of(arr, meta, &last.extents);
    }
    last.price
        .charge(meta, s0 + 1, &mut ca.swap_lists[ai], total_bytes, total_ops);
    if let Some(rr) = &mut ca.ranges {
        rr[ai].push(r.to_vec());
    }
    last.set(r);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::looptree::LoopTree;
    use crate::schedule::evaluate;
    use crate::segments::build_schedule;
    use prem_ir::{AssignKind, CmpOp, Cond, ElemType, Expr, IdxExpr, ProgramBuilder};

    /// One §4.2 line structure: a swap's price and the materializing
    /// tier's `TransferShape` agree on every value, also when the extents'
    /// product overflows — both then answer `i64::MAX` bytes.
    #[test]
    fn price_and_transfer_shape_agree_past_overflow() {
        let dims = vec![1 << 40, 1 << 32];
        let arr = crate::component::ArrayUse {
            array: 0,
            name: "a".into(),
            dims: dims.clone(),
            elem_bytes: 4,
            attr: BufferAttr::Ro,
            contribs: Vec::new(),
            affected_by: Vec::new(),
            outer_terms: Vec::new(),
            outer_uniform: true,
            privatized: None,
        };
        let meta = ArrayMeta::of(&arr);
        for (e, overflows) in [(vec![3, 1 << 32], false), (vec![1 << 32, 1 << 32], true)] {
            let shape = crate::timing::TransferShape {
                range: e.clone(),
                array: dims.clone(),
                elem_bytes: arr.elem_bytes,
            };
            let price = Price::of(&arr, &meta, &e);
            assert_eq!(price.lines, shape.data_line_num());
            assert_eq!(price.line_elems, shape.data_line_size());
            assert_eq!(price.bytes, shape.bytes());
            assert_eq!(shape.bytes() == i64::MAX, overflows, "{e:?}");
        }
    }

    /// `if (i == 7) y[0] = x[i]` over `i < 8` under `K = 3`, `R = 2` on
    /// three cores: core 0 runs tiles 0–1 (six iterations) and never binds
    /// `y`, core 1 runs tile 2 (two iterations) and ends on `y`'s unload,
    /// and core 2 has no segment. On a slow bus with cheap iterations core
    /// 1's final unload is the last thing to finish; on a fast bus with dear
    /// iterations core 0's last execution is. The flat fold must give the
    /// materializing tier's bits in both, so the closing max needs both the
    /// final `dma_free` and every core's execution chain.
    #[test]
    fn flat_fold_takes_the_last_unload_and_the_last_exec() {
        let mut b = ProgramBuilder::new("fold");
        let x = b.array("x", vec![8], ElemType::F32);
        let y = b.array("y", vec![1], ElemType::F32);
        let i = b.begin_loop("i", 0, 1, 8);
        b.begin_if(Cond::atom(IdxExpr::var(i).plus_const(-7), CmpOp::Eq));
        b.stmt(
            y,
            vec![IdxExpr::constant(0)],
            AssignKind::Assign,
            Expr::load(x, vec![IdxExpr::var(i)]),
        );
        b.end_if();
        b.end_loop();
        let program = b.finish();
        let tree = LoopTree::build(&program).unwrap();
        let comp = Component::extract(&tree, &program, &[&tree.roots[0]]);
        let sol = Solution {
            k: vec![3],
            r: vec![2],
        };
        let mut scratch = MakespanScratch::default();
        for (bus, w, unload_last) in [(1.0 / 16.0, 1.0, true), (16.0, 1e6, false)] {
            let platform = Platform::default().with_cores(3).with_bus_gbytes(bus);
            let model = ExecModel { o: vec![0.0], w };
            let schedule = build_schedule(&comp, &sol, &platform, &model).unwrap();
            let reference = evaluate(&schedule).makespan_ns;
            let analysis = ComponentAnalysis::build(&comp, &sol, 3, &model, false).unwrap();
            let nseg: Vec<usize> = (0..3).map(|c| analysis.core(c).nseg).collect();
            assert_eq!(nseg, [2, 1, 0]);
            let folded = analysis.makespan_only(&platform, &mut scratch).unwrap();
            assert_eq!(folded.to_bits(), reference.to_bits(), "bus {bus}");
            let exec_fin: Vec<f64> = scratch.chains.iter().map(|c| c.prev).collect();
            if unload_last {
                assert!(exec_fin.iter().all(|&f| f < folded), "{exec_fin:?}");
            } else {
                assert_eq!(exec_fin[0].to_bits(), folded.to_bits(), "{exec_fin:?}");
            }
        }
    }
}
