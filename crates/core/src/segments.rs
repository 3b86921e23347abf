//! Segment construction: canonical ranges, `SegmentToSwap`, memory-phase
//! batches and per-segment execution/API costs (§3.5, §5.3).
//!
//! For each core, the tiles assigned by the [`crate::tiling::TilePlan`]
//! become PREM segments. Per array we track the canonical data element range
//! of every segment; a segment enters the array's `SegmentToSwap` list when
//! its range differs from the previous segment's. Swap lists then place the
//! load and unload transfers into per-core *memory batches*: batch `j` runs
//! concurrently with the execution of segment `j-1` and gates the execution
//! of segment `j` (the round-robin streaming schedule of Figure 3.4).

use crate::analysis::ComponentAnalysis;
use crate::component::{ArrayUse, BufferAttr, Component};
use crate::config::Platform;
use crate::tiling::{Infeasible, Solution, TilePlan};
use crate::timing::{transfer_time_ns, ExecModel, TransferShape};
use prem_polyhedral::Interval;

/// One DMA transfer of a memory batch.
#[derive(Debug, Clone, PartialEq)]
pub struct MemOp {
    /// Index into `component.arrays`.
    pub array_idx: usize,
    /// `true` for a load (main memory → SPM), `false` for an unload.
    pub is_load: bool,
    /// The canonical data element range transferred (per array dimension).
    pub range: Vec<Interval>,
    /// Index of this range in the array's `SegmentToSwap` list; the target
    /// streaming buffer is `swap_index % 2`.
    pub swap_index: usize,
    /// Shape of the transferred canonical range.
    pub shape: TransferShape,
    /// Transfer time in ns (DMA line overhead + bus time + interrupt
    /// handler).
    pub time_ns: f64,
}

/// One memory batch: the transfers performed between two segment executions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Batch {
    /// Transfers, unloads first (write-back before reuse).
    pub ops: Vec<MemOp>,
    /// Total time in ns.
    pub time_ns: f64,
    /// Total bytes moved.
    pub bytes: i64,
}

impl Batch {
    fn push(&mut self, op: MemOp) {
        self.time_ns += op.time_ns;
        self.bytes += op.shape.bytes();
        self.ops.push(op);
    }

    /// Returns `true` if the batch moves no data.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Per-core schedule: segments with costs, plus memory batches.
#[derive(Debug, Clone, Default)]
pub struct CorePlan {
    /// Number of execution segments (tile coordinates are enumerated on
    /// demand through the [`TilePlan`]).
    pub nseg: usize,
    /// Execution-phase length per segment in ns (tiled code only).
    pub exec_ns: Vec<f64>,
    /// API overhead charged to each segment's execution phase in ns.
    pub api_ns: Vec<f64>,
    /// API cost of the initialization segment (buffer allocs, first swaps,
    /// dispatch).
    pub init_api_ns: f64,
    /// Memory batches; `batches[j]` gates the execution of segment `j`
    /// (index 0 is unused, index `nseg+1` is the final unload batch).
    pub batches: Vec<Batch>,
}

impl CorePlan {
    /// Number of execution segments on this core.
    pub fn nseg(&self) -> usize {
        self.nseg
    }
}

/// The complete schedule of one component under one solution.
#[derive(Debug, Clone)]
pub struct ComponentSchedule {
    /// The solution that produced this schedule.
    pub solution: Solution,
    /// Per-core plans (length = platform cores).
    pub cores: Vec<CorePlan>,
    /// Bounding box per array (§5.3.1): the maximum canonical-range shape
    /// over all segments; sizes the SPM buffers.
    pub bounding_boxes: Vec<Vec<i64>>,
    /// Bytes of SPM needed per core (both double-buffer partitions).
    pub spm_bytes_needed: i64,
    /// Total bytes transferred by all cores.
    pub total_bytes: i64,
    /// Total number of DMA transfers.
    pub total_ops: usize,
    /// Total time of the explicit combine phase in ns: the sequential merge
    /// rounds that fold privatized reduction partials after the streaming
    /// schedule drains. Exactly `0.0` when no accumulator is privatized.
    pub combine_ns: f64,
}

/// Builds the complete segment/batch schedule for a solution.
///
/// # Errors
///
/// Returns [`Infeasible`] when the solution violates thread limits, the SPM
/// capacity, the canonical-range overlap rule or buffer persistence.
pub fn build_schedule(
    component: &Component,
    solution: &Solution,
    platform: &Platform,
    exec_model: &ExecModel,
) -> Result<ComponentSchedule, Infeasible> {
    // Fast analytic SPM check before any tile enumeration.
    let spm_estimate = crate::tiling::spm_bytes_for(component, &solution.k);
    if spm_estimate > platform.spm_bytes {
        return Err(Infeasible::SpmOverflow {
            needed: spm_estimate,
            capacity: platform.spm_bytes,
        });
    }
    let analysis = ComponentAnalysis::build(component, solution, platform.cores, exec_model, true)?;
    materialize_schedule(&analysis, component, platform)
}

/// The materializing tier: prices a retained [`ComponentAnalysis`] on a
/// platform, building every `MemOp`, `Batch` and API charge. Used once for
/// the search winner and by codegen/simulation; the search loop itself goes
/// through [`ComponentAnalysis::makespan_only`].
///
/// # Errors
///
/// Returns [`Infeasible::SpmOverflow`] when the bounding boxes exceed the
/// platform's SPM capacity.
///
/// # Panics
///
/// Panics if the analysis was built without `retain_ranges`.
pub fn materialize_schedule(
    analysis: &ComponentAnalysis,
    component: &Component,
    platform: &Platform,
) -> Result<ComponentSchedule, Infeasible> {
    let narr = component.arrays.len();
    if analysis.spm_bytes_needed > platform.spm_bytes {
        return Err(Infeasible::SpmOverflow {
            needed: analysis.spm_bytes_needed,
            capacity: platform.spm_bytes,
        });
    }
    let mut cores: Vec<CorePlan> = Vec::with_capacity(analysis.ncores());

    for ca in (0..analysis.ncores()).map(|i| analysis.core(i)) {
        let nseg = ca.nseg;
        let mut cp = CorePlan {
            nseg,
            exec_ns: ca.exec_ns.clone(),
            api_ns: vec![0.0; nseg],
            init_api_ns: 0.0,
            batches: vec![Batch::default(); nseg + 2],
        };
        if nseg == 0 {
            cores.push(cp);
            continue;
        }
        let ranges = ca
            .ranges
            .as_ref()
            .expect("materialize requires an analysis built with retain_ranges");

        // Build batches from swap lists.
        for (ai, arr) in component.arrays.iter().enumerate() {
            let list = &ca.swap_lists[ai];
            let loads = matches!(arr.attr, BufferAttr::Ro | BufferAttr::Rw);
            let unloads = matches!(arr.attr, BufferAttr::Wo | BufferAttr::Rw);
            for x in 0..list.len() {
                let range = &ranges[ai][x];
                let shape = range_shape(arr, range);
                if loads {
                    // x = 0 → batch 1; else batch ST(x-1) + 1.
                    let batch = if x == 0 { 1 } else { list[x - 1].seg + 1 };
                    let op = mem_op(ai, true, range, x, shape.clone(), platform);
                    // Swap-call API cost: charged to the segment where the
                    // call is made (two batches earlier; the init segment for
                    // the first two).
                    charge_swap_call(&mut cp, batch, arr, platform);
                    cp.batches[batch].push(op);
                }
                if unloads {
                    // Unload when the *next* swap replaces this range, or in
                    // the final batch for the last range.
                    let batch = match list.get(x + 1) {
                        Some(next) => next.seg + 1,
                        None => nseg + 1,
                    };
                    let op = mem_op(ai, false, range, x, shape, platform);
                    // A write-only buffer's mid-stream unload is scheduled by
                    // its own swap call (read-write arrays already paid for
                    // the call on the load side; final unloads are covered by
                    // the deallocate calls charged to the last segment).
                    if !loads && batch <= nseg {
                        charge_swap_call(&mut cp, batch, arr, platform);
                    }
                    cp.batches[batch].push(op);
                }
            }
        }
        // Unloads must precede loads within a batch (write-back before the
        // freed buffer is refilled).
        for b in &mut cp.batches {
            b.ops.sort_by_key(|op| op.is_load);
        }

        // Fixed API costs: init segment and per-segment end_segment.
        let api = &platform.api;
        cp.init_api_ns += 2.0 * narr as f64 * api.allocate_buffer + api.dispatch + api.end_segment;
        for s in 0..nseg {
            cp.api_ns[s] += api.end_segment;
        }
        // Buffer deallocations charged to the last segment.
        cp.api_ns[nseg - 1] += 2.0 * narr as f64 * api.deallocate_buffer;

        cores.push(cp);
    }

    // Price the combine phase with the same helper the fast tier uses so
    // both tiers produce identical f64 bits.
    let combine_ns =
        crate::analysis::combine_time(analysis.combine_rounds, &analysis.combine, platform);

    Ok(ComponentSchedule {
        solution: analysis.solution.clone(),
        cores,
        bounding_boxes: analysis.bounding_boxes.clone(),
        spm_bytes_needed: analysis.spm_bytes_needed,
        total_bytes: analysis.total_bytes,
        total_ops: analysis.total_ops,
        combine_ns,
    })
}

/// Charges a swap call's API cost to the execution segment where the call is
/// made: two segments before the batch's gated segment (clamped to the init
/// segment).
fn charge_swap_call(cp: &mut CorePlan, batch: usize, arr: &ArrayUse, platform: &Platform) {
    let cost = platform.api.swap_cost(arr.dims.len());
    if batch <= 2 {
        cp.init_api_ns += cost;
    } else {
        cp.api_ns[batch - 3] += cost; // segment (batch - 2), 0-based index
    }
}

fn mem_op(
    array_idx: usize,
    is_load: bool,
    range: &[Interval],
    swap_index: usize,
    shape: TransferShape,
    platform: &Platform,
) -> MemOp {
    let time_ns = transfer_time_ns(&shape, platform) + platform.api.dma_int_handler;
    MemOp {
        array_idx,
        is_load,
        range: range.to_vec(),
        swap_index,
        shape,
        time_ns,
    }
}

fn range_shape(arr: &ArrayUse, range: &[Interval]) -> TransferShape {
    TransferShape {
        range: range.iter().map(|iv| iv.len() as i64).collect(),
        array: arr.dims.clone(),
        elem_bytes: arr.elem_bytes,
    }
}

pub(crate) fn array_has_rw_deps(component: &Component, array: prem_ir::ArrayId) -> bool {
    component.deps.iter().any(|d| {
        d.array == array
            && matches!(
                d.kind,
                prem_polyhedral::DepKind::Flow | prem_polyhedral::DepKind::Output
            )
    })
}

/// Buffer-persistence check (§5.3.1 plus streaming semantics): a RAW/WAW
/// dependence carried at component level `ℓ` crosses segments; the data must
/// stay in the SPM buffer until the sink segment runs, which requires that no
/// level at or inside `ℓ` with more than one iteration range changes the
/// array's canonical range.
///
/// Also called by [`crate::analysis::CoordinateDelta::rebuild_scan`] on its
/// fresh per-`K_j` [`TilePlan`]: the probe in [`range_varies_along`] pins every
/// *other* level at its first tile but walks consecutive ranges of `lvl`
/// itself, so the verdict genuinely depends on every coordinate and is not
/// part of the frozen-level structure the delta precomputes — it must be
/// re-run per rebuild, exactly as the full build does.
pub(crate) fn check_persistence(component: &Component, plan: &TilePlan) -> Result<(), Infeasible> {
    for dep in &component.deps {
        if !matches!(
            dep.kind,
            prem_polyhedral::DepKind::Flow | prem_polyhedral::DepKind::Output
        ) {
            continue;
        }
        let Some(carry) = dep.carry_level() else {
            continue; // same innermost iteration: no segment crossing
        };
        let Some(arr) = component.arrays.iter().find(|a| a.array == dep.array) else {
            continue;
        };
        for lvl in carry..component.depth() {
            if plan.m[lvl] > 1 && range_varies_along(arr, plan, lvl) {
                return Err(Infeasible::PersistenceViolation {
                    array: arr.name.clone(),
                });
            }
        }
    }
    Ok(())
}

/// Whether an array's canonical range changes between any two consecutive
/// tiles of one level (other levels pinned at tile 0). A non-zero coefficient
/// is not enough: a dominating full-span access can keep the hull constant
/// (e.g. an in-place update that always reads the whole vector). All
/// consecutive pairs are checked because guard-clipped accesses can first
/// take effect in a late tile.
fn range_varies_along(arr: &crate::component::ArrayUse, plan: &TilePlan, lvl: usize) -> bool {
    if !arr.affected_by[lvl] {
        return false;
    }
    let mut probe: Vec<Interval> = plan.level_ranges.iter().map(|r| r[0]).collect();
    let mut prev = arr.canonical_range(&probe);
    for t in 1..plan.level_ranges[lvl].len() {
        probe[lvl] = plan.level_ranges[lvl][t];
        let cur = arr.canonical_range(&probe);
        if cur != prev {
            return true;
        }
        prev = cur;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::looptree::LoopTree;
    use prem_ir::{AssignKind, CmpOp, Cond, ElemType, Expr, IdxExpr, Program, ProgramBuilder};

    /// The LSTM (s1, p) component kernel of Table 3.1 with i32-sized floats.
    fn lstm_kernel(nt: i64, ns: i64, np: i64) -> (Program, LoopTree) {
        let mut b = ProgramBuilder::new("lstm_comp");
        let i_arr = b.array("i", vec![ns], ElemType::F32);
        let u = b.array("U", vec![ns, np], ElemType::F32);
        let inp = b.array("inp", vec![nt, np], ElemType::F32);
        let t = b.begin_loop("t", 0, 1, nt);
        let s1 = b.begin_loop("s1", 0, 1, ns);
        let p = b.begin_loop("p", 0, 1, np);
        b.begin_if(Cond::atom(IdxExpr::var(p), CmpOp::Eq));
        b.stmt(
            i_arr,
            vec![IdxExpr::var(s1)],
            AssignKind::Assign,
            Expr::Const(0.0),
        );
        b.end_if();
        b.stmt(
            i_arr,
            vec![IdxExpr::var(s1)],
            AssignKind::AddAssign,
            Expr::mul(
                Expr::load(u, vec![IdxExpr::var(s1), IdxExpr::var(p)]),
                Expr::load(inp, vec![IdxExpr::var(t), IdxExpr::var(p)]),
            ),
        );
        b.end_loop();
        b.end_loop();
        let _ = t;
        b.end_loop();
        let program = b.finish();
        let tree = LoopTree::build(&program).unwrap();
        (program, tree)
    }

    fn lstm_component(program: &Program, tree: &LoopTree) -> Component {
        let t = &tree.roots[0];
        let s1 = &t.children[0];
        let p = &s1.children[0];
        Component::extract(tree, program, &[s1, p])
    }

    fn flat_model() -> ExecModel {
        ExecModel {
            o: vec![1.0, 1.0],
            w: 2.0,
        }
    }

    #[test]
    fn table_3_1_swap_structure() {
        let (program, tree) = lstm_kernel(10, 650, 700);
        let comp = lstm_component(&program, &tree);
        let sol = Solution {
            k: vec![109, 350],
            r: vec![3, 1],
        };
        let platform = Platform::default().with_cores(3).with_spm_bytes(1 << 20);
        let sched = build_schedule(&comp, &sol, &platform, &flat_model()).unwrap();

        let core0 = &sched.cores[0];
        assert_eq!(core0.nseg(), 4);
        // Batches: index 1..=4 gate segments, index 5 is the final unload.
        assert_eq!(core0.batches.len(), 6);

        // i (WO): ranges equal for (seg1, seg2) and (seg3, seg4) →
        // SegmentToSwap = {1, 3} → unload of range(1) in batch 4, final
        // unload in batch 5. No loads for WO.
        let i_idx = comp.arrays.iter().position(|a| a.name == "i").unwrap();
        let i_ops: Vec<(usize, bool)> = core0
            .batches
            .iter()
            .enumerate()
            .flat_map(|(j, b)| {
                b.ops
                    .iter()
                    .filter(|o| o.array_idx == i_idx)
                    .map(move |o| (j, o.is_load))
            })
            .collect();
        assert_eq!(i_ops, vec![(4, false), (5, false)]);

        // U (RO): range changes every segment → loads in batches 1..=4.
        let u_idx = comp.arrays.iter().position(|a| a.name == "U").unwrap();
        let u_batches: Vec<usize> = core0
            .batches
            .iter()
            .enumerate()
            .flat_map(|(j, b)| {
                b.ops
                    .iter()
                    .filter(|o| o.array_idx == u_idx && o.is_load)
                    .map(move |_| j)
            })
            .collect();
        assert_eq!(u_batches, vec![1, 2, 3, 4]);
    }

    #[test]
    fn bounding_boxes_and_spm() {
        let (program, tree) = lstm_kernel(10, 650, 700);
        let comp = lstm_component(&program, &tree);
        let sol = Solution {
            k: vec![109, 350],
            r: vec![3, 1],
        };
        let platform = Platform::default().with_cores(3).with_spm_bytes(1 << 20);
        let sched = build_schedule(&comp, &sol, &platform, &flat_model()).unwrap();
        let u_idx = comp.arrays.iter().position(|a| a.name == "U").unwrap();
        assert_eq!(sched.bounding_boxes[u_idx], vec![109, 350]);
        let i_idx = comp.arrays.iter().position(|a| a.name == "i").unwrap();
        assert_eq!(sched.bounding_boxes[i_idx], vec![109]);
        // SPM need: 2 buffers × (109·350·4 + 109·4 + 1·350·4) bytes.
        let expected = 2 * 4 * (109 * 350 + 109 + 350);
        assert_eq!(sched.spm_bytes_needed, expected);
    }

    #[test]
    fn spm_overflow_detected() {
        let (program, tree) = lstm_kernel(10, 650, 700);
        let comp = lstm_component(&program, &tree);
        let sol = Solution {
            k: vec![650, 700],
            r: vec![1, 1],
        };
        let platform = Platform::default().with_cores(1); // 128 KiB
        let res = build_schedule(&comp, &sol, &platform, &flat_model());
        assert!(matches!(res, Err(Infeasible::SpmOverflow { .. })));
    }

    #[test]
    fn exec_times_use_clipped_extents() {
        let (program, tree) = lstm_kernel(10, 650, 700);
        let comp = lstm_component(&program, &tree);
        let sol = Solution {
            k: vec![109, 350],
            r: vec![3, 1],
        };
        let platform = Platform::default().with_cores(3).with_spm_bytes(1 << 20);
        let sched = build_schedule(&comp, &sol, &platform, &flat_model()).unwrap();
        // Core 2's segments include the boundary tile s1_t = 5 (extent 105).
        let m = flat_model();
        let last_core = &sched.cores[2];
        assert_eq!(last_core.exec_ns[2], m.tile_time_ns(&[105, 350]));
        assert_eq!(sched.cores[0].exec_ns[0], m.tile_time_ns(&[109, 350]));
    }

    #[test]
    fn total_bytes_accounts_loads_and_unloads() {
        let (program, tree) = lstm_kernel(10, 650, 700);
        let comp = lstm_component(&program, &tree);
        let sol = Solution {
            k: vec![109, 350],
            r: vec![3, 1],
        };
        let platform = Platform::default().with_cores(3).with_spm_bytes(1 << 20);
        let sched = build_schedule(&comp, &sol, &platform, &flat_model()).unwrap();
        // Loads: all of U (650·700) + inp (700 per core? inp depends only on
        // p → swaps when p-tile changes).
        // Unloads: all of i (650) written back twice? i's ranges: per core,
        // 2 distinct ranges of ~109–105, each unloaded once → 650 total.
        let u_bytes: i64 = 650 * 700 * 4;
        let i_bytes: i64 = 650 * 4;
        assert!(sched.total_bytes >= u_bytes + i_bytes);
        // And not absurdly more (inp re-loads are small).
        assert!(sched.total_bytes < u_bytes + i_bytes + 3 * 700 * 4 * 4);
    }

    #[test]
    fn persistence_violation_detected() {
        // for k { for c { acc[c] += x[k][c] } } with both levels tiled:
        // the accumulation into acc is carried at k; tiling c (which affects
        // acc's range) between writer and reader evicts the buffer.
        let mut b = ProgramBuilder::new("persist");
        let acc = b.array("acc", vec![64], ElemType::F32);
        let x = b.array("x", vec![64, 64], ElemType::F32);
        let k = b.begin_loop("k", 0, 1, 64);
        let c = b.begin_loop("c", 0, 1, 64);
        b.stmt(
            acc,
            vec![IdxExpr::var(c)],
            AssignKind::AddAssign,
            Expr::load(x, vec![IdxExpr::var(k), IdxExpr::var(c)]),
        );
        b.end_loop();
        b.end_loop();
        let program = b.finish();
        let tree = LoopTree::build(&program).unwrap();
        let kn = &tree.roots[0];
        let cn = &kn.children[0];
        let comp = Component::extract(&tree, &program, &[kn, cn]);
        let sol = Solution {
            k: vec![8, 8],
            r: vec![1, 1],
        };
        let platform = Platform::default().with_cores(1);
        let model = ExecModel {
            o: vec![1.0, 1.0],
            w: 1.0,
        };
        let res = build_schedule(&comp, &sol, &platform, &model);
        assert!(
            matches!(res, Err(Infeasible::PersistenceViolation { .. })),
            "got {res:?}"
        );
        // Keeping c untiled is fine.
        let sol_ok = Solution {
            k: vec![8, 64],
            r: vec![1, 1],
        };
        assert!(build_schedule(&comp, &sol_ok, &platform, &model).is_ok());
    }
}
