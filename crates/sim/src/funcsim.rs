//! Functional simulation of the transformed PREM program.
//!
//! Executes the tiled, parallelized, double-buffered program on concrete
//! data: per-core SPM buffers sized by the bounding boxes, DMA loads/unloads
//! of canonical ranges, buffer alternation per `SegmentToSwap`, and element
//! loops running against the SPM through the [`DataStore`] abstraction.
//! Comparing the resulting main memory against the original interpreter
//! validates the *entire* transformation pipeline end-to-end — canonical
//! ranges, buffer attributes, swap placement and tiling legality.
//!
//! Within one component execution no dependence crosses cores (that is what
//! the parallel-legality flag guarantees), so cores are executed sequentially
//! without loss of functional fidelity.
//!
//! # Privatized reductions
//!
//! When [`Component::privatize_reductions`] has split a reduction level
//! across thread groups, each array marked [`ArrayUse::privatized`] gets a
//! private accumulator per reduction group. The *primary* group (group 0
//! along every reduction-parallel level) owns the original memory: it runs
//! the kernel's own initialization and writes back by plain overwrite,
//! exactly like the non-reduction path. Every other group seeds its buffer
//! with the operator's identity on bind — no DMA load, the memory contents
//! must not be double-counted — and folds its partial into main memory with
//! [`ReduceOp::combine`] on every unload. Primary cores execute first so
//! the overwrite (which establishes the initialized partial) lands before
//! any combine. With no privatized arrays every core is vacuously primary
//! and the execution order and semantics are unchanged.

use prem_core::{
    build_schedule, ArrayUse, BufferAttr, Component, ComponentSchedule, Platform, Solution,
    TilePlan,
};
use prem_ir::{run_block, DataStore, Env, InterpStats, LoopTable, MemStore, Node, Program};
use prem_polyhedral::{Interval, ReduceOp};
use std::cell::RefCell;
use std::fmt;

/// Error raised by the functional simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum FuncSimError {
    /// The schedule could not be constructed.
    Infeasible(String),
    /// An access fell outside the bound canonical range — the transformation
    /// is broken.
    OutOfRange {
        /// Array name.
        array: String,
        /// The offending global index.
        index: Vec<i64>,
    },
    /// An array's accesses disagree on outer-loop coefficients; ranges do
    /// not shift rigidly and the program is unsupported.
    NonUniformOuter {
        /// Array name.
        array: String,
    },
    /// A component loop could not be found in the program.
    MissingLoop(usize),
}

impl fmt::Display for FuncSimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FuncSimError::Infeasible(s) => write!(f, "infeasible schedule: {s}"),
            FuncSimError::OutOfRange { array, index } => {
                write!(f, "access to {array}{index:?} outside its canonical range")
            }
            FuncSimError::NonUniformOuter { array } => {
                write!(f, "array {array} has non-uniform outer coefficients")
            }
            FuncSimError::MissingLoop(id) => write!(f, "component loop l{id} not in program"),
        }
    }
}

impl std::error::Error for FuncSimError {}

/// Statistics of one functional run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuncStats {
    /// Bytes moved by DMA loads.
    pub load_bytes: i64,
    /// Bytes moved by DMA unloads.
    pub unload_bytes: i64,
    /// Segments executed (across all cores and component executions).
    pub segments: u64,
    /// Statement instances executed.
    pub instances: u64,
}

/// One scheduled component to execute in PREM mode: the component plus its
/// chosen solution.
#[derive(Debug, Clone)]
pub struct PlannedComponent {
    /// The component.
    pub component: Component,
    /// The chosen solution.
    pub solution: Solution,
}

/// Runs the whole application with the given components executed in PREM
/// mode (tiled, double-buffered, through SPM) and everything else
/// interpreted directly. `store` plays the role of main memory.
///
/// # Errors
///
/// Returns [`FuncSimError`] when the schedule is infeasible or an SPM access
/// violation is detected.
pub fn run_app_prem(
    program: &Program,
    planned: &[PlannedComponent],
    platform: &Platform,
    store: &mut MemStore,
) -> Result<FuncStats, FuncSimError> {
    // Pre-build schedules (they are env-independent up to rigid shifts).
    let loops = program.loops_by_id();
    let mut ready = Vec::with_capacity(planned.len());
    for p in planned {
        let model = prem_core::ExecModel {
            o: vec![0.0; p.component.depth()],
            w: 0.0,
        };
        let schedule = build_schedule(&p.component, &p.solution, platform, &model)
            .map_err(|e| FuncSimError::Infeasible(e.to_string()))?;
        let plan = TilePlan::build(&p.component, &p.solution, platform.cores)
            .map_err(|e| FuncSimError::Infeasible(e.to_string()))?;
        for arr in &p.component.arrays {
            if !arr.outer_uniform {
                return Err(FuncSimError::NonUniformOuter {
                    array: arr.name.clone(),
                });
            }
        }
        let innermost = p.component.levels.last().expect("non-empty component");
        let Some(body) = loops.get(innermost.loop_id).map(|l| &l.body[..]) else {
            return Err(FuncSimError::MissingLoop(innermost.loop_id));
        };
        ready.push(Ready {
            planned: p,
            schedule,
            plan,
            body,
        });
    }

    let mut stats = FuncStats::default();
    let mut env = Env::new();
    run_nodes_prem(
        &program.body,
        program,
        &loops,
        &ready,
        &mut env,
        store,
        &mut stats,
    )?;
    Ok(stats)
}

/// A planned component made ready to run: its schedule, its tile plan and
/// the body under its innermost level.
struct Ready<'p> {
    planned: &'p PlannedComponent,
    schedule: ComponentSchedule,
    plan: TilePlan,
    body: &'p [Node],
}

fn run_nodes_prem(
    nodes: &[Node],
    program: &Program,
    loops: &LoopTable,
    ready: &[Ready],
    env: &mut Env,
    store: &mut MemStore,
    stats: &mut FuncStats,
) -> Result<(), FuncSimError> {
    for n in nodes {
        match n {
            Node::Loop(l) => {
                // Component entry?
                if let Some(r) = ready
                    .iter()
                    .find(|r| r.planned.component.levels[0].loop_id == l.id)
                {
                    run_component(program, loops, r, env, store, stats)?;
                    continue;
                }
                let mut v = l.begin;
                for _ in 0..l.count {
                    env.set(l.id, v);
                    run_nodes_prem(&l.body, program, loops, ready, env, store, stats)?;
                    v += l.stride;
                }
                env.unset(l.id);
            }
            Node::If(i) => {
                if i.cond.holds(env) {
                    run_nodes_prem(&i.body, program, loops, ready, env, store, stats)?;
                }
            }
            Node::Stmt(s) => {
                s.execute(env, store);
                stats.instances += 1;
            }
        }
    }
    Ok(())
}

/// One SPM buffer: storage shaped by the array's bounding box plus the
/// currently bound canonical range.
#[derive(Debug, Clone)]
struct SpmBuffer {
    data: Vec<f64>,
    bound: Option<Vec<Interval>>,
}

/// Per-core SPM state for one component execution.
struct Spm<'a> {
    arrays: &'a [ArrayUse],
    bboxes: &'a [Vec<i64>],
    /// Two streaming buffers per array.
    buffers: Vec<[SpmBuffer; 2]>,
    /// Currently selected buffer per array.
    current: Vec<usize>,
    violation: RefCell<Option<(usize, Vec<i64>)>>,
}

impl<'a> Spm<'a> {
    fn new(arrays: &'a [ArrayUse], bboxes: &'a [Vec<i64>]) -> Self {
        let buffers = arrays
            .iter()
            .zip(bboxes)
            .map(|(_, bb)| {
                let len: i64 = bb.iter().product();
                [
                    SpmBuffer {
                        data: vec![0.0; len as usize],
                        bound: None,
                    },
                    SpmBuffer {
                        data: vec![0.0; len as usize],
                        bound: None,
                    },
                ]
            })
            .collect();
        Spm {
            arrays,
            bboxes,
            buffers,
            current: vec![0; arrays.len()],
            violation: RefCell::new(None),
        }
    }

    fn array_pos(&self, array: prem_ir::ArrayId) -> Option<usize> {
        self.arrays.iter().position(|a| a.array == array)
    }

    fn offset(&self, ai: usize, buf: usize, idx: &[i64]) -> Option<usize> {
        let bound = self.buffers[ai][buf].bound.as_ref()?;
        let bb = &self.bboxes[ai];
        let mut off = 0i64;
        for ((iv, &b), &i) in bound.iter().zip(bb).zip(idx) {
            if i < iv.lo || i > iv.hi {
                return None;
            }
            off = off * b + (i - iv.lo);
        }
        Some(off as usize)
    }
}

/// SPM-backed data store used while executing a tile. All arrays of the
/// component resolve to SPM buffers; anything else is an error (components
/// access only their summarized arrays by construction).
struct SpmStore<'a, 'b> {
    spm: &'b mut Spm<'a>,
}

impl DataStore for SpmStore<'_, '_> {
    fn load(&self, array: prem_ir::ArrayId, idx: &[i64]) -> f64 {
        let Some(ai) = self.spm.array_pos(array) else {
            self.spm
                .violation
                .borrow_mut()
                .get_or_insert((array, idx.to_vec()));
            return 0.0;
        };
        let buf = self.spm.current[ai];
        match self.spm.offset(ai, buf, idx) {
            Some(off) => self.spm.buffers[ai][buf].data[off],
            None => {
                self.spm
                    .violation
                    .borrow_mut()
                    .get_or_insert((array, idx.to_vec()));
                0.0
            }
        }
    }

    fn store(&mut self, array: prem_ir::ArrayId, idx: &[i64], value: f64) {
        let Some(ai) = self.spm.array_pos(array) else {
            self.spm
                .violation
                .borrow_mut()
                .get_or_insert((array, idx.to_vec()));
            return;
        };
        let buf = self.spm.current[ai];
        match self.spm.offset(ai, buf, idx) {
            Some(off) => self.spm.buffers[ai][buf].data[off] = value,
            None => {
                self.spm
                    .violation
                    .borrow_mut()
                    .get_or_insert((array, idx.to_vec()));
            }
        }
    }
}

/// Folds a canonical range of an SPM buffer into main memory with a
/// reduction operator: `mem = op(mem, spm)` per element. Used when a
/// non-primary reduction group unloads its private accumulator.
fn dma_combine(
    store: &mut MemStore,
    arr: &ArrayUse,
    buffer: &SpmBuffer,
    bbox: &[i64],
    range: &[Interval],
    op: ReduceOp,
) -> i64 {
    if range.iter().any(|iv| iv.is_empty()) {
        return 0;
    }
    let mut idx: Vec<i64> = range.iter().map(|iv| iv.lo).collect();
    let ndims = range.len();
    let mut bytes = 0i64;
    'outer: loop {
        let mut off = 0i64;
        for ((iv, &b), &i) in range.iter().zip(bbox).zip(&idx) {
            off = off * b + (i - iv.lo);
        }
        let folded = op.combine(store.load(arr.array, &idx), buffer.data[off as usize]);
        store.store(arr.array, &idx, folded);
        bytes += arr.elem_bytes;
        let mut d = ndims;
        loop {
            if d == 0 {
                break 'outer;
            }
            d -= 1;
            idx[d] += 1;
            if idx[d] <= range[d].hi {
                break;
            }
            idx[d] = range[d].lo;
        }
    }
    bytes
}

/// Copies a canonical range between main memory and an SPM buffer.
fn dma_copy(
    store: &mut MemStore,
    arr: &ArrayUse,
    buffer: &mut SpmBuffer,
    bbox: &[i64],
    range: &[Interval],
    to_spm: bool,
) -> i64 {
    if range.iter().any(|iv| iv.is_empty()) {
        return 0;
    }
    let mut idx: Vec<i64> = range.iter().map(|iv| iv.lo).collect();
    let ndims = range.len();
    let mut bytes = 0i64;
    'outer: loop {
        // SPM offset of idx relative to the range origin.
        let mut off = 0i64;
        for ((iv, &b), &i) in range.iter().zip(bbox).zip(&idx) {
            off = off * b + (i - iv.lo);
        }
        if to_spm {
            buffer.data[off as usize] = store.load(arr.array, &idx);
        } else {
            store.store(arr.array, &idx, buffer.data[off as usize]);
        }
        bytes += arr.elem_bytes;
        // Increment the multi-dimensional index.
        let mut d = ndims;
        loop {
            if d == 0 {
                break 'outer;
            }
            d -= 1;
            idx[d] += 1;
            if idx[d] <= range[d].hi {
                break;
            }
            idx[d] = range[d].lo;
        }
    }
    bytes
}

/// Executes one component (for the current outer-loop environment) in PREM
/// mode across all cores sequentially.
fn run_component(
    program: &Program,
    loops: &LoopTable,
    ready: &Ready,
    env: &mut Env,
    store: &mut MemStore,
    stats: &mut FuncStats,
) -> Result<(), FuncSimError> {
    let Ready {
        planned,
        schedule,
        plan,
        body,
    } = ready;
    let comp = &planned.component;

    // Reduction-group bookkeeping: a core is *primary* when its thread-group
    // index is 0 along every reduction-parallel level. Primary cores run the
    // standard overwrite path and must execute before any non-primary core
    // folds a partial on top of their result.
    let has_privatized = comp.arrays.iter().any(|a| a.privatized.is_some());
    let depth = comp.levels.len();
    let mut weight = vec![1i64; depth];
    for j in (0..depth.saturating_sub(1)).rev() {
        weight[j] = weight[j + 1] * planned.solution.r[j + 1];
    }
    let is_primary = |core: usize| -> bool {
        !has_privatized
            || comp.levels.iter().enumerate().all(|(j, lv)| {
                !lv.reduction_parallel || (core as i64 / weight[j]) % planned.solution.r[j] == 0
            })
    };
    let core_order: Vec<usize> = (0..schedule.cores.len())
        .filter(|&c| is_primary(c))
        .chain((0..schedule.cores.len()).filter(|&c| !is_primary(c)))
        .collect();

    for core_idx in core_order {
        let core = &schedule.cores[core_idx];
        if core.nseg() == 0 {
            continue;
        }
        // Per array: the reduction operator this core must fold with on
        // unload (`None` on primary cores and non-privatized arrays).
        let fold_op: Vec<Option<ReduceOp>> = comp
            .arrays
            .iter()
            .map(|a| {
                if is_primary(core_idx) {
                    None
                } else {
                    a.privatized
                }
            })
            .collect();
        let mut spm = Spm::new(&comp.arrays, &schedule.bounding_boxes);
        // Per-array swap tracking: last canonical range and swap count.
        let mut last_range: Vec<Option<Vec<Interval>>> = vec![None; comp.arrays.len()];
        let mut swap_count = vec![0usize; comp.arrays.len()];

        for tile in &plan.core_tiles(core_idx) {
            let ranges = plan.tile_ranges(tile);
            // Swap phase: rebind buffers whose canonical range changed. A
            // tile from which every access is guard-excluded leaves the
            // binding untouched (mirrors `build_schedule`).
            for (ai, arr) in comp.arrays.iter().enumerate() {
                let r = shifted_range(loops, arr, &ranges, env);
                if r.iter().any(|iv| iv.is_empty()) {
                    continue;
                }
                if last_range[ai].as_ref() == Some(&r) {
                    continue;
                }
                let buf_idx = swap_count[ai] % 2;
                swap_count[ai] += 1;
                last_range[ai] = Some(r.clone());
                spm.current[ai] = buf_idx;
                let bbox = &schedule.bounding_boxes[ai];
                // Write back the buffer's previous contents (WO/RW).
                let needs_unload = matches!(arr.attr, BufferAttr::Wo | BufferAttr::Rw);
                let buffer = &mut spm.buffers[ai][buf_idx];
                if needs_unload {
                    if let Some(old) = buffer.bound.clone() {
                        stats.unload_bytes += match fold_op[ai] {
                            Some(op) => dma_combine(store, arr, buffer, bbox, &old, op),
                            None => dma_copy(store, arr, buffer, bbox, &old, false),
                        };
                    }
                }
                match (arr.attr, fold_op[ai]) {
                    (_, Some(op)) => {
                        // Non-primary replica of a privatized accumulator:
                        // seed with the operator's identity, without touching
                        // memory — loading would double-count the primary's
                        // contribution, and any hull element the segment
                        // never writes folds as a no-op.
                        buffer.data.fill(op.identity());
                    }
                    (BufferAttr::Ro | BufferAttr::Rw, None) => {
                        stats.load_bytes += dma_copy(store, arr, buffer, bbox, &r, true);
                    }
                    (BufferAttr::Wo, None) => {
                        // Semantically a bind without a transfer; prefill
                        // with the memory contents so that write-back of any
                        // hull element the segment does not write restores
                        // the original value (see DESIGN.md).
                        dma_copy(store, arr, buffer, bbox, &r, true);
                    }
                }
                buffer.bound = Some(r);
            }

            // Execute the tile's element loops against the SPM.
            let mut interp_stats = InterpStats::default();
            {
                let mut spm_store = SpmStore { spm: &mut spm };
                run_tile(comp, &ranges, body, env, &mut spm_store, &mut interp_stats);
            }
            stats.instances += interp_stats.instances;
            stats.segments += 1;

            if let Some((array, index)) = spm.violation.borrow().clone() {
                return Err(FuncSimError::OutOfRange {
                    array: program.array(array).name.clone(),
                    index,
                });
            }
        }

        // Final unloads.
        for (ai, arr) in comp.arrays.iter().enumerate() {
            if !matches!(arr.attr, BufferAttr::Wo | BufferAttr::Rw) {
                continue;
            }
            let bbox = &schedule.bounding_boxes[ai];
            for buf_idx in 0..2 {
                let buffer = &mut spm.buffers[ai][buf_idx];
                if let Some(bound) = buffer.bound.clone() {
                    stats.unload_bytes += match fold_op[ai] {
                        Some(op) => dma_combine(store, arr, buffer, bbox, &bound, op),
                        None => dma_copy(store, arr, buffer, bbox, &bound, false),
                    };
                    buffer.bound = None;
                }
            }
        }
    }
    Ok(())
}

/// Canonical range of an array for a tile, shifted to the actual outer-loop
/// environment. The scheduler pinned each outer counter at its lower bound;
/// the range shifts rigidly by `coeff · (counter − lo)` per outer term, where
/// the counter is recovered from the loop's `begin`/`stride` (lowering folds
/// them into the coefficients, so `counter = (value − begin) / stride`).
fn shifted_range(
    loops: &LoopTable,
    arr: &ArrayUse,
    level_ranges: &[Interval],
    env: &Env,
) -> Vec<Interval> {
    let mut r = arr.canonical_range(level_ranges);
    for (d, iv) in r.iter_mut().enumerate() {
        if iv.is_empty() {
            continue;
        }
        let mut shift = 0i64;
        for term in &arr.outer_terms[d] {
            let value = env.try_get(term.loop_id).unwrap_or(0);
            let counter = match loops.get(term.loop_id) {
                Some(l) => (value - l.begin) / l.stride,
                None => value,
            };
            shift += term.coeff * (counter - term.lo);
        }
        *iv = iv.shift(shift);
    }
    r
}

/// Iterates a tile's element loops (the component levels) and runs the folded
/// body under each combination.
fn run_tile<S: DataStore>(
    comp: &Component,
    level_ranges: &[Interval],
    innermost_body: &[Node],
    env: &mut Env,
    store: &mut S,
    stats: &mut InterpStats,
) {
    fn rec<S: DataStore>(
        comp: &Component,
        level_ranges: &[Interval],
        depth: usize,
        innermost_body: &[Node],
        env: &mut Env,
        store: &mut S,
        stats: &mut InterpStats,
    ) {
        if depth == comp.levels.len() {
            run_block(innermost_body, env, store, stats);
            return;
        }
        let lv = &comp.levels[depth];
        let r = level_ranges[depth];
        for counter in r.lo..=r.hi {
            env.set(lv.loop_id, lv.begin + lv.stride * counter);
            rec(
                comp,
                level_ranges,
                depth + 1,
                innermost_body,
                env,
                store,
                stats,
            );
        }
        env.unset(lv.loop_id);
    }
    rec(comp, level_ranges, 0, innermost_body, env, store, stats);
}

#[cfg(test)]
mod tests {
    use super::*;
    use prem_core::{AnalyticCost, CostProvider, LoopTree, OptimizerOptions};
    use prem_ir::run_program;
    use prem_kernels::{CnnConfig, LstmConfig, PoolConfig, PoolOp, RnnConfig};

    /// Optimizes an app and runs it functionally, comparing against the
    /// plain interpreter.
    fn check_kernel(program: &Program, platform: &Platform) {
        let tree = LoopTree::build(program).unwrap();
        let cost = AnalyticCost::new(program);
        let out = prem_core::optimize_app(
            &tree,
            program,
            platform,
            &cost,
            &OptimizerOptions::default(),
        );
        assert!(
            out.makespan_ns.is_finite(),
            "{}: no feasible schedule",
            program.name
        );
        let planned: Vec<PlannedComponent> = out
            .components
            .iter()
            .map(|c| PlannedComponent {
                component: c.component.clone(),
                solution: c.solution.clone(),
            })
            .collect();
        assert!(!planned.is_empty());

        let mut reference = MemStore::patterned(program);
        run_program(program, &mut reference);

        let mut prem = MemStore::patterned(program);
        let stats = run_app_prem(program, &planned, platform, &mut prem).unwrap();
        assert!(stats.segments > 0);
        let diff = reference.max_abs_diff(&prem);
        assert!(
            diff < 1e-9,
            "{}: PREM execution diverges by {diff}",
            program.name
        );
        let _ = cost.stmt_instance_ns(0);
    }

    #[test]
    fn cnn_prem_execution_is_exact() {
        let platform = Platform::default().with_spm_bytes(8 * 1024);
        check_kernel(&CnnConfig::small().build(), &platform);
    }

    #[test]
    fn lstm_prem_execution_is_exact() {
        let platform = Platform::default().with_spm_bytes(4 * 1024).with_cores(3);
        check_kernel(
            &LstmConfig {
                nt: 3,
                ns: 24,
                np: 20,
            }
            .build(),
            &platform,
        );
    }

    #[test]
    fn pools_prem_execution_is_exact() {
        let platform = Platform::default().with_spm_bytes(4 * 1024);
        check_kernel(&PoolConfig::small(PoolOp::Max).build(), &platform);
        check_kernel(&PoolConfig::small(PoolOp::Sum).build(), &platform);
    }

    /// Forces thread groups onto the pooling-window reduction level — a
    /// solution the §5.2.1 rule rejects outright — and checks that the
    /// privatized execution (identity-seeded replicas, combine on unload)
    /// still reproduces the interpreter bit for bit within tolerance.
    #[test]
    fn privatized_pool_reduction_groups_are_exact() {
        for op in [PoolOp::Max, PoolOp::Sum] {
            let program = PoolConfig::window_dominant(op).build();
            let platform = Platform::default().with_spm_bytes(8 * 1024).with_cores(4);
            let tree = LoopTree::build(&program).unwrap();
            let cost = AnalyticCost::new(&program);
            let base = prem_core::optimize_app(
                &tree,
                &program,
                &platform,
                &cost,
                &OptimizerOptions::default(),
            );
            let mut component = base.components[0].component.clone();
            let red = component
                .levels
                .iter()
                .position(|l| l.reduction_parallel)
                .expect("pool has a reduction-parallel level");
            assert_eq!(component.levels[red].name, "r");

            // Three thread groups on r: illegal under the paper's rule...
            let mut solution = Solution::untiled(&component);
            solution.k[red] = 1;
            solution.r[red] = 3;
            assert!(matches!(
                TilePlan::build(&component, &solution, platform.cores),
                Err(prem_core::Infeasible::ParallelismViolation { .. })
            ));

            // ... legal once the accumulator is privatized.
            assert!(component.privatize_reductions());
            assert!(component.levels[red].parallel);
            let planned = vec![PlannedComponent {
                component,
                solution,
            }];

            let mut reference = MemStore::patterned(&program);
            run_program(&program, &mut reference);
            let mut prem = MemStore::patterned(&program);
            let stats = run_app_prem(&program, &planned, &platform, &mut prem).unwrap();
            assert!(stats.segments > 0);
            let diff = reference.max_abs_diff(&prem);
            assert!(
                diff < 1e-9,
                "{}: privatized PREM execution diverges by {diff}",
                program.name
            );
        }
    }

    #[test]
    fn rnn_prem_execution_is_exact() {
        let platform = Platform::default().with_spm_bytes(8 * 1024).with_cores(4);
        check_kernel(
            &RnnConfig {
                nt: 2,
                ns: 24,
                np: 16,
            }
            .build(),
            &platform,
        );
    }
}
