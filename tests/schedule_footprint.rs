//! The materializing tier's footprint and batch contract.
//!
//! `build_schedule` allocates per core and per array — the analysis's swap
//! lists grow by amortised doubling — never per transfer or per batch. A
//! counting global allocator checks that its allocation count grows only by
//! that doubling when the segment count grows sixteenfold. The counts are
//! kept per thread, so tests running side by side do not mix them.
//!
//! The batch contract is checked on the Table 3.1 LSTM component and on the
//! 7-deep GoogLeNet conv nest: batches tile each core's op buffer in batch
//! order, unloads before loads and each group in array order; a batch's time
//! is the sum of its ops' times in push order (per array, the unload before
//! the load); the ops add up to `total_ops`; and each op's price is the one
//! its canonical range — read from an analysis built with `retain_ranges` —
//! gives through `transfer_time_ns`.

use prem::core::{
    build_schedule, transfer_time_ns, Component, ComponentAnalysis, ExecModel, LoopTree, MemOp,
    Platform, Solution, TransferShape,
};
use prem::ir::{AssignKind, CmpOp, Cond, ElemType, Expr, IdxExpr, Program, ProgramBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the calls that obtain memory (`alloc`,
/// `alloc_zeroed`, `realloc`) made by the current thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the current thread makes while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// The LSTM `(s1, p)` component kernel of Table 3.1 (the one `segments.rs`'s
/// unit tests build).
fn lstm_component(nt: i64, ns: i64, np: i64) -> Component {
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
    b.end_loop();
    let program = b.finish();
    let tree = LoopTree::build(&program).unwrap();
    let s1 = &tree.roots[0].children[0];
    Component::extract(&tree, &program, &[s1, &s1.children[0]])
}

/// The component of a perfect nest: its outermost loop down through every
/// only, tilable child.
fn chain_component(program: &Program) -> Component {
    let tree = LoopTree::build(program).unwrap();
    let mut chain = vec![&tree.roots[0]];
    while let [c] = &chain[chain.len() - 1].children[..] {
        if !c.tilable {
            break;
        }
        chain.push(c);
    }
    Component::extract(&tree, program, &chain)
}

fn conv_component() -> Component {
    chain_component(&prem::kernels::CnnConfig::googlenet_study().build())
}

fn flat_model(depth: usize) -> ExecModel {
    ExecModel {
        o: vec![1.0; depth],
        w: 2.0,
    }
}

/// Asserts the batch contract of `solution`'s schedule (module docs).
fn assert_batch_contract(comp: &Component, solution: &Solution, platform: &Platform) {
    let model = flat_model(comp.depth());
    let sched = build_schedule(comp, solution, platform, &model).expect("feasible");
    let retained = ComponentAnalysis::build(comp, solution, platform.cores, &model, true).unwrap();
    let mut ops = 0;
    for (c, core) in sched.cores.iter().enumerate() {
        let ranges = retained.core(c).ranges.as_deref().expect("retained");
        let mut at = 0;
        for (j, batch) in core.batches.iter().enumerate() {
            assert_eq!(
                batch.ops.start, at,
                "core {c} batch {j} starts where {j}-1 ends"
            );
            at = batch.ops.end;
            let batch_ops = core.batch_ops(j);
            ops += batch_ops.len();

            let order = |o: &MemOp| (o.is_load, o.array_idx, o.swap_index);
            assert!(
                batch_ops.windows(2).all(|w| order(&w[0]) < order(&w[1])),
                "core {c} batch {j}: unloads first, each group in array order"
            );

            let mut push_order: Vec<&MemOp> = batch_ops.iter().collect();
            push_order.sort_by_key(|o| (o.array_idx, o.is_load, o.swap_index));
            let time = push_order.iter().fold(0.0f64, |t, o| t + o.time_ns);
            assert_eq!(
                batch.time_ns.to_bits(),
                time.to_bits(),
                "core {c} batch {j}"
            );

            let mut bytes = 0;
            for o in batch_ops {
                let arr = &comp.arrays[o.array_idx];
                let shape = TransferShape {
                    range: ranges[o.array_idx][o.swap_index]
                        .iter()
                        .map(|iv| iv.len() as i64)
                        .collect(),
                    array: arr.dims.clone(),
                    elem_bytes: arr.elem_bytes,
                };
                let priced = transfer_time_ns(&shape, platform) + platform.api.dma_int_handler;
                assert_eq!(
                    o.time_ns.to_bits(),
                    priced.to_bits(),
                    "core {c} batch {j}: {o:?}"
                );
                bytes += shape.bytes();
            }
            assert_eq!(batch.bytes, bytes, "core {c} batch {j}");
        }
        assert_eq!(
            at,
            core.ops.len(),
            "core {c}: the batches cover the op buffer"
        );
    }
    assert_eq!(ops, sched.total_ops);
}

#[test]
fn batch_contract_on_the_table_3_1_lstm_component() {
    let comp = lstm_component(10, 650, 700);
    let platform = Platform::default().with_cores(3).with_spm_bytes(1 << 20);
    for (k, r) in [
        (vec![109, 350], vec![3, 1]),
        (vec![50, 100], vec![3, 1]),
        (vec![650, 70], vec![1, 1]),
    ] {
        assert_batch_contract(&comp, &Solution { k, r }, &platform);
    }
}

#[test]
fn batch_contract_on_the_conv_nest() {
    let comp = conv_component();
    assert_eq!(comp.depth(), 5, "the 7-deep nest folds its filter loops");
    let platform = Platform::default().with_cores(4).with_spm_bytes(1 << 20);
    for (k, r) in [
        (vec![1, 16, 7, 7, 12], vec![1, 2, 2, 1, 1]),
        (vec![1, 2, 2, 3, 7], vec![1, 1, 4, 1, 1]),
        (vec![1, 32, 28, 4, 24], vec![1, 1, 1, 4, 1]),
    ] {
        assert_batch_contract(&comp, &Solution { k, r }, &platform);
    }
}

#[test]
fn build_schedule_allocates_per_core_and_array() {
    let comp = conv_component();
    let cores = 4usize;
    let platform = Platform::default()
        .with_cores(cores)
        .with_spm_bytes(1 << 20);
    let model = flat_model(comp.depth());
    let r = vec![1, 2, 2, 1, 1];
    let build = |k: Vec<i64>| {
        let solution = Solution { k, r: r.clone() };
        let (sched, allocs) =
            allocations(|| build_schedule(&comp, &solution, &platform, &model).unwrap());
        let nseg: usize = sched.cores.iter().map(|c| c.nseg).sum();
        (nseg, sched.total_ops, allocs)
    };
    let (small_nseg, small_ops, small) = build(vec![1, 16, 7, 7, 12]);
    let (big_nseg, big_ops, big) = build(vec![1, 4, 4, 7, 6]);
    assert!(
        (1_000..2_000).contains(&small_nseg) && (14_000..20_000).contains(&big_nseg),
        "segment counts {small_nseg}, {big_nseg}"
    );
    assert!(big_ops > 8 * small_ops, "ops {small_ops} → {big_ops}");
    // Each of the `cores × arrays` swap lists doubles its capacity about
    // log2(16) = 4 more times; allow 6. An allocation per op, or per batch,
    // would add thousands.
    let growth = (cores * comp.arrays.len() * 6) as u64;
    assert!(
        big <= small + growth,
        "allocations {small} at {small_nseg} segments → {big} at {big_nseg} (allowed +{growth})"
    );
}
