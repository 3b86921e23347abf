//! Fixed costs that scale with tokens and probes allocate nothing.
//!
//! * Lexing a generated whole-network chain of more than 100 KB allocates
//!   only as its token vector grows: identifiers borrow the source.
//! * Once a coordinate scan has grown an evaluator's buffers, a memo probe,
//!   a memo-miss SPM pre-gate and a computed bound allocate nothing: the
//!   memo is probed by the solution's slices, and the gate and the bound
//!   write into buffers the evaluator owns.
//!
//! A counting global allocator keeps its counts per thread, so tests running
//! side by side do not mix them.

mod common;

use common::chain_source;
use prem::core::{
    nondominated_thread_groups, select_tile_sizes, Component, CostProvider, LoopTree,
    MakespanEvaluator, Platform, Solution,
};
use prem::frontend::lex;
use prem::sim::SimCost;
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

#[test]
fn lexing_allocates_only_the_token_vector() {
    let source = chain_source(7, 640);
    assert!(source.len() > 100_000, "{} bytes", source.len());
    let (tokens, n) = allocations(|| lex(&source).expect("the chain lexes"));
    // A vector grown by doubling reallocates once per power of two it
    // passes: at most `log2(len) + 1` calls, plus one for its first buffer.
    let growth = u64::from(usize::BITS - tokens.len().leading_zeros()) + 1;
    assert!(
        n <= growth,
        "{n} allocations for {} tokens (doubling allows {growth})",
        tokens.len()
    );
}

/// The components of one generated chain, by following each root's perfect
/// nest, with their execution models.
fn chain_components() -> Vec<Component> {
    let program = common::chain(12, 16);
    let tree = LoopTree::build(&program).expect("chain lowers");
    tree.roots
        .iter()
        .map(|root| {
            let mut path = vec![root];
            while path[path.len() - 1].perfectly_nests() {
                let next = &path[path.len() - 1].children[0];
                if !next.tilable {
                    break;
                }
                path.push(next);
            }
            Component::extract(&tree, &program, &path)
        })
        .collect()
}

#[test]
fn warm_probes_gates_and_bounds_allocate_nothing() {
    let program = common::chain(12, 16);
    let cost = SimCost::new(&program);
    // A scratchpad small enough that the largest tiles fail the SPM gate.
    let platform = Platform::default().with_spm_bytes(128);
    let (mut gated, mut bounded, mut probed) = (0, 0, 0);
    for component in chain_components() {
        let model = cost.exec_model(&component);
        for r in nondominated_thread_groups(&component, platform.cores) {
            let candidates: Vec<Vec<i64>> = (0..component.depth())
                .map(|j| select_tile_sizes(&component, j, r[j]))
                .collect();
            let base = Solution {
                k: candidates.iter().map(|c| c[0]).collect(),
                r: r.clone(),
            };
            let mut ev = MakespanEvaluator::new(&component, &platform, &model);
            for (j, cands) in candidates.iter().enumerate() {
                ev.begin_coordinate(&base, j);
                // The first scan: every bound once (none is memoized), then
                // the smallest tile size evaluated.
                let first: Vec<f64> = cands.iter().map(|&kj| ev.scan_bound(kj)).collect();
                ev.scan_landscape(&cands[..1]);
                let checks = ev.counters.bound_checks;
                let (again, n) = allocations(|| {
                    cands[1..]
                        .iter()
                        .map(|&kj| ev.scan_bound(kj))
                        .collect::<Vec<f64>>()
                });
                // One allocation: the vector the bounds are collected in.
                assert_eq!(
                    n,
                    u64::from(cands.len() > 1),
                    "{r:?} level {j}: bounds allocated"
                );
                assert_eq!(again, first[1..], "a bound moved");
                let computed = first[1..].iter().filter(|b| b.is_finite()).count();
                assert_eq!(ev.counters.bound_checks - checks, computed);
                bounded += computed;
                gated += first[1..].len() - computed;
                // A memo hit inside the scan is a stretch of one.
                let mut hit = base.clone();
                hit.k[j] = cands[0];
                let (v, n) = allocations(|| ev.makespan(&hit));
                assert_eq!(n, 0, "a memo probe allocated");
                assert!(!v.is_nan());
                probed += 1;
                ev.end_coordinate();
            }
        }
    }
    assert!(
        gated > 0 && bounded > 0 && probed > 0,
        "{gated} {bounded} {probed}"
    );
}
