//! The dependence analysis tests only statements that share an array, and the
//! loop tree filters dependences through a per-statement index; both must
//! give exactly what the all-pairs loop and the whole-list filters give —
//! the same dependences in the same order, the same legality flags on every
//! node and the same active dependences for every component.

mod common;

use common::chain;
use prem::core::{LoopTree, LoopTreeNode};
use prem::ir::{lower, reduction_hints, Program};
use prem::polyhedral::{
    analyze_dependences_with, classify_reductions, dependences_between, is_active_within,
    Dependence, ReductionHints, StmtPoly,
};

/// The all-pairs loop: every ordered statement pair, in `stmts` order.
fn all_pairs(stmts: &[StmtPoly], hints: &ReductionHints) -> Vec<Dependence> {
    let mut deps = Vec::new();
    for a in stmts {
        for b in stmts {
            deps.extend(dependences_between(a, b));
        }
    }
    classify_reductions(&mut deps, stmts, hints);
    deps
}

/// Every bundled kernel and a set of generated whole-network chains.
fn programs() -> Vec<(String, Program)> {
    let kernels = prem::kernels::all_small()
        .into_iter()
        .chain(prem::kernels::all_large())
        .map(|(name, p)| (name.to_string(), p));
    let classic = [
        ("gemm", prem::kernels::classic::gemm(6, 7, 8)),
        ("two_mm", prem::kernels::classic::two_mm(6, 7, 8, 9)),
        ("atax", prem::kernels::classic::atax(6, 7)),
    ]
    .into_iter()
    .map(|(name, p)| (name.to_string(), p));
    let googlenet = prem::kernels::googlenet::study_shapes()
        .into_iter()
        .enumerate()
        .map(|(i, cfg)| (format!("googlenet{i}"), cfg.build()));
    let chains = [(1, 8), (12, 24), (13, 40), (29, 64), (77, 16)]
        .into_iter()
        .map(|(seed, nests)| (format!("chain s{seed} m{nests}"), chain(seed, nests)));
    kernels
        .chain(classic)
        .chain(googlenet)
        .chain(chains)
        .collect()
}

#[test]
fn shared_array_pairs_give_the_all_pairs_dependences_in_order() {
    for (name, program) in programs() {
        let mut stmts = lower(&program).unwrap();
        let hints = reduction_hints(&program);
        assert_eq!(
            analyze_dependences_with(&stmts, &hints),
            all_pairs(&stmts, &hints),
            "{name}"
        );
        // The order is the input's, not the statement ids'.
        stmts.reverse();
        assert_eq!(
            analyze_dependences_with(&stmts, &hints),
            all_pairs(&stmts, &hints),
            "{name} reversed"
        );
    }
}

/// Dependences with both endpoints in `stmts`, by a scan of the whole list.
fn within<'a>(deps: &'a [Dependence], stmts: &[usize]) -> Vec<&'a Dependence> {
    deps.iter()
        .filter(|d| stmts.contains(&d.src) && stmts.contains(&d.dst))
        .collect()
}

/// `(parallel, tilable, reduction_parallel)` of `node` under the rule of
/// §5.2.1, from a scan of the whole dependence list.
fn reference_flags(node: &LoopTreeNode, comp_start: usize, deps: &[Dependence]) -> [bool; 3] {
    let relevant: Vec<&Dependence> = within(deps, &node.subtree_stmts())
        .into_iter()
        .filter(|d| {
            d.level_of(node.loop_id).is_some()
                && d.level_of(comp_start)
                    .is_some_and(|start| is_active_within(d, start))
        })
        .collect();
    let at = |d: &Dependence| d.dist_at(d.level_of(node.loop_id).unwrap());
    let tilable = relevant.iter().all(|d| at(d).is_empty() || at(d).lo >= 0);
    let parallel = tilable && relevant.iter().all(|d| at(d).is_empty() || at(d).is_zero());
    let reduction_parallel = tilable
        && !parallel
        && relevant
            .iter()
            .all(|d| at(d).is_empty() || at(d).is_zero() || d.reduction.is_some());
    [parallel, tilable, reduction_parallel]
}

/// Checks `node` and its subtree. `chain` holds the loops of the perfect
/// chain `node` closes, outermost first: every one of them may start a
/// component that ends at `node`.
fn check_node(what: &str, tree: &LoopTree, node: &LoopTreeNode, chain: &[usize]) {
    let flags = [node.parallel, node.tilable, node.reduction_parallel];
    assert_eq!(
        flags,
        reference_flags(node, chain[0], &tree.deps),
        "{what} l{}",
        node.loop_id
    );
    let stmts = node.subtree_stmts();
    for &start in chain.iter() {
        let reference: Vec<&Dependence> = within(&tree.deps, &stmts)
            .into_iter()
            .filter(|d| d.level_of(start).is_some_and(|s| is_active_within(d, s)))
            .collect();
        assert_eq!(
            tree.active_deps(start, &stmts),
            reference,
            "{what} l{start}..l{}",
            node.loop_id
        );
    }
    for child in &node.children {
        let mut child_chain = if node.perfectly_nests() {
            chain.to_vec()
        } else {
            Vec::new()
        };
        child_chain.push(child.loop_id);
        check_node(what, tree, child, &child_chain);
    }
}

#[test]
fn indexed_loop_tree_matches_whole_list_filters() {
    for (name, program) in programs() {
        let tree = LoopTree::build(&program).unwrap();
        for root in &tree.roots {
            check_node(&name, &tree, root, &[root.loop_id]);
        }
    }
}
