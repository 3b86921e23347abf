//! The loop tree application model (§3.3).
//!
//! The kernel is modelled as a tree of loops, each annotated with its
//! iteration count `N`, begin index, stride `S`, execution count `I`, and the
//! `parallel`/`tilable` legality flags derived from dependence analysis
//! (§5.2.1). Tilable components (§3.4) are maximal perfectly nested chains of
//! this tree, extracted by the application optimizer.

use prem_ir::{guarded_span, Cond, Node, Program};
use prem_polyhedral::{Dependence, Interval, StmtPoly};

/// One loop of the loop tree with the paper's annotations.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopTreeNode {
    /// Global loop id (matches the IR loop id).
    pub loop_id: usize,
    /// Source name.
    pub name: String,
    /// Begin index `l.begin`.
    pub begin: i64,
    /// Stride `l.S`.
    pub stride: i64,
    /// Iteration count `l.N`.
    pub count: i64,
    /// Execution count `l.I` — how many times the loop (as a whole) runs.
    pub exec_count: u64,
    /// `l.parallel`: tiles over different iteration ranges may run on
    /// different threads.
    pub parallel: bool,
    /// Whether a rectangular band ending at this level may be tiled with
    /// arbitrary tile sizes (per-level distance non-negativity, §5.2.1).
    pub tilable: bool,
    /// The level is *not* parallel under the paper's rule, but every
    /// blocking dependence is reduction-marked: privatizing the accumulator
    /// per thread group (and combining partials afterwards) would make it
    /// parallel. Always computed; only acted on when the optimizer runs
    /// with `OptimizerOptions::reductions`. Disjoint from `parallel`.
    pub reduction_parallel: bool,
    /// Child loops.
    pub children: Vec<LoopTreeNode>,
    /// Statements whose innermost enclosing loop is this one (they live in
    /// this loop's body outside any child loop).
    pub own_stmts: Vec<usize>,
}

impl LoopTreeNode {
    /// All statement ids in this subtree.
    pub fn subtree_stmts(&self) -> Vec<usize> {
        let mut out = self.own_stmts.clone();
        for c in &self.children {
            out.extend(c.subtree_stmts());
        }
        out.sort_unstable();
        out
    }

    /// Returns `true` if the loop is perfectly nested onto its single child:
    /// exactly one child loop and no statements of its own.
    pub fn perfectly_nests(&self) -> bool {
        self.children.len() == 1 && self.own_stmts.is_empty()
    }
}

/// The loop tree of a kernel plus the analysis artifacts it was built from.
#[derive(Debug, Clone)]
pub struct LoopTree {
    /// Top-level loops, in textual order (`root(T)`).
    pub roots: Vec<LoopTreeNode>,
    /// Statements at the top level, outside any loop.
    pub root_stmts: Vec<usize>,
    /// Polyhedral statement summaries (indexed by statement id).
    pub stmts: Vec<StmtPoly>,
    /// All dependences of the kernel.
    pub deps: Vec<Dependence>,
    /// Positions in `deps` of each statement's outgoing dependences,
    /// ascending, indexed by source statement id: a node or component
    /// visits only the dependences of its own statements.
    deps_by_src: Vec<Vec<usize>>,
}

impl LoopTree {
    /// Builds the loop tree for a program: structure and `I` from the IR,
    /// `parallel`/`tilable` flags from dependence analysis.
    ///
    /// # Errors
    ///
    /// Propagates [`prem_ir::LowerError`] if the program is malformed.
    pub fn build(program: &Program) -> Result<LoopTree, prem_ir::LowerError> {
        let stmts = prem_ir::lower(program)?;
        let hints = prem_ir::reduction_hints(program);
        let deps = prem_polyhedral::analyze_dependences_with(&stmts, &hints);
        Ok(Self::build_with(program, stmts, deps))
    }

    /// Builds the tree from precomputed analysis results.
    pub fn build_with(program: &Program, stmts: Vec<StmtPoly>, deps: Vec<Dependence>) -> LoopTree {
        let mut roots = Vec::new();
        let mut root_stmts = Vec::new();
        build_nodes(&program.body, &mut roots, &mut root_stmts);

        let mut deps_by_src: Vec<Vec<usize>> = vec![Vec::new(); stmts.len()];
        for (i, d) in deps.iter().enumerate() {
            if deps_by_src.len() <= d.src {
                deps_by_src.resize(d.src + 1, Vec::new());
            }
            deps_by_src[d.src].push(i);
        }
        let mut tree = LoopTree {
            roots,
            root_stmts,
            stmts,
            deps,
            deps_by_src,
        };
        // Annotate flags: walk each root chain tracking the current
        // component start (the topmost loop of the perfect chain containing
        // each node).
        let mut annotated = std::mem::take(&mut tree.roots);
        for r in &mut annotated {
            annotate(r, r.loop_id, &tree);
        }
        tree.roots = annotated;
        tree
    }

    /// Dependences with both endpoints among `stmts` (sorted ascending), in
    /// the global order of [`LoopTree::deps`]. Visits only the dependences
    /// leaving `stmts`, not the whole list.
    fn deps_within(&self, stmts: &[usize]) -> Vec<&Dependence> {
        debug_assert!(stmts.is_sorted(), "statement ids must be sorted");
        let mut at: Vec<usize> = stmts
            .iter()
            .filter_map(|&s| self.deps_by_src.get(s))
            .flatten()
            .copied()
            .filter(|&i| stmts.binary_search(&self.deps[i].dst).is_ok())
            .collect();
        at.sort_unstable();
        at.into_iter().map(|i| &self.deps[i]).collect()
    }

    /// Dependences relevant *within one execution* of a component rooted at
    /// `component_start_loop`: both endpoints inside the component's subtree
    /// (`subtree_stmts`, sorted ascending), and not carried strictly above
    /// the component (outer-carried dependences are barrier-separated
    /// between component executions). In the order of [`LoopTree::deps`].
    pub fn active_deps(
        &self,
        component_start_loop: usize,
        subtree_stmts: &[usize],
    ) -> Vec<&Dependence> {
        self.deps_within(subtree_stmts)
            .into_iter()
            .filter(|d| {
                let Some(start) = d.level_of(component_start_loop) else {
                    return false; // component loop not shared: defensive
                };
                prem_polyhedral::is_active_within(d, start)
            })
            .collect()
    }
}

/// Structural pass: builds nodes and computes `I` via guard-tightened spans
/// of enclosing loops. Guards met on the path restrict the spans of the
/// *enclosing* loops they reference (e.g. `if (t > 0)` makes `I = NT - 1`,
/// matching Figure 3.2).
fn build_nodes(nodes: &[Node], out: &mut Vec<LoopTreeNode>, out_stmts: &mut Vec<usize>) {
    fn walk<'a>(
        nodes: &'a [Node],
        conds: &mut Vec<&'a Cond>,
        enclosing: &mut Vec<&'a prem_ir::Loop>,
        out: &mut Vec<LoopTreeNode>,
        out_stmts: &mut Vec<usize>,
    ) {
        for n in nodes {
            match n {
                Node::Loop(l) => {
                    // I of this loop = product of enclosing-loop spans
                    // tightened by every guard on the whole path.
                    let mut exec_count = 1u64;
                    for el in enclosing.iter() {
                        exec_count = exec_count.saturating_mul(guarded_span(el, conds));
                    }
                    let mut node = LoopTreeNode {
                        loop_id: l.id,
                        name: l.name.clone(),
                        begin: l.begin,
                        stride: l.stride,
                        count: l.count,
                        exec_count,
                        parallel: false,
                        tilable: false,
                        reduction_parallel: false,
                        children: Vec::new(),
                        own_stmts: Vec::new(),
                    };
                    enclosing.push(l);
                    walk(
                        &l.body,
                        conds,
                        enclosing,
                        &mut node.children,
                        &mut node.own_stmts,
                    );
                    enclosing.pop();
                    out.push(node);
                }
                Node::If(i) => {
                    conds.push(&i.cond);
                    walk(&i.body, conds, enclosing, out, out_stmts);
                    conds.pop();
                }
                Node::Stmt(s) => out_stmts.push(s.id),
            }
        }
    }
    walk(nodes, &mut Vec::new(), &mut Vec::new(), out, out_stmts);
}

/// Flag pass: computes `parallel` and `tilable` per node. `comp_start` is the
/// loop id of the topmost loop of the perfect chain this node belongs to.
fn annotate(node: &mut LoopTreeNode, comp_start: usize, tree: &LoopTree) {
    // Each relevant dependence with its distance at this node's level.
    let relevant: Vec<(&Dependence, Interval)> = tree
        .deps_within(&node.subtree_stmts())
        .into_iter()
        .filter_map(|d| {
            let level = d.level_of(node.loop_id)?;
            // A dependence whose shared prefix does not reach the
            // component-start loop cannot be classified active or
            // inactive within one component execution, so it is
            // *excluded* from the legality filter (`false`, i.e. it
            // constrains nothing). For `lower`-produced inputs this is
            // unreachable: both endpoints live under `node`, hence both
            // loop chains contain the path root → comp_start → node and
            // the shared prefix includes comp_start. The fallback only
            // decides the behavior for hand-built dependence lists fed
            // through `build_with` — pinned by
            // `malformed_shared_prefix_dep_is_ignored`.
            d.level_of(comp_start)
                .is_some_and(|start| prem_polyhedral::is_active_within(d, start))
                .then(|| (d, d.dist_at(level)))
        })
        .collect();

    node.tilable = relevant.iter().all(|(_, iv)| iv.is_empty() || iv.lo >= 0);
    node.parallel = node.tilable && relevant.iter().all(|(_, iv)| iv.is_empty() || iv.is_zero());
    // Reduction-aware variant of the parallel rule: the level fails the
    // paper's zero-distance test, but only because of reduction-marked
    // dependences — every unmarked dependence is still zero/empty there.
    // Such a level becomes parallel once the accumulator is privatized
    // (`Component::privatize_reductions`). Computed unconditionally; inert
    // unless the optimizer opts in.
    node.reduction_parallel = node.tilable
        && !node.parallel
        && relevant
            .iter()
            .all(|(d, iv)| iv.is_empty() || iv.is_zero() || d.reduction.is_some());
    // If the perfect nest continues into a single child, the child belongs
    // to the same component (same start); otherwise each child starts its
    // own component.
    let single_perfect = node.perfectly_nests();
    for child in &mut node.children {
        let start = if single_perfect {
            comp_start
        } else {
            child.loop_id
        };
        annotate(child, start, tree);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prem_ir::{AssignKind, CmpOp, ElemType, Expr, IdxExpr, ProgramBuilder};
    use prem_polyhedral::Carry;

    /// Simplified LSTM-shaped kernel:
    /// for t { for s1 { for p { i[s1] (+)= U[s1][p]*inp[t][p] } }
    ///         if (t>0) { for b { c[t][b] = c[t-1][b] * i[b] } } }
    fn lstmish(nt: i64, ns: i64, np: i64) -> prem_ir::Program {
        let mut b = ProgramBuilder::new("lstmish");
        let i_arr = b.array("i", vec![ns], ElemType::F32);
        let u = b.array("U", vec![ns, np], ElemType::F32);
        let inp = b.array("inp", vec![nt, np], ElemType::F32);
        let c = b.array("c", vec![nt, ns], ElemType::F32);
        let t = b.begin_loop("t", 0, 1, nt);
        let s1 = b.begin_loop("s1", 0, 1, ns);
        let p = b.begin_loop("p", 0, 1, np);
        b.begin_if(prem_ir::Cond::atom(IdxExpr::var(p), CmpOp::Eq));
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
        b.begin_if(prem_ir::Cond::atom(IdxExpr::var(t), CmpOp::Gt));
        let bb = b.begin_loop("b", 0, 1, ns);
        b.stmt(
            c,
            vec![IdxExpr::var(t), IdxExpr::var(bb)],
            AssignKind::Assign,
            Expr::mul(
                Expr::load(c, vec![IdxExpr::var(t).plus_const(-1), IdxExpr::var(bb)]),
                Expr::load(i_arr, vec![IdxExpr::var(bb)]),
            ),
        );
        b.end_loop();
        b.end_if();
        b.end_loop();
        b.finish()
    }

    #[test]
    fn structure_and_exec_counts() {
        let p = lstmish(10, 6, 7);
        let tree = LoopTree::build(&p).unwrap();
        assert_eq!(tree.roots.len(), 1);
        let t = &tree.roots[0];
        assert_eq!(t.name, "t");
        assert_eq!(t.exec_count, 1);
        assert_eq!(t.children.len(), 2);
        let s1 = &t.children[0];
        assert_eq!(s1.name, "s1");
        assert_eq!(s1.exec_count, 10); // runs once per t
        let b = &t.children[1];
        assert_eq!(b.name, "b");
        // guarded by t > 0 → NT - 1 executions (the thesis' l_b.I).
        assert_eq!(b.exec_count, 9);
    }

    #[test]
    fn parallel_flags_match_paper() {
        let p = lstmish(10, 6, 7);
        let tree = LoopTree::build(&p).unwrap();
        let t = &tree.roots[0];
        let s1 = &t.children[0];
        let pl = &s1.children[0];
        // t carries c[t] ← c[t-1] and the i accumulation: not parallel.
        assert!(!t.parallel, "t must not be parallel");
        // s1 is parallel (matches Figure 3.2).
        assert!(s1.parallel, "s1 must be parallel");
        assert!(s1.tilable);
        // p carries the reduction into i[s1]: tilable but not parallel.
        assert!(pl.tilable, "p must be tilable");
        assert!(!pl.parallel, "p must not be parallel");
        // p is not even reduction-parallel: the i[s1] = 0 initializer runs
        // at every t, so init↔update dependences carried at p stay unmarked
        // (the pinned-initializer rule requires bounds [0,0] along every
        // loop the update's write does not index — t is not). Conservative
        // by design; the pool kernels' r==0 && s==0 guards do qualify.
        assert!(!pl.reduction_parallel, "p reduction-parallelism is blocked");
        assert!(!s1.reduction_parallel, "parallel levels are not re-flagged");
        // b is parallel within its component.
        let b = &t.children[1];
        assert!(
            b.parallel,
            "b must be parallel (deps carried at t are barriers)"
        );
    }

    #[test]
    fn perfect_nesting_detection() {
        let p = lstmish(10, 6, 7);
        let tree = LoopTree::build(&p).unwrap();
        let t = &tree.roots[0];
        assert!(!t.perfectly_nests()); // two children
        assert!(t.children[0].perfectly_nests()); // s1 → p
        assert!(!t.children[0].children[0].perfectly_nests()); // p is a leaf
    }

    #[test]
    fn subtree_stmts_collects_all() {
        let p = lstmish(4, 3, 3);
        let tree = LoopTree::build(&p).unwrap();
        assert_eq!(tree.roots[0].subtree_stmts(), vec![0, 1, 2]);
        assert_eq!(tree.roots[0].children[0].subtree_stmts(), vec![0, 1]);
    }

    #[test]
    fn malformed_shared_prefix_dep_is_ignored() {
        // Pins the defensive `.unwrap_or(false)` in `annotate`'s relevance
        // filter: a dependence that names the node's loop in its shared
        // prefix but NOT the component-start loop cannot be classified, so
        // it must be excluded — the flags come out as if it did not exist.
        // `lower` can never produce such a dependence (both endpoints'
        // chains contain the whole root→node path); only a hand-built list
        // through `build_with` reaches this.
        use prem_polyhedral::{Carry, DepKind, Interval};
        let p = lstmish(10, 6, 7);
        let stmts = prem_ir::lower(&p).unwrap();
        let baseline = LoopTree::build_with(&p, stmts.clone(), vec![]);

        // Loop ids: t=0, s1=1, p=2, b=3. The p node's component starts at
        // s1 (s1 perfectly nests into p). This dependence's shared prefix
        // claims only p — missing s1 — with a negative distance that would
        // kill p's tilable flag if it were honored.
        let malformed = prem_polyhedral::Dependence {
            src: 1,
            dst: 1,
            array: 0,
            src_access: 0,
            dst_access: 0,
            kind: DepKind::Flow,
            carry: Carry::Level(0),
            dist: vec![Interval::point(-1)],
            shared: vec![2],
            reduction: None,
        };
        let tree = LoopTree::build_with(&p, stmts, vec![malformed]);
        let flags = |t: &LoopTree| {
            let pl = &t.roots[0].children[0].children[0];
            (pl.parallel, pl.tilable, pl.reduction_parallel)
        };
        assert_eq!(flags(&tree), flags(&baseline));
        assert!(flags(&tree).1, "p stays tilable");
    }

    #[test]
    fn active_deps_filters_outer_carried() {
        let p = lstmish(10, 6, 7);
        let tree = LoopTree::build(&p).unwrap();
        let s1 = &tree.roots[0].children[0];
        let subtree = s1.subtree_stmts();
        let active = tree.active_deps(s1.loop_id, &subtree);
        // All active deps keep s1 fixed (that is why s1 is parallel).
        for d in &active {
            let lv = d.level_of(s1.loop_id).unwrap();
            assert!(d.dist_at(lv).is_zero(), "{d}");
        }
        // And none of them is carried at t.
        for d in &active {
            assert!(!matches!(d.carry, Carry::Level(0)), "{d}");
        }
    }
}
