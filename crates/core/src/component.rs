//! Tilable components (§3.4): perfectly nested loop chains extracted from
//! the loop tree, with per-array access summaries used for canonical data
//! element ranges, buffer attributes and SPM sizing.

use crate::looptree::{LoopTree, LoopTreeNode};
use prem_ir::{AssignKind, Program, Statement};
use prem_polyhedral::{DepKind, Dependence, Interval, ReduceOp, StmtPoly};
use std::collections::BTreeMap;

/// One tiled level of a component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompLevel {
    /// Loop id in the IR / loop tree.
    pub loop_id: usize,
    /// Source name.
    pub name: String,
    /// Iteration count `N` (counter space `0..N`).
    pub count: i64,
    /// Begin index of the source loop.
    pub begin: i64,
    /// Source stride.
    pub stride: i64,
    /// Whether tiles of this level may run on different thread groups.
    pub parallel: bool,
    /// Whether the level may be tiled with arbitrary tile sizes (`false`
    /// forces a single tile `K = N`).
    pub tilable: bool,
    /// Whether the level is sequential only because of reduction-marked
    /// dependences and becomes parallel once the accumulators are privatized
    /// (see [`Component::privatize_reductions`]). Disjoint from `parallel`.
    pub reduction_parallel: bool,
}

/// R/W attribute of a streaming buffer (§5.3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BufferAttr {
    /// Read-only: loaded, never written back.
    Ro,
    /// Write-only: never loaded, written back.
    Wo,
    /// Read-write: loaded and written back.
    Rw,
}

/// Contribution of one access to one array dimension: coefficients on the
/// component-level counters plus the interval contributed by everything else
/// (constant, fixed outer counters at a representative value, and deeper
/// private counters at their full ranges).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimContrib {
    /// Coefficient per component level (outermost first).
    pub comp_coeffs: Vec<i64>,
    /// Guard-tightened counter bounds of the access's statement at each
    /// component level: the access only happens inside these (e.g. the
    /// `t > 0` guard of the LSTM recurrence, or `p == 0` initializations).
    pub level_bounds: Vec<Interval>,
    /// Base interval from non-component terms.
    pub base: Interval,
}

impl DimContrib {
    /// Index interval of this contribution when the component counters range
    /// over the given per-level intervals; empty if the guards exclude the
    /// whole tile.
    pub fn bounds(&self, level_ranges: &[Interval]) -> Interval {
        let mut acc = self.base;
        for ((c, r), g) in self
            .comp_coeffs
            .iter()
            .zip(level_ranges)
            .zip(&self.level_bounds)
        {
            let clipped = r.intersect(g);
            if clipped.is_empty() {
                return Interval::empty();
            }
            if *c != 0 {
                acc = acc + clipped.scale(*c);
            }
        }
        acc
    }
}

/// Contribution of a fixed outer loop to an array dimension's canonical
/// range: the scheduler pins the loop at its lower bound `lo`; the machine
/// simulator shifts the range by `coeff · (value − lo)` per outer iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OuterTerm {
    /// Outer loop id.
    pub loop_id: usize,
    /// Coefficient of the loop's counter in the index expression.
    pub coeff: i64,
    /// Lower bound the scheduler pinned the counter at.
    pub lo: i64,
}

/// Per-array access summary within a component.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayUse {
    /// Array id in the program.
    pub array: prem_ir::ArrayId,
    /// Array name.
    pub name: String,
    /// Array shape.
    pub dims: Vec<i64>,
    /// Element size in bytes.
    pub elem_bytes: i64,
    /// Buffer attribute.
    pub attr: BufferAttr,
    /// Per array dimension, the contributions of every access.
    pub contribs: Vec<Vec<DimContrib>>,
    /// Component levels whose tile index influences this array's canonical
    /// range (per level: true if some contribution has a non-zero
    /// coefficient there).
    pub affected_by: Vec<bool>,
    /// Per array dimension, the outer-loop terms shared by every access
    /// (ranges shift rigidly with outer iterations).
    pub outer_terms: Vec<Vec<OuterTerm>>,
    /// `false` if accesses disagree on outer-loop coefficients, in which case
    /// canonical ranges are only valid for the scheduler's pinned outer
    /// values and the machine simulator must reject the program.
    pub outer_uniform: bool,
    /// `Some(op)` when the array is a reduction accumulator that each thread
    /// group updates privately; partials are merged with `op` in an explicit
    /// combine phase. Set by [`Component::privatize_reductions`].
    pub privatized: Option<ReduceOp>,
}

impl ArrayUse {
    /// Canonical data element range (§5.3.1) of the array when component
    /// counters range over `level_ranges`: the rectangular hull across all
    /// accesses.
    pub fn canonical_range(&self, level_ranges: &[Interval]) -> Vec<Interval> {
        let mut out = Vec::with_capacity(self.contribs.len());
        self.canonical_range_into(level_ranges, &mut out);
        out
    }

    /// [`ArrayUse::canonical_range`] into a reused buffer, as the reference
    /// analysis build computes each tile's range.
    pub fn canonical_range_into(&self, level_ranges: &[Interval], out: &mut Vec<Interval>) {
        out.clear();
        out.extend(self.canonical_dims(level_ranges));
    }

    /// [`ArrayUse::canonical_range`] dimension by dimension, in no buffer.
    pub(crate) fn canonical_dims<'s>(
        &'s self,
        level_ranges: &'s [Interval],
    ) -> impl Iterator<Item = Interval> + 's {
        self.contribs.iter().map(|dim| {
            dim.iter().fold(Interval::empty(), |hull, c| {
                hull.hull(&c.bounds(level_ranges))
            })
        })
    }
}

/// Per-statement work summary used by analytic execution-cost providers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StmtWork {
    /// Statement id.
    pub stmt: usize,
    /// Worst-case instances of the statement per single iteration of the
    /// innermost component level (product of folded deeper loop spans).
    pub instances_per_iter: u64,
    /// Arithmetic operations per instance.
    pub ops_per_instance: u64,
}

/// A tilable component: the unit the optimizer schedules (§3.4).
#[derive(Debug, Clone)]
pub struct Component {
    /// Kernel name (for diagnostics).
    pub kernel: String,
    /// Tiled levels, outermost first.
    pub levels: Vec<CompLevel>,
    /// Ids of all statements inside the component (including folded loops).
    pub stmts: Vec<usize>,
    /// Execution count `I` of the component (the first level's `l.I`).
    pub exec_count: u64,
    /// Arrays accessed, with canonical-range machinery.
    pub arrays: Vec<ArrayUse>,
    /// Active intra-component dependences, with `shared`-position of each
    /// component level precomputed.
    pub deps: Vec<ComponentDep>,
    /// Work summaries for cost providers.
    pub work: Vec<StmtWork>,
    /// Loop iterations executed by folded (sub-leaf) loops per single
    /// iteration of the innermost component level — their control overhead
    /// belongs to `W`.
    pub folded_iters_per_iter: u64,
}

/// A dependence restricted to a component: the distance interval per
/// component level.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentDep {
    /// Array involved.
    pub array: prem_ir::ArrayId,
    /// Dependence kind.
    pub kind: DepKind,
    /// Distance interval per component level (outermost first); `[0,0]` when
    /// the level is beyond the dependence's shared prefix.
    pub dist: Vec<Interval>,
    /// Reduction marker inherited from the underlying [`Dependence`]: the
    /// dependence only chains associative-commutative updates of the same
    /// accumulator and may be ignored once that accumulator is privatized.
    pub reduction: Option<ReduceOp>,
}

impl ComponentDep {
    /// The outermost component level with a (possibly) non-zero distance, or
    /// `None` when the dependence stays within a single innermost iteration.
    pub fn carry_level(&self) -> Option<usize> {
        self.dist.iter().position(|d| !d.is_zero())
    }
}

/// Canonical content key of a [`Component`] ([`Component::fingerprint`]):
/// the full encoding, compared with `==` — not a digest, so no hash collision
/// can ever equate two different components.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ComponentFingerprint(Vec<i64>);

impl Component {
    /// Extracts a component from a perfect chain of loop-tree nodes
    /// (outermost first). The chain must be non-empty; everything below the
    /// last node is folded into the leaf.
    ///
    /// # Panics
    ///
    /// Panics if `chain` is empty.
    pub fn extract(tree: &LoopTree, program: &Program, chain: &[&LoopTreeNode]) -> Component {
        Component::extract_with(tree, program, chain, &collect_statements(program))
    }

    /// [`Component::extract`] with the program's statements (indexed by id,
    /// see [`collect_statements`]) supplied by the caller, so a walk that
    /// extracts many components of one program collects them once.
    pub(crate) fn extract_with(
        tree: &LoopTree,
        program: &Program,
        chain: &[&LoopTreeNode],
        statements: &[&Statement],
    ) -> Component {
        let Some(&leaf) = chain.last() else {
            panic!("component chain must be non-empty");
        };
        let levels: Vec<CompLevel> = chain
            .iter()
            .map(|n| CompLevel {
                loop_id: n.loop_id,
                name: n.name.clone(),
                count: n.count,
                begin: n.begin,
                stride: n.stride,
                parallel: n.parallel,
                tilable: n.tilable,
                reduction_parallel: n.reduction_parallel,
            })
            .collect();
        let stmts = leaf.subtree_stmts();
        let exec_count = chain[0].exec_count;

        // Active dependences restricted to component levels.
        let active = tree.active_deps(chain[0].loop_id, &stmts);
        let deps: Vec<ComponentDep> = active
            .iter()
            .map(|d| ComponentDep {
                array: d.array,
                kind: d.kind,
                reduction: d.reduction,
                dist: levels
                    .iter()
                    .map(|lv| {
                        d.level_of(lv.loop_id)
                            .map(|p| d.dist_at(p))
                            .unwrap_or(Interval::zero())
                    })
                    .collect(),
            })
            .collect();

        let arrays = build_array_uses(tree, program, &stmts, &levels, statements, &active);
        let work = build_work(tree, &stmts, leaf.loop_id, statements);
        let mut folded = 0u64;
        fn count_folded(nodes: &[LoopTreeNode], mult: u64, acc: &mut u64) {
            for n in nodes {
                let per_parent = mult.saturating_mul(n.count as u64);
                *acc = acc.saturating_add(per_parent);
                count_folded(&n.children, per_parent, acc);
            }
        }
        count_folded(&leaf.children, 1, &mut folded);

        Component {
            kernel: program.name.clone(),
            levels,
            stmts,
            exec_count,
            arrays,
            deps,
            work,
            folded_iters_per_iter: folded,
        }
    }

    /// Number of levels `L`.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Privatizes reduction accumulators: every `reduction_parallel` level
    /// becomes `parallel`, and the arrays whose reduction-marked dependences
    /// carried at those levels are marked [`ArrayUse::privatized`] with their
    /// combine operator. Returns `true` if anything was privatized.
    ///
    /// Legality rests on the loop-tree analysis: `reduction_parallel` is set
    /// only when *every* dependence blocking the level is reduction-marked.
    /// Callers must then pay for the transformation — per-group private
    /// accumulator copies (SPM space) and an explicit combine phase that
    /// merges the partials with the operator (see `ComponentAnalysis`).
    pub fn privatize_reductions(&mut self) -> bool {
        let red: Vec<usize> = (0..self.levels.len())
            .filter(|&j| self.levels[j].reduction_parallel && !self.levels[j].parallel)
            .collect();
        if red.is_empty() {
            return false;
        }
        let mut ops: BTreeMap<prem_ir::ArrayId, ReduceOp> = BTreeMap::new();
        for d in &self.deps {
            let Some(op) = d.reduction else { continue };
            let Some(c) = d.carry_level() else { continue };
            if !red.contains(&c) {
                continue;
            }
            if let Some(prev) = ops.insert(d.array, op) {
                if prev != op {
                    // Conflicting combine operators on one accumulator: the
                    // partials cannot be merged with a single op — refuse.
                    return false;
                }
            }
        }
        if ops.is_empty() {
            return false;
        }
        for j in red {
            self.levels[j].parallel = true;
        }
        for a in &mut self.arrays {
            if let Some(&op) = ops.get(&a.array) {
                a.privatized = Some(op);
            }
        }
        true
    }

    /// The component's content, canonically encoded: everything the makespan
    /// evaluator and the schedule oracle read, in the order they iterate it,
    /// with names and program-wide ids (kernel, loop, array, statement)
    /// stripped — outer-term loop ids are renumbered in first-use order and a
    /// dependence names its array by position in `arrays`. Order is kept, not
    /// sorted: float sums run in `arrays` order, so components whose arrays
    /// are permuted are deliberately *not* equal. Two components with equal
    /// fingerprints get the same `(R, K)` and the same makespan bits from
    /// the search under one platform, execution model and option set.
    ///
    /// Code generation is the third reader: `prem_codegen::emit_prem_c`
    /// builds one retained [`crate::ComponentAnalysis`] per `(fingerprint,
    /// solution)` and writes every component with that key from it, so a
    /// field the analysis reads must be encoded here too (DESIGN.md, "One
    /// analysis per distinct component in an emission").
    pub fn fingerprint(&self) -> ComponentFingerprint {
        fn interval(v: &mut Vec<i64>, i: &Interval) {
            v.extend([i.lo, i.hi]);
        }
        let mut v = Vec::with_capacity(64 + 48 * self.arrays.len());
        v.push(self.levels.len() as i64);
        for l in &self.levels {
            v.extend([l.count, l.begin, l.stride]);
            v.extend([l.parallel, l.tilable, l.reduction_parallel].map(i64::from));
        }
        v.extend([
            self.stmts.len() as i64,
            self.exec_count as i64,
            self.folded_iters_per_iter as i64,
        ]);
        let mut outer_loops: Vec<usize> = Vec::new();
        v.push(self.arrays.len() as i64);
        for a in &self.arrays {
            v.push(a.dims.len() as i64);
            v.extend(&a.dims);
            v.extend([
                a.elem_bytes,
                a.attr as i64,
                i64::from(a.outer_uniform),
                a.privatized.map_or(0, |op| 1 + op as i64),
            ]);
            v.push(a.affected_by.len() as i64);
            v.extend(a.affected_by.iter().map(|&b| i64::from(b)));
            v.push(a.contribs.len() as i64);
            for dim in &a.contribs {
                v.push(dim.len() as i64);
                for c in dim {
                    v.push(c.comp_coeffs.len() as i64);
                    v.extend(&c.comp_coeffs);
                    v.push(c.level_bounds.len() as i64);
                    c.level_bounds.iter().for_each(|b| interval(&mut v, b));
                    interval(&mut v, &c.base);
                }
            }
            v.push(a.outer_terms.len() as i64);
            for dim in &a.outer_terms {
                v.push(dim.len() as i64);
                for t in dim {
                    let id = outer_loops
                        .iter()
                        .position(|&l| l == t.loop_id)
                        .unwrap_or_else(|| {
                            outer_loops.push(t.loop_id);
                            outer_loops.len() - 1
                        });
                    v.extend([id as i64, t.coeff, t.lo]);
                }
            }
        }
        v.push(self.deps.len() as i64);
        for d in &self.deps {
            let array = self.arrays.iter().position(|a| a.array == d.array);
            v.extend([
                array.map_or(-1, |i| i as i64),
                d.kind as i64,
                d.reduction.map_or(0, |op| 1 + op as i64),
                d.dist.len() as i64,
            ]);
            d.dist.iter().for_each(|i| interval(&mut v, i));
        }
        v.push(self.work.len() as i64);
        for w in &self.work {
            v.extend([w.instances_per_iter as i64, w.ops_per_instance as i64]);
        }
        ComponentFingerprint(v)
    }

    /// Worst-case arithmetic work per innermost component iteration.
    pub fn ops_per_innermost_iter(&self) -> u64 {
        self.work
            .iter()
            .map(|w| w.instances_per_iter * w.ops_per_instance.max(1))
            .sum()
    }
}

/// Collects statement references indexed by id.
///
/// Invariant: the ids are `0..stmt_count`, each once. Lowering — and so
/// [`LoopTree::build`], which every caller ran on `program` first — fails
/// on a program that breaks it, and `ProgramBuilder` numbers statements in
/// the order the walk meets them, so the sort below is a linear pass.
pub(crate) fn collect_statements(program: &Program) -> Vec<&Statement> {
    let mut v = Vec::with_capacity(program.stmt_count);
    program.visit_statements(|s, _, _| v.push(s));
    v.sort_by_key(|s| s.id);
    debug_assert!(v.iter().enumerate().all(|(i, s)| s.id == i));
    v
}

/// Where loop `loop_id` sits in the enclosing-loop list of `poly`.
///
/// Invariant: called only for a level of a component and one of its
/// statements. The chain is a path of the loop tree and the statements are
/// its leaf's subtree, so every level encloses every statement, and the
/// tree's `StmtPoly` lists each statement's enclosing loops.
fn level_position(poly: &StmtPoly, loop_id: usize) -> usize {
    match poly.loops.iter().position(|l| l.var == loop_id) {
        Some(p) => p,
        None => unreachable!("every level of a component encloses each of its statements"),
    }
}

fn build_work(
    tree: &LoopTree,
    stmts: &[usize],
    innermost: usize,
    statements: &[&Statement],
) -> Vec<StmtWork> {
    stmts
        .iter()
        .map(|&sid| {
            let poly = &tree.stmts[sid];
            let inner_pos = level_position(poly, innermost);
            let bounds = poly.tightened_bounds();
            let mut inst = 1u64;
            for b in &bounds[inner_pos + 1..] {
                inst = inst.saturating_mul(b.len());
            }
            StmtWork {
                stmt: sid,
                instances_per_iter: inst,
                ops_per_instance: statements[sid].op_count(),
            }
        })
        .collect()
}

fn build_array_uses(
    tree: &LoopTree,
    program: &Program,
    stmts: &[usize],
    levels: &[CompLevel],
    statements: &[&Statement],
    active: &[&Dependence],
) -> Vec<ArrayUse> {
    #[derive(Default)]
    struct Acc {
        contribs: Vec<Vec<DimContrib>>,
        read: bool,
        written: bool,
        read_hull: Vec<Interval>,
        write_hulls: Vec<(usize, Vec<Interval>)>, // (stmt id, hull)
        outer_terms: Vec<Vec<OuterTerm>>,
        outer_uniform: bool,
        outer_seen: bool,
    }
    let mut per_array: BTreeMap<usize, Acc> = BTreeMap::new();

    for &sid in stmts {
        let poly = &tree.stmts[sid];
        let bounds = poly.tightened_bounds();
        // Position of each component level within this statement's loop list.
        let level_pos: Vec<usize> = levels
            .iter()
            .map(|lv| level_position(poly, lv.loop_id))
            .collect();
        let comp_start_pos = level_pos[0];

        for acc in &poly.accesses {
            let entry = per_array.entry(acc.array).or_default();
            let ndims = acc.indices.len();
            if entry.contribs.is_empty() {
                entry.contribs = vec![Vec::new(); ndims];
                entry.read_hull = vec![Interval::empty(); ndims];
                entry.outer_terms = vec![Vec::new(); ndims];
                entry.outer_uniform = true;
            }
            let level_bounds: Vec<Interval> = level_pos.iter().map(|&lp| bounds[lp]).collect();
            let mut full_hull = Vec::with_capacity(ndims);
            for (d, idx) in acc.indices.iter().enumerate() {
                let mut comp_coeffs = vec![0i64; levels.len()];
                let mut base = Interval::point(idx.constant_term());
                let mut full = base;
                let mut outer = Vec::new();
                for (pos, b) in bounds.iter().enumerate() {
                    let c = idx.coeff(pos);
                    if c == 0 {
                        continue;
                    }
                    if let Some(j) = level_pos.iter().position(|&lp| lp == pos) {
                        comp_coeffs[j] = c;
                        full = full + b.scale(c);
                        continue;
                    }
                    if pos < comp_start_pos {
                        // Fixed outer counter: representative value (shapes
                        // are identical across outer iterations as long as
                        // every access agrees on the coefficient).
                        base = base.shift(c * b.lo);
                        full = full.shift(c * b.lo);
                        outer.push(OuterTerm {
                            loop_id: poly.loops[pos].var,
                            coeff: c,
                            lo: b.lo,
                        });
                    } else {
                        // Deeper (folded / private) counter: full range.
                        base = base + b.scale(c);
                        full = full + b.scale(c);
                    }
                }
                if entry.outer_seen {
                    if entry.outer_terms[d] != outer {
                        entry.outer_uniform = false;
                    }
                } else {
                    entry.outer_terms[d] = outer;
                }
                entry.contribs[d].push(DimContrib {
                    comp_coeffs,
                    level_bounds: level_bounds.clone(),
                    base,
                });
                full_hull.push(full);
            }
            entry.outer_seen = true;
            if acc.is_write {
                entry.written = true;
                entry.write_hulls.push((sid, full_hull));
            } else {
                entry.read = true;
                for (h, f) in entry.read_hull.iter_mut().zip(&full_hull) {
                    *h = h.hull(f);
                }
            }
        }
    }

    per_array
        .into_iter()
        .map(|(array, acc)| {
            let decl = program.array(array);
            let attr = classify(
                array,
                &acc.read_hull,
                &acc.write_hulls,
                acc.read,
                acc.written,
                statements,
                active,
            );
            let affected_by = (0..levels.len())
                .map(|j| {
                    acc.contribs
                        .iter()
                        .any(|dim| dim.iter().any(|c| c.comp_coeffs[j] != 0))
                })
                .collect();
            ArrayUse {
                array,
                name: decl.name.clone(),
                dims: decl.dims.clone(),
                elem_bytes: decl.elem.size_bytes(),
                attr,
                contribs: acc.contribs,
                affected_by,
                outer_terms: acc.outer_terms,
                outer_uniform: acc.outer_uniform,
                privatized: None,
            }
        })
        .collect()
}

/// Buffer attribute classification (§5.3.2): RO if never written; WO if never
/// read, or if a covering first-write exists (an `=` statement whose write
/// hull covers every read and that no read precedes); RW otherwise.
fn classify(
    array: usize,
    read_hull: &[Interval],
    write_hulls: &[(usize, Vec<Interval>)],
    read: bool,
    written: bool,
    statements: &[&Statement],
    active: &[&Dependence],
) -> BufferAttr {
    if !written {
        return BufferAttr::Ro;
    }
    if !read {
        return BufferAttr::Wo;
    }
    // Look for a covering Assign statement W.
    for (sid, hull) in write_hulls {
        let stmt = statements[*sid];
        if stmt.kind != AssignKind::Assign || stmt.target.array != array {
            continue;
        }
        // W must not read the array itself.
        if stmt.rhs.loads().iter().any(|a| a.array == array) {
            continue;
        }
        // Coverage: W's write hull contains the hull of all reads.
        let covers = read_hull
            .iter()
            .zip(hull)
            .all(|(r, w)| r.is_empty() || (w.lo <= r.lo && r.hi <= w.hi));
        if !covers {
            continue;
        }
        // No read of the array may precede W's write of the same element:
        // no active anti dependence on this array into W.
        let preceded = active
            .iter()
            .any(|d| d.array == array && d.kind == DepKind::Anti && d.dst == *sid);
        if !preceded {
            return BufferAttr::Wo;
        }
    }
    BufferAttr::Rw
}

#[cfg(test)]
mod tests {
    use super::*;
    use prem_ir::{CmpOp, Cond, ElemType, Expr, IdxExpr, ProgramBuilder};

    /// LSTM-like component kernel:
    /// for t { for s1 { for p { if(p==0) i[s1]=0; i[s1]+=U[s1][p]*inp[t][p] } } }
    fn lstm_component_kernel(nt: i64, ns: i64, np: i64) -> (Program, LoopTree) {
        let mut b = ProgramBuilder::new("lstmish");
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

    fn extract_s1_p(program: &Program, tree: &LoopTree) -> Component {
        let t = &tree.roots[0];
        let s1 = &t.children[0];
        let p = &s1.children[0];
        Component::extract(tree, program, &[s1, p])
    }

    #[test]
    fn component_structure() {
        let (program, tree) = lstm_component_kernel(10, 650, 700);
        let comp = extract_s1_p(&program, &tree);
        assert_eq!(comp.depth(), 2);
        assert_eq!(comp.levels[0].name, "s1");
        assert!(comp.levels[0].parallel);
        assert!(!comp.levels[1].parallel);
        // p is blocked by init↔update dependences (the `p == 0` init re-runs
        // at every t, so it is not a pinned init): not reduction-parallel.
        assert!(!comp.levels[1].reduction_parallel);
        assert!(!comp.clone().privatize_reductions());
        assert_eq!(comp.exec_count, 10);
        assert_eq!(comp.stmts, vec![0, 1]);
    }

    /// Row-sum kernel with a pinned init:
    /// for i { for j { if(j==0) acc[i]=0; acc[i] += x[i][j] } }
    #[test]
    fn privatize_reductions_flips_reduction_levels() {
        let mut b = ProgramBuilder::new("rowsum");
        let acc = b.array("acc", vec![64], ElemType::F32);
        let x = b.array("x", vec![64, 128], ElemType::F32);
        let i = b.begin_loop("i", 0, 1, 64);
        let j = b.begin_loop("j", 0, 1, 128);
        b.begin_if(Cond::atom(IdxExpr::var(j), CmpOp::Eq));
        b.stmt(
            acc,
            vec![IdxExpr::var(i)],
            AssignKind::Assign,
            Expr::Const(0.0),
        );
        b.end_if();
        b.stmt(
            acc,
            vec![IdxExpr::var(i)],
            AssignKind::AddAssign,
            Expr::load(x, vec![IdxExpr::var(i), IdxExpr::var(j)]),
        );
        b.end_loop();
        b.end_loop();
        let program = b.finish();
        let tree = LoopTree::build(&program).unwrap();
        let i_node = &tree.roots[0];
        let j_node = &i_node.children[0];
        let mut comp = Component::extract(&tree, &program, &[i_node, j_node]);

        assert!(comp.levels[0].parallel);
        assert!(!comp.levels[1].parallel);
        assert!(comp.levels[1].reduction_parallel);
        assert!(comp.deps.iter().any(|d| d.reduction == Some(ReduceOp::Add)));

        assert!(comp.privatize_reductions());
        assert!(comp.levels[1].parallel);
        let a = comp.arrays.iter().find(|a| a.name == "acc").unwrap();
        assert_eq!(a.privatized, Some(ReduceOp::Add));
        let xs = comp.arrays.iter().find(|a| a.name == "x").unwrap();
        assert_eq!(xs.privatized, None);
    }

    #[test]
    fn buffer_attributes_match_paper() {
        let (program, tree) = lstm_component_kernel(10, 650, 700);
        let comp = extract_s1_p(&program, &tree);
        let by_name = |n: &str| comp.arrays.iter().find(|a| a.name == n).unwrap();
        // i is written first (p == 0) then accumulated: WO per §3.5.
        assert_eq!(by_name("i").attr, BufferAttr::Wo);
        assert_eq!(by_name("U").attr, BufferAttr::Ro);
        assert_eq!(by_name("inp").attr, BufferAttr::Ro);
    }

    #[test]
    fn canonical_ranges_match_listing_3_2() {
        let (program, tree) = lstm_component_kernel(10, 650, 700);
        let comp = extract_s1_p(&program, &tree);
        // Tile s1 ∈ [0,108], p ∈ [0,349] — the seg_{0,1} of Table 3.1.
        let ranges = [Interval::new(0, 108), Interval::new(0, 349)];
        let u = comp.arrays.iter().find(|a| a.name == "U").unwrap();
        assert_eq!(
            u.canonical_range(&ranges),
            vec![Interval::new(0, 108), Interval::new(0, 349)]
        );
        let i = comp.arrays.iter().find(|a| a.name == "i").unwrap();
        assert_eq!(i.canonical_range(&ranges), vec![Interval::new(0, 108)]);
        // inp's first dim is the fixed outer t: extent 1.
        let inp = comp.arrays.iter().find(|a| a.name == "inp").unwrap();
        let r = inp.canonical_range(&ranges);
        assert_eq!(r[0].len(), 1);
        assert_eq!(r[1], Interval::new(0, 349));
    }

    #[test]
    fn affected_by_levels() {
        let (program, tree) = lstm_component_kernel(10, 650, 700);
        let comp = extract_s1_p(&program, &tree);
        let u = comp.arrays.iter().find(|a| a.name == "U").unwrap();
        assert_eq!(u.affected_by, vec![true, true]);
        let i = comp.arrays.iter().find(|a| a.name == "i").unwrap();
        assert_eq!(i.affected_by, vec![true, false]);
        let inp = comp.arrays.iter().find(|a| a.name == "inp").unwrap();
        assert_eq!(inp.affected_by, vec![false, true]);
    }

    #[test]
    fn component_deps_carry_at_p() {
        let (program, tree) = lstm_component_kernel(10, 650, 700);
        let comp = extract_s1_p(&program, &tree);
        assert!(!comp.deps.is_empty());
        for d in &comp.deps {
            assert!(d.dist[0].is_zero(), "all deps keep s1 fixed: {d:?}");
        }
        assert!(comp
            .deps
            .iter()
            .any(|d| d.carry_level() == Some(1) && d.dist[1].lo >= 1));
    }

    #[test]
    fn work_summary() {
        let (program, tree) = lstm_component_kernel(10, 650, 700);
        let comp = extract_s1_p(&program, &tree);
        // Both statements are at the innermost level: one instance per iter.
        for w in &comp.work {
            assert_eq!(w.instances_per_iter, 1);
        }
        // Stmt 1 has mul + implicit add = 2 ops.
        assert_eq!(comp.work[1].ops_per_instance, 2);
    }

    /// `y[i][j] = x[..] * 2` over a 64×64 nest, every name prefixed with
    /// `tag`; `pad` prepends an unrelated array and nest so that every loop,
    /// array and statement id shifts. `transposed` is kernel B of the
    /// id-keyed cache collision (`x[64][256]`, `x[j][3 * i]`), else kernel A
    /// (`x[64][64]`, `x[i][j]`): same extents, flags and op mix.
    fn scale_kernel(tag: &str, pad: bool, transposed: bool) -> Component {
        let mut b = ProgramBuilder::new(format!("{tag}scale"));
        if pad {
            let z = b.array(format!("{tag}z"), vec![8], ElemType::F64);
            let q = b.begin_loop(format!("{tag}q"), 0, 1, 8);
            b.stmt(
                z,
                vec![IdxExpr::var(q)],
                AssignKind::Assign,
                Expr::Const(1.0),
            );
            b.end_loop();
        }
        let x_cols = if transposed { 256 } else { 64 };
        let x = b.array(format!("{tag}x"), vec![64, x_cols], ElemType::F32);
        let y = b.array(format!("{tag}y"), vec![64, 64], ElemType::F32);
        let i = b.begin_loop(format!("{tag}i"), 0, 1, 64);
        let j = b.begin_loop(format!("{tag}j"), 0, 1, 64);
        let read = if transposed {
            vec![IdxExpr::var(j), IdxExpr::var(i).scale(3)]
        } else {
            vec![IdxExpr::var(i), IdxExpr::var(j)]
        };
        b.stmt(
            y,
            vec![IdxExpr::var(i), IdxExpr::var(j)],
            AssignKind::Assign,
            Expr::mul(Expr::load(x, read), Expr::Const(2.0)),
        );
        b.end_loop();
        b.end_loop();
        let program = b.finish();
        let tree = LoopTree::build(&program).unwrap();
        let i_node = tree.roots.last().unwrap();
        Component::extract(&tree, &program, &[i_node, &i_node.children[0]])
    }

    #[test]
    fn fingerprint_ignores_names_and_program_wide_ids() {
        let base = scale_kernel("", false, false);
        assert_eq!(base.fingerprint(), base.clone().fingerprint());
        let renamed = scale_kernel("other_", false, false);
        assert_ne!(renamed.kernel, base.kernel);
        assert_ne!(renamed.levels[0].name, base.levels[0].name);
        assert_eq!(renamed.fingerprint(), base.fingerprint());
        let shifted = scale_kernel("", true, false);
        assert_ne!(shifted.levels[0].loop_id, base.levels[0].loop_id);
        assert_ne!(shifted.arrays[0].array, base.arrays[0].array);
        assert_ne!(shifted.stmts, base.stmts);
        assert_eq!(shifted.fingerprint(), base.fingerprint());
        // Kernel B has kernel A's loop ids, extents, flags and op mix — the
        // key of the deleted id-keyed cache — but not its content.
        let b = scale_kernel("", false, true);
        assert_eq!(b.levels, base.levels);
        assert_ne!(b.fingerprint(), base.fingerprint());
    }

    /// Outer-term loop ids and dependence array ids are renumbered, so the
    /// repeated layers of a chained network under one outer loop are equal.
    #[test]
    fn fingerprint_is_equal_across_repeated_layers() {
        let mut b = ProgramBuilder::new("chain");
        let layers = 4;
        let acts: Vec<_> = (0..=layers)
            .map(|l| b.array(format!("a{l}"), vec![6, 16, 24], ElemType::F32))
            .collect();
        let sums: Vec<_> = (0..=layers)
            .map(|l| b.array(format!("m{l}"), vec![6, 16], ElemType::F32))
            .collect();
        let t = b.begin_loop("t", 0, 1, 6);
        for l in 1..=layers {
            // m_l[t][i] = Σ_j a_{l-1}[t][i][j];  a_l[t][i][j] = a_{l-1} - m_l.
            let i = b.begin_loop(format!("i{l}"), 0, 1, 16);
            let j = b.begin_loop(format!("j{l}"), 0, 1, 24);
            let at = |a, j: usize| {
                Expr::load(a, vec![IdxExpr::var(t), IdxExpr::var(i), IdxExpr::var(j)])
            };
            let row = vec![IdxExpr::var(t), IdxExpr::var(i)];
            b.begin_if(Cond::atom(IdxExpr::var(j), CmpOp::Eq));
            b.stmt(sums[l], row.clone(), AssignKind::Assign, Expr::Const(0.0));
            b.end_if();
            b.stmt(
                sums[l],
                row.clone(),
                AssignKind::AddAssign,
                at(acts[l - 1], j),
            );
            b.end_loop();
            let j = b.begin_loop(format!("c{l}"), 0, 1, 24);
            b.stmt(
                acts[l],
                vec![IdxExpr::var(t), IdxExpr::var(i), IdxExpr::var(j)],
                AssignKind::Assign,
                Expr::add(at(acts[l - 1], j), Expr::load(sums[l], row)),
            );
            b.end_loop();
            b.end_loop();
        }
        b.end_loop();
        let program = b.finish();
        let tree = LoopTree::build(&program).unwrap();
        let prints: Vec<[ComponentFingerprint; 2]> = tree.roots[0]
            .children
            .iter()
            .map(|i| {
                let mut sum = Component::extract(&tree, &program, &[i, &i.children[0]]);
                assert!(!sum.deps.is_empty() && !sum.arrays[0].outer_terms[0].is_empty());
                let whole = Component::extract(&tree, &program, &[i]);
                let plain = sum.fingerprint();
                // The fingerprint is taken after privatization and sees it.
                assert!(sum.privatize_reductions());
                assert_ne!(sum.fingerprint(), plain);
                [plain, whole.fingerprint()]
            })
            .collect();
        assert_eq!(prints.len(), layers);
        assert_ne!(prints[0][0], prints[0][1]);
        for p in &prints[1..] {
            assert_eq!(*p, prints[0]);
        }
    }

    /// One change of one ingredient the evaluator or the oracle reads changes
    /// the fingerprint; a change of a name or of a program-wide id does not.
    #[test]
    fn fingerprint_separates_every_ingredient() {
        let (program, tree) = lstm_component_kernel(10, 650, 700);
        let base = extract_s1_p(&program, &tree);
        // `inp[t][p]` carries the outer `t` term.
        assert!(!base.arrays[2].outer_terms[0].is_empty());
        type Change = fn(&mut Component);
        let changed: &[(&str, Change)] = &[
            ("level count", |c| c.levels[1].count += 1),
            ("level begin", |c| c.levels[0].begin += 1),
            ("level stride", |c| c.levels[0].stride += 1),
            ("parallel", |c| c.levels[1].parallel ^= true),
            ("tilable", |c| c.levels[1].tilable ^= true),
            ("reduction_parallel", |c| {
                c.levels[1].reduction_parallel ^= true
            }),
            ("statement count", |c| c.stmts.push(9)),
            ("exec_count", |c| c.exec_count += 1),
            ("folded iterations", |c| c.folded_iters_per_iter += 1),
            ("array dim", |c| c.arrays[1].dims[1] += 1),
            ("element size", |c| c.arrays[1].elem_bytes = 8),
            ("attribute", |c| c.arrays[1].attr = BufferAttr::Rw),
            ("outer_uniform", |c| c.arrays[1].outer_uniform ^= true),
            ("privatized", |c| {
                c.arrays[0].privatized = Some(ReduceOp::Add)
            }),
            ("affected_by", |c| c.arrays[0].affected_by[1] ^= true),
            ("access coefficient", |c| {
                c.arrays[1].contribs[1][0].comp_coeffs[1] = 3
            }),
            ("guard bound", |c| {
                c.arrays[0].contribs[0][0].level_bounds[1].hi += 1
            }),
            ("access base", |c| c.arrays[1].contribs[0][0].base.lo -= 1),
            ("outer coefficient", |c| {
                c.arrays[2].outer_terms[0][0].coeff += 1
            }),
            ("outer pin", |c| c.arrays[2].outer_terms[0][0].lo += 1),
            ("dependence distance", |c| c.deps[0].dist[1].hi += 1),
            ("dependence kind", |c| {
                c.deps[0].kind = match c.deps[0].kind {
                    DepKind::Flow => DepKind::Anti,
                    _ => DepKind::Flow,
                }
            }),
            ("dependence array", |c| c.deps[0].array = c.arrays[1].array),
            ("work", |c| c.work[1].ops_per_instance += 1),
        ];
        for (what, change) in changed {
            let mut c = base.clone();
            change(&mut c);
            assert_ne!(c.fingerprint(), base.fingerprint(), "{what}");
        }
        let mut c = base.clone();
        c.kernel.push('x');
        c.levels[0].name.push('x');
        c.levels[0].loop_id += 40;
        c.arrays[2].outer_terms[0][0].loop_id += 40;
        c.arrays[1].name.push('x');
        c.stmts[0] += 40;
        c.work[0].stmt += 40;
        for a in &mut c.arrays {
            a.array += 40;
        }
        for d in &mut c.deps {
            d.array += 40;
        }
        assert_eq!(c.fingerprint(), base.fingerprint());
    }
}
