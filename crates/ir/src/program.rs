//! Loop-nest programs: the IR the PREM compiler analyzes and transforms.

use crate::expr::{Access, BinOp, Cond, Env, Expr, IdxExpr};
use crate::types::{ArrayDecl, ArrayId, ElemType};
use prem_polyhedral::ReduceOp;
use std::fmt;

/// Assignment kind of a statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssignKind {
    /// `target = rhs`
    Assign,
    /// `target += rhs`
    AddAssign,
}

/// A single assignment statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Statement {
    /// Statement identifier, unique within the program.
    pub id: usize,
    /// Store target.
    pub target: Access,
    /// Assignment kind.
    pub kind: AssignKind,
    /// Right-hand side.
    pub rhs: Expr,
}

impl Statement {
    /// Executes the statement once under the given loop environment and data
    /// store.
    pub fn execute<S: crate::interp::DataStore>(&self, env: &Env, store: &mut S) {
        let value = crate::interp::eval_expr(&self.rhs, env, store);
        let idx = self.target.eval_indices(env);
        match self.kind {
            AssignKind::Assign => store.store(self.target.array, &idx, value),
            AssignKind::AddAssign => {
                let old = store.load(self.target.array, &idx);
                store.store(self.target.array, &idx, old + value);
            }
        }
    }

    /// All accesses of the statement: the target write plus — for `+=` —
    /// the implicit read of the target, plus every load of the RHS.
    pub fn accesses(&self) -> Vec<(Access, bool)> {
        let mut out = Vec::new();
        if self.kind == AssignKind::AddAssign {
            out.push((self.target.clone(), false));
        }
        for l in self.rhs.loads() {
            out.push((l.clone(), false));
        }
        out.push((self.target.clone(), true));
        out
    }

    /// Number of arithmetic operations performed per instance (including the
    /// implicit add of `+=`).
    pub fn op_count(&self) -> u64 {
        self.rhs.op_count() + u64::from(self.kind == AssignKind::AddAssign)
    }

    /// Recognizes the statement as an associative-commutative accumulator
    /// update and returns its operator.
    ///
    /// Two shapes qualify:
    ///
    /// * `a[..] += e` where `e` does not read array `a` (reading it — e.g.
    ///   `a[i] += a[i-1]` — is a recurrence, not a reorderable reduction);
    /// * the spelled-out `a[..] = op(a[..], e)` for `op ∈ {+, max, min}`,
    ///   where exactly one operand is a load of the *same element* being
    ///   written and the other does not read array `a`.
    pub fn reduction_op(&self) -> Option<ReduceOp> {
        let reads_target_array = |e: &Expr| e.loads().iter().any(|l| l.array == self.target.array);
        match self.kind {
            AssignKind::AddAssign => (!reads_target_array(&self.rhs)).then_some(ReduceOp::Add),
            AssignKind::Assign => {
                let Expr::Bin(op, l, r) = &self.rhs else {
                    return None;
                };
                let op = match op {
                    BinOp::Add => ReduceOp::Add,
                    BinOp::Max => ReduceOp::Max,
                    BinOp::Min => ReduceOp::Min,
                    BinOp::Sub | BinOp::Mul | BinOp::Div => return None,
                };
                let is_self_load = |e: &Expr| matches!(e, Expr::Load(a) if *a == self.target);
                match (is_self_load(l), is_self_load(r)) {
                    (true, false) if !reads_target_array(r) => Some(op),
                    (false, true) if !reads_target_array(l) => Some(op),
                    _ => None,
                }
            }
        }
    }

    /// True when the statement overwrites its target with a value loading
    /// nothing — the constant-initializer shape that may be folded into a
    /// reduction when its domain is pinned (see
    /// [`prem_polyhedral::analyze_dependences_with`]).
    pub fn is_const_init(&self) -> bool {
        self.kind == AssignKind::Assign && self.rhs.loads().is_empty()
    }
}

/// A syntactic loop: `for (v = begin; v < begin + stride*count; v += stride)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Loop {
    /// Globally unique loop identifier.
    pub id: usize,
    /// Source-level name.
    pub name: String,
    /// First index value.
    pub begin: i64,
    /// Constant stride (`>= 1`).
    pub stride: i64,
    /// Number of iterations `N`.
    pub count: i64,
    /// Loop body.
    pub body: Vec<Node>,
}

impl Loop {
    /// Last index value `begin + stride*(count-1)`.
    pub fn last(&self) -> i64 {
        self.begin + self.stride * (self.count - 1)
    }
}

/// A node of the program tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// A nested loop.
    Loop(Loop),
    /// A guarded block.
    If(IfNode),
    /// A statement.
    Stmt(Statement),
}

/// An affine `if` guard around a block.
#[derive(Debug, Clone, PartialEq)]
pub struct IfNode {
    /// Conjunction of affine atoms over enclosing loop variables.
    pub cond: Cond,
    /// Guarded body.
    pub body: Vec<Node>,
}

/// A complete loop-nest program (one SCoP in the paper's terminology).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Program name (kernel name).
    pub name: String,
    /// Declared arrays.
    pub arrays: Vec<ArrayDecl>,
    /// Top-level nodes.
    pub body: Vec<Node>,
    /// Number of loops (loop ids are `0..loop_count`).
    pub loop_count: usize,
    /// Number of statements (statement ids are `0..stmt_count`).
    pub stmt_count: usize,
}

impl Program {
    /// Looks up an array id by name.
    pub fn array_id(&self, name: &str) -> Option<ArrayId> {
        self.arrays.iter().position(|a| a.name == name)
    }

    /// Array declaration by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn array(&self, id: ArrayId) -> &ArrayDecl {
        &self.arrays[id]
    }

    /// Visits every statement with its enclosing loop chain and guards.
    pub fn visit_statements<'a, F>(&'a self, mut f: F)
    where
        F: FnMut(&'a Statement, &[&'a Loop], &[&'a Cond]),
    {
        fn walk<'a, F>(
            nodes: &'a [Node],
            loops: &mut Vec<&'a Loop>,
            conds: &mut Vec<&'a Cond>,
            f: &mut F,
        ) where
            F: FnMut(&'a Statement, &[&'a Loop], &[&'a Cond]),
        {
            for n in nodes {
                match n {
                    Node::Loop(l) => {
                        loops.push(l);
                        walk(&l.body, loops, conds, f);
                        loops.pop();
                    }
                    Node::If(i) => {
                        conds.push(&i.cond);
                        walk(&i.body, loops, conds, f);
                        conds.pop();
                    }
                    Node::Stmt(s) => f(s, loops, conds),
                }
            }
        }
        let mut loops = Vec::new();
        let mut conds = Vec::new();
        walk(&self.body, &mut loops, &mut conds, &mut f);
    }

    /// Every loop indexed by its id, in one walk of the tree (the first in
    /// textual order when two loops carry one id).
    pub fn loops_by_id(&self) -> LoopTable<'_> {
        fn walk<'a>(nodes: &'a [Node], table: &mut Vec<Option<&'a Loop>>) {
            for n in nodes {
                match n {
                    Node::Loop(l) => {
                        if table.len() <= l.id {
                            table.resize(l.id + 1, None);
                        }
                        table[l.id].get_or_insert(l);
                        walk(&l.body, table);
                    }
                    Node::If(i) => walk(&i.body, table),
                    Node::Stmt(_) => {}
                }
            }
        }
        let mut table = vec![None; self.loop_count];
        walk(&self.body, &mut table);
        LoopTable(table)
    }

    /// Total number of innermost statement instances, respecting guards.
    ///
    /// Guards restrict counts only when each atom involves a single loop
    /// variable (the class our kernels use); multi-variable guards are
    /// counted as always-true (an over-approximation).
    pub fn instance_count(&self) -> u64 {
        let mut total = 0u64;
        self.visit_statements(|_s, loops, conds| {
            let mut n = 1u64;
            for l in loops {
                n = n.saturating_mul(guarded_span(l, conds));
            }
            total += n;
        });
        total
    }
}

/// The loops of a program indexed by id ([`Program::loops_by_id`]).
#[derive(Debug, Clone)]
pub struct LoopTable<'a>(Vec<Option<&'a Loop>>);

impl<'a> LoopTable<'a> {
    /// The loop with id `id`, if the program has one.
    pub fn get(&self, id: usize) -> Option<&'a Loop> {
        self.0.get(id).copied().flatten()
    }

    /// The loop's source name, or `l<id>` when no loop carries `id`.
    pub fn name(&self, id: usize) -> LoopName<'a> {
        LoopName(id, self.get(id).map(|l| l.name.as_str()))
    }
}

/// Printable name of a loop id ([`LoopTable::name`]).
#[derive(Debug, Clone, Copy)]
pub struct LoopName<'a>(usize, Option<&'a str>);

impl fmt::Display for LoopName<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.1 {
            Some(name) => f.write_str(name),
            None => write!(f, "l{}", self.0),
        }
    }
}

/// Number of iterations of a loop after tightening its index range with the
/// single-variable atoms of the given guard conjunctions (multi-variable
/// atoms are ignored, an over-approximation).
pub fn guarded_span(l: &Loop, conds: &[&Cond]) -> u64 {
    let mut lo = l.begin;
    let mut hi = l.last();
    for c in conds {
        for atom in &c.atoms {
            let mut vars = atom.lhs.terms();
            let first = vars.next();
            if vars.next().is_some() {
                continue;
            }
            if let Some((v, coef)) = first {
                if v != l.id {
                    continue;
                }
                let k = atom.lhs.constant_term();
                // coef * x + k (op) 0
                use crate::expr::CmpOp::*;
                match (atom.op, coef > 0) {
                    (Eq, _) => {
                        if (-k) % coef == 0 {
                            lo = lo.max(-k / coef);
                            hi = hi.min(-k / coef);
                        } else {
                            hi = lo - 1;
                        }
                    }
                    (Gt, true) => lo = lo.max(div_floor_local(-k, coef) + 1),
                    (Ge, true) => lo = lo.max(div_ceil_local(-k, coef)),
                    (Lt, true) => hi = hi.min(div_ceil_local(-k, coef) - 1),
                    (Le, true) => hi = hi.min(div_floor_local(-k, coef)),
                    (Gt, false) => hi = hi.min(div_ceil_local(-k, coef) - 1),
                    (Ge, false) => hi = hi.min(div_floor_local(-k, coef)),
                    (Lt, false) => lo = lo.max(div_floor_local(-k, coef) + 1),
                    (Le, false) => lo = lo.max(div_ceil_local(-k, coef)),
                }
            }
        }
    }
    if hi < lo {
        0
    } else {
        ((hi - lo) / l.stride + 1) as u64
    }
}

fn div_floor_local(a: i64, b: i64) -> i64 {
    prem_polyhedral::div_floor(a, b)
}

fn div_ceil_local(a: i64, b: i64) -> i64 {
    prem_polyhedral::div_ceil(a, b)
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "// kernel {}", self.name)?;
        for a in &self.arrays {
            writeln!(f, "{a};")?;
        }
        fn pp(
            p: &Program,
            loops: &LoopTable,
            nodes: &[Node],
            indent: usize,
            f: &mut fmt::Formatter<'_>,
        ) -> fmt::Result {
            let pad = "  ".repeat(indent);
            for n in nodes {
                match n {
                    Node::Loop(l) => {
                        writeln!(
                            f,
                            "{pad}for ({name} = {b}; {name} <= {e}; {name} += {s}) {{",
                            name = l.name,
                            b = l.begin,
                            e = l.last(),
                            s = l.stride
                        )?;
                        pp(p, loops, &l.body, indent + 1, f)?;
                        writeln!(f, "{pad}}}")?;
                    }
                    Node::If(i) => {
                        write!(f, "{pad}if (")?;
                        for (k, a) in i.cond.atoms.iter().enumerate() {
                            if k > 0 {
                                write!(f, " && ")?;
                            }
                            let lhs = a.lhs.display_with(|id| loops.name(id));
                            write!(f, "{lhs} {} 0", a.op.c_symbol())?;
                        }
                        writeln!(f, ") {{")?;
                        pp(p, loops, &i.body, indent + 1, f)?;
                        writeln!(f, "{pad}}}")?;
                    }
                    Node::Stmt(s) => {
                        let arr = &p.arrays[s.target.array].name;
                        write!(f, "{pad}{arr}")?;
                        for e in &s.target.indices {
                            write!(f, "[{}]", e.display_with(|id| loops.name(id)))?;
                        }
                        let op = match s.kind {
                            AssignKind::Assign => "=",
                            AssignKind::AddAssign => "+=",
                        };
                        writeln!(f, " {op} <expr>; // S{}", s.id)?;
                    }
                }
            }
            Ok(())
        }
        pp(self, &self.loops_by_id(), &self.body, 0, f)
    }
}

/// Incremental builder for [`Program`] values.
///
/// # Examples
///
/// ```
/// use prem_ir::{AssignKind, ElemType, Expr, IdxExpr, ProgramBuilder};
///
/// let mut b = ProgramBuilder::new("axpy");
/// let x = b.array("x", vec![100], ElemType::F32);
/// let y = b.array("y", vec![100], ElemType::F32);
/// let i = b.begin_loop("i", 0, 1, 100);
/// b.stmt(
///     y,
///     vec![IdxExpr::var(i)],
///     AssignKind::AddAssign,
///     Expr::load(x, vec![IdxExpr::var(i)]),
/// );
/// b.end_loop();
/// let prog = b.finish();
/// assert_eq!(prog.loop_count, 1);
/// assert_eq!(prog.instance_count(), 100);
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    program: Program,
    /// Stack of open scopes; each holds the nodes accumulated so far plus the
    /// frame that will consume them.
    stack: Vec<Frame>,
    nodes: Vec<Node>,
}

#[derive(Debug)]
enum Frame {
    Loop {
        id: usize,
        name: String,
        begin: i64,
        stride: i64,
        count: i64,
        saved: Vec<Node>,
    },
    If {
        cond: Cond,
        saved: Vec<Node>,
    },
}

impl ProgramBuilder {
    /// Starts building a program with the given kernel name.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            program: Program {
                name: name.into(),
                ..Program::default()
            },
            stack: Vec::new(),
            nodes: Vec::new(),
        }
    }

    /// Declares an array and returns its id.
    pub fn array(&mut self, name: impl Into<String>, dims: Vec<i64>, elem: ElemType) -> ArrayId {
        self.program.arrays.push(ArrayDecl::new(name, dims, elem));
        self.program.arrays.len() - 1
    }

    /// Opens a loop scope and returns the loop's id (usable in [`IdxExpr`]).
    pub fn begin_loop(
        &mut self,
        name: impl Into<String>,
        begin: i64,
        stride: i64,
        count: i64,
    ) -> usize {
        assert!(stride >= 1, "loop stride must be >= 1");
        assert!(count >= 1, "loop count must be >= 1");
        let id = self.program.loop_count;
        self.program.loop_count += 1;
        let saved = std::mem::take(&mut self.nodes);
        self.stack.push(Frame::Loop {
            id,
            name: name.into(),
            begin,
            stride,
            count,
            saved,
        });
        id
    }

    /// Closes the innermost loop scope.
    ///
    /// # Panics
    ///
    /// Panics if the innermost open scope is not a loop.
    pub fn end_loop(&mut self) {
        match self.stack.pop() {
            Some(Frame::Loop {
                id,
                name,
                begin,
                stride,
                count,
                saved,
            }) => {
                let body = std::mem::replace(&mut self.nodes, saved);
                self.nodes.push(Node::Loop(Loop {
                    id,
                    name,
                    begin,
                    stride,
                    count,
                    body,
                }));
            }
            other => panic!("end_loop without matching begin_loop: {other:?}"),
        }
    }

    /// Opens an `if` scope.
    pub fn begin_if(&mut self, cond: Cond) {
        let saved = std::mem::take(&mut self.nodes);
        self.stack.push(Frame::If { cond, saved });
    }

    /// Closes the innermost `if` scope.
    ///
    /// # Panics
    ///
    /// Panics if the innermost open scope is not an `if`.
    pub fn end_if(&mut self) {
        match self.stack.pop() {
            Some(Frame::If { cond, saved }) => {
                let body = std::mem::replace(&mut self.nodes, saved);
                self.nodes.push(Node::If(IfNode { cond, body }));
            }
            other => panic!("end_if without matching begin_if: {other:?}"),
        }
    }

    /// Appends a statement to the current scope and returns its id.
    pub fn stmt(
        &mut self,
        target: ArrayId,
        indices: Vec<IdxExpr>,
        kind: AssignKind,
        rhs: Expr,
    ) -> usize {
        let id = self.program.stmt_count;
        self.program.stmt_count += 1;
        self.nodes.push(Node::Stmt(Statement {
            id,
            target: Access::new(target, indices),
            kind,
            rhs,
        }));
        id
    }

    /// Finishes building.
    ///
    /// # Panics
    ///
    /// Panics if any scope is still open.
    pub fn finish(mut self) -> Program {
        assert!(self.stack.is_empty(), "unclosed loop or if scope");
        self.program.body = std::mem::take(&mut self.nodes);
        self.program
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;

    fn small_program() -> Program {
        let mut b = ProgramBuilder::new("test");
        let a = b.array("a", vec![10, 10], ElemType::F32);
        let i = b.begin_loop("i", 0, 1, 10);
        let j = b.begin_loop("j", 0, 1, 10);
        b.begin_if(Cond::atom(IdxExpr::var(i), CmpOp::Gt));
        b.stmt(
            a,
            vec![IdxExpr::var(i), IdxExpr::var(j)],
            AssignKind::Assign,
            Expr::Const(1.0),
        );
        b.end_if();
        b.end_loop();
        b.end_loop();
        b.finish()
    }

    #[test]
    fn builder_produces_nested_structure() {
        let p = small_program();
        assert_eq!(p.loop_count, 2);
        assert_eq!(p.stmt_count, 1);
        let mut seen = 0;
        p.visit_statements(|s, loops, conds| {
            seen += 1;
            assert_eq!(s.id, 0);
            assert_eq!(loops.len(), 2);
            assert_eq!(loops[0].name, "i");
            assert_eq!(conds.len(), 1);
        });
        assert_eq!(seen, 1);
    }

    #[test]
    fn instance_count_respects_guards() {
        let p = small_program();
        // i > 0 excludes i = 0: 9 * 10 instances.
        assert_eq!(p.instance_count(), 90);
    }

    #[test]
    fn instance_count_with_strides() {
        let mut b = ProgramBuilder::new("strided");
        let a = b.array("a", vec![100], ElemType::F32);
        let i = b.begin_loop("i", 2, 3, 5); // 2, 5, 8, 11, 14
        b.stmt(
            a,
            vec![IdxExpr::var(i)],
            AssignKind::Assign,
            Expr::Const(0.0),
        );
        b.end_loop();
        let p = b.finish();
        assert_eq!(p.instance_count(), 5);
        let l = p.loops_by_id().get(0).unwrap();
        assert_eq!(l.last(), 14);
    }

    #[test]
    fn loops_by_id_resolves_ids_and_names() {
        let p = small_program();
        let loops = p.loops_by_id();
        assert_eq!(loops.get(1).unwrap().name, "j");
        assert!(loops.get(7).is_none());
        assert_eq!(loops.name(0).to_string(), "i");
        assert_eq!(loops.name(7).to_string(), "l7");
    }

    #[test]
    #[should_panic(expected = "unclosed")]
    fn unbalanced_scopes_panic() {
        let mut b = ProgramBuilder::new("bad");
        b.begin_loop("i", 0, 1, 4);
        let _ = b.finish();
    }

    #[test]
    fn reduction_op_recognizes_update_shapes() {
        let mut b = ProgramBuilder::new("red");
        let a = b.array("a", vec![8], ElemType::F32);
        let x = b.array("x", vec![8], ElemType::F32);
        let i = b.begin_loop("i", 0, 1, 8);
        let at = |arr| Expr::load(arr, vec![IdxExpr::var(i)]);
        // s0: a[i] += x[i]                      → Add
        b.stmt(a, vec![IdxExpr::var(i)], AssignKind::AddAssign, at(x));
        // s1: a[i] = a[i] + x[i]  (spelled out) → Add
        b.stmt(
            a,
            vec![IdxExpr::var(i)],
            AssignKind::Assign,
            Expr::bin(crate::expr::BinOp::Add, at(a), at(x)),
        );
        // s2: a[i] = max(x[i], a[i]) (operand order flipped) → Max
        b.stmt(
            a,
            vec![IdxExpr::var(i)],
            AssignKind::Assign,
            Expr::bin(crate::expr::BinOp::Max, at(x), at(a)),
        );
        // s3: a[i] = a[i] - x[i] — subtraction is not commutative-mergeable
        b.stmt(
            a,
            vec![IdxExpr::var(i)],
            AssignKind::Assign,
            Expr::bin(crate::expr::BinOp::Sub, at(a), at(x)),
        );
        // s4: a[i] += a[i] — rhs reads the accumulator array: a recurrence
        b.stmt(a, vec![IdxExpr::var(i)], AssignKind::AddAssign, at(a));
        // s5: a[i] = max(a[i], a[i]) — both operands are the accumulator
        b.stmt(
            a,
            vec![IdxExpr::var(i)],
            AssignKind::Assign,
            Expr::bin(crate::expr::BinOp::Max, at(a), at(a)),
        );
        // s6: a[i] = 0.0 — initializer, not an update
        b.stmt(
            a,
            vec![IdxExpr::var(i)],
            AssignKind::Assign,
            Expr::Const(0.0),
        );
        b.end_loop();
        let p = b.finish();
        let mut ops = Vec::new();
        let mut inits = Vec::new();
        p.visit_statements(|s, _, _| {
            ops.push(s.reduction_op());
            inits.push(s.is_const_init());
        });
        use prem_polyhedral::ReduceOp::*;
        assert_eq!(
            ops,
            vec![Some(Add), Some(Add), Some(Max), None, None, None, None]
        );
        assert_eq!(inits, vec![false, false, false, false, false, false, true]);
    }

    #[test]
    fn statement_accesses_include_implicit_read() {
        let mut b = ProgramBuilder::new("acc");
        let a = b.array("a", vec![4], ElemType::F32);
        let x = b.array("x", vec![4], ElemType::F32);
        let i = b.begin_loop("i", 0, 1, 4);
        b.stmt(
            a,
            vec![IdxExpr::var(i)],
            AssignKind::AddAssign,
            Expr::load(x, vec![IdxExpr::var(i)]),
        );
        b.end_loop();
        let p = b.finish();
        p.visit_statements(|s, _, _| {
            let acc = s.accesses();
            // implicit read of a, read of x, write of a
            assert_eq!(acc.len(), 3);
            assert_eq!(acc.iter().filter(|(_, w)| *w).count(), 1);
            assert_eq!(s.op_count(), 1);
        });
    }
}
