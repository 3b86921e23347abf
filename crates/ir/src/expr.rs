//! Index expressions, statement expressions and affine conditions.
//!
//! Index expressions ([`IdxExpr`]) are affine combinations of *loop
//! identities* (not positional counters — the positional form is produced by
//! lowering in [`mod@crate::lower`]). Statement right-hand sides ([`Expr`]) are
//! small arithmetic trees over array loads and constants.

use crate::types::ArrayId;
use std::collections::BTreeMap;
use std::fmt;

/// An affine expression `c₀ + Σ cᵢ·loopᵢ` over loop identities.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct IdxExpr {
    /// Map from loop id to coefficient (zero coefficients are not stored).
    terms: BTreeMap<usize, i64>,
    /// Constant term.
    constant: i64,
}

impl IdxExpr {
    /// A constant expression.
    pub fn constant(v: i64) -> Self {
        IdxExpr {
            terms: BTreeMap::new(),
            constant: v,
        }
    }

    /// The expression `1·loop`.
    pub fn var(loop_id: usize) -> Self {
        let mut terms = BTreeMap::new();
        terms.insert(loop_id, 1);
        IdxExpr { terms, constant: 0 }
    }

    /// Adds `c·loop` to the expression.
    pub fn plus_var(mut self, loop_id: usize, c: i64) -> Self {
        let e = self.terms.entry(loop_id).or_insert(0);
        *e += c;
        if *e == 0 {
            self.terms.remove(&loop_id);
        }
        self
    }

    /// Adds a constant.
    pub fn plus_const(mut self, c: i64) -> Self {
        self.constant += c;
        self
    }

    /// Sum of two expressions.
    pub fn add(&self, other: &IdxExpr) -> IdxExpr {
        let mut out = self.clone();
        for (&v, &c) in &other.terms {
            out = out.plus_var(v, c);
        }
        out.constant += other.constant;
        out
    }

    /// Difference of two expressions.
    pub fn sub(&self, other: &IdxExpr) -> IdxExpr {
        self.add(&other.scale(-1))
    }

    /// The expression multiplied by a constant.
    pub fn scale(&self, k: i64) -> IdxExpr {
        if k == 0 {
            return IdxExpr::constant(0);
        }
        IdxExpr {
            terms: self.terms.iter().map(|(&v, &c)| (v, c * k)).collect(),
            constant: self.constant * k,
        }
    }

    /// Constant term.
    pub fn constant_term(&self) -> i64 {
        self.constant
    }

    /// Iterates over `(loop id, coefficient)` terms.
    pub fn terms(&self) -> impl Iterator<Item = (usize, i64)> + '_ {
        self.terms.iter().map(|(&v, &c)| (v, c))
    }

    /// Coefficient of a loop (zero if absent).
    pub fn coeff(&self, loop_id: usize) -> i64 {
        self.terms.get(&loop_id).copied().unwrap_or(0)
    }

    /// Returns `true` if the expression references no loop.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Evaluates the expression under a loop-value environment.
    ///
    /// # Panics
    ///
    /// Panics if a referenced loop has no value in `env`.
    pub fn eval(&self, env: &Env) -> i64 {
        let mut acc = self.constant;
        for (&v, &c) in &self.terms {
            acc += c * env.get(v);
        }
        acc
    }

    /// Renders the expression using a loop-name resolver.
    pub fn display_with<'a, F, N>(&'a self, names: F) -> DisplayIdx<'a, F>
    where
        F: Fn(usize) -> N,
        N: fmt::Display,
    {
        DisplayIdx { expr: self, names }
    }
}

impl fmt::Display for IdxExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display_with(|id| format!("l{id}")))
    }
}

/// Helper returned by [`IdxExpr::display_with`].
pub struct DisplayIdx<'a, F> {
    expr: &'a IdxExpr,
    names: F,
}

impl<F: Fn(usize) -> N, N: fmt::Display> fmt::Display for DisplayIdx<'_, F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in self.expr.terms() {
            let name = (self.names)(v);
            if first {
                match c {
                    1 => write!(f, "{name}")?,
                    -1 => write!(f, "-{name}")?,
                    _ => write!(f, "{c}*{name}")?,
                }
                first = false;
            } else if c > 0 {
                if c == 1 {
                    write!(f, " + {name}")?;
                } else {
                    write!(f, " + {c}*{name}")?;
                }
            } else if c == -1 {
                write!(f, " - {name}")?;
            } else {
                write!(f, " - {}*{name}", -c)?;
            }
        }
        let k = self.expr.constant_term();
        if first {
            write!(f, "{k}")?;
        } else if k > 0 {
            write!(f, " + {k}")?;
        } else if k < 0 {
            write!(f, " - {}", -k)?;
        }
        Ok(())
    }
}

/// Loop-value environment used by evaluation (indexed by loop id).
#[derive(Debug, Clone, Default)]
pub struct Env {
    values: Vec<Option<i64>>,
}

impl Env {
    /// Creates an empty environment.
    pub fn new() -> Self {
        Env { values: Vec::new() }
    }

    /// Binds a loop id to a value.
    pub fn set(&mut self, loop_id: usize, value: i64) {
        if loop_id >= self.values.len() {
            self.values.resize(loop_id + 1, None);
        }
        self.values[loop_id] = Some(value);
    }

    /// Removes a binding.
    pub fn unset(&mut self, loop_id: usize) {
        if loop_id < self.values.len() {
            self.values[loop_id] = None;
        }
    }

    /// Current value of a loop id.
    ///
    /// # Panics
    ///
    /// Panics if the loop is unbound.
    pub fn get(&self, loop_id: usize) -> i64 {
        self.values
            .get(loop_id)
            .copied()
            .flatten()
            .unwrap_or_else(|| panic!("loop l{loop_id} is unbound"))
    }

    /// Value of a loop id if bound.
    pub fn try_get(&self, loop_id: usize) -> Option<i64> {
        self.values.get(loop_id).copied().flatten()
    }
}

/// An array access: the array plus one index expression per dimension.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Access {
    /// Accessed array.
    pub array: ArrayId,
    /// Index expression per dimension, outermost first.
    pub indices: Vec<IdxExpr>,
}

impl Access {
    /// Creates an access.
    pub fn new(array: ArrayId, indices: Vec<IdxExpr>) -> Self {
        Access { array, indices }
    }

    /// Evaluates all index expressions under an environment.
    pub fn eval_indices(&self, env: &Env) -> Vec<i64> {
        self.indices.iter().map(|e| e.eval(env)).collect()
    }
}

/// Binary operators available in statement right-hand sides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Maximum (used by MaxPool).
    Max,
    /// Minimum.
    Min,
}

impl BinOp {
    /// Applies the operator to two values.
    pub fn apply(&self, a: f64, b: f64) -> f64 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
            BinOp::Max => a.max(b),
            BinOp::Min => a.min(b),
        }
    }

    /// C rendering; `Max`/`Min` render as function-style macros.
    pub fn c_infix(&self) -> Option<&'static str> {
        match self {
            BinOp::Add => Some("+"),
            BinOp::Sub => Some("-"),
            BinOp::Mul => Some("*"),
            BinOp::Div => Some("/"),
            BinOp::Max | BinOp::Min => None,
        }
    }
}

/// A statement right-hand-side expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Array element load.
    Load(Access),
    /// Floating-point constant.
    Const(f64),
    /// The value of a loop index (e.g. `2*i + 1` as data).
    Index(IdxExpr),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Negation.
    Neg(Box<Expr>),
}

impl Expr {
    /// Load helper.
    pub fn load(array: ArrayId, indices: Vec<IdxExpr>) -> Expr {
        Expr::Load(Access::new(array, indices))
    }

    /// Builds `a op b`.
    pub fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Bin(op, Box::new(a), Box::new(b))
    }

    /// Builds `a + b`.
    #[allow(clippy::should_implement_trait)] // builder DSL constructor, not `self + rhs`
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Add, a, b)
    }

    /// Builds `a * b`.
    #[allow(clippy::should_implement_trait)] // builder DSL constructor, not `self * rhs`
    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Mul, a, b)
    }

    /// All loads in the expression, in evaluation order.
    pub fn loads(&self) -> Vec<&Access> {
        let mut out = Vec::new();
        self.collect_loads(&mut out);
        out
    }

    fn collect_loads<'a>(&'a self, out: &mut Vec<&'a Access>) {
        match self {
            Expr::Load(a) => out.push(a),
            Expr::Const(_) | Expr::Index(_) => {}
            Expr::Bin(_, a, b) => {
                a.collect_loads(out);
                b.collect_loads(out);
            }
            Expr::Neg(a) => a.collect_loads(out),
        }
    }

    /// Number of arithmetic operations in the tree (used by the synthetic
    /// per-instance cost model).
    pub fn op_count(&self) -> u64 {
        match self {
            Expr::Load(_) | Expr::Const(_) | Expr::Index(_) => 0,
            Expr::Bin(_, a, b) => 1 + a.op_count() + b.op_count(),
            Expr::Neg(a) => 1 + a.op_count(),
        }
    }
}

/// Comparison operators usable in affine `if` conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<`
    Lt,
    /// `<=`
    Le,
}

impl CmpOp {
    /// The C operator.
    pub fn c_symbol(&self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
        }
    }
}

/// One affine condition atom `lhs op 0` (the parser normalizes `a op b` to
/// `a - b op 0`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CondAtom {
    /// Left-hand side after normalization.
    pub lhs: IdxExpr,
    /// Comparison against zero.
    pub op: CmpOp,
}

impl CondAtom {
    /// Creates an atom.
    pub fn new(lhs: IdxExpr, op: CmpOp) -> Self {
        CondAtom { lhs, op }
    }

    /// Evaluates the atom under an environment.
    pub fn holds(&self, env: &Env) -> bool {
        let v = self.lhs.eval(env);
        match self.op {
            CmpOp::Eq => v == 0,
            CmpOp::Gt => v > 0,
            CmpOp::Ge => v >= 0,
            CmpOp::Lt => v < 0,
            CmpOp::Le => v <= 0,
        }
    }
}

/// A conjunction of affine condition atoms.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Cond {
    /// Atoms, all of which must hold.
    pub atoms: Vec<CondAtom>,
}

impl Cond {
    /// The always-true condition.
    pub fn always() -> Self {
        Cond { atoms: Vec::new() }
    }

    /// A single-atom condition.
    pub fn atom(lhs: IdxExpr, op: CmpOp) -> Self {
        Cond {
            atoms: vec![CondAtom::new(lhs, op)],
        }
    }

    /// Conjunction with another condition.
    pub fn and(mut self, other: Cond) -> Self {
        self.atoms.extend(other.atoms);
        self
    }

    /// Evaluates the conjunction.
    pub fn holds(&self, env: &Env) -> bool {
        self.atoms.iter().all(|a| a.holds(env))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idx_expr_algebra() {
        let e = IdxExpr::var(3).plus_var(5, 2).plus_const(-1);
        let mut env = Env::new();
        env.set(3, 4);
        env.set(5, 10);
        assert_eq!(e.eval(&env), 4 + 20 - 1);
        assert_eq!(e.coeff(5), 2);
        assert_eq!(e.coeff(7), 0);
        let cancelled = e.clone().plus_var(3, -1);
        assert_eq!(cancelled.coeff(3), 0);
        assert!(IdxExpr::constant(7).is_constant());
    }

    #[test]
    fn idx_expr_add_sub_scale() {
        let a = IdxExpr::var(0).plus_const(2);
        let b = IdxExpr::var(1).scale(3);
        let s = a.add(&b);
        let mut env = Env::new();
        env.set(0, 5);
        env.set(1, 2);
        assert_eq!(s.eval(&env), 5 + 2 + 6);
        assert_eq!(a.sub(&a).eval(&env), 0);
    }

    #[test]
    fn cond_atoms() {
        // t > 0  →  t > 0 atom
        let c = Cond::atom(IdxExpr::var(0), CmpOp::Gt);
        let mut env = Env::new();
        env.set(0, 0);
        assert!(!c.holds(&env));
        env.set(0, 1);
        assert!(c.holds(&env));
        let both = c.and(Cond::atom(IdxExpr::var(0).plus_const(-5), CmpOp::Lt));
        assert!(both.holds(&env));
    }

    #[test]
    fn expr_ops_and_loads() {
        let e = Expr::add(
            Expr::mul(
                Expr::load(0, vec![IdxExpr::var(0)]),
                Expr::load(1, vec![IdxExpr::var(1)]),
            ),
            Expr::Const(1.0),
        );
        assert_eq!(e.op_count(), 2);
        assert_eq!(e.loads().len(), 2);
    }

    #[test]
    fn binop_apply() {
        assert_eq!(BinOp::Max.apply(2.0, 5.0), 5.0);
        assert_eq!(BinOp::Sub.apply(2.0, 5.0), -3.0);
        assert_eq!(BinOp::Div.apply(6.0, 3.0), 2.0);
    }

    #[test]
    fn display_idx() {
        let e = IdxExpr::var(0).plus_var(1, -1).plus_const(2);
        assert_eq!(format!("{e}"), "l0 - l1 + 2");
    }
}
