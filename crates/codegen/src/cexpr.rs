//! C rendering of IR expressions, conditions and accesses, written straight
//! into a `String` sink.

use prem_ir::{Access, AssignKind, BinOp, Cond, Expr, IdxExpr, LoopTable, Program, Statement};
use std::fmt;

/// Writes the C index of one access dimension: `(sink, array, dim, index
/// expression)` — identity for plain emission, buffer-relative for PREM
/// emission.
pub trait Rewrite: Fn(&mut String, usize, usize, &IdxExpr) {}

impl<F: Fn(&mut String, usize, usize, &IdxExpr)> Rewrite for F {}

/// A program with its loop-id table, built once per emission so that every
/// loop variable printed is a constant-time lookup.
#[derive(Debug)]
pub struct CProgram<'a> {
    /// The program.
    pub program: &'a Program,
    /// Its loops by id.
    pub loops: LoopTable<'a>,
}

impl<'a> CProgram<'a> {
    /// Builds the loop table of `program`.
    pub fn new(program: &'a Program) -> Self {
        let loops = program.loops_by_id();
        CProgram { program, loops }
    }

    /// Writes an index expression.
    pub fn idx(&self, out: &mut String, e: &IdxExpr) {
        w!(out, "{}", e.display_with(|id| self.loops.name(id)));
    }

    /// The rewrite that prints every index as written.
    pub fn identity(&self) -> impl Rewrite + '_ {
        move |out: &mut String, _: usize, _: usize, e: &IdxExpr| self.idx(out, e)
    }

    /// Writes a condition (`1` when it has no atoms).
    pub fn cond(&self, out: &mut String, c: &Cond) {
        if c.atoms.is_empty() {
            out.push('1');
        }
        join(out, " && ", &c.atoms, |out, a| {
            self.idx(out, &a.lhs);
            w!(out, " {} 0", a.op.c_symbol());
        });
    }

    /// Writes an access, each index through `rewrite`.
    pub fn access(&self, out: &mut String, a: &Access, rewrite: &impl Rewrite) {
        out.push_str(&self.program.array(a.array).name);
        for (d, e) in a.indices.iter().enumerate() {
            out.push('[');
            rewrite(out, a.array, d, e);
            out.push(']');
        }
    }

    /// Writes a right-hand-side expression.
    pub fn expr(&self, out: &mut String, e: &Expr, rewrite: &impl Rewrite) {
        match e {
            Expr::Load(a) => self.access(out, a, rewrite),
            Expr::Const(c) => {
                if *c == f64::MIN {
                    out.push_str("-FLT_MAX");
                } else if c.fract() == 0.0 && c.abs() < 1e15 {
                    w!(out, "{c:.1}f");
                } else {
                    w!(out, "{c}f");
                }
            }
            Expr::Index(i) => {
                out.push('(');
                self.idx(out, i);
                out.push(')');
            }
            Expr::Bin(op, a, b) => {
                // `(l op r)` for infix operators, `MAX(l, r)` / `MIN(l, r)`.
                let infix = op.c_infix();
                out.push_str(match (infix, op) {
                    (Some(_), _) => "(",
                    (None, BinOp::Max) => "MAX(",
                    (None, _) => "MIN(",
                });
                self.expr(out, a, rewrite);
                match infix {
                    Some(sym) => w!(out, " {sym} "),
                    None => out.push_str(", "),
                }
                self.expr(out, b, rewrite);
                out.push(')');
            }
            Expr::Neg(a) => {
                out.push_str("(-");
                self.expr(out, a, rewrite);
                out.push(')');
            }
        }
    }

    /// Writes a full statement.
    pub fn stmt(&self, out: &mut String, s: &Statement, rewrite: &impl Rewrite) {
        self.access(out, &s.target, rewrite);
        out.push_str(match s.kind {
            AssignKind::Assign => " = ",
            AssignKind::AddAssign => " += ",
        });
        self.expr(out, &s.rhs, rewrite);
        out.push(';');
    }
}

/// `4 * n` spaces of indentation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pad(pub usize);

impl fmt::Display for Pad {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // One write for the common depths: half the cost of a padded line.
        const SPACES: &str = "                                                                ";
        match SPACES.get(..4 * self.0) {
            Some(spaces) => f.write_str(spaces),
            None => (0..self.0).try_for_each(|_| f.write_str("    ")),
        }
    }
}

/// Writes `v` in decimal. The swap tables are mostly small numbers, and a
/// `write!` of one costs several times what its digits do.
pub(crate) fn uint(out: &mut String, v: u64) {
    if v >= 10 {
        uint(out, v / 10);
    }
    out.push(char::from(b'0' + (v % 10) as u8));
}

/// Writes `items` separated by `sep`, each one through `item`.
pub(crate) fn join<T>(
    out: &mut String,
    sep: &str,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut String, T),
) {
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        item(out, x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prem_ir::{ElemType, ProgramBuilder};

    #[test]
    fn renders_expressions() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("a", vec![8], ElemType::F32);
        let i = b.begin_loop("i", 0, 1, 8);
        b.stmt(
            a,
            vec![IdxExpr::var(i).plus_const(1)],
            AssignKind::AddAssign,
            Expr::mul(Expr::load(a, vec![IdxExpr::var(i)]), Expr::Const(2.0)),
        );
        b.end_loop();
        let p = b.finish();
        let c = CProgram::new(&p);
        let mut text = String::new();
        p.visit_statements(|s, _, _| c.stmt(&mut text, s, &c.identity()));
        assert_eq!(text, "a[i + 1] += (a[i] * 2.0f);");
    }
}
