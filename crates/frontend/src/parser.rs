//! Recursive-descent parser for the C subset of §3.2: constant-bound,
//! uniform-stride `for` nests over statically declared arrays, with affine
//! accesses and affine `if` guards. Named constants may be supplied
//! externally (the `POLYBENCH_USE_SCALAR_LB` workflow of §6.2, where scalar
//! loop bounds are substituted before analysis).

use crate::lexer::{lex, Token, TokenKind};
use prem_ir::{AssignKind, BinOp, CmpOp, Cond, ElemType, Expr, IdxExpr, Program, ProgramBuilder};
use std::collections::HashMap;
use std::fmt;

// The parser is a hardened API boundary (kernels arrive over the network in
// `prem-serve`), so every quantity it folds into the IR is bounded *before*
// the arithmetic that could overflow, and every recursion is depth-capped.
// Violations are `ParseError`s — `parse_kernel` never panics.

/// Bound on any coefficient or constant term of a parsed affine expression
/// (and on integer literals / named parameters).
const MAX_AFFINE: i64 = 1 << 40;
/// Bound on a single loop's iteration count.
const MAX_LOOP_COUNT: i64 = 1 << 24;
/// Bound on the iteration-space product of an open loop nest.
const MAX_TOTAL_ITERS: i64 = 1 << 40;
/// Bound on `for`/`if` statement nesting depth.
const MAX_NESTING: usize = 64;
/// Bound on expression nesting depth (parentheses, unary minus, calls).
const MAX_EXPR_DEPTH: usize = 256;
/// Bound on the element count of one declared array.
const MAX_ARRAY_ELEMS: i64 = 1 << 32;

/// Parse error with position.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Human-readable message.
    pub message: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<crate::lexer::LexError> for ParseError {
    fn from(e: crate::lexer::LexError) -> Self {
        ParseError {
            message: e.message,
            line: e.line,
            col: e.col,
        }
    }
}

/// Parses a kernel from C-subset source text.
///
/// `name` becomes the program name; `params` supplies values for named
/// constants (e.g. `NT`, `NS`).
///
/// # Errors
///
/// Returns [`ParseError`] on any lexical, syntactic or semantic violation of
/// the accepted subset (non-affine indices, non-constant bounds, …).
///
/// # Examples
///
/// ```
/// use prem_frontend::parse_kernel;
///
/// let src = r#"
///     float a[100][100]; float b[100]; float c[100];
///     for (int i = 0; i < N; i++) {
///         c[i] = 0.0;
///         for (int j = 0; j < N; j++)
///             c[i] += a[i][j] * b[j];
///     }
/// "#;
/// let p = parse_kernel("matvec", src, &[("N", 100)]).unwrap();
/// assert_eq!(p.loop_count, 2);
/// assert_eq!(p.stmt_count, 2);
/// ```
pub fn parse_kernel(
    name: &str,
    source: &str,
    params: &[(&str, i64)],
) -> Result<Program, ParseError> {
    let tokens = lex(source)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        builder: ProgramBuilder::new(name),
        params: params.iter().copied().collect(),
        arrays: HashMap::new(),
        loops: Vec::new(),
        nesting: 0,
        expr_depth: 0,
        open_iters: 1,
    };
    p.parse_program()?;
    Ok(p.builder.finish())
}

/// The parser's state. Tokens and symbol-table keys borrow the source (and
/// the parameter names) for `'a`.
struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    builder: ProgramBuilder,
    params: HashMap<&'a str, i64>,
    /// Declared arrays: name → (id, dimension count).
    arrays: HashMap<&'a str, (usize, usize)>,
    /// Open loop variables, outermost first: name and loop id. The nest is
    /// at most [`MAX_NESTING`] deep, and the innermost binding of a name wins.
    loops: Vec<(&'a str, usize)>,
    /// Current `for`/`if` nesting depth (capped at [`MAX_NESTING`]).
    nesting: usize,
    /// Current expression recursion depth (capped at [`MAX_EXPR_DEPTH`]).
    expr_depth: usize,
    /// Product of the iteration counts of all open loops (capped at
    /// [`MAX_TOTAL_ITERS`], so downstream `u64` instance-count products
    /// cannot overflow).
    open_iters: i64,
}

/// Parsed arithmetic value: affine in loop variables, or a floating constant.
#[derive(Debug, Clone)]
enum Val {
    Affine(IdxExpr),
    Float(f64),
    Data(Expr),
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Token<'a> {
        &self.tokens[self.pos]
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        let t = self.peek();
        Err(ParseError {
            message: message.into(),
            line: t.line,
            col: t.col,
        })
    }

    /// Steps past the current token; the final `Eof` is never passed.
    fn bump(&mut self) {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(&self.peek().kind, TokenKind::Punct(q) if *q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), ParseError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            self.err(format!("expected `{p}`, found {}", self.peek().kind))
        }
    }

    fn eat_ident(&mut self, s: &str) -> bool {
        if matches!(self.peek().kind, TokenKind::Ident(t) if t == s) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<&'a str, ParseError> {
        match self.peek().kind {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {other}")),
        }
    }

    fn parse_program(&mut self) -> Result<(), ParseError> {
        // Declarations first (any `type ident[...]...;` sequence).
        while let Some(elem) = self.peek_type() {
            self.parse_decl(elem)?;
        }
        // Items.
        while !matches!(self.peek().kind, TokenKind::Eof) {
            self.parse_item()?;
        }
        Ok(())
    }

    fn peek_type(&self) -> Option<ElemType> {
        match self.peek().kind {
            TokenKind::Ident(s) => match s {
                "float" => Some(ElemType::F32),
                "double" => Some(ElemType::F64),
                "int" | "int32_t" => Some(ElemType::I32),
                "int64_t" | "long" => Some(ElemType::I64),
                _ => None,
            },
            _ => None,
        }
    }

    fn parse_decl(&mut self, elem: ElemType) -> Result<(), ParseError> {
        self.bump(); // type
        loop {
            let name = self.expect_ident()?;
            if self.arrays.contains_key(name) {
                return self.err(format!("array `{name}` is declared twice"));
            }
            let mut dims = Vec::new();
            let mut elems = 1i64;
            while self.eat_punct("[") {
                let d = self.parse_const_expr()?;
                if d < 1 {
                    return self.err(format!("array `{name}` has non-positive dimension {d}"));
                }
                elems = match elems.checked_mul(d) {
                    Some(e) if e <= MAX_ARRAY_ELEMS => e,
                    _ => {
                        return self
                            .err(format!("array `{name}` exceeds {MAX_ARRAY_ELEMS} elements"))
                    }
                };
                dims.push(d);
                self.expect_punct("]")?;
            }
            if dims.is_empty() {
                return self.err(format!("array `{name}` needs at least one dimension"));
            }
            let ndims = dims.len();
            let id = self.builder.array(name, dims, elem);
            self.arrays.insert(name, (id, ndims));
            if self.eat_punct(",") {
                continue;
            }
            self.expect_punct(";")?;
            break;
        }
        Ok(())
    }

    /// Evaluates a compile-time constant integer expression.
    fn parse_const_expr(&mut self) -> Result<i64, ParseError> {
        let e = self.parse_affine()?;
        if !e.is_constant() {
            return self.err("expected a compile-time constant");
        }
        Ok(e.constant_term())
    }

    fn parse_item(&mut self) -> Result<(), ParseError> {
        self.nesting += 1;
        if self.nesting > MAX_NESTING {
            return self.err(format!(
                "statements nest deeper than the supported {MAX_NESTING} levels"
            ));
        }
        let r = if self.eat_ident("for") {
            self.parse_for()
        } else if self.eat_ident("if") {
            self.parse_if()
        } else {
            self.parse_assign()
        };
        self.nesting -= 1;
        r
    }

    fn parse_block(&mut self) -> Result<(), ParseError> {
        if self.eat_punct("{") {
            while !self.eat_punct("}") {
                if matches!(self.peek().kind, TokenKind::Eof) {
                    return self.err("unterminated block");
                }
                self.parse_item()?;
            }
            Ok(())
        } else {
            self.parse_item()
        }
    }

    fn parse_for(&mut self) -> Result<(), ParseError> {
        self.expect_punct("(")?;
        self.eat_ident("int");
        let var = self.expect_ident()?;
        self.expect_punct("=")?;
        let begin = self.parse_const_expr()?;
        self.expect_punct(";")?;
        let v2 = self.expect_ident()?;
        if v2 != var {
            return self.err(format!("loop condition must test `{var}`"));
        }
        let strict = if self.eat_punct("<") {
            true
        } else if self.eat_punct("<=") {
            false
        } else {
            return self.err("loop condition must be `<` or `<=`");
        };
        let bound = self.parse_const_expr()?;
        self.expect_punct(";")?;
        let v3 = self.expect_ident()?;
        if v3 != var {
            return self.err(format!("loop increment must update `{var}`"));
        }
        let stride = if self.eat_punct("++") {
            1
        } else if self.eat_punct("+=") {
            let s = self.parse_const_expr()?;
            if s < 1 {
                return self.err("loop stride must be positive");
            }
            s
        } else {
            return self.err("loop increment must be `++` or `+= C`");
        };
        self.expect_punct(")")?;

        // `begin`, `bound` and `stride` came through `parse_const_expr`, so
        // their magnitudes are bounded by `MAX_AFFINE` and none of the
        // arithmetic below can overflow.
        let last = if strict { bound - 1 } else { bound };
        if last < begin {
            return self.err("loop executes zero iterations");
        }
        let count = (last - begin) / stride + 1;
        if count > MAX_LOOP_COUNT {
            return self.err(format!(
                "loop `{var}` runs {count} iterations (max {MAX_LOOP_COUNT})"
            ));
        }
        let total = match self.open_iters.checked_mul(count) {
            Some(t) if t <= MAX_TOTAL_ITERS => t,
            _ => {
                return self.err(format!(
                    "loop nest iteration space exceeds {MAX_TOTAL_ITERS} instances"
                ))
            }
        };
        let saved_iters = self.open_iters;
        self.open_iters = total;
        let id = self.builder.begin_loop(var, begin, stride, count);
        self.loops.push((var, id));
        self.parse_block()?;
        self.loops.pop();
        self.open_iters = saved_iters;
        self.builder.end_loop();
        Ok(())
    }

    fn parse_if(&mut self) -> Result<(), ParseError> {
        self.expect_punct("(")?;
        let mut cond = Cond::always();
        loop {
            let lhs = self.parse_affine()?;
            let op = if self.eat_punct("==") {
                CmpOp::Eq
            } else if self.eat_punct(">=") {
                CmpOp::Ge
            } else if self.eat_punct(">") {
                CmpOp::Gt
            } else if self.eat_punct("<=") {
                CmpOp::Le
            } else if self.eat_punct("<") {
                CmpOp::Lt
            } else {
                return self.err("expected comparison operator in condition");
            };
            let rhs = self.parse_affine()?;
            cond = cond.and(Cond::atom(lhs.sub(&rhs), op));
            if !self.eat_punct("&&") {
                break;
            }
        }
        self.expect_punct(")")?;
        self.builder.begin_if(cond);
        self.parse_block()?;
        self.builder.end_if();
        Ok(())
    }

    fn parse_assign(&mut self) -> Result<(), ParseError> {
        let name = self.expect_ident()?;
        let Some(&(array, ndims)) = self.arrays.get(name) else {
            return self.err(format!("unknown array `{name}`"));
        };
        let mut indices = Vec::new();
        while self.eat_punct("[") {
            indices.push(self.parse_affine()?);
            self.expect_punct("]")?;
        }
        if indices.len() != ndims {
            return self.err(format!(
                "array `{name}` has {ndims} dimensions but {} indices",
                indices.len()
            ));
        }
        let kind = if self.eat_punct("=") {
            AssignKind::Assign
        } else if self.eat_punct("+=") {
            AssignKind::AddAssign
        } else {
            return self.err("expected `=` or `+=`");
        };
        let rhs = self.parse_data_expr()?;
        self.expect_punct(";")?;
        self.builder.stmt(array, indices, kind, rhs);
        Ok(())
    }

    /// Affine expression over loop variables and named constants.
    fn parse_affine(&mut self) -> Result<IdxExpr, ParseError> {
        match self.parse_value(true)? {
            Val::Affine(e) => Ok(e),
            Val::Float(_) | Val::Data(_) => self.err("expected an affine integer expression"),
        }
    }

    /// Data (floating) expression for statement right-hand sides.
    fn parse_data_expr(&mut self) -> Result<Expr, ParseError> {
        Ok(to_data(self.parse_value(false)?))
    }

    /// Pratt-lite parser over `+ - * /` with unary minus, parentheses, array
    /// loads, `MAX`/`MIN` calls, loop variables and named constants.
    /// `affine_ctx` selects whether array loads are allowed.
    fn parse_value(&mut self, affine_ctx: bool) -> Result<Val, ParseError> {
        let mut lhs = self.parse_term(affine_ctx)?;
        loop {
            let op = if self.eat_punct("+") {
                '+'
            } else if self.eat_punct("-") {
                '-'
            } else {
                break;
            };
            let rhs = self.parse_term(affine_ctx)?;
            lhs = self.combine(lhs, rhs, op)?;
        }
        Ok(lhs)
    }

    fn parse_term(&mut self, affine_ctx: bool) -> Result<Val, ParseError> {
        let mut lhs = self.parse_factor(affine_ctx)?;
        loop {
            let op = if self.eat_punct("*") {
                '*'
            } else if self.eat_punct("/") {
                '/'
            } else {
                break;
            };
            let rhs = self.parse_factor(affine_ctx)?;
            lhs = self.combine(lhs, rhs, op)?;
        }
        Ok(lhs)
    }

    /// Checks every coefficient of an affine result against [`MAX_AFFINE`].
    /// Inputs are bounded by induction, so sums reach at most `2^41` and
    /// never overflow before this check runs; products are pre-checked with
    /// `checked_mul` in [`Parser::combine`].
    fn bounded_affine(&self, e: IdxExpr) -> Result<Val, ParseError> {
        let ok = (-MAX_AFFINE..=MAX_AFFINE).contains(&e.constant_term())
            && e.terms()
                .all(|(_, c)| (-MAX_AFFINE..=MAX_AFFINE).contains(&c));
        if ok {
            Ok(Val::Affine(e))
        } else {
            self.err(format!(
                "affine expression coefficients exceed the supported magnitude {MAX_AFFINE}"
            ))
        }
    }

    fn combine(&self, a: Val, b: Val, op: char) -> Result<Val, ParseError> {
        use Val::*;
        match (a, b, op) {
            (Affine(x), Affine(y), '+') => self.bounded_affine(affine_sum(x, &y, 1)),
            (Affine(x), Affine(y), '-') => self.bounded_affine(affine_sum(x, &y, -1)),
            (Affine(x), Affine(y), '*') => {
                let (e, k) = if y.is_constant() {
                    (x, y.constant_term())
                } else if x.is_constant() {
                    (y, x.constant_term())
                } else {
                    return self.err("product of two loop variables is not affine");
                };
                let in_range = |v: i64| (-MAX_AFFINE..=MAX_AFFINE).contains(&v);
                let fits = e.constant_term().checked_mul(k).is_some_and(in_range)
                    && e.terms()
                        .all(|(_, c)| c.checked_mul(k).is_some_and(in_range));
                if !fits {
                    return self.err(format!(
                        "affine expression coefficients exceed the supported magnitude {MAX_AFFINE}"
                    ));
                }
                Ok(Affine(e.scale(k)))
            }
            (Affine(x), Affine(y), '/') => {
                if y.is_constant() && x.is_constant() && y.constant_term() != 0 {
                    Ok(Affine(IdxExpr::constant(
                        x.constant_term() / y.constant_term(),
                    )))
                } else {
                    self.err("division is only allowed between constants")
                }
            }
            (a, b, op) => {
                // Mixed / data context: build an Expr tree.
                let (x, y) = (to_data(a), to_data(b));
                let bop = match op {
                    '+' => BinOp::Add,
                    '-' => BinOp::Sub,
                    '*' => BinOp::Mul,
                    '/' => BinOp::Div,
                    _ => unreachable!(),
                };
                Ok(Data(Expr::bin(bop, x, y)))
            }
        }
    }

    fn parse_factor(&mut self, affine_ctx: bool) -> Result<Val, ParseError> {
        self.expr_depth += 1;
        if self.expr_depth > MAX_EXPR_DEPTH {
            return self.err(format!(
                "expression nests deeper than the supported {MAX_EXPR_DEPTH} levels"
            ));
        }
        let r = self.parse_factor_inner(affine_ctx);
        self.expr_depth -= 1;
        r
    }

    fn parse_factor_inner(&mut self, affine_ctx: bool) -> Result<Val, ParseError> {
        if self.eat_punct("(") {
            let v = self.parse_value(affine_ctx)?;
            self.expect_punct(")")?;
            return Ok(v);
        }
        if self.eat_punct("-") {
            let v = self.parse_factor(affine_ctx)?;
            return Ok(match v {
                Val::Affine(e) => Val::Affine(e.scale(-1)),
                Val::Float(f) => Val::Float(-f),
                Val::Data(e) => Val::Data(Expr::Neg(Box::new(e))),
            });
        }
        match self.peek().kind {
            TokenKind::Int(v) => {
                self.bump();
                if !(-MAX_AFFINE..=MAX_AFFINE).contains(&v) {
                    return self.err(format!(
                        "integer literal {v} exceeds the supported magnitude {MAX_AFFINE}"
                    ));
                }
                Ok(Val::Affine(IdxExpr::constant(v)))
            }
            TokenKind::Float(v) => {
                self.bump();
                Ok(Val::Float(v))
            }
            TokenKind::Ident(name) => {
                self.bump();
                // MAX / MIN / fmax / fmin calls.
                let call = match name {
                    "MAX" | "fmax" | "fmaxf" => Some(BinOp::Max),
                    "MIN" | "fmin" | "fminf" => Some(BinOp::Min),
                    _ => None,
                };
                if let Some(op) = call.filter(|_| self.eat_punct("(")) {
                    let a = self.parse_value(false)?;
                    self.expect_punct(",")?;
                    let b = self.parse_value(false)?;
                    self.expect_punct(")")?;
                    return Ok(Val::Data(Expr::bin(op, to_data(a), to_data(b))));
                }
                if let Some(&(_, id)) = self.loops.iter().rev().find(|&&(v, _)| v == name) {
                    return Ok(Val::Affine(IdxExpr::var(id)));
                }
                if let Some(&v) = self.params.get(name) {
                    if !(-MAX_AFFINE..=MAX_AFFINE).contains(&v) {
                        return self.err(format!(
                            "parameter `{name}` value {v} exceeds the supported magnitude"
                        ));
                    }
                    return Ok(Val::Affine(IdxExpr::constant(v)));
                }
                if let Some(&(array, ndims)) = self.arrays.get(name) {
                    if affine_ctx {
                        return self.err(format!(
                            "array `{name}` cannot appear in an affine expression"
                        ));
                    }
                    let mut indices = Vec::new();
                    while self.eat_punct("[") {
                        indices.push(self.parse_affine()?);
                        self.expect_punct("]")?;
                    }
                    if indices.is_empty() {
                        return self.err(format!("array `{name}` used without indices"));
                    }
                    if indices.len() != ndims {
                        return self.err(format!(
                            "array `{name}` has {ndims} dimensions but {} indices",
                            indices.len()
                        ));
                    }
                    return Ok(Val::Data(Expr::load(array, indices)));
                }
                self.err(format!("unknown identifier `{name}`"))
            }
            other => self.err(format!("unexpected {other}")),
        }
    }
}

/// `x + sign·y` (`IdxExpr::add` / `IdxExpr::sub`), built on `x`'s own terms
/// instead of a copy of them.
fn affine_sum(x: IdxExpr, y: &IdxExpr, sign: i64) -> IdxExpr {
    y.terms()
        .fold(x.plus_const(sign * y.constant_term()), |e, (v, c)| {
            e.plus_var(v, sign * c)
        })
}

fn to_data(v: Val) -> Expr {
    match v {
        Val::Affine(e) => {
            if e.is_constant() {
                Expr::Const(e.constant_term() as f64)
            } else {
                Expr::Index(e)
            }
        }
        Val::Float(f) => Expr::Const(f),
        Val::Data(e) => e,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prem_ir::{run_program, DataStore, MemStore};

    #[test]
    fn parses_matvec_like_figure_2_3() {
        let src = r#"
            double a[100][100]; double b[100]; double c[100];
            for (int i = 0; i < 100; i++) {
                c[i] = 0.0;
                for (int j = 0; j < 100; j++) {
                    c[i] = c[i] + a[i][j] * b[j];
                }
            }
        "#;
        let p = parse_kernel("matvec", src, &[]).unwrap();
        assert_eq!(p.loop_count, 2);
        assert_eq!(p.stmt_count, 2);
        assert_eq!(p.instance_count(), 100 + 100 * 100);
    }

    #[test]
    fn parses_guards_and_params() {
        let src = r#"
            float x[16];
            for (int t = 0; t < NT; t++)
                if (t > 0)
                    x[t] = x[t - 1] + 1.0;
        "#;
        let p = parse_kernel("scan", src, &[("NT", 16)]).unwrap();
        assert_eq!(p.instance_count(), 15);
        let mut store = MemStore::zeroed(&p);
        run_program(&p, &mut store);
        assert_eq!(store.load(0, &[15]), 15.0);
    }

    #[test]
    fn parses_strided_loops() {
        let src = r#"
            float a[20];
            for (int i = 0; i < 20; i += 3)
                a[i] = 1.0;
        "#;
        let p = parse_kernel("s", src, &[]).unwrap();
        let l = p.loops_by_id().get(0).unwrap();
        assert_eq!(l.stride, 3);
        assert_eq!(l.count, 7);
    }

    #[test]
    fn parses_max_calls() {
        let src = r#"
            float o[4]; float x[8];
            for (int i = 0; i < 4; i++)
                o[i] = MAX(x[2 * i], x[2 * i + 1]);
        "#;
        let p = parse_kernel("m", src, &[]).unwrap();
        let mut store = MemStore::zeroed(&p);
        for j in 0..8 {
            store.store(1, &[j], (j as f64) * if j % 2 == 0 { 1.0 } else { -1.0 });
        }
        run_program(&p, &mut store);
        assert_eq!(store.load(0, &[1]), 2.0);
    }

    #[test]
    fn parsed_update_statements_are_recognized_as_reductions() {
        // Both update spellings must survive parsing in a shape
        // `Statement::reduction_op` recognizes: the spelled-out
        // `c[i] = c[i] + …` and an fmax accumulation.
        let src = r#"
            double a[8][16]; double c[8]; double m[8];
            for (int i = 0; i < 8; i++) {
                c[i] = 0.0;
                for (int j = 0; j < 16; j++) {
                    c[i] = c[i] + a[i][j];
                    m[i] = fmax(m[i], a[i][j]);
                }
            }
        "#;
        let p = parse_kernel("rowstats", src, &[]).unwrap();
        let hints = prem_ir::reduction_hints(&p);
        let c = p.array_id("c").unwrap();
        let m = p.array_id("m").unwrap();
        assert_eq!(
            hints.updates,
            vec![
                (1, c, prem_ir::ReduceOp::Add),
                (2, m, prem_ir::ReduceOp::Max)
            ]
        );
        assert_eq!(hints.inits, vec![(0, c)]);
    }

    #[test]
    fn rejects_non_affine_index() {
        let src = r#"
            float a[16];
            for (int i = 0; i < 4; i++)
                for (int j = 0; j < 4; j++)
                    a[i * j] = 0.0;
        "#;
        let e = parse_kernel("bad", src, &[]).unwrap_err();
        assert!(e.message.contains("not affine"), "{e}");
    }

    #[test]
    fn rejects_non_constant_bound() {
        let src = r#"
            float a[16]; float n[1];
            for (int i = 0; i < n; i++) a[i] = 0.0;
        "#;
        assert!(parse_kernel("bad", src, &[]).is_err());
    }

    #[test]
    fn rejects_unknown_identifier() {
        let e = parse_kernel("bad", "float a[4]; a[zz] = 0.0;", &[]).unwrap_err();
        assert!(e.message.contains("unknown identifier"));
    }

    /// The parser is a network-facing boundary in `prem-serve`: every
    /// malformed input must come back as a `ParseError`, never a panic.
    #[test]
    fn malformed_inputs_error_instead_of_panicking() {
        type Case = (&'static str, String, Vec<(&'static str, i64)>);
        let cases: Vec<Case> = vec![
            ("truncated for", "float a[4]; for (int i = 0".into(), vec![]),
            ("junk bytes", "float a[4]; ∆∆ a[0] = 1;".into(), vec![]),
            (
                "non-ascii letter",
                "float a[4]; a[0] = 1.0é;".into(),
                vec![],
            ),
            ("unknown param", "float a[4]; a[N] = 0.0;".into(), vec![]),
            (
                "overflowing literal",
                "float a[4]; for (int i = 0; i < 9223372036854775807; i++) a[i] = 0.0;".into(),
                vec![],
            ),
            (
                "overflowing param",
                "float a[4]; for (int i = 0; i < N; i++) a[i] = 0.0;".into(),
                vec![("N", i64::MAX)],
            ),
            (
                "coefficient overflow",
                "float a[4]; for (int i = 0; i < 4; i++) \
                 a[i * 1099511627776 * 1099511627776] = 0.0;"
                    .into(),
                vec![],
            ),
            ("zero dimension", "float a[0]; a[0] = 0.0;".into(), vec![]),
            (
                "huge array",
                "float a[100000][100000][100000]; a[0][0][0] = 0.0;".into(),
                vec![],
            ),
            (
                "duplicate array",
                "float a[4]; float a[8]; a[0] = 0.0;".into(),
                vec![],
            ),
            (
                "index arity mismatch",
                "float a[4][4]; a[1] = 0.0;".into(),
                vec![],
            ),
            (
                "huge loop nest",
                "float a[4]; \
                 for (int i = 0; i < 16000000; i++) \
                 for (int j = 0; j < 16000000; j++) \
                 for (int k = 0; k < 16000000; k++) a[0] = 0.0;"
                    .into(),
                vec![],
            ),
            (
                "deep statement nesting",
                {
                    let mut s = String::from("float a[4]; ");
                    for i in 0..100 {
                        s.push_str(&format!("for (int i{i} = 0; i{i} < 2; i{i}++) {{ "));
                    }
                    s.push_str("a[0] = 0.0; ");
                    s.push_str(&"} ".repeat(100));
                    s
                },
                vec![],
            ),
            (
                "deep expression nesting",
                format!(
                    "float a[4]; a[0] = {}1.0{};",
                    "(".repeat(5000),
                    ")".repeat(5000)
                ),
                vec![],
            ),
            (
                "deep unary minus",
                format!("float a[4]; a[0] = {}1.0;", "-".repeat(5000)),
                vec![],
            ),
        ];
        for (what, src, params) in cases {
            let r = parse_kernel("bad", &src, &params);
            assert!(r.is_err(), "{what}: expected a parse error");
        }
    }

    #[test]
    fn nesting_caps_do_not_reject_real_kernels() {
        // 32 nested loops with matching 32-dim array: well inside the caps.
        let mut s = String::from("float a");
        for _ in 0..32 {
            s.push_str("[2]");
        }
        s.push_str("; ");
        for i in 0..32 {
            s.push_str(&format!("for (int i{i} = 0; i{i} < 2; i{i}++) "));
        }
        s.push('a');
        for i in 0..32 {
            s.push_str(&format!("[i{i}]"));
        }
        s.push_str(" = 1.0;");
        let p = parse_kernel("deep_ok", &s, &[]).unwrap();
        assert_eq!(p.loop_count, 32);
    }

    #[test]
    fn parsed_cnn_matches_builder_cnn() {
        let src = r#"
            float out_F[1][4][6][6];
            float W[4][3][3][3];
            float inp_F[1][3][8][8];
            for (int n = 0; n < 1; n++)
              for (int k = 0; k < 4; k++)
                for (int p = 0; p < 6; p++)
                  for (int q = 0; q < 6; q++)
                    for (int c = 0; c < 3; c++)
                      for (int r = 0; r < NR; r++)
                        for (int s = 0; s < NS; s++)
                          out_F[n][k][p][q] += W[k][c][r][s]
                              * inp_F[n][c][p + NR - r - 1][q + NS - s - 1];
        "#;
        let parsed = parse_kernel("cnn", src, &[("NR", 3), ("NS", 3)]).unwrap();
        let built = prem_kernels::CnnConfig::small().build();
        // Same functional behaviour on identical inputs.
        let mut s1 = MemStore::patterned(&parsed);
        let mut s2 = MemStore::patterned(&built);
        run_program(&parsed, &mut s1);
        run_program(&built, &mut s2);
        assert_eq!(s1.max_abs_diff(&s2), 0.0);
    }
}
