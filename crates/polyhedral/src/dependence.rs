//! Dependence analysis with exact-or-interval distance vectors.
//!
//! This is the reproduction's substitute for the PPCG/isl dependence analysis
//! used by the paper (§2.2.2, §5.2.1). For every ordered pair of accesses to
//! the same array with at least one write, we derive the set of feasible
//! *distance vectors* `δ` over the shared loop prefix such that a source
//! instance at iteration `x` and a sink instance at `x + δ` touch the same
//! array element. For uniform affine access pairs the distance is exact; for
//! non-uniform pairs it is a conservative interval box (an over-approximation,
//! which can only forbid — never wrongly allow — a transformation).
//!
//! Each feasible box is then decomposed along the lexicographic order into
//! *carried* boxes (`δ_k = 0` for `k < ℓ`, `δ_ℓ ≥ 1`) plus an *equal* box
//! (`δ = 0`, textual order decides), mirroring how isl splits dependences by
//! the level that carries them.

use crate::domain::{AccessInfo, StmtPoly};
use crate::interval::Interval;
use std::collections::HashMap;
use std::fmt;

/// Classification of a dependence by the access kinds of source and sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// Write → read (true dependence).
    Flow,
    /// Read → write.
    Anti,
    /// Write → write.
    Output,
}

impl fmt::Display for DepKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DepKind::Flow => write!(f, "flow"),
            DepKind::Anti => write!(f, "anti"),
            DepKind::Output => write!(f, "output"),
        }
    }
}

/// Associative-commutative operator of a reduction update statement
/// (`a[..] += e`, `a[..] = max(a[..], e)`, `a[..] = min(a[..], e)`).
///
/// Reductions over these operators may be evaluated in any order, so a
/// dependence that only chains successive updates of the same accumulator
/// can be ignored for parallelization — provided each thread group gets a
/// private copy of the accumulator and the partials are merged with the same
/// operator afterwards (Polly-style reduction handling, arXiv:1505.07716).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// `+=` — merged by addition, identity `0.0`.
    Add,
    /// `max=` — merged by maximum, identity `-inf`.
    Max,
    /// `min=` — merged by minimum, identity `+inf`.
    Min,
}

impl ReduceOp {
    /// The operator's identity element: `combine(identity, x) == x`.
    pub fn identity(self) -> f64 {
        match self {
            ReduceOp::Add => 0.0,
            ReduceOp::Max => f64::NEG_INFINITY,
            ReduceOp::Min => f64::INFINITY,
        }
    }

    /// Applies the operator to two partials.
    pub fn combine(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Add => a + b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        }
    }
}

impl fmt::Display for ReduceOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReduceOp::Add => write!(f, "add"),
            ReduceOp::Max => write!(f, "max"),
            ReduceOp::Min => write!(f, "min"),
        }
    }
}

/// The loop level that carries a dependence box.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Carry {
    /// Carried at shared-prefix level `k` (`δ_k ≥ 1`, `δ_j = 0` for `j < k`).
    Level(usize),
    /// All shared distances are zero; textual order makes source precede sink.
    Equal,
}

/// One dependence box: a pair of statements, the array and accesses involved,
/// the carrying level and the interval distance vector over the shared loops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dependence {
    /// Source statement id.
    pub src: usize,
    /// Sink statement id.
    pub dst: usize,
    /// Array being accessed.
    pub array: usize,
    /// Index of the source access within the source statement.
    pub src_access: usize,
    /// Index of the sink access within the sink statement.
    pub dst_access: usize,
    /// Dependence kind.
    pub kind: DepKind,
    /// Which level carries the dependence.
    pub carry: Carry,
    /// Distance intervals over the shared loop prefix (`dst - src` iteration
    /// counters). `dist[k]` is exactly `[0,0]` for every level above the
    /// carrying level.
    pub dist: Vec<Interval>,
    /// Global loop ids of the shared prefix the distances refer to.
    pub shared: Vec<usize>,
    /// `Some(op)` when the dependence only chains associative-commutative
    /// updates of one accumulator (or connects such an update with its
    /// pinned initializer) and may therefore be ignored for parallelization
    /// under accumulator privatization. Set by [`analyze_dependences_with`]
    /// from IR-level [`ReductionHints`]; always `None` without hints.
    pub reduction: Option<ReduceOp>,
}

impl Dependence {
    /// Distance interval at shared level `k` (`[0,0]` past the vector end,
    /// since levels beyond the shared prefix have no defined distance —
    /// callers must not rely on out-of-range levels).
    pub fn dist_at(&self, k: usize) -> Interval {
        self.dist.get(k).copied().unwrap_or(Interval::zero())
    }

    /// Position of a global loop id within this dependence's shared prefix.
    pub fn level_of(&self, loop_var: usize) -> Option<usize> {
        self.shared.iter().position(|&v| v == loop_var)
    }
}

impl fmt::Display for Dependence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} S{} -> S{} on a{} δ=(",
            self.kind, self.src, self.dst, self.array
        )?;
        for (i, d) in self.dist.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

/// Internal: one linear equation over `(s, δ, x_priv, y_priv)` asserting the
/// equality of a source and sink index expression in one array dimension,
/// with every term but the `δ` terms bounded once: `Σ d_coeffs[k]·δ_k ∈
/// target`.
struct Equation {
    /// Coefficients on the distance variables (`b_k`).
    d_coeffs: Vec<i64>,
    /// Negated interval of the other terms — the source's shared counters
    /// (`b_k - a_k`), its private counters (`-a_m`), the sink's private
    /// counters (`b_m`) and the constant (`c_b - c_a`) — over the bounds.
    target: Interval,
}

/// Number of constraint-propagation sweeps used to tighten distance boxes.
const PROPAGATION_PASSES: usize = 3;

/// IR-level facts about reduction statements, fed into
/// [`analyze_dependences_with`] to mark reduction dependences.
///
/// The polyhedral layer cannot see operators — a [`StmtPoly`] only records
/// *which* elements a statement touches, not *how* it combines them. The IR
/// layer recognizes the update patterns (`a[..] += e` and the spelled-out
/// `a[..] = op(a[..], e)` forms) and passes them down here, where they are
/// matched against the computed dependence endpoints.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReductionHints {
    /// `(statement id, array id, operator)` of each recognized
    /// associative-commutative accumulator update.
    pub updates: Vec<(usize, usize, ReduceOp)>,
    /// `(statement id, array id)` of each statement that overwrites the
    /// array with a value loading nothing (a constant initializer). Inits
    /// are only folded into a reduction when their domain is pinned so they
    /// execute inside reduction group 0 (see [`analyze_dependences_with`]).
    pub inits: Vec<(usize, usize)>,
}

impl ReductionHints {
    /// True when no update statements were recognized.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }
}

/// Computes all dependence boxes of a program given as polyhedral statement
/// summaries.
///
/// The result is a conservative over-approximation of the value-based
/// dependences the paper computes with PPCG: memory-based (all pairs with at
/// least one write), with exact distances for uniform access pairs and
/// interval distances otherwise.
///
/// # Examples
///
/// ```
/// use prem_polyhedral::{analyze_dependences, AccessInfo, AffExpr, LoopInfo, StmtPoly};
///
/// // for i { for j { c[i] = c[i] + ... } }  — reduction over j
/// let acc_r = AccessInfo::read(0, vec![AffExpr::var(0, 2)]);
/// let acc_w = AccessInfo::write(0, vec![AffExpr::var(0, 2)]);
/// let s = StmtPoly {
///     id: 0,
///     loops: vec![LoopInfo::new(0, 10), LoopInfo::new(1, 10)],
///     guards: vec![],
///     position: vec![0, 0, 0],
///     accesses: vec![acc_r, acc_w],
/// };
/// let deps = analyze_dependences(std::slice::from_ref(&s));
/// // All dependences have distance 0 on i: i is parallel, j is not.
/// assert!(deps.iter().all(|d| d.dist_at(0).is_zero()));
/// assert!(deps.iter().any(|d| d.dist_at(1).lo >= 1));
/// ```
pub fn analyze_dependences(stmts: &[StmtPoly]) -> Vec<Dependence> {
    analyze_dependences_with(stmts, &ReductionHints::default())
}

/// [`analyze_dependences`] plus reduction classification: dependences that
/// only chain associative-commutative updates of one accumulator get their
/// [`Dependence::reduction`] marker set.
///
/// A dependence on array `A` is marked with operator `op` when some
/// recognized update statement `U` of `(A, op)` satisfies:
///
/// * at least one endpoint of the dependence is `U`, and
/// * the other endpoint is `U` itself, or an initializer of `A` whose
///   domain is *pinned*: every enclosing loop the update's write access
///   does not index must be restricted (by guards) to counter value `0`,
///   so the initializer executes inside reduction thread group 0 and the
///   privatized replicas can start from the operator's identity instead.
///
/// Everything else — in particular dependences connecting two *different*
/// update statements, or an update with an unrelated reader of the
/// accumulated value — keeps `reduction: None` and constrains
/// parallelization exactly as before. With empty hints the result is
/// identical to [`analyze_dependences`].
pub fn analyze_dependences_with(stmts: &[StmtPoly], hints: &ReductionHints) -> Vec<Dependence> {
    // Per array, the positions in `stmts` of the statements that access it
    // and of those that write it, ascending.
    #[derive(Default)]
    struct Users {
        all: Vec<usize>,
        writers: Vec<usize>,
    }
    let mut users: HashMap<usize, Users> = HashMap::new();
    for (i, s) in stmts.iter().enumerate() {
        for acc in &s.accesses {
            let u = users.entry(acc.array).or_default();
            if u.all.last() != Some(&i) {
                u.all.push(i);
            }
            if acc.is_write && u.writers.last() != Some(&i) {
                u.writers.push(i);
            }
        }
    }
    let bounds: Vec<Vec<Interval>> = stmts.iter().map(StmtPoly::tightened_bounds).collect();
    // Only a statement that shares an array with `a`, one of the two
    // writing it, can depend on `a`: a write pairs with every user, a read
    // with the writers. Partners are visited in `stmts` order, so the output
    // is the all-pairs loop's, element for element.
    let mut deps = Vec::new();
    let mut partners = Vec::new();
    for (i, a) in stmts.iter().enumerate() {
        partners.clear();
        for acc in &a.accesses {
            let u = &users[&acc.array];
            partners.extend_from_slice(if acc.is_write { &u.all } else { &u.writers });
        }
        partners.sort_unstable();
        partners.dedup();
        for &j in &partners {
            pair_dependences((a, &bounds[i]), (&stmts[j], &bounds[j]), &mut deps);
        }
    }
    classify_reductions(&mut deps, stmts, hints);
    deps
}

/// The dependence boxes from statement `a` (source) to statement `b`
/// (sink), access pair by access pair, without reduction markers — one
/// step of the all-pairs loop that [`analyze_dependences_with`] restricts
/// to statements sharing an array.
pub fn dependences_between(a: &StmtPoly, b: &StmtPoly) -> Vec<Dependence> {
    let mut out = Vec::new();
    let (sa, sb) = (a.tightened_bounds(), b.tightened_bounds());
    pair_dependences((a, &sa), (b, &sb), &mut out);
    out
}

/// Sets the [`Dependence::reduction`] marker of every dependence under
/// `hints`; see [`analyze_dependences_with`] for the rule.
pub fn classify_reductions(deps: &mut [Dependence], stmts: &[StmtPoly], hints: &ReductionHints) {
    if hints.is_empty() {
        return;
    }
    // Statements by id, indexed once; the first of a repeated id wins.
    let mut by_id: HashMap<usize, &StmtPoly> = HashMap::with_capacity(stmts.len());
    for s in stmts {
        by_id.entry(s.id).or_insert(s);
    }
    for dep in deps {
        dep.reduction = classify_reduction(dep, &by_id, hints);
    }
}

/// Decides whether `dep` is a reduction dependence under `hints`; see
/// [`analyze_dependences_with`] for the rule.
fn classify_reduction(
    dep: &Dependence,
    stmts: &HashMap<usize, &StmtPoly>,
    hints: &ReductionHints,
) -> Option<ReduceOp> {
    for &(u, arr, op) in &hints.updates {
        if arr != dep.array || (dep.src != u && dep.dst != u) {
            continue;
        }
        let endpoints_ok = [dep.src, dep.dst]
            .iter()
            .all(|&e| e == u || is_pinned_init(e, arr, u, stmts, hints));
        if endpoints_ok {
            return Some(op);
        }
    }
    None
}

/// True when statement `init` is a recognized initializer of array `arr`
/// whose domain is pinned to reduction group 0 relative to update `upd`:
/// along every enclosing loop the update's write access does not index, the
/// initializer's guard-tightened bounds must be exactly `[0, 0]`.
fn is_pinned_init(
    init: usize,
    arr: usize,
    upd: usize,
    stmts: &HashMap<usize, &StmtPoly>,
    hints: &ReductionHints,
) -> bool {
    if !hints.inits.contains(&(init, arr)) {
        return false;
    }
    let (Some(init_s), Some(upd_s)) = (stmts.get(&init), stmts.get(&upd)) else {
        return false;
    };
    let Some(write) = upd_s.accesses.iter().find(|a| a.is_write && a.array == arr) else {
        return false;
    };
    let bounds = init_s.tightened_bounds();
    init_s.loops.iter().enumerate().all(|(k, l)| {
        let indexed = upd_s
            .loops
            .iter()
            .position(|ul| ul.var == l.var)
            .is_some_and(|pos| write.indices.iter().any(|ix| ix.coeff(pos) != 0));
        indexed || bounds[k] == Interval::point(0)
    })
}

/// Appends the boxes of every access pair of `a` (source) and `b` (sink)
/// that touch one array, at least one of them writing it; each statement
/// comes with its guard-tightened counter bounds.
fn pair_dependences(
    (a, a_bounds): (&StmtPoly, &[Interval]),
    (b, b_bounds): (&StmtPoly, &[Interval]),
    out: &mut Vec<Dependence>,
) {
    let end = |stmt, bounds, access, index| End {
        stmt,
        bounds,
        access,
        index,
    };
    for (pa, acc_a) in a.accesses.iter().enumerate() {
        for (pb, acc_b) in b.accesses.iter().enumerate() {
            if acc_a.array != acc_b.array || (!acc_a.is_write && !acc_b.is_write) {
                continue;
            }
            dependence_pair(
                end(a, a_bounds, acc_a, pa),
                end(b, b_bounds, acc_b, pb),
                out,
            );
        }
    }
}

/// One end of an access pair: the statement, its guard-tightened counter
/// bounds, the access and its index within the statement.
#[derive(Clone, Copy)]
struct End<'a> {
    stmt: &'a StmtPoly,
    bounds: &'a [Interval],
    access: &'a AccessInfo,
    index: usize,
}

/// Appends the lex-decomposed dependence boxes of one ordered access pair
/// (nothing when the accesses can never conflict).
fn dependence_pair(src: End, dst: End, out: &mut Vec<Dependence>) {
    let (a, b) = (src.stmt, dst.stmt);
    let (s_bounds, t_bounds) = (src.bounds, dst.bounds);
    if s_bounds.iter().any(Interval::is_empty) || t_bounds.iter().any(Interval::is_empty) {
        return;
    }
    let shared_len = a.shared_prefix_len(b);

    // Initial distance box: δ_k = y_k - x_k over the loops' bounds.
    let mut dist: Vec<Interval> = (0..shared_len).map(|k| t_bounds[k] - s_bounds[k]).collect();

    // Build equations from each array dimension.
    let equations = build_equations(src, dst, shared_len);
    if !propagate(&equations, &mut dist) {
        return;
    }

    let kind = match (src.access.is_write, dst.access.is_write) {
        (true, false) => DepKind::Flow,
        (false, true) => DepKind::Anti,
        (true, true) => DepKind::Output,
        (false, false) => unreachable!("filtered by caller"),
    };
    let shared: Vec<usize> = a.loops[..shared_len].iter().map(|l| l.var).collect();
    let dep = |carry, dist| Dependence {
        src: a.id,
        dst: b.id,
        array: src.access.array,
        src_access: src.index,
        dst_access: dst.index,
        kind,
        carry,
        dist,
        shared: shared.clone(),
        reduction: None,
    };

    // Carried boxes: δ_j = 0 for j < ℓ, δ_ℓ ≥ 1.
    for level in 0..shared_len {
        // The prefix must be able to be zero.
        if dist[..level].iter().any(|d| !d.contains(0)) {
            break;
        }
        let mut boxed = dist.clone();
        for d in boxed.iter_mut().take(level) {
            *d = Interval::zero();
        }
        boxed[level] = boxed[level].intersect(&Interval::new(1, i64::MAX));
        if boxed[level].is_empty() {
            continue;
        }
        if !propagate(&equations, &mut boxed) {
            continue;
        }
        out.push(dep(Carry::Level(level), boxed));
    }

    // Equal box: all δ = 0, textual order decides, and statements distinct
    // (intra-instance effects are atomic at statement granularity).
    if a.id != b.id && dist.iter().all(|d| d.contains(0)) && a.textually_before(b) {
        let mut boxed: Vec<Interval> = vec![Interval::zero(); shared_len];
        if propagate(&equations, &mut boxed) {
            out.push(dep(Carry::Equal, boxed));
        }
    }
}

/// Builds one [`Equation`] per array dimension of the access pair.
fn build_equations(src: End, dst: End, shared_len: usize) -> Vec<Equation> {
    src.access
        .indices
        .iter()
        .zip(dst.access.indices.iter())
        .map(|(ea, eb)| {
            let terms = (0..shared_len)
                .map(|k| (eb.coeff(k) - ea.coeff(k), src.bounds[k]))
                .chain((shared_len..src.bounds.len()).map(|m| (-ea.coeff(m), src.bounds[m])))
                .chain((shared_len..dst.bounds.len()).map(|m| (eb.coeff(m), dst.bounds[m])));
            let mut rest = Interval::point(eb.constant_term() - ea.constant_term());
            for (c, b) in terms {
                if c != 0 {
                    rest = rest + b.scale(c);
                }
            }
            Equation {
                d_coeffs: (0..shared_len).map(|k| eb.coeff(k)).collect(),
                target: rest.neg(),
            }
        })
        .collect()
}

/// Interval constraint propagation: tightens the distance box against every
/// equation. Returns `false` if the system is infeasible.
fn propagate(equations: &[Equation], dist: &mut [Interval]) -> bool {
    for _ in 0..PROPAGATION_PASSES {
        for eq in equations {
            // Σ d_coeffs[k]·δ_k ∈ target
            let live = |k: &usize| eq.d_coeffs[*k] != 0;
            if !(0..dist.len()).any(|k| live(&k)) {
                if !eq.target.contains(0) {
                    return false;
                }
                continue;
            }
            for k in (0..dist.len()).filter(live) {
                // δ_k ∈ (target - Σ_{j≠k} c_j·δ_j) / c_k
                let mut others = Interval::point(0);
                for j in (0..dist.len()).filter(live) {
                    if j != k {
                        others = others + dist[j].scale(eq.d_coeffs[j]);
                    }
                }
                let residual = eq.target - others;
                let solved = residual.div_exact_solutions(eq.d_coeffs[k]);
                dist[k] = dist[k].intersect(&solved);
                if dist[k].is_empty() {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::AffExpr;
    use crate::domain::{Guard, LoopInfo};

    /// `for i in 0..n { for j in 0..n { c[i] = c[i] + a[i][j]*b[j] } }`
    fn matvec_stmt(n: i64) -> StmtPoly {
        StmtPoly {
            id: 0,
            loops: vec![LoopInfo::new(0, n), LoopInfo::new(1, n)],
            guards: vec![],
            position: vec![0, 0, 0],
            accesses: vec![
                AccessInfo::read(0, vec![AffExpr::var(0, 2)]),
                AccessInfo::write(0, vec![AffExpr::var(0, 2)]),
                AccessInfo::read(1, vec![AffExpr::var(0, 2), AffExpr::var(1, 2)]),
                AccessInfo::read(2, vec![AffExpr::var(1, 2)]),
            ],
        }
    }

    #[test]
    fn matvec_reduction_dependences() {
        let s = matvec_stmt(100);
        let deps = analyze_dependences(std::slice::from_ref(&s));
        assert!(!deps.is_empty());
        // Every dependence keeps i fixed.
        for d in &deps {
            assert!(d.dist_at(0).is_zero(), "dep {d} moves along i");
        }
        // The reduction is carried at j with distance >= 1.
        assert!(deps
            .iter()
            .any(|d| matches!(d.carry, Carry::Level(1)) && d.dist_at(1).lo >= 1));
        // No Equal deps: single statement.
        assert!(deps.iter().all(|d| d.carry != Carry::Equal));
    }

    #[test]
    fn stencil_shift_exact_distance() {
        // for i in 1..n: a[i] = a[i-1]
        // Normalized counter t in 0..n-1, write a[t+1], read a[t].
        let s = StmtPoly {
            id: 0,
            loops: vec![LoopInfo::new(0, 99)],
            guards: vec![],
            position: vec![0, 0],
            accesses: vec![
                AccessInfo::write(0, vec![AffExpr::var(0, 1).add_const(1)]),
                AccessInfo::read(0, vec![AffExpr::var(0, 1)]),
            ],
        };
        let deps = analyze_dependences(std::slice::from_ref(&s));
        // Flow: write a[t+1] at t, read a[t'] at t' where t' = t+1 → δ = 1.
        let flow: Vec<_> = deps.iter().filter(|d| d.kind == DepKind::Flow).collect();
        assert!(!flow.is_empty());
        for d in flow {
            assert_eq!(d.dist_at(0), Interval::point(1), "{d}");
        }
    }

    #[test]
    fn disjoint_accesses_no_dependence() {
        // for i in 0..10: a[i] = a[i + 100]  (regions never overlap)
        let s = StmtPoly {
            id: 0,
            loops: vec![LoopInfo::new(0, 10)],
            guards: vec![],
            position: vec![0, 0],
            accesses: vec![
                AccessInfo::write(0, vec![AffExpr::var(0, 1)]),
                AccessInfo::read(0, vec![AffExpr::var(0, 1).add_const(100)]),
            ],
        };
        let deps = analyze_dependences(std::slice::from_ref(&s));
        assert!(deps.is_empty(), "got {deps:?}");
    }

    #[test]
    fn textual_order_gives_equal_dependence() {
        // for i { s0: x[i] = ...; s1: ... = x[i]; }
        let s0 = StmtPoly {
            id: 0,
            loops: vec![LoopInfo::new(0, 10)],
            guards: vec![],
            position: vec![0, 0],
            accesses: vec![AccessInfo::write(0, vec![AffExpr::var(0, 1)])],
        };
        let s1 = StmtPoly {
            id: 1,
            loops: vec![LoopInfo::new(0, 10)],
            guards: vec![],
            position: vec![0, 1],
            accesses: vec![AccessInfo::read(0, vec![AffExpr::var(0, 1)])],
        };
        let deps = analyze_dependences(&[s0, s1]);
        let equal: Vec<_> = deps
            .iter()
            .filter(|d| d.carry == Carry::Equal && d.kind == DepKind::Flow)
            .collect();
        assert_eq!(equal.len(), 1);
        assert_eq!(equal[0].src, 0);
        assert_eq!(equal[0].dst, 1);
        // And no Equal flow dep in the reverse direction.
        assert!(!deps
            .iter()
            .any(|d| d.carry == Carry::Equal && d.src == 1 && d.dst == 0));
    }

    #[test]
    fn guard_restricts_dependence() {
        // s0 (under p == 0): i[s1] = 0 ; s1: i[s1] += ...
        // Both in loops (s1, p). Flow from s0 to s1 exists; also deps carried
        // at p for the reduction.
        let guard = Guard::eq(AffExpr::var(1, 2));
        let s0 = StmtPoly {
            id: 0,
            loops: vec![LoopInfo::new(0, 8), LoopInfo::new(1, 8)],
            guards: vec![guard],
            position: vec![0, 0, 0],
            accesses: vec![AccessInfo::write(0, vec![AffExpr::var(0, 2)])],
        };
        let s1 = StmtPoly {
            id: 1,
            loops: vec![LoopInfo::new(0, 8), LoopInfo::new(1, 8)],
            guards: vec![],
            position: vec![0, 0, 1],
            accesses: vec![
                AccessInfo::read(0, vec![AffExpr::var(0, 2)]),
                AccessInfo::write(0, vec![AffExpr::var(0, 2)]),
            ],
        };
        let deps = analyze_dependences(&[s0, s1]);
        // All deps keep s1 (the outer loop) fixed at distance 0.
        for d in &deps {
            assert!(d.dist_at(0).is_zero(), "{d}");
        }
        // Flow s0 → s1 exists at Equal (same iteration, textual order).
        assert!(deps
            .iter()
            .any(|d| d.src == 0 && d.dst == 1 && d.carry == Carry::Equal));
    }

    #[test]
    fn reduction_hints_mark_update_self_deps() {
        // matvec: c[i] = c[i] + ... — a += reduction over j on array 0.
        let s = matvec_stmt(100);
        let hints = ReductionHints {
            updates: vec![(0, 0, ReduceOp::Add)],
            inits: vec![],
        };
        let deps = analyze_dependences_with(std::slice::from_ref(&s), &hints);
        assert!(!deps.is_empty());
        // Every dependence here chains the update with itself → all marked.
        for d in &deps {
            assert_eq!(d.reduction, Some(ReduceOp::Add), "{d}");
        }
        // Without hints nothing is marked and everything else is identical.
        let plain = analyze_dependences(std::slice::from_ref(&s));
        assert_eq!(plain.len(), deps.len());
        for (p, h) in plain.iter().zip(&deps) {
            assert_eq!(p.reduction, None);
            assert_eq!(
                (p.src, p.dst, p.kind, p.carry, &p.dist),
                (h.src, h.dst, h.kind, h.carry, &h.dist)
            );
        }
    }

    #[test]
    fn pinned_init_joins_reduction_unpinned_does_not() {
        // s0 (init, guarded p == 0): acc[s1] = 0 ; s1: acc[s1] += ...
        // over loops (s1, p). The guard pins p to [0,0], so init↔update
        // dependences are reduction dependences. Dropping the guard leaves
        // the init executing at every p — then only update self-deps keep
        // the marker.
        let make = |guards: Vec<Guard>| {
            let s0 = StmtPoly {
                id: 0,
                loops: vec![LoopInfo::new(0, 8), LoopInfo::new(1, 8)],
                guards,
                position: vec![0, 0, 0],
                accesses: vec![AccessInfo::write(0, vec![AffExpr::var(0, 2)])],
            };
            let s1 = StmtPoly {
                id: 1,
                loops: vec![LoopInfo::new(0, 8), LoopInfo::new(1, 8)],
                guards: vec![],
                position: vec![0, 0, 1],
                accesses: vec![
                    AccessInfo::read(0, vec![AffExpr::var(0, 2)]),
                    AccessInfo::write(0, vec![AffExpr::var(0, 2)]),
                ],
            };
            vec![s0, s1]
        };
        let hints = ReductionHints {
            updates: vec![(1, 0, ReduceOp::Add)],
            inits: vec![(0, 0)],
        };

        let pinned = analyze_dependences_with(&make(vec![Guard::eq(AffExpr::var(1, 2))]), &hints);
        assert!(pinned.iter().any(|d| d.src != d.dst));
        for d in &pinned {
            assert_eq!(d.reduction, Some(ReduceOp::Add), "{d}");
        }

        let unpinned = analyze_dependences_with(&make(vec![]), &hints);
        for d in &unpinned {
            let expect = if d.src == 1 && d.dst == 1 {
                Some(ReduceOp::Add)
            } else {
                None
            };
            assert_eq!(d.reduction, expect, "{d}");
        }
    }

    #[test]
    fn unrelated_reader_is_not_a_reduction_dep() {
        // s0: acc[i] += x ; s1: y[i] = acc[i] — the read in s1 observes the
        // running partial, so s0↔s1 dependences must keep blocking.
        let s0 = StmtPoly {
            id: 0,
            loops: vec![LoopInfo::new(0, 8), LoopInfo::new(1, 8)],
            guards: vec![],
            position: vec![0, 0, 0],
            accesses: vec![
                AccessInfo::read(0, vec![AffExpr::var(0, 2)]),
                AccessInfo::write(0, vec![AffExpr::var(0, 2)]),
            ],
        };
        let s1 = StmtPoly {
            id: 1,
            loops: vec![LoopInfo::new(0, 8), LoopInfo::new(1, 8)],
            guards: vec![],
            position: vec![0, 0, 1],
            accesses: vec![
                AccessInfo::read(0, vec![AffExpr::var(0, 2)]),
                AccessInfo::write(1, vec![AffExpr::var(0, 2)]),
            ],
        };
        let hints = ReductionHints {
            updates: vec![(0, 0, ReduceOp::Add)],
            inits: vec![],
        };
        let deps = analyze_dependences_with(&[s0, s1], &hints);
        assert!(deps.iter().any(|d| d.src == 0 && d.dst == 1));
        for d in &deps {
            let expect = if d.src == 0 && d.dst == 0 {
                Some(ReduceOp::Add)
            } else {
                None
            };
            assert_eq!(d.reduction, expect, "{d}");
        }
    }

    #[test]
    fn non_uniform_access_gives_interval() {
        // for i { for r { out[i] = out[i] + in[i + 2 - r] } } with r in 0..3:
        // the `in` array is read-only so deps come only from `out`; they are
        // carried at r with exact distances, i stays 0.
        let s = StmtPoly {
            id: 0,
            loops: vec![LoopInfo::new(0, 10), LoopInfo::new(1, 3)],
            guards: vec![],
            position: vec![0, 0, 0],
            accesses: vec![
                AccessInfo::read(0, vec![AffExpr::var(0, 2)]),
                AccessInfo::write(0, vec![AffExpr::var(0, 2)]),
                AccessInfo::read(
                    1,
                    vec![AffExpr::var(0, 2)
                        .sub(&AffExpr::var(1, 2).with_coeff(0, 0))
                        .add_const(2)],
                ),
            ],
        };
        let deps = analyze_dependences(std::slice::from_ref(&s));
        for d in &deps {
            assert!(d.dist_at(0).is_zero());
        }
        assert!(deps
            .iter()
            .any(|d| matches!(d.carry, Carry::Level(1)) && d.dist_at(1).lo >= 1));
    }
}
