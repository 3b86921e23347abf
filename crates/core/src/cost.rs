//! Execution-cost providers.
//!
//! The optimizer needs an [`ExecModel`] per component (§4.2). The paper
//! obtains it by profiling the kernel on gem5 and fitting the analytic model;
//! in this reproduction the `prem-sim` crate plays the role of gem5 and the
//! fitting lives in [`crate::timing::fit_exec_model`]. [`AnalyticCost`] is
//! the deterministic fallback that derives the model directly from the IR's
//! operation counts — handy for tests and for the ideal-case baseline.

use crate::component::Component;
use crate::timing::ExecModel;

/// Supplies execution-time models and per-statement instance costs.
pub trait CostProvider {
    /// The execution model of one component (per-level iteration overheads
    /// and innermost worst-case time, in ns).
    fn exec_model(&self, component: &Component) -> ExecModel;

    /// Worst-case time of a single instance of statement `stmt` in ns (used
    /// for statements outside any tilable component).
    fn stmt_instance_ns(&self, stmt: usize) -> f64;

    /// Control overhead of one loop iteration in ns (used by the ideal
    /// single-core baseline).
    fn loop_iter_ns(&self) -> f64;
}

/// A deterministic cost model derived from IR operation counts: every
/// arithmetic operation costs `ns_per_op`, every statement instance pays
/// `instance_overhead_ns`, every loop iteration pays `loop_overhead_ns`.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyticCost {
    /// ns per arithmetic operation (including the implied loads/stores).
    pub ns_per_op: f64,
    /// ns of control overhead per loop iteration at every level.
    pub loop_overhead_ns: f64,
    /// ns of fixed overhead per statement instance.
    pub instance_overhead_ns: f64,
    /// Operation count per statement id.
    ops: Vec<u64>,
}

impl AnalyticCost {
    /// Builds the provider for a program with default in-order-core-like
    /// constants (2 ns/op, 2 ns/iteration, 1 ns/instance at 1 GHz).
    pub fn new(program: &prem_ir::Program) -> Self {
        Self::with_params(program, 2.0, 2.0, 1.0)
    }

    /// Builds the provider with explicit constants.
    pub fn with_params(
        program: &prem_ir::Program,
        ns_per_op: f64,
        loop_overhead_ns: f64,
        instance_overhead_ns: f64,
    ) -> Self {
        let mut ops = vec![0u64; program.stmt_count];
        program.visit_statements(|s, _, _| {
            ops[s.id] = s.op_count();
        });
        AnalyticCost {
            ns_per_op,
            loop_overhead_ns,
            instance_overhead_ns,
            ops,
        }
    }
}

impl CostProvider for AnalyticCost {
    fn exec_model(&self, component: &Component) -> ExecModel {
        let w: f64 = component
            .work
            .iter()
            .map(|wk| {
                wk.instances_per_iter as f64
                    * (wk.ops_per_instance as f64 * self.ns_per_op + self.instance_overhead_ns)
            })
            .sum::<f64>()
            + component.folded_iters_per_iter as f64 * self.loop_overhead_ns;
        ExecModel {
            o: vec![self.loop_overhead_ns; component.depth()],
            w,
        }
    }

    fn stmt_instance_ns(&self, stmt: usize) -> f64 {
        self.ops.get(stmt).copied().unwrap_or(0) as f64 * self.ns_per_op + self.instance_overhead_ns
    }

    fn loop_iter_ns(&self) -> f64 {
        self.loop_overhead_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::looptree::LoopTree;
    use prem_ir::{AssignKind, ElemType, Expr, IdxExpr, ProgramBuilder};

    #[test]
    fn analytic_cost_from_ops() {
        let mut b = ProgramBuilder::new("k");
        let a = b.array("a", vec![16, 16], ElemType::F32);
        let x = b.array("x", vec![16, 16], ElemType::F32);
        let i = b.begin_loop("i", 0, 1, 16);
        let j = b.begin_loop("j", 0, 1, 16);
        b.stmt(
            a,
            vec![IdxExpr::var(i), IdxExpr::var(j)],
            AssignKind::AddAssign,
            Expr::mul(
                Expr::load(x, vec![IdxExpr::var(i), IdxExpr::var(j)]),
                Expr::Const(2.0),
            ),
        );
        b.end_loop();
        b.end_loop();
        let program = b.finish();
        let tree = LoopTree::build(&program).unwrap();
        let comp = crate::component::Component::extract(
            &tree,
            &program,
            &[&tree.roots[0], &tree.roots[0].children[0]],
        );
        let cost = AnalyticCost::new(&program);
        let m = cost.exec_model(&comp);
        // 2 ops (mul + implicit add) × 2 ns + 1 ns instance = 5 ns.
        assert!((m.w - 5.0).abs() < 1e-9);
        assert_eq!(m.o, vec![2.0, 2.0]);
        assert!((cost.stmt_instance_ns(0) - 5.0).abs() < 1e-9);
    }
}
