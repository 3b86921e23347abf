//! Plain C emission of the original (untransformed) kernel, and the node
//! walk every emitter shares.

use crate::cexpr::{CProgram, Pad, Rewrite};
use prem_ir::{Loop, Node, Program};
use std::convert::Infallible;

/// Emits the original program as a C function `void <name>_original(void)`
/// over globally declared arrays.
pub fn emit_original_c(program: &Program) -> String {
    let c = CProgram::new(program);
    let mut out = String::from(
        "#include <stdint.h>\n#include <float.h>\n\n\
         #define MAX(a, b) ((a) > (b) ? (a) : (b))\n\
         #define MIN(a, b) ((a) < (b) ? (a) : (b))\n\n",
    );
    emit_arrays(&mut out, program);
    w!(&mut out, "\nvoid {}_original(void) {{\n", program.name);
    emit_block(&c, &program.body, 1, &c.identity(), &mut out);
    out.push_str("}\n");
    out
}

/// Declares every array of the program, one per line.
pub(crate) fn emit_arrays(out: &mut String, program: &Program) {
    for a in &program.arrays {
        w!(out, "{a};\n");
    }
}

/// [`emit_nodes`] with every loop printed as a plain loop.
pub(crate) fn emit_block(
    c: &CProgram,
    nodes: &[Node],
    indent: usize,
    rewrite: &impl Rewrite,
    out: &mut String,
) {
    let mut plain = |_: &mut String, _: &Loop, _: usize| Ok::<_, Infallible>(false);
    let Ok(()) = emit_nodes(c, nodes, indent, rewrite, &mut plain, out);
}

/// Emits `nodes` as C at `indent`, accesses through `rewrite`. A loop that
/// `component` claims — it returns `Ok(true)` after emitting the component
/// that loop starts — is not printed again; every other loop, guard and
/// statement is printed as is.
pub(crate) fn emit_nodes<E>(
    c: &CProgram,
    nodes: &[Node],
    indent: usize,
    rewrite: &impl Rewrite,
    component: &mut impl FnMut(&mut String, &Loop, usize) -> Result<bool, E>,
    out: &mut String,
) -> Result<(), E> {
    let pad = Pad(indent);
    for n in nodes {
        match n {
            Node::Loop(l) => {
                if component(out, l, indent)? {
                    continue;
                }
                let (v, b, e, s) = (&l.name, l.begin, l.last(), l.stride);
                w!(out, "{pad}for (int {v} = {b}; {v} <= {e}; {v} += {s}) {{\n");
                emit_nodes(c, &l.body, indent + 1, rewrite, component, out)?;
                w!(out, "{pad}}}\n");
            }
            Node::If(i) => {
                w!(out, "{pad}if (");
                c.cond(out, &i.cond);
                out.push_str(") {\n");
                emit_nodes(c, &i.body, indent + 1, rewrite, component, out)?;
                w!(out, "{pad}}}\n");
            }
            Node::Stmt(s) => {
                w!(out, "{pad}");
                c.stmt(out, s, rewrite);
                out.push('\n');
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use prem_kernels::CnnConfig;

    #[test]
    fn cnn_emits_compilable_shape() {
        let p = CnnConfig::small().build();
        let c = emit_original_c(&p);
        assert!(c.contains("void cnn_original(void)"));
        assert!(c.contains("float out_F[1][4][6][6];"));
        assert!(c.contains("for (int n = 0; n <= 0; n += 1)"));
        assert!(c.contains("out_F[n][k][p][q] +="));
        // Balanced braces.
        assert_eq!(c.matches('{').count(), c.matches('}').count());
    }
}
