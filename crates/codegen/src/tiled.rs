//! Emission of the *tiled-only* intermediate form — the Listing 3.2 stage of
//! the compilation flow, before PREM API insertion: per-thread tiled loops
//! with the `threadID()`-derived group bounds, plus the original element
//! loops and statements (main-memory accesses, no buffers).

use crate::cexpr::{join, CProgram, Pad};
use crate::original::{emit_arrays, emit_block};
use crate::prem::{
    close_loops, emit_body, emit_element_loops, innermost_body, starts, EmitComponent, EmitError,
};
use prem_core::Platform;
use prem_ir::Program;

/// Emits the tiled (but not yet PREM-ized) program, Listing 3.2 style.
///
/// # Errors
///
/// Returns [`EmitError`] if a component has no levels or its innermost loop
/// is missing from the program.
pub fn emit_tiled_c(
    program: &Program,
    components: &[EmitComponent],
    _platform: &Platform,
) -> Result<String, EmitError> {
    let mut out = String::from(
        "#include <stdint.h>\n#include <float.h>\n\n\
         #define MAX(a, b) ((a) > (b) ? (a) : (b))\n\
         #define MIN(a, b) ((a) < (b) ? (a) : (b))\n\
         extern int threadID(void);\n\n",
    );
    emit_arrays(&mut out, program);
    w!(&mut out, "\nvoid {}_tiled(void) {{\n", program.name);
    emit_body(
        &CProgram::new(program),
        &starts(components)?,
        &mut out,
        emit_tiled_component,
    )?;
    out.push_str("}\n");
    Ok(out)
}

fn emit_tiled_component(
    c: &CProgram,
    out: &mut String,
    ec: &EmitComponent,
    indent: usize,
) -> Result<(), EmitError> {
    let (comp, sol) = (&ec.component, &ec.solution);
    let depth = comp.depth();
    w!(out, "{}/* tiled component (", Pad(indent));
    join(out, ", ", &comp.levels, |out, lv| out.push_str(&lv.name));
    w!(out, ") — {sol} */\n");

    let (m, z) = (sol.m(comp), sol.z(comp));
    for (j, lv) in comp.levels.iter().enumerate() {
        let (p, n) = (Pad(indent + j), &lv.name);
        let prod_from_j: i64 = sol.r[j..].iter().product();
        let prod_after_j: i64 = sol.r[j + 1..].iter().product();
        w!(
            out,
            "{p}for (int {n}_t = ((threadID() % {prod_from_j}) / {prod_after_j})*{zj}; {n}_t < MIN({mj}, ((threadID() % {prod_from_j}) / {prod_after_j} + 1)*{zj}); {n}_t++) {{\n",
            zj = z[j],
            mj = m[j]
        );
    }
    emit_element_loops(out, ec, indent + depth);

    let body = innermost_body(c, comp)?;
    emit_block(c, body, indent + 2 * depth, &c.identity(), out);
    close_loops(out, indent, 2 * depth);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use prem_core::{Component, LoopTree, Solution};

    #[test]
    fn tiled_lstm_matches_listing_3_2_structure() {
        let program = prem_kernels::LstmConfig {
            nt: 10,
            ns: 650,
            np: 700,
        }
        .build();
        let tree = LoopTree::build(&program).unwrap();
        let t = &tree.roots[0];
        let comp = Component::extract(
            &tree,
            &program,
            &[&t.children[0], &t.children[0].children[0]],
        );
        let ec = EmitComponent {
            component: comp,
            solution: Solution {
                k: vec![109, 350],
                r: vec![3, 1],
            },
        };
        let platform = Platform::default().with_cores(3);
        let code = emit_tiled_c(&program, std::slice::from_ref(&ec), &platform).unwrap();
        // Listing 3.2's structure: thread-derived tiled bounds and
        // MIN-clipped element loops.
        assert!(code.contains("s1_0_t"));
        assert!(code.contains("p_t"));
        assert!(code.contains("MIN(6,"));
        assert!(code.contains("MIN(649,"));
        assert!(code.contains("s1_0_t*109"));
        assert!(code.contains("p_t*350"));
        assert_eq!(code.matches('{').count(), code.matches('}').count());
    }
}
