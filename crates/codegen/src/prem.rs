//! Emission of PREM-compliant C (the output of Listing 3.3).
//!
//! For every scheduled component the emitter produces:
//!
//! * per-array *swap parameter tables* (§3.5, Table 3.2): one row per thread,
//!   one entry per `SegmentToSwap` element, holding the main-memory offset
//!   and transfer sizes (offsets may reference outer loop variables, so the
//!   tables are automatic locals declared inside the outer loops, exactly
//!   like Listing 3.3);
//! * streaming buffer pointers into the two SPM partitions and the
//!   `allocate_buffer` calls;
//! * the initial swaps and `dispatch` of the initialization segment;
//! * per-thread tiled loops with the `threadID()`-derived group bounds of
//!   §3.4;
//! * a `DATA_SWAP_APIS` block driven by per-thread cursor tables — the
//!   uniform generalization of the paper's constant-change-stride
//!   conditionals and bit vectors (§3.5); entry `x` targets buffer
//!   `x mod 2`, reproducing the double-buffer alternation;
//! * element loops whose accesses are rewritten buffer-relative
//!   (`i[s1_0 - s1_0_t*109]` in the paper's example);
//! * the `BUFFER_DEALLOC_APIS` epilogue.

use crate::cexpr::{idx_to_c, stmt_to_c};
use crate::original::emit_nodes;
use prem_core::{
    ArrayUse, BufferAttr, Component, ComponentAnalysis, ExecModel, Platform, Solution,
};
use prem_ir::{IdxExpr, Node, Program};
use prem_polyhedral::Interval;
use std::fmt;

/// Error raised when a program cannot be emitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmitError {
    /// The component's solution is not schedulable.
    Infeasible(String),
    /// A component loop was not found in the program.
    MissingLoop(usize),
}

impl fmt::Display for EmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmitError::Infeasible(s) => write!(f, "cannot emit infeasible solution: {s}"),
            EmitError::MissingLoop(id) => write!(f, "component loop l{id} not in program"),
        }
    }
}

impl std::error::Error for EmitError {}

/// A component paired with the solution to emit.
#[derive(Debug, Clone)]
pub struct EmitComponent {
    /// The component.
    pub component: Component,
    /// The chosen solution.
    pub solution: Solution,
}

/// Emits the full PREM-compliant program:
/// `void <name>_prem(void)` parameterized by `threadID()`, plus the PREM API
/// prototypes and SPM partition symbols.
///
/// # Errors
///
/// Returns [`EmitError`] if a solution is infeasible or the program shape is
/// inconsistent.
pub fn emit_prem_c(
    program: &Program,
    components: &[EmitComponent],
    platform: &Platform,
) -> Result<String, EmitError> {
    let mut out = String::new();
    out.push_str("#include <stdint.h>\n#include <stddef.h>\n#include <float.h>\n\n");
    out.push_str("#define MAX(a, b) ((a) > (b) ? (a) : (b))\n");
    out.push_str("#define MIN(a, b) ((a) < (b) ? (a) : (b))\n\n");
    out.push_str("/* PREM streaming API (Soliman et al., Table 2.1 + swapnd, §3.5) */\n");
    out.push_str("extern int  allocate_buffer(void *dst, int attr);\n");
    out.push_str("extern void swap_buffer(int id, uint64_t *src, int size);\n");
    out.push_str(
        "extern void swap2d_buffer(int id, uint64_t *src, int width, int height, int spitch, int dpitch);\n",
    );
    out.push_str(
        "extern void swapnd_buffer(int id, uint64_t *src, size_t dim, const int size[], const int spitch[], const int dpitch[]);\n",
    );
    out.push_str("extern void deallocate_buffer(int id);\n");
    out.push_str("extern void dispatch(void);\n");
    out.push_str("extern void end_segment(void);\n");
    out.push_str("extern int  threadID(void);\n");
    out.push_str("#define PREM_RO 0\n#define PREM_WO 1\n#define PREM_RW 2\n\n");
    out.push_str(&format!(
        "/* Two streaming SPM partitions of {} bytes each (§3.1) */\n",
        platform.spm_bytes / 2
    ));
    out.push_str(&format!(
        "extern uint8_t __spm_part1[{0}];\nextern uint8_t __spm_part2[{0}];\n\n",
        platform.spm_bytes / 2
    ));
    out.push_str("typedef struct { long offset; int size[8]; } prem_xfer_t;\n\n");
    for a in &program.arrays {
        out.push_str(&format!("{a};\n"));
    }

    out.push_str(&format!("\nvoid {}_prem(void) {{\n", program.name));
    emit_prem_nodes(program, &program.body, components, platform, 1, &mut out)?;
    out.push_str("}\n");
    Ok(out)
}

fn emit_prem_nodes(
    program: &Program,
    nodes: &[Node],
    components: &[EmitComponent],
    platform: &Platform,
    indent: usize,
    out: &mut String,
) -> Result<(), EmitError> {
    let pad = "    ".repeat(indent);
    for n in nodes {
        match n {
            Node::Loop(l) => {
                if let Some(ec) = components
                    .iter()
                    .find(|c| c.component.levels[0].loop_id == l.id)
                {
                    emit_component(program, ec, platform, indent, out)?;
                    continue;
                }
                out.push_str(&format!(
                    "{pad}for (int {v} = {b}; {v} <= {e}; {v} += {s}) {{\n",
                    v = l.name,
                    b = l.begin,
                    e = l.last(),
                    s = l.stride
                ));
                emit_prem_nodes(program, &l.body, components, platform, indent + 1, out)?;
                out.push_str(&format!("{pad}}}\n"));
            }
            Node::If(i) => {
                out.push_str(&format!(
                    "{pad}if ({}) {{\n",
                    crate::cexpr::cond_to_c(program, &i.cond)
                ));
                emit_prem_nodes(program, &i.body, components, platform, indent + 1, out)?;
                out.push_str(&format!("{pad}}}\n"));
            }
            Node::Stmt(s) => {
                let identity = |_: usize, _: usize, e: &IdxExpr| idx_to_c(program, e);
                out.push_str(&format!("{pad}{}\n", stmt_to_c(program, s, &identity)));
            }
        }
    }
    Ok(())
}

/// Lower bound of the canonical range of one array dimension, as a C
/// expression over the tiled-loop variables and outer loop variables.
fn range_lo_expr(
    program: &Program,
    comp: &Component,
    arr: &ArrayUse,
    dim: usize,
    k: &[i64],
) -> String {
    let exprs: Vec<String> = arr.contribs[dim]
        .iter()
        .map(|c| {
            let mut terms = vec![c.base.lo.to_string()];
            for (j, (&coef, lv)) in c.comp_coeffs.iter().zip(&comp.levels).enumerate() {
                if coef == 0 {
                    continue;
                }
                if coef > 0 {
                    terms.push(format!("{coef}*({}_t*{})", lv.name, k[j]));
                } else {
                    // Negative coefficient: the minimum comes from the tile's
                    // upper end (clipped at N-1).
                    terms.push(format!(
                        "{coef}*MIN({}, ({}_t+1)*{} - 1)",
                        lv.count - 1,
                        lv.name,
                        k[j]
                    ));
                }
            }
            for t in &arr.outer_terms[dim] {
                let name = crate::cexpr::loop_name(program, t.loop_id);
                terms.push(format!("{}*({} - {})", t.coeff, name, t.lo));
            }
            terms.join(" + ")
        })
        .collect();
    match exprs.len() {
        1 => exprs.into_iter().next().unwrap(),
        _ => {
            let mut it = exprs.into_iter();
            let first = it.next().unwrap();
            it.fold(first, |acc, e| format!("MIN({acc}, {e})"))
        }
    }
}

/// Emits one transformed component block.
fn emit_component(
    program: &Program,
    ec: &EmitComponent,
    platform: &Platform,
    indent: usize,
    out: &mut String,
) -> Result<(), EmitError> {
    let comp = &ec.component;
    let sol = &ec.solution;
    let pad = "    ".repeat(indent);
    let pad1 = "    ".repeat(indent + 1);
    let names: Vec<&str> = comp.levels.iter().map(|l| l.name.as_str()).collect();
    let prefix = names.join("_");
    let threads = sol.threads() as usize;

    // Per-core swap lists (segment index, range), per array: the schedule's
    // own `SegmentToSwap` lists, so the emitted swaps are exactly the ones
    // the makespan model prices. Execution times play no part here.
    let idle = ExecModel {
        o: vec![0.0; comp.depth()],
        w: 0.0,
    };
    let analysis = ComponentAnalysis::build(comp, sol, platform.cores, &idle, true)
        .map_err(|e| EmitError::Infeasible(e.to_string()))?;
    type SwapList = Vec<(usize, Vec<Interval>)>;
    let swap_lists: Vec<Vec<SwapList>> = analysis.cores[..threads]
        .iter()
        .map(|core| {
            let ranges = core.ranges.as_ref().expect("built with retained ranges");
            core.swap_lists
                .iter()
                .zip(ranges)
                .map(|(list, rs)| list.iter().map(|e| e.seg).zip(rs.iter().cloned()).collect())
                .collect()
        })
        .collect();
    // An array no segment binds still gets a (one-element) buffer.
    let bboxes: Vec<Vec<i64>> = analysis
        .bounding_boxes
        .iter()
        .map(|bb| bb.iter().map(|&b| b.max(1)).collect())
        .collect();

    out.push_str(&format!(
        "{pad}{{ /* === PREM component ({}) — {} on {} threads === */\n",
        names.join(", "),
        sol,
        threads
    ));
    out.push_str(&format!("{pad1}int {prefix}_seg_count = 0;\n"));

    // Swap parameter tables: offsets may reference outer loop variables, so
    // the tables live here (inside the enclosing loops), like Listing 3.3.
    for (ai, arr) in comp.arrays.iter().enumerate() {
        let max_swaps = swap_lists
            .iter()
            .map(|l| l[ai].len())
            .max()
            .unwrap_or(0)
            .max(1);
        out.push_str(&format!(
            "{pad1}const int {a}_nswap[{threads}] = {{{}}};\n",
            swap_lists
                .iter()
                .map(|l| l[ai].len().to_string())
                .collect::<Vec<_>>()
                .join(", "),
            a = arr.name,
        ));
        out.push_str(&format!(
            "{pad1}const int {a}_seg_at[{threads}][{max_swaps}] = {{{}}};\n",
            swap_lists
                .iter()
                .map(|l| {
                    let mut row: Vec<String> =
                        l[ai].iter().map(|(seg, _)| seg.to_string()).collect();
                    row.resize(max_swaps, "0".to_string());
                    format!("{{{}}}", row.join(", "))
                })
                .collect::<Vec<_>>()
                .join(", "),
            a = arr.name,
        ));
        out.push_str(&format!(
            "{pad1}const prem_xfer_t {a}_swap[{threads}][{max_swaps}] = {{\n",
            a = arr.name
        ));
        for lists in &swap_lists {
            out.push_str(&format!("{pad1}    {{"));
            for (x, (_, range)) in lists[ai].iter().enumerate() {
                if x > 0 {
                    out.push_str(", ");
                }
                // Main-memory element offset of the range origin (§5.3.2).
                let mut offset_terms = Vec::new();
                let mut stride = 1i64;
                for d in (0..arr.dims.len()).rev() {
                    let lo = range[d].lo;
                    // Subtract the scheduler's pinned-outer base and add the
                    // symbolic outer expression instead.
                    let mut term = format!("{lo}");
                    for t in &arr.outer_terms[d] {
                        let name = crate::cexpr::loop_name(program, t.loop_id);
                        term = format!("{term} + {}*({} - {})", t.coeff, name, t.lo);
                    }
                    offset_terms.push(format!("({term})*{stride}"));
                    stride *= arr.dims[d];
                }
                let sizes: Vec<String> = range.iter().map(|iv| iv.len().to_string()).collect();
                out.push_str(&format!(
                    "{{{}, {{{}}}}}",
                    offset_terms.join(" + "),
                    sizes.join(", ")
                ));
            }
            // Pad short rows.
            for x in lists[ai].len()..max_swaps {
                if x > 0 {
                    out.push_str(", ");
                }
                out.push_str("{0, {0}}");
            }
            out.push_str("},\n");
        }
        out.push_str(&format!("{pad1}}};\n"));
    }

    // Buffer pointers into the two SPM partitions and the rebindable alias.
    // The main-memory base is captured first: the alias below shadows the
    // global array name inside this block.
    let mut spm_off = 0i64;
    for arr in &comp.arrays {
        let elem = program.array(arr.array).elem.c_name();
        out.push_str(&format!(
            "{pad1}{elem} *{a}_mem = ({elem}*){a};\n",
            a = arr.name
        ));
    }
    for (ai, arr) in comp.arrays.iter().enumerate() {
        let elem = program.array(arr.array).elem.c_name();
        let inner: String = bboxes[ai][1..].iter().map(|d| format!("[{d}]")).collect();
        for part in 1..=2 {
            out.push_str(&format!(
                "{pad1}{elem} (*{a}_buf{part}){inner} = ({elem} (*){inner})(__spm_part{part} + {spm_off});\n",
                a = arr.name,
            ));
        }
        out.push_str(&format!(
            "{pad1}{elem} (*{a}){inner} = {a}_buf1;\n",
            a = arr.name
        ));
        spm_off += arr.elem_bytes * bboxes[ai].iter().product::<i64>();
    }

    // BUFFER_ALLOC_APIS: allocations, first swaps, dispatch.
    out.push_str(&format!("{pad1}/* BUFFER_ALLOC_APIS (§3.5) */\n"));
    for arr in &comp.arrays {
        let attr = match arr.attr {
            BufferAttr::Ro => "PREM_RO",
            BufferAttr::Wo => "PREM_WO",
            BufferAttr::Rw => "PREM_RW",
        };
        out.push_str(&format!(
            "{pad1}int {a}_id1 = allocate_buffer({a}_buf1, {attr});\n{pad1}int {a}_id2 = allocate_buffer({a}_buf2, {attr});\n",
            a = arr.name
        ));
    }
    for (ai, arr) in comp.arrays.iter().enumerate() {
        // A thread that runs segments but never binds the array (every
        // access guarded away) gets no initial swap. Idle threads keep the
        // unconditional prologue, which the schedule prices for none of its
        // calls.
        let unbound = analysis.cores[..threads]
            .iter()
            .any(|c| c.nseg > 0 && c.swap_lists[ai].is_empty());
        let swap_pad = if unbound {
            out.push_str(&format!(
                "{pad1}if (0 < {}_nswap[threadID()]) {{\n",
                arr.name
            ));
            format!("{pad1}    ")
        } else {
            pad1.clone()
        };
        emit_swap_call(program, arr, &bboxes[ai], "0", "1", &swap_pad, out);
        if unbound {
            out.push_str(&format!("{pad1}}}\n"));
        }
    }
    out.push_str(&format!("{pad1}dispatch();\n"));
    for (ai, arr) in comp.arrays.iter().enumerate() {
        let guard = format!("1 < {}_nswap[threadID()]", arr.name);
        out.push_str(&format!("{pad1}if ({guard}) {{\n"));
        emit_swap_call(
            program,
            arr,
            &bboxes[ai],
            "1",
            "2",
            &format!("{pad1}    "),
            out,
        );
        out.push_str(&format!("{pad1}}}\n"));
    }
    for arr in &comp.arrays {
        out.push_str(&format!(
            "{pad1}int {a}_cursor = 2; /* next swap entry to issue */\n{pad1}int {a}_rb = 1; /* next rebind entry */\n",
            a = arr.name
        ));
    }
    out.push_str(&format!("{pad1}end_segment(); /* seg 0 done */\n"));

    // Tiled loops with per-thread group bounds (§3.4).
    let mut inner_pad = pad1.clone();
    let m = sol.m(comp);
    let z = sol.z(comp);
    for (j, lv) in comp.levels.iter().enumerate() {
        let prod_from_j: i64 = sol.r[j..].iter().product();
        let prod_after_j: i64 = sol.r[j + 1..].iter().product();
        out.push_str(&format!(
            "{inner_pad}int g_{n} = (threadID() % {prod_from_j}) / {prod_after_j};\n",
            n = lv.name
        ));
        out.push_str(&format!(
            "{inner_pad}for (int {n}_t = g_{n}*{zj}; {n}_t < MIN({mj}, (g_{n}+1)*{zj}); {n}_t++) {{\n",
            n = lv.name,
            zj = z[j],
            mj = m[j]
        ));
        inner_pad.push_str("    ");
    }

    // DATA_SWAP_APIS: table-driven cursor form (generalizes the paper's
    // constant-change-stride conditionals, §3.5).
    out.push_str(&format!("{inner_pad}/* DATA_SWAP_APIS (§3.5) */\n"));
    for (ai, arr) in comp.arrays.iter().enumerate() {
        // Rebind the array alias when the upcoming segment starts a new
        // range: the block runs at the seg_count = s-1 boundary of segment s.
        out.push_str(&format!(
            "{inner_pad}if ({a}_rb < {a}_nswap[threadID()] && {a}_seg_at[threadID()][{a}_rb] == {prefix}_seg_count + 1) {{\n",
            a = arr.name
        ));
        out.push_str(&format!(
            "{inner_pad}    {a} = ({a}_rb % 2) ? {a}_buf2 : {a}_buf1;\n",
            a = arr.name
        ));
        out.push_str(&format!(
            "{inner_pad}    {a}_rb++;\n{inner_pad}}}\n",
            a = arr.name
        ));
        // Issue entry x's swap at the end of segment ST(x-1)-1, so the DMA
        // transfers it during segment ST(x-1) (§3.5).
        out.push_str(&format!(
            "{inner_pad}if ({a}_cursor < {a}_nswap[threadID()] && {prefix}_seg_count == {a}_seg_at[threadID()][{a}_cursor - 1] - 1) {{\n",
            a = arr.name
        ));
        emit_swap_call(
            program,
            arr,
            &bboxes[ai],
            &format!("{}_cursor", arr.name),
            &format!("{}_cursor + 1", arr.name),
            &format!("{inner_pad}    "),
            out,
        );
        out.push_str(&format!("{inner_pad}    {a}_cursor++;\n", a = arr.name));
        out.push_str(&format!("{inner_pad}}}\n"));
    }

    // Element loops.
    for (j, lv) in comp.levels.iter().enumerate() {
        let last = lv.begin + lv.stride * (lv.count - 1);
        out.push_str(&format!(
            "{inner_pad}for (int {n} = {b} + {s}*({n}_t*{k}); {n} <= MIN({last}, {b} + {s}*(({n}_t+1)*{k} - 1)); {n} += {s}) {{\n",
            n = lv.name,
            b = lv.begin,
            s = lv.stride,
            k = sol.k[j]
        ));
        inner_pad.push_str("    ");
    }

    // Body: the subtree under the innermost level, with accesses to
    // component arrays rewritten buffer-relative.
    let innermost = comp.levels.last().unwrap();
    let body = &program
        .find_loop(innermost.loop_id)
        .ok_or(EmitError::MissingLoop(innermost.loop_id))?
        .body;
    let rewrite = |array: usize, dim: usize, e: &IdxExpr| -> String {
        match comp.arrays.iter().find(|a| a.array == array) {
            Some(arr) => {
                let lo = range_lo_expr(program, comp, arr, dim, &sol.k);
                format!("({}) - ({lo})", idx_to_c(program, e))
            }
            None => idx_to_c(program, e),
        }
    };
    let body_indent = indent + 1 + 2 * comp.levels.len();
    emit_nodes(program, body, body_indent, &rewrite, out);

    // Close element loops, end segment, close tiled loops.
    for j in (0..comp.levels.len()).rev() {
        let _ = j;
        inner_pad.truncate(inner_pad.len() - 4);
        out.push_str(&format!("{inner_pad}}}\n"));
    }
    out.push_str(&format!("{inner_pad}{prefix}_seg_count++;\n"));
    out.push_str(&format!("{inner_pad}end_segment();\n"));
    for _ in 0..comp.levels.len() {
        inner_pad.truncate(inner_pad.len() - 4);
        out.push_str(&format!("{inner_pad}}}\n"));
    }

    // BUFFER_DEALLOC_APIS.
    out.push_str(&format!("{pad1}/* BUFFER_DEALLOC_APIS (§3.5) */\n"));
    for arr in &comp.arrays {
        out.push_str(&format!(
            "{pad1}deallocate_buffer({a}_id1);\n{pad1}deallocate_buffer({a}_id2);\n",
            a = arr.name
        ));
    }
    out.push_str(&format!("{pad1}end_segment();\n"));
    out.push_str(&format!("{pad}}}\n"));
    Ok(())
}

/// Emits one swap call for swap-list entry `entry_expr` (a C expression),
/// choosing `swap_buffer`/`swap2d_buffer`/`swapnd_buffer` by dimensionality
/// (Algorithm 3). `buf_parity_expr` selects the target buffer id.
fn emit_swap_call(
    program: &Program,
    arr: &ArrayUse,
    bbox: &[i64],
    entry_expr: &str,
    buf_parity_expr: &str,
    pad: &str,
    out: &mut String,
) {
    let a = &arr.name;
    let elem = program.array(arr.array).elem.c_name();
    let n = arr.dims.len();
    let id = format!("(({buf_parity_expr}) % 2) ? {a}_id1 : {a}_id2");
    let e = format!("{a}_swap[threadID()][{entry_expr}]");
    let src = format!("(uint64_t*)(({elem}*){a}_mem + {e}.offset)");
    match n {
        1 => {
            out.push_str(&format!(
                "{pad}swap_buffer({id}, {src}, {e}.size[0] * sizeof({elem}));\n"
            ));
        }
        2 => {
            out.push_str(&format!(
                "{pad}swap2d_buffer({id}, {src}, {e}.size[1] * sizeof({elem}), {e}.size[0], {spitch} * sizeof({elem}), {dpitch} * sizeof({elem}));\n",
                spitch = arr.dims[1],
                dpitch = bbox[1]
            ));
        }
        _ => {
            let sizes: Vec<String> = (0..n)
                .map(|d| {
                    if d == n - 1 {
                        format!("{e}.size[{d}] * sizeof({elem})")
                    } else {
                        format!("{e}.size[{d}]")
                    }
                })
                .collect();
            let spitch: Vec<String> = (1..n)
                .map(|d| {
                    if d == n - 1 {
                        format!("{} * sizeof({elem})", arr.dims[d])
                    } else {
                        arr.dims[d].to_string()
                    }
                })
                .collect();
            let dpitch: Vec<String> = (1..n)
                .map(|d| {
                    if d == n - 1 {
                        format!("{} * sizeof({elem})", bbox[d])
                    } else {
                        bbox[d].to_string()
                    }
                })
                .collect();
            out.push_str(&format!(
                "{pad}swapnd_buffer({id}, {src}, {n}, (const int[]){{{}}}, (const int[]){{{}}}, (const int[]){{{}}});\n",
                sizes.join(", "),
                spitch.join(", "),
                dpitch.join(", ")
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prem_core::{AnalyticCost, LoopTree, OptimizerOptions};
    use std::io::Write;
    use std::process::Command;

    fn emit_for(program: &Program, platform: &Platform) -> String {
        let tree = LoopTree::build(program).unwrap();
        let cost = AnalyticCost::new(program);
        let out = prem_core::optimize_app(
            &tree,
            program,
            platform,
            &cost,
            &OptimizerOptions::default(),
        );
        assert!(out.makespan_ns.is_finite());
        let comps: Vec<EmitComponent> = out
            .components
            .iter()
            .map(|c| EmitComponent {
                component: c.component.clone(),
                solution: c.solution.clone(),
            })
            .collect();
        emit_prem_c(program, &comps, platform).unwrap()
    }

    fn gcc_syntax_check(code: &str) {
        // One file per call: the tests run in parallel in one process.
        static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir();
        let path = dir.join(format!("prem_emit_{}_{call}.c", std::process::id()));
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(code.as_bytes()).unwrap();
        drop(f);
        let out = Command::new("gcc")
            .args(["-std=c99", "-fsyntax-only", "-Wall"])
            .arg(&path)
            .output()
            .expect("gcc runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        std::fs::remove_file(&path).ok();
        assert!(
            out.status.success(),
            "generated C fails to compile:\n{stderr}\n----\n{code}"
        );
    }

    #[test]
    fn lstm_emission_structure_and_syntax() {
        let program = prem_kernels::LstmConfig {
            nt: 3,
            ns: 24,
            np: 20,
        }
        .build();
        let platform = Platform::default().with_cores(3).with_spm_bytes(8 * 1024);
        let code = emit_for(&program, &platform);
        assert!(code.contains("allocate_buffer"));
        assert!(code.contains("dispatch()"));
        assert!(code.contains("end_segment()"));
        assert!(code.contains("threadID()"));
        assert!(code.contains("DATA_SWAP_APIS"));
        assert!(code.contains("BUFFER_DEALLOC_APIS"));
        assert_eq!(code.matches('{').count(), code.matches('}').count());
        gcc_syntax_check(&code);
    }

    #[test]
    fn cnn_emission_uses_swapnd_for_4d_arrays() {
        let program = prem_kernels::CnnConfig::small().build();
        let platform = Platform::default().with_spm_bytes(8 * 1024);
        let code = emit_for(&program, &platform);
        assert!(code.contains("swapnd_buffer"), "4-D arrays need swapnd");
        assert!(code.contains("out_F_swap"));
        gcc_syntax_check(&code);
    }
}

#[cfg(test)]
mod table_3_2_tests {
    use super::*;
    use prem_core::{Component, LoopTree, Solution};

    /// Table 3.2 of the thesis: the `seg_count → swap input parameters` table
    /// for the `ifog` arrays of the LSTM `(s1_0, p)` component with
    /// `K = (109, 350)`, `R = (3, 1)`: per core, element offsets
    /// (0,109), (218,327), (436,545) with sizes 109 except the last (105).
    #[test]
    fn lstm_swap_table_matches_table_3_2() {
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
        let platform = Platform::default().with_cores(3).with_spm_bytes(4 << 20);
        let mut out = String::new();
        emit_component(&program, &ec, &platform, 0, &mut out).unwrap();

        // i's swap table: 3 thread rows, 2 entries each, offsets and sizes
        // exactly as Table 3.2 (the thesis tabulates them in units of
        // elements; the last range covers rows 545..649 → size 105).
        let table_start = out.find("const prem_xfer_t i_swap[3][2]").expect("i table");
        for row in [
            "{{(0)*1, {109}}, {(109)*1, {109}}},",
            "{{(218)*1, {109}}, {(327)*1, {109}}},",
            "{{(436)*1, {109}}, {(545)*1, {105}}},",
        ] {
            assert!(
                out[table_start..table_start + 400].contains(row),
                "emitted i table does not match Table 3.2 (missing `{row}`):\n{out}"
            );
        }
        // ifog segments swap only at segments 1 and 3 (change stride 2).
        assert!(out.contains("const int i_seg_at[3][2] = {{1, 3}, {1, 3}, {1, 3}};"));
        // U_* and inp_F swap at every segment (change stride 1).
        assert!(out
            .contains("const int U_i_seg_at[3][4] = {{1, 2, 3, 4}, {1, 2, 3, 4}, {1, 2, 3, 4}};"));
        assert!(out.contains(
            "const int inp_F_seg_at[3][4] = {{1, 2, 3, 4}, {1, 2, 3, 4}, {1, 2, 3, 4}};"
        ));
    }
}
