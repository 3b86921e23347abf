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

use crate::cexpr::{join, uint, CProgram, Pad};
use crate::original::{emit_arrays, emit_block, emit_nodes};
use prem_core::{
    ArrayUse, BufferAttr, Component, ComponentAnalysis, CoreAnalysis, ExecModel, OuterTerm,
    Platform, Solution,
};
use prem_ir::{IdxExpr, Loop, Program};
use prem_polyhedral::Interval;
use std::collections::HashMap;
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

/// Everything before the SPM partitions: headers, macros and the PREM API.
const PREAMBLE: &str = "#include <stdint.h>\n#include <stddef.h>\n#include <float.h>\n\n\
    #define MAX(a, b) ((a) > (b) ? (a) : (b))\n\
    #define MIN(a, b) ((a) < (b) ? (a) : (b))\n\n\
    /* PREM streaming API (Soliman et al., Table 2.1 + swapnd, §3.5) */\n\
    extern int  allocate_buffer(void *dst, int attr);\n\
    extern void swap_buffer(int id, uint64_t *src, int size);\n\
    extern void swap2d_buffer(int id, uint64_t *src, int width, int height, int spitch, int dpitch);\n\
    extern void swapnd_buffer(int id, uint64_t *src, size_t dim, const int size[], const int spitch[], const int dpitch[]);\n\
    extern void deallocate_buffer(int id);\n\
    extern void dispatch(void);\n\
    extern void end_segment(void);\n\
    extern int  threadID(void);\n\
    #define PREM_RO 0\n#define PREM_WO 1\n#define PREM_RW 2\n\n";

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
    let mut out = String::from(PREAMBLE);
    let half = platform.spm_bytes / 2;
    w!(
        &mut out,
        "/* Two streaming SPM partitions of {half} bytes each (§3.1) */\n\
         extern uint8_t __spm_part1[{half}];\nextern uint8_t __spm_part2[{half}];\n\n\
         typedef struct {{ long offset; int size[8]; }} prem_xfer_t;\n\n"
    );
    emit_arrays(&mut out, program);
    w!(&mut out, "\nvoid {}_prem(void) {{\n", program.name);
    emit_body(
        &CProgram::new(program),
        components,
        &mut out,
        |c, out, ec, indent| emit_component(c, ec, platform, indent, out),
    )?;
    out.push_str("}\n");
    Ok(out)
}

/// Emits the program body at indent 1, each loop that starts one of
/// `components` (the first listed, if several) through `component`.
pub(crate) fn emit_body(
    c: &CProgram,
    components: &[EmitComponent],
    out: &mut String,
    component: impl Fn(&CProgram, &mut String, &EmitComponent, usize) -> Result<(), EmitError>,
) -> Result<(), EmitError> {
    let mut starts: HashMap<usize, &EmitComponent> = HashMap::with_capacity(components.len());
    for ec in components {
        starts.entry(ec.component.levels[0].loop_id).or_insert(ec);
    }
    let mut hook = |out: &mut String, l: &Loop, indent: usize| match starts.get(&l.id) {
        Some(ec) => component(c, out, ec, indent).map(|()| true),
        None => Ok(false),
    };
    emit_nodes(c, &c.program.body, 1, &c.identity(), &mut hook, out)
}

/// Writes the outer-loop terms ` + coeff*(v - lo)` of one array dimension.
fn write_outer_terms(c: &CProgram, out: &mut String, terms: &[OuterTerm]) {
    for t in terms {
        w!(
            out,
            " + {}*({} - {})",
            t.coeff,
            c.loops.name(t.loop_id),
            t.lo
        );
    }
}

/// The lower bound of the canonical range of one array dimension, as a C
/// expression over the tiled-loop variables and outer loop variables: the
/// minimum over the dimension's contributions.
fn range_lo(c: &CProgram, ec: &EmitComponent, arr: &ArrayUse, dim: usize) -> String {
    let (contribs, out) = (&arr.contribs[dim], &mut String::new());
    // `MIN(MIN(e0, e1), e2)`: the opening `MIN(`s first.
    for _ in 1..contribs.len() {
        out.push_str("MIN(");
    }
    for (i, contrib) in contribs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        w!(out, "{}", contrib.base.lo);
        let levels = ec.component.levels.iter().zip(&ec.solution.k);
        for (&coef, (lv, k)) in contrib.comp_coeffs.iter().zip(levels) {
            if coef > 0 {
                w!(out, " + {coef}*({}_t*{k})", lv.name);
            } else if coef < 0 {
                // Negative coefficient: the minimum comes from the tile's
                // upper end (clipped at N-1).
                w!(
                    out,
                    " + {coef}*MIN({}, ({}_t+1)*{k} - 1)",
                    lv.count - 1,
                    lv.name
                );
            }
        }
        write_outer_terms(c, out, &arr.outer_terms[dim]);
        if i > 0 {
            out.push(')');
        }
    }
    std::mem::take(out)
}

/// Writes one swap-table entry: the main-memory element offset of the range
/// origin (§5.3.2) and the range's sizes. The scheduler pinned the outer
/// loops at their first iteration; the symbolic outer expression is added to
/// its base.
fn write_swap_entry(c: &CProgram, out: &mut String, arr: &ArrayUse, range: &[Interval]) {
    out.push('{');
    let mut stride = 1i64;
    join(out, " + ", (0..arr.dims.len()).rev(), |out, d| {
        w!(out, "({}", range[d].lo);
        write_outer_terms(c, out, &arr.outer_terms[d]);
        out.push_str(")*");
        uint(out, stride as u64);
        stride *= arr.dims[d];
    });
    out.push_str(", {");
    join(out, ", ", range, |out, iv| uint(out, iv.len()));
    out.push_str("}}");
}

/// `[d1][d2]…`: the inner dimensions of a buffer's C type.
struct Dims<'a>(&'a [i64]);

impl fmt::Display for Dims<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.iter().try_for_each(|d| write!(f, "[{d}]"))
    }
}

/// Emits one transformed component block.
fn emit_component(
    c: &CProgram,
    ec: &EmitComponent,
    platform: &Platform,
    indent: usize,
    out: &mut String,
) -> Result<(), EmitError> {
    let (comp, sol) = (&ec.component, &ec.solution);
    let (pad, pad1) = (Pad(indent), Pad(indent + 1));
    let depth = comp.depth();
    let threads = sol.threads() as usize;

    // Per-core swap lists (segment index, range), per array: the schedule's
    // own `SegmentToSwap` lists, so the emitted swaps are exactly the ones
    // the makespan model prices. Execution times play no part here.
    let idle = ExecModel {
        o: vec![0.0; depth],
        w: 0.0,
    };
    let analysis = ComponentAnalysis::build(comp, sol, platform.cores, &idle, true)
        .map_err(|e| EmitError::Infeasible(e.to_string()))?;
    let id = comp.levels.last().expect("non-empty component").loop_id;
    let body = c
        .loops
        .get(id)
        .map(|l| &l.body[..])
        .ok_or(EmitError::MissingLoop(id))?;
    let cores: Vec<&CoreAnalysis> = (0..threads).map(|i| analysis.core(i)).collect();
    // An array no segment binds still gets a (one-element) buffer.
    let bboxes: Vec<Vec<i64>> = analysis
        .bounding_boxes
        .iter()
        .map(|bb| bb.iter().map(|&b| b.max(1)).collect())
        .collect();
    let mut prefix = String::new();
    join(&mut prefix, "_", &comp.levels, |s, lv| s.push_str(&lv.name));

    w!(out, "{pad}{{ /* === PREM component (");
    join(out, ", ", &comp.levels, |out, lv| out.push_str(&lv.name));
    w!(out, ") — {sol} on {threads} threads === */\n");
    w!(out, "{pad1}int {prefix}_seg_count = 0;\n");

    // Swap parameter tables: offsets may reference outer loop variables, so
    // the tables live here (inside the enclosing loops), like Listing 3.3.
    for (ai, arr) in comp.arrays.iter().enumerate() {
        let a = &arr.name;
        let lists = || cores.iter().map(|core| &core.swap_lists[ai]);
        let max_swaps = lists().map(Vec::len).max().unwrap_or(0).max(1);
        w!(out, "{pad1}const int {a}_nswap[{threads}] = {{");
        join(out, ", ", lists(), |out, list| uint(out, list.len() as u64));
        w!(
            out,
            "}};\n{pad1}const int {a}_seg_at[{threads}][{max_swaps}] = {{"
        );
        join(out, ", ", lists(), |out, list| {
            out.push('{');
            join(out, ", ", 0..max_swaps, |out, x| {
                uint(out, list.get(x).map_or(0, |entry| entry.seg as u64));
            });
            out.push('}');
        });
        w!(
            out,
            "}};\n{pad1}const prem_xfer_t {a}_swap[{threads}][{max_swaps}] = {{\n"
        );
        for core in &cores {
            let ranges = &core.ranges.as_deref().expect("built with retained ranges")[ai];
            w!(out, "{pad1}    {{");
            // Short rows are padded.
            join(out, ", ", 0..max_swaps, |out, x| match ranges.get(x) {
                Some(range) => write_swap_entry(c, out, arr, range),
                None => out.push_str("{0, {0}}"),
            });
            out.push_str("},\n");
        }
        w!(out, "{pad1}}};\n");
    }

    // Buffer pointers into the two SPM partitions and the rebindable alias.
    // The main-memory base is captured first: the alias below shadows the
    // global array name inside this block.
    let elem_of = |arr: &ArrayUse| c.program.array(arr.array).elem.c_name();
    for arr in &comp.arrays {
        let (elem, a) = (elem_of(arr), &arr.name);
        w!(out, "{pad1}{elem} *{a}_mem = ({elem}*){a};\n");
    }
    let mut spm_off = 0i64;
    for (arr, bbox) in comp.arrays.iter().zip(&bboxes) {
        let (elem, a, inner) = (elem_of(arr), &arr.name, Dims(&bbox[1..]));
        for part in 1..=2 {
            w!(
                out,
                "{pad1}{elem} (*{a}_buf{part}){inner} = ({elem} (*){inner})(__spm_part{part} + {spm_off});\n"
            );
        }
        w!(out, "{pad1}{elem} (*{a}){inner} = {a}_buf1;\n");
        spm_off += arr.elem_bytes * bbox.iter().product::<i64>();
    }

    // BUFFER_ALLOC_APIS: allocations, first swaps, dispatch.
    w!(out, "{pad1}/* BUFFER_ALLOC_APIS (§3.5) */\n");
    for arr in &comp.arrays {
        let a = &arr.name;
        let attr = match arr.attr {
            BufferAttr::Ro => "PREM_RO",
            BufferAttr::Wo => "PREM_WO",
            BufferAttr::Rw => "PREM_RW",
        };
        w!(
            out,
            "{pad1}int {a}_id1 = allocate_buffer({a}_buf1, {attr});\n"
        );
        w!(
            out,
            "{pad1}int {a}_id2 = allocate_buffer({a}_buf2, {attr});\n"
        );
    }
    for (ai, (arr, bbox)) in comp.arrays.iter().zip(&bboxes).enumerate() {
        // A thread that runs segments but never binds the array (every
        // access guarded away) gets no initial swap. Idle threads keep the
        // unconditional prologue, which the schedule prices for none of its
        // calls.
        let unbound = cores
            .iter()
            .any(|core| core.nseg > 0 && core.swap_lists[ai].is_empty());
        if unbound {
            w!(out, "{pad1}if (0 < {}_nswap[threadID()]) {{\n", arr.name);
        }
        emit_swap_call(
            c,
            arr,
            bbox,
            Some(0),
            Pad(indent + 1 + usize::from(unbound)),
            out,
        );
        if unbound {
            w!(out, "{pad1}}}\n");
        }
    }
    w!(out, "{pad1}dispatch();\n");
    for (arr, bbox) in comp.arrays.iter().zip(&bboxes) {
        w!(out, "{pad1}if (1 < {}_nswap[threadID()]) {{\n", arr.name);
        emit_swap_call(c, arr, bbox, Some(1), Pad(indent + 2), out);
        w!(out, "{pad1}}}\n");
    }
    for a in comp.arrays.iter().map(|arr| &arr.name) {
        w!(
            out,
            "{pad1}int {a}_cursor = 2; /* next swap entry to issue */\n"
        );
        w!(out, "{pad1}int {a}_rb = 1; /* next rebind entry */\n");
    }
    w!(out, "{pad1}end_segment(); /* seg 0 done */\n");

    // Tiled loops with per-thread group bounds (§3.4).
    let (m, z) = (sol.m(comp), sol.z(comp));
    for (j, lv) in comp.levels.iter().enumerate() {
        let (p, n) = (Pad(indent + 1 + j), &lv.name);
        let prod_from_j: i64 = sol.r[j..].iter().product();
        let prod_after_j: i64 = sol.r[j + 1..].iter().product();
        w!(
            out,
            "{p}int g_{n} = (threadID() % {prod_from_j}) / {prod_after_j};\n"
        );
        w!(
            out,
            "{p}for (int {n}_t = g_{n}*{zj}; {n}_t < MIN({mj}, (g_{n}+1)*{zj}); {n}_t++) {{\n",
            zj = z[j],
            mj = m[j]
        );
    }

    // DATA_SWAP_APIS: table-driven cursor form (generalizes the paper's
    // constant-change-stride conditionals, §3.5).
    let inner = Pad(indent + 1 + depth);
    w!(out, "{inner}/* DATA_SWAP_APIS (§3.5) */\n");
    for (arr, bbox) in comp.arrays.iter().zip(&bboxes) {
        let a = &arr.name;
        // Rebind the array alias when the upcoming segment starts a new
        // range: the block runs at the seg_count = s-1 boundary of segment s.
        w!(
            out,
            "{inner}if ({a}_rb < {a}_nswap[threadID()] && {a}_seg_at[threadID()][{a}_rb] == {prefix}_seg_count + 1) {{\n\
             {inner}    {a} = ({a}_rb % 2) ? {a}_buf2 : {a}_buf1;\n\
             {inner}    {a}_rb++;\n{inner}}}\n"
        );
        // Issue entry x's swap at the end of segment ST(x-1)-1, so the DMA
        // transfers it during segment ST(x-1) (§3.5).
        w!(
            out,
            "{inner}if ({a}_cursor < {a}_nswap[threadID()] && {prefix}_seg_count == {a}_seg_at[threadID()][{a}_cursor - 1] - 1) {{\n"
        );
        emit_swap_call(c, arr, bbox, None, Pad(indent + 2 + depth), out);
        w!(out, "{inner}    {a}_cursor++;\n{inner}}}\n");
    }

    // Element loops, then the subtree under the innermost level with
    // accesses to component arrays rewritten buffer-relative. Each
    // dimension's range lower bound is written once per component.
    emit_element_loops(out, ec, indent + 1 + depth);
    let lows: Vec<Vec<String>> = comp
        .arrays
        .iter()
        .map(|arr| {
            (0..arr.contribs.len())
                .map(|dim| range_lo(c, ec, arr, dim))
                .collect()
        })
        .collect();
    let rewrite = |out: &mut String, array: usize, dim: usize, e: &IdxExpr| {
        let Some(ai) = comp.arrays.iter().position(|a| a.array == array) else {
            return c.idx(out, e);
        };
        out.push('(');
        c.idx(out, e);
        w!(out, ") - ({})", lows[ai][dim]);
    };
    emit_block(c, body, indent + 1 + 2 * depth, &rewrite, out);

    // Close element loops, end segment, close tiled loops.
    close_loops(out, indent + 1 + depth, depth);
    w!(out, "{inner}{prefix}_seg_count++;\n{inner}end_segment();\n");
    close_loops(out, indent + 1, depth);

    // BUFFER_DEALLOC_APIS.
    w!(out, "{pad1}/* BUFFER_DEALLOC_APIS (§3.5) */\n");
    for a in comp.arrays.iter().map(|arr| &arr.name) {
        w!(
            out,
            "{pad1}deallocate_buffer({a}_id1);\n{pad1}deallocate_buffer({a}_id2);\n"
        );
    }
    w!(out, "{pad1}end_segment();\n{pad}}}\n");
    Ok(())
}

/// Opens a component's element loops, outermost at `indent`: each level runs
/// over its tile `[n_t*K, (n_t+1)*K)`, clipped at the loop's end.
pub(crate) fn emit_element_loops(out: &mut String, ec: &EmitComponent, indent: usize) {
    for (j, (lv, k)) in ec.component.levels.iter().zip(&ec.solution.k).enumerate() {
        let (p, n, b, s) = (Pad(indent + j), &lv.name, lv.begin, lv.stride);
        let last = b + s * (lv.count - 1);
        w!(
            out,
            "{p}for (int {n} = {b} + {s}*({n}_t*{k}); {n} <= MIN({last}, {b} + {s}*(({n}_t+1)*{k} - 1)); {n} += {s}) {{\n"
        );
    }
}

/// Closes `count` nested loops whose outermost sits at `indent`.
pub(crate) fn close_loops(out: &mut String, indent: usize, count: usize) {
    for j in (0..count).rev() {
        w!(out, "{}}}\n", Pad(indent + j));
    }
}

/// Emits one swap call for swap-table entry `at` (`None`: the array's
/// cursor), choosing `swap_buffer`/`swap2d_buffer`/`swapnd_buffer` by
/// dimensionality (Algorithm 3). The entry's successor's parity selects the
/// target buffer.
fn emit_swap_call(
    c: &CProgram,
    arr: &ArrayUse,
    bbox: &[i64],
    at: Option<usize>,
    pad: Pad,
    out: &mut String,
) {
    let a = &arr.name;
    let elem = c.program.array(arr.array).elem.c_name();
    let n = arr.dims.len();
    let e = SwapEntry { array: a, at };
    let call = match n {
        1 => "swap_buffer",
        2 => "swap2d_buffer",
        _ => "swapnd_buffer",
    };
    w!(out, "{pad}{call}(((");
    match at {
        Some(x) => w!(out, "{}", x + 1),
        None => w!(out, "{a}_cursor + 1"),
    }
    w!(
        out,
        ") % 2) ? {a}_id1 : {a}_id2, (uint64_t*)(({elem}*){a}_mem + {e}.offset), "
    );
    match n {
        1 => w!(out, "{e}.size[0] * sizeof({elem}));\n"),
        2 => w!(
            out,
            "{e}.size[1] * sizeof({elem}), {e}.size[0], {} * sizeof({elem}), {} * sizeof({elem}));\n",
            arr.dims[1],
            bbox[1]
        ),
        _ => {
            // The innermost size and pitches are in bytes.
            let bytes = |out: &mut String, d: usize| {
                if d == n - 1 {
                    w!(out, " * sizeof({elem})");
                }
            };
            w!(out, "{n}, (const int[]){{");
            join(out, ", ", 0..n, |out, d| {
                w!(out, "{e}.size[{d}]");
                bytes(out, d);
            });
            out.push_str("}, (const int[]){");
            join(out, ", ", 1..n, |out, d| {
                w!(out, "{}", arr.dims[d]);
                bytes(out, d);
            });
            out.push_str("}, (const int[]){");
            join(out, ", ", 1..n, |out, d| {
                w!(out, "{}", bbox[d]);
                bytes(out, d);
            });
            out.push_str("});\n");
        }
    }
}

/// `<a>_swap[threadID()][x]`: the swap-table entry a swap call issues, `x`
/// a constant or (`None`) the array's cursor.
#[derive(Clone, Copy)]
struct SwapEntry<'a> {
    array: &'a str,
    at: Option<usize>,
}

impl fmt::Display for SwapEntry<'_> {
    // Plain writes: a swap call prints its entry up to five times.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.array)?;
        f.write_str("_swap[threadID()][")?;
        match self.at {
            Some(x) => x.fmt(f)?,
            None => {
                f.write_str(self.array)?;
                f.write_str("_cursor")?;
            }
        }
        f.write_str("]")
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
        emit_component(&CProgram::new(&program), &ec, &platform, 0, &mut out).unwrap();

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
